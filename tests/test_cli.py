"""End-to-end command-line behavior: exit codes, formats, REPL, tracing."""

import subprocess
import sys
from pathlib import Path

import pytest

from gridlambda import load_workbook_text
from gridlambda.values import render_cell

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(*args, stdin=None, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gridlambda.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=120,
    )


@pytest.fixture
def small_wb(tmp_path):
    path = tmp_path / "model.wb"
    path.write_text(
        "name Addλ := =LAMBDA(x, y, x + y)\n"
        "A1 := =SCAN(0, {1,2,3}, Addλ)\n"
        "B2 := =SUM(A1#)\n"
    )
    return path


def test_eval_prints_region_exit_zero(small_wb):
    out = run_cli("eval", str(small_wb), "--print", "A1#")
    assert out.returncode == 0
    assert "A1#:" in out.stdout
    assert "1  3  6" in out.stdout


def test_eval_corkscrew_balances():
    out = run_cli("eval", str(CORPUS / "corkscrew" / "model.wb"), "--print", "A1#", "--format", "tsv")
    assert out.returncode == 0
    row = [float(v) for v in out.stdout.strip().splitlines()[-1].split("\t")]
    balances, acc = [], 0.0
    cogs = [135000, 125000, 115000, 105000, 95000, 85000]
    for k in range(6):
        acc += 105000 * 1.05 ** k - cogs[k]
        balances.append(acc)
    assert row == pytest.approx(balances, abs=1e-9)


def test_eval_tsv_roundtrip(small_wb, tmp_path):
    out = run_cli("eval", str(small_wb), "--print", "A1#", "--format", "tsv")
    assert out.returncode == 0
    grid = [line.split("\t") for line in out.stdout.strip().splitlines()]
    assert grid == [["1", "3", "6"]]
    # Feed the grid back in as literals; values survive the trip.
    back = tmp_path / "back.wb"
    lines = []
    for r, row in enumerate(grid, start=1):
        for c, cell in enumerate(row):
            lines.append(f"{chr(ord('A') + c)}{r} := {cell}")
    back.write_text("\n".join(lines) + "\n")
    out2 = run_cli("eval", str(back), "--print", "A1:C1", "--format", "tsv")
    assert out2.stdout.strip().splitlines() == ["1\t3\t6"]


def test_eval_syntax_error_exit_two(tmp_path):
    bad = tmp_path / "bad.wb"
    bad.write_text("A1 := =1 +\n")
    out = run_cli("eval", str(bad))
    assert out.returncode == 2
    assert "bad.wb:1" in out.stderr


@pytest.mark.parametrize(
    "formula",
    ["=" + "(" * 2000 + "1" + ")" * 2000, "=" + "-" * 2000 + "1"],
    ids=["parentheses", "signs"],
)
def test_eval_deeply_nested_formula_exit_two(tmp_path, formula):
    # A fresh process: after an evaluation the worker leaves the process-wide
    # recursion limit high enough to parse these.
    deep = tmp_path / "deep.wb"
    deep.write_text(f"A1 := 1\nA2 := {formula}\n")
    out = run_cli("eval", str(deep), "--print", "A1")
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {deep}:2: formula nested too deeply (offset ")


def test_eval_prints_non_finite_literals_as_text(tmp_path):
    path = tmp_path / "inf.wb"
    path.write_text("A1 := inf\nA2 := nan\nA3 := 1e999\nA4 := -Infinity\n")
    out = run_cli("eval", str(path), "--print", "A1:A4", "--format", "tsv")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.split() == ["inf", "nan", "1e999", "-Infinity"]


def test_eval_missing_file_exit_two(tmp_path):
    out = run_cli("eval", str(tmp_path / "nope.wb"))
    assert out.returncode == 2


def test_eval_error_value_exit_one(tmp_path):
    cyc = tmp_path / "cycle.wb"
    cyc.write_text("A1 := =A2\nA2 := =A1\n")
    out = run_cli("eval", str(cyc), "--print", "A1")
    assert out.returncode == 1
    assert "#CIRC!" in out.stdout


def test_eval_bad_print_target_exit_two(small_wb):
    out = run_cli("eval", str(small_wb), "--print", "1+")
    assert out.returncode == 2


def test_eval_multiple_print_targets(small_wb):
    out = run_cli("eval", str(small_wb), "--print", "A1#", "--print", "B2")
    assert out.returncode == 0
    assert "A1#:" in out.stdout and "B2:" in out.stdout and "10" in out.stdout


def test_trace_lines_on_stderr(tmp_path):
    path = tmp_path / "trace.wb"
    path.write_text("name k := =2\nA1 := =LET(v, k, v + v)\n")
    out = run_cli("eval", str(path), "--print", "A1", "--trace")
    assert out.returncode == 0
    assert "EVAL let:v #1" in out.stderr
    assert "EVAL name:k #1" in out.stderr


def test_max_recursion_flag(tmp_path):
    path = tmp_path / "deep.wb"
    path.write_text(
        "name Loopλ := =LAMBDA(n, IF(n <= 0, 0, Loopλ(n - 1)))\n"
        "A1 := =Loopλ(50)\n"
    )
    ok = run_cli("eval", str(path), "--print", "A1", "--max-recursion", "60")
    assert ok.returncode == 0 and ok.stdout.strip().endswith("0")
    over = run_cli("eval", str(path), "--print", "A1", "--max-recursion", "10")
    assert over.returncode == 1
    assert "#NUM!" in over.stdout


def test_worker_stack_holds_deep_recursion_through_map(tmp_path):
    # Calls through C (a builtin's impl, MAP's per-cell lambda) use C stack at
    # every level; the main thread's 8 MB stack would not hold these.
    path = tmp_path / "deep.wb"
    path.write_text(
        "name F := =LAMBDA(n, IF(n = 0, 0, 1 + INDEX(MAP(n, LAMBDA(k, F(k - 1))), 1, 1)))\n"
        "A1 := =F(16000)\n"
    )
    out = run_cli("eval", str(path), "--print", "A1", "--max-recursion", "32768")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["A1:", "16000"]


def test_env_var_sets_default_depth(tmp_path):
    path = tmp_path / "deep.wb"
    path.write_text(
        "name Loopλ := =LAMBDA(n, IF(n <= 0, 0, Loopλ(n - 1)))\n"
        "A1 := =Loopλ(50)\n"
    )
    over = run_cli("eval", str(path), "--print", "A1", env_extra={"GRIDLAMBDA_MAX_RECURSION": "10"})
    assert over.returncode == 1 and "#NUM!" in over.stdout
    # An explicit flag beats the environment.
    ok = run_cli(
        "eval", str(path), "--print", "A1", "--max-recursion", "60",
        env_extra={"GRIDLAMBDA_MAX_RECURSION": "10"},
    )
    assert ok.returncode == 0


def test_corpus_command_passes():
    out = run_cli("corpus", str(CORPUS))
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("cases passed")


def test_corpus_command_reports_failures(tmp_path):
    case = tmp_path / "wrong"
    case.mkdir()
    (case / "model.wb").write_text("A1 := 2\n")
    (case / "expect.tsv").write_text("mode exact\ntarget A1\n3\n")
    out = run_cli("corpus", str(tmp_path))
    assert out.returncode == 1
    assert "FAIL wrong" in out.stdout
    assert "expected '3' got '2'" in out.stdout


def test_functions_command_lists_registry():
    out = run_cli("functions")
    assert out.returncode == 0
    for name in ("SCAN", "REDUCE", "BYROW", "VSTACK", "LAMBDA", "LET", "IF"):
        assert name in out.stdout


def test_repl_session():
    script = "\n".join(
        [
            "=SEQUENCE(3)",
            "name Addλ := =LAMBDA(x,y,x+y)",
            "=REDUCE(0,{1;2;3},Addλ)",
            "A1 := 5",
            "=A1 * 3",
            "=1 +",          # error: session continues
            "=2 + 2",
            ":quit",
        ]
    )
    out = run_cli("repl", stdin=script)
    assert out.returncode == 0
    stdout = out.stdout
    assert "name Addλ defined" in stdout
    assert "\n6\n" in stdout
    assert "15" in stdout
    assert "4" in stdout.splitlines()[-1]
    assert "error:" in out.stderr


def test_repl_statements_match_workbook_file():
    statements = [
        "sheet Data",
        "name f := =LAMBDA(x, x * 2)",
        "name n := 3",
        "name t := hello",
        "name b := TRUE",
        "name e := #N/A",
        "name d := 2013-10-01",
        "A1 := =f(n)",
        "A2 := {1,2}",
        "A3 := 2.5",
        "A4 := memo",
        "A5 := FALSE",
        "A6 := #DIV/0!",
        "A7 := 2013-10-01",
    ]
    query = "=HSTACK(n, t, b, e, d, Data!A1, Data!B2, Data!A3, Data!A4, Data!A5, Data!A6, Data!A7)"
    wb = load_workbook_text("\n".join(statements))
    wb.recalculate()
    want = [render_cell(v) for v in wb.evaluate_formula(query).rows[0]]
    assert want[:5] == ["3", "hello", "TRUE", "#N/A", "2013-10-01"]

    out = run_cli("repl", stdin="\n".join([*statements, query, ":quit"]))
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.splitlines()[-1].split() == want


def test_repl_trace_toggle():
    script = "\n".join(
        [
            ":trace on",
            "name k := =2",
            "=k + k",
            ":trace off",
            "=k",
            ":quit",
        ]
    )
    out = run_cli("repl", stdin=script)
    assert out.returncode == 0
    assert "EVAL name:k #1" in out.stderr
    assert "EVAL name:k #2" in out.stderr
    assert "EVAL name:k #3" not in out.stderr


def test_repl_growth_column():
    script = "\n".join(
        [
            "name ExponentialGrowthλ := =LAMBDA(initial, rate, nPeriods, "
            "LET(periods, SEQUENCE(1 + nPeriods, , 0), initial * (1 + rate) ^ periods))",
            "=ExponentialGrowthλ(10000, 5%, 12)",
            ":quit",
        ]
    )
    out = run_cli("repl", stdin=script)
    assert out.returncode == 0
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    assert "10000" in lines and "17958.5632602213" in lines


def test_corpus_command_load_failure_exit_two(tmp_path):
    case = tmp_path / "halfcase"
    case.mkdir()
    (case / "model.wb").write_text("A1 := 1\n")
    out = run_cli("corpus", str(tmp_path))
    assert out.returncode == 2
    assert "expect.tsv" in out.stderr
