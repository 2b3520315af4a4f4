import pytest
from hypothesis import given, strategies as st

from gridlambda.parser import LexError, Token, parse_formula, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def lexemes(source):
    return [t.lexeme for t in tokenize(source)]


def test_mod_range_call():
    toks = tokenize("=MOD(A1:A10, 3)")
    assert [(t.kind, t.lexeme) for t in toks] == [
        ("op", "="),
        ("ident", "MOD"),
        ("punct", "("),
        ("cellref", "A1"),
        ("op", ":"),
        ("cellref", "A10"),
        ("punct", ","),
        ("number", "3"),
        ("punct", ")"),
    ]


def test_greek_identifier_is_single_token():
    toks = tokenize("δt")
    assert len(toks) == 1 and toks[0].kind == "ident" and toks[0].lexeme == "δt"


def test_empty_input():
    assert tokenize("") == []
    assert tokenize("  \n ") == []


def test_tokens_compare_by_value():
    assert tokenize("$B$2 + 2.5") == [
        Token("cellref", "$B$2", 0, 4, (True, 2, True, 2)),
        Token("op", "+", 5, 6),
        Token("number", "2.5", 7, 10, 2.5),
    ]


@pytest.mark.parametrize(
    "word,kind",
    [
        ("X1", "cellref"),
        ("X1_", "ident"),
        ("$A$1", "cellref"),
        ("A$10", "cellref"),
        ("XFD1048576", "cellref"),
        ("XFE1", "ident"),      # column beyond the grid
        ("A1048577", "ident"),  # row beyond the grid
        ("BYCOL2", "ident"),    # four letters cannot be a column
        ("x0", "ident"),        # rows are 1-based, so no leading zero
        ("TRUE", "bool"),
        ("ϑλ_2.x", "ident"),
        ("x²", "ident"),        # other Unicode digits may appear in names
        ("A١", "ident"),        # but cell rows take ASCII digits only
    ],
)
def test_cellref_versus_name(word, kind):
    toks = tokenize(word)
    assert len(toks) == 1 and toks[0].kind == kind


def test_spill_suffix_requires_adjacency():
    assert kinds("A1#") == ["cellref", "spill"]
    assert kinds("sales#") == ["ident", "spill"]
    # With a gap the '#' can only start an error literal.
    with pytest.raises(LexError):
        tokenize("sales #")


@pytest.mark.parametrize(
    "text", ["#DIV/0!", "#VALUE!", "#REF!", "#NAME?", "#NUM!", "#N/A", "#CALC!", "#SPILL!", "#CIRC!"]
)
def test_error_literals(text):
    toks = tokenize(f"IF(x, {text}, 2)")
    assert ("error", text) in [(t.kind, t.lexeme) for t in toks]


def test_string_with_doubled_quotes():
    toks = tokenize('"say ""hi"" now"')
    assert len(toks) == 1 and toks[0].kind == "text"


def test_unterminated_string_reports_offset():
    with pytest.raises(LexError) as err:
        tokenize('1 + "abc')
    assert err.value.offset == 4


def test_illegal_character_offset():
    with pytest.raises(LexError) as err:
        tokenize("1 ~ 2")
    assert err.value.offset == 2


@pytest.mark.parametrize("num", ["3", "2.5", ".5", "5.", "1e3", "1.5E+30", "7e-2"])
def test_number_lexemes(num):
    toks = tokenize(num)
    assert [t.kind for t in toks] == ["number"]


@pytest.mark.parametrize("text,offset", [(".1.", 2), ("1²", 1), ("١", 0), ("=1 + ²", 5)])
def test_numbers_take_ascii_digits_only(text, offset):
    with pytest.raises(LexError) as err:
        tokenize(text)
    assert err.value.offset == offset


def test_unicode_digits_stay_inside_names():
    assert parse_formula("=x²").name == "x²"
    assert parse_formula("=A١+1").left.name == "A١"
    with pytest.raises(LexError) as err:
        parse_formula("=.1.")
    assert err.value.offset == 3


def test_exponent_requires_digits():
    # "1e" is a number then an identifier, not a malformed exponent.
    assert kinds("1e") == ["number", "ident"]


def test_spans_tile_source():
    src = '=LET(x, C5:C15 = C3, IF(x <> "", @sales#, {1,2;3,4} + 5%))'
    toks = tokenize(src)
    pos = 0
    for t in toks:
        assert src[t.start:t.end] == t.lexeme
        assert src[pos:t.start].strip() == ""  # only whitespace between tokens
        assert t.start >= pos
        pos = t.end
    assert src[pos:].strip() == ""


@given(st.text(alphabet="ABxyλδ019²١ .+-*/^&<>=(){},;:!@#$%\"'_", max_size=40))
def test_tokenize_total_and_tiled(src):
    try:
        toks = tokenize(src)
    except LexError:
        return
    pos = 0
    for t in toks:
        assert src[t.start:t.end] == t.lexeme
        assert src[pos:t.start].strip() == ""
        pos = t.end
    assert src[pos:].strip() == ""


def test_spans_tile_every_corpus_formula():
    from pathlib import Path

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    for model in sorted(corpus.glob("*/model.wb")):
        for line in model.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if ":=" not in line or line.startswith("#"):
                continue
            rhs = line.split(":=", 1)[1].strip()
            if not rhs.startswith(("=", "{")):
                continue
            toks = tokenize(rhs)
            pos = 0
            for t in toks:
                assert rhs[t.start:t.end] == t.lexeme
                assert rhs[pos:t.start].strip() == ""
                pos = t.end
            assert rhs[pos:].strip() == ""
