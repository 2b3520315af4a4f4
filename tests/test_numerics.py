"""FFT, convolution, RK4, crane dynamics, phasor oracle, golden section."""

import math

import numpy as np
import pytest

from gridlambda.numerics import (
    ControlProfile,
    RK4Config,
    control_input,
    convolve_direct,
    convolve_fft,
    crane_derivative,
    fft,
    minimize_scalar,
    optimal_fraction,
    residual_amplitude,
    residual_energy,
    rk4_integrate,
)

FIGURE6_TIMING = [0.0, 0.60, 0.25, 0.15]
FIGURE6_AMOUNTS = [612296.0] * 3 + [363879.0] * 3 + [272909.0] * 3 + [545818.0] * 3
FIGURE6_DIAGONAL_SUMS = [612296.0, 463246.0, 401141.0, 363879.0, 309297.0]


# -- FFT -------------------------------------------------------------------------


def test_impulse_gives_flat_spectrum():
    out = fft([1, 0, 0, 0])
    assert np.allclose(out, np.ones(4))


def test_constant_gives_dc_bin():
    out = fft([1, 1, 1, 1])
    assert np.allclose(out, [4, 0, 0, 0])


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    back = fft(fft(x), inverse=True)
    assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-12


def test_matches_reference_dft():
    rng = np.random.default_rng(12)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert np.allclose(fft(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)
    assert np.allclose(fft(x, inverse=True), np.fft.ifft(x), rtol=1e-10, atol=1e-10)


def test_parseval():
    rng = np.random.default_rng(13)
    for n in (2, 8, 64, 256):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        spectrum = fft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-9


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        fft([1, 2, 3])


# -- convolution --------------------------------------------------------------------


def test_direct_hand_expansion():
    assert convolve_direct([1, 2], [3, 4]).tolist() == [3.0, 10.0, 8.0]


def test_identity_kernel():
    x = [5.0, -1.0, 2.5]
    assert convolve_direct([1.0], x).tolist() == x


def test_figure6_reverse_diagonal_sums():
    out = convolve_direct(FIGURE6_TIMING, FIGURE6_AMOUNTS)
    for k, expected in enumerate(FIGURE6_DIAGONAL_SUMS, start=3):
        assert abs(out[k] - expected) <= 1.0


def test_direct_matches_numpy():
    rng = np.random.default_rng(21)
    a, b = rng.normal(size=9), rng.normal(size=5)
    assert np.allclose(convolve_direct(a, b), np.convolve(a, b))


def test_fft_route_equals_direct_on_figure6():
    direct = convolve_direct(FIGURE6_TIMING, FIGURE6_AMOUNTS)
    fast = convolve_fft(FIGURE6_TIMING, FIGURE6_AMOUNTS)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(fast - direct)) / scale < 1e-9


def test_fft_route_equals_direct_on_random_cases():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n, m = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        a = rng.uniform(-100, 100, size=n)
        b = rng.uniform(-100, 100, size=m)
        direct = convolve_direct(a, b)
        fast = convolve_fft(a, b)
        scale = max(np.max(np.abs(direct)), 1e-30)
        assert np.max(np.abs(fast - direct)) / scale < 1e-9


def test_zero_vectors():
    assert convolve_fft([0.0, 0.0], [0.0]).tolist() == [0.0, 0.0]


def test_commutativity_and_linearity():
    rng = np.random.default_rng(23)
    a, b, c = (rng.normal(size=k) for k in (7, 11, 11))
    assert np.allclose(convolve_fft(a, b), convolve_fft(b, a), rtol=1e-9, atol=1e-12)
    lhs = convolve_fft(a, b + c)
    rhs = convolve_fft(a, b) + convolve_fft(a, c)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# -- RK4 -----------------------------------------------------------------------------


def test_linear_decay_accuracy():
    traj = rk4_integrate([1.0], 0.0, RK4Config(dt=0.1, steps=10), lambda x, t: -x)
    assert abs(traj[-1, 0] - math.exp(-1)) < 1e-6


def test_zero_derivative_constant_trajectory():
    traj = rk4_integrate([3.0, -4.0], 0.0, RK4Config(dt=0.5, steps=8),
                         lambda x, t: np.zeros_like(x))
    assert np.all(traj == [3.0, -4.0])


def test_fourth_order_convergence_ratio():
    def err(dt, steps):
        traj = rk4_integrate([1.0], 0.0, RK4Config(dt=dt, steps=steps), lambda x, t: -x)
        return abs(traj[-1, 0] - math.exp(-1))

    ratio = err(0.1, 10) / err(0.05, 20)
    assert 12 <= ratio <= 20


def test_nonfinite_state_aborts():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            rk4_integrate([1.0], 0.0, RK4Config(dt=1.0, steps=500), lambda x, t: x * x)


# -- crane ----------------------------------------------------------------------------


def test_derivative_at_rest_with_unit_control():
    profile = ControlProfile(fraction=0.5, eps=0.1)
    out = crane_derivative([0.0, 0.0, 0.0, 0.0], 0.0, profile)
    assert out.tolist() == [0.0, 0.0, 1.0, -1.0]


def test_pure_pendulum_restoring():
    profile = ControlProfile(fraction=0.5, eps=0.0)
    v = 0.25
    out = crane_derivative([0.0, 1.0, v, 0.0], 9.5, profile)  # past final segment: u = 0
    assert out.tolist() == [v, 0.0, 0.0, -1.0]


def test_control_zero_after_final_segment():
    profile = ControlProfile(fraction=0.3, eps=0.2)
    out = crane_derivative([1.0, 0.5, 2.0, -1.0], 8.0, profile)
    assert out.tolist() == [2.0, -1.0, 0.2 * 0.5, -0.5]


def test_control_profile_segments():
    profile = ControlProfile(fraction=0.25)
    assert [control_input(profile, t) for t in (0.0, 1.9, 2.0, 3.9, 4.0, 5.9, 6.0, 7.9, 8.0, 99.0)] == [
        1.0, 1.0, -0.25, -0.25, 0.25, 0.25, -1.0, -1.0, 0.0, 0.0,
    ]


def test_free_swing_conserves_energy():
    # With u = 0 throughout, theta^2 + q^2 drifts only at O(dt^4) per unit time.
    profile = ControlProfile(fraction=0.0, u0=0.0, eps=0.0)
    dt = 0.01
    steps = round(profile.total_time / dt)
    traj = rk4_integrate([0.0, 1.0, 0.0, 0.0], 0.0, RK4Config(dt=dt, steps=steps),
                         lambda x, t: crane_derivative(x, t, profile))
    energy = traj[:, 1] ** 2 + traj[:, 3] ** 2
    drift = np.max(np.abs(energy - energy[0]))
    assert drift < 100 * dt ** 4 * profile.total_time


def test_residual_amplitude_bang_profile():
    amp = residual_amplitude(ControlProfile(fraction=0.0))
    assert amp == pytest.approx(abs(2 * math.cos(4) - 2 * math.cos(2)), rel=1e-12)
    assert amp > 0.4


def test_residual_amplitude_zero_at_closed_form_root():
    f_star = optimal_fraction()
    assert f_star == pytest.approx((math.cos(2) - math.cos(4)) / (1 - math.cos(2)), rel=0)
    assert residual_amplitude(ControlProfile(fraction=f_star)) < 1e-12


def test_zero_intensity_profile_has_no_residual():
    assert residual_amplitude(ControlProfile(fraction=0.3, u0=0.0)) == 0.0


def test_swing_independent_of_coupling_eps():
    # eps only enters the cart equation, so the swing outcome cannot see it.
    e1 = residual_energy(ControlProfile(fraction=0.2, eps=0.0), dt=0.01)
    e2 = residual_energy(ControlProfile(fraction=0.2, eps=0.4), dt=0.01)
    assert e1 == e2


def test_simulated_residual_tracks_phasor_oracle():
    for f in (0.0, 0.1, 0.3, 0.5):
        simulated = math.sqrt(residual_energy(ControlProfile(fraction=f), dt=0.005))
        assert simulated == pytest.approx(residual_amplitude(ControlProfile(fraction=f)), abs=2e-3)


# -- golden section ---------------------------------------------------------------------


def test_quadratic_minimum():
    x, fx = minimize_scalar(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-6)
    assert abs(x - 0.3) <= 1e-6
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_absolute_value_minimum():
    x, _ = minimize_scalar(abs, -1.0, 2.0, tol=1e-7)
    assert abs(x) <= 1e-6


def test_nonfinite_objective_aborts():
    with pytest.raises(FloatingPointError):
        minimize_scalar(lambda x: float("inf"), 0.0, 1.0, tol=1e-3)


def test_bad_bracket_rejected():
    with pytest.raises(ValueError):
        minimize_scalar(abs, 1.0, 1.0)


def test_optimized_fraction_matches_phasor_root():
    f_opt, _ = minimize_scalar(
        lambda f: residual_energy(ControlProfile(fraction=f), dt=0.005), 0.0, 0.5, tol=1e-6,
    )
    assert abs(f_opt - optimal_fraction()) < 1e-3
