"""Numeric kernels and their independent oracles.

Convolution comes in two routes that check each other: a direct
reverse-diagonal sum and an FFT route (iterative radix-2 with bit-reversal
permutation, zero-padded to the next power of two). The crane study pairs an
RK4 simulation against a closed-form phasor oracle for the residual swing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def fft(x, inverse: bool = False) -> np.ndarray:
    """Radix-2 decimation-in-time FFT, iterative with bit-reversal ordering.

    The length must be a power of two (callers zero-pad). The inverse applies
    the conjugate kernel and 1/N scaling, so ``fft(fft(x), inverse=True)``
    recovers ``x``.
    """
    data = np.asarray(x, dtype=np.complex128)
    n = data.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    out = data[_bit_reverse_indices(n)].copy()
    sign = 1.0 if inverse else -1.0
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(sign * 2j * np.pi * np.arange(half) / size)
        blocks = out.reshape(n // size, size)
        even = blocks[:, :half]
        odd = blocks[:, half:] * twiddle
        upper = even + odd
        lower = even - odd
        blocks[:, :half] = upper
        blocks[:, half:] = lower
        size *= 2
    if inverse:
        out /= n
    return out


def convolve_direct(a, b) -> np.ndarray:
    """Full linear convolution by explicit reverse-diagonal sums:
    out[k] = sum_i a[i] * b[k - i]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    out = np.zeros(n + m - 1)
    for i in range(n):
        for j in range(m):
            out[i + j] += a[i] * b[j]
    return out


def convolve_fft(a, b) -> np.ndarray:
    """Linear convolution via the FFT: zero-pad to the next power of two at
    least n+m-1, multiply spectra, inverse-transform, truncate."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    out_len = n + m - 1
    size = 1
    while size < out_len:
        size *= 2
    # Huge inputs overflow to inf and nan here; callers check the result.
    with np.errstate(over="ignore", invalid="ignore"):
        fa = fft(np.concatenate([a, np.zeros(size - n)]))
        fb = fft(np.concatenate([b, np.zeros(size - m)]))
        product = fft(fa * fb, inverse=True)
    return product[:out_len].real


# ---------------------------------------------------------------------------
# Classical RK4 integration


@dataclass(frozen=True)
class RK4Config:
    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


def rk4_integrate(x0, t0: float, cfg: RK4Config, deriv) -> np.ndarray:
    """Integrate ``x' = deriv(x, t)`` with classical RK4.

    Returns the (steps+1) x dim trajectory stacking x0..xN. State times are
    formed as t0 + r*dt (not accumulated) so results match a formula-level
    reimplementation bit for bit.
    """
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    dt = cfg.dt
    out = np.empty((cfg.steps + 1, x.shape[0]))
    out[0] = x
    for r in range(cfg.steps):
        t = t0 + r * dt
        dx1 = dt * deriv(x, t)
        dx2 = dt * deriv(x + dx1 / 2, t + dt / 2)
        dx3 = dt * deriv(x + dx2 / 2, t + dt / 2)
        dx4 = dt * deriv(x + dx3, t + dt)
        x = x + (dx1 + 2 * dx2 + 2 * dx3 + dx4) / 6
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"state became non-finite at step {r + 1} (t={t + dt})")
        out[r + 1] = x
    return out


# ---------------------------------------------------------------------------
# Overhead crane: cart position/velocity and container swing angle/rate.
# State vector layout: [y, theta, v, q] with
#   y' = v,  theta' = q,  v' = eps*theta + u(t),  q' = -theta - u(t).


@dataclass(frozen=True)
class ControlProfile:
    """Antisymmetric rest-to-rest push profile: +u0, -f*u0, +f*u0, -u0 over
    four segments, zero afterwards. ``eps`` couples swing into the cart
    equation only, so the swing itself does not depend on it."""

    durations: tuple[float, float, float, float] = (2.0, 2.0, 2.0, 2.0)
    u0: float = 1.0
    fraction: float = 0.5
    eps: float = 0.1

    def __post_init__(self):
        if any(d <= 0 for d in self.durations):
            raise ValueError("segment durations must be positive")

    @property
    def boundaries(self) -> tuple[float, ...]:
        times = [0.0]
        for d in self.durations:
            times.append(times[-1] + d)
        return tuple(times)

    @property
    def total_time(self) -> float:
        return self.boundaries[-1]

    def levels(self) -> tuple[float, float, float, float]:
        f, u0 = self.fraction, self.u0
        return (u0, -f * u0, f * u0, -u0)


def control_input(profile: ControlProfile, t: float) -> float:
    """u(t) for the piecewise-constant profile; segments are closed on the
    left, and u is zero from the final boundary on."""
    bounds = profile.boundaries
    levels = profile.levels()
    for k in range(4):
        if t < bounds[k + 1]:
            return levels[k]
    return 0.0


def crane_derivative(state, t: float, profile: ControlProfile) -> np.ndarray:
    """Time derivative of the crane state [y, theta, v, q]."""
    y, theta, v, q = state
    u = control_input(profile, t)
    return np.array([v, q, profile.eps * theta + u, -theta - u])


def simulate_crane(profile: ControlProfile, dt: float = 0.005) -> np.ndarray:
    """RK4 trajectory of the crane from rest over the full control horizon."""
    steps = round(profile.total_time / dt)
    cfg = RK4Config(dt=dt, steps=steps)
    return rk4_integrate(
        np.zeros(4), 0.0, cfg, lambda x, t: crane_derivative(x, t, profile)
    )


def residual_energy(profile: ControlProfile, dt: float = 0.005) -> float:
    """Swing energy theta^2 + q^2 left at the end of the final segment."""
    final = simulate_crane(profile, dt=dt)[-1]
    return float(final[1] ** 2 + final[3] ** 2)


def residual_amplitude(profile: ControlProfile) -> float:
    """Closed-form residual swing amplitude of the unit oscillator
    theta'' + theta = -u driven by the profile's control jumps: the modulus
    of the phasor sum over jumps, |sum_k du_k e^{-i (T - t_k)}|."""
    bounds = profile.boundaries
    levels = (0.0,) + profile.levels() + (0.0,)
    total = 0j
    T = profile.total_time
    for k in range(5):
        jump = levels[k + 1] - levels[k]
        total += jump * cmath.exp(-1j * (T - bounds[k]))
    return abs(total)


def optimal_fraction() -> float:
    """Root of the phasor sum for the 2+2+2+2 profile: (cos 2 - cos 4)/(1 - cos 2)."""
    return (math.cos(2.0) - math.cos(4.0)) / (1.0 - math.cos(2.0))


# ---------------------------------------------------------------------------
# Scalar minimization


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar(f, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section search for the minimum of a unimodal function.

    Returns (x, f(x)) with |x - argmin| <= tol. Non-finite evaluations abort.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    def probe(x):
        fx = f(x)
        if not math.isfinite(fx):
            raise FloatingPointError(f"objective non-finite at {x}")
        return fx

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = probe(c), probe(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = probe(d)
    x = (a + b) / 2
    return x, probe(x)
