"""Special functions and dense linear-algebra kernels shared by the other modules.

Everything here is a pure function on immutable inputs, so all routines are
safe to call concurrently.
"""

import math

import numpy as np

from .errors import ConvergenceError

# Ascending power series below this |x|, Hankel asymptotic expansion beyond.
# At the switch point the optimally truncated asymptotic tail is ~exp(-2x),
# i.e. ~4e-11 at x = 12, which keeps the two branches consistent to 1e-10.
_SERIES_CUTOFF = 12.0
_SERIES_MAX_TERMS = 80
_ASYM_MAX_TERMS = 60
# max_eigpair's residual tolerance (times ||m||_F) and its cap on power steps.
_EIG_TOL = 1e-9
_EIG_MAX_STEPS = 50000


def _bessel_series_scalar(order: int, x: float) -> float:
    """Ascending power series for J_order, summed to float64 convergence."""
    half = 0.5 * x
    # t_0 = (x/2)^order / order!
    term = half**order / float(math.factorial(order))
    total = term
    for k in range(1, _SERIES_MAX_TERMS):
        term *= -(half * half) / (k * (k + order))
        total += term
        if abs(term) <= 1e-18 * abs(total) + 1e-300:
            break
    return total


def _bessel_asymptotic_scalar(order: int, x: float) -> float:
    """Hankel large-argument expansion, truncated at the smallest term."""
    mu = 4.0 * order * order
    p, q = 1.0, 0.0
    ck = 1.0
    sign_p, sign_q = -1.0, 1.0
    for k in range(1, _ASYM_MAX_TERMS):
        ck_next = ck * (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if abs(ck_next) >= abs(ck) and k > 2:
            break  # divergence onset: stop at the smallest term
        ck = ck_next
        if k % 2 == 1:
            q += sign_q * ck
            sign_q = -sign_q
        else:
            p += sign_p * ck
            sign_p = -sign_p
        if abs(ck) < 1e-18:
            break
    omega = x - (0.5 * order + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j(order: int, x):
    """First-kind Bessel function J_1 or J_3.

    Accurate to ~1e-10 relative (to the envelope) for |x| <= 50, which covers
    every argument the beam radiation pattern produces.  Accepts scalars or
    arrays.
    """
    if order not in (1, 3):
        raise ValueError("only orders 1 and 3 are supported")
    xs = np.asarray(x, dtype=float)
    # J1 and J3 are odd functions.
    ax = np.abs(xs).ravel()
    out = np.empty_like(ax)
    for i, xi in enumerate(ax):
        if xi < _SERIES_CUTOFF:
            out[i] = _bessel_series_scalar(order, xi)
        else:
            out[i] = _bessel_asymptotic_scalar(order, xi)
    out = out.reshape(xs.shape)
    out = np.where(xs < 0, -out, out)
    return float(out) if xs.ndim == 0 else out


def max_eigpair(m: np.ndarray):
    """Largest eigenvalue and unit eigenvector of a Hermitian matrix.

    Shifted power iteration; the shift makes the dominant eigenvalue of
    m + shift*I the one of largest algebraic value of m.  Converges on the
    residual ||m v - rho v|| <= _EIG_TOL * ||m||_F, which also handles repeated
    top eigenvalues.
    """
    m = np.asarray(m)
    k = m.shape[0]
    if m.shape != (k, k):
        raise ValueError("matrix must be square")
    scale = np.linalg.norm(m, "fro")
    if scale == 0.0:
        v = np.zeros(k, dtype=complex)
        v[0] = 1.0
        return 0.0, v
    shift = scale
    # Deterministic start with spread phases so no eigenvector is orthogonal
    # to it by construction.
    v = np.exp(1j * 0.7 * np.arange(k)) / np.sqrt(k)
    for _ in range(_EIG_MAX_STEPS):
        u = m @ v + shift * v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            # v is an exact null vector of the shifted matrix; perturb.
            v = np.roll(v, 1)
            continue
        v = u / nu
        rho = np.real(np.vdot(v, m @ v))
        resid = np.linalg.norm(m @ v - rho * v)
        if resid <= _EIG_TOL * scale:
            return float(rho), v
    raise ConvergenceError(
        f"power iteration did not reach residual {_EIG_TOL:g}*||m|| in {_EIG_MAX_STEPS} steps"
    )

