"""Nonperturbative semigroup and initial-slip approximations.

The stationary time-local generator defines a semigroup approximation whose
long-time error is corrected by a constant slip superoperator.  The duality
fixes the slip in closed form: 1 plus the slip coefficient
(k_hat(i gamma/2) - k_hat(-i gamma/2))/2 on |parity><1|.  This module
constructs both approximations, locates the physical parameter points where
the slip coefficient breaks down, and measures when the slipped dynamics turns
completely positive.
"""

from __future__ import annotations

import math

import numpy as np

from .liouville import identity_superop, parity_superop, vectorize
from .model import IDENTITY_OP, PARITY_OP, RlmProvider, _generator_eigenvalues, mode_hat, mode_stack
from .scalars import ModelParams, PoleError, g_stationary, k_hat

__all__ = [
    "ALWAYS",
    "NEVER",
    "PoleCollisionError",
    "stationary_generator",
    "semigroup_propagator",
    "semigroup_propagator_hat",
    "slip_operator",
    "slip_propagator",
    "slip_propagator_hat",
    "cp_onset_time",
    "breakdown_locator",
    "heisenberg_stationary_generator",
]

ALWAYS = "always"
NEVER = "never"

_PEAK_FACTOR = 10.0   # breakdown peaks stand this far above the median scan value


def __getattr__(name):
    # scipy.linalg loads only when a tracer looks up ``expm`` to wrap it
    # (perfbench/tracing.py); nothing in this module calls it
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PoleCollisionError(ValueError):
    """Two stationary eigenvalues coincide; the slip is defined at distinct ones."""


def stationary_generator(params: ModelParams) -> np.ndarray:
    return RlmProvider(params).generator_stationary()


def semigroup_propagator(t, params: ModelParams) -> np.ndarray:
    """exp(-i G_inf t): trace preserving, CP whenever the stationary rates are.

    A closed-form mode sum; a 1-D array of times gives an (N,4,4) stack.
    """
    return mode_stack(t, params, g_stationary(params))


def semigroup_propagator_hat(e, params: ModelParams) -> np.ndarray:
    """i (E - G_inf)^-1 as the mode sum :func:`model.mode_hat` with s = g_inf.

    An array of frequencies gives a stack.
    """
    return mode_hat(e, params, g_stationary(params))


def _slip_coefficient(params: ModelParams) -> complex:
    """(k_hat(i gamma/2) - k_hat(-i gamma/2))/2, real up to rounding.

    Raises unless the stationary eigenvalues {0, -i G, +-eps - i G/2} are distinct.
    """
    distinct: list[complex] = []
    for v in _generator_eigenvalues(params):
        if any(abs(v - u) < 1e-9 * max(1.0, abs(u), abs(v)) for u in distinct):
            raise PoleCollisionError(
                f"stationary eigenvalues collide near {v}; the slip operator "
                "is defined for simple, distinct stationary eigenvalues only")
        distinct.append(v)
    gam = params.gamma
    try:
        return 0.5 * (k_hat(0.5j * gam, params) - k_hat(-0.5j * gam, params))
    except PoleError as exc:
        raise PoleError(
            "slip coefficient diverges: k_hat(-i gamma/2) sits on the "
            f"breakdown ladder ({exc})") from exc


def slip_operator(params: ModelParams) -> np.ndarray:
    """Initial-slip correction S with Pi(t) ~ exp(-i G_inf t) S at long times.

    The closed form 1 + (k_hat(iG/2) - k_hat(-iG/2))/2 |parity><1|: the sum of
    -i Res of the frequency-domain propagator at the four stationary
    eigenvalues, and the unique TP, duality-covariant solution with the
    (irrelevant) coherence terms set to zero.
    """
    return identity_superop(2) + _slip_coefficient(params) * np.outer(
        vectorize(PARITY_OP), vectorize(IDENTITY_OP).conj())


def slip_propagator(t, params: ModelParams) -> np.ndarray:
    """exp(-i G_inf t) S: TP, not CP at early times; a 1-D array of times gives a stack."""
    return semigroup_propagator(t, params) @ slip_operator(params)


def slip_propagator_hat(e, params: ModelParams) -> np.ndarray:
    return semigroup_propagator_hat(e, params) @ slip_operator(params)


def _real_roots(c0: float, c1: float, c2: float = 0.0) -> list[float]:
    """Real roots of c0 + c1 x + c2 x^2 by the cancellation-free quadratic formula."""
    disc = c1 * c1 - 4.0 * c2 * c0
    if c2 == 0.0 or disc < 0.0:
        return [-c0 / c1] if c2 == 0.0 and c1 else []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2, c0 / q] if q else [0.0]


def cp_onset_time(params: ModelParams, t_max: float | None = None, cp_tol: float = 1e-9):
    """Time after which the slip-corrected propagator stays completely positive.

    Parity covariance makes the Choi matrix of exp(-i G_inf t) S an X state in
    x = exp(-gamma t): parity-flipping populations f_+-(x) = (1 -+ g)/2 -
    x (1 +- 2c -+ g)/2 (g = g_inf, c the slip coefficient), parity-keeping ones
    1 - f_+- and a coherence of modulus sqrt(x).  Its least eigenvalue is
    >= -cp_tol exactly while f_+- >= -cp_tol and (1 - f_+ + cp_tol)(1 - f_- +
    cp_tol) >= x, so polynomial roots in x bound the CP set.  Returns the end of
    the last violation on [0, t_max], ALWAYS without one, NEVER if non-CP at
    t_max; gamma <= 0, t_max <= 0 or cp_tol < 0 raise ValueError.
    """
    gam = params.gamma
    if not gam > 0:
        raise ValueError("gamma must be positive: the slip decays as exp(-gamma t)")
    if t_max is None:
        t_max = 1e3 / min(gam, params.temperature)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not cp_tol >= 0:
        raise ValueError("cp_tol must be nonnegative")
    g, c = g_stationary(params), _slip_coefficient(params).real
    # f_+- + cp_tol = a + b x and 1 - f_+- + cp_tol = k - b x with k = 1 + 2 cp_tol - a
    lin = [(0.5 * (1.0 - g) + cp_tol, -0.5 * (1.0 + 2.0 * c - g)),
           (0.5 * (1.0 + g) + cp_tol, -0.5 * (1.0 - 2.0 * c + g))]
    (k_p, b_p), (k_m, b_m) = [(1.0 + 2.0 * cp_tol - a, b) for a, b in lin]
    polys = lin + [(k_p * k_m, -(k_p * b_m + k_m * b_p + 1.0), b_p * b_m)]

    def violated(x):
        return min(np.polynomial.polynomial.polyval(x, p) for p in polys) < 0.0

    x_min = math.exp(-gam * t_max)
    if violated(x_min):
        return NEVER
    edges = [x_min] + sorted(r for p in polys for r in _real_roots(*p) if x_min < r < 1.0) + [1.0]
    for lower, upper in zip(edges, edges[1:]):   # upward in x is backward in time
        if violated(0.5 * (lower + upper)):
            return -math.log(lower) / gam
    return ALWAYS


def breakdown_locator(temperature: float, detuning: float,
                      n_max: int = 2) -> list[float]:
    """Couplings where the slip coefficient peaks: near (2n+1) 2 pi T, n = 0..n_max.

    Scans |k_hat(-i gamma/2)| over the coupling axis at fixed temperature and
    detuning in one array call, and refines each strict local maximum above
    ``_PEAK_FACTOR`` times the median scan value by Brent's method on its
    scan triple.  Detuning must be nonzero (the limit toward resonance is
    direction dependent).
    """
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    # the axis is x = gamma / T, so brent's absolute tolerance floor (1e-11) scales with T;
    # the step floor bounds the scan cost for tiny detuning
    step = max(min(abs(detuning) / temperature / 2.0, 5e-3), 1e-4)
    xs = np.arange(step, (2 * n_max + 1) * 2.0 * math.pi * 1.15, step)
    probe = ModelParams(detuning, 0.0, temperature, 0.0)   # k_hat ignores gamma

    def size(x):   # |k_hat(-i gamma/2)| at gamma = x T
        return np.abs(k_hat(-0.5j * temperature * x, probe))

    from scipy.optimize import minimize_scalar

    vals = size(xs)
    mid = vals[1:-1]
    peaks = (mid > vals[:-2]) & (mid > vals[2:]) & (mid > _PEAK_FACTOR * np.median(vals))
    # without bounds minimize_scalar runs Brent's method
    return [temperature * float(minimize_scalar(lambda x: -size(x), bracket=tuple(xs[i:i + 3]),
                                                tol=1e-12).x)
            for i in np.flatnonzero(peaks)]


def heisenberg_stationary_generator(params: ModelParams) -> np.ndarray:
    """Stationary Heisenberg generator with the dual map applied after t -> inf.

    Built as i G 1 - P G_inf_dual P where the dual stationary generator uses
    the analytically continued value -k_hat(-i gamma/2) for its stationary
    scalar (the naive long-time limit of the dual generator need not exist).
    """
    gam = params.gamma
    pmat = parity_superop(PARITY_OP)
    ident = identity_superop(2)

    dual = params.dual()
    g_dual_stationary = -k_hat(-0.5j * gam, params).real
    g_inf_dual = RlmProvider(dual)._generator_from_g(g_dual_stationary)
    return 1j * gam * ident - pmat @ g_inf_dual @ pmat
