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

from .liouville import (
    identity_superop,
    is_cp,
    parity_superop,
    vectorize,
)
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


def _reject_pole_collision(params: ModelParams) -> None:
    """Raise unless the stationary eigenvalues {0, -i G, +-eps - i G/2} are distinct."""
    distinct: list[complex] = []
    tol = 1e-9 * max(1.0, abs(params.gamma), abs(params.epsilon))
    for v in _generator_eigenvalues(params):
        if any(abs(v - u) < tol for u in distinct):
            raise PoleCollisionError(
                f"stationary eigenvalues collide near {v}; the slip operator "
                "is defined for simple, distinct stationary eigenvalues only")
        distinct.append(v)


def slip_operator(params: ModelParams) -> np.ndarray:
    """Initial-slip correction S with Pi(t) ~ exp(-i G_inf t) S at long times.

    The closed form 1 + (k_hat(iG/2) - k_hat(-iG/2))/2 |parity><1|: the sum of
    -i Res of the frequency-domain propagator at the four stationary
    eigenvalues, and the unique TP, duality-covariant solution with the
    (irrelevant) coherence terms set to zero.
    """
    _reject_pole_collision(params)
    gam = params.gamma
    try:
        coeff = 0.5 * (k_hat(0.5j * gam, params) - k_hat(-0.5j * gam, params))
    except PoleError as exc:
        raise PoleError(
            "slip coefficient diverges: k_hat(-i gamma/2) sits on the "
            f"breakdown ladder ({exc})") from exc
    return identity_superop(2) + coeff * np.outer(
        vectorize(PARITY_OP), vectorize(IDENTITY_OP).conj())


def slip_propagator(t, params: ModelParams,
                    slip: np.ndarray | None = None) -> np.ndarray:
    """exp(-i G_inf t) S; TP, but not CP at early times when S is nontrivial.

    A 1-D array of times gives an (N,4,4) stack.
    """
    if slip is None:
        slip = slip_operator(params)
    return semigroup_propagator(t, params) @ slip


def slip_propagator_hat(e, params: ModelParams,
                        slip: np.ndarray | None = None) -> np.ndarray:
    if slip is None:
        slip = slip_operator(params)
    return semigroup_propagator_hat(e, params) @ slip


def cp_onset_time(params: ModelParams, t_max: float | None = None,
                  cp_tol: float = 1e-9, scan_points: int = 400):
    """Time after which the slip-corrected propagator stays completely positive.

    Scans the smallest Choi eigenvalue of exp(-i G_inf t) S over [0, t_max]
    (dense linear-log grid), takes the brentq root of min_eig + cp_tol in the
    last sign change, then demands CP on 64 log-spaced later samples.
    Returns ALWAYS when CP from t = 0 on all samples, NEVER when still non-CP
    at t_max; t_max <= 0 or cp_tol < 0 raise ValueError.
    """
    if t_max is None:
        t_max = 1e3 / min(abs(params.gamma), params.temperature)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not cp_tol >= 0:
        raise ValueError("cp_tol must be nonnegative")
    g_inf = g_stationary(params)
    slip = slip_operator(params)

    def min_eig(t):   # a float or an array of times
        return is_cp(mode_stack(t, params, g_inf) @ slip, cp_tol)[1]

    lin = np.linspace(0.0, t_max, scan_points // 2)
    log = np.geomspace(max(t_max * 1e-8, 1e-12), t_max, scan_points // 2)
    ts = np.unique(np.concatenate(([0.0], lin, log)))
    bad = min_eig(ts) < -cp_tol
    if not bad.any():
        return ALWAYS
    if bad[-1]:
        return NEVER
    from scipy.optimize import brentq

    last_bad = int(np.where(bad)[0][-1])
    onset = brentq(lambda t: min_eig(t) + cp_tol, ts[last_bad], ts[last_bad + 1])
    if (min_eig(np.geomspace(onset, t_max, 64)[1:]) < -cp_tol).any():
        # CP did not persist; the scan missed a later violation
        return cp_onset_time(params, t_max, cp_tol, 2 * scan_points)
    return float(onset)


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
