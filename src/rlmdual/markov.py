"""Nonperturbative semigroup and initial-slip approximations.

The stationary time-local generator defines a semigroup approximation whose
long-time error is corrected by a constant slip superoperator built from the
residues of the frequency-domain propagator at the stationary eigenvalues.
This module constructs both approximations, locates the physical parameter
points where the slip construction breaks down, and measures when the slipped
dynamics turns completely positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liouville import (
    identity_superop,
    is_cp,
    parity_superop,
    spectral_decompose,
    superadjoint,
    vectorize,
)
from .model import IDENTITY_OP, PARITY_OP, RlmProvider, mode_hat, mode_stack, pole_catalog
from .scalars import ModelParams, PoleError, g_stationary, g_tail, k_hat

__all__ = [
    "ALWAYS",
    "NEVER",
    "SlipOperator",
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
    "RegularizedSlip",
    "regularized_slip_limit",
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
    """Two stationary eigenvalues coincide; first-order residues undefined."""


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


def _stationary_poles(params: ModelParams) -> list[complex]:
    """Distinct stationary eigenvalues {0, -i G, +-eps - i G/2} with collision check."""
    gam = params.gamma
    eps = params.epsilon
    vals = [0.0 + 0.0j, -1j * gam, eps - 0.5j * gam, -eps - 0.5j * gam]
    distinct: list[complex] = []
    tol = 1e-9 * max(1.0, abs(gam), abs(eps))
    for v in vals:
        if any(abs(v - u) < tol for u in distinct):
            raise PoleCollisionError(
                f"stationary eigenvalues collide near {v}; the first-order "
                "residue construction does not apply")
        distinct.append(v)
    return distinct


def _contour_residue(f, pole: complex, radius: float, n: int = 32) -> np.ndarray:
    """Residue of a matrix-valued analytic f by the trapezoid rule on a circle.

    f maps an array of frequencies to a stack of matrices.
    """
    z = radius * np.exp(2j * math.pi * np.arange(n) / n)
    return (f(pole + z) * z[:, None, None]).sum(axis=0) / n


def _residue_radius(params: ModelParams, pole: complex) -> float:
    others = [q for q in pole_catalog(params, n_max=3).all_poles
              if abs(q - pole) > 1e-12 * max(1.0, abs(params.gamma))]
    spacing = min(abs(pole - q) for q in others)
    return min(1e-3 * abs(params.gamma), 0.3 * spacing)


def _residues(params: ModelParams) -> tuple[tuple[complex, np.ndarray], ...]:
    """-i Res of the frequency-domain propagator at each stationary eigenvalue."""
    provider = RlmProvider(params)
    return tuple(
        (p, -1j * _contour_residue(provider.propagator_hat, p, _residue_radius(params, p)))
        for p in _stationary_poles(params))


@dataclass(frozen=True)
class SlipOperator:
    matrix: np.ndarray
    construction: str
    params: ModelParams

    @cached_property
    def residues(self) -> tuple[tuple[complex, np.ndarray], ...]:
        """Contour residues at the stationary eigenvalues, evaluated on first use."""
        return _residues(self.params)


def slip_operator(params: ModelParams, method: str = "closed-form") -> SlipOperator:
    """Initial-slip correction S with Pi(t) ~ exp(-i G_inf t) S at long times.

    ``closed-form`` uses 1 + (k_hat(iG/2) - k_hat(-iG/2))/2 |parity><1|, the
    unique TP, duality-covariant solution with the (irrelevant) coherence
    terms set to zero.  ``residue-sum`` accumulates -i Res of the
    frequency-domain propagator at each distinct stationary eigenvalue by
    contour quadrature.  Both paths agree; the residues are attached either
    way (computed on first access for the closed form).
    """
    _stationary_poles(params)
    if method == "residue-sum":
        return SlipOperator(np.asarray(sum(r for _, r in _residues(params))), method, params)
    if method != "closed-form":
        raise ValueError("method must be 'closed-form' or 'residue-sum'")
    gam = params.gamma
    try:
        coeff = 0.5 * (k_hat(0.5j * gam, params) - k_hat(-0.5j * gam, params))
    except PoleError as exc:
        raise PoleError(
            "slip coefficient diverges: k_hat(-i gamma/2) sits on the "
            f"breakdown ladder ({exc})") from exc
    matrix = identity_superop(2) + coeff * np.outer(
        vectorize(PARITY_OP), vectorize(IDENTITY_OP).conj())
    return SlipOperator(matrix, method, params)


def slip_propagator(t, params: ModelParams,
                    slip: SlipOperator | None = None) -> np.ndarray:
    """exp(-i G_inf t) S; TP, but not CP at early times when S is nontrivial.

    A 1-D array of times gives an (N,4,4) stack.
    """
    if slip is None:
        slip = slip_operator(params)
    return semigroup_propagator(t, params) @ slip.matrix


def slip_propagator_hat(e, params: ModelParams,
                        slip: SlipOperator | None = None) -> np.ndarray:
    if slip is None:
        slip = slip_operator(params)
    return semigroup_propagator_hat(e, params) @ slip.matrix


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
    slip = slip_operator(params).matrix

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
    return [temperature * float(minimize_scalar(lambda x: -size(x), bracket=tuple(xs[i:i + 3]),
                                                method="brent", tol=1e-12).x)
            for i in np.flatnonzero(peaks)]


def heisenberg_stationary_generator(params: ModelParams,
                                    path_tol: float = 1e-7) -> np.ndarray:
    """Stationary Heisenberg generator with the dual map applied after t -> inf.

    Built as i G 1 - P G_inf_dual P where the dual stationary generator uses
    the analytically continued value -k_hat(-i gamma/2) for its stationary
    scalar (the naive long-time limit of the dual generator need not exist).
    Cross-checked against [S^-1 G_inf S]^sadj; disagreement raises.
    """
    gam = params.gamma
    g_inf = stationary_generator(params)
    pmat = parity_superop(PARITY_OP)
    ident = identity_superop(2)

    dual = params.dual()
    g_dual_stationary = -k_hat(-0.5j * gam, params).real
    g_inf_dual = RlmProvider(dual)._generator_from_g(g_dual_stationary)
    via_duality = 1j * gam * ident - pmat @ g_inf_dual @ pmat

    slip = slip_operator(params)
    via_slip = superadjoint(np.linalg.solve(slip.matrix, g_inf @ slip.matrix))
    defect = float(np.abs(via_duality - via_slip).max())
    if defect > path_tol * max(1.0, abs(gam)):
        raise RuntimeError(
            f"stationary Heisenberg generator paths disagree by {defect:.2e}")
    return via_duality


@dataclass(frozen=True)
class RegularizedSlip:
    matrix: np.ndarray
    naive_limit_diverges: bool
    naive_final_norm: float
    horizon: float


def regularized_slip_limit(params: ModelParams,
                           horizon_factor: float = 40.0) -> RegularizedSlip:
    """Slip as the zero-frequency residue of the transform of e^{i G_inf t} Pi(t).

    The Laplace transform is evaluated exactly through the stationary mode
    decomposition (each mode contributes the frequency-shifted propagator
    transform, analytically continued), and the residue at zero is taken by
    contour quadrature.  The report also records whether the naive long-time
    limit of e^{i G_inf t} Pi(t) diverges on the horizon, which happens once
    the coupling exceeds the thermal threshold.
    """
    provider = RlmProvider(params)
    g_inf = provider.generator_stationary()
    dec = spectral_decompose(g_inf)

    def transform(e: np.ndarray) -> np.ndarray:
        return sum(np.outer(vectorize(mode.right), vectorize(mode.left).conj())
                   @ provider.propagator_hat(e + mode.value) for mode in dec.modes)

    # keep the contour clear of every shifted catalog pole
    shifts = [m.value for m in dec.modes]
    poles = pole_catalog(params, n_max=3).all_poles
    spacing = min(abs(q - s) for q in poles for s in shifts if abs(q - s) > 1e-12)
    radius = min(1e-3 * abs(params.gamma), 0.3 * spacing)
    matrix = -1j * _contour_residue(transform, 0.0, radius)

    # Naive-limit probe.  The only entry of e^{i G_inf t} Pi(t) that can grow
    # is the parity-row coefficient e^{gamma t}(g(t) - g_inf) + g_dual(t);
    # taking the tail g(t) - g_inf as its exponential series keeps the product
    # numerically stable at any horizon (a matrix-product probe would drown
    # in e^{gamma t}-amplified rounding noise).
    gam = params.gamma
    horizon = horizon_factor / min(abs(gam), math.pi * params.temperature)
    probe_end = min(horizon, 600.0 / abs(gam))  # keep exp(gamma t) in range
    ts = np.linspace(0.25 * probe_end, probe_end, 8)
    coeff = np.exp(gam * ts) * g_tail(ts, params) + provider.g_dual(ts)
    norms = np.maximum(1.0, 0.5 * np.abs(coeff))
    over = np.flatnonzero(norms > 1e6)
    diverges = over.size > 0
    final_norm = float(norms[over[0] if diverges else -1])
    return RegularizedSlip(matrix, diverges, final_norm, horizon)
