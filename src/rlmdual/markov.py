"""Nonperturbative semigroup and initial-slip approximations.

The stationary time-local generator defines a semigroup approximation whose
long-time error is corrected by a constant slip superoperator built from the
residues of the frequency-domain propagator at the stationary eigenvalues.
This module constructs both approximations, locates the physical parameter
points where the slip construction breaks down, and measures when the slipped
dynamics turns completely positive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm  # noqa: F401  uncalled; perfbench/tracing.py wraps this name
from scipy.optimize import brentq

from .liouville import (
    identity_superop,
    is_cp,
    parity_superop,
    spectral_decompose,
    superadjoint,
    vectorize,
)
from .model import IDENTITY_OP, PARITY_OP, RlmProvider, mode_stack, pole_catalog
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


class PoleCollisionError(ValueError):
    """Two stationary eigenvalues coincide; first-order residues undefined."""


def stationary_generator(params: ModelParams) -> np.ndarray:
    return RlmProvider(params).generator_stationary()


def semigroup_propagator(t, params: ModelParams) -> np.ndarray:
    """exp(-i G_inf t): trace preserving, CP whenever the stationary rates are.

    A closed-form mode sum; a 1-D array of times gives an (N,4,4) stack.
    """
    return mode_stack(t, params, g_stationary(params))


def semigroup_propagator_hat(e: complex, params: ModelParams) -> np.ndarray:
    g_inf = stationary_generator(params)
    return 1j * np.linalg.inv(e * identity_superop(2) - g_inf)


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
    """Residue of a matrix-valued analytic f by the trapezoid rule on a circle."""
    acc = 0.0
    for k in range(n):
        z = radius * cmath.exp(2j * math.pi * k / n)
        acc = acc + np.asarray(f(pole + z)) * z
    return acc / n


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


def slip_propagator_hat(e: complex, params: ModelParams,
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
    at t_max.
    """
    gam = abs(params.gamma)
    temp = params.temperature
    if t_max is None:
        t_max = 1e3 / min(gam, temp)
    g_inf = g_stationary(params)
    slip = slip_operator(params).matrix

    def min_eig(t):
        return is_cp(mode_stack(t, params, g_inf) @ slip, cp_tol)[1]

    lin = np.linspace(0.0, t_max, scan_points // 2)
    log = np.geomspace(max(t_max * 1e-8, 1e-12), t_max, scan_points // 2)
    ts = np.unique(np.concatenate(([0.0], lin, log)))
    eigs = np.array([min_eig(t) for t in ts])
    bad = eigs < -cp_tol
    if not bad.any():
        return ALWAYS
    if bad[-1]:
        return NEVER
    last_bad = int(np.where(bad)[0][-1])
    onset = brentq(lambda t: min_eig(t) + cp_tol, ts[last_bad], ts[last_bad + 1])
    for t in np.geomspace(onset, t_max, 64)[1:]:
        if min_eig(t) < -cp_tol:
            # CP did not persist; the scan missed a later violation
            return cp_onset_time(params, t_max, cp_tol, 2 * scan_points)
    return float(onset)


def _golden_max(f, lo, hi, tol) -> tuple[float, float]:
    """Golden-section search for a maximum of f on [lo, hi]: (position, value)."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b), max(fc, fd)


def breakdown_locator(temperature: float, detuning: float, n_max: int = 2,
                      gamma_max: float | None = None,
                      peak_factor: float = 10.0) -> list[float]:
    """Couplings where the slip coefficient peaks: near (2n+1) 2 pi T.

    Scans |k_hat(-i gamma/2)| over the coupling axis at fixed temperature and
    detuning, returning refined local-maximum positions that exceed
    ``peak_factor`` times the median scan value.  Detuning must be nonzero
    (the limit toward resonance is direction dependent).
    """
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if gamma_max is None:
        gamma_max = (2 * n_max + 1) * 2.0 * math.pi * temperature * 1.15
    step = min(abs(detuning) / 2.0, 5e-3 * temperature)
    step = max(step, 1e-4 * temperature)  # scan cost floor for tiny detuning
    gams = np.arange(step, gamma_max, step)

    def size(g):
        p = ModelParams(detuning, 0.0, temperature, g)
        return abs(k_hat(-0.5j * g, p))

    vals = np.array([size(g) for g in gams])
    threshold = peak_factor * float(np.median(vals))
    peaks = []
    for i in range(1, len(gams) - 1):
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1] and vals[i] > threshold:
            peaks.append(_golden_max(size, gams[i - 1], gams[i + 1], 1e-10 * temperature)[0])
    return peaks


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

    def transform(e: complex) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for mode in dec.modes:
            proj = np.outer(vectorize(mode.right), vectorize(mode.left).conj())
            out = out + proj @ provider.propagator_hat(e + mode.value)
        return out

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
