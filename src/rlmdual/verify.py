"""Machine verification of the duality relations and sum rules.

Every check evaluates both sides of one exact relation (time-domain or
frequency-domain) on a superoperator family and reports the worst residual.
The shipped resonant-level family evaluates everything from closed forms;
externally supplied families are tabulated matrices loaded from JSON and are
checked on exactly the samples they provide.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import liouville as lv
from .liouville import (
    canonical_kraus,
    choi_of,
    choi_duality_transform,
    gksl_decompose,
    gksl_decompose_heisenberg,
    identity_superop,
    is_cp,
    parity_superop,
    spectral_decompose,
    superadjoint,
    vectorize,
)
from .model import PARITY_OP, RlmProvider
from .scalars import ModelParams, QuadratureError

__all__ = [
    "SuperOpFamily",
    "ResidualReport",
    "MissingCallbackError",
    "rlm_family",
    "perturbed_family",
    "check_propagator_duality",
    "check_spectral_cross_relations",
    "check_kernel_duality_frequency",
    "check_generator_duality",
    "check_generator_gflip",
    "check_kraus_duality",
    "check_kraus_sum_rules",
    "check_jump_duality",
    "check_choi_duality",
    "check_fixed_point_stationary",
    "check_functional_fixed_point",
    "DEFAULT_PARAMS",
    "DEFAULT_TIMES",
    "DEFAULT_FREQS",
    "DEFAULT_TOLERANCES",
    "run_suite",
    "family_to_json",
    "family_from_json",
    "run_tabulated_suite",
]


class MissingCallbackError(ValueError):
    """The family does not provide a map required by the requested check."""


@dataclass
class SuperOpFamily:
    """Callbacks evaluating one family of superoperators at (t or E, params).

    A float t or E gives a matrix, a 1-D array a stack of them, tabulated
    families included.  Any subset may be provided; checks raise
    :class:`MissingCallbackError` when a required map is absent.  All maps must
    be parity covariant with respect to ``parity_op`` and share the coupling
    lump sum ``gamma_sum`` (for params scaled to gamma = G,
    ``gamma_sum(params)`` returns G).
    """

    dim: int
    parity_op: np.ndarray
    dual_map: Callable[[ModelParams], ModelParams]
    gamma_sum: Callable[[ModelParams], float]
    propagator: Callable | None = None
    generator: Callable | None = None
    kernel_hat: Callable | None = None
    propagator_hat: Callable | None = None
    kernel_delta: Callable | None = None
    kernel_smooth: Callable | None = None
    generator_stationary: Callable | None = None
    generator_gflip: Callable | None = None

    def require(self, *names: str):
        for name in names:
            if getattr(self, name) is None:
                raise MissingCallbackError(f"family provides no '{name}' callback")


@dataclass
class ResidualReport:
    relation_id: str
    params: ModelParams
    sample_points: list
    max_residual: float
    tolerance: float
    passed: bool
    witness: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "params": None if self.params is None else _theta_to_json(self.params),
            "sample_points": _jsonable(self.sample_points),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witness": _jsonable(self.witness),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return [obj.real.item(), obj.imag.item()]
    return obj


def _report(relation_id, params, points, residual, tol, witness=None) -> ResidualReport:
    """The report of one relation; a NaN residual raises ValueError (inf fails the relation)."""
    residual = float(residual)
    if math.isnan(residual):
        raise ValueError(f"{relation_id} residual is NaN at {params} sampled at {list(points)}")
    return ResidualReport(relation_id, params, list(points), residual, tol,
                          residual <= tol, witness or {})


def _maxabs(m) -> float:
    return float(np.abs(m).max())


def _residuals(a, b) -> list[float]:
    """max |a - b| per sample of two (N, n, n) stacks."""
    return np.abs(a - b).max(axis=(-2, -1)).tolist()


def _frame(family: SuperOpFamily, params: ModelParams):
    """What every relation is written in: the dual point, the coupling sum,
    the parity superoperator and the identity superoperator."""
    return (family.dual_map(params), family.gamma_sum(params),
            parity_superop(family.parity_op), identity_superop(family.dim))


# ---------------------------------------------------------------------------
# the shipped resonant-level family
# ---------------------------------------------------------------------------

def rlm_family() -> SuperOpFamily:
    """Closed-form resonant-level family with a per-parameter provider cache."""
    cache: dict[ModelParams, RlmProvider] = {}

    def provider(params: ModelParams) -> RlmProvider:
        if params not in cache:
            cache[params] = RlmProvider(params)
        return cache[params]

    return SuperOpFamily(
        dim=2,
        parity_op=PARITY_OP.copy(),
        dual_map=lambda p: p.dual(),
        gamma_sum=lambda p: p.gamma,
        propagator=lambda t, p: provider(p).propagator(t),
        generator=lambda t, p: provider(p).generator(t),
        kernel_hat=lambda e, p: provider(p).memory_kernel_hat(e),
        propagator_hat=lambda e, p: provider(p).propagator_hat(e),
        kernel_delta=lambda p: provider(p).kernel_delta(),
        kernel_smooth=lambda t, p: provider(p).kernel_smooth(t),
        generator_stationary=lambda p: provider(p).generator_stationary(),
        generator_gflip=lambda t, p: provider(p).generator_gflip(t),
    )


def perturbed_family(family: SuperOpFamily, gamma_factor: float) -> SuperOpFamily:
    """Mutation hook: scale the coupling sum and the kernel maps on one side.

    The propagator/generator callbacks keep the true coupling while the
    relations' explicit gamma terms use the scaled sum and the kernel
    callbacks return scaled matrices; every exact relation must then fail.
    """
    return replace(
        family,
        gamma_sum=lambda p: family.gamma_sum(p) * gamma_factor,
        kernel_hat=(None if family.kernel_hat is None
                    else (lambda e, p: gamma_factor * family.kernel_hat(e, p))),
        kernel_delta=(None if family.kernel_delta is None
                      else (lambda p: gamma_factor * family.kernel_delta(p))),
        kernel_smooth=(None if family.kernel_smooth is None
                       else (lambda t, p: gamma_factor * family.kernel_smooth(t, p))),
    )


# ---------------------------------------------------------------------------
# propagator-level relations
# ---------------------------------------------------------------------------

def check_propagator_duality(family: SuperOpFamily, params: ModelParams,
                             times, tol: float = 1e-8,
                             freqs=None) -> ResidualReport:
    """Superadjoint of the propagator against exp(-G t) P Pi_dual P.

    The frequency form Pi_hat(E)^sadj = P Pi_hat_dual(iG - E*) P is checked on
    ``freqs`` (upper half plane) when the family provides ``propagator_hat``.
    """
    family.require("propagator")
    dual, gam, pmat, _ = _frame(family, params)
    ts = np.asarray(times, dtype=float)
    time_res = _residuals(superadjoint(family.propagator(ts, params)),
                          np.exp(-gam * ts)[:, None, None] * pmat
                          @ family.propagator(ts, dual) @ pmat)
    witness = {"time": time_res}
    points = list(times)
    if freqs and family.propagator_hat is not None:
        es = np.asarray(freqs, dtype=complex)
        freq_res = _residuals(superadjoint(family.propagator_hat(es, params)),
                              pmat @ family.propagator_hat(1j * gam - es.conj(), dual) @ pmat)
        witness["frequency"] = freq_res
        points = points + list(freqs)
    resid = max(time_res + witness.get("frequency", []))
    return _report("propagator_duality", params, points, resid, tol, witness)


def _rank_one(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a><b| of two vectorized operators."""
    return np.outer(vectorize(a), vectorize(b).conj())


def _pair_terms(targets, values, target_pieces, value_pieces):
    """Pair the terms of two decompositions of one map.

    ``targets`` and ``values`` are (scalar, parity) lists; the piece lists
    hold each term's rank-one piece, mapped so that partners agree.  Terms
    are matched greedily on scalar distance within equal parity.  Values of
    equal parity within 1e-8 (relative) of each other form a group, a single
    term a group of one, and each group's summed pieces must equal the
    summed pieces of its partners.  Returns the scalar residuals (matched
    distances, then the magnitudes left unmatched on either side), one piece
    residual per group and the matches as (i, j, whether j is a group of one).
    """
    cand = sorted((abs(v - tv), i, j) for i, (tv, tp) in enumerate(targets)
                  for j, (v, vp) in enumerate(values) if vp == tp)
    mi, mj, matches = set(), set(), []
    for dist, i, j in cand:
        if i not in mi and j not in mj:
            mi.add(i)
            mj.add(j)
            matches.append((i, j, dist))
    scalar_res = [d for _, _, d in matches]
    scalar_res += [abs(tv) for i, (tv, _) in enumerate(targets) if i not in mi]
    scalar_res += [abs(v) for j, (v, _) in enumerate(values) if j not in mj]

    group_tol = 1e-8 * float(np.abs([v for v, _ in values]).max(initial=1.0))
    piece_res, single = [], set()
    free = list(range(len(values)))
    while free:
        v0, p0 = values[free[0]]
        group = [j for j in free if values[j][1] == p0 and abs(values[j][0] - v0) < group_tol]
        free = [j for j in free if j not in group]
        piece_res.append(_maxabs(sum(value_pieces[j] for j in group)
                                 - sum(target_pieces[i] for i, j, _ in matches if j in group)))
        if len(group) == 1:
            single.add(group[0])
    return scalar_res, piece_res, [(i, j, j in single) for i, j, _ in matches]


def check_spectral_cross_relations(family: SuperOpFamily, params: ModelParams,
                                   point, tol: float = 1e-8,
                                   which: str = "propagator") -> ResidualReport:
    """Eigenvalue maps and left/right eigenvector swaps under the dual map.

    ``which = 'propagator'``: eigenvalues of Pi(t) pair as
    pi_j = exp(-G t) conj(pi_dual_i) and the rank-one spectral projectors obey
    |r_j><l_j| = P |l_dual_i><r_dual_i| P, summed over a degenerate group.
    ``which = 'kernel_hat'``: same pairing with k_j(E) = conj(iG - k_dual_i(iG
    - E*)).  Nondegenerate self-dual modes are additionally checked against
    the parity-overlap normalization equations.
    """
    dual, gam, pmat, _ = _frame(family, params)
    if which == "propagator":
        family.require("propagator")
        t = float(point)
        a = family.propagator(t, params)
        b = family.propagator(t, dual)
        value_map = lambda lam: math.exp(-gam * t) * np.conj(lam)
    elif which == "kernel_hat":
        family.require("kernel_hat")
        e = complex(point)
        a = family.kernel_hat(e, params)
        b = family.kernel_hat(1j * gam - np.conj(e), dual)
        value_map = lambda lam: np.conj(1j * gam - lam)
    else:
        raise ValueError("which must be 'propagator' or 'kernel_hat'")

    da = spectral_decompose(a)
    db = spectral_decompose(b)
    eig_res, vec_res, pairs = _pair_terms(
        [(value_map(m.value), 0) for m in db.modes], [(m.value, 0) for m in da.modes],
        [pmat @ _rank_one(m.left, m.right) @ pmat for m in db.modes],
        [_rank_one(m.right, m.left) for m in da.modes])
    self_dual = []
    for i, j, single in pairs:
        # self-dual pair: the dual-side mode is the same physical mode (parallel
        # unit right eigenvectors); its gauge is then fully fixed by binormalization
        rb = vectorize(db.modes[i].right)
        ra = vectorize(da.modes[j].right)
        if single and abs(abs(np.vdot(rb, ra)) - 1.0) < 1e-6:
            la = vectorize(da.modes[j].left)
            c = np.vdot(rb, pmat @ ra)
            self_dual.append(_maxabs(la - pmat @ rb / np.conj(c)))
    resid = max(eig_res + vec_res + self_dual)
    witness = {"eigenvalues": eig_res, "projectors": vec_res, "self_dual": self_dual}
    return _report(f"spectral_cross_{which}", params, [point], resid, tol, witness)


def check_kernel_duality_frequency(family: SuperOpFamily, params: ModelParams,
                                   freqs, tol: float = 1e-8,
                                   times=None) -> ResidualReport:
    """K_hat(w)^sadj = iG - P K_hat_dual(iG - w*) P, plus the time-domain split.

    The time-domain form is checked when the family provides the singular and
    smooth kernel parts: the delta coefficients must obey
    K_d^sadj = iG - P K_d_dual P and the smooth parts
    K_s(t)^sadj = -exp(-G t) P K_s_dual(t) P.
    """
    family.require("kernel_hat")
    dual, gam, pmat, ident = _frame(family, params)
    ws = np.asarray(freqs, dtype=complex)
    freq_res = _residuals(superadjoint(family.kernel_hat(ws, params)),
                          1j * gam * ident
                          - pmat @ family.kernel_hat(1j * gam - ws.conj(), dual) @ pmat)
    witness = {"frequency": freq_res}
    points = list(freqs)
    if times and family.kernel_delta is not None and family.kernel_smooth is not None:
        delta_res = _maxabs(superadjoint(family.kernel_delta(params))
                            - 1j * gam * ident
                            + pmat @ family.kernel_delta(dual) @ pmat)
        ts = np.asarray(times, dtype=float)
        smooth_res = _residuals(superadjoint(family.kernel_smooth(ts, params)),
                                -np.exp(-gam * ts)[:, None, None] * pmat
                                @ family.kernel_smooth(ts, dual) @ pmat)
        witness["delta_part"] = delta_res
        witness["smooth"] = smooth_res
        points = points + list(times)
        freq_res = freq_res + [delta_res] + smooth_res
    return _report("kernel_duality", params, points, max(freq_res), tol, witness)


_COND_LIMIT = 1e12   # largest propagator condition number the inversion accepts


def check_generator_duality(family: SuperOpFamily, params: ModelParams,
                            times, tol: float = 1e-7) -> ResidualReport:
    """[Pi^-1 G Pi]^sadj against iG*1 - P G_dual P at each sampled time."""
    family.require("propagator", "generator")
    dual, gam, pmat, ident = _frame(family, params)
    ts = np.asarray(times, dtype=float)
    pi = family.propagator(ts, params)
    cond = np.linalg.cond(pi)
    bad = np.flatnonzero(~(cond < _COND_LIMIT))   # a NaN condition number is bad too
    if bad.size:
        raise np.linalg.LinAlgError(f"propagator inversion ill-conditioned at "
                                    f"t={ts[bad[0]]} (cond {cond[bad[0]]:.2e})")
    res = _residuals(superadjoint(np.linalg.solve(pi, family.generator(ts, params) @ pi)),
                     1j * gam * ident - pmat @ family.generator(ts, dual) @ pmat)
    return _report("generator_duality", params, list(times), max(res), tol,
                   {"time": res})


def check_generator_gflip(family: SuperOpFamily, params: ModelParams,
                          times, tol: float = 1e-8) -> ResidualReport:
    """Model-specific relation G^sadj = iG*1 + P G|_{g -> -g} P."""
    family.require("generator", "generator_gflip")
    _, gam, pmat, ident = _frame(family, params)
    ts = np.asarray(times, dtype=float)
    res = _residuals(superadjoint(family.generator(ts, params)),
                     1j * gam * ident + pmat @ family.generator_gflip(ts, params) @ pmat)
    return _report("generator_duality_gflip", params, list(times), max(res), tol,
                   {"time": res})


# ---------------------------------------------------------------------------
# operational relations (measurement and jump operators)
# ---------------------------------------------------------------------------

def check_kraus_duality(family: SuperOpFamily, params: ModelParams, t: float,
                        tol: float = 1e-7) -> ResidualReport:
    """Pairing of canonical measurement operators with their dual partners.

    Coefficients must map as m_a = exp(-G t) (-1)^{N_a'} m_dual_a' within
    equal parity sectors; matched operators obey M_a^dag = M_dual_a' up to a
    phase, compared as |M><M| summed over each degenerate coefficient group.
    """
    family.require("propagator")
    dual, gam, _, _ = _frame(family, params)
    kr = canonical_kraus(family.propagator(t, params), family.parity_op)
    kd = canonical_kraus(family.propagator(t, dual), family.parity_op)
    coeff_res, piece_res, pairs = _pair_terms(
        [(math.exp(-gam * t) * term.parity * term.coefficient, term.parity)
         for term in kd.terms],
        [(term.coefficient, term.parity) for term in kr.terms],
        [_rank_one(term.operator, term.operator) for term in kd.terms],
        [_rank_one(term.operator.conj().T, term.operator.conj().T) for term in kr.terms])
    resid = max(coeff_res + piece_res)
    witness = {"coefficients": coeff_res, "projectors": piece_res,
               "permutation": [(i, j) for i, j, _ in pairs]}
    return _report("kraus_duality", params, [t], resid, tol, witness)


def check_kraus_sum_rules(kraus: lv.KrausSet, gamma: float, t: float,
                          dim: int = 2, tol: float = 1e-8,
                          params: ModelParams | None = None) -> ResidualReport:
    """TP and parity sum rules of a canonical measurement-operator set."""
    eye = np.eye(dim)
    tp = sum(term.coefficient * term.operator.conj().T @ term.operator
             for term in kraus.terms)
    par = sum(term.parity * term.coefficient * term.operator @ term.operator.conj().T
              for term in kraus.terms)
    decay = math.exp(-gamma * t)
    coeffs = kraus.coefficients
    parities = kraus.parities
    even = float(coeffs[parities > 0].sum())
    odd = float(coeffs[parities < 0].sum())
    residuals = {
        "tp_operator": _maxabs(tp - eye),
        "parity_operator": _maxabs(par - decay * eye),
        "scalar_total": abs(float(coeffs.sum()) - dim),
        "scalar_parity": abs(float((coeffs * parities).sum()) - dim * decay),
        "even_weight": abs(even - 0.5 * dim * (1.0 + decay)),
        "odd_weight": abs(odd - 0.5 * dim * (1.0 - decay)),
    }
    resid = max(residuals.values())
    return _report("kraus_sum_rules", params, [t], resid, tol, residuals)


def check_jump_duality(family: SuperOpFamily, params: ModelParams, t: float,
                       tol: float = 1e-7) -> ResidualReport:
    """Heisenberg jump layer against the dualized Schroedinger jump layer.

    The Heisenberg generator is built from the right-hand side of the
    time-local duality and expanded with the unit-preserving dissipator
    placement; its Hamiltonian must equal minus the dual one, its jump
    operators the dual ones (|J><J| per rate group), and the rates carry the
    parity sign.
    The fundamental sum rule sum_a j_a [J^dag J - (-1)^N J J^dag] = G*1 and
    the odd-rate scalar rule are validated on the Schroedinger set.
    """
    family.require("generator")
    dual, gam, pmat, ident = _frame(family, params)
    dim = family.dim

    heis_gen = 1j * gam * ident - pmat @ family.generator(t, dual) @ pmat
    try:
        heis = gksl_decompose_heisenberg(heis_gen, family.parity_op)
    except (ValueError, lv.ReconstructionError) as exc:
        # the duality-built Heisenberg generator is not even unit preserving:
        # the relation failed structurally
        return _report("jump_duality", params, [t], math.inf, tol,
                       {"error": str(exc)})
    sch_dual = gksl_decompose(family.generator(t, dual), family.parity_op)
    sch = gksl_decompose(family.generator(t, params), family.parity_op)

    ham_res = _maxabs(heis.effective_hamiltonian + sch_dual.effective_hamiltonian)
    rate_res, piece_res, _ = _pair_terms(
        [(term.parity * term.rate, term.parity) for term in sch_dual.terms],
        [(term.rate, term.parity) for term in heis.terms],
        [_rank_one(term.operator, term.operator) for term in sch_dual.terms],
        [_rank_one(term.operator, term.operator) for term in heis.terms])

    acc = np.zeros((dim, dim), dtype=complex)
    odd_sum = 0.0
    for term in sch.terms:
        jop = term.operator
        acc += term.rate * (jop.conj().T @ jop - term.parity * jop @ jop.conj().T)
        if term.parity < 0:
            odd_sum += term.rate
    sum_rule = _maxabs(acc - gam * np.eye(dim))
    odd_rule = abs(odd_sum - 0.5 * dim * gam)

    resid = max([ham_res, sum_rule, odd_rule] + rate_res + piece_res)
    witness = {"hamiltonian": ham_res, "rates": rate_res, "projectors": piece_res,
               "sum_rule": sum_rule, "odd_rate_rule": odd_rule}
    return _report("jump_duality", params, [t], resid, tol, witness)


def check_choi_duality(family: SuperOpFamily, params: ModelParams, t: float,
                       tol: float = 1e-8) -> ResidualReport:
    """Swap-conjugate Choi transform against the parity-dressed dual Choi."""
    family.require("propagator")
    dual, gam, _, _ = _frame(family, params)
    pbip = np.kron(family.parity_op, family.parity_op)
    prop, prop_dual = family.propagator(t, params), family.propagator(t, dual)
    lhs = choi_of(superadjoint(prop))
    mid = choi_duality_transform(choi_of(prop))
    rhs = math.exp(-gam * t) * pbip @ choi_of(prop_dual)
    r1 = _maxabs(lhs - mid)
    r2 = _maxabs(mid - rhs)
    min_eig = is_cp(prop_dual)[1]
    witness = {"adjoint_vs_swap": r1, "swap_vs_dual": r2,
               "dual_choi_min_eigenvalue": min_eig}
    return _report("choi_duality", params, [t], max(r1, r2), tol, witness)


# ---------------------------------------------------------------------------
# fixed-point relations between generator and kernel
# ---------------------------------------------------------------------------

def check_fixed_point_stationary(family: SuperOpFamily, params: ModelParams,
                                 tol: float = 1e-6) -> ResidualReport:
    """Stationary generator as a frequency sampling of the memory kernel.

    K_hat applied at each stationary eigenvalue to the matching right
    eigenvector, summed over the modes, must reproduce G_inf.  The sampled
    K_hat is the transform of K(t) exp(i t G_inf) only where that integral
    converges, pi T + G/2 + Im lambda > 0 on every mode; elsewhere
    :class:`QuadratureError` is raised.
    """
    family.require("generator_stationary", "kernel_hat")
    g_inf = family.generator_stationary(params)
    base_rate = math.pi * params.temperature + 0.5 * family.gamma_sum(params)
    sample = np.zeros_like(g_inf)
    for mode in spectral_decompose(g_inf).modes:
        rate = base_rate + mode.value.imag
        if rate <= 0:
            raise QuadratureError(
                f"kernel integral does not converge for mode {mode.value} "
                f"(net decay rate {rate:.3e})")
        r = vectorize(mode.right)
        l = vectorize(mode.left)
        sample = sample + np.outer(family.kernel_hat(mode.value, params) @ r, l.conj())
    res_sample = _maxabs(sample - g_inf)
    return _report("fixed_point_stationary", params, [], res_sample, tol,
                   {"sampling_path": res_sample})


def _functional_residual(family, params, t, n):
    """Residual of the anti-time-ordered functional fixed point at step count n."""
    from scipy.linalg import expm
    ident = identity_superop(family.dim)
    h = t / n
    grid = np.linspace(0.0, t, n + 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    # ordered product with later times rightmost; U[j] approximates the
    # ordered exponential from grid[j] to t
    u = np.empty((n + 1,) + ident.shape, dtype=complex)
    u[n] = ident
    for j in range(n - 1, -1, -1):
        u[j] = expm(1j * h * family.generator(mids[j], params)) @ u[j + 1]
    integrand = family.kernel_smooth(t - grid, params) @ u
    integrand[0] = 0.5 * (integrand[0] + integrand[-1])   # trapezoid end weights
    rhs = family.kernel_delta(params) + h * integrand[:-1].sum(axis=0)
    return _maxabs(family.generator(t, params) - rhs)


def check_functional_fixed_point(family: SuperOpFamily, params: ModelParams,
                                 t: float, n_steps: int = 400,
                                 tol: float = 1e-3) -> ResidualReport:
    """Time-local generator as an anti-time-ordered functional of the kernel.

    Reports the residual at ``n_steps`` and its ratio under step halving, about four
    (quadratic) for an exact relation; the Heisenberg picture is this check on a
    family with generator -(i G 1 - P G_dual P) and kernels -K^sadj.
    """
    family.require("generator", "kernel_delta", "kernel_smooth")
    coarse = _functional_residual(family, params, t, n_steps)
    fine = _functional_residual(family, params, t, 2 * n_steps)
    ratio = coarse / fine if fine > 0 else math.inf
    # quadratic when the trapezoid resolves the kernel; first order when the
    # thermal spike is narrower than a step; a broken identity saturates at 1
    passed_scaling = ratio >= 1.5 or fine < 1e-9
    witness = {"residual_coarse": coarse, "residual_fine": fine,
               "halving_ratio": ratio, "n_steps": n_steps}
    report = _report("functional_fixed_point", params, [t], fine, tol, witness)
    report.passed = report.passed and passed_scaling
    return report


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

DEFAULT_PARAMS = (
    ModelParams(0.5, 0.0, 0.25, 1.0),
    ModelParams(1.0, 0.0, 0.5, 1.0),
    ModelParams(2.0, 0.0, 0.3, 1.0),
    ModelParams(0.25, 0.0, 1.0, 1.0),
    ModelParams(1.5, 0.0, 0.2, 1.0),
)

DEFAULT_TIMES = (0.1, 0.5, 1.0, 3.0)

DEFAULT_FREQS = (0.4j, 1.0 + 0.7j, -0.6 + 1.5j, 2.0j)

_FIXED_POINT_STEPS = 200   # step count of run_suite's functional fixed point

class _Samples(NamedTuple):
    """Where the relations are sampled at one parameter point."""

    times: tuple
    freqs: tuple           # frequencies w whose reflections iG - w* are sampled too
    kernel_points: tuple   # where the kernel spectra are compared: iG, if sampled
    steps: int = 0         # step count of the functional fixed point; 0: not sampled

    @property
    def t_mid(self) -> float:
        return self.times[len(self.times) // 2]


# One row per relation: its id, its default tolerance, the callbacks it
# requires, the sample list it needs (the row is skipped where that list is
# empty) and the call.  The calls name the checks as module attributes, so a
# tracer that rebinds them sees them.
_RELATIONS = (
    ("propagator_duality", 1e-8, ("propagator",), "times",
     lambda f, p, s, tol: check_propagator_duality(f, p, s.times, tol, freqs=s.freqs)),
    ("spectral_cross_propagator", 1e-8, ("propagator",), "times",
     lambda f, p, s, tol: check_spectral_cross_relations(f, p, s.t_mid, tol, "propagator")),
    ("spectral_cross_kernel_hat", 1e-8, ("kernel_hat",), "kernel_points",
     lambda f, p, s, tol: check_spectral_cross_relations(
         f, p, s.kernel_points[0], tol, "kernel_hat")),
    ("kernel_duality", 1e-8, ("kernel_hat",), "freqs",
     lambda f, p, s, tol: check_kernel_duality_frequency(f, p, s.freqs, tol, times=s.times)),
    ("generator_duality", 1e-7, ("propagator", "generator"), "times",
     lambda f, p, s, tol: check_generator_duality(f, p, s.times, tol)),
    ("generator_duality_gflip", 1e-8, ("generator", "generator_gflip"), "times",
     lambda f, p, s, tol: check_generator_gflip(f, p, s.times, tol)),
    ("kraus_duality", 1e-7, ("propagator",), "times",
     lambda f, p, s, tol: check_kraus_duality(f, p, s.t_mid, tol)),
    ("kraus_sum_rules", 1e-8, ("propagator",), "times",
     lambda f, p, s, tol: check_kraus_sum_rules(
         canonical_kraus(f.propagator(s.t_mid, p), f.parity_op), f.gamma_sum(p),
         s.t_mid, f.dim, tol, p)),
    ("jump_duality", 1e-7, ("generator",), "times",
     lambda f, p, s, tol: check_jump_duality(f, p, s.t_mid, tol)),
    ("choi_duality", 1e-8, ("propagator",), "times",
     lambda f, p, s, tol: check_choi_duality(f, p, s.t_mid, tol)),
    ("fixed_point_stationary", 1e-6, ("generator_stationary", "kernel_hat"), None,
     lambda f, p, s, tol: check_fixed_point_stationary(f, p, tol)),
    ("functional_fixed_point", 1e-3, ("generator", "kernel_delta", "kernel_smooth"), "steps",
     lambda f, p, s, tol: check_functional_fixed_point(
         f, p, 2.0 / abs(f.gamma_sum(p)), s.steps, tol)),
)


DEFAULT_TOLERANCES = {row[0]: row[1] for row in _RELATIONS}


def _run_relations(family: SuperOpFamily, points,
                   tolerances: dict | None) -> list[ResidualReport]:
    """Reports of each relation the family and each (params, samples) point support, sorted."""
    tols = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    reports: list[ResidualReport] = []
    for params, samples in points:
        if family.gamma_sum(params) == 0.0:
            raise ValueError(f"coupling sum is zero at {params}: the relations "
                             "sample times and frequencies in units of gamma")
        for relation_id, _, requires, needs, call in _RELATIONS:
            if (all(getattr(family, name) is not None for name in requires)
                    and (needs is None or getattr(samples, needs))):
                reports.append(call(family, params, samples, tols[relation_id]))
    reports.sort(key=lambda r: (r.relation_id,
                                (r.params.epsilon, r.params.mu,
                                 r.params.temperature, r.params.gamma)))
    return reports


def run_suite(family: SuperOpFamily,
              params_list=DEFAULT_PARAMS,
              times=DEFAULT_TIMES,
              freqs=DEFAULT_FREQS,
              tolerances: dict | None = None) -> list[ResidualReport]:
    """Run every relation over the parameter grid; deterministic report order."""
    return _run_relations(family, [
        (params, _Samples(times, freqs, (1j * family.gamma_sum(params),),
                          _FIXED_POINT_STEPS))
        for params in params_list], tolerances)


# ---------------------------------------------------------------------------
# JSON interface for externally supplied families
# ---------------------------------------------------------------------------

def _theta_to_json(p: ModelParams) -> dict:
    return {"epsilon": p.epsilon, "mu": p.mu,
            "temperature": p.temperature, "gamma": p.gamma}


def _theta_from_json(obj) -> ModelParams:
    return ModelParams(obj["epsilon"], obj["mu"], obj["temperature"], obj["gamma"])


def family_to_json(family: SuperOpFamily, params_list, times, freqs) -> dict:
    """Tabulate a family on a sample set (duals included); a matrix is rows of [re, im] pairs."""
    samples = []

    def add(kind, arg, theta, matrix):
        arg_json = [arg.real, arg.imag] if isinstance(arg, complex) else float(arg)
        samples.append({"kind": kind, "arg": arg_json,
                        "theta": _theta_to_json(theta),
                        "matrix": np.stack([np.real(matrix), np.imag(matrix)], -1).tolist()})

    for params in params_list:
        thetas = (params, family.dual_map(params))
        for theta in thetas:
            for t in times:
                if family.propagator is not None:
                    add("propagator", float(t), theta, family.propagator(t, theta))
                if family.generator is not None:
                    add("generator", float(t), theta, family.generator(t, theta))
        if family.kernel_hat is not None:
            gam = family.gamma_sum(params)
            for w in freqs:
                w = complex(w)
                add("kernel_hat", w, params, family.kernel_hat(w, params))
                wd = 1j * gam - w.conjugate()
                add("kernel_hat", wd, family.dual_map(params),
                    family.kernel_hat(wd, family.dual_map(params)))
    return {
        "dim": family.dim,
        "basis_convention": lv.BASIS_CONVENTION,
        "gamma_sum": family.gamma_sum(params_list[0]) if params_list else 0.0,
        "parity_diag": [float(x.real) for x in np.diag(family.parity_op)],
        "samples": samples,
    }


@dataclass
class TabulatedFamily:
    family: SuperOpFamily
    sample_index: dict
    params_list: list
    times: list
    freqs: list


def _arg_key(arg) -> tuple:
    if isinstance(arg, complex):
        return (float(arg.real), float(arg.imag))
    return (float(arg), 0.0)


def family_from_json(doc) -> TabulatedFamily:
    """Rebuild a lookup-backed family from the JSON schema of :func:`family_to_json`."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if doc.get("basis_convention", lv.BASIS_CONVENTION) != lv.BASIS_CONVENTION:
        raise ValueError("unsupported basis convention")
    index: dict = {}
    thetas = []
    times = set()
    freqs = set()
    try:
        dim = int(doc["dim"])
        parity = np.diag([complex(x) for x in doc["parity_diag"]])
        if parity.shape != (dim, dim):
            raise ValueError(f"parity_diag has {len(parity)} entries for dim {dim}")
        for s in doc["samples"]:
            theta = _theta_from_json(s["theta"])
            arg = s["arg"]
            arg = complex(arg[0], arg[1]) if isinstance(arg, list) else float(arg)
            matrix = np.array([[complex(x[0], x[1]) for x in row] for row in s["matrix"]])
            if matrix.shape != (dim * dim, dim * dim):
                raise ValueError(f"{s['kind']} sample at {arg} for {theta} is not "
                                 f"{dim * dim}x{dim * dim}")
            index[(s["kind"], _arg_key(arg), theta)] = matrix
            if theta not in thetas:
                thetas.append(theta)
            if s["kind"] in ("propagator", "generator"):
                times.add(float(np.real(arg)))
            elif s["kind"] == "kernel_hat":
                freqs.add(complex(arg))
    except KeyError as exc:
        raise ValueError(f"family JSON lacks the key {exc}") from None
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed family JSON: {exc}") from None

    def lookup(kind):
        def f(arg, theta):   # a float gives a matrix, a 1-D array a stack
            mats = []
            for a in np.ravel(arg).tolist():
                if (kind, _arg_key(a), theta) not in index:
                    raise MissingCallbackError(
                        f"tabulated family has no {kind} sample at {a} for {theta}")
                mats.append(index[kind, _arg_key(a), theta])
            return np.reshape(mats, np.shape(arg) + (dim * dim, dim * dim))
        return f

    kinds = {s["kind"] for s in doc["samples"]}
    fam = SuperOpFamily(
        dim=dim,
        parity_op=parity,
        dual_map=lambda p: p.dual(),
        gamma_sum=lambda p: p.gamma,
        propagator=lookup("propagator") if "propagator" in kinds else None,
        generator=lookup("generator") if "generator" in kinds else None,
        kernel_hat=lookup("kernel_hat") if "kernel_hat" in kinds else None,
    )
    primaries = [p for p in thetas if p.gamma > 0]
    return TabulatedFamily(fam, index, primaries, sorted(times), sorted(freqs, key=_arg_key))


def run_tabulated_suite(tab: TabulatedFamily,
                        tolerances: dict | None = None) -> list[ResidualReport]:
    """Run every relation the tabulated samples can support.

    A frequency relation at w needs the table to hold the reflected sample
    at iG - w* on the dual point; the other frequencies are left out.
    """
    fam = tab.family
    points = []
    for params in tab.params_list:
        gam = fam.gamma_sum(params)
        dual = fam.dual_map(params)

        def held(ws):
            return tuple(w for w in ws if (
                "kernel_hat", _arg_key(1j * gam - w.conjugate()), dual) in tab.sample_index)

        points.append((params, _Samples(tab.times, held(tab.freqs), held([1j * gam]))))
    return _run_relations(fam, points, tolerances)
