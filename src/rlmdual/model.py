"""Closed-form resonant-level dynamics in all five representations.

A single fermionic level (basis |0>, |1>, d = 2) tunnel-coupled to one
wide-band reservoir.  The provider evaluates the finite-time propagator, its
spectral and measurement-operator forms, the time-local generator with its
jump expansion, the time-nonlocal kernel with its Laplace transform, the
frequency-domain propagator, observables, divisibility diagnostics and the
pole catalog of the resolvent.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm  # noqa: F401  uncalled; perfbench/tracing.py wraps this name

from .liouville import (
    SpectralDecomposition,
    SpectralMode,
    JumpSet,
    JumpTerm,
    KrausSet,
    KrausTerm,
    commutator_superop,
    dissipator,
    identity_superop,
    vectorize,
)
from .scalars import (
    ModelParams,
    PoleError,
    g_dual_of_t,
    g_of_t,
    g_stationary,
    k_hat,
    k_hat_pole_ladder,
    k_of_t,
    p_from_g,
)

__all__ = [
    "DIM",
    "ANNIHILATOR",
    "CREATOR",
    "NUMBER_OP",
    "PARITY_OP",
    "IDENTITY_OP",
    "d_eta",
    "mode_stack",
    "RlmProvider",
    "PoleCatalog",
    "pole_catalog",
    "DIVERGES",
    "divisibility_max",
]

DIM = 2

ANNIHILATOR = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
CREATOR = ANNIHILATOR.conj().T
NUMBER_OP = CREATOR @ ANNIHILATOR
PARITY_OP = np.diag([1.0, -1.0]).astype(complex)
IDENTITY_OP = np.eye(2, dtype=complex)

_DISS_PLUS = dissipator(CREATOR)    # eta = +, jump d_+ = d^dag
_DISS_MINUS = dissipator(ANNIHILATOR)
_DISS_SUM = _DISS_PLUS + _DISS_MINUS
_DISS_DIFF = _DISS_PLUS - _DISS_MINUS
_VEC_NUMBER = vectorize(NUMBER_OP)


def d_eta(eta: int) -> np.ndarray:
    """d_+ = creation, d_- = annihilation."""
    return CREATOR if eta > 0 else ANNIHILATOR


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(vectorize(a), vectorize(b).conj())


# |right><left| pairs of the four closed-form modes, the stationary and parity
# modes split into their s-independent parts and the |parity><1| part
_MODE_BASIS = np.array([
    0.5 * _outer(IDENTITY_OP, IDENTITY_OP),
    _outer(ANNIHILATOR, ANNIHILATOR),
    _outer(CREATOR, CREATOR),
    0.5 * _outer(PARITY_OP, PARITY_OP),
    _outer(PARITY_OP, IDENTITY_OP),
]).reshape(5, 16)


def _closed_modes(values, s: float) -> SpectralDecomposition:
    """Modes of exp(-i G t) or G for the generator with parity scalar s."""
    modes = (
        SpectralMode(values[0], 0.5 * (IDENTITY_OP + s * PARITY_OP), IDENTITY_OP),
        SpectralMode(values[1], ANNIHILATOR, ANNIHILATOR),
        SpectralMode(values[2], CREATOR, CREATOR),
        SpectralMode(values[3], PARITY_OP, 0.5 * (PARITY_OP - s * IDENTITY_OP)),
    )
    return SpectralDecomposition(modes, ((0,), (1,), (2,), (3,)))


def _generator_eigenvalues(params: ModelParams) -> np.ndarray:
    """0, -eps - i gamma/2, eps - i gamma/2 and -i gamma, whatever the parity scalar."""
    eps, gamma = params.epsilon, params.gamma
    return np.array([0.0, complex(-eps, -0.5 * gamma), complex(eps, -0.5 * gamma),
                     complex(0.0, -gamma)])


def mode_stack(t, params: ModelParams, s) -> np.ndarray:
    """exp(-i G_s t) summed over its four closed-form modes.

    G_s is the generator with parity scalar s: the propagator is G_{p(t)} at
    each t, the semigroup G_{g_inf}.  ``t`` is a float (a 4x4 matrix) or a 1-D
    array (an (N,4,4) stack); ``s`` is a float or an array matching ``t``.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ValueError("time must be nonnegative")
    lam = np.exp(np.multiply.outer(ts, -1j * _generator_eigenvalues(params)))
    parity_row = -0.5 * np.expm1(-params.gamma * ts) * s
    coeffs = np.concatenate([lam, parity_row[..., None]], axis=-1)
    return (coeffs @ _MODE_BASIS).reshape(ts.shape + (4, 4))


class RlmProvider:
    """All representations of the level dynamics at one parameter point.

    The scalars g, g_dual and p are memoized per time (or per time array), and
    p is built from the memoized g and g_dual, so repeated superoperator
    requests at the same times are cheap.  Memoized arrays are read-only.  The
    memo fills are idempotent, which keeps concurrent use safe.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.hamiltonian = params.epsilon * NUMBER_OP
        self._liouvillian = commutator_superop(self.hamiltonian)
        self._memo: dict = {}

    # -- memoized scalars ---------------------------------------------------

    def _memoized(self, name: str, t, compute):
        key = (name, t) if np.ndim(t) == 0 else (name, np.asarray(t, float).tobytes())
        if key not in self._memo:
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]

    def k(self, t: float) -> float:
        return k_of_t(t, self.params)

    def g(self, t):
        return self._memoized("g", t, lambda: g_of_t(t, self.params))

    def g_dual(self, t):
        return self._memoized("g_dual", t, lambda: g_dual_of_t(t, self.params))

    def p(self, t):
        return self._memoized(
            "p", t, lambda: p_from_g(t, self.g(t), self.g_dual(t), self.params))

    def g_infinity(self) -> float:
        return g_stationary(self.params)

    # -- propagator ---------------------------------------------------------

    def propagator(self, t) -> np.ndarray:
        """exp(-i[H,.]t + (Gamma t/2) sum_eta [1 - eta p(t)] D_eta) from its modes.

        A 1-D array of times gives an (N,4,4) stack.
        """
        return mode_stack(t, self.params, self.p(t))

    def propagator_spectral(self, t: float) -> SpectralDecomposition:
        """Closed-form eigenmodes of the propagator."""
        values = np.exp(-1j * t * _generator_eigenvalues(self.params))
        return _closed_modes(values, self.p(t) if t > 0 else 0.0)

    def kraus_set(self, t: float) -> KrausSet:
        """Closed-form canonical measurement operators and coefficients."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        gamma = self.params.gamma
        eps = self.params.epsilon
        p = self.p(t) if t > 0 else 0.0
        gt = gamma * t
        sh = math.sinh(0.5 * gt)
        ch = math.cosh(0.5 * gt)
        root = math.sqrt(1.0 + (p * sh) ** 2)
        phase = cmath.exp(0.5j * eps * t)
        terms = []
        for eta in (1, -1):
            m0 = math.exp(-0.5 * gt) * (ch + eta * root)
            ups_eta = 0.5 + 0.5 * eta * p * sh / root
            ups_meta = 0.5 - 0.5 * eta * p * sh / root
            op0 = (eta * math.sqrt(ups_eta) * phase) * (ANNIHILATOR @ CREATOR) \
                + (math.sqrt(ups_meta) / phase) * NUMBER_OP
            terms.append(KrausTerm(float(m0), op0, 1))
            m1 = 0.5 * (-math.expm1(-gt)) * (1.0 - eta * p)
            terms.append(KrausTerm(float(m1), d_eta(eta), -1))
        return KrausSet(tuple(terms))

    # -- time-local generator -----------------------------------------------

    def generator(self, t: float) -> np.ndarray:
        """Time-local generator G(t) of d rho/dt = -i G(t) rho."""
        g = self.g(t) if t > 0 else 0.0
        return self._generator_from_g(g)

    def generator_gflip(self, t: float) -> np.ndarray:
        """G(t) with the sign of g(t) flipped (model-specific duality hook)."""
        g = self.g(t) if t > 0 else 0.0
        return self._generator_from_g(-g)

    def generator_stationary(self) -> np.ndarray:
        return self._generator_from_g(self.g_infinity())

    def _generator_from_g(self, g: float) -> np.ndarray:
        gamma = self.params.gamma
        return self._liouvillian + 0.5j * gamma * (_DISS_SUM - g * _DISS_DIFF)

    def generator_spectral(self, t: float) -> SpectralDecomposition:
        return _closed_modes(_generator_eigenvalues(self.params), self.g(t) if t > 0 else 0.0)

    # -- time-nonlocal kernel -----------------------------------------------

    def kernel_delta(self) -> np.ndarray:
        """Singular part K_delta of K(t) = K_delta delta(t) + K_s(t)."""
        return self._liouvillian + 0.5j * self.params.gamma * _DISS_SUM

    def kernel_smooth(self, t: float) -> np.ndarray:
        """Smooth part K_s(t) = -i (Gamma/2) exp(-Gamma t/2) k(t) (D_+ - D_-)."""
        gamma = self.params.gamma
        w = math.exp(-0.5 * gamma * t) * self.k(t)
        return -0.5j * gamma * w * _DISS_DIFF

    def memory_kernel_hat(self, e: complex) -> np.ndarray:
        """Laplace transform of the memory kernel, continued in e."""
        gamma = self.params.gamma
        kh = k_hat(e + 0.5j * gamma, self.params)
        return self._liouvillian + 0.5j * gamma * (_DISS_SUM - kh * _DISS_DIFF)

    # -- frequency-domain propagator ------------------------------------------

    def propagator_hat(self, e: complex) -> np.ndarray:
        """Closed-form resolvent of the dynamics at complex frequency e."""
        gamma = self.params.gamma
        eps = self.params.epsilon
        for pole in (0.0, -1j * gamma, eps - 0.5j * gamma, -eps - 0.5j * gamma):
            if abs(e - pole) < 1e-12 * max(1.0, abs(gamma)):
                raise PoleError(f"propagator_hat pole at E = {pole}")
        kh = k_hat(e + 0.5j * gamma, self.params)
        one = vectorize(IDENTITY_OP)
        par = vectorize(PARITY_OP)
        out = np.zeros((4, 4), dtype=complex)
        for eta in (1, -1):
            v = vectorize(d_eta(eta).conj().T)
            out += (1j / (e + eta * eps + 0.5j * gamma)) * np.outer(v, v.conj())
        out += (0.5j / e) * np.outer(one + kh * par, one.conj())
        out += (0.5j / (e + 1j * gamma)) * np.outer(par, par.conj() - kh * one.conj())
        return out

    def resolvent_hat(self, e: complex) -> np.ndarray:
        """i / (E - K_hat(E)); equals :meth:`propagator_hat` away from poles."""
        kh = self.memory_kernel_hat(e)
        return 1j * np.linalg.inv(e * identity_superop(DIM) - kh)

    # -- jump layer -----------------------------------------------------------

    def jump_set(self, t: float) -> JumpSet:
        gamma = self.params.gamma
        g = self.g(t) if t > 0 else 0.0
        terms = tuple(
            JumpTerm(0.5 * gamma * (1.0 - eta * g), d_eta(eta), -1)
            for eta in (1, -1)
        )
        return JumpSet(self.hamiltonian.copy(), terms)

    def heisenberg_jump_rates(self, t: float) -> tuple[float, float]:
        """(j_+^H, j_-^H) = (Gamma/2)(1 -+ g_dual(t))."""
        gamma = self.params.gamma
        gd = self.g_dual(t) if t > 0 else 0.0
        return 0.5 * gamma * (1.0 - gd), 0.5 * gamma * (1.0 + gd)

    # -- observables ----------------------------------------------------------

    def _check_state(self, rho0: np.ndarray) -> np.ndarray:
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (2, 2):
            raise ValueError("initial state must be a 2x2 matrix")
        if np.abs(rho0 - rho0.conj().T).max() > 1e-9:
            raise ValueError("initial state must be Hermitian")
        if abs(np.trace(rho0) - 1.0) > 1e-9:
            raise ValueError("initial state must have unit trace")
        return rho0

    def occupation(self, t, rho0: np.ndarray):
        """<N>(t); a 1-D array of times gives an array."""
        rho0 = self._check_state(rho0)
        occ = np.einsum("i,...ij,j->...", _VEC_NUMBER.conj(), self.propagator(t),
                        vectorize(rho0)).real
        return float(occ) if occ.ndim == 0 else occ

    def current(self, t, rho0: np.ndarray):
        """d<N>/dt from the closed form Gamma e^{-Gamma t} [g_dual(t) + <parity>]/2."""
        rho0 = self._check_state(rho0)
        gamma = self.params.gamma
        par0 = float(np.trace(PARITY_OP @ rho0).real)
        out = 0.5 * gamma * np.exp(-gamma * np.asarray(t, float)) * (self.g_dual(t) + par0)
        return float(out) if out.ndim == 0 else out

    def stationary_state(self) -> np.ndarray:
        """Fixed point at t -> infinity: (1 + g_inf * parity) / 2."""
        return 0.5 * (IDENTITY_OP + self.g_infinity() * PARITY_OP)


# ---------------------------------------------------------------------------
# pole catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleCatalog:
    isolated: tuple[complex, ...]
    ladder: tuple[complex, ...]

    @property
    def all_poles(self) -> tuple[complex, ...]:
        return self.isolated + self.ladder


def pole_catalog(params: ModelParams, n_max: int = 2, verify: bool = False) -> PoleCatalog:
    """Exact pole positions of the frequency-domain propagator.

    Isolated poles sit at 0, -i Gamma and +-eps - i Gamma/2; the thermal
    ladder at +-(eps - mu) - i Gamma/2 - i pi T (2n+1).  With ``verify`` each
    pole is confirmed by growth of |propagator_hat| on a shrinking circle.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    gamma = params.gamma
    eps = params.epsilon
    isolated = (0.0 + 0.0j, -1j * gamma, eps - 0.5j * gamma, -eps - 0.5j * gamma)
    ladder = tuple(w - 0.5j * gamma for w in k_hat_pole_ladder(params, n_max))
    catalog = PoleCatalog(isolated, ladder)
    if verify:
        provider = RlmProvider(params)
        all_p = catalog.all_poles
        for pole in all_p:
            spacing = min((abs(pole - q) for q in all_p if q != pole), default=1.0)
            r = min(1e-2 * max(abs(gamma), 1.0), 0.3 * spacing)
            grow = _circle_max(provider, pole, 0.25 * r) / _circle_max(provider, pole, r)
            if grow < 2.0:
                raise ValueError(f"no pole growth detected at E = {pole}")
    return catalog


def _circle_max(provider: RlmProvider, center: complex, radius: float, n: int = 8) -> float:
    vals = []
    for k in range(n):
        e = center + radius * cmath.exp(2j * math.pi * (k + 0.37) / n)
        vals.append(np.abs(provider.propagator_hat(e)).max())
    return max(vals)


# ---------------------------------------------------------------------------
# divisibility maxima
# ---------------------------------------------------------------------------

DIVERGES = math.inf


def divisibility_max(which: str, params: ModelParams) -> float:
    """max_t |g(t)| or |g_dual(t)|; DIVERGES (inf) where the maximum is unbounded.

    g(t) = int_0^t w(s) sin(delta s) ds with w(s) = exp(-gamma s/2) 2T/sinh(pi T s),
    and d/ds ln w = -gamma/2 - pi T coth(pi T s) < 0 for all s > 0 whenever
    gamma >= -2 pi T.  The lobes of sin(delta s) then alternate and shrink, so
    the maximum is |g(pi/|delta|)|; below -2 pi T the weight grows and g diverges.
    The dual function is g at (-eps, -mu, -gamma), so it diverges where gamma > 2 pi T.
    """
    if which not in ("g", "g_dual"):
        raise ValueError("which must be 'g' or 'g_dual'")
    p = params if which == "g" else params.dual()
    if p.detuning == 0.0:
        return 0.0
    if p.gamma < -2.0 * math.pi * p.temperature:
        return DIVERGES
    return abs(g_of_t(math.pi / abs(p.detuning), p))
