"""Closed-form resonant-level dynamics: the propagator, generator and kernel.

A single fermionic level (basis |0>, |1>, d = 2) tunnel-coupled to one
wide-band reservoir.  The provider evaluates the finite-time propagator, the
time-local generator, the time-nonlocal kernel with its Laplace transform, the
frequency-domain propagator, observables, divisibility diagnostics and the
pole catalog of the resolvent.  The spectral, measurement-operator (Kraus)
and jump forms come from one path each: ``liouville``'s decompositions applied
to these superoperators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouville import commutator_superop, dissipator, vectorize
from .scalars import (
    ModelParams,
    PoleError,
    _Cells,
    _check_series_temperature,
    _g,
    g_and_p,
    g_of_t,
    g_stationary,
    k_hat,
    k_hat_pole_ladder,
    weighted_kernel_grid,
)

__all__ = [
    "ANNIHILATOR",
    "CREATOR",
    "NUMBER_OP",
    "PARITY_OP",
    "IDENTITY_OP",
    "mode_stack",
    "mode_hat",
    "RlmProvider",
    "PoleCatalog",
    "pole_catalog",
    "DIVERGES",
    "divisibility_max",
]

def __getattr__(name):
    # scipy.linalg loads only when a tracer looks up ``expm`` to wrap it
    # (perfbench/tracing.py); nothing in this module calls it
    if name == "expm":
        from scipy.linalg import expm
        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def mode_hat(e, params: ModelParams, s) -> np.ndarray:
    """Laplace transform of :func:`mode_stack`: i / (E - lambda_k) on each mode.

    ``e`` is a complex number (a 4x4 matrix) or an array (a stack of that
    shape); ``s`` is a number or an array matching ``e``.  The four isolated
    poles raise :class:`PoleError`.
    """
    lam = _generator_eigenvalues(params)
    gap = np.asarray(e, dtype=complex)[..., None] - lam
    hit = np.abs(gap) < 1e-12 * max(1.0, abs(params.gamma))
    if hit.any():
        raise PoleError(f"propagator_hat pole at E = {np.broadcast_to(lam, gap.shape)[hit][0]}")
    coeffs = 1j / gap
    parity_row = 0.5 * s * (coeffs[..., 0] - coeffs[..., 3])
    coeffs = np.concatenate([coeffs, parity_row[..., None]], axis=-1)
    return (coeffs @ _MODE_BASIS).reshape(gap.shape[:-1] + (4, 4))


class RlmProvider:
    """All representations of the level dynamics at one parameter point.

    Every matrix-valued method takes a float, giving a 4x4 matrix, or a 1-D
    array, giving an (N,4,4) stack.  The scalars g and p are memoized per
    time (or per time array), and p fills the memo of g as it goes, so
    repeated superoperator requests at the same times are cheap.  Memoized
    arrays are read-only.  The memo fills are idempotent, which keeps
    concurrent use safe.
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

    def g(self, t):
        return self._memoized("g", t, lambda: g_of_t(t, self.params))

    def p(self, t):
        def compute():   # one call for both; its g has the bits of g_of_t
            g, p = g_and_p(t, self.params)
            self._memoized("g", t, lambda: g)
            return p
        return self._memoized("p", t, compute)

    def g_infinity(self) -> float:
        return g_stationary(self.params)

    # -- propagator ---------------------------------------------------------

    def propagator(self, t) -> np.ndarray:
        """exp(-i[H,.]t + (Gamma t/2) sum_eta [1 - eta p(t)] D_eta) from its modes."""
        return mode_stack(t, self.params, self.p(t))

    # -- time-local generator -----------------------------------------------

    def generator(self, t) -> np.ndarray:
        """Time-local generator G(t) of d rho/dt = -i G(t) rho."""
        return self._generator_from_g(self.g(t))

    def generator_gflip(self, t) -> np.ndarray:
        """G(t) with the sign of g(t) flipped (model-specific duality hook)."""
        return self._generator_from_g(-self.g(t))

    def generator_stationary(self) -> np.ndarray:
        return self._generator_from_g(self.g_infinity())

    def _generator_from_g(self, g) -> np.ndarray:
        gamma = self.params.gamma
        return self._liouvillian + 0.5j * gamma * (_DISS_SUM - np.multiply.outer(g, _DISS_DIFF))

    # -- time-nonlocal kernel -----------------------------------------------

    def kernel_delta(self) -> np.ndarray:
        """Singular part K_delta of K(t) = K_delta delta(t) + K_s(t)."""
        return self._liouvillian + 0.5j * self.params.gamma * _DISS_SUM

    def kernel_smooth(self, t) -> np.ndarray:
        """Smooth part K_s(t) = -i (Gamma/2) exp(-Gamma t/2) k(t) (D_+ - D_-), fused."""
        if np.any(np.asarray(t) < 0):
            raise ValueError("time must be nonnegative")
        w = weighted_kernel_grid(t, self.params, -0.5 * self.params.gamma)
        return np.multiply.outer(-0.5j * self.params.gamma * w, _DISS_DIFF)

    def memory_kernel_hat(self, e) -> np.ndarray:
        """Laplace transform of the memory kernel, continued in e."""
        return self._generator_from_g(k_hat(e + 0.5j * self.params.gamma, self.params))

    # -- frequency-domain propagator ------------------------------------------

    def propagator_hat(self, e) -> np.ndarray:
        """Closed-form resolvent: :func:`mode_hat` with s = k_hat(E + i gamma/2)."""
        return mode_hat(e, self.params, k_hat(e + 0.5j * self.params.gamma, self.params))

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
        """d<N>/dt from the closed form Gamma e^{-Gamma t} [g_dual(t) + <parity>]/2.

        e^{-Gamma t} g_dual(t) is taken as (1 - e^{-Gamma t}) p(t) - g(t), which
        stays finite where g_dual(t) alone overflows.
        """
        rho0 = self._check_state(rho0)
        gamma = self.params.gamma
        par0 = float(np.trace(PARITY_OP @ rho0).real)
        gt = gamma * np.asarray(t, float)
        out = 0.5 * gamma * (-np.expm1(-gt) * self.p(t) - self.g(t) + np.exp(-gt) * par0)
        return float(out) if out.ndim == 0 else out


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


def pole_catalog(params: ModelParams, n_max: int = 2) -> PoleCatalog:
    """Exact pole positions of the frequency-domain propagator, in closed form.

    Isolated poles sit at 0, -i Gamma and +-eps - i Gamma/2, the eigenvalues of
    the generator; the thermal ladder at +-(eps - mu) - i Gamma/2 - i pi T (2n+1),
    the poles of k_hat(E + i Gamma/2) for n = 0..n_max.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    isolated = tuple(complex(v) for v in _generator_eigenvalues(params))
    ladder = tuple(w - 0.5j * params.gamma for w in k_hat_pole_ladder(params, n_max))
    return PoleCatalog(isolated, ladder)


# ---------------------------------------------------------------------------
# divisibility maxima
# ---------------------------------------------------------------------------

DIVERGES = math.inf


def divisibility_max(which: str, detuning, temperature, gamma):
    """max_t |g(t)| or |g_dual(t)| per cell; DIVERGES (inf) where the maximum is unbounded.

    detuning = eps - mu, temperature and gamma are floats or arrays of a grid.
    g(t) = int_0^t w(s) sin(delta s) ds with w(s) = exp(-gamma s/2) 2T/sinh(pi T s),
    and d/ds ln w = -gamma/2 - pi T coth(pi T s) < 0 for all s > 0 whenever
    gamma >= -2 pi T.  The lobes of sin(delta s) then alternate and shrink, so
    the maximum is |g(pi/|delta|)|; below -2 pi T the weight grows and g diverges.
    The dual function is g at (-eps, -mu, -gamma), so it diverges where gamma > 2 pi T.
    """
    if which not in ("g", "g_dual"):
        raise ValueError("which must be 'g' or 'g_dual'")
    cells = np.broadcast_arrays(detuning, temperature, gamma)
    if not (np.isfinite(cells).all() and (cells[1] > 0.0).all()):
        raise ValueError("model parameters must be finite, the temperature positive")
    _check_series_temperature(cells[1].max())
    sign = 1.0 if which == "g" else -1.0
    delta, temp, gamma = (c.ravel() * s for c, s in zip(cells, (sign, 1.0, sign)))
    live = (delta != 0.0) & (gamma >= -2.0 * math.pi * temp)
    out = np.where(delta != 0.0, DIVERGES, 0.0)
    cell = _Cells(delta[live], temp[live], gamma[live])
    with np.errstate(over="ignore"):   # |delta| < pi/DBL_MAX: t* = inf, where g is g_c
        t_star = math.pi / np.abs(cell.detuning)
    out[live] = np.abs(_g(t_star, cell))
    return float(out[0]) if cells[0].ndim == 0 else out.reshape(cells[0].shape)
