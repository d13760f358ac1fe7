"""Scalar special functions of the wide-band resonant level.

All nontrivial parameter dependence of the level dynamics is carried by three
real functions of time: the reservoir kernel amplitude ``k``, its once-weighted
integral ``g`` (entering the time-local generator) and the doubly averaged
``p`` (entering the finite-time propagator).  This module evaluates them, their
values at sign-inverted parameters, the complex digamma function, and the
Laplace transform of ``k`` continued to the whole complex plane.  ``g``,
``g_dual`` and ``p`` take a float or a whole 1-D array of times and are
quadrature free: an exponential series where 2 pi T t >= 1/2, and below it a
series in pi T t whose terms are incomplete gamma functions in closed form.
p's exponential series reuses g's exponentials, so :func:`g_and_p` gives both.

Conventions: hbar = k_B = 1, all energies in the same unit, times in inverse
energy.  The Laplace transform used throughout is ``f_hat(w) = int_0^inf dt
exp(i w t) f(t)`` (converges for Im w large enough, continued elsewhere).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import bernoulli, exp1, psi

__all__ = [
    "ModelParams",
    "QuadratureError",
    "PoleError",
    "g_of_t",
    "g_dual_of_t",
    "g_stationary",
    "g_and_p",
    "p_of_t",
    "digamma_complex",
    "k_hat",
    "k_hat_pole_ladder",
]

_TWO_PI = 2.0 * math.pi


def __getattr__(name):
    # scipy.integrate loads only when a tracer looks up ``quad`` to wrap it
    # (perfbench/tracing.py); nothing in the package calls it
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuadratureError(RuntimeError):
    """An integral or long-time limit does not converge to the requested accuracy."""


class PoleError(ValueError):
    """Evaluation requested exactly on (or too close to) a pole."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter tuple (level energy, potential, temperature, coupling).

    ``gamma`` may be negative: that is how dual (sign-inverted) parameter sets
    are represented.  ``temperature`` is strictly positive and untouched by the
    dual map.
    """

    epsilon: float
    mu: float
    temperature: float
    gamma: float

    def __post_init__(self):
        vals = (self.epsilon, self.mu, self.temperature, self.gamma)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("model parameters must be finite")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")

    @property
    def detuning(self) -> float:
        return self.epsilon - self.mu

    def dual(self) -> "ModelParams":
        """Sign-inverted partner: (eps, mu, gamma) -> (-eps, -mu, -gamma)."""
        return replace(self, epsilon=-self.epsilon, mu=-self.mu, gamma=-self.gamma)


# ---------------------------------------------------------------------------
# the kernel amplitude k and its weighted variants
# ---------------------------------------------------------------------------

def weighted_kernel_grid(ts: np.ndarray, params: ModelParams, decay: float) -> np.ndarray:
    """exp(decay*t) * k(t) = 4T sin(delta t) e^{(decay - pi T) t} / (1 - e^{-2 pi T t}).

    Vectorized over any array of times; the fused form cannot overflow.
    """
    ts = np.asarray(ts, dtype=float)
    a = math.pi * params.temperature
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (-4.0 * params.temperature) * np.sin(params.detuning * ts) \
            * np.exp((decay - a) * ts) / np.expm1((-2.0 * a) * ts)
    return np.where(ts == 0.0, 2.0 * params.detuning / math.pi, out)


# h(x) = x / sinh x = sum_k c_k x^{2k}, c_k = -(2^{2k} - 2) B_{2k} / (2k)!: nine
# terms reach 1e-17 for x <= 1/4, which is 2 pi T t <= 1/2 at x = pi T t
_H = np.array([-(4.0 ** k - 2.0) * b / math.factorial(2 * k)
               for k, b in enumerate(bernoulli(16)[::2])])
_ORDERS = 28   # Gs(n, w) for n < 28: g takes n = 2k, p the n = 2k + j, j < 12
_J = np.arange(40)   # power-series terms: 4^40/40! < 1e-23
_FACT = np.array([math.factorial(k) for k in range(_ORDERS - 1)], dtype=float)
# (-w)^j/j! @ _SERIES sums (-w)^j/(j! (n + j)), without the j = 0 term at n = 0
_SERIES = 1.0 / np.maximum(np.add.outer(_J, np.arange(_ORDERS)), 1)
_SERIES[0, 0] = 0.0
# w^-i @ _TAIL sums (n-1)! w^-i/(n-i)! over i = 1..n, row i - 1, column n - 1
_TAIL = np.triu(_FACT / _FACT[abs(np.subtract.outer(range(_ORDERS - 1), range(_ORDERS - 1)))])


def _gs(w: np.ndarray) -> np.ndarray:
    """Gs(n, w) = int_0^1 u^{n-1} e^{-w u} du for n = 0..27 (last axis), Gs(0, w) = -Ein(w).

    The power series sum_j (-w)^j/(j! (n + j)) where |w| <= 4; beyond it
    (n-1)! [w^-n - e^-w sum_{i=1}^n w^-i/(n-i)!] (DLMF 8.4.7), which cannot
    overflow in negative powers of w, and Ein = E1 + ln w + gamma_E (DLMF 6.2.3).
    Each w is a one-row product of its own, so no value depends on its place in a BLAS block.
    """
    out = np.empty(w.shape + (_ORDERS,), dtype=complex)
    small = np.abs(w) <= 4.0
    if small.any():
        terms = np.ones((int(small.sum()), _J.size), dtype=complex)
        terms[:, 1:] = np.cumprod(-w[small, None] / _J[1:], axis=1)
        out[small] = (terms[:, None] @ _SERIES)[:, 0]
    if not small.all():
        wl = w[~small]
        inv = np.cumprod(np.broadcast_to(1.0 / wl[:, None], (wl.size, _ORDERS - 1)), axis=1)
        out[~small, 0] = -(exp1(wl) + np.log(wl) + np.euler_gamma)
        out[~small, 1:] = inv * _FACT - np.exp(-wl)[:, None] * (inv[:, None] @ _TAIL)[:, 0]
    return out


def _shc(x: np.ndarray) -> np.ndarray:
    return np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)


def _times(t) -> tuple[np.ndarray, bool]:
    """A float or 1-D array of times as a 1-D array, and whether t was scalar."""
    ts = np.array(t, dtype=float, ndmin=1)
    if ts.ndim > 1:
        raise ValueError("times must be a float or a 1-D array")
    if ts.size and ts.min() < 0:
        raise ValueError("time must be nonnegative")
    return ts, isinstance(t, (float, int)) or np.ndim(t) == 0


# a parameter point per time: arrays that the series below take in place of a ModelParams
_Cells = namedtuple("_Cells", "detuning temperature gamma")


def _check_series_temperature(temp):
    if math.isinf(_TWO_PI * 82 * float(temp)):   # the last rate, 2 pi T 81.5 + gamma/2
        t_max = np.finfo(float).max / (_TWO_PI * 82)
        raise ValueError(f"temperature {temp:.17g} exceeds {t_max:.17g}, where the "
                         "rates 2 pi T (n + 1/2) of the thermal series leave double range")


@np.errstate(over="ignore")   # t b_n past DBL_MAX: the term is e^{-inf} = 0
def _series(ts: np.ndarray, params: ModelParams):
    """4T sum_n Im q_n, the terms q_n = e^{-b_n t}/b_n and the rates b_n, for 2 pi T t >= 1/2.

    A fixed 82 terms, n = 0..81, at every time: the cut 2 pi T n t >= 40 only at
    2 pi T t = 1/2; longer times also sum terms far below the double-precision floor.
    """
    temp = params.temperature
    b = 0.5 * params.gamma + math.pi * temp - 1j * params.detuning
    if isinstance(params, _Cells):   # a series per time: the parameters as columns
        b, temp = b[:, None], temp[:, None]
    b = b + _TWO_PI * temp * np.arange(82)
    q = np.exp(-ts[:, None] * b) / b
    return 4.0 * params.temperature * q.imag.sum(axis=1), q, b


def g_of_t(t, params: ModelParams):
    """Integral of exp(-gamma s / 2) k(s) over [0, t]; t a float or a 1-D array.

    Where 2 pi T t >= 1/2, 1/sinh x = 2 sum_n exp(-(2n+1) x) gives the closed
    form g_c - 4T sum_n Im[exp(-b_n t) / b_n], b_n = gamma/2 + (2n+1) pi T -
    i delta, with g_c the constant of :func:`g_stationary` continued to every
    gamma.  Below that the series converges slowly and loses digits to
    cancellation; with k(s) = (2/pi) Im(e^{i delta s})/s h(pi T s) the
    integral is (2/pi) Im sum_k c_k (pi T t)^{2k} Gs(2k, (gamma/2 - i delta) t)
    instead.
    """
    ts, scalar = _times(t)
    _check_series_temperature(params.temperature)
    out = _g(ts, params) if params.detuning else np.zeros_like(ts)
    return float(out[0]) if scalar else out


def _g_short(ts: np.ndarray, params: ModelParams) -> np.ndarray:
    x = (math.pi * params.temperature * ts)[:, None] ** (2 * np.arange(_H.size))
    gs = _gs((0.5 * params.gamma - 1j * params.detuning) * ts)[:, :2 * _H.size:2]
    return (2.0 / math.pi) * (gs * (x * _H)).imag.sum(axis=1)


def _g(ts: np.ndarray, params: ModelParams) -> np.ndarray:
    """g at a 1-D array of times (0 at t = 0), ``params`` a ModelParams or _Cells."""
    cells = isinstance(params, _Cells)
    g_c = _g_constant.__wrapped__ if cells else _g_constant

    def at(m):
        return _Cells(*(v[m] for v in params)) if cells else params

    out, long = np.zeros_like(ts), _TWO_PI * params.temperature * ts >= 0.5
    short = ~long & (ts > 0)
    if long.any():
        out[long] = g_c(at(long)) - _series(ts[long], at(long))[0]
    if short.any():
        out[short] = _g_short(ts[short], at(short))
    return out


def g_dual_of_t(t, params: ModelParams):
    """g evaluated at the sign-inverted parameters (direct form, not the identity)."""
    return g_of_t(t, params.dual())


@functools.lru_cache(maxsize=256)   # _Cells of arrays go through __wrapped__
def _g_constant(params: ModelParams) -> float:
    """g_c = 4T sum_n Im[1/b_n] = (2/pi) Im psi(1/2 + (gamma/2 + i delta)/(2 pi T))."""
    return k_hat(0.5j * params.gamma, params).real


def g_stationary(params: ModelParams) -> float:
    """Long-time limit of g: the digamma constant g_c = Re k_hat(i gamma/2).

    The limit exists only while pi T + gamma/2 > 0; elsewhere g grows without
    bound and :class:`QuadratureError` is raised.
    """
    if params.detuning == 0.0:
        return 0.0
    if math.pi * params.temperature + 0.5 * params.gamma <= 0:
        raise QuadratureError("stationary limit of g diverges: pi*T + gamma/2 <= 0")
    return _g_constant(params)


def _p_small(ts: np.ndarray, params: ModelParams) -> np.ndarray:
    """p = int_0^t R(t, s) k(s) ds for |gamma t| < 0.3, R = sinh(a(t-s))/sinh(a t), a = gamma/2.

    R = sum_j rho_j s^j, rho_j = a^j/j! for even j and -coth(a t) a^j/j! for
    odd j.  On [0, L], L = min(t, s_0), s_0 = 1/(4 pi T), the h series gives
    (2/pi) Im sum_{k,j} c_k (pi T L)^{2k} rho_j L^j Gs(2k + j, -i delta L).  On
    [s_0, t], 1/sinh x = 2 sum_n e^{-(2n+1) x} and with beta_n = (2n+1) pi T -
    i delta, sigma = t - s, R e^{-beta s} has the antiderivative
    -e^{-beta s} [beta sigma shc(a sigma) - cosh(a sigma)] / ((beta^2 - a^2) t shc(a t)).
    """
    temp, a = params.temperature, 0.5 * params.gamma
    s0 = 0.25 / (math.pi * temp)
    ell = np.minimum(ts, s0)
    j = np.arange(12)
    rho = (a * ell)[:, None] ** (j - j % 2) / _FACT[j]
    rho[:, 1::2] *= (-ell * np.cosh(a * ts) / (ts * _shc(a * ts)))[:, None]   # a coth(a t) L
    h = (math.pi * temp * ell)[:, None] ** (2 * np.arange(_H.size)) * _H
    gs = _gs(-1j * params.detuning * ell)[:, np.add.outer(2 * np.arange(_H.size), j)]
    out = (2.0 / math.pi) * (h[:, :, None] * rho[:, None, :] * gs).imag.sum(axis=(1, 2))
    far = ts > s0
    if far.any():
        t, sig = ts[far, None], ts[far, None] - s0
        beta = _TWO_PI * temp * (np.arange(82) + 0.5) - 1j * params.detuning
        x, y = beta * sig, a * sig   # e^{-beta t} - e^{-beta s_0} cosh(y), free of cancellation
        rest = np.exp(-beta * s0) * (np.expm1(-x) + x * _shc(y) - 2.0 * np.sinh(0.5 * y) ** 2)
        # beta^2 - a^2 over beta: beta^2 overflows past T ~ 2.6e151; 4T joins before Im ~ delta/T^2
        den = (beta - a * a / beta) * t * _shc(a * t)
        out[far] += (rest / beta * (4.0 * temp / den)).imag.sum(axis=1)
    return out


def g_and_p(t, params: ModelParams):
    """(g, p) at times t (a float or a 1-D array), p from g's own exponentials.

    p follows from (1 - e^{-gamma t}) p = g + e^{-gamma t} g_dual where |gamma t| >= 0.3;
    below that the identity cancels digits and :func:`_p_small` integrates p directly.
    Where 2 pi T t >= 1/2 the dual rates are b'_n = conj(b_n) - gamma, so with g's
    E_n = e^{-b_n t} the right side is g_c + e^{-gamma t} g_c(dual) + 4T gamma
    sum_n Im[E_n (1/b_n) (1/(b_n - gamma))], which cannot overflow; below it, for
    gamma > 0, e^{-gamma t} g_dual < (4|delta|/(pi gamma)) e^{-gamma t/2} is dropped
    past gamma t = 80, before g_dual alone overflows.
    """
    ts, scalar = _times(t)
    _check_series_temperature(params.temperature)
    g, p, own, other = np.zeros((4,) + ts.shape)   # the identity: own + e^{-gamma t} other
    if params.detuning:
        temp, gam, dual = params.temperature, params.gamma, params.dual()
        gt = gam * ts
        ident, long = np.abs(gt) >= 0.3, _TWO_PI * temp * ts >= 0.5
        if long.any():
            tail, q, b = _series(ts[long], params)
            g[long] = _g_constant(params) - tail
            fused = (q * (1.0 / (b - gam))).imag.sum(axis=1)   # two reciprocals: no overflow
            own[long] = _g_constant(params) + 4.0 * temp * gam * fused
            other[long] = _g_constant(dual)
        short = ~long & (ts > 0)
        if short.any():
            g[short] = own[short] = _g_short(ts[short], params)
            near = short & ident & (gt <= 80.0)
            other[near] = _g_short(ts[near], dual)
        # for gamma < 0 the identity times e^{gamma t} is the dual point's, whose p is -p
        lead, trail = (own, other) if gam > 0 else (other, own)
        a, sign = np.abs(gt[ident]), math.copysign(1.0, gam)
        p[ident] = sign * (lead[ident] + np.exp(-a) * trail[ident]) / -np.expm1(-a)
        small = ~ident & (ts > 0)
        if small.any():
            p[small] = _p_small(ts[small], params)
    return (float(g[0]), float(p[0])) if scalar else (g, p)


def p_of_t(t, params: ModelParams):
    """Doubly averaged kernel function entering the propagator (see :func:`g_and_p`)."""
    return g_and_p(t, params)[1]


# ---------------------------------------------------------------------------
# complex digamma and the continued Laplace transform of k
# ---------------------------------------------------------------------------

def digamma_complex(z):
    """Digamma function on the complex plane; z a number or an array.

    scipy's ``psi``; arguments within 1e-12 of a nonpositive integer raise
    :class:`PoleError`.
    """
    z = np.asarray(z, dtype=complex)
    near = np.rint(z.real)
    pole = (near <= 0) & (np.abs(z - near) < 1e-12)
    if pole.any():
        raise PoleError(f"digamma pole at z = {int(near[pole][0])}")
    out = psi(z)
    return complex(out) if out.ndim == 0 else out


_ETA = np.array([1.0, -1.0])


def k_hat(omega, params: ModelParams):
    """Laplace transform of k, analytically continued via the digamma form.

    Valid on the whole complex plane away from the simple-pole ladder at
    ``omega = +-delta - i pi T (2n+1)``; ``omega`` is a number or an array.
    """
    omega = np.asarray(omega, dtype=complex)
    scale = -1j / (_TWO_PI * params.temperature)
    arg = (0.5 + scale * omega)[..., None] + np.multiply.outer(scale * params.detuning, _ETA)
    try:
        psi_pm = digamma_complex(arg)
    except PoleError as exc:
        raise PoleError(f"k_hat pole hit on the ladder +-delta - i pi T (2n+1): {exc}") from exc
    out = (psi_pm[..., 0] - psi_pm[..., 1]) * (1j / math.pi)
    return complex(out) if out.ndim == 0 else out


def k_hat_pole_ladder(params: ModelParams, n_max: int) -> list[complex]:
    """Pole positions omega = +-delta - i pi T (2n+1), n = 0..n_max."""
    delta = params.detuning
    temp = params.temperature
    poles = []
    for n in range(n_max + 1):
        im = -math.pi * temp * (2 * n + 1)
        poles.append(complex(delta, im))
        poles.append(complex(-delta, im))
    return poles

