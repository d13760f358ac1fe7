"""Scalar special functions of the wide-band resonant level.

All nontrivial parameter dependence of the level dynamics is carried by three
real functions of time: the reservoir kernel amplitude ``k``, its once-weighted
integral ``g`` (entering the time-local generator) and the doubly averaged
``p`` (entering the finite-time propagator).  This module evaluates them, their
values at sign-inverted parameters, the complex digamma function, and the
Laplace transform of ``k`` continued to the whole complex plane.  ``g``,
``g_dual`` and ``p`` take a float or a whole 1-D array of times and are
quadrature free: an exponential series in closed form, and a fixed
Gauss-Legendre rule at short times.

Conventions: hbar = k_B = 1, all energies in the same unit, times in inverse
energy.  The Laplace transform used throughout is ``f_hat(w) = int_0^inf dt
exp(i w t) f(t)`` (converges for Im w large enough, continued elsewhere).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import psi

__all__ = [
    "ModelParams",
    "QuadratureError",
    "PoleError",
    "k_of_t",
    "g_of_t",
    "g_tail",
    "g_dual_of_t",
    "g_stationary",
    "p_from_g",
    "p_of_t",
    "digamma_complex",
    "k_hat",
    "k_hat_pole_ladder",
    "oscillation_panel_width",
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

def k_of_t(t: float, params: ModelParams) -> float:
    """Kernel amplitude 2 T sin(delta t) / sinh(pi T t), delta = eps - mu."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return float(weighted_kernel_grid(t, params, 0.0))


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


def oscillation_panel_width(params: ModelParams) -> float:
    """Panel width resolving sin(delta t), the thermal decay and exp(-gamma t/2)."""
    widths = [1.0 / (math.pi * params.temperature)]
    if params.detuning != 0.0:
        widths.append(math.pi / abs(params.detuning))
    if params.gamma != 0.0:
        widths.append(2.0 / abs(params.gamma))
    return min(widths)


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)   # shared by every caller
    return rule


_BLOCK = 1 << 16   # Gauss nodes, or (time, panel) pairs, held in memory at once


def _panel_integrals(f, ts: np.ndarray, params: ModelParams):
    """24-point Gauss-Legendre integrals of f(nodes, panel midpoints), nodes last.

    Returns the integrals over the whole panels [j w, (j+1) w] below max ts
    (w = :func:`oscillation_panel_width`), their count below each t and each
    t's integral over [floor(t/w) w, t]: the cost grows with max ts / w, not
    with len(ts).  A panel count past the int64 range raises ValueError.
    """
    width = oscillation_panel_width(params)
    t_top = ts.max(initial=0.0)
    if t_top / width >= 2.0 ** 63:
        raise ValueError(f"t={t_top:g} spans more than 2^63 quadrature panels of width "
                         f"{width:g} (delta={params.detuning:g}, gamma={params.gamma:g})")
    nodes, weights = _gauss_rule(24)
    unit, half = 0.5 * (nodes + 1.0), 0.5 * weights   # the rule on [0, 1]

    def over(lo, h):   # panels [lo, lo + h] as column vectors
        return (f(lo + h * unit, lo + 0.5 * h) * (h * half)).sum(axis=-1)

    whole = np.floor(ts / width).astype(np.int64)
    n = int(whole.max(initial=0))
    lo = np.concatenate([width * np.arange(n), whole * width])[:, None]
    h = np.concatenate([np.full(n, width), ts - lo[n:, 0]])[:, None]
    step = _BLOCK // unit.size
    vals = np.concatenate(
        [over(lo[i:i + step], h[i:i + step]) for i in range(0, len(lo), step)], axis=-1)
    return vals[..., :n], whole, vals[..., n:]


def _times(t) -> tuple[np.ndarray, bool]:
    """A float or 1-D array of times as a 1-D array, and whether t was scalar."""
    ts = np.array(t, dtype=float, ndmin=1)
    if ts.ndim > 1:
        raise ValueError("times must be a float or a 1-D array")
    if ts.size and ts.min() < 0:
        raise ValueError("time must be nonnegative")
    return ts, isinstance(t, (float, int)) or np.ndim(t) == 0


def _piecewise(ts: np.ndarray, scalar: bool, first: np.ndarray, f_first, f_second):
    """f_first(mask) where ``first`` holds, f_second(mask) at the other t > 0, 0 at t = 0."""
    out = np.zeros_like(ts)
    second = ~first & (ts > 0)
    if first.any():
        out[first] = f_first(first)
    if second.any():
        out[second] = f_second(second)
    return float(out[0]) if scalar else out


def _series(ts: np.ndarray, params: ModelParams, shift: float = 0.0) -> np.ndarray:
    """4T sum_n Im[exp(-(b_n + shift) t) / b_n] for 2 pi T t >= 1/2, cut at 2 pi T n t >= 40."""
    temp = params.temperature
    b = (0.5 * params.gamma + math.pi * temp - 1j * params.detuning) \
        + _TWO_PI * temp * np.arange(82)
    return 4.0 * temp * (np.exp(np.multiply.outer(-ts, b + shift)) / b).imag.sum(axis=1)


def g_tail(t, params: ModelParams):
    """g(t) - g_c, with g_c the constant of :func:`g_stationary` continued to every gamma.

    From 1/sinh x = 2 sum_n exp(-(2n+1) x) it is -4T sum_n Im[exp(-b_n t) / b_n],
    b_n = gamma/2 + (2n+1) pi T - i delta, accurate even far below g_c; times
    with 2 pi T t < 1/2 take g(t) - g_c.
    """
    ts, scalar = _times(t)
    out = np.empty_like(ts)
    series = _TWO_PI * params.temperature * ts >= 0.5
    if series.any():
        out[series] = -_series(ts[series], params)
    if not series.all():
        out[~series] = g_of_t(ts[~series], params) - _g_constant(params)
    return float(out[0]) if scalar else out


def g_of_t(t, params: ModelParams):
    """Integral of exp(-gamma s / 2) k(s) over [0, t]; t a float or a 1-D array.

    Closed form g_c + :func:`g_tail` where 2 pi T t >= 1/2; below that the
    series converges slowly and loses digits to cancellation, and the integral
    is taken by composite Gauss-Legendre instead.
    """
    ts, scalar = _times(t)
    if params.detuning == 0.0:
        return 0.0 if scalar else np.zeros_like(ts)
    decay = -0.5 * params.gamma

    def quadrature(m):
        whole_vals, whole, last = _panel_integrals(
            lambda s, _: weighted_kernel_grid(s, params, decay), ts[m], params)
        return np.concatenate([[0.0], np.cumsum(whole_vals)])[whole] + last

    return _piecewise(
        ts, scalar, _TWO_PI * params.temperature * ts >= 0.5,
        lambda m: _g_constant(params) - _series(ts[m], params), quadrature)


def g_dual_of_t(t, params: ModelParams):
    """g evaluated at the sign-inverted parameters (direct form, not the identity)."""
    return g_of_t(t, params.dual())


@functools.lru_cache(maxsize=256)
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


def _p_direct(ts: np.ndarray, params: ModelParams) -> np.ndarray:
    """p = int_0^t R(t, s) k(s) ds, R = sinh(c (t-s)/2) / sinh(c t/2), c = |gamma|.

    About a panel midpoint m, R = alpha cosh(c u/2) - beta u shc(c u/2) with
    u = s - m and shc(x) = sinh(x)/x, so two panel moments of k serve every t.
    """
    c = abs(params.gamma)

    def moments(s, mid):
        x = 0.5 * c * (s - mid)
        shc = np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)
        return np.stack([np.cosh(x), (s - mid) * shc]) * weighted_kernel_grid(s, params, 0.0)

    def combine(t, m, a, b):   # alpha a - beta b, overflow free for m <= t
        if c == 0.0:
            return ((t - m) * a - b) / t
        rest = np.maximum(t - m, 0.0)
        scale = np.exp(-0.5 * c * m) / -np.expm1(-c * t)
        return scale * (-np.expm1(-c * rest) * a - 0.5 * c * (1.0 + np.exp(-c * rest)) * b)

    width = oscillation_panel_width(params)
    # |k(s)| < 4T e^{-pi T s} and 0 <= R <= 1: past pi T s = 40 the rest is below 1e-17
    reach = np.minimum(ts, 40.0 / (math.pi * params.temperature))
    (a, b), whole, (a_last, b_last) = _panel_integrals(moments, reach, params)
    out = combine(ts, 0.5 * (whole * width + reach), a_last, b_last)
    mids = width * (np.arange(a.size) + 0.5)
    step = max(1, _BLOCK // max(a.size, 1))
    for i in range(0, len(ts), step):
        rows = slice(i, i + step)
        inside = np.arange(a.size) < whole[rows, None]
        out[rows] += (combine(ts[rows, None], mids, a, b) * inside).sum(axis=1)
    return out


def p_from_g(t, g, params: ModelParams):
    """p at times t (a float or a 1-D array) from g at the same times.

    Uses ``(1 - exp(-gamma t)) p(t) = g(t) + exp(-gamma t) g_dual(t)`` where
    g has its closed form (2 pi T t >= 1/2) and |gamma t| >= 0.3.  The product
    exp(-gamma t) g_dual(t) is one series: exp(-gamma t) exp(-b'_n t) of the
    dual series is exp(-conj(b_n) t), which cannot overflow for gamma > 0 where
    g_dual(t) alone does.  Below either bound the identity cancels digits
    (1e-11 relative at gamma t = 1e-2), and :func:`_p_direct` is used.
    """
    ts, scalar = _times(t)
    if params.detuning == 0.0:
        return 0.0 if scalar else np.zeros_like(ts)
    gt = params.gamma * ts
    g = np.broadcast_to(g, ts.shape)
    dual = params.dual()

    def identity(m):
        scaled_dual = np.exp(-gt[m]) * _g_constant(dual) - _series(ts[m], dual, params.gamma)
        return (g[m] + scaled_dual) / -np.expm1(-gt[m])

    return _piecewise(
        ts, scalar, (np.abs(gt) >= 0.3) & (_TWO_PI * params.temperature * ts >= 0.5),
        identity, lambda m: _p_direct(ts[m], params))


def p_of_t(t, params: ModelParams):
    """Doubly averaged kernel function entering the propagator (see :func:`p_from_g`)."""
    return p_from_g(t, g_of_t(t, params), params)


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
    arg = (0.5 + scale * omega)[..., None] + (scale * params.detuning) * _ETA
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

