"""Reference values for the benchmark's output checks, computed apart from rlmdual.

Scalars come from mpmath: adaptive quadrature of the defining integral of g and
the digamma form of k_hat.  The checks use mpmath's double-precision context
(``mpmath.fp``), which agrees with the 30-digit context to about 1e-16 on these
integrands (``selftest.py`` compares the two) and is fast enough to check every
output.  Superoperators are built here from the closed forms, in the
column-stacking convention the program documents, with their own small helpers.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import fp
from scipy.linalg import expm
from scipy.optimize import brentq

ANNIHILATOR = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
CREATOR = ANNIHILATOR.T.copy()
NUMBER = np.diag([0.0, 1.0]).astype(complex)
PARITY = np.diag([1.0, -1.0]).astype(complex)
EYE2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def kernel(s: float, delta: float, temp: float, gamma: float) -> float:
    """e^{-gamma s/2} 2T sin(delta s) / sinh(pi T s), written without overflow."""
    if s == 0.0:
        return 2.0 * delta / math.pi
    x = math.pi * temp * s
    return (4.0 * temp * math.sin(delta * s) * math.exp(-0.5 * gamma * s - x)
            / -math.expm1(-2.0 * x))


def _nodes(lo: float, hi: float, delta: float, temp: float, extra: float = 0.0):
    """Breakpoints at most a half period of sin(delta s) or a thermal width apart."""
    width = 1.0 / (math.pi * temp)
    for freq in (abs(delta), abs(extra)):
        if freq > 0.0:
            width = min(width, math.pi / freq)
    n = min(4000, max(1, math.ceil((hi - lo) / width)))
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def g(t: float, delta: float, temp: float, gamma: float) -> float:
    """g(t) = int_0^t e^{-gamma s/2} 2T sin(delta s)/sinh(pi T s) ds by mpmath quadrature.

    The dual function g_dual(t) is ``g(t, -delta, temp, -gamma)``.
    """
    if t == 0.0 or delta == 0.0:
        return 0.0
    return float(fp.quad(lambda s: kernel(s, delta, temp, gamma),
                         _nodes(0.0, t, delta, temp)))


def k_hat(omega: complex, delta: float, temp: float) -> complex:
    """Laplace transform of k through mpmath's complex digamma."""
    out = 0.0
    for eta in (1.0, -1.0):
        out += eta * complex(fp.digamma(0.5 - 1j * (omega + eta * delta)
                                        / (2.0 * math.pi * temp)))
    return 1j * out / math.pi


def g_inf(delta: float, temp: float, gamma: float) -> float:
    """Stationary value of g: Re k_hat(i gamma/2)."""
    return k_hat(0.5j * gamma, delta, temp).real


def slip_coefficient(delta: float, temp: float, gamma: float) -> complex:
    """c = (k_hat(i gamma/2) - k_hat(-i gamma/2)) / 2."""
    return 0.5 * (k_hat(0.5j * gamma, delta, temp) - k_hat(-0.5j * gamma, delta, temp))


def laplace_vacuum_element(e: complex, delta: float, temp: float, gamma: float) -> complex:
    """int_0^inf e^{iEt} <0|Pi(t)|0> dt by mpmath quadrature, for Im E > 0.

    <0|Pi(t)|0> = (1 + e^{-gamma t})/2 + (g(t) + e^{-gamma t} g_dual(t))/2.  The
    g terms are integrated in the exchanged order,
    int_0^inf e^{iEt} int_0^t w(s) ds dt = (i/E) int_0^inf w(s) e^{iEs} ds,
    so each is one quadrature of a time-domain function, free of digamma.
    """
    if e.imag <= 0.0:
        raise ValueError("the direct transform needs Im E > 0")
    out = 0.5j / e + 0.5j / (e + 1j * gamma)
    for sign, shift in ((1.0, 0.0), (-1.0, gamma)):
        w = e + 1j * shift
        rate = w.imag + math.pi * temp + 0.5 * sign * gamma
        horizon = 45.0 / rate
        f = lambda s: kernel(s, sign * delta, temp, sign * gamma) * complex(fp.expj(w * s))
        val = complex(fp.quad(f, _nodes(0.0, horizon, delta, temp, extra=w.real)))
        out += 0.5 * (1j / w) * val
    return out


# ---------------------------------------------------------------------------
# superoperators (column stacking: vec(L X R) = kron(R.T, L) vec(X))
# ---------------------------------------------------------------------------

def vec(op: np.ndarray) -> np.ndarray:
    return np.asarray(op).reshape(-1, order="F")


def _left(a):
    return np.kron(EYE2, a)


def _right(a):
    return np.kron(a.T, EYE2)


def _dissipator(j):
    jdj = j.conj().T @ j
    return np.kron(j.conj(), j) - 0.5 * (_left(jdj) + _right(jdj))


_D_SUM = _dissipator(CREATOR) + _dissipator(ANNIHILATOR)
_D_DIFF = _dissipator(CREATOR) - _dissipator(ANNIHILATOR)


def liouvillian(eps: float) -> np.ndarray:
    h = eps * NUMBER
    return _left(h) - _right(h)


def generator(eps: float, gamma: float, gval: complex) -> np.ndarray:
    """G with d rho/dt = -i G rho and scalar g (g(t), g_inf or k_hat)."""
    return liouvillian(eps) + 0.5j * gamma * (_D_SUM - gval * _D_DIFF)


def propagator(t: float, eps: float, gamma: float, pval: float) -> np.ndarray:
    return expm(-1j * t * liouvillian(eps) + 0.5 * gamma * t * (_D_SUM - pval * _D_DIFF))


def slip_superop(c: complex) -> np.ndarray:
    return np.eye(4, dtype=complex) + c * np.outer(vec(PARITY), vec(EYE2).conj())


def min_choi_eigenvalues(maps: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each map's Choi matrix.

    Choi = sum_ij E_ij (x) map(E_ij), assembled from the map's action on the
    four matrix units; ``maps`` has shape (..., 4, 4).
    """
    maps = np.asarray(maps)
    choi = np.zeros(maps.shape[:-2] + (4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            image = (maps @ vec(unit)).reshape(maps.shape[:-2] + (2, 2), order="F")
            choi[..., 2 * i:2 * i + 2, 2 * j:2 * j + 2] = image
    herm = 0.5 * (choi + np.conj(np.swapaxes(choi, -1, -2)))
    return np.linalg.eigvalsh(herm)[..., 0]


def cp_onset(eps: float, delta: float, temp: float, gamma: float, t_max: float,
             cp_tol: float, points: int = 800):
    """Last time the slip propagator exp(-i G_inf t) S leaves the CP set.

    Returns "always" when no sample is non-CP, "never" when the last one is,
    otherwise the brentq root of min Choi eigenvalue + cp_tol bracketing the
    last sign change of a dense linear-and-logarithmic time grid.
    """
    g_stat = generator(eps, gamma, g_inf(delta, temp, gamma))
    slip = slip_superop(slip_coefficient(delta, temp, gamma))

    def level(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        maps = expm(-1j * ts[:, None, None] * g_stat[None]) @ slip
        return min_choi_eigenvalues(maps) + cp_tol

    ts = np.unique(np.concatenate((
        [0.0], np.linspace(0.0, t_max, points // 2),
        np.geomspace(t_max * 1e-9, t_max, points // 2))))
    vals = level(ts)
    bad = np.where(vals < 0.0)[0]
    if bad.size == 0:
        return "always"
    last = int(bad[-1])
    if last == len(ts) - 1:
        return "never"
    return brentq(lambda t: float(level(t)[0]), ts[last], ts[last + 1],
                  xtol=1e-12 * t_max, rtol=1e-12)
