"""Second constructions of the slip, the resolvent and the pole catalog.

The package builds each of these quantities one way, in closed form.  The
functions here build them another way (contour residues, a regularized
Laplace transform, growth on shrinking circles, the Dyson inverse and a
similarity transform) so that the tests can compare the two.
"""

import math

import numpy as np

from rlmdual.liouville import spectral_decompose, superadjoint, vectorize
from rlmdual.markov import slip_operator, stationary_generator
from rlmdual.model import RlmProvider, pole_catalog
from rlmdual.scalars import ModelParams, g_tail


def contour_residue(f, pole: complex, radius: float, n: int = 32) -> np.ndarray:
    """Residue of a matrix-valued analytic f by the trapezoid rule on a circle.

    f maps an array of frequencies to a stack of matrices.
    """
    z = radius * np.exp(2j * math.pi * np.arange(n) / n)
    return (f(pole + z) * z[:, None, None]).sum(axis=0) / n


def _clear_radius(params: ModelParams, center: complex, shifts=(0.0,)) -> float:
    """A contour radius about center that keeps every shifted catalog pole outside."""
    poles = pole_catalog(params, n_max=3).all_poles
    spacing = min(abs(q - s - center) for q in poles for s in shifts
                  if abs(q - s - center) > 1e-12 * max(1.0, abs(params.gamma)))
    return min(1e-3 * abs(params.gamma), 0.3 * spacing)


def residue_slip(params: ModelParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Slip as the sum of -i Res of the propagator transform at the stationary eigenvalues.

    Returns the sum and the four residues.
    """
    gam, eps = params.gamma, params.epsilon
    provider = RlmProvider(params)
    residues = []
    for pole in (0.0 + 0.0j, -1j * gam, eps - 0.5j * gam, -eps - 0.5j * gam):
        radius = _clear_radius(params, pole)
        residues.append(-1j * contour_residue(provider.propagator_hat, pole, radius))
    return sum(residues), residues


def regularized_slip(params: ModelParams,
                     horizon_factor: float = 40.0) -> tuple[np.ndarray, bool, float]:
    """Slip as the zero-frequency residue of the transform of e^{i G_inf t} Pi(t).

    The transform is exact through the stationary mode decomposition: each mode
    contributes the frequency-shifted propagator transform, continued
    analytically.  Returns the residue, whether the naive long-time limit of
    e^{i G_inf t} Pi(t) exceeds 1e6 on a finite horizon, and the norm probed.
    """
    provider = RlmProvider(params)
    modes = spectral_decompose(provider.generator_stationary()).modes

    def transform(e: np.ndarray) -> np.ndarray:
        return sum(np.outer(vectorize(m.right), vectorize(m.left).conj())
                   @ provider.propagator_hat(e + m.value) for m in modes)

    radius = _clear_radius(params, 0.0, shifts=[m.value for m in modes])
    matrix = -1j * contour_residue(transform, 0.0, radius)

    # The only entry of e^{i G_inf t} Pi(t) that can grow is the parity-row
    # coefficient e^{gamma t}(g(t) - g_inf) + g_dual(t); the exponential series
    # of g(t) - g_inf keeps the product stable at any horizon (a matrix-product
    # probe would drown in e^{gamma t}-amplified rounding noise).  The horizon
    # is finite, so the flag misses a slow growth just above gamma = 2 pi T:
    # it reads False at gamma = 1.25 * 2 pi T, T = 1/pi.
    gam = params.gamma
    horizon = horizon_factor / min(abs(gam), math.pi * params.temperature)
    probe_end = min(horizon, 600.0 / abs(gam))  # keep exp(gamma t) in range
    ts = np.linspace(0.25 * probe_end, probe_end, 8)
    coeff = np.exp(gam * ts) * g_tail(ts, params) + provider.g_dual(ts)
    norms = np.maximum(1.0, 0.5 * np.abs(coeff))
    over = np.flatnonzero(norms > 1e6)
    diverges = over.size > 0
    return matrix, diverges, float(norms[over[0] if diverges else -1])


def pole_growth(params: ModelParams, n_max: int = 2) -> dict[complex, float]:
    """Ratio of max |propagator_hat| on a circle of radius r/4 to that on radius r, per pole."""
    provider = RlmProvider(params)
    poles = pole_catalog(params, n_max).all_poles

    def circle_max(center, radius, n=8):
        e = center + radius * np.exp(2j * math.pi * (np.arange(n) + 0.37) / n)
        return float(np.abs(provider.propagator_hat(e)).max())

    growth = {}
    for pole in poles:
        spacing = min((abs(pole - q) for q in poles if q != pole), default=1.0)
        r = min(1e-2 * max(abs(params.gamma), 1.0), 0.3 * spacing)
        growth[pole] = circle_max(pole, 0.25 * r) / circle_max(pole, r)
    return growth


def dyson_resolvent(params: ModelParams, e: complex) -> np.ndarray:
    """i / (E - K_hat(E)) by a dense inverse of the memory-kernel transform."""
    kh = RlmProvider(params).memory_kernel_hat(e)
    return 1j * np.linalg.inv(e * np.eye(4) - kh)


def heisenberg_via_slip(params: ModelParams) -> np.ndarray:
    """Stationary Heisenberg generator as the superadjoint of S^-1 G_inf S."""
    slip = slip_operator(params)
    return superadjoint(np.linalg.solve(slip, stationary_generator(params) @ slip))
