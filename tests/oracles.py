"""Second constructions of the slip, the resolvent, the pole catalog, G_inf and the CP onset.

The package builds each of these quantities one way, in closed form.  The
functions here build them another way (contour residues, a regularized
Laplace transform, growth on shrinking circles, the Dyson inverse, a
similarity transform, time-domain quadrature of the memory kernel and a
Choi-eigenvalue scan) so that the tests can compare the two.
"""

import math

import numpy as np

from rlmdual.liouville import dissipator, is_cp, spectral_decompose, superadjoint, vectorize
from rlmdual.markov import ALWAYS, NEVER, slip_operator, stationary_generator
from rlmdual.model import ANNIHILATOR, CREATOR, RlmProvider, mode_stack, pole_catalog
from rlmdual.scalars import ModelParams, g_stationary, g_tail, weighted_kernel_grid


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


def kernel_mode_integral(params: ModelParams, lam: complex) -> complex:
    """int_0^inf exp((i lam - gamma/2) t) k(t) dt by composite 24-point Gauss-Legendre.

    The fused weight is weighted_kernel_grid with the real decay
    -Im lam - gamma/2 times exp(i Re lam t), so no factor leaves double
    range while the integral converges (net decay pi T + gamma/2 + Im lam > 0).
    The panels end where the envelope exp(-rate t) has fallen to e^-40.
    """
    temp = params.temperature
    rate = math.pi * temp + 0.5 * params.gamma + lam.imag
    if rate <= 0:
        raise ValueError(f"the integral diverges at lambda = {lam}")
    width = min(1.0 / (math.pi * temp), 1.0 / rate,
                math.pi / (abs(params.detuning) + abs(lam.real) + 1e-300))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    t = width * (np.arange(math.ceil(40.0 / rate / width))[:, None] + 0.5 * (nodes + 1.0))
    f = weighted_kernel_grid(t, params, -lam.imag - 0.5 * params.gamma) \
        * np.exp(1j * lam.real * t)
    return complex((f * (0.5 * width * weights)).sum())


def fixed_point_by_quadrature(params: ModelParams) -> np.ndarray:
    """K_delta + sum_i [int_0^inf K_s(t) exp(i lambda_i t) dt] |r_i><l_i| over the modes of G_inf.

    K_s(t) = -i (gamma/2) exp(-gamma t/2) k(t) (D_+ - D_-), so each mode
    contributes one :func:`kernel_mode_integral`.  Equals G_inf where the
    memory-kernel fixed point G_inf = K_hat(G_inf) holds.
    """
    provider = RlmProvider(params)
    diss_diff = dissipator(CREATOR) - dissipator(ANNIHILATOR)
    out = provider.kernel_delta().astype(complex)
    for mode in spectral_decompose(provider.generator_stationary()).modes:
        scalar = -0.5j * params.gamma * kernel_mode_integral(params, complex(mode.value))
        out = out + scalar * diss_diff @ np.outer(vectorize(mode.right),
                                                  vectorize(mode.left).conj())
    return out


def cp_onset_by_scan(params: ModelParams, t_max: float | None = None,
                     cp_tol: float = 1e-9, scan_points: int = 400):
    """CP onset of exp(-i G_inf t) S from Choi eigenvalues sampled in time.

    Scans the smallest Choi eigenvalue over [0, t_max] (dense linear-log
    grid), takes the brentq root of min_eig + cp_tol in the last sign change,
    then demands CP on 64 log-spaced later samples, rescanning with twice the
    points where that fails.  Returns ALWAYS or NEVER as ``cp_onset_time``.
    """
    from scipy.optimize import brentq

    if t_max is None:
        t_max = 1e3 / min(abs(params.gamma), params.temperature)
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
    last_bad = int(np.where(bad)[0][-1])
    onset = brentq(lambda t: min_eig(t) + cp_tol, ts[last_bad], ts[last_bad + 1])
    if (min_eig(np.geomspace(onset, t_max, 64)[1:]) < -cp_tol).any():
        # CP did not persist; the scan missed a later violation
        return cp_onset_by_scan(params, t_max, cp_tol, 2 * scan_points)
    return float(onset)
