"""Second paths that the tests compare with the package's one production path.

The package builds each representation and each derived quantity one way.
The first group here restates closed forms that the package reaches through
its general machinery instead: the spectral, measurement-operator (Kraus) and
jump forms of the propagator and generator, which the package takes from
``liouville``'s decompositions; the Heisenberg jump rates; the stationary
state and generator; the tail g - g_inf as its exponential series; the kernel
amplitude k(t); the Choi inverse, the trace-preservation and
Hermiticity-preservation predicates, the Heisenberg dissipator and the
Heisenberg generator of a jump set; the family whose functional fixed point is
the Heisenberg picture's; and the per-matrix JSON pair, whose entries the
package's family tabulation writes directly.  The second group builds the slip, the
resolvent, the pole catalog, G_inf and the CP onset another way (contour
residues, a regularized Laplace transform, growth on shrinking circles, the
Dyson inverse, a similarity transform, time-domain quadrature of the memory
kernel and a Choi-eigenvalue scan).
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from rlmdual.liouville import (
    BASIS_CONVENTION,
    JumpSet,
    JumpTerm,
    KrausSet,
    KrausTerm,
    SpectralDecomposition,
    SpectralMode,
    choi_of,
    dissipator,
    identity_superop,
    is_cp,
    parity_superop,
    spectral_decompose,
    superadjoint,
    vectorize,
)
from rlmdual.markov import ALWAYS, NEVER, slip_operator
from rlmdual.model import (
    ANNIHILATOR,
    CREATOR,
    IDENTITY_OP,
    NUMBER_OP,
    PARITY_OP,
    RlmProvider,
    mode_stack,
    pole_catalog,
)
from rlmdual.scalars import (
    ModelParams,
    g_dual_of_t,
    g_of_t,
    g_stationary,
    k_hat,
    weighted_kernel_grid,
)


# ---------------------------------------------------------------------------
# closed forms of the representations
# ---------------------------------------------------------------------------

def _d_eta(eta: int) -> np.ndarray:
    """d_+ = creation, d_- = annihilation."""
    return CREATOR if eta > 0 else ANNIHILATOR


def _closed_modes(values, s: float) -> SpectralDecomposition:
    """Modes of exp(-i G t) or G for the generator with parity scalar s."""
    modes = (
        SpectralMode(values[0], 0.5 * (IDENTITY_OP + s * PARITY_OP), IDENTITY_OP),
        SpectralMode(values[1], ANNIHILATOR, ANNIHILATOR),
        SpectralMode(values[2], CREATOR, CREATOR),
        SpectralMode(values[3], PARITY_OP, 0.5 * (PARITY_OP - s * IDENTITY_OP)),
    )
    return SpectralDecomposition(modes)


def _generator_eigenvalues(params: ModelParams) -> np.ndarray:
    """0, -eps - i gamma/2, eps - i gamma/2 and -i gamma: the isolated poles."""
    return np.array(pole_catalog(params, 0).isolated)


def propagator_spectral(provider: RlmProvider, t: float) -> SpectralDecomposition:
    """Closed-form eigenmodes of the propagator."""
    values = np.exp(-1j * t * _generator_eigenvalues(provider.params))
    return _closed_modes(values, provider.p(t))


def generator_spectral(provider: RlmProvider, t: float) -> SpectralDecomposition:
    """Closed-form eigenmodes of the time-local generator."""
    return _closed_modes(_generator_eigenvalues(provider.params), provider.g(t))


def kraus_set(provider: RlmProvider, t: float) -> KrausSet:
    """Closed-form canonical measurement operators and coefficients of the propagator."""
    gamma = provider.params.gamma
    eps = provider.params.epsilon
    p = provider.p(t)
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
        terms.append(KrausTerm(float(m1), _d_eta(eta), -1))
    return KrausSet(tuple(terms))


def jump_set(provider: RlmProvider, t: float) -> JumpSet:
    """Closed-form jump expansion of the generator: rates (Gamma/2)(1 -+ g(t))."""
    gamma = provider.params.gamma
    g = provider.g(t)
    terms = tuple(JumpTerm(0.5 * gamma * (1.0 - eta * g), _d_eta(eta), -1) for eta in (1, -1))
    return JumpSet(provider.hamiltonian.copy(), terms)


def heisenberg_jump_rates(provider: RlmProvider, t: float) -> tuple[float, float]:
    """(j_+^H, j_-^H) = (Gamma/2)(1 -+ g_dual(t))."""
    gamma = provider.params.gamma
    gd = g_dual_of_t(t, provider.params)
    return 0.5 * gamma * (1.0 - gd), 0.5 * gamma * (1.0 + gd)


def stationary_state(params: ModelParams) -> np.ndarray:
    """Fixed point at t -> infinity: (1 + g_inf * parity) / 2."""
    return 0.5 * (IDENTITY_OP + g_stationary(params) * PARITY_OP)


def stationary_generator(params: ModelParams) -> np.ndarray:
    return RlmProvider(params).generator_stationary()


def k_of_t(t: float, params: ModelParams) -> float:
    """Kernel amplitude 2 T sin(delta t) / sinh(pi T t), delta = eps - mu."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return float(weighted_kernel_grid(t, params, 0.0))


def g_tail(t, params: ModelParams):
    """g(t) - g_c, with g_c = Re k_hat(i gamma/2) the constant of g_stationary continued.

    From 1/sinh x = 2 sum_n exp(-(2n+1) x) it is -4T sum_n Im[exp(-b_n t) / b_n],
    b_n = gamma/2 + (2n+1) pi T - i delta for n < 82, accurate even far below
    g_c; times with 2 pi T t < 1/2 take g(t) - g_c.
    """
    ts = np.array(t, dtype=float, ndmin=1)
    temp = params.temperature
    g_c = k_hat(0.5j * params.gamma, params).real
    out = np.empty_like(ts)
    series = 2.0 * math.pi * temp * ts >= 0.5
    if series.any():
        b = 0.5 * params.gamma + math.pi * temp - 1j * params.detuning \
            + 2.0 * math.pi * temp * np.arange(82)
        q = np.exp(-ts[series, None] * b) / b
        out[series] = -4.0 * temp * q.imag.sum(axis=1)
    if not series.all():
        out[~series] = g_of_t(ts[~series], params) - g_c
    return float(out[0]) if np.ndim(t) == 0 else out


def superop_from_choi(c: np.ndarray) -> np.ndarray:
    """Inverse of ``choi_of``."""
    c = np.asarray(c)
    d2 = c.shape[0]
    d = int(round(np.sqrt(d2)))
    return c.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d2, d2).copy()


def is_tp(s: np.ndarray, tol: float = 1e-10) -> bool:
    """Trace preservation: <1| s = <1|."""
    s = np.asarray(s)
    d = int(round(np.sqrt(s.shape[0])))
    one = vectorize(np.eye(d))
    return bool(np.abs(s.conj().T @ one - one).max() <= tol)


def is_hermiticity_preserving(s: np.ndarray, tol: float = 1e-10) -> bool:
    c = choi_of(s)
    return bool(np.abs(c - c.conj().T).max() <= tol)


def dissipator_heisenberg(j: np.ndarray) -> np.ndarray:
    """X -> j X j^dag - {j j^dag, X}/2 (unit-annihilating), the superadjoint of D(j^dag)."""
    return superadjoint(dissipator(np.asarray(j).conj().T))


def heisenberg_generator(jumps: JumpSet) -> np.ndarray:
    """Rebuild G^H from i G^H = i[H, .] + sum_a j_a D^H(J_a).

    D^H(J) = D(J^dag)^sadj, so G^H is the superadjoint of the Schroedinger
    generator of the set with every J replaced by J^dag.
    """
    daggered = JumpSet(jumps.effective_hamiltonian,
                       tuple(replace(t, operator=t.operator.conj().T) for t in jumps.terms))
    return superadjoint(daggered.generator())


def heisenberg_family(family):
    """The family whose functional fixed point is the Heisenberg picture of ``family``'s.

    Its generator is -G^H = -(i G 1 - P G(t, dual) P) and its kernels are -K^sadj, so
    the plain check takes the ordered product of exp(-i h G^H) and compares G^H with
    the superadjoint kernels, both sides negated: the residual of the Heisenberg
    relation, bit for bit.
    """
    pmat, ident = parity_superop(family.parity_op), identity_superop(family.dim)
    return replace(
        family,
        generator=lambda t, p: -(1j * family.gamma_sum(p) * ident
                                 - pmat @ family.generator(t, family.dual_map(p)) @ pmat),
        kernel_delta=lambda p: -superadjoint(family.kernel_delta(p)),
        kernel_smooth=lambda t, p: -superadjoint(family.kernel_smooth(t, p)),
    )


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize an operator or superoperator matrix as row-major [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    side = m.shape[0]
    dim = int(round(np.sqrt(side)))
    entries = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return {
        "dim": dim if dim * dim == side else side,
        "basis_convention": BASIS_CONVENTION,
        "entries": entries,
    }


def matrix_from_json(doc: dict) -> np.ndarray:
    if doc.get("basis_convention", BASIS_CONVENTION) != BASIS_CONVENTION:
        raise ValueError("unsupported basis convention")
    return np.array([[complex(x[0], x[1]) for x in row] for row in doc["entries"]])


# ---------------------------------------------------------------------------
# second constructions of the slip, the resolvent, the poles, G_inf and the CP onset
# ---------------------------------------------------------------------------

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
    coeff = np.exp(gam * ts) * g_tail(ts, params) + g_dual_of_t(ts, params)
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
