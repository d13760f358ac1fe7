"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one line ``ACCEPTANCE <n>: <measured>`` before its
assertions, so a verbose run shows the measured numbers alongside pass/fail.

The CP-divisibility criteria (9b, 9d) and the slip CP-onset criteria (11d,
11e) compare the program with oracles computed inside the test: mpmath
quadrature of the defining integral of g, an mpmath sum for the Laplace
transform of k, and a brentq root of the smallest Choi eigenvalue of
exp(-i G_inf t) S.  A time-local generator is CP-divisible iff its canonical
rates gamma/2 (1 -+ g) are non-negative, i.e. iff |g| <= 1 (Rivas, Huelga,
Plenio, PRL 105, 050403 (2010); Hall, Cresser, Li, Andersson, PRA 89, 042120
(2014)).  For gamma > 0 the weight exp(-gamma s/2) 2T/sinh(pi T s) in
g(t) = int_0^t w(s) sin(delta s) ds is positive and decreasing, so the partial
integrals alternate with shrinking size and max_t |g| = |g(pi/|delta|)|.
These four tests need mpmath and skip where it is not installed.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm
from scipy.optimize import brentq

from rlmdual.liouville import (
    canonical_kraus,
    gksl_decompose,
    gksl_decompose_heisenberg,
    identity_superop,
    is_cp,
    parity_superop,
    superadjoint,
    vectorize,
)
from rlmdual.markov import (
    breakdown_locator,
    cp_onset_time,
    semigroup_propagator_hat,
    slip_operator,
    slip_propagator_hat,
    stationary_generator,
)
from rlmdual.model import (
    ANNIHILATOR,
    CREATOR,
    DIVERGES,
    NUMBER_OP,
    PARITY_OP,
    RlmProvider,
    divisibility_max,
)
from rlmdual.scalars import ModelParams, g_stationary, k_hat
from rlmdual.verify import (
    DEFAULT_PARAMS,
    check_fixed_point_stationary,
    check_functional_fixed_point,
    check_kraus_duality,
    perturbed_family,
    rlm_family,
    run_suite,
)

_T0 = time.time()

PARAM_SETS = DEFAULT_PARAMS  # five (detuning, temperature) pairs at gamma = 1
FIG_THETA = ModelParams(0.5, 0.0, 0.25, 1.0)  # gamma = 4 T, detuning = gamma/2


CP_TOL = 1e-9  # Choi floor of the CP-onset criteria, cp_onset_time's default


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text}")


def _mp_g(mpmath, t, delta, temp, gamma):
    """g(t) by mpmath quadrature of int_0^t exp(-gamma s/2) 2T sin(delta s)/sinh(pi T s) ds."""
    return mpmath.quad(lambda s: mpmath.exp(-gamma * s / 2) * 2 * temp
                       * mpmath.sin(delta * s) / mpmath.sinh(mpmath.pi * temp * s), [0, t])


def _mp_slip_coeff(mpmath, th):
    """Slip coefficient c = (k_hat(i gamma/2) - k_hat(-i gamma/2)) / 2 from the Laplace integral.

    Expanding 1/sinh x = 2 sum_n exp(-(2n+1) x) turns int_0^inf exp(-a t) k(t) dt
    into 4T sum_n delta / ((a + (2n+1) pi T)^2 + delta^2).  The sum converges
    for every real a and continues the integral analytically past a = -pi T,
    independently of the digamma closed form behind ``k_hat``.
    """
    delta, temp = th.detuning, th.temperature

    def laplace(a):
        return 4 * temp * mpmath.nsum(
            lambda n: delta / ((a + (2 * n + 1) * mpmath.pi * temp) ** 2 + delta ** 2),
            [0, mpmath.inf], method="euler-maclaurin")

    return float((laplace(th.gamma / 2) - laplace(-th.gamma / 2)) / 2)


def _choi_min(m):
    """Smallest eigenvalue of sum_ij |i><j| (x) m(|i><j|) for a column-stacked 4x4 map.

    Built here rather than through ``is_cp`` so that the onset oracle shares no
    Choi code with the ``cp_onset_time`` criterion it checks.
    """
    units = [np.eye(4)[k].reshape(2, 2, order="F") for k in range(4)]
    choi = sum(np.kron(u, (m @ u.reshape(4, order="F")).reshape(2, 2, order="F"))
               for u in units)
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])


def _brentq_onset(th, t_hi):
    """brentq root on [0, t_hi] of the Choi minimum of exp(-i G_inf t) S at the CP floor."""
    g_inf = stationary_generator(th)
    s = slip_operator(th).matrix
    return brentq(lambda t: _choi_min(expm(-1j * g_inf * t) @ s) + CP_TOL,
                  0.0, t_hi, xtol=1e-12)


def test_01_propagator_duality():
    t0 = time.time()
    pmat = parity_superop(PARITY_OP)
    times = np.linspace(0.0, 10.0, 20)
    worst = 0.0
    for th in PARAM_SETS:
        pr = RlmProvider(th)
        prd = RlmProvider(th.dual())
        for t in times:
            lhs = superadjoint(pr.propagator(t))
            rhs = math.exp(-th.gamma * t) * pmat @ prd.propagator(t) @ pmat
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.time() - t0
    report(1, f"propagator duality max residual {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_02_table_spectra():
    worst = 0.0
    for th in PARAM_SETS[:2]:
        pr = RlmProvider(th)
        for t in np.linspace(0.1, 5.0, 10):
            w_pi = np.linalg.eigvals(pr.propagator(t))
            expected_pi = [1.0,
                           cmath.exp((1j * th.epsilon - 0.5 * th.gamma) * t),
                           cmath.exp((-1j * th.epsilon - 0.5 * th.gamma) * t),
                           math.exp(-th.gamma * t)]
            for e in expected_pi:
                worst = max(worst, min(abs(w_pi - e)))
            w_g = np.linalg.eigvals(pr.generator(t))
            expected_g = [0.0, -th.epsilon - 0.5j * th.gamma,
                          th.epsilon - 0.5j * th.gamma, -1j * th.gamma]
            for e in expected_g:
                worst = max(worst, min(abs(w_g - e)))
    report(2, f"closed-form spectra max deviation {worst:.3e}")
    assert worst < 1e-9


def test_03_kraus_layer():
    family = rlm_family()
    worst_recon = worst_min = worst_sum = worst_pair = 0.0
    for th in PARAM_SETS[:3]:
        pr = RlmProvider(th)
        for t in (0.4, 1.0, 2.5):
            p = pr.propagator(t)
            ks = canonical_kraus(p, PARITY_OP)
            worst_recon = max(worst_recon, float(np.abs(ks.to_superoperator() - p).max()),
                              float(np.abs(pr.kraus_set(t).to_superoperator() - p).max()))
            worst_min = max(worst_min, float(-ks.coefficients.min()))
            worst_sum = max(worst_sum,
                            abs(ks.coefficients.sum() - 2.0),
                            abs((ks.coefficients * ks.parities).sum()
                                - 2.0 * math.exp(-th.gamma * t)))
            rep = check_kraus_duality(family, th, t, 1e-7)
            worst_pair = max(worst_pair, rep.max_residual)
    report(3, f"kraus recon {worst_recon:.2e}, min coeff defect {worst_min:.2e}, "
              f"sums {worst_sum:.2e}, duality {worst_pair:.2e}")
    assert worst_recon < 1e-9
    assert worst_min < 1e-10
    assert worst_sum < 1e-8
    assert worst_pair < 1e-7


def test_04_cp_and_unphysicality():
    worst_eig = 0.0
    worst_p = 0.0
    for th in PARAM_SETS:
        pr = RlmProvider(th)
        for t in (0.2, 0.8, 2.0, 6.0):
            _, mineig = is_cp(pr.propagator(t), 1e-9)
            worst_eig = min(worst_eig, mineig)
            worst_p = max(worst_p, abs(pr.p(t)))
    dual = RlmProvider(FIG_THETA.dual())
    _, dual_eig = is_cp(dual.propagator(1.0), 1e-9)
    report(4, f"min Choi eig {worst_eig:.2e}, max |p| {worst_p:.10f}, "
              f"dual Choi eig {dual_eig:.6f}")
    assert worst_eig >= -1e-9
    assert worst_p <= 1.0 + 1e-9
    assert dual_eig < -0.01
    # frozen value from the closed form with inverted coupling
    assert dual_eig == pytest.approx(-0.9900159549857914, abs=1e-9)


def test_05_stationary_g_consistency():
    # g(inf) is the digamma constant Re k_hat(i gamma/2); the oracle is the
    # Laplace integral of k at a = gamma/2 summed from 1/sinh x = 2 sum e^{-(2n+1)x}
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for th in PARAM_SETS:
        delta, temp = th.detuning, th.temperature
        laplace = 4 * temp * mpmath.nsum(
            lambda n: delta / ((th.gamma / 2 + (2 * n + 1) * mpmath.pi * temp) ** 2
                               + delta ** 2), [0, mpmath.inf], method="euler-maclaurin")
        worst = max(worst, abs(g_stationary(th) - float(laplace)))
        assert g_stationary(th) == k_hat(0.5j * th.gamma, th).real
    report(5, f"g(inf) closed form vs mpmath Laplace sum, worst {worst:.3e}")
    assert worst < 1e-7


def test_06_stationary_fixed_point():
    family = rlm_family()
    worst = 0.0
    for th in PARAM_SETS:
        rep = check_fixed_point_stationary(family, th, 1e-6)
        worst = max(worst, rep.max_residual)
        assert rep.passed, (th, rep.witness)
    report(6, f"stationary fixed point, worst residual over both paths {worst:.3e}")
    assert worst < 1e-6


def test_07_functional_fixed_point_scaling():
    family = rlm_family()
    rep = check_functional_fixed_point(family, FIG_THETA, 2.0, 400, 1e-3)
    ratio = rep.witness["halving_ratio"]
    report(7, f"functional fixed point halving ratio {ratio:.3f} "
              f"(residuals {rep.witness['residual_coarse']:.2e} -> "
              f"{rep.witness['residual_fine']:.2e})")
    assert 3.5 <= ratio <= 4.5


def test_08_jump_layer():
    family = rlm_family()
    worst_sum = worst_ham = worst_rule = worst_heis = 0.0
    for th in PARAM_SETS[:3]:
        pr = RlmProvider(th)
        for t in (0.5, 1.5):
            js = pr.jump_set(t)
            worst_sum = max(worst_sum, abs(js.rates.sum() - th.gamma))
            canon = gksl_decompose(pr.generator(t), PARITY_OP)
            worst_ham = max(worst_ham, float(np.abs(
                canon.effective_hamiltonian - th.epsilon * NUMBER_OP).max()))
            for term in canon.terms:
                overlap = max(abs(np.vdot(term.operator, ANNIHILATOR)),
                              abs(np.vdot(term.operator, CREATOR)))
                worst_ham = max(worst_ham, abs(overlap - 1.0))
            acc = sum(tm.rate * (tm.operator.conj().T @ tm.operator
                                 - tm.parity * tm.operator @ tm.operator.conj().T)
                      for tm in canon.terms)
            worst_rule = max(worst_rule, float(np.abs(acc - th.gamma * np.eye(2)).max()))
            # Heisenberg rates from the duality-built generator
            pmat = parity_superop(PARITY_OP)
            heis_gen = 1j * th.gamma * identity_superop(2) \
                - pmat @ RlmProvider(th.dual()).generator(t) @ pmat
            heis = gksl_decompose_heisenberg(heis_gen, PARITY_OP)
            expected = sorted(0.5 * th.gamma * (1 - eta * pr.g_dual(t))
                              for eta in (1, -1))
            worst_heis = max(worst_heis, float(np.abs(
                np.sort(heis.rates) - expected).max()))
    report(8, f"rate sum {worst_sum:.2e}, H/J recovery {worst_ham:.2e}, "
              f"sum rule {worst_rule:.2e}, Heisenberg rates {worst_heis:.2e}")
    assert worst_sum < 1e-12
    assert worst_ham < 1e-9
    assert worst_rule < 1e-9
    assert worst_heis < 1e-7


def test_09a_divisibility_resonance():
    val = divisibility_max("g", ModelParams(0.7, 0.7, 0.25, 1.0))
    report("9a", f"max|g| at resonance = {val}")
    assert val == 0.0


def test_09b_divisibility_stated_point():
    # The stated point (2 gamma, 0.1 gamma) is CP-divisible: max|g| = g(pi/delta)
    # = 0.9094 < 1.  Lowering T only raises the weight 2T/sinh(pi T s) toward its
    # T = 0 limit 2/(pi s), where the value is still 0.9146 < 1.  The
    # non-CP-divisible side is checked at 4 gamma, past the boundary delta* = 3.20 gamma.
    mpmath = pytest.importorskip("mpmath")
    th = ModelParams(2.0, 0.0, 0.1, 1.0)
    val = divisibility_max("g", th)
    ts = np.linspace(0.0, 80.0, 200001)
    x = np.pi * th.temperature * ts
    k = np.empty_like(ts)
    k[0] = 2 * th.detuning / np.pi
    k[1:] = 2 * th.temperature * np.sin(th.detuning * ts[1:]) / np.sinh(x[1:])
    oracle = np.abs(cumulative_simpson(
        np.exp(-0.5 * th.gamma * ts) * k, x=ts, initial=0.0)).max()
    exact = float(_mp_g(mpmath, math.pi / th.detuning, th.detuning, th.temperature,
                        th.gamma))
    cold = float(mpmath.quad(lambda s: mpmath.exp(-s / 2) * 2 * mpmath.sin(2 * s)
                             / (mpmath.pi * s), [0, mpmath.pi / 2]))
    past = divisibility_max("g", ModelParams(4.0, 0.0, 0.1, 1.0))
    exact_past = float(_mp_g(mpmath, math.pi / 4.0, 4.0, 0.1, 1.0))
    report("9b", f"max|g| at (2,0.1) = {val:.6f} (Simpson {oracle:.6f}, "
                 f"mpmath {exact:.6f}, T->0 bound {cold:.6f}) < 1; "
                 f"at (4,0.1) = {past:.6f} (mpmath {exact_past:.6f}) > 1")
    assert abs(val - oracle) < 1e-4
    assert abs(val - exact) < 1e-4
    assert val < 1.0 and exact < 1.0 and cold < 1.0
    assert abs(past - exact_past) < 1e-4
    assert past > 1.0 and exact_past > 1.0


def test_09c_dual_divergence_rows():
    ys = np.linspace(0.02, 3.0, 121)
    xs = np.linspace(0.0, 3.0, 121)
    rows = [y for y in ys if y < 1.0 / (2.0 * math.pi)]
    flagged = True
    for y in rows:
        for x in xs[1::20]:  # sample columns; the scalar vanishes at x = 0
            val = divisibility_max("g_dual", ModelParams(x, 0.0, y, 1.0))
            flagged = flagged and (val == DIVERGES)
    report("9c", f"{len(rows)} sub-threshold rows all flagged DIVERGES: {flagged}")
    assert flagged


def test_09d_boundary_on_default_grid():
    # In the first two rows of the default grid the max|g| = 1 boundary lies
    # past the edge delta = 3 gamma: max|g| rises monotonically with delta toward
    # (2/pi) Si(pi) = 1.179 but is still 0.992 at 3 gamma.  Each row stays below 1
    # on the grid and, extended at the same step, crosses 1 exactly once, within
    # one step of the mpmath root delta* of g(pi/delta) = 1.
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(0.0, 3.0, 121)
    ys = np.linspace(0.02, 3.0, 121)
    step = xs[1] - xs[0]
    row_xs = np.concatenate((xs, xs[-1] + step * np.arange(1, 21)))
    rows = []
    for y in ys[:2]:
        vals = np.array([divisibility_max("g", ModelParams(x, 0.0, y, 1.0))
                         for x in row_xs])
        flips = np.flatnonzero(np.diff(np.sign(vals - 1.0)))
        star = float(mpmath.findroot(
            lambda d: _mp_g(mpmath, mpmath.pi / d, d, y, 1.0) - 1, 3.15))
        rows.append((y, vals, flips, star))
    report("9d", "; ".join(
        f"T={y:.4f}: max|g|(3) = {vals[len(xs) - 1]:.5f}, crossings at "
        f"{[f'{row_xs[i]:.3f}-{row_xs[i + 1]:.3f}' for i in flips]} vs mpmath {star:.5f}"
        for y, vals, flips, star in rows))
    for _, vals, flips, star in rows:
        on_grid = vals[:len(xs)]
        assert np.all(np.diff(on_grid) >= 0.0)
        assert on_grid.max() < 1.0
        assert star > xs[-1]
        assert len(flips) == 1 and flips[0] >= len(xs) - 1
        assert abs(0.5 * (row_xs[flips[0]] + row_xs[flips[0] + 1]) - star) < step


def test_10_frequency_layer():
    pr = RlmProvider(FIG_THETA)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        e = complex(rng.uniform(-3, 3), rng.uniform(0.15, 2.5))
        worst = max(worst, float(np.abs(pr.resolvent_hat(e)
                                        - pr.propagator_hat(e)).max()))
    slip = slip_operator(FIG_THETA)
    ground = vectorize(np.diag([1.0, 0.0]).astype(complex))

    def ring_err(theta, f, pole):
        provider = RlmProvider(theta)
        errs = []
        for k in range(24):
            e = pole + 0.05 * theta.gamma * cmath.exp(2j * math.pi * (k + 0.3) / 24)
            diff = provider.propagator_hat(e) - f(e)
            errs.append(abs(ground.conj() @ (diff @ ground)))
        return max(errs)

    poles = (0.0, -1j, FIG_THETA.epsilon - 0.5j, -FIG_THETA.epsilon - 0.5j)
    slip_errs = [ring_err(FIG_THETA,
                          lambda e: slip_propagator_hat(e, FIG_THETA, slip=slip), p)
                 for p in poles]
    # ring-ratio clause at a parameter point in the hot, smooth-kernel regime
    th_ratio = ModelParams(0.5, 0.0, 3.0, 1.0)
    slip_r = slip_operator(th_ratio)
    e1 = ring_err(th_ratio, lambda e: semigroup_propagator_hat(e, th_ratio), -1j)
    e2 = ring_err(th_ratio,
                  lambda e: slip_propagator_hat(e, th_ratio, slip=slip_r), -1j)
    report(10, f"resolvent agreement {worst:.3e}; slip ring errors "
               f"{[f'{x:.2f}' for x in slip_errs]}; ratio {e1 / e2:.1f}")
    assert worst < 1e-8
    assert all(np.isfinite(slip_errs)) and max(slip_errs) < 10.0
    assert e1 / e2 > 1e2


def test_11a_slip_paths_agree():
    worst = 0.0
    for th in PARAM_SETS:
        a = slip_operator(th, method="closed-form").matrix
        b = slip_operator(th, method="residue-sum").matrix
        worst = max(worst, float(np.abs(a - b).max()))
    report("11a", f"residue-sum vs closed-form slip, worst {worst:.3e}")
    assert worst < 1e-6


def test_11b_slip_duality():
    pmat = parity_superop(PARITY_OP)
    worst = 0.0
    for th in PARAM_SETS:
        s = slip_operator(th).matrix
        sd = slip_operator(th.dual()).matrix
        worst = max(worst, float(np.abs(superadjoint(s) - pmat @ sd @ pmat).max()))
    report("11b", f"slip duality, worst {worst:.3e}")
    assert worst < 1e-8


def test_11c_breakdown_peaks():
    temp = 1.0
    peaks = breakdown_locator(temp, 0.01 * temp, n_max=2)
    targets = [(2 * n + 1) * 2.0 * math.pi * temp for n in range(3)]
    rel = [abs(p - t) / t for p, t in zip(peaks, targets)]
    report("11c", f"breakdown peaks {[f'{p:.4f}' for p in peaks]} vs "
                  f"{[f'{t:.4f}' for t in targets]}, rel dev {max(rel):.2e}")
    assert len(peaks) == 3
    assert max(rel) < 0.01


def test_11d_cp_onset_far_detuned():
    # The slip S = 1 + c |parity>><<1| is not CP at t = 0: its smallest Choi
    # eigenvalue is c = (k_hat(i gamma/2) - k_hat(-i gamma/2))/2 itself, -0.0159
    # at 20 gamma, so ALWAYS cannot hold.  The onset is finite, equals |c|/gamma
    # (to 1e-4 relative) and falls toward 0 like 1/detuning.
    mpmath = pytest.importorskip("mpmath")
    temp, gam = 0.5, 1.0
    tol = 1e-3 / temp
    rows = []
    for delta in (5.0, 10.0, 20.0, 40.0):
        th = ModelParams(delta, 0.0, temp, gam)
        c = _mp_slip_coeff(mpmath, th)
        onset = cp_onset_time(th, cp_tol=CP_TOL, bisect_tol=tol)
        root = _brentq_onset(th, 2.0 * abs(c) / gam)
        rows.append((delta, c, _choi_min(slip_operator(th).matrix), onset, root))
    report("11d", "; ".join(
        f"delta={d:g}: onset {on:.5f} vs brentq {r:.5f}, |c|/gamma {abs(c) / gam:.5f}"
        for d, c, _, on, r in rows))
    for _, c, s_min, onset, root in rows:
        assert abs(s_min - c) < 1e-12
        assert isinstance(onset, float)
        assert abs(onset - root) <= tol
        assert abs(onset - abs(c) / gam) <= tol
    onsets = [row[3] for row in rows]
    assert all(a > b for a, b in zip(onsets, onsets[1:]))


def test_11e_cp_onset_near_breakdown():
    # Next to gamma = 2 pi T the slip coefficient c is large but finite: for
    # detuning != 0, k_hat(-i gamma/2) has no pole on the real gamma axis, and
    # |c| is about 2T/detuning = 200 (182.03 at 1 - 1e-3).  The defect
    # c exp(-gamma t) must decay below the stationary occupations, about 1/2,
    # so the onset is ln(2|c|)/gamma = 0.94/T.  It grows only logarithmically
    # toward the breakdown; exceeding 1e3/T would need detuning < 4T exp(-2000 pi).
    mpmath = pytest.importorskip("mpmath")
    temp = 1.0
    tol = 1e-3 / temp

    def onset_at(factor):
        th = ModelParams(0.01 * temp, 0.0, temp, 2.0 * math.pi * temp * factor)
        return th, cp_onset_time(th, t_max=1e3 / temp, cp_tol=CP_TOL, bisect_tol=tol)

    ladders = {side: [onset_at(1.0 + side * 10.0 ** -k) for k in (1, 2, 3)]
               for side in (-1, 1)}
    near = []
    for ladder in ladders.values():
        th, onset = ladder[-1]
        c = _mp_slip_coeff(mpmath, th)
        predicted = math.log(2.0 * abs(c)) / th.gamma
        root = _brentq_onset(th, 2.0 * predicted)
        near.append((th, c, onset, predicted, root))
    report("11e", "; ".join(
        f"gamma={th.gamma:.5f}: |c| {abs(c):.3f}, onset {on:.5f} vs ln(2|c|)/gamma "
        f"{pr:.5f}, brentq {r:.5f}" for th, c, on, pr, r in near)
        + "; onsets at 1 -+ 1e-1, 1e-2, 1e-3: "
        + ", ".join(f"{'+' if side > 0 else '-'} {[f'{x:.4f}' for _, x in ladder]}"
                    for side, ladder in ladders.items()))
    for th, c, onset, predicted, root in near:
        assert abs(slip_operator(th).matrix[0, 3] - c) <= 1e-12 * abs(c)
        assert isinstance(onset, float)
        assert abs(onset - predicted) <= tol
        assert abs(onset - root) <= tol
    for ladder in ladders.values():
        onsets = [x for _, x in ladder]
        assert all(isinstance(x, float) for x in onsets)
        assert onsets[0] < onsets[1] < onsets[2]


def test_12_current_against_finite_differences():
    pr = RlmProvider(FIG_THETA)
    h = 1e-4
    states = [np.diag([1.0, 0.0]), np.diag([0.3, 0.7]),
              np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])]
    worst = 0.0
    for rho0 in states:
        rho0 = np.asarray(rho0, dtype=complex)
        for t in np.linspace(0.05, 4.0, 20):
            fd = (pr.occupation(t + h, rho0) - pr.occupation(t - h, rho0)) / (2 * h)
            worst = max(worst, abs(pr.current(t, rho0) - fd))
    report(12, f"closed-form current vs finite differences, worst {worst:.3e}")
    assert worst < 1e-6


def test_13_mutation_guard():
    family = rlm_family()
    reports = run_suite(perturbed_family(family, 1.01),
                        params_list=PARAM_SETS[:2])
    surviving = [r.relation_id for r in reports if r.passed]
    report(13, f"{len(reports)} perturbed reports, still passing: {surviving}")
    assert not surviving


def test_14_wall_clock():
    elapsed = time.time() - _T0
    report(14, f"acceptance module wall clock {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300.0
