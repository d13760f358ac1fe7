import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from rlmdual.liouville import (
    identity_superop,
    is_cp,
    is_tp,
    parity_superop,
    superadjoint,
    vectorize,
)
from rlmdual.markov import (
    ALWAYS,
    NEVER,
    PoleCollisionError,
    breakdown_locator,
    cp_onset_time,
    heisenberg_stationary_generator,
    semigroup_propagator,
    semigroup_propagator_hat,
    slip_operator,
    slip_propagator,
    slip_propagator_hat,
    stationary_generator,
)
from rlmdual import markov, model
from rlmdual.model import (
    DIVERGES,
    IDENTITY_OP,
    NUMBER_OP,
    PARITY_OP,
    RlmProvider,
    divisibility_max,
)
from rlmdual.scalars import ModelParams, PoleError, k_hat

from oracles import cp_onset_by_scan, heisenberg_via_slip, regularized_slip, residue_slip

TH = ModelParams(0.5, 0.0, 0.25, 1.0)
HOT = ModelParams(0.5, 0.0, 1e4, 1.0)


class TestSemigroup:
    def test_initial_identity(self):
        assert np.abs(semigroup_propagator(0.0, TH) - identity_superop(2)).max() < 1e-14

    def test_stationary_state_exact(self):
        pr = RlmProvider(TH)
        rho_inf = vectorize(pr.stationary_state())
        out = semigroup_propagator(5.0, TH) @ rho_inf
        assert np.abs(out - rho_inf).max() < 1e-9
        exact = pr.propagator(60.0) @ vectorize(np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(exact - rho_inf).max() < 1e-8

    def test_hot_limit_exact(self):
        pr = RlmProvider(HOT)
        for t in (0.5, 2.0):
            assert np.abs(semigroup_propagator(t, HOT) - pr.propagator(t)).max() < 1e-6

    def test_tp_and_cp(self):
        for t in (0.3, 1.0, 6.0):
            p1 = semigroup_propagator(t, TH)
            assert is_tp(p1, 1e-9)
            ok, _ = is_cp(p1, 1e-9)
            assert ok  # stationary rates are positive at these parameters


class TestStacks:
    """Semigroup and slip stacks against scipy's expm of -i G_inf t."""

    THETAS = (TH, ModelParams(-1.3, 0.2, 0.7, -0.4), ModelParams(2.0, 0.0, 0.4, 1.5))

    def test_semigroup_and_slip_against_expm(self):
        ts = np.linspace(0.0, 8.0, 17)
        for th in self.THETAS:
            g_inf = stationary_generator(th)
            slip = slip_operator(th)
            semi = semigroup_propagator(ts, th)
            slipped = slip_propagator(ts, th)
            assert semi.shape == slipped.shape == (17, 4, 4)
            for t, a, b in zip(ts, semi, slipped):
                ref = expm(-1j * g_inf * t)
                assert np.abs(a - ref).max() < 1e-12
                assert np.abs(b - ref @ slip).max() < 1e-12

    def test_stack_entry_equals_float_call(self):
        ts = np.array([0.0, 0.3, 2.0, 11.0])
        semi = semigroup_propagator(ts, TH)
        slipped = slip_propagator(ts, TH)
        for t, a, b in zip(ts, semi, slipped):
            assert np.abs(a - semigroup_propagator(float(t), TH)).max() <= 1e-15
            assert np.abs(b - slip_propagator(float(t), TH)).max() <= 1e-15

    def test_no_matrix_exponential(self, monkeypatch):
        def refuse(_):
            raise AssertionError("expm called")
        monkeypatch.setattr(model, "expm", refuse)
        monkeypatch.setattr(markov, "expm", refuse)
        th = ModelParams(1.0, 0.0, 0.5, 1.0)
        RlmProvider(th).propagator(np.linspace(0.0, 3.0, 4))
        slip_propagator(np.linspace(0.0, 3.0, 4), th)
        assert isinstance(cp_onset_time(th), float)


class TestSlipOperator:
    def test_paths_agree(self):
        # the closed form against the contour residue sum in tests/oracles.py
        s_rs, residues = residue_slip(TH)
        assert np.abs(slip_operator(TH) - s_rs).max() < 1e-6
        assert len(residues) == 4

    def test_trace_preserving(self):
        s = slip_operator(TH)
        assert is_tp(s, 1e-9)

    def test_duality(self):
        pm = parity_superop(PARITY_OP)
        s = slip_operator(TH)
        s_dual = slip_operator(TH.dual())
        assert np.abs(superadjoint(s) - pm @ s_dual @ pm).max() < 1e-8

    def test_far_detuned_slip_shrinks(self):
        base = abs(np.abs(slip_operator(TH) - identity_superop(2)).max())
        far = abs(np.abs(slip_operator(ModelParams(20.0, 0.0, 0.25, 1.0))
                         - identity_superop(2)).max())
        assert far < 0.1 * base

    def test_hot_limit_identity(self):
        s = slip_operator(HOT)
        assert np.abs(s - identity_superop(2)).max() < 1e-3

    def test_pole_collision_rejected(self):
        with pytest.raises(PoleCollisionError):
            slip_operator(ModelParams(0.0, 0.0, 0.25, 1.0))

    def test_far_detuned_eigenvalues_stay_distinct(self):
        # 0 and -i gamma are |gamma| apart whatever eps is; at eps = 2e9 a tolerance
        # scaled by |eps| took them for a collision
        for eps in (2e8, 2e9, 1e12):
            slip = slip_operator(ModelParams(eps, 0.0, 0.25, 1.0))
            assert np.isfinite(slip).all()


class TestSemigroupHat:
    def test_against_inverse(self):
        # the removed inverse path survives here as the oracle
        rng = np.random.default_rng(12)
        e = rng.uniform(-3, 3, 12) + 1j * rng.uniform(-3, 3, 12)
        for th in (TH, ModelParams(1.5, 0.2, 0.5, 1.0), ModelParams(-0.7, 0.2, 1.0, 2.0)):
            g_inf = stationary_generator(th)
            stack = semigroup_propagator_hat(e, th)
            for z, mat in zip(e, stack):
                ref = 1j * np.linalg.inv(z * identity_superop(2) - g_inf)
                assert np.abs(mat - ref).max() <= 1e-12
                assert np.abs(semigroup_propagator_hat(z, th) - ref).max() <= 1e-12

    def test_isolated_poles_raise(self):
        for pole in (0.0, -1j * TH.gamma, TH.epsilon - 0.5j * TH.gamma):
            with pytest.raises(PoleError):
                semigroup_propagator_hat(pole, TH)


class TestSlipPropagator:
    def test_no_semigroup_property(self):
        p = lambda t: slip_propagator(t, TH)
        assert np.abs(p(1.0) @ p(0.5) - p(1.5)).max() > 1e-3

    def test_tp_at_all_times(self):
        for t in (0.0, 0.7, 3.0, 12.0):
            assert is_tp(slip_propagator(t, TH), 1e-9)

    def test_converges_to_stationary(self):
        pr = RlmProvider(TH)
        rho_inf = vectorize(pr.stationary_state())
        one = vectorize(IDENTITY_OP)
        target = np.outer(rho_inf, one.conj())
        assert np.abs(slip_propagator(40.0, TH) - target).max() < 1e-8

    def test_pole_cancellation_rings(self):
        # the slip approximation cancels every isolated pole; the bare
        # semigroup leaves the parity pole at E = -i gamma
        pr = RlmProvider(TH)
        ground = vectorize(np.diag([1.0, 0.0]).astype(complex))

        def ring_err(approx_hat, pole):
            errs = []
            for k in range(16):
                e = pole + 0.05 * TH.gamma * cmath.exp(2j * math.pi * k / 16)
                diff = pr.propagator_hat(e) - approx_hat(e)
                errs.append(abs(ground.conj() @ (diff @ ground)))
            return max(errs)

        poles = (0.0, -1j * TH.gamma, TH.epsilon - 0.5j * TH.gamma,
                 -TH.epsilon - 0.5j * TH.gamma)
        for pole in poles:
            e2 = ring_err(lambda e: slip_propagator_hat(e, TH), pole)
            assert e2 < 5.0  # finite: no pole left
        e1 = ring_err(lambda e: semigroup_propagator_hat(e, TH), -1j * TH.gamma)
        e2 = ring_err(lambda e: slip_propagator_hat(e, TH), -1j * TH.gamma)
        assert e1 / e2 > 10.0
        # shrinking the ring confirms the leftover pole of the bare semigroup
        def ring_err_r(approx_hat, pole, r):
            errs = []
            for k in range(16):
                e = pole + r * cmath.exp(2j * math.pi * k / 16)
                diff = pr.propagator_hat(e) - approx_hat(e)
                errs.append(abs(ground.conj() @ (diff @ ground)))
            return max(errs)
        small = ring_err_r(lambda e: semigroup_propagator_hat(e, TH), -1j * TH.gamma, 0.01)
        big = ring_err_r(lambda e: semigroup_propagator_hat(e, TH), -1j * TH.gamma, 0.05)
        assert small / big > 3.0

    def test_better_late_time_occupation_than_semigroup(self):
        # L2 error over [2, 10]/gamma for the figure parameters gamma = 4T
        th = ModelParams(0.5, 0.0, 0.25, 1.0)
        pr = RlmProvider(th)
        rho0 = vectorize(np.diag([1.0, 0.0]).astype(complex))
        n_vec = vectorize(NUMBER_OP)
        ts = np.linspace(2.0, 10.0, 33)
        err1 = err2 = 0.0
        for t in ts:
            exact = np.real(n_vec.conj() @ (pr.propagator(t) @ rho0))
            occ1 = np.real(n_vec.conj() @ (semigroup_propagator(t, th) @ rho0))
            occ2 = np.real(n_vec.conj() @ (slip_propagator(t, th) @ rho0))
            err1 += (occ1 - exact) ** 2
            err2 += (occ2 - exact) ** 2
        assert err2 < err1


def _onset_cells():
    """(params, t_max, cp_tol) cells: the default markov grid, the 11d and 11e
    regimes, hot cells whose slip is within the floor (ALWAYS), random cells
    and horizons around the onset, which give NEVER."""
    cells = [(ModelParams(d, 0.0, 1.0, g), None, 1e-9)
             for d in np.linspace(0.01, 5.0, 9) for g in np.linspace(1.0, 15.0, 9)]
    cells += [(ModelParams(d, 0.0, 0.5, 1.0), None, 1e-9) for d in (5.0, 10.0, 20.0, 40.0)]
    cells += [(ModelParams(0.01, 0.0, 1.0, 2.0 * math.pi * (1.0 + s * 10.0 ** -k)), 1e3, 1e-9)
              for s in (-1, 1) for k in (1, 2, 3)]
    cells += [(ModelParams(d, 0.0, temp, 1.0), None, tol)
              for d in (0.5, -2.0) for temp in (1e4, 1e6) for tol in (1e-9, 1e-6)]
    rng = np.random.default_rng(19)
    for i in range(240):
        temp = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        th = ModelParams(rng.uniform(-10.0, 10.0) * temp, 0.0, temp,
                         math.exp(rng.uniform(math.log(0.1), math.log(40.0))) * temp)
        tol = (0.0, 1e-9, 1e-6)[i % 3]
        if i % 2:   # a horizon of 0.2 to 3 times the onset
            onset = cp_onset_by_scan(th, cp_tol=tol)
            if isinstance(onset, float):
                cells.append((th, rng.uniform(0.2, 3.0) * onset, tol))
                continue
        cells.append((th, None, tol))
    return cells


class TestCpOnset:
    def test_generic_finite_and_reproducible(self):
        # reproduced by the Choi-eigenvalue scan in tests/oracles.py
        th = ModelParams(1.0, 0.0, 0.5, 1.0)
        a = cp_onset_time(th)
        assert isinstance(a, float) and a > 0
        assert abs(a - cp_onset_by_scan(th)) < 1e-3 / th.temperature

    def test_closed_form_matches_scan(self):
        cells = _onset_cells()
        verdicts = []
        for th, t_max, tol in cells:
            onset = cp_onset_time(th, t_max, tol)
            scan = cp_onset_by_scan(th, t_max, tol)
            verdicts.append(onset if isinstance(onset, str) else "finite")
            if isinstance(onset, str) or isinstance(scan, str):
                assert onset == scan, (th, t_max, tol)
            else:
                assert abs(onset - scan) <= 1e-9 / th.temperature, (th, t_max, tol)
        assert len(cells) >= 300 and verdicts.count(NEVER) >= 20
        assert verdicts.count(ALWAYS) >= 4

    def test_always_when_slip_trivial(self):
        assert cp_onset_time(HOT) == ALWAYS

    def test_never_when_horizon_too_short(self):
        th = ModelParams(1.0, 0.0, 0.5, 1.0)
        onset = cp_onset_time(th)
        assert cp_onset_time(th, t_max=0.5 * onset) == NEVER

    @pytest.mark.parametrize("kwargs", [{"t_max": 0.0}, {"t_max": -5.0}, {"cp_tol": -1.0}])
    def test_bad_input_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cp_onset_time(TH, **kwargs)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            cp_onset_time(ModelParams(0.5, 0.0, 0.25, gamma))


class TestBreakdown:
    def test_peaks_near_odd_multiples(self):
        temp = 1.0
        peaks = breakdown_locator(temp, 0.01 * temp, n_max=2)
        assert len(peaks) == 3
        for n, peak in enumerate(peaks):
            target = (2 * n + 1) * 2.0 * math.pi * temp
            assert abs(peak - target) < 0.01 * target

    def test_peak_amplitude_ratio(self):
        temp = 1.0
        gam = 2.0 * math.pi * temp * (1.0 - 1e-3)
        near = abs(k_hat(-0.5j * gam, ModelParams(0.01, 0.0, temp, gam)))
        ref = abs(k_hat(-0.5j * math.pi * temp,
                        ModelParams(0.01, 0.0, temp, math.pi * temp)))
        assert near / ref > 100.0

    def test_large_detuning_no_peaks(self):
        assert breakdown_locator(1.0, 10.0, n_max=1) == []

    def test_requires_detuning(self):
        with pytest.raises(ValueError):
            breakdown_locator(1.0, 0.0)

    def test_rejects_negative_ladder_depth(self):
        with pytest.raises(ValueError):
            breakdown_locator(1.0, 0.1, n_max=-1)

    @pytest.mark.parametrize("delta, temp", [(0.01, 1.0), (0.1, 0.8), (0.25, 2.0),
                                             (1e-8, 1e-6)])
    def test_peaks_against_mpmath(self, delta, temp):
        # k_hat(-i gamma/2) = (i/pi) D, D = psi(z - i y) - psi(z + i y) with
        # z = 1/2 - x/(4 pi), x = gamma/T, y = delta/(2 pi T); the peak is the
        # root of d ln|D|/dx = -Re(D'/D) / (4 pi)
        mpmath = pytest.importorskip("mpmath")
        peaks = breakdown_locator(temp, delta, n_max=2)
        assert len(peaks) == 3
        with mpmath.workdps(40):
            y = mpmath.mpf(delta) / (2 * mpmath.pi * temp)

            def slope(x):
                z = 0.5 - x / (4 * mpmath.pi)
                d = mpmath.digamma(z - 1j * y) - mpmath.digamma(z + 1j * y)
                return mpmath.re((mpmath.psi(1, z - 1j * y) - mpmath.psi(1, z + 1j * y)) / d)

            for peak in peaks:
                ref = mpmath.findroot(slope, mpmath.mpf(peak / temp))
                assert abs(peak / temp - float(ref)) <= 1e-8


class TestHeisenbergStationary:
    def test_paths_agree_internally(self):
        # the duality construction against [S^-1 G_inf S]^sadj from tests/oracles.py
        for th in (TH, HOT, ModelParams(0.5, 0.0, 1.0 / (3.0 * math.pi), 1.0)):
            gh = heisenberg_stationary_generator(th)
            assert gh.shape == (4, 4)
            defect = np.abs(gh - heisenberg_via_slip(th)).max()
            assert defect <= 1e-7 * max(1.0, abs(th.gamma))

    def test_eigenvalues_shifted_duals(self):
        # spectrum is {i gamma - g_dual_i(inf)} with the dual stationary
        # eigenvalues {0, eta eps + i gamma/2, i gamma}
        gh = heisenberg_stationary_generator(TH)
        w = np.linalg.eigvals(gh)
        duals = [0.0, TH.epsilon + 0.5j * TH.gamma, -TH.epsilon + 0.5j * TH.gamma,
                 1j * TH.gamma]
        for gd in duals:
            target = 1j * TH.gamma - gd
            assert min(abs(w - target)) < 1e-9

    def test_hot_limit_reduces_to_adjoint_relation(self):
        gh = heisenberg_stationary_generator(HOT)
        pm = parity_superop(PARITY_OP)
        g_dual = RlmProvider(HOT.dual()).generator_stationary()
        rhs = 1j * HOT.gamma * identity_superop(2) - pm @ g_dual @ pm
        assert np.abs(gh - rhs).max() < 1e-6

    def test_exists_beyond_threshold(self):
        # for gamma > 2 pi T the dual generator has no long-time limit, yet
        # the fixed stationary object is finite
        th = ModelParams(0.5, 0.0, 1.0 / (3.0 * math.pi), 1.0)
        gh = heisenberg_stationary_generator(th)
        assert np.isfinite(gh).all()


class TestRegularizedSlip:
    """The closed-form slip against the regularized transform in tests/oracles.py."""

    def test_matches_slip_below_threshold(self):
        th = ModelParams(0.5, 0.0, 1.0 / math.pi, 1.0)  # gamma = pi T
        matrix, diverges, _ = regularized_slip(th)
        assert not diverges
        assert np.abs(matrix - slip_operator(th)).max() < 1e-5

    def test_diverges_above_threshold_but_regularized_finite(self):
        th = ModelParams(0.5, 0.0, 1.0 / (3.0 * math.pi), 1.0)  # gamma = 3 pi T
        matrix, diverges, final_norm = regularized_slip(th)
        assert diverges
        assert final_norm > 1e6
        assert np.abs(matrix - slip_operator(th)).max() < 1e-5

    @pytest.mark.parametrize("ratio", [1.0, 3.0])   # gamma / (pi T)
    def test_probe_flag_is_the_dual_divergence_rule(self, ratio):
        th = ModelParams(0.5, 0.0, 1.0 / (ratio * math.pi), 1.0)
        _, diverges, _ = regularized_slip(th)
        bound = divisibility_max("g_dual", th.detuning, th.temperature, th.gamma)
        assert diverges == (bound == DIVERGES)

    def test_hot_limit_identity(self):
        matrix, _, _ = regularized_slip(HOT)
        assert np.abs(matrix - identity_superop(2)).max() < 1e-3
