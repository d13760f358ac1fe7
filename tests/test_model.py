import cmath
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm

from rlmdual.liouville import (
    canonical_kraus,
    commutator_superop,
    dissipator,
    devectorize,
    gksl_decompose,
    identity_superop,
    is_cp,
    is_parity_covariant,
    spectral_decompose,
    superadjoint,
    vectorize,
)
from rlmdual import model, scalars
from rlmdual.model import (
    ANNIHILATOR,
    CREATOR,
    DIVERGES,
    IDENTITY_OP,
    NUMBER_OP,
    PARITY_OP,
    RlmProvider,
    divisibility_max,
    pole_catalog,
)
from rlmdual.scalars import ModelParams, PoleError, g_dual_of_t, g_of_t, k_hat

from oracles import (
    dyson_resolvent,
    generator_spectral,
    heisenberg_jump_rates,
    is_tp,
    jump_set,
    kraus_set,
    pole_growth,
    propagator_spectral,
    stationary_state,
)

TH = ModelParams(0.5, 0.0, 0.25, 1.0)
HOT = ModelParams(0.5, 0.0, 1e4, 1.0)

GRID = [
    (ModelParams(0.5, 0.0, 0.25, 1.0), (0.3, 1.0, 2.5)),
    (ModelParams(1.5, 0.2, 0.5, 1.0), (0.5, 2.0)),
    (ModelParams(0.8, -0.3, 1.0, 2.0), (0.4, 1.2)),
]


class TestPropagator:
    def test_initial_identity(self):
        assert np.array_equal(RlmProvider(TH).propagator(0.0), identity_superop(2))

    def test_parity_eigenmode(self):
        pr = RlmProvider(TH)
        v = vectorize(PARITY_OP)
        for t in (0.2, 1.0, 4.0):
            out = pr.propagator(t) @ v
            assert np.abs(out - math.exp(-TH.gamma * t) * v).max() < 1e-12

    def test_spectrum_closed_form(self):
        pr = RlmProvider(TH)
        t = 1.0
        w = np.sort_complex(np.linalg.eigvals(pr.propagator(t)))
        expected = np.sort_complex(np.array([
            1.0,
            cmath.exp((1j * TH.epsilon - 0.5) * t),
            cmath.exp((-1j * TH.epsilon - 0.5) * t),
            math.exp(-t),
        ]))
        assert np.abs(w - expected).max() < 1e-12

    def test_tp_cp(self):
        for th, times in GRID:
            pr = RlmProvider(th)
            for t in times:
                p = pr.propagator(t)
                assert is_tp(p, 1e-12)
                ok, mineig = is_cp(p, 1e-9)
                assert ok, mineig
                assert is_parity_covariant(p, PARITY_OP, 1e-12)

    def test_three_representations_agree(self):
        for th, times in GRID:
            pr = RlmProvider(th)
            for t in times:
                a = pr.propagator(t)
                b = propagator_spectral(pr, t).to_superoperator()
                c = kraus_set(pr, t).to_superoperator()
                assert np.abs(a - b).max() < 1e-9
                assert np.abs(a - c).max() < 1e-9

    def test_spectral_closed_form_vs_numeric(self):
        pr = RlmProvider(TH)
        t = 0.8
        closed = propagator_spectral(pr, t)
        numeric = spectral_decompose(pr.propagator(t))
        for mode in numeric.modes:
            partner = min(closed.modes, key=lambda m: abs(m.value - mode.value))
            assert abs(partner.value - mode.value) < 1e-10
            proj_n = np.outer(vectorize(mode.right), vectorize(mode.left).conj())
            proj_c = np.outer(vectorize(partner.right), vectorize(partner.left).conj())
            assert np.abs(proj_n - proj_c).max() < 1e-9

    def test_fixed_point_at_resonance(self):
        pr = RlmProvider(ModelParams(0.3, 0.3, 0.5, 1.0))
        mode = propagator_spectral(pr, 1.0).modes[0]
        assert np.abs(mode.right - 0.5 * IDENTITY_OP).max() < 1e-12

    def test_left_eigenvector_of_unit_eigenvalue_is_trace(self):
        mode = propagator_spectral(RlmProvider(TH), 0.7).modes[0]
        assert np.abs(mode.left - IDENTITY_OP).max() < 1e-12

    def test_reentrance(self):
        # preparing the time-t_r fixed point recovers it exactly at t_r
        pr = RlmProvider(TH)
        t_r = 1.3
        rho0 = propagator_spectral(pr, t_r).modes[0].right
        out = devectorize(pr.propagator(t_r) @ vectorize(rho0))
        assert np.abs(out - rho0).max() < 1e-8

    def test_not_a_semigroup(self):
        pr = RlmProvider(TH)
        gap = pr.propagator(2.0) - pr.propagator(1.2) @ pr.propagator(0.8)
        assert np.abs(gap).max() > 1e-3

    def test_semigroup_limit_hot(self):
        pr = RlmProvider(HOT)
        gap = pr.propagator(2.0) - pr.propagator(1.2) @ pr.propagator(0.8)
        assert np.abs(gap).max() < 1e-6
        gen = pr.generator(1.0)
        assert np.abs(pr.propagator(1.0) - expm(-1j * gen)).max() < 1e-6

    def test_time_local_qme_residual(self):
        # dPi/dt + i G(t) Pi(t) = 0, fourth-order centered differences
        pr = RlmProvider(TH)
        h = 1e-3
        for t in (0.5, 1.5):
            d = (-pr.propagator(t + 2 * h) + 8 * pr.propagator(t + h)
                 - 8 * pr.propagator(t - h) + pr.propagator(t - 2 * h)) / (12 * h)
            resid = d + 1j * pr.generator(t) @ pr.propagator(t)
            assert np.abs(resid).max() < 1e-6

    def test_time_nonlocal_qme_residual(self):
        # dPi/dt + i (K * Pi)(t) = 0 with the delta part applied analytically
        pr = RlmProvider(TH)
        t = 1.5
        h = 1e-3
        d = (-pr.propagator(t + 2 * h) + 8 * pr.propagator(t + h)
             - 8 * pr.propagator(t - h) + pr.propagator(t - 2 * h)) / (12 * h)
        ss = np.linspace(0.0, t, 401)
        vals = np.array([pr.kernel_smooth(s) @ pr.propagator(t - s) for s in ss])
        conv = np.trapezoid(vals, x=ss, axis=0)
        resid = d + 1j * (pr.kernel_delta() @ pr.propagator(t) + conv)
        assert np.abs(resid).max() < 1e-5


@pytest.mark.parametrize("method, t", [
    *(pytest.param(getattr(RlmProvider, m), -1.0, id=m) for m in (
        "generator", "generator_gflip", "propagator", "kernel_smooth")),
    # the closed forms in tests/oracles.py take the provider and the time
    *(pytest.param(f, -1.0, id=f.__name__) for f in (
        jump_set, heisenberg_jump_rates, propagator_spectral, generator_spectral, kraus_set)),
    *(pytest.param(getattr(RlmProvider, m), np.array([0.5, -0.1]), id=f"{m}-array") for m in (
        "propagator", "generator", "generator_gflip", "kernel_smooth")),
])
def test_negative_time_rejected(method, t):
    with pytest.raises(ValueError, match="nonnegative"):
        method(RlmProvider(TH), t)


class TestPropagatorStack:
    """Closed-form mode sums against scipy's expm of the same exponent."""

    def exponent(self, th, t, p):
        diss_plus, diss_minus = dissipator(CREATOR), dissipator(ANNIHILATOR)
        liouvillian = commutator_superop(th.epsilon * NUMBER_OP)
        return -1j * t * liouvillian + 0.5 * th.gamma * t * (
            diss_plus + diss_minus - p * (diss_plus - diss_minus))

    def test_stack_against_expm(self):
        for th in (TH, ModelParams(-1.3, 0.2, 0.7, -0.4), ModelParams(2.0, 0.0, 0.1, 3.0)):
            pr = RlmProvider(th)
            ts = np.linspace(0.0, 6.0, 13)
            stack = pr.propagator(ts)
            assert stack.shape == (13, 4, 4)
            for t, mat in zip(ts, stack):
                ref = expm(self.exponent(th, t, pr.p(float(t))))
                assert np.abs(mat - ref).max() < 1e-12

    @pytest.mark.parametrize("th", [TH, TH.dual()], ids=["theta", "dual"])
    @pytest.mark.parametrize("method, points", [
        *(pytest.param(m, np.array([0.0, 0.05, 0.7, 3.1, 9.0]), id=m)
          for m in ("propagator", "generator", "generator_gflip", "kernel_smooth")),
        *(pytest.param(m, np.array([0.4j, 1.0 + 0.7j, -0.6 + 1.5j, 2.0j, 0.3 - 0.2j]), id=m)
          for m in ("propagator_hat", "memory_kernel_hat")),
    ])
    def test_stack_entry_equals_float_call(self, method, points, th):
        # one contract: a 1-D array gives the stack of the float calls
        stack = getattr(RlmProvider(th), method)(points)
        assert stack.shape == (len(points), 4, 4)
        for x, mat in zip(points, stack):
            assert np.abs(mat - getattr(RlmProvider(th), method)(x.item())).max() <= 1e-15

    def test_g_and_p_from_one_call(self, monkeypatch):
        calls = {"g_and_p": [], "g_of_t": [], "g_dual_of_t": []}
        for name in calls:
            # model does not import g_dual_of_t: a call would come through scalars
            home = scalars if name == "g_dual_of_t" else model
            monkeypatch.setattr(home, name,
                                lambda t, th, name=name, real=getattr(home, name):
                                calls[name].append(t) or real(t, th))
        pr = RlmProvider(TH)
        ts = np.linspace(0.0, 5.0, 11)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        pr.occupation(ts, rho0)     # p(ts) computes g(ts) with it
        pr.current(ts, rho0)        # served from the memo
        pr.current(0.4, rho0)
        pr.p(0.4)
        assert len(calls["g_and_p"]) == 2
        assert calls["g_of_t"] == []
        assert calls["g_dual_of_t"] == []   # p takes e^{-gamma t} g_dual(t) from g's exponentials

    @pytest.mark.parametrize("th", [TH, TH.dual(), ModelParams(0.7, 0.2, 1e-3, 0.5)],
                             ids=["theta", "dual", "low_T"])
    def test_memoized_g_from_p_is_g_of_t(self, th):
        # both sides of 2 pi T t = 1/2 and of |gamma t| = 0.3, bit for bit
        ts = np.array([0.0, 0.01, 0.3, 0.6, 0.64, 2.0, 9.0, 200.0])
        pr = RlmProvider(th)
        pr.p(ts)
        assert np.array_equal(pr.g(ts), g_of_t(ts, th))
        pr.p(0.64)
        assert pr.g(0.64) == g_of_t(0.64, th)


class TestKrausSet:
    def test_initial_weights(self):
        ks = kraus_set(RlmProvider(TH), 0.0)
        coeffs = {(round(t.coefficient, 12), t.parity) for t in ks.terms}
        assert (2.0, 1) in coeffs
        assert all(abs(t.coefficient) < 1e-12 for t in ks.terms if t.parity == -1)
        top = max(ks.terms, key=lambda t: t.coefficient)
        assert np.abs(top.operator - IDENTITY_OP / math.sqrt(2)).max() < 1e-12

    def test_sum_rules(self):
        for th, times in GRID:
            pr = RlmProvider(th)
            for t in times:
                ks = kraus_set(pr, t)
                assert ks.coefficients.sum() == pytest.approx(2.0, abs=1e-10)
                assert (ks.coefficients * ks.parities).sum() == pytest.approx(
                    2.0 * math.exp(-th.gamma * t), abs=1e-10)

    def test_canonical_layer_matches_closed_forms(self):
        pr = RlmProvider(TH)
        for t in (0.4, 1.0, 3.0):
            canon = canonical_kraus(pr.propagator(t), PARITY_OP)
            closed = kraus_set(pr, t)
            assert np.abs(np.sort(canon.coefficients)
                          - np.sort(closed.coefficients)).max() < 1e-9

    def test_orthonormal_definite_parity(self):
        ks = kraus_set(RlmProvider(TH), 0.9)
        ops = [t.operator for t in ks.terms]
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        assert np.abs(gram - np.eye(4)).max() < 1e-12
        for t in ks.terms:
            assert np.abs(PARITY_OP @ t.operator @ PARITY_OP
                          - t.parity * t.operator).max() < 1e-12


class TestGenerator:
    def test_spectrum(self):
        pr = RlmProvider(TH)
        w = np.linalg.eigvals(pr.generator(0.7))
        expect = {0.0, -TH.epsilon - 0.5j, TH.epsilon - 0.5j, -1.0j}
        for e in expect:
            assert min(abs(w - e)) < 1e-12

    def test_parity_action(self):
        pr = RlmProvider(TH)
        v = vectorize(PARITY_OP)
        out = pr.generator(1.1) @ v
        assert np.abs(out - (-1j * TH.gamma) * v).max() < 1e-12

    def test_hot_limit_time_constant(self):
        pr = RlmProvider(HOT)
        assert np.abs(pr.generator(0.3) - pr.generator(3.0)).max() < 1e-6

    def test_spectral_closed_form_vs_numeric(self):
        pr = RlmProvider(TH)
        t = 1.2
        closed = generator_spectral(pr, t)
        assert np.abs(closed.to_superoperator() - pr.generator(t)).max() < 1e-12
        numeric = spectral_decompose(pr.generator(t))
        for mode in numeric.modes:
            partner = min(closed.modes, key=lambda m: abs(m.value - mode.value))
            assert abs(partner.value - mode.value) < 1e-10
            proj_n = np.outer(vectorize(mode.right), vectorize(mode.left).conj())
            proj_c = np.outer(vectorize(partner.right), vectorize(partner.left).conj())
            assert np.abs(proj_n - proj_c).max() < 1e-9

    def test_gksl_layer(self):
        pr = RlmProvider(TH)
        t = 0.9
        js = gksl_decompose(pr.generator(t), PARITY_OP)
        assert np.abs(js.effective_hamiltonian - TH.epsilon * NUMBER_OP).max() < 1e-9
        expected = sorted(0.5 * TH.gamma * (1 - eta * pr.g(t)) for eta in (1, -1))
        assert sorted(js.rates) == pytest.approx(expected, abs=1e-9)
        for term in js.terms:
            overlap = max(abs(np.vdot(term.operator, ANNIHILATOR)),
                          abs(np.vdot(term.operator, CREATOR)))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_jump_sum_rule(self):
        pr = RlmProvider(TH)
        js = gksl_decompose(pr.generator(1.3), PARITY_OP)
        acc = sum(t.rate * (t.operator.conj().T @ t.operator
                            - t.parity * t.operator @ t.operator.conj().T)
                  for t in js.terms)
        assert np.abs(acc - TH.gamma * np.eye(2)).max() < 1e-9

    def test_initial_generator_is_kernel_delta(self):
        pr = RlmProvider(TH)
        assert np.array_equal(pr.generator(0.0), pr.kernel_delta())

    def test_gflip_relation(self):
        # G^sadj = i gamma 1 + P G|_{g -> -g} P (model-specific)
        pr = RlmProvider(TH)
        pin = np.kron(np.eye(2), PARITY_OP)
        for t in (0.4, 2.0):
            lhs = superadjoint(pr.generator(t))
            rhs = 1j * TH.gamma * identity_superop(2) + pin @ pr.generator_gflip(t) @ pin
            assert np.abs(lhs - rhs).max() < 1e-12


class TestJumpSet:
    def test_resonance_rates(self):
        pr = RlmProvider(ModelParams(0.2, 0.2, 0.4, 1.0))
        js = jump_set(pr, 1.7)
        assert np.allclose(js.rates, 0.5)

    def test_rate_sum_is_coupling(self):
        for th, times in GRID:
            pr = RlmProvider(th)
            for t in times:
                assert jump_set(pr, t).rates.sum() == pytest.approx(th.gamma, abs=1e-12)

    def test_matches_gksl_up_to_gauge(self):
        pr = RlmProvider(TH)
        t = 1.1
        js = jump_set(pr, t)
        canon = gksl_decompose(pr.generator(t), PARITY_OP)
        assert sorted(js.rates) == pytest.approx(sorted(canon.rates), abs=1e-9)
        assert np.abs(js.generator() - canon.generator()).max() < 1e-9

    def test_heisenberg_rates(self):
        pr = RlmProvider(TH)
        t = 0.6
        jp, jm = heisenberg_jump_rates(pr, t)
        gd = g_dual_of_t(t, TH)
        assert jp == pytest.approx(0.5 * TH.gamma * (1 - gd), abs=1e-12)
        assert jm == pytest.approx(0.5 * TH.gamma * (1 + gd), abs=1e-12)


class TestMemoryKernel:
    def test_tp_row(self):
        pr = RlmProvider(TH)
        one = vectorize(IDENTITY_OP)
        for e in (0.3 + 0.9j, 1j, -1.2 + 2.0j):
            assert np.abs(pr.memory_kernel_hat(e).conj().T @ one).max() < 1e-12

    def test_hot_limit_frequency_independent(self):
        pr = RlmProvider(HOT)
        a = pr.memory_kernel_hat(0.5j)
        b = pr.memory_kernel_hat(2.0 + 3.0j)
        assert np.abs(a - b).max() < 1e-6

    def test_resolvent_matches_closed_form(self):
        pr = RlmProvider(TH)
        for e in (1j, 0.7 + 0.4j, -1.1 + 1.6j, 3.0 + 0.2j):
            assert np.abs(dyson_resolvent(TH, e) - pr.propagator_hat(e)).max() < 1e-10


class TestPropagatorHat:
    def test_numeric_laplace_oracle(self):
        # transform of the exponential-form propagator at Im E = 2 gamma;
        # the integrand decays like exp(-2 gamma t), truncation below 1e-10
        pr = RlmProvider(TH)
        e = 0.4 + 2j * TH.gamma
        ts = np.linspace(0.0, 12.0, 2401)
        mats = np.array([np.exp(1j * e * t) * pr.propagator(t) for t in ts])
        from scipy.integrate import simpson
        numeric = simpson(mats, x=ts, axis=0)
        assert np.abs(numeric - pr.propagator_hat(e)).max() < 1e-7

    def test_residue_at_parity_pole(self):
        # -i Res at E = -i gamma equals |parity> (<parity| - k_hat(-i gamma/2) <1|)/2
        pr = RlmProvider(TH)
        pole = -1j * TH.gamma
        r = 1e-3
        acc = np.zeros((4, 4), dtype=complex)
        n = 32
        for k in range(n):
            z = r * cmath.exp(2j * math.pi * k / n)
            acc += pr.propagator_hat(pole + z) * z
        res = -1j * acc / n
        kh = k_hat(-0.5j * TH.gamma, TH)
        vp = vectorize(PARITY_OP)
        vo = vectorize(IDENTITY_OP)
        expected = 0.5 * np.outer(vp, vp.conj() - kh * vo.conj())
        assert np.abs(res - expected).max() < 1e-8

    def test_pole_visibility_in_matrix_element(self):
        # |<0|Pi_hat|0>| grows near the poles at 0 and -i gamma
        pr = RlmProvider(TH)
        ground = vectorize(np.diag([1.0, 0.0]).astype(complex))

        def elem(e):
            return abs(ground.conj() @ (pr.propagator_hat(e) @ ground))

        for pole in (0.0, -1j * TH.gamma):
            assert elem(pole + 1e-3) / elem(pole + 0.3) > 50

    def test_far_field_decay(self):
        pr = RlmProvider(TH)
        a = np.abs(pr.propagator_hat(10.0j)).max()
        b = np.abs(pr.propagator_hat(20.0j)).max()
        assert a / b == pytest.approx(2.0, rel=0.2)

    def test_array_equals_scalar_calls(self):
        # the stack goes through one matmul, so entries agree to rounding
        rng = np.random.default_rng(11)
        e = rng.uniform(-3, 3, (3, 6)) + 1j * rng.uniform(-3, 3, (3, 6))
        for th, _ in GRID:
            pr = RlmProvider(th)
            stack = pr.propagator_hat(e)
            assert stack.shape == e.shape + (4, 4)
            for i in np.ndindex(e.shape):
                single = pr.propagator_hat(complex(e[i]))
                assert np.abs(stack[i] - single).max() <= 1e-15 * np.abs(single).max()

    def test_isolated_poles_raise(self):
        pr = RlmProvider(TH)
        for pole in pole_catalog(TH).isolated:
            with pytest.raises(PoleError):
                pr.propagator_hat(pole)
            with pytest.raises(PoleError):
                pr.propagator_hat(np.array([0.3 + 1j, pole]))

    def test_mode_hat_is_the_transform_of_mode_stack(self):
        # Simpson transform of the mode sum at Im E = 2 gamma, any parity scalar
        e, s = 0.4 + 2j * TH.gamma, 0.37 - 0.2j
        ts = np.linspace(0.0, 12.0, 2401)
        from scipy.integrate import simpson
        numeric = simpson(np.exp(1j * e * ts)[:, None, None] * model.mode_stack(ts, TH, s),
                          x=ts, axis=0)
        assert np.abs(numeric - model.mode_hat(e, TH, s)).max() < 1e-7


class TestObservables:
    def test_current_closed_form_ground_state(self):
        pr = RlmProvider(TH)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        for t in (0.3, 1.0):
            expected = 0.5 * TH.gamma * math.exp(-TH.gamma * t) * (g_dual_of_t(t, TH) + 1.0)
            assert pr.current(t, rho0) == pytest.approx(expected, abs=1e-12)

    def test_current_matches_occupation_derivative(self):
        pr = RlmProvider(TH)
        h = 1e-4
        states = [np.diag([1.0, 0.0]), np.diag([0.2, 0.8]),
                  np.array([[0.5, 0.3], [0.3, 0.5]])]
        for rho0 in states:
            rho0 = rho0.astype(complex)
            for t in np.linspace(0.05, 3.0, 20):
                fd = (pr.occupation(t + h, rho0) - pr.occupation(t - h, rho0)) / (2 * h)
                assert abs(pr.current(t, rho0) - fd) < 1e-6

    def test_stationary_current_vanishes(self):
        pr = RlmProvider(TH)
        rho_inf = stationary_state(TH)
        assert abs(pr.current(25.0, rho_inf)) < 1e-9
        occ = pr.occupation(30.0, np.diag([1.0, 0.0]).astype(complex))
        assert occ == pytest.approx(np.trace(NUMBER_OP @ rho_inf).real, abs=1e-8)

    def test_invalid_state_rejected(self):
        pr = RlmProvider(TH)
        with pytest.raises(ValueError):
            pr.occupation(1.0, np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            pr.occupation(1.0, 2.0 * np.eye(2))


class TestDivisibility:
    def test_resonance_zero(self):
        th = ModelParams(0.4, 0.4, 0.1, 1.0)
        assert divisibility_max("g", th.detuning, th.temperature, th.gamma) == 0.0
        assert divisibility_max("g_dual", th.detuning, th.temperature, th.gamma) == 0.0

    def test_scan_against_fine_oracle(self):
        th = ModelParams(2.0, 0.0, 0.1, 1.0)
        ts = np.linspace(0.0, 80.0, 200001)
        x = np.pi * th.temperature * ts
        k = np.empty_like(ts)
        k[0] = 2 * th.detuning / np.pi
        k[1:] = 2 * th.temperature * np.sin(th.detuning * ts[1:]) / np.sinh(x[1:])
        g = cumulative_simpson(np.exp(-0.5 * th.gamma * ts) * k, x=ts, initial=0.0)
        oracle = np.abs(g).max()
        val = divisibility_max("g", th.detuning, th.temperature, th.gamma)
        assert val == pytest.approx(oracle, abs=1e-5)

    def test_non_divisible_region_exists(self):
        # far off resonance at low temperature the maximum must exceed one
        assert divisibility_max("g", 5.0, 0.05, 1.0) > 1.0

    def test_dual_divergence_below_threshold(self):
        th = ModelParams(0.5, 0.0, 0.1, 1.0)  # T < gamma / (2 pi)
        assert divisibility_max("g_dual", 0.5, 0.1, 1.0) == DIVERGES
        # the dual point itself has gamma < -2 pi T, and its g does grow
        assert divisibility_max("g", -0.5, 0.1, -1.0) == DIVERGES
        ts = np.linspace(0.0, 100.0, 2001)
        assert np.abs(model.g_of_t(ts, th.dual())).max() > 1e6

    def test_dual_bounded_above_threshold(self):
        th = ModelParams(0.5, 0.0, 0.3, 1.0)
        val = divisibility_max("g_dual", th.detuning, th.temperature, th.gamma)
        assert math.isfinite(val)

    def test_bounds_g_at_random_times(self):
        # both signs of gamma down to the edge gamma = -2 pi T, times on both
        # sides of 2 pi T t = 1/2 and many lobes of sin(delta t) past the first
        rng = np.random.default_rng(7)
        for _ in range(40):
            temp = 10.0 ** rng.uniform(-2.0, 0.5)
            delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
            edge = -2.0 * math.pi * temp
            gamma = edge if rng.random() < 0.2 else rng.uniform(edge, 3.0)
            th = ModelParams(delta, 0.0, temp, gamma)
            bound = divisibility_max("g", delta, temp, gamma)
            assert math.isfinite(bound)
            ts = (math.pi / abs(delta)) * np.concatenate(
                (rng.uniform(0.0, 12.0, 40), 10.0 ** rng.uniform(-3.0, 0.0, 10)))
            assert np.abs(model.g_of_t(ts, th)).max() <= bound + 1e-12
            # the dual of a point with gamma >= -2 pi T is bounded by the same rule
            assert divisibility_max("g_dual", -delta, temp, -gamma) == bound

    @pytest.mark.parametrize("which", ["g", "g_dual"])
    def test_grid_equals_cellwise_calls(self, which):
        # bit for bit: the delta = 0 column, the clamped T = 0 row, short-time
        # cells (2 pi T pi/|delta| < 1/2, both Gs branches), and the rows where
        # the dual diverges, 0.1552 to 0.1582 just below T = gamma/(2 pi) at
        # gamma = 1; gamma = -0.5 makes g itself diverge on the two coldest rows
        delta = np.array([0.0, 0.05, 0.15, 0.3, 1.0, 2.5, 10.0, -4.0])[:, None, None]
        temp = np.array([1e-12, 0.02, 0.1552, 0.1567, 0.1582, 0.3, 3.0])[None, :, None]
        gamma = np.array([1.0, 2.5, -0.5])[None, None, :]
        grid = divisibility_max(which, delta, temp, gamma)
        assert grid.shape == (8, 7, 3)
        cells = np.broadcast_arrays(delta, temp, gamma)
        each = np.array([divisibility_max(which, float(d), float(t), float(g))
                         for d, t, g in zip(*(c.ravel() for c in cells))])
        assert isinstance(each[0], float)
        assert np.array_equal(grid.ravel(), each)
        short = 2 * math.pi * cells[1] * math.pi < 0.5 * np.abs(cells[0])
        assert short.sum() >= 5 and (grid == DIVERGES).sum() >= 5 and (grid == 0.0).sum() == 21

    def test_cells_must_be_finite_with_positive_temperature(self):
        with pytest.raises(ValueError, match="must be finite"):
            divisibility_max("g", np.array([1.0, np.inf]), 0.1, 1.0)
        with pytest.raises(ValueError, match="temperature positive"):
            divisibility_max("g", 1.0, np.array([0.1, 0.0]), 1.0)


class TestPoleCatalog:
    def test_positions(self):
        cat = pole_catalog(TH, n_max=2)
        assert set(np.round(cat.isolated, 12)) == {
            0.0, -1j * TH.gamma,
            TH.epsilon - 0.5j * TH.gamma, -TH.epsilon - 0.5j * TH.gamma}
        first = TH.detuning - 0.5j * TH.gamma - 1j * math.pi * TH.temperature
        assert any(abs(p - first) < 1e-12 for p in cat.ladder)

    def test_ladder_in_lower_half_plane(self):
        for th, _ in GRID:
            cat = pole_catalog(th, n_max=3)
            assert all(p.imag < -0.5 * th.gamma for p in cat.ladder)

    def test_first_ladder_pole_value(self):
        # at detuning gamma/2, T = gamma/4 the n = 0 pole sits at
        # gamma/2 - i gamma/2 - i pi gamma/4
        cat = pole_catalog(ModelParams(0.5, 0.0, 0.25, 1.0), n_max=0)
        expected = 0.5 - 0.5j - 0.25j * math.pi
        assert min(abs(p - expected) for p in cat.ladder) < 1e-12

    def test_growth_verification(self):
        # |propagator_hat| grows on a shrinking circle about every catalog pole
        assert min(pole_growth(TH, n_max=1).values()) >= 2.0

    def test_ladder_spacing_shrinks_with_temperature(self):
        cold = pole_catalog(ModelParams(0.5, 0.0, 0.01, 1.0), n_max=1)
        warm = pole_catalog(ModelParams(0.5, 0.0, 0.5, 1.0), n_max=1)

        def spacing(cat):
            ims = sorted({p.imag for p in cat.ladder}, reverse=True)
            return ims[0] - ims[1]

        assert spacing(cold) < 0.1 * spacing(warm)
