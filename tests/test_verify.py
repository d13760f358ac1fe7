import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rlmdual.liouville import canonical_kraus, choi_of, vectorize
from rlmdual.model import PARITY_OP, RlmProvider
from rlmdual.scalars import ModelParams
from rlmdual.verify import (
    DEFAULT_FREQS,
    DEFAULT_PARAMS,
    DEFAULT_TIMES,
    DEFAULT_TOLERANCES,
    MissingCallbackError,
    SuperOpFamily,
    check_choi_duality,
    check_fixed_point_stationary,
    check_functional_fixed_point,
    check_generator_duality,
    check_jump_duality,
    check_kernel_duality_frequency,
    check_kraus_duality,
    check_kraus_sum_rules,
    check_propagator_duality,
    check_spectral_cross_relations,
    family_from_json,
    family_to_json,
    perturbed_family,
    rlm_family,
    run_suite,
    run_tabulated_suite,
)

from oracles import fixed_point_by_quadrature, kernel_mode_integral

TH = ModelParams(0.5, 0.0, 0.25, 1.0)
HOT = ModelParams(0.5, 0.0, 1e4, 1.0)
FAM = rlm_family()


class TestSuiteOnModel:
    def test_all_relations_pass_on_default_grid(self):
        reports = run_suite(FAM)
        assert len({r.relation_id for r in reports}) >= 12
        bad = [(r.relation_id, r.params, r.max_residual) for r in reports if not r.passed]
        assert not bad, bad

    def test_mutation_guard_flips_every_relation(self):
        pert = perturbed_family(FAM, 1.01)
        reports = run_suite(pert, params_list=DEFAULT_PARAMS[:2])
        still = [r.relation_id for r in reports if r.passed]
        assert not still, still

    def test_reports_are_json_serializable(self):
        reports = run_suite(FAM, params_list=DEFAULT_PARAMS[:1])
        text = json.dumps([r.as_dict() for r in reports])
        loaded = json.loads(text)
        assert all("pass" in r and "max_residual" in r for r in loaded)


class TestPropagatorDuality:
    def test_trivial_at_zero_time(self):
        rep = check_propagator_duality(FAM, TH, [0.0], 1e-12)
        assert rep.passed

    def test_generic(self):
        rep = check_propagator_duality(FAM, TH, [0.1, 0.5, 1.0, 3.0], 1e-8,
                                       freqs=DEFAULT_FREQS)
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_hot_semigroup_limit(self):
        rep = check_propagator_duality(FAM, HOT, [0.4, 2.0], 1e-8)
        assert rep.passed

    def test_missing_callback(self):
        fam = SuperOpFamily(dim=2, parity_op=PARITY_OP,
                            dual_map=lambda p: p.dual(), gamma_sum=lambda p: p.gamma)
        with pytest.raises(MissingCallbackError):
            check_propagator_duality(fam, TH, [1.0])


class TestSpectralCross:
    def test_propagator_pairs(self):
        rep = check_spectral_cross_relations(FAM, TH, 1.0, 1e-8, "propagator")
        assert rep.passed and len(rep.witness["projectors"]) == 4
        # the unit eigenvalue pairs with exp(-gamma t) across the spectrum
        pr = RlmProvider(TH)
        w = np.linalg.eigvals(pr.propagator(1.0))
        assert min(abs(w - 1.0)) < 1e-12 and min(abs(w - math.exp(-1.0))) < 1e-12

    def test_coherences_self_dual(self):
        rep = check_spectral_cross_relations(FAM, TH, 0.7, 1e-8, "propagator")
        # the two coherence modes are self-dual and get the extra gauge check
        assert len(rep.witness["self_dual"]) == 2
        assert max(rep.witness["self_dual"]) < 1e-10
        # their eigenvalues match exp((i eta eps - gamma/2) t) through the map
        t = 0.7
        w = np.linalg.eigvals(RlmProvider(TH).propagator(t))
        for eta in (1, -1):
            coh = np.exp((1j * eta * TH.epsilon - 0.5 * TH.gamma) * t)
            assert min(abs(w - coh)) < 1e-12

    def test_kernel_pairs_at_igamma(self):
        rep = check_spectral_cross_relations(FAM, TH, 1j * TH.gamma, 1e-8, "kernel_hat")
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_degenerate_spectrum_pairs_by_group(self):
        # at eps = 0 the two coherence eigenvalues coincide: the pair is one
        # group, compared through its summed projector, and has no gauge check
        rep = check_spectral_cross_relations(
            FAM, ModelParams(0.0, 0.0, 0.4, 1.0), 0.9, 1e-8, "propagator")
        assert rep.passed
        assert len(rep.witness["projectors"]) == 3
        assert rep.witness["self_dual"] == []

    def test_degenerate_group_mutation_fails_on_projectors(self):
        # conjugating the dual propagator by S = 1 + 0.01 e1 e0^T keeps every
        # eigenvalue but moves the eigenvectors, the coherence group's too
        th = ModelParams(0.0, 0.5, 0.25, 1.0)
        s = np.eye(4)
        s[1, 0] = 0.01

        def propagator(t, p):
            pi = FAM.propagator(t, p)
            return s @ pi @ np.linalg.inv(s) if p == th.dual() else pi

        rep = check_spectral_cross_relations(
            replace(FAM, propagator=propagator), th, 1.0, 1e-8, "propagator")
        assert max(rep.witness["eigenvalues"]) < 1e-12
        assert max(rep.witness["projectors"]) == pytest.approx(0.01, rel=1e-3)
        assert not rep.passed


# the coherence eigenvalues +-eps - i gamma/2 coincide at eps = 0
DEGENERATE_POINTS = (ModelParams(0.0, 0.5, 0.25, 1.0), ModelParams(0.0, -0.3, 0.5, 1.0),
                     ModelParams(0.0, 0.0, 0.4, 1.0))
PAIRING_CHECKS = {
    "spectral_cross_propagator":
        lambda f, p: check_spectral_cross_relations(f, p, 1.0, 1e-8, "propagator"),
    "spectral_cross_kernel_hat":
        lambda f, p: check_spectral_cross_relations(f, p, 1j * f.gamma_sum(p), 1e-8,
                                                    "kernel_hat"),
    "kraus_duality": lambda f, p: check_kraus_duality(f, p, 1.0, 1e-7),
    "jump_duality": lambda f, p: check_jump_duality(f, p, 1.0, 1e-7),
}


class TestDegeneratePoints:
    @pytest.mark.parametrize("th", DEGENERATE_POINTS)
    @pytest.mark.parametrize("rid", PAIRING_CHECKS)
    def test_plain_passes(self, rid, th):
        rep = PAIRING_CHECKS[rid](FAM, th)
        assert rep.passed, (rep.max_residual, rep.witness)

    @pytest.mark.parametrize("th", DEGENERATE_POINTS)
    @pytest.mark.parametrize("rid", PAIRING_CHECKS)
    def test_perturbed_fails(self, rid, th):
        pert = perturbed_family(FAM, 1.01)
        rep = PAIRING_CHECKS[rid](pert, th)
        if rid == "spectral_cross_kernel_hat" and th.mu == 0.0:
            # at eps = mu the smooth kernel vanishes and the scaled kernel
            # still obeys its duality, as kernel_duality reports too
            assert check_kernel_duality_frequency(pert, th, DEFAULT_FREQS).passed
            assert rep.passed
        else:
            assert not rep.passed


class TestKernelDuality:
    def test_frequency_and_time_split(self):
        rep = check_kernel_duality_frequency(FAM, TH, DEFAULT_FREQS, 1e-8,
                                             times=DEFAULT_TIMES)
        assert rep.passed
        assert rep.witness["delta_part"] < 1e-12

    def test_hot_limit_constant_kernel(self):
        rep = check_kernel_duality_frequency(FAM, HOT, (0.5j, 1.0 + 1.0j), 1e-8)
        assert rep.passed

    def test_resonant_self_dual(self):
        rep = check_kernel_duality_frequency(
            FAM, ModelParams(0.3, 0.3, 0.5, 1.0), (0.5j,), 1e-10)
        assert rep.passed


class TestGeneratorDuality:
    def test_generic(self):
        rep = check_generator_duality(FAM, TH, [1.0], 1e-7)
        assert rep.passed and rep.max_residual < 1e-12

    def test_ill_conditioned_inversion_rejected(self):
        # cond(Pi) grows like exp(gamma t); past the limit the check refuses
        with pytest.raises(np.linalg.LinAlgError):
            check_generator_duality(FAM, TH, [40.0])

    def test_eigenvalue_map_consistency(self):
        # {0, -eta eps - i gamma/2, -i gamma} maps to itself under
        # conj(i gamma - dual), dual spectrum = {0, eta eps + i gamma/2, i gamma}
        w = np.linalg.eigvals(RlmProvider(TH).generator(0.8))
        mapped = np.conj(1j * TH.gamma - np.linalg.eigvals(
            RlmProvider(TH.dual()).generator(0.8)))
        for v in mapped:
            assert min(abs(w - v)) < 1e-12


class TestKrausChecks:
    def test_duality_even_self_dual_odd_paired(self):
        rep = check_kraus_duality(FAM, TH, 1.0, 1e-7)
        assert rep.passed
        pairs = rep.witness["permutation"]
        assert len(pairs) == 4

    def test_duality_trivial_at_zero(self):
        rep = check_kraus_duality(FAM, TH, 0.0, 1e-9)
        assert rep.passed

    def test_closed_form_coefficient_map(self):
        # m_0eta = +e^{-Gt} dual(m_0eta); m_1eta = -e^{-Gt} dual(m_1(-eta))
        pr = RlmProvider(TH)
        prd = RlmProvider(TH.dual())
        t = 0.8
        ks = {(tm.parity, i): tm for i, tm in enumerate(pr.kraus_set(t).terms)}
        kd = {(tm.parity, i): tm for i, tm in enumerate(prd.kraus_set(t).terms)}
        decay = math.exp(-TH.gamma * t)
        for key, tm in ks.items():
            parity = key[0]
            partner_coeffs = [decay * parity * kd[k].coefficient
                              for k in kd if k[0] == parity]
            assert min(abs(tm.coefficient - c) for c in partner_coeffs) < 1e-10

    def test_sum_rules(self):
        pr = RlmProvider(TH)
        for t, expect_even in ((0.0, 2.0), (40.0, 1.0)):
            ks = pr.kraus_set(t)
            rep = check_kraus_sum_rules(ks, TH.gamma, t, 2, 1e-8, TH)
            assert rep.passed
            even = ks.coefficients[ks.parities > 0].sum()
            assert even == pytest.approx(expect_even, abs=1e-8)

    def test_canonical_and_closed_form_agree(self):
        rep = check_kraus_sum_rules(
            canonical_kraus(RlmProvider(TH).propagator(1.0), PARITY_OP),
            TH.gamma, 1.0, 2, 1e-8, TH)
        assert rep.passed

    def test_degenerate_coefficients_projector_branch(self):
        # at resonance the odd coefficients are doubly degenerate; matching
        # falls back to the eigenprojector comparison
        th = ModelParams(0.4, 0.4, 0.3, 1.0)
        rep = check_kraus_duality(FAM, th, 1.0, 1e-7)
        assert rep.passed
        assert len(rep.witness["projectors"]) == len(rep.witness["permutation"]) - 1


class TestJumpDuality:
    def test_generic(self):
        rep = check_jump_duality(FAM, TH, 1.0, 1e-7)
        assert rep.passed
        assert rep.witness["sum_rule"] < 1e-9
        assert rep.witness["odd_rate_rule"] < 1e-12

    def test_heisenberg_rates_recovered(self):
        # the Heisenberg rates must be (gamma/2)(1 -+ g_dual)
        pr = RlmProvider(TH)
        t = 1.0
        rep = check_jump_duality(FAM, TH, t, 1e-7)
        assert rep.passed
        jp, jm = pr.heisenberg_jump_rates(t)
        assert {round(jp, 9), round(jm, 9)} == {
            round(0.5 * TH.gamma * (1 - pr.g_dual(t)), 9),
            round(0.5 * TH.gamma * (1 + pr.g_dual(t)), 9)}

    def test_hot_limit(self):
        rep = check_jump_duality(FAM, HOT, 0.7, 1e-6)
        assert rep.passed

    def test_degenerate_rates_projector_branch(self):
        # at resonance both jump rates equal gamma/2
        th = ModelParams(0.4, 0.4, 0.3, 1.0)
        rep = check_jump_duality(FAM, th, 1.0, 1e-7)
        assert rep.passed
        assert len(rep.witness["projectors"]) == len(rep.witness["rates"]) - 1


class TestChoiDuality:
    def test_trivial_at_zero(self):
        rep = check_choi_duality(FAM, TH, 0.0, 1e-12)
        assert rep.passed

    def test_generic_with_unphysicality_witness(self):
        rep = check_choi_duality(FAM, TH, 1.0, 1e-8)
        assert rep.passed
        assert rep.witness["dual_choi_min_eigenvalue"] < -0.01

    def test_witness_is_the_dual_choi_minimum(self):
        # bitwise the smallest eigenvalue of the Hermitian part of the dual Choi
        for t in (0.3, 1.0, 2.5):
            cd = choi_of(FAM.propagator(t, TH.dual()))
            want = float(np.linalg.eigvalsh(0.5 * (cd + cd.conj().T))[0])
            assert check_choi_duality(FAM, TH, t).witness["dual_choi_min_eigenvalue"] == want


class TestFixedPoints:
    def test_stationary_both_paths(self):
        rep = check_fixed_point_stationary(FAM, TH, 1e-6)
        assert rep.passed
        assert rep.witness["sampling_path"] < 1e-9
        # the time-domain quadrature of the kernel (tests/oracles.py)
        g_inf = FAM.generator_stationary(TH)
        assert np.abs(fixed_point_by_quadrature(TH) - g_inf).max() < 1e-6

    @pytest.mark.parametrize("th", [ModelParams(0.5, 0.0, 0.25, 1.47),
                                    ModelParams(0.5, 0.0, 0.25, 1.5),
                                    ModelParams(0.5, 0.0, 0.25, 1.56),
                                    ModelParams(0.5, 0.0, 0.16, -1.0)])
    def test_stationary_near_the_convergence_edge(self, th):
        # gamma just below 2 pi T, and a dual point just above -2 pi T: the
        # slowest mode's integrand decays at only 2.7e-3 to 5.0e-2 per unit time
        mpmath = pytest.importorskip("mpmath")
        rep = check_fixed_point_stationary(FAM, th, 1e-6)
        assert rep.passed, rep.witness
        g_inf = FAM.generator_stationary(th)
        assert np.abs(fixed_point_by_quadrature(th) - g_inf).max() < 1e-6
        # the exponential series of 2T/sinh(pi T t), term by term in closed form
        delta, temp = th.detuning, th.temperature
        for lam in (0.0, -1j * th.gamma):   # the stationary and the parity mode
            exact = 4 * temp * mpmath.nsum(
                lambda n: delta / (((2 * n + 1) * mpmath.pi * temp + th.gamma / 2
                                    - 1j * lam) ** 2 + delta ** 2), [0, mpmath.inf])
            assert abs(kernel_mode_integral(th, lam) - complex(exact)) < 1e-10

    def test_zero_frequency_shares_stationary_eigenvector(self):
        pr = RlmProvider(TH)
        k0 = pr.memory_kernel_hat(0.0)
        rho_inf = vectorize(pr.stationary_state())
        assert np.abs(k0 @ rho_inf).max() < 1e-9

    def test_hot_limit_kernel_equals_generator(self):
        pr = RlmProvider(HOT)
        assert np.abs(pr.memory_kernel_hat(0.0) - pr.generator_stationary()).max() < 1e-6

    def test_functional_quadratic_scaling(self):
        rep = check_functional_fixed_point(FAM, TH, 2.0, 200, 1e-3)
        assert rep.passed
        assert 3.5 <= rep.witness["halving_ratio"] <= 4.5

    def test_functional_heisenberg(self):
        rep_s = check_functional_fixed_point(FAM, TH, 2.0, 200, 1e-3)
        rep_h = check_functional_fixed_point(FAM, TH, 2.0, 200, 1e-3, heisenberg=True)
        assert rep_h.passed
        assert rep_h.max_residual < 10 * rep_s.max_residual

    def test_hot_limit_reduces_to_constant_kernel(self):
        rep = check_functional_fixed_point(FAM, HOT, 1.0, 100, 1e-3)
        assert rep.passed


class TestExternalFamily:
    def test_round_trip_identical_residuals(self):
        params = DEFAULT_PARAMS[:2]
        times = (0.25, 1.0, 2.0)
        freqs = (0.6j, 1.1 + 0.8j)
        doc = family_to_json(FAM, params, times, freqs)
        text = json.dumps(doc)
        tab = family_from_json(text)
        external = run_tabulated_suite(tab)
        assert external and all(r.passed for r in external)
        # in-process reports on the same samples, restricted to the same forms
        for rep in external:
            if rep.relation_id == "propagator_duality":
                ref = check_propagator_duality(FAM, rep.params, times,
                                               rep.tolerance)
                assert rep.witness["time"] == ref.witness["time"]
            if rep.relation_id == "kernel_duality":
                ref = check_kernel_duality_frequency(FAM, rep.params, freqs,
                                                     rep.tolerance)
                assert rep.witness["frequency"] == ref.witness["frequency"]

    def test_relations_follow_the_samples(self):
        # a table holding w = i gamma (and its reflection 2i gamma on the dual
        # point) supports the kernel spectra too; the perturbed coupling moves
        # every reflection off the table, which drops both kernel relations
        doc = family_to_json(FAM, DEFAULT_PARAMS[:1], (0.25, 1.0, 2.0), (0.6j, 1j))
        tab = family_from_json(json.dumps(doc))
        plain = run_tabulated_suite(tab)
        assert {r.relation_id for r in plain} == set(DEFAULT_TOLERANCES) - {
            "generator_duality_gflip", "fixed_point_stationary", "functional_fixed_point"}
        assert all(r.passed for r in plain)
        tab.family = perturbed_family(tab.family, 1.01)
        perturbed = run_tabulated_suite(tab)
        assert {r.relation_id for r in perturbed} == {r.relation_id for r in plain} - {
            "kernel_duality", "spectral_cross_kernel_hat"}
        assert not any(r.passed for r in perturbed)

    def test_missing_sample_raises(self):
        doc = family_to_json(FAM, DEFAULT_PARAMS[:1], (0.5,), ())
        tab = family_from_json(json.dumps(doc))
        with pytest.raises(MissingCallbackError):
            tab.family.propagator(9.0, DEFAULT_PARAMS[0])

    def test_array_lookup_stacks_the_samples(self):
        th = DEFAULT_PARAMS[0]
        tab = family_from_json(json.dumps(family_to_json(FAM, [th], (0.5, 2.0), ())))
        prop = tab.family.propagator
        stack = prop(np.array([2.0, 0.5, 0.5]), th)
        assert stack.shape == (3, 4, 4)
        assert np.array_equal(stack, [prop(2.0, th), prop(0.5, th), prop(0.5, th)])
        # the first absent sample is named
        with pytest.raises(MissingCallbackError, match="sample at 9.0 "):
            prop(np.array([0.5, 9.0, 7.0]), th)

    def test_dim_and_convention_fields(self):
        doc = family_to_json(FAM, DEFAULT_PARAMS[:1], (0.5,), ())
        assert doc["dim"] == 2
        assert doc["basis_convention"] == "column-stacking"
        assert doc["parity_diag"] == [1.0, -1.0]
        doc["basis_convention"] = "other"
        with pytest.raises(ValueError):
            family_from_json(json.dumps(doc))
