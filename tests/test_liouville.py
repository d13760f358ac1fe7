import numpy as np
import pytest

from rlmdual.liouville import (
    DefectiveMatrixError,
    ParityCovarianceError,
    bipartite_ket_one,
    canonical_kraus,
    choi_duality_transform,
    choi_of,
    commutator_superop,
    devectorize,
    dissipator,
    gksl_decompose,
    gksl_decompose_heisenberg,
    identity_superop,
    is_cp,
    is_parity_covariant,
    lmul_rmul,
    parity_superop,
    spectral_decompose,
    superadjoint,
    vectorize,
)

from oracles import (
    dissipator_heisenberg,
    heisenberg_generator,
    is_hermiticity_preserving,
    is_tp,
    matrix_from_json,
    matrix_to_json,
    superop_from_choi,
)

rng = np.random.default_rng(42)

PARITY = np.diag([1.0, -1.0]).astype(complex)
D_OP = np.array([[0, 1], [0, 0]], dtype=complex)       # annihilator
DDAG = D_OP.conj().T


def rand_op(d=2):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def rand_superop(d=2):
    return rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))


class TestVectorize:
    def test_identity(self):
        assert np.array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_basis_case(self):
        # |1><0| has entry (1, 0): column stacking puts it at component 1
        op = np.zeros((2, 2))
        op[1, 0] = 1.0
        assert np.array_equal(vectorize(op), [0, 1, 0, 0])

    def test_round_trip(self):
        for _ in range(5):
            x = rand_op(3)
            assert np.array_equal(devectorize(vectorize(x), 3), x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vectorize(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            devectorize(np.zeros(5))


class TestLmulRmul:
    def test_identity_pair(self):
        assert np.array_equal(lmul_rmul(np.eye(2), np.eye(2)), identity_superop(2))

    def test_entrywise_action(self):
        for _ in range(5):
            left, right, x = rand_op(), rand_op(), rand_op()
            out = devectorize(lmul_rmul(left, right) @ vectorize(x))
            assert np.abs(out - left @ x @ right).max() < 1e-14

    def test_parity_superoperator(self):
        # left multiplication with the parity operator
        pm = parity_superop(PARITY)
        x = rand_op()
        assert np.abs(devectorize(pm @ vectorize(x)) - PARITY @ x).max() < 1e-15

    def test_parity_squares_to_identity_exactly(self):
        pm = parity_superop(PARITY)
        assert np.array_equal(pm @ pm, identity_superop(2))

    def test_superadjoint_rule(self):
        # adjoint of (L . R) is (L^dag . R^dag); check on d, d^dag
        s = superadjoint(lmul_rmul(D_OP, DDAG))
        x = rand_op()
        assert np.abs(devectorize(s @ vectorize(x)) - DDAG @ x @ D_OP).max() < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lmul_rmul(np.eye(2), np.eye(3))


class TestSuperadjoint:
    def test_identity(self):
        assert np.array_equal(superadjoint(identity_superop(2)), identity_superop(2))

    def test_pairing_identity(self):
        # <A|S B> = <S^sadj A|B> for 100 random triples
        for _ in range(100):
            s, a, b = rand_superop(), rand_op(), rand_op()
            lhs = np.vdot(vectorize(a), s @ vectorize(b))
            rhs = np.vdot(superadjoint(s) @ vectorize(a), vectorize(b))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_involution(self):
        s = rand_superop()
        assert np.array_equal(superadjoint(superadjoint(s)), s)

    def test_commutator_adjoint(self):
        # <A|[H,B]> = <[H,A]|B> for Hermitian H, so [H, .] is self-adjoint
        # and the generator piece -i[H, .] is anti-self-adjoint
        h = rand_op()
        h = h + h.conj().T
        c = commutator_superop(h)
        assert np.abs(superadjoint(c) - c).max() < 1e-13
        assert np.abs(superadjoint(-1j * c) + (-1j * c)).max() < 1e-13


class TestDissipator:
    def test_direct_evaluation(self):
        # D(d) maps |1><1| to |0><0| - |1><1|
        out = devectorize(dissipator(D_OP) @ vectorize(np.diag([0.0, 1.0])))
        assert np.abs(out - np.diag([1.0, -1.0])).max() < 1e-15

    def test_trace_annihilation(self):
        for _ in range(6):
            j, x = rand_op(), rand_op()
            out = devectorize(dissipator(j) @ vectorize(x))
            assert abs(np.trace(out)) < 1e-12

    def test_parity_sandwich_of_adjoint(self):
        # P D_eta^sadj P = -D_(-eta) - identity for the level operators
        pm = parity_superop(PARITY)
        ident = identity_superop(2)
        for op, partner in ((DDAG, D_OP), (D_OP, DDAG)):
            lhs = pm @ superadjoint(dissipator(op)) @ pm
            rhs = -dissipator(partner) - ident
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_heisenberg_variant_annihilates_identity(self):
        j = rand_op()
        out = dissipator_heisenberg(j) @ vectorize(np.eye(2))
        assert np.abs(out).max() < 1e-13


class TestChoi:
    def test_identity_superop(self):
        c = choi_of(identity_superop(2))
        one = bipartite_ket_one(2)
        assert np.abs(c - np.outer(one, one.conj())).max() < 1e-15
        w = np.linalg.eigvalsh(c)
        assert w[-1] == pytest.approx(2.0, abs=1e-13)
        assert np.abs(w[:-1]).max() < 1e-13

    def test_rank_one_case(self):
        m = rand_op()
        c = choi_of(lmul_rmul(m, m.conj().T))
        vec = m.reshape(-1)
        assert np.abs(c - np.outer(vec, vec.conj())).max() < 1e-13

    def test_round_trip_both_orders(self):
        for _ in range(5):
            s = rand_superop(3)
            assert np.abs(superop_from_choi(choi_of(s)) - s).max() < 1e-13
            c = rand_superop(3)
            assert np.abs(choi_of(superop_from_choi(c)) - c).max() < 1e-13

    def test_trace_of_tp_choi(self):
        # trace of the Choi operator of a TP map equals the dimension
        ks = [rand_op() for _ in range(3)]
        norm = sum(k.conj().T @ k for k in ks)
        w, u = np.linalg.eigh(norm)
        fix = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
        s = sum(np.kron((k @ fix).conj(), k @ fix) for k in ks)
        assert is_tp(s, 1e-12)
        assert np.trace(choi_of(s)) == pytest.approx(2.0, abs=1e-10)


class TestPredicates:
    def test_identity(self):
        s = identity_superop(2)
        assert is_tp(s, 1e-14)
        ok, mineig = is_cp(s, 1e-9)
        assert ok and abs(mineig) < 1e-12
        assert is_hermiticity_preserving(s, 1e-14)

    def test_non_tp(self):
        assert not is_tp(2.0 * identity_superop(2), 1e-10)

    def test_transpose_map_not_cp(self):
        # the transpose map is the standard positive-but-not-CP example
        d = 2
        s = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                x = np.zeros((d, d), dtype=complex)
                x[i, j] = 1.0
                s[:, j * d + i] = vectorize(x.T)
        ok, mineig = is_cp(s, 1e-9)
        assert not ok and mineig < -0.5

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(2, 5, 4, 4)) + 1j * rng.normal(size=(2, 5, 4, 4))
        stack[0, 0] = identity_superop(2)   # CP
        stack[0, 1] = lmul_rmul(D_OP, D_OP.conj().T)   # CP, Hermitian Choi
        verdicts, eigs = is_cp(stack, 1e-9)
        assert verdicts.shape == eigs.shape == (2, 5)
        for i in np.ndindex(2, 5):
            assert np.array_equal(choi_of(stack)[i], choi_of(stack[i]))
            assert (bool(verdicts[i]), float(eigs[i])) == is_cp(stack[i], 1e-9)
        assert verdicts[0, 0] and verdicts[0, 1] and not verdicts[1].any()

    def test_parity_covariance(self):
        assert is_parity_covariant(dissipator(D_OP), PARITY)
        mixing = lmul_rmul(D_OP + np.eye(2), (D_OP + np.eye(2)).conj().T)
        assert not is_parity_covariant(mixing, PARITY, 1e-10)


class TestChoiDualityTransform:
    def test_maximally_entangled_invariant(self):
        one = bipartite_ket_one(2)
        c = np.outer(one, one.conj())
        assert np.abs(choi_duality_transform(c) - c).max() < 1e-15

    def test_operator_reshuffle(self):
        m = rand_op()
        lhs = choi_duality_transform(choi_of(lmul_rmul(m, m.conj().T)))
        rhs = choi_of(lmul_rmul(m.conj().T, m))
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_matches_superadjoint(self):
        for _ in range(5):
            s = rand_superop()
            lhs = choi_duality_transform(choi_of(s))
            rhs = choi_of(superadjoint(s))
            assert np.abs(lhs - rhs).max() < 1e-13


def binormal_defect(dec):
    """max |<left_i|right_j> - delta_ij| over all mode pairs."""
    lefts = np.array([vectorize(m.left) for m in dec.modes])
    rights = np.array([vectorize(m.right) for m in dec.modes])
    return np.abs(lefts.conj() @ rights.T - np.eye(len(dec.modes))).max()


class TestSpectralDecompose:
    def test_reconstruction_random(self):
        for _ in range(8):
            s = rand_superop()
            dec = spectral_decompose(s)
            assert np.abs(dec.to_superoperator() - s).max() < 1e-9

    def test_binormalization(self):
        s = rand_superop()
        dec = spectral_decompose(s)
        for i, mi in enumerate(dec.modes):
            for j, mj in enumerate(dec.modes):
                ov = np.vdot(vectorize(mi.left), vectorize(mj.right))
                assert abs(ov - (1.0 if i == j else 0.0)) < 1e-9

    def test_sort_order(self):
        s = rand_superop()
        w = spectral_decompose(s).eigenvalues
        for a, b in zip(w[:-1], w[1:]):
            assert (a.real > b.real - 1e-12) and \
                   (a.real - b.real > 1e-12 or a.imag <= b.imag + 1e-12)

    def test_gauge_fixing(self):
        s = rand_superop()
        for mode in spectral_decompose(s).modes:
            v = vectorize(mode.right)
            peak = v[np.argmax(np.abs(v))]
            assert abs(peak.imag) < 1e-12 and peak.real > 0

    def test_identity_degeneracy_group(self):
        dec = spectral_decompose(identity_superop(2))
        assert np.allclose(dec.eigenvalues, 1.0)
        assert np.abs(dec.to_superoperator() - identity_superop(2)).max() < 1e-12
        assert binormal_defect(dec) < 1e-12

    def test_defective_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(DefectiveMatrixError):
            spectral_decompose(bad)

    @staticmethod
    def jordan(coupling):
        m = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
        m[0, 1] = coupling
        return m

    @pytest.mark.parametrize("coupling", [1.0, 1e-3])
    def test_jordan_coupling_rejected(self, coupling):
        # cond(V_R) is 9.0e15 and 9.0e12: the pair of right eigenvectors is
        # too close to parallel for inv(V_R) to give usable lefts
        with pytest.raises(DefectiveMatrixError, match="condition number"):
            spectral_decompose(self.jordan(coupling))

    @pytest.mark.parametrize("coupling", [1e-6, 1e-9, 1e-12])
    def test_jordan_coupling_below_resolution_accepted(self, coupling):
        # the eigensolver sees a doubly degenerate eigenvalue; the decomposition
        # is binormal and misses only the coupling itself
        m = self.jordan(coupling)
        dec = spectral_decompose(m)
        assert np.abs(dec.to_superoperator() - m).max() <= 2 * coupling
        assert binormal_defect(dec) < 1e-9

    def test_non_normal_degenerate_pairs(self):
        for _ in range(5):
            v = rand_superop()
            s = v @ np.diag([1.0, 1.0, 2.0 + 1j, 2.0 + 1j]) @ np.linalg.inv(v)
            dec = spectral_decompose(s)
            assert np.abs(dec.to_superoperator() - s).max() < 1e-9
            assert binormal_defect(dec) < 1e-9


def random_parity_covariant_cp_map():
    """Random CP-TP parity-covariant map from definite-parity Kraus pieces."""
    ops = [PARITY @ rand_op() @ PARITY * s + rand_op() for s in (1.0, -1.0)]
    ops = [0.5 * (op + s * PARITY @ op @ PARITY) for op, s in zip(ops, (1.0, -1.0))]
    norm = sum(op.conj().T @ op for op in ops)
    w, u = np.linalg.eigh(norm)
    fix = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    return sum(np.kron((op @ fix).conj(), op @ fix) for op in ops)


class TestCanonicalKraus:
    def test_identity_map_single_term(self):
        ks = canonical_kraus(identity_superop(2), PARITY)
        assert len(ks.terms) == 1
        term = ks.terms[0]
        assert term.coefficient == pytest.approx(2.0, abs=1e-12)
        assert term.parity == 1
        assert np.abs(term.operator - np.eye(2) / np.sqrt(2)).max() < 1e-12

    def test_invariants_random(self):
        for _ in range(6):
            s = random_parity_covariant_cp_map()
            ks = canonical_kraus(s, PARITY)
            ops = [t.operator for t in ks.terms]
            gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
            assert np.abs(gram - np.eye(len(ops))).max() < 1e-9
            for t in ks.terms:
                sand = PARITY @ t.operator @ PARITY
                assert np.abs(sand - t.parity * t.operator).max() < 1e-10
            assert np.abs(ks.to_superoperator() - s).max() < 1e-9

    def test_choi_parity_commutator(self):
        s = random_parity_covariant_cp_map()
        pb = np.kron(PARITY, PARITY)
        for t in canonical_kraus(s, PARITY).terms:
            b = t.operator.reshape(-1)
            proj = np.outer(b, b.conj())
            assert np.abs(pb @ proj - proj @ pb).max() < 1e-10

    def test_parity_violation_rejected(self):
        mixing = lmul_rmul(D_OP + np.eye(2), (D_OP + np.eye(2)).conj().T)
        with pytest.raises(ParityCovarianceError):
            canonical_kraus(mixing, PARITY)


class TestGkslDecompose:
    def test_pure_hamiltonian(self):
        h = np.diag([0.0, 1.3]).astype(complex)
        js = gksl_decompose(commutator_superop(h), PARITY)
        assert len(js.terms) == 0
        assert np.abs(js.effective_hamiltonian - h).max() < 1e-12

    def test_invariants(self):
        gamma = 0.8
        gen = commutator_superop(np.diag([0.0, 0.4])) \
            + 1j * (0.3 * dissipator(D_OP) + 0.5 * dissipator(DDAG))
        js = gksl_decompose(gen, PARITY)
        ops = [t.operator for t in js.terms]
        for op in ops:
            assert abs(np.trace(op)) < 1e-9
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        assert np.abs(gram - np.eye(len(ops))).max() < 1e-9
        h = js.effective_hamiltonian
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert np.abs(h @ PARITY - PARITY @ h).max() < 1e-10
        assert np.abs(js.generator() - gen).max() < 1e-9

    def test_trace_preservation_required(self):
        with pytest.raises(ValueError):
            gksl_decompose(identity_superop(2), PARITY)

    def test_heisenberg_round_trip(self):
        h = np.diag([0.0, 0.7]).astype(complex)
        gen_h = -1j * (1j * commutator_superop(h)
                       + 0.4 * dissipator_heisenberg(D_OP)
                       + 0.9 * dissipator_heisenberg(DDAG))
        js = gksl_decompose_heisenberg(gen_h, PARITY)
        assert np.abs(js.effective_hamiltonian - h).max() < 1e-10
        assert sorted(js.rates) == pytest.approx([0.4, 0.9], abs=1e-10)
        assert np.abs(heisenberg_generator(js) - gen_h).max() < 1e-9


class TestJson:
    def test_round_trip(self):
        m = rand_superop()
        doc = matrix_to_json(m)
        assert doc["basis_convention"] == "column-stacking"
        assert doc["dim"] == 2
        assert np.array_equal(matrix_from_json(doc), m)

    def test_convention_guard(self):
        doc = matrix_to_json(np.eye(2))
        doc["basis_convention"] = "row-stacking"
        with pytest.raises(ValueError):
            matrix_from_json(doc)
