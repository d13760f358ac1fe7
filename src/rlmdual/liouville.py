"""Dense superoperator algebra on a d-dimensional system.

Operators are complex (d, d) arrays, superoperators complex (d^2, d^2) arrays
acting on column-stacked operators: ``vec(X)[j*d + i] = X[i, j]`` so that
``vec(L X R) = kron(R.T, L) vec(X)``.  The Hilbert-Schmidt inner product
``<A|B> = tr(A^dag B)`` makes this vectorization orthonormal, hence the
superadjoint (adjoint w.r.t. that product) is the plain conjugate transpose.

The bipartite objects (Choi operators, maximally entangled vector) use the
row-major embedding ``|M>[a*d + b] = M[a, b]`` on system (x) copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "BASIS_CONVENTION",
    "DefectiveMatrixError",
    "ParityCovarianceError",
    "ReconstructionError",
    "vectorize",
    "devectorize",
    "lmul",
    "rmul",
    "lmul_rmul",
    "superadjoint",
    "identity_superop",
    "commutator_superop",
    "anticommutator_superop",
    "dissipator",
    "dissipator_heisenberg",
    "parity_superop",
    "choi_of",
    "superop_from_choi",
    "bipartite_ket_one",
    "bipartite_to_operator",
    "choi_duality_transform",
    "is_tp",
    "is_hermiticity_preserving",
    "is_cp",
    "is_parity_covariant",
    "SpectralMode",
    "SpectralDecomposition",
    "spectral_decompose",
    "KrausTerm",
    "KrausSet",
    "canonical_kraus",
    "JumpTerm",
    "JumpSet",
    "gksl_decompose",
    "gksl_decompose_heisenberg",
]

BASIS_CONVENTION = "column-stacking"


class DefectiveMatrixError(np.linalg.LinAlgError):
    """Superoperator is not diagonalizable within tolerance."""


class ParityCovarianceError(ValueError):
    """Map does not commute with the parity sandwich within tolerance."""


class ReconstructionError(RuntimeError):
    """A canonical decomposition failed to rebuild its input."""


# ---------------------------------------------------------------------------
# vectorization and elementary superoperators
# ---------------------------------------------------------------------------

def vectorize(op: np.ndarray) -> np.ndarray:
    """Column-stack an operator: entry (i, j) lands at component j*d + i."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("expected a square operator matrix")
    return op.reshape(-1, order="F").copy()


def devectorize(vec: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError("vector length is not a perfect square")
    return vec.reshape((dim, dim), order="F").copy()


def lmul(op: np.ndarray) -> np.ndarray:
    """Superoperator of left multiplication X -> op X."""
    op = np.asarray(op)
    return np.kron(np.eye(op.shape[0]), op)


def rmul(op: np.ndarray) -> np.ndarray:
    """Superoperator of right multiplication X -> X op."""
    op = np.asarray(op)
    return np.kron(op.T, np.eye(op.shape[0]))


def lmul_rmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of X -> left X right."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise ValueError("left and right factors must share a dimension")
    return np.kron(right.T, left)


def superadjoint(s: np.ndarray) -> np.ndarray:
    """Adjoint w.r.t. the Hilbert-Schmidt product: conjugate transpose of the last two axes."""
    return np.swapaxes(s, -1, -2).conj()


def identity_superop(dim: int) -> np.ndarray:
    return np.eye(dim * dim, dtype=complex)


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """X -> [h, X]."""
    return lmul(h) - rmul(h)


def anticommutator_superop(h: np.ndarray) -> np.ndarray:
    """X -> {h, X}."""
    return lmul(h) + rmul(h)


def dissipator(j: np.ndarray) -> np.ndarray:
    """X -> j X j^dag - {j^dag j, X}/2 (trace-annihilating)."""
    j = np.asarray(j)
    jdj = j.conj().T @ j
    return np.kron(j.conj(), j) - 0.5 * anticommutator_superop(jdj)


def dissipator_heisenberg(j: np.ndarray) -> np.ndarray:
    """X -> j X j^dag - {j j^dag, X}/2 (unit-annihilating), the superadjoint of D(j^dag)."""
    return superadjoint(dissipator(np.asarray(j).conj().T))


def parity_superop(parity_op: np.ndarray) -> np.ndarray:
    """Left multiplication with the fermion parity operator."""
    return lmul(parity_op)


# ---------------------------------------------------------------------------
# Choi transform and bipartite helpers
# ---------------------------------------------------------------------------

def choi_of(s: np.ndarray) -> np.ndarray:
    """Choi operator (s (x) id) |1>><<1| of a superoperator matrix or a stack of them."""
    s = np.asarray(s)
    d = int(round(np.sqrt(s.shape[-1])))
    return np.einsum("...ijkl->...jlik", s.reshape(s.shape[:-2] + (d,) * 4)) \
        .reshape(s.shape).copy()


def superop_from_choi(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`choi_of`."""
    c = np.asarray(c)
    d2 = c.shape[0]
    d = int(round(np.sqrt(d2)))
    return c.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d2, d2).copy()


def bipartite_ket_one(dim: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_k |k>|k> (norm sqrt(d))."""
    return np.eye(dim, dtype=complex).reshape(-1)


def bipartite_to_operator(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    return v.reshape(dim, dim).copy()


def choi_duality_transform(c: np.ndarray) -> np.ndarray:
    """Swap-and-conjugate transform mapping choi[S] to choi[S superadjoint]:
    S C* S with S the bipartite swap (conjugation is entrywise)."""
    c = np.asarray(c)
    d2 = c.shape[0]
    d = int(round(np.sqrt(d2)))
    return c.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d2, d2).conj().copy()


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_tp(s: np.ndarray, tol: float = 1e-10) -> bool:
    """Trace preservation: <1| s = <1|."""
    s = np.asarray(s)
    d = int(round(np.sqrt(s.shape[0])))
    one = vectorize(np.eye(d))
    return bool(np.abs(s.conj().T @ one - one).max() <= tol)


def is_hermiticity_preserving(s: np.ndarray, tol: float = 1e-10) -> bool:
    c = choi_of(s)
    return bool(np.abs(c - c.conj().T).max() <= tol)


def is_cp(s: np.ndarray, tol: float = 1e-9):
    """Complete positivity witness: (verdict, smallest Choi eigenvalue).

    A stack of superoperators gives an array of verdicts and one of eigenvalues.
    """
    c = choi_of(s)
    ch = np.swapaxes(c, -1, -2).conj()
    min_eig = np.linalg.eigvalsh(0.5 * (c + ch))[..., 0]
    verdict = (np.abs(c - ch).max(axis=(-2, -1)) <= max(tol, 1e-10)) & (min_eig >= -tol)
    if verdict.ndim == 0:
        return bool(verdict), float(min_eig)
    return verdict, min_eig


def is_parity_covariant(s: np.ndarray, parity_op: np.ndarray, tol: float = 1e-10) -> bool:
    sandwich = lmul_rmul(parity_op, parity_op)
    return bool(np.abs(sandwich @ s - s @ sandwich).max() <= tol)


# ---------------------------------------------------------------------------
# spectral decomposition with left/right pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMode:
    value: complex
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    modes: tuple[SpectralMode, ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([m.value for m in self.modes])

    def to_superoperator(self) -> np.ndarray:
        """Rebuild sum_i value_i |right_i><left_i|."""
        return sum(m.value * np.outer(vectorize(m.right), vectorize(m.left).conj())
                   for m in self.modes)


def _sort_order(values: np.ndarray) -> np.ndarray:
    # descending real part, then ascending imaginary part
    return np.lexsort((values.imag, -values.real))


def spectral_decompose(s: np.ndarray) -> SpectralDecomposition:
    """Eigenvalues with binormalized left/right eigenvector pairs.

    Eigenvalues are sorted by descending real part then ascending imaginary
    part; right eigenvectors are unit Hilbert-Schmidt norm with their
    largest-magnitude component made real positive.  Each <left_i| is row i
    of inv(V_R), so <left_i|right_j> = delta_ij holds inside degenerate
    groups as well.  Raises :class:`DefectiveMatrixError` when
    the condition number of V_R is not below 1e12 (a Jordan block or a
    near-defective cluster).
    """
    s = np.asarray(s, dtype=complex)
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    w, vr = np.linalg.eig(s)
    order = _sort_order(w)
    w = w[order]
    vr = vr[:, order]
    cond = np.linalg.cond(vr)
    if not cond < 1e12:
        raise DefectiveMatrixError(
            f"eigenvector matrix is near singular (condition number {cond:.2e})")
    lefts = np.linalg.inv(vr).conj().T

    modes = []
    for i in range(d2):
        r = vr[:, i]
        l = lefts[:, i]
        nrm = np.linalg.norm(r)
        r = r / nrm
        l = l * nrm
        peak = r[np.argmax(np.abs(r))]
        phase = peak / abs(peak)
        r = r / phase
        l = l * np.conj(phase)
        modes.append(SpectralMode(complex(w[i]), devectorize(r, d), devectorize(l, d)))
    return SpectralDecomposition(tuple(modes))


# ---------------------------------------------------------------------------
# canonical operator-sum decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausTerm:
    coefficient: float
    operator: np.ndarray
    parity: int


@dataclass(frozen=True)
class KrausSet:
    terms: tuple[KrausTerm, ...]

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms])

    @property
    def parities(self) -> np.ndarray:
        return np.array([t.parity for t in self.terms])

    def to_superoperator(self) -> np.ndarray:
        return sum(t.coefficient * np.kron(t.operator.conj(), t.operator) for t in self.terms)


@dataclass(frozen=True)
class JumpTerm:
    rate: float
    operator: np.ndarray
    parity: int


@dataclass(frozen=True)
class JumpSet:
    effective_hamiltonian: np.ndarray
    terms: tuple[JumpTerm, ...]

    @property
    def rates(self) -> np.ndarray:
        return np.array([t.rate for t in self.terms])

    @property
    def parities(self) -> np.ndarray:
        return np.array([t.parity for t in self.terms])

    def generator(self) -> np.ndarray:
        """Rebuild G from -iG = -i[H, .] + sum_a j_a D(J_a)."""
        return 1j * sum((t.rate * dissipator(t.operator) for t in self.terms),
                        -1j * commutator_superop(self.effective_hamiltonian))

    def _daggered(self) -> "JumpSet":
        """The same rates and Hamiltonian with every J replaced by J^dag."""
        return JumpSet(self.effective_hamiltonian,
                       tuple(replace(t, operator=t.operator.conj().T) for t in self.terms))

    def heisenberg_generator(self) -> np.ndarray:
        """Rebuild G^H from i G^H = i[H, .] + sum_a j_a D^H(J_a).

        D^H(J) = D(J^dag)^sadj, so G^H is the superadjoint of the
        Schroedinger generator of the daggered set.
        """
        return superadjoint(self._daggered().generator())


def _parity_sector_bases(parity_op: np.ndarray):
    """Orthonormal bases of the even/odd bipartite parity sectors."""
    pb = np.kron(np.asarray(parity_op), np.asarray(parity_op))
    w, u = np.linalg.eigh(0.5 * (pb + pb.conj().T))
    even = u[:, w > 0.0]
    odd = u[:, w < 0.0]
    return even, odd


def _sector_terms(choi: np.ndarray, sectors, tol: float):
    """Sorted (value, operator, parity) of choi's eigen-pairs in each parity
    sector (basis, parity) with |value| above tol; operators phase fixed."""
    d = int(round(np.sqrt(choi.shape[0])))
    terms = []
    for basis, par in sectors:
        block = basis.conj().T @ choi @ basis
        w, v = np.linalg.eigh(0.5 * (block + block.conj().T))
        vecs = basis @ v
        terms += [(float(x), _phase_fix(bipartite_to_operator(vecs[:, i], d)), par)
                  for i, x in enumerate(w) if abs(x) > tol]
    terms.sort(key=lambda t: (-t[0], -t[2]))
    return terms


def _phase_fix(m: np.ndarray) -> np.ndarray:
    flat = m.reshape(-1)
    peak = flat[np.argmax(np.abs(flat))]
    if peak == 0:
        return m
    return m * (abs(peak) / peak)


_COEFF_TOL = 1e-12   # Kraus coefficients below it (relative) are dropped
_HERM_TOL = 1e-10    # Choi Hermiticity and parity-covariance defects (relative)
_RATE_TOL = 1e-10    # jump rates below it (relative) are dropped
_RECON_TOL = 1e-9    # jump-expansion reconstruction defects (relative)


def canonical_kraus(s: np.ndarray, parity_op: np.ndarray) -> KrausSet:
    """Canonical measurement-operator sum of a parity-covariant map.

    Diagonalizes the Choi operator separately in the even and odd bipartite
    parity sectors, so every operator carries a definite parity even under
    coefficient degeneracies.  Coefficients are the real Choi eigenvalues,
    operators are unit-norm with the largest-magnitude entry made real
    positive.  Terms with |coefficient| below 1e-12 (relative) are dropped.
    """
    s = np.asarray(s, dtype=complex)
    c = choi_of(s)
    defect = np.abs(c - c.conj().T).max()
    scale = max(1.0, float(np.abs(c).max()))
    if defect > _HERM_TOL * scale:
        raise ReconstructionError(
            f"Choi operator is not Hermitian (defect {defect:.2e})")
    if not is_parity_covariant(s, parity_op, _HERM_TOL * scale):
        raise ParityCovarianceError("map does not commute with the parity sandwich")

    even, odd = _parity_sector_bases(parity_op)
    terms = _sector_terms(c, ((even, 1), (odd, -1)), _COEFF_TOL * scale)
    return KrausSet(tuple(KrausTerm(*t) for t in terms))


def _recover_b(choi: np.ndarray, dim: int) -> np.ndarray:
    """Operator B from the |1>-row of a Choi operator |1><B| + |B><1| + jumps.

    Returns B with Im(tr B) = 0; that component is pure gauge (a constant
    shift of the effective Hamiltonian).
    """
    one = bipartite_ket_one(dim)
    r = bipartite_to_operator(choi @ one, dim)
    tr_r = np.trace(r)
    b0 = (r - (tr_r / dim) * np.eye(dim)) / dim
    re_tr_b = tr_r.real / (2.0 * dim)
    return b0 + (re_tr_b / dim) * np.eye(dim)


def _vacuum_gauge(h: np.ndarray) -> np.ndarray:
    """Shift by a multiple of the identity so the (0, 0) element vanishes."""
    h = 0.5 * (h + h.conj().T)
    return h - h[0, 0].real * np.eye(h.shape[0])


def _gksl_core(gen: np.ndarray, parity_op: np.ndarray, preserved: str):
    gen = np.asarray(gen, dtype=complex)
    d = np.asarray(parity_op).shape[0]
    one = vectorize(np.eye(d))
    scale = max(1.0, float(np.abs(gen).max()))
    defect = np.abs(gen.conj().T @ one).max()
    if defect > 1e-9 * scale:
        raise ValueError(f"{preserved} preservation violated (defect {defect:.2e})")
    c = choi_of(-1j * gen)
    cd = np.abs(c - c.conj().T).max()
    if cd > 1e-9 * scale:
        raise ReconstructionError(f"Choi operator is not Hermitian (defect {cd:.2e})")
    if not is_parity_covariant(gen, parity_op, 1e-9 * scale):
        raise ParityCovarianceError("generator does not commute with the parity sandwich")

    even, odd = _parity_sector_bases(parity_op)
    # remove the maximally entangled direction from the even sector
    one_b = bipartite_ket_one(d) / np.sqrt(d)
    proj = even - np.outer(one_b, one_b.conj() @ even)
    q, r = np.linalg.qr(proj)
    keep = np.abs(np.diag(r)) > 1e-9
    even_c = q[:, keep]

    terms = [JumpTerm(*t) for t in _sector_terms(c, ((even_c, 1), (odd, -1)), _RATE_TOL * scale)]

    b = _recover_b(c, d)
    h = _vacuum_gauge(0.5j * (b - b.conj().T))   # -Im B

    # consistency: Hermitian part of B against the jump operators
    re_b = 0.5 * (b + b.conj().T)
    acc = sum(t.rate * (t.operator.conj().T @ t.operator) for t in terms)
    defect = np.abs(re_b + 0.5 * acc).max()
    if defect > _RECON_TOL * scale:
        raise ReconstructionError(
            f"Hermitian part of B inconsistent with jump rates (defect {defect:.2e})")

    jset = JumpSet(h, tuple(terms))
    resid = np.abs(jset.generator() - gen).max()
    if resid > _RECON_TOL * scale:
        raise ReconstructionError(f"jump expansion residual {resid:.2e}")
    return jset


def gksl_decompose(gen: np.ndarray, parity_op: np.ndarray) -> JumpSet:
    """Canonical jump expansion of a trace-preserving time-local generator.

    The input is G in ``d rho / dt = -i G rho``.  Jump operators are
    traceless, mutually orthonormal, of definite parity; rates are the Choi
    eigenvalues on the complement of the maximally entangled direction.  The
    effective Hamiltonian is recovered from the |1>-row of choi[-iG], gauge
    fixed so its (0, 0) element vanishes (vacuum energy zero), and checked
    against the jump rates through the Hermitian part of the row.
    """
    return _gksl_core(gen, parity_op, "trace")


def gksl_decompose_heisenberg(gen_h: np.ndarray, parity_op: np.ndarray) -> JumpSet:
    """Jump expansion of a unit-preserving Heisenberg generator.

    The input is G^H in ``d A / dt = +i G^H A``; dissipators carry the
    unit-preserving anticommutator placement ``{J J^dag, .}``.  Since
    D^H(J) = D(J^dag)^sadj, this is the Schroedinger expansion of the
    superadjoint (G^H)^sadj with every jump operator daggered.
    """
    return _gksl_core(superadjoint(gen_h), parity_op, "unit")._daggered()


# ---------------------------------------------------------------------------
# JSON serialization (row-major [re, im] pairs)
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize an operator or superoperator matrix with its conventions."""
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
