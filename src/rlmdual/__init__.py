"""Exact resonant-level open dynamics and its fermionic duality relations."""

from .scalars import (
    ModelParams,
    QuadratureError,
    PoleError,
    k_of_t,
    g_of_t,
    g_dual_of_t,
    g_stationary,
    p_of_t,
    digamma_complex,
    k_hat,
)
from .liouville import (
    BASIS_CONVENTION,
    DefectiveMatrixError,
    ParityCovarianceError,
    ReconstructionError,
    vectorize,
    devectorize,
    lmul_rmul,
    superadjoint,
    commutator_superop,
    dissipator,
    parity_superop,
    choi_of,
    superop_from_choi,
    choi_duality_transform,
    is_tp,
    is_cp,
    is_hermiticity_preserving,
    spectral_decompose,
    SpectralDecomposition,
    canonical_kraus,
    KrausSet,
    gksl_decompose,
    gksl_decompose_heisenberg,
    JumpSet,
)
from .model import (
    RlmProvider,
    PoleCatalog,
    pole_catalog,
    DIVERGES,
    divisibility_max,
)
from .verify import (
    QuadratureConfig,
    DEFAULT_QUAD,
    SuperOpFamily,
    ResidualReport,
    rlm_family,
    perturbed_family,
    run_suite,
    family_to_json,
    family_from_json,
    run_tabulated_suite,
)
from .markov import (
    ALWAYS,
    NEVER,
    SlipOperator,
    semigroup_propagator,
    slip_operator,
    slip_propagator,
    cp_onset_time,
    breakdown_locator,
    heisenberg_stationary_generator,
    regularized_slip_limit,
)

__version__ = "0.1.0"
