"""Numerical toolkit for hyperbolicity, shadowing, and conjugacy questions
about linear dynamics on sequence spaces and small dense matrices.

The public surface groups into: vectors and operators (linalg, operators),
splittings and classification (splitting), pseudo-orbits and shadowing
bounds (shadowing, linf), expansivity and hypercyclicity diagnostics
(expansivity, hypercyclic), perturbation conjugacies (stability), and the
homoclinic structure of generalized hyperbolic examples (homoclinic).
"""

from .errors import (
    BadFactor,
    CannotSeparate,
    CircleEigenvalue,
    ConfigInvalid,
    HypothesisFailed,
    InvalidSplitting,
    KindMismatch,
    LindynError,
    NoConvergence,
    NonContracting,
    NonFinite,
    NotAChain,
    NotCertified,
    NotContraction,
    NotContractiveSpectrum,
    NotHomoclinic,
    NotInvertible,
    ReportIOError,
    TrajectoryBudget,
)
from .linalg import (
    L1,
    L2,
    LINF,
    NORM_TAGS,
    DenseVector,
    SparseBiSeq,
    banach_fixed_point,
    dense_eig,
)
from .operators import (
    BackwardScaledOp,
    CompositionOp,
    DenseOp,
    DiagonalOp,
    LinOp,
    ShiftOp,
    op_from_config,
    op_to_config,
    operator_report,
)
from .splitting import (
    GENERALIZED,
    HYPERBOLIC,
    NEITHER,
    UNDETERMINED,
    CoordinateSplit,
    HyperbolicityReport,
    SpectralSplit,
    classify,
    composition_gh_check,
    resolvent_norm_S,
    resolvent_norm_U_inv,
    spectral_split,
)
from .shadowing import (
    PseudoOrbit,
    ShadBounds,
    ShadInterval,
    ShadowResult,
    generate_pseudo_orbit,
    pseudo_orbit,
    series_constants,
    shad_bounds,
    shad_calculus,
    shad_conjugate,
    shad_inverse,
    shad_product,
    shadow_contraction,
    shadow_splitting_series,
    shadow_window_solve,
    verify_shadow,
)
from .expansivity import (
    EXPANSIVE,
    NOT_EXPANSIVE,
    central_window_growth,
    ecs_membership,
    expansive_eigen_test,
    expansivity_scan,
    uniform_expansivity_search,
)
from .linf import (
    WindowedLinf,
    linf_apply,
    linf_injectivity_margin,
    shad_estimate_linf,
    shadowing_robustness_scan,
)
from .hypercyclic import (
    CriterionData,
    WitnessResult,
    adjoint_eigen_obstruction,
    criterion_witness,
    rolewicz,
)
from .stability import (
    BumpPerturbation,
    ConstantField,
    ConjugacySolution,
    LocalLinearization,
    conjugacy_residual,
    conjugacy_solve,
    gamma_eval,
    grobman_hartman_local,
    inverse_conjugacy,
    inverse_residual,
    verify_contractive_sum,
)
from .homoclinic import (
    chain_combine,
    chain_scale,
    homoclinic_core_approximate,
    homoclinic_core_member,
    homoclinic_dichotomy,
    is_homoclinic,
)
from . import gallery

__version__ = "0.1.0"
