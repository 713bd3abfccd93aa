"""Tight CHSH bounds for two-valued qubit observables of arbitrary
strength and bias, with attaining measurement constructions, an
independent numerical oracle, and joint-measurability checks."""

from .errors import (
    BellboundError,
    ConstraintError,
    ConstructionError,
    DomainError,
    InternalConsistencyError,
    InvalidInputError,
    UnphysicalStateError,
)
from .linalg import (
    SvdFactors,
    complete_frame,
    frame_from_pair,
    hermitian_eigenvalues_4,
    matrix_to_axis_angle,
    singular_values,
    svd,
)
from .model import (
    FanoState,
    Observable,
    Scenario,
    StrengthQuad,
    bell_diagonal,
    correlation_singular_values,
    make_observable,
    random_observable,
    random_rotation,
    random_state,
    scenario_from_directions,
    singlet,
    state_from_density,
    state_from_fano,
    werner,
)
from .chsh import ChshVariants, bias_combination, chsh, chsh_matrix_form, chsh_signed, expectation, n_matrix
from .bounds import (
    BoundReport,
    WBundle,
    compat_busch,
    compat_full,
    compat_necessary,
    cor1_bound,
    cor2_sufficient,
    cor4_bound,
    horodecki,
    j_max,
    max_reversibility,
    s0_bound,
    s0_tilde,
    sgen_bound,
    st_bound,
    st_tilde,
    strength_thresholds,
    thm3_bound,
    thm4_bound,
    thm4_branch,
    w_bundle,
)
from .construct import (
    ACHIEVABLE,
    AchievingConfig,
    achieve,
    achieving_biases,
    achieving_directions,
    achieving_scenario_tstate,
    reference_frames,
    thm3_achieving,
)
from .oracle import (
    OptimizeResult,
    OptimizeSpec,
    exhaustive_bias_max,
    extremal_bias_patterns,
    maximize_chsh,
)
from .optimize import AUDIT_CRITERIA, AuditReport, AuditRow, audit_bound

__version__ = "0.1.0"
