"""Simulator and analysis toolkit for interlinked-context noncontextuality
tests on entangled spin pairs: exact quantum predictions, classical
two-valued-state enumeration, and reproducible simulated runs."""

from .correlations import (
    CriterionReport,
    JointTable,
    UniquenessReport,
    contextuality_criterion,
    expectation,
    joint_distribution,
    marginals,
    sequential_link_test,
    verify_uniqueness,
)
from .errors import (
    BadCellIndexError,
    ContextsimError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    NoConvergenceError,
    NonNegligibleImaginaryPartError,
    NonOrthonormalBasisError,
    NotHermitianError,
    ShapeMismatchError,
    UnsupportedDimensionError,
    ZeroVectorError,
)
from .greechie import (
    GreechieDiagram,
    TwoValuedState,
    diagram_from_contexts,
    diagram_to_dict,
    is_separating,
    link_atoms,
    rays_match,
    two_valued_states,
)
from .linalg import (
    fix_phase,
    hermitian_eigensystem,
    is_hermitian,
    is_unitary,
    projector_from_ray,
)
from .observables import (
    ContextOperator,
    Direction,
    FourDimContexts,
    RaySet,
    context_from_basis,
    four_dim_contexts,
    ks_context,
    ks_context_prime,
    spin1_eigensystem,
    spin1_operator,
)
from .sampler import (
    EmpiricalReport,
    derive_batch_seed,
    empirical_report,
    sample,
    write_shot_csv,
)
from .scenarios import SCENARIOS, Scenario
from .states import (
    BipartiteState,
    DensityMatrix,
    check_rotation_invariance,
    density,
    rotation_operator_spin1,
    singlet,
    spin1_singlet,
    spin32_singlet,
    unitary_invariance_defect,
)

__version__ = "0.1.0"
