"""Platform competition under content moderation: equilibria of the
sender-versus-networked-users game and the strictest enforceable regulation."""

from .adoption import (
    Assignment,
    EquilibriumOutcome,
    run_adoption,
)
from .analytic import (
    FamilySpec,
    SbmAnalyticSpec,
    boundary_b_a,
    rho_se_linear_infinite,
    sbm_boundary_b_a,
    sbm_threshold,
    scaling_presets,
    threshold_rho0,
    ustar_b_linear_infinite,
)
from .errors import InvalidParamsError, InvariantViolationError
from .experiments import (
    A1Report,
    HeatmapGrid,
    NetworkRecipe,
    SweepSpec,
    chain_theta,
    emit_csv,
    emit_pgm,
    irregular_choices,
    sweep,
    validate_assumption1,
)
from .graph import (
    Network,
    SbmSpec,
    gen_linear,
    gen_regular_tree,
    gen_sbm,
    gen_star_chain,
)
from .model import (
    ModelParams,
    Platform,
    UserProfile,
    trust_threshold,
)
from .regulation import (
    RegulationKind,
    RegulationResult,
    SenderDecision,
    optimal_B,
    sender_equilibrium,
    strictest_effective_regulation,
)

__version__ = "0.1.0"
