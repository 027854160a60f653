"""Platform competition under content moderation: equilibria of the
sender-versus-networked-users game and the strictest enforceable regulation."""

from .adoption import (
    Assignment,
    EquilibriumOutcome,
    best_response,
    nash_check,
    run_adoption,
)
from .analytic import (
    FamilySpec,
    SbmAnalyticSpec,
    beta_j,
    boundary_b_a,
    rho_se_linear_infinite,
    sbm_boundary_b_a,
    sbm_threshold,
    scaling_presets,
    threshold_rho0,
    ustar_b_linear_infinite,
)
from .errors import ContractViolationError, InvalidParamsError, InvariantViolationError
from .experiments import (
    A1Report,
    HeatmapGrid,
    NetworkRecipe,
    SweepSpec,
    chain_theta,
    complete_theta,
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
    receive_probs,
    validate_profiles,
)
from .model import (
    ModelParams,
    Platform,
    UserProfile,
    news_payoff,
    sender_utility,
    social_payoff,
    trust_threshold,
    user_utility,
)
from .regulation import (
    RegulationKind,
    RegulationResult,
    SenderDecision,
    optimal_B,
    sender_equilibrium,
    strictest_effective_regulation,
    utility_on_A,
)

__version__ = "0.1.0"
