"""Games on command hierarchies.

A two-move base game is played by executives embedded in a weighted
directed hierarchy.  Top vertices issue command vectors that propagate
down through noisy weighted votes; expected payoffs flow back up through
a share mechanism, inducing a normal-form game among the top vertices.
The same graph also defines a coupled Ising model, exposed side by side
with closed forms for chains and with forward sampling.  The two laws
differ in general; `semantics_agree` says where they are the same.
"""

from .builders import crossed_chains, single_chain, two_decider_chain
from .errors import (
    CyclicGraphError,
    DegenerateInfluenceError,
    EnumerationCapError,
    GameFormatError,
    GraphFormatError,
    HierGameError,
    MultiEdgeError,
)
from .game import (
    COOPERATION_PROFILE,
    PD_V1_PROFILE,
    PD_V2_PROFILE,
    REGIME_BOUNDARY,
    REGIME_COOPERATION,
    REGIME_PD_V1,
    REGIME_PD_V2,
    NormalFormGame,
    RegimeSummary,
    TransformedGame,
    best_response_profiles,
    classify_regime,
    game_from_dict,
    game_to_dict,
    game_value,
    load_game,
    nash_mask,
    pre_payoff,
    prisoners_dilemma,
    pure_nash,
    regime_map,
    save_game,
    symmetric_best_responses,
    symmetric_nash,
    symmetric_payoffs,
    symmetric_transform,
    tipping_points,
    transform_game,
)
from .graph import (
    Edge,
    HierarchyGraph,
    ValidationReport,
    Vertex,
    deciders,
    executives,
    graph_from_dict,
    graph_to_dict,
    has_directed_cycle,
    load_graph,
    nodes_between,
    save_graph,
    semantics_agree,
    validate_graph,
)
from .ising import (
    IsingModel,
    chain_conditional,
    chain_xy,
    coupling_from_hierarchy,
    ising_conditional,
    ising_joint,
)
from .payoff import (
    ShareMatrix,
    shares_by_paths,
)
from .vote import (
    ConditionalDistribution,
    VoteParams,
    conditional_influence,
    influence_table,
    outcome_probability,
    partition_function,
    sample_counts,
    sample_many,
    sigma_for_beta,
    single_vote_prob,
)

__version__ = "0.1.0"

__all__ = [
    "HierGameError", "GraphFormatError", "GameFormatError", "CyclicGraphError",
    "EnumerationCapError", "MultiEdgeError", "DegenerateInfluenceError",
    "Vertex", "Edge", "HierarchyGraph", "ValidationReport", "validate_graph",
    "deciders", "executives", "has_directed_cycle", "nodes_between",
    "semantics_agree", "graph_to_dict", "graph_from_dict", "load_graph", "save_graph",
    "VoteParams", "sigma_for_beta", "outcome_probability", "single_vote_prob",
    "ConditionalDistribution", "conditional_influence", "partition_function",
    "sample_many", "sample_counts", "influence_table",
    "IsingModel", "coupling_from_hierarchy", "ising_joint", "ising_conditional",
    "chain_conditional", "chain_xy",
    "ShareMatrix", "shares_by_paths",
    "NormalFormGame", "prisoners_dilemma", "game_to_dict", "game_from_dict",
    "load_game", "save_game", "pre_payoff", "TransformedGame",
    "transform_game", "pure_nash", "nash_mask", "symmetric_transform",
    "symmetric_payoffs", "symmetric_nash", "symmetric_best_responses",
    "best_response_profiles", "RegimeSummary", "tipping_points", "regime_map",
    "classify_regime", "game_value",
    "REGIME_PD_V1", "REGIME_COOPERATION", "REGIME_PD_V2", "REGIME_BOUNDARY",
    "PD_V1_PROFILE", "COOPERATION_PROFILE", "PD_V2_PROFILE",
    "single_chain", "two_decider_chain", "crossed_chains",
    "__version__",
]
