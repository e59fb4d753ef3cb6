"""Zero-sum matrix game toolkit.

Core fact under test: the marginal strategies of any ε-coarse-correlated
equilibrium of a two-player zero-sum game form a 2ε-Nash equilibrium.  The
package provides the game and distribution types, the gap calculators, the
no-regret learners that produce empirical coarse-correlated equilibria through
self-play, and independent oracles (an exact LP value solver and brute-force
gap enumeration) to validate everything at desk scale.
"""

from .equilibrium import (
    BOUND_TOL,
    JOINT_FILE_SUM_TOL,
    CheckReport,
    GapReport,
    JointDistribution,
    TwoEpsCheck,
    ValueConsistency,
    analyze,
    cce_gap,
    expected_joint_utility,
    load_joint,
    marginal,
    marginal_profile,
    nash_gap,
    parse_joint,
    save_joint,
    two_eps_check,
    value_consistency_check,
)
from .games import (
    PROB_SUM_TOL,
    FormatError,
    Game,
    MixedStrategy,
    Player,
    StrategyProfile,
    expected_utility,
    format_game,
    load_game,
    make_zero_sum,
    parse_game,
    save_game,
)
from .learners import (
    Algo,
    Averaging,
    Checkpoint,
    SelfPlayResult,
    self_play,
    trajectory_csv,
)
from .oracle import (
    BruteForceGaps,
    SimplexLimitExceeded,
    ValueSolution,
    brute_force_gaps,
    exact_value,
)

__all__ = [
    "BOUND_TOL",
    "JOINT_FILE_SUM_TOL",
    "PROB_SUM_TOL",
    "Algo",
    "Averaging",
    "BruteForceGaps",
    "CheckReport",
    "Checkpoint",
    "FormatError",
    "Game",
    "GapReport",
    "JointDistribution",
    "MixedStrategy",
    "Player",
    "SelfPlayResult",
    "SimplexLimitExceeded",
    "StrategyProfile",
    "TwoEpsCheck",
    "ValueConsistency",
    "ValueSolution",
    "analyze",
    "brute_force_gaps",
    "cce_gap",
    "exact_value",
    "expected_joint_utility",
    "expected_utility",
    "format_game",
    "load_game",
    "load_joint",
    "make_zero_sum",
    "marginal",
    "marginal_profile",
    "nash_gap",
    "parse_game",
    "parse_joint",
    "save_game",
    "save_joint",
    "self_play",
    "trajectory_csv",
    "two_eps_check",
    "value_consistency_check",
]
