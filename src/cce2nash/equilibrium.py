"""Joint distributions over pure profiles, marginals, and equilibrium gap checks.

The central objects are a joint distribution ``mu`` over matrix cells and the
two gap notions attached to it: the coarse-correlated gap (how much a player
can gain by committing to a fixed deviation while the opponent keeps following
``mu``) and the Nash gap of a strategy profile (best-response improvement).
Both are computed by enumerating pure deviations, which suffices because the
expected utility is linear in each player's own strategy.

The CCE gap of ``mu`` and the Nash gap of its marginals ``(x, y)`` score the
same deviation payoffs ``A @ y`` and ``x @ A`` against the joint payoff
``sum(mu * A)`` and the profile payoff ``x A y`` respectively, so per player
``nash_gain = cce_gain ± (joint payoff − profile payoff)``.  ``_measure``
computes each of these once, for ``analyze``, ``cce_gap`` and every self-play
checkpoint.  Every gap is scored on :attr:`Game.centered`, the payoffs minus
their exact shift: the gaps do not change under a shift, and a game offset
far from 0 would otherwise round each gain to the offset's ulp.  A payoff
range of 2**1023 or more, whose gains would overflow, never gets here:
:class:`~cce2nash.games.Game` refuses it when it is made.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .games import (
    PROB_SUM_TOL,
    FormatError,
    Game,
    MixedStrategy,
    StrategyProfile,
    _check_shape,
    _distribution,
    format_matrix,
    load_file,
    parse_matrix,
    write_text_atomic,
)

__all__ = [
    "BOUND_TOL",
    "CheckReport",
    "GapReport",
    "JointDistribution",
    "TwoEpsCheck",
    "ValueConsistency",
    "analyze",
    "cce_gap",
    "expected_joint_utility",
    "load_joint",
    "marginal_profile",
    "nash_gap",
    "parse_joint",
    "save_joint",
]

# Slack on both gap inequalities, as a fraction of the largest |payoff|.  The
# inequalities hold exactly, so the slack only absorbs rounding, which follows
# the payoffs' magnitude (an offset game rounds at its offset, not its range)
# and stays near 1e-15 of it at desk scale (<= 400 cells).
BOUND_TOL = 1e-9

# Distribution files are accepted when their mass sums to 1 within this bound;
# renormalization is refused, the file is rejected instead.
JOINT_FILE_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A single probability distribution over pure-strategy profiles (cells).

    Unlike a :class:`StrategyProfile`, the mass may correlate the players.
    """

    mass: np.ndarray
    sum_tol: InitVar[float] = PROB_SUM_TOL

    def __post_init__(self, sum_tol: float):
        object.__setattr__(self, "mass", _distribution(self.mass, 2, sum_tol))

    @property
    def rows(self) -> int:
        return self.mass.shape[0]

    @property
    def cols(self) -> int:
        return self.mass.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.mass.shape

    def __eq__(self, other):
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return np.array_equal(self.mass, other.mass)


@dataclass(frozen=True)
class GapReport:
    """Best deviation gains per player and the equilibrium level they imply.

    ``row_gain``/``col_gain`` are the raw best pure-deviation gains and may be
    negative; ``epsilon`` clips them below at zero, since a negative best gain
    still certifies a 0-level equilibrium.  Ties among best deviations break
    toward the lowest action index, so reports are deterministic.
    """

    row_gain: float
    col_gain: float
    row_deviation: int
    col_deviation: int

    @property
    def epsilon(self) -> float:
        return max(0.0, self.row_gain, self.col_gain)


@dataclass(frozen=True)
class ValueConsistency:
    """Gap between the joint's expected payoff and its marginals' payoff."""

    lhs: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class TwoEpsCheck:
    """Nash level of the marginal profile against twice the joint's CCE level."""

    cce_eps: float
    nash_eps: float
    holds: bool

    @classmethod
    def from_levels(cls, cce_eps: float, nash_eps: float, slack: float) -> "TwoEpsCheck":
        """The paper's inequality: ``nash_eps <= 2 * cce_eps``, within ``slack``."""
        return cls(
            cce_eps=cce_eps, nash_eps=nash_eps, holds=bool(nash_eps <= 2.0 * cce_eps + slack)
        )


@dataclass(frozen=True)
class CheckReport:
    """Everything ``check`` reports about a joint distribution against a game."""

    cce: GapReport
    nash_of_marginals: GapReport
    value_consistency: ValueConsistency
    two_eps: TwoEpsCheck
    tolerance: float


def bound_slack(game: Game) -> float:
    """Slack both gap inequalities get on ``game``: ``BOUND_TOL`` times its
    largest |payoff|, so scaling the payoffs by a power of two scales it exactly."""
    # Not max(high, -low): on an all -0.0 game that is -0.0.
    return BOUND_TOL * max(abs(game.high), abs(game.low))


def _marginal(mass: np.ndarray, axis: int) -> np.ndarray:
    sums = mass.sum(axis=axis)
    return sums / sums.sum()


def marginal_profile(mu: JointDistribution) -> StrategyProfile:
    """Both players' marginal strategies: the joint mass summed over the
    opponent, normalized by the total mass so each is a valid probability
    vector even when the joint was loaded at the looser file tolerance."""
    return StrategyProfile(
        row=MixedStrategy(_marginal(mu.mass, 1)), col=MixedStrategy(_marginal(mu.mass, 0))
    )


def expected_joint_utility(mu: JointDistribution, game: Game) -> float:
    """The row player's expected payoff when the cell is drawn from ``mu``; the
    column player's is its negation.  It is summed on :attr:`Game.centered` and
    the shift added back, as every self-play checkpoint's ``avg_row_payoff`` is."""
    _check_shape(game, mu.shape, "joint distribution")
    value = float((mu.mass * game.centered).sum())
    return value + game.shift if game.shift else value


def _best_deviation(ay: np.ndarray, xa: np.ndarray, base_row: float) -> GapReport:
    """Best pure-deviation gains over ``base_row``, the row payoff of the play
    deviated from, given the deviation payoffs ``ay = A @ y`` and ``xa = x @ A``."""
    row_gains = ay - base_row
    col_gains = -xa + base_row
    row_best = int(np.argmax(row_gains))
    col_best = int(np.argmax(col_gains))
    return GapReport(
        row_gain=float(row_gains[row_best]),
        col_gain=float(col_gains[col_best]),
        row_deviation=row_best,
        col_deviation=col_best,
    )


def _profile_terms(payoff: np.ndarray, x: np.ndarray, y: np.ndarray):
    """``A @ y``, ``x @ A`` and the profile row payoff ``(x @ A) @ y``."""
    ay, xa = payoff @ y, x @ payoff
    return ay, xa, float(xa @ y)


def _measure(payoff: np.ndarray, mass: np.ndarray) -> tuple[GapReport, GapReport, float, float]:
    """CCE gap, marginals' Nash gap, joint row payoff and profile row payoff of
    a ``mass`` shaped like ``payoff``; validates nothing."""
    ay, xa, profile_value = _profile_terms(payoff, _marginal(mass, 1), _marginal(mass, 0))
    joint_value = float((mass * payoff).sum())
    cce, nash = _best_deviation(ay, xa, joint_value), _best_deviation(ay, xa, profile_value)
    return cce, nash, joint_value, profile_value


def cce_gap(mu: JointDistribution, game: Game) -> GapReport:
    """Best fixed-deviation gains against ``mu`` for both players.

    Only pure deviations are enumerated: by linearity the best mixed deviation
    never beats the best pure one, so the maximum over all of them is attained
    at a pure strategy.
    """
    _check_shape(game, mu.shape, "joint distribution")
    return _measure(game.centered, mu.mass)[0]


def nash_gap(profile: StrategyProfile, game: Game) -> GapReport:
    """Best unilateral-deviation gains against a strategy profile.

    Pure best responses suffice by linearity; ``epsilon`` is zero exactly at a
    Nash equilibrium and measures exploitability otherwise.
    """
    _check_shape(game, (len(profile.row), len(profile.col)), "profile")
    return _best_deviation(*_profile_terms(game.centered, profile.row.probs, profile.col.probs))


def analyze(mu: JointDistribution, game: Game) -> CheckReport:
    """Both gaps of ``mu`` and the two bounds they must satisfy, from one
    :func:`_measure` call.

    Both gaps score the deviation payoffs ``A @ y`` and ``x @ A`` of the
    marginals ``(x, y)``, so ``nash_gain = cce_gain ± (joint payoff − profile
    payoff)`` per player.  The value-consistency bound compares those two
    payoffs.  Only the row player's payoffs are evaluated: the game is
    zero-sum, so the column player's are their negation.  Swapping the roles
    (``mu.mass.T`` on ``-A.T``) trades the row and column gains and leaves
    ``value_consistency.lhs`` as it is, as
    ``tests/test_equilibrium.py::test_swapping_the_players_trades_their_gains``
    asserts.  Both bounds get the slack :func:`bound_slack`, reported as
    ``tolerance``.
    """
    _check_shape(game, mu.shape, "joint distribution")
    cce, nash, joint_value, profile_value = _measure(game.centered, mu.mass)
    lhs = abs(joint_value - profile_value)
    tol = bound_slack(game)
    return CheckReport(
        cce=cce,
        nash_of_marginals=nash,
        value_consistency=ValueConsistency(
            lhs=lhs, bound=cce.epsilon, holds=bool(lhs <= cce.epsilon + tol)
        ),
        two_eps=TwoEpsCheck.from_levels(cce.epsilon, nash.epsilon, tol),
        tolerance=tol,
    )


# One-field views of :func:`analyze`, not exported: kept only because
# ``perfbench/spans.py`` ``TARGETS`` traces them by name.
def value_consistency_check(mu: JointDistribution, game: Game) -> ValueConsistency:
    return analyze(mu, game).value_consistency


def two_eps_check(mu: JointDistribution, game: Game) -> TwoEpsCheck:
    return analyze(mu, game).two_eps


# ---------------------------------------------------------------------------
# Joint-distribution text format: same layout and comment rules as the game
# format, with nonnegative decimals summing to 1.

def parse_joint(text: str) -> JointDistribution:
    """Parse a joint distribution, rejecting rather than renormalizing bad mass."""
    mass = parse_matrix(text, what="joint distribution")
    try:
        return JointDistribution(mass, sum_tol=JOINT_FILE_SUM_TOL)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_joint(path) -> JointDistribution:
    return load_file(path, parse_joint)


def save_joint(mu: JointDistribution, path) -> None:
    write_text_atomic(path, format_matrix(mu.mass))
