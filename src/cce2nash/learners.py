"""No-external-regret learners and the self-play driver.

Three update rules are provided: regret matching, regret matching+, and
multiplicative weights with a fixed-horizon step size.  Driving two of them
against each other with full-information feedback makes the time-averaged
joint play an empirical coarse-correlated equilibrium whose gap vanishes, and
therefore makes the averaged marginals an approximate Nash profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .equilibrium import (
    JointDistribution,
    cce_gap,
    expected_joint_utility,
    marginal_profile,
    nash_gap,
)
from .games import Game, MixedStrategy, Player, StrategyProfile


class Algo(Enum):
    REGRET_MATCHING = "rm"
    REGRET_MATCHING_PLUS = "rmplus"
    MULTIPLICATIVE_WEIGHTS = "mw"


class Averaging(Enum):
    EXPECTED = "expected"
    SAMPLED = "sampled"


@dataclass(frozen=True, eq=False)
class LearnerState:
    """Bookkeeping for one no-external-regret learner.

    ``cumulative`` holds cumulative regrets for regret matching (+) and
    log-weights for multiplicative weights.  ``eta`` is the multiplicative
    weights step size, 0 for the other rules.
    """

    algo: Algo
    cumulative: np.ndarray
    t: int
    eta: float

    @classmethod
    def fresh(cls, algo, num_actions: int, payoff_range: float, horizon: int) -> "LearnerState":
        """Zeroed state for a learner with ``num_actions`` actions.

        For multiplicative weights the step size is fixed from the planned
        horizon, ``eta = sqrt(8 ln k / horizon) / payoff_range``: the classic
        fixed-horizon tuning rescaled to payoffs spanning ``payoff_range``.
        """
        algo = Algo(algo)
        if num_actions < 1:
            raise ValueError("num_actions must be at least 1")
        if payoff_range < 0:
            raise ValueError("payoff_range must be nonnegative")
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        eta = 0.0
        if algo is Algo.MULTIPLICATIVE_WEIGHTS and num_actions > 1 and payoff_range > 0:
            eta = math.sqrt(8.0 * math.log(num_actions) / horizon) / payoff_range
        return cls(algo=algo, cumulative=np.zeros(num_actions), t=0, eta=eta)


# The only implementation of each update rule, on raw float arrays and with no
# validation; ``next_strategy``/``observe`` and ``self_play`` all call these.

def _play(algo: Algo, cumulative: np.ndarray) -> np.ndarray:
    if algo is Algo.MULTIPLICATIVE_WEIGHTS:
        weights = np.exp(cumulative - cumulative.max())  # overflow guard
        return weights / weights.sum()
    positive = np.maximum(cumulative, 0.0)
    total = positive.sum()
    if total <= 0.0:
        return np.full(len(cumulative), 1.0 / len(cumulative))
    return positive / total


def _update(
    algo: Algo, eta: float, cumulative: np.ndarray, utilities: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    if algo is Algo.MULTIPLICATIVE_WEIGHTS:
        return cumulative + eta * utilities
    cumulative = cumulative + (utilities - float(probs @ utilities))
    if algo is Algo.REGRET_MATCHING_PLUS:
        cumulative = np.maximum(cumulative, 0.0)
    return cumulative


def next_strategy(state: LearnerState) -> MixedStrategy:
    """Current strategy implied by the learner's bookkeeping.

    Regret matching (+) normalizes the positive part of the cumulative regrets
    and falls back to uniform when none are positive; multiplicative weights
    takes the softmax of the log-weights.
    """
    return MixedStrategy(_play(state.algo, state.cumulative))


def observe(state: LearnerState, action_utilities, played: MixedStrategy) -> LearnerState:
    """Fold one round of full-information feedback into the learner.

    ``action_utilities[a]`` is this player's expected utility for pure action
    ``a`` against the opponent's current strategy; ``played`` is the strategy
    the learner just used.  Returns the updated state; the input is unchanged.
    """
    utilities = np.asarray(action_utilities, dtype=float)
    k = state.cumulative.shape[0]
    if utilities.ndim != 1 or utilities.shape[0] != k:
        raise ValueError(f"expected {k} action utilities, got shape {utilities.shape}")
    if len(played) != k:
        raise ValueError(f"played strategy has length {len(played)}, expected {k}")
    cumulative = _update(state.algo, state.eta, state.cumulative, utilities, played.probs)
    return replace(state, cumulative=cumulative, t=state.t + 1)


@dataclass(frozen=True)
class Checkpoint:
    t: int
    cce_eps: float
    nash_eps: float
    avg_row_payoff: float


@dataclass(frozen=True, eq=False)
class SelfPlayResult:
    """Averaged play of one self-play run.

    ``avg_profile`` is exactly ``marginal_profile(empirical_joint)``: the
    per-player average strategies are read off the averaged joint, so the
    Nash gap reported for them is the one ``check`` computes for that joint.
    """

    empirical_joint: JointDistribution
    avg_profile: StrategyProfile
    trajectory: tuple[Checkpoint, ...]


def _sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    # One uniform draw mapped through the inverse CDF.
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


def self_play(
    game: Game,
    algo,
    iters: int,
    seed: int = 0,
    averaging=Averaging.EXPECTED,
    log_every: int = 1000,
    col_algo=None,
) -> SelfPlayResult:
    """Run synchronized full-information self-play and average the joint play.

    Each round, every player observes the vector of expected payoffs of all
    its pure actions against the opponent's current mixed strategy.  With
    ``expected`` averaging, the empirical joint accumulates the outer product
    of the two current strategies; with ``sampled`` averaging, one pure
    profile per round is drawn from their product distribution (row draw
    first, then column, one uniform each from a PCG64 generator seeded with
    ``seed``) and a point mass is accumulated.  Results are deterministic
    given ``(algo, col_algo, iters, seed, averaging)``.

    Args:
        game: zero-sum game to play.
        algo: update rule, an :class:`Algo` or its string value.
        iters: number of rounds, at least 1.
        seed: 64-bit seed for the sampled-averaging generator.
        averaging: ``expected`` or ``sampled``.
        log_every: checkpoint spacing for the trajectory; the final round is
            always a checkpoint.
        col_algo: optional different update rule for the column player;
            defaults to ``algo`` for both.

    Returns:
        :class:`SelfPlayResult` with the averaged joint distribution, its
        marginal profile, and the checkpoint trajectory.
    """
    algo = Algo(algo)
    col_algo = algo if col_algo is None else Algo(col_algo)
    averaging = Averaging(averaging)
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")

    payoff = game.payoff
    rows, cols = game.shape
    # The public states are built once, for their validated zeros and eta.
    row_state = LearnerState.fresh(algo, rows, game.payoff_range, iters)
    col_state = LearnerState.fresh(col_algo, cols, game.payoff_range, iters)
    row_cum, col_cum = row_state.cumulative, col_state.cumulative
    rng = np.random.default_rng(seed)

    joint_acc = np.zeros((rows, cols))
    trajectory = []

    for t in range(1, iters + 1):
        x = _play(algo, row_cum)
        y = _play(col_algo, col_cum)

        if averaging is Averaging.EXPECTED:
            joint_acc += np.outer(x, y)
        else:
            r = _sample_index(rng, x)
            c = _sample_index(rng, y)
            joint_acc[r, c] += 1.0

        row_cum = _update(algo, row_state.eta, row_cum, payoff @ y, x)
        col_cum = _update(col_algo, col_state.eta, col_cum, -(x @ payoff), y)

        if t % log_every == 0 or t == iters:
            # Normalizing by the accumulated float total (rather than by t)
            # keeps the average summing to 1 within rounding for long runs.
            joint = JointDistribution(joint_acc / joint_acc.sum())
            profile = marginal_profile(joint)
            trajectory.append(
                Checkpoint(
                    t=t,
                    cce_eps=cce_gap(joint, game).epsilon,
                    nash_eps=nash_gap(profile, game).epsilon,
                    avg_row_payoff=expected_joint_utility(joint, game, Player.ROW),
                )
            )

    # The final round is always a checkpoint; its joint and profile are the result.
    return SelfPlayResult(
        empirical_joint=joint, avg_profile=profile, trajectory=tuple(trajectory)
    )


def trajectory_csv(trajectory) -> str:
    """Render checkpoints as CSV with full-precision decimals."""
    lines = ["t,cce_eps,nash_eps,avg_row_payoff"]
    for point in trajectory:
        lines.append(
            f"{point.t},{point.cce_eps:.17g},{point.nash_eps:.17g},"
            f"{point.avg_row_payoff:.17g}"
        )
    return "\n".join(lines) + "\n"
