"""No-external-regret learners and the self-play driver.

Three update rules are provided: regret matching, regret matching+, and
multiplicative weights with a fixed-horizon step size.  Driving two of them
against each other with full-information feedback makes the time-averaged
joint play an empirical coarse-correlated equilibrium whose gap vanishes, and
therefore makes the averaged marginals an approximate Nash profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibrium import (
    JointDistribution,
    cce_gap,
    expected_joint_utility,
    marginal_profile,
    nash_gap,
)
from .games import Game, Player, StrategyProfile, payoff_scale


class Algo(Enum):
    REGRET_MATCHING = "rm"
    REGRET_MATCHING_PLUS = "rmplus"
    MULTIPLICATIVE_WEIGHTS = "mw"


class Averaging(Enum):
    EXPECTED = "expected"
    SAMPLED = "sampled"


# The only implementation of each update rule, on raw float arrays and with no
# validation; ``self_play`` validates its arguments and calls these.

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


def _eta(algo: Algo, num_actions: int, spread: float, horizon: int) -> float:
    """Multiplicative weights step size for payoffs spanning ``spread``; 0 for
    the other rules, a single action or a flat game."""
    if algo is Algo.MULTIPLICATIVE_WEIGHTS and num_actions > 1 and spread > 0:
        return math.sqrt(8.0 * math.log(num_actions) / horizon) / spread
    return 0.0


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

    Regret matching (+) plays the positive part of its cumulative regrets,
    normalized, and uniform when none is positive.  Multiplicative weights
    plays the softmax of its log-weights, which grow by ``eta`` times each
    round's utilities, with the fixed-horizon step size
    ``eta = sqrt(8 ln k / iters) / range`` for a player with ``k`` actions
    (0 when ``k = 1`` or the game is flat).  The rules see the payoffs
    divided by :func:`~cce2nash.games.payoff_scale`, a power of two, so the
    played strategies are those of the unscaled game, bit for bit away from
    subnormals, and cumulative regrets cannot overflow at any payoff scale.
    Checkpoints are measured on the original game.

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

    Raises:
        ValueError: on a bad argument, or a payoff range of 2**1023 or more.
    """
    algo = Algo(algo)
    col_algo = algo if col_algo is None else Algo(col_algo)
    averaging = Averaging(averaging)
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")

    rows, cols = game.shape
    scale = payoff_scale(game)
    payoff = game.payoff / scale
    row_eta = _eta(algo, rows, game.payoff_range / scale, iters)
    col_eta = _eta(col_algo, cols, game.payoff_range / scale, iters)
    row_cum, col_cum = np.zeros(rows), np.zeros(cols)
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

        row_cum = _update(algo, row_eta, row_cum, payoff @ y, x)
        col_cum = _update(col_algo, col_eta, col_cum, -(x @ payoff), y)

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
