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

from .equilibrium import JointDistribution, _measure, marginal_profile
from .games import Game, StrategyProfile, payoff_scale


class Algo(Enum):
    REGRET_MATCHING = "rm"
    REGRET_MATCHING_PLUS = "rmplus"
    MULTIPLICATIVE_WEIGHTS = "mw"


class Averaging(Enum):
    EXPECTED = "expected"
    SAMPLED = "sampled"


# The only implementation of each update rule, on raw float arrays and with no
# validation; ``self_play`` validates its arguments and calls these.  Each writes
# its result into ``out`` when given (an array of the right length that shares
# no memory with the inputs) and into a new array otherwise.

def _play(algo: Algo, cumulative: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if algo is Algo.MULTIPLICATIVE_WEIGHTS:
        weights = np.subtract(cumulative, np.maximum.reduce(cumulative), out=out)  # overflow guard
        np.exp(weights, out=weights)
        return np.divide(weights, np.add.reduce(weights), out=weights)
    positive = np.maximum(cumulative, 0.0, out=out)
    total = np.add.reduce(positive)
    if total <= 0.0:
        positive.fill(1.0 / len(cumulative))
        return positive
    return np.divide(positive, total, out=positive)


def _update(
    algo: Algo,
    eta: float,
    cumulative: np.ndarray,
    utilities: np.ndarray,
    probs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    if algo is Algo.MULTIPLICATIVE_WEIGHTS:
        step = np.multiply(utilities, eta, out=out)
        return np.add(cumulative, step, out=step)
    regret = np.subtract(utilities, float(probs @ utilities), out=out)
    np.add(cumulative, regret, out=regret)
    if algo is Algo.REGRET_MATCHING_PLUS:
        np.maximum(regret, 0.0, out=regret)
    return regret


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


def _shift(payoff: np.ndarray) -> float:
    """The payoffs' midpoint when every payoff lies within a factor of 2 of
    it, else 0.  Subtracting it is then exact (Sterbenz), so a game offset far
    from 0 keeps its payoff differences, and ordinary games stay unshifted."""
    high, low = float(payoff.max()), float(payoff.min())
    mid = 0.5 * high + 0.5 * low  # no overflow near the largest floats
    if (mid > 0.0 and low >= 0.5 * mid) or (mid < 0.0 and high <= 0.5 * mid):
        return mid
    return 0.0


# Rounds of play buffered before they are folded into the joint.
_BLOCK = 64


def _sample_indices(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    # Each row's uniform mapped through the inverse CDF of that row: the count
    # of CDF entries at or below it, which is where ``bisect_right`` puts it
    # (``accumulate`` sums each row in order, so the CDF never decreases).
    below = np.add.accumulate(probs, axis=1) <= uniforms[:, None]
    return np.minimum(below.sum(axis=1), probs.shape[1] - 1)


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
    ``seed``) and a point mass is accumulated.  Play is folded into the joint
    64 rounds at a time, at rounds 64, 128, ... whatever ``log_every`` is.
    Expected play adds each block's sum of outer products, one product
    ``X.T @ Y`` of its stacked strategies, to the running sum, and a
    checkpoint inside a block reads that sum plus the product of the rounds
    so far.  Sampled play draws a block's uniforms at once from the one PCG64
    stream, the same values as one draw at a time, and adds its counts
    exactly, so the sampled joint is that of one draw per round.  Results are
    deterministic given ``(algo, col_algo, iters, seed, averaging)``.

    Regret matching (+) plays the positive part of its cumulative regrets,
    normalized, and uniform when none is positive.  Multiplicative weights
    plays the softmax of its log-weights, which grow by ``eta`` times each
    round's utilities, with the fixed-horizon step size
    ``eta = sqrt(8 ln k / iters) / range`` for a player with ``k`` actions
    (0 when ``k = 1`` or the game is flat).  The rules see the payoffs
    divided by :func:`~cce2nash.games.payoff_scale`, a power of two, so the
    played strategies are those of the unscaled game, bit for bit away from
    subnormals, and cumulative regrets cannot overflow at any payoff scale.
    When every payoff lies within a factor of 2 of the payoffs' midpoint, the
    midpoint is subtracted first, exactly; all three rules are invariant under
    that shift, and it keeps the low bits of a game offset far from 0.
    Games with payoffs of both signs are never shifted.
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
    payoff = (game.payoff - _shift(game.payoff)) / scale
    row_eta = _eta(algo, rows, game.payoff_range / scale, iters)
    col_eta = _eta(col_algo, cols, game.payoff_range / scale, iters)
    sampled = averaging is Averaging.SAMPLED
    rng = np.random.default_rng(seed)

    # Every round writes into these buffers.  Each round's strategies are
    # played into the next row of the block; each cumulative vector has a
    # spare that its update is written into before the two are swapped.
    row_cum, row_next = np.zeros(rows), np.empty(rows)
    col_cum, col_next = np.zeros(cols), np.empty(cols)
    block_x, block_y = np.empty((_BLOCK, rows)), np.empty((_BLOCK, cols))
    x_rows, y_rows = list(block_x), list(block_y)
    row_util, col_util = np.empty(rows), np.empty(cols)
    block_sum = np.empty((rows, cols))
    joint_acc = np.zeros((rows, cols))
    filled = 0
    trajectory = []

    for t in range(1, iters + 1):
        x = _play(algo, row_cum, out=x_rows[filled])
        y = _play(col_algo, col_cum, out=y_rows[filled])
        filled += 1

        np.matmul(payoff, y, out=row_util)
        np.negative(np.matmul(x, payoff, out=col_util), out=col_util)
        row_cum, row_next = _update(algo, row_eta, row_cum, row_util, x, out=row_next), row_cum
        col_cum, col_next = _update(col_algo, col_eta, col_cum, col_util, y, out=col_next), col_cum

        checkpoint = t % log_every == 0 or t == iters
        # Blocks end every _BLOCK rounds whatever log_every is.  Sampled counts
        # are exact integers, so a checkpoint may also end one early.
        if filled == _BLOCK or (sampled and checkpoint):
            if sampled:
                uniforms = rng.random((filled, 2))
                r = _sample_indices(block_x[:filled], uniforms[:, 0])
                c = _sample_indices(block_y[:filled], uniforms[:, 1])
                np.add.at(joint_acc, (r, c), 1.0)
            else:
                joint_acc += np.matmul(block_x.T, block_y, out=block_sum)
            filled = 0

        if checkpoint:
            acc = joint_acc
            if filled:  # expected play of a part block, read without ending it
                acc = np.matmul(block_x[:filled].T, block_y[:filled], out=block_sum)
                acc += joint_acc
            # Normalizing by the accumulated float total (rather than by t)
            # keeps the average summing to 1 within rounding for long runs.
            mass = acc / acc.sum()
            cce, nash, joint_value, _ = _measure(game.payoff, mass)
            trajectory.append(Checkpoint(t, cce.epsilon, nash.epsilon, avg_row_payoff=joint_value))

    # The final checkpoint's mass is the result.  Every term added is nonnegative
    # or NaN, and a NaN stays, so validating this mass covers every checkpoint.
    joint = JointDistribution(mass)
    return SelfPlayResult(
        empirical_joint=joint, avg_profile=marginal_profile(joint), trajectory=tuple(trajectory)
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
