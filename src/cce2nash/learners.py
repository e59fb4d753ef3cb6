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

from .equilibrium import JointDistribution, _centered, _measure, marginal_profile
from .games import Game, StrategyProfile, payoff_scale


class Algo(Enum):
    REGRET_MATCHING = "rm"
    REGRET_MATCHING_PLUS = "rmplus"
    MULTIPLICATIVE_WEIGHTS = "mw"


class Averaging(Enum):
    EXPECTED = "expected"
    SAMPLED = "sampled"


def _rule(algo: Algo, eta: float, k: int):
    """The ``(play, update)`` functions of one player's rule with ``k`` actions,
    bound once per run; the only implementation of each rule.

    ``play(cumulative, out)`` writes the strategy into ``out``, and
    ``update(cumulative, utilities, probs, out)`` writes the next cumulative
    vector into ``out``; each returns ``out``, which must share no memory with
    the inputs.  They validate nothing.
    """
    if algo is Algo.MULTIPLICATIVE_WEIGHTS:

        def play(cumulative, out):
            np.subtract(cumulative, np.maximum.reduce(cumulative), out=out)  # overflow guard
            np.exp(out, out=out)
            return np.divide(out, np.add.reduce(out), out=out)

        def update(cumulative, utilities, probs, out):
            np.multiply(utilities, eta, out=out)
            return np.add(cumulative, out, out=out)

        return play, update

    zeros, uniform = np.zeros(k), 1.0 / k
    clip = algo is Algo.REGRET_MATCHING_PLUS

    def play(cumulative, out):
        # RM+ regrets start at +0 and its update clips them at +0 (maximum
        # turns -0.0 into +0.0 too), so their positive part is themselves.
        positive = cumulative if clip else np.maximum(cumulative, zeros, out=out)
        total = np.add.reduce(positive)
        if total <= 0.0:
            out.fill(uniform)
            return out
        return np.divide(positive, total, out=out)

    def update(cumulative, utilities, probs, out):
        np.subtract(utilities, probs.dot(utilities), out=out)
        np.add(cumulative, out, out=out)
        if clip:
            np.maximum(out, zeros, out=out)
        return out

    return play, update


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
    normalized, and uniform when none is positive; RM+ clips its regrets at 0
    in every update, so it plays them as they are.  Multiplicative weights
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
    Games with payoffs of both signs are never shifted.  Each player's rule
    is bound once per run, and the column player's utilities are ``x @ -A``
    with ``-A`` negated once per run, which is ``-(x @ A)`` exactly.
    Checkpoints measure the gaps on the shifted but unscaled payoffs, as
    :func:`~cce2nash.equilibrium.analyze` does, and add the shift back to
    ``avg_row_payoff``.

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
    centered, shift = _centered(game.payoff)
    payoff = centered / scale
    neg_payoff = -payoff  # the column player's utilities, exactly
    spread = game.payoff_range / scale
    row_play, row_update = _rule(algo, _eta(algo, rows, spread, iters), rows)
    col_play, col_update = _rule(col_algo, _eta(col_algo, cols, spread, iters), cols)
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
        x = row_play(row_cum, x_rows[filled])
        y = col_play(col_cum, y_rows[filled])
        filled += 1

        payoff.dot(y, row_util)
        x.dot(neg_payoff, col_util)
        row_cum, row_next = row_update(row_cum, row_util, x, row_next), row_cum
        col_cum, col_next = col_update(col_cum, col_util, y, col_next), col_cum

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
            cce, nash, joint_value, _ = _measure(centered, mass)
            if shift:
                joint_value += shift
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
