"""No-external-regret learners and the self-play driver.

Three update rules are provided: regret matching, regret matching+, and
multiplicative weights with a fixed-horizon step size.  Driving one of them
for both players with full-information feedback makes the time-averaged
joint play an empirical coarse-correlated equilibrium whose gap vanishes, and
therefore makes the averaged marginals an approximate Nash profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibrium import JointDistribution, _measure
from .games import Game, _integer

__all__ = [
    "Algo",
    "Averaging",
    "Checkpoint",
    "SelfPlayResult",
    "self_play",
    "trajectory_csv",
]


class Algo(Enum):
    REGRET_MATCHING = "rm"
    REGRET_MATCHING_PLUS = "rmplus"
    MULTIPLICATIVE_WEIGHTS = "mw"


class Averaging(Enum):
    EXPECTED = "expected"
    SAMPLED = "sampled"


def _rule(algo: Algo, eta: float, cumulative, utilities, values):
    """The ``(play, update)`` functions of one rule over the players it owns,
    bound once per run to their arrays; the only implementation of each rule.

    ``cumulative`` and ``utilities`` hold one row per player, all of one
    length, or are one player's own vector.  ``eta`` is the multiplicative
    weights step size and ``values[i, 0]`` (0-d ``values`` for a vector)
    player ``i``'s expected payoff in the round, which regret matching
    subtracts.  ``play(out)`` writes the strategies of the current cumulative
    vectors into ``out``, of the same shape, and ``update()`` adds the round's
    utilities to the cumulative vectors in place.  They validate nothing.
    """
    width, shape = cumulative.shape[-1], cumulative.shape[:-1]
    buffer = np.empty_like(cumulative)
    flat = np.empty(shape)  # per-row maxima, then sums
    totals = flat[:, None] if shape else flat  # against the rows; 0-d is cheapest
    clip = algo is Algo.REGRET_MATCHING_PLUS
    summed = cumulative if clip else buffer

    if algo is Algo.MULTIPLICATIVE_WEIGHTS:
        steps = np.full_like(cumulative, eta)  # full rows multiply faster than a scalar

        def play(out):
            np.maximum.reduce(cumulative, axis=-1, out=flat)
            np.subtract(cumulative, totals, out=buffer)  # overflow guard
            np.exp(buffer, out=buffer)
            # numpy sums each row of a C-ordered array pairwise on its own,
            # with the bits of the sum of that row alone.
            np.add.reduce(buffer, axis=-1, out=flat)
            np.divide(buffer, totals, out=out)

        def update():
            np.multiply(utilities, steps, out=buffer)
            np.add(cumulative, buffer, out=cumulative)

        return play, update

    zeros = np.zeros_like(cumulative)  # the clip at 0
    listed = flat.reshape(-1)

    def play(out):
        # RM+ regrets start at +0 and its update clips them at +0 (maximum
        # turns -0.0 into +0.0 too), so their positive part is themselves.
        if not clip:
            np.maximum(cumulative, zeros, out=buffer)
        np.add.reduce(summed, axis=-1, out=flat)
        sums = listed.tolist()
        if min(sums) > 0.0:  # true only when no row's sum is <= 0, NaN or not
            np.divide(summed, totals, out=out)
            return
        for total, row, source in zip(sums, out.reshape(-1, width), summed.reshape(-1, width)):
            if total <= 0.0:
                row[:] = 1.0 / width
            else:
                np.divide(source, total, out=row)

    def update():
        np.subtract(utilities, values, out=buffer)
        np.add(cumulative, buffer, out=cumulative)
        if clip:
            np.maximum(cumulative, zeros, out=cumulative)

    return play, update


def _stacked(row_rule, col_rule):
    """One ``(play, update)`` pair from the rule bound to each player's own
    vectors, as on a non-square game; its ``play`` takes the pair of their
    ``out`` vectors."""
    (row_play, row_update), (col_play, col_update) = row_rule, col_rule

    def play(out):
        row_play(out[0])
        col_play(out[1])

    def update():
        row_update()
        col_update()

    return play, update


def _eta(algo: Algo, num_actions: int, spread: float, horizon: int) -> float:
    """Multiplicative weights step size for payoffs spanning ``spread``; 0 for
    the other rules, a single action or a flat game."""
    if algo is Algo.MULTIPLICATIVE_WEIGHTS and num_actions > 1 and spread > 0:
        return math.sqrt(8.0 * math.log(num_actions) / horizon) / spread
    return 0.0


@dataclass(frozen=True)
class Checkpoint:
    """The gaps of the averaged joint play after round ``t``: ``cce_eps`` of
    the joint, ``nash_eps`` of its marginals and ``avg_row_payoff`` the row
    player's expected payoff under it, with ``game.shift`` added back."""

    t: int
    cce_eps: float
    nash_eps: float
    avg_row_payoff: float


@dataclass(frozen=True, eq=False)
class SelfPlayResult:
    """Averaged play of one self-play run: the averaged joint and the checkpoints."""

    empirical_joint: JointDistribution
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
) -> SelfPlayResult:
    """Run synchronized self-play of one rule and average the joint play.

    Each round, every player observes the vector of expected payoffs of all
    its pure actions against the opponent's current mixed strategy.  With
    ``expected`` averaging, the empirical joint accumulates the outer product
    of the two current strategies; with ``sampled`` averaging, one pure
    profile per round is drawn from their product distribution (row draw
    first, then column, one uniform each from a PCG64 generator seeded with
    ``seed``) and a point mass is accumulated.  Play is folded into the joint
    64 rounds at a time, at rounds 64, 128, ... whatever ``log_every`` is.
    Each fold of expected play forms one product ``X.T @ Y`` of the stacked
    strategies of the block's rounds so far and adds it to the running sum;
    the total becomes the running sum when the block is full, and a
    checkpoint inside a block only reads it.  Sampled play draws a block's
    uniforms at once from the one PCG64 stream, the same values as one draw
    at a time, and adds its counts exactly, so the sampled joint is that of
    one draw per round.  Results are deterministic given
    ``(algo, iters, seed, averaging)``.

    Regret matching (+) plays the positive part of its cumulative regrets,
    normalized, and uniform when none is positive; RM+ clips its regrets at 0
    in every update, so it plays them as they are.  Multiplicative weights
    plays the softmax of its log-weights, which grow by ``eta`` times each
    round's utilities, with the fixed-horizon step size
    ``eta = sqrt(8 ln k / iters) / range`` for a player with ``k`` actions
    (0 when ``k = 1`` or the game is flat).  The rules see the payoffs
    minus ``game.shift`` divided by ``game.scale`` (see
    :class:`~cce2nash.games.Game`), a power of two, so the played strategies
    are those of the unscaled game, bit for bit away from subnormals, and
    cumulative regrets cannot overflow at any payoff scale.  Subtracting the
    shift is exact; all three rules are invariant under it, and it keeps the
    low bits of a game offset far from 0.  The column player's
    utilities are ``x @ -A`` with ``-A`` negated once per run, which is
    ``-(x @ A)`` exactly.  Checkpoints measure the gaps on the shifted but
    unscaled payoffs, as :func:`~cce2nash.equilibrium.analyze` does, and add
    the shift back to ``avg_row_payoff``.

    Both players' state lives in ``(2, K)`` arrays, one row each, with ``K``
    the larger action count, and each round's two strategies go into one
    ``(2, K)`` slot of the block.  The rule is bound once per run: over both
    rows on a square game, where both players have one step size, so that
    each of its elementwise steps and reductions runs once per round for both
    players, and to each player's own vectors otherwise.  numpy reduces each
    row of a C-ordered array on its own, with the bits of that row alone.  Each
    player's expected payoff is one dot product of its own vectors.  Every
    fold copies each player's rounds to a contiguous array of its own for
    the products and the draws.  Strategies, joints and checkpoints are
    therefore bit for bit those of per-player vectors.

    Args:
        game: zero-sum game to play.
        algo: update rule of both players, an :class:`Algo` or its string value.
        iters: number of rounds, at least 1.
        seed: non-negative integer; seeds the generator, made for sampled play only.
        averaging: ``expected`` or ``sampled``.
        log_every: checkpoint spacing for the trajectory; the final round is
            always a checkpoint.

    Returns:
        :class:`SelfPlayResult` with the averaged joint distribution and the
        checkpoint trajectory.

    Raises:
        TypeError: if ``iters``, ``log_every`` or ``seed`` is not an integer.
        ValueError: on a bad argument.  A payoff range of 2**1023 or more is
            refused when the :class:`~cce2nash.games.Game` is made.
    """
    algo = Algo(algo)
    averaging = Averaging(averaging)
    iters, log_every = _integer(iters, "iters"), _integer(log_every, "log_every")
    seed = _integer(seed, "seed", 0)

    rows, cols = game.shape
    width = max(rows, cols)
    scale, shift, centered = game.scale, game.shift, game.centered
    payoff = centered / scale
    neg_payoff = -payoff  # the column player's utilities, exactly
    spread = game.payoff_range / scale
    row_eta, col_eta = _eta(algo, rows, spread, iters), _eta(algo, cols, spread, iters)
    sampled = averaging is Averaging.SAMPLED
    rng = np.random.default_rng(seed) if sampled else None

    # Both players' state, one row each and the row player's first.
    cum, util, values = np.zeros((2, width)), np.zeros((2, width)), np.empty((2, 1))
    row_util, col_util = util[0, :rows], util[1, :cols]
    row_value, col_value = (value.reshape(()) for value in values)
    # Each round's strategies are played into the next (2, width) slot.
    block = np.empty((min(_BLOCK, iters), 2, width))
    if rows == cols:  # one rule over both rows, whose step sizes are equal
        play, update = _rule(algo, row_eta, cum, util, values)
        targets = list(block)
    else:  # one rule on each player's own vectors
        play, update = _stacked(
            _rule(algo, row_eta, cum[0, :rows], row_util, row_value),
            _rule(algo, col_eta, cum[1, :cols], col_util, col_value),
        )
        targets = list(zip(block[:, 0, :rows], block[:, 1, :cols]))
    regret = algo is not Algo.MULTIPLICATIVE_WEIGHTS  # RM and RM+ need the values
    slots = list(zip(targets, block[:, 0, :rows], block[:, 1, :cols]))
    joint_acc = np.zeros((rows, cols))
    t = filled = 0
    next_log = min(log_every, iters)
    trajectory = []

    while t < iters:
        # Play up to the next block end or checkpoint, whichever comes first.
        stop = min(t + _BLOCK - filled, next_log)
        for slot, x, y in slots[filled : filled + stop - t]:
            play(slot)
            payoff.dot(y, row_util)
            x.dot(neg_payoff, col_util)
            if regret:
                x.dot(row_util, row_value)
                y.dot(col_util, col_value)
            update()
        filled += stop - t
        t = stop

        checkpoint = t == next_log
        if filled == _BLOCK or checkpoint:
            # Each player's rounds as its own C-ordered array, so that the
            # product and the draws do not depend on the layout of the block.
            block_x = block[:filled, 0, :rows].copy()
            block_y = block[:filled, 1, :cols].copy()
            # Blocks end every _BLOCK rounds whatever log_every is.  Sampled
            # counts are exact integers, so a checkpoint may also end one early.
            if sampled:
                uniforms = rng.random((filled, 2))
                r = _sample_indices(block_x, uniforms[:, 0])
                c = _sample_indices(block_y, uniforms[:, 1])
                np.add.at(joint_acc, (r, c), 1.0)
                acc = joint_acc
                filled = 0
            else:  # a part block is read at its checkpoint without ending it
                acc = joint_acc + block_x.T @ block_y
                if filled == _BLOCK:
                    joint_acc = acc
                    filled = 0

        if checkpoint:
            # Normalizing by the accumulated float total (rather than by t)
            # keeps the average summing to 1 within rounding for long runs.
            mass = acc / acc.sum()
            cce, nash, joint_value, _ = _measure(centered, mass)
            if shift:
                joint_value += shift
            trajectory.append(Checkpoint(t, cce.epsilon, nash.epsilon, avg_row_payoff=joint_value))
            next_log = min(next_log + log_every, iters)

    # The final checkpoint's mass is the result.  Every term added is nonnegative
    # or NaN, and a NaN stays, so validating this mass covers every checkpoint.
    return SelfPlayResult(empirical_joint=JointDistribution(mass), trajectory=tuple(trajectory))


def trajectory_csv(trajectory) -> str:
    """Render checkpoints as CSV with full-precision decimals."""
    lines = ["t,cce_eps,nash_eps,avg_row_payoff"]
    for point in trajectory:
        lines.append(
            f"{point.t},{point.cce_eps:.17g},{point.nash_eps:.17g},"
            f"{point.avg_row_payoff:.17g}"
        )
    return "\n".join(lines) + "\n"
