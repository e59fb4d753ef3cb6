"""Shared random-instance builders and independent reference routes for the test suites."""

import math

import numpy as np

from cce2nash import (
    Game,
    JointDistribution,
    MixedStrategy,
    Player,
    StrategyProfile,
    expected_utility,
    make_zero_sum,
    marginal,
)
from cce2nash import oracle


def random_game(rng: np.random.Generator, max_dim: int = 20) -> Game:
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    return make_zero_sum(rng.uniform(-1.0, 1.0, size=(rows, cols)))


def random_joint(rng: np.random.Generator, shape) -> JointDistribution:
    mass = rng.uniform(0.0, 1.0, size=shape)
    return JointDistribution(mass / mass.sum())


def random_mixed(rng: np.random.Generator, num_actions: int) -> MixedStrategy:
    weights = rng.uniform(0.0, 1.0, size=num_actions)
    return MixedStrategy(weights / weights.sum())


def reference_shift(payoff: np.ndarray) -> float:
    """The payoffs' midpoint when every payoff lies within a factor of 2 of it,
    else 0: the rule ``Game.shift`` stores, computed on its own."""
    high, low = float(payoff.max()), float(payoff.min())
    mid = 0.5 * high + 0.5 * low
    if (mid > 0.0 and low >= 0.5 * mid) or (mid < 0.0 and high <= 0.5 * mid):
        return mid
    return 0.0


def reference_scale(payoff: np.ndarray) -> float:
    """Smallest power of two above the payoff range, 1 for a flat game: the
    rule ``Game.scale`` stores, computed on its own."""
    spread = float(payoff.max()) - float(payoff.min())
    return math.ldexp(1.0, math.frexp(spread)[1])


def reference_max_abs(payoff: np.ndarray) -> float:
    """The largest |payoff|, which ``bound_slack`` multiplies by ``BOUND_TOL``."""
    return float(np.abs(payoff).max())


PENNIES = make_zero_sum([[1.0, -1.0], [-1.0, 1.0]])
RPS = make_zero_sum([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
ASYM = make_zero_sum([[3.0, -1.0], [-2.0, 1.0]])  # value 1/7, no saddle point


def deviation_value(
    mu: JointDistribution, game: Game, player: Player, deviation: MixedStrategy
) -> float:
    """Expected utility of committing to ``deviation`` while the opponent follows ``mu``.

    In a two-player game the opponent's play under ``mu`` is fully described by
    their marginal, so this is evaluated as ``deviation`` against the opponent's
    marginal strategy; the acceptance suite checks it against the direct
    cell-by-cell sum over ``mu``.
    """
    if mu.shape != game.shape:
        raise ValueError(
            f"joint distribution is {mu.rows}x{mu.cols} but game is {game.rows}x{game.cols}"
        )
    own_dim = game.rows if player is Player.ROW else game.cols
    if len(deviation) != own_dim:
        raise ValueError(f"deviation has length {len(deviation)}, expected {own_dim}")
    if player is Player.ROW:
        profile = StrategyProfile(row=deviation, col=marginal(mu, Player.COL))
    else:
        profile = StrategyProfile(row=marginal(mu, Player.ROW), col=deviation)
    return expected_utility(game, player, profile)


def full_tableau_simplex(B: np.ndarray, max_pivots: int):
    """The full-tableau simplex ``oracle._simplex_max_ones`` condenses.

    It keeps all ``n + m`` variable columns of the ``(m+1)×(n+m+1)``
    tableau, so a basic variable's column is a unit vector and pricing can
    take the first index, which is the lowest label.  Same pricing, ratio test,
    tolerances and pivot budget; it reads ``oracle._DEGENERATE_RUN`` at call
    time, so a monkeypatch applies to both.  Returns ``(z, duals, pivots)``.
    """
    m, n = B.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = B
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :n] = -1.0
    reduced = T[m, : n + m]
    rhs = T[:m, -1]
    basis = np.arange(n, n + m)
    column = np.empty(m + 1)
    update = np.empty_like(T)
    degenerate = 0

    for pivots in range(max_pivots + 1):
        if degenerate < oracle._DEGENERATE_RUN:
            j = int(np.argmin(reduced))
            if reduced[j] >= -oracle.FEAS_TOL:
                break
        else:
            improving = np.flatnonzero(reduced < -oracle.FEAS_TOL)
            if improving.size == 0:
                break
            j = int(improving[0])
        if pivots == max_pivots:
            raise oracle.SimplexLimitExceeded(
                f"simplex did not converge within {max_pivots} pivots"
            )
        eligible = np.flatnonzero(T[:m, j] > oracle.FEAS_TOL)
        if eligible.size == 0:
            raise RuntimeError("unbounded LP; positive payoff shift should prevent this")
        ratios = rhs[eligible] / T[eligible, j]
        step = ratios.min()
        tied = eligible[ratios <= step + oracle._RATIO_TIE_TOL]
        i = int(tied[np.argmin(basis[tied])])
        degenerate = degenerate + 1 if step <= oracle._RATIO_TIE_TOL else 0
        T[i] /= T[i, j]
        np.copyto(column, T[:, j])
        column[i] = 0.0
        np.multiply(column[:, None], T[i][None, :], out=update)
        T -= update
        basis[i] = j

    z = np.zeros(n)
    structural = basis < n
    z[basis[structural]] = rhs[structural]
    duals = T[m, n : n + m].copy()
    return z, duals, pivots
