"""Shared random-instance builders and independent reference routes for the test suites."""

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
