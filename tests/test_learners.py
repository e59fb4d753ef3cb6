import math
import warnings

import numpy as np
import pytest

from cce2nash import (
    Algo,
    Averaging,
    Player,
    cce_gap,
    expected_joint_utility,
    make_zero_sum,
    marginal_profile,
    nash_gap,
    self_play,
    trajectory_csv,
)
from cce2nash.learners import _eta, _play, _update
from helpers import PENNIES, random_game

RM, RM_PLUS, MW = Algo.REGRET_MATCHING, Algo.REGRET_MATCHING_PLUS, Algo.MULTIPLICATIVE_WEIGHTS


# --- strategy selection -------------------------------------------------------


def test_cold_start_is_uniform():
    for algo in Algo:
        assert np.array_equal(_play(algo, np.zeros(2)), [0.5, 0.5])


def test_regret_matching_normalizes_positive_part():
    assert np.allclose(_play(RM, np.array([3.0, 1.0])), [0.75, 0.25])


def test_regret_matching_zeroes_negative_regret():
    assert np.array_equal(_play(RM, np.array([-2.0, 5.0])), [0.0, 1.0])


def test_mw_strategy_is_softmax_of_log_weights():
    assert np.allclose(_play(MW, np.array([0.0, math.log(3.0)])), [0.25, 0.75])


def test_mw_eta_uses_horizon_and_payoff_range():
    assert _eta(MW, 4, 2.0, 10_000) == pytest.approx(math.sqrt(8.0 * math.log(4) / 10_000) / 2.0)
    # degenerate cases: a single action or a flat game leave eta at 0
    assert _eta(MW, 1, 2.0, 100) == 0.0
    assert _eta(MW, 3, 0.0, 100) == 0.0
    # and the regret-matching rules have no step size
    assert _eta(RM, 4, 2.0, 100) == _eta(RM_PLUS, 4, 2.0, 100) == 0.0


# --- feedback updates ------------------------------------------------------------


def test_update_regret_matching_example():
    cumulative = np.zeros(2)
    new = _update(RM, 0.0, cumulative, np.array([1.0, -1.0]), np.full(2, 0.5))
    assert np.allclose(new, [1.0, -1.0])
    # functional update: the input array is untouched
    assert np.array_equal(cumulative, [0.0, 0.0])


def test_update_rm_plus_clips_at_zero():
    new = _update(RM_PLUS, 0.0, np.zeros(2), np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
    assert np.array_equal(new, [0.0, 2.0])
    again = _update(RM_PLUS, 0.0, new, np.array([1.0, -1.0]), np.array([0.0, 1.0]))
    assert (again >= 0.0).all()


def test_update_mw_with_zero_eta_keeps_strategy():
    cumulative = np.zeros(3)
    before = _play(MW, cumulative)
    after = _play(MW, _update(MW, 0.0, cumulative, np.array([5.0, -2.0, 1.0]), before))
    assert np.array_equal(before, after)


def test_rm_plus_cumulative_never_negative_over_random_play():
    rng = np.random.default_rng(31)
    cumulative = np.zeros(4)
    for _ in range(200):
        utilities = rng.uniform(-1.0, 1.0, size=4)
        cumulative = _update(RM_PLUS, 0.0, cumulative, utilities, _play(RM_PLUS, cumulative))
        assert (cumulative >= 0.0).all()


# --- self-play -------------------------------------------------------------------


def test_self_play_rejects_bad_arguments():
    with pytest.raises(ValueError):
        self_play(PENNIES, Algo.REGRET_MATCHING, iters=0)
    with pytest.raises(ValueError):
        self_play(PENNIES, "not-an-algo", iters=10)
    with pytest.raises(ValueError):
        self_play(PENNIES, Algo.REGRET_MATCHING, iters=10, log_every=0)


def test_self_play_single_round_is_uniform_product():
    for algo in Algo:
        result = self_play(PENNIES, algo, iters=1)
        assert np.array_equal(result.empirical_joint.mass, np.full((2, 2), 0.25))
        assert np.array_equal(result.avg_profile.row.probs, [0.5, 0.5])


def test_self_play_is_deterministic():
    for averaging in Averaging:
        a = self_play(PENNIES, Algo.REGRET_MATCHING_PLUS, iters=500, seed=9, averaging=averaging)
        b = self_play(PENNIES, Algo.REGRET_MATCHING_PLUS, iters=500, seed=9, averaging=averaging)
        assert np.array_equal(a.empirical_joint.mass, b.empirical_joint.mass)
        assert np.array_equal(a.avg_profile.row.probs, b.avg_profile.row.probs)
        assert a.trajectory == b.trajectory


def test_sampled_mode_depends_on_seed():
    a = self_play(PENNIES, Algo.REGRET_MATCHING, iters=200, seed=0, averaging="sampled")
    b = self_play(PENNIES, Algo.REGRET_MATCHING, iters=200, seed=1, averaging="sampled")
    assert not np.array_equal(a.empirical_joint.mass, b.empirical_joint.mass)


def test_avg_profile_matches_marginals_of_joint():
    rng = np.random.default_rng(17)
    for averaging in Averaging:
        g = random_game(rng, max_dim=6)
        result = self_play(g, Algo.REGRET_MATCHING, iters=700, seed=3, averaging=averaging)
        marginals = marginal_profile(result.empirical_joint)
        assert np.array_equal(result.avg_profile.row.probs, marginals.row.probs)
        assert np.array_equal(result.avg_profile.col.probs, marginals.col.probs)


def test_trajectory_checkpoints_at_log_every_and_final():
    result = self_play(PENNIES, Algo.MULTIPLICATIVE_WEIGHTS, iters=2500, log_every=1000)
    assert [c.t for c in result.trajectory] == [1000, 2000, 2500]
    final = result.trajectory[-1]
    assert final.cce_eps == cce_gap(result.empirical_joint, PENNIES).epsilon
    # learn's nash_eps is the number check computes for the same joint
    assert final.nash_eps == nash_gap(marginal_profile(result.empirical_joint), PENNIES).epsilon
    assert final.avg_row_payoff == expected_joint_utility(
        result.empirical_joint, PENNIES, Player.ROW
    )


def reference_joint(game, algo, col_algo, iters, seed, averaging):
    """Self-play on the unscaled payoffs, one update-rule call at a time."""

    def eta(rule, k):  # the fixed-horizon step size of the self_play docstring
        if rule is Algo.MULTIPLICATIVE_WEIGHTS and k > 1 and game.payoff_range > 0:
            return math.sqrt(8.0 * math.log(k) / iters) / game.payoff_range
        return 0.0

    row, col = np.zeros(game.rows), np.zeros(game.cols)
    rng = np.random.default_rng(seed)

    def draw(probs):  # inverse CDF of one uniform, row player first
        index = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        return min(index, len(probs) - 1)

    acc = np.zeros(game.shape)
    for _ in range(iters):
        x, y = _play(algo, row), _play(col_algo, col)
        if averaging is Averaging.EXPECTED:
            acc += np.outer(x, y)
        else:
            acc[draw(x), draw(y)] += 1.0
        row = _update(algo, eta(algo, game.rows), row, game.payoff @ y, x)
        col = _update(col_algo, eta(col_algo, game.cols), col, -(x @ game.payoff), y)
    return acc / acc.sum()


@pytest.mark.parametrize("averaging", list(Averaging))
@pytest.mark.parametrize("algo, col_algo", [
    (Algo.REGRET_MATCHING, Algo.REGRET_MATCHING),
    (Algo.REGRET_MATCHING_PLUS, Algo.REGRET_MATCHING_PLUS),
    (Algo.MULTIPLICATIVE_WEIGHTS, Algo.MULTIPLICATIVE_WEIGHTS),
    (Algo.REGRET_MATCHING_PLUS, Algo.MULTIPLICATIVE_WEIGHTS),
])
def test_self_play_matches_the_public_learner_api_bitwise(algo, col_algo, averaging):
    g = make_zero_sum(np.random.default_rng(53).uniform(-1.0, 1.0, size=(5, 7)))
    result = self_play(g, algo, iters=300, seed=4, averaging=averaging, col_algo=col_algo)
    expected = reference_joint(g, algo, col_algo, 300, 4, averaging)
    assert np.array_equal(result.empirical_joint.mass, expected)


def test_two_eps_bound_holds_along_the_trajectory():
    rng = np.random.default_rng(29)
    for algo in Algo:
        g = random_game(rng, max_dim=5)
        result = self_play(g, algo, iters=3000, seed=1, log_every=500)
        for point in result.trajectory:
            assert point.nash_eps <= 2.0 * point.cce_eps + 1e-9


def test_rm_external_regret_within_standard_bound():
    # Post-hoc regret is T * (per-player deviation gain of the empirical joint);
    # regret matching keeps it under spread * sqrt(k * T), tested with slack 2.
    rng = np.random.default_rng(41)
    iters = 2000
    for _ in range(5):
        g = random_game(rng, max_dim=6)
        result = self_play(g, Algo.REGRET_MATCHING, iters=iters)
        report = cce_gap(result.empirical_joint, g)
        spread = g.payoff_range
        row_bound = 2.0 * spread * math.sqrt(g.rows * iters)
        col_bound = 2.0 * spread * math.sqrt(g.cols * iters)
        assert iters * max(report.row_gain, 0.0) <= row_bound
        assert iters * max(report.col_gain, 0.0) <= col_bound


def test_rm_meets_its_bound_at_the_largest_payoff_scales():
    # Cumulative regrets of a game scaled by 1e307 overflow unless the rules run
    # on power-of-two-scaled payoffs; inf regrets stall RM far above its bound.
    g = make_zero_sum(np.random.default_rng(59).uniform(-1.0, 1.0, size=(5, 5)) * 1e307)
    iters = 2000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = self_play(g, Algo.REGRET_MATCHING, iters=iters)
    bound = g.payoff_range * math.sqrt(max(g.shape) / iters)
    assert result.trajectory[-1].cce_eps <= bound


def test_average_gap_shrinks_with_horizon():
    rng = np.random.default_rng(43)
    games = [random_game(rng, max_dim=5) for _ in range(8)]
    short = np.mean(
        [cce_gap(self_play(g, Algo.REGRET_MATCHING, iters=200).empirical_joint, g).epsilon for g in games]
    )
    long = np.mean(
        [cce_gap(self_play(g, Algo.REGRET_MATCHING, iters=4000).empirical_joint, g).epsilon for g in games]
    )
    assert long <= short


def test_mixed_algorithm_pairing_runs():
    result = self_play(
        PENNIES, Algo.REGRET_MATCHING, iters=2000, col_algo=Algo.MULTIPLICATIVE_WEIGHTS
    )
    for point in result.trajectory:
        assert point.nash_eps <= 2.0 * point.cce_eps + 1e-9


# --- trajectory CSV -----------------------------------------------------------------


def test_trajectory_csv_layout():
    result = self_play(PENNIES, Algo.REGRET_MATCHING, iters=2000, log_every=1000)
    text = trajectory_csv(result.trajectory)
    lines = text.splitlines()
    assert lines[0] == "t,cce_eps,nash_eps,avg_row_payoff"
    assert len(lines) == 1 + len(result.trajectory)
    first = lines[1].split(",")
    assert first[0] == "1000"
    assert float(first[1]) == result.trajectory[0].cce_eps
    assert text.endswith("\n")
