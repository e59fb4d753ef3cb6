import math
from dataclasses import replace

import numpy as np
import pytest

from cce2nash import (
    Algo,
    Averaging,
    LearnerState,
    MixedStrategy,
    Player,
    cce_gap,
    expected_joint_utility,
    make_zero_sum,
    marginal_profile,
    nash_gap,
    next_strategy,
    observe,
    self_play,
    trajectory_csv,
)
from helpers import PENNIES, random_game


def fresh(algo, k=2, spread=2.0, horizon=100):
    return LearnerState.fresh(algo, k, spread, horizon)


# --- strategy selection -------------------------------------------------------


def test_cold_start_is_uniform():
    for algo in Algo:
        assert np.array_equal(next_strategy(fresh(algo)).probs, [0.5, 0.5])


def with_cumulative(algo, values):
    return replace(fresh(algo, k=len(values)), cumulative=np.array(values, dtype=float))


def test_regret_matching_normalizes_positive_part():
    state = with_cumulative(Algo.REGRET_MATCHING, [3.0, 1.0])
    assert np.allclose(next_strategy(state).probs, [0.75, 0.25])


def test_regret_matching_zeroes_negative_regret():
    state = with_cumulative(Algo.REGRET_MATCHING, [-2.0, 5.0])
    assert np.array_equal(next_strategy(state).probs, [0.0, 1.0])


def test_mw_strategy_is_softmax_of_log_weights():
    state = with_cumulative(Algo.MULTIPLICATIVE_WEIGHTS, [0.0, math.log(3.0)])
    assert np.allclose(next_strategy(state).probs, [0.25, 0.75])


def test_mw_eta_uses_horizon_and_payoff_range():
    state = LearnerState.fresh(Algo.MULTIPLICATIVE_WEIGHTS, 4, 2.0, 10_000)
    assert state.eta == pytest.approx(math.sqrt(8.0 * math.log(4) / 10_000) / 2.0)
    # degenerate cases: a single action or a flat game leave eta at 0
    assert LearnerState.fresh(Algo.MULTIPLICATIVE_WEIGHTS, 1, 2.0, 100).eta == 0.0
    assert LearnerState.fresh(Algo.MULTIPLICATIVE_WEIGHTS, 3, 0.0, 100).eta == 0.0


# --- feedback updates ------------------------------------------------------------


def test_observe_regret_matching_example():
    state = fresh(Algo.REGRET_MATCHING)
    new = observe(state, [1.0, -1.0], MixedStrategy.uniform(2))
    assert np.allclose(new.cumulative, [1.0, -1.0])
    assert new.t == 1
    # functional update: the input state is untouched
    assert np.array_equal(state.cumulative, [0.0, 0.0]) and state.t == 0


def test_observe_rm_plus_clips_at_zero():
    state = fresh(Algo.REGRET_MATCHING_PLUS)
    new = observe(state, [-1.0, 1.0], MixedStrategy.point_mass(2, 0))
    assert np.array_equal(new.cumulative, [0.0, 2.0])
    again = observe(new, [1.0, -1.0], MixedStrategy.point_mass(2, 1))
    assert (again.cumulative >= 0.0).all()


def test_observe_mw_with_zero_eta_keeps_strategy():
    state = LearnerState.fresh(Algo.MULTIPLICATIVE_WEIGHTS, 3, 0.0, 100)
    before = next_strategy(state)
    after = next_strategy(observe(state, [5.0, -2.0, 1.0], before))
    assert np.array_equal(before.probs, after.probs)


def test_observe_counts_iterations():
    state = fresh(Algo.REGRET_MATCHING)
    for expected_t in range(1, 6):
        state = observe(state, [0.5, -0.5], next_strategy(state))
        assert state.t == expected_t


def test_observe_rejects_wrong_lengths():
    state = fresh(Algo.REGRET_MATCHING)
    with pytest.raises(ValueError, match="2 action utilities"):
        observe(state, [1.0, 2.0, 3.0], MixedStrategy.uniform(2))
    with pytest.raises(ValueError, match="length 3"):
        observe(state, [1.0, 2.0], MixedStrategy.uniform(3))


def test_rm_plus_cumulative_never_negative_over_random_play():
    rng = np.random.default_rng(31)
    state = LearnerState.fresh(Algo.REGRET_MATCHING_PLUS, 4, 2.0, 200)
    for _ in range(200):
        utilities = rng.uniform(-1.0, 1.0, size=4)
        state = observe(state, utilities, next_strategy(state))
        assert (state.cumulative >= 0.0).all()


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
    """Self-play through the public learner API, one validated step at a time."""
    row = LearnerState.fresh(algo, game.rows, game.payoff_range, iters)
    col = LearnerState.fresh(col_algo, game.cols, game.payoff_range, iters)
    rng = np.random.default_rng(seed)

    def draw(probs):  # inverse CDF of one uniform, row player first
        index = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        return min(index, len(probs) - 1)

    acc = np.zeros(game.shape)
    for _ in range(iters):
        x, y = next_strategy(row), next_strategy(col)
        if averaging is Averaging.EXPECTED:
            acc += np.outer(x.probs, y.probs)
        else:
            acc[draw(x.probs), draw(y.probs)] += 1.0
        row = observe(row, game.payoff @ y.probs, x)
        col = observe(col, -(x.probs @ game.payoff), y)
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
