import math
import warnings

import numpy as np
import pytest

from cce2nash import (
    Algo,
    Averaging,
    JointDistribution,
    Player,
    cce_gap,
    expected_joint_utility,
    make_zero_sum,
    marginal_profile,
    nash_gap,
    self_play,
    trajectory_csv,
)
from cce2nash.learners import _eta, _play, _sample_indices, _shift, _update
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


@pytest.mark.parametrize("algo", list(Algo))
def test_rules_write_into_out_with_the_bits_of_the_allocating_call(algo):
    rng = np.random.default_rng(67)
    utilities = rng.uniform(-1.0, 1.0, size=5)
    # positive regrets, none positive (the uniform fallback) and large log-weights
    for cumulative in (rng.uniform(-2.0, 2.0, size=5), -rng.uniform(0.0, 2.0, size=5),
                       rng.uniform(-1.0, 1.0, size=5) * 1e3):
        before = cumulative.copy()
        out = np.empty(5)
        assert _play(algo, cumulative, out=out) is out
        assert out.tobytes() == _play(algo, cumulative).tobytes()
        probs = out.copy()
        assert _update(algo, 0.3, cumulative, utilities, probs, out=out) is out
        assert out.tobytes() == _update(algo, 0.3, cumulative, utilities, probs).tobytes()
        assert cumulative.tobytes() == before.tobytes()


def test_sample_indices_never_draw_a_zero_probability_action():
    # u exactly on a CDF step moves past the actions of probability 0
    probs = np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert _sample_indices(probs, np.array([0.5, 0.0, 0.0])).tolist() == [2, 0, 1]
    assert _sample_indices(np.array([[0.0, 1.0]]), np.array([0.0])).tolist() == [1]


def test_sample_indices_above_the_accumulated_total_are_the_last_action():
    # rounding can leave the probabilities summing to just under u
    assert _sample_indices(np.array([[0.25, 0.25]]), np.array([0.75])).tolist() == [1]


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
    # Every intermediate checkpoint is the public route on the joint of that
    # round.  RM has eta = 0, so a shorter reference run is a prefix of this one.
    g = make_zero_sum(np.random.default_rng(53).uniform(-1.0, 1.0, size=(5, 7)))
    for averaging in Averaging:
        result = self_play(g, RM, iters=300, seed=4, averaging=averaging, log_every=37)
        assert [c.t for c in result.trajectory] == [*range(37, 300, 37), 300]
        for point in result.trajectory:
            mu = JointDistribution(reference_joint(g, RM, RM, point.t, 4, averaging))
            assert point.cce_eps == cce_gap(mu, g).epsilon
            assert point.nash_eps == nash_gap(marginal_profile(mu), g).epsilon
            assert point.avg_row_payoff == expected_joint_utility(mu, g, Player.ROW)


def reference_play(game, algo, col_algo, iters):
    """Each round's strategies in self-play on the unscaled payoffs, one
    update-rule call at a time."""

    def eta(rule, k):  # the fixed-horizon step size of the self_play docstring
        if rule is Algo.MULTIPLICATIVE_WEIGHTS and k > 1 and game.payoff_range > 0:
            return math.sqrt(8.0 * math.log(k) / iters) / game.payoff_range
        return 0.0

    row, col = np.zeros(game.rows), np.zeros(game.cols)
    for _ in range(iters):
        x, y = _play(algo, row), _play(col_algo, col)
        yield x, y
        row = _update(algo, eta(algo, game.rows), row, game.payoff @ y, x)
        col = _update(col_algo, eta(col_algo, game.cols), col, -(x @ game.payoff), y)


def reference_joint(game, algo, col_algo, iters, seed, averaging):
    """The averaged joint of ``reference_play``.  Expected play is summed in the
    documented order: one ``X.T @ Y`` per block of 64 rounds (the last may be
    shorter), each added to the running total."""
    rounds = list(reference_play(game, algo, col_algo, iters))
    acc = np.zeros(game.shape)
    if averaging is Averaging.EXPECTED:
        for start in range(0, iters, 64):
            xs, ys = zip(*rounds[start:start + 64])
            acc += np.array(xs).T @ np.array(ys)
    else:
        rng = np.random.default_rng(seed)

        def draw(probs):  # inverse CDF of one uniform, row player first
            index = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
            return min(index, len(probs) - 1)

        for x, y in rounds:
            acc[draw(x), draw(y)] += 1.0
    return acc / acc.sum()


@pytest.mark.parametrize("averaging", list(Averaging))
# 63, 64 and 65 rounds end inside, at and just past the first block of 64;
# 2,100 rounds end inside the 33rd.  1×k and k×1 games give one player a
# single action.
@pytest.mark.parametrize("shape, iters", [
    ((5, 7), 63), ((5, 7), 64), ((5, 7), 65), ((5, 7), 300),
    ((5, 7), 2100), ((1, 6), 2100), ((6, 1), 2100),
])
@pytest.mark.parametrize("algo, col_algo", [
    (Algo.REGRET_MATCHING, Algo.REGRET_MATCHING),
    (Algo.REGRET_MATCHING_PLUS, Algo.REGRET_MATCHING_PLUS),
    (Algo.MULTIPLICATIVE_WEIGHTS, Algo.MULTIPLICATIVE_WEIGHTS),
    (Algo.REGRET_MATCHING_PLUS, Algo.MULTIPLICATIVE_WEIGHTS),
])
def test_self_play_matches_the_public_learner_api_bitwise(algo, col_algo, shape, iters, averaging):
    g = make_zero_sum(np.random.default_rng(53).uniform(-1.0, 1.0, size=shape))
    result = self_play(g, algo, iters=iters, seed=4, averaging=averaging, col_algo=col_algo)
    expected = reference_joint(g, algo, col_algo, iters, 4, averaging)
    assert np.array_equal(result.empirical_joint.mass, expected)


@pytest.mark.parametrize("averaging", list(Averaging))
@pytest.mark.parametrize("iters", [63, 64, 65, 700])
def test_joint_and_final_checkpoint_do_not_depend_on_log_every(averaging, iters):
    g = make_zero_sum(np.random.default_rng(61).uniform(-1.0, 1.0, size=(4, 6)))
    runs = [self_play(g, MW, iters=iters, seed=5, averaging=averaging, log_every=every)
            for every in (1, 7, 64, 1000)]
    for run in runs[1:]:
        assert run.empirical_joint.mass.tobytes() == runs[0].empirical_joint.mass.tobytes()
        assert run.trajectory[-1] == runs[0].trajectory[-1]
    # every checkpoint is that of the run with a checkpoint each round
    every_round = {point.t: point for point in runs[0].trajectory}
    for run in runs[1:]:
        for point in run.trajectory:
            assert point == every_round[point.t]


@pytest.mark.parametrize("iters", [1, 64, 65, 1000, 5000])
def test_block_joint_is_within_the_blocked_summation_bound_of_the_exact_sum(iters):
    # Each cell sums 64 products per block and then ceil(T/64) blocks, so to
    # first order it errs by at most 64 + ceil(T/64) roundings (Higham,
    # Accuracy and Stability of Numerical Algorithms, 4.2); the normalization
    # adds one.  The errors measured here stay far below that.
    g = make_zero_sum(np.random.default_rng(67).uniform(-1.0, 1.0, size=(6, 5)))
    result = self_play(g, RM_PLUS, iters=iters, col_algo=MW)
    rounds = list(reference_play(g, RM_PLUS, MW, iters))
    cells = np.array([[math.fsum(x[r] * y[c] for x, y in rounds) for c in range(g.cols)]
                      for r in range(g.rows)])
    exact = cells / math.fsum(cells.ravel())
    bound = (64 + math.ceil(iters / 64) + 1) * 2.0**-53
    assert (np.abs(result.empirical_joint.mass - exact) <= bound * exact).all()


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


def test_shift_is_the_midpoint_only_when_every_payoff_is_within_a_factor_2_of_it():
    assert _shift(np.array([[2.0, 4.0]])) == 3.0
    assert _shift(np.array([[-4.0, -2.0]])) == -3.0
    assert _shift(np.array([[7.0]])) == 7.0
    # 1 < 2.5 / 2, mixed signs and an all-zero game take no shift
    assert _shift(np.array([[1.0, 4.0]])) == _shift(np.array([[-4.0, -1.0]])) == 0.0
    assert _shift(np.array([[-1.0, 3.0]])) == _shift(np.zeros((2, 2))) == 0.0
    # the midpoint of payoffs near the largest float does not overflow
    assert _shift(np.array([[1.5e308, 1.7e308]])) == 1.6e308


@pytest.mark.parametrize("offset", [1e12, -1e12])
def test_mw_keeps_its_gap_on_a_game_offset_far_from_zero(offset):
    # The rules see the payoffs minus their midpoint, so an offset costs MW
    # none of the payoff differences it learns from.  Without the shift the
    # gap read 2.3 times that of the same game at offset 0.
    base = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 8))
    g = make_zero_sum(base + offset)
    at_zero = make_zero_sum(g.payoff - offset)  # exact, by Sterbenz
    eps = self_play(g, MW, iters=3000).trajectory[-1].cce_eps
    assert eps <= 1.1 * self_play(at_zero, MW, iters=3000).trajectory[-1].cce_eps


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
