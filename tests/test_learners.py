import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cce2nash import (
    Algo,
    Averaging,
    Checkpoint,
    JointDistribution,
    SelfPlayResult,
    analyze,
    cce_gap,
    expected_joint_utility,
    make_zero_sum,
    marginal_profile,
    nash_gap,
    self_play,
    trajectory_csv,
)
from cce2nash.learners import _eta, _rule, _sample_indices
from helpers import ASYM, PENNIES, random_game

RM, RM_PLUS, MW = Algo.REGRET_MATCHING, Algo.REGRET_MATCHING_PLUS, Algo.MULTIPLICATIVE_WEIGHTS


# --- reference rules ------------------------------------------------------------
# The rules as the self_play docstring states them, in plain numpy and sharing
# no code with the learners.


def reference_rule_play(algo, cumulative):
    if algo is MW:  # softmax of the log-weights
        weights = np.exp(cumulative - np.max(cumulative))
        return weights / np.sum(weights)
    positive = np.maximum(cumulative, 0.0)  # positive part, uniform when none
    total = np.sum(positive)
    return positive / total if total > 0.0 else np.full(len(cumulative), 1.0 / len(cumulative))


def reference_rule_update(algo, eta, cumulative, utilities, probs):
    if algo is MW:  # log-weights grow by eta times the utilities
        return cumulative + eta * utilities
    regret = cumulative + (utilities - probs @ utilities)
    return np.maximum(regret, 0.0) if algo is RM_PLUS else regret


def bound_rule(algo, k, eta=0.0):
    """``_rule`` bound to one player's own vectors, as in self-play between
    two different rules, as functions of the cumulative vector, for the unit
    tests; each returns a fresh array."""
    cumulative, utilities, values = np.zeros(k), np.zeros(k), np.empty(())
    play, update = _rule(algo, (eta,), cumulative, utilities, values)

    def bound_play(vector):
        cumulative[:] = vector
        out = np.empty(k)
        play(out)
        return out

    def bound_update(vector, player_utilities, probs):
        cumulative[:], utilities[:] = vector, player_utilities
        values[()] = probs.dot(player_utilities)
        update()
        return cumulative.copy()

    return bound_play, bound_update


# --- strategy selection -------------------------------------------------------


def test_cold_start_is_uniform():
    for algo in Algo:
        play, _ = bound_rule(algo, 2)
        assert np.array_equal(play(np.zeros(2)), [0.5, 0.5])


def test_regret_matching_normalizes_positive_part():
    play, _ = bound_rule(RM, 2)
    assert np.allclose(play(np.array([3.0, 1.0])), [0.75, 0.25])


def test_regret_matching_zeroes_negative_regret():
    play, _ = bound_rule(RM, 2)
    assert np.array_equal(play(np.array([-2.0, 5.0])), [0.0, 1.0])


def test_mw_strategy_is_softmax_of_log_weights():
    play, _ = bound_rule(MW, 2)
    assert np.allclose(play(np.array([0.0, math.log(3.0)])), [0.25, 0.75])


def test_mw_eta_uses_horizon_and_payoff_range():
    assert _eta(MW, 4, 2.0, 10_000) == pytest.approx(math.sqrt(8.0 * math.log(4) / 10_000) / 2.0)
    # degenerate cases: a single action or a flat game leave eta at 0
    assert _eta(MW, 1, 2.0, 100) == 0.0
    assert _eta(MW, 3, 0.0, 100) == 0.0
    # and the regret-matching rules have no step size
    assert _eta(RM, 4, 2.0, 100) == _eta(RM_PLUS, 4, 2.0, 100) == 0.0


# --- feedback updates ------------------------------------------------------------


def test_update_regret_matching_example():
    _, update = bound_rule(RM, 2)
    new = update(np.zeros(2), np.array([1.0, -1.0]), np.full(2, 0.5))
    assert np.allclose(new, [1.0, -1.0])


def test_update_rm_plus_clips_at_zero():
    _, update = bound_rule(RM_PLUS, 2)
    new = update(np.zeros(2), np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
    assert np.array_equal(new, [0.0, 2.0])
    again = update(new, np.array([1.0, -1.0]), np.array([0.0, 1.0]))
    assert (again >= 0.0).all()


def test_update_mw_with_zero_eta_keeps_strategy():
    play, update = bound_rule(MW, 3)
    cumulative = np.zeros(3)
    before = play(cumulative)
    after = play(update(cumulative, np.array([5.0, -2.0, 1.0]), before))
    assert np.array_equal(before, after)


def rule_cases(algo, rng, k):
    """Cumulative vectors of a player with ``k`` actions: positive regrets,
    none positive (the uniform fallback) and large log-weights; for RM+, the
    nonnegative regrets its update leaves, zeros included."""
    cases = [rng.uniform(-2.0, 2.0, size=k), -rng.uniform(0.0, 2.0, size=k),
             rng.uniform(-1.0, 1.0, size=k) * 1e3]
    if algo is RM_PLUS:
        cases = [np.maximum(c, 0.0) for c in cases] + [np.where(np.arange(k) % 2, 1.0, 0.0)]
    return cases


@pytest.mark.parametrize("algo", list(Algo))
def test_rules_play_into_out_and_update_with_the_bits_of_the_reference_rules(algo):
    rng = np.random.default_rng(67)
    play, update = bound_rule(algo, 5, 0.3)
    utilities = rng.uniform(-1.0, 1.0, size=5)
    for cumulative in rule_cases(algo, rng, 5):
        probs = play(cumulative)
        assert probs.tobytes() == reference_rule_play(algo, cumulative).tobytes()
        expected = reference_rule_update(algo, 0.3, cumulative, utilities, probs)
        assert update(cumulative, utilities, probs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("algo", list(Algo))
def test_a_rule_over_both_players_rows_has_each_players_bits(algo):
    # In turn, each player's regrets are none positive, so RM and RM+ play it
    # uniform, while the other plays its own; each row is that player's rule.
    rng = np.random.default_rng(71)
    k, etas = 6, (0.3, 0.05)
    cumulative, utilities, values = np.zeros((2, k)), np.zeros((2, k)), np.empty((2, 1))
    play, update = _rule(algo, etas, cumulative, utilities, values)
    for uniform in (0, 1):
        vectors = [rule_cases(algo, rng, k)[2 * i] for i in range(2)]
        if algo is not MW:
            vectors[uniform] = rule_cases(algo, rng, k)[1]
        player_utilities = [rng.uniform(-1.0, 1.0, size=k) for _ in range(2)]
        cumulative[:], utilities[:] = vectors, player_utilities
        probs = np.empty((2, k))
        play(probs)
        for i, (vector, p) in enumerate(zip(vectors, probs)):
            assert p.tobytes() == reference_rule_play(algo, vector).tobytes()
            values[i, 0] = p.dot(player_utilities[i])
        if algo is not MW:
            assert np.array_equal(probs[uniform], np.full(k, 1.0 / k))
        update()
        for i in range(2):
            expected = reference_rule_update(
                algo, etas[i], vectors[i], player_utilities[i], probs[i])
            assert cumulative[i].tobytes() == expected.tobytes()


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
    play, update = bound_rule(RM_PLUS, 4)
    cumulative = np.zeros(4)
    for _ in range(200):
        utilities = rng.uniform(-1.0, 1.0, size=4)
        cumulative = update(cumulative, utilities, play(cumulative))
        assert (cumulative >= 0.0).all()


# --- self-play -------------------------------------------------------------------


def test_self_play_rejects_bad_arguments():
    with pytest.raises(ValueError):
        self_play(PENNIES, Algo.REGRET_MATCHING, iters=0)
    with pytest.raises(ValueError):
        self_play(PENNIES, "not-an-algo", iters=10)
    with pytest.raises(ValueError):
        self_play(PENNIES, Algo.REGRET_MATCHING, iters=10, log_every=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"iters": 10.0}, "iters"), ({"iters": 10, "log_every": 2.5}, "log_every"),
    ({"iters": "10"}, "iters"),
])
def test_self_play_refuses_a_non_integer_count_naming_it(kwargs, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        self_play(PENNIES, Algo.REGRET_MATCHING, **kwargs)


def test_self_play_takes_numpy_integer_counts_and_checkpoints_at_python_ints():
    result = self_play(PENNIES, Algo.REGRET_MATCHING, iters=np.int64(130), log_every=np.int32(64))
    assert [point.t for point in result.trajectory] == [64, 128, 130]
    assert all(type(point.t) is int for point in result.trajectory)
    reference = self_play(PENNIES, Algo.REGRET_MATCHING, iters=130, log_every=64)
    assert result.trajectory == reference.trajectory


@pytest.mark.parametrize("averaging", list(Averaging))
@pytest.mark.parametrize("seed, error, message", [
    (None, TypeError, "seed must be an integer, got NoneType"),
    (1.5, TypeError, "seed must be an integer, got float"),
    ("7", TypeError, "seed must be an integer, got str"),
    ([1, 2], TypeError, "seed must be an integer, got list"),
    (-1, ValueError, "seed must be at least 0, got -1"),
])
def test_self_play_refuses_a_seed_that_is_not_a_non_negative_integer(averaging, seed, error, message):
    # Refused under expected averaging too, which never draws: no run quietly
    # takes OS entropy or reads a sequence as entropy.
    with pytest.raises(error, match=f"^{message}$"):
        self_play(PENNIES, Algo.REGRET_MATCHING, iters=10, seed=seed, averaging=averaging)


@pytest.mark.parametrize("seed, same", [(np.int64(5), 5), (np.uint64(2**63), 2**63), (2**70, 2**70)])
def test_self_play_seeds_the_generator_with_the_python_int(monkeypatch, seed, same):
    seeds, default_rng = [], np.random.default_rng

    def spy(value):
        seeds.append(value)
        return default_rng(value)

    monkeypatch.setattr("cce2nash.learners.np.random.default_rng", spy)
    result = self_play(PENNIES, Algo.REGRET_MATCHING, iters=300, seed=seed, averaging="sampled")
    monkeypatch.undo()
    assert seeds == [same] and type(seeds[0]) is int
    reference = self_play(PENNIES, Algo.REGRET_MATCHING, iters=300, seed=same, averaging="sampled")
    assert np.array_equal(result.empirical_joint.mass, reference.empirical_joint.mass)
    assert result.trajectory == reference.trajectory


def test_expected_self_play_makes_no_generator(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("expected averaging made a generator")

    monkeypatch.setattr("cce2nash.learners.np.random.default_rng", no_generator)
    wide = make_zero_sum([[1.0, -2.0, 0.5], [-1.0, 3.0, 0.0]])
    for game in (ASYM, wide):
        for algo in Algo:
            self_play(game, algo, iters=130, seed=4, log_every=50)


def test_self_play_result_stores_only_the_joint_and_the_trajectory():
    names = [field.name for field in dataclasses.fields(SelfPlayResult)]
    assert names == ["empirical_joint", "trajectory"]


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


@pytest.mark.parametrize("shape", [(4, 4), (3, 6)], ids=["square", "wide"])
def test_avg_profile_matches_marginals_of_joint(shape):
    g = make_zero_sum(np.random.default_rng(17).uniform(-1.0, 1.0, size=shape))
    for algo in Algo:
        for averaging in Averaging:
            result = self_play(g, algo, iters=700, seed=3, averaging=averaging)
            marginals = marginal_profile(result.empirical_joint)
            assert result.avg_profile == marginals
            assert np.array_equal(result.avg_profile.row.probs, marginals.row.probs)
            assert np.array_equal(result.avg_profile.col.probs, marginals.col.probs)


def test_trajectory_checkpoints_at_log_every_and_final():
    result = self_play(PENNIES, Algo.MULTIPLICATIVE_WEIGHTS, iters=2500, log_every=1000)
    assert [c.t for c in result.trajectory] == [1000, 2000, 2500]
    final = result.trajectory[-1]
    assert final.cce_eps == cce_gap(result.empirical_joint, PENNIES).epsilon
    # learn's nash_eps is the number check computes for the same joint
    assert final.nash_eps == nash_gap(marginal_profile(result.empirical_joint), PENNIES).epsilon
    assert final.avg_row_payoff == expected_joint_utility(result.empirical_joint, PENNIES)
    # Every intermediate checkpoint is the public route on the joint of that round.
    g = make_zero_sum(np.random.default_rng(53).uniform(-1.0, 1.0, size=(5, 7)))
    for averaging in Averaging:
        result = self_play(g, RM, iters=300, seed=4, averaging=averaging, log_every=37)
        assert [c.t for c in result.trajectory] == [*range(37, 300, 37), 300]
        assert result.trajectory == reference_run(g, RM, RM, 300, 4, averaging, 37)[1]


def reference_play(game, algo, col_algo, iters):
    """Each round's strategies in self-play, from the reference rules on the
    unscaled payoffs minus their shift, one rule call at a time."""
    payoff = game.payoff - game.shift

    def eta(rule, k):  # the fixed-horizon step size of the self_play docstring
        if rule is Algo.MULTIPLICATIVE_WEIGHTS and k > 1 and game.payoff_range > 0:
            return math.sqrt(8.0 * math.log(k) / iters) / game.payoff_range
        return 0.0

    row_eta, col_eta = eta(algo, game.rows), eta(col_algo, game.cols)
    row, col = np.zeros(game.rows), np.zeros(game.cols)
    for _ in range(iters):
        x, y = reference_rule_play(algo, row), reference_rule_play(col_algo, col)
        yield x, y
        row = reference_rule_update(algo, row_eta, row, payoff @ y, x)
        col = reference_rule_update(col_algo, col_eta, col, -(x @ payoff), y)


def reference_run(game, algo, col_algo, iters, seed, averaging, log_every=1000):
    """The averaged joint of ``reference_play`` and its checkpoints, measured
    through the public gap functions.  Expected play is summed in the
    documented order: one ``X.T @ Y`` per block of 64 rounds (the last may be
    shorter), each added to the running total; sampled play adds one count per
    round.  ``avg_row_payoff`` is measured on the game minus its shift, which
    is then added back."""
    rounds = list(reference_play(game, algo, col_algo, iters))
    if averaging is Averaging.SAMPLED:
        rng = np.random.default_rng(seed)

        def draw(probs):  # inverse CDF of one uniform, row player first
            index = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
            return min(index, len(probs) - 1)

        cells = [(draw(x), draw(y)) for x, y in rounds]

    def joint(t):  # the accumulated play of the first t rounds
        acc = np.zeros(game.shape)
        if averaging is Averaging.EXPECTED:
            for start in range(0, t, 64):
                xs, ys = zip(*rounds[start:min(start + 64, t)])
                acc += np.array(xs).T @ np.array(ys)
        else:
            for cell in cells[:t]:
                acc[cell] += 1.0
        return acc / acc.sum()

    shift = game.shift
    centered = make_zero_sum(game.payoff - shift)
    trajectory = []
    for t in [*range(log_every, iters, log_every), iters]:
        mu = JointDistribution(joint(t))
        value = expected_joint_utility(mu, centered)
        trajectory.append(Checkpoint(
            t, cce_gap(mu, game).epsilon, nash_gap(marginal_profile(mu), game).epsilon,
            avg_row_payoff=value + shift if shift else value,
        ))
    return mu.mass, tuple(trajectory)


def reference_game(name):
    rng = np.random.default_rng(53)
    if name == "ties 5x7":  # exact-zero regrets, which RM+ plays as they are
        return make_zero_sum(rng.integers(-1, 2, size=(5, 7)).astype(float))
    if name == "fortran 5x7":
        return make_zero_sum(np.asfortranarray(rng.uniform(-1.0, 1.0, size=(5, 7))))
    shape = tuple(int(n) for n in name.split("x"))
    return make_zero_sum(rng.uniform(-1.0, 1.0, size=shape))


@pytest.mark.parametrize("averaging", list(Averaging))
# 63, 64 and 65 rounds end inside, at and just past the first block of 64;
# 2,100 rounds end inside the 33rd.  1×k and k×1 games give one player a
# single action.  In 5×13 and 13×5 each player runs on its own vectors.
@pytest.mark.parametrize("game, iters", [
    ("5x7", 63), ("5x7", 64), ("5x7", 65), ("5x7", 300),
    ("5x7", 2100), ("1x6", 2100), ("6x1", 2100),
    ("ties 5x7", 300), ("1x1", 65), ("fortran 5x7", 300),
    ("5x13", 300), ("13x5", 300), ("10x10", 300),
])
@pytest.mark.parametrize("algo, col_algo", [
    (Algo.REGRET_MATCHING, Algo.REGRET_MATCHING),
    (Algo.REGRET_MATCHING_PLUS, Algo.REGRET_MATCHING_PLUS),
    (Algo.MULTIPLICATIVE_WEIGHTS, Algo.MULTIPLICATIVE_WEIGHTS),
    (Algo.REGRET_MATCHING_PLUS, Algo.MULTIPLICATIVE_WEIGHTS),
])
def test_self_play_matches_the_public_learner_api_bitwise(algo, col_algo, game, iters, averaging):
    g = reference_game(game)
    result = self_play(g, algo, iters=iters, seed=4, averaging=averaging, col_algo=col_algo,
                       log_every=97)
    mass, trajectory = reference_run(g, algo, col_algo, iters, 4, averaging, 97)
    assert np.array_equal(result.empirical_joint.mass, mass)
    assert result.trajectory == trajectory


@st.composite
def self_play_instances(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        payoff = rng.uniform(-1.0, 1.0, size=(rows, cols))
    else:
        payoff = rng.integers(-1, 2, size=(rows, cols)).astype(float)
    game = make_zero_sum(payoff * 2.0 ** draw(st.integers(-60, 60)))
    algo, col_algo = draw(st.sampled_from(list(Algo))), draw(st.sampled_from(list(Algo)))
    iters = draw(st.integers(1, 130))
    return game, algo, col_algo, iters, draw(st.sampled_from(list(Averaging))), draw(
        st.integers(1, iters))


@settings(max_examples=60, deadline=None)
@given(self_play_instances())
def test_self_play_matches_the_reference_rules_bitwise(instance):
    game, algo, col_algo, iters, averaging, log_every = instance
    result = self_play(game, algo, iters=iters, seed=11, averaging=averaging,
                       log_every=log_every, col_algo=col_algo)
    mass, trajectory = reference_run(game, algo, col_algo, iters, 11, averaging, log_every)
    assert result.empirical_joint.mass.tobytes() == mass.tobytes()
    assert result.trajectory == trajectory


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


def test_checkpoints_score_an_offset_game_on_its_shifted_payoffs():
    # Scored on the raw payoffs near -1e14, each gain is the difference of two
    # numbers rounded to ulp(1e14) = 0.0156, and cce_eps read 0.046875.
    g = make_zero_sum(np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 8)) - 1e14)
    result = self_play(g, MW, iters=3000)
    final = result.trajectory[-1]
    report = analyze(result.empirical_joint, make_zero_sum(g.payoff - g.shift))
    assert final.cce_eps == report.cce.epsilon < 0.016
    assert final.nash_eps == report.nash_of_marginals.epsilon


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


@pytest.mark.parametrize("shape", [(40, 3), (3, 40)])
def test_mw_runs_clean_when_the_shorter_players_weights_underflow(shape):
    # The 3-action player loses every round, so after 70,000 rounds its
    # log-weights are all below -745, where exp underflows.  Its rule, bound
    # to its own vectors, subtracts their maximum first; without that its
    # weights would underflow and their normalization overflow.  The pytest
    # configuration fails on that RuntimeWarning.
    payoff = np.ones(shape)
    payoff[0, 0] = 0.0
    g = make_zero_sum(payoff if shape[0] > shape[1] else -payoff)
    iters = 70_000
    result = self_play(g, MW, iters=iters, log_every=iters)
    loser = result.avg_profile.col if shape[0] > shape[1] else result.avg_profile.row
    assert np.isfinite(loser.probs).all()
    assert result.trajectory[-1].nash_eps <= 2.0 * result.trajectory[-1].cce_eps + 1e-9


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
