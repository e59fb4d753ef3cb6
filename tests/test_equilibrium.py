import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cce2nash import (
    FormatError,
    Game,
    JointDistribution,
    MixedStrategy,
    Player,
    StrategyProfile,
    analyze,
    brute_force_gaps,
    cce_gap,
    expected_joint_utility,
    expected_utility,
    load_game,
    load_joint,
    make_zero_sum,
    marginal,
    marginal_profile,
    nash_gap,
    parse_game,
    parse_joint,
    save_joint,
    two_eps_check,
    value_consistency_check,
)
from helpers import (
    ASYM, PENNIES, deviation_value, random_game, random_joint, random_mixed,
    reference_check_brute_shape, reference_check_joint_shape, reference_check_profile,
)

DIAG = JointDistribution([[0.5, 0.0], [0.0, 0.5]])


@st.composite
def joint_instances(draw, max_dim=8):
    """A random (game, joint distribution) pair with matching shapes."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    game = random_game(rng, max_dim=max_dim)
    return game, random_joint(rng, game.shape)


def circulant(first_row) -> Game:
    """Row ``i`` is ``first_row`` rolled right by ``i``.  Every row and column
    holds the same payoffs, so the uniform joint is an exact CCE whose marginals
    are an exact Nash profile."""
    return make_zero_sum([np.roll(first_row, i) for i in range(len(first_row))])


def uniform_joint(game: Game) -> JointDistribution:
    return JointDistribution(np.full(game.shape, 1.0 / game.payoff.size))


@st.composite
def scaled_instances(draw):
    """A (game, joint) pair, half the time a circulant game with the uniform
    joint, with payoffs moved to magnitude 1e-200 to 1e200 and possibly offset
    far beyond their range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        game = circulant(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 9))))
        mu = uniform_joint(game)
    else:
        game = random_game(rng, max_dim=8)
        mu = random_joint(rng, game.shape)
    offset = draw(st.sampled_from([0.0, 1e9, 1e12]))
    magnitude = 10.0 ** draw(st.integers(-200, 200))
    return make_zero_sum((game.payoff + offset) * magnitude), mu


# --- JointDistribution type ---------------------------------------------------


def test_joint_rejects_negative_mass_naming_cell():
    with pytest.raises(ValueError, match=r"\(1, 0\)") as exc:
        JointDistribution([[0.5, 0.5], [-0.1, 0.1]])
    assert str(exc.value) == "negative mass -0.1 at cell (1, 0)"


def test_joint_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        JointDistribution([[0.5, 0.3], [0.1, 0.0]])


def test_joint_product_and_point_mass():
    mu = JointDistribution.product(MixedStrategy([0.25, 0.75]), MixedStrategy.uniform(2))
    assert np.allclose(mu.mass, [[0.125, 0.125], [0.375, 0.375]])
    pm = JointDistribution.point_mass(2, 3, (1, 2))
    assert pm.mass[1, 2] == 1.0 and pm.mass.sum() == 1.0
    with pytest.raises(ValueError, match=r"^index 3 out of range for 3 actions$"):
        JointDistribution.point_mass(2, 3, (0, 3))
    with pytest.raises(TypeError, match=r"^index must be an integer, got float$"):
        JointDistribution.point_mass(2, 2, (0.5, 0))


# --- marginals -----------------------------------------------------------------


def test_marginal_uniform_mass():
    mu = JointDistribution(np.full((2, 2), 0.25))
    assert np.array_equal(marginal(mu, Player.ROW).probs, [0.5, 0.5])
    assert np.array_equal(marginal(mu, Player.COL).probs, [0.5, 0.5])


def test_marginal_point_mass():
    mu = JointDistribution.point_mass(2, 2, (0, 1))
    assert np.array_equal(marginal(mu, Player.ROW).probs, [1.0, 0.0])
    assert np.array_equal(marginal(mu, Player.COL).probs, [0.0, 1.0])


def test_marginal_correlated_diagonal():
    assert np.array_equal(marginal(DIAG, Player.ROW).probs, [0.5, 0.5])
    assert np.array_equal(marginal(DIAG, Player.COL).probs, [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(joint_instances())
def test_marginals_are_always_valid_strategies(instance):
    _, mu = instance
    profile = marginal_profile(mu)
    # construction itself enforces the invariants; spot-check the sums anyway
    assert abs(profile.row.probs.sum() - 1.0) <= 1e-12
    assert abs(profile.col.probs.sum() - 1.0) <= 1e-12


# --- expected joint utility -----------------------------------------------------


def test_expected_joint_utility_diagonal_pennies():
    assert expected_joint_utility(DIAG, PENNIES, Player.ROW) == 1.0
    assert expected_joint_utility(DIAG, PENNIES, Player.COL) == -1.0


def test_expected_joint_utility_point_mass_is_the_cell_payoff():
    rng = np.random.default_rng(7)
    g = random_game(rng, max_dim=5)
    r, c = int(rng.integers(g.rows)), int(rng.integers(g.cols))
    mu = JointDistribution.point_mass(g.rows, g.cols, (r, c))
    assert expected_joint_utility(mu, g, Player.ROW) == g.payoff[r, c]


def test_shape_mismatch_is_rejected_naming_both_shapes():
    with pytest.raises(ValueError, match="2x2 but game is 2x3"):
        expected_joint_utility(DIAG, make_zero_sum(np.zeros((2, 3))), Player.ROW)


def refusal(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("game_shape, shape", [
    ((2, 3), (3, 2)), ((2, 3), (2, 3)), ((1, 4), (4, 1)), ((3, 3), (2, 3)), ((3, 3), (3, 2)),
    ((1, 1), (1, 2)), ((4, 2), (4, 2)),
])
def test_one_shape_check_matches_the_three_reference_checks(game_shape, shape):
    game = make_zero_sum(np.arange(float(np.prod(game_shape))).reshape(game_shape))
    mu = JointDistribution(np.full(shape, 1.0 / np.prod(shape)))
    profile = StrategyProfile(MixedStrategy.uniform(shape[0]), MixedStrategy.uniform(shape[1]))
    joint = refusal(lambda: reference_check_joint_shape(mu, game))
    assert joint == refusal(lambda: reference_check_brute_shape(mu, game))
    for check in (cce_gap, analyze, lambda mu, game: expected_joint_utility(mu, game, Player.ROW)):
        assert refusal(lambda: check(mu, game)) == joint
    assert refusal(lambda: brute_force_gaps(mu, game)) == joint
    # The profile check's one wording change: "profile is", not "profile has shape".
    expected = refusal(lambda: reference_check_profile(game, profile))
    expected = expected and expected.replace("profile has shape", "profile is")
    assert refusal(lambda: nash_gap(profile, game)) == expected
    assert refusal(lambda: expected_utility(game, Player.COL, profile)) == expected


# --- deviation values ------------------------------------------------------------


def test_deviation_value_diagonal_pennies_row_point_mass():
    dev = MixedStrategy.point_mass(2, 0)
    assert deviation_value(DIAG, PENNIES, Player.ROW, dev) == pytest.approx(0.0, abs=1e-15)


def test_deviation_value_one_by_one():
    g = make_zero_sum([[0.7]])
    mu = JointDistribution([[1.0]])
    assert deviation_value(mu, g, Player.ROW, MixedStrategy([1.0])) == 0.7


def test_deviation_value_on_product_distribution_matches_expected_utility():
    # Dyadic entries keep every intermediate sum exact, so this holds with ==.
    row = MixedStrategy([0.5, 0.5])
    col = MixedStrategy([0.25, 0.75])
    mu = JointDistribution.product(row, col)
    dev = MixedStrategy([0.75, 0.25])
    assert deviation_value(mu, ASYM, Player.ROW, dev) == expected_utility(
        ASYM, Player.ROW, StrategyProfile(dev, col)
    )


def test_deviation_value_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 3"):
        deviation_value(DIAG, PENNIES, Player.ROW, MixedStrategy.uniform(3))


@settings(max_examples=80, deadline=None)
@given(joint_instances(), st.integers(0, 2**32 - 1))
def test_mixed_deviations_never_beat_the_best_pure_one(instance, dev_seed):
    game, mu = instance
    rng = np.random.default_rng(dev_seed)
    report = cce_gap(mu, game)
    base = expected_joint_utility(mu, game, Player.ROW)
    dev = random_mixed(rng, game.rows)
    assert deviation_value(mu, game, Player.ROW, dev) <= base + report.row_gain + 1e-12
    dev_col = random_mixed(rng, game.cols)
    base_col = expected_joint_utility(mu, game, Player.COL)
    assert deviation_value(mu, game, Player.COL, dev_col) <= base_col + report.col_gain + 1e-12


# --- gap reports -------------------------------------------------------------------


def test_cce_gap_diagonal_pennies():
    report = cce_gap(DIAG, PENNIES)
    assert report.row_gain == pytest.approx(-1.0, abs=1e-15)
    assert report.col_gain == pytest.approx(1.0, abs=1e-15)
    assert report.epsilon == pytest.approx(1.0, abs=1e-15)


def test_cce_gap_uniform_product_is_zero():
    mu = JointDistribution.product(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
    assert cce_gap(mu, PENNIES).epsilon == pytest.approx(0.0, abs=1e-15)


def test_cce_gap_one_by_one():
    mu = JointDistribution([[1.0]])
    assert cce_gap(mu, make_zero_sum([[3.0]])).epsilon == 0.0


def test_cce_gap_tie_breaks_to_lowest_index():
    g = make_zero_sum([[1.0, -1.0], [1.0, -1.0]])  # both rows identical
    mu = JointDistribution(np.full((2, 2), 0.25))
    assert cce_gap(mu, g).row_deviation == 0


def test_nash_gap_uniform_pennies_is_zero():
    profile = StrategyProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
    assert nash_gap(profile, PENNIES).epsilon == pytest.approx(0.0, abs=1e-15)


def test_nash_gap_pure_pennies_profile():
    profile = StrategyProfile(MixedStrategy.point_mass(2, 0), MixedStrategy.point_mass(2, 0))
    report = nash_gap(profile, PENNIES)
    assert report.col_gain == pytest.approx(2.0, abs=1e-15)
    assert report.col_deviation == 1
    assert report.epsilon == pytest.approx(2.0, abs=1e-15)


def test_nash_gap_rejects_mismatched_profile():
    profile = StrategyProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(3))
    with pytest.raises(ValueError, match="2x3"):
        nash_gap(profile, PENNIES)


@pytest.mark.parametrize("big", [1.5e308, 2.0**1022])
def test_gaps_refuse_a_payoff_range_of_2_to_the_1023(big, tmp_path):
    # 2**1022 spans exactly 2**1023; 1.5e308 spans past the float range.  The
    # game is refused when it is made or loaded, so no gap check ever sees it.
    payoff = [[big, -big], [-big, big]]
    text = f"2 2\n{big!r} {-big!r}\n{-big!r} {big!r}\n"
    path = tmp_path / "g.txt"
    path.write_text(text)
    message = r"payoff range \S+ is 2\*\*1023 or more; rescale the game$"
    for make in (Game, make_zero_sum):
        with pytest.raises(ValueError, match=f"^{message}"):
            make(payoff)
    with pytest.raises(FormatError, match=f"^{message}"):
        parse_game(text)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}"):
        load_game(path)
    # Just inside the limit the gaps are scored, without overflow.
    mu = JointDistribution([[0.0, 1.0], [0.0, 0.0]])
    report = analyze(mu, make_zero_sum([[4e307, -4e307], [-4e307, 4e307]]))
    assert report.cce.epsilon == 8e307 and report.two_eps.holds


def test_gap_report_epsilon_clips_at_zero():
    mu = JointDistribution.product(MixedStrategy.uniform(3), MixedStrategy.uniform(3))
    g = make_zero_sum([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    report = cce_gap(mu, g)
    assert report.epsilon == 0.0
    assert report.epsilon >= report.row_gain and report.epsilon >= report.col_gain


# --- the two headline bounds ----------------------------------------------------------


def test_value_consistency_diagonal_pennies():
    result = value_consistency_check(DIAG, PENNIES)
    assert result.lhs == pytest.approx(1.0, abs=1e-12)
    assert result.bound == pytest.approx(1.0, abs=1e-12)
    assert result.holds


def test_value_consistency_product_distribution_lhs_zero():
    rng = np.random.default_rng(5)
    g = random_game(rng, max_dim=6)
    mu = JointDistribution.product(random_mixed(rng, g.rows), random_mixed(rng, g.cols))
    result = value_consistency_check(mu, g)
    assert result.lhs <= 1e-12
    assert result.holds


def test_value_consistency_point_mass():
    mu = JointDistribution.point_mass(2, 2, (1, 0))
    result = value_consistency_check(mu, PENNIES)
    assert result.lhs <= 1e-15
    assert result.holds


def test_column_player_consistency_gap_equals_row_gap_exactly():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_game(rng, max_dim=7)
        mu = random_joint(rng, g.shape)
        profile = marginal_profile(mu)
        row_lhs = abs(
            expected_joint_utility(mu, g, Player.ROW) - expected_utility(g, Player.ROW, profile)
        )
        col_lhs = abs(
            expected_joint_utility(mu, g, Player.COL) - expected_utility(g, Player.COL, profile)
        )
        assert row_lhs == col_lhs


def test_two_eps_diagonal_pennies():
    result = two_eps_check(DIAG, PENNIES)
    assert result.cce_eps == pytest.approx(1.0, abs=1e-12)
    assert result.nash_eps == pytest.approx(0.0, abs=1e-12)
    assert result.holds


def test_two_eps_exact_cce_gives_exact_nash():
    mu = JointDistribution.product(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
    result = two_eps_check(mu, PENNIES)
    assert result.cce_eps <= 1e-12
    assert result.nash_eps <= 2.0 * result.cce_eps + 1e-9
    assert result.holds


@settings(max_examples=120, deadline=None)
@given(joint_instances())
def test_both_bounds_hold_on_random_instances(instance):
    game, mu = instance
    assert value_consistency_check(mu, game).holds
    assert two_eps_check(mu, game).holds
    # analyze's shared kernel agrees bit for bit with the independent public
    # routes on the payoffs it scores, the game minus its shift
    report, profile = analyze(mu, game), marginal_profile(mu)
    assert report.nash_of_marginals == nash_gap(profile, game)
    centered = make_zero_sum(game.payoff - game.shift)
    assert report.value_consistency.lhs == abs(
        expected_joint_utility(mu, centered, Player.ROW)
        - expected_utility(centered, Player.ROW, profile)
    )


@settings(max_examples=150, deadline=None)
@given(scaled_instances(), st.integers(-40, 40))
def test_verdicts_do_not_depend_on_a_power_of_two_payoff_scale(instance, k):
    game, mu = instance
    report = analyze(mu, game)
    scaled = analyze(mu, make_zero_sum(game.payoff * 2.0**k))
    # Both bounds hold on every joint, exact equilibria at large offsets included.
    assert report.value_consistency.holds and report.two_eps.holds
    assert scaled.value_consistency.holds == report.value_consistency.holds
    assert scaled.two_eps.holds == report.two_eps.holds
    # Scaling by a power of two is exact: the gaps and the slack move together.
    assert scaled.tolerance == 2.0**k * report.tolerance
    assert scaled.cce.epsilon == 2.0**k * report.cce.epsilon
    assert scaled.nash_of_marginals.epsilon == 2.0**k * report.nash_of_marginals.epsilon


@pytest.mark.parametrize("scale, offset", [(1e9, 0.0), (1e12, 0.0), (1.0, 1e9), (1.0, 1e12)])
def test_exact_cces_of_circulant_games_pass_at_large_scale_and_offset(scale, offset):
    # The uniform joint of 200 circulant games; an absolute 1e-9 slack failed
    # 28, 23, 64 and 58 of them.
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(3, 40))
        game = circulant(rng.uniform(-1.0, 1.0, size=n) * scale + offset)
        report = analyze(uniform_joint(game), game)
        failures += not (report.value_consistency.holds and report.two_eps.holds)
    assert failures == 0


def tightness_witness(k, scale, offset):
    """The game ``[I_k | 0]`` (k x (k+1)) and a joint with a = 1/(2k^2) on each
    (i, i) and 1/k - a on each (i, i+1 mod k)."""
    payoff = np.hstack([np.eye(k), np.zeros((k, 1))]) * scale + offset
    a = 1.0 / (2 * k * k)
    mass = np.zeros((k, k + 1))
    for i in range(k):
        mass[i, i] = a
        mass[i, (i + 1) % k] = 1.0 / k - a
    return make_zero_sum(payoff), JointDistribution(mass)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("scale, offset", [
    (1.0, 0.0), (2.0**40, 0.0), (2.0**-40, 0.0), (1.0, 2.0**40), (1.0, -(2.0**40)),
])
def test_both_bounds_are_tight_on_the_witness_family(k, scale, offset):
    # Both inequalities hold with equality, exactly in binary, so neither the
    # constant 2 nor the value-consistency bound can be lowered.
    game, mu = tightness_witness(k, scale, offset)
    report = analyze(mu, game)
    assert report.cce.epsilon > 0.0
    assert report.nash_of_marginals.epsilon == 2.0 * report.cce.epsilon
    assert report.value_consistency.lhs == report.value_consistency.bound
    assert report.two_eps.holds and report.value_consistency.holds


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_both_bounds_hold_on_the_witness_family_at_offset_2_to_52(k):
    # ulp(2**52) is 1, so both gaps quantize to 0 here and only the bounds are
    # asserted.
    game, mu = tightness_witness(k, 1.0, 2.0**52)
    report = analyze(mu, game)
    assert report.two_eps.holds and report.value_consistency.holds


def test_gaps_are_shift_invariant():
    rng = np.random.default_rng(19)
    for _ in range(40):
        g = random_game(rng, max_dim=8)
        mu = random_joint(rng, g.shape)
        k = float(rng.uniform(-5.0, 5.0))
        shifted = make_zero_sum(g.payoff + k)
        assert cce_gap(mu, g).epsilon == pytest.approx(
            cce_gap(mu, shifted).epsilon, abs=1e-9
        )
        profile = marginal_profile(mu)
        assert nash_gap(profile, g).epsilon == pytest.approx(
            nash_gap(profile, shifted).epsilon, abs=1e-9
        )


# --- text format ----------------------------------------------------------------------


def test_joint_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    mu = random_joint(rng, (3, 4))
    path = tmp_path / "mu.txt"
    save_joint(mu, path)
    assert np.array_equal(load_joint(path).mass, mu.mass)


def test_parse_joint_rejects_negative_mass():
    with pytest.raises(FormatError, match=r"\(0, 1\)"):
        parse_joint("2 2\n0.5 -0.1\n0.3 0.3\n")


def test_load_joint_errors_name_the_file_and_keep_the_line(tmp_path):
    path = tmp_path / "mu.txt"
    path.write_text("2 2\n0.5 -0.1\n0.3 0.3\n")
    with pytest.raises(FormatError) as exc:
        load_joint(path)
    assert str(exc.value) == f"{path}: negative mass -0.1 at cell (0, 1)"
    assert exc.value.line is None
    path.write_text("2 2\n0.5 0.5\n0 x\n")
    with pytest.raises(FormatError) as exc:
        load_joint(path)
    assert str(exc.value) == f"{path}: line 3: invalid decimal value"
    assert exc.value.line == 3


def test_parse_joint_refuses_to_renormalize():
    with pytest.raises(FormatError, match="refusing to renormalize"):
        parse_joint("2 2\n0.4 0.2\n0.2 0.1\n")


def test_parse_joint_accepts_file_tolerance_slack():
    # off by 5e-10: inside the 1e-9 file tolerance, outside the 1e-12 one
    mu = parse_joint("1 2\n0.5 0.5000000005\n")
    assert marginal(mu, Player.ROW).probs.sum() == pytest.approx(1.0, abs=1e-12)

