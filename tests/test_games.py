import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cce2nash import (
    FormatError,
    Game,
    MixedStrategy,
    Player,
    StrategyProfile,
    expected_utility,
    format_game,
    from_constant_sum,
    load_game,
    make_zero_sum,
    parse_game,
    parse_joint,
    pure_utility,
    pure_vs_mixed,
    save_game,
)
from cce2nash.games import parse_matrix, write_text_atomic
from helpers import ASYM, PENNIES, random_game


# --- construction -----------------------------------------------------------


def test_make_zero_sum_negates_for_column_player():
    assert pure_utility(PENNIES, Player.COL, 0, 0) == -1.0
    assert pure_utility(ASYM, Player.COL, 0, 1) == 1.0


def test_one_by_one_zero_game():
    g = make_zero_sum([[0.0]])
    assert g.shape == (1, 1)
    assert pure_utility(g, Player.ROW, 0, 0) == 0.0
    assert pure_utility(g, Player.COL, 0, 0) == 0.0


def test_rejects_non_finite_entry_naming_cell():
    with pytest.raises(ValueError, match=r"row 1, column 0"):
        make_zero_sum([[1.0, 2.0], [np.nan, 3.0]])
    with pytest.raises(ValueError, match=r"row 0, column 1"):
        make_zero_sum([[0.0, np.inf]])


def test_rejects_empty_matrix():
    with pytest.raises(ValueError):
        make_zero_sum(np.empty((0, 3)))
    with pytest.raises(ValueError):
        make_zero_sum([[]])


def test_payoff_is_read_only():
    g = make_zero_sum([[1.0, -1.0]])
    with pytest.raises(ValueError):
        g.payoff[0, 0] = 5.0


def test_game_equality():
    assert make_zero_sum([[1.0, 2.0]]) == make_zero_sum([[1.0, 2.0]])
    assert make_zero_sum([[1.0, 2.0]]) != make_zero_sum([[1.0, 3.0]])


def test_payoff_range():
    assert ASYM.payoff_range == 5.0
    assert make_zero_sum([[2.0]]).payoff_range == 0.0


# --- constant-sum normalization ---------------------------------------------


def test_from_constant_sum_splits_the_constant():
    g = from_constant_sum([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g.payoff, [[0.5, -0.5], [-0.5, 0.5]])
    assert g.offset == 0.5


def test_from_constant_sum_constant_game():
    g = from_constant_sum([[2.0, 2.0], [2.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(g.payoff, np.ones((2, 2)))
    assert g.offset == 1.0


def test_from_constant_sum_rejects_varying_sums():
    with pytest.raises(ValueError, match=r"cell \(0, 1\).*cell \(0, 0\)|cell \(0, 0\).*cell \(0, 1\)"):
        from_constant_sum([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])


def test_from_constant_sum_rejection_reports_both_sums():
    # sums are 1, 0, 1, 1: the message should surface the extreme cells' sums
    try:
        from_constant_sum([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
    except ValueError as exc:
        assert "1.0" in str(exc) and "0.0" in str(exc)
    else:
        pytest.fail("expected rejection")


def test_from_constant_sum_original_payoffs_recoverable():
    rng = np.random.default_rng(3)
    row = rng.uniform(-2.0, 2.0, size=(3, 4))
    col = 5.0 - row
    g = from_constant_sum(row, col)
    assert np.allclose(g.payoff + g.offset, row, atol=1e-12)


def test_from_constant_sum_preserves_best_response_sets():
    # Shifting both players by the same constant can't change any argmax.
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows, cols = rng.integers(1, 8, size=2)
        base = rng.uniform(-1.0, 1.0, size=(rows, cols))
        c0 = float(rng.uniform(-3.0, 3.0))
        plain = make_zero_sum(base)
        normalized = from_constant_sum(base, c0 - base)
        w = rng.uniform(0.0, 1.0, size=cols)
        opp = MixedStrategy(w / w.sum())
        before = [pure_vs_mixed(plain, Player.ROW, a, opp) for a in range(rows)]
        after = [pure_vs_mixed(normalized, Player.ROW, a, opp) for a in range(rows)]
        assert np.argmax(before) == np.argmax(after)
        assert np.allclose(np.subtract(before, after), c0 / 2.0, atol=1e-9)


# --- mixed strategies --------------------------------------------------------


def test_mixed_strategy_rejects_negative_entries():
    with pytest.raises(ValueError, match="index 1"):
        MixedStrategy([0.5, -0.1, 0.6])


def test_mixed_strategy_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        MixedStrategy([0.5, 0.4])


def test_mixed_strategy_sum_tolerance_is_tight():
    MixedStrategy([0.5, 0.5 + 1e-13])
    with pytest.raises(ValueError):
        MixedStrategy([0.5, 0.5 + 1e-11])


def test_uniform_and_point_mass():
    assert np.array_equal(MixedStrategy.uniform(4).probs, np.full(4, 0.25))
    assert np.array_equal(MixedStrategy.point_mass(3, 1).probs, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        MixedStrategy.point_mass(3, 3)


def test_probs_are_read_only():
    s = MixedStrategy.uniform(2)
    with pytest.raises(ValueError):
        s.probs[0] = 1.0


# --- utilities ---------------------------------------------------------------


def test_pure_utility_examples():
    assert pure_utility(PENNIES, Player.ROW, 0, 0) == 1.0
    assert pure_utility(PENNIES, Player.COL, 0, 0) == -1.0


def test_pure_utility_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        pure_utility(PENNIES, Player.ROW, 2, 0)
    with pytest.raises(ValueError):
        pure_utility(PENNIES, Player.ROW, 0, -1)


def test_expected_utility_uniform_pennies_is_zero():
    profile = StrategyProfile(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
    assert expected_utility(PENNIES, Player.ROW, profile) == pytest.approx(0.0, abs=1e-15)


def test_expected_utility_point_masses_equal_pure():
    profile = StrategyProfile(MixedStrategy.point_mass(2, 0), MixedStrategy.point_mass(2, 0))
    assert expected_utility(PENNIES, Player.ROW, profile) == 1.0


def test_expected_utility_against_double_sum_oracle():
    row = MixedStrategy([0.3, 0.7])
    col = MixedStrategy([0.6, 0.4])
    # independent oracle: literal sum over all four cells
    oracle = 0.0
    for r in range(2):
        for c in range(2):
            oracle += row.probs[r] * col.probs[c] * ASYM.payoff[r, c]
    got = expected_utility(ASYM, Player.ROW, StrategyProfile(row, col))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert expected_utility(ASYM, Player.COL, StrategyProfile(row, col)) == pytest.approx(
        -oracle, abs=1e-12
    )


def test_expected_utility_rejects_dimension_mismatch():
    profile = StrategyProfile(MixedStrategy.uniform(3), MixedStrategy.uniform(2))
    with pytest.raises(ValueError, match="3x2"):
        expected_utility(PENNIES, Player.ROW, profile)


def test_pure_vs_mixed_examples():
    assert pure_vs_mixed(PENNIES, Player.ROW, 0, MixedStrategy.uniform(2)) == pytest.approx(
        0.0, abs=1e-15
    )
    assert pure_vs_mixed(PENNIES, Player.ROW, 0, MixedStrategy.point_mass(2, 0)) == 1.0
    assert pure_vs_mixed(ASYM, Player.ROW, 0, MixedStrategy([0.25, 0.75])) == pytest.approx(
        0.0, abs=1e-15
    )


def test_pure_vs_mixed_rejections():
    with pytest.raises(ValueError, match="out of range"):
        pure_vs_mixed(PENNIES, Player.ROW, 2, MixedStrategy.uniform(2))
    with pytest.raises(ValueError, match="length 3"):
        pure_vs_mixed(PENNIES, Player.ROW, 0, MixedStrategy.uniform(3))


# --- algebraic properties ----------------------------------------------------


def test_zero_sum_identity_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_game(rng, max_dim=6)
        for r in range(g.rows):
            for c in range(g.cols):
                assert pure_utility(g, Player.ROW, r, c) + pure_utility(g, Player.COL, r, c) == 0.0


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_expected_utility_is_linear_in_row_strategy(lam, seed):
    rng = np.random.default_rng(seed)
    g = random_game(rng, max_dim=5)
    a = rng.uniform(0.01, 1.0, size=g.rows)
    b = rng.uniform(0.01, 1.0, size=g.rows)
    s = MixedStrategy(a / a.sum())
    s2 = MixedStrategy(b / b.sum())
    w = rng.uniform(0.01, 1.0, size=g.cols)
    t = MixedStrategy(w / w.sum())
    mix = MixedStrategy(lam * s.probs + (1.0 - lam) * s2.probs)
    lhs = expected_utility(g, Player.ROW, StrategyProfile(mix, t))
    rhs = lam * expected_utility(g, Player.ROW, StrategyProfile(s, t)) + (
        1.0 - lam
    ) * expected_utility(g, Player.ROW, StrategyProfile(s2, t))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_point_mass_profile_matches_pure_utility(seed):
    rng = np.random.default_rng(seed)
    g = random_game(rng, max_dim=5)
    r = int(rng.integers(g.rows))
    c = int(rng.integers(g.cols))
    profile = StrategyProfile(
        MixedStrategy.point_mass(g.rows, r), MixedStrategy.point_mass(g.cols, c)
    )
    assert expected_utility(g, Player.ROW, profile) == pure_utility(g, Player.ROW, r, c)


# --- text format --------------------------------------------------------------


def test_format_parse_round_trip_is_bit_exact():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = random_game(rng, max_dim=9)
        again = parse_game(format_game(g))
        assert np.array_equal(again.payoff, g.payoff)


def test_parse_game_skips_comments_and_blank_lines():
    text = "# a game\n\n2 2\n# payoffs follow\n1 -1\n\n-1 1\n"
    g = parse_game(text)
    assert g == PENNIES


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_matrix("2\n1 2\n3 4\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_matrix("0 2\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        parse_matrix("2 2\n1 2\n")
    assert "expected 2 data rows" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        parse_matrix("2 2\n1 2\n3\n")
    assert exc.value.line == 3
    with pytest.raises(FormatError) as exc:
        parse_matrix("1 2\n1 banana\n")
    assert exc.value.line == 2 and "invalid decimal" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        parse_matrix("1 1\n1\n2\n")
    assert "extra data line" in str(exc.value)
    with pytest.raises(FormatError):
        parse_matrix("# only comments\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_game, "# game\n2 2\n1 -1\n-1 {}\n", 4),
        (parse_joint, "2 2\n{} 0\n0 0.5\n", 2),
    ],
    ids=["game", "joint"],
)
def test_non_finite_values_are_rejected_with_their_line(parse, text, line, token):
    with pytest.raises(FormatError) as exc:
        parse(text.format(token))
    assert exc.value.line == line
    assert f"line {line}: non-finite value {token!r}" in str(exc.value)


def test_save_load_round_trip(tmp_path):
    g = make_zero_sum([[1.0 / 3.0, -0.25], [math.pi, 1e-17]])
    path = tmp_path / "g.txt"
    save_game(g, path)
    assert load_game(path) == g
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_write_text_atomic_replaces_and_leaves_no_droppings(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "old\n")
    write_text_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
