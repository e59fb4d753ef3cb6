import errno
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cce2nash import (
    BOUND_TOL,
    JOINT_FILE_SUM_TOL,
    PROB_SUM_TOL,
    FormatError,
    Game,
    JointDistribution,
    MixedStrategy,
    StrategyProfile,
    expected_joint_utility,
    format_game,
    load_game,
    make_zero_sum,
    nash_gap,
    parse_game,
    parse_joint,
    save_game,
)
from cce2nash.equilibrium import bound_slack
from cce2nash.games import format_matrix, parse_matrix, write_files_atomic, write_text_atomic
from helpers import (
    ASYM, PENNIES, random_game, reference_joint_mass, reference_max_abs, reference_mixed_probs,
    reference_scale, reference_shift,
)


def pure_profile(game, r, c):
    return StrategyProfile(
        MixedStrategy.point_mass(game.rows, r), MixedStrategy.point_mass(game.cols, c)
    )


# --- construction -----------------------------------------------------------


def test_make_zero_sum_negates_for_column_player():
    # At (0, 0) of pennies the column player gets -1, and 1 by switching to column 1.
    report = nash_gap(pure_profile(PENNIES, 0, 0), PENNIES)
    assert (report.col_gain, report.col_deviation) == (2.0, 1)
    # At (0, 1) of ASYM it gets 1, against -3 at column 0.
    report = nash_gap(pure_profile(ASYM, 0, 1), ASYM)
    assert (report.col_gain, report.col_deviation) == (0.0, 1)


def test_one_by_one_zero_game():
    g = make_zero_sum([[0.0]])
    assert g.shape == (1, 1)
    assert expected_joint_utility(JointDistribution([[1.0]]), g) == 0.0
    assert nash_gap(pure_profile(g, 0, 0), g).epsilon == 0.0


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


def test_joint_distribution_equality():
    assert JointDistribution([[0.5, 0.0], [0.0, 0.5]]) == JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert JointDistribution([[0.5, 0.0], [0.0, 0.5]]) != JointDistribution([[0.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize("value", [
    make_zero_sum([[1.0, 2.0]]), MixedStrategy([0.5, 0.5]), JointDistribution([[1.0]]),
], ids=["Game", "MixedStrategy", "JointDistribution"])
def test_equality_with_another_type_is_false(value):
    assert (value == 3) is False
    assert (value != 3) is True


def test_payoff_range():
    assert ASYM.payoff_range == 5.0
    assert make_zero_sum([[2.0]]).payoff_range == 0.0


def shift(payoff):
    return make_zero_sum(payoff).shift


def test_shift_is_the_midpoint_only_when_every_payoff_is_within_a_factor_2_of_it():
    assert shift([[2.0, 4.0]]) == 3.0
    assert shift([[-4.0, -2.0]]) == -3.0
    assert shift([[7.0]]) == 7.0
    # 1 < 2.5 / 2, mixed signs and an all-zero game take no shift
    assert shift([[1.0, 4.0]]) == shift([[-4.0, -1.0]]) == 0.0
    assert shift([[-1.0, 3.0]]) == shift(np.zeros((2, 2))) == 0.0
    # the midpoint of payoffs near the largest float does not overflow
    assert shift([[1.5e308, 1.7e308]]) == 1.6e308


def test_centered_subtracts_the_shift_and_copies_nothing_when_it_is_0():
    g = make_zero_sum([[2.0, 4.0]])
    assert np.array_equal(g.centered, [[-1.0, 1.0]])
    assert PENNIES.centered is PENNIES.payoff


def test_normalization_fields_are_derived_and_left_out_of_repr():
    assert repr(PENNIES) == f"Game(payoff={PENNIES.payoff!r})"
    with pytest.raises(TypeError):
        Game([[1.0]], shift=0.0)


# --- mixed strategies --------------------------------------------------------


def test_mixed_strategy_rejects_negative_entries():
    with pytest.raises(ValueError, match="index 1") as exc:
        MixedStrategy([0.5, -0.1, 0.6])
    assert str(exc.value) == "negative probability -0.1 at index 1"


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


@pytest.mark.parametrize("num_actions", [0, -2])
def test_uniform_over_no_actions_is_a_value_error(num_actions):
    with pytest.raises(ValueError, match=f"^num_actions must be at least 1, got {num_actions}$"):
        MixedStrategy.uniform(num_actions)


@pytest.mark.parametrize("make, message", [
    (lambda: MixedStrategy.uniform(2.5), "num_actions must be an integer, got float"),
    (lambda: MixedStrategy.uniform("3"), "num_actions must be an integer, got str"),
    (lambda: MixedStrategy.point_mass(3, 1.0), "index must be an integer, got float"),
    (lambda: MixedStrategy.point_mass(3, None), "index must be an integer, got NoneType"),
    (lambda: MixedStrategy.point_mass(3.0, 1), "num_actions must be an integer, got float"),
], ids=["uniform-float", "uniform-str", "point_mass-float", "point_mass-None", "point_mass-float-count"])
def test_strategy_constructors_refuse_a_non_integer_naming_it(make, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("num_actions, index, message", [
    (3, 3, "index 3 out of range for 3 actions"),
    (3, -1, "index must be at least 0, got -1"),
    (0, 0, "num_actions must be at least 1, got 0"),
])
def test_point_mass_refuses_an_index_outside_the_actions(num_actions, index, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MixedStrategy.point_mass(num_actions, index)


def test_strategy_constructors_take_numpy_integers():
    assert MixedStrategy.uniform(np.int64(4)) == MixedStrategy.uniform(4)
    assert MixedStrategy.point_mass(np.int32(3), np.int64(2)) == MixedStrategy.point_mass(3, 2)


def test_probs_are_read_only():
    s = MixedStrategy.uniform(2)
    with pytest.raises(ValueError):
        s.probs[0] = 1.0


# --- distribution checks -----------------------------------------------------
# MixedStrategy and JointDistribution share one check, games._distribution.

DISTRIBUTION_EDGES = [
    math.nan, math.inf, -math.inf, -1.0, -0.1, -0.0, 0.0, 5e-324, 2.2250738585072009e-308,
    1e308, 1.7976931348623157e308, 0.5, 1.0,
]
# Moves of one entry by these multiples of the sum tolerance put the total at
# 1 ± sum_tol, just inside and just outside it, and well outside it.
SUM_NUDGES = [
    0.0, 1.0, -1.0, 1.0 - 2.0**-20, -1.0 + 2.0**-20, 1.0 + 2.0**-20, -1.0 - 2.0**-20, 2.0, -2.0,
]


@st.composite
def distribution_cases(draw):
    """``(values, ndim, sum_tol)``: a 1-D or 2-D array near a distribution."""
    ndim = draw(st.sampled_from([1, 2]))
    if ndim == 1:
        shape, sum_tol = (draw(st.integers(1, 6)),), PROB_SUM_TOL
    else:
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        sum_tol = draw(st.sampled_from([PROB_SUM_TOL, JOINT_FILE_SUM_TOL]))
    size = math.prod(shape)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    values = weights / weights.sum() if weights.sum() > 0 else np.full(size, 1.0 / size)
    values[draw(st.integers(0, size - 1))] += draw(st.sampled_from(SUM_NUDGES)) * sum_tol
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(DISTRIBUTION_EDGES))
    values = values.reshape(shape)
    if draw(st.integers(0, 9)) == 0:  # the other number of dimensions, 0-d, or empty
        values = draw(st.sampled_from(
            [values.reshape(-1) if ndim == 2 else values.reshape(1, -1), values.reshape(-1)[0],
             np.empty((0,) * ndim)]
        ))
    return values, ndim, sum_tol


def stored_or_message(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=600, deadline=None)
@given(distribution_cases())
def test_distribution_check_matches_the_reference_checks(case):
    values, ndim, sum_tol = case
    if ndim == 1:
        make = lambda: MixedStrategy(values).probs  # noqa: E731
        reference = lambda: reference_mixed_probs(values)  # noqa: E731
    else:
        make = lambda: JointDistribution(values, sum_tol=sum_tol).mass  # noqa: E731
        reference = lambda: reference_joint_mass(values, sum_tol)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the references' overflowing sums
        expected = stored_or_message(reference)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stored_or_message(make)
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray) and not got.flags.writeable
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        return
    if expected in ("probs must be finite", "mass entries must be finite"):
        # The one wording change: the first non-finite entry in C order is named.
        arr = np.array(values, dtype=float)
        cell = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        where = f"probability {float(arr[cell])!r} at index {cell[0]}" if ndim == 1 else (
            f"mass {float(arr[cell])!r} at cell {cell}"
        )
        expected = f"non-finite {where}"
    assert got == expected


@pytest.mark.parametrize("make, message", [
    (lambda: MixedStrategy([1e308, 1e308]), "probabilities sum to inf, expected 1 within 1e-12"),
    (
        lambda: JointDistribution([[1e308, 1e308]]),
        "mass sums to inf, expected 1 within 1e-12 (refusing to renormalize)",
    ),
])
def test_a_sum_past_the_float_range_is_refused_without_a_warning(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            make()
    assert str(exc.value) == message


def test_a_non_finite_entry_is_named_before_a_negative_one():
    with pytest.raises(ValueError) as exc:
        MixedStrategy([-0.5, 0.5, math.nan])
    assert str(exc.value) == "non-finite probability nan at index 2"
    with pytest.raises(ValueError) as exc:
        JointDistribution([[-0.5, 0.5], [-math.inf, 1.0]])
    assert str(exc.value) == "non-finite mass -inf at cell (1, 0)"


# --- utilities ---------------------------------------------------------------


# The payoff of independent play is that of its product joint.


def test_product_joint_utility_uniform_pennies_is_zero():
    mu = JointDistribution.product(MixedStrategy.uniform(2), MixedStrategy.uniform(2))
    assert expected_joint_utility(mu, PENNIES) == pytest.approx(0.0, abs=1e-15)


def test_product_joint_utility_against_double_sum_oracle():
    row = MixedStrategy([0.3, 0.7])
    col = MixedStrategy([0.6, 0.4])
    # independent oracle: literal sum over all four cells
    oracle = 0.0
    for r in range(2):
        for c in range(2):
            oracle += row.probs[r] * col.probs[c] * ASYM.payoff[r, c]
    got = expected_joint_utility(JointDistribution.product(row, col), ASYM)
    assert got == pytest.approx(oracle, abs=1e-12)


# --- algebraic properties ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_product_joint_utility_is_linear_in_row_strategy(lam, seed):
    rng = np.random.default_rng(seed)
    g = random_game(rng, max_dim=5)
    a = rng.uniform(0.01, 1.0, size=g.rows)
    b = rng.uniform(0.01, 1.0, size=g.rows)
    s = MixedStrategy(a / a.sum())
    s2 = MixedStrategy(b / b.sum())
    w = rng.uniform(0.01, 1.0, size=g.cols)
    t = MixedStrategy(w / w.sum())
    mix = MixedStrategy(lam * s.probs + (1.0 - lam) * s2.probs)
    def payoff(row):
        return expected_joint_utility(JointDistribution.product(row, t), g)

    lhs = payoff(mix)
    rhs = lam * payoff(s) + (1.0 - lam) * payoff(s2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_write_text_atomic_gives_the_mode_open_gives_a_new_file(tmp_path, umask, mode):
    # The mode open(path, "w") gives a new file: 0o666 minus the umask.
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode


def test_write_text_atomic_keeps_the_mode_of_an_existing_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    path.chmod(0o600)
    old = os.umask(0o022)
    try:
        write_text_atomic(path, "new\n")
    finally:
        os.umask(old)
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_text_atomic_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to("target.txt")
    write_text_atomic(link, "new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_write_text_atomic_through_a_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link.txt"
    link.symlink_to("sub/target.txt")  # neither the file nor its directory exists
    write_text_atomic(link, "new\n")
    assert link.is_symlink() and (tmp_path / "sub" / "target.txt").read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.txt", "sub", "target.txt"]


def test_write_files_atomic_into_an_existing_directory_makes_no_directory(tmp_path, monkeypatch):
    calls, mkdir = [], os.mkdir

    def record(path, *args, **kwargs):
        calls.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", record)
    write_files_atomic({tmp_path / "a.txt": "a\n", tmp_path / "b.txt": "b\n"})
    assert calls == []
    assert (tmp_path / "a.txt").read_text() == "a\n" and (tmp_path / "b.txt").read_text() == "b\n"


def test_write_files_atomic_replaces_nothing_when_a_target_is_a_directory(tmp_path):
    first, blocked = tmp_path / "first.txt", tmp_path / "blocked"
    first.write_text("old\n")
    blocked.mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        write_files_atomic({first: "new\n", blocked: "new\n"})
    assert str(exc.value) == f"[Errno 21] Is a directory: '{blocked}'"
    assert first.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "first.txt"]


def test_write_files_atomic_names_the_target_when_a_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", str(src), None, str(dst))

    path = tmp_path / "out.txt"
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as exc:
        write_files_atomic({path: "new\n"})
    assert str(exc.value) == f"[Errno 13] Permission denied: '{path}'"
    assert list(tmp_path.iterdir()) == []


# --- codec equivalence with the per-value reference codec ---------------------
# The writer formats one template per row and the reader parses the data lines
# with numpy.  These references are the per-value writer and the per-line reader
# they replaced; the codec must agree with them byte for byte and bit for bit.


def reference_format_matrix(matrix):
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    for row in matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def reference_parse_matrix(text, what="matrix"):
    lines = [
        (lineno, stripped)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]
    if not lines:
        raise FormatError(f"empty {what}: expected a 'rows cols' header")
    header_line, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("expected header 'rows cols'", header_line)
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError("expected integer dimensions 'rows cols'", header_line) from None
    if rows < 1 or cols < 1:
        raise FormatError(f"dimensions must be at least 1x1, got {rows}x{cols}", header_line)
    if len(lines) - 1 < rows:
        raise FormatError(f"expected {rows} data rows, found {len(lines) - 1}", lines[-1][0])
    if len(lines) - 1 > rows:
        raise FormatError("unexpected extra data line", lines[rows + 1][0])
    values = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"expected {cols} values, found {len(tokens)}", lineno)
        try:
            values.append(np.fromiter(map(float, tokens), float, cols))
        except ValueError:
            raise FormatError("invalid decimal value", lineno) from None
    out = np.array(values)
    if not np.isfinite(out).all():
        r, c = np.argwhere(~np.isfinite(out))[0]
        lineno, line = lines[1 + r]
        raise FormatError(f"non-finite value {line.split()[c]!r}", lineno)
    return out


EDGE_FLOATS = [
    -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 2.0**53 + 2, -(2.0**60), 123456789012345678.0,
]
finite_bits = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(math.isfinite)
codec_floats = st.one_of(finite_bits, st.sampled_from(EDGE_FLOATS))


@st.composite
def normalization_payoffs(draw):
    """Payoffs at scales 2**-40 to 2**40 and offsets up to 2**52, with edge floats mixed in."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    scale = 2.0 ** draw(st.integers(-40, 40))
    offset = float(draw(st.one_of(st.just(0), st.integers(-(2**52), 2**52))))
    cell = st.one_of(
        st.floats(-1.0, 1.0).map(lambda v: v * scale + offset), st.sampled_from(EDGE_FLOATS)
    )
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(normalization_payoffs())
def test_game_normalization_matches_the_reference_formulas(payoff):
    if float(payoff.max()) - float(payoff.min()) >= 2.0**1023:
        with pytest.raises(ValueError, match=r"is 2\*\*1023 or more; rescale the game"):
            Game(payoff)
        return
    g = Game(payoff)
    # float.hex tells the zeros apart, so each figure is compared bit for bit.
    assert g.shift.hex() == reference_shift(payoff).hex()
    assert g.scale.hex() == reference_scale(payoff).hex()
    assert g.payoff_range.hex() == (float(payoff.max()) - float(payoff.min())).hex()
    assert bound_slack(g).hex() == (BOUND_TOL * reference_max_abs(payoff)).hex()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
    ),
    data=st.data(),
)
def test_format_matrix_matches_the_per_value_writer(shape, data):
    values = data.draw(st.lists(codec_floats, min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    matrix = np.array(values, dtype=float).reshape(shape)
    text = format_matrix(matrix)
    assert text == reference_format_matrix(matrix)
    assert parse_matrix(text).tobytes() == matrix.tobytes()


# Spellings only float() reads (`1_0`, non-ASCII digits), Unicode separators, a
# vertical tab (a line break to splitlines), inline '#', CRLF, ragged and
# missing or extra rows, a header wider than its data, and non-finite values.
READER_CORPUS = [
    "2 2\n1 -1\n-1 1\n",
    "2 2\n1_0 2\n3 4\n",
    "1 2\n\u0661 \u0662.\u0665\n",
    "1 2\n\uff11 \uff12\n",
    "2 3\n1\t2\t3\n4\u00a05\u30006\n",
    "2 2\n1 2\u000b3 4\n",
    "1 2\n1 2 # note\n",
    "1 2\n1 2#\n",
    "2 2\r\n1 2\r\n3 4\r\n",
    "2 2\n1 2   \n3 4\t\n\n\n",
    "2 2\n1 2 3\n4 5\n",
    "2 2\n1 2\n3\n",
    "3 2\n1 2\n3 4\n",
    "1 2\n1 2\n3 4\n",
    "1 1000000000000000000\n1\n",
    "2 1000000000000000000\n1\n2\n",
    "1 2\nnan 1\n",
    "1 2\n1 inf\n",
    "2 1\n1\n1e999\n",
    "1 5\n+1 .5 1. -0 -.0\n",
    "1 3\n1e-320 -2.5E+3 0x10\n",
    "# c\n\n1 2\n# c\n1,5 2\n",
    "1 2\n1 banana\n",
    "1 1\n\u00a01\u00a0\n",
    "2 2\n# two rows\n 0.1 0.2\n\n0.3 0.4\n",
    "1 1\n-\n",
    "1 3\n1e5 infinity -nan\n",
    "2 2\n1 2\n3 \u0664\n",
    "0 2\n",
    "2\n1 2\n",
    "# empty\n",
]


@pytest.mark.parametrize("text", READER_CORPUS)
def test_parse_matrix_matches_the_per_line_reader(text):
    try:
        expected = reference_parse_matrix(text)
    except FormatError as ref_exc:
        with pytest.raises(FormatError) as exc:
            parse_matrix(text)
        assert (str(exc.value), exc.value.line) == (str(ref_exc), ref_exc.line)
    else:
        out = parse_matrix(text)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


def test_load_game_errors_name_the_file_and_keep_the_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n1 oops\n-1 1\n")
    with pytest.raises(FormatError) as exc:
        load_game(path)
    assert str(exc.value) == f"{path}: line 2: invalid decimal value"
    assert exc.value.line == 2


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_game_names_the_line_of_bytes_that_are_not_utf8(tmp_path, newline):
    # A comment holding a two-byte "é" comes first; the bare Latin-1 "é" is invalid.
    path = tmp_path / "g.txt"
    data = newline.join([b"# \xc3\xa9", b"2 2", b"1 -1", b"-1 \xe9", b""])
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        load_game(path)
    at = data.index(b"\xe9")
    assert str(exc.value) == f"{path}: line 4: not UTF-8: invalid continuation byte at byte {at}"
    assert exc.value.line == 4
