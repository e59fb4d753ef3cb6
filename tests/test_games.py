import contextlib
import errno
import hashlib
import io
import math
import os
import stat
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cce2nash import (
    BOUND_TOL,
    PROB_SUM_TOL,
    FormatError,
    Game,
    JointDistribution,
    MixedStrategy,
    StrategyProfile,
    expected_joint_utility,
    format_game,
    load_game,
    load_joint,
    nash_gap,
    parse_game,
    parse_joint,
    save_game,
    save_joint,
)
from cce2nash import games
from cce2nash.cli import main
from cce2nash.equilibrium import JOINT_FILE_SUM_TOL, bound_slack
from cce2nash.games import format_matrix, parse_matrix, write_files_atomic, write_text_atomic
from helpers import (
    ASYM, PENNIES, point_mass, product, random_game, reference_joint_mass, reference_max_abs,
    reference_mixed_probs, reference_scale, reference_shift, uniform,
)


def pure_profile(game, r, c):
    return StrategyProfile(
        point_mass(game.rows, r), point_mass(game.cols, c)
    )


# --- construction -----------------------------------------------------------


def test_the_column_player_gets_the_negated_payoff():
    # At (0, 0) of pennies the column player gets -1, and 1 by switching to column 1.
    report = nash_gap(pure_profile(PENNIES, 0, 0), PENNIES)
    assert (report.col_gain, report.col_deviation) == (2.0, 1)
    # At (0, 1) of ASYM it gets 1, against -3 at column 0.
    report = nash_gap(pure_profile(ASYM, 0, 1), ASYM)
    assert (report.col_gain, report.col_deviation) == (0.0, 1)


def test_one_by_one_zero_game():
    g = Game([[0.0]])
    assert g.shape == (1, 1)
    assert expected_joint_utility(JointDistribution([[1.0]]), g) == 0.0
    assert nash_gap(pure_profile(g, 0, 0), g).epsilon == 0.0


def test_rejects_non_finite_entry_naming_cell():
    with pytest.raises(ValueError, match=r"row 1, column 0"):
        Game([[1.0, 2.0], [np.nan, 3.0]])
    with pytest.raises(ValueError, match=r"row 0, column 1"):
        Game([[0.0, np.inf]])


def test_rejects_empty_matrix():
    with pytest.raises(ValueError):
        Game(np.empty((0, 3)))
    with pytest.raises(ValueError):
        Game([[]])


def test_payoff_is_read_only():
    g = Game([[1.0, -1.0]])
    with pytest.raises(ValueError):
        g.payoff[0, 0] = 5.0


def test_game_equality():
    assert Game([[1.0, 2.0]]) == Game([[1.0, 2.0]])
    assert Game([[1.0, 2.0]]) != Game([[1.0, 3.0]])


def test_joint_distribution_equality():
    assert JointDistribution([[0.5, 0.0], [0.0, 0.5]]) == JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert JointDistribution([[0.5, 0.0], [0.0, 0.5]]) != JointDistribution([[0.0, 0.5], [0.5, 0.0]])


def test_mixed_strategy_and_profile_equality():
    assert MixedStrategy([0.25, 0.75]) == MixedStrategy([0.25, 0.75])
    assert MixedStrategy([0.25, 0.75]) != MixedStrategy([0.75, 0.25])
    assert MixedStrategy([1.0]) != MixedStrategy([1.0, 0.0])
    profile = StrategyProfile(MixedStrategy([0.5, 0.5]), MixedStrategy([1.0]))
    assert profile == StrategyProfile(MixedStrategy([0.5, 0.5]), MixedStrategy([1.0]))
    assert profile != StrategyProfile(MixedStrategy([0.5, 0.5]), MixedStrategy([0.0, 1.0]))
    assert profile != StrategyProfile(MixedStrategy([1.0]), MixedStrategy([1.0]))


@pytest.mark.parametrize("value", [
    Game([[1.0, 2.0]]), MixedStrategy([0.5, 0.5]), JointDistribution([[1.0]]),
], ids=["Game", "MixedStrategy", "JointDistribution"])
def test_equality_with_another_type_is_false(value):
    assert (value == 3) is False
    assert (value != 3) is True


def test_payoff_range():
    assert ASYM.payoff_range == 5.0
    assert Game([[2.0]]).payoff_range == 0.0


def shift(payoff):
    return Game(payoff).shift


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
    g = Game([[2.0, 4.0]])
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


def test_probs_are_read_only():
    s = uniform(2)
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
    mu = product(uniform(2), uniform(2))
    assert expected_joint_utility(mu, PENNIES) == pytest.approx(0.0, abs=1e-15)


def test_product_joint_utility_against_double_sum_oracle():
    row = MixedStrategy([0.3, 0.7])
    col = MixedStrategy([0.6, 0.4])
    # independent oracle: literal sum over all four cells
    oracle = 0.0
    for r in range(2):
        for c in range(2):
            oracle += row.probs[r] * col.probs[c] * ASYM.payoff[r, c]
    got = expected_joint_utility(product(row, col), ASYM)
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
        return expected_joint_utility(product(row, t), g)

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
    g = Game([[1.0 / 3.0, -0.25], [math.pi, 1e-17]])
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
# The writer fills each block of rows by one '%', values in [1e-16, 1) from
# exact integer digits, and the reader parses the data lines with numpy.  These
# references are the per-value writer and the per-line reader they replaced; the
# codec must agree with them byte for byte and bit for bit.


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


def _neighbours(x, steps):
    out = [x]
    for direction in (0.0, 2.0):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


# Each power of ten from 1 to 1e-18, as the double nearest it, with six float
# neighbours either side (the largest below each is the double nearest to
# rounding up a decade; the doubles 1e-6, 1e-14 and 1e-16 themselves lie
# below their powers); exact 17-digit ties, j * 2**-(17 - E) with j odd in
# decade E, which %.17g rounds half to even (decades -7 and -8 hold the
# smallest ones); and what sends a value off the digit path: 0, -0.0, 1,
# 1e-16 and below, and subnormals.
DECADE_NEIGHBOURS = np.array(
    [x for k in range(19) for x in _neighbours(float(f"1e-{k}"), 6)]
)
DIGIT_DECADES = tuple(range(-16, 0))
DIGIT_TIES = np.array([
    math.ldexp(j, exponent - 17)
    for exponent in DIGIT_DECADES
    for j in range(math.ceil(10.0**exponent * 2 ** (17 - exponent)) | 1,
                   int(10.0 ** (exponent + 1) * 2 ** (17 - exponent)), 14)
])
OFF_DIGIT_PATH = np.array([0.0, -0.0, 1.0, -1.0, 1e-16, -1e-16, 3e-17, 5e-324,
                           2.2250738585072009e-308, -1e-310])


@st.composite
def digit_matrices(draw):
    """Up to 6 by 200 values, mostly in +-[1e-18, 1): log-uniform, decade
    neighbours and ties in drawn shares, with a drawn share of off-path values."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rows * cols
    values = 10.0 ** rng.uniform(-18.0, 0.0, size)
    for pool, share in ((DECADE_NEIGHBOURS, draw(st.sampled_from([0.0, 0.1, 0.5]))),
                        (DIGIT_TIES, draw(st.sampled_from([0.0, 0.1, 0.5]))),
                        (OFF_DIGIT_PATH, draw(st.sampled_from([0.0, 0.0, 0.002, 0.05])))):
        at = rng.random(size) < share
        values[at] = rng.choice(pool, int(at.sum()))
    signs = rng.choice([1.0, -1.0], size)
    return (values * signs).reshape(rows, cols)


@settings(max_examples=150, deadline=None)
@given(digit_matrices())
def test_format_matrix_writes_digit_rows_as_the_per_value_writer(matrix):
    text = format_matrix(matrix)
    assert text == reference_format_matrix(matrix)
    assert parse_matrix(text).tobytes() == matrix.tobytes()
    # A game built from a transposed array keeps its column-major layout.
    assert format_matrix(np.asfortranarray(matrix)) == text


def test_digit_ties_lie_halfway_between_two_17_digit_decimals():
    for x in DIGIT_TIES.tolist():
        decade = next(e for e in DIGIT_DECADES[::-1] if Fraction(x) >= Fraction(10) ** e)
        assert Fraction(x) < Fraction(10) ** (decade + 1)
        assert (Fraction(x) * 10 ** (16 - decade)).denominator == 2


def test_one_search_gives_each_digit_value_its_sign_and_decade():
    # The doubles either side of each edge at +-10**-k, and some inside each
    # decade, get the code whose entry is their sign and exact floor(log10 |x|).
    values = [y for k in range(17) for x in (float(f"1e-{k}"), float(f"3e-{k}"))
              for y in _neighbours(x, 2)]
    values = [x for x in values + [-x for x in values] if games._DIGIT_LOW <= abs(x) < 1.0]
    codes = np.searchsorted(games._DIGIT_EDGES, values, side="right")
    for x, code in zip(values, codes.tolist()):
        decade = next(e for e in DIGIT_DECADES[::-1] if abs(Fraction(x)) >= Fraction(10) ** e)
        assert games._DECADES[code] == ("-" if x < 0 else "", decade), x


def _largest_below_power(k):
    """The largest double below 10**-k."""
    nearest = float(f"1e-{k}")
    return nearest if Fraction(nearest) < Fraction(1, 10**k) else math.nextafter(nearest, 0.0)


def _written_as_the_per_value_writer(values, cols=64):
    """format_matrix of ``values``, both signs, repeated into rows of ``cols``
    (enough for the digit path) in C and Fortran order, against the reference."""
    values = np.array(values + [-x for x in values])
    matrix = np.resize(values, (max(2, -(-values.size // cols)), cols))
    text = format_matrix(matrix)
    assert text == reference_format_matrix(matrix)
    assert format_matrix(np.asfortranarray(matrix)) == text
    assert parse_matrix(text).tobytes() == matrix.tobytes()


@pytest.mark.parametrize("k", range(16))
def test_only_the_double_1e_14_rounds_up_a_decade_at_17_digits(k):
    # The top of each digit decade, -1 - k: below 10**-14 the double 1e-14
    # rounds up to it, so it carries into decade -14 and is written "1e-14";
    # the largest double below any other power keeps 17 digits below it, and
    # so does every smaller one.  The writer writes each as %.17g does.
    below = _largest_below_power(k)
    assert below < Fraction(1, 10**k)
    assert (Fraction("%.17g" % below) >= Fraction(1, 10**k)) == (k == 14)
    assert Fraction("%.17g" % math.nextafter(below, 0.0)) < Fraction(1, 10**k)
    _written_as_the_per_value_writer(_neighbours(below, 3))


def _one_digit_doubles(exponent):
    """The doubles in decade ``exponent`` that %.17g writes with one digit."""
    # Such a double lies within half a 17-digit unit of some d * 10**E; every
    # double but the nearest and its neighbours lies more than an ulp, so
    # further, away.
    half_unit = Fraction(10) ** (exponent - 16) / 2
    found = []
    for d in range(1, 10):
        power = d * Fraction(10) ** exponent
        nearest = float(f"{d}e{exponent}")
        assert math.ulp(math.nextafter(nearest, 0.0)) > half_unit
        for x in _neighbours(nearest, 1):
            if Fraction(10) ** exponent <= Fraction(x) < Fraction(10) ** (exponent + 1):
                one = abs(Fraction(x) - power) < half_unit
                assert one == ("." not in "%.17g" % x)
                if one:
                    found.append(x)
    return found


@pytest.mark.parametrize("exponent", range(-5, -17, -1))
def test_one_digit_doubles_in_the_exponent_decades_are_written_as_the_per_value_writer(exponent):
    # None in decades -5 to -7, so every digit value there is written
    # "d.ddd...e-0K"; below, each decade holds some, as 2e-08, which leave
    # the "." out, and the writer writes them as %.17g does.
    found = _one_digit_doubles(exponent)
    assert (found == []) == (exponent >= -7)
    nearest = [float(f"{d}e{exponent}") for d in range(1, 10)]
    _written_as_the_per_value_writer([y for x in nearest for y in _neighbours(x, 1)])


def test_the_digit_range_edges_one_digit_and_carried_values_keep_the_17g_bytes():
    # The doubles 1e-6 and 1e-16 lie below their powers of ten: 1e-6 is a digit
    # value of decade -7, and 1e-16, of decade -17, is below the range, which
    # starts at the next double up.  2e-08 and 5e-15 keep one digit, and 1e-14
    # carries into decade -14.
    above = math.nextafter(1e-16, 1.0)
    assert Fraction(float("1e-16")) < Fraction(1, 10**16) < Fraction(above)
    row = [0.5, 1e-6, -1e-6, 1e-8, 2e-8, 5e-15, 1e-14, -1e-14, 1e-16, -1e-16, above, 2e-6] * 20
    matrix = np.array([row, row[::-1]])
    text = format_matrix(matrix)
    assert text == reference_format_matrix(matrix)
    assert format_matrix(np.asfortranarray(matrix)) == text
    assert text.split()[3:14] == [
        "9.9999999999999995e-07", "-9.9999999999999995e-07", "1e-08", "2e-08", "5e-15", "1e-14",
        "-1e-14", "9.9999999999999998e-17", "-9.9999999999999998e-17", "1.0000000000000001e-16",
        "1.9999999999999999e-06",
    ]


def test_values_near_a_tie_fall_back_to_their_17g_text(monkeypatch):
    # Forced: with the tie bound at 0.5, every value in decades -7 to -16 lies
    # within it of a half-integer, so each is its own '%.17g' text and takes
    # no digits; the bytes stay those of the per-value writer.
    rng = np.random.default_rng(28)
    values = 10.0 ** rng.uniform(-16.0, 0.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    matrix = values.reshape(5, 200)
    last = np.zeros(values.size, dtype=bool)
    last[199::200] = True
    # Unforced, every value but those %.17g writes with no "." takes digits.
    _, number = games._digit_pieces(values, last)
    assert number.size == sum("." in "%.17g" % x for x in values.tolist())
    monkeypatch.setattr(games, "_SMALL_TIE", 0.5)
    _, number = games._digit_pieces(values, last)
    assert number.size == np.count_nonzero(np.abs(values) >= math.nextafter(1e-6, 1.0))
    assert format_matrix(matrix) == reference_format_matrix(matrix)
    assert format_matrix(np.asfortranarray(matrix)) == reference_format_matrix(matrix)


def _near_ties():
    """Doubles x of decades E = -7 to -16 with x·10**k, k = 16 - E, exactly
    j·2**-(52 + s) from a half-integer, for s = 0 to 3 and |j| <= 16."""
    ties = []
    for exponent in range(-7, -17, -1):
        k = 16 - exponent
        for s in range(4):
            modulus = 2 ** (52 + s)
            for j in range(-16, 17):
                # m·5**k is 2**(51 + s) + j modulo 2**(52 + s), so
                # x·10**k = m·5**k / 2**(52 + s) is an integer + 1/2 + j·2**-(52 + s).
                m = (2 ** (51 + s) + j) * pow(5, -k, modulus) % modulus
                x = math.ldexp(m, -k - 52 - s)
                if m < 2**53 and 10**exponent <= Fraction(x) < 10 ** (exponent + 1):
                    ties.append(x)
    return ties


def test_values_near_a_tie_are_written_as_the_per_value_writer_only_with_the_fallback(
    monkeypatch,
):
    # Unforced: doubles that lie within 16·2**-52 of a tie at 17 digits.
    ties = _near_ties()
    assert len(ties) == 134
    for x in ties:
        scaled = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
        assert abs(scaled % 1 - Fraction(1, 2)) <= Fraction(16, 2**52)
    matrix = np.array([ties, [-x for x in ties]])
    expected = reference_format_matrix(matrix)
    assert format_matrix(matrix) == expected
    assert format_matrix(np.asfortranarray(matrix)) == expected
    # Without the fallback some of them (in decades -8 to -10) are mis-written,
    # so the bound is needed; this does not show that 31·2**-53 is tight.
    monkeypatch.setattr(games, "_SMALL_TIE", -1.0)
    assert format_matrix(matrix) != expected


def first_difference(text, expected):
    """The first line at which two texts differ, as (index, line, expected
    line), or None; a failure shows one line, not a diff of whole files."""
    lines, wanted = text.split("\n"), expected.split("\n")
    for i, (line, want) in enumerate(zip(lines, wanted)):
        if line != want:
            return i, line, want
    return None if len(lines) == len(wanted) else (min(len(lines), len(wanted)), "", "")


def _joint_masses(kind, rng, n=200):
    """A joint of each kind the benchmark's check workload writes."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(n * n)).reshape(n, n)
    if kind == "product":
        return np.outer(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
    mass = np.zeros(n * n)
    cells = rng.choice(n * n, size=int(rng.integers(1, 4)), replace=False)
    mass[cells] = rng.dirichlet(np.ones(cells.size))
    return mass.reshape(n, n)


@pytest.mark.parametrize("kind", ["dirichlet", "product", "sparse"])
@pytest.mark.parametrize("seed", range(3))
def test_200_by_200_joints_are_written_as_the_per_value_writer(tmp_path, kind, seed):
    mass = _joint_masses(kind, np.random.default_rng(seed))
    assert first_difference(format_matrix(mass), reference_format_matrix(mass)) is None
    path = tmp_path / "joint.txt"
    save_joint(JointDistribution(mass), path)
    assert load_joint(path).mass.tobytes() == mass.tobytes()
    # Rows that mix in-range masses with values off the digit path.
    mixed = mass.copy()
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0, 2.5, -1.0, 1e300, 1e-6, 1e-17]
    for r in range(0, 200, 7):
        mixed[r, np.arange(r, r + len(odd)) % 200] = odd
    mixed[1, 0] = 1e-5  # decade -5, written d.ddd...e-05, in the first column
    assert first_difference(format_matrix(mixed), reference_format_matrix(mixed)) is None


def _pinned_file(name, directory):
    """Write the file of CI's console-script smoke named ``name`` into
    ``directory`` as CI makes it; return its path and the matrix it holds."""
    path = directory / "pin.txt"
    if name.startswith("gen"):
        rows, cols = (50, 50) if name == "gen 50x50" else (200, 1)
        main(["gen", "--rows", str(rows), "--cols", str(cols), "--seed", "7",
              "--out", str(directory)])
        return directory / "game_7_0.txt", np.random.default_rng(7).uniform(-1.0, 1.0, (rows, cols))
    if name == "edges":
        m = np.array([[math.nextafter(x, 0.0), x, math.nextafter(x, 1.0), 2 * x,
                       float(f"7.123456789e-{k}")]
                      for k in range(1, 17) for x in [float(f"1e-{k}")]])
        game = Game(np.hstack([m, -m]))
        save_game(game, path)
        return path, game.payoff
    if name == "joint":
        m = np.arange(1, 2501.0).reshape(50, 50)
        mu = JointDistribution(m / m.sum())
    elif name == "zeros":
        m = np.zeros((200, 200))
        m[1::2, 1:] = np.arange(1, 19901).reshape(100, 199)
        m[0, 7] = m[0, 199] = -0.0
        mu = JointDistribution(m / m.sum())
    else:
        m = np.outer([float(f"1e-{k}") for k in range(7, 17)], np.arange(1, 41) / 4)
        m[0, 0] = 1 - math.fsum(m.ravel()[1:])
        mu = JointDistribution(m)
    save_joint(mu, path)
    return path, mu.mass


# The six files whose sha256 CI's console-script smoke pins, made as CI makes
# them; each hash is that of the per-value '%.17g' writer's file.
PINNED_FILES = {
    "gen 50x50": "e03ccffb57aecf201f65bdbe7e33074d5ab3c371082110bc1493e4c2e6c57585",
    "gen 200x1": "3db6ef2dd57876b7b3a34f358df15b59260876c925d62948b99cd7eb6535cb60",
    "joint": "bb732de3c82860b81de2a5cf9c49312e65187f7c40ceebf2ff342f049e9d73c9",
    "zeros": "1600930800a414aff2692e8a083c13cbb8b8ed8b8fb46293ebba8f7914356f57",
    "small": "b0211c544cd91609c63d4c8be5a898afc1806f43f11c70807d8ac04a77465f72",
    "edges": "012bb507661493a6ea359e676932677f7f81e4a0b8155e246df1ff3d379759b5",
}


@pytest.mark.parametrize("name", PINNED_FILES)
def test_the_files_ci_pins_are_written_as_the_per_value_writer(tmp_path, name):
    path, matrix = _pinned_file(name, tmp_path)
    text = path.read_text()
    assert first_difference(text, reference_format_matrix(matrix)) is None
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FILES[name]


def block_edge_matrix(case):
    """A matrix at an edge of format_matrix's blocks of at most 4,096 values,
    each written by one '%', or of the pieces that make up a block."""
    rng = np.random.default_rng(25)
    shapes = {"column 128": (128, 1), "column 4097": (4097, 1), "21x200": (21, 200),
              "2x5000": (2, 5000), "1x4097": (1, 4097)}
    if case in shapes:
        return rng.uniform(-1.0, 1.0, shapes[case])
    if case == "zero rows":
        mass = rng.dirichlet(np.ones(200 * 200)).reshape(200, 200)
        mass[1::2] = 0.0
        return mass / mass.sum()
    if case == "zero first column":
        mass = rng.dirichlet(np.ones(200 * 200)).reshape(200, 200)
        mass[:, 0] = 0.0
        return mass / mass.sum()
    if case == "signed zeros":
        matrix = rng.uniform(-1.0, 1.0, (30, 40))
        matrix[::2, 17], matrix[1::2, 17] = 0.0, -0.0
        matrix[::3, -1], matrix[1::3, -1] = -0.0, 0.0
        return matrix
    if case == "no value in range":
        return rng.integers(-1, 2, (200, 200)).astype(float)
    if case == "few in range":
        matrix = np.zeros((200, 200))
        matrix[::3] = -0.0
        matrix[3, [0, 50, 199]] = 0.25, -3e-6, 7e-5
        matrix[5, -1], matrix[6, -1], matrix[7, 9] = 1.0, 5e-324, math.nan
        return matrix
    # Rows that mix values in the range with every kind of value outside it,
    # in the last column too, and a row that holds no value in the range.
    odd = [math.nan, math.inf, -math.inf, -0.0, 1.0, 5e-324, 3e-7, 3e-17]
    matrix = rng.uniform(-1.0, 1.0, (30, 40))
    for r in range(0, 30, 3):
        matrix[r, (np.arange(len(odd)) * 6 + 5 * r + 3) % 40] = odd
    matrix[4] = np.resize(odd, 40)
    matrix[5, -1], matrix[6, -1] = math.nan, 5e-324
    return matrix


# One column: every piece ends in "\n", and 4,097 rows span two blocks.  21 rows
# of 200 end in a block of one row; a row wider than a block is a block.  Odd
# rows of zeros, a zero first column and 0.0 and -0.0 mid-row and in the last
# column are zero pieces of blocks that hold values in the range; a matrix of
# -1, 0 and 1 holds none, so each of its blocks repeats the row template.  A
# few values in the range among zeros, too few for digits, are '%.17g' texts.
@pytest.mark.parametrize("case", ["column 128", "column 4097", "21x200", "2x5000", "1x4097",
                                  "zero rows", "zero first column", "signed zeros",
                                  "no value in range", "few in range", "mixed"])
def test_format_matrix_at_the_block_edges_writes_as_the_per_value_writer(case):
    matrix = block_edge_matrix(case)
    text = format_matrix(matrix)
    assert first_difference(text, reference_format_matrix(matrix)) is None
    assert format_matrix(np.asfortranarray(matrix)) == text
    if np.isfinite(matrix).all():
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


# Small game and joint files of one shape each, mutated byte-wise by what the
# format treats specially: digits, signs, "e", "#", "inf", "nan", "_", NUL,
# "\x1c", U+0085 and U+2028 (the last three are line breaks to splitlines), and
# bytes that are not UTF-8 (0x85, 0xe9 and 0xff alone, 0xc3 cut short).
FUZZ_FILES = {
    2: (b"2 2\n1 -1\n-1 1\n", b"# diagonal\n2 2\n0.5 0\n0 0.5\n"),
    3: (b"3 3\n0.5 -0.25 1e-3\n-1 0 2.5e+2\n+.5 1. -0\n",
        b"3 3\n0.25 0 0\n0 0.25 0\n0 0.25 0.25\n"),
}
FUZZ_BYTES = [bytes([b]) for b in b"0123456789+-.eE#_ \t\n\r\0\x1c"] + [
    b"inf", b"nan", "\x85".encode(), "\u2028".encode(), b"\x85", b"\xe9", b"\xff", b"\xc3",
]


@st.composite
def mutated_file(draw, data):
    """``data`` with up to four bytes substituted, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 4))):
        at, token = draw(st.integers(0, len(data))), draw(st.sampled_from(FUZZ_BYTES))
        op = draw(st.sampled_from(["substitute", "insert", "delete"]))
        data[at : at + (op != "insert")] = b"" if op == "delete" else token
    return bytes(data)


@st.composite
def mutated_pair(draw):
    """A game file and a joint file of one shape, one of them mutated."""
    game, joint = FUZZ_FILES[draw(st.sampled_from(sorted(FUZZ_FILES)))]
    if draw(st.booleans()):
        return draw(mutated_file(game)), joint
    return game, draw(mutated_file(joint))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=mutated_pair())
def test_mutated_files_parse_as_the_per_line_reader_and_commands_exit_0_1_or_2(tmp_path, files):
    for data in files:
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError:
            continue
        try:
            expected = reference_parse_matrix(text)
        except FormatError as ref_exc:
            with pytest.raises(FormatError) as exc:
                parse_matrix(text)
            assert (str(exc.value), exc.value.line) == (str(ref_exc), ref_exc.line)
        else:
            out = parse_matrix(text)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
    game, joint = tmp_path / "game.txt", tmp_path / "joint.txt"
    game.write_bytes(files[0])
    joint.write_bytes(files[1])
    for argv in (["check", "--game", str(game), "--joint", str(joint)],
                 ["value", "--game", str(game)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""


def test_load_game_errors_name_the_file_and_keep_the_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 2\n1 oops\n-1 1\n")
    with pytest.raises(FormatError) as exc:
        load_game(path)
    assert str(exc.value) == f"{path}: line 2: invalid decimal value"
    assert exc.value.line == 2


def test_load_game_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"\xef\xbb\xbf2 2\n1 -1\n-1 1\n")
    assert load_game(path) == PENNIES


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_game_counts_a_byte_order_mark_in_the_offset_of_bytes_that_are_not_utf8(
    tmp_path, newline
):
    path = tmp_path / "g.txt"
    data = newline.join([b"\xef\xbb\xbf2 2", b"1 -1", b"-1 \xe9", b""])
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        load_game(path)
    at = data.index(b"\xe9")
    assert str(exc.value) == f"{path}: line 3: not UTF-8: invalid continuation byte at byte {at}"
    assert exc.value.line == 3


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
