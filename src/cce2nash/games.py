"""Two-player zero-sum matrix games: exact utilities and the game text format."""

from __future__ import annotations

import contextlib
import errno
import functools
import math
import operator
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PROB_SUM_TOL",
    "FormatError",
    "Game",
    "MixedStrategy",
    "StrategyProfile",
    "format_game",
    "load_game",
    "parse_game",
    "save_game",
]

# Probability vectors must sum to 1 within this tolerance.  It covers float
# representation error only; checks on accumulated arithmetic downstream use
# the looser 1e-9.
PROB_SUM_TOL = 1e-12


class FormatError(ValueError):
    """Malformed game or distribution text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, eq=False)
class Game:
    """Two-player zero-sum matrix game.

    ``payoff[r, c]`` is the row player's utility at the pure profile ``(r, c)``;
    the column player's utility is its negation, so the two always sum to zero.

    Construction also fixes, once, how every solver and gap check normalizes
    the payoffs, in read-only fields left out of ``repr`` and ``==``: ``high``
    and ``low``, the largest and smallest payoff; ``shift``, their midpoint
    when every payoff lies within a factor of 2 of it and else 0, so that
    subtracting it is exact (Sterbenz) and keeps the payoff differences of a
    game offset far from 0; and ``scale``, the smallest power of two above the
    payoff range (1 for a flat game), so that dividing by it is exact (away
    from subnormals) and maps the range into [0, 1) at every scale.  A payoff
    range of 2**1023 or more, where gains and ``scale`` would overflow, is a
    ValueError.
    """

    payoff: np.ndarray
    high: float = field(init=False, repr=False)
    low: float = field(init=False, repr=False)
    shift: float = field(init=False, repr=False)
    scale: float = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.payoff, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("payoff must be a non-empty 2-D matrix")
        high, low = float(arr.max()), float(arr.min())
        # max and min propagate NaN and inf; the cell search runs only on failure.
        if not (math.isfinite(high) and math.isfinite(low)):
            r, c = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite payoff entry at row {r}, column {c}")
        spread = high - low  # Python floats: past the float range is inf, no warning
        if not spread < 2.0**1023:
            raise ValueError(f"payoff range {spread:g} is 2**1023 or more; rescale the game")
        mid = 0.5 * high + 0.5 * low  # no overflow near the largest floats
        within = (mid > 0.0 and low >= 0.5 * mid) or (mid < 0.0 and high <= 0.5 * mid)
        arr.setflags(write=False)
        object.__setattr__(self, "payoff", arr)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "shift", mid if within else 0.0)
        object.__setattr__(self, "scale", math.ldexp(1.0, math.frexp(spread)[1]))

    @property
    def rows(self) -> int:
        return self.payoff.shape[0]

    @property
    def cols(self) -> int:
        return self.payoff.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.payoff.shape

    @property
    def payoff_range(self) -> float:
        """Spread between the largest and smallest row-player payoff."""
        return self.high - self.low

    @property
    def centered(self) -> np.ndarray:
        """``payoff − shift``, which is exact; ``payoff`` itself when the shift
        is 0, so ordinary games copy nothing."""
        return self.payoff - self.shift if self.shift else self.payoff

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return np.array_equal(self.payoff, other.payoff)


# Per number of dimensions: the shape refusal, an entry's name and place, the total.
_DISTRIBUTION_WORDS = {
    1: ("probs must be a non-empty vector", "probability", "index {}",
        "probabilities sum to {total!r}, expected 1 within {tol}"),
    2: ("mass must be a non-empty 2-D matrix", "mass", "cell ({})",
        "mass sums to {total!r}, expected 1 within {tol} (refusing to renormalize)"),
}


def _distribution(values, ndim: int, sum_tol: float) -> np.ndarray:
    """``values`` as a read-only float array of ``ndim`` (1 or 2) dimensions, checked
    to be non-empty, finite, nonnegative and to sum to 1 within ``sum_tol``, with no
    renormalizing; else a ValueError naming the first bad entry in C order, or the sum."""
    shape_error, noun, at, wrong_total = _DISTRIBUTION_WORDS[ndim]
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(shape_error)
    high, low = float(arr.max()), float(arr.min())
    # max and min propagate NaN and inf; the entry search runs only on failure.
    finite = math.isfinite(high) and math.isfinite(low)
    if not finite or low < 0.0:
        kind, bad = ("negative", arr < 0.0) if finite else ("non-finite", ~np.isfinite(arr))
        cell = np.unravel_index(int(np.argmax(bad)), arr.shape)
        where = at.format(", ".join(map(str, cell)))
        raise ValueError(f"{kind} {noun} {float(arr[cell])!r} at {where}")
    with np.errstate(over="ignore"):  # a total past the float range is inf
        total = float(arr.sum())
    if abs(total - 1.0) > sum_tol:
        raise ValueError(wrong_total.format(total=total, tol=sum_tol))
    arr.setflags(write=False)
    return arr


def _integer(value, name: str, low: int = 1) -> int:
    """``value`` as a Python int of at least ``low``; else a TypeError (a float,
    ``None``, a string or a sequence) or a ValueError, each naming ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None
    if number < low:
        raise ValueError(f"{name} must be at least {low}, got {number}")
    return number


def _check_shape(game: Game, shape, what: str) -> None:
    """Refuse ``what``, of ``shape`` (rows, cols), for a game of another shape."""
    if shape != game.shape:
        rows, cols = shape
        raise ValueError(f"{what} is {rows}x{cols} but game is {game.rows}x{game.cols}")


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's pure strategies."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _distribution(self.probs, 1, PROB_SUM_TOL))

    def __len__(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other):
        if not isinstance(other, MixedStrategy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


@dataclass(frozen=True)
class StrategyProfile:
    """One mixed strategy per player; play is their product distribution."""

    row: MixedStrategy
    col: MixedStrategy


# Not exported: kept only because ``perfbench/bench.py`` imports it; build a
# game with :class:`Game`.
make_zero_sum = Game


# ---------------------------------------------------------------------------
# Text format: line 1 is "rows cols", then `rows` lines of whitespace-separated
# decimals (the row player's payoffs).  Lines starting with '#' and blank lines
# are ignored.  UTF-8, LF line endings.

def parse_matrix(text: str, what: str = "matrix") -> np.ndarray:
    """Parse the shared matrix text format, raising FormatError with line numbers."""
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
        raise FormatError(
            f"expected {rows} data rows, found {len(lines) - 1}", lines[-1][0]
        )
    if len(lines) - 1 > rows:
        raise FormatError("unexpected extra data line", lines[rows + 1][0])
    # numpy sizes its result by the data, not the header, and reads each field
    # as float() does, bar spellings it refuses (`1_0`, non-ASCII digits).  On a
    # refusal or a shape mismatch the per-line loop reads the data again: it is
    # the only source of errors, and it checks each line's value count before
    # converting, so nothing is sized by the header there either.
    try:
        out = np.loadtxt([line for _, line in lines[1:]], dtype=float, comments=None, ndmin=2)
    except ValueError:
        out = None
    if out is None or out.shape != (rows, cols):
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
    # One vectorized test keeps valid files cheap; the cell search runs only on failure.
    if not np.isfinite(out).all():
        r, c = np.argwhere(~np.isfinite(out))[0]
        lineno, line = lines[1 + r]
        raise FormatError(f"non-finite value {line.split()[c]!r}", lineno)
    return out


def _split(x):
    """Veltkamp's split of ``x`` into a high and a low half of at most 26
    significant bits each, which sum to ``x`` exactly."""
    c = 134217729.0 * x  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


def _power_edge(k: int) -> float:
    """The smallest double at or above 10**-k, for k >= 1 (no double is 10**-k)."""
    nearest = float(f"1e-{k}")
    numerator, denominator = nearest.as_integer_ratio()
    return nearest if numerator * 10**k > denominator else math.nextafter(nearest, 1.0)


# The range runs from the smallest double at or above 10**-16 (the double
# 1e-16 lies below it) up to 1.
_DIGIT_LOW = _power_edge(16)
# The smallest double at or above 10**-k, for k = 15 down to 1: one search of
# |x| among them gives each value x in the range its decade E = floor(log10
# |x|) as the index E + 16.  The doubles 1e-1 to 1e-5 lie just above the
# power of ten they stand for; 1e-6 and 1e-14 are among those below it.
_DECADE_EDGES = np.array([_power_edge(k) for k in range(15, 0, -1)])
# By decade: 10**(16 - E) as the product of 10**min(22, 16 - E) and
# 10**max(0, -6 - E), which is 1 for E >= -6; both are exact doubles, each
# split into halves.
_FIRST_SCALES = np.array([10.0 ** min(22, 16 - decade) for decade in range(-16, 0)])
_FIRST_HIGH, _FIRST_LOW = _split(_FIRST_SCALES)
_SECOND_SCALES = np.array([10.0 ** max(0, -6 - decade) for decade in range(-16, 0)])
_SECOND_HIGH, _SECOND_LOW = _split(_SECOND_SCALES)
# In decades -7 to -16 the fraction that rounds the last digit is off by at
# most 30.3 * 2**-53 (see format_matrix), so one this near a half-integer may
# round wrong.
_SMALL_TIE = 31 * 2.0**-53
# What %.17g writes for 0.0 and -0.0, by sign, each with " " and then "\n".
_ZERO_PIECES = np.array(["0 ", "0\n", "-0 ", "-0\n"], dtype=object)
_POWERS_OF_TEN = 10 ** np.arange(16, dtype=np.int64)
# Below _DIGIT_MIN_VALUES values in a block, or in the range, the fixed numpy
# cost of the digit pieces, about 28 us, outweighs what they save: on one core
# of a 2-vCPU Xeon they broke even at 96 to 112 uniform values, 144 to 176
# Dirichlet masses and 176 to 208 masses in a block with zeros.  With masses
# down to 1e-16 as digits, Dirichlet joints of 96 to 256 values broke even at
# 144 to 176 again: such joints hold almost no mass below 1e-6.
_DIGIT_MIN_VALUES = 128
_DIGIT_BLOCK_VALUES = 4096


def _two_product(a, b, b_high, b_low):
    """Dekker's two-product of ``a`` and ``b``, whose halves are ``b_high``
    and ``b_low``: ``a * b`` rounded and the low part, which sum to the product
    exactly.  One numpy call per operation, so no step is fused."""
    high = a * b
    a_high, a_low = _split(a)
    low = a_high * b_high - high
    low += a_high * b_low
    low += a_low * b_high
    low += a_low * b_low
    return high, low


def _texts(values: list, last: list) -> list:
    """Each of ``values`` as its own '%.17g' text, then "\n" where ``last``
    is true, else " "."""
    return [("%.17g\n" if end else "%.17g ") % value for end, value in zip(last, values)]


@functools.cache
def _digit_table() -> np.ndarray:
    """The piece of each value in the range in its block's format, built on
    first use: what %.17g writes before the digits, "%d" for them, any
    exponent, then " " or, where ``last`` is 1 (the last column), "\n"; at
    5120 * sign bit + 320 * (E + 16) + 32 * first + 2 * zeros + last.
    Exponent notation, decades -16 to -5: the sign, the ``first`` digit, "."
    and the ``zeros`` that lead the other 16 digits, then "e-16" to "e-05".
    Fixed notation, decades -4 to -1: the sign, "0." and -E - 1 zeros, at
    every first and zeros.  A value whose digits leave "." out, or carry into
    the next decade, has no piece (see :func:`format_matrix`)."""
    table = np.empty((2, 16, 10, 16, 2), dtype=object)
    table[:, 12:] = np.array(
        [[[f"{sign}0.{'0' * (-1 - decade)}%d{sep}" for sep in (" ", "\n")]
          for decade in range(-4, 0)] for sign in ("", "-")], dtype=object)[:, :, None, None]
    table[:, :12, 1:] = (
        np.array([[f"{sign}{first}." for first in range(1, 10)] for sign in ("", "-")],
                 dtype=object)[:, None, :, None, None]
        + np.array(["0" * zeros + "%d" for zeros in range(16)], dtype=object)[:, None]
        + np.array([[f"e{decade:03d}{sep}" for sep in (" ", "\n")] for decade in range(-16, -4)],
                   dtype=object)[:, None, None])
    return table.ravel()


def _digit_pieces(values: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per value of ``values``, 1-D with every |value| in [1e-16, 1), and true
    in ``last`` for a value in the last column: its piece of :func:`_digit_table`,
    or its '%.17g' text, and the integers the pieces' ``%d``s write, in order.
    See :func:`format_matrix` for why the digits are those %.17g writes."""
    magnitude = np.abs(values)
    decade = np.searchsorted(_DECADE_EDGES, magnitude, side="right")  # E + 16
    high, low = _two_product(magnitude, _FIRST_SCALES.take(decade),
                             _FIRST_HIGH.take(decade), _FIRST_LOW.take(decade))
    number = high.astype(np.int64)
    number += np.rint(low).astype(np.int64)
    # Each value's place in the table; for fixed notation it is complete.
    index = decade * 320
    index += last
    index += np.signbit(values) * 5120
    text = np.zeros(0, dtype=np.intp)  # values written as their '%.17g' text
    at = np.flatnonzero(decade < 12)  # exponent notation
    if at.size:
        decades = decade[at]
        small = np.flatnonzero(decades < 10)  # decades -7 to -16
        if small.size:
            where, decades = at[small], decades[small]
            scale = _SECOND_SCALES.take(decades)
            top, fraction = _two_product(high[where], scale, _SECOND_HIGH.take(decades),
                                         _SECOND_LOW.take(decades))
            fraction += low[where] * scale
            digits = top.astype(np.int64)
            digits += np.rint(fraction).astype(np.int64)
            number[where] = digits
            # A near tie, one digit or a carry into the next decade.
            off = (np.abs(fraction - np.floor(fraction) - 0.5) <= _SMALL_TIE) | (digits % 10**16 == 0)
            if off.any():
                text = where[off]
                at = np.delete(at, small[off])
        first, rest = np.divmod(number[at], 10**16)
        zeros = 16 - np.searchsorted(_POWERS_OF_TEN, rest, side="right")
        index[at] += 32 * first + 2 * zeros
        number[at] = rest
    # %g drops trailing zeros; few values have any.  No rest is 0 (see
    # format_matrix), but the loop drops a 0 rather than divide it for ever.
    trailing = np.flatnonzero(number % 10 == 0)
    while trailing.size:
        number[trailing] //= 10
        kept = number[trailing]
        trailing = trailing[(kept % 10 == 0) & (kept != 0)]
    pieces = _digit_table().take(index)
    if text.size:
        pieces[text] = _texts(values[text].tolist(), last[text].tolist())
        number = np.delete(number, text)
    return pieces, number


def _block_text(block: np.ndarray, line: str) -> str:
    """The rows of ``block`` as ``%.17g`` writes them, by one ``%``; ``line``
    is the '%.17g' template of one row (see :func:`format_matrix`)."""
    rows, cols = block.shape
    count = zeros = 0
    if block.size >= _DIGIT_MIN_VALUES:
        magnitude = np.abs(block)
        below = magnitude < 1.0  # as zeros and values in the range are; a NaN is not
        if 2 * np.count_nonzero(below) > block.size:
            on = below & (magnitude >= _DIGIT_LOW)
            count = np.count_nonzero(on)
            zeros = block.size - np.count_nonzero(block)
    # A piece costs less than a field of the row template and a '%.17g' text of
    # its own more, so pieces pay when most values are zeros or in the range.
    if 2 * (count + zeros) <= block.size:
        return (line * rows) % tuple(block.ravel().tolist())
    if count == block.size:
        last = np.zeros(block.size, dtype=bool)
        last[cols - 1 :: cols] = True
        pieces, number = _digit_pieces(block.ravel(), last)
        return "".join(pieces.tolist()) % tuple(number.tolist())
    last = np.zeros(block.shape, dtype=bool)
    last[:, -1] = True
    # Every value starts as the piece of a zero of its sign; the others are
    # put in over it.
    pieces = _ZERO_PIECES.take(2 * np.signbit(block) + last)
    text = block != 0.0  # a NaN too
    number = np.zeros(0, dtype=np.int64)
    if count >= _DIGIT_MIN_VALUES:
        pieces[on], number = _digit_pieces(block[on], last[on])
        text &= ~on
    # Any other value is its own '%.17g' text, which holds no "%".
    pieces[text] = _texts(block[text].tolist(), last[text].tolist())
    return "".join(pieces.ravel().tolist()) % tuple(number.tolist())


def format_matrix(matrix: np.ndarray) -> str:
    """Render a matrix in the shared text format with full round-trip precision.

    Each value is written as ``'%.17g'`` writes it.  A value in 1e-16 <= |x| < 1
    is written from exact integer digits, with the same bytes.  Its sign bit
    gives its sign, and one search of |x| among the smallest double at or
    above each 10**-k (the double 1e-k, or the next one up where 1e-k lies
    below 10**-k, as 1e-6, 1e-14 and 1e-16 do) gives E = floor(log10 |x|) in
    [-16, -1] exactly.  For E >= -6, 10**(16 - E) <= 10**22 is an exact
    double, and Dekker's two-product gives |x| * 10**(16 - E) = h + l exactly.
    h >= 10**16 > 2**53 is an even integer, so h + rint(l) is the product
    rounded half to even, as %.17g rounds it: 17 digits, less trailing zeros,
    which %.17g writes after "0." and -E - 1 zeros for E >= -4, and as
    d.dddd...e-K for E <= -5.  No double in [1e-6, 1) rounds up to the next
    decade at 17 digits, so no carry arises, and none in decades -5 and -6
    rounds to a single digit, so the "." always stays.

    For E <= -7, 10**(16 - E) = 10**22 * s with s = 10**(-6 - E) <= 10**10,
    both exact doubles.  Two-products give |x| * 10**22 = h1 + l1 and h1 * s
    = h2 + l2 exactly, so the product is h2 + l2 + l1 * s, and h2, at least
    10**16 - 12, is an integer.  With u = 2**-53: h1 <= 10**(23 + E), so |l1|
    <= u * h1 and |l1 * s| <= u * 10**17 < 11.2; h2 <= 10**17 < 2**57, so |l2|
    <= 8.  The rounded f = l2 + (l1 * s) is then within 30.3 * u of l2 + l1 *
    s, so where f lies further than 31 * u from every half-integer, h2 +
    rint(f) is the product rounded to 17 digits.  A value whose f lies nearer
    (an exact tie too, such as 3 * 2**-24), whose digits round up to 10**17
    (a carry: the double 1e-14, below 10**-14, is written 1e-14) or keep one
    digit (as 2e-08, which leaves the "." out) is its own ``'%.17g'`` text.

    The text is the header and the blocks, joined once.  Rows are taken in
    blocks of at most ``_DIGIT_BLOCK_VALUES`` (4,096) values, and each block
    is written by one ``%``.  A block of at least ``_DIGIT_MIN_VALUES`` (128)
    values, most of them zeros or in the range, has one layout: each value is
    one piece of the block's format, ending in the " " or "\n" after it.  A
    value in the range is what ``%.17g`` writes before its digits, ``%d`` for
    them and any exponent, when the block holds at least
    ``_DIGIT_MIN_VALUES`` of them; a ``0.0`` or ``-0.0`` is ``0`` or ``-0``;
    any other value, a value in the range of a block with fewer included, is
    its own ``'%.17g'`` text.  Only a digit piece holds a ``%``: the other
    pieces are made of digits, signs, ".", "e", "inf" and "nan", so the
    block's ``%`` leaves them as they are.  Any other block repeats the row
    template once per row.
    """
    rows, cols = matrix.shape
    line = " ".join(["%.17g"] * cols) + "\n"
    step = max(1, _DIGIT_BLOCK_VALUES // max(cols, 1))
    blocks = (matrix[start : start + step] for start in range(0, rows, step))
    return "".join([f"{rows} {cols}\n", *(_block_text(b, line) for b in blocks)])


def parse_game(text: str) -> Game:
    """Parse a game from its text format; a payoff range ``Game`` refuses is a FormatError."""
    payoff = parse_matrix(text, what="game")
    try:
        return Game(payoff)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_game(game: Game) -> str:
    """Render a game in its text format with full round-trip precision."""
    return format_matrix(game.payoff)


def load_file(path, parse):
    """Read a UTF-8 file and ``parse`` its text; a FormatError names the file.

    A leading byte-order mark is skipped.  Bytes that are not UTF-8 are a
    FormatError on the line that holds them, at their offset in the file.
    """
    data = Path(path).read_bytes()
    try:
        return parse(data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        # The codec reports offsets past a byte-order mark it skipped.
        start = exc.start + len(data) - len(exc.object)
        # Lines are numbered as the parser numbers them (any line break counts);
        # the bytes before the bad one decode, and "x" stands in for it.
        line = len((data[:start].decode("utf-8-sig") + "x").splitlines())
        error = FormatError(f"not UTF-8: {exc.reason} at byte {start}", line)
    except FormatError as exc:
        error = exc
    error.args = (f"{path}: {error}",)
    raise error from None


def load_game(path) -> Game:
    return load_file(path, parse_game)


def save_game(game: Game, path) -> None:
    write_text_atomic(path, format_game(game))


def make_directory(path) -> None:
    """Make directory ``path`` and any missing parents, as ``mkdir -p`` does.

    A symlink on the way is followed, dangling ones included, so the
    directory it names is made.  A file that holds the place is a
    FileExistsError naming ``path``; a symlink loop is an error naming it too
    (a RuntimeError from ``Path.resolve`` before Python 3.13).
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        # mkdir stops at a dangling symlink; the path it resolves to has none.
        try:
            path.resolve().mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise exc from None


def write_text_atomic(path, text: str) -> None:
    """Write one whole file atomically: :func:`write_files_atomic` of one file."""
    write_files_atomic({path: text})


def write_files_atomic(texts) -> None:
    """Write whole files atomically: each to a temp file in its target's
    directory, then renamed over the target.  ``texts`` maps paths to text.

    Every target is checked, and every temp file written, before the first
    rename, so a target that is a directory, or a failed write, leaves every
    target as it was.  An error names the target as given, never a temp file,
    and no temp file is left behind.

    A symlink is followed, so the file it names is replaced and the link stays.
    An existing file keeps its permission bits.  A new file gets the mode
    ``open(path, "w")`` gives it, 0o666 minus the umask, which the kernel
    applies when it creates the temp file.
    """
    staged = []  # (temp file, target, target as given)
    try:
        for given, text in texts.items():
            path = Path(given)
            try:
                # One lstat; only a symlink, dangling or not, is resolved and
                # stat'ed again (resolving every path costs one per component).
                mode = os.lstat(path).st_mode
                if stat.S_ISLNK(mode):
                    path = path.resolve()
                    mode = os.stat(path).st_mode
            except (FileNotFoundError, NotADirectoryError):
                mode = None  # a new file keeps the umask's mode
            else:
                if stat.S_ISDIR(mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(given))
            # 64 random bits make a clash with another writer's temp name negligible;
            # O_EXCL turns one into an error rather than a shared file.
            tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
            flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
            try:
                fd = os.open(tmp, flags, 0o666)
            except (FileNotFoundError, NotADirectoryError):
                # The directory is missing, or a file holds its place:
                # make_directory makes it, or raises FileExistsError naming it.
                make_directory(path.parent)
                fd = os.open(tmp, flags, 0o666)
            staged.append((tmp, path, given))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
        for tmp, path, given in staged:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                # os.replace's message names the temp file, deleted below.
                raise OSError(exc.errno, exc.strerror, str(given)) from None
    except BaseException:
        for tmp, _, _ in staged:
            with contextlib.suppress(OSError):  # a renamed one is gone
                os.unlink(tmp)
        raise
