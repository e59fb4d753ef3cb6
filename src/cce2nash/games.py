"""Two-player zero-sum matrix games: exact utilities and the game text format."""

from __future__ import annotations

import contextlib
import errno
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
    "make_zero_sum",
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

    @classmethod
    def uniform(cls, num_actions: int) -> "MixedStrategy":
        num_actions = _integer(num_actions, "num_actions")
        return cls(np.full(num_actions, 1.0 / num_actions))

    @classmethod
    def point_mass(cls, num_actions: int, index: int) -> "MixedStrategy":
        num_actions, index = _integer(num_actions, "num_actions"), _integer(index, "index", 0)
        if index >= num_actions:
            raise ValueError(f"index {index} out of range for {num_actions} actions")
        probs = np.zeros(num_actions)
        probs[index] = 1.0
        return cls(probs)


@dataclass(frozen=True)
class StrategyProfile:
    """One mixed strategy per player; play is their product distribution."""

    row: MixedStrategy
    col: MixedStrategy


def make_zero_sum(payoff) -> Game:
    """Build a zero-sum game from the row player's payoff matrix."""
    return Game(payoff)


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


def format_matrix(matrix: np.ndarray) -> str:
    """Render a matrix in the shared text format with full round-trip precision."""
    rows, cols = matrix.shape
    # One template formats a whole row in C.  Row by row, so no Python float
    # exists for every cell at once.
    template = " ".join(["%.17g"] * cols)
    lines = [f"{rows} {cols}"]
    lines.extend(template % tuple(row) for row in matrix)
    return "\n".join(lines) + "\n"


def parse_game(text: str) -> Game:
    """Parse a game from its text format; a payoff range ``Game`` refuses is a FormatError."""
    payoff = parse_matrix(text, what="game")
    try:
        return make_zero_sum(payoff)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_game(game: Game) -> str:
    """Render a game in its text format with full round-trip precision."""
    return format_matrix(game.payoff)


def load_file(path, parse):
    """Read a UTF-8 file and ``parse`` its text; a FormatError names the file.

    Bytes that are not UTF-8 are a FormatError on the line that holds them.
    """
    data = Path(path).read_bytes()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # Lines are numbered as the parser numbers them (any line break counts);
        # the bytes before the bad one decode, and "x" stands in for it.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        error = FormatError(f"not UTF-8: {exc.reason} at byte {exc.start}", line)
    except FormatError as exc:
        error = exc
    error.args = (f"{path}: {error}",)
    raise error from None


def load_game(path) -> Game:
    return load_file(path, parse_game)


def save_game(game: Game, path) -> None:
    write_text_atomic(path, format_game(game))


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
                # The directory is missing, or a file holds its place: mkdir
                # makes it, or raises FileExistsError naming that file.
                path.parent.mkdir(parents=True, exist_ok=True)
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
