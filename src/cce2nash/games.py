"""Two-player zero-sum matrix games: exact utilities and the game text format."""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

# Probability vectors must sum to 1 within this tolerance.  It covers float
# representation error only; checks on accumulated arithmetic downstream use
# the looser 1e-9.
PROB_SUM_TOL = 1e-12


class FormatError(ValueError):
    """Malformed game or distribution text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Player(Enum):
    """Which side of the payoff matrix a player controls."""

    ROW = "row"
    COL = "col"


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


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's pure strategies."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if not np.isfinite(arr).all():
            raise ValueError("probs must be finite")
        if (arr < 0).any():
            i = int(np.argmax(arr < 0))
            raise ValueError(f"negative probability {float(arr[i])!r} at index {i}")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other):
        if not isinstance(other, MixedStrategy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    @classmethod
    def uniform(cls, num_actions: int) -> "MixedStrategy":
        if num_actions < 1:
            raise ValueError(f"need at least 1 action, got {num_actions}")
        return cls(np.full(num_actions, 1.0 / num_actions))

    @classmethod
    def point_mass(cls, num_actions: int, index: int) -> "MixedStrategy":
        if not 0 <= index < num_actions:
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


def _check_profile(game: Game, profile: StrategyProfile) -> None:
    if len(profile.row) != game.rows or len(profile.col) != game.cols:
        raise ValueError(
            f"profile has shape {len(profile.row)}x{len(profile.col)} "
            f"but game is {game.rows}x{game.cols}"
        )


def expected_utility(game: Game, player: Player, profile: StrategyProfile) -> float:
    """Expected utility of ``player`` under the product distribution of ``profile``."""
    _check_profile(game, profile)
    value = float(profile.row.probs @ game.payoff @ profile.col.probs)
    return value if player is Player.ROW else -value


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
    """Write a whole file atomically (temp file in the same directory, then rename).

    A symlink is followed, so the file it names is replaced and the link stays.
    An existing file keeps its permission bits.  A new file gets the mode
    ``open(path, "w")`` gives it, 0o666 minus the umask, which the kernel
    applies when it creates the temp file.
    """
    path = Path(path)
    if path.is_symlink():  # one lstat; resolving every path would take one per component
        path = path.resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    # 64 random bits make a clash with another writer's temp name negligible;
    # O_EXCL turns one into an error rather than a shared file.
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with contextlib.suppress(FileNotFoundError):  # a new file keeps the umask's mode
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
