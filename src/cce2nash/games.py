"""Two-player zero-sum matrix games: exact utilities and the game text format."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

# Probability vectors must sum to 1 within this tolerance.  It covers float
# representation error only; checks on accumulated arithmetic downstream use
# the looser 1e-9.
PROB_SUM_TOL = 1e-12

# Cell sums of a constant-sum payoff pair may jitter by at most this much.
CONSTANT_SUM_TOL = 1e-9


class FormatError(ValueError):
    """Malformed game or distribution text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Player(Enum):
    """Which side of the payoff matrix a player controls."""

    ROW = "row"
    COL = "col"

    @property
    def opponent(self) -> "Player":
        return Player.COL if self is Player.ROW else Player.ROW


@dataclass(frozen=True, eq=False)
class Game:
    """Two-player zero-sum matrix game.

    ``payoff[r, c]`` is the row player's utility at the pure profile ``(r, c)``;
    the column player's utility is its negation, so the two always sum to zero.
    ``offset`` records the per-player constant removed when a constant-sum game
    was normalized (0 for games that were zero-sum to begin with).
    """

    payoff: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        arr = np.array(self.payoff, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("payoff must be a non-empty 2-D matrix")
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            r, c = bad[0]
            raise ValueError(f"non-finite payoff entry at row {r}, column {c}")
        arr.setflags(write=False)
        object.__setattr__(self, "payoff", arr)
        object.__setattr__(self, "offset", float(self.offset))

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
        return float(self.payoff.max() - self.payoff.min())

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return np.array_equal(self.payoff, other.payoff) and self.offset == other.offset


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
            raise ValueError(f"negative probability {arr[i]!r} at index {i}")
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


def from_constant_sum(payoff_row, payoff_col) -> Game:
    """Normalize a constant-sum payoff pair into a zero-sum :class:`Game`.

    The matrices must satisfy ``payoff_row + payoff_col == c0`` cellwise for a
    single constant ``c0``.  Subtracting ``c0/2`` from both players leaves every
    deviation gain unchanged, so the normalized game is strategically identical;
    the removed constant is kept in ``offset`` so the original payoffs stay
    recoverable.
    """
    row = np.array(payoff_row, dtype=float)
    col = np.array(payoff_col, dtype=float)
    if row.shape != col.shape:
        raise ValueError(f"payoff shapes differ: {row.shape} vs {col.shape}")
    if row.ndim != 2 or row.size == 0:
        raise ValueError("payoff must be a non-empty 2-D matrix")
    if not (np.isfinite(row).all() and np.isfinite(col).all()):
        raise ValueError("payoff entries must be finite")
    sums = row + col
    hi = np.unravel_index(int(np.argmax(sums)), sums.shape)
    lo = np.unravel_index(int(np.argmin(sums)), sums.shape)
    if sums[hi] - sums[lo] > CONSTANT_SUM_TOL:
        raise ValueError(
            "cell sums are not constant: "
            f"cell ({hi[0]}, {hi[1]}) sums to {sums[hi]!r} "
            f"but cell ({lo[0]}, {lo[1]}) sums to {sums[lo]!r}"
        )
    c0 = float(sums.mean())
    return Game(row - c0 / 2.0, offset=c0 / 2.0)


def pure_utility(game: Game, player: Player, row: int, col: int) -> float:
    """Utility of ``player`` at the pure profile ``(row, col)``."""
    if not (0 <= row < game.rows and 0 <= col < game.cols):
        raise ValueError(f"cell ({row}, {col}) out of range for a {game.rows}x{game.cols} game")
    value = float(game.payoff[row, col])
    return value if player is Player.ROW else -value


def expected_utility(game: Game, player: Player, profile: StrategyProfile) -> float:
    """Expected utility of ``player`` under the product distribution of ``profile``."""
    if len(profile.row) != game.rows or len(profile.col) != game.cols:
        raise ValueError(
            f"profile has shape {len(profile.row)}x{len(profile.col)} "
            f"but game is {game.rows}x{game.cols}"
        )
    value = float(profile.row.probs @ game.payoff @ profile.col.probs)
    return value if player is Player.ROW else -value


def pure_vs_mixed(game: Game, player: Player, pure: int, opponent: MixedStrategy) -> float:
    """Expected utility of ``player`` playing ``pure`` against a mixed opponent."""
    if player is Player.ROW:
        if not 0 <= pure < game.rows:
            raise ValueError(f"row index {pure} out of range for a {game.rows}x{game.cols} game")
        if len(opponent) != game.cols:
            raise ValueError(f"opponent strategy has length {len(opponent)}, expected {game.cols}")
        return float(game.payoff[pure] @ opponent.probs)
    if not 0 <= pure < game.cols:
        raise ValueError(f"column index {pure} out of range for a {game.rows}x{game.cols} game")
    if len(opponent) != game.rows:
        raise ValueError(f"opponent strategy has length {len(opponent)}, expected {game.rows}")
    return -float(opponent.probs @ game.payoff[:, pure])


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
    # Nothing is sized by the header until every data line has matched it.
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
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    for row in matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_game(text: str) -> Game:
    """Parse a game from its text format."""
    return make_zero_sum(parse_matrix(text, what="game"))


def format_game(game: Game) -> str:
    """Render a game in its text format with full round-trip precision."""
    return format_matrix(game.payoff)


def load_game(path) -> Game:
    return parse_game(Path(path).read_text(encoding="utf-8"))


def save_game(game: Game, path) -> None:
    write_text_atomic(path, format_game(game))


def write_text_atomic(path, text: str) -> None:
    """Write a whole file atomically (temp file in the same directory, then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
