"""Ground-truth machinery: exact game values, best responses, brute-force gaps.

Everything here exists to check the rest of the toolkit against an independent
computation.  The minimax value comes from a self-contained dense simplex (no
external solver; Dantzig pricing with a Bland's-rule fallback against
cycling), best responses from plain enumeration, and the gap reports
from direct sums over the joint distribution that deliberately avoid the
marginal-based formulas used in :mod:`cce2nash.equilibrium`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import GapReport, JointDistribution
from .games import Game, MixedStrategy, Player

# Simplex feasibility/optimality tolerance; downstream consumers should test
# derived quantities at 1e-7 to absorb conditioning of the tableau arithmetic.
FEAS_TOL = 1e-9
_RATIO_TIE_TOL = 1e-12
# Consecutive degenerate pivots after which pricing falls back to Bland's rule.
_DEGENERATE_RUN = 50

MAX_VALUE_DIM = 200
MAX_BRUTE_DIM = 50


class SimplexLimitExceeded(RuntimeError):
    """The pivot budget ran out before the simplex reached optimality."""


@dataclass(frozen=True)
class ValueSolution:
    """Exact solution of a zero-sum game.

    ``value`` is the game value for the row player; ``row_strategy`` is a
    maximin strategy and ``col_strategy`` a minimax strategy, so the profile
    they form has exploitability ~0 (within LP arithmetic, ≤ 1e-7 of the
    payoff range).  ``pivots`` is the number of simplex pivots taken.
    """

    value: float
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy
    pivots: int


@dataclass(frozen=True)
class BestResponse:
    action: int
    value: float


@dataclass(frozen=True)
class BruteForceGaps:
    cce: GapReport
    nash_of_marginals: GapReport


def _simplex_max_ones(B: np.ndarray, max_pivots: int):
    """Maximize 1ᵀz subject to Bz ≤ 1, z ≥ 0, for entrywise-positive B.

    Dense tableau simplex.  The entering column is priced by Dantzig's rule
    (most negative reduced cost).  After ``_DEGENERATE_RUN`` consecutive
    degenerate pivots (zero-length ratio steps) pricing switches to Bland's
    rule (lowest-index improving column) until a pivot makes progress.  The
    leaving row is the minimum-ratio row, ties within ``_RATIO_TIE_TOL`` going
    to the lowest-index basic variable.  Each pivot updates the tableau in
    place through one preallocated buffer.

    Termination: the objective never decreases, and every nondegenerate pivot
    raises it strictly, so no basis recurs across one; a cycle could consist
    only of degenerate pivots.  A run of degenerate pivots takes at most
    ``_DEGENERATE_RUN`` Dantzig pivots and then follows Bland's rule, which
    never cycles, so the run ends at the optimum or at a nondegenerate pivot.
    There are finitely many bases, hence finitely many pivots.

    Returns the optimal ``z``, the dual vector read off the slack columns of
    the objective row and the number of pivots taken.
    """
    m, n = B.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = B
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :n] = -1.0
    reduced = T[m, : n + m]
    rhs = T[:m, -1]
    basis = np.arange(n, n + m)
    column = np.empty(m + 1)
    update = np.empty_like(T)
    degenerate = 0

    for pivots in range(max_pivots + 1):
        if degenerate < _DEGENERATE_RUN:
            j = int(np.argmin(reduced))
            if reduced[j] >= -FEAS_TOL:
                break
        else:
            improving = np.flatnonzero(reduced < -FEAS_TOL)
            if improving.size == 0:
                break
            j = int(improving[0])
        if pivots == max_pivots:
            raise SimplexLimitExceeded(
                f"simplex did not converge within {max_pivots} pivots"
            )
        eligible = np.flatnonzero(T[:m, j] > FEAS_TOL)
        if eligible.size == 0:
            # Unreachable for positive B: every column bounds the objective.
            raise RuntimeError("unbounded LP; positive payoff shift should prevent this")
        ratios = rhs[eligible] / T[eligible, j]
        step = ratios.min()
        tied = eligible[ratios <= step + _RATIO_TIE_TOL]
        i = int(tied[np.argmin(basis[tied])])
        degenerate = degenerate + 1 if step <= _RATIO_TIE_TOL else 0
        T[i] /= T[i, j]
        np.copyto(column, T[:, j])
        column[i] = 0.0
        np.multiply(column[:, None], T[i][None, :], out=update)
        T -= update
        basis[i] = j

    z = np.zeros(n)
    structural = basis < n
    z[basis[structural]] = rhs[structural]
    duals = T[m, n : n + m].copy()
    return z, duals, pivots


def exact_value(game: Game) -> ValueSolution:
    """Game value and maximin/minimax strategies via linear programming.

    The reduction is the textbook one, applied to payoffs mapped onto
    [1, 2): ``B = (A − min A)/s + 1``, where ``s`` is the smallest power of
    two above the payoff range (1 for a flat game), so the division is
    exact.  The simplex tolerances are absolute, and this normalization makes
    the result invariant to the scale and offset of ``A``.  The shifted
    value ``w`` of ``B`` satisfies ``w ≥ 1 > 0``.  The column player wants
    ``y`` minimizing ``max_r (B y)_r``; substituting ``z = y / w`` turns that
    into the LP

        maximize Σz  subject to  B z ≤ 1,  z ≥ 0,

    whose optimum is ``Σz = 1/w``.  So ``w = 1 / Σz`` and ``y = z / Σz``.
    The dual of this LP is the row player's problem; its solution ``u``
    appears in the final objective row under the slack columns, and
    ``x = u / Σu`` is maximin.  Undoing the map gives
    ``value = (w − 1)·s + min A``.

    Raises:
        ValueError: if the game exceeds 200×200, or its payoff range is
            2**1023 or more (``s`` would overflow).
        SimplexLimitExceeded: if the pivot budget of ``100·(rows+cols+2)``
            runs out (not expected: the simplex terminates, and a uniform
            random 200×200 game takes about 900 of its 40,200 pivots).
    """
    rows, cols = game.shape
    if rows > MAX_VALUE_DIM or cols > MAX_VALUE_DIM:
        raise ValueError(
            f"game is {rows}x{cols}; exact_value handles at most "
            f"{MAX_VALUE_DIM}x{MAX_VALUE_DIM}"
        )
    payoff = game.payoff
    low = float(payoff.min())
    spread = float(payoff.max()) - low
    if not spread < 2.0**1023:
        raise ValueError(f"payoff range {spread:g} is 2**1023 or more; rescale the game")
    scale = math.ldexp(1.0, math.frexp(spread)[1])
    z, duals, pivots = _simplex_max_ones(
        (payoff - low) / scale + 1.0, max_pivots=100 * (rows + cols + 2)
    )

    z = np.maximum(z, 0.0)
    duals = np.maximum(duals, 0.0)
    z_total = z.sum()
    return ValueSolution(
        value=(1.0 / z_total - 1.0) * scale + low,
        row_strategy=MixedStrategy(duals / duals.sum()),
        col_strategy=MixedStrategy(z / z_total),
        pivots=pivots,
    )


def best_response(game: Game, player, opponent: MixedStrategy) -> BestResponse:
    """Best pure reply to ``opponent``, ties broken toward the lowest index."""
    player = Player(player)
    rows, cols = game.shape
    if player is Player.ROW:
        if len(opponent) != cols:
            raise ValueError(
                f"opponent strategy has {len(opponent)} entries but the column "
                f"player has {cols} actions"
            )
        utilities = game.payoff @ opponent.probs
    else:
        if len(opponent) != rows:
            raise ValueError(
                f"opponent strategy has {len(opponent)} entries but the row "
                f"player has {rows} actions"
            )
        utilities = -(opponent.probs @ game.payoff)
    action = int(np.argmax(utilities))
    return BestResponse(action=action, value=float(utilities[action]))


def brute_force_gaps(mu: JointDistribution, game: Game) -> BruteForceGaps:
    """Recompute both gap reports by direct sums over the joint distribution.

    Used in tests to cross-check the equilibrium module.  Every deviation
    value here is a literal double sum over all cells of ``mu`` (the joint
    route), whereas the equilibrium module evaluates deviations against the
    opponent's marginal; the two are equal by linearity, and comparing them
    exercises exactly that identity.
    """
    rows, cols = game.shape
    if rows > MAX_BRUTE_DIM or cols > MAX_BRUTE_DIM:
        raise ValueError(
            f"game is {rows}x{cols}; brute_force_gaps handles at most "
            f"{MAX_BRUTE_DIM}x{MAX_BRUTE_DIM}"
        )
    if mu.shape != game.shape:
        raise ValueError(
            f"joint distribution is {mu.rows}x{mu.cols} but game is {rows}x{cols}"
        )
    mass = mu.mass
    payoff = game.payoff

    # CCE report: u_row at deviation a is sum_{r,c} mass[r,c] * payoff[a,c].
    base_row = float((mass * payoff).sum())
    base_col = float((mass * -payoff).sum())
    row_devs = np.array([(mass * payoff[a, :]).sum() for a in range(rows)])
    col_devs = np.array([(mass * -payoff[:, b][:, None]).sum() for b in range(cols)])
    cce = GapReport(
        row_gain=float(row_devs.max() - base_row),
        col_gain=float(col_devs.max() - base_col),
        row_deviation=int(np.argmax(row_devs)),
        col_deviation=int(np.argmax(col_devs)),
    )

    # Nash report for the marginals, which are re-derived here on purpose.
    total = mass.sum()
    row_marg = mass.sum(axis=1) / total
    col_marg = mass.sum(axis=0) / total
    product = np.outer(row_marg, col_marg)
    nash_base_row = float((product * payoff).sum())
    nash_base_col = float((product * -payoff).sum())
    nash_row_devs = np.array([(col_marg * payoff[a, :]).sum() for a in range(rows)])
    nash_col_devs = np.array([(row_marg * -payoff[:, b]).sum() for b in range(cols)])
    nash = GapReport(
        row_gain=float(nash_row_devs.max() - nash_base_row),
        col_gain=float(nash_col_devs.max() - nash_base_col),
        row_deviation=int(np.argmax(nash_row_devs)),
        col_deviation=int(np.argmax(nash_col_devs)),
    )
    return BruteForceGaps(cce=cce, nash_of_marginals=nash)
