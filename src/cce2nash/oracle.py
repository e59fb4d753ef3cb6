"""Exact game values and brute-force gaps.

:func:`exact_value` is a product feature: it computes the value that
``cce2nash value`` prints and the ``oracle_value`` and ``lp_pivots`` that
``learn`` reports, from a self-contained dense simplex (no external solver;
steepest-edge pricing, Dantzig's rule right after a degenerate pivot and
Bland's rule after a run of them).  The tests use it as the value oracle too.
:func:`brute_force_gaps` is a cross-check only, and no command calls it: it
recomputes the gap reports from direct sums over the joint distribution that
deliberately avoid the marginal-based formulas used in
:mod:`cce2nash.equilibrium`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import GapReport, JointDistribution
from .games import Game, MixedStrategy, _check_shape

__all__ = [
    "BruteForceGaps",
    "SimplexLimitExceeded",
    "ValueSolution",
    "brute_force_gaps",
    "exact_value",
]

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
class BruteForceGaps:
    cce: GapReport
    nash_of_marginals: GapReport


def _check_size(game: Game, limit: int, who: str) -> None:
    if max(game.shape) > limit:
        raise ValueError(f"game is {game.rows}x{game.cols}; {who} handles at most {limit}x{limit}")


def _simplex_max_ones(B: np.ndarray, max_pivots: int):
    """Maximize 1ᵀz subject to Bz ≤ 1, z ≥ 0, for entrywise-positive B.

    Condensed (Tucker exchange) tableau simplex.  Each variable has a label:
    ``0..n-1`` for the structural ``z`` and ``n..n+m-1`` for the row slacks.
    In the full ``(m+1)×(n+m+1)`` tableau the column of a basic variable is a
    unit vector, so this one keeps only the ``(m+1)×(n+1)`` rest: one column
    per nonbasic variable, whose label is in ``labels``, then the right-hand
    side.  ``basis`` holds the label of each row's basic variable, and the last
    row is the objective.  A pivot on row ``i`` and column ``q`` swaps their
    labels, and column ``q`` takes over the leaving variable's unit column: it
    is set to ``e_i`` scaled by ``1/p`` (``p`` the pivot, as the division of
    row ``i`` would make it), and the rank-1 update turns it into what the
    full tableau computes there.  Every entry is therefore the full tableau's,
    bit for bit, for about half the floating-point work on a square game.
    Each pivot updates the tableau in place through one preallocated buffer.

    The entering column is priced by steepest edge (Forrest & Goldfarb,
    Math. Programming 57, 1992): among the improving columns (reduced cost
    below ``-FEAS_TOL``), the one that minimizes
    ``reduced_j / sqrt(1 + Σ_i T[i, j]²)``, the objective's rate of change per
    unit length of the edge it moves along.  The squared norms are recomputed
    exactly at each such pivot, by one einsum over the row-strided view
    ``T[:m, :n]``.  Right after a degenerate pivot (a ratio step of zero
    length) the pivot is priced by Dantzig's rule instead, the most negative
    reduced cost: at a degenerate vertex steepest edge kept choosing edges
    that a tight row blocks at once.  Either way exact ties go to the lowest
    label (not the lowest position).  The leaving row is the minimum-ratio
    row; among rows within ``_RATIO_TIE_TOL`` of it, the one with the
    largest pivot element, then the lowest-label basic variable.  After
    ``_DEGENERATE_RUN`` consecutive degenerate pivots pricing switches to
    Bland's rule until a pivot makes progress: the lowest-label improving
    column enters, and the lowest-label basic variable among the tied rows
    leaves.  On the 200×200 games ``default_rng(s).uniform(-1, 1, (200, 200))``
    for ``s`` = 0 to 7 this takes 236 to 306 pivots, against 664 to 992 by
    Dantzig's rule alone.  On the tie-heavy ones, payoffs drawn from
    {-1, 0, 1}, it takes 254 to 339 pivots; steepest edge at every pivot
    stalled at their first degenerate vertex, for up to 1,619.

    Termination: the objective never decreases, and every nondegenerate pivot
    raises it strictly, so no basis recurs across one; a cycle could consist
    only of degenerate pivots.  A run of degenerate pivots takes at most
    ``_DEGENERATE_RUN`` priced pivots and then follows Bland's rule, which
    never cycles, so the run ends at the optimum or at a nondegenerate pivot.
    There are finitely many bases, hence finitely many pivots.

    Returns the optimal ``z``, the duals and the number of pivots taken.  The
    dual of a nonbasic slack is the objective-row entry of its column; a basic
    slack's dual is 0, as its unit column's objective entry is.
    """
    m, n = B.shape
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = B
    T[:m, n] = 1.0
    T[m, :n] = -1.0
    body = T[:m, :n]
    reduced = T[m, :n]
    rhs = T[:m, n]
    labels = np.arange(n)
    basis = np.arange(n, n + m)
    column = np.empty(m + 1)
    column_body = column[:m]
    update = np.empty_like(T)
    improving = np.empty(n, dtype=bool)
    norms = np.empty(n)
    edge = np.empty(n)
    eligible = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    tied = np.empty(m, dtype=bool)
    degenerate = 0

    for pivots in range(max_pivots + 1):
        # count_nonzero and argmin cost a fraction of any() and min() at these sizes.
        if not np.count_nonzero(np.less(reduced, -FEAS_TOL, out=improving)):
            break
        if pivots == max_pivots:
            raise SimplexLimitExceeded(
                f"simplex did not converge within {max_pivots} pivots"
            )
        bland = degenerate >= _DEGENERATE_RUN
        if bland:
            candidates = improving.nonzero()[0]
            q = candidates[labels[candidates].argmin()]
        else:
            if degenerate:
                # Dantzig: the most negative reduced cost is an improving column's.
                score = reduced
            else:
                # Steepest edge.  A column that does not improve scores ±0,
                # above every improving column's negative score.
                np.einsum("ij,ij->j", body, body, out=norms)
                norms += 1.0
                np.sqrt(norms, out=norms)
                np.multiply(reduced, improving, out=edge)
                np.divide(edge, norms, out=edge)
                score = edge
            q = score.argmin()
            # argmin breaks ties by position; the rule breaks them by label.
            if np.count_nonzero(np.equal(score, score[q], out=improving)) > 1:
                candidates = improving.nonzero()[0]
                q = candidates[labels[candidates].argmin()]
        np.copyto(column, T[:, q])
        if not np.count_nonzero(np.greater(column_body, FEAS_TOL, out=eligible)):
            # Unreachable for positive B: every column bounds the objective.
            raise RuntimeError("unbounded LP; positive payoff shift should prevent this")
        ratios.fill(np.inf)
        np.divide(rhs, column_body, out=ratios, where=eligible)
        i = ratios.argmin()
        step = ratios[i]
        if np.count_nonzero(np.less_equal(ratios, step + _RATIO_TIE_TOL, out=tied)) > 1:
            candidates = tied.nonzero()[0]
            if not bland:
                largest = column_body[candidates]
                candidates = candidates[largest == largest.max()]
            i = candidates[basis[candidates].argmin()]
        degenerate = degenerate + 1 if step <= _RATIO_TIE_TOL else 0
        pivot = column[i]
        column[i] = 0.0
        T[i] /= pivot
        # The leaving variable's unit column e_i, as dividing row i leaves it.
        T[:, q] = 0.0
        T[i, q] = 1.0 / pivot
        np.einsum("i,j->ij", column, T[i], out=update)
        T -= update
        labels[q], basis[i] = basis[i], labels[q]

    z = np.zeros(n)
    structural = basis < n
    z[basis[structural]] = rhs[structural]
    duals = np.zeros(m)
    slack = labels >= n
    duals[labels[slack] - n] = reduced[slack]
    return z, duals, pivots


def exact_value(game: Game) -> ValueSolution:
    """Game value and maximin/minimax strategies via linear programming.

    The reduction is the textbook one, applied to payoffs mapped onto
    [1, 2): ``B = (A − min A)/s + 1``, where ``s = game.scale`` is the
    smallest power of two above the payoff range (1 for a flat game), so the
    division is exact.  The simplex tolerances are absolute, and this normalization makes
    the result invariant to the scale and offset of ``A``.  The shifted
    value ``w`` of ``B`` satisfies ``w ≥ 1 > 0``.  The column player wants
    ``y`` minimizing ``max_r (B y)_r``; substituting ``z = y / w`` turns that
    into the LP

        maximize Σz  subject to  B z ≤ 1,  z ≥ 0,

    whose optimum is ``Σz = 1/w``.  So ``w = 1 / Σz`` and ``y = z / Σz``.
    The dual of this LP is the row player's problem.  Its solution ``u`` is
    read from the final objective row: ``u_r`` is the entry under row r's
    slack where that slack is nonbasic, and 0 where it is basic.  Then
    ``x = u / Σu`` is maximin.  Undoing the map gives
    ``value = (w − 1)·s + min A``.

    The simplex keeps a condensed ``(rows+1)×(cols+1)`` tableau and one
    update buffer of that shape, 0.65 MB at 200×200.  It prices by steepest
    edge (see ``_simplex_max_ones``), which takes about a third of the pivots
    of Dantzig's rule at 200×200.

    Raises:
        ValueError: if the game exceeds 200×200.  A payoff range of 2**1023
            or more, where ``s`` would overflow, is refused when the
            :class:`~cce2nash.games.Game` is made.
        SimplexLimitExceeded: if the pivot budget of ``100·(rows+cols+2)``
            runs out (not expected: the simplex terminates, and the uniform
            random 200×200 games ``default_rng(s).uniform(-1, 1, (200, 200))``
            for seeds ``s`` = 0 to 7 take 236 to 306 of its 40,200 pivots).
    """
    _check_size(game, MAX_VALUE_DIM, "exact_value")
    rows, cols = game.shape
    z, duals, pivots = _simplex_max_ones(
        (game.payoff - game.low) / game.scale + 1.0, max_pivots=100 * (rows + cols + 2)
    )

    z = np.maximum(z, 0.0)
    duals = np.maximum(duals, 0.0)
    z_total = z.sum()
    return ValueSolution(
        value=float((1.0 / z_total - 1.0) * game.scale + game.low),
        row_strategy=MixedStrategy(duals / duals.sum()),
        col_strategy=MixedStrategy(z / z_total),
        pivots=pivots,
    )


def brute_force_gaps(mu: JointDistribution, game: Game) -> BruteForceGaps:
    """Recompute both gap reports by direct sums over the joint distribution.

    Used in tests to cross-check the equilibrium module.  Every deviation
    value here is a literal double sum over all cells of ``mu`` (the joint
    route), whereas the equilibrium module evaluates deviations against the
    opponent's marginal; the two are equal by linearity, and comparing them
    exercises exactly that identity.
    """
    _check_size(game, MAX_BRUTE_DIM, "brute_force_gaps")
    rows, cols = game.shape
    _check_shape(game, mu.shape, "joint distribution")
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
