"""Shared random-instance builders and independent reference routes for the test suites."""

import math

import numpy as np

from cce2nash import (
    Game,
    JointDistribution,
    MixedStrategy,
    StrategyProfile,
    make_zero_sum,
    marginal_profile,
)
from cce2nash import oracle
from cce2nash.games import PROB_SUM_TOL, _check_shape


def random_game(rng: np.random.Generator, max_dim: int = 20) -> Game:
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    return make_zero_sum(rng.uniform(-1.0, 1.0, size=(rows, cols)))


def random_joint(rng: np.random.Generator, shape) -> JointDistribution:
    mass = rng.uniform(0.0, 1.0, size=shape)
    return JointDistribution(mass / mass.sum())


def random_mixed(rng: np.random.Generator, num_actions: int) -> MixedStrategy:
    weights = rng.uniform(0.0, 1.0, size=num_actions)
    return MixedStrategy(weights / weights.sum())


def reference_shift(payoff: np.ndarray) -> float:
    """The payoffs' midpoint when every payoff lies within a factor of 2 of it,
    else 0: the rule ``Game.shift`` stores, computed on its own."""
    high, low = float(payoff.max()), float(payoff.min())
    mid = 0.5 * high + 0.5 * low
    if (mid > 0.0 and low >= 0.5 * mid) or (mid < 0.0 and high <= 0.5 * mid):
        return mid
    return 0.0


def reference_scale(payoff: np.ndarray) -> float:
    """Smallest power of two above the payoff range, 1 for a flat game: the
    rule ``Game.scale`` stores, computed on its own."""
    spread = float(payoff.max()) - float(payoff.min())
    return math.ldexp(1.0, math.frexp(spread)[1])


def reference_max_abs(payoff: np.ndarray) -> float:
    """The largest |payoff|, which ``bound_slack`` multiplies by ``BOUND_TOL``."""
    return float(np.abs(payoff).max())


# The distribution checks ``MixedStrategy`` and ``JointDistribution`` each ran
# before they shared ``games._distribution``, and the three shape checks that
# ``games._check_shape`` replaced, kept as references.  Each distribution check
# returns the stored array or raises.


def reference_mixed_probs(probs) -> np.ndarray:
    arr = np.array(probs, dtype=float)
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
    return arr


def reference_joint_mass(mass, sum_tol: float) -> np.ndarray:
    arr = np.array(mass, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("mass must be a non-empty 2-D matrix")
    if not np.isfinite(arr).all():
        raise ValueError("mass entries must be finite")
    neg = np.argwhere(arr < 0)
    if neg.size:
        r, c = neg[0]
        raise ValueError(f"negative mass {float(arr[r, c])!r} at cell ({r}, {c})")
    total = float(arr.sum())
    if abs(total - 1.0) > sum_tol:
        raise ValueError(
            f"mass sums to {total!r}, expected 1 within {sum_tol} (refusing to renormalize)"
        )
    arr.setflags(write=False)
    return arr


def reference_check_profile(game: Game, profile: StrategyProfile) -> None:
    if len(profile.row) != game.rows or len(profile.col) != game.cols:
        raise ValueError(
            f"profile has shape {len(profile.row)}x{len(profile.col)} "
            f"but game is {game.rows}x{game.cols}"
        )


def reference_check_joint_shape(mu: JointDistribution, game: Game) -> None:
    if mu.shape != game.shape:
        raise ValueError(
            f"joint distribution is {mu.rows}x{mu.cols} but game is {game.rows}x{game.cols}"
        )


def reference_check_brute_shape(mu: JointDistribution, game: Game) -> None:
    rows, cols = game.shape
    if mu.shape != game.shape:
        raise ValueError(
            f"joint distribution is {mu.rows}x{mu.cols} but game is {rows}x{cols}"
        )


PENNIES = make_zero_sum([[1.0, -1.0], [-1.0, 1.0]])
RPS = make_zero_sum([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
ASYM = make_zero_sum([[3.0, -1.0], [-2.0, 1.0]])  # value 1/7, no saddle point


def bimatrix_gains(row_payoff, col_payoff, mass) -> tuple[float, float, float, float]:
    """Best pure-deviation gains ``(cce_row, cce_col, nash_row, nash_col)`` of
    ``mass`` and of its marginals in the general-sum game where the row player
    scores ``row_payoff`` and the column player ``col_payoff``: the gaps
    ``analyze`` reports, without the zero-sum hypothesis."""
    A, B, mass = (np.asarray(m, dtype=float) for m in (row_payoff, col_payoff, mass))
    x, y = mass.sum(axis=1), mass.sum(axis=0)
    # Each player's best pure deviation against the opponent's marginal.
    row_best, col_best = float((A @ y).max()), float((x @ B).max())
    return (
        row_best - float((mass * A).sum()),
        col_best - float((mass * B).sum()),
        row_best - float(x @ A @ y),
        col_best - float(x @ B @ y),
    )


def deviation_value(
    mu: JointDistribution, game: Game, side: str, deviation: MixedStrategy
) -> float:
    """Expected utility to ``side`` (``"row"`` or ``"col"``) of committing to
    ``deviation`` while the opponent follows ``mu``.

    In a two-player game the opponent's play under ``mu`` is fully described by
    their marginal, so this is evaluated as ``deviation`` against the opponent's
    marginal strategy, ``(x @ A) @ y``; the acceptance suite checks it against
    the direct cell-by-cell sum over ``mu``.  The column player scores ``-A``.
    """
    _check_shape(game, mu.shape, "joint distribution")
    own_dim = game.rows if side == "row" else game.cols
    if len(deviation) != own_dim:
        raise ValueError(f"deviation has length {len(deviation)}, expected {own_dim}")
    marginals = marginal_profile(mu)
    if side == "row":
        return float(deviation.probs @ game.payoff @ marginals.col.probs)
    return -float(marginals.row.probs @ game.payoff @ deviation.probs)


def full_tableau_simplex(B: np.ndarray, max_pivots: int):
    """The full-tableau simplex ``oracle._simplex_max_ones`` condenses.

    It keeps all ``n + m`` variable columns of the ``(m+1)×(n+m+1)``
    tableau, so a basic variable's column is a unit vector and pricing can
    take the first index, which is the lowest label.  Same pricing (steepest
    edge, Dantzig's rule right after a degenerate pivot, Bland's rule after
    ``oracle._DEGENERATE_RUN`` of them), ratio test, tolerances and pivot
    budget; it reads ``oracle._DEGENERATE_RUN`` at call time, so a
    monkeypatch applies to both.  Returns ``(z, duals, pivots)``.
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
        improving = np.flatnonzero(reduced < -oracle.FEAS_TOL)
        if improving.size == 0:
            break
        if pivots == max_pivots:
            raise oracle.SimplexLimitExceeded(
                f"simplex did not converge within {max_pivots} pivots"
            )
        bland = degenerate >= oracle._DEGENERATE_RUN
        if bland:
            j = int(improving[0])
        elif degenerate:
            j = int(np.argmin(reduced))
        else:
            # Norms over a row-strided view, as the condensed tableau takes
            # them: einsum over a contiguous copy may sum in another order.
            body = T[:m, : n + m]
            norms = np.einsum("ij,ij->j", body, body)[improving]
            j = int(improving[np.argmin(reduced[improving] / np.sqrt(norms + 1.0))])
        eligible = np.flatnonzero(T[:m, j] > oracle.FEAS_TOL)
        if eligible.size == 0:
            raise RuntimeError("unbounded LP; positive payoff shift should prevent this")
        ratios = rhs[eligible] / T[eligible, j]
        step = ratios.min()
        tied = eligible[ratios <= step + oracle._RATIO_TIE_TOL]
        if not bland:
            tied = tied[T[tied, j] == T[tied, j].max()]
        i = int(tied[np.argmin(basis[tied])])
        degenerate = degenerate + 1 if step <= oracle._RATIO_TIE_TOL else 0
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
