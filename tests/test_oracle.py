import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cce2nash import (
    Algo,
    Averaging,
    Game,
    JointDistribution,
    SimplexLimitExceeded,
    StrategyProfile,
    cce_gap,
    exact_value,
    marginal_profile,
    nash_gap,
    self_play,
)
from cce2nash import oracle
from cce2nash.oracle import _simplex_max_ones, brute_force_gaps
from helpers import (
    ASYM, PENNIES, RPS, full_tableau_simplex, product, random_game, random_joint, random_mixed,
)


# --- exact values ----------------------------------------------------------------


def test_matching_pennies_value_and_strategies():
    sol = exact_value(PENNIES)
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.row_strategy.probs, [0.5, 0.5], atol=1e-9)
    assert np.allclose(sol.col_strategy.probs, [0.5, 0.5], atol=1e-9)


def test_rock_paper_scissors_value_and_strategies():
    sol = exact_value(RPS)
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.row_strategy.probs, np.full(3, 1.0 / 3.0), atol=1e-9)
    assert np.allclose(sol.col_strategy.probs, np.full(3, 1.0 / 3.0), atol=1e-9)


def test_asym_game_closed_form():
    # no saddle point: max of row minima is -1, min of row maxima is 1
    assert ASYM.payoff.min(axis=1).max() == -1.0
    assert ASYM.payoff.max(axis=1).min() == 1.0
    a = ASYM.payoff
    closed_form = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) / (
        a[0, 0] + a[1, 1] - a[0, 1] - a[1, 0]
    )
    sol = exact_value(ASYM)
    assert closed_form == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert sol.value == pytest.approx(closed_form, abs=1e-9)
    assert np.allclose(sol.row_strategy.probs, [3.0 / 7.0, 4.0 / 7.0], atol=1e-9)
    assert np.allclose(sol.col_strategy.probs, [2.0 / 7.0, 5.0 / 7.0], atol=1e-9)


def test_asym_game_grid_refinement_cross_check():
    # independent route: coarse maximin over a grid of row mixtures
    grid = np.linspace(0.0, 1.0, 20001)
    mixes = np.stack([grid, 1.0 - grid], axis=1)
    worst_case = (mixes @ ASYM.payoff).min(axis=1)
    assert worst_case.max() == pytest.approx(1.0 / 7.0, abs=1e-4)
    assert exact_value(ASYM).value == pytest.approx(worst_case.max(), abs=1e-4)


def test_one_by_one_game_value_is_the_entry():
    sol = exact_value(Game([[-2.5]]))
    assert sol.value == pytest.approx(-2.5, abs=1e-12)
    assert sol.row_strategy.probs[0] == 1.0


def test_flat_game_value():
    sol = exact_value(Game(np.full((3, 4), 0.75)))
    assert sol.value == pytest.approx(0.75, abs=1e-9)


def test_solution_profile_is_nash_on_random_games():
    rng = np.random.default_rng(101)
    for _ in range(40):
        g = random_game(rng, max_dim=12)
        sol = exact_value(g)
        profile = StrategyProfile(sol.row_strategy, sol.col_strategy)
        assert nash_gap(profile, g).epsilon <= 1e-7
        x, y = profile.row.probs, profile.col.probs
        assert float(x @ g.payoff @ y) == pytest.approx(sol.value, abs=1e-7)


def test_strong_duality_on_random_games():
    rng = np.random.default_rng(103)
    for _ in range(40):
        g = random_game(rng, max_dim=12)
        sol = exact_value(g)
        row_guarantee = (sol.row_strategy.probs @ g.payoff).min()
        col_exposure = (g.payoff @ sol.col_strategy.probs).max()
        assert abs(row_guarantee - col_exposure) <= 1e-7


def test_exact_value_is_a_python_float():
    for game in (PENNIES, ASYM):
        assert type(exact_value(game).value) is float
    assert repr(exact_value(Game([[3.0]]))).startswith("ValueSolution(value=3.0,")


def test_exact_value_rejects_oversized_games():
    with pytest.raises(ValueError, match="200x200"):
        exact_value(Game(np.zeros((201, 3))))


def test_exact_value_rejects_a_payoff_range_of_2_to_the_1023():
    for big in (1e308, 2.0**1022):
        with pytest.raises(ValueError, match="rescale the game"):
            exact_value(Game([[big, -big], [-big, big]]))
    sol = exact_value(Game([[4e307, -4e307], [-4e307, 4e307]]))
    assert abs(sol.value) <= 1e-12 * 8e307
    assert np.allclose(sol.row_strategy.probs, [0.5, 0.5], atol=1e-12)


def test_simplex_reports_pivot_limit():
    # the optimum of this LP has both variables basic, so one pivot cannot reach it
    with pytest.raises(SimplexLimitExceeded, match="within 1 pivot"):
        _simplex_max_ones(np.array([[1.0, 2.0], [2.0, 1.0]]), max_pivots=1)


def test_simplex_refuses_an_unbounded_lp():
    # A zero column leaves its variable unbounded: exact_value's positive
    # payoff shift never builds one, so only the guard's own test reaches it.
    with pytest.raises(RuntimeError, match="unbounded LP"):
        _simplex_max_ones(np.array([[1.0, 0.0], [1.0, 0.0]]), 100)


def _tie_heavy(rng, rows, cols=None):
    return rng.integers(-1, 2, size=(rows, cols or rows)).astype(float)


def _duplicated(rng, rows, cols=None):
    # every row (column) copies one of rows/2 (cols/2) base strategies
    cols = cols or rows
    base = rng.uniform(-1.0, 1.0, size=(max(rows // 2, 1), max(cols // 2, 1)))
    return base[rng.integers(0, len(base), rows)][:, rng.integers(0, base.shape[1], cols)]


_REFERENCE_SHAPES = [
    (1, 1), (2, 2), (7, 7), (50, 50), (100, 100),
    (7, 1), (40, 1), (100, 1), (1, 7), (1, 40), (1, 100),
    (3, 8), (8, 3), (20, 45), (45, 20), (60, 100), (100, 60),
]


@pytest.mark.parametrize("family", ["uniform", "tie_heavy", "duplicated"])
@pytest.mark.parametrize("run", [50, 0, 3])
def test_condensed_tableau_matches_the_full_tableau_bitwise(monkeypatch, family, run):
    # run 50 is the default, 0 prices every pivot by Bland's rule, 3 switches back and forth
    monkeypatch.setattr(oracle, "_DEGENERATE_RUN", run)
    build = {
        "uniform": lambda rng, r, c: rng.uniform(-1.0, 1.0, size=(r, c)),
        "tie_heavy": _tie_heavy,
        "duplicated": _duplicated,
    }[family]
    for rows, cols in _REFERENCE_SHAPES:
        rng = np.random.default_rng([rows, cols, len(family)])
        for _ in range(2):
            payoff = build(rng, rows, cols)
            game = Game(payoff)
            B = (payoff - game.low) / game.scale + 1.0
            budget = 100 * (rows + cols + 2)
            z, duals, pivots = _simplex_max_ones(B, budget)
            ref_z, ref_duals, ref_pivots = full_tableau_simplex(B, budget)
            assert pivots == ref_pivots, (rows, cols)
            # Bytes, not values: the sign of a zero would reach `value`'s output.
            assert z.tobytes() == ref_z.tobytes(), (rows, cols)
            assert duals.tobytes() == ref_duals.tobytes(), (rows, cols)


def _nash_eps(sol, game):
    return nash_gap(StrategyProfile(sol.row_strategy, sol.col_strategy), game).epsilon


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 20),
    cols=st.integers(1, 20),
    exponent=st.floats(-8.0, 9.0),
    offset=st.floats(-1e6, 1e6),
)
def test_exact_value_is_scale_invariant(seed, rows, cols, exponent, offset):
    payoff = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, cols))
    c = 10.0**exponent
    # The offset is drawn in units of c: an offset far above c·range would
    # round the scaled payoffs themselves away.
    d = offset * c
    scaled = Game(c * payoff + d)
    tol = 1e-7 * c * (float(payoff.max() - payoff.min()) or 1.0)
    sol = exact_value(scaled)
    assert abs(sol.value - (c * exact_value(Game(payoff)).value + d)) <= tol
    assert _nash_eps(sol, scaled) <= tol


@pytest.mark.parametrize(
    "payoff",
    [_tie_heavy(np.random.default_rng(211), 40), _duplicated(np.random.default_rng(223), 40)],
    ids=["tie_heavy", "duplicated"],
)
@pytest.mark.parametrize("run", [0, 3])
def test_bland_fallback_reaches_the_priced_optimum(monkeypatch, payoff, run):
    game = Game(payoff)
    priced = exact_value(game)
    # run 0 prices every pivot by Bland's rule; run 3 switches back and forth
    monkeypatch.setattr(oracle, "_DEGENERATE_RUN", run)
    fallback = exact_value(game)
    assert fallback.value == pytest.approx(priced.value, abs=1e-9)
    for sol in (priced, fallback):
        assert _nash_eps(sol, game) <= 1e-7


def test_steepest_edge_takes_fewer_pivots_than_bland(monkeypatch):
    game = Game(np.random.default_rng(50).uniform(-1.0, 1.0, size=(50, 50)))
    steepest = exact_value(game).pivots
    monkeypatch.setattr(oracle, "_DEGENERATE_RUN", 0)
    bland = exact_value(game).pivots
    assert (steepest, bland) == (43, 189)


@pytest.mark.parametrize(
    "family, limit",
    [("uniform", 320), ("tie_heavy", 400)],
)
def test_200_by_200_games_take_few_pivots(family, limit):
    # Dantzig pricing took 664 to 992 pivots on the uniform games and 528 to
    # 699 on the tie-heavy ones.  Steepest edge at every pivot stalled on the
    # tie-heavy ones' first degenerate vertex, for up to 1,619 pivots.
    for seed in range(8):
        rng = np.random.default_rng(seed)
        if family == "uniform":
            payoff = rng.uniform(-1.0, 1.0, size=(200, 200))
        else:
            payoff = _tie_heavy(rng, 200)
        assert exact_value(Game(payoff)).pivots <= limit, seed


@pytest.mark.parametrize("dim", [2, 7, 20, 50])
@pytest.mark.parametrize("family", ["uniform", "tie_heavy", "duplicated"])
def test_exact_value_matches_highs(family, dim):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1000 * dim + len(family))
    if family == "uniform":
        payoff = rng.uniform(-1.0, 1.0, size=(dim, dim))
    elif family == "tie_heavy":
        payoff = _tie_heavy(rng, dim)
    else:
        payoff = _duplicated(rng, dim)
    rows, cols = payoff.shape
    # Column player: minimize v subject to A y <= v, sum y = 1, y >= 0.
    result = optimize.linprog(
        c=np.r_[np.zeros(cols), 1.0],
        A_ub=np.c_[payoff, -np.ones(rows)],
        b_ub=np.zeros(rows),
        A_eq=np.r_[np.ones(cols), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * cols + [(None, None)],
        method="highs",
    )
    assert result.status == 0
    tol = 1e-7 * (float(payoff.max() - payoff.min()) or 1.0)
    assert exact_value(Game(payoff)).value == pytest.approx(result.fun, abs=tol)


# --- Fact 2: the marginals bracket the value ------------------------------------------
# The paper's proof: with (x, y) the marginals of a joint, M = max_r (A·y)_r and
# m = min_c (x·A)_c, the value v satisfies m <= v <= M, and M − m is the sum of
# the two CCE gains.


@st.composite
def bracket_instances(draw):
    """A game of 1×1 to 12×12, scaled by 2^-40 to 2^40 and maybe offset, and a
    joint of it: Dirichlet, sparse (one to three cells), a product of two
    mixed strategies, or the averaged play of a short self-play run."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.uniform(-1.0, 1.0, size=(rows, cols))
    else:
        base = rng.integers(-1, 2, size=(rows, cols)).astype(float)
    offset = draw(st.sampled_from([0.0, 0.5, -3.0, 2.0**20, -(2.0**20)]))
    game = Game((base + offset) * 2.0 ** draw(st.integers(-40, 40)))
    family = draw(st.sampled_from(["dirichlet", "sparse", "product", "self-play"]))
    if family == "dirichlet":
        mu = JointDistribution(rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols))
    elif family == "sparse":
        mass = np.zeros(rows * cols)
        count = min(rows * cols, draw(st.integers(1, 3)))
        cells = rng.choice(rows * cols, size=count, replace=False)
        mass[cells] = rng.dirichlet(np.ones(count))
        mu = JointDistribution(mass.reshape(rows, cols))
    elif family == "product":
        mu = product(random_mixed(rng, rows), random_mixed(rng, cols))
    else:
        mu = self_play(game, draw(st.sampled_from(list(Algo))), iters=draw(st.integers(1, 300)),
                       averaging=draw(st.sampled_from(list(Averaging))), seed=3).empirical_joint
    return game, mu


@settings(max_examples=150, deadline=None)
@given(bracket_instances())
def test_the_marginals_bracket_the_value_within_the_sum_of_the_cce_gains(instance):
    game, mu = instance
    profile = marginal_profile(mu)
    high = float((game.payoff @ profile.col.probs).max())  # M
    low = float((profile.row.probs @ game.payoff).min())  # m
    # Rounding, to first order: each side's marginal, product and the gains'
    # joint payoff take at most rows·cols + 2·(rows + cols) + 4 roundings of
    # 2⁻⁵³ of the largest |payoff| each, twice over for the two sides.
    rows, cols = game.shape
    roundings = rows * cols + 2 * (rows + cols) + 4
    rounding = 2 * roundings * 2.0**-53 * float(np.abs(game.payoff).max())
    # The LP's value is within 1e-7 of the payoff range (ValueSolution).
    value = exact_value(game).value
    assert low - 1e-7 * game.payoff_range - rounding <= value
    assert value <= high + 1e-7 * game.payoff_range + rounding
    cce = cce_gap(mu, game)
    assert abs((high - low) - (cce.row_gain + cce.col_gain)) <= rounding
    nash = nash_gap(profile, game)
    assert max(nash.row_gain, nash.col_gain) <= high - low + rounding


# --- brute-force gap recomputation ----------------------------------------------------


def test_brute_force_point_mass_on_trivial_game():
    g = Game([[4.0]])
    gaps = brute_force_gaps(JointDistribution([[1.0]]), g)
    assert gaps.cce.epsilon == 0.0
    assert gaps.nash_of_marginals.epsilon == 0.0


def test_brute_force_diagonal_pennies():
    mu = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    gaps = brute_force_gaps(mu, PENNIES)
    assert gaps.cce.epsilon == pytest.approx(1.0, abs=1e-12)
    assert gaps.cce.row_gain == pytest.approx(-1.0, abs=1e-12)
    assert gaps.nash_of_marginals.epsilon == pytest.approx(0.0, abs=1e-12)


def test_brute_force_agrees_with_equilibrium_module():
    rng = np.random.default_rng(109)
    for _ in range(60):
        g = random_game(rng, max_dim=10)
        mu = random_joint(rng, g.shape)
        gaps = brute_force_gaps(mu, g)
        fast_cce = cce_gap(mu, g)
        fast_nash = nash_gap(marginal_profile(mu), g)
        assert gaps.cce.row_gain == pytest.approx(fast_cce.row_gain, abs=1e-9)
        assert gaps.cce.col_gain == pytest.approx(fast_cce.col_gain, abs=1e-9)
        assert gaps.cce.epsilon == pytest.approx(fast_cce.epsilon, abs=1e-9)
        assert gaps.nash_of_marginals.row_gain == pytest.approx(fast_nash.row_gain, abs=1e-9)
        assert gaps.nash_of_marginals.col_gain == pytest.approx(fast_nash.col_gain, abs=1e-9)
        assert gaps.nash_of_marginals.epsilon == pytest.approx(fast_nash.epsilon, abs=1e-9)


def test_brute_force_rejects_oversized_and_mismatched_inputs():
    with pytest.raises(ValueError, match="50x50"):
        brute_force_gaps(
            JointDistribution(np.full((51, 1), 1.0 / 51.0)),
            Game(np.zeros((51, 1))),
        )
    with pytest.raises(ValueError, match="2x2 but game is 3x3"):
        brute_force_gaps(JointDistribution(np.full((2, 2), 0.25)), RPS)
