"""End-to-end acceptance suite.

Each test prints one ``[criterion N] name: PASS/FAIL`` verdict line (visible
with ``pytest -s``) and then asserts, so a red run always names the criterion
that broke.  Runtime budgets are asserted where the checks are bulk numerical
sweeps.
"""

import time

import numpy as np
import pytest

from cce2nash import (
    Algo,
    Game,
    StrategyProfile,
    brute_force_gaps,
    cce_gap,
    exact_value,
    expected_joint_utility,
    marginal_profile,
    nash_gap,
    self_play,
    two_eps_check,
    value_consistency_check,
)
from cce2nash.cli import main
from helpers import (
    ASYM,
    PENNIES,
    RPS,
    deviation_value,
    random_game,
    random_joint,
    random_mixed,
)

_corpus_cache = {}


def shared_corpus():
    """1000 (game, joint, row deviation, col deviation) instances up to 20x20."""
    if "corpus" not in _corpus_cache:
        rng = np.random.default_rng(20240901)
        instances = []
        for _ in range(1000):
            g = random_game(rng, max_dim=20)
            instances.append(
                (g, random_joint(rng, g.shape), random_mixed(rng, g.rows), random_mixed(rng, g.cols))
            )
        _corpus_cache["corpus"] = instances
    return _corpus_cache["corpus"]


def verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def direct_row_deviation(mass, payoff, dev):
    # literal double sum over cells: no marginalization anywhere
    per_col = dev.probs @ payoff
    return float((mass * per_col[None, :]).sum())


def direct_col_deviation(mass, payoff, dev):
    per_row = -(payoff @ dev.probs)
    return float((mass * per_row[:, None]).sum())


def test_criterion_1_deviation_value_equals_marginal_evaluation():
    start = time.perf_counter()
    worst = 0.0
    for g, mu, dev_row, dev_col in shared_corpus():
        direct = direct_row_deviation(mu.mass, g.payoff, dev_row)
        via_marginal = deviation_value(mu, g, "row", dev_row)
        worst = max(worst, abs(direct - via_marginal))
        direct = direct_col_deviation(mu.mass, g.payoff, dev_col)
        via_marginal = deviation_value(mu, g, "col", dev_col)
        worst = max(worst, abs(direct - via_marginal))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "joint-vs-marginal deviation equality",
        worst <= 1e-9 and elapsed < 5.0,
        f"1000 instances, worst |diff| {worst:.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_joint_payoff_consistent_with_marginals():
    corpus = shared_corpus()
    start = time.perf_counter()
    failures = sum(1 for g, mu, _, _ in corpus if not value_consistency_check(mu, g).holds)
    elapsed = time.perf_counter() - start
    verdict(
        2,
        "joint payoff within CCE gap of marginal payoff",
        failures == 0 and elapsed < 5.0,
        f"{len(corpus)} instances, {failures} failures, {elapsed:.2f}s",
    )


def test_criterion_3_marginals_are_two_eps_nash():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    failures = 0
    max_ratio = 0.0
    count = 10_000
    for _ in range(count):
        g = random_game(rng, max_dim=20)
        mu = random_joint(rng, g.shape)
        chk = two_eps_check(mu, g)
        if not chk.holds:
            failures += 1
        max_ratio = max(max_ratio, chk.nash_eps / max(chk.cce_eps, 1e-15))
    elapsed = time.perf_counter() - start
    # the ratio is reported as a statistic, not asserted: the bound is <= 2
    verdict(
        3,
        "nash gap of marginals at most twice the CCE gap",
        failures == 0 and elapsed < 60.0,
        f"{count} instances, {failures} failures, max nash/cce ratio {max_ratio:.6f}, {elapsed:.2f}s",
    )


def test_criterion_4_oracles_agree_with_the_fast_paths():
    rng = np.random.default_rng(555)
    worst_gap_diff = 0.0
    for _ in range(1000):
        g = random_game(rng, max_dim=20)
        mu = random_joint(rng, g.shape)
        slow = brute_force_gaps(mu, g)
        fast_cce = cce_gap(mu, g)
        fast_nash = nash_gap(marginal_profile(mu), g)
        worst_gap_diff = max(
            worst_gap_diff,
            abs(slow.cce.row_gain - fast_cce.row_gain),
            abs(slow.cce.col_gain - fast_cce.col_gain),
            abs(slow.cce.epsilon - fast_cce.epsilon),
            abs(slow.nash_of_marginals.row_gain - fast_nash.row_gain),
            abs(slow.nash_of_marginals.col_gain - fast_nash.col_gain),
            abs(slow.nash_of_marginals.epsilon - fast_nash.epsilon),
        )

    worst_nash = 0.0
    worst_duality = 0.0
    for _ in range(200):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        g = Game(rng.uniform(-1.0, 1.0, size=(rows, cols)))
        sol = exact_value(g)
        profile = StrategyProfile(sol.row_strategy, sol.col_strategy)
        worst_nash = max(worst_nash, nash_gap(profile, g).epsilon)
        row_guarantee = float((sol.row_strategy.probs @ g.payoff).min())
        col_exposure = float((g.payoff @ sol.col_strategy.probs).max())
        worst_duality = max(worst_duality, abs(row_guarantee - col_exposure))

    verdict(
        4,
        "brute-force and LP oracles agree",
        worst_gap_diff <= 1e-9 and worst_nash <= 1e-7 and worst_duality <= 1e-7,
        f"gap diff {worst_gap_diff:.3g}, LP profile nash {worst_nash:.3g}, "
        f"duality {worst_duality:.3g}",
    )


def test_criterion_5_known_game_values():
    ok = True
    details = []

    sol = exact_value(PENNIES)
    ok &= abs(sol.value) <= 1e-9
    ok &= np.allclose(sol.row_strategy.probs, [0.5, 0.5], atol=1e-9)
    ok &= np.allclose(sol.col_strategy.probs, [0.5, 0.5], atol=1e-9)
    details.append(f"pennies {sol.value:.2e}")

    sol = exact_value(RPS)
    ok &= abs(sol.value) <= 1e-9
    ok &= np.allclose(sol.row_strategy.probs, np.full(3, 1 / 3), atol=1e-9)
    ok &= np.allclose(sol.col_strategy.probs, np.full(3, 1 / 3), atol=1e-9)
    details.append(f"rps {sol.value:.2e}")

    # 2x2 closed form applies because the game has no saddle point
    a = ASYM.payoff
    assert a.min(axis=1).max() < a.max(axis=1).min()
    closed_form = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) / (
        a[0, 0] + a[1, 1] - a[0, 1] - a[1, 0]
    )
    sol = exact_value(ASYM)
    ok &= abs(sol.value - closed_form) <= 1e-9
    ok &= abs(closed_form - 1.0 / 7.0) <= 1e-15
    details.append(f"asym |value-1/7| {abs(sol.value - 1 / 7):.2e}")

    verdict(5, "known game values", ok, ", ".join(details))


@pytest.mark.parametrize("algo", list(Algo))
def test_criterion_6_self_play_converges_on_matching_pennies(algo):
    start = time.perf_counter()
    result = self_play(PENNIES, algo, iters=100_000, seed=0, averaging="expected")
    elapsed = time.perf_counter() - start

    final_cce = cce_gap(result.empirical_joint, PENNIES).epsilon
    avg_payoff = expected_joint_utility(result.empirical_joint, PENNIES)
    chain_ok = all(
        point.nash_eps <= 2.0 * point.cce_eps + 1e-9 for point in result.trajectory
    )
    ok = final_cce <= 0.02 and chain_ok and abs(avg_payoff) <= 0.02 and elapsed < 10.0
    verdict(
        6,
        f"self-play convergence ({algo.value})",
        ok,
        f"cce {final_cce:.3g}, |payoff| {abs(avg_payoff):.3g}, "
        f"{len(result.trajectory)} checkpoints, {elapsed:.2f}s",
    )


def test_criterion_7_learn_command_is_deterministic(tmp_path):
    game_path = tmp_path / "pennies.txt"
    game_path.write_text("2 2\n1 -1\n-1 1\n")
    flags = [
        "learn", "--game", str(game_path), "--algo", "rmplus", "--iters", "20000",
        "--seed", "3", "--averaging", "sampled", "--log-every", "2000",
    ]
    assert main(flags + ["--out", str(tmp_path / "a")]) == 0
    assert main(flags + ["--out", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trajectory.csv", "summary.json")
    )
    verdict(7, "repeated learn runs are byte-identical", same)
