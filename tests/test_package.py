import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cce2nash
from cce2nash import (
    JointDistribution, MixedStrategy, SelfPlayResult, equilibrium, games, learners, oracle,
)

# The package's public names, one module each.
PUBLIC = {
    "BOUND_TOL", "PROB_SUM_TOL", "Algo", "Averaging", "CheckReport", "Checkpoint",
    "FormatError", "Game", "GapReport", "JointDistribution", "MixedStrategy",
    "SelfPlayResult", "SimplexLimitExceeded", "StrategyProfile", "TwoEpsCheck",
    "ValueConsistency", "ValueSolution", "analyze", "cce_gap", "exact_value",
    "expected_joint_utility", "format_game", "load_game", "load_joint", "marginal_profile",
    "nash_gap", "parse_game", "parse_joint", "save_game", "save_joint", "self_play",
    "trajectory_csv",
}
MODULES = (equilibrium, games, learners, oracle)

# Names the package does not export but its modules keep: perfbench/ imports
# or traces the first five by name, and parse_joint reads the file tolerance.
UNEXPORTED = [
    (games, "make_zero_sum"),
    (oracle, "brute_force_gaps"),
    (oracle, "BruteForceGaps"),
    (equilibrium, "value_consistency_check"),
    (equilibrium, "two_eps_check"),
    (equilibrium, "JOINT_FILE_SUM_TOL"),
]

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DELETED = [
    "pure_vs_mixed",
    "best_response",
    "BestResponse",
    "from_constant_sum",
    "pure_utility",
    "format_joint",
    "LearnerState",
    "next_strategy",
    "observe",
    "deviation_value",
    "Player",
    "marginal",
    "expected_utility",
]

# Second routes to values that one constructor or function already builds:
# ``MixedStrategy(np.full(n, 1.0 / n))``, ``MixedStrategy(np.eye(n)[i])``,
# ``JointDistribution(np.outer(x.probs, y.probs))`` and
# ``marginal_profile(result.empirical_joint)``.
DELETED_MEMBERS = [
    (MixedStrategy, "uniform"),
    (MixedStrategy, "point_mass"),
    (JointDistribution, "product"),
    (JointDistribution, "point_mass"),
    (SelfPlayResult, "avg_profile"),
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    bound = {
        name
        for name, value in vars(cce2nash).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(cce2nash.__all__) == len(set(cce2nash.__all__))
    assert set(cce2nash.__all__) == bound
    for name in cce2nash.__all__:
        assert getattr(cce2nash, name) is not None


def test_each_public_name_is_declared_by_exactly_one_module_and_bound_to_its_object():
    assert len(PUBLIC) == 32
    assert sorted(cce2nash.__all__) == sorted(PUBLIC)
    for name in cce2nash.__all__:
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(cce2nash, name) is getattr(owners[0], name)
    assert sum(len(module.__all__) for module in MODULES) == len(PUBLIC)


def test_importing_the_package_does_not_import_the_command_line():
    src = Path(cce2nash.__file__).resolve().parent.parent
    code = "import sys, cce2nash; assert 'cce2nash.cli' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_the_piece_table_is_built_by_the_first_matrix_written_with_digit_pieces(tmp_path):
    # A fresh process that imports the package and solves a game writes no
    # matrix and builds no table; its first 20x20 joint builds it, once.
    src = Path(cce2nash.__file__).resolve().parent.parent
    game = tmp_path / "game.txt"
    game.write_text("20 20\n" + "".join(
        " ".join(str((r * 7 + c * 3) % 11 - 5) for c in range(20)) + "\n" for r in range(20)))
    code = f"""
import numpy as np
import cce2nash
from cce2nash import JointDistribution, games, save_joint
from cce2nash.cli import main

assert games._digit_table.cache_info().currsize == 0
assert main(["value", "--game", {str(game)!r}]) == 0
assert games._digit_table.cache_info().currsize == 0
mu = JointDistribution(np.random.default_rng(3).dirichlet(np.ones(400)).reshape(20, 20))
for name in ("a.txt", "b.txt"):
    save_joint(mu, {str(tmp_path)!r} + "/" + name)
info = games._digit_table.cache_info()
assert (info.misses, info.hits, info.currsize) == (1, 1, 1), info
"""
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("name", DELETED)
def test_test_only_names_are_gone_from_the_package(name):
    assert not hasattr(cce2nash, name)
    with pytest.raises(ImportError):
        exec(f"from cce2nash import {name}", {})


@pytest.mark.parametrize(
    "owner, name", DELETED_MEMBERS,
    ids=[f"{owner.__name__}.{name}" for owner, name in DELETED_MEMBERS],
)
def test_test_only_members_are_gone_from_the_package(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "module, name", UNEXPORTED, ids=[f"{module.__name__}.{name}" for module, name in UNEXPORTED],
)
def test_unexported_names_stay_in_their_module_only(module, name):
    assert name not in module.__all__
    assert getattr(module, name) is not None
    assert not hasattr(cce2nash, name)
    with pytest.raises(ImportError):
        exec(f"from cce2nash import {name}", {})


def test_make_zero_sum_is_game_and_the_views_are_fields_of_analyze():
    assert games.make_zero_sum is games.Game
    game = games.Game([[1.0, -1.0], [-1.0, 1.0]])
    mu = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    report = equilibrium.analyze(mu, game)
    assert equilibrium.two_eps_check(mu, game) == report.two_eps
    assert equilibrium.value_consistency_check(mu, game) == report.value_consistency


def _perfbench_names():
    """``(module, name)`` for each ``from cce2nash... import name`` in
    perfbench/bench.py and spans.py and each entry of spans.py's TARGETS,
    read from the source so that nothing in perfbench/ is imported."""
    found = []
    for script in ("bench.py", "spans.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cce2nash":
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
            ):
                found += [(f"cce2nash.{entry.elts[0].id}", entry.elts[1].value)
                          for entry in node.value.elts]
    return found


def test_perfbench_finds_every_name_it_imports_or_traces():
    names = _perfbench_names()
    assert ("cce2nash.games", "make_zero_sum") in names
    assert ("cce2nash.equilibrium", "two_eps_check") in names
    for module, name in names:
        # Raises ImportError for a name its module lacks.
        exec(f"from {module} import {name}", {})
