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
    "BOUND_TOL", "JOINT_FILE_SUM_TOL", "PROB_SUM_TOL", "Algo", "Averaging",
    "BruteForceGaps", "CheckReport", "Checkpoint", "FormatError", "Game", "GapReport",
    "JointDistribution", "MixedStrategy", "SelfPlayResult", "SimplexLimitExceeded",
    "StrategyProfile", "TwoEpsCheck", "ValueConsistency", "ValueSolution", "analyze",
    "brute_force_gaps", "cce_gap", "exact_value", "expected_joint_utility", "format_game",
    "load_game", "load_joint", "make_zero_sum", "marginal_profile", "nash_gap",
    "parse_game", "parse_joint", "save_game", "save_joint", "self_play",
    "trajectory_csv", "two_eps_check", "value_consistency_check",
}
MODULES = (equilibrium, games, learners, oracle)

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
    assert len(PUBLIC) == 38
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
