import types

import pytest

import cce2nash

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


@pytest.mark.parametrize("name", DELETED)
def test_test_only_names_are_gone_from_the_package(name):
    assert not hasattr(cce2nash, name)
    with pytest.raises(ImportError):
        exec(f"from cce2nash import {name}", {})
