"""Smoke test of the benchmark itself, at a tiny size.

    python -m pytest perfbench/test_bench.py
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from cce2nash import cli, equilibrium, games, learners  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload, trace=False):
    return bench.run(workload, seed=3, seconds=0, trace=trace, tiny=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    line = json.loads(run.result_line(result, SPEC, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
    for metric in SPEC[kind]:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])

    report = run.format_report(result, bench.machine(), SPEC, trace)
    for metric in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert any(l.startswith(f"{metric['name']} = ") and l.split()[3] == metric["unit"]
                   for l in report), metric["name"]


def test_check_counts_three_cce_gaps_per_command():
    assert tiny("check", trace=True)["layers"]["equilibrium.cce_gap_per_check"] == 3


def _corrupt_summary(argv, real):
    code = real(argv)
    if argv[0] != "learn":
        return code
    path = Path(argv[argv.index("--out") + 1]) / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["holds_2eps"] = False
    path.write_text(json.dumps(summary), encoding="utf-8")
    return code


def _shift_value(argv, real):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = real(argv)
    if argv[0] != "value":
        print(buffer.getvalue(), end="")
        return code
    report = json.loads(buffer.getvalue())
    report["value"] += 1e-3
    print(json.dumps(report))
    return code


@pytest.mark.parametrize("workload, corrupt", [("learn", _corrupt_summary), ("solve", _shift_value)])
def test_wrong_answer_lowers_pass_frac(monkeypatch, workload, corrupt):
    clean = tiny(workload)["end_to_end"]["pass_frac"]
    real = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: corrupt(argv, real))
    result = tiny(workload)
    assert result["failed"] > 0 and not result["correct"]
    assert result["end_to_end"]["pass_frac"] < clean


def test_tracing_leaves_namespaces_as_found():
    modules = (cli, learners, equilibrium, games)
    before = [dict(vars(m)) for m in modules]
    tiny("check", trace=True)
    assert [dict(vars(m)) for m in modules] == before
