"""Run one workload of the cce2nash benchmark and print its metrics.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The report lines name every metric with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  The exit code is
0 when a result was printed and 1 when the benchmark could not run.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_bench():
    """Import the benchmark against the checkout's own ``src/cce2nash``."""
    src = ROOT / "src"
    if not (src / "cce2nash" / "__init__.py").is_file():
        raise ImportError(f"no cce2nash package under {src}")
    sys.path.insert(0, str(src))
    import cce2nash

    if Path(cce2nash.__file__).resolve().parent != (src / "cce2nash").resolve():
        raise ImportError(f"cce2nash imported from {cce2nash.__file__}, not from {src}")
    import bench

    return bench


def format_report(result, machine, spec, trace) -> list[str]:
    report = result["report"]
    lines = [
        "# machine " + json.dumps(machine, sort_keys=True),
        f"# workload={report['workload']} seed={report['seed']} trace={int(trace)} "
        f"passes={report['passes']} ops_per_pass={report['ops_per_pass']} "
        f"measured_s={report['measured_s']:.1f} closed loop, 1 client",
        f"# host: reference loop median {1e3 * report['ref_median_s']:.4f} ms over "
        f"{report['ref_samples']} timings, {1e3 * report['ref_nominal_s']:.4f} ms nominal",
    ]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in result["end_to_end"].items():
        note = ""
        if name == "cmd_tail_ms":
            note = (f"  (p{report['cmd_tail_pct']:.1f} of {report['cmd_samples']} commands, "
                    f"each its median over {report['untraced_passes']} passes)")
        lines.append(f"{name} = {value:.6g} {units[name]}{note}")
    lines.append(f"fail_frac = {report['fail_frac']:.6g} ratio  "
                 f"({report['known_defect_failures']} known-defect failures, "
                 f"{result['failed']} other failures of {result['attempted']} operations; "
                 f"{report['known_defect_passes']} known-defect operations passed)")
    learn_units = {"rounds_per_s": "1/s", "time_to_eps_s": "s", "rounds_to_eps": "count"}
    for name, value in report["learn"].items():
        lines.append(f"{name} = {value:.6g} {learn_units[name]}")
    for name, value in result["layers"].items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines += [f"# FAILED {message}" for message in report["failures"]]
    return lines


def result_line(result, spec, trace) -> str:
    """The closing JSON line: BENCHMARK.json's metrics for this mode."""
    values = result["layers"] if trace else result["end_to_end"]
    kind = "per_layer" if trace else "end_to_end"
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        bench = _import_bench()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 1
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 1

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in format_report(result, bench.machine(), spec, args.trace):
        print(line)
    print(result_line(result, spec, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
