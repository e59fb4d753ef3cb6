"""Command-line harness.

Subcommands:

* ``gen`` — write a corpus of random zero-sum game files.
* ``learn`` — run no-regret self-play on a game file and write a trajectory
  CSV plus a JSON summary.
* ``check`` — evaluate a (game, joint distribution) pair against the payoff
  consistency and 2ε-Nash bounds; exit 0 iff both hold.
* ``value`` — solve a game exactly and print the value and strategies.

The report tolerance used by ``check`` and ``learn`` defaults to 1e-9 and can
be overridden with the ``CCE2NASH_TOL`` environment variable.  Representation
tolerances (probabilities summing to one, etc.) are fixed and unaffected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .equilibrium import BOUND_TOL, TwoEpsCheck, analyze, load_joint
from .games import format_game, load_game, make_zero_sum, write_text_atomic
from .learners import Algo, Averaging, self_play, trajectory_csv
from .oracle import exact_value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _report_tolerance() -> float:
    """Report tolerance: 1e-9 unless CCE2NASH_TOL says otherwise."""
    raw = os.environ.get("CCE2NASH_TOL")
    if raw is None:
        return BOUND_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"CCE2NASH_TOL must be a number, got {raw!r}") from None
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"CCE2NASH_TOL must be a nonnegative finite number, got {raw!r}")
    return tol


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        payoff = rng.uniform(-1.0, 1.0, size=(args.rows, args.cols))
        path = out / f"game_{args.seed}_{index}.txt"
        write_text_atomic(path, format_game(make_zero_sum(payoff)))
        print(path)
    return 0


def cmd_learn(args) -> int:
    game = load_game(args.game)
    tol = _report_tolerance()
    # Solved before self-play so a game beyond the LP's size limit fails at once.
    oracle = exact_value(game)
    result = self_play(
        game,
        algo=args.algo,
        iters=args.iters,
        seed=args.seed,
        averaging=args.averaging,
        log_every=args.log_every,
    )
    # The final checkpoint always exists and holds the run's closing stats;
    # reusing it keeps the CSV and the JSON summary numerically identical.
    final = result.trajectory[-1]
    summary = {
        "algo": Algo(args.algo).value,
        "averaging": Averaging(args.averaging).value,
        "avg_row_payoff": final.avg_row_payoff,
        "cce_eps": final.cce_eps,
        "game": args.game,
        "holds_2eps": TwoEpsCheck.from_levels(final.cce_eps, final.nash_eps, tol).holds,
        "iters": args.iters,
        "log_every": args.log_every,
        "lp_pivots": oracle.pivots,
        "nash_eps": final.nash_eps,
        "oracle_value": oracle.value,
        "ratio": final.nash_eps / max(final.cce_eps, 1e-15),
        "seed": args.seed,
        "tolerance": tol,
    }
    csv_text = trajectory_csv(result.trajectory)
    json_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out / "trajectory.csv", csv_text)
    write_text_atomic(out / "summary.json", json_text)
    print(json_text if args.format == "json" else csv_text, end="")
    return 0


def cmd_check(args) -> int:
    game = load_game(args.game)
    mu = load_joint(args.joint)
    tol = _report_tolerance()
    report = analyze(mu, game, tol=tol)
    cce, nash = report.cce, report.nash_of_marginals
    consistency, two_eps = report.value_consistency, report.two_eps

    if args.format == "json":
        fields = asdict(report)
        fields["cce"]["epsilon"] = cce.epsilon
        fields["nash_of_marginals"]["epsilon"] = nash.epsilon
        fields["tolerance"] = tol
        print(json.dumps(fields, indent=2, sort_keys=True))
    else:
        print(f"cce_eps = {cce.epsilon:.17g}")
        print(f"nash_eps = {nash.epsilon:.17g}")
        print(
            f"value_consistency: {'holds' if consistency.holds else 'FAILS'} "
            f"(|deviation| {consistency.lhs:.17g} vs bound {consistency.bound:.17g})"
        )
        print(
            f"two_eps: {'holds' if two_eps.holds else 'FAILS'} "
            f"(nash_eps {two_eps.nash_eps:.17g} vs 2*cce_eps "
            f"{2.0 * two_eps.cce_eps:.17g} + {tol:.17g})"
        )
    return 0 if consistency.holds and two_eps.holds else 1


def cmd_value(args) -> int:
    game = load_game(args.game)
    solution = exact_value(game)
    if args.format == "json":
        report = {
            "value": solution.value,
            "row_strategy": [float(p) for p in solution.row_strategy.probs],
            "col_strategy": [float(p) for p in solution.col_strategy.probs],
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"value = {solution.value:.17g}")
        print("row strategy:", " ".join(f"{p:.17g}" for p in solution.row_strategy.probs))
        print("col strategy:", " ".join(f"{p:.17g}" for p in solution.col_strategy.probs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cce2nash",
        description="Zero-sum game toolkit: no-regret self-play, equilibrium "
        "gap checks, and exact values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random game files")
    gen.add_argument("--rows", type=_positive_int, required=True)
    gen.add_argument("--cols", type=_positive_int, required=True)
    gen.add_argument("--count", type=_positive_int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    learn = sub.add_parser("learn", help="run no-regret self-play on a game file")
    learn.add_argument("--game", required=True, help="game file")
    learn.add_argument("--algo", choices=[a.value for a in Algo], default="rm")
    learn.add_argument("--iters", type=_positive_int, required=True)
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument(
        "--averaging", choices=[a.value for a in Averaging], default="expected"
    )
    learn.add_argument("--log-every", type=_positive_int, default=1000)
    learn.add_argument("--out", required=True, help="output directory")
    learn.add_argument(
        "--format",
        choices=["csv", "json"],
        default="csv",
        help="which report to echo to stdout (both files are always written)",
    )
    learn.set_defaults(func=cmd_learn)

    check = sub.add_parser(
        "check", help="check a joint distribution against the equilibrium bounds"
    )
    check.add_argument("--game", required=True, help="game file")
    check.add_argument("--joint", required=True, help="joint distribution file")
    check.add_argument("--format", choices=["text", "json"], default="text")
    check.set_defaults(func=cmd_check)

    value = sub.add_parser("value", help="solve a game exactly")
    value.add_argument("--game", required=True, help="game file")
    value.add_argument("--format", choices=["text", "json"], default="text")
    value.set_defaults(func=cmd_value)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
