"""Command-line harness.

Subcommands:

* ``gen`` — write a corpus of random zero-sum game files.
* ``learn`` — run no-regret self-play on a game file and write a trajectory
  CSV plus a JSON summary.
* ``check`` — evaluate a (game, joint distribution) pair against the payoff
  consistency and 2ε-Nash bounds; exit 0 iff both hold.
* ``value`` — solve a game exactly and print the value and strategies.

``check`` and ``learn`` give both bounds a slack of 1e-9 of the game's largest
|payoff| (``equilibrium.bound_slack``) and report it as ``tolerance``; it only
absorbs rounding, and nothing on the command line or in the environment sets it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .equilibrium import TwoEpsCheck, analyze, bound_slack, load_joint
from .games import Game, load_game, make_directory, save_game, write_files_atomic
from .learners import Algo, Averaging, self_play, trajectory_csv
from .oracle import exact_value


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, with plain messages."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    for index in range(args.count):
        payoff = rng.uniform(-1.0, 1.0, size=(args.rows, args.cols))
        path = out / f"game_{args.seed}_{index}.txt"
        save_game(Game(payoff), path)
        print(path)
    return 0


def cmd_learn(args) -> int:
    game = load_game(args.game)
    tol = bound_slack(game)
    # Solved before self-play so a game beyond the LP's size limit fails at once.
    oracle = exact_value(game)
    # Made before self-play, the long step, so an unusable --out fails at once.
    out = Path(args.out)
    make_directory(out)
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
    # Gaps and range in units of game.scale, a power of two: the division is
    # exact, so the ratio does not depend on the payoffs' scale and the clamp
    # cannot underflow at a tiny one; a flat game has no gaps.
    scale = game.scale
    spread = game.payoff_range / scale
    nash, cce = final.nash_eps / scale, final.cce_eps / scale
    ratio = nash / max(cce, 1e-15 * spread) if spread else 0.0
    summary = {
        "algo": args.algo,
        "averaging": args.averaging,
        "avg_row_payoff": final.avg_row_payoff,
        "cce_eps": final.cce_eps,
        "game": args.game,
        "holds_2eps": TwoEpsCheck.from_levels(final.cce_eps, final.nash_eps, tol).holds,
        "iters": args.iters,
        "log_every": args.log_every,
        "lp_pivots": oracle.pivots,
        "nash_eps": final.nash_eps,
        "oracle_value": oracle.value,
        "ratio": ratio,
        "seed": args.seed,
        "tolerance": tol,
    }
    csv_text = trajectory_csv(result.trajectory)
    json_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    # One call, so a blocked target or a failed write changes neither report.
    write_files_atomic({out / "trajectory.csv": csv_text, out / "summary.json": json_text})
    print(json_text if args.format == "json" else csv_text, end="")
    return 0


def cmd_check(args) -> int:
    game = load_game(args.game)
    mu = load_joint(args.joint)
    report = analyze(mu, game)
    cce, nash = report.cce, report.nash_of_marginals
    consistency, two_eps = report.value_consistency, report.two_eps

    if args.format == "json":
        fields = asdict(report)
        fields["cce"]["epsilon"] = cce.epsilon
        fields["nash_of_marginals"]["epsilon"] = nash.epsilon
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
            f"{2.0 * two_eps.cce_eps:.17g} + {report.tolerance:.17g})"
        )
    return 0 if consistency.holds and two_eps.holds else 1


def cmd_value(args) -> int:
    game = load_game(args.game)
    solution = exact_value(game)
    if args.format == "json":
        report = {
            "value": solution.value,
            "row_strategy": solution.row_strategy.probs.tolist(),
            "col_strategy": solution.col_strategy.probs.tolist(),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"value = {solution.value:.17g}")
        print("row strategy:", " ".join(f"{p:.17g}" for p in solution.row_strategy.probs))
        print("col strategy:", " ".join(f"{p:.17g}" for p in solution.col_strategy.probs))
    return 0


# Built on the first call and reused for the life of the process; nothing
# mutates it once built.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cce2nash",
        description="Zero-sum game toolkit: no-regret self-play, equilibrium "
        "gap checks, and exact values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random game files")
    gen.add_argument("--rows", type=_int_at_least(1), required=True)
    gen.add_argument("--cols", type=_int_at_least(1), required=True)
    gen.add_argument("--count", type=_int_at_least(1), default=1)
    gen.add_argument("--seed", type=_int_at_least(0), default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    learn = sub.add_parser("learn", help="run no-regret self-play on a game file")
    learn.add_argument("--game", required=True, help="game file")
    learn.add_argument("--algo", choices=[a.value for a in Algo], default="rm")
    learn.add_argument("--iters", type=_int_at_least(1), required=True)
    learn.add_argument("--seed", type=_int_at_least(0), default=0)
    learn.add_argument(
        "--averaging", choices=[a.value for a in Averaging], default="expected"
    )
    learn.add_argument("--log-every", type=_int_at_least(1), default=1000)
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
