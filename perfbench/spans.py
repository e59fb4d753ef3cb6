"""Layer-boundary spans for the traced benchmark run.

The tracer rebinds, inside the ``cce2nash`` module namespaces, the names that
one layer calls in another (plus the gap functions and ``games.parse_matrix``
that the same module calls internally) to thin recorders.  Each recorder
appends one span: name, start, end, parent span, operation id and a small
per-call note.  Nothing inside the program changes; ``uninstall`` puts the
original objects back, and untraced runs never call ``install``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

from cce2nash import cli, equilibrium, games, learners, oracle

# Modules whose globals get rebound.  A name is rebound in a module only
# where it is the very function listed below, so nothing else is shadowed.
SITES = (cli, learners, equilibrium, games)


def _text_len(args, kwargs, result):
    return len(args[0] if args else kwargs["text"])


def _write_len(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["text"])


def _play_note(args, kwargs, result):
    game = args[0] if args else kwargs["game"]
    iters = kwargs["iters"] if "iters" in kwargs else args[2]
    return {"dim": list(game.shape), "iters": int(iters)}


def _solve_note(args, kwargs, result):
    game = args[0] if args else kwargs["game"]
    # Kept as objects; the residual is computed after the run, outside spans.
    return (game, result)


# (defining module, function name, note maker or None)
TARGETS = (
    (games, "parse_matrix", _text_len),
    (games, "format_game", None),
    (games, "load_game", None),
    (games, "write_text_atomic", _write_len),
    (equilibrium, "load_joint", None),
    (equilibrium, "cce_gap", None),
    (equilibrium, "nash_gap", None),
    (equilibrium, "marginal_profile", None),
    (equilibrium, "expected_joint_utility", None),
    (equilibrium, "value_consistency_check", None),
    (equilibrium, "two_eps_check", None),
    (learners, "self_play", _play_note),
    (learners, "trajectory_csv", None),
    (oracle, "exact_value", _solve_note),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, note]``; ``parent`` is the
    index of the enclosing span or ``None`` and ``op`` the operation id given
    to :meth:`op_span`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    def _open(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def op_span(self, name, op, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op = op
        index = self._open(name, op)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            index = self._open(name, self._op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, name, note in TARGETS:
            original = getattr(module, name)
            wrapper = self.wrap(f"{_layer(module)}.{name}", original, note)
            for site in SITES:
                if site.__dict__.get(name) is original:
                    self._saved.append((site, name, original))
                    setattr(site, name, wrapper)

    def uninstall(self):
        while self._saved:
            site, name, original = self._saved.pop()
            setattr(site, name, original)

    def dump(self, path):
        """Write the spans as JSON lines (LP solutions reduced to residuals)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, note in self.spans:
                if isinstance(note, tuple):
                    note = {"residual": residual(*note)}
                fh.write(json.dumps([name, start, end, parent, op, note]) + "\n")


def profile_gap(payoff, x, y) -> tuple[float, float]:
    """Nash gap of the profile ``(x, y)`` and its value ``x'Ay``."""
    v = float(x @ payoff @ y)
    return max(float((payoff @ y).max()) - v, v - float((x @ payoff).min())), v


def residual(game, solution) -> float:
    """Exploitability of an LP profile relative to the payoff range."""
    a = game.payoff
    gap, _ = profile_gap(a, solution.row_strategy.probs, solution.col_strategy.probs)
    return max(gap, 0.0) / (float(a.max() - a.min()) or 1.0)


def _dim_key(dim) -> str:
    return f"{dim[0]}x{dim[1]}"


ROUND_DIMS = ("2x2", "10x10", "50x50", "200x200")
SOLVE_DIMS = ("50x50", "100x100", "200x200")


def pass_metrics(spans: dict) -> dict:
    """Per-layer figures for the spans of one traced pass, keyed by index."""
    child_time = defaultdict(float)
    for span in spans.values():
        if span[3] in spans:
            child_time[span[3]] += span[2] - span[1]

    def self_time(index):
        span = spans[index]
        return span[2] - span[1] - child_time[index]

    by_name = defaultdict(list)
    for index, span in spans.items():
        by_name[span[0]].append(index)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name[name])

    commands = [i for i, s in spans.items() if s[0].startswith("cli.")]
    parse_s = total("games.parse_matrix")
    parse_bytes = sum(spans[i][5] or 0 for i in by_name["games.parse_matrix"])
    write_s = total("games.write_text_atomic")
    write_bytes = sum(spans[i][5] or 0 for i in by_name["games.write_text_atomic"])

    plays = by_name["learners.self_play"]
    play_set = set(plays)
    gap_names = ("equilibrium.cce_gap", "equilibrium.nash_gap")
    under_play = [i for i, s in spans.items() if s[3] in play_set]
    checkpoints = sum(1 for i in under_play if spans[i][0] == "equilibrium.cce_gap")
    rounds = defaultdict(int)
    play_self = defaultdict(float)
    for i in plays:
        note = spans[i][5]
        if note is None:
            continue
        rounds[_dim_key(note["dim"])] += note["iters"]
        play_self[_dim_key(note["dim"])] += self_time(i)

    # Per check command that reached its gaps (malformed input exits before).
    check_ops = {spans[i][4] for i in commands if spans[i][0] == "cli.check"}
    cce_per_check = Counter(
        spans[i][4] for i in by_name["equilibrium.cce_gap"] if spans[i][4] in check_ops
    )

    solves = by_name["oracle.exact_value"]
    solve_ms = defaultdict(list)
    for i in solves:
        note = spans[i][5]
        if note is not None:
            solve_ms[_dim_key(note[0].shape)].append(1e3 * (spans[i][2] - spans[i][1]))

    out = {
        "cli.commands": len(commands),
        "cli.self_ms_per_cmd": 1e3 * sum(self_time(i) for i in commands) / max(len(commands), 1),
        "games.parse_calls": len(by_name["games.parse_matrix"]),
        "games.parse_s": parse_s,
        "games.parse_MB_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "games.write_calls": len(by_name["games.write_text_atomic"]),
        "games.write_s": write_s,
        "games.write_MB_per_s": write_bytes / 1e6 / write_s if write_s else 0.0,
        "games.format_s": total("games.format_game"),
        "equilibrium.cce_gap_calls": len(by_name["equilibrium.cce_gap"]),
        "equilibrium.nash_gap_calls": len(by_name["equilibrium.nash_gap"]),
        "equilibrium.gap_s": sum(total(n) for n in gap_names),
        "equilibrium.cce_gap_per_check": (
            statistics.fmean(cce_per_check.values()) if cce_per_check else 0.0
        ),
        "equilibrium.checkpoint_us": (
            1e6 * sum(spans[i][2] - spans[i][1] for i in under_play
                      if spans[i][0].startswith("equilibrium.")) / checkpoints
            if checkpoints else 0.0
        ),
        "learners.rounds": sum(rounds.values()),
        "learners.checkpoints": checkpoints,
        "learners.self_s": sum(self_time(i) for i in plays),
        "learners.csv_s": total("learners.trajectory_csv"),
        "oracle.solves": len(solves),
        "oracle.solve_s": total("oracle.exact_value"),
    }
    for dim in ROUND_DIMS:
        out[f"learners.round_us.{dim}"] = (
            1e6 * play_self[dim] / rounds[dim] if rounds[dim] else 0.0
        )
    for dim in SOLVE_DIMS:
        out[f"oracle.solve_ms.{dim}"] = (
            statistics.fmean(solve_ms[dim]) if solve_ms[dim] else 0.0
        )
    return out


def residual_max(spans) -> float:
    values = [
        residual(*s[5]) for s in spans
        if s[0] == "oracle.exact_value" and isinstance(s[5], tuple)
    ]
    return max(values, default=0.0)


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}

