"""Workloads, verification and metrics of the cce2nash benchmark.

Every workload drives the public entry points in-process, through
``cce2nash.cli.main(argv)`` and the library, as a closed loop with one
client: the next operation starts only when the previous one returned.  A
run sets up its inputs from the seed, then repeats the workload's fixed
batch of operations (a *pass*) until the measuring window has elapsed, and
verifies every operation without stopping on a failure.  See README.md in
this directory for the metrics and the reasons behind each workload.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cce2nash import cli
from cce2nash.equilibrium import JointDistribution, save_joint
from cce2nash.games import make_zero_sum, save_game
from cce2nash.oracle import brute_force_gaps

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

SETUP_REPEATS = 5
TTE_EPS = 1e-3
TTE_LOG_EVERY = 100
TTE_DOUBLINGS = 4  # a scan horizon is doubled at most this often
LP_TOL = 1e-7
GAP_TOL = 1e-9
ALGO_AVERAGING = [(a, v) for a in ("rm", "rmplus", "mw") for v in ("expected", "sampled")]


@dataclass
class Op:
    """One operation: a CLI command, or a library write when ``argv`` is None.

    ``verify(code, stdout, stderr)`` returns None when the output is right and
    a reason otherwise.  ``known_defect`` names the defect that is expected to
    make this operation fail verification at the baseline.
    """

    label: str
    argv: list | None
    verify: Callable | None
    known_defect: str | None = None
    write: Callable | None = None
    timed: bool = True  # False: run in the first pass and traced passes only,
    # and left out of the timing figures


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_ok(argv):
    code, _, err = call_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv} failed with exit {code}: {err}")


class Runner:
    """Executes operations, times them and tallies the verification results."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.passed = 0
        self.failed = 0
        self.known_failed = 0
        self.known_passed = 0
        self.messages: list[str] = []
        self.op_ok: dict[int, bool] = {}  # per distinct operation: passed every time

    def fail(self, label: str, reason: str):
        """Record an operation that could not run at all as failed."""
        self.attempted += 1
        self.failed += 1
        self.op_ok[label] = False
        self.messages.append(f"{label}: {reason}")

    def pass_frac(self) -> float:
        """Share of the distinct operations that passed every attempt."""
        return sum(self.op_ok.values()) / len(self.op_ok)

    def execute(self, op: Op):
        op_id = self.attempted
        if op.argv is None:
            name, fn, args = "bench.save_joint", op.write, ()
        else:
            name, fn, args = f"cli.{op.argv[0]}", call_cli, (op.argv,)
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.op_span(name, op_id, fn, *args)
            else:
                result = fn(*args)
            latency = time.perf_counter() - start
            reason = op.verify(*result) if op.argv is not None else None
        except Exception:
            # A crash counts as a failed operation; the run goes on.
            latency = time.perf_counter() - start
            reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
        self.attempted += 1
        self.op_ok[id(op)] = self.op_ok.get(id(op), True) and reason is None
        if reason is None:
            self.passed += 1
            if op.known_defect:
                self.known_passed += 1
        elif op.known_defect:
            self.known_failed += 1
        else:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op.label}: {reason}")
        return latency, reason


# ---------------------------------------------------------------------------
# learn


def _read_summary(out_dir):
    return json.loads((Path(out_dir) / "summary.json").read_text(encoding="utf-8"))


def _verify_learn(out_dir, iters):
    def verify(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        summary = _read_summary(out_dir)
        if summary["iters"] != iters:
            return f"summary says iters={summary['iters']}, asked for {iters}"
        if summary["holds_2eps"] is not True:
            return "holds_2eps is not true"
        return None

    return verify


def _learn_argv(game, algo, averaging, iters, seed, log_every, out_dir):
    return [
        "learn", "--game", str(game), "--algo", algo, "--iters", str(iters),
        "--seed", str(seed), "--averaging", averaging, "--log-every", str(log_every),
        "--out", str(out_dir), "--format", "json",
    ]


# ---------------------------------------------------------------------------
# reference loops: the benchmark's own code, timed around every operation
# (see Host)

_REF_MATRIX = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, 20))
_REF_TABLEAU = np.random.default_rng(1).uniform(0.5, 1.5, size=(101, 201))


def interpreter_loop() -> float:
    """Seconds for the kind of work self-play and the CLI do: small
    matrix-vector products and interpreter arithmetic."""
    start = time.perf_counter()
    x, total = np.zeros(20), 0.0
    for _ in range(50):
        g = _REF_MATRIX @ (x + 1.0)
        x = np.maximum(x + g - g.mean(), 0.0)
        total += float(x.sum())
    return time.perf_counter() - start


def tableau_loop() -> float:
    """Seconds for the kind of work the dense simplex does: pivots, that is
    rank-1 updates, on a 101x201 tableau."""
    start = time.perf_counter()
    tableau = _REF_TABLEAU.copy()
    for i in range(8):
        tableau[i, :] /= tableau[i, i]
        column = tableau[:, i].copy()
        column[i] = 0.0
        tableau -= np.outer(column, tableau[i, :])
    return time.perf_counter() - start


class Workload:
    """A workload builds its operations in ``setup``; ``prelude`` runs once
    before the passes and ``extra`` adds workload-only figures.

    Its times are taken against ``reference_loop``, which should slow down
    with the host as its operations do, and reported in units of that loop
    times ``ref_nominal_s``: about the loop's time between operations on an
    idle vCPU of the 2-vCPU Xeon the figures were taken on.
    """

    reference_loop = staticmethod(interpreter_loop)
    ref_nominal_s = 4.5e-4

    def prelude(self, runner) -> dict:
        return {}

    def extra(self, op_time) -> dict:
        return {}


class Learn(Workload):
    """Self-play at fixed horizons on ``gen``-made games, plus time-to-ε."""

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        if tiny:
            self.fixed = ((2, 50), (3, 50), (4, 50))
            self.big = (5, 50)
            self.tte = ((2, 2000), (3, 2000))
        else:
            # (dim, iters): every algo x averaging pair runs on two games of
            # each size, so the per-command statistics rest on 36 commands.
            # The horizons order the sizes: 50x50 commands are the fastest,
            # because their LP time varies from game to game; the median
            # command falls among the 2x2 ones and the tail command (ten
            # beyond it) among the 10x10 ones, whose cost does not depend on
            # the game.
            self.fixed = ((50, 50), (2, 400), (10, 800))
            # One rm/expected command on a 200x200 game.  Its oracle_value
            # solve alone takes ~1.5 s, and one operation that long swings by
            # 20% from run to run on a shared host, so it is verified and
            # traced but left out of the timed figures.
            self.big = (200, 200)
            # RM+ time-to-eps games and first scan horizon (doubled until hit).
            self.tte = ((10, 30000), (50, 15000))

    def _game(self, dim, index=0):
        return self.work / "games" / f"game_{self.seed * 1000 + dim}_{index}.txt"

    def setup(self):
        for dim, count in [(d, 2) for d, _ in self.fixed] + [(self.big[0], 1)]:
            _cli_ok(["gen", "--rows", str(dim), "--cols", str(dim), "--count", str(count),
                     "--seed", str(self.seed * 1000 + dim), "--out", str(self.work / "games")])
        self.ops = []
        self.iters = []
        sampled_seed = self.seed % 1000
        jobs = [(d, i, a, v, it) for d, it in self.fixed for i in (0, 1) for a, v in ALGO_AVERAGING]
        dim, it = self.big
        jobs.append((dim, 0, "rm", "expected", it))
        for k, (dim, index, algo, averaging, iters) in enumerate(jobs):
            game = self._game(dim, index)
            out_dir = self.work / "runs" / str(k)
            self.ops.append(Op(
                label=f"learn {dim}x{dim} {algo}/{averaging} T={iters}",
                argv=_learn_argv(game, algo, averaging, iters, sampled_seed, 1000, out_dir),
                verify=_verify_learn(out_dir, iters),
                timed=dim != self.big[0],
            ))
            self.iters.append(iters)
        return self.ops

    def prelude(self, runner: Runner) -> dict:
        """Time-to-ε: scan RM+ with a checkpoint every 100 rounds until
        ``cce_eps <= 1e-3``, then replay exactly that many rounds."""
        seconds, rounds = [], []
        for dim, horizon in self.tte:
            game = self._game(dim)
            out_dir = self.work / "runs" / f"tte{dim}"
            hit = None
            for _ in range(TTE_DOUBLINGS + 1):
                scan = Op(f"learn scan {game.name} rmplus T={horizon}",
                          _learn_argv(game, "rmplus", "expected", horizon, 0, TTE_LOG_EVERY, out_dir),
                          _verify_learn(out_dir, horizon))
                _, reason = runner.execute(scan)
                if reason is None:
                    hit = _first_below(out_dir / "trajectory.csv", TTE_EPS)
                if hit is not None or reason is not None:
                    break
                horizon *= 2
            if hit is None:
                runner.fail(f"learn scan {game.name}", f"rmplus did not reach cce_eps <= {TTE_EPS}")
                continue
            t, eps = hit
            replay = Op(f"learn replay {game.name} rmplus T={t}",
                        _learn_argv(game, "rmplus", "expected", t, 0, TTE_LOG_EVERY, out_dir),
                        _verify_replay(out_dir, t, eps))
            seconds.append(runner.execute(replay)[0])
            rounds.append(t)
        return {
            "time_to_eps_s": statistics.median(seconds) if seconds else 0.0,
            "rounds_to_eps": statistics.median(rounds) if rounds else 0,
        }

    def extra(self, op_time) -> dict:
        timed = [(iters, b) for iters, b, op in zip(self.iters, op_time, self.ops) if op.timed]
        return {"rounds_per_s": sum(i for i, _ in timed) / sum(b for _, b in timed)}


def _first_below(csv_path, eps):
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        t, cce_eps, _, _ = line.split(",")
        if float(cce_eps) <= eps:
            return int(t), float(cce_eps)
    return None


def _verify_replay(out_dir, t, scan_eps):
    base = _verify_learn(out_dir, t)

    def verify(code, out, err):
        reason = base(code, out, err)
        if reason is not None:
            return reason
        eps = _read_summary(out_dir)["cce_eps"]
        if not eps <= TTE_EPS:
            return f"final cce_eps {eps!r} above {TTE_EPS}"
        if eps != scan_eps:
            return f"final cce_eps {eps!r} differs from the scan's {scan_eps!r} at t={t}"
        return None

    return verify


# ---------------------------------------------------------------------------
# solve


def _family(kind, dim, rng):
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=(dim, dim))
    if kind == "ties":
        return rng.integers(-1, 2, size=(dim, dim)).astype(float)
    # Degenerate: every row and column copies one of dim/2 base strategies.
    half = max(dim // 2, 1)
    base = rng.uniform(-1.0, 1.0, size=(half, half))
    return base[rng.integers(0, half, dim)][:, rng.integers(0, half, dim)]


def _verify_value(payoff):
    def verify(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        report = json.loads(out)
        x = np.asarray(report["row_strategy"], dtype=float)
        y = np.asarray(report["col_strategy"], dtype=float)
        if x.shape != (payoff.shape[0],) or y.shape != (payoff.shape[1],):
            return "strategy length does not match the game"
        for probs in (x, y):
            if (probs < 0).any() or abs(probs.sum() - 1.0) > GAP_TOL:
                return "strategy is not a probability vector"
        tol = LP_TOL * (float(payoff.max() - payoff.min()) or 1.0)
        gap, v = spans.profile_gap(payoff, x, y)
        if gap > tol:
            return f"nash_gap {gap:.3g} above {tol:.3g}"
        if abs(report["value"] - v) > tol:
            return f"|value - x'Ay| = {abs(report['value'] - v):.3g} above {tol:.3g}"
        return None

    return verify


class Solve(Workload):
    """``cce2nash value`` on random, tie-heavy and degenerate games."""

    SCALE_DEFECT = "LP not scale invariant (shift = 1 - min A, absolute tolerances)"
    # The LP slows down less than interpreter-bound code on a busy vCPU.
    reference_loop = staticmethod(tableau_loop)
    ref_nominal_s = 2.5e-4

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        # (family, dim, games, payoff scale).  LP time varies from game to
        # game, so the cheap sizes have many games: the median command falls
        # among the 50x50 ones and the tail among the uniform and tie-heavy
        # 100x100 ones.  At 200x200 only a degenerate game is solved: a
        # uniform or tie-heavy one takes 1.5 to 2.4 s, and one operation
        # that long swings by 20% from run to run on a shared host.  The
        # rescaled uniform games fail verification at the baseline; they are
        # left out of the timed figures, because on some seeds the simplex
        # runs into its pivot limit on them and takes over a second.
        families = ("uniform", "ties", "dup")
        if tiny:
            plan = [(k, d, 1, 1.0) for d in (4, 6) for k in families] + [("dup", 8, 1, 1.0)]
            plan += [("uniform", 6, 1, 1e8), ("uniform", 8, 1, 1e8), ("uniform", 8, 1, 1e-8)]
        else:
            plan = [("uniform", 50, 24, 1.0), ("ties", 50, 24, 1.0), ("dup", 50, 8, 1.0)]
            plan += [("uniform", 100, 12, 1.0), ("ties", 100, 12, 1.0), ("dup", 100, 4, 1.0)]
            plan += [("dup", 200, 1, 1.0)]
            plan += [("uniform", 50, 1, 1e8), ("uniform", 100, 1, 1e8), ("uniform", 100, 1, 1e-8)]
        self.jobs = [(k, d, scale) for k, d, n, scale in plan for _ in range(n)]

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.ops = []
        for i, (kind, dim, scale) in enumerate(self.jobs):
            payoff = _family(kind, dim, rng) * scale
            path = self.work / "games" / f"{kind}_{dim}_{i}.txt"
            save_game(make_zero_sum(payoff), path)
            self.ops.append(Op(
                label=f"value {path.name} scale={scale:g}",
                argv=["value", "--game", str(path), "--format", "json"],
                verify=_verify_value(payoff),
                known_defect=self.SCALE_DEFECT if scale != 1.0 else None,
                timed=scale == 1.0,
            ))
        return self.ops

# ---------------------------------------------------------------------------
# check


def _joint_mass(kind, rows, cols, rng):
    if kind == "dense":
        return rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
    if kind == "product":
        return np.outer(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)))
    # Sparse: one to three cells, a point mass when one.
    mass = np.zeros(rows * cols)
    cells = rng.choice(rows * cols, size=int(rng.integers(1, 4)), replace=False)
    mass[cells] = rng.dirichlet(np.ones(cells.size))
    return mass.reshape(rows, cols)


def _verify_gen(path, payoff):
    def verify(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if out.strip() != str(path):
            return f"gen printed {out.strip()!r}, expected {str(path)!r}"
        written = np.loadtxt(path, skiprows=1, ndmin=2)
        if not np.array_equal(written, payoff):
            return "gen wrote different payoffs than its seed gives"
        return None

    return verify


def _verify_check(payoff, mass):
    def verify(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        report = json.loads(out)
        if report["two_eps"]["holds"] is not True or report["value_consistency"]["holds"] is not True:
            return "a bound is reported as failing"
        if max(payoff.shape) <= 50:
            brute = brute_force_gaps(JointDistribution(mass), make_zero_sum(payoff))
            pairs = [
                (report["cce"]["row_gain"], brute.cce.row_gain),
                (report["cce"]["col_gain"], brute.cce.col_gain),
                (report["nash_of_marginals"]["row_gain"], brute.nash_of_marginals.row_gain),
                (report["nash_of_marginals"]["col_gain"], brute.nash_of_marginals.col_gain),
            ]
            worst = max(abs(a - b) for a, b in pairs)
            if worst > GAP_TOL:
                return f"gaps differ from brute force by {worst:.3g}"
        return None

    return verify


def _verify_rejected(needles):
    def verify(code, out, err):
        if code != 2:
            return f"exit {code}, expected 2"
        missing = [n for n in needles if n not in err]
        if missing:
            return f"message {err.strip()!r} lacks {missing}"
        return None

    return verify


def _rows_text(matrix):
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in matrix)


class Check(Workload):
    """``gen`` + ``save_joint`` + ``check --format json`` on (game, joint) pairs."""

    NAN_DEFECT = "a nan entry is rejected without its line number"

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        # Small pairs like the acceptance sweep, and a few large ones.  The
        # small shapes are a fixed spread over 2..max_small in each dimension,
        # so the per-command figures do not depend on shapes the seed drew.
        self.small, self.max_small = (6, 5) if tiny else (40, 20)
        # Six large pairs give twelve large commands, so the tail percentile
        # (ten commands beyond it) falls among them.
        self.large = (12,) * 2 if tiny else (200,) * 6

    def _malformed(self, rng):
        """(name, game text, joint text, message parts, known defect)."""
        g3 = _rows_text(rng.uniform(-1, 1, (3, 3))).splitlines()
        j3 = _rows_text(np.full((3, 3), 1 / 9)).splitlines()
        good_game = "3 3\n" + "\n".join(g3) + "\n"
        good_joint = "3 3\n" + "\n".join(j3) + "\n"

        def first_value(lines, row, token):
            lines = list(lines)
            lines[row] = token + " " + lines[row].split(" ", 1)[1]
            return "3 3\n" + "\n".join(lines) + "\n"

        nan_game = first_value(g3, 0, "nan")  # file line 2
        bad_token = first_value(j3, 1, "x")  # file line 3
        nan_joint = first_value(j3, 1, "nan")  # file line 3
        light = "3 3\n" + _rows_text(np.full((3, 3), 0.1)) + "\n"
        truncated = "5 4\n" + _rows_text(rng.uniform(-1, 1, (3, 4))) + "\n"
        joint54 = "5 4\n" + _rows_text(np.full((5, 4), 0.05)) + "\n"
        game34 = "3 4\n" + _rows_text(rng.uniform(-1, 1, (3, 4))) + "\n"
        joint43 = "4 3\n" + _rows_text(np.full((4, 3), 1 / 12)) + "\n"
        return [
            ("truncated", truncated, joint54, ["line 4"], None),
            ("bad_token", good_game, bad_token, ["line 3"], None),
            ("nan_game", nan_game, good_joint, ["line 2"], self.NAN_DEFECT),
            ("nan_joint", good_game, nan_joint, ["line 3"], self.NAN_DEFECT),
            ("wrong_mass", good_game, light, ["sums to"], None),
            ("shape", game34, joint43, ["3x4", "4x3"], None),
        ]

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        span = self.max_small - 1
        shapes = [(2 + 7 * i % span, 2 + 11 * i % span) for i in range(self.small)]
        shapes += [(d, d) for d in self.large]
        kinds = ("dense", "sparse", "product")
        games_dir = self.work / "games"
        self.ops = []
        for i, (rows, cols) in enumerate(shapes):
            game_seed = self.seed * 1000 + i
            payoff = np.random.default_rng(game_seed).uniform(-1.0, 1.0, size=(rows, cols))
            kind = kinds[i % len(kinds)]
            mass = _joint_mass(kind, rows, cols, rng)
            game = games_dir / f"game_{game_seed}_0.txt"
            joint = self.work / "joints" / f"joint_{i}.txt"
            self.ops.append(Op(
                f"gen {rows}x{cols}",
                ["gen", "--rows", str(rows), "--cols", str(cols), "--count", "1",
                 "--seed", str(game_seed), "--out", str(games_dir)],
                _verify_gen(game, payoff),
            ))
            self.ops.append(Op(
                f"save_joint {kind} {rows}x{cols}", None, None,
                write=lambda mass=mass, joint=joint: save_joint(JointDistribution(mass), joint),
            ))
            self.ops.append(Op(
                f"check {kind} {rows}x{cols}",
                ["check", "--game", str(game), "--joint", str(joint), "--format", "json"],
                _verify_check(payoff, mass),
            ))
        bad = self.work / "malformed"
        bad.mkdir(parents=True, exist_ok=True)
        for name, game_text, joint_text, needles, defect in self._malformed(rng):
            (bad / f"{name}_game.txt").write_text(game_text, encoding="utf-8")
            (bad / f"{name}_joint.txt").write_text(joint_text, encoding="utf-8")
            self.ops.append(Op(
                f"check malformed {name}",
                ["check", "--game", str(bad / f"{name}_game.txt"),
                 "--joint", str(bad / f"{name}_joint.txt"), "--format", "json"],
                _verify_rejected(needles),
                known_defect=defect,
            ))
        return self.ops

WORKLOADS = {"learn": Learn, "solve": Solve, "check": Check}

# ---------------------------------------------------------------------------
# run

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import cce2nash; "
    "print(repr(time.perf_counter()))"
)


def import_seconds() -> float:
    """Seconds from starting a fresh interpreter to ``import cce2nash`` done."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout) - start


class Host:
    """Times work against a reference loop, on the vCPU found fastest.

    Each vCPU of the shared host flips between a fast state and one in which
    the same code takes up to 2x as long, independently of the other and as
    often as every few tenths of a second; in busy hours the slow state holds
    most of the time.  ``start`` runs the reference loop on every vCPU the
    process may use and pins the process to the fastest; ``stop`` runs it
    again there.  Work timed between the two is expressed in units of the
    mean of the two reference times, which slow down with the host.
    """

    def __init__(self, loop):
        self.loop = loop
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # no affinity control: run unpinned
            self.cpus = []
        self.refs: list[float] = []  # the mean reference time of each bracket
        self._before = math.nan

    def _pin(self, cpus):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, cpus)

    def start(self):
        best_time, best_cpu = math.inf, None
        for cpu in self.cpus if len(self.cpus) > 1 else [None]:
            if cpu is not None:
                self._pin({cpu})
            t = self.loop()
            if t < best_time:
                best_time, best_cpu = t, cpu
        if best_cpu is not None:
            self._pin({best_cpu})
        self._before = best_time

    def stop(self, seconds: float) -> float:
        """``seconds`` of work done since ``start``, in reference-loop units."""
        ref = (self._before + self.loop()) / 2
        self.refs.append(ref)
        return seconds / ref

    def release(self):
        self._pin(set(self.cpus))


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object and a printable report."""
    seed %= 2**31  # gen and numpy take nonnegative seeds
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = WORKLOADS[workload](work, seed, tiny)

    # The host is shared and its vCPUs are often in a slow state (see Host).
    # Set-up and every operation run on the vCPU found fastest and are timed
    # in reference-loop units; an operation's latency is the median over the
    # passes, and the statistics below are taken across operations.
    host = Host(bench.reference_loop)
    try:
        return _measure(bench, host, workload, seed, seconds, trace)
    finally:
        host.release()


def _measure(bench, host, workload, seed, seconds, trace) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        host.start()
        imported = import_seconds()
        start = time.perf_counter()
        ops = bench.setup()
        setups.append(host.stop(imported + time.perf_counter() - start))

    runner = Runner()
    window = time.perf_counter()
    extra = bench.prelude(runner)

    tracer = spans.Tracer() if trace else None
    samples = {False: [[] for _ in ops], True: [[] for _ in ops]}
    per_pass_layers = []
    min_passes = 4 if trace else 3
    passes, last = 0, 0.0
    while passes < min_passes or time.perf_counter() - window + last <= seconds:
        started = time.perf_counter()
        traced = trace and passes % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
            runner.tracer = tracer
        for i, op in enumerate(ops):
            if op.timed or traced or passes == 0:
                host.start()
                latency, _ = runner.execute(op)
                units = host.stop(latency)
                if op.timed:
                    samples[traced][i].append(units)
        if traced:
            tracer.uninstall()
            runner.tracer = None
            pass_spans = {i: tracer.spans[i] for i in range(first_span, len(tracer.spans))}
            per_pass_layers.append(spans.pass_metrics(pass_spans))
        passes += 1
        last = time.perf_counter() - started

    op_time = {t: [bench.ref_nominal_s * statistics.median(s) if s else math.inf for s in samples[t]]
               for t in (False, True)}
    timed = [op.timed for op in ops]
    wall = sum(b for b, t in zip(op_time[False], timed) if t)
    commands = [b for b, op in zip(op_time[False], ops) if op.argv is not None and op.timed]
    tail_value, tail_pct, n_commands = tail(commands)
    end_to_end = {
        "setup_s": bench.ref_nominal_s * statistics.median(setups),
        "wall_s": wall,
        "cmd_p50_ms": 1e3 * statistics.median(commands),
        "cmd_tail_ms": 1e3 * tail_value,
        "pass_frac": runner.pass_frac(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    learn_only = {**extra, **bench.extra(op_time[False])}
    if "time_to_eps_s" in learn_only:  # timed once each: scaled by the run's median
        learn_only["time_to_eps_s"] *= bench.ref_nominal_s / statistics.median(host.refs)

    layers = {}
    if trace:
        layers = spans.median_metrics(per_pass_layers)
        layers["oracle.residual_max"] = spans.residual_max(tracer.spans)
        layers["trace.overhead_frac"] = sum(b for b, t in zip(op_time[True], timed) if t) / wall - 1.0
        layers["learners.rounds_per_s"] = learn_only.get("rounds_per_s", 0.0)
        layers["learners.time_to_eps_s"] = learn_only.get("time_to_eps_s", 0.0)
        layers["learners.rounds_to_eps"] = learn_only.get("rounds_to_eps", 0)
        tracer.dump(bench.work / "spans.jsonl")

    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "end_to_end": end_to_end,
        "layers": layers,
        "report": {
            "workload": workload,
            "seed": seed,
            "passes": passes,
            "untraced_passes": passes - len(per_pass_layers),
            "ops_per_pass": len(ops),
            "measured_s": time.perf_counter() - window,
            "ref_median_s": statistics.median(host.refs),
            "ref_nominal_s": bench.ref_nominal_s,
            "ref_samples": len(host.refs),
            "cmd_tail_pct": tail_pct,
            "cmd_samples": n_commands,
            "fail_frac": 1.0 - runner.pass_frac(),
            "known_defect_failures": runner.known_failed,
            "known_defect_passes": runner.known_passed,
            "failures": runner.messages,
            "learn": learn_only,
        },
    }


def machine() -> dict:
    """Host and numerical-stack facts recorded with every run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }

