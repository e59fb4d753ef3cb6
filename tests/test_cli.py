import json
import math
import os
import stat
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cce2nash import (
    Game, TwoEpsCheck, analyze, exact_value, load_game, load_joint, save_game, self_play,
    trajectory_csv,
)
from cce2nash.cli import main
from cce2nash.equilibrium import bound_slack
from helpers import ASYM, PENNIES

PENNIES_TEXT = "2 2\n1 -1\n-1 1\n"
DIAG_TEXT = "2 2\n0.5 0\n0 0.5\n"
UNIFORM_TEXT = "2 2\n0.25 0.25\n0.25 0.25\n"


@pytest.fixture
def pennies_file(tmp_path):
    path = tmp_path / "pennies.txt"
    path.write_text(PENNIES_TEXT)
    return str(path)


# --- gen -------------------------------------------------------------------------


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--rows", "2", "--cols", "2", "--count", "1", "--seed", "7", "--out", str(out)]) == 0
    game = load_game(out / "game_7_0.txt")
    assert game.shape == (2, 2)
    assert (np.abs(game.payoff) <= 1.0).all()
    assert "game_7_0.txt" in capsys.readouterr().out


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_gen_into_a_missing_nested_directory_gives_every_file_the_umasks_mode(
    tmp_path, capsys, umask, mode
):
    out = tmp_path / "deep" / "er"
    argv = ["gen", "--rows", "3", "--cols", "4", "--count", "2", "--seed", "5", "--out", str(out)]
    old = os.umask(umask)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    paths = [out / "game_5_0.txt", out / "game_5_1.txt"]
    assert capsys.readouterr().out == "".join(f"{path}\n" for path in paths)
    assert sorted(out.iterdir()) == paths
    for path in paths:
        assert load_game(path).shape == (3, 4)
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_gen_into_a_file_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert main(["gen", "--rows", "2", "--cols", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 17] File exists: '{out}'\n"
    assert out.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("out", ["link", "link/sub"])
def test_gen_through_a_dangling_directory_symlink_makes_its_target(tmp_path, capsys, out):
    (tmp_path / "link").symlink_to("missing_dir")
    out = tmp_path / out
    assert main(["gen", "--rows", "2", "--cols", "2", "--out", f"{out}/"]) == 0
    assert capsys.readouterr().out == f"{out / 'game_0_0.txt'}\n"
    made = tmp_path / "missing_dir" / out.relative_to(tmp_path / "link")
    assert (tmp_path / "link").is_symlink() and load_game(made / "game_0_0.txt").shape == (2, 2)


def test_gen_into_a_symlink_loop_exits_2(tmp_path, capsys):
    (tmp_path / "a").symlink_to("b")
    (tmp_path / "b").symlink_to("a")
    assert main(["gen", "--rows", "2", "--cols", "2", "--out", str(tmp_path / "a")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert f"{tmp_path / 'a'}" in captured.err


def test_gen_rejects_zero_rows(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--rows", "0", "--cols", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
def test_gen_rejects_a_negative_seed_naming_the_flag(tmp_path, capsys, seed):
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--rows", "2", "--cols", "2", "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument --seed: must be at least 0, got {seed}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--iters", "--seed"])
def test_a_non_integer_flag_value_gets_a_plain_message(pennies_file, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--game", pennies_file, "--iters", "10", "--out", str(tmp_path / "x"),
              flag, "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer, got 'abc'" in err
    assert "_int" not in err


def test_gen_same_seed_same_files(tmp_path):
    for sub in ("a", "b"):
        main(["gen", "--rows", "4", "--cols", "3", "--count", "2", "--seed", "5", "--out", str(tmp_path / sub)])
    for name in ("game_5_0.txt", "game_5_1.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --- learn ------------------------------------------------------------------------


def test_learn_writes_reports_and_summary(pennies_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["learn", "--game", pennies_file, "--algo", "rm", "--iters", "2000",
         "--out", str(out), "--format", "json"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algo"] == "rm"
    assert summary["averaging"] == "expected"
    assert summary["iters"] == 2000
    assert summary["holds_2eps"] is True
    assert summary["nash_eps"] <= 2.0 * summary["cce_eps"] + 1e-9
    assert summary["oracle_value"] == pytest.approx(0.0, abs=1e-9)
    assert summary["lp_pivots"] == exact_value(PENNIES).pivots == 2
    assert summary["ratio"] == summary["nash_eps"] / max(summary["cce_eps"], 1e-15)
    csv_lines = (out / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,cce_eps,nash_eps,avg_row_payoff"
    assert csv_lines[-1].startswith("2000,")
    # json echo requested on stdout
    assert json.loads(capsys.readouterr().out)["algo"] == "rm"


@pytest.mark.parametrize("fmt, echoed", [("json", "summary.json"), ("csv", "trajectory.csv")])
def test_learn_reports_every_summary_key_and_echoes_one_report_byte_for_byte(
    pennies_file, tmp_path, capsys, fmt, echoed
):
    out = tmp_path / "run"
    argv = ["learn", "--game", pennies_file, "--algo", "mw", "--averaging", "sampled",
            "--seed", "7", "--iters", "200", "--log-every", "50", "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (out / echoed).read_bytes()
    run = self_play(PENNIES, "mw", 200, seed=7, averaging="sampled", log_every=50)
    assert (out / "trajectory.csv").read_text() == trajectory_csv(run.trajectory)
    final, oracle = run.trajectory[-1], exact_value(PENNIES)
    assert final.cce_eps > 1e-15 * PENNIES.payoff_range  # the ratio is not clamped
    assert json.loads((out / "summary.json").read_text()) == {
        "algo": "mw",
        "averaging": "sampled",
        "avg_row_payoff": final.avg_row_payoff,
        "cce_eps": final.cce_eps,
        "game": pennies_file,
        "holds_2eps": True,
        "iters": 200,
        "log_every": 50,
        "lp_pivots": oracle.pivots,
        "nash_eps": final.nash_eps,
        "oracle_value": oracle.value,
        "ratio": final.nash_eps / final.cce_eps,
        "seed": 7,
        "tolerance": bound_slack(PENNIES),
    }


def test_learn_single_round_reports_uniform_play(pennies_file, tmp_path):
    out = tmp_path / "run"
    main(["learn", "--game", pennies_file, "--iters", "1", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cce_eps"] == 0.0
    assert summary["nash_eps"] == 0.0
    assert summary["avg_row_payoff"] == 0.0
    assert summary["holds_2eps"] is True


def test_learn_rejects_unknown_algo(pennies_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--game", pennies_file, "--algo", "fictitious", "--iters", "10",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in ("rm", "rmplus", "mw"):
        assert name in err


def test_learn_runs_are_byte_identical(pennies_file, tmp_path):
    flags = ["learn", "--game", pennies_file, "--algo", "mw", "--iters", "3000",
             "--seed", "11", "--averaging", "sampled"]
    main(flags + ["--out", str(tmp_path / "a")])
    main(flags + ["--out", str(tmp_path / "b")])
    for name in ("trajectory.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_learn_refuses_a_game_too_large_for_the_oracle_before_self_play(
    tmp_path, capsys, monkeypatch
):
    import cce2nash.cli as cli_mod

    def no_self_play(*args, **kwargs):
        raise AssertionError("self_play ran on a game the oracle cannot solve")

    monkeypatch.setattr(cli_mod, "self_play", no_self_play)
    game = tmp_path / "wide.txt"
    save_game(Game(np.zeros((3, 201))), game)
    out = tmp_path / "run"
    assert main(["learn", "--game", str(game), "--iters", "10", "--out", str(out)]) == 2
    assert "200" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cce, slack", [
    (0.0, 0.0), (0.25, 0.0), (1e-9, 0.0), (3.0, 0.0), (0.25, 1e-12), (1e-300, 1e-300), (0.5, 2.0),
])
def test_the_2eps_check_holds_up_to_twice_the_cce_level_plus_the_slack(cce, slack):
    # The paper's constant is 2: the bound itself holds and the next double does not.
    bound = 2.0 * cce + slack
    assert TwoEpsCheck.from_levels(cce, bound, slack).holds
    assert not TwoEpsCheck.from_levels(cce, math.nextafter(bound, math.inf), slack).holds


def learn_ending_on_the_levels(monkeypatch, game_file, out, cce, nash):
    """The summary of ``learn`` on ``game_file`` with self-play patched to end
    on the checkpoint levels ``cce`` and ``nash``."""
    import cce2nash.cli as cli_mod

    def ending_on_the_levels(*args, **kwargs):
        result = self_play(*args, **kwargs)
        last = replace(result.trajectory[-1], cce_eps=cce, nash_eps=nash)
        return replace(result, trajectory=result.trajectory[:-1] + (last,))

    monkeypatch.setattr(cli_mod, "self_play", ending_on_the_levels)
    assert main(["learn", "--game", game_file, "--iters", "10", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["cce_eps"], summary["nash_eps"]) == (cce, nash)
    return summary


@pytest.mark.parametrize("past", [False, True])
def test_learn_writes_holds_2eps_of_its_last_checkpoint(pennies_file, tmp_path, monkeypatch, past):
    # Self-play ends on a Nash level at 2 * cce_eps + slack, or the next double.
    cce = 0.25
    bound = 2.0 * cce + bound_slack(PENNIES)
    nash = math.nextafter(bound, math.inf) if past else bound
    summary = learn_ending_on_the_levels(monkeypatch, pennies_file, tmp_path / "run", cce, nash)
    assert summary["holds_2eps"] is (not past)


def test_learn_clamps_the_ratio_at_1e_15_of_the_payoff_range(pennies_file, tmp_path, monkeypatch):
    summary = learn_ending_on_the_levels(monkeypatch, pennies_file, tmp_path / "run", 0.0, 1e-16)
    assert summary["ratio"] == 1e-16 / (1e-15 * PENNIES.payoff_range)


def test_learn_into_a_missing_nested_directory_writes_both_files(pennies_file, tmp_path, capsys):
    out = tmp_path / "deep" / "er"
    argv = ["learn", "--game", pennies_file, "--iters", "200", "--averaging", "sampled",
            "--algo", "mw", "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["algo"], summary["averaging"]) == ("mw", "sampled")
    assert json.loads(capsys.readouterr().out) == summary
    assert (out / "trajectory.csv").read_text().startswith("t,cce_eps,nash_eps,avg_row_payoff\n")


def test_learn_refuses_an_unusable_out_path_before_self_play(
    pennies_file, tmp_path, capsys, monkeypatch
):
    import cce2nash.cli as cli_mod

    def no_self_play(*args, **kwargs):
        raise AssertionError("self_play ran before the output directory was made")

    monkeypatch.setattr(cli_mod, "self_play", no_self_play)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    argv = ["learn", "--game", pennies_file, "--iters", "300000", "--out", str(out)]
    assert main(argv) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "a file, not a directory\n"


def test_learn_through_a_dangling_directory_symlink_makes_its_target(pennies_file, tmp_path):
    (tmp_path / "link").symlink_to("missing_dir")
    out = f"{tmp_path / 'link'}/"
    assert main(["learn", "--game", pennies_file, "--iters", "10", "--out", out]) == 0
    assert (tmp_path / "link").is_symlink()
    assert sorted(p.name for p in (tmp_path / "missing_dir").iterdir()) == [
        "summary.json", "trajectory.csv"]


def test_learn_into_a_symlink_loop_exits_2(pennies_file, tmp_path, capsys):
    (tmp_path / "a").symlink_to("b")
    (tmp_path / "b").symlink_to("a")
    assert main(["learn", "--game", pennies_file, "--iters", "10", "--out", str(tmp_path / "a")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert f"'{tmp_path / 'a'}'" in captured.err


def test_learn_leaves_no_temp_file_when_a_report_cannot_replace_its_target(
    pennies_file, tmp_path, capsys
):
    out = tmp_path / "run"
    (out / "summary.json").mkdir(parents=True)
    assert main(["learn", "--game", pennies_file, "--iters", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert sorted(path.name for path in out.iterdir()) == ["summary.json"]
    assert list((out / "summary.json").iterdir()) == []


def test_a_failed_learn_leaves_the_previous_reports_as_they_were(pennies_file, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "summary.json").mkdir(parents=True)
    sentinel = b"a trajectory from an earlier run\n"
    (out / "trajectory.csv").write_bytes(sentinel)
    assert main(["learn", "--game", pennies_file, "--iters", "10", "--out", str(out)]) == 2
    assert (out / "trajectory.csv").read_bytes() == sentinel
    # The error names the target, not the temp file it would have been renamed from.
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: '{out / 'summary.json'}'\n"
    assert sorted(path.name for path in out.iterdir()) == ["summary.json", "trajectory.csv"]


def test_learn_rejects_a_negative_seed_before_the_lp(pennies_file, tmp_path, capsys, monkeypatch):
    import cce2nash.cli as cli_mod

    def no_exact_value(*args, **kwargs):
        raise AssertionError("exact_value ran before the seed was validated")

    monkeypatch.setattr(cli_mod, "exact_value", no_exact_value)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--game", pennies_file, "--iters", "10", "--seed", "-5", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --seed: must be at least 0, got -5" in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e-20, 1e20])
def test_learn_ratio_does_not_depend_on_the_payoff_scale(tmp_path, scale):
    payoff = np.random.default_rng(1).uniform(-1.0, 1.0, size=(4, 4))

    def summary(factor, name):
        path = tmp_path / f"{name}.txt"
        save_game(Game(factor * payoff), path)
        out = tmp_path / name
        assert main(["learn", "--game", str(path), "--iters", "2000", "--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())

    unit, scaled = summary(1.0, "unit"), summary(scale, "scaled")
    assert unit["ratio"] > 1.0
    assert scaled["ratio"] == pytest.approx(unit["ratio"], rel=1e-9)
    assert unit["holds_2eps"] is scaled["holds_2eps"] is True
    assert scaled["tolerance"] == pytest.approx(scale * unit["tolerance"], rel=1e-9)


def test_learn_ratio_of_a_flat_game_is_zero(tmp_path):
    path = tmp_path / "flat.txt"
    save_game(Game(np.full((3, 2), 1e-300)), path)
    out = tmp_path / "run"
    assert main(["learn", "--game", str(path), "--iters", "50", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["ratio"] == 0.0


@pytest.mark.parametrize("algo", ["rm", "rmplus", "mw"])
def test_learn_ratio_of_a_game_with_a_subnormal_range_is_that_of_the_unit_game(tmp_path, algo):
    def summary(text, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        out = tmp_path / name
        argv = ["learn", "--game", str(path), "--algo", algo, "--iters", "100", "--out", str(out)]
        assert main(argv) == 0
        return json.loads((out / "summary.json").read_text())

    tiny = summary("2 2\n1e-310 0\n0 1e-310\n", "tiny")
    assert tiny["ratio"] == 0.0
    assert tiny["ratio"] == summary("2 2\n1 0\n0 1\n", "unit")["ratio"]


def test_learn_reports_parse_failure_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 oops\n-1 1\n")
    assert main(["learn", "--game", str(bad), "--iters", "10", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert err == f"error: {bad}: line 2: invalid decimal value\n"


# --- check -------------------------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_diagonal_pennies_holds(pennies_file, tmp_path, capsys):
    joint = write(tmp_path, "diag.txt", DIAG_TEXT)
    assert main(["check", "--game", pennies_file, "--joint", joint, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cce"]["epsilon"] == pytest.approx(1.0, abs=1e-12)
    assert report["nash_of_marginals"]["epsilon"] == pytest.approx(0.0, abs=1e-12)
    assert report["value_consistency"]["holds"] and report["two_eps"]["holds"]


DIAG_CHECK_JSON = """\
{
  "cce": {
    "col_deviation": 0,
    "col_gain": 1.0,
    "epsilon": 1.0,
    "row_deviation": 0,
    "row_gain": -1.0
  },
  "nash_of_marginals": {
    "col_deviation": 0,
    "col_gain": 0.0,
    "epsilon": 0.0,
    "row_deviation": 0,
    "row_gain": 0.0
  },
  "tolerance": 1e-09,
  "two_eps": {
    "cce_eps": 1.0,
    "holds": true,
    "nash_eps": 0.0
  },
  "value_consistency": {
    "bound": 1.0,
    "holds": true,
    "lhs": 1.0
  }
}
"""

DIAG_CHECK_TEXT = """\
cce_eps = 1
nash_eps = 0
value_consistency: holds (|deviation| 1 vs bound 1)
two_eps: holds (nash_eps 0 vs 2*cce_eps 2 + 1.0000000000000001e-09)
"""


@pytest.mark.parametrize("fmt, expected", [("json", DIAG_CHECK_JSON), ("text", DIAG_CHECK_TEXT)])
def test_check_output_bytes_are_pinned(pennies_file, tmp_path, capsys, fmt, expected):
    joint = write(tmp_path, "diag.txt", DIAG_TEXT)
    assert main(["check", "--game", pennies_file, "--joint", joint, "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_check_uniform_product_all_zero(pennies_file, tmp_path, capsys):
    joint = write(tmp_path, "uniform.txt", UNIFORM_TEXT)
    assert main(["check", "--game", pennies_file, "--joint", joint]) == 0
    out = capsys.readouterr().out
    assert "cce_eps = 0" in out and "nash_eps = 0" in out


def test_check_rejects_unnormalized_mass(pennies_file, tmp_path, capsys):
    joint = write(tmp_path, "short.txt", "2 2\n0.4 0.2\n0.2 0.1\n")
    assert main(["check", "--game", pennies_file, "--joint", joint]) == 2
    assert "refusing to renormalize" in capsys.readouterr().err


def test_check_refuses_a_joint_whose_sum_passes_the_float_range(tmp_path, capsys):
    game = write(tmp_path, "g.txt", "1 2\n0.5 -0.5\n")
    joint = write(tmp_path, "huge.txt", "1 2\n1e308 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--game", game, "--joint", joint]) == 2
    assert capsys.readouterr().err == (
        f"error: {joint}: mass sums to inf, expected 1 within 1e-09 (refusing to renormalize)\n"
    )


def test_check_rejects_dimension_mismatch_naming_shapes(tmp_path, capsys):
    game = write(tmp_path, "g.txt", "3 3\n0 -1 1\n1 0 -1\n-1 1 0\n")
    joint = write(tmp_path, "mu.txt", DIAG_TEXT)
    assert main(["check", "--game", game, "--joint", joint]) == 2
    err = capsys.readouterr().err
    assert "2x2" in err and "3x3" in err


def test_check_exit_is_deterministic(pennies_file, tmp_path):
    joint = write(tmp_path, "diag.txt", DIAG_TEXT)
    runs = {main(["check", "--game", pennies_file, "--joint", joint]) for _ in range(3)}
    assert runs == {0}


def test_check_exits_one_when_a_bound_fails(pennies_file, tmp_path, monkeypatch):
    import cce2nash.cli as cli_mod

    joint = write(tmp_path, "diag.txt", DIAG_TEXT)
    failing = TwoEpsCheck(cce_eps=0.0, nash_eps=1.0, holds=False)
    monkeypatch.setattr(
        cli_mod,
        "analyze",
        lambda mu, game: replace(analyze(mu, game), two_eps=failing),
    )
    assert main(["check", "--game", pennies_file, "--joint", joint]) == 1


@pytest.mark.parametrize("game_text, joint_text, line", [
    ("2 2\n1 -1\n-1 nan\n", DIAG_TEXT, 3),
    (PENNIES_TEXT, "2 2\n0.5 inf\n0 0.5\n", 2),
], ids=["game", "joint"])
def test_check_names_the_line_of_a_non_finite_value(tmp_path, capsys, game_text, joint_text, line):
    game = write(tmp_path, "g.txt", game_text)
    joint = write(tmp_path, "mu.txt", joint_text)
    assert main(["check", "--game", game, "--joint", joint]) == 2
    assert f"line {line}: non-finite value" in capsys.readouterr().err


HUGE_HEADER_TEXT = "1 1000000000000000000\n1\n"


@pytest.mark.parametrize("game_text, joint_text", [
    (HUGE_HEADER_TEXT, UNIFORM_TEXT),
    (PENNIES_TEXT, HUGE_HEADER_TEXT),
], ids=["game", "joint"])
def test_check_rejects_a_header_wider_than_its_data(tmp_path, capsys, game_text, joint_text):
    # The header's width must not be allocated before a data line confirms it.
    game = write(tmp_path, "g.txt", game_text)
    joint = write(tmp_path, "mu.txt", joint_text)
    assert main(["check", "--game", game, "--joint", joint]) == 2
    assert "line 2: expected 1000000000000000000 values, found 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["game", "joint"])
def test_check_parse_error_names_the_file(pennies_file, tmp_path, capsys, bad):
    broken = write(tmp_path, "broken.txt", "2 2\n0.5 x\n0 0.5\n")
    game = broken if bad == "game" else pennies_file
    joint = broken if bad == "joint" else write(tmp_path, "diag.txt", DIAG_TEXT)
    assert main(["check", "--game", game, "--joint", joint]) == 2
    assert capsys.readouterr().err == f"error: {broken}: line 2: invalid decimal value\n"


NOT_UTF8 = b"2 2\n1 \xff\n0 1\n"
NOT_UTF8_ERROR = "line 2: not UTF-8: invalid start byte at byte 6\n"


@pytest.mark.parametrize("bad", ["game", "joint"])
def test_check_names_the_file_and_line_of_bytes_that_are_not_utf8(
    pennies_file, tmp_path, capsys, bad
):
    broken = tmp_path / "latin1.txt"
    broken.write_bytes(NOT_UTF8)
    game = str(broken) if bad == "game" else pennies_file
    joint = str(broken) if bad == "joint" else write(tmp_path, "diag.txt", DIAG_TEXT)
    assert main(["check", "--game", game, "--joint", joint]) == 2
    assert capsys.readouterr().err == f"error: {broken}: {NOT_UTF8_ERROR}"


def test_check_negative_mass_error_prints_a_plain_float(pennies_file, tmp_path, capsys):
    joint = write(tmp_path, "neg.txt", "2 2\n0.6 -0.1\n0.2 0.3\n")
    assert main(["check", "--game", pennies_file, "--joint", joint]) == 2
    assert capsys.readouterr().err == f"error: {joint}: negative mass -0.1 at cell (0, 1)\n"


# An exact CCE of a game whose payoffs sit near 1e9: the uniform joint of a
# circulant game.  An absolute 1e-9 slack reported nash_eps 1.19e-07 as failing;
# scored on the payoffs minus their midpoint 999999998.5, it reads 5.6e-17.
OFFSET_TEXT = """3 3
999999997 999999997 1000000000
1000000000 999999997 999999997
999999997 1000000000 999999997
"""
OFFSET_UNIFORM_TEXT = "3 3\n" + "0.1111111111111111 0.1111111111111111 0.1111111111111111\n" * 3


def test_an_exact_cce_at_a_large_offset_passes_check_and_learn(tmp_path, capsys):
    game = write(tmp_path, "offset.txt", OFFSET_TEXT)
    joint = write(tmp_path, "uniform.txt", OFFSET_UNIFORM_TEXT)
    assert main(["check", "--game", game, "--joint", joint, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    centered = analyze(load_joint(joint), Game(load_game(game).payoff - 999999998.5))
    assert report["cce"]["epsilon"] == centered.cce.epsilon
    assert report["nash_of_marginals"]["epsilon"] == centered.nash_of_marginals.epsilon
    assert report["tolerance"] == 1e-9 * 1e9
    out = tmp_path / "run"
    assert main(["learn", "--game", game, "--iters", "200", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["holds_2eps"] is True


OVERFLOW_TEXT = "2 2\n1.5e308 -1.5e308\n-1.5e308 1.5e308\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_refuses_a_payoff_range_past_the_float_range(tmp_path, capsys, fmt):
    # The range overflows to inf, and so would the gains: loading the game
    # refuses it, naming the file, with no warning and no report.
    game = write(tmp_path, "g.txt", OVERFLOW_TEXT)
    joint = write(tmp_path, "j.txt", "2 2\n0 1\n0 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--game", game, "--joint", joint, "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {game}: payoff range inf is 2**1023 or more; rescale the game\n"


@pytest.mark.parametrize("command", [
    ["check", "--joint", "missing.txt"], ["learn", "--iters", "10", "--out", "run"], ["value"],
])
def test_commands_refuse_an_overflowing_game_file_before_other_work(
    tmp_path, capsys, monkeypatch, command
):
    # check never reads its (missing) joint, and learn makes no --out directory.
    monkeypatch.chdir(tmp_path)
    game = write(tmp_path, "overflow.txt", OVERFLOW_TEXT)
    assert main([command[0], "--game", game, *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {game}: payoff range inf is 2**1023 or more; rescale the game\n"
    assert [p.name for p in tmp_path.iterdir()] == ["overflow.txt"]


# An all -0.0 game: its largest |payoff| is +0.0, so the slack is 0 and not -0.
NEG_ZERO_TEXT = "2 2\n-0 -0\n-0 -0\n"


def test_check_and_learn_report_a_zero_tolerance_on_an_all_negative_zero_game(tmp_path, capsys):
    game = write(tmp_path, "negzero.txt", NEG_ZERO_TEXT)
    joint = write(tmp_path, "uniform.txt", UNIFORM_TEXT)
    assert main(["check", "--game", game, "--joint", joint]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" + 0)")
    out = tmp_path / "run"
    assert main(["learn", "--game", game, "--iters", "10", "--out", str(out)]) == 0
    assert '"tolerance": 0.0\n' in (out / "summary.json").read_text()


# --- value -------------------------------------------------------------------------


def test_value_pennies(pennies_file, capsys):
    assert main(["value", "--game", pennies_file]) == 0
    assert "value = 0" in capsys.readouterr().out


def test_value_asym_json(tmp_path, capsys):
    path = tmp_path / "asym.txt"
    save_game(ASYM, path)
    assert main(["value", "--game", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == pytest.approx(1.0 / 7.0, abs=1e-9)
    assert report["row_strategy"] == pytest.approx([3.0 / 7.0, 4.0 / 7.0], abs=1e-9)


def test_value_one_by_one(tmp_path, capsys):
    game = write(tmp_path, "c.txt", "1 1\n0.125\n")
    assert main(["value", "--game", game]) == 0
    assert "value = 0.125" in capsys.readouterr().out


def test_value_rejects_a_header_wider_than_its_data(tmp_path, capsys):
    game = write(tmp_path, "g.txt", HUGE_HEADER_TEXT)
    assert main(["value", "--game", game]) == 2
    assert "line 2: expected 1000000000000000000 values, found 1" in capsys.readouterr().err


def test_value_parse_error_names_the_file(tmp_path, capsys):
    game = write(tmp_path, "g.txt", "2 2\n1 -1\n-1 1 1\n")
    assert main(["value", "--game", game]) == 2
    assert capsys.readouterr().err == f"error: {game}: line 3: expected 2 values, found 3\n"


def test_value_names_line_1_of_a_header_that_is_not_two_integers(tmp_path, capsys):
    game = write(tmp_path, "g.txt", "a b\n1 -1\n-1 1\n")
    assert main(["value", "--game", game]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {game}: line 1: expected integer dimensions 'rows cols'\n"


def test_value_names_the_file_and_line_of_bytes_that_are_not_utf8(tmp_path, capsys):
    game = tmp_path / "latin1.txt"
    game.write_bytes(NOT_UTF8)
    assert main(["value", "--game", str(game)]) == 2
    assert capsys.readouterr().err == f"error: {game}: {NOT_UTF8_ERROR}"


def test_missing_game_file_is_an_error(tmp_path, capsys):
    assert main(["value", "--game", str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- one parser per process ------------------------------------------------------


def test_parser_is_built_once_and_survives_a_rejection(pennies_file, tmp_path, capsys):
    import cce2nash.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--game", pennies_file, "--algo", "nope", "--iters", "10",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    capsys.readouterr()
    joint = write(tmp_path, "diag.txt", DIAG_TEXT)
    assert main(["check", "--game", pennies_file, "--joint", joint, "--format", "json"]) == 0
    assert capsys.readouterr().out == DIAG_CHECK_JSON
