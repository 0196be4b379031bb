import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import funcperm as fp
from funcperm import cli, simulate
from funcperm.cli import main


def write_csv(path, labels, paths):
    width = len(paths[0])
    header = "id,group," + ",".join(f"t{j}" for j in range(1, width + 1))
    lines = [header]
    for i, (g, row) in enumerate(zip(labels, paths), start=1):
        lines.append(f"{i},{g}," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def two_group_csv(tmp_path, n=6, width=4, seed=0, duplicated=False):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(n, width))
    if duplicated:
        paths = np.vstack([block, block])
    else:
        paths = np.vstack([block, rng.normal(size=(n, width)) + 1.0])
    labels = [0] * n + [1] * n
    csv_path = tmp_path / "sample.csv"
    write_csv(csv_path, labels, paths)
    return csv_path


def run(args):
    return main([str(a) for a in args])


def test_duplicated_groups_give_zero_statistic(tmp_path, capsys):
    csv_path = two_group_csv(tmp_path, duplicated=True)
    out = tmp_path / "out"
    code = run(["test", "--input", csv_path, "--perms", "50", "--L", "32",
                "--K", "3", "--seed", "1", "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["cvm"]["observed"] == 0.0
    assert report["results"]["cvm"]["p_value"] == 1.0
    assert report["results"]["mean_path"]["observed"] == 0.0
    assert report["results"]["combined"]["rejected"] is False
    capsys.readouterr()


def test_five_group_run_at_real_cohort_sizes(tmp_path, capsys):
    rng = np.random.default_rng(5)
    sizes = (524, 236, 227, 251, 254)
    labels = np.repeat(np.arange(5), sizes)
    paths = rng.normal(size=(sum(sizes), 3))
    csv_path = tmp_path / "five.csv"
    write_csv(csv_path, labels.tolist(), paths)
    out = tmp_path / "out5"
    code = run(["test", "--input", csv_path, "--perms", "30", "--L", "16",
                "--K", "3", "--seed", "2", "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["group_sizes"] == list(sizes)
    assert report["n_units"] == 1492
    capsys.readouterr()


def test_alpha_split_labels_reported(tmp_path, capsys):
    csv_path = two_group_csv(tmp_path)
    out = tmp_path / "outl"
    code = run(["test", "--input", csv_path, "--alpha-tau", "0.04",
                "--alpha-nu", "0.01", "--perms", "50", "--L", "16", "--K", "3",
                "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["levels"] == "(0.04, 0.01)"
    assert report["results"]["cvm"]["level"] == 0.04
    assert report["results"]["mean_path"]["level"] == 0.01
    csv_text = (out / "report.csv").read_text()
    assert '"(0.04, 0.01)"' in csv_text
    capsys.readouterr()


def test_exit_status_independent_of_decision(tmp_path, capsys):
    # strongly separated groups: the test certainly rejects, exit stays 0
    rng = np.random.default_rng(9)
    paths = np.vstack([rng.normal(size=(10, 3)), rng.normal(size=(10, 3)) + 50.0])
    csv_path = tmp_path / "sep.csv"
    write_csv(csv_path, [0] * 10 + [1] * 10, paths)
    out = tmp_path / "outr"
    code = run(["test", "--input", csv_path, "--perms", "99", "--L", "32",
                "--K", "3", "--seed", "3", "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["combined"]["rejected"] is True
    capsys.readouterr()


def test_missing_input_fails(tmp_path, capsys):
    code = run(["test", "--input", tmp_path / "absent.csv", "--out-dir", tmp_path])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_single_group_rejected(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    write_csv(csv_path, [0, 0], np.zeros((2, 2)))
    code = run(["test", "--input", csv_path, "--out-dir", tmp_path / "o"])
    assert code != 0
    capsys.readouterr()


def test_huge_group_id_fails_with_exit_two(tmp_path, capsys):
    csv_path = tmp_path / "huge.csv"
    write_csv(csv_path, [0, 1, 2**40], np.zeros((3, 2)))
    out = tmp_path / "o"
    assert run(["test", "--input", csv_path, "--out-dir", out]) == 2
    assert "non-contiguous group ids" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_alpha_rejected(tmp_path, capsys):
    csv_path = two_group_csv(tmp_path)
    code = run(["test", "--input", csv_path, "--alpha-tau", "0.9",
                "--alpha-nu", "0.2", "--out-dir", tmp_path / "o"])
    assert code == 2
    assert "component levels must sum to less than one" in capsys.readouterr().err


def test_simulate_single_design(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run(["simulate", "--designs", "1", "--tests", "tau", "--reps", "100",
                "--perms", "39", "--sizes", "6,6,6", "--T", "24", "--K", "3",
                "--L", "32", "--seed", "11", "--out-dir", out])
    assert code == 0
    lines = (out / "power_table.csv").read_text().splitlines()
    assert lines[0] == "test,alpha_cvm,alpha_mean,design,rate,std_error,reps"
    fields = lines[1].split(",")
    assert fields[0] == "cvm"
    rate = float(fields[4])
    assert 0.0 <= rate <= 0.05 + 3 * 0.0218 + 0.01  # null design, MC band
    capsys.readouterr()


def test_simulate_unknown_design_fails(tmp_path, capsys):
    code = run(["simulate", "--designs", "11", "--reps", "2",
                "--out-dir", tmp_path / "x"])
    assert code != 0
    assert "design" in capsys.readouterr().err


def test_simulate_outputs_reproducible(tmp_path, capsys):
    args = ["simulate", "--designs", "1", "--tests", "tau,sr", "--reps", "10",
            "--perms", "29", "--sizes", "5,5,5", "--T", "24", "--K", "3",
            "--L", "16", "--seed", "21"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", out_a]) == 0
    assert run(args + ["--out-dir", out_b]) == 0
    assert (out_a / "power_table.csv").read_bytes() == (out_b / "power_table.csv").read_bytes()
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# desk profile\n"
        "designs = 1\n"
        "tests = tau\n"
        "reps = 5\n"
        "perms = 19\n"
        "K = 3\n"
        "L = 16\n"
        "sizes = 4,4,4\n"
        "T = 12\n"
        "seed = 7\n"
        "alpha_tau = 0.03\n"
        "alpha_nu = 0.02\n"
    )
    out = tmp_path / "cfgout"
    code = run(["simulate", "--config", cfg, "--reps", "6", "--out-dir", out])
    assert code == 0
    config = json.loads((out / "power_config.json").read_text())
    assert config["reps"] == 6  # flag wins over file
    assert config["n_perms"] == 19
    assert config["alpha_split"] == [0.03, 0.02]
    capsys.readouterr()


def test_config_file_drives_test_command(tmp_path, capsys):
    csv_path = two_group_csv(tmp_path)
    cfg = tmp_path / "measure.cfg"
    cfg.write_text(
        f"input = {csv_path}\n"
        "K = 5\n"
        "L = 24\n"
        "mu1 = 1.25\n"
        "coeff_law = uniform\n"
        "seed = 3\n"
        "perms = 40\n"
    )
    out = tmp_path / "cfg_test_out"
    code = run(["test", "--config", cfg, "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    prov = report["provenance"]
    assert prov["K"] == 5 and prov["L"] == 24 and prov["n_perms"] == 40
    assert prov["mu1"] == "1.25" and prov["mu1_value"] == 1.25
    assert prov["coeff_law"] == "uniform"
    capsys.readouterr()


def test_config_file_unknown_key_fails(tmp_path, capsys):
    # n_perms and alpha_split are the power_config.json field names, not
    # config keys: perms, alpha_tau and alpha_nu set those settings
    cfg = tmp_path / "bad.cfg"
    for line in ("bogus = 1", "n_perms = 19", "alpha_split = 0.03, 0.02"):
        cfg.write_text(f"reps = 2\n{line}\n")
        code = run(["simulate", "--config", cfg, "--out-dir", tmp_path / "o"])
        assert code == 2
        key = line.split()[0]
        assert f"{cfg}:2: unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_line_without_a_value_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("reps = 2\nreps 3\n")
    assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
    assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err


def test_test_command_needs_input(tmp_path, capsys):
    assert run(["test", "--out-dir", tmp_path / "o"]) == 2
    assert "the test command needs --input" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_unreadable_fails(tmp_path, capsys):
    code = run(["power-analytic", "--config", tmp_path / "absent.cfg", "--out-dir", tmp_path / "o"])
    assert code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_power_analytic_outputs(tmp_path, capsys):
    out = tmp_path / "curves"
    code = run(["power-analytic", "--out-dir", out])
    assert code == 0
    names = [
        "mean_shift_power.csv",
        "variance_shift_power.csv",
        "correlation_shift_power.csv",
    ]
    for name in names:
        assert (out / name).exists()
    mean_text = (out / "mean_shift_power.csv").read_text()
    first_row = [
        line for line in mean_text.splitlines() if line and not line.startswith("#")
    ][1]
    assert float(first_row.split(",")[1]) == pytest.approx(0.05, abs=1e-9)
    capsys.readouterr()


def test_power_analytic_eval_points_echoed(tmp_path, capsys):
    out = tmp_path / "curves2"
    code = run(["power-analytic", "--eval-points=-0.4,0.4", "--out-dir", out])
    assert code == 0
    text = (out / "correlation_shift_power.csv").read_text()
    assert "# eval_points = (-0.4, 0.4)" in text
    capsys.readouterr()


def test_power_analytic_level_written_to_ten_digits(tmp_path, capsys):
    # 0.1 + 0.2 is 0.30000000000000004 in binary floating point
    out = tmp_path / "curves"
    assert run(["power-analytic", "--alpha-tau", "0.1", "--alpha-nu", "0.2", "--out-dir", out]) == 0
    for kind in ("mean", "variance", "correlation"):
        assert "# level = 0.3\n" in (out / f"{kind}_shift_power.csv").read_text(), kind
    capsys.readouterr()


# sha256 of the three curve files; --eval-points changes only the mean and
# correlation files, since the variance default point is (-0.4, 0.4)
_MEAN = "22debbc3b207a965aadec3b789045f342a2b09fd02d9721c03520c98c7f1af29"
_VARIANCE = "287d720d3c448f8adbbcc7211945708d194c5b3b7b9bc747630bb9c16e8d80e7"
_CORRELATION = "1e3f0195ca1f5def58d6acf2d5b574bac2a1ade5507f9ed6ac72f2d7ef1c70ec"


@pytest.mark.parametrize("flags, digests", [
    pytest.param([], (_MEAN, _VARIANCE, _CORRELATION), id="default"),
    pytest.param(["--eval-points=-0.4,0.4"], (
        "712f7a07a33426e3825053ffeedaf72a6703d126ad0a5e4845bc52cfd6ff7562",
        _VARIANCE,
        "8036ed67ed2bda8752e291248f49f0aba27ce7205fa7a69921009bcea43c0e88",
    ), id="eval-points"),
])
def test_power_analytic_outputs_pinned(tmp_path, capsys, flags, digests):
    out = tmp_path / "curves"
    assert run(["power-analytic", *flags, "--out-dir", out]) == 0
    for kind, digest in zip(("mean", "variance", "correlation"), digests):
        text = (out / f"{kind}_shift_power.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest, kind
    capsys.readouterr()


@pytest.mark.parametrize("x1, x2", [(9.0, 9.0), (-40.0, 0.0), (40.0, 40.0)])
def test_deep_tail_eval_point_fails_loudly(tmp_path, capsys, x1, x2):
    # 2 F (1 - F) rounds to 0 there: the library raises naming the point,
    # and the command reports it and exits 2
    point = f"({x1}, {x2})"
    for power in (fp.cvm_power_mean_shift, fp.cvm_power_variance_shift,
                  fp.cvm_power_correlation_shift):
        with pytest.raises(ValueError, match=re.escape(point)):
            power(1.0, x1, x2)
    with pytest.raises(ValueError, match=re.escape(point)):
        fp.mean_shift_ncp_coefficient(x1, x2)
    code = run(["power-analytic", f"--eval-points={x1},{x2}", "--out-dir", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and point in err


def options_case(command, option, case_id=None):
    return pytest.param(command, option, id=case_id or f"{command}-{option.split()[0].lstrip('-')}")


# (command, option) pairs the command does not take; the threads cases
# keep the ids they had when these tests covered only threads
@pytest.mark.parametrize("command, flag", [
    options_case("test", "--threads 2", "test"),
    options_case("power-analytic", "--threads 2", "power-analytic"),
    options_case("power-analytic", "--seed 5"),
    options_case("power-analytic", "--perms 100"),
    options_case("power-analytic", "--mode conservative"),
    options_case("power-analytic", "--L 3"),
    options_case("power-analytic", "--K 5"),
    options_case("test", "--designs 1,2"),
    options_case("test", "--eval-points 1,2"),
    options_case("simulate", "--input x.csv"),
])
def test_threads_flag_only_on_simulate(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, *flag.split(), "--out-dir", tmp_path / "o"])
    assert exc.value.code == 2
    assert flag.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    options_case("test", "threads = 2", "test"),
    options_case("power-analytic", "threads = 2", "power-analytic"),
    options_case("test", "designs = 1,2"),
    options_case("test", "reps = 3"),
    options_case("test", "eval_points = 1,2"),
    options_case("simulate", "input = x.csv"),
    options_case("simulate", "eval_points = 1,2"),
    options_case("power-analytic", "seed = 5"),
    options_case("power-analytic", "n_perms = 100"),
    options_case("power-analytic", "perms = 100"),
    options_case("power-analytic", "mu1 = 1.5"),
])
def test_threads_config_key_only_on_simulate(tmp_path, capsys, command, line):
    cfg = tmp_path / "options.cfg"
    cfg.write_text(line + "\n")
    code = run([command, "--config", cfg, "--out-dir", tmp_path / "o"])
    assert code == 2
    assert repr(line.split()[0]) in capsys.readouterr().err


def test_zero_perms_rejected(tmp_path, capsys):
    csv_path = two_group_csv(tmp_path)
    code = run(["test", "--input", csv_path, "--perms", "0", "--out-dir", tmp_path / "o"])
    assert code == 2
    assert "--perms" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option, text", [("designs", ""), ("tests", ",")], ids=["designs", "tests"])
def test_simulate_empty_list_rejected(tmp_path, capsys, option, text):
    code = run(["simulate", f"--{option}", text, "--reps", "2", "--out-dir", tmp_path / "o"])
    assert code == 2
    assert f"--{option}" in capsys.readouterr().err


@pytest.mark.parametrize("line, flags, name", [
    ("reps = x", [], "'reps'"),
    ("", ["--T", "x"], "--T"),
    ("", ["--K", "4"], "--K: must be an odd positive integer, got 4"),
    ("", ["--alpha-tau", "0"], "--alpha-tau: alpha levels must be positive, got 0.0"),
    ("", ["--mode", "x"], "--mode: must be one of randomized, conservative, got 'x'"),
    ("", ["--tests", "tau,foo"], "--tests: unknown test 'foo'"),
], ids=["file", "flag", "even-K", "zero-alpha", "mode", "unknown-test"])
def test_bad_value_names_its_key(tmp_path, capsys, line, flags, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = run(["simulate", "--config", cfg, *flags, "--out-dir", tmp_path / "o"])
    assert code == 2
    assert name in capsys.readouterr().err


def test_simulate_accepts_threads_flag_and_config_key(tmp_path, capsys):
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    code = run(["simulate", "--config", cfg, "--threads", "1", "--designs", "1",
                "--tests", "tau", "--reps", "2", "--perms", "19", "--sizes", "3,3,3",
                "--T", "8", "--K", "3", "--L", "8", "--out-dir", tmp_path / "o"])
    assert code == 0
    capsys.readouterr()


# the exact power_table.csv and power_config.json of one desk-scale study:
# any drift in the settings echo's keys, key order or value types, or in
# the rates, shows here
PINNED_SIMULATE_ARGV = [
    "simulate", "--designs", "1,3", "--tests", "tau,eta,sr", "--reps", "4", "--perms", "19",
    "--sizes", "5,5,5", "--T", "12", "--K", "3", "--L", "16", "--seed", "3",
    "--shift-scale", "6", "--alpha-tau", "0.04", "--alpha-nu", "0.01", "--mu1", "1.7",
]
PINNED_POWER_TABLE = """\
test,alpha_cvm,alpha_mean,design,rate,std_error,reps
cvm,0.04,0.01,1,0,0,4
combined,0.04,0.01,1,0,0,4
energy,0.04,0.01,1,0,0,4
cvm,0.04,0.01,3,0.25,0.2165063509,4
combined,0.04,0.01,3,0.5,0.25,4
energy,0.04,0.01,3,0.5,0.25,4
"""
PINNED_POWER_CONFIG = """\
{
  "designs": [
    1,
    3
  ],
  "tests": [
    "cvm",
    "combined",
    "energy"
  ],
  "reps": 4,
  "n_perms": 19,
  "alpha_split": [
    0.04,
    0.01
  ],
  "n_terms": 3,
  "n_draws": 16,
  "coeff_law": "gaussian",
  "mean_level": 1.7,
  "group_sizes": [
    5,
    5,
    5
  ],
  "horizon": 12,
  "seed": 3,
  "shift_scale": 6.0,
  "mode": "randomized"
}
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_outputs_pinned(tmp_path, capsys, threads):
    out = tmp_path / "pinned"
    assert run(PINNED_SIMULATE_ARGV + ["--threads", threads, "--out-dir", out]) == 0
    assert (out / "power_table.csv").read_text() == PINNED_POWER_TABLE
    assert (out / "power_config.json").read_text() == PINNED_POWER_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("line, flags", [
    ("", ["--designs", "1,3,1"]),
    ("designs = 2, 2", []),
], ids=["flag", "file"])
def test_simulate_repeated_design_rejected(tmp_path, capsys, line, flags):
    cfg = tmp_path / "designs.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = run(["simulate", "--config", cfg, *flags, "--reps", "2", "--out-dir", out])
    assert code == 2
    assert "design id" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_duplicate_key_fails(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("reps = 3\n# a comment\nreps = 5\n")
    code = run(["simulate", "--config", cfg, "--out-dir", tmp_path / "o"])
    assert code == 2
    assert f"{cfg}:3: duplicate config key 'reps' (first at line 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test", "simulate", "power-analytic"])
def test_unwritable_out_dir_fails(tmp_path, capsys, command):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    extra = {
        "test": ["--input", two_group_csv(tmp_path), "--perms", "19", "--L", "8", "--K", "3"],
        "simulate": ["--designs", "1", "--tests", "tau", "--reps", "1", "--perms", "19",
                     "--sizes", "3,3,3", "--T", "8", "--K", "3", "--L", "8"],
        "power-analytic": [],
    }[command]
    code = run([command, *extra, "--out-dir", blocker])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


@pytest.mark.parametrize("command", ["test", "simulate"])
def test_out_dir_under_a_file_fails_before_the_computation(tmp_path, capsys, monkeypatch, command):
    # simulate runs its default study, 10 designs x 300 replications, unless
    # the output directory is made first
    def no_computation(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(cli, "run_combined_test", no_computation)
    monkeypatch.setattr(simulate, "run_replication", no_computation)
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    extra = ["--input", two_group_csv(tmp_path)] if command == "test" else []
    assert run([command, *extra, "--out-dir", blocker / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory ") and str(blocker) in err


@pytest.mark.parametrize("command, flags, line, name", [
    ("power-analytic", ["--eval-points", "nan,0.4"], "", "--eval-points"),
    ("power-analytic", [], "eval_points = 0.4, inf", "'eval_points'"),
    ("simulate", ["--shift-scale", "nan"], "", "--shift-scale"),
    ("simulate", [], "shift_scale = -inf", "'shift_scale'"),
    ("simulate", ["--mu1", "nan"], "", "--mu1"),
    ("test", [], "mu1 = inf", "'mu1'"),
], ids=["eval-points-flag", "eval-points-file", "shift-scale-flag", "shift-scale-file",
        "mu1-flag", "mu1-file"])
def test_non_finite_float_rejected(tmp_path, capsys, command, flags, line, name):
    cfg = tmp_path / "floats.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = run([command, "--config", cfg, *flags, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err
    assert not out.exists()


def _test_argv(csv_path, seed):
    return ["test", "--input", csv_path, "--perms", "29", "--L", "16", "--K", "3",
            "--seed", str(seed)]


def test_rerun_into_same_out_dir_matches_fresh_dir(tmp_path, capsys):
    # the reports of a rerun replace those of an earlier run with other
    # results, byte for byte as a run into a new directory writes them
    csv_path = two_group_csv(tmp_path)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert run(_test_argv(csv_path, 4) + ["--out-dir", fresh]) == 0
    for seed in (5, 4):
        assert run(_test_argv(csv_path, seed) + ["--out-dir", reused]) == 0
    for name in ("report.csv", "report.json"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    capsys.readouterr()


def test_symlink_at_report_path_is_replaced(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("keep me\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.csv").symlink_to(target)
    assert run(_test_argv(two_group_csv(tmp_path), 4) + ["--out-dir", out]) == 0
    assert not (out / "report.csv").is_symlink()
    assert (out / "report.csv").read_text().startswith("test,levels,")
    assert target.read_text() == "keep me\n"
    capsys.readouterr()


@pytest.mark.parametrize("command, name", [
    ("test", "report.json"),
    ("test", "report.csv"),
    ("simulate", "power_config.json"),
    ("power-analytic", "variance_shift_power.csv"),
])
def test_directory_at_report_path_fails(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    extra = {
        "test": _test_argv(two_group_csv(tmp_path), 4)[1:],
        "simulate": ["--designs", "1", "--tests", "tau", "--reps", "1", "--perms", "19",
                     "--sizes", "3,3,3", "--T", "8", "--K", "3", "--L", "8"],
        "power-analytic": [],
    }[command]
    assert run([command, *extra, "--out-dir", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / name}: ")
    assert (out / name).is_dir()
    # every output path is checked before the first one is written, so a
    # failed run leaves none of its files behind
    assert [p.name for p in out.iterdir()] == [name]


def test_readme_config_file_example_runs(tmp_path, capsys):
    # README's "config-file equivalent" of its simulate example, run at one
    # design and one replication: every key in it must still be accepted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A config-file equivalent:", 1)[1].split("```", 2)[1]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--designs", "1", "--reps", "1", "--out-dir", out]) == 0
    config = json.loads((out / "power_config.json").read_text())
    assert config["n_perms"] == 199
    assert config["alpha_split"] == [0.025, 0.025]
    assert (config["n_terms"], config["n_draws"], config["horizon"], config["seed"]) == (19, 512, 96, 7)
    assert config["tests"] == ["cvm", "combined", "energy"]
    capsys.readouterr()


def test_readme_library_example_reproduces_funcperm_test(tmp_path, capsys):
    # README's library example is keyed as `funcperm test --seed 7` keys its
    # streams, so on CI's 30-unit sample it gives that run's report
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    csv_path = tmp_path / "sample.csv"
    _ci_sample_csv(csv_path)
    assert snippet.count('"paths.csv"') == 1
    namespace = {}
    exec(snippet.replace('"paths.csv"', repr(str(csv_path))), namespace)
    result = namespace["result"]
    assert run(["test", "--input", csv_path, "--seed", 7, "--out-dir", tmp_path / "out"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    for name in ("cvm", "mean_path"):
        assert cli._result_dict(getattr(result, name)) == report[name]
    assert (result.p_value_combined, result.rejected) == (report["combined"]["p_value"],
                                                          report["combined"]["rejected"])
    capsys.readouterr()


def _ci_sample_csv(path):
    # CI's 30-unit sample: 8 slots, group i % 3, drawn row by row
    rng = np.random.default_rng(0)
    lines = ["id,group," + ",".join(f"t{j}" for j in range(1, 9))]
    lines += [f"{i},{i % 3}," + ",".join(map(repr, rng.normal(size=8).tolist()))
              for i in range(1, 31)]
    path.write_text("\n".join(lines) + "\n")


_PINNED_TEST_ROWS = {
    0: ("3.14375,3.14375,0.02564102564", "12.73868418,16.09986473,0.1025641026", "0.05128205128"),
    1: ("3.053125,3.053125,0.02564102564", "12.73868418,12.73868418,0.02564102564", "0.05128205128"),
    2: ("4.021875,4.25,0.05128205128", "12.73868418,17.40071492,0.1538461538", "0.1025641026"),
    3: ("3.44375,3.44375,0.02564102564", "12.73868418,17.93553612,0.1538461538", "0.05128205128"),
}


@pytest.mark.parametrize("seed, mode, decisions, digest", [
    (0, "randomized", ("0.975,1", "0,0", "1"),
     "e0de648c3be9e36bf79817e4d82bbbc6192bc8cfb2dd4da67eec9138866907ed"),
    (0, "conservative", ("0,0", "0,0", "0"),
     "d6f4ca17188608591f5cf1f156dc97e1ddf96d0a013e743efc81db42e029815d"),
    # mean_path ties its critical value with phi 0.975 and its tie-break,
    # the second draw of the one decision stream, does not reject
    (1, "randomized", ("0.975,1", "0.975,0", "1"),
     "005c46fcd4e0c407f0509228b35d3f8c713b7ff2b762a452bce4517a7ec453da"),
    (1, "conservative", ("0,0", "0,0", "0"),
     "2b4597c51e01fa58ce72bf452056b8735a5f3f5ac00300c87b872bba089c3ce0"),
    (2, "randomized", ("0,0", "0,0", "0"),
     "fa250f306e981f936d6db550d0a1ab905f4624db2d43600f05389cb51432824d"),
    (2, "conservative", ("0,0", "0,0", "0"),
     "c7f4453af04b944daa7715c66812032422a35db304be91bbae349edee70413e1"),
    (3, "randomized", ("0.975,1", "0,0", "1"),
     "9a8d4f902f1429b99148e546815f065507b14ea8a20ecde89e6b7a40d147a68b"),
    (3, "conservative", ("0,0", "0,0", "0"),
     "3bea03cf6caee06cf01e4a45478a9e4fd79b662b08bac96da908d684ac766afc"),
])
def test_test_outputs_pinned(tmp_path, capsys, seed, mode, decisions, digest):
    # the measure, the plans and every tie-break of `funcperm test`, keyed
    # by the seed; the same bytes at one and at two BLAS threads
    csv_path = tmp_path / "sample.csv"
    _ci_sample_csv(csv_path)
    out = tmp_path / "out"
    assert run(["test", "--input", csv_path, "--perms", "39", "--L", "64", "--K", "3",
                "--seed", seed, "--mode", mode, "--out-dir", out]) == 0
    (cvm, mean_path, combined), label = _PINNED_TEST_ROWS[seed], '"(0.025, 0.025)"'
    assert (out / "report.csv").read_text() == (
        "test,levels,observed,critical,p_value,phi,rejected\n"
        f"cvm,{label},{cvm},{decisions[0]}\n"
        f"mean_path,{label},{mean_path},{decisions[1]}\n"
        f"combined,{label},,,{combined},,{decisions[2]}\n"
    )
    results = json.loads((out / "report.json").read_text())["results"]
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest
    capsys.readouterr()
