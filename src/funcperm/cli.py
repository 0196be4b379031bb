"""Command-line entry point.

Three subcommands:

* ``test``            run the combined two-sample/multi-treatment test on a CSV
* ``simulate``        run a Monte Carlo power study over the standard designs
* ``power-analytic``  emit the closed-form local power curves as CSV

Every option is one row of :data:`_OPTIONS`, which names its config-file
key, parser, default, the commands that take it and its flag help.  Each
command's flags and the config-file keys it accepts come from its rows;
any other flag or key, and a key given twice in one file, exits with
status 2.  A value comes from the row's default, then an optional flat
``key = value`` config file (``--config``), then the flag (later wins), and
all three go through the row's parser, so a bad value is reported with its
key or flag.  Exit status is 0 iff the report was produced; the statistical
decision never affects it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import local_power
from .measure import COEFF_LAWS
from .permutation import DECISION_MODES, _check_levels, _sampled_inputs, run_combined_test
from .samples import SampleFormatError, load_samples
from .simulate import DESIGN_IDS, TEST_NAMES, StudyConfig, run_study

# the paper's names of the tests, next to their own
_TEST_ALIASES = {"tau": "cvm", "eta": "combined", "sr": "energy", **{t: t for t in TEST_NAMES}}


def _at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return parse


def _odd(text: str) -> int:
    value = int(text)
    if value < 1 or value % 2 == 0:
        raise ValueError(f"must be an odd positive integer, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _level(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError(f"alpha levels must be positive, got {value}")
    return value


def _one_of(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
        return text

    return parse


def _mu1(text: str) -> str:
    """'auto' or a number, kept as written for the report's provenance."""
    if text != "auto":
        _finite(text)
    return text


def _design(text: str) -> int:
    value = int(text)
    if value not in DESIGN_IDS:
        raise ValueError(f"unknown design id {value}; expected 1..10")
    return value


def _test_name(text: str) -> str:
    if text.lower() not in _TEST_ALIASES:
        raise ValueError(f"unknown test {text!r}; choose from tau/eta/sr")
    return _TEST_ALIASES[text.lower()]


def _values(parse: Callable[[str], Any], count: int | None = None) -> Callable[[str], tuple]:
    """Parser of a comma-separated list: exactly ``count`` values, or at
    least one when ``count`` is None.  Empty tokens are skipped."""

    def parse_list(text: str) -> tuple:
        values = tuple(parse(tok.strip()) for tok in text.split(",") if tok.strip())
        if not values or count not in (None, len(values)):
            raise ValueError(f"expected {count or 'one or more'} comma-separated values")
        return values

    return parse_list


def _tests(text: str) -> tuple[str, ...]:
    return tuple(dict.fromkeys(_values(_test_name)(text)))


_ALL = ("test", "simulate", "power-analytic")
_RUNS = ("test", "simulate")


@dataclass(frozen=True)
class _Option:
    """One option: config-file key and attribute ``key``, flag ``--key``
    (underscores as dashes)."""

    key: str
    parse: Callable[[str], Any]
    default: str | None
    commands: tuple[str, ...]
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_OPTIONS = (
    _Option("input", str, None, ("test",), "input CSV (id,group,t1,...,tJ)"),
    _Option("out_dir", str, "funcperm_out", _ALL, "output directory"),
    _Option("alpha_tau", _level, "0.025", _ALL, "level of the CDF-distance component"),
    _Option("alpha_nu", _level, "0.025", _ALL, "level of the mean-path component"),
    _Option("perms", _at_least(19), "500", _RUNS, "number of permutation plans"),
    _Option("L", _at_least(1), "4000", _RUNS, "number of evaluation-function draws"),
    _Option("K", _odd, "19", _RUNS, "number of basis terms (odd)"),
    _Option("seed", _at_least(0), "0", _RUNS, "master seed"),
    _Option("mode", _one_of(*DECISION_MODES), "randomized", _RUNS,
            "decision rule on critical-value ties: randomized or conservative"),
    _Option("mu1", _mu1, "auto", _RUNS, "measure mean level, or 'auto'"),
    _Option("coeff_law", _one_of(*COEFF_LAWS), "gaussian", _RUNS,
            f"law of the measure's coefficients: {', '.join(COEFF_LAWS)}"),
    _Option("designs", _values(_design), ",".join(map(str, DESIGN_IDS)), ("simulate",),
            "comma-separated design ids (1..10)"),
    _Option("tests", _tests, "tau,eta,sr", ("simulate",), "comma-separated subset of tau,eta,sr"),
    _Option("reps", _at_least(1), "300", ("simulate",), "Monte Carlo replications"),
    _Option("threads", _at_least(1), "1", ("simulate",), "parallel worker cap"),
    _Option("sizes", _values(_at_least(1), 3), "20,20,20", ("simulate",),
            "control and two treatment group sizes"),
    _Option("T", _at_least(1), "96", ("simulate",), "grid points per path"),
    _Option("shift_scale", _finite, "1", ("simulate",),
            "multiplier on the standard shift magnitudes"),
    _Option("eval_points", _values(_finite, 2), None, ("power-analytic",),
            "evaluation point as 'x1,x2'"),
)
_BY_KEY = {opt.key: opt for opt in _OPTIONS}


def _read_config(path: str, command: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err}") from err
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _BY_KEY:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        if command not in _BY_KEY[key].commands:
            raise ValueError(f"{path}:{line_no}: config key {key!r} does not apply to {command}")
        if key in first_line:
            raise ValueError(
                f"{path}:{line_no}: duplicate config key {key!r} (first at line {first_line[key]})"
            )
        first_line[key] = line_no
        values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command's option values: row default, then file, then flag."""
    rows = [opt for opt in _OPTIONS if args.command in opt.commands]
    cfg = dict.fromkeys(opt.key for opt in rows)
    sources = (
        ("default", {opt.key: opt.default for opt in rows}),
        ("config key", _read_config(args.config, args.command) if args.config else {}),
        ("flag", vars(args)),
    )
    for source, texts in sources:
        for opt in rows:
            if texts.get(opt.key) is None:
                continue
            try:
                value = opt.parse(texts[opt.key])
            except ValueError as err:
                name = opt.flag if source == "flag" else f"{source} {opt.key!r}"
                raise ValueError(f"{name}: {err}") from None
            cfg[opt.key] = value
    _check_levels(cfg["alpha_tau"], cfg["alpha_nu"])
    return argparse.Namespace(**cfg)


def _out_dir(path: str) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValueError(f"cannot create output directory {path}: {err}") from err
    return out_dir


def _write(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each text to its file name in ``out_dir``, as a new file.

    Whatever is at each path is unlinked first: a symbolic link is
    replaced, never written through, and no old file is truncated in place,
    which costs tens of milliseconds on some file systems where unlinking it
    and creating a new one costs microseconds.  Every path is unlinked
    before the first text is written, so a path that cannot be replaced
    fails the command before it writes any file.
    """
    paths = {out_dir / name: text for name, text in texts.items()}
    try:
        for path in paths:
            path.unlink(missing_ok=True)
        for path, text in paths.items():
            path.write_text(text)
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err}") from err


def cmd_test(cfg: argparse.Namespace) -> int:
    if cfg.input is None:
        raise ValueError("the test command needs --input")
    try:
        sample = load_samples(cfg.input)
    except OSError as err:
        raise ValueError(f"cannot read {cfg.input}: {err}") from err
    if sample.n_groups < 2:
        raise ValueError("the test needs at least two groups")
    out_dir = _out_dir(cfg.out_dir)

    mean_level, draws, plans = _sampled_inputs(
        sample.paths, sample.group_sizes, sample.grid.horizon, (cfg.seed,),
        cfg.K, cfg.mu1, cfg.coeff_law, cfg.L, cfg.perms,
    )
    result = run_combined_test(
        sample, draws, plans, cfg.alpha_tau, cfg.alpha_nu, cfg.mode, seed=(cfg.seed, 3)
    )

    label = f"({cfg.alpha_tau:g}, {cfg.alpha_nu:g})"
    report = {
        "command": "test",
        "input": str(cfg.input),
        "group_sizes": list(sample.group_sizes),
        "n_units": sample.n_units,
        "horizon": sample.grid.horizon,
        "levels": label,
        "provenance": {
            "seed": cfg.seed,
            "K": cfg.K,
            "L": cfg.L,
            "n_perms": cfg.perms,
            "alpha_tau": cfg.alpha_tau,
            "alpha_nu": cfg.alpha_nu,
            "mode": cfg.mode,
            "mu1": cfg.mu1,
            "coeff_law": cfg.coeff_law,
            "mu1_value": mean_level,
        },
        "results": {
            "cvm": _result_dict(result.cvm),
            "mean_path": _result_dict(result.mean_path),
            "combined": {
                "rejected": result.rejected,
                "p_value": result.p_value_combined,
                "note": "combined p-value is the weighted-Bonferroni inversion "
                "of the component p-values",
            },
        },
    }
    csv_lines = ["test,levels,observed,critical,p_value,phi,rejected"]
    for name, res in (("cvm", result.cvm), ("mean_path", result.mean_path)):
        csv_lines.append(
            f"{name},\"{label}\",{res.observed:.10g},{res.critical:.10g},"
            f"{res.p_value:.10g},{res.phi:.10g},{int(res.rejected)}"
        )
    csv_lines.append(
        f"combined,\"{label}\",,,{result.p_value_combined:.10g},,{int(result.rejected)}"
    )
    _write(out_dir, {
        "report.json": json.dumps(report, indent=2) + "\n",
        "report.csv": "\n".join(csv_lines) + "\n",
    })

    print(f"groups: {list(sample.group_sizes)}  grid points: {sample.grid.horizon}")
    print(f"levels {label}  permutations {cfg.perms}  draws {cfg.L}")
    print(f"{'test':<12}{'observed':>12}{'critical':>12}{'p':>9}{'reject':>8}")
    for name, res in (("cvm", result.cvm), ("mean_path", result.mean_path)):
        print(
            f"{name:<12}{res.observed:>12.5f}{res.critical:>12.5f}"
            f"{res.p_value:>9.4f}{str(res.rejected):>8}"
        )
    print(
        f"{'combined':<12}{'':>12}{'':>12}{result.p_value_combined:>9.4f}"
        f"{str(result.rejected):>8}"
    )
    print(f"report written to {out_dir}")
    return 0


def _result_dict(res) -> dict:
    fields = ("observed", "critical", "p_value", "phi", "rejected", "level", "mode")
    return {field: getattr(res, field) for field in fields}


def cmd_simulate(cfg: argparse.Namespace) -> int:
    config = StudyConfig(
        designs=cfg.designs,
        tests=cfg.tests,
        reps=cfg.reps,
        n_perms=cfg.perms,
        group_sizes=cfg.sizes,
        horizon=cfg.T,
        alpha_split=(cfg.alpha_tau, cfg.alpha_nu),
        n_terms=cfg.K,
        n_draws=cfg.L,
        coeff_law=cfg.coeff_law,
        mean_level=cfg.mu1,
        seed=cfg.seed,
        shift_scale=cfg.shift_scale,
        mode=cfg.mode,
    )
    out_dir = _out_dir(cfg.out_dir)
    table = run_study(config, cfg.threads)
    _write(out_dir, {
        "power_table.csv": table.to_csv_text(),
        "power_config.json": json.dumps(asdict(table.config), indent=2) + "\n",
    })
    print(table.format_table())
    print(f"table written to {out_dir}")
    return 0


def cmd_power_analytic(cfg: argparse.Namespace) -> int:
    out_dir = _out_dir(cfg.out_dir)
    x1, x2 = cfg.eval_points or (None, None)
    level = cfg.alpha_tau + cfg.alpha_nu
    texts = {
        f"{kind}_shift_power.csv": local_power.shift_curve(kind, x1=x1, x2=x2, level=level).to_csv_text()
        for kind in local_power.SHIFTS
    }
    _write(out_dir, texts)
    print(f"curves written to {out_dir}: {', '.join(texts)}")
    return 0


_COMMANDS = {
    "test": ("test a CSV of observed paths", cmd_test),
    "simulate": ("Monte Carlo power study", cmd_simulate),
    "power-analytic": ("closed-form power curves", cmd_power_analytic),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcperm",
        description="Exact permutation tests for equality of distributions "
        "of functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        p_cmd.add_argument("--config", help="flat key = value config file")
        for opt in _OPTIONS:
            if command in opt.commands:
                p_cmd.add_argument(opt.flag, dest=opt.key, help=opt.help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][1](_resolve(args))
    except (ValueError, SampleFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
