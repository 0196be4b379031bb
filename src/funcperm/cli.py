"""Command-line entry point.

Three subcommands:

* ``test``            run the combined two-sample/multi-treatment test on a CSV
* ``simulate``        run a Monte Carlo power study over the standard designs
* ``power-analytic``  emit the closed-form local power curves as CSV

Options come from defaults, then an optional flat ``key = value`` config
file, then command-line flags (later wins).  Exit status is 0 iff the
report was produced; the statistical decision never affects it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import local_power
from .measure import COEFF_LAWS, MeasureSpec, draw_functions, median_peak
from .permutation import make_plans, run_combined_test
from .samples import SampleFormatError, load_samples
from .simulate import DESIGN_IDS, run_power_study

_TEST_ALIASES = {
    "tau": "cvm",
    "cvm": "cvm",
    "eta": "combined",
    "combined": "combined",
    "sr": "energy",
    "energy": "energy",
}

_CONFIG_KEYS = {
    "input", "out_dir", "alpha_tau", "alpha_nu", "alpha_split", "perms",
    "n_perms", "K", "L", "seed", "mode", "threads", "mu1", "coeff_law",
    "designs", "tests", "reps", "sizes", "T", "shift_scale", "eval_points",
}


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    out_dir: str = "funcperm_out"
    alpha_tau: float = 0.025
    alpha_nu: float = 0.025
    n_perms: int = 500
    n_draws: int = 4000
    n_terms: int = 19
    seed: int = 0
    mode: str = "randomized"
    threads: int = 1
    mu1: str = "auto"
    coeff_law: str = "gaussian"
    designs: tuple[int, ...] = DESIGN_IDS
    tests: tuple[str, ...] = ("cvm", "combined", "energy")
    reps: int = 300
    sizes: tuple[int, ...] = (20, 20, 20)
    horizon: int = 96
    shift_scale: float = 1.0
    eval_points: tuple[float, float] | None = None

    def validate(self) -> None:
        if not (self.alpha_tau > 0 and self.alpha_nu > 0):
            raise ValueError("alpha levels must be positive")
        if not self.alpha_tau + self.alpha_nu < 1:
            raise ValueError("alpha levels must sum to less than one")
        if self.n_perms < 19:
            raise ValueError("need at least 19 permutations")
        if self.n_terms < 1 or self.n_terms % 2 == 0:
            raise ValueError("K must be an odd positive integer")
        if self.n_draws < 1:
            raise ValueError("L must be positive")
        if self.mode not in ("randomized", "conservative"):
            raise ValueError("mode must be randomized or conservative")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.mu1 != "auto":
            float(self.mu1)
        if self.coeff_law not in COEFF_LAWS:
            raise ValueError(f"coeff_law must be one of {COEFF_LAWS}")


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value
    return values


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = _parse_config_file(args.config) if args.config else {}
    if "threads" in file_values and args.command != "simulate":
        raise ValueError(f"config key 'threads' does not apply to {args.command}")

    def pick(flag, key, parse=lambda v: v):
        if flag is not None:
            return flag
        if key in file_values:
            return parse(file_values[key])
        return None

    def setattr_if(name, value):
        if value is not None:
            setattr(cfg, name, value)

    setattr_if("input", pick(getattr(args, "input", None), "input"))
    setattr_if("out_dir", pick(args.out_dir, "out_dir"))
    alpha_split = pick(None, "alpha_split", _floats)
    if alpha_split is not None:
        if len(alpha_split) != 2:
            raise ValueError("alpha_split must hold two values")
        cfg.alpha_tau, cfg.alpha_nu = alpha_split
    setattr_if("alpha_tau", pick(args.alpha_tau, "alpha_tau", float))
    setattr_if("alpha_nu", pick(args.alpha_nu, "alpha_nu", float))
    setattr_if("n_perms", pick(args.perms, "perms", int) or pick(None, "n_perms", int))
    setattr_if("n_draws", pick(args.L, "L", int))
    setattr_if("n_terms", pick(args.K, "K", int))
    setattr_if("seed", pick(args.seed, "seed", int))
    setattr_if("mode", pick(args.mode, "mode"))
    setattr_if("threads", pick(getattr(args, "threads", None), "threads", int))
    setattr_if("mu1", pick(getattr(args, "mu1", None), "mu1"))
    setattr_if("coeff_law", pick(getattr(args, "coeff_law", None), "coeff_law"))
    designs = pick(getattr(args, "designs", None), "designs", _ints)
    if designs is not None:
        cfg.designs = tuple(designs) if not isinstance(designs, str) else _ints(designs)
    tests = pick(getattr(args, "tests", None), "tests")
    if tests is not None:
        tokens = [tok.strip().lower() for tok in tests.split(",") if tok.strip()]
        unknown = [tok for tok in tokens if tok not in _TEST_ALIASES]
        if unknown:
            raise ValueError(f"unknown tests {unknown}; choose from tau/eta/sr")
        cfg.tests = tuple(dict.fromkeys(_TEST_ALIASES[tok] for tok in tokens))
    setattr_if("reps", pick(getattr(args, "reps", None), "reps", int))
    sizes = pick(getattr(args, "sizes", None), "sizes", _ints)
    if sizes is not None:
        cfg.sizes = tuple(sizes) if not isinstance(sizes, str) else _ints(sizes)
    setattr_if("horizon", pick(getattr(args, "T", None), "T", int))
    setattr_if("shift_scale", pick(getattr(args, "shift_scale", None), "shift_scale", float))
    eval_points = pick(getattr(args, "eval_points", None), "eval_points")
    if eval_points is not None:
        points = _floats(eval_points) if isinstance(eval_points, str) else eval_points
        if len(points) != 2:
            raise ValueError("eval points must be two comma-separated numbers")
        cfg.eval_points = (points[0], points[1])
    cfg.validate()
    return cfg


def _provenance(cfg: RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "K": cfg.n_terms,
        "L": cfg.n_draws,
        "n_perms": cfg.n_perms,
        "alpha_tau": cfg.alpha_tau,
        "alpha_nu": cfg.alpha_nu,
        "mode": cfg.mode,
        "mu1": cfg.mu1,
        "coeff_law": cfg.coeff_law,
    }


def _level_label(cfg: RunConfig) -> str:
    return f"({cfg.alpha_tau:g}, {cfg.alpha_nu:g})"


def cmd_test(cfg: RunConfig) -> int:
    if cfg.input is None:
        raise ValueError("the test command needs --input")
    try:
        sample = load_samples(cfg.input)
    except OSError as err:
        raise ValueError(f"cannot read {cfg.input}: {err}") from err
    if sample.n_groups < 2:
        raise ValueError("the test needs at least two groups")

    mean_level = median_peak(sample) if cfg.mu1 == "auto" else float(cfg.mu1)
    spec = MeasureSpec(
        n_terms=cfg.n_terms,
        mean_level=mean_level,
        law=cfg.coeff_law,
        seed=(cfg.seed, 1),
    )
    draws = draw_functions(spec, sample.grid, cfg.n_draws)
    plans = make_plans(sample.group_sizes, "sampled", cfg.n_perms, seed=(cfg.seed, 2))
    result = run_combined_test(
        sample, draws, plans, cfg.alpha_tau, cfg.alpha_nu, cfg.mode, seed=(cfg.seed, 3)
    )

    label = _level_label(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": "test",
        "input": str(cfg.input),
        "group_sizes": list(sample.group_sizes),
        "n_units": sample.n_units,
        "horizon": sample.grid.horizon,
        "levels": label,
        "provenance": {**_provenance(cfg), "mu1_value": mean_level},
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
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    csv_lines = ["test,levels,observed,critical,p_value,phi,rejected"]
    for name, res in (("cvm", result.cvm), ("mean_path", result.mean_path)):
        csv_lines.append(
            f"{name},\"{label}\",{res.observed:.10g},{res.critical:.10g},"
            f"{res.p_value:.10g},{res.phi:.10g},{int(res.rejected)}"
        )
    csv_lines.append(
        f"combined,\"{label}\",,,{result.p_value_combined:.10g},,{int(result.rejected)}"
    )
    (out_dir / "report.csv").write_text("\n".join(csv_lines) + "\n")

    print(f"groups: {list(sample.group_sizes)}  grid points: {sample.grid.horizon}")
    print(f"levels {label}  permutations {cfg.n_perms}  draws {cfg.n_draws}")
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
    return {
        "observed": res.observed,
        "critical": res.critical,
        "p_value": res.p_value,
        "phi": res.phi,
        "rejected": res.rejected,
        "level": res.level,
        "mode": res.mode,
    }


def cmd_simulate(cfg: RunConfig) -> int:
    unknown = [d for d in cfg.designs if d not in DESIGN_IDS]
    if unknown:
        raise ValueError(f"unknown design id(s) {unknown}; expected 1..10")
    table = run_power_study(
        designs=cfg.designs,
        tests=cfg.tests,
        reps=cfg.reps,
        n_perms=cfg.n_perms,
        group_sizes=cfg.sizes,
        horizon=cfg.horizon,
        alpha_split=(cfg.alpha_tau, cfg.alpha_nu),
        n_terms=cfg.n_terms,
        n_draws=cfg.n_draws,
        coeff_law=cfg.coeff_law,
        mean_level="auto" if cfg.mu1 == "auto" else float(cfg.mu1),
        seed=cfg.seed,
        shift_scale=cfg.shift_scale,
        mode=cfg.mode,
        threads=cfg.threads,
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "power_table.csv").write_text(table.to_csv_text())
    (out_dir / "power_config.json").write_text(json.dumps(table.config, indent=2) + "\n")
    print(table.format_table())
    print(f"table written to {out_dir}")
    return 0


def cmd_power_analytic(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    level = cfg.alpha_tau + cfg.alpha_nu

    mean_points = cfg.eval_points or (0.4, 0.4)
    var_points = cfg.eval_points or (-0.4, 0.4)
    corr_points = cfg.eval_points or (-0.2, 0.2)

    mean_curve = local_power.mean_shift_curve(
        np.sqrt(np.linspace(0.0, 100.0, 41)), *mean_points, level=level
    )
    var_curve = local_power.variance_shift_curve(
        np.linspace(0.0, 3.0, 31), *var_points, level=level
    )
    corr_curve = local_power.correlation_shift_curve(
        np.linspace(0.0, 3.0, 31), *corr_points, level=level
    )
    files = {
        "mean_shift_power.csv": mean_curve,
        "variance_shift_power.csv": var_curve,
        "correlation_shift_power.csv": corr_curve,
    }
    for name, curve in files.items():
        (out_dir / name).write_text(curve.to_csv_text())
    print(f"curves written to {out_dir}: {', '.join(files)}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--alpha-tau", dest="alpha_tau", type=float,
                        help="level of the CDF-distance component")
    parser.add_argument("--alpha-nu", dest="alpha_nu", type=float,
                        help="level of the mean-path component")
    parser.add_argument("--perms", type=int, help="number of permutation plans")
    parser.add_argument("--L", type=int, help="number of evaluation-function draws")
    parser.add_argument("--K", type=int, help="number of basis terms (odd)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--mode", choices=("randomized", "conservative"),
                        help="decision rule on critical-value ties")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcperm",
        description="Exact permutation tests for equality of distributions "
        "of functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a CSV of observed paths")
    _add_common(p_test)
    p_test.add_argument("--input", help="input CSV (id,group,t1,...,tJ)")
    p_test.add_argument("--mu1", help="measure mean level, or 'auto'")
    p_test.add_argument("--coeff-law", dest="coeff_law", choices=COEFF_LAWS)

    p_sim = sub.add_parser("simulate", help="Monte Carlo power study")
    _add_common(p_sim)
    p_sim.add_argument("--designs", help="comma-separated design ids (1..10)")
    p_sim.add_argument("--tests", help="comma-separated subset of tau,eta,sr")
    p_sim.add_argument("--reps", type=int, help="Monte Carlo replications")
    p_sim.add_argument("--threads", type=int, help="parallel worker cap")
    p_sim.add_argument("--sizes", help="comma-separated group sizes")
    p_sim.add_argument("--T", type=int, help="grid points per path")
    p_sim.add_argument("--shift-scale", dest="shift_scale", type=float,
                       help="multiplier on the standard shift magnitudes")
    p_sim.add_argument("--mu1", help="measure mean level, or 'auto'")
    p_sim.add_argument("--coeff-law", dest="coeff_law", choices=COEFF_LAWS)

    p_pow = sub.add_parser("power-analytic", help="closed-form power curves")
    _add_common(p_pow)
    p_pow.add_argument("--eval-points", dest="eval_points",
                       help="evaluation point as 'x1,x2'")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "test":
            return cmd_test(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_power_analytic(cfg)
    except (ValueError, SampleFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
