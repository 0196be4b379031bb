"""The benchmark's workloads: inputs, ops, output checks and decompositions.

Every input is built here from the workload seed with the benchmark's own
numpy generator, never with ``funcperm.simulate``, so a change to the
program's simulator or RNG cannot change what is measured.  Op ``i`` gets
inputs and a program seed derived from (workload seed, i), so no result
cache can answer a repeated call.

Each workload has two ways to run an op on the same input:

* ``run``: what a user runs (the CLI, ``run_power_study`` or
  ``run_combined_test``); this is what the end-to-end metrics time;
* ``decomposed``: the same computation as a sequence of public funcperm
  calls, in the order the program makes them, with a tracer span around
  each layer.  Work the program does inside one call is split so that each
  layer can be timed alone; what the split adds is timed in spans of its
  own and taken out again (see ``permutation_layers``).

Why these workloads:

* ``cohort_test``: ``funcperm test`` at the real cohort scale (5 groups,
  N=1492, J=48, L=4000, Q=500).  The only workload that parses a CSV and
  writes a report; the indicator build (N*L*J = 2.9e8 comparisons)
  dominates.
* ``power_study``: ``run_power_study`` over designs 1-10 with the cvm,
  combined and energy tests at 3x20 units, J=96, L=512, Q=199.  N and L
  are small, so per-draw and per-plan generator set-up and Python overhead
  dominate.  The only workload that simulates paths and runs the energy
  statistic.
* ``exhaustive_exact``: all 48,620 plans of a 9+9 sample, L=512, J=48.
  Plan enumeration and the per-plan CvM reduction dominate while the
  indicator build is negligible, so an indicator optimisation should show
  no change here.  Not in BENCHMARK.json: it allocates about 600 MB of
  temporaries per op, and on a shared 2-core host its run medians spread by
  15-23 % between runs, more than the largest allowed bound can hold.  It
  runs, checked, with ``--workload exhaustive_exact`` or ``all``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import funcperm as fp
import reference
from funcperm import cli
from spans import Tracer

ALPHAS = (0.025, 0.025)
MODE = "randomized"


def op_seed(workload_seed: int, index: int) -> int:
    """The program seed of op ``index``."""
    return int(np.random.SeedSequence([workload_seed, index, 1]).generate_state(1)[0])


def input_rng(workload_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([workload_seed, index, 0])


def ar_paths(rng, n, horizon, mean_shift=0.0, sd_shift=0.0, rho_shift=0.0):
    """Gaussian paths with a daily-periodic mean, sd 0.5 and lag-one
    correlation 0.4, each optionally shifted."""
    angle = 2.0 * np.pi * (np.arange(horizon) % 48) / 48
    mean = 1.6 + 0.6 * np.sin(angle) + 0.3 * np.sin(2.0 * angle) + mean_shift
    rho = 0.4 + rho_shift
    noise = rng.standard_normal((n, horizon))
    latent = np.empty_like(noise)
    latent[:, 0] = noise[:, 0]
    for t in range(1, horizon):
        latent[:, t] = rho * latent[:, t - 1] + np.sqrt(1.0 - rho**2) * noise[:, t]
    return mean + (0.5 + sd_shift) * latent


def kernel_counts(n, draws, horizon, groups, plans, calls=1) -> dict:
    """Computed, not measured, work of the indicator build and the CvM
    reduction.  Bytes are compulsory traffic: inputs read once and output
    written once, in float64; cache misses are ignored."""
    return {
        "stats.indicator_gcmp_computed": calls * n * draws * horizon / 1e9,
        "stats.indicator_mb_computed": calls * 8 * (n * horizon + draws * horizon + n * draws) / 1e6,
        "permutation.cvm_gflop_computed": calls * 2 * groups * plans * n * draws / 1e9,
        "permutation.cvm_mb_computed": calls * 8 * (groups * plans * n + n * draws + groups * plans * draws) / 1e6,
    }


def permutation_layers(tr, pooled, sizes, plans, draws, statistics) -> dict:
    """Plan statistics, split into layers.

    The program makes one ``permutation_statistics`` call with every
    statistic; here each statistic gets its own call, so that each can be
    timed.  Every call repeats the same set-up (plan matrix, group masks,
    size checks), which is timed once on its own as ``permutation.setup``
    (a call with no statistics) and taken out of each statistic's time.
    The indicator matrix, which the program builds inside the cvm call, is
    built once more on its own as ``stats.indicator`` and taken out of the
    cvm time.  Memory peaks come from extra runs outside these spans.
    """
    with tr.span("trace.count"):
        tr.add("plans", len(plans))
        tr.add("distinct_plans", np.unique(np.stack([p.assignment for p in plans]), axis=0).shape[0])
    tr.call("permutation.setup", lambda: fp.permutation_statistics(pooled, sizes, plans, (), draws))
    stats = {}
    for name in statistics:
        if name == "cvm":
            below = tr.call("stats.indicator", lambda: fp.indicator_matrix(pooled, draws.values))
            with tr.span("trace.count"):
                pooled_count = below.sum(axis=0)
                tr.add("informative_draws", np.count_nonzero((pooled_count > 0) & (pooled_count < below.shape[0])))
                tr.add("comparisons", below.size * pooled.shape[1])
            del below
            tr.peak("stats.indicator", lambda: fp.indicator_matrix(pooled, draws.values))
            tr.peak("permutation.cvm", lambda: fp.permutation_statistics(pooled, sizes, plans, ("cvm",), draws))
        stats[name] = tr.call(
            f"permutation.{name}", lambda: fp.permutation_statistics(pooled, sizes, plans, (name,), draws)[name]
        )
    if "cvm" in stats:
        with tr.span("trace.count"):
            tr.add("distinct_cvm_stats", np.unique(stats["cvm"]).size)
    return stats


def decide_layer(tr, stats, tests, rng) -> dict:
    """Decisions for ``tests`` = (key, statistic, alpha), in the program's order."""
    with tr.span("permutation.decide"):
        results = {}
        for key, name, alpha in tests:
            dist = fp.PermutationDistribution(stats[name])
            results[key] = fp.decide(dist.observed, dist, alpha, MODE, rng)
    with tr.span("trace.count"):
        for key, name, _ in tests:
            if name == "cvm":
                tr.add("cvm_decisions", 1)
                tr.add("ties_at_critical", np.count_nonzero(stats["cvm"] == results[key].critical))
    return results


def combined_layers(tr, sample, plans, draws, seed) -> dict:
    """``run_combined_test`` as a sequence of layer calls; returns its check record."""
    pooled, sizes = fp.pooled_by_group(sample)
    stats = permutation_layers(tr, pooled, sizes, plans, draws, ("cvm", "mean_path"))
    tests = (("cvm", "cvm", ALPHAS[0]), ("mean_path", "mean_path", ALPHAS[1]))
    results = decide_layer(tr, stats, tests, fp.substream(seed, 1))
    with tr.span("permutation.decide"):
        combined = fp.combine_tests(results["cvm"], results["mean_path"])
    return combined_record(reference.split_groups(pooled, sizes), draws.values, combined, len(plans))


def combined_record(groups, draws, result, n_plans) -> dict:
    return {
        "groups": groups,
        "draws": draws,
        "observed": {"cvm": result.cvm.observed, "mean_path": result.mean_path.observed},
        "p_values": {"cvm": result.cvm.p_value, "mean_path": result.mean_path.p_value},
        "n_plans": n_plans,
        "p_combined": result.p_value_combined,
        "alphas": ALPHAS,
    }


class CohortTest:
    name = "cohort_test"
    sizes = (304, 297, 297, 297, 297)
    # (mean, sd, lag-one correlation) shift of each group; group 0 is control.
    shifts = ((0, 0, 0), (0.05, 0, 0), (0, 0.05, 0), (0, 0, 0.2), (0, 0, 0))
    horizon, n_draws, n_plans, n_terms = 48, 4000, 500, 19

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.csv = workdir / "cohort.csv"
        self.out_dir = workdir / "report"

    def prepare(self, index: int) -> dict:
        rng = input_rng(self.seed, index)
        groups = [ar_paths(rng, n, self.horizon, *shift) for n, shift in zip(self.sizes, self.shifts)]
        pooled = np.vstack(groups)
        labels = np.repeat(np.arange(len(self.sizes)), self.sizes)
        lines = ["id,group," + ",".join(f"t{j}" for j in range(1, self.horizon + 1))]
        for unit, row in enumerate(rng.permutation(len(labels)), start=1):
            lines.append(f"{unit},{labels[row]}," + ",".join(map(repr, pooled[row].tolist())))
        self.csv.write_text("\n".join(lines) + "\n")
        (self.out_dir / "report.json").unlink(missing_ok=True)
        return {"seed": op_seed(self.seed, index), "groups": groups, "csv_bytes": self.csv.stat().st_size}

    def run(self, inp):
        argv = [
            "test", "--input", str(self.csv), "--perms", str(self.n_plans),
            "--L", str(self.n_draws), "--K", str(self.n_terms),
            "--seed", str(inp["seed"]), "--out-dir", str(self.out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"funcperm test exited with status {status}")

    def check_run(self, inp, _) -> list[str]:
        report = json.loads((self.out_dir / "report.json").read_text())
        if report["group_sizes"] != list(self.sizes):
            return [f"report group sizes {report['group_sizes']} != {list(self.sizes)}"]
        # The draws are re-derived from the report's provenance, keyed as
        # cmd_test keys them: measure seed (seed, 1).
        prov = report["provenance"]
        spec = fp.MeasureSpec(
            n_terms=prov["K"], mean_level=prov["mu1_value"], law=prov["coeff_law"], seed=(prov["seed"], 1)
        )
        draws = fp.draw_functions(spec, fp.TimeGrid.regular(self.horizon), prov["L"]).values
        res = report["results"]
        return reference.check_test({
            "groups": inp["groups"],
            "draws": draws,
            "observed": {k: res[k]["observed"] for k in ("cvm", "mean_path")},
            "p_values": {k: res[k]["p_value"] for k in ("cvm", "mean_path")},
            "n_plans": self.n_plans,
            "p_combined": res["combined"]["p_value"],
            "alphas": ALPHAS,
        })

    def decomposed(self, inp, tr) -> list[dict]:
        """``cli.cmd_test`` without its report writing."""
        seed = inp["seed"]
        with tr.span("samples.load"):
            sample = fp.load_samples(self.csv)
        tr.add("csv_bytes", inp["csv_bytes"])
        with tr.span("measure.draw"):
            spec = fp.MeasureSpec(n_terms=self.n_terms, mean_level=fp.median_peak(sample), seed=(seed, 1))
            draws = fp.draw_functions(spec, sample.grid, self.n_draws)
        tr.add("draws", self.n_draws)
        with tr.span("permutation.plans"):
            plans = fp.make_plans(sample.group_sizes, "sampled", self.n_plans, seed=(seed, 2))
        return [combined_layers(tr, sample, plans, draws, (seed, 3))]

    def check_decomposed(self, inp, records) -> list[str]:
        return [p for r in records for p in reference.check_test(r)]

    def computed(self) -> dict:
        return kernel_counts(sum(self.sizes), self.n_draws, self.horizon, len(self.sizes), self.n_plans)


class PowerStudy:
    name = "power_study"
    designs = tuple(range(1, 11))
    tests = ("cvm", "combined", "energy")
    sizes = (20, 20, 20)
    horizon, n_draws, n_plans, n_terms = 96, 512, 199, 19
    # Replications per design in one op: 40 per op, about 1 s.  Fewer, longer
    # ops put the tail percentile lower (about p70), where it is not decided
    # by a few seconds of interference from other tenants of the host.
    reps = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self, index: int) -> dict:
        return {"seed": op_seed(self.seed, index)}

    def study(self, seed: int, threads: int):
        return fp.run_power_study(
            designs=self.designs, tests=self.tests, reps=self.reps, n_perms=self.n_plans,
            group_sizes=self.sizes, horizon=self.horizon, alpha_split=ALPHAS,
            n_terms=self.n_terms, n_draws=self.n_draws, seed=seed, threads=threads,
        )

    def run(self, inp):
        return self.study(inp["seed"], threads=1)

    def check_run(self, inp, table) -> list[str]:
        expected = len(self.designs) * len(self.tests)
        if len(table.rows) != expected:
            return [f"power table has {len(table.rows)} rows, expected {expected}"]
        return [f"rate {r.rate!r} outside [0, 1]" for r in table.rows if not 0.0 <= r.rate <= 1.0]

    def check_once(self, inp, table, workers: int) -> list[str]:
        """Checks too slow for every op, made on one op's table: the
        decomposition of the same op must pass the reference checks and give
        every row's rate, and the table must not depend on the number of
        worker processes."""
        records = self.decomposed(inp, Tracer())
        problems = self.check_decomposed(inp, records)
        hits: dict = {}
        for record in records:
            for test, rejected in record["rejected"].items():
                hits[record["design"], test] = hits.get((record["design"], test), 0) + rejected
        problems += [
            f"design {r.design_id} {r.test}: rate {r.rate!r}, decomposition gives {hits.get((r.design_id, r.test))}/{self.reps}"
            for r in table.rows
            if r.rate != hits.get((r.design_id, r.test), -1) / self.reps
        ]
        parallel = self.study(inp["seed"], threads=workers)
        if table.rows != parallel.rows or table.to_csv_text() != parallel.to_csv_text():
            problems.append(f"power table differs between threads=1 and threads={workers}")
        return problems

    def decomposed(self, inp, tr) -> list[dict]:
        """``run_power_study`` with threads=1, one ``run_replication`` at a time."""
        seed = inp["seed"]
        baseline = fp.synthetic_baseline(self.horizon)
        grid = fp.TimeGrid.regular(self.horizon)
        total = sum(ALPHAS)
        tests = (
            ("cvm", "cvm", total),
            ("combined_cvm", "cvm", ALPHAS[0]),
            ("combined_mean", "mean_path", ALPHAS[1]),
            ("energy", "energy", total),
        )
        records = []
        for design_id in self.designs:
            design = fp.apply_design(design_id, baseline, self.sizes)
            for rep in range(self.reps):
                with tr.span("simulate.paths"):
                    rng = fp.substream(seed, design_id, rep, 0)
                    pooled = np.vstack([fp.simulate_paths(p, n, rng) for p, n in zip(design.groups, self.sizes)])
                with tr.span("measure.draw"):
                    spec = fp.MeasureSpec(
                        n_terms=self.n_terms, mean_level=fp.median_peak(pooled), seed=(seed, design_id, rep, 1)
                    )
                    draws = fp.draw_functions(spec, grid, self.n_draws)
                tr.add("draws", self.n_draws)
                with tr.span("permutation.plans"):
                    plans = fp.make_plans(self.sizes, "sampled", self.n_plans, seed=(seed, design_id, rep, 2))
                stats = permutation_layers(tr, pooled, self.sizes, plans, draws, ("cvm", "mean_path", "energy"))
                results = decide_layer(tr, stats, tests, fp.substream(seed, design_id, rep, 3))
                records.append({
                    "design": design_id,
                    "rejected": {
                        "cvm": results["cvm"].rejected,
                        "combined": results["combined_cvm"].rejected or results["combined_mean"].rejected,
                        "energy": results["energy"].rejected,
                    },
                    "groups": reference.split_groups(pooled, self.sizes),
                    "draws": draws.values,
                    "observed": {name: float(values[0]) for name, values in stats.items()},
                    "p_values": {
                        "cvm": results["cvm"].p_value,
                        "mean_path": results["combined_mean"].p_value,
                        "energy": results["energy"].p_value,
                    },
                    "n_plans": self.n_plans,
                })
        return records

    def check_decomposed(self, inp, records) -> list[str]:
        expected = len(self.designs) * self.reps
        if len(records) != expected:
            return [f"{len(records)} replications, expected {expected}"]
        return [p for r in records for p in reference.check_test(r)]

    def computed(self) -> dict:
        calls = len(self.designs) * self.reps
        return kernel_counts(sum(self.sizes), self.n_draws, self.horizon, len(self.sizes), self.n_plans, calls)


class ExhaustiveExact:
    name = "exhaustive_exact"
    sizes = (9, 9)
    horizon, n_draws, n_terms = 48, 512, 19
    n_plans = 48_620  # 18 choose 9

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self, index: int) -> dict:
        rng = input_rng(self.seed, index)
        groups = [ar_paths(rng, self.sizes[0], self.horizon), ar_paths(rng, self.sizes[1], self.horizon, 0.1)]
        sample = fp.FunctionalSample(
            np.vstack(groups), np.repeat([0, 1], self.sizes), fp.TimeGrid.regular(self.horizon)
        )
        return {"seed": op_seed(self.seed, index), "groups": groups, "sample": sample}

    def draws(self, sample, seed):
        spec = fp.MeasureSpec(n_terms=self.n_terms, mean_level=fp.median_peak(sample), seed=(seed, 1))
        return fp.draw_functions(spec, sample.grid, self.n_draws)

    def run(self, inp):
        plans = fp.make_plans(self.sizes, "exhaustive")
        draws = self.draws(inp["sample"], inp["seed"])
        result = fp.run_combined_test(inp["sample"], draws, plans, *ALPHAS, MODE, seed=(inp["seed"], 3))
        return plans, draws, result

    def check_plans(self, plans) -> list[str]:
        rows = np.stack([p.assignment for p in plans])
        identity = np.repeat(np.arange(len(self.sizes)), self.sizes)
        problems = []
        if rows.shape[0] != self.n_plans:
            problems.append(f"{rows.shape[0]} plans, expected {self.n_plans}")
        if not np.array_equal(rows[0], identity):
            problems.append("plan 0 is not the identity")
        return problems

    def check_run(self, inp, out) -> list[str]:
        plans, draws, result = out
        record = combined_record(inp["groups"], draws.values, result, len(plans))
        return self.check_plans(plans) + reference.check_test(record)

    def decomposed(self, inp, tr):
        with tr.span("permutation.plans"):
            plans = fp.make_plans(self.sizes, "exhaustive")
        with tr.span("measure.draw"):
            draws = self.draws(inp["sample"], inp["seed"])
        tr.add("draws", self.n_draws)
        return plans, [combined_layers(tr, inp["sample"], plans, draws, (inp["seed"], 3))]

    def check_decomposed(self, inp, out) -> list[str]:
        plans, records = out
        return self.check_plans(plans) + [p for r in records for p in reference.check_test(r)]

    def computed(self) -> dict:
        return kernel_counts(sum(self.sizes), self.n_draws, self.horizon, len(self.sizes), self.n_plans)


WORKLOADS = {w.name: w for w in (CohortTest, PowerStudy, ExhaustiveExact)}
