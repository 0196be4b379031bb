"""One workload in one fresh process: set-up, closed-loop ops, checks.

Started by ``run.py``; prints one JSON object as its last stdout line.
The loop is closed with a single client: the next op starts only after the
previous one has returned and been checked.  Only the op itself is timed;
input generation and output checks run between ops, outside the window.

With ``--trace 0`` every op is the user-facing call.  With ``--trace 1``
ops alternate between the user-facing call and the traced decomposition,
so tracing overhead and layer coverage come from one run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TAIL_OPS = 10  # ops that must lie beyond the reported tail percentile
LAYERS = (
    "samples.load", "simulate.paths", "measure.draw", "permutation.plans", "permutation.setup",
    "stats.indicator", "permutation.cvm_reduce", "permutation.mean_path", "permutation.energy",
    "permutation.decide",
)
STATISTICS = ("permutation.cvm", "permutation.mean_path", "permutation.energy")


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_OPS ops beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_OPS
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def blas_threads(np) -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(tracer, traced_ops, run_times, wl) -> tuple[dict, dict]:
    """Per-layer metrics for the result line, and the workload-specific
    layers for the run record; medians over traced ops unless noted."""
    per_op = []
    untraced = []
    for op in traced_ops:
        self_time = tracer.self_times(op)
        layers = {name: self_time.get(name, 0.0) for name in LAYERS}
        # Each statistic's own call repeats the set-up the program makes
        # once, and the cvm call also rebuilds the indicator matrix that the
        # extra build times as its own layer: take both out.
        repeated = 0.0
        for name in STATISTICS:
            if name in self_time:
                layers[name.replace("cvm", "cvm_reduce")] = self_time[name] - layers["permutation.setup"]
                repeated += layers["permutation.setup"]
        layers["permutation.cvm_reduce"] -= layers["stats.indicator"]
        per_op.append(layers)
        # The op as the program runs it: without the repeated set-ups, the
        # extra indicator build, the counting and the memory-peak runs.
        extra = repeated + layers["stats.indicator"] + sum(v for k, v in self_time.items() if k.startswith("trace."))
        untraced.append(tracer.duration(op, "op") - extra)
    med = {name: statistics.median(op[name] for op in per_op) for name in LAYERS}
    total = {name: sum(op[name] for op in per_op) for name in LAYERS}
    layer_sum = sum(med.values())
    run_p50 = statistics.median(run_times)
    plans = tracer.total("plans")
    out = {
        "measure.draw_s": med["measure.draw"],
        "measure.draws_per_s": tracer.total("draws") / total["measure.draw"],
        "measure.informative_share": tracer.total("informative_draws") / tracer.total("draws"),
        "permutation.plans_s": med["permutation.plans"],
        "permutation.plans_per_s": plans / total["permutation.plans"],
        "permutation.distinct_plan_share": tracer.total("distinct_plans") / plans,
        "permutation.setup_s": med["permutation.setup"],
        "stats.indicator_s": med["stats.indicator"],
        "stats.indicator_gcmp_per_s": tracer.total("comparisons") / total["stats.indicator"] / 1e9,
        "stats.indicator_peak_mb": tracer.peaks["stats.indicator"] / 1e6,
        "permutation.cvm_reduce_s": med["permutation.cvm_reduce"],
        "permutation.cvm_reduce_peak_mb": tracer.peaks["permutation.cvm"] / 1e6,
        "permutation.mean_path_s": med["permutation.mean_path"],
        "permutation.decide_s": med["permutation.decide"],
        "permutation.ties_at_critical": tracer.total("ties_at_critical") / tracer.total("cvm_decisions"),
        "permutation.distinct_stat_share": tracer.total("distinct_cvm_stats") / plans,
        "trace.overhead_share": statistics.median(untraced) / run_p50 - 1.0,
        "trace.unattributed_abs_s": abs(run_p50 - layer_sum),
        **wl.computed(),
    }
    # Layers only some workloads use: in the run record, not the result line.
    extra = {
        "samples.load_s": med["samples.load"],
        "simulate.paths_s": med["simulate.paths"],
        "permutation.energy_s": med["permutation.energy"],
        "trace.unattributed_s": run_p50 - layer_sum,
        "trace.coverage_share": layer_sum / run_p50,
        "trace.ops": {"run": len(run_times), "traced": len(traced_ops)},
    }
    if total["samples.load"] > 0:
        extra["samples.mb_per_s"] = tracer.total("csv_bytes") / 1e6 / total["samples.load"]
        extra["cli.overhead_s"] = extra["trace.unattributed_s"]
    return out, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--budget", type=float, default=150.0, help="wall seconds this process may use")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)
    started = perf_counter()

    t0 = perf_counter()
    import funcperm
    import funcperm.cli  # noqa: F401  (the cohort op's entry point)
    import_s = perf_counter() - t0
    if Path(funcperm.__file__).resolve().parent != (ROOT / "src" / "funcperm").resolve():
        print(f"error: imported funcperm from {funcperm.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy as np

    import workloads
    from spans import Tracer

    workdir = ROOT / "perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        attempted = failed = 0
        errors: list[str] = []

        def attempt(index, fn, check):
            """Run, time and check one op; returns (seconds, passed, input, output)."""
            nonlocal attempted, failed
            inp = wl.prepare(index)
            t0 = perf_counter()
            try:
                out = fn(inp)
            except Exception:
                out, problems = None, [traceback.format_exc(limit=4)]
            else:
                problems = None
            seconds = perf_counter() - t0
            if problems is None:
                try:
                    problems = check(inp, out)
                except Exception:
                    problems = [traceback.format_exc(limit=4)]
            attempted += 1
            if problems:
                failed += 1
                errors.append(f"op {index}: " + "; ".join(problems))
            return seconds, not problems, inp, out

        warm_s, passed, _, _ = attempt(0, wl.run, wl.check_run)
        if not passed:
            print("\n".join(errors), file=sys.stderr)
            return 1
        setup_s = import_s + warm_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer()

        def traced(inp):
            return tracer.call("op", lambda: wl.decomposed(inp, tracer))

        kinds = {"run": (wl.run, wl.check_run)}
        if args.trace:
            kinds["traced"] = (traced, wl.check_decomposed)
        min_ops = TAIL_OPS + 1 if not args.trace else 3
        times = {kind: [] for kind in kinds}
        traced_ops = []
        # Checks too slow for every op run once, after the loop, on the last
        # passed user-facing op; only workloads that have them keep that op.
        check_once = getattr(wl, "check_once", None)
        last_run = None
        window = 0.0
        index = 1
        slowest = 0.0
        while not (window >= args.seconds and all(len(t) >= min_ops for t in times.values())):
            if perf_counter() - started + 2 * slowest > args.budget:
                errors.append("stopped early: out of wall-clock budget")
                break
            kind = list(kinds)[(index - 1) % len(kinds)]
            tracer.op = index
            t0 = perf_counter()
            seconds, passed, inp, out = attempt(index, *kinds[kind])
            slowest = max(slowest, perf_counter() - t0)
            window += seconds
            if passed:
                times[kind].append(seconds)
                if kind == "traced":
                    traced_ops.append(index)
                elif check_once:
                    last_run = (inp, out)
            del inp, out  # not held while the next op runs
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB

        if last_run is not None:
            workers = min(2, len(os.sched_getaffinity(0)))
            try:
                problems = check_once(*last_run, workers)
            except Exception:
                problems = [traceback.format_exc(limit=4)]
            attempted += 1
            if problems:
                failed += 1
                errors.extend(problems)

        run_times = times["run"]
        if not run_times or (args.trace and not traced_ops):
            print("\n".join(errors) or "no op completed", file=sys.stderr)
            return 1
        details = {
            "computed": wl.computed(), "environment": environment(np), "errors": errors[:5], "op_times_s": times,
        }
        if args.trace:
            metrics, extra = layer_metrics(tracer, traced_ops, run_times, wl)
            details["layers"] = extra
            if args.spans:
                tracer.dump(args.spans)
        else:
            tail_s, tail_pct = tail(run_times)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": len(run_times) / window,
                "op_s_p50": statistics.median(run_times),
                "peak_rss_mb": peak_rss_mb,
                "success_rate": (attempted - failed) / attempted,
            }
            details.update(
                op_s_tail=tail_s, tail_percentile=tail_pct, ops=len(run_times), window_s=window,
                import_s=import_s, warmup_s=warm_s, error_rate=failed / attempted,
            )
        print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "details": details}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
