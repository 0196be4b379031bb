"""funcperm benchmark: one command runs a workload and prints its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cohort_test --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it give every metric by name and unit, the computed kernel
counts and the environment.  A full record of the run, and the spans of a
traced run, are written under ``perfbench/out/``.  ``perfbench/baseline/``
keeps those records for seed 1, 40 s, of the program as it was when the
benchmark was added, for later changes to compare against.

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  Each workload runs in a fresh process, so its peak
memory is its own, with BLAS limited to the cores this process may use.
``setup_s`` is the median over SETUP_SAMPLES fresh processes of the time
to import funcperm plus one untimed warm-up op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cohort_test", "power_study", "exhaustive_exact")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # one workload, all of its processes, must end within this

# The metrics, with their units, that the result line must carry.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = current if current.isdigit() and 0 < int(current) <= nproc else str(nproc)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{name}-seed{seed}-spans.json"
    args = common + ["--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    result = run_worker(args + ["--budget", str(deadline - perf_counter() - 5.0)], deadline)
    metrics = result["metrics"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if not trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        result["details"]["setup_samples_s"] = setups
    result["details"]["environment"]["commit"] = git_commit()
    result["details"]["blas_env"] = {k: child_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **final, "details": result["details"]}
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    d = record["details"]
    print(f"{record['workload']}: seed {record['seed']}, {record['seconds']:g} s, trace {record['trace']}")
    for name, m in record["metrics"].items():
        note = ""
        if name == "success_rate":
            note = f"  (error_rate {d['error_rate']:g}: {record['failed']} failed of {record['attempted']} attempted)"
        elif name == "setup_s":
            note = f"  (median of {len(d['setup_samples_s'])} fresh processes)"
        elif name.endswith("_computed"):
            note = "  (computed, not measured)"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    for name, value in d.get("layers", {}).items():
        print(f"  {name:34s} {value}  (run record only)")
    if record["trace"] == 0:
        # Printed but not in BENCHMARK.json: on a shared host the slowest ten
        # ops follow other tenants' load too closely to hold any bound.
        print(f"  {'op_s_tail':34s} {d['op_s_tail']:.6g} s  (p{d['tail_percentile']:.1f} of {d['ops']} ops)")
        counts = ", ".join(f"{k} {v:.4g}" for k, v in d["computed"].items())
        print(f"  computed per op, not measured: {counts}")
    env = d["environment"]
    print(
        f"  environment: python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas']['name']} {env['blas']['version']} with {env['blas_threads']} threads, "
        f"nproc {env['nproc']}, commit {env['commit']}"
    )
    for error in d["errors"]:
        print(f"  error: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="funcperm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "funcperm" / "__init__.py").is_file():
        print(f"error: no funcperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace))
            report(records[-1])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        final = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
