"""Pipeline benchmark for kleinian.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-seed --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one caller.  One process runs the
workload's pipeline pass again and again, each call after the previous
one returns.  After one untimed warm-up pass, passes are timed while the
next one is expected to end within ``--seconds`` (at least three, four
when traced).
BLAS threads are capped at the number of usable CPUs.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported: ``pipeline_s`` (median pass wall time), ``setup_s`` (median
wall time of a fresh process that imports kleinian and builds the
workload's groups) and ``peak_rss_mb``.  With ``--trace 1`` untraced
and traced passes alternate; the traced ones give the per-layer metrics
and the difference of the two medians is the tracing overhead.

Every pass is checked: pinned reference values, brute-force checks and
exact repetition of the first pass.  A check that fails, or an operation
that raises, counts into ``failed``.  The last line of standard output
is the result object; the line before it is the run record (sizes,
machine, checks, per-pass times and, when traced, per-span totals),
also written with the spans of the median traced pass to
``perfbench/results/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MIN_PASSES = 3
SETUP_REPEATS = 7
GROUP_BUILD_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("chain-seed", "wide-torus", "orbit-queries")
FLOAT_TOL = 1e-9  # relative above 1, absolute below

PER_LAYER = (
    "orbit.enumerate_ball_s",
    "orbit.enumerate_ball_calls",
    "orbit.binned_build_s",
    "orbit.rows",
    "orbit.members",
    "orbit.merged",
    "orbit.orbit_distance_s",
    "orbit.query_points",
    "orbit.query_points_per_s",
    "orbit.binned_members",
    "orbit.exact_members",
    "hyperbolic.split_distance_calls",
    "chains.check_chain_calls",
    "chains.check_chain_s",
    "chains.certified_share",
    "semigroup.find_pair_s",
    "semigroup.seed_s",
    "semigroup.seed_candidates",
    "semigroup.seed_size",
    "semigroup.phi_map_calls",
    "semigroup.phi_map_s",
    "semigroup.stage_s",
    "semigroup.family_words",
    "semigroup.deep_element_s",
    "semigroup.deep_certified",
    "measure.ps_atoms_s",
    "measure.atoms",
    "measure.principle_s",
    "measure.apex_products_calls",
    "measure.apex_products_s",
    "measure.nesting_s",
    "measure.quasi_s",
    "measure.tail_s",
    "measure.conical_profile_s",
    "measure.myrberg_s",
    "groups.build_s",
    "trace.pipeline_s",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def measure_setup(workload: str) -> list:
    """Wall time of fresh processes that import kleinian and build the groups."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "ready.py"), workload], check=True, timeout=120
        )
        samples.append(time.perf_counter() - start)
    return samples


def machine_record(blas_cap: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_cap": blas_cap,
        "seed": seed,
    }


def matches(value, expected) -> bool:
    if isinstance(expected, float):
        scale = max(1.0, abs(expected))
        return isinstance(value, float) and abs(value - expected) <= FLOAT_TOL * scale
    return value == expected


def failed_ops(ops, values: dict, reference: dict, first: dict | None) -> list:
    """Operations that raised or whose outputs fail a check."""
    failed = {op for op in ops if not any(k.split(".")[0] == op for k in values)}
    for key, expected in reference.items():
        if key not in values or not matches(values[key], expected):
            failed.add(key.split(".")[0])
    if first is not None:
        for key in set(values) | set(first):
            if values.get(key) != first.get(key):
                failed.add(key.split(".")[0])
    return sorted(failed)


def layer_metrics(tracer) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def secs(name):
        return totals.get(name, {}).get("seconds", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    query_s = secs("orbit.orbit_distance")
    queries = counts.get("orbit.query_points", 0)
    checked = calls("chains.check_chain")
    out = {
        "orbit.enumerate_ball_calls": calls("orbit.enumerate_ball"),
        "orbit.query_points_per_s": queries / query_s if query_s > 0 else 0.0,
        "hyperbolic.split_distance_calls": calls("hyperbolic.split_distance"),
        "chains.check_chain_calls": checked,
        "chains.certified_share": (
            counts.get("chains.certified", 0) / checked if checked else 0.0
        ),
        "semigroup.phi_map_calls": calls("semigroup.phi_map"),
        "measure.apex_products_calls": calls("measure.apex_products"),
    }
    for name in PER_LAYER:
        if name in out:
            continue
        if name.endswith("_s"):
            out[name] = secs(name[:-2])
        else:
            out[name] = counts.get(name, 0)
    return out


def run(args) -> tuple:
    blas_cap = cap_blas_threads()
    setup_samples = measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import kleinian

    if Path(kleinian.__file__).resolve().parent != SRC / "kleinian":
        raise SystemExit(f"kleinian was imported from {kleinian.__file__}, not {SRC}")
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, defect_probe

    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "reference.json").read_text())
    reference = references[args.workload][args.size]
    ctx = workload.prepare(args.size, args.seed)
    build_samples = []
    if args.trace:
        for _ in range(GROUP_BUILD_REPEATS):
            start = time.perf_counter()
            workload.build_groups()
            build_samples.append(time.perf_counter() - start)
    probe = defect_probe(ctx.params["probe_radius"])

    first_values = None

    def one_pass(traced: bool) -> dict:
        nonlocal first_values
        tracer = Tracer() if traced else NullTracer()
        values: dict = {}
        extra = None
        start = time.perf_counter()
        try:
            with tracer.installed():
                extra = workload.run_pass(ctx, tracer, values)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        if extra is not None:
            values.update(workload.extra_checks(ctx, values, extra))
        failed = failed_ops(workload.ops, values, reference, first_values)
        if first_values is None:
            first_values = values
        return {
            "traced": traced,
            "seconds": seconds,
            "failed": failed,
            "tracer": tracer,
        }

    # the warm-up pass is checked but not timed: first-touch allocation and
    # lazy imports make it slower than every later pass
    warmup = one_pass(False)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(one_pass(bool(args.trace) and len(passes) % 2 == 1))
        typical = statistics.median(p["seconds"] for p in passes)
        enough = len(passes) >= MIN_PASSES + args.trace
        if enough and time.perf_counter() + typical > deadline:
            break

    attempted = len(workload.ops) * (len(passes) + 1)
    failed = len(warmup["failed"]) + sum(len(p["failed"]) for p in passes)
    record = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(blas_cap, args.seed),
        "sizes": {
            key: value
            for key, value in first_values.items()
            if isinstance(value, int) and not isinstance(value, bool)
        },
        "checks": first_values,
        "probe": probe,
        "setup_samples_s": setup_samples,
        "warmup": {"seconds": warmup["seconds"], "failed_ops": warmup["failed"]},
        "passes": [
            {"traced": p["traced"], "seconds": p["seconds"], "failed_ops": p["failed"]}
            for p in passes
        ],
    }
    plain = [p["seconds"] for p in passes if not p["traced"]]
    if args.trace:
        traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["seconds"])
        layers = [layer_metrics(p["tracer"]) for p in traced]
        metrics = {n: statistics.median(m[n] for m in layers) for n in PER_LAYER}
        metrics.update(probe)
        metrics["groups.build_s"] = statistics.median(build_samples)
        metrics["trace.pipeline_s"] = statistics.median(p["seconds"] for p in traced)
        metrics["trace.overhead_s"] = (
            metrics["trace.pipeline_s"] - statistics.median(plain)
        )
        median_pass = traced[len(traced) // 2]
        record["layers"] = median_pass["tracer"].totals()
        record["counts"] = median_pass["tracer"].counts
        record["spans"] = median_pass["tracer"].spans
        names = PER_LAYER
    else:
        metrics = {
            "pipeline_s": statistics.median(plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = tuple(metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of(name)} for name in names
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    record, result = run(args)
    RESULTS.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    out = RESULTS / f"BENCH_{args.workload}{suffix}.json"
    out.write_text(json.dumps(record, indent=1))
    record.pop("spans", None)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
