#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-reorder --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` sets the workload up
several times (median ``setup_s``), then repeats untraced passes while
the next one still fits in ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` sets up once and runs one untraced pass (plus
an untraced ``jobs=1`` pass for pool workloads) and one traced
``jobs=1`` pass, and reports the per-layer metrics.  Every pass is
checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and a failed check
exits 1.  Metric names, units and polarity come from
``BENCHMARK.json``; each run is also appended to ``perfbench/ledger.json``
as a ``repro.obs.perf`` BenchRecord.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

# one BLAS/OpenMP thread in this process and in every pool worker, so
# a 2-worker sweep uses exactly 2 cores; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: seed reserved for the held-out check a later performance claim must
#: also pass; never use it while developing a change
HELD_OUT_SEED = 4099

#: a ``--trace 0`` run sets up at least ``SETUP_REPEATS`` times and
#: until ``SETUP_SECONDS`` are spent (at most ``SETUP_MAX_REPEATS``
#: times); ``setup_s`` is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 9


def peak_rss_mb() -> float:
    import resource

    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def host_fingerprint() -> dict:
    """nproc, CPU model, cache sizes and library versions, best effort."""
    import platform

    import numpy
    import scipy

    fp = {"nproc": os.cpu_count(), "cpu_model": None, "caches": {},
          "python": platform.python_version(),
          "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", "rt") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            try:
                with open(os.path.join(d, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(d, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(d, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                fp["caches"][f"L{level}"] = size
    except OSError:
        pass
    return fp


def stop_children() -> None:
    """End every process this run started and wait for each.

    Pool workers are joined by the engine; what outlives it is the
    ``multiprocessing`` resource tracker, which the first shared-memory
    export starts and which would otherwise exit only after this
    process, unreaped.  Must run after the last engine run: unlinking
    a segment after this would start a new tracker.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def run_end_to_end(workload, seed: int, seconds: float) -> tuple:
    import workloads

    setup_times = []
    while (len(setup_times) < SETUP_REPEATS
           or (sum(setup_times) < SETUP_SECONDS
               and len(setup_times) < SETUP_MAX_REPEATS)):
        state = None
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    workload.run_pass(workload.warm_up_state(state))
    # passes while the next one, as long as the median so far, still
    # ends within ``seconds``: every run measures whole passes and
    # never overruns its time
    passes = []
    spent = 0.0
    checked = workloads.Checked()
    while not passes or spent + statistics.median(
            p.wall for p in passes) <= seconds:
        p = workload.run_pass(state)
        spent += p.wall
        checked.add(workload.check(state, passes[0] if passes else p, p,
                                   len(passes)))
        if passes:
            # checked against pass 0; dropping what it produced keeps
            # peak_rss_mb from growing with the number of passes
            p.output = None
        passes.append(p)
    speedups = workload.speedups(state, passes)
    walls = [p.wall for p in passes]
    metrics = {
        "wall_s": workloads.pass_seconds(passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "geomean_speedup_1d": speedups["1d"],
        "geomean_speedup_2d": speedups["2d"],
    }
    samples = {"wall_s": walls, "setup_s": setup_times}
    return metrics, samples, checked, {"passes": len(passes)}


def run_layers(workload, seed: int) -> tuple:
    import layers
    import workloads
    from repro.features import offdiagonal_nonzeros

    orderings = workloads.SweepReorder.orderings

    recorder = layers.SpanRecorder()
    with layers.traced(recorder):
        state = workload.setup(seed)
    workload.run_pass(workload.warm_up_state(state))
    untraced = workload.run_pass(state)
    serial = (workload.run_pass(state, jobs=1) if workload.jobs > 1
              else untraced)
    timed_from = recorder.mark()
    with layers.traced(recorder):
        traced = workload.run_pass(state, jobs=1)
    checked = workloads.Checked()
    for i, p in enumerate([untraced, traced] + (
            [serial] if serial is not untraced else [])):
        checked.add(workload.check(state, untraced, p, i))

    spans = recorder.spans
    seconds, calls = layers.layer_sums(spans)
    timed_top = layers.top_level_seconds(spans, timed_from)
    m = {"generators.build_corpus.s":
         seconds.get("generators.build_corpus", 0.0)}
    offdiag = dict.fromkeys(orderings, 0)
    for algo, a, result in recorder.orderings:
        offdiag[algo] += offdiagonal_nonzeros(result.apply(a), 64)
    for algo in orderings:
        m[f"reorder.{algo}.s"] = seconds.get(f"reorder.{algo}", 0.0)
        m[f"reorder.{algo}.calls"] = calls.get(f"reorder.{algo}", 0)
        m[f"reorder.{algo}.offdiag_nnz"] = offdiag[algo]
    m["matrix.permute.s"] = seconds.get("matrix.permute", 0.0)
    m["machine.reuse_stats.s"] = seconds.get("machine.reuse_stats", 0.0)
    for kernel in workloads.SweepModel.kernels:
        name = f"machine.model_eval.{kernel}"
        m[f"{name}.s"] = seconds.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    m["spmv.schedule.s"] = seconds.get("spmv.schedule", 0.0)
    m["spmv.schedule.calls"] = calls.get("spmv.schedule", 0)
    m["spmv.kernel.1d.s"] = seconds.get("spmv.kernel.1d", 0.0)
    m["spmv.kernel.2d.s"] = seconds.get("spmv.kernel.2d", 0.0)
    m["spmv.kernel.calls"] = (calls.get("spmv.kernel.1d", 0)
                              + calls.get("spmv.kernel.2d", 0))
    iterations = workload.iterations(traced)
    for solver in workloads.SOLVERS:
        m[f"solvers.{solver}.s"] = seconds.get(f"solvers.{solver}", 0.0)
        m[f"solvers.{solver}.iterations"] = iterations.get(solver, 0)
    m["solvers.self_s"] = layers.self_seconds(spans, "solvers.")
    m["harness.parallel_efficiency"] = serial.wall / (
        workload.jobs * untraced.wall)

    def timed(prefix):
        return sum(v for k, v in timed_top.items() if k.startswith(prefix))

    m["unattributed_s"] = traced.wall - sum(timed_top.values())
    m["tracing_overhead_frac"] = traced.wall / serial.wall - 1.0
    m["share.reorder"] = timed("reorder.") / traced.wall
    m["share.machine"] = timed("machine.") / traced.wall
    m["share.solvers"] = timed("solvers.") / traced.wall
    stages = traced.engine_stages
    m["accounting.reorder.gap_s"] = (stages.get("reorder", 0.0)
                                     - timed("reorder."))
    m["accounting.reuse_stats.gap_s"] = (stages.get("reuse_stats", 0.0)
                                         - timed("machine.reuse_stats"))
    m["accounting.model_eval.gap_s"] = (stages.get("model_eval", 0.0)
                                        - timed("machine.model_eval."))
    info = {"untraced_wall_s": untraced.wall, "serial_wall_s": serial.wall,
            "traced_wall_s": traced.wall}
    return m, {}, checked, info


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def record_in_ledger(path, spec_metrics, workload, seed, trace, values,
                     samples, info, checked) -> None:
    from repro.obs.perf import BenchLedger, bench_record, metric

    metrics = {name: metric(value=values[name], samples=samples.get(name),
                            unit=meta["unit"], polarity=meta["better"])
               for name, meta in spec_metrics.items()}
    context = dict(info, trace=trace, held_out_seed=HELD_OUT_SEED,
                   attempted=checked.attempted, failed=checked.failed,
                   host=host_fingerprint())
    name = workload.name + (".layers" if trace else "")
    BenchLedger(path).append(bench_record(
        name=name, tier=workload.tier, seed=seed,
        metrics=metrics, context=context))


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger",
                        default=os.path.join(HERE, "ledger.json"),
                        help="BenchRecord ledger to append this run to")
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{sorted(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rt") as f:
        spec = json.load(f)
    spec_metrics = {m["name"]: m for m in
                    spec["per_layer" if args.trace else "end_to_end"]}

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        values, samples, checked, info = run_layers(workload, args.seed)
    else:
        values, samples, checked, info = run_end_to_end(
            workload, args.seed, args.seconds)
    if set(values) != set(spec_metrics):
        raise SystemExit(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            f"{sorted(set(values) ^ set(spec_metrics))}")

    for problem in checked.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record_in_ledger(args.ledger, spec_metrics, workload, args.seed,
                     args.trace, values, samples, info, checked)
    width = max(len(n) for n in spec_metrics)
    for name, meta in spec_metrics.items():
        print(f"{name:<{width}}  {values[name]:>14.6g} {meta['unit']}")
    print(f"{'failed_frac':<{width}}  "
          f"{checked.failed / checked.attempted:>14.6g} "
          f"({checked.failed}/{checked.attempted})")
    correct = checked.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": values[name], "unit": meta["unit"]}
                    for name, meta in spec_metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
