#!/usr/bin/env python3
"""Benchmark of the csdp package.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 26 --trace 0

One process with one caller (closed loop) builds the workload's inputs
from --seed, then runs passes over a fixed amount of work for about
--seconds seconds, and at least MIN_PASSES passes, checking every output.
Pass and operation times are reported as costs in reference loops, with
the shared host's changing speed divided out (see hostref.py); set-up
time is reported in seconds.  It prints detail lines (environment, the
run's seconds, the workload's own figures, table digests, problems) and
ends with one JSON line:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics from a traced run (see tracing.py), whose spans are written under
.perfbench_out/.  --smoke shrinks every input; --inject-fault corrupts
one result so the checks can be seen to fire.  The benchmark imports csdp
from src/ of the checkout it sits in and fails without printing a result
when that source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from catalog import CRITERIA, LAYERS, PRESETS, WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
# Passes every untraced run makes, even when they take longer than
# --seconds: a median of fewer is one cold sample.
MIN_PASSES = 2
SUBPROCESS_TIMEOUT = 120
# One BLAS thread: the load is one process, and the gate's two sweep
# threads must not each start a BLAS pool on a small machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pass and operation costs are in reference loops ("ref"), the host's
# speed at the time divided out; see hostref.py.
END_TO_END = {
    "setup_s": "s",
    "pass_cost": "ref",
    "op_cost_geomean": "ref",
}

PER_LAYER = {
    "kernel.joint_kernel.calls": "count",
    "kernel.joint_kernel.busy_s": "s",
    "kernel.joint_kernel.useful_ratio": "ratio",
    "kernel.aged_joint.calls": "count",
    "kernel.aged_joint.busy_s": "s",
    "kernel.aged_joint.useful_ratio": "ratio",
    "kernel.sample_trajectory.busy_s": "s",
    "bounds.aged_tv_distance.calls": "count",
    "bounds.aged_tv_distance.busy_s": "s",
    "bounds.bounded_aged_correlation.calls": "count",
    "bounds.bounded_aged_correlation.busy_s": "s",
    "bounds.bounded_aged_correlation.useful_ratio": "ratio",
    "bounds.lp_solves": "count",
    "bounds.linprog.busy_s": "s",
    "bounds.oracle_leakage.calls": "count",
    "bounds.oracle_leakage.busy_s": "s",
    "utility.solve_p1.busy_s": "s",
    "utility.aging_error.calls": "count",
    "utility.tradeoff_frontier.busy_s": "s",
    "utility.mse_simulated.calls": "count",
    "utility.mse_simulated.busy_s": "s",
    "queries.evaluate.calls": "count",
    "mechanism.release.calls": "count",
    "mechanism.release.busy_s": "s",
    "rng.generator.calls": "count",
    **{f"sweeps.run_sweep.busy_s.{p}": "s" for p in PRESETS},
    "cli.emit_s": "s",
    **{f"acceptance.{c}.busy_s": "s" for c in CRITERIA},
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "self_s.unattributed": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "ratio",
}


class SourceMissing(RuntimeError):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description="csdp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one result so a check must fail")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print the seconds and exit")
    return parser.parse_args(argv)


def _import_program():
    """Import csdp from this checkout's src/ and the workload module."""
    if not os.path.isfile(os.path.join(SRC, "csdp", "__init__.py")):
        raise SourceMissing(f"no csdp package under {SRC}")
    sys.path.insert(0, SRC)
    import csdp

    if os.path.dirname(os.path.abspath(csdp.__file__)) != os.path.join(SRC, "csdp"):
        raise SourceMissing(f"csdp imported from {csdp.__file__}, not from {SRC}")
    import workloads

    return workloads


def _setup(args):
    """Import the program and build the workload's inputs; returns (module,
    workload, seconds)."""
    start = perf_counter()
    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORKDIR)
    return workloads, workload, perf_counter() - start


def _probe_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _run_passes(workloads, workload, seconds, start, tracer=None, inject=False, limit=None,
                minimum=1):
    """Run passes until the next one would end after `seconds`, but at least
    `minimum` and at most `limit`.

    With a tracer, each pass keeps the counters it gathered."""
    passes, walls = [], []
    while True:
        p = workloads.Pass(len(passes), tracer, inject and not passes)
        began = perf_counter()
        workload.run_pass(p)
        walls.append(perf_counter() - began)
        if tracer is not None:
            p.counters = tracer.take()
        passes.append(p)
        if len(passes) == limit or (len(passes) >= minimum and perf_counter() - start
                                    + statistics.median(walls) > seconds):
            return passes


def _blas():
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "?") + " (requested)"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, threads


def _environment() -> str:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas, threads = _blas()
    return (f"env nproc={nproc} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas!r} blas_threads={threads} "
            f"load=1 process, 1 caller, at most 2 threads (gate sweep)")


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values if v > 0))


def _op_costs(passes, reference) -> list:
    """Each pass's operation costs, in reference loops."""
    return [reference.costs([op[3] for op in p.ops], [op[1] for op in p.ops]) for p in passes]


def _end_to_end(setup_s, costs) -> dict:
    return {
        "setup_s": setup_s,
        "pass_cost": statistics.median(float(c.sum()) for c in costs),
        "op_cost_geomean": _geomean(float(c) for pass_costs in costs for c in pass_costs),
    }


def _print_details(passes, costs, reference):
    """The run's figures in seconds, as a user would time them, and the
    median cost of each kind of operation."""
    pass_s = statistics.median(p.seconds for p in passes)
    op_ms = _geomean(op[1] for p in passes for op in p.ops) * 1e3
    ref_us = statistics.median(reference.cpus) * 1e6
    print(f"metric pass_s = {pass_s:.6g} s  (median of {len(passes)} passes)")
    print(f"metric op_geomean_ms = {op_ms:.6g} ms")
    print(f"metric reference_us = {ref_us:.6g} us  (median of {len(reference.cpus)} samples, "
          f"{sum(reference.walls):.3g} s in all)")
    by_label = {}
    for p, pass_costs in zip(passes, costs):
        for op, cost in zip(p.ops, pass_costs):
            by_label.setdefault(op[0], []).append(float(cost))
    for label, values in by_label.items():
        print(f"metric cost.{label} = {statistics.median(values):.6g} ref  "
              f"(median of {len(values)})")


def _per_layer(setup, traced, untraced) -> dict:
    """Per-pass means of the traced counters, named as in PER_LAYER."""
    counters = [p.counters for p in traced]
    k = len(counters)

    def mean(get):
        return sum(get(c) for c in counters) / k

    out = {}
    for name in PER_LAYER:
        head, _, last = name.rpartition(".")
        if last == "calls":
            out[name] = mean(lambda c: c.calls[head])
        elif last == "busy_s" and head.startswith("acceptance."):
            crit = head.split(".", 1)[1]
            out[name] = mean(lambda c: c.op_busy[(f"bench.{crit}", crit)])
        elif last == "busy_s":
            out[name] = mean(lambda c: c.busy[head])
        elif last == "useful_ratio":
            calls = sum(c.calls[head] for c in counters)
            out[name] = sum(len(c.keys[head]) for c in counters) / calls if calls else 0.0
        elif head == "sweeps.run_sweep.busy_s":
            out[name] = mean(lambda c: c.op_busy[("sweeps.run_sweep", last)])
        elif head == "self_s":
            out[name] = mean(lambda c: c.self_time[last])
    out["kernel.sample_trajectory.busy_s"] += setup.busy["kernel.sample_trajectory"]
    out["bounds.lp_solves"] = mean(lambda c: c.calls["bounds.linprog"])
    out["cli.emit_s"] = mean(lambda c: sum(
        busy - c.op_busy.get(("sweeps.run_sweep", label), 0.0)
        for (name, label), busy in c.op_busy.items() if name == "cli.main"))
    traced_s = statistics.median(p.seconds for p in traced)
    out["trace.pass_s"] = traced_s
    out["trace.untraced_pass_s"] = untraced.seconds
    out["trace.overhead_s"] = traced[0].seconds - untraced.seconds
    op_time = sum(p.seconds for p in traced)
    out["trace.attributed_frac"] = 1.0 - sum(c.self_time["unattributed"]
                                             for c in counters) / op_time
    return out


def _print_report(workload, passes):
    for name, value, unit, note in workload.report(passes):
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"metric {workload.name}.{name} = {text} {unit}".rstrip()
              + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    try:
        workloads, workload, setup_first = _setup(args)
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_first))
        return 0

    print(_environment())
    run_start = perf_counter()
    inject = args.inject_fault
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        # Set up again under the tracer so set-up work (the release
        # database's trajectory) is attributed too.
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORKDIR)
        setup_counters = tracer.take()
        tracer.uninstall()
        untraced = _run_passes(workloads, workload, 0.0, run_start, inject=inject, limit=1)[0]
        tracer.install()
        traced = _run_passes(workloads, workload, args.seconds, run_start, tracer)
        tracer.uninstall()
        passes = [untraced] + traced
        metrics = _per_layer(setup_counters, traced, untraced)
        units = PER_LAYER
        os.makedirs(WORKDIR, exist_ok=True)
        spans = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write_spans(spans)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}, "
              f"{tracer.spans_dropped} dropped")
    else:
        import hostref

        reference = hostref.HostReference()
        reference.start()
        try:
            passes = _run_passes(workloads, workload, args.seconds, run_start, inject=inject,
                                 minimum=1 if args.smoke else MIN_PASSES)
        finally:
            reference.stop()
        setups = [setup_first] + [_probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        costs = _op_costs(passes, reference)
        metrics = _end_to_end(statistics.median(setups), costs)
        units = END_TO_END
        print(f"metric setup_s.all = {', '.join(f'{s:.4f}' for s in setups)} s")
        _print_details(passes, costs, reference)
    shutil.rmtree(os.path.join(WORKDIR, "figures"), ignore_errors=True)

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"wall={perf_counter() - run_start:.2f}s attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.6g}")
    _print_report(workload, passes)
    shown = 0
    for p in passes:
        for label, _, problems, _ in p.ops:
            for problem in problems:
                if shown < 20:
                    print(f"problem pass={p.index} op={label}: {problem}")
                shown += 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
