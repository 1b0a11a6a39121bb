#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet-cold --seed 42 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (input generation and store population) runs ``SETUP_REPEATS``
times and is reported as ``setup_s``, the median; the timed run follows.
Times, set-up included, are scaled by speed probes taken alongside the
work (see ``calibrate.py``).

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` splits the
time between an untraced and a traced run of the same inputs, checks
that both give identical outputs, prints every per-layer metric (per
unit of work) plus the tracing overhead, and writes the spans to
``.perfbench_work/traces/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status 0 means the run completed (``correct`` says
whether every output check passed); 2 means it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5


def layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    """Every per-layer metric of :data:`metrics.PER_LAYER` from one traced
    run; raises ``KeyError`` rather than omit one."""
    from metrics import PER_LAYER, STORE_OPS

    units = traced.units
    speed = traced.speed  # time metrics are scaled like the slots
    selfs = {name: t * speed for name, t in tracer.self_times().items()}
    calls = tracer.call_counts()
    counters = tracer.counters

    def per_unit(value: float) -> float:
        return value / units

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: dict[str, float] = {}
    for metric, span in (
        ("loader.parse_s", "loader.parse"),
        ("loader.resolve_s", "loader.resolve"),
        ("x86.decode_s", "x86.decode"),
        ("cfg.build_s", "cfg.build"),
        ("cfg.carve_s", "cfg.carve"),
        ("cfg.indirect_s", "cfg.indirect"),
        ("cfg.reachability_s", "cfg.reachability"),
        ("cfg.scan_s", "cfg.scan"),
        ("sites.find_s", "sites.find"),
        ("wrappers.detect_s", "wrappers.detect"),
        ("identify.plain_s", "identify.plain"),
        ("identify.wrapper_call_s", "identify.wrapper_call"),
        ("interface.build_s", "interface.build"),
        ("report.encode_s", "report.encode"),
        ("report.decode_s", "report.decode"),
        ("fleet.warm_interfaces_s", "fleet.warm_interfaces"),
    ):
        out[metric] = per_unit(selfs.get(span, 0.0))
    for metric in ("x86.insns", "cfg.fixpoint_rounds", "sites.found",
                   "wrappers.attempts", "wrappers.confirmed",
                   "identify.anchors", "identify.nodes", "identify.steps"):
        out[metric] = per_unit(counters.get(metric, 0))
    out["wrappers.confirmed_frac"] = ratio(
        counters.get("wrappers.confirmed", 0),
        counters.get("wrappers.attempts", 0))
    out["identify.complete_frac"] = ratio(
        counters.get("identify.complete", 0),
        counters.get("identify.anchors", 0))
    out["interface.builds"] = per_unit(
        tracer.ancestors_named("interface.build", "x86.decode"))
    for kind, ops in STORE_OPS:
        for op in ops:
            span = f"store.{kind}.{op}"
            out[f"{span}_s"] = per_unit(selfs.get(span, 0.0))
            out[f"{span}_calls"] = per_unit(calls.get(span, 0))
            if op != "put":
                out[f"{span}_hit_frac"] = ratio(
                    counters.get(f"{span}_hits", 0), calls.get(span, 0))
    out["service.polls_per_job"] = per_unit(calls.get("service.poll", 0))
    out["bench.unattributed_s"] = per_unit(sum(
        seconds for name, seconds in selfs.items()
        if name.startswith("bench.")
    ))
    out["trace.spans"] = per_unit(len(tracer.spans))
    out["trace.overhead_frac"] = (
        untraced.slots["throughput_per_s"] / traced.slots["throughput_per_s"]
        - 1.0
    )
    out.update(traced.layer)
    return {name: out[name] for name, __, __ in PER_LAYER}


def run_traced(workload, seconds: float, trace_path: str):
    """Untraced then traced halves; returns the traced result (with the
    untraced half's counts and problems folded in) and the per-layer
    metrics."""
    from tracer import NullTracer, Tracer

    untraced = workload.run(seconds / 2, NullTracer())
    tracer = Tracer()
    with tracer:
        traced = workload.run(seconds / 2, tracer)
    tracer.write(trace_path)
    common = untraced.outputs.keys() & traced.outputs.keys()
    problems = [
        f"{key}: traced output differs from untraced output"
        for key in sorted(common)
        if untraced.outputs[key] != traced.outputs[key]
    ]
    if not common:
        problems.append("traced and untraced runs share no checked output")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed + len(problems)
    traced.problems = untraced.problems + traced.problems + problems
    return traced, layer_metrics(tracer, traced, untraced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from calibrate import SpeedProbe
    from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
    from tracer import NullTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    workload = WORKLOADS[args.workload](seed=args.seed, workdir=run_dir)
    try:
        probe = SpeedProbe()
        setups = []
        raw_setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()  # tearing down is not set-up
            before = probe.probe()
            started = time.perf_counter()
            idle = workload.setup() or 0.0
            elapsed = time.perf_counter() - started - idle
            raw_setups.append(elapsed)
            setups.append(elapsed * probe.factor(before, probe.probe()))
        setup_s = statistics.median(setups)
        if args.trace:
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json")
            result, values = run_traced(workload, args.seconds, trace_path)
            table = PER_LAYER
        else:
            result = workload.run(args.seconds, NullTracer())
            values = {"setup_s": setup_s, **result.slots}
            table = END_TO_END
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    names = WORKLOAD_NAMES[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: "
          f"{result.units} x {workload.unit}, "
          f"raw set-ups {', '.join(f'{s:.3f}' for s in raw_setups)} s")
    for name, unit, *__ in table:
        alias = names.get(name, "")
        print(f"  {name:<30} {values[name]:>14.6g} {unit:<6} {alias}")
    for name, (value, unit) in result.detail.items():
        print(f"  {'(' + name + ')':<30} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *__ in table
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
