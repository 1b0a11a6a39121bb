"""The benchmark's metric tables: the single source of names and units.

``BENCHMARK.json`` repeats these tables (names, units, bounds);
``selftest.py`` checks that the two stay identical.

End-to-end metrics are role slots that every workload fills, so each
workload reports every slot (the per-workload meaning of each slot, and
the workload-specific name it carries, is in ``WORKLOAD_NAMES`` and in
README.md).  Per-layer metrics come from the traced run and are totals
per unit of work (one fleet pass, one incremental round, one service
job), so a faster layer elsewhere cannot inflate them by fitting more
work into the timed window.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("typical_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("cold_ms", "ms", "lower", 0.25),
    ("fill_ms", "ms", "lower", 0.25),
    ("policy_syscalls_mean", "count", "lower", 0.05),
]

#: slot -> per-workload name of the quantity it carries (README.md has
#: the definitions); the run prints these names next to the slots
WORKLOAD_NAMES: dict[str, dict[str, str]] = {
    "fleet-cold": {
        "throughput_per_s": "binaries_per_s",
        "typical_ms": "bin_p50_ms",
        "tail_ms": "bin_p95_ms",
        "cold_ms": "bin_mean_ms",
        "fill_ms": "warm_interfaces_ms",
        "policy_syscalls_mean": "policy_syscalls_mean",
    },
    "incremental-chain": {
        "throughput_per_s": "rebuilds_per_s",
        "typical_ms": "rebuild_s",
        "tail_ms": "rebuild_p75_ms",
        "cold_ms": "cold_s",
        "fill_ms": "first_analysis_s",
        "policy_syscalls_mean": "policy_syscalls_mean",
    },
    "service-mixed": {
        "throughput_per_s": "jobs_per_s",
        "typical_ms": "warm_job_mean_ms",
        "tail_ms": "warm_job_p95_ms",
        "cold_ms": "cold_job_p50_ms",
        "fill_ms": "cpu_ms_per_job",
        "policy_syscalls_mean": "policy_syscalls_mean",
    },
}

#: artifact kinds and the store operations their callers use
STORE_OPS: list[tuple[str, tuple[str, ...]]] = [
    ("report", ("lookup", "put")),
    ("iface", ("get", "put")),
    ("cfg", ("put",)),
    ("wrappers", ("get", "put")),
    ("funccfg", ("get", "put")),
    ("funcid", ("get", "put")),
]

#: pipeline stages read from each fresh report's ``stages``
STAGES: list[str] = [
    "interfaces",
    "cfg-recovery",
    "reachability",
    "site-discovery",
    "wrapper-detection",
    "identification",
    "external-calls",
]


def _store_metrics() -> list[tuple[str, str, str]]:
    out: list[tuple[str, str, str]] = []
    for kind, ops in STORE_OPS:
        for op in ops:
            out.append((f"store.{kind}.{op}_s", "s", "lower"))
            out.append((f"store.{kind}.{op}_calls", "count", "lower"))
            if op != "put":
                out.append((f"store.{kind}.{op}_hit_frac", "ratio", "higher"))
    out.append(("store.bytes_written", "bytes", "lower"))
    return out


#: (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    ("loader.parse_s", "s", "lower"),
    ("loader.resolve_s", "s", "lower"),
    ("x86.decode_s", "s", "lower"),
    ("x86.insns", "count", "lower"),
    ("cfg.build_s", "s", "lower"),
    ("cfg.carve_s", "s", "lower"),
    ("cfg.indirect_s", "s", "lower"),
    ("cfg.fixpoint_rounds", "count", "lower"),
    ("cfg.reachability_s", "s", "lower"),
    ("cfg.scan_s", "s", "lower"),
    ("sites.find_s", "s", "lower"),
    ("sites.found", "count", "lower"),
    ("wrappers.detect_s", "s", "lower"),
    ("wrappers.attempts", "count", "lower"),
    ("wrappers.confirmed", "count", "lower"),
    ("wrappers.confirmed_frac", "ratio", "higher"),
    ("identify.plain_s", "s", "lower"),
    ("identify.wrapper_call_s", "s", "lower"),
    ("identify.anchors", "count", "lower"),
    ("identify.nodes", "count", "lower"),
    ("identify.steps", "count", "lower"),
    ("identify.complete_frac", "ratio", "higher"),
    ("interface.build_s", "s", "lower"),
    ("interface.builds", "count", "lower"),
    *_store_metrics(),
    ("report.encode_s", "s", "lower"),
    ("report.decode_s", "s", "lower"),
    *[(f"pass.{stage}_s", "s", "lower") for stage in STAGES],
    ("fleet.warm_interfaces_s", "s", "lower"),
    ("fleet.twins", "count", "higher"),
    ("service.submit_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.poll_overshoot_ms", "ms", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("service.batch_jobs", "count", "higher"),
    ("bench.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
