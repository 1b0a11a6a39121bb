"""The service-scale workload: the distributed tier over real sockets.

Where :mod:`repro.perf.coldbench` measures the analysis *kernel*, this
module measures the *service tier* around it: the asyncio front end,
the lease-claiming worker processes, and the sharded artifact store,
exercised end to end over localhost HTTP — every request crosses the
socket, the queue directory, and a worker process boundary, exactly
like production traffic.

One measurement (:func:`measure_service_scale`) sweeps worker tiers
(1 / 2 / 4 processes by default).  Per tier:

* **cold phase** — a set of distinct binaries is submitted against an
  empty cache; cold throughput is the fleet-build rate the paper's
  §6 deployment story depends on;
* **warm phase** — concurrent client threads resubmit the same
  binaries at increasing concurrency levels; per-job latency
  (submit → terminal, polled) yields p50/p99, and the level where
  throughput stops improving is the tier's **saturation point**.

The acceptance ratio compares the max-tier *steady-state* (warm)
throughput against the 1-worker *cold* throughput —
the steady state a long-running daemon converges to vs the worst-case
single-worker build-out.  Cold-vs-cold scaling across tiers is recorded
but only informational: on a single-core runner it is
batching-amortisation only.

Cross-machine comparability mirrors the cold bench: every gated number
is normalized by the in-run pure-Python calibration loop
(:func:`repro.perf.coldbench._calibrate`), so a trajectory entry
recorded on one machine still gates another.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import tempfile
import threading
import time

from .coldbench import _calibrate
from .trajectory import SERVICE_WORKLOAD

#: default worker-process tiers swept by one measurement
DEFAULT_TIERS = (1, 2, 4)

#: default concurrent-client ramp for the warm phase
DEFAULT_CLIENTS_RAMP = (4, 8, 16)


def _build_binaries(outdir: str, count: int) -> list[str]:
    """Write ``count`` byte-distinct demo binaries (no dedup between them)."""
    from ..corpus import ProgramBuilder
    from ..x86 import EAX, RDI

    # a pool of real syscall numbers; each binary gets a distinct slice
    pool = (0, 1, 2, 3, 4, 5, 9, 12, 21, 39, 41, 42, 57, 59, 79, 89)
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for index in range(count):
        name = f"scale-{index:03d}"
        p = ProgramBuilder(name)
        with p.function("_start"):
            for offset in range(3):
                p.asm.mov(EAX, pool[(index * 3 + offset) % len(pool)])
                p.asm.syscall()
            p.asm.mov(EAX, 60)
            p.asm.xor(RDI, RDI)
            p.asm.syscall()
            p.asm.hlt()
        p.set_entry("_start")
        path = os.path.join(outdir, name)
        p.build().save(path)
        paths.append(path)
    return paths


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _run_warm_level(url: str, paths: list[str], clients: int,
                    jobs_per_client: int) -> dict:
    """Drive one concurrency level; returns throughput + latency stats."""
    from ..service import ServiceClient

    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client_main(worker_index: int) -> None:
        client = ServiceClient(url, timeout=120.0, retries=5, backoff=0.05)
        barrier.wait()
        local: list[float] = []
        try:
            for j in range(jobs_per_client):
                path = paths[(worker_index + j) % len(paths)]
                t0 = time.perf_counter()
                job = client.submit_path(path)
                done = client.wait(job["id"], timeout=120.0, poll=0.01)
                local.append(time.perf_counter() - t0)
                if done["status"] != "done":
                    raise RuntimeError(
                        f"job {job['id']} ended {done['status']}: "
                        f"{done.get('error', '')}"
                    )
        except Exception as error:  # surfaced to the caller below
            with lock:
                errors.append(f"client {worker_index}: {error}")
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=client_main, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise RuntimeError(
            f"warm level with {clients} clients failed: {errors[0]}"
        )
    total = clients * jobs_per_client
    return {
        "clients": clients,
        "jobs": total,
        "seconds": round(elapsed, 6),
        "throughput_rps": round(total / elapsed, 3),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        # raw samples for envelope-wide pooling; popped before the
        # level record is persisted into the trajectory
        "latencies": latencies,
    }


def _saturation_clients(levels: list[dict], gain: float = 0.10) -> int:
    """The client count past which throughput stops improving by >gain."""
    if not levels:
        return 0
    for previous, level in zip(levels, levels[1:]):
        if level["throughput_rps"] < previous["throughput_rps"] * (1 + gain):
            return previous["clients"]
    return levels[-1]["clients"]


def measure_service_scale(
    *,
    tiers: tuple[int, ...] = DEFAULT_TIERS,
    n_binaries: int = 8,
    clients_ramp: tuple[int, ...] = DEFAULT_CLIENTS_RAMP,
    jobs_per_client: int = 4,
    shards: int = 2,
    lease_ttl: float = 30.0,
    warm_passes: int = 2,
    workdir: str | None = None,
) -> dict:
    """Run the full sweep and return one trajectory record.

    ``warm_passes`` repeats the warm client ramp per tier; the gate's
    reference envelope spans every pass, so a transient stall during
    one pass cannot masquerade as a latency regression.  Warm levels
    take seconds each, so extra passes are cheap next to the cold
    phase and worker spawns.
    """
    from ..service import AnalysisService, AsyncServiceServer, ServiceClient, spawn_workers

    # The machine-speed probe is sampled before *every* tier, not once:
    # on burstable/frequency-scaling hosts the speed drifts over the
    # minutes a sweep takes, and both gated numbers are ratios with the
    # calibration as denominator — a single unrepresentative sample
    # masquerades as a 20%+ regression.  The median sample normalizes.
    calibrations = [_calibrate()]
    root = workdir or tempfile.mkdtemp(prefix="bside-scale-")
    owns_root = workdir is None
    binaries = _build_binaries(os.path.join(root, "bin"), n_binaries)

    tier_records: dict[str, dict] = {}
    pooled_latencies: list[float] = []
    pooled_jobs = 0
    pooled_seconds = 0.0
    try:
        for workers in tiers:
            calibrations.append(_calibrate())
            state = os.path.join(root, f"state-{workers}w")
            service = AnalysisService(
                state,
                shared=True,
                dispatcher=False,
                shards=shards,
                lease_ttl=lease_ttl,
                queue_size=max(
                    64, 2 * max(clients_ramp) * jobs_per_client,
                ),
            )
            service.write_config()
            server = AsyncServiceServer(service, port=0)
            server.start(executor=False)
            processes = spawn_workers(state, workers,
                                      overrides={"poll": 0.05})
            try:
                client = ServiceClient(server.url, timeout=120.0,
                                       retries=5, backoff=0.05)
                # -- cold phase: empty cache, every job a real analysis
                t0 = time.perf_counter()
                submitted = [client.submit_path(path) for path in binaries]
                for job in submitted:
                    done = client.wait(job["id"], timeout=300.0, poll=0.02)
                    if done["status"] != "done":
                        raise RuntimeError(
                            f"cold job {job['id']} ended {done['status']}: "
                            f"{done.get('error', '')}"
                        )
                cold_seconds = time.perf_counter() - t0
                cold_rps = len(binaries) / cold_seconds

                # -- warm phase: cache-served, ramped concurrency
                levels = [
                    _run_warm_level(server.url, binaries, clients,
                                    jobs_per_client)
                    for __ in range(max(1, warm_passes))
                    for clients in clients_ramp
                ]
            finally:
                for process in processes:
                    process.terminate()
                for process in processes:
                    process.join(5.0)
                server.stop()

            for lv in levels:
                pooled_latencies.extend(lv.pop("latencies"))
                pooled_jobs += lv["jobs"]
                pooled_seconds += lv["seconds"]
            best = max(levels, key=lambda lv: lv["throughput_rps"])
            tier_records[str(workers)] = {
                "cold_seconds": round(cold_seconds, 6),
                "cold_throughput_rps": round(cold_rps, 4),
                "warm_levels": levels,
                "warm_best_throughput_rps": best["throughput_rps"],
                "warm_p50_ms": best["p50_ms"],
                "warm_p99_ms": best["p99_ms"],
                # saturation wants one monotone ramp, not all passes
                "saturation_clients": _saturation_clients(
                    levels[:len(clients_ramp)]),
            }
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)

    calibration = sorted(calibrations)[len(calibrations) // 2]
    for doc in tier_records.values():
        doc["normalized_cold_throughput"] = round(
            doc["cold_throughput_rps"] * calibration, 6)
        doc["normalized_warm_throughput"] = round(
            doc["warm_best_throughput_rps"] * calibration, 6)
        doc["normalized_warm_p99"] = round(
            doc["warm_p99_ms"] / 1e3 / calibration, 4)

    low = str(min(tiers))
    high = str(max(tiers))
    scale = (
        tier_records[high]["warm_best_throughput_rps"]
        / tier_records[low]["cold_throughput_rps"]
    )
    cold_scale = (
        tier_records[high]["cold_throughput_rps"]
        / tier_records[low]["cold_throughput_rps"]
    )
    return {
        "workload": SERVICE_WORKLOAD,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_seconds": round(calibration, 6),
        "calibration_samples": [round(c, 6) for c in calibrations],
        "binaries": n_binaries,
        "jobs_per_client": jobs_per_client,
        "clients_ramp": list(clients_ramp),
        "shards": shards,
        "tiers": tier_records,
        #: the acceptance ratio: max-tier steady-state (warm) throughput
        #: vs single-worker cold throughput, both over real sockets
        "scale_warm_max_vs_cold_1w": round(scale, 3),
        #: informational on single-core runners (amortisation only)
        "cold_scaling_max_vs_1w": round(cold_scale, 3),
        #: the gate's regression reference, pooled over *every* warm
        #: submission in the run (all tiers x levels x passes, several
        #: hundred samples).  A per-level p99 over <=64 samples is the
        #: single worst job — scheduler roulette on a contended
        #: single-core runner — while the pooled p99 and the aggregate
        #: throughput are stable run to run, and a real server/client/
        #: queue regression still moves both.
        "reference": {
            "tier": high,
            "warm_samples": pooled_jobs,
            "normalized_warm_throughput": round(
                pooled_jobs / pooled_seconds * calibration, 6),
            "normalized_warm_p99": round(
                _percentile(pooled_latencies, 0.99) / calibration, 4),
        },
    }


def format_service_measurement(record: dict) -> str:
    """Human-readable table for one measurement (bench output, CLI)."""
    lines = [
        f"service scale [{record['workload']}] on {record['platform']}",
        f"python {record['python']} ({record['implementation']}), "
        f"{record['cpu_count']} cpu core(s), "
        f"{record['binaries']} distinct binaries, shards={record['shards']}",
        "",
        f"{'tier':<6} {'cold s':>8} {'cold rps':>9} "
        f"{'warm rps':>9} {'p50 ms':>8} {'p99 ms':>8} {'sat@':>5}",
    ]
    for tier, doc in sorted(record["tiers"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"{tier + 'w':<6} {doc['cold_seconds']:>8.3f} "
            f"{doc['cold_throughput_rps']:>9.2f} "
            f"{doc['warm_best_throughput_rps']:>9.2f} "
            f"{doc['warm_p50_ms']:>8.2f} {doc['warm_p99_ms']:>8.2f} "
            f"{doc['saturation_clients']:>5}"
        )
    lines += [
        "",
        f"steady-state (warm, max tier) vs 1-worker cold: "
        f"{record['scale_warm_max_vs_cold_1w']:.1f}x",
        f"cold scaling max tier vs 1 worker: "
        f"{record['cold_scaling_max_vs_1w']:.2f}x (informational)",
        f"calibration {record['calibration_seconds']:.6f}s  ->  normalized "
        f"warm throughput {record['reference']['normalized_warm_throughput']:.4f}, "
        f"normalized p99 {record['reference']['normalized_warm_p99']:.4f}",
    ]
    return "\n".join(lines)
