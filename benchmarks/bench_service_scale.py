"""Service-scale load generator: the distributed tier under real load.

Runs the :mod:`repro.perf.servicebench` workload at full size — the
asyncio front end plus 1/2/4 lease-claiming worker processes, driven
over real localhost sockets by ramped concurrent clients pushing
thousands of submissions through the queue — and checks the one
self-contained ratio of the ``service`` row of the gate table
(:mod:`repro.perf.gate`):

* the acceptance ratio: the 4-worker tier's steady-state (warm)
  throughput vs the 1-worker *cold* throughput — asserted to stay
  >= 3x (the steady state a long-running daemon converges to vs its
  worst-case single-worker build-out).

It prints no drift against ``BENCH_service_scale.json``: the committed
entries were recorded with the gate's small profile, so a ratio against
this full-size load would compare two different loads.
``tools/gate.py service`` is the drift check.

The CI gate uses a deterministic small-scale profile of this same
workload; this bench is the full-size load generator (32 distinct
binaries, client ramp up to 64, ~2600 warm submissions per tier).
"""

from __future__ import annotations

import os

from repro.perf import (
    format_service_measurement,
    load_trajectory,
    measure_service_scale,
)
from repro.perf.gate import GATES, evaluate

from _report import emit

ROW = GATES["service"]

#: full-size load profile (the CI gate runs a smaller deterministic one)
TIERS = (1, 2, 4)
N_BINARIES = 32
CLIENTS_RAMP = (8, 16, 32, 64)
JOBS_PER_CLIENT = 8


def test_service_scale_trajectory(benchmark):
    record = measure_service_scale(
        tiers=TIERS,
        n_binaries=N_BINARIES,
        clients_ramp=CLIENTS_RAMP,
        jobs_per_client=JOBS_PER_CLIENT,
    )
    trajectory = load_trajectory(ROW.path, workload=ROW.workload)
    verdict = evaluate(ROW, record, trajectory, seeding=True)

    lines = [format_service_measurement(record), ""]
    lines.append(
        f"warm submissions per tier: "
        f"{sum(c * JOBS_PER_CLIENT for c in CLIENTS_RAMP)} "
        f"({len(TIERS)} tiers, {N_BINARIES} distinct binaries)"
    )
    lines += verdict.lines
    emit("service_scale",
         "Service-scale trajectory (BENCH_service_scale.json)",
         "\n".join(lines))

    if benchmark is not None:
        # Timed unit: one warm submit→done round trip against a live
        # 1-worker deployment (socket + queue + lease + cache hit).
        import tempfile

        from repro.service import (
            AnalysisService,
            AsyncServiceServer,
            ServiceClient,
            spawn_workers,
        )
        from repro.perf.servicebench import _build_binaries

        root = tempfile.mkdtemp(prefix="bside-scale-unit-")
        paths = _build_binaries(os.path.join(root, "bin"), 1)
        service = AnalysisService(
            os.path.join(root, "state"), shared=True,
        )
        service.write_config()
        server = AsyncServiceServer(service, port=0)
        server.start(executor=False)
        processes = spawn_workers(os.path.join(root, "state"), 1,
                                  overrides={"poll": 0.05})
        try:
            client = ServiceClient(server.url, timeout=60.0)
            warm = client.submit_path(paths[0])
            client.wait(warm["id"], timeout=120.0)

            def warm_request():
                job = client.submit_path(paths[0])
                return client.wait(job["id"], timeout=60.0, poll=0.005)

            benchmark(warm_request)
        finally:
            for process in processes:
                process.terminate()
            server.stop()

    assert not verdict.problems, verdict.problems
