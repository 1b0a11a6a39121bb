"""Performance measurement subsystem.

The cold per-binary analysis kernel is this reproduction's Table-3 cost
story: B-Side's pitch is that static identification is cheap enough to
run at scale, so the cold path must be *measured*, not assumed.  This
package owns that measurement:

* :mod:`repro.perf.coldbench` — the cold-kernel workload: end-to-end
  cold analysis of the six §5.1 validation apps plus component
  micro-benchmarks (decode, CFG build, reachability, block lookup),
  normalised by an in-run pure-Python calibration loop so results
  compare across machines.
* :mod:`repro.perf.servicebench` — the service-scale workload: the
  asyncio front end, lease-claiming worker processes, and the sharded
  artifact store driven over real sockets at 1/2/4 workers (cold/warm
  throughput, p50/p99 latency, saturation point).
* :mod:`repro.perf.incbench` — the incremental-rebuild workload: a
  ~400-function binary mutated in 3 functions, re-analyzed through the
  function-granular ``funccfg`` cache (fraction of functions
  re-analyzed, cold/incremental equivalence and timings).
* :mod:`repro.perf.trajectory` — the append-only ``BENCH_*.json``
  trajectory files recording measurements across PRs.
* :mod:`repro.perf.gate` — one table of gate rows, one per trajectory,
  and the evaluator ``tools/gate.py WORKLOAD`` enforces in CI.

See ``docs/performance.md`` for the workflow.
"""

from .coldbench import measure_cold_kernel
from .incbench import format_incremental_measurement, measure_incremental
from .servicebench import format_service_measurement, measure_service_scale
from .trajectory import (
    ACCURACY_PATH,
    ACCURACY_WORKLOAD,
    INCREMENTAL_PATH,
    INCREMENTAL_WORKLOAD,
    ROLE_ACCURACY,
    ROLE_INCREMENTAL,
    ROLE_SERVICE,
    SERVICE_PATH,
    SERVICE_WORKLOAD,
    Trajectory,
    load_trajectory,
    save_trajectory,
)

__all__ = [
    "ACCURACY_PATH",
    "ACCURACY_WORKLOAD",
    "INCREMENTAL_PATH",
    "INCREMENTAL_WORKLOAD",
    "ROLE_ACCURACY",
    "ROLE_INCREMENTAL",
    "ROLE_SERVICE",
    "SERVICE_PATH",
    "SERVICE_WORKLOAD",
    "Trajectory",
    "format_incremental_measurement",
    "format_service_measurement",
    "load_trajectory",
    "measure_cold_kernel",
    "measure_incremental",
    "measure_service_scale",
    "save_trajectory",
]
