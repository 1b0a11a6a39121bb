"""Benchmark trajectories: append-only measurement histories.

A *trajectory* is the append-only history of measurements across PRs::

    {"schema": 1, "workload": "cold-kernel-v1", "entries": [
        {"label": "pre-pr4-seed", "role": "pre-opt-baseline", ...},
        {"label": "pr4-optimized", "role": "optimized", ...}]}

Four trajectories are committed at the repository root, each gated by
one row of :data:`repro.perf.gate.GATES` (``tools/gate.py WORKLOAD``):

* ``BENCH_cold_kernel.json`` (workload ``cold-kernel-v1``, row
  ``cold``) — cold per-binary analysis wall time
  (:mod:`repro.perf.coldbench`);
* ``BENCH_eval_accuracy.json`` (workload ``eval-accuracy-v1``, row
  ``accuracy``) — the paper's §5 accuracy reproduction (per-tool
  precision/recall/F1 over the validation apps + corpus completion),
  also recorded by ``bside eval`` and checked by
  :func:`repro.eval.gate.gate_accuracy`;
* ``BENCH_service_scale.json`` (workload ``service-scale-v1``, row
  ``service``) — the distributed service tier under load (cold/warm
  throughput, p50/p99 latency, and saturation point at 1/2/4 worker
  processes over real sockets; :mod:`repro.perf.servicebench`);
* ``BENCH_incremental.json`` (workload ``incremental-v1``, row
  ``incremental``) — rebuild locality of the function-granular
  incremental pipeline (fraction of functions re-analyzed after a
  3-of-~400-function mutation, plus cold/incremental equivalence;
  :mod:`repro.perf.incbench`).

All share this module's schema, file format, and load/append/save
machinery; only the per-entry record shape differs.  Each entry is one
measurement record plus a ``label`` and a ``role``.  In the cold-kernel
trajectory:

* ``pre-opt-baseline`` — the kernel *before* the PR-4 optimisation
  work; the ≥3x speedup acceptance target is measured against the
  first such entry (:attr:`Trajectory.pre_optimization`).
* ``optimized`` — every later measurement; regression gates compare
  against the **last** entry (:attr:`Trajectory.baseline`), whatever
  its role.

Gates compare normalized timings (seconds divided by an in-run
calibration loop), so a baseline recorded on a developer laptop still
gates a CI container: machine speed cancels out of the ratio.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

SCHEMA = 1

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

#: default cold-kernel trajectory location: the repository root
DEFAULT_PATH = os.path.join(_REPO_ROOT, "BENCH_cold_kernel.json")

#: the accuracy trajectory (``bside eval`` / ``tools/gate.py accuracy``)
ACCURACY_PATH = os.path.join(_REPO_ROOT, "BENCH_eval_accuracy.json")
ACCURACY_WORKLOAD = "eval-accuracy-v1"

#: the service-scale trajectory (``benchmarks/bench_service_scale.py`` /
#: ``tools/gate.py service``)
SERVICE_PATH = os.path.join(_REPO_ROOT, "BENCH_service_scale.json")
SERVICE_WORKLOAD = "service-scale-v1"

#: the incremental-rebuild trajectory (``benchmarks/bench_incremental.py``
#: / ``tools/gate.py incremental``)
INCREMENTAL_PATH = os.path.join(_REPO_ROOT, "BENCH_incremental.json")
INCREMENTAL_WORKLOAD = "incremental-v1"

ROLE_PRE = "pre-opt-baseline"
ROLE_OPTIMIZED = "optimized"
#: role of every accuracy-trajectory entry
ROLE_ACCURACY = "accuracy"
#: role of every service-scale entry
ROLE_SERVICE = "service-scale"
#: role of every incremental-rebuild entry
ROLE_INCREMENTAL = "incremental"


@dataclass
class Trajectory:
    """Parsed trajectory file."""

    entries: list[dict] = field(default_factory=list)
    workload: str = "cold-kernel-v1"

    @property
    def baseline(self) -> dict | None:
        """The entry the regression gate compares against (the latest)."""
        return self.entries[-1] if self.entries else None

    @property
    def pre_optimization(self) -> dict | None:
        """The pre-PR-4 kernel entry (speedup target anchor)."""
        for entry in self.entries:
            if entry.get("role") == ROLE_PRE:
                return entry
        return None

    def append(self, record: dict, label: str, role: str = ROLE_OPTIMIZED) -> dict:
        entry = dict(record)
        entry["label"] = label
        entry["role"] = role
        self.entries.append(entry)
        return entry

    def to_doc(self) -> dict:
        return {
            "schema": SCHEMA,
            "workload": self.workload,
            "entries": self.entries,
        }


def load_trajectory(
    path: str = DEFAULT_PATH, workload: str | None = None,
) -> Trajectory:
    """Load a trajectory file; an absent file is an empty trajectory.

    ``workload`` names the trajectory the caller expects: it labels a
    freshly-created (absent-file) trajectory and is *validated* against
    an existing file — appending accuracy records to the cold-kernel
    file (or vice versa) would poison the other gate's baseline, so a
    mismatch raises instead.  ``None`` accepts any workload
    (introspection-only callers).
    """
    if not os.path.exists(path):
        return Trajectory(workload=workload or "cold-kernel-v1")
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported trajectory schema {doc.get('schema')!r}"
        )
    recorded = doc.get("workload", "cold-kernel-v1")
    if workload is not None and recorded != workload:
        raise ValueError(
            f"{path}: trajectory records workload {recorded!r}, "
            f"expected {workload!r} — refusing to mix measurement kinds "
            f"in one file"
        )
    return Trajectory(
        entries=list(doc.get("entries", [])),
        workload=recorded,
    )


def save_trajectory(trajectory: Trajectory, path: str = DEFAULT_PATH) -> None:
    # Per-writer temp name: a concurrent ``bside eval`` and a gate
    # ``--record`` must not truncate each other's half-written file.
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w") as f:
        json.dump(trajectory.to_doc(), f, indent=2)
        f.write("\n")
    os.replace(tmp, path)
