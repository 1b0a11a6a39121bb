"""Incremental-rebuild benchmark: locality of re-analysis, measured.

Runs the :mod:`repro.perf.incbench` workload — a ~400-function static
binary mutated in 3 functions, re-analyzed through the function-granular
``funccfg`` cache — and reports it against the committed
``BENCH_incremental.json`` trajectory:

* the **re-analyzed fraction** (changed functions plus their dependency
  cone over the whole partition) — asserted to stay under 5%, the
  acceptance target the CI gate (``tools/gate.py incremental``)
  enforces;
* the **site re-execution fraction** (identification anchors whose
  backward symex ran live instead of replaying a cached ``funcid``
  product) — same 5% ceiling: the symex stage must scale with the
  change too;
* **equivalence** of the incremental and cold reports for the same
  mutated bytes — asserted outright: a fast-but-wrong rebuild is worse
  than a slow one;
* cold vs incremental wall time, reported for the record.

The floors are the ``incremental`` row of the gate table
(:mod:`repro.perf.gate`).
"""

from __future__ import annotations

import os

from repro.perf import load_trajectory
from repro.perf.gate import GATES, evaluate
from repro.perf.incbench import format_incremental_measurement

from _report import emit

ROW = GATES["incremental"]


def test_incremental_trajectory(benchmark):
    record = ROW.measure()
    trajectory = load_trajectory(ROW.path, workload=ROW.workload)
    verdict = evaluate(ROW, record, trajectory)

    emit("incremental",
         "Incremental-rebuild trajectory (BENCH_incremental.json)",
         "\n".join([format_incremental_measurement(record), *verdict.lines]))

    if benchmark is not None:
        from repro.core import ArtifactStore, BSideAnalyzer
        from repro.core.report import AnalysisBudget
        from repro.corpus import build_app
        from repro.loader.image import LoadedImage

        bundle = build_app("redis")
        store_dir = os.path.join(
            os.path.dirname(ROW.path), ".bench-inc-cache"
        )

        def incremental_one():
            analyzer = BSideAnalyzer(
                resolver=bundle.resolver,
                budget=AnalysisBudget.generous(),
                artifact_store=ArtifactStore(store_dir),
                incremental=True,
            )
            analyzer.artifacts.prune("report")
            return analyzer.analyze(
                LoadedImage.from_bytes("redis", bundle.program.elf_bytes)
            )

        try:
            benchmark(incremental_one)
        finally:
            import shutil

            shutil.rmtree(store_dir, ignore_errors=True)

    assert not verdict.problems, verdict.problems
