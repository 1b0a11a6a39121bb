"""Cold-kernel benchmark: the PR-4 optimisation target, measured.

Runs the :mod:`repro.perf.coldbench` workload (end-to-end cold analysis
of the six validation apps + component micro-benchmarks) and reports it
against the committed ``BENCH_cold_kernel.json`` trajectory through the
``cold`` row of the gate table (:mod:`repro.perf.gate`):

* speedup vs the recorded **pre-optimization baseline** (the seed
  kernel before the table-driven decoder / indexed CFG / bitset
  reachability work) — asserted to stay at the row's floor (3x);
* drift vs the **latest** trajectory entry (the regression the CI perf
  gate enforces at 15%; the bench itself only reports it, since
  ``tools/gate.py cold`` is the enforcement point).

Comparisons use normalized cold time (calibrated against an in-run
pure-Python loop), so the assertion holds across machines.
"""

from __future__ import annotations

from repro.perf import load_trajectory
from repro.perf.coldbench import format_measurement
from repro.perf.gate import GATES, evaluate

from _report import emit

ROW = GATES["cold"]


def test_cold_kernel_trajectory(benchmark):
    record = ROW.measure()
    trajectory = load_trajectory(ROW.path, workload=ROW.workload)
    verdict = evaluate(ROW, record, trajectory)

    lines = [format_measurement(record), "", *verdict.lines]
    pre = trajectory.pre_optimization
    if pre is not None:
        lines.append(f"component speedups vs '{pre['label']}':")
        for name, seconds in record["components"].items():
            before = pre.get("components", {}).get(name)
            if before:
                lines.append(f"  {name:<24} {before / seconds:>6.2f}x")
    emit("cold_kernel", "Cold-kernel trajectory (BENCH_cold_kernel.json)",
         "\n".join(lines))

    if benchmark is not None:
        from repro.core import AnalysisBudget, BSideAnalyzer
        from repro.corpus import APP_NAMES, build_app

        bundle = build_app(APP_NAMES[0])

        def cold_one():
            analyzer = BSideAnalyzer(
                resolver=bundle.resolver, budget=AnalysisBudget.generous(),
            )
            return analyzer.analyze(
                bundle.program.image, modules=bundle.module_images,
            )

        benchmark(cold_one)

    assert not verdict.problems, verdict.problems
