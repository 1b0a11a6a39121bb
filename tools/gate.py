#!/usr/bin/env python3
"""CI gates: measure one workload and gate it against its trajectory.

WORKLOAD is a row of :data:`repro.perf.gate.GATES`; each row has a
``make`` alias, enforced in CI:

* ``cold`` (``make bench-gate``) — the cold kernel vs
  ``BENCH_cold_kernel.json``: at most 15% normalized regression vs the
  latest entry, at least 3x faster than the pre-optimization baseline;
* ``service`` (``make service-gate``) — the distributed tier vs
  ``BENCH_service_scale.json``: at most 15% warm p99 / throughput
  regression, max-tier warm throughput at least 3x 1-worker cold;
* ``incremental`` (``make incremental-gate``) — rebuild and symex
  locality at most 5%, incremental == cold report
  (``BENCH_incremental.json``);
* ``accuracy`` (``make eval-gate``) — :func:`repro.eval.gate.gate_accuracy`
  over ``BENCH_eval_accuracy.json``.

Usage::

    python tools/gate.py cold                       # gate only
    python tools/gate.py cold --record LABEL        # gate, append on pass
    python tools/gate.py cold --record LABEL --seed-baseline
        # apply only the checks that need no trajectory entry, then
        # record (cold seeds a pre-opt-baseline entry)

Exit status: 0 gates pass, 1 a gate failed, 2 usage errors (including a
margin the workload has no bound for).
"""

from __future__ import annotations

import argparse
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.perf import load_trajectory, save_trajectory  # noqa: E402
from repro.perf.gate import GATES, MARGIN_OPTIONS, evaluate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GATES))
    parser.add_argument(
        "--record", metavar="LABEL",
        help="append the measurement to the trajectory under LABEL "
             "(only when the gate passes)",
    )
    parser.add_argument(
        "--seed-baseline", action="store_true",
        help="with --record: apply only the checks that need no "
             "trajectory entry, then record",
    )
    parser.add_argument(
        "--max-regression", type=float,
        help="allowed fractional regression vs the latest entry "
             "(default 0.15)",
    )
    parser.add_argument(
        "--min-speedup", type=float,
        help="required speedup vs the pre-optimization baseline "
             "(default 3)",
    )
    args = parser.parse_args(argv)
    row = GATES[args.workload]
    prefix = f"{row.name}-gate"
    margins = {
        option: getattr(args, option)
        for option in MARGIN_OPTIONS.values()
        if getattr(args, option) is not None
    }
    for option in sorted(set(margins) - row.margins):
        parser.error(f"the {row.name} gate has no bound for "
                     f"--{option.replace('_', '-')}")
    if args.seed_baseline and not args.record:
        parser.error("--seed-baseline requires --record LABEL")

    try:
        trajectory = load_trajectory(row.path, workload=row.workload)
    except ValueError as error:
        print(f"{prefix}: {error}", file=sys.stderr)
        return 2
    print(f"{prefix}: {row.intro}")
    record = row.measure()
    print(row.format(record, trajectory))
    print()

    verdict = evaluate(
        row, record, trajectory, margins=margins, seeding=args.seed_baseline,
    )
    for line in verdict.lines:
        print(f"{prefix}: {line}")
    if not verdict.ok:
        for problem in verdict.problems + verdict.regressions:
            print(f"{prefix}: FAIL: {problem}", file=sys.stderr)
        return 1
    if args.record:
        role = (row.seed_role if args.seed_baseline else None) or row.role
        trajectory.append(record, label=args.record, role=role)
        save_trajectory(trajectory, row.path)
        print(f"{prefix}: recorded entry '{args.record}' ({role}) "
              f"in {row.path}")
    if args.seed_baseline:
        print(f"{prefix}: baseline seeded (trajectory-entry checks skipped)")
    print(f"{prefix}: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
