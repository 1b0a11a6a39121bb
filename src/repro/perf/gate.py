"""The CI gates: one table of rows, one evaluator.

Each row of :data:`GATES` turns one committed ``BENCH_*.json``
trajectory into a CI invariant (``tools/gate.py WORKLOAD``, run by
``make bench-gate`` / ``service-gate`` / ``incremental-gate`` /
``eval-gate``).  A row names how to measure and print a fresh record,
the trajectory it is gated against and recorded into, and its gated
:class:`Metric` s.  A metric compares one record key in one of three
ways, by what it is measured ``against``:

* ``None`` — a self-contained floor on the value itself (the ≥3x
  service scale, the 5% rebuild and symex locality, equivalence);
* :data:`LATEST` — the ratio to the latest trajectory entry, allowed to
  regress by a fractional margin (``--max-regression``);
* :data:`~repro.perf.trajectory.ROLE_PRE` — the speedup over the
  pre-optimization baseline entry (``--min-speedup``).

The accuracy row has no metrics: its check is
:func:`repro.eval.gate.gate_accuracy` (validity, recall floor against
the latest comparable entry, F1 ordering, signature refinement).

Normalized timings cancel machine speed, so a trajectory recorded on one
machine gates another (``docs/performance.md``); the benches under
``benchmarks/`` report the same lines and assert the same floors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..eval import EvalConfig, format_gate_diff, gate_accuracy, run_eval
from ..eval.gate import GATE_SCALE, GATE_SEED
from .coldbench import format_measurement, measure_cold_kernel
from .incbench import format_incremental_measurement, measure_incremental
from .servicebench import format_service_measurement, measure_service_scale
from .trajectory import (
    ACCURACY_PATH,
    ACCURACY_WORKLOAD,
    DEFAULT_PATH,
    INCREMENTAL_PATH,
    INCREMENTAL_WORKLOAD,
    ROLE_ACCURACY,
    ROLE_INCREMENTAL,
    ROLE_OPTIMIZED,
    ROLE_PRE,
    ROLE_SERVICE,
    SERVICE_PATH,
    SERVICE_WORKLOAD,
    Trajectory,
)

#: a metric compared as a ratio to the latest trajectory entry
LATEST = "latest"

#: the CLI margin that overrides a metric's default, by ``against``
MARGIN_OPTIONS = {LATEST: "max_regression", ROLE_PRE: "min_speedup"}


@dataclass(frozen=True)
class Metric:
    """One gated record value.

    ``key`` is a dotted path into the record; ``better`` the direction
    of the compared value (the ratio for :data:`LATEST`, the speedup for
    ``ROLE_PRE``); ``margin`` the default bound: the floor or ceiling
    itself, or for :data:`LATEST` the fractional regression allowed.
    ``line`` (optional) and ``problem`` are format strings over
    ``value``, ``limit``, ``current``, ``base``, ``label`` and the
    record's top-level fields.  A record without ``key`` skips the
    metric, so older entries still gate.
    """

    key: str
    better: str
    margin: float
    problem: str
    against: str | None = None
    line: str | None = None

    def limit(self, margin: float) -> float:
        if self.against != LATEST:
            return margin
        return 1.0 + margin if self.better == "lower" else 1.0 - margin

    def holds(self, value: float, limit: float) -> bool:
        return value <= limit if self.better == "lower" else value >= limit


@dataclass(frozen=True)
class GateRow:
    """One gated workload: how to measure it and what it must satisfy."""

    #: the ``tools/gate.py`` argument and the printed ``<name>-gate`` prefix
    name: str
    #: the trajectory's workload id and file
    workload: str
    path: str
    role: str
    intro: str
    measure: Callable[[], dict]
    format: Callable[[dict, Trajectory], str]
    metrics: tuple[Metric, ...] = ()
    #: ``(record, trajectory, seeding) -> (problems, lines)`` beyond the
    #: metrics (the accuracy row's :func:`gate_accuracy`)
    check: Callable | None = None
    #: role of an entry recorded with ``--seed-baseline`` (default: role)
    seed_role: str | None = None

    @property
    def margins(self) -> set[str]:
        """The CLI margins this row has a bound for."""
        return {MARGIN_OPTIONS[m.against] for m in self.metrics if m.against}


@dataclass
class Verdict:
    """Outcome of gating one record against its trajectory."""

    #: failed floors and checks: these hold on every run
    problems: list[str] = field(default_factory=list)
    #: failed comparisons with the latest entry (and its absence)
    regressions: list[str] = field(default_factory=list)
    #: the printed ratio/speedup/scale lines
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not self.regressions


def _lookup(record: dict, key: str):
    for part in key.split("."):
        if part not in record:
            return None
        record = record[part]
    return record


def evaluate(
    row: GateRow,
    record: dict,
    trajectory: Trajectory,
    *,
    margins: dict[str, float] | None = None,
    seeding: bool = False,
) -> Verdict:
    """Gate ``record`` against ``trajectory`` under ``row``.

    ``margins`` overrides defaults by CLI option name (``max_regression``,
    ``min_speedup``).  ``seeding`` applies only the checks that need no
    trajectory entry.  A metric row fails closed on a trajectory without
    entries (a ``check`` handles that itself); a ``ROLE_PRE`` metric is
    skipped while the trajectory has no such entry.
    """
    margins = margins or {}
    verdict = Verdict()
    latest = trajectory.baseline
    entries = {LATEST: latest, ROLE_PRE: trajectory.pre_optimization}
    for metric in row.metrics:
        current = _lookup(record, metric.key)
        if current is None or (seeding and metric.against):
            continue
        entry = entries.get(metric.against)
        if metric.against is None:
            base, value = None, float(current)  # equivalence: True is 1
        elif entry is None:
            continue
        else:
            base = _lookup(entry, metric.key)
            value = current / base if metric.against == LATEST else (
                base / current  # speedup of a lower-is-better time
            )
        limit = metric.limit(margins.get(
            MARGIN_OPTIONS.get(metric.against), metric.margin,
        ))
        fields = dict(
            record, value=value, limit=limit, current=current, base=base,
            label=(entry or {}).get("label", "?"),
        )
        if metric.line is not None:
            verdict.lines.append(metric.line.format(**fields))
        if not metric.holds(value, limit):
            failed = (verdict.regressions if metric.against == LATEST
                      else verdict.problems)
            failed.append(metric.problem.format(**fields))
    if row.check is not None:
        problems, lines = row.check(record, trajectory, seeding)
        verdict.problems += problems
        verdict.lines += lines
    elif latest is None and not seeding:
        verdict.regressions.append(
            f"no baseline entry in the trajectory: record one first "
            f"(tools/gate.py {row.name} --record <label>)"
        )
    return verdict


def _check_accuracy(record: dict, trajectory: Trajectory, seeding: bool):
    if seeding:
        trajectory = Trajectory(workload=trajectory.workload)
    result = gate_accuracy(
        record, trajectory, require_baseline=not seeding,
        require_sig_ablation=True,
    )
    return result.problems, [
        f"B-Side recall {result.recall:.4f}, F1 {result.f1:.4f}"
    ]


_BASE = "the baseline entry '{label}' ({base:.4f})"

GATES: dict[str, GateRow] = {row.name: row for row in (
    GateRow(
        name="cold",
        workload="cold-kernel-v1",
        path=DEFAULT_PATH,
        role=ROLE_OPTIMIZED,
        seed_role=ROLE_PRE,
        intro="measuring cold kernel (best of 3)...",
        measure=measure_cold_kernel,
        format=lambda record, _: format_measurement(record),
        metrics=(
            Metric(
                "normalized_cold", "lower", 0.15, against=LATEST,
                line="vs latest entry '{label}': {value:.3f}x normalized "
                     "cold (max allowed {limit:.2f}x)",
                problem="cold-path regression: normalized cold "
                        "{current:.4f} is {value:.2f}x " + _BASE
                        + "; allowed at most {limit:.2f}x",
            ),
            Metric(
                "normalized_cold", "higher", 3.0, against=ROLE_PRE,
                line="speedup vs pre-optimization baseline: {value:.2f}x "
                     "(required >= {limit:.1f}x)",
                problem="cold-kernel speedup vs pre-optimization baseline "
                        "'{label}' is {value:.2f}x; required >= {limit:.1f}x",
            ),
        ),
    ),
    GateRow(
        name="service",
        workload=SERVICE_WORKLOAD,
        path=SERVICE_PATH,
        role=ROLE_SERVICE,
        intro="driving the service tier at 1/2/4 workers "
              "(8 binaries, clients 4,8,16)...",
        measure=measure_service_scale,
        format=lambda record, _: format_service_measurement(record),
        metrics=(
            Metric(
                "reference.normalized_warm_p99", "lower", 0.15,
                against=LATEST,
                line="vs latest entry '{label}': {value:.3f}x normalized "
                     "warm p99 (max allowed {limit:.2f}x)",
                problem="p99 latency regression: normalized warm p99 "
                        "{current:.4f} is {value:.2f}x " + _BASE
                        + "; allowed at most {limit:.2f}x",
            ),
            Metric(
                "reference.normalized_warm_throughput", "higher", 0.15,
                against=LATEST,
                line="normalized warm throughput ratio {value:.3f}x "
                     "(min allowed {limit:.2f}x)",
                problem="throughput drop: normalized warm throughput "
                        "{current:.4f} is {value:.2f}x " + _BASE
                        + "; allowed at least {limit:.2f}x",
            ),
            Metric(
                "scale_warm_max_vs_cold_1w", "higher", 3.0,
                line="steady-state scale ratio {value:.2f}x "
                     "(required >= {limit:.1f}x)",
                problem="worker scaling: max-tier steady-state throughput "
                        "is only {value:.2f}x the 1-worker cold throughput; "
                        "required >= {limit:.1f}x",
            ),
        ),
    ),
    GateRow(
        name="incremental",
        workload=INCREMENTAL_WORKLOAD,
        path=INCREMENTAL_PATH,
        role=ROLE_INCREMENTAL,
        intro="measuring incremental rebuild (best of 3)...",
        measure=measure_incremental,
        format=lambda record, _: format_incremental_measurement(record),
        metrics=(
            Metric(
                "reanalyzed_fraction", "lower", 0.05,
                problem="rebuild locality: a {functions_changed}-function "
                        "mutation re-analyzed {functions_reanalyzed} of "
                        "{functions_total} functions ({value:.2%}); "
                        "allowed at most {limit:.1%}",
            ),
            Metric(
                "sites_reexecuted_fraction", "lower", 0.05,
                problem="symex locality: a {functions_changed}-function "
                        "mutation re-executed {sites_reexecuted} of "
                        "{sites_total} identification sites ({value:.2%}); "
                        "allowed at most {limit:.1%}",
            ),
            Metric(
                "equivalent", "higher", 1.0,
                problem="equivalence: the incremental report differed from "
                        "the cold report of the same mutated binary",
            ),
        ),
    ),
    GateRow(
        name="accuracy",
        workload=ACCURACY_WORKLOAD,
        path=ACCURACY_PATH,
        role=ROLE_ACCURACY,
        intro=f"evaluating at scale {GATE_SCALE:g}, seed {GATE_SEED}...",
        measure=lambda: run_eval(
            EvalConfig(scale=GATE_SCALE, seed=GATE_SEED)
        ).to_record(),
        format=format_gate_diff,
        check=_check_accuracy,
    ),
)}
