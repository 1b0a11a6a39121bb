"""The accuracy gate: B-Side's headline claim, enforced in CI.

The paper's core result is an *accuracy* claim — perfect recall (no
false negatives on anything the tool completes) with a tighter policy
than the baselines.  :func:`gate_accuracy` turns that claim into a CI
invariant over the ``BENCH_eval_accuracy.json`` trajectory:

* **validity** — B-Side's minimum per-app recall must be 1.0: a single
  false negative on a completed validation app breaks applications
  under the derived filter and fails the gate outright;
* **recall floor** — B-Side's aggregate recall may not drop below the
  latest recorded trajectory entry's (no silent accuracy regressions);
* **ordering** — no baseline's aggregate F1 may beat B-Side's: if a
  30-line register scan scores better, the identification pipeline has
  regressed in a way raw recall cannot see;
* **refinement** — when the record carries the signature-filter
  ablation (both configurations scored per app), the filtered
  configuration's precision must be at least the unfiltered one's and
  its aggregate recall must be exactly 1.0: the refinement may only
  ever *remove* false positives, never trade recall for precision.

It is the check of the ``accuracy`` row of the gate table
(:mod:`repro.perf.gate`): ``tools/gate.py accuracy`` drives it from
``make eval-gate`` and additionally *requires* the ablation section to
be present.  ``--seed-baseline`` runs it against an empty trajectory
with ``require_baseline=False``, so only the structural gates apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.trajectory import Trajectory
from .tools import TOOL_BSIDE

#: the CI gate's fixed workload: small enough for CI, big enough that
#: the scaled corpus keeps every population class.  Shared by
#: ``tools/gate.py accuracy`` and the README results drift check.
GATE_SCALE = 0.2
GATE_SEED = 42


def latest_comparable(
    trajectory: Trajectory, scale: float, seed: int,
) -> dict | None:
    """The latest *full-shape* trajectory entry at this exact workload.

    Accuracy numbers are only comparable between runs of the *same*
    corpus: the trajectory may also hold entries at other scales/seeds
    (full-scale runs), and gating the CI workload against one of those
    would compare different populations.  Shape-incomplete records are
    skipped too — an ``--apps-only`` run (no corpus) or a ``--tools``
    subset without B-Side is legitimate history, but it can neither
    anchor the recall floor nor render the README results table.
    """
    for entry in reversed(trajectory.entries):
        if (
            entry.get("scale") == scale
            and entry.get("seed") == seed
            and entry.get("corpus_binaries")
            and TOOL_BSIDE in entry.get("tools", {})
        ):
            return entry
    return None


@dataclass
class AccuracyGateResult:
    """Outcome of gating one evaluation record against the trajectory."""

    ok: bool
    problems: list[str] = field(default_factory=list)
    #: current B-Side aggregate recall / F1
    recall: float = 0.0
    f1: float = 0.0
    #: the trajectory entry compared against (None when seeding)
    baseline_label: str | None = None


def gate_accuracy(
    record: dict,
    trajectory: Trajectory,
    *,
    recall_slack: float = 0.0,
    f1_margin: float = 0.0,
    require_baseline: bool = True,
    require_sig_ablation: bool = False,
) -> AccuracyGateResult:
    """Apply the accuracy gates to a fresh evaluation record.

    ``recall_slack`` loosens the trajectory floor (0.0 = B-Side recall
    may never drop at all); ``f1_margin`` lets a baseline come within
    that margin of B-Side's F1 without failing.  The floor compares
    against the latest trajectory entry recorded at the *same*
    ``(scale, seed)`` workload (:func:`latest_comparable`) — entries
    from other workloads are not comparable and are skipped.  With
    ``require_baseline=False`` a trajectory with no comparable entry
    applies only the structural gates (used when seeding the first
    entry).  ``require_sig_ablation`` makes a record *without* the
    signature-filter ablation section fail outright (CI runs both
    configurations; a record missing one cannot certify the
    refinement gate).
    """
    result = AccuracyGateResult(ok=True)
    tools = record.get("tools", {})
    bside = tools.get(TOOL_BSIDE)
    if bside is None:
        result.ok = False
        result.problems.append(
            f"record has no '{TOOL_BSIDE}' aggregate: the evaluation must "
            f"include the tool the gate protects (bside eval --tools)"
        )
        return result
    result.recall = bside["recall"]
    result.f1 = bside["f1"]

    # Gate 1: validity — zero false negatives on every completed app.
    if bside["min_recall"] < 1.0:
        result.ok = False
        result.problems.append(
            f"validity violation: B-Side min per-app recall is "
            f"{bside['min_recall']:.4f} (< 1.0) — some completed validation "
            f"app has false negatives "
            f"({bside['valid_apps']}/{bside['completed_apps']} apps valid)"
        )

    # Gate 2: ordering — no baseline may beat B-Side's aggregate F1.
    for tool, agg in tools.items():
        if tool == TOOL_BSIDE:
            continue
        if agg["f1"] > bside["f1"] + f1_margin:
            result.ok = False
            result.problems.append(
                f"ordering violation: baseline '{tool}' F1 {agg['f1']:.4f} "
                f"beats B-Side's {bside['f1']:.4f} "
                f"(margin {f1_margin:.4f})"
            )

    # Gate 4: refinement — the signature filter must be precision-
    # positive at zero recall risk (both configs scored per app).
    sig = bside.get("sig_filter")
    if sig is None:
        if require_sig_ablation:
            result.ok = False
            result.problems.append(
                "record has no 'sig_filter' ablation aggregate: the "
                "evaluation must score both indirect-signature "
                "configurations (run bside eval without --no-sig-filter)"
            )
    else:
        if bside["precision"] < sig["precision_unfiltered"]:
            result.ok = False
            result.problems.append(
                f"refinement regression: sig-filter precision "
                f"{bside['precision']:.4f} is below the unfiltered "
                f"configuration's {sig['precision_unfiltered']:.4f} — "
                f"the signature filter must never lose precision"
            )
        if bside["recall"] != 1.0:
            result.ok = False
            result.problems.append(
                f"refinement recall violation: sig-filter aggregate "
                f"recall {bside['recall']:.4f} != 1.0 — the signature "
                f"filter may only remove false positives"
            )

    # Gate 3: recall floor vs the recorded trajectory (same workload).
    baseline = latest_comparable(
        trajectory, record.get("scale"), record.get("seed"),
    )
    if baseline is None:
        if require_baseline:
            result.ok = False
            result.problems.append(
                f"no comparable baseline entry (scale "
                f"{record.get('scale')}, seed {record.get('seed')}) in the "
                f"accuracy trajectory: record one first "
                f"(tools/gate.py accuracy --record <label>)"
            )
        return result
    result.baseline_label = baseline.get("label")
    base_bside = baseline.get("tools", {}).get(TOOL_BSIDE)
    if base_bside is None:
        result.ok = False
        result.problems.append(
            f"trajectory entry '{result.baseline_label}' has no "
            f"'{TOOL_BSIDE}' aggregate to gate against"
        )
        return result
    floor = base_bside["recall"] - recall_slack
    if bside["recall"] < floor:
        result.ok = False
        result.problems.append(
            f"recall regression: B-Side aggregate recall "
            f"{bside['recall']:.4f} dropped below the recorded baseline "
            f"'{result.baseline_label}' ({base_bside['recall']:.4f}, "
            f"slack {recall_slack:.4f})"
        )
    return result


def format_gate_diff(record: dict, trajectory: Trajectory) -> str:
    """A readable current-vs-recorded diff for gate failures and logs."""
    baseline = latest_comparable(
        trajectory, record.get("scale"), record.get("seed"),
    ) or {}
    base_tools = baseline.get("tools", {})
    lines = [
        "{:<11}{:>18}{:>18}{:>18}".format(
            "tool", "precision", "recall", "f1",
        )
    ]

    def cell(current: float | None, recorded: float | None) -> str:
        now = "-" if current is None else f"{current:.3f}"
        then = "-" if recorded is None else f"{recorded:.3f}"
        return "{:>18}".format(f"{now} (was {then})")

    for tool, agg in record.get("tools", {}).items():
        base = base_tools.get(tool, {})
        lines.append(
            "{:<11}".format(tool)
            + cell(agg.get("precision"), base.get("precision"))
            + cell(agg.get("recall"), base.get("recall"))
            + cell(agg.get("f1"), base.get("f1"))
        )
    label = baseline.get("label", "<none>")
    lines.append(f"(recorded baseline: '{label}', "
                 f"scale {baseline.get('scale', '?')}, "
                 f"seed {baseline.get('seed', '?')})")
    return "\n".join(lines)
