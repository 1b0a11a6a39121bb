"""The :class:`EvalReport`: one evaluation run, three renderings.

Holds the paper's §5.1/§5.2 reproduction in structured form —

* **per-app accuracy** (Table 1): each tool's precision/recall/F1
  against the traced ground truth of every validation app, plus policy
  size and failure mode;
* **corpus completion** (Table 2): each tool's success/failure counts
  and average identified-set size over the Debian-like corpus, sliced
  all/static/dynamic, with the per-stage failure taxonomy;

and renders them as text (terminal), JSON (machines), and Markdown
(docs).  The deterministic portion — everything except wall times and
cache provenance — is byte-stable for a fixed ``(scale, seed)``:
:meth:`EvalReport.to_json` with ``include_runtime=False`` is pinned in
the test suite, and :meth:`EvalReport.to_record` produces the
append-only ``BENCH_eval_accuracy.json`` trajectory entries that
``tools/gate.py accuracy`` gates and ``tools/check_docs.py`` renders
back into the README results table (:func:`render_results_markdown`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..metrics import Score, mean
from .tools import TOOL_BSIDE

#: corpus population slices, in rendering order
SLICES = ("all", "static", "dynamic")


@dataclass(slots=True)
class AppToolResult:
    """One tool's outcome on one validation app."""

    tool: str
    success: bool
    failure_stage: str | None = None
    #: size of the identified set (the derived policy's allow-list)
    policy_size: int = 0
    #: accuracy vs the app's traced ground truth; None when the tool failed
    score: Score | None = None
    #: B-Side only: whether the signature-compatibility refinement of
    #: indirect-call resolution was enabled for the main run (None for
    #: tools without the concept)
    sig_filter: bool | None = None
    #: B-Side only, refinement enabled: the same app re-analyzed with
    #: the refinement *disabled* (the ablation configuration)
    unfiltered_policy_size: int = 0
    unfiltered_score: Score | None = None
    #: wall seconds for this tool on this app (runtime field)
    seconds: float = 0.0

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc: dict = {
            "tool": self.tool,
            "success": self.success,
            "failure_stage": self.failure_stage,
            "policy_size": self.policy_size,
        }
        doc["score"] = _score_doc(self.score)
        if self.sig_filter is not None:
            doc["sig_filter"] = self.sig_filter
        if self.unfiltered_score is not None:
            doc["unfiltered"] = {
                "policy_size": self.unfiltered_policy_size,
                "score": _score_doc(self.unfiltered_score),
            }
        if include_runtime:
            doc["seconds"] = round(self.seconds, 6)
        return doc


def _score_doc(score: Score | None) -> dict | None:
    if score is None:
        return None
    return {
        "true_positives": score.true_positives,
        "false_positives": score.false_positives,
        "false_negatives": score.false_negatives,
        "precision": round(score.precision, 4),
        "recall": round(score.recall, 4),
        "f1": round(score.f1, 4),
    }


@dataclass(slots=True)
class AppEval:
    """One validation app: its ground truth and every tool's result."""

    app: str
    #: size of the traced ground-truth syscall set
    ground_truth: int
    #: True when the ground truth came from the ``gtruth`` artifact cache
    gtruth_cached: bool = False
    results: dict[str, AppToolResult] = field(default_factory=dict)

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc: dict = {
            "app": self.app,
            "ground_truth": self.ground_truth,
            "tools": {
                tool: result.to_doc(include_runtime=include_runtime)
                for tool, result in self.results.items()
            },
        }
        if include_runtime:
            doc["gtruth_cached"] = self.gtruth_cached
        return doc


@dataclass(slots=True)
class CorpusToolResult:
    """One tool's sweep over the whole corpus."""

    tool: str
    #: slice -> (successes, failures, avg identified-set size, total)
    slices: dict[str, tuple[int, int, float, int]] = field(default_factory=dict)
    #: failure stage -> count (the tool's failure-mode taxonomy)
    failure_stages: dict[str, int] = field(default_factory=dict)
    #: wall seconds for the whole sweep (runtime field)
    seconds: float = 0.0

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc: dict = {
            "tool": self.tool,
            "slices": {
                name: {
                    "success": ok,
                    "failures": fail,
                    "avg_syscalls": round(avg, 4),
                    "total": total,
                }
                for name, (ok, fail, avg, total) in self.slices.items()
            },
            "failure_stages": dict(sorted(self.failure_stages.items())),
        }
        if include_runtime:
            doc["seconds"] = round(self.seconds, 6)
        return doc


@dataclass
class EvalReport:
    """A full evaluation run (apps + optional corpus sweep)."""

    scale: float
    seed: int
    tools: tuple[str, ...]
    apps: list[AppEval] = field(default_factory=list)
    #: per-tool corpus sweeps; empty when the corpus stage was skipped
    corpus: dict[str, CorpusToolResult] = field(default_factory=dict)
    corpus_size: int = 0
    #: emulator work performed building ground truth (runtime fields:
    #: both are 0 on a fully gtruth-warm run)
    emulated_runs: int = 0
    emulated_steps: int = 0
    #: total wall seconds for the run (runtime field)
    seconds: float = 0.0

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def aggregates(self) -> dict[str, dict]:
        """Per-tool aggregate metrics over the validation apps (+ corpus).

        For each tool: mean precision/recall/F1 over the apps it
        completed, the minimum per-app recall (the paper's validity
        criterion demands 1.0), the count of zero-false-negative apps,
        and — when the corpus stage ran — completion counts and the
        dynamic-slice average policy size.
        """
        out: dict[str, dict] = {}
        for tool in self.tools:
            scored = [
                app.results[tool].score
                for app in self.apps
                if tool in app.results and app.results[tool].score is not None
            ]
            completed = len(scored)
            agg: dict = {
                "apps": len(self.apps),
                "completed_apps": completed,
                "valid_apps": sum(1 for s in scored if s.is_valid),
                "precision": round(mean([s.precision for s in scored]), 4),
                "recall": round(mean([s.recall for s in scored]), 4),
                "f1": round(mean([s.f1 for s in scored]), 4),
                "min_recall": round(
                    min((s.recall for s in scored), default=0.0), 4,
                ),
                "avg_policy": round(mean([
                    app.results[tool].policy_size
                    for app in self.apps
                    if tool in app.results and app.results[tool].success
                ]), 4),
            }
            unfiltered = [
                app.results[tool].unfiltered_score
                for app in self.apps
                if tool in app.results
                and app.results[tool].unfiltered_score is not None
            ]
            if unfiltered:
                # Both configurations of the signature refinement were
                # scored: record the ablation aggregate so the accuracy
                # gate can require precision-gained at zero recall risk.
                agg["sig_filter"] = {
                    "precision_unfiltered": round(
                        mean([s.precision for s in unfiltered]), 4,
                    ),
                    "recall_unfiltered": round(
                        mean([s.recall for s in unfiltered]), 4,
                    ),
                    "f1_unfiltered": round(
                        mean([s.f1 for s in unfiltered]), 4,
                    ),
                    "min_recall_unfiltered": round(
                        min((s.recall for s in unfiltered), default=0.0), 4,
                    ),
                    "avg_policy_unfiltered": round(mean([
                        app.results[tool].unfiltered_policy_size
                        for app in self.apps
                        if tool in app.results
                        and app.results[tool].unfiltered_score is not None
                    ]), 4),
                    "precision_gained": round(
                        agg["precision"]
                        - mean([s.precision for s in unfiltered]), 4,
                    ),
                }
            sweep = self.corpus.get(tool)
            if sweep is not None:
                ok, __, avg, total = sweep.slices["all"]
                agg["corpus_success"] = ok
                agg["corpus_total"] = total
                agg["corpus_avg_syscalls"] = round(avg, 4)
            out[tool] = agg
        return out

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc: dict = {
            "scale": self.scale,
            "seed": self.seed,
            "tools": list(self.tools),
            "aggregates": self.aggregates(),
            "apps": [
                app.to_doc(include_runtime=include_runtime)
                for app in self.apps
            ],
            "corpus": {
                tool: sweep.to_doc(include_runtime=include_runtime)
                for tool, sweep in self.corpus.items()
            },
            "corpus_size": self.corpus_size,
        }
        if include_runtime:
            doc["emulated_runs"] = self.emulated_runs
            doc["emulated_steps"] = self.emulated_steps
            doc["seconds"] = round(self.seconds, 6)
        return doc

    def to_json(self, include_runtime: bool = True) -> str:
        """Serialise; ``include_runtime=False`` is byte-stable per
        ``(scale, seed, tools)`` — wall times, cache provenance, and
        emulator-work counters are dropped."""
        return json.dumps(self.to_doc(include_runtime=include_runtime),
                          indent=2)

    def to_record(self) -> dict:
        """One ``BENCH_eval_accuracy.json`` trajectory entry.

        Deterministic for a fixed ``(scale, seed, tools)``: only
        aggregate accuracy and completion — no wall times — so the
        committed trajectory diffs meaningfully across PRs and
        ``tools/check_docs.py`` can render the README results table
        from the latest entry byte-for-byte.
        """
        return {
            "scale": self.scale,
            "seed": self.seed,
            "apps": len(self.apps),
            "corpus_binaries": self.corpus_size,
            "tools": self.aggregates(),
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def results_table(self) -> str:
        """The compact aggregate table embedded in the README."""
        return render_results_markdown(self.to_record())

    def to_markdown(self) -> str:
        """Full Markdown report: aggregate + Table 1 + Table 2 layouts."""
        lines = [
            f"### Evaluation (corpus scale {self.scale:g}, "
            f"seed {self.seed})",
            "",
            self.results_table(),
            "",
        ]
        sig = self.aggregates().get(TOOL_BSIDE, {}).get("sig_filter")
        if sig is not None:
            lines += [
                "_Signature refinement ablation: precision "
                f"{self.aggregates()[TOOL_BSIDE]['precision']:.3f} filtered "
                f"vs {sig['precision_unfiltered']:.3f} unfiltered "
                f"({sig['precision_gained']:+.3f}); min per-app recall "
                f"{sig['min_recall_unfiltered']:.3f} unfiltered._",
                "",
            ]
        lines += [
            "#### Per-app F1 vs traced ground truth (paper Table 1)",
            "",
        ]
        header = "| app | ground truth |" + "".join(
            f" {tool} |" for tool in self.tools
        )
        rule = "|:----|-------------:|" + "---:|" * len(self.tools)
        lines += [header, rule]
        for app in self.apps:
            cells = []
            for tool in self.tools:
                result = app.results.get(tool)
                if result is None or result.score is None:
                    stage = result.failure_stage if result else "?"
                    cells.append(f" fail ({stage}) |")
                else:
                    text = f"{result.score.f1:.3f}"
                    if tool == TOOL_BSIDE:
                        text = f"**{text}**"
                    cells.append(f" {text} |")
            lines.append(
                f"| {app.app} | {app.ground_truth} |" + "".join(cells)
            )
        if self.corpus:
            lines += [
                "",
                f"#### Corpus completion over {self.corpus_size} "
                "Debian-like binaries (paper Table 2)",
                "",
                "| tool | all | static | dynamic | avg policy (dynamic) |",
                "|:-----|----:|-------:|--------:|---------------------:|",
            ]
            for tool in self.tools:
                sweep = self.corpus.get(tool)
                if sweep is None:
                    continue
                cells = []
                for name in SLICES:
                    ok, __, __, total = sweep.slices[name]
                    pct = 100.0 * ok / total if total else 0.0
                    cells.append(f"{ok}/{total} ({pct:.1f}%)")
                __, __, dyn_avg, __ = sweep.slices["dynamic"]
                label = f"**{tool}**" if tool == TOOL_BSIDE else tool
                lines.append(
                    f"| {label} | {cells[0]} | {cells[1]} | {cells[2]} | "
                    f"{dyn_avg:.1f} |"
                )
        return "\n".join(lines)

    def to_text(self) -> str:
        """Terminal rendering: the Table 1 / Table 2 layouts as text."""
        lines = [
            f"eval: {len(self.apps)} validation apps, "
            f"corpus scale {self.scale:g} (seed {self.seed}, "
            f"{self.corpus_size} binaries), "
            f"tools: {', '.join(self.tools)}",
            "",
            "-- accuracy vs traced ground truth (Table 1) --",
            f"{'app':<11}{'gtruth':>7}" + "".join(
                f"{tool:>22}" for tool in self.tools
            ),
        ]
        for app in self.apps:
            cells = []
            for tool in self.tools:
                result = app.results.get(tool)
                if result is None or result.score is None:
                    stage = result.failure_stage if result else "?"
                    cells.append(f"{'fail: ' + str(stage):>22}")
                else:
                    s = result.score
                    cells.append(
                        f"{f'P{s.precision:.2f} R{s.recall:.2f} F{s.f1:.2f}':>22}"
                    )
            lines.append(f"{app.app:<11}{app.ground_truth:>7}" + "".join(cells))
        lines.append("")
        lines.append(f"{'tool':<11}{'apps':>7}{'prec':>7}{'recall':>8}"
                     f"{'f1':>7}{'0-FN':>6}{'policy':>8}")
        aggregates = self.aggregates()
        for tool in self.tools:
            agg = aggregates[tool]
            completed = "{}/{}".format(agg["completed_apps"], agg["apps"])
            valid = "{}/{}".format(agg["valid_apps"], agg["completed_apps"])
            lines.append(
                "{:<11}{:>7}{:>7.3f}{:>8.3f}{:>7.3f}{:>6}{:>8.1f}".format(
                    tool, completed, agg["precision"], agg["recall"],
                    agg["f1"], valid, agg["avg_policy"],
                )
            )
        bside_agg = aggregates.get(TOOL_BSIDE, {})
        sig = bside_agg.get("sig_filter")
        if sig is not None:
            lines.append(
                "  sig-filter ablation: precision "
                "{:.3f} vs {:.3f} unfiltered ({:+.3f}); recall "
                "{:.3f} vs {:.3f} unfiltered".format(
                    bside_agg["precision"], sig["precision_unfiltered"],
                    sig["precision_gained"], bside_agg["recall"],
                    sig["recall_unfiltered"],
                )
            )
        if self.corpus:
            lines += [
                "",
                "-- corpus completion (Table 2) --",
                f"{'tool':<11}{'all':>16}{'static':>16}{'dynamic':>16}"
                f"{'avg-dyn':>9}",
            ]
            for tool in self.tools:
                sweep = self.corpus.get(tool)
                if sweep is None:
                    continue
                cells = []
                for name in SLICES:
                    ok, __, __, total = sweep.slices[name]
                    pct = 100.0 * ok / total if total else 0.0
                    cells.append("{:>16}".format(
                        "{}/{} ({:.0f}%)".format(ok, total, pct)
                    ))
                __, __, dyn_avg, __ = sweep.slices["dynamic"]
                lines.append(f"{tool:<11}" + "".join(cells) + f"{dyn_avg:>9.1f}")
            for tool in self.tools:
                sweep = self.corpus.get(tool)
                if sweep is None or not sweep.failure_stages:
                    continue
                stages = ", ".join(
                    f"{stage}: {count}"
                    for stage, count in sorted(sweep.failure_stages.items())
                )
                lines.append(f"  {tool} failure modes: {stages}")
        return "\n".join(lines)


def render_results_markdown(record: dict) -> str:
    """Render a trajectory entry as the README "Results" table.

    A pure function of the record, so the committed
    ``BENCH_eval_accuracy.json`` entry and the table in the README can
    be byte-compared by ``tools/check_docs.py`` — the same drift guard
    the quickstart sync applies to the user guide.
    """
    tools = record["tools"]
    lines = [
        "| tool | apps | precision | recall | F1 | zero-FN apps "
        "| ΔP (sig filter) | corpus completion | avg policy |",
        "|:-----|-----:|----------:|-------:|---:|-------------:"
        "|----------------:|------------------:|-----------:|",
    ]
    for tool, agg in tools.items():
        label = f"**{tool}**" if tool == TOOL_BSIDE else tool
        if "corpus_total" in agg and agg["corpus_total"]:
            pct = 100.0 * agg["corpus_success"] / agg["corpus_total"]
            corpus = (
                f"{agg['corpus_success']}/{agg['corpus_total']} ({pct:.1f}%)"
            )
        else:
            corpus = "—"
        sig = agg.get("sig_filter")
        delta = f"{sig['precision_gained']:+.3f}" if sig else "—"
        lines.append(
            f"| {label} "
            f"| {agg['completed_apps']}/{agg['apps']} "
            f"| {agg['precision']:.3f} "
            f"| {agg['recall']:.3f} "
            f"| {agg['f1']:.3f} "
            f"| {agg['valid_apps']}/{agg['completed_apps']} "
            f"| {delta} "
            f"| {corpus} "
            f"| {agg['avg_policy']:.1f} |"
        )
    return "\n".join(lines)
