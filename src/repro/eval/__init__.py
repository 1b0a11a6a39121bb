"""The evaluation subsystem: reproduce the paper's §5 accuracy tables.

End-to-end reproduction of B-Side's evaluation as a first-class,
cacheable, CI-gated subsystem (``bside eval``):

* :mod:`repro.eval.groundtruth` — emulated ground truth per validation
  app, cached as ``gtruth`` artifacts in the content-addressed store;
* :mod:`repro.eval.tools` — the tool registry (B-Side + the Chestnut /
  SysFilter / naive baseline configurations);
* :mod:`repro.eval.runner` — the experiment driver: app accuracy
  (Table 1) + corpus completion (Table 2) through the fleet engine;
* :mod:`repro.eval.report` — :class:`EvalReport` with text / JSON /
  Markdown renderings and the trajectory-record projection;
* :mod:`repro.eval.gate` — the accuracy gates enforced by
  ``tools/gate.py accuracy`` over ``BENCH_eval_accuracy.json``.

See ``docs/evaluation.md`` for the methodology and workflow.
"""

from .gate import (
    GATE_SCALE,
    GATE_SEED,
    AccuracyGateResult,
    format_gate_diff,
    gate_accuracy,
    latest_comparable,
)
from .groundtruth import GroundTruth, GroundTruthBuilder
from .report import (
    AppEval,
    AppToolResult,
    CorpusToolResult,
    EvalReport,
    render_results_markdown,
)
from .runner import EvalConfig, run_eval
from .tools import ALL_TOOLS, TOOL_BSIDE, make_tool, parse_tools

__all__ = [
    "ALL_TOOLS",
    "AccuracyGateResult",
    "AppEval",
    "AppToolResult",
    "CorpusToolResult",
    "EvalConfig",
    "EvalReport",
    "GATE_SCALE",
    "GATE_SEED",
    "GroundTruth",
    "GroundTruthBuilder",
    "TOOL_BSIDE",
    "format_gate_diff",
    "gate_accuracy",
    "latest_comparable",
    "make_tool",
    "parse_tools",
    "render_results_markdown",
    "run_eval",
]
