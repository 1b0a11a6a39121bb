#!/usr/bin/env python3
"""Docs invariants, enforced in CI (`make docs-check`).

Five checks, all offline:

1. **Relative links resolve.**  Every `[text](target)` in the repo's
   markdown files whose target is not an absolute URL must point at an
   existing file (anchors are checked against the target's headings).
2. **CLI reference drift, both ways.**  Every `bside` subcommand in the
   argparse tree has a `### \`bside <name>\`` entry in `docs/cli.md`,
   and every long flag of every subcommand appears in that file.  A new
   subcommand or flag without documentation fails CI.  Conversely,
   every `--flag` in the synopsis code block of a `### \`bside <name>\``
   entry must be a flag of `bside <name>` or of one of its nested
   commands, so a removed flag cannot linger in the docs.
3. **Quickstart sync.**  The module docstring of
   `examples/quickstart.py` appears byte-for-byte in
   `docs/user-guide.md`, so the walkthrough and the example cannot
   drift apart.
4. **Results sync.**  The README's "Results" table matches, byte for
   byte, the table rendered from the latest committed
   `BENCH_eval_accuracy.json` trajectory entry
   (`repro.eval.render_results_markdown`) — so the README can never
   show numbers the accuracy gate is not actually enforcing.
5. **Docs index.**  Every page under `docs/` is linked from both
   README.md and ROADMAP.md, so the two indexes list the full docs set
   consistently.

Exit status: 0 clean, 1 with findings (one line each on stderr).
"""

from __future__ import annotations

import ast
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

#: markdown files under these roots are link-checked
DOC_FILES = ["README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"]
DOC_DIRS = ["docs"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
_ENTRY = re.compile(r"^### `bside ([\w-]+)`")
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def _markdown_files() -> list[str]:
    files = [f for f in DOC_FILES if os.path.exists(os.path.join(REPO, f))]
    for root in DOC_DIRS:
        for name in sorted(os.listdir(os.path.join(REPO, root))):
            if name.endswith(".md"):
                files.append(os.path.join(root, name))
    return files


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor: punctuation dropped, each space a dash."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text)
    return text.replace(" ", "-")


def check_links(problems: list[str]) -> None:
    for relpath in _markdown_files():
        base = os.path.dirname(os.path.join(REPO, relpath))
        with open(os.path.join(REPO, relpath)) as f:
            text = f.read()
        for target in _LINK.findall(text):
            if re.match(r"^[a-z]+://|^mailto:", target):
                continue  # external URL: not checked offline
            path, __, anchor = target.partition("#")
            dest = os.path.join(base, path) if path else os.path.join(REPO, relpath)
            if path and not os.path.exists(dest):
                problems.append(f"{relpath}: broken link -> {target}")
                continue
            if anchor and dest.endswith(".md"):
                with open(dest) as f:
                    anchors = {_anchor_of(h) for h in _HEADING.findall(f.read())}
                if anchor not in anchors:
                    problems.append(
                        f"{relpath}: broken anchor -> {target} "
                        f"(no heading '#{anchor}' in {os.path.relpath(dest, REPO)})"
                    )


def _synopsis_flags(doc: str) -> dict[str, set[str]]:
    """The `--flag`s in the code blocks of each `### `bside X`` entry."""
    flags: dict[str, set[str]] = {}
    command, fenced = None, False
    for line in doc.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            if command is not None:
                flags[command].update(_FLAG.findall(line))
        elif line.startswith("#"):
            match = _ENTRY.match(line)
            command = match.group(1) if match else None
            if command is not None:
                flags.setdefault(command, set())
    return flags


def check_cli_reference(problems: list[str]) -> None:
    from repro.cli import build_parser

    with open(os.path.join(REPO, "docs", "cli.md")) as f:
        doc = f.read()
    parser = build_parser()
    subactions = [
        action for action in parser._subparsers._group_actions  # noqa: SLF001
    ]
    #: every long flag of each subcommand and its nested commands
    known: dict[str, set[str]] = {}
    for action in subactions:
        for name, sub in action.choices.items():
            flags = known[name] = set()
            if f"`bside {name}`" not in doc:
                problems.append(
                    f"docs/cli.md: subcommand 'bside {name}' has no entry"
                )
                continue
            for sub_action in sub._actions:  # noqa: SLF001
                flags.update(sub_action.option_strings)
                for opt in sub_action.option_strings:
                    if opt == "--help":
                        continue
                    if opt.startswith("--") and opt not in doc:
                        problems.append(
                            f"docs/cli.md: flag '{opt}' of 'bside {name}' "
                            f"is undocumented"
                        )
                # nested subcommands (corpus generate, cache stats, ...)
                if hasattr(sub_action, "choices") and sub_action.choices:
                    for nested, nested_parser in sub_action.choices.items():
                        if not isinstance(nested, str):
                            continue
                        if f"{name} {nested}" not in doc:
                            problems.append(
                                f"docs/cli.md: nested command "
                                f"'bside {name} {nested}' is undocumented"
                            )
                        for na in nested_parser._actions:  # noqa: SLF001
                            flags.update(na.option_strings)
                            for opt in na.option_strings:
                                if opt == "--help":
                                    continue
                                if opt.startswith("--") and opt not in doc:
                                    problems.append(
                                        f"docs/cli.md: flag '{opt}' of "
                                        f"'bside {name} {nested}' is "
                                        f"undocumented"
                                    )
    for name, documented in _synopsis_flags(doc).items():
        if name not in known:
            problems.append(
                f"docs/cli.md: entry 'bside {name}' names no subcommand"
            )
            continue
        for opt in sorted(documented - known[name]):
            problems.append(
                f"docs/cli.md: synopsis of 'bside {name}' shows '{opt}', "
                f"which is not a flag of that command"
            )


def check_quickstart_sync(problems: list[str]) -> None:
    source = os.path.join(REPO, "examples", "quickstart.py")
    with open(source) as f:
        tree = ast.parse(f.read())
    docstring = ast.get_docstring(tree, clean=False)
    if not docstring:
        problems.append("examples/quickstart.py: no module docstring")
        return
    with open(os.path.join(REPO, "docs", "user-guide.md")) as f:
        guide = f.read()
    if docstring.strip() not in guide:
        problems.append(
            "docs/user-guide.md: quickstart walkthrough is out of sync with "
            "the examples/quickstart.py docstring (must match byte-for-byte)"
        )


def check_results_sync(problems: list[str]) -> None:
    """README "Results" table == render(latest gate-workload entry)."""
    from repro.eval import render_results_markdown
    from repro.eval.gate import GATE_SCALE, GATE_SEED, latest_comparable
    from repro.perf import ACCURACY_WORKLOAD, load_trajectory

    path = os.path.join(REPO, "BENCH_eval_accuracy.json")
    if not os.path.exists(path):
        problems.append(
            "BENCH_eval_accuracy.json: missing — record an entry "
            "(tools/gate.py accuracy --record <label> --seed-baseline)"
        )
        return
    try:
        trajectory = load_trajectory(path, workload=ACCURACY_WORKLOAD)
    except ValueError as error:
        problems.append(f"BENCH_eval_accuracy.json: {error}")
        return
    # The README documents the CI gate's workload; render the same
    # entry the gate compares against, not just whatever ran last.
    entry = latest_comparable(trajectory, GATE_SCALE, GATE_SEED)
    if entry is None:
        problems.append(
            f"BENCH_eval_accuracy.json: no entry at the gate workload "
            f"(scale {GATE_SCALE}, seed {GATE_SEED}) to render"
        )
        return
    table = render_results_markdown(entry)
    with open(os.path.join(REPO, "README.md")) as f:
        readme = f.read()
    if table not in readme:
        problems.append(
            "README.md: Results table is out of sync with the latest "
            "gate-workload BENCH_eval_accuracy.json entry (paste the "
            "aggregate table from `bside eval --scale 0.2 --seed 42 "
            "--markdown --no-record`, or re-record the trajectory via "
            "`tools/gate.py accuracy --record <label>`)"
        )


def check_docs_index(problems: list[str]) -> None:
    """Every docs/ page is linked from both README.md and ROADMAP.md."""
    pages = sorted(
        name for name in os.listdir(os.path.join(REPO, "docs"))
        if name.endswith(".md")
    )
    for index in ("README.md", "ROADMAP.md"):
        with open(os.path.join(REPO, index)) as f:
            text = f.read()
        for page in pages:
            if f"docs/{page}" not in text:
                problems.append(
                    f"{index}: docs index is missing docs/{page}"
                )


def main() -> int:
    problems: list[str] = []
    check_links(problems)
    check_cli_reference(problems)
    check_quickstart_sync(problems)
    check_results_sync(problems)
    check_docs_index(problems)
    if problems:
        for problem in problems:
            print(f"docs-check: {problem}", file=sys.stderr)
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-check: links, CLI reference, quickstart sync, results "
          "table, and docs index all clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
