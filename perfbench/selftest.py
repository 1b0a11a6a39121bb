#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py          # from the root of a checkout

* ``BENCHMARK.json`` and :mod:`metrics` list the same metrics;
* every traced attribute exists, and tracing restores each one;
* a missing trace target fails loudly instead of reporting a zero;
* per workload, at a small size: traced and untraced runs give identical
  checked outputs, every output check passes, self times are >= 0 and,
  per thread, sum to at most the traced wall time, and the layers the
  workload exercises record spans; ``service-mixed`` checks every
  distinct binary and, once they are used up, goes on with copies;
* a load failure or a missed planned syscall is a failed check;
* every metric ``legacy.json`` names exists;
* in a directory holding only the benchmark, the runner exits non-zero
  without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402
from run import WORK, layer_metrics  # noqa: E402
from tracer import TARGETS, NullTracer, Tracer, TraceTargetMissing, resolve_owner  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, FleetCold, IncrementalChain, RunResult, ServiceMixed,
    _check_policy,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: layers each small workload must record spans for (per-layer span or
#: counter names); a renamed caller binding shows up here as a zero
EXERCISED = {
    "fleet-cold": [
        "loader.parse", "loader.resolve", "x86.decode", "cfg.build",
        "cfg.carve", "cfg.indirect", "cfg.reachability", "sites.find",
        "wrappers.detect", "identify.plain", "identify.wrapper_call",
        "interface.build", "fleet.warm_interfaces", "report.encode",
        "report.decode",
    ],
    "incremental-chain": [
        "loader.parse", "x86.decode", "cfg.build", "cfg.carve", "cfg.scan",
        "cfg.indirect", "sites.find", "identify.plain",
        "store.funccfg.get", "store.funccfg.put", "store.funcid.get",
        "store.funcid.put", "store.wrappers.get", "store.cfg.put",
        "report.encode",
    ],
    "service-mixed": [
        "loader.parse", "x86.decode", "cfg.build", "identify.plain",
        "interface.build", "store.report.lookup", "store.report.put",
        "store.iface.get", "report.encode", "report.decode",
        "service.submit", "service.wait", "service.poll",
    ],
}

SMALL = {
    "fleet-cold": lambda seed, workdir: FleetCold(seed, workdir, scale=0.1),
    "incremental-chain": lambda seed, workdir: IncrementalChain(
        seed, workdir, n_funcs=100, versions=2),
    "service-mixed": lambda seed, workdir: ServiceMixed(
        seed, workdir, scale=0.05, warm_set=8),
}


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_keys(self):
        self.assertEqual(
            set(self.doc),
            {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"},
        )
        self.assertEqual(self.doc["paths"], ["perfbench"])
        self.assertIsInstance(self.doc["run_seconds"], int)
        self.assertLessEqual(len(json.dumps(self.doc)), 64 * 1024)

    def test_metrics_match_tables(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.doc["end_to_end"]],
            END_TO_END,
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.doc["per_layer"]],
            PER_LAYER,
        )
        names = [m["name"] for m in self.doc["end_to_end"] + self.doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in self.doc["end_to_end"] + self.doc["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in self.doc["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertIn(("setup_s", "s", "lower", 0.25), END_TO_END)

    def test_workloads(self):
        names = [w["name"] for w in self.doc["workloads"]]
        self.assertEqual(names, list(WORKLOADS))
        self.assertEqual(set(WORKLOAD_NAMES), set(WORKLOADS))
        for workload in self.doc["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])


class LegacyMapTest(unittest.TestCase):
    def test_superseding_metrics_exist(self):
        with open(os.path.join(HERE, "legacy.json")) as f:
            entries = json.load(f)
        slots = {name for name, *__ in END_TO_END}
        layers = {name for name, *__ in PER_LAYER}
        for entry in entries:
            text = entry["superseded_by"]
            if text is None:
                self.assertTrue(entry["note"], entry["headline"])
                continue
            workload = text.split(":")[0]
            # "slot (workload-specific name)" pairs
            for slot, alias in re.findall(r"(\w+) \((\w+)[,)]", text):
                self.assertIn(slot, slots, text)
                self.assertEqual(WORKLOAD_NAMES[workload][slot], alias, text)
            for layer in re.findall(r"\b[a-z0-9]+\.[a-z0-9_]+\b", text):
                self.assertIn(layer, layers, text)


class PolicyCheckTest(unittest.TestCase):
    binary = SimpleNamespace(name="bin", planned_syscalls={0, 1})

    def test_load_failure_is_a_failed_check(self):
        from repro.core.report import AnalysisReport

        report = AnalysisReport(
            tool="b-side", binary="bin", success=False,
            failure_stage="load", failure_reason="not an ELF file",
        )
        result = RunResult()
        budget = _check_policy(
            self.binary, report.to_doc(include_runtime=False), result)
        self.assertFalse(budget)
        self.assertEqual(result.failed, 1)
        self.assertIn("not an ELF file", result.problems[0])

    def test_missing_planned_syscall_is_a_failed_check(self):
        result = RunResult()
        _check_policy(self.binary, {"success": True, "syscalls": [0]}, result)
        self.assertEqual(result.failed, 1)
        self.assertIn("[1]", result.problems[0])


class TracerTest(unittest.TestCase):
    def test_every_target_exists_and_is_restored(self):
        originals = {
            (owner, attr): resolve_owner(owner).__dict__[attr]
            for __, owner, attr, __ in TARGETS
        }
        with Tracer():
            for (owner, attr), original in originals.items():
                self.assertIsNot(resolve_owner(owner).__dict__[attr], original)
        for (owner, attr), original in originals.items():
            self.assertIs(resolve_owner(owner).__dict__[attr], original)

    def test_missing_target_fails_loudly(self):
        owner = "repro.core.pipeline"
        before = resolve_owner(owner).__dict__["build_cfg"]
        tracer = Tracer(targets=[
            ("cfg.build", owner, "build_cfg", None),
            ("cfg.gone", owner, "no_such_function", None),
        ])
        with self.assertRaises(TraceTargetMissing):
            tracer.install()
        self.assertIs(resolve_owner(owner).__dict__["build_cfg"], before)

    def test_self_time_excludes_children(self):
        tracer = Tracer(targets=[])
        with tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    sum(range(20000))
                with tracer.paused(), tracer.span("hidden"):
                    pass
        selfs = tracer.self_times()
        self.assertEqual(set(selfs), {"outer", "inner"})
        outer, inner = tracer.spans
        self.assertAlmostEqual(
            outer.self_time + inner.self_time, outer.end - outer.start,
        )


class WorkloadTraceTest(unittest.TestCase):
    """Small versions of each workload, untraced then traced."""

    def check_workload(self, name: str, seconds: float = 1.0):
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
        workload = SMALL[name](7, workdir)
        try:
            workload.setup()
            untraced = workload.run(seconds, NullTracer())
            tracer = Tracer()
            with tracer:
                traced = workload.run(seconds, tracer)
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)

        for result in (untraced, traced):
            self.assertEqual(result.failed, 0, result.problems)
            self.assertGreater(result.attempted, 0)
            self.assertEqual(
                {slot for slot, *__ in END_TO_END} - {"setup_s"},
                set(result.slots),
            )
        common = untraced.outputs.keys() & traced.outputs.keys()
        self.assertTrue(common)
        for key in common:
            self.assertEqual(untraced.outputs[key], traced.outputs[key], key)

        wall = tracer.stopped - tracer.started
        for span in tracer.finished():
            self.assertGreaterEqual(span.self_time, -1e-9, span.name)
        for thread, total in tracer.self_time_by_thread().items():
            self.assertLessEqual(total, wall + 1e-6, thread)

        recorded = set(tracer.call_counts())
        for layer in EXERCISED[name]:
            self.assertIn(layer, recorded, f"{name} recorded no {layer} span")
        values = layer_metrics(tracer, traced, untraced)
        self.assertEqual(list(values), [m for m, *__ in PER_LAYER])
        return workload, untraced, traced

    def test_fleet_cold(self):
        self.check_workload("fleet-cold")

    def test_incremental_chain(self):
        self.check_workload("incremental-chain")

    def test_service_mixed(self):
        workload, untraced, traced = self.check_workload(
            "service-mixed", seconds=1.5)
        # the untraced run checked every distinct binary, timed or not
        self.assertEqual(
            set(untraced.outputs),
            {os.path.basename(p) for p in workload.warm + workload.cold},
        )
        # after it, the traced run's first submissions are all copies,
        # analyzed (and checked) like any other first submission
        self.assertGreater(traced.detail["cold_copies"][0], 0)


class BareDirectoryTest(unittest.TestCase):
    def test_runner_refuses_without_program(self):
        os.makedirs(WORK, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=WORK)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                HERE, os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fleet-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
