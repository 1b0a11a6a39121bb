"""The table-driven CI gates (``repro.perf.gate`` + ``tools/gate.py``).

Pins each row's verdicts: the committed ``BENCH_*.json`` trajectories
gate clean against themselves, a record just past each bound fails with
the problem text the gates have always printed, the CI margins widen
exactly the bounds they name, ``--seed-baseline`` applies only the
floors, and ``--record`` never appends a failing run.  Records are
copies of committed entries, so no workload is measured here.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import os
import threading

import pytest

from repro.perf import Trajectory, load_trajectory, save_trajectory
from repro.perf.gate import GATES, evaluate

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "gate_cli", os.path.join(REPO, "tools", "gate.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate_cli = _load_cli()


def _committed(name: str) -> Trajectory:
    row = GATES[name]
    return load_trajectory(row.path, workload=row.workload)


def _latest(name: str) -> dict:
    return copy.deepcopy(_committed(name).baseline)


def _problems(verdict) -> list[str]:
    return verdict.problems + verdict.regressions


@pytest.mark.parametrize("name", sorted(GATES))
def test_committed_latest_entry_passes_its_own_trajectory(name):
    trajectory = _committed(name)
    verdict = evaluate(GATES[name], trajectory.baseline, trajectory)
    assert verdict.ok, _problems(verdict)


def test_cold_printed_lines():
    verdict = evaluate(GATES["cold"], _latest("cold"), _committed("cold"))
    assert verdict.lines == [
        "vs latest entry 'pr4-optimized': 1.000x normalized cold "
        "(max allowed 1.15x)",
        "speedup vs pre-optimization baseline: 3.58x (required >= 3.0x)",
    ]


def test_service_printed_lines():
    verdict = evaluate(
        GATES["service"], _latest("service"), _committed("service"),
        margins={"max_regression": 0.30},
    )
    assert verdict.lines == [
        "vs latest entry 'pr14-submit-time-long-poll': 1.000x normalized "
        "warm p99 (max allowed 1.30x)",
        "normalized warm throughput ratio 1.000x (min allowed 0.70x)",
        "steady-state scale ratio 10.53x (required >= 3.0x)",
    ]


class TestJustPastEachBound:
    def test_cold_regression(self):
        record = _latest("cold")
        record["normalized_cold"] *= 1.16
        verdict = evaluate(GATES["cold"], record, _committed("cold"))
        assert verdict.problems == []
        assert verdict.regressions == [
            "cold-path regression: normalized cold 10.9447 is 1.16x the "
            "baseline entry 'pr4-optimized' (9.4351); allowed at most 1.15x"
        ]

    def test_cold_speedup(self):
        trajectory = _committed("cold")
        record = _latest("cold")
        record["normalized_cold"] = (
            trajectory.pre_optimization["normalized_cold"] / 2.99
        )
        verdict = evaluate(
            GATES["cold"], record, trajectory,
            margins={"max_regression": 0.30},
        )
        assert verdict.regressions == []
        assert verdict.problems == [
            "cold-kernel speedup vs pre-optimization baseline "
            "'pre-pr4-seed' is 2.99x; required >= 3.0x"
        ]

    def test_service_p99(self):
        record = _latest("service")
        record["reference"]["normalized_warm_p99"] *= 1.16
        verdict = evaluate(GATES["service"], record, _committed("service"))
        assert _problems(verdict) == [
            "p99 latency regression: normalized warm p99 18.9824 is 1.16x "
            "the baseline entry 'pr14-submit-time-long-poll' (16.3641); "
            "allowed at most 1.15x"
        ]

    def test_service_throughput(self):
        record = _latest("service")
        record["reference"]["normalized_warm_throughput"] *= 0.84
        verdict = evaluate(GATES["service"], record, _committed("service"))
        assert _problems(verdict) == [
            "throughput drop: normalized warm throughput 1.0414 is 0.84x "
            "the baseline entry 'pr14-submit-time-long-poll' (1.2397); "
            "allowed at least 0.85x"
        ]

    def test_service_scale(self):
        record = _latest("service")
        record["scale_warm_max_vs_cold_1w"] = 2.99
        verdict = evaluate(GATES["service"], record, _committed("service"))
        assert verdict.problems == [
            "worker scaling: max-tier steady-state throughput is only "
            "2.99x the 1-worker cold throughput; required >= 3.0x"
        ]

    def test_incremental_rebuild_locality(self):
        record = _latest("incremental")
        record["functions_reanalyzed"] = 21
        record["reanalyzed_fraction"] = 21 / 401
        verdict = evaluate(
            GATES["incremental"], record, _committed("incremental"),
        )
        assert verdict.problems == [
            "rebuild locality: a 3-function mutation re-analyzed 21 of 401 "
            "functions (5.24%); allowed at most 5.0%"
        ]

    def test_incremental_symex_locality(self):
        record = _latest("incremental")
        record["sites_reexecuted"] = 21
        record["sites_reexecuted_fraction"] = 21 / 401
        verdict = evaluate(
            GATES["incremental"], record, _committed("incremental"),
        )
        assert verdict.problems == [
            "symex locality: a 3-function mutation re-executed 21 of 401 "
            "identification sites (5.24%); allowed at most 5.0%"
        ]

    def test_incremental_equivalence(self):
        record = _latest("incremental")
        record["equivalent"] = False
        verdict = evaluate(
            GATES["incremental"], record, _committed("incremental"),
        )
        assert verdict.problems == [
            "equivalence: the incremental report differed from the cold "
            "report of the same mutated binary"
        ]

    def test_pre_symex_record_skips_the_site_floor(self):
        record = _latest("incremental")
        del record["sites_reexecuted_fraction"]
        record["equivalent"] = True
        assert evaluate(
            GATES["incremental"], record, _committed("incremental"),
        ).ok

    def test_accuracy_validity(self):
        record = _latest("accuracy")
        record["tools"]["b-side"]["min_recall"] = 0.9
        verdict = evaluate(GATES["accuracy"], record, _committed("accuracy"))
        assert not verdict.ok
        assert verdict.problems[0].startswith(
            "validity violation: B-Side min per-app recall is 0.9000"
        )

    def test_accuracy_requires_the_sig_ablation(self):
        record = _latest("accuracy")
        del record["tools"]["b-side"]["sig_filter"]
        verdict = evaluate(GATES["accuracy"], record, _committed("accuracy"))
        assert [p.split(":")[0] for p in verdict.problems] == [
            "record has no 'sig_filter' ablation aggregate"
        ]


@pytest.mark.parametrize("name", ["cold", "service", "incremental"])
def test_empty_trajectory_fails_closed(name):
    verdict = evaluate(GATES[name], _latest(name), Trajectory())
    assert verdict.regressions == [
        f"no baseline entry in the trajectory: record one first "
        f"(tools/gate.py {name} --record <label>)"
    ]


class TestCiMargins:
    """``--max-regression 0.30`` / ``--min-speedup 2.5`` (the CI flags)."""

    CI = {"max_regression": 0.30, "min_speedup": 2.5}

    def test_cold_1_2x_regression_passes_only_widened(self):
        record = _latest("cold")
        record["normalized_cold"] *= 1.2
        trajectory = _committed("cold")
        strict = evaluate(GATES["cold"], record, trajectory)
        assert len(strict.regressions) == 1 and len(strict.problems) == 1
        assert evaluate(
            GATES["cold"], record, trajectory, margins=self.CI,
        ).ok

    def test_service_1_2x_regression_passes_only_widened(self):
        record = _latest("service")
        record["reference"]["normalized_warm_p99"] *= 1.2
        record["reference"]["normalized_warm_throughput"] /= 1.2
        trajectory = _committed("service")
        assert len(evaluate(
            GATES["service"], record, trajectory,
        ).regressions) == 2
        assert evaluate(
            GATES["service"], record, trajectory,
            margins={"max_regression": 0.30},
        ).ok

    def test_margins_leave_floors_alone(self):
        record = _latest("service")
        record["scale_warm_max_vs_cold_1w"] = 2.5
        verdict = evaluate(
            GATES["service"], record, _committed("service"),
            margins={"max_regression": 0.30},
        )
        assert len(verdict.problems) == 1 and not verdict.regressions

    def test_rows_bound_only_their_margins(self):
        assert GATES["cold"].margins == {"max_regression", "min_speedup"}
        assert GATES["service"].margins == {"max_regression"}
        assert GATES["incremental"].margins == set()
        assert GATES["accuracy"].margins == set()


class TestSeeding:
    def test_seeding_applies_only_the_floors(self):
        record = _latest("service")
        verdict = evaluate(
            GATES["service"], record, Trajectory(), seeding=True,
        )
        assert verdict.ok
        assert verdict.lines == [
            "steady-state scale ratio 10.53x (required >= 3.0x)"
        ]
        record["scale_warm_max_vs_cold_1w"] = 2.0
        assert not evaluate(
            GATES["service"], record, Trajectory(), seeding=True,
        ).ok

    def test_seeding_skips_entry_comparisons(self):
        record = _latest("cold")
        record["normalized_cold"] *= 10
        verdict = evaluate(
            GATES["cold"], record, _committed("cold"), seeding=True,
        )
        assert verdict.ok and verdict.lines == []

    def test_seeding_the_accuracy_row_skips_the_recall_floor(self):
        record = _latest("accuracy")
        record["tools"]["b-side"]["recall"] = 0.5
        record["tools"]["b-side"].pop("sig_filter")
        record["tools"] = {"b-side": record["tools"]["b-side"]}
        trajectory = _committed("accuracy")
        strict = evaluate(GATES["accuracy"], record, trajectory)
        assert any(p.startswith("recall regression") for p in strict.problems)
        seeded = evaluate(GATES["accuracy"], record, Trajectory(),
                          seeding=True)
        assert [p.split(":")[0] for p in seeded.problems] == [
            "record has no 'sig_filter' ablation aggregate"
        ]


@pytest.fixture
def fake_row(tmp_path, monkeypatch):
    """Swap one row's measurement and trajectory file for fakes."""

    def install(name: str, record: dict, entries: list[dict] | None):
        path = str(tmp_path / f"{name}.json")
        row = GATES[name]
        if entries is not None:
            save_trajectory(
                Trajectory(entries=entries, workload=row.workload), path,
            )
        monkeypatch.setitem(GATES, name, dataclasses.replace(
            row, path=path, measure=lambda: copy.deepcopy(record),
        ))
        return path

    return install


class TestCli:
    def test_failing_record_leaves_the_trajectory_unchanged(
        self, fake_row, capsys,
    ):
        committed = _committed("cold")
        record = _latest("cold")
        record["normalized_cold"] *= 2
        path = fake_row("cold", record, committed.entries)
        with open(path, "rb") as f:
            before = f.read()
        assert gate_cli.main(["cold", "--record", "regressed"]) == 1
        with open(path, "rb") as f:
            assert f.read() == before
        assert "cold-gate: FAIL: cold-path regression" in (
            capsys.readouterr().err
        )

    def test_passing_record_appends(self, fake_row, capsys):
        committed = _committed("service")
        path = fake_row("service", _latest("service"), committed.entries)
        assert gate_cli.main(
            ["service", "--record", "next", "--max-regression", "0.30"]
        ) == 0
        entries = load_trajectory(path).entries
        assert len(entries) == len(committed.entries) + 1
        assert (entries[-1]["label"], entries[-1]["role"]) == (
            "next", "service-scale",
        )
        out = capsys.readouterr().out
        assert "service-gate: steady-state scale ratio 10.53x" in out
        assert out.rstrip().endswith("service-gate: PASS")

    def test_seed_baseline_on_an_empty_trajectory(self, fake_row):
        path = fake_row("cold", _latest("cold"), None)
        assert gate_cli.main(
            ["cold", "--record", "seed", "--seed-baseline"]
        ) == 0
        [entry] = load_trajectory(path, workload="cold-kernel-v1").entries
        assert (entry["label"], entry["role"]) == ("seed", "pre-opt-baseline")

    def test_seed_baseline_still_applies_the_floors(self, fake_row):
        record = _latest("incremental")
        record["equivalent"] = False
        path = fake_row("incremental", record, None)
        assert gate_cli.main(
            ["incremental", "--record", "seed", "--seed-baseline"]
        ) == 1
        assert not os.path.exists(path)

    def test_seed_baseline_requires_record(self, fake_row):
        fake_row("service", _latest("service"), None)
        with pytest.raises(SystemExit) as exit_info:
            gate_cli.main(["service", "--seed-baseline"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["service", "--min-speedup", "2.5"],
        ["incremental", "--max-regression", "0.3"],
        ["accuracy", "--max-regression", "0.3"],
        ["accuracy", "--min-speedup", "2"],
        ["cold", "--repeats", "5"],
        ["bogus"],
    ])
    def test_unknown_override_exits_2(self, argv, monkeypatch):
        def never():
            raise AssertionError("a usage error must not measure")

        for name, row in list(GATES.items()):
            monkeypatch.setitem(
                GATES, name, dataclasses.replace(row, measure=never),
            )
        with pytest.raises(SystemExit) as exit_info:
            gate_cli.main(argv)
        assert exit_info.value.code == 2

    def test_wrong_trajectory_file_exits_2(self, fake_row):
        fake_row("incremental", _latest("incremental"), None)
        path = GATES["incremental"].path
        save_trajectory(Trajectory(workload="cold-kernel-v1"), path)
        assert gate_cli.main(["incremental"]) == 2


class TestSaveTrajectory:
    def test_concurrent_writers_each_rename_their_own_temp_file(
        self, tmp_path, monkeypatch,
    ):
        """A ``bside eval --record`` and a gate ``--record`` saving the
        same trajectory at once: each writes its own temp file, so
        neither renames the other's half-written bytes or trips on a
        vanished temp name; the last complete write wins."""
        path = str(tmp_path / "BENCH_x.json")
        docs = [
            Trajectory(entries=[{"label": label, "x": i}], workload="w")
            for i, label in enumerate(("eval", "gate"))
        ]
        # Both writers reach the rename only after both temp files exist.
        barrier = threading.Barrier(2, timeout=10.0)
        real_replace = os.replace

        def gated_replace(src, dst):
            barrier.wait()
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", gated_replace)
        errors: list[str] = []

        def writer(trajectory: Trajectory) -> None:
            try:
                save_trajectory(trajectory, path)
            except Exception as error:
                errors.append(repr(error))

        threads = [threading.Thread(target=writer, args=(doc,))
                   for doc in docs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        monkeypatch.undo()

        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        with open(path) as f:
            assert json.load(f)["entries"] in (
                [{"label": "eval", "x": 0}], [{"label": "gate", "x": 1}],
            )
        assert [n for n in os.listdir(str(tmp_path)) if ".tmp" in n] == []
