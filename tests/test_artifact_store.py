"""Artifact-store tests: multi-kind keying, fingerprint invalidation,
and whole-report caching through analyzer and fleet.

The production claim: a cache entry is served only when binary content,
pipeline configuration (flags + budgets), and every dependency hash all
match — anything else is a miss, never a stale result.
"""

import json
import os
import threading
import time

import pytest

from repro.core import (
    AnalysisBudget,
    ArtifactStore,
    BSideAnalyzer,
    PersistentInterfaceStore,
    PipelineConfig,
    ShardedArtifactStore,
)
from repro.core.artifacts import _RELIST_NS
from repro.core.fleet import FleetAnalyzer
from repro.corpus import LIBC_NAME, build_libc, make_debian_corpus
from repro.corpus.progbuilder import ProgramBuilder
from repro.loader import LibraryResolver
from repro.x86 import EAX, RAX, RDI


def build_static_app(name="app", numbers=(39, 60)):
    p = ProgramBuilder(name)
    with p.function("_start"):
        for nr in numbers:
            p.asm.mov(EAX, nr)
            p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    return p.build()


@pytest.fixture(scope="module")
def tiny_corpus():
    return make_debian_corpus(scale=0.04, seed=11)


class TestStoreKeying:
    def test_round_trip_per_kind(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("report", "app", {"x": 1}, content_hash="h",
                  fingerprint="f", dep_hashes=["d1"])
        assert store.get("report", "app", content_hash="h",
                         fingerprint="f", dep_hashes=["d1"]) == {"x": 1}
        assert store.counters("report")["hits"] == 1

    def test_unknown_kind_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with pytest.raises(ValueError):
            store.put("bogus", "app", {})
        with pytest.raises(ValueError):
            store.get("bogus", "app")

    @pytest.mark.parametrize("mismatch", [
        {"content_hash": "OTHER"},
        {"fingerprint": "OTHER"},
        {"dep_hashes": ["OTHER"]},
    ])
    def test_any_key_component_mismatch_invalidates(self, tmp_path, mismatch):
        store = ArtifactStore(str(tmp_path))
        key = {"content_hash": "h", "fingerprint": "f", "dep_hashes": ["d"]}
        store.put("report", "app", {"x": 1}, **key)
        assert store.get("report", "app", **{**key, **mismatch}) is None
        assert store.counters("report")["invalidations"] == 1
        # The entry is gone, not just skipped: the original key misses too.
        assert store.get("report", "app", **key) is None

    def test_kinds_do_not_collide(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("cfg", "app", {"n_blocks": 3})
        store.put("report", "app", {"x": 1})
        assert store.get("cfg", "app") == {"n_blocks": 3}
        assert store.get("report", "app") == {"x": 1}
        assert store.stats()["kinds"]["cfg"]["entries"] == 1
        assert store.stats()["kinds"]["report"]["entries"] == 1

    def test_prune_per_kind_and_clear(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("cfg", "a", {})
        store.put("report", "a", {})
        store.put("report", "b", {})
        assert store.prune("report") == 2
        assert store.stats()["kinds"]["report"]["entries"] == 0
        assert store.stats()["kinds"]["cfg"]["entries"] == 1
        assert store.prune() == 1
        assert store.stats()["total_entries"] == 0

    def test_corrupt_envelope_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("report", "app", {"x": 1})
        (path,) = [
            os.path.join(str(tmp_path), f)
            for f in os.listdir(str(tmp_path))
        ]
        with open(path, "w") as f:
            f.write('{"cache_version": 2, TRUNCATED')
        assert store.get("report", "app") is None
        assert not os.path.exists(path)
        assert store.counters("report")["invalidations"] == 1


class TestConcurrentWriters:
    def test_two_writers_of_one_entry_both_succeed(
        self, tmp_path, monkeypatch,
    ):
        """Two writers of the same entry (worker processes building one
        library interface, fleet workers sharing a region) each rename
        their own temp file; the last complete write wins."""
        store = ArtifactStore(str(tmp_path))
        payload = {"exports": {"read": [0], "write": [1]}}
        # Both writers reach the rename only after both temp files exist.
        barrier = threading.Barrier(2, timeout=10.0)
        real_replace = os.replace

        def gated_replace(src, dst):
            barrier.wait()
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", gated_replace)
        errors: list[str] = []

        def writer() -> None:
            try:
                store.put("iface", "libc.so.6", payload, content_hash="h")
            except Exception as error:
                errors.append(repr(error))

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        monkeypatch.undo()

        assert not errors, errors
        assert store.get("iface", "libc.so.6", content_hash="h") == payload
        assert [n for n in os.listdir(str(tmp_path)) if ".tmp" in n] == []


def _open_store(root, layout):
    if layout == "flat":
        return ArtifactStore(root)
    return ShardedArtifactStore(root, shards=2)


def _entry_dirs(store):
    shards = getattr(store, "shards", [store])
    return [shard.cache_dir for shard in shards]


@pytest.mark.parametrize("layout", ["flat", "sharded"])
class TestSharedHashIndex:
    """Two store instances over one directory — the service front end
    and its worker processes: each finds by content hash what the other
    wrote, without re-reading envelopes it has already indexed."""

    def test_peer_put_is_found_by_content_hash(self, tmp_path, layout):
        front = _open_store(str(tmp_path), layout)
        worker = _open_store(str(tmp_path), layout)
        # even hashes: both entries land in the same shard
        front.put("report", "one", {"x": 1}, content_hash="aa" * 32)
        assert front.find_name("report", "aa" * 32) == "one"  # index built
        worker.put("report", "two", {"x": 2}, content_hash="cc" * 32)
        time.sleep(_RELIST_NS / 1e9)
        assert front.find_name("report", "cc" * 32) == "two"
        assert front.lookup(
            "report", "renamed", content_hash="cc" * 32,
        ) == {"x": 2}

    def test_miss_reads_only_unseen_envelopes(
        self, tmp_path, layout, monkeypatch,
    ):
        front = _open_store(str(tmp_path), layout)
        worker = _open_store(str(tmp_path), layout)
        # even hashes: every entry lands in the same shard
        for i in range(4):
            worker.put("report", f"bin{i}", {"i": i},
                       content_hash=f"{2 * i:02x}" * 32)
        # an mtime older than the relist interval is trusted
        past = (os.stat(str(tmp_path)).st_mtime_ns - 10 * 10**9,) * 2
        for path in _entry_dirs(front):
            os.utime(path, ns=past)
        reads = []
        real_load = json.load
        monkeypatch.setattr(
            json, "load", lambda f: reads.append(f.name) or real_load(f),
        )
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda p: listings.append(p) or real_listdir(p),
        )
        interval = _RELIST_NS / 1e9
        missing = "ee" * 32
        assert front.find_name("report", missing) is None
        assert (len(reads), len(listings)) == (4, 1)
        # nothing changed: one stat, no listing, no envelope read
        time.sleep(interval)
        assert front.find_name("report", missing) is None
        assert (len(reads), len(listings)) == (4, 1)

        # the directory changed: list it, read only the new envelope
        worker.put("report", "bin4", {"i": 4}, content_hash="08" * 32)
        assert front.find_name("report", "08" * 32) == "bin4"
        assert (len(reads), len(listings)) == (5, 2)

        # within the relist interval a miss does not list again
        worker.put("report", "bin5", {"i": 5}, content_hash="0a" * 32)
        assert front.find_name("report", "0a" * 32) is None
        assert (len(reads), len(listings)) == (5, 2)
        time.sleep(interval)
        assert front.find_name("report", "0a" * 32) == "bin5"
        assert (len(reads), len(listings)) == (6, 3)


class TestAnalyzerReportCache:
    def test_warm_analyze_serves_identical_report(self, tmp_path):
        prog = build_static_app()
        cold_store = ArtifactStore(str(tmp_path))
        a1 = BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=cold_store,
        )
        cold = a1.analyze(prog.image)
        assert cold_store.counters("report")["misses"] == 1

        warm_store = ArtifactStore(str(tmp_path))
        a2 = BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=warm_store,
        )
        warm = a2.analyze(prog.image)
        assert warm_store.counters("report")["hits"] == 1
        assert warm.to_json(include_runtime=False) == \
            cold.to_json(include_runtime=False)

    def test_pipeline_flag_change_misses(self, tmp_path):
        """The satellite requirement: changing a pipeline flag must miss,
        not serve a stale report."""
        prog = build_static_app()
        a1 = BSideAnalyzer(
            budget=AnalysisBudget.generous(),
            artifact_store=ArtifactStore(str(tmp_path)),
        )
        a1.analyze(prog.image)

        store = ArtifactStore(str(tmp_path))
        flipped = BSideAnalyzer(
            budget=AnalysisBudget.generous(),
            artifact_store=store,
            directed_search=False,
        )
        flipped.analyze(prog.image)
        assert store.counters("report")["hits"] == 0
        assert store.counters("report")["misses"] == 1

    def test_budget_change_misses(self, tmp_path):
        prog = build_static_app()
        a1 = BSideAnalyzer(
            budget=AnalysisBudget.generous(),
            artifact_store=ArtifactStore(str(tmp_path)),
        )
        a1.analyze(prog.image)
        store = ArtifactStore(str(tmp_path))
        a2 = BSideAnalyzer(budget=AnalysisBudget(), artifact_store=store)
        a2.analyze(prog.image)
        assert store.counters("report")["hits"] == 0

    def test_binary_content_change_misses(self, tmp_path):
        a1 = BSideAnalyzer(
            budget=AnalysisBudget.generous(),
            artifact_store=ArtifactStore(str(tmp_path)),
        )
        a1.analyze(build_static_app(numbers=(39, 60)).image)
        store = ArtifactStore(str(tmp_path))
        a2 = BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=store,
        )
        report = a2.analyze(build_static_app(numbers=(41, 60)).image)
        assert store.counters("report")["hits"] == 0
        assert report.syscalls == {41, 60}

    def test_dependency_change_invalidates_dependent_report(self, tmp_path):
        libc = build_libc()
        p = ProgramBuilder("app", pic=True, needed=[LIBC_NAME])
        with p.function("_start", exported=True):
            p.call_import("c_read")
            p.asm.mov(EAX, 60)
            p.asm.syscall()
            p.asm.hlt()
        p.set_entry("_start")
        prog = p.build()

        resolver = LibraryResolver(library_map={LIBC_NAME: libc.elf_bytes})
        a1 = BSideAnalyzer(
            resolver=resolver, budget=AnalysisBudget.generous(),
            artifact_store=ArtifactStore(str(tmp_path)),
        )
        a1.analyze(prog.image)

        # "Upgrade" libc: same soname, different bytes.
        changed = LibraryResolver(
            library_map={LIBC_NAME: libc.elf_bytes + b"\x00"},
        )
        store = ArtifactStore(str(tmp_path))
        a2 = BSideAnalyzer(
            resolver=changed, budget=AnalysisBudget.generous(),
            artifact_store=store,
        )
        a2.analyze(prog.image)
        assert store.counters("report")["hits"] == 0

    def test_dependency_change_invalidates_dependent_interface(self, tmp_path):
        """A library's interface folds its dependencies' exports in, so
        upgrading a dependency must invalidate the dependent library's
        cached interface too — not just executable reports."""
        libc = build_libc()
        p = ProgramBuilder(
            "libdep.so", soname="libdep.so", needed=[LIBC_NAME],
            pic=True, text_base=0x7F0000300000,
        )
        with p.function("dep_read", exported=True):
            p.call_import("c_read")
            p.asm.ret()
        dep = p.build()

        resolver = LibraryResolver(library_map={LIBC_NAME: libc.elf_bytes})
        store1 = ArtifactStore(str(tmp_path))
        a1 = BSideAnalyzer(
            resolver=resolver, budget=AnalysisBudget.generous(),
            interface_store=PersistentInterfaceStore(store=store1),
        )
        iface = a1.analyze_library(dep.image)
        assert iface.exports["dep_read"].syscalls == {0}

        # "Upgrade" libc: same soname, different bytes.  libdep.so itself
        # is unchanged, but its cached interface must not be served.
        changed = LibraryResolver(
            library_map={LIBC_NAME: libc.elf_bytes + b"\x00"},
        )
        store2 = ArtifactStore(str(tmp_path))
        a2 = BSideAnalyzer(
            resolver=changed, budget=AnalysisBudget.generous(),
            interface_store=PersistentInterfaceStore(store=store2),
        )
        a2.analyze_library(dep.image)
        assert store2.counters("iface")["hits"] == 0
        assert store2.counters("iface")["invalidations"] >= 2  # libc + libdep

    def test_wrapper_table_artifact_written_and_reused(self, tmp_path):
        lib = build_libc()
        p = ProgramBuilder("app")
        with p.function("sysw"):
            p.asm.mov(RAX, RDI)
            p.asm.syscall()
            p.asm.ret()
        with p.function("_start"):
            p.asm.mov(RDI, 1)
            p.asm.call("sysw")
            p.asm.mov(EAX, 60)
            p.asm.syscall()
            p.asm.hlt()
        p.set_entry("_start")
        prog = p.build()

        store = ArtifactStore(str(tmp_path))
        a1 = BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=store,
        )
        cold = a1.analyze(prog.image)
        assert store.stats()["kinds"]["wrappers"]["entries"] == 1
        assert store.stats()["kinds"]["cfg"]["entries"] == 1

        # Drop the report so analysis re-runs, but keep the wrapper
        # table: phases of the pipeline replay from their artifacts.
        store.prune("report")
        store2 = ArtifactStore(str(tmp_path))
        a2 = BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=store2,
        )
        warm = a2.analyze(prog.image)
        assert store2.counters("wrappers")["hits"] == 1
        assert warm.to_json(include_runtime=False) == \
            cold.to_json(include_runtime=False)


class TestFleetReportCache:
    def test_fully_warm_fleet_does_zero_binary_analysis(
        self, tmp_path, tiny_corpus,
    ):
        images = [b.image for b in tiny_corpus.binaries]
        cache_dir = str(tmp_path / "cache")
        cold = FleetAnalyzer(
            resolver=tiny_corpus.make_resolver(), cache_dir=cache_dir,
        )
        cold_report = cold.analyze_images(images)
        assert cold.artifacts.counters("report")["misses"] == len(images)

        warm = FleetAnalyzer(
            resolver=tiny_corpus.make_resolver(), cache_dir=cache_dir,
        )
        warm_report = warm.analyze_images(images)
        assert warm.artifacts.counters("report")["hits"] == len(images)
        assert warm.artifacts.counters("report")["misses"] == 0
        assert all(e.from_cache for e in warm_report.entries)
        # No interface traffic at all: nothing was analyzed.
        assert warm.interfaces.stats()["resident"] == 0
        assert warm_report.to_json(include_runtime=False) == \
            cold_report.to_json(include_runtime=False)

    def test_failed_budget_reports_are_cached_too(self, tmp_path, tiny_corpus):
        hard = [b.image for b in tiny_corpus.binaries if b.hardness][:2]
        if not hard:
            pytest.skip("corpus scale produced no hard binaries")
        cache_dir = str(tmp_path / "cache")
        cold = FleetAnalyzer(
            resolver=tiny_corpus.make_resolver(), cache_dir=cache_dir,
        )
        cold_report = cold.analyze_images(hard)
        assert all(not e.report.success for e in cold_report.entries)

        warm = FleetAnalyzer(
            resolver=tiny_corpus.make_resolver(), cache_dir=cache_dir,
        )
        warm_report = warm.analyze_images(hard)
        assert all(e.from_cache for e in warm_report.entries)
        assert warm_report.to_json(include_runtime=False) == \
            cold_report.to_json(include_runtime=False)

    def test_load_failures_are_never_cached(self, tmp_path, tiny_corpus):
        dynamic = [
            b.image for b in tiny_corpus.binaries if not b.is_static
        ][:2]
        cache_dir = str(tmp_path / "cache")
        # Empty resolver: every dependency unresolvable -> load failures.
        fleet = FleetAnalyzer(cache_dir=cache_dir)
        report = fleet.analyze_images(dynamic)
        assert all(not e.report.success for e in report.entries)
        assert fleet.artifacts.stats()["kinds"]["report"]["entries"] == 0

    def test_shared_store_between_iface_and_reports(self, tmp_path):
        """One ArtifactStore serves both kinds without collisions."""
        cache_dir = str(tmp_path / "cache")
        libc = build_libc()
        store = ArtifactStore(cache_dir)
        analyzer = BSideAnalyzer(
            budget=AnalysisBudget.generous(),
            interface_store=PersistentInterfaceStore(store=store),
            artifact_store=store,
        )
        analyzer.analyze_library(libc.image)
        analyzer.analyze(build_static_app().image)
        kinds = store.stats()["kinds"]
        assert kinds["iface"]["entries"] == 1
        assert kinds["report"]["entries"] == 1


class TestPipelineConfigObject:
    def test_fleet_entries_respect_config_fingerprint(
        self, tmp_path, tiny_corpus,
    ):
        images = [b.image for b in tiny_corpus.binaries][:3]
        cache_dir = str(tmp_path / "cache")
        FleetAnalyzer(
            resolver=tiny_corpus.make_resolver(), cache_dir=cache_dir,
        ).analyze_images(images)

        # A fleet with a different budget must not reuse those reports.
        other = FleetAnalyzer(
            resolver=tiny_corpus.make_resolver(),
            budget=AnalysisBudget.generous(),
            cache_dir=cache_dir,
        )
        other.analyze_images(images)
        assert other.artifacts.counters("report")["hits"] == 0

    def test_explicit_pipeline_config_param(self):
        config = PipelineConfig(detect_wrappers=False)
        analyzer = BSideAnalyzer(pipeline_config=config)
        assert analyzer.detect_wrappers is False
        assert "wrapper-detection" not in analyzer.pipeline.pass_names


class TestShardedStorePlacement:
    """PR-6 satellite: shard placement is deterministic, total, and
    stable — every writer and reader agrees on an entry's home shard
    with no coordination, across reopens, forever (rebalance-free)."""

    def test_hex_hashes_place_by_modulo(self, tmp_path):
        store = ShardedArtifactStore(str(tmp_path), shards=4)
        for value in (0, 1, 2, 3, 4, 15, 16, 255, 2**63, 2**128 - 1):
            h = f"{value:x}"
            assert store.shard_index(h) == value % 4

    @pytest.mark.parametrize("key", [
        "deadbeef", "0", "ff" * 32,          # hex hashes
        "not-hex-at-all", "ZZZZ",            # non-hex fallback
        "", None,                            # name-only placement
    ])
    def test_placement_total_and_deterministic(self, tmp_path, key):
        store = ShardedArtifactStore(str(tmp_path), shards=3)
        index = store.shard_index(key, name="subject")
        assert 0 <= index < 3
        assert all(
            store.shard_index(key, name="subject") == index
            for _ in range(10)
        )

    def test_placement_stable_under_reopen(self, tmp_path):
        hashes = [f"{i * 2654435761:x}" for i in range(64)]
        first = ShardedArtifactStore(str(tmp_path), shards=4)
        placed = {h: first.shard_index(h) for h in hashes}
        reopened = ShardedArtifactStore(str(tmp_path), shards=4)
        assert {h: reopened.shard_index(h) for h in hashes} == placed

    def test_no_rebalance_on_reopen_and_read(self, tmp_path):
        """Reopening and reading must not move a single entry file."""
        store = ShardedArtifactStore(str(tmp_path), shards=3)
        for i in range(24):
            store.put("report", f"app-{i}", {"i": i},
                      content_hash=f"{i:x}", fingerprint="f")

        def file_map():
            out = {}
            for root, _dirs, files in os.walk(str(tmp_path)):
                for name in files:
                    out[os.path.join(root, name)] = os.path.getsize(
                        os.path.join(root, name))
            return out

        before = file_map()
        reopened = ShardedArtifactStore(str(tmp_path), shards=3)
        for i in range(24):
            assert reopened.get(
                "report", f"app-{i}", content_hash=f"{i:x}",
                fingerprint="f") == {"i": i}
        assert file_map() == before

    def test_every_entry_lives_in_its_computed_shard(self, tmp_path):
        store = ShardedArtifactStore(str(tmp_path), shards=4)
        for i in range(32):
            h = f"{i * 7919:x}"
            store.put("cfg", f"bin-{i}", {"i": i}, content_hash=h)
        for i in range(32):
            h = f"{i * 7919:x}"
            home = store.shards[store.shard_index(h)]
            assert home.get("cfg", f"bin-{i}", content_hash=h) == {"i": i}


class TestShardedStoreEquivalence:
    """The sharded store is byte-identical to the flat store from every
    consumer's point of view: same payloads, same hit/miss/invalidation
    behaviour, same aggregate stats and prune counts."""

    PUTS = [
        ("report", f"app-{i}", {"syscalls": [i, i + 1], "i": i},
         f"{i * 31:x}", f"fp-{i % 3}")
        for i in range(20)
    ]

    def _fill(self, store):
        for kind, name, payload, h, fp in self.PUTS:
            store.put(kind, name, payload, content_hash=h, fingerprint=fp)

    def test_payloads_identical_to_flat_store(self, tmp_path):
        flat = ArtifactStore(str(tmp_path / "flat"))
        sharded = ShardedArtifactStore(str(tmp_path / "sharded"), shards=3)
        self._fill(flat)
        self._fill(sharded)
        for kind, name, payload, h, fp in self.PUTS:
            a = flat.get(kind, name, content_hash=h, fingerprint=fp)
            b = sharded.get(kind, name, content_hash=h, fingerprint=fp)
            assert a == b == payload
            assert json.dumps(a, sort_keys=True) == \
                json.dumps(b, sort_keys=True)

    def test_warm_analyze_byte_identical_across_store_kinds(self, tmp_path):
        """A report cached through a flat store and one cached through a
        sharded store serialize to the same bytes."""
        prog = build_static_app()
        flat_cold = BSideAnalyzer(
            budget=AnalysisBudget.generous(),
            artifact_store=ArtifactStore(str(tmp_path / "flat")),
        ).analyze(prog.image)
        sharded_store = ShardedArtifactStore(str(tmp_path / "sh"), shards=3)
        BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=sharded_store,
        ).analyze(prog.image)
        warm_store = ShardedArtifactStore(str(tmp_path / "sh"), shards=3)
        warm = BSideAnalyzer(
            budget=AnalysisBudget.generous(), artifact_store=warm_store,
        ).analyze(prog.image)
        assert warm_store.counters("report")["hits"] == 1
        assert warm.to_json(include_runtime=False) == \
            flat_cold.to_json(include_runtime=False)

    def test_stats_aggregate_equals_flat(self, tmp_path):
        flat = ArtifactStore(str(tmp_path / "flat"))
        sharded = ShardedArtifactStore(str(tmp_path / "sharded"), shards=3)
        self._fill(flat)
        self._fill(sharded)
        flat_doc = flat.stats()
        sharded_doc = sharded.stats()
        assert sharded_doc["total_entries"] == flat_doc["total_entries"]
        assert sharded_doc["total_bytes"] == flat_doc["total_bytes"]
        assert sharded_doc["kinds"] == flat_doc["kinds"]
        # the per-shard breakdown sums back to the totals
        assert sum(s["entries"] for s in sharded_doc["per_shard"]) == \
            sharded_doc["total_entries"]
        assert sum(s["bytes"] for s in sharded_doc["per_shard"]) == \
            sharded_doc["total_bytes"]

    def test_prune_kind_aggregates_across_shards(self, tmp_path):
        sharded = ShardedArtifactStore(str(tmp_path), shards=3)
        self._fill(sharded)
        for i in range(7):
            sharded.put("cfg", f"cfg-{i}", {}, content_hash=f"{i:x}")
        assert sharded.prune("report") == len(self.PUTS)
        assert sharded.stats()["kinds"].get("report", {"entries": 0})[
            "entries"] == 0
        assert sharded.stats()["kinds"]["cfg"]["entries"] == 7
        assert sharded.prune() == 7
        assert sharded.stats()["total_entries"] == 0

    def test_invalidation_behaviour_matches_flat(self, tmp_path):
        flat = ArtifactStore(str(tmp_path / "flat"))
        sharded = ShardedArtifactStore(str(tmp_path / "sharded"), shards=3)
        for store in (flat, sharded):
            store.put("report", "app", {"x": 1},
                      content_hash="ab", fingerprint="f1")
            assert store.get("report", "app", content_hash="ab",
                             fingerprint="OTHER") is None
            assert store.counters("report")["invalidations"] == 1
            assert store.get("report", "app", content_hash="ab",
                             fingerprint="f1") is None
