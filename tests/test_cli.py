"""CLI tests: every subcommand exercised end to end on real files."""

import json
import os

import pytest

from repro.cli import main
from repro.corpus import ProgramBuilder, build_app
from repro.x86 import EAX, RDI


@pytest.fixture(scope="module")
def demo_binary(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    p = ProgramBuilder("demo")
    with p.function("_start"):
        p.asm.mov(EAX, 39)
        p.asm.syscall()
        p.asm.mov(EAX, 60)
        p.asm.xor(RDI, RDI)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    prog = p.build()
    path = str(tmp / "demo")
    prog.save(path)
    return path


@pytest.fixture(scope="module")
def dynamic_binary(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-dyn")
    bundle = build_app("sqlite")
    binpath = str(tmp / "sqlite-like")
    bundle.program.save(binpath)
    libdir = str(tmp / "libs")
    os.makedirs(libdir, exist_ok=True)
    from repro.corpus import build_libc

    libc = build_libc()
    libc.save(os.path.join(libdir, "libc.so"))
    return binpath, libdir


class TestAnalyze:
    def test_plain_output(self, demo_binary, capsys):
        assert main(["analyze", demo_binary]) == 0
        out = capsys.readouterr().out
        assert "getpid" in out and "exit" in out

    def test_json_output(self, demo_binary, capsys):
        assert main(["analyze", demo_binary, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        assert 39 in doc["syscalls"] and 60 in doc["syscalls"]

    def test_dynamic_with_libdir(self, dynamic_binary, capsys):
        binpath, libdir = dynamic_binary
        assert main(["analyze", binpath, "--libdir", libdir]) == 0
        out = capsys.readouterr().out
        assert "syscalls" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/bin"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "fleet", "serve"])
    def test_incremental_flag_is_gone(self, command, demo_binary, tmp_path,
                                      capsys):
        # the tier is reached only through BSideAnalyzer(incremental=True)
        target = {"analyze": [demo_binary],
                  "fleet": [str(tmp_path)],
                  "serve": ["--state-dir", str(tmp_path)]}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *target, "--incremental"])
        assert exit_info.value.code == 2
        assert "--incremental" in capsys.readouterr().err

    def test_cold_output_has_no_function_counters(self, demo_binary, capsys):
        assert main(["analyze", demo_binary, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "functions_total" not in doc
        assert "sites_total" not in doc


class TestOtherCommands:
    def test_phases(self, demo_binary, capsys):
        assert main(["phases", demo_binary]) == 0
        assert "phases over" in capsys.readouterr().out

    def test_filter(self, demo_binary, capsys):
        assert main(["filter", demo_binary]) == 0
        out = capsys.readouterr().out
        assert "jeq" in out and "ret kill" in out

    def test_interface(self, tmp_path, capsys):
        from repro.corpus import build_libc

        libc = build_libc()
        path = str(tmp_path / "libc.so")
        libc.save(path)
        assert main(["interface", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["library"] == "libc.so"
        assert "syscall" in doc["exports"]

    def test_trace(self, demo_binary, capsys):
        assert main(["trace", demo_binary]) == 0
        out = capsys.readouterr().out
        assert "getpid" in out and "exited with 0" in out

    def test_corpus_generate(self, tmp_path, capsys):
        outdir = str(tmp_path / "corpus")
        assert main(["corpus", "generate", outdir, "--scale", "0.02"]) == 0
        assert os.path.isdir(os.path.join(outdir, "bin"))
        assert os.path.isdir(os.path.join(outdir, "lib"))
        assert os.listdir(os.path.join(outdir, "bin"))


class TestCache:
    @pytest.fixture()
    def sharded_cache(self, tmp_path):
        from repro.core import ShardedArtifactStore

        root = str(tmp_path / "cache")
        store = ShardedArtifactStore(root, shards=2)
        for i in range(4):
            store.put("report", f"bin-{i}", {"n": i},
                      content_hash=f"{i:02x}" * 8)
        return root

    def test_stats_sharded_human(self, sharded_cache, capsys):
        assert main(["cache", "stats", "--cache-dir", sharded_cache,
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "shard 00" in out and "shard 01" in out

    def test_stats_sharded_json(self, sharded_cache, capsys):
        assert main(["cache", "stats", "--cache-dir", sharded_cache,
                     "--shards", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shards"] == 2
        assert doc["total_entries"] == 4
        assert sum(s["entries"] for s in doc["per_shard"]) == 4

    def _stats_and_prune(self, kind, binary, tmp_path, capsys):
        from repro.core import ArtifactStore, BSideAnalyzer
        from repro.loader import LoadedImage

        cache = str(tmp_path / "cache")
        # the tier's funccfg/funcid tables are written only through the API
        report = BSideAnalyzer(
            incremental=True, artifact_store=ArtifactStore(cache),
        ).analyze(LoadedImage.from_path(binary))
        assert report.success
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert kind in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", cache,
                     "--kind", kind]) == 0
        assert f"removed 1 {kind} entries" in capsys.readouterr().out

    def test_funccfg_stats_and_prune(self, demo_binary, tmp_path, capsys):
        self._stats_and_prune("funccfg", demo_binary, tmp_path, capsys)

    def test_funcid_stats_and_prune(self, demo_binary, tmp_path, capsys):
        self._stats_and_prune("funcid", demo_binary, tmp_path, capsys)

    def test_funcid_prune_sharded(self, tmp_path, capsys):
        from repro.core import ShardedArtifactStore

        root = str(tmp_path / "cache")
        store = ShardedArtifactStore(root, shards=2)
        for i in range(4):
            store.put("funcid", f"bin@{i:x}", {"n": i},
                      content_hash=f"{i:02x}" * 8)
        assert main(["cache", "stats", "--cache-dir", root,
                     "--shards", "2"]) == 0
        assert "funcid" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", root,
                     "--shards", "2", "--kind", "funcid"]) == 0
        assert "removed 4 funcid entries" in capsys.readouterr().out

    def test_prune_and_clear_sharded(self, sharded_cache, capsys):
        assert main(["cache", "prune", "--cache-dir", sharded_cache,
                     "--shards", "2", "--kind", "report"]) == 0
        assert "removed 4 report entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", sharded_cache,
                     "--shards", "2"]) == 0
        assert "removed 0 cache entries" in capsys.readouterr().out
