"""One pass per stage: incremental analysis is an input, not a pipeline.

An incremental config builds the same pass objects as a cold one; the
passes consult ``AnalysisContext.incremental`` only when ``cfg-recovery``
created it (incremental config *and* an artifact store bound).  A cold
analysis with a store bound therefore writes no per-region tables and
reports no incremental counters, and a library interface build (which
binds no store) takes the cold path even under an incremental config.
"""

import json

import pytest

from repro.core import ArtifactStore, BSideAnalyzer
from repro.core import pipeline
from repro.core.pipeline import DEFAULT_PASSES, PipelineConfig, build_pipeline
from repro.core.report import AnalysisBudget
from repro.corpus import build_libc
from repro.corpus.apps import build_app
from repro.corpus.progbuilder import ProgramBuilder
from repro.loader.image import LoadedImage
from repro.x86 import EAX

COUNTERS = (
    "functions_total", "functions_reanalyzed", "sites_total",
    "sites_reexecuted",
)


@pytest.mark.parametrize("detect_wrappers", [True, False])
def test_incremental_config_builds_the_same_passes(detect_wrappers):
    cold = build_pipeline(PipelineConfig(detect_wrappers=detect_wrappers))
    incremental = build_pipeline(
        PipelineConfig(detect_wrappers=detect_wrappers, incremental=True),
    )
    assert [type(p) for p in incremental.passes] == \
        [type(p) for p in cold.passes]
    assert incremental.pass_names == cold.pass_names
    if detect_wrappers:
        assert tuple(cold.pass_names) == DEFAULT_PASSES


def test_cold_analysis_with_a_store_writes_no_product_tables(tmp_path):
    bundle = build_app("redis")
    image = LoadedImage.from_bytes("redis", bundle.program.elf_bytes)
    store = ArtifactStore(str(tmp_path))
    report = BSideAnalyzer(
        resolver=bundle.resolver, budget=AnalysisBudget(),
        artifact_store=store,
    ).analyze(image, modules=bundle.module_images)
    assert report.success
    kinds = store.stats()["kinds"]
    assert kinds["funccfg"]["entries"] == 0
    assert kinds["funcid"]["entries"] == 0
    assert kinds["report"]["entries"] == 1
    for counter in COUNTERS:
        assert getattr(report, counter) == 0, counter
    doc = json.loads(report.to_json(include_runtime=False))
    assert not set(COUNTERS) & set(doc)


def test_incremental_library_interface_takes_the_cold_path(
    tmp_path, monkeypatch,
):
    lib = build_libc().image
    cold = BSideAnalyzer(budget=AnalysisBudget()).analyze_library(lib)

    scans = []
    real_scan = pipeline.scan_image
    monkeypatch.setattr(
        pipeline, "scan_image",
        lambda *args: scans.append(args) or real_scan(*args),
    )
    store = ArtifactStore(str(tmp_path))
    analyzer = BSideAnalyzer(
        budget=AnalysisBudget(), artifact_store=store, incremental=True,
    )
    interface = analyzer.analyze_library(lib)

    assert scans == []
    assert interface.to_json() == cold.to_json()
    kinds = store.stats()["kinds"]
    assert kinds["funccfg"]["entries"] == 0
    assert kinds["funcid"]["entries"] == 0

    # control: the same analyzer on an executable does run incrementally
    p = ProgramBuilder("app")
    with p.function("_start"):
        p.asm.mov(EAX, 60)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    report = analyzer.analyze(p.build().image)
    assert len(scans) == 1
    assert report.functions_total == 1
    assert store.stats()["kinds"]["funccfg"]["entries"] == 1
