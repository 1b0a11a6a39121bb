"""Differential equivalence harness for incremental analysis.

The incremental pipeline's whole contract is *observational equivalence
with the cold pipeline*: for any binary — including one rebuilt with K
functions changed — the incremental path must produce a byte-identical
report (modulo runtime-only fields) while re-analyzing only the changed
functions plus their reverse-dependency cone.

These tests drive that contract end to end with the in-repo mutator
(:mod:`repro.corpus.mutate`): size-preserving immediate edits that change
K function bodies and nothing else.  Fault cases corrupt or truncate
the packed per-image ``funccfg``/``funcid`` tables — one region's record,
or the whole table file — and require graceful degradation to a
per-function (or per-site) cold re-analysis (miss, never crash) that the
next run heals, on flat and sharded stores alike.

The symex tier gets the same treatment: ``sites_total`` /
``sites_reexecuted`` are pinned against an independent oracle — the
anchors a cold pipeline enumerates, intersected with the identification
cone (callers* and callees* of the change) — and a dedicated caller-cone
program proves that mutating a *callee* (an in-image wrapper)
re-identifies the wrapper-calling callers while unrelated functions
replay from cache.
"""

import glob
import json
import os
from functools import partial

import pytest

from repro.cfg.funccfg import scan_image
from repro.cfg.partition import FunctionPartition
from repro.core import (
    ArtifactStore,
    BSideAnalyzer,
    PersistentInterfaceStore,
    ShardedArtifactStore,
)
from repro.core.artifacts import ARTIFACT_KINDS
from repro.core.identify import wrapper_call_blocks
from repro.core.pipeline import (
    AnalysisContext,
    CfgRecoveryPass,
    PassPipeline,
    PipelineConfig,
    ReachabilityPass,
    SiteDiscoveryPass,
    WrapperDetectionPass,
)
from repro.core.report import AnalysisBudget
from repro.corpus.apps import APP_NAMES, build_app
from repro.corpus.mutate import mutate_program, mutate_regions
from repro.loader.image import LoadedImage
from repro.x86.decoder import decode_all


def _incremental_analyzer(bundle, store):
    return BSideAnalyzer(
        resolver=bundle.resolver,
        budget=AnalysisBudget(),
        interface_store=PersistentInterfaceStore(store=store),
        artifact_store=store,
        incremental=True,
    )


def _cold_analyzer(bundle):
    return BSideAnalyzer(resolver=bundle.resolver, budget=AnalysisBudget())


def _stable(report) -> str:
    """The report serialization with runtime-only fields stripped."""
    return report.to_json(include_runtime=False)


def _scan(image: LoadedImage):
    insns = decode_all(image.text_bytes, image.text_base)
    return scan_image(image, insns, {insn.addr: insn for insn in insns})


def _expected_reanalysis(image: LoadedImage, changed: list[int]) -> set[int]:
    """Region starts the incremental pass must re-analyze: every region
    whose closure hash moved (changed functions plus transitive callers)
    plus any region that is never cacheable (unaligned decode)."""
    scan = _scan(image)
    cone = FunctionPartition.dependency_cone(scan.refs, set(changed))
    unaligned = {
        rs.start for rs in scan.regions.values() if not rs.aligned
    }
    return cone | unaligned


def _anchor_addrs(image: LoadedImage) -> list[int]:
    """Identification anchors a cold pipeline visits, independently
    re-derived: plain-site instruction addresses plus wrapper call-site
    block addresses (the oracle for ``sites_total``)."""
    ctx = AnalysisContext(
        image=image,
        roots=[image.entry] if image.entry else [],
        budget=AnalysisBudget(),
        config=PipelineConfig(),
    )
    PassPipeline([
        CfgRecoveryPass(), ReachabilityPass(),
        SiteDiscoveryPass(), WrapperDetectionPass(),
    ]).run(ctx)
    anchors = [
        site.insn_addr
        for site in ctx.sites
        if ctx.wrappers.get(site.func_entry) is None
    ]
    for info in ctx.wrappers.values():
        if info is None or info.param is None:
            continue
        anchors.extend(wrapper_call_blocks(ctx.cfg, info))
    return anchors


def _expected_sites(image: LoadedImage, changed: list[int]) -> tuple[int, int]:
    """``(sites_total, sites_reexecuted)`` the incremental symex tier
    must report for a mutation: anchors whose region lies in the
    identification cone (callers* and callees* of the change) or in a
    never-cacheable (unaligned) region re-execute; the rest replay."""
    scan = _scan(image)
    cone = FunctionPartition.identification_cone(scan.refs, set(changed))
    stale = cone | {
        rs.start for rs in scan.regions.values() if not rs.aligned
    }
    anchors = _anchor_addrs(image)
    reexecuted = sum(
        1 for addr in anchors
        if scan.partition.region_containing(addr).start in stale
    )
    return len(anchors), reexecuted


def _prune_derived(store) -> None:
    """Drop every artifact that would short-circuit a re-run, keeping
    only the per-function ``funccfg``/``funcid`` products (and
    interfaces)."""
    for kind in ("report", "wrappers", "cfg"):
        store.prune(kind)


LAYOUTS = {
    "flat": ArtifactStore,
    "sharded": lambda root: ShardedArtifactStore(root, shards=2),
}

#: the per-region product kinds, one table each per image
TABLE_KINDS = ("funccfg", "funcid")


def _table_path(root: str, kind: str) -> str:
    """The one ``kind`` table file under ``root`` (every test here
    analyzes a single image per store)."""
    files = glob.glob(os.path.join(root, "**", f"*.{kind}.json"),
                      recursive=True)
    assert len(files) == 1, f"expected one {kind} table under {root}: {files}"
    return files[0]


def _table_records(root: str, kind: str) -> dict:
    """The table's records: str(region start) -> {"key", "product"}."""
    with open(_table_path(root, kind)) as handle:
        return json.load(handle)[ARTIFACT_KINDS[kind]]


def _edit_record(root: str, kind: str, start: int, edit) -> None:
    """Rewrite one region's record inside the table file in place."""
    path = _table_path(root, kind)
    with open(path) as handle:
        envelope = json.load(handle)
    records = envelope[ARTIFACT_KINDS[kind]]
    records[str(start)] = edit(records[str(start)])
    with open(path, "w") as handle:
        json.dump(envelope, handle)


def _truncate_record(record: dict) -> dict:
    """Keep the key but only the first half of the product's fields."""
    fields = list(record["product"].items())
    return {**record, "product": dict(fields[: len(fields) // 2])}


def _garbage_record(record: dict) -> str:
    return "\x00garbage, not a record"


def _damage_table(root: str, kind: str, damage: str) -> None:
    path = _table_path(root, kind)
    if damage == "garbage":
        data = b"\x00garbage, not json\xff"
    else:
        with open(path, "rb") as handle:
            data = handle.read()
        data = data[: len(data) // 2]
    with open(path, "wb") as handle:
        handle.write(data)


# ---------------------------------------------------------------------------
# Differential equivalence: mutated rebuilds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("name", APP_NAMES)
def test_incremental_equals_cold_on_mutation(name, k, tmp_path):
    bundle = build_app(name)
    store = ArtifactStore(str(tmp_path / "cache"))
    warm = _incremental_analyzer(bundle, store)
    original = LoadedImage.from_bytes(name, bundle.program.elf_bytes)
    warm_report = warm.analyze(original, modules=bundle.module_images)
    assert warm_report.success
    assert warm_report.functions_total == len(
        FunctionPartition.from_image(original)
    )
    # Cold store: every function was analyzed live, every site executed.
    assert warm_report.functions_reanalyzed == warm_report.functions_total
    assert warm_report.sites_reexecuted == warm_report.sites_total

    mutated = mutate_program(bundle.program.elf_bytes, name, k, seed=k)
    incremental = _incremental_analyzer(bundle, store)
    inc_report = incremental.analyze(
        mutated.image, modules=bundle.module_images
    )
    cold_report = _cold_analyzer(bundle).analyze(
        mutated.image, modules=bundle.module_images
    )

    assert _stable(inc_report) == _stable(cold_report)
    expected = _expected_reanalysis(mutated.image, mutated.changed)
    assert inc_report.functions_reanalyzed == len(expected)
    assert inc_report.functions_total == len(
        FunctionPartition.from_image(mutated.image)
    )
    # The mutation touched K functions; the cone can only be larger.
    assert len(expected) >= len(mutated.changed)
    # Symex tier: exactly the anchors in the identification cone (plus
    # never-cacheable regions) re-executed; everything else replayed.
    sites_total, sites_reexecuted = _expected_sites(
        mutated.image, mutated.changed
    )
    assert inc_report.sites_total == sites_total
    assert inc_report.sites_reexecuted == sites_reexecuted
    assert inc_report.sites_reexecuted <= inc_report.sites_total


def test_unchanged_rerun_reanalyzes_nothing(tmp_path):
    bundle = build_app("redis")
    store = ArtifactStore(str(tmp_path / "cache"))
    image = LoadedImage.from_bytes("redis", bundle.program.elf_bytes)
    first = _incremental_analyzer(bundle, store).analyze(image)
    _prune_derived(store)
    rerun_store = ArtifactStore(str(tmp_path / "cache"))
    second = _incremental_analyzer(bundle, rerun_store).analyze(image)
    assert _stable(first) == _stable(second)
    assert second.functions_total == first.functions_total
    assert second.functions_reanalyzed == 0
    # One packed table per kind: one read serves every region.
    counters = rerun_store.counters("funccfg")
    assert counters["hits"] == 1
    assert counters["misses"] == 0
    # Symex tier: every identification anchor replayed from cache.
    assert first.sites_total > 0
    assert second.sites_total == first.sites_total
    assert second.sites_reexecuted == 0
    funcid = rerun_store.counters("funcid")
    assert funcid["hits"] == 1
    assert funcid["misses"] == 0


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_unchanged_rerun_writes_no_products(layout, tmp_path):
    bundle = build_app("redis")
    root = str(tmp_path / "cache")
    image = LoadedImage.from_bytes("redis", bundle.program.elf_bytes)
    first_store = LAYOUTS[layout](root)
    _incremental_analyzer(bundle, first_store).analyze(image)
    # The first analysis writes each table once, not once per region.
    assert first_store.counters("funccfg")["writes"] == 1
    assert first_store.counters("funcid")["writes"] == 1
    tables = {
        kind: open(_table_path(root, kind), "rb").read()
        for kind in TABLE_KINDS
    }
    _prune_derived(first_store)
    rerun_store = LAYOUTS[layout](root)
    _incremental_analyzer(bundle, rerun_store).analyze(image)
    for kind, data in tables.items():
        assert rerun_store.counters(kind)["writes"] == 0
        assert open(_table_path(root, kind), "rb").read() == data


# ---------------------------------------------------------------------------
# Fault injection: damaged tables and damaged records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_corrupt_funccfg_degrades_to_cold(layout, tmp_path):
    _check_table_fault(tmp_path, layout, "funccfg", "garbage")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_corrupt_funcid_degrades_to_site_misses(layout, tmp_path):
    _check_table_fault(tmp_path, layout, "funcid", "garbage")


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_truncated_table_degrades_every_region(layout, kind, tmp_path):
    _check_table_fault(tmp_path, layout, kind, "truncated")


def _check_table_fault(tmp_path, layout: str, kind: str, damage: str):
    """A garbage or truncated table file: every region of that kind
    misses, the report still equals the first run's, and the next run
    heals (steady-state counts again)."""
    bundle = build_app("nginx")
    root = str(tmp_path / "cache")
    make_store = partial(LAYOUTS[layout], root)
    image = LoadedImage.from_bytes("nginx", bundle.program.elf_bytes)
    first = _incremental_analyzer(bundle, make_store()).analyze(
        image, modules=bundle.module_images
    )
    assert first.sites_total > 0
    _damage_table(root, kind, damage)
    _prune_derived(make_store())
    rerun = _incremental_analyzer(bundle, make_store()).analyze(
        image, modules=bundle.module_images
    )
    assert _stable(rerun) == _stable(first)
    steady_funcs = len(_expected_reanalysis(image, []))
    sites_total, steady_sites = _expected_sites(image, [])
    assert rerun.sites_total == sites_total
    if kind == "funccfg":
        # Every region lost its CFG product: full per-function re-carve.
        assert rerun.functions_reanalyzed == rerun.functions_total
    else:
        # funccfg survived, so no function re-analysis — but every
        # identification anchor lost its cached record and re-executed.
        assert rerun.functions_reanalyzed == steady_funcs
        assert rerun.sites_reexecuted == rerun.sites_total
    # The misses were re-stored: a further run replays everything.
    _prune_derived(make_store())
    healed = _incremental_analyzer(bundle, make_store()).analyze(
        image, modules=bundle.module_images
    )
    assert _stable(healed) == _stable(first)
    assert healed.sites_total == sites_total
    assert healed.functions_reanalyzed == steady_funcs
    assert healed.sites_reexecuted == steady_sites


def test_truncated_funcid_entry_is_a_per_region_miss(tmp_path):
    for layout in LAYOUTS:
        _check_record_fault(
            tmp_path / layout, layout, "funcid", _truncate_record,
        )


def test_truncated_funccfg_entry_is_a_single_miss(tmp_path):
    for layout in LAYOUTS:
        _check_record_fault(
            tmp_path / layout, layout, "funccfg", _truncate_record,
        )


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_garbage_record_is_a_per_region_miss(layout, kind, tmp_path):
    _check_record_fault(tmp_path, layout, kind, _garbage_record)


def _check_record_fault(tmp_path, layout: str, kind: str, damage) -> None:
    """Damaging one region's record inside the table costs exactly that
    region: one re-carved function (``funccfg``) or the region's own
    anchors re-executed (``funcid``).  The next run heals."""
    bundle = build_app("memcached")
    root = str(tmp_path / "cache")
    make_store = partial(LAYOUTS[layout], root)
    image = LoadedImage.from_bytes("memcached", bundle.program.elf_bytes)
    first = _incremental_analyzer(bundle, make_store()).analyze(image)
    assert first.sites_total > 0
    # The victim is the region owning the most identification anchors.
    scan = _scan(image)
    by_region: dict[int, int] = {}
    for addr in _anchor_addrs(image):
        start = scan.partition.region_containing(addr).start
        by_region[start] = by_region.get(start, 0) + 1
    victim = max(by_region, key=lambda s: (by_region[s], -s))
    assert str(victim) in _table_records(root, kind)
    _edit_record(root, kind, victim, damage)
    _prune_derived(make_store())
    rerun = _incremental_analyzer(bundle, make_store()).analyze(image)
    assert _stable(rerun) == _stable(first)
    assert rerun.sites_total == first.sites_total
    if kind == "funccfg":
        assert rerun.functions_reanalyzed == 1
        assert rerun.sites_reexecuted == 0
    else:
        assert rerun.functions_reanalyzed == 0
        # Only the victim region's anchors re-executed.
        assert rerun.sites_reexecuted == by_region[victim]
    # The miss was re-stored: a further run replays everything again.
    _prune_derived(make_store())
    healed = _incremental_analyzer(bundle, make_store()).analyze(image)
    assert _stable(healed) == _stable(first)
    assert healed.sites_total == first.sites_total
    assert healed.functions_reanalyzed == 0
    assert healed.sites_reexecuted == 0


# ---------------------------------------------------------------------------
# Caller-cone invalidation: mutating a callee re-identifies its callers
# ---------------------------------------------------------------------------


def _wrapper_program():
    """A program whose identification crosses function boundaries.

    ``wrapnr`` is an in-image syscall wrapper (number arrives in
    ``%rdi``); ``alpha``/``beta`` call it with concrete numbers, so
    *their* identification records anchor on call sites that depend on
    the callee's classification.  ``gamma`` is an unrelated plain site.
    The ``cmp`` immediate in ``wrapnr`` is an analysis-neutral mutable
    site: editing it moves only body hashes, never the syscall set.
    """
    from repro.corpus import ProgramBuilder
    from repro.x86 import EAX, RAX, RDI

    p = ProgramBuilder("callercone")
    with p.function("wrapnr"):
        p.asm.cmp(RDI, 0x40)
        p.asm.mov(RAX, RDI)
        p.asm.syscall()
        p.asm.ret()
    with p.function("alpha"):
        p.asm.mov(RDI, 39)
        p.asm.call("wrapnr")
        p.asm.ret()
    with p.function("beta"):
        p.asm.mov(RDI, 60)
        p.asm.call("wrapnr")
        p.asm.ret()
    with p.function("gamma"):
        p.asm.mov(EAX, 39)
        p.asm.syscall()
        p.asm.ret()
    with p.function("_start"):
        p.asm.call("alpha")
        p.asm.call("beta")
        p.asm.call("gamma")
        p.asm.mov(EAX, 231)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    return p.build()


def _region_start(image: LoadedImage, name: str) -> int:
    for region in FunctionPartition.from_image(image):
        if region.name == name:
            return region.start
    raise AssertionError(f"no region named {name!r}")


def _standalone_analyzer(store=None):
    return BSideAnalyzer(
        budget=AnalysisBudget(),
        artifact_store=store,
        incremental=store is not None,
    )


def test_mutating_wrapper_callee_reidentifies_callers(tmp_path):
    prog = _wrapper_program()
    root = str(tmp_path / "cache")
    warm = _standalone_analyzer(ArtifactStore(root)).analyze(prog.image)
    assert warm.success
    # Plain sites in gamma and _start, wrapper call sites in alpha/beta.
    assert warm.sites_total == 4
    assert warm.sites_reexecuted == 4

    wrap_start = _region_start(prog.image, "wrapnr")
    mutated = mutate_regions(prog.elf_bytes, prog.name, [wrap_start], seed=1)
    inc = _standalone_analyzer(ArtifactStore(root)).analyze(mutated.image)
    cold = _standalone_analyzer().analyze(mutated.image)
    assert _stable(inc) == _stable(cold)
    # Mutating the *callee* invalidates the wrapper-calling callers:
    # alpha/beta re-identify their call sites and _start (a transitive
    # caller) re-executes too; only gamma replays from cache.
    assert inc.functions_reanalyzed == 4  # wrapnr, alpha, beta, _start
    assert inc.sites_total == 4
    assert inc.sites_reexecuted == 3
    assert (inc.sites_total, inc.sites_reexecuted) == _expected_sites(
        mutated.image, mutated.changed
    )


def test_mutating_leaf_keeps_wrapper_products_cached(tmp_path):
    prog = _wrapper_program()
    root = str(tmp_path / "cache")
    warm = _standalone_analyzer(ArtifactStore(root)).analyze(prog.image)
    assert warm.success

    gamma_start = _region_start(prog.image, "gamma")
    mutated = mutate_regions(prog.elf_bytes, prog.name, [gamma_start], seed=1)
    inc = _standalone_analyzer(ArtifactStore(root)).analyze(mutated.image)
    cold = _standalone_analyzer().analyze(mutated.image)
    assert _stable(inc) == _stable(cold)
    # Only gamma and its caller _start re-execute; the wrapper's
    # classification and both callers' call-site records replay.
    assert inc.functions_reanalyzed == 2  # gamma, _start
    assert inc.sites_total == 4
    assert inc.sites_reexecuted == 2
    assert (inc.sites_total, inc.sites_reexecuted) == _expected_sites(
        mutated.image, mutated.changed
    )


# ---------------------------------------------------------------------------
# Signature-aware invalidation: argument-setup edits move funcid products
# ---------------------------------------------------------------------------


def _sig_dispatch_program():
    """A signature-filtered dispatch whose handler is dead code.

    ``handler`` reads ``rsi``/``rdx`` at entry (its ``cmp`` immediate is
    a mutable argument-setup site) and is address-taken only through the
    ``tab`` quad table; the dispatch site in ``disp`` prepares only
    ``rdi``, so the signature filter drops the handler — and its
    ``socket`` (41) syscall — from the identified set.
    """
    from repro.corpus import ProgramBuilder
    from repro.x86 import EAX, RAX, RDI, RDX, RSI

    p = ProgramBuilder("sigdisp")
    with p.function("handler"):
        p.asm.cmp(RSI, 0x10)
        p.asm.mov(RAX, RSI)
        p.asm.add(RAX, RDX)
        p.asm.mov(EAX, 41)
        p.asm.syscall()
        p.asm.ret()
    with p.function("plain"):
        p.asm.mov(EAX, 39)
        p.asm.syscall()
        p.asm.ret()
    with p.function("disp"):
        p.asm.call("plain")
        p.asm.xor(RDI, RDI)
        p.asm.mov_from_rip(RAX, "tab")
        p.asm.call_reg(RAX)
        p.asm.ret()
    with p.function("_start"):
        p.asm.call("disp")
        p.asm.mov(EAX, 60)
        p.asm.syscall()
        p.asm.hlt()
    p.set_entry("_start")
    p.add_quads("tab", ["handler"])
    return p.build()


def _payload_for(root: str, kind: str, start: int) -> dict:
    return _table_records(root, kind)[str(start)]["product"]


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_cached_products_carry_entry_signatures(layout, tmp_path):
    prog = _sig_dispatch_program()
    root = str(tmp_path / "cache")
    make_store = (
        (lambda: ArtifactStore(root)) if layout == "flat"
        else (lambda: ShardedArtifactStore(root, shards=2))
    )
    warm = _standalone_analyzer(make_store()).analyze(prog.image)
    assert warm.success
    # The filter removed the dead handler's syscall from the policy.
    assert sorted(warm.syscalls) == [39, 60]

    handler = prog.image.symbol_addr("handler")
    for kind in TABLE_KINDS:
        payload = _payload_for(root, kind, handler)
        assert payload["start"] == handler
        assert payload["arg_signature"] == ["rdx", "rsi"]

    # Replaying the warm cache must validate those signatures (a replay
    # re-analyzes nothing and reproduces the report byte for byte).
    _prune_derived(make_store())
    replay = _standalone_analyzer(make_store()).analyze(prog.image)
    assert replay.functions_reanalyzed == 0
    assert _stable(replay) == _stable(warm)


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_mutating_argument_setup_invalidates_handler_products(
    layout, tmp_path
):
    prog = _sig_dispatch_program()
    root = str(tmp_path / "cache")
    make_store = (
        (lambda: ArtifactStore(root)) if layout == "flat"
        else (lambda: ShardedArtifactStore(root, shards=2))
    )
    assert _standalone_analyzer(make_store()).analyze(prog.image).success

    handler = _region_start(prog.image, "handler")
    mutated = mutate_regions(prog.elf_bytes, prog.name, [handler], seed=3)
    inc = _standalone_analyzer(make_store()).analyze(mutated.image)
    cold = _standalone_analyzer().analyze(mutated.image)
    assert _stable(inc) == _stable(cold)
    # The handler has no direct callers (it is reached only through the
    # data table), so its cone is itself: exactly one function
    # re-analyzes, and the dependent dispatch site re-resolves against
    # the fresh signature without losing the filter's effect.
    expected = _expected_reanalysis(mutated.image, mutated.changed)
    assert handler in expected
    assert inc.functions_reanalyzed == len(expected)
    assert 41 not in inc.syscalls


def test_unrelated_mutation_replays_handler_products(tmp_path):
    prog = _sig_dispatch_program()
    root = str(tmp_path / "cache")
    assert _standalone_analyzer(ArtifactStore(root)).analyze(
        prog.image
    ).success

    handler = _region_start(prog.image, "handler")
    plain = _region_start(prog.image, "plain")
    mutated = mutate_regions(prog.elf_bytes, prog.name, [plain], seed=3)
    inc = _standalone_analyzer(ArtifactStore(root)).analyze(mutated.image)
    cold = _standalone_analyzer().analyze(mutated.image)
    assert _stable(inc) == _stable(cold)
    # The handler is outside the change's dependency cone: its funccfg
    # and funcid products — signatures included — replay from cache.
    expected = _expected_reanalysis(mutated.image, mutated.changed)
    assert handler not in expected
    assert inc.functions_reanalyzed == len(expected)


def test_ablation_config_does_not_share_cache_entries(tmp_path):
    """``indirect_signatures`` is part of the cache fingerprint: an
    ablated run against a warm filtered cache must miss everything and
    produce the unfiltered (superset) policy."""
    prog = _sig_dispatch_program()
    root = str(tmp_path / "cache")
    warm = _standalone_analyzer(ArtifactStore(root)).analyze(prog.image)
    assert warm.success

    ablated = BSideAnalyzer(
        budget=AnalysisBudget(),
        artifact_store=ArtifactStore(root),
        incremental=True,
        indirect_signatures=False,
    ).analyze(prog.image)
    assert ablated.functions_reanalyzed == warm.functions_reanalyzed
    assert 41 in ablated.syscalls
    assert set(warm.syscalls) < set(ablated.syscalls)

    # Product tables are keyed by image name, so the ablated run
    # recycled them under its own fingerprint: a filtered replay must
    # *miss* on every region (fingerprint mismatch) rather than reuse an
    # ablated product, and still reproduce the warm report exactly.
    _prune_derived(ArtifactStore(root))
    replay = _standalone_analyzer(ArtifactStore(root)).analyze(prog.image)
    assert replay.functions_reanalyzed == replay.functions_total
    assert _stable(replay) == _stable(warm)
