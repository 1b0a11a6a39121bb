"""The pass pipeline: B-Side's Figure-3 stages as composable passes.

PR 1 left the analyzer as one monolithic method with boolean ablation
flags.  This module factors it into the shape Ghidra's action pipeline
and iResolveX's layered refinement use: a sequence of named, individually
instrumented **passes** over a shared mutable :class:`AnalysisContext`.

* Each :class:`Pass` reads and extends the context (CFG, reachable set,
  sites, wrappers, per-block syscalls, work counters).
* :class:`PassPipeline` runs them in order, timing each uniformly into
  ``report.stages[pass.name]`` and normalising budget violations to the
  offending pass's name.
* Ablations are **pipeline configuration**, not if-branches:
  ``detect_wrappers=False`` simply builds a pipeline without the
  ``wrapper-detection`` pass; ``use_active_addresses_taken=False`` runs
  ``cfg-recovery`` in SysFilter's all-addresses-taken mode.
* :class:`PipelineConfig` is hashable into a **fingerprint** (flags +
  pass list + budgets + cache version) that keys every entry of the
  :class:`~repro.core.artifacts.ArtifactStore` — changing any knob
  invalidates cached artifacts instead of serving stale results.

The baselines reuse the same machinery with their own pass
implementations (whole-image site vacuums, register-only scans); see
``repro.baselines.common``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field

from ..cfg.builder import (
    add_direct_edges,
    assign_functions,
    build_cfg,
    carve_blocks,
)
from ..cfg.funccfg import build_product, scan_image, validate_product
from ..cfg.indirect import resolve_indirect_active, resolve_indirect_all
from ..cfg.model import CFG, EDGE_ICALL
from ..cfg.reachability import reachable_blocks
from ..errors import BudgetExceeded, CfgError
from ..loader.image import LoadedImage
from ..x86.decoder import decode_all
from ..symex.engine import ExecContext
from ..symex.state import MemoryBackend
from .artifacts import CACHE_VERSION, ArtifactStore, fingerprint_doc
from .funcid import IncrementalState
from .identify import (
    SiteIdentification,
    identify_plain_site,
    identify_wrapper_call_site,
    wrapper_call_blocks,
)
from .interface import ExportInfo
from .report import AnalysisBudget, AnalysisReport, StageStats
from .sites import SyscallSite, find_sites
from .wrappers import (
    WrapperInfo,
    detect_wrapper,
    wrapper_from_record,
    wrapper_record,
)

#: The B-Side executable/library pipeline, in order (Figure 3's steps).
DEFAULT_PASSES: tuple[str, ...] = (
    "cfg-recovery",
    "reachability",
    "site-discovery",
    "wrapper-detection",
    "identification",
    "external-calls",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative pipeline shape: which passes run, and how.

    The §4.3/§4.4 ablation switches live here (not as analyzer
    if-branches); baselines and experiments express themselves as
    alternate configs over the same pass vocabulary.
    """

    detect_wrappers: bool = True
    directed_search: bool = True
    use_active_addresses_taken: bool = True
    #: refine active-addresses-taken resolution to signature-compatible
    #: targets (:mod:`repro.cfg.signatures`); no effect in ``all`` mode,
    #: which stays the deliberately unfiltered SysFilter ablation
    indirect_signatures: bool = True
    passes: tuple[str, ...] = DEFAULT_PASSES
    #: replay and re-store per-function products (``funccfg``/``funcid``)
    #: when an artifact store is bound; the passes are the same either
    #: way (see :class:`CfgRecoveryPass`).  Deliberately **excluded**
    #: from the fingerprint: incremental and cold runs produce
    #: byte-identical artifacts (the differential harness pins this), so
    #: they must share cache keys — a cold run warms the report cache an
    #: incremental run serves, and vice versa.
    incremental: bool = False

    def pass_names(self) -> tuple[str, ...]:
        """The passes this config actually runs (ablations applied)."""
        names = list(self.passes)
        if not self.detect_wrappers and "wrapper-detection" in names:
            names.remove("wrapper-detection")
        return tuple(names)

    def fingerprint(self, budget: AnalysisBudget | None = None) -> str:
        """Content-address of this configuration (plus budgets).

        Two analyzers share a fingerprint iff they would produce
        identical artifacts for identical inputs, so the fingerprint
        keys every :class:`~repro.core.artifacts.ArtifactStore` entry.

        Memoized: every analyzer construction (one per cold analysis,
        per service batch, per fleet worker) and artifact lookup path
        re-derives the same digest, and config/budget pairs are few and
        immutable in practice.
        """
        budget_key = None if budget is None else dataclasses.astuple(budget)
        key = (self, budget_key)
        cached = _FINGERPRINT_MEMO.get(key)
        if cached is not None:
            return cached
        doc = {
            "cache_version": CACHE_VERSION,
            "detect_wrappers": self.detect_wrappers,
            "directed_search": self.directed_search,
            "use_active_addresses_taken": self.use_active_addresses_taken,
            "indirect_signatures": self.indirect_signatures,
            "passes": list(self.pass_names()),
            "budget": dataclasses.asdict(budget) if budget else None,
        }
        digest = fingerprint_doc(doc)
        _FINGERPRINT_MEMO[key] = digest
        return digest


#: (PipelineConfig, budget-as-tuple) -> digest; see
#: :meth:`PipelineConfig.fingerprint`
_FINGERPRINT_MEMO: dict[tuple, str] = {}


@dataclass
class AnalysisContext:
    """Mutable state shared by every pass of one image analysis."""

    image: LoadedImage
    roots: list[int]
    budget: AnalysisBudget
    config: PipelineConfig
    #: imported-symbol resolution table (from dependency interfaces)
    symbol_table: dict[str, ExportInfo] = field(default_factory=dict)
    #: stage stats sink; None for library analyses (no report)
    report: AnalysisReport | None = None
    #: artifact store for per-pass artifact reuse (wrapper tables, CFG
    #: summaries); None disables persistence
    artifacts: ArtifactStore | None = None
    #: pipeline-config fingerprint used to key artifacts
    fingerprint: str = ""

    # ---- products, filled in by passes --------------------------------
    cfg: CFG | None = None
    exec_ctx: ExecContext | None = None
    backend: MemoryBackend | None = None
    reachable: set[int] = field(default_factory=set)
    sites: list[SyscallSite] = field(default_factory=list)
    #: func entry -> info (None = confirmed not a wrapper)
    wrappers: dict[int, WrapperInfo | None] = field(default_factory=dict)
    #: per-block identified syscall numbers
    block_syscalls: dict[int, set[int]] = field(default_factory=dict)
    complete: bool = True
    bbs_explored: int = 0
    symex_steps: int = 0
    sites_examined: int = 0
    #: wrapper confirmations actually performed (0 on artifact reuse)
    wrapper_confirmations: int = 0
    external_sites: int = 0
    #: incremental-tier state (image scan, ``funccfg``/``funcid`` tables
    #: and their counters), created by ``cfg-recovery`` on incremental
    #: runs with a store bound; None on cold runs and library interface
    #: builds, so cold reports carry no incremental counters
    incremental: IncrementalState | None = None
    #: phase automaton (set by the optional phase-detection pass)
    automaton: object | None = None
    #: scratch space for non-default passes (baselines)
    extras: dict = field(default_factory=dict)

    def record(self, block_addr: int, ident: SiteIdentification) -> None:
        """Fold one site identification into the context."""
        self.block_syscalls.setdefault(block_addr, set()).update(ident.values)
        self.complete = self.complete and ident.complete
        self.bbs_explored += ident.nodes_explored
        self.symex_steps += ident.steps_used
        self.sites_examined += 1

    def identified_syscalls(self) -> set[int]:
        """Syscalls identified in reachable blocks."""
        out: set[int] = set()
        for block_addr, values in self.block_syscalls.items():
            if block_addr in self.reachable:
                out |= values
        return out


class Pass:
    """One named transformation over an :class:`AnalysisContext`."""

    name: str = ""

    def run(self, ctx: AnalysisContext) -> None:
        raise NotImplementedError

    def units(self, ctx: AnalysisContext) -> int:
        """Work-unit count recorded in this pass's :class:`StageStats`."""
        return 0


#: Process-global pipeline-execution counter.  The service suite reads
#: it to prove that warm (cache-served) requests run **zero** analysis
#: passes — a cached report must never
#: reach this code.  Fleet worker processes measure their own deltas and
#: the parent folds them back in via :func:`add_runs`, so the counter
#: stays accurate across process fan-out.
_RUNS_LOCK = threading.Lock()
_RUNS = 0


def pipeline_runs() -> int:
    """Pipeline executions observed by this process (fan-out included)."""
    return _RUNS


def add_runs(n: int) -> None:
    """Fold pipeline executions observed elsewhere (worker processes)."""
    global _RUNS
    with _RUNS_LOCK:
        _RUNS += n


class PassPipeline:
    """Ordered pass runner with uniform timing and budget accounting."""

    def __init__(self, passes: list[Pass]):
        self.passes = list(passes)

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, ctx: AnalysisContext) -> AnalysisContext:
        global _RUNS
        with _RUNS_LOCK:
            _RUNS += 1
        for step in self.passes:
            t0 = time.perf_counter()
            try:
                step.run(ctx)
            except BudgetExceeded as exceeded:
                if not exceeded.stage:
                    raise BudgetExceeded(step.name, exceeded.budget) from None
                raise
            if ctx.report is not None:
                ctx.report.stages[step.name] = StageStats(
                    seconds=time.perf_counter() - t0, units=step.units(ctx),
                )
        return ctx


# ----------------------------------------------------------------------
# The B-Side passes
# ----------------------------------------------------------------------


class CfgRecoveryPass(Pass):
    """Step 1: exact decode, basic blocks, indirect-branch resolution.

    ``indirect`` selects the resolution strategy; ``None`` derives it
    from the config (the ``use_active_addresses_taken`` ablation).
    Baselines reuse this pass with ``indirect="all"``/``"none"`` and
    ``make_exec=False`` (they never execute symbolically).

    An incremental config with an artifact store bound (``bside analyze
    --incremental``) assembles the direct CFG function by function
    instead of through :func:`~repro.cfg.builder.build_cfg`, and leaves
    the :class:`~repro.core.funcid.IncrementalState` the later passes
    replay through on :attr:`AnalysisContext.incremental`.  The decode
    sweep still runs whole-image (it is exact and cheap relative to the
    downstream passes, and sharing it with the cold path removes a whole
    class of boundary divergences).  Per function region
    (:class:`~repro.cfg.partition.FunctionPartition`) the pass either
    replays a cached ``funccfg`` product — keyed by the region's Merkle
    closure hash, so a hit certifies the region *and its callee closure*
    unchanged — or re-carves the region cold.  Cached block starts and
    freshly computed leaders are unioned into one global leader set and
    the whole CFG is rebuilt through the exact cold-path helpers
    (:func:`~repro.cfg.builder.carve_blocks` /
    :func:`~repro.cfg.builder.assign_functions` /
    :func:`~repro.cfg.builder.add_direct_edges`); cross-function
    fixpoints (indirect resolution, and every later pass) always re-run
    on the stitched CFG.  That construction is why incremental reports
    are byte-identical to cold ones.  Only *aligned* regions (first
    decoded instruction exactly at the region start) are cached;
    misaligned regions re-carve every run and count as re-analyzed.
    """

    name = "cfg-recovery"

    def __init__(self, indirect: str | None = None, make_exec: bool = True):
        self.indirect = indirect
        self.make_exec = make_exec

    def run(self, ctx: AnalysisContext) -> None:
        if ctx.config.incremental and ctx.artifacts is not None:
            cfg = self._assemble(ctx)
        else:
            cfg = build_cfg(ctx.image)
        mode = self.indirect
        if mode is None:
            mode = "active" if ctx.config.use_active_addresses_taken else "all"
        if mode == "active":
            # CFG budget: a dense indirect-call web exceeds it (the
            # paper's dominant timeout class).
            __, iterations = resolve_indirect_active(
                cfg, ctx.image, ctx.roots,
                max_iterations=ctx.budget.max_cfg_iterations,
                signatures=ctx.config.indirect_signatures,
            )
        elif mode == "all":
            # SysFilter-style resolution to *all* addresses taken.
            resolve_indirect_all(cfg, ctx.image)
            iterations = 1
        elif mode == "none":
            iterations = 0
        else:
            raise ValueError(f"unknown indirect mode {mode!r}")
        icall_edges = sum(
            1
            for block in cfg.indirect_sites
            for e in cfg.successors(block, kinds=(EDGE_ICALL,))
        )
        if icall_edges > ctx.budget.max_icall_edges:
            raise BudgetExceeded(self.name, ctx.budget.max_icall_edges)
        if iterations >= ctx.budget.max_cfg_iterations:
            raise BudgetExceeded(self.name, ctx.budget.max_cfg_iterations)
        ctx.cfg = cfg
        if self.make_exec:
            ctx.exec_ctx = ExecContext.for_image(cfg, ctx.image)
            ctx.backend = MemoryBackend([ctx.image])
        if ctx.artifacts is not None:
            ctx.artifacts.put(
                "cfg", ctx.image.name, cfg.summary(),
                content_hash=ctx.image.content_hash,
                fingerprint=ctx.fingerprint,
            )

    def _assemble(self, ctx: AnalysisContext) -> CFG:
        """The direct CFG stitched from cached and re-carved regions."""
        image = ctx.image
        insns = decode_all(image.text_bytes, image.text_base)
        if not insns:
            raise CfgError(f"{image.name}: empty text segment")
        by_addr = {i.addr: i for i in insns}
        scan = scan_image(image, insns, by_addr)
        state = ctx.incremental = IncrementalState(
            scan, ctx.artifacts, image.name, ctx.fingerprint,
        )
        leaders: set[int] = set()
        misses: list[int] = []
        for region in scan.partition:
            start = region.start
            rs = scan.regions[start]
            extra = scan.extra_leaders.get(start, set())
            block_starts = None
            if rs.aligned:
                payload = state.funccfg.product(
                    start, scan.closure_hashes[start],
                )
                if payload is not None:
                    block_starts = validate_product(
                        payload, rs, extra, by_addr,
                        scan.entry_sigs.get(start),
                    )
            if block_starts is not None:
                leaders.update(block_starts)
                continue
            misses.append(start)
            leaders.add(start)
            if image.entry and start <= image.entry < region.end:
                leaders.add(image.entry)
            leaders.update(rs.own_leaders)
            leaders.update(extra)

        cfg = CFG()
        carve_blocks(cfg, insns, leaders)
        assign_functions(cfg, image)
        add_direct_edges(cfg, image)

        # Store fresh products for the re-carved (cacheable) regions now
        # that the stitched block set exists.
        block_addrs = sorted(cfg.blocks)
        for start in misses:
            rs = scan.regions[start]
            if rs.aligned:
                state.funccfg.set(
                    start, scan.closure_hashes[start],
                    build_product(
                        block_addrs, rs,
                        scan.extra_leaders.get(start, set()),
                        scan.entry_sigs.get(start),
                    ),
                )
        state.funccfg.flush(scan.cacheable_starts())
        state.reanalyzed = len(misses)
        return cfg

    def units(self, ctx: AnalysisContext) -> int:
        return ctx.cfg.n_edges


class ReachabilityPass(Pass):
    """Blocks reachable from the analysis roots (entry point / exports)."""

    name = "reachability"

    def run(self, ctx: AnalysisContext) -> None:
        ctx.reachable = reachable_blocks(ctx.cfg, ctx.roots)

    def units(self, ctx: AnalysisContext) -> int:
        return len(ctx.reachable)


class SiteDiscoveryPass(Pass):
    """Reachable ``syscall`` instruction sites.

    Discovery always runs live — it is a cheap index scan, and the site
    set depends on *global* reachability, which no per-function key can
    certify.  On incremental runs the live sites then probe the
    ``funcid`` table and double as its validation oracle: a region's
    record only hits when its recorded site list matches the fresh one.
    """

    name = "site-discovery"

    def run(self, ctx: AnalysisContext) -> None:
        ctx.sites = find_sites(ctx.cfg, ctx.reachable)
        if ctx.incremental is not None:
            ctx.incremental.probe(ctx.sites)

    def units(self, ctx: AnalysisContext) -> int:
        return len(ctx.sites)


class WrapperDetectionPass(Pass):
    """Step G: the two-phase wrapper heuristic, per containing function.

    With an artifact store bound, a previously confirmed wrapper table
    (same binary content, same pipeline fingerprint) is replayed instead
    of re-running symbolic confirmation.  On a rebuilt binary that table
    misses; an incremental run then replays classifications per function
    from ``funcid`` records, and only functions inside the identification
    cone (or without a valid record) re-run the two-phase heuristic.
    Only those count against ``max_wrapper_confirmations`` — as a
    whole-table replay performs zero confirmations.  Iteration stays in
    site order, so ``ctx.wrappers`` insertion order — and the stored
    table — is the same on every path.
    """

    name = "wrapper-detection"

    def run(self, ctx: AnalysisContext) -> None:
        if self._load_cached(ctx):
            return
        state = ctx.incremental
        confirmations = 0
        for site in ctx.sites:
            if site.func_entry in ctx.wrappers:
                continue
            if state is not None and state.replay_wrapper(site, ctx.wrappers):
                continue
            confirmations += 1
            if confirmations > ctx.budget.max_wrapper_confirmations:
                raise BudgetExceeded(
                    self.name, ctx.budget.max_wrapper_confirmations,
                )
            ctx.wrappers[site.func_entry] = detect_wrapper(
                ctx.cfg, ctx.exec_ctx, site, ctx.backend,
                max_steps=ctx.budget.wrapper_steps,
            )
        ctx.wrapper_confirmations = confirmations
        self._store(ctx)

    def units(self, ctx: AnalysisContext) -> int:
        return ctx.wrapper_confirmations

    # ---- wrapper-table artifact ---------------------------------------

    def _load_cached(self, ctx: AnalysisContext) -> bool:
        if ctx.artifacts is None:
            return False
        payload = ctx.artifacts.get(
            "wrappers", ctx.image.name,
            content_hash=ctx.image.content_hash,
            fingerprint=ctx.fingerprint,
        )
        if not isinstance(payload, list):
            return False
        try:
            for entry in payload:
                func_entry, info = wrapper_from_record(entry)
                ctx.wrappers[func_entry] = info
        except (KeyError, TypeError, ValueError):
            ctx.artifacts.invalidate("wrappers", ctx.image.name)
            ctx.wrappers.clear()
            return False
        return True

    def _store(self, ctx: AnalysisContext) -> None:
        if ctx.artifacts is None:
            return
        table = [
            wrapper_record(func_entry, info)
            for func_entry, info in ctx.wrappers.items()
        ]
        ctx.artifacts.put(
            "wrappers", ctx.image.name, table,
            content_hash=ctx.image.content_hash,
            fingerprint=ctx.fingerprint,
        )


class IdentificationPass(Pass):
    """Step H: per-site backward identification, plain and wrapper-call.

    On incremental runs each anchor (plain sites, then wrapper call
    sites) whose region holds a valid ``funcid`` record folds the
    recorded values and budget spend instead of re-executing; both paths
    meet in the same :meth:`AnalysisContext.record` fold, so the stable
    report fields cannot diverge from a cold run's.  At the end, changed
    regions are re-stored under their current key.
    """

    name = "identification"

    def run(self, ctx: AnalysisContext) -> None:
        directed = ctx.config.directed_search
        state = ctx.incremental
        if state is not None:
            state.note_wrappers(ctx.sites, ctx.wrappers)
        for site in ctx.sites:
            info = ctx.wrappers.get(site.func_entry)
            if info is not None:
                continue  # handled from its call sites below
            ident = None if state is None else state.replay_plain(site)
            if ident is None:
                ident = identify_plain_site(
                    ctx.cfg, ctx.exec_ctx, site, ctx.backend,
                    budget=ctx.budget.search, directed=directed,
                )
            if state is not None:
                state.note_plain(site, ident)
            ctx.record(site.block_addr, ident)

        for func_entry, info in ctx.wrappers.items():
            if info is None:
                continue
            if info.param is None:
                # Wrapper whose parameter could not be localised: the
                # sound over-approximation is "anything" — flagged via
                # completeness so filter generation allows everything.
                ctx.complete = False
                continue
            for call_block in wrapper_call_blocks(ctx.cfg, info):
                ident = None if state is None else state.replay_call(
                    ctx.cfg, call_block, info,
                )
                if ident is None:
                    ident = identify_wrapper_call_site(
                        ctx.cfg, ctx.exec_ctx, call_block, info.param,
                        ctx.backend, budget=ctx.budget.search,
                        directed=directed,
                    )
                if state is not None:
                    state.note_call(call_block, info, ident)
                ctx.record(call_block, ident)

        if state is not None:
            state.flush()

    def units(self, ctx: AnalysisContext) -> int:
        return ctx.bbs_explored


class ExternalCallsPass(Pass):
    """Step J/M: fold imported symbols through dependency interfaces."""

    name = "external-calls"

    def run(self, ctx: AnalysisContext) -> None:
        directed = ctx.config.directed_search
        processed = 0
        for block_addr, symbols in ctx.cfg.external_calls.items():
            if block_addr not in ctx.reachable:
                continue
            for symbol in symbols:
                processed += 1
                info = ctx.symbol_table.get(symbol)
                if info is None:
                    # Unknown import: cannot be resolved -> incomplete.
                    ctx.complete = False
                    continue
                if info.is_wrapper:
                    ident = identify_wrapper_call_site(
                        ctx.cfg, ctx.exec_ctx, block_addr, info.wrapper_param,
                        ctx.backend, budget=ctx.budget.search,
                        kind="external-wrapper-call", directed=directed,
                    )
                    ctx.record(block_addr, ident)
                else:
                    ctx.block_syscalls.setdefault(block_addr, set()).update(
                        info.syscalls
                    )
                    ctx.complete = ctx.complete and info.complete
        ctx.external_sites = processed

    def units(self, ctx: AnalysisContext) -> int:
        return ctx.external_sites


class PhaseDetectionPass(Pass):
    """Step N (§4.7): build the phase automaton over identified blocks."""

    name = "phase-detection"

    def __init__(self, similarity: float = 0.5, back_propagate: bool = True):
        self.similarity = similarity
        self.back_propagate = back_propagate

    def run(self, ctx: AnalysisContext) -> None:
        from ..phases.merge import detect_phases

        ctx.automaton = detect_phases(
            ctx.cfg,
            {
                addr: values
                for addr, values in ctx.block_syscalls.items()
                if values and addr in ctx.reachable
            },
            ctx.image.entry,
            reachable=ctx.reachable,
            similarity=self.similarity,
            back_propagate=self.back_propagate,
        )

    def units(self, ctx: AnalysisContext) -> int:
        return ctx.automaton.n_phases


#: Default factories for the named B-Side passes.
PASS_REGISTRY: dict[str, type[Pass]] = {
    "cfg-recovery": CfgRecoveryPass,
    "reachability": ReachabilityPass,
    "site-discovery": SiteDiscoveryPass,
    "wrapper-detection": WrapperDetectionPass,
    "identification": IdentificationPass,
    "external-calls": ExternalCallsPass,
    "phase-detection": PhaseDetectionPass,
}


def build_pipeline(config: PipelineConfig) -> PassPipeline:
    """Instantiate the pipeline a config describes (ablations applied)."""
    return PassPipeline([
        PASS_REGISTRY[name]() for name in config.pass_names()
    ])
