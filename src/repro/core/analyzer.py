"""B-Side: the end-to-end analyzer (Figure 3).

``BSideAnalyzer`` drives the :mod:`repro.core.pipeline` pass pipeline:

* **Step 1 — disassembly & CFG recovery**: the ``cfg-recovery`` and
  ``reachability`` passes (budgeted: exceeding the CFG budget is the
  reproduction's "timeout during CFG construction", the paper's dominant
  failure mode).
* **Step 2 — syscall identification**: ``site-discovery``,
  ``wrapper-detection`` (the two-phase heuristic), ``identification``
  (per-site backward identification with directed forward symbolic
  execution) and ``external-calls``.
* **Step 3 — shared objects**: per-library shared interfaces computed once
  and cached in an :class:`~repro.core.interface.InterfaceStore`;
  dependency DAGs are processed leaves-first; imported wrappers are
  resolved per call site in the importing binary.

Ablations are pipeline configuration (:class:`PipelineConfig`), not
if-branches, and with an :class:`~repro.core.artifacts.ArtifactStore`
bound the analyzer both reuses per-pass artifacts (confirmed wrapper
tables) and serves entire :class:`AnalysisReport`s from cache — keyed by
binary content hash, pipeline-config fingerprint, and dependency hashes
— so a warm run performs zero re-analysis.

The analyzer never executes the target.  Its product is an
:class:`~repro.core.report.AnalysisReport` whose ``syscalls`` set is a
superset of the binary's runtime behaviour (validated in the test suite
and §5.1's experiment).
"""

from __future__ import annotations

import time
import tracemalloc

from ..errors import BudgetExceeded, CfgError, DecodeError, ElfError, LoaderError
from ..loader.image import LoadedImage
from ..loader.resolve import LibraryResolver
from .artifacts import ArtifactStore
from .interface import ExportInfo, InterfaceStore, SharedInterface
from .pipeline import (
    AnalysisContext,
    PassPipeline,
    PhaseDetectionPass,
    PipelineConfig,
    build_pipeline,
)
from .report import AnalysisBudget, AnalysisReport, StageStats

TOOL_NAME = "b-side"


class BSideAnalyzer:
    """Binary-level static system call identification."""

    def __init__(
        self,
        resolver: LibraryResolver | None = None,
        budget: AnalysisBudget | None = None,
        interface_store: InterfaceStore | None = None,
        *,
        detect_wrappers: bool = True,
        directed_search: bool = True,
        use_active_addresses_taken: bool = True,
        indirect_signatures: bool = True,
        incremental: bool = False,
        pipeline_config: PipelineConfig | None = None,
        artifact_store: ArtifactStore | None = None,
    ):
        self.resolver = resolver if resolver is not None else LibraryResolver()
        self.budget = budget if budget is not None else AnalysisBudget()
        # NB: InterfaceStore defines __len__, so an empty store is falsy —
        # an `or` default would silently discard a caller-provided store.
        self.interfaces = (
            interface_store if interface_store is not None else InterfaceStore()
        )
        #: ablation switches (§4.3/§4.4 design choices) as pipeline config
        self.config = (
            pipeline_config
            if pipeline_config is not None
            else PipelineConfig(
                detect_wrappers=detect_wrappers,
                directed_search=directed_search,
                use_active_addresses_taken=use_active_addresses_taken,
                indirect_signatures=indirect_signatures,
                incremental=incremental,
            )
        )
        self.pipeline = build_pipeline(self.config)
        self.artifacts = artifact_store
        #: content-address of (pipeline config, budget): keys artifacts
        self.fingerprint = self.config.fingerprint(self.budget)
        self.interfaces.bind_fingerprint(self.fingerprint)

    # -- ablation flags kept readable for reporting / worker shipping ----

    @property
    def detect_wrappers(self) -> bool:
        return self.config.detect_wrappers

    @property
    def directed_search(self) -> bool:
        return self.config.directed_search

    @property
    def use_active_addresses_taken(self) -> bool:
        return self.config.use_active_addresses_taken

    @property
    def indirect_signatures(self) -> bool:
        return self.config.indirect_signatures

    @property
    def incremental(self) -> bool:
        return self.config.incremental

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def analyze(
        self,
        image: LoadedImage,
        modules: list[LoadedImage] | None = None,
        measure_memory: bool = False,
    ) -> AnalysisReport:
        """Analyze an executable (static or dynamic).

        ``modules`` lists shared objects the program loads at runtime via
        dlopen-style mechanisms (§4.5: the user supplies them).

        With an artifact store bound, a cached report whose content hash,
        pipeline fingerprint, and dependency hashes all match is served
        without any analysis.
        """
        modules = list(modules or [])
        cached = self.load_cached_report(image, modules)
        if cached is not None:
            return cached
        report, __ = self._timed_analysis(image, modules, measure_memory)
        self.store_report(image, modules, report)
        return report

    def analyze_phases(
        self,
        image: LoadedImage,
        modules: list[LoadedImage] | None = None,
        similarity: float = 0.5,
        back_propagate: bool = True,
    ):
        """Analyze and detect execution phases (§4.7, step N).

        Returns ``(report, PhaseAutomaton | None)`` — the automaton is None
        when the analysis failed.  The report cache is bypassed: phase
        detection needs the in-memory analysis context.
        """
        report, ctx = self._timed_analysis(image, modules or [], False)
        if not report.success or ctx is None:
            return report, None
        PassPipeline([
            PhaseDetectionPass(similarity=similarity, back_propagate=back_propagate)
        ]).run(ctx)
        return report, ctx.automaton

    def _timed_analysis(
        self,
        image: LoadedImage,
        modules: list[LoadedImage],
        measure_memory: bool,
    ) -> tuple[AnalysisReport, AnalysisContext | None]:
        started = time.perf_counter()
        ctx: AnalysisContext | None = None
        if measure_memory:
            tracemalloc.start()
        try:
            report, ctx = self._analyze_executable(image, modules)
        except BudgetExceeded as exceeded:
            report = AnalysisReport.failed(
                TOOL_NAME, image.name, exceeded.stage, str(exceeded),
            )
        except (CfgError, DecodeError, ElfError, LoaderError) as error:
            report = AnalysisReport.failed(
                TOOL_NAME, image.name, "load", str(error),
            )
        report.stages.setdefault("total", StageStats())
        report.stages["total"].seconds = time.perf_counter() - started
        if measure_memory:
            __, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            report.peak_memory = peak
        return report, ctx

    def analyze_library(self, image: LoadedImage) -> SharedInterface:
        """Analyze one shared library (cached; §4.5 phase 1)."""
        self._bind_library(image)
        cached = self.interfaces.get(image.name)
        if cached is not None:
            return cached
        if image.needed:
            self._ensure_dependency_interfaces(image)
        interface = self._build_interface(image)
        self.interfaces.put(interface)
        return interface

    # ------------------------------------------------------------------
    # Report artifacts (content-addressed whole-binary cache)
    # ------------------------------------------------------------------

    def dependency_hashes(
        self, image: LoadedImage, modules: list[LoadedImage] | None = None,
    ) -> list[str] | None:
        """Content hashes of the dependency closure (+ dlopen modules).

        The sorted list is part of every report-artifact key: an upgraded
        library invalidates cached reports of its dependents.  ``None``
        when the closure cannot be resolved — such analyses depend on the
        local resolver environment and are not cacheable.
        """
        hashes: set[str] = set()
        try:
            if image.needed:
                for dep in self.resolver.topological_order(image):
                    hashes.add(dep.content_hash)
            for module in modules or []:
                hashes.add(module.content_hash)
                if module.needed:
                    for dep in self.resolver.topological_order(module):
                        hashes.add(dep.content_hash)
        except LoaderError:
            return None
        return sorted(hashes)

    def load_cached_report(
        self,
        image: LoadedImage,
        modules: list[LoadedImage] | None = None,
        store: ArtifactStore | None = None,
    ) -> AnalysisReport | None:
        """Serve a binary's full report from the artifact store, if valid.

        ``store`` overrides the analyzer's own store (the fleet engine
        owns report-cache traffic and passes its store explicitly).
        """
        store = store if store is not None else self.artifacts
        if store is None:
            return None
        deps = self.dependency_hashes(image, modules)
        if deps is None:
            return None
        # Content-first lookup (name fast path, then content-hash alias):
        # a renamed copy of an already-analyzed binary still hits, and a
        # mismatched same-name entry is left for its own client.
        payload = store.lookup(
            "report", image.name,
            content_hash=image.content_hash,
            fingerprint=self.fingerprint,
            dep_hashes=deps,
        )
        if payload is None:
            return None
        report = AnalysisReport.from_doc(payload)
        report.binary = image.name
        return report

    def store_report(
        self,
        image: LoadedImage,
        modules: list[LoadedImage] | None,
        report: AnalysisReport,
        store: ArtifactStore | None = None,
    ) -> None:
        """Persist a finished report keyed by content + config + deps.

        Load failures are not cached: they describe the resolver
        environment (a missing library), not the binary.
        """
        store = store if store is not None else self.artifacts
        if store is None:
            return
        if not report.success and report.failure_stage == "load":
            return
        deps = self.dependency_hashes(image, modules)
        if deps is None:
            return
        store.put(
            "report", image.name, report.to_doc(),
            content_hash=image.content_hash,
            fingerprint=self.fingerprint,
            dep_hashes=deps,
        )

    # ------------------------------------------------------------------
    # Executable pipeline
    # ------------------------------------------------------------------

    def _bind_library(self, image: LoadedImage) -> None:
        """Announce a library image (and its dependency hashes) to the
        interface store so cached entries can be validated against both:
        a library's interface folds its dependencies' exports in, so an
        upgraded dependency must invalidate the dependent's entry too."""
        self.interfaces.bind_image(image)
        deps = self.dependency_hashes(image)
        if deps is not None:
            self.interfaces.bind_dependencies(image.name, deps)

    def _ensure_dependency_interfaces(self, image: LoadedImage) -> bool:
        """Walk the dependency DAG leaves-first, building any missing
        interface; returns whether every interface is complete."""
        complete = True
        for dep in self.resolver.topological_order(image):
            self._bind_library(dep)
            if dep.name not in self.interfaces:
                self.interfaces.put(self._build_interface(dep))
            complete &= self.interfaces.get(dep.name).complete
        return complete

    def _analyze_executable(
        self, image: LoadedImage, modules: list[LoadedImage]
    ) -> tuple[AnalysisReport, AnalysisContext]:
        report = AnalysisReport(tool=TOOL_NAME, binary=image.name, success=True)

        # Step 3 preparation: dependencies first (cached across programs).
        t0 = time.perf_counter()
        symbol_table: dict[str, ExportInfo] = {}
        interfaces_complete = True
        if image.needed:
            interfaces_complete = self._ensure_dependency_interfaces(image)
            symbol_table = self.interfaces.symbol_table(image.needed)
        report.stages["interfaces"] = StageStats(
            seconds=time.perf_counter() - t0, units=len(symbol_table),
        )

        roots = [image.entry] if image.entry else [
            sym.value for sym in image.exported_functions.values()
        ]
        ctx = AnalysisContext(
            image=image,
            roots=roots,
            budget=self.budget,
            config=self.config,
            symbol_table=symbol_table,
            report=report,
            artifacts=self.artifacts,
            fingerprint=self.fingerprint,
        )
        self.pipeline.run(ctx)

        identified = ctx.identified_syscalls()

        # dlopen-style modules: analysed like shared libraries, with every
        # export considered potentially invoked (§4.5).
        for module in modules:
            module_interface = self.analyze_library(module)
            identified |= module_interface.all_syscalls()
            interfaces_complete &= module_interface.complete

        report.syscalls = identified
        report.complete = ctx.complete and interfaces_complete
        report.bbs_explored = ctx.bbs_explored
        report.symex_steps = ctx.symex_steps
        report.sites_examined = ctx.sites_examined
        state = ctx.incremental
        if state is not None:
            report.functions_total = len(state.scan.partition)
            report.functions_reanalyzed = state.reanalyzed
            report.sites_total = state.anchors
            report.sites_reexecuted = state.anchors - state.replayed
        return report, ctx

    # ------------------------------------------------------------------
    # Library pipeline (interface construction)
    # ------------------------------------------------------------------

    def _build_interface(self, image: LoadedImage) -> SharedInterface:
        dep_symbols: dict[str, ExportInfo] = {}
        if image.needed:
            dep_symbols = self.interfaces.symbol_table(image.needed)

        exports = image.exported_functions
        roots = sorted(sym.value for sym in exports.values())
        ctx = AnalysisContext(
            image=image,
            roots=roots,
            budget=self.budget,
            config=self.config,
            symbol_table=dep_symbols,
        )
        self.pipeline.run(ctx)

        interface = SharedInterface(
            library=image.name,
            needed=list(image.needed),
            complete=ctx.complete,
            addresses_taken=sorted(ctx.cfg.addresses_taken),
        )
        wrapper_names: list[str] = []
        for entry, info in ctx.wrappers.items():
            if info is not None:
                func = ctx.cfg.functions.get(entry)
                wrapper_names.append(func.name if func and func.name else hex(entry))
        interface.wrapper_functions = sorted(wrapper_names)

        # Per-export reachability answers come from one SCC condensation
        # pass over the dense CFG index (closure of per-block syscalls /
        # external calls under flow reachability), instead of one BFS +
        # set union per exported function.
        index = ctx.cfg.index
        idx_of = index.idx_of
        syscall_closure, external_closure = index.closure_unions(
            (ctx.block_syscalls, ctx.cfg.external_calls),
        )
        for name, sym in exports.items():
            root = idx_of.get(sym.value)
            if root is not None:
                syscalls = set(syscall_closure[root])
                cross = sorted(external_closure[root])
            else:
                syscalls = set()
                cross = []
            wrapper_info = ctx.wrappers.get(sym.value)
            interface.exports[name] = ExportInfo(
                name=name,
                addr=sym.value,
                syscalls=syscalls,
                complete=ctx.complete,
                wrapper_param=(wrapper_info.param if wrapper_info else None),
                cross_calls=cross,
            )
        return interface
