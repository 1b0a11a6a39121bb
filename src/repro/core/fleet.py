"""Fleet analysis: parallel batch identification over many binaries.

The deployment loop of the paper's §1 scenario at scale: a provider walks
a directory of tenant binaries, analyzes each against a shared library
pool, derives filters, and wants an inventory — per-binary outcomes,
fleet-wide statistics, and CVE exposure.

``FleetAnalyzer`` runs that loop as a three-phase schedule:

1. **Report phase** — with a ``cache_dir``, each binary's full
   :class:`AnalysisReport` is looked up in the content-addressed
   :class:`~repro.core.artifacts.ArtifactStore` (keyed by binary content
   hash + pipeline-config fingerprint + dependency hashes).  A hit skips
   that binary entirely: a fully-warm run performs **zero per-binary
   analysis**, not just zero library analysis.
2. **Interface phase** — the union of every *remaining* binary's
   shared-library dependency DAG is walked leaves-first (libc before its
   users) and each library's §4.5 interface is computed exactly once.
   With a ``cache_dir`` the interfaces land in a
   :class:`~repro.core.ifacecache.PersistentInterfaceStore` (kind
   ``iface`` of the same artifact store), so later runs load them from
   disk instead of re-analyzing.
3. **Binary phase** — per-binary analysis fans out over a
   ``ProcessPoolExecutor`` when ``workers > 1``; each worker rebuilds the
   resolver from raw library bytes and receives the phase-2 interfaces
   pre-computed, so no worker ever re-analyzes a library.  Analyzers
   bind no artifact store: the parent owns all report traffic.
   ``workers=1`` keeps the original in-process loop, and
   per-binary results are ordered by input position either way, so the
   deterministic portion of :meth:`FleetReport.to_json` is byte-identical
   across worker counts and cache states.

``FleetReport`` serialises to JSON for dashboards / diffing between
releases and merges stably across sharded runs via
:meth:`FleetReport.merge`.
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..errors import BudgetExceeded, CfgError, DecodeError, ElfError, LoaderError
from ..loader.image import LoadedImage
from ..loader.resolve import LibraryResolver
from ..syscalls.cves import CVE_DATABASE, protection_rate
from ..syscalls.table import name_of
from .analyzer import BSideAnalyzer
from .artifacts import ArtifactStore
from .ifacecache import PersistentInterfaceStore
from .interface import InterfaceStore
from .pipeline import add_runs, pipeline_runs
from .report import AnalysisBudget, AnalysisReport

logger = logging.getLogger(__name__)


@dataclass
class FleetEntry:
    """One binary's outcome inside a fleet run."""

    name: str
    report: AnalysisReport
    #: wall-clock seconds spent analyzing this binary
    seconds: float = 0.0
    #: persistent-cache hits/misses observed while analyzing this binary
    cache_hits: int = 0
    cache_misses: int = 0
    #: True when the whole report was served from the artifact store
    from_cache: bool = False

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc = {
            "binary": self.name,
            "success": self.report.success,
            "complete": self.report.complete,
            "failure_stage": self.report.failure_stage,
            "n_syscalls": len(self.report.syscalls),
            "syscalls": sorted(self.report.syscalls),
        }
        if include_runtime:
            doc["seconds"] = round(self.seconds, 6)
            doc["cache_hits"] = self.cache_hits
            doc["cache_misses"] = self.cache_misses
            doc["cached"] = self.from_cache
        return doc


@dataclass
class FleetReport:
    """Aggregated fleet outcome."""

    entries: list[FleetEntry] = field(default_factory=list)
    #: directory-sweep files that did not parse as ELF (deterministic)
    skipped: list[str] = field(default_factory=list)
    #: persistent interface-cache counters for the whole run (runtime)
    interface_stats: dict[str, int] = field(default_factory=dict)
    #: report-artifact counters for the whole run (runtime)
    artifact_stats: dict[str, int] = field(default_factory=dict)

    @property
    def successes(self) -> list[FleetEntry]:
        return [e for e in self.entries if e.report.success]

    @property
    def failures(self) -> list[FleetEntry]:
        return [e for e in self.entries if not e.report.success]

    def success_rate(self) -> float:
        if not self.entries:
            return 0.0
        return len(self.successes) / len(self.entries)

    def average_syscalls(self) -> float:
        sizes = [len(e.report.syscalls) for e in self.successes]
        return statistics.mean(sizes) if sizes else 0.0

    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.entries)

    def failure_stages(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.failures:
            stage = entry.report.failure_stage or "load"
            out[stage] = out.get(stage, 0) + 1
        return out

    def common_syscalls(self, threshold: float = 0.9) -> set[int]:
        """Syscalls identified in at least ``threshold`` of the fleet —
        candidates for a shared base policy."""
        if not self.successes:
            return set()
        counts: dict[int, int] = {}
        for entry in self.successes:
            for nr in entry.report.syscalls:
                counts[nr] = counts.get(nr, 0) + 1
        needed = threshold * len(self.successes)
        return {nr for nr, n in counts.items() if n >= needed}

    def cve_exposure(self) -> dict[str, float]:
        """Per-CVE protection rate across the fleet (Table 5's metric)."""
        identified = [e.report.syscalls for e in self.successes]
        return {
            cve.ident: protection_rate(cve, identified)
            for cve in CVE_DATABASE
        }

    def to_json(self, include_runtime: bool = True) -> str:
        """Serialise the inventory.

        ``include_runtime=False`` drops the run-dependent fields (wall
        times, cache counters) and yields a byte-stable document: the
        same fleet analyzed serially, with N workers, or sharded and
        merged produces the identical string.
        """
        exposure = self.cve_exposure()
        doc = {
            "fleet_size": len(self.entries),
            "success_rate": self.success_rate(),
            "average_syscalls": self.average_syscalls(),
            "failure_stages": self.failure_stages(),
            "skipped_files": sorted(self.skipped),
            "common_syscalls": sorted(
                name_of(nr) for nr in self.common_syscalls()
            ),
            "cve_exposure": {
                ident: round(rate, 4) for ident, rate in sorted(exposure.items())
            },
            "binaries": [
                entry.to_doc(include_runtime=include_runtime)
                for entry in self.entries
            ],
        }
        if include_runtime:
            doc["total_seconds"] = round(self.total_seconds(), 6)
            doc["interface_cache"] = dict(self.interface_stats)
            doc["report_cache"] = dict(self.artifact_stats)
        return json.dumps(doc, indent=2)

    @classmethod
    def merge(cls, reports: list["FleetReport"]) -> "FleetReport":
        """Merge sharded runs into one canonical report.

        Stable: entries are ordered by binary name, so the merged report
        is independent of how the fleet was partitioned into shards (as
        long as binary names are unique across shards).
        """
        merged = cls()
        for report in reports:
            merged.entries.extend(report.entries)
            merged.skipped.extend(report.skipped)
            for key, value in report.interface_stats.items():
                merged.interface_stats[key] = (
                    merged.interface_stats.get(key, 0) + value
                )
            for key, value in report.artifact_stats.items():
                merged.artifact_stats[key] = (
                    merged.artifact_stats.get(key, 0) + value
                )
        merged.entries.sort(key=lambda e: e.name)
        merged.skipped.sort()
        return merged


# ----------------------------------------------------------------------
# Worker-process plumbing (module level: must be picklable by name)
# ----------------------------------------------------------------------

_worker_state: dict = {}


def _init_worker(config: dict) -> None:
    """Build this worker's analyzer once; reused for every task.

    The parent already ran the interface phase, so the warmed
    interfaces arrive pre-computed in ``config`` and are seeded into
    this worker's in-memory store — workers never re-analyze (or even
    disk-load) a library.
    """
    resolver = LibraryResolver.from_spec(config["resolver"])
    store = InterfaceStore()
    for interface in config["interfaces"]:
        store.put(interface)
    _worker_state["analyzer"] = BSideAnalyzer(
        resolver=resolver,
        budget=config["budget"],
        interface_store=store,
        detect_wrappers=config["detect_wrappers"],
        directed_search=config["directed_search"],
        use_active_addresses_taken=config["use_active_addresses_taken"],
        indirect_signatures=config.get("indirect_signatures", True),
    )


def _worker_analyze(name: str, data: bytes) -> tuple:
    analyzer: BSideAnalyzer = _worker_state["analyzer"]
    store = analyzer.interfaces
    hits0 = getattr(store, "hits", 0)
    misses0 = getattr(store, "misses", 0)
    runs0 = pipeline_runs()
    started = time.perf_counter()
    outcome = analyzer.analyze(LoadedImage.from_bytes(name, data))
    return (
        outcome,
        time.perf_counter() - started,
        getattr(store, "hits", 0) - hits0,
        getattr(store, "misses", 0) - misses0,
        # this worker's pipeline executions, folded into the parent's
        # counter so pipeline_runs() stays truthful across fan-out
        pipeline_runs() - runs0,
    )


class FleetAnalyzer:
    """Parallel batch driver over a shared :class:`BSideAnalyzer`.

    Library interfaces are computed once and reused across the whole
    fleet (the §4.5 amortisation); with ``cache_dir`` they also survive
    across runs and are shared with worker processes.
    """

    def __init__(
        self,
        resolver: LibraryResolver | None = None,
        budget: AnalysisBudget | None = None,
        *,
        workers: int = 1,
        cache_dir: str | None = None,
        interface_store: InterfaceStore | None = None,
        artifact_store: ArtifactStore | None = None,
        indirect_signatures: bool = True,
        on_entry=None,
        analyzer=None,
    ):
        self.resolver = resolver if resolver is not None else LibraryResolver()
        self.budget = budget if budget is not None else AnalysisBudget()
        self.workers = max(1, int(workers))
        #: optional ``callable(index, FleetEntry)`` progress hook, invoked
        #: once per binary as its outcome lands (cached entries first,
        #: then analyzed ones); ``index`` is the binary's position in the
        #: input list, so callers map outcomes back to submissions even
        #: when names collide (the service executor finishes jobs from
        #: it, making cache-served jobs pollable while the batch is
        #: still running); hook exceptions are the caller's
        self.on_entry = on_entry
        self.artifacts = artifact_store
        if self.artifacts is None and cache_dir is not None:
            self.artifacts = ArtifactStore(cache_dir)
        if analyzer is not None:
            # Injected tool (a baseline analyzer, or a pre-configured
            # BSideAnalyzer): anything exposing ``analyze(image) ->
            # AnalysisReport``.  Capability-dependent phases degrade
            # gracefully: interface warm-up and report-artifact traffic
            # only run when the tool supports them, and process fan-out
            # requires a BSideAnalyzer (whose config workers can rebuild).
            self.analyzer = analyzer
        else:
            if interface_store is None:
                interface_store = (
                    PersistentInterfaceStore(store=self.artifacts)
                    if self.artifacts is not None
                    else InterfaceStore()
                )
            # NB: the fleet owns report-artifact traffic (phase 1), so the
            # analyzer gets no artifact store of its own — per-binary
            # lookups would otherwise be double-counted.
            self.analyzer = BSideAnalyzer(
                resolver=self.resolver,
                budget=self.budget,
                interface_store=interface_store,
                indirect_signatures=indirect_signatures,
            )

    @property
    def interfaces(self) -> InterfaceStore | None:
        return getattr(self.analyzer, "interfaces", None)

    # ------------------------------------------------------------------
    # Phase 1: shared-library interfaces, leaves first
    # ------------------------------------------------------------------

    def _library_schedule(self, images: list[LoadedImage]) -> list[LoadedImage]:
        """Topological order of the *union* dependency DAG, leaves first.

        Each image's own closure is already topologically sorted; because
        closures are transitively closed, concatenating them with
        name-deduplication preserves the leaves-first invariant for the
        union.
        """
        seen: set[str] = set()
        schedule: list[LoadedImage] = []
        for image in images:
            if not image.needed:
                continue
            try:
                closure = self.resolver.topological_order(image)
            except LoaderError:
                # Unresolvable/cyclic deps: per-binary analysis reports
                # the failure with the proper failed AnalysisReport.
                continue
            for dep in closure:
                if dep.name not in seen:
                    seen.add(dep.name)
                    schedule.append(dep)
        return schedule

    def warm_interfaces(self, images: list[LoadedImage]) -> int:
        """Populate the interface store for every library the fleet needs.

        Returns the number of distinct libraries in the schedule.  After
        this returns, per-binary analysis (local or in a worker) performs
        no library analysis at all — it finds every interface in the
        store (workers receive them pre-computed via the pool
        initializer), so the store's hit/miss counters describe the
        entire run.

        Tools without a shared-interface phase (the injected baseline
        analyzers vacuum whole images per binary) have nothing to warm.
        """
        if not hasattr(self.analyzer, "analyze_library"):
            return 0
        schedule = self._library_schedule(images)
        for library in schedule:
            try:
                self.analyzer.analyze_library(library)
            except (BudgetExceeded, CfgError, DecodeError, ElfError,
                    LoaderError) as error:
                # Leave the interface unbuilt; each dependent binary's
                # own analysis will hit the same error and record it as
                # that binary's failure, matching the serial semantics.
                logger.warning(
                    "fleet: interface analysis of %s failed (%s); "
                    "deferring to per-binary analysis", library.name, error,
                )
        return len(schedule)

    # ------------------------------------------------------------------
    # Phase 2: per-binary fan-out
    # ------------------------------------------------------------------

    @staticmethod
    def _counter_delta(after: dict, before: dict) -> dict:
        """Per-run view of monotonic counters (gauges pass through).

        The service daemon shares one artifact store across every batch
        for its whole lifetime; each run's report must describe *this*
        run, not the daemon-cumulative totals.
        """
        return {
            key: value - before.get(key, 0)
            if key in ("hits", "misses", "invalidations", "writes")
            else value
            for key, value in after.items()
        }

    def analyze_images(self, images: list[LoadedImage]) -> FleetReport:
        report = FleetReport()
        store0 = self.interfaces
        iface_before = (
            store0.stats() if isinstance(store0, PersistentInterfaceStore)
            else {}
        )
        artifacts_before = (
            self.artifacts.counters("report")
            if self.artifacts is not None else {}
        )
        # Phase 1: serve whole reports from the artifact store.
        entries: list[FleetEntry | None] = [None] * len(images)
        pending: list[int] = []
        for index, image in enumerate(images):
            entry = self.cached_entry(image)
            if entry is not None:
                entries[index] = entry
                self._notify(index, entry)
            else:
                pending.append(index)
        # Phases 2+3: interfaces then per-binary fan-out, misses only.
        if pending:
            pending_images = [images[i] for i in pending]
            # Intra-run content dedup: identical bytes submitted under
            # several names (thundering-herd resubmissions, copies in a
            # sweep) are analyzed once; twins get a copy of the result.
            # Same resolver -> same dependency closure, so the copy is
            # exact.  Decided before fan-out, so results stay identical
            # across worker counts.
            unique_pos: list[int] = []
            twin_of: dict[int, int] = {}
            first_pos: dict[str, int] = {}
            for pos, image in enumerate(pending_images):
                digest = image.content_hash
                if digest in first_pos:
                    twin_of[pos] = first_pos[digest]
                else:
                    first_pos[digest] = pos
                    unique_pos.append(pos)
            unique_images = [pending_images[p] for p in unique_pos]
            self.warm_interfaces(unique_images)
            if self.workers > 1:
                fresh = self._analyze_parallel(unique_images)
                if fresh is None:  # resolver not shareable: degrade politely
                    fresh = [self._analyze_one(img) for img in unique_images]
            else:
                fresh = [self._analyze_one(img) for img in unique_images]
            analyzed: list[FleetEntry | None] = [None] * len(pending_images)
            for pos, entry in zip(unique_pos, fresh):
                analyzed[pos] = entry
            for pos, rep_pos in twin_of.items():
                analyzed[pos] = self._twin_entry(
                    pending_images[pos], analyzed[rep_pos],
                )
            for index, entry in zip(pending, analyzed):
                entries[index] = entry
                self._store_entry(images[index], entry)
                self._notify(index, entry)
        report.entries = entries  # type: ignore[assignment]
        store = self.interfaces
        if isinstance(store, PersistentInterfaceStore):
            report.interface_stats = self._counter_delta(
                store.stats(), iface_before,
            )
        if self.artifacts is not None:
            report.artifact_stats = self._counter_delta(
                self.artifacts.counters("report"), artifacts_before,
            )
        return report

    # ------------------------------------------------------------------
    # Phase 1: whole-report artifacts
    # ------------------------------------------------------------------

    def _notify(self, index: int, entry: FleetEntry) -> None:
        if self.on_entry is not None:
            self.on_entry(index, entry)

    def cached_entry(self, image: LoadedImage) -> FleetEntry | None:
        """Serve one binary's report from the artifact store, if valid.

        Lookup is keyed by name first, then by content hash (a renamed
        copy of an already-analyzed binary still hits; see
        :meth:`ArtifactStore.find_name`).  The lookup is timed into the
        entry so service metrics show what a warm request actually cost.
        """
        if self.artifacts is None or not hasattr(self.analyzer, "load_cached_report"):
            return None
        started = time.perf_counter()
        report = self.analyzer.load_cached_report(image, store=self.artifacts)
        if report is None:
            return None
        return FleetEntry(
            name=image.name, report=report, from_cache=True,
            seconds=time.perf_counter() - started,
        )

    def _store_entry(self, image: LoadedImage, entry: FleetEntry) -> None:
        if self.artifacts is None or not hasattr(self.analyzer, "store_report"):
            return
        self.analyzer.store_report(image, None, entry.report, store=self.artifacts)

    def _twin_entry(self, image: LoadedImage, entry: FleetEntry) -> FleetEntry:
        """A duplicate submission's entry: its twin's report, renamed.

        ``from_cache`` is set — no analysis ran for this binary — so
        service metrics and the warm-path assertions treat dedup-served
        entries like store-served ones.
        """
        report = AnalysisReport.from_doc(entry.report.to_doc())
        report.binary = image.name
        return FleetEntry(name=image.name, report=report, from_cache=True)

    def _analyze_one(self, image: LoadedImage) -> FleetEntry:
        store = self.interfaces
        hits0 = getattr(store, "hits", 0)
        misses0 = getattr(store, "misses", 0)
        started = time.perf_counter()
        outcome = self.analyzer.analyze(image)
        return FleetEntry(
            name=image.name,
            report=outcome,
            seconds=time.perf_counter() - started,
            cache_hits=getattr(store, "hits", 0) - hits0,
            cache_misses=getattr(store, "misses", 0) - misses0,
        )

    def _analyze_parallel(
        self, images: list[LoadedImage]
    ) -> list[FleetEntry] | None:
        if not isinstance(self.analyzer, BSideAnalyzer):
            logger.warning(
                "fleet: injected analyzer %s cannot be rebuilt in worker "
                "processes; falling back to serial analysis",
                type(self.analyzer).__name__,
            )
            return None
        spec = self.resolver.spec()
        if spec is None:
            logger.warning(
                "fleet: resolver cannot be shipped to worker processes "
                "(callable provider or raw-less cached image); "
                "falling back to serial analysis"
            )
            return None
        config = {
            "resolver": spec,
            "budget": self.analyzer.budget,
            "interfaces": self.analyzer.interfaces.all_interfaces(),
            "detect_wrappers": self.analyzer.detect_wrappers,
            "directed_search": self.analyzer.directed_search,
            "use_active_addresses_taken":
                self.analyzer.use_active_addresses_taken,
            "indirect_signatures": self.analyzer.indirect_signatures,
        }
        entries: list[FleetEntry | None] = [None] * len(images)
        remote: list[tuple[int, LoadedImage]] = []
        inline: list[int] = []
        for index, image in enumerate(images):
            if image.raw:
                remote.append((index, image))
            else:
                inline.append(index)
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            futures = [
                (index, pool.submit(_worker_analyze, image.name, image.raw))
                for index, image in remote
            ]
            # Images without raw bytes cannot cross the process boundary;
            # analyze them here while the pool works.
            for index in inline:
                entries[index] = self._analyze_one(images[index])
            for index, future in futures:
                outcome, seconds, hits, misses, runs = future.result()
                add_runs(runs)
                entries[index] = FleetEntry(
                    name=images[index].name,
                    report=outcome,
                    seconds=seconds,
                    cache_hits=hits,
                    cache_misses=misses,
                )
        return entries  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Directory sweep
    # ------------------------------------------------------------------

    def analyze_directory(self, directory: str) -> FleetReport:
        """Analyze every regular file in ``directory`` that parses as ELF.

        Non-ELF files are recorded in :attr:`FleetReport.skipped` and
        logged, like a ``file(1)`` sweep that reports what it passed over.
        """
        images: list[LoadedImage] = []
        skipped: list[str] = []
        for filename in sorted(os.listdir(directory)):
            path = os.path.join(directory, filename)
            if not os.path.isfile(path):
                continue
            try:
                images.append(LoadedImage.from_path(path))
            except (ElfError, ValueError):
                skipped.append(filename)
                logger.info("fleet: skipping non-ELF file %s", path)
        report = self.analyze_images(images)
        report.skipped = skipped
        return report
