"""The incremental tier's per-analysis state: ``funccfg`` and ``funcid``.

``bside analyze --incremental`` runs the same passes as a cold analysis;
:class:`IncrementalState` is the one extra input they consult.  It holds
the whole-image :class:`~repro.cfg.funccfg.ImageScan` and the image's two
:class:`~repro.core.artifacts.ProductTable` s: ``funccfg`` (per-region
block starts, keyed by the Merkle callee-closure hash; see
:mod:`repro.cfg.funccfg`) and ``funcid``, described below.

One ``funcid`` record per function region caches everything the
identification stages concluded about the region:

* the region's discovered **syscall sites** (validated against a live
  re-discovery, because reachability is a global fact the per-function
  key cannot certify);
* the **wrapper classifications** of functions owning sites in the
  region (entry -> parameter location, or "confirmed not a wrapper");
* the per-anchor **identification records** — identified syscall
  numbers plus the exact budget spend (nodes/steps) of the backward
  search that produced them, split into *plain* sites (``%rax`` queried
  at the ``syscall``) and *wrapper call* sites (the number parameter
  queried at the ``call``, stored in the **caller's** region).

Keying.  A cached CFG product depends only on a function and its
callees, but identification symex crosses function boundaries in both
directions: forward execution runs *into* callees, and the backward
anchor walk climbs *into* callers (that is the point of wrapper
call-site identification).  The ``funcid`` key therefore folds two
Merkle digests computed by the same Tarjan condensation
(:func:`repro.cfg.funccfg._closure_hashes`):

* the **callee closure hash** (the ``funccfg`` key), and
* the **caller-cone digest** — the same machinery run over the
  *reversed* reference graph, folding the body hashes of every
  transitive caller.

Editing a function therefore moves the funcid key of its transitive
callers *and* its transitive callees
(:meth:`repro.cfg.partition.FunctionPartition.identification_cone`);
everything outside that cone replays its cached records through
:meth:`AnalysisContext.record`, which is what keeps incremental reports
byte-identical to cold ones.  Facts the key cannot certify — the
reachable site set, the live call-anchor set, parameter locations —
are re-validated against the stitched CFG on every run; any mismatch
degrades that one region (or that one record) to live re-execution and
the region is re-stored under the current key (self-healing, mirroring
``funccfg``).  Only *aligned* regions are cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.funccfg import ImageScan
from ..cfg.model import CFG
from ..cfg.signatures import signature_doc
from .artifacts import ArtifactStore, ProductTable, ShardedArtifactStore
from .identify import SiteIdentification
from .sites import SyscallSite
from .wrappers import WrapperInfo, wrapper_from_record, wrapper_record


@dataclass(slots=True)
class _RegionRecords:
    """One region's records: a validated cached payload indexed for
    replay, or what this run concluded about the region (for re-store)."""

    #: func entry -> WrapperInfo | None (confirmed not a wrapper)
    wrappers: dict[int, WrapperInfo | None] = field(default_factory=dict)
    #: (block, insn) -> raw plain-site record
    plain: dict[tuple[int, int], dict] = field(default_factory=dict)
    #: (call block, wrapper entry) -> raw wrapper-call record
    calls: dict[tuple[int, int], dict] = field(default_factory=dict)


class IncrementalState:
    """Per-analysis carrier of the incremental probe/replay/re-store cycle.

    Created by ``cfg-recovery`` on an incremental run with an artifact
    store bound (``AnalysisContext.incremental`` stays ``None`` on cold
    runs and library interface builds), which also replays and re-stores
    the ``funccfg`` table through it.  ``site-discovery`` probes the
    ``funcid`` table, ``wrapper-detection`` replays classifications,
    and ``identification`` replays records, then writes the table back
    (:meth:`flush`).
    """

    __slots__ = (
        "scan", "funccfg", "funcid", "sites_by_region", "cached", "notes",
        "dirty", "reanalyzed", "anchors", "replayed",
    )

    def __init__(
        self,
        scan: ImageScan,
        store: ArtifactStore | ShardedArtifactStore,
        name: str,
        fingerprint: str,
    ):
        self.scan = scan
        self.funccfg = ProductTable(store, "funccfg", name, fingerprint)
        self.funcid = ProductTable(store, "funcid", name, fingerprint)
        self.sites_by_region: dict[int, list[SyscallSite]] = {}
        #: region start -> validated cached payload
        self.cached: dict[int, _RegionRecords] = {}
        #: region start -> records collected this run
        self.notes: dict[int, _RegionRecords] = {}
        #: regions whose cached payload must be rewritten even if the
        #: record key sets end up identical (an individual record failed
        #: validation and was re-executed live)
        self.dirty: set[int] = set()
        #: regions ``cfg-recovery`` re-carved (``funccfg`` misses)
        self.reanalyzed = 0
        #: identification anchors (plain sites plus wrapper call sites;
        #: not external-wrapper calls, which ``external-calls`` always
        #: runs live), and the subset served by replay
        self.anchors = 0
        self.replayed = 0

    # ---- probe --------------------------------------------------------

    def _region_start(self, addr: int) -> int | None:
        region = self.scan.partition.region_containing(addr)
        return region.start if region is not None else None

    def probe(self, sites: list[SyscallSite]) -> None:
        """Probe every aligned region's funcid record.

        A hit additionally requires the cached site list to equal the
        live one — site membership depends on global reachability, which
        the per-function key deliberately does not certify.
        """
        for site in sites:
            start = self._region_start(site.insn_addr)
            if start is not None:
                self.sites_by_region.setdefault(start, []).append(site)
        for region in self.scan.partition:
            start = region.start
            if not self.scan.regions[start].aligned:
                continue
            payload = self.funcid.product(
                start, self.scan.funcid_hashes[start],
            )
            if payload is None:
                continue
            indexed = self._validate(payload, start, region.end)
            if indexed is None:
                continue
            self.cached[start] = indexed

    def _validate(
        self, payload: dict, start: int, end: int
    ) -> _RegionRecords | None:
        """Index a payload for replay, or ``None`` (= per-region miss)."""
        try:
            if payload["start"] != start or payload["end"] != end:
                return None
            if payload["arg_signature"] != signature_doc(
                self.scan.entry_sigs.get(start)
            ):
                return None
            live = [s.to_doc() for s in self.sites_by_region.get(start, [])]
            if [list(map(int, s)) for s in payload["sites"]] != live:
                return None
            wrappers: dict[int, WrapperInfo | None] = {}
            for doc in payload["wrappers"]:
                entry, info = wrapper_from_record(doc)
                wrappers[entry] = info
            plain = {
                (int(doc["block"]), int(doc["anchor"])): doc
                for doc in payload["plain"]
            }
            calls = {
                (int(doc["block"]), int(doc["entry"])): doc
                for doc in payload["calls"]
            }
        except (KeyError, TypeError, ValueError):
            return None
        return _RegionRecords(wrappers=wrappers, plain=plain, calls=calls)

    # ---- replay -------------------------------------------------------

    def replay_wrapper(
        self, site: SyscallSite, wrappers: dict[int, WrapperInfo | None]
    ) -> bool:
        """Copy the cached classification of the site's function into
        ``wrappers``; ``False`` when there is none (classify it live)."""
        cache = self.cached.get(self._region_start(site.insn_addr))
        if cache is None or site.func_entry not in cache.wrappers:
            return False
        wrappers[site.func_entry] = cache.wrappers[site.func_entry]
        return True

    def replay_plain(self, site: SyscallSite) -> SiteIdentification | None:
        start = self._region_start(site.insn_addr)
        cache = self.cached.get(start) if start is not None else None
        if cache is None:
            return None
        doc = cache.plain.get((site.block_addr, site.insn_addr))
        if doc is None:
            return None
        try:
            ident = SiteIdentification.from_record(doc)
            if ident.kind != "rax" or ident.anchor != site.insn_addr:
                raise ValueError(doc)
        except (KeyError, TypeError, ValueError):
            self.dirty.add(start)
            return None
        self.replayed += 1
        return ident

    def replay_call(
        self, cfg: CFG, call_block: int, info: WrapperInfo
    ) -> SiteIdentification | None:
        start = self._region_start(call_block)
        cache = self.cached.get(start) if start is not None else None
        if cache is None:
            return None
        doc = cache.calls.get((call_block, info.func_entry))
        if doc is None:
            return None
        param = list(info.param) if info.param is not None else None
        anchor = cfg.blocks[call_block].terminator.addr
        try:
            if doc["param"] != param:
                raise ValueError(doc)
            ident = SiteIdentification.from_record(doc)
            if ident.kind != "wrapper-call" or ident.anchor != anchor:
                raise ValueError(doc)
        except (KeyError, TypeError, ValueError):
            self.dirty.add(start)
            return None
        self.replayed += 1
        return ident

    # ---- collection ---------------------------------------------------

    def _notes_for(self, addr: int) -> _RegionRecords | None:
        start = self._region_start(addr)
        if start is None:
            return None
        return self.notes.setdefault(start, _RegionRecords())

    def note_wrappers(
        self,
        sites: list[SyscallSite],
        wrappers: dict[int, WrapperInfo | None],
    ) -> None:
        """Record the classification of every site's function."""
        for site in sites:
            notes = self._notes_for(site.insn_addr)
            if notes is not None:
                notes.wrappers[site.func_entry] = wrappers.get(site.func_entry)

    def note_plain(self, site: SyscallSite, ident: SiteIdentification) -> None:
        self.anchors += 1
        notes = self._notes_for(site.insn_addr)
        if notes is not None:
            notes.plain[(site.block_addr, site.insn_addr)] = {
                "block": site.block_addr,
                **ident.to_record(),
            }

    def note_call(
        self, call_block: int, info: WrapperInfo, ident: SiteIdentification
    ) -> None:
        self.anchors += 1
        notes = self._notes_for(call_block)
        if notes is not None:
            param = list(info.param) if info.param is not None else None
            notes.calls[(call_block, info.func_entry)] = {
                "block": call_block,
                "entry": info.func_entry,
                "param": param,
                **ident.to_record(),
            }

    # ---- re-store -----------------------------------------------------

    def flush(self) -> None:
        """Record fresh payloads for every changed aligned region, then
        write the table once if any record changed.

        A cached region is rewritten when an individual record failed
        validation (``dirty``) or when this run's record key sets differ
        from the cached ones (anchors appeared or disappeared — global
        CFG facts moved without moving the region's key).  Regions that
        replayed cleanly are skipped: the stored record is already
        identical.
        """
        for region in self.scan.partition:
            start = region.start
            if not self.scan.regions[start].aligned:
                continue
            notes = self.notes.get(start) or _RegionRecords()
            cache = self.cached.get(start)
            if (
                cache is not None
                and start not in self.dirty
                and set(notes.wrappers) == set(cache.wrappers)
                and set(notes.plain) == set(cache.plain)
                and set(notes.calls) == set(cache.calls)
            ):
                continue
            payload = {
                "start": start,
                "end": region.end,
                "arg_signature": signature_doc(
                    self.scan.entry_sigs.get(start)
                ),
                "sites": [
                    s.to_doc() for s in self.sites_by_region.get(start, [])
                ],
                "wrappers": [
                    wrapper_record(entry, info)
                    for entry, info in sorted(notes.wrappers.items())
                ],
                "plain": [doc for __, doc in sorted(notes.plain.items())],
                "calls": [doc for __, doc in sorted(notes.calls.items())],
            }
            self.funcid.set(start, self.scan.funcid_hashes[start], payload)
        self.funcid.flush(self.scan.cacheable_starts())
