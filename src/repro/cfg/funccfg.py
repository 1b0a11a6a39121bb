"""Per-function CFG products: the ``funccfg`` artifact kind's payloads.

On incremental runs, :class:`repro.core.pipeline.CfgRecoveryPass`
assembles the CFG from cacheable per-function units.  This module owns
the three pure pieces of that machinery:

* :func:`scan_image` — one pass over the (always fresh) whole-image
  decode stream, collecting per-region facts: the leaders a region's
  own instructions contribute inside and outside itself, the
  callee-direction reference graph between regions, and decode
  alignment (whether the region's first decoded instruction sits
  exactly at its start — only *aligned* regions are cacheable, which
  decouples a cached product from its neighbours' carve state).
* closure hashing — each region gets a body hash over its byte slice,
  then a **Merkle closure hash** folding the body hashes of every
  region reachable through the reference graph (Tarjan condensation,
  callee-first).  A ``funccfg`` record is keyed by this closure hash, so
  editing one function invalidates exactly the changed region plus its
  transitive callers: the dependency cone
  (:func:`repro.cfg.partition.FunctionPartition.dependency_cone`).
* :func:`build_product` / :func:`validate_product` — the cached payload
  (block starts plus the scan facts that validate them) and its miss-not-crash
  validation: any shape mismatch, stale field, or changed cross-region
  leader set degrades that one region to a cold re-carve.

Edges are deliberately **not** cached: they are re-derived from the
stitched block set by the shared :func:`repro.cfg.builder.add_direct_edges`,
which is what keeps incremental CFGs byte-identical to cold ones.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field

from ..loader.image import LoadedImage
from ..x86.insn import _TERMINATOR_MNEMONICS, Immediate, Instruction
from .partition import FunctionPartition
from .signatures import entry_signature, signature_doc


@dataclass(slots=True)
class RegionScan:
    """Live per-region facts derived from the whole-image decode stream."""

    start: int
    end: int
    #: address of the first decoded instruction inside the region
    #: (-1 when the region decodes to no instruction); the region is
    #: *aligned* — and therefore cacheable — iff this equals ``start``
    first_insn: int = -1
    n_insns: int = 0
    #: in-region leaders contributed by this region's own instructions
    own_leaders: set[int] = field(default_factory=set)
    #: leaders this region's instructions impose on *other* regions
    out_leaders: set[int] = field(default_factory=set)
    #: region starts this region's direct flow references (dep edges)
    refs: set[int] = field(default_factory=set)

    @property
    def aligned(self) -> bool:
        return self.first_insn == self.start


@dataclass(slots=True)
class ImageScan:
    """Everything incremental CFG assembly needs besides the store."""

    partition: FunctionPartition
    #: region start -> its :class:`RegionScan`
    regions: dict[int, RegionScan]
    #: region start -> leaders imposed on it from outside its own bytes
    #: (cross-region branch targets, the image entry point)
    extra_leaders: dict[int, set[int]]
    #: callee-direction reference graph between region starts
    refs: dict[int, set[int]]
    body_hashes: dict[int, str]
    closure_hashes: dict[int, str]
    #: Merkle digest over the *reversed* reference graph: folds the body
    #: hashes of every transitive caller (the backward slice wrapper
    #: identification can walk into)
    caller_hashes: dict[int, str]
    #: combined key for ``funcid`` products: callee closure + caller cone
    funcid_hashes: dict[int, str]
    #: region start -> callee argument signature of the region's entry
    #: (:func:`repro.cfg.signatures.entry_signature` over the decode
    #: stream; part of the ``funccfg``/``funcid`` payloads so a cached
    #: product self-describes the signature the refinement derived)
    entry_sigs: dict[int, frozenset | None]

    def cacheable_starts(self) -> list[int]:
        """Starts of the regions whose products may be cached (aligned)."""
        return [start for start, rs in self.regions.items() if rs.aligned]


def scan_image(
    image: LoadedImage,
    insns: list[Instruction],
    by_addr: dict[int, Instruction],
) -> ImageScan:
    """Scan the decode stream once, producing all per-region facts."""
    partition = FunctionPartition.from_image(image)
    regions = partition.regions
    nregions = len(regions)
    scans = {
        r.start: RegionScan(start=r.start, end=r.end) for r in regions
    }

    terminators = _TERMINATOR_MNEMONICS
    ri = 0
    for insn in insns:
        while ri + 1 < nregions and insn.addr >= regions[ri].end:
            ri += 1
        region = regions[ri]
        rs = scans[region.start]
        if rs.first_insn < 0:
            rs.first_insn = insn.addr
        rs.n_insns += 1
        if insn.mnemonic not in terminators:
            continue
        # Same contribution rule as builder.compute_leaders, attributed
        # to the region whose instruction produced it.
        nxt = insn.addr + insn.size
        if nxt in by_addr:
            _contribute(rs, region.start, region.end, nxt, partition)
        ops = insn.operands
        if len(ops) == 1 and type(ops[0]) is Immediate:
            target = ops[0].value
            if target in by_addr:
                _contribute(rs, region.start, region.end, target, partition)

    extra_leaders: dict[int, set[int]] = {r.start: set() for r in regions}
    refs: dict[int, set[int]] = {}
    for rs in scans.values():
        refs[rs.start] = rs.refs
        for addr in rs.out_leaders:
            other = partition.region_containing(addr)
            if other is not None:
                extra_leaders[other.start].add(addr)
    # The entry point is a leader the ELF header imposes from outside
    # any region's byte content.
    entry = image.entry
    if entry and entry in by_addr:
        owner = partition.region_containing(entry)
        if owner is not None and entry != owner.start:
            extra_leaders[owner.start].add(entry)

    starts = [r.start for r in regions]
    body_hashes = _body_hashes(image, regions)
    closure_hashes = _closure_hashes(starts, refs, body_hashes)
    # Identification products additionally depend on the *backward*
    # slice: wrapper-parameter symex walks from a call site into its
    # callers, so the funcid key folds a caller-cone digest computed by
    # the same Merkle machinery over the reversed reference graph.
    reversed_refs: dict[int, set[int]] = {s: set() for s in starts}
    for src, dsts in refs.items():
        for dst in dsts:
            if dst in reversed_refs:
                reversed_refs[dst].add(src)
    caller_hashes = _closure_hashes(starts, reversed_refs, body_hashes)
    funcid_hashes = {
        s: hashlib.sha256(
            f"{closure_hashes[s]}+{caller_hashes[s]}".encode()
        ).hexdigest()
        for s in starts
    }
    entry_sigs = {s: entry_signature(by_addr, s) for s in starts}
    return ImageScan(
        partition=partition,
        regions=scans,
        extra_leaders=extra_leaders,
        refs=refs,
        body_hashes=body_hashes,
        closure_hashes=closure_hashes,
        caller_hashes=caller_hashes,
        funcid_hashes=funcid_hashes,
        entry_sigs=entry_sigs,
    )


def _contribute(
    rs: RegionScan,
    start: int,
    end: int,
    addr: int,
    partition: FunctionPartition,
) -> None:
    if start <= addr < end:
        rs.own_leaders.add(addr)
        return
    rs.out_leaders.add(addr)
    other = partition.region_containing(addr)
    if other is not None:
        rs.refs.add(other.start)


def _body_hashes(image: LoadedImage, regions) -> dict[int, str]:
    text = image.text_bytes
    base = image.text_base
    out: dict[int, str] = {}
    for r in regions:
        h = hashlib.sha256(f"{r.start:x}|{r.end:x}|".encode())
        h.update(text[r.start - base:r.end - base])
        out[r.start] = h.hexdigest()
    return out


def _closure_hashes(
    starts: list[int],
    refs: dict[int, set[int]],
    body: dict[int, str],
) -> dict[int, str]:
    """Merkle closure digest per region over the callee-direction graph.

    Tarjan's algorithm pops strongly-connected components callees-first,
    so each component's digest can fold its successors' digests as soon
    as it is popped.  Regions in the same SCC share a component digest;
    each region's closure hash additionally folds its own body hash so
    SCC members stay distinct keys.
    """
    starts_set = set(starts)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    counter = 0

    for root in starts:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[int, object]] = [
            (root, iter(sorted(refs.get(root, ()))))
        ]
        while work:
            node, it = work[-1]
            succ = next(it, None)
            if succ is not None:
                if succ not in starts_set:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(refs.get(succ, ())))))
                elif succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)

    comp_digest: list[str] = []
    for ci, comp in enumerate(comps):
        succ_comps = {
            comp_of[succ]
            for member in comp
            for succ in refs.get(member, ())
            if succ in comp_of and comp_of[succ] != ci
        }
        h = hashlib.sha256()
        h.update("|".join(sorted(body[m] for m in comp)).encode())
        h.update(b"#")
        h.update("|".join(sorted(comp_digest[s] for s in succ_comps)).encode())
        comp_digest.append(h.hexdigest())

    return {
        start: hashlib.sha256(
            f"{body[start]}:{comp_digest[comp_of[start]]}".encode()
        ).hexdigest()
        for start in starts
    }


def build_product(
    block_addrs: list[int],
    rs: RegionScan,
    extra_leaders: set[int],
    entry_sig: frozenset | None = None,
) -> dict:
    """The cacheable per-region payload, derived from the stitched CFG.

    ``block_addrs`` is ``sorted(cfg.blocks)``, sorted once per pass so
    each region's block starts are one bisected slice, not a scan of
    every block per region.
    """
    block_starts = block_addrs[
        bisect_left(block_addrs, rs.start):bisect_left(block_addrs, rs.end)
    ]
    return {
        "start": rs.start,
        "end": rs.end,
        "first_insn": rs.first_insn,
        "n_insns": rs.n_insns,
        "extra_leaders": sorted(extra_leaders),
        "block_starts": block_starts,
        "arg_signature": signature_doc(entry_sig),
    }


def validate_product(
    payload: dict,
    rs: RegionScan,
    extra_leaders: set[int],
    by_addr: dict[int, Instruction],
    entry_sig: frozenset | None = None,
) -> list[int] | None:
    """Return the cached block starts, or ``None`` (= cache miss).

    Misses, never crashes: corrupt shapes, stale geometry, a changed
    cross-region leader set, or a stale cached argument signature all
    degrade to a cold re-carve of this one region.
    """
    try:
        if payload["start"] != rs.start or payload["end"] != rs.end:
            return None
        if payload["first_insn"] != rs.first_insn:
            return None
        if payload["n_insns"] != rs.n_insns:
            return None
        if list(payload["extra_leaders"]) != sorted(extra_leaders):
            return None
        if payload["arg_signature"] != signature_doc(entry_sig):
            return None
        block_starts = [int(a) for a in payload["block_starts"]]
    except (KeyError, TypeError, ValueError):
        return None
    for addr in block_starts:
        if not (rs.start <= addr < rs.end) or addr not in by_addr:
            return None
    return block_starts

