"""Content-addressed, multi-kind analysis artifact store.

PR 1's :class:`~repro.core.ifacecache.PersistentInterfaceStore` persisted
one artifact kind — per-library shared interfaces — so a warm fleet run
skipped *library* analysis but still re-analyzed every executable.  The
:class:`ArtifactStore` generalises that design to every cacheable product
of the pass pipeline:

========  ====================================================
kind      payload
========  ====================================================
iface     a library's §4.5 :class:`SharedInterface` JSON
cfg       a binary's recovered-CFG summary (:meth:`CFG.summary`)
wrappers  a binary's confirmed wrapper table (entry → parameter)
report    a binary's full :class:`AnalysisReport` JSON
gtruth    a binary's emulated ground-truth syscall set (§5.1),
          keyed by the input-vector suite it was traced under
funccfg   an image's per-region CFG products table: region start →
          the region's Merkle *closure* hash + its product (block
          starts + local reachability), see :mod:`repro.cfg.funccfg`
funcid    an image's per-region identification products table:
          region start → the combined callee-closure + caller-cone
          hash + its product (syscall sites, wrapper classifications,
          per-site identified values + budget records), see
          :mod:`repro.core.funcid`
========  ====================================================

Every entry is keyed defensively by four components:

* **content hash** — ``LoadedImage.content_hash`` of the subject binary.
  A rebuilt binary never matches a stale entry; a renamed-but-identical
  one still hits.
* **pipeline-config fingerprint** — a digest of the analyzer's pass
  list, ablation flags, and budgets (see
  :meth:`repro.core.pipeline.PipelineConfig.fingerprint`).  Changing any
  pipeline knob misses instead of serving a result the current
  configuration would not produce.
* **dependency hashes** — the content hashes of the subject's shared
  library closure (and dlopen modules).  An upgraded libc invalidates
  every cached executable report that linked it.
* **cache version** — :data:`CACHE_VERSION`, bumped whenever the
  envelope format or the analysis itself changes incompatibly.

The two per-region tables (:class:`ProductTable`) are stored under the
image name with an empty content hash, so a rebuilt binary still finds
its table; each record inside is checked against its own key hash.

Corrupted or mismatched entries are deleted and treated as misses, never
as errors; writes are atomic (write + rename) so concurrent readers
never observe torn files.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading

#: Bump when analyzer or envelope changes invalidate previous artifacts.
#: (1 = PR 1's interface-only envelope; 2 = the multi-kind envelope with
#: config fingerprints and dependency hashes; 3 = ``funccfg``/``funcid``
#: payloads carry the entry argument signature; 4 = one packed
#: ``funccfg``/``funcid`` table per image, compact JSON envelopes.)
CACHE_VERSION = 4

#: Recognised artifact kinds and the envelope field each payload lives in.
ARTIFACT_KINDS: dict[str, str] = {
    "iface": "interface",
    "cfg": "cfg_summary",
    "wrappers": "wrapper_table",
    "report": "report",
    "gtruth": "ground_truth",
    "funccfg": "function_cfg",
    "funcid": "function_id",
}

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._+-]")


def _safe_filename(name: str, kind: str) -> str:
    """Map (name, kind) to a filesystem-safe, collision-free filename.

    Sanitising alone could alias distinct names (``lib@1.so`` and
    ``lib#1.so`` both becoming ``lib_1.so``), which would make the two
    entries perpetually invalidate each other; a short digest of the raw
    name keeps the mapping injective.
    """
    tag = hashlib.sha256(name.encode()).hexdigest()[:8]
    return f"{_SAFE_NAME.sub('_', name)}.{tag}.{kind}.json"


def fingerprint_doc(doc: dict) -> str:
    """Stable digest of a JSON-able configuration document."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ArtifactStore:
    """Disk-backed store of per-binary analysis artifacts.

    Layout: one ``<name>.<tag>.<kind>.json`` file per entry under
    ``cache_dir``, wrapping the payload in an envelope::

        {"cache_version": 4, "kind": "report", "name": "…",
         "content_hash": "…", "config_fingerprint": "…",
         "dep_hashes": ["…", …], "report": {…}}

    ``get`` validates every envelope field the caller supplies; a
    mismatch deletes the entry and counts as an invalidation + miss.
    Passing ``None`` for a component skips that check (used by
    introspection commands that have no image at hand).
    """

    def __init__(self, cache_dir: str, *, version: int = CACHE_VERSION) -> None:
        self.cache_dir = cache_dir
        self.version = version
        os.makedirs(cache_dir, exist_ok=True)
        #: per-kind counters: kind -> {"hits": n, "misses": n, ...}
        self._counters: dict[str, dict[str, int]] = {
            kind: {"hits": 0, "misses": 0, "invalidations": 0, "writes": 0}
            for kind in ARTIFACT_KINDS
        }
        #: lazy per-kind index: kind -> {content_hash: entry name}
        self._hash_index: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------

    def _path(self, kind: str, name: str) -> str:
        return os.path.join(self.cache_dir, _safe_filename(name, kind))

    def _payload_field(self, kind: str) -> str:
        try:
            return ARTIFACT_KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown artifact kind {kind!r}") from None

    def get(
        self,
        kind: str,
        name: str,
        *,
        content_hash: str | None = None,
        fingerprint: str | None = None,
        dep_hashes: list[str] | None = None,
    ) -> dict | list | None:
        """Load one validated payload; ``None`` (and cleanup) when unusable.

        A key mismatch deletes the entry: callers of ``get`` own their
        names (per-pass artifacts, the interface cache).  Serving paths
        shared by many clients use :meth:`lookup`, which never deletes.
        """
        payload = self._read(
            kind, name, content_hash=content_hash, fingerprint=fingerprint,
            dep_hashes=dep_hashes, delete_stale=True,
        )
        self._counters[kind]["misses" if payload is None else "hits"] += 1
        return payload

    def put(
        self,
        kind: str,
        name: str,
        payload: dict | list,
        *,
        content_hash: str = "",
        fingerprint: str = "",
        dep_hashes: list[str] | None = None,
    ) -> None:
        field = self._payload_field(kind)
        envelope = {
            "cache_version": self.version,
            "kind": kind,
            "name": name,
            "content_hash": content_hash,
            "config_fingerprint": fingerprint,
            "dep_hashes": list(dep_hashes or []),
            field: payload,
        }
        path = self._path(kind, name)
        # per-writer temp name, so concurrent writers of one entry never
        # share (or consume) each other's file; it ends in no entry
        # suffix, so stats/prune never count it
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        # one C-encoded string, one write: ``json.dump`` would take the
        # pure-Python incremental encoder and write chunk by chunk
        data = json.dumps(envelope, separators=(",", ":"))
        with open(tmp, "w") as f:
            f.write(data)
        os.replace(tmp, path)  # atomic: readers never see a torn write
        self._counters[kind]["writes"] += 1
        if content_hash and kind in self._hash_index:
            self._hash_index[kind][content_hash] = name

    def _read(
        self,
        kind: str,
        name: str,
        *,
        content_hash: str | None,
        fingerprint: str | None,
        dep_hashes: list[str] | None,
        delete_stale: bool,
    ) -> dict | list | None:
        """The entry's payload iff it exists and matches every supplied
        key component; no counters.  Unparseable envelopes are always
        removed (they are garbage under every key); key mismatches only
        when ``delete_stale``."""
        field = self._payload_field(kind)
        try:
            with open(self._path(kind, name)) as f:
                envelope = json.load(f)
            version = envelope["cache_version"]
            entry_hash = envelope["content_hash"]
            entry_fingerprint = envelope["config_fingerprint"]
            entry_deps = envelope["dep_hashes"]
            payload = envelope[field]
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self.invalidate(kind, name)
            return None
        stale = (
            version != self.version
            or (content_hash is not None and content_hash != entry_hash)
            or (fingerprint is not None and fingerprint != entry_fingerprint)
            or (dep_hashes is not None and list(dep_hashes) != entry_deps)
        )
        if not stale:
            return payload
        if delete_stale:
            self.invalidate(kind, name)
        return None

    def lookup(
        self,
        kind: str,
        name: str,
        *,
        content_hash: str,
        fingerprint: str | None = None,
        dep_hashes: list[str] | None = None,
    ) -> dict | list | None:
        """Serving-path lookup: name fast path, then content-hash alias.

        Unlike :meth:`get`, this is built for caches shared by many
        clients (the fleet engine and the service daemon):

        * exactly **one** hit or miss is counted per lookup, however it
          resolves — a renamed warm fleet reads as warm, not half-cold;
        * mismatched entries are **never deleted** — a different binary
          that happens to share a basename must not evict another
          client's valid entry (perpetual thrash), and an alias probe
          must not destroy an entry still valid under its own key;
        * when the name-keyed entry does not match, the same validation
          is retried under the name the content hash was cached as.
        """
        counters = self._counters[kind]
        payload = self._read(
            kind, name, content_hash=content_hash, fingerprint=fingerprint,
            dep_hashes=dep_hashes, delete_stale=False,
        )
        if payload is None and content_hash:
            alias = self.find_name(kind, content_hash)
            if alias is not None and alias != name:
                payload = self._read(
                    kind, alias, content_hash=content_hash,
                    fingerprint=fingerprint, dep_hashes=dep_hashes,
                    delete_stale=False,
                )
        if payload is None:
            counters["misses"] += 1
            return None
        counters["hits"] += 1
        return payload

    def find_name(self, kind: str, content_hash: str) -> str | None:
        """Name of a ``kind`` entry whose subject has this content hash.

        Content-hash lookup lets a renamed-but-identical submission hit
        the cache (the service serves warm resubmissions regardless of
        the file name the client chose).  The caller still goes through
        :meth:`get` with the returned name, so fingerprint and dependency
        validation are never bypassed.  Backed by a lazy per-kind index
        rebuilt by scanning the entry envelopes once and kept current by
        :meth:`put`; invalidation drops the index conservatively.
        """
        self._payload_field(kind)  # validate the kind name
        index = self._hash_index.get(kind)
        if index is None:
            index = {}
            for filename in self._entry_files(kind):
                try:
                    with open(os.path.join(self.cache_dir, filename)) as f:
                        envelope = json.load(f)
                    if envelope.get("kind") == kind and envelope["content_hash"]:
                        index[envelope["content_hash"]] = envelope["name"]
                except (OSError, json.JSONDecodeError, KeyError, TypeError):
                    continue
            self._hash_index[kind] = index
        return index.get(content_hash)

    # ------------------------------------------------------------------
    # Invalidation / pruning
    # ------------------------------------------------------------------

    def invalidate(self, kind: str, name: str) -> None:
        """Drop one entry if present."""
        path = self._path(kind, name)
        self._hash_index.pop(kind, None)
        if os.path.exists(path):
            os.remove(path)
            self._counters[kind]["invalidations"] += 1

    def _entry_files(self, kind: str | None = None) -> list[str]:
        kinds = ARTIFACT_KINDS if kind is None else (kind,)
        suffixes = tuple(f".{k}.json" for k in kinds)
        return sorted(
            filename
            for filename in os.listdir(self.cache_dir)
            if filename.endswith(suffixes)
        )

    def prune(self, kind: str | None = None) -> int:
        """Delete every entry of ``kind`` (all kinds when None); returns
        the number of files removed."""
        if kind is not None:
            self._payload_field(kind)  # validate the kind name
            self._hash_index.pop(kind, None)
        else:
            self._hash_index.clear()
        removed = 0
        for filename in self._entry_files(kind):
            os.remove(os.path.join(self.cache_dir, filename))
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self, kind: str) -> dict[str, int]:
        return dict(self._counters[kind])

    def stats(self) -> dict:
        """Per-kind disk usage + session counters (the ``bside cache
        stats`` document)."""
        out: dict = {"cache_dir": self.cache_dir, "version": self.version}
        kinds: dict[str, dict] = {}
        for kind in ARTIFACT_KINDS:
            files = self._entry_files(kind)
            size = sum(
                os.path.getsize(os.path.join(self.cache_dir, f))
                for f in files
            )
            kinds[kind] = {
                "entries": len(files),
                "bytes": size,
                **self._counters[kind],
            }
        out["kinds"] = kinds
        out["total_entries"] = sum(k["entries"] for k in kinds.values())
        out["total_bytes"] = sum(k["bytes"] for k in kinds.values())
        return out


class ShardedArtifactStore:
    """N flat :class:`ArtifactStore` roots behind content-hash placement.

    Placement is **deterministic, total, and rebalance-free**: an entry
    whose subject has content hash ``h`` lives in shard
    ``int(h, 16) % shards``, so every writer and every reader — worker
    processes, the service front end, the CLI — agrees on the location
    without any coordination or directory state.  Entries written
    without a content hash (rare introspection payloads) fall back to
    the same placement applied to a digest of the entry *name*, which
    is equally deterministic.

    Shard roots default to ``<cache_dir>/shard-00 … shard-NN`` but can
    be any list of directories (one per node, one per disk).  The class
    mirrors the flat store's full surface — ``get``/``put``/``lookup``/
    ``find_name``/``invalidate``/``prune``/``counters``/``stats`` — so
    every existing consumer (fleet engine, interface cache, service
    executor, ``bside cache``) works unchanged; ``stats`` aggregates
    across shards and adds a per-shard breakdown.
    """

    def __init__(
        self,
        cache_dir: str,
        shards: int = 2,
        *,
        roots: list[str] | None = None,
        version: int = CACHE_VERSION,
    ) -> None:
        if roots is not None:
            if not roots:
                raise ValueError("ShardedArtifactStore needs at least one root")
            self.roots = [os.path.abspath(r) for r in roots]
        else:
            shards = max(1, int(shards))
            self.roots = [
                os.path.join(cache_dir, f"shard-{index:02d}")
                for index in range(shards)
            ]
        self.cache_dir = cache_dir
        self.version = version
        self.shards = [ArtifactStore(root, version=version) for root in self.roots]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def shard_index(self, content_hash: str | None, name: str = "") -> int:
        """The shard an entry keyed by ``content_hash`` (or, failing
        that, ``name``) lives in.  Total: every key routes somewhere."""
        if content_hash:
            try:
                return int(content_hash, 16) % len(self.shards)
            except ValueError:
                # Non-hex hashes still place deterministically.
                content_hash = ""
        digest = hashlib.sha256((content_hash or name).encode()).hexdigest()
        return int(digest, 16) % len(self.shards)

    def shard_for(self, content_hash: str | None, name: str = "") -> ArtifactStore:
        return self.shards[self.shard_index(content_hash, name)]

    def _shard_holding(self, kind: str, name: str) -> ArtifactStore | None:
        """The first shard with an entry file for (kind, name) — used by
        name-only reads, where the content hash (and with it the home
        shard) is unknown."""
        for shard in self.shards:
            if os.path.exists(shard._path(kind, name)):  # noqa: SLF001
                return shard
        return None

    # ------------------------------------------------------------------
    # Store surface (delegated by placement)
    # ------------------------------------------------------------------

    def put(
        self,
        kind: str,
        name: str,
        payload: dict | list,
        *,
        content_hash: str = "",
        fingerprint: str = "",
        dep_hashes: list[str] | None = None,
    ) -> None:
        self.shard_for(content_hash, name).put(
            kind, name, payload, content_hash=content_hash,
            fingerprint=fingerprint, dep_hashes=dep_hashes,
        )

    def get(
        self,
        kind: str,
        name: str,
        *,
        content_hash: str | None = None,
        fingerprint: str | None = None,
        dep_hashes: list[str] | None = None,
    ) -> dict | list | None:
        if content_hash:
            shard = self.shard_for(content_hash, name)
        else:
            # Name-only probe: find the entry wherever its (unknown)
            # content hash placed it; counters land on the holding
            # shard, or on the name-placed shard for a clean miss.
            shard = self._shard_holding(kind, name) or self.shard_for(None, name)
        return shard.get(
            kind, name, content_hash=content_hash,
            fingerprint=fingerprint, dep_hashes=dep_hashes,
        )

    def lookup(
        self,
        kind: str,
        name: str,
        *,
        content_hash: str,
        fingerprint: str | None = None,
        dep_hashes: list[str] | None = None,
    ) -> dict | list | None:
        # Identical bytes always route to one shard, so the per-shard
        # content-hash alias index keeps working: a renamed resubmission
        # lands on the shard that already holds its report.
        return self.shard_for(content_hash, name).lookup(
            kind, name, content_hash=content_hash,
            fingerprint=fingerprint, dep_hashes=dep_hashes,
        )

    def find_name(self, kind: str, content_hash: str) -> str | None:
        return self.shard_for(content_hash).find_name(kind, content_hash)

    def invalidate(self, kind: str, name: str) -> None:
        for shard in self.shards:
            shard.invalidate(kind, name)

    def prune(self, kind: str | None = None) -> int:
        return sum(shard.prune(kind) for shard in self.shards)

    # ------------------------------------------------------------------
    # Introspection (aggregated)
    # ------------------------------------------------------------------

    def counters(self, kind: str) -> dict[str, int]:
        totals: dict[str, int] = {}
        for shard in self.shards:
            for key, value in shard.counters(kind).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def stats(self) -> dict:
        """The flat store's document shape, summed across shards, plus
        ``shards``/``shard_roots`` and a per-shard entry breakdown."""
        out: dict = {
            "cache_dir": self.cache_dir,
            "version": self.version,
            "shards": len(self.shards),
            "shard_roots": list(self.roots),
        }
        kinds: dict[str, dict] = {}
        per_shard: list[dict] = []
        for index, shard in enumerate(self.shards):
            doc = shard.stats()
            per_shard.append({
                "shard": index,
                "root": self.roots[index],
                "entries": doc["total_entries"],
                "bytes": doc["total_bytes"],
            })
            for kind, stats in doc["kinds"].items():
                agg = kinds.setdefault(kind, {})
                for key, value in stats.items():
                    agg[key] = agg.get(key, 0) + value
        out["kinds"] = kinds
        out["per_shard"] = per_shard
        out["total_entries"] = sum(k["entries"] for k in kinds.values())
        out["total_bytes"] = sum(k["bytes"] for k in kinds.values())
        return out


class ProductTable:
    """One image's per-region products of one kind, held as one entry.

    The incremental tier keeps a product per function region
    (``funccfg``, ``funcid``); one entry per region would make store
    cost grow with the function count, not the change.  The table maps
    each region start to ``{"key": <hash>, "product": {…}}``; it is read
    once (on construction) and written at most once (:meth:`flush`, only
    when a record changed).

    It is stored under the image name with an empty content hash: a
    rebuilt binary has a new content hash but must still find its table
    (a sharded store then places it by name).  A record serves only when
    its key equals the caller's live hash; anything else is a per-region
    miss.  Concurrent writers of one table are last-writer-wins through
    the atomic replace, so a lost update costs a later miss, never a
    wrong product.
    """

    __slots__ = ("store", "kind", "name", "fingerprint", "records", "changed")

    def __init__(
        self,
        store: ArtifactStore | ShardedArtifactStore,
        kind: str,
        name: str,
        fingerprint: str,
    ) -> None:
        self.store = store
        self.kind = kind
        self.name = name
        self.fingerprint = fingerprint
        payload = store.get(
            kind, name, content_hash="", fingerprint=fingerprint,
            dep_hashes=[],
        )
        #: str(region start) -> {"key": hash, "product": payload}
        self.records: dict = payload if isinstance(payload, dict) else {}
        self.changed = False

    def product(self, start: int, key: str) -> dict | None:
        """The region's cached product iff its record carries ``key``."""
        record = self.records.get(str(start))
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        product = record.get("product")
        return product if isinstance(product, dict) else None

    def set(self, start: int, key: str, product: dict) -> None:
        self.records[str(start)] = {"key": key, "product": product}
        self.changed = True

    def flush(self, live: list[int]) -> None:
        """Write the table if a record changed.  Records of regions not
        in ``live`` (the image's cacheable region starts) are dropped,
        so a table never outgrows its image across rebuilds."""
        keep = {str(start) for start in live}
        stale = [start for start in self.records if start not in keep]
        for start in stale:
            del self.records[start]
        if not (self.changed or stale):
            return
        self.store.put(
            self.kind, self.name, self.records, content_hash="",
            fingerprint=self.fingerprint, dep_hashes=[],
        )
        self.changed = False
