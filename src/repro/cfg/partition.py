"""Function-granular partition of an image's text section.

The incremental analysis tier (``BSideAnalyzer(incremental=True)``) caches
per-function CFG products, so it needs a deterministic way to cut the
text section into function *regions*.  Region starts are the in-text
function-symbol starts (``LoadedImage.function_boundaries``) plus the
text base; each region extends to the next start (or the text end).
This makes the partition a **total, non-overlapping cover** of
``[text_base, text_end)`` by construction — the property
``tests/test_cfg_properties.py`` pins — and keeps it independent of the
decode stream: symbol tables survive K-function rebuilds unchanged, so
region boundaries are stable under code edits that preserve layout.

:func:`FunctionPartition.dependency_cone` is the reference cone
computation the differential harness asserts against: a changed
function invalidates itself plus every transitive *caller* (any region
whose direct flow references can reach a changed region), because
cached products are keyed by a Merkle closure hash over the
callee-direction reference graph (:mod:`repro.cfg.funccfg`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..loader.image import LoadedImage


@dataclass(frozen=True, slots=True)
class FunctionRegion:
    """One half-open function region ``[start, end)`` of the text section."""

    start: int
    end: int
    name: str = ""


class FunctionPartition:
    """Ordered, non-overlapping function regions covering the text section."""

    __slots__ = ("regions", "_starts", "_text_base", "_text_end")

    def __init__(self, regions: list[FunctionRegion], text_base: int, text_end: int):
        self.regions = regions
        self._starts = [r.start for r in regions]
        self._text_base = text_base
        self._text_end = text_end

    @classmethod
    def from_image(cls, image: LoadedImage) -> "FunctionPartition":
        text_base = image.text_base
        text_end = image.text_end
        starts = {text_base}
        for start, __ in image.function_boundaries:
            if text_base <= start < text_end:
                starts.add(start)
        ordered = sorted(starts)
        regions: list[FunctionRegion] = []
        for i, start in enumerate(ordered):
            end = ordered[i + 1] if i + 1 < len(ordered) else text_end
            sym = image.function_at(start)
            regions.append(
                FunctionRegion(start=start, end=end, name=sym.name if sym else "")
            )
        return cls(regions, text_base, text_end)

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def region_containing(self, addr: int) -> FunctionRegion | None:
        """The region owning ``addr``, or ``None`` outside the text section."""
        if not (self._text_base <= addr < self._text_end):
            return None
        return self.regions[bisect_right(self._starts, addr) - 1]

    @staticmethod
    def dependency_cone(
        refs: dict[int, set[int]], changed: set[int]
    ) -> set[int]:
        """Changed regions plus every transitive caller.

        ``refs`` maps a region start to the region starts its direct
        flow (calls/jumps/fall-throughs) references.  The cone is the
        reverse-reachable set: closure hashes fold callee digests, so a
        change propagates *up* the reference graph.
        """
        callers: dict[int, set[int]] = {}
        for src, dsts in refs.items():
            for dst in dsts:
                callers.setdefault(dst, set()).add(src)
        cone = set(changed)
        stack = list(changed)
        while stack:
            for src in callers.get(stack.pop(), ()):
                if src not in cone:
                    cone.add(src)
                    stack.append(src)
        return cone

    @staticmethod
    def identification_cone(
        refs: dict[int, set[int]], changed: set[int]
    ) -> set[int]:
        """Regions whose cached ``funcid`` products a change invalidates.

        Identification symex runs *forward* through callees and its
        anchor queries walk *backward* into callers, so the funcid key
        folds both the callee closure and the caller cone — a change
        therefore invalidates the union of both transitive directions:
        ``callers*(changed) ∪ callees*(changed) ∪ changed``.
        """
        cone = FunctionPartition.dependency_cone(refs, changed)
        stack = list(changed)
        while stack:
            for dst in refs.get(stack.pop(), ()):
                if dst not in cone:
                    cone.add(dst)
                    stack.append(dst)
        return cone
