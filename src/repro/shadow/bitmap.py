"""Per-thread same-epoch bitmaps (paper §IV-A).

Looking a location up in the global shadow table requires cross-thread
synchronization in the native tool; the paper short-circuits repeat
accesses within an epoch using a thread-local bitmap that is reset at
every lock release.  We reproduce the structure (paged bitsets, one bit
per byte address) both for the fast path and for the Table 2 "Bitmap"
memory column.

Pages are 4 KiB of address space; each page's bits live in one Python
int, so set/test are two dict lookups plus shifts.
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class EpochBitmap:
    """A sparse bitset over byte addresses, cleared each epoch."""

    __slots__ = ("_pages", "pages_touched_peak", "_covered")

    def __init__(self):
        self._pages: dict = {}
        #: most pages ever live at once (drives memory accounting)
        self.pages_touched_peak = 0
        #: ``(lo, hi)`` of the last :meth:`cover`: every bit in it is
        #: set until the next :meth:`reset` (an empty span at first)
        self._covered = (0, 0)

    def test_and_set(self, addr: int, size: int = 1) -> bool:
        """Mark ``[addr, addr+size)``; True iff *all* bits were already set
        (the access is a repeat within the current epoch)."""
        pages = self._pages
        page = addr >> PAGE_SHIFT
        bit = addr & PAGE_MASK
        if bit + size <= PAGE_SIZE:
            mask = ((1 << size) - 1) << bit
            cur = pages.get(page, 0)
            if cur & mask == mask:
                return True
            pages[page] = cur | mask
            if len(pages) > self.pages_touched_peak:
                self.pages_touched_peak = len(pages)
            return False
        # Page-crossing access: handle per page (rare).
        all_set = True
        end = addr + size
        a = addr
        while a < end:
            page = a >> PAGE_SHIFT
            bit = a & PAGE_MASK
            span = min(end - a, PAGE_SIZE - bit)
            mask = ((1 << span) - 1) << bit
            cur = pages.get(page, 0)
            if cur & mask != mask:
                all_set = False
                pages[page] = cur | mask
            a += span
        if len(pages) > self.pages_touched_peak:
            self.pages_touched_peak = len(pages)
        return all_set

    def set_range(self, addr: int, size: int) -> None:
        """Mark ``[addr, addr+size)`` without testing.

        Used by the dynamic-granularity detector to stamp a whole clock
        group once one of its members has been checked this epoch — the
        paper's "multiple accesses become the same epoch accesses".
        """
        pages = self._pages
        end = addr + size
        a = addr
        while a < end:
            page = a >> PAGE_SHIFT
            bit = a & PAGE_MASK
            span = min(end - a, PAGE_SIZE - bit)
            mask = ((1 << span) - 1) << bit
            cur = pages.get(page, 0)
            if cur & mask != mask:
                pages[page] = cur | mask
            a += span
        if len(pages) > self.pages_touched_peak:
            self.pages_touched_peak = len(pages)

    def cover(self, lo: int, hi: int, set_from: int) -> None:
        """Mark ``[lo, hi)``, of which ``[set_from, hi)`` is already set.

        Marks only the part of ``[lo, set_from)`` outside the span of
        the previous cover since the last reset, which is set already,
        and then remembers ``[lo, hi)``.  So a read group that grows by
        one adopt at a time has each byte marked once per epoch, not
        its whole extent once per adopt.  The bits end up exactly as
        ``set_range(lo, hi - lo)`` leaves them.
        """
        clo, chi = self._covered
        a = clo if clo < set_from else set_from
        if lo < a:
            self.set_range(lo, a - lo)
        b = chi if chi > lo else lo
        if b < set_from:
            self.set_range(b, set_from - b)
        self._covered = (lo, hi)

    def any_set(self, addr: int, size: int = 1) -> bool:
        """True iff *any* bit of ``[addr, addr+size)`` is set.

        Batched dispatch uses this to classify a coalesced range:
        all-set and none-set ranges take whole-range fast paths; only
        partially-covered ranges fall back to per-access replay.
        """
        pages = self._pages
        end = addr + size
        a = addr
        while a < end:
            page = a >> PAGE_SHIFT
            bit = a & PAGE_MASK
            span = min(end - a, PAGE_SIZE - bit)
            if pages.get(page, 0) & (((1 << span) - 1) << bit):
                return True
            a += span
        return False

    def test(self, addr: int, size: int = 1) -> bool:
        """True iff every bit of ``[addr, addr+size)`` is set."""
        pages = self._pages
        end = addr + size
        a = addr
        while a < end:
            page = a >> PAGE_SHIFT
            bit = a & PAGE_MASK
            span = min(end - a, PAGE_SIZE - bit)
            mask = ((1 << span) - 1) << bit
            if pages.get(page, 0) & mask != mask:
                return False
            a += span
        return True

    def reset(self) -> None:
        """Start a new epoch: drop every bit."""
        self._pages.clear()
        self._covered = (0, 0)

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able state: sorted ``[page, bits]`` pairs plus the peak.

        Page bit-words are arbitrary-precision ints, which JSON carries
        exactly; sorting makes the encoding deterministic for identical
        logical state.
        """
        return {
            "pages": [[p, bits] for p, bits in sorted(self._pages.items())],
            "peak": self.pages_touched_peak,
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "EpochBitmap":
        """Rebuild a bitmap from :meth:`snapshot` output."""
        bm = cls()
        bm._pages = {p: bits for p, bits in state["pages"]}
        bm.pages_touched_peak = state["peak"]
        return bm

    @property
    def live_pages(self) -> int:
        return len(self._pages)
