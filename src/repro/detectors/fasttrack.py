"""FastTrack (Flanagan & Freund, PLDI'09) with fixed detection granularity.

Per shadow unit (a byte, or a word with low address bits masked) the
access history is one write *epoch* and an adaptive read clock —
FastTrack's O(1) common case.  The per-thread same-epoch bitmap
(paper §IV-A) short-circuits repeat accesses within an epoch before any
shadow lookup happens.

This is the baseline the dynamic-granularity detector (repro.core) is
measured against, at ``granularity=1`` (byte) and ``granularity=4``
(word).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.clocks.adaptive import ReadClock
from repro.detectors.base import (
    READ_WRITE,
    WRITE_READ,
    WRITE_WRITE,
    RaceReport,
    VectorClockRuntime,
)
from repro.shadow.accounting import (
    BITMAP,
    HASH,
    VECTOR_CLOCK,
    MemoryModel,
    SizeModel,
)
from repro.shadow.bitmap import EpochBitmap
from repro.shadow.hash_table import ShadowTable


class _Shadow:
    """Access history of one shadow unit: write epoch + read clock."""

    __slots__ = ("wc", "wt", "w_site", "r", "r_site")

    def __init__(self):
        self.wc = 0  # write epoch clock (0 = never written)
        self.wt = 0  # write epoch thread
        self.w_site = 0
        self.r = ReadClock()
        self.r_site = 0


class FastTrackDetector(VectorClockRuntime):
    """FastTrack at a fixed granularity (1 = byte, 4 = word)."""

    #: Access paths materialize deferred epochs, so the sampling tier
    #: may enable lazy sampled-epoch timestamping (ALGORITHM.md §14).
    supports_lazy_epochs = True
    supports_check_access = True

    def __init__(
        self,
        granularity: int = 1,
        suppress: Optional[Callable[[int], bool]] = None,
        sizes: SizeModel = SizeModel(),
    ):
        super().__init__(suppress)
        if granularity not in (1, 2, 4, 8):
            raise ValueError(f"unsupported granularity {granularity}")
        self.granularity = granularity
        self.name = f"fasttrack-{'byte' if granularity == 1 else 'word'}"
        self.memory = MemoryModel(sizes)
        self.memory.add(HASH, sizes.n_buckets * sizes.bucket)
        self._table = ShadowTable(on_resize=self._account_resize)
        self._read_seen: Dict[int, EpochBitmap] = {}
        self._write_seen: Dict[int, EpochBitmap] = {}
        # Statistics for Tables 1-4.  same_epoch_hits counts *accesses*
        # short-circuited by the bitmap (Table 4's percentage);
        # unit_fast_hits counts shadow units whose epoch already matched.
        self.same_epoch_hits = 0
        self.unit_fast_hits = 0
        self.checked_accesses = 0
        self.total_accesses = 0
        self.vc_allocs = 0
        self.max_vectors = 0
        self.live_vectors = 0
        self._finished = False

    # ------------------------------------------------------------------
    # accounting hooks
    # ------------------------------------------------------------------
    def _account_resize(self, old_slots: int, new_slots: int) -> None:
        sz = self.memory.sizes
        delta = (new_slots - old_slots) * sz.pointer
        if old_slots == 0:
            delta += sz.entry_header
        self.memory.add(HASH, delta)

    def _new_shadow(self, unit: int) -> _Shadow:
        rec = _Shadow()
        self._table.set(unit, rec)
        sz = self.memory.sizes
        # The per-location record is the Fig. 4 "vector clock entry":
        # header + write epoch + read epoch.
        self.memory.add(VECTOR_CLOCK, sz.location + 2 * sz.epoch)
        self.vc_allocs += 2
        self.live_vectors += 2
        if self.live_vectors > self.max_vectors:
            self.max_vectors = self.live_vectors
        return rec

    # ------------------------------------------------------------------
    def new_epoch(self, tid: int) -> None:
        super().new_epoch(tid)
        bm = self._read_seen.get(tid)
        if bm is not None:
            bm.reset()
        bm = self._write_seen.get(tid)
        if bm is not None:
            bm.reset()

    def _bitmap(self, table: Dict[int, EpochBitmap], tid: int) -> EpochBitmap:
        bm = table.get(tid)
        if bm is None:
            bm = table[tid] = EpochBitmap()
        return bm

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def on_read(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        self.total_accesses += 1
        g = self.granularity
        base = addr - addr % g
        last = addr + size - 1
        span = last - last % g + g - base
        if self._bitmap(self._read_seen, tid).test_and_set(base, span):
            self.same_epoch_hits += 1
            return
        vc = self._vc(tid)
        my_clock = vc.get(tid)
        table_get = self._table.get
        for unit in range(base, base + span, g):
            self.checked_accesses += 1
            rec = table_get(unit)
            if rec is None:
                rec = self._new_shadow(unit)
            r = rec.r
            if r.same_epoch(my_clock, tid):
                self.unit_fast_hits += 1
                continue
            # write-read race check: the last write must be ordered.
            if rec.wc > vc.get(rec.wt):
                self.report(
                    RaceReport(unit, WRITE_READ, tid, site, rec.wt,
                               rec.w_site, unit=g)
                )
            was_shared = r.vc is not None
            r.record(my_clock, tid, vc)
            if not was_shared and r.vc is not None:
                sz = self.memory.sizes
                self.memory.add(VECTOR_CLOCK, sz.vc_bytes(self.n_threads))
                self.vc_allocs += 1
                self.live_vectors += 1
                if self.live_vectors > self.max_vectors:
                    self.max_vectors = self.live_vectors
            rec.r_site = site

    def on_write(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        self.total_accesses += 1
        g = self.granularity
        base = addr - addr % g
        last = addr + size - 1
        span = last - last % g + g - base
        if self._bitmap(self._write_seen, tid).test_and_set(base, span):
            self.same_epoch_hits += 1
            return
        vc = self._vc(tid)
        my_clock = vc.get(tid)
        table_get = self._table.get
        for unit in range(base, base + span, g):
            self.checked_accesses += 1
            rec = table_get(unit)
            if rec is None:
                rec = self._new_shadow(unit)
            if rec.wc == my_clock and rec.wt == tid:
                self.unit_fast_hits += 1
                continue
            if rec.wc > vc.get(rec.wt):
                self.report(
                    RaceReport(unit, WRITE_WRITE, tid, site, rec.wt,
                               rec.w_site, unit=g)
                )
            r = rec.r
            rvc = r.vc
            if rvc is None:
                e = r.epoch
                if e[0] > vc.get(e[1]):
                    self.report(
                        RaceReport(unit, READ_WRITE, tid, site, e[1],
                                   rec.r_site, unit=g)
                    )
            else:
                if not rvc.leq(vc):
                    prev = next(
                        (t for t, c in enumerate(rvc.as_list())
                         if c > vc.get(t)),
                        -1,
                    )
                    self.report(
                        RaceReport(unit, READ_WRITE, tid, site, prev,
                                   rec.r_site, unit=g)
                    )
                # FastTrack WRITE SHARED: deflate the read clock.
                r.reset()
                sz = self.memory.sizes
                self.memory.sub(VECTOR_CLOCK, sz.vc_bytes(self.n_threads))
                self.live_vectors -= 1
            rec.wc = my_clock
            rec.wt = tid
            rec.w_site = site

    # ------------------------------------------------------------------
    # batched dispatch
    # ------------------------------------------------------------------
    # A coalesced run is classified against the same-epoch bitmap:
    # fully covered runs cost one test (every member would have
    # short-circuited), untouched runs cost one ranged call (the
    # per-unit work is identical to per-access replay), and partially
    # covered runs replay per access so covered members keep their
    # cheap bitmap exit.  Counter adjustments keep Table 4 statistics
    # identical to unbatched replay.

    def on_read_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        g = self.granularity
        n = size // width if width > 0 else 0
        if n > 1 and size % width == 0 and width % g == 0 and addr % g == 0:
            bm = self._bitmap(self._read_seen, tid)
            if bm.test(addr, size):
                self.total_accesses += n
                self.same_epoch_hits += n
                return
            if not bm.any_set(addr, size):
                self.on_read(tid, addr, size, site)
                self.total_accesses += n - 1
                return
            for a in range(addr, addr + size, width):
                self.on_read(tid, a, width, site)
            return
        self.on_read(tid, addr, size, site)

    def on_write_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        g = self.granularity
        n = size // width if width > 0 else 0
        if n > 1 and size % width == 0 and width % g == 0 and addr % g == 0:
            bm = self._bitmap(self._write_seen, tid)
            if bm.test(addr, size):
                self.total_accesses += n
                self.same_epoch_hits += n
                return
            if not bm.any_set(addr, size):
                self.on_write(tid, addr, size, site)
                self.total_accesses += n - 1
                return
            for a in range(addr, addr + size, width):
                self.on_write(tid, a, width, site)
            return
        self.on_write(tid, addr, size, site)

    # ------------------------------------------------------------------
    def check_access(
        self, tid: int, addr: int, size: int, site: int = 0,
        is_write: bool = False,
    ) -> None:
        """Race-check against recorded shadow without recording.

        The sampling tier's check-only path (PACER): an access skipped
        by the sampling policy can still catch a race whose other
        endpoint was recorded.  No shadow entry, bitmap bit or clock is
        created or updated — absent units stay absent.
        """
        vc = self._vc(tid)
        g = self.granularity
        base = addr - addr % g
        last = addr + size - 1
        table_get = self._table.get
        for unit in range(base, last - last % g + g, g):
            rec = table_get(unit)
            if rec is None:
                continue
            if rec.wc > vc.get(rec.wt):
                kind = WRITE_WRITE if is_write else WRITE_READ
                self.report(
                    RaceReport(unit, kind, tid, site, rec.wt, rec.w_site,
                               unit=g)
                )
            if is_write and not rec.r.leq(vc):
                prev = rec.r.racing_tids(vc)
                if prev:
                    # Resolved from the read clock; without a concrete
                    # racing reader the report is suppressed rather
                    # than surfacing a bogus tid -1.
                    self.report(
                        RaceReport(unit, READ_WRITE, tid, site, prev[0],
                                   rec.r_site, unit=g)
                    )

    # ------------------------------------------------------------------
    def seed_write(self, tid: int, clock: int, addr: int, size: int) -> None:
        """Backfill a write epoch for ``[addr, addr+size)``.

        Integration hook for instrumentation filters (Aikido-style)
        that skip private-phase accesses and must attribute them to the
        previous owner *at the clock they actually happened* when a
        page transitions to shared.  Only never-written units are
        seeded; real history is never overwritten.
        """
        g = self.granularity
        base = addr - addr % g
        last = addr + size - 1
        table_get = self._table.get
        for unit in range(base, last - last % g + g, g):
            rec = table_get(unit)
            if rec is None:
                rec = self._new_shadow(unit)
            if rec.wc == 0:
                rec.wc = clock
                rec.wt = tid

    # ------------------------------------------------------------------
    def on_free(self, tid: int, addr: int, size: int) -> None:
        sz = self.memory.sizes
        freed_vc_bytes = 0
        freed = 0
        for unit, rec in self._table.items_in_range(addr, size):
            freed += 1
            freed_vc_bytes += sz.location + 2 * sz.epoch
            if rec.r.vc is not None:
                freed_vc_bytes += sz.vc_bytes(self.n_threads)
                self.live_vectors -= 1
        if freed:
            self._table.delete_range(addr, size)
            self.memory.sub(VECTOR_CLOCK, freed_vc_bytes)
            self.live_vectors -= 2 * freed
            # Freed shadow may be recreated if the block is reused, and
            # races must not be suppressed for the new lifetime.
            stale = [a for a in self._racy if addr <= a < addr + size]
            self._racy.difference_update(stale)

    def finish(self) -> None:
        # One-shot: repeated finish() calls must not inflate the
        # modeled bitmap footprint (Table 2).
        if self._finished:
            return
        self._finished = True
        sz = self.memory.sizes
        pages = sum(
            bm.pages_touched_peak
            for bm in list(self._read_seen.values())
            + list(self._write_seen.values())
        )
        self.memory.add(BITMAP, pages * sz.bitmap_page)

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_shadow(rec: _Shadow) -> list:
        return [rec.wc, rec.wt, rec.w_site, rec.r.snapshot(), rec.r_site]

    @staticmethod
    def _decode_shadow(data: list) -> _Shadow:
        rec = _Shadow()
        rec.wc, rec.wt, rec.w_site = data[0], data[1], data[2]
        rec.r = ReadClock.from_snapshot(data[3])
        rec.r_site = data[4]
        return rec

    def snapshot_state(self) -> dict:
        return {
            "kind": "fasttrack-fixed",
            "granularity": self.granularity,
            "base": self._snapshot_base(),
            "runtime": self._snapshot_runtime(),
            "table": self._table.snapshot(self._encode_shadow),
            "read_seen": [
                [tid, bm.snapshot()] for tid, bm in sorted(self._read_seen.items())
            ],
            "write_seen": [
                [tid, bm.snapshot()] for tid, bm in sorted(self._write_seen.items())
            ],
            "counters": [
                self.same_epoch_hits,
                self.unit_fast_hits,
                self.checked_accesses,
                self.total_accesses,
                self.vc_allocs,
                self.max_vectors,
                self.live_vectors,
            ],
            "finished": self._finished,
            "memory": self.memory.state(),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "fasttrack-fixed":
            raise ValueError(
                f"cannot restore {state.get('kind')!r} state into {self.name}"
            )
        if state["granularity"] != self.granularity:
            raise ValueError(
                f"checkpoint granularity {state['granularity']} != "
                f"detector granularity {self.granularity}"
            )
        self._restore_base(state["base"])
        self._restore_runtime(state["runtime"])
        self._table.restore(state["table"], self._decode_shadow)
        self._read_seen = {
            tid: EpochBitmap.from_snapshot(s) for tid, s in state["read_seen"]
        }
        self._write_seen = {
            tid: EpochBitmap.from_snapshot(s) for tid, s in state["write_seen"]
        }
        (
            self.same_epoch_hits,
            self.unit_fast_hits,
            self.checked_accesses,
            self.total_accesses,
            self.vc_allocs,
            self.max_vectors,
            self.live_vectors,
        ) = state["counters"]
        self._finished = state["finished"]
        self.memory.restore_state(state["memory"])

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        return {
            "locations": len(self._table),
            "same_epoch_hits": self.same_epoch_hits,
            "unit_fast_hits": self.unit_fast_hits,
            "checked_accesses": self.checked_accesses,
            "total_accesses": self.total_accesses,
            "same_epoch_pct": (
                100.0 * self.same_epoch_hits / self.total_accesses
                if self.total_accesses
                else 0.0
            ),
            "vc_allocs": self.vc_allocs,
            "max_vectors": self.max_vectors,
            "threads": self.n_threads,
            "memory": self.memory.snapshot(),
        }
