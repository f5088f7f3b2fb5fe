"""FastTrack with dynamic granularity (paper §III-IV).

Detection starts at byte granularity; neighbouring locations initialized
with the same clock share it (temporarily during the first epoch, firmly
at the second-epoch decision), so one clock — and one same-epoch check —
covers a whole group.  The state machine in
:mod:`repro.core.state_machine` bounds sharing decisions to at most two
per location lifetime; races dissolve sharing.

The access paths mirror the paper's Fig. 3 pseudocode::

    if non-shared or same-epoch: return          # bitmap + group fast path
    L = find(addr) or insert(addr, size) + shareFirstEpoch    # Init
    if L.state is Init and a new epoch: split + shareSecondEpoch
    FastTrack race check / clock update on the (possibly merged) group
    if race found: splitAndSetRace

Group-as-location semantics: a group *is* the detection unit, so an
access to any member checks and updates the one shared clock for all
members.  Two consequences produce the paper's Table 4 same-epoch jump
(e.g. streamcluster 51% → 97%):

* second-epoch decisions compare the *stamped* (post-update) clock, so
  a wholesale sweep re-coalesces into one firm group whose first access
  per epoch covers the rest via the group fast path;
* a read of one member marks the whole read group in the thread's
  same-epoch bitmap — reads only record history, so the skipped
  recordings are the paper's "minimal loss in detection precision"
  (never a false alarm).

Partial accesses to a firm group update the whole group's clock, which
is the documented source of the rare extra false alarms ("inaccurate
updates of vector clocks when large detection granularities are used",
Table 1).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from repro.core.config import DynamicConfig
from repro.core.groups import Group, GroupManager, GroupStats
from repro.core.state_machine import (
    INIT_PRIVATE,
    INIT_SHARED,
    PRIVATE,
    RACE,
    SHARED,
    is_init,
)
from repro.detectors.base import (
    READ_WRITE,
    WRITE_READ,
    WRITE_WRITE,
    RaceReport,
    VectorClockRuntime,
    expand_run,
)
from repro.shadow.accounting import BITMAP, HASH, MemoryModel, SizeModel
from repro.shadow.bitmap import EpochBitmap


def _stamped(mgr: GroupManager, g: Group, clock: int, tid: int) -> bool:
    """``g`` already carries ``tid``'s current epoch on ``mgr``'s side
    (the write epoch, or the read clock's same-epoch test)."""
    if mgr.kind == "w":
        return g.wc == clock and g.wt == tid
    return g.r.same_epoch(clock, tid)


class DynamicGranularityDetector(VectorClockRuntime):
    """FastTrack + the dynamic-granularity sharing heuristic."""

    name = "fasttrack-dynamic"

    #: Access paths materialize deferred epochs, so the sampling tier
    #: may enable lazy sampled-epoch timestamping (ALGORITHM.md §14).
    supports_lazy_epochs = True
    supports_check_access = True

    def __init__(
        self,
        config: DynamicConfig = DynamicConfig(),
        suppress: Optional[Callable[[int], bool]] = None,
        sizes: SizeModel = SizeModel(),
    ):
        super().__init__(suppress)
        self.config = config
        self.memory = MemoryModel(sizes)
        # One logical index (paired read/write pointers per address)
        # realized as two tables: each charges half (see GroupManager).
        self.memory.add(HASH, sizes.n_buckets * sizes.bucket)
        self.group_stats = GroupStats()
        self._wg = GroupManager("w", self.memory, self.group_stats, index_share=0.5)
        self._rg = GroupManager("r", self.memory, self.group_stats, index_share=0.5)
        self._read_seen: Dict[int, EpochBitmap] = {}
        self._write_seen: Dict[int, EpochBitmap] = {}
        # Table 1/4 statistics.
        self.total_accesses = 0
        self.same_epoch_hits = 0
        self.checked_accesses = 0
        self._finished = False

    # ------------------------------------------------------------------
    # epoch bookkeeping
    # ------------------------------------------------------------------
    def new_epoch(self, tid: int) -> None:
        super().new_epoch(tid)
        bm = self._read_seen.get(tid)
        if bm is not None:
            bm.reset()
        bm = self._write_seen.get(tid)
        if bm is not None:
            bm.reset()

    def _bitmap(self, table, tid: int) -> EpochBitmap:
        bm = table.get(tid)
        if bm is None:
            bm = table[tid] = EpochBitmap()
        return bm

    # ------------------------------------------------------------------
    # sharing heuristic
    # ------------------------------------------------------------------
    def _first_access(
        self, mgr: GroupManager, lo: int, hi: int, clock: int, tid: int,
        vc, site: int,
    ) -> Group:
        """Insert a new location spanning one access and apply the
        first-epoch (temporary) sharing rule."""
        cfg = self.config
        if cfg.init_state and cfg.share_at_init:
            # Sequential-init fast path: extend the adjacent Init group
            # instead of creating and immediately merging a new one.
            left = mgr.table.get(lo - 1)
            if (
                left is not None
                and is_init(left.state)
                and (
                    (left.wc == clock and left.wt == tid)
                    if mgr.kind == "w"
                    else left.r.same_epoch(clock, tid)
                )
            ):
                g = mgr.adopt(left, lo, hi)
                g.state = INIT_SHARED
                g.site = site
                return g
        state0 = INIT_PRIVATE if cfg.init_state else PRIVATE
        g = mgr.new_group(lo, hi, state0)
        g.born_c = clock
        g.born_t = tid
        g.site = site
        if mgr.kind == "w":
            g.wc = clock
            g.wt = tid
        else:
            g.r.record(clock, tid, vc)
        if cfg.init_state and not cfg.share_at_init:
            return g  # Table 5 "no sharing at Init" variant
        limit = cfg.neighbor_scan_limit
        for cand in (mgr.nearest_left(lo, limit), mgr.nearest_right(hi - 1, limit)):
            if cand is None or cand is g:
                continue
            if cfg.init_state:
                eligible = is_init(cand.state)
                shared_state = INIT_SHARED
            else:
                eligible = cand.state != RACE
                shared_state = SHARED
            if eligible and mgr.clocks_equal(g, cand):
                g = mgr.merge(g, cand)
                g.state = shared_state
        if not cfg.init_state and g.state != SHARED:
            g.state = SHARED if g.count > 1 else PRIVATE
        return g

    def _second_epoch(
        self,
        mgr: GroupManager,
        g: Group,
        lo: int,
        hi: int,
        acc_size: int,
        c: int,
        tid: int,
        vc,
    ) -> Group:
        """The firm decision: split the accessed bytes out of the Init
        group and re-decide their sharing for the rest of their
        lifetime.  The un-accessed remainder keeps the old clock and
        waits for its own second epoch.
        """
        sg = mgr.split_out(g, lo, hi)
        if sg is not g and g.count:
            # The remainder keeps waiting for its own second epoch.
            g.state = INIT_SHARED if g.count > 1 else INIT_PRIVATE
        # Stamp the split part before comparing, so "accessed in the
        # same epoch as the neighbour's latest access" merges — this is
        # what re-coalesces a wholesale sweep into one firm group.
        self._stamp(mgr, sg, c, tid, vc)
        sg.state = PRIVATE
        # "No read-read conflict": sharing requires the neighbour's read
        # history to match exactly — ReadClock equality compares full
        # vector contents, so lockstep read-shared sweeps still merge
        # while genuinely divergent read histories stay separate.
        if self._may_share_reads(mgr, sg):
            for cand in self._decision_neighbors(mgr, sg, acc_size):
                if cand.state in (SHARED, PRIVATE) and mgr.clocks_equal(sg, cand):
                    sg = mgr.merge(sg, cand)
        sg.state = SHARED if sg.count > 1 else PRIVATE
        return sg

    def _stamp(self, mgr: GroupManager, g: Group, c: int, tid: int, vc) -> None:
        """Advance a group's clock to the current access epoch."""
        if mgr.kind == "w":
            g.wc = c
            g.wt = tid
        else:
            was_shared = g.r.vc is not None
            g.r.record(c, tid, vc)
            if g.r.vc is not None and not was_shared:
                mgr.recharge_clock(g)

    def _mark_read_groups(
        self, tid: int, touched: List[Group], lo: int, hi: int
    ) -> None:
        """Mark hole-free read groups' full extent in the thread's read
        bitmap (once one member was recorded this epoch, reads of its
        group-mates are same-epoch accesses)."""
        bm = None
        for g in touched:
            if (
                g.charged
                and g.count == g.hi - g.lo
                and (g.lo < lo or g.hi > hi)
            ):
                if bm is None:
                    bm = self._bitmap(self._read_seen, tid)
                bm.set_range(g.lo, g.count)

    def _may_share_reads(self, mgr: GroupManager, sg: Group) -> bool:
        """§VII future work: gate read-side sharing on the write side."""
        if mgr.kind == "w" or not self.config.guide_reads_by_writes:
            return True
        wg = self._wg.table.get(sg.lo)
        return wg is not None and wg.state == SHARED

    def _decision_neighbors(
        self, mgr: GroupManager, sg: Group, acc_size: int
    ) -> List[Group]:
        """The paper's second-epoch neighbours: locations at L-size and
        L+size (we also look at the directly adjacent byte, which covers
        neighbouring groups of other widths)."""
        get = mgr.table.get
        cands: List[Group] = []
        seen = {id(sg)}
        for addr in (sg.lo - 1, sg.lo - acc_size, sg.hi, sg.hi + acc_size - 1):
            if addr < 0:
                continue
            g = get(addr)
            if g is not None and id(g) not in seen:
                seen.add(id(g))
                cands.append(g)
        return cands

    def _maybe_reshare(
        self, mgr: GroupManager, g: Group, acc_size: int, c: int, tid: int, vc
    ) -> Group:
        """§VII future work: re-run the sharing decision for Private
        groups on later new-epoch accesses (same post-update comparison
        as the second-epoch decision)."""
        self._stamp(mgr, g, c, tid, vc)
        for cand in self._decision_neighbors(mgr, g, acc_size):
            if cand.state in (SHARED, PRIVATE) and mgr.clocks_equal(g, cand):
                g = mgr.merge(g, cand)
                g.state = SHARED
        return g

    # ------------------------------------------------------------------
    # race handling
    # ------------------------------------------------------------------
    def _report_group(
        self, mgr: GroupManager, g: Group, kind: str, tid: int, site: int,
        prev_tid: int,
    ) -> None:
        """Report a race for every location sharing the clock (the
        paper's x264 effect: group-mates count as racy locations)."""
        unit = g.count
        prev_site = g.site
        for addr in list(mgr.members(g)):
            self.report(
                RaceReport(addr, kind, tid, site, prev_tid, prev_site, unit=unit)
            )

    def _set_race(self, mgr: GroupManager, groups) -> None:
        seen = set()
        for g in groups:
            if id(g) in seen or g.charged == 0:
                continue
            seen.add(id(g))
            if g.count == 1:
                g.state = RACE
            else:
                mgr.explode_to_race(g)

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def on_write(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        self.total_accesses += 1
        if self._bitmap(self._write_seen, tid).test_and_set(addr, size):
            self.same_epoch_hits += 1
            return
        vc = self._vc(tid)
        c = vc.get(tid)
        end = addr + size
        wm = self._wg
        g = wm.table.get(addr)
        if (
            g is not None
            and g.wc == c
            and g.wt == tid
            and g.lo <= addr
            and g.hi >= end
            and g.count == g.hi - g.lo
        ):
            # Group fast path: a group-mate was already checked this
            # epoch — the paper's "multiple accesses become the same
            # epoch accesses" speedup.
            self.same_epoch_hits += 1
            return

        cfg = self.config
        raced: List[Group] = []
        seg0 = g
        if (
            seg0 is not None
            and seg0.lo <= addr
            and seg0.hi >= end
            and seg0.count == seg0.hi - seg0.lo
        ):
            segments = ((addr, end, seg0),)
        else:
            segments = wm.overlaps(addr, end)
        for lo, hi, seg in segments:
            if seg is None:
                self._first_access(wm, lo, hi, c, tid, vc, site)
                continue
            if seg.wc == c and seg.wt == tid:
                continue
            self.checked_accesses += 1
            is_race = seg.wc > vc.get(seg.wt)
            if is_race and seg.state == RACE and seg.lo in self._racy:
                # Already dissolved and reported: just take the update.
                seg.wc = c
                seg.wt = tid
                seg.site = site
                continue
            if cfg.init_state and is_init(seg.state):
                if is_race:
                    # Isolate the accessed part; no remainder stamping
                    # so the other fragments are re-checked (and
                    # reported) on their own accesses, like byte mode.
                    seg = wm.split_out(seg, lo, hi)
                else:
                    seg = self._second_epoch(wm, seg, lo, hi, size, c, tid, vc)
            elif cfg.resharing_interval and seg.state == PRIVATE and not is_race:
                seg = self._maybe_reshare(wm, seg, size, c, tid, vc)
            if is_race:
                self._report_group(wm, seg, WRITE_WRITE, tid, site, seg.wt)
                raced.append(seg)
            seg.wc = c
            seg.wt = tid
            seg.site = site
        # Read-history check (FastTrack's read-write rule), once per
        # overlapping read group.
        rm = self._rg
        rg0 = rm.table.get(addr)
        if (
            rg0 is not None
            and rg0.lo <= addr
            and rg0.hi >= end
            and rg0.count == rg0.hi - rg0.lo
        ):
            read_segs = ((addr, end, rg0),)
        else:
            read_segs = rm.overlaps(addr, end)
        raced_reads: List[Group] = []
        for lo, hi, rg in read_segs:
            if rg is None:
                continue
            r = rg.r
            if not r.leq(vc):
                if rg.state == RACE and rg.lo in self._racy:
                    continue
                prev = r.racing_tids(vc)
                self._report_group(
                    rm, rg, READ_WRITE, tid, site, prev[0] if prev else -1
                )
                raced_reads.append(rg)
                for lo2, hi2, wg2 in wm.overlaps(lo, hi):
                    if wg2 is not None:
                        raced.append(wg2)
            if r.vc is not None:
                # FastTrack WRITE SHARED: deflate the read clock.
                r.reset()
                rm.recharge_clock(rg)
        if raced_reads:
            # Dissolve the racy read groups too, so the RACE guard
            # above short-circuits later conflicting writes instead of
            # re-running the full leq() check per member forever.
            self._set_race(rm, raced_reads)
        if raced:
            self._set_race(wm, raced)

    def on_read(self, tid: int, addr: int, size: int, site: int = 0) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        self.total_accesses += 1
        if self._bitmap(self._read_seen, tid).test_and_set(addr, size):
            self.same_epoch_hits += 1
            return
        vc = self._vc(tid)
        c = vc.get(tid)
        end = addr + size
        rm = self._rg
        g = rm.table.get(addr)
        if (
            g is not None
            and g.lo <= addr
            and g.hi >= end
            and g.count == g.hi - g.lo
            and g.r.same_epoch(c, tid)
        ):
            self.same_epoch_hits += 1
            return

        cfg = self.config
        raced: List[Group] = []
        touched: List[Group] = []
        seg0 = g
        if (
            seg0 is not None
            and seg0.lo <= addr
            and seg0.hi >= end
            and seg0.count == seg0.hi - seg0.lo
        ):
            segments = ((addr, end, seg0),)
        else:
            segments = rm.overlaps(addr, end)
        for lo, hi, seg in segments:
            if seg is None:
                touched.append(self._first_access(rm, lo, hi, c, tid, vc, site))
                continue
            if seg.r.same_epoch(c, tid):
                continue
            self.checked_accesses += 1
            if cfg.init_state and is_init(seg.state):
                parent = seg
                seg = self._second_epoch(rm, seg, lo, hi, size, c, tid, vc)
                if parent is not seg and parent.charged:
                    touched.append(parent)
            elif cfg.resharing_interval and seg.state == PRIVATE:
                seg = self._maybe_reshare(rm, seg, size, c, tid, vc)
            self._stamp(rm, seg, c, tid, vc)
            seg.site = site
            touched.append(seg)
        # Read side of the paper's group-granularity same-epoch rule:
        # one member read marks the whole location for this epoch, so
        # group-mates short-circuit at the bitmap.  Reads only record
        # history (no check can be missed into a false alarm); the
        # skipped recordings are the paper's "minimal loss in detection
        # precision".
        self._mark_read_groups(tid, touched, addr, end)
        # Write-history check (FastTrack's write-read rule).
        wm = self._wg
        wg0 = wm.table.get(addr)
        if (
            wg0 is not None
            and wg0.lo <= addr
            and wg0.hi >= end
            and wg0.count == wg0.hi - wg0.lo
        ):
            write_segs = ((addr, end, wg0),)
        else:
            write_segs = wm.overlaps(addr, end)
        for lo, hi, wg in write_segs:
            if wg is None:
                continue
            if wg.wc > vc.get(wg.wt):
                if wg.state == RACE and wg.lo in self._racy:
                    continue
                self._report_group(wm, wg, WRITE_READ, tid, site, wg.wt)
                for lo2, hi2, rg2 in rm.overlaps(lo, hi):
                    if rg2 is not None:
                        raced.append(rg2)
        if raced:
            self._set_race(rm, raced)

    # ------------------------------------------------------------------
    # batched dispatch
    # ------------------------------------------------------------------
    # The granularity heuristic feeds on per-access sizes (group widths,
    # second-epoch neighbour offsets), so a run must act as its member
    # accesses.  _run takes a bulk exit only where that is exact by
    # construction: either the whole run provably lands on a same-epoch
    # fast path (with no state change beyond bitmap bits and counters,
    # applied wholesale), or it is a first touch of territory no
    # own-side group holds yet, where every member access would take
    # _first_access's adopt branch (see _first_touch).  Otherwise the
    # run is replayed access by access at its original width.

    def _first_touch(
        self, mgr: GroupManager, bm: EpochBitmap, tid: int, addr: int,
        end: int, width: int, site: int,
    ) -> bool:
        """Apply a run over territory no group of ``mgr`` holds in one
        step, when per-access replay would only grow one Init group;
        False (nothing changed) otherwise.

        Two shapes qualify, both with no bitmap bit set in the range and
        a no-op history check against the other kind for every member:

        * **fresh** — no group of ``mgr`` within neighbour-scan range:
          the first access builds a one-access Init group with nothing
          to merge, and every later access adopts into it;
        * **continuation** — the byte at ``addr - 1`` belongs to an Init
          group that passes the adopt test (this thread's epoch) and
          ``[addr, end)`` holds no group of ``mgr``: every access adopts
          into it.

        The first access of a fresh run is applied at its own width and
        the rest in one adopt, which charges no clock and calls no
        ``bump()``; so groups, index, bitmap, counters, memory and the
        sharing statistics all match per-access replay.  The other-kind
        check: a write needs no read group in the range (its
        read-history check could deflate a read clock); a read needs
        every overlapping write ordered before it.
        """
        cfg = self.config
        size = end - addr
        if not (cfg.init_state and cfg.share_at_init) or bm.any_set(addr, size):
            return False
        vc = self._vc(tid)
        c = vc.get(tid)
        table = mgr.table
        left = table.get(addr - 1) if addr else None
        if left is None:
            # nearest_left/nearest_right of the first access reach
            # neighbor_scan_limit bytes beyond the range.
            margin = cfg.neighbor_scan_limit
            start = addr - margin - 1
            if start < -1:
                start = -1
            if table.successor(start, end + margin - 1 - start) is not None:
                return False
        elif not (
            is_init(left.state)
            and _stamped(mgr, left, c, tid)
            and table.successor(addr - 1, size) is None
        ):
            return False
        if mgr.kind == "w":
            if self._rg.table.successor(addr - 1, size) is not None:
                return False
        elif not self._writes_ordered(vc, addr, end):
            return False
        lo = addr
        if left is None:
            left = self._first_access(mgr, lo, lo + width, c, tid, vc, site)
            lo += width
        g = mgr.adopt(left, lo, end)
        g.state = INIT_SHARED
        g.site = site
        if mgr.kind == "r" and g.count == g.hi - g.lo:
            # _mark_read_groups' whole-group mark after each adopt.
            bm.set_range(g.lo, g.count)
        else:
            bm.set_range(addr, size)
        self.total_accesses += size // width
        return True

    def _writes_ordered(self, vc, addr: int, end: int) -> bool:
        """Every write group overlapping ``[addr, end)`` happened before
        ``vc`` (a read there would pass its write-history check)."""
        successor = self._wg.table.successor
        a = addr - 1
        while True:
            hit = successor(a, end - 1 - a)
            if hit is None:
                return True
            wg = hit[1]
            if wg.wc > vc.get(wg.wt):
                return False
            # A hole-free group holds every byte of its range.
            a = wg.hi - 1 if wg.count == wg.hi - wg.lo else hit[0]

    def _covered(self, mgr: GroupManager, tid: int, addr: int, end: int) -> bool:
        """``[addr, end)`` lies in one hole-free group of ``mgr`` that
        ``tid`` already stamped in its current epoch: every access
        there hits the bitmap or the group fast path, and neither
        mutates group state."""
        g = mgr.table.get(addr)
        return (
            g is not None
            and g.lo <= addr
            and g.hi >= end
            and g.count == g.hi - g.lo
            and _stamped(mgr, g, self._vc(tid).get(tid), tid)
        )

    def _run(
        self, mgr: GroupManager, seen, on_access, tid: int, addr: int,
        size: int, width: int, site: int,
    ) -> None:
        if self.lazy_epochs:
            self._materialize_epoch(tid)
        n, rem = divmod(size, width) if width > 0 else (0, 1)
        if rem or n <= 1:
            on_access(tid, addr, size, site)
            return
        bm = self._bitmap(seen, tid)
        end = addr + size
        if bm.test(addr, size) or self._covered(mgr, tid, addr, end):
            # Every member access would hit the bitmap or the group
            # fast path; both only set bitmap bits.
            bm.set_range(addr, size)
            self.total_accesses += n
            self.same_epoch_hits += n
            return
        if self._first_touch(mgr, bm, tid, addr, end, width, site):
            return
        # An epoch re-sweep of one covering group only does real work
        # on the first access (which stamps the group); re-test the
        # covering fast path after it and bulk the remainder, exactly
        # as each remaining access would.
        on_access(tid, addr, width, site)
        a = addr + width
        if self._covered(mgr, tid, a, end):
            bm.set_range(a, end - a)
            self.total_accesses += n - 1
            self.same_epoch_hits += n - 1
            return
        expand_run(on_access, tid, a, end - a, width, site)

    def on_read_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        self._run(self._rg, self._read_seen, self.on_read,
                  tid, addr, size, width, site)

    def on_write_batch(
        self, tid: int, addr: int, size: int, width: int, site: int = 0
    ) -> None:
        self._run(self._wg, self._write_seen, self.on_write,
                  tid, addr, size, width, site)

    # ------------------------------------------------------------------
    def check_access(
        self, tid: int, addr: int, size: int, site: int = 0,
        is_write: bool = False,
    ) -> None:
        """Race-check ``[addr, addr+size)`` against the recorded group
        clocks without recording (the sampling tier's check-only path;
        see ALGORITHM.md §14).

        Reports only — no stamping, no sharing decisions, no group
        dissolution; ``self.report``'s first-race-per-location dedup is
        the sole state touched.  Pending lazy epochs are *not*
        materialized: check-only compares other threads' exported
        clocks, which deferral never changes.
        """
        vc = self._vc(tid)
        end = addr + size
        for lo, hi, wg in self._wg.overlaps(addr, end):
            if wg is None:
                continue
            if wg.wc > vc.get(wg.wt) and not (
                wg.state == RACE and wg.lo in self._racy
            ):
                kind = WRITE_WRITE if is_write else WRITE_READ
                self._report_group(self._wg, wg, kind, tid, site, wg.wt)
        if is_write:
            for lo, hi, rg in self._rg.overlaps(addr, end):
                if rg is None:
                    continue
                r = rg.r
                if not r.leq(vc):
                    if rg.state == RACE and rg.lo in self._racy:
                        continue
                    prev = r.racing_tids(vc)
                    if prev:
                        self._report_group(
                            self._rg, rg, READ_WRITE, tid, site, prev[0]
                        )

    # ------------------------------------------------------------------
    def on_free(self, tid: int, addr: int, size: int) -> None:
        self._wg.remove_range(addr, addr + size)
        self._rg.remove_range(addr, addr + size)
        stale = [a for a in self._racy if addr <= a < addr + size]
        self._racy.difference_update(stale)

    def finish(self) -> None:
        # One-shot: guard/compare drivers may call finish() more than
        # once, and the bitmap pages must be charged exactly once.
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
    def check_invariants(self) -> None:
        """Debug/test hook: verify the group structures are coherent.

        * every indexed address points at a live (charged) group;
        * each group's member count equals the number of addresses
          indexed to it, within its bounding range;
        * live statistics match the tables;
        * Init states only exist when the Init state is configured.

        Raises AssertionError on violation.  O(members) — test use only.
        """
        from collections import Counter

        total_bytes = 0
        total_clocks = 0
        for mgr in (self._wg, self._rg):
            counts: Counter = Counter()
            groups = {}
            for addr, g in mgr.table.items():
                assert g.charged > 0, f"dead group indexed at 0x{addr:x}"
                assert g.lo <= addr < g.hi, (
                    f"0x{addr:x} outside bounds of {g!r}"
                )
                if not self.config.init_state:
                    assert not is_init(g.state), f"Init state in {g!r}"
                counts[id(g)] += 1
                groups[id(g)] = g
            for gid, n in counts.items():
                g = groups[gid]
                assert g.count == n, f"{g!r} count {g.count} != indexed {n}"
                if mgr.kind == "w":
                    assert g.r is None
                else:
                    assert g.r is not None
            total_bytes += sum(counts.values())
            total_clocks += len(counts)
        st = self.group_stats
        assert st.live_bytes == total_bytes, (
            f"live_bytes {st.live_bytes} != indexed {total_bytes}"
        )
        assert st.live_clocks == total_clocks, (
            f"live_clocks {st.live_clocks} != groups {total_clocks}"
        )
        for cur in self.memory.current:
            assert cur >= 0, "memory accounting went negative"

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "kind": "fasttrack-dynamic",
            "config": dataclasses.asdict(self.config),
            "base": self._snapshot_base(),
            "runtime": self._snapshot_runtime(),
            "group_stats": self.group_stats.state(),
            "wg": self._wg.snapshot(),
            "rg": self._rg.snapshot(),
            "read_seen": [
                [tid, bm.snapshot()] for tid, bm in sorted(self._read_seen.items())
            ],
            "write_seen": [
                [tid, bm.snapshot()] for tid, bm in sorted(self._write_seen.items())
            ],
            "counters": [
                self.total_accesses,
                self.same_epoch_hits,
                self.checked_accesses,
            ],
            "finished": self._finished,
            "memory": self.memory.state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore in place: the group managers, shared stats object and
        memory model are mutated rather than replaced, so references
        held by wrappers (the budget guard) stay valid."""
        if state.get("kind") != "fasttrack-dynamic":
            raise ValueError(
                f"cannot restore {state.get('kind')!r} state into {self.name}"
            )
        if state["config"] != dataclasses.asdict(self.config):
            raise ValueError(
                "checkpoint was taken under a different DynamicConfig: "
                f"{state['config']} != {dataclasses.asdict(self.config)}"
            )
        self._restore_base(state["base"])
        self._restore_runtime(state["runtime"])
        self.group_stats.restore_state(state["group_stats"])
        self._wg.restore(state["wg"])
        self._rg.restore(state["rg"])
        self._read_seen = {
            tid: EpochBitmap.from_snapshot(s) for tid, s in state["read_seen"]
        }
        self._write_seen = {
            tid: EpochBitmap.from_snapshot(s) for tid, s in state["write_seen"]
        }
        (
            self.total_accesses,
            self.same_epoch_hits,
            self.checked_accesses,
        ) = state["counters"]
        self._finished = state["finished"]
        self.memory.restore_state(state["memory"])

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        st = self.group_stats
        return {
            "locations": len(self._wg.table) + len(self._rg.table),
            "same_epoch_hits": self.same_epoch_hits,
            "checked_accesses": self.checked_accesses,
            "total_accesses": self.total_accesses,
            "same_epoch_pct": (
                100.0 * self.same_epoch_hits / self.total_accesses
                if self.total_accesses
                else 0.0
            ),
            "max_vectors": st.max_clocks,
            "avg_sharing": st.avg_sharing_at_peak,
            "groups_created": st.groups_created,
            "merges": st.merges,
            "splits": st.splits,
            "threads": self.n_threads,
            "memory": self.memory.snapshot(),
        }
