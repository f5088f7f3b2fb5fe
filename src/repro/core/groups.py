"""Clock groups: runs of shadow locations sharing one vector clock.

A *group* is the dynamic-granularity detection unit: a set of byte
addresses (a bounding range, possibly with never-accessed holes such as
struct padding) whose read — or write — history is one shared clock.
Groups are created at access granularity, merged with neighbours when
clocks are equal (the sharing heuristic), split at the second-epoch
decision point, and exploded into per-byte private clocks on a race.

:class:`GroupManager` owns one kind ("r" or "w" — the paper keeps read
and write locations separate, so only same-kind clocks ever share) and
does all the bookkeeping: the shadow index, membership counts, and the
memory/statistics accounting behind Tables 2 and 3.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.clocks.adaptive import ReadClock
from repro.core.state_machine import RACE
from repro.shadow.accounting import HASH, VECTOR_CLOCK, MemoryModel
from repro.shadow.hash_table import ShadowTable


class Group:
    """One shared clock and the locations it covers."""

    __slots__ = (
        "lo",       # bounding range [lo, hi); holes allowed inside
        "hi",
        "count",    # member bytes actually indexed to this group
        "state",    # repro.core.state_machine constant
        "born_c",   # epoch at creation: detects the second-epoch access
        "born_t",
        "wc",       # write epoch (write groups)
        "wt",
        "r",        # ReadClock (read groups)
        "site",     # last access site, for race reports
        "charged",  # clock bytes currently charged to the memory model
    )

    def __init__(self, lo: int, hi: int, state: int):
        self.lo = lo
        self.hi = hi
        self.count = hi - lo
        self.state = state
        self.born_c = 0
        self.born_t = 0
        self.wc = 0
        self.wt = 0
        self.r: Optional[ReadClock] = None
        self.site = 0
        self.charged = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Group([0x{self.lo:x},0x{self.hi:x}) count={self.count} "
            f"state={self.state})"
        )


class GroupStats:
    """Shared live/peak counters for both group kinds (Table 3)."""

    __slots__ = (
        "live_clocks",
        "max_clocks",
        "live_bytes",
        "groups_created",
        "avg_sharing_at_peak",
        "merges",
        "splits",
    )

    def __init__(self):
        self.live_clocks = 0
        self.max_clocks = 0
        self.live_bytes = 0
        self.groups_created = 0
        self.avg_sharing_at_peak = 0.0
        self.merges = 0
        self.splits = 0

    def bump(self) -> None:
        if self.live_clocks > self.max_clocks:
            self.max_clocks = self.live_clocks
            self.avg_sharing_at_peak = (
                self.live_bytes / self.live_clocks if self.live_clocks else 0.0
            )

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def state(self) -> list:
        """Positional counter state (floats round-trip exactly through
        JSON's shortest-repr encoding)."""
        return [
            self.live_clocks,
            self.max_clocks,
            self.live_bytes,
            self.groups_created,
            self.avg_sharing_at_peak,
            self.merges,
            self.splits,
        ]

    def restore_state(self, state: list) -> None:
        (
            self.live_clocks,
            self.max_clocks,
            self.live_bytes,
            self.groups_created,
            self.avg_sharing_at_peak,
            self.merges,
            self.splits,
        ) = state


class GroupManager:
    """Structure + accounting for one kind of clock group."""

    def __init__(
        self,
        kind: str,
        memory: MemoryModel,
        stats: GroupStats,
        index_share: float = 1.0,
    ):
        if kind not in ("r", "w"):
            raise ValueError(f"kind must be 'r' or 'w', got {kind!r}")
        self.kind = kind
        self.memory = memory
        self.stats = stats
        # The paper's tool keeps ONE index per address whose record
        # points to both the read and the write clock; our two logical
        # tables therefore each carry half the index cost, so the
        # Table 2 "Hash" column matches the byte detector's (the paper:
        # "indexing costs of the byte and the dynamic are almost same").
        self.index_share = index_share
        self.table = ShadowTable(on_resize=self._account_resize)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _account_resize(self, old_slots: int, new_slots: int) -> None:
        sz = self.memory.sizes
        delta = (new_slots - old_slots) * sz.pointer
        if old_slots == 0:
            delta += sz.entry_header
        self.memory.add(HASH, int(delta * self.index_share))

    def _clock_bytes(self, g: Group) -> int:
        sz = self.memory.sizes
        if self.kind == "w" or g.r is None or g.r.vc is None:
            return sz.epoch
        return sz.epoch + sz.vc_bytes(max(len(g.r.vc), 1))

    def _charge(self, g: Group) -> None:
        sz = self.memory.sizes
        g.charged = self._clock_bytes(g) + sz.group_header
        self.memory.add(VECTOR_CLOCK, g.charged)
        self.stats.live_clocks += 1
        self.stats.groups_created += 1
        self.stats.bump()

    def _discharge(self, g: Group) -> None:
        self.memory.sub(VECTOR_CLOCK, g.charged)
        g.charged = 0
        self.stats.live_clocks -= 1

    def recharge_clock(self, g: Group) -> None:
        """Re-account after the group's clock changed size (read-clock
        promotion to a full vector clock)."""
        sz = self.memory.sizes
        new = self._clock_bytes(g) + sz.group_header
        if new > g.charged:
            self.memory.add(VECTOR_CLOCK, new - g.charged)
        else:
            self.memory.sub(VECTOR_CLOCK, g.charged - new)
        g.charged = new

    # ------------------------------------------------------------------
    # membership primitives
    # ------------------------------------------------------------------
    def members(self, g: Group) -> Iterator[int]:
        """Member addresses of ``g`` in increasing order."""
        if g.count == g.hi - g.lo:  # hole-free: members == bounding range
            return iter(range(g.lo, g.hi))
        get = self.table.get
        return (a for a in range(g.lo, g.hi) if get(a) is g)

    # ------------------------------------------------------------------
    # structure operations
    # ------------------------------------------------------------------
    def new_group(self, lo: int, hi: int, state: int) -> Group:
        """Create a fully-populated group over ``[lo, hi)``.

        The caller initializes the clock fields afterwards; clock bytes
        are charged here (epoch-sized — promotions recharge).
        """
        g = Group(lo, hi, state)
        if self.kind == "r":
            g.r = ReadClock()
        self.table.set_range(lo, hi, g)
        self.stats.live_bytes += g.count
        self._charge(g)
        return g

    def adopt(self, g: Group, lo: int, hi: int) -> Group:
        """Extend ``g`` over the fresh range ``[lo, hi)``.

        The fast path for sequential initialization: the new bytes join
        the neighbouring group directly instead of materializing a
        one-access group that is immediately merged away.
        """
        self.table.set_range(lo, hi, g)
        g.count += hi - lo
        if lo < g.lo:
            g.lo = lo
        if hi > g.hi:
            g.hi = hi
        self.stats.live_bytes += hi - lo
        return g

    def merge(self, a: Group, b: Group) -> Group:
        """Combine two groups with equal clocks into one.

        The smaller group's members are remapped onto the larger; the
        freed clock is discharged.  Returns the survivor.
        """
        if a is b:
            return a
        survivor, victim = (a, b) if a.count >= b.count else (b, a)
        if victim.count == victim.hi - victim.lo:
            self.table.set_range(victim.lo, victim.hi, survivor)
        else:
            tset = self.table.set
            for addr in list(self.members(victim)):
                tset(addr, survivor)
        survivor.count += victim.count
        survivor.lo = min(survivor.lo, victim.lo)
        survivor.hi = max(survivor.hi, victim.hi)
        self._discharge(victim)
        self.stats.merges += 1
        self.stats.bump()
        return survivor

    def split_out(self, g: Group, lo: int, hi: int) -> Group:
        """Extract ``g``'s members inside ``[lo, hi)`` into a new group
        carrying a *copy* of the clock (the second-epoch split)."""
        if g.count == g.hi - g.lo:
            span_lo, span_hi = max(lo, g.lo), min(hi, g.hi)
            if span_hi - span_lo == g.count:
                return g  # the split covers the whole group
            ng = Group(span_lo, span_hi, g.state)
            self._copy_clock(g, ng)
            self.table.set_range(span_lo, span_hi, ng)
        else:
            get = self.table.get
            addrs = [a for a in range(lo, hi) if get(a) is g]
            if len(addrs) == g.count:
                # The split covers the whole group: nothing leaves.
                return g
            ng = Group(addrs[0], addrs[-1] + 1, g.state)
            ng.count = len(addrs)
            self._copy_clock(g, ng)
            tset = self.table.set
            for a in addrs:
                tset(a, ng)
        g.count -= ng.count
        # Trim the old bounding range when the split was at an edge.
        if lo <= g.lo:
            g.lo = hi
        elif hi >= g.hi:
            g.hi = lo
        self._charge(ng)
        self.stats.splits += 1
        return ng

    def _copy_clock(self, src: Group, dst: Group) -> None:
        dst.born_c = src.born_c
        dst.born_t = src.born_t
        dst.site = src.site
        if self.kind == "w":
            dst.wc = src.wc
            dst.wt = src.wt
        else:
            dst.r = src.r.copy()

    def clocks_equal(self, a: Group, b: Group) -> bool:
        """The sharing predicate: same access-history clock value."""
        if self.kind == "w":
            return a.wc == b.wc and a.wt == b.wt
        return a.r == b.r

    def explode_to_race(self, g: Group) -> List[Group]:
        """A race dissolved the group: every member becomes a singleton
        ``Race`` group with a private copy of the clock."""
        addrs = list(self.members(g))
        self.stats.live_bytes -= g.count
        self._discharge(g)
        out = []
        tset = self.table.set
        for a in addrs:
            sg = Group(a, a + 1, RACE)
            self._copy_clock(g, sg)
            tset(a, sg)
            self.stats.live_bytes += 1
            self._charge(sg)
            out.append(sg)
        return out

    def evict(self, g: Group) -> int:
        """Forget ``g`` entirely: unindex every member and discharge its
        clock, as if the locations were never accessed.

        This is the budget-pressure escape hatch
        (:class:`repro.detectors.guards.GuardedDetector`): the next
        access to an evicted byte re-inserts it with a fresh history, so
        eviction can only *miss* races, never invent them.  Returns the
        number of members removed.
        """
        if g.charged == 0:
            return 0
        if g.count == g.hi - g.lo:
            removed = self.table.delete_range(g.lo, g.hi - g.lo)
        else:
            removed = 0
            delete = self.table.delete
            for addr in list(self.members(g)):
                if delete(addr):
                    removed += 1
        self.stats.live_bytes -= removed
        g.count = 0
        self._discharge(g)
        return removed

    def live_groups(self) -> List[Group]:
        """Every live group, in increasing ``lo`` order (O(members) —
        budget-degradation and test use only)."""
        seen: dict = {}
        for _addr, g in self.table.items():
            seen[id(g)] = g
        return sorted(seen.values(), key=lambda g: (g.lo, g.hi))

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able state: the group records plus the member index.

        Group ids are assigned in first-member (lowest address) order —
        :meth:`ShadowTable.snapshot` visits records in strictly
        increasing address order, so the encoding is deterministic for
        identical logical state regardless of creation history.  The
        table is written as runs, so ``encode`` runs once per run of a
        group's members in a bucket, not once per member byte.
        """
        order: List[Group] = []
        ids: dict = {}

        def encode(g: Group) -> int:
            gid = ids.get(id(g))
            if gid is None:
                gid = ids[id(g)] = len(order)
                order.append(g)
            return gid

        table = self.table.snapshot(encode)
        groups = [
            [
                g.lo,
                g.hi,
                g.count,
                g.state,
                g.born_c,
                g.born_t,
                g.wc,
                g.wt,
                g.site,
                g.charged,
                g.r.snapshot() if g.r is not None else None,
            ]
            for g in order
        ]
        return {"kind": self.kind, "groups": groups, "table": table}

    def restore(self, state: dict) -> None:
        """Rebuild groups and index in place from :meth:`snapshot`.

        Accounting does not fire: memory-model counters and the shared
        :class:`GroupStats` are restored verbatim by the owning
        detector, which is why ``charged`` is part of the group record.
        """
        if state["kind"] != self.kind:
            raise ValueError(
                f"snapshot kind {state['kind']!r} != manager kind {self.kind!r}"
            )
        groups: List[Group] = []
        for lo, hi, count, gstate, born_c, born_t, wc, wt, site, charged, r in state[
            "groups"
        ]:
            g = Group(lo, hi, gstate)
            g.count = count
            g.born_c = born_c
            g.born_t = born_t
            g.wc = wc
            g.wt = wt
            g.site = site
            g.charged = charged
            g.r = ReadClock.from_snapshot(r) if r is not None else None
            groups.append(g)
        self.table.restore(state["table"], lambda gid: groups[gid])

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def overlaps(self, a: int, b: int) -> List[Tuple[int, int, Optional[Group]]]:
        """Segment ``[a, b)`` into maximal runs of (same group | absent).

        Returns ``(lo, hi, group_or_None)`` triples in address order.
        """
        segs: List[Tuple[int, int, Optional[Group]]] = []
        get = self.table.get
        # Fast path: an access-sized range inside one hash entry comes
        # back as one slice; walking a short list beats per-byte gets.
        cells = self.table.get_run(a, b) if b - a <= 64 else None
        if cells is not None:
            x = a
            n = b - a
            i = 0
            while i < n:
                g = cells[i]
                j = i + 1
                if g is not None and g.count == g.hi - g.lo:
                    j = min(g.hi, b) - a
                else:
                    while j < n and cells[j] is g:
                        j += 1
                segs.append((a + i, a + j, g))
                i = j
            return segs
        x = a
        while x < b:
            g = get(x)
            if g is not None and g.count == g.hi - g.lo:
                # Hole-free group: jump to its end without probing.
                run = g.hi if g.hi < b else b
            else:
                run = x + 1
                while run < b and get(run) is g:
                    run += 1
            segs.append((x, run, g))
            x = run
        return segs

    def nearest_left(self, addr: int, limit: int) -> Optional[Group]:
        """Group of the nearest member byte in ``[addr-limit, addr)``."""
        hit = self.table.predecessor(addr, limit)
        return hit[1] if hit is not None else None

    def nearest_right(self, addr: int, limit: int) -> Optional[Group]:
        """Group of the nearest member byte in ``(addr, addr+limit]``."""
        hit = self.table.successor(addr, limit)
        return hit[1] if hit is not None else None

    # ------------------------------------------------------------------
    def remove_range(self, a: int, b: int) -> None:
        """Drop every member in ``[a, b)`` — the free() hook."""
        segs = self.overlaps(a, b)
        removed = self.table.delete_range(a, b - a)
        if not removed:
            return
        self.stats.live_bytes -= removed
        seen = set()
        for lo, hi, g in segs:
            if g is None:
                continue
            g.count -= hi - lo
            if g.count == 0 and id(g) not in seen:
                seen.add(id(g))
                self._discharge(g)
