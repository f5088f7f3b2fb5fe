"""The paper's Fig. 4 indexing structure.

A separate-chaining hash table maps byte addresses to shadow records.
Each hash entry covers ``m`` consecutive addresses (default 128): the
upper ``32 - log2(m)`` address bits select the entry, the lower
``log2(m)`` bits index into the entry's pointer array.

Entries are created with ``m/4`` slots — enough for word-aligned
accesses, the common pattern — and grow to ``m`` slots the first time a
non-word-aligned (byte) address lands in the entry.  This is the memory
optimisation the paper credits for the word detector's smaller index.

The structure also supports the sequential operations the detectors
need: range deletion (the ``free()`` hook) and nearest-neighbour search
(the dynamic-granularity sharing heuristic).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

#: What :meth:`ShadowTable.sole` and :meth:`ShadowTable.left_of_gap`
#: return when a range is not one record (or absence) throughout.
MIXED = object()


class ShadowTable:
    """Address-indexed shadow store with growable per-entry index arrays."""

    def __init__(self, m: int = 128, on_resize: Optional[Callable[[int, int], None]] = None):
        if m < 4 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 4, got {m}")
        self.m = m
        self._shift = m.bit_length() - 1
        self._mask = m - 1
        self._buckets: dict = {}
        #: called as on_resize(old_slots, new_slots) when an entry grows
        #: or is created/destroyed — drives incremental memory accounting.
        self._on_resize = on_resize
        # Counters for the memory model.
        self.entry_count = 0
        self.slot_count = 0
        self.item_count = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry_for(self, addr: int, create: bool):
        key = addr >> self._shift
        entry = self._buckets.get(key)
        if entry is None:
            if not create:
                return None, 0
            small = self.m // 4
            entry = [None] * small
            self._buckets[key] = entry
            self.entry_count += 1
            self.slot_count += small
            if self._on_resize:
                self._on_resize(0, small)
        low = addr & self._mask
        if len(entry) < self.m:
            if low & 3:
                if not create:
                    return None, 0
                # Byte access: expand m/4 word slots to m byte slots.
                grown = [None] * self.m
                for i, v in enumerate(entry):
                    grown[i << 2] = v
                self._buckets[key] = entry = grown
                self.slot_count += self.m - self.m // 4
                if self._on_resize:
                    self._on_resize(self.m // 4, self.m)
            else:
                return entry, low >> 2
        return entry, low

    # ------------------------------------------------------------------
    # point operations
    # ------------------------------------------------------------------
    def get(self, addr: int):
        """The record at ``addr`` or None.

        Hand-inlined version of :meth:`_entry_for` — this is the
        hottest call in every detector (profiled at ~25 calls per
        access before group-jump optimisations).
        """
        entry = self._buckets.get(addr >> self._shift)
        if entry is None:
            return None
        low = addr & self._mask
        if len(entry) < self.m:
            if low & 3:
                return None
            return entry[low >> 2]
        return entry[low]

    def set(self, addr: int, value) -> None:
        """Store ``value`` at ``addr`` (value must not be None)."""
        if value is None:
            raise ValueError("use delete() to remove a record")
        entry, idx = self._entry_for(addr, create=True)
        if entry[idx] is None:
            self.item_count += 1
        entry[idx] = value

    def delete(self, addr: int) -> bool:
        """Remove the record at ``addr``; True if one was present."""
        entry, idx = self._entry_for(addr, create=False)
        if entry is None or entry[idx] is None:
            return False
        entry[idx] = None
        self.item_count -= 1
        return True

    def __contains__(self, addr: int) -> bool:
        return self.get(addr) is not None

    def __len__(self) -> int:
        return self.item_count

    def get_run(self, lo: int, hi: int):
        """The records for ``[lo, hi)`` as a list, or None when the
        range is not serviceable in one slice (crosses an entry
        boundary, or the entry is still word-indexed).

        One slice operation replaces per-byte :meth:`get` calls in the
        detectors' hottest loop.
        """
        key = lo >> self._shift
        if (hi - 1) >> self._shift != key:
            return None
        entry = self._buckets.get(key)
        if entry is None:
            return [None] * (hi - lo)
        if len(entry) < self.m:
            if hi - lo == 1 and not lo & 3:
                # A single word-aligned byte is directly servable from
                # the word-indexed entry.
                return [entry[(lo & self._mask) >> 2]]
            return None
        i0 = lo & self._mask
        return entry[i0 : i0 + (hi - lo)]

    def sole(self, lo: int, hi: int):
        """The record every address in ``[lo, hi)`` holds: None when
        none holds one, :data:`MIXED` when they differ (records compare
        with ``==``, which is identity for the detectors' groups).

        One slice of one entry answers an access-sized range inside a
        byte-indexed entry; other ranges probe each address.
        """
        key = lo >> self._shift
        if (hi - 1) >> self._shift == key:
            entry = self._buckets.get(key)
            if entry is None:
                return None
            if len(entry) == self.m:
                i0 = lo & self._mask
                cells = entry[i0 : i0 + (hi - lo)]
                first = cells[0]
                return first if cells.count(first) == hi - lo else MIXED
        get = self.get
        first = get(lo)
        for a in range(lo + 1, hi):
            if get(a) is not first:
                return MIXED
        return first

    def left_of_gap(self, lo: int, hi: int):
        """The record at ``lo - 1`` (None if absent) when no address in
        ``[lo, hi)`` holds a record; :data:`MIXED` when one does.

        One slice of one entry answers when ``[lo - 1, hi)`` lies in a
        byte-indexed entry: the first-touch probe of an access.
        """
        i0 = lo & self._mask
        key = lo >> self._shift
        if i0 and (hi - 1) >> self._shift == key:
            entry = self._buckets.get(key)
            if entry is None:
                return None
            if len(entry) == self.m:
                cells = entry[i0 - 1 : i0 + (hi - lo)]
                left = cells[0]
                empty = cells.count(None) - (left is None)
                return left if empty == hi - lo else MIXED
        if self.sole(lo, hi) is not None:
            return MIXED
        return self.get(lo - 1)

    # ------------------------------------------------------------------
    # sequential operations
    # ------------------------------------------------------------------
    def set_range(self, lo: int, hi: int, value) -> int:
        """Store ``value`` at every address in ``[lo, hi)``; returns how
        many slots were previously empty.

        Works entry-by-entry with slice assignment — the bulk path for
        group creation and remapping (per-byte :meth:`set` is too slow
        for kilobyte-sized groups).
        """
        if value is None:
            raise ValueError("use delete_range() to remove records")
        m = self.m
        key = lo >> self._shift
        if (hi - 1) >> self._shift == key:
            # The common case: a range inside one byte-indexed entry.
            entry = self._buckets.get(key)
            if entry is not None and len(entry) == m:
                i0 = lo & self._mask
                i1 = i0 + (hi - lo)
                new_items = entry[i0:i1].count(None)
                entry[i0:i1] = [value] * (hi - lo)
                self.item_count += new_items
                return new_items
        new_items = 0
        a = lo
        while a < hi:
            key = a >> self._shift
            entry_end = (key + 1) << self._shift
            end = hi if hi < entry_end else entry_end
            entry = self._buckets.get(key)
            if entry is None:
                small = m // 4
                entry = [None] * small
                self._buckets[key] = entry
                self.entry_count += 1
                self.slot_count += small
                if self._on_resize:
                    self._on_resize(0, small)
            # A multi-byte run always contains unaligned addresses.
            needs_bytes = (end - a) > 1 or (a & 3)
            if needs_bytes and len(entry) < m:
                grown = [None] * m
                for i, v in enumerate(entry):
                    grown[i << 2] = v
                self._buckets[key] = entry = grown
                self.slot_count += m - m // 4
                if self._on_resize:
                    self._on_resize(m // 4, m)
            if len(entry) < m:  # single aligned byte on a small entry
                idx = (a & self._mask) >> 2
                if entry[idx] is None:
                    new_items += 1
                entry[idx] = value
            else:
                i0 = a & self._mask
                i1 = i0 + (end - a)
                seg = entry[i0:i1]
                new_items += seg.count(None)
                entry[i0:i1] = [value] * (i1 - i0)
            a = end
        self.item_count += new_items
        return new_items

    def delete_range(self, base: int, size: int) -> int:
        """Drop every record in ``[base, base+size)`` (the free() hook).

        Walks whole entries where possible, which is why the paper keeps
        indexing arrays rather than one flat chain per address.
        """
        removed = 0
        addr = base
        end = base + size
        while addr < end:
            key = addr >> self._shift
            entry = self._buckets.get(key)
            entry_end = (key + 1) << self._shift
            if entry is None:
                addr = entry_end
                continue
            span_end = end if end < entry_end else entry_end
            if len(entry) < self.m:
                for a in range(addr, span_end):
                    low = a & self._mask
                    if low & 3:
                        continue
                    idx = low >> 2
                    if entry[idx] is not None:
                        entry[idx] = None
                        removed += 1
            else:
                i0 = addr & self._mask
                i1 = i0 + (span_end - addr)
                seg = entry[i0:i1]
                removed += len(seg) - seg.count(None)
                entry[i0:i1] = [None] * (i1 - i0)
            addr = entry_end
        self.item_count -= removed
        return removed

    def items(self) -> Iterator[Tuple[int, object]]:
        """Yield every (addr, record) pair in the table (any order)."""
        for key, entry in self._buckets.items():
            base = key << self._shift
            if len(entry) < self.m:
                for idx, rec in enumerate(entry):
                    if rec is not None:
                        yield base + (idx << 2), rec
            else:
                for idx, rec in enumerate(entry):
                    if rec is not None:
                        yield base + idx, rec

    def items_in_range(self, base: int, size: int) -> Iterator[Tuple[int, object]]:
        """Yield (addr, record) pairs in ``[base, base+size)`` in order.

        Walks hash entries directly — absent entries are skipped
        wholesale and present ones are scanned as slot arrays, so the
        cost is O(entries + slots touched), not O(size) point lookups.
        """
        if size <= 0:
            return
        end = base + size
        buckets = self._buckets
        m = self.m
        key = base >> self._shift
        last_key = (end - 1) >> self._shift
        while key <= last_key:
            entry = buckets.get(key)
            if entry is not None:
                ebase = key << self._shift
                lo = base if base > ebase else ebase
                hi = end if end < ebase + m else ebase + m
                if len(entry) < m:
                    # Word-indexed: slot i covers address ebase + 4*i.
                    for idx in range((lo - ebase + 3) >> 2, (hi - ebase + 3) >> 2):
                        rec = entry[idx]
                        if rec is not None:
                            yield ebase + (idx << 2), rec
                else:
                    for idx in range(lo - ebase, hi - ebase):
                        rec = entry[idx]
                        if rec is not None:
                            yield ebase + idx, rec
            key += 1

    # ------------------------------------------------------------------
    # checkpoint serialization
    # ------------------------------------------------------------------
    def snapshot(self, encode: Optional[Callable] = None) -> dict:
        """JSON-able structural state of the table.

        Each bucket is ``[key, full, runs]``.  A run ``[first_slot,
        length, record]`` covers ``length`` consecutive occupied slots
        that hold the same object or records with equal encodings, so a
        group shared over a whole entry is one run, not one pair per
        byte.  Runs are maximal, never span an empty slot and never
        continue into the next bucket.

        Buckets are emitted in sorted-key order and slots in index
        order, so ``encode`` (applied to the first slot of each stretch
        of one object) observes records in strictly increasing address
        order — the group manager relies on this to assign
        deterministic group ids.
        """
        enc = encode if encode is not None else (lambda rec: rec)
        buckets = []
        for key in sorted(self._buckets):
            entry = self._buckets[key]
            runs = []
            prev = run = None
            for i, rec in enumerate(entry):
                if rec is None:
                    prev = run = None
                elif rec is prev:
                    run[1] += 1
                else:
                    prev = rec
                    code = enc(rec)
                    if run is not None and run[2] == code:
                        run[1] += 1
                    else:
                        run = [i, 1, code]
                        runs.append(run)
            buckets.append([key, 1 if len(entry) == self.m else 0, runs])
        return {
            "m": self.m,
            "entry_count": self.entry_count,
            "slot_count": self.slot_count,
            "item_count": self.item_count,
            "buckets": buckets,
        }

    def restore(self, state: dict, decode: Optional[Callable] = None) -> None:
        """Rebuild the table from :meth:`snapshot` output in place.

        ``decode`` runs once per slot, so every slot of a run gets its
        own decoded record (a per-byte FastTrack record stays private
        to its byte).  Buckets are built directly at their recorded
        size class, so ``on_resize`` never fires: the owner restores its
        memory-model counters verbatim instead of replaying allocation
        history.
        """
        if state["m"] != self.m:
            raise ValueError(f"snapshot m={state['m']} != table m={self.m}")
        dec = decode if decode is not None else (lambda rec: rec)
        small = self.m // 4
        buckets: dict = {}
        for key, full, runs in state["buckets"]:
            entry = [None] * (self.m if full else small)
            for first, length, rec in runs:
                for idx in range(first, first + length):
                    entry[idx] = dec(rec)
            buckets[key] = entry
        self._buckets = buckets
        self.entry_count = state["entry_count"]
        self.slot_count = state["slot_count"]
        self.item_count = state["item_count"]

    # ------------------------------------------------------------------
    # neighbour search (dynamic-granularity heuristic support)
    # ------------------------------------------------------------------
    def predecessor(self, addr: int, limit: int = 128):
        """Nearest (addr', record) with ``addr - limit <= addr' < addr``.

        Entry-walking: an absent hash entry skips up to ``m`` addresses
        in one dict miss (the per-byte version cost up to ``limit``
        misses per sharing decision).
        """
        lo = addr - limit
        if lo < 0:
            lo = 0
        a = addr - 1
        buckets = self._buckets
        m = self.m
        while a >= lo:
            key = a >> self._shift
            ebase = key << self._shift
            entry = buckets.get(key)
            if entry is not None:
                floor = lo if lo > ebase else ebase
                if len(entry) < m:
                    idx = (a - ebase) >> 2
                    stop = (floor - ebase + 3) >> 2
                    while idx >= stop:
                        rec = entry[idx]
                        if rec is not None:
                            return ebase + (idx << 2), rec
                        idx -= 1
                else:
                    idx = a - ebase
                    stop = floor - ebase
                    while idx >= stop:
                        rec = entry[idx]
                        if rec is not None:
                            return ebase + idx, rec
                        idx -= 1
            a = ebase - 1
        return None

    def successor(self, addr: int, limit: int = 128):
        """Nearest (addr', record) with ``addr < addr' <= addr + limit``.

        Entry-walking, like :meth:`predecessor`.
        """
        last = addr + limit  # inclusive
        a = addr + 1
        buckets = self._buckets
        m = self.m
        while a <= last:
            key = a >> self._shift
            ebase = key << self._shift
            entry = buckets.get(key)
            if entry is not None:
                span_last = last if last < ebase + m - 1 else ebase + m - 1
                if len(entry) < m:
                    idx = (a - ebase + 3) >> 2
                    stop = (span_last - ebase) >> 2
                    while idx <= stop:
                        rec = entry[idx]
                        if rec is not None:
                            return ebase + (idx << 2), rec
                        idx += 1
                else:
                    idx = a - ebase
                    stop = span_last - ebase
                    while idx <= stop:
                        rec = entry[idx]
                        if rec is not None:
                            return ebase + idx, rec
                        idx += 1
            a = ebase + m
        return None
