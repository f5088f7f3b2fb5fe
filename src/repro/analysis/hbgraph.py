"""Happens-before graph extraction from traces.

Builds the partial order of §II-A as an explicit graph (networkx):
program-order edges within each thread, plus release→acquire,
fork→child and child→join edges.  Useful for visualizing why two
accesses are (or are not) ordered, for validating detectors against a
ground-truth reachability check, and for exporting DOT files.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.runtime.events import (
    ACQUIRE,
    FORK,
    JOIN,
    READ,
    RELEASE,
    WRITE,
)
from repro.runtime.trace import Trace

if TYPE_CHECKING:
    import networkx as nx

#: node label: (event index, op, tid, addr)
Node = int


def build_hb_graph(trace: Trace) -> "nx.DiGraph":
    """The happens-before DAG over event indices.

    Nodes carry ``op``/``tid``/``addr``/``size``/``site`` attributes;
    edges carry ``kind`` in {"po", "sync", "fork", "join"}.
    """
    import networkx as nx

    g = nx.DiGraph()
    last_of_thread: Dict[int, int] = {}
    # Sync objects accumulate releases (join semantics): an acquire is
    # ordered after *every* prior release on the object.  Acquires are
    # NOT ordered with each other (two barrier departures or semaphore
    # grabs are concurrent), so each acquire links to all prior
    # releases directly — quadratic in per-object sync density, which
    # is fine for the oracle-sized traces this module targets.
    releases_so_far: Dict[int, List[int]] = {}

    for i, ev in enumerate(trace.events):
        op, tid, addr, size, site = ev
        g.add_node(i, op=op, tid=tid, addr=addr, size=size, site=site)
        prev = last_of_thread.get(tid)
        if prev is not None:
            g.add_edge(prev, i, kind="po")
        last_of_thread[tid] = i

        if op == RELEASE:
            releases_so_far.setdefault(addr, []).append(i)
        elif op == ACQUIRE:
            for rel in releases_so_far.get(addr, ()):
                g.add_edge(rel, i, kind="sync")
        elif op == FORK:
            # the child's first event will attach via last_of_thread
            last_of_thread.setdefault(addr, i)
        elif op == JOIN:
            # the joined thread's last event happens-before the join
            target_last = _last_event_of(trace, addr, before=i)
            if target_last is not None:
                g.add_edge(target_last, i, kind="join")
    return g


def _last_event_of(trace: Trace, tid: int, before: int) -> Optional[int]:
    for i in range(before - 1, -1, -1):
        if trace.events[i][1] == tid:
            return i
    return None


def ordered(g: "nx.DiGraph", a: Node, b: Node) -> bool:
    """Is event ``a`` happens-before event ``b`` (or equal)?"""
    if a == b:
        return True
    import networkx as nx

    return nx.has_path(g, a, b)


def concurrent_access_pairs(
    trace: Trace, g: Optional["nx.DiGraph"] = None,
    max_pairs: int = 10_000,
) -> List[Tuple[int, int]]:
    """Ground-truth racy event pairs: same location, different threads,
    at least one write, unordered both ways.

    Quadratic in the number of conflicting accesses — this is the
    *oracle* for validating detectors on small traces, not a detector.
    """
    if g is None:
        g = build_hb_graph(trace)
    by_byte: Dict[int, List[int]] = {}
    for i, ev in enumerate(trace.events):
        if ev[0] in (READ, WRITE):
            for a in range(ev[2], ev[2] + ev[3]):
                by_byte.setdefault(a, []).append(i)
    # transitive closure via per-node descendant sets would explode;
    # rely on has_path per candidate pair and cap the work.
    pairs = set()
    checked = 0
    for addr, accesses in by_byte.items():
        for x in range(len(accesses)):
            for y in range(x + 1, len(accesses)):
                i, j = accesses[x], accesses[y]
                ei, ej = trace.events[i], trace.events[j]
                if ei[1] == ej[1]:
                    continue
                if ei[0] != WRITE and ej[0] != WRITE:
                    continue
                if (i, j) in pairs:
                    continue
                checked += 1
                if checked > max_pairs:
                    return sorted(pairs)
                if not ordered(g, i, j) and not ordered(g, j, i):
                    pairs.add((i, j))
    return sorted(pairs)


def racy_bytes(trace: Trace, max_pairs: int = 10_000) -> set:
    """Ground-truth set of byte addresses involved in any race."""
    g = build_hb_graph(trace)
    out = set()
    for i, j in concurrent_access_pairs(trace, g, max_pairs=max_pairs):
        ei, ej = trace.events[i], trace.events[j]
        lo = max(ei[2], ej[2])
        hi = min(ei[2] + ei[3], ej[2] + ej[3])
        out.update(range(lo, hi))
    return out


def to_dot(g: "nx.DiGraph", trace: Trace) -> str:
    """Render the happens-before graph as GraphViz DOT (sync edges
    highlighted, program order dim)."""
    from repro.runtime.events import OP_NAMES

    lines = ["digraph hb {", "  rankdir=TB;", "  node [shape=box];"]
    for n, data in g.nodes(data=True):
        label = f"{n}: T{data['tid']} {OP_NAMES[data['op']]}"
        if data["op"] in (READ, WRITE):
            label += f" 0x{data['addr']:x}"
        lines.append(f'  n{n} [label="{label}"];')
    style = {"po": ' [color=gray]', "sync": ' [color=red,penwidth=2]',
             "fork": ' [color=blue]', "join": ' [color=blue]'}
    for a, b, data in g.edges(data=True):
        lines.append(f"  n{a} -> n{b}{style.get(data['kind'], '')};")
    lines.append("}")
    return "\n".join(lines)
