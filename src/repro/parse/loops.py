"""Natural-loop detection on function CFGs (ParseAPI loop analysis).

Classic dominator-based algorithm: a back edge t -> h (where h dominates
t) defines a natural loop with header h whose body is everything that
reaches t without passing through h.  Loop nesting follows from body
containment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .cfg import Function


@dataclass
class Loop:
    """One natural loop."""

    header: int
    body: frozenset[int]                 # block start addresses, incl. header
    back_edges: list[tuple[int, int]]    # (tail, header)
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        d, p = 1, self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    def contains(self, other: "Loop") -> bool:
        return other.body < self.body or (
            other.body == self.body and other is not self and False)


def function_digraph(fn: Function) -> "nx.DiGraph":
    """Intraprocedural CFG as a networkx digraph over block addresses."""
    g = nx.DiGraph()
    for addr, block in fn.blocks.items():
        g.add_node(addr)
        for succ in fn.intraproc_successors(block):
            g.add_edge(addr, succ)
    return g


def dominators(fn: Function) -> dict[int, int]:
    """Immediate dominators of every reachable block (entry maps to
    itself)."""
    g = function_digraph(fn)
    if fn.entry not in g:
        return {}
    return nx.immediate_dominators(g, fn.entry)


def _dominates(idom: dict[int, int], a: int, b: int) -> bool:
    """True if a dominates b."""
    node = b
    while True:
        if node == a:
            return True
        parent = idom.get(node)
        if parent is None or parent == node:
            return a == node
        node = parent


def natural_loops(fn: Function) -> list[Loop]:
    """All natural loops, with nesting links, innermost-last by size."""
    g = function_digraph(fn)
    if fn.entry not in g:
        return []
    idom = nx.immediate_dominators(g, fn.entry)

    # Group back edges by header (merging loops sharing a header).
    by_header: dict[int, list[tuple[int, int]]] = {}
    for t, h in g.edges():
        if h in idom and t in idom and _dominates(idom, h, t):
            by_header.setdefault(h, []).append((t, h))

    loops: list[Loop] = []
    for header, backs in sorted(by_header.items()):
        body = {header}
        work = [t for t, _ in backs if t != header]
        while work:
            n = work.pop()
            if n in body:
                continue
            body.add(n)
            work.extend(p for p in g.predecessors(n) if p not in body)
        loops.append(Loop(header, frozenset(body), sorted(backs)))

    # Establish nesting: the parent is the smallest strictly-containing
    # loop.
    loops.sort(key=lambda l: len(l.body))
    for i, inner in enumerate(loops):
        candidates = [
            outer for outer in loops[i + 1:]
            if inner.body < outer.body or (
                inner.body <= outer.body and inner.header != outer.header)
        ]
        if candidates:
            parent = min(candidates, key=lambda l: len(l.body))
            inner.parent = parent
            parent.children.append(inner)
    return loops
