"""Control-flow-graph model for ParseAPI: blocks, typed edges, functions.

Mirrors Dyninst's ParseAPI object model: a :class:`CodeObject` owns all
basic blocks (shared between functions when tail calls or overlapping
parses warrant it); each :class:`Function` references the blocks reached
from its entry.  Edges carry the classification the RISC-V branch
analysis produced (§3.1.3/§3.2.3): the same ``jalr`` opcode becomes a
CALL, RET, DIRECT jump, TAILCALL, or INDIRECT (jump-table) edge depending
on context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..instruction.insn import Insn


class EdgeType(enum.Enum):
    """Edge classifications (Dyninst ParseAPI edge types)."""

    CALL = "call"
    CALL_FT = "call-fallthrough"    # call site -> next instruction
    COND_TAKEN = "cond-taken"
    COND_NOT_TAKEN = "cond-not-taken"
    DIRECT = "direct"               # unconditional jump
    INDIRECT = "indirect"           # jump table / unresolved pointer
    RET = "return"
    FALLTHROUGH = "fallthrough"
    TAILCALL = "tailcall"


#: Edge types whose targets are *interprocedural* (leave the function).
INTERPROC_EDGES = frozenset(
    {EdgeType.CALL, EdgeType.RET, EdgeType.TAILCALL})

#: Edge types that stay inside the function.
_INTRAPROC_EDGES = frozenset(
    {EdgeType.COND_TAKEN, EdgeType.COND_NOT_TAKEN, EdgeType.DIRECT,
     EdgeType.FALLTHROUGH, EdgeType.CALL_FT, EdgeType.INDIRECT})


@dataclass
class Edge:
    """One control-flow edge.

    ``target`` is the destination address (None for returns and
    unresolved indirect flow).  ``resolved`` is False when the analysis
    could not determine where control goes (paper: "treats the jalr as
    unresolvable").
    """

    src: "Block"
    kind: EdgeType
    target: int | None = None
    resolved: bool = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = f"{self.target:#x}" if self.target is not None else "?"
        return f"<Edge {self.src.start:#x} -{self.kind.value}-> {t}>"


class Block:
    """A basic block: straight-line instructions, one entry, one exit."""

    __slots__ = ("start", "insns", "out_edges", "in_edges")

    def __init__(self, start: int, insns: list[Insn] | None = None):
        self.start = start
        self.insns: list[Insn] = insns if insns is not None else []
        self.out_edges: list[Edge] = []
        self.in_edges: list[Edge] = []

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        if not self.insns:
            return self.start
        last = self.insns[-1]
        return last.address + last.length

    @property
    def last(self) -> Insn | None:
        return self.insns[-1] if self.insns else None

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def instruction_at(self, addr: int) -> Insn | None:
        for insn in self.insns:
            if insn.address == addr:
                return insn
        return None

    def targets(self, *kinds: EdgeType) -> list[int]:
        return [e.target for e in self.out_edges
                if e.target is not None and (not kinds or e.kind in kinds)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Block {self.start:#x}..{self.end:#x} ({len(self.insns)} insns)>"


@dataclass
class Function:
    """A parsed function: entry block plus intraprocedurally reachable
    blocks."""

    entry: int
    name: str
    blocks: dict[int, Block] = field(default_factory=dict)
    #: addresses this function calls (CALL edges)
    callees: set[int] = field(default_factory=set)
    #: addresses this function tail-calls into
    tail_callees: set[int] = field(default_factory=set)
    #: True when at least one RET edge exists
    returns: bool = False
    #: jalr sites whose targets could not be determined symbolically
    unresolved: list[int] = field(default_factory=list)
    #: jalr sites resolved as jump tables: site -> sorted target list
    jump_tables: dict[int, list[int]] = field(default_factory=dict)

    @property
    def entry_block(self) -> Block:
        return self.blocks[self.entry]

    @property
    def size(self) -> int:
        """Bytes spanned by the function's blocks."""
        if not self.blocks:
            return 0
        return max(b.end for b in self.blocks.values()) - min(
            b.start for b in self.blocks.values())

    def block_at(self, addr: int) -> Block | None:
        """The block containing *addr* (not necessarily starting there)."""
        for b in self.blocks.values():
            if b.contains(addr):
                return b
        return None

    def instructions(self):
        for b in sorted(self.blocks.values(), key=lambda b: b.start):
            yield from b.insns

    def exit_blocks(self) -> list[Block]:
        """Blocks ending in a RET or TAILCALL edge (function exits)."""
        return [
            b for b in self.blocks.values()
            if any(e.kind in (EdgeType.RET, EdgeType.TAILCALL)
                   for e in b.out_edges)
        ]

    def call_sites(self) -> list[Block]:
        return [b for b in self.blocks.values()
                if any(e.kind is EdgeType.CALL for e in b.out_edges)]

    def intraproc_successors(self, block: Block) -> list[int]:
        """Successor block addresses within this function."""
        return [e.target for e in block.out_edges
                if e.kind in _INTRAPROC_EDGES and e.target in self.blocks]

    def intraproc_preds(self) -> dict[int, list[Edge | None]]:
        """Block start -> the edges into that block from this
        function's blocks, the inverse of :meth:`intraproc_successors`.
        The entry block's list also holds None, which stands for the
        function's callers."""
        preds: dict[int, list[Edge | None]] = {a: [] for a in self.blocks}
        if self.entry in preds:
            preds[self.entry].append(None)
        for b in self.blocks.values():
            for e in b.out_edges:
                if e.kind in _INTRAPROC_EDGES and e.target in preds:
                    preds[e.target].append(e)
        return preds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Function {self.name!r} @ {self.entry:#x}, "
                f"{len(self.blocks)} blocks>")
