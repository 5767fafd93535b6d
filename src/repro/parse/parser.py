"""ParseAPI traversal parsing: binary -> CFG (paper §2.1, §3.2.3).

Parsing starts from known entry points — the program entry point and
function symbols — and follows control-flow transfers, discovering new
function entries at call sites (and tail-call targets).  Blocks are
shared in a :class:`CodeObject`-wide map and split when a later-found
edge lands mid-block.  Regions the traversal never reaches are *gaps*;
:mod:`repro.parse.gaps` scans them for plausible prologues and parses
speculatively.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import defaultdict

from .. import telemetry
from ..dataflow.constprop import At
from ..instruction.insn import Insn, decode_insn
from ..riscv.decoder import DecodeError
from ..symtab.symtab import Symtab
from .branch_classify import Classification, ClassifyContext, classify
from .cfg import Block, Edge, EdgeType, Function


class CodeObject:
    """All parsed code of one binary: the global block map plus the
    discovered functions."""

    def __init__(self, symtab: Symtab):
        self.symtab = symtab
        self.functions: dict[int, Function] = {}
        self.blocks: dict[int, Block] = {}
        self._block_starts: list[int] = []
        self._names: dict[int, str] = {}
        self._insn_cache: dict[int, Insn] = {}
        #: owner index (built by :meth:`finalize_in_edges`): the sorted
        #: boundaries of every function's merged block ranges, and per
        #: boundary the functions holding the bytes up to the next one
        self._owner_bounds: list[int] = []
        self._owners: list[tuple[Function, ...]] = []

    # -- public API -------------------------------------------------------

    def parse(self, *, gap_parsing: bool = True) -> "CodeObject":
        """Parse from all known entry points (symbols + program entry),
        then from call-discovered entries, then (optionally) gaps."""
        with telemetry.current().span("parse.binary"):
            self._parse(gap_parsing=gap_parsing)
        rec = telemetry.current()
        if rec.enabled:
            rec.count("parse.functions", len(self.functions))
            rec.count("parse.blocks", len(self.blocks))
            rec.count("parse.instructions",
                      sum(len(b.insns) for b in self.blocks.values()))
        return self

    def _parse(self, *, gap_parsing: bool) -> None:
        entries: list[tuple[int, str]] = []
        for sym in self.symtab.function_symbols():
            entries.append((sym.address, sym.name))
        if self.symtab.is_code(self.symtab.entry) and not any(
                a == self.symtab.entry for a, _ in entries):
            entries.append((self.symtab.entry, "_entry"))
        for addr, name in entries:
            self._names.setdefault(addr, name)
        work = [a for a, _ in entries]
        while work:
            addr = work.pop()
            if addr in self.functions or not self.symtab.is_code(addr):
                continue
            fn = self._parse_function(addr)
            self.functions[addr] = fn
            for callee in sorted(fn.callees | fn.tail_callees):
                if callee not in self.functions:
                    work.append(callee)
        if gap_parsing:
            from .gaps import parse_gaps

            with telemetry.current().span("parse.gaps"):
                parse_gaps(self)
        self.finalize_in_edges()

    def finalize_in_edges(self) -> None:
        """(Re)compute in_edges on every block from the out_edges, and
        the owner index :meth:`functions_containing` reads.  Called
        after the last change to the CFG."""
        for b in self.blocks.values():
            b.in_edges = []
        for b in self.blocks.values():
            for e in b.out_edges:
                if e.target is not None and e.target in self.blocks:
                    self.blocks[e.target].in_edges.append(e)
        self._index_owners()

    def _index_owners(self) -> None:
        # Ranges, not block starts, carry the owners: a misaligned
        # decode can leave two functions' blocks overlapping.
        fns = list(self.functions.values())
        steps: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for i, fn in enumerate(fns):
            for lo, hi in _merge_ranges(
                    (b.start, b.end) for b in fn.blocks.values()):
                steps[lo].append((i, 1))
                steps[hi].append((i, -1))
        depth: dict[int, int] = defaultdict(int)
        self._owner_bounds = sorted(steps)
        self._owners = []
        for addr in self._owner_bounds:
            for i, d in steps[addr]:
                depth[i] += d
                if not depth[i]:
                    del depth[i]
            self._owners.append(tuple(fns[i] for i in sorted(depth)))

    def function_at(self, addr: int) -> Function | None:
        return self.functions.get(addr)

    def function_by_name(self, name: str) -> Function | None:
        for fn in self.functions.values():
            if fn.name == name:
                return fn
        return None

    def function_containing(self, addr: int) -> Function | None:
        owners = self.functions_containing(addr)
        return owners[0] if owners else None

    def functions_containing(self, addr: int) -> list[Function]:
        """Every function with a block containing *addr*, in
        ``functions`` order: one bisect into the owner index."""
        i = bisect_right(self._owner_bounds, addr) - 1
        return list(self._owners[i]) if i >= 0 else []

    def block_containing(self, addr: int) -> Block | None:
        i = bisect_right(self._block_starts, addr) - 1
        while i >= 0:
            b = self.blocks[self._block_starts[i]]
            if b.contains(addr):
                return b
            if b.end <= addr and b.insns:
                return None
            i -= 1
        return None

    def covered_ranges(self) -> list[tuple[int, int]]:
        """Sorted, merged [lo, hi) address ranges claimed by blocks."""
        return _merge_ranges((b.start, b.end) for b in self.blocks.values())

    # -- function-level parse ------------------------------------------------

    def _name_for(self, addr: int) -> str:
        return self._names.get(addr, f"func_{addr:x}")

    def _parse_function(self, entry: int) -> Function:
        with telemetry.current().span("parse.function"):
            return self._parse_function_inner(entry)

    def _parse_function_inner(self, entry: int) -> Function:
        fn = Function(entry, self._name_for(entry))
        work = [entry]
        known_entries = frozenset(
            set(self.functions) | set(self._names) - {entry})
        while work:
            addr = work.pop()
            if addr in fn.blocks:
                continue
            block = self.blocks.get(addr)
            if block is None:
                container = self.block_containing(addr)
                if container is not None and container.start != addr:
                    block = self._split(container, addr)
                    if block is None:
                        continue  # misaligned into existing code; skip
                    # The container may belong to this function already.
                else:
                    block = self._decode_block(addr, fn)
                    if block is None:
                        continue
            fn.blocks.setdefault(block.start, block)
            if not block.out_edges and block.insns:
                self._classify_terminal(block, fn, known_entries)
            self._absorb_edges(block, fn, work)
        return fn

    def _absorb_edges(self, block: Block, fn: Function,
                      work: list[int]) -> None:
        for e in block.out_edges:
            if e.kind is EdgeType.CALL:
                if e.target is not None:
                    fn.callees.add(e.target)
            elif e.kind is EdgeType.TAILCALL:
                if e.target is not None:
                    fn.tail_callees.add(e.target)
            elif e.kind is EdgeType.RET:
                fn.returns = True
            elif e.target is not None:
                if e.target not in fn.blocks:
                    work.append(e.target)
        term = block.last
        if term is not None and term.is_jalr:
            table = [e.target for e in block.out_edges
                     if e.kind is EdgeType.INDIRECT and e.target is not None]
            if table:
                fn.jump_tables[term.address] = sorted(table)
            if any(not e.resolved for e in block.out_edges) and \
                    term.address not in fn.unresolved:
                fn.unresolved.append(term.address)

    # -- block construction ---------------------------------------------------

    def _register_block(self, block: Block) -> None:
        self.blocks[block.start] = block
        insort(self._block_starts, block.start)

    def _decode_block(self, addr: int, fn: Function) -> Block | None:
        region = self.symtab.region_at(addr)
        if region is None or not region.executable:
            return None
        block = Block(addr)
        self._register_block(block)
        pc = addr
        while True:
            if pc != addr and (pc in self.blocks):
                # Ran into an existing block: fall through into it.
                block.out_edges.append(
                    Edge(block, EdgeType.FALLTHROUGH, pc))
                break
            if not region.contains(pc):
                break
            insn = self._insn_cache.get(pc)
            if insn is None:
                off = pc - region.addr
                try:
                    insn = decode_insn(region.data, off, pc)
                except DecodeError:
                    break  # undecodable: end the block (a gap follows)
                self._insn_cache[pc] = insn
            block.insns.append(insn)
            pc = insn.next_address
            if insn.writes_pc or insn.mnemonic == "ebreak":
                break
            if insn.mnemonic == "ecall":
                # Syscalls fall through (exit is not statically known).
                continue
        return block if block.insns else None

    def _split(self, container: Block, addr: int) -> Block | None:
        """Split *container* at *addr* (must be an instruction boundary)."""
        idx = next((i for i, insn in enumerate(container.insns)
                    if insn.address == addr), None)
        if idx is None:
            return None  # overlapping decode; caller parses fresh
        tail = Block(addr, container.insns[idx:])
        container.insns = container.insns[:idx]
        tail.out_edges = container.out_edges
        for e in tail.out_edges:
            e.src = tail
        container.out_edges = [Edge(container, EdgeType.FALLTHROUGH, addr)]
        self._register_block(tail)
        # Fix function membership for every function holding the container.
        for fn in self.functions.values():
            if container.start in fn.blocks:
                fn.blocks[tail.start] = tail
        return tail

    # -- terminal classification ----------------------------------------------

    def _mem_read(self, addr: int, size: int) -> int | None:
        try:
            blob = self.symtab.read(addr, size)
        except KeyError:
            return None
        if len(blob) < size:
            return None
        return int.from_bytes(blob, "little")

    def _classify_terminal(self, block: Block, fn: Function,
                           known_entries: frozenset[int]) -> None:
        term = block.last
        assert term is not None
        nxt = block.end

        if term.is_conditional_branch:
            target = term.direct_target()
            block.out_edges.append(
                Edge(block, EdgeType.COND_TAKEN, target))
            block.out_edges.append(
                Edge(block, EdgeType.COND_NOT_TAKEN, nxt))
            return
        if term.mnemonic == "ebreak":
            return  # trap: no static successors
        if not (term.is_jal or term.is_jalr):
            # Block ended by running into another block or a region end.
            if not block.out_edges and self.symtab.is_code(nxt):
                block.out_edges.append(
                    Edge(block, EdgeType.FALLTHROUGH, nxt))
            return

        ctx = ClassifyContext(
            current_entry=fn.entry,
            known_entries=known_entries,
            is_code=self.symtab.is_code,
            mem_reader=self._mem_read,
            in_current=lambda a: fn.block_at(a) is not None,
            # a jalr's backward slice runs on the function's CFG so far
            at=At(fn.intraproc_preds(), block, len(block.insns) - 1)
            if term.is_jalr else None,
        )
        c = classify(term, ctx)
        rec = telemetry.current()
        if rec.enabled:
            rec.count(f"parse.classify.{'jal' if term.is_jal else 'jalr'}"
                      f".{_classification_outcome(c)}")
        self._edges_from_classification(block, c, nxt)

    def _edges_from_classification(self, block: Block, c: Classification,
                                   nxt: int) -> None:
        if c.kind is EdgeType.CALL:
            block.out_edges.append(
                Edge(block, EdgeType.CALL, c.target, c.resolved))
            if self.symtab.is_code(nxt):
                block.out_edges.append(Edge(block, EdgeType.CALL_FT, nxt))
        else:
            for t in c.table_targets or [c.target]:
                block.out_edges.append(Edge(block, c.kind, t, c.resolved))


def _merge_ranges(spans) -> list[tuple[int, int]]:
    """Sorted [lo, hi) ranges with overlapping or touching ones merged."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _classification_outcome(c: Classification) -> str:
    """Telemetry bucket for one §3.2.3 jal/jalr disambiguation."""
    if c.kind is EdgeType.INDIRECT:
        return "jump_table" if c.table_targets else "unresolved"
    if not c.resolved:
        return "unresolved"
    return {
        EdgeType.CALL: "call",
        EdgeType.RET: "return",
        EdgeType.TAILCALL: "tail_call",
    }.get(c.kind, "jump")


def parse_binary(symtab: Symtab, *, gap_parsing: bool = True) -> CodeObject:
    """Convenience: parse a binary's full CFG."""
    return CodeObject(symtab).parse(gap_parsing=gap_parsing)
