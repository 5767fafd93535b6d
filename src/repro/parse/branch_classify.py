"""Classification of RISC-V multi-use control-flow instructions.

RISC-V has only ``jal`` and ``jalr`` for unconditional transfers
(paper §3.1.3); what they *mean* — call, return, jump, tail call, jump
table — must be recovered from context.  This module implements the
paper's §3.2.3 decision procedure:

jal:
  * links (rd is a link register) -> **call**
  * rd = x0, target is another function's entry -> **tail call**
  * rd = x0 otherwise -> **unconditional jump**

jalr — first resolve the target register by a backward slice along the
CFG (:func:`~repro.dataflow.constprop.resolve_register`); then:
  * resolved, in code, same function, rd = x0 -> **jump**
  * resolved, in code, another function, rd = x0 -> **tail call**
  * resolved, in code, rd links -> **call**
  * unresolved, rd = x0 and rs1 a conventional link register with a zero
    immediate -> **return** (the ubiquitous ``ret``; after a call the
    link register is unresolved, because the callee ran)
  * else run **jump-table analysis**; on success -> indirect jump with
    enumerated targets, unresolved when no bounds check proved the
    table's extent
  * else -> **unresolvable indirect**
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..dataflow.constprop import At, resolve_register
from ..instruction.insn import Insn, LINK_REGISTERS
from .cfg import EdgeType
from .jumptable import analyze_jump_table


@dataclass
class Classification:
    """Outcome of classifying one jal/jalr."""

    kind: EdgeType
    target: int | None = None
    resolved: bool = True
    table_targets: list[int] = field(default_factory=list)


@dataclass
class ClassifyContext:
    """What the classifier knows about its surroundings."""

    #: entry address of the function being parsed
    current_entry: int
    #: entries of other known functions (symbols + discovered)
    known_entries: frozenset[int]
    #: is this address inside a code region?
    is_code: Callable[[int], bool]
    #: read n initialised bytes at vaddr, or None
    mem_reader: Callable[[int, int], int | None]
    #: does this address (so far) belong to the current function?
    in_current: Callable[[int], bool]
    #: the point just before a jalr in the function's CFG so far; a jal
    #: needs none
    at: At | None = None


def classify_jal(insn: Insn, ctx: ClassifyContext) -> Classification:
    target = insn.direct_target()
    assert target is not None
    if insn.links:
        return Classification(EdgeType.CALL, target)
    if target != ctx.current_entry and target in ctx.known_entries \
            and not ctx.in_current(target):
        return Classification(EdgeType.TAILCALL, target)
    return Classification(EdgeType.DIRECT, target)


def classify_jalr(insn: Insn, ctx: ClassifyContext) -> Classification:
    rs1 = insn.indirect_base
    assert rs1 is not None and ctx.at is not None
    links = insn.links
    imm = insn.raw.fields.get("imm", 0)

    resolved = resolve_register(ctx.at, rs1, mem_reader=ctx.mem_reader)
    if resolved is not None:
        # jalr target = (rs1 + imm) with bit 0 cleared
        resolved = (resolved + imm) & ~1 & ((1 << 64) - 1)
    if resolved is not None and ctx.is_code(resolved):
        if links:
            return Classification(EdgeType.CALL, resolved)
        if resolved == ctx.current_entry or ctx.in_current(resolved):
            return Classification(EdgeType.DIRECT, resolved)
        # Another function's entry, or a constant target outside the
        # current parse: a tail call (which discovers a new function).
        return Classification(EdgeType.TAILCALL, resolved)

    # A link register with no constant value is a return address, also
    # right after a call: the callee ran.
    if not links and rs1 in LINK_REGISTERS and imm == 0:
        return Classification(EdgeType.RET, None)

    # Jump-table analysis (paper: "ParseAPI performs jump table
    # analysis on the current jalr instruction").
    table = analyze_jump_table(ctx.at, rs1, ctx.is_code, ctx.mem_reader)
    if table is not None:
        targets, bounded = table
        return Classification(EdgeType.INDIRECT, None, resolved=bounded,
                              table_targets=targets)

    # Unresolvable: the target cannot be determined symbolically.
    kind = EdgeType.CALL if links else EdgeType.INDIRECT
    return Classification(kind, None, resolved=False)


def classify(insn: Insn, ctx: ClassifyContext) -> Classification:
    """Classify any jal/jalr; conditional branches and non-CF
    instructions are not accepted here."""
    if insn.is_jal:
        return classify_jal(insn, ctx)
    if insn.is_jalr:
        return classify_jalr(insn, ctx)
    raise ValueError(f"not an unconditional control transfer: {insn!r}")
