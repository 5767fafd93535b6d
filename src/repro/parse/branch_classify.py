"""Classification of RISC-V multi-use control-flow instructions.

RISC-V has only ``jal`` and ``jalr`` for unconditional transfers
(paper §3.1.3); what they *mean* — call, return, jump, tail call, jump
table — must be recovered from context.  This module implements the
paper's §3.2.3 decision procedure:

jal:
  * links (rd is a link register) -> **call**
  * rd = x0, target is another function's entry -> **tail call**
  * rd = x0 otherwise -> **unconditional jump**

jalr — first try to resolve the target register by backward slicing
(constant resolution over the decoded window); then:
  * resolved, in code, same function, rd = x0 -> **jump**
  * resolved, in code, another function, rd = x0 -> **tail call**
  * resolved, in code, rd links -> **call**
  * rd = x0 and rs1 is the link register of the preceding call (or a
    conventional link register with no resolution) -> **return**
  * else run **jump-table analysis**; on success -> indirect jump with
    enumerated targets
  * else -> **unresolvable indirect**
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..dataflow.constprop import nearest_def, resolve_register
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

    #: linear decoded window (address order), jalr/jal is window[index]
    window: Sequence[Insn]
    index: int
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
    assert rs1 is not None
    links = insn.links

    # Paper bullet 4, generalised: if the reaching definition of the
    # target register in the window is a *call's link write*, this jalr
    # consumes a return address — classify as a return rather than
    # letting constant resolution treat the linear window as an
    # execution path (the call's callee runs in between).
    if not links and _reaching_def_is_call_link(ctx, rs1):
        return Classification(EdgeType.RET, None)

    resolved = resolve_register(
        ctx.window, ctx.index, rs1, mem_reader=ctx.mem_reader)
    if resolved is not None:
        # jalr target = (rs1 + imm) with bit 0 cleared
        resolved = (resolved + insn.raw.fields.get("imm", 0)) & ~1
        resolved &= (1 << 64) - 1
    if resolved is not None and ctx.is_code(resolved):
        if links:
            return Classification(EdgeType.CALL, resolved)
        if resolved == ctx.current_entry or ctx.in_current(resolved):
            return Classification(EdgeType.DIRECT, resolved)
        if resolved in ctx.known_entries:
            return Classification(EdgeType.TAILCALL, resolved)
        # Constant target outside current parse and not a known entry:
        # treat as a tail call discovering a new function.
        return Classification(EdgeType.TAILCALL, resolved)

    if not links:
        # Return detection.  Case 1 (paper bullet 4): the immediately
        # preceding instruction is a call whose link register matches.
        prev = ctx.window[ctx.index - 1] if ctx.index > 0 else None
        if prev is not None and prev.links and prev.link_register == rs1:
            return Classification(EdgeType.RET, None)
        # Case 2: conventional link register with unresolvable value —
        # the ubiquitous `ret` (jalr x0, 0(ra)).
        if rs1 in LINK_REGISTERS and insn.raw.fields.get("imm", 0) == 0:
            return Classification(EdgeType.RET, None)

    # Jump-table analysis (paper: "ParseAPI performs jump table
    # analysis on the current jalr instruction").
    table = analyze_jump_table(
        ctx.window, ctx.index, rs1, ctx.is_code, ctx.mem_reader)
    if table:
        return Classification(EdgeType.INDIRECT, None, resolved=True,
                              table_targets=table)

    # Unresolvable: the target cannot be determined symbolically.
    kind = EdgeType.CALL if links else EdgeType.INDIRECT
    return Classification(kind, None, resolved=False)


def _reaching_def_is_call_link(ctx: ClassifyContext, rs1) -> bool:
    """Does the nearest preceding definition of *rs1* in the window come
    from a call's link-register write?"""
    i = nearest_def(ctx.window, ctx.index, rs1)
    if i is None:
        return False
    prev = ctx.window[i]
    return bool(prev.links and prev.link_register == rs1)


def classify(insn: Insn, ctx: ClassifyContext) -> Classification:
    """Classify any jal/jalr; conditional branches and non-CF
    instructions are not accepted here."""
    if insn.is_jal:
        return classify_jal(insn, ctx)
    if insn.is_jalr:
        return classify_jalr(insn, ctx)
    raise ValueError(f"not an unconditional control transfer: {insn!r}")
