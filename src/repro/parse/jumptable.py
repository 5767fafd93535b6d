"""Jump-table analysis for unresolved ``jalr`` instructions (§3.2.3).

Recovers the target set of compiler-generated indirect jumps of the
canonical shape (GCC/LLVM switch lowering, and what MiniC emits)::

    bgeu  idx, BOUND, default      ; bounds check (constant bound)
    slli  sidx, idx, 3             ; scale by entry size
    auipc base, %hi(table)         ; la base, table
    addi  base, base, %lo(table)
    add   p, base, sidx
    ld    t, 0(p)
    jalr  x0, 0(t)                 ; the jump

The analysis is a pattern-directed backward slice along the CFG
(:func:`~repro.dataflow.constprop.reaching_defs`):

1. the one ``ld`` that reaches the jump register is the table read;
2. decompose the load address into (constant base) + (scaled index) via
   constant resolution on each addend;
3. find the entry scale from the ``slli`` defining the index;
4. find the table extent from the check that guards every path into the
   index's use: the taken edge of ``bltu idx, n`` or the not-taken edge
   of ``bgeu idx, n``, with a constant *n* and no redefinition of
   ``idx`` in between;
5. read the entries through the memory oracle and validate each target.

Without a guard the entries are scanned while they point into code.
That is a guess: the caller keeps the targets but marks the jump
unresolved.  Failure at any step returns None and the jalr stays
unresolvable — Dyninst's conservative behaviour.
"""

from __future__ import annotations

from typing import Callable

from ..dataflow.constprop import At, only_def, reaching_defs, resolve_register
from ..riscv.registers import Register, xreg
from .cfg import Edge, EdgeType

#: hard cap on enumerated entries when no bounds check is found
MAX_SCAN_ENTRIES = 512

_LOADS = {"ld": 8, "lw": 4, "lwu": 4}
_ADDS = ("add", "sh1add", "sh2add", "sh3add")


def analyze_jump_table(
    at: At,
    jump_reg: Register,
    is_code: Callable[[int], bool],
    mem_reader: Callable[[int, int], int | None],
) -> tuple[list[int], bool] | None:
    """Enumerate jump-table targets for the jalr at *at*, which jumps
    through *jump_reg*: the sorted targets and whether a bounds check
    proved the table's extent.  None when the pattern cannot be
    proven."""
    load_at = only_def(at, jump_reg)
    if load_at is None or load_at.insn.mnemonic not in _LOADS:
        return None
    f = load_at.insn.raw.fields
    entry_size = _LOADS[load_at.insn.mnemonic]
    split = _split_address(load_at, xreg(f["rs1"]))
    if split is None:
        return None
    base, index_reg, shift, index_at = split
    if shift is not None and (1 << shift) != entry_size:
        # scale does not match entry size; distrust the pattern
        return None

    bound = None if index_reg is None else _find_bound(index_at, index_reg)
    targets = _read_table(base + f.get("imm", 0), entry_size, bound,
                          is_code, mem_reader)
    return None if targets is None else (targets, bound is not None)


def _split_address(load_at: At, addr_reg: Register):
    """Decompose the table address register into (constant base,
    pre-scale index register, scale shift, the point that reads the
    index), or None.

    Handles ``add p, base, sidx`` with ``slli sidx, idx, k`` (either
    operand order), ``shNadd``, and the degenerate fully-constant
    address.
    """
    const = resolve_register(load_at, addr_reg)
    if const is not None:
        return const, None, None, None
    add_at = only_def(load_at, addr_reg)
    if add_at is None or add_at.insn.mnemonic not in _ADDS:
        return None
    add = add_at.insn
    rs1, rs2 = xreg(add.raw.fields["rs1"]), xreg(add.raw.fields["rs2"])
    if add.mnemonic != "add":
        base = resolve_register(add_at, rs2)
        return None if base is None else (
            base, rs1, int(add.mnemonic[2]), add_at)
    # Try each operand as the constant base; the other is the scaled
    # index.
    for base_reg, idx_reg in ((rs1, rs2), (rs2, rs1)):
        base = resolve_register(add_at, base_reg)
        if base is None:
            continue
        scale_at = only_def(add_at, idx_reg)
        if scale_at is not None and scale_at.insn.mnemonic == "slli":
            f = scale_at.insn.raw.fields
            return base, xreg(f["rs1"]), f["shamt"], scale_at
        return base, idx_reg, None, add_at
    return None


#: (branch, edge) pairs on which ``idx < n`` holds
_GUARDS = frozenset({("bltu", EdgeType.COND_TAKEN),
                     ("bgeu", EdgeType.COND_NOT_TAKEN)})


def _find_bound(at: At, idx: Register) -> int | None:
    """The bound *n* of the check that guards every path into *at*: the
    taken edge of ``bltu idx, n`` or the not-taken edge of
    ``bgeu idx, n``, with no definition of *idx* in between."""
    bounds = set()

    def guard(e: Edge) -> bool:
        branch = e.src.insns[-1]
        f = branch.raw.fields
        if (branch.mnemonic, e.kind) not in _GUARDS or f["rs1"] != idx.number:
            return False
        bounds.add(resolve_register(
            At(at.preds, e.src, len(e.src.insns) - 1), xreg(f["rs2"])))
        return True

    if reaching_defs(at, 1 << idx.number, stop=guard) or len(bounds) != 1:
        return None
    bound = bounds.pop()
    return bound if bound is not None and 0 < bound <= MAX_SCAN_ENTRIES \
        else None


def _read_table(base: int, entry_size: int, bound: int | None,
                is_code, mem_reader) -> list[int] | None:
    count = bound if bound is not None else MAX_SCAN_ENTRIES
    targets: list[int] = []
    for i in range(count):
        raw = mem_reader(base + i * entry_size, entry_size)
        if raw is None:
            if bound is not None:
                return None  # table extends past initialised data
            break
        if entry_size == 4:
            # 32-bit entries may be pc-relative in some schemes; we only
            # support absolute here.
            raw &= 0xFFFF_FFFF
        if not is_code(raw):
            if bound is not None:
                return None  # a provably-sized table must be all code
            break
        targets.append(raw)
    if not targets:
        return None
    return sorted(set(targets))
