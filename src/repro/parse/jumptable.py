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

The analysis is a pattern-directed backward slice over the decoded
window:

1. find the reaching ``ld`` that defines the jump register — its source
   is the table;
2. decompose the load address into (constant base) + (scaled index) via
   constant resolution on each addend;
3. find the entry scale from the ``slli`` defining the index;
4. find the table extent from a dominating unsigned bounds check with a
   constant bound; when none is found, fall back to scanning entries
   while they point into code (bounded);
5. read the entries through the memory oracle and validate each target.

Failure at any step returns None and the jalr stays unresolvable —
Dyninst's conservative behaviour.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..dataflow.constprop import defines, nearest_def, resolve_register
from ..instruction.insn import Insn
from ..riscv.registers import Register, xreg

#: hard cap on enumerated entries when no bounds check is found
MAX_SCAN_ENTRIES = 512

_LOADS = {"ld": 8, "lw": 4, "lwu": 4}


def analyze_jump_table(
    window: Sequence[Insn],
    index: int,
    jump_reg: Register,
    is_code: Callable[[int], bool],
    mem_reader: Callable[[int, int], int | None],
) -> list[int] | None:
    """Enumerate jump-table targets for ``window[index]`` (a jalr through
    *jump_reg*), or None when the pattern cannot be proven."""
    load_i = nearest_def(window, index, jump_reg)
    if load_i is None:
        return None
    load = window[load_i]
    if load.mnemonic not in _LOADS:
        return None
    entry_size = _LOADS[load.mnemonic]
    disp = load.raw.fields.get("imm", 0)
    addr_reg = xreg(load.raw.fields["rs1"])

    base, index_reg, shift = _split_address(window, load_i, addr_reg)
    if base is None:
        return None
    base += disp
    if shift is not None and (1 << shift) != entry_size:
        # scale does not match entry size; distrust the pattern
        return None

    bound = _find_bound(window, load_i, index_reg)
    return _read_table(base, entry_size, bound, is_code, mem_reader)


def _split_address(window: Sequence[Insn], load_i: int,
                   addr_reg: Register):
    """Decompose the table address register into
    (constant base, pre-scale index register, scale shift).

    Handles ``add p, base, sidx`` with ``slli sidx, idx, k`` (either
    operand order), and the degenerate fully-constant address.
    """
    const = resolve_register(window, load_i, addr_reg)
    if const is not None:
        return const, None, None

    add_i = nearest_def(window, load_i, addr_reg)
    if add_i is None:
        return None, None, None
    add = window[add_i]
    if add.mnemonic not in ("add", "sh1add", "sh2add", "sh3add"):
        return None, None, None
    f = add.raw.fields
    rs1, rs2 = xreg(f["rs1"]), xreg(f["rs2"])

    if add.mnemonic.startswith("sh"):
        shift = int(add.mnemonic[2])
        base = resolve_register(window, add_i, rs2)
        return base, rs1, shift

    # Try each operand as the constant base; the other is the scaled
    # index.
    for base_reg, idx_reg in ((rs1, rs2), (rs2, rs1)):
        base = resolve_register(window, add_i, base_reg)
        if base is None:
            continue
        scale_i = nearest_def(window, add_i, idx_reg)
        if scale_i is not None and window[scale_i].mnemonic == "slli":
            f = window[scale_i].raw.fields
            return base, xreg(f["rs1"]), f["shamt"]
        return base, idx_reg, None
    return None, None, None


def _find_bound(window: Sequence[Insn], before: int,
                index_reg: Register | None) -> int | None:
    """Find a dominating unsigned bounds check ``bgeu idx, bound`` /
    ``bltu idx, bound`` with a resolvable constant bound."""
    if index_reg is None:
        return None
    for i in range(before - 1, -1, -1):
        insn = window[i]
        if insn.mnemonic not in ("bgeu", "bltu"):
            # A redefinition of the index register before we find the
            # check breaks the correspondence.
            if defines(insn, index_reg) and insn.mnemonic != "slli":
                return None
            continue
        f = insn.raw.fields
        if xreg(f["rs1"]) != index_reg:
            continue
        bound = resolve_register(window, i, xreg(f["rs2"]))
        if bound is not None and 0 < bound <= MAX_SCAN_ENTRIES:
            return bound
        return None
    return None


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
