"""Semantic-class registry: one lookup point for instruction semantics.

Dataflow analysis sources instruction semantics from (in the paper's
terms, §3.2.4) three places: ROSE-derived classes, SAIL-derived classes,
and hand-crafted descriptions.  Here:

* SAIL-derived: the generated module from the mini-SAIL pipeline covers
  the I/M (and sample RVA23) instructions.
* Hand-crafted fallback: every other instruction in the spec table gets
  conservative operand-derived def/use information (rd written, rs*
  read, loads read memory, stores write memory) — sufficient for
  liveness, too coarse for value-tracking slices, which is exactly how
  Dyninst degrades when precise semantics are unavailable.
"""

from __future__ import annotations

from functools import lru_cache

from ..riscv.instr import Instruction
from ..riscv.opcodes import (
    InstrSpec, OP_BRANCH, OP_JAL, OP_JALR, all_specs, by_mnemonic,
)
from .ir import Semantics


@lru_cache(maxsize=1)
def _generated():
    from .sail.gen import run_pipeline

    return run_pipeline()


@lru_cache(maxsize=1)
def sail_semantics() -> dict[str, Semantics]:
    """Mnemonic -> Semantics for all SAIL-pipeline covered instructions."""
    mod = _generated()
    return {
        mn: cls.SEMANTICS for mn, cls in mod.SEMANTIC_CLASSES.items()
    }


def semantics_for(instr_or_mnemonic: Instruction | str) -> Semantics | None:
    """Precise semantics for an instruction, or None when only the
    conservative fallback is available."""
    mn = (instr_or_mnemonic if isinstance(instr_or_mnemonic, str)
          else instr_or_mnemonic.mnemonic)
    return sail_semantics().get(mn)


def has_precise_semantics(mnemonic: str) -> bool:
    return mnemonic in sail_semantics()


# -- def/use extraction (with fallback) ---------------------------------

_LOAD_OPCODES = (0x03, 0x07)
_STORE_OPCODES = (0x23, 0x27)


def _fallback_uses(spec: InstrSpec) -> set[tuple[str, str]]:
    uses = set()
    for op in spec.operands:
        if op in ("rs1", "rs2", "rs3"):
            uses.add(("x", op))
        elif op in ("frs1", "frs2", "frs3"):
            uses.add(("f", op[1:]))
    return uses


def _fallback_defs(spec: InstrSpec) -> set[tuple[str, str]]:
    defs = set()
    for op in spec.operands:
        if op == "rd":
            defs.add(("x", "rd"))
        elif op == "frd":
            defs.add(("f", "rd"))
    return defs


@lru_cache(maxsize=None)
def _operand_pairs(mnemonic: str) -> tuple[tuple[tuple[str, str], ...],
                                           tuple[tuple[str, str], ...]]:
    """(uses, defs) of one mnemonic as (regfile, operand) pairs, from its
    SAIL semantics or the operand fallback.  The IR walk runs once per
    mnemonic; every def/use query binds these pairs to its fields."""
    sem = semantics_for(mnemonic)
    if sem is not None:
        return tuple(sem.register_uses()), tuple(sem.register_defs())
    spec = by_mnemonic(mnemonic)
    return tuple(_fallback_uses(spec)), tuple(_fallback_defs(spec))


def _bind(instr: Instruction,
          pairs: tuple[tuple[str, str], ...]) -> set[tuple[str, int]]:
    fields = instr.fields
    out = set()
    for rf, opname in pairs:
        n = fields.get(opname)
        if n is None:
            continue
        if rf == "x" and n == 0:
            continue
        out.add((rf, n))
    return out


def register_uses(instr: Instruction) -> set[tuple[str, int]]:
    """Registers read by *instr* as (regfile, regnum) pairs.

    Reads of x0 are dropped (it is constant).
    """
    return _bind(instr, _operand_pairs(instr.mnemonic)[0])


def register_defs(instr: Instruction) -> set[tuple[str, int]]:
    """Registers written by *instr* as (regfile, regnum) pairs.

    Writes to x0 are dropped (they vanish architecturally).
    """
    return _bind(instr, _operand_pairs(instr.mnemonic)[1])


@lru_cache(maxsize=None)
def _mask_operands(mnemonic: str) -> tuple[tuple[tuple[str, int], ...],
                                           tuple[tuple[str, int], ...]]:
    """(uses, defs) of one mnemonic as (operand, bit offset) pairs: the
    cached (regfile, operand) pairs with x mapped to bit 0 and f to 32."""
    return tuple(tuple((op, 0 if rf == "x" else 32) for rf, op in pairs)
                 for pairs in _operand_pairs(mnemonic))


def _bind_mask(fields: dict[str, int],
               pairs: tuple[tuple[str, int], ...]) -> int:
    mask = 0
    for op, base in pairs:
        n = fields.get(op)
        if n is not None:
            mask |= 1 << (base + n)
    return mask & ~1  # x0 is hard-wired to zero


def register_masks(instr: Instruction) -> tuple[int, int]:
    """(uses, defs) of *instr* as 64-bit register masks.

    x<n> is bit *n* and f<n> bit 32 + *n*.  x0 is dropped, as in
    :func:`register_uses`/:func:`register_defs`."""
    uses, defs = _mask_operands(instr.mnemonic)
    fields = instr.fields
    return _bind_mask(fields, uses), _bind_mask(fields, defs)


def reads_memory(instr: Instruction) -> bool:
    sem = semantics_for(instr)
    if sem is not None:
        return sem.reads_memory()
    opc = instr.spec.match & 0x7F
    return opc in _LOAD_OPCODES or (opc == 0x2F)  # AMO reads


def writes_memory(instr: Instruction) -> bool:
    sem = semantics_for(instr)
    if sem is not None:
        return sem.writes_memory()
    opc = instr.spec.match & 0x7F
    if opc in _STORE_OPCODES:
        return True
    if opc == 0x2F:  # AMOs (except lr) write memory
        return not instr.mnemonic.startswith("lr.")
    return False


def writes_pc(instr: Instruction) -> bool:
    sem = semantics_for(instr)
    if sem is not None:
        return sem.writes_pc()
    opc = instr.spec.match & 0x7F
    return opc in (OP_BRANCH, OP_JAL, OP_JALR)


def coverage_report() -> dict[str, bool]:
    """Which spec-table instructions have precise SAIL-derived semantics
    (useful for pipeline-completeness tests and docs)."""
    table = sail_semantics()
    return {s.mnemonic: s.mnemonic in table for s in all_specs()}
