"""Semantic-class registry: one lookup point for instruction semantics.

Dataflow analysis sources instruction semantics from (in the paper's
terms, §3.2.4) three places: ROSE-derived classes, SAIL-derived classes,
and hand-crafted descriptions.  Here:

* SAIL-derived: the generated module from the mini-SAIL pipeline covers
  166 of the 178 specs: I, M, A's AMOs, F, D and the RVA23 samples.
* Hand-crafted fallback: the rest (``lr``/``sc``, Zicsr, ``ecall``,
  ``ebreak``) gets conservative operand-derived def/use information (rd
  written, rs* read, ``lr`` reads memory at ``X(rs1)``, ``sc`` writes
  it) — sufficient for liveness, too coarse for value-tracking slices,
  which is exactly how Dyninst degrades when precise semantics are
  unavailable.

Every per-instruction fact the analyses read (register uses and defs,
memory reads and writes, the memory operand) comes from one record per
mnemonic, :func:`facts_for`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ..riscv.instr import Instruction
from ..riscv.opcodes import OP_AMO, InstrSpec, all_specs, by_mnemonic
from .ir import BinOp, MemRead, MemWrite, OperandRef, RegRef, Semantics


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


# -- per-mnemonic facts (with fallback) ----------------------------------


class Facts(NamedTuple):
    """What the analyses need of one mnemonic, read off its SAIL IR once
    (or, for the hand-written rest, off its operand list)."""

    #: (regfile, operand) pairs read and written
    uses: tuple[tuple[str, str], ...]
    defs: tuple[tuple[str, str], ...]
    reads_memory: bool
    writes_memory: bool
    #: the memory operand as (base operand, displacement operand or
    #: None, size in bytes), or None
    mem: tuple[str, str | None, int] | None


def _fallback(spec: InstrSpec, names: tuple) -> tuple:
    """The operand-derived (regfile, operand) pairs of *spec* among
    *names*."""
    return tuple(("f", op[1:]) if op[0] == "f" else ("x", op)
                 for op in spec.operands if op.lstrip("f") in names)


def _address(e) -> tuple[str, str | None]:
    """(base operand, displacement operand or None) of a ``mem(...)``
    address: ``X(rs1)`` or ``X(rs1) + imm``."""
    if isinstance(e, RegRef):
        return e.operand, None
    if isinstance(e, BinOp) and e.op == "add" and \
            isinstance(e.lhs, RegRef) and isinstance(e.rhs, OperandRef):
        return e.lhs.operand, e.rhs.name
    raise ValueError(f"unsupported memory address {e!r}")


@lru_cache(maxsize=None)
def facts_for(mnemonic: str) -> Facts:
    """The :class:`Facts` of one mnemonic.  The IR walk runs once per
    mnemonic; every query binds the record to an instruction's fields."""
    sem = semantics_for(mnemonic)
    spec = by_mnemonic(mnemonic)
    if sem is None:
        uses = _fallback(spec, ("rs1", "rs2", "rs3"))
        defs = _fallback(spec, ("rd",))
        if spec.match & 0x7F != OP_AMO:  # Zicsr, ecall, ebreak
            return Facts(uses, defs, False, False, None)
        # lr/sc: the reservation is not memory.  lr loads from X(rs1);
        # sc stores X(rs2) there and reads nothing.
        store = "rs2" in spec.operands
        size = 1 << (spec.match >> 12 & 7)
        return Facts(uses, defs, not store, store, ("rs1", None, size))
    reads = [e for e in sem.all_exprs() if isinstance(e, MemRead)]
    writes = [e for e in sem.flat_effects() if isinstance(e, MemWrite)]
    operands = {(*_address(e.addr), e.size) for e in reads + writes}
    if len(operands) > 1:
        raise ValueError(f"{mnemonic}: more than one memory operand")
    return Facts(tuple(sem.register_uses()), tuple(sem.register_defs()),
                 bool(reads), bool(writes),
                 operands.pop() if operands else None)


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
    return _bind(instr, facts_for(instr.mnemonic).uses)


def register_defs(instr: Instruction) -> set[tuple[str, int]]:
    """Registers written by *instr* as (regfile, regnum) pairs.

    Writes to x0 are dropped (they vanish architecturally).
    """
    return _bind(instr, facts_for(instr.mnemonic).defs)


@lru_cache(maxsize=None)
def _mask_operands(mnemonic: str) -> tuple[tuple[tuple[str, int], ...],
                                           tuple[tuple[str, int], ...]]:
    """(uses, defs) of one mnemonic as (operand, bit offset) pairs: the
    cached (regfile, operand) pairs with x mapped to bit 0 and f to 32."""
    facts = facts_for(mnemonic)
    return tuple(tuple((op, 0 if rf == "x" else 32) for rf, op in pairs)
                 for pairs in (facts.uses, facts.defs))


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
    return facts_for(instr.mnemonic).reads_memory


def writes_memory(instr: Instruction) -> bool:
    return facts_for(instr.mnemonic).writes_memory


def writes_pc(instr: Instruction) -> bool:
    sem = semantics_for(instr)
    return sem is not None and sem.writes_pc()


def coverage_report() -> dict[str, bool]:
    """Which spec-table instructions have precise SAIL-derived semantics
    (useful for pipeline-completeness tests and docs)."""
    table = sail_semantics()
    return {s.mnemonic: s.mnemonic in table for s in all_specs()}
