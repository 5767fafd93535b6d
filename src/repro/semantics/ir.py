"""Instruction-semantics intermediate representation.

The paper derives instruction semantics from the official RISC-V SAIL
specification through a two-stage pipeline (SAIL -> simplified JSON ->
generated semantic classes, §3.2.4).  This module defines the *simplified
IR* those stages produce: a small expression language over 64-bit
bitvectors plus an effect list per instruction.

The IR deliberately omits the error-handling detail of full SAIL
(alignment checks, trap causes) — exactly the simplification the paper
describes — keeping what dataflow analysis needs: which locations an
instruction reads and writes, and how values flow between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

# -- expression nodes ---------------------------------------------------


class Expr:
    """Base class for IR expressions (64-bit bitvector valued)."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        yield self
        for c in self.children():
            yield from c.walk()


@dataclass(frozen=True)
class Const(Expr):
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class PC(Expr):
    """The address of the executing instruction."""


@dataclass(frozen=True)
class ILen(Expr):
    """Encoded length of the executing instruction (2 or 4)."""


@dataclass(frozen=True)
class OperandRef(Expr):
    """Placeholder for a decoded operand field (``imm``, ``shamt``...).

    Register operands use :class:`RegRef` instead; an OperandRef always
    denotes an immediate-like value.
    """

    name: str


@dataclass(frozen=True)
class RegRef(Expr):
    """Read of the register named by a decoded operand field.

    ``regfile`` is ``"x"`` or ``"f"``; ``operand`` names the field
    (``rs1``...).  Reads of ``x0`` evaluate to zero.
    """

    regfile: str
    operand: str


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation.  ``op`` is one of the OPS table keys."""

    op: str
    lhs: Expr
    rhs: Expr

    def children(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation: ``neg``, ``not``."""

    op: str
    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Extend(Expr):
    """Sign- or zero-extend the low *width* bits of *operand*."""

    kind: str  # 'sext' | 'zext'
    operand: Expr
    width: int

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class MemRead(Expr):
    """Little-endian memory read of *size* bytes, zero-extended."""

    addr: Expr
    size: int

    def children(self):
        return (self.addr,)


@dataclass(frozen=True)
class ITE(Expr):
    """If-then-else expression."""

    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self):
        return (self.cond, self.then, self.otherwise)


@dataclass(frozen=True)
class FloatOp(Expr):
    """A float primitive (``f64_add``, ``f32_class``...) over bit patterns.

    *op* names a :data:`repro.semantics.floats.FLOAT_OPS` entry: the IR
    has no float type.  A rounding primitive takes ``rm`` last."""

    op: str
    args: tuple[Expr, ...]

    def children(self):
        return self.args


#: Binary operators with RISC-V semantics.  The u/s suffix selects
#: unsigned/signed interpretation where it matters.  divs/divu/rems/remu
#: implement the architectural division-by-zero and overflow results.
OPS = frozenset({
    "add", "sub", "mul", "mulh", "mulhu", "mulhsu",
    "divs", "divu", "rems", "remu",
    "and", "or", "xor", "sll", "srl", "sra",
    "eq", "ne", "lts", "ltu", "ges", "geu",
})

UNOPS = frozenset({"neg", "not", "clz", "ctz", "cpop"})


# -- effects ------------------------------------------------------------


class Effect:
    """Base class for instruction effects."""


@dataclass(frozen=True)
class RegWrite(Effect):
    """Write *value* to the register named by operand field *operand* of
    register file *regfile*.  Writes to ``x0`` are discarded."""

    regfile: str
    operand: str
    value: Expr


@dataclass(frozen=True)
class MemWrite(Effect):
    """Store the low *size* bytes of *value* at *addr* (little-endian)."""

    addr: Expr
    size: int
    value: Expr


@dataclass(frozen=True)
class PCWrite(Effect):
    """Unconditional control transfer: next pc = *value*."""

    value: Expr


@dataclass(frozen=True)
class CondEffect(Effect):
    """Guarded effects (conditional branches)."""

    cond: Expr
    then: tuple[Effect, ...]
    otherwise: tuple[Effect, ...] = ()


@dataclass(frozen=True)
class Semantics:
    """Complete semantics of one instruction: an ordered effect list.

    An instruction with no :class:`PCWrite` (even conditionally)
    implicitly falls through to ``pc + ilen``.
    """

    mnemonic: str
    effects: tuple[Effect, ...]

    def all_exprs(self) -> Iterator[Expr]:
        """Every expression appearing anywhere in the effects."""
        def from_effect(e: Effect) -> Iterator[Expr]:
            if isinstance(e, RegWrite):
                yield from e.value.walk()
            elif isinstance(e, MemWrite):
                yield from e.addr.walk()
                yield from e.value.walk()
            elif isinstance(e, PCWrite):
                yield from e.value.walk()
            elif isinstance(e, CondEffect):
                yield from e.cond.walk()
                for sub in e.then + e.otherwise:
                    yield from from_effect(sub)

        for eff in self.effects:
            yield from from_effect(eff)

    def flat_effects(self) -> Iterator[Effect]:
        """Effects including those nested under conditions."""
        def rec(e: Effect) -> Iterator[Effect]:
            yield e
            if isinstance(e, CondEffect):
                for sub in e.then + e.otherwise:
                    yield from rec(sub)

        for eff in self.effects:
            yield from rec(eff)

    def register_uses(self) -> set[tuple[str, str]]:
        """(regfile, operand) pairs read anywhere."""
        return {
            (e.regfile, e.operand)
            for e in self.all_exprs()
            if isinstance(e, RegRef)
        }

    def register_defs(self) -> set[tuple[str, str]]:
        """(regfile, operand) pairs written anywhere."""
        return {
            (e.regfile, e.operand)
            for e in self.flat_effects()
            if isinstance(e, RegWrite)
        }

    def reads_memory(self) -> bool:
        return any(isinstance(e, MemRead) for e in self.all_exprs())

    def writes_memory(self) -> bool:
        return any(isinstance(e, MemWrite) for e in self.flat_effects())

    def writes_pc(self) -> bool:
        return any(isinstance(e, PCWrite) for e in self.flat_effects())


# -- JSON (de)serialisation: the pipeline's interchange format -----------

def expr_to_json(e: Expr) -> Any:
    if isinstance(e, Const):
        return {"k": "const", "v": e.value}
    if isinstance(e, PC):
        return {"k": "pc"}
    if isinstance(e, ILen):
        return {"k": "ilen"}
    if isinstance(e, OperandRef):
        return {"k": "op", "name": e.name}
    if isinstance(e, RegRef):
        return {"k": "reg", "rf": e.regfile, "name": e.operand}
    if isinstance(e, BinOp):
        return {"k": "bin", "op": e.op,
                "l": expr_to_json(e.lhs), "r": expr_to_json(e.rhs)}
    if isinstance(e, UnOp):
        return {"k": "un", "op": e.op, "e": expr_to_json(e.operand)}
    if isinstance(e, Extend):
        return {"k": e.kind, "e": expr_to_json(e.operand), "w": e.width}
    if isinstance(e, MemRead):
        return {"k": "mem", "addr": expr_to_json(e.addr), "size": e.size}
    if isinstance(e, ITE):
        return {"k": "ite", "c": expr_to_json(e.cond),
                "t": expr_to_json(e.then), "f": expr_to_json(e.otherwise)}
    if isinstance(e, FloatOp):
        return {"k": "fop", "op": e.op,
                "a": [expr_to_json(a) for a in e.args]}
    raise TypeError(f"unknown expr {e!r}")


def expr_from_json(j: Any) -> Expr:
    k = j["k"]
    if k == "const":
        return Const(j["v"])
    if k == "pc":
        return PC()
    if k == "ilen":
        return ILen()
    if k == "op":
        return OperandRef(j["name"])
    if k == "reg":
        return RegRef(j["rf"], j["name"])
    if k == "bin":
        return BinOp(j["op"], expr_from_json(j["l"]), expr_from_json(j["r"]))
    if k == "un":
        return UnOp(j["op"], expr_from_json(j["e"]))
    if k in ("sext", "zext"):
        return Extend(k, expr_from_json(j["e"]), j["w"])
    if k == "mem":
        return MemRead(expr_from_json(j["addr"]), j["size"])
    if k == "ite":
        return ITE(expr_from_json(j["c"]), expr_from_json(j["t"]),
                   expr_from_json(j["f"]))
    if k == "fop":
        return FloatOp(j["op"], tuple(expr_from_json(a) for a in j["a"]))
    raise ValueError(f"unknown expr kind {k!r}")


def effect_to_json(e: Effect) -> Any:
    if isinstance(e, RegWrite):
        return {"k": "regw", "rf": e.regfile, "name": e.operand,
                "v": expr_to_json(e.value)}
    if isinstance(e, MemWrite):
        return {"k": "memw", "addr": expr_to_json(e.addr), "size": e.size,
                "v": expr_to_json(e.value)}
    if isinstance(e, PCWrite):
        return {"k": "pcw", "v": expr_to_json(e.value)}
    if isinstance(e, CondEffect):
        return {"k": "cond", "c": expr_to_json(e.cond),
                "t": [effect_to_json(x) for x in e.then],
                "f": [effect_to_json(x) for x in e.otherwise]}
    raise TypeError(f"unknown effect {e!r}")


def effect_from_json(j: Any) -> Effect:
    k = j["k"]
    if k == "regw":
        return RegWrite(j["rf"], j["name"], expr_from_json(j["v"]))
    if k == "memw":
        return MemWrite(expr_from_json(j["addr"]), j["size"],
                        expr_from_json(j["v"]))
    if k == "pcw":
        return PCWrite(expr_from_json(j["v"]))
    if k == "cond":
        return CondEffect(
            expr_from_json(j["c"]),
            tuple(effect_from_json(x) for x in j["t"]),
            tuple(effect_from_json(x) for x in j["f"]),
        )
    raise ValueError(f"unknown effect kind {k!r}")


def semantics_to_json(s: Semantics) -> Any:
    return {"mnemonic": s.mnemonic,
            "effects": [effect_to_json(e) for e in s.effects]}


def semantics_from_json(j: Any) -> Semantics:
    return Semantics(j["mnemonic"],
                     tuple(effect_from_json(e) for e in j["effects"]))
