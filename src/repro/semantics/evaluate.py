"""Concrete evaluator for the semantics IR.

Executes an instruction's :class:`~repro.semantics.ir.Semantics` against
an abstract machine-state interface and returns the concrete writes.
Its operator kernel (``_binop``/``_unop``/``_extend``, and the float
kernel of :mod:`repro.semantics.floats`) is the one definition of each
operator: :mod:`repro.semantics.lower` folds constants with it and
calls it from the simulator's generated code.  The evaluator itself is
the reference the simulator tiers are cross-checked against, and
DataflowAPI's constant resolution runs :func:`eval_expr` over a state
that resolves registers backward.

All values are 64-bit unsigned integers (F registers hold bit
patterns); signed and float interpretations happen at operator
granularity, exactly as in the IR definition.
"""

from __future__ import annotations

from typing import Protocol

from ..riscv.encoding import sign_extend, to_unsigned
from ..riscv.instr import Instruction
from .floats import FLOAT_OPS
from .ir import (
    BinOp, CondEffect, Const, Effect, Expr, Extend, FloatOp, ILen, ITE,
    MemRead, MemWrite, OperandRef, PC, PCWrite, RegRef, RegWrite, Semantics,
    UnOp,
)

_M64 = (1 << 64) - 1


class EvalState(Protocol):
    """Machine state the evaluator reads from."""

    pc: int

    def read_xreg(self, n: int) -> int: ...

    def read_freg(self, n: int) -> int: ...

    def read_mem(self, addr: int, size: int) -> int: ...


#: A concrete write produced by evaluation: one of
#: ("x", regnum, value), ("f", regnum, value),
#: ("mem", addr, size, value), ("pc", value).
Write = tuple


def _signed(v: int) -> int:
    return sign_extend(v, 64)


def _unop(op: str, v: int) -> int:
    if op == "neg":
        return (-v) & _M64
    if op == "not":
        return v ^ _M64
    if op == "clz":
        return 64 - v.bit_length()
    if op == "ctz":
        return 64 if v == 0 else (v & -v).bit_length() - 1
    if op == "cpop":
        return v.bit_count()
    raise ValueError(f"unknown unary op {op!r}")


def _binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return (a + b) & _M64
    if op == "sub":
        return (a - b) & _M64
    if op == "mul":
        return (a * b) & _M64
    if op == "mulh":
        return to_unsigned((_signed(a) * _signed(b)) >> 64, 64)
    if op == "mulhu":
        return (a * b) >> 64
    if op == "mulhsu":
        return to_unsigned((_signed(a) * b) >> 64, 64)
    if op == "divs":
        # RISC-V: div by zero -> -1; INT64_MIN / -1 -> INT64_MIN.
        if b == 0:
            return _M64
        sa, sb = _signed(a), _signed(b)
        if sa == -(1 << 63) and sb == -1:
            return to_unsigned(sa, 64)
        q = abs(sa) // abs(sb)
        return to_unsigned(-q if (sa < 0) != (sb < 0) else q, 64)
    if op == "divu":
        return _M64 if b == 0 else a // b
    if op == "rems":
        if b == 0:
            return a
        sa, sb = _signed(a), _signed(b)
        if sa == -(1 << 63) and sb == -1:
            return 0
        r = abs(sa) % abs(sb)
        return to_unsigned(-r if sa < 0 else r, 64)
    if op == "remu":
        return a if b == 0 else a % b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "sll":
        return (a << (b & 63)) & _M64
    if op == "srl":
        return a >> (b & 63)
    if op == "sra":
        return to_unsigned(_signed(a) >> (b & 63), 64)
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "lts":
        return int(_signed(a) < _signed(b))
    if op == "ltu":
        return int(a < b)
    if op == "ges":
        return int(_signed(a) >= _signed(b))
    if op == "geu":
        return int(a >= b)
    raise ValueError(f"unknown binary op {op!r}")


def _extend(kind: str, v: int, width: int) -> int:
    if kind == "sext":
        return to_unsigned(sign_extend(v, width), 64)
    return v & ((1 << width) - 1)


def eval_expr(e: Expr, instr: Instruction, state: EvalState) -> int:
    """Evaluate one IR expression to a 64-bit unsigned value."""
    if isinstance(e, Const):
        return to_unsigned(e.value, 64)
    if isinstance(e, PC):
        return to_unsigned(state.pc, 64)
    if isinstance(e, ILen):
        return instr.length
    if isinstance(e, OperandRef):
        v = instr.fields.get(e.name)
        if v is None:
            raise ValueError(
                f"{instr.mnemonic}: semantics reference missing operand "
                f"{e.name!r}")
        return to_unsigned(v, 64)
    if isinstance(e, RegRef):
        n = instr.fields.get(e.operand)
        if n is None:
            raise ValueError(
                f"{instr.mnemonic}: semantics reference missing register "
                f"operand {e.operand!r}")
        if e.regfile == "x":
            return 0 if n == 0 else to_unsigned(state.read_xreg(n), 64)
        return to_unsigned(state.read_freg(n), 64)
    if isinstance(e, BinOp):
        return _binop(e.op, eval_expr(e.lhs, instr, state),
                      eval_expr(e.rhs, instr, state))
    if isinstance(e, UnOp):
        return _unop(e.op, eval_expr(e.operand, instr, state))
    if isinstance(e, Extend):
        return _extend(e.kind, eval_expr(e.operand, instr, state), e.width)
    if isinstance(e, MemRead):
        addr = eval_expr(e.addr, instr, state)
        return to_unsigned(state.read_mem(addr, e.size), 64)
    if isinstance(e, ITE):
        return (eval_expr(e.then, instr, state)
                if eval_expr(e.cond, instr, state)
                else eval_expr(e.otherwise, instr, state))
    if isinstance(e, FloatOp):
        return FLOAT_OPS[e.op](*(eval_expr(a, instr, state)
                                 for a in e.args))
    raise TypeError(f"unknown expression {e!r}")


def _eval_effect(eff: Effect, instr: Instruction, state: EvalState,
                 out: list[Write]) -> None:
    if isinstance(eff, RegWrite):
        n = instr.fields[eff.operand]
        v = eval_expr(eff.value, instr, state)
        if not (eff.regfile == "x" and n == 0):
            out.append((eff.regfile, n, v))
    elif isinstance(eff, MemWrite):
        addr = eval_expr(eff.addr, instr, state)
        v = eval_expr(eff.value, instr, state) & ((1 << (8 * eff.size)) - 1)
        out.append(("mem", addr, eff.size, v))
    elif isinstance(eff, PCWrite):
        out.append(("pc", eval_expr(eff.value, instr, state)))
    elif isinstance(eff, CondEffect):
        branch = eff.then if eval_expr(eff.cond, instr, state) else eff.otherwise
        for sub in branch:
            _eval_effect(sub, instr, state, out)
    else:
        raise TypeError(f"unknown effect {eff!r}")


def evaluate(sem: Semantics, instr: Instruction,
             state: EvalState) -> list[Write]:
    """Evaluate semantics, returning the concrete writes.

    A ``("pc", value)`` write is always present (the implicit
    fall-through is materialised when the semantics do not set pc).
    """
    out: list[Write] = []
    for eff in sem.effects:
        _eval_effect(eff, instr, state, out)
    if not any(w[0] == "pc" for w in out):
        out.append(("pc", to_unsigned(state.pc + instr.length, 64)))
    return out
