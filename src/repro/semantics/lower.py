"""Lower instruction semantics IR to Python source.

The simulator's execution tiers take an instruction's meaning from here
instead of writing it by hand: the closure interpreter compiles one
factory per mnemonic, and the trace emitter inlines the lowered
expressions into compiled traces.

:class:`Lowering` walks one instruction's :class:`~repro.semantics.ir.
Semantics` and renders each expression as a :class:`Val`: Python source
plus what is known about its value.  Every subtree whose leaves are
known at lowering time (immediates, the pc, registers the target reports
constant) folds through the evaluator's ``_binop``/``_unop`` kernel or
the float kernel, so the simulator and
:func:`~repro.semantics.evaluate.evaluate` share one definition of each
operator.  The target -- the code generator being fed -- supplies
register reads and memory reads, and applies the collected effects
itself: register writes, stores, and the next pc.

Values are read from the pre-instruction state: the lowering only builds
expressions (memory reads excepted, which the target emits as it meets
them), and a target evaluates a computed pc and the stores before it
writes registers.  Writes to ``x0`` are dropped; one whose value reads
memory still lowers that read, so the access and its fault happen.
``f0`` is an ordinary register.

The IR has no float type, but a target that keeps doubles as Python
floats (``floats``) gets float values where that is exact: F registers
it holds as floats, 8-byte loads into F registers, and the
:data:`_FLOAT_FORMS`.  A float becomes bits only where bits are needed,
through ``B64`` (``C64`` for an arithmetic result: the canonical NaN).

Symbolic mode (no *fields*) lowers for a per-mnemonic factory: operand
fields and the pc are names bound per instruction, and subtrees over
them are *static* -- computed once per pc by the factory prologue
(:meth:`hoist`) rather than on every execution.
"""

from __future__ import annotations

from .evaluate import _binop, _extend, _unop
from .floats import (
    FLOAT_OPS, NEAREST, b64, c64, f64, fdiv, ffma, fmax, fmin, fsqrt,
)
from .ir import (
    BinOp, CondEffect, Const, Extend, FloatOp, ILen, ITE, MemRead, MemWrite,
    OperandRef, PC, PCWrite, RegRef, RegWrite, Semantics, UnOp,
)

M64 = (1 << 64) - 1
_W64 = "0xFFFFFFFFFFFFFFFF"
_SIGN = 1 << 63


def sx(v: int) -> int:
    """Signed view of a 64-bit value (called from generated code)."""
    return v - (1 << 64) if v >> 63 else v


#: helper names generated code may call, with their bindings
HELPERS = {"sx": sx, "BIN": _binop, "UN": _unop, "F64": f64, "B64": b64,
           "C64": c64, "fdiv": fdiv, "fsqrt": fsqrt, "fmin": fmin,
           "fmax": fmax, "ffma": ffma, **FLOAT_OPS}

# kinds of float value (Val.fl): EXACT's bits are B64 of the float, and
# ARITH's C64 of it (an arithmetic result whose NaN may carry any payload)
EXACT, ARITH = 1, 2

# kinds of float form: floats to a float, floats to a 0/1 compare, and
# a signed or an unsigned integer to a float
_TO_FLOAT, _TO_CMP, _FROM_SIGNED, _FROM_UNSIGNED = range(4)

#: double-precision primitives a float-keeping target renders over Python
#: floats when they round to nearest even: op -> (format over the operand
#: atoms, the helper it calls or None, kind)
_FLOAT_FORMS = {
    "f64_add": ("{} + {}", None, _TO_FLOAT),
    "f64_sub": ("{} - {}", None, _TO_FLOAT),
    "f64_mul": ("{} * {}", None, _TO_FLOAT),
    "f64_div": ("fdiv({}, {})", "fdiv", _TO_FLOAT),
    "f64_sqrt": ("fsqrt({})", "fsqrt", _TO_FLOAT),
    "f64_min": ("fmin({}, {})", "fmin", _TO_FLOAT),
    "f64_max": ("fmax({}, {})", "fmax", _TO_FLOAT),
    "f64_madd": ("ffma({}, {}, {})", "ffma", _TO_FLOAT),
    "f64_msub": ("ffma({}, {}, -{})", "ffma", _TO_FLOAT),
    "f64_nmsub": ("ffma(-{}, {}, {})", "ffma", _TO_FLOAT),
    "f64_nmadd": ("ffma(-{}, {}, -{})", "ffma", _TO_FLOAT),
    "f64_eq": ("{} == {}", None, _TO_CMP),
    "f64_lt": ("{} < {}", None, _TO_CMP),
    "f64_le": ("{} <= {}", None, _TO_CMP),
    "i64_to_f64": ("float({})", None, _FROM_SIGNED),
    "u64_to_f64": ("float({})", None, _FROM_UNSIGNED),
}

# precedence of a rendered expression: an operand is parenthesised when
# its precedence is at least the consumer's _WRAP threshold
ATOM, OP, CMP, IF = range(4)
_WRAP = {ATOM: 9, OP: OP, CMP: OP, IF: IF}

_SYM = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
        "xor": "^", "sll": "<<", "eq": "==", "ne": "!=", "lts": "<",
        "ltu": "<", "ges": ">=", "geu": ">="}


class Val:
    """One lowered expression.

    *src* is Python source; *const* its canonical value when known at
    lowering time; *static* marks symbolic per-pc values.  *canon* means
    the source evaluates to the canonical unsigned value (else only to a
    value congruent to it modulo 2**64), *signed* that it evaluates to
    the signed view, and *bits* bounds the bit length of a canonical
    value.  A nonzero *fl* (:data:`EXACT`, :data:`ARITH`) means the
    source evaluates to a Python float holding the value's double; *fr*
    names the F register whose float local the source is, when it is
    one.
    """

    __slots__ = ("src", "const", "static", "canon", "signed", "bits", "prec",
                 "fl", "fr")

    def __init__(self, src: str, const: int | None = None,
                 static: bool = False, canon: bool = True,
                 signed: bool = False, bits: int = 64, prec: int = ATOM,
                 fl: int = 0, fr: int | None = None):
        self.src = src
        self.const = const
        self.static = static
        self.canon = canon
        self.signed = signed
        self.bits = bits
        self.prec = prec
        self.fl = fl
        self.fr = fr


def const(c: int, src: str | None = None) -> Val:
    """A canonical constant, rendered as *src* (default hex)."""
    return Val(f"{c:#x}" if src is None else src, c, bits=c.bit_length())


def _literal(v: int, canon: bool) -> Val:
    """A literal from the IR or an operand field, rendered as written.
    Immediates are never *canon*, so contexts that need the canonical
    value render them in hex."""
    return Val(str(v), v & M64, canon=canon, signed=True,
               bits=(v & M64).bit_length())


def _hex(v: int) -> str:
    return f"0x{v:X}"


class Lowering:
    """Lower one instruction's semantics for *target*.

    The target provides ``reg(n) -> Val``, ``freg(n, fl) -> Val`` (an F
    register as the target holds it, or as a float when *fl*),
    ``load(lowering, n, offset, size, dest) -> Val`` (emitting the read
    itself; a float-keeping target may load straight into F register
    *dest*, the instruction's only effect) and, in symbolic mode,
    ``hoist(val) -> Val``; ``floats`` says whether it keeps doubles as
    Python floats.  Registers are identified by number, or by operand
    name in symbolic mode, where *zero* names the register operands known
    to be ``x0``.  After construction, ``writes`` holds ``(register,
    Val)`` pairs for x registers, ``fwrites`` for F registers, ``stores``
    ``(base register, offset, size, Val)`` tuples, and ``target``/``cond``
    the pc write (taken when ``cond`` holds).
    """

    def __init__(self, sem: Semantics, target, fields: dict | None = None,
                 pc: int = 0, ilen: int = 4, zero: tuple = ()):
        self.t = target
        self.fields = fields
        self.pc = pc
        self.ilen = ilen
        self.zero = zero
        #: symbolic mode: operand fields referenced, in first-use order
        self.operands: list[str] = []
        #: names from HELPERS the rendered source calls
        self.helpers: set[str] = set()
        self.writes: list[tuple] = []
        self.fwrites: list[tuple] = []
        self.stores: list[tuple] = []
        self.target: Val | None = None
        self.cond: Val | None = None
        self._single = len(sem.effects) == 1
        for eff in sem.effects:
            self._effect(eff)

    # -- effects ---------------------------------------------------------

    def _effect(self, eff) -> None:
        if isinstance(eff, RegWrite) and eff.regfile == "f":
            r, e = self._reg_id(eff.operand), eff.value
            self.fwrites.append((r, self._load(e, r) if isinstance(
                e, MemRead) and self._single else self.expr(e)))
        elif isinstance(eff, RegWrite):
            if self._is_zero(eff.operand):
                if any(isinstance(n, MemRead) for n in eff.value.walk()):
                    self.expr(eff.value)  # the access still happens
                return
            self.writes.append((self._reg_id(eff.operand),
                                self.expr(eff.value)))
        elif isinstance(eff, MemWrite):
            base, off = self._address(eff.addr)
            self.stores.append((base, off, eff.size, self.expr(eff.value)))
        elif isinstance(eff, PCWrite):
            self.target = self.expr(eff.value)
        elif isinstance(eff, CondEffect) and not eff.otherwise and \
                len(eff.then) == 1 and isinstance(eff.then[0], PCWrite):
            self.cond = self.expr(eff.cond)
            self.target = self.expr(eff.then[0].value)
        else:
            raise NotImplementedError(f"cannot lower effect {eff!r}")

    def _is_zero(self, operand: str) -> bool:
        if self.fields is None:
            return operand in self.zero
        return self.fields[operand] == 0

    def _reg_id(self, operand: str):
        if self.fields is None:
            if operand not in self.operands:
                self.operands.append(operand)
            return operand
        return self.fields[operand]

    def value(self, v: Val) -> Val:
        """*v* in the form a register, memory or pc write takes: a
        canonical integer (hoisted when static)."""
        v = self._bits(v)
        if v.prec == CMP:
            v = self._node("1 if {} else 0", v, prec=IF, bits=1)
        v = self._canon(v)
        return self.t.hoist(v) if v.static else v

    # -- expressions -----------------------------------------------------

    def expr(self, e) -> Val:
        if isinstance(e, BinOp):
            return self.binop(e.op, self.expr(e.lhs), self.expr(e.rhs))
        if isinstance(e, RegRef):
            if e.regfile == "f":
                return self.t.freg(self._reg_id(e.operand), False)
            return self.t.reg(self._reg_id(e.operand))
        if isinstance(e, OperandRef):
            if self.fields is None:
                self._reg_id(e.name)
                return Val(e.name, static=True, canon=False, signed=True)
            return _literal(self.fields[e.name], False)
        if isinstance(e, Const):
            if e.value > 0xFFFF:  # a mask: render it the way it is read
                return const(e.value, _hex(e.value))
            return _literal(e.value, 0 <= e.value <= M64)
        if isinstance(e, MemRead):
            return self._load(e)
        if isinstance(e, FloatOp):
            return self._float(e)
        if isinstance(e, Extend):
            return self._extend(e.kind, self.expr(e.operand), e.width)
        if isinstance(e, ITE):
            c = self._bits(self.expr(e.cond))
            if c.const is not None:
                return self.expr(e.then if c.const else e.otherwise)
            a, b = self._bits(self.expr(e.then)), \
                self._bits(self.expr(e.otherwise))
            return self._node("{} if {} else {}", a, c, b, prec=IF,
                              canon=a.canon and b.canon,
                              signed=a.signed and b.signed,
                              bits=max(a.bits, b.bits))
        if isinstance(e, PC):
            return Val("pc", static=True) if self.fields is None \
                else const(self.pc)
        if isinstance(e, ILen):
            return Val("ilen", static=True) if self.fields is None \
                else const(self.ilen, str(self.ilen))
        if isinstance(e, UnOp):
            return self._unop(e.op, self.expr(e.operand))
        raise TypeError(f"unknown expression {e!r}")

    def _address(self, a) -> tuple:
        """(base register, offset Val) of a register(+offset) address."""
        if isinstance(a, RegRef):
            return self._reg_id(a.operand), const(0, "0")
        if not (isinstance(a, BinOp) and a.op == "add"
                and isinstance(a.lhs, RegRef)):
            raise NotImplementedError("address must be register+offset")
        return self._reg_id(a.lhs.operand), self.expr(a.rhs)

    def _load(self, e: MemRead, dest=None) -> Val:
        base, off = self._address(e.addr)
        return self.t.load(self, base, off, e.size, dest)

    # -- float primitives --------------------------------------------------

    def _float(self, e: FloatOp) -> Val:
        v = self._float_form(e) if self.t.floats else None
        if v is not None:
            return v
        args = [self.value(self.expr(a)) for a in e.args]
        if all(a.const is not None for a in args):
            return const(FLOAT_OPS[e.op](*(a.const for a in args)))
        self.helpers.add(e.op)
        return self._node(e.op + "(" + ", ".join(["{}"] * len(args)) + ")",
                          *args, prec=ATOM)

    def _float_form(self, e: FloatOp) -> Val | None:
        """*e* rendered over Python floats, or None."""
        if e.op not in _FLOAT_FORMS:
            return None
        fmt, helper, kind = _FLOAT_FORMS[e.op]
        n = fmt.count("{}")
        if len(e.args) > n and self.expr(e.args[n]).const not in NEAREST:
            return None  # a directed rounding mode
        if kind in (_FROM_SIGNED, _FROM_UNSIGNED):
            v = self._bits(self.expr(e.args[0]))
            if v.const is not None:
                return None  # folds through the kernel
            v = self._signed(v) if kind == _FROM_SIGNED else self._canon(v)
            return self._node(fmt, v, prec=ATOM, fl=EXACT)
        xs = [self._flt(a) for a in e.args[:n]]
        if helper is not None:
            self.helpers.add(helper)
        if kind == _TO_CMP:
            return self._node(fmt, *xs, prec=CMP, bits=1)
        return self._node(fmt, *xs, prec=OP if helper is None else ATOM,
                          fl=ARITH)

    def _flt(self, e) -> Val:
        """*e* as an atom evaluating to a Python float (float-keeping
        targets only)."""
        if isinstance(e, RegRef) and e.regfile == "f":
            return self.t.freg(self._reg_id(e.operand), True)
        v = self.expr(e)
        if not v.fl:
            self.helpers.add("F64")
            return self._node("F64({})", self.value(v), prec=ATOM, fl=EXACT)
        return v if v.prec == ATOM else Val(f"({v.src})", fl=v.fl)

    # -- integer operators -------------------------------------------------

    def _bits(self, v: Val) -> Val:
        """*v* as an integer: a float becomes its bits (the canonical NaN
        for an arithmetic result).  Every integer operator applies it."""
        if not v.fl:
            return v
        name = "B64" if v.fl == EXACT else "C64"
        self.helpers.add(name)
        return self._node(name + "({})", v, prec=ATOM)

    def _node(self, fmt: str, *args: Val, prec: int = OP, canon=True,
              signed=False, bits=64, fl=0) -> Val:
        """Render *fmt* over *args*.  Static only if every argument is
        static or constant; otherwise static arguments are hoisted."""
        static = False
        if self.fields is None:  # only symbolic lowering has static values
            static = any(a.static for a in args) and \
                all(a.static or a.const is not None for a in args)
            if not static:
                args = [self.t.hoist(a) if a.static else a for a in args]
        wrap = _WRAP[prec]
        srcs = [f"({a.src})" if a.prec >= wrap else a.src for a in args]
        return Val(fmt.format(*srcs), None, static, canon, signed, bits, prec,
                   fl)

    def _call(self, name: str, op: str, *args: Val) -> Val:
        self.helpers.add(name)
        return self._node(f"{name}({op!r}, " + ", ".join(["{}"] * len(args))
                          + ")", *args, prec=ATOM)

    def _canon(self, v: Val) -> Val:
        if v.canon:
            return v
        if v.const is not None:
            return const(v.const)
        return self._node("{} & " + _W64, v)

    def _signed(self, v: Val) -> Val:
        if v.const is not None:
            return Val(str(sx(v.const)), v.const, signed=True)
        if v.signed:
            return v
        return self._node("sx({})", self._canon(v), prec=ATOM, canon=False,
                          signed=True)

    def _biased(self, v: Val) -> Val:
        """*v* with its sign bit flipped: compared unsigned, biased
        values order as their signed views do, without an ``sx`` call
        (a constant folds)."""
        if v.const is not None:
            return const(v.const ^ _SIGN)
        return self._node("{} ^ " + _hex(_SIGN), self._canon(v))

    def _shamt(self, v: Val) -> Val:
        """A shift amount: the operand's low six bits."""
        if v.const is not None:
            return const(v.const & 63, str(v.const & 63))
        if v.canon and v.bits <= 6:
            return v
        return self.binop("and", v, const(63, "63"))

    def binop(self, op: str, a: Val, b: Val) -> Val:
        a, b = self._bits(a), self._bits(b)
        if a.const is not None and b.const is not None:
            return const(_binop(op, a.const, b.const))
        sym = _SYM.get(op)
        if op == "add" and (a.const == 0 or b.const == 0):
            return b if a.const == 0 else a
        if op in ("add", "sub", "mul"):
            return self._node("{} %s {}" % sym, a, b, canon=False)
        if op in ("and", "or", "xor"):
            # constant and per-pc operands are cheap to make canonical
            a, b = (self._canon(v) if v.const is not None or v.static
                    else v for v in (a, b))
            if op == "and":
                bits = [v.bits for v in (a, b) if v.canon]
                return self._node("{} & {}", a, b, canon=bool(bits),
                                  bits=min(bits, default=64))
            return self._node("{} %s {}" % sym, a, b,
                              canon=a.canon and b.canon,
                              bits=max(a.bits, b.bits))
        if op == "sll":
            return self._node("{} << {}", a, self._shamt(b), canon=False)
        if op == "srl":
            a = self._canon(a)
            return self._node("{} >> {}", a, self._shamt(b), bits=a.bits)
        if op == "sra":
            return self._node("{} >> {}", self._signed(a), self._shamt(b),
                              canon=False, signed=True)
        if op in ("lts", "ges"):
            return self._node("{} %s {}" % sym, self._biased(a),
                              self._biased(b), prec=CMP, bits=1)
        if sym is not None:  # eq, ne, ltu, geu
            return self._node("{} %s {}" % sym, self._canon(a),
                              self._canon(b), prec=CMP, bits=1)
        return self._call("BIN", op, self._canon(a), self._canon(b))

    def _unop(self, op: str, a: Val) -> Val:
        a = self._bits(a)
        if a.const is not None:
            return const(_unop(op, a.const))
        if op == "not":
            return self._node("{} ^ " + _W64, a, canon=a.canon)
        return self._call("UN", op, self._canon(a))

    def _extend(self, kind: str, v: Val, width: int) -> Val:
        v = self._bits(v)
        if v.const is not None:
            return const(_extend(kind, v.const, width))
        if not (v.canon and v.bits <= width):
            v = self._node("{} & " + _hex((1 << width) - 1), v, bits=width)
        if kind == "zext":
            return v
        sign = _hex(1 << (width - 1))
        v = self._node("{} ^ " + sign, v, bits=width)
        return self._node("{} - " + sign, v, canon=False, signed=True)
