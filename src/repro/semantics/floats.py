"""The float kernel: F/D primitives over register bit patterns.

Every primitive in :data:`FLOAT_OPS` maps 64-bit patterns to a bit
pattern (or, for compares, ``class`` and conversions to integers, to an
integer).  The evaluator calls them, :mod:`repro.semantics.lower` folds
constants with them, and generated code calls them by name; the trace
JIT's float rendering calls the float-level helpers they wrap.

A single lives NaN-boxed in the low 32 bits of an F register.  Loads,
stores and ``fmv`` move raw bits; every other single-precision operand
goes through :func:`unbox32`, which reads an improperly boxed value as
the canonical NaN.  A NaN result of arithmetic, ``fmin``/``fmax`` or a
conversion between formats is the canonical NaN (:func:`c64`,
:func:`b32`); :func:`b64` keeps every bit, as moves must.

Rounding: nearest-even arithmetic runs on Python doubles (a single's
result re-rounded by a 32-bit pack, exact for add, subtract, multiply,
divide and square root).  A static directed ``rm`` (RTZ, RDN, RUP, RMM),
every fused multiply-add and every integer-to-single conversion compute
the exact result with integer or :class:`~fractions.Fraction`
arithmetic and round once.  Not modelled: ``frm`` and ``fflags``; the
dynamic ``rm`` (7, and the reserved 5 and 6) rounds to nearest even.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction

NAN_BOX = 0xFFFF_FFFF_0000_0000
QNAN64 = 0x7FF8_0000_0000_0000  # the canonical NaNs
QNAN32 = 0x7FC0_0000
RNE, RTZ, RDN, RUP, RMM = range(5)
#: ``rm`` values that round to nearest even
NEAREST = frozenset({RNE, 5, 6, 7})

_D, _Q = struct.Struct("<d"), struct.Struct("<Q")
_F, _I = struct.Struct("<f"), struct.Struct("<I")


def f64(bits: int) -> float:
    return _D.unpack(_Q.pack(bits))[0]


def b64(x: float) -> int:
    """The exact bit pattern of *x*: a NaN keeps its payload."""
    return _Q.unpack(_D.pack(x))[0]


def c64(x: float) -> int:
    """Bits of a double result: any NaN is the canonical NaN."""
    return QNAN64 if x != x else _Q.unpack(_D.pack(x))[0]


def unbox32(bits: int) -> int:
    return bits & 0xFFFF_FFFF if bits >> 32 == 0xFFFF_FFFF else QNAN32


def f32(bits: int) -> float:
    return _F.unpack(_I.pack(unbox32(bits)))[0]


def b32(x: float) -> int:
    """Round *x* to single (nearest even), NaN-boxed; any NaN is the
    canonical NaN."""
    if x != x:
        return NAN_BOX | QNAN32
    try:
        return NAN_BOX | _I.unpack(_F.pack(x))[0]
    except OverflowError:
        return NAN_BOX | _I.unpack(_F.pack(math.copysign(math.inf, x)))[0]


# -- float-level double operations: nearest even, NaNs of any payload ----

def fdiv(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def fsqrt(a: float) -> float:
    return math.sqrt(a) if a >= 0.0 else math.nan  # sqrt(-0.0) is -0.0


def fmin(a: float, b: float, lower: bool = True) -> float:
    """The lower of *a* and *b* (the higher unless *lower*): a NaN
    loses to a number, and -0.0 is below +0.0."""
    if a != a or b != b:
        return b if a != a else a
    if a == b:
        return a if (math.copysign(1.0, a) < 0) == lower else b
    return min(a, b) if lower else max(a, b)


def fmax(a: float, b: float) -> float:
    return fmin(a, b, False)


# -- exact rounding ------------------------------------------------------

#: format -> (precision, lowest and highest ulp exponent)
_FORMATS = {64: (53, -1074, 971), 32: (24, -149, 104)}


def _round(q: Fraction, fmt: int, rm: int) -> float:
    """The *fmt* value nonzero *q* rounds to under *rm*, as a float."""
    p, emin, emax = _FORMATS[fmt]
    neg, n, d = q < 0, abs(q.numerator), q.denominator
    e = max(n.bit_length() - d.bit_length() - p, emin)
    while True:
        num, den = (n << -e, d) if e < 0 else (n, d << e)
        m, r = divmod(num, den)
        if m >> p == 0:
            break
        e += 1
    if rm in (RTZ, RDN, RUP):  # away from zero only toward its infinity
        m += r > 0 and rm == (RDN if neg else RUP)
    else:  # ties away from zero (RMM) or to even
        m += 2 * r > den or (2 * r == den and (rm == RMM or m & 1))
    if m >> p:
        m, e = m >> 1, e + 1
    if e <= emax:
        v = math.ldexp(m, e)
    elif rm == RTZ or rm == (RUP if neg else RDN):
        v = math.ldexp((1 << p) - 1, emax)  # the largest finite value
    else:
        v = math.inf
    return -v if neg else v


def ffma(a: float, b: float, c: float | None, fmt: int = 64,
         rm: int = RNE) -> float:
    """``a * b + c`` (``a * b`` when *c* is None), rounded once."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b if c is None else a * b + c
    if c is not None and not math.isfinite(c):
        return c
    q = Fraction(a) * Fraction(b) + Fraction(c or 0)
    if q:
        return _round(q, fmt, rm)
    # an exact zero: a product keeps its sign, a sum of two zeros of one
    # sign keeps theirs, and any other exact-zero sum is +0 (-0 in RDN)
    neg = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
    if c is None or ((a == 0.0 or b == 0.0) and c == 0.0
                     and neg == (math.copysign(1.0, c) < 0)):
        return -0.0 if neg else 0.0
    return -0.0 if rm == RDN else 0.0


def _directed(name: str, x: float, y: float, fmt: int, rm: int) -> float:
    if name == "mul":
        return ffma(x, y, None, fmt, rm)
    if name != "div":
        return ffma(x, 1.0, -y if name == "sub" else y, fmt, rm)
    if not (math.isfinite(x) and math.isfinite(y)) or x == 0.0 or y == 0.0:
        return fdiv(x, y)  # exact: a NaN, an infinity or a zero
    return _round(Fraction(x) / Fraction(y), fmt, rm)


def _sqrt(x: float, fmt: int, rm: int) -> float:
    """The integer root of *x* scaled by 4**k, plus a half bit when it
    is inexact, rounded once."""
    if not (0.0 < x < math.inf):
        return fsqrt(x)
    n, d = x.as_integer_ratio()
    k = max(0, _FORMATS[fmt][0] + 3 - (n.bit_length() - d.bit_length()) // 2)
    s = math.isqrt((n << 2 * k) // d)
    return _round(Fraction(2 * s + (s * s * d != n << 2 * k), 2 << k), fmt, rm)


def _to_int(x: float, width: int, signed: bool, rm: int) -> int:
    """``fcvt`` to an integer: round per *rm*, then saturate (a NaN
    converts to the largest value)."""
    lo, hi = (-(1 << (width - 1)), (1 << (width - 1)) - 1) if signed \
        else (0, (1 << width) - 1)
    if x != x or x >= hi:
        return hi
    if x <= lo:
        return lo
    r = (math.trunc if rm in (RTZ, RMM) else math.floor if rm == RDN
         else math.ceil if rm == RUP else round)(x)
    if rm == RMM and abs(x - r) >= 0.5:  # exact: |x| < 2**63 here
        r += 1 if x > 0 else -1
    return min(max(r, lo), hi)


def _classify(bits: int, ebits: int, mbits: int) -> int:
    """The ``fclass`` mask of a pattern with *ebits*/*mbits* fields."""
    neg = bits >> (ebits + mbits) & 1
    exp, man = bits >> mbits & ((1 << ebits) - 1), bits & ((1 << mbits) - 1)
    if exp == (1 << ebits) - 1 and man:  # quiet NaNs set the top bit
        return 1 << (9 if man >> (mbits - 1) else 8)
    # infinity, normal, subnormal, zero: bits 0-3 negative, 7-4 positive
    k = 0 if exp == (1 << ebits) - 1 else 1 if exp else 2 if man else 3
    return 1 << (k if neg else 7 - k)


# -- the primitives ----------------------------------------------------------

#: ``fma`` variants: whether the product and the addend are negated
_FMA_NEG = {"madd": (False, False), "msub": (False, True),
            "nmsub": (True, False), "nmadd": (True, True)}
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": fdiv}


def _format_ops(fmt: int) -> dict:
    """The primitives of one format (``f32_*`` or ``f64_*``, and the
    conversions from integers to it)."""
    get, put = (f64, c64) if fmt == 64 else (f32, b32)

    def binary(name, op):
        def prim(a, b, rm):
            x, y = get(a), get(b)
            return put(op(x, y) if rm in NEAREST
                       else _directed(name, x, y, fmt, rm))
        return prim

    def fma(neg_p, neg_c):
        def prim(a, b, c, rm):
            x, z = get(a), get(c)
            return put(ffma(-x if neg_p else x, get(b), -z if neg_c else z,
                            fmt, rm))
        return prim

    def to(width, signed):
        def prim(a, rm):
            return _to_int(get(a), width, signed, rm) & ((1 << width) - 1)
        return prim

    def from_int(signed):
        def prim(v, rm):
            if signed and v >> 63:
                v -= 1 << 64
            if fmt == 64 and rm in NEAREST:
                return b64(float(v))  # int -> float rounds to nearest
            x = _round(Fraction(v), fmt, rm) if v else 0.0
            return b64(x) if fmt == 64 else b32(x)
        return prim

    def sqrt(a, rm):
        x = get(a)
        return put(fsqrt(x) if rm in NEAREST else _sqrt(x, fmt, rm))

    ops = {name: binary(name, op) for name, op in _BINARY.items()}
    ops.update({v: fma(*neg) for v, neg in _FMA_NEG.items()})
    ops.update({f"to_{s}{w}": to(w, s == "i") for s in "iu" for w in (32, 64)})
    ops.update(sqrt=sqrt, min=lambda a, b: put(fmin(get(a), get(b))),
               max=lambda a, b: put(fmax(get(a), get(b))),
               eq=lambda a, b: int(get(a) == get(b)),
               lt=lambda a, b: int(get(a) < get(b)),
               le=lambda a, b: int(get(a) <= get(b)))
    ops["class"] = (lambda a: _classify(a, 11, 52)) if fmt == 64 \
        else (lambda a: _classify(unbox32(a), 8, 23))
    out = {f"f{fmt}_{k}": v for k, v in ops.items()}
    out[f"i64_to_f{fmt}"] = from_int(True)
    out[f"u64_to_f{fmt}"] = from_int(False)
    for name, fn in out.items():
        fn.__name__ = fn.__qualname__ = name
    return out


def _f64_to_f32(a: int, rm: int) -> int:
    x = f64(a)
    if rm not in NEAREST and x != 0.0 and math.isfinite(x):
        x = _round(Fraction(x), 32, rm)
    return b32(x)


#: primitive name -> function over bit patterns; a rounding primitive
#: takes the static ``rm`` last
FLOAT_OPS: dict = {**_format_ops(32), **_format_ops(64),
                   "f64_to_f32": _f64_to_f32,
                   "f32_to_f64": lambda a: c64(f32(a)),
                   "f32_unbox": unbox32}
