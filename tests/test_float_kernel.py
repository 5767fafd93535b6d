"""The float kernel's rounding against exact rational arithmetic.

Every tier and the evaluator share :mod:`repro.semantics.floats`, so the
SAIL-vs-simulator property cannot see a rounding error in it.  This
file checks the kernel against an independent oracle instead: the exact
result as a :class:`~fractions.Fraction`, and the representable values
next to the rounded result.  Nearest-even double arithmetic must also
equal the host's IEEE arithmetic.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.semantics.floats import FLOAT_OPS, NAN_BOX, b64, f32, f64

RTZ, RDN, RUP, RMM = 1, 2, 3, 4

#: finite values over the whole exponent range, subnormals included
_VALUES = {64: st.floats(allow_nan=False, allow_infinity=False),
           32: st.floats(width=32, allow_nan=False, allow_infinity=False)}

_EXACT = {
    "add": lambda x, y, z: Fraction(x) + Fraction(y),
    "sub": lambda x, y, z: Fraction(x) - Fraction(y),
    "mul": lambda x, y, z: Fraction(x) * Fraction(y),
    "div": lambda x, y, z: Fraction(x) / Fraction(y),
    "madd": lambda x, y, z: Fraction(x) * Fraction(y) + Fraction(z),
}


def _bits32(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _pack(x: float, fmt: int) -> int:
    return b64(x) if fmt == 64 else NAN_BOX | _bits32(x)


def _neighbours(r: float, fmt: int) -> list[Fraction | None]:
    """The finite values of format *fmt* just below and just above *r*."""
    if fmt == 64:
        near = [math.nextafter(r, -math.inf), math.nextafter(r, math.inf)]
    elif r == 0:
        near = [-math.ldexp(1, -149), math.ldexp(1, -149)]
    else:  # sign-magnitude: one step of the pattern away from zero and back
        step = 1 if r > 0 else -1
        near = [f32(NAN_BOX | (_bits32(r) - step)),
                f32(NAN_BOX | (_bits32(r) + step))]
    return [Fraction(v) if math.isfinite(v) else None for v in near]


def _rounds_correctly(exact: Fraction, r: float, rm: int, fmt: int) -> bool:
    """*r* is *exact* rounded once to *fmt* under *rm*."""
    lo, hi = _neighbours(r, fmt)
    fr = Fraction(r)
    if rm == RDN:
        return fr <= exact and (hi is None or exact < hi)
    if rm == RUP:
        return fr >= exact and (lo is None or exact > lo)
    if rm == RTZ:
        away = hi if exact > 0 else lo
        return abs(fr) <= abs(exact) and (away is None
                                          or abs(exact) < abs(away))
    # to nearest; a tie goes away from zero in RMM, to even otherwise
    d = abs(fr - exact)
    near = [v for v in (lo, hi) if v is not None]
    if any(abs(v - exact) < d for v in near):
        return False
    tie = [v for v in near if abs(v - exact) == d]
    if not tie:
        return True
    if rm == RMM:
        return abs(fr) > abs(tie[0])
    return (b64(r) if fmt == 64 else _bits32(r)) & 1 == 0


@settings(max_examples=400, deadline=None)
@given(op=st.sampled_from(sorted(_EXACT)), rm=st.sampled_from([0, 1, 2, 3, 4]),
       fmt=st.sampled_from([32, 64]), data=st.data())
def test_arithmetic_rounds_once(op, rm, fmt, data):
    x, y, z = (data.draw(_VALUES[fmt]) for _ in range(3))
    if op == "div" and y == 0:
        return
    exact = _EXACT[op](x, y, z)
    if exact == 0:
        return  # an exact zero's sign is not a rounding question
    args = [_pack(x, fmt), _pack(y, fmt)] + [_pack(z, fmt)] * (op == "madd")
    out = FLOAT_OPS[f"f{fmt}_{op}"](*args, rm)
    r = f64(out) if fmt == 64 else f32(out)
    if math.isfinite(r):  # an overflow leaves the oracle's range
        assert _rounds_correctly(exact, r, rm, fmt), (x, y, z, r)


@settings(max_examples=300, deadline=None)
@given(x=_VALUES[64], y=_VALUES[64],
       op=st.sampled_from(["add", "sub", "mul", "div"]))
def test_nearest_even_is_the_hosts(x, y, op):
    if op == "div" and y == 0:
        return
    host = x + y if op == "add" else x - y if op == "sub" else \
        x * y if op == "mul" else x / y
    assert FLOAT_OPS[f"f64_{op}"](b64(x), b64(y), 0) == b64(host)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=0.0, allow_infinity=False, exclude_min=True),
       rm=st.sampled_from([RTZ, RDN, RUP]))
def test_directed_sqrt_brackets_the_root(x, rm):
    r = f64(FLOAT_OPS["f64_sqrt"](b64(x), rm))
    lo, hi = _neighbours(r, 64)
    if rm == RUP:
        assert lo ** 2 < Fraction(x) <= Fraction(r) ** 2
    else:  # a positive root rounds down toward zero too
        assert Fraction(r) ** 2 <= Fraction(x) < hi ** 2


#: integers halfway between two singles: an odd 25-bit value, shifted
_TIES = st.builds(lambda k, s: ((k << 1) | 1) << s,
                  st.integers(1 << 23, (1 << 24) - 1), st.integers(0, 38))


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(_TIES, st.integers(0, (1 << 64) - 1)),
       rm=st.sampled_from([0, 1, 2, 3, 4]), signed=st.booleans())
def test_integer_to_single_rounds_once(v, rm, signed):
    out = FLOAT_OPS["i64_to_f32" if signed else "u64_to_f32"](v, rm)
    exact = Fraction(v - (1 << 64) if signed and v >> 63 else v)
    if exact:
        assert _rounds_correctly(exact, f32(out), rm, 32), (v, hex(out))
