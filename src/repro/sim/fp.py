"""IEEE-754 helpers for the simulator's F/D implementation.

FP registers hold raw 64-bit patterns; single-precision values are
NaN-boxed (upper 32 bits all-ones) per the RISC-V F-on-RV64 convention.
The bit helpers convert through :mod:`repro.sim.memory`'s precompiled
page accessors.  A ``<d`` unpack/pack round trip keeps every bit
pattern, signalling-NaN payloads included, so moves (``fld``, ``fsd``,
``fmv``, ``fsgnj``) stay bit-exact even when a double passes through a
Python float on the way.

Arithmetic is performed in Python doubles and rounds to nearest even
whatever its rounding mode; only conversions to integers honour a
static ``rm`` (``frm`` and ``fflags`` are not modelled).
Single-precision results are re-rounded through a 32-bit pack, which is
exact for add, subtract, multiply, divide and square root; fused
multiply-adds round the product before the add, and
``fcvt.s.l``/``fcvt.s.lu`` of integers wider than 53 bits round twice,
so those can differ from hardware in the last place.  A NaN result of arithmetic or of a conversion between
formats is the canonical NaN (:data:`QNAN64`, or :data:`QNAN32`
NaN-boxed), as the ISA requires: :func:`bits_from_f32` and
:func:`canonical_bits_from_f64` apply that rule, :func:`bits_from_f64`
does not, because it also packs doubles that ``fld`` loaded.
"""

from __future__ import annotations

import math
import struct

from .memory import ACCESSORS

NAN_BOX = 0xFFFF_FFFF_0000_0000
#: Canonical quiet NaNs.
QNAN64 = 0x7FF8_0000_0000_0000
QNAN32 = 0x7FC0_0000

_M64 = 0xFFFF_FFFF_FFFF_FFFF
_pack_u32, _unpack_u32 = ACCESSORS[4].pack, ACCESSORS[4].unpack
_pack_u64, _unpack_u64 = ACCESSORS[8].pack, ACCESSORS[8].unpack
_pack_f64, _unpack_f64 = ACCESSORS["d"].pack, ACCESSORS["d"].unpack
_F32 = struct.Struct("<f")


def f64_from_bits(bits: int) -> float:
    return _unpack_f64(_pack_u64(bits & _M64))[0]


def bits_from_f64(value: float) -> int:
    """The exact bit pattern of *value*: a NaN keeps its payload."""
    return _unpack_u64(_pack_f64(value))[0]


def canonical_bits_from_f64(value: float) -> int:
    """Bits of a double arithmetic result: any NaN is the canonical
    NaN."""
    if value != value:
        return QNAN64
    return _unpack_u64(_pack_f64(value))[0]


def f32_from_bits(bits: int) -> float:
    """Unbox and read a single.  Improperly boxed values are NaN per spec."""
    if bits & NAN_BOX != NAN_BOX:
        return math.nan
    return _F32.unpack(_pack_u32(bits & 0xFFFF_FFFF))[0]


def bits_from_f32(value: float) -> int:
    """Round to single precision and NaN-box; any NaN is the canonical
    NaN."""
    if value != value:
        return NAN_BOX | QNAN32
    try:
        raw = _F32.pack(value)
    except OverflowError:
        raw = _F32.pack(math.copysign(math.inf, value))
    return NAN_BOX | _unpack_u32(raw)[0]


def classify(value: float, bits: int, single: bool) -> int:
    """The fclass.{s,d} 10-bit result mask."""
    if math.isnan(value):
        # Distinguish signalling vs quiet via the MSB of the mantissa.
        if single:
            quiet = (bits >> 22) & 1
        else:
            quiet = (bits >> 51) & 1
        return 1 << 9 if quiet else 1 << 8
    sign = math.copysign(1.0, value) < 0
    if math.isinf(value):
        return 1 << 0 if sign else 1 << 7
    if value == 0.0:
        return 1 << 3 if sign else 1 << 4
    tiny = abs(value) < (2 ** -126 if single else 2 ** -1022)
    if tiny:
        return 1 << 2 if sign else 1 << 5
    return 1 << 1 if sign else 1 << 6


def fp_min(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def fp_max(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def fp_div(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if b == 0.0:
        if a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    try:
        return a / b
    except OverflowError:  # pragma: no cover - inf/inf handled above
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def fp_sqrt(a: float) -> float:
    if math.isnan(a) or a < 0.0:
        return math.nan
    return math.sqrt(a)


def cvt_to_int(value: float, width: int, signed: bool, rm: int = 0) -> int:
    """fcvt.{w,wu,l,lu}.* : round per *rm* then clamp, with the
    architectural NaN/overflow results.

    rm: 0=RNE (nearest-even), 1=RTZ (toward zero), 2=RDN, 3=RUP,
    7=dynamic (treated as RNE here — the simulator does not model frm).
    """
    if signed:
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        lo, hi = 0, (1 << width) - 1
    if math.isnan(value):
        return hi
    if value <= lo:
        return lo
    if value >= hi:
        return hi
    if rm == 1:
        r = math.trunc(value)
    elif rm == 2:
        r = math.floor(value)
    elif rm == 3:
        r = math.ceil(value)
    else:
        # Banker's rounding (RNE) is Python round()'s behaviour.
        r = round(value)
    return min(max(r, lo), hi)
