"""Mini-SAIL semantic definitions for RV64GC.

This file plays the role of the *official RISC-V SAIL model* in the
paper's pipeline (§3.2.4): a high-level, declarative description of what
each instruction computes, written in a small SAIL-flavoured DSL.  The
pipeline is::

    DSL text (this file)
      --[sail.parser]-->  simplified JSON IR     (paper: OCaml -> JSON)
      --[sail.gen]------>  Python semantic classes (paper: JSON -> C++)

Adding a new extension = appending clauses here and re-running the
pipeline; nothing else in the toolkit changes (the simulator executes
these clauses through :mod:`repro.semantics.lower`).

DSL cheat sheet
---------------
* ``X(rs1)`` — integer register named by the decoded ``rs1`` field
  (reads of x0 yield 0, writes to x0 vanish).
* ``F(rs1)`` — FP register: a 64-bit pattern (f0 is an ordinary
  register).  A single sits in the low 32 bits under a NaN box of ones.
* ``pc`` / ``ilen`` — instruction address / encoded length.
* ``imm`` / ``shamt`` / ``rm`` — decoded immediate fields (``rm`` is
  the static rounding mode).
* ``mem(addr, n)`` — n-byte little-endian load (zero-extended);
  assignment to ``mem(addr, n)`` is a store.  Every read sees the
  pre-instruction memory, so an AMO is a load and a store.
* ``sext(e, w)`` / ``zext(e, w)`` — extend the low w bits.
* Signedness-explicit operators: ``/s /u %s %u <s <u >=s >=u >>a >>l``.
* ``f64_add(a, b, rm)``, ``f32_class(a)``, ``i64_to_f64(v, rm)``... —
  the float primitives of :mod:`repro.semantics.floats`, over bit
  patterns.  NaN boxing, unboxing and the canonical-NaN rule live
  there; ``f32_unbox(a)`` exposes the unboxing to bit-level clauses.
* ``if cond { ... } else { ... }``; statements separated by ``;``.
* An instruction without a ``pc = ...`` assignment falls through.

Coverage: 166 of the 178 RV64GC specs: I, M, A's AMOs, F, D and the
RVA23 samples Zicond, Zba and Zbb.  ``lr``/``sc``, Zicsr, ``ecall`` and
``ebreak`` use the operand-derived def/use fallback of
:mod:`repro.semantics.registry` (the paper's "hand-crafted semantic
descriptions") and run hand-written in the simulator.
"""

SAIL_SOURCE = r"""
// ---- RV64I: computational, register-immediate ----
addi  { X(rd) = X(rs1) + imm }
slti  { X(rd) = ite(X(rs1) <s imm, 1, 0) }
sltiu { X(rd) = ite(X(rs1) <u imm, 1, 0) }
xori  { X(rd) = X(rs1) ^ imm }
ori   { X(rd) = X(rs1) | imm }
andi  { X(rd) = X(rs1) & imm }
slli  { X(rd) = X(rs1) << shamt }
srli  { X(rd) = X(rs1) >>l shamt }
srai  { X(rd) = X(rs1) >>a shamt }
addiw { X(rd) = sext(X(rs1) + imm, 32) }
slliw { X(rd) = sext(X(rs1) << shamt, 32) }
srliw { X(rd) = sext(zext(X(rs1), 32) >>l shamt, 32) }
sraiw { X(rd) = sext(sext(X(rs1), 32) >>a shamt, 32) }

// ---- RV64I: computational, register-register ----
add  { X(rd) = X(rs1) + X(rs2) }
sub  { X(rd) = X(rs1) - X(rs2) }
sll  { X(rd) = X(rs1) << (X(rs2) & 63) }
slt  { X(rd) = ite(X(rs1) <s X(rs2), 1, 0) }
sltu { X(rd) = ite(X(rs1) <u X(rs2), 1, 0) }
xor  { X(rd) = X(rs1) ^ X(rs2) }
srl  { X(rd) = X(rs1) >>l (X(rs2) & 63) }
sra  { X(rd) = X(rs1) >>a (X(rs2) & 63) }
or   { X(rd) = X(rs1) | X(rs2) }
and  { X(rd) = X(rs1) & X(rs2) }
addw { X(rd) = sext(X(rs1) + X(rs2), 32) }
subw { X(rd) = sext(X(rs1) - X(rs2), 32) }
sllw { X(rd) = sext(X(rs1) << (X(rs2) & 31), 32) }
srlw { X(rd) = sext(zext(X(rs1), 32) >>l (X(rs2) & 31), 32) }
sraw { X(rd) = sext(sext(X(rs1), 32) >>a (X(rs2) & 31), 32) }

// ---- RV64I: upper-immediate ----
lui   { X(rd) = sext(imm << 12, 32) }
auipc { X(rd) = pc + sext(imm << 12, 32) }

// ---- RV64I: loads (zero- or sign-extended) ----
lb  { X(rd) = sext(mem(X(rs1) + imm, 1), 8) }
lh  { X(rd) = sext(mem(X(rs1) + imm, 2), 16) }
lw  { X(rd) = sext(mem(X(rs1) + imm, 4), 32) }
ld  { X(rd) = mem(X(rs1) + imm, 8) }
lbu { X(rd) = mem(X(rs1) + imm, 1) }
lhu { X(rd) = mem(X(rs1) + imm, 2) }
lwu { X(rd) = mem(X(rs1) + imm, 4) }

// ---- RV64I: stores ----
sb { mem(X(rs1) + imm, 1) = X(rs2) }
sh { mem(X(rs1) + imm, 2) = X(rs2) }
sw { mem(X(rs1) + imm, 4) = X(rs2) }
sd { mem(X(rs1) + imm, 8) = X(rs2) }

// ---- RV64I: control transfer ----
jal  { X(rd) = pc + ilen ; pc = pc + imm }
jalr { X(rd) = pc + ilen ; pc = (X(rs1) + imm) & ~1 }
beq  { if X(rs1) == X(rs2)   { pc = pc + imm } }
bne  { if X(rs1) != X(rs2)   { pc = pc + imm } }
blt  { if X(rs1) <s X(rs2)   { pc = pc + imm } }
bge  { if X(rs1) >=s X(rs2)  { pc = pc + imm } }
bltu { if X(rs1) <u X(rs2)   { pc = pc + imm } }
bgeu { if X(rs1) >=u X(rs2)  { pc = pc + imm } }

// ---- RV64I: fences (no dataflow-visible effect) ----
fence   { skip }
fence.i { skip }

// ---- M extension ----
mul    { X(rd) = X(rs1) * X(rs2) }
mulh   { X(rd) = mulh(X(rs1), X(rs2)) }
mulhu  { X(rd) = mulhu(X(rs1), X(rs2)) }
mulhsu { X(rd) = mulhsu(X(rs1), X(rs2)) }
div    { X(rd) = X(rs1) /s X(rs2) }
divu   { X(rd) = X(rs1) /u X(rs2) }
rem    { X(rd) = X(rs1) %s X(rs2) }
remu   { X(rd) = X(rs1) %u X(rs2) }
mulw   { X(rd) = sext(X(rs1) * X(rs2), 32) }
divw   { X(rd) = sext(sext(X(rs1), 32) /s sext(X(rs2), 32), 32) }
divuw  { X(rd) = sext(zext(X(rs1), 32) /u zext(X(rs2), 32), 32) }
remw   { X(rd) = sext(sext(X(rs1), 32) %s sext(X(rs2), 32), 32) }
remuw  { X(rd) = sext(zext(X(rs1), 32) %u zext(X(rs2), 32), 32) }

// ---- Zicond (RVA23 future-work sample, §3.4) ----
czero.eqz { X(rd) = ite(X(rs2) == 0, 0, X(rs1)) }
czero.nez { X(rd) = ite(X(rs2) != 0, 0, X(rs1)) }

// ---- Zba (RVA23 future-work sample) ----
add.uw { X(rd) = X(rs2) + zext(X(rs1), 32) }
sh1add { X(rd) = X(rs2) + (X(rs1) << 1) }
sh2add { X(rd) = X(rs2) + (X(rs1) << 2) }
sh3add { X(rd) = X(rs2) + (X(rs1) << 3) }

// ---- Zbb (RVA23 future-work sample): added per 3.4's recipe — new
// ---- clauses here, rerun the pipeline, nothing else changes ----
andn   { X(rd) = X(rs1) & ~X(rs2) }
orn    { X(rd) = X(rs1) | ~X(rs2) }
xnor   { X(rd) = ~(X(rs1) ^ X(rs2)) }
min    { X(rd) = ite(X(rs1) <s X(rs2), X(rs1), X(rs2)) }
minu   { X(rd) = ite(X(rs1) <u X(rs2), X(rs1), X(rs2)) }
max    { X(rd) = ite(X(rs1) <s X(rs2), X(rs2), X(rs1)) }
maxu   { X(rd) = ite(X(rs1) <u X(rs2), X(rs2), X(rs1)) }
rol    { X(rd) = (X(rs1) << (X(rs2) & 63)) | (X(rs1) >>l ((0 - X(rs2)) & 63)) }
ror    { X(rd) = (X(rs1) >>l (X(rs2) & 63)) | (X(rs1) << ((0 - X(rs2)) & 63)) }
rori   { X(rd) = (X(rs1) >>l shamt) | (X(rs1) << ((0 - shamt) & 63)) }
clz    { X(rd) = clz(X(rs1)) }
ctz    { X(rd) = ctz(X(rs1)) }
cpop   { X(rd) = cpop(X(rs1)) }
sext.b { X(rd) = sext(X(rs1), 8) }
sext.h { X(rd) = sext(X(rs1), 16) }
zext.h { X(rd) = zext(X(rs1), 16) }

// ---- A: AMOs, read-modify-writes over the pre-instruction memory ----
amoswap.w { X(rd) = sext(mem(X(rs1), 4), 32) ; mem(X(rs1), 4) = X(rs2) }
amoadd.w  { X(rd) = sext(mem(X(rs1), 4), 32) ; mem(X(rs1), 4) = mem(X(rs1), 4) + X(rs2) }
amoxor.w  { X(rd) = sext(mem(X(rs1), 4), 32) ; mem(X(rs1), 4) = mem(X(rs1), 4) ^ X(rs2) }
amoand.w  { X(rd) = sext(mem(X(rs1), 4), 32) ; mem(X(rs1), 4) = mem(X(rs1), 4) & X(rs2) }
amoor.w   { X(rd) = sext(mem(X(rs1), 4), 32) ; mem(X(rs1), 4) = mem(X(rs1), 4) | X(rs2) }
amomin.w  { X(rd) = sext(mem(X(rs1), 4), 32) ;
            mem(X(rs1), 4) = ite(sext(mem(X(rs1), 4), 32) <s sext(X(rs2), 32), mem(X(rs1), 4), X(rs2)) }
amomax.w  { X(rd) = sext(mem(X(rs1), 4), 32) ;
            mem(X(rs1), 4) = ite(sext(mem(X(rs1), 4), 32) <s sext(X(rs2), 32), X(rs2), mem(X(rs1), 4)) }
amominu.w { X(rd) = sext(mem(X(rs1), 4), 32) ;
            mem(X(rs1), 4) = ite(mem(X(rs1), 4) <u zext(X(rs2), 32), mem(X(rs1), 4), X(rs2)) }
amomaxu.w { X(rd) = sext(mem(X(rs1), 4), 32) ;
            mem(X(rs1), 4) = ite(mem(X(rs1), 4) <u zext(X(rs2), 32), X(rs2), mem(X(rs1), 4)) }
amoswap.d { X(rd) = mem(X(rs1), 8) ; mem(X(rs1), 8) = X(rs2) }
amoadd.d  { X(rd) = mem(X(rs1), 8) ; mem(X(rs1), 8) = mem(X(rs1), 8) + X(rs2) }
amoxor.d  { X(rd) = mem(X(rs1), 8) ; mem(X(rs1), 8) = mem(X(rs1), 8) ^ X(rs2) }
amoand.d  { X(rd) = mem(X(rs1), 8) ; mem(X(rs1), 8) = mem(X(rs1), 8) & X(rs2) }
amoor.d   { X(rd) = mem(X(rs1), 8) ; mem(X(rs1), 8) = mem(X(rs1), 8) | X(rs2) }
amomin.d  { X(rd) = mem(X(rs1), 8) ;
            mem(X(rs1), 8) = ite(mem(X(rs1), 8) <s X(rs2), mem(X(rs1), 8), X(rs2)) }
amomax.d  { X(rd) = mem(X(rs1), 8) ;
            mem(X(rs1), 8) = ite(mem(X(rs1), 8) <s X(rs2), X(rs2), mem(X(rs1), 8)) }
amominu.d { X(rd) = mem(X(rs1), 8) ;
            mem(X(rs1), 8) = ite(mem(X(rs1), 8) <u X(rs2), mem(X(rs1), 8), X(rs2)) }
amomaxu.d { X(rd) = mem(X(rs1), 8) ;
            mem(X(rs1), 8) = ite(mem(X(rs1), 8) <u X(rs2), X(rs2), mem(X(rs1), 8)) }

// ---- F/D: loads, stores and moves carry raw bits ----
flw     { F(rd) = 0xFFFFFFFF00000000 | mem(X(rs1) + imm, 4) }
fld     { F(rd) = mem(X(rs1) + imm, 8) }
fsw     { mem(X(rs1) + imm, 4) = F(rs2) }
fsd     { mem(X(rs1) + imm, 8) = F(rs2) }
fmv.x.w { X(rd) = sext(F(rs1), 32) }
fmv.w.x { F(rd) = 0xFFFFFFFF00000000 | zext(X(rs1), 32) }
fmv.x.d { X(rd) = F(rs1) }
fmv.d.x { F(rd) = X(rs1) }

// ---- F/D: sign injection (a single's operands are unboxed first) ----
fsgnj.d  { F(rd) = (F(rs1) & 0x7FFFFFFFFFFFFFFF) | (F(rs2) & 0x8000000000000000) }
fsgnjn.d { F(rd) = (F(rs1) & 0x7FFFFFFFFFFFFFFF) | (~F(rs2) & 0x8000000000000000) }
fsgnjx.d { F(rd) = F(rs1) ^ (F(rs2) & 0x8000000000000000) }
fsgnj.s  { F(rd) = 0xFFFFFFFF00000000 | (f32_unbox(F(rs1)) & 0x7FFFFFFF)
                   | (f32_unbox(F(rs2)) & 0x80000000) }
fsgnjn.s { F(rd) = 0xFFFFFFFF00000000 | (f32_unbox(F(rs1)) & 0x7FFFFFFF)
                   | (~f32_unbox(F(rs2)) & 0x80000000) }
fsgnjx.s { F(rd) = 0xFFFFFFFF00000000 | (f32_unbox(F(rs1))
                   ^ (f32_unbox(F(rs2)) & 0x80000000)) }

// ---- F: single-precision arithmetic, compares and conversions ----
fadd.s    { F(rd) = f32_add(F(rs1), F(rs2), rm) }
fsub.s    { F(rd) = f32_sub(F(rs1), F(rs2), rm) }
fmul.s    { F(rd) = f32_mul(F(rs1), F(rs2), rm) }
fdiv.s    { F(rd) = f32_div(F(rs1), F(rs2), rm) }
fsqrt.s   { F(rd) = f32_sqrt(F(rs1), rm) }
fmin.s    { F(rd) = f32_min(F(rs1), F(rs2)) }
fmax.s    { F(rd) = f32_max(F(rs1), F(rs2)) }
fmadd.s   { F(rd) = f32_madd(F(rs1), F(rs2), F(rs3), rm) }
fmsub.s   { F(rd) = f32_msub(F(rs1), F(rs2), F(rs3), rm) }
fnmsub.s  { F(rd) = f32_nmsub(F(rs1), F(rs2), F(rs3), rm) }
fnmadd.s  { F(rd) = f32_nmadd(F(rs1), F(rs2), F(rs3), rm) }
feq.s     { X(rd) = f32_eq(F(rs1), F(rs2)) }
flt.s     { X(rd) = f32_lt(F(rs1), F(rs2)) }
fle.s     { X(rd) = f32_le(F(rs1), F(rs2)) }
fclass.s  { X(rd) = f32_class(F(rs1)) }
fcvt.w.s  { X(rd) = sext(f32_to_i32(F(rs1), rm), 32) }
fcvt.wu.s { X(rd) = sext(f32_to_u32(F(rs1), rm), 32) }
fcvt.l.s  { X(rd) = f32_to_i64(F(rs1), rm) }
fcvt.lu.s { X(rd) = f32_to_u64(F(rs1), rm) }
fcvt.s.w  { F(rd) = i64_to_f32(sext(X(rs1), 32), rm) }
fcvt.s.wu { F(rd) = u64_to_f32(zext(X(rs1), 32), rm) }
fcvt.s.l  { F(rd) = i64_to_f32(X(rs1), rm) }
fcvt.s.lu { F(rd) = u64_to_f32(X(rs1), rm) }

// ---- D: double-precision arithmetic, compares and conversions ----
fadd.d    { F(rd) = f64_add(F(rs1), F(rs2), rm) }
fsub.d    { F(rd) = f64_sub(F(rs1), F(rs2), rm) }
fmul.d    { F(rd) = f64_mul(F(rs1), F(rs2), rm) }
fdiv.d    { F(rd) = f64_div(F(rs1), F(rs2), rm) }
fsqrt.d   { F(rd) = f64_sqrt(F(rs1), rm) }
fmin.d    { F(rd) = f64_min(F(rs1), F(rs2)) }
fmax.d    { F(rd) = f64_max(F(rs1), F(rs2)) }
fmadd.d   { F(rd) = f64_madd(F(rs1), F(rs2), F(rs3), rm) }
fmsub.d   { F(rd) = f64_msub(F(rs1), F(rs2), F(rs3), rm) }
fnmsub.d  { F(rd) = f64_nmsub(F(rs1), F(rs2), F(rs3), rm) }
fnmadd.d  { F(rd) = f64_nmadd(F(rs1), F(rs2), F(rs3), rm) }
feq.d     { X(rd) = f64_eq(F(rs1), F(rs2)) }
flt.d     { X(rd) = f64_lt(F(rs1), F(rs2)) }
fle.d     { X(rd) = f64_le(F(rs1), F(rs2)) }
fclass.d  { X(rd) = f64_class(F(rs1)) }
fcvt.w.d  { X(rd) = sext(f64_to_i32(F(rs1), rm), 32) }
fcvt.wu.d { X(rd) = sext(f64_to_u32(F(rs1), rm), 32) }
fcvt.l.d  { X(rd) = f64_to_i64(F(rs1), rm) }
fcvt.lu.d { X(rd) = f64_to_u64(F(rs1), rm) }
fcvt.d.w  { F(rd) = i64_to_f64(sext(X(rs1), 32), rm) }
fcvt.d.wu { F(rd) = u64_to_f64(zext(X(rs1), 32), rm) }
fcvt.d.l  { F(rd) = i64_to_f64(X(rs1), rm) }
fcvt.d.lu { F(rd) = u64_to_f64(X(rs1), rm) }
fcvt.s.d  { F(rd) = f64_to_f32(F(rs1), rm) }
fcvt.d.s  { F(rd) = f32_to_f64(F(rs1)) }
"""
