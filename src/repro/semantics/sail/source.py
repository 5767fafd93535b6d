"""Mini-SAIL semantic definitions for the RV64 integer instructions.

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
* ``pc`` / ``ilen`` — instruction address / encoded length.
* ``imm`` / ``shamt`` — decoded immediate fields.
* ``mem(addr, n)`` — n-byte little-endian load (zero-extended);
  assignment to ``mem(addr, n)`` is a store.
* ``sext(e, w)`` / ``zext(e, w)`` — extend the low w bits.
* Signedness-explicit operators: ``/s /u %s %u <s <u >=s >=u >>a >>l``.
* ``if cond { ... } else { ... }``; statements separated by ``;``.
* An instruction without a ``pc = ...`` assignment falls through.

Coverage: the I and M extensions plus the RVA23 samples Zicond, Zba and
Zbb (everything integer dataflow analysis slices over).  A/F/D/Zicsr
instructions use the conservative operand-derived def/use fallback (the
paper's "hand-crafted semantic descriptions" third source) — see
:mod:`repro.semantics.registry`.
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
"""
