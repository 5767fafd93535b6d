"""Tests for the SAIL-substitute pipeline (paper §3.2.4): DSL parsing,
JSON round-trip, class generation, and registry fallback behaviour."""

import pytest

from repro.riscv.encoder import make
from repro.riscv.opcodes import all_specs, specs_for_extension
from repro.semantics import (
    Semantics, coverage_report, has_precise_semantics, reads_memory,
    register_defs, register_uses, semantics_for, writes_memory, writes_pc,
)
from repro.semantics.ir import (
    BinOp, PCWrite, RegWrite, semantics_from_json, semantics_to_json,
)
from repro.semantics.sail import (
    SAIL_SOURCE, SailParseError, from_json_document, generate_source,
    load_generated, parse_sail, to_json_document,
)


class TestDSLParsing:
    def test_parse_full_source(self):
        sems = parse_sail(SAIL_SOURCE)
        assert "add" in sems and "jalr" in sems and "czero.eqz" in sems

    def test_simple_assignment(self):
        sems = parse_sail("add { X(rd) = X(rs1) + X(rs2) }")
        sem = sems["add"]
        assert len(sem.effects) == 1
        eff = sem.effects[0]
        assert isinstance(eff, RegWrite)
        assert eff.operand == "rd"
        assert isinstance(eff.value, BinOp) and eff.value.op == "add"

    def test_conditional(self):
        sems = parse_sail("beq { if X(rs1) == X(rs2) { pc = pc + imm } }")
        eff = sems["beq"].effects[0]
        assert eff.cond.op == "eq"
        assert isinstance(eff.then[0], PCWrite)

    def test_memory_store(self):
        sems = parse_sail("sd { mem(X(rs1) + imm, 8) = X(rs2) }")
        assert sems["sd"].writes_memory()
        assert not sems["sd"].reads_memory()

    def test_skip_produces_empty(self):
        sems = parse_sail("fence { skip }")
        assert sems["fence"].effects == ()

    def test_precedence_mul_over_add(self):
        sems = parse_sail("t { X(rd) = X(rs1) + X(rs2) * 2 }")
        v = sems["t"].effects[0].value
        assert v.op == "add" and v.rhs.op == "mul"

    def test_parens_override(self):
        sems = parse_sail("t { X(rd) = (X(rs1) + X(rs2)) * 2 }")
        assert sems["t"].effects[0].value.op == "mul"

    def test_duplicate_mnemonic_rejected(self):
        with pytest.raises(SailParseError):
            parse_sail("add { skip }\nadd { skip }")

    def test_garbage_rejected(self):
        with pytest.raises(SailParseError):
            parse_sail("add { X(rd) = ??? }")

    def test_unclosed_block_rejected(self):
        with pytest.raises(SailParseError):
            parse_sail("add { X(rd) = X(rs1)")


class TestJSONInterchange:
    def test_roundtrip_document(self):
        sems = parse_sail(SAIL_SOURCE)
        doc = to_json_document(sems)
        back = from_json_document(doc)
        assert set(back) == set(sems)
        assert back["jal"] == sems["jal"]

    def test_roundtrip_single(self):
        sem = parse_sail("lw { X(rd) = sext(mem(X(rs1) + imm, 4), 32) }")["lw"]
        assert semantics_from_json(semantics_to_json(sem)) == sem

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            from_json_document('{"format": "other"}')


class TestCodeGeneration:
    def test_generated_module_loads(self):
        doc = to_json_document(parse_sail(SAIL_SOURCE))
        mod = load_generated(generate_source(doc))
        assert "add" in mod.SEMANTIC_CLASSES
        cls = mod.SEMANTIC_CLASSES["add"]
        assert cls.register_defs() == {("x", "rd")}
        assert cls.register_uses() == {("x", "rs1"), ("x", "rs2")}

    def test_generated_classes_match_parsed_semantics(self):
        sems = parse_sail(SAIL_SOURCE)
        mod = load_generated(generate_source(to_json_document(sems)))
        for mn, sem in sems.items():
            assert mod.SEMANTIC_CLASSES[mn].SEMANTICS == sem

    def test_pipeline_deterministic(self):
        """Two pipeline runs produce byte-identical generated source
        (the JSON document is sorted/canonical)."""
        doc1 = to_json_document(parse_sail(SAIL_SOURCE))
        doc2 = to_json_document(parse_sail(SAIL_SOURCE))
        assert doc1 == doc2
        assert generate_source(doc1) == generate_source(doc2)

    def test_adding_extension_is_pipeline_rerun(self):
        """Paper §3.4: new extensions only require new DSL clauses."""
        extended = SAIL_SOURCE + "\nmyext.op { X(rd) = X(rs1) ^ 42 }\n"
        mod = load_generated(generate_source(
            to_json_document(parse_sail(extended))))
        assert "myext.op" in mod.SEMANTIC_CLASSES


class TestRegistry:
    def test_im_extensions_fully_covered(self):
        """Every I and M instruction that computes values must have
        precise SAIL semantics (what slicing needs)."""
        for ext in ("i", "m"):
            for spec in specs_for_extension(ext):
                if spec.mnemonic in ("ecall", "ebreak"):
                    continue  # environment calls: no dataflow semantics
                assert has_precise_semantics(spec.mnemonic), spec.mnemonic

    def test_fallback_for_fp(self):
        # F/D has DSL semantics; Zicsr still uses the operand fallback
        assert has_precise_semantics("fadd.d")
        assert not has_precise_semantics("csrrw")
        i = make("csrrw", rd=1, csr=0x340, rs1=2)
        assert register_defs(i) == {("x", 1)}
        assert register_uses(i) == {("x", 2)}

    def test_fp_load_uses_int_base(self):
        i = make("fld", rd=5, rs1=10, imm=0)
        assert register_uses(i) == {("x", 10)}
        assert register_defs(i) == {("f", 5)}
        assert reads_memory(i)

    def test_x0_reads_and_writes_dropped(self):
        i = make("addi", rd=0, rs1=0, imm=1)
        assert register_uses(i) == set()
        assert register_defs(i) == set()

    def test_def_use_pairs_match_a_fresh_walk(self):
        """register_uses/register_defs bind pairs computed once per
        mnemonic; for every spec they equal a walk of its SAIL IR, or
        its operand fallback, bound to the instruction's fields (x0
        operands included)."""
        from repro.riscv.instr import Instruction

        def bind(instr, pairs):
            return {(rf, instr.fields[op]) for rf, op in pairs
                    if op in instr.fields
                    and not (rf == "x" and instr.fields[op] == 0)}

        def fallback(spec, names):
            return {("f", op[1:]) if op.startswith("f") else ("x", op)
                    for op in spec.operands if op.lstrip("f") in names}

        numbers = {"rd": 5, "rs1": 6, "rs2": 7, "rs3": 8}
        variants = [numbers, dict.fromkeys(numbers, 0),
                    {**numbers, "rd": 0}, {**numbers, "rs1": 0}]
        for spec in all_specs():
            sem = semantics_for(spec.mnemonic)
            if sem is not None:
                uses, defs = sem.register_uses(), sem.register_defs()
            else:
                uses = fallback(spec, ("rs1", "rs2", "rs3"))
                defs = fallback(spec, ("rd",))
            for regs in variants:
                instr = Instruction(spec=spec, fields={
                    op.lstrip("f"): regs.get(op.lstrip("f"), 0)
                    for op in spec.operands})
                assert register_uses(instr) == bind(instr, uses), \
                    (spec.mnemonic, regs)
                assert register_defs(instr) == bind(instr, defs), \
                    (spec.mnemonic, regs)

    def test_store_memory_flags(self):
        i = make("sd", rs2=1, rs1=2, imm=0)
        assert writes_memory(i) and not reads_memory(i)
        assert register_uses(i) == {("x", 1), ("x", 2)}
        assert register_defs(i) == set()

    def test_amo_flags_via_fallback(self):
        # the AMOs have DSL semantics; lr/sc still use the fallback
        i = make("amoadd.d", rd=1, rs1=2, rs2=3)
        assert has_precise_semantics("amoadd.d")
        assert reads_memory(i) and writes_memory(i)
        lr = make("lr.d", rd=1, rs1=2)
        assert not has_precise_semantics("lr.d")
        assert reads_memory(lr) and not writes_memory(lr)
        assert writes_memory(make("sc.d", rd=1, rs1=2, rs2=3))

    def test_writes_pc(self):
        assert writes_pc(make("jal", rd=1, imm=0))
        assert writes_pc(make("beq", rs1=0, rs2=0, imm=0))
        assert not writes_pc(make("add", rd=1, rs1=2, rs2=3))

    def test_coverage_report_shape(self):
        rep = coverage_report()
        assert rep["add"] is True
        assert rep["fadd.d"] is True
        assert rep["csrrw"] is False
        assert len(rep) == sum(1 for _ in all_specs())

    def test_uncovered_set_is_exactly_the_hand_written_rest(self):
        """Only the environment calls, Zicsr and lr/sc (a reservation)
        stay outside the DSL: 166 of 178 specs are covered."""
        rep = coverage_report()
        assert {mn for mn, ok in rep.items() if not ok} == {
            "ecall", "ebreak", "csrrw", "csrrs", "csrrc", "csrrwi",
            "csrrsi", "csrrci", "lr.w", "lr.d", "sc.w", "sc.d"}
        assert (sum(rep.values()), len(rep)) == (166, 178)

    def test_new_clauses_keep_the_operand_def_use(self):
        """For every F/D and A mnemonic the DSL covers, its (uses, defs)
        equal the operand-derived pairs the fallback gave it, so
        register_masks -- and every liveness answer -- cannot move."""
        def fallback(spec, names):
            return {("f", op[1:]) if op.startswith("f") else ("x", op)
                    for op in spec.operands if op.lstrip("f") in names}

        checked = 0
        for ext in ("a", "f", "d"):
            for spec in specs_for_extension(ext):
                sem = semantics_for(spec.mnemonic)
                if sem is None:
                    continue
                assert sem.register_uses() == fallback(
                    spec, ("rs1", "rs2", "rs3")), spec.mnemonic
                assert sem.register_defs() == fallback(spec, ("rd",)), \
                    spec.mnemonic
                checked += 1
        assert checked == 62 + 18

    def test_semantics_for_by_instruction_or_name(self):
        i = make("add", rd=1, rs1=2, rs2=3)
        assert semantics_for(i) is semantics_for("add")
        assert isinstance(semantics_for("add"), Semantics)
        assert semantics_for("csrrw") is None
