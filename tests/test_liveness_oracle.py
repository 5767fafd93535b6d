"""The mask-based liveness solver against its frozenset reference.

``liveness_reference`` keeps the set formulation the solver replaced.
Both must agree on every block's live-in/live-out and on
``live_before``/``dead_before`` at every instruction, intraprocedurally
and with interprocedural summaries and exit seeds.  A revived
``Analysis`` must answer every query exactly as the cold analysis it
was stored from, also to threads that share it.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings

from liveness_reference import ReferenceInterprocedural, reference_liveness
from repro.api import InstrumentOptions, analyze
from repro.artifacts import ArtifactStore
from repro.dataflow import analyze_interprocedural, analyze_liveness
from repro.elf.writer import write_program
from repro.minicc import (
    Options, compile_source, crc_source, fib_source, linked_list_source,
    matmul_source, nbody_source, qsort_source, switch_source,
    tailcall_source,
)
from repro.parse import parse_binary
from repro.riscv import assemble
from repro.riscv.registers import FP_REGS, INT_REGS
from repro.symtab import Symtab
from strategies import minic_program
from test_owner_index import SHARED, wide_source

#: every register but x0, so dead_before checks the f bits too
EVERY_REG = tuple(INT_REGS[1:]) + tuple(FP_REGS)

MINIC = {
    "matmul": (matmul_source(6, 2), {}),
    "fib": (fib_source(12), {}),
    "switch": (switch_source(40), {}),
    "qsort": (qsort_source(32), {}),
    "nbody": (nbody_source(3, 6), {}),
    "crc": (crc_source(64, 2), {}),
    "list": (linked_list_source(24), {}),
    "tailcall": (tailcall_source(60), {"tail_calls": True}),
}


def _program(name):
    if name == "wide60":
        return compile_source(wide_source(60))
    if name == "shared":
        return assemble(SHARED)
    workload, build = name.rsplit("-", 1)
    src, opts = MINIC[workload]
    return compile_source(src, Options(**opts,
                                       compress=build == "rvc"))


PROGRAMS = [f"{w}-{b}" for w in MINIC for b in ("plain", "rvc")] + [
    "wide60", "shared"]


def _parse(program):
    return parse_binary(Symtab.from_program(program))


def assert_same_liveness(fn, got, want):
    assert dict(got.live_in) == want.live_in, fn.name
    assert dict(got.live_out) == want.live_out, fn.name
    for block in fn.blocks.values():
        for insn in block.insns:
            addr = insn.address
            assert got.live_before(addr) == want.live_before(addr), \
                (fn.name, hex(addr))
            assert got.dead_before(addr) == want.dead_before(addr)
            assert got.dead_before(addr, EVERY_REG) == \
                want.dead_before(addr, EVERY_REG)


def check_intraproc(co):
    for fn in co.functions.values():
        assert_same_liveness(fn, analyze_liveness(fn),
                             reference_liveness(fn))


def check_interproc(co):
    ip = analyze_interprocedural(co)
    ref = ReferenceInterprocedural(co)
    for fn in co.functions.values():
        uses, kills = ref.summary(fn.entry)
        assert ip.summary_for(fn).uses == uses, fn.name
        assert ip.summary_for(fn).kills == kills, fn.name
        assert_same_liveness(fn, ip.result_for(fn), ref.result_for(fn))


@pytest.mark.parametrize("name", PROGRAMS)
def test_intraproc_matches_reference(name):
    check_intraproc(_parse(_program(name)))


@pytest.mark.parametrize("name", PROGRAMS)
def test_interproc_matches_reference(name):
    check_interproc(_parse(_program(name)))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(minic_program())
def test_random_programs_match_reference(source):
    co = _parse(compile_source(source))
    check_intraproc(co)
    check_interproc(co)


@pytest.mark.parametrize("interproc", [False, True],
                         ids=["intraproc", "interproc"])
@pytest.mark.parametrize("name", ["wide60", "tailcall-rvc", "nbody-plain"])
def test_revived_analysis_answers_like_cold(name, interproc, tmp_path):
    elf = write_program(_program(name))
    opts = InstrumentOptions(interprocedural_liveness=interproc)
    store = ArtifactStore(tmp_path / "store")
    cold = analyze(elf, opts, store=store)
    warm = analyze(elf, opts, store=store)
    assert warm.revived
    for fn in cold.cfg.functions.values():
        c = cold.result_for(fn)
        w = warm.result_for(warm.cfg.functions[fn.entry])
        assert dict(w.live_in) == dict(c.live_in)
        assert dict(w.live_out) == dict(c.live_out)
        for block in fn.blocks.values():
            for insn in block.insns:
                addr = insn.address
                assert w.live_mask_before(addr) == c.live_mask_before(addr)
                assert w.live_before(addr) == c.live_before(addr)
                assert w.dead_before(addr) == c.dead_before(addr)
    if interproc:
        for entry, summary in cold._interproc.summaries.items():
            assert warm._interproc.summaries[entry] == summary


def test_views_are_safe_to_share_across_threads(tmp_path):
    """Threads sharing one revived Analysis race on the views' lazy
    expansion; every reader must still see the sets a lone reader
    sees."""
    elf = write_program(_program("wide60"))
    store = ArtifactStore(tmp_path / "store")
    want = analyze(elf, store=store)
    expected = {
        fn.entry: (dict(want.result_for(fn).live_in),
                   dict(want.result_for(fn).live_out))
        for fn in want.cfg.functions.values()}
    shared = analyze(elf, store=store)
    assert shared.revived
    wrong, done = [], []

    def reader():
        for fn in shared.cfg.functions.values():
            res = shared.result_for(fn)
            got = (dict(res.live_in), dict(res.live_out))
            if got != expected[fn.entry]:
                wrong.append(fn.name)
        done.append(True)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 8 and not wrong
