"""Mutatee execution tracing: event streams, call-stack reconstruction,
Perfetto/flamegraph exporters, and the API v2 surface.

Covers the observer-overhead contract from docs/INTERNALS.md: events
only flow while an observer is attached, attach/detach round-trips
leave the machine's architectural results bit-identical to an
unobserved run, and both granularities agree on what the mutatee did.
"""

import json

import pytest

from repro import telemetry
from repro.api import InstrumentOptions, open_binary
from repro.codegen import IncrementVar
from repro.minicc import compile_source
from repro.minicc.workloads import fib_source, matmul_source
from repro.patch import PointType
from repro.proccontrol import EventType, Process
from repro.riscv import assemble
from repro.sim import Machine, P550, StopReason
from repro.telemetry.events import (
    BLOCK, BRANCH, CALL, EventStream, FAULT, JUMP, PATCH, RET,
)
from repro.tracing import (
    CallStackBuilder, SymbolIndex, block_heat, call_spans,
    folded_stacks, format_folded, hottest, perfetto_trace,
    validate_perfetto,
)

MATMUL = compile_source(matmul_source(6, 2))
FIB = compile_source(fib_source(8))


def _run_traced(prog, granularity="instruction", **machine_kw):
    m = Machine(P550, **machine_kw)
    m.load_program(prog)
    es = EventStream(granularity=granularity)
    stop = m.run(trace=es)
    return m, es, stop


# ---------------------------------------------------------------------------
# EventStream ring buffer


class TestEventStream:
    def test_push_and_order(self):
        es = EventStream(capacity=10)
        for i in range(5):
            es.push((BLOCK, i, 0, i, i))
        assert len(es) == 5
        assert [e[1] for e in es] == [0, 1, 2, 3, 4]
        assert es.dropped == 0

    def test_ring_overwrites_oldest(self):
        es = EventStream(capacity=4)
        for i in range(7):
            es.push((BLOCK, i, 0, i, i))
        assert len(es) == 4
        assert es.dropped == 3
        assert [e[1] for e in es] == [3, 4, 5, 6]

    def test_drain_empties(self):
        es = EventStream(capacity=4)
        for i in range(3):
            es.push((BLOCK, i, 0, i, i))
        out = es.drain()
        assert [e[1] for e in out] == [0, 1, 2]
        assert len(es) == 0
        es.push((BLOCK, 9, 0, 9, 9))
        assert [e[1] for e in es] == [9]

    def test_to_dicts_schema_shape(self):
        es = EventStream()
        es.push((CALL, 0x100, 0x200, 7, 70))
        (d,) = es.to_dicts()
        assert d == {"kind": "call", "pc": 0x100, "target": 0x200,
                     "instret": 7, "ucycles": 70}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            EventStream(capacity=0)
        with pytest.raises(ValueError):
            EventStream(granularity="superblock")


# ---------------------------------------------------------------------------
# Machine emission


class TestMachineEvents:
    def test_no_observer_no_events(self):
        m = Machine(P550)
        m.load_program(MATMUL)
        assert not m.observed
        m.run()
        assert m._emit is None

    def test_calls_and_returns_balance(self):
        _, es, stop = _run_traced(MATMUL)
        assert stop.reason is StopReason.EXITED
        kinds = [e[0] for e in es]
        assert kinds.count(CALL) == kinds.count(RET) > 0

    def test_timestamps_monotonic(self):
        _, es, _ = _run_traced(MATMUL)
        instrets = [e[3] for e in es]
        assert all(a <= b for a, b in zip(instrets, instrets[1:]))

    def test_block_granularity_emits_blocks_only(self):
        m, es, stop = _run_traced(MATMUL, granularity="block")
        assert stop.reason is StopReason.EXITED
        assert {e[0] for e in es} == {BLOCK}
        assert m.traces.mega_compiles > 0, \
            "block granularity must keep the trace compiler engaged"

    def test_instruction_granularity_deopts(self):
        m, es, _ = _run_traced(MATMUL)
        assert m.traces.mega_compiles == 0, \
            "instruction granularity must stay on the interpreter"

    def test_observed_state_bit_identical(self):
        mu = Machine(P550)
        mu.load_program(MATMUL)
        mu.run()
        for granularity in ("instruction", "block"):
            m, _, _ = _run_traced(MATMUL, granularity=granularity)
            assert m.x == mu.x
            assert m.f == mu.f
            assert m.instret == mu.instret
            assert m.ucycles == mu.ucycles
            assert m.stdout == mu.stdout

    def test_granularities_agree_on_heat(self):
        """Interpreter block-enters and compiled-trace block-enters
        count the same block entries, block for block."""
        _, es_i, _ = _run_traced(MATMUL)
        _, es_b, _ = _run_traced(MATMUL, granularity="block")
        assert block_heat(es_b.events()) == block_heat(es_i.events())

    def test_detach_restores_traced_throughput_path(self):
        m, es, _ = _run_traced(MATMUL)
        assert not m.observed
        assert m._observers == []
        m.load_program(MATMUL)
        m.run()
        assert m.traces.mega_compiles > 0, \
            "after detach the trace compiler must engage again"

    def test_attach_is_idempotent_and_detach_unknown_ok(self):
        m = Machine(P550)
        es = EventStream()
        m.attach_observer(es)
        m.attach_observer(es)
        assert len(m._observers) == 1
        other = EventStream()
        m.detach_observer(other)  # not attached: no-op
        m.detach_observer(es)
        assert not m.observed

    def test_multiple_observers_fan_out(self):
        m = Machine(P550)
        m.load_program(FIB)
        a, b = EventStream(), EventStream()
        m.attach_observer(a)
        m.attach_observer(b)
        m.run()
        m.detach_observer(a)
        m.detach_observer(b)
        assert a.events() == b.events()
        assert len(a) > 0

    def test_fault_event_emitted(self):
        src = """
_start:
  ld a0, 0(zero)
"""
        prog = assemble(src)
        m = Machine(P550)
        m.load_program(prog)
        es = EventStream()
        stop = m.run(trace=es)
        assert stop.reason is StopReason.FAULT
        assert any(e[0] == FAULT for e in es)

    def test_bounded_run_emits_events(self):
        m = Machine(P550)
        m.load_program(MATMUL)
        es = EventStream()
        m.attach_observer(es)
        stop = m.run(max_steps=500)
        m.detach_observer(es)
        assert stop.reason is StopReason.STEPS_EXHAUSTED
        assert len(es) > 0

    @pytest.mark.parametrize("granularity", ["instruction", "block"])
    def test_detach_silences_the_closures(self, granularity):
        """Closures built while observed emit, so detaching rebuilds
        them: the rest of the run emits nothing."""
        m = Machine(P550)
        m.load_program(MATMUL)
        es = EventStream(granularity=granularity)
        stop = m.run(max_steps=500, trace=es)
        assert stop.reason is StopReason.STEPS_EXHAUSTED
        seen = len(es)
        assert seen > 0
        assert m.run().reason is StopReason.EXITED
        assert len(es) == seen


# ---------------------------------------------------------------------------
# Observer interaction with the looping-trace JIT


class TestMegatraceObserverInteraction:
    """Attaching an event stream at a mid-run debugger stop must deopt
    looping traces correctly: block granularity flushes the cache
    (emits are compiled *into* traces), and traces recompile with
    emits while observed; instruction granularity leaves compiled
    traces intact but undispatched.  Either way the architectural
    outcome is bit-identical to an unobserved continuation."""

    def _stop_at(self, symbol):
        """Run the traced matmul up to a breakpoint on *symbol*, fired
        once, then clear the breakpoint."""
        m = Machine(P550, trace_compile=True)
        m.load_program(MATMUL)
        proc = Process.attach(m)
        addr = MATMUL.symbol(symbol).address
        proc.insert_breakpoint(addr)
        ev = proc.continue_to_event()
        assert ev.type is EventType.STOPPED_BREAKPOINT
        assert ev.pc == addr
        proc.remove_breakpoint(addr)
        return m, proc

    def _stop_at_print(self):
        """Stop at ``print_long``: after the hot loops have rooted
        looping traces."""
        return self._stop_at("print_long")

    def _state(self, m):
        return (m.pc, list(m.x), list(m.f), m.instret, m.ucycles,
                bytes(m.stdout))

    def test_midrun_block_attach_recompiles_with_emits(
            self, trace_sources):
        """Attach at ``multiply``'s entry, before its hot loops: they
        grow warm while observed, so their traces compile with
        emits."""
        ref, rproc = self._stop_at("multiply")
        assert ref.traces.mega_compiles > 0, \
            "the set-up loops must root traces before multiply runs"
        assert rproc.continue_to_event().type is EventType.EXITED

        m, proc = self._stop_at("multiply")
        mega_at_stop = m.traces.mega_compiles
        es = EventStream(granularity="block")
        m.attach_observer(es)
        # block emits are compiled into traces: the attach must flush
        # every compiled trace
        assert len(m.traces.fns) == 0
        trace_sources.clear()
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        # the hot loops' traces compile, every one with block-enter
        # emits, and still loop
        assert m.traces.mega_compiles > mega_at_stop
        sources = trace_sources.values()
        assert sources and all("EV((" in src for src in sources)
        assert any("while True:" in src for src in sources)
        assert len(es) > 0 and {e[0] for e in es} == {BLOCK}
        assert self._state(m) == self._state(ref)

    def test_midrun_instruction_attach_undispatches_traces(self):
        ref, rproc = self._stop_at_print()
        assert rproc.continue_to_event().type is EventType.EXITED

        m, proc = self._stop_at_print()
        fns = len(m.traces.fns)
        mega = m.traces.mega_compiles
        assert fns > 0 and mega > 0
        es = EventStream(granularity="instruction")
        m.attach_observer(es)
        # traces stay resident — they are simply not dispatched while
        # the observer wants per-instruction events
        assert len(m.traces.fns) == fns
        ev = proc.continue_to_event()
        assert ev.type is EventType.EXITED
        assert m.traces.mega_compiles == mega
        kinds = {e[0] for e in es}
        assert CALL in kinds and RET in kinds
        assert self._state(m) == self._state(ref)

    def test_detach_restores_megatrace_promotion(self):
        m, proc = self._stop_at_print()
        es = EventStream(granularity="block")
        m.attach_observer(es)
        assert proc.continue_to_event().type is EventType.EXITED
        mega_observed = m.traces.mega_compiles
        m.detach_observer(es)
        assert not m.observed
        # a fresh run of the same image must compile its traces again
        m.load_program(MATMUL)
        stop = m.run()
        assert stop.reason is StopReason.EXITED
        assert m.traces.mega_compiles > mega_observed


# ---------------------------------------------------------------------------
# Call-stack reconstruction


class TestCallStack:
    def test_nesting_and_weights(self):
        m, es, _ = _run_traced(MATMUL)
        spans = call_spans(es.events(), SymbolIndex.from_program(MATMUL))
        by_name = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)
        (main,) = by_name["main"]
        for mult in by_name["multiply"]:
            assert mult.stack == ("_start", "main", "multiply")
            assert main.start_instret <= mult.start_instret
            assert mult.end_instret <= main.end_instret
        total = sum(sp.ucycles for sp in by_name["multiply"])
        assert total <= main.ucycles

    def test_recursion_depth(self):
        _, es, _ = _run_traced(FIB)
        spans = call_spans(es.events(), SymbolIndex.from_program(FIB))
        fib_spans = [sp for sp in spans if sp.name == "fib"]
        assert len(fib_spans) > 10  # fib(8) recursion tree
        assert max(sp.depth for sp in fib_spans) >= 5

    def test_no_irregulars_on_clean_program(self):
        _, es, _ = _run_traced(MATMUL)
        b = CallStackBuilder(SymbolIndex.from_program(MATMUL))
        b.feed(es.events())
        b.finish()
        assert b.irregular == 0

    def test_longjmp_style_unwind_scans_down(self):
        sym = SymbolIndex([(0x100, 16, "a"), (0x200, 16, "b"),
                           (0x300, 16, "c")])
        b = CallStackBuilder(sym)
        b.feed_one((BLOCK, 0x100, 0, 0, 0))
        b.feed_one((CALL, 0x104, 0x200, 1, 10))   # a -> b
        b.feed_one((CALL, 0x204, 0x300, 2, 20))   # b -> c
        # c "returns" straight past b to a (ret lands after a's call)
        b.feed_one((RET, 0x30c, 0x108, 3, 30))
        assert b.current_stack() == ("a",)
        assert b.irregular == 1  # one abandoned frame (c skipped b)
        spans = b.finish()
        assert {sp.name for sp in spans} == {"a", "b", "c"}

    def test_unmatched_return_without_walker(self):
        sym = SymbolIndex([(0x100, 16, "a"), (0x200, 16, "b")])
        b = CallStackBuilder(sym)
        b.feed_one((BLOCK, 0x100, 0, 0, 0))
        b.feed_one((CALL, 0x104, 0x200, 1, 10))
        b.feed_one((RET, 0x20c, 0x999, 2, 20))  # matches nothing
        assert b.irregular == 1
        assert b.current_stack() == ("a",)  # root survives

    def test_walker_fallback_resyncs(self):
        sym = SymbolIndex([(0x100, 16, "a"), (0x200, 16, "b"),
                           (0x300, 16, "c")])
        # innermost-first, as StackWalker.walk() reports frames
        walker = lambda: [0x304, 0x104]  # noqa: E731
        b = CallStackBuilder(sym, walker=walker)
        b.feed_one((BLOCK, 0x100, 0, 0, 0))
        b.feed_one((CALL, 0x104, 0x200, 1, 10))   # a -> b
        b.feed_one((RET, 0x20c, 0x999, 2, 20))    # inexplicable
        assert b.resyncs == 1
        assert b.current_stack() == ("a", "c")

    def test_tail_call_replaces_frame(self):
        sym = SymbolIndex([(0x100, 16, "a"), (0x200, 16, "b"),
                           (0x300, 16, "c")])
        b = CallStackBuilder(sym)
        b.feed_one((BLOCK, 0x100, 0, 0, 0))
        b.feed_one((CALL, 0x104, 0x200, 1, 10))   # a calls b
        b.feed_one((JUMP, 0x208, 0x300, 2, 20))   # b tail-calls c
        assert b.current_stack() == ("a", "c")
        b.feed_one((RET, 0x30c, 0x108, 3, 30))    # c returns to a
        assert b.current_stack() == ("a",)
        spans = b.finish()
        c_span = next(sp for sp in spans if sp.name == "c")
        assert c_span.tail

    def test_block_heat_counts(self):
        _, es, _ = _run_traced(MATMUL, granularity="block")
        heat = block_heat(es.events())
        assert heat
        assert sum(heat.values()) == len(es)


# ---------------------------------------------------------------------------
# Exporters


class TestFlamegraph:
    def _spans(self, prog=MATMUL):
        _, es, _ = _run_traced(prog)
        return call_spans(es.events(), SymbolIndex.from_program(prog))

    def test_top_frame_is_multiply(self):
        folded = folded_stacks(self._spans())
        assert folded
        assert hottest(folded)[-1] == "multiply"

    def test_self_weight_excludes_children(self):
        spans = self._spans()
        folded = folded_stacks(spans)
        main_total = sum(sp.ucycles for sp in spans
                         if sp.stack == ("_start", "main"))
        children = sum(sp.ucycles for sp in spans
                       if len(sp.stack) == 3 and sp.stack[1] == "main")
        assert folded[("_start", "main")] == main_total - children

    def test_format_is_flamegraph_pl_compatible(self):
        text = format_folded(folded_stacks(self._spans()))
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert stack.split(";")[0] == "_start"

    def test_instruction_weight(self):
        spans = self._spans()
        folded = folded_stacks(spans, weight="instructions")
        assert all(w > 0 for w in folded.values())
        with pytest.raises(ValueError):
            folded_stacks(spans, weight="seconds")


class TestPerfetto:
    def _doc(self, snapshot=None):
        _, es, _ = _run_traced(MATMUL)
        spans = call_spans(es.events(),
                           SymbolIndex.from_program(MATMUL))
        return perfetto_trace(spans, events=es.events(),
                              snapshot=snapshot)

    def test_validates_clean(self):
        doc = self._doc()
        assert validate_perfetto(doc) == []
        assert doc["otherData"]["schema"] == "repro.telemetry.events/1"

    def test_b_e_balance_and_nesting(self):
        doc = self._doc()
        depth = 0
        for ev in doc["traceEvents"]:
            if ev["ph"] == "B":
                depth += 1
            elif ev["ph"] == "E":
                depth -= 1
                assert depth >= 0
        assert depth == 0

    def test_json_serialisable(self):
        doc = self._doc()
        round_tripped = json.loads(json.dumps(doc))
        assert round_tripped["traceEvents"]

    def test_pipeline_track_from_timeline_snapshot(self):
        with telemetry.enabled(telemetry.Recorder(timeline=True)) as rec:
            with rec.span("parse.cfg"):
                pass
            snap = rec.snapshot()
        doc = self._doc(snapshot=snap)
        pipeline = [e for e in doc["traceEvents"]
                    if e.get("cat") == "pipeline"]
        assert len(pipeline) == 1
        assert pipeline[0]["name"] == "parse.cfg"
        assert pipeline[0]["ph"] == "X"
        assert pipeline[0]["ts"] >= 0

    def test_validator_catches_imbalance(self):
        doc = {"traceEvents": [
            {"name": "f", "ph": "B", "pid": 1, "tid": 1, "ts": 0}]}
        assert any("unclosed" in p for p in validate_perfetto(doc))
        doc = {"traceEvents": [
            {"name": "f", "ph": "E", "pid": 1, "tid": 1, "ts": 0}]}
        assert any("empty stack" in p for p in validate_perfetto(doc))

    def test_zero_length_spans_stay_nested(self):
        """Back-to-back and zero-length spans must not interleave."""
        from repro.tracing import CallSpan
        spans = [
            CallSpan("outer", 0x100, 0, 0, 0, 0, 10, 100,
                     stack=("outer",)),
            CallSpan("inner", 0x200, 1, 0x104, 5, 50, 5, 50,
                     stack=("outer", "inner")),
        ]
        doc = perfetto_trace(spans)
        assert validate_perfetto(doc) == []


# ---------------------------------------------------------------------------
# API v2 surface


class TestTraceSessionApi:
    def test_binary_edit_trace(self):
        with open_binary(MATMUL) as edit:
            session = edit.trace()
        assert session.stop.reason is StopReason.EXITED
        assert session.hot_functions()[0][0] == "multiply"
        assert validate_perfetto(session.perfetto()) == []

    def test_trace_writes_artifacts(self, tmp_path):
        with open_binary(MATMUL) as edit:
            session = edit.trace()
        perfetto_path = tmp_path / "out.json"
        folded_path = tmp_path / "out.folded"
        session.write_perfetto(perfetto_path)
        session.write_flamegraph(folded_path)
        doc = json.loads(perfetto_path.read_text())
        assert validate_perfetto(doc) == []
        folded = folded_path.read_text()
        assert folded
        top_line = folded.splitlines()[0]
        assert top_line.rsplit(" ", 1)[0].split(";")[-1] == "multiply"

    def test_trace_with_instrumentation_emits_patch_events(self):
        # far patch base forces worst-case trap springboards: every
        # springboard hit must surface as a patch-site event
        options = InstrumentOptions(patch_base=0x7000_0000,
                                    use_dead_registers=False)
        with open_binary(MATMUL, options) as edit:
            fn = edit.function("multiply")
            var = edit.allocate_variable("calls")
            edit.insert(edit.points(fn, PointType.FUNC_ENTRY),
                        IncrementVar(var))
            session = edit.trace()
        assert session.stop.reason is StopReason.EXITED
        calls = session.machine.mem.read_int(var.address, 8)
        assert calls == 2
        if session.machine.trap_redirects:
            assert any(e[0] == PATCH for e in session.events)

    def test_trace_on_closed_edit_raises(self):
        from repro.api import ClosedEditError
        edit = open_binary(MATMUL)
        edit.close()
        with pytest.raises(ClosedEditError):
            edit.trace()

    def test_machine_run_trace_kwarg_detaches(self):
        m = Machine(P550)
        m.load_program(MATMUL)
        es = EventStream()
        m.run(trace=es)
        assert not m.observed
        assert len(es) > 0

    def test_block_granularity_session(self):
        with open_binary(MATMUL) as edit:
            session = edit.trace(granularity="block")
        assert session.heat()
        assert session.machine.traces.mega_compiles > 0
