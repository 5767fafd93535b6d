"""The telemetry subsystem: recorder correctness, the null-recorder
overhead guard, the JSON snapshot schema, and the pipeline threading."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro import telemetry
from repro.api import open_binary
from repro.codegen.snippets import IncrementVar
from repro.minicc import compile_source
from repro.minicc.workloads import fib_source
from repro.patch.points import PointType
from repro.sim.machine import Machine, StopReason
from repro.telemetry.core import NullRecorder, Recorder


class TestRecorder:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("a.x")
        rec.count("a.x", 4)
        rec.count("a.y", 2)
        snap = rec.snapshot()
        assert snap["counters"] == {"a.x": 5, "a.y": 2}

    def test_gauge_last_value_wins(self):
        rec = Recorder()
        rec.gauge("g", 1.0)
        rec.gauge("g", 3.5)
        assert rec.snapshot()["gauges"]["g"] == 3.5

    def test_span_aggregates_wall_time(self):
        rec = Recorder()
        with rec.span("s"):
            time.sleep(0.002)
        with rec.span("s"):
            pass
        s = rec.snapshot()["spans"]["s"]
        assert s["count"] == 2
        assert s["total_s"] >= 0.002
        assert s["min_s"] <= s["max_s"]
        assert s["total_s"] == pytest.approx(s["min_s"] + s["max_s"])

    def test_record_span_external_duration(self):
        rec = Recorder()
        rec.record_span("s", 1.5)
        rec.record_span("s", 0.5)
        s = rec.snapshot()["spans"]["s"]
        assert (s["count"], s["total_s"], s["min_s"], s["max_s"]) == \
            (2, 2.0, 0.5, 1.5)

    def test_histogram_buckets(self):
        rec = Recorder()
        for v in (1, 2, 3, 100):
            rec.observe("h", v)
        h = rec.snapshot()["histograms"]["h"]
        assert h["count"] == 4
        assert h["sum"] == 106
        assert h["min"] == 1 and h["max"] == 100
        assert sum(h["buckets"].values()) == 4

    def test_thread_safety(self):
        rec = Recorder()

        def hammer():
            for _ in range(5_000):
                rec.count("t")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.snapshot()["counters"]["t"] == 20_000

    def test_clear(self):
        rec = Recorder()
        rec.count("x")
        rec.clear()
        assert rec.snapshot()["counters"] == {}


class TestModuleState:
    def test_disabled_by_default(self):
        assert telemetry.active() is False
        assert isinstance(telemetry.current(), NullRecorder)

    def test_enabled_scope_restores_previous(self):
        before = telemetry.current()
        with telemetry.enabled() as rec:
            assert telemetry.current() is rec
            assert telemetry.active()
        assert telemetry.current() is before

    def test_enabled_restores_on_exception(self):
        before = telemetry.current()
        with pytest.raises(RuntimeError):
            with telemetry.enabled():
                raise RuntimeError("boom")
        assert telemetry.current() is before

    def test_env_var_enables(self, monkeypatch):
        from repro.telemetry import core

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert isinstance(core._env_default(), Recorder)
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert isinstance(core._env_default(), NullRecorder)

    def test_null_recorder_snapshot_is_empty_and_schemaed(self):
        snap = NullRecorder().snapshot()
        assert snap["schema"] == telemetry.SCHEMA
        assert snap["enabled"] is False
        assert snap["counters"] == {} and snap["spans"] == {}


class TestJsonSchema:
    def test_snapshot_round_trips_through_json(self):
        rec = Recorder()
        rec.count("c.n", 3)
        rec.gauge("g.v", 2.5)
        rec.observe("h.v", 17)
        with rec.span("s.t"):
            pass
        snap = json.loads(rec.to_json())
        assert snap["schema"] == "repro.telemetry/1"
        assert set(snap) == {"schema", "enabled", "counters", "gauges",
                             "spans", "histograms"}
        assert snap["counters"]["c.n"] == 3
        assert set(snap["spans"]["s.t"]) == {"count", "total_s", "min_s",
                                             "max_s"}
        assert set(snap["histograms"]["h.v"]) == {"count", "sum", "min",
                                                  "max", "buckets"}


class _CallCountingNull(NullRecorder):
    """A disabled recorder that tallies every instrument call."""

    def __init__(self):
        self.calls = 0

    def count(self, name, n=1):
        self.calls += 1

    def gauge(self, name, value):
        self.calls += 1

    def observe(self, name, value):
        self.calls += 1

    def record_span(self, name, seconds):
        self.calls += 1

    def span(self, name):
        self.calls += 1
        return super().span(name)


class TestNullRecorderOverhead:
    def test_disabled_pipeline_makes_constant_recorder_calls(self):
        """The hot loops must not report per-instruction when disabled:
        a full compile+parse+instrument+run pipeline is allowed only a
        small, run-count-bound number of recorder touches."""
        tally = _CallCountingNull()
        telemetry.enable(tally)
        try:
            edit = open_binary(compile_source(fib_source(10)))
            c = edit.allocate_variable("c")
            edit.insert(edit.points("fib", PointType.FUNC_ENTRY),
                        IncrementVar(c))
            m, ev = edit.run_instrumented()
        finally:
            telemetry.disable()
        assert ev.reason is StopReason.EXITED
        assert m.instret > 2_000  # the run did real work...
        assert tally.calls < 50   # ...with O(pipeline-stages) reporting

    def test_null_dispatch_cost_is_negligible(self):
        """The disabled-mode pattern (`if rec.enabled:`) must stay in
        nanoseconds; 200k checks in well under a second leaves the <2%
        sim-throughput budget enforced by benchmarks/ intact."""
        rec = telemetry.current()
        assert not rec.enabled
        t0 = time.perf_counter()
        hits = 0
        for _ in range(200_000):
            if rec.enabled:
                hits += 1
        elapsed = time.perf_counter() - t0
        assert hits == 0
        assert elapsed < 1.0  # generous: ~5us per check would still pass


class TestPipelineTelemetry:
    def test_instrumented_pipeline_populates_all_phases(self):
        with telemetry.enabled() as rec:
            with open_binary(compile_source(fib_source(8))) as edit:
                with edit.batch() as b:
                    c = b.allocate_variable("c")
                    b.insert(b.points("fib", PointType.FUNC_ENTRY),
                             IncrementVar(c))
                m, ev = edit.run_instrumented()
        assert ev.reason is StopReason.EXITED
        snap = rec.snapshot()
        counters, spans = snap["counters"], snap["spans"]
        # parse phase: CFG build spans + disambiguation counters
        assert spans["parse.binary"]["total_s"] > 0
        assert spans["parse.function"]["count"] >= 1
        assert counters["parse.functions"] >= 1
        assert any(k.startswith("parse.classify.") for k in counters)
        # liveness phase
        assert spans["liveness.analyze"]["count"] >= 1
        assert counters["liveness.fixpoint_iterations"] >= 1
        # patch phase: springboard ladder + scratch accounting
        assert spans["patch.commit"]["total_s"] > 0
        assert sum(v for k, v in counters.items()
                   if k.startswith("patch.springboard.")) == \
            counters["patch.points"]
        assert counters["patch.scratch.spills_avoided"] == \
            counters["patch.scratch.dead_regs_used"]
        # sim phase: retirement + trace cache + MIPS gauge
        assert counters["sim.instructions_retired"] == m.instret
        assert counters["sim.trace.megatraces_compiled"] >= 1
        assert counters["sim.trace.hits"] >= 1
        assert snap["gauges"]["sim.mips"] > 0

    def test_binary_edit_telemetry_property(self):
        prog = compile_source(fib_source(6))
        with telemetry.enabled():
            edit = open_binary(prog)
            snap = edit.telemetry
        assert snap["enabled"] is True
        assert snap["counters"]["parse.functions"] >= 1
        # disabled edits expose the (empty) null snapshot
        cold = open_binary(prog)
        assert cold.telemetry["enabled"] is False

    def test_format_report_renders_phases(self):
        with telemetry.enabled() as rec:
            open_binary(compile_source(fib_source(5)))
        text = telemetry.format_report(rec.snapshot())
        assert "== parse" in text
        assert "parse.functions" in text

    def test_format_report_disabled(self):
        text = telemetry.format_report(NullRecorder().snapshot())
        assert "disabled" in text


class TestMachineRunReport:
    def test_report_to_stream(self):
        m = Machine()
        prog = compile_source(fib_source(6))
        from repro.symtab.symtab import Symtab

        Symtab.from_program(prog).load_into(m)
        buf = io.StringIO()
        ev = m.run(report=buf)
        assert ev.reason is StopReason.EXITED
        text = buf.getvalue()
        assert "instructions retired" in text
        assert "trace cache" in text
        assert f"{m.instret:,}" in text

    def test_report_does_not_change_results(self):
        prog = compile_source(fib_source(7))
        from repro.symtab.symtab import Symtab

        m1 = Machine()
        Symtab.from_program(prog).load_into(m1)
        ev1 = m1.run()
        m2 = Machine()
        Symtab.from_program(prog).load_into(m2)
        ev2 = m2.run(report=io.StringIO())
        assert (ev1.reason, ev1.pc, m1.instret, m1.ucycles, m1.x) == \
            (ev2.reason, ev2.pc, m2.instret, m2.ucycles, m2.x)


class TestPercentiles:
    """pow2-bucket percentile estimation (telemetry.report helpers)."""

    @staticmethod
    def _hist(values):
        rec = Recorder()
        for v in values:
            rec.observe("h", v)
        return rec.snapshot()["histograms"]["h"]

    def test_empty_histogram(self):
        assert telemetry.estimate_percentile({}, 50) == 0.0
        assert telemetry.percentiles({}) == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_single_value_every_quantile(self):
        h = self._hist([37])
        for q in (0, 1, 50, 90, 99, 100):
            assert telemetry.estimate_percentile(h, q) == 37

    def test_extremes_clamp_to_observed_min_max(self):
        h = self._hist([3, 100, 1000])
        assert telemetry.estimate_percentile(h, 0) == 3
        assert telemetry.estimate_percentile(h, 100) == 1000

    def test_bucket_edges_power_of_two(self):
        # 8 has bit_length 4 -> bucket le_2^4 (8 <= v < 16); 7 -> le_2^3
        h = self._hist([7, 8])
        assert set(h["buckets"]) == {"le_2^3", "le_2^4"}
        p50 = telemetry.estimate_percentile(h, 50)
        assert 4 <= p50 <= 8
        p99 = telemetry.estimate_percentile(h, 99)
        assert 8 <= p99 <= 16

    def test_zero_values_land_in_bucket_zero(self):
        h = self._hist([0, 0, 0, 16])
        assert telemetry.estimate_percentile(h, 50) == 0.0
        assert telemetry.estimate_percentile(h, 100) == 16

    def test_estimates_within_bucket_bounds(self):
        values = [1, 2, 3, 5, 9, 17, 33, 65, 129, 1025]
        h = self._hist(values)
        for q in (10, 25, 50, 75, 90, 99):
            est = telemetry.estimate_percentile(h, q)
            assert min(values) <= est <= max(values)
            # the true percentile's bucket bounds the estimate: the
            # estimate may never be off by more than one pow2 bucket
            import math
            rank = max(1, math.ceil(q / 100 * len(values)))
            true = sorted(values)[rank - 1]
            assert est <= 2 * true
            assert est >= true / 2

    def test_monotone_in_q(self):
        h = self._hist([1, 3, 7, 20, 100, 5000])
        last = -1.0
        for q in range(0, 101, 5):
            est = telemetry.estimate_percentile(h, q)
            assert est >= last
            last = est

    def test_percentiles_dict_shape(self):
        h = self._hist([10, 20, 30])
        pct = telemetry.percentiles(h, qs=(50, 95))
        assert set(pct) == {"p50", "p95"}

    def test_accepts_int_bucket_keys(self):
        # recorder-internal form ({exp: count}) works too
        h = {"count": 2, "sum": 24, "min": 8, "max": 16,
             "buckets": {4: 1, 5: 1}}
        est = telemetry.estimate_percentile(h, 50)
        assert 8 <= est <= 16

    def test_format_report_shows_percentiles(self):
        with telemetry.enabled() as rec:
            for v in (1, 10, 100, 1000):
                rec.observe("sim.block_len", v)
            text = telemetry.format_report(rec.snapshot())
        assert "p50" in text and "p90" in text and "p99" in text


class TestReportEdgeCases:
    """estimate_percentile / format_report over the degenerate shapes
    cross-worker aggregation can produce: empty histograms, single-
    bucket histograms, and merges of histograms whose bucket sets
    differ.  None of these may raise."""

    @staticmethod
    def _snapshot_with(hist):
        return {"schema": telemetry.SCHEMA, "enabled": True,
                "counters": {}, "gauges": {}, "spans": {},
                "histograms": {"service.op.run.us": hist}}

    def test_empty_histogram_renders(self):
        for empty in ({}, {"count": 0, "buckets": {}}):
            assert telemetry.estimate_percentile(empty, 99) == 0.0
            text = telemetry.format_report(self._snapshot_with(empty))
            assert "service.op.run.us" in text

    def test_single_bucket_histogram_renders(self):
        rec = Recorder()
        rec.observe("h", 5)
        rec.observe("h", 6)
        h = rec.snapshot()["histograms"]["h"]
        assert len(h["buckets"]) == 1
        for q in (0, 50, 99, 100):
            assert 5 <= telemetry.estimate_percentile(h, q) <= 6
        assert telemetry.format_report(self._snapshot_with(h))

    def test_merged_histograms_with_differing_bucket_sets(self):
        from repro.telemetry.aggregate import merge_histograms

        a_rec, b_rec = Recorder(), Recorder()
        for v in (1, 2):
            a_rec.observe("h", v)
        for v in (10_000, 20_000):
            b_rec.observe("h", v)
        a = a_rec.snapshot()["histograms"]["h"]
        b = b_rec.snapshot()["histograms"]["h"]
        assert not set(a["buckets"]) & set(b["buckets"])
        merged = merge_histograms(a, b)
        p50 = telemetry.estimate_percentile(merged, 50)
        p99 = telemetry.estimate_percentile(merged, 99)
        assert 1 <= p50 <= p99 <= 20_000
        text = telemetry.format_report(self._snapshot_with(merged))
        assert "service.op.run.us" in text

    def test_partial_histogram_dict_does_not_raise(self):
        # a merged entry missing min/max/sum (hand-rolled snapshots)
        h = {"count": 3, "buckets": {"le_2^4": 3}}
        telemetry.estimate_percentile(h, 90)
        assert telemetry.format_report(self._snapshot_with(h))


class TestTimelineRecorder:
    def test_timeline_off_by_default(self):
        rec = Recorder()
        with rec.span("parse.x"):
            pass
        assert "timeline" not in rec.snapshot()

    def test_timeline_records_span_instances(self):
        rec = Recorder(timeline=True)
        with rec.span("parse.x"):
            pass
        with rec.span("patch.y"):
            pass
        tl = rec.snapshot()["timeline"]
        assert [t["name"] for t in tl] == ["parse.x", "patch.y"]
        for t in tl:
            assert t["end_s"] >= t["start_s"]

    def test_timeline_bounded(self):
        rec = Recorder(timeline=True, timeline_limit=3)
        for _ in range(10):
            rec.record_interval("sim.run", 0.0, 1.0)
        assert len(rec.snapshot()["timeline"]) == 3
        # aggregates keep counting past the timeline bound
        assert rec.snapshot()["spans"]["sim.run"]["count"] == 10

    def test_clear_drops_timeline(self):
        rec = Recorder(timeline=True)
        rec.record_interval("a.b", 0.0, 1.0)
        rec.clear()
        assert rec.snapshot()["timeline"] == []
