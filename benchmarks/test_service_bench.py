"""Benchmark: the content-addressed artifact store and session service.

Two headline numbers, both written to ``BENCH_service.json`` at the
repository root (consumed by ``tools/bench_guard.py`` in CI):

* **cold vs warm open** — ``analyze()`` on the matmul fixture with an
  empty store (full parse + liveness + store) against a second process'
  view of the same store (revive only).  The warm path must be >= 3x
  faster and, telemetry-verified, recompute *nothing*: no ``parse.*``
  spans, no ``liveness.*`` counters, exactly one ``artifacts.hits``.
  Next to that best-of ratio, medians of :data:`MEDIAN_RUNS` warm
  opens and of as many cold ``analyze(store=False)`` calls — the way
  the store is used, with no recorder and no store write — give the
  ratio that decides whether the store pays for itself.
* **sessions/sec** — a 4-worker :class:`~repro.service.SessionServer`
  under 8 concurrent clients, each running the full open -> allocate ->
  insert -> run -> close cycle against one shared binary, with every
  result checked bit-identical to the in-process API.  Measured twice:
  metrics plane off (the zero-cost-when-unobserved configuration the
  bench_guard floors assume) and armed (per-worker recorders + flush
  files + request tracing), recording the observed-mode ratio as the
  observability plane's ablation.

Also writes the paper-style table to
``benchmarks/results/service_bench.txt``.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro import telemetry
from repro.api import InstrumentOptions, analyze, open_binary
from repro.artifacts import ArtifactStore
from repro.codegen.snippets import IncrementVar
from repro.elf.writer import write_program
from repro.minicc import compile_source
from repro.minicc.workloads import matmul_source
from repro.patch.points import PointType
from repro.service import ServiceClient, SessionServer

from conftest import MATMUL_N, MATMUL_REPS

BENCH_JSON = Path(__file__).parent.parent / "BENCH_service.json"

#: timing repetitions; latencies are best-of (spread recorded)
REPEATS = 5

#: runs behind each warm/cold median
MEDIAN_RUNS = 9

CLIENTS = 8
WORKERS = 4


def _timed(fn):
    best, times = None, []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        if best is None or dt < best[1]:
            best = (out, dt)
    spread = (max(times) - min(times)) / min(times)
    return best[0], best[1], spread


def _median_s(fn) -> float:
    times = []
    for _ in range(MEDIAN_RUNS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_service_benchmark(record):
    prog = compile_source(matmul_source(MATMUL_N, MATMUL_REPS))
    elf = write_program(prog)
    opts = InstrumentOptions()

    with tempfile.TemporaryDirectory() as td:
        store_dir = os.path.join(td, "store")

        # -- cold: every repetition hits a fresh store ------------------
        def cold():
            st = ArtifactStore(tempfile.mkdtemp(dir=td))
            with telemetry.enabled() as rec:
                analyze(elf, opts, store=st)
            return rec.snapshot()

        cold_snap, cold_s, cold_spread = _timed(cold)
        assert cold_snap["counters"].get("artifacts.stores") == 1
        assert any(n.startswith("parse.")
                   for n in cold_snap["spans"]), "cold path must parse"

        # -- warm: revive from the store cold() seeded ------------------
        analyze(elf, opts, store=ArtifactStore(store_dir))

        def warm():
            with telemetry.enabled() as rec:
                analysis = analyze(elf, opts,
                                   store=ArtifactStore(store_dir))
            assert analysis.revived
            return rec.snapshot()

        warm_snap, warm_s, warm_spread = _timed(warm)
        counters = warm_snap["counters"]
        assert counters.get("artifacts.hits") == 1, counters
        assert not any(n.startswith("liveness.") for n in counters)
        assert not any(n.startswith("parse.")
                       for n in warm_snap["spans"]), \
            "warm open must not re-parse"

        speedup = cold_s / warm_s

        # -- medians, as the store is used: no recorder, no store write -
        def warm_open():
            assert analyze(elf, opts, store=ArtifactStore(store_dir)).revived

        warm_median_s = _median_s(warm_open)
        cold_median_s = _median_s(lambda: analyze(elf, opts, store=False))
        speedup_median = cold_median_s / warm_median_s

        # -- in-process reference for bit-identity ----------------------
        edit = open_binary(elf, opts)
        c = edit.allocate_variable("calls")
        edit.insert(edit.points("main", PointType.FUNC_ENTRY),
                    IncrementVar(c))
        m, ev = edit.run_instrumented()
        reference = (ev.reason.name, list(m.x),
                     edit.read_variable(m, c))

        # -- sessions/sec: 8 concurrent clients, 4 workers --------------
        sock = os.path.join(td, "svc.sock")

        def hammer(**server_kw):
            results, errors = [], []

            def one_client():
                try:
                    with ServiceClient(sock) as cl, cl.open(elf) as s:
                        s.allocate("calls")
                        s.insert("main", "FUNC_ENTRY",
                                 {"kind": "increment", "var": "calls"})
                        r = s.run()
                        results.append(
                            (r["reason"], r["x"],
                             r["variables"]["calls"]))
                except Exception as exc:  # noqa: BLE001 — surfaced
                    errors.append(repr(exc))

            with SessionServer(sock, store=ArtifactStore(store_dir),
                               workers=WORKERS, **server_kw):
                threads = [threading.Thread(target=one_client)
                           for _ in range(CLIENTS)]
                t0 = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wall = time.perf_counter() - t0
            assert not errors, errors
            assert len(results) == CLIENTS
            for got in results:
                assert got == list(reference) or tuple(got) == reference
            return wall

        # unobserved: the configuration the bench_guard floor holds for
        wall = hammer()
        sessions_per_sec = CLIENTS / wall
        # observed: metrics plane armed (per-worker recorders, request
        # tracing, periodic flushes) — the observability ablation
        wall_observed = hammer(
            metrics_dir=os.path.join(td, "metrics"),
            flush_interval=0.5)
        sessions_per_sec_observed = CLIENTS / wall_observed

        lines = [
            "Artifact store + session service "
            f"(matmul mutatee, N={MATMUL_N}, reps={MATMUL_REPS})",
            "",
            f"{'open path':<26}{'seconds':>9}{'spread':>8}",
            f"{'cold (parse+liveness)':<26}{cold_s:>9.4f}"
            f"{cold_spread:>7.1%}",
            f"{'warm (store revive)':<26}{warm_s:>9.4f}"
            f"{warm_spread:>7.1%}",
            "",
            f"warm speedup: {speedup:.1f}x "
            "(zero parse spans, zero liveness counters)",
            f"medians of {MEDIAN_RUNS}: cold (no store) "
            f"{cold_median_s:.4f}s, warm {warm_median_s:.4f}s = "
            f"{speedup_median:.2f}x",
            "",
            f"service: {CLIENTS} concurrent clients / {WORKERS} "
            f"workers: {sessions_per_sec:.1f} sessions/s "
            f"({wall:.2f}s wall), all bit-identical to in-process",
            f"observed (metrics armed): "
            f"{sessions_per_sec_observed:.1f} sessions/s "
            f"({wall_observed:.2f}s wall, "
            f"{wall_observed / wall:.2f}x unobserved wall)",
        ]
        record("service_bench", "\n".join(lines) + "\n")

        BENCH_JSON.write_text(json.dumps({
            "benchmark": "artifact_store_service",
            "matmul_n": MATMUL_N,
            "matmul_reps": MATMUL_REPS,
            "analyze_cold_s": round(cold_s, 5),
            "analyze_warm_s": round(warm_s, 5),
            "cold_spread": round(cold_spread, 3),
            "warm_spread": round(warm_spread, 3),
            # headline number (and the CI guard's key)
            "warm_speedup": round(speedup, 2),
            "warm_counters": counters,
            "median_runs": MEDIAN_RUNS,
            "analyze_cold_nostore_median_s": round(cold_median_s, 5),
            "analyze_warm_median_s": round(warm_median_s, 5),
            "warm_speedup_median": round(speedup_median, 2),
            "clients": CLIENTS,
            "workers": WORKERS,
            "sessions_per_sec": round(sessions_per_sec, 2),
            "service_wall_s": round(wall, 3),
            # observability-plane ablation (not a guarded floor: the
            # armed path pays recorder locks + flush files by design)
            "sessions_per_sec_observed":
                round(sessions_per_sec_observed, 2),
            "service_wall_observed_s": round(wall_observed, 3),
        }, indent=2) + "\n")

    # acceptance bar: warm open >= 3x cold (ISSUE 7 criterion)
    assert speedup >= 3.0, f"warm open only {speedup:.2f}x faster"
