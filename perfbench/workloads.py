"""The benchmark's three workloads.

Each workload has a set-up (:meth:`setup`, timed and repeated by the
runner, undone by :meth:`teardown`), a reference computed once by a
different engine than the one under test (:meth:`prepare`), and a
closed-loop measurement (:meth:`measure`) that checks every session's
output against that reference.

* ``matmul_bb`` -- the paper's 4.3 cell in process: cold
  ``analyze(store=False)``, a counter at every basic block of
  ``multiply``, commit, run.  Simulator execution dominates.
* ``wide_rewrite`` -- the 200-function binary in process: cold
  ``analyze`` into a fresh artifact store, a counter at all 201
  function entries, commit, rewrite to ELF, run.  Parse, liveness,
  store, codegen, the ELF writer and trace compilation dominate.
* ``service_rewrite`` -- the same static rewrite through a forked
  2-worker ``SessionServer``: open, allocate, 201 inserts, rewrite,
  close, one session at a time over one connection per worker.  No
  simulator work.

Session times are scaled to a reference host speed with a calibration
kernel timed next to them (see ``calib.py``); the wall times are kept
for the report.  Sessions during which the host switched speed are
checked but left out of the times (:meth:`Measurement.settle`).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from repro import telemetry
from repro.api import BinaryEdit, analyze, load_rewritten
from repro.artifacts import ArtifactStore
from repro.codegen.snippets import IncrementVar
from repro.elf.writer import write_program
from repro.minicc import compile_source
from repro.patch.points import PointType
from repro.patch.springboard import SpringboardKind
from repro.service import ServiceClient, SessionServer
from repro.sim import Machine, P550
from repro.symtab import Symtab
from repro.tools import count_basic_blocks

import calib
import sources
from tracer import SPAN_NAMES, LayerTracer

clock = time.perf_counter

#: sessions every run completes, however short ``--seconds`` is
MIN_SESSIONS = 4


# -- outputs and counts ----------------------------------------------------

def outcome(machine, event, var) -> dict:
    """What one run of the mutatee produced."""
    return {
        "reason": event.reason.name,
        "exit_code": machine.exit_code,
        "stdout_sha256": hashlib.sha256(bytes(machine.stdout)).hexdigest(),
        "instret": machine.instret,
        "ucycles": machine.ucycles,
        "counter": machine.mem.read_int(var.address, var.size),
    }


def differences(label: str, got: dict, want: dict) -> list[str]:
    return [f"{label}: {k} = {got.get(k)!r}, expected {v!r}"
            for k, v in want.items() if got.get(k) != v]


def run_interpreter(symtab, result=None):
    """Run on the closure interpreter (trace compiler off)."""
    machine = Machine(P550, trace_compile=False)
    symtab.load_into(machine)
    if result is not None:
        result.apply_to_machine(machine)
    return machine, machine.run()


def analysis_counts(analysis) -> dict:
    cfg = analysis.cfg
    return {
        "parse.functions": len(cfg.functions),
        "parse.blocks": len(cfg.blocks),
        "parse.insns": sum(len(b.insns) for b in cfg.blocks.values()),
    }


def patch_counts(stats) -> dict:
    out = {
        "patch.points": stats.points,
        "patch.trampoline_bytes": stats.trampoline_bytes,
        "patch.dead_regs_used": stats.dead_regs_used,
    }
    for kind in SpringboardKind:
        name = "patch.springboard." + kind.value.replace("+", "_")
        out[name] = stats.springboards.get(kind.value, 0)
    return out


def sim_counts(machine) -> dict:
    traces = machine.traces
    return {
        "sim.instret": machine.instret,
        "sim.ucycles": machine.ucycles,
        "sim.trace.compiles": traces.compiles,
        "sim.trace.mega_compiles": traces.mega_compiles,
        "sim.trace.deopts": traces.deopt_count[0],
        "sim.trace.jalr_guard_hits": traces.jalr_hits[0],
        "sim.trace.jalr_guard_misses": traces.jalr_misses[0],
    }


def overhead_pct(ucycles: int, base_ucycles: int) -> float:
    return 100.0 * (ucycles - base_ucycles) / base_ucycles


def liveness_iterations(elf: bytes) -> int:
    """Liveness fixpoint iterations of one cold analysis (a recorder
    counter, so it is read from a separate, untimed analysis)."""
    with telemetry.enabled() as rec:
        analyze(elf, store=False)
    return rec.counters().get("liveness.fixpoint_iterations", 0)


def peak_rss_mb(children=()) -> float:
    """High-water RSS of this process plus the given live children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for proc in children:
        try:
            with open(f"/proc/{proc.pid}/status") as f:
                kb += next(int(line.split()[1]) for line in f
                           if line.startswith("VmHWM:"))
        except (OSError, StopIteration, ValueError):
            pass
    return kb / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def overhead_of(traced_s: float, untraced_s: float) -> float:
    return (100.0 * (traced_s - untraced_s) / untraced_s
            if untraced_s else 0.0)


def steady_only(items: list, fewest: int, is_steady) -> list:
    """The items timed while the host kept one speed, or all of them
    when fewer than *fewest* were."""
    kept = [item for item in items if is_steady(item)]
    return kept if len(kept) >= fewest else items


class Measurement:
    """What one closed-loop measurement produced."""

    def __init__(self):
        self.attempted = 0
        #: one line per failed session or output check
        self.failures: list[str] = []
        #: every good untraced session: (wall seconds, scale, steady)
        self.timed: list[tuple[float, float, bool]] = []
        #: the untraced session times kept by :meth:`settle`, scaled to
        #: the reference host, and as measured
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        #: every calibration kernel sample taken (seconds)
        self.calib: list[float] = []
        #: deterministic counts (identical in every session)
        self.counts: dict = {}
        #: per-layer metrics (traced runs only)
        self.layers: dict = {}
        #: high-water RSS including server children (0: this process)
        self.peak_rss_mb = 0.0
        #: printed, not reported as metrics
        self.notes: list[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def calibrate(self, before: float, after: float) -> float:
        self.calib += [before, after]
        return calib.factor(before, after)

    def add(self, wall: float, before: float, after: float) -> None:
        """One good untraced session, between two kernel samples."""
        self.timed.append((wall, calib.factor(before, after),
                           calib.steady(before, after)))

    def settle(self, fewest: int) -> None:
        """Keep the sessions the host kept one speed through, or every
        session when fewer than *fewest* were steady."""
        kept = steady_only(self.timed, fewest, lambda t: t[2])
        self.wall_latencies = [wall for wall, *_ in kept]
        self.latencies = [wall * scale for wall, scale, _ in kept]
        self.notes.append(
            f"untraced sessions kept: {len(kept)} of {len(self.timed)}"
            " (left out: those spanning a host-speed switch)")

    def expect_counts(self, counts: dict) -> list[str]:
        """Every session must produce the first session's counts."""
        if not self.counts:
            self.counts = dict(counts)
            return []
        return [f"count {k} = {v}, first session had {self.counts.get(k)}"
                for k, v in counts.items() if self.counts.get(k) != v]


# -- in-process workloads ----------------------------------------------------

class Session:
    """One in-process session's results, checked after the clock stops."""

    def __init__(self, edit, machine, out, var, blob=None):
        self.edit = edit
        self.machine = machine
        self.outcome = out
        self.var = var
        self.blob = blob


class InProcessWorkload:
    """Sessions run one at a time in this process."""

    name = ""
    min_sessions = MIN_SESSIONS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.elf = b""
        self.reference: dict = {}
        self.base_ucycles = 0

    def source(self) -> str:
        raise NotImplementedError

    def instrument(self, edit):
        raise NotImplementedError

    def session(self) -> Session:
        raise NotImplementedError

    def before(self) -> None:
        """Untimed per-session preparation."""

    def after(self) -> None:
        """Untimed per-session cleanup."""

    def setup(self) -> None:
        """Compile the mutatee, write its ELF, and run one warm-up
        session so process-wide caches are filled before timing."""
        self.elf = write_program(compile_source(self.source()))
        self.before()
        try:
            self.session()
        finally:
            self.after()

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        """Reference outputs: the session's instrumentation run on the
        closure interpreter, and the uninstrumented cycle count."""
        edit = BinaryEdit(analyze(self.elf, store=False))
        var = self.instrument(edit)
        machine, event = run_interpreter(edit.symtab, edit.commit())
        self.reference = outcome(machine, event, var)
        base = Machine(P550)
        edit.symtab.load_into(base)
        base.run()
        self.base_ucycles = base.ucycles

    def check(self, sess: Session) -> list[str]:
        return differences("session vs interpreter", sess.outcome,
                           self.reference)

    def counts(self, sess: Session) -> dict:
        return {
            **analysis_counts(sess.edit.analysis),
            **patch_counts(sess.edit.commit().stats),
            **sim_counts(sess.machine),
            "overhead_pct": overhead_pct(sess.machine.ucycles,
                                         self.base_ucycles),
        }

    def traced_extras(self, sess: Session) -> dict:
        """Per-layer values measured outside the timed session."""
        return {"dataflow.liveness_iterations":
                liveness_iterations(self.elf)}

    def measure(self, seconds: float, traced: bool) -> Measurement:
        """Closed loop for *seconds*.  A traced run alternates untraced
        and traced sessions, so both see the same host conditions."""
        res = Measurement()
        traced_runs = []
        deadline = clock() + seconds
        cutoff = deadline + seconds

        def enough() -> bool:
            """Past the deadline, sessions go on only until
            ``min_sessions`` untraced ones were steady, and not past
            *cutoff*."""
            steady = sum(1 for *_, ok in res.timed if ok)
            return res.attempted >= self.min_sessions and (
                steady >= self.min_sessions or clock() >= cutoff)

        while clock() < deadline or not enough():
            tracer = LayerTracer() if traced and res.attempted % 2 else None
            res.attempted += 1
            self.before()
            try:
                gc.collect()
                gc.disable()
                try:
                    c0 = calib.sample()
                    with tracer if tracer else contextlib.nullcontext():
                        t0 = clock()
                        sess = self.session()
                        dt = clock() - t0
                    c1 = calib.sample()
                finally:
                    gc.enable()
                scale = res.calibrate(c0, c1)
                problems = self.check(sess)
                problems += res.expect_counts(self.counts(sess))
                if problems:
                    res.fail("; ".join(problems))
                    continue
                if tracer is None:
                    res.add(dt, c0, c1)
                else:
                    traced_runs.append((dt * scale, scale, tracer,
                                        self.counts(sess),
                                        self.traced_extras(sess),
                                        calib.steady(c0, c1)))
            except Exception:  # noqa: BLE001 -- a failed session is data
                res.fail(traceback.format_exc())
            finally:
                self.after()
        res.settle(self.min_sessions)
        if traced:
            res.layers = self.layer_metrics(
                res, steady_only(traced_runs, 2, lambda run: run[-1]))
        return res

    def layer_metrics(self, res: Measurement, runs) -> dict:
        """Medians over the traced sessions ``(scaled seconds, scale,
        tracer, counts, extras, steady)``.  Span times are self times,
        scaled like the session, except ``sim.run_s``, which includes
        trace compilation."""
        if not runs:
            return {}
        out = {}
        for span in SPAN_NAMES:
            if span == "sim.run":
                continue
            key = "parse.s" if span == "parse" else f"{span}_s"
            out[key] = median([tr.self_s.get(span, 0.0) * scale
                               for _, scale, tr, *_ in runs])
        run_s = median([tr.total_s.get("sim.run", 0.0) * scale
                        for _, scale, tr, *_ in runs])
        out["sim.run_s"] = run_s
        out["sim.execute_s"] = median([tr.self_s.get("sim.run", 0.0) * scale
                                       for _, scale, tr, *_ in runs])
        counts = runs[-1][3]
        out.update(counts)
        out.update(runs[-1][4])
        instret = counts["sim.instret"]
        out["sim.minstr_per_s"] = instret / run_s / 1e6 if run_s else 0.0
        compiles = counts["sim.trace.compiles"] + \
            counts["sim.trace.mega_compiles"]
        out["sim.trace.instr_per_compile"] = (
            instret / compiles if compiles else 0.0)
        hits = counts["sim.trace.jalr_guard_hits"]
        guarded = hits + counts["sim.trace.jalr_guard_misses"]
        out["sim.trace.jalr_guard_hit_ratio"] = (
            hits / guarded if guarded else 0.0)
        traced_p50 = median([dt for dt, *_ in runs])
        out["trace_overhead_pct"] = overhead_of(traced_p50,
                                                median(res.latencies))
        out["trace.accounted_pct"] = median(
            [100.0 * tr.accounted_s() * scale / dt
             for dt, scale, tr, *_ in runs])
        res.notes.append(
            f"traced sessions: {len(runs)}, untraced: "
            f"{len(res.latencies)}; traced p50 {traced_p50 * 1e3:.1f} ms")
        return out


class MatmulBB(InProcessWorkload):
    name = "matmul_bb"

    def source(self) -> str:
        return sources.matmul_source(self.seed)

    def instrument(self, edit):
        return count_basic_blocks(edit, "multiply").variable

    def session(self) -> Session:
        edit = BinaryEdit(analyze(self.elf, store=False))
        var = self.instrument(edit)
        machine, event = edit.run_instrumented()
        return Session(edit, machine, outcome(machine, event, var), var)


class WideRewrite(InProcessWorkload):
    name = "wide_rewrite"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.store: ArtifactStore | None = None

    def source(self) -> str:
        return sources.wide_source(self.seed)

    def before(self) -> None:
        self.store = ArtifactStore(tempfile.mkdtemp(dir=self.workdir))

    def after(self) -> None:
        shutil.rmtree(self.store.root, ignore_errors=True)

    def instrument(self, edit):
        var = edit.allocate_variable("calls")
        snippet = IncrementVar(var)
        for name in sources.wide_functions():
            edit.insert(edit.points(name, PointType.FUNC_ENTRY), snippet)
        return var

    def session(self) -> Session:
        edit = BinaryEdit(analyze(self.elf, store=self.store))
        var = self.instrument(edit)
        edit.commit()
        blob = edit.rewrite()
        machine, event = edit.run_instrumented()
        return Session(edit, machine, outcome(machine, event, var), var,
                       blob)

    def check(self, sess: Session) -> list[str]:
        problems = super().check(sess)
        machine = Machine(P550, trace_compile=False)
        load_rewritten(machine, sess.blob)
        event = machine.run()
        problems += differences(
            "rewritten ELF vs dynamic run",
            outcome(machine, event, sess.var), sess.outcome)
        return problems

    def traced_extras(self, sess: Session) -> dict:
        extras = super().traced_extras(sess)
        c0 = calib.sample()
        t0 = clock()
        warm = analyze(self.elf, store=self.store)
        revive_s = clock() - t0
        extras["artifacts.revive_s"] = \
            revive_s * calib.factor(c0, calib.sample())
        if not warm.revived:
            raise RuntimeError("warm analyze did not revive the artifact")
        extras["artifacts.payload_bytes"] = \
            self.store.path_for(warm.key).stat().st_size
        return extras


# -- the service workload ----------------------------------------------------

SNIPPET = {"kind": "increment", "var": "calls"}
OPS = ("open", "allocate", "insert", "rewrite", "close")


class CountingClient(ServiceClient):
    """A client that counts its requests and the attempts they took,
    so automatic retries show."""

    def __init__(self, *args, **kwargs):
        self.requests = 0
        self.attempts = 0
        super().__init__(*args, **kwargs)

    def request(self, op, **fields):
        self.requests += 1
        return super().request(op, **fields)

    def _call(self, op, fields):
        self.attempts += 1
        return super()._call(op, fields)


def remote_session(client, elf: bytes, ops: dict) -> tuple[bytes, str]:
    """One static-rewrite session over the wire.  Appends each round
    trip's seconds to ``ops[op]``; returns the rewritten ELF and the
    worker that served the session."""
    t = clock()
    session = client.open(elf)
    ops["open"].append(clock() - t)
    worker = (client.last_rid or "?").split("-")[0]
    t = clock()
    session.allocate("calls")
    ops["allocate"].append(clock() - t)
    for name in sources.wide_functions():
        t = clock()
        session.insert(name, "FUNC_ENTRY", SNIPPET)
        ops["insert"].append(clock() - t)
    t = clock()
    blob = session.rewrite()
    ops["rewrite"].append(clock() - t)
    t = clock()
    session.close()
    ops["close"].append(clock() - t)
    return blob, worker


class ServiceRewrite:
    """Sessions one at a time from this process against a forked
    2-worker server, over one connection per worker, taken in turn.

    One session in flight keeps the client and the server's workers
    from competing for the host's two cores: with two concurrent
    clients the session times measured the scheduler."""

    name = "service_rewrite"
    WORKERS = 2
    #: sessions every run completes: ten beyond its p75
    min_sessions = 40
    #: fewest steady untraced sessions a run's times are taken from
    FEWEST_STEADY = 20
    #: metrics-plane flush period of the traced run's server
    FLUSH_S = 0.2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.elf = b""
        self.store_dir = ""
        self.sock = ""
        self.reference = b""
        self.ref_counts: dict = {}
        self.servers: list[SessionServer] = []
        self.warm_workers = 0

    def _server(self, tag: str, **kw) -> str:
        sock = str(self.workdir / f"{tag}.sock")
        self.servers.append(SessionServer(
            sock, store=self.store_dir, workers=self.WORKERS, **kw).start())
        return sock

    def setup(self) -> None:
        """Compile, write the ELF, seed the store, start the server,
        and open one session on every worker.

        This process and the workers it forks share one core: with one
        session in flight nothing runs in parallel, and the calibration
        kernel, timed here, then measures the core the sessions ran on.
        Unpinned, a slowdown of the client's core alone made the scaled
        times of slow runs read too fast."""
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.elf = write_program(compile_source(
            sources.wide_source(self.seed)))
        self.store_dir = tempfile.mkdtemp(dir=self.workdir)
        analyze(self.elf, store=ArtifactStore(self.store_dir))
        self.sock = self._server(f"svc{len(self.servers)}")
        clients, _ = self.connect_spread(self.sock, ServiceClient,
                                         self.WORKERS)
        for client in clients:
            client.open(self.elf).close()
            client.close()
        self.warm_workers = len(clients)

    def connect_spread(self, sock: str, cls, n: int):
        """Up to *n* connections, each accepted by a different worker.

        Workers share one listening socket and the kernel picks which
        one accepts, so connections made close together can all land on
        one worker.  Connect until *n* distinct workers answer; returns
        the connections and how many extra connects that took."""
        kept, spare = {}, []
        try:
            for _ in range(8 * self.WORKERS):
                client = cls(sock)
                worker = client.ping()["worker"]
                if worker in kept:
                    spare.append(client)
                else:
                    kept[worker] = client
                if len(kept) == n:
                    break
        finally:
            for client in spare:
                client.close()
        return list(kept.values()), len(spare)

    def teardown(self) -> None:
        while self.servers:
            self.servers.pop().close()

    def prepare(self) -> None:
        """Reference: the in-process ``BinaryEdit.rewrite()`` bytes."""
        edit = BinaryEdit(analyze(self.elf, store=False))
        var = edit.allocate_variable("calls")
        for name in sources.wide_functions():
            edit.insert(edit.points(name, PointType.FUNC_ENTRY),
                        IncrementVar(var))
        self.reference = edit.rewrite()
        self.ref_counts = {**analysis_counts(edit.analysis),
                           **patch_counts(edit.commit().stats)}

    def _session(self, conn, records, failures, retries) -> None:
        """One session on *conn*, a ``[server index, socket, client]``
        list.  Appends ``(server index, start, end, worker, op times,
        image)`` to *records* if it succeeds; replaces the connection
        if it failed.  Returns whether it appended."""
        k, sock, client = conn
        ops = defaultdict(list)
        t0 = clock()
        try:
            blob, worker = remote_session(client, self.elf, ops)
        except Exception:  # noqa: BLE001 -- a failed session is data
            failures.append(traceback.format_exc())
            retire(client, retries)
            conn[2] = type(client)(sock)
            return False
        t1 = clock()
        if blob != self.reference:
            failures.append("rewrite bytes differ from the "
                            "in-process BinaryEdit.rewrite()")
            return False
        records.append((k, t0, t1, worker, ops, blob))
        return True

    def measure(self, seconds: float, traced: bool) -> Measurement:
        res = Measurement()
        socks = [self.sock]
        if traced:
            # a second, unwarmed server with the metrics plane armed:
            # traced sessions alternate with untraced ones on the first
            socks.append(self._server(
                "armed", metrics_dir=str(self.workdir / "metrics"),
                flush_interval=self.FLUSH_S))
        cls = CountingClient if traced else ServiceClient
        per_server, extra_connects = [], 0
        for k, sock in enumerate(socks):
            clients, extra = self.connect_spread(sock, cls, self.WORKERS)
            clients += [cls(sock) for _ in range(self.WORKERS - len(clients))]
            per_server.append([[k, sock, client] for client in clients])
            extra_connects += extra
        # worker by worker, the servers take turns
        conns = [conn for same_worker in zip(*per_server)
                 for conn in same_worker]
        turns = itertools.cycle(conns)
        sessions, failures, retries = [], [], []
        try:
            deadline = clock() + seconds
            before = calib.sample()
            res.calib.append(before)
            while (clock() < deadline or
                   len(sessions) + len(failures) < self.min_sessions):
                gc.collect()
                gc.disable()
                try:
                    done = self._session(next(turns), sessions, failures,
                                         retries)
                finally:
                    gc.enable()
                # the kernel is timed between sessions, with the client
                # idle: each session is scaled by its two neighbours
                after = calib.sample()
                res.calib.append(after)
                if done:
                    sessions[-1] += (before, after)
                before = after
        finally:
            for _, _, client in conns:
                retire(client, retries)

        res.attempted = len(sessions) + len(failures)
        res.failures = failures
        plain = [r for r in sessions if r[0] == 0]
        for _, t0, t1, *_, c0, c1 in plain:
            res.add(t1 - t0, c0, c1)
        res.settle(self.FEWEST_STEADY)
        res.notes.append(self._share_note("untraced", plain))
        res.notes.append(f"workers warmed in set-up: {self.warm_workers}"
                         f" of {self.WORKERS}; extra connects to reach "
                         f"every worker: {extra_connects}")
        res.peak_rss_mb = peak_rss_mb(multiprocessing.active_children())
        res.counts = self.output_counts(sessions, res)
        if traced:
            armed = [r for r in sessions if r[0] == 1]
            res.layers = self.layer_metrics(res, armed)
            res.layers["service.retries"] = sum(retries)
            res.layers["service.placement_connects"] = extra_connects
        return res

    @staticmethod
    def _share_note(label, runs) -> str:
        """Sessions and their median wall ms, per worker."""
        share = defaultdict(list)
        for _, t0, t1, worker, *_ in runs:
            share[worker].append(t1 - t0)
        return f"{label} sessions per worker: " + ", ".join(
            f"{w} {len(ts)} (p50 {median(ts) * 1e3:.1f} ms)"
            for w, ts in sorted(share.items()))

    def output_counts(self, sessions, res: Measurement) -> dict:
        """Counts of the returned image: run it once on the closure
        interpreter next to the uninstrumented binary."""
        counts = dict(self.ref_counts)
        if not sessions:
            return counts
        blob = sessions[0][5]
        base = Machine(P550)
        Symtab.from_bytes(self.elf).load_into(base)
        base.run()
        machine = Machine(P550, trace_compile=False)
        load_rewritten(machine, blob)
        machine.run()
        want = len(sources.wide_functions())
        got = machine.mem.read_int(
            Symtab.from_bytes(blob).symbols["dyninst$calls"].address, 8)
        if (machine.exit_code, bytes(machine.stdout), got) != \
                (base.exit_code, bytes(base.stdout), want):
            res.fail("rewritten image does not behave like the original "
                     f"with {want} entry counts (counter {got})")
        counts.update({
            "sim.instret": machine.instret,
            "sim.ucycles": machine.ucycles,
            "rewrite.bytes": len(blob),
            "overhead_pct": overhead_pct(machine.ucycles, base.ucycles),
        })
        return counts

    def layer_metrics(self, res, runs) -> dict:
        """Per-layer metrics of the armed server's sessions.  Server
        times are sums over the run, so every time is scaled by the
        run's median host-speed factor, except the traced session times
        ``trace_overhead_pct`` compares, which are scaled and kept as
        the untraced ones are."""
        out = {}
        if not runs:
            return out
        scale = calib.REF_CALIB_S / median(res.calib)
        ops = defaultdict(list)
        for run in runs:
            for op, samples in run[4].items():
                ops[op].extend(samples)
        for op in ("open", "insert", "rewrite", "close"):
            out[f"service.{op}_ms"] = median(ops[op]) * 1e3 * scale
        client = ServiceClient(self.servers[-1].socket_path)
        try:
            time.sleep(2 * self.FLUSH_S + 0.1)  # let both workers flush
            merged = client.metrics()["merged"]
        finally:
            client.close()
        hists = merged.get("histograms", {})
        server_total_ms = 0.0
        for op in OPS:
            h = hists.get(f"service.op.{op}.us", {})
            server_total_ms += h.get("sum", 0.0) / 1e3
            if op != "allocate":
                out[f"service.server_ms.{op}"] = (
                    h["sum"] / h["count"] / 1e3 * scale
                    if h.get("count") else 0.0)
        client_total_ms = sum(sum(ops[op]) for op in OPS) * 1e3
        out["service.protocol_ms"] = \
            (client_total_ms - server_total_ms) / len(runs) * scale
        firsts = {}
        for run in sorted(runs, key=lambda r: r[1]):
            firsts.setdefault(run[3], (run[2] - run[1]) * 1e3 * scale)
        out["service.first_session_ms"] = median(list(firsts.values()))
        per_worker = defaultdict(int)
        for run in runs:
            per_worker[run[3]] += 1
        out["service.worker_share_max"] = max(per_worker.values()) / len(runs)
        counters = merged.get("counters", {})
        out["service.shed"] = (counters.get("service.shed.connections", 0)
                               + counters.get("service.shed.sessions", 0))
        kept = steady_only(runs, self.FEWEST_STEADY // 2,
                           lambda run: calib.steady(*run[-2:]))
        out["trace_overhead_pct"] = overhead_of(
            median([(t1 - t0) * calib.factor(c0, c1)
                    for _, t0, t1, *_, c0, c1 in kept]),
            median(res.latencies))
        out["trace.accounted_pct"] = 100.0 * (
            sum(sum(ops[op]) for op in OPS)
            / sum(t1 - t0 for _, t0, t1, *_ in runs))
        c0 = calib.sample()
        t0 = clock()
        analyze(self.elf, store=self.store_dir)
        out["artifacts.revive_s"] = \
            (clock() - t0) * calib.factor(c0, calib.sample())
        res.notes.append(self._share_note("traced", runs))
        res.notes.append("first session per worker (scaled ms): "
                         + ", ".join(f"{w} {ms:.1f}"
                                     for w, ms in sorted(firsts.items())))
        return out


def retire(client, retries: list) -> None:
    """Close a connection, recording the retries it made."""
    if isinstance(client, CountingClient):
        retries.append(client.attempts - client.requests)
    client.close()


WORKLOADS = {cls.name: cls for cls in (MatmulBB, WideRewrite,
                                        ServiceRewrite)}
