"""The service resilience layer (docs/SERVICE.md, "Failure modes and
recovery"): typed retryable errors, client reconnect/retry, protocol
hostility, load shedding, request deadlines with journal rollback,
worker supervision, graceful drain, and the escalating shutdown.

The acceptance bar mirrors the chaos harness
(``tools/service_smoke.py --chaos``): failures a client sees are
*retryable* typed errors, never raw ``OSError``\\ s or half-applied
state, and the fleet recovers without losing capacity."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro import telemetry
from repro.api import open_binary
from repro.codegen.snippets import IncrementVar
from repro.elf.writer import write_program
from repro.faults import FaultPlan, active, plan_from_spec
from repro.minicc import compile_source
from repro.minicc.workloads import fib_source
from repro.patch.points import PointType
from repro.service import (
    RETRYABLE_KINDS, ServiceClient, ServiceError, SessionServer,
)
from repro.service.protocol import recv_message, send_message
from repro.sim.machine import StopReason


@pytest.fixture(scope="module")
def fib_elf():
    return write_program(compile_source(fib_source(8)))


@pytest.fixture(scope="module")
def reference(fib_elf):
    """In-process result the service must reproduce bit-identically."""
    edit = open_binary(fib_elf)
    c = edit.allocate_variable("calls")
    edit.insert(edit.points("fib", PointType.FUNC_ENTRY),
                IncrementVar(c))
    m, ev = edit.run_instrumented()
    assert ev.reason is StopReason.EXITED
    return {"reason": ev.reason.name, "x": list(m.x),
            "calls": edit.read_variable(m, c)}


@pytest.fixture()
def server(tmp_path):
    sock = os.fspath(tmp_path / "svc.sock")
    with SessionServer(sock, store=tmp_path / "store",
                       workers=0) as srv:
        yield srv


def _instrumented_session(client, elf):
    s = client.open(elf)
    s.allocate("calls")
    s.insert("fib", "FUNC_ENTRY", {"kind": "increment", "var": "calls"})
    return s


def _check_result(r, reference):
    assert r["reason"] == reference["reason"]
    assert r["x"] == reference["x"]
    assert r["variables"]["calls"] == reference["calls"]


# -- mini-servers for client-side transport-failure mapping ----------------

class _MiniServer:
    """A raw AF_UNIX listener whose behaviour per accepted connection
    is scripted — the adversarial counterpart the real server never
    is."""

    def __init__(self, tmp_path, behaviours):
        self.path = os.fspath(tmp_path / "mini.sock")
        self._behaviours = list(behaviours)
        self._listener = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(8)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            behaviour = (self._behaviours.pop(0)
                         if self._behaviours else "serve_ping")
            try:
                getattr(self, "_do_" + behaviour)(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _do_close_now(self, conn):
        pass  # accept, then immediately close: EOF before any response

    def _do_read_then_close(self, conn):
        recv_message(conn)

    def _do_torn_response(self, conn):
        recv_message(conn)
        conn.sendall(b"\x00\x00")  # half a length prefix, then EOF

    def _do_never_respond(self, conn):
        recv_message(conn)
        time.sleep(5.0)

    def _do_overloaded_once(self, conn):
        recv_message(conn)
        send_message(conn, {"ok": False, "error": "shed",
                            "kind": "Overloaded", "retryable": True,
                            "retry_after": 0.01, "rid": "mini-1"})

    def _do_serve_ping(self, conn):
        while True:
            req = recv_message(conn)
            if req is None:
                return
            send_message(conn, {"ok": True, "op": req.get("op"),
                                "pid": os.getpid(), "rid": "mini-ok"})

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass
        os.unlink(self.path)


class TestClientErrorMapping:
    """Satellite: transport failures surface as typed retryable
    ServiceErrors, never raw OSError/socket.timeout."""

    def test_connect_failure_is_typed(self, tmp_path):
        with pytest.raises(ServiceError) as ei:
            ServiceClient(tmp_path / "nonexistent.sock")
        assert ei.value.kind == "ConnectFailed"
        assert ei.value.retryable

    def test_timeout_maps_to_service_timeout(self, tmp_path):
        mini = _MiniServer(tmp_path, ["never_respond"])
        try:
            cl = ServiceClient(mini.path, timeout=0.2, retries=0)
            with pytest.raises(ServiceError) as ei:
                cl.request("ping")
            assert ei.value.kind == "ServiceTimeout"
            assert ei.value.retryable
            assert not isinstance(ei.value, OSError)
        finally:
            mini.close()

    def test_eof_before_response_maps_to_connection_lost(self, tmp_path):
        mini = _MiniServer(tmp_path, ["read_then_close"])
        try:
            cl = ServiceClient(mini.path, timeout=2.0, retries=0)
            with pytest.raises(ServiceError) as ei:
                cl.request("ping")
            assert ei.value.kind == "ConnectionLost"
            assert ei.value.retryable
        finally:
            mini.close()

    def test_torn_response_maps_to_connection_lost(self, tmp_path):
        mini = _MiniServer(tmp_path, ["torn_response"])
        try:
            cl = ServiceClient(mini.path, timeout=2.0, retries=0)
            with pytest.raises(ServiceError) as ei:
                cl.request("ping")
            assert ei.value.kind == "ConnectionLost"
            assert ei.value.retryable
        finally:
            mini.close()

    def test_retryable_taxonomy_is_wired(self):
        for kind in RETRYABLE_KINDS:
            assert ServiceError("x", kind=kind).retryable
        assert not ServiceError("x", kind="ApiError").retryable
        # explicit wire flag wins over the kind table
        assert ServiceError("x", kind="ApiError",
                            retryable=True).retryable


class TestClientRetry:
    def test_idempotent_op_retries_across_reconnects(self, tmp_path):
        # first two connections die before answering; the third serves
        mini = _MiniServer(tmp_path, ["close_now", "read_then_close",
                                      "serve_ping"])
        try:
            cl = ServiceClient(mini.path, timeout=2.0, retries=3,
                               retry_backoff=0.01)
            assert cl.request("ping")["ok"] is True
        finally:
            mini.close()

    def test_overloaded_retry_honours_hint(self, tmp_path):
        mini = _MiniServer(tmp_path, ["overloaded_once"])
        try:
            cl = ServiceClient(mini.path, timeout=2.0, retries=2,
                               retry_backoff=0.01)
            resp = cl.request("ping")
            assert resp["ok"] is True
        finally:
            mini.close()

    def test_session_ops_do_not_auto_retry(self, tmp_path):
        # a lost session op must surface immediately (the session died
        # with its connection; blind re-send would be wrong)
        mini = _MiniServer(tmp_path, ["read_then_close", "serve_ping"])
        try:
            cl = ServiceClient(mini.path, timeout=2.0, retries=5)
            with pytest.raises(ServiceError) as ei:
                cl.request("commit", session="s1")
            assert ei.value.kind == "ConnectionLost"
        finally:
            mini.close()


# -- protocol hostility (satellite: fuzz the framing layer) ----------------

def _raw_connect(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(5.0)
    s.connect(path)
    return s


def _expect_dropped(raw):
    """The peer was cut loose: clean EOF, or a reset when the server
    closed with our unread garbage still in its receive buffer."""
    try:
        assert raw.recv(1) == b""
    except ConnectionResetError:
        pass


class TestHostilePeers:
    """Garbage on the socket drops that peer; the worker, its other
    connections, and the listener all live on."""

    def _assert_still_serving(self, srv, fib_elf, reference):
        with ServiceClient(srv.socket_path, timeout=5.0) as cl:
            with _instrumented_session(cl, fib_elf) as s:
                _check_result(s.run(), reference)

    def test_garbage_bytes_drop_peer_only(self, server, fib_elf,
                                          reference):
        raw = _raw_connect(server.socket_path)
        raw.sendall(b"\xde\xad\xbe\xef" * 64)
        _expect_dropped(raw)  # dropped, not answered
        raw.close()
        self._assert_still_serving(server, fib_elf, reference)

    def test_oversized_length_prefix_rejected(self, server, fib_elf,
                                              reference):
        raw = _raw_connect(server.socket_path)
        raw.sendall(struct.pack(">I", 0xFFFFFFFF))
        _expect_dropped(raw)
        raw.close()
        self._assert_still_serving(server, fib_elf, reference)

    def test_zero_length_frame_rejected(self, server, fib_elf,
                                        reference):
        raw = _raw_connect(server.socket_path)
        raw.sendall(struct.pack(">I", 0))  # an empty, non-JSON frame
        _expect_dropped(raw)
        raw.close()
        self._assert_still_serving(server, fib_elf, reference)

    def test_truncated_frame_then_close(self, server, fib_elf,
                                        reference):
        raw = _raw_connect(server.socket_path)
        raw.sendall(struct.pack(">I", 100) + b'{"op":')
        raw.close()  # EOF mid-frame
        self._assert_still_serving(server, fib_elf, reference)

    def test_slowloris_partial_header_times_out(self, tmp_path,
                                                fib_elf, reference):
        sock = os.fspath(tmp_path / "slow.sock")
        rec = telemetry.Recorder()
        with SessionServer(sock, store=tmp_path / "store", workers=0,
                           idle_timeout=0.2) as srv, \
                telemetry.enabled(rec):
            raw = _raw_connect(srv.socket_path)
            raw.sendall(b"\x00\x00")  # half a header, then silence
            t0 = time.monotonic()
            _expect_dropped(raw)  # dropped by the idle timeout
            assert time.monotonic() - t0 < 3.0
            raw.close()
            self._assert_still_serving(srv, fib_elf, reference)
            assert rec.counters().get(
                "service.conn.idle_timeouts", 0) >= 1

    def test_hostile_peer_beside_live_session(self, server, fib_elf,
                                              reference):
        # a session opened before the garbage arrives keeps working
        with ServiceClient(server.socket_path, timeout=5.0) as cl:
            with _instrumented_session(cl, fib_elf) as s:
                raw = _raw_connect(server.socket_path)
                raw.sendall(b"\x00" * 3)
                raw.close()
                _check_result(s.run(), reference)


# -- load shedding ---------------------------------------------------------

class TestLoadShedding:
    def test_connection_cap_sheds_with_hint(self, tmp_path, fib_elf):
        sock = os.fspath(tmp_path / "cap.sock")
        rec = telemetry.Recorder()
        with SessionServer(sock, store=tmp_path / "store", workers=0,
                           max_connections=1) as srv, \
                telemetry.enabled(rec):
            first = ServiceClient(sock, timeout=5.0, retries=0)
            first.ping()  # ensure the connection is fully accepted
            with pytest.raises(ServiceError) as ei:
                ServiceClient(sock, timeout=5.0, retries=0).ping()
            assert ei.value.kind == "Overloaded"
            assert ei.value.retryable
            assert ei.value.retry_after == srv.RETRY_AFTER
            assert rec.counters()["service.shed.connections"] >= 1
            first.close()
            # capacity freed: the next connection is served
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    with ServiceClient(sock, timeout=5.0,
                                       retries=0) as cl:
                        cl.ping()
                    break
                except ServiceError as exc:
                    assert exc.kind == "Overloaded"
                    assert time.monotonic() < deadline, \
                        "connection slot never freed"
                    time.sleep(0.02)

    def test_session_cap_sheds_open(self, tmp_path, fib_elf):
        sock = os.fspath(tmp_path / "scap.sock")
        rec = telemetry.Recorder()
        with SessionServer(sock, store=tmp_path / "store", workers=0,
                           max_sessions=1) as srv, \
                telemetry.enabled(rec):
            with ServiceClient(sock, timeout=5.0, retries=0) as cl:
                s1 = cl.open(fib_elf)
                with pytest.raises(ServiceError) as ei:
                    cl.open(fib_elf)
                assert ei.value.kind == "Overloaded"
                assert ei.value.retryable
                assert ei.value.retry_after is not None
                assert rec.counters()["service.shed.sessions"] >= 1
                s1.close()
                cl.open(fib_elf).close()  # capacity freed


# -- deadlines -------------------------------------------------------------

class TestDeadlines:
    def test_request_deadline_rolls_back_and_session_survives(
            self, tmp_path, fib_elf, reference):
        sock = os.fspath(tmp_path / "dl.sock")
        rec = telemetry.Recorder()
        with SessionServer(sock, store=tmp_path / "store",
                           workers=0) as srv, telemetry.enabled(rec):
            srv.RUN_SLICE = 50  # deadline checks every 50 steps
            with ServiceClient(sock, timeout=10.0) as cl:
                with _instrumented_session(cl, fib_elf) as s:
                    with pytest.raises(ServiceError) as ei:
                        s.run(deadline_ms=0.001)
                    assert ei.value.kind == "DeadlineExceeded"
                    assert ei.value.retryable
                    counters = rec.counters()
                    assert counters["service.deadline.exceeded"] >= 1
                    # the rollback went through the transactional
                    # journal (PR 4's verified bit-identical restore)
                    assert counters["commit.removes"] >= 1
                    # the session survives: an unbounded retry matches
                    # the in-process reference bit-for-bit
                    _check_result(s.run(), reference)

    def test_server_deadline_applies_without_request_field(
            self, tmp_path, fib_elf):
        sock = os.fspath(tmp_path / "dls.sock")
        with SessionServer(sock, store=tmp_path / "store", workers=0,
                           deadline_s=1e-6) as srv:
            srv.RUN_SLICE = 50
            with ServiceClient(sock, timeout=10.0) as cl:
                with _instrumented_session(cl, fib_elf) as s:
                    with pytest.raises(ServiceError) as ei:
                        s.run()
                    assert ei.value.kind == "DeadlineExceeded"

    def test_request_deadline_only_tightens(self, tmp_path, fib_elf):
        # a generous client deadline cannot extend a tight server one
        sock = os.fspath(tmp_path / "dlt.sock")
        with SessionServer(sock, store=tmp_path / "store", workers=0,
                           deadline_s=1e-6) as srv:
            srv.RUN_SLICE = 50
            with ServiceClient(sock, timeout=10.0) as cl:
                with _instrumented_session(cl, fib_elf) as s:
                    with pytest.raises(ServiceError) as ei:
                        s.run(deadline_ms=60_000)
                    assert ei.value.kind == "DeadlineExceeded"

    def test_deadline_path_is_bit_identical_when_in_time(
            self, tmp_path, fib_elf, reference):
        # the sliced executor is the same machine: a run that finishes
        # inside its deadline matches the fast path exactly
        sock = os.fspath(tmp_path / "dlok.sock")
        with SessionServer(sock, store=tmp_path / "store",
                           workers=0) as srv:
            srv.RUN_SLICE = 50  # force many slices
            with ServiceClient(sock, timeout=10.0) as cl:
                with _instrumented_session(cl, fib_elf) as s:
                    _check_result(s.run(deadline_ms=60_000), reference)

    def test_deadline_respects_client_step_bound(self, tmp_path,
                                                 fib_elf):
        sock = os.fspath(tmp_path / "dlms.sock")
        with SessionServer(sock, store=tmp_path / "store",
                           workers=0) as srv:
            srv.RUN_SLICE = 50
            with ServiceClient(sock, timeout=10.0) as cl:
                with _instrumented_session(cl, fib_elf) as s:
                    r = s.run(max_steps=10, deadline_ms=60_000)
                    assert r["reason"] == "STEPS_EXHAUSTED"


# -- fault sites in thread mode (satellite + tentpole chaos sites) ---------

class TestFaultSites:
    def test_commit_fault_is_retryable_and_retry_succeeds(
            self, server, fib_elf, reference):
        with ServiceClient(server.socket_path, timeout=5.0) as cl:
            with _instrumented_session(cl, fib_elf) as s:
                with active(FaultPlan(site="service.commit")):
                    with pytest.raises(ServiceError) as ei:
                        s.commit()
                    assert ei.value.kind == "InjectedFault"
                    assert ei.value.retryable
                    # commit is pure w.r.t. machines: the same session
                    # retries cleanly inside the armed scope (the plan
                    # is spent after one firing)
                    s.commit()
                    _check_result(s.run(), reference)

    def test_conn_drop_fault_tears_response(self, server, fib_elf,
                                            reference):
        with active(FaultPlan(site="service.conn.drop")):
            cl = ServiceClient(server.socket_path, timeout=5.0,
                               retries=0)
            with pytest.raises(ServiceError) as ei:
                cl.ping()
            assert ei.value.kind == "ConnectionLost"
            assert ei.value.retryable
        # the worker lives on; a fresh client is served
        with ServiceClient(server.socket_path, timeout=5.0) as cl:
            with _instrumented_session(cl, fib_elf) as s:
                _check_result(s.run(), reference)

    def test_worker_abort_fault_kills_connection_only(
            self, server, fib_elf, reference):
        with active(FaultPlan(site="service.worker.abort")):
            cl = ServiceClient(server.socket_path, timeout=5.0,
                               retries=0)
            with pytest.raises(ServiceError) as ei:
                cl.ping()
            assert ei.value.kind == "ConnectionLost"
        with ServiceClient(server.socket_path, timeout=5.0) as cl:
            assert cl.ping()["ok"] is True

    def test_plan_from_spec_grammar(self, tmp_path):
        p = plan_from_spec("service.commit")
        assert (p.site, p.occurrence, p.token) == ("service.commit",
                                                   0, None)
        p = plan_from_spec("service.conn.drop@3")
        assert (p.site, p.occurrence) == ("service.conn.drop", 3)
        tok = os.fspath(tmp_path / "tok")
        p = plan_from_spec(f"service.worker.abort@1:{tok}")
        assert (p.site, p.occurrence, p.token) == (
            "service.worker.abort", 1, tok)
        with pytest.raises(ValueError):
            plan_from_spec("@2")
        with pytest.raises(ValueError):
            plan_from_spec("site@notanumber")

    def test_token_makes_a_schedule_fire_once_per_fleet(self, tmp_path):
        from repro.faults import InjectedFault
        tok = os.fspath(tmp_path / "fleet.tok")
        first = FaultPlan(site="x", token=tok)
        with active(first), pytest.raises(InjectedFault):
            from repro import faults
            faults.site("x")
        assert os.path.exists(tok)
        # a second process arming the same spec stays quiet
        second = FaultPlan(site="x", token=tok)
        with active(second):
            from repro import faults
            faults.site("x")  # must not raise
        assert second.fired is not None  # spent without firing


# -- supervision, drain, and shutdown (forked workers) ---------------------

def _healthz(sock):
    with ServiceClient(sock, timeout=5.0, retries=4) as cl:
        return cl.healthz()


def _wait_for_fleet(sock, min_respawns, timeout=15.0):
    deadline = time.monotonic() + timeout
    last = {}
    while time.monotonic() < deadline:
        try:
            resp = _healthz(sock)
        except ServiceError:
            time.sleep(0.1)
            continue
        last = resp.get("supervisor") or {}
        workers = last.get("workers", [])
        if (last.get("respawns_total", 0) >= min_respawns and workers
                and all(w.get("alive") for w in workers)
                and resp.get("healthy")):
            return last
        time.sleep(0.1)
    raise AssertionError(f"fleet never recovered: {last!r}")


@pytest.mark.slow
class TestSupervision:
    def test_kill9_worker_is_respawned_and_capacity_returns(
            self, tmp_path, fib_elf, reference):
        sock = os.fspath(tmp_path / "sup.sock")
        with SessionServer(sock, store=tmp_path / "store",
                           workers=2) as srv:
            fleet = _wait_for_fleet(sock, min_respawns=0)
            victim = fleet["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            fleet = _wait_for_fleet(sock, min_respawns=1)
            assert fleet["respawns_total"] >= 1
            assert not any(w["pid"] == victim
                           for w in fleet["workers"])
            # the respawned fleet serves full sessions, bit-identical
            with ServiceClient(sock, timeout=10.0) as cl:
                with _instrumented_session(cl, fib_elf) as s:
                    _check_result(s.run(), reference)
        assert not os.path.exists(srv._sup_path)

    def test_supervisor_state_file_is_published(self, tmp_path):
        sock = os.fspath(tmp_path / "state.sock")
        with SessionServer(sock, store=tmp_path / "store",
                           workers=2) as srv:
            with open(srv._sup_path) as f:
                state = json.load(f)
            assert state["schema"] == "repro.service.supervisor/1"
            assert state["supervising"] is True
            assert len(state["workers"]) == 2
            resp = _healthz(sock)
            assert resp["healthy"] is True
            assert resp["supervisor"]["respawns_total"] == 0

    def test_graceful_drain_exits_clean_and_is_respawned(
            self, tmp_path):
        sock = os.fspath(tmp_path / "drain.sock")
        with SessionServer(sock, store=tmp_path / "store", workers=2,
                           drain_timeout=2.0) as srv:
            _wait_for_fleet(sock, min_respawns=0)
            victim = srv._slots[0]["proc"]
            os.kill(victim.pid, signal.SIGTERM)
            victim.join(timeout=5.0)
            assert victim.exitcode == 0  # drained, not killed
            _wait_for_fleet(sock, min_respawns=1)

    def test_sigterm_before_the_drain_handler_drains(self, tmp_path):
        """A SIGTERM that reaches a worker between the fork and the
        install of its drain handler waits, blocked, and then drains
        the worker: it does not kill it by the default action."""
        class SlowStart(SessionServer):
            def _worker_main(self, worker_id):
                time.sleep(1.0)  # the TERM lands in here
                super()._worker_main(worker_id)

        sock = os.fspath(tmp_path / "early.sock")
        srv = SlowStart(sock, store=tmp_path / "store", workers=1,
                        supervise=False, drain_timeout=1.0).start()
        try:
            victim = srv._slots[0]["proc"]
            os.kill(victim.pid, signal.SIGTERM)
            victim.join(timeout=10.0)
            assert victim.exitcode == 0  # drained, not killed
        finally:
            srv.close()


@pytest.mark.slow
class TestShutdown:
    def test_close_leaves_no_live_children(self, tmp_path):
        # satellite: the teardown escalates terminate -> kill and
        # re-joins, so no zombie workers survive close()
        sock = os.fspath(tmp_path / "down.sock")
        srv = SessionServer(sock, store=tmp_path / "store",
                            workers=2).start()
        procs = [s["proc"] for s in srv._slots]
        assert all(p.is_alive() for p in procs)
        srv.close()
        for p in procs:
            assert not p.is_alive()
            assert p.exitcode is not None  # reaped, not abandoned
        ours = [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-svc")]
        assert ours == []
        assert not os.path.exists(sock)
        assert not os.path.exists(srv._sup_path)

    def test_close_escalates_past_a_stuck_worker(self, tmp_path):
        # a SIGSTOPped worker ignores both drain requests; only the
        # SIGKILL escalation can reap it
        sock = os.fspath(tmp_path / "stuck.sock")
        srv = SessionServer(sock, store=tmp_path / "store", workers=2,
                            drain_timeout=0.3).start()
        stuck = srv._slots[0]["proc"]
        os.kill(stuck.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        srv.close()
        assert time.monotonic() - t0 < 30.0
        assert not stuck.is_alive()
        assert stuck.exitcode == -signal.SIGKILL

    def test_close_is_idempotent(self, tmp_path):
        sock = os.fspath(tmp_path / "twice.sock")
        srv = SessionServer(sock, store=tmp_path / "store",
                            workers=0).start()
        srv.close()
        srv.close()  # must not raise


class TestDrainRefusal:
    def test_draining_thread_server_refuses_new_connections(
            self, tmp_path):
        # workers=0: flip the drain flag directly and check the refuse
        # path — a typed, retryable ShuttingDown frame, then close
        sock = os.fspath(tmp_path / "refuse.sock")
        with SessionServer(sock, store=tmp_path / "store",
                           workers=0) as srv:
            srv._draining = True
            with pytest.raises(ServiceError) as ei:
                ServiceClient(sock, timeout=5.0, retries=0).ping()
            assert ei.value.kind == "ShuttingDown"
            assert ei.value.retryable
            srv._draining = False
            with ServiceClient(sock, timeout=5.0) as cl:
                assert cl.ping()["ok"] is True
