"""The concurrent session server.

One :class:`SessionServer` owns an ``AF_UNIX`` listening socket and a
pool of worker *processes* that all ``accept`` on it — the kernel
load-balances incoming connections, so sessions shard across workers
with no dispatcher process.  Each worker serves its connections with a
thread per connection and keeps an in-memory ``{artifact key ->
Analysis}`` cache: the first session for a binary revives (or computes
and stores) the analysis via the shared content-addressed store, and
every later session in that worker borrows the same frozen
:class:`~repro.api.analysis.Analysis` object.  Sessions landing on
*other* workers revive from the store — warm-path cost, never a
re-parse.

``workers=0`` serves in a daemon thread of the calling process — the
mode tests use (one address space, full introspection) — with the
identical protocol and dispatch code.

Observability plane (docs/SERVICE.md, "Monitoring the service"):

* every request gets a request id (``w<worker>-<seq>``, echoed as
  ``rid``) and may carry a client-propagated ``trace`` context that is
  echoed back and stamped onto logs and slow-request records;
* with a recorder active, each dispatch is timed into the pow2
  histogram ``service.op.<op>.us`` and requests slower than
  *slow_threshold_us* land in a bounded ring together with the delta
  of pipeline counters (``parse.*``/``liveness.*``/``patch.*``/
  ``sim.*``/``artifacts.*``) produced while serving them;
* with *metrics_dir* set (or ``REPRO_SERVICE_METRICS``), each worker
  enables its own recorder and periodically flushes its snapshot to
  ``worker-<pid>.json`` (atomic rename); the ``metrics`` op merges all
  live flush files into a fleet-wide snapshot + Prometheus exposition,
  and ``healthz`` reports per-worker liveness;
* ``REPRO_SERVICE_LOG`` (or ``log=``) emits one structured JSON line
  per request: timestamp, rid, trace, worker, pid, op, session,
  duration, error kind.

With none of that configured the dispatch path stays on the null
recorder — the zero-cost-when-unobserved rule the bench_guard floors
assume.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import multiprocessing
import os
import signal
import socket
import sys
import tempfile
import threading
import time

from .. import faults, telemetry
from ..api.analysis import Analysis, analyze
from ..api.bpatch import BinaryEdit
from ..api.options import InstrumentOptions
from ..artifacts import ArtifactStore, artifact_key, content_digest
from ..patch.points import PointType
from ..telemetry import aggregate
from .protocol import (
    PROTOCOL, DeadlineExceeded, Overloaded, ProtocolError, ShuttingDown,
    decode_bytes, encode_bytes, error_response, recv_message,
    send_message, snippet_from_spec,
)

#: environment variables configuring the observability plane
ENV_METRICS = "REPRO_SERVICE_METRICS"
ENV_LOG = "REPRO_SERVICE_LOG"
ENV_SLOW_US = "REPRO_SERVICE_SLOW_US"

#: environment variables configuring the resilience layer
ENV_IDLE_S = "REPRO_SERVICE_IDLE_S"
ENV_DEADLINE_S = "REPRO_SERVICE_DEADLINE_S"
#: chaos harness: a fault spec (``site[@occurrence][:token]``, see
#: :func:`repro.faults.plan_from_spec`) armed by every forked worker
ENV_FAULTS = "REPRO_SERVICE_FAULTS"

#: schema identifier for the supervisor's state file
SUP_SCHEMA = "repro.service.supervisor/1"


class _WorkerAbort(BaseException):
    """Chaos-injected worker death in thread-serving mode (workers=0),
    where ``os._exit`` would take the test process down: unwinds the
    connection thread without a response, like a crash would."""


def options_from_wire(data: dict | None) -> InstrumentOptions:
    """Rebuild an :class:`InstrumentOptions` from its wire dict,
    rejecting unknown fields loudly."""
    if not data:
        return InstrumentOptions()
    names = {f.name for f in dataclasses.fields(InstrumentOptions)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ProtocolError(
            f"unknown InstrumentOptions field(s): {', '.join(unknown)}")
    return InstrumentOptions(**data)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _Session:
    """Mutable per-session state: the BinaryEdit and its variables."""

    def __init__(self, edit: BinaryEdit):
        self.edit = edit
        self.variables = {}

    def resolve_points(self, req: dict):
        fn = req["function"]
        try:
            ptype = PointType[req.get("point", "FUNC_ENTRY")]
        except KeyError:
            raise ProtocolError(
                f"unknown point type {req.get('point')!r}") from None
        return self.edit.points(fn, ptype)


class SessionServer:
    """Serve BinaryEdit sessions over an ``AF_UNIX`` socket.

    Parameters
    ----------
    socket_path:
        Filesystem path to bind; unlinked on :meth:`close`.
    store:
        Shared :class:`~repro.artifacts.ArtifactStore` (or a path for
        one).  ``None`` uses the process default.
    workers:
        Worker processes to fork.  ``0`` serves from a daemon thread in
        this process (tests); ``N >= 1`` forks N accept-looping workers
        sharing the listener.
    metrics_dir:
        Run directory for per-worker snapshot flush files.  Setting it
        (or ``REPRO_SERVICE_METRICS``) arms the observability plane:
        each serving process installs a :class:`~repro.telemetry.core.
        Recorder` (if none is active) and flushes its snapshot every
        *flush_interval* seconds; the ``metrics``/``healthz`` ops
        aggregate the files.  ``None`` leaves telemetry untouched.
    flush_interval:
        Seconds between periodic worker snapshot flushes.
    slow_threshold_us:
        Requests slower than this land in the slow-request ring
        (default 10 000 µs, override with ``REPRO_SERVICE_SLOW_US``).
    log:
        Structured request-log target: a path to append JSON lines to,
        or ``"stderr"``/``"-"``/``"1"`` for stderr.  Defaults to
        ``REPRO_SERVICE_LOG``; ``None``/unset disables logging.
    supervise:
        With forked workers, run a supervisor loop in the parent that
        ``waitpid``-reaps crashed workers and respawns them with
        capped exponential backoff (default on).  Generation and
        respawn counts surface through ``healthz``.
    max_connections:
        Per-worker cap on concurrently served connections.  Excess
        connections are *shed*: they receive one ``Overloaded`` error
        frame (kind ``Overloaded``, ``retryable: true``, a
        ``retry_after`` hint) and are closed instead of spawning an
        unbounded thread.
    max_sessions:
        Per-worker cap on live sessions; ``open`` beyond it sheds the
        request the same way.
    idle_timeout:
        Seconds a connection may sit idle (including mid-frame — the
        slowloris case) before the worker drops it.  ``None``/unset
        disables (default; override with ``REPRO_SERVICE_IDLE_S``).
    deadline_s:
        Server-side wall-clock deadline for ``run`` requests.  The
        simulator executes in bounded slices and checks the clock
        between them; on expiry the machine is rolled back through the
        transactional journal (bit-identical restore — never a
        half-applied patch) and the client receives a retryable
        ``DeadlineExceeded`` error, the session still usable.
        ``None``/unset disables (default; override with
        ``REPRO_SERVICE_DEADLINE_S``).  Requests may carry their own
        ``deadline_ms``; the effective deadline is the minimum.
    drain_timeout:
        Seconds a SIGTERM'd worker (and :meth:`close`) waits for
        in-flight requests before escalating to a hard exit.
    """

    BACKLOG = 64

    #: simulator slice between deadline checks (bounded runs stay on
    #: the interpreter, so slicing is only engaged when a deadline is)
    RUN_SLICE = 200_000

    #: capped exponential respawn backoff: base * 2^consecutive,
    #: clamped to the max; consecutive resets after a healthy stretch
    BACKOFF_BASE = 0.05
    BACKOFF_MAX = 2.0
    BACKOFF_RESET_S = 5.0

    #: retry-after hint attached to shed responses (seconds)
    RETRY_AFTER = 0.1

    #: the complete op vocabulary; anything else counts once under
    #: ``service.op.unknown`` (bounded counter cardinality) and fails
    KNOWN_OPS = frozenset({
        "ping", "open", "points", "allocate", "insert", "commit",
        "run", "rewrite", "close", "stats", "metrics", "healthz",
    })

    #: ops that address an existing session
    SESSION_OPS = frozenset({
        "points", "allocate", "insert", "commit", "run", "rewrite",
        "close",
    })

    #: bounded slow-request ring capacity (per worker)
    SLOW_RING = 64

    def __init__(self, socket_path: str | os.PathLike,
                 store: ArtifactStore | str | os.PathLike | None = None,
                 workers: int = 0,
                 metrics_dir: str | os.PathLike | None = None,
                 flush_interval: float = 2.0,
                 slow_threshold_us: float | None = None,
                 log: str | os.PathLike | None = None,
                 supervise: bool = True,
                 max_connections: int = 64,
                 max_sessions: int = 128,
                 idle_timeout: float | None = None,
                 deadline_s: float | None = None,
                 drain_timeout: float = 5.0):
        self.socket_path = os.fspath(socket_path)
        if isinstance(store, ArtifactStore):
            self.store = store
        elif store is None:
            self.store = ArtifactStore.default()  # None without env
        else:
            self.store = ArtifactStore(store)
        self.workers = workers
        if metrics_dir is None:
            metrics_dir = os.environ.get(ENV_METRICS) or None
        self.metrics_dir = (os.fspath(metrics_dir)
                            if metrics_dir else None)
        self.flush_interval = flush_interval
        if slow_threshold_us is None:
            slow_threshold_us = float(
                os.environ.get(ENV_SLOW_US, 10_000.0))
        self.slow_threshold_us = slow_threshold_us
        if log is None:
            log = os.environ.get(ENV_LOG) or None
        self._log_target = os.fspath(log) if log is not None else None
        self._log_fh = None
        self._log_lock = threading.Lock()
        self.supervise = supervise
        self.max_connections = max_connections
        self.max_sessions = max_sessions
        if idle_timeout is None:
            env = os.environ.get(ENV_IDLE_S)
            idle_timeout = float(env) if env else None
        self.idle_timeout = idle_timeout
        if deadline_s is None:
            env = os.environ.get(ENV_DEADLINE_S)
            deadline_s = float(env) if env else None
        self.deadline_s = deadline_s
        self.drain_timeout = drain_timeout
        #: supervisor state file, written atomically by the parent and
        #: read by workers to answer ``healthz``
        self._sup_path = self.socket_path + ".sup.json"
        self._sup_lock = threading.Lock()
        self._sup_thread: threading.Thread | None = None
        self._slots: list[dict] = []
        self._respawns_total = 0
        self._sup_written = 0.0
        self._procs: list[multiprocessing.Process] = []
        self._thread: threading.Thread | None = None
        self._closed = False
        self._draining = False
        self._is_forked_worker = False
        # worker-local state (each forked worker gets its own copies)
        self._worker_id = 0
        self._analyses: dict[str, Analysis] = {}
        self._cache_lock = threading.Lock()
        self._session_seq = 0
        self._rid_seq = itertools.count(1)
        self._live_sessions = 0
        self._slow: collections.deque = collections.deque(
            maxlen=self.SLOW_RING)
        self._started_at = time.time()
        self._conn_lock = threading.Lock()
        self._conns: set = set()
        self._inflight = 0

        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._listener = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(self.BACKLOG)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SessionServer":
        if self.metrics_dir:
            self._clear_stale_flushes()
        if self.workers:
            for idx in range(self.workers):
                self._slots.append({
                    "slot": idx, "proc": None, "generation": 0,
                    "respawns": 0, "consecutive": 0,
                    "started_at": time.monotonic(),
                    "respawn_at": None, "last_exitcode": None,
                })
                self._spawn_slot(self._slots[idx])
            self._write_sup_state()
            if self.supervise:
                self._sup_thread = threading.Thread(
                    target=self._supervise, daemon=True,
                    name="repro-svc-supervisor")
                self._sup_thread.start()
        else:
            self._thread = threading.Thread(
                target=self._serve_forever, args=(0,), daemon=True,
                name="repro-svc")
            self._thread.start()
        return self

    def close(self) -> None:
        """Graceful, escalating shutdown: stop accepting, ask workers
        to drain in-flight work (SIGTERM), then escalate — a second
        SIGTERM forces exit, SIGKILL reaps anything still stuck — and
        re-join so no zombie children survive."""
        if self._closed:
            return
        self._closed = True  # stops the supervisor from respawning
        if self._sup_thread is not None:
            self._sup_thread.join(timeout=2)
        try:
            self._listener.close()
        except OSError:
            pass
        procs = [s["proc"] for s in self._slots if s["proc"] is not None]
        procs += [p for p in self._procs if p not in procs]
        for p in procs:          # round 1: drain request
            if p.is_alive():
                p.terminate()
        deadline = time.monotonic() + self.drain_timeout + 1.0
        for p in procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in procs:          # round 2: immediate-exit request
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(timeout=2)
        for p in procs:          # round 3: the kernel always wins
            if p.is_alive():
                p.kill()
        for p in procs:
            if p.is_alive():
                p.join(timeout=5)
        with self._log_lock:
            if self._log_fh is not None and self._log_fh is not sys.stderr:
                try:
                    self._log_fh.close()
                except OSError:
                    pass
            self._log_fh = None
        for path in (self.socket_path, self._sup_path):
            if os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- supervision -------------------------------------------------------

    def _spawn_slot(self, slot: dict) -> None:
        ctx = multiprocessing.get_context("fork")
        p = ctx.Process(
            target=self._worker_main, args=(slot["slot"],),
            daemon=True,
            name=f"repro-svc-{slot['slot']}.g{slot['generation']}")
        # the child inherits SIGTERM blocked and unblocks it once its
        # drain handler is installed: an early TERM drains, not kills
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            p.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        slot["proc"] = p
        slot["started_at"] = time.monotonic()
        self._procs.append(p)

    def _supervise(self) -> None:
        """Parent-side supervisor: reap dead workers, respawn with
        capped exponential backoff, publish fleet state."""
        while not self._closed:
            time.sleep(0.05)
            now = time.monotonic()
            changed = False
            with self._sup_lock:
                for slot in self._slots:
                    p = slot["proc"]
                    if self._closed or p is None or p.is_alive():
                        continue
                    if slot["respawn_at"] is None:
                        # first sighting of this death: reap, schedule
                        p.join(timeout=0)
                        slot["last_exitcode"] = p.exitcode
                        lived = now - slot["started_at"]
                        slot["consecutive"] = (
                            0 if lived >= self.BACKOFF_RESET_S
                            else slot["consecutive"] + 1)
                        delay = min(
                            self.BACKOFF_MAX,
                            self.BACKOFF_BASE *
                            (2 ** min(slot["consecutive"], 16)))
                        slot["respawn_at"] = now + delay
                        changed = True
                    elif now >= slot["respawn_at"]:
                        slot["respawn_at"] = None
                        slot["generation"] += 1
                        slot["respawns"] += 1
                        self._respawns_total += 1
                        self._spawn_slot(slot)
                        changed = True
            if changed or time.monotonic() - self._sup_written > 1.0:
                self._write_sup_state()

    def _write_sup_state(self) -> None:
        """Atomically publish the supervisor's fleet view (same
        mkstemp + ``os.replace`` discipline as the metric flushes), so
        any worker can answer ``healthz`` with respawn counts."""
        with self._sup_lock:
            state = {
                "schema": SUP_SCHEMA, "pid": os.getpid(),
                "ts": time.time(),
                "respawns_total": self._respawns_total,
                "supervising": bool(self.supervise and self.workers),
                "workers": [
                    {"slot": s["slot"],
                     "pid": s["proc"].pid if s["proc"] else None,
                     "generation": s["generation"],
                     "respawns": s["respawns"],
                     "alive": bool(s["proc"] and s["proc"].is_alive()),
                     "last_exitcode": s["last_exitcode"]}
                    for s in self._slots
                ],
            }
        blob = json.dumps(state).encode()
        d = os.path.dirname(self._sup_path) or "."
        try:
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".sup-",
                                       suffix=".json")
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, self._sup_path)
        except OSError:
            return  # disk hiccup: state is advisory, retry next round
        self._sup_written = time.monotonic()

    def _read_sup_state(self) -> dict | None:
        try:
            with open(self._sup_path, "rb") as f:
                data = json.loads(f.read())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("schema") != SUP_SCHEMA:
            return None
        return data

    def __enter__(self) -> "SessionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- worker side -------------------------------------------------------

    def _worker_main(self, worker_id: int) -> None:
        # SIGTERM asks the worker to *drain*: stop accepting, let
        # in-flight requests finish up to drain_timeout, then exit.  A
        # second SIGTERM (the parent's escalation) forces exit now.
        self._is_forked_worker = True
        # fresh post-fork state: caches must not alias the parent's
        self._analyses = {}
        self._cache_lock = threading.Lock()
        self._session_seq = 0
        self._rid_seq = itertools.count(1)
        self._live_sessions = 0
        self._slow = collections.deque(maxlen=self.SLOW_RING)
        self._log_fh = None
        self._log_lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self._conns = set()
        self._inflight = 0
        self._draining = False
        signal.signal(signal.SIGTERM, self._on_sigterm)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        # a TERM that arrived since the fork waited, blocked: drain now
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        spec = os.environ.get(ENV_FAULTS)
        if spec:  # chaos harness: arm this worker's injection plan
            try:
                faults.arm(faults.plan_from_spec(spec))
            except ValueError:
                pass
        self._serve_forever(worker_id)
        if self._draining:
            self._drain_and_exit()

    def _on_sigterm(self, signum, frame) -> None:
        if self._draining:
            os._exit(0)  # escalation: second TERM means *now*
        self._draining = True
        try:
            # unblocks the accept loop; in-flight threads keep going
            self._listener.close()
        except OSError:
            pass

    def _drain_and_exit(self) -> None:
        """Serve out in-flight requests, then leave.  Idle connections
        are closed as soon as nothing is mid-request; anything still
        running at the timeout is abandoned (hard exit) — the client
        sees a dropped connection, which is retryable."""
        telemetry.current().gauge("service.draining", 1)
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            with self._conn_lock:
                inflight = self._inflight
                conns = list(self._conns)
            if inflight == 0:
                for c in conns:
                    try:
                        c.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                break
            time.sleep(0.02)
        if self.metrics_dir:
            try:
                self._flush_snapshot()
            except Exception:  # noqa: BLE001 — exiting anyway
                pass
        os._exit(0)

    def _serve_forever(self, worker_id: int) -> None:
        self._worker_id = worker_id
        self._observability_init()
        while True:
            try:
                conn, _ = self._listener.accept()
            except (OSError, ValueError):
                return  # listener closed: shutdown or drain
            if self._draining:
                self._refuse(conn, ShuttingDown(
                    "worker is draining for shutdown; reconnect"))
                continue
            with self._conn_lock:
                live = len(self._conns)
                if live < self.max_connections:
                    self._conns.add(conn)
            if live >= self.max_connections:
                telemetry.current().count("service.shed.connections")
                self._refuse(conn, Overloaded(
                    f"worker at its {self.max_connections}-connection "
                    f"cap", retry_after=self.RETRY_AFTER))
                continue
            t = threading.Thread(
                target=self._serve_connection, args=(conn, worker_id),
                daemon=True)
            t.start()

    def _refuse(self, conn: socket.socket, exc: Exception) -> None:
        """Shed a connection: one typed, retryable error frame, then
        close.  Runs in a short-lived thread (time-bounded, no session
        state) so a slow peer cannot stall the accept loop."""
        resp = error_response(exc)
        resp["rid"] = f"w{self._worker_id}-shed"
        threading.Thread(target=self._refuse_io, args=(conn, resp),
                         daemon=True).start()

    @staticmethod
    def _refuse_io(conn: socket.socket, resp: dict) -> None:
        try:
            conn.settimeout(1.0)
            send_message(conn, resp)
            conn.shutdown(socket.SHUT_WR)
            # drain what the peer already sent: closing with unread
            # bytes would reset the connection and destroy the error
            # frame before the client reads it
            while conn.recv(65536):
                pass
        except (TimeoutError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket,
                          worker_id: int) -> None:
        sessions: dict[str, _Session] = {}
        rec = telemetry.current()
        if self.idle_timeout is not None:
            conn.settimeout(self.idle_timeout)
        try:
            while True:
                try:
                    req = recv_message(conn)
                except TimeoutError:
                    # idle peer or slowloris mid-frame: reclaim the
                    # thread; the peer can reconnect
                    rec.count("service.conn.idle_timeouts")
                    return
                except ProtocolError:
                    # unframeable peer: drop the connection, the
                    # worker (and its other connections) live on
                    rec.count("service.conn.protocol_drops")
                    return
                except OSError:
                    return  # peer reset mid-frame
                if req is None:
                    return
                resp = self._handle(req, sessions, worker_id)
                if faults.pressure("service.conn.drop"):
                    # chaos: die mid-frame — a torn response, then EOF
                    try:
                        conn.sendall(b"\x00\x00")
                    except OSError:
                        pass
                    return
                try:
                    send_message(conn, resp)
                except (TimeoutError, OSError):
                    return
        except _WorkerAbort:
            return  # chaos: simulated worker crash (thread mode)
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            conn.close()
            if sessions:  # connection died with sessions still open
                self._session_closed(len(sessions))

    # -- observability plane ----------------------------------------------

    def _observability_init(self) -> None:
        """Arm per-worker metrics: install a recorder (unless one is
        already active), publish a first flush so ``healthz`` sees the
        worker immediately, and start the periodic flusher."""
        if not self.metrics_dir:
            return
        os.makedirs(self.metrics_dir, exist_ok=True)
        if not telemetry.active():
            telemetry.enable(telemetry.Recorder())
        self._flush_snapshot()
        threading.Thread(target=self._flush_loop, daemon=True,
                         name=f"repro-svc-flush-{self._worker_id}"
                         ).start()

    def _flush_loop(self) -> None:
        while not self._closed:
            time.sleep(self.flush_interval)
            try:
                self._flush_snapshot()
            except OSError:
                pass  # disk hiccup: retry next round

    def _flush_snapshot(self) -> None:
        if not self.metrics_dir:
            return
        rec = telemetry.current()
        sup = self._read_sup_state()
        if sup is not None and sup.get("supervising"):
            rec.gauge("service.workers.respawns",
                      sup.get("respawns_total", 0))
            rec.gauge("service.workers.alive", sum(
                1 for w in sup.get("workers", []) if w.get("alive")))
        aggregate.write_worker_snapshot(
            self.metrics_dir, worker_id=self._worker_id,
            snapshot=rec.snapshot(), sessions=self._live_sessions,
            slow=list(self._slow))
        rec.count("service.flushes")
        rec.gauge("service.flush.last_ts", time.time())

    def _clear_stale_flushes(self) -> None:
        """Drop flush files left by a previous run sharing this
        metrics dir, so aggregation only ever sees this run's fleet."""
        root = self.metrics_dir
        try:
            names = os.listdir(root)
        except OSError:
            return
        for name in names:
            if name.startswith(aggregate.FLUSH_PREFIX) and \
                    name.endswith(".json"):
                try:
                    os.unlink(os.path.join(root, name))
                except OSError:
                    pass

    def _session_opened(self) -> None:
        with self._cache_lock:
            self._live_sessions += 1
            live = self._live_sessions
        telemetry.current().gauge("service.sessions.live", live)

    def _session_closed(self, n: int = 1) -> None:
        with self._cache_lock:
            self._live_sessions = max(0, self._live_sessions - n)
            live = self._live_sessions
        telemetry.current().gauge("service.sessions.live", live)

    def _log_line(self, entry: dict) -> None:
        target = self._log_target
        if target is None:
            return
        try:
            with self._log_lock:
                if self._log_fh is None:
                    if target in ("1", "-", "stderr"):
                        self._log_fh = sys.stderr
                    else:
                        self._log_fh = open(target, "a", buffering=1)
                self._log_fh.write(
                    json.dumps(entry, separators=(",", ":")) + "\n")
        except OSError:
            pass  # logging must never take a request down

    # -- request dispatch --------------------------------------------------

    def _handle(self, req: dict, sessions: dict[str, _Session],
                worker_id: int) -> dict:
        """Tracing wrapper around :meth:`_dispatch`: request id, op
        validation, per-op latency histogram, slow-request ring, and
        the structured request log."""
        op = req.get("op")
        known = op in self.KNOWN_OPS
        opname = op if known else "unknown"
        rid = f"w{worker_id}-{next(self._rid_seq)}"
        trace = req.get("trace")
        rec = telemetry.current()
        observed = rec.enabled
        logging = self._log_target is not None
        rec.count(f"service.op.{opname}")
        t0 = time.perf_counter() if (observed or logging) else 0.0
        before = rec.counters() if observed else None
        err_kind = None
        with self._conn_lock:
            self._inflight += 1
        try:
            if faults.pressure("service.worker.abort"):
                # chaos: the worker dies mid-request.  Forked workers
                # really exit (the supervisor's problem); the
                # in-thread test mode only kills the connection.
                if self._is_forked_worker:
                    os._exit(86)
                raise _WorkerAbort()
            if not known:
                raise ProtocolError(f"unknown op {op!r}")
            resp = self._dispatch(op, req, sessions, worker_id)
        except Exception as exc:  # noqa: BLE001 — wire boundary
            err_kind = type(exc).__name__
            resp = error_response(exc)
        finally:
            with self._conn_lock:
                self._inflight -= 1
        resp["rid"] = rid
        if trace is not None:
            resp["trace"] = trace
        if observed or logging:
            dt_us = (time.perf_counter() - t0) * 1e6
            if observed:
                rec.observe(f"service.op.{opname}.us", dt_us)
                rec.count("service.requests")
                if err_kind:
                    rec.count("service.errors")
                if dt_us >= self.slow_threshold_us:
                    after = rec.counters()
                    delta = {
                        name: value - before.get(name, 0)
                        for name, value in after.items()
                        if value != before.get(name, 0)
                        and not name.startswith("service.")
                    }
                    self._slow.append({
                        "rid": rid, "trace": trace, "op": opname,
                        "session": req.get("session"),
                        "duration_us": round(dt_us, 1),
                        "error": err_kind,
                        "counters_delta": delta,
                    })
            if logging:
                self._log_line({
                    "ts": round(time.time(), 6), "rid": rid,
                    "trace": trace, "worker": worker_id,
                    "pid": os.getpid(), "op": opname,
                    "session": req.get("session"),
                    "duration_us": round(dt_us, 1),
                    "ok": err_kind is None, "error": err_kind,
                })
        return resp

    def _dispatch(self, op: str, req: dict,
                  sessions: dict[str, _Session],
                  worker_id: int) -> dict:
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL,
                    "pid": os.getpid(), "worker": worker_id}
        if op == "open":
            return self._op_open(req, sessions)
        if op == "stats":
            return self._op_stats(sessions, worker_id)
        if op == "metrics":
            return self._op_metrics(worker_id)
        if op == "healthz":
            return self._op_healthz(worker_id)
        # every remaining op addresses a session
        session = sessions.get(req.get("session"))
        if session is None:
            raise ProtocolError(
                f"unknown session {req.get('session')!r}")
        if op == "points":
            pts = session.resolve_points(req)
            return {"ok": True, "addresses": [p.address for p in pts]}
        if op == "allocate":
            var = session.edit.allocate_variable(
                req["name"], int(req.get("size", 8)))
            session.variables[req["name"]] = var
            return {"ok": True, "address": var.address}
        if op == "insert":
            pts = session.resolve_points(req)
            snip = snippet_from_spec(req["snippet"], session.variables)
            session.edit.insert(pts, snip)
            return {"ok": True, "points": len(pts)}
        if op == "commit":
            # chaos site: a handler exception mid-commit.  commit() is
            # pure w.r.t. any machine (mutation happens only in the
            # journaled apply), so the session survives and the retry
            # succeeds.
            faults.site("service.commit")
            session.edit.commit()
            return {"ok": True}
        if op == "run":
            return self._op_run(req, session)
        if op == "rewrite":
            blob = session.edit.rewrite()
            return {"ok": True, "elf": encode_bytes(blob)}
        # op == "close"
        session.edit.close()
        del sessions[req["session"]]
        self._session_closed()
        return {"ok": True}

    def _op_stats(self, sessions: dict[str, _Session],
                  worker_id: int) -> dict:
        """Per-accepting-worker statistics.  Deliberately *not* the
        fleet view — this reports only the worker this connection
        landed on (see the ``metrics`` op for cross-worker numbers) —
        but honest about it: it now says so and carries the worker's
        own live telemetry snapshot."""
        return {"ok": True, "pid": os.getpid(),
                "worker": worker_id,
                "scope": "worker",
                "sessions": len(sessions),
                "worker_sessions": self._live_sessions,
                "analyses": sorted(self._analyses),
                "store": (str(self.store.root)
                          if self.store else None),
                "telemetry": telemetry.current().snapshot()}

    def _op_metrics(self, worker_id: int) -> dict:
        """Fleet-wide aggregation: flush this worker's snapshot, read
        every live flush file, and merge (counters summed, histograms
        bucket-wise, gauges last-write)."""
        if self.metrics_dir:
            self._flush_snapshot()
            records = aggregate.read_worker_snapshots(self.metrics_dir)
        else:
            # no run directory: the accepting worker is the fleet
            records = [{
                "pid": os.getpid(), "worker": worker_id,
                "ts": time.time(), "sessions": self._live_sessions,
                "slow": list(self._slow),
                "snapshot": telemetry.current().snapshot(),
            }]
        merged = aggregate.merge_snapshots(
            [r["snapshot"] for r in records])
        slow = sorted(
            (entry for r in records for entry in r.get("slow", [])),
            key=lambda e: e.get("duration_us", 0), reverse=True,
        )[: self.SLOW_RING]
        return {"ok": True, "pid": os.getpid(), "worker": worker_id,
                "merged": merged,
                "workers": [
                    {"pid": r["pid"], "worker": r.get("worker"),
                     "ts": r.get("ts"),
                     "sessions": r.get("sessions", 0),
                     "snapshot": r["snapshot"]}
                    for r in records
                ],
                "slow": slow,
                "exposition": aggregate.to_prometheus(merged)}

    def _op_healthz(self, worker_id: int) -> dict:
        """Worker liveness: every flush file's age and whether its pid
        still exists, plus the supervisor's fleet view (generations,
        respawn counts, backoff state).  Without a metrics dir,
        reports just the accepting worker (trivially alive)."""
        now = time.time()
        workers = []
        if self.metrics_dir:
            for r in aggregate.read_worker_snapshots(self.metrics_dir):
                workers.append({
                    "pid": r["pid"], "worker": r.get("worker"),
                    "sessions": r.get("sessions", 0),
                    "age_s": round(max(0.0, now - r.get("ts", now)), 3),
                    "alive": _pid_alive(r["pid"]),
                })
        else:
            workers.append({"pid": os.getpid(), "worker": worker_id,
                            "sessions": self._live_sessions,
                            "age_s": 0.0, "alive": True})
        sup = self._read_sup_state()
        if sup is not None and sup.get("supervising"):
            # the supervisor's view is authoritative: flush files from
            # crashed-and-replaced generations linger (their counters
            # still count), but capacity health is the live fleet
            healthy = bool(sup["workers"]) and all(
                w["alive"] for w in sup["workers"])
        else:
            healthy = bool(workers) and all(
                w["alive"] for w in workers)
        resp = {"ok": True, "pid": os.getpid(), "worker": worker_id,
                "healthy": healthy,
                "uptime_s": round(now - self._started_at, 3),
                "workers": workers}
        if sup is not None:
            resp["supervisor"] = {
                "respawns_total": sup.get("respawns_total", 0),
                "supervising": sup.get("supervising", False),
                "ts": sup.get("ts"),
                "workers": sup.get("workers", []),
            }
        return resp

    def _op_open(self, req: dict,
                 sessions: dict[str, _Session]) -> dict:
        with self._cache_lock:
            live = self._live_sessions
        if live >= self.max_sessions:
            telemetry.current().count("service.shed.sessions")
            raise Overloaded(
                f"worker at its {self.max_sessions}-session cap "
                f"({live} live)", retry_after=self.RETRY_AFTER)
        if "elf" in req:
            data = decode_bytes(req["elf"])
            path = req.get("path")
        elif "path" in req:
            path = req["path"]
            with open(path, "rb") as fh:
                data = fh.read()
        else:
            raise ProtocolError("open needs 'elf' (base64) or 'path'")
        opts = options_from_wire(req.get("options"))
        key = artifact_key(content_digest(data), opts.analysis_fields())
        with self._cache_lock:
            analysis = self._analyses.get(key)
        if analysis is None:
            analysis = analyze(
                data, opts,
                store=self.store if self.store is not None else False)
            with self._cache_lock:
                analysis = self._analyses.setdefault(key, analysis)
            telemetry.current().count("service.analyses")
        source = path if path else "<bytes>"
        with self._cache_lock:
            self._session_seq += 1
            sid = f"s{self._session_seq}"
        sessions[sid] = _Session(BinaryEdit(analysis, opts))
        telemetry.current().count("service.sessions")
        self._session_opened()
        return {"ok": True, "session": sid, "key": analysis.key,
                "revived": analysis.revived, "source": source,
                "functions": sorted(
                    f.name for f in analysis.cfg.functions.values()
                    if f.name)}

    def _effective_deadline(self, req: dict) -> float | None:
        """Server default clamped by the request's own ``deadline_ms``
        (a client may only tighten, never extend past the server's)."""
        deadline = self.deadline_s
        asked = req.get("deadline_ms")
        if isinstance(asked, (int, float)) and asked > 0:
            asked_s = float(asked) / 1000.0
            deadline = (asked_s if deadline is None
                        else min(deadline, asked_s))
        return deadline

    def _op_run(self, req: dict, session: _Session) -> dict:
        deadline_s = self._effective_deadline(req)
        if deadline_s is None:
            machine, event = session.edit.run_instrumented(
                max_steps=req.get("max_steps"))
        else:
            machine, event = self._run_with_deadline(
                session.edit, req.get("max_steps"), deadline_s)
        values = {name: session.edit.read_variable(machine, var)
                  for name, var in session.variables.items()}
        reads = {}
        for name in req.get("read", []):
            var = session.variables.get(name)
            if var is None:
                raise ProtocolError(f"unknown variable {name!r}")
            reads[name] = session.edit.read_variable(machine, var)
        return {"ok": True, "reason": event.reason.name,
                "pc": event.pc, "x": list(machine.x),
                "variables": values, "read": reads}

    def _run_with_deadline(self, edit: BinaryEdit,
                           max_steps: int | None, deadline_s: float):
        """Commit, load, and run in bounded slices, checking the wall
        clock between them.  On expiry the applied instrumentation is
        removed through the write-ahead journal (verified bit-identical
        restore — never a half-applied patch), the slice machine is
        discarded, and a retryable :class:`DeadlineExceeded` goes back
        to the client; the session itself stays fully usable."""
        from ..sim.machine import Machine, StopReason
        from ..sim.timing import P550
        m = Machine(P550)
        edit.symtab.load_into(m)
        result = None
        if edit._patcher._requests or edit._result is not None:
            result = edit.commit()
            result.apply_to_machine(m)
        deadline = time.monotonic() + deadline_s
        remaining = max_steps
        while True:
            slice_n = (self.RUN_SLICE if remaining is None
                       else min(self.RUN_SLICE, remaining))
            event = m.run(slice_n)
            if event.reason is not StopReason.STEPS_EXHAUSTED:
                return m, event
            if remaining is not None:
                remaining -= slice_n
                if remaining <= 0:
                    return m, event  # the client's own step bound
            if time.monotonic() >= deadline:
                telemetry.current().count("service.deadline.exceeded")
                if result is not None:
                    # PR 4's transactional journal: verified rollback
                    result.remove_from_machine(m)
                raise DeadlineExceeded(
                    f"run exceeded its {deadline_s:.3f}s deadline at "
                    f"pc=0x{m.pc:x} after {m.instret} instructions; "
                    "instrumentation rolled back, session still "
                    "usable — retry, raise the deadline, or bound the "
                    "run with max_steps")


__all__ = ["SessionServer", "options_from_wire"]
