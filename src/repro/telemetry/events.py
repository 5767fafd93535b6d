"""Mutatee execution events: the bounded ring-buffer ``EventStream``.

While :mod:`repro.telemetry.core` observes the *pipeline* (what the
toolkit did), this module carries what the *mutatee* did over time: the
simulator emits control-flow events — calls, returns, taken branches,
block entries, memory faults, patch-site hits — into attached
:class:`EventStream` observers, timestamped with the retired-instruction
count and the simulated micro-cycle clock.

Design rules (see docs/INTERNALS.md, "Execution event streams"):

* events are plain 5-tuples ``(kind, pc, target, instret, ucycles)``
  so the emitting hot loop allocates one tuple and performs one bound
  ``push`` call per event — no objects, no dict churn;
* the stream is a **bounded ring**: when full, the oldest event is
  overwritten and ``dropped`` is incremented (consumers that need full
  fidelity size the ring to the run, or drain it incrementally);
* this module is a telemetry *leaf*: it imports nothing from the
  toolkit, so any layer (including the simulator substrate) may emit
  into it.

The export schema identifier is :data:`EVENT_SCHEMA`
(``repro.telemetry.events/1``); the documented JSON shape lives in
docs/TELEMETRY.md.
"""

from __future__ import annotations

from typing import Iterator

#: JSON/event schema identifier (bump on incompatible change).
EVENT_SCHEMA = "repro.telemetry.events/1"

# -- event kinds (small ints: tuple slot 0) -------------------------------

#: jal/jalr that writes a link register: pc = call site, target = callee
CALL = 1
#: jalr x0 consuming a link register: pc = return site, target = return-to
RET = 2
#: other jal/jalr x0 (direct jump, tail call, indirect jump)
JUMP = 3
#: conditional branch that was taken (fall-throughs are not emitted)
BRANCH = 4
#: block entry: the pc a control-flow instruction (taken or not) or a
#: trap redirect leaves for, and the first pc run after an attach
BLOCK = 5
#: memory/architectural fault; pc = faulting pc
FAULT = 6
#: patch-site hit: a trap springboard redirected pc -> target
PATCH = 7

KIND_NAMES = {
    CALL: "call", RET: "return", JUMP: "jump", BRANCH: "branch-taken",
    BLOCK: "block-enter", FAULT: "memory-fault", PATCH: "patch-site-hit",
}

#: RISC-V psABI link registers (ra=x1, t0=x5) — the §3.2.3 convention
#: the emitter classifies jal/jalr against.  Kept here (not imported
#: from the instruction toolkit) so this module stays a leaf.
LINK_REGS = (1, 5)

#: default ring capacity (events, not bytes)
DEFAULT_CAPACITY = 1 << 20


class EventStream:
    """Bounded ring buffer of mutatee execution events.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are overwritten (and
        counted in :attr:`dropped`) once the ring is full.
    granularity:
        ``"instruction"`` (default) asks the machine for the full event
        vocabulary; the simulator keeps the run on its per-pc closure
        interpreter while such a stream is attached.  ``"block"`` asks
        only for block-enter events; the trace JIT stays engaged, its
        traces emitting them at the transfers they compile.  Either way
        the block-enter events are the same, whichever engine runs the
        code and however the run is sliced.
    """

    __slots__ = ("capacity", "granularity", "dropped", "_buf", "_next")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 granularity: str = "instruction"):
        if capacity <= 0:
            raise ValueError("EventStream capacity must be positive")
        if granularity not in ("instruction", "block"):
            raise ValueError(
                f"granularity must be 'instruction' or 'block', "
                f"not {granularity!r}")
        self.capacity = capacity
        self.granularity = granularity
        self.dropped = 0
        self._buf: list[tuple] = []
        self._next = 0  # overwrite cursor once the ring is full

    # -- producer side (the machine binds this method) -------------------

    def push(self, event: tuple) -> None:
        """Append one ``(kind, pc, target, instret, ucycles)`` tuple."""
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(event)
        else:
            buf[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    # -- consumer side ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[tuple]:
        """Events oldest -> newest."""
        buf = self._buf
        n = self._next
        if n:
            yield from buf[n:]
            yield from buf[:n]
        else:
            yield from buf

    def events(self) -> list[tuple]:
        """The retained events, oldest first, as a new list."""
        return list(self)

    def drain(self) -> list[tuple]:
        """Return the retained events and empty the ring (incremental
        consumption keeps long runs inside a small ring)."""
        out = list(self)
        self.clear()
        return out

    def clear(self) -> None:
        self._buf = []
        self._next = 0

    # -- export ----------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """Schema-shaped (``repro.telemetry.events/1``) event records."""
        return [
            {"kind": KIND_NAMES.get(k, str(k)), "pc": pc,
             "target": target, "instret": instret, "ucycles": ucycles}
            for k, pc, target, instret, ucycles in self
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventStream({len(self._buf)}/{self.capacity} events, "
                f"granularity={self.granularity!r}, "
                f"dropped={self.dropped})")
