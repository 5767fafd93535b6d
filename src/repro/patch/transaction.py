"""Transactional instrumentation commit: journal, two-phase apply,
verified rollback.

Dyninst's central robustness promise (paper §3.3–3.4) is that
instrumentation never leaves the mutatee corrupted.  The dynamic commit
path writes springboards, trampolines, a data area and trap redirects
in several steps, any of which can fail — springboard exhaustion, an
undecodable relocation target, a memory fault, or (in tests) an
injected fault from :mod:`repro.faults`.  This module makes the whole
application atomic from the mutatee's point of view:

* **phase 1 (journal)** — before anything is written, a
  :class:`WriteAheadJournal` captures every memory page the commit will
  touch (springboard spans, the trampoline region, the data area),
  plus the trap-redirect map and the executable-range list.  Page
  records distinguish *existing* pages (content captured) from pages
  the commit will *create* (rollback unmaps them);
* **phase 2 (apply)** — the writes happen, each followed by an explicit
  trace-cache invalidation exactly as before;
* **rollback** — if any phase-2 step raises, every journaled page is
  restored bit-identically, created pages are unmapped, the trap map
  and exec-range list are reset, every touched span is invalidated
  again (compiled closures and traces never execute stale bytes), and
  the restore is **verified** by re-reading each page against the
  journal.  The original exception then propagates.

Removal rides the same journal, with one extra rule (the shared-
springboard blind spot): a span whose current bytes no longer match
this patch's springboard was overwritten by a *later* patch — restoring
our pre-patch bytes would orphan that survivor, so the span is skipped
(and counted under ``patch.remove.skipped_spans``).  Trap redirects are
only retired when they still point at our trampoline.

Telemetry: ``commit.journal_bytes``, ``commit.applies``,
``commit.rollbacks``, ``commit.removes``, ``patch.remove.skipped_spans``
(see docs/TELEMETRY.md).
"""

from __future__ import annotations

from .. import faults, telemetry
from ..errors import ReproError


class TransactionError(ReproError, RuntimeError):
    """The commit transaction could not guarantee consistency."""


class RollbackVerifyError(TransactionError):
    """Post-rollback verification found state differing from the
    journal — the one condition that may not pass silently."""


class WriteAheadJournal:
    """Page-granular undo log for one transaction on a live machine.

    The machine is duck-typed (anything exposing the simulator debug
    port plus ``mem.capture_pages``/``restore_pages``): the patch layer
    never imports the simulator.
    """

    def __init__(self, machine):
        self.machine = machine
        #: page index -> content at first capture (None = did not exist)
        self._pages: dict[int, bytes | None] = {}
        #: [lo, hi) spans the transaction may write
        self.spans: list[tuple[int, int]] = []
        self._traps = dict(machine.trap_redirects)
        self._exec = list(machine.exec_ranges)
        #: bytes of pre-image captured (the ``commit.journal_bytes``
        #: counter's contribution)
        self.journal_bytes = 0

    def will_touch(self, base: int, size: int) -> None:
        """Journal the current content of every page overlapping
        ``[base, base+size)`` before the transaction writes there."""
        faults.site("patch.txn.journal")
        if size <= 0:
            return
        self.spans.append((base, base + size))
        for idx, content in self.machine.mem.capture_pages(base, size):
            if idx not in self._pages:
                self._pages[idx] = content
                if content is not None:
                    self.journal_bytes += len(content)

    def rollback(self) -> None:
        """Restore everything journaled, bit-identically, and verify.

        Restores memory pages (recreating deleted ones, unmapping ones
        the transaction created), the trap-redirect map, and the
        exec-range list + write watch; then invalidates every touched
        span so no compiled closure or trace survives pointing at
        restored bytes; then re-reads each page against the journal.
        """
        m = self.machine
        m.mem.restore_pages(sorted(self._pages.items()))
        m.trap_redirects.clear()
        m.trap_redirects.update(self._traps)
        m.exec_ranges[:] = self._exec
        m.mem.set_write_watch(m.exec_ranges, m._code_written)
        for lo, hi in self.spans:
            m.invalidate_code_range(lo, hi - lo)
        self.verify()
        rec = telemetry.current()
        if rec.enabled:
            rec.count("commit.rollbacks")

    def verify(self) -> None:
        """Re-read every journaled page; raise
        :class:`RollbackVerifyError` on any divergence."""
        mem = self.machine.mem
        for idx, content in self._pages.items():
            current = mem.page_content(idx)
            if current != content:
                raise RollbackVerifyError(
                    f"rollback verification failed: page {idx:#x} "
                    f"differs from its journal record")


def apply_result(result, machine) -> None:
    """Two-phase commit of a built ``PatchResult`` onto *machine*.

    Either every springboard, the trampoline region, the data area and
    the trap redirects are installed, or — if any step raises — the
    machine is rolled back to its pre-call architectural state
    bit-identically and the exception propagates.
    """
    rec = telemetry.current()
    journal = WriteAheadJournal(machine)
    for lo, hi in result.patched_ranges:
        journal.will_touch(lo, hi - lo)
    if result.trampoline_code:
        journal.will_touch(result.trampoline_base,
                           len(result.trampoline_code))
    journal.will_touch(result.data_base, result.data_size)
    if rec.enabled:
        rec.count("commit.journal_bytes", journal.journal_bytes)
    try:
        faults.site("patch.txn.text")
        for lo, hi in result.patched_ranges:
            off = lo - result.text_base
            machine.write_mem(lo, result.text[off:off + (hi - lo)])
            machine.invalidate_code_range(lo, hi - lo)
        if result.trampoline_code:
            faults.site("patch.txn.trampoline")
            machine.add_exec_range(
                result.trampoline_base,
                result.trampoline_base + len(result.trampoline_code))
            machine.write_mem(result.trampoline_base,
                              result.trampoline_code)
            machine.invalidate_code_range(
                result.trampoline_base, len(result.trampoline_code))
        faults.site("patch.txn.data")
        machine.mem.map_region(result.data_base, result.data_size)
        faults.site("patch.txn.traps")
        machine.trap_redirects.update(result.trap_map)
    except BaseException:
        journal.rollback()
        raise
    if rec.enabled:
        rec.count("commit.applies")


def remove_result(result, machine) -> tuple[int, int]:
    """Transactionally remove a ``PatchResult`` from *machine*.

    Returns ``(restored, skipped)`` span counts.  Spans whose current
    bytes are not this patch's springboard anymore were overwritten by
    a later patch and are left alone (the shared-springboard rule);
    trap redirects are retired only where they still point at this
    patch's trampoline.  A failure mid-removal rolls the machine back
    to the fully instrumented state.
    """
    journal = WriteAheadJournal(machine)
    for lo, hi in result.patched_ranges:
        journal.will_touch(lo, hi - lo)
    restored = skipped = 0
    try:
        faults.site("patch.txn.restore")
        for lo, hi in result.patched_ranges:
            off = lo - result.text_base
            expected = result.text[off:off + (hi - lo)]
            if machine.read_mem(lo, hi - lo) != bytes(expected):
                skipped += 1
                continue
            machine.write_mem(
                lo, result.original_text[off:off + (hi - lo)])
            machine.invalidate_code_range(lo, hi - lo)
            restored += 1
        faults.site("patch.txn.untrap")
        for site_addr, target in result.trap_map.items():
            if machine.trap_redirects.get(site_addr) == target:
                machine.trap_redirects.pop(site_addr)
    except BaseException:
        journal.rollback()
        raise
    rec = telemetry.current()
    if rec.enabled:
        rec.count("commit.removes")
        if skipped:
            rec.count("patch.remove.skipped_spans", skipped)
    return restored, skipped


__all__ = [
    "RollbackVerifyError", "TransactionError", "WriteAheadJournal",
    "apply_result", "remove_result",
]
