"""The v2 BPatch session API: InstrumentOptions, the ReproError
hierarchy, batch commits and session lifetime."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    AlreadyCommittedError, ApiError, ClosedEditError,
    DEFAULT_OPTIONS, InstrumentOptions, ReproError, open_binary,
)
from repro.codegen.snippets import IncrementVar
from repro.minicc import compile_source
from repro.minicc.workloads import fib_source
from repro.patch.points import PointType
from repro.sim.machine import StopReason


@pytest.fixture(scope="module")
def fib_prog():
    return compile_source(fib_source(8))


class TestInstrumentOptions:
    def test_defaults(self):
        o = InstrumentOptions()
        assert o.gap_parsing is True
        assert o.use_dead_registers is True
        assert o.patch_base is None
        assert o.interprocedural_liveness is False
        assert o == DEFAULT_OPTIONS

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            InstrumentOptions().gap_parsing = False

    def test_replace_derives_variant(self):
        o = InstrumentOptions().replace(use_dead_registers=False)
        assert o.use_dead_registers is False
        assert o.gap_parsing is True
        assert DEFAULT_OPTIONS.use_dead_registers is True

    def test_options_reach_the_patcher(self, fib_prog):
        edit = open_binary(
            fib_prog, InstrumentOptions(use_dead_registers=False,
                                        patch_base=0x4000_0000))
        assert edit.options.patch_base == 0x4000_0000
        assert edit._patcher.use_dead_registers is False
        assert edit._patcher.data_base == 0x4000_0000

    def test_gap_parsing_off(self, fib_prog):
        edit = open_binary(fib_prog,
                           InstrumentOptions(gap_parsing=False))
        assert edit.functions()  # symbol-driven parse still works


class TestLegacyKwargRemoval:
    """The v1 boolean keywords are gone; the options form is the only
    spelling and emits no warning."""

    def test_new_form_does_not_warn(self, fib_prog, recwarn):
        open_binary(fib_prog, InstrumentOptions(gap_parsing=False))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestErrorHierarchy:
    def test_api_error_is_repro_and_runtime_error(self):
        assert issubclass(ApiError, ReproError)
        assert issubclass(ApiError, RuntimeError)
        assert issubclass(AlreadyCommittedError, ApiError)
        assert issubclass(ClosedEditError, ApiError)

    def test_layer_errors_share_the_base(self):
        from repro.elf.structs import ElfFormatError
        from repro.patch.patcher import PatchError
        from repro.patch.points import PointError
        from repro.patch.springboard import SpringboardError
        from repro.proccontrol.process import ProcControlError
        from repro.riscv.decoder import DecodeError
        from repro.sim.executor import SimFault
        from repro.sim.memory import MemoryFault

        for cls in (ElfFormatError, PatchError, PointError,
                    SpringboardError, ProcControlError, DecodeError,
                    SimFault, MemoryFault):
            assert issubclass(cls, ReproError), cls

    def test_legacy_catch_clauses_still_match(self):
        from repro.elf.structs import ElfFormatError
        from repro.patch.patcher import PatchError

        assert issubclass(ElfFormatError, ValueError)
        assert issubclass(PatchError, RuntimeError)

    def test_user_mistakes_raise_repro_error(self, fib_prog):
        with pytest.raises(ReproError):
            open_binary(12345)  # not bytes/Program/Symtab
        edit = open_binary(fib_prog)
        with pytest.raises(ReproError):
            edit.function("no_such_function")

    def test_one_catch_covers_the_stack(self, fib_prog):
        """The motivating case: one except clause for any layer."""
        caught = []
        for bad_call in (
            lambda: open_binary(b"not an elf"),
            lambda: open_binary(object()),
            lambda: open_binary(fib_prog).function("missing"),
        ):
            try:
                bad_call()
            except ReproError as e:
                caught.append(type(e).__name__)
        assert len(caught) == 3


class TestBatch:
    def _instrument(self, b):
        c = b.allocate_variable("c")
        b.insert(b.points("fib", PointType.FUNC_ENTRY), IncrementVar(c))
        return c

    def test_batch_commits_once_on_exit(self, fib_prog):
        edit = open_binary(fib_prog)
        with edit.batch() as b:
            c = self._instrument(b)
            assert edit._result is None  # queued, not yet committed
        assert edit._result is not None
        m, ev = edit.run_instrumented()
        assert ev.reason is StopReason.EXITED
        assert edit.read_variable(m, c) == 67

    def test_batch_aborts_on_exception(self, fib_prog):
        edit = open_binary(fib_prog)
        with pytest.raises(KeyError):
            with edit.batch() as b:
                self._instrument(b)
                raise KeyError("user bug")
        assert edit._result is None  # nothing committed

    def test_batch_does_not_nest(self, fib_prog):
        edit = open_binary(fib_prog)
        with pytest.raises(ApiError, match="nest"):
            with edit.batch():
                with edit.batch():
                    pass

    def test_use_after_commit_is_a_clear_error(self, fib_prog):
        edit = open_binary(fib_prog)
        self._instrument(edit)
        edit.commit()
        with pytest.raises(AlreadyCommittedError, match="committed"):
            edit.insert(edit.points("fib", PointType.FUNC_ENTRY),
                        IncrementVar(edit.allocate_variable("d")))
        with pytest.raises(AlreadyCommittedError):
            edit.replace_function("fib", "fib")
        with pytest.raises(AlreadyCommittedError):
            with edit.batch():
                pass

    def test_commit_stays_idempotent(self, fib_prog):
        edit = open_binary(fib_prog)
        self._instrument(edit)
        assert edit.commit() is edit.commit()


class TestSessionLifecycle:
    def test_context_manager_flow(self, fib_prog):
        with open_binary(fib_prog) as edit:
            c = edit.allocate_variable("c")
            edit.insert(edit.points("fib", PointType.FUNC_ENTRY),
                        IncrementVar(c))
            m, ev = edit.run_instrumented()
            assert ev.reason is StopReason.EXITED
        assert edit.closed

    def test_closed_edit_rejects_instrumentation(self, fib_prog):
        with open_binary(fib_prog) as edit:
            pass
        with pytest.raises(ClosedEditError):
            edit.insert(edit.points("fib", PointType.FUNC_ENTRY),
                        IncrementVar(edit.allocate_variable("c")))

    def test_closed_edit_keeps_analysis_readable(self, fib_prog):
        with open_binary(fib_prog) as edit:
            pass
        assert edit.function("fib").name == "fib"
        assert edit.functions()

    def test_reenter_after_close_rejected(self, fib_prog):
        edit = open_binary(fib_prog)
        edit.close()
        with pytest.raises(ClosedEditError):
            with edit:
                pass

    def test_close_is_idempotent(self, fib_prog):
        edit = open_binary(fib_prog)
        edit.close()
        edit.close()
        assert edit.closed
