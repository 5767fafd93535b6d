"""Scratch-register allocation for instrumentation (paper §4.3).

"When instrumentation needs registers, we attempt to use dead registers
(ones that do not contain values used later in the execution).  If such
registers are available, spilling the contents can be avoided."

:func:`allocate_scratch` asks liveness for dead registers at the
instrumentation point and tops up with spill-backed registers when not
enough are dead.  The returned plan tells the trampoline builder which
registers to save/restore.

``use_dead_registers=False`` reproduces the *legacy* behaviour (the
paper's pre-optimisation x86 engine): everything is spilled — the knob
behind the x86proxy column of the §4.3 table and the dead-register
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..dataflow.liveness import LivenessResult
from ..riscv.registers import Register, SCRATCH_CANDIDATES


@dataclass(frozen=True)
class ScratchPlan:
    """Registers the snippet may use, and which of them must be
    saved/restored by the trampoline."""

    regs: tuple[Register, ...]
    spilled: tuple[Register, ...]

    @property
    def n_dead(self) -> int:
        return len(self.regs) - len(self.spilled)

    @property
    def spill_bytes(self) -> int:
        return 8 * len(self.spilled)


class AllocationError(ReproError, RuntimeError):
    pass


def allocate_scratch(
    needed: int,
    liveness: LivenessResult | None = None,
    point: int | None = None,
    *,
    use_dead_registers: bool = True,
    candidates: tuple[Register, ...] = SCRATCH_CANDIDATES,
    extra_avoid: frozenset[Register] = frozenset(),
) -> ScratchPlan:
    """Build a scratch plan for *needed* registers at *point*.

    With liveness available and ``use_dead_registers``, dead registers
    are claimed first (zero save/restore cost); the remainder are
    spill-backed.  Without liveness (or with the optimisation off),
    every scratch register is spilled — correct but slower.
    """
    if needed <= 0:
        raise AllocationError("needed must be positive")
    pool = ([r for r in candidates if r not in extra_avoid] if extra_avoid
            else candidates)
    if needed > len(pool):
        raise AllocationError(
            f"requested {needed} scratch registers; only {len(pool)} "
            f"candidates exist")

    dead: list[Register] = []
    if use_dead_registers and liveness is not None and point is not None:
        dead = liveness.dead_before(point, tuple(pool))

    chosen: list[Register] = dead[:needed]
    spilled: list[Register] = []
    for r in pool:
        if len(chosen) >= needed:
            break
        if r not in chosen:
            chosen.append(r)
            spilled.append(r)
    return ScratchPlan(tuple(chosen), tuple(spilled))


@dataclass
class SpillArea:
    """Stack-based spill protocol for trampolines.

    RISC-V has no red zone, but the trampoline runs synchronously in
    the mutatee thread, so a classic push/pop below sp is safe:
    ``addi sp, sp, -N`` / saves / payload / restores / ``addi sp, sp, N``.
    """

    plan: ScratchPlan
    extra: tuple[Register, ...] = ()
    _slots: dict[Register, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        regs = list(self.plan.spilled) + [
            r for r in self.extra if r not in self.plan.spilled]
        for i, r in enumerate(regs):
            self._slots[r] = 8 * i

    @property
    def frame_bytes(self) -> int:
        n = 8 * len(self._slots)
        return (n + 15) & ~15  # keep sp 16-aligned per the psABI

    def save_instructions(self) -> list[tuple[str, dict[str, int]]]:
        if not self._slots:
            return []
        out = [("addi", {"rd": 2, "rs1": 2, "imm": -self.frame_bytes})]
        for reg, off in self._slots.items():
            mn = "sd" if reg.regclass.value == "int" else "fsd"
            out.append((mn, {"rs2": reg.number, "rs1": 2, "imm": off}))
        return out

    def restore_instructions(self) -> list[tuple[str, dict[str, int]]]:
        if not self._slots:
            return []
        out = []
        for reg, off in self._slots.items():
            mn = "ld" if reg.regclass.value == "int" else "fld"
            out.append((mn, {"rd": reg.number, "rs1": 2, "imm": off}))
        out.append(("addi", {"rd": 2, "rs1": 2, "imm": self.frame_bytes}))
        return out
