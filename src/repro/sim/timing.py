"""Deterministic timing models for the simulated machines.

The paper's benchmarks (§4) run on a 1.4 GHz SiFive P550 (RISC-V) and an
Intel i5-14600T (x86-64).  We cannot run on either, so the simulator
charges per-instruction cycle costs from a :class:`TimingModel` and
exposes simulated wall-clock time through ``clock_gettime`` — making the
overhead ratios the benchmark harness reports deterministic and
noise-free (see DESIGN.md, substitutions table).

Two calibrated profiles:

* ``P550`` — in-order core at 1.4 GHz: unit-cost ALU, multi-cycle
  loads/mul/div, modest branch cost.
* ``X86PROXY`` — stands in for the i5-14600T running the *legacy* x86
  Dyninst: a wide out-of-order core modelled as a fractional
  cycles-per-instruction scale at a higher clock.  The instrumentation
  engine pairs this profile with spill-always trampolines (no
  dead-register optimisation), per §4.3's explanation of the x86 numbers.

Costs are charged per dynamic instruction; fractional costs accumulate
exactly using integer micro-cycles (1 cycle = 64 ucycles) so runs are
reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: micro-cycles per cycle (power of two for exact arithmetic)
UCYCLE = 64


@dataclass(frozen=True)
class TimingModel:
    """Per-instruction-category cycle costs plus a clock frequency."""

    name: str
    frequency_hz: float
    #: category -> cycles (may be fractional; converted to ucycles)
    costs: dict[str, float] = field(default_factory=dict)
    default_cost: float = 1.0

    def ucycles(self, category: str) -> int:
        """Integer micro-cycle cost for an instruction category."""
        return max(1, round(self.costs.get(category, self.default_cost) * UCYCLE))

    def seconds(self, ucycles: int) -> float:
        """Convert an accumulated micro-cycle count to simulated seconds."""
        return ucycles / UCYCLE / self.frequency_hz

    def nanoseconds(self, ucycles: int) -> int:
        return round(ucycles / UCYCLE / self.frequency_hz * 1e9)


#: Instruction categories used by the cost tables.  The executor assigns
#: one to every decoded instruction.
CATEGORIES = (
    "alu", "mul", "div", "load", "store", "branch", "jump", "jump_reg",
    "amo", "fp_arith", "fp_mul", "fp_div", "fp_load", "fp_store",
    "fp_move", "csr", "system", "fence",
)


def category_of(mnemonic: str, opcode: int) -> str:
    """Map a decoded instruction to a timing category."""
    if opcode == 0x03:
        return "load"
    if opcode == 0x23:
        return "store"
    if opcode == 0x07:
        return "fp_load"
    if opcode == 0x27:
        return "fp_store"
    if opcode == 0x63:
        return "branch"
    if opcode == 0x6F:
        return "jump"
    if opcode == 0x67:
        return "jump_reg"
    if opcode == 0x2F:
        return "amo"
    if opcode == 0x0F:
        return "fence"
    if opcode == 0x73:
        return "csr" if mnemonic.startswith("csr") else "system"
    if mnemonic.startswith(("mul",)):
        return "mul"
    if mnemonic.startswith(("div", "rem")):
        return "div"
    if opcode in (0x43, 0x47, 0x4B, 0x4F):
        return "fp_mul"  # FMA pipelines with the multiplier
    if opcode == 0x53:
        if mnemonic.startswith(("fdiv", "fsqrt")):
            return "fp_div"
        if mnemonic.startswith(("fmul",)):
            return "fp_mul"
        if mnemonic.startswith(("fmv", "fsgnj", "fcvt", "fclass")):
            return "fp_move"
        return "fp_arith"
    return "alu"


#: SiFive P550-like in-order RV64GC core at 1.4 GHz.
P550 = TimingModel(
    name="p550-1.4GHz",
    frequency_hz=1.4e9,
    costs={
        "alu": 1, "mul": 3, "div": 20,
        "load": 3, "store": 1,
        "branch": 1.5,       # averaged predict/mispredict cost
        "jump": 1, "jump_reg": 2,
        "amo": 6,
        "fp_arith": 4, "fp_mul": 5, "fp_div": 21,
        "fp_load": 3, "fp_store": 1, "fp_move": 2,
        "csr": 4, "system": 30, "fence": 3,
    },
)

#: i5-14600T-like wide OOO core running legacy (pre-optimisation) x86
#: Dyninst.  Fractional costs model superscalar IPC; see module docstring.
X86PROXY = TimingModel(
    name="x86proxy-i5-14600T",
    frequency_hz=4.0e9,
    default_cost=0.4,
    costs={
        "alu": 0.3, "mul": 0.75, "div": 6,
        "load": 0.6, "store": 0.5,
        "branch": 0.6, "jump": 0.5, "jump_reg": 1.2,
        "amo": 5,
        "fp_arith": 1.0, "fp_mul": 1.0, "fp_div": 4.5,
        "fp_load": 0.7, "fp_store": 0.6, "fp_move": 0.4,
        "csr": 8, "system": 40, "fence": 8,
    },
)

MODELS: dict[str, TimingModel] = {"p550": P550, "x86proxy": X86PROXY}
