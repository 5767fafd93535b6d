"""Trampoline assembly: preamble + payload + relocated originals +
return jump, laid out at a concrete patch-area address.

Structure (paper §1, "code patching")::

    [far-springboard restore]     ; only when entered via auipc+jalr
    [payload]                     ; spill saves, snippets, spill restores
    relocated original instruction(s)
    jump back to original code    ; unless the originals divert
    stubs                         ; per displaced conditional branch:
                                  ;   [taken payload], jump to its target

An edge point is its relocated branch with a payload on each side: the
not-taken payload between the branch and the jump back, the taken one
in the branch's stub.

Every trampoline is laid out from one item vocabulary:

* ``("i", mn, fields)`` — one instruction;
* ``("label", id)`` — a position (a stub's start);
* ``("branch", mn, fields, label)`` — a conditional branch to a label;
* ``("jump", target)`` — an absolute jump: ``jal x0`` when the target
  is within ±1 MiB, otherwise an ``ebreak`` resolved through the
  trap-redirect map;
* ``("call", target, rd)`` — an ``auipc``+``jalr`` call linking *rd*.

A *stub* is a label laid out after the body that holds a payload and a
jump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..riscv.encoder import encode_fields
from ..riscv.encoding import fits_signed
from ..riscv.materialize import pcrel_hi_lo
from ..riscv.opcodes import by_mnemonic
from .relocate import RelocationError

Lowered = tuple[str, dict[str, int]]

#: item byte sizes other than one 4-byte instruction
_SIZES = {"label": 0, "call": 8}


@dataclass
class BuiltTrampoline:
    """Final trampoline image."""

    address: int
    code: bytes
    #: trampoline-internal trap sites: absolute ebreak addr -> target
    trap_entries: dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.code)


class TrampolineBuilder:
    """Two-pass layout, at *base*, of the trampoline for patch *site*."""

    def __init__(self, base: int, site: int):
        self.base = base
        self.site = site
        self._items: list[tuple] = []
        self._stubs: list[tuple] = []

    def add_instructions(self, seq: list[Lowered]) -> None:
        self._items += [("i", mn, fields) for mn, fields in seq]

    def add_branch(self, mn: str, fields: dict[str, int],
                   label: int) -> None:
        """Conditional branch to *label*."""
        self._items.append(("branch", mn, fields, label))

    def add_jump_abs(self, target: int) -> None:
        self._items.append(("jump", target))

    def add_call_abs(self, target: int, link_reg: int = 1) -> None:
        """auipc+jalr call to an absolute target; the callee returns
        into the trampoline."""
        self._items.append(("call", target, link_reg))

    def add_stub(self, payload: list[Lowered], target: int) -> int:
        """Lay out *payload* and a jump to *target* after the body;
        returns the label that branches to it."""
        label = len(self._stubs)
        self._stubs += [("label", label),
                        *(("i", mn, fields) for mn, fields in payload),
                        ("jump", target)]
        return label

    def build(self) -> BuiltTrampoline:
        items = self._items + self._stubs
        labels: dict[int, int] = {}
        pc = self.base
        for item in items:
            if item[0] == "label":
                labels[item[1]] = pc
            pc += _SIZES.get(item[0], 4)

        code = bytearray()
        traps: dict[int, int] = {}
        pc = self.base
        for item in items:
            kind = item[0]
            if kind == "i":
                code += _enc(item[1], item[2])
            elif kind == "branch":
                _, mn, fields, label = item
                code += _enc(mn, {**fields, "imm": labels[label] - pc})
            elif kind == "jump":
                disp = item[1] - pc
                if fits_signed(disp, 21):
                    code += _enc("jal", {"rd": 0, "imm": disp})
                else:
                    traps[pc] = item[1]
                    code += _enc("ebreak", {})
            elif kind == "call":
                _, target, rd = item
                try:
                    hi, lo = pcrel_hi_lo(target, pc)
                except ValueError as exc:
                    raise RelocationError(
                        f"call displaced from {self.site:#x} cannot reach "
                        f"{target:#x} from its trampoline at {pc:#x}: "
                        f"{exc}") from None
                code += _enc("auipc", {"rd": rd, "imm": hi})
                code += _enc("jalr", {"rd": rd, "rs1": rd, "imm": lo})
            pc += _SIZES.get(kind, 4)
        return BuiltTrampoline(self.base, bytes(code), traps)


def _enc(mn: str, fields: dict[str, int]) -> bytes:
    return encode_fields(by_mnemonic(mn), fields).to_bytes(4, "little")
