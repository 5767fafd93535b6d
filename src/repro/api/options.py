"""Instrumentation configuration for the v2 BPatch facade.

One frozen dataclass replaces the boolean-kwarg soup the v1 API grew
(``gap_parsing=...``, ``use_dead_registers=...``, ``patch_base=...``
scattered over :func:`repro.api.open_binary` and
:class:`repro.api.BinaryEdit`).  Options objects are immutable and
reusable across edits::

    opts = InstrumentOptions(use_dead_registers=False)
    with open_binary(prog, options=opts) as edit:
        ...

Derive variants with :meth:`InstrumentOptions.replace`::

    far = opts.replace(patch_base=0x4000_0000)

The legacy boolean keyword forms are removed; see docs/TELEMETRY.md
("v2 API surface") for the migration table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class InstrumentOptions:
    """How a mutatee is parsed and instrumented.

    Attributes
    ----------
    gap_parsing:
        Speculatively parse unclaimed code regions (paper §2.1's gap
        parsing).  Disable for strictly symbol-driven CFGs.
    use_dead_registers:
        Use liveness-proven dead registers as spill-free scratch
        (§4.3's allocation optimisation).  Disable to mimic the legacy
        x86-engine always-spill behaviour.
    patch_base:
        Base address of the instrumentation data + trampoline area;
        ``None`` places it just past the mutatee's highest region.
    interprocedural_liveness:
        Sharpen the scratch search with the interprocedural liveness
        analysis (slower commit, fewer spills).
    data_size:
        Bytes reserved for instrumentation variables (counters, flags)
        below the trampoline area.
    """

    gap_parsing: bool = True
    use_dead_registers: bool = True
    patch_base: int | None = None
    interprocedural_liveness: bool = False
    data_size: int = 0x2_0000

    def replace(self, **changes) -> "InstrumentOptions":
        """A copy with *changes* applied (options are immutable)."""
        return dataclasses.replace(self, **changes)

    #: fields that change what :func:`repro.api.analyze` computes (and
    #: therefore participate in the artifact-store key).  Patch
    #: placement (``patch_base``, ``data_size``) and codegen knobs
    #: (``use_dead_registers``) are per-session: sessions differing
    #: only in those share one cached analysis.
    ANALYSIS_FIELDS = ("gap_parsing", "interprocedural_liveness")

    def analysis_fields(self) -> dict:
        """The analysis-relevant field values (artifact key input)."""
        return {name: getattr(self, name) for name in self.ANALYSIS_FIELDS}


#: the defaults, shared (options are immutable so sharing is safe)
DEFAULT_OPTIONS = InstrumentOptions()

__all__ = ["InstrumentOptions", "DEFAULT_OPTIONS"]
