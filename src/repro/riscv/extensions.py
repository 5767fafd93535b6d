"""RISC-V extension and profile registry.

RISC-V is a modular ISA: a minimal base (RV64I here) plus ratified
extensions (paper §3.1.1).  Dyninst must (a) know which extensions the
*mutatee* was built for, so instrumentation never emits instructions the
target processor may lack, and (b) be organised so adding an extension is
a table edit, not a cross-cutting change.

This module is that table.  Each :class:`Extension` is registered once;
instruction specs (``opcodes.py``) reference extensions by name; the code
generator consults an :class:`ISASubset` derived from the binary's
``.riscv.attributes`` arch string or ELF ``e_flags`` before emitting
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Extension:
    """One ISA extension.

    Attributes
    ----------
    name:
        Canonical lower-case name as used in ISA strings (``i``, ``m``,
        ``zicsr``...).
    description:
        Human-readable summary.
    implies:
        Extensions transitively required by this one (e.g. ``d`` implies
        ``f``).
    version:
        Default (major, minor) version used when emitting arch strings.
    """

    name: str
    description: str
    implies: tuple[str, ...] = ()
    version: tuple[int, int] = (2, 0)


_REGISTRY: dict[str, Extension] = {}


def register_extension(ext: Extension) -> Extension:
    """Add an extension to the global registry (idempotent for identical
    re-registration; conflicting re-registration is an error)."""
    existing = _REGISTRY.get(ext.name)
    if existing is not None:
        if existing != ext:
            raise ValueError(f"extension {ext.name!r} already registered differently")
        return existing
    _REGISTRY[ext.name] = ext
    return ext


def get_extension(name: str) -> Extension:
    """Look up a registered extension by canonical name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(f"unknown extension: {name!r}") from None


def all_extensions() -> tuple[Extension, ...]:
    """All registered extensions, in registration order."""
    return tuple(_REGISTRY.values())


# --- the standard extensions this toolkit knows about -----------------

EXT_I = register_extension(Extension("i", "base integer ISA"))
EXT_M = register_extension(Extension("m", "integer multiplication and division"))
EXT_A = register_extension(Extension("a", "atomic instructions"))
EXT_F = register_extension(
    Extension("f", "single-precision floating point", implies=("zicsr",))
)
EXT_D = register_extension(
    Extension("d", "double-precision floating point", implies=("f",))
)
EXT_C = register_extension(Extension("c", "compressed 16-bit instructions"))
EXT_ZICSR = register_extension(
    Extension("zicsr", "control and status register instructions")
)
EXT_ZIFENCEI = register_extension(Extension("zifencei", "instruction-fetch fence"))
# Future-work extensions from the paper's RVA23 discussion.  Registered so
# the registry demonstrates the "adding an extension is a table edit"
# property; only a representative handful of Zicond/Zba instructions are
# given encodings in opcodes.py.
EXT_ZICOND = register_extension(
    Extension("zicond", "integer conditional operations (RVA23)", version=(1, 0))
)
EXT_ZBA = register_extension(
    Extension("zba", "address-generation bit manipulation (RVA23)", version=(1, 0))
)
EXT_ZBB = register_extension(
    Extension("zbb", "basic bit manipulation (RVA23)", version=(1, 0))
)

#: The single-letter extensions making up "G".
G_PARTS: tuple[str, ...] = ("i", "m", "a", "f", "d", "zicsr", "zifencei")

#: Canonical ordering of single-letter extensions in ISA strings.
_CANON_ORDER = "iemafdqlcbkjtpvnh"


def _canon_key(name: str) -> tuple[int, int | str]:
    if len(name) == 1:
        idx = _CANON_ORDER.find(name)
        return (0, idx if idx >= 0 else len(_CANON_ORDER))
    return (1, name)


@dataclass(frozen=True)
class ISASubset:
    """The set of extensions a particular binary / hart supports.

    This is what SymtabAPI extracts from a binary and what CodeGenAPI
    consults before emitting an instruction (paper §3.1.1, §3.2.5).
    """

    xlen: int = 64
    extensions: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.xlen not in (32, 64):
            raise ValueError(f"unsupported XLEN: {self.xlen}")
        # Close the set under `implies`.
        closed = set(self.extensions)
        work = list(closed)
        while work:
            ext = _REGISTRY.get(work.pop())
            if ext is None:
                continue
            for dep in ext.implies:
                if dep not in closed:
                    closed.add(dep)
                    work.append(dep)
        object.__setattr__(self, "extensions", frozenset(closed))

    def supports(self, ext_name: str) -> bool:
        """True if this subset includes *ext_name* (case-insensitive)."""
        return ext_name.lower() in self.extensions

    def without(self, *ext_names: str) -> "ISASubset":
        """A copy with the given extensions removed (no implies re-closure:
        removing ``f`` from rv64gc intentionally leaves ``d`` unsupported
        because ``d``'s dependency is broken)."""
        drop = {e.lower() for e in ext_names}
        drop |= {
            e.name
            for e in all_extensions()
            if any(dep in drop for dep in e.implies)
        }
        return ISASubset(self.xlen, frozenset(self.extensions - drop))

    def arch_string(self) -> str:
        """Canonical ISA string, e.g. ``rv64imafdc_zicsr_zifencei``."""
        singles = sorted(
            (e for e in self.extensions if len(e) == 1), key=_canon_key
        )
        multis = sorted(e for e in self.extensions if len(e) > 1)
        base = f"rv{self.xlen}" + "".join(singles)
        for m in multis:
            ver = _REGISTRY[m].version if m in _REGISTRY else (1, 0)
            base += f"_{m}{ver[0]}p{ver[1]}"
        return base

    def __contains__(self, ext_name: str) -> bool:
        return self.supports(ext_name)


class ArchStringError(ValueError):
    """Raised for unparseable ISA strings."""


def parse_arch_string(s: str) -> ISASubset:
    """Parse an ISA string like ``rv64imafdc_zicsr2p0_zifencei2p0``.

    Handles the ``g`` shorthand, optional ``<major>p<minor>`` version
    suffixes, and underscore-separated multi-letter extensions.  Unknown
    multi-letter extensions are kept verbatim (a binary may use extensions
    newer than this toolkit; analysis should not hard-fail, mirroring
    Dyninst's opportunistic behaviour).
    """
    text = s.strip().lower()
    if not text.startswith("rv"):
        raise ArchStringError(f"ISA string must start with 'rv': {s!r}")
    rest = text[2:]
    if rest.startswith("64"):
        xlen = 64
    elif rest.startswith("32"):
        xlen = 32
    else:
        raise ArchStringError(f"ISA string missing XLEN: {s!r}")
    rest = rest[2:]

    exts: set[str] = set()
    chunks = rest.split("_")
    head = chunks[0]
    i = 0
    while i < len(head):
        ch = head[i]
        i += 1
        # Optional version digits: <major>[p<minor>]
        j = i
        while j < len(head) and head[j].isdigit():
            j += 1
        if j > i and j < len(head) and head[j] == "p" and j + 1 < len(head) and head[j + 1].isdigit():
            j += 1
            while j < len(head) and head[j].isdigit():
                j += 1
        i = j
        if ch == "g":
            exts.update(G_PARTS)
        elif ch.isalpha():
            exts.add(ch)
        else:
            raise ArchStringError(f"bad character {ch!r} in ISA string {s!r}")
    for chunk in chunks[1:]:
        if not chunk:
            continue
        name = chunk.rstrip("0123456789")
        if name.endswith("p") and chunk != name:
            name = name[:-1].rstrip("0123456789")
        if not name:
            raise ArchStringError(f"bad extension chunk {chunk!r} in {s!r}")
        exts.add(name)
    if not exts:
        raise ArchStringError(f"ISA string has no base extension: {s!r}")
    return ISASubset(xlen=xlen, extensions=frozenset(exts))


#: RV64I bare base.
RV64I = ISASubset(64, frozenset({"i"}))
#: RV64G = IMAFD + Zicsr + Zifencei.
RV64G = ISASubset(64, frozenset(G_PARTS))
#: RV64GC — the profile the paper's port (and Capstone v6) targets.
RV64GC = ISASubset(64, frozenset(G_PARTS + ("c",)))
#: Representative slice of the RVA23 mandatory set (future work, §3.4).
RVA23_SUBSET = ISASubset(
    64, frozenset(G_PARTS + ("c", "zicond", "zba", "zbb")))

PROFILES: dict[str, ISASubset] = {
    "rv64i": RV64I,
    "rv64g": RV64G,
    "rv64gc": RV64GC,
    "rva23-subset": RVA23_SUBSET,
}
