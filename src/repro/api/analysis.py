"""The immutable analysis surface: :func:`analyze` and
:class:`Analysis`.

The v1/v2 ``open_binary`` coupled two very different lifetimes in one
object: *analysis results* (symtab, CFG, liveness — pure functions of
the binary's bytes) and *per-session patch state* (queued snippets, the
data area, commit status).  This module owns the first half:

* :func:`analyze` turns ELF bytes / a path / a :class:`Program` /
  a :class:`Symtab` into a frozen :class:`Analysis`;
* an :class:`Analysis` is **immutable and shareable** — any number of
  concurrent :class:`~repro.api.bpatch.BinaryEdit` sessions borrow one
  analysis (the session service runs N clients against a single
  revived instance);
* analyses are **content-addressed**: given an artifact store
  (:mod:`repro.artifacts`), :func:`analyze` revives parse/CFG and
  liveness from the store when the (sha256 of bytes, analysis options,
  schema version) key hits, paying zero parse/classification/liveness
  recomputation — telemetry-verifiably so (no ``parse.*`` spans, no
  ``liveness.*`` counters on a warm open).

Typical flows::

    a = analyze("build/mutatee")                  # cold: parses, stores
    with BinaryEdit(a) as edit:                   # borrows, never copies
        ...

    a = analyze(elf_bytes, store="~/.cache/repro")  # warm: revived
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .. import telemetry
from ..artifacts import ArtifactStore, artifact_key, content_digest
from ..dataflow.interproc import (
    analyze_interprocedural, interproc_from_snapshot,
    interproc_to_snapshot,
)
from ..dataflow.liveness import (
    LivenessResult, analyze_liveness, liveness_from_snapshot,
    liveness_to_snapshot,
)
from ..errors import ReproError
from ..parse.parser import CodeObject, parse_binary
from ..parse.serialize import cfg_from_snapshot, cfg_to_snapshot
from ..riscv.assembler import Program
from ..symtab.symtab import Symtab
from .errors import ApiError
from .options import DEFAULT_OPTIONS, InstrumentOptions

#: kinds accepted by :func:`analyze` / :func:`repro.api.open_binary`
SOURCE_KINDS = "bytes, Program, Symtab, or an ELF path (str | os.PathLike)"


def _resolve_source(source) -> tuple[Symtab, bytes | None, str | None]:
    """Normalize an analyze/open_binary source.

    Returns ``(symtab, content_bytes, source_path)`` — *content_bytes*
    is the hashable raw image when one exists (bytes and path sources);
    Program/Symtab sources are hashed structurally instead.
    """
    if isinstance(source, Symtab):
        return source, None, None
    if isinstance(source, Program):
        return Symtab.from_program(source), None, None
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
        return Symtab.from_bytes(data), data, None
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ApiError(f"cannot read ELF at {path}: {exc}") from exc
        return Symtab.from_bytes(data), data, str(path)
    raise ApiError(
        f"cannot open {type(source).__name__}: expected {SOURCE_KINDS}")


def _symtab_digest(symtab: Symtab) -> str:
    """Structural content digest for sources with no canonical ELF
    image (assembled Programs, hand-built Symtabs): entry, regions
    (placement, flags, bytes), symbols, ISA."""
    h = hashlib.sha256()
    h.update(f"symtab|{symtab.entry:#x}|{symtab.isa}".encode())
    for r in symtab.regions:
        h.update(f"|{r.name}@{r.addr:#x}+{r.mem_size or len(r.data)}"
                 f"{'x' if r.executable else '-'}|".encode())
        h.update(r.data)
    for name, sym in sorted(symtab.symbols.items()):
        h.update(f"|{name}@{sym.address:#x}:{sym.kind}".encode())
    return h.hexdigest()


class AnalysisMismatchError(ApiError):
    """A session asked for analysis options incompatible with the
    :class:`Analysis` it borrows (re-run :func:`analyze` instead)."""


class Analysis:
    """Frozen analysis bundle: symtab + CFG + liveness for one binary.

    Immutable after construction (attribute assignment raises), so one
    instance is safely shared by any number of concurrent sessions,
    threads, and (through the artifact store) processes.  Produced by
    :func:`analyze`; consumed by :class:`~repro.api.bpatch.BinaryEdit`,
    which *borrows* it.
    """

    __slots__ = ("symtab", "options", "cfg", "key", "source_path",
                 "revived", "_liveness", "_interproc", "_frozen")

    def __init__(self, symtab: Symtab, options: InstrumentOptions,
                 cfg: CodeObject, liveness: dict[int, LivenessResult],
                 *, interproc=None, key: str | None = None,
                 source_path: str | None = None, revived: bool = False):
        self.symtab = symtab
        self.options = options
        self.cfg = cfg
        self.key = key
        self.source_path = source_path
        #: True when this analysis came out of the artifact store
        self.revived = revived
        self._liveness = liveness
        self._interproc = interproc
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(
                "Analysis is immutable; derive a new one with analyze()")
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = (self.key or "unkeyed")[:12]
        return (f"<Analysis {key} {len(self.cfg.functions)} functions"
                f"{' (revived)' if self.revived else ''}>")

    # -- queries ---------------------------------------------------------

    @property
    def isa(self):
        return self.symtab.isa

    def functions(self):
        return sorted(self.cfg.functions.values(), key=lambda f: f.entry)

    def function(self, name: str):
        fn = self.cfg.function_by_name(name)
        if fn is None:
            raise ApiError(f"no function named {name!r}")
        return fn

    def result_for(self, fn) -> LivenessResult | None:
        """The precomputed liveness of one function (the provider
        protocol :class:`~repro.patch.patcher.Patcher` consumes).
        ``None`` for functions this analysis does not know."""
        res = self._liveness.get(fn.entry)
        if res is None and self._interproc is not None \
                and fn.entry in self.cfg.functions:
            res = self._interproc.result_for(fn)
        return res

    liveness_for = result_for

    # -- (de)serialization ----------------------------------------------

    def to_payload(self) -> dict:
        """The JSON-ready artifact payload (CFG + liveness snapshots)."""
        if self._interproc is not None:
            liveness = {"kind": "interproc",
                        "interproc": interproc_to_snapshot(self._interproc)}
        else:
            liveness = {"kind": "intra",
                        "functions": [
                            [entry, liveness_to_snapshot(res)]
                            for entry, res in sorted(self._liveness.items())
                        ]}
        return {"cfg": cfg_to_snapshot(self.cfg), "liveness": liveness}

    @classmethod
    def from_payload(cls, symtab: Symtab, options: InstrumentOptions,
                     payload: dict, *, key: str | None = None,
                     source_path: str | None = None) -> "Analysis":
        """Revive an analysis from a stored payload — no parse, no
        liveness solve.  Raises :class:`ReproError` subclasses on a
        snapshot that is malformed or disagrees with *symtab* (the
        store treats that as a stale miss)."""
        cfg = cfg_from_snapshot(symtab, payload["cfg"])
        lv = payload["liveness"]
        interproc = None
        liveness: dict[int, LivenessResult] = {}
        if lv.get("kind") == "interproc":
            interproc = interproc_from_snapshot(cfg, lv["interproc"])
            liveness = dict(interproc._results)
        else:
            for entry, snap in lv.get("functions", ()):
                fn = cfg.functions.get(entry)
                if fn is None:
                    raise ApiError(
                        f"liveness snapshot names unknown function "
                        f"{entry:#x}")
                liveness[entry] = liveness_from_snapshot(fn, snap)
        return cls(symtab, options, cfg, liveness, interproc=interproc,
                   key=key, source_path=source_path, revived=True)


def _compute_analysis(symtab: Symtab,
                      options: InstrumentOptions) -> tuple:
    """The cold path: parse + whole-binary liveness."""
    cfg = parse_binary(symtab, gap_parsing=options.gap_parsing)
    interproc = None
    liveness: dict[int, LivenessResult] = {}
    if options.interprocedural_liveness:
        interproc = analyze_interprocedural(cfg)
        for fn in cfg.functions.values():
            liveness[fn.entry] = interproc.result_for(fn)
    else:
        for fn in cfg.functions.values():
            liveness[fn.entry] = analyze_liveness(fn)
    return cfg, liveness, interproc


def _resolve_store(store) -> ArtifactStore | None:
    if store is None:
        return ArtifactStore.default()
    if store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return ArtifactStore(store)
    raise ApiError(
        f"store must be an ArtifactStore, path, None, or False; "
        f"got {type(store).__name__}")


def analyze(source, options: InstrumentOptions | None = None, *,
            store=None) -> Analysis:
    """Analyze a binary into a frozen, shareable :class:`Analysis`.

    *source* is ELF ``bytes``, an ELF path (``str | os.PathLike``), an
    assembled :class:`Program`, or a :class:`Symtab`.  *options*
    configures the analysis (only its
    :attr:`~repro.api.InstrumentOptions.ANALYSIS_FIELDS` matter here).

    *store* selects the content-addressed artifact store: an
    :class:`~repro.artifacts.ArtifactStore`, a directory path, ``None``
    (use ``$REPRO_ARTIFACTS`` when set, else no caching), or ``False``
    (never cache).  With a store, a byte-identical binary analyzed
    under the same analysis options revives the stored CFG/liveness —
    counted under ``artifacts.hits`` — instead of recomputing.
    """
    opts = options if options is not None else DEFAULT_OPTIONS
    if not isinstance(opts, InstrumentOptions):
        raise ApiError(
            f"options must be an InstrumentOptions, "
            f"got {type(opts).__name__}")
    symtab, content, path = _resolve_source(source)
    st = _resolve_store(store)

    key = None
    if st is not None:
        digest = (content_digest(content) if content is not None
                  else _symtab_digest(symtab))
        key = artifact_key(digest, opts.analysis_fields())
        payload = st.load(key)
        if payload is not None:
            with telemetry.current().span("artifacts.revive"):
                try:
                    return Analysis.from_payload(
                        symtab, opts, payload, key=key, source_path=path)
                except ReproError:
                    # stored artifact disagrees with the binary —
                    # treat as stale and recompute
                    telemetry.current().count("artifacts.stale")

    cfg, liveness, interproc = _compute_analysis(symtab, opts)
    analysis = Analysis(symtab, opts, cfg, liveness,
                        interproc=interproc, key=key, source_path=path)
    if st is not None and key is not None:
        meta = {"options": opts.analysis_fields(),
                "functions": len(cfg.functions)}
        paths = set(st.meta(key).get("source_paths", ()))
        if path:
            paths.add(path)
        meta["source_paths"] = sorted(paths)
        st.store(key, analysis.to_payload(), meta=meta)
    return analysis
