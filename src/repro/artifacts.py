"""Content-addressed analysis artifact store.

The expensive pipeline stages — traversal parse, gap/jump-table
recovery, jal/jalr classification, interprocedural liveness — are pure
functions of (binary bytes, analysis options).  This module stores
their serialized results keyed by a **content hash** so a byte-identical
mutatee never pays for them twice, across processes and across
machines sharing a cache directory:

    key = sha256(schema version | sha256(ELF bytes) |
                 analysis-relevant InstrumentOptions fields)

Layout (one directory per key)::

    <root>/<key>/analysis.json      # CFG + liveness snapshot

The store is a dumb, safe key/value layer: it knows nothing about CFGs
or liveness (serialization lives with the analyses that own the data —
:mod:`repro.parse.serialize`, :mod:`repro.dataflow.liveness`); it owns
key derivation, atomic writes, and rejection.

Safety model
------------
* **Atomic writes**: every store is a write to a temp file in the same
  directory followed by ``os.replace`` — concurrent writers of one key
  race benignly (last writer wins, readers never observe a torn file).
* **Corruption**: unreadable/truncated/non-JSON entries are a miss
  (counted under ``artifacts.stale``), never an error.
* **Version skew**: entries written under a different
  ``SCHEMA_VERSION`` or whose recorded key disagrees with their path
  are rejected the same way.  The schema version participates in the
  key too, so skew only arises from hand-edited or downgraded stores.

Telemetry: ``artifacts.hits`` / ``artifacts.misses`` /
``artifacts.stale`` / ``artifacts.stores`` (see docs/TELEMETRY.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

from . import telemetry
from .errors import ReproError

#: artifact container format identifier
MAGIC = "repro.artifacts/1"

#: bump on any incompatible change to the payload schemas the store
#: carries (CFG snapshot shape, liveness masks, ...) or to the CFGs the
#: parser builds.  Participates in key derivation, so a bump silently
#: invalidates every old entry.  Version 2: jalr slices follow the CFG.
SCHEMA_VERSION = 2

#: environment variable naming a default store directory
ENV_STORE = "REPRO_ARTIFACTS"


class ArtifactError(ReproError, RuntimeError):
    """The artifact store was misused (bad key, unwritable root...)."""


def content_digest(data: bytes) -> str:
    """sha256 hex digest of a binary's bytes (the content half of a
    key)."""
    return hashlib.sha256(data).hexdigest()


def artifact_key(digest: str, options_fields: Mapping[str, Any],
                 schema_version: int = SCHEMA_VERSION) -> str:
    """Derive the store key for one (binary, analysis options) pair.

    *digest* is the binary's :func:`content_digest`;
    *options_fields* are the **analysis-relevant** option fields only
    (see :meth:`repro.api.InstrumentOptions.analysis_fields` — patch
    placement and session-level knobs deliberately do not participate,
    so sessions with different patch bases share one analysis).
    """
    h = hashlib.sha256()
    h.update(f"{MAGIC}|v{schema_version}|{digest}".encode())
    for name in sorted(options_fields):
        h.update(f"|{name}={options_fields[name]!r}".encode())
    return h.hexdigest()[:40]


class ArtifactStore:
    """Directory-backed content-addressed store, one directory per key.

    Thread- and process-safe by construction: keys are content hashes
    (writers of one key write identical bytes modulo metadata) and all
    writes are atomic renames.
    """

    #: file name of the analysis artifact inside a key's directory
    ANALYSIS = "analysis.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @classmethod
    def default(cls) -> "ArtifactStore | None":
        """The process-default store: ``$REPRO_ARTIFACTS`` when set
        (the directory is created on first write), else ``None`` —
        no caching."""
        root = os.environ.get(ENV_STORE)
        return cls(root) if root else None

    # -- paths -----------------------------------------------------------

    def dir_for(self, key: str) -> Path:
        """The per-key directory holding that key's analysis entry."""
        if not key or "/" in key or key.startswith("."):
            raise ArtifactError(f"malformed artifact key: {key!r}")
        return self.root / key

    def path_for(self, key: str) -> Path:
        return self.dir_for(key) / self.ANALYSIS

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> list[str]:
        """Keys with a readable analysis entry (no validation)."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if (p / self.ANALYSIS).is_file())

    # -- load / store ----------------------------------------------------

    def load(self, key: str) -> dict | None:
        """The payload stored under *key*, or ``None`` on a miss.

        A corrupt, truncated, version-skewed, or mis-keyed entry is a
        miss (``artifacts.stale``); an absent one is a plain
        ``artifacts.misses``.
        """
        rec = telemetry.current()
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            rec.count("artifacts.misses")
            return None
        try:
            data = json.loads(raw)
        except ValueError:
            rec.count("artifacts.stale")
            return None
        if (not isinstance(data, dict)
                or data.get("magic") != MAGIC
                or data.get("schema_version") != SCHEMA_VERSION
                or data.get("key") != key
                or not isinstance(data.get("payload"), dict)):
            rec.count("artifacts.stale")
            return None
        rec.count("artifacts.hits")
        return data["payload"]

    def meta(self, key: str) -> dict:
        """Stored metadata for *key* (analysis options, function count,
        source paths seen); empty on a miss.  Metadata is advisory and
        does not participate in validation."""
        try:
            data = json.loads(self.path_for(key).read_bytes())
        except (OSError, ValueError):
            return {}
        if isinstance(data, dict) and isinstance(data.get("meta"), dict):
            return data["meta"]
        return {}

    def store(self, key: str, payload: dict,
              meta: dict | None = None) -> Path:
        """Atomically write *payload* under *key* (last writer wins).

        The temp file lives in the destination directory so the final
        ``os.replace`` is a same-filesystem rename — readers see either
        the old entry or the new one, never a torn file.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({
            "magic": MAGIC,
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "meta": meta or {},
            "payload": payload,
        }).encode()
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        telemetry.current().count("artifacts.stores")
        return path

    def evict(self, key: str) -> bool:
        """Drop one key's entire directory.  Returns True if anything
        was removed."""
        d = self.dir_for(key)
        if not d.is_dir():
            return False
        for p in sorted(d.iterdir()):
            try:
                p.unlink()
            except OSError:
                pass
        try:
            d.rmdir()
        except OSError:
            return False
        return True


__all__ = [
    "ENV_STORE", "MAGIC", "SCHEMA_VERSION", "ArtifactError",
    "ArtifactStore", "artifact_key", "content_digest",
]
