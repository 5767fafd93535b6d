"""Layer spans recorded from outside the program.

:class:`LayerTracer` times the calls into each layer's public functions
by replacing them, for the duration of a ``with`` block, with thin
wrappers.  Nothing inside ``src/`` changes: the wrappers live here and
are removed on exit, so an untraced session runs the unmodified code.

Spans nest on one stack (the in-process sessions are single-threaded),
so each span's *self time* -- its duration minus the part its child
spans cover -- is computed as it closes.  The sum of all self times is
the wall time the wrapped layers account for.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

#: (module, attribute path, span name).  Functions a module imports by
#: name are wrapped where the caller looks them up, so the wrapper is
#: the one that runs.
LAYER_SPANS = (
    ("repro.symtab.symtab", "Symtab.from_bytes", "elf.read"),
    ("repro.api.bpatch", "rewrite", "elf.write"),
    ("repro.api.analysis", "parse_binary", "parse"),
    ("repro.api.analysis", "analyze_liveness", "dataflow.liveness"),
    ("repro.api.analysis", "analyze_interprocedural",
     "dataflow.liveness"),
    ("repro.artifacts", "ArtifactStore.store", "artifacts.store"),
    ("repro.api.analysis", "Analysis.to_payload", "artifacts.store"),
    ("repro.codegen.generator", "SnippetGenerator.generate",
     "codegen.generate"),
    ("repro.patch.patcher", "allocate_scratch", "codegen.regalloc"),
    ("repro.patch.patcher", "Patcher.commit", "patch.commit"),
    ("repro.patch.patcher", "build_springboard", "patch.springboard"),
    ("repro.patch.patcher", "lower_relocated", "patch.relocate"),
    ("repro.patch.patcher", "PatchResult.apply_to_machine",
     "patch.apply"),
    ("repro.sim.machine", "Machine.run", "sim.run"),
    ("repro.sim.trace", "TraceCache.compile_at", "sim.trace.compile"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYER_SPANS))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class LayerTracer:
    """Install span wrappers on enter, remove them on exit.

    After the block, :attr:`self_s` and :attr:`total_s` map each span
    name to its self and total seconds.
    """

    def __init__(self, spans=LAYER_SPANS):
        self._targets = [(*_resolve(m, p), name) for m, p, name in spans]
        self._saved: list[tuple[object, str, object]] = []
        #: open spans: [start, time covered by children]
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)

    def _wrap(self, fn, name):
        stack = self._stack
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    def __enter__(self) -> "LayerTracer":
        for owner, attr, name in self._targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False

    def accounted_s(self) -> float:
        """Wall time covered by the outermost spans."""
        return sum(self.self_s.values())
