"""Stage 2 of the semantics pipeline: generate semantic classes.

Mirrors the paper's JSON -> C++ generator (§3.2.4): consumes the JSON IR
document and emits Python source text defining one semantic class per
instruction.  The generated module is self-contained — re-running the
pipeline after adding an extension regenerates it without touching any
other code.

The generated classes expose:

* ``SEMANTICS`` — the :class:`~repro.semantics.ir.Semantics` effect list;
* ``register_uses()`` / ``register_defs()`` — operand-level def/use;
* ``reads_memory`` / ``writes_memory`` / ``writes_pc`` flags.
"""

from __future__ import annotations

import json
from types import ModuleType

from .json_ir import from_json_document

_HEADER = '''\
"""AUTO-GENERATED semantic classes — do not edit.

Produced by repro.semantics.sail.gen from the repro-sail-ir JSON
document (itself derived from the mini-SAIL source).  Regenerate with
``python -m repro.semantics.sail``.
"""

import json

from repro.semantics.ir import Semantics, semantics_from_json


class SemanticClass:
    """Base for generated per-instruction semantic classes."""

    MNEMONIC: str = ""
    SEMANTICS: Semantics | None = None

    @classmethod
    def register_uses(cls):
        return cls.SEMANTICS.register_uses()

    @classmethod
    def register_defs(cls):
        return cls.SEMANTICS.register_defs()

    @classmethod
    def reads_memory(cls):
        return cls.SEMANTICS.reads_memory()

    @classmethod
    def writes_memory(cls):
        return cls.SEMANTICS.writes_memory()

    @classmethod
    def writes_pc(cls):
        return cls.SEMANTICS.writes_pc()


SEMANTIC_CLASSES = {}


def _register(cls):
    SEMANTIC_CLASSES[cls.MNEMONIC] = cls
    return cls

'''


def _class_name(mnemonic: str) -> str:
    return "Sem_" + mnemonic.replace(".", "_").upper()


def generate_source(json_document: str) -> str:
    """Generate the Python module source from a JSON IR document."""
    sems = from_json_document(json_document)
    parts = [_HEADER]
    for mnemonic, sem in sorted(sems.items()):
        from ..ir import semantics_to_json

        payload = json.dumps(semantics_to_json(sem), sort_keys=True)
        parts.append(
            f"@_register\n"
            f"class {_class_name(mnemonic)}(SemanticClass):\n"
            f"    MNEMONIC = {mnemonic!r}\n"
            f"    SEMANTICS = semantics_from_json(json.loads({payload!r}))\n\n"
        )
    return "\n".join(parts)


def load_generated(source: str, module_name: str = "repro.semantics.generated"
                   ) -> ModuleType:
    """Execute generated source into a fresh module object."""
    mod = ModuleType(module_name)
    mod.__dict__["__builtins__"] = __builtins__
    exec(compile(source, f"<{module_name}>", "exec"), mod.__dict__)
    return mod


def run_pipeline() -> ModuleType:
    """Run the full pipeline: DSL -> JSON -> generated module."""
    from .parser import parse_sail
    from .source import SAIL_SOURCE
    from .json_ir import to_json_document

    sems = parse_sail(SAIL_SOURCE)
    doc = to_json_document(sems)
    return load_generated(generate_source(doc))
