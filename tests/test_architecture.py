"""Architectural invariants: the paper's Figure 2 component layering.

The import structure of the package must match the Dyninst component
graph: information flows from the binary-structure toolkits toward the
instrumentation toolkits, never backward (e.g. SymtabAPI must not
depend on PatchAPI).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"

COMPONENTS = ["symtab", "instruction", "parse", "dataflow", "codegen",
              "patch", "proccontrol", "stackwalk", "tracing"]

ALLOWED = {
    "symtab": set(),
    "instruction": set(),
    "parse": {"instruction", "symtab", "dataflow"},
    "dataflow": {"instruction", "parse"},
    "codegen": {"dataflow", "instruction"},
    "patch": {"codegen", "dataflow", "parse", "instruction", "symtab"},
    "proccontrol": {"instruction", "symtab"},
    "stackwalk": {"dataflow", "parse", "proccontrol", "instruction"},
    # call-stack reconstruction / exporters consume raw event tuples and
    # symbol triples; they must not reach into parse/sim themselves
    "tracing": set(),
}


def _import_target(py: Path, node: ast.ImportFrom) -> str | None:
    """The top-level ``repro`` subpackage *node* imports from, resolving
    relative imports against *py*'s own package (``..ir`` inside
    ``semantics/sail`` is ``semantics.ir``)."""
    if node.level:
        pkg = py.parent.relative_to(SRC).parts
        return (pkg[:len(pkg) + 1 - node.level]
                + tuple(node.module.split(".")))[0]
    if node.module.startswith("repro."):
        return node.module.split(".")[1]
    return None


def _imports_of(component: str) -> set[str]:
    found: set[str] = set()
    for py in (SRC / component).rglob("*.py"):
        tree = ast.parse(py.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                target = _import_target(py, node)
                if target in COMPONENTS and target != component:
                    found.add(target)
    return found


@pytest.mark.parametrize("component", COMPONENTS)
def test_component_respects_figure2(component):
    illegal = _imports_of(component) - ALLOWED[component]
    assert not illegal, (
        f"{component} imports {sorted(illegal)}: not a Figure-2 arrow")


def test_no_component_imports_the_facade():
    for comp in COMPONENTS + ["riscv", "elf", "sim", "semantics",
                              "minicc", "telemetry"]:
        for py in (SRC / comp).rglob("*.py"):
            tree = ast.parse(py.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    assert "api" != node.module.split(".")[0].replace(
                        "repro.", ""), f"{py} imports the facade"
                    assert not node.module.startswith("repro.api"), py


# Dependency leaves usable from any layer: the shared exception base,
# the telemetry registry and the fault-injection registry import nothing
# from the toolkits themselves (faults may reach the exception base).
CROSS_CUTTING = {"errors", "telemetry", "faults"}


def test_substrates_do_not_import_toolkits():
    """riscv/elf/semantics/sim are substrates: no upward dependencies
    except the documented ones (sim decodes instructions and lowers
    their semantics IR; semantics reads the opcode table; elf knows
    nothing) and the cross-cutting leaves (errors, telemetry)."""
    for comp, allowed in (("riscv", set()), ("elf", {"riscv"}),
                          ("semantics", {"riscv"}),
                          ("sim", {"riscv", "semantics"})):
        for py in (SRC / comp).rglob("*.py"):
            tree = ast.parse(py.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    target = _import_target(py, node)
                    if target in (None, comp) or target in CROSS_CUTTING:
                        continue
                    assert target in allowed, (
                        f"substrate {comp} imports {target} ({py})")


def test_cross_cutting_modules_are_leaves():
    """errors/telemetry/faults may be imported from anywhere only
    because they import (almost) nothing from the package in return:
    errors and telemetry are pure leaves; faults may reach the shared
    exception base (its InjectedFault subclasses ReproError), nothing
    else."""
    allowed = {"errors.py": set(), "telemetry": set(),
               "faults.py": {"errors"}}
    for leaf, ok in allowed.items():
        path = SRC / leaf
        files = path.rglob("*.py") if path.is_dir() else [path]
        for py in files:
            tree = ast.parse(py.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    mod = node.module or ""
                    if mod.startswith("repro."):
                        target = mod.split(".")[1]
                    elif node.level >= 2 or (
                            node.level == 1 and path.is_file()):
                        target = mod.split(".")[0] if mod else ""
                    else:
                        continue
                    assert target in ok, (
                        f"{py} reaches outside the leaf: "
                        f"{mod or target!r}")
