"""The CodeObject owner index: which functions hold the block at an
address.  A scan of every function's blocks is the reference; the index
must return the same functions in the same order, on parsed and on
revived CFGs, and keep a commit's block lookups linear in its points."""

import pytest

from repro.codegen import IncrementVar
from repro.dataflow import analyze_interprocedural, analyze_liveness
from repro.minicc import compile_source, matmul_source, switch_source
from repro.parse import parse_binary
from repro.parse.cfg import Block
from repro.parse.serialize import cfg_from_snapshot, cfg_to_snapshot
from repro.patch import Patcher, function_entry
from repro.riscv import assemble, lookup
from repro.symtab import Symtab

# g jumps into the middle of f, and _start's exit ecall falls through
# into f: the block at `shared` has several owners.  t3 is live across
# the call to f only, so interprocedural liveness seeds f's exit with it.
SHARED = """
.globl _start
_start:
  li t3, 7
  li a0, 3
  call f
  add a0, a0, t3
  li a0, 4
  call g
  li a7, 93
  ecall
.type f, @function
f:
  addi a1, a0, 1
shared:
  add a0, a0, a1
  ret
.type g, @function
g:
  addi a1, a0, 5
  j shared
"""


def wide_source(n):
    """*n* small functions with a loop and a branch each, all called
    from main (the benchmark's wide binary, narrower)."""
    funcs = "".join(f"""
long work{i}(long x) {{
    long s = x;
    for (long j = 0; j < 4; j = j + 1) {{
        if (s % 2 == 0) {{ s = s / 2; }} else {{ s = s * 3 + 1; }}
    }}
    return s;
}}
""" for i in range(n))
    calls = "".join(f"    t = t + work{i}({i + 3});\n" for i in range(n))
    return (funcs + "long main(void) {\n    long t = 0;\n" + calls
            + "    print_long(t);\n    return 0;\n}\n")


PROGRAMS = {
    "wide": lambda: compile_source(wide_source(40)),
    "matmul": lambda: compile_source(matmul_source(4, 1)),
    "switch": lambda: compile_source(switch_source()),
    "shared": lambda: assemble(SHARED),
}


def scan(co, addr):
    return [fn for fn in co.functions.values()
            if fn.block_at(addr) is not None]


@pytest.mark.parametrize("revived", [False, True], ids=["parsed", "revived"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_index_matches_scan_at_every_byte(name, revived):
    st = Symtab.from_program(PROGRAMS[name]())
    co = parse_binary(st)
    if revived:
        co = cfg_from_snapshot(st, cfg_to_snapshot(co))
    for region in st.code_regions():
        for addr in range(region.addr - 2, region.end + 2):
            want = scan(co, addr)
            assert co.functions_containing(addr) == want, hex(addr)
            assert co.function_containing(addr) is (
                want[0] if want else None)


@pytest.mark.parametrize("interproc", [False, True],
                         ids=["intraproc", "interproc"])
def test_shared_block_liveness_is_the_owners_intersection(interproc):
    program = assemble(SHARED)
    st = Symtab.from_program(program)
    co = parse_binary(st)
    shared = program.symbols["shared"].address
    owners = co.functions_containing(shared)
    assert {fn.name for fn in owners} >= {"f", "g"}
    if interproc:
        views = analyze_interprocedural(co).result_for
    else:
        views = analyze_liveness
    dead = {fn.name: set(views(fn).dead_before(shared)) for fn in owners}
    g = co.function_by_name("g")
    patcher = Patcher(st, co, interprocedural_liveness=interproc)
    got = patcher._liveness_at(shared, g).dead_before(shared)
    assert set(got) == set.intersection(*dead.values())
    if interproc:
        # only f's callers hold t3 live: g alone would call it dead
        t3 = lookup("t3")
        assert t3 in dead["g"] and t3 not in dead["f"]
        assert t3 not in got


def test_commit_block_lookups_scale_with_points(monkeypatch):
    st = Symtab.from_program(compile_source(wide_source(60)))
    co = parse_binary(st)
    patcher = Patcher(st, co)
    var = patcher.allocate_var("calls")
    for fn in co.functions.values():
        if fn.name.startswith("work") or fn.name == "main":
            patcher.insert(function_entry(fn), IncrementVar(var))
    calls = 0
    contains = Block.contains

    def counting(self, addr):
        nonlocal calls
        calls += 1
        return contains(self, addr)

    monkeypatch.setattr(Block, "contains", counting)
    stats = patcher.commit().stats
    assert stats.points == 61
    assert calls <= 4 * stats.points
