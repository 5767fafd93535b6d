"""Every CFG the parser builds, pinned by sha256.

The digests cover what ParseAPI decides: function names and entries,
block ranges, each edge's kind, target and ``resolved`` flag, the jump
tables and the unresolved ``jalr`` sites.  Any change to parsing, branch
classification, constant resolution or jump-table analysis that moves
one of them fails here, over the MiniC workload suite (plain and
compressed), a 200-function binary, a switch-heavy one and hand-written
indirect-flow shapes.
"""

import hashlib

import pytest

from repro.elf.writer import write_program
from repro.minicc import Options, compile_to_elf, workloads
from repro.parse import parse_binary
from repro.riscv import assemble
from repro.riscv.extensions import RVA23_SUBSET
from repro.symtab import Symtab

WORKLOADS = ("matmul", "fib", "switch", "qsort", "nbody", "crc",
             "linked_list", "tailcall")


def wide_source(n: int = 200) -> str:
    """*n* functions in five shapes -- a branchy loop, a call to an
    earlier function, a dense switch, double arithmetic and a tail
    position call -- all called from ``main``."""
    parts = []
    for i in range(n):
        shape = i % 5
        if shape == 0:
            body = f"""
    long s = x;
    for (long j = 0; j < {3 + i % 4}; j = j + 1) {{
        if (s % 2 == 0) {{ s = s / 2; }} else {{ s = s * 3 + 1; }}
    }}
    return s;"""
        elif shape == 1:
            body = f"    return fn{i - 1}(x + {i}) * 2;"
        elif shape == 2:
            body = f"""
    long r = 0;
    switch (x % {5 + i % 3}) {{
        case 0: r = x + {i}; break;
        case 1: r = x * 3; break;
        case 2: r = x - {i}; break;
        case 3: r = x / 2; break;
        case 4: r = x % 7; break;
        default: r = {i};
    }}
    return r;"""
        elif shape == 3:
            body = f"""
    double d = (double)x / {i + 1}.0;
    d = d * d + 0.5;
    return (long)d;"""
        else:
            body = f"""
    if (x > {i}) {{ return fn{i - 2}(x - 1); }}
    return fn{i - 4}(x + 1);"""
        parts.append(f"long fn{i}(long x) {{{body}\n}}\n")
    calls = "\n".join(f"    acc = acc + fn{i}({i});" for i in range(n))
    parts.append(f"long main(void) {{\n    long acc = 0;\n{calls}\n"
                 "    print_long(acc);\n    return 0;\n}\n")
    return "".join(parts)


def switch_heavy_source(n: int = 24) -> str:
    """Dense switches with varying bases and spans (jump tables, some
    with holes and fall-through), sparse ones (compare chains) and a
    switch nested in a loop inside another switch."""
    parts = []
    for i in range(n):
        lo = i % 4
        span = 4 + i % 6
        cases = []
        for v in range(lo, lo + span):
            if v % 5 == 3 and i % 2:
                continue  # a hole: the table entry is the default
            brk = "" if v % 4 == 1 else " break;"
            cases.append(f"        case {v}: r = r + x * {v + i};{brk}")
        if i % 3 == 2:  # sparse: a compare chain
            cases = [f"        case {v * 17 + i}: r = {v}; break;"
                     for v in range(5)]
        body = "\n".join(cases)
        parts.append(f"""long sw{i}(long x) {{
    long r = 1;
    switch (x) {{
{body}
        default: r = -1;
    }}
    return r;
}}
""")
    parts.append("""long nested(long x) {
    long acc = 0;
    switch (x % 3) {
        case 0:
            for (long i = 0; i < 6; i = i + 1) {
                switch (i) {
                    case 0: acc = acc + 1; break;
                    case 1: acc = acc + 2; break;
                    case 2: acc = acc + 3; break;
                    case 3: acc = acc + 4; break;
                    default: acc = acc - 1;
                }
            }
            break;
        case 1: acc = 10; break;
        case 2: acc = 20; break;
        case 3: acc = 30; break;
    }
    return acc;
}
""")
    calls = "\n".join(f"    acc = acc + sw{i}(acc % 11);" for i in range(n))
    parts.append(f"long main(void) {{\n    long acc = nested(3);\n{calls}\n"
                 "    print_long(acc);\n    return 0;\n}\n")
    return "".join(parts)


#: indirect flow MiniC does not emit: far calls and a tail call through
#: auipc+jalr, a call through a pointer in data, an ``sh3add`` table, a
#: 4-byte table checked by ``bltu``, a table with no bounds check, a
#: ``t0``-linked call and a ``jr`` through an argument register
SHAPES_ASM = r"""
.globl _start
.type _start, @function
_start:
  call main
  li a7, 93
  ecall
.type main, @function
main:
  addi sp, sp, -16
  sd ra, 8(sp)
  li a0, 2
  call sh3
  li a0, 1
  call words
  li a0, 3
  call unbounded
  la t0, leaf
  jalr ra, 0(t0)
  auipc t1, 0
  jalr ra, 28(t1)
  la a1, fptr
  ld a1, 0(a1)
  jalr ra, 0(a1)
  call viat0
  ld ra, 8(sp)
  addi sp, sp, 16
  tail leaf
.type leaf, @function
leaf:
  addi a0, a0, 1
  ret
.type sh3, @function
sh3:
  li t1, 4
  bgeu a0, t1, sdflt
  la t2, stab
  sh3add t2, a0, t2
  ld t2, 0(t2)
  jr t2
s0:
  li a0, 1
  ret
s1:
  li a0, 2
  ret
s2:
  li a0, 3
  j sdflt
s3:
  li a0, 4
sdflt:
  ret
.type words, @function
words:
  li t1, 3
  bltu a0, t1, wok
  li a0, 0
  ret
wok:
  slli t0, a0, 2
  la t2, wtab
  add t2, t0, t2
  lwu t2, 0(t2)
  jr t2
w0:
  li a0, 5
  ret
w1:
  li a0, 6
  ret
w2:
  li a0, 7
  ret
.type unbounded, @function
unbounded:
  slli t0, a0, 3
  la t2, utab
  add t2, t2, t0
  ld t2, 0(t2)
  jr t2
u0:
  li a0, 8
  ret
u1:
  li a0, 9
  ret
.type viat0, @function
viat0:
  mv t0, ra
  jal t0, leaf2
  mv ra, t0
  jr a0
.type leaf2, @function
leaf2:
  jr t0
.data
.align 3
stab:
  .dword s0
  .dword s1
  .dword s2
  .dword s3
wtab:
  .word w0
  .word w1
  .word w2
.align 3
utab:
  .dword u0
  .dword u1
  .dword 0
fptr:
  .dword leaf
"""


def binaries():
    """name -> ELF bytes for every pinned binary."""
    out = {}
    for name in WORKLOADS:
        src = getattr(workloads, name + "_source")()
        out[name] = compile_to_elf(src)
        out[name + "-c"] = compile_to_elf(src, Options(compress=True))
    out["wide200"] = compile_to_elf(wide_source(),
                                    Options(tail_calls=True))
    out["switches"] = compile_to_elf(switch_heavy_source())
    out["shapes"] = write_program(assemble(SHAPES_ASM, arch=RVA23_SUBSET))
    return out


def cfg_digest(elf: bytes) -> str:
    co = parse_binary(Symtab.from_bytes(elf))
    h = hashlib.sha256()
    for entry in sorted(co.functions):
        fn = co.functions[entry]
        h.update(f"F {fn.name} {entry:#x}\n".encode())
        for start in sorted(fn.blocks):
            b = fn.blocks[start]
            h.update(f" B {b.start:#x} {b.end:#x}\n".encode())
            for e in b.out_edges:
                h.update(f"  E {e.kind.value} {e.target} {e.resolved}\n"
                         .encode())
        h.update(f" J {sorted(fn.jump_tables.items())}\n".encode())
        h.update(f" U {fn.unresolved}\n".encode())
    return h.hexdigest()


#: computed before constant resolution moved onto the SAIL evaluator;
#: ``shapes`` since the backward slice follows the CFG, which gives
#: ``words`` its 3-entry table and marks ``unbounded``'s guessed table
#: unresolved
PINNED = {
    "crc": "5b5630a1eca55c82f0a807c75afcecef72069551e6e5c1e1f7044eb5f2a49ca2",
    "crc-c": "4f80746a59836ab3377eec66ef222e6a908e2fce12431948e4202c647d0b5b54",
    "fib": "754dd2317d3048227059cb237472e4b791eb0e1a915fb98cdba9ea55d965334e",
    "fib-c": "63825939ff2b06268beb47cba7c3cd821d3f003ca3c3736098dde23dd3cdb74b",
    "linked_list": "9dd786414c28d72199b3a406dc48dc39bcc06dd7e6575817b56f4c43c3d47238",
    "linked_list-c": "aa028104b35d7941a225bb1295bd00366437b60674428194768c36ea8569683b",
    "matmul": "315db3301ab1d9bf7436640cb6e40c3b5c38242a680485bf0c529fdd3817377d",
    "matmul-c": "ee4745168a2edc37fd6dd7b894f1a17eb11d6b861d128f5089ae8bec638fa525",
    "nbody": "8da43f75d0f3db26d7ccc89b37e3d7863510d601a372bccf56b5d6ebfee20591",
    "nbody-c": "0f3d61d062642909eccab91acbdff54f87750a9e9e9069f71f0520def1ef27a4",
    "qsort": "5b76105bce13550deae2a5c3057e29d8153b23c0716347270d44e945eacb9094",
    "qsort-c": "b12b7818aa7c9530f617804c06ab31cdd588b58ef083d7b94d45686fd55de6bf",
    "shapes": "5079899a52f4e1717f24c6a4b799aac92f4d878baf931700d5856a9cbc3a4a26",
    "switch": "fea46fc7776eb951a71ecd4f8c008a6873eefab8591b4ac277d64926b41d2692",
    "switch-c": "873ee99f9c20c5a9f756c2703539759fe769770811a5c2b923bf82c32693d8a9",
    "switches": "6cabaf936a9f642d98d970a5e02d6a345a81a91b48adf8e1163ebaea13d6e892",
    "tailcall": "922388b12515215d3810c5c33e808e51e2fa271d7c8b18acf3d6fe718aac3c49",
    "tailcall-c": "4b1c1c3ac4c8ada952843c90ce882819ee6ba4fcc4dc01f904dd8f3e7182b55c",
    "wide200": "7e6139b8c59b2951e689e60ff37a3eb66bed1120488ef861c2eaa750ac138f8b",
}


@pytest.fixture(scope="module")
def elves():
    return binaries()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cfg_is_pinned(elves, name):
    assert cfg_digest(elves[name]) == PINNED[name]


def test_pinned_binaries_exercise_the_analyses(elves):
    """The pinned set holds jump tables, tail calls, and resolved and
    unresolved indirect flow, so the digests see each analysis."""
    def total(name, attr):
        co = parse_binary(Symtab.from_bytes(elves[name]))
        return sum(len(getattr(fn, attr)) for fn in co.functions.values())

    assert total("switches", "jump_tables") >= 16
    assert total("wide200", "blocks") > 1000
    assert total("wide200", "tail_callees") >= 40
    assert total("shapes", "jump_tables") >= 2
    assert total("shapes", "unresolved") >= 1


def test_guessed_table_is_unresolved(elves):
    """``unbounded`` reads its table with no bounds check.  The scan
    keeps the entries up to the first that is not code, but that is a
    guess (index 3 runs past them into ``fptr``), so the jump is listed
    as unresolved too, its edges say so, and liveness keeps every
    register live there."""
    from repro.dataflow import analyze_liveness
    from repro.parse import EdgeType

    co = parse_binary(Symtab.from_bytes(elves["shapes"]))
    fn = co.function_by_name("unbounded")
    (site, targets), = fn.jump_tables.items()
    assert len(targets) == 2
    assert fn.unresolved == [site]
    block = fn.block_at(site)
    indirect = [e for e in block.out_edges if e.kind is EdgeType.INDIRECT]
    assert sorted(e.target for e in indirect) == targets
    assert not any(e.resolved for e in indirect)
    assert analyze_liveness(fn).dead_before(site) == []
