"""Every commit PatchAPI builds, pinned by sha256.

The digests cover what a commit decides: the patched ``text``, the
``trampoline_code``, the sorted ``trap_map``, the ``patched_ranges`` and
every :class:`PatchStats` field, or the :class:`PatchError` it raises.
The corpus is the MiniC workload suite, plain and compressed, under nine
point mixes (one counter per function) and one control-flow mix (a
``replace_call`` and two ``delete_instruction``s, one carrying a
snippet), each under five option sets that between them reach every
springboard rung.  Any change to the springboard ladder, relocation,
trampoline layout or scratch planning that moves a byte fails here.

The digests were computed before the ladder moved into
``build_springboard`` and edge points onto the relocated branch.  Only
the ``no-dead-regs`` column differs from that tree: a snippet-less
delete no longer wraps a spill frame around nothing
(:func:`test_snippetless_delete_is_relocation_only`).
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.api import InstrumentOptions, analyze, open_binary
from repro.codegen import IncrementVar
from repro.minicc import Options, compile_to_elf, workloads
from repro.patch import (
    PatchError, PointType, branch_edges, consumed_instructions,
    instruction_point, loop_backedges, points_for,
)
from repro.riscv.encoder import encode, encode_fields
from repro.riscv.opcodes import by_mnemonic

WORKLOADS = ("matmul", "fib", "switch", "qsort", "nbody", "crc",
             "linked_list", "tailcall")


def _kind(ptype):
    return lambda fn: points_for(fn, ptype)


#: mix name -> points of one function (each function gets one counter)
MIXES = {
    "entry": _kind(PointType.FUNC_ENTRY),
    "exit": _kind(PointType.FUNC_EXIT),
    "call": _kind(PointType.CALL_SITE),
    "block": _kind(PointType.BLOCK_ENTRY),
    "backedge": loop_backedges,
    "taken": lambda fn: branch_edges(fn, True),
    "not-taken": lambda fn: branch_edges(fn, False),
    "edges": lambda fn: branch_edges(fn, True) + branch_edges(fn, False),
    "block+edges": lambda fn: (points_for(fn, PointType.BLOCK_ENTRY)
                               + branch_edges(fn, True)
                               + branch_edges(fn, False)),
}


def _top(analysis) -> int:
    return max(r.end for r in analysis.symtab.regions)


def _text_end(analysis) -> int:
    text = next(r for r in analysis.symtab.regions if r.executable)
    return (text.end + 15) & ~15


#: option-set name -> InstrumentOptions for one analysed binary.
#: ``text-end`` puts the trampolines right after ``.text``, where the
#: compressed binaries' 2-byte slots take ``c.j``; 64 MiB and 1 GiB
#: away, sites with 16 bytes left take ``auipc``+``jalr`` and the rest
#: trap.
OPTIONS = {
    "default": lambda a: InstrumentOptions(),
    "no-dead-regs": lambda a: InstrumentOptions(use_dead_registers=False),
    "far-64m": lambda a: InstrumentOptions(
        patch_base=((_top(a) + 0xFFF) & ~0xFFF) + (64 << 20)),
    "far-1g": lambda a: InstrumentOptions(
        patch_base=((_top(a) + 0xFFF) & ~0xFFF) + (1 << 30)),
    "text-end": lambda a: InstrumentOptions(patch_base=_text_end(a),
                                            data_size=0x100),
}


def binaries() -> dict[str, bytes]:
    out = {}
    for name in WORKLOADS:
        src = getattr(workloads, name + "_source")()
        out[name] = compile_to_elf(src)
        out[name + "-c"] = compile_to_elf(src, Options(compress=True))
    return out


def _control_flow(edit) -> None:
    """Retarget ``main``'s first call to the last function, delete
    ``main``'s first instruction, and replace the first instruction of
    its last block with a counter."""
    main = edit.function("main")
    last = max(edit.functions(), key=lambda f: f.entry)
    edit.replace_call(points_for(main, PointType.CALL_SITE)[0], last)
    edit.delete_instruction(instruction_point(main, main.entry))
    tail = max(main.blocks.values(), key=lambda b: b.start)
    point = instruction_point(main, tail.start)
    edit.delete_instruction(point)
    edit.insert(point, IncrementVar(edit.allocate_variable("tail")))


def commit(analysis, options, mix):
    """One configuration's :class:`PatchResult`, or the
    :class:`PatchError` it raised."""
    edit = open_binary(analysis, options)
    if mix == "control-flow":
        _control_flow(edit)
    else:
        for fn in edit.functions():
            points = MIXES[mix](fn)
            if points:
                var = edit.allocate_variable(f"n_{fn.entry:x}")
                edit.insert(points, IncrementVar(var))
    try:
        return edit.commit()
    except PatchError as exc:
        return exc


def digest(outcome) -> str:
    h = hashlib.sha256()
    if isinstance(outcome, PatchError):
        h.update(f"{type(outcome).__name__}: {outcome}".encode())
        return h.hexdigest()
    h.update(outcome.text)
    h.update(outcome.trampoline_code)
    h.update(repr(sorted(outcome.trap_map.items())).encode())
    h.update(repr(outcome.patched_ranges).encode())
    stats = astuple(outcome.stats)
    h.update(repr([sorted(v.items()) if isinstance(v, dict) else v
                   for v in stats]).encode())
    return h.hexdigest()


def binary_digests(elf: bytes, springboards=None) -> dict[str, str]:
    """Option-set name -> one sha256 over every mix's commit (16 hex
    digits).  *springboards*, a set, collects the rungs taken."""
    analysis = analyze(elf, store=False)
    out = {}
    for opt_name, make in OPTIONS.items():
        options = make(analysis)
        h = hashlib.sha256()
        for mix in (*MIXES, "control-flow"):
            outcome = commit(analysis, options, mix)
            h.update(f"{mix} {digest(outcome)}\n".encode())
            if springboards is not None and not isinstance(
                    outcome, PatchError):
                springboards.update(outcome.stats.springboards)
        out[opt_name] = h.hexdigest()[:16]
    return out


#: binary -> digests in OPTIONS order
PINNED = {
    "crc": ("868f862a529db335", "c3aa353e3d0bc224", "4ccf1dac5ab19b8d",
           "17d7cab448ab4bca", "c493d53bf54e65b2"),
    "crc-c": ("16959cc848e2d2eb", "c352202f81249f55", "ba57398fb6448233",
             "06fddd5eaffc38e4", "df919f89aa1a7f98"),
    "fib": ("f10ce0d7d576fe2f", "63b3343dfac92443", "daaf3d1ea6bd0e8e",
           "4f47bfa3bc76cecf", "d20f1554544f8117"),
    "fib-c": ("0842acd8573aeacc", "55d127c7e15ea064", "e7ff2f168cda954d",
             "dfc588f3d133f1e5", "a054d72494ea6a6c"),
    "linked_list": ("223d52416dd9c427", "132a1172a6f8253d", "490c64be926b87c5",
                   "63703ab3423b643c", "74e38f884c5fa24c"),
    "linked_list-c": ("a38534f0d7ab6805", "d8778e718b387178", "b9abb99464e3d51e",
                     "0bc0b4f0fff18931", "78b0ab9fa74ebf1e"),
    "matmul": ("1706c92808625ab5", "67ab5bb4fcebcb94", "ce23e29c65e5fdd6",
              "eb3e50b2582db6e9", "c5a718d6018dbbe2"),
    "matmul-c": ("6937be3a640320d2", "48712167e6175dad", "b955e0c5dc894a8c",
                "39f8c4767853e0b3", "1dd23bc72e4bbbbf"),
    "nbody": ("7fac089dd328bb19", "093788f4e50e606d", "ee6a1d6dd8005ef2",
             "7d011f72f499c0d6", "cb9a4fad338900ab"),
    "nbody-c": ("81459e5e36a48248", "96895c5c8389200b", "3e6bbfc0fc4119e7",
               "7c0de9f28324e483", "cceb3c718e0a53d1"),
    "qsort": ("43389fef04c7409b", "4bc437df232ddf07", "540a74e80a8c467d",
             "89a1bbc387667753", "0162ed59f6753501"),
    "qsort-c": ("4814e687dbe03b74", "b87cfb46d94c3920", "d7e3d5b2f7ba3267",
               "dee1503efd32c280", "2933e6cf934eeadd"),
    "switch": ("d28577d1039aa17a", "66f81342b671674a", "10ed363f4c0b46a1",
              "b34c9d7fc59c3dbf", "74b0f81f94f19da8"),
    "switch-c": ("d20d09197848ed48", "9eb0ab3bfa92a39e", "4c4ccc17b37fe82a",
                "b3cbf0122782a500", "58ff9c38961c2b42"),
    "tailcall": ("5901958cef92b134", "86acb8ef88f58545", "30a1f3c6bdbc4e9d",
                "ecf0dacb6e35c30b", "0e91b5cf1bbb3c9d"),
    "tailcall-c": ("eb271aa799b5b81c", "514569481ef73dea", "e8e32342144e3dde",
                  "e5f7538755196cc9", "c27ce8965319176b"),
}


@pytest.fixture(scope="module")
def elves():
    return binaries()


@pytest.fixture(scope="module")
def reached():
    return set()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_commits_are_pinned(elves, reached, name):
    got = binary_digests(elves[name], reached)
    assert tuple(got.values()) == PINNED[name], got


def test_corpus_reaches_every_springboard(elves, reached):
    if len(reached) < 4:   # the pin tests were deselected
        for elf in elves.values():
            binary_digests(elf, reached)
    assert reached == {"jal", "c.j", "auipc+jalr", "trap"}


def test_snippetless_delete_is_relocation_only(elves):
    """Under spill-backed scratch, a delete with no snippet still plans
    (and counts) its spill, but its trampoline is the rest of the
    displaced run and the jump back."""
    analysis = analyze(elves["fib-c"], store=False)
    for entry in (True, False):
        edit = open_binary(analysis,
                           InstrumentOptions(use_dead_registers=False))
        main = edit.function("main")
        block = (main.entry_block if entry else
                 max(main.blocks.values(), key=lambda b: b.start))
        site = block.start
        edit.delete_instruction(instruction_point(main, site))
        res = edit.commit()
        assert res.stats.spilled_regs == 2
        assert res.stats.springboards == {"jal": 1}
        consumed = consumed_instructions(block.insns, site, 4)
        resume = site + sum(i.length for i in consumed)
        kept = b"".join(
            encode_fields(by_mnemonic(i.mnemonic), i.raw.fields)
            .to_bytes(4, "little") for i in consumed[1:])
        back = res.trampoline_base + len(kept)
        code = kept + encode("jal", rd=0, imm=resume - back).to_bytes(
            4, "little")
        assert res.trampoline_code == code.ljust(16, b"\0")
