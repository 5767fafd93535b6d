"""Parallel function parsing (paper §2.1: "a fast parallel algorithm").

Dyninst parses functions concurrently with a work-stealing scheduler; the
Python port mirrors the structure with a thread pool over independent
function entries.  Each worker parses into a *private* CodeObject (no
shared-state locking on the hot path), and the results are merged — the
same partition/merge design, even though CPython's GIL limits the
wall-clock win (the ablation benchmark reports honest numbers).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..symtab.symtab import Symtab
from .parser import CodeObject


def parse_binary_parallel(symtab: Symtab, workers: int = 4,
                          gap_parsing: bool = True) -> CodeObject:
    """Parse all symbol-known functions across *workers* threads and
    merge into one CodeObject."""
    entries = [(s.address, s.name) for s in symtab.function_symbols()]
    if symtab.is_code(symtab.entry) and not any(
            a == symtab.entry for a, _ in entries):
        entries.append((symtab.entry, "_entry"))
    if not entries:
        return CodeObject(symtab).parse(gap_parsing=gap_parsing)

    def parse_one(item: tuple[int, str]) -> CodeObject:
        addr, name = item
        co = CodeObject(symtab)
        co._names[addr] = name
        fn = co._parse_function(addr)
        co.functions[addr] = fn
        # Chase locally-discovered callees so each unit is self-contained.
        work = sorted(fn.callees | fn.tail_callees)
        while work:
            a = work.pop()
            if a in co.functions or not symtab.is_code(a):
                continue
            sub = co._parse_function(a)
            co.functions[a] = sub
            work.extend(sorted(sub.callees | sub.tail_callees))
        return co

    merged = CodeObject(symtab)
    for addr, name in entries:
        merged._names.setdefault(addr, name)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(parse_one, entries))

    for co in results:
        for addr, fn in co.functions.items():
            merged.functions.setdefault(addr, fn)
        for start, block in co.blocks.items():
            if start not in merged.blocks:
                merged.blocks[start] = block
    merged._block_starts = sorted(merged.blocks)
    if gap_parsing:
        from .gaps import parse_gaps

        parse_gaps(merged)
    merged.finalize_in_edges()
    return merged
