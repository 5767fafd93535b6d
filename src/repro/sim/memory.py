"""Sparse paged memory for the RV64GC simulator.

4 KiB pages in a dict, with a one-entry page cache for the common case of
consecutive accesses to the same page.  Mapping a region only *reserves*
its pages: a page's zero-filled ``bytearray`` is created on first access,
so an 8 MiB stack costs nothing until the mutatee touches it.  Accesses
to unmapped addresses raise :class:`MemoryFault` — catching wild pointers
early matters more here than graceful degradation, since the simulator
is the testbed for instrumentation correctness.

A value is read from or written to a page in place, through one table
of precompiled little-endian :class:`struct.Struct` accessors: the
interpreter's :meth:`Memory.read_int`/:meth:`Memory.write_int` and the
fast paths compiled traces generate both use it.
"""

from __future__ import annotations

import struct

from .. import faults
from ..errors import ReproError

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

#: Precompiled little-endian page accessors: an unsigned integer of 1,
#: 2, 4 or 8 bytes under its size, a double under ``"d"``.  Read with
#: ``unpack_from(page, off)[0]``, write with ``pack_into(page, off, v)``
#: (an integer must already fit its size).
ACCESSORS: dict = {key: struct.Struct(fmt) for key, fmt in (
    (1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"), ("d", "<d"))}
UNPACK = {key: s.unpack_from for key, s in ACCESSORS.items()}
PACK = {key: s.pack_into for key, s in ACCESSORS.items()}


class MemoryFault(ReproError):
    """Access to an unmapped address."""

    def __init__(self, addr: int, kind: str = "access"):
        super().__init__(f"memory {kind} fault at {addr:#x}")
        self.addr = addr
        self.kind = kind


class Memory:
    """Sparse byte-addressable memory."""

    __slots__ = ("_pages", "_reserved", "_cache_idx", "_cache_page",
                 "_watch_pages", "_watch_ranges", "_watch_cb")

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        #: mapped pages not yet accessed: they read as zeros and get
        #: their ``bytearray`` on first access (disjoint from _pages)
        self._reserved: set[int] = set()
        self._cache_idx = -1
        self._cache_page: bytearray | None = None
        # write-range notification (code-write detection): callback fired
        # after any write overlapping a watched range.  _watch_pages
        # holds the index of every page a range touches, so the hot-path
        # store check is one set lookup, and a data page lying between
        # two code ranges is not watched.  The set is updated in place:
        # compiled traces bind it once and test literal page numbers.
        self._watch_pages: set[int] = set()
        self._watch_ranges: list[tuple[int, int]] = []
        self._watch_cb = None

    # -- write-range notification -----------------------------------------

    def set_write_watch(self, ranges, callback) -> None:
        """Notify *callback(addr, size)* after every write overlapping
        one of *ranges* ([lo, hi) pairs).  The machine registers its
        executable ranges here so code writes (self-modifying stores,
        runtime patching, breakpoint insertion) invalidate compiled
        instructions and traces.  Pass ``callback=None`` to clear."""
        self._watch_ranges = [(lo, hi) for lo, hi in ranges]
        self._watch_cb = callback if self._watch_ranges else None
        pages = self._watch_pages
        pages.clear()
        if self._watch_cb is not None:
            for lo, hi in self._watch_ranges:
                pages.update(range(lo >> PAGE_BITS,
                                   ((hi - 1) >> PAGE_BITS) + 1))

    def _notify_write(self, addr: int, n: int) -> None:
        """A write touched a watched page: fire the callback if it
        overlaps a watched range (the page may hold data too)."""
        end = addr + n
        for lo, hi in self._watch_ranges:
            if addr < hi and end > lo:
                self._watch_cb(addr, n)
                return

    # -- mapping --------------------------------------------------------

    def map_region(self, base: int, size: int) -> None:
        """Map [base, base+size): pages not mapped yet are reserved and
        read as zeros until first access creates them."""
        faults.site("sim.memory.map")
        first = base >> PAGE_BITS
        last = (base + size - 1) >> PAGE_BITS
        self._reserved.update(range(first, last + 1))
        self._reserved.difference_update(self._pages)

    def is_mapped(self, addr: int) -> bool:
        idx = addr >> PAGE_BITS
        return idx in self._pages or idx in self._reserved

    def mapped_pages(self) -> int:
        return len(self._pages) + len(self._reserved)

    # -- write-ahead journal support (repro.patch.transaction) ------------

    def capture_pages(self, base: int,
                      size: int) -> list[tuple[int, bytes | None]]:
        """Journal helper: ``(page index, content copy | None)`` for
        every page overlapping ``[base, base+size)`` — ``None`` marks a
        page that does not exist yet (so a rollback knows to unmap it
        rather than zero it).  Reserved pages are created first, so a
        rollback restores them as zeros."""
        first = base >> PAGE_BITS
        last = (base + size - 1) >> PAGE_BITS
        pages = self._pages
        for idx in self._reserved.intersection(range(first, last + 1)):
            self._reserved.discard(idx)
            pages[idx] = bytearray(PAGE_SIZE)
        return [
            (idx, bytes(pages[idx]) if idx in pages else None)
            for idx in range(first, last + 1)
        ]

    def restore_pages(self, captured) -> None:
        """Bit-identical restore of :meth:`capture_pages` records:
        rewrite surviving pages in place, recreate deleted ones, unmap
        pages that did not exist at capture time.  Bypasses the write
        watch — callers invalidate the affected code ranges explicitly
        (see the trace-cache invalidation rules in docs/INTERNALS.md).
        """
        pages = self._pages
        for idx, content in captured:
            if content is None:
                pages.pop(idx, None)
                self._reserved.discard(idx)
            else:
                page = pages.get(idx)
                if page is None:
                    pages[idx] = bytearray(content)
                else:
                    page[:] = content
        # the one-entry page cache may reference an unmapped page
        self._cache_idx = -1
        self._cache_page = None

    def page_content(self, idx: int) -> bytes | None:
        """Current content of page *idx* (``None`` if unmapped) — the
        read side of rollback verification."""
        page = self._pages.get(idx)
        if page is not None:
            return bytes(page)
        return bytes(PAGE_SIZE) if idx in self._reserved else None

    # -- raw byte access -------------------------------------------------

    def _page(self, idx: int, addr: int) -> bytearray:
        if idx == self._cache_idx:
            return self._cache_page  # type: ignore[return-value]
        page = self._pages.get(idx)
        if page is None:
            if idx not in self._reserved:
                raise MemoryFault(addr)
            self._reserved.discard(idx)
            page = self._pages[idx] = bytearray(PAGE_SIZE)
        self._cache_idx = idx
        self._cache_page = page
        return page

    def read_bytes(self, addr: int, n: int) -> bytes:
        idx = addr >> PAGE_BITS
        off = addr & PAGE_MASK
        if off + n <= PAGE_SIZE:
            return bytes(self._page(idx, addr)[off:off + n])
        out = bytearray()
        while n > 0:
            idx = addr >> PAGE_BITS
            off = addr & PAGE_MASK
            chunk = min(n, PAGE_SIZE - off)
            out += self._page(idx, addr)[off:off + chunk]
            addr += chunk
            n -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        faults.site("sim.memory.write")
        n = len(data)
        base = addr
        pos = 0
        watched = False
        while pos < n:
            idx = addr >> PAGE_BITS
            off = addr & PAGE_MASK
            chunk = min(n - pos, PAGE_SIZE - off)
            self._page(idx, addr)[off:off + chunk] = data[pos:pos + chunk]
            watched = watched or idx in self._watch_pages
            addr += chunk
            pos += chunk
        if watched:
            self._notify_write(base, n)

    # -- integer access (little-endian) ----------------------------------

    def read_int(self, addr: int, size: int) -> int:
        idx = addr >> PAGE_BITS
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:
            # hand-inlined _page(): this is the simulator's hottest call
            page = self._cache_page if idx == self._cache_idx \
                else self._page(idx, addr)
            try:
                return UNPACK[size](page, off)[0]
            except KeyError:  # not 1, 2, 4 or 8 bytes wide
                pass
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        value &= (1 << (8 * size)) - 1
        idx = addr >> PAGE_BITS
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = self._cache_page if idx == self._cache_idx \
                else self._page(idx, addr)
            try:
                PACK[size](page, off, value)
            except KeyError:  # not 1, 2, 4 or 8 bytes wide
                pass
            else:
                if idx in self._watch_pages:
                    self._notify_write(addr, size)
                return
        self.write_bytes(addr, value.to_bytes(size, "little"))
