"""Functional backing memory.

A sparse, byte-addressable, big-endian (SPARC) 32-bit address space.
The timing side of the memory system (caches, bus, SDRAM latency) is
modelled separately in :mod:`repro.memory.cache` and
:mod:`repro.memory.bus`; this module only stores values.
"""

from __future__ import annotations

import struct

MASK32 = 0xFFFFFFFF
PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1


class MemoryFault(Exception):
    """Raised on a misaligned access."""


class SparseMemory:
    """Byte-addressable sparse memory with big-endian word accessors."""

    def __init__(self):
        self._pages: dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # The byte, half and word accessors index the page dict inline, not
    # through a helper: the fast engine's fused loads and stores bind
    # them, so each access is one call.  A read of an unmapped page
    # allocates it zeroed, as a write does, and addresses wrap at 32
    # bits.

    def read_byte(self, addr: int) -> int:
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        return page[addr & PAGE_MASK]

    def write_byte(self, addr: int, value: int) -> None:
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        page[addr & PAGE_MASK] = value & 0xFF

    def _spans(self, addr: int, length: int):
        """Yield ``(page, offset, size)`` for each page slice of the
        ``length`` bytes at ``addr``, allocating pages as it goes."""
        pages = self._pages
        while length > 0:
            addr &= MASK32
            page = pages.get(addr >> PAGE_BITS)
            if page is None:
                page = pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
            offset = addr & PAGE_MASK
            size = min(length, PAGE_SIZE - offset)
            yield page, offset, size
            addr += size
            length -= size

    def read_bytes(self, addr: int, length: int) -> bytes:
        return b"".join(page[offset:offset + size]
                        for page, offset, size in self._spans(addr, length))

    def write_bytes(self, addr: int, data: bytes) -> None:
        data = bytes(data)
        start = 0
        for page, offset, size in self._spans(addr, len(data)):
            page[offset:offset + size] = data[start:start + size]
            start += size

    # ------------------------------------------------------------------
    # Sized big-endian accessors with SPARC alignment rules.  An
    # aligned access never straddles a page.

    def read_word(self, addr: int) -> int:
        if addr & 3:
            raise MemoryFault(f"misaligned word read at {addr:#x}")
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        o = addr & PAGE_MASK
        return ((page[o] << 24) | (page[o + 1] << 16)
                | (page[o + 2] << 8) | page[o + 3])

    def write_word(self, addr: int, value: int) -> None:
        if addr & 3:
            raise MemoryFault(f"misaligned word write at {addr:#x}")
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        o = addr & PAGE_MASK
        value &= MASK32
        page[o] = value >> 24
        page[o + 1] = (value >> 16) & 0xFF
        page[o + 2] = (value >> 8) & 0xFF
        page[o + 3] = value & 0xFF

    def read_half(self, addr: int) -> int:
        if addr & 1:
            raise MemoryFault(f"misaligned half read at {addr:#x}")
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        o = addr & PAGE_MASK
        return (page[o] << 8) | page[o + 1]

    def write_half(self, addr: int, value: int) -> None:
        if addr & 1:
            raise MemoryFault(f"misaligned half write at {addr:#x}")
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._pages[addr >> PAGE_BITS] = bytearray(PAGE_SIZE)
        o = addr & PAGE_MASK
        value &= 0xFFFF
        page[o] = value >> 8
        page[o + 1] = value & 0xFF

    def load_program(self, program) -> None:
        """Copy an assembled :class:`~repro.isa.assembler.Program`'s
        text and data sections into memory."""
        if program.text:
            if program.text_base & 3:
                raise MemoryFault(
                    f"misaligned word write at {program.text_base:#x}")
            text = [word & MASK32 for word in program.text]
            self.write_bytes(program.text_base,
                             struct.pack(f">{len(text)}I", *text))
        self.write_bytes(program.data_base, program.data)

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).

    _ZERO_PAGE = bytes(PAGE_SIZE)

    def snapshot_state(self, baseline: "SparseMemory | None" = None) -> dict:
        """Capture memory as a sparse delta against ``baseline``.

        Only pages that differ from the baseline image (typically the
        freshly loaded program) are stored, which keeps checkpoints of
        a 4-GB address space at the size of the working set actually
        written.  With no baseline, every non-zero page is stored.
        """
        base_pages = baseline._pages if baseline is not None else {}
        pages: dict[int, bytes] = {}
        for index, page in self._pages.items():
            reference = base_pages.get(index, self._ZERO_PAGE)
            if page != reference:
                pages[index] = bytes(page)
        return {"pages": pages}

    def restore_state(
        self, state: dict, baseline: "SparseMemory | None" = None
    ) -> None:
        """Restore from a delta snapshot: reset to the baseline image,
        then overlay the changed pages.  Mutates in place."""
        self._pages.clear()
        if baseline is not None:
            for index, page in baseline._pages.items():
                self._pages[index] = bytearray(page)
        for index, page in state["pages"].items():
            self._pages[int(index)] = bytearray(page)
