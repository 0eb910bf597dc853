"""Fabric-side meta-data state: shadow register file and memory tags.

Section III-E: "Our reconfigurable fabric also includes an embedded
meta-data register file, which is implemented with custom hardware and
has an 8-bit shadow register for each general-purpose architecture
register in the main core."  The shadow file is indexed by the 9-bit
*physical* register numbers carried in the trace packet, so it tracks
register windows for free.

Memory meta-data is held in a :class:`TagStore` keyed by word address;
its *timing* (the 4-KB meta-data cache, bus refills) is modelled by
:class:`~repro.memory.cache.MetadataCache` in the interface.

Both stores keep one container for life: ``clear`` and
``restore_state`` update it in place, so an extension's fabric ops
may bind it once.  Entry 0 of the shadow file (%g0) is never written,
so it always reads 0.
"""

from __future__ import annotations


class ShadowRegisterFile:
    """Per-physical-register tag storage, up to 8 bits per entry."""

    def __init__(self, num_registers: int, tag_bits: int = 8):
        if not 1 <= tag_bits <= 8:
            raise ValueError("shadow registers hold 1..8 tag bits")
        self.num_registers = num_registers
        self.tag_bits = tag_bits
        self._mask = (1 << tag_bits) - 1
        self._tags = [0] * num_registers

    def read(self, phys_index: int) -> int:
        # Physical register 0 is %g0: always zero, never tagged.
        if phys_index == 0:
            return 0
        return self._tags[phys_index]

    def write(self, phys_index: int, tag: int) -> None:
        if phys_index == 0:
            return
        self._tags[phys_index] = tag & self._mask

    def clear(self) -> None:
        self._tags[:] = [0] * self.num_registers

    def nonzero_count(self) -> int:
        return sum(1 for tag in self._tags if tag)

    def snapshot_state(self) -> dict:
        return {"tags": list(self._tags)}

    def restore_state(self, state: dict) -> None:
        tags = state["tags"]
        if len(tags) != self.num_registers:
            raise ValueError(
                f"shadow snapshot holds {len(tags)} registers, this "
                f"file has {self.num_registers}"
            )
        self._tags[:] = tags


class TagStore:
    """Functional memory meta-data: one tag per 32-bit word.

    ``tag_bits`` is the meta-data width per word (1 for UMC/DIFT,
    8 for BC).  ``meta_address`` maps a data address to the byte
    address of the 32-bit meta-data word holding its tag — the same
    shift-and-add translation the UMC/DIFT/BC prototypes perform
    before accessing the meta-data cache (Section IV-A).
    """

    def __init__(self, tag_bits: int = 1, base: int = 0x4000_0000):
        if tag_bits not in (1, 2, 4, 8):
            raise ValueError("tag width must divide a byte")
        self.tag_bits = tag_bits
        self.base = base
        self._mask = (1 << tag_bits) - 1
        self._tags: dict[int, int] = {}

    def read(self, addr: int) -> int:
        """Tag of the word containing data address ``addr``."""
        return self._tags.get(addr >> 2, 0)

    def write(self, addr: int, tag: int) -> None:
        word = addr >> 2
        tag &= self._mask
        if tag:
            self._tags[word] = tag
        else:
            self._tags.pop(word, None)

    def fill_range(self, start: int, length: int, tag: int) -> None:
        """Tag every word overlapping [start, start+length)."""
        first = start >> 2
        last = (start + max(length, 1) - 1) >> 2
        for word in range(first, last + 1):
            self.write(word << 2, tag)

    def meta_address(self, addr: int) -> int:
        """Byte address of the meta-data *word* holding this tag."""
        word_index = addr >> 2
        tags_per_word = 32 // self.tag_bits
        return self.base + 4 * (word_index // tags_per_word)

    def write_mask(self, addr: int) -> int:
        """The 32-bit write-enable mask a bit-granular meta-data cache
        write would use for this tag (Section III-D)."""
        word_index = addr >> 2
        tags_per_word = 32 // self.tag_bits
        slot = word_index % tags_per_word
        return self._mask << (slot * self.tag_bits)

    def nonzero_count(self) -> int:
        return len(self._tags)

    def snapshot_state(self) -> dict:
        return {"base": self.base, "tags": dict(self._tags)}

    def restore_state(self, state: dict) -> None:
        self.base = state["base"]
        tags = self._tags
        tags.clear()
        tags.update(
            (int(word), tag) for word, tag in state["tags"].items()
        )
