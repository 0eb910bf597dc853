"""Timing cache models.

These caches track only tags and replacement state — data values live
in :class:`~repro.memory.backing.SparseMemory`.  This is the standard
trace-driven split: functional state and timing state are decoupled,
which keeps the simulator fast while preserving hit/miss behaviour.

Two models are provided:

* :class:`Cache` — generic set-associative, LRU, write-through with
  no-allocate-on-write (the Leon3 L1 policy, Section V-A).
* :class:`MetadataCache` — the FlexCore meta-data cache (Section
  III-D): identical to a regular data cache except writes carry a
  32-bit *write-enable bit mask* so the fabric can update tags smaller
  than a word without a read-modify-write sequence.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheConfig:
    """Geometry of one cache."""

    size_bytes: int = 32 * 1024
    line_bytes: int = 32
    associativity: int = 4

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must divide evenly into sets")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Complement of :attr:`miss_rate` (1.0 when never accessed)."""
        return 1.0 - self.miss_rate


class Cache:
    """Set-associative, LRU, write-through, no-allocate timing cache."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        # Geometry is fixed at construction; the lookups read these
        # copies rather than re-deriving them from the config.
        self._num_sets = self.config.num_sets
        self._associativity = self.config.associativity
        # Per-set list of resident line tags, most recently used last.
        self._sets: list[list[int]] = [
            [] for _ in range(self._num_sets)
        ]
        line = self.config.line_bytes
        self._offset_bits = line.bit_length() - 1

    def _locate(self, addr: int) -> tuple[list[int], int]:
        line_addr = addr >> self._offset_bits
        return self._sets[line_addr % self._num_sets], line_addr

    def read(self, addr: int) -> bool:
        """Look up ``addr`` for a read; fill on miss. Returns hit?"""
        tag = addr >> self._offset_bits
        ways = self._sets[tag % self._num_sets]
        if ways and ways[-1] == tag:
            # MRU hit: the LRU order is already right.
            self.stats.read_hits += 1
            return True
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.read_hits += 1
            return True
        self.stats.read_misses += 1
        ways.append(tag)
        if len(ways) > self._associativity:
            ways.pop(0)
        return False

    def write(self, addr: int) -> bool:
        """Look up ``addr`` for a write.  Write-through/no-allocate:
        a miss does not fill the line.  Returns hit?"""
        tag = addr >> self._offset_bits
        ways = self._sets[tag % self._num_sets]
        if ways and ways[-1] == tag:
            self.stats.write_hits += 1
            return True
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.write_hits += 1
            return True
        self.stats.write_misses += 1
        return False

    def contains(self, addr: int) -> bool:
        ways, tag = self._locate(addr)
        return tag in ways

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing): resident tags *and*
    # LRU order are state — a restored run must hit and miss exactly
    # like the uninterrupted one.

    def snapshot_state(self) -> dict:
        return {
            "sets": [list(ways) for ways in self._sets],
            "stats": vars(self.stats).copy(),
        }

    def restore_state(self, state: dict) -> None:
        sets = state["sets"]
        if len(sets) != len(self._sets):
            raise ValueError(
                f"cache snapshot has {len(sets)} sets, this cache "
                f"has {len(self._sets)}"
            )
        for ways, saved in zip(self._sets, sets):
            ways[:] = saved
        self.stats = CacheStats(**state["stats"])


#: Default meta-data cache geometry from the paper's evaluation:
#: "a 4-KB meta-data cache with 32-B lines".
META_CACHE_CONFIG = CacheConfig(size_bytes=4 * 1024, line_bytes=32,
                                associativity=4)


class MetadataCache(Cache):
    """The meta-data L1 with bit-granular writes.

    Functionally the bit mask lives in the extension's tag store; here
    we account for the *structural* benefit: a masked write is a single
    cache access, whereas without the feature the fabric would need an
    explicit read followed by a write (two accesses) for any tag
    narrower than a word.  ``bit_writes`` counts how many accesses the
    mask feature saved, which the ablation bench reports.
    """

    def __init__(self, config: CacheConfig | None = None):
        super().__init__(config or META_CACHE_CONFIG)
        self.bit_writes = 0

    def write_bits(self, addr: int, mask: int) -> bool:
        """A masked (sub-word) tag write.  Returns hit?"""
        if not 0 <= mask <= 0xFFFFFFFF:
            raise ValueError("write-enable mask must be a 32-bit value")
        if mask != 0xFFFFFFFF:
            self.bit_writes += 1
        return self.write(addr)

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["bit_writes"] = self.bit_writes
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.bit_writes = state["bit_writes"]
