"""Timing caches: geometry, LRU, write-through/no-allocate, bit writes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import (
    META_CACHE_CONFIG,
    Cache,
    CacheConfig,
    MetadataCache,
)


def small_cache(assoc=2, sets=4, line=32):
    return Cache(CacheConfig(size_bytes=assoc * sets * line,
                             line_bytes=line, associativity=assoc))


class TestGeometry:
    def test_num_sets(self):
        config = CacheConfig(32 * 1024, 32, 4)
        assert config.num_sets == 256

    def test_paper_meta_cache(self):
        assert META_CACHE_CONFIG.size_bytes == 4096
        assert META_CACHE_CONFIG.line_bytes == 32

    def test_uneven_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 32, 3)


class TestReadBehaviour:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.read(0x100)
        assert cache.read(0x100)

    def test_same_line_hits(self):
        cache = small_cache()
        cache.read(0x100)
        assert cache.read(0x11F)  # same 32-byte line
        assert not cache.read(0x120)  # next line

    def test_lru_eviction(self):
        cache = small_cache(assoc=2, sets=1)
        cache.read(0x000)
        cache.read(0x020)
        cache.read(0x040)  # evicts 0x000
        assert not cache.read(0x000)

    def test_lru_updated_on_hit(self):
        cache = small_cache(assoc=2, sets=1)
        cache.read(0x000)
        cache.read(0x020)
        cache.read(0x000)  # refresh
        cache.read(0x040)  # evicts 0x020, not 0x000
        assert cache.read(0x000)
        assert not cache.read(0x020)

    def test_set_indexing_no_conflict(self):
        cache = small_cache(assoc=1, sets=4)
        cache.read(0x000)
        cache.read(0x020)  # different set
        assert cache.read(0x000)


class TestWriteBehaviour:
    def test_write_miss_does_not_allocate(self):
        cache = small_cache()
        cache.write(0x100)
        assert not cache.read(0x100)  # still a miss: no-allocate

    def test_write_hit_after_read_fill(self):
        cache = small_cache()
        cache.read(0x100)
        assert cache.write(0x100)

    def test_stats(self):
        cache = small_cache()
        cache.read(0x100)
        cache.read(0x100)
        cache.write(0x100)
        cache.write(0x500)
        stats = cache.stats
        assert (stats.read_misses, stats.read_hits) == (1, 1)
        assert (stats.write_hits, stats.write_misses) == (1, 1)
        assert stats.accesses == 4
        assert stats.miss_rate == 0.5

    def test_flush(self):
        cache = small_cache()
        cache.read(0x100)
        cache.flush()
        assert not cache.contains(0x100)


class TestMetadataCache:
    def test_bit_write_counted(self):
        cache = MetadataCache()
        cache.write_bits(0x100, 0x0000000F)
        cache.write_bits(0x100, 0xFFFFFFFF)  # full-word write: not masked
        assert cache.bit_writes == 1

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            MetadataCache().write_bits(0, 1 << 32)

    def test_write_through_semantics(self):
        cache = MetadataCache()
        assert not cache.write_bits(0x40, 0xF)
        cache.read(0x40)
        assert cache.write_bits(0x40, 0xF)

    def test_sets_survive_restore(self):
        """The interface's timing port binds the cache's lookups once,
        so restore must update every set list in place."""
        cache = MetadataCache()
        sets = cache._sets
        ways = list(sets)
        cache.read(0x40)
        state = cache.snapshot_state()
        cache.read(0x1040)
        cache.restore_state(state)
        assert cache._sets is sets
        assert all(a is b for a, b in zip(cache._sets, ways))
        assert cache.contains(0x40) and not cache.contains(0x1040)

    def test_core_cache_sets_survive_restore_and_flush(self):
        """The fast engine's fetch and load handlers bind a set list
        of the I- and D-cache each, so restore and flush must update
        every set list in place."""
        cache = small_cache()
        ways = list(cache._sets)
        cache.read(0x100)
        state = cache.snapshot_state()
        cache.read(0x200)
        cache.restore_state(state)
        assert all(a is b for a, b in zip(cache._sets, ways))
        assert cache.contains(0x100) and not cache.contains(0x200)
        cache.flush()
        assert all(a is b for a, b in zip(cache._sets, ways))
        assert not any(ways)


@st.composite
def access_sequences(draw):
    ops = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, 64)),
        min_size=1, max_size=200,
    ))
    return [(is_read, line * 32) for is_read, line in ops]


@settings(max_examples=50)
@given(access_sequences())
def test_property_matches_reference_lru_model(sequence):
    """The cache agrees with an obviously-correct reference LRU model."""
    config = CacheConfig(size_bytes=4 * 4 * 32, line_bytes=32,
                         associativity=4)
    cache = Cache(config)
    reference: dict[int, list[int]] = {s: [] for s in range(4)}

    for is_read, addr in sequence:
        line = addr // 32
        set_index = line % 4
        ways = reference[set_index]
        expected_hit = line in ways
        if is_read:
            assert cache.read(addr) == expected_hit
            if expected_hit:
                ways.remove(line)
            ways.append(line)
            if len(ways) > 4:
                ways.pop(0)
        else:
            assert cache.write(addr) == expected_hit
            if expected_hit:
                ways.remove(line)
                ways.append(line)
