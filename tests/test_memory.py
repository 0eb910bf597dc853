"""Backing memory, shared bus, store buffer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.assembler import Program
from repro.memory.backing import MemoryFault, SparseMemory
from repro.memory.bus import BusConfig, SharedBus, StoreBuffer


class TestSparseMemory:
    def test_default_zero(self):
        assert SparseMemory().read_word(0x1234_5670) == 0

    def test_word_big_endian(self):
        memory = SparseMemory()
        memory.write_word(0x100, 0x11223344)
        assert memory.read_byte(0x100) == 0x11
        assert memory.read_byte(0x103) == 0x44

    def test_half(self):
        memory = SparseMemory()
        memory.write_half(0x100, 0xABCD)
        assert memory.read_half(0x100) == 0xABCD
        assert memory.read_word(0x100) == 0xABCD0000

    def test_misaligned_word(self):
        memory = SparseMemory()
        with pytest.raises(MemoryFault,
                           match="^misaligned word read at 0x101$"):
            memory.read_word(0x101)
        with pytest.raises(MemoryFault,
                           match="^misaligned word write at 0x102$"):
            memory.write_word(0x102, 0)
        assert memory._pages == {}

    def test_misaligned_half(self):
        memory = SparseMemory()
        with pytest.raises(MemoryFault,
                           match="^misaligned half read at 0x101$"):
            memory.read_half(0x101)
        with pytest.raises(MemoryFault,
                           match="^misaligned half write at 0x103$"):
            memory.write_half(0x103, 0)
        assert memory._pages == {}

    def test_cross_page_bytes(self):
        memory = SparseMemory()
        memory.write_bytes(0xFFE, b"\x01\x02\x03\x04")
        assert memory.read_bytes(0xFFE, 4) == b"\x01\x02\x03\x04"

    def test_address_wraps_32_bits(self):
        memory = SparseMemory()
        memory.write_byte(0x1_0000_0000 + 4, 9)
        assert memory.read_byte(4) == 9

    def test_read_allocates_zero_page(self):
        memory = SparseMemory()
        assert memory.read_half(0x5002) == 0
        assert memory._pages == {0x5: bytearray(4096)}

    def test_bytes_wrap_at_32_bits(self):
        memory = SparseMemory()
        memory.write_bytes(0xFFFF_FFFE, b"\x01\x02\x03\x04")
        assert memory.read_bytes(0xFFFF_FFFE, 4) == b"\x01\x02\x03\x04"
        assert memory.read_byte(0xFFFF_FFFF) == 2
        assert memory.read_half(0) == 0x0304
        assert list(memory._pages) == [0xFFFFF, 0]
        assert memory.read_bytes(0x1_0000_0000, 2) == b"\x03\x04"

    def test_load_program_matches_per_byte_writes(self):
        # Text and data both straddle a page; 4097 data bytes are not a
        # whole number of words.
        program = Program(text_base=0x1FF8, data_base=0x2FFE,
                          text=[0x01000000, 0x9DE3BFA0, 0xFFFFFFFF,
                                0x81C7E008, 0x81E80000],
                          data=bytes(range(256)) * 16 + b"\x80")
        loaded = SparseMemory()
        loaded.load_program(program)
        expected = SparseMemory()
        for i, word in enumerate(program.text):
            for j, byte in enumerate(word.to_bytes(4, "big")):
                expected.write_byte(program.text_base + 4 * i + j, byte)
        for i, byte in enumerate(program.data):
            expected.write_byte(program.data_base + i, byte)
        assert list(loaded._pages.items()) == list(expected._pages.items())

    def test_load_program_misaligned_text(self):
        program = Program(text_base=0x1002, data_base=0x3000, text=[1])
        with pytest.raises(MemoryFault,
                           match="^misaligned word write at 0x1002$"):
            SparseMemory().load_program(program)

    @given(st.integers(0, 0xFFFFFFF0), st.integers(0, 0xFFFFFFFF))
    def test_property_word_roundtrip(self, addr, value):
        addr &= ~3
        memory = SparseMemory()
        memory.write_word(addr, value)
        assert memory.read_word(addr) == value

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 1 << 20))
    def test_property_bytes_roundtrip(self, data, addr):
        memory = SparseMemory()
        memory.write_bytes(addr, data)
        assert memory.read_bytes(addr, len(data)) == data


class TestSharedBus:
    def test_idle_bus_starts_immediately(self):
        bus = SharedBus()
        done = bus.acquire(100, 10, "a")
        assert done == 110

    def test_busy_bus_serializes(self):
        bus = SharedBus()
        bus.acquire(0, 10, "a")
        done = bus.acquire(5, 10, "b")
        assert done == 20

    def test_refill_duration(self):
        config = BusConfig(dram_latency=30, word_cycles=1, line_words=8)
        bus = SharedBus(config)
        assert bus.line_refill(0, "a") == 38

    def test_stats_track_wait(self):
        bus = SharedBus()
        bus.acquire(0, 10, "a")
        bus.acquire(0, 10, "b")
        assert bus.stats.wait_cycles["b"] == 10
        assert bus.stats.transactions == {"a": 1, "b": 1}

    def test_reset(self):
        bus = SharedBus()
        bus.acquire(0, 10, "a")
        bus.reset()
        assert bus.busy_until == 0
        assert bus.stats.total_busy == 0

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 50)),
                    min_size=1, max_size=20))
    def test_property_transactions_never_overlap(self, requests):
        bus = SharedBus()
        intervals = []
        for now, duration in sorted(requests):
            end = bus.acquire(now, duration, "x")
            intervals.append((end - duration, end))
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2  # strictly serialized


class TestStoreBuffer:
    def test_no_stall_when_not_full(self):
        buffer = StoreBuffer(SharedBus(), depth=4)
        assert buffer.push(0) == 0

    def test_full_buffer_stalls(self):
        bus = SharedBus(BusConfig(write_cycles=10))
        buffer = StoreBuffer(bus, depth=2)
        assert buffer.push(0) == 0  # drains at 10
        assert buffer.push(0) == 0  # drains at 20
        proceed = buffer.push(0)  # must wait for the first drain
        assert proceed == 10
        assert buffer.stall_cycles == 10

    def test_buffer_drains_over_time(self):
        bus = SharedBus(BusConfig(write_cycles=10))
        buffer = StoreBuffer(bus, depth=2)
        buffer.push(0)
        buffer.push(0)
        # After both drained, a push at t=100 is free again.
        assert buffer.push(100) == 100

    def test_drain_time(self):
        bus = SharedBus(BusConfig(write_cycles=5))
        buffer = StoreBuffer(bus, depth=8)
        buffer.push(0)
        buffer.push(0)
        assert buffer.drain_time() == 10
