"""CFGR, decoupling FIFO, trace packets, shadow meta-data state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.flexcore.fifo import DecouplingFifo
from repro.flexcore.packet import PACKET_BITS, PACKET_FIELD_BITS
from repro.flexcore.shadow import ShadowRegisterFile, TagStore
from repro.isa.opcodes import NUM_INSTR_CLASSES, InstrClass


class TestForwardConfig:
    def test_defaults_to_ignore(self):
        config = ForwardConfig()
        assert config.policy(InstrClass.LOAD_WORD) == ForwardPolicy.IGNORE

    def test_set_and_query(self):
        config = ForwardConfig()
        config.set(InstrClass.LOAD_WORD, ForwardPolicy.ALWAYS)
        assert config.policy(InstrClass.LOAD_WORD) == ForwardPolicy.ALWAYS

    def test_keyword_construction(self):
        config = ForwardConfig(load_word=ForwardPolicy.BEST_EFFORT)
        assert config.policy(InstrClass.LOAD_WORD) == (
            ForwardPolicy.BEST_EFFORT
        )

    def test_forwarded_classes(self):
        config = ForwardConfig()
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS_ACK)
        assert config.forwarded_classes() == {InstrClass.FLEX}

    def test_encoding_is_64_bits(self):
        config = ForwardConfig(default=ForwardPolicy.ALWAYS_ACK)
        assert config.encode() == (1 << 64) - 1

    def test_decode_rejects_oversized(self):
        with pytest.raises(ValueError):
            ForwardConfig.decode(1 << 64)

    @given(st.lists(st.sampled_from(list(ForwardPolicy)),
                    min_size=NUM_INSTR_CLASSES,
                    max_size=NUM_INSTR_CLASSES))
    def test_property_encode_decode_roundtrip(self, policies):
        config = ForwardConfig()
        for i, policy in enumerate(policies):
            config.set(InstrClass(i), policy)
        assert ForwardConfig.decode(config.encode()) == config


class TestDecouplingFifo:
    def test_initially_empty(self):
        fifo = DecouplingFifo(4)
        assert fifo.occupancy(0) == 0
        assert not fifo.is_full(0)

    def test_push_and_drain(self):
        fifo = DecouplingFifo(2)
        fifo.push(0, drain_time=10)
        fifo.push(0, drain_time=20)
        assert fifo.is_full(5)
        assert fifo.occupancy(10) == 1
        assert fifo.occupancy(20) == 0

    def test_time_until_space(self):
        fifo = DecouplingFifo(1)
        fifo.push(0, drain_time=30)
        assert fifo.time_until_space(12) == 18
        assert fifo.time_until_space(30) == 0

    def test_push_full_raises(self):
        fifo = DecouplingFifo(1)
        fifo.push(0, drain_time=100)
        with pytest.raises(OverflowError):
            fifo.push(1, drain_time=101)

    def test_drain_before_push_rejected(self):
        fifo = DecouplingFifo(1)
        with pytest.raises(ValueError):
            fifo.push(10, drain_time=5)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            DecouplingFifo(0)

    def test_stats(self):
        fifo = DecouplingFifo(2)
        fifo.push(0, 10)
        fifo.push(0, 20)
        assert fifo.stats.enqueued == 2
        assert fifo.stats.max_occupancy == 2

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 50)),
                    min_size=1, max_size=50))
    def test_property_occupancy_bounded(self, events):
        """Pushing whenever space is available never exceeds depth."""
        fifo = DecouplingFifo(4)
        time = 0
        for delta, service in sorted(events):
            time += delta
            if not fifo.is_full(time):
                fifo.push(time, time + service)
            assert 0 <= fifo.occupancy(time) <= 4

    def test_drain_queue_survives_restore_and_reset(self):
        """The fast engine's forward tail binds ``_drains`` once, so
        restore and reset must update that deque in place."""
        fifo = DecouplingFifo(4)
        drains = fifo._drains
        fifo.push(0, 10)
        state = fifo.snapshot_state()
        fifo.push(1, 20)
        fifo.restore_state(state)
        assert fifo._drains is drains
        assert list(drains) == [10] and fifo.stats.enqueued == 1
        fifo.reset()
        assert fifo._drains is drains and not drains


class TestPacket:
    def test_field_widths_match_table2(self):
        assert PACKET_FIELD_BITS["PC"] == 32
        assert PACKET_FIELD_BITS["COND"] == 4
        assert PACKET_FIELD_BITS["BRANCH"] == 1
        assert PACKET_FIELD_BITS["OPCODE"] == 5
        assert PACKET_FIELD_BITS["SRC1"] == 9
        assert PACKET_BITS == sum(PACKET_FIELD_BITS.values())

    def test_opcode_field_width_fits_classes(self):
        assert NUM_INSTR_CLASSES <= 1 << PACKET_FIELD_BITS["OPCODE"]


class TestShadowRegisterFile:
    def test_read_write(self):
        shadow = ShadowRegisterFile(136, tag_bits=4)
        shadow.write(5, 0xB)
        assert shadow.read(5) == 0xB

    def test_g0_never_tagged(self):
        shadow = ShadowRegisterFile(136, tag_bits=1)
        shadow.write(0, 1)
        assert shadow.read(0) == 0

    def test_tag_width_masked(self):
        shadow = ShadowRegisterFile(136, tag_bits=1)
        shadow.write(3, 0xFF)
        assert shadow.read(3) == 1

    def test_clear(self):
        shadow = ShadowRegisterFile(16, tag_bits=8)
        shadow.write(3, 7)
        shadow.clear()
        assert shadow.nonzero_count() == 0

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            ShadowRegisterFile(8, tag_bits=9)

    def test_tag_list_survives_restore_and_clear(self):
        """Fabric ops bind ``_tags`` once, so restore and clear must
        update that list in place."""
        shadow = ShadowRegisterFile(16, tag_bits=8)
        tags = shadow._tags
        shadow.write(3, 7)
        state = shadow.snapshot_state()
        shadow.write(3, 9)
        shadow.restore_state(state)
        assert shadow._tags is tags and shadow.read(3) == 7
        shadow.clear()
        assert shadow._tags is tags and shadow.nonzero_count() == 0


class TestTagStore:
    def test_word_granularity(self):
        tags = TagStore(tag_bits=1)
        tags.write(0x1000, 1)
        assert tags.read(0x1002) == 1  # same word
        assert tags.read(0x1004) == 0

    def test_width_mask(self):
        tags = TagStore(tag_bits=4)
        tags.write(0x100, 0xFF)
        assert tags.read(0x100) == 0xF

    def test_fill_range_covers_partial_words(self):
        tags = TagStore(tag_bits=1)
        tags.fill_range(0x102, 6, 1)  # touches words 0x100 and 0x104
        assert tags.read(0x100) == 1
        assert tags.read(0x104) == 1
        assert tags.read(0x108) == 0

    def test_meta_address_1bit(self):
        tags = TagStore(tag_bits=1, base=0x4000_0000)
        # 32 tags per meta word: data words 0..31 share meta word 0.
        assert tags.meta_address(0x00) == 0x4000_0000
        assert tags.meta_address(31 * 4) == 0x4000_0000
        assert tags.meta_address(32 * 4) == 0x4000_0004

    def test_meta_address_8bit(self):
        tags = TagStore(tag_bits=8, base=0x4000_0000)
        assert tags.meta_address(0x0) == 0x4000_0000
        assert tags.meta_address(4 * 4) == 0x4000_0004

    def test_write_mask_positions(self):
        tags = TagStore(tag_bits=1)
        assert tags.write_mask(0) == 1
        assert tags.write_mask(4) == 2
        tags8 = TagStore(tag_bits=8)
        assert tags8.write_mask(4) == 0xFF00

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            TagStore(tag_bits=3)

    def test_tag_dict_survives_restore(self):
        """Fabric ops bind ``_tags`` once, so restore must update that
        dict in place, base included."""
        tags = TagStore(tag_bits=1, base=0x4000_0000)
        table = tags._tags
        tags.write(0x100, 1)
        state = tags.snapshot_state()
        tags.write(0x104, 1)
        tags.base = 0x5000_0000
        tags.restore_state(state)
        assert tags._tags is table
        assert tags.read(0x100) == 1 and tags.read(0x104) == 0
        assert tags.base == 0x4000_0000

    @given(st.integers(0, 1 << 24), st.sampled_from([1, 2, 4, 8]))
    def test_property_mask_aligns_with_meta_address(self, addr, bits):
        """The write mask always selects exactly `bits` contiguous bits
        and different words in the same meta word get disjoint masks."""
        addr &= ~3
        tags = TagStore(tag_bits=bits)
        mask = tags.write_mask(addr)
        assert bin(mask).count("1") == bits
        neighbour = addr + 4
        if tags.meta_address(neighbour) == tags.meta_address(addr):
            assert mask & tags.write_mask(neighbour) == 0

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 0xF)),
                    min_size=1, max_size=100))
    def test_property_store_matches_dict(self, writes):
        tags = TagStore(tag_bits=4)
        reference = {}
        for word, value in writes:
            tags.write(word * 4, value)
            reference[word] = value & 0xF
        for word, value in reference.items():
            assert tags.read(word * 4) == value
