"""Register file: windows, aliasing, %g0, name parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.registers import (
    RegisterFile,
    WindowOverflow,
    WindowUnderflow,
    parse_register,
    register_name,
)


class TestParsing:
    def test_globals(self):
        assert parse_register("%g0") == 0
        assert parse_register("%g7") == 7

    def test_outs_locals_ins(self):
        assert parse_register("%o0") == 8
        assert parse_register("%l0") == 16
        assert parse_register("%i7") == 31

    def test_aliases(self):
        assert parse_register("%sp") == 14
        assert parse_register("%fp") == 30
        assert parse_register("%r17") == 17

    def test_case_and_whitespace(self):
        assert parse_register("  %O3 ") == 11

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            parse_register("%x1")

    def test_register_name_roundtrip(self):
        for index in range(32):
            assert parse_register(register_name(index)) == index

    def test_register_name_out_of_range(self):
        with pytest.raises(ValueError):
            register_name(32)


class TestBasicReadWrite:
    def test_g0_always_zero(self):
        regs = RegisterFile()
        regs.write(0, 123)
        assert regs.read(0) == 0

    def test_write_read(self):
        regs = RegisterFile()
        regs.write(9, 0xDEADBEEF)
        assert regs.read(9) == 0xDEADBEEF

    def test_write_masks_to_32_bits(self):
        regs = RegisterFile()
        regs.write(9, 0x1_0000_0001)
        assert regs.read(9) == 1

    def test_globals_shared_across_windows(self):
        regs = RegisterFile()
        regs.write(1, 77)
        regs.save()
        assert regs.read(1) == 77


class TestWindows:
    def test_outs_become_ins_after_save(self):
        regs = RegisterFile()
        regs.write(8, 1234)  # %o0
        regs.save()
        assert regs.read(24) == 1234  # %i0

    def test_ins_become_outs_after_restore(self):
        regs = RegisterFile()
        regs.save()
        regs.write(24, 55)  # callee writes %i0 (return value)
        regs.restore()
        assert regs.read(8) == 55  # caller sees it in %o0

    def test_locals_are_private(self):
        regs = RegisterFile()
        regs.write(16, 99)  # %l0
        regs.save()
        assert regs.read(16) == 0
        regs.write(16, 11)
        regs.restore()
        assert regs.read(16) == 99

    def test_nested_save_restore(self):
        regs = RegisterFile()
        for depth in range(5):
            regs.write(8, depth)  # %o0 of this frame
            regs.save()
        for depth in reversed(range(5)):
            assert regs.read(24) == depth  # %i0 of callee frame
            regs.restore()

    def test_overflow_raises(self):
        regs = RegisterFile(nwindows=4)
        regs.save()
        regs.save()
        with pytest.raises(WindowOverflow):
            regs.save()

    def test_underflow_raises(self):
        regs = RegisterFile()
        with pytest.raises(WindowUnderflow):
            regs.restore()

    def test_num_physical(self):
        assert RegisterFile(nwindows=8).num_physical == 8 + 128

    def test_physical_index_distinct_within_window(self):
        regs = RegisterFile()
        indices = {regs.physical_index(i) for i in range(32)}
        assert len(indices) == 32

    def test_needs_two_windows(self):
        with pytest.raises(ValueError):
            RegisterFile(nwindows=1)


@given(st.integers(2, 6), st.lists(st.integers(0, 0xFFFFFFFF), min_size=8,
                                   max_size=8))
def test_property_save_restore_preserves_outs(depth, values):
    """Whatever a caller leaves in its out registers is intact after a
    full save/restore round trip of any safe nesting depth (at most
    nwindows - 2 before the circular bank would alias)."""
    regs = RegisterFile(nwindows=8)
    for i, value in enumerate(values):
        regs.write(8 + i, value)
    for _ in range(depth):
        regs.save()
    for _ in range(depth):
        regs.restore()
    assert [regs.read(8 + i) for i in range(8)] == list(values)


@given(st.integers(1, 31), st.integers(0, 0xFFFFFFFF))
def test_property_read_after_write(index, value):
    regs = RegisterFile()
    regs.write(index, value)
    assert regs.read(index) == value


def window_formula(arch_index, cwp, nwindows):
    """Physical index of an architectural register under ``cwp``."""
    if arch_index < 8:
        return arch_index
    if arch_index < 24:  # outs and locals: this window's own slot
        return 8 + cwp * 16 + (arch_index - 8)
    return 8 + ((cwp + 1) % nwindows) * 16 + (arch_index - 24)


@given(st.integers(2, 8), st.lists(st.booleans(), max_size=40),
       st.integers(0, 7))
def test_property_window_map_tracks_cwp(nwindows, moves, restored_cwp):
    """After any save/restore sequence and a restore_state, every
    architectural index maps through the window formula."""
    regs = RegisterFile(nwindows)

    def check():
        for i in range(32):
            assert regs.physical_index(i) == window_formula(
                i, regs.cwp, nwindows)
            for other in range(nwindows):
                assert regs.physical_index(i, other) == window_formula(
                    i, other, nwindows)
        regs.write(9, 0x1234)
        assert regs.read_physical(window_formula(9, regs.cwp,
                                                 nwindows)) == 0x1234

    check()
    for save in moves:
        try:
            regs.save() if save else regs.restore()
        except (WindowOverflow, WindowUnderflow):
            pass
        check()
    state = regs.snapshot_state()
    state["cwp"] = restored_cwp % nwindows
    regs.restore_state(state)
    assert regs.cwp == restored_cwp % nwindows
    check()


@pytest.mark.parametrize("index", [-1, -32, 32, 33, 1000])
def test_out_of_range_indices_rejected(index):
    regs = RegisterFile()
    message = f"register index out of range: {index}"
    with pytest.raises(ValueError, match=message):
        regs.read(index)
    with pytest.raises(ValueError, match=message):
        regs.write(index, 1)
    with pytest.raises(ValueError, match=message):
        regs.physical_index(index)
    with pytest.raises(ValueError, match=message):
        regs.physical_index(index, 3)
