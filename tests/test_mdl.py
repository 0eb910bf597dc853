"""MDL compiler: parser, validator diagnostics, differential
equivalence against the hand-written monitors, and the CLI surface.

The load-bearing guarantee is at the bottom: an MDL-compiled UMC/BC
produces *bit-identical* run digests (traps, meta-access streams,
fabric cycles) to the hand-written classes on every paper workload,
and its synthesized LUT count lands within 15% of the hand-lowered
network.
"""

import pytest

from repro.checkpoint import SystemSnapshot
from repro.extensions import (
    ArrayBoundCheck,
    UninitializedMemoryCheck,
    create_extension,
    extension_names,
    register_extension,
    unregister_extension,
)
from repro.fabric.mapping import map_network
from repro.fabric.synthesis import synthesize_fabric
from repro.flexcore import FlexCoreSystem, run_program
from repro.isa import assemble
from repro.mdl import (
    MdlError,
    compile_spec,
    load_spec,
    parse_spec,
    register_program,
    shipped_specs,
)
from repro.telemetry import result_fingerprint, run_digest
from repro.workloads import build_workload

PAPER_WORKLOADS = ("sha", "gmac", "stringsearch", "fft", "basicmath",
                   "bitcount")

#: LUT tolerance between the compiler's lowering and the hand-written
#: hardware() networks (the acceptance bar; actual deltas are ~3-7%).
LUT_TOLERANCE = 0.15

MINIMAL = """
monitor demo "a demo monitor"

meta {
    memory_tag_bits = 1
}

on store foreach word {
    mem[word] = 1
    cycles words
}

on load {
    let t = mem[addr]
    trap "bad" when t == 0 at addr: "untagged word {addr:#x}"
}

on flex TAG_SET_MEM {
    mem[flexaddr] = 1
}
"""


def compile_shipped(name):
    return load_spec(shipped_specs()[name])


def errors_of(source):
    with pytest.raises(MdlError) as exc:
        compile_spec(source, "<test>")
    return exc.value.diagnostics


def messages_of(source):
    return [d.message for d in errors_of(source)]


# ---------------------------------------------------------------------------
# Parser.


class TestParser:
    def test_structure(self):
        spec = parse_spec(MINIMAL, "<test>")
        assert spec.name == "demo"
        assert spec.description == "a demo monitor"
        assert len(spec.rules) == 3
        store, load, flex = spec.rules
        assert store.foreach_word and not load.foreach_word
        assert [s.kind for s in store.selectors] == ["store"]
        assert flex.selectors[0].kind == "flex"
        assert flex.selectors[0].name == "TAG_SET_MEM"

    def test_syntax_error_carries_location(self):
        with pytest.raises(MdlError) as exc:
            parse_spec("monitor x \"y\"\non load {", "<t>")
        diag = exc.value.diagnostics[0]
        assert diag.location.line == 2

    def test_rendered_diagnostic_has_caret(self):
        source = "monitor x \"y\"\nmeta { bogus_knob = 3 }\n"
        with pytest.raises(MdlError) as exc:
            compile_spec(source, "bad.mdl")
        text = str(exc.value)
        assert "bad.mdl:2" in text
        assert "^" in text

    def test_keywords_are_not_identifiers(self):
        with pytest.raises(MdlError):
            parse_spec("monitor trap \"y\"", "<t>")

    def test_field_access_assignment_target(self):
        # `mem[addr].ptr = ...` must parse as a field write.
        program = compile_shipped("bc")
        assert program.name == "bc"

    def test_comments_and_radices(self):
        source = MINIMAL.replace("mem[word] = 1",
                                 "mem[word] = 0b1  # binary")
        compile_spec(source, "<t>")


# ---------------------------------------------------------------------------
# Validator diagnostics.


class TestDiagnostics:
    def test_unknown_field_suggests(self):
        source = """
monitor m "d"
meta { memory_tag_bits = 8 }
fields { ptr = 7:4 }
on load {
    let t = mem[addr]
    trap "x" when t.ptrr != 0 at addr: "m"
}
"""
        [msg, *_] = messages_of(source)
        assert "unknown field 'ptrr'" in msg
        diag = errors_of(source)[0]
        assert diag.hint and "ptr" in diag.hint

    def test_unknown_identifier_suggests_packet_field(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on load {
    mem[addrr] = 1
}
""")
        assert any("unknown identifier 'addrr'" in m for m in msgs)

    def test_unknown_class_lists_candidates(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on arith_addd {
    mem[addr] = 1
}
""")
        assert any("arith_addd" in m for m in msgs)

    def test_unknown_flex_opf(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on flex TAG_SET_MEMM {
    mem[flexaddr] = 1
}
""")
        assert any("TAG_SET_MEMM" in m for m in msgs)

    def test_wide_write_needs_explicit_mask(self):
        source = """
monitor m "d"
meta { memory_tag_bits = 1 }
on store {
    mem[addr] = res
}
"""
        diags = errors_of(source)
        assert any("width mismatch" in d.message
                   and "mask it explicitly" in d.message
                   for d in diags)

    def test_constant_too_wide_for_tag(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on store {
    mem[addr] = 2
}
""")
        assert any("fit" in m or "wide" in m for m in msgs)

    def test_unreachable_trap(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on load {
    trap "x" when 0 at addr: "m"
}
""")
        assert any("unreachable trap" in m for m in msgs)

    def test_foreach_needs_memory_rule(self):
        msgs = messages_of("""
monitor m "d"
meta { register_tag_bits = 4 }
on arith_add foreach word {
    reg[dest] = 0
}
""")
        assert any("foreach" in m for m in msgs)

    def test_mem_requires_memory_tags(self):
        msgs = messages_of("""
monitor m "d"
meta { register_tag_bits = 4 }
on store {
    mem[addr] = 1
}
""")
        assert any("memory_tag_bits" in m for m in msgs)

    def test_reg_requires_register_tags(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on arith_add {
    reg[dest] = 1
}
""")
        assert any("register_tag_bits" in m for m in msgs)

    def test_explicit_forward_must_cover_rules(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
forward { store }
on load {
    let t = mem[addr]
    trap "x" when t == 0 at addr: "m"
}
""")
        assert any("unreachable" in m for m in msgs)

    def test_duplicate_let(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on load {
    let t = mem[addr]
    let t = mem[addr]
}
""")
        assert any("already" in m or "duplicate" in m for m in msgs)

    def test_division_by_non_power_of_two(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on store {
    mem[addr / 3] = 1
}
""")
        assert any("power of two" in m or "power-of-two" in m
                   for m in msgs)

    def test_all_errors_reported_at_once(self):
        diags = errors_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on store {
    mem[addrr] = 1
}
on load {
    trap "x" when 0 at addr: "m"
}
""")
        assert len(diags) >= 2

    def test_cycles_reads_only_constants_and_words(self):
        source = """
monitor m "d"
meta { memory_tag_bits = 1 }
on store foreach word {
    let t = mem[word]
    mem[word] = 1
    cycles max(words, t + 1)
}
"""
        [diag] = errors_of(source)
        assert "'cycles' may read only constants and 'words'" in diag.message
        assert (diag.location.line, diag.location.column) == (7, 12)
        # Constants and `words` alone, in any arithmetic, still compile.
        compile_spec(source.replace("t + 1", "2 * words - 1"), "<t>")

    def test_bad_template_format_spec(self):
        msgs = messages_of("""
monitor m "d"
meta { memory_tag_bits = 1 }
on load {
    let t = mem[addr]
    trap "x" when t == 0 at addr: "bad {addr:zz}"
}
""")
        assert msgs


# ---------------------------------------------------------------------------
# Shipped specs + forwarding equivalence.


class TestShippedSpecs:
    def test_both_prototypes_ship(self):
        assert set(shipped_specs()) >= {"umc", "bc"}

    @pytest.mark.parametrize("name", ["umc", "bc"])
    def test_specs_compile(self, name):
        assert compile_shipped(name).name == name

    def test_umc_forward_config_matches_hand_written(self):
        program = compile_shipped("umc")
        assert program.forward_config() == (
            UninitializedMemoryCheck().forward_config()
        )

    def test_bc_forward_config_matches_hand_written(self):
        program = compile_shipped("bc")
        assert program.forward_config() == (
            ArrayBoundCheck().forward_config()
        )

    def test_redzone_forwards_stores_only(self):
        from repro.isa.opcodes import (
            LOAD_CLASSES,
            STORE_CLASSES,
            InstrClass,
        )
        program = load_spec("examples/redzone.mdl")
        forwarded = program.forward_config().forwarded_classes()
        assert forwarded == set(STORE_CLASSES) | {InstrClass.FLEX}
        assert not forwarded & set(LOAD_CLASSES)


# ---------------------------------------------------------------------------
# Differential: digests must be bit-identical to the hand monitors.


HAND_CLASSES = {"umc": UninitializedMemoryCheck, "bc": ArrayBoundCheck}


def digest_of(program, extension):
    return run_digest(run_program(program, extension))


class TestDifferentialDigests:
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    @pytest.mark.parametrize("monitor", ["umc", "bc"])
    def test_compiled_equals_hand_written(self, monitor, workload):
        program = build_workload(workload, 0.125).build()
        hand = digest_of(program, HAND_CLASSES[monitor]())
        compiled = digest_of(program, compile_shipped(monitor).create())
        assert compiled == hand


UMC_UNINIT = """
        .text
start:  set     0x20000, %g1
        ldd     [%g1], %o0
        ta      0
        nop
"""

BC_HEAP = 0x30000


def bc_oob_source():
    lines = ["        .text", "start:",
             f"        set     {BC_HEAP:#x}, %o0",
             "        mov     5, %g1",
             "        fxval   %g1"]
    for i in range(4):
        lines.append(f"        set     {BC_HEAP + 4 * i:#x}, %g2")
        lines.append("        fxcolorm %g2, %g0")
    lines += ["        fxcolorp %o0",
              "        ld      [%o0 + 16], %o1     ! one past the end",
              "        ta      0",
              "        nop"]
    return "\n".join(lines)


class TestDifferentialTraps:
    def test_umc_trap_is_identical(self):
        program = assemble(UMC_UNINIT, entry="start")
        hand_ext = UninitializedMemoryCheck()
        compiled_ext = compile_shipped("umc").create()
        hand = run_program(program, hand_ext)
        compiled = run_program(program, compiled_ext)
        assert hand.trap is not None
        assert str(compiled.trap) == str(hand.trap)
        # LDD touches two uninitialized words: both firings counted.
        assert compiled_ext.traps_seen == hand_ext.traps_seen == 2
        assert result_fingerprint(compiled) == result_fingerprint(hand)

    def test_bc_trap_is_identical(self):
        program = assemble(bc_oob_source(), entry="start")
        hand = run_program(program, ArrayBoundCheck())
        compiled = run_program(program, compile_shipped("bc").create())
        assert hand.trap is not None
        assert hand.trap.kind == "out-of-bounds-read"
        assert str(compiled.trap) == str(hand.trap)
        assert result_fingerprint(compiled) == result_fingerprint(hand)


class TestLutBudget:
    @pytest.mark.parametrize("monitor", ["umc", "bc"])
    def test_within_tolerance_of_hand_lowering(self, monitor):
        hand = map_network(HAND_CLASSES[monitor]().hardware()).luts
        compiled = map_network(
            compile_shipped(monitor).hardware()
        ).luts
        assert abs(compiled - hand) <= LUT_TOLERANCE * hand


# ---------------------------------------------------------------------------
# The new monitor: store-only heap red-zone checking, defined purely
# as an MDL spec (examples/redzone.mdl).


REDZONE_GUARD = 0x30010


def redzone_source(store_at, arm=True):
    lines = ["        .text", "start:",
             f"        set     {REDZONE_GUARD:#x}, %g1"]
    if arm:
        lines.append("        fxtagm  %g1, %g0    ! arm the guard")
    lines += [f"        set     {store_at:#x}, %g2",
              "        mov     7, %o0",
              "        st      %o0, [%g2]",
              "        ld      [%g2], %o1",
              "        ta      0",
              "        nop"]
    return "\n".join(lines)


class TestRedzone:
    @pytest.fixture(scope="class")
    def program(self):
        return load_spec("examples/redzone.mdl")

    def test_store_into_guard_traps(self, program):
        result = run_program(
            assemble(redzone_source(REDZONE_GUARD), entry="start"),
            program.create(),
        )
        assert result.trap is not None
        assert result.trap.kind == "red-zone-write"
        assert result.trap.addr == REDZONE_GUARD

    def test_store_next_to_guard_is_clean(self, program):
        result = run_program(
            assemble(redzone_source(REDZONE_GUARD + 4), entry="start"),
            program.create(),
        )
        assert result.trap is None

    def test_disarmed_guard_is_writable(self, program):
        source = redzone_source(REDZONE_GUARD)
        source = source.replace(
            "fxtagm  %g1, %g0    ! arm the guard",
            "fxtagm  %g1, %g0\n        fxuntagm %g1, %g0",
        )
        result = run_program(assemble(source, entry="start"),
                             program.create())
        assert result.trap is None

    def test_survives_checkpoint_restore(self, program):
        """The armed-guard tag state must travel through a snapshot:
        restore mid-run, continue, and still trap identically."""
        wl = build_workload("bitcount", 0.125).build()
        captured = []
        system = FlexCoreSystem(wl, program.create())
        reference = system.run_bounded(
            checkpoint_every=1000,
            on_checkpoint=lambda s, state: captured.append(
                SystemSnapshot.from_state(s, state)
            ),
        )
        assert reference.halted and captured
        snapshot = captured[len(captured) // 2]
        resumed_system = FlexCoreSystem(wl, program.create())
        snapshot.restore_into(resumed_system)
        resumed = resumed_system.run_bounded()
        assert (result_fingerprint(resumed)
                == result_fingerprint(reference))

    def test_table3_row(self, program):
        report = synthesize_fabric(program.create())
        assert report.luts > 0
        assert report.fmax_mhz > 0
        # A single-tag-bit checker stays far below BC's 8-bit colour
        # datapath.
        bc_luts = map_network(ArrayBoundCheck().hardware()).luts
        assert map_network(program.hardware()).luts < bc_luts
