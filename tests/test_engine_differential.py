"""Differential proof of the fast engine.

For any program, extension, and watchdog configuration the fused
predecoded handlers (``engine="fast"``) must be observationally
identical to the reference step path: same ``run_digest``, same
final memory image, same trap/error strings, same termination, same
recovery count.  Both engines share one run loop, so these
layers compare what a committed instruction does, not two copies of
the loop control:

* a hypothesis property over random programs (ALU mixes, word, half
  and byte loads and stores, annulled delay slots, undecodable words,
  %g0 as source and destination, a leaf routine called from two
  window depths, ``rd``/``wr %y`` — ``wr`` sometimes right after a
  load into its second source — and ``jmpl`` through a register,
  sometimes to a misaligned target) under a drawn extension,
  sometimes forwarding every class, each spilling its registers to
  memory;
* the full paper matrix — six workloads under every shipped extension
  including the two extra monitors and the MDL-compiled specs — at
  the experiment configuration;
* mid-run checkpoint/restore and rollback recovery, including
  restoring a fast-engine snapshot into a reference run, and the
  run loop's rollback span under a tracer;
* directed handler-invalidation adversaries: self-modifying stores
  that patch a straight-line run from inside it, traps raised
  mid-run, and checkpoint boundaries landing mid-run;
* interface configurations that drive every branch of the shared
  forward path: tiny FIFOs (full stalls), best-effort drops, ack
  stalls, the meta-data TLB, fabric-side decode, a 1X fabric, and
  forwarded branches and calls;
* the fault models that run on the fast engine (``fifo-drop`` and
  ``lut-config``), one armed fault each;
* what the fast engine's forward tails run: every monitor's fabric
  ops for every fused class (the paper monitors' for RDY, WRY and
  JMPL too, the MDL specs', the shadow stack's and the watchpoints',
  and a CFGR upset's extra class), and the reference ``_service``
  under a tracer, a meta-data TLB or an armed ``fifo-drop``;
* a directed ``wr %g1, %l0, %y`` right after a load into %l0: one
  load-use interlock and SRC2 = phys(%l0) on both engines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import SystemSnapshot
from repro.evaluation.config import (
    FLEXCORE_RATIOS,
    experiment_system_config,
)
from repro.extensions import (
    EXTENSION_NAMES,
    EXTRA_EXTENSION_NAMES,
    create_extension,
)
from repro.faultinject.models import FaultSpec, create_model
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.packet import TracePacket
from repro.flexcore.system import (
    DEFAULT_RECOVERY_LATENCY,
    FlexCoreSystem,
    SystemConfig,
)
from repro.isa.assembler import assemble
from repro.isa.opcodes import MEMORY_CLASSES, InstrClass
from repro.mdl import load_spec, shipped_specs
from repro.telemetry import Telemetry
from repro.telemetry.summary import result_fingerprint, run_digest
from repro.workloads import build_workload, workload_names

MASK32 = 0xFFFFFFFF

OPS = {
    "add": None, "addcc": None, "sub": None, "subcc": None,
    "and": None, "or": None, "xor": None, "andn": None,
    "xnor": None, "sll": None, "srl": None, "sra": None,
    "umul": None, "smul": None,
}

# Registers the generator may name (avoid %sp/%fp/%o7, which the
# calls below need).  %g0 comes last, so the seeded registers are
# writable; it is drawn as rs1, rs2 and rd alike.
REGS = ["%g1", "%g2", "%g3", "%o0", "%o1", "%o2", "%l0", "%l1",
        "%l2", "%l3", "%i0", "%i1", "%g0"]

#: extension specs; "mdl:<name>" instantiates a shipped MDL spec.
MATRIX_EXTENSIONS = (
    (None,) + tuple(EXTENSION_NAMES) + tuple(EXTRA_EXTENSION_NAMES)
    + tuple(f"mdl:{name}" for name in sorted(shipped_specs()))
)


def _make_extension(spec):
    if spec is None:
        return None
    if spec.startswith("mdl:"):
        return load_spec(shipped_specs()[spec[4:]]).create()
    return create_extension(spec)


def _fabric_ratio(spec):
    name = spec[4:] if spec and spec.startswith("mdl:") else spec
    return FLEXCORE_RATIOS.get(name, 0.5)


def _run_one(program, spec, engine, **bounded_kwargs):
    system = FlexCoreSystem(program, _make_extension(spec))
    try:
        return system.run_bounded(engine=engine, **bounded_kwargs)
    except Exception as err:
        # Some faults (e.g. an undecodable word's EncodingError)
        # escape run_bounded uncaught; both engines must raise the
        # same exception, so represent it comparably.
        return ("raised", type(err).__name__, str(err))


def _assert_identical(reference, fast):
    if isinstance(reference, tuple) or isinstance(fast, tuple):
        assert reference == fast
        return
    assert reference.engine == "reference"
    assert result_fingerprint(fast) == result_fingerprint(reference)
    assert run_digest(fast) == run_digest(reference)
    # The digest covers timing only; values must match too.
    assert (fast.memory.snapshot_state()
            == reference.memory.snapshot_state())
    assert str(fast.trap) == str(reference.trap)
    assert str(fast.error) == str(reference.error)
    assert fast.termination == reference.termination


# ---------------------------------------------------------------------------
# Layer 1: random programs.


_REG_INDEX = st.integers(0, len(REGS) - 1)
_BUF_OFFSET = st.integers(0, 15).map(lambda w: w * 4)

_ALU = st.tuples(
    st.just("alu"),
    st.sampled_from(sorted(OPS)),
    _REG_INDEX,
    st.one_of(_REG_INDEX,
              st.integers(-4096, 4095).map(lambda i: ("imm", i))),
    _REG_INDEX,
)
#: word, half and byte accesses (sign- and zero-extending loads), each
#: fused closure variant; the low offset bits are masked to the
#: access size so every access stays aligned.
_SUBWORD_MASK = {"st": 0, "sth": 2, "stb": 3,
                 "ld": 0, "lduh": 2, "ldsh": 2, "ldub": 3, "ldsb": 3}
_STORE = st.tuples(st.just("st"), st.sampled_from(("st", "sth", "stb")),
                   _REG_INDEX, _BUF_OFFSET, st.integers(0, 3))
_LOAD = st.tuples(st.just("ld"),
                  st.sampled_from(("ld", "lduh", "ldsh", "ldub", "ldsb")),
                  _BUF_OFFSET, _REG_INDEX, st.integers(0, 3))
#: compare-and-skip with an annulled delay slot: exercises the fused
#: branch handler's annul path both taken and untaken.
_SKIP = st.tuples(st.just("skip"), _REG_INDEX, _REG_INDEX)
#: call ``leaf`` directly and through ``outer``: the leaf's fused
#: handlers run under two window pointers.
_CALL = st.tuples(st.just("call"))
#: the Y register: ``rd %y`` into a drawn register, and ``wr`` in
#: register and immediate form, sometimes right after a load into its
#: second source (the load-use interlock on rs2).
_RDY = st.tuples(st.just("rdy"), _REG_INDEX)
_WRY = st.tuples(
    st.just("wry"), _REG_INDEX,
    st.one_of(_REG_INDEX,
              st.integers(-4096, 4095).map(lambda i: ("imm", i))),
    st.one_of(st.none(), _BUF_OFFSET),
)
#: ``jmpl`` through a register to a computed target, in register and
#: immediate form, linking into a drawn register; a target 2 bytes
#: past the label is misaligned, and both engines must fail alike.
_JMPL = st.tuples(st.just("jmpl"), _REG_INDEX, st.booleans(),
                  st.sampled_from((0, 0, 0, 2)))

#: the routines ``_CALL`` reaches, placed after the halt.  ``leaf``
#: reads its ins (the caller's %o0/%o1), loads into a local and uses
#: it at once (the load-use interlock on windowed registers), stores
#: and returns a value in %i0 — the caller's %o0.
_ROUTINES = [
    "leaf:",
    "        save    %sp, -96, %sp",
    "        ld      [%g4 + 8], %l1",
    "        add     %l1, %i1, %l1",
    "        xor     %i0, %l1, %l0",
    "        st      %l0, [%g4 + 60]",
    "        add     %l0, %g1, %i0",
    "        ret",
    "        restore",
    "outer:",
    "        save    %sp, -96, %sp",
    "        mov     %i0, %o0",
    "        call    leaf",
    "        add     %i1, 3, %o1",
    "        add     %o0, 1, %i0",
    "        ret",
    "        restore",
]


@st.composite
def monitored_programs(draw):
    seeds = draw(st.lists(st.integers(0, MASK32), min_size=4,
                          max_size=4))
    ops = draw(st.lists(st.one_of(_ALU, _STORE, _LOAD, _SKIP, _CALL,
                                  _RDY, _WRY, _JMPL),
                        min_size=1, max_size=24))
    loops = draw(st.integers(1, 3))
    # An undecodable word in place of the halt: both engines must
    # raise the decoder's SimulationError identically when reached.
    bad_tail = draw(st.sampled_from((False, False, False, True)))
    extension = draw(st.sampled_from((None, "umc", "dift", "bc")))
    # Forward every class as well, so each fused handler's packet
    # (RDY/WRY among them, which no paper monitor forwards) reaches
    # the monitor's op on the fast engine.
    forward_all = draw(st.booleans())
    return seeds, ops, loops, bad_tail, extension, forward_all


def _emit(seeds, ops, loops, bad_tail):
    lines = [
        "        .text",
        "start:",
        "        set     buf, %g4",
        f"        mov     {loops}, %g5",
    ]
    for i, seed in enumerate(seeds):
        lines.append(f"        set     {seed:#x}, {REGS[i]}")
    lines.append("loop:")
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "alu":
            _, mnemonic, rs1, src2, rd = op
            operand = (str(src2[1]) if isinstance(src2, tuple)
                       else REGS[src2])
            lines.append(f"        {mnemonic:7s} {REGS[rs1]}, "
                         f"{operand}, {REGS[rd]}")
        elif kind == "st":
            _, mnemonic, rs, offset, low = op
            offset += low & _SUBWORD_MASK[mnemonic]
            lines.append(f"        {mnemonic:7s} {REGS[rs]}, "
                         f"[%g4 + {offset}]")
        elif kind == "ld":
            _, mnemonic, offset, rd, low = op
            offset += low & _SUBWORD_MASK[mnemonic]
            lines.append(f"        {mnemonic:7s} [%g4 + {offset}], "
                         f"{REGS[rd]}")
        elif kind == "call":
            lines += ["        call    leaf", "        nop",
                      "        call    outer", "        nop"]
        elif kind == "rdy":
            lines.append(f"        rd      %y, {REGS[op[1]]}")
        elif kind == "wry":
            _, rs1, src2, load_offset = op
            if isinstance(src2, tuple):
                operand = str(src2[1])
            else:
                operand = REGS[src2]
                if load_offset is not None:
                    lines.append(f"        ld      [%g4 + {load_offset}], "
                                 f"{operand}")
            lines.append(f"        wr      {REGS[rs1]}, {operand}, %y")
        elif kind == "jmpl":
            _, link, register_form, skew = op
            lines.append(f"        set     jt{index} + {skew + 4}, %g6")
            if register_form:
                lines += ["        mov     -4, %g7",
                          f"        jmpl    %g6 + %g7, {REGS[link]}"]
            else:
                lines.append(f"        jmpl    %g6 + -4, {REGS[link]}")
            lines += ["        nop", f"jt{index}:"]
        else:
            _, rs1, rs2 = op
            lines.append(f"        subcc   {REGS[rs1]}, {REGS[rs2]}, "
                         "%g0")
            lines.append(f"        be,a    skip{index}")
            lines.append(f"        add     {REGS[rs1]}, 1, "
                         f"{REGS[rs2]}")
            lines.append(f"skip{index}:")
    lines += [
        "        subcc   %g5, 1, %g5",
        "        bne     loop",
        "        nop",
    ]
    # Spill every register the generator writes, so a wrong value
    # shows in the final memory image even if it never reached a
    # store or a branch.
    for index, reg in enumerate(REGS):
        lines.append(f"        st      {reg}, [%g4 + {64 + 4 * index}]")
    if bad_tail:
        lines.append("        .word   0x00000000")
    else:
        lines += ["        ta      0", "        nop"]
    lines += _ROUTINES
    # Seed the buffer with bytes on both sides of every sign bit, so
    # sub-word loads of never-stored locations sign-extend too.
    lines += ["        .data", "buf:"]
    lines += ["        .word   0x80ff7f01, 0x017f80ff, 0xfedcba98,"
              " 0x00008000"] * 4
    lines.append(f"        .space  {4 * len(REGS)}")
    return assemble("\n".join(lines), entry="start")


FUSED_ENGINES = ("fast",)


@settings(max_examples=50, deadline=None)
@given(monitored_programs())
def test_random_programs_bit_identical(case):
    seeds, ops, loops, bad_tail, extension, forward_all = case
    program = _emit(seeds, ops, loops, bad_tail)
    runs = {}
    for engine in ("reference",) + FUSED_ENGINES:
        system = FlexCoreSystem(program, _make_extension(extension))
        if extension is not None and forward_all:
            system.interface.cfgr.set_classes(InstrClass,
                                              ForwardPolicy.ALWAYS)
        try:
            result = system.run_bounded(engine=engine,
                                        max_instructions=20_000)
        except Exception as err:
            result = ("raised", type(err).__name__, str(err))
        else:
            assert result.engine == engine
        # The whole register bank too: a write the reference drops
        # (to %g0) must not land in the fast engine's bank either.
        runs[engine] = result, system.cpu.snapshot_state()
    reference, reference_cpu = runs["reference"]
    for engine in FUSED_ENGINES:
        fused, fused_cpu = runs[engine]
        _assert_identical(reference, fused)
        assert fused_cpu == reference_cpu


# ---------------------------------------------------------------------------
# Layer 2: the paper matrix, MDL specs included.


@pytest.mark.parametrize(
    "extension", MATRIX_EXTENSIONS,
    ids=[spec or "baseline" for spec in MATRIX_EXTENSIONS],
)
@pytest.mark.parametrize("workload", workload_names())
def test_paper_workloads_bit_identical(workload, extension):
    program = build_workload(workload, 0.125).build()
    ratio = _fabric_ratio(extension)
    runs = {}
    for engine in ("reference",) + FUSED_ENGINES:
        system = FlexCoreSystem(
            program, _make_extension(extension),
            experiment_system_config(clock_ratio=ratio),
        )
        runs[engine] = system.run_bounded(engine=engine)
    for engine in FUSED_ENGINES:
        assert runs[engine].engine == engine
        assert runs[engine].halted
        _assert_identical(runs["reference"], runs[engine])


# ---------------------------------------------------------------------------
# Layer 3: checkpoint/restore and recovery.


def _checkpoint_restore_round_trip(engine, extension):
    program = build_workload("bitcount", 0.125).build()

    captured = []
    system = FlexCoreSystem(program, create_extension(extension))
    checkpointed = system.run_bounded(
        engine=engine, checkpoint_every=2_000,
        on_checkpoint=lambda s, state: captured.append(
            SystemSnapshot.from_state(s, state)
        ),
    )
    assert checkpointed.engine == engine
    assert checkpointed.halted
    assert captured, "run too short to checkpoint"

    uninterrupted = _run_one(program, extension, "reference")
    assert (result_fingerprint(checkpointed)
            == result_fingerprint(uninterrupted))

    snapshot = captured[len(captured) // 2]
    for resume_engine in (engine, "reference"):
        resumed_system = FlexCoreSystem(program,
                                        create_extension(extension))
        snapshot.restore_into(resumed_system)
        resumed = resumed_system.run_bounded(engine=resume_engine)
        assert resumed.engine == resume_engine
        assert (result_fingerprint(resumed)
                == result_fingerprint(uninterrupted))


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_fused_engine_checkpoint_restore_round_trip(engine):
    _checkpoint_restore_round_trip(engine, "umc")


@pytest.mark.parametrize("extension", ("dift", "bc", "sec"))
@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_fused_engine_checkpoint_restore_round_trip_monitors(engine,
                                                             extension):
    _checkpoint_restore_round_trip(engine, extension)


_TRAPPING_SOURCE = """
        .text
start:
        set     0x20000, %g1       ! outside the loaded image
        mov     7, %g2
        st      %g2, [%g1]
        ld      [%g1 + 8], %g3     ! never written -> UMC trap
        ta      0
        nop
"""


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_rollback_recovery_bit_identical(engine):
    program = assemble(_TRAPPING_SOURCE, entry="start")
    kwargs = dict(checkpoint_every=2, recover=True, recovery_limit=3)
    reference = _run_one(program, "umc", "reference", **kwargs)
    fused = _run_one(program, "umc", engine, **kwargs)
    assert fused.engine == engine
    assert reference.recoveries == fused.recoveries > 0
    _assert_identical(reference, fused)

    # Metrics keep the fused engine and describe the committed path
    # (the ``--stats`` view): rolled-back work is not counted.
    telemetry = Telemetry.enabled()
    system = FlexCoreSystem(program, create_extension("umc"),
                            telemetry=telemetry)
    metered = system.run_bounded(engine=engine, **kwargs)
    snap = telemetry.metrics.snapshot()
    assert metered.engine == engine
    assert snap["system.rollbacks"] == metered.recoveries > 0
    assert snap["core.instructions"] == metered.core_stats.instructions
    assert run_digest(metered) == run_digest(fused)


def test_rollback_span_per_recovery_under_tracer():
    """A tracer forces the reference step through the shared loop;
    its rollback branch records one ``monitor.rollback`` span per
    recovery, and the traced run still matches the untraced fast
    run's digest and recovery count."""
    program = assemble(_TRAPPING_SOURCE, entry="start")
    kwargs = dict(checkpoint_every=2, recover=True, recovery_limit=3)
    fast = _run_one(program, "umc", "fast", **kwargs)
    assert fast.engine == "fast"

    telemetry = Telemetry.enabled(trace=True)
    system = FlexCoreSystem(program, create_extension("umc"),
                            telemetry=telemetry)
    traced = system.run_bounded(engine="fast", **kwargs)
    assert traced.engine == "reference"
    spans = [event for event in telemetry.tracer.events()
             if event.name == "monitor.rollback"]
    assert len(spans) == traced.recoveries == fast.recoveries > 0
    assert all(span.dur == DEFAULT_RECOVERY_LATENCY for span in spans)
    assert run_digest(traced) == run_digest(fast)


# ---------------------------------------------------------------------------
# Layer 4: directed handler-invalidation adversaries.


def _patch_word(source: str) -> int:
    """Assemble a one-instruction text and return its encoded word."""
    program = assemble(f"        .text\nw:\n        {source}\n",
                       entry="w")
    return program.text[0]


_SELF_MODIFYING_TEMPLATE = """
        .text
start:
        set     patch_word, %g6
        ld      [%g6], %g1         ! replacement instruction word
        set     target, %g2
        mov     6, %g5
loop:
        add     %g0, 5, %g3        ! straight-line run containing...
target:
        add     %g3, 1, %g3        ! ...the word the store rewrites
        add     %g3, 3, %o0
        xor     %o0, %g3, %o1
        st      %g1, [%g2]         ! patch the run we are inside
        subcc   %g5, 1, %g5
        bne     loop
        nop
        ta      0
        nop
        .data
patch_word:
        .word   {word:#x}
"""


@pytest.mark.parametrize("extension", (None, "umc", "dift"))
def test_self_modifying_store_inside_own_block(extension):
    """A store whose target word already has a predecoded handler —
    inside the very straight-line run being executed — must
    invalidate it; the patched instruction takes effect on the next
    loop iteration exactly as in the reference."""
    word = _patch_word("add     %g3, 2, %g3")
    program = assemble(
        _SELF_MODIFYING_TEMPLATE.format(word=word), entry="start")
    reference = _run_one(program, extension, "reference",
                         max_instructions=20_000)
    for engine in FUSED_ENGINES:
        fused = _run_one(program, extension, engine,
                         max_instructions=20_000)
        _assert_identical(reference, fused)


_MIDBLOCK_TRAP_SOURCE = """
        .text
start:
        set     0x20000, %g1       ! outside the loaded image
        mov     7, %g2
        st      %g2, [%g1]
        add     %g2, 1, %g3        ! straight-line run: the trapping
        add     %g3, 1, %g4        ! load sits mid-run, with live
        ld      [%g1 + 8], %g5     ! members after it (UMC trap here)
        add     %g5, 1, %g6
        add     %g6, 1, %o0
        ta      0
        nop
"""


def test_trap_raised_mid_block_stops_identically():
    """A monitor trap latched mid-run must stop the run immediately —
    the instructions after it never execute, matching the reference
    engine's per-instruction trap check."""
    program = assemble(_MIDBLOCK_TRAP_SOURCE, entry="start")
    reference = _run_one(program, "umc", "reference")
    assert reference.trap is not None
    for engine in FUSED_ENGINES:
        fused = _run_one(program, "umc", engine)
        assert fused.trap is not None
        _assert_identical(reference, fused)


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_checkpoint_boundary_inside_block_bit_identical(engine):
    """A checkpoint stride that keeps landing mid-run (prime, and
    small): both the captured snapshot states and the final result
    must equal the reference's."""
    program = build_workload("bitcount", 0.0625).build()

    def run(engine):
        captured = []
        system = FlexCoreSystem(program, create_extension("umc"))
        result = system.run_bounded(
            engine=engine, checkpoint_every=997,
            on_checkpoint=lambda s, state: captured.append(state),
        )
        return result, captured

    reference, ref_states = run("reference")
    fused, fused_states = run(engine)
    assert fused.engine == engine
    _assert_identical(reference, fused)
    assert len(ref_states) == len(fused_states) > 0
    for ref_state, fused_state in zip(ref_states, fused_states):
        assert ref_state == fused_state


def test_record_hooks_fall_back_to_reference_loop():
    """A commit-record observer must see every record, so requesting
    the fast engine silently runs the reference engine — with, still,
    an identical digest.  ``superblock`` is an alias of ``fast``,
    whether passed per run or set in the config: it falls back the
    same way, and without hooks it runs, and reports, the fast
    engine.  An unknown engine name is refused."""
    program = build_workload("bitcount", 0.125).build()

    fast = _run_one(program, "dift", "fast")
    assert fast.engine == "fast"

    def system_for(config_engine):
        return FlexCoreSystem(program, create_extension("dift"),
                              SystemConfig(engine=config_engine))

    # (engine passed to run_bounded, SystemConfig.engine)
    for run_engine, config_engine in (("fast", "fast"),
                                      ("superblock", "fast"),
                                      (None, "superblock")):
        seen = []
        system = system_for(config_engine)
        system.record_hooks.append(lambda record: seen.append(record))
        hooked = system.run_bounded(engine=run_engine)
        assert hooked.engine == "reference"
        assert len(seen) == hooked.instructions
        assert result_fingerprint(hooked) == result_fingerprint(fast)
        assert run_digest(hooked) == run_digest(fast)

    for run_engine, config_engine in (("superblock", "fast"),
                                      (None, "superblock")):
        alias = system_for(config_engine).run_bounded(engine=run_engine)
        assert alias.engine == "fast"
        assert run_digest(alias) == run_digest(fast)

    with pytest.raises(ValueError, match="engine must be one of"):
        system_for("fast").run_bounded(engine="turbo")
    with pytest.raises(ValueError, match="engine must be one of"):
        SystemConfig(engine="turbo")


# ---------------------------------------------------------------------------
# Layer 5: interface configurations on the shared forward path.

ENGINES = ("reference",) + FUSED_ENGINES
CONFIG_KERNELS = ("bitcount", "basicmath")
CONFIG_MONITORS = ("umc", "dift", "bc", "sec")


def _best_effort_memory(system):
    system.interface.cfgr.set_classes(MEMORY_CLASSES,
                                      ForwardPolicy.BEST_EFFORT)


def _forward_control_flow(system):
    system.interface.cfgr.set_classes(
        (InstrClass.BRANCH, InstrClass.CALL), ForwardPolicy.ALWAYS)


def _forwarded_control_flow(result):
    by_class = result.interface_stats.forwarded_by_class
    return (by_class.get(InstrClass.BRANCH, 0)
            + by_class.get(InstrClass.CALL, 0))


def _iface(counter):
    return lambda result: getattr(result.interface_stats, counter)


def _tlb_walks(result):
    return result.bus_stats.transactions.get("meta-tlb-walk", 0)


#: name -> (InterfaceConfig overrides, system tweak or None, a probe
#: the setting must drive above zero on some reference run, so each
#: case provably takes its branch).  Decode penalty and a 1X clock
#: change the fabric timing of every forwarded packet; forwarding
#: branches and calls reaches the fused closures no shipped monitor
#: forwards.
INTERFACE_SETTINGS = {
    "fifo-depth-1": ({"fifo_depth": 1}, None, _iface("fifo_stall_cycles")),
    "fifo-depth-2": ({"fifo_depth": 2}, None, _iface("fifo_stall_cycles")),
    "best-effort-memory": ({"fifo_depth": 1}, _best_effort_memory,
                           _iface("dropped")),
    "precise-exceptions": ({"precise_exceptions": True}, None,
                           _iface("ack_stall_cycles")),
    "meta-tlb-4": ({"meta_tlb_entries": 4}, None, _tlb_walks),
    "no-predecode": ({"predecode": False}, None, _iface("forwarded")),
    "clock-ratio-1": ({"clock_ratio": 1.0}, None, _iface("forwarded")),
    "forward-control-flow": ({}, _forward_control_flow,
                             _forwarded_control_flow),
}


def _configured_system(program, extension, overrides=(), tweak=None):
    config = experiment_system_config(clock_ratio=_fabric_ratio(extension))
    for name, value in dict(overrides).items():
        setattr(config.interface, name, value)
    system = FlexCoreSystem(program, _make_extension(extension), config)
    if tweak is not None:
        tweak(system)
    return system


@pytest.mark.parametrize("setting", sorted(INTERFACE_SETTINGS))
@pytest.mark.parametrize("workload", CONFIG_KERNELS)
def test_interface_configs_bit_identical(workload, setting):
    overrides, tweak, probe = INTERFACE_SETTINGS[setting]
    program = build_workload(workload, 0.125).build()
    reached = 0
    for extension in CONFIG_MONITORS:
        runs = {
            engine: _configured_system(program, extension, overrides,
                                       tweak).run_bounded(engine=engine)
            for engine in ENGINES
        }
        reference = runs["reference"]
        reached += probe(reference)
        for engine in FUSED_ENGINES:
            assert runs[engine].engine == engine
            _assert_identical(reference, runs[engine])
    assert reached > 0, f"{setting} never reached its branch"


# ---------------------------------------------------------------------------
# Layer 6: fault models that arm without a record hook.


#: model -> the DIFT fault armed on bitcount.  The CFGR flip turns the
#: ALWAYS policy for word loads into ALWAYS_ACK, so every later load
#: waits for an ack; the drop loses a packet mid-run.
ARMED_FAULTS = {
    "fifo-drop": FaultSpec.make("fifo-drop", index=2_000),
    "lut-config": FaultSpec.make(
        "lut-config", bit=2 * int(InstrClass.LOAD_WORD)),
}


@pytest.mark.parametrize("model", sorted(ARMED_FAULTS))
def test_armed_fault_bit_identical_across_engines(model):
    spec = ARMED_FAULTS[model]
    program = build_workload("bitcount", 0.125).build()
    outcomes = {}
    for engine in ENGINES:
        system = _configured_system(program, "dift")
        create_model(model).arm(system, spec)
        assert not system.record_hooks, "model must arm without a hook"
        # Count the packets the (possibly patched) monitor receives,
        # to prove the drop's index is reached on every engine.
        process = system.extension.process
        delivered = [0]

        def counted(packet, process=process, delivered=delivered):
            delivered[0] += 1
            return process(packet)

        system.extension.process = counted
        result = system.run_bounded(engine=engine)
        assert result.engine == engine
        outcomes[engine] = (result_fingerprint(result), run_digest(result),
                            system.extension.snapshot_state(),
                            delivered[0])
    if model == "fifo-drop":
        assert outcomes["reference"][3] >= spec.get("index")
    else:
        golden = _configured_system(program, "dift").run_bounded(
            engine="reference")
        assert outcomes["reference"][0] != result_fingerprint(golden), (
            f"{spec} had no effect")
    for engine in FUSED_ENGINES:
        assert outcomes[engine] == outcomes["reference"]


# ---------------------------------------------------------------------------
# Layer 7: what the forward tails run.

PAPER_MONITORS = ("umc", "dift", "bc", "sec")

#: Classes the fast engine never fuses: they commit through
#: ``on_commit``, which always calls the reference ``_service``.
UNFUSED_CLASSES = frozenset({
    InstrClass.FLEX, InstrClass.TRAP, InstrClass.SAVE,
    InstrClass.RESTORE, InstrClass.RETT, InstrClass.LOAD_DOUBLE,
    InstrClass.STORE_DOUBLE,
})


def _probe_services(system):
    """Record the classes the fast engine built a forward tail for,
    and count the packets per class that reach the reference
    ``_service`` (a tail that needs it calls it in its op's place)."""
    iface = system.interface
    reference = iface._service
    installed: set = set()
    reached: dict = {}

    def counted(packet, now):
        reached[packet.opcode] = reached.get(packet.opcode, 0) + 1
        return reference(packet, now)

    real_forward_tail = iface.forward_tail

    def forward_tail(klass, inst, tails):
        installed.add(klass)
        return real_forward_tail(klass, inst, tails)

    iface._service = counted
    iface.forward_tail = forward_tail
    return installed, reached


def _fused_forwarded(result):
    return {klass for klass, count
            in result.interface_stats.forwarded_by_class.items()
            if count and klass not in UNFUSED_CLASSES}


def _assert_fused_classes_specialised(extension, program, tweak=None):
    """The fast run of ``program`` under ``extension`` serves every
    fused forwarded class with the op's tail, never ``_service``, and
    stays identical to the reference; returns the fused classes."""
    system = _configured_system(program, extension, tweak=tweak)
    installed, reached = _probe_services(system)
    result = system.run_bounded(engine="fast")
    assert result.engine == "fast"
    fused = _fused_forwarded(result)
    assert fused, "no fused class was forwarded"
    assert fused <= installed
    assert not fused & set(reached), reached
    reference = _configured_system(program, extension,
                                   tweak=tweak).run_bounded(
        engine="reference")
    _assert_identical(reference, result)
    return fused


@pytest.mark.parametrize("extension", PAPER_MONITORS)
def test_paper_monitors_run_specialised_services(extension):
    program = build_workload("sha", 0.125).build()
    fused = _assert_fused_classes_specialised(extension, program)
    if extension == "dift":
        assert InstrClass.JMPL in fused


def _forward_y_and_jumps(system):
    system.interface.cfgr.set_classes(
        (InstrClass.RDSR, InstrClass.WRSR, InstrClass.JMPL),
        ForwardPolicy.ALWAYS)


@pytest.mark.parametrize("extension", PAPER_MONITORS)
def test_forwarded_y_and_jumps_run_specialised(extension):
    """fft reads and writes Y, and sha returns through ``jmpl``:
    forwarded, all three reach the monitor's op from their fused
    handlers."""
    fused = set()
    for workload in ("fft", "sha"):
        program = build_workload(workload, 0.125).build()
        fused |= _assert_fused_classes_specialised(extension, program,
                                                   _forward_y_and_jumps)
    assert {InstrClass.RDSR, InstrClass.WRSR, InstrClass.JMPL} <= fused


def _arm_fifo_drop(system):
    create_model("fifo-drop").arm(
        system, FaultSpec.make("fifo-drop", index=500))


#: Monitors beyond the paper's four hand-written ones: their fused
#: classes reach their ops too.
OTHER_MONITORS = (tuple(f"mdl:{name}" for name in sorted(shipped_specs()))
                  + tuple(EXTRA_EXTENSION_NAMES))


@pytest.mark.parametrize("extension", OTHER_MONITORS)
def test_mdl_and_extra_monitors_run_specialised_services(extension):
    program = build_workload("sha", 0.125).build()
    fused = _assert_fused_classes_specialised(extension, program)
    if extension == "shadowstack":
        assert {InstrClass.CALL, InstrClass.JMPL} <= fused


#: name -> (extension, InterfaceConfig overrides, system tweak): each
#: run must keep every forwarded packet on the reference ``_service``.
GENERIC_PATH_RUNS = {
    "meta-tlb-4": ("dift", {"meta_tlb_entries": 4}, None),
    "fifo-drop": ("dift", {}, _arm_fifo_drop),
}


@pytest.mark.parametrize("case", sorted(GENERIC_PATH_RUNS))
def test_reference_service_where_the_run_needs_it(case):
    extension, overrides, tweak = GENERIC_PATH_RUNS[case]
    program = build_workload("bitcount", 0.125).build()
    config = experiment_system_config(clock_ratio=_fabric_ratio(extension))
    for name, value in overrides.items():
        setattr(config.interface, name, value)
    system = FlexCoreSystem(program, _make_extension(extension), config)
    if tweak is not None:
        tweak(system)
    installed, reached = _probe_services(system)
    result = system.run_bounded(engine="fast")
    assert result.engine == "fast"
    assert _fused_forwarded(result) <= installed
    assert sum(reached.values()) == result.interface_stats.forwarded > 0


def test_tracer_keeps_the_reference_service():
    """A tracer already sends the whole run down the reference loop;
    a forward tail built under one calls ``_service`` all the same,
    since the tracer's events live there."""
    program = build_workload("bitcount", 0.125).build()
    system = FlexCoreSystem(program, create_extension("dift"),
                            telemetry=Telemetry.enabled(trace=True))
    iface = system.interface
    installed, reached = _probe_services(system)
    word = system.memory.read_word(program.entry)
    tail = iface.forward_tail(InstrClass.LOAD_WORD, word, {})
    packet = TracePacket(program.entry, word, 0x10000, 0, 0x10000, 0, 0,
                         False, InstrClass.LOAD_WORD, 1, 0, 8, 0, 9)
    assert tail(packet, 0) == 0  # no ack: commit does not wait
    assert reached == {InstrClass.LOAD_WORD: 1}
    assert iface.stats.forwarded == 1 and iface.drain_time() > 0
    result = system.run_bounded(engine="fast")
    assert result.engine == "reference"


def _assert_upset_runs_specialised(extension, klass):
    """A CFGR upset that forwards ``klass`` (best effort) to
    ``extension``: the fast engine serves it with the monitor's op for
    the class, and the run stays identical to the reference."""
    spec = FaultSpec.make("lut-config", bit=2 * int(klass))
    program = build_workload("bitcount", 0.125).build()
    runs = {}
    for engine in ENGINES:
        system = _configured_system(program, extension)
        create_model("lut-config").arm(system, spec)
        assert (system.interface.cfgr.policy(klass)
                == ForwardPolicy.BEST_EFFORT)
        installed, reached = _probe_services(system)
        runs[engine] = system.run_bounded(engine=engine)
        if engine == "fast":
            assert klass in installed
            assert klass not in reached
    forwarded = runs["reference"].interface_stats.forwarded_by_class
    assert forwarded.get(klass, 0) > 0
    for engine in FUSED_ENGINES:
        _assert_identical(runs["reference"], runs[engine])
    return runs["reference"]


def test_branch_upset_to_dift_runs_specialised():
    _assert_upset_runs_specialised("dift", InstrClass.BRANCH)


def test_arith_sub_upset_to_shadow_stack_runs_specialised():
    """Any non-CALL, non-FLEX class the shadow stack receives takes its
    JMPL branch: a ``sub`` with a destination pushes, and a ``cmp``
    (``subcc`` into %g0) pops and checks."""
    result = _assert_upset_runs_specialised("shadowstack",
                                            InstrClass.ARITH_SUB)
    assert result.trap is not None
    assert result.trap.kind == "return-address-mismatch"


# ---------------------------------------------------------------------------
# Directed: WRY's second source.

_WRY_AFTER_LOAD = """
        .text
start:  set     buf, %g2
        mov     5, %g1
        ld      [%g2], %l0
        wr      %g1, %l0, %y
        rd      %y, %o0
        ta      0
        nop
        .data
buf:    .word   0x1234
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_wry_reads_its_second_source(engine):
    """``wr %g1, %l0, %y`` right after a load into %l0 waits out the
    load-use interlock on rs2 and forwards SRC2 = phys(%l0)."""
    program = assemble(_WRY_AFTER_LOAD, entry="start")
    system = FlexCoreSystem(program, create_extension("dift"))
    system.interface.cfgr.set(InstrClass.WRSR, ForwardPolicy.ALWAYS)
    packets = []
    process = system.extension.process

    def spy(packet):
        packets.append(packet)
        return process(packet)

    system.extension.process = spy
    result = system.run_bounded(engine=engine)
    assert result.engine == engine and result.halted
    [wry] = [p for p in packets if p.opcode == InstrClass.WRSR]
    assert wry.src2 == system.cpu.regs.physical_index(16)  # %l0
    assert (wry.srcv1, wry.srcv2) == (5, 0x1234)
    assert result.core_stats.interlock_stall == 1
    assert system.cpu.regs.read(8) == 5 ^ 0x1234  # %o0 <- Y
