"""Differential proof of the fast and superblock engines.

For any program, extension, and watchdog configuration the fused
predecoded loop (``engine="fast"``) and the block-compiled loop
(``engine="superblock"``) must be observationally identical to the
reference loop: same ``run_digest``, same trap/error strings, same
termination, same recovery count.  Six layers:

* a hypothesis property over random programs (ALU/memory/branch mixes,
  annulled delay slots, undecodable words) under a drawn extension;
* the full paper matrix — six workloads under every shipped extension
  including the MDL-compiled specs — at the experiment configuration;
* mid-run checkpoint/restore and rollback recovery under each fused
  engine, including restoring a fused-engine snapshot into a
  reference-loop run;
* directed superblock adversaries: self-modifying stores that patch a
  compiled block from inside it, traps raised mid-block, and
  checkpoint boundaries landing inside a block;
* interface configurations that drive every branch of the shared
  forward path: tiny FIFOs (full stalls), best-effort drops, ack
  stalls, the meta-data TLB, fabric-side decode and a 1X fabric;
* the fault models that run on the fused engines (``fifo-drop`` and
  ``lut-config``), one armed fault each.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import SystemSnapshot
from repro.evaluation.config import (
    FLEXCORE_RATIOS,
    experiment_system_config,
)
from repro.extensions import EXTENSION_NAMES, create_extension
from repro.faultinject.models import FaultSpec, create_model
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.system import FlexCoreSystem
from repro.isa.assembler import assemble
from repro.isa.opcodes import MEMORY_CLASSES, InstrClass
from repro.mdl import load_spec, shipped_specs
from repro.telemetry.summary import result_fingerprint, run_digest
from repro.workloads import build_workload, workload_names

MASK32 = 0xFFFFFFFF

OPS = {
    "add": None, "addcc": None, "sub": None, "subcc": None,
    "and": None, "or": None, "xor": None, "andn": None,
    "xnor": None, "sll": None, "srl": None, "sra": None,
    "umul": None, "smul": None,
}

# Registers the generator may clobber (avoid %g0/%sp/%fp/%o7).
REGS = ["%g1", "%g2", "%g3", "%o0", "%o1", "%o2", "%l0", "%l1",
        "%l2", "%l3", "%i0", "%i1"]

#: extension specs; "mdl:<name>" instantiates a shipped MDL spec.
MATRIX_EXTENSIONS = (
    (None,) + tuple(EXTENSION_NAMES)
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
_STORE = st.tuples(st.just("st"), _REG_INDEX, _BUF_OFFSET)
_LOAD = st.tuples(st.just("ld"), _BUF_OFFSET, _REG_INDEX)
#: compare-and-skip with an annulled delay slot: exercises the fused
#: branch handler's annul path both taken and untaken.
_SKIP = st.tuples(st.just("skip"), _REG_INDEX, _REG_INDEX)


@st.composite
def monitored_programs(draw):
    seeds = draw(st.lists(st.integers(0, MASK32), min_size=4,
                          max_size=4))
    ops = draw(st.lists(st.one_of(_ALU, _STORE, _LOAD, _SKIP),
                        min_size=1, max_size=24))
    loops = draw(st.integers(1, 3))
    # An undecodable word in place of the halt: both engines must
    # raise the decoder's SimulationError identically when reached.
    bad_tail = draw(st.sampled_from((False, False, False, True)))
    extension = draw(st.sampled_from((None, "umc", "dift", "bc")))
    return seeds, ops, loops, bad_tail, extension


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
            _, rs, offset = op
            lines.append(f"        st      {REGS[rs]}, "
                         f"[%g4 + {offset}]")
        elif kind == "ld":
            _, offset, rd = op
            lines.append(f"        ld      [%g4 + {offset}], "
                         f"{REGS[rd]}")
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
    if bad_tail:
        lines.append("        .word   0x00000000")
    else:
        lines += ["        ta      0", "        nop"]
    lines += ["        .data", "buf:    .space  64"]
    return assemble("\n".join(lines), entry="start")


FUSED_ENGINES = ("fast", "superblock")


@settings(max_examples=50, deadline=None)
@given(monitored_programs())
def test_random_programs_bit_identical(case):
    seeds, ops, loops, bad_tail, extension = case
    program = _emit(seeds, ops, loops, bad_tail)
    reference = _run_one(program, extension, "reference",
                         max_instructions=20_000)
    for engine in FUSED_ENGINES:
        fused = _run_one(program, extension, engine,
                         max_instructions=20_000)
        if not isinstance(fused, tuple):
            assert fused.engine == engine
        _assert_identical(reference, fused)


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
# Layer 3: checkpoint/restore and recovery under the fused engines.


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_fused_engine_checkpoint_restore_round_trip(engine):
    program = build_workload("bitcount", 0.125).build()

    captured = []
    system = FlexCoreSystem(program, create_extension("umc"))
    checkpointed = system.run_bounded(
        engine=engine, checkpoint_every=2_000,
        on_checkpoint=lambda s, state: captured.append(
            SystemSnapshot.from_state(s, state)
        ),
    )
    assert checkpointed.engine == engine
    assert checkpointed.halted
    assert captured, "run too short to checkpoint"

    uninterrupted = _run_one(program, "umc", "reference")
    assert (result_fingerprint(checkpointed)
            == result_fingerprint(uninterrupted))

    snapshot = captured[len(captured) // 2]
    for resume_engine in (engine, "reference"):
        resumed_system = FlexCoreSystem(program,
                                        create_extension("umc"))
        snapshot.restore_into(resumed_system)
        resumed = resumed_system.run_bounded(engine=resume_engine)
        assert resumed.engine == resume_engine
        assert (result_fingerprint(resumed)
                == result_fingerprint(uninterrupted))


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


# ---------------------------------------------------------------------------
# Layer 4: directed superblock adversaries.


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
        st      %g1, [%g2]         ! patch the block we are inside
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
    """A store whose target word belongs to an already-compiled
    superblock — the very block being executed — must invalidate it;
    the patched instruction takes effect on the next loop iteration
    exactly as in the reference."""
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
        add     %g3, 1, %g4        ! load sits mid-block, with live
        ld      [%g1 + 8], %g5     ! members after it (UMC trap here)
        add     %g5, 1, %g6
        add     %g6, 1, %o0
        ta      0
        nop
"""


def test_trap_raised_mid_block_stops_identically():
    """A monitor trap latched by a non-terminal member must stop the
    block immediately — the members after it never execute, matching
    the reference loop's per-instruction trap check."""
    program = assemble(_MIDBLOCK_TRAP_SOURCE, entry="start")
    reference = _run_one(program, "umc", "reference")
    assert reference.trap is not None
    for engine in FUSED_ENGINES:
        fused = _run_one(program, "umc", engine)
        assert fused.trap is not None
        _assert_identical(reference, fused)


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_checkpoint_boundary_inside_block_bit_identical(engine):
    """A checkpoint stride that keeps landing mid-block (prime, and
    small) forces the dispatcher to decline block entry near every
    boundary; both the captured snapshot states and the final result
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
    a fused engine silently runs the reference loop — with, still,
    an identical digest."""
    program = build_workload("bitcount", 0.125).build()

    fast = _run_one(program, "dift", "fast")
    assert fast.engine == "fast"

    seen = []
    system = FlexCoreSystem(program, create_extension("dift"))
    system.record_hooks.append(lambda record: seen.append(record))
    hooked = system.run_bounded(engine="fast")
    assert hooked.engine == "reference"
    assert len(seen) == hooked.instructions
    assert result_fingerprint(hooked) == result_fingerprint(fast)
    assert run_digest(hooked) == run_digest(fast)


# ---------------------------------------------------------------------------
# Layer 5: interface configurations on the shared forward path.

ENGINES = ("reference",) + FUSED_ENGINES
CONFIG_KERNELS = ("bitcount", "basicmath")
CONFIG_MONITORS = ("umc", "dift", "bc")


def _best_effort_memory(system):
    system.interface.cfgr.set_classes(MEMORY_CLASSES,
                                      ForwardPolicy.BEST_EFFORT)


def _iface(counter):
    return lambda result: getattr(result.interface_stats, counter)


def _tlb_walks(result):
    return result.bus_stats.transactions.get("meta-tlb-walk", 0)


#: name -> (InterfaceConfig overrides, system tweak or None, a probe
#: the setting must drive above zero on some reference run, so each
#: case provably takes its branch).  Decode penalty and a 1X clock
#: change the fabric timing of every forwarded packet.
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
}


def _configured_system(program, extension, overrides=(), tweak=None):
    config = experiment_system_config(clock_ratio=_fabric_ratio(extension))
    for name, value in dict(overrides).items():
        setattr(config.interface, name, value)
    system = FlexCoreSystem(program, create_extension(extension), config)
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
