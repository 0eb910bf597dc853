"""Checkpoint subsystem: codec determinism, container integrity,
atomic writes, bit-exact snapshot/restore, and rollback recovery."""

import os

import pytest

from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointVersionError,
    CodecError,
    SystemSnapshot,
    atomic_write_bytes,
    atomic_write_text,
    decode_obj,
    encode_obj,
    program_digest,
    read_container,
    state_digest,
    write_container,
)
from repro.checkpoint.container import MAGIC, dump_container
from repro.extensions import create_extension
from repro.flexcore import FlexCoreSystem
from repro.isa.assembler import assemble
from repro.util.rng import derive_rng
from repro.workloads import build_workload

SOURCE = """
        .text
start:  mov     8, %o1
        set     buf, %o2
loop:   st      %o1, [%o2]
        ld      [%o2], %o3
        add     %o2, 4, %o2
        subcc   %o1, 1, %o1
        bne     loop
        nop
        set     checksum, %o4
        st      %o3, [%o4]
        ta      0
        nop
        .data
buf:    .space  64
checksum: .word 0
"""


class TestCodec:
    CASES = [
        None,
        True,
        False,
        0,
        1,
        -1,
        2**40,
        -(2**40),
        0.0,
        -0.0,
        0.1,
        1.5e300,
        float("inf"),
        "",
        "héllo\nworld",
        b"",
        b"\x00\xff" * 7,
        [],
        [1, "two", b"three", None, [4.5]],
        {},
        {"a": 1, "b": {"c": [True, 2.5]}},
        {1: "int key", "s": "str key"},
    ]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_round_trip(self, value):
        assert decode_obj(encode_obj(value)) == value

    def test_bool_is_not_int(self):
        """JSON-style bool/int confusion must not happen: restoring a
        snapshot must hand back exactly the types it captured."""
        assert decode_obj(encode_obj(True)) is True
        assert decode_obj(encode_obj(1)) == 1
        assert not isinstance(decode_obj(encode_obj(1)), bool)

    def test_float_bit_exact(self):
        for value in (0.1 + 0.2, 1 / 3, 2.5**-300):
            raw = decode_obj(encode_obj(value))
            assert raw.hex() == value.hex()

    def test_tuple_encodes_as_list(self):
        assert decode_obj(encode_obj((1, 2, 3))) == [1, 2, 3]

    def test_deterministic_encoding(self):
        value = {"x": [1, 2.5, b"y"], "z": {"nested": True}}
        assert encode_obj(value) == encode_obj(value)

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_state_digest_depends_on_the_value_alone(self, value):
        # an equal value rebuilt afresh (new, uninterned
        # strings, no shared objects) digests the same
        assert state_digest(decode_obj(encode_obj(value))) == \
            state_digest(value)

    def test_state_digest_tells_types_apart(self):
        import enum

        class Level(enum.IntEnum):
            HIGH = 1

        digests = {state_digest(value) for value in (
            1, True, 1.0, "1", b"1", [1], (1,), {1: 1}, [Level.HIGH],
        )}
        assert len(digests) == 9
        # a built-in subclass falls back to repr, deterministically
        assert state_digest([Level.HIGH]) == state_digest([Level.HIGH])
        assert state_digest({"a": 1, "b": 2}) != \
            state_digest({"b": 2, "a": 1})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_obj(encode_obj(1) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_obj(encode_obj("hello")[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="tag"):
            decode_obj(b"?")

    def test_unsupported_type_rejected(self):
        with pytest.raises(CodecError, match="cannot encode"):
            encode_obj(object())


class TestContainer:
    SECTIONS = {"meta": b"hello", "state": b"\x00" * 100}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_container(path, self.SECTIONS)
        assert read_container(path) == self.SECTIONS

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError, match="magic"):
            read_container(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = dump_container(self.SECTIONS)
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            read_container(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_container(path, self.SECTIONS)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC):len(MAGIC) + 2] = (99).to_bytes(2, "big")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError, match="version 99"):
            read_container(path)

    def test_payload_corruption_fails_crc(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_container(path, self.SECTIONS)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # inside the last section's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="CRC32"):
            read_container(path)


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"

    def test_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "héllo\n")
        assert path.read_text(encoding="utf-8") == "héllo\n"

    def test_no_temp_litter_on_failure(self, tmp_path):
        target = tmp_path / "sub"
        target.mkdir()  # os.replace onto a directory fails
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"boom")
        litter = [p for p in os.listdir(tmp_path) if p != "sub"]
        assert litter == []


def _result_fingerprint(result):
    """Everything observable about a finished run, for equality."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "halted": result.halted,
        "trap": str(result.trap),
        "termination": result.termination,
        "core_stats": vars(result.core_stats),
        "interface_stats": (
            vars(result.interface_stats)
            if result.interface_stats is not None else None
        ),
        "recoveries": result.recoveries,
    }


WORKLOADS = ("crc32", "bitcount", "qsort")
EXTENSIONS = ("umc", "dift", "sec")


class TestSnapshotRoundTrip:
    """Property test: restoring at a randomized mid-run checkpoint and
    running to the end is indistinguishable from never stopping."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("extension", EXTENSIONS)
    def test_resume_is_bit_exact(self, workload, extension):
        program = build_workload(workload, 0.125).build()
        rng = derive_rng(workload, extension)
        interval = rng.randrange(300, 4000)

        captured = []
        system = FlexCoreSystem(program, create_extension(extension))
        reference = system.run_bounded(
            checkpoint_every=interval,
            on_checkpoint=lambda s, state: captured.append(
                SystemSnapshot.from_state(s, state)
            ),
        )
        assert reference.halted
        assert captured, "run too short to checkpoint"

        snapshot = rng.choice(captured)
        resumed_system = FlexCoreSystem(
            program, create_extension(extension)
        )
        snapshot.restore_into(resumed_system)
        assert resumed_system.cpu.instret == snapshot.instructions
        resumed = resumed_system.run_bounded()
        assert (_result_fingerprint(resumed)
                == _result_fingerprint(reference))

    def test_checkpointing_does_not_perturb_the_run(self):
        program = assemble(SOURCE, entry="start")
        plain = FlexCoreSystem(program, create_extension("umc"))
        checked = FlexCoreSystem(program, create_extension("umc"))
        a = plain.run_bounded()
        b = checked.run_bounded(checkpoint_every=10)
        assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_checkpoint_callback_schedules_the_next_one(self):
        # on_checkpoint may return the absolute instret of the next
        # checkpoint; None keeps the fixed stride.
        program = assemble(SOURCE, entry="start")
        seen = []

        def schedule(_system, state):
            seen.append(state["cpu"]["instret"])
            return 2 * seen[-1] if len(seen) < 3 else None

        system = FlexCoreSystem(program, create_extension("umc"))
        result = system.run_bounded(checkpoint_every=5,
                                    on_checkpoint=schedule)
        assert result.halted
        assert seen[:5] == [5, 10, 20, 25, 30]

    def test_disk_round_trip(self, tmp_path):
        program = assemble(SOURCE, entry="start")
        captured = []
        system = FlexCoreSystem(program, create_extension("umc"))
        reference = system.run_bounded(
            checkpoint_every=20,
            on_checkpoint=lambda s, state: captured.append(
                SystemSnapshot.from_state(s, state)
            ),
        )
        path = tmp_path / "mid.ckpt"
        captured[len(captured) // 2].save(path)
        loaded = SystemSnapshot.load(path)
        resumed_system = FlexCoreSystem(program, create_extension("umc"))
        loaded.restore_into(resumed_system)
        resumed = resumed_system.run_bounded()
        assert (_result_fingerprint(resumed)
                == _result_fingerprint(reference))

    def test_same_snapshot_restores_repeatedly(self):
        """Rollback retries restore one snapshot many times; neither
        the snapshot nor the restored run may drift."""
        program = assemble(SOURCE, entry="start")
        captured = []
        system = FlexCoreSystem(program, create_extension("dift"))
        reference = system.run_bounded(
            checkpoint_every=25,
            on_checkpoint=lambda s, state: captured.append(
                SystemSnapshot.from_state(s, state)
            ),
        )
        snapshot = captured[0]
        for _ in range(3):
            resumed_system = FlexCoreSystem(
                program, create_extension("dift")
            )
            snapshot.restore_into(resumed_system)
            resumed = resumed_system.run_bounded()
            assert (_result_fingerprint(resumed)
                    == _result_fingerprint(reference))


class TestSnapshotRejection:
    def _snapshot(self, extension="umc"):
        program = assemble(SOURCE, entry="start")
        system = FlexCoreSystem(program, create_extension(extension))
        system.run_bounded(max_instructions=30)
        return SystemSnapshot.capture(system)

    def test_wrong_program_rejected(self):
        snapshot = self._snapshot()
        other = assemble(SOURCE.replace("mov     8", "mov     9"),
                         entry="start")
        system = FlexCoreSystem(other, create_extension("umc"))
        with pytest.raises(CheckpointMismatchError,
                           match="different program"):
            snapshot.restore_into(system)

    def test_wrong_extension_rejected(self):
        snapshot = self._snapshot(extension="umc")
        program = assemble(SOURCE, entry="start")
        system = FlexCoreSystem(program, create_extension("sec"))
        with pytest.raises(CheckpointMismatchError, match="extension"):
            snapshot.restore_into(system)

    def test_missing_section_rejected(self):
        snapshot = self._snapshot()
        sections = snapshot.to_sections()
        del sections["state"]
        with pytest.raises(CheckpointFormatError, match="state"):
            SystemSnapshot.from_sections(sections)

    def test_corrupted_file_rejected(self, tmp_path):
        snapshot = self._snapshot()
        path = tmp_path / "x.ckpt"
        snapshot.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            SystemSnapshot.load(path)

    def test_program_digest_sensitivity(self):
        base = assemble(SOURCE, entry="start")
        changed = assemble(SOURCE.replace("mov     8", "mov     9"),
                           entry="start")
        assert program_digest(base) == program_digest(base)
        assert program_digest(base) != program_digest(changed)


class TestRollbackRecovery:
    def _system(self, extension="sec"):
        program = assemble(SOURCE, entry="start")
        return FlexCoreSystem(program, create_extension(extension))

    def _golden(self):
        return self._system().run_bounded()

    def _arm_transient(self, system, index=5, bit=3):
        from repro.isa.opcodes import ALU_CLASSES
        state = {"alu": 0}

        def flip(record):
            if record.instr_class in ALU_CLASSES and not record.annulled:
                state["alu"] += 1
                if state["alu"] == index:
                    record.result ^= 1 << bit

        system.record_hooks.append(flip)

    def test_transient_fault_is_survived(self):
        golden = self._golden()
        system = self._system()
        self._arm_transient(system)
        result = system.run_bounded(checkpoint_every=10, recover=True)
        assert result.halted
        assert result.trap is None
        assert result.recoveries == 1
        assert result.recovery_cycles > 0
        assert result.instructions == golden.instructions
        # recovery is charged: the wasted work plus the rollback
        # penalty, never free
        assert result.cycles > golden.cycles
        assert result.recovery_cycles >= 128  # >= the latency alone

    def test_recovery_without_periodic_checkpoints(self):
        """recover=True alone rolls back to the run's entry state."""
        system = self._system()
        self._arm_transient(system)
        result = system.run_bounded(recover=True)
        assert result.halted and result.trap is None
        assert result.recoveries == 1

    def test_persistent_fault_exhausts_recovery_limit(self):
        """A fault that re-fires on every replay must degrade into
        plain detection after recovery_limit rollbacks, not loop."""
        from repro.isa.opcodes import ALU_CLASSES
        system = self._system()

        def always_corrupt(record):
            if record.instr_class in ALU_CLASSES and not record.annulled:
                record.result ^= 1

        system.record_hooks.append(always_corrupt)
        result = system.run_bounded(
            checkpoint_every=10, recover=True, recovery_limit=3
        )
        assert result.trap is not None
        assert result.recoveries == 3

    def test_recovery_is_deterministic(self):
        runs = []
        for _ in range(2):
            system = self._system()
            self._arm_transient(system)
            runs.append(system.run_bounded(checkpoint_every=10,
                                           recover=True))
        assert (_result_fingerprint(runs[0])
                == _result_fingerprint(runs[1]))

    def test_checkpoint_every_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            self._system().run_bounded(checkpoint_every=0)


#: ``SOURCE`` plus a load from a stack word nothing wrote, which the
#: UMC monitor traps on.
TRAPPING = SOURCE.replace(
    "        ta      0\n",
    "        ld      [%sp - 64], %o5\n        ta      0\n",
)

SPIN = """
        .text
start:  ba      start
        nop
"""

_UMC_TRAP = ("[umc] uninitialized-read at pc=0x1030 addr=0x7fffb0: "
             "load from uninitialized word 0x7fffb0")


def _landmarks():
    marks = iter([12, 13, 40])
    return lambda _system, _state: next(marks, None)


def _thirty_on():
    return lambda _system, state: state["cpu"]["instret"] + 30


#: name -> (program, run_bounded kwargs, on_checkpoint factory,
#: (termination, instret, cycles, checkpoint instrets, recoveries,
#: trap)).  The watchdogs of the run loop fire in a fixed order at
#: the top of each step — instruction limit, cycle cap, deadline
#: stride, checkpoint — and these values pin that order where two of
#: them meet.
WATCHDOG_CASES = {
    "plain": (SOURCE, {}, None,
              ("HALTED", 55, 244, [], 0, None)),
    "limit": (
        SOURCE, {"max_instructions": 30}, None,
        ("INSTRUCTION_LIMIT", 30, 208, [], 0, None)),
    "limit-on-checkpoint": (
        SOURCE, {"max_instructions": 30, "checkpoint_every": 10}, None,
        ("INSTRUCTION_LIMIT", 30, 208, [10, 20], 0, None)),
    "cycle-cap": (
        SOURCE, {"max_cycles": 200}, None,
        ("CYCLE_LIMIT", 28, 206, [], 0, None)),
    "cycle-cap-between-checkpoints": (
        SOURCE, {"max_cycles": 200, "checkpoint_every": 10}, None,
        ("CYCLE_LIMIT", 28, 206, [10, 20], 0, None)),
    "absolute-landmarks": (
        SOURCE, {"checkpoint_every": 5}, _landmarks,
        ("HALTED", 55, 244, [5, 12, 13, 40, 45, 50], 0, None)),
    "rollback-to-checkpoint": (
        TRAPPING, {"checkpoint_every": 20, "recover": True,
                   "recovery_limit": 2}, None,
        ("TRAP", 55, 800, [20, 40], 2, _UMC_TRAP)),
    "rollback-past-a-landmark": (
        # Each checkpoint schedules the next 30 instructions on; a
        # rollback to instret 35 falls back to the 5-stride.
        TRAPPING, {"checkpoint_every": 5, "recover": True,
                   "recovery_limit": 2}, _thirty_on,
        ("TRAP", 55, 808, [5, 35, 40, 45], 2, _UMC_TRAP)),
    "rollback-to-entry": (
        TRAPPING, {"recover": True, "recovery_limit": 1}, None,
        ("TRAP", 55, 784, [], 1, _UMC_TRAP)),
    "deadline-stride": (
        SPIN, {"deadline": 0.0, "max_instructions": 10_000}, None,
        ("DEADLINE", 4096, 4134, [], 0, None)),
    "limit-before-deadline": (
        SPIN, {"deadline": 0.0, "max_instructions": 4096}, None,
        ("INSTRUCTION_LIMIT", 4096, 4134, [], 0, None)),
    "deadline-before-checkpoint": (
        SPIN, {"deadline": 0.0, "max_instructions": 10_000,
               "checkpoint_every": 4096}, None,
        ("DEADLINE", 4096, 4134, [], 0, None)),
}


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("case", sorted(WATCHDOG_CASES))
def test_watchdog_order_is_pinned(case, engine):
    """Both engines share one run loop, so the differential suites
    cannot see a mistake in its watchdog bookkeeping; these values
    were captured from the loop that tested each watchdog on every
    step."""
    source, kwargs, make_callback, expected = WATCHDOG_CASES[case]
    callback = make_callback() if make_callback else None
    seen = []

    def grab(system, state):
        seen.append(state["cpu"]["instret"])
        return callback(system, state) if callback else None

    system = FlexCoreSystem(assemble(source, entry="start"),
                            create_extension("umc"))
    result = system.run_bounded(engine=engine, on_checkpoint=grab,
                                **kwargs)
    assert result.engine == engine
    assert (result.termination.name, result.instructions, result.cycles,
            seen, result.recoveries,
            str(result.trap) if result.trap else None) == expected
