"""Composable fault models for simulation-based fault injection.

Each model describes one class of physical upset the FlexCore paper's
monitors are meant to catch (or survive): register-file bit flips,
memory and meta-data bit flips, trace-packet field corruption in the
core-fabric interface, forward-FIFO entry loss, and configuration
upsets in the fabric's LUT/CFGR state (the DAVOS/SBFI taxonomy).

A model separates *planning* from *arming*:

* :meth:`FaultModel.plan` draws one concrete :class:`FaultSpec` from
  the fault space using an explicit ``random.Random`` and the golden
  run's :class:`GoldenProfile` — all randomness flows through the rng,
  which is what makes campaigns bit-reproducible;
* :meth:`FaultModel.arm` installs the fault into a freshly built
  :class:`~repro.flexcore.system.FlexCoreSystem`, typically as a
  commit-record hook that fires at the planned dynamic instruction.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass

from repro.flexcore.cfgr import ForwardConfig
from repro.flexcore.system import FlexCoreSystem
from repro.isa.opcodes import ALU_CLASSES

#: cap on the number of distinct store addresses the profile keeps
#: (deterministic: always the *first* distinct addresses, in order).
MAX_PROFILE_ADDRESSES = 4096


class ProfileMark(tuple):
    """One landmark of the golden run: after ``instret`` committed
    instructions (annulled slots included), exactly ``alu_commits`` of
    them were non-annulled ALU-class commits, ``forwarded`` trace
    packets had been delivered to the extension, the whole machine
    state had the :func:`~repro.checkpoint.state_digest` ``digest``,
    and ``state`` is that state packed by
    :func:`~repro.checkpoint.pack_state` (``None`` when it could not
    be packed).

    The counters place warm-start fork and settle points, the packed
    state is what a warm run forks from, and the digest lets a faulted
    run stop where it rejoins the golden run.  A plain tuple subclass
    (not a NamedTuple) so cached profiles round-trip through the
    checkpoint codec as ordinary tuples.
    """

    __slots__ = ()

    def __new__(cls, instret: int, alu_commits: int, forwarded: int,
                digest: str, state: bytes | None):
        return super().__new__(
            cls, (int(instret), int(alu_commits), int(forwarded),
                  str(digest), state)
        )

    def __getnewargs__(self):
        # pickle rebuilds a tuple subclass as ``cls.__new__(cls,
        # *args)``; tuple's own args are the one tuple, not the fields.
        return tuple(self)

    @property
    def instret(self) -> int:
        return self[0]

    @property
    def alu_commits(self) -> int:
        return self[1]

    @property
    def forwarded(self) -> int:
        return self[2]

    @property
    def digest(self) -> str:
        return self[3]

    @property
    def state(self) -> bytes | None:
        return self[4]

    def count(self, unit: str) -> int:
        """The counter a model with ``warm_unit`` ``unit`` walks:
        ``instret`` for ``"commits"``, else ``alu_commits`` or
        ``forwarded``."""
        return self[_MARK_COUNTERS[unit]]


#: ProfileMark field holding each warm unit's counter.
_MARK_COUNTERS = {"commits": 0, "alu": 1, "forwarded": 2}


@dataclass(frozen=True)
class FaultSpec:
    """One concrete, serialisable fault: a model name plus its
    parameters as a sorted tuple of (key, value) pairs (hashable and
    picklable, with a stable JSON rendering)."""

    model: str
    params: tuple[tuple[str, int | str], ...] = ()

    @classmethod
    def make(cls, model: str, **params: int | str) -> "FaultSpec":
        return cls(model, tuple(sorted(params.items())))

    def get(self, key: str, default: int | str | None = None):
        for name, value in self.params:
            if name == key:
                return value
        return default

    def as_dict(self) -> dict:
        return {"model": self.model, **dict(self.params)}

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.model}({inner})"


@dataclass(frozen=True)
class GoldenProfile:
    """What the fault planner knows about the fault-free run."""

    instructions: int
    cycles: int
    alu_commits: int
    load_commits: int
    store_commits: int
    forwarded: int
    #: distinct word-aligned addresses the program stored to (capped).
    store_addresses: tuple[int, ...]
    text_base: int
    text_size: int
    data_base: int
    data_size: int
    has_memory_tags: bool
    has_shadow_tags: bool
    memory_tag_bits: int
    register_tag_bits: int
    num_physical_registers: int
    #: output signature of the golden run (SDC reference).
    output: str
    #: :func:`~repro.checkpoint.program_digest` of the image the golden
    #: run executed: the landmark states are memory deltas against it.
    program: str
    #: golden-run landmarks, ascending by instret (see
    #: :class:`ProfileMark`); empty when the run is shorter than one
    #: landmark stride, and then every fault runs cold.
    marks: tuple[ProfileMark, ...]
    #: per instruction class (indexed by ``InstrClass``), the instret
    #: of the golden run's first non-annulled commit of that class, or
    #: ``None`` when it never commits one.
    first_commits: tuple[int | None, ...]

    def data_words(self) -> int:
        return max(self.data_size // 4, 0)

    def address_pool(self) -> tuple[int, ...]:
        """Candidate word addresses for memory-targeted faults: the
        stores the program actually performed, else its static data
        words, else its text words (an instruction-memory upset)."""
        if self.store_addresses:
            return self.store_addresses
        if self.data_words():
            return tuple(
                self.data_base + 4 * i for i in range(self.data_words())
            )
        return tuple(
            self.text_base + 4 * i for i in range(self.text_size // 4)
        )


def _rebase_index(spec: FaultSpec, index: int) -> FaultSpec:
    """``spec`` with its dynamic ``index`` parameter replaced."""
    params = dict(spec.params)
    params["index"] = index
    return FaultSpec(spec.model, tuple(sorted(params.items())))


class FaultModel(abc.ABC):
    """One class of injectable fault."""

    #: registry key and report label.
    name: str = "base"
    description: str = ""
    #: which golden-run counter the model's :meth:`warm_bound` walks
    #: (for indexed models, the one its ``index`` parameter counts):
    #: ``"commits"`` (every committed instruction, annulled slots
    #: included), ``"alu"`` (non-annulled ALU-class commits) or
    #: ``"forwarded"`` (packets delivered to the extension).  ``None``
    #: means the fault can matter from time zero, so there is no
    #: fault-free prefix a warm-started run could skip.
    warm_unit: str | None = None

    def applicable(self, profile: GoldenProfile) -> bool:
        """Whether this model has a non-empty fault space here."""
        return profile.instructions > 0

    # -- warm start ---------------------------------------------------------

    def inert(self, spec: FaultSpec, profile: GoldenProfile) -> bool:
        """Whether the faulted run provably *is* the golden run, so its
        outcome can be read off ``profile`` without simulating it.
        Only a model whose fault changes nothing the golden run ever
        reads can say so; the default is ``False``."""
        return False

    def warm_bound(self, spec: FaultSpec, profile: GoldenProfile) -> int:
        """Exclusive upper bound on the ``warm_unit`` counter of the
        golden landmark a warm-started run may fork from.  The fault
        fires at the ``index``-th event that counter counts, so until
        the counter reaches the index the faulted run is the golden
        run: restoring a landmark whose counter is still below the
        bound and arming via :meth:`arm_warm` reproduces the cold run
        bit-exactly.  ``0`` disables warm-starting for this spec."""
        if self.warm_unit is None:
            return 0
        return int(spec.get("index", 0))

    def warm_settle(self, spec: FaultSpec) -> int:
        """Absolute instret by which the armed fault has provably
        finished mutating the run (``0`` = not statically known).
        Past it the injection hook is inert — a pure counter — so the
        remainder of the run can continue hook-free on a fused engine
        with bit-identical results.  Only ``"commits"``-indexed models
        know this statically: their trigger fires *during* commit
        ``index``, so the window closes when ``index`` instructions
        have committed."""
        if self.warm_unit == "commits":
            return int(spec.get("index", 0))
        return 0

    def arm_warm(self, system: FlexCoreSystem, spec: FaultSpec,
                 mark: ProfileMark) -> None:
        """Arm ``spec`` into a system just restored from the golden
        state kept at ``mark``, rebasing the dynamic index past the
        counter value the skipped prefix already consumed."""
        if self.warm_unit is None:
            raise ValueError(
                f"model {self.name!r} cannot warm-start"
            )
        # The system holds the state captured at ``mark``, so the
        # mark's counters are its own; packets are serviced
        # synchronously at commit, so ``forwarded`` is the prefix's
        # delivery count.
        skipped = mark.count(self.warm_unit)
        index = int(spec.get("index"))
        if skipped >= index:
            raise ValueError(
                f"landmark state at instret {mark.instret} overruns "
                f"the {self.name} trigger (index {index}, "
                f"{skipped} {self.warm_unit} already consumed)"
            )
        self.arm(system, _rebase_index(spec, index - skipped))

    @abc.abstractmethod
    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        """Draw one concrete fault from the model's fault space."""

    @abc.abstractmethod
    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        """Install the fault into a freshly built system."""

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def at_commit(system: FlexCoreSystem, index: int, action) -> None:
        """Run ``action(record)`` at the ``index``-th committed
        instruction (1-based, counting annulled slots too)."""
        state = {"n": 0}

        def hook(record):
            state["n"] += 1
            if state["n"] == index:
                action(record)

        system.record_hooks.append(hook)


class RegisterBitFlip(FaultModel):
    """Transient single-bit upset in the architectural register file,
    striking between two instructions of the dynamic stream."""

    name = "register"
    description = "register-file single-bit flip"
    warm_unit = "commits"

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        return FaultSpec.make(
            self.name,
            index=rng.randrange(1, profile.instructions + 1),
            reg=rng.randrange(1, 32),  # %g0 is hard-wired zero
            bit=rng.randrange(32),
        )

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        reg, bit = spec.get("reg"), spec.get("bit")
        regs = system.cpu.regs

        def flip(record):
            regs.write(reg, regs.read(reg) ^ (1 << bit))

        self.at_commit(system, spec.get("index"), flip)


class MemoryBitFlip(FaultModel):
    """Single-bit upset in a data (or instruction) memory word the
    program uses, struck at a random point of the dynamic stream."""

    name = "memory"
    description = "memory single-bit flip"
    warm_unit = "commits"

    def applicable(self, profile: GoldenProfile) -> bool:
        return profile.instructions > 0 and bool(profile.address_pool())

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        return FaultSpec.make(
            self.name,
            index=rng.randrange(1, profile.instructions + 1),
            addr=rng.choice(profile.address_pool()),
            bit=rng.randrange(32),
        )

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        addr, bit = spec.get("addr"), spec.get("bit")
        memory = system.memory

        def flip(record):
            memory.write_word(addr, memory.read_word(addr) ^ (1 << bit))

        self.at_commit(system, spec.get("index"), flip)


class MetaBitFlip(FaultModel):
    """Single-bit upset in the *monitor's* meta-data state — a memory
    tag word or a shadow register — modelling a strike on the fabric's
    embedded meta-data storage (Section III-E)."""

    name = "meta"
    description = "monitor meta-data single-bit flip"
    warm_unit = "commits"

    def applicable(self, profile: GoldenProfile) -> bool:
        return profile.instructions > 0 and (
            profile.has_memory_tags or profile.has_shadow_tags
        )

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        targets = []
        if profile.has_memory_tags and profile.address_pool():
            targets.append("mem")
        if profile.has_shadow_tags:
            targets.append("shadow")
        target = rng.choice(targets)
        index = rng.randrange(1, profile.instructions + 1)
        if target == "mem":
            return FaultSpec.make(
                self.name, target=target, index=index,
                addr=rng.choice(profile.address_pool()),
                bit=rng.randrange(max(profile.memory_tag_bits, 1)),
            )
        return FaultSpec.make(
            self.name, target=target, index=index,
            reg=rng.randrange(1, profile.num_physical_registers),
            bit=rng.randrange(max(profile.register_tag_bits, 1)),
        )

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        extension = system.extension
        bit = spec.get("bit")
        if spec.get("target") == "mem":
            addr = spec.get("addr")
            tags = extension.mem_tags

            def flip(record):
                tags.write(addr, tags.read(addr) ^ (1 << bit))
        else:
            reg = spec.get("reg")
            shadow = extension.shadow

            def flip(record):
                shadow.write(reg, shadow.read(reg) ^ (1 << bit))

        self.at_commit(system, spec.get("index"), flip)


class PacketFieldCorruption(FaultModel):
    """Single-bit corruption of one trace-packet field as the commit
    stage assembles it (Table II) — the monitor sees a different
    instruction than the core executed."""

    name = "packet"
    description = "trace-packet field single-bit corruption"
    warm_unit = "commits"

    FIELDS = ("addr", "result", "srcv1", "srcv2", "cond", "branch")

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        field = rng.choice(self.FIELDS)
        bits = {"cond": 4, "branch": 1}.get(field, 32)
        return FaultSpec.make(
            self.name,
            index=rng.randrange(1, profile.instructions + 1),
            field=field,
            bit=rng.randrange(bits),
        )

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        field, bit = spec.get("field"), spec.get("bit")

        def corrupt(record):
            if field == "branch":
                record.branch_taken = not record.branch_taken
            else:
                setattr(record, field, getattr(record, field) ^ (1 << bit))

        self.at_commit(system, spec.get("index"), corrupt)


class AluResultBitFlip(FaultModel):
    """The paper's SEC scenario: a particle strike on the ALU output
    latch flips one bit of one dynamic ALU instruction's result."""

    name = "alu-result"
    description = "ALU result single-bit flip"
    warm_unit = "alu"

    def applicable(self, profile: GoldenProfile) -> bool:
        return profile.alu_commits > 0

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        return FaultSpec.make(
            self.name,
            index=rng.randrange(1, profile.alu_commits + 1),
            bit=rng.randrange(32),
        )

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        index, bit = spec.get("index"), spec.get("bit")
        state = {"alu": 0}

        def flip(record):
            if record.instr_class in ALU_CLASSES and not record.annulled:
                state["alu"] += 1
                if state["alu"] == index:
                    record.result ^= 1 << bit

        system.record_hooks.append(flip)


class FifoDrop(FaultModel):
    """Loss of one forward-FIFO entry: the Nth forwarded packet never
    reaches the fabric, so the monitor misses that instruction."""

    name = "fifo-drop"
    description = "forward-FIFO entry drop"
    warm_unit = "forwarded"

    def applicable(self, profile: GoldenProfile) -> bool:
        return profile.forwarded > 0

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        return FaultSpec.make(
            self.name, index=rng.randrange(1, profile.forwarded + 1)
        )

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        from repro.extensions.base import PacketOutcome

        index = spec.get("index")
        extension = system.extension
        real_process = extension.process
        state = {"n": 0}

        def process(packet):
            state["n"] += 1
            if state["n"] == index:
                return PacketOutcome()  # the packet vanished in flight
            return real_process(packet)

        extension.process = process


class LutConfigUpset(FaultModel):
    """Configuration upset in the fabric: one bit of the 64-bit CFGR
    forwarding register flips, silently changing which instruction
    types the monitor sees (and whether commits wait for acks).

    The upset strikes at reset but changes only the 2-bit policy of
    class ``bit // 2``, and that policy is first *used* at the first
    non-annulled commit of that class.  Every other reader of the CFGR
    either reads another class's policy or uses none before then:

    * ``CoreFabricInterface.on_commit`` returns for an annulled slot
      before it reads any policy, and otherwise reads the committing
      class's own; FLEX ``READ_STATUS``'s ack rule sits behind that
      read, so it too runs only at a FLEX commit;
    * ``HandlerTable.build`` reads the policy of the instruction at the
      PC it builds, also for an annulled slot, but the annulled step
      only bumps ``committed`` and never calls the handler; a built
      handler acts on the policy only when it executes that PC, which
      is a non-annulled commit of its class.  Tables are built afresh
      by every ``run_bounded`` call, so a warm fork that upsets the
      restored CFGR before it runs never meets a handler built under
      the old one;
    * ``forward_tail`` and the extension's fabric ops are built from a
      policy but change no machine state until a packet arrives;
    * ``snapshot_state`` stores the CFGR, so every state digest of the
      faulted run differs from the golden one: such a run can never
      take the convergence exit, but nothing the run *does* depends on
      a digest.

    So until the instret of that first commit, recorded per class in
    :attr:`GoldenProfile.first_commits`, the faulted run is the golden
    run in everything but the CFGR word.  A class the golden run never
    commits (reserved classes 26-31 included) leaves the whole run
    golden, and the fault is :meth:`inert`; any other forks from the
    last landmark before that commit, on the ``"commits"`` counter.
    """

    name = "lut-config"
    description = "CFGR/LUT configuration single-bit upset"
    warm_unit = "commits"

    @staticmethod
    def _first_commit(spec: FaultSpec, profile: GoldenProfile) -> int | None:
        return profile.first_commits[spec.get("bit") // 2]

    def inert(self, spec: FaultSpec, profile: GoldenProfile) -> bool:
        return self._first_commit(spec, profile) is None

    def warm_bound(self, spec: FaultSpec, profile: GoldenProfile) -> int:
        return self._first_commit(spec, profile) or 0

    def warm_settle(self, spec: FaultSpec) -> int:
        # The upset lasts the whole run: the suffix runs in one leg.
        return 0

    def arm_warm(self, system: FlexCoreSystem, spec: FaultSpec,
                 mark: ProfileMark) -> None:
        # The upset has no trigger to rebase: it flips the restored
        # (golden) CFGR, which is the reset CFGR, exactly as arm does.
        self.arm(system, spec)

    def plan(self, rng: random.Random, profile: GoldenProfile) -> FaultSpec:
        return FaultSpec.make(self.name, bit=rng.randrange(64))

    def arm(self, system: FlexCoreSystem, spec: FaultSpec) -> None:
        interface = system.interface
        word = interface.cfgr.encode() ^ (1 << spec.get("bit"))
        interface.cfgr = ForwardConfig.decode(word)


#: Built-in fault models, in report order.
MODEL_CLASSES: dict[str, type[FaultModel]] = {
    model.name: model
    for model in (
        RegisterBitFlip,
        MemoryBitFlip,
        MetaBitFlip,
        PacketFieldCorruption,
        AluResultBitFlip,
        FifoDrop,
        LutConfigUpset,
    )
}


def create_model(name: str) -> FaultModel:
    """Instantiate a built-in fault model by name."""
    try:
        return MODEL_CLASSES[name]()
    except KeyError:
        known = ", ".join(MODEL_CLASSES)
        raise ValueError(f"unknown fault model {name!r} (known: {known})")
