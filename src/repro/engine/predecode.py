"""Per-PC predecoded handler closures for the fast engine.

The reference loop pays, for every committed instruction: a word
fetch assembled byte-by-byte, a decode-cache lookup, a
:class:`~repro.core.executor.CommitRecord` allocation, a chain of
``isinstance``/opcode dispatch branches, a CFGR policy lookup, and an
:meth:`~repro.flexcore.interface.CoreFabricInterface.on_commit` call
— even when the instruction's class is configured IGNORE and the
packet is never built.

A :class:`HandlerTable` resolves everything that is *static per PC*
exactly once — the instruction word, its decode, its CFGR class and
forwarding policy, its base latency — into one closure per program
counter.  Calling the closure executes the instruction functionally,
charges the timing model, and updates the interface counters, in
precisely the order the reference path does, so the resulting
:class:`~repro.flexcore.system.RunResult` is bit-identical (the
differential and golden tests enforce this).

Fidelity rules the closures follow:

* Ignored-class common instructions are fully fused: no record is
  allocated; the interface bookkeeping reduces to the two counters
  ``on_commit`` would have bumped.
* *Forwarded* common instructions (policy != IGNORE) fuse the
  functional work and the timing charge, build a fresh
  ``CommitRecord`` per call — field-for-field what ``_execute`` would
  have produced, fresh because trace packets retain their record —
  and hand it to a fused commit tail (``_make_forward``).  The tail
  replays ``on_commit``'s body with the policy, ack mode and static
  DECODE bits resolved at build time, builds the ``TracePacket``
  itself, and calls the same ``DecouplingFifo.is_full``/``push`` and
  ``CoreFabricInterface._service`` as the reference loop, so FIFO
  occupancy, fabric service and trap latching have one
  implementation.  ``_service`` looks the monitor up as
  ``iface.extension.process`` on every packet, so a patched instance
  method (the ``fifo-drop`` fault) is honoured.
* The rare opcodes (FLEX, JMPL, TICC, SAVE/RESTORE, RDY/WRY, RETT,
  LDD/STD) run through the original ``CpuState._execute`` /
  ``CoreTiming.advance`` / ``on_commit`` machinery — only the fetch
  and decode are skipped.
* ``now`` is truncated with ``int()`` before timing, errors propagate
  with the same types and messages, ``instret`` only increments after
  the fallible functional work, and mutable collaborators that
  ``restore_state`` *replaces* (``timing.stats``, ``iface.stats``,
  ``cpu.codes``) are re-read through their stable owner on every call.
* Stores into the text section invalidate the handler for the written
  word, so self-modifying code re-predecodes on next execution.

Handlers are built lazily (on first execution of each PC), so a table
never describes memory it has not read.
"""

from __future__ import annotations

from repro.core.alu import execute_alu
from repro.core.executor import CommitRecord
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.packet import TracePacket
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, Op, Op2, Op3, Op3Mem
from repro.memory.backing import PAGE_MASK, PAGE_SIZE, MemoryFault

MASK32 = 0xFFFFFFFF

#: Process-wide word -> Instruction memo.  Instructions are frozen and
#: decoding is pure, so the memo is shared by every table.
_DECODE_CACHE: dict[int, Instruction] = {}

#: Branch condition evaluators, one closure per Cond (the reference
#: ``evaluate_condition`` rebuilds a 16-entry dict per call).
_COND_EVAL = {
    Cond.BA: lambda codes: True,
    Cond.BN: lambda codes: False,
    Cond.BE: lambda codes: codes.z,
    Cond.BNE: lambda codes: not codes.z,
    Cond.BG: lambda codes: not (codes.z or (codes.n != codes.v)),
    Cond.BLE: lambda codes: codes.z or (codes.n != codes.v),
    Cond.BGE: lambda codes: codes.n == codes.v,
    Cond.BL: lambda codes: codes.n != codes.v,
    Cond.BGU: lambda codes: not (codes.c or codes.z),
    Cond.BLEU: lambda codes: codes.c or codes.z,
    Cond.BCC: lambda codes: not codes.c,
    Cond.BCS: lambda codes: codes.c,
    Cond.BPOS: lambda codes: not codes.n,
    Cond.BNEG: lambda codes: codes.n,
    Cond.BVC: lambda codes: not codes.v,
    Cond.BVS: lambda codes: codes.v,
}


def _sra(a, b):
    return (((a & MASK32) - ((a & 0x80000000) << 1)) >> (b & 31)) & MASK32


#: Non-cc ALU ops whose value the closure computes inline; every
#: formula mirrors :func:`repro.core.alu.execute_alu` bit for bit.
#: Anything cc-setting, carry-consuming or Y-touching calls
#: ``execute_alu`` itself (see ``_make_alu_full``).
_SIMPLE_ALU = {
    Op3.ADD: lambda a, b: (a + b) & MASK32,
    Op3.SUB: lambda a, b: (a - b) & MASK32,
    Op3.AND: lambda a, b: a & b & MASK32,
    Op3.ANDN: lambda a, b: a & ~b & MASK32,
    Op3.OR: lambda a, b: (a | b) & MASK32,
    Op3.ORN: lambda a, b: (a | ~b) & MASK32,
    Op3.XOR: lambda a, b: (a ^ b) & MASK32,
    Op3.XNOR: lambda a, b: ~(a ^ b) & MASK32,
    Op3.SLL: lambda a, b: (a << (b & 31)) & MASK32,
    Op3.SRL: lambda a, b: (a >> (b & 31)) & MASK32,
    Op3.SRA: _sra,
}

#: FORMAT3_ALU opcodes with side effects beyond regs/codes/Y writes
#: (window rotation, control transfer, traps, co-processor I/O); these
#: always run through ``CpuState._execute``.
_SPECIAL_ALU = frozenset({
    Op3.FLEXOP, Op3.JMPL, Op3.TICC, Op3.SAVE, Op3.RESTORE,
    Op3.RDY, Op3.WRY, Op3.RETT,
})

#: Loads/stores with fully fused closures; LDD/STD (two accesses,
#: even-rd checks) take the generic path.
_FUSED_LOADS = (Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDSB,
                Op3Mem.LDUH, Op3Mem.LDSH)
_FUSED_STORES = (Op3Mem.ST, Op3Mem.STB, Op3Mem.STH)

# Per-PC kind bits recorded by ``HandlerTable.build`` so the
# superblock discovery (:class:`SuperblockTable`) can classify a
# handler without re-decoding.  A plain kind of 0 is a linear step
# that can sit anywhere inside a superblock.
#: the handler calls ``_service`` and may latch ``pending_trap``.
KIND_FORWARDED = 1
#: the handler must be the *last* member of a superblock: a store
#: (may invalidate predecoded text) or a CTI (redirects control).
KIND_TERMINAL = 2
#: the handler takes the generic ``_execute`` path (traps, window
#: ops, JMPL/RETT, doubleword memory) and never joins a superblock.
KIND_GENERIC = 4


def _word_accessors(memory):
    """Fast big-endian word read/write over ``memory``'s page dict.

    Bit-compatible with :class:`SparseMemory`'s accessors, including
    the misaligned-fault message and zero-page allocation; an aligned
    word never straddles a page.
    """
    pages = memory._pages

    def read_word(addr):
        if addr & 3:
            raise MemoryFault(f"misaligned word read at {addr:#x}")
        addr &= MASK32
        page = pages.get(addr >> 12)
        if page is None:
            page = bytearray(PAGE_SIZE)
            pages[addr >> 12] = page
        o = addr & PAGE_MASK
        return ((page[o] << 24) | (page[o + 1] << 16)
                | (page[o + 2] << 8) | page[o + 3])

    def write_word(addr, value):
        if addr & 3:
            raise MemoryFault(f"misaligned word write at {addr:#x}")
        addr &= MASK32
        page = pages.get(addr >> 12)
        if page is None:
            page = bytearray(PAGE_SIZE)
            pages[addr >> 12] = page
        o = addr & PAGE_MASK
        value &= MASK32
        page[o] = value >> 24
        page[o + 1] = (value >> 16) & 0xFF
        page[o + 2] = (value >> 8) & 0xFF
        page[o + 3] = value & 0xFF

    return read_word, write_word


class HandlerTable:
    """Lazily-built map of PC -> fused step closure for one system.

    A table is built fresh for each ``run_bounded`` invocation (and
    after every rollback restore), so it can never describe stale
    text.  Within a run, store closures invalidate overwritten words.
    """

    def __init__(self, system):
        self.system = system
        self.handlers: dict[int, object] = {}
        #: PC -> KIND_* bits (see module constants), filled by ``build``.
        self.kinds: dict[int, int] = {}
        #: PC -> (word, instr, base latency), filled by ``build`` so
        #: superblock compilation can reuse the decode work.
        self.meta: dict[int, tuple] = {}
        program = system.program
        self.text_lo = program.text_base
        self.text_hi = program.text_base + 4 * len(program.text)
        self._read_word, self._write_word = _word_accessors(system.memory)

    def invalidate(self, addr: int) -> None:
        """Drop the predecoded handler for the text word at ``addr``
        (self-modifying code overwrote it; the next execution of that
        PC re-fetches and re-predecodes).  Subclasses extend this to
        drop any fused structure covering the word."""
        self.handlers.pop(addr & ~3, None)

    # ------------------------------------------------------------------

    def build(self, pc: int):
        """Decode the word at ``pc`` and install its handler.

        Raises exactly what the reference fetch/decode would raise
        (``MemoryFault`` on unmapped/misaligned PCs, the decoder's
        ``SimulationError`` on bad words); callers wrap errors the
        same way ``CpuState.step`` does.
        """
        system = self.system
        word = system.memory.read_word(pc)
        instr = _DECODE_CACHE.get(word)
        if instr is None:
            instr = decode(word)
            _DECODE_CACHE[word] = instr
        instr_class = instr.instr_class
        latency = system.core_timing.config.base_latency(instr_class)
        iface = system.interface
        policy = (iface.cfgr.policy(instr_class)
                  if iface is not None else ForwardPolicy.IGNORE)
        self.meta[pc] = (word, instr, latency)

        handler = None
        if policy == ForwardPolicy.IGNORE:
            op = instr.op
            if op == Op.FORMAT3_ALU and instr.opcode not in _SPECIAL_ALU:
                valfn = _SIMPLE_ALU.get(instr.opcode)
                if valfn is not None:
                    handler = self._make_alu_simple(pc, instr, valfn,
                                                    latency)
                else:
                    handler = self._make_alu_full(pc, instr, latency)
            elif op == Op.FORMAT3_MEM:
                if instr.opcode in _FUSED_LOADS:
                    handler = self._make_load(pc, instr, latency)
                elif instr.opcode in _FUSED_STORES:
                    handler = self._make_store(pc, instr, latency)
            elif op == Op.CALL:
                handler = self._make_call(pc, instr, latency)
            elif op == Op.FORMAT2:
                if instr.opcode == Op2.SETHI:
                    handler = self._make_sethi(pc, instr, latency)
                elif instr.opcode == Op2.BICC:
                    handler = self._make_branch(pc, instr, latency)
        else:
            op = instr.op
            if op == Op.FORMAT3_ALU and instr.opcode not in _SPECIAL_ALU:
                valfn = _SIMPLE_ALU.get(instr.opcode)
                if valfn is not None:
                    handler = self._make_alu_simple_fwd(pc, word, instr,
                                                        valfn, latency)
                else:
                    handler = self._make_alu_full_fwd(pc, word, instr,
                                                      latency)
            elif op == Op.FORMAT3_MEM:
                if instr.opcode in _FUSED_LOADS:
                    handler = self._make_load_fwd(pc, word, instr,
                                                  latency)
                elif instr.opcode in _FUSED_STORES:
                    handler = self._make_store_fwd(pc, word, instr,
                                                   latency)
            elif op == Op.CALL:
                handler = self._make_call_fwd(pc, word, instr, latency)
            elif op == Op.FORMAT2:
                if instr.opcode == Op2.SETHI:
                    handler = self._make_sethi_fwd(pc, word, instr,
                                                   latency)
                elif instr.opcode == Op2.BICC:
                    handler = self._make_branch_fwd(pc, word, instr,
                                                    latency)
        if handler is None:
            handler = self._make_generic(pc, word, instr)
            kind = KIND_GENERIC
        else:
            kind = (0 if policy == ForwardPolicy.IGNORE
                    else KIND_FORWARDED)
            if (instr.is_store or instr.op == Op.CALL
                    or (instr.op == Op.FORMAT2
                        and instr.opcode == Op2.BICC)):
                kind |= KIND_TERMINAL
        self.kinds[pc] = kind
        self.handlers[pc] = handler
        return handler

    # ------------------------------------------------------------------
    # Closure factories.  Each captures only objects that are stable
    # across restore_state (the cpu/timing/interface *owners*, bound
    # methods of in-place-mutated collaborators) plus per-PC statics.

    def _context(self):
        system = self.system
        cpu = system.cpu
        timing = system.core_timing
        regs = cpu.regs
        return (cpu, timing, system.interface, regs.read, regs.write,
                regs.physical_index, timing.icache.read,
                system.bus.line_refill)

    def _make_alu_simple(self, pc, instr, valfn, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            regs_write(rd, valfn(a, b))
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_alu_full(self, pc, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            alu = execute_alu(op3, a, b, carry=cpu.codes.c, y=cpu.y)
            regs_write(rd, alu.value)
            if alu.codes is not None:
                cpu.codes = alu.codes
            if alu.y is not None:
                cpu.y = alu.y
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_load(self, pc, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        dcache_read = timing.dcache.read
        memory = self.system.memory
        read_word = self._read_word
        read_byte = memory.read_byte
        read_half = memory.read_half

        if op3 == Op3Mem.LD:
            loadfn = read_word
        elif op3 == Op3Mem.LDUB:
            loadfn = read_byte
        elif op3 == Op3Mem.LDSB:
            def loadfn(addr):
                raw = read_byte(addr)
                return (raw - 0x100 if raw & 0x80 else raw) & MASK32
        elif op3 == Op3Mem.LDUH:
            loadfn = read_half
        else:  # LDSH
            def loadfn(addr):
                raw = read_half(addr)
                return (raw - 0x10000 if raw & 0x8000 else raw) & MASK32

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = loadfn(addr)
            regs_write(rd, value)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = phys(rd)
            ts.base_cycles += base
            now += base
            if not dcache_read(addr):
                done = refill(now, "core-dcache")
                ts.dcache_stall += done - now
                now = done
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_store(self, pc, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        dcache_write = timing.dcache.write
        sb_push = timing.store_buffer.push
        memory = self.system.memory
        if op3 == Op3Mem.ST:
            storefn = self._write_word
        elif op3 == Op3Mem.STB:
            storefn = memory.write_byte
        else:  # STH
            storefn = memory.write_half
        text_lo, text_hi = self.text_lo, self.text_hi
        invalidate = self.invalidate

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = regs_read(rd)
            storefn(addr, value)
            if text_lo <= addr < text_hi:
                # Self-modifying code: re-predecode the touched word.
                invalidate(addr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)
                             or phys(rd) == dest):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            dcache_write(addr)
            proceed = sb_push(now)
            ts.store_stall += proceed - now
            now = proceed
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_branch(self, pc, instr, latency):
        (cpu, timing, iface, _regs_read, _regs_write, _phys,
         icache_read, refill) = self._context()
        cond_eval = _COND_EVAL[instr.cond]
        target = (pc + 4 * instr.disp) & MASK32
        annul = instr.annul
        annul_taken = instr.annul and instr.cond == Cond.BA

        def handler(now):
            if cond_eval(cpu.codes):
                if annul_taken:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = target
            else:
                if annul:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            # Branches carry no source physical registers, so the
            # load-use interlock can never fire; just clear it.
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_sethi(self, pc, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, _phys,
         icache_read, refill) = self._context()
        rd = instr.rd
        value = (instr.imm << 10) & MASK32

        def handler(now):
            regs_write(rd, value)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_call(self, pc, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, _phys,
         icache_read, refill) = self._context()
        target = (pc + 4 * instr.disp) & MASK32

        def handler(now):
            regs_write(15, pc)  # %o7 <- address of the call
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = target
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    # ------------------------------------------------------------------
    # Forwarded variants: same fused functional/timing work, plus a
    # fresh CommitRecord — field-for-field what ``_execute`` builds,
    # fresh because packets retain their record — handed to a fused
    # commit tail (``_make_forward``) that replays ``on_commit``'s
    # body with the policy, ack mode and static DECODE bits resolved
    # at build time.  The dynamic machinery (FIFO occupancy,
    # ``_service``, trap latching) stays on the original code.

    def _make_forward(self, pc, word, instr, klass):
        """Fused equivalent of ``on_commit`` + ``from_commit`` for a
        known-forwarded, never-annulled instruction.  Telemetry sinks
        are structurally ``None`` here: the fast loop is only entered
        with tracing and metrics disabled."""
        iface = self.system.interface
        policy = iface.cfgr.policy(klass)
        best_effort = policy == ForwardPolicy.BEST_EFFORT
        # FLEX never takes this path (it is in ``_SPECIAL_ALU``), so
        # the READ_STATUS clause of the reference ack rule is moot.
        needs_ack = (policy == ForwardPolicy.ALWAYS_ACK
                     or iface.config.precise_exceptions)
        sync = iface.config.sync_fabric_cycles
        fifo = iface.fifo
        is_full = fifo.is_full
        time_until_space = fifo.time_until_space
        push = fifo.push
        service = iface._service
        base_decode = (int(instr.is_load)
                       | (int(instr.is_store) << 1)
                       | (int(instr.use_imm) << 2)
                       | ((instr.opf & 0x1FF) << 3))
        if instr.is_load or instr.is_store:
            base_decode |= (instr.access_size() & 0xF) << 12

        def forward(record, now):
            stats = iface.stats
            stats.committed += 1
            if is_full(now):
                if best_effort:
                    stats.dropped += 1
                    fifo.stats.dropped += 1
                    return now
                wait = time_until_space(now)
                stats.fifo_stall_cycles += wait
                fifo.stats.full_stall_cycles += wait
                now += wait
            # Positional, in Table II order (pc, inst, addr, res,
            # srcv1, srcv2, cond, branch, opcode, decode, extra, src1,
            # src2, dest, record), as in ``TracePacket.from_commit``.
            packet = TracePacket(
                pc, word, record.addr, record.result,
                record.srcv1, record.srcv2, record.cond,
                record.branch_taken, klass,
                base_decode | (int(record.carry_before) << 16),
                record.y_before, record.src1_phys, record.src2_phys,
                record.dest_phys, record,
            )
            stats.forwarded += 1
            by_class = stats.forwarded_by_class
            by_class[klass] = by_class.get(klass, 0) + 1
            drain = service(packet, now)
            push(now, drain)
            if needs_ack:
                ack_at = drain + sync
                stats.ack_stall_cycles += ack_at - now
                now = ack_at
            return now

        return forward

    def _make_alu_simple_fwd(self, pc, word, instr, valfn, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            value = valfn(a, b)
            regs_write(rd, value)
            codes = cpu.codes
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                result=value, srcv1=a, srcv2=b, cond=codes.pack(),
                src1_phys=phys(rs1),
                src2_phys=0 if use_imm else phys(rs2),
                dest_phys=phys(rd),
                carry_before=codes.c, y_before=cpu.y,
            )
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_alu_full_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            carry_before = cpu.codes.c
            y_before = cpu.y
            alu = execute_alu(op3, a, b, carry=carry_before, y=y_before)
            regs_write(rd, alu.value)
            if alu.codes is not None:
                cpu.codes = alu.codes
            if alu.y is not None:
                cpu.y = alu.y
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                result=alu.value, srcv1=a, srcv2=b,
                cond=cpu.codes.pack(),
                src1_phys=phys(rs1),
                src2_phys=0 if use_imm else phys(rs2),
                dest_phys=phys(rd),
                carry_before=carry_before, y_before=y_before,
            )
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_load_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)
        dcache_read = timing.dcache.read
        memory = self.system.memory
        read_word = self._read_word
        read_byte = memory.read_byte
        read_half = memory.read_half

        if op3 == Op3Mem.LD:
            loadfn = read_word
        elif op3 == Op3Mem.LDUB:
            loadfn = read_byte
        elif op3 == Op3Mem.LDSB:
            def loadfn(addr):
                raw = read_byte(addr)
                return (raw - 0x100 if raw & 0x80 else raw) & MASK32
        elif op3 == Op3Mem.LDUH:
            loadfn = read_half
        else:  # LDSH
            def loadfn(addr):
                raw = read_half(addr)
                return (raw - 0x10000 if raw & 0x8000 else raw) & MASK32

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = loadfn(addr)
            regs_write(rd, value)
            codes = cpu.codes
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                addr=addr, result=value, srcv1=a, srcv2=b,
                cond=codes.pack(),
                src1_phys=phys(rs1),
                src2_phys=0 if use_imm else phys(rs2),
                dest_phys=phys(rd),
                carry_before=codes.c, y_before=cpu.y,
            )
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = phys(rd)
            ts.base_cycles += base
            now += base
            if not dcache_read(addr):
                done = refill(now, "core-dcache")
                ts.dcache_stall += done - now
                now = done
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_store_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op3 = instr.opcode
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)
        dcache_write = timing.dcache.write
        sb_push = timing.store_buffer.push
        memory = self.system.memory
        if op3 == Op3Mem.ST:
            storefn = self._write_word
        elif op3 == Op3Mem.STB:
            storefn = memory.write_byte
        else:  # STH
            storefn = memory.write_half
        text_lo, text_hi = self.text_lo, self.text_hi
        invalidate = self.invalidate

        def handler(now):
            a = regs_read(rs1)
            b = imm if use_imm else regs_read(rs2)
            addr = (a + b) & MASK32
            value = regs_read(rd)
            storefn(addr, value)
            if text_lo <= addr < text_hi:
                # Self-modifying code: re-predecode the touched word.
                invalidate(addr)
            codes = cpu.codes
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                addr=addr, result=value, srcv1=a, srcv2=b,
                cond=codes.pack(),
                src1_phys=phys(rs1),
                src2_phys=0 if use_imm else phys(rs2),
                dest_phys=phys(rd),
                carry_before=codes.c, y_before=cpu.y,
            )
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (phys(rs1) == dest
                             or (not use_imm and phys(rs2) == dest)
                             or phys(rd) == dest):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            dcache_write(addr)
            proceed = sb_push(now)
            ts.store_stall += proceed - now
            now = proceed
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_branch_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, _regs_read, _regs_write, _phys,
         icache_read, refill) = self._context()
        cond_eval = _COND_EVAL[instr.cond]
        target = (pc + 4 * instr.disp) & MASK32
        annul = instr.annul
        annul_taken = instr.annul and instr.cond == Cond.BA
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)

        def handler(now):
            codes = cpu.codes
            taken = cond_eval(codes)
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                addr=target, branch_taken=taken, cond=codes.pack(),
                carry_before=codes.c, y_before=cpu.y,
            )
            if taken:
                if annul_taken:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = target
            else:
                if annul:
                    cpu._annul_next = True
                npc = cpu.npc
                cpu.pc = npc
                cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_sethi_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        rd = instr.rd
        value = (instr.imm << 10) & MASK32
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)

        def handler(now):
            regs_write(rd, value)
            codes = cpu.codes
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                result=value, cond=codes.pack(), dest_phys=phys(rd),
                carry_before=codes.c, y_before=cpu.y,
            )
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_call_fwd(self, pc, word, instr, latency):
        (cpu, timing, iface, _regs_read, regs_write, phys,
         icache_read, refill) = self._context()
        target = (pc + 4 * instr.disp) & MASK32
        klass = instr.instr_class
        forward = self._make_forward(pc, word, instr, klass)

        def handler(now):
            regs_write(15, pc)  # %o7 <- address of the call
            codes = cpu.codes
            record = CommitRecord(
                pc=pc, word=word, instr=instr, instr_class=klass,
                addr=target, result=pc, branch_taken=True,
                cond=codes.pack(), dest_phys=phys(15),
                carry_before=codes.c, y_before=cpu.y,
            )
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = target
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if not icache_read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            return forward(record, now)

        return handler

    def _make_generic(self, pc, word, instr):
        """Full-fidelity path minus fetch/decode: forwarded classes,
        rare opcodes, and anything with cross-cutting side effects."""
        system = self.system
        cpu = system.cpu
        execute = cpu._execute
        advance = system.core_timing.advance
        iface = system.interface
        on_commit = iface.on_commit if iface is not None else None
        is_store = instr.is_store
        double = instr.opcode == Op3Mem.STD if is_store else False
        text_lo, text_hi = self.text_lo, self.text_hi
        invalidate = self.invalidate

        def handler(now):
            record = execute(pc, word, instr)
            cpu.instret += 1
            if is_store:
                addr = record.addr
                if text_lo <= addr < text_hi:
                    invalidate(addr)
                    if double:
                        invalidate(addr + 4)
            now = advance(record, int(now))
            if on_commit is not None:
                now = on_commit(record, now)
            return now

        return handler


#: Upper bound on superblock length, in instructions — long enough to
#: cover real straight-line runs, short enough that discovery stays
#: cheap and a block nearly always fits the dispatcher's headroom.
MAX_BLOCK = 64

#: ``SuperblockTable.blocks`` entry meaning "no superblock starts
#: here" (fewer than two fusable instructions), so the dispatcher
#: takes the per-PC handler without re-running discovery.
NOBLOCK = object()


#: Process-wide source -> code-object memo for compiled superblocks.
#: Sources embed PC/word/latency literals, so two identical program
#: placements (every re-run of one workload in a campaign or sweep)
#: compile each distinct block exactly once per process.
_BLOCK_CODE_CACHE: dict[str, object] = {}


class SuperblockTable(HandlerTable):
    """A :class:`HandlerTable` that also fuses straight-line runs into
    one *compiled superhandler* per block.

    Discovery walks forward from an entry PC through the predecoded
    kinds: plain linear steps extend the block; stores and CTIs
    (branches, calls) end it *inclusively* — a store may invalidate
    predecoded text and a CTI redirects control, so nothing may follow
    either within one dispatch; generic-path opcodes end it
    *exclusively*.  Each block is then compiled (``compile``/``exec``
    of generated Python) into a single run function that inlines every
    member's functional and timing work with the per-PC statics as
    literals, and batches the bookkeeping the per-PC closures repeat —
    pc/npc/instret, instruction and cycle counters, the committed/
    ignored tallies, and the load-interlock register, which lives in a
    local for the whole block.

    Fidelity contract (the differential and golden tests enforce it):

    * member order, arithmetic, cache/bus/store-buffer charging and
      CommitRecord construction are transcribed from the per-PC
      closures verbatim, so results are bit-identical;
    * after every *forwarded* member the run re-checks
      ``pending_trap`` exactly where the dispatch loop would, and
      before every member after the first it re-checks the cycle
      budget exactly where the reference loop does, early-outing with
      all bookkeeping settled;
    * a member that faults mid-block raises exactly the reference
      exception after a fix-up that settles the completed prefix
      (every fused closure faults before touching pc/instret/timing,
      so the prefix is precisely the completed members).

    The dispatcher (:func:`~repro.engine.fastloop.run_superblock_loop`)
    only enters a block when the pipeline is in sequential lockstep
    (``npc == pc + 4``), no annulment is pending, and the whole block
    fits below the next instret boundary (watchdog limit, deadline
    stride, checkpoint, scheduled fault), so instruction-granular
    semantics hold by construction inside those windows.
    """

    def __init__(self, system):
        super().__init__(system)
        #: entry PC -> ``(length, run)`` or NOBLOCK.
        self.blocks: dict[int, object] = {}
        #: text word -> entry PCs of blocks whose run covers it.
        self._covered: dict[int, set] = {}

    def invalidate(self, addr: int) -> None:
        word = addr & ~3
        self.handlers.pop(word, None)
        # Any block compiled over the stale word is stale too; drop it
        # so the next dispatch re-discovers.  (Leftover coverage
        # entries for already-dropped blocks are harmless — the pops
        # are idempotent.)
        for start in self._covered.pop(word, ()):
            self.blocks.pop(start, None)

    def block_at(self, pc: int):
        """Discover, compile and memoise the superblock at ``pc``.

        Returns ``(length, run)`` or :data:`NOBLOCK`.  Fetch/decode
        errors at the entry PC propagate exactly as per-PC dispatch
        would raise them; lookahead errors just end the block early
        (the per-PC path surfaces them when and if control actually
        reaches the bad word).
        """
        handlers = self.handlers
        kinds = self.kinds
        meta = self.meta
        members: list = []
        words: list = []
        addr = pc
        while len(members) < MAX_BLOCK:
            if addr not in handlers:
                if addr == pc:
                    self.build(addr)
                else:
                    try:
                        self.build(addr)
                    except Exception:
                        # Unmapped, misaligned or undecodable word in
                        # the lookahead (e.g. data past the last
                        # instruction): end the block early; per-PC
                        # dispatch surfaces the error if control ever
                        # actually reaches this address.
                        break
            kind = kinds[addr]
            if kind & KIND_GENERIC:
                break
            word, instr, latency = meta[addr]
            members.append((addr, word, instr, kind, latency))
            words.append(addr)
            if kind & KIND_TERMINAL:
                break
            addr = (addr + 4) & MASK32
        if len(members) < 2:
            entry = NOBLOCK
            words = [pc]
        else:
            entry = (len(members), self._compile_block(pc, members))
        for word in words:
            self._covered.setdefault(word, set()).add(pc)
        self.blocks[pc] = entry
        return entry

    # ------------------------------------------------------------------
    # Superblock compilation.

    def _compile_block(self, pc, members):
        """Generate, compile and bind the block's run function."""
        system = self.system
        iface = system.interface
        monitored = iface is not None
        check_trap = monitored and system.config.stop_on_trap
        cpu = system.cpu
        timing = system.core_timing
        regs = cpu.regs
        ns = {
            "cpu": cpu,
            "T": timing,
            "IF": iface,
            "R": regs.read,
            "W": regs.write,
            "P": regs.physical_index,
            "IC": timing.icache.read,
            "DC": timing.dcache.read,
            "DCW": timing.dcache.write,
            "SBP": timing.store_buffer.push,
            "RF": system.bus.line_refill,
            "CR": CommitRecord,
            "EA": execute_alu,
            "INV": self.invalidate,
        }
        n = len(members)
        base = pc
        end_pc = (base + 4 * n) & MASK32
        last_kind = members[-1][3]
        terminal_cti = bool(last_kind & KIND_TERMINAL
                            and not members[-1][2].is_store)

        lines = [
            "def run(now, max_c):",
            "    pld = T._pending_load_dest",
            "    ts = T.stats",
            "    completed = 0",
            "    bc = 0",
            "    cyc = now",
        ]
        if monitored:
            lines.append("    ign = 0")
        lines.append("    try:")
        lines.append("        while True:")
        for index, member in enumerate(members):
            self._emit_member(lines, ns, index, member, monitored)
            lines.append(f"            completed = {index + 1}")
            if index + 1 < n:
                if check_trap and member[3] & KIND_FORWARDED:
                    lines.append("            if IF.pending_trap "
                                 "is not None: break")
                lines.append("            if now >= max_c: break")
        lines.append("            break")

        fixup = [
            f"cpu.pc = ({base} + 4 * completed) & {MASK32}",
            f"cpu.npc = ({base + 4} + 4 * completed) & {MASK32}",
            "cpu.instret += completed",
            "ts.instructions += completed",
            "ts.base_cycles += bc",
            "ts.cycles = cyc",
        ]
        if monitored:
            fixup += [
                "if ign:",
                "    s = IF.stats",
                "    s.committed += ign",
                "    s.ignored += ign",
            ]
        lines.append("    except BaseException:")
        lines.append("        if completed:")
        lines.extend("            " + line for line in fixup)
        lines.append("        T._pending_load_dest = pld")
        lines.append("        raise")

        if terminal_cti:
            # The CTI member wrote pc/npc itself when it completed.
            lines.append(f"    if completed != {n}:")
            lines.append(f"        cpu.pc = ({base} + 4 * completed)"
                         f" & {MASK32}")
            lines.append(f"        cpu.npc = ({base + 4} + 4 * "
                         f"completed) & {MASK32}")
        else:
            lines.append(f"    if completed == {n}:")
            lines.append(f"        cpu.pc = {end_pc}")
            lines.append(f"        cpu.npc = {(end_pc + 4) & MASK32}")
            lines.append("    else:")
            lines.append(f"        cpu.pc = ({base} + 4 * completed)"
                         f" & {MASK32}")
            lines.append(f"        cpu.npc = ({base + 4} + 4 * "
                         f"completed) & {MASK32}")
        lines.append("    cpu.instret += completed")
        lines.append("    ts.instructions += completed")
        lines.append("    ts.base_cycles += bc")
        lines.append("    ts.cycles = cyc")
        lines.append("    T._pending_load_dest = pld")
        if monitored:
            lines.append("    if ign:")
            lines.append("        s = IF.stats")
            lines.append("        s.committed += ign")
            lines.append("        s.ignored += ign")
        lines.append("    return now")

        source = "\n".join(lines)
        code = _BLOCK_CODE_CACHE.get(source)
        if code is None:
            code = compile(source, f"<superblock {pc:#x}>", "exec")
            _BLOCK_CODE_CACHE[source] = code
        exec(code, ns)
        return ns["run"]

    def _emit_member(self, lines, ns, index, member, monitored):
        """Append one member's inlined body (transcribed from the
        per-PC closure of the same shape) at while-body indentation."""
        addr, word, instr, kind, latency = member
        forwarded = bool(kind & KIND_FORWARDED)
        emit = lines.append
        ind = "            "
        k = index
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        op = instr.op
        is_branch = op == Op.FORMAT2 and instr.opcode == Op2.BICC
        is_call = op == Op.CALL
        is_sethi = op == Op.FORMAT2 and instr.opcode == Op2.SETHI
        is_load = instr.is_load
        is_store = instr.is_store
        npc = (addr + 4) & MASK32

        if forwarded:
            klass = instr.instr_class
            ns[f"I{k}"] = instr
            ns[f"K{k}"] = klass
            ns[f"F{k}"] = self._make_forward(addr, word, instr, klass)

        def emit_ifetch():
            emit(ind + "now = int(now)")
            emit(ind + f"if not IC({addr}):")
            emit(ind + "    done = RF(now, 'core-ifetch')")
            emit(ind + "    ts.icache_stall += done - now")
            emit(ind + "    now = done")

        def emit_operands():
            emit(ind + f"a = R({rs1})")
            emit(ind + (f"b = {imm}" if use_imm else f"b = R({rs2})"))

        def interlock_cond(include_rd=False):
            terms = [f"P({rs1}) == pld"]
            if not use_imm:
                terms.append(f"P({rs2}) == pld")
            if include_rd:
                terms.append(f"P({rd}) == pld")
            return " or ".join(terms)

        def emit_interlock(include_rd=False, load_dest=False):
            emit(ind + f"base = {latency}")
            emit(ind + f"if pld > 0 and ({interlock_cond(include_rd)}):")
            emit(ind + "    base += 1")
            emit(ind + "    ts.interlock_stall += 1")
            emit(ind + (f"pld = P({rd})" if load_dest else "pld = -1"))
            emit(ind + "bc += base")
            emit(ind + "now += base")

        def emit_flat_latency():
            emit(ind + "pld = -1")
            emit(ind + f"bc += {latency}")
            emit(ind + f"now += {latency}")

        def emit_commit():
            if forwarded:
                emit(ind + "cyc = now")
                emit(ind + f"now = F{k}(record, now)")
            else:
                emit(ind + "cyc = now")
                if monitored:
                    emit(ind + "ign += 1")

        if is_load:
            ns[f"L{k}"] = self._block_loadfn(instr.opcode)
            emit_operands()
            emit(ind + f"addr = (a + b) & {MASK32}")
            emit(ind + f"value = L{k}(addr)")
            emit(ind + f"W({rd}, value)")
            if forwarded:
                emit(ind + "codes = cpu.codes")
                emit(ind + f"record = CR(pc={addr}, "
                     f"word={word}, instr=I{k}, instr_class=K{k}, "
                     f"addr=addr, result=value, srcv1=a, srcv2=b, "
                     f"cond=codes.pack(), src1_phys=P({rs1}), "
                     f"src2_phys={0 if use_imm else f'P({rs2})'}, "
                     f"dest_phys=P({rd}), carry_before=codes.c, "
                     f"y_before=cpu.y)")
            emit_ifetch()
            emit_interlock(load_dest=True)
            emit(ind + "if not DC(addr):")
            emit(ind + "    done = RF(now, 'core-dcache')")
            emit(ind + "    ts.dcache_stall += done - now")
            emit(ind + "    now = done")
            emit_commit()
        elif is_store:
            ns[f"S{k}"] = self._block_storefn(instr.opcode)
            emit_operands()
            emit(ind + f"addr = (a + b) & {MASK32}")
            emit(ind + f"value = R({rd})")
            emit(ind + f"S{k}(addr, value)")
            emit(ind + f"if {self.text_lo} <= addr < {self.text_hi}:")
            emit(ind + "    INV(addr)")
            if forwarded:
                emit(ind + "codes = cpu.codes")
                emit(ind + f"record = CR(pc={addr}, "
                     f"word={word}, instr=I{k}, instr_class=K{k}, "
                     f"addr=addr, result=value, srcv1=a, srcv2=b, "
                     f"cond=codes.pack(), src1_phys=P({rs1}), "
                     f"src2_phys={0 if use_imm else f'P({rs2})'}, "
                     f"dest_phys=P({rd}), carry_before=codes.c, "
                     f"y_before=cpu.y)")
            emit_ifetch()
            emit_interlock(include_rd=True)
            emit(ind + "DCW(addr)")
            emit(ind + "proceed = SBP(now)")
            emit(ind + "ts.store_stall += proceed - now")
            emit(ind + "now = proceed")
            emit_commit()
        elif is_branch:
            ns[f"C{k}"] = _COND_EVAL[instr.cond]
            target = (addr + 4 * instr.disp) & MASK32
            annul = instr.annul
            annul_taken = instr.annul and instr.cond == Cond.BA
            if forwarded:
                emit(ind + "codes = cpu.codes")
                emit(ind + f"taken = C{k}(codes)")
                emit(ind + f"record = CR(pc={addr}, "
                     f"word={word}, instr=I{k}, instr_class=K{k}, "
                     f"addr={target}, branch_taken=taken, "
                     f"cond=codes.pack(), carry_before=codes.c, "
                     f"y_before=cpu.y)")
                emit(ind + "if taken:")
            else:
                emit(ind + f"if C{k}(cpu.codes):")
            if annul_taken:
                emit(ind + "    cpu._annul_next = True")
            emit(ind + f"    cpu.pc = {npc}")
            emit(ind + f"    cpu.npc = {target}")
            emit(ind + "else:")
            if annul:
                emit(ind + "    cpu._annul_next = True")
            emit(ind + f"    cpu.pc = {npc}")
            emit(ind + f"    cpu.npc = {(npc + 4) & MASK32}")
            emit_ifetch()
            emit_flat_latency()
            emit_commit()
        elif is_call:
            target = (addr + 4 * instr.disp) & MASK32
            if forwarded:
                emit(ind + f"W(15, {addr})")
                emit(ind + "codes = cpu.codes")
                emit(ind + f"record = CR(pc={addr}, "
                     f"word={word}, instr=I{k}, instr_class=K{k}, "
                     f"addr={target}, result={addr}, "
                     f"branch_taken=True, cond=codes.pack(), "
                     f"dest_phys=P(15), carry_before=codes.c, "
                     f"y_before=cpu.y)")
            else:
                emit(ind + f"W(15, {addr})")
            emit(ind + f"cpu.pc = {npc}")
            emit(ind + f"cpu.npc = {target}")
            emit_ifetch()
            emit_flat_latency()
            emit_commit()
        elif is_sethi:
            value = (imm << 10) & MASK32
            emit(ind + f"W({rd}, {value})")
            if forwarded:
                emit(ind + "codes = cpu.codes")
                emit(ind + f"record = CR(pc={addr}, "
                     f"word={word}, instr=I{k}, instr_class=K{k}, "
                     f"result={value}, cond=codes.pack(), "
                     f"dest_phys=P({rd}), carry_before=codes.c, "
                     f"y_before=cpu.y)")
            emit_ifetch()
            emit_flat_latency()
            emit_commit()
        else:
            # FORMAT3_ALU (simple or full).
            valfn = _SIMPLE_ALU.get(instr.opcode)
            emit_operands()
            if valfn is not None and not forwarded:
                ns[f"V{k}"] = valfn
                emit(ind + f"W({rd}, V{k}(a, b))")
            elif valfn is not None:
                ns[f"V{k}"] = valfn
                emit(ind + f"value = V{k}(a, b)")
                emit(ind + f"W({rd}, value)")
                emit(ind + "codes = cpu.codes")
                emit(ind + f"record = CR(pc={addr}, "
                     f"word={word}, instr=I{k}, instr_class=K{k}, "
                     f"result=value, srcv1=a, srcv2=b, "
                     f"cond=codes.pack(), src1_phys=P({rs1}), "
                     f"src2_phys={0 if use_imm else f'P({rs2})'}, "
                     f"dest_phys=P({rd}), carry_before=codes.c, "
                     f"y_before=cpu.y)")
            else:
                ns[f"O{k}"] = instr.opcode
                if forwarded:
                    emit(ind + "carry_before = cpu.codes.c")
                    emit(ind + "y_before = cpu.y")
                    emit(ind + f"alu = EA(O{k}, a, b, "
                         "carry=carry_before, y=y_before)")
                else:
                    emit(ind + f"alu = EA(O{k}, a, b, "
                         "carry=cpu.codes.c, y=cpu.y)")
                emit(ind + f"W({rd}, alu.value)")
                emit(ind + "if alu.codes is not None:")
                emit(ind + "    cpu.codes = alu.codes")
                emit(ind + "if alu.y is not None:")
                emit(ind + "    cpu.y = alu.y")
                if forwarded:
                    emit(ind + f"record = CR(pc={addr}, "
                         f"word={word}, instr=I{k}, instr_class=K{k}, "
                         f"result=alu.value, srcv1=a, srcv2=b, "
                         f"cond=cpu.codes.pack(), src1_phys=P({rs1}), "
                         f"src2_phys={0 if use_imm else f'P({rs2})'}, "
                         f"dest_phys=P({rd}), carry_before="
                         f"carry_before, y_before=y_before)")
            emit_ifetch()
            emit_interlock()
            emit_commit()

    def _block_loadfn(self, op3):
        memory = self.system.memory
        if op3 == Op3Mem.LD:
            return self._read_word
        if op3 == Op3Mem.LDUB:
            return memory.read_byte
        if op3 == Op3Mem.LDSB:
            read_byte = memory.read_byte

            def loadfn(addr):
                raw = read_byte(addr)
                return (raw - 0x100 if raw & 0x80 else raw) & MASK32

            return loadfn
        if op3 == Op3Mem.LDUH:
            return memory.read_half
        read_half = memory.read_half  # LDSH

        def loadfn(addr):
            raw = read_half(addr)
            return (raw - 0x10000 if raw & 0x8000 else raw) & MASK32

        return loadfn

    def _block_storefn(self, op3):
        memory = self.system.memory
        if op3 == Op3Mem.ST:
            return self._write_word
        if op3 == Op3Mem.STB:
            return memory.write_byte
        return memory.write_half  # STH
