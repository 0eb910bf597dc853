"""Per-PC predecoded handler closures: the fast engine.

The reference engine pays, for every committed instruction: a word
fetch, a decode-cache lookup, a
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
differential and golden tests enforce this).  The loop that calls
the closures — watchdogs, checkpoints, rollback, traps — is shared
by every engine, :func:`repro.engine.fastloop.run_loop`; it calls
:meth:`HandlerTable.annulled` instead of a handler when the pending
delay slot is annulled.

Each common instruction shape (simple ALU, full ALU, load, store,
branch, register write, jump) has one closure factory, whatever the
policy.  RDY shares SETHI's (a register write with no sources), WRY
with rd = %g0 the full ALU's (an op that writes only Y), and JMPL
CALL's (link, then jump).  Fidelity rules the closures follow:

* Ignored-class common instructions are fully fused: nothing is
  allocated; the interface bookkeeping reduces to the two counters
  ``on_commit`` would have bumped.
* *Forwarded* common instructions (policy != IGNORE) run the same
  fused functional work and timing charge, then build one object: the
  ``TracePacket``, field for field what ``TracePacket.from_commit``
  makes of the ``CommitRecord`` ``_execute`` would have produced,
  with no record attached.  They hand it to the commit tail
  ``CoreFabricInterface.forward_tail`` built for the class and op
  shape: ``on_commit``'s body with the FIFO, the fabric timing and the
  extension's fabric op inlined, so the packet reaches its op in one
  call.  Every extension, MDL-compiled ones included, has ops.  Under
  a tracer or a meta-data TLB, and when ``process`` is patched on the
  instance (the ``fifo-drop`` fault), the tail runs the reference
  ``_service``, which calls ``process``, in the op's place.
* The rare opcodes (FLEX, TICC, SAVE/RESTORE, RETT, LDD/STD) run
  through the original ``CpuState._execute`` / ``CoreTiming.advance``
  / ``on_commit`` machinery — only the fetch and decode are skipped.
* ``now`` is truncated with ``int()`` before timing, errors propagate
  with the same types and messages, ``instret`` only increments after
  the fallible functional work, and mutable collaborators that
  ``restore_state`` *replaces* (``timing.stats``, ``iface.stats``,
  ``fifo.stats``, ``cpu.codes``, each cache's ``stats``) are re-read
  through their stable owner on every call, as is the register
  file's window map ``regs._map``, which every CWP change rebuilds.
  Containers restored in place may be bound once: the FIFO's drain
  queue, the monitor's tag stores, the register bank ``regs._phys``,
  the memory's accessors and the caches' per-set tag lists.
* Registers and cache tags are indexed directly; a fused load or
  store makes one call, to the ``SparseMemory`` accessor of its size.
  An operand reads ``bank[m[rs]]`` (``%g0`` reads 0, a write to it is
  dropped) and ``m[rs]`` is the packet's physical register number.  A
  handler's PC is static, so its I-cache set and line tag are too: a
  hit on the set's MRU way only bumps ``read_hits``, and anything else
  calls ``Cache.read``.  Fused loads do the same on the D-cache with
  the tag of the computed address.
* Stores into the text section invalidate the handler for the written
  word, so self-modifying code re-predecodes on next execution.  The
  store closures reach the table through a ``weakref.proxy``, so a
  finished table is no reference cycle and the system it ran is freed
  by reference counting.

Handlers are built lazily (on first execution of each PC), so a table
never describes memory it has not read.  Each built handler is passed
through the system's ``handler_wraps``, once per build; a rebuilt
handler (after a text store) is wrapped again, and a system with no
wraps runs its handlers bare.
"""

from __future__ import annotations

import weakref

from repro.core.alu import ALU_OPS, ALU_VALUE, CONDITIONS, AluResult
from repro.core.executor import SimulationError
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.packet import TracePacket
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, Op, Op2, Op3, Op3Mem

MASK32 = 0xFFFFFFFF

#: ``tuple.__new__``: builds a packet from its 15 fields (the record
#: slot None) without the named tuple's generated ``__new__`` call.
_new_packet = tuple.__new__

#: Process-wide word -> Instruction memo.  Instructions are frozen and
#: decoding is pure, so the memo is shared by every table.
_DECODE_CACHE: dict[int, Instruction] = {}


def _write_y(a, b, carry, y):
    """WRY as a full-ALU op: Y <- rs1 xor rs2/imm, and no register or
    icc write, so it is fused only with rd = %g0."""
    return AluResult(0, None, (a ^ b) & MASK32)


#: The full-ALU closures' ops: every ALU op, and WRY.
_FULL_OPS = {**ALU_OPS, Op3.WRY: _write_y}

#: Loads with fully fused closures: op3 -> (the ``SparseMemory``
#: accessor they bind, sign bit).  A signed load whose sign bit is set
#: is extended as ``CpuState._execute`` extends it.
_FUSED_LOADS = {
    Op3Mem.LD: ("read_word", 0),
    Op3Mem.LDUB: ("read_byte", 0), Op3Mem.LDSB: ("read_byte", 0x80),
    Op3Mem.LDUH: ("read_half", 0), Op3Mem.LDSH: ("read_half", 0x8000),
}

#: Stores with fully fused closures, and the accessor they bind.
#: LDD/STD (two accesses, even-rd checks) take the generic path.
_FUSED_STORES = {
    Op3Mem.ST: "write_word", Op3Mem.STB: "write_byte",
    Op3Mem.STH: "write_half",
}


def _static_decode(instr: Instruction) -> int:
    """The DECODE bits of ``instr``'s packets that never change: all
    but the incoming carry (bit 16), as ``TracePacket.from_commit``
    packs them."""
    decode = (int(instr.is_load)
              | (int(instr.is_store) << 1)
              | (int(instr.use_imm) << 2)
              | ((instr.opf & 0x1FF) << 3))
    if instr.is_load or instr.is_store:
        decode |= (instr.access_size() & 0xF) << 12
    return decode


class HandlerTable:
    """Lazily-built map of PC -> fused step closure for one system.

    A table is built fresh for each ``run_bounded`` invocation (and
    after every rollback restore), so it can never describe stale
    text.  Within a run, store closures invalidate overwritten words.
    """

    def __init__(self, system):
        self.system = system
        self.handlers: dict[int, object] = {}
        program = system.program
        self.text_lo = program.text_base
        self.text_hi = program.text_base + 4 * len(program.text)
        #: (class, op shape) -> forward tail, for this table's handlers.
        self._tails: dict = {}

    def invalidate(self, addr: int) -> None:
        """Drop the predecoded handler for the text word at ``addr``
        (self-modifying code overwrote it; the next execution of that
        PC re-fetches and re-predecodes)."""
        self.handlers.pop(addr & ~3, None)

    def annulled(self, now):
        """Commit the annulled delay slot at ``cpu.pc``.

        The reference still fetches and decodes the slot (errors
        included) — building its handler performs both — then charges
        ifetch plus one cycle and clears the load interlock.
        """
        system = self.system
        cpu = system.cpu
        pc = cpu.pc
        if pc not in self.handlers:
            self.build(pc)
        cpu._annul_next = False
        npc = cpu.npc
        cpu.pc = npc
        cpu.npc = (npc + 4) & MASK32
        cpu.instret += 1
        timing = system.core_timing
        ts = timing.stats
        ts.instructions += 1
        now = int(now)
        if not timing.icache.read(pc):
            done = system.bus.line_refill(now, "core-ifetch")
            ts.icache_stall += done - now
            now = done
        ts.base_cycles += 1
        now += 1
        ts.cycles = now
        timing._pending_load_dest = -1
        if system.interface is not None:
            system.interface.stats.committed += 1
        return now

    # ------------------------------------------------------------------

    def build(self, pc: int):
        """Decode the word at ``pc`` and install its handler, wrapped
        by each of the system's ``handler_wraps`` in turn.

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

        factory = None
        op = instr.op
        opcode = instr.opcode
        if op == Op.FORMAT3_ALU:
            if opcode in ALU_VALUE:
                factory = self._make_alu_simple
            elif opcode in ALU_OPS or (opcode == Op3.WRY and not instr.rd):
                factory = self._make_alu_full
            elif opcode == Op3.JMPL:
                factory = self._make_jump
            elif opcode == Op3.RDY:
                factory = self._make_sethi
        elif op == Op.FORMAT3_MEM:
            if opcode in _FUSED_LOADS:
                factory = self._make_load
            elif opcode in _FUSED_STORES:
                factory = self._make_store
        elif op == Op.CALL:
            factory = self._make_jump
        elif op == Op.FORMAT2:
            if opcode == Op2.SETHI:
                factory = self._make_sethi
            elif opcode == Op2.BICC:
                factory = self._make_branch
        if factory is None:
            handler = self._make_generic(pc, word, instr)
        else:
            forward = (None if policy == ForwardPolicy.IGNORE else
                       iface.forward_tail(instr_class, word, self._tails))
            handler = factory(pc, word, instr, latency, forward)
        for wrap in self.system.handler_wraps:
            handler = wrap(instr, handler)
        self.handlers[pc] = handler
        return handler

    # ------------------------------------------------------------------
    # Closure factories.  Each captures only objects that are stable
    # across restore_state (the cpu/timing/interface *owners*, bound
    # methods of in-place-mutated collaborators, containers restored
    # in place) plus per-PC statics.
    #
    # ``forward`` is None for an IGNORE-class instruction: the handler
    # then bumps the two counters ``on_commit`` would have.  Otherwise
    # it is the interface's commit tail for the class and op shape,
    # and the handler ends by building the instruction's
    # ``TracePacket`` — field for field what ``TracePacket.from_commit``
    # makes of the record ``_execute`` would have produced, minus the
    # record — and handing it over.  The packet is built in Table II
    # order (pc, inst, addr, res, srcv1, srcv2, cond, branch, opcode,
    # decode, extra, src1, src2, dest) plus the empty record slot, by
    # ``tuple.__new__``: keyword construction costs about three times
    # as much, and the named tuple's own ``__new__`` is one more call
    # per packet.  COND is the codes' precomputed ``cond``.

    def _context(self, pc):
        """What every fused closure binds: the owners, the register
        file and its bank, and ``pc``'s I-cache set and line tag."""
        system = self.system
        cpu = system.cpu
        timing = system.core_timing
        regs = cpu.regs
        icache = timing.icache
        itag = pc >> icache._offset_bits
        return (cpu, timing, system.interface, regs, regs._phys, icache,
                icache._sets[itag % icache._num_sets], itag,
                system.bus.line_refill)

    def _make_alu_simple(self, pc, word, instr, latency, forward):
        (cpu, timing, iface, regs, bank, icache, iways, itag,
         refill) = self._context(pc)
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        valfn = ALU_VALUE[instr.opcode]
        klass = instr.instr_class
        decode = _static_decode(instr)

        def handler(now):
            m = regs._map
            a = bank[m[rs1]] if rs1 else 0
            b = imm if use_imm else (bank[m[rs2]] if rs2 else 0)
            value = valfn(a, b)
            if rd:
                bank[m[rd]] = value
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (m[rs1] == dest
                             or (not use_imm and m[rs2] == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if forward is not None:
                codes = cpu.codes
                return forward(_new_packet(TracePacket, (
                    pc, word, 0, value, a, b, codes.cond, False, klass,
                    decode | (codes.c << 16), cpu.y, m[rs1],
                    0 if use_imm else m[rs2], m[rd], None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_alu_full(self, pc, word, instr, latency, forward):
        (cpu, timing, iface, regs, bank, icache, iways, itag,
         refill) = self._context(pc)
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        alu_op = _FULL_OPS[instr.opcode]
        klass = instr.instr_class
        decode = _static_decode(instr)

        def handler(now):
            m = regs._map
            a = bank[m[rs1]] if rs1 else 0
            b = imm if use_imm else (bank[m[rs2]] if rs2 else 0)
            carry_before = cpu.codes.c
            y_before = cpu.y
            alu = alu_op(a, b, carry_before, y_before)
            if rd:
                bank[m[rd]] = alu.value & MASK32
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
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (m[rs1] == dest
                             or (not use_imm and m[rs2] == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if forward is not None:
                return forward(_new_packet(TracePacket, (
                    pc, word, 0, alu.value, a, b, cpu.codes.cond, False,
                    klass, decode | (carry_before << 16), y_before,
                    m[rs1], 0 if use_imm else m[rs2], m[rd], None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_load(self, pc, word, instr, latency, forward):
        (cpu, timing, iface, regs, bank, icache, iways, itag,
         refill) = self._context(pc)
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        klass = instr.instr_class
        decode = _static_decode(instr)
        dcache = timing.dcache
        dsets = dcache._sets
        dnum = dcache._num_sets
        dshift = dcache._offset_bits
        accessor, sign = _FUSED_LOADS[instr.opcode]
        loadfn = getattr(self.system.memory, accessor)
        extend = sign << 1

        def handler(now):
            m = regs._map
            a = bank[m[rs1]] if rs1 else 0
            b = imm if use_imm else (bank[m[rs2]] if rs2 else 0)
            addr = (a + b) & MASK32
            value = loadfn(addr)
            if value & sign:
                value = (value - extend) & MASK32
            if rd:
                bank[m[rd]] = value
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (m[rs1] == dest
                             or (not use_imm and m[rs2] == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = m[rd]
            ts.base_cycles += base
            now += base
            dtag = addr >> dshift
            dways = dsets[dtag % dnum]
            if dways and dways[-1] == dtag:
                dcache.stats.read_hits += 1
            elif not dcache.read(addr):
                done = refill(now, "core-dcache")
                ts.dcache_stall += done - now
                now = done
            ts.cycles = now
            if forward is not None:
                codes = cpu.codes
                return forward(_new_packet(TracePacket, (
                    pc, word, addr, value, a, b, codes.cond, False, klass,
                    decode | (codes.c << 16), cpu.y, m[rs1],
                    0 if use_imm else m[rs2], m[rd], None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_store(self, pc, word, instr, latency, forward):
        (cpu, timing, iface, regs, bank, icache, iways, itag,
         refill) = self._context(pc)
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = instr.use_imm
        imm = instr.imm & MASK32
        klass = instr.instr_class
        decode = _static_decode(instr)
        dcache_write = timing.dcache.write
        sb_push = timing.store_buffer.push
        storefn = getattr(self.system.memory, _FUSED_STORES[instr.opcode])
        text_lo, text_hi = self.text_lo, self.text_hi
        table = weakref.proxy(self)

        def handler(now):
            m = regs._map
            a = bank[m[rs1]] if rs1 else 0
            b = imm if use_imm else (bank[m[rs2]] if rs2 else 0)
            addr = (a + b) & MASK32
            value = bank[m[rd]] if rd else 0
            storefn(addr, value)
            if text_lo <= addr < text_hi:
                # Self-modifying code: re-predecode the touched word.
                table.invalidate(addr)
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (m[rs1] == dest
                             or (not use_imm and m[rs2] == dest)
                             or m[rd] == dest):
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
            if forward is not None:
                codes = cpu.codes
                return forward(_new_packet(TracePacket, (
                    pc, word, addr, value, a, b, codes.cond, False, klass,
                    decode | (codes.c << 16), cpu.y, m[rs1],
                    0 if use_imm else m[rs2], m[rd], None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_branch(self, pc, word, instr, latency, forward):
        (cpu, timing, iface, _regs, _bank, icache, iways, itag,
         refill) = self._context(pc)
        cond_eval = CONDITIONS[instr.cond]
        target = (pc + 4 * instr.disp) & MASK32
        annul = instr.annul
        annul_taken = instr.annul and instr.cond == Cond.BA
        klass = instr.instr_class
        decode = _static_decode(instr)

        def handler(now):
            codes = cpu.codes
            taken = cond_eval(codes)
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
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            # Branches carry no source physical registers, so the
            # load-use interlock can never fire; just clear it.
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if forward is not None:
                return forward(_new_packet(TracePacket, (
                    pc, word, target, 0, 0, 0, codes.cond, taken, klass,
                    decode | (codes.c << 16), cpu.y, 0, 0, 0, None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_sethi(self, pc, word, instr, latency, forward):
        """SETHI, and RDY: a register write with no sources, of the
        static ``imm << 10`` or of Y."""
        (cpu, timing, iface, regs, bank, icache, iways, itag,
         refill) = self._context(pc)
        rd = instr.rd
        read_y = instr.op == Op.FORMAT3_ALU
        imm = (instr.imm << 10) & MASK32
        klass = instr.instr_class
        decode = _static_decode(instr)

        def handler(now):
            value = cpu.y if read_y else imm
            if rd:
                bank[regs._map[rd]] = value
            npc = cpu.npc
            cpu.pc = npc
            cpu.npc = (npc + 4) & MASK32
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            timing._pending_load_dest = -1
            ts.base_cycles += latency
            now += latency
            ts.cycles = now
            if forward is not None:
                codes = cpu.codes
                return forward(_new_packet(TracePacket, (
                    pc, word, 0, value, 0, 0, codes.cond, False, klass,
                    decode | (codes.c << 16), cpu.y, 0, 0, regs._map[rd],
                    None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

        return handler

    def _make_jump(self, pc, word, instr, latency, forward):
        """CALL and JMPL: link the PC into rd, then jump.  JMPL jumps
        to rs1 + rs2/imm, which must be word aligned; CALL is JMPL
        from %g0 + 0 to a static target, linking %o7."""
        (cpu, timing, iface, regs, bank, icache, iways, itag,
         refill) = self._context(pc)
        call = instr.op == Op.CALL
        rs1, rs2, rd = instr.rs1, instr.rs2, instr.rd
        use_imm = call or instr.use_imm
        imm = 0 if call else instr.imm & MASK32
        static = (pc + 4 * instr.disp) & MASK32 if call else 0
        klass = instr.instr_class
        decode = _static_decode(instr)

        def handler(now):
            m = regs._map
            a = bank[m[rs1]] if rs1 else 0
            b = imm if use_imm else (bank[m[rs2]] if rs2 else 0)
            target = (static + a + b) & MASK32
            if target & 3:
                raise SimulationError(f"jmpl to misaligned {target:#x}")
            if rd:
                bank[m[rd]] = pc
            cpu.pc = cpu.npc
            cpu.npc = target
            cpu.instret += 1
            ts = timing.stats
            ts.instructions += 1
            now = int(now)
            if iways and iways[-1] == itag:
                icache.stats.read_hits += 1
            elif not icache.read(pc):
                done = refill(now, "core-ifetch")
                ts.icache_stall += done - now
                now = done
            base = latency
            dest = timing._pending_load_dest
            if dest > 0 and (m[rs1] == dest
                             or (not use_imm and m[rs2] == dest)):
                base += 1
                ts.interlock_stall += 1
            timing._pending_load_dest = -1
            ts.base_cycles += base
            now += base
            ts.cycles = now
            if forward is not None:
                codes = cpu.codes
                return forward(_new_packet(TracePacket, (
                    pc, word, target, pc, a, b, codes.cond, True, klass,
                    decode | (codes.c << 16), cpu.y, m[rs1],
                    0 if use_imm else m[rs2], m[rd], None,
                )), now)
            if iface is not None:
                s = iface.stats
                s.committed += 1
                s.ignored += 1
            return now

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
        table = weakref.proxy(self)

        def handler(now):
            record = execute(pc, word, instr)
            cpu.instret += 1
            if is_store:
                addr = record.addr
                if text_lo <= addr < text_hi:
                    table.invalidate(addr)
                    if double:
                        table.invalidate(addr + 4)
            now = advance(record, int(now))
            if on_commit is not None:
                now = on_commit(record, now)
            return now

        return handler
