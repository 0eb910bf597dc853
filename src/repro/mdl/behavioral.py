"""Behavioral backend: typed IR -> a runnable MonitorExtension.

Each IR expression/statement compiles once into a Python closure of
signature ``fn(monitor, packet, port, env)``.  The monitor then states
its transparent operation the way every extension does, as fabric
ops: :meth:`CompiledMonitor.build_op` puts one class's rules (or one
flex opf's) into one op, which runs those closures with the op's
meta-data port in place of a recorded outcome.  The semantics are
bit-exact with the hand-written prototypes — the differential tests
demand *identical* RunResult fingerprints, which pins down every
observable:

* each ``mem[...]`` r-value records exactly one meta-cache read at
  ``TagStore.meta_address``; a whole-tag assignment records one write
  with ``TagStore.write_mask``; a *field* assignment is a functional
  read-modify-write that records only the masked write (the fabric's
  bit-granular write port, Section III-D);
* ``reg[...]`` reads/writes touch only the shadow register file (it
  lives inside the fabric — no cache traffic);
* arithmetic wraps at the IR width; boolean operators evaluate both
  sides (hardware has no short-circuit, and skipping a side could
  skip its meta-cache read);
* a firing ``trap`` statement *overwrites* the packet's trap (UMC's
  double-word load can trap per word; the last faulting word wins,
  while the interface latches the first trapping packet);
* ``cycles`` reads only constants and ``words`` (2 for LDD/STD, else
  1), so it is evaluated once per op: an initiation interval is fixed
  per datapath;
* FLEX packets go through :meth:`MonitorExtension.handle_flex` first
  (base/policy/tagval latches), then any ``on flex OPF`` rules.
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.extensions.base import DEFAULT_META_BASE, MonitorExtension, no_op
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import InstrClass
from repro.mdl import ir

_EvalFn = Callable[..., int]

_DOUBLE = (InstrClass.LOAD_DOUBLE, InstrClass.STORE_DOUBLE)


# -- expression compilation ------------------------------------------------


def _compile_expr(expr: ir.ExprIR) -> _EvalFn:
    mask = (1 << expr.width) - 1

    if isinstance(expr, ir.Const):
        value = expr.value & mask
        return lambda mon, pkt, port, env: value

    if isinstance(expr, ir.PacketField):
        attr = expr.attr
        if attr == "branch":  # bool on the packet, int in the IR
            return lambda mon, pkt, port, env: int(pkt.branch)
        return lambda mon, pkt, port, env: getattr(pkt, attr)

    if isinstance(expr, ir.StateField):
        name = expr.name
        return lambda mon, pkt, port, env: getattr(mon, name)

    if isinstance(expr, ir.ContextVar):
        name = expr.name
        return lambda mon, pkt, port, env: env[name]

    if isinstance(expr, ir.LocalVar):
        name = expr.name
        return lambda mon, pkt, port, env: env[name]

    if isinstance(expr, ir.MemTagRead):
        address = _compile_expr(expr.address)
        hi, lo = expr.hi, expr.lo

        if hi is None:
            def read_tag(mon, pkt, port, env):
                addr = address(mon, pkt, port, env)
                tags = mon.mem_tags
                port.read(tags.meta_address(addr))
                return tags.read(addr)
            return read_tag

        field_mask = (1 << (hi - lo + 1)) - 1

        def read_field(mon, pkt, port, env):
            addr = address(mon, pkt, port, env)
            tags = mon.mem_tags
            port.read(tags.meta_address(addr))
            return (tags.read(addr) >> lo) & field_mask
        return read_field

    if isinstance(expr, ir.RegTagRead):
        index = _compile_expr(expr.index)
        return (lambda mon, pkt, port, env:
                mon.shadow.read(index(mon, pkt, port, env)))

    fn, operands = ir.operation(expr)
    if len(operands) == 1:
        operand = _compile_expr(operands[0])
        return (lambda mon, pkt, port, env:
                fn(operand(mon, pkt, port, env)) & mask)
    left, right = map(_compile_expr, operands)
    if isinstance(operands[1], ir.Const):  # e.g. ``t & 0xF``: bind it
        value = right(None, None, None, None)
        return (lambda mon, pkt, port, env:
                fn(left(mon, pkt, port, env), value) & mask)
    return (lambda mon, pkt, port, env:
            fn(left(mon, pkt, port, env), right(mon, pkt, port, env))
            & mask)


# -- statement compilation -------------------------------------------------


def _compile_stmt(stmt: ir.StmtIR) -> _EvalFn:
    if isinstance(stmt, ir.LetIR):
        value = _compile_expr(stmt.value)
        name = stmt.name

        def run_let(mon, pkt, port, env):
            env[name] = value(mon, pkt, port, env)
        return run_let

    if isinstance(stmt, ir.MemTagWrite):
        address = _compile_expr(stmt.address)
        value = _compile_expr(stmt.value)
        hi, lo = stmt.hi, stmt.lo

        if hi is None:
            def run_write(mon, pkt, port, env):
                addr = address(mon, pkt, port, env)
                tags = mon.mem_tags
                tags.write(addr, value(mon, pkt, port, env))
                port.write(tags.meta_address(addr),
                           tags.write_mask(addr))
            return run_write

        field_mask = (1 << (hi - lo + 1)) - 1
        keep_mask = ~(field_mask << lo)

        def run_field_write(mon, pkt, port, env):
            addr = address(mon, pkt, port, env)
            tags = mon.mem_tags
            merged = ((tags.read(addr) & keep_mask)
                      | ((value(mon, pkt, port, env) & field_mask)
                         << lo))
            tags.write(addr, merged)
            # Bit-granular masked write of just this field's lanes
            # within the 32-bit meta word (cf. BC's nibble masks).
            slot = (addr >> 2) % (32 // tags.tag_bits)
            write_mask = ((field_mask << lo)
                          << (slot * tags.tag_bits)) & 0xFFFFFFFF
            port.write(tags.meta_address(addr), write_mask)
        return run_field_write

    if isinstance(stmt, ir.RegTagWrite):
        index = _compile_expr(stmt.index)
        value = _compile_expr(stmt.value)

        def run_reg_write(mon, pkt, port, env):
            mon.shadow.write(index(mon, pkt, port, env),
                             value(mon, pkt, port, env))
        return run_reg_write

    if isinstance(stmt, ir.TrapIR):
        condition = _compile_expr(stmt.condition)
        address = (_compile_expr(stmt.address)
                   if stmt.address is not None else None)
        kind = stmt.kind
        parts: list = [
            part if isinstance(part, str)
            else (_compile_expr(part[0]), part[1])
            for part in stmt.template
        ]

        def run_trap(mon, pkt, port, env):
            if not condition(mon, pkt, port, env):
                return None
            message = "".join(
                part if isinstance(part, str)
                else format(part[0](mon, pkt, port, env), part[1])
                for part in parts
            )
            addr = (address(mon, pkt, port, env)
                    if address is not None else 0)
            return mon.trap(pkt, kind, message, addr=addr)
        return run_trap

    raise AssertionError(f"unhandled IR statement {stmt!r}")


def _compile_rule(rule: ir.RuleIR):
    """``(foreach_word, stmts, cycles)``: the rule's statements, each
    compiled to return the trap it fires (or None), and its ``cycles``
    values, which read only constants and ``words``."""
    stmts = [_compile_stmt(s) for s in rule.body
             if not isinstance(s, ir.CyclesIR)]
    cycles = [_compile_expr(s.value) for s in rule.body
              if isinstance(s, ir.CyclesIR)]
    return rule.foreach_word, stmts, cycles


def _contexts(foreach: bool, flex: bool, words: int):
    """``contexts(packet)``: the context variables of each run of one
    rule on a packet — one run per word of a ``foreach word`` rule,
    else one."""
    if flex:
        return lambda packet: (
            {"flexaddr": (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF},)
    if not foreach:
        return lambda packet: ({},)
    offsets = range(0, 4 * words, 4)
    return lambda packet: [{"word": packet.addr + offset, "words": words}
                           for offset in offsets]


# -- the compiled extension ------------------------------------------------


class MonitorProgram:
    """A compiled monitor spec: a factory for extension instances plus
    the shared hardware view.  One program can be instantiated many
    times (runs, campaigns, workers) — compilation happens once."""

    def __init__(self, monitor_ir: ir.MonitorIR,
                 source: str | None = None,
                 filename: str = "<spec>"):
        self.ir = monitor_ir
        self.source = source
        self.filename = filename
        #: class / flex opf -> its rules, in spec order, as
        #: ``(foreach_word, stmts, cycles)`` (see :func:`_compile_rule`).
        self.by_class: dict[InstrClass, list] = {}
        self.by_opf: dict[int, list] = {}
        for rule in monitor_ir.rules:
            compiled = _compile_rule(rule)
            for cls in rule.classes:
                self.by_class.setdefault(cls, []).append(compiled)
            for opf in rule.flex_opfs:
                self.by_opf.setdefault(opf, []).append(compiled)

    @property
    def name(self) -> str:
        return self.ir.name

    def create(self,
               meta_base: int = DEFAULT_META_BASE
               ) -> "CompiledMonitor":
        """Factory with the :func:`create_extension` signature —
        suitable for :func:`repro.extensions.register_extension`."""
        return CompiledMonitor(self, meta_base)

    def forward_config(self) -> ForwardConfig:
        config = ForwardConfig()
        config.set_classes(self.ir.forward_classes,
                           ForwardPolicy.ALWAYS)
        return config

    def hardware(self):
        from repro.mdl.hardware import lower_network
        return lower_network(self.ir)


class CompiledMonitor(MonitorExtension):
    """A MonitorExtension interpreted from compiled MDL rules.

    Behaves exactly like a hand-written subclass: same construction
    and attach/forward/op/hardware protocol, checkpointable via
    the inherited snapshot machinery (all its state lives in the base
    class: tag store, shadow file, latches)."""

    def __init__(self, program: MonitorProgram,
                 meta_base: int = DEFAULT_META_BASE):
        self.program = program
        monitor_ir = program.ir
        # Instance attributes must shadow the class-level defaults
        # *before* the base constructor sizes the tag store.
        self.name = monitor_ir.name
        self.description = (monitor_ir.description
                            or f"MDL-compiled monitor "
                               f"'{monitor_ir.name}'")
        self.register_tag_bits = monitor_ir.register_tag_bits
        self.memory_tag_bits = monitor_ir.memory_tag_bits
        super().__init__(meta_base)

    def forward_config(self) -> ForwardConfig:
        return self.program.forward_config()

    def on_program_load(self, program, stack_top: int) -> None:
        tags = self.mem_tags
        if tags is None:
            return
        for section, value in self.program.ir.init:
            if section == "text":
                tags.fill_range(program.text_base,
                                program.text_size, value)
            elif section == "data" and program.data:
                tags.fill_range(program.data_base,
                                len(program.data), value)

    def op_shape(self, klass, inst):
        """Flex rules are keyed by opf, so a FLEX op is keyed by class
        and the opf field of INST (bits 13:5); any other by class."""
        if klass == InstrClass.FLEX:
            return klass, (inst >> 5) & 0x1FF
        return klass

    def build_op(self, shape):
        """One op per class (or FLEX opf) from that class's rules, in
        spec order.  ``words`` is static per class and ``cycles``
        reads only constants and ``words``, so the initiation interval
        is evaluated here, once; the last ``cycles`` statement wins."""
        mon = weakref.proxy(self)  # see MonitorExtension.build_op
        flex = isinstance(shape, tuple)
        program = self.program
        rules = (program.by_opf.get(shape[1], ()) if flex
                 else program.by_class.get(shape, ()))
        words = 2 if shape in _DOUBLE else 1
        cycles = 1
        for _, _, values in rules:
            for value in values:
                cycles = int(value(None, None, None, {"words": words}))
        plan = [(stmts, _contexts(foreach, flex, words))
                for foreach, stmts, _ in rules]

        def op(packet, port):
            if flex:
                mon.handle_flex(packet)
            trap = None
            for stmts, contexts in plan:
                for env in contexts(packet):
                    for stmt in stmts:
                        fired = stmt(mon, packet, port, env)
                        if fired is not None:
                            trap = fired
            return trap
        return cycles, (op if plan or flex else no_op)

    def hardware(self):
        return self.program.hardware()

    def __repr__(self) -> str:
        return (f"<CompiledMonitor {self.name!r} "
                f"({len(self.program.ir.rules)} rules)>")
