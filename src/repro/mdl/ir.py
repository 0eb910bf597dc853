"""Typed rule IR — the contract between the MDL front-end and the two
backends.

Every expression node carries an explicit bit ``width``; arithmetic
wraps at the width of its operands (``max`` of the two sides, capped
at 32), exactly the semantics a fixed-width fabric datapath has.  The
checker (:mod:`repro.mdl.check`) is the only producer; the behavioral
interpreter and the hardware lowering consume the same tree, which is
what makes the differential test (compiled vs hand-written monitor)
meaningful: one IR, two executions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.isa.opcodes import InstrClass

MAX_WIDTH = 32

#: Trace-packet fields an MDL expression may read, with the TracePacket
#: attribute each maps to and its hardware width (Table II).
PACKET_FIELDS: dict[str, tuple[str, int]] = {
    "pc": ("pc", 32),
    "inst": ("inst", 32),
    "addr": ("addr", 32),
    "res": ("res", 32),
    "srcv1": ("srcv1", 32),
    "srcv2": ("srcv2", 32),
    "cond": ("cond", 4),
    "branch": ("branch", 1),
    "src1": ("src1", 9),
    "src2": ("src2", 9),
    "dest": ("dest", 9),
    "access_size": ("access_size", 4),
}

#: Monitor-state latches (software-visible registers, Section III-C).
STATE_FIELDS: dict[str, int] = {
    "tagval": 32,
    "policy": 32,
}

#: Context variables whose value depends on where a rule runs:
#: ``word``/``words`` exist inside ``foreach word`` rules, ``flexaddr``
#: (the rs1+rs2 effective address) inside ``flex`` rules.
CONTEXT_FIELDS: dict[str, int] = {
    "word": 32,
    "words": 4,
    "flexaddr": 32,
}


def clamp_width(width: int) -> int:
    return max(1, min(width, MAX_WIDTH))


# -- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class ExprIR:
    width: int


@dataclass(frozen=True)
class Const(ExprIR):
    value: int


@dataclass(frozen=True)
class PacketField(ExprIR):
    attr: str


@dataclass(frozen=True)
class StateField(ExprIR):
    name: str


@dataclass(frozen=True)
class ContextVar(ExprIR):
    name: str


@dataclass(frozen=True)
class LocalVar(ExprIR):
    name: str


@dataclass(frozen=True)
class MemTagRead(ExprIR):
    """Read a word's memory tag (records one meta-cache read); if
    ``hi``/``lo`` are set, extract that declared field."""

    address: ExprIR
    hi: int | None = None
    lo: int | None = None


@dataclass(frozen=True)
class RegTagRead(ExprIR):
    index: ExprIR


@dataclass(frozen=True)
class BinaryIR(ExprIR):
    op: str
    left: ExprIR
    right: ExprIR


@dataclass(frozen=True)
class UnaryIR(ExprIR):
    op: str
    operand: ExprIR


@dataclass(frozen=True)
class CallIR(ExprIR):
    func: str  # "max" | "min"
    args: tuple[ExprIR, ...]


#: What each operator computes from its operands' values, before the
#: result wraps to the node's width.  Comparisons, ``not``, ``and`` and
#: ``or`` are 1 bit wide, so their bools wrap to 0/1; ``and``/``or``
#: take both sides' values (hardware has no short-circuit, and
#: skipping a side could skip its meta-cache read).  The checker's
#: constant folding and the behavioral backend share these tables.
UNARY_OPS = {"-": operator.neg, "~": operator.invert, "not": operator.not_}
BINARY_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.floordiv, "<<": operator.lshift, ">>": operator.rshift,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "and": lambda left, right: bool(left) & bool(right),
    "or": lambda left, right: bool(left) | bool(right),
    "max": max, "min": min,
}


def operation(expr: ExprIR):
    """``(fn, operands)`` of a unary, binary or call node, whose value
    is ``fn(*operand values)`` wrapped to its width; None for a leaf."""
    if isinstance(expr, UnaryIR):
        return UNARY_OPS[expr.op], (expr.operand,)
    if isinstance(expr, BinaryIR):
        return BINARY_OPS[expr.op], (expr.left, expr.right)
    if isinstance(expr, CallIR):
        return BINARY_OPS[expr.func], expr.args
    return None


# -- statements ------------------------------------------------------------


@dataclass(frozen=True)
class StmtIR:
    pass


@dataclass(frozen=True)
class LetIR(StmtIR):
    name: str
    value: ExprIR


@dataclass(frozen=True)
class MemTagWrite(StmtIR):
    """Whole-tag write (``hi is None``) or a field-masked
    read-modify-write of one declared field."""

    address: ExprIR
    value: ExprIR
    hi: int | None = None
    lo: int | None = None


@dataclass(frozen=True)
class RegTagWrite(StmtIR):
    index: ExprIR
    value: ExprIR


@dataclass(frozen=True)
class TrapIR(StmtIR):
    kind: str
    condition: ExprIR
    address: ExprIR | None
    #: alternating literal text and (expression, format-spec) parts.
    template: tuple["str | tuple[ExprIR, str]", ...]


@dataclass(frozen=True)
class CyclesIR(StmtIR):
    value: ExprIR


# -- rules and the monitor -------------------------------------------------


@dataclass(frozen=True)
class RuleIR:
    """One compiled rule: which packets fire it and what it does."""

    classes: tuple[InstrClass, ...]  # empty for flex rules
    flex_opfs: tuple[int, ...]  # empty for class rules
    foreach_word: bool
    body: tuple[StmtIR, ...]


@dataclass(frozen=True)
class MonitorIR:
    """A fully checked monitor, ready for either backend."""

    name: str
    description: str
    register_tag_bits: int
    memory_tag_bits: int
    fields: dict[str, tuple[int, int]]  # name -> (hi, lo)
    init: tuple[tuple[str, int], ...]  # (section, tag value)
    forward_classes: frozenset[InstrClass]
    rules: tuple[RuleIR, ...]

    def class_rules(self) -> list[RuleIR]:
        return [r for r in self.rules if r.classes]

    def flex_rules(self) -> list[RuleIR]:
        return [r for r in self.rules if r.flex_opfs]
