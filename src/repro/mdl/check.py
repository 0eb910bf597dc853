"""Semantic checker: untyped AST -> typed :mod:`repro.mdl.ir`.

All diagnostics are collected (not fail-fast) so one compile reports
every problem.  The checks:

* unknown meta attribute / field / identifier / instruction class /
  flex opf — each with a did-you-mean hint;
* width mismatches — a constant that cannot fit the tag it is
  assigned to, a wide expression assigned to a narrow tag without an
  explicit mask, a comparison whose constant side can never match;
* unreachable rules — a trap whose condition constant-folds to false,
  or a rule on an instruction class the explicit ``forward`` block
  never forwards;
* context misuse — ``word``/``words`` outside ``foreach word``,
  ``flexaddr`` outside a ``flex`` rule, ``mem[]``/``reg[]`` on a
  monitor that declares no such meta-data;
* a ``cycles`` value that reads anything but constants and ``words``
  (the initiation interval is fixed per datapath).

Width semantics are the fabric's: arithmetic wraps at the operand
width (``max`` of the two sides, capped at 32), ``&`` with a constant
narrows to the mask's width, comparisons and boolean operators are
1 bit wide.
"""

from __future__ import annotations

from repro.isa.opcodes import (
    FlexOpf,
    InstrClass,
    LOAD_CLASSES,
    STORE_CLASSES,
)
from repro.mdl import ast, ir
from repro.mdl.diagnostics import DiagnosticSink, MdlError, suggest
from repro.mdl.parser import parse_embedded_expr

_ALLOWED_META = ("register_tag_bits", "memory_tag_bits")
_MEMORY_TAG_WIDTHS = (1, 2, 4, 8)
_INIT_SECTIONS = ("text", "data")

#: Instruction-class selector names (lowercase), reserved slots
#: excluded — a rule on a reserved class could never fire.
_CLASS_NAMES = {
    cls.name.lower(): cls
    for cls in InstrClass
    if not cls.name.startswith("RESERVED")
}

_FLEX_OPF_NAMES = {opf.name: opf for opf in FlexOpf}

#: Everything a bare identifier may resolve to, for suggestions.
_IDENT_NAMESPACE = (
    tuple(ir.PACKET_FIELDS) + tuple(ir.STATE_FIELDS)
    + tuple(ir.CONTEXT_FIELDS)
)

_POISON = ir.Const(width=1, value=0)


class _RuleContext:
    """Where an expression appears: which context variables exist and
    which locals are in scope."""

    def __init__(self, foreach: bool, is_flex: bool):
        self.foreach = foreach
        self.is_flex = is_flex
        self.locals: dict[str, int] = {}


class Checker:
    def __init__(self, spec: ast.Spec, source: str | None = None):
        self.spec = spec
        self.source = source
        self.sink = DiagnosticSink()
        self.register_tag_bits = 0
        self.memory_tag_bits = 0
        self.fields: dict[str, tuple[int, int]] = {}

    # -- entry point ------------------------------------------------------

    def check(self) -> ir.MonitorIR:
        self._check_meta()
        self._check_fields()
        init = self._check_init()
        rules, rule_classes, has_flex = self._check_rules()
        forward = self._check_forward(rule_classes, has_flex)
        self.sink.raise_if_errors(self.source)
        return ir.MonitorIR(
            name=self.spec.name,
            description=self.spec.description,
            register_tag_bits=self.register_tag_bits,
            memory_tag_bits=self.memory_tag_bits,
            fields=dict(self.fields),
            init=init,
            forward_classes=forward,
            rules=tuple(rules),
        )

    # -- declaration blocks -----------------------------------------------

    def _check_meta(self) -> None:
        seen: set[str] = set()
        for item in self.spec.meta:
            if item.name not in _ALLOWED_META:
                self.sink.error(
                    item.location,
                    f"unknown meta attribute '{item.name}'",
                    suggest(item.name, _ALLOWED_META))
                continue
            if item.name in seen:
                self.sink.error(item.location,
                                f"duplicate meta attribute '{item.name}'")
                continue
            seen.add(item.name)
            if item.name == "register_tag_bits":
                if not 0 <= item.value <= 8:
                    self.sink.error(
                        item.location,
                        f"register_tag_bits must be 0..8, "
                        f"got {item.value}")
                else:
                    self.register_tag_bits = item.value
            else:
                if item.value and item.value not in _MEMORY_TAG_WIDTHS:
                    self.sink.error(
                        item.location,
                        f"memory_tag_bits must be 0, 1, 2, 4 or 8 "
                        f"(tags must pack into a byte), "
                        f"got {item.value}")
                else:
                    self.memory_tag_bits = item.value

    def _check_fields(self) -> None:
        for decl in self.spec.fields:
            if not self.memory_tag_bits:
                self.sink.error(
                    decl.location,
                    "fields require memory tags; set memory_tag_bits "
                    "in the meta block first")
                return
            if decl.name in self.fields:
                self.sink.error(decl.location,
                                f"duplicate field '{decl.name}'")
                continue
            if decl.lo < 0 or decl.hi < decl.lo:
                self.sink.error(
                    decl.location,
                    f"field '{decl.name}' has an empty bit range "
                    f"{decl.hi}:{decl.lo}")
                continue
            if decl.hi >= self.memory_tag_bits:
                self.sink.error(
                    decl.location,
                    f"field '{decl.name}' (bits {decl.hi}:{decl.lo}) "
                    f"does not fit in a {self.memory_tag_bits}-bit "
                    f"memory tag")
                continue
            self.fields[decl.name] = (decl.hi, decl.lo)

    def _check_init(self) -> tuple[tuple[str, int], ...]:
        out: list[tuple[str, int]] = []
        seen: set[str] = set()
        for item in self.spec.init:
            if item.section not in _INIT_SECTIONS:
                self.sink.error(
                    item.location,
                    f"unknown init section '{item.section}'",
                    suggest(item.section, _INIT_SECTIONS))
                continue
            if item.section in seen:
                self.sink.error(
                    item.location,
                    f"duplicate init section '{item.section}'")
                continue
            seen.add(item.section)
            if not self.memory_tag_bits:
                self.sink.error(
                    item.location,
                    "init tags require memory tags; set "
                    "memory_tag_bits in the meta block")
                continue
            if item.value >= (1 << self.memory_tag_bits):
                self.sink.error(
                    item.location,
                    f"init value {item.value} does not fit in a "
                    f"{self.memory_tag_bits}-bit memory tag")
                continue
            out.append((item.section, item.value))
        return tuple(out)

    # -- rule headers -----------------------------------------------------

    def _resolve_class_selector(
        self, selector: ast.Selector
    ) -> tuple[InstrClass, ...]:
        if selector.kind == "load":
            return tuple(sorted(LOAD_CLASSES))
        if selector.kind == "store":
            return tuple(sorted(STORE_CLASSES))
        cls = _CLASS_NAMES.get(selector.name.lower())
        if cls is None:
            self.sink.error(
                selector.location,
                f"unknown instruction class '{selector.name}'",
                suggest(selector.name.lower(),
                        list(_CLASS_NAMES) + ["load", "store"]))
            return ()
        return (cls,)

    def _resolve_flex_selector(
        self, selector: ast.Selector
    ) -> tuple[int, ...]:
        if not selector.name:
            self.sink.error(
                selector.location,
                "a flex rule must name the opf it handles "
                "(e.g. 'on flex TAG_SET_MEM')")
            return ()
        opf = _FLEX_OPF_NAMES.get(selector.name.upper())
        if opf is None:
            self.sink.error(
                selector.location,
                f"unknown flex opf '{selector.name}'",
                suggest(selector.name.upper(), _FLEX_OPF_NAMES))
            return ()
        return (int(opf),)

    def _check_rules(self):
        rules: list[ir.RuleIR] = []
        rule_classes: set[InstrClass] = set()
        has_flex = False
        for rule in self.spec.rules:
            kinds = {s.kind for s in rule.selectors}
            if "flex" in kinds and kinds != {"flex"}:
                self.sink.error(
                    rule.location,
                    "a rule cannot mix flex opf selectors with "
                    "instruction-class selectors")
                continue
            if "flex" in kinds:
                has_flex = True
                opfs: list[int] = []
                for selector in rule.selectors:
                    opfs.extend(self._resolve_flex_selector(selector))
                if rule.foreach_word:
                    self.sink.error(
                        rule.location,
                        "'foreach word' only applies to load/store "
                        "rules")
                    continue
                ctx = _RuleContext(foreach=False, is_flex=True)
                body = self._check_body(rule, ctx)
                rules.append(ir.RuleIR((), tuple(opfs), False, body))
                continue
            classes: list[InstrClass] = []
            for selector in rule.selectors:
                classes.extend(self._resolve_class_selector(selector))
            if rule.foreach_word and not all(
                cls in LOAD_CLASSES or cls in STORE_CLASSES
                for cls in classes
            ):
                self.sink.error(
                    rule.location,
                    "'foreach word' only applies to load/store rules")
                continue
            ctx = _RuleContext(foreach=rule.foreach_word,
                               is_flex=False)
            body = self._check_body(rule, ctx)
            rule_classes.update(classes)
            rules.append(
                ir.RuleIR(tuple(classes), (), rule.foreach_word, body))
        return rules, rule_classes, has_flex

    def _check_forward(
        self, rule_classes: set[InstrClass], has_flex: bool
    ) -> frozenset[InstrClass]:
        if self.spec.forward is None:
            # Derived policy: forward exactly what some rule reads,
            # plus FLEX — co-processor instructions are how software
            # programs any monitor (set base/policy/tagval).
            return frozenset(rule_classes | {InstrClass.FLEX})
        explicit: set[InstrClass] = set()
        for selector in self.spec.forward:
            if selector.kind == "flex":
                explicit.add(InstrClass.FLEX)
            else:
                explicit.update(self._resolve_class_selector(selector))
        for rule in self.spec.rules:
            for selector in rule.selectors:
                if selector.kind == "flex":
                    if InstrClass.FLEX not in explicit:
                        self.sink.error(
                            selector.location,
                            "unreachable rule: flex packets are not "
                            "in the forward block")
                    continue
                for cls in self._resolve_class_selector(selector):
                    if cls not in explicit:
                        self.sink.error(
                            selector.location,
                            f"unreachable rule: class "
                            f"'{cls.name.lower()}' is not in the "
                            f"forward block")
        return frozenset(explicit)

    # -- statements -------------------------------------------------------

    def _check_body(
        self, rule: ast.Rule, ctx: _RuleContext
    ) -> tuple[ir.StmtIR, ...]:
        out: list[ir.StmtIR] = []
        for stmt in rule.body:
            checked = self._check_stmt(stmt, ctx)
            if checked is not None:
                out.append(checked)
        return tuple(out)

    def _check_stmt(
        self, stmt: ast.Stmt, ctx: _RuleContext
    ) -> ir.StmtIR | None:
        if isinstance(stmt, ast.Let):
            if (stmt.name in ctx.locals
                    or stmt.name in _IDENT_NAMESPACE):
                what = ("a built-in name"
                        if stmt.name in _IDENT_NAMESPACE
                        else "already bound")
                self.sink.error(stmt.location,
                                f"'{stmt.name}' is {what}")
                return None
            value = self._check_expr(stmt.value, ctx)
            ctx.locals[stmt.name] = value.width
            return ir.LetIR(stmt.name, value)
        if isinstance(stmt, ast.Assign):
            return self._check_assign(stmt, ctx)
        if isinstance(stmt, ast.Trap):
            return self._check_trap(stmt, ctx)
        if isinstance(stmt, ast.Cycles):
            value = self._check_expr(stmt.value, ctx)
            if not _reads_only_words(value):
                self.sink.error(
                    stmt.value.location,
                    "'cycles' may read only constants and 'words': "
                    "the initiation interval is fixed per datapath")
            return ir.CyclesIR(value)
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _check_value_fits(self, value: ir.ExprIR, width: int,
                          location, what: str) -> None:
        if isinstance(value, ir.Const):
            if value.value >= (1 << width):
                self.sink.error(
                    location,
                    f"width mismatch: constant {value.value:#x} does "
                    f"not fit in {what} ({width} bit"
                    f"{'s' if width != 1 else ''})")
        elif value.width > width:
            self.sink.error(
                location,
                f"width mismatch: a {value.width}-bit value assigned "
                f"to {what} ({width} bit"
                f"{'s' if width != 1 else ''}); mask it explicitly "
                f"(e.g. '& {(1 << width) - 1:#x}')")

    def _check_assign(
        self, stmt: ast.Assign, ctx: _RuleContext
    ) -> ir.StmtIR | None:
        value = self._check_expr(stmt.value, ctx)
        target = stmt.target
        if isinstance(target, ast.MemRef):
            if not self._require_mem(target.location):
                return None
            address = self._check_expr(target.address, ctx)
            if target.field_name is None:
                self._check_value_fits(
                    value, self.memory_tag_bits, stmt.location,
                    "the memory tag")
                return ir.MemTagWrite(address, value)
            span = self._lookup_field(target.field_name,
                                      target.field_location)
            if span is None:
                return None
            hi, lo = span
            self._check_value_fits(
                value, hi - lo + 1, stmt.location,
                f"field '{target.field_name}'")
            return ir.MemTagWrite(address, value, hi, lo)
        if isinstance(target, ast.RegRef):
            if not self._require_reg(target.location):
                return None
            index = self._check_expr(target.index, ctx)
            self._check_value_fits(
                value, self.register_tag_bits, stmt.location,
                "the register tag")
            return ir.RegTagWrite(index, value)
        self.sink.error(stmt.location,
                        "only mem[...] and reg[...] can be assigned")
        return None

    def _check_trap(
        self, stmt: ast.Trap, ctx: _RuleContext
    ) -> ir.StmtIR | None:
        condition = self._check_expr(stmt.condition, ctx)
        folded = _fold(condition)
        if folded == 0:
            self.sink.error(
                stmt.location,
                f"unreachable trap '{stmt.kind}': its condition is "
                f"always false")
            return None
        address = (self._check_expr(stmt.address, ctx)
                   if stmt.address is not None else None)
        template = self._check_template(stmt, ctx)
        return ir.TrapIR(stmt.kind, condition, address, template)

    def _check_template(
        self, stmt: ast.Trap, ctx: _RuleContext
    ) -> tuple:
        parts: list = []
        text = stmt.template
        pos = 0
        while pos < len(text):
            brace = text.find("{", pos)
            if brace < 0:
                parts.append(text[pos:])
                break
            if text.startswith("{{", brace):
                parts.append(text[pos:brace] + "{")
                pos = brace + 2
                continue
            if brace > pos:
                parts.append(text[pos:brace])
            close = text.find("}", brace)
            if close < 0:
                self.sink.error(
                    stmt.template_location,
                    "unterminated '{' in the trap message template")
                return tuple(parts)
            inner = text[brace + 1:close]
            expr_text, _, fmt = inner.partition(":")
            try:
                format(0, fmt)
            except ValueError:
                self.sink.error(
                    stmt.template_location,
                    f"bad format spec '{fmt}' in the trap message "
                    f"template")
                pos = close + 1
                continue
            try:
                embedded = parse_embedded_expr(
                    expr_text, stmt.template_location.filename,
                    stmt.template_location)
            except MdlError as err:
                self.sink.diagnostics.extend(err.diagnostics)
                pos = close + 1
                continue
            parts.append((self._check_expr(embedded, ctx), fmt))
            pos = close + 1
        return tuple(parts)

    # -- expressions ------------------------------------------------------

    def _require_mem(self, location) -> bool:
        if self.memory_tag_bits:
            return True
        self.sink.error(
            location,
            "this monitor declares no memory tags; set "
            "memory_tag_bits in the meta block to use mem[...]")
        return False

    def _require_reg(self, location) -> bool:
        if self.register_tag_bits:
            return True
        self.sink.error(
            location,
            "this monitor declares no register tags; set "
            "register_tag_bits in the meta block to use reg[...]")
        return False

    def _lookup_field(self, name: str,
                      location) -> tuple[int, int] | None:
        span = self.fields.get(name)
        if span is None:
            self.sink.error(
                location,
                f"unknown field '{name}' on a "
                f"{self.memory_tag_bits}-bit tag",
                suggest(name, self.fields))
            return None
        return span

    def _check_expr(self, expr: ast.Expr,
                    ctx: _RuleContext) -> ir.ExprIR:
        if isinstance(expr, ast.Number):
            return ir.Const(
                width=ir.clamp_width(expr.value.bit_length()),
                value=expr.value)
        if isinstance(expr, ast.Name):
            return self._check_name(expr, ctx)
        if isinstance(expr, ast.MemRef):
            if not self._require_mem(expr.location):
                return _POISON
            address = self._check_expr(expr.address, ctx)
            if expr.field_name is None:
                return ir.MemTagRead(width=self.memory_tag_bits,
                                     address=address)
            span = self._lookup_field(expr.field_name,
                                      expr.field_location)
            if span is None:
                return _POISON
            hi, lo = span
            return ir.MemTagRead(width=hi - lo + 1, address=address,
                                 hi=hi, lo=lo)
        if isinstance(expr, ast.RegRef):
            if not self._require_reg(expr.location):
                return _POISON
            index = self._check_expr(expr.index, ctx)
            return ir.RegTagRead(width=self.register_tag_bits,
                                 index=index)
        if isinstance(expr, ast.FieldAccess):
            base = self._check_expr(expr.base, ctx)
            span = self._lookup_field(expr.field_name, expr.location)
            if span is None:
                return _POISON
            hi, lo = span
            if hi >= base.width:
                self.sink.error(
                    expr.location,
                    f"field '{expr.field_name}' (bits {hi}:{lo}) "
                    f"does not fit in a {base.width}-bit value")
                return _POISON
            width = hi - lo + 1
            shifted = base if lo == 0 else ir.BinaryIR(
                width=base.width, op=">>", left=base,
                right=ir.Const(width=ir.clamp_width(lo.bit_length()),
                               value=lo))
            mask = (1 << width) - 1
            return ir.BinaryIR(
                width=width, op="&", left=shifted,
                right=ir.Const(width=width, value=mask))
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr, ctx)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, ctx)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, ctx)
        raise AssertionError(f"unhandled expression {expr!r}")

    def _check_name(self, expr: ast.Name,
                    ctx: _RuleContext) -> ir.ExprIR:
        name = expr.ident
        if name in ctx.locals:
            return ir.LocalVar(width=ctx.locals[name], name=name)
        if name in ir.PACKET_FIELDS:
            attr, width = ir.PACKET_FIELDS[name]
            return ir.PacketField(width=width, attr=attr)
        if name in ir.STATE_FIELDS:
            return ir.StateField(width=ir.STATE_FIELDS[name],
                                 name=name)
        if name in ir.CONTEXT_FIELDS:
            if name in ("word", "words") and not ctx.foreach:
                self.sink.error(
                    expr.location,
                    f"'{name}' only exists inside a "
                    f"'foreach word' rule")
                return _POISON
            if name == "flexaddr" and not ctx.is_flex:
                self.sink.error(
                    expr.location,
                    "'flexaddr' only exists inside a flex rule")
                return _POISON
            return ir.ContextVar(width=ir.CONTEXT_FIELDS[name],
                                 name=name)
        self.sink.error(
            expr.location, f"unknown identifier '{name}'",
            suggest(name, list(ctx.locals) + list(_IDENT_NAMESPACE)))
        return _POISON

    def _check_unary(self, expr: ast.Unary,
                     ctx: _RuleContext) -> ir.ExprIR:
        operand = self._check_expr(expr.operand, ctx)
        width = 1 if expr.op == "not" else operand.width
        return ir.UnaryIR(width=width, op=expr.op, operand=operand)

    def _check_binary(self, expr: ast.Binary,
                      ctx: _RuleContext) -> ir.ExprIR:
        left = self._check_expr(expr.left, ctx)
        right = self._check_expr(expr.right, ctx)
        op = expr.op
        if op in ("and", "or"):
            return ir.BinaryIR(width=1, op=op, left=left, right=right)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            for const, other, side in ((left, right, "left"),
                                       (right, left, "right")):
                if (isinstance(const, ir.Const)
                        and not isinstance(other, ir.Const)
                        and const.value >= (1 << other.width)):
                    outcome = ("true" if op == "!=" else "false")
                    self.sink.error(
                        expr.location,
                        f"width mismatch: constant {const.value:#x} "
                        f"never fits in the {other.width}-bit other "
                        f"side, so this comparison is always "
                        f"{outcome}")
            return ir.BinaryIR(width=1, op=op, left=left, right=right)
        if op in ("+", "-"):
            width = ir.clamp_width(max(left.width, right.width))
        elif op == "*":
            width = ir.clamp_width(left.width + right.width)
        elif op == "/":
            folded = _fold(right)
            if folded is None or folded <= 0 or folded & (folded - 1):
                self.sink.error(
                    expr.location,
                    "'/' is only synthesizable with a constant "
                    "power-of-two divisor")
                return _POISON
            width = left.width
        elif op == "<<":
            folded = _fold(right)
            if folded is not None:
                width = ir.clamp_width(left.width + folded)
            else:
                width = ir.MAX_WIDTH
        elif op == ">>":
            width = left.width
        elif op == "&":
            width = min(left.width, right.width)
            for side in (left, right):
                if isinstance(side, ir.Const):
                    width = min(
                        width,
                        ir.clamp_width(side.value.bit_length()))
        elif op in ("|", "^"):
            width = max(left.width, right.width)
        else:
            raise AssertionError(f"unhandled operator {op!r}")
        return ir.BinaryIR(width=width, op=op, left=left, right=right)

    def _check_call(self, expr: ast.Call,
                    ctx: _RuleContext) -> ir.ExprIR:
        if expr.func not in ("max", "min"):
            self.sink.error(
                expr.location, f"unknown function '{expr.func}'",
                suggest(expr.func, ("max", "min")))
            return _POISON
        if len(expr.args) != 2:
            self.sink.error(
                expr.location,
                f"'{expr.func}' takes exactly two arguments")
            return _POISON
        args = tuple(self._check_expr(a, ctx) for a in expr.args)
        return ir.CallIR(width=max(a.width for a in args),
                         func=expr.func, args=args)


def _reads_only_words(expr: ir.ExprIR) -> bool:
    """True when ``expr`` reads nothing but constants and ``words``."""
    if isinstance(expr, ir.ContextVar):
        return expr.name == "words"
    operation = ir.operation(expr)
    if operation is not None:
        return all(map(_reads_only_words, operation[1]))
    return isinstance(expr, ir.Const)


def _fold(expr: ir.ExprIR) -> int | None:
    """Constant-fold an IR expression; None if it depends on runtime
    state.  Uses the interpreter's operator tables and wrap-at-width
    semantics, so 'always false' judgements are exact."""
    mask = (1 << expr.width) - 1
    if isinstance(expr, ir.Const):
        return expr.value & mask
    operation = ir.operation(expr)
    if operation is None:
        return None
    fn, operands = operation
    values = [_fold(operand) for operand in operands]
    if None in values:
        return None
    return fn(*values) & mask


def check_spec(spec: ast.Spec,
               source: str | None = None) -> ir.MonitorIR:
    """Validate a parsed spec; raises :class:`MdlError` with every
    collected diagnostic on failure."""
    return Checker(spec, source).check()
