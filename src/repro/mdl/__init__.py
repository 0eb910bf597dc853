"""MDL — the monitor description language and its compiler.

The paper's headline claim is *flexibility*: FlexCore monitors are
fabric programs, not frozen RTL.  This package makes that claim
reproducible.  A monitor is written as a small declarative spec
(meta-data layout, per-instruction-class rules, trap conditions,
software-visible flex ops); one compiler front end checks it into a
typed rule IR, and two backends consume the *same* IR:

* :mod:`repro.mdl.behavioral` compiles it into a
  :class:`~repro.extensions.base.MonitorExtension` whose fabric ops
  run on the simulator like a hand-written monitor's (``repro
  run/trace/inject``, checkpointable);
* :mod:`repro.mdl.hardware` lowers it to
  :class:`~repro.fabric.logic.LogicNetwork` primitives plus the
  derived CFGR forwarding policy, feeding the Table-III area, power
  and frequency models.

``specs/`` ships ``umc.mdl`` and ``bc.mdl`` — the paper's UMC and BC
prototypes re-expressed in MDL.  The test suite differential-tests
them against the hand-written classes: identical traps and identical
RunResult digests on every paper workload, LUT counts within 15%.

Typical use::

    from repro.mdl import load_spec
    program = load_spec("examples/redzone.mdl")
    extension = program.create()          # a MonitorExtension
    network = program.hardware()          # a LogicNetwork

or from the CLI: ``python -m repro compile examples/redzone.mdl
--table3`` / ``python -m repro run --mdl examples/redzone.mdl
--extension redzone ...``.
"""

from __future__ import annotations

from pathlib import Path

from repro.mdl.ast import Spec
from repro.mdl.behavioral import CompiledMonitor, MonitorProgram
from repro.mdl.check import check_spec
from repro.mdl.diagnostics import Diagnostic, MdlError, SourceLocation
from repro.mdl.hardware import derive_forward_config, lower_network
from repro.mdl.ir import MonitorIR
from repro.mdl.parser import parse_spec

#: Directory holding the specs this repository ships (the paper's
#: prototypes re-expressed in MDL).
SHIPPED_SPEC_DIR = Path(__file__).resolve().parent / "specs"


def compile_spec(source: str,
                 filename: str = "<spec>") -> MonitorProgram:
    """Compile spec text end-to-end: parse, check, build the program.

    Raises :class:`MdlError` carrying every diagnostic on failure.
    """
    spec = parse_spec(source, filename)
    monitor_ir = check_spec(spec, source)
    return MonitorProgram(monitor_ir, source=source,
                          filename=filename)


def load_spec(path) -> MonitorProgram:
    """Compile a spec file from disk."""
    path = Path(path)
    return compile_spec(path.read_text(), filename=str(path))


def shipped_specs() -> dict[str, Path]:
    """Name -> path of every spec shipped under ``specs/``."""
    return {
        spec_path.stem: spec_path
        for spec_path in sorted(SHIPPED_SPEC_DIR.glob("*.mdl"))
    }


def register_program(program: MonitorProgram, *,
                     replace: bool = False) -> str:
    """Make a compiled monitor available to
    :func:`repro.extensions.create_extension` (and so to every CLI
    command and campaign) under its spec name."""
    from repro.extensions.registry import register_extension

    register_extension(program.name, program.create, replace=replace)
    return program.name


__all__ = [
    "CompiledMonitor",
    "Diagnostic",
    "MdlError",
    "MonitorIR",
    "MonitorProgram",
    "SHIPPED_SPEC_DIR",
    "SourceLocation",
    "Spec",
    "check_spec",
    "compile_spec",
    "derive_forward_config",
    "load_spec",
    "lower_network",
    "parse_spec",
    "register_program",
    "shipped_specs",
]
