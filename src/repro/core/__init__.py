"""Leon3-like main core: functional executor and timing model."""

from repro.core.alu import (
    ALU_VALUE,
    CONDITIONS,
    AluResult,
    ConditionCodes,
    DivisionByZero,
    execute_alu,
)
from repro.core.executor import (
    CommitRecord,
    CpuState,
    SimulationError,
    evaluate_condition,
)
from repro.core.timing import CoreTiming, CoreTimingConfig, CoreTimingStats

__all__ = [
    "ALU_VALUE",
    "CONDITIONS",
    "AluResult",
    "CommitRecord",
    "ConditionCodes",
    "CoreTiming",
    "CoreTimingConfig",
    "CoreTimingStats",
    "CpuState",
    "DivisionByZero",
    "SimulationError",
    "evaluate_condition",
    "execute_alu",
]
