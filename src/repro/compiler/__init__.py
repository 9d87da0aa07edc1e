"""Pass-manager compilation core, batch engine and the strategy set."""

from repro.compiler.batch import BatchCompiler, BatchJob, BatchReport
from repro.compiler.context import CompilationContext
from repro.compiler.manager import PassManager
from repro.compiler.passes import (
    AggregatePass,
    DetectDiagonalsPass,
    FinalSchedulePass,
    HandOptimizePass,
    LogicalSchedulePass,
    LowerPass,
    Pass,
    PlaceAndRoutePass,
)
from repro.compiler.pipeline import compile_circuit, compile_with_pipeline
from repro.compiler.result import CompilationResult
from repro.compiler.strategies import (
    AGGREGATION,
    CLS,
    CLS_AGGREGATION,
    CLS_HAND,
    ISA,
    Strategy,
    all_strategies,
    available_strategy_keys,
    default_pipeline,
    register_strategy,
    registered_strategies,
    strategy_by_key,
    unregister_strategy,
)

__all__ = [
    "AGGREGATION",
    "AggregatePass",
    "BatchCompiler",
    "BatchJob",
    "BatchReport",
    "CLS",
    "CLS_AGGREGATION",
    "CLS_HAND",
    "CompilationContext",
    "CompilationResult",
    "DetectDiagonalsPass",
    "FinalSchedulePass",
    "HandOptimizePass",
    "ISA",
    "LogicalSchedulePass",
    "LowerPass",
    "Pass",
    "PassManager",
    "PlaceAndRoutePass",
    "Strategy",
    "all_strategies",
    "available_strategy_keys",
    "compile_circuit",
    "compile_with_pipeline",
    "default_pipeline",
    "register_strategy",
    "registered_strategies",
    "strategy_by_key",
    "unregister_strategy",
]
