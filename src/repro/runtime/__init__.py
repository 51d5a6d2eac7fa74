"""Execution runtime: interpreter, intrinsics, cost model, sessions."""

from .cost_model import (
    CostModel,
    DEFAULT_COST_MODEL,
    NativeCosts,
    SanitizerCosts,
    geometric_mean,
)
from .compiler import (
    CompiledEngine,
    compile_function,
    compile_program,
    resolve_engine,
)
from .fastpath import LoopPlan, analyze_loop
from .interpreter import BudgetExceeded, Interpreter, RunResult
from .session import ExecConfig, Session, run_with_tools

__all__ = [
    "CompiledEngine",
    "compile_function",
    "compile_program",
    "resolve_engine",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "NativeCosts",
    "SanitizerCosts",
    "geometric_mean",
    "LoopPlan",
    "analyze_loop",
    "BudgetExceeded",
    "Interpreter",
    "RunResult",
    "ExecConfig",
    "Session",
    "run_with_tools",
]
