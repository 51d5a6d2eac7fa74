"""GiantSan reproduction: memory sanitization with segment folding.

Reproduces *GiantSan: Efficient Memory Sanitization with Segment Folding*
(Ling et al., ASPLOS 2024) as a pure-Python system: a simulated process
memory, the folded shadow encoding, the O(1) region check, history
caching, the operation-level instrumentation pipeline, the baselines
(ASan, ASan--, LFP), and the full evaluation harness.

Quickstart::

    from repro import Session, ProgramBuilder, V

    b = ProgramBuilder()
    with b.function("main") as f:
        f.malloc("buf", 100)
        with f.loop("i", 0, 25) as i:
            f.store("buf", i * 4, 4, i)
        f.load("oops", "buf", 100, 4)        # heap overflow
        f.free("buf")
    result = Session("GiantSan").run(b.build())
    print(result.errors.reports)
"""

from .errors import (
    AccessType,
    ErrorKind,
    ErrorLog,
    ErrorReport,
    SanitizerError,
)
from .ir import C, ProgramBuilder, Program, V, format_program
from .memory import ArenaLayout
from .passes import (
    FoldedProgram,
    InstrumentedProgram,
    fold_program,
    instrument,
)
from .runtime import (
    CostModel,
    DEFAULT_COST_MODEL,
    ExecConfig,
    RunResult,
    Session,
    geometric_mean,
    run_with_tools,
)
from .sanitizers import (
    ASan,
    ASanMinusMinus,
    GiantSan,
    LFP,
    NativeSanitizer,
    SANITIZER_FACTORIES,
)
from .reporting import format_all_reports, format_report
from .trace import Tracer

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "ArenaLayout",
    "ASan",
    "ASanMinusMinus",
    "C",
    "ExecConfig",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ErrorKind",
    "ErrorLog",
    "ErrorReport",
    "FoldedProgram",
    "GiantSan",
    "InstrumentedProgram",
    "LFP",
    "NativeSanitizer",
    "Program",
    "ProgramBuilder",
    "RunResult",
    "SANITIZER_FACTORIES",
    "SanitizerError",
    "Session",
    "Tracer",
    "V",
    "format_all_reports",
    "format_report",
    "fold_program",
    "format_program",
    "geometric_mean",
    "instrument",
    "run_with_tools",
]
