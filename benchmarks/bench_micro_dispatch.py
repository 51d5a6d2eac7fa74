"""Micro benchmark: per-instruction dispatch cost across engines.

The compile-to-closures engine exists to eliminate the tree walker's
per-instruction ``type()`` dispatch and recursive expression
evaluation.  This benchmark isolates exactly that cost with two kernels
the superblock fast path cannot absorb, so what is measured is the
engine's dispatch loop and nothing else:

* ``dispatch`` — a data-dependent branch inside the loop body (the
  classic fast-path decline shape): every iteration takes the
  per-instruction path under both engines;
* ``poison_churn`` — a malloc/free storm over mixed size classes:
  dominated by allocator + shadow poisoning, exercising the memoized
  ``object_codes`` tables and the redzone/quarantine shadow fills.

Results are written to ``benchmarks/results/bench_micro_dispatch.json``.
``--assert-speedup X`` exits non-zero unless the compiled engine beats
the tree walker by at least ``X``x on the dispatch kernel — the CI
smoke gate that keeps the compiled engine from silently regressing
into a slower curiosity.

Run directly::

    PYTHONPATH=src python benchmarks/bench_micro_dispatch.py
    PYTHONPATH=src python benchmarks/bench_micro_dispatch.py \
        --assert-speedup 1.3 --repeat 3
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR  # noqa: E402

OUTPUT = RESULTS_DIR / "bench_micro_dispatch.json"

ENGINES = ("tree", "compiled")

#: Iteration counts sized so each (kernel, engine) cell runs for a
#: fraction of a second at full scale — enough to dwarf compile and
#: session setup, small enough for a CI smoke leg.
DISPATCH_ITERATIONS = 40_000
CHURN_ROUNDS = 1_500


def _build_dispatch_kernel(iterations: int):
    """Branch-in-body loop: ineligible for superblock folding, so every
    iteration pays per-instruction dispatch under either engine."""
    from repro.ir.builder import ProgramBuilder

    builder = ProgramBuilder()
    with builder.function("main") as f:
        f.malloc("buf", 256)
        total = f.assign("total", 0)
        with f.loop("i", 0, iterations) as i:
            with f.if_(i % 3):
                f.store("buf", (i % 32) * 8, 8, i)
            with f.else_():
                loaded = f.load("x", "buf", (i % 32) * 8, 8)
                f.assign("total", total + loaded)
        f.free("buf")
        f.ret(total)
    return builder.build()


def _build_poison_churn_kernel(rounds: int):
    """Allocation storm over mixed size classes (the Table 2 churn
    shape): time goes to malloc/free shadow poisoning, not loop math."""
    from repro.ir.builder import ProgramBuilder

    builder = ProgramBuilder()
    sizes = [24, 64, 129, 1000, 4096]
    with builder.function("main") as f:
        with f.loop("r", 0, rounds):
            for index, size in enumerate(sizes):
                name = f"obj{index}"
                f.malloc(name, size)
                f.store(name, 0, 8, 1)
                f.store(name, size - 8, 8, 2)
                f.free(name)
        f.ret(0)
    return builder.build()


KERNELS = {
    "dispatch": lambda: _build_dispatch_kernel(DISPATCH_ITERATIONS),
    "poison_churn": lambda: _build_poison_churn_kernel(CHURN_ROUNDS),
}


def _time_cell(program, engine: str, repeat: int) -> dict:
    """Best-of-``repeat`` wall clock for one (kernel, engine) cell.

    The engine is picked by class, not by the session's rule, and the
    compiled cell compiles up front, so its runs execute closures from
    the entry call instead of tree-walking until they tier up.  A
    throwaway warm-up run pays one-time costs (closure compilation,
    instrumentation, folding tables) so the timed runs measure steady
    state for both engines symmetrically.
    """
    from repro.runtime import (
        CompiledEngine,
        ExecConfig,
        Interpreter,
        Session,
        compiler,
    )

    engine_class = {"tree": Interpreter, "compiled": CompiledEngine}[engine]
    config = ExecConfig()

    def once() -> float:
        session = Session("GiantSan", config)
        started = time.perf_counter()
        iprogram = session.instrument(program)
        runner = engine_class(session.sanitizer, fastpath=True)
        if engine_class is CompiledEngine:
            compiler.compile_program(iprogram.program, *runner.table_key())
        result = runner.run(iprogram)
        elapsed = time.perf_counter() - started
        assert not result.errors
        return elapsed

    once()
    timings = [once() for _ in range(repeat)]
    return {
        "seconds": round(min(timings), 4),
        "all_runs": [round(t, 4) for t in timings],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless compiled beats tree by at least Xx on the "
        "dispatch kernel",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timed runs per cell (best-of is reported)",
    )
    options = parser.parse_args(argv)

    results = {}
    for kernel_name, build in KERNELS.items():
        program = build()
        cells = {}
        for engine in ENGINES:
            cells[engine] = _time_cell(program, engine, options.repeat)
            print(
                f"{kernel_name:13s} {engine:9s} "
                f"{cells[engine]['seconds']:8.4f}s"
            )
        speedup = cells["tree"]["seconds"] / cells["compiled"]["seconds"]
        cells["speedup_compiled_vs_tree"] = round(speedup, 2)
        results[kernel_name] = cells
        print(f"{kernel_name:13s} speedup   {speedup:7.2f}x")

    payload = {
        "benchmark": "micro-dispatch",
        "python": sys.version.split()[0],
        "dispatch_iterations": DISPATCH_ITERATIONS,
        "churn_rounds": CHURN_ROUNDS,
        "kernels": results,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUTPUT.relative_to(OUTPUT.parent.parent.parent)}")

    if options.assert_speedup is not None:
        achieved = results["dispatch"]["speedup_compiled_vs_tree"]
        if achieved < options.assert_speedup:
            print(
                f"FAIL: compiled engine {achieved:.2f}x < required "
                f"{options.assert_speedup:.2f}x on dispatch kernel",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: compiled engine {achieved:.2f}x >= "
            f"{options.assert_speedup:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
