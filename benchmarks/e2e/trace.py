"""Outside-in tracer for the end-to-end benchmark.

The tracer wraps public functions of ``repro`` modules from the
benchmark's side (plain attribute patching), so nothing under ``src/``
changes.  Every wrapped call pushes a frame on one stack; when it returns,
its duration is charged to the caller's child time and its *self* time
(duration minus the time its wrapped callees took) is added to its name.
Self times therefore sum to the root span's duration by construction;
the root's own self time is the part of the pass no wrapper attributed.

Coarse boundaries (the pass, each study call, ``instrument``, each
``Pass.run``, ``compute_summaries``, ``compile_program``, engine ``run``,
sanitizer construction) are also kept as full spans
``{name, start, end, parent}``.  Per-access functions (checks, folds,
shadow and heap operations, ``try_execute``) are only aggregated into
``(calls, self time)`` per name, so a pass with ~600k checks stays
bounded in memory.

``calls`` counts outermost entries: a wrapped function called directly
from another function wrapped under the same name (``GiantSan.__init__``
calling ``Sanitizer.__init__``) counts once.

The wrappers keep one stack, so trace one thread only.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name aggregates for one traced process."""

    def __init__(self) -> None:
        #: frames: [start, child_time, name, span_index]
        self.stack: List[list] = []
        #: name -> [calls, self_s, true_returns]
        self.stats: Dict[str, list] = {}
        #: [name, start, end, parent_span_index]
        self.spans: List[list] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def _enter(self, name: str, span: bool) -> list:
        outer = self.stack[-1] if self.stack else None
        index = outer[3] if outer is not None else -1
        if span:
            self.spans.append([name, 0.0, 0.0, index])
            index = len(self.spans) - 1
        frame = [_clock(), 0.0, name, index]
        self.stack.append(frame)
        return frame

    def wrap(
        self,
        fn: Callable,
        name: str,
        span: bool = False,
        count_true: bool = False,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped so its calls are charged to ``name``.

        ``count_true`` also counts calls that returned True;
        ``observe(result)`` sees every returned value.
        """
        stack, spans = self.stack, self.spans
        record = self.stats.setdefault(name, [0, 0.0, 0])
        enter = self._enter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - frame[0]
                record[1] += elapsed - frame[1]
                if stack:
                    outer = stack[-1]
                    outer[1] += elapsed
                    if outer[2] != name:
                        record[0] += 1
                else:
                    record[0] += 1
                if count_true and result is True:
                    record[2] += 1
                if span:
                    spans[frame[3]][1] = frame[0]
                    spans[frame[3]][2] = end
                if observe is not None and result is not None:
                    observe(result)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block, such as the root ``pass`` span."""
        frame = self._enter(name, True)
        record = self.stats.setdefault(name, [0, 0.0, 0])
        try:
            yield
        finally:
            end = _clock()
            self.stack.pop()
            elapsed = end - frame[0]
            record[0] += 1
            record[1] += elapsed - frame[1]
            if self.stack:
                self.stack[-1][1] += elapsed
            self.spans[frame[3]][1] = frame[0]
            self.spans[frame[3]][2] = end

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a wrapper; undone by uninstall()."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, **options))
            self._patches.append((setattr, owner, attr, original))
        else:
            # object.__setattr__ also reaches frozen dataclass instances
            # (SpecProgram) as well as modules
            original = getattr(owner, attr)
            object.__setattr__(
                owner, attr, self.wrap(original, name, **options)
            )
            self._patches.append((object.__setattr__, owner, attr, original))

    def patch_item(self, mapping: dict, key: str, name: str, **options) -> None:
        """Replace ``mapping[key]`` (a namespace dict) with a wrapper."""
        original = mapping[key]
        mapping[key] = self.wrap(original, name, **options)
        self._patches.append((dict.__setitem__, mapping, key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            setter, owner, attr, original = self._patches.pop()
            setter(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0])[0]

    def total_self_s(self) -> float:
        return sum(record[1] for record in self.stats.values())

    def spans_as_dicts(self, origin: float) -> List[dict]:
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]

    def aggregates(self) -> Dict[str, dict]:
        return {
            name: {"calls": calls, "self_s": self_s, "true_returns": true}
            for name, (calls, self_s, true) in sorted(self.stats.items())
        }


def _subclasses(cls) -> list:
    """``cls`` and every subclass imported so far, parents first."""
    found = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in found:
                found.append(item)
    return found


def _patch_own(tracer: Tracer, classes, attrs, name: str, **options) -> None:
    """Wrap each attr a class defines itself (not inherited ones)."""
    for cls in classes:
        for attr in attrs:
            if attr in cls.__dict__:
                tracer.patch(cls, attr, name, **options)


def install(tracer: Tracer, observe_run: Optional[Callable] = None) -> None:
    """Install the benchmark's wrap list over the ``repro`` modules.

    ``observe_run(result)`` sees every RunResult the engine returns.
    """
    from repro.analysis import detection, overhead
    from repro.dataflow import interproc, summaries
    from repro.errors import ErrorLog
    from repro.fuzz import driver
    from repro.fuzz.invariants import ShadowInvariantChecker
    from repro.memory import address_space, allocator, quarantine
    from repro.passes.base import Pass
    from repro.runtime import compiler, fastpath, interpreter, session
    from repro.sanitizers.base import Sanitizer
    from repro.shadow.shadow_memory import ShadowMemory
    from repro.workloads import juliet
    from repro.workloads.spec import SPEC_TABLE2_ROWS

    import repro.dataflow

    # workloads: program and corpus construction.  SpecProgram is frozen,
    # so its per-instance ``build`` is replaced with object.__setattr__.
    # The fuzz driver calls generate_case/build_case through its own
    # names.
    for spec in SPEC_TABLE2_ROWS:
        tracer.patch(spec, "build", "workloads.build")
    tracer.patch(juliet, "generate_juliet_suite", "workloads.build")
    tracer.patch(driver, "generate_case", "workloads.build")
    tracer.patch(driver, "build_case", "workloads.build")

    # study calls
    tracer.patch(overhead, "run_overhead_study", "study", span=True)
    for study in ("run_juliet_study", "run_linux_flaw_study",
                  "run_magma_study"):
        tracer.patch(detection, study, "study", span=True)
    tracer.patch(driver, "fuzz_span", "study", span=True)
    tracer.patch(driver, "run_case", "fuzz.case")

    # passes: ``repro.passes.instrument`` the attribute is the function,
    # so the module comes from sys.modules; the session module holds its
    # own binding (memoize=False calls it directly).
    tracer.patch(
        sys.modules["repro.passes.instrument"], "instrument",
        "passes.instrument", span=True,
    )
    tracer.patch(session, "instrument", "passes.instrument", span=True)
    for cls in _subclasses(Pass):
        if "run" in cls.__dict__ and cls is not Pass:
            tracer.patch(cls, "run", f"passes.{cls.name}", span=True)

    # dataflow: compute_summaries is bound in three namespaces
    for owner in (repro.dataflow, interproc, summaries):
        tracer.patch(owner, "compute_summaries", "dataflow.summaries",
                     span=True)

    # runtime
    _patch_own(tracer, [interpreter.Interpreter], ["run"], "runtime.engine",
               span=True, observe=observe_run)
    _patch_own(tracer, [compiler.CompiledEngine], ["run"], "runtime.engine",
               span=True)
    tracer.patch(fastpath, "try_execute", "runtime.superblock",
                 count_true=True)
    # compiled closures bind try_execute through the shared namespace
    tracer.patch_item(compiler._SHARED_NS, "TRY", "runtime.superblock",
                      count_true=True)
    tracer.patch(compiler, "compile_program", "runtime.compile", span=True)

    # sanitizers: each class's own methods.  Compiled closures look up
    # san.check_* on the instance at every function entry, so these
    # class-level patches reach them too.
    sanitizers = _subclasses(Sanitizer)
    _patch_own(tracer, sanitizers, ["__init__"], "sanitizers.setup",
               span=True)
    _patch_own(tracer, sanitizers,
               ["check_access", "check_region", "check_cached"],
               "sanitizers.check")
    _patch_own(tracer, sanitizers,
               ["fold_access_checks", "fold_region_checks"],
               "sanitizers.fold")
    _patch_own(tracer, sanitizers,
               ["malloc", "free", "push_frame", "pop_frame"],
               "sanitizers.alloc")
    tracer.patch(ErrorLog, "report", "sanitizers.report")

    # shadow plane
    shadows = _subclasses(ShadowMemory)
    _patch_own(tracer, shadows,
               ["fill", "poison_codes", "write_codes", "store"],
               "shadow.poison")
    _patch_own(tracer, shadows, ["find_not_full", "view", "region"],
               "shadow.scan")

    # memory
    tracer.patch(address_space.AddressSpace, "__init__",
                 "memory.address_space")
    _patch_own(tracer, [allocator.HeapAllocator], ["malloc", "free"],
               "memory.heap")
    tracer.patch(quarantine.Quarantine, "push", "memory.heap")

    # fuzz invariant checker
    tracer.patch(ShadowInvariantChecker, "verify", "fuzz.invariants")


def calibrate_wrapper_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Median extra cost of one wrapped no-op call, in nanoseconds."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    samples = []
    for _ in range(repeats):
        started = _clock()
        for _ in range(calls):
            noop()
        bare = _clock() - started
        started = _clock()
        for _ in range(calls):
            wrapped()
        traced = _clock() - started
        samples.append(max(traced - bare, 0.0) / calls * 1e9)
    return statistics.median(samples)
