"""The fuzz-job service: a bounded differential campaign as a job.

The campaign is split into small case spans; spans run through the
shared fabric (``jobs > 1``) or inline, with a cancellation checkpoint
and a progress event between batches.  Spans merge in ascending order,
so a completed campaign's summary is byte-identical to the
``repro fuzz`` CLI at the same seed/iterations — and a cancelled one
reports exactly the prefix it finished.

Fuzz Sessions resolve the process default engine at run time, so the
body holds the environment lease like the sweep service does.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ..config import ExecutionDefaults
from ..jobs import JobContext
from ..models import FuzzJobRequest
from .common import env_lease

#: Cases per span on the inline path: small enough that cancellation
#: and progress stay responsive, large enough to amortize bookkeeping.
INLINE_SPAN_CASES = 8


def _spans(iterations: int, jobs: int):
    from ...analysis.parallel import chunk_ranges, steal_spans

    if jobs <= 1:
        return chunk_ranges(
            iterations, max(1, -(-iterations // INLINE_SPAN_CASES))
        )
    return steal_spans(iterations, jobs)


def execute_fuzz_job(
    context: JobContext,
    request: FuzzJobRequest,
    defaults: ExecutionDefaults,
) -> Dict[str, Any]:
    from ...analysis.parallel import parallel_map
    from ...fuzz.driver import FuzzSummary, fuzz_worker

    started = time.perf_counter()
    summary = FuzzSummary()
    spans = _spans(request.iterations, request.jobs)
    batch_size = max(request.jobs, 1) * 4
    with env_lease(context):
        for start in range(0, len(spans), batch_size):
            context.check_cancelled()
            batch = spans[start:start + batch_size]
            payloads = [
                (
                    request.seed,
                    lo,
                    hi,
                    request.bug_probability,
                    request.shrink,
                    request.audit_elisions,
                )
                for lo, hi in batch
            ]
            for partial in parallel_map(
                fuzz_worker,
                payloads,
                jobs=request.jobs,
                shard_keys=[("fuzz", lo) for lo, _ in batch],
            ):
                summary.merge(partial)
            context.progress(
                "fuzz progress",
                cases=summary.cases,
                total=request.iterations,
                divergences=len(summary.findings),
            )
    return {
        "seed": request.seed,
        "iterations": request.iterations,
        "cases": summary.cases,
        "buggy_cases": summary.buggy_cases,
        "invariant_checks": summary.invariant_checks,
        "divergences": len(summary.findings),
        "findings": summary.findings,
        "wall_seconds": time.perf_counter() - started,
    }
