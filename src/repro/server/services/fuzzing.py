"""The fuzz-job service: a bounded differential campaign as a job.

The campaign is split into small case spans; spans run through the
shared process pool (``jobs > 1``) or inline, with a cancellation checkpoint
and a progress event between batches.  Spans merge in ascending order,
so a completed campaign's summary is byte-identical to the
``repro fuzz`` CLI at the same seed/iterations — and a cancelled one
reports exactly the prefix it finished.  Every span carries the
server's :class:`~repro.runtime.session.ExecConfig` defaults.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ...runtime.session import ExecConfig
from ..jobs import JobContext
from ..models import FuzzJobRequest

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
    defaults: ExecConfig,
) -> Dict[str, Any]:
    from ...fuzz.driver import FuzzSummary, fuzz_spans

    started = time.perf_counter()
    summary = FuzzSummary()
    spans = _spans(request.iterations, request.jobs)
    batch_size = max(request.jobs, 1) * 4
    for start in range(0, len(spans), batch_size):
        context.check_cancelled()
        summary.merge(
            fuzz_spans(
                spans[start:start + batch_size], request.jobs, request.seed,
                request.bug_probability, request.shrink,
                request.audit_elisions, defaults,
            )
        )
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
