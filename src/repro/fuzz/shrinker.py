"""Greedy case reduction: keep the divergence, drop everything else.

The shrinker minimizes a diverging :class:`~repro.fuzz.generator.FuzzCase`
while preserving its *divergence signature* — the set of
``(tool, kind)`` pairs the driver reported.  Moves, in order:

1. drop the injected bug entirely (benign-op findings shrink fastest);
2. drop one spec op at a time (dropping a buffer declaration drops its
   dependent ops too, so candidates stay well-formed);
3. halve numeric knobs — loop trip counts and region lengths — until
   they stop mattering.

Every candidate is re-run through the full differential matrix, so
shrinking is bounded by ``max_runs`` driver invocations; on a budget
blow-out the best case so far is returned.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .expectations import ALL_TOOLS
from .generator import (
    FuzzCase,
    LoopWalk,
    NonAffineWalk,
    RegionCopy,
    RegionFill,
    drop_op,
)


def _shrunk_numbers(op):
    """Candidate replacements for one op's numeric knobs (may be empty)."""
    candidates = []
    if isinstance(op, (LoopWalk, NonAffineWalk)) and op.count > 1:
        candidates.append(replace(op, count=op.count // 2))
    if isinstance(op, RegionFill) and op.length > 1:
        candidates.append(replace(op, length=op.length // 2))
    if isinstance(op, RegionCopy) and op.length > 1:
        candidates.append(replace(op, length=op.length // 2))
    return candidates


def shrink_case(
    case: FuzzCase,
    tools: Sequence[str] = ALL_TOOLS,
    max_runs: int = 120,
    config=None,
) -> FuzzCase:
    """Smallest case found that still shows the original signature."""
    from .driver import divergence_signature, run_case

    runs = 0

    def signature(candidate: FuzzCase) -> frozenset:
        nonlocal runs
        runs += 1
        return divergence_signature(run_case(candidate, tools, config=config))

    target = signature(case)
    if not target:
        return case

    def still_diverges(candidate: FuzzCase) -> bool:
        return runs < max_runs and target <= signature(candidate)

    current = case
    if current.bug is not None and still_diverges(replace(current, bug=None)):
        current = replace(current, bug=None)

    progress = True
    while progress and runs < max_runs:
        progress = False
        for index in range(len(current.ops)):
            candidate = drop_op(current, index)
            if still_diverges(candidate):
                current = candidate
                progress = True
                break

    progress = True
    while progress and runs < max_runs:
        progress = False
        for index, op in enumerate(current.ops):
            for shrunk in _shrunk_numbers(op):
                ops = list(current.ops)
                ops[index] = shrunk
                candidate = replace(current, ops=tuple(ops))
                if still_diverges(candidate):
                    current = candidate
                    progress = True
                    break
            if progress:
                break
    return current
