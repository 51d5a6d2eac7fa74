"""Static analysis and instrumentation passes."""

from .base import Pass, PassManager, PassStats
from .constprop import ConstantPropagation, eval_const, fold
from .alias import Provenance, ProvenanceMap
from .loop_bounds import Affine, TripRange, affine_of, offset_bounds, trip_range
from .check_placement import CheckPlacement
from .check_merging import AliasedCheckElimination, ConstantOffsetMerging
from .loop_promotion import LoopCheckPromotion
from .history_caching import HistoryCaching
from .instrument import (
    FoldedProgram,
    InstrumentedProgram,
    build_pipeline,
    fold_program,
    instrument,
    placement_style,
)

__all__ = [
    "Pass",
    "PassManager",
    "PassStats",
    "ConstantPropagation",
    "eval_const",
    "fold",
    "Provenance",
    "ProvenanceMap",
    "Affine",
    "TripRange",
    "affine_of",
    "offset_bounds",
    "trip_range",
    "CheckPlacement",
    "AliasedCheckElimination",
    "ConstantOffsetMerging",
    "LoopCheckPromotion",
    "HistoryCaching",
    "FoldedProgram",
    "InstrumentedProgram",
    "build_pipeline",
    "fold_program",
    "instrument",
    "placement_style",
]
