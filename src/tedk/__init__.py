"""Bounded tree edit distance for labeled ordered forests.

Library layout: forests and parsing (forest), exact DP oracle (oracle),
string alignments (alignment), labeling refinements (labeling), shared
indexes (indexes, hashing) and the per-query context that holds them
(context), periodicity reductions (horizontal, vertical, reduction),
partial-matching reductions (partial), the height-bounded solver (shallow),
and the sampling engine (engine).  The command line lives in cli.
"""

from .alignment import (AlignmentStats, common_matching_core, eval_alignment,
                        greedy_bounded_align, is_greedy)
from .context import QueryContext
from .engine import EngineConfig, EngineReport, mark_levels, run, ted_bounded
from .errors import (CrossingMatchingError, LabelMismatchError,
                     MalformedAlignmentError, NoAlignmentError, ParseError,
                     UnbalancedError)
from .forest import (LabeledForest, LabelInterner, parse_json_text,
                     parse_paren_text, serialize_json, serialize_paren)
from .labeling import (JointLabeling, compat_refine, lookahead_refine,
                       refines)
from .oracle import INF, ted_exact, ted_threshold
from .partial import gadget, partial_reduce, prune_redundant, reduce_height
from .reduction import ReducedPair, reduce_and_anchor
from .shallow import shallow_ted

__version__ = "0.1.0"

__all__ = [
    "AlignmentStats", "common_matching_core", "eval_alignment",
    "greedy_bounded_align", "is_greedy",
    "EngineConfig", "EngineReport", "mark_levels", "run", "ted_bounded",
    "CrossingMatchingError", "LabelMismatchError", "MalformedAlignmentError",
    "NoAlignmentError", "ParseError", "UnbalancedError",
    "LabeledForest", "LabelInterner", "parse_json_text", "parse_paren_text",
    "serialize_json", "serialize_paren",
    "QueryContext",
    "JointLabeling", "compat_refine", "lookahead_refine", "refines",
    "INF", "ted_exact", "ted_threshold",
    "gadget", "partial_reduce", "prune_redundant", "reduce_height",
    "ReducedPair", "reduce_and_anchor", "shallow_ted",
]
