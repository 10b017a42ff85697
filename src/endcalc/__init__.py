"""End-space calculus for big mapping class groups.

Decides topological normal generation for infinite-type surfaces
described as finite accumulation trees, computes generator-count bounds
and flux ranks, and verifies the underlying homomorphism machinery on
finite permutation models.
"""

from .classify import (
    BoundsReport,
    Character,
    ClassificationReport,
    GeneratorImage,
    ObstructionWitness,
    SelfSimilarity,
    TNGVerdict,
    ValidationResult,
    Verdict,
    generator_bounds,
    self_similarity,
    tng_verdict,
    validate,
)
from .dsl import ParseError, emit_report, parse, report_to_dict, spec_to_text
from .endspace import (
    CANTOR,
    EndType,
    InvariantBundle,
    SpecError,
    SurfaceSpec,
    below,
    canonicalize,
    e_cp,
    equivalent,
    format_type,
    immediate_predecessors,
    in_EG,
    invariant_bundle,
    node,
    planar_tower,
    preceq,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "CANTOR", "Character", "ClassificationReport", "EndType",
    "GeneratorImage", "InvariantBundle", "ObstructionWitness", "ParseError",
    "SelfSimilarity", "SpecError", "SurfaceSpec", "TNGVerdict",
    "ValidationResult", "Verdict", "below", "canonicalize", "e_cp",
    "emit_report", "equivalent", "format_type", "generator_bounds",
    "immediate_predecessors", "in_EG", "invariant_bundle", "node", "parse",
    "planar_tower", "preceq", "report_to_dict", "self_similarity",
    "spec_to_text", "tng_verdict", "validate",
]
