"""Verdict rules for topological normal generation and generator bounds.

A validated surface description is classified by a first-match rule
table.  YES verdicts cite the applicable generation mechanism (dense
conjugacy class, telescoping, a single involution, or the
Cantor-plus-simple-end construction); NO verdicts always carry an
obstruction witness: a surjection onto a non-cyclic abelian group
described by explicit characters and generator images, checkable on the
permutation models of :mod:`endcalc.flux`.

Counting invariants: M distinct maximal types, C the largest common
predecessor set over admissible pairs, M_iso the isolated non-puncture
types, G0 the types whose genus accumulation is direct.  These drive the
bounds max(1, M_iso - 1) <= n(S) <= max(1, M(M + C - 1)) and the
generating budget (C*M shifts, M(M-2) twist generators, M handle shifts).

Every public function accepts a raw spec.  A spec given its
``similarity`` by :func:`endcalc.endspace.canonicalize_spec` is validated:
it is trusted as canonical and not canonicalized again, so parsing and
classifying a text canonicalizes it once.  The rules and the report read
the facts the spec carries: ``countable`` from its constructor and
``similarity`` from its validation.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, Optional

from .endspace import (
    CANTOR,
    EndType,
    Record,
    SelfSimilarity,
    SurfaceSpec,
    _shared_predecessors,
    below,
    canonicalize_spec,
    format_type,
    invariant_bundle,
    require_valid,
    sort_key,
)


class Verdict(Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


RULE_ROKHLIN = "rokhlin"
RULE_OBSTRUCTION = "noncyclic-abelian-quotient"
RULE_OBSTRUCTION_GAP = "noncyclic-quotient-unavailable"
RULE_TELESCOPING = "telescoping"
RULE_INVOLUTION = "malestein-tao-involution"
RULE_CANTOR_PLUS_END = "cantor-plus-tame-end"
RULE_DOUBLE_FLUX = "double-flux-obstruction"
RULE_UNKNOWN = "unknown"
RULE_EXTRA_GENUS = "unresolved-extra-genus"

MODEL_NOTE = ("finite accumulation trees have finite rank and no limit "
              "types, so described surfaces are tame with coarsely-bounded "
              "generated mapping class groups")


class ValidationResult(Record):
    """``canonical`` is None exactly when there are ``diagnostics``."""

    __slots__ = _fields = ("diagnostics", "notes", "canonical")


def validate(s: SurfaceSpec) -> ValidationResult:
    """Canonicalize and check the model invariants, collecting diagnostics.

    A validated spec is already canonical and is used as is."""
    canonical, diags = ((s, ()) if s.similarity is not None
                        else canonicalize_spec(s))
    if diags:
        return ValidationResult(tuple(diags), (), None)
    notes = (MODEL_NOTE,)
    # below(r) holds r itself when r is a Cantor class
    if any(c._cantor for r in canonical.root_types() if r._cantor
           for t in below(r) if t.self_accumulating for c in t.children):
        notes += ("a Cantor class accumulated by further Cantor classes: "
                  "outside the worked examples, general rules applied",)
    return ValidationResult((), notes, canonical)


def self_similarity(s: SurfaceSpec) -> SelfSimilarity:
    """The :class:`SelfSimilarity` of s, which its validation records."""
    return require_valid(s).similarity


# ---------------------------------------------------------------------------
# Obstruction witnesses
# ---------------------------------------------------------------------------


class Character(Record):
    """One coordinate of a homomorphism onto an abelian group.

    FLUX counts ends of a named type crossing into a maximal-end cluster
    (a Z-valued character); FLUX_MOD2 is the same count mod 2 for a
    repeated class; PARITY is the sign of the permutation of a finite
    class.  ``z`` is "handle" for genus flux.
    """

    __slots__ = _fields = ("kind", "z", "pair", "maximal_type")
    _defaults = {"z": None, "pair": None, "maximal_type": None}


class GeneratorImage(Record):
    # kind: shift | half_twist | handle_shift
    __slots__ = _fields = ("name", "kind", "image")


class ObstructionWitness(Record):
    """A surjection onto Z^a x (Z/2)^b with a + b the character count.

    Non-cyclic requires a >= 2, b >= 2, or a, b >= 1; the generator
    images must generate the target, which the model-evaluation suite
    checks by composing random products.
    """

    __slots__ = _fields = ("free_rank", "torsion2", "characters",
                           "generators")

    def is_noncyclic(self) -> bool:
        a, b = self.free_rank, self.torsion2
        return a >= 2 or b >= 2 or (a >= 1 and b >= 1)


class TNGVerdict(Record):
    __slots__ = _fields = ("verdict", "rule", "witness", "notes")
    _defaults = {"witness": None, "notes": ()}


def _fluxes(a: EndType, b: EndType, kind: str = "FLUX") -> List[Character]:
    """The FLUX (or FLUX_MOD2) characters of the pair (a, b) of root types
    of a validated spec, one per shared predecessor (``e_cp``)."""
    zs = sorted(_shared_predecessors(a, b), key=sort_key)
    pair = (format_type(a), format_type(b)) if zs else None
    return [Character(kind, z=format_type(z), pair=pair) for z in zs]


def _assemble_witness(chars) -> ObstructionWitness:
    """The witness on chars; generator i moves one unit across character i."""
    gens = []
    for i, c in enumerate(chars):
        if c.kind == "PARITY":
            kind, name = "half_twist", "half_twist[%s]" % c.maximal_type
        elif c.z == "handle":
            kind, name = "handle_shift", "handle_shift[%s->%s]" % c.pair
        else:
            kind, name = "shift", "shift[%s:%s->%s]" % (c.z, *c.pair)
        image = tuple(int(j == i) for j in range(len(chars)))
        gens.append(GeneratorImage(name, kind, image))
    free = sum(c.kind == "FLUX" for c in chars)
    return ObstructionWitness(free, len(chars) - free, tuple(chars),
                              tuple(gens))


def _build_obstruction(s: SurfaceSpec) -> Optional[ObstructionWitness]:
    """Two independent characters onto a non-cyclic target, if available.

    Preference order: two cluster fluxes onto Z^2 (shared predecessors of
    each pair of maximal classes, then handles of each genus-direct
    pair); a class parity with a cluster flux onto Z/2 x Z; two class
    parities onto (Z/2)^2; a repeated class's flux-mod-2 with its own
    parity onto (Z/2)^2.  The roots of a validated spec are already in
    ``sort_key`` order.
    """
    types = s.root_types()
    flux = [c for i, a in enumerate(types) for b in types[i + 1:]
            for c in _fluxes(a, b)]
    g0 = [format_type(t) for t in types if t.direct_genus]
    flux += [Character("FLUX", z="handle", pair=(a, b))
             for i, a in enumerate(g0) for b in g0[i + 1:]]
    if len(flux) >= 2:
        return _assemble_witness(flux[:2])
    repeated = [t for t, m in s.roots if m is not CANTOR and m >= 2]
    parity = [Character("PARITY", maximal_type=format_type(t))
              for t in repeated]
    if s.extra_punctures >= 2:
        parity.append(Character("PARITY", maximal_type="puncture"))
    if flux and parity:
        return _assemble_witness([parity[0], flux[0]])
    if len(parity) >= 2:
        return _assemble_witness(parity[:2])
    if repeated:  # then the only class parity is this class's own
        t, tn = repeated[0], parity[0].maximal_type
        mod2 = _fluxes(t, t, "FLUX_MOD2")
        if t.direct_genus:
            mod2.append(Character("FLUX_MOD2", z="handle", pair=(tn, tn)))
        if mod2:
            return _assemble_witness([mod2[0], parity[0]])
    return None


# ---------------------------------------------------------------------------
# The verdict rule table
# ---------------------------------------------------------------------------


def tng_verdict(s: SurfaceSpec) -> TNGVerdict:
    """First-match verdict for topological normal generation."""
    s = require_valid(s)

    if s.extra_genus > 0:
        return TNGVerdict(
            Verdict.UNKNOWN, RULE_EXTRA_GENUS,
            notes=("finite genus with no genus-accumulated end is not "
                   "displaceable; whether it breaks the dense-conjugacy "
                   "argument is unresolved, so no YES/NO verdict is issued",))

    if s.similarity is SelfSimilarity.UNIQUELY:
        return TNGVerdict(
            Verdict.YES, RULE_ROKHLIN,
            notes=("uniquely self-similar: the mapping class group has "
                   "a dense conjugacy class",))
    if s.similarity is SelfSimilarity.PERFECTLY:
        return TNGVerdict(
            Verdict.YES, RULE_TELESCOPING,
            notes=("perfectly self-similar surfaces are telescoping and "
                   "normally generated by a strong dilatation",))
    if s.countable:
        witness = _build_obstruction(s)
        if witness is not None:
            return TNGVerdict(Verdict.NO, RULE_OBSTRUCTION, witness=witness)
        return TNGVerdict(
            Verdict.UNKNOWN, RULE_OBSTRUCTION_GAP,
            notes=("not uniquely self-similar, but no two independent "
                   "characters exist in the model (isolated maximal "
                   "ends without shared predecessors); the obstruction "
                   "machinery cannot run",))

    # uncountable end space
    cantor_roots = [t for t, m in s.roots if m is CANTOR]
    finite_roots = [(t, m) for t, m in s.roots if m is not CANTOR]
    notes = ("no decision rule applies",)
    if not finite_roots and len(cantor_roots) == 1:
        if s.extra_punctures == 1:
            return TNGVerdict(
                Verdict.YES, RULE_INVOLUTION,
                notes=("a Cantor class with one puncture is normally "
                       "generated by a single involution",))
        notes += ("whether a Cantor class with two or more punctures is "
                  "topologically normally generated is an open question",)
    if len(cantor_roots) == len(finite_roots) == 1 and not s.extra_punctures:
        (u, m), = finite_roots
        if m == 1 and len(u.children) + u.direct_genus <= 1:
            return TNGVerdict(Verdict.YES, RULE_CANTOR_PLUS_END, notes=(
                "normal generator: a shift toward the simple isolated end "
                "composed with a half-space translation",))
    for u, _ in finite_roots:
        for p in cantor_roots:
            fluxes = _fluxes(u, p)
            if len(fluxes) >= 2:
                return TNGVerdict(Verdict.NO, RULE_DOUBLE_FLUX,
                                  witness=_assemble_witness(fluxes[:2]))
    return TNGVerdict(Verdict.UNKNOWN, RULE_UNKNOWN, notes=notes)


# ---------------------------------------------------------------------------
# Bounds and flux ranks
# ---------------------------------------------------------------------------

class Budget(Record):
    __slots__ = _fields = ("shifts", "dehn", "handles")


class BoundsReport(Record):
    __slots__ = _fields = ("lower", "upper",
                           "flux_rank",  # None when uncountable
                           "handle_pair_generators", "budget",
                           "abelianization_upper", "invariants")


def generator_bounds(s: SurfaceSpec) -> BoundsReport:
    """Generator bounds and budget from the invariant bundle, with the
    flux accounting of the countable case.

    ``flux_rank`` is the certified free rank of the shift-flux quotient:
    each immediate-predecessor type admitted by N maximal ends (counted
    with multiplicity) contributes N - 1 independent fluxes; handle
    shifts are budgeted separately and contribute nothing here.
    ``handle_pair_generators`` counts the unordered pairs of genus-direct
    maximal ends, with multiplicity.  For uncountable specs flux
    accounting does not apply: the rank is None and the pair count zero.
    """
    s = require_valid(s)
    b = invariant_bundle(s)
    lower = max(1, b.M_iso - 1)
    upper = max(1, b.M * (b.M + b.C - 1))
    budget = Budget(shifts=b.C * b.M,
                    dehn=max(0, b.M * (b.M - 2)),
                    handles=b.M)
    flux_rank = None
    handle_pairs = 0
    if s.countable:
        admits: dict = {}
        for t, m in s.roots:
            for z in t.children:  # the immediate predecessors
                admits[z] = admits.get(z, 0) + m
        flux_rank = sum(n - 1 for n in admits.values())
        handle_pairs = math.comb(sum(m for t, m in s.roots if t.direct_genus),
                                 2)
    ab_upper = None
    if all(m is CANTOR for _, m in s.roots) and s.extra_genus == 0:
        ab_upper = upper
    return BoundsReport(lower=lower, upper=upper, flux_rank=flux_rank,
                        handle_pair_generators=handle_pairs,
                        budget=budget, abelianization_upper=ab_upper,
                        invariants=b)


# ---------------------------------------------------------------------------
# Full report assembly
# ---------------------------------------------------------------------------


class ClassificationReport(Record):
    """The report on a validated ``spec``, whose facts it reads."""

    __slots__ = _fields = ("spec", "verdict", "bounds", "notes")
    _defaults = {"notes": ()}


def classify(s: SurfaceSpec) -> ClassificationReport:
    spec = require_valid(s)
    verdict = tng_verdict(spec)
    notes = validate(spec).notes + verdict.notes
    if verdict.verdict is Verdict.NO:
        notes += ("verdict is NO: the bound formulas are reported for "
                  "information only",)
    return ClassificationReport(
        spec=spec,
        verdict=verdict,
        bounds=generator_bounds(spec),
        notes=notes,
    )
