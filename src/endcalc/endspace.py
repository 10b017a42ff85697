"""Accumulation trees for surface end spaces and the preorder on end types.

An end type is a finite labeled tree: each node says whether handles
accumulate directly to the end (``direct_genus``), whether the end's
equivalence class is a Cantor set (``self_accumulating``), and which
other types accumulate to it cofinally (``children``).  Equivalence of
types is decided by comparing canonical forms; the preorder is decided
by membership in the set of types appearing below a node.

End types are interned (hash-consed): structurally equal trees are one
and the same immutable object, so equality and hashing are by identity
and cost the same at any depth.  Build a variant of a node with the
:class:`EndType` constructor (or :func:`node`), never by mutation.
A node's depth, genus accumulation, Cantor class at or below it, pure
planar tower height and sort key are computed from its children when it
is built.  :func:`canonicalize`, :func:`below` and :func:`format_type`
recurse once per level; they, :func:`in_EG` and :func:`sort_key` raise
``ValueError`` past :data:`MAX_DEPTH`, and the repr of a deeper tree shows
only its depth.  The module memoizes only :func:`canonicalize` and
:func:`below`; immediate predecessors are the canonical children.

Multiplicities of maximal classes live in :class:`SurfaceSpec`, not in
the trees: a maximal class is either finite (a positive integer) or a
Cantor set (the :data:`CANTOR` marker).

Surface specifications and the other value records of the package are
:class:`Record` subclasses: immutable ``__slots__`` objects compared,
hashed and printed by their ``_fields``.  A record that only stores its
arguments names its fields once, in ``_fields`` (with ``_defaults`` for
the trailing ones), and gets a generated ``__init__``.

Trust contract: :func:`canonicalize_spec` output has no subordinates; it
is given its ``similarity`` when there were no diagnostics, and
:func:`require_valid` trusts a spec with a ``similarity`` as canonical.
The constructor cannot set it, and it plays no part in equality, hashing
or repr.  :func:`e_cp`, :func:`invariant_bundle` and
:mod:`endcalc.classify` accept a raw spec.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import FrozenSet, Iterable, Optional, Tuple, Union


class _Marker:
    """Singleton marker value with a stable repr."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        # copies and unpickled values are the module's one instance
        return self._name


#: Marker for a maximal class that is a Cantor set (used as a multiplicity).
CANTOR = _Marker("CANTOR")

Multiplicity = Union[int, _Marker]

#: Deepest tree accepted by :func:`canonicalize`, :func:`below`,
#: :func:`in_EG`, :func:`sort_key` and :func:`format_type`, and built by
#: the parser.  It bounds the recursion of the walks, and a node has a
#: sort key only up to this depth.
MAX_DEPTH = 256

#: (direct_genus, self_accumulating, children) -> the one node with them.
_INTERNED: dict = {}


def _immutable(self, *args):
    raise AttributeError("%s is immutable" % type(self).__name__)


class EndType:
    """One node of an accumulation tree.

    direct_genus: handles accumulate to this end directly, not merely via
        some genus-accumulated type below it.
    self_accumulating: the equivalence class of this type is a Cantor set,
        so the type accumulates on itself.
    children: types accumulating to this end cofinally (infinitely many
        copies in every neighborhood), as a frozenset of end types.

    Nodes are interned: the constructor returns the one existing node with
    the same fields, so structurally equal trees are the same object and
    equality and hashing are by identity.  Nodes are immutable; build a
    variant with the constructor.
    """

    __slots__ = ("direct_genus", "self_accumulating", "children", "_depth",
                 "_genus", "_cantor", "_tower", "_key")

    def __new__(cls, direct_genus: bool = False,
                self_accumulating: bool = False,
                children: FrozenSet["EndType"] = frozenset()) -> "EndType":
        key = (direct_genus, self_accumulating, children)
        t = _INTERNED.get(key)
        if t is None:
            t = object.__new__(cls)
            init = object.__setattr__
            init(t, "direct_genus", direct_genus)
            init(t, "self_accumulating", self_accumulating)
            init(t, "children", children)
            depth = 1 + max(c._depth for c in children) if children else 0
            init(t, "_depth", depth)
            # genus accumulates here; a Cantor class lies at or below here
            init(t, "_genus", direct_genus or any(c._genus for c in children))
            init(t, "_cantor",
                 self_accumulating or any(c._cantor for c in children))
            # the height of a pure planar tower over a puncture, else None
            tower = None
            if not (direct_genus or self_accumulating or len(children) > 1):
                tower = 0
                for c in children:  # the one child, if any
                    tower = None if c._tower is None else c._tower + 1
            init(t, "_tower", tower)
            # none past MAX_DEPTH: comparing deeper keys exhausts the stack
            init(t, "_key", None if depth > MAX_DEPTH else (
                depth, len(children), direct_genus, self_accumulating,
                tuple(sorted([c._key for c in children]))))
            # setdefault, not assignment: of two threads building the same
            # node, both must get the one that was stored
            t = _INTERNED.setdefault(key, t)
        return t

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return EndType, (self.direct_genus, self.self_accumulating,
                         self.children)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def depth(self) -> int:
        return self._depth

    def __repr__(self) -> str:
        if self._depth > MAX_DEPTH:  # too deep for format_type
            return "EndType(<depth %d>)" % self._depth
        return f"EndType({format_type(self)!r})"


def node(*, genus: bool = False, cantor: bool = False,
         children: Iterable[EndType] = ()) -> EndType:
    """Convenience constructor accepting any iterable of children."""
    return EndType(genus, cantor, frozenset(children))


PUNCTURE = EndType()


def planar_tower(k: int) -> EndType:
    """Depth-k planar tower over punctures (k = 1 is the flute end)."""
    if k < 0:
        raise ValueError("tower depth must be nonnegative")
    t = PUNCTURE
    for _ in range(k):
        t = node(children=[t])
    return t


def _check_depth(t: EndType) -> None:
    if t.depth() > MAX_DEPTH:
        raise ValueError("type depth %d exceeds MAX_DEPTH (%d)"
                         % (t.depth(), MAX_DEPTH))


def sort_key(t: EndType) -> tuple:
    """Total order on types, used for deterministic output: (depth, number
    of children, direct_genus, self_accumulating, sorted child keys)."""
    _check_depth(t)
    return t._key


@functools.lru_cache(maxsize=None)
def canonicalize(t: EndType) -> EndType:
    """Normal form deciding equivalence of types by tree equality.

    Children are canonicalized and deduplicated, children lying below a
    sibling are absorbed, and the direct-genus flag is cleared when a
    genus-accumulated type already lies strictly below this node.
    """
    _check_depth(t)
    kids = frozenset(map(canonicalize, t.children))
    reduced = frozenset(_maximal(kids))
    genus = t.direct_genus and not any(c._genus for c in reduced)
    return EndType(genus, t.self_accumulating, reduced)


@functools.lru_cache(maxsize=None)
def below(t: EndType) -> FrozenSet[EndType]:
    """Types occurring strictly below t, plus t itself if it self-accumulates.

    Expects a canonical tree; members are canonical.
    """
    _check_depth(t)
    acc = set()
    for c in t.children:
        acc.add(c)
        acc |= below(c)
    if t.self_accumulating:
        acc.add(t)
    return frozenset(acc)


def in_EG(t: EndType) -> bool:
    """True when the end is accumulated by genus (directly or below)."""
    _check_depth(t)
    return t._genus


def _maximal(types) -> list:
    """The members of a collection of canonical types lying below no
    other member (absorption)."""
    return [t for t in types
            if not any(t2 != t and t in below(t2) for t2 in types)]


def preceq(y: EndType, x: EndType) -> bool:
    """The accumulation preorder: copies of y appear in every neighborhood of x.

    Both arguments are canonicalized; y precedes x when their canonical
    forms coincide or y's form occurs below x's.
    """
    cy, cx = canonicalize(y), canonicalize(x)
    return cy == cx or cy in below(cx)


def equivalent(x: EndType, y: EndType) -> bool:
    return canonicalize(x) == canonicalize(y)


def immediate_predecessors(x: EndType) -> FrozenSet[EndType]:
    """Maximal types strictly below x: the children of its canonical form.

    Each type strictly below x lies at or below a child, and a canonical
    form has absorbed every child lying below a sibling.  Handles are not
    end types: those accumulating to x with no genus-accumulated type
    below are ``canonicalize(x).direct_genus``.
    """
    return canonicalize(x).children


def format_type(t: EndType) -> str:
    """Readable, parseable rendering of a type."""
    t = canonicalize(t)
    k = t._tower
    if k == 0:
        return "puncture"
    if k is not None:
        return "omega^%d+1" % k if k > 1 else "omega+1"
    head = "cantor" if t.self_accumulating else "acc"
    inner = []
    if t.direct_genus:
        inner.append("genus")
    kids = sorted(t.children, key=sort_key)
    if kids or not t.self_accumulating:
        inner.append("[" + ",".join(map(format_type, kids)) + "]")
    return head + "(" + ",".join(inner) + ")"


# ---------------------------------------------------------------------------
# Surface specifications
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields once, in ``_fields``: they take part in
    equality, hashing and repr, and are usually its whole ``__slots__``.
    A subclass that defines no ``__init__`` gets one generated from
    ``_fields``: it takes the fields in order, with defaults for the last
    of them from ``_defaults`` (field name -> value), and sets each slot
    through ``object.__setattr__``.  A subclass whose constructor does
    more than store its arguments writes its own ``__init__`` and sets
    every slot the same way.  Records of different classes never compare
    equal.  Copies and pickles keep every slot.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__init__" in cls.__dict__:
            return
        fields, defaults = cls._fields, cls._defaults
        source = ("def __init__(self, %s):\n    init = object.__setattr__\n"
                  % ", ".join(fields))
        source += "".join("    init(self, %r, %s)\n" % (name, name)
                          for name in fields)
        namespace: dict = {}
        exec(source, namespace)
        init = namespace["__init__"]
        # a _defaults key that is not one of the last fields is a KeyError
        init.__defaults__ = tuple(
            defaults[name]
            for name in fields[len(fields) - len(defaults):]) or None
        init.__qualname__ = cls.__qualname__ + ".__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    __setattr__ = __delattr__ = _immutable

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class SpecError(ValueError):
    """A surface description violating the model's invariants."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class SelfSimilarity(Enum):
    """Mann-Rafi self-similarity: UNIQUELY for a single simple maximal end,
    PERFECTLY for a single Cantor class, NOT otherwise (unabsorbed extras
    break it: a partition can isolate them)."""

    NOT = "NOT"
    UNIQUELY = "UNIQUELY"
    PERFECTLY = "PERFECTLY"


class SurfaceSpec(Record):
    """A whole infinite-type surface, up to homeomorphism of its end pair.

    roots: maximal end classes as (type, multiplicity) with multiplicity a
        positive integer or CANTOR.
    subordinates: finitely many extra non-maximal ends (absorbed away in
        canonical form).
    extra_punctures: isolated planar ends beyond the tree structure.
    extra_genus: finite genus not accumulated at any end.
    countable: not a field; set by the constructor: no CANTOR root, and no
        self-accumulating node in the tree of a root or subordinate.
    similarity: not a field; None from the constructor, set by
        :func:`canonicalize_spec` alone, on a canonical spec without
        diagnostics, so a spec that has one is validated.
    """

    _fields = ("roots", "subordinates", "extra_punctures", "extra_genus")
    __slots__ = _fields + ("countable", "similarity")

    def __init__(self, roots: Tuple[Tuple[EndType, Multiplicity], ...] = (),
                 subordinates: Tuple[Tuple[EndType, int], ...] = (),
                 extra_punctures: int = 0, extra_genus: int = 0):
        init = object.__setattr__
        init(self, "roots", roots)
        init(self, "subordinates", subordinates)
        init(self, "extra_punctures", extra_punctures)
        init(self, "extra_genus", extra_genus)
        init(self, "countable", not (
            any(m is CANTOR or t._cantor for t, m in roots)
            or any(t._cantor for t, _ in subordinates)))
        init(self, "similarity", None)

    def root_types(self) -> Tuple[EndType, ...]:
        return tuple(t for t, _ in self.roots)

    def multiplicity(self, t: EndType) -> Multiplicity:
        """The multiplicity of t's class among the canonical roots; t may
        lack the self-accumulation flag a CANTOR root's type carries."""
        roots = dict(require_valid(self).roots)
        ct = canonicalize(t)
        if ct not in roots and ct is not PUNCTURE:  # flagged, it is cantor()
            ct = EndType(ct.direct_genus, True, ct.children)
        if ct not in roots:
            raise KeyError(f"not a root type: {format_type(t)}")
        return roots[ct]


def canonicalize_spec(s: SurfaceSpec) -> Tuple[SurfaceSpec, list]:
    """Normal form of a surface description, plus diagnostics.

    Normalization performed:
      * every type canonicalized; puncture-type roots and subordinates are
        folded into ``extra_punctures``;
      * a root whose class is declared CANTOR gets the self-accumulation
        flag on its type (and vice versa), so the flag and the marker agree;
      * equivalent roots merge (CANTOR absorbs finite multiplicities);
      * roots strictly below another root are absorbed, as are subordinates
        lying below any root;
      * extra punctures are absorbed whenever a puncture occurs below some
        root; extra genus is absorbed whenever the surface has an end
        accumulated by genus.

    Diagnostics (fatal) are returned instead of raised so the validator can
    report all of them at once.  Every subordinate that is not absorbed
    is diagnosed, so the output has no subordinates; output without
    diagnostics is given its ``similarity``, which marks it validated.
    """
    diags: list = []

    roots: dict = {}
    for t, m in s.roots:
        ct = canonicalize(t)
        if m is not CANTOR and (not isinstance(m, int) or m < 1):
            diags.append("root multiplicity must be a positive integer or "
                         "CANTOR: %s" % format_type(ct))
            continue
        if (m is CANTOR or ct.self_accumulating) and ct is not PUNCTURE:
            # a Cantor class accumulates on itself, so marker and flag imply
            # each other; normalize to flag-set + CANTOR (the flag leaves a
            # canonical node canonical).  A Cantor class of punctures keeps
            # its type and is diagnosed below.
            ct = EndType(ct.direct_genus, True, ct.children)
            m = CANTOR
        roots[ct] = _merge_mult(roots.get(ct), m)

    extra_p = s.extra_punctures
    if s.extra_punctures < 0 or s.extra_genus < 0:
        diags.append("extra punctures and genus must be nonnegative")
    for ct in [t for t in roots if t is PUNCTURE]:
        m = roots.pop(ct)
        if m is CANTOR:
            diags.append("a Cantor class of isolated punctures is not a "
                         "valid end structure")
        else:
            extra_p += m

    roots = {ct: roots[ct] for ct in _maximal(roots)}  # absorb dominated

    for t, n in s.subordinates:
        ct = canonicalize(t)
        if not isinstance(n, int) or n < 1:
            diags.append("subordinate count must be a positive integer: %s"
                         % format_type(ct))
        elif ct is PUNCTURE:
            extra_p += n
        elif not any(ct == r or ct in below(r) for r in roots):
            diags.append("subordinate not below any root: %s"
                         % format_type(ct))

    if extra_p and any(PUNCTURE in below(r) for r in roots):
        extra_p = 0
    genus = s.extra_genus
    if genus and any(r._genus for r in roots):
        genus = 0

    out = SurfaceSpec(
        roots=tuple(sorted(roots.items(), key=lambda rm: sort_key(rm[0]))),
        extra_punctures=extra_p,
        extra_genus=genus,
    )
    if not out.roots:
        diags.append("finite-type surface: no maximal end classes remain "
                     "(only finitely many punctures and finite genus)")
    if not diags:
        # the one root's multiplicity, if no extras are left beside it
        m = out.roots[0][1] if len(out.roots) == 1 and not (
            extra_p or genus) else None
        object.__setattr__(out, "similarity", (
            SelfSimilarity.PERFECTLY if m is CANTOR
            else SelfSimilarity.UNIQUELY if m == 1 else SelfSimilarity.NOT))
    return out, diags


def require_valid(s: SurfaceSpec) -> SurfaceSpec:
    """The canonical form of s; a validated spec (one with a
    ``similarity``) is returned unchanged."""
    if s.similarity is not None:
        return s
    canonical, diags = canonicalize_spec(s)
    if diags:
        raise SpecError(diags)
    return canonical


def _merge_mult(a: Optional[Multiplicity], b: Multiplicity) -> Multiplicity:
    if a is None:
        return b
    if a is CANTOR or b is CANTOR:
        return CANTOR
    return a + b


def e_cp(s: SurfaceSpec, a: EndType, b: EndType) -> FrozenSet[EndType]:
    """Common immediate predecessor types of two maximal classes.

    Counts types, not individual ends; handles are not types, and types
    whose class is a Cantor set are excluded.  For a == b the pair means two
    distinct ends of that class, which requires multiplicity >= 2 or a
    Cantor class.
    """
    s = require_valid(s)
    ca, cb = canonicalize(a), canonicalize(b)
    ma = s.multiplicity(ca)
    s.multiplicity(cb)  # both arguments must be maximal classes
    if ca == cb and ma is not CANTOR and ma < 2:
        raise ValueError("no second end of class %s (multiplicity 1)"
                         % format_type(ca))
    return _shared_predecessors(ca, cb)


def _shared_predecessors(a: EndType, b: EndType) -> FrozenSet[EndType]:
    """:func:`e_cp` of an admissible pair of a validated spec's root types."""
    shared = a.children & b.children  # the immediate predecessors
    return frozenset(t for t in shared if not t.self_accumulating)


class InvariantBundle(Record):
    """Counting invariants driving the generator bounds."""

    __slots__ = _fields = ("M", "C", "M_iso", "G0")


def invariant_bundle(s: SurfaceSpec) -> InvariantBundle:
    s = require_valid(s)
    types = s.root_types()
    # the unordered pairs of maximal ends that can cobound a shift strip
    pairs = list(itertools.combinations(types, 2))
    pairs += [(t, t) for t, m in s.roots if m is CANTOR or m >= 2]
    c = max((len(_shared_predecessors(a, b)) for a, b in pairs), default=0)
    m_iso = sum(1 for _, m in s.roots if m is not CANTOR)
    g0 = frozenset(t for t in types if t.direct_genus)
    return InvariantBundle(M=len(types), C=c, M_iso=m_iso, G0=g0)
