"""Brute-force decision of the end-type preorder, used by the tests and by
the preorder-sweep benchmark.

This module deliberately shares no machinery with :mod:`endcalc.endspace`:
it never builds canonical forms.  It decides whether one type precedes
another by searching for a genus-monotone matching between accumulation
families of raw trees, over every position of the target's neighborhood
tree.  Agreement with the production order is a differential test of the
canonicalization rules.

Two neighborhoods match when their roots carry the same flags
(self-accumulation and genus accumulation) and their accumulation families
recur on each other (:func:`_same_families`).  Each tree passed by the
scale guard gets one record in ``_SEEN``, built once: its flags, its
distinct subtrees grouped by flags as positions and as cofinal subtrees,
and its row of family matches, keyed by the record of the second tree.
The flags are compared first, outside the memo, so a search tries only
candidates whose flags agree; every (tree, position) pair is still decided
by its own family match.

Scale guard: inputs beyond depth 4 or branching 4 are rejected; the
search is exponential and is only meant for small trees.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterator, List, Tuple

from .endspace import EndType

ORACLE_MAX_DEPTH = 4
ORACLE_MAX_CHILDREN = 4

_Flags = Tuple[bool, bool]


class OracleScaleError(ValueError):
    pass


class _Tree:
    """What the search needs of one tree that passed the scale guard.

    ``flags``: (self-accumulation, genus accumulation) at the root; two
    neighborhoods can only match if these agree.  ``kids``: the children's
    records.  ``nodes``: the records of every distinct subtree, this one
    first.  ``positions``: the nodes by flags.  ``cofinal``: the strict
    subtrees by flags; each recurs cofinally near the root, since it sits
    inside a child family, of which every neighborhood holds infinitely
    many copies.  A strict subtree is shallower than the root, so it is
    never the root itself.  ``same``: the family matches of this tree as
    the first tree, keyed by the second tree's record.
    """

    __slots__ = ("flags", "kids", "nodes", "positions", "cofinal", "same")


# One record per tree; nodes are interned, so identity keys are exact.
_SEEN: Dict[EndType, _Tree] = {}

_flags = operator.attrgetter("flags")


def _by_flags(trees: Tuple[_Tree, ...]) -> Dict[_Flags, Tuple[_Tree, ...]]:
    return {k: tuple(g) for k, g in
            itertools.groupby(sorted(trees, key=_flags), _flags)}


def _record(t: EndType) -> _Tree:
    """The tree's record, built on first use.  Raises unless the tree fits
    the oracle; a rejected tree gets no record, so it raises on every call.
    The record is published only once complete."""
    r = _SEEN.get(t)
    if r is not None:
        return r
    if t.depth() > ORACLE_MAX_DEPTH:
        raise OracleScaleError(
            "tree exceeds oracle depth %d" % ORACLE_MAX_DEPTH)
    if len(t.children) > ORACLE_MAX_CHILDREN:
        raise OracleScaleError(
            "node exceeds oracle branching %d" % ORACLE_MAX_CHILDREN)
    r = _Tree()
    r.kids = kids = tuple(map(_record, t.children))
    r.flags = (t.self_accumulating,
               t.direct_genus or any(k.flags[1] for k in kids))
    r.nodes = tuple(dict.fromkeys(
        itertools.chain((r,), *(k.nodes for k in kids))))
    r.positions = _by_flags(r.nodes)
    r.cofinal = _by_flags(r.nodes[1:])
    r.same = {}
    return _SEEN.setdefault(t, r)


def _same_families(a: _Tree, b: _Tree) -> bool:
    """Accumulation families of a and b recur on each other, root to root.

    Callers have already found equal flags; together the two conditions
    say that the neighborhoods of a and b carry copies of each other.
    Memoized in a's row.
    """
    same = a.same.get(b)
    if same is None:
        same = a.same[b] = _families_recur(a, b)
    return same


def _families_recur(a: _Tree, b: _Tree) -> bool:
    """The match behind :func:`_same_families`: each family member against
    the cofinal subtrees with its own flags.  Recursion descends strictly
    (family members against cofinal subtrees), so no fixpoint choice arises.
    """
    cof_a, cof_b = a.cofinal, b.cofinal
    for c in b.kids:
        for q in cof_a.get(c.flags, ()):
            if _same_families(q, c):
                break
        else:
            return False
    for d in a.kids:
        for q in cof_b.get(d.flags, ()):
            if _same_families(d, q):
                break
        else:
            return False
    return True


def oracle_preceq(y: EndType, x: EndType) -> bool:
    """Exhaustive decision of `y precedes x` on raw trees.

    y precedes x exactly when some position of x's neighborhood tree has
    the same neighborhood as y: the root position gives equivalence, and
    any deeper position recurs in every neighborhood of x.
    """
    ry = _SEEN.get(y) or _record(y)
    rx = _SEEN.get(x) or _record(x)
    row = ry.same
    for p in rx.positions.get(ry.flags, ()):
        same = row.get(p)
        if same is None:
            same = row[p] = _families_recur(ry, p)
        if same:
            return True
    return False


def oracle_equivalent(y: EndType, x: EndType) -> bool:
    ry, rx = _record(y), _record(x)
    return ry.flags == rx.flags and _same_families(ry, rx)


def _child_sets(pool: List[Tuple[int, EndType]], budget: int, slots: int,
                start: int) -> Iterator[Tuple[EndType, ...]]:
    """Each set of at most ``slots`` trees of ``pool[start:]`` whose sizes
    sum to ``budget``, once, as a tuple in increasing pool order.

    ``pool`` holds (size, tree) pairs of distinct trees; budget 0 gives the
    empty set.
    """
    if budget == 0:
        yield ()
    elif slots > 0:
        for i in range(start, len(pool)):
            m, t = pool[i]
            if m <= budget:
                for rest in _child_sets(pool, budget - m, slots - 1, i + 1):
                    yield (t,) + rest


def enumerate_trees(max_nodes: int,
                    max_children: int = 3,
                    max_depth: int = 3) -> Tuple[EndType, ...]:
    """All raw trees with at most ``max_nodes`` nodes, for exhaustive tests.

    Built by size: the trees of n nodes take their children from the
    smaller trees, n - 1 nodes in all.  Children are sets, so sibling
    duplicates collapse; all four flag combinations are generated at every
    node.
    """
    pool: List[Tuple[int, EndType]] = []
    for n in range(1, max_nodes + 1):
        # one frozenset per child set, shared by its four flag variants
        kid_sets = [frozenset(kids)
                    for kids in _child_sets(pool, n - 1, max_children, 0)
                    if all(k.depth() < max_depth for k in kids)]
        pool += [(n, EndType(g, c, kids)) for kids in kid_sets
                 for g, c in itertools.product((False, True), repeat=2)]
    return tuple(t for _, t in pool)
