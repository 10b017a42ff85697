"""Brute-force decision of the end-type preorder, used by the tests and by
the preorder-sweep benchmark.

This module deliberately shares no machinery with :mod:`endcalc.endspace`:
it never builds canonical forms.  It decides whether one type precedes
another by searching for a genus-monotone matching between accumulation
families of raw trees, over every position of the target's neighborhood
tree.  Agreement with the production order is a differential test of the
canonicalization rules.

Two neighborhoods match when their roots carry the same flags
(:func:`_flags`) and their accumulation families recur on each other
(:func:`_same_families`).  The flags are compared first, outside the memo,
and each tree's positions are grouped by them once, so a search tries only
candidates whose flags agree.  Family matches are memoized in ``_SAME``,
one row per first tree (once the scale guard passes it) keyed by the second.

Scale guard: inputs beyond depth 4 or branching 4 are rejected; the
search is exponential and is only meant for small trees.
"""

from __future__ import annotations

import collections
import functools
import itertools
from typing import Dict, Iterator, List, Tuple

from .endspace import EndType

ORACLE_MAX_DEPTH = 4
ORACLE_MAX_CHILDREN = 4

_Flags = Tuple[bool, bool]


class OracleScaleError(ValueError):
    pass


# The helpers below are memoized per node: nodes are interned, so each
# distinct tree is computed once however many pairs it takes part in.  A
# pair's family match sits in the first tree's row of _SAME.


@functools.lru_cache(maxsize=None)
def _check_scale(t: EndType) -> None:
    """Raise unless the tree fits the oracle.  ``lru_cache`` stores no
    exception, so an oversized tree raises on every call."""
    if t.depth() > ORACLE_MAX_DEPTH:
        raise OracleScaleError(
            "tree exceeds oracle depth %d" % ORACLE_MAX_DEPTH)
    if len(t.children) > ORACLE_MAX_CHILDREN:
        raise OracleScaleError(
            "node exceeds oracle branching %d" % ORACLE_MAX_CHILDREN)
    for c in t.children:
        _check_scale(c)


@functools.lru_cache(maxsize=None)
def _flags(t: EndType) -> _Flags:
    """(self-accumulation, genus accumulation) at the root.

    Two neighborhoods can only match if these agree.
    """
    return (t.self_accumulating,
            t.direct_genus or any(_flags(c)[1] for c in t.children))


@functools.lru_cache(maxsize=None)
def _nodes(t: EndType) -> Tuple[EndType, ...]:
    """Every distinct subtree of the tree, the root first."""
    return tuple(dict.fromkeys(
        itertools.chain((t,), *map(_nodes, t.children))))


def _by_flags(trees: Tuple[EndType, ...]) -> Dict[_Flags, Tuple[EndType, ...]]:
    return {k: tuple(g) for k, g in
            itertools.groupby(sorted(trees, key=_flags), _flags)}


@functools.lru_cache(maxsize=None)
def _positions(t: EndType) -> Dict[_Flags, Tuple[EndType, ...]]:
    """Every node of the tree as a raw subtree (root included), by flags."""
    return _by_flags(_nodes(t))


@functools.lru_cache(maxsize=None)
def _cofinal(t: EndType) -> Dict[_Flags, Tuple[EndType, ...]]:
    """Strict subtrees occurring cofinally near the root, by flags.

    Every strict descendant recurs infinitely often: it sits inside a
    child family, of which every neighborhood holds infinitely many
    copies.  A strict subtree is shallower than the root, so it is never
    the root itself; the root's own self-accumulation is one of the flags
    that the callers of :func:`_same_families` compare.
    """
    return _by_flags(_nodes(t)[1:])


_SAME: Dict[EndType, Dict[EndType, bool]] = collections.defaultdict(dict)


def _same_families(a: EndType, b: EndType) -> bool:
    """Accumulation families of a and b recur on each other, root to root.

    Callers have already found ``_flags(a) == _flags(b)``; together the
    two conditions say that the neighborhoods of a and b carry copies of
    each other.  Memoized in a's row of ``_SAME``.
    """
    row = _SAME[a]
    same = row.get(b)
    if same is None:
        same = row[b] = _families_recur(a, b)
    return same


def _families_recur(a: EndType, b: EndType) -> bool:
    """The match behind :func:`_same_families`: each family member against
    the cofinal subtrees with its own flags.  Recursion descends strictly
    (family members against cofinal subtrees), so no fixpoint choice arises.
    """
    cof_a, cof_b = _cofinal(a), _cofinal(b)
    for c in b.children:
        for q in cof_a.get(_flags(c), ()):
            if _same_families(q, c):
                break
        else:
            return False
    for d in a.children:
        for q in cof_b.get(_flags(d), ()):
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
    _check_scale(y)
    _check_scale(x)
    row = _SAME[y]  # after the guard: a rejected tree gets no row
    for p in _positions(x).get(_flags(y), ()):
        same = row.get(p)
        if same is None:
            same = row[p] = _families_recur(y, p)
        if same:
            return True
    return False


def oracle_equivalent(y: EndType, x: EndType) -> bool:
    _check_scale(y)
    _check_scale(x)
    return _flags(y) == _flags(x) and _same_families(y, x)


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
