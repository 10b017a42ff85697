"""Brute-force decision of the end-type preorder, used only by tests.

This module deliberately shares no machinery with :mod:`endcalc.endspace`:
it never builds canonical forms.  It decides whether one type precedes
another by searching for a genus-monotone matching between accumulation
families of raw trees, over every position of the target's neighborhood
tree.  Agreement with the production order is a differential test of the
canonicalization rules.

Scale guard: inputs beyond depth 4 or branching 4 are rejected; the
search is exponential and is only meant for small trees.
"""

from __future__ import annotations

import functools
import itertools
from typing import FrozenSet, Iterator, Tuple

from .endspace import EndType

ORACLE_MAX_DEPTH = 4
ORACLE_MAX_CHILDREN = 4


class OracleScaleError(ValueError):
    pass


def _check_scale(t: EndType) -> None:
    """Raise unless the tree fits the oracle; checked on every call."""
    if t.depth() > ORACLE_MAX_DEPTH:
        raise OracleScaleError("tree exceeds oracle depth %d" % ORACLE_MAX_DEPTH)
    if _width(t) > ORACLE_MAX_CHILDREN:
        raise OracleScaleError(
            "node exceeds oracle branching %d" % ORACLE_MAX_CHILDREN)


# The helpers below are memoized per node: nodes are interned, so each
# distinct tree is computed once however many pairs it takes part in.


@functools.lru_cache(maxsize=None)
def _width(t: EndType) -> int:
    """Largest number of children at any node of the tree."""
    return max([len(t.children), *map(_width, t.children)])


@functools.lru_cache(maxsize=None)
def _genus_accumulates(t: EndType) -> bool:
    return t.direct_genus or any(_genus_accumulates(c) for c in t.children)


@functools.lru_cache(maxsize=None)
def _positions(t: EndType) -> Tuple[EndType, ...]:
    """Every node of the tree, as a raw subtree (root included), in preorder."""
    return (t,) + _cofinal(t)


@functools.lru_cache(maxsize=None)
def _cofinal(t: EndType) -> Tuple[EndType, ...]:
    """Strict subtrees occurring cofinally near the root.

    Every strict descendant recurs infinitely often: it sits inside a
    child family, of which every neighborhood holds infinitely many
    copies.  The root's own class is never listed here; self-accumulation
    is compared flag-to-flag in :func:`_same_neighborhood`.
    """
    return tuple(itertools.chain.from_iterable(map(_positions, t.children)))


@functools.lru_cache(maxsize=None)
def _same_neighborhood(a: EndType, b: EndType) -> bool:
    """Neighborhoods of a and b carry copies of each other, root to root.

    Requires equal self-accumulation and equal genus accumulation at the
    roots, and each accumulation family of either side to recur cofinally
    on the other.  Recursion descends strictly (family members against
    cofinal subtrees), so no fixpoint choice arises.
    """
    if (a.self_accumulating != b.self_accumulating
            or _genus_accumulates(a) != _genus_accumulates(b)):
        return False
    cof_a, cof_b = _cofinal(a), _cofinal(b)
    for c in b.children:
        if not any(_same_neighborhood(q, c) for q in cof_a):
            return False
    for d in a.children:
        if not any(_same_neighborhood(d, q) for q in cof_b):
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
    return any(_same_neighborhood(y, p) for p in _positions(x))


def oracle_equivalent(y: EndType, x: EndType) -> bool:
    _check_scale(y)
    _check_scale(x)
    return _same_neighborhood(y, x)


def enumerate_trees(max_nodes: int,
                    max_children: int = 3,
                    max_depth: int = 3) -> Tuple[EndType, ...]:
    """All raw trees with at most ``max_nodes`` nodes, for exhaustive tests.

    Children are sets, so sibling duplicates collapse; all four flag
    combinations are generated at every node.
    """
    by_nodes: dict = {}

    def trees_with(n: int) -> Tuple[EndType, ...]:
        if n in by_nodes:
            return by_nodes[n]
        out = []
        if n == 1:
            for g, c in itertools.product((False, True), repeat=2):
                out.append(EndType(g, c, frozenset()))
        else:
            # distribute n - 1 nodes among up to max_children distinct subtrees
            for kids in _child_sets(n - 1, max_children):
                if 1 + max(k.depth() for k in kids) > max_depth:
                    continue
                for g, c in itertools.product((False, True), repeat=2):
                    out.append(EndType(g, c, frozenset(kids)))
        by_nodes[n] = tuple(out)
        return by_nodes[n]

    def _child_sets(budget: int, slots: int) -> Iterator[FrozenSet[EndType]]:
        # the pool holds distinct trees and rec picks strictly increasing
        # indices, so no set it yields repeats a tree or an earlier set
        pool: list = []
        for m in range(1, budget + 1):
            pool.extend((m, t) for t in trees_with(m))

        def rec(start: int, remaining: int, left: int, acc: tuple):
            if acc and remaining == 0:
                yield frozenset(acc)
                return
            if left == 0 or remaining == 0:
                return
            for i in range(start, len(pool)):
                m, t = pool[i]
                if m > remaining:
                    continue
                yield from rec(i + 1, remaining - m, left - 1, acc + (t,))

        yield from rec(0, budget, slots, ())

    all_trees: list = []
    for n in range(1, max_nodes + 1):
        all_trees.extend(trees_with(n))
    return tuple(all_trees)
