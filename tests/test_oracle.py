"""Differential tests: the production preorder against the search oracle."""

import hashlib
import itertools

import pytest

from endcalc.endspace import (
    PUNCTURE,
    equivalent,
    node,
    planar_tower,
    preceq,
)
from endcalc import oracle
from endcalc.oracle import (
    OracleScaleError,
    enumerate_trees,
    oracle_equivalent,
    oracle_preceq,
)
from conftest import CANTOR_LEAF, FLUTE, random_tree


# The oracle's relation in its first, direct form: the flag test inside the
# recursion, every position tried in turn, nothing memoized.  The oracle
# must decide exactly this relation, only faster.

def _ref_genus(t):
    return t.direct_genus or any(_ref_genus(c) for c in t.children)


def _ref_positions(t):
    return (t,) + _ref_cofinal(t)


def _ref_cofinal(t):
    return tuple(p for c in t.children for p in _ref_positions(c))


def _ref_same(a, b):
    if (a.self_accumulating != b.self_accumulating
            or _ref_genus(a) != _ref_genus(b)):
        return False
    cof_a, cof_b = _ref_cofinal(a), _ref_cofinal(b)
    return (all(any(_ref_same(q, c) for q in cof_a) for c in b.children)
            and all(any(_ref_same(d, q) for q in cof_b) for d in a.children))


def _ref_preceq(y, x):
    return any(_ref_same(y, p) for p in _ref_positions(x))


def _subtrees(t):
    yield t
    for c in t.children:
        yield from _subtrees(c)


def _with_subtrees(trees):
    """The trees and all their subtrees, without repeats: a sample in which
    many pairs are related, since a subtree precedes its tree."""
    return list(dict.fromkeys(itertools.chain.from_iterable(
        map(_subtrees, trees))))


class TestOracleExamples:
    def test_puncture_precedes_flute(self):
        assert oracle_preceq(PUNCTURE, FLUTE)

    def test_reflexive(self):
        assert oracle_preceq(FLUTE, FLUTE)

    def test_cantor_leaf_not_below_puncture(self):
        assert not oracle_preceq(CANTOR_LEAF, PUNCTURE)

    def test_flute_not_below_puncture(self):
        assert not oracle_preceq(FLUTE, PUNCTURE)

    def test_scale_guard(self):
        # the oracle's helpers are memoized per tree: a warm cache must not
        # turn the guard into a one-shot check, and a rejected tree must
        # never get a row of the family-match memo
        assert oracle_preceq(planar_tower(4), planar_tower(4))
        four = [PUNCTURE, FLUTE, CANTOR_LEAF, node(genus=True)]
        assert oracle_preceq(PUNCTURE, node(children=four))
        deep = planar_tower(6)
        five = node(children=four + [node(genus=True, cantor=True)])
        for bad in (deep, five):
            for _ in range(2):
                for call in (oracle_preceq, oracle_equivalent):
                    for y, x in ((bad, PUNCTURE), (PUNCTURE, bad), (bad, bad)):
                        with pytest.raises(OracleScaleError):
                            call(y, x)
            assert bad not in oracle._SAME


class TestOracleAgreement:
    def test_exhaustive_small_trees(self, small_tree_sweep):
        universe, disagreements = small_tree_sweep
        assert len(universe) > 500
        assert disagreements == []

    @pytest.mark.parametrize("max_nodes, count", [(3, 108), (4, 732),
                                                  (5, 4476)])
    def test_enumerate_trees_count(self, max_nodes, count):
        trees = enumerate_trees(max_nodes, 3, 3)
        assert len(trees) == count
        assert len(set(trees)) == count

    @pytest.mark.parametrize("max_nodes, digest", [
        (4, "fa1db1b2e77f702e980ed7e9e3222260976c0ca7557c630429f4a11c3ab66605"),
        (5, "d7beb560e1829cb93f51b5d8948ff57e9172c4d4b314687e6d46d7efe61898a0"),
    ])
    def test_enumerate_trees_order(self, max_nodes, digest):
        # the preorder-sweep benchmark shuffles this order by seed, so a
        # change of order changes its workload
        def raw(t):
            return (t.direct_genus, t.self_accumulating,
                    sorted(map(raw, t.children)))

        trees = enumerate_trees(max_nodes, 3, 3)
        assert hashlib.sha256(
            repr([raw(t) for t in trees]).encode()).hexdigest() == digest

    def test_random_depth3_trees(self, rng):
        for _ in range(3000):
            y = random_tree(rng, 3)
            x = random_tree(rng, 3)
            assert preceq(y, x) == oracle_preceq(y, x)
            assert equivalent(y, x) == oracle_equivalent(y, x)

    def test_genus_absorption_agreement(self):
        a = node(genus=True, children=[node(genus=True)])
        b = node(children=[node(genus=True)])
        assert equivalent(a, b)
        assert oracle_equivalent(a, b)

    def test_cantor_absorption_agreement(self):
        a = node(cantor=True, children=[FLUTE])
        b = node(cantor=True, children=[FLUTE, PUNCTURE])
        assert equivalent(a, b) and oracle_equivalent(a, b)

    def test_stacked_cantor_classes_stay_distinct(self):
        stack = node(cantor=True, children=[CANTOR_LEAF])
        assert not equivalent(stack, CANTOR_LEAF)
        assert not oracle_equivalent(stack, CANTOR_LEAF)
        assert oracle_preceq(CANTOR_LEAF, stack)
        assert not oracle_preceq(stack, CANTOR_LEAF)


@pytest.fixture(scope="module")
def universe_5():
    return enumerate_trees(5, 3, 3)


class TestOracleSelfChecks:
    def test_matches_direct_definition_on_5_node_pairs(self, rng,
                                                       universe_5):
        pairs = [(rng.choice(universe_5), rng.choice(universe_5))
                 for _ in range(5000)]
        pairs += itertools.product(
            _with_subtrees(rng.sample(universe_5, 45)), repeat=2)
        for y, x in pairs:
            assert oracle_preceq(y, x) == _ref_preceq(y, x), (y, x)
            assert oracle_equivalent(y, x) == _ref_same(y, x), (y, x)

    def test_transitive_on_5_node_triples(self, rng, universe_5):
        # every triple of distinct sample trees: y <= x and x <= w give y <= w
        sample = _with_subtrees(rng.sample(universe_5, 150))
        below = {x: [y for y in sample if y is not x and oracle_preceq(y, x)]
                 for x in sample}
        chains = 0
        for x in sample:
            for w in sample:
                if x is not w and oracle_preceq(x, w):
                    for y in below[x]:
                        assert oracle_preceq(y, w), (y, x, w)
                        chains += 1
        assert chains > 1000
