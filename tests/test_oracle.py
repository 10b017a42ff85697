"""Differential tests: the production preorder against the search oracle."""

import pytest

from endcalc.endspace import (
    CANTOR_LEAF,
    PUNCTURE,
    equivalent,
    flute,
    node,
    planar_tower,
    preceq,
)
from endcalc.oracle import (
    OracleScaleError,
    enumerate_trees,
    oracle_equivalent,
    oracle_preceq,
)
from conftest import random_tree


FLUTE = flute()


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
        # turn the guard into a one-shot check
        assert oracle_preceq(planar_tower(4), planar_tower(4))
        deep = planar_tower(6)
        for _ in range(2):
            with pytest.raises(OracleScaleError):
                oracle_preceq(deep, PUNCTURE)
        four = [PUNCTURE, FLUTE, CANTOR_LEAF, node(genus=True)]
        assert oracle_preceq(PUNCTURE, node(children=four))
        five = node(children=four + [node(genus=True, cantor=True)])
        for _ in range(2):
            with pytest.raises(OracleScaleError):
                oracle_preceq(PUNCTURE, five)


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
