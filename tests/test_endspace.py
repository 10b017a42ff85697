import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest

from endcalc.endspace import (
    CANTOR,
    EndType,
    MAX_DEPTH,
    PUNCTURE,
    SpecError,
    SurfaceSpec,
    below,
    canonicalize,
    canonicalize_spec,
    e_cp,
    equivalent,
    format_type,
    immediate_predecessors,
    in_EG,
    invariant_bundle,
    node,
    planar_tower,
    preceq,
    sort_key,
)
from endcalc.dsl import parse
from endcalc.oracle import enumerate_trees
from conftest import (CANTOR_LEAF, FLUTE, LOCH_NESS, random_canonical_tree,
                      random_tree, reference_sort_key, type_closure)


def _chain(base, k: int):
    """k plain nodes, each with the one child below it, over base."""
    for _ in range(k):
        base = node(children=[base])
    return base


def _tower_height(t):
    """The height of a pure planar tower over a puncture, else None (a
    plain walk)."""
    if t.direct_genus or t.self_accumulating or len(t.children) > 1:
        return None
    for c in t.children:
        k = _tower_height(c)
        return None if k is None else k + 1
    return 0


def _tower_name(k: int) -> str:
    return ("puncture", "omega+1")[k] if k < 2 else "omega^%d+1" % k


class TestInterning:
    def test_equal_structure_is_one_object(self):
        by_node = node(genus=True, children=[PUNCTURE, CANTOR_LEAF])
        by_class = EndType(True, False, frozenset({EndType(), EndType(
            self_accumulating=True)}))
        by_keywords = EndType(direct_genus=True, children=frozenset(
            [CANTOR_LEAF, PUNCTURE]))
        assert by_node is by_class is by_keywords

    def test_parse_and_canonicalize_return_interned_nodes(self):
        (root, _), = parse("root acc([acc([puncture]), puncture])\n").roots
        assert root is canonicalize(node(children=[FLUTE, PUNCTURE]))
        assert root is planar_tower(2)
        assert canonicalize(node(children=[PUNCTURE])) is FLUTE

    def test_copies_and_pickles_are_the_same_object(self):
        t = node(cantor=True, children=[FLUTE, node(genus=True)])
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, (t,)])[1][0] is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_immutable(self):
        with pytest.raises(AttributeError):
            FLUTE.direct_genus = True
        with pytest.raises(AttributeError):
            FLUTE.extra = 1
        with pytest.raises(AttributeError):
            del FLUTE.children
        assert not FLUTE.direct_genus

    def test_depth_matches_recursive_definition(self):
        def depth(t):
            return 1 + max(depth(c) for c in t.children) if t.children else 0

        for t in enumerate_trees(4, 3, 3):
            assert t.depth() == depth(t)

    def test_threads_building_the_same_nodes_share_them(self):
        # more threads than cores, switching as often as possible: a lost
        # race in the intern table would hand two threads different nodes
        start = threading.Barrier(4)
        built = [None] * 4

        def build(i):
            start.wait()
            t, chain = LOCH_NESS, []
            for _ in range(3000):
                t = node(genus=True, cantor=True, children=[t, CANTOR_LEAF])
                chain.append(t)
            built[i] = chain

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(len(chain) == 3000 for chain in built)
        for nodes in zip(*built):
            assert all(t is nodes[0] for t in nodes)

    def test_deep_tower_hashes_and_compares(self):
        tower = planar_tower(5000)
        assert tower.depth() == 5000
        assert tower is planar_tower(5000)
        assert tower == planar_tower(5000) and tower != planar_tower(4999)
        assert {tower: 1}[planar_tower(5000)] == 1

    def test_negative_tower_depth_rejected(self):
        with pytest.raises(ValueError, match="tower depth must be nonnegative"):
            planar_tower(-1)


class TestDepthLimit:
    @pytest.mark.parametrize("walk", [canonicalize, below, in_EG, format_type,
                                      sort_key])
    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
    def test_deeper_trees_raise_value_error(self, walk, depth):
        with pytest.raises(ValueError) as exc:
            walk(planar_tower(depth))
        assert str(exc.value) == ("type depth %d exceeds MAX_DEPTH (%d)"
                                  % (depth, MAX_DEPTH))

    def test_walks_reach_the_limit_with_cold_caches(self):
        # a fresh interpreter: no shallower tower is cached, and in_EG runs
        # before canonicalize could fill its cache bottom-up
        code = ("from endcalc.endspace import *; t = planar_tower(MAX_DEPTH); "
                "print(in_EG(t), format_type(t), len(below(canonicalize(t))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env=dict(os.environ,
                                      PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout == "False omega^%d+1 %d\n" % (MAX_DEPTH, MAX_DEPTH)

    def test_walks_recurse_one_frame_per_level(self):
        # a fresh interpreter with cold caches, each walk called 400 frames
        # deep on a legal non-tower chain: at two frames per level the
        # 1000-frame default limit runs out.  parse, whose type expressions
        # no longer recurse, reads the deepest nest and tower there too, and
        # one level deeper raises the ParseError it raises at top level
        n = MAX_DEPTH - 1
        code = ("from endcalc.endspace import *\n"
                "from endcalc.dsl import ParseError, parse\n"
                "def at(frames, walk, t):\n"
                "    return at(frames - 1, walk, t) if frames else walk(t)\n"
                "t = node(genus=True)\n"
                "for _ in range(MAX_DEPTH - 1):\n"
                "    t = node(children=[t])\n"
                "for walk in (canonicalize, below, format_type):\n"
                "    try:\n"
                "        print(walk.__name__, at(400, walk, t) == walk(t))\n"
                "    except RecursionError:\n"
                "        print(walk.__name__, 'RecursionError')\n"
                "print(format_type(t))\n"
                "for k in (MAX_DEPTH, MAX_DEPTH + 1):\n"
                "    for text in ('root ' + 'acc([' * k + '])' * k,\n"
                "                 'root omega^%d + 1' % k):\n"
                "        try:\n"
                "            print(at(400, parse, text) == parse(text))\n"
                "        except (ParseError, RecursionError) as e:\n"
                "            print(type(e).__name__, e)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env=dict(os.environ,
                                      PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout == (
            "canonicalize True\nbelow True\nformat_type True\n"
            + "acc([" * n + "acc(genus,[])" + "])" * n + "\n"
            + "True\nTrue\n"
            + "ParseError child lists nested deeper than %d at line 1, "
              "column %d\n" % (MAX_DEPTH, 6 + 5 * MAX_DEPTH + 4)
            + "ParseError exponent above the depth limit %d at line 1, "
              "column 12\n" % MAX_DEPTH)

    def test_repr_above_the_limit_shows_only_the_depth(self):
        assert (repr(planar_tower(MAX_DEPTH + 1))
                == "EndType(<depth %d>)" % (MAX_DEPTH + 1))
        assert repr(planar_tower(5000)) == "EndType(<depth 5000>)"
        at_limit = node(genus=True, children=[planar_tower(MAX_DEPTH - 1)])
        assert repr(at_limit) == "EndType('acc(genus,[omega^%d+1])')" % (
            MAX_DEPTH - 1)
        assert repr(planar_tower(MAX_DEPTH)) == "EndType('omega^%d+1')" % (
            MAX_DEPTH)


class TestSortKey:
    def test_matches_the_recursive_key(self):
        for t in enumerate_trees(5, 3, 3):
            assert sort_key(t) == reference_sort_key(t)
        for k in range(MAX_DEPTH + 1):
            assert sort_key(planar_tower(k)) == reference_sort_key(
                planar_tower(k))

    def test_deep_siblings_build_without_a_key(self):
        # two 1,500-deep towers differing only at the leaf: their keys
        # could not be compared within the recursion limit
        t = node(children=[_chain(PUNCTURE, 1500), _chain(LOCH_NESS, 1500)])
        assert t.depth() == 1501
        with pytest.raises(ValueError, match="MAX_DEPTH"):
            sort_key(t)


class TestCanonicalize:
    def test_absorbs_child_below_sibling(self):
        t = node(children=[PUNCTURE, FLUTE])
        assert canonicalize(t) == canonicalize(node(children=[FLUTE]))

    def test_puncture_is_fixed(self):
        assert canonicalize(PUNCTURE) == PUNCTURE

    def test_genus_absorption(self):
        t = node(genus=True, children=[LOCH_NESS])
        c = canonicalize(t)
        assert not c.direct_genus
        assert c == canonicalize(node(children=[LOCH_NESS]))

    def test_cantor_flag_not_absorbed_by_children(self):
        # a Cantor class over punctures differs from the plain Cantor class
        t = canonicalize(node(cantor=True, children=[PUNCTURE]))
        assert t.children
        assert not equivalent(t, CANTOR_LEAF)

    def test_idempotent_on_random_trees(self, rng):
        for _ in range(300):
            t = random_tree(rng, rng.randint(0, 4))
            c = canonicalize(t)
            assert canonicalize(c) == c
            assert equivalent(t, c)


class TestBelow:
    def test_leaf(self):
        assert below(PUNCTURE) == frozenset()

    def test_flute(self):
        assert below(canonicalize(FLUTE)) == frozenset({PUNCTURE})

    def test_cantor_leaf_contains_itself(self):
        assert below(CANTOR_LEAF) == frozenset({CANTOR_LEAF})


class TestPreceq:
    def test_reflexive(self):
        assert preceq(FLUTE, FLUTE)

    def test_puncture_below_flute(self):
        assert preceq(PUNCTURE, FLUTE)
        assert not preceq(FLUTE, PUNCTURE)

    def test_preorder_laws_on_random_trees(self, rng):
        trees = [random_canonical_tree(rng, 4) for _ in range(1000)]
        for t in trees:
            assert preceq(t, t)
        for _ in range(1500):
            a, b, c = rng.choice(trees), rng.choice(trees), rng.choice(trees)
            if preceq(a, b) and preceq(b, c):
                assert preceq(a, c)

    def test_equivalent_iff_mutual_preceq(self, rng):
        trees = [random_canonical_tree(rng, 3) for _ in range(150)]
        for a, b in itertools.product(trees[:40], repeat=2):
            assert equivalent(a, b) == (preceq(a, b) and preceq(b, a))

    def test_in_EG_monotone(self, rng):
        trees = [random_canonical_tree(rng, 3) for _ in range(200)]
        for _ in range(600):
            y, x = rng.choice(trees), rng.choice(trees)
            if preceq(y, x) and in_EG(y):
                assert in_EG(x)


class TestInEG:
    def test_puncture(self):
        assert not in_EG(PUNCTURE)

    def test_loch_ness(self):
        assert in_EG(LOCH_NESS)

    def test_accumulated_genus_end(self):
        assert in_EG(canonicalize(node(children=[LOCH_NESS])))

        def genus(t):  # the plain walk
            return t.direct_genus or any(genus(c) for c in t.children)

        for t in enumerate_trees(5, 3, 3):
            assert in_EG(t) == genus(t)
            assert in_EG(canonicalize(t)) == genus(t)
        for k in range(MAX_DEPTH + 1):
            assert in_EG(_chain(LOCH_NESS, k))
            assert not in_EG(planar_tower(k))


class TestImmediatePredecessors:
    def test_flute(self):
        assert immediate_predecessors(FLUTE) == frozenset({PUNCTURE})

    def test_loch_ness_handle(self):
        # handles are not end types: direct genus is a flag of the node
        assert immediate_predecessors(LOCH_NESS) == frozenset()
        assert canonicalize(LOCH_NESS).direct_genus

    def test_tower(self):
        assert immediate_predecessors(planar_tower(2)) == frozenset(
            {canonicalize(FLUTE)})

    def test_antichain_inside_below(self, rng):
        for _ in range(200):
            x = random_canonical_tree(rng, 3)
            preds = immediate_predecessors(x)
            for p in preds:
                assert p in below(x)
                assert not equivalent(p, x)
            for a, b in itertools.combinations(preds, 2):
                assert not preceq(a, b) and not preceq(b, a)

    def test_are_the_maximal_types_strictly_below(self):
        def reference(x):
            cx = canonicalize(x)
            rest = below(cx) - {cx}
            return frozenset(t for t in rest if not any(
                t2 != t and t in below(t2) for t2 in rest))

        rng = random.Random(17)
        trees = list(enumerate_trees(5, 3, 3))
        trees += [random_tree(rng, rng.randint(0, 5)) for _ in range(2000)]
        for x in trees:
            preds = immediate_predecessors(x)
            assert preds == reference(x)
            assert all(type(p) is EndType for p in preds)
        assert not hasattr(immediate_predecessors, "cache_info")


class TestSurfaceSpec:
    def test_flute_spec(self):
        s, diags = canonicalize_spec(SurfaceSpec(roots=((FLUTE, 1),)))
        assert not diags
        assert s.roots == ((canonicalize(FLUTE), 1),)

    def test_two_towers(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((planar_tower(2), 2),)))
        assert s.roots == ((planar_tower(2), 2),)

    def test_cantor_tree(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((CANTOR_LEAF, CANTOR),)))
        assert s.roots == ((CANTOR_LEAF, CANTOR),)

    def test_cantor_marker_and_flag_agree(self):
        # a finite multiplicity on a self-accumulating type upgrades to CANTOR
        s, _ = canonicalize_spec(SurfaceSpec(roots=((CANTOR_LEAF, 3),)))
        assert s.roots[0][1] is CANTOR
        # and a CANTOR marker forces the flag onto the type
        s2, _ = canonicalize_spec(SurfaceSpec(roots=((FLUTE, CANTOR),)))
        (t, m), = s2.roots
        assert t.self_accumulating and m is CANTOR

    @pytest.mark.parametrize("roots", [
        ((PUNCTURE, CANTOR),),
        ((node(), CANTOR), (PUNCTURE, 2)),
        ((FLUTE, 1), (PUNCTURE, CANTOR)),
    ], ids=["alone", "with-finite-punctures", "beside-a-flute"])
    def test_cantor_class_of_punctures_diagnosed(self, roots):
        s, diags = canonicalize_spec(SurfaceSpec(roots=roots))
        assert "a Cantor class of isolated punctures is not a valid end " \
            "structure" in diags
        assert s.similarity is None

    def test_equivalent_roots_merge(self):
        raw = SurfaceSpec(roots=((FLUTE, 1), (node(children=[PUNCTURE]), 2)))
        s, diags = canonicalize_spec(raw)
        assert not diags
        assert s.roots == ((canonicalize(FLUTE), 3),)

    def test_dominated_root_absorbed(self):
        raw = SurfaceSpec(roots=((FLUTE, 1), (PUNCTURE, 2)))
        s, diags = canonicalize_spec(raw)
        assert not diags
        assert len(s.roots) == 1 and s.extra_punctures == 0

    def test_subordinate_below_root_absorbed(self):
        raw = SurfaceSpec(roots=((planar_tower(2), 1),),
                          subordinates=((FLUTE, 4),))
        s, diags = canonicalize_spec(raw)
        assert not diags and not s.subordinates

    def test_subordinate_count_must_be_positive(self):
        raw = SurfaceSpec(roots=((planar_tower(2), 1),),
                          subordinates=((FLUTE, 0),))
        _, diags = canonicalize_spec(raw)
        assert diags == ["subordinate count must be a positive integer: "
                         "omega+1"]

    def test_subordinate_not_below_root_diagnosed(self):
        raw = SurfaceSpec(roots=((FLUTE, 1),), subordinates=((LOCH_NESS, 1),))
        _, diags = canonicalize_spec(raw)
        assert any("subordinate not below any root" in d for d in diags)

    def test_validated_output_has_no_subordinates(self):
        # classify never looks at subordinates: it relies on this.  A
        # diagnosed output has none either.
        raw = SurfaceSpec(roots=((FLUTE, 1),), subordinates=((LOCH_NESS, 1),))
        s, diags = canonicalize_spec(raw)
        assert diags == ["subordinate not below any root: acc(genus,[])"]
        assert s.subordinates == () and s.similarity is None
        rng = random.Random(31)
        outcomes = set()
        for _ in range(3000):
            roots = tuple((random_tree(rng, rng.randint(0, 3)),
                           rng.choice((1, 2, CANTOR)))
                          for _ in range(rng.randint(1, 3)))
            subs = tuple((random_tree(rng, rng.randint(0, 3)),
                          rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3)))
            s, diags = canonicalize_spec(
                SurfaceSpec(roots=roots, subordinates=subs))
            assert (s.subordinates == ()
                    and (s.similarity is not None) == (not diags))
            outcomes.add(bool(diags))
        assert outcomes == {True, False}

    def test_extra_genus_absorbed_by_genus_end(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((LOCH_NESS, 1),),
                                             extra_genus=5))
        assert s.extra_genus == 0

    def test_maximal_types_are_exactly_the_maximal_closure_types(self, rng):
        from conftest import random_spec
        for _ in range(60):
            s = random_spec(rng)
            closure = type_closure(s)
            roots = set(s.root_types())
            maximal = {t for t in closure
                       if not any(t != u and preceq(t, u) and
                                  not equivalent(t, u) for u in closure)}
            assert roots == maximal


class TestECp:
    def test_two_towers_shared_flute(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((planar_tower(2), 2),)))
        t = planar_tower(2)
        assert e_cp(s, t, t) == frozenset({canonicalize(FLUTE)})

    def test_handle_never_counts(self):
        b = node(genus=True, children=[PUNCTURE])
        s, _ = canonicalize_spec(SurfaceSpec(roots=((b, 1), (LOCH_NESS, 1))))
        assert e_cp(s, canonicalize(b), LOCH_NESS) == frozenset()

    def test_singleton_pair_is_an_error(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((FLUTE, 1),)))
        t = canonicalize(FLUTE)
        with pytest.raises(ValueError):
            e_cp(s, t, t)

    def test_argument_not_a_root_type(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((FLUTE, 2),)))
        with pytest.raises(KeyError) as exc:
            e_cp(s, LOCH_NESS, canonicalize(FLUTE))
        assert exc.value.args == ("not a root type: acc(genus,[])",)

    def test_cantor_flagged_types_excluded(self):
        p = node(cantor=True, children=[CANTOR_LEAF, FLUTE])
        s, _ = canonicalize_spec(SurfaceSpec(roots=((p, CANTOR),)))
        pc = canonicalize(p)
        assert CANTOR_LEAF not in e_cp(s, pc, pc)
        assert canonicalize(FLUTE) in e_cp(s, pc, pc)


class TestInvariantBundle:
    def test_flute(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((FLUTE, 1),)))
        b = invariant_bundle(s)
        assert (b.M, b.C, b.M_iso) == (1, 0, 1)
        assert b.G0 == frozenset()

    def test_two_towers(self):
        s, _ = canonicalize_spec(SurfaceSpec(roots=((planar_tower(2), 2),)))
        b = invariant_bundle(s)
        assert (b.M, b.C, b.M_iso) == (1, 1, 1)

    def test_three_maximal_ends(self):
        a = FLUTE
        bb = node(genus=True, children=[PUNCTURE])
        c = LOCH_NESS
        s, _ = canonicalize_spec(SurfaceSpec(roots=((a, 1), (bb, 1), (c, 1))))
        b = invariant_bundle(s)
        assert (b.M, b.C, b.M_iso) == (3, 1, 3)
        assert b.G0 == frozenset({canonicalize(bb), LOCH_NESS})
        assert b.M == len(s.roots)
        assert b.M_iso <= b.M
        assert all(t.direct_genus for t in b.G0)

    def test_raw_spec_gives_the_canonical_answer(self, rng):
        # a raw root tree, an absorbed root, two equal roots and a CANTOR
        # root without the flag: the invariants of the canonical form
        raw_tree = node(children=[PUNCTURE, FLUTE])
        named = [SurfaceSpec(roots=((raw_tree, 2),)),
                 SurfaceSpec(roots=((PUNCTURE, 1), (FLUTE, 1))),
                 SurfaceSpec(roots=((FLUTE, 1), (FLUTE, 1))),
                 SurfaceSpec(roots=((FLUTE, CANTOR),))]
        assert [(b.M, b.C) for b in map(invariant_bundle, named)] == [
            (1, 1), (1, 0), (1, 1), (1, 1)]
        # a root given raw is found by its class, a CANTOR root's type also
        # without the self-accumulation flag its canonical form carries
        assert named[0].multiplicity(raw_tree) == 2
        assert named[3].multiplicity(FLUTE) is CANTOR
        # an exact match comes first
        flagged = node(cantor=True, children=[PUNCTURE])
        both = SurfaceSpec(roots=((FLUTE, 2), (flagged, CANTOR)))
        assert both.multiplicity(FLUTE) == 2
        assert both.multiplicity(flagged) is CANTOR
        assert e_cp(named[3], FLUTE, FLUTE) == frozenset({PUNCTURE})
        # a flagged puncture is cantor(), not a class of punctures
        with pytest.raises(KeyError):
            SurfaceSpec(roots=((CANTOR_LEAF, CANTOR),)).multiplicity(PUNCTURE)
        outcomes = set()
        for raw in named + [SurfaceSpec(
                roots=tuple((random_tree(rng, rng.randint(0, 3)),
                             rng.choice((1, 2, CANTOR)))
                            for _ in range(rng.randint(1, 3))),
                extra_punctures=rng.choice((0, 1, 2)))
                for _ in range(300)]:
            s, diags = canonicalize_spec(raw)
            outcomes.add(bool(diags))
            if diags:
                with pytest.raises(SpecError):
                    invariant_bundle(raw)
                continue
            assert invariant_bundle(raw) == invariant_bundle(s)
            types = s.root_types()
            pairs = list(itertools.combinations(types, 2))
            pairs += [(t, t) for t, m in s.roots if m is CANTOR or m >= 2]
            for a, b in pairs:
                assert e_cp(raw, a, b) == e_cp(s, a, b)
            for t in types:
                assert raw.multiplicity(t) == s.multiplicity(t)
        assert outcomes == {True, False}


class TestFormatType:
    def test_names(self):
        assert format_type(PUNCTURE) == "puncture"
        assert format_type(FLUTE) == "omega+1"
        assert format_type(planar_tower(3)) == "omega^3+1"
        assert format_type(LOCH_NESS) == "acc(genus,[])"
        assert format_type(CANTOR_LEAF) == "cantor()"
        # towers, and only towers, get ordinal names
        for t in enumerate_trees(5, 3, 3):
            k = _tower_height(canonicalize(t))
            if k is None:
                assert format_type(t).startswith(("acc(", "cantor("))
            else:
                assert format_type(t) == _tower_name(k)
        for k in range(MAX_DEPTH + 1):
            assert format_type(planar_tower(k)) == _tower_name(k)
        for k in range(MAX_DEPTH):
            genus = node(genus=True, children=[planar_tower(k)])
            assert format_type(genus) == "acc(genus,[%s])" % _tower_name(k)
