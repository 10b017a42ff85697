"""Exhaustive census of small canonical specs, with every NO witness
character and every counting invariant re-derived by the brute-force
oracle.

The universe and its cross-field checks live in ``tools/census.py``,
loaded here from its file: one or two root classes drawn from the
canonical classes of ``enumerate_trees(3, 3, 3)``, each of multiplicity
1, 2 or CANTOR, with 0 to 2 extra punctures and 0 or 1 extra genus.  The
witness model check (acceptance criterion 8) reads nothing from the spec
but a multiplicity, so it cannot notice a character the surface does not
have; the checks here decide each character, and ``C``, ``|G0|``,
``M_iso``, the flux rank and the handle-pair count, from the raw trees
and the oracle's preorder, without ``e_cp`` or
``immediate_predecessors``.  Every NO witness also passes that
model check, every spec round-trips through its text, every report passes
the cross-field checks, and the specs of the countable gap and the whole
output, in its order, are pinned.
"""

import collections
import hashlib
import math

import pytest

from endcalc.classify import SelfSimilarity, Verdict, self_similarity
from endcalc.dsl import parse, spec_to_text
from endcalc.endspace import CANTOR, PUNCTURE, format_type
from endcalc.oracle import oracle_equivalent, oracle_preceq
from conftest import (check_shared_predecessors, check_witness_on_models,
                      load_census_tool)


@pytest.fixture(scope="module")
def census():
    """(spec, verdict, bounds) for every distinct valid canonical spec of
    the universe."""
    return load_census_tool().census(3)


def test_census_size_and_rule_histogram(census):
    assert len(census) == 7212
    assert collections.Counter(v.rule for _, v, _ in census) == {
        "unknown": 6176,
        "cantor-plus-tame-end": 501,
        "unresolved-extra-genus": 304,
        "noncyclic-abelian-quotient": 108,
        "noncyclic-quotient-unavailable": 41,
        "telescoping": 31,
        "rokhlin": 30,
        "malestein-tao-involution": 19,
        "double-flux-obstruction": 2,
    }


def test_census_output_pinned(census):
    # every spec's text, rule and bounds, in list order: the census lists
    # its specs in the same order in every process
    assert hashlib.sha256("\0".join(
        "%s\t%s\t%d\t%d" % (spec_to_text(s), v.rule, b.lower, b.upper)
        for s, v, b in census).encode()).hexdigest() == (
        "ab1d3983a591cdc1e5e9e0a40d9d09ec386da440b87ec82448da7fcb29a4754a")


def test_census_round_trips_and_bounds(census):
    assert [s for s, _, _ in census if parse(spec_to_text(s)) != s] == []
    # the cross-field checks: lower <= upper on every spec, NO and UNKNOWN
    # included, and a self-similar spec is YES
    assert load_census_tool().failures(census) == []
    similar = collections.Counter(self_similarity(s) for s, _, _ in census)
    assert similar[SelfSimilarity.UNIQUELY] == 30
    assert similar[SelfSimilarity.PERFECTLY] == 31


def test_census_shared_predecessors_match_e_cp(census):
    for s, _, _ in census:
        check_shared_predecessors(s)


def test_census_no_witnesses_pass_the_model_check(census):
    no = [(s, v.witness) for s, v, _ in census if v.verdict is Verdict.NO]
    assert len(no) == 110
    for s, w in no:
        check_witness_on_models(w, s, products=50)


def test_census_countable_gap_pinned(census):
    # countable specs left UNKNOWN because the model has no non-cyclic
    # quotient for them: any change to the set shows here
    gap = [s for s, v, _ in census
           if v.rule == "noncyclic-quotient-unavailable"]
    assert len(gap) == 41
    # (roots, punctures): two simple maximal ends and no punctures, or one
    # and 1 to 4 punctures
    assert all(m == 1 for s in gap for _, m in s.roots)
    assert collections.Counter(
        (len(s.roots), s.extra_punctures) for s in gap) == {
        (2, 0): 29, (1, 1): 3, (1, 2): 3, (1, 3): 3, (1, 4): 3}
    assert hashlib.sha256("\0".join(
        sorted(spec_to_text(s) for s in gap)).encode()).hexdigest() == (
        "9599d028fbb6b7eed316cc043967e2e276aa478caf136f976f559e8ab9aed466")


# -- the oracle's account of a character ------------------------------------


def _positions(t):
    """Every node of the raw tree as a subtree, the root first."""
    yield t
    for c in t.children:
        yield from _positions(c)


def _strictly_below(y, x) -> bool:
    return oracle_preceq(y, x) and not oracle_preceq(x, y)


def _immediate(z, x) -> bool:
    """z is strictly below x, with no position of x strictly between."""
    return _strictly_below(z, x) and not any(
        _strictly_below(z, p) and _strictly_below(p, x)
        for p in _positions(x))


def _genus(t) -> bool:
    """Accumulated by genus somewhere in the tree."""
    return t.direct_genus or any(map(_genus, t.children))


def _direct_genus(t) -> bool:
    """Handles accumulate at t itself, not through any type below it."""
    return t.direct_genus and not any(map(_genus, t.children))


def _character_holds(s, c) -> bool:
    ends = {format_type(t): (t, m) for t, m in s.roots}
    if c.kind == "PARITY":
        if c.maximal_type == "puncture":
            return s.extra_punctures >= 2
        m = ends[c.maximal_type][1]
        return m is not CANTOR and m >= 2
    (a, m), (b, _) = ends[c.pair[0]], ends[c.pair[1]]
    if c.kind == "FLUX_MOD2" and not (a == b and m is not CANTOR and m >= 2):
        return False
    if c.z == "handle":
        return _direct_genus(a) and _direct_genus(b)
    z = {format_type(p): p for p in _positions(a)}.get(c.z)
    return (z is not None and not z.self_accumulating
            and _immediate(z, a) and _immediate(z, b))


def test_no_witness_characters_rederived_by_the_oracle(census):
    chars = [(s, c) for s, v, _ in census if v.verdict is Verdict.NO
             for c in v.witness.characters]
    wrong = [(s, c) for s, c in chars if not _character_holds(s, c)]
    assert wrong == []
    assert len(chars) == 220  # two characters on each of 110 witnesses


# -- the oracle's account of the counting invariants ------------------------


def _predecessor_classes(x) -> list:
    """One position of x per oracle class of its immediate predecessors."""
    reps = []
    for p in _positions(x):
        if _immediate(p, x) and not any(
                oracle_equivalent(p, r) for r in reps):
            reps.append(p)
    return reps


def _oracle_invariants(s, preds) -> tuple:
    """(C, |G0|, M_iso, flux rank, handle pairs) of a spec, decided on the
    root trees by the oracle; the flux rank is None, and the handle pairs
    0, when a Cantor class occurs."""
    roots = s.roots
    pairs = [(a, b) for i, (a, _) in enumerate(roots)
             for b, _ in roots[i + 1:]]
    pairs += [(t, t) for t, m in roots if m is CANTOR or m >= 2]
    c = max((sum(not z.self_accumulating and _immediate(z, b)
                 for z in preds[a]) for a, b in pairs), default=0)
    g0 = sum(_direct_genus(t) for t, _ in roots)
    m_iso = sum(m is not CANTOR and not oracle_equivalent(t, PUNCTURE)
                for t, m in roots)
    if any(m is CANTOR or any(p.self_accumulating for p in _positions(t))
           for t, m in roots):
        return c, g0, m_iso, None, 0
    handles = math.comb(sum(m for t, m in roots if _direct_genus(t)), 2)
    admits = []  # [class representative, maximal ends admitting it]
    for t, m in roots:
        for z in preds[t]:
            for entry in admits:
                if oracle_equivalent(entry[0], z):
                    entry[1] += m
                    break
            else:
                admits.append([z, m])
    return c, g0, m_iso, sum(n - 1 for _, n in admits), handles


def test_counting_invariants_rederived_by_the_oracle(census):
    preds = {t: _predecessor_classes(t)
             for t in {t for s, _, _ in census for t, _ in s.roots}}
    wrong = []
    ranks = 0
    for s, _, b in census:
        i = b.invariants
        expected = _oracle_invariants(s, preds)
        ranks += expected[3] is not None
        if (i.C, len(i.G0), i.M_iso, b.flux_rank,
                b.handle_pair_generators) != expected:
            wrong.append((spec_to_text(s), expected))
    assert wrong == []
    assert ranks == 162  # the countable specs
