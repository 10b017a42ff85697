"""Exhaustive census of small canonical specs, with every NO witness
character re-derived by the brute-force oracle.

The universe: one or two root classes drawn from the canonical classes of
``enumerate_trees(3, 3, 3)``, each of multiplicity 1, 2 or CANTOR, with
0 to 2 extra punctures and 0 or 1 extra genus.  The witness model check
(acceptance criterion 8) reads nothing from the spec but a multiplicity,
so it cannot notice a character the surface does not have; the checks
here decide each character from the raw trees and the oracle's preorder,
without ``e_cp`` or ``immediate_predecessors``.  Every NO witness also
passes that model check, every spec round-trips through its text, every
YES has ``lower <= upper``, and the specs of the countable gap are pinned.
"""

import collections
import hashlib
import itertools

import pytest

from endcalc.classify import Verdict, generator_bounds, tng_verdict
from endcalc.dsl import parse, spec_to_text
from endcalc.endspace import (
    CANTOR,
    SurfaceSpec,
    canonicalize,
    canonicalize_spec,
    format_type,
)
from endcalc.oracle import enumerate_trees, oracle_preceq
from conftest import check_witness_on_models


@pytest.fixture(scope="module")
def census():
    """Every distinct valid canonical spec of the universe, with its
    verdict.  The canonical roots are built once per root combination;
    extra punctures and genus then vary on them."""
    classes = {canonicalize(t) for t in enumerate_trees(3, 3, 3)}
    assert len(classes) == 62
    mults = (1, 2, CANTOR)
    combos = [((t, m),) for t in classes for m in mults]
    combos += [((a, m), (b, n)) for a, b in itertools.combinations(classes, 2)
               for m in mults for n in mults]
    bases = set()
    for roots in combos:
        base, diags = canonicalize_spec(SurfaceSpec(roots=roots))
        if not diags:
            bases.add((base.roots, base.extra_punctures))
    specs = {}
    for roots, punctures in bases:
        for p, g in itertools.product(range(3), range(2)):
            s, diags = canonicalize_spec(
                SurfaceSpec(roots, (), punctures + p, g))
            assert not diags
            specs[s.roots, s.extra_punctures, s.extra_genus] = s
    return [(s, tng_verdict(s)) for s in specs.values()]


def test_census_size_and_rule_histogram(census):
    assert len(census) == 7212
    assert collections.Counter(v.rule for _, v in census) == {
        "unknown": 6197,
        "cantor-plus-tame-end": 501,
        "unresolved-extra-genus": 304,
        "noncyclic-abelian-quotient": 108,
        "noncyclic-quotient-unavailable": 41,
        "telescoping": 31,
        "malestein-tao-involution": 19,
        "rokhlin": 9,
        "double-flux-obstruction": 2,
    }


def test_census_round_trips_and_bounds(census):
    assert [s for s, _ in census if parse(spec_to_text(s)) != s] == []
    bounds = [generator_bounds(s) for s, v in census
              if v.verdict is Verdict.YES]
    assert bounds and all(b.lower <= b.upper for b in bounds)


def test_census_no_witnesses_pass_the_model_check(census):
    no = [(s, v.witness) for s, v in census if v.verdict is Verdict.NO]
    assert len(no) == 110
    for s, w in no:
        check_witness_on_models(w, s, products=50)


def test_census_countable_gap_pinned(census):
    # countable specs left UNKNOWN because the model has no non-cyclic
    # quotient for them: any change to the set shows here
    gap = [s for s, v in census if v.rule == "noncyclic-quotient-unavailable"]
    assert len(gap) == 41
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
    chars = [(s, c) for s, v in census if v.verdict is Verdict.NO
             for c in v.witness.characters]
    wrong = [(s, c) for s, c in chars if not _character_holds(s, c)]
    assert wrong == []
    assert len(chars) == 220  # two characters on each of 110 witnesses
