import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import endcalc.classify as cl
import endcalc.endspace as endspace
from endcalc.classify import (
    RULE_CANTOR_PLUS_END,
    RULE_DOUBLE_FLUX,
    RULE_EXTRA_GENUS,
    RULE_INVOLUTION,
    RULE_OBSTRUCTION,
    RULE_OBSTRUCTION_GAP,
    RULE_ROKHLIN,
    RULE_TELESCOPING,
    RULE_UNKNOWN,
    SelfSimilarity,
    Verdict,
    classify,
    generator_bounds,
    self_similarity,
    tng_verdict,
    validate,
)
from endcalc.endspace import (
    CANTOR,
    MAX_DEPTH,
    PUNCTURE,
    SpecError,
    SurfaceSpec,
    canonicalize_spec,
    node,
    planar_tower,
)
from endcalc.dsl import emit_report, parse
from endcalc.oracle import enumerate_trees
from conftest import (CANTOR_LEAF, FLUTE, LOCH_NESS, check_shared_predecessors,
                      check_witness_on_models, load_surfgen, random_spec,
                      random_tree, type_closure)

BLOOM = node(genus=True, cantor=True)

FLUTE_SPEC = SurfaceSpec(roots=((FLUTE, 1),))
LOCH_SPEC = SurfaceSpec(roots=((LOCH_NESS, 1),))
TOWERS2_SPEC = SurfaceSpec(roots=((planar_tower(2), 2),))
LADDER_SPEC = SurfaceSpec(roots=((LOCH_NESS, 2),))
THREE_ENDS_SPEC = SurfaceSpec(roots=(
    (FLUTE, 1), (node(genus=True, children=[PUNCTURE]), 1), (LOCH_NESS, 1)))
CANTOR_SPEC = SurfaceSpec(roots=((CANTOR_LEAF, CANTOR),))
BLOOM_SPEC = SurfaceSpec(roots=((BLOOM, CANTOR),))
CANTOR_1P = SurfaceSpec(roots=((CANTOR_LEAF, CANTOR),), extra_punctures=1)
CANTOR_2P = SurfaceSpec(roots=((CANTOR_LEAF, CANTOR),), extra_punctures=2)
CANTOR_LOCH = SurfaceSpec(roots=((BLOOM, CANTOR), (LOCH_NESS, 1)))
DOUBLE_FLUX = SurfaceSpec(roots=(
    (node(cantor=True, children=[FLUTE, LOCH_NESS]), CANTOR),
    (node(children=[FLUTE, LOCH_NESS]), 1)))


class TestValidate:
    def test_flute_ok(self):
        res = validate(FLUTE_SPEC)
        assert not res.diagnostics and res.canonical is not None
        assert any("tame" in n for n in res.notes)

    @pytest.mark.parametrize("text, noted", [
        ("root acc([cantor()])", False),
        ("root acc([acc([cantor()])])", False),
        ("root acc(genus,[cantor(genus)])\nroot omega+1", False),
        ("root cantor([cantor()])", True),
        ("root acc([cantor([cantor()])])", True),
        ("root acc([cantor()]) * cantor", True),
    ])
    def test_cantor_over_cantor_note(self, text, noted):
        # only a Cantor class with a Cantor class below it gets the note
        notes = validate(parse(text)).notes
        assert any("accumulated by further Cantor classes" in n
                   for n in notes) == noted

    def test_bad_subordinate(self):
        res = validate(SurfaceSpec(roots=((FLUTE, 1),),
                                   subordinates=((LOCH_NESS, 1),)))
        assert res.canonical is None
        assert any("subordinate not below any root" in d
                   for d in res.diagnostics)

    def test_finite_type_rejected(self):
        res = validate(SurfaceSpec(extra_punctures=5, extra_genus=2))
        assert res.canonical is None
        assert any("finite-type" in d for d in res.diagnostics)

    def test_classify_raises_on_invalid(self):
        with pytest.raises(SpecError):
            classify(SurfaceSpec(extra_punctures=1))


class TestSelfSimilarity:
    def test_uniquely(self):
        assert self_similarity(FLUTE_SPEC) is SelfSimilarity.UNIQUELY

    def test_perfectly(self):
        assert self_similarity(CANTOR_SPEC) is SelfSimilarity.PERFECTLY

    def test_not_for_repeated_class(self):
        assert self_similarity(TOWERS2_SPEC) is SelfSimilarity.NOT

    def test_extras_break_self_similarity(self):
        assert self_similarity(CANTOR_1P) is SelfSimilarity.NOT


class TestVerdicts:
    def test_flute_rokhlin(self):
        v = tng_verdict(FLUTE_SPEC)
        assert (v.verdict, v.rule) == (Verdict.YES, RULE_ROKHLIN)
        assert v.witness is None

    def test_loch_rokhlin(self):
        v = tng_verdict(LOCH_SPEC)
        assert (v.verdict, v.rule) == (Verdict.YES, RULE_ROKHLIN)

    def test_two_towers_obstructed(self):
        v = tng_verdict(TOWERS2_SPEC)
        assert (v.verdict, v.rule) == (Verdict.NO, RULE_OBSTRUCTION)
        w = v.witness
        assert (w.free_rank, w.torsion2) == (0, 2)
        kinds = sorted(c.kind for c in w.characters)
        assert kinds == ["FLUX_MOD2", "PARITY"]

    def test_ladder_obstructed_via_handle(self):
        v = tng_verdict(LADDER_SPEC)
        assert (v.verdict, v.rule) == (Verdict.NO, RULE_OBSTRUCTION)
        assert any(c.kind == "FLUX_MOD2" and c.z == "handle"
                   for c in v.witness.characters)

    def test_three_ends_double_flux(self):
        v = tng_verdict(THREE_ENDS_SPEC)
        assert (v.verdict, v.rule) == (Verdict.NO, RULE_OBSTRUCTION)
        w = v.witness
        assert (w.free_rank, w.torsion2) == (2, 0)
        zs = sorted(c.z for c in w.characters)
        assert zs == ["handle", "puncture"]

    def test_cantor_telescoping(self):
        assert tng_verdict(CANTOR_SPEC).rule == RULE_TELESCOPING
        assert tng_verdict(BLOOM_SPEC).rule == RULE_TELESCOPING

    def test_cantor_plus_puncture(self):
        v = tng_verdict(CANTOR_1P)
        assert (v.verdict, v.rule) == (Verdict.YES, RULE_INVOLUTION)

    def test_cantor_plus_simple_end(self):
        v = tng_verdict(CANTOR_LOCH)
        assert (v.verdict, v.rule) == (Verdict.YES, RULE_CANTOR_PLUS_END)

    def test_cantor_plus_complex_end_not_covered(self):
        # two immediate predecessors at the isolated end: the sufficient
        # condition no longer applies, but the two types do not both shift
        # into the Cantor class, so no obstruction fires either
        u = node(children=[FLUTE, LOCH_NESS])
        s = SurfaceSpec(roots=((BLOOM, CANTOR), (u, 1)))
        v = tng_verdict(s)
        assert (v.verdict, v.rule) == (Verdict.UNKNOWN, RULE_UNKNOWN)

    def test_double_flux_obstruction(self):
        v = tng_verdict(DOUBLE_FLUX)
        assert (v.verdict, v.rule) == (Verdict.NO, RULE_DOUBLE_FLUX)
        assert (v.witness.free_rank, v.witness.torsion2) == (2, 0)

    def test_cantor_two_punctures_open(self):
        v = tng_verdict(CANTOR_2P)
        assert (v.verdict, v.rule) == (Verdict.UNKNOWN, RULE_UNKNOWN)
        assert any("open question" in n for n in v.notes)

    def test_extra_genus_guard(self):
        v = tng_verdict(SurfaceSpec(roots=((FLUTE, 1),), extra_genus=1))
        assert (v.verdict, v.rule) == (Verdict.UNKNOWN, RULE_EXTRA_GENUS)

    def test_extra_genus_absorbed_when_genus_end_exists(self):
        v = tng_verdict(SurfaceSpec(roots=((LOCH_NESS, 1),), extra_genus=3))
        assert (v.verdict, v.rule) == (Verdict.YES, RULE_ROKHLIN)

    def test_obstruction_gap_degrades_to_unknown(self):
        # one simple genus end plus two isolated punctures: not uniquely
        # self-similar, but only one character (the puncture parity) exists
        s = SurfaceSpec(roots=((LOCH_NESS, 1),), extra_punctures=2)
        v = tng_verdict(s)
        assert (v.verdict, v.rule) == (Verdict.UNKNOWN, RULE_OBSTRUCTION_GAP)
        assert v.witness is None

    def test_monotonicity_of_uniqueness(self):
        # bumping the unique root to multiplicity two flips YES to NO,
        # for every uniquely self-similar spec in the bundled corpus
        from pathlib import Path
        from endcalc.dsl import parse
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        checked = 0
        for path in sorted(corpus.glob("*.surf")):
            spec = parse(path.read_text())
            if self_similarity(spec) is not SelfSimilarity.UNIQUELY:
                continue
            assert tng_verdict(spec).verdict is Verdict.YES
            (t, _), = spec.roots
            doubled = SurfaceSpec(roots=((t, 2),))
            assert tng_verdict(doubled).verdict is Verdict.NO
            checked += 1
        assert checked == 2  # the flute and the genus-leaf surface


class TestBounds:
    def test_flute(self):
        b = generator_bounds(FLUTE_SPEC)
        assert (b.lower, b.upper) == (1, 1)
        assert (b.budget.shifts, b.budget.dehn, b.budget.handles) == (0, 0, 1)
        assert b.flux_rank == 0

    def test_three_ends(self):
        b = generator_bounds(THREE_ENDS_SPEC)
        assert (b.lower, b.upper) == (2, 9)
        assert (b.budget.shifts, b.budget.dehn, b.budget.handles) == (3, 3, 3)

    def test_two_towers_caveat(self):
        b = generator_bounds(TOWERS2_SPEC)
        assert (b.lower, b.upper) == (1, 1)
        assert any("information only" in n
                   for n in classify(TOWERS2_SPEC).notes)

    def test_flux_ranks(self):
        assert generator_bounds(FLUTE_SPEC).flux_rank == 0
        assert generator_bounds(TOWERS2_SPEC).flux_rank == 1
        three_flutes = SurfaceSpec(roots=((FLUTE, 3),))
        assert generator_bounds(three_flutes).flux_rank == 2
        assert generator_bounds(THREE_ENDS_SPEC).flux_rank == 1

    def test_flux_rank_uncountable_error(self):
        # the flux rank is certified for countable end spaces only
        assert generator_bounds(CANTOR_SPEC).flux_rank is None

    def test_handle_pairs(self):
        assert generator_bounds(LADDER_SPEC).handle_pair_generators == 1
        assert generator_bounds(THREE_ENDS_SPEC).handle_pair_generators == 1
        assert generator_bounds(FLUTE_SPEC).handle_pair_generators == 0

    def test_abelianization_upper(self):
        assert generator_bounds(CANTOR_SPEC).abelianization_upper == 1
        assert generator_bounds(CANTOR_1P).abelianization_upper == 1
        assert generator_bounds(FLUTE_SPEC).abelianization_upper is None
        assert generator_bounds(CANTOR_LOCH).abelianization_upper is None

    def test_budget_identity(self):
        # the three budgets add up to the upper-bound formula exactly
        for m in range(2, 51):
            for c in range(1, 51):
                assert c * m + max(0, m * (m - 2)) + m == m * (m + c - 1)

    def test_flux_rank_zero_iff_no_shared_predecessor(self, rng):
        from endcalc.endspace import immediate_predecessors
        for _ in range(120):
            s = random_spec(rng, countable=True)
            admits = {}
            for t, m in s.roots:
                for z in immediate_predecessors(t):
                    admits[z] = admits.get(z, 0) + m
            expected_zero = all(n == 1 for n in admits.values())
            assert (generator_bounds(s).flux_rank == 0) == expected_zero

    def test_shared_predecessors_match_e_cp_on_generated_surfaces(self):
        surfgen = load_surfgen()
        checked = 0
        for index in range(1500):
            surface = surfgen.make_surface(5, index)
            if surface.valid:
                check_shared_predecessors(parse(surface.text))
                checked += 1
        assert checked > 700


KNOWN_RULES = {
    RULE_ROKHLIN, RULE_OBSTRUCTION, RULE_OBSTRUCTION_GAP, RULE_TELESCOPING,
    RULE_INVOLUTION, RULE_CANTOR_PLUS_END, RULE_DOUBLE_FLUX, RULE_UNKNOWN,
    RULE_EXTRA_GENUS,
}


class TestRuleTable:
    def test_readme_lists_the_rules_in_match_order(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md"
                  ).read_text(encoding="utf-8")
        section = readme.split("## Verdict rules\n", 1)[1].split("\n## ")[0]
        tags = [line.split("`")[1] for line in section.splitlines()
                if line.startswith("| `")]
        assert sorted(tags) == sorted(
            v for k, v in vars(cl).items() if k.startswith("RULE_"))
        # tng_verdict checks extra genus before anything else: a repeated
        # flute with genus 1 would otherwise match the obstruction rule
        v = tng_verdict(parse("root omega + 1 * 2\ngenus 1\n"))
        assert v.rule == tags[0] == RULE_EXTRA_GENUS
        assert tags[-1] == RULE_UNKNOWN

    def test_total_and_exclusive_on_random_specs(self, rng):
        seen = set()
        for _ in range(1000):
            s = random_spec(rng)
            v = tng_verdict(s)
            assert v.rule in KNOWN_RULES
            assert (v.verdict is Verdict.NO) == (v.witness is not None)
            if v.witness is not None:
                assert v.witness.is_noncyclic()
            if v.verdict is Verdict.UNKNOWN:
                assert v.notes
            seen.add(v.rule)
        assert RULE_ROKHLIN in seen and RULE_OBSTRUCTION in seen

    def test_lower_at_most_upper_when_yes(self, rng):
        for _ in range(1000):
            s = random_spec(rng)
            v = tng_verdict(s)
            if v.verdict is Verdict.YES:
                b = generator_bounds(s)
                assert b.lower <= b.upper

    def test_witnesses_sound_on_random_no_specs(self, rng):
        checked = 0
        for _ in range(400):
            s = random_spec(rng)
            v = tng_verdict(s)
            if v.verdict is Verdict.NO:
                check_witness_on_models(v.witness, s, products=40,
                                        seed=rng.randrange(10**6))
                checked += 1
        assert checked >= 30


class TestClassifyAssembly:
    def test_report_fields(self):
        r = classify(THREE_ENDS_SPEC)
        assert r.spec.countable
        assert r.bounds.invariants.M == 3
        assert r.verdict.verdict is Verdict.NO
        assert r.bounds.upper == 9
        assert r.notes


class TestTrustContract:
    """A validated spec, one with a ``similarity``, is trusted as
    canonical; only canonicalize_spec sets it."""

    def test_parse_then_classify_canonicalizes_once(self, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s)
            return canonicalize_spec(s)

        monkeypatch.setattr(cl, "canonicalize_spec", counting)
        monkeypatch.setattr(endspace, "canonicalize_spec", counting)
        r = classify(parse("root omega^2 + 1 * 2\nroot acc(genus,[]) * 3\n"
                           "punctures 2\n"))
        assert r.verdict.verdict is Verdict.NO
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [
        "root omega^2 + 1 * 2\nroot acc(genus,[]) * 3\npunctures 2\n",
        "root cantor(genus,[omega+1]) * cantor\npunctures 1\n",
        "root omega + 1\nsub omega + 1 * 2\ngenus 1\n",
    ])
    def test_parse_then_classify_computes_each_value_once(self, monkeypatch,
                                                          text):
        calls = []

        def counting(name):
            original = getattr(cl, name)

            def wrapper(s):
                calls.append(name)
                return original(s)
            monkeypatch.setattr(cl, name, wrapper)

        for name in ("validate", "invariant_bundle", "tng_verdict",
                     "self_similarity"):
            counting(name)
        for fmt in ("JSON", "TEXT"):
            r = classify(parse(text))
            emit_report(r, fmt)
        assert sorted(calls) == sorted(
            ["validate", "invariant_bundle", "tng_verdict"] * 2)

    def test_bounds_do_not_run_the_verdict(self, monkeypatch, rng):
        def forbidden(s):
            raise AssertionError("generator_bounds ran tng_verdict")

        monkeypatch.setattr(cl, "tng_verdict", forbidden)
        for s in (TOWERS2_SPEC, CANTOR_SPEC, THREE_ENDS_SPEC, DOUBLE_FLUX):
            generator_bounds(s)
        for _ in range(50):
            generator_bounds(random_spec(rng))

    def test_is_countable_is_the_closure_walk(self, rng):
        # raw specs: unflagged CANTOR roots, Cantor types only below a root
        # or in a subordinate, invalid specs too
        seen = set()
        for _ in range(400):
            roots = tuple(
                (random_tree(rng, rng.randint(0, 3), p_cantor=0.1),
                 rng.choice((1, 2, 2, 3, CANTOR)))
                for _ in range(rng.randint(1, 3)))
            subs = tuple((random_tree(rng, rng.randint(0, 2), p_cantor=0.15),
                          rng.randint(1, 2))
                         for _ in range(rng.choice((0, 0, 1, 2))))
            s = SurfaceSpec(roots=roots, subordinates=subs)
            expected = (all(m is not CANTOR for _, m in roots)
                        and not any(t.self_accumulating
                                    for t in type_closure(s)))
            assert s.countable == expected
            seen.add((expected, bool(subs)))
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}
        for t in enumerate_trees(5, 3, 3):
            s = SurfaceSpec(roots=((t, 1),))
            assert s.countable == (not any(
                u.self_accumulating for u in type_closure(s)))
        # a Cantor class at the foot of a tower, past MAX_DEPTH too
        for k in (1, MAX_DEPTH, MAX_DEPTH + 1):
            t = CANTOR_LEAF
            for _ in range(k):
                t = node(children=[t])
            assert not SurfaceSpec(roots=((t, 1),)).countable
            assert SurfaceSpec(roots=((planar_tower(k), 1),)).countable

    def test_replaced_spec_is_not_trusted(self):
        parsed = parse("root omega^2 + 1")
        assert parsed.similarity is SelfSimilarity.UNIQUELY
        (root,) = parsed.roots
        doubled = SurfaceSpec(roots=(root, root),
                              subordinates=parsed.subordinates,
                              extra_punctures=parsed.extra_punctures,
                              extra_genus=parsed.extra_genus)
        assert doubled.similarity is None
        with pytest.raises(AttributeError):
            parsed.similarity = SelfSimilarity.NOT
        with pytest.raises(TypeError):
            SurfaceSpec(roots=parsed.roots, similarity=SelfSimilarity.NOT)
        expected = parse("root omega^2 + 1 * 2")
        res = validate(doubled)
        assert (res.canonical == expected
                and res.canonical.similarity is SelfSimilarity.NOT)
        assert (emit_report(classify(doubled))
                == emit_report(classify(expected)))
        assert tng_verdict(doubled) == tng_verdict(expected)
        assert tng_verdict(doubled).verdict is Verdict.NO
        assert self_similarity(doubled) is SelfSimilarity.NOT
        assert generator_bounds(doubled) == generator_bounds(expected)
        assert (generator_bounds(doubled).flux_rank
                == generator_bounds(expected).flux_rank == 1)
        assert (generator_bounds(doubled).handle_pair_generators
                == generator_bounds(expected).handle_pair_generators)

    @pytest.mark.parametrize("raw", [
        SurfaceSpec(roots=((FLUTE, 0),)),
        SurfaceSpec(roots=((FLUTE, 1),), extra_punctures=-1),
        SurfaceSpec(roots=((FLUTE, 1),), subordinates=((LOCH_NESS, 1),)),
        SurfaceSpec(roots=((PUNCTURE, 2),), extra_genus=1),
        SurfaceSpec(),
    ])
    def test_spec_with_diagnostics_is_never_marked(self, raw):
        out, diags = canonicalize_spec(raw)
        assert diags and out.similarity is None
        with pytest.raises(SpecError):
            classify(raw)

    def test_marker_takes_no_part_in_value(self):
        parsed = parse("root omega + 1 * 2\nroot acc(genus,[])\n")
        built = SurfaceSpec(roots=((LOCH_NESS, 1), (FLUTE, 2)))
        assert parsed.similarity is not None and built.similarity is None
        assert built == parsed and hash(built) == hash(parsed)
        assert repr(built) == repr(parsed)

    def test_pickle_round_trip_keeps_value(self):
        parsed = parse("root cantor(genus,[omega+1]) * cantor\npunctures 1\n")
        copy = pickle.loads(pickle.dumps(parsed))
        assert copy == parsed and hash(copy) == hash(parsed)
        assert emit_report(classify(copy)) == emit_report(classify(parsed))


def _loaded_after(statement, module):
    """What a fresh interpreter prints for ``module in sys.modules`` after
    running ``statement``."""
    code = "import sys; %s; print(%r in sys.modules)" % (statement, module)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ,
                                  PYTHONPATH=os.pathsep.join(sys.path)))
    return out.stdout


def test_submodule_name_binds_the_module():
    # the package exports no function under the submodule's name
    import endcalc
    import endcalc.classify as module
    assert module is sys.modules["endcalc.classify"] is endcalc.classify


def test_import_does_not_load_the_oracle():
    # the brute-force oracle is test-only machinery
    assert _loaded_after("import endcalc", "endcalc.oracle") == "False\n"


def test_cli_import_does_not_load_flux():
    # only the flux commands need the permutation models
    assert _loaded_after("import endcalc.cli", "endcalc.flux") == "False\n"


@pytest.mark.parametrize("module", ["endcalc.cli", "endcalc.flux"])
@pytest.mark.parametrize("heavy", ["dataclasses", "inspect"])
def test_import_does_not_load_dataclasses(module, heavy):
    # the records are plain __slots__ classes: a cold process skips the
    # dataclasses machinery and the inspect, ast and dis modules it loads
    assert _loaded_after("import " + module, heavy) == "False\n"
