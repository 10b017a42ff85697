import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endcalc.classify import (
    Character,
    GeneratorImage,
    ObstructionWitness,
    classify,
)
from endcalc.dsl import (
    MAX_DEPTH,
    MAX_INT_DIGITS,
    ParseError,
    _Parser,
    _json,
    emit_report,
    parse,
    report_to_dict,
    spec_to_text,
)
from endcalc.endspace import (
    CANTOR,
    SpecError,
    SurfaceSpec,
    canonicalize,
    canonicalize_spec,
    node,
    planar_tower,
    require_valid,
)
from conftest import (CANTOR_LEAF, FLUTE, load_surfgen, mutated_text,
                      random_spec)
import reference_parser

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class TestParse:
    def test_flute(self):
        s = parse("root omega + 1")
        assert s == canonicalize_spec(
            SurfaceSpec(roots=((FLUTE, 1),)))[0]

    def test_two_towers(self):
        s = parse("root omega^2 * 2 + 1")
        (t, m), = s.roots
        assert t == planar_tower(2) and m == 2

    def test_ordinal_matches_explicit_nesting(self):
        # exhaustive agreement of the shorthand with explicit acc nesting
        for k in range(1, 5):
            for n in range(1, 4):
                sugar = parse("root omega^%d * %d + 1" % (k, n))
                expr = "puncture"
                for _ in range(k):
                    expr = "acc([%s])" % expr
                explicit = parse("root %s * %d" % (expr, n))
                assert sugar == explicit

    def test_ordinal_tail_adds_punctures(self):
        # extra isolated points are absorbed into the planar tower
        assert parse("root omega^2*2+5") == parse("root omega^2*2+1")

    def test_comments_and_whitespace(self):
        s = parse("# heading\n  root   omega + 1   # flute\n")
        assert len(s.roots) == 1

    def test_typedef(self):
        s = parse("type fl = acc([puncture])\nroot fl * 2")
        (t, m), = s.roots
        assert t == canonicalize(FLUTE) and m == 2

    def test_cantor_forms(self):
        assert parse("root cantor()").roots[0][0] == CANTOR_LEAF
        t = parse("root cantor(genus)").roots[0][0]
        assert t.direct_genus and t.self_accumulating
        t = parse("root cantor([puncture])").roots[0][0]
        assert t.children and t.self_accumulating

    @pytest.mark.parametrize("expr, canonical", [
        ("cantor([puncture])", "cantor([puncture])"),
        ("cantor(genus, [puncture])", "cantor(genus,[puncture])"),
        ("acc(genus [puncture])", "acc(genus,[puncture])"),
        ("acc(genus, [puncture])", "acc(genus,[puncture])"),
    ])
    def test_child_list_forms(self, expr, canonical):
        assert spec_to_text(parse("root " + expr)) == "root %s\n" % canonical

    def test_root_star_cantor(self):
        s = parse("root acc([puncture]) * cantor")
        (t, m), = s.roots
        assert m is CANTOR and t.self_accumulating

    def test_great_wave_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("root omega^omega * 2 + 1")
        assert "finite rank" in str(exc.value)
        assert exc.value.span.line == 1

    def test_missing_compactification(self):
        with pytest.raises(ParseError) as exc:
            parse("root omega^2 * 2")
        assert "compact" in str(exc.value)

    def test_zero_exponent(self):
        with pytest.raises(ParseError):
            parse("root omega^0 + 1")

    def test_undefined_name(self):
        with pytest.raises(ParseError) as exc:
            parse("root nosuch")
        assert "defined before use" in str(exc.value)

    def test_self_referential_typedef(self):
        with pytest.raises(ParseError):
            parse("type a = a")

    def test_reserved_name(self):
        with pytest.raises(ParseError):
            parse("type omega = puncture")

    def test_spans_inside_input(self):
        bad = "root omega + 1\nroot omega^omega + 1\n"
        with pytest.raises(ParseError) as exc:
            parse(bad)
        span = exc.value.span
        assert 0 <= span.start <= span.end <= len(bad)
        assert span.line == 2

    @pytest.mark.parametrize("text", [
        "root",
        "root omega + 0",
        "root acc(",
        "root acc()",
        "root acc([puncture]",
        "sub omega + 1",
        "root omega + 1 root omega^omega + 1",
        "type = puncture",
        "root cantor(genus,)",
    ])
    def test_every_parse_error_carries_a_span(self, text):
        with pytest.raises(ParseError) as exc:
            parse(text)
        span = exc.value.span
        assert 0 <= span.start <= span.end <= len(text)
        assert exc.value.message

    def test_validation_failures_surface(self):
        with pytest.raises(SpecError):
            parse("punctures 3")
        with pytest.raises(SpecError):
            parse("root omega + 1\nsub acc(genus,[]) * 1")


def _nested(n):
    return "root " + "acc([" * n + "])" * n


def _alias_chain(n):
    """n aliases, each one level deeper than the last: deep, never nested."""
    lines = ["type t0 = acc([puncture])"]
    lines += ["type t%d = acc([t%d])" % (i, i - 1) for i in range(1, n)]
    return "\n".join(lines) + "\nroot t%d\n" % (n - 1)


class TestLimits:
    def test_at_the_limits(self):
        tower = parse("root omega^%d + 1" % MAX_DEPTH)
        assert tower.roots[0][0] == planar_tower(MAX_DEPTH)
        assert parse(_alias_chain(MAX_DEPTH)) == tower
        assert parse(_nested(MAX_DEPTH)).roots[0][0].depth() == MAX_DEPTH - 1
        big = "9" * MAX_INT_DIGITS
        s = parse("root omega * %s + 1 * %s\nroot acc(genus,[]) * %s\n"
                  "punctures %s\n" % (big, big, big, big))
        r = classify(s)
        n = int(big)
        assert r.bounds.handle_pair_generators == n * (n - 1) // 2
        assert emit_report(r, "JSON") and emit_report(r, "TEXT")

    def test_at_the_limits_under_a_tracer(self):
        # a fresh interpreter, so that no warm cache hides the depth, and a
        # no-op trace function, under which recursion hits the limit sooner;
        # the genus leaf keeps format_type from naming the last nest a tower
        n = MAX_DEPTH - 1
        texts = ("root omega^%d + 1" % MAX_DEPTH, _nested(MAX_DEPTH),
                 "root " + "acc([" * n + "acc(genus,[])" + "])" * n)
        code = ("import sys\n"
                "from endcalc.classify import classify\n"
                "from endcalc.dsl import emit_report, parse\n"
                "sys.settrace(lambda *a: None)\n"
                "for text in %r:\n"
                "    r = classify(parse(text))\n"
                "    print(r.verdict.rule, len(emit_report(r, 'JSON')) > 0,\n"
                "          len(emit_report(r, 'TEXT')) > 0)\n"
                % (texts,))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60,
                             env=dict(os.environ,
                                      PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout == "rokhlin True True\n" * len(texts)

    @pytest.mark.parametrize("text, line, column", [
        ("root omega^%d + 1" % (MAX_DEPTH + 1), 1, 12),
        ("root omega^5000 + 1", 1, 12),
        (_nested(MAX_DEPTH + 1), 1, 6 + 5 * MAX_DEPTH + 4),
        (_nested(1000), 1, 6 + 5 * MAX_DEPTH + 4),
        (_alias_chain(MAX_DEPTH + 1), MAX_DEPTH + 1, 13),
        (_alias_chain(600), MAX_DEPTH + 1, 13),
        ("root omega^%s + 1" % ("7" * 5000), 1, 12),
        ("root omega + 1\npunctures 1%s" % ("0" * MAX_INT_DIGITS), 2, 11),
    ], ids=["exponent", "exponent-5000", "nesting", "nesting-1000",
            "alias-chain", "alias-chain-600", "exponent-digits",
            "count-digits"])
    def test_over_the_limits(self, text, line, column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.span.line, exc.value.span.column) == (line, column)
        assert (str(MAX_DEPTH) in exc.value.message
                or str(MAX_INT_DIGITS) in exc.value.message)


# Messages and spans pinned from the character-loop tokenizer: the token
# regex and the lazy spans must reproduce them exactly on ASCII input.
_PINNED_ERRORS = [
    ("root omega # flute",
     "ordinal shorthand must end in '+ 1': end spaces are compact, so the "
     "accumulation point belongs to the surface at line 1, column 19 "
     "(expected '+')", (1, 19, 18, 18)),
    ("# one\n# two\n*",
     "unexpected '*' at line 3, column 1 (expected a statement keyword)",
     (3, 1, 12, 13)),
    ("root omega + # c",
     "unexpected 'end of input' at line 1, column 17 "
     "(expected an integer (at least 1))", (1, 17, 16, 16)),
    ("root omega + 1\nroot acc( # open",
     "an accumulation node needs a child list (possibly empty) at line 2, "
     "column 17 (expected '[')", (2, 17, 31, 31)),
    ("root omega + 1\r\nroot fl\r\n",
     "unknown type name 'fl' (types must be defined before use, so "
     "definitions cannot recurse) at line 2, column 6", (2, 6, 21, 23)),
    ("type fl = acc([puncture])\r\nroot fl\r\nsub fl *\r\n",
     "unexpected 'end of input' at line 4, column 1 (expected a count)",
     (4, 1, 46, 46)),
    ("root omega + 1 # flute\r\n# end\r\nroot omega^\t\f1 +",
     "unexpected 'end of input' at line 3, column 17 "
     "(expected an integer (at least 1))", (3, 17, 47, 47)),
    ("root\tomega\f^\t0 + 1",
     "exponent must be a literal positive integer (finite rank only) at "
     "line 1, column 14", (1, 14, 13, 14)),
    ("\f\froot\v omega +\x1c 1\n\tgenus x",
     "unexpected 'x' at line 2, column 8 (expected a genus count)",
     (2, 8, 26, 27)),
    ("root omega + 1\n\ntype",
     "unexpected 'end of input' at line 3, column 5 (expected type name)",
     (3, 5, 20, 20)),
    ("root omega#+1",
     "ordinal shorthand must end in '+ 1': end spaces are compact, so the "
     "accumulation point belongs to the surface at line 1, column 14 "
     "(expected '+')", (1, 14, 13, 13)),
    ("root acc([",
     "unexpected 'end of input' at line 1, column 11 "
     "(expected a type expression)",
     (1, 11, 10, 10)),
    ("root omega + 1  # ok\nroot acc([ # unclosed\n",
     "unexpected 'end of input' at line 3, column 1 "
     "(expected a type expression)",
     (3, 1, 43, 43)),
    ("root omega^257 + 1",
     "exponent above the depth limit 256 at line 1, column 12",
     (1, 12, 11, 14)),
    ("root " + "acc([" * 257,
     "child lists nested deeper than 256 at line 1, column 1290",
     (1, 1290, 1289, 1290)),
    ("root omega + 1\ngenus " + "9" * 101,
     "integer literal longer than 100 digits at line 2, column 7",
     (2, 7, 21, 122)),
    ("root acc([omega * 2 + 1])",
     "ordinal multiplicities are only meaningful in root statements, not in "
     "a child type at line 1, column 24", (1, 24, 23, 24)),
    ("sub omega*2+1 * 1",
     "ordinal multiplicities are only meaningful in root statements, not in "
     "a subordinate at line 1, column 1", (1, 1, 0, 3)),
    ("root omega * 0 + 1",
     "repetition count must be positive at line 1, column 14",
     (1, 14, 13, 14)),
    ("root omega + 0",
     "the compactification point is mandatory: the trailing term must be at "
     "least 1 at line 1, column 6", (1, 6, 5, 10)),
    ("root acc(genus x)",
     "an accumulation node needs a child list (possibly empty) at line 1, "
     "column 16 (expected '[')", (1, 16, 15, 16)),
    ("type a = puncture\ntype a = puncture",
     "type 'a' already defined at line 2, column 6", (2, 6, 23, 24)),
    ("root cantor(, [puncture])",
     "unexpected ',' at line 1, column 13 (expected ')')", (1, 13, 12, 13)),
    ("root cantor(genus [puncture])",
     "unexpected '[' at line 1, column 19 (expected ')')", (1, 19, 18, 19)),
    ("foo",
     "unknown statement 'foo' at line 1, column 1 (expected type, root, sub, "
     "punctures or genus)", (1, 1, 0, 3)),
]


class TestTokens:
    @pytest.mark.parametrize("text, message, span", _PINNED_ERRORS, ids=[
        "trailing-comment", "comments-then-token", "eof-after-comment",
        "comment-without-newline", "crlf", "crlf-eof", "crlf-tab-formfeed",
        "tab-formfeed", "vtab-fs", "eof-line-3", "hash-mid-line",
        "unclosed", "unclosed-after-comment", "exponent-limit",
        "nesting-limit", "digit-limit", "plain-child", "plain-sub",
        "repetition", "compactification", "genus-without-list",
        "already-defined", "cantor-list-after-comma",
        "cantor-genus-list-without-comma", "unknown-statement"])
    def test_pinned_errors(self, text, message, span):
        with pytest.raises(ParseError) as exc:
            parse(text)
        s = exc.value.span
        assert (str(exc.value), (s.line, s.column, s.start, s.end)) == \
            (message, span)

    def test_only_comments(self):
        with pytest.raises(SpecError, match="finite-type surface"):
            parse("# one\n# two")

    def test_line_ends_and_spaces_are_separators(self):
        plain = parse("type fl = acc([puncture])\nroot fl * 2\ngenus 1\n")
        for sep in ("\r\n", "\n\f", "\n\v", "\n\x1c", "\n\u00a0", "\n\u3000"):
            assert parse("type fl = acc([puncture])%sroot\tfl *%s2%sgenus 1"
                         % (sep, sep, sep)) == plain

    @pytest.mark.parametrize("text, message, span", [
        ("root omega^\u00b2 + 1",
         "exponent must be a literal positive integer (finite rank only) "
         "at line 1, column 12", (11, 12)),
        ("root omega + 1\ngenus \u0663",
         "unexpected '\u0663' at line 2, column 7 (expected a genus count)",
         (21, 22)),
        ("root \u00e9",
         "unexpected '\u00e9' at line 1, column 6 "
         "(expected a type expression)", (5, 6)),
        ("type fl = acc([puncture])\nroot fl\u00e9",
         "unexpected '\u00e9' at line 2, column 8 "
         "(expected a statement keyword)", (33, 34)),
    ], ids=["superscript-two", "arabic-indic-three", "e-acute",
            "e-acute-after-name"])
    def test_names_and_integers_are_ascii(self, text, message, span):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message
        assert (exc.value.span.start, exc.value.span.end) == span


_TOKENS = ("type", "root", "sub", "punctures", "genus", "acc", "cantor",
           "puncture", "omega", "t", "u", "(", ")", "[", "]", ",", "*", "+",
           "^", "=", "#", "\n", "0", "1", "2", "7", "\u00b2", "\u0663",
           "\u00e9", "\u00a0", "\f")
_NUMBER_STATEMENTS = ("root omega^%s + 1", "root omega * %s + 1",
                      "root omega + 1 * %s", "sub omega + 1 * %s",
                      "punctures %s", "genus %s", "type t = omega^%s + 1")
_FRAGMENTS = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join),
    st.builds(lambda n, head, tail: "root " + (head + "([") * n + tail,
              st.integers(1, 1200), st.sampled_from(("acc", "cantor")),
              st.sampled_from(("", "])", "]) " * 300, "]) " * 1200))),
    st.integers(1, 700).map(_alias_chain),
    st.builds(lambda form, n, d: form % (d * n), st.sampled_from(
        _NUMBER_STATEMENTS), st.integers(1, 6000), st.sampled_from("0179")),
)


@settings(max_examples=150)
@given(st.lists(_FRAGMENTS, min_size=1, max_size=3).map("\n".join))
def test_parse_raises_only_its_own_errors(text):
    try:
        parse(text)
    except (ParseError, SpecError):
        pass


def _outcome(parser, text):
    """The raw spec a parser class reads from text, or its error's fields:
    each parser module has its own ``SourceSpan`` class."""
    try:
        return parser(text).parse_spec()
    except (ParseError, reference_parser.ParseError) as e:
        span = e.span
        return (e.message, e.expected,
                (span.line, span.column, span.start, span.end), str(e))


class TestAgainstTheRecursiveParser:
    """The parser's loops against the recursive descent they replaced
    (``tests/reference_parser.py``): the same raw spec, or the same error
    message, expectation and span."""

    def test_generated_and_mutated_texts(self):
        surfgen = load_surfgen()
        rng = random.Random("parser-differential")
        texts = [surfgen.make_surface(11, i).text for i in range(2000)]
        mutants = [mutated_text(rng, t) for t in texts for _ in range(4)]
        edges = [
            "root omega * 0 + 1", "root omega * 2 + 3 * 5",
            _nested(MAX_DEPTH), _nested(MAX_DEPTH + 1),
            "root " + "acc([" * (MAX_DEPTH + 1),
            "root " + "cantor(genus,[" * MAX_DEPTH + "])" * MAX_DEPTH,
            "root " + "acc([" * 200 + "omega^60+1" + "])" * 200,
            "root acc([omega^%d+1])" % MAX_DEPTH,
            "root omega^%d + 1" % (MAX_DEPTH + 1),
            "root omega^%s + 1" % ("7" * (MAX_INT_DIGITS + 1)),
            _alias_chain(MAX_DEPTH + 1),
        ]
        errors = []
        for text in texts + mutants + edges:
            new = _outcome(_Parser, text)
            assert new == _outcome(reference_parser._Parser, text), text
            if isinstance(new, tuple):
                errors.append(new[:2])
        assert len(mutants) >= 6000 and len(errors) >= len(mutants) // 2
        # every raise site of the loop and of the ordinal is reached
        assert {("unexpected", e) for e in (
            "'('", "'['", "')'", "']'", "a type expression",
            "a repetition count", "an integer (at least 1)")} <= {
            (m.split(" ")[0], e) for m, e in errors}
        for prefix in ("an accumulation node needs", "unknown type name",
                       "ordinal shorthand", "exponent must be",
                       "exponent above", "repetition count must",
                       "the compactification point", "ordinal multiplicities",
                       "child lists nested deeper", "type deeper than",
                       "integer literal longer"):
            assert any(m.startswith(prefix) for m, _ in errors), prefix


class TestRoundTrip:
    def test_corpus_like_specs(self):
        texts = [
            "root omega + 1",
            "root omega^2 * 2 + 1",
            "root acc(genus, []) * 2",
            "root cantor(genus)\nroot acc(genus,[])",
            "root cantor()\npunctures 2",
        ]
        for t in texts:
            s = parse(t)
            assert parse(spec_to_text(s)) == s
        # a raw spec echoes its subordinates, and parsing absorbs them
        raw = SurfaceSpec(roots=((planar_tower(2), 1),),
                          subordinates=((FLUTE, 3),))
        assert spec_to_text(raw) == "root omega^2+1\nsub omega+1 * 3\n"
        assert parse(spec_to_text(raw)) == require_valid(raw)

    def test_random_specs(self, rng):
        for _ in range(100):
            s = random_spec(rng)
            assert parse(spec_to_text(s)) == s


class TestEmitReport:
    def test_json_is_stable(self):
        r = classify(parse("root omega^2*2+1"))
        assert emit_report(r, "JSON") == emit_report(r, "JSON")

    def test_json_fields(self):
        r = classify(parse("root omega + 1"))
        d = json.loads(emit_report(r, "JSON"))
        assert d["verdict"] == "YES" and d["rule"] == "rokhlin"
        assert d["bounds"]["lower"] == 1 and d["bounds"]["upper"] == 1
        assert d["witness"] is None

    def test_witness_serialization(self):
        r = classify(parse("type fl = acc([puncture])\nroot fl\n"
                           "root acc(genus,[puncture])\nroot acc(genus,[])"))
        d = json.loads(emit_report(r, "JSON"))
        assert d["witness"]["target"] == {"free_rank": 2, "torsion2": 0}
        assert len(d["witness"]["characters"]) == 2
        assert len(d["witness"]["generator_images"]) == 2

    def test_witness_suppressed(self):
        r = classify(parse("root omega^2*2+1"))
        d = json.loads(emit_report(r, "JSON", include_witness=False))
        assert d["witness"] is None

    def test_not_applicable_flux_rank(self):
        r = classify(parse("root cantor()"))
        d = report_to_dict(r)
        assert d["bounds"]["flux_rank"] == "NOT_APPLICABLE"

    def test_text_contains_verdict(self):
        r = classify(parse("root cantor()\npunctures 1"))
        text = emit_report(r, "TEXT", include_bounds=True)
        assert "verdict: YES" in text
        assert "malestein-tao-involution" in text

    def test_unknown_format_rejected(self):
        r = classify(parse("root omega + 1"))
        with pytest.raises(ValueError):
            emit_report(r, "YAML")


def _stdlib_json(r, include_witness=True):
    """The reference: the stdlib encoder on the report's dict."""
    return json.dumps(report_to_dict(r, include_witness),
                      sort_keys=True, indent=2) + "\n"


def _replaced(record, **changes):
    return type(record)(*[changes.get(f, getattr(record, f))
                          for f in record._fields])


# strings mixing JSON's escapes, the rest of ASCII and non-ASCII text
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9'
                                '\u2028\ud800\U0001f600') | st.characters())
# below the interpreter's 4,300-digit limit on int to str conversion
_BIG = 10 ** 4299
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-_BIG, _BIG) | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25)


class TestJsonWriter:
    @settings(max_examples=150)
    @given(_JSON_VALUES)
    def test_matches_the_stdlib(self, value):
        assert _json(value, "") == json.dumps(value, sort_keys=True,
                                              indent=2)

    @pytest.mark.parametrize("value", [
        1.5, (1, 2), {1: "a"}, {"a": [0.0]}, {"a", "b"}, b"x",
    ])
    def test_other_values_raise(self, value):
        with pytest.raises(TypeError):
            _json(value, "")


class TestReportsMatchTheStdlib:
    """``emit_report(r, "JSON")`` is the stdlib's rendering of
    ``report_to_dict(r)``, byte for byte."""

    def test_corpus(self):
        paths = sorted(CORPUS.glob("*.surf"))
        assert paths
        for path in paths:
            r = classify(parse(path.read_text()))
            assert emit_report(r, "JSON") == _stdlib_json(r), path.name
            assert (emit_report(r, "JSON", include_witness=False)
                    == _stdlib_json(r, include_witness=False)), path.name

    def test_generated_surfaces(self):
        surfgen = load_surfgen()
        valid = 0
        for index in range(2000):
            surface = surfgen.make_surface(7, index)
            if surface.valid:
                r = classify(parse(surface.text))
                assert emit_report(r, "JSON") == _stdlib_json(r), index
                valid += 1
        assert valid > 1000

    @pytest.fixture
    def report(self):
        return classify(parse("type fl = acc([puncture])\nroot fl\n"
                              "root acc(genus,[puncture])\n"
                              "root acc(genus,[])"))

    def test_empty_notes(self, report):
        r = _replaced(report, notes=())
        assert emit_report(r, "JSON") == _stdlib_json(r)
        assert '"notes": []' in emit_report(r, "JSON")

    def test_bare_witness(self, report):
        witness = ObstructionWitness(
            0, 0, (), (GeneratorImage("g", "shift", ()),))
        r = _replaced(report, verdict=_replaced(report.verdict,
                                                witness=witness))
        assert emit_report(r, "JSON") == _stdlib_json(r)
        assert '"characters": []' in emit_report(r, "JSON")
        assert '"image": []' in emit_report(r, "JSON")
        witness = ObstructionWitness(1, 0, (Character("PARITY"),), ())
        r = _replaced(report, verdict=_replaced(report.verdict,
                                                witness=witness))
        assert emit_report(r, "JSON") == _stdlib_json(r)

    def test_without_witness(self, report):
        assert report.verdict.witness is not None
        assert (emit_report(report, "JSON", include_witness=False)
                == _stdlib_json(report, include_witness=False))

    @pytest.mark.parametrize("flux_rank", [None, 0, 7])
    @pytest.mark.parametrize("ab_upper", [None, 0, 12])
    def test_optional_bounds(self, report, flux_rank, ab_upper):
        bounds = _replaced(report.bounds, flux_rank=flux_rank,
                           abelianization_upper=ab_upper)
        r = _replaced(report, bounds=bounds)
        assert emit_report(r, "JSON") == _stdlib_json(r)

