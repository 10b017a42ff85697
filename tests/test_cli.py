import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import endcalc.classify as cl
from endcalc.cli import (
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    MAX_CHECK_WINDOW,
    MAX_K,
    MAX_TRIALS,
    MAX_WINDOW,
    main,
)
from endcalc.dsl import emit_report, parse, spec_to_text
from conftest import load_census_tool, load_surfgen, mutated_text

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["countable", "self_similar", "M", "C", "M_iso", "G0_count",
                 "verdict", "rule", "witness", "bounds", "notes"],
    "properties": {
        "countable": {"type": "boolean"},
        "self_similar": {"enum": ["NOT", "UNIQUELY", "PERFECTLY"]},
        "M": {"type": "integer", "minimum": 0},
        "C": {"type": "integer", "minimum": 0},
        "M_iso": {"type": "integer", "minimum": 0},
        "G0_count": {"type": "integer", "minimum": 0},
        "verdict": {"enum": ["YES", "NO", "UNKNOWN"]},
        "rule": {"type": "string", "minLength": 1},
        "witness": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["target", "characters", "generator_images"],
                    "properties": {
                        "target": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["free_rank", "torsion2"],
                            "properties": {
                                "free_rank": {"type": "integer", "minimum": 0},
                                "torsion2": {"type": "integer", "minimum": 0},
                            },
                        },
                        "characters": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["kind", "z", "pair",
                                             "maximal_type"],
                                "properties": {
                                    "kind": {"enum": ["FLUX", "FLUX_MOD2",
                                                      "PARITY"]},
                                    "z": {"type": ["string", "null"]},
                                    "pair": {
                                        "type": ["array", "null"],
                                        "items": {"type": "string"},
                                        "minItems": 2, "maxItems": 2,
                                    },
                                    "maximal_type": {"type": ["string",
                                                              "null"]},
                                },
                            },
                        },
                        "generator_images": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["generator", "kind", "image"],
                                "properties": {
                                    "generator": {"type": "string"},
                                    "kind": {"enum": ["shift", "half_twist",
                                                      "handle_shift"]},
                                    "image": {"type": "array",
                                              "items": {"type": "integer"}},
                                },
                            },
                        },
                    },
                },
            ]
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lower", "upper", "flux_rank",
                         "handle_pair_generators", "budget",
                         "abelianization_upper"],
            "properties": {
                "lower": {"type": "integer", "minimum": 1},
                "upper": {"type": "integer", "minimum": 1},
                "flux_rank": {
                    "oneOf": [{"type": "integer", "minimum": 0},
                              {"const": "NOT_APPLICABLE"}]
                },
                "handle_pair_generators": {"type": "integer", "minimum": 0},
                "budget": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["shifts", "dehn", "handles"],
                    "properties": {
                        "shifts": {"type": "integer", "minimum": 0},
                        "dehn": {"type": "integer", "minimum": 0},
                        "handles": {"type": "integer", "minimum": 0},
                    },
                },
                "abelianization_upper": {"type": ["integer", "null"]},
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


class TestClassifyCommand:
    def test_text_report(self, capsys):
        assert main(["classify", str(CORPUS / "flute.surf")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: YES" in out and "rokhlin" in out

    def test_json_schema_for_every_corpus_file(self, capsys):
        for path in sorted(CORPUS.glob("*.surf")):
            assert main(["classify", str(path), "--json", "--witness"]) \
                == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_parse_error_exit(self, capsys):
        code = main(["classify",
                     str(CORPUS / "out_of_model" / "great_wave.surf")])
        assert code == EXIT_PARSE
        assert "finite rank" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent.surf"]) == EXIT_PARSE

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.surf"
        path.write_bytes(b"root omega + 1\n# \xff\n")
        assert main(["classify", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    @pytest.mark.parametrize("text", [
        "root omega^5000 + 1\n",
        "root " + "acc([" * 1000 + "])" * 1000 + "\n",
        "type t0 = acc([puncture])\n"
        + "".join("type t%d = acc([t%d])\n" % (i, i - 1)
                  for i in range(1, 600)) + "root t599\n",
        "root omega^%s + 1\n" % ("7" * 5000),
    ], ids=["tower", "nesting", "alias-chain", "digits"])
    def test_input_over_the_limits(self, text, tmp_path, capsys):
        path = tmp_path / "big.surf"
        path.write_text(text)
        assert main(["classify", str(path), "--json"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("root omega^\u00b2 + 1\n", "exponent must be a literal positive"),
        ("root omega + 1\ngenus \u0663\n", "unexpected '\u0663'"),
        ("root \u00e9\n", "unexpected '\u00e9'"),
        ("root puncture * cantor\n", "a Cantor class of isolated punctures"),
        ("root acc([]) * cantor\n", "a Cantor class of isolated punctures"),
    ], ids=["superscript-two", "arabic-indic-three", "e-acute",
            "puncture-cantor", "empty-acc-cantor"])
    def test_rejected_input(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.surf"
        path.write_text(text, encoding="utf-8")
        assert main(["classify", str(path), "--json"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_every_verdict_rule(self, tmp_path, capsys):
        # the corpus misses two rules; the census universe at N = 3 has
        # all of them (N = 2 misses double-flux-obstruction).  The census
        # order changes between processes; the least text of each rule
        # does not.
        texts = {}
        for s, v, _ in load_census_tool().census(3):
            text = spec_to_text(s)
            texts[v.rule] = min(texts.get(v.rule, text), text)
        assert set(texts) == {v for k, v in vars(cl).items()
                              if k.startswith("RULE_")}
        path = tmp_path / "rule.surf"
        for rule, text in sorted(texts.items()):
            path.write_text(text, encoding="utf-8")
            r = cl.classify(parse(text))
            assert r.verdict.rule == rule
            for flags, fmt in ((["--json", "--witness"], "JSON"),
                               (["--bounds", "--witness"], "TEXT")):
                assert main(["classify", str(path), *flags]) == EXIT_OK
                assert capsys.readouterr() == (emit_report(r, fmt), "")

    def test_expect_gate(self, capsys):
        assert main(["classify", str(CORPUS / "flute.surf"),
                     "--expect", "YES"]) == EXIT_OK
        assert main(["classify", str(CORPUS / "flute.surf"),
                     "--expect", "NO"]) == EXIT_MISMATCH

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        text = (CORPUS / "flute.surf").read_bytes()
        (plain / "flute.surf").write_bytes(text)
        (marked / "flute.surf").write_bytes(b"\xef\xbb\xbf" + text)
        for argv in (["classify", "{}/flute.surf"], ["corpus", "{}"]):
            outs = []
            for d in (plain, marked):
                assert main([a.format(d) for a in argv]) == EXIT_OK
                out, err = capsys.readouterr()
                assert err == ""
                outs.append(out)
            assert outs[0] == outs[1]
        # a decode error after the mark still gives the offset in the file
        (marked / "flute.surf").write_bytes(b"\xef\xbb\xbf" + text + b"\xff")
        assert main(["classify", str(marked / "flute.surf")]) == EXIT_PARSE
        assert "position %d" % (3 + len(text)) in capsys.readouterr().err


class TestFluxCommand:
    def test_phi_full_shift(self, capsys):
        assert main(["flux", "phi", "--perm", "d=1", "--cut", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_phi_bounded(self, capsys):
        assert main(["flux", "phi", "--perm", "d=0 table={0:1,1:0}",
                     "--cut", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"

    def test_phi_large_translation(self, capsys):
        assert main(["flux", "phi", "--perm", "d=1000000000"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1000000000"

    def test_phi_bad_literal(self, capsys):
        assert main(["flux", "phi", "--perm", "nonsense"]) == EXIT_PARSE

    def test_theta(self, capsys):
        assert main(["flux", "theta", "--perms", "d=1;d=0", "--n", "3"]) \
            == EXIT_OK
        assert capsys.readouterr().out.strip() == "(1, 0)"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_theta_without_maximal_ends(self, n, capsys):
        assert main(["flux", "theta", "--perms", "d=1", "--n", n]) \
            == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need at least one maximal end (got %s)\n" % n

    @pytest.mark.parametrize("spec, entry", [
        ("excluded=finite{1-2}", "1-2"),
        ("excluded=periodic{N=1,p=3,r=-,}", "-"),
    ])
    def test_shift_entry_error_names_the_literal(self, spec, entry, capsys):
        assert main(["flux", "shift", "--spec", spec]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: bad shift literal %r: invalid literal for "
                       "int() with base 10: %r\n" % (spec, entry))

    @pytest.mark.parametrize("spec, reason", [
        ("excluded=periodic{N=0,p=0,r=1}", "period must be positive"),
        ("excluded=periodic{N=1,p=3,r=}",
         "periodic excluded set needs at least one residue"),
        ("excluded=periodic{N=1,p=2,r=0,1}",
         "excluding every residue leaves no indices to shift"),
    ])
    def test_shift_periodic_error_names_the_literal(self, spec, reason,
                                                    capsys):
        assert main(["flux", "shift", "--spec", spec]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bad shift literal %r: %s\n" % (spec, reason)

    def test_perm_translation_over_the_digit_limit_names_the_literal(
            self, capsys):
        perm = "d=" + "9" * 5000
        assert main(["flux", "phi", "--perm", perm]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad permutation literal %r: Exceeds "
                              "the limit (4300 digits)" % perm)
        assert err.count("\n") == 1

    def test_shift(self, capsys):
        assert main(["flux", "shift", "--spec",
                     "excluded=periodic{N=1,p=3,r=0}"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "SPONTANEOUS" in out and "normalizes: True" in out

    def test_swindle(self, capsys):
        assert main(["flux", "swindle", "--perm", "d=0 table={0:1,1:0}",
                     "--k", "1", "--window", "100"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "True"

    def test_check_suites(self, capsys):
        for suite, n in (("additivity", 150), ("theta", 150),
                         ("normalize", 80)):
            assert main(["flux", "check", "--suite", suite,
                         "--n", str(n), "--seed", "7"]) == EXIT_OK
            out = capsys.readouterr().out
            assert "seed=7" in out and "ok" in out

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ENDCALC_SEED", "99")
        assert main(["flux", "check", "--suite", "additivity",
                     "--n", "50"]) == EXIT_OK
        assert "seed=99" in capsys.readouterr().out

    def test_seed_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ENDCALC_SEED", "abc")
        assert main(["flux", "check", "--suite", "additivity",
                     "--n", "3"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'abc'" in err and "ENDCALC_SEED" in err

    def test_swindle_suite_reports_its_permutations(self, capsys):
        # the swindle suite ignores --n: it checks every permutation of
        # [-k, k] for k = 1, 2, 3, which is 3! + 5! + 7! of them
        assert main(["flux", "check", "--suite", "swindle", "--n", "5",
                     "--seed", "7", "--window", "3"]) == EXIT_OK
        assert capsys.readouterr().out \
            == "suite=swindle trials=5166 seed=7\nok\n"

    def test_shift_work_does_not_grow_with_the_spec(self, capsys):
        spec = "excluded=finite{%s}" % ",".join(map(str, range(1000)))
        start = time.process_time()
        assert main(["flux", "shift", "--spec", spec,
                     "--window", str(MAX_WINDOW)]) == EXIT_OK
        assert time.process_time() - start < 3.0
        assert capsys.readouterr().out.endswith("normalizes: True\n")

    @pytest.mark.parametrize("argv", [
        ["shift", "--spec", "excluded=finite{0}", "--window", "0"],
        ["swindle", "--perm", "d=1", "--k", "1", "--window", "-5"],
        ["check", "--suite", "swindle", "--window", "0"],
        ["check", "--suite", "additivity", "--n", "-3"],
        ["check", "--suite", "additivity", "--n", "0"],
        ["check", "--suite", "additivity", "--n", "many"],
        ["swindle", "--perm", "d=0", "--k", "0"],
        ["swindle", "--perm", "d=0", "--k", "-2"],
        ["shift", "--spec", "excluded=finite{0}",
         "--window", str(MAX_WINDOW + 1)],
        ["swindle", "--perm", "d=0", "--k", "1",
         "--window", str(MAX_WINDOW + 1)],
        ["swindle", "--perm", "d=0", "--k", str(MAX_K + 1)],
        ["check", "--suite", "theta", "--n", str(MAX_TRIALS + 1)],
        ["check", "--suite", "swindle",
         "--window", str(MAX_CHECK_WINDOW + 1)],
    ])
    def test_vacuous_window_or_trial_count_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flux", *argv])
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error: argument --" in err
        assert sum("error:" in line for line in err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["swindle", "--perm", "d=0", "--k", "100000000", "--window", "1"],
        ["shift", "--spec", "excluded=finite{0}", "--window", "100000000"],
    ], ids=["huge-k", "huge-window"])
    def test_huge_values_exit_at_once(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "endcalc.cli", "flux", *argv],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == EXIT_PARSE
        assert "must be at most" in proc.stderr

    def test_limits_are_accepted(self, capsys):
        assert main(["flux", "swindle", "--perm", "d=0 table={0:1,1:0}",
                     "--k", str(MAX_K), "--window", "1"]) == EXIT_OK
        assert main(["flux", "shift", "--spec", "excluded=finite{0}",
                     "--window", str(MAX_WINDOW)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("True\n") and out.endswith("normalizes: True\n")

    def test_check_reports_violations(self, capsys, monkeypatch):
        from endcalc import flux as flux_mod
        monkeypatch.setattr(flux_mod, "suite_phi",
                            lambda n, seed: ["planted violation"])
        assert main(["flux", "check", "--suite", "additivity",
                     "--n", "10", "--seed", "1"]) == EXIT_INVARIANT
        assert "planted violation" in capsys.readouterr().out


class TestCorpusCommand:
    def test_bundled_corpus_matches_expectations(self, capsys):
        code = main(["corpus", str(CORPUS),
                     "--expectations", str(CORPUS / "expectations.json")])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        assert "flute.surf" in out and "mismatch" not in out

    def test_edited_expectation_mismatches(self, tmp_path, capsys):
        edited = json.loads((CORPUS / "expectations.json").read_text())
        edited["flute.surf"]["verdict"] = "NO"
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps(edited))
        code = main(["corpus", str(CORPUS), "--expectations", str(exp)])
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert "mismatch: flute.surf" in out

    @pytest.mark.parametrize("name, entry, mismatch", [
        ("flute.surf", {"bogus": 1},
         "flute.surf: unknown expectation key 'bogus'"),
        ("gone.surf", {"verdict": "YES"},
         "gone.surf: expected file missing from corpus"),
    ], ids=["unknown-key", "missing-file"])
    def test_expectation_that_cannot_be_checked(self, name, entry, mismatch,
                                                tmp_path, capsys):
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({name: entry}))
        code = main(["corpus", str(CORPUS), "--expectations", str(exp)])
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert [line for line in out.splitlines()
                if line.startswith("mismatch")] == ["mismatch: " + mismatch]

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict" in out  # header only

    @pytest.mark.parametrize("body", [
        "[]", '{"flute.surf": 3}', '{"flute.surf": {}, "x.surf": []}',
    ])
    def test_expectations_not_an_object_of_objects(self, body, tmp_path,
                                                   capsys):
        exp = tmp_path / "exp.json"
        exp.write_text(body)
        code = main(["corpus", str(CORPUS), "--expectations", str(exp)])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err == ("error: expectations %s is not a JSON object of "
                       "objects\n" % exp)

    def test_expectations_nested_too_deep(self, tmp_path, capsys):
        exp = tmp_path / "exp.json"
        exp.write_text("[" * 100000)
        code = main(["corpus", str(CORPUS), "--expectations", str(exp)])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error reading expectations: ")
        assert err.count("\n") == 1

    def test_expectations_integer_over_the_digit_limit(self, tmp_path,
                                                        capsys):
        exp = tmp_path / "exp.json"
        exp.write_text('{"flute.surf": {"lower": %s}}' % ("9" * 5000))
        code = main(["corpus", str(CORPUS), "--expectations", str(exp)])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error reading expectations: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing", "flute.surf"])
    def test_dir_not_a_directory(self, name, capsys):
        code = main(["corpus", str(CORPUS / name)])
        out, err = capsys.readouterr()
        assert code == EXIT_PARSE and out == ""
        assert err == "error: %s is not a directory\n" % (CORPUS / name)

    def test_parse_failure_in_corpus(self, tmp_path, capsys):
        (tmp_path / "bad.surf").write_text("root omega^omega + 1\n")
        assert main(["corpus", str(tmp_path)]) == EXIT_PARSE

    def test_non_utf8_file_in_corpus(self, tmp_path, capsys):
        for name in ("flute.surf", "loch_ness.surf"):
            (tmp_path / name).write_bytes((CORPUS / name).read_bytes())
        (tmp_path / "garbled.surf").write_bytes(b"\xffroot omega + 1\n")
        assert main(["corpus", str(tmp_path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert "flute.surf" in out and "loch_ness.surf" in out
        assert "garbled.surf" not in out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "garbled.surf" in err

    def test_order_stable_by_filename(self, capsys):
        main(["corpus", str(CORPUS)])
        out = capsys.readouterr().out
        names = [ln.split()[0] for ln in out.strip().split("\n")[1:]]
        assert names == sorted(names)


@pytest.mark.parametrize("argv", [
    ["classify", str(CORPUS / "flute.surf"), "--json", "--witness"],
    ["corpus", str(CORPUS), "--expectations",
     str(CORPUS / "expectations.json")],
    ["flux", "check", "--suite", "additivity", "--n", "5"],
], ids=["classify", "corpus", "flux-check"])
def test_no_locale_encoding_in_fresh_processes(argv):
    # every file the CLI reads is decoded explicitly, never in the locale's
    # encoding, so EncodingWarning raised as an error never fires
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-m", "endcalc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


class TestUnexpectedErrors:
    @pytest.mark.parametrize("argv", [
        ["classify", str(CORPUS / "flute.surf")],
        ["corpus", str(CORPUS)],
    ])
    def test_internal_error_exits_4_with_one_line(self, argv, capsys,
                                                  monkeypatch):
        import endcalc.cli as cli

        def broken(spec):
            raise RuntimeError("planted\nfailure")
        monkeypatch.setattr(cli, "classify", broken)
        assert main(argv) == EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError('planted\\nfailure')\n"


# Small pieces of .surf text, valid and not: random joins reach the
# parser, the validator and the classifier.
_SURF_PIECES = st.sampled_from([
    b"root ", b"sub ", b"type t = ", b"punctures ", b"genus ", b"t", b"omega",
    b"^", b"2", b"+ 1", b"* ", b"cantor", b"acc(", b"genus,", b"[", b"]",
    b")", b",", b"puncture", b"\n", b"# c", b"\xff", b"\r", b"9" * 120,
])
_SURF_LINES = st.sampled_from([
    b"root omega + 1\n", b"root omega^2 + 1 * 2\n", b"root acc(genus,[])\n",
    b"root cantor(genus) * cantor\n", b"root cantor([puncture]) * cantor\n",
    b"sub omega + 1 * 3\n", b"punctures 2\n", b"genus 1\n",
    b"type t = acc([omega + 1])\nroot t * 2\n",
])
# Corpus and generated texts after the seeded edits of the parser
# differential: most stay close to a valid spec, so they reach the
# classifier with shapes the pieces above rarely build.
_MUTANTS = st.builds(
    mutated_text, st.randoms(use_true_random=False),
    st.sampled_from([p.read_text(encoding="utf-8")
                     for p in sorted(CORPUS.glob("*.surf"))]
                    + [load_surfgen().make_surface(11, i).text
                       for i in range(100)]),
).map(str.encode)
_SURF = st.one_of(st.lists(_SURF_LINES, min_size=1, max_size=4).map(b"".join),
                  st.lists(_SURF_PIECES, max_size=14).map(b"".join),
                  st.binary(max_size=24), _MUTANTS)
_EXPECTATIONS = st.sampled_from([
    b"{}", b'{"a.surf": {"verdict": "YES"}}', b'{"a.surf": {"nope": 1}}',
    b'{"b.surf": {}}', b"[]", b'{"a.surf": 3}', b"{", b"\xff", b"[" * 2000,
])
# Sizes stay small so that no example runs a long suite.
_NUMBER = st.sampled_from(["1", "2", "3", "1", "0", "-2", "x", "9" * 30])
_FLUX_ARGS = st.one_of(
    st.tuples(st.just("phi"), st.just("--perm"),
              st.sampled_from(["d=1", "d=0 table={0:1,1:0}", "d=0 table={0:0",
                               "table={0:5}", "d=x"]),
              st.just("--cut"), _NUMBER),
    st.tuples(st.just("theta"), st.just("--perms"),
              st.sampled_from(["d=1;d=0", "", ";", "d=1;bad"]),
              st.just("--n"), _NUMBER),
    st.tuples(st.just("shift"), st.just("--spec"),
              st.sampled_from(["excluded=finite{0,5}", "excluded=finite{}",
                               "excluded=periodic{N=1,p=3,r=0}",
                               "excluded=periodic{N=1,p=0,r=0}",
                               "excluded=periodic{N=1,p=2,r=0,1}", "x"]),
              st.just("--window"), _NUMBER),
    st.tuples(st.just("swindle"), st.just("--perm"),
              st.sampled_from(["d=0 table={0:1,1:0}", "d=2", "bad"]),
              st.just("--k"), _NUMBER, st.just("--window"), _NUMBER),
    st.tuples(st.just("check"), st.just("--suite"),
              st.sampled_from(["additivity", "theta", "normalize", "swindle",
                               "bogus"]),
              st.just("--n"), _NUMBER, st.just("--window"), _NUMBER,
              st.just("--seed"), _NUMBER),
)
_FLAGS = st.tuples(
    st.lists(st.sampled_from(["--json", "--witness", "--bounds"]), max_size=3),
    st.sampled_from([[], ["--expect", "YES"], ["--expect", "NO"],
                     ["--expect", "UNKNOWN"], ["--expect"], ["--bogus"]]),
).map(lambda t: t[0] + t[1])
_ARGV = st.one_of(
    st.tuples(st.just("classify"),
              st.sampled_from(["{surf}", "{missing}", "{dir}"]),
              _FLAGS).map(lambda t: [t[0], t[1], *t[2]]),
    st.tuples(st.just("corpus"), st.sampled_from(["{dir}", "{surf}"]),
              st.lists(st.sampled_from(["--expectations", "{exp}",
                                        "{missing}"]), max_size=2))
    .map(lambda t: [t[0], t[1], *t[2]]),
    _FLUX_ARGS.map(lambda t: ["flux", *t]),
    st.lists(st.sampled_from(["classify", "flux", "corpus", "phi", "check",
                              "--json", "--n", "1", "{surf}", "-h", ""]),
             max_size=4),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200)
@given(argv=_ARGV, surf=_SURF, expectations=_EXPECTATIONS)
def test_every_input_ends_in_a_documented_exit(fuzz_dir, argv, surf,
                                               expectations):
    # in process through main: argparse's SystemExit counts as its code
    corpus_dir = fuzz_dir / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    (corpus_dir / "a.surf").write_bytes(surf)
    (fuzz_dir / "exp.json").write_bytes(expectations)
    paths = {"{surf}": str(corpus_dir / "a.surf"), "{dir}": str(corpus_dir),
             "{exp}": str(fuzz_dir / "exp.json"),
             "{missing}": str(fuzz_dir / "missing.surf")}
    argv = [paths.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    # exit 4 is an internal error: a bug, never a documented outcome
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    text = err.getvalue()
    assert "Traceback" not in text
    assert sum("error:" in line for line in text.splitlines()) <= 1, text
