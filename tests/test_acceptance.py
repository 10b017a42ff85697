"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion reports one PASS/FAIL line in the terminal summary.  All
comparisons are exact; nothing here is tolerance-calibrated.
"""

import functools
import json
from pathlib import Path

import pytest

from endcalc.classify import Verdict, classify
from endcalc.dsl import ParseError, parse, report_to_dict
from endcalc.flux import (
    EndPerm,
    MultiEndPerm,
    phi,
    ray_swap,
    suite_normalize,
    suite_phi,
    suite_theta,
    theta_tilde,
)
from conftest import check_witness_on_models, record_acceptance

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 20250811


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance("criterion %d (%s): FAIL" % (number, title))
                raise
            record_acceptance("criterion %d (%s): PASS" % (number, title))
        return run
    return wrap


def _report(name):
    return report_to_dict(classify(parse((CORPUS / name).read_text())))


@criterion(1, "corpus verdicts match exactly")
def test_corpus_verdicts():
    d = _report("flute.surf")
    assert d["verdict"] == "YES" and d["rule"] == "rokhlin"
    assert (d["bounds"]["lower"], d["bounds"]["upper"]) == (1, 1)

    d = _report("loch_ness.surf")
    assert d["verdict"] == "YES"
    assert (d["bounds"]["lower"], d["bounds"]["upper"]) == (1, 1)

    d = _report("fig_two_towers.surf")
    assert d["verdict"] == "NO"
    assert d["witness"]["target"] == {"free_rank": 0, "torsion2": 2}
    assert (d["M"], d["C"]) == (1, 1)
    assert d["bounds"]["flux_rank"] == 1

    d = _report("jacobs_ladder.surf")
    assert d["verdict"] == "NO"
    assert d["witness"]["target"] == {"free_rank": 0, "torsion2": 2}
    kinds = {c["kind"] for c in d["witness"]["characters"]}
    assert kinds == {"FLUX_MOD2", "PARITY"}

    d = _report("three_maximal_ends.surf")
    assert d["verdict"] == "NO"
    assert d["witness"]["target"] == {"free_rank": 2, "torsion2": 0}
    assert (d["M"], d["C"]) == (3, 1)
    assert (d["bounds"]["lower"], d["bounds"]["upper"]) == (2, 9)
    assert d["bounds"]["budget"] == {"shifts": 3, "dehn": 3, "handles": 3}

    for name in ("cantor_tree.surf", "blooming_cantor_tree.surf"):
        d = _report(name)
        assert d["verdict"] == "YES" and d["rule"] == "telescoping"

    d = _report("cantor_plus_puncture.surf")
    assert d["verdict"] == "YES" and d["rule"] == "malestein-tao-involution"

    d = _report("cantor_plus_loch.surf")
    assert d["verdict"] == "YES" and d["rule"] == "cantor-plus-tame-end"

    d = _report("cantor_double_shift.surf")
    assert d["verdict"] == "NO" and d["rule"] == "double-flux-obstruction"
    assert d["witness"]["target"] == {"free_rank": 2, "torsion2": 0}

    d = _report("cantor_two_punctures.surf")
    assert d["verdict"] == "UNKNOWN" and d["rule"] == "unknown"

    with pytest.raises(ParseError) as exc:
        parse((CORPUS / "out_of_model" / "great_wave.surf").read_text())
    assert "finite rank" in str(exc.value)

    # and the bundled expectation file is in full agreement
    expectations = json.loads((CORPUS / "expectations.json").read_text())
    from endcalc.cli import _lookup
    for name, expected in expectations.items():
        d = _report(name)
        for key, value in expected.items():
            assert _lookup(d, key) == value, (name, key)


@criterion(2, "oracle agrees with preceq on all small trees")
def test_oracle_equivalence_exhaustive(small_tree_sweep):
    _, disagreements = small_tree_sweep
    assert disagreements == []


@criterion(3, "flux suite: additivity, inverse, conjugation, cut independence")
def test_phi_suite():
    assert phi(EndPerm(1), 0) == 1
    assert suite_phi(1000, SEED) == []


@criterion(4, "shift normalization at window 200")
def test_normalization_suite():
    assert suite_normalize(500, SEED, window=200) == []


@criterion(5, "swindle identity, exhaustive small supports")
def test_swindle_suite(swindle_errors):
    assert swindle_errors == []


@criterion(6, "parity pair: homomorphism, independence, ladder value")
def test_theta_suite():
    assert suite_theta(1000, SEED) == []
    tau = MultiEndPerm(2, rho=(1, 0), offsets=(1, -1),
                       tables=[{}, {0: (1, 0)}])
    assert theta_tilde(tau, [ray_swap(2, 0, 1)]) == (1, 1)


@criterion(7, "budget identity ties the generating set to the upper bound")
def test_budget_identity():
    for m in range(2, 51):
        for c in range(1, 51):
            assert c * m + max(0, m * (m - 2)) + m == m * (m + c - 1)


@criterion(8, "witness soundness on flux models")
def test_witness_soundness():
    checked = 0
    for path in sorted(CORPUS.glob("*.surf")):
        report = classify(parse(path.read_text()))
        if report.verdict.verdict is Verdict.NO:
            check_witness_on_models(report.verdict.witness, report.spec,
                                    products=200, seed=SEED)
            checked += 1
    assert checked == 4
