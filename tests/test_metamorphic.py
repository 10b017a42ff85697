"""Metamorphic invariance: equivalent descriptions give identical reports.

The surfaces and their variants come from the benchmark's generator,
``bench/surfgen.py``, loaded from its file and not modified.  A variant
describes the same surface another way: its statements are shuffled, a
``root X * n`` is split in two, an absorbed ``sub`` line is added and one
more subtree is named by a ``type`` alias.  Surfaces the generator makes
invalid must be rejected with ``ParseError`` or ``SpecError`` only.
"""

import pytest

from endcalc.classify import classify
from endcalc.dsl import ParseError, emit_report, parse
from endcalc.endspace import SpecError
from conftest import load_surfgen

SEED = 7
COUNT = 2500


def _lines(text: str, head: str) -> int:
    return sum(ln.startswith(head) for ln in text.splitlines())


def test_variants_report_identically():
    surfgen = load_surfgen()
    rewrites = dict.fromkeys(("shuffle", "split", "sub", "alias"), 0)
    invalid = 0
    for index in range(COUNT):
        surface = surfgen.make_surface(SEED, index)
        if not surface.valid:
            with pytest.raises((ParseError, SpecError)):
                classify(parse(surface.text))
            invalid += 1
            continue
        text, variant = surface.text, surface.variant
        a, b = classify(parse(text)), classify(parse(variant))
        for fmt in ("JSON", "TEXT"):
            assert emit_report(a, fmt) == emit_report(b, fmt), (index, text,
                                                                variant)
        statements = [ln for ln in text.splitlines()
                      if not ln.startswith("type ")]
        rewrites["shuffle"] += statements != [
            ln for ln in variant.splitlines()
            if not ln.startswith("type ") and ln in statements]
        rewrites["split"] += _lines(variant, "root ") > _lines(text, "root ")
        rewrites["sub"] += _lines(variant, "sub ") > _lines(text, "sub ")
        rewrites["alias"] += _lines(variant, "type ") > _lines(text, "type ")
    assert invalid, "no invalid surface in the range"
    assert all(rewrites.values()), rewrites
