"""Exhaustive census of small canonical specs: the rule histogram and the
cross-field checks of every report.

The universe: one or two root classes drawn from the canonical classes of
``enumerate_trees(N, 3, 3)``, each of multiplicity 1, 2 or CANTOR, with
0 to 2 extra punctures and 0 or 1 extra genus.  Every distinct valid
canonical spec is classified and bounded once.  The cross-field checks
compare fields of one report: a uniquely or perfectly self-similar spec
has verdict YES, ``lower <= upper`` holds on every spec, and a spec has a
flux rank exactly when it is countable, with no handle-pair generators
when it is not.

The script prints ``specs=S``, then one ``rule=count`` line per rule, the
most frequent first, then one ``FAIL <check>: <spec>`` line per failed
check, with the spec's text on one line.  It exits 1 when a check fails.

Usage, from any directory::

    python3 tools/census.py --max-nodes 4

N = 3 is the universe of ``tests/test_census.py`` (7,212 specs), which
loads this file; N = 4 has 115,080 specs.  The package is imported from
``src/`` next to this script.  Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from endcalc.classify import (  # noqa: E402
    BoundsReport,
    SelfSimilarity,
    TNGVerdict,
    Verdict,
    generator_bounds,
    tng_verdict,
)
from endcalc.dsl import spec_to_text  # noqa: E402
from endcalc.endspace import (  # noqa: E402
    CANTOR,
    SurfaceSpec,
    canonicalize,
    canonicalize_spec,
)
from endcalc.oracle import enumerate_trees  # noqa: E402

Entry = Tuple[SurfaceSpec, TNGVerdict, BoundsReport]


def census(max_nodes: int) -> List[Entry]:
    """Every distinct valid canonical spec of the universe, with its verdict
    and bounds.  The canonical roots are built once per root combination;
    extra punctures and genus then vary on them."""
    classes = {canonicalize(t) for t in enumerate_trees(max_nodes, 3, 3)}
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
    return [(s, tng_verdict(s), generator_bounds(s)) for s in specs.values()]


def failures(entries: List[Entry]) -> List[Tuple[str, SurfaceSpec]]:
    """(check, spec) for each cross-field check that a report fails."""
    out = []
    for s, v, b in entries:
        if (s.similarity is not SelfSimilarity.NOT
                and v.verdict is not Verdict.YES):
            out.append(("self-similar-is-yes", s))
        if b.lower > b.upper:
            out.append(("lower<=upper", s))
        if ((b.flux_rank is None) == s.countable
                or (not s.countable and b.handle_pair_generators)):
            out.append(("countable-has-flux-rank", s))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-nodes", type=int, default=3,
                   help="largest root tree size in nodes")
    args = p.parse_args(argv)
    if args.max_nodes < 1:
        # no trees, no specs: an empty census would pass every check
        p.error("--max-nodes must be at least 1, got %d" % args.max_nodes)
    entries = census(args.max_nodes)
    print("specs=%d" % len(entries))
    rules = collections.Counter(v.rule for _, v, _ in entries)
    for rule, n in sorted(rules.items(), key=lambda rn: (-rn[1], rn[0])):
        print("%s=%d" % (rule, n))
    bad = failures(entries)
    for check, s in bad:
        print("FAIL %s: %s" % (check, spec_to_text(s).strip().replace(
            "\n", "; ")))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
