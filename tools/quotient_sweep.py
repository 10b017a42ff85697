"""preceq against the brute-force oracle on every pair of canonical classes
of the small raw trees.

The trees of ``enumerate_trees(N, 3, 3)`` are grouped by ``canonicalize``;
each class is represented by its first tree in enumeration order.  Every
tree must be ``oracle_equivalent`` to its representative, so the oracle
decides the same relation on the quotient as on the raw trees; then
``preceq`` and ``oracle_preceq`` are compared on every ordered pair of
representatives.  The script prints one line,
``trees=T classes=C pairs=P disagreements=D``, where D counts the trees
not equivalent to their representative plus the pairs on which the two
orders differ, and exits 1 when D is not 0.

Usage, from any directory::

    python3 tools/quotient_sweep.py --max-nodes 5

N = 5 covers the 20M raw pairs of 4,476 trees through 1,012,036 class
pairs.  The package is imported from ``src/`` next to this script.
Standard library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from endcalc.endspace import canonicalize, preceq  # noqa: E402
from endcalc.oracle import (  # noqa: E402
    enumerate_trees,
    oracle_equivalent,
    oracle_preceq,
)


def sweep(max_nodes: int) -> Tuple[int, int, int, int]:
    """(trees, classes, pairs, disagreements) for the trees of at most
    ``max_nodes`` nodes."""
    trees = enumerate_trees(max_nodes, 3, 3)
    reps = {}
    for t in trees:
        reps.setdefault(canonicalize(t), t)
    bad = sum(not oracle_equivalent(t, reps[canonicalize(t)]) for t in trees)
    classes = list(reps.values())
    bad += sum(preceq(y, x) != oracle_preceq(y, x)
               for y in classes for x in classes)
    return len(trees), len(classes), len(classes) ** 2, bad


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-nodes", type=int, default=5,
                   help="largest tree size in nodes")
    args = p.parse_args(argv)
    if args.max_nodes < 1:
        # no trees, no pairs: an empty sweep would pass on any tree
        p.error("--max-nodes must be at least 1, got %d" % args.max_nodes)
    counts = sweep(args.max_nodes)
    print("trees=%d classes=%d pairs=%d disagreements=%d" % counts)
    return 1 if counts[3] else 0


if __name__ == "__main__":
    raise SystemExit(main())
