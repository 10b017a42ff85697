"""One sha256 over endcalc's reports for a range of generated surfaces.

For each seed and each index below the count, the surface that
``bench/surfgen.py`` generates is parsed and classified.  A valid surface
adds its JSON report and its TEXT report, both with the witness and the
bounds; a rejected one adds its error line, ``<exception>: <message>``.
The script prints ``valid=N sha256=<hex>``, where N counts the surfaces
that classified.  Two trees that print the same line render every one of
these surfaces the same, byte for byte.

Usage, from any directory::

    python3 tools/report_digest.py --seeds 1 2 --count 4000

The package is imported from ``src/`` next to this script, so running a
copy of the script inside another checkout digests that checkout.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import surfgen  # noqa: E402
from endcalc.classify import classify  # noqa: E402
from endcalc.dsl import ParseError, emit_report, parse  # noqa: E402
from endcalc.endspace import SpecError  # noqa: E402


def digest(seeds: Iterable[int], count: int) -> Tuple[int, str]:
    """(valid surfaces, sha256 hex) over the reports of the given range."""
    h = hashlib.sha256()
    valid = 0
    for seed in seeds:
        for index in range(count):
            text = surfgen.make_surface(seed, index).text
            try:
                report = classify(parse(text))
            except (ParseError, SpecError) as e:
                parts = ["%s: %s\n" % (type(e).__name__, e)]
            else:
                valid += 1
                parts = [emit_report(report, fmt, include_witness=True,
                                     include_bounds=True)
                         for fmt in ("JSON", "TEXT")]
            for part in parts:
                h.update(part.encode())
                h.update(b"\0")
    return valid, h.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--count", type=int, default=4000,
                   help="surfaces per seed, indices 0 to count - 1")
    args = p.parse_args(argv)
    if args.count < 1:
        # an empty range digests to the same line on any two trees
        p.error("--count must be at least 1, got %d" % args.count)
    valid, hexdigest = digest(args.seeds, args.count)
    print("valid=%d sha256=%s" % (valid, hexdigest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
