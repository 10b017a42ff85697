"""Command line interface: classify surfaces, run flux computations and suites.

Exit codes: 0 success; 1 an --expect or corpus expectation mismatched;
2 parse or validation failure, including a --window, --k or --n outside
its limits, a corpus dir that is not a directory, and an --expectations
file that cannot be read as JSON or is not a JSON object of objects; 3 a
property suite found a violation; 4 an unexpected internal error,
reported as one ``error:`` line without a traceback.

Limits: ``flux shift`` and ``flux swindle`` take a --window of 1 to
100000 (MAX_WINDOW) and ``flux swindle`` a --k of 1 to 1000 (MAX_K);
``flux check`` takes an --n of 1 to 2000 (MAX_TRIALS) and a --window of
1 to 200 (MAX_CHECK_WINDOW).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .classify import classify
from .dsl import ParseError, emit_report, parse, report_to_dict
from .endspace import SpecError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4

# Upper limits of the flux commands' sizes.  At its limits flux swindle
# takes well under a second of CPU, and so does flux shift; flux check
# takes about a second with the swindle suite's 5166 checks at
# MAX_CHECK_WINDOW, so its default window of 200 is also its largest, and
# about 0.6 s with the theta suite at MAX_TRIALS.
MAX_WINDOW = 100000
MAX_K = 1000
MAX_TRIALS = 2000
MAX_CHECK_WINDOW = 200


def _default_seed() -> int:
    try:
        return int(os.environ.get("ENDCALC_SEED", "42"))
    except ValueError as e:
        raise ValueError("ENDCALC_SEED: %s" % e) from None


def _positive_int(limit: int):
    """argparse type: an integer from 1 to ``limit`` (a window, k or count)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1, got %d"
                                             % value)
        if value > limit:
            raise argparse.ArgumentTypeError("must be at most %d, got %d"
                                             % (limit, value))
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="endcalc",
        description="Classify infinite-type surface descriptions for "
                    "topological normal generation, and exercise the "
                    "shift-flux machinery on permutation models.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one .surf file")
    c.add_argument("path", help="surface description file")
    c.add_argument("--json", action="store_true", help="emit the JSON report")
    c.add_argument("--witness", action="store_true",
                   help="include the obstruction witness")
    c.add_argument("--bounds", action="store_true",
                   help="include generator bounds in text output")
    c.add_argument("--expect", choices=["YES", "NO", "UNKNOWN"],
                   help="exit 1 unless the verdict matches")

    f = sub.add_parser("flux", help="permutation-model computations")
    fsub = f.add_subparsers(dest="flux_command", required=True)

    fp = fsub.add_parser("phi", help="flux of a permutation at a cut")
    fp.add_argument("--perm", required=True, help='e.g. "d=1 table={0:1,1:0}"')
    fp.add_argument("--cut", type=int, default=0)

    ft = fsub.add_parser("theta", help="per-strip flux tuple")
    ft.add_argument("--perms", required=True,
                    help="semicolon-separated permutation literals, "
                         "one per strip")
    ft.add_argument("--n", type=int, required=True,
                    help="number of maximal ends (expects n-1 strips)")

    fs = fsub.add_parser("shift", help="classify and normalize a shift")
    fs.add_argument("--spec", required=True,
                    help='e.g. "excluded=finite{0,5}" or '
                         '"excluded=periodic{N=1,p=3,r=0}"')
    fs.add_argument("--window", type=_positive_int(MAX_WINDOW), default=200)

    fw = fsub.add_parser("swindle", help="verify the commutator identity")
    fw.add_argument("--perm", required=True)
    fw.add_argument("--k", type=_positive_int(MAX_K), required=True)
    fw.add_argument("--window", type=_positive_int(MAX_WINDOW), default=200)

    fc = fsub.add_parser("check", help="run a randomized property suite")
    fc.add_argument("--suite", required=True,
                    choices=["additivity", "theta", "normalize", "swindle"])
    fc.add_argument("--n", type=_positive_int(MAX_TRIALS), default=1000,
                    help="trial count")
    fc.add_argument("--seed", type=int, default=None)
    fc.add_argument("--window", type=_positive_int(MAX_CHECK_WINDOW),
                    default=200)

    k = sub.add_parser("corpus", help="classify every .surf file in a directory")
    k.add_argument("dir")
    k.add_argument("--expectations", help="JSON file of expected report fields")
    return p


def _read_surf(path: Path) -> Optional[str]:
    """The text of a .surf file, or None after a one-line error on stderr."""
    try:
        # a leading BOM is dropped after decoding, so that a decode error
        # still gives the byte's offset in the file
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
    except UnicodeDecodeError as e:
        print("error: %s is not UTF-8 text: %s" % (path, e), file=sys.stderr)
    return None


def cmd_classify(args) -> int:
    text = _read_surf(Path(args.path))
    if text is None:
        return EXIT_PARSE
    try:
        spec = parse(text)
    except (ParseError, SpecError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    report = classify(spec)
    fmt = "JSON" if args.json else "TEXT"
    sys.stdout.write(emit_report(report, fmt,
                                 include_witness=args.witness,
                                 include_bounds=args.bounds or args.json))
    if args.expect and report.verdict.verdict.value != args.expect:
        print("expected verdict %s, got %s"
              % (args.expect, report.verdict.verdict.value), file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _run_suite(args) -> int:
    from . import flux

    seed = args.seed if args.seed is not None else _default_seed()
    n = args.n
    if args.suite == "additivity":
        errors = flux.suite_phi(n, seed)
    elif args.suite == "theta":
        errors = flux.suite_theta(n, seed)
    elif args.suite == "normalize":
        errors = flux.suite_normalize(n, seed, window=args.window)
    else:
        errors = flux.suite_swindle(window=args.window)
        n = flux.SWINDLE_PERMUTATIONS
    print("suite=%s trials=%d seed=%d" % (args.suite, n, seed))
    if errors:
        for e in errors:
            print("violation: %s" % e)
        return EXIT_INVARIANT
    print("ok")
    return EXIT_OK


def cmd_flux(args) -> int:
    from . import flux  # only the flux commands need it

    try:
        if args.flux_command == "phi":
            perm = flux.parse_perm_literal(args.perm)
            print(flux.phi(perm, args.cut))
        elif args.flux_command == "theta":
            perms = [flux.parse_perm_literal(t)
                     for t in args.perms.split(";") if t.strip()]
            print(flux.theta_z(perms, args.n))
        elif args.flux_command == "shift":
            skipped = flux.parse_shift_literal(args.spec)
            kind = flux.classify_shift(skipped)
            print("kind: %s" % kind.value)
            if kind is not flux.ShiftKind.FULL:
                t = flux.normalizer(skipped)
                print("normalizer: %s" % t.description)
                print("normalizes: %s"
                      % flux.verify_normalization(skipped, t, args.window))
        elif args.flux_command == "swindle":
            perm = flux.parse_perm_literal(args.perm)
            print(flux.swindle_check(perm, args.k, args.window))
        else:
            return _run_suite(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _lookup(report: dict, key: str):
    if key == "budget":
        b = report["bounds"]["budget"]
        return [b["shifts"], b["dehn"], b["handles"]]
    if key in report:
        return report[key]
    if key in report["bounds"]:
        return report["bounds"][key]
    if key in ("free_rank", "torsion2"):
        w = report.get("witness")
        return None if w is None else w["target"][key]
    raise KeyError(key)


def cmd_corpus(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print("error: %s is not a directory" % directory, file=sys.stderr)
        return EXIT_PARSE
    files = sorted(directory.glob("*.surf"))
    expectations = {}
    if args.expectations:
        try:
            # JSON is UTF-8 (RFC 8259), whatever the locale
            expectations = json.loads(Path(args.expectations).read_bytes())
        except (OSError, ValueError, RecursionError) as e:
            # ValueError: malformed JSON, bad UTF-8, or an integer over
            # the interpreter's digit limit
            print("error reading expectations: %s" % e, file=sys.stderr)
            return EXIT_PARSE
        if not (isinstance(expectations, dict) and all(
                isinstance(v, dict) for v in expectations.values())):
            print("error: expectations %s is not a JSON object of objects"
                  % args.expectations, file=sys.stderr)
            return EXIT_PARSE

    rows: List[List[str]] = []
    parse_failed = False
    mismatches: List[str] = []
    for path in files:
        text = _read_surf(path)
        if text is None:
            parse_failed = True
            continue
        try:
            report = classify(parse(text))
        except (ParseError, SpecError) as e:
            print("parse failure in %s: %s" % (path.name, e), file=sys.stderr)
            parse_failed = True
            continue
        d = report_to_dict(report)
        rows.append([path.name, d["verdict"], d["rule"], str(d["M"]),
                     str(d["C"]), str(d["M_iso"]),
                     str(d["bounds"]["lower"]), str(d["bounds"]["upper"])])
        for key, expected in expectations.get(path.name, {}).items():
            try:
                actual = _lookup(d, key)
            except KeyError:
                mismatches.append("%s: unknown expectation key %r"
                                  % (path.name, key))
                continue
            if actual != expected:
                mismatches.append("%s: %s expected %r, got %r"
                                  % (path.name, key, expected, actual))

    known = {path.name for path in files}
    for name in expectations:
        if name not in known:
            mismatches.append("%s: expected file missing from corpus" % name)

    header = ["file", "verdict", "rule", "M", "C", "M_iso", "lower", "upper"]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    print(fmt % tuple(header))
    for r in rows:
        print(fmt % tuple(r))
    for m in mismatches:
        print("mismatch: %s" % m)

    if parse_failed:
        return EXIT_PARSE
    if mismatches:
        return EXIT_MISMATCH
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "flux":
            return cmd_flux(args)
        return cmd_corpus(args)
    except Exception as e:  # a bug: one line and its own exit code
        print("error: internal error: %r" % e, file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
