"""``tools/report_digest.py`` on a few generated surfaces: the reports are
byte-identical to the pinned digest; ``tools/quotient_sweep.py`` on the
4-node classes; ``tools/census.py`` on the 2-node universe and on a
failed check.  Also lints of the package sources: no module imports a
name it never uses, no public name is used by the tests alone, the
oracle takes only ``EndType`` from the package, the memoized functions
are a pinned list, and the README's rule table lists the verdict rules."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import endcalc
import endcalc.classify as cl
from endcalc.classify import (
    BoundsReport,
    TNGVerdict,
    Verdict,
    generator_bounds,
    tng_verdict,
)
from endcalc.dsl import parse
from conftest import load_census_tool

ROOT = Path(__file__).resolve().parent.parent


def _digest(hash_seed: str) -> str:
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"),
         "--seeds", "1", "2", "--count", "40"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert out.stderr == ""
    return out.stdout


# change only with a change meant to alter a report, and say which
PINNED = ("valid=78 sha256="
          "05f75e8715662d1b8aa065d2c963be08561177213a5e677317be56e81f922537\n")


def test_report_digest_is_stable():
    assert _digest("0") == PINNED
    assert _digest("1") == PINNED  # reports do not depend on hash order


@pytest.mark.parametrize("count", ["0", "-3"])
def test_report_digest_rejects_an_empty_range(count):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"),
         "--count", count],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and out.stdout == ""
    assert "--count must be at least 1" in out.stderr


def test_quotient_sweep_on_4_node_classes():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "quotient_sweep.py"),
         "--max-nodes", "4"],
        capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == (
        "trees=732 classes=262 pairs=68644 disagreements=0\n")


def test_census_on_2_node_trees():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "census.py"),
         "--max-nodes", "2"],
        capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == (
        "specs=538\n"
        "unknown=397\n"
        "unresolved-extra-genus=43\n"
        "cantor-plus-tame-end=37\n"
        "noncyclic-abelian-quotient=27\n"
        "noncyclic-quotient-unavailable=13\n"
        "telescoping=8\n"
        "rokhlin=7\n"
        "malestein-tao-involution=6\n")


def _replaced(b: BoundsReport, **changes) -> BoundsReport:
    return BoundsReport(**{name: changes.get(name, getattr(b, name))
                           for name in BoundsReport._fields})


def test_census_reports_a_failed_check_and_an_empty_universe():
    tool = load_census_tool()
    s = parse("root acc([acc([cantor(genus)])])\n")  # uncountable
    b = generator_bounds(s)
    c = parse("root omega + 1 * 2\n")
    cb = generator_bounds(c)
    assert tool.failures([(c, tng_verdict(c), cb)]) == []
    assert tool.failures([
        (s, TNGVerdict(Verdict.UNKNOWN, "unknown"), b),
        (s, tng_verdict(s), _replaced(b, lower=b.upper + 1)),
        (s, tng_verdict(s), _replaced(b, flux_rank=0)),
        (s, tng_verdict(s), _replaced(b, handle_pair_generators=1)),
        (c, tng_verdict(c), _replaced(cb, flux_rank=None)),
    ]) == [("self-similar-is-yes", s), ("lower<=upper", s),
           ("countable-has-flux-rank", s), ("countable-has-flux-rank", s),
           ("countable-has-flux-rank", c)]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "census.py"),
         "--max-nodes", "0"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and out.stdout == ""
    assert "--max-nodes must be at least 1" in out.stderr


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_bytes())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = [(alias.asname or alias.name).split(".")[0]
                for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                for alias in n.names]
    return [name for name in imported
            if name != "annotations" and name not in used]


def test_package_modules_use_every_import():
    unused = {path.name: _unused_imports(path)
              for path in sorted((ROOT / "src" / "endcalc").glob("*.py"))
              if path.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def _public_top_level_names(tree: ast.Module) -> list:
    names = []
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            names.append(n.name)
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _references(tree: ast.AST) -> set:
    """Every name a module loads or imports and every attribute it reads."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            refs.update(alias.name for alias in n.names)
    return refs


def test_package_has_no_names_only_tests_use():
    # a public name is exported, used in its own module, or used by another
    # package module, a tool or the benchmark; a name only tests call
    # belongs in the tests
    modules = sorted((ROOT / "src" / "endcalc").glob("*.py"))
    sources = modules + sorted((ROOT / "tools").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py"))
    used = set(endcalc.__all__).union(
        *(_references(ast.parse(path.read_bytes())) for path in sources))
    unused = ["%s.%s" % (path.stem, name) for path in modules
              for name in _public_top_level_names(ast.parse(path.read_bytes()))
              if name not in used]
    assert unused == []


def test_oracle_takes_only_endtype_from_the_package():
    # the oracle is an independent check of endspace: it may share no
    # machinery with the code it checks
    tree = ast.parse((ROOT / "src" / "endcalc" / "oracle.py").read_bytes())
    imports = [(n.level, n.module, [a.name for a in n.names])
               for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and (n.level or (n.module or "").startswith("endcalc"))]
    imports += [(0, a.name, []) for n in ast.walk(tree)
                if isinstance(n, ast.Import) for a in n.names
                if a.name.startswith("endcalc")]
    assert imports == [(1, "endspace", ["EndType"])]


def _memoized(tree: ast.Module) -> list:
    """The functions decorated with ``lru_cache`` or ``cache``."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in n.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                name = d.attr if isinstance(d, ast.Attribute) else getattr(
                    d, "id", None)
                if name in ("lru_cache", "cache"):
                    out.append(n.name)
    return out


def test_memoized_functions_are_pinned():
    # a memo holds its entries for the life of the process, so adding one
    # is a decision about memory (the preorder sweep's peak RSS) as well as
    # time: change this list only with that decision
    memoized = {"%s.%s" % (path.stem, name)
                for path in sorted((ROOT / "src" / "endcalc").glob("*.py"))
                for name in _memoized(ast.parse(path.read_bytes()))}
    assert memoized == {
        "endspace.canonicalize", "endspace.below", "flux._twist_word",
        "oracle._check_scale", "oracle._flags", "oracle._nodes",
        "oracle._positions", "oracle._cofinal"}


def test_readme_rule_table_lists_the_verdict_rules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Verdict rules\n", 1)[1].split("\n## ", 1)[0]
    tags = re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)
    assert len(tags) == len(set(tags))
    assert set(tags) == {v for k, v in vars(cl).items()
                         if k.startswith("RULE_")}
