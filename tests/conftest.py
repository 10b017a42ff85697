"""Shared generators and the witness-evaluation harness."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, settings

from endcalc.classify import Character, ObstructionWitness, _fluxes
from endcalc.endspace import (
    CANTOR,
    EndType,
    SurfaceSpec,
    canonicalize,
    canonicalize_spec,
    e_cp,
    format_type,
    invariant_bundle,
    node,
    planar_tower,
    preceq,
    sort_key,
)
from endcalc.oracle import enumerate_trees, oracle_preceq
from endcalc import flux

settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Random trees and specs
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, depth: int, max_children: int = 3,
                allow_cantor: bool = True, p_genus: float = 0.3,
                p_cantor: float = 0.3) -> EndType:
    kids = []
    if depth > 0:
        for _ in range(rng.randrange(0, max_children + 1)):
            kids.append(random_tree(rng, depth - 1, max_children,
                                    allow_cantor, p_genus, p_cantor))
    return node(genus=rng.random() < p_genus,
                cantor=allow_cantor and rng.random() < p_cantor,
                children=kids)


#: The planar end accumulated by punctures only.
FLUTE = planar_tower(1)
#: The end accumulated by genus alone.
LOCH_NESS = node(genus=True)
#: The Cantor class with nothing else below it.
CANTOR_LEAF = node(cantor=True)


def random_canonical_tree(rng: random.Random, depth: int = 3,
                          **kw) -> EndType:
    return canonicalize(random_tree(rng, depth, **kw))


def check_shared_predecessors(s: SurfaceSpec) -> None:
    """``invariant_bundle``'s C and ``classify``'s flux characters, which
    read the roots' shared predecessors unchecked, against ``e_cp``, which
    checks each admissible pair of root classes of the validated spec s."""
    types = s.root_types()
    pairs = list(itertools.combinations(types, 2))
    pairs += [(t, t) for t, m in s.roots if m is CANTOR or m >= 2]
    assert invariant_bundle(s).C == max(
        (len(e_cp(s, a, b)) for a, b in pairs), default=0)
    for a, b in pairs:
        zs = sorted(e_cp(s, a, b), key=sort_key)
        pair = (format_type(a), format_type(b)) if zs else None
        for kind in ("FLUX", "FLUX_MOD2"):
            assert _fluxes(a, b, kind) == [
                Character(kind, z=format_type(z), pair=pair) for z in zs]


def type_closure(s: SurfaceSpec) -> FrozenSet[EndType]:
    """All canonical types mentioned in roots and subordinates, transitively
    (a plain walk: the reference for ``SurfaceSpec.countable``)."""
    seen: set = set()

    def walk(t: EndType) -> None:
        if t in seen:
            return
        seen.add(t)
        for c in t.children:
            walk(c)

    for t, _ in s.roots:
        walk(canonicalize(t))
    for t, _ in s.subordinates:
        walk(canonicalize(t))
    return frozenset(seen)


def reference_sort_key(t: EndType) -> tuple:
    """The order of ``endspace.sort_key`` by a plain recursion, one frame
    per level (the reference for the key each node gets when built)."""
    kids = []
    for c in t.children:
        kids.append(reference_sort_key(c))
    return (t.depth(), len(t.children), t.direct_genus, t.self_accumulating,
            tuple(sorted(kids)))


def random_spec(rng: random.Random,
                countable: Optional[bool] = None) -> SurfaceSpec:
    """A validated canonical spec; countable=True restricts to finite classes."""
    while True:
        allow_cantor = countable is not True
        roots = []
        for _ in range(rng.randint(1, 3)):
            t = random_tree(rng, rng.randint(0, 3),
                            allow_cantor=allow_cantor)
            if t.self_accumulating:
                m = CANTOR
            else:
                m = rng.randint(1, 3)
            roots.append((t, m))
        raw = SurfaceSpec(
            roots=tuple(roots),
            extra_punctures=rng.choice((0, 0, 0, 1, 2)),
            extra_genus=rng.choice((0, 0, 0, 1)),
        )
        spec, diags = canonicalize_spec(raw)
        if diags:
            continue
        if countable is True and not spec.countable:
            continue
        if countable is False and spec.countable:
            continue
        return spec


# ---------------------------------------------------------------------------
# Witness evaluation on flux models
# ---------------------------------------------------------------------------


def minvert(f: flux.MultiEndPerm) -> flux.MultiEndPerm:
    """The inverse of a multi-ray permutation model (a reference: the
    package composes but never inverts them)."""
    n = f.n
    rho_inv = [0] * n
    for r, t in enumerate(f.rho):
        rho_inv[t] = r
    offsets = tuple(-f.offsets[rho_inv[t]] for t in range(n))
    tables: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(n)]
    for r in range(n):
        for i, (t, j) in f.tables[r].items():
            tables[t][j] = (r, i)
    return flux.MultiEndPerm(n, rho=tuple(rho_inv), offsets=offsets,
                             tables=tables)


class WitnessModel:
    """Concrete permutation models for a witness's named generators.

    Each character gets a model component: FLUX characters evaluate an
    integer-permutation flux, PARITY characters the sign of a finite
    permutation, and a FLUX_MOD2/PARITY pair shares one multi-ray model
    evaluated through theta_tilde.  Elements compose componentwise, so
    additivity of the evaluation on random products checks that the
    claimed characters really form a homomorphism.
    """

    def __init__(self, witness: ObstructionWitness, spec: SurfaceSpec):
        self.witness = witness
        kinds = [c.kind for c in witness.characters]
        self.kinds = kinds
        if "FLUX_MOD2" in kinds:
            assert sorted(kinds) == ["FLUX_MOD2", "PARITY"]
            self.mode = "multiray"
            mult = 2
            for t, m in spec.roots:
                if m is not CANTOR and m >= 2:
                    mult = m
                    break
            self.rays = mult
            self.designated = [flux.ray_swap(mult, i, i + 1)
                               for i in range(mult - 1)]
        else:
            self.mode = "componentwise"

    # -- elements -----------------------------------------------------------

    def identity(self):
        if self.mode == "multiray":
            return flux.MultiEndPerm(self.rays)
        parts = []
        for c in self.witness.characters:
            if c.kind == "FLUX":
                parts.append(flux.EndPerm(0))
            else:
                parts.append((0, 1))  # identity permutation of a 2-class
        return tuple(parts)

    def generators(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for idx, gen in enumerate(self.witness.generators):
            if self.mode == "multiray":
                if gen.kind in ("shift", "handle_shift"):
                    out[gen.name] = flux.ray_shift(self.rays, 0, 1)
                else:
                    out[gen.name] = flux.ray_swap(self.rays, 0, 1)
            else:
                parts = list(self.identity())
                c = self.witness.characters[idx]
                if c.kind == "FLUX":
                    parts[idx] = flux.EndPerm(1)
                else:
                    parts[idx] = (1, 0)  # a transposition
                out[gen.name] = tuple(parts)
        return out

    def compose(self, a, b):
        if self.mode == "multiray":
            return flux.mcompose(a, b)
        parts = []
        for c, x, y in zip(self.witness.characters, a, b):
            if c.kind == "FLUX":
                parts.append(flux.compose(x, y))
            else:
                parts.append(tuple(x[y[i]] for i in range(len(x))))
        return tuple(parts)

    def invert(self, a):
        if self.mode == "multiray":
            return minvert(a)
        parts = []
        for c, x in zip(self.witness.characters, a):
            if c.kind == "FLUX":
                parts.append(flux.invert(x))
            else:
                inv = [0] * len(x)
                for i, v in enumerate(x):
                    inv[v] = i
                parts.append(tuple(inv))
        return tuple(parts)

    def evaluate(self, a) -> Tuple[int, ...]:
        if self.mode == "multiray":
            pair = flux.theta_tilde(a, self.designated)
            out = []
            for c in self.witness.characters:
                out.append(pair[0] if c.kind == "FLUX_MOD2" else pair[1])
            return tuple(out)
        vals = []
        for c, x in zip(self.witness.characters, a):
            if c.kind == "FLUX":
                vals.append(flux.phi(x, 0))
            else:
                vals.append(flux.perm_parity(x))
        return tuple(vals)

    def add_images(self, u: Tuple[int, ...],
                   v: Tuple[int, ...]) -> Tuple[int, ...]:
        out = []
        for c, a, b in zip(self.witness.characters, u, v):
            s = a + b
            if c.kind != "FLUX":
                s %= 2
            out.append(s)
        return tuple(out)

    def random_word(self, rng: random.Random, gens: List[object]):
        elt = self.identity()
        for _ in range(rng.randint(1, 6)):
            g = rng.choice(gens)
            if rng.random() < 0.5:
                g = self.invert(g)
            elt = self.compose(elt, g)
        return elt


def images_generate_target(witness: ObstructionWitness) -> bool:
    """The generator images must span Z^a x (Z/2)^b."""
    free_idx = [i for i, c in enumerate(witness.characters)
                if c.kind == "FLUX"]
    tor_idx = [i for i, c in enumerate(witness.characters)
               if c.kind != "FLUX"]
    images = [g.image for g in witness.generators]
    # free part: some pair of images restricted to the free coordinates has
    # determinant +-1 (rank-2 case) or a single unit entry (rank-1 case)
    if free_idx:
        if len(free_idx) == 1:
            if not any(abs(img[free_idx[0]]) == 1 for img in images):
                return False
        else:
            ok = False
            for a in range(len(images)):
                for b in range(a + 1, len(images)):
                    m = [[images[x][y] for y in free_idx] for x in (a, b)]
                    if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1:
                        ok = True
            if not ok:
                return False
    if tor_idx:
        # rank over GF(2) of the torsion columns must equal their count
        rows = [tuple(img[i] % 2 for i in tor_idx) for img in images]
        rank = 0
        pivots: List[Tuple[int, ...]] = []
        for row in rows:
            cur = row
            for p in pivots:
                lead = next(i for i, v in enumerate(p) if v)
                if cur[lead]:
                    cur = tuple((a + b) % 2 for a, b in zip(cur, p))
            if any(cur):
                pivots.append(cur)
                rank += 1
        if rank < len(tor_idx):
            return False
    return True


def check_witness_on_models(witness: ObstructionWitness, spec: SurfaceSpec,
                            products: int = 200, seed: int = 1234) -> None:
    """Assert the witness characters behave as a surjective homomorphism."""
    assert witness.is_noncyclic()
    assert len(witness.characters) == witness.free_rank + witness.torsion2
    assert images_generate_target(witness)

    model = WitnessModel(witness, spec)
    gens = model.generators()
    for gen in witness.generators:
        got = model.evaluate(gens[gen.name])
        assert got == gen.image, (gen.name, got, gen.image)

    rng = random.Random(seed)
    pool = list(gens.values())
    for _ in range(products):
        a = model.random_word(rng, pool)
        b = model.random_word(rng, pool)
        lhs = model.evaluate(model.compose(a, b))
        rhs = model.add_images(model.evaluate(a), model.evaluate(b))
        assert lhs == rhs, (lhs, rhs)


ROOT = Path(__file__).resolve().parent.parent


def _load_file(name: str, path: Path):
    """The module at path, loaded from its file once and not modified."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_surfgen():
    """The benchmark's generator, ``bench/surfgen.py``."""
    return _load_file("surfgen", ROOT / "bench" / "surfgen.py")


# one edit inserts or substitutes a piece: every token the grammar reads,
# a defined and an undefined name, a comment and separators
_PIECES = ["acc", "cantor", "genus", "puncture", "omega", "root", "type",
           "sub", "punctures", "(", ")", "[", "]", ",", "*", "+", "^", "=",
           "0", "1", "2", "t0", "x", "#", "\n", " "]


def mutated_text(rng, text):
    """text after one or two seeded edits: a slice deleted, a piece inserted
    or substituted, a slice repeated, or the tail cut."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(_PIECES) + text[j:]
        elif op == 3:
            text = text[:j] + text[i:]
        else:
            text = text[:i]
    return text


def load_census_tool():
    """``tools/census.py``: the census universe and its cross-field
    checks."""
    return _load_file("census_tool", ROOT / "tools" / "census.py")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture(scope="session")
def small_tree_sweep() -> Tuple[list, list]:
    """preceq against the oracle on every pair of raw trees with at most 4
    nodes (so depth <= 3 via chains and branching <= 3 via stars), all flag
    combinations at every node: (universe, disagreeing pairs).

    The sweep is the slowest differential check, so the tests that need it
    share one run.
    """
    universe = enumerate_trees(max_nodes=4, max_children=3, max_depth=3)
    disagreements = [
        (y, x)
        for y, x in itertools.product(universe, repeat=2)
        if preceq(y, x) != oracle_preceq(y, x)
    ]
    return universe, disagreements


@pytest.fixture(scope="session")
def swindle_errors() -> List[str]:
    """``suite_swindle(200)``: every permutation of the exhaustive small
    supports, checked once for the flux tests and acceptance criterion 5."""
    return flux.suite_swindle(200)


ACCEPTANCE_RESULTS: List[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
