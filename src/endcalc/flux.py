"""Finite permutation models for mapping classes on shift strips.

A mapping class restricted to the Z-indexed ends of a bi-infinite strip
is modeled by :class:`EndPerm`: an eventual translation with a finite
override table.  The signed count of ends crossing a separating cut
(:func:`phi`) is the flux homomorphism; a shift map with skipped indices
is given by its skipped set, a :class:`FiniteExcluded` or
:class:`PeriodicExcluded`, and corrected to the full shift by
:func:`normalizer`; :func:`swindle_check` verifies the commutator
identity expressing a finitely bounded map in terms of the full shift.
The repetition map behind it is built in one ascending pass and requires
a step k >= 1.  The tests keep reference forms of the loops written inline.

Multi-ray models (:class:`MultiEndPerm`) cover mapping classes that
permute same-type maximal ends; :func:`theta_tilde` computes the parity
pair used to obstruct normal generation in that case.

:func:`parse_perm_literal` and :func:`parse_shift_literal` read the
literal syntax of the ``endcalc flux`` commands, ``d=1 table={0:1}`` and
``excluded=finite{0,5}`` or ``excluded=periodic{N=1,p=3,r=0}``.

Orientation convention: for a cut at c the left side is {i < c} and the
flux counts left-to-right crossings positively.  Flipping the cut's
orientation negates the flux.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .endspace import Record


class EndPerm:
    """Bijection of Z that is eventually translation by d.

    ``table`` overrides the default i -> i + d on finitely many indices;
    the whole map must be a bijection, which holds exactly when the table
    image equals the shifted table domain as a set.
    """

    __slots__ = ("d", "table")

    def __init__(self, d: int = 0,
                 table: Optional[Mapping[int, int]] = None):
        self.d = int(d)
        self.table = {int(i): int(j) for i, j in (table or {}).items()
                      if int(j) != int(i) + self.d}
        self._validate()

    def _validate(self) -> None:
        img = set(self.table.values())
        if (len(img) != len(self.table)
                or img != {i + self.d for i in self.table}):
            raise ValueError("override table does not induce a bijection of Z")

    def __call__(self, i: int) -> int:
        return self.table.get(i, i + self.d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EndPerm)
                and self.d == other.d and self.table == other.table)

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.table.items()))))

    def __repr__(self) -> str:
        items = ",".join("%d:%d" % kv for kv in sorted(self.table.items()))
        return "EndPerm(d=%d%s)" % (self.d, ", {%s}" % items if items else "")


def compose(f: EndPerm, g: EndPerm) -> EndPerm:
    """Pointwise f after g."""
    d = f.d + g.d
    # off g's table g translates by g.d, so f(g(i)) != i + d needs i in
    # g's table or g(i) = i + g.d in f's table
    table = {}
    for i in set(g.table) | {j - g.d for j in f.table}:
        v = f(g(i))
        if v != i + d:
            table[i] = v
    return EndPerm(d, table)


def invert(f: EndPerm) -> EndPerm:
    return EndPerm(-f.d, {v: k for k, v in f.table.items()})


def phi(f: EndPerm, c: int = 0) -> int:
    """Signed crossing count at cut c: |left -> right| - |right -> left|."""
    left_right = 0
    right_left = 0
    overridden = 0  # table keys among the |d| indices translated across c
    for i, v in f.table.items():
        if i < c <= v:
            left_right += 1
        elif v < c <= i:
            right_left += 1
        if c - f.d <= i < c or c <= i < c - f.d:
            overridden += 1
    if f.d > 0:
        left_right += f.d - overridden
    elif f.d < 0:
        right_left += -f.d - overridden
    return left_right - right_left


_PERM_RE = re.compile(
    r"^\s*(?:perm\s+)?d\s*=\s*(-?\d+)"
    r"(?:\s+table\s*=\s*\{([^}]*)\})?\s*$")


def parse_perm_literal(text: str) -> EndPerm:
    """``d=<int> table={i:j,...}`` -> EndPerm (the table is optional)."""
    m = _PERM_RE.match(text)
    if m is None:
        raise ValueError("bad permutation literal %r: expected "
                         "'d=<int> table={i:j,...}'" % text)
    try:
        d = int(m.group(1))
    except ValueError as e:
        raise ValueError("bad permutation literal %r: %s" % (text, e)) from None
    table = {}
    body = m.group(2)
    if body:
        for entry in body.split(","):
            entry = entry.strip()
            if not entry:
                continue
            try:
                i, j = entry.split(":")
                table[int(i)] = int(j)
            except ValueError:
                raise ValueError("bad table entry %r in %r" % (entry, text))
    return EndPerm(d, table)


# ---------------------------------------------------------------------------
# Shift maps with skipped indices
# ---------------------------------------------------------------------------


class ShiftKind(Enum):
    FULL = "FULL"
    PERMISSIBLE = "PERMISSIBLE"
    SPONTANEOUS = "SPONTANEOUS"


class FiniteExcluded(Record):
    """Finitely many indices skipped by the shift."""

    __slots__ = ("values", "_members")
    _fields = ("values",)

    def __init__(self, values: Tuple[int, ...] = ()):
        members = frozenset(values)
        object.__setattr__(self, "values", tuple(sorted(members)))
        object.__setattr__(self, "_members", members)

    def contains(self, k: int) -> bool:
        return k in self._members

    def members(self, lo: int, hi: int) -> List[int]:
        """The skipped indices in [lo, hi], ascending."""
        return [k for k in self.values if lo <= k <= hi]


class PeriodicExcluded(Record):
    """Indices k >= threshold with k mod period in residues are skipped.

    The residues must be a nonempty proper subset of the period's classes
    so that the shifted index set stays unbounded in both directions.
    """

    __slots__ = _fields = ("threshold", "period", "residues")

    def __init__(self, threshold: int, period: int,
                 residues: Tuple[int, ...]):
        if period < 1:
            raise ValueError("period must be positive")
        rs = tuple(sorted({r % period for r in residues}))
        if not rs:
            raise ValueError("periodic excluded set needs at least one residue")
        if len(rs) >= period:
            raise ValueError("excluding every residue leaves no indices to shift")
        init = object.__setattr__
        init(self, "threshold", threshold)
        init(self, "period", period)
        init(self, "residues", rs)

    def contains(self, k: int) -> bool:
        return k >= self.threshold and (k % self.period) in self.residues

    def members(self, lo: int, hi: int) -> List[int]:
        """The skipped indices in [lo, hi], ascending."""
        lo = max(lo, self.threshold)
        p = self.period
        return sorted(k for r in self.residues
                      for k in range(lo + (r - lo) % p, hi + 1, p))


#: A skipped set, which gives a shift map: the one skipping its indices.
Excluded = Union[FiniteExcluded, PeriodicExcluded]


_SHIFT_FINITE_RE = re.compile(
    r"^\s*(?:shift\s+)?excluded\s*=\s*finite\s*\{([^}]*)\}\s*$")
_SHIFT_PERIODIC_RE = re.compile(
    r"^\s*(?:shift\s+)?excluded\s*=\s*periodic\s*\{\s*N\s*=\s*(-?\d+)\s*,"
    r"\s*p\s*=\s*(\d+)\s*,\s*r\s*=\s*([-\d,\s]*)\}\s*$")


def parse_shift_literal(text: str) -> Excluded:
    """``excluded=finite{...}`` or ``excluded=periodic{N=..,p=..,r=..}``."""
    m = _SHIFT_FINITE_RE.match(text) or _SHIFT_PERIODIC_RE.match(text)
    if m is None:
        raise ValueError("bad shift literal %r: expected 'excluded=finite"
                         "{...}' or 'excluded=periodic{N=<int>,p=<int>,"
                         "r=<ints>}'" % text)
    try:  # an entry or the periodic set may be malformed
        values = tuple(int(v) for v in ",".join(m.groups()).split(",")
                       if v.strip())
        if m.re is _SHIFT_FINITE_RE:
            return FiniteExcluded(values)
        n, p, *residues = values
        return PeriodicExcluded(n, p, tuple(residues))
    except ValueError as e:
        raise ValueError("bad shift literal %r: %s" % (text, e)) from None


def classify_shift(s: Excluded) -> ShiftKind:
    """The kind of the shift skipping the indices of s."""
    if isinstance(s, PeriodicExcluded):
        return ShiftKind.SPONTANEOUS
    if s.values:
        return ShiftKind.PERMISSIBLE
    return ShiftKind.FULL


class Normalizer(Record):
    """Product of disjoint half-twist blocks correcting a shift to the full one.

    ``excluded`` is the skipped set it corrects.  Each maximal run [s..e]
    of skipped indices contributes the block of half twists at s, s+1, ...,
    e, which acts as the cycle s -> s+1 -> ... -> e+1 -> s.  Blocks of
    distinct runs are disjoint and commute, so the product is evaluable
    pointwise even when the run family is infinite (periodic case).
    """

    __slots__ = _fields = ("excluded",)

    @property
    def description(self) -> str:
        exc = self.excluded
        if isinstance(exc, PeriodicExcluded):
            return ("periodic half-twist blocks on k >= %d, k mod %d in %s"
                    % (exc.threshold, exc.period, list(exc.residues)))
        return "half-twist blocks at %s" % (_runs(exc.values),)


def normalizer(s: Excluded) -> Normalizer:
    """Half-twist correction making the shift skipping s full; errors on a
    full shift."""
    if classify_shift(s) is ShiftKind.FULL:
        raise ValueError("shift is already full; nothing to correct")
    return Normalizer(s)


def _runs(values: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    runs = []
    for v in sorted(values):
        if runs and v == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return tuple(runs)


def verify_normalization(s: Excluded, t: Normalizer, window: int) -> bool:
    """Check (T o eta)(i) == i + 1 for all |i| <= window, where eta is the
    shift skipping s.

    eta and T are written out on the bound predicates; the tests keep the
    pointwise forms of both.  Only an index i with i or i + 1 skipped by
    the shift or blocked by the normalizer can fail: otherwise eta(i) is
    i + 1, which T fixes because neither i + 1 nor i is blocked.  So the
    check walks those indices alone, in ascending order.
    """
    skipped = s.contains
    blocked = t.excluded.contains
    marked = set(s.members(-window, window + 1))
    marked.update(t.excluded.members(-window, window + 1))
    marked.update([k - 1 for k in marked])  # i + 1 marked
    marked.discard(-window - 1)
    marked.discard(window + 1)
    for i in sorted(marked):
        j = i
        if not skipped(i):
            j += 1
            while skipped(j):
                j += 1
        if blocked(j):
            j += 1
        elif blocked(j - 1):
            j -= 1
            while blocked(j - 1):
                j -= 1
        if j != i + 1:
            return False
    return True


# ---------------------------------------------------------------------------
# The swindle
# ---------------------------------------------------------------------------


def _check_repetition(f: EndPerm, k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1, got %d" % k)
    if f.d != 0:
        raise ValueError("repetition map needs an eventual-translation-0 map")
    if f.table and (min(f.table) < -k or max(f.table) > k):
        raise ValueError("support exceeds [-%d, %d]" % (k, k))
    if -k in f.table and k in f.table:
        raise ValueError(
            "support touches both -%d and %d: adjacent window copies "
            "overlap; enlarge k" % (k, k))


def _repetition_pass(f: EndPerm, k: int, lo: int, hi: int) -> List[int]:
    """The repetition map h of f with step 2k on [lo, hi], for lo <= -3k.

    h(x) = x below the first window and h(x) = f(h(x - 2k) + 2k) above it,
    one conjugated copy of f in each window [2kj-k, 2kj+k], j >= 0; the
    copies must be disjoint, or h is no bijection (:func:`_check_repetition`).
    """
    step = 2 * k
    get = f.table.get  # f.d == 0
    values: List[int] = []
    for x in range(lo, hi + 1):
        if x < -k:
            values.append(x)
        else:
            y = values[x - step - lo] + step
            values.append(get(y, y))
    return values


def swindle_check(f: EndPerm, k: int, window: int = 200) -> bool:
    """Verify h o eta^{2k} o h^{-1} o eta^{-2k} == f on [-window, window].

    h is the repetition map of f with step 2k; the identity exhibits any
    finitely bounded map as a commutator with a power of the full shift.
    """
    _check_repetition(f, k)
    step = 2 * k
    lo, hi = -window - 4 * k - 2, window + 4 * k + 2
    values = _repetition_pass(f, k, lo, hi)
    inv = {v: x for x, v in enumerate(values, lo)}
    get = f.table.get
    for x in range(-window, window + 1):
        if values[inv[x - step] + step - lo] != get(x, x):
            return False
    return True


# ---------------------------------------------------------------------------
# Multi-ray end models
# ---------------------------------------------------------------------------

RayEnd = Tuple[int, int]


class MultiEndPerm:
    """Bijection of n disjoint rays of ends (each ray a copy of N).

    Ray r maps by default into ray rho[r] with an index offset; finitely
    many indices per ray may be overridden to land anywhere.  Validity is
    a windowed bijectivity check, which suffices because beyond the
    presentation radius the map is a plain matched translation.
    """

    __slots__ = ("n", "rho", "offsets", "tables")

    def __init__(self, n: int,
                 rho: Optional[Sequence[int]] = None,
                 offsets: Optional[Sequence[int]] = None,
                 tables: Optional[Sequence[Mapping[int, RayEnd]]] = None):
        self.n = int(n)
        self.rho = tuple(rho) if rho is not None else tuple(range(n))
        self.offsets = tuple(offsets) if offsets is not None else (0,) * n
        tbls: List[Dict[int, RayEnd]] = []
        for r in range(n):
            src = tables[r] if tables is not None else {}
            cleaned = {}
            for i, (t, j) in src.items():
                if (t, j) != (self.rho[r], i + self.offsets[r]):
                    cleaned[int(i)] = (int(t), int(j))
            tbls.append(cleaned)
        self.tables = tuple(tbls)
        self._validate()

    def _validate(self) -> None:
        if sorted(self.rho) != list(range(self.n)):
            raise ValueError("rho is not a permutation of the rays")
        if len(self.offsets) != self.n or len(self.tables) != self.n:
            raise ValueError("per-ray data must cover every ray")
        radius = 2
        for r in range(self.n):
            for i, (t, j) in self.tables[r].items():
                if i < 0 or j < 0 or not (0 <= t < self.n):
                    raise ValueError("table entries must stay on the rays")
                radius = max(radius, i + 1, j + 1)
        radius += max((abs(o) for o in self.offsets), default=0)
        hits = set()
        for r in range(self.n):
            table, t0, o = self.tables[r], self.rho[r], self.offsets[r]
            for i in range(radius + abs(o) + 1):
                key = table.get(i) or (t0, i + o)
                j = key[1]
                if j < 0:
                    raise ValueError("ray %d index %d maps below the ray base"
                                     % (r, i))
                if j <= radius:
                    if key in hits:
                        raise ValueError("not injective at %s" % (key,))
                    hits.add(key)
        # hits holds distinct (t, j) with t < n and 0 <= j <= radius, so
        # only a short count leaves a gap to look for
        if len(hits) < self.n * (radius + 1):
            for t in range(self.n):
                for j in range(radius + 1):
                    if (t, j) not in hits:
                        raise ValueError("not surjective at %s" % ((t, j),))

    def apply(self, r: int, i: int) -> RayEnd:
        hit = self.tables[r].get(i)
        if hit is not None:
            return hit
        return (self.rho[r], i + self.offsets[r])

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiEndPerm) and self.n == other.n
                and self.rho == other.rho and self.offsets == other.offsets
                and self.tables == other.tables)

    def __hash__(self):
        return hash((self.n, self.rho, self.offsets,
                     tuple(tuple(sorted(t.items())) for t in self.tables)))

    def __repr__(self) -> str:
        return ("MultiEndPerm(n=%d, rho=%s, offsets=%s, tables=%s)"
                % (self.n, self.rho, self.offsets,
                   [dict(sorted(t.items())) for t in self.tables]))


def ray_swap(n: int, a: int, b: int) -> MultiEndPerm:
    """Wholesale exchange of two rays (the designated half-twist model)."""
    rho = list(range(n))
    rho[a], rho[b] = rho[b], rho[a]
    return MultiEndPerm(n, rho=rho)


def ray_shift(n: int, src: int, dst: int) -> MultiEndPerm:
    """Move one end from ray src to ray dst, shuffling both rays down/up."""
    if src == dst:
        raise ValueError("shift needs two distinct rays")
    offsets = [0] * n
    offsets[src] = -1
    offsets[dst] = 1
    tables: List[Dict[int, RayEnd]] = [{} for _ in range(n)]
    tables[src][0] = (dst, 0)
    return MultiEndPerm(n, offsets=offsets, tables=tables)


def ray_local(n: int, r: int, perm: Mapping[int, int]) -> MultiEndPerm:
    """Finite permutation of one ray's indices, other rays untouched."""
    tables: List[Dict[int, RayEnd]] = [{} for _ in range(n)]
    for i, j in perm.items():
        tables[r][i] = (r, j)
    return MultiEndPerm(n, tables=tables)


def mcompose(f: MultiEndPerm, g: MultiEndPerm) -> MultiEndPerm:
    """Pointwise f after g."""
    if f.n != g.n:
        raise ValueError("ray counts differ")
    n = f.n
    rho = tuple(f.rho[g.rho[r]] for r in range(n))
    offsets = tuple(g.offsets[r] + f.offsets[g.rho[r]] for r in range(n))
    tables: List[Dict[int, RayEnd]] = [{} for _ in range(n)]
    for r in range(n):
        candidates = set(g.tables[r])
        for j in f.tables[g.rho[r]]:
            i = j - g.offsets[r]
            if i >= 0:
                candidates.add(i)
        for i in candidates:
            v = f.apply(*g.apply(r, i))
            if v != (rho[r], i + offsets[r]):
                tables[r][i] = v
    return MultiEndPerm(n, rho=rho, offsets=offsets, tables=tables)


def perm_parity(rho: Sequence[int]) -> int:
    """0 for even, 1 for odd permutations."""
    seen = [False] * len(rho)
    cycles = 0
    for i in range(len(rho)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = rho[j]
    return (len(rho) - cycles) % 2


def factor_permutation(target: Sequence[int],
                       designated: Sequence[MultiEndPerm]) -> List[int]:
    """Indices of designated twists whose composition realizes the target.

    Breadth-first search over the ray permutations; raises when the
    designated twists do not generate enough of the symmetric group.
    The returned word w satisfies rho(d[w0] o d[w1] o ... ) == target.
    The word depends only on the target and the twists' ray permutations,
    so it is memoized on those.
    """
    return list(_twist_word(tuple(target), tuple(d.rho for d in designated)))


@functools.lru_cache(maxsize=1024)
def _twist_word(target: Tuple[int, ...],
                rhos: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    n = len(target)
    start = tuple(range(n))
    if target == start:
        return ()
    frontier = [(start, ())]
    seen = {start}
    while frontier:
        nxt = []
        for perm, word in frontier:
            for gi, rho in enumerate(rhos):
                new = tuple(rho[perm[r]] for r in range(n))
                if new in seen:
                    continue
                nw = (gi,) + word
                if new == target:
                    return nw
                seen.add(new)
                nxt.append((new, nw))
        frontier = nxt
    raise ValueError("designated twists do not realize the ray permutation")


def theta_tilde(f: MultiEndPerm,
                designated: Sequence[MultiEndPerm]) -> Tuple[int, int]:
    """Parity pair (total flux of the corrected map mod 2, ray-permutation sign).

    The designated twists fix the representatives used to undo f's ray
    permutation; f composed with that correction is ray preserving, and
    the flux bit is the sum of its per-ray fluxes over the non-basepoint
    rays, mod 2.

    This is an additive invariant on maps supported on one pair of rays
    at any ray count (swapping the pair negates the flux, which mod 2 is
    invisible), which covers every generator the obstruction witnesses
    name.  It is not additive across arbitrary mixtures of three or more
    rays: a shift between two non-basepoint rays is conjugate to a
    basepoint shift but carries a different flux sum, and composing such
    conjugates shows no mod-2 flux character on the full multi-ray group
    can exist.
    """
    n = f.n
    word = factor_permutation(_perm_inverse(f.rho), designated)
    # f o d[w0] o d[w1] o ...: only its rho and offsets are read
    rho, offsets = f.rho, f.offsets
    for gi in word:
        d = designated[gi]
        if d.n != n:
            raise ValueError("ray counts differ")
        offsets = tuple(d.offsets[r] + offsets[d.rho[r]] for r in range(n))
        rho = tuple(rho[d.rho[r]] for r in range(n))
    if rho != tuple(range(n)):
        raise AssertionError("correction word failed to undo the permutation")
    return (sum(offsets[1:]) % 2, perm_parity(f.rho))


def _perm_inverse(rho: Sequence[int]) -> Tuple[int, ...]:
    inv = [0] * len(rho)
    for i, v in enumerate(rho):
        inv[v] = i
    return tuple(inv)


def theta_z(strip_models: Sequence[EndPerm], n_ends: int) -> Tuple[int, ...]:
    """Per-strip flux tuple of one mapping class on N-1 disjoint strips."""
    if n_ends < 1:
        raise ValueError("need at least one maximal end (got %d)" % n_ends)
    if len(strip_models) != n_ends - 1:
        raise ValueError("need exactly one strip model per non-basepoint end "
                         "(%d expected, got %d)"
                         % (n_ends - 1, len(strip_models)))
    return tuple(phi(f, 0) for f in strip_models)


# ---------------------------------------------------------------------------
# Random model generators and property suites (seeded)
# ---------------------------------------------------------------------------


def random_endperm(rng: random.Random, max_d: int = 3,
                   max_support: int = 6) -> EndPerm:
    d = rng.randint(-max_d, max_d)
    pts = rng.sample(range(-max_support, max_support + 1),
                     rng.randint(0, 5))
    shuffled = pts[:]
    rng.shuffle(shuffled)
    return EndPerm(d, {i: j + d for i, j in zip(pts, shuffled)})


def random_shiftspec(rng: random.Random) -> Excluded:
    """The skipped set of a random shift that is not full."""
    if rng.random() < 0.5:
        vals = rng.sample(range(-20, 21), rng.randint(1, 8))
        return FiniteExcluded(tuple(vals))
    p = rng.randint(2, 6)
    rs = rng.sample(range(p), rng.randint(1, p - 1))
    return PeriodicExcluded(rng.randint(1, 10), p, tuple(rs))


def random_multiendperm(rng: random.Random, n: int,
                        rays: Optional[Tuple[int, int]] = None) -> MultiEndPerm:
    """Random word in swaps, shifts and local rearrangements.

    When ``rays`` is given, the word is supported on that pair only (the
    regime where the parity pair is additive, see :func:`theta_tilde`).
    """
    if rays is None:
        pool = tuple(range(n))
    else:
        pool = rays
    m: Optional[MultiEndPerm] = None
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0 and len(pool) >= 2:
            a, b = rng.sample(pool, 2)
            atom = ray_swap(n, a, b)
        elif kind == 1 and len(pool) >= 2:
            a, b = rng.sample(pool, 2)
            atom = ray_shift(n, a, b)
        else:
            r = rng.choice(pool)
            size = rng.randint(2, 4)
            idx = list(range(size))
            rng.shuffle(idx)
            atom = ray_local(n, r, {i: j for i, j in enumerate(idx)})
        m = atom if m is None else mcompose(m, atom)
    return m


def suite_phi(count: int, seed: int) -> List[str]:
    """Additivity, inverses, conjugation invariance, cut independence."""
    rng = random.Random(seed)
    errors: List[str] = []
    if phi(EndPerm(1), 0) != 1:
        errors.append("full shift must have flux 1")
    for trial in range(count):
        f = random_endperm(rng)
        g = random_endperm(rng)
        cuts = [rng.randint(-12, 12) for _ in range(10)]
        fg = compose(f, g)
        conj = compose(compose(g, f), invert(g))
        f_inv = invert(f)
        for c in cuts:
            phi_f = phi(f, c)
            if phi(fg, c) != phi_f + phi(g, c):
                errors.append("additivity failed at trial %d cut %d" % (trial, c))
            if phi(f_inv, c) != -phi_f:
                errors.append("inverse flux failed at trial %d cut %d" % (trial, c))
            if phi(conj, c) != phi_f:
                errors.append("conjugation invariance failed at trial %d" % trial)
            if phi_f != f.d:
                errors.append("cut independence failed at trial %d cut %d"
                              % (trial, c))
        if errors:
            break
    return errors


def suite_normalize(count: int, seed: int, window: int = 200) -> List[str]:
    rng = random.Random(seed)
    errors: List[str] = []
    for trial in range(count):
        s = random_shiftspec(rng)
        if not verify_normalization(s, normalizer(s), window):
            errors.append("normalization failed for %r (trial %d)" % (s, trial))
    return errors


#: The steps k of :func:`suite_swindle`, which checks every permutation of
#: [-k, k] at each: SWINDLE_PERMUTATIONS of them in all.
SWINDLE_STEPS = (1, 2, 3)
SWINDLE_PERMUTATIONS = sum(math.factorial(2 * k + 1) for k in SWINDLE_STEPS)


def suite_swindle(window: int = 200) -> List[str]:
    """Exhaustive commutator identity over small finitely bounded maps.

    Every permutation supported in [-3, 3] is covered: at each k <= 3 all
    maps with valid disjoint window copies are checked directly, and maps
    touching both -k and k (where the window copies overlap and the
    construction is undefined) are checked at k + 1 instead.
    """
    errors: List[str] = []
    for k in SWINDLE_STEPS:
        pts = list(range(-k, k + 1))
        for img in itertools.permutations(pts):
            table = {i: j for i, j in zip(pts, img) if i != j}
            f = EndPerm(0, table)
            if -k in table and k in table:
                try:
                    _check_repetition(f, k)
                    errors.append("overlap not rejected: k=%d %r" % (k, table))
                except ValueError:
                    pass
                if not swindle_check(f, k + 1, window):
                    errors.append("swindle failed: k=%d %r" % (k + 1, table))
            elif not swindle_check(f, k, window):
                errors.append("swindle failed: k=%d %r" % (k, table))
    return errors


def suite_theta(count: int, seed: int) -> List[str]:
    """Homomorphism property and representative independence of theta_tilde.

    Each trial draws a pair of maps supported on one random pair of rays
    (embedded among up to 5 rays), the regime where the parity pair is
    additive; see the :func:`theta_tilde` docstring for why mixtures of
    three or more rays admit no such character.
    """
    rng = random.Random(seed)
    errors: List[str] = []
    for trial in range(count):
        n = rng.randint(2, 5)
        active = tuple(rng.sample(range(n), 2))
        designated = [ray_swap(n, i, i + 1) for i in range(n - 1)]
        f = random_multiendperm(rng, n, rays=active)
        g = random_multiendperm(rng, n, rays=active)
        tf, tg = theta_tilde(f, designated), theta_tilde(g, designated)
        tfg = theta_tilde(mcompose(f, g), designated)
        if tfg != ((tf[0] + tg[0]) % 2, (tf[1] + tg[1]) % 2):
            errors.append("theta_tilde not additive at trial %d (%r, %r)"
                          % (trial, f, g))
            break
        # independence of the correction word: a redundant generating set
        # must produce the same value
        extra = designated + [ray_swap(n, 0, n - 1)]
        if theta_tilde(f, extra) != tf:
            errors.append("theta_tilde depends on twist factorization "
                          "at trial %d" % trial)
            break
    return errors
