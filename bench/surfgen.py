"""Seeded generator of ``.surf`` texts, each with a metamorphic variant.

A type is a small tuple tree:

    ("puncture",)
    ("acc", genus, children)       children: tuple of types
    ("cantor", genus, children)
    ("omega", k)                   the depth-k planar tower, ``omega^k+1``

A surface is a list of statements, rendered to text with some subtrees
named by ``type`` aliases.  Its variant describes the same surface in
another way: the statements are shuffled, one more subtree is aliased,
a ``root X * n`` with n >= 2 is split in two, and an absorbed ``sub``
line is added.  Both must classify to a byte-identical report, whatever
the seed.  About 5 % of the surfaces are invalid by construction and
must be rejected with ``ParseError`` or ``SpecError``.

The generator imports nothing from the program under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

INVALID_SHARE = 0.05
MAX_DEPTH = 6

PUNCTURE = ("puncture",)
# Depth of surface trees, from corpus-sized to deep.
_DEPTHS = (1, 2, 3, 4, 5, 6)
_DEPTH_WEIGHTS = (4, 5, 4, 3, 2, 2)


@dataclass(frozen=True)
class Surface:
    text: str
    variant: Optional[str]  # None for an invalid surface
    valid: bool


def surfaces(seed: int) -> Iterator[Surface]:
    """The endless input stream of a seed; surface i depends on (seed, i)."""
    for i in itertools.count():
        yield make_surface(seed, i)


def make_surface(seed: int, index: int) -> Surface:
    rng = random.Random("surf:%d:%d" % (seed, index))
    stmts = _statements(rng)
    if rng.random() < INVALID_SHARE:
        return Surface(_invalid(rng, stmts), None, False)
    aliases = _pick_aliases(rng, stmts, rng.choice((0, 0, 1, 2)))
    text = _render(stmts, aliases)
    return Surface(text, _render(*_variant(rng, stmts, aliases)), True)


# -- types -------------------------------------------------------------------


def _type(rng: random.Random, depth: int) -> tuple:
    """A type of exactly the given depth (towers may be shallower)."""
    if depth == 0:
        return rng.choices((PUNCTURE, ("acc", True, ()), ("cantor", False, ()),
                            ("cantor", True, ())), (4, 3, 2, 1))[0]
    if rng.random() < 0.15:
        return ("omega", rng.randint(1, depth))
    head = "cantor" if rng.random() < 0.2 else "acc"
    kids = [_type(rng, depth - 1)]
    for _ in range(rng.choices((0, 1, 2), (5, 3, 2))[0]):
        kids.append(_type(rng, rng.randrange(depth)))
    return (head, rng.random() < 0.3, tuple(kids))


def _is_puncture(t: tuple) -> bool:
    return t == PUNCTURE or (t[0] == "acc" and not t[1] and not t[2])


def _subtrees(t: tuple) -> Iterator[tuple]:
    """t and every type below it, towers unrolled into their floors."""
    yield t
    if t[0] == "omega":
        for k in range(t[1] - 1, 0, -1):
            yield ("omega", k)
        yield PUNCTURE
    elif t[0] in ("acc", "cantor"):
        for c in t[2]:
            yield from _subtrees(c)


def _size(t: tuple) -> int:
    return sum(1 for _ in _subtrees(t))


def _fmt(t: tuple, names: Dict[tuple, str]) -> str:
    if t in names:
        return names[t]
    if t[0] == "puncture":
        return "puncture"
    if t[0] == "omega":
        return "omega+1" if t[1] == 1 else "omega^%d+1" % t[1]
    head, genus, kids = t
    inner = []
    if genus:
        inner.append("genus")
    if kids or head == "acc":
        inner.append("[" + ", ".join(_fmt(c, names) for c in kids) + "]")
    return "%s(%s)" % (head, ", ".join(inner))


# -- statements --------------------------------------------------------------
#
# ("root", type, mult)        mult: positive int or "cantor"
# ("ordinal", k, n, m)        root omega^k * n + m
# ("sub", type, n)
# ("punctures", n) / ("genus", n)


def _statements(rng: random.Random) -> List[tuple]:
    depth = rng.choices(_DEPTHS, _DEPTH_WEIGHTS)[0]
    stmts: List[tuple] = []
    for i in range(rng.choices((1, 2, 3, 4), (4, 4, 2, 1))[0]):
        d = depth if i == 0 else rng.randint(0, depth)
        if rng.random() < 0.15:
            stmts.append(("ordinal", rng.randint(1, d or 1),
                          rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2))))
            continue
        t = _type(rng, d)
        while i == 0 and _is_puncture(t):  # at least one maximal end class
            t = _type(rng, d)
        if not _is_puncture(t) and rng.random() < 0.15:
            mult = "cantor"
        else:
            mult = rng.choices((1, 2, 3), (6, 3, 2))[0]
        stmts.append(("root", t, mult))
    if rng.random() < 0.3:
        sub = _absorbed_sub(rng, stmts)
        if sub is not None:
            stmts.append(sub)
    if rng.random() < 0.3:
        stmts.append(("punctures", rng.randint(1, 3)))
    if rng.random() < 0.2:
        stmts.append(("genus", rng.randint(1, 2)))
    return stmts


def _root_types(stmts: List[tuple]) -> Iterator[Tuple[tuple, bool]]:
    """(type, declared with '* cantor') for every root statement."""
    for s in stmts:
        if s[0] == "root":
            yield s[1], s[2] == "cantor"
        elif s[0] == "ordinal":
            yield ("omega", s[1]), False


def _absorbed_sub(rng: random.Random, stmts: List[tuple]) -> Optional[tuple]:
    """A ``sub`` line that canonicalization absorbs into a root's supply.

    Any non-puncture type strictly below a root qualifies.  A root's own
    type qualifies unless '* cantor' gave it a self-accumulation flag its
    text lacks.  Puncture subordinates are avoided: they would add to the
    isolated punctures.
    """
    cands = []
    for t, marked in _root_types(stmts):
        if _is_puncture(t):
            continue
        if not marked or t[0] == "cantor":
            cands.append(t)
        cands.extend(s for s in itertools.islice(_subtrees(t), 1, None)
                     if not _is_puncture(s))
    if not cands:
        return None
    return ("sub", rng.choice(cands), rng.randint(1, 3))


def _pick_aliases(rng: random.Random, stmts: List[tuple], count: int,
                  names: Optional[Dict[tuple, str]] = None,
                  prefix: str = "t") -> Dict[tuple, str]:
    names = dict(names or {})
    pool = sorted({s for st in stmts if st[0] in ("root", "sub")
                   for s in _subtrees(st[1])
                   if s not in names and s != PUNCTURE}, key=repr)
    for i, t in enumerate(rng.sample(pool, min(count, len(pool)))):
        names[t] = "%s%d" % (prefix, i)
    return names


def _render(stmts: List[tuple], names: Dict[tuple, str]) -> str:
    lines = []
    # an alias may use smaller aliases, so define the smaller first
    for t in sorted(names, key=lambda t: (_size(t), names[t])):
        inner = {u: n for u, n in names.items() if u != t}
        lines.append("type %s = %s" % (names[t], _fmt(t, inner)))
    for s in stmts:
        kind = s[0]
        if kind == "root":
            text = "root " + _fmt(s[1], names)
            lines.append(text if s[2] == 1 else "%s * %s" % (text, s[2]))
        elif kind == "ordinal":
            k, n, m = s[1:]
            head = "omega" if k == 1 else "omega^%d" % k
            lines.append("root %s%s + %d"
                         % (head, " * %d" % n if n > 1 else "", m))
        elif kind == "sub":
            lines.append("sub %s * %d" % (_fmt(s[1], names), s[2]))
        else:
            lines.append("%s %d" % s)
    return "\n".join(lines) + "\n"


def _variant(rng: random.Random, stmts: List[tuple],
             names: Dict[tuple, str]) -> Tuple[List[tuple], Dict[tuple, str]]:
    """An equivalent description of the same surface."""
    out = list(stmts)
    splittable = [i for i, s in enumerate(out)
                  if (s[0] == "root" and s[2] != "cantor" and s[2] >= 2)
                  or (s[0] == "ordinal" and s[2] >= 2)]
    if splittable:
        i = rng.choice(splittable)
        s = out[i]
        if s[0] == "root":
            a = rng.randint(1, s[2] - 1)
            out[i:i + 1] = [("root", s[1], a), ("root", s[1], s[2] - a)]
        else:
            a = rng.randint(1, s[2] - 1)
            out[i:i + 1] = [("ordinal", s[1], a, s[3]),
                            ("ordinal", s[1], s[2] - a, 1)]
    sub = _absorbed_sub(rng, out)
    if sub is not None:
        out.append(sub)
    rng.shuffle(out)
    return out, _pick_aliases(rng, out, 1, names, prefix="v")


# -- invalid inputs ----------------------------------------------------------


def _invalid(rng: random.Random, stmts: List[tuple]) -> str:
    """A description that must be rejected, built around a valid one."""
    text = _render(stmts, {})
    kind = rng.randrange(6)
    if kind == 0:
        return text + "root omega^%d * 2\n" % rng.randint(1, 4)  # no '+ 1'
    if kind == 1:
        return text + "root undefined_type\n"
    if kind == 2:
        return text + "root omega^0 + 1\n"
    if kind == 3:
        return "punctures %d\ngenus %d\n" % (rng.randint(0, 3),
                                             rng.randint(0, 2))
    if kind == 4:
        return text + "root acc([puncture]) * 0\n"
    # deeper than any generated root, so below none of them
    return text + "sub omega^%d+1 * 1\n" % (MAX_DEPTH + 2)
