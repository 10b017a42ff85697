"""Surface description language and report serialization.

Grammar (whitespace insensitive, ``#`` line comments)::

    spec     := (typedef | stmt)*
    typedef  := "type" NAME "=" typeexpr
    stmt     := "root" typeexpr ("*" (INT | "cantor"))?
              | "sub" typeexpr "*" INT
              | "punctures" INT
              | "genus" INT
    typeexpr := NAME | "puncture"
              | "acc" "(" ("genus" ","?)? children ")"
              | "cantor" "(" ("genus" ("," children)? | children)? ")"
              | ordinal
    children := "[" (typeexpr ("," typeexpr)*)? "]"
    ordinal  := "omega" ("^" INT)? ("*" INT)? "+" INT

The ordinal shorthand ``omega^k * n + 1`` denotes n maximal ends of the
depth-k planar tower over punctures; the ``+ 1`` is mandatory because end
spaces are compact, and a final ``+ m`` adds m - 1 isolated punctures.
Exponents must be literal positive integers: towers of unbounded depth
fall outside the finite-rank model and are rejected at the token.

Type names must be defined before use, which makes recursive type
definitions impossible by construction.

Tokens are ASCII: NAME is ``[A-Za-z_][A-Za-z0-9_]*`` and INT is ``[0-9]+``;
any other character but whitespace and ``#`` is a token of its own, so a
non-ASCII letter or digit is a parse error.  One regex ``findall`` yields
the token texts.  A token's source span is computed only when a
:class:`ParseError` reports it, by scanning again: lines end at ``"\\n"``
alone, and every other character, ``"\\r"``, tab and form feed included,
is one column.

Limits: an integer literal has at most :data:`MAX_INT_DIGITS` digits; an
exponent, the nesting of ``[`` child lists, and the depth of every type
built (through aliases too) are at most :data:`MAX_DEPTH`, the depth
:mod:`endcalc.endspace` accepts; the parser itself does not recurse.
Input over a limit raises :class:`ParseError` at the offending token.
"""

from __future__ import annotations

import itertools
import re
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, List, Optional, Tuple

from .classify import ClassificationReport, ObstructionWitness
from .endspace import (
    CANTOR,
    MAX_DEPTH,
    PUNCTURE,
    EndType,
    Record,
    SurfaceSpec,
    format_type,
    planar_tower,
    require_valid,
)

#: The JSON report's ``flux_rank`` of an uncountable surface.
NOT_APPLICABLE = "NOT_APPLICABLE"

KEYWORDS = {"type", "root", "sub", "punctures", "genus",
            "acc", "cantor", "puncture", "omega"}

#: Longest integer literal accepted: counts derived from literals (at most
#: quadratic) stay below 640 digits, which print under any interpreter setting.
MAX_INT_DIGITS = 100


class SourceSpan(Record):
    __slots__ = _fields = ("line", "column", "start", "end")

    def __str__(self) -> str:
        return "line %d, column %d" % (self.line, self.column)


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan,
                 expected: Optional[str] = None):
        self.message = message
        self.span = span
        self.expected = expected
        detail = " (expected %s)" % expected if expected else ""
        super().__init__("%s at %s%s" % (message, span, detail))


#: One match per token.  Whitespace and ``#`` comments are skipped as a
#: prefix; ``#`` is no token character, so a final comment cannot split
#: into tokens, and the empty ``\Z`` token ends the stream, so the prefix
#: always succeeds and a search never skips text.
_TOKEN_RE = re.compile(
    r"(?:\s|#[^\n]*)*([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[^\s#]|\Z)")

#: Token kind by first character; any other token is one character, which
#: is its own kind.
_KINDS = {"": "EOF", **dict.fromkeys("0123456789", "INT"), **dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME")}

#: A parsed type expression: (tree, count, extra punctures, next index).
_Parsed = Tuple[EndType, int, int, int]


class _Parser:
    """Loops over the token texts, a token named by its index: one over
    the statements, and one per type expression."""

    def __init__(self, text: str):
        self.text = text
        self.texts = _TOKEN_RE.findall(text)
        self.defs: Dict[str, EndType] = {}

    def int_at(self, i: int, what: str) -> int:
        t = self.texts[i]
        if _KINDS.get(t[:1]) != "INT":
            raise self.unexpected(i, what)
        if len(t) > MAX_INT_DIGITS:
            raise self.error("integer literal longer than %d digits"
                             % MAX_INT_DIGITS, i)
        return int(t)

    def unexpected(self, i: int, what: str) -> ParseError:
        return self.error("unexpected %r" % (self.texts[i] or "end of input"),
                          i, what)

    def error(self, message: str, i: int,
              expected: Optional[str] = None) -> ParseError:
        """A ParseError at token i, located by scanning the text again."""
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None))
        start, end = m.span(1)
        span = SourceSpan(self.text.count("\n", 0, start) + 1,
                          start - self.text.rfind("\n", 0, start), start, end)
        return ParseError(message, span, expected)

    def parse_spec(self) -> SurfaceSpec:
        texts = self.texts
        roots: List[Tuple[EndType, object]] = []
        subs: List[Tuple[EndType, int]] = []
        punctures = genus = i = 0
        while texts[i]:
            word = texts[i]
            if word == "type":
                name = texts[i + 1]
                if _KINDS.get(name[:1]) != "NAME":
                    raise self.unexpected(i + 1, "type name")
                if name in KEYWORDS:
                    raise self.error("%r is a reserved word" % name, i + 1)
                if name in self.defs:
                    raise self.error("type %r already defined" % name, i + 1)
                if texts[i + 2] != "=":
                    raise self.unexpected(i + 2, "'='")
                self.defs[name], i = self._plain(self.parse_typeexpr(i + 3),
                                                 i + 1, "a type definition")
            elif word == "root":
                tree, mult, extra, i = self.parse_typeexpr(i + 1)
                if texts[i] == "*":
                    if texts[i + 1] == "cantor":
                        mult = CANTOR
                    else:
                        mult *= self.int_at(i + 1,
                                            "a multiplicity or 'cantor'")
                    i += 2
                roots.append((tree, mult))
                punctures += extra
            elif word == "sub":
                tree, i = self._plain(self.parse_typeexpr(i + 1), i,
                                      "a subordinate")
                if texts[i] != "*":
                    raise self.unexpected(i, "'*'")
                subs.append((tree, self.int_at(i + 1, "a count")))
                i += 2
            elif word == "punctures":
                punctures += self.int_at(i + 1, "a puncture count")
                i += 2
            elif word == "genus":
                genus += self.int_at(i + 1, "a genus count")
                i += 2
            elif _KINDS.get(word[:1]) != "NAME":
                raise self.error("unexpected %r" % word, i,
                                 expected="a statement keyword")
            else:
                raise self.error("unknown statement %r" % word, i,
                                 expected="type, root, sub, punctures or genus")
        return SurfaceSpec(roots=tuple(roots), subordinates=tuple(subs),
                           extra_punctures=punctures, extra_genus=genus)

    def _plain(self, parsed: _Parsed, i: int,
               where: str) -> Tuple[EndType, int]:
        """(tree, next index) of a type expression with no multiplicity."""
        tree, count, extra, j = parsed
        if count != 1 or extra:
            raise self.error(
                "ordinal multiplicities are only meaningful in root "
                "statements, not in %s" % where, i)
        return tree, j

    def parse_typeexpr(self, i: int) -> _Parsed:
        """The type expression at token i; only an ordinal's ``* n`` and
        ``+ m`` make its count and extra punctures other than 1 and 0.  One
        loop, with a stack of the nodes whose child list is open: each turn
        reads a term that opens a list or completes a tree, and a complete
        tree joins the innermost open list, or is the result."""
        texts = self.texts
        stack: List[Tuple[int, bool, bool, List[EndType]]] = []
        while True:
            word = texts[i]
            tree, count, extra = None, 1, 0
            if word == "acc" or word == "cantor":
                head, cantor = i, word == "cantor"
                if texts[i + 1] != "(":
                    raise self.unexpected(i + 1, "'('")
                genus = texts[i + 2] == "genus"
                comma = genus and texts[i + 3] == ","
                i += 2 + genus + comma
                # a child list follows "genus ," or "[", not cantor's "genus ["
                if texts[i] == "[" and (comma or not (genus and cantor)):
                    if len(stack) == MAX_DEPTH:
                        raise self.error("child lists nested deeper than %d"
                                         % MAX_DEPTH, i)
                    stack.append((head, cantor, genus, []))
                    i += 1
                    if texts[i] != "]":
                        continue
                elif comma:
                    raise self.unexpected(i, "'['")
                elif not cantor:
                    raise self.error("an accumulation node needs a child "
                                     "list (possibly empty)", i, "'['")
                elif texts[i] != ")":
                    raise self.unexpected(i, "')'")
                else:
                    tree, i = EndType(genus, True, frozenset()), i + 1
            elif word == "omega":
                tree, count, extra, i = self._ordinal(i)
            elif word == "puncture" or word in self.defs:
                tree = PUNCTURE if word == "puncture" else self.defs[word]
                i += 1
            elif _KINDS.get(word[:1]) != "NAME":
                raise self.unexpected(i, "a type expression")
            else:
                raise self.error(
                    "unknown type name %r (types must be defined before use, "
                    "so definitions cannot recurse)" % word, i)
            while stack:  # tree is None right after an empty list opens
                head, cantor, genus, children = stack[-1]
                if tree is not None:
                    if count != 1 or extra:
                        self._plain((tree, count, extra, i), i, "a child type")
                    children.append(tree)
                    if texts[i] == ",":
                        i += 1
                        break
                if texts[i] != "]":
                    raise self.unexpected(i, "']'")
                if texts[i + 1] != ")":
                    raise self.unexpected(i + 1, "')'")
                i += 2
                stack.pop()
                tree = EndType(genus, cantor, frozenset(children))
                if tree.depth() > MAX_DEPTH:
                    raise self.error("type deeper than %d levels" % MAX_DEPTH,
                                     head)
            else:
                return tree, count, extra, i

    def _ordinal(self, omega: int) -> _Parsed:
        """The ordinal at token omega."""
        texts = self.texts
        i, k, count = omega + 1, 1, 1
        if texts[i] == "^":
            k = (self.int_at(i + 1, "an exponent")
                 if _KINDS.get(texts[i + 1][:1]) == "INT" else 0)
            if k < 1:
                raise self.error(
                    "exponent must be a literal positive integer "
                    "(finite rank only)", i + 1)
            if k > MAX_DEPTH:
                raise self.error("exponent above the depth limit %d"
                                 % MAX_DEPTH, i + 1)
            i += 2
        if texts[i] == "*":
            count = self.int_at(i + 1, "a repetition count")
            if count < 1:
                raise self.error("repetition count must be positive", i + 1)
            i += 2
        if texts[i] != "+":
            raise self.error(
                "ordinal shorthand must end in '+ 1': end spaces are "
                "compact, so the accumulation point belongs to the "
                "surface", i, expected="'+'")
        tail = self.int_at(i + 1, "an integer (at least 1)")
        if tail < 1:
            raise self.error("the compactification point is mandatory: "
                             "the trailing term must be at least 1", omega)
        return planar_tower(k), count, tail - 1, i + 2


def parse(text: str) -> SurfaceSpec:
    """Parse and validate a surface description.

    Raises :class:`ParseError` on syntax errors and input over the limits,
    and :class:`endcalc.endspace.SpecError` when the described surface
    violates the model invariants.  The result is canonical and
    validated: it carries its ``similarity``.
    """
    return require_valid(_Parser(text).parse_spec())


def spec_to_text(s: SurfaceSpec) -> str:
    """Echo a spec as parseable statements: a canonical spec, or a raw one
    with its ``sub`` lines."""
    lines: List[str] = []
    for t, m in s.roots:
        if m is CANTOR or m == 1:
            lines.append("root %s" % format_type(t))
        else:
            lines.append("root %s * %d" % (format_type(t), m))
    for t, c in s.subordinates:
        lines.append("sub %s * %d" % (format_type(t), c))
    if s.extra_punctures:
        lines.append("punctures %d" % s.extra_punctures)
    if s.extra_genus:
        lines.append("genus %d" % s.extra_genus)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_to_dict(r: ClassificationReport, include_witness: bool = True):
    b = r.bounds.invariants
    w = r.verdict.witness
    witness = None
    if w is not None and include_witness:
        witness = {
            "target": {"free_rank": w.free_rank, "torsion2": w.torsion2},
            "characters": [
                {"kind": c.kind, "z": c.z,
                 "pair": list(c.pair) if c.pair else None,
                 "maximal_type": c.maximal_type}
                for c in w.characters
            ],
            "generator_images": [
                {"generator": g.name, "kind": g.kind, "image": list(g.image)}
                for g in w.generators
            ],
        }
    bounds = r.bounds
    return {
        "countable": r.spec.countable,
        "self_similar": r.spec.similarity.value,
        "M": b.M,
        "C": b.C,
        "M_iso": b.M_iso,
        "G0_count": len(b.G0),
        "verdict": r.verdict.verdict.value,
        "rule": r.verdict.rule,
        "witness": witness,
        "bounds": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "flux_rank": (bounds.flux_rank if bounds.flux_rank is not None
                          else NOT_APPLICABLE),
            "handle_pair_generators": bounds.handle_pair_generators,
            "budget": {
                "shifts": bounds.budget.shifts,
                "dehn": bounds.budget.dehn,
                "handles": bounds.budget.handles,
            },
            "abelianization_upper": bounds.abelianization_upper,
        },
        "notes": list(r.notes),
    }


def emit_report(r: ClassificationReport, fmt: str = "TEXT",
                include_witness: bool = True,
                include_bounds: bool = True) -> str:
    """Render a classification report as ``"TEXT"`` or ``"JSON"``.

    JSON output is byte-identical to ``json.dumps(report_to_dict(r,
    include_witness), sort_keys=True, indent=2) + "\\n"``: the dict's shape
    is fixed, so :data:`_JSON_REPORT` holds it, and only the values that are
    not int counts are rendered.  ``include_bounds`` applies to TEXT only:
    the JSON report always holds its bounds.
    """
    if fmt.upper() == "JSON":
        d = report_to_dict(r, include_witness)
        values = {**d, **d["bounds"], **d["bounds"]["budget"]}
        for k in _JSON_RENDERED:
            values[k] = _json(values[k], "  ")
        return _JSON_REPORT % values
    if fmt.upper() != "TEXT":
        raise ValueError("unknown report format %r" % fmt)

    b = r.bounds.invariants
    lines = ["surface:"]
    lines.extend("  " + ln for ln in spec_to_text(r.spec).strip().split("\n"))
    lines.append("countable: %s" % ("yes" if r.spec.countable else "no"))
    lines.append("self-similar: %s" % r.spec.similarity.value)
    lines.append("verdict: %s  [%s]" % (r.verdict.verdict.value,
                                        r.verdict.rule))
    lines.append("invariants: M=%d C=%d M_iso=%d |G0|=%d"
                 % (b.M, b.C, b.M_iso, len(b.G0)))
    if include_bounds:
        bd = r.bounds
        lines.append("normal generators: %d <= n(S) <= %d"
                     % (bd.lower, bd.upper))
        lines.append("budget: shifts<=%d dehn=%d handles=%d"
                     % (bd.budget.shifts, bd.budget.dehn, bd.budget.handles))
        flux = (str(bd.flux_rank) if bd.flux_rank is not None
                else "n/a (uncountable)")
        lines.append("flux rank: %s; handle-pair generators: %d"
                     % (flux, bd.handle_pair_generators))
        if bd.abelianization_upper is not None:
            lines.append("abelianization: finitely generated by at most %d"
                         % bd.abelianization_upper)
    if include_witness and r.verdict.witness is not None:
        lines.extend(_witness_text(r.verdict.witness))
    for note in r.notes:
        lines.append("note: %s" % note)
    return "\n".join(lines) + "\n"


#: The JSON report, keys sorted: ``%d`` for counts, ``%s`` for the rest.
_JSON_RENDERED = ("abelianization_upper", "countable", "flux_rank", "notes",
                  "rule", "self_similar", "verdict", "witness")
_JSON_REPORT = """{
  "C": %(C)d,
  "G0_count": %(G0_count)d,
  "M": %(M)d,
  "M_iso": %(M_iso)d,
  "bounds": {
    "abelianization_upper": %(abelianization_upper)s,
    "budget": {
      "dehn": %(dehn)d,
      "handles": %(handles)d,
      "shifts": %(shifts)d
    },
    "flux_rank": %(flux_rank)s,
    "handle_pair_generators": %(handle_pair_generators)d,
    "lower": %(lower)d,
    "upper": %(upper)d
  },
  "countable": %(countable)s,
  "notes": %(notes)s,
  "rule": %(rule)s,
  "self_similar": %(self_similar)s,
  "verdict": %(verdict)s,
  "witness": %(witness)s
}
"""


def _json(v, pad: str) -> str:
    """``json.dumps(v, sort_keys=True, indent=2)``, nested under the indent
    ``pad``, for the dict, list, str, int, bool and ``None`` values that
    :func:`report_to_dict` builds; any other value or dict key raises
    ``TypeError``.  With ``indent`` set, ``json.dumps`` runs the stdlib's
    pure-Python encoder, at about twice the cost of this writer."""
    t = type(v)
    if t is str:
        return _json_str(v)
    if t is int:
        return int.__repr__(v)
    if t is dict:
        if not v:
            return "{}"
        inner = pad + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            [_json_str(k) + ": " + _json(x, inner)
             for k, x in sorted(v.items())]) + "\n" + pad + "}")
    if t is list:
        if not v:
            return "[]"
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join(
            [_json(x, inner) for x in v]) + "\n" + pad + "]")
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError("Object of type %s is not JSON serializable"
                    % t.__name__)


def _witness_text(w: ObstructionWitness) -> List[str]:
    target = []
    if w.free_rank:
        target.append("Z^%d" % w.free_rank)
    if w.torsion2:
        target.append("(Z/2)^%d" % w.torsion2)
    lines = ["witness: surjection onto %s" % " x ".join(target)]
    for c in w.characters:
        if c.kind == "PARITY":
            lines.append("  character: PARITY of class %s" % c.maximal_type)
        else:
            lines.append("  character: %s of %s across %s -> %s"
                         % (c.kind, c.z, c.pair[0], c.pair[1]))
    for g in w.generators:
        lines.append("  generator %s -> %s" % (g.name, list(g.image)))
    return lines
