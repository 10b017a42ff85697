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
:mod:`endcalc.endspace` accepts (the parser recurses once per level too).
Input over a limit raises :class:`ParseError` at the offending token.
"""

from __future__ import annotations

import itertools
import re
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, List, Optional, Tuple

from .classify import (
    ClassificationReport,
    NOT_APPLICABLE,
    ObstructionWitness,
)
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

#: A parsed type expression: (tree, count, extra punctures).
_Parsed = Tuple[EndType, int, int]


class _Parser:
    """Recursive descent over token texts; a token is named by its index."""

    def __init__(self, text: str):
        self.text = text
        self.texts = _TOKEN_RE.findall(text)
        self.pos = 0
        self.defs: Dict[str, EndType] = {}
        self.nesting = 0  # open child lists

    def take(self, text: str) -> bool:
        """Consume the current token if its text is ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> int:
        """Consume a token of kind NAME, INT or one character; its index."""
        i = self.pos
        t = self.texts[i]
        if _KINDS.get(t[:1], t) != kind:
            raise self.error("unexpected %r" % (t or "end of input"), i, what)
        self.pos += 1
        return i

    def expect_int(self, what: str) -> int:
        i = self.expect("INT", what)
        if len(self.texts[i]) > MAX_INT_DIGITS:
            raise self.error("integer literal longer than %d digits"
                             % MAX_INT_DIGITS, i)
        return int(self.texts[i])

    def error(self, message: str, i: int,
              expected: Optional[str] = None) -> ParseError:
        """A ParseError at token i, located by scanning the text again."""
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None))
        start, end = m.span(1)
        span = SourceSpan(self.text.count("\n", 0, start) + 1,
                          start - self.text.rfind("\n", 0, start), start, end)
        return ParseError(message, span, expected)

    # -- statements ---------------------------------------------------------

    def parse_spec(self) -> SurfaceSpec:
        roots: List[Tuple[EndType, object]] = []
        subs: List[Tuple[EndType, int]] = []
        punctures = 0
        genus = 0
        while self.texts[self.pos]:
            i = self.pos
            word = self.texts[i]
            self.pos += 1
            if word == "type":
                n = self.expect("NAME", "type name")
                name = self.texts[n]
                if name in KEYWORDS:
                    raise self.error("%r is a reserved word" % name, n)
                if name in self.defs:
                    raise self.error("type %r already defined" % name, n)
                self.expect("=", "'='")
                self.defs[name] = self._plain(self.parse_typeexpr(), n,
                                              "a type definition")
            elif word == "root":
                tree, count, extra = self.parse_typeexpr()
                mult: object = count
                if self.take("*"):
                    if self.take("cantor"):
                        mult = CANTOR
                    else:
                        mult = count * self.expect_int(
                            "a multiplicity or 'cantor'")
                roots.append((tree, mult))
                punctures += extra
            elif word == "sub":
                tree = self._plain(self.parse_typeexpr(), i, "a subordinate")
                self.expect("*", "'*'")
                subs.append((tree, self.expect_int("a count")))
            elif word == "punctures":
                punctures += self.expect_int("a puncture count")
            elif word == "genus":
                genus += self.expect_int("a genus count")
            elif _KINDS.get(word[:1]) != "NAME":
                raise self.error("unexpected %r" % word, i,
                                 expected="a statement keyword")
            else:
                raise self.error("unknown statement %r" % word, i,
                                 expected="type, root, sub, punctures or genus")
        return SurfaceSpec(roots=tuple(roots), subordinates=tuple(subs),
                           extra_punctures=punctures, extra_genus=genus)

    def _plain(self, parsed: _Parsed, i: int, where: str) -> EndType:
        """The tree of a type expression that must carry no multiplicity."""
        tree, count, extra = parsed
        if count != 1 or extra:
            raise self.error(
                "ordinal multiplicities are only meaningful in root "
                "statements, not in %s" % where, i)
        return tree

    # -- type expressions ----------------------------------------------------

    def parse_typeexpr(self) -> _Parsed:
        """(tree, count, extra punctures): only an ordinal's ``* n`` and
        ``+ m`` make the last two other than 1 and 0."""
        i = self.pos
        word = self.texts[i]
        if word == "omega":
            return self.parse_ordinal()
        if word in ("acc", "cantor"):
            return self.parse_node(word), 1, 0
        if word == "puncture":
            tree = PUNCTURE
        elif word in self.defs:
            tree = self.defs[word]
        elif _KINDS.get(word[:1]) != "NAME":
            raise self.error("unexpected %r" % (word or "end of input"), i,
                             expected="a type expression")
        else:
            raise self.error(
                "unknown type name %r (types must be defined before use, "
                "so definitions cannot recurse)" % word, i)
        self.pos += 1
        return tree, 1, 0

    def parse_node(self, head: str) -> EndType:
        head_i = self.pos  # acc | cantor
        self.pos += 1
        self.expect("(", "'('")
        genus = self.take("genus")
        # a child list follows "genus ," or "[", but not "genus [" in cantor
        if (genus and self.take(",") or self.texts[self.pos] == "["
                and (head == "acc" or not genus)):
            children = self.parse_child_list()
        elif head == "acc":
            raise self.error("an accumulation node needs a child list "
                             "(possibly empty)", self.pos, expected="'['")
        else:
            children = []
        self.expect(")", "')'")
        t = EndType(genus, head == "cantor", frozenset(children))
        if t.depth() > MAX_DEPTH:
            raise self.error("type deeper than %d levels" % MAX_DEPTH, head_i)
        return t

    def parse_child_list(self) -> List[EndType]:
        bracket = self.expect("[", "'['")
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error("child lists nested deeper than %d" % MAX_DEPTH,
                             bracket)
        children: List[EndType] = []
        if self.texts[self.pos] != "]":
            while True:
                children.append(self._plain(self.parse_typeexpr(), self.pos,
                                            "a child type"))
                if not self.take(","):
                    break
        self.expect("]", "']'")
        self.nesting -= 1
        return children

    def parse_ordinal(self) -> _Parsed:
        omega = self.pos
        self.pos += 1
        k = 1
        if self.take("^"):
            i = self.pos
            k = (self.expect_int("an exponent")
                 if _KINDS.get(self.texts[i][:1]) == "INT" else 0)
            if k < 1:
                raise self.error(
                    "exponent must be a literal positive integer "
                    "(finite rank only)", i)
            if k > MAX_DEPTH:
                raise self.error("exponent above the depth limit %d"
                                 % MAX_DEPTH, i)
        count = 1
        if self.take("*"):
            i = self.pos
            count = self.expect_int("a repetition count")
            if count < 1:
                raise self.error("repetition count must be positive", i)
        if not self.take("+"):
            raise self.error(
                "ordinal shorthand must end in '+ 1': end spaces are "
                "compact, so the accumulation point belongs to the "
                "surface", self.pos, expected="'+'")
        tail = self.expect_int("an integer (at least 1)")
        if tail < 1:
            raise self.error("the compactification point is mandatory: "
                             "the trailing term must be at least 1", omega)
        return planar_tower(k), count, tail - 1


def parse(text: str) -> SurfaceSpec:
    """Parse and validate a surface description.

    Raises :class:`ParseError` on syntax errors and input over the limits,
    and :class:`endcalc.endspace.SpecError` when the described surface
    violates the model invariants.  The result is canonical and marked
    ``validated``.
    """
    return require_valid(_Parser(text).parse_spec())


def spec_to_text(s: SurfaceSpec) -> str:
    """Echo a canonical spec as parseable statements."""
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
        "countable": r.countable,
        "self_similar": r.self_similar.value,
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
    include_witness), sort_keys=True, indent=2) + "\\n"``.  ``include_bounds``
    applies to TEXT only: the JSON report always holds its bounds.
    """
    if fmt.upper() == "JSON":
        return _json(report_to_dict(r, include_witness), "") + "\n"
    if fmt.upper() != "TEXT":
        raise ValueError("unknown report format %r" % fmt)

    b = r.bounds.invariants
    lines = ["surface:"]
    lines.extend("  " + ln for ln in spec_to_text(r.spec).strip().split("\n"))
    lines.append("countable: %s" % ("yes" if r.countable else "no"))
    lines.append("self-similar: %s" % r.self_similar.value)
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
