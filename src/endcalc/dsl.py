"""Surface description language, report serialization, flux literals.

Grammar (whitespace insensitive, ``#`` line comments)::

    spec     := (typedef | stmt)*
    typedef  := "type" NAME "=" typeexpr
    stmt     := "root" typeexpr ("*" (INT | "cantor"))?
              | "sub" typeexpr "*" INT
              | "punctures" INT
              | "genus" INT
    typeexpr := NAME | "puncture"
              | "acc" "(" ["genus" ","] "[" [typeexpr ("," typeexpr)*] "]" ")"
              | "cantor" "(" ["genus"] ["," "[" [typeexpr ("," typeexpr)*] "]"] ")"
              | ordinal
    ordinal  := "omega" ("^" INT)? ("*" INT)? "+" INT

The ordinal shorthand ``omega^k * n + 1`` denotes n maximal ends of the
depth-k planar tower over punctures; the ``+ 1`` is mandatory because end
spaces are compact, and a final ``+ m`` adds m - 1 isolated punctures.
Exponents must be literal positive integers: towers of unbounded depth
fall outside the finite-rank model and are rejected at the token.

Type names must be defined before use, which makes recursive type
definitions impossible by construction.

Limits: an integer literal has at most :data:`MAX_INT_DIGITS` digits; an
exponent, the nesting of ``[`` child lists, and the depth of every type
built (through aliases too) are at most :data:`MAX_DEPTH`.  Input over a
limit raises :class:`ParseError` at the offending token.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .classify import (
    ClassificationReport,
    NOT_APPLICABLE,
    ObstructionWitness,
    Verdict,
    require_valid,
)
from .endspace import (
    CANTOR,
    EndType,
    SurfaceSpec,
    format_type,
    node,
    planar_tower,
    sort_key,
)

KEYWORDS = {"type", "root", "sub", "punctures", "genus",
            "acc", "cantor", "puncture", "omega"}

#: Deepest type, child-list nesting and ordinal exponent accepted.  The
#: parser and the tree walks recurse once per level: depth 300 fits the
#: default recursion limit, 400 does not.
MAX_DEPTH = 256

#: Longest integer literal accepted: counts derived from literals (at most
#: quadratic) stay below 640 digits, which print under any interpreter setting.
MAX_INT_DIGITS = 100


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    start: int
    end: int

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


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME | INT | punctuation
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[()\[\],*+^=]|\S")


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#":
            while pos < len(text) and text[pos] != "\n":
                pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # pragma: no cover - the regex matches any non-space
            pos += 1
            continue
        tok = m.group()
        span = SourceSpan(line, pos - line_start + 1, pos, m.end())
        if tok[0].isalpha() or tok[0] == "_":
            kind = "NAME"
        elif tok[0].isdigit():
            kind = "INT"
        else:
            kind = tok
        tokens.append(_Token(kind, tok, span))
        pos = m.end()
    end_span = SourceSpan(line, len(text) - line_start + 1,
                          len(text), len(text))
    tokens.append(_Token("EOF", "", end_span))
    return tokens


@dataclass
class _ParsedType:
    tree: EndType
    count: int = 1          # from an ordinal's "* n"
    extra_punctures: int = 0  # from an ordinal's "+ m", m > 1


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.defs: Dict[str, EndType] = {}
        self.nesting = 0  # open child lists

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("unexpected %r" % (tok.text or "end of input"),
                             tok.span, expected=what)
        return self.next()

    def expect_int(self, what: str) -> int:
        tok = self.expect("INT", what)
        if len(tok.text) > MAX_INT_DIGITS:
            raise ParseError("integer literal longer than %d digits"
                             % MAX_INT_DIGITS, tok.span)
        return int(tok.text)

    # -- statements ---------------------------------------------------------

    def parse_spec(self) -> SurfaceSpec:
        roots: List[Tuple[EndType, object]] = []
        subs: List[Tuple[EndType, int]] = []
        punctures = 0
        genus = 0
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "NAME":
                raise ParseError("unexpected %r" % tok.text, tok.span,
                                 expected="a statement keyword")
            if tok.text == "type":
                self.next()
                name = self.expect("NAME", "type name")
                if name.text in KEYWORDS:
                    raise ParseError("%r is a reserved word" % name.text,
                                     name.span)
                if name.text in self.defs:
                    raise ParseError("type %r already defined" % name.text,
                                     name.span)
                self.expect("=", "'='")
                parsed = self.parse_typeexpr()
                self._require_plain(parsed, name.span,
                                    "a type definition")
                self.defs[name.text] = parsed.tree
            elif tok.text == "root":
                self.next()
                parsed = self.parse_typeexpr()
                mult: object = parsed.count
                if self.peek().kind == "*":
                    self.next()
                    nxt = self.peek()
                    if nxt.kind == "NAME" and nxt.text == "cantor":
                        self.next()
                        mult = CANTOR
                    else:
                        mult = parsed.count * self.expect_int(
                            "a multiplicity or 'cantor'")
                roots.append((parsed.tree, mult))
                punctures += parsed.extra_punctures
            elif tok.text == "sub":
                self.next()
                parsed = self.parse_typeexpr()
                self._require_plain(parsed, tok.span, "a subordinate")
                self.expect("*", "'*'")
                subs.append((parsed.tree, self.expect_int("a count")))
            elif tok.text == "punctures":
                self.next()
                punctures += self.expect_int("a puncture count")
            elif tok.text == "genus":
                self.next()
                genus += self.expect_int("a genus count")
            else:
                raise ParseError("unknown statement %r" % tok.text, tok.span,
                                 expected="type, root, sub, punctures or genus")
        return SurfaceSpec(roots=tuple(roots), subordinates=tuple(subs),
                           extra_punctures=punctures, extra_genus=genus)

    @staticmethod
    def _require_plain(parsed: _ParsedType, span: SourceSpan,
                       where: str) -> None:
        if parsed.count != 1 or parsed.extra_punctures:
            raise ParseError(
                "ordinal multiplicities are only meaningful in root "
                "statements, not in %s" % where, span)

    # -- type expressions ----------------------------------------------------

    def parse_typeexpr(self) -> _ParsedType:
        tok = self.peek()
        if tok.kind != "NAME":
            raise ParseError("unexpected %r" % tok.text, tok.span,
                             expected="a type expression")
        if tok.text == "puncture":
            self.next()
            return _ParsedType(node())
        if tok.text == "omega":
            return self.parse_ordinal()
        if tok.text in ("acc", "cantor"):
            return _ParsedType(self.parse_node(tok.text))
        self.next()
        if tok.text not in self.defs:
            raise ParseError(
                "unknown type name %r (types must be defined before use, "
                "so definitions cannot recurse)" % tok.text, tok.span)
        return _ParsedType(self.defs[tok.text])

    def parse_node(self, head: str) -> EndType:
        head_tok = self.next()  # acc | cantor
        self.expect("(", "'('")
        genus = False
        children: List[EndType] = []
        saw_children = False
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == "genus":
            self.next()
            genus = True
            if self.peek().kind == ",":
                self.next()
                saw_children = True
                children = self.parse_child_list()
        elif tok.kind == "[":
            saw_children = True
            children = self.parse_child_list()
        if head == "acc" and not saw_children:
            tok = self.peek()
            if tok.kind == "[":
                children = self.parse_child_list()
            else:
                raise ParseError("an accumulation node needs a child list "
                                 "(possibly empty)", tok.span,
                                 expected="'['")
        self.expect(")", "')'")
        t = node(genus=genus, cantor=(head == "cantor"), children=children)
        if t.depth() > MAX_DEPTH:
            raise ParseError("type deeper than %d levels" % MAX_DEPTH,
                             head_tok.span)
        return t

    def parse_child_list(self) -> List[EndType]:
        bracket = self.expect("[", "'['")
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError("child lists nested deeper than %d" % MAX_DEPTH,
                             bracket.span)
        children: List[EndType] = []
        if self.peek().kind != "]":
            while True:
                parsed = self.parse_typeexpr()
                self._require_plain(parsed, self.peek().span, "a child type")
                children.append(parsed.tree)
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect("]", "']'")
        self.nesting -= 1
        return children

    def parse_ordinal(self) -> _ParsedType:
        omega = self.expect("NAME", "'omega'")
        k = 1
        if self.peek().kind == "^":
            self.next()
            tok = self.peek()
            k = self.expect_int("an exponent") if tok.kind == "INT" else 0
            if k < 1:
                raise ParseError(
                    "exponent must be a literal positive integer "
                    "(finite rank only)", tok.span)
            if k > MAX_DEPTH:
                raise ParseError("exponent above the depth limit %d"
                                 % MAX_DEPTH, tok.span)
        count = 1
        if self.peek().kind == "*":
            self.next()
            count = self.expect_int("a repetition count")
            if count < 1:
                raise ParseError("repetition count must be positive",
                                 self.tokens[self.pos - 1].span)
        tok = self.peek()
        if tok.kind != "+":
            raise ParseError(
                "ordinal shorthand must end in '+ 1': end spaces are "
                "compact, so the accumulation point belongs to the "
                "surface", tok.span, expected="'+'")
        self.next()
        tail = self.expect_int("an integer (at least 1)")
        if tail < 1:
            raise ParseError("the compactification point is mandatory: "
                             "the trailing term must be at least 1",
                             omega.span)
        return _ParsedType(planar_tower(k), count=count,
                           extra_punctures=tail - 1)


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
    b = r.invariants
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
    """Render a classification report; JSON output is byte-stable."""
    if fmt.upper() == "JSON":
        return json.dumps(report_to_dict(r, include_witness),
                          sort_keys=True, indent=2) + "\n"
    if fmt.upper() != "TEXT":
        raise ValueError("unknown report format %r" % fmt)

    b = r.invariants
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


# ---------------------------------------------------------------------------
# Literal syntax for permutation and shift models
# ---------------------------------------------------------------------------

_PERM_RE = re.compile(
    r"^\s*(?:perm\s+)?d\s*=\s*(-?\d+)"
    r"(?:\s+table\s*=\s*\{([^}]*)\})?\s*$")
_SHIFT_FINITE_RE = re.compile(
    r"^\s*(?:shift\s+)?excluded\s*=\s*finite\s*\{([^}]*)\}\s*$")
_SHIFT_PERIODIC_RE = re.compile(
    r"^\s*(?:shift\s+)?excluded\s*=\s*periodic\s*\{\s*N\s*=\s*(-?\d+)\s*,"
    r"\s*p\s*=\s*(\d+)\s*,\s*r\s*=\s*([-\d,\s]*)\}\s*$")


def parse_perm_literal(text: str):
    """``d=<int> table={i:j,...}`` -> EndPerm (the table is optional)."""
    from .flux import EndPerm

    m = _PERM_RE.match(text)
    if m is None:
        raise ValueError("bad permutation literal %r: expected "
                         "'d=<int> table={i:j,...}'" % text)
    d = int(m.group(1))
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


def parse_shift_literal(text: str):
    """``excluded=finite{...}`` or ``excluded=periodic{N=..,p=..,r=..}``."""
    from .flux import FiniteExcluded, PeriodicExcluded, ShiftSpec

    m = _SHIFT_FINITE_RE.match(text)
    if m is not None:
        body = m.group(1).strip()
        vals = tuple(int(v) for v in body.split(",") if v.strip()) if body else ()
        return ShiftSpec(FiniteExcluded(vals))
    m = _SHIFT_PERIODIC_RE.match(text)
    if m is not None:
        residues = tuple(int(v) for v in m.group(3).split(",") if v.strip())
        return ShiftSpec(PeriodicExcluded(int(m.group(1)), int(m.group(2)),
                                          residues))
    raise ValueError("bad shift literal %r: expected 'excluded=finite{...}' "
                     "or 'excluded=periodic{N=<int>,p=<int>,r=<ints>}'"
                     % text)
