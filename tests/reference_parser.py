"""The recursive-descent parser that ``endcalc.dsl`` used before its type
expressions became one loop, kept as the reference of the differential
test in ``test_dsl.py``.

``parse_typeexpr`` recurses through ``parse_node`` and
``parse_child_list``, one level of child lists at a time, and counts the
open lists in ``nesting``.  The module defines its own ``SourceSpan`` and
``ParseError``, so compare errors by their fields, not as records.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Tuple

from endcalc.endspace import (
    CANTOR,
    MAX_DEPTH,
    PUNCTURE,
    EndType,
    SurfaceSpec,
    planar_tower,
)

KEYWORDS = {"type", "root", "sub", "punctures", "genus",
            "acc", "cantor", "puncture", "omega"}

#: Longest integer literal accepted: counts derived from literals (at most
#: quadratic) stay below 640 digits, which print under any interpreter setting.
MAX_INT_DIGITS = 100


class SourceSpan:
    # a plain class: the package's Record subclasses are counted by a test
    def __init__(self, line: int, column: int, start: int, end: int):
        self.line, self.column, self.start, self.end = line, column, start, end

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
