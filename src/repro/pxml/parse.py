"""A small XML parser for profile documents.

Supports the subset of XML that profile components use: elements,
attributes (single- or double-quoted), character data, entity references
(&amp; &lt; &gt; &quot; &apos;), comments, and an optional XML
declaration. No namespaces, CDATA, processing instructions, or DTDs —
profile data never needs them, and keeping the grammar small keeps the
parser honest and fully testable.

The parser is the inverse of :meth:`repro.pxml.node.PNode.serialize`:
``parse(node.serialize()).deep_equal(node)`` holds for every tree the
data model can represent (a property test asserts this).

It scans runs, not characters. A start tag whose attribute values hold
no entity and no ``<`` is one match of :data:`_ELEMENT` (together with
its text and end tag, for a leaf like ``<name>Bob</name>``); character
data and quoted values are sliced between ``str.find`` hits. A start
tag the pattern does not match goes to the exact per-token path
(:meth:`_Parser._start_tag_exact`), which alone raises the errors of a
malformed tag, so every :class:`ParseError` message and position is
the one a character-at-a-time reading gives
(``tests/test_pxml_parse_differential.py`` keeps that reading as its
oracle). Names are matched without backtracking: a name pattern only
ever matches a whole name. Elements are read with a stack of open
elements, never by recursion, and a document nests at most
:data:`MAX_DEPTH` elements, because everything downstream of the parser
(copy, merge, serialize) recurses once per level.

A parsed tree is published as it is built: each element becomes a
:class:`repro.pxml.node.FrozenPNode` at its end tag, over the children
already built, so a parsed fragment is stored, cached and served
without the copy that freezing a mutable tree would take.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.pxml.node import (
    NAME_CHARS,
    NAME_PATTERN,
    FrozenPNode,
    frozen_node,
)

__all__ = ["MAX_DEPTH", "parse"]

#: Deepest element nesting a document may have (the document element
#: is level 1). Profile components nest about six levels below
#: ``<user>``; a deeper element is a :class:`ParseError` at its ``<``.
MAX_DEPTH = 128

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

# The data model's name grammar (``repro.pxml.node.NAME_PATTERN``). The
# lookahead makes every match maximal, so a name never gives characters
# back to whatever follows it ("<iXid='1'>" is tag "iXid", never tag
# "iX" with attribute "id").
_NAME = NAME_PATTERN + "(?![" + NAME_CHARS + "])"
_SPACE = "[ \t\r\n]*"
_NAME_RE = re.compile(_NAME)
_SPACE_RE = re.compile(_SPACE)
#: One attribute whose value holds no entity and no ``<``: groups are
#: the name and the double- or single-quoted value.
_ATTRIBUTE_RE = re.compile(
    _SPACE + "(" + _NAME + ")" + _SPACE + "=" + _SPACE
    + "(?:\"([^\"&<]*)\"|'([^'&<]*)')"
)
#: A whole element start made of such attributes: groups are the tag,
#: the attribute run, ``/`` for an empty-element tag, and the text of a
#: leaf closed right after it (``<name>Bob</name>``), entity-free.
_ELEMENT = re.compile(
    "<(?P<tag>" + _NAME + ")((?:" + _SPACE + _NAME + _SPACE + "=" + _SPACE
    + "(?:\"[^\"&<]*\"|'[^'&<]*'))*)" + _SPACE
    + "(?:(/)>|>(?:([^<&]*)</(?P=tag)" + _SPACE + ">)?)"
)

#: An open element: its tag, attributes and children so far, its
#: closing-tag prefix and its text runs.
_Open = Tuple[str, Dict[str, str], List[FrozenPNode], str, List[str]]
#: A start tag read: its tag and attributes, and the element itself
#: when the tag closed it (``<a/>``, or a leaf like ``<a>x</a>``).
_Start = Tuple[str, Dict[str, str], Optional[FrozenPNode]]


def parse(text: str) -> FrozenPNode:
    """Parse XML *text* into a published tree: every node a
    :class:`repro.pxml.node.FrozenPNode`, built at its end tag. Take
    ``copy()`` of it for a tree to change.

    Raises :class:`repro.errors.ParseError` with the offending position
    on malformed input.
    """
    parser = _Parser(text)
    return parser.parse_document()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    # -- document --------------------------------------------------------

    def parse_document(self) -> FrozenPNode:
        self._skip_prolog()
        root = self._parse_elements()
        self._skip_misc()
        if self.pos != self.length:
            self._fail("trailing content after document element")
        return root

    def _skip_prolog(self) -> None:
        self._skip_whitespace()
        if self.text.startswith("<?xml", self.pos):
            end = self.text.find("?>", self.pos)
            if end < 0:
                self._fail("unterminated XML declaration")
            self.pos = end + 2
        self._skip_misc()

    def _skip_misc(self) -> None:
        while True:
            self._skip_whitespace()
            if self.text.startswith("<!--", self.pos):
                self._skip_comment()
            else:
                return

    def _skip_comment(self) -> None:
        end = self.text.find("-->", self.pos + 4)
        if end < 0:
            self._fail("unterminated comment")
        self.pos = end + 3

    # -- elements ----------------------------------------------------------

    def _parse_elements(self) -> FrozenPNode:
        """The document element and everything inside it, one token
        per step, with the open elements on a stack. Each element is
        built at its end tag, after its children."""
        text, length = self.text, self.length
        tag, attrs, done = self._element()
        if done is not None:
            return done
        children: List[FrozenPNode] = []
        closing, parts = "</" + tag, []
        stack: List[_Open] = []
        while True:
            pos = self.pos
            if pos >= length:
                self._fail("unexpected end of input inside %r" % tag)
            if text[pos] != "<":
                parts.append(self._chardata())
                continue
            after = text[pos + 1 : pos + 2]
            if after == "/":
                if not text.startswith(closing, pos):
                    self._fail("mismatched closing tag inside %r" % tag)
                self.pos = pos + len(closing)
                if not text.startswith(">", self.pos):
                    self._skip_whitespace()
                    if not text.startswith(">", self.pos):
                        self._fail("malformed closing tag for %r" % tag)
                self.pos += 1
                content = "".join(parts)
                if children:
                    if content.strip():
                        self._fail(
                            "mixed content in %r is not supported" % tag
                        )
                    node = frozen_node(tag, attrs, None, tuple(children))
                else:
                    # An explicit closing tag means the element has
                    # text content — possibly empty ("<a></a>" is
                    # text="", while "<a/>" is text=None), mirroring
                    # the serializer exactly.
                    node = frozen_node(tag, attrs, content, ())
                if not stack:
                    return node
                tag, attrs, children, closing, parts = stack.pop()
                children.append(node)
            elif after == "!" and text.startswith("<!--", pos):
                self._skip_comment()
            else:
                if len(stack) + 1 >= MAX_DEPTH:
                    self._fail(
                        "element nesting deeper than %d levels" % MAX_DEPTH
                    )
                child_tag, child_attrs, done = self._element()
                if done is not None:
                    children.append(done)
                else:
                    stack.append((tag, attrs, children, closing, parts))
                    tag, attrs, children = child_tag, child_attrs, []
                    closing, parts = "</" + tag, []

    def _element(self) -> _Start:
        """The start tag at the cursor (see :data:`_Start`)."""
        match = _ELEMENT.match(self.text, self.pos)
        if match is None:
            return self._start_tag_exact()
        tag, run, slash, content = match.groups()
        attrs: Dict[str, str] = {}
        if run:
            pairs = _ATTRIBUTE_RE.findall(run)
            for name, double, single in pairs:
                attrs[_intern(name)] = double or single
            if len(pairs) != len(attrs):
                # A duplicate attribute: the exact path reports it.
                return self._start_tag_exact()
        self.pos = match.end()
        # The name patterns are the data model's name grammar, so the
        # tag needs no further check.
        tag = _intern(tag)
        if slash is None and content is None:
            return tag, attrs, None
        return tag, attrs, frozen_node(tag, attrs, content, ())

    def _start_tag_exact(self) -> _Start:
        """The start tag at the cursor, read token by token (see
        :data:`_Start`)."""
        if not self.text.startswith("<", self.pos):
            self._fail("expected element start '<'")
        self.pos += 1
        tag = _intern(self._parse_name("element name"))
        attrs = self._parse_attributes()
        self._skip_whitespace()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return tag, attrs, frozen_node(tag, attrs, None, ())
        if not self.text.startswith(">", self.pos):
            self._fail("expected '>' or '/>' in element %r" % tag)
        self.pos += 1
        return tag, attrs, None

    def _parse_attributes(self) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch in (">", "/") or ch is None:
                return attrs
            name = self._parse_name("attribute name")
            self._skip_whitespace()
            if not self.text.startswith("=", self.pos):
                self._fail("expected '=' after attribute %r" % name)
            self.pos += 1
            self._skip_whitespace()
            value = self._parse_quoted()
            if name in attrs:
                self._fail("duplicate attribute %r" % name)
            # Attribute names are schema vocabulary — intern so the
            # whole deserialized forest shares one string per name
            # (values stay unbounded and uninterned).
            attrs[_intern(name)] = value

    def _chardata(self) -> str:
        """Character data from the cursor up to the next ``<`` (or the
        end of input), entities decoded."""
        text, length = self.text, self.length
        parts = []
        pos = self.pos
        while True:
            stop = text.find("<", pos)
            if stop < 0:
                stop = length
            amp = text.find("&", pos, stop)
            if amp < 0:
                parts.append(text[pos:stop])
                self.pos = stop
                return "".join(parts)
            parts.append(text[pos:amp])
            self.pos = amp
            parts.append(self._parse_entity())
            pos = self.pos

    def _parse_entity(self) -> str:
        end = self.text.find(";", self.pos + 1)
        if end < 0 or end - self.pos > 8:
            self._fail("malformed entity reference")
        name = self.text[self.pos + 1 : end]
        self.pos = end + 1
        if name.startswith("#"):
            try:
                # chr() refuses a negative code ("&#-1;") the way int()
                # refuses a non-number: both are a bad reference.
                char = chr(
                    int(name[2:], 16) if name[1:2] in ("x", "X")
                    else int(name[1:])
                )
            except ValueError:
                self._fail("bad character reference &%s;" % name)
            # A surrogate is no XML character, and a tree holding one
            # cannot be encoded.
            if "\ud800" <= char <= "\udfff":
                self._fail("bad character reference &%s;" % name)
            return char
        if name not in _ENTITIES:
            self._fail("unknown entity &%s;" % name)
        return _ENTITIES[name]

    # -- lexical helpers ---------------------------------------------------

    def _parse_name(self, what: str) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            self._fail("expected %s" % what)
        self.pos = match.end()
        return match.group()

    def _parse_quoted(self) -> str:
        """A quoted value, entities decoded: the text between the
        quotes, cut at each ``&`` (decoded) and refused at a ``<``."""
        text = self.text
        quote = self._peek()
        if quote not in ('"', "'"):
            self._fail("expected quoted attribute value")
        pos = self.pos + 1
        close = text.find(quote, pos)
        end = close if close >= 0 else self.length
        parts = []
        while True:
            amp = text.find("&", pos, end)
            less = text.find("<", pos, end if amp < 0 else amp)
            if less >= 0:
                self.pos = less
                self._fail("'<' not allowed in attribute value")
            if amp < 0:
                break
            parts.append(text[pos:amp])
            self.pos = amp
            parts.append(self._parse_entity())
            pos = self.pos
        if close < 0:
            self.pos = self.length
            self._fail("unterminated attribute value")
        parts.append(text[pos:close])
        self.pos = close + 1
        return "".join(parts)

    def _peek(self) -> Optional[str]:
        if self.pos < self.length:
            return self.text[self.pos]
        return None

    def _skip_whitespace(self) -> None:
        self.pos = _SPACE_RE.match(self.text, self.pos).end()

    def _fail(self, message: str) -> None:
        raise ParseError(
            "%s (at position %d)" % (message, self.pos), self.pos
        )
