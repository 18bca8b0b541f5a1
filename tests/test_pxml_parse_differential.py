"""The XML parser against a frozen copy of its character-at-a-time
original.

``_FrozenParser`` below is ``repro.pxml.parse`` as it stood before the
parser learned to scan runs: one character per step, recursive
descent. Any later parser must accept the same language, build the
same trees (``deep_equal``, tags and attribute names interned) and
raise :class:`ParseError` with the same message and position wherever
the original did. Where the original escaped with anything other than
a ``ParseError`` (a crash), or built a tree deeper than
:data:`repro.pxml.parse.MAX_DEPTH`, the parser must raise a
``ParseError``.

One divergence is stated: a character reference to a surrogate
(U+D800–U+DFFF, as ``&#xD800;`` or ``&#55296;``) is decoded by the
original, which reads on, and the parser must refuse the first one
with "bad character reference" at the position after its ``;``.
"""

import string
import sys
from typing import Optional

from hypothesis import example, given, settings, strategies as st

from repro.errors import ParseError
from repro.pxml import PNode, parse
from repro.pxml.parse import MAX_DEPTH

# ---------------------------------------------------------------------------
# The frozen original
# ---------------------------------------------------------------------------

_FROZEN_NAME_START = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_FROZEN_NAME_CHARS = _FROZEN_NAME_START | set("0123456789-.")

_FROZEN_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def _frozen_parse(text: str) -> PNode:
    return _FrozenParser(text).parse_document()


class _FrozenParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def parse_document(self) -> PNode:
        self._skip_prolog()
        root = self._parse_element()
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

    def _parse_element(self) -> PNode:
        if not self._consume("<"):
            self._fail("expected element start '<'")
        tag = self._parse_name("element name")
        node = PNode(tag)
        self._parse_attributes(node)
        self._skip_whitespace()
        if self._consume("/>"):
            return node
        if not self._consume(">"):
            self._fail("expected '>' or '/>' in element %r" % tag)
        self._parse_content(node)
        return node

    def _parse_attributes(self, node: PNode) -> None:
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch in (">", "/") or ch is None:
                return
            name = self._parse_name("attribute name")
            self._skip_whitespace()
            if not self._consume("="):
                self._fail("expected '=' after attribute %r" % name)
            self._skip_whitespace()
            value = self._parse_quoted()
            if name in node.attrs:
                self._fail("duplicate attribute %r" % name)
            node.attrs[sys.intern(name)] = value

    def _parse_content(self, node: PNode) -> None:
        text_parts = []
        closing = "</" + node.tag
        while True:
            if self.pos >= self.length:
                self._fail("unexpected end of input inside %r" % node.tag)
            if self.text.startswith("<!--", self.pos):
                self._skip_comment()
                continue
            if self.text.startswith(closing, self.pos):
                self.pos += len(closing)
                self._skip_whitespace()
                if not self._consume(">"):
                    self._fail("malformed closing tag for %r" % node.tag)
                break
            if self.text.startswith("</", self.pos):
                self._fail("mismatched closing tag inside %r" % node.tag)
            if self._peek() == "<":
                child = self._parse_element()
                node.append(child)
                continue
            text_parts.append(self._parse_chardata())
        text = "".join(text_parts)
        if node.children:
            if text.strip():
                self._fail(
                    "mixed content in %r is not supported" % node.tag
                )
        else:
            node.set_text(text)

    def _parse_chardata(self) -> str:
        parts = []
        while self.pos < self.length and self._peek() != "<":
            ch = self.text[self.pos]
            if ch == "&":
                parts.append(self._parse_entity())
            else:
                parts.append(ch)
                self.pos += 1
        return "".join(parts)

    def _parse_entity(self) -> str:
        end = self.text.find(";", self.pos + 1)
        if end < 0 or end - self.pos > 8:
            self._fail("malformed entity reference")
        name = self.text[self.pos + 1 : end]
        self.pos = end + 1
        if name.startswith("#"):
            try:
                code = (
                    int(name[2:], 16) if name[1:2] in ("x", "X")
                    else int(name[1:])
                )
            except ValueError:
                self._fail("bad character reference &%s;" % name)
            return chr(code)
        if name not in _FROZEN_ENTITIES:
            self._fail("unknown entity &%s;" % name)
        return _FROZEN_ENTITIES[name]

    def _parse_name(self, what: str) -> str:
        start = self.pos
        ch = self._peek()
        if ch is None or ch not in _FROZEN_NAME_START:
            self._fail("expected %s" % what)
        self.pos += 1
        while True:
            ch = self._peek()
            if ch is not None and ch in _FROZEN_NAME_CHARS:
                self.pos += 1
            else:
                break
        return self.text[start : self.pos]

    def _parse_quoted(self) -> str:
        quote = self._peek()
        if quote not in ('"', "'"):
            self._fail("expected quoted attribute value")
        self.pos += 1
        parts = []
        while True:
            if self.pos >= self.length:
                self._fail("unterminated attribute value")
            ch = self.text[self.pos]
            if ch == quote:
                self.pos += 1
                return "".join(parts)
            if ch == "&":
                parts.append(self._parse_entity())
            elif ch == "<":
                self._fail("'<' not allowed in attribute value")
            else:
                parts.append(ch)
                self.pos += 1

    def _peek(self) -> Optional[str]:
        if self.pos < self.length:
            return self.text[self.pos]
        return None

    def _consume(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def _skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _fail(self, message: str) -> None:
        raise ParseError(
            "%s (at position %d)" % (message, self.pos), self.pos
        )


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def _outcome(parser, text):
    """``("tree", node)``, ``("parse-error", message, position)`` or
    ``("crash", exception type name)``."""
    try:
        return ("tree", parser(text))
    except ParseError as err:
        return ("parse-error", str(err), err.position)
    except Exception as err:  # the frozen original's crashes
        return ("crash", type(err).__name__)


def _interned(tree):
    return all(
        sys.intern(node.tag) is node.tag
        and all(sys.intern(key) is key for key in node.attrs)
        for node in tree.walk()
    )


class _SurrogateWatchingParser(_FrozenParser):
    """The frozen original, noting the first character reference it
    decodes to a surrogate (U+D800–U+DFFF): the reference and the
    position after its ``;``."""

    surrogate = None

    def _parse_entity(self) -> str:
        start = self.pos
        char = super()._parse_entity()
        if self.surrogate is None and "\ud800" <= char <= "\udfff":
            self.surrogate = (self.text[start : self.pos], self.pos)
        return char


def assert_parses_like_the_original(text):
    watcher = _SurrogateWatchingParser(text)
    expected = _outcome(lambda _text: watcher.parse_document(), text)
    got = _outcome(parse, text)
    if expected[0] == "tree" and expected[1].depth() > MAX_DEPTH:
        assert got[0] == "parse-error", (text, got)
    elif watcher.surrogate is not None:
        # The one stated divergence: the original decoded a reference
        # to a surrogate, which is no XML character and builds a tree
        # that cannot be encoded, and read on; the parser stops there.
        reference, position = watcher.surrogate
        assert got == (
            "parse-error",
            "bad character reference %s (at position %d)"
            % (reference, position),
            position,
        ), text
    elif expected[0] == "tree":
        assert got[0] == "tree", (text, got)
        assert got[1].deep_equal(expected[1]), text
        assert _interned(got[1]), text
    elif expected[0] == "parse-error":
        assert got == expected, text
    else:
        assert got[0] == "parse-error", (text, expected, got)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# Characters that matter to the grammar, plus a few that do not.
xmlish_chars = st.text(
    alphabet=st.sampled_from(
        list("<>/=\"' abiXdx_.-&;#!?[]@019\n\t\ré")
    ),
    max_size=120,
)

# Whole tokens, so soups reach deeper than single characters do.
TOKENS = [
    "<", ">", "</", "/>", "=", '"', "'", " ", "\n", "\t",
    "a", "b", "i", "iX", "ix", "id", "x", "a.b", "a-b", "_1", "1", "é",
    "<a>", "</a>", "<b/>", "<a x='1'>", '<b y="2"/>', "<iXid='1'>",
    '<ix="1"id=\'1\'>', "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
    "&#65;", "&#x42;", "&#", "&x;", "&", ";", "<!--", "-->",
    "<?xml", "?>", "<?xml version='1.0'?>",
]
token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)

arbitrary_unicode = st.text(max_size=80)

tree_tags = st.sampled_from(
    ["a", "i", "iX", "ix", "id", "a.b", "a-b", "_1", "item", "name"]
)
tree_attr_names = st.sampled_from(["id", "i", "iX", "x", "type", "a.b"])
tree_values = st.text(
    alphabet=string.ascii_letters[:6] + string.digits[:3]
    + " \n\t<>&\"'é　",
    max_size=12,
)


@st.composite
def trees(draw, depth=3):
    tag = draw(tree_tags)
    attrs = draw(st.dictionaries(tree_attr_names, tree_values, max_size=3))
    if depth == 0 or draw(st.booleans()):
        return PNode(tag, attrs, draw(st.one_of(st.none(), tree_values)))
    node = PNode(tag, attrs)
    node.extend(draw(st.lists(trees(depth=depth - 1), max_size=3)))
    return node


@st.composite
def edited_documents(draw):
    """A serialized random tree, compact or indented, with one edit:
    a span deleted, a character replaced, or a token inserted."""
    tree = draw(trees())
    text = tree.serialize(indent=draw(st.sampled_from([None, 0, 2])))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["delete", "replace", "insert"]))
    if edit == "delete":
        return text[:at] + text[at + draw(st.integers(1, 3)):]
    inserted = draw(st.one_of(
        st.sampled_from(TOKENS), st.characters(max_codepoint=0x3000)
    ))
    if edit == "replace":
        return text[:at] + inserted + text[at + 1:]
    return text[:at] + inserted + text[at:]


class TestParseMatchesTheOriginal:
    @given(xmlish_chars)
    @settings(max_examples=600)
    @example("<iXid='1'>")
    @example("<ix=\"1\"id='1'>")
    @example("<iXid='1'/>")
    @example("<ix=\"1\"id='1'></ix>")
    @example("<a x=\"1\"y='2'/>")
    @example("<a></ab>")
    @example("<a>&a<b;</a>")
    @example("<a x=\"&x\" b=\"y;\"/>")
    @example("<a>　<b/></a>")
    @example("<a>&#-1;</a>")
    @example("<a>&#x-1;</a>")
    @example("<a b='&#-1;'/>")
    @example("<a>&#xD800;</a>")
    @example("<a>&#55296;</a>")
    @example("<a b='&#xDFFF;'/>")
    @example("<a>x&#xdc00;<b/></a>")
    @example("<a>&#xD7FF;&#xE000;&#57343;</a>")
    @example("<a>" * (MAX_DEPTH + 1) + "</a>" * (MAX_DEPTH + 1))
    def test_xmlish_text(self, text):
        assert_parses_like_the_original(text)

    @given(token_soup)
    @settings(max_examples=600)
    def test_token_soup(self, text):
        assert_parses_like_the_original(text)

    @given(arbitrary_unicode)
    @settings(max_examples=400)
    def test_arbitrary_unicode(self, text):
        assert_parses_like_the_original(text)

    @given(edited_documents())
    @settings(max_examples=800)
    def test_single_edits_of_serialized_trees(self, text):
        assert_parses_like_the_original(text)

    @given(trees())
    @settings(max_examples=200)
    def test_serialized_trees(self, tree):
        assert_parses_like_the_original(tree.serialize())
        assert_parses_like_the_original(tree.serialize(indent=2))
