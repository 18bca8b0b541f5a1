"""The serializer against a frozen copy of its per-node original.

``_frozen_serialize`` below is :meth:`repro.pxml.node.PNode.serialize`
as it stood before the compact (``indent=None``) form was written in
one pass: every node renders through ``_serialize_into`` with sorted
attributes and unconditional escaping. Whatever the serializer does to
go faster, both forms must produce exactly the original's text, for
every tree the data model can hold: any tag and attribute name of the
name grammar, any attribute value and any text, including markup
characters, quotes and non-ASCII.

Published (frozen) trees are held to the same text, however they are
reached: as a frozen root, as a frozen subtree under a mutable spine
(what ``extract`` and ``merge`` build), before and after either was
rendered once, compact and pretty.
"""

from typing import List, Optional

from hypothesis import example, given, settings, strategies as st

from repro.pxml import FrozenPNode, PNode

# ---------------------------------------------------------------------------
# The frozen original
# ---------------------------------------------------------------------------


def _frozen_serialize(node: PNode, indent: Optional[int] = None) -> str:
    parts: List[str] = []
    _frozen_serialize_into(node, parts, indent, 0)
    joiner = "\n" if indent is not None else ""
    return joiner.join(parts)


def _frozen_serialize_into(
    node: PNode, parts: List[str], indent: Optional[int], level: int
) -> None:
    pad = " " * (indent * level) if indent is not None else ""
    attrs = "".join(
        ' %s="%s"' % (key, _frozen_escape_attr(value))
        for key, value in sorted(node.attrs.items())
    )
    if node.text is not None:
        parts.append(
            "%s<%s%s>%s</%s>"
            % (pad, node.tag, attrs, _frozen_escape_text(node.text),
               node.tag)
        )
    elif not node.children:
        parts.append("%s<%s%s/>" % (pad, node.tag, attrs))
    else:
        parts.append("%s<%s%s>" % (pad, node.tag, attrs))
        for child in node.children:
            _frozen_serialize_into(child, parts, indent, level + 1)
        parts.append("%s</%s>" % (pad, node.tag))


def _frozen_escape_text(value: str) -> str:
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _frozen_escape_attr(value: str) -> str:
    return _frozen_escape_text(value).replace('"', "&quot;")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

names = st.sampled_from(
    ["a", "b", "id", "type", "item", "name", "_1", "a.b", "a-b", "Zz9"]
)
# Markup characters, quotes, whitespace and non-ASCII, mixed with
# plain letters so most values hold no special character at all.
values = st.one_of(
    st.text(alphabet="abc 019", max_size=8),
    st.text(alphabet="ab&<>\"'\n\té　;#", max_size=10),
    st.text(max_size=10),
)


@st.composite
def trees(draw, depth=3):
    tag = draw(names)
    attrs = draw(st.dictionaries(names, values, max_size=4))
    if depth == 0 or draw(st.booleans()):
        return PNode(tag, attrs, draw(st.one_of(st.none(), values)))
    node = PNode(tag, attrs)
    node.extend(draw(st.lists(trees(depth=depth - 1), max_size=4)))
    return node


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


class TestSerializeMatchesTheOriginal:
    @given(trees())
    @settings(max_examples=300)
    @example(PNode("a"))
    @example(PNode("a", text=""))
    @example(PNode("a", {"z": "1", "b": "2", "m": "&<>\"'"}, "x & y < z"))
    @example(PNode("a", {"q": '"'}, None, [PNode("b", text='"quoted"')]))
    @example(PNode("a", {"x": "é　"}, None, [PNode("b"), PNode("c", text=">")]))
    def test_compact(self, tree):
        assert tree.serialize() == _frozen_serialize(tree)

    @given(trees(), st.sampled_from([0, 1, 2, 4]))
    @settings(max_examples=100)
    def test_pretty(self, tree, indent):
        assert tree.serialize(indent=indent) == _frozen_serialize(
            tree, indent
        )


# ---------------------------------------------------------------------------
# Published subtrees: mutable spines over frozen trees
# ---------------------------------------------------------------------------


@st.composite
def mixed_trees(draw, depth=3):
    """A tree whose subtrees are frozen at random: a mutable spine
    (what ``extract`` and ``merge`` build) over published subtrees,
    or a frozen root."""
    if depth == 0 or draw(st.booleans()):
        tree = draw(trees(depth=0))
    else:
        tree = PNode(draw(names), draw(st.dictionaries(names, values,
                                                       max_size=4)))
        tree.extend(draw(st.lists(mixed_trees(depth=depth - 1), max_size=4)))
    return tree.frozen() if draw(st.booleans()) else tree


def frozen_subtrees(tree: PNode) -> List[PNode]:
    """The frozen nodes of *tree* whose parent is mutable (or that are
    the root): the subtrees a spine splices whole."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, FrozenPNode):
            found.append(node)
        else:
            stack.extend(node.children)
    return found


class TestPublishedSubtrees:
    @given(mixed_trees(), st.data())
    @settings(max_examples=200)
    def test_compact_twice(self, tree, data):
        # Some published subtrees are rendered on their own first.
        for node in frozen_subtrees(tree):
            if data.draw(st.booleans()):
                assert node.serialize() == _frozen_serialize(node)
        expected = _frozen_serialize(tree)
        assert tree.serialize() == expected
        assert tree.serialize() == expected
        for node in tree.walk():
            assert node.serialize() == _frozen_serialize(node)

    @given(mixed_trees(), st.sampled_from([0, 1, 2, 4]))
    @settings(max_examples=100)
    def test_pretty_after_compact(self, tree, indent):
        tree.serialize()
        for _ in range(2):
            assert tree.serialize(indent=indent) == _frozen_serialize(
                tree, indent
            )
        assert tree.serialize() == _frozen_serialize(tree)

    @given(trees(), st.booleans())
    @settings(max_examples=100)
    def test_subtree_before_and_after_splicing(self, tree, first):
        published = tree.frozen()
        expected = _frozen_serialize(published)
        if first:
            assert published.serialize() == expected
        spine = PNode("spine", {"id": "1"}, None, [published])
        spine.append(PNode("tail"))
        assert spine.serialize() == _frozen_serialize(spine)
        assert published.serialize() == expected
        assert spine.serialize() == _frozen_serialize(spine)

    @given(trees(depth=3))
    @settings(max_examples=100)
    def test_root_after_its_children_were_spliced(self, tree):
        # A spine over each child of a published root renders first;
        # the root, rendered after, holds children that carry text.
        published = tree.frozen()
        for child in published.children:
            spine = PNode("spine", None, None, [child])
            assert spine.serialize() == _frozen_serialize(spine)
        for _ in range(2):
            assert published.serialize() == _frozen_serialize(published)
        assert published.copy().serialize() == published.serialize()
