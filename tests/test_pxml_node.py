"""Unit tests for the PNode tree data model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pxml import PNode, element
from repro.pxml.node import _is_name


def build_sample():
    root = PNode("user", {"id": "alice"})
    book = root.append(PNode("address-book"))
    item = book.append(PNode("item", {"id": "1", "type": "personal"}))
    item.append(PNode("name", text="Bob"))
    item.append(PNode("number", {"type": "cell"}, "908-582-1111"))
    return root


class TestConstruction:
    def test_tag_required(self):
        with pytest.raises(ValueError):
            PNode("")

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            PNode("9bad")

    def test_tag_with_dash_ok(self):
        assert PNode("address-book").tag == "address-book"

    def test_mixed_content_rejected_in_constructor(self):
        with pytest.raises(ValueError):
            PNode("a", text="x", children=[PNode("b")])

    def test_append_returns_the_child(self):
        root = PNode("a")
        child = root.append(PNode("b"))
        assert root.children == [child]

    def test_nodes_hold_no_parent_link(self):
        # Trees are acyclic: nothing points back up, so a discarded
        # fragment is freed by reference counting alone.
        assert PNode.__slots__ == ("tag", "attrs", "text", "children")

    def test_append_to_text_node_rejected(self):
        leaf = PNode("a", text="x")
        with pytest.raises(ValueError):
            leaf.append(PNode("b"))

    def test_set_text_on_parent_rejected(self):
        root = PNode("a", children=[PNode("b")])
        with pytest.raises(ValueError):
            root.set_text("x")

    def test_element_builder(self):
        node = element("user", {"id": "a"}, None, element("presence"))
        assert node.tag == "user"
        assert node.children[0].tag == "presence"

    def test_remove_detaches_the_child(self):
        root = PNode("a")
        child = root.append(PNode("b"))
        root.remove(child)
        assert root.children == []

    def test_replace_children(self):
        root = PNode("a", children=[PNode("b"), PNode("c")])
        new = PNode("d")
        root.replace_children([new])
        assert root.children == [new]


class TestNavigation:
    def test_child_by_tag(self):
        root = build_sample()
        assert root.child("address-book") is not None
        assert root.child("missing") is None

    def test_children_named(self):
        book = build_sample().child("address-book")
        item = book.children[0]
        assert len(item.children_named("number")) == 1
        assert item.children_named("nothing") == []

    def test_walk_preorder(self):
        root = build_sample()
        tags = [n.tag for n in root.walk()]
        assert tags == ["user", "address-book", "item", "name", "number"]

    def test_walk_locations_uses_id_predicates(self):
        root = build_sample()
        assert [location for location, _node in root.walk_locations()] == [
            "/user[@id='alice']",
            "/user[@id='alice']/address-book",
            "/user[@id='alice']/address-book/item[@id='1']",
            "/user[@id='alice']/address-book/item[@id='1']/name",
            "/user[@id='alice']/address-book/item[@id='1']/number[@type='cell']",
        ]
        assert [node for _location, node in root.walk_locations()] == list(
            root.walk()
        )

    def test_walk_locations_starts_at_the_receiver(self):
        item = build_sample().child("address-book").children[0]
        location, node = next(item.walk_locations())
        assert (location, node) == ("/item[@id='1']", item)

    def test_get_attr_default(self):
        root = build_sample()
        assert root.get("id") == "alice"
        assert root.get("missing", "x") == "x"


class TestMeasurement:
    def test_size(self):
        assert build_sample().size() == 5

    def test_depth(self):
        assert build_sample().depth() == 4
        assert PNode("a").depth() == 1

    def test_byte_size_matches_serialization(self):
        root = build_sample()
        assert root.byte_size() == len(root.serialize().encode("utf-8"))


class TestCopyEquality:
    def test_copy_is_deep_and_detached(self):
        root = build_sample()
        dup = root.child("address-book").copy()
        assert dup.deep_equal(root.child("address-book"))
        dup.children[0].attrs["id"] = "99"
        assert root.child("address-book").children[0].attrs["id"] == "1"

    def test_deep_equal_detects_attr_change(self):
        a, b = build_sample(), build_sample()
        assert a.deep_equal(b)
        b.attrs["id"] = "other"
        assert not a.deep_equal(b)

    def test_deep_equal_detects_text_change(self):
        a, b = build_sample(), build_sample()
        b.child("address-book").children[0].child("name").text = "Carl"
        assert not a.deep_equal(b)

    def test_deep_equal_is_order_sensitive(self):
        a = PNode("p", children=[PNode("x"), PNode("y")])
        b = PNode("p", children=[PNode("y"), PNode("x")])
        assert not a.deep_equal(b)

    def test_canonical_key_is_order_insensitive(self):
        a = PNode("p", children=[PNode("x"), PNode("y")])
        b = PNode("p", children=[PNode("y"), PNode("x")])
        assert a.canonical_key() == b.canonical_key()


class TestSerialization:
    def test_self_closing_empty(self):
        assert PNode("presence").serialize() == "<presence/>"

    def test_attrs_sorted(self):
        node = PNode("a", {"z": "1", "b": "2"})
        assert node.serialize() == '<a b="2" z="1"/>'

    def test_text_escaped(self):
        node = PNode("a", text="x < y & z")
        assert node.serialize() == "<a>x &lt; y &amp; z</a>"

    def test_attr_quote_escaped(self):
        node = PNode("a", {"v": 'say "hi"'})
        assert '&quot;' in node.serialize()

    def test_pretty_print_indents(self):
        text = build_sample().serialize(indent=2)
        lines = text.split("\n")
        assert lines[0].startswith("<user")
        assert lines[1].startswith("  <address-book>")


# The name grammar as the set-based check it was first written as:
# ASCII letters and '_' to start, then letters, digits, '_', '-', '.'.
_FROZEN_NAME_START = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_FROZEN_NAME_CHARS = _FROZEN_NAME_START | set("0123456789-.")


def _frozen_is_name(name):
    return (
        bool(name)
        and name[0] in _FROZEN_NAME_START
        and all(ch in _FROZEN_NAME_CHARS for ch in name)
    )


class TestNameGrammar:
    @given(st.one_of(
        st.text(max_size=12),
        st.text(alphabet="aZ_09-.é\n :", max_size=8),
        st.text(alphabet="aZ_09-.", max_size=8).map(lambda s: s + "\n"),
    ))
    @settings(max_examples=400)
    @example("a\n")
    @example("a\nb")
    @example("\na")
    @example("ab\r")
    @example("é")
    @example("aé")
    @example("a١")
    @example("-a")
    @example(".")
    @example("")
    def test_is_name_agrees_with_the_set_based_check(self, name):
        assert _is_name(name) == _frozen_is_name(name)
