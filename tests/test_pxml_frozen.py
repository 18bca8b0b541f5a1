"""The frozen-tree contract: a published profile tree refuses every
write, ``copy()`` of it is private and mutable, and ``frozen()``
shares what is already frozen without touching its input."""

import pytest

from repro.errors import ModelError
from repro.pxml import FrozenPNode, PNode, parse


def build_sample():
    root = PNode("user", {"id": "alice"})
    book = root.append(PNode("address-book"))
    item = book.append(PNode("item", {"id": "1", "type": "personal"}))
    item.append(PNode("name", text="Bob & <Alice>"))
    item.append(PNode("number", {"type": "cell"}, "908-582-1111"))
    root.append(PNode("presence"))
    return root


def every_node(tree):
    return list(tree.walk())


class TestWritesRaise:
    @pytest.mark.parametrize("write", [
        lambda n: n.append(PNode("x")),
        lambda n: n.extend([PNode("x")]),
        lambda n: n.remove(n.children[0]),
        lambda n: n.replace_children([]),
        lambda n: n.set_text("x"),
        lambda n: n.set_text(None),
    ], ids=["append", "extend", "remove", "replace_children",
            "set_text", "set_text-none"])
    def test_mutators(self, write):
        tree = build_sample().frozen()
        before = tree.serialize()
        with pytest.raises(ModelError):
            write(tree)
        assert tree.serialize() == before

    @pytest.mark.parametrize("slot, value", [
        ("tag", "other"), ("attrs", {}), ("text", "x"), ("children", []),
    ])
    def test_slot_assignment(self, slot, value):
        node = build_sample().frozen()
        with pytest.raises(ModelError):
            setattr(node, slot, value)
        with pytest.raises(ModelError):
            delattr(node, slot)

    @pytest.mark.parametrize("write", [
        lambda a: a.__setitem__("id", "mallory"),
        lambda a: a.__setitem__("new", "x"),
        lambda a: a.__delitem__("id"),
        lambda a: a.update({"id": "mallory"}),
        lambda a: a.update(id="mallory"),
        lambda a: a.setdefault("new", "x"),
        lambda a: a.pop("id"),
        lambda a: a.pop("missing", None),
        lambda a: a.popitem(),
        lambda a: a.clear(),
        lambda a: a.__ior__({"id": "mallory"}),
    ], ids=["setitem", "setitem-new", "delitem", "update", "update-kw",
            "setdefault", "pop", "pop-default", "popitem", "clear", "ior"])
    def test_attrs(self, write):
        node = build_sample().frozen()
        with pytest.raises(ModelError):
            write(node.attrs)
        assert dict(node.attrs) == {"id": "alice"}

    def test_attrs_of_a_node_without_any(self):
        node = build_sample().frozen().child("presence")
        with pytest.raises(ModelError):
            node.attrs["type"] = "x"
        assert dict(node.attrs) == {}

    def test_children_tuple(self):
        node = build_sample().frozen()
        with pytest.raises(AttributeError):
            node.children.append(PNode("x"))
        assert isinstance(node.children, tuple)

    def test_every_node_of_a_frozen_tree_is_frozen(self):
        for node in every_node(build_sample().frozen()):
            assert isinstance(node, FrozenPNode)


class TestCopy:
    def test_copy_is_mutable_and_unshared(self):
        frozen = build_sample().frozen()
        dup = frozen.copy()
        assert dup.deep_equal(frozen)
        frozen_nodes = every_node(frozen)
        for node in every_node(dup):
            assert type(node) is PNode
            assert type(node.attrs) is dict
            assert type(node.children) is list
            assert all(node is not other for other in frozen_nodes)
        dup.child("address-book").child("item").attrs["id"] = "2"
        dup.append(PNode("calendar"))
        assert frozen.deep_equal(build_sample())


class TestFrozen:
    def test_shares_frozen_subtrees(self):
        book = build_sample().child("address-book").frozen()
        root = PNode("user", {"id": "alice"}, None, [book, PNode("presence")])
        published = root.frozen()
        assert published.child("address-book") is book
        assert published.child("presence") is not root.child("presence")
        assert published.frozen() is published

    def test_leaves_a_mutable_input_mutable_and_untouched(self):
        tree = build_sample()
        nodes = every_node(tree)
        lists = [node.children for node in nodes]
        text = tree.serialize()
        published = tree.frozen()
        assert published.deep_equal(tree)
        assert tree.serialize() == text
        for node, children in zip(every_node(tree), lists):
            assert type(node) is PNode
            assert node.children is children
        assert all(node is not other for node in every_node(published)
                   for other in nodes)
        tree.append(PNode("calendar"))
        tree.child("address-book").child("item").attrs["id"] = "9"
        assert published.deep_equal(build_sample())

    def test_share(self):
        tree = build_sample()
        private = tree.share()
        assert private is not tree and private.deep_equal(tree)
        assert type(private) is PNode
        published = tree.frozen()
        assert published.share() is published

    def test_constructor(self):
        name = FrozenPNode("name", text="Bob")
        item = FrozenPNode("item", {"id": "1"}, None, [name, PNode("x")])
        assert item.children[0] is name
        assert isinstance(item.children[1], FrozenPNode)
        assert item.serialize() == '<item id="1"><name>Bob</name><x/></item>'
        with pytest.raises(ModelError):
            FrozenPNode("9bad")
        with pytest.raises(ModelError):
            FrozenPNode("a", None, "text", [name])

    def test_reads_like_its_mutable_twin(self):
        tree = build_sample()
        published = tree.frozen()
        assert published.serialize() == tree.serialize()
        assert published.serialize(indent=2) == tree.serialize(indent=2)
        assert published.canonical_key() == tree.canonical_key()
        assert published.byte_size() == tree.byte_size()
        assert tree.deep_equal(published) and published.deep_equal(tree)
        assert parse(published.serialize()).deep_equal(published)
