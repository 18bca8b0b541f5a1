"""The frozen-tree contract: a published profile tree refuses every
write, ``copy()`` of it is private and mutable, and ``frozen()``
shares what is already frozen without touching its input. A published
tree carries its compact text once built, ``copy.copy`` and
``copy.deepcopy`` return it, pickling rebuilds it without that text,
and ``parse()`` returns one."""

import copy
import pickle

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


class TestCarriedText:
    def test_compact_text_is_built_once(self):
        published = build_sample().frozen()
        text = published.serialize()
        assert text == build_sample().serialize()
        assert published.serialize() is text
        assert published.byte_size() == len(text.encode("utf-8"))

    def test_pretty_form_never_reads_the_compact_text(self):
        published = build_sample().frozen()
        published.serialize()
        assert published.serialize(indent=2) == build_sample().serialize(
            indent=2
        )
        assert "\n" not in published.serialize()

    def test_spine_splices_its_frozen_children(self):
        book = build_sample().child("address-book").frozen()
        presence = FrozenPNode("presence", None, "away")
        spine = PNode(
            "user", {"id": "alice"}, None, [book, PNode("x"), presence]
        )
        text = spine.serialize()
        assert text == spine.copy().serialize()
        assert book.serialize() in text
        assert presence._wire == "<presence>away</presence>"
        # The spliced child keeps its text; its own children keep none.
        assert book._wire == book.copy().serialize()
        assert all(node._wire is None for node in book.walk()
                   if node is not book)

    def test_a_frozen_root_keeps_only_its_own_text(self):
        published = build_sample().frozen()
        published.serialize()
        assert all(node._wire is None for node in published.walk()
                   if node is not published)


class TestCopyModuleAndPickle:
    def test_copy_and_deepcopy_return_the_tree(self):
        published = build_sample().frozen()
        published.serialize()
        assert copy.copy(published) is published
        assert copy.deepcopy(published) is published
        holder = {"tree": published}
        assert copy.deepcopy(holder)["tree"] is published

    @pytest.mark.parametrize("carried", [False, True])
    def test_pickle_rebuilds_a_frozen_tree_without_its_text(self, carried):
        published = build_sample().frozen()
        if carried:
            published.serialize()
        loaded = pickle.loads(pickle.dumps(published))
        assert loaded is not published
        assert all(isinstance(node, FrozenPNode) for node in loaded.walk())
        assert all(node._wire is None for node in loaded.walk())
        assert loaded.deep_equal(published)
        assert loaded.serialize() == build_sample().serialize()
        with pytest.raises(ModelError):
            loaded.attrs["id"] = "mallory"


class TestParsedTreesArePublished:
    @pytest.mark.parametrize("text", [
        "<a/>",
        "<a>text</a>",
        "<a></a>",
        "<user id='alice'><book><item id='1' type='x'><name>B &amp; A"
        "</name><n x=\"1\"/></item></book><presence/></user>",
        "<a x='&lt;'><b y='1' y2=\"&amp;\">t</b><!-- c --><c/></a>",
    ])
    def test_every_node_is_frozen(self, text):
        tree = parse(text)
        for node in tree.walk():
            assert type(node) is FrozenPNode
            assert isinstance(node.children, tuple)
            assert node._wire is None
            with pytest.raises(ModelError):
                node.attrs["new"] = "x"
        assert tree.serialize() == tree.copy().serialize()
