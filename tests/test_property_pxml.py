"""Property-based tests (hypothesis) for the profile-XML data model:
serialization round-trips, containment laws, merge algebra."""

import string

from hypothesis import given, settings, strategies as st

from repro.pxml import (
    ConflictPolicy,
    GUP_KEYSPEC,
    PNode,
    Path,
    Predicate,
    Step,
    deep_union,
    evaluate,
    node_contains,
    parse,
    parse_path,
    step_contains,
    steps_compatible,
    subtree_covers,
    subtree_overlaps,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

tag_names = st.sampled_from(
    ["user", "item", "name", "number", "address-book", "presence",
     "status", "device", "note", "zone"]
)
attr_names = st.sampled_from(["id", "type", "carrier", "name", "game"])
# Text that exercises escaping but stays printable.
text_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'-.@",
    min_size=0, max_size=30,
)
attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"-.@",
    min_size=0, max_size=15,
)


def ancestry(root, target):
    """The chain from *root* down to *target*, found top-down."""
    stack = [(root, [root])]
    while stack:
        node, chain = stack.pop()
        if node is target:
            return chain
        stack.extend((child, chain + [child]) for child in node.children)
    raise AssertionError("%r is not in the tree" % (target,))


@st.composite
def pnode_trees(draw, depth=3):
    tag = draw(tag_names)
    attrs = draw(
        st.dictionaries(attr_names, attr_values, max_size=3)
    )
    if depth == 0 or draw(st.booleans()):
        text = draw(st.one_of(st.none(), text_values))
        return PNode(tag, attrs, text)
    children = draw(
        st.lists(pnode_trees(depth=depth - 1), max_size=4)
    )
    node = PNode(tag, attrs)
    for child in children:
        node.append(child)
    return node


@st.composite
def fragment_paths(draw):
    """Random paths inside the GUPster XPath fragment."""
    n_steps = draw(st.integers(1, 4))
    steps = []
    for _ in range(n_steps):
        wildcard = draw(st.booleans()) and draw(st.booleans())
        name = "*" if wildcard else draw(tag_names)
        predicates = tuple(
            Predicate(attr, value)
            for attr, value in draw(
                st.dictionaries(
                    attr_names,
                    st.text(alphabet=string.ascii_lowercase,
                            min_size=1, max_size=5),
                    max_size=2,
                )
            ).items()
        )
        steps.append(Step(name, predicates))
    attribute = draw(st.one_of(st.none(), attr_names))
    return Path(tuple(steps), attribute)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerializationProperties:
    @given(pnode_trees())
    @settings(max_examples=200)
    def test_parse_inverts_serialize(self, tree):
        assert parse(tree.serialize()).deep_equal(tree)

    @given(pnode_trees())
    def test_pretty_print_parses_the_same(self, tree):
        # Whitespace-only leaf text is the one thing pretty-printing
        # cannot round-trip; skip those rare draws.
        for node in tree.walk():
            if node.text is not None and not node.text.strip():
                return
        assert parse(tree.serialize(indent=2)).deep_equal(tree)

    @given(pnode_trees())
    def test_copy_is_deep_equal_and_independent(self, tree):
        dup = tree.copy()
        assert dup.deep_equal(tree)
        dup.attrs["mutation"] = "x"
        assert "mutation" not in tree.attrs

    @given(pnode_trees())
    def test_canonical_key_matches_deep_equal_on_identical(self, tree):
        assert tree.canonical_key() == tree.copy().canonical_key()

    @given(pnode_trees())
    def test_size_counts_walk(self, tree):
        assert tree.size() == len(list(tree.walk()))


# ---------------------------------------------------------------------------
# Path parsing
# ---------------------------------------------------------------------------

class TestPathProperties:
    @given(fragment_paths())
    @settings(max_examples=200)
    def test_str_round_trips(self, path):
        assert parse_path(str(path)) == path

    @given(fragment_paths())
    def test_hash_consistent_with_equality(self, path):
        again = parse_path(str(path))
        assert hash(again) == hash(path)


# ---------------------------------------------------------------------------
# Containment laws
# ---------------------------------------------------------------------------

class TestContainmentProperties:
    @given(fragment_paths())
    def test_reflexive(self, path):
        assert node_contains(path, path)
        if path.attribute is None:
            assert subtree_covers(path, path)
        assert subtree_overlaps(path, path)

    @given(fragment_paths(), fragment_paths())
    @settings(max_examples=300)
    def test_covers_implies_overlaps(self, a, b):
        if subtree_covers(a, b):
            assert subtree_overlaps(a, b)

    @given(fragment_paths(), fragment_paths())
    @settings(max_examples=300)
    def test_overlap_symmetric(self, a, b):
        assert subtree_overlaps(a, b) == subtree_overlaps(b, a)

    @given(fragment_paths(), fragment_paths(), fragment_paths())
    @settings(max_examples=200)
    def test_covers_transitive(self, a, b, c):
        if subtree_covers(a, b) and subtree_covers(b, c):
            assert subtree_covers(a, c)

    @given(fragment_paths(), fragment_paths())
    def test_node_containment_implies_coverage(self, a, b):
        if a.attribute is None and node_contains(a, b):
            assert subtree_covers(a, b)

    @given(pnode_trees(), fragment_paths())
    @settings(max_examples=300)
    def test_containment_sound_on_documents(self, tree, path):
        """Semantic check: if q covers p, every node selected by p in a
        real document lies inside a subtree selected by q."""
        inner_nodes = evaluate(tree, path.element_path())
        wider = Path(path.steps[:1], None)
        if subtree_covers(wider, path):
            outer_nodes = set(
                id(n) for n in evaluate(tree, wider)
            )
            for node in inner_nodes:
                assert any(
                    id(ancestor) in outer_nodes
                    for ancestor in ancestry(tree, node)
                )


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

class TestStepProperties:
    @given(fragment_paths(), fragment_paths())
    def test_step_contains_implies_compatible(self, a, b):
        for sa, sb in zip(a.steps, b.steps):
            if step_contains(sa, sb):
                assert steps_compatible(sa, sb)


# ---------------------------------------------------------------------------
# Merge algebra
# ---------------------------------------------------------------------------

@st.composite
def keyed_books(draw):
    """Address books whose items are keyed by id (GUP_KEYSPEC)."""
    book = PNode("address-book")
    ids = draw(
        st.lists(
            st.integers(0, 8), unique=True, max_size=5
        )
    )
    for item_id in ids:
        item = book.append(PNode("item", {"id": str(item_id)}))
        item.append(
            PNode("name", text=draw(
                st.text(alphabet=string.ascii_letters, min_size=1,
                        max_size=8)
            ))
        )
    return book


class TestMergeProperties:
    @given(keyed_books())
    def test_idempotent(self, book):
        merged = deep_union(book, book.copy(), GUP_KEYSPEC)
        assert merged.canonical_key() == book.canonical_key()

    @given(keyed_books(), keyed_books())
    @settings(max_examples=200)
    def test_union_of_ids(self, a, b):
        merged = deep_union(a, b, GUP_KEYSPEC)
        ids_a = {i.attrs["id"] for i in a.children}
        ids_b = {i.attrs["id"] for i in b.children}
        merged_ids = {i.attrs["id"] for i in merged.children}
        assert merged_ids == ids_a | ids_b
        # No duplicate keyed entries survive.
        assert len(merged.children) == len(merged_ids)

    @given(keyed_books(), keyed_books())
    @settings(max_examples=200)
    def test_commutative_up_to_order(self, a, b):
        ab = deep_union(a, b, GUP_KEYSPEC,
                        ConflictPolicy.PREFER_FIRST)
        ba = deep_union(b, a, GUP_KEYSPEC,
                        ConflictPolicy.PREFER_SECOND)
        assert ab.canonical_key() == ba.canonical_key()

    @given(keyed_books(), keyed_books(), keyed_books())
    @settings(max_examples=100)
    def test_associative_ids(self, a, b, c):
        left = deep_union(deep_union(a, b, GUP_KEYSPEC), c, GUP_KEYSPEC)
        right = deep_union(a, deep_union(b, c, GUP_KEYSPEC), GUP_KEYSPEC)
        assert {i.attrs["id"] for i in left.children} == {
            i.attrs["id"] for i in right.children
        }

    @given(keyed_books(), keyed_books())
    def test_inputs_unmodified(self, a, b):
        a_before = a.canonical_key()
        b_before = b.canonical_key()
        deep_union(a, b, GUP_KEYSPEC)
        assert a.canonical_key() == a_before
        assert b.canonical_key() == b_before
