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


# ---------------------------------------------------------------------------
# Merge against a frozen copy of the original value-index merge
# ---------------------------------------------------------------------------
#
# ``_oracle_*`` below is the merge as it stood before the value index
# became lazy and per-tag: every right-hand child keyed by its
# canonical form up front, and ``merge_all`` copying its first
# fragment. Any later change to ``repro.pxml.merge`` must produce the
# same serialized tree, or raise the same ``MergeConflictError``,
# under every conflict policy.

from repro.errors import MergeConflictError, ReproError  # noqa: E402
from repro.pxml import merge_all  # noqa: E402
from repro.pxml.merge import _merge_attrs, _merge_text  # noqa: E402


def _oracle_merge_nodes(a, b, keyspec, policy):
    merged = PNode(a.tag)
    merged.attrs = _merge_attrs(a, b, policy)
    if a.text is not None or b.text is not None:
        merged.set_text(_merge_text(a, b, policy))
        if merged.text is None and (a.children or b.children):
            pass
        else:
            return merged
    _oracle_merge_children(merged, a.children, b.children, keyspec, policy)
    return merged


def _oracle_merge_children(parent, left, right, keyspec, policy):
    consumed = set()
    right = list(right)
    by_identity = {}
    by_tag = {}
    by_value = {}
    for index, node in enumerate(right):
        identity = keyspec.identity(node)
        if identity is not None:
            by_identity.setdefault(identity, index)
        by_tag.setdefault(node.tag, []).append(index)
        by_value.setdefault(node.canonical_key(), index)
    for node in left:
        identity = keyspec.identity(node)
        partner_index = None
        if identity is not None and identity in by_identity:
            candidate = by_identity[identity]
            if candidate not in consumed:
                partner_index = candidate
        elif identity is None:
            value_twin = by_value.get(node.canonical_key())
            if value_twin is not None and value_twin not in consumed:
                partner_index = value_twin
            elif keyspec.key_attrs(node.tag) is None:
                indexes = [
                    i for i in by_tag.get(node.tag, ()) if i not in consumed
                ]
                left_twins = sum(
                    1 for sibling in parent.children
                    if sibling.tag == node.tag
                )
                if len(indexes) == 1 and left_twins == 0:
                    partner_index = indexes[0]
        if partner_index is not None:
            consumed.add(partner_index)
            parent.append(
                _oracle_merge_nodes(
                    node, right[partner_index], keyspec, policy
                )
            )
        else:
            parent.append(node.copy())
    for index, node in enumerate(right):
        if index not in consumed:
            parent.append(node.copy())


def _oracle_merge_all(fragments, keyspec, policy):
    merged = fragments[0].copy()
    for fragment in fragments[1:]:
        merged = _oracle_merge_nodes(merged, fragment, keyspec, policy)
    return merged


def _oracle_deep_union(first, second, keyspec, policy):
    if first.tag != second.tag:
        raise MergeConflictError(
            "cannot merge %r with %r" % (first.tag, second.tag)
        )
    id_a = keyspec.identity(first)
    id_b = keyspec.identity(second)
    if id_a is not None and id_b is not None and id_a != id_b:
        raise MergeConflictError(
            "root identities differ: %r vs %r" % (id_a, id_b)
        )
    return _oracle_merge_nodes(first, second, keyspec, policy)


def _outcome(merge, *args):
    """A merge's serialized result, or the error it raised."""
    try:
        return ("ok", merge(*args).serialize())
    except ReproError as err:
        return ("error", type(err).__name__, str(err))


# Keyed in GUP_KEYSPEC: item (id), number (type), service (name);
# unkeyed: note, zone, address-book. An ``item`` without ``id`` is
# key-less-keyed: it can only merge by value.
merge_tags = st.sampled_from(
    ["item", "number", "service", "note", "zone", "address-book"]
)
# Few values, so keys and values collide; non-ASCII and ``&<>"``
# exercise escaping and the UTF-8 byte count.
merge_attr_values = st.sampled_from(["1", "2", "x&<>\"y", "été"])
merge_text_values = st.sampled_from(
    ["", "a", "b", "日本", "&<>\"'", "\U0001f600 x"]
)


@st.composite
def merge_trees(draw, depth=2):
    tag = draw(merge_tags)
    attrs = draw(st.dictionaries(
        st.sampled_from(["id", "type", "name"]), merge_attr_values,
        max_size=2,
    ))
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return PNode(tag, attrs, draw(st.one_of(st.none(), merge_text_values)))
    node = PNode(tag, attrs)
    children = draw(st.lists(merge_trees(depth=depth - 1), max_size=3))
    # Duplicate same-tag siblings: exact twins of drawn children.
    twins = draw(st.lists(st.sampled_from(children), max_size=2)) \
        if children else []
    node.extend(children + [twin.copy() for twin in twins])
    return node


def _reordered(node):
    """A value twin of *node* whose children are in reverse order."""
    dup = PNode(node.tag, dict(node.attrs), node.text)
    dup.extend(_reordered(child) for child in reversed(node.children))
    return dup


@st.composite
def merge_fragments(draw):
    """One to three ``user`` fragments; later ones borrow value twins
    (children reordered) of earlier ones' children."""
    fragments = []
    for _ in range(draw(st.integers(1, 3))):
        root = PNode("user", {"id": draw(st.sampled_from(["u1", "u1", "u2"]))})
        children = draw(st.lists(merge_trees(), max_size=4))
        for earlier in fragments:
            if earlier.children:
                borrowed = draw(st.lists(
                    st.sampled_from(earlier.children), max_size=3
                ))
                children.extend(_reordered(node) for node in borrowed)
        root.extend(draw(st.permutations(children)))
        fragments.append(root)
    return fragments


def _shared(result, inputs):
    """Nodes or ``attrs`` dicts of *result* that belong to an input."""
    nodes = {id(n) for tree in inputs for n in tree.walk()}
    dicts = {id(n.attrs) for tree in inputs for n in tree.walk()}
    return [
        n for n in result.walk()
        if id(n) in nodes or id(n.attrs) in dicts
    ]


policies = st.sampled_from(list(ConflictPolicy))


class TestMergeMatchesTheOriginal:
    @given(merge_fragments(), policies)
    @settings(max_examples=200)
    def test_merge_all(self, fragments, policy):
        assert _outcome(merge_all, fragments, GUP_KEYSPEC, policy) == (
            _outcome(_oracle_merge_all, fragments, GUP_KEYSPEC, policy)
        )

    @given(merge_fragments(), policies)
    @settings(max_examples=200)
    def test_deep_union(self, fragments, policy):
        first, second = fragments[0], fragments[-1]
        assert _outcome(deep_union, first, second, GUP_KEYSPEC, policy) == (
            _outcome(_oracle_deep_union, first, second, GUP_KEYSPEC, policy)
        )

    @given(merge_fragments(), policies)
    def test_inputs_untouched_and_unshared(self, fragments, policy):
        before = [f.serialize() for f in fragments]
        try:
            merged = merge_all(fragments, GUP_KEYSPEC, policy)
        except MergeConflictError:
            merged = None
        assert [f.serialize() for f in fragments] == before
        if merged is not None:
            assert _shared(merged, fragments) == []


class TestCopyAndSize:
    @given(st.one_of(merge_trees(), pnode_trees()))
    def test_copy_is_equal_unshared_and_keeps_interned_tags(self, tree):
        before = tree.serialize()
        dup = tree.copy()
        assert dup.deep_equal(tree)
        assert _shared(dup, [tree]) == []
        assert all(
            a.tag is b.tag for a, b in zip(dup.walk(), tree.walk())
        )
        for node in list(dup.walk()):
            node.attrs["mutated"] = "1"
            if node.text is not None:
                node.set_text(node.text + "!")
            else:
                node.append(PNode("extra"))
        assert tree.serialize() == before

    @given(st.one_of(merge_trees(), pnode_trees()))
    @settings(max_examples=200)
    def test_byte_size_is_the_utf8_length_of_serialize(self, tree):
        assert tree.byte_size() == len(tree.serialize().encode("utf-8"))
