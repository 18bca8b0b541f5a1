"""Property-based tests tying path evaluation, extraction and
containment together over random documents."""

import string

from hypothesis import given, settings, strategies as st

from repro.pxml import (
    PNode,
    Path,
    Predicate,
    Step,
    evaluate,
    extract,
    node_contains,
    subtree_covers,
)

tags = ["user", "address-book", "item", "name", "presence"]
attrs = ["id", "type"]
values = ["a", "b", "c"]


@st.composite
def documents(draw):
    """Small random profile-ish documents rooted at <user>."""

    def build(depth):
        tag = draw(st.sampled_from(tags))
        node = PNode(
            tag,
            draw(
                st.dictionaries(
                    st.sampled_from(attrs),
                    st.sampled_from(values),
                    max_size=2,
                )
            ),
        )
        if depth > 0:
            for _child in range(draw(st.integers(0, 3))):
                node.append(build(depth - 1))
        return node

    root = PNode(
        "user",
        draw(
            st.dictionaries(
                st.sampled_from(attrs), st.sampled_from(values),
                max_size=1,
            )
        ),
    )
    for _ in range(draw(st.integers(0, 3))):
        root.append(build(2))
    return root


@st.composite
def doc_paths(draw):
    n_steps = draw(st.integers(1, 4))
    steps = [Step("user")]
    for _ in range(n_steps - 1):
        name = draw(st.sampled_from(tags + ["*"]))
        predicates = tuple(
            Predicate(attr, value)
            for attr, value in draw(
                st.dictionaries(
                    st.sampled_from(attrs), st.sampled_from(values),
                    max_size=1,
                )
            ).items()
        )
        steps.append(Step(name, predicates))
    return Path(tuple(steps))


def ancestry(root, target):
    """The chain from *root* down to *target*, found top-down."""
    stack = [(root, [root])]
    while stack:
        node, chain = stack.pop()
        if node is target:
            return chain
        stack.extend((child, chain + [child]) for child in node.children)
    raise AssertionError("%r is not in the tree" % (target,))


def pruned_extract(root, path):
    """``extract`` as it was when nodes linked to their parent: mark
    the selected nodes and their ancestors, then prune everything
    else. Ancestry comes from :func:`ancestry` instead of the link."""
    matches = evaluate(root, path.element_path())
    if not matches:
        return None
    keep = {id(node) for node in matches}
    spine = {
        id(ancestor)
        for node in matches
        for ancestor in ancestry(root, node)[:-1]
    }

    def prune(node):
        if id(node) in keep:
            return node.copy()
        if id(node) not in spine:
            return None
        pruned = PNode(node.tag, dict(node.attrs))
        for child in node.children:
            kept = prune(child)
            if kept is not None:
                pruned.append(kept)
        return pruned

    return prune(root)


class TestEvaluationProperties:
    @given(documents(), doc_paths())
    @settings(max_examples=300)
    def test_selected_nodes_match_every_step(self, doc, path):
        for node in evaluate(doc, path):
            chain = ancestry(doc, node)
            assert len(chain) == path.depth
            for step, element in zip(path.steps, chain):
                assert step.matches(element.tag, element.attrs)

    @given(documents(), doc_paths(), doc_paths())
    @settings(max_examples=300)
    def test_node_containment_semantics(self, doc, p, q):
        """If q node-contains p, q's result set includes p's."""
        if node_contains(q, p):
            p_nodes = {id(n) for n in evaluate(doc, p)}
            q_nodes = {id(n) for n in evaluate(doc, q)}
            assert p_nodes <= q_nodes

    @given(documents(), doc_paths())
    @settings(max_examples=300)
    def test_extract_preserves_selected_subtrees(self, doc, path):
        fragment = extract(doc, path)
        selected = evaluate(doc, path)
        if not selected:
            assert fragment is None
            return
        # Every selected subtree survives, intact, inside the fragment.
        extracted = evaluate(fragment, path)
        assert len(extracted) >= len(selected)
        extracted_keys = [n.canonical_key() for n in extracted]
        for node in selected:
            assert node.canonical_key() in extracted_keys

    @given(documents(), doc_paths())
    @settings(max_examples=200)
    def test_extract_is_no_larger_than_document(self, doc, path):
        fragment = extract(doc, path)
        if fragment is not None:
            assert fragment.byte_size() <= doc.byte_size()

    @given(documents(), doc_paths())
    @settings(max_examples=200)
    def test_coverage_semantics_on_documents(self, doc, path):
        """subtree_covers(prefix, path) means every node selected by
        path sits inside a subtree selected by the prefix."""
        if path.depth < 2:
            return
        prefix = path.prefix(path.depth - 1)
        if not subtree_covers(prefix, path):
            return
        prefix_roots = evaluate(doc, prefix)
        prefix_ids = {
            id(n) for root in prefix_roots for n in root.walk()
        }
        for node in evaluate(doc, path):
            assert id(node) in prefix_ids

    @given(documents(), doc_paths())
    @settings(max_examples=500)
    def test_extract_matches_the_pruning_oracle(self, doc, path):
        """Same nodes, same order, same spine as the prune-by-marks
        projection."""
        fragment = extract(doc, path)
        expected = pruned_extract(doc, path)
        if expected is None:
            assert fragment is None
        else:
            assert fragment.serialize() == expected.serialize()
