"""Merge operators for profile components.

The paper needs merging in two places:

* **Split components** (Figure 9): Arnaud's address book lives partly at
  Yahoo! and partly at Lucent; a request for the whole book returns two
  fragments that must be combined ("a way to merge the two XML
  fragments", Section 4.5). Related work cites Deep Union [Buneman,
  Deutsch, Tan 1998] and Merge [Tufte & Maier 2001].
* **Reconciliation** (requirement 6): slightly inconsistent replicas
  (phone vs network address book) must be reconciled under an end-user
  policy, e.g. by prioritizing sites.

Element identity follows *Keys for XML* [Buneman et al., WWW10]: a
:class:`KeySpec` says which attributes identify an element among its
siblings. Keyed elements with equal keys merge recursively; unkeyed
elements are deduplicated by canonical form and otherwise concatenated.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MergeConflictError, ModelError
from repro.pxml.node import PNode

__all__ = [
    "ConflictPolicy",
    "KeySpec",
    "GUP_KEYSPEC",
    "deep_union",
    "merge_all",
    "prioritized_merge",
]


class ConflictPolicy(Enum):
    """What to do when two keyed elements disagree on a leaf value."""

    PREFER_FIRST = "prefer-first"
    PREFER_SECOND = "prefer-second"
    RAISE = "raise"
    KEEP_BOTH = "keep-both"


class KeySpec:
    """Maps element tags to the attribute tuple that identifies them.

    Example: ``KeySpec({'item': ('id',), 'device': ('id',)})`` makes two
    ``<item id='42'>`` elements the *same logical entry* wherever they
    come from. Tags without a key are treated as singletons when they
    appear at most once per parent (typical for profile containers like
    ``<address-book>``), and as set members deduplicated by value
    otherwise.
    """

    def __init__(self, keys: Optional[Dict[str, Tuple[str, ...]]] = None):
        self._keys: Dict[str, Tuple[str, ...]] = dict(keys or {})

    def key_attrs(self, tag: str) -> Optional[Tuple[str, ...]]:
        return self._keys.get(tag)

    def identity(self, node: PNode) -> Optional[tuple]:
        """Key tuple of *node*, or None if the tag is unkeyed or the node
        is missing a key attribute (then it can only dedup by value)."""
        attrs = self._keys.get(node.tag)
        if attrs is None:
            return None
        values = tuple(node.attrs.get(a) for a in attrs)
        if any(v is None for v in values):
            return None
        return (node.tag,) + values

    def extended(self, extra: Dict[str, Tuple[str, ...]]) -> "KeySpec":
        merged = dict(self._keys)
        merged.update(extra)
        return KeySpec(merged)


#: Keys for the standard GUP schema (see :mod:`repro.pxml.schema`).
GUP_KEYSPEC = KeySpec(
    {
        "user": ("id",),
        "item": ("id",),
        "entry": ("id",),
        "device": ("id",),
        "location": ("id",),
        "appointment": ("id",),
        "buddy": ("id",),
        "card": ("id",),
        "account": ("id",),
        "bookmark": ("id",),
        "service": ("name",),
        "preference": ("name",),
        "application": ("name",),
        "number": ("type",),
        "address": ("type",),
        "email": ("type",),
        "call-status": ("network",),
    }
)


def deep_union(
    first: PNode,
    second: PNode,
    keyspec: KeySpec = GUP_KEYSPEC,
    policy: ConflictPolicy = ConflictPolicy.PREFER_FIRST,
) -> PNode:
    """Merge two fragments of the same component into one tree.

    The roots must be mergeable (same tag, compatible identity), which is
    always the case for two referral fragments of one request.
    """
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
    return _merge_nodes(first, second, keyspec, policy)


def merge_all(
    fragments: Sequence[PNode],
    keyspec: KeySpec = GUP_KEYSPEC,
    policy: ConflictPolicy = ConflictPolicy.PREFER_FIRST,
) -> PNode:
    """Left fold of :func:`deep_union` over *fragments* (at least one)."""
    if not fragments:
        raise ModelError("merge_all needs at least one fragment")
    if len(fragments) == 1:
        return fragments[0].share()
    # ``_merge_nodes`` builds fresh nodes wherever the inputs meet and
    # never mutates its inputs, so the first fragment needs no
    # defensive copy. A subtree only one side has is shared
    # (:meth:`PNode.share`): taken as it is when frozen, else copied.
    merged = fragments[0]
    for fragment in fragments[1:]:
        merged = _merge_nodes(merged, fragment, keyspec, policy)
    return merged


def prioritized_merge(
    ranked_fragments: Sequence[Tuple[int, PNode]],
    keyspec: KeySpec = GUP_KEYSPEC,
) -> PNode:
    """Reconcile replicas by site priority (paper Section 5.3:
    "reconciliation can be handled by prioritizing sites").

    *ranked_fragments* is ``[(priority, tree), ...]``; lower numbers win
    conflicts. Entries present only in a lower-priority replica still
    survive (union semantics); only conflicting leaf values defer to the
    higher-priority site.
    """
    if not ranked_fragments:
        raise ModelError("prioritized_merge needs at least one fragment")
    ordered = sorted(ranked_fragments, key=lambda rf: rf[0])
    trees = [tree for _, tree in ordered]
    return merge_all(trees, keyspec, ConflictPolicy.PREFER_FIRST)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _merge_nodes(
    a: PNode, b: PNode, keyspec: KeySpec, policy: ConflictPolicy
) -> PNode:
    merged = PNode(a.tag)
    merged.attrs = _merge_attrs(a, b, policy)
    if a.text is not None or b.text is not None:
        merged.set_text(_merge_text(a, b, policy))
        if merged.text is None and (a.children or b.children):
            pass  # fall through to child merge (one side was element-y)
        else:
            return merged
    _merge_children(merged, a.children, b.children, keyspec, policy)
    return merged


def _merge_attrs(a: PNode, b: PNode, policy: ConflictPolicy) -> Dict[str, str]:
    merged = dict(b.attrs)
    for key, value in a.attrs.items():
        if key in merged and merged[key] != value:
            if policy is ConflictPolicy.RAISE:
                raise MergeConflictError(
                    "attribute conflict on <%s>/@%s: %r vs %r"
                    % (a.tag, key, value, merged[key])
                )
            if policy is ConflictPolicy.PREFER_SECOND:
                continue
        merged[key] = value
    if policy is ConflictPolicy.PREFER_SECOND:
        merged.update(b.attrs)
    return merged


def _merge_text(
    a: PNode, b: PNode, policy: ConflictPolicy
) -> Optional[str]:
    if a.text == b.text:
        return a.text
    if a.text is None:
        return b.text
    if b.text is None:
        return a.text
    if policy is ConflictPolicy.RAISE:
        raise MergeConflictError(
            "text conflict in <%s>: %r vs %r" % (a.tag, a.text, b.text)
        )
    if policy is ConflictPolicy.PREFER_SECOND:
        return b.text
    return a.text  # PREFER_FIRST and KEEP_BOTH (text cannot keep both)


def _merge_children(
    parent: PNode,
    left: Iterable[PNode],
    right: Iterable[PNode],
    keyspec: KeySpec,
    policy: ConflictPolicy,
) -> None:
    consumed = set()
    right = list(right)

    # Index right-side children by identity, and singleton tags by name.
    by_identity: Dict[tuple, int] = {}
    by_tag: Dict[str, List[int]] = {}
    unkeyed: Dict[str, List[int]] = {}
    for index, node in enumerate(right):
        identity = keyspec.identity(node)
        if identity is not None:
            by_identity.setdefault(identity, index)
        else:
            unkeyed.setdefault(node.tag, []).append(index)
        by_tag.setdefault(node.tag, []).append(index)
    # Value index, per tag, built the first time a left child of that
    # tag asks: nodes are equal by value only if their tags are, and a
    # keyed right child is never the twin of an unkeyed left one (the
    # same tag and attributes would key the left node too). So unkeyed
    # components from different stores (an address book beside a
    # calendar) are never canonicalized. First index wins.
    by_value: Dict[str, Dict[tuple, int]] = {}

    for node in left:
        identity = keyspec.identity(node)
        partner_index = None
        if identity is not None and identity in by_identity:
            candidate = by_identity[identity]
            if candidate not in consumed:
                partner_index = candidate
        elif identity is None:
            twins = by_value.get(node.tag)
            if twins is None:
                twins = by_value[node.tag] = {}
                for index in unkeyed.get(node.tag, ()):
                    twins.setdefault(right[index].canonical_key(), index)
            value_twin = twins.get(node.canonical_key()) if twins else None
            if value_twin is not None and value_twin not in consumed:
                partner_index = value_twin
            elif keyspec.key_attrs(node.tag) is None:
                # Unkeyed singleton container (e.g. <address-book>):
                # merge with the unique same-tag partner if both sides
                # have exactly one.
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
                _merge_nodes(node, right[partner_index], keyspec, policy)
            )
        else:
            parent.append(node.share())

    for index, node in enumerate(right):
        if index not in consumed:
            parent.append(node.share())
