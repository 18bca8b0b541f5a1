"""Counting the profile object model's work while requests are served.

``counting_patches`` wraps methods so that every call is recorded:
``PNode.serialize`` and ``FrozenPNode.serialize`` are separate methods
(a published tree overrides the compact form to return the text it
carries), so a count of serializations patches both. It also wraps the
compact writer, ``repro.pxml.node._compact``, which runs only when a
text has to be built, and records the nodes each run renders itself:
its *fresh* nodes. A node taken from a text a published tree carries is
not fresh, and neither is a frozen child of a mutable node, which the
writer renders (or takes from its text) in a run of its own.

``tests/test_serve_pxml_work.py`` and the E18 smoke's pxml work row
count with it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Tuple

from repro.pxml import FrozenPNode, PNode
from repro.pxml import node as node_module

#: The key fresh nodes are recorded under.
FRESH = "fresh_nodes"


def fresh_nodes(root: PNode) -> int:
    """Nodes the compact writer renders itself when it writes *root*."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, FrozenPNode) and node._wire is not None:
            continue
        count += 1
        frozen_parent = isinstance(node, FrozenPNode)
        stack.extend(
            child for child in node.children
            if frozen_parent or not isinstance(child, FrozenPNode)
        )
    return count


def counting_patches(
    methods: Iterable[Tuple[Any, str, str]],
    record: Callable[[str, int], None],
) -> List[Tuple[Any, str, Callable[..., Any]]]:
    """``(target, attribute, replacement)`` for each ``(owner, name,
    key)`` of *methods*, and for the compact writer: each call of a
    method records ``(key, 1)``, each run of the writer ``(FRESH, n)``
    for its *n* fresh nodes. The caller sets and restores them."""
    patches = []
    for owner, name, key in methods:
        def counting(*args, _original=getattr(owner, name), _key=key,
                     **kwargs):
            record(_key, 1)
            return _original(*args, **kwargs)

        patches.append((owner, name, counting))

    def compact(root, _original=node_module._compact):
        record(FRESH, fresh_nodes(root))
        return _original(root)

    patches.append((node_module, "_compact", compact))
    return patches
