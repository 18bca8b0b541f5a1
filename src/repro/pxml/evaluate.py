"""Evaluation of the GUPster XPath fragment over profile documents.

``evaluate`` returns the selected element nodes; ``evaluate_values``
returns attribute strings when the path ends in ``/@attr``. The data
stores use these to answer referral'd requests, and the privacy shield
uses them to project permitted subtrees.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.pxml.node import PNode
from repro.pxml.path import Path, Step, parse_path

__all__ = [
    "evaluate",
    "evaluate_values",
    "evaluate_first",
    "extract",
    "exists",
]


def evaluate(root: PNode, path: Union[str, Path]) -> List[PNode]:
    """Select the element nodes of *root*'s document matched by *path*.

    The first step is matched against the document root itself (standard
    absolute-path semantics for a single-rooted document).
    """
    parsed = parse_path(path)
    first = parsed.steps[0]
    if not first.matches(root.tag, root.attrs):
        return []
    frontier = [root]
    for step in parsed.steps[1:]:
        frontier = [
            child
            for node in frontier
            for child in node.children
            if step.matches(child.tag, child.attrs)
        ]
        if not frontier:
            return []
    return frontier


def evaluate_values(root: PNode, path: Union[str, Path]) -> List[str]:
    """Evaluate a path ending in ``/@attr``; returns attribute values.

    For element paths this returns the text content of selected leaves
    (empty string for non-text elements), which is the natural "value of"
    reading used by reach-me rules.
    """
    parsed = parse_path(path)
    nodes = evaluate(root, parsed.element_path())
    if parsed.attribute is not None:
        return [
            node.attrs[parsed.attribute]
            for node in nodes
            if parsed.attribute in node.attrs
        ]
    return [node.text if node.text is not None else "" for node in nodes]


def evaluate_first(
    root: PNode, path: Union[str, Path]
) -> Optional[PNode]:
    """First matching element or None."""
    nodes = evaluate(root, path)
    return nodes[0] if nodes else None


def exists(root: PNode, path: Union[str, Path]) -> bool:
    """Does the path select anything in this document?"""
    parsed = parse_path(path)
    if parsed.attribute is not None:
        return bool(evaluate_values(root, parsed))
    return bool(evaluate(root, parsed))


def extract(root: PNode, path: Union[str, Path]) -> Optional[PNode]:
    """Project the subtree(s) selected by *path* out of *root*.

    Returns *root* pruned to only the ancestor chains and subtrees of
    matching nodes — i.e. the XML fragment a data store
    ships back for a component request. Returns None when nothing
    matches.

    The ancestor spine is preserved (with attributes) so the fragment is
    self-describing: a request for ``/user[@id='a']/address-book`` yields
    ``<user id='a'><address-book>...</address-book></user>``.

    The spine nodes are always new. A matched subtree is shared when
    it is frozen and copied when it is not, so extracting from a
    mutable tree never aliases it.
    """
    steps = parse_path(path).element_path().steps
    if not steps[0].matches(root.tag, root.attrs):
        return None
    return _project(root, steps, 1)


def _project(
    node: PNode, steps: Tuple[Step, ...], depth: int
) -> Optional[PNode]:
    """*node* matched ``steps[:depth]``: share it (:meth:`PNode.share`)
    when that is the whole path, else keep a bare spine node if some
    child survives."""
    if depth == len(steps):
        return node.share()
    step = steps[depth]
    spine: Optional[PNode] = None
    for child in node.children:
        if not step.matches(child.tag, child.attrs):
            continue
        kept = _project(child, steps, depth + 1)
        if kept is not None:
            if spine is None:
                spine = PNode(node.tag, dict(node.attrs))
            spine.append(kept)
    return spine
