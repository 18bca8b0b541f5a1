"""Ordered-tree data model for GUP profile documents.

The paper (Section 4.4) assumes an XML data model for all profile
components. :class:`PNode` is a deliberately small ordered tree: an
element has a tag, string attributes, an optional text value, and child
elements. This is the common data model every adapter exports into and
every GUPster operation (coverage, merge, access control) works over.

Design notes
------------
* Text content and child elements are mutually exclusive (mixed content
  never occurs in profile data and excluding it keeps merge semantics
  clean).
* Trees are acyclic: a node holds its children and nothing points
  back up, so a discarded fragment is freed by reference counting
  alone and never waits for the cyclic collector. Ancestry is computed
  top-down — :meth:`PNode.walk_locations` yields every node with its
  location path, and ``extract`` projects by descending a path's steps.
* ``deep_equal`` ignores child *order* only when comparing keyed children
  via :func:`repro.pxml.merge.deep_union`; here equality is structural
  and ordered, which is the strictest (safe) default.
* A tree that is kept and served again (an export memo, a written
  component, a cache entry) is *published* as a :class:`FrozenPNode`:
  every write to it raises, so readers share it instead of copying it.
  :meth:`PNode.frozen` publishes a tree, sharing the subtrees that are
  already frozen; :meth:`PNode.share` is what a reader takes — the tree
  itself when it is frozen, a private deep copy when it is not. The
  parser builds its trees frozen, and a published tree carries its
  compact text once it has been rendered, so a tree served again is
  not rendered again.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ModelError

__all__ = [
    "FrozenPNode", "NAME_CHARS", "NAME_PATTERN", "PNode", "element",
    "frozen_node",
]

#: The data model's name grammar, for tags and attribute names: an ASCII
#: letter or ``_``, then letters, digits, ``_``, ``-`` and ``.``.
#: ``NAME_CHARS`` is the body of the character class after the first.
NAME_CHARS = r"A-Za-z0-9_.\-"
NAME_PATTERN = "[A-Za-z_][" + NAME_CHARS + "]*"
_NAME_FULLMATCH = re.compile(NAME_PATTERN).fullmatch


class PNode:
    """One element of a profile document tree."""

    __slots__ = ("tag", "attrs", "text", "children")

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
        children: Optional[Iterable["PNode"]] = None,
    ):
        if not tag or not _is_name(tag):
            raise ModelError("invalid element tag: %r" % (tag,))
        # Tags and attribute *names* are bounded vocabularies (the
        # schema's component/element names; ``id``/``type``/...):
        # interning them collapses a million-subscriber forest onto a
        # few dozen shared strings and makes tag comparisons
        # pointer-fast. Attribute values are unbounded (user ids) and
        # stay as-is.
        self.tag = _intern(tag)
        self.attrs: Dict[str, str] = (
            {_intern(key): value for key, value in attrs.items()}
            if attrs else {}
        )
        self.text: Optional[str] = text
        self.children: List[PNode] = []
        if children:
            for child in children:
                self.append(child)
        if self.text is not None and self.children:
            raise ModelError(
                "mixed content not supported: %r has both text and children"
                % (tag,)
            )

    # -- construction ------------------------------------------------------

    def append(self, child: "PNode") -> "PNode":
        """Attach *child* as the last child and return it."""
        if self.text is not None:
            raise ModelError(
                "cannot add children to text element %r" % (self.tag,)
            )
        self.children.append(child)
        return child

    def extend(self, children: Iterable["PNode"]) -> None:
        for child in children:
            self.append(child)

    def remove(self, child: "PNode") -> None:
        """Detach *child*; raises ValueError if it is not a child."""
        self.children.remove(child)

    def replace_children(self, children: Iterable["PNode"]) -> None:
        self.children = []
        self.extend(children)

    def set_text(self, text: Optional[str]) -> None:
        if text is not None and self.children:
            raise ModelError(
                "cannot set text on element %r with children" % (self.tag,)
            )
        self.text = text

    # -- navigation ---------------------------------------------------------

    def child(self, tag: str) -> Optional["PNode"]:
        """First child with the given tag, or None."""
        for node in self.children:
            if node.tag == tag:
                return node
        return None

    def children_named(self, tag: str) -> List["PNode"]:
        return [node for node in self.children if node.tag == tag]

    def get(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(attr, default)

    def walk(self) -> Iterator["PNode"]:
        """Pre-order traversal of the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_locations(self) -> Iterator[Tuple[str, "PNode"]]:
        """Pre-order ``(location, node)`` pairs of the subtree rooted
        here. A location is the absolute slash path of tags from this
        node down; each step carries the first of its ``id``, ``type``
        or ``name`` attributes as a predicate, so it re-selects the
        node in most profile documents."""
        stack = [("", self)]
        while stack:
            prefix, node = stack.pop()
            location = prefix + "/" + node.tag
            for key in ("id", "type", "name"):
                if key in node.attrs:
                    location += "[@%s='%s']" % (key, node.attrs[key])
                    break
            yield location, node
            stack.extend(
                (location, child) for child in reversed(node.children)
            )

    # -- measurement ---------------------------------------------------------

    def size(self) -> int:
        """Number of elements in this subtree."""
        return sum(1 for _ in self.walk())

    def byte_size(self) -> int:
        """Serialized size in bytes; used by the simulator for transport
        cost accounting."""
        return len(self.serialize().encode("utf-8"))

    def depth(self) -> int:
        """Height of this subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    # -- copying / equality ---------------------------------------------------

    def copy(self) -> "PNode":
        """Deep, mutable copy of this subtree: fresh nodes, ``attrs``
        dicts and ``children`` lists, also when this tree is frozen.

        The slots are filled directly instead of through ``__init__``:
        a tag is validated and interned once, when its node is built,
        and never reassigned, and a valid tree stays valid when cloned.
        Public construction keeps every :class:`ModelError` check."""
        dup = object.__new__(PNode)
        dup.tag = self.tag
        dup.attrs = dict(self.attrs)
        dup.text = self.text
        dup.children = [child.copy() for child in self.children]
        return dup

    def frozen(self) -> "FrozenPNode":
        """This subtree published: a frozen copy that shares every
        subtree that is already frozen. This tree is left as it is."""
        return frozen_node(
            self.tag,
            self.attrs,
            self.text,
            tuple([child.frozen() for child in self.children]),
        )

    def share(self) -> "PNode":
        """What a reader of this subtree takes: the subtree itself when
        it is frozen (see :class:`FrozenPNode`), else a private deep
        copy, so a caller that hands in a mutable tree keeps its own."""
        return self.copy()

    def deep_equal(self, other: "PNode") -> bool:
        """Structural, ordered equality of two subtrees."""
        if (
            self.tag != other.tag
            or self.attrs != other.attrs
            or self.text != other.text
            or len(self.children) != len(other.children)
        ):
            return False
        return all(
            a.deep_equal(b) for a, b in zip(self.children, other.children)
        )

    def canonical_key(self) -> tuple:
        """Hashable canonical form: children are sorted, so two subtrees
        that differ only in sibling order get the same key. Used for
        duplicate detection during deep union."""
        return (
            self.tag,
            tuple(sorted(self.attrs.items())),
            # Encode text as an always-comparable pair (None < "" < "x"
            # would break tuple sorting otherwise).
            (self.text is not None, self.text or ""),
            tuple(sorted(child.canonical_key() for child in self.children)),
        )

    # -- serialization ---------------------------------------------------------

    def serialize(self, indent: Optional[int] = None) -> str:
        """Render as XML text. With ``indent`` set, pretty-print.

        The compact form is written in one pass (see :func:`_compact`);
        a published subtree under this node is spliced as the text it
        carries (see :class:`FrozenPNode`)."""
        if indent is not None:
            return _pretty(self, indent)
        return _compact(self)

    def _serialize_into(
        self, parts: List[str], indent: Optional[int], level: int
    ) -> None:
        pad = " " * (indent * level) if indent is not None else ""
        attrs = "".join(
            ' %s="%s"' % (key, _escape_attr(value))
            for key, value in sorted(self.attrs.items())
        )
        if self.text is not None:
            parts.append(
                "%s<%s%s>%s</%s>"
                % (pad, self.tag, attrs, _escape_text(self.text), self.tag)
            )
        elif not self.children:
            parts.append("%s<%s%s/>" % (pad, self.tag, attrs))
        else:
            parts.append("%s<%s%s>" % (pad, self.tag, attrs))
            for child in self.children:
                child._serialize_into(parts, indent, level + 1)
            parts.append("%s</%s>" % (pad, self.tag))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        summary = self.text if self.text is not None else (
            "%d children" % len(self.children)
        )
        return "<%s %s %r (%s)>" % (
            type(self).__name__, self.tag, dict(self.attrs), summary
        )


class _ReadOnlyAttrs(dict):  # type: ignore[type-arg]
    """The attributes of a :class:`FrozenPNode`: a ``dict`` that
    refuses every write."""

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> Any:
        raise ModelError("a published profile tree is read-only")

    __setitem__ = _refuse
    __delitem__ = _refuse
    __ior__ = _refuse
    clear = _refuse
    pop = _refuse
    popitem = _refuse
    setdefault = _refuse
    update = _refuse


#: The attributes of every frozen node that has none.
_NO_ATTRS = _ReadOnlyAttrs()


class _Unpublished(PNode):
    """A :class:`FrozenPNode` while :func:`frozen_node` fills it: the
    same layout without the refusals, so its slots take plain
    assignments; it then becomes a :class:`FrozenPNode`."""

    __slots__ = ("_wire",)


def frozen_node(
    tag: str,
    attrs: Optional[Dict[str, str]],
    text: Optional[str],
    children: Tuple[PNode, ...],
) -> "FrozenPNode":
    """A :class:`FrozenPNode` built from parts that are already valid:
    *tag* a name of the data model's grammar, interned, the attribute
    names interned, *children* a tuple of frozen nodes, and not both
    *text* and *children*. *attrs* is copied. Every frozen node is
    built here — by its constructor, by :meth:`PNode.frozen` and by the
    parser, bottom-up — with its compact text not built yet."""
    node = object.__new__(_Unpublished)
    node.tag = tag
    node.attrs = _ReadOnlyAttrs(attrs) if attrs else _NO_ATTRS
    node.text = text
    node.children = children
    node._wire = None
    # The two classes share one layout, so this only makes the node
    # refuse every write from now on.
    node.__class__ = FrozenPNode
    return node


class FrozenPNode(PNode):
    """A published profile tree node: every write to it raises
    :class:`ModelError`.

    Its ``children`` is a tuple of frozen nodes and its ``attrs`` a
    ``dict`` that refuses writes, so a tree built of frozen nodes can be
    handed to any number of readers without a copy: none of them can
    change what another is served. :meth:`copy` still returns a private,
    mutable tree; :meth:`frozen` and :meth:`share` return the node
    itself, and so do ``copy.copy`` and ``copy.deepcopy``.

    A published tree is served again and again, so it carries its own
    compact text: the first compact :meth:`serialize` keeps it in
    ``_wire`` and every later one returns it. Pickling drops that text;
    the unpickled tree builds its own.
    """

    __slots__ = ("_wire",)

    def __new__(
        cls,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
        children: Optional[Iterable[PNode]] = None,
    ) -> "FrozenPNode":
        if not tag or not _is_name(tag):
            raise ModelError("invalid element tag: %r" % (tag,))
        frozen_children = (
            tuple([child.frozen() for child in children]) if children
            else ()
        )
        if text is not None and frozen_children:
            raise ModelError(
                "mixed content not supported: %r has both text and children"
                % (tag,)
            )
        return frozen_node(
            _intern(tag),
            {_intern(key): value for key, value in attrs.items()}
            if attrs else None,
            text,
            frozen_children,
        )

    def __init__(self, *args: object, **kwargs: object) -> None:
        """Built whole by :meth:`__new__`; there is nothing to set."""

    def _refuse(self, *args: object, **kwargs: object) -> Any:
        raise ModelError(
            "a published profile tree is read-only: <%s>" % (self.tag,)
        )

    __setattr__ = _refuse
    __delattr__ = _refuse
    append = _refuse
    extend = _refuse
    remove = _refuse
    replace_children = _refuse
    set_text = _refuse

    def frozen(self) -> "FrozenPNode":
        return self

    def share(self) -> "PNode":
        return self

    def serialize(self, indent: Optional[int] = None) -> str:
        if indent is not None:
            return _pretty(self, indent)
        return _wire_of(self)

    def __copy__(self) -> "FrozenPNode":
        return self

    def __deepcopy__(self, memo: Dict[int, object]) -> "FrozenPNode":
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        return (
            FrozenPNode, (self.tag, dict(self.attrs), self.text, self.children)
        )


_SET_WIRE = FrozenPNode._wire.__set__  # type: ignore[attr-defined]


def _wire_of(node: FrozenPNode) -> str:
    """*node*'s compact text: the text it carries, built and kept on
    first use."""
    wire = node._wire
    if wire is None:
        wire = _compact(node)
        _SET_WIRE(node, wire)
    return wire


def _pretty(root: PNode, indent: int) -> str:
    """The indented text of *root*'s subtree; it never reads or keeps
    a published tree's compact text."""
    parts: List[str] = []
    root._serialize_into(parts, indent, 0)
    return "\n".join(parts)


def _compact(root: PNode) -> str:
    """The compact text of *root*'s subtree, written in one pass over
    an explicit stack (a closing tag is pushed as a string): attributes
    are sorted only when a node has two or more, and a value is escaped
    only when it holds a character that needs it.

    A frozen node that carries its text is spliced whole. A frozen
    child of a mutable node (a published subtree under the spine that
    ``extract`` or ``merge`` builds) is rendered through
    :func:`_wire_of`, so it carries its text for the next response.
    Below a frozen node nothing new is kept: a tree keeps the text of
    the node a call started at and of its spine's frozen children,
    never one text per interior node."""
    parts: List[str] = []
    out = parts.append
    stack: List[Any] = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        cls = node.__class__
        if cls is str:
            out(node)
            continue
        if cls is FrozenPNode:
            wire = node._wire
            if wire is not None:
                out(wire)
                continue
        tag = node.tag
        head = "<" + tag
        attrs = node.attrs
        if attrs:
            for key, value in (
                sorted(attrs.items()) if len(attrs) > 1
                else attrs.items()
            ):
                if _NEEDS_ESCAPE(value):
                    value = _escape_attr(value)
                head += ' %s="%s"' % (key, value)
        text = node.text
        if text is not None:
            if _NEEDS_ESCAPE(text):
                text = _escape_text(text)
            out("%s>%s</%s>" % (head, text, tag))
        elif node.children:
            out(head + ">")
            push("</%s>" % tag)
            children = node.children
            if cls is FrozenPNode:
                stack.extend(reversed(children))
            else:
                for child in reversed(children):
                    push(
                        _wire_of(child) if child.__class__ is FrozenPNode
                        else child
                    )
        else:
            out(head + "/>")
    return "".join(parts)


def element(
    tag: str,
    attrs: Optional[Dict[str, str]] = None,
    text: Optional[str] = None,
    *children: PNode,
) -> PNode:
    """Convenience builder: ``element('user', {'id': 'alice'}, None, kid)``."""
    return PNode(tag, attrs, text, children or None)


def _is_name(name: str) -> bool:
    # ``fullmatch``, not ``match`` with ``$``: "$" also matches before
    # a trailing newline, and "a\n" is not a name.
    return _NAME_FULLMATCH(name) is not None


#: Finds a character that either escape below rewrites.
_NEEDS_ESCAPE = re.compile('[&<>"]').search


def _escape_text(value: str) -> str:
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")
