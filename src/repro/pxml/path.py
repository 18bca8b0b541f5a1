"""The XPath fragment used by GUPster coverage and the privacy shield.

The paper (Section 4.5) restricts coverage expressions to "a subset of
XPath with child- and attribute-axis only and limited predicates, in
order to have a canonical way to navigate the tree". This module
implements exactly that fragment:

* absolute location paths: ``/user/address-book/item``
* name tests or the ``*`` wildcard at each step
* zero or more attribute-equality predicates per step:
  ``/user[@id='arnaud']/address-book/item[@type='personal']``
* an optional trailing attribute selector: ``.../item/@phone``

Descendant axis (``//``), functions, positional predicates, and every
other XPath feature are *deliberately* rejected with
:class:`repro.errors.UnsupportedPathError` — containment (see
:mod:`repro.pxml.containment`) is efficiently decidable for this
fragment, which is what makes coverage lookup fast (experiment E10).

Path objects are immutable and hashable so they can key coverage maps.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Dict, Iterator, NoReturn, Optional, Tuple, Union

from repro.errors import ModelError, PathSyntaxError, UnsupportedPathError
from repro.pxml.node import NAME_PATTERN

__all__ = ["Predicate", "Step", "Path", "parse_path"]

WILDCARD = "*"

_NAME_MATCH = re.compile(NAME_PATTERN).match


class Predicate:
    """An attribute-equality predicate ``[@attr='value']``."""

    __slots__ = ("attr", "value")

    def __init__(self, attr: str, value: str) -> None:
        self.attr = attr
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and self.attr == other.attr
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.attr, self.value))

    def __repr__(self) -> str:
        return "[@%s='%s']" % (self.attr, self.value)


class Step:
    """One child-axis step: a name test plus predicates."""

    __slots__ = ("name", "predicates")

    def __init__(self, name: str, predicates: Tuple[Predicate, ...] = ()) -> None:
        self.name = name
        # Canonical order: sorted by attribute so equal steps compare equal
        # regardless of how the user wrote the predicates.
        self.predicates = tuple(
            sorted(predicates, key=lambda p: (p.attr, p.value))
        )

    @property
    def is_wildcard(self) -> bool:
        return self.name == WILDCARD

    def predicate_map(self) -> dict:
        """``{attr: value}`` for this step's predicates.

        A step with two conflicting predicates on the same attribute
        (``a[@t='x'][@t='y']``) selects nothing; the parser rejects that
        case so the map is always faithful.
        """
        return {p.attr: p.value for p in self.predicates}

    def matches(self, tag: str, attrs: dict) -> bool:
        """Does this step select an element with the given tag/attrs?"""
        if not self.is_wildcard and self.name != tag:
            return False
        return all(
            attrs.get(p.attr) == p.value for p in self.predicates
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Step)
            and self.name == other.name
            and self.predicates == other.predicates
        )

    def __hash__(self) -> int:
        return hash((self.name, self.predicates))

    def __repr__(self) -> str:
        return self.name + "".join(repr(p) for p in self.predicates)


class Path:
    """An absolute location path in the GUPster fragment."""

    __slots__ = ("steps", "attribute", "_hash", "_text")

    def __init__(
        self, steps: Tuple[Step, ...], attribute: Optional[str] = None
    ) -> None:
        if not steps:
            raise PathSyntaxError("a path needs at least one step")
        self.steps = tuple(steps)
        self.attribute = attribute
        self._hash = hash((self.steps, self.attribute))
        #: The rendered path, built on first use (a path is immutable).
        self._text: Optional[str] = None

    # -- derived forms ----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.steps)

    def element_path(self) -> "Path":
        """This path without its trailing attribute selector."""
        if self.attribute is None:
            return self
        return Path(self.steps, None)

    def prefix(self, length: int) -> "Path":
        """The first *length* steps as a path (no attribute selector)."""
        if not 1 <= length <= len(self.steps):
            raise ModelError("prefix length out of range")
        return Path(self.steps[:length], None)

    def child(self, step: Step) -> "Path":
        """Extend by one step."""
        if self.attribute is not None:
            raise ModelError("cannot extend past an attribute selector")
        return Path(self.steps + (step,), None)

    def with_predicate(
        self, step_index: int, predicate: Predicate
    ) -> "Path":
        """A copy with *predicate* added to the step at *step_index*.

        Used by the privacy shield to narrow a request to the permitted
        slice (query rewriting, Section 5.3)."""
        steps = list(self.steps)
        target = steps[step_index]
        steps[step_index] = Step(
            target.name, target.predicates + (predicate,)
        )
        return Path(tuple(steps), self.attribute)

    def user_id(self) -> Optional[str]:
        """The ``[@id=...]`` value of the first step, if present.

        GUPster coverage is per-user; by convention the first step of a
        profile path carries the user identity."""
        return self.steps[0].predicate_map().get("id")

    def iter_steps(self) -> Iterator[Step]:
        return iter(self.steps)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and self.steps == other.steps
            and self.attribute == other.attribute
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        text = self._text
        if text is None:
            text = "/" + "/".join(repr(step) for step in self.steps)
            if self.attribute is not None:
                text += "/@" + self.attribute
            self._text = text
        return text

    __str__ = __repr__


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: Successful parses memoized by their raw text. :class:`Path` is
#: immutable (tuple of steps + attribute + precomputed hash; every
#: "mutator" returns a fresh object), so handing the same instance to
#: every caller is safe. The cache follows the ``re`` module's bounded
#: strategy — cleared wholesale when full — which keeps behaviour
#: deterministic and memory flat even when a million distinct
#: subscriber paths stream through (E19); Zipf-skewed workloads
#: repopulate the hot heads within a handful of queries.
_PARSE_CACHE: Dict[str, Path] = {}
_PARSE_CACHE_MAX = 4096


def parse_path(text: Union[str, "Path"]) -> Path:
    """Parse *text* into a :class:`Path`.

    Accepts a :class:`Path` unchanged, so APIs can take either form.
    Successful string parses are memoized (paths are immutable); parse
    *errors* are recomputed each time, so the exception surface is
    unchanged. Non-string, non-Path input still raises
    :class:`~repro.errors.PathSyntaxError` from the parser, exactly as
    before the cache existed.
    """
    if isinstance(text, Path):
        return text
    if isinstance(text, str):
        cached = _PARSE_CACHE.get(text)
        if cached is not None:
            return cached
        parsed = _PathParser(text).parse()
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[text] = parsed
        return parsed
    # Preserve totality for junk input (the fuzz tests feed bytes,
    # ints, None...): the parser's constructor raises PathSyntaxError.
    return _PathParser(text).parse()


class _PathParser:
    def __init__(self, text: str) -> None:
        if not isinstance(text, str):
            raise PathSyntaxError("path must be a string, got %r" % (text,))
        self.text = text.strip()
        self.pos = 0

    def parse(self) -> Path:
        if not self.text.startswith("/"):
            raise PathSyntaxError(
                "only absolute paths are supported: %r" % self.text
            )
        if self.text.startswith("//"):
            raise UnsupportedPathError(
                "descendant axis '//' is outside the GUPster fragment"
            )
        steps = []
        attribute = None
        while self.pos < len(self.text):
            if not self._consume("/"):
                self._fail("expected '/'")
            if self._peek() == "/":
                raise UnsupportedPathError(
                    "descendant axis '//' is outside the GUPster fragment"
                )
            if self._peek() == "@":
                self.pos += 1
                attribute = self._name("attribute name")
                if self.pos != len(self.text):
                    self._fail("attribute selector must be last")
                break
            steps.append(self._step())
        if not steps:
            raise PathSyntaxError("empty path: %r" % self.text)
        return Path(tuple(steps), attribute)

    def _step(self) -> Step:
        if self._peek() == "*":
            self.pos += 1
            name = WILDCARD
        else:
            name = self._name("step name")
        predicates = []
        seen = {}
        while self._peek() == "[":
            predicate = self._predicate()
            if predicate.attr in seen:
                if seen[predicate.attr] != predicate.value:
                    raise PathSyntaxError(
                        "conflicting predicates on @%s" % predicate.attr
                    )
                continue  # duplicate predicate, keep one
            seen[predicate.attr] = predicate.value
            predicates.append(predicate)
        return Step(name, tuple(predicates))

    def _predicate(self) -> Predicate:
        assert self._consume("[")
        self._skip_space()
        if self._peek() != "@":
            got = self._peek()
            if got is not None and (got.isdigit() or got == "p"):
                raise UnsupportedPathError(
                    "only attribute-equality predicates are supported"
                )
            self._fail("expected '@' in predicate")
        self.pos += 1
        attr = self._name("predicate attribute")
        self._skip_space()
        if not self._consume("="):
            self._fail("expected '=' in predicate")
        self._skip_space()
        value = self._quoted()
        self._skip_space()
        if not self._consume("]"):
            self._fail("expected ']' closing predicate")
        return Predicate(attr, value)

    def _name(self, what: str) -> str:
        # Same ASCII name grammar as the document model (see
        # repro.pxml.node.NAME_PATTERN): a path must never name an
        # element that no well-formed document can contain.
        match = _NAME_MATCH(self.text, self.pos)
        if match is None:
            self._fail("expected %s" % what)
        self.pos = match.end()
        # Names come from bounded vocabularies (component tags,
        # attribute names like ``id``/``type``): interning makes the
        # hot ``Step.matches`` / hash comparisons pointer-fast.
        # Predicate *values* (user ids — unbounded) are never interned;
        # see :meth:`_quoted`.
        return _intern(match.group())

    def _quoted(self) -> str:
        quote = self._peek()
        if quote not in ("'", '"'):
            self._fail("expected quoted value in predicate")
        self.pos += 1
        end = self.text.find(quote, self.pos)
        if end < 0:
            self._fail("unterminated quoted value")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return value

    def _peek(self) -> Optional[str]:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _consume(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def _skip_space(self) -> None:
        while self._peek() == " ":
            self.pos += 1

    def _fail(self, message: str) -> NoReturn:
        raise PathSyntaxError(
            "%s at position %d in %r" % (message, self.pos, self.text)
        )
