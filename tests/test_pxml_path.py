"""Unit tests for the XPath fragment parser and Path objects."""

import pytest

from repro.errors import PathSyntaxError, UnsupportedPathError
from repro.pxml import Path, Predicate, Step, parse_path


class TestParsing:
    def test_simple_path(self):
        path = parse_path("/user/address-book")
        assert [s.name for s in path.steps] == ["user", "address-book"]
        assert path.attribute is None

    def test_predicate(self):
        path = parse_path("/user[@id='arnaud']/presence")
        assert path.steps[0].predicates[0] == Predicate("id", "arnaud")

    def test_multiple_predicates(self):
        path = parse_path("/a[@x='1'][@y='2']/b")
        assert len(path.steps[0].predicates) == 2

    def test_predicate_order_canonicalized(self):
        a = parse_path("/a[@x='1'][@y='2']")
        b = parse_path("/a[@y='2'][@x='1']")
        assert a == b
        assert hash(a) == hash(b)

    def test_double_quotes_in_predicate(self):
        path = parse_path('/a[@x="v"]')
        assert path.steps[0].predicates[0].value == "v"

    def test_wildcard_step(self):
        path = parse_path("/user/*/item")
        assert path.steps[1].is_wildcard

    def test_attribute_selector(self):
        path = parse_path("/user/device/@carrier")
        assert path.attribute == "carrier"
        assert path.depth == 2

    def test_path_accepts_path_instance(self):
        path = parse_path("/a/b")
        assert parse_path(path) is path

    def test_duplicate_identical_predicate_collapsed(self):
        path = parse_path("/a[@x='1'][@x='1']")
        assert len(path.steps[0].predicates) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "a/b",            # relative
            "/",              # empty
            "/a/",            # trailing slash
            "/a[@x]",         # predicate without value
            "/a[@x='1'",      # unterminated
            "/a/@x/b",        # attribute not last
            "/a[@x='1'][@x='2']",  # conflicting predicates
            "",
            "/º",             # non-ASCII: outside the PNode name grammar
            "/a[@é='1']",     # non-ASCII predicate attribute
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)

    @pytest.mark.parametrize(
        "unsupported",
        ["//user", "/a//b", "/a[1]", "/a[position()='1']"],
    )
    def test_fragment_boundaries_rejected(self, unsupported):
        with pytest.raises(UnsupportedPathError):
            parse_path(unsupported)


class TestPathOperations:
    def test_str_round_trips(self):
        text = "/user[@id='arnaud']/address-book/item[@type='personal']"
        assert str(parse_path(text)) == text
        assert parse_path(str(parse_path(text))) == parse_path(text)

    def test_element_path_strips_attribute(self):
        path = parse_path("/a/b/@c")
        assert path.element_path() == parse_path("/a/b")

    def test_prefix(self):
        path = parse_path("/a/b/c")
        assert path.prefix(2) == parse_path("/a/b")
        with pytest.raises(ValueError):
            path.prefix(0)
        with pytest.raises(ValueError):
            path.prefix(4)

    def test_child_extension(self):
        path = parse_path("/a/b").child(Step("c"))
        assert path == parse_path("/a/b/c")

    def test_child_after_attribute_rejected(self):
        with pytest.raises(ValueError):
            parse_path("/a/@x").child(Step("c"))

    def test_with_predicate_narrows(self):
        path = parse_path("/user/address-book/item")
        narrowed = path.with_predicate(2, Predicate("type", "personal"))
        assert narrowed == parse_path(
            "/user/address-book/item[@type='personal']"
        )

    def test_user_id(self):
        assert parse_path("/user[@id='alice']/presence").user_id() == "alice"
        assert parse_path("/user/presence").user_id() is None

    def test_step_matches(self):
        step = parse_path("/item[@type='personal']").steps[0]
        assert step.matches("item", {"type": "personal", "id": "1"})
        assert not step.matches("item", {"type": "corporate"})
        assert not step.matches("entry", {"type": "personal"})

    def test_wildcard_matches_any_tag(self):
        step = parse_path("/*[@x='1']").steps[0]
        assert step.matches("anything", {"x": "1"})
        assert not step.matches("anything", {})

    def test_equality_and_hash(self):
        a = parse_path("/a/b[@t='1']")
        b = parse_path("/a/b[@t='1']")
        c = parse_path("/a/b[@t='2']")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a path"

    def test_requires_one_step(self):
        with pytest.raises(PathSyntaxError):
            Path(())


def _rendered(path):
    """A path's text as rendered before it was kept on the path."""
    text = "/" + "/".join(
        step.name + "".join(
            "[@%s='%s']" % (p.attr, p.value) for p in step.predicates
        )
        for step in path.steps
    )
    if path.attribute is not None:
        text += "/@" + path.attribute
    return text


class TestPathText:
    @pytest.mark.parametrize("text", [
        "/user",
        "/user[@id='arnaud']/address-book/item[@type='personal']",
        "/a[@y='2'][@x='1']/b",
        "/user[@id='u1']/*/item",
        "/*",
        "/user[@id='u1']/address-book/item/@phone",
        "/*[@id='x']/*/@type",
    ])
    def test_str_is_stable_and_equals_the_rendering(self, text):
        path = parse_path(text)
        first = str(path)
        assert first == _rendered(path)
        assert str(path) is first
        assert repr(path) is first
        assert parse_path(first) == path

    def test_derived_paths_render_their_own_text(self):
        path = parse_path("/user[@id='u1']/address-book/item/@phone")
        str(path)
        assert str(path.element_path()) == (
            "/user[@id='u1']/address-book/item"
        )
        assert str(path.prefix(2)) == "/user[@id='u1']/address-book"
        assert str(path.prefix(1).child(Step("calendar"))) == (
            "/user[@id='u1']/calendar"
        )
        assert str(path.with_predicate(2, Predicate("type", "x"))) == (
            "/user[@id='u1']/address-book/item[@type='x']/@phone"
        )
