"""Unit tests for the XML parser, including round-trip guarantees."""

import pytest

from repro.errors import ParseError
from repro.pxml import PNode, parse
from repro.pxml.parse import MAX_DEPTH


class TestBasics:
    def test_empty_element(self):
        node = parse("<a/>")
        assert node.tag == "a"
        assert list(node.children) == []
        assert node.text is None

    def test_attributes_both_quote_styles(self):
        node = parse("<a x='1' y=\"2\"/>")
        assert node.attrs == {"x": "1", "y": "2"}

    def test_text_content(self):
        assert parse("<a>hello</a>").text == "hello"

    def test_nested(self):
        node = parse("<a><b><c/></b></a>")
        assert node.children[0].children[0].tag == "c"

    def test_whitespace_between_children_ignored(self):
        node = parse("<a>\n  <b/>\n  <c/>\n</a>")
        assert [c.tag for c in node.children] == ["b", "c"]
        assert node.text is None

    def test_entities_decoded(self):
        assert parse("<a>x &lt; y &amp; z</a>").text == "x < y & z"
        assert parse("<a v='&quot;q&quot;'/>").attrs["v"] == '"q"'

    def test_numeric_entities(self):
        assert parse("<a>&#65;&#x42;</a>").text == "AB"

    def test_xml_declaration_skipped(self):
        node = parse('<?xml version="1.0"?><a/>')
        assert node.tag == "a"

    def test_comments_skipped(self):
        node = parse("<!-- hi --><a><!-- in --><b/></a><!-- out -->")
        assert node.children[0].tag == "b"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "<a>",
            "<a></b>",
            "<a x=1/>",
            "<a x='1' x='2'/>",
            "<a/><b/>",
            "<a>&unknown;</a>",
            "<a><b></a></b>",
            "<a>text<b/></a>",
            "<a x='unterminated/>",
            "<1tag/>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    @pytest.mark.parametrize("bad", ["<º", "<élément/>", "<a º='1'/>"])
    def test_non_ascii_names_raise_parse_error(self, bad):
        # Regression: the lexer used str.isalpha(), which admits Unicode
        # alphabetics (e.g. U+00BA) that the PNode name grammar rejects —
        # parse('<º') escaped as a bare ValueError from the PNode
        # constructor instead of a ParseError.
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        try:
            parse("<a><b></a>")
        except ParseError as err:
            assert err.position >= 0
        else:  # pragma: no cover
            pytest.fail("expected ParseError")


class TestLimits:
    @pytest.mark.parametrize("text, reference, position", [
        ("<a>&#-1;</a>", "&#-1;", 8),
        ("<a>&#x-1;</a>", "&#x-1;", 9),
        ("<a v='&#-1;'/>", "&#-1;", 11),
    ])
    def test_negative_character_reference(self, text, reference, position):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == (
            "bad character reference %s (at position %d)"
            % (reference, position)
        )
        assert caught.value.position == position

    def test_every_surrogate_reference_is_refused(self):
        for code in range(0xD800, 0xE000):
            for reference in ("&#x%X;" % code, "&#x%x;" % code, "&#%d;" % code):
                for text in ("<a>%s</a>" % reference, "<a v='%s'/>" % reference):
                    position = text.index(reference) + len(reference)
                    with pytest.raises(ParseError) as caught:
                        parse(text)
                    assert str(caught.value) == (
                        "bad character reference %s (at position %d)"
                        % (reference, position)
                    )
                    assert caught.value.position == position

    def test_the_neighbours_of_the_surrogates_parse_and_encode(self):
        node = parse("<a v='&#xD7FF;'>&#xE000;&#55295;</a>")
        assert node.text == "\ue000\ud7ff"
        assert node.attrs["v"] == "\ud7ff"
        assert node.byte_size() == len(node.serialize().encode("utf-8"))

    def test_nesting_to_the_limit_parses(self):
        text = "<a>" * MAX_DEPTH + "x" + "</a>" * MAX_DEPTH
        node = parse(text)
        assert node.depth() == MAX_DEPTH
        assert node.copy().serialize() == text

    def test_nesting_past_the_limit_fails_at_the_tag(self):
        text = "<a>" * (MAX_DEPTH + 1) + "</a>" * (MAX_DEPTH + 1)
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert caught.value.position == 3 * MAX_DEPTH
        assert str(caught.value) == (
            "element nesting deeper than %d levels (at position %d)"
            % (MAX_DEPTH, 3 * MAX_DEPTH)
        )

    def test_an_empty_element_past_the_limit_fails_too(self):
        text = "<a>" * MAX_DEPTH + "<b/>" + "</a>" * MAX_DEPTH
        with pytest.raises(ParseError):
            parse(text)

    def test_nesting_far_past_the_recursion_limit_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("<a>" * 5_000 + "</a>" * 5_000)


class TestRoundTrip:
    def test_simple_round_trip(self):
        original = PNode(
            "user",
            {"id": "alice"},
            children=[
                PNode("presence", children=[PNode("status", text="busy")]),
                PNode("number", {"type": "cell"}, "908-582-1111"),
            ],
        )
        assert parse(original.serialize()).deep_equal(original)

    def test_pretty_round_trip(self):
        original = PNode(
            "a", children=[PNode("b", {"k": "v"}, "text"), PNode("c")]
        )
        assert parse(original.serialize(indent=2)).deep_equal(original)

    def test_special_characters_round_trip(self):
        original = PNode("a", {"attr": "<&\"'>"}, "body <&> text")
        assert parse(original.serialize()).deep_equal(original)
