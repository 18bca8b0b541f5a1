"""Unit tests for XPath-fragment evaluation and subtree extraction."""

from repro.pxml import (
    PNode,
    evaluate,
    evaluate_first,
    evaluate_values,
    exists,
    extract,
    parse,
)

DOC = """
<user id='arnaud'>
  <address-book>
    <item id='1' type='personal'><name>Bob</name></item>
    <item id='2' type='corporate'><name>Carol</name></item>
    <item id='3' type='personal'><name>Dave</name></item>
  </address-book>
  <presence><status>available</status></presence>
  <devices>
    <device id='d1' type='cell-phone' carrier='sprintpcs'/>
    <device id='d2' type='gsm-phone' carrier='vodafone'/>
  </devices>
</user>
"""


def doc():
    return parse(DOC)


class TestEvaluate:
    def test_root_step_matches_root(self):
        assert len(evaluate(doc(), "/user")) == 1

    def test_root_predicate(self):
        assert evaluate(doc(), "/user[@id='arnaud']")
        assert evaluate(doc(), "/user[@id='rick']") == []

    def test_child_selection(self):
        items = evaluate(doc(), "/user/address-book/item")
        assert len(items) == 3

    def test_predicate_filters(self):
        items = evaluate(
            doc(), "/user/address-book/item[@type='personal']"
        )
        assert [i.attrs["id"] for i in items] == ["1", "3"]

    def test_wildcard_step(self):
        nodes = evaluate(doc(), "/user/*")
        assert [n.tag for n in nodes] == [
            "address-book", "presence", "devices",
        ]

    def test_no_match_returns_empty(self):
        assert evaluate(doc(), "/user/calendar") == []
        assert evaluate(doc(), "/other") == []

    def test_evaluate_first(self):
        first = evaluate_first(doc(), "/user/address-book/item")
        assert first.attrs["id"] == "1"
        assert evaluate_first(doc(), "/user/nothing") is None


class TestEvaluateValues:
    def test_attribute_values(self):
        carriers = evaluate_values(doc(), "/user/devices/device/@carrier")
        assert carriers == ["sprintpcs", "vodafone"]

    def test_attribute_missing_skipped(self):
        root = parse("<user><device id='1'/><device/></user>")
        assert evaluate_values(root, "/user/device/@id") == ["1"]

    def test_element_path_returns_text(self):
        values = evaluate_values(doc(), "/user/presence/status")
        assert values == ["available"]

    def test_non_text_element_yields_empty_string(self):
        assert evaluate_values(doc(), "/user/presence") == [""]


class TestExists:
    def test_exists_element(self):
        assert exists(doc(), "/user/presence")
        assert not exists(doc(), "/user/wallet")

    def test_exists_attribute(self):
        assert exists(doc(), "/user/devices/device/@carrier")
        assert not exists(doc(), "/user/devices/device/@missing")


class TestExtract:
    def test_extract_preserves_spine_attributes(self):
        fragment = extract(doc(), "/user/presence")
        assert fragment.tag == "user"
        assert fragment.attrs["id"] == "arnaud"
        assert [c.tag for c in fragment.children] == ["presence"]

    def test_extract_subtree_is_complete(self):
        fragment = extract(doc(), "/user/address-book")
        book = fragment.child("address-book")
        assert len(book.children) == 3
        assert book.children[0].child("name").text == "Bob"

    def test_extract_filters_siblings(self):
        fragment = extract(
            doc(), "/user/address-book/item[@type='personal']"
        )
        book = fragment.child("address-book")
        assert [i.attrs["id"] for i in book.children] == ["1", "3"]

    def test_extract_no_match_returns_none(self):
        assert extract(doc(), "/user/calendar") is None

    def test_extract_is_a_copy(self):
        root = doc().copy()
        fragment = extract(root, "/user/presence")
        fragment.child("presence").child("status").text = "changed"
        assert (
            root.child("presence").child("status").text == "available"
        )

    def test_extract_root(self):
        fragment = extract(doc(), "/user")
        assert fragment.deep_equal(doc())
