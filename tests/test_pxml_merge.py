"""Unit tests for deep union and prioritized reconciliation (Figure 9)."""

import pytest

from repro.errors import MergeConflictError
from repro.pxml import (
    ConflictPolicy,
    KeySpec,
    deep_union,
    merge_all,
    parse,
    prioritized_merge,
)


def personal_book():
    return parse(
        "<user id='arnaud'>"
        "<address-book>"
        "<item id='1' type='personal'><name>Bob</name></item>"
        "</address-book>"
        "</user>"
    )


def corporate_book():
    return parse(
        "<user id='arnaud'>"
        "<address-book>"
        "<item id='2' type='corporate'><name>Carol</name></item>"
        "</address-book>"
        "</user>"
    )


class TestDeepUnion:
    def test_figure9_split_address_book(self):
        merged = deep_union(personal_book(), corporate_book())
        book = merged.child("address-book")
        assert sorted(i.attrs["id"] for i in book.children) == ["1", "2"]

    def test_identical_fragments_idempotent(self):
        merged = deep_union(personal_book(), personal_book())
        assert merged.deep_equal(personal_book())

    def test_keyed_items_merge_recursively(self):
        a = parse(
            "<user id='u'><address-book>"
            "<item id='1'><name>Bob</name></item>"
            "</address-book></user>"
        )
        b = parse(
            "<user id='u'><address-book>"
            "<item id='1'><number type='cell'>908-582-1111</number></item>"
            "</address-book></user>"
        )
        merged = deep_union(a, b)
        item = merged.child("address-book").children[0]
        assert item.child("name").text == "Bob"
        assert item.child("number").text == "908-582-1111"

    def test_root_tag_mismatch_raises(self):
        with pytest.raises(MergeConflictError):
            deep_union(parse("<a/>"), parse("<b/>"))

    def test_root_identity_mismatch_raises(self):
        with pytest.raises(MergeConflictError):
            deep_union(
                parse("<user id='a'/>"), parse("<user id='b'/>")
            )

    def test_text_conflict_prefer_first(self):
        a = parse("<user id='u'><presence><status>busy</status>"
                  "</presence></user>")
        b = parse("<user id='u'><presence><status>available</status>"
                  "</presence></user>")
        merged = deep_union(a, b, policy=ConflictPolicy.PREFER_FIRST)
        assert merged.child("presence").child("status").text == "busy"

    def test_text_conflict_prefer_second(self):
        a = parse("<user id='u'><presence><status>busy</status>"
                  "</presence></user>")
        b = parse("<user id='u'><presence><status>available</status>"
                  "</presence></user>")
        merged = deep_union(a, b, policy=ConflictPolicy.PREFER_SECOND)
        assert merged.child("presence").child("status").text == "available"

    def test_text_conflict_raise(self):
        a = parse("<user id='u'><presence><status>busy</status>"
                  "</presence></user>")
        b = parse("<user id='u'><presence><status>available</status>"
                  "</presence></user>")
        with pytest.raises(MergeConflictError):
            deep_union(a, b, policy=ConflictPolicy.RAISE)

    def test_attribute_conflict_policies(self):
        a = parse("<user id='u'><device id='d' carrier='sprint'/></user>")
        b = parse("<user id='u'><device id='d' carrier='att'/></user>")
        spec = KeySpec({"user": ("id",), "device": ("id",)})
        first = deep_union(a, b, keyspec=spec,
                           policy=ConflictPolicy.PREFER_FIRST)
        assert first.children[0].attrs["carrier"] == "sprint"
        second = deep_union(a, b, keyspec=spec,
                            policy=ConflictPolicy.PREFER_SECOND)
        assert second.children[0].attrs["carrier"] == "att"
        with pytest.raises(MergeConflictError):
            deep_union(a, b, keyspec=spec, policy=ConflictPolicy.RAISE)

    def test_unkeyed_duplicates_deduplicated(self):
        a = parse("<user id='u'><bookmarks>"
                  "<bookmark id='1'>x</bookmark></bookmarks></user>")
        merged = deep_union(a, a.copy())
        assert len(merged.child("bookmarks").children) == 1

    def test_result_is_fresh_tree(self):
        a, b = personal_book().copy(), corporate_book().copy()
        merged = deep_union(a, b)
        merged.child("address-book").children[0].attrs["id"] = "99"
        assert a.child("address-book").children[0].attrs["id"] == "1"


class TestMergeAll:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_all([])

    def test_single_fragment_copied(self):
        original = personal_book().copy()
        merged = merge_all([original])
        assert merged.deep_equal(original)
        assert merged is not original

    def test_three_way_merge(self):
        c = parse(
            "<user id='arnaud'><presence><status>available</status>"
            "</presence></user>"
        )
        merged = merge_all([personal_book(), corporate_book(), c])
        assert merged.child("presence") is not None
        assert len(merged.child("address-book").children) == 2


class TestPrioritizedMerge:
    def test_higher_priority_wins_conflicts(self):
        phone = parse("<user id='u'><presence><status>stale</status>"
                      "</presence></user>")
        network = parse("<user id='u'><presence><status>available</status>"
                        "</presence></user>")
        merged = prioritized_merge([(2, phone), (1, network)])
        assert merged.child("presence").child("status").text == "available"

    def test_lower_priority_entries_survive(self):
        merged = prioritized_merge(
            [(1, personal_book()), (2, corporate_book())]
        )
        assert len(merged.child("address-book").children) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prioritized_merge([])
