from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from bibrank.errors import UnknownGroupError
from bibrank.model import (
    ALL_FIELDS,
    AuthorRef,
    Corpus,
    DocType,
    EMPTY_SCHEME,
    SubjectScheme,
    UNRESOLVED,
    countries_of,
    is_country_code,
    normalize_country,
)

from conftest import rec


class TestNormalizeCountry:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("UK", "GB"),
            ("USA", "US"),
            ("United States", "US"),
            ("South Korea", "KR"),
            ("  china  ", "CN"),
            ("Russian Federation", "RU"),
            ("de", "DE"),
            ("IN", "IN"),
        ],
    )
    def test_aliases_and_codes(self, raw, expected):
        assert normalize_country(raw) == expected

    def test_unknown_passes_through_uppercased(self):
        assert normalize_country("Atlantis") == "ATLANTIS"

    def test_whitespace_collapsed(self):
        assert normalize_country("south   korea") == "KR"

    def test_is_country_code(self):
        assert is_country_code("US")
        assert is_country_code("ZZ")
        assert not is_country_code("USA")
        assert not is_country_code("u5")


class TestAuthorRef:
    def test_from_raw_normalizes(self):
        a = AuthorRef.from_raw(["UK", "usa"])
        assert a.countries == frozenset({"GB", "US"})
        assert not a.unresolved

    def test_from_raw_drops_unresolved_marker(self):
        assert AuthorRef.from_raw(["ZZ"]).countries == frozenset()
        assert AuthorRef.from_raw(["", "  "]).unresolved

    def test_from_raw_dedupes(self):
        a = AuthorRef.from_raw(["UK", "GB", "United Kingdom"])
        assert a.countries == frozenset({"GB"})


class TestRecord:
    def test_countries_of_unions_authors(self):
        r = rec("p", ["US", "GB"], ["FR"], [])
        assert countries_of(r) == frozenset({"US", "GB", "FR"})

    def test_countries_of_never_contains_zz(self):
        r = rec("p", [], [])
        assert countries_of(r) == frozenset()
        assert UNRESOLVED not in countries_of(rec("q", ["US"], []))

    def test_doc_type_wire_values(self):
        assert DocType("article") is DocType.ARTICLE
        assert DocType("conference_paper") is DocType.CONFERENCE_PAPER
        assert {d.value for d in DocType} == {
            "article",
            "review",
            "conference_paper",
            "other",
        }


class TestSubjectScheme:
    def test_group_lookup(self, scheme):
        assert scheme.group("phys") == frozenset({"PHYS", "MATH"})

    def test_unknown_group_raises(self, scheme):
        with pytest.raises(UnknownGroupError):
            scheme.group("astrology")

    def test_names_keep_declaration_order(self, scheme):
        assert scheme.names == ("phys", "health", "life")

    def test_all_fields_name_reserved(self):
        with pytest.raises(ValueError):
            SubjectScheme({ALL_FIELDS: frozenset({"X"})})

    @pytest.mark.parametrize("name", ["all", "All", "aLL"])
    def test_all_fields_name_reserved_in_any_case(self, name):
        # the command line reads `all` in any case as the unrestricted slice
        with pytest.raises(ValueError, match=f"group name {name!r} is reserved"):
            SubjectScheme({name: frozenset({"X"}), "life": frozenset({"BIO"})})

    def test_empty_group_name_rejected(self):
        with pytest.raises(ValueError):
            SubjectScheme({" ": frozenset({"X"})})

    def test_empty_scheme_has_no_groups(self):
        assert EMPTY_SCHEME.names == ()


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Corpus((rec("p1", ["US"]), rec("p1", ["GB"])))

    def test_duplicate_named_is_the_first_repeat_in_record_order(self):
        # in id order the first equal neighbours are the two "a" records
        records = (rec("a", ["US"]), rec("b", ["GB"]), rec("b", ["FR"]), rec("a", ["DE"]))
        with pytest.raises(ValueError, match="^duplicate record id 'b'$"):
            Corpus(records)

    def test_records_keep_their_input_order(self):
        ids = ["p3", "p1", "p10", "p2"]
        assert [r.id for r in Corpus(tuple(rec(i, ["US"]) for i in ids))] == ids

    def test_id_order_is_not_part_of_repr_equality_or_replace(self, mixed_corpus):
        shuffled = Corpus(mixed_corpus.records[::-1], mixed_corpus.scheme)
        assert repr(shuffled) == (
            f"Corpus(records={shuffled.records!r}, scheme={mixed_corpus.scheme!r}, provenance='')"
        )
        # a subset handed its id order equals one that works it out
        subset = shuffled._subset(lambda r: r.id != "p3")
        assert subset == Corpus(tuple(r for r in shuffled if r.id != "p3"), mixed_corpus.scheme)
        assert [r.id for r in subset._by_id] == ["p1", "p2", "p4", "p5", "p6"]
        # replace works out the order of the records it is given
        ordered = replace(shuffled, records=mixed_corpus.records)
        assert ordered == mixed_corpus
        assert ordered._by_id is ordered.records

    def test_a_subset_that_keeps_every_record_shares_both_orders(self, mixed_corpus):
        shuffled = Corpus(mixed_corpus.records[::-1], mixed_corpus.scheme)
        whole = shuffled._subset(lambda r: True)
        assert whole == shuffled and whole is not shuffled
        assert whole.records is shuffled.records
        assert whole._by_id is shuffled._by_id

    def test_len_and_iter(self, mixed_corpus):
        assert len(mixed_corpus) == 6
        assert [r.id for r in mixed_corpus] == ["p1", "p2", "p3", "p4", "p5", "p6"]


class TestPublicationRecord:
    def test_records_hold_no_instance_dict(self):
        record = rec("p1", ["US"], subjects=("PHYS",))
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            record.year = 2017  # type: ignore[misc]

    def test_replace_still_builds_a_new_record(self):
        record = rec("p1", ["US"], subjects=("PHYS",))
        moved = replace(record, year=2017)
        assert moved == rec("p1", ["US"], year=2017, subjects=("PHYS",))
        assert moved.authors is record.authors
        assert record.year == 2016
