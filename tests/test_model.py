from __future__ import annotations

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

    def test_len_and_iter(self, mixed_corpus):
        assert len(mixed_corpus) == 6
        assert [r.id for r in mixed_corpus] == ["p1", "p2", "p3", "p4", "p5", "p6"]
