from __future__ import annotations

import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bibrank.errors import SchemaError
from bibrank.ingest import (
    DEFAULT_DOC_TYPES,
    _split_lines,
    apply_filter,
    parse_aggregate_csv,
    parse_csv,
    parse_group_ranks_csv,
    parse_jsonl,
    to_csv,
    to_jsonl,
)
from bibrank.model import AuthorRef, Corpus, DocType, PublicationRecord
from bibrank.synth import SynthParams, generate
from bibrank.tables import format_number, write_table

from conftest import rec
from oracles import oracle_parse_csv, oracle_parse_jsonl, oracle_to_csv, oracle_to_jsonl

MINIMAL = '{"id":"p1","year":2016,"doc_type":"article","subjects":["PHYS"],"authors":[{"countries":["IN"]}]}'


class TestParseJsonl:
    def test_minimal_record_accepted(self):
        corpus, report = parse_jsonl(MINIMAL)
        assert report.records_accepted == 1
        assert report.ok
        r = corpus.records[0]
        assert r.id == "p1"
        assert r.year == 2016
        assert r.doc_type is DocType.ARTICLE
        assert r.subjects == frozenset({"PHYS"})
        assert r.authors[0].countries == frozenset({"IN"})

    @pytest.mark.parametrize("text", ["", "\n", MINIMAL, MINIMAL + "\n", "\n\n" + MINIMAL + "\r\n\u2028"])
    def test_text_is_read_line_by_line_as_split_on_newline(self, text):
        assert list(_split_lines(text)) == text.split("\n")

    def test_duplicate_id_rejected_keeps_first(self):
        corpus, report = parse_jsonl(MINIMAL + "\n" + MINIMAL)
        assert report.records_accepted == 1
        assert report.records_rejected == 1
        assert any("duplicate" in msg for _, msg in report.errors)

    def test_missing_authors_rejected(self):
        corpus, report = parse_jsonl('{"id":"p2"}')
        assert report.records_accepted == 0
        assert len(report.errors) == 1
        assert "authors" in report.errors[0][1]

    def test_malformed_json_rejected_line_continues(self):
        corpus, report = parse_jsonl("{nope\n" + MINIMAL)
        assert report.records_accepted == 1
        assert report.records_rejected == 1
        assert report.errors[0][0] == "line 1"

    def test_blank_lines_ignored(self):
        corpus, report = parse_jsonl("\n\n" + MINIMAL + "\n\n")
        assert report.records_accepted == 1
        assert report.records_rejected == 0

    def test_missing_year_warns_and_defaults(self):
        corpus, report = parse_jsonl('{"id":"p1","authors":[{"countries":["US"]}]}')
        assert report.records_accepted == 1
        assert corpus.records[0].year == 0
        assert any("year" in msg for _, msg in report.warnings)

    def test_non_integer_year_rejected(self):
        _, report = parse_jsonl('{"id":"p1","year":"hello","authors":[{"countries":["US"]}]}')
        assert report.records_rejected == 1

    def test_unknown_doc_type_degrades_to_other(self):
        corpus, report = parse_jsonl(
            '{"id":"p1","year":2016,"doc_type":"letter","authors":[{"countries":["US"]}]}'
        )
        assert corpus.records[0].doc_type is DocType.OTHER
        assert any("doc_type" in msg for _, msg in report.warnings)

    def test_unresolved_author_warns(self):
        corpus, report = parse_jsonl(
            '{"id":"p1","year":2016,"doc_type":"article","authors":[{"countries":[]}]}'
        )
        assert report.records_accepted == 1
        assert corpus.records[0].authors[0].unresolved
        assert any("ZZ" in msg for _, msg in report.warnings)

    def test_country_names_normalized(self):
        corpus, _ = parse_jsonl(
            '{"id":"p1","year":2016,"doc_type":"article","authors":[{"countries":["UK","usa"]}]}'
        )
        assert corpus.records[0].authors[0].countries == frozenset({"GB", "US"})


# one field over the csv module's default 131,072-character limit
BIG = "X" * 140_000


class TestParseCsv:
    HEADER = "id,year,doc_type,subjects,author_countries"

    def test_round_trip_jsonl_to_csv_to_jsonl(self, mixed_corpus):
        csv_text = to_csv(mixed_corpus)
        back, report = parse_csv(csv_text, scheme=mixed_corpus.scheme)
        assert report.ok
        assert back.records == mixed_corpus.records
        assert to_jsonl(back) == to_jsonl(mixed_corpus)

    def test_wrong_header_is_fatal(self):
        with pytest.raises(SchemaError):
            parse_csv("id,year\np1,2016")

    def test_multi_country_and_unresolved_authors(self):
        text = self.HEADER + "\np1,2016,article,PHYS;CHEM,IN+US|GB|ZZ\n"
        corpus, report = parse_csv(text)
        assert report.ok
        r = corpus.records[0]
        assert r.subjects == frozenset({"PHYS", "CHEM"})
        assert [a.countries for a in r.authors] == [
            frozenset({"IN", "US"}),
            frozenset({"GB"}),
            frozenset(),
        ]

    def test_column_count_mismatch_rejects_row(self):
        text = self.HEADER + "\np1,2016,article\n" + "p2,2016,article,,US\n"
        corpus, report = parse_csv(text)
        assert report.records_accepted == 1
        assert report.records_rejected == 1

    def test_empty_authors_cell_rejected(self):
        text = self.HEADER + "\np1,2016,article,PHYS,\n"
        _, report = parse_csv(text)
        assert report.records_rejected == 1

    @pytest.mark.parametrize(
        "parse, text, row",
        [
            (parse_csv, f"{HEADER}\np1,2016,article,PHYS,US\np2,2016,article,{BIG},US\n", 3),
            (parse_aggregate_csv, f"country,wc,fc,icp\nGB,1,1,0\n\"{BIG}\",1,1,0\n", 3),
            (parse_csv, f"{BIG}\np1,2016,article,PHYS,US\n", 1),
        ],
        ids=["records", "aggregate", "header"],
    )
    def test_unreadable_field_is_schema_error(self, parse, text, row):
        with pytest.raises(SchemaError, match=rf"^row {row}: field larger than field limit"):
            parse(text)

    def test_zz_round_trips(self):
        corpus = Corpus((rec("p1", ["US"], []),))
        text = to_csv(corpus)
        assert "US|ZZ" in text
        back, report = parse_csv(text)
        assert report.ok
        assert back.records == corpus.records


# characters that str.splitlines() treats as line breaks but JSON leaves raw
LINE_BREAKERS = ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e"]


class TestRoundTripHostileText:
    @pytest.mark.parametrize("ch", LINE_BREAKERS)
    def test_jsonl_id_and_subject_survive(self, ch):
        corpus = Corpus(
            (
                rec(f"p{ch}1", ["US"], subjects=("PHYS",)),
                rec("p2", ["GB"], subjects=(f"PH{ch}YS",)),
            )
        )
        text = to_jsonl(corpus)
        back, report = parse_jsonl(text)
        assert report.ok and report.records_accepted == 2
        assert back.records == corpus.records
        assert to_jsonl(back) == text

    def test_csv_id_with_embedded_newline_survives(self):
        corpus = Corpus(
            (
                rec("p\n1", ["US"]),
                rec("p\r\n2", ["GB"]),
                rec("p\r3", ["FR"], subjects=("A\rB",)),
                rec("p4", ["FR"]),
            )
        )
        text = to_csv(corpus)
        back, report = parse_csv(text)
        assert report.ok and report.records_accepted == 4
        assert back.records == corpus.records
        assert to_csv(back) == text


_DROP = object()  # a _row field given this value is left out of the object


def _row(id="g1", **fields) -> str:
    obj = {
        "id": id,
        "year": 2016,
        "doc_type": "article",
        "subjects": ["PHYS"],
        "authors": [{"countries": ["US"]}],
    }
    obj.update(fields)
    return json.dumps({k: v for k, v in obj.items() if v is not _DROP})


# dirty JSONL rows; each line is one case, and the grid is also parsed as one
# stream in several orders so duplicate ids and memo reuse cross records
JSONL_GRID = [
    _row("g1"),
    _row("g2", authors=[{"countries": ["united  states", " uk ", "China"]},
                        {"countries": ["usa"]}, {"countries": ["US"]}]),
    _row("g3", authors=[{"countries": []}, {"countries": ["ZZ"]}, {"countries": ["zz"]}, {}]),
    _row("g4", authors=[{"countries": ["Atlantis", "USA", "X1", "", "  ", "de"]}]),
    _row("g5", authors=[{"countries": ["Atlantis", "USA", "X1", "", "  ", "de"]}], year=_DROP),
    _row("g6", subjects=[" PHYS ", "", "MED", "MED"], doc_type="Review "),
    _row("g7", doc_type="letter", subjects=_DROP),
    _row("g8", doc_type=5, year=None),
    _row("g9", doc_type=""),
    _row("g10", doc_type=_DROP),
    "{nope",
    '{"id": "m1",',
    "[1, 2]",
    '"just a string"',
    "42",
    "null",
    _row("b1", authors=[{"countries": ["US", 7]}]),
    _row("b2", authors=[{"countries": [["US"]]}]),
    _row("b3", authors=[{"countries": "US"}]),
    _row("b4", authors=["US"]),
    _row("b5", authors=[{"countries": ["US"]}, {"countries": [{"c": "US"}]}]),
    _row("b6", authors=[{"countries": [None]}]),
    _row("g1"),
    _row(" g1 "),
    _row("d1", year="2016"),
    _row("d2", year=2016.0),
    _row("d3", year=True),
    _row("d4", year=[2016]),
    _row(_DROP),
    _row("   "),
    _row(17),
    _row("e1", authors=[]),
    _row("e2", authors=_DROP),
    _row("e3", authors={"countries": ["US"]}),
    _row("e4", subjects="PHYS"),
    _row("e5", subjects=["PHYS", 1]),
    _row("e6", subjects=[["PHYS"]]),
    _row("c1", year="x", authors=_DROP),
    _row("c2", year=_DROP, subjects="x"),
    _row("c3", year=_DROP, authors=[{"countries": ["usa"]}], doc_type="letter"),
    "",
    "   ",
    # decoder edges: what follows the value, what precedes it, and the
    # non-finite constants json.loads accepts
    "{} {}",
    '{"id":"x"}]',
    "\ufeff" + _row("f1"),
    "\x0c" + _row("f2"),
    "\t" + _row("f3"),
    _row("f4") + "   ",
    _row("f5") + "\t",
    _row("n1", year=float("nan")),
    _row("n2", year=float("inf")),
]

CSV_GRID = [
    "p1,2016,article,PHYS;CHEM,IN+US|GB|ZZ",
    "p2,2016,Article , PHYS ; ;MED,united states+ uk |China",
    "p3,2016,article,,ZZ|zz|+|  ",
    "p4,2016,article,PHYS,Atlantis+X1+de",
    "p5,2016,article",
    "p6,2016,article,PHYS,US,extra",
    ",2016,article,PHYS,US",
    "p1,2017,article,PHYS,US",
    "p7,20x6,article,PHYS,US",
    "p8,2016.0,article,PHYS,US",
    "p9,,article,PHYS,US",
    "p10,abc,article,PHYS,",
    "p11,,article,PHYS,",
    "p12,2016,article,PHYS,",
    "p13,2016,letter,PHYS,US",
    "p14,2016,,PHYS,US",
    '"p15","2016","review","PHYS","US+usa"',
    ",,,,",
    "",
    "p16, 2016 ,article,PHYS,CN",
]


def assert_same_parse(ours, reference):
    (corpus, report), (ref_corpus, ref_report) = ours, reference
    assert corpus == ref_corpus
    assert report.errors == ref_report.errors
    assert report.warnings == ref_report.warnings
    assert report.records_accepted == ref_report.records_accepted
    assert report.records_rejected == ref_report.records_rejected


class TestReferenceParserEquivalence:
    @pytest.mark.parametrize("line", JSONL_GRID)
    def test_jsonl_row(self, line):
        assert_same_parse(parse_jsonl(line), oracle_parse_jsonl(line))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_jsonl_stream(self, seed, newline):
        lines = JSONL_GRID[:]
        random.Random(seed).shuffle(lines)
        text = newline.join(lines)
        assert_same_parse(parse_jsonl(text), oracle_parse_jsonl(text))
        as_file = [line + newline for line in lines]
        assert_same_parse(parse_jsonl(as_file), oracle_parse_jsonl(as_file))

    @pytest.mark.parametrize("row", CSV_GRID)
    def test_csv_row(self, row):
        text = "id,year,doc_type,subjects,author_countries\n" + row
        assert_same_parse(parse_csv(text), oracle_parse_csv(text))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_csv_stream(self, seed, newline):
        rows = CSV_GRID[:]
        random.Random(seed).shuffle(rows)
        lines = ["id,year,doc_type,subjects,author_countries", *rows]
        text = newline.join(lines)
        assert_same_parse(parse_csv(text), oracle_parse_csv(text))
        as_file = [line + newline for line in lines]
        assert_same_parse(parse_csv(as_file), oracle_parse_csv(as_file))

    def test_header_errors_match(self):
        for text in ["", "id,year\np1,2016", "\n"]:
            with pytest.raises(SchemaError) as ours:
                parse_csv(text)
            with pytest.raises(SchemaError) as reference:
                oracle_parse_csv(text)
            assert str(ours.value) == str(reference.value)


class TestInterning:
    TEXT = "\n".join(
        [
            _row("a", authors=[{"countries": ["US", "GB"]}, {"countries": ["US"]}]),
            _row("b", authors=[{"countries": ["US"]}, {"countries": ["US", "GB"]}]),
            _row("c", authors=[{"countries": ["usa"]}]),
        ]
    )

    def test_equal_raw_countries_share_one_author(self):
        corpus, _ = parse_jsonl(self.TEXT)
        a, b, c = corpus.records
        assert a.authors[0] is b.authors[1]
        assert a.authors[1] is b.authors[0]
        # a different spelling of the same country set also shares the object
        assert c.authors[0] is a.authors[1]
        assert a.subjects is b.subjects

    def test_csv_authors_interned_too(self):
        corpus, _ = parse_csv(to_csv(parse_jsonl(self.TEXT)[0]))
        a, b, _ = corpus.records
        assert a.authors[0] is b.authors[1]

    def test_parse_calls_share_no_memo(self):
        first, _ = parse_jsonl(self.TEXT)
        second, _ = parse_jsonl(self.TEXT)
        assert first.records == second.records
        assert first.records[0].authors[1] is not second.records[0].authors[1]
        assert first.records[0].subjects is not second.records[0].subjects

    SHARED = "\n".join(
        [
            _row("a", authors=[{"countries": ["US", "GB"]}, {"countries": ["US"]}]),
            _row("b", authors=[{"countries": ["US", "GB"]}, {"countries": ["US"]}]),
            _row("c", authors=[{"countries": ["US"]}, {"countries": ["US", "GB"]}]),
        ]
    )

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_equal_author_lists_share_one_tuple_within_a_parse(self, fmt):
        text = self.SHARED if fmt == "jsonl" else to_csv(parse_jsonl(self.SHARED)[0])
        parse = parse_jsonl if fmt == "jsonl" else parse_csv
        first, _ = parse(text)
        a, b, c = first.records
        assert a.authors is b.authors
        # the same authors in another order are another list
        assert c.authors is not a.authors and c.authors == a.authors[::-1]
        second, _ = parse(text)
        assert second.records == first.records
        assert not {id(r.authors) for r in first.records} & {id(r.authors) for r in second.records}

    def test_csv_cells_with_equal_raw_countries_share_one_tuple(self):
        # an empty country between "+" signs is dropped, so these cells differ
        # as text but hold the same raw author lists
        text = "id,year,doc_type,subjects,author_countries\n" + "".join(
            f"{i},2016,article,PHYS,{cell}\n" for i, cell in enumerate(["US|GB", "US+|GB", "US|GB+"])
        )
        corpus, _ = parse_csv(text)
        assert len({id(r.authors) for r in corpus.records}) == 1

    def test_generate_shares_author_tuples_within_a_corpus(self):
        params = SynthParams(seed=3, n_records=500)
        first, second = generate(params), generate(params)
        tuples_by_pattern: dict = {}
        for r in first.records:
            pattern = tuple(a.countries for a in r.authors)
            tuples_by_pattern.setdefault(pattern, set()).add(id(r.authors))
        assert all(len(ids) == 1 for ids in tuples_by_pattern.values())
        assert len(tuples_by_pattern) < len(first.records) / 2
        assert not {id(r.authors) for r in first.records} & {id(r.authors) for r in second.records}

    WARNED = [
        ("a", "country 'Narnia' is not a recognized name or two-letter code"),
        ("a", "author with no resolvable country; credited to ZZ"),
        ("b", "missing year; defaulting to 0"),
        ("b", "country 'Narnia' is not a recognized name or two-letter code"),
        ("b", "author with no resolvable country; credited to ZZ"),
        ("c", "missing doc_type; treated as 'other'"),
        ("c", "country 'Narnia' is not a recognized name or two-letter code"),
        ("c", "author with no resolvable country; credited to ZZ"),
    ]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_shared_author_lists_warn_for_every_record_in_order(self, fmt):
        if fmt == "jsonl":
            authors = [{"countries": ["Narnia"]}, {"countries": []}]
            text = "\n".join(
                [
                    _row("a", authors=authors),
                    _row("b", authors=authors, year=None),
                    _row("c", authors=authors, doc_type=None),
                ]
            )
            parse, oracle = parse_jsonl, oracle_parse_jsonl
        else:
            text = (
                "id,year,doc_type,subjects,author_countries\n"
                "a,2016,article,PHYS,Narnia|ZZ\n"
                "b,,article,PHYS,Narnia|ZZ\n"
                "c,2016,,PHYS,Narnia|ZZ\n"
            )
            parse, oracle = parse_csv, oracle_parse_csv
        corpus, report = parse(text)
        assert corpus.records[0].authors is corpus.records[2].authors
        assert report.warnings == self.WARNED
        assert_same_parse((corpus, report), oracle(text))

    def test_each_distinct_string_normalized_once(self, monkeypatch):
        from bibrank import ingest

        calls = []
        real = ingest.normalize_country
        monkeypatch.setattr(
            ingest, "normalize_country", lambda raw: calls.append(raw) or real(raw)
        )
        renamed = self.TEXT.replace('"a"', '"x"').replace('"b"', '"y"').replace('"c"', '"z"')
        parse_jsonl(self.TEXT + "\n" + renamed)
        assert sorted(calls) == ["GB", "US", "US", "usa"]


# ids and subjects from arbitrary Unicode, as the parsers strip them
_text = st.text(min_size=1, max_size=12).map(str.strip).filter(bool)
# the csv module before Python 3.11 cannot write NUL without an escapechar
_csv_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=";|+" + ("\x00" if sys.version_info < (3, 11) else ""),
    ),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


@st.composite
def hostile_corpora(draw, text=_text):
    ids = draw(st.lists(text, min_size=1, max_size=6, unique=True))
    authors = st.lists(st.sampled_from(["US", "GB", "IN"]), max_size=2)
    records = [
        rec(
            rec_id,
            *draw(st.lists(authors, min_size=1, max_size=3)),
            subjects=tuple(draw(st.lists(text, max_size=3))),
        )
        for rec_id in ids
    ]
    return Corpus(tuple(records))


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(hostile_corpora())
    def test_jsonl_corpus_jsonl(self, corpus):
        text = to_jsonl(corpus)
        back, report = parse_jsonl(text)
        assert report.ok and report.records_accepted == len(corpus)
        assert to_jsonl(back) == text

    @settings(max_examples=150, deadline=None)
    @given(hostile_corpora(_csv_text))
    def test_jsonl_csv_jsonl(self, corpus):
        text = to_jsonl(corpus)
        via_csv, _ = parse_csv(to_csv(parse_jsonl(text)[0]))
        assert to_jsonl(via_csv) == text


def _outcome(write, corpus):
    """What a writer returns, or the type and message of what it raises."""
    try:
        return write(corpus)
    except ValueError as exc:
        return type(exc), str(exc)


_unicode = st.text(max_size=8)
# ids that are not stripped: a parse never yields them, but a writer must
# still write them as it always did
_hostile_id = st.one_of(_unicode, st.sampled_from(["p\u2028", "p\r1", " \r", "\u2029\x85"]))
_country = st.one_of(st.sampled_from(["US", "GB", "IN", "FR", ""]), _unicode)


@st.composite
def writer_corpora(draw):
    """Records with arbitrary text everywhere, empty author sets, and authors
    that are shared between records or built afresh for each slot."""
    countries = st.frozensets(_country, max_size=3)
    shared = [AuthorRef(cs) for cs in draw(st.lists(countries, min_size=1, max_size=4))]
    slot = st.one_of(st.sampled_from(shared), countries.map(AuthorRef))
    ids = draw(st.lists(_hostile_id, max_size=6, unique=True))
    records = [
        PublicationRecord(
            id=rec_id,
            year=draw(st.integers(-5, 3000)),
            doc_type=draw(st.sampled_from(DocType)),
            subjects=draw(st.frozensets(_unicode, max_size=3)),
            authors=tuple(draw(st.lists(slot, max_size=4))),
        )
        for rec_id in ids
    ]
    return Corpus(tuple(records))


class TestWritersMatchFrozenCopies:
    @settings(max_examples=300, deadline=None)
    @given(writer_corpora())
    def test_jsonl_bytes(self, corpus):
        assert _outcome(to_jsonl, corpus) == _outcome(oracle_to_jsonl, corpus)

    @settings(max_examples=300, deadline=None)
    @given(writer_corpora())
    def test_csv_bytes(self, corpus):
        assert _outcome(to_csv, corpus) == _outcome(oracle_to_csv, corpus)

    def test_years_that_compare_equal_keep_their_own_text(self):
        # True == 1 == 1.0, but json writes true, 1 and 1.0
        records = [
            PublicationRecord(id=f"p{i}", year=year, doc_type=DocType.ARTICLE)
            for i, year in enumerate([1, True, 1.0, 2016, 2016.0, False, 0])
        ]
        corpus = Corpus(tuple(records))
        assert to_jsonl(corpus) == oracle_to_jsonl(corpus)
        assert to_csv(corpus) == oracle_to_csv(corpus)

    @pytest.mark.parametrize("ch", ";|+")
    @pytest.mark.parametrize("where", ["subject", "country", "both"])
    def test_reserved_delimiter_reported_on_first_record_holding_it(self, ch, where):
        def holding(rec_id, value):
            subjects = ("B", value) if where != "country" else ("A",)
            second = ["GB", value] if where != "subject" else ["GB"]
            return rec(rec_id, ["US"], second, subjects=subjects)

        corpus = Corpus(
            (
                rec("p1", ["US"], subjects=("A",)),
                holding("p2", f"X{ch}2"),
                holding("p3", f"X{ch}3"),
            )
        )
        what = "country code" if where == "country" else "subject code"
        message = (
            f"{what} 'X{ch}2' contains reserved delimiter {ch!r}; "
            "cannot be serialized losslessly"
        )
        assert _outcome(to_csv, corpus) == (ValueError, message)
        assert _outcome(oracle_to_csv, corpus) == (ValueError, message)


class TestWriters:
    def test_jsonl_output_is_sorted_and_stable(self):
        corpus = Corpus((rec("p1", ["US", "GB", "FR"], subjects=("B", "A")),))
        line = to_jsonl(corpus).strip()
        obj = json.loads(line)
        assert obj["subjects"] == ["A", "B"]
        assert obj["authors"][0]["countries"] == ["FR", "GB", "US"]

    def test_reserved_delimiter_in_code_refuses_csv(self):
        corpus = Corpus((rec("p1", ["US"], subjects=("A;B",)),))
        with pytest.raises(ValueError, match="delimiter"):
            to_csv(corpus)


class TestApplyFilter:
    def test_year_filter(self):
        years = [2016] * 7 + [2015] * 3
        corpus = Corpus(tuple(rec(f"p{i}", ["US"], year=y) for i, y in enumerate(years)))
        assert len(apply_filter(corpus, years={2016})) == 7

    def test_default_doc_types_drop_other(self):
        corpus = Corpus(
            (
                rec("p1", ["US"], doc_type=DocType.ARTICLE),
                rec("p2", ["US"], doc_type=DocType.OTHER),
                rec("p3", ["US"], doc_type=DocType.REVIEW),
                rec("p4", ["US"], doc_type=DocType.CONFERENCE_PAPER),
            )
        )
        kept = apply_filter(corpus, doc_types=DEFAULT_DOC_TYPES)
        assert [r.id for r in kept] == ["p1", "p3", "p4"]

    def test_empty_filter_is_identity(self, mixed_corpus):
        filtered = apply_filter(mixed_corpus, years=set(), doc_types=None)
        assert filtered.records == mixed_corpus.records
        assert filtered.scheme is mixed_corpus.scheme


class TestAggregateCsv:
    def test_aggregate_rows(self):
        rows = parse_aggregate_csv("country,wc,fc,icp\nGB,156899,99366.17,90497\n")
        assert rows[0].country == "GB"
        assert rows[0].wc == 156899
        assert rows[0].fc == 99366.17
        assert rows[0].icp == 90497

    def test_aggregate_bad_header(self):
        with pytest.raises(SchemaError):
            parse_aggregate_csv("country,whole,fc,icp\nGB,1,1,0\n")

    def test_aggregate_bad_value_is_fatal(self):
        with pytest.raises(SchemaError):
            parse_aggregate_csv("country,wc,fc,icp\nGB,x,1,0\n")

    def test_group_ranks_rows(self):
        rows = parse_group_ranks_csv('country,group,tp,rank\nRU,"AGR, BIO & VET",4033,17\n')
        assert rows[0].group == "AGR, BIO & VET"
        assert rows[0].tp == 4033
        assert rows[0].rank == 17

    def test_wrong_column_count_is_fatal(self):
        with pytest.raises(SchemaError, match="expected 4 columns, got 3"):
            parse_aggregate_csv("country,wc,fc,icp\nGB,1,1\n")

    def test_group_ranks_bad_value_is_fatal(self):
        with pytest.raises(SchemaError, match="bad rank row for 'RU'/'phys'"):
            parse_group_ranks_csv("country,group,tp,rank\nRU,phys,x,17\n")


class TestTables:
    def test_format_number_half_up(self):
        assert format_number(0.125, 2) == "0.13"
        assert format_number(2.5, 0) == "3"
        assert format_number(0.845, 2) == "0.85"
        assert format_number(-0.125, 2) == "-0.13"

    def test_format_number_none_and_int(self):
        assert format_number(None) == ""
        assert format_number(7) == "7"
        assert format_number(7, 1) == "7.0"

    def test_format_number_numpy_scalar(self):
        import numpy as np

        assert format_number(np.float64(0.84), 2) == "0.84"

    def test_format_number_rejects_bool(self):
        with pytest.raises(TypeError):
            format_number(True)

    def test_format_number_float_unrounded_is_repr(self):
        assert format_number(0.1 + 0.2) == "0.30000000000000004"

    def test_precision_per_column(self):
        with pytest.raises(ValueError, match="one entry per column"):
            write_table(["a", "b"], [], "csv", [1])

    def test_csv_table(self):
        out = write_table(["a", "b"], [["x", 1.25], ["y", None]], "csv", [None, 1])
        assert out == "a,b\nx,1.3\ny,\n"

    def test_csv_quotes_commas(self):
        out = write_table(["g", "v"], [["AGR, BIO & VET", 1]], "csv")
        assert '"AGR, BIO & VET",1' in out

    def test_md_table_alignment(self):
        out = write_table(["name", "v"], [["ab", 1], ["c", 22]], "md")
        lines = out.splitlines()
        assert lines[0] == "| name | v  |"
        assert lines[1] == "|------|----|"
        assert lines[2] == "| ab   | 1  |"

    def test_json_table_rounds_like_text(self):
        out = write_table(["v"], [[0.845]], "json", [2])
        assert json.loads(out) == [{"v": 0.85}]

    def test_json_none_is_null(self):
        out = write_table(["v"], [[None]], "json")
        assert json.loads(out) == [{"v": None}]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_table(["a"], [], "xml")

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            write_table(["a", "b"], [["only-one"]], "csv")
