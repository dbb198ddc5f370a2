from __future__ import annotations

import csv
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bibrank.errors import SchemaError
from bibrank.ingest import (
    _CHUNK_LINES,
    _QUOTE_CHARS,
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

from conftest import digit_limit_message, rec
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


class _Sink(object):
    """An output stream that keeps each text written to it."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> None:
        self.writes.append(text)


class TestLoneSurrogates:
    """A JSON escape such as ``"\\ud800"`` parses to a lone surrogate, which
    UTF-8 cannot encode: JSONL writes it as that escape, and CSV refuses it."""

    CORPUS = Corpus(
        (
            rec("a\ud800", ["US"], subjects=("PHYS",)),
            rec("p2", ["GB"], ["\udfff"], subjects=("X\udc80Y", "é")),
        )
    )

    def test_jsonl_writes_the_escape_and_parses_back(self):
        text = to_jsonl(self.CORPUS)
        text.encode("utf-8")
        lines = text.splitlines()
        assert lines[0].startswith('{"id":"a\\ud800",')
        assert '"subjects":["X\\udc80Y","é"]' in lines[1]
        assert '{"countries":["\\udfff"]}' in lines[1]
        back, report = parse_jsonl(text)
        assert report.records_accepted == 2 and report.ok
        assert back.records == self.CORPUS.records
        assert to_jsonl(back) == text
        sink = _Sink()
        to_jsonl(self.CORPUS, sink)
        assert "".join(sink.writes) == text

    @pytest.mark.parametrize(
        "record, what, value",
        [
            (rec("a\ud800", ["US"]), "record id", "a\ud800"),
            (rec("p1", ["US"], subjects=("X\udc80Y",)), "subject code", "X\udc80Y"),
            (rec("p1", ["GB"], ["\udfff"]), "country code", "\udfff"),
        ],
        ids=["id", "subject", "country"],
    )
    def test_csv_refuses_a_value_holding_one(self, record, what, value):
        corpus = Corpus((rec("p0", ["US"]), record))
        surrogate = next(ch for ch in value if "\ud800" <= ch <= "\udfff")
        message = f"{what} {value!r} contains lone surrogate {surrogate!r}; UTF-8 cannot encode it"
        with pytest.raises(ValueError) as raised:
            to_csv(corpus)
        assert str(raised.value) == message


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


# Compact lines in and around the form to_jsonl writes: '{"id":"' + id +
# '",' + the other members + ',"authors":' + the author list + '}'. Each
# piece is raw JSON text: a well-formed one, drawn most often, or a variant
# that json.loads or the record checks treat differently.
def _mostly(good: list[str], other: list[str]) -> st.SearchStrategy[str]:
    return st.sampled_from(good * 8 + other)


_split_members = _mostly(
    [
        '"year":2016',
        '"year":null',
        '"doc_type":"article"',
        '"doc_type":"Review "',
        '"doc_type":"letter"',
        '"doc_type":5',
        '"subjects":["PHYS"]',
        '"subjects":[" PHYS ","","MED"]',
        '"subjects":["a,\\"authors\\":"]',
    ],
    [
        '"year": 2016',
        '"year":"2016"',
        '"year":2016.0',
        '"year":true',
        '"doc_type":""',
        '"subjects":["x,"authors":[]]',
        '"subjects":"PHYS"',
        '"subjects":[1]',
        '"id":"z"',
        '"id":5',
        '"authors":[{"countries":["US"]}]',
        '"authors":5',
        '"extra":{"authors":1}',
        '"year":2016,',
        "",
    ],
)
_split_authors = _mostly(
    [
        '[{"countries":["US"]}]',
        '[{"countries":["US","GB"]},{"countries":["Narnia"]}]',
        '[{"countries":[]},{"countries":["zz"]}]',
        '[{"countries":["united states"]}]',
        '[{"countries":["a,\\"authors\\":"]}]',
        '[{"countries":["US"]},{"countries":["US"],"authors":[]}]',
    ],
    [
        ' [{"countries":["US"]}]',
        "[]",
        '[{"countries":["US",7]}]',
        '[{"countries":"US"}]',
        "[{}]",
        "[1]",
        '"US"',
        "[",
    ],
)
_split_separators = _mostly([","], [", ", " ,", ",\t"])
_split_ends = _mostly(["}"], ["} ", "}\t", "}\r", " }", "} x", "}}", "]", "", "}\n"])
_split_heads = _mostly(['{"id":'], ['{ "id":', '{"id": ', '\ufeff{"id":'])
_split_ids = st.one_of(
    st.sampled_from(["a", "b", " a ", "", "  ", 'q,"authors":[]', "\x00", "\n", '"', "\\", "é"]),
    st.integers(0, 999).map(lambda n: f"r{n}"),
)


@st.composite
def _split_form_template(draw):
    """A line without its id and its end: the text before the id and after it."""
    members = draw(st.lists(_split_members, max_size=4))
    members.append(draw(_mostly(['"authors":'], ['"authors": ', '"Authors":'])))
    after = "".join(draw(_split_separators) + member for member in members)
    after += draw(_split_authors)
    return draw(_split_heads), after


# what follows the id's closing quote in a compact line; each is parsed
# under several ids, so a later line repeats an earlier line's pieces
SPLIT_GRID = [
    ',"year":2016,"doc_type":"article","subjects":["PHYS"],"authors":[{"countries":["US"]}]}',
    ',"year":2016,"authors":[{"countries":["US"]}]}',
    ',"doc_type":"letter","subjects":[" PHYS "],"authors":[{"countries":["Narnia"]},{"countries":[]}]}',
    ',"year":null,"subjects":["PHYS"],"authors":[{"countries":["Narnia"]},{"countries":[]}]}',
    ',"id":"z","year":2016,"authors":[{"countries":["US"]}]}',
    ',"authors":[{"countries":["GB"]}],"year":2016,"authors":[{"countries":["US"]}]}',
    ',"authors":[{"countries":["US"]}]}',
    ',,"authors":[{"countries":["US"]}]}',
    ', ,"authors":[{"countries":["US"]}]}',
    ',"year":2016,"authors":[{"countries":["US"]}]} x',
    ',"year":2016},{"doc_type":"article","authors":[{"countries":["US"]}]}',
    ',"year":2016,"authors":[{"countries":["US"]}]}}',
    ',"year":2016,"authors":[{"countries":["US"]}]]',
    ',"year":2016,"authors":[{"countries":["US"]}]',
    ',"year":2016,"authors":[{"countries":["US"]}] }\t',
    ',"year":2016,"authors": [{"countries":["US"]}]}',
    ',"year":2016, "authors":[{"countries":["US"]}]}',
    ',"year":"2016","authors":[{"countries":["US"]}]}',
    ',"year":2016,"subjects":[1],"authors":[{"countries":["US"]}]}',
    ',"year":2016,"authors":[]}',
    ',"year":2016,"authors":[{"countries":["US",7]}]}',
    ',"year":2016,"subjects":["x,\\"authors\\":"],"authors":[{"countries":["a,\\"authors\\":"]}]}',
    ',"year":2016,"authors":[{"countries":["US"],"authors":[]}]}',
]


def _render_id(rec_id: str, how: str) -> str:
    if how == "raw":  # unescaped: quotes, backslashes and controls break it
        return '"' + rec_id + '"'
    return json.dumps(rec_id, ensure_ascii=how == "ascii")


@st.composite
def split_form_streams(draw):
    """A JSONL stream whose lines repeat a few templates under fresh ids,
    so that later lines repeat the members and author list of earlier ones;
    each line draws its own end."""
    templates = draw(st.lists(_split_form_template(), min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        before, after = draw(st.sampled_from(templates))
        how = draw(_mostly(["ascii"], ["unicode", "raw"]))
        lines.append(before + _render_id(draw(_split_ids), how) + after + draw(_split_ends))
    lines += draw(st.lists(st.sampled_from(["", "  ", "{nope"]), max_size=2))
    return draw(st.permutations(lines))


# CSV cells in and around CSV_GRID's: a row is an id plus a template of
# year, doc_type, subjects and author_countries cells, so later rows repeat
# the cells of earlier ones under fresh ids
_csv_years = _mostly(["2016", "", "2017"], ["20x6", "2016.0", " 2016 ", "0", "-1", "  "])
_csv_doc_types = _mostly(["article", "", "letter"], ["Article ", " REVIEW", "5"])
_csv_subject_cells = _mostly(
    ["PHYS", "PHYS;CHEM", ""], [" PHYS ; ;MED", ";", "CHEM;PHYS", " PHYS", "PHYS;PHYS"]
)
_csv_author_cells = _mostly(
    ["US", "IN+US|GB|ZZ", "Narnia|ZZ", ""],
    ["ZZ|zz|+|  ", "united states+ uk |China", "Atlantis+X1+de", "US+", " US", "|", "+"],
)
_csv_ids = st.one_of(
    st.sampled_from(["a", " a ", "", "  "]), st.integers(0, 999).map(lambda n: f"r{n}")
)


@st.composite
def csv_row_streams(draw):
    """CSV rows, header excluded, that repeat a few cell templates under
    fresh ids; a cell may be quoted, and a few rows have the wrong width."""
    cells = st.tuples(_csv_years, _csv_doc_types, _csv_subject_cells, _csv_author_cells)
    templates = draw(st.lists(cells, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = [draw(_csv_ids), *draw(st.sampled_from(templates))]
        quote = draw(st.lists(st.booleans(), min_size=5, max_size=5))
        rows.append(",".join(f'"{c}"' if q else c for c, q in zip(row, quote)))
    rows += draw(st.lists(st.sampled_from(["", ",,,,", "p5,2016,article", "p6,,,,US,x"]), max_size=2))
    return draw(st.permutations(rows))


def _jsonl_line_id(line: str) -> str:
    """The stripped id of a grid line's record, or "" when it has none."""
    try:
        obj = json.loads(line.lstrip("\ufeff"))
    except ValueError:
        return ""
    rec_id = obj.get("id") if isinstance(obj, dict) else None
    return rec_id.strip() if isinstance(rec_id, str) else ""


def _csv_row_id(row: str) -> str:
    """The stripped id cell of a grid row, or "" when it has none."""
    return (next(csv.reader([row])) or [""])[0].strip()


def _in_order(grid: list[str], order: int | str, line_id) -> list[str]:
    """The grid shuffled by the seed ``order``, or for "by-id" sorted by
    ``line_id``, which puts each repeated id beside its first occurrence."""
    if order == "by-id":
        return sorted(grid, key=line_id)
    lines = grid[:]
    random.Random(order).shuffle(lines)
    return lines


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

    @pytest.mark.parametrize("order", [*range(5), "by-id"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_jsonl_stream(self, order, newline):
        lines = _in_order(JSONL_GRID, order, _jsonl_line_id)
        text = newline.join(lines)
        assert_same_parse(parse_jsonl(text), oracle_parse_jsonl(text))
        as_file = [line + newline for line in lines]
        assert_same_parse(parse_jsonl(as_file), oracle_parse_jsonl(as_file))

    @settings(max_examples=300, deadline=None)
    @given(split_form_streams(), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_jsonl_stream_of_repeated_compact_lines(self, lines, newline, as_file):
        source = [line + newline for line in lines] if as_file else newline.join(lines)
        assert_same_parse(parse_jsonl(source), oracle_parse_jsonl(source))

    @pytest.mark.parametrize("after", SPLIT_GRID)
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_jsonl_compact_line_repeated_under_fresh_ids(self, after, newline):
        for ids in (
            ["r1", "r2", "r1", " ", "r3", "r\\u0034", "\x01"],
            # the first rc is rejected for its empty authors, so it is not
            # seen: the second rc, after ids in order again, is accepted
            ["ra", ("rc", ',"year":2016,"authors":[]}'), "rb", "rc"],
            # in order until a repeat that is not beside its first occurrence
            ["ra", "rb", "rc", "ra"],
        ):
            lines = [
                '{"id":"' + rec_id + '"' + own_after
                for rec_id, own_after in (i if isinstance(i, tuple) else (i, after) for i in ids)
            ]
            # then the same lines under new ids
            text = newline.join(lines + [line.replace('"r', '"s', 1) for line in lines])
            assert_same_parse(parse_jsonl(text), oracle_parse_jsonl(text))
            as_file = [line + newline for line in text.split(newline)]
            assert_same_parse(parse_jsonl(as_file), oracle_parse_jsonl(as_file))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_jsonl_compact_grid_twice_in_one_stream(self, newline):
        # the second pass puts every line after every other one
        lines = ['{"id":"' + f"{n}{i}" + '"' + after for n in "rs" for i, after in enumerate(SPLIT_GRID)]
        text = newline.join(lines)
        assert_same_parse(parse_jsonl(text), oracle_parse_jsonl(text))

    # each line holds its id, then a fields piece and an authors piece that
    # the lines before it already hold: every case follows a hit
    _WARNED_FIELDS = ',"year":2016,"doc_type":"letter","subjects":["PHYS"]'
    _NO_YEAR_FIELDS = ',"doc_type":"article","subjects":["BIO"]'
    _WARNED_AUTHORS = ',"authors":[{"countries":["Atlantis"]},{"countries":[]}]}'
    _CLEAN_AUTHORS = ',"authors":[{"countries":["US"]}]}'

    @pytest.mark.parametrize(
        "ids, fields, authors",
        [
            pytest.param(["a", "b", "c"], _WARNED_FIELDS, _WARNED_AUTHORS, id="both-pieces-warn"),
            pytest.param(["a", "b", "c"], _WARNED_FIELDS, _CLEAN_AUTHORS, id="fields-warn"),
            pytest.param(["a", "b", "c"], _NO_YEAR_FIELDS, _WARNED_AUTHORS, id="missing-year"),
            pytest.param(["a", " b ", "\tc"], _WARNED_FIELDS, _WARNED_AUTHORS, id="padded-ids"),
            pytest.param(["a", "b", "b"], _WARNED_FIELDS, _WARNED_AUTHORS, id="equal-id"),
            pytest.param(["a", "b", " b"], _NO_YEAR_FIELDS, _CLEAN_AUTHORS, id="equal-padded-id"),
            pytest.param(["a", "c", "b", "d"], _WARNED_FIELDS, _WARNED_AUTHORS, id="lower-id"),
            pytest.param(["a", "c", "a", "d"], _NO_YEAR_FIELDS, _WARNED_AUTHORS, id="lower-repeat"),
            pytest.param(["b", "c", " ", "a", "d"], _WARNED_FIELDS, _CLEAN_AUTHORS, id="blank-id"),
        ],
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_jsonl_lines_whose_pieces_are_known(self, ids, fields, authors, newline):
        lines = ['{"id":"' + rec_id + '"' + fields + authors for rec_id in ids]
        text = newline.join(lines)
        assert_same_parse(parse_jsonl(text), oracle_parse_jsonl(text))
        as_file = [line + newline for line in lines]
        assert_same_parse(parse_jsonl(as_file), oracle_parse_jsonl(as_file))

    def test_jsonl_known_pieces_report_their_warnings_in_place(self):
        # the missing year is checked after the authors, so it comes first;
        # then the fields' warnings, then the authors'
        fields = ',"doc_type":"letter","subjects":["PHYS"]'
        lines = ['{"id":"' + rec_id + '"' + fields + self._WARNED_AUTHORS for rec_id in ("a", " b")]
        corpus, report = parse_jsonl("\n".join(lines))
        assert [(r.id, r.year) for r in corpus.records] == [("a", 0), ("b", 0)]
        for rec_id in ("a", "b"):
            assert [m for ref, m in report.warnings if ref == rec_id] == [
                "missing year; defaulting to 0",
                "unknown doc_type 'letter'; treated as 'other'",
                "country 'Atlantis' is not a recognized name or two-letter code",
                "author with no resolvable country; credited to ZZ",
            ]

    @pytest.mark.parametrize("row", CSV_GRID)
    def test_csv_row(self, row):
        text = "id,year,doc_type,subjects,author_countries\n" + row
        assert_same_parse(parse_csv(text), oracle_parse_csv(text))

    @pytest.mark.parametrize("order", [*range(5), "by-id"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_csv_stream(self, order, newline):
        rows = _in_order(CSV_GRID, order, _csv_row_id)
        lines = ["id,year,doc_type,subjects,author_countries", *rows]
        text = newline.join(lines)
        assert_same_parse(parse_csv(text), oracle_parse_csv(text))
        as_file = [line + newline for line in lines]
        assert_same_parse(parse_csv(as_file), oracle_parse_csv(as_file))

    @settings(max_examples=300, deadline=None)
    @given(csv_row_streams(), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_csv_stream_of_repeated_rows(self, rows, newline, as_file):
        lines = ["id,year,doc_type,subjects,author_countries", *rows]
        source = [line + newline for line in lines] if as_file else newline.join(lines)
        assert_same_parse(parse_csv(source), oracle_parse_csv(source))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_csv_missing_year_warns_before_a_repeated_rows_authors_reject(self, newline):
        # b repeats a's year, doc_type and subjects cells; CSV checks the
        # year before the authors, so b still warns for it
        text = newline.join(
            [
                "id,year,doc_type,subjects,author_countries",
                "a,,letter,PHYS,US",
                "b,,letter,PHYS,",
                "c,,letter,PHYS,US",
            ]
        )
        corpus, report = parse_csv(text)
        assert [r.id for r in corpus.records] == ["a", "c"]
        assert report.errors == [("b", "missing or empty authors")]
        assert report.warnings == [
            ("a", "missing year; defaulting to 0"),
            ("a", "unknown doc_type 'letter'; treated as 'other'"),
            ("b", "missing year; defaulting to 0"),
            ("c", "missing year; defaulting to 0"),
            ("c", "unknown doc_type 'letter'; treated as 'other'"),
        ]
        assert_same_parse((corpus, report), oracle_parse_csv(text))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_jsonl_missing_year_warns_only_for_a_repeated_lines_accepted_record(self, newline):
        # b repeats a's fields text; JSONL checks the authors before the
        # year, so b reports its authors error and no year warning
        fields = ',"doc_type":"letter","subjects":["PHYS"],"authors":'
        text = newline.join(
            [
                '{"id":"a"' + fields + '[{"countries":["US"]}]}',
                '{"id":"b"' + fields + "[]}",
                '{"id":"c"' + fields + '[{"countries":["US"]}]}',
            ]
        )
        corpus, report = parse_jsonl(text)
        assert [r.id for r in corpus.records] == ["a", "c"]
        assert report.errors == [("b", "missing or empty authors")]
        assert report.warnings == [
            ("a", "missing year; defaulting to 0"),
            ("a", "unknown doc_type 'letter'; treated as 'other'"),
            ("c", "missing year; defaulting to 0"),
            ("c", "unknown doc_type 'letter'; treated as 'other'"),
        ]
        assert_same_parse((corpus, report), oracle_parse_jsonl(text))

    @pytest.mark.parametrize("authors_ok", [True, False], ids=["authors-ok", "authors-rejected"])
    @pytest.mark.parametrize("year", [None, "bad"], ids=["year-missing", "year-not-int"])
    @pytest.mark.parametrize("known", [False, True], ids=["new-fields", "known-fields"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_year_and_authors_check_order(self, fmt, known, year, authors_ok):
        # b is the case; with known fields, a holds the same fields piece
        # and good authors first, so b's fields are a memo hit when a is
        # accepted (year missing) and a miss when a is rejected (bad year)
        def line(rec_id, good_authors):
            if fmt == "csv":
                year_cell = "" if year is None else "20x6"
                return f"{rec_id},{year_cell},letter,PHYS,{'US' if good_authors else ''}"
            year_member = "" if year is None else ',"year":"2016"'
            authors = '[{"countries":["US"]}]' if good_authors else "[]"
            fields = ',"doc_type":"letter","subjects":["PHYS"],"authors":'
            return '{"id":"' + rec_id + '"' + year_member + fields + authors + "}"

        lines = ([line("a", True)] if known else []) + [line("b", authors_ok)]
        if fmt == "csv":
            text = "\n".join(["id,year,doc_type,subjects,author_countries", *lines])
            parse, oracle = parse_csv, oracle_parse_csv
        else:
            text = "\n".join(lines)
            parse, oracle = parse_jsonl, oracle_parse_jsonl
        year_warning = "missing year; defaulting to 0"
        type_warning = "unknown doc_type 'letter'; treated as 'other'"
        year_error = "year '20x6' is not an integer" if fmt == "csv" else "year '2016' is not an integer"
        authors_error = "missing or empty authors"
        errors, warnings = [], []
        for rec_id, good_authors in ([("a", True)] if known else []) + [("b", authors_ok)]:
            if year is None and good_authors:
                warnings += [(rec_id, year_warning), (rec_id, type_warning)]
            elif year is None:  # CSV checks the year first and warns for it
                warnings += [(rec_id, year_warning)] if fmt == "csv" else []
                errors.append((rec_id, authors_error))
            elif good_authors or fmt == "csv":
                errors.append((rec_id, year_error))
            else:  # JSONL checks the authors first
                errors.append((rec_id, authors_error))
        corpus, report = parse(text)
        assert report.errors == errors
        assert report.warnings == warnings
        assert_same_parse((corpus, report), oracle(text))

    def test_header_errors_match(self):
        for text in ["", "id,year\np1,2016", "\n"]:
            with pytest.raises(SchemaError) as ours:
                parse_csv(text)
            with pytest.raises(SchemaError) as reference:
                oracle_parse_csv(text)
            assert str(ours.value) == str(reference.value)


# JSONL lines rejected before their id is known, so named by line number
POSITION_JSONL = [
    ('{"year":2016,"authors":[{"countries":["US"]}]}', "missing or empty id"),
    ('{"id":7,"year":2016,"authors":[{"countries":["US"]}]}', "missing or empty id"),
    # compact lines: the id is read from the raw text, then found empty
    ('{"id":"","year":2016,"authors":[{"countries":["US"]}]}', "missing or empty id"),
    ('{"id":"  ","year":2016,"authors":[{"countries":["US"]}]}', "missing or empty id"),
    ("{nope", "malformed JSON: Expecting property name enclosed in double quotes"),
    ('["a",2016]', "record is not a JSON object"),
    ('"a"', "record is not a JSON object"),
    # compact lines whose author list does not decode
    ('{"id":"x1","year":2016,"authors":[{"countries":["US"]},]}', "malformed JSON: Expecting value"),
    ('{"id":"x2","year":2016,"authors":}', "malformed JSON: Expecting value"),
]


class TestRejectsNamedByPosition:
    """A record rejected before its id is known is named by its line or
    row number; one rejected after it, by its id."""

    @staticmethod
    def _ok(n: int) -> str:
        return '{"id":"ok' + str(n) + '","year":2016,"authors":[{"countries":["US"]}]}'

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("as_file", [False, True], ids=["text", "lines"])
    def test_jsonl(self, newline, as_file):
        # each case follows two blank lines and precedes an accepted record,
        # whose id the last line repeats
        lines, errors = [], []
        for n, (line, message) in enumerate(POSITION_JSONL):
            lines += ["", " \t", line, self._ok(n)]
            errors.append((f"line {len(lines) - 1}", message))
        lines.append(self._ok(0))
        errors.append(("ok0", "duplicate record id; first occurrence kept"))
        source = [line + newline for line in lines] if as_file else newline.join(lines)
        corpus, report = parse_jsonl(source)
        assert report.errors == errors
        assert [r.id for r in corpus.records] == [f"ok{n}" for n in range(len(POSITION_JSONL))]
        assert_same_parse((corpus, report), oracle_parse_jsonl(source))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("as_file", [False, True], ids=["text", "lines"])
    def test_csv_rows_are_counted_not_lines(self, newline, as_file):
        # each quoted subjects cell holds a newline, so the rows after it
        # start on later lines than their numbers say; the last id holds one too
        lines = [
            "id,year,doc_type,subjects,author_countries",
            'q1,2016,article,"PHYS',
            'CHEM",US',
            "p5,2016,article",
            "",
            'q2,2016,article,"PHYS',
            'MED",US',
            ",2016,article,PHYS,US",
            'q3,2016,article,"PHYS',
            'BIO",US',
            '"  ",2016,article,PHYS,US',
            "q1,2016,article,PHYS,US",
            '"q\r\n1",2016,article,PHYS,US',
        ]
        text = newline.join(lines)
        source = list(io.StringIO(text + newline, newline="")) if as_file else text
        corpus, report = parse_csv(source)
        assert report.errors == [
            ("row 3", "expected 5 columns, got 3"),
            ("row 6", "missing or empty id"),
            ("row 8", "missing or empty id"),
            ("q1", "duplicate record id; first occurrence kept"),
        ]
        assert [r.id for r in corpus.records] == ["q1", "q2", "q3", "q\r\n1"]
        assert corpus.records[0].subjects == {f"PHYS{newline}CHEM"}
        assert_same_parse((corpus, report), oracle_parse_csv(source))


# lines the json module refuses for their depth or an integer's length, not
# their syntax; the reference parser raises on them, so each has its own report.
# _TOO_LONG stands for the interpreter's digit-limit message, read when the
# test runs
_TOO_DEEP = "malformed JSON: nested too deeply"
_TOO_LONG = None
_DEEP = "[" * 200_000 + "]" * 200_000
HOSTILE_JSONL = [
    pytest.param('{"id":"h","year":2016,"authors":' + _DEEP + "}", _TOO_DEEP, id="deep-authors"),
    pytest.param('{"id":"h","year":2016,"subjects":' + _DEEP + ',"authors":[]}', _TOO_DEEP, id="deep-fields"),
    pytest.param('{"year":2016,"id":"h","authors":' + _DEEP + "}", _TOO_DEEP, id="deep-whole-line"),
    pytest.param(_DEEP, _TOO_DEEP, id="deep-array"),
    pytest.param('{"id":"h","year":' + "9" * 5000 + ',"authors":[{"countries":["US"]}]}', _TOO_LONG, id="long-year"),
    pytest.param('{"year":' + "9" * 5000 + ',"id":"h","authors":[{"countries":["US"]}]}', _TOO_LONG, id="long-year-whole-line"),
    pytest.param('{"id":"h","year":2016,"authors":[{"countries":[' + "1" * 5000 + "]}]}", _TOO_LONG, id="long-in-authors"),
]


class TestHostileLines:
    """A hostile line is one reject named by its line; the records around it
    are accepted."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("as_file", [False, True], ids=["text", "lines"])
    @pytest.mark.parametrize("line, message", HOSTILE_JSONL)
    def test_jsonl(self, line, message, newline, as_file):
        if message is _TOO_LONG:
            message = "malformed JSON: " + digit_limit_message(5000)
        lines = [_row("g1"), line, _row("g3")]
        source = [x + newline for x in lines] if as_file else newline.join(lines)
        corpus, report = parse_jsonl(source)
        assert report.errors == [("line 2", message)]
        assert (report.records_accepted, report.records_rejected) == (2, 1)
        assert [r.id for r in corpus.records] == ["g1", "g3"]
        assert report.warnings == []

    def test_csv_year_past_the_digit_limit_is_rejected_by_id(self):
        digit_limit_message(5000)
        year = "9" * 5000
        corpus, report = parse_csv(
            "id,year,doc_type,subjects,author_countries\n"
            f"g1,2016,article,PHYS,US\nh,{year},article,PHYS,US\ng3,2016,article,PHYS,US\n"
        )
        assert report.errors == [("h", f"year '{'9' * 80}…' (5,000 characters) is not an integer")]
        assert [r.id for r in corpus.records] == ["g1", "g3"]


class TestQuotedValuesAreBounded:
    """A message quotes at most 80 characters of a raw value, then its length."""

    def test_the_bound(self):
        assert _QUOTE_CHARS == 80

    def test_a_value_of_80_characters_is_quoted_whole(self):
        doc_type = "d" * 80
        _, report = parse_jsonl(_row("p", doc_type=doc_type))
        assert report.warnings == [("p", f"unknown doc_type {doc_type!r}; treated as 'other'")]

    def test_jsonl_values(self):
        ones, quoted = "[" + "1, " * 26 + "1…", "it's"
        lines = [
            _row("a", doc_type="d" * 81),
            _row("b", doc_type=[1] * 40),
            _row("c", year="y" * 5000),
            _row("d", authors=[{"countries": ["c" * 300]}]),
            _row("e", doc_type=quoted * 30),
        ]
        _, report = parse_jsonl("\n".join(lines))
        assert report.errors == [("c", f"year '{'y' * 80}…' (5,000 characters) is not an integer")]
        assert report.warnings == [
            ("a", f"unknown doc_type '{'d' * 80}…' (81 characters); treated as 'other'"),
            ("b", f"doc_type {ones} (120 characters) is not a string; treated as 'other'"),
            ("d", f"country '{'c' * 80}…' (300 characters) is not a recognized name or two-letter code"),
            ("e", f"unknown doc_type \"{quoted * 20}…\" (120 characters); treated as 'other'"),
        ]

    def test_csv_header(self):
        header = "id,year,doc_type,subjects," + "a" * 100
        with pytest.raises(SchemaError) as info:
            parse_csv(header + "\n")
        cut = "['id', 'year', 'doc_type', 'subjects', '" + "a" * 40 + "…"
        assert str(info.value) == (
            f"bad CSV header {cut} (142 characters); "
            "expected id,year,doc_type,subjects,author_countries"
        )

    def test_writer_refusals(self):
        code = "s;" + "s" * 98
        with pytest.raises(ValueError) as info:
            to_csv(Corpus((rec("p", ["US"], subjects=[code]),)))
        assert str(info.value) == (
            f"subject code 's;{'s' * 78}…' (100 characters) contains reserved delimiter ';'; "
            "cannot be serialized losslessly"
        )
        rec_id = "r" * 99 + "\ud800"
        with pytest.raises(ValueError) as info:
            to_csv(Corpus((rec(rec_id, ["US"]),)))
        assert str(info.value) == (
            f"record id '{'r' * 80}…' (100 characters) contains lone surrogate '\\ud800'; "
            "UTF-8 cannot encode it"
        )


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
        assert a.subjects is b.subjects

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

    def test_repeated_compact_lines_share_the_objects_of_their_first(self):
        # to_jsonl's compact form, a repeat of it, and the same author list
        # and subjects written with spaces
        lines = [
            '{"id":"%s","year":2016,"subjects":["PHYS"],"authors":[{"countries":["US"]},{"countries":[]}]}' % i
            for i in "abc"
        ]
        lines.append('{"id": "d", "subjects": ["PHYS"], "authors": [{"countries": ["US"]}, {"countries": []}]}')
        first, _ = parse_jsonl("\n".join(lines))
        assert len({id(r.authors) for r in first.records}) == 1
        assert len({id(r.subjects) for r in first.records}) == 1
        assert len({id(a) for r in first.records for a in r.authors}) == 2
        second, _ = parse_jsonl("\n".join(lines))
        assert second.records == first.records
        assert second.records[0].authors is not first.records[0].authors
        assert second.records[0].subjects is not first.records[0].subjects
        assert not {id(a) for a in first.records[0].authors} & {id(a) for a in second.records[0].authors}

    def test_repeated_csv_rows_share_the_objects_of_their_first(self):
        text = "id,year,doc_type,subjects,author_countries\n" + "".join(
            f"{i},2016,article,PHYS;MED,US+GB|ZZ\n" for i in "abc"
        )
        first, _ = parse_csv(text)
        assert len({id(r.subjects) for r in first.records}) == 1
        assert len({id(r.authors) for r in first.records}) == 1
        second, _ = parse_csv(text)
        assert second.records == first.records
        assert second.records[0].subjects is not first.records[0].subjects
        assert second.records[0].authors is not first.records[0].authors
        assert not {id(a) for a in first.records[0].authors} & {id(a) for a in second.records[0].authors}

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


class _Discard(object):
    def write(self, text: str) -> None:
        pass


C = _CHUNK_LINES


@pytest.fixture(scope="module")
def synth_20k():
    return generate(SynthParams(seed=3, n_records=20_000))


class TestStreamedWriters:
    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 1])
    @pytest.mark.parametrize(
        "write, oracle, header", [(to_jsonl, oracle_to_jsonl, 0), (to_csv, oracle_to_csv, 1)], ids=["jsonl", "csv"]
    )
    def test_streamed_text_is_the_returned_text(self, synth_20k, n, write, oracle, header):
        corpus = Corpus(synth_20k.records[:n])
        sink = _Sink()
        assert write(corpus, sink) is None
        text = write(corpus)
        assert "".join(sink.writes) == text == oracle(corpus)
        # full chunks, then the rest; an empty JSONL output writes nothing
        lines = n + header
        assert [w.count("\n") for w in sink.writes] == [C] * (lines // C) + [lines % C] * (lines % C > 0)

    def test_refused_csv_writes_nothing(self, synth_20k):
        # the one refused value is on the last record, after two full chunks
        corpus = Corpus(synth_20k.records[: 2 * C] + (rec("last", ["US"], subjects=("X;Y",)),))
        sink = _Sink()
        with pytest.raises(ValueError) as raised:
            to_csv(corpus, sink)
        assert str(raised.value) == (
            "subject code 'X;Y' contains reserved delimiter ';'; cannot be serialized losslessly"
        )
        assert sink.writes == []

    # the 2k peak holds that corpus's whole text and the 20k one a chunk of
    # C lines: 0.8 MB (JSONL) and 0.4 MB (CSV) more, where returning the 20k
    # text would take 5.6 MB and 1.25 MB more
    @pytest.mark.parametrize("write, margin_mb", [(to_jsonl, 2.0), (to_csv, 0.75)], ids=["jsonl", "csv"])
    def test_memory_held_is_a_chunk_not_the_output(self, synth_20k, write, margin_mb):
        def peak(corpus):
            tracemalloc.start()
            try:
                write(corpus, _Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = Corpus(synth_20k.records[:2000])
        assert peak(synth_20k) <= peak(small) + margin_mb * 1e6


class TestParseMemory:
    def test_peak_per_record(self, synth_20k):
        # slotted records and no id table beside the batch's: about 180 B a
        # record, where an instance dict per record and an id set took 350
        text = to_jsonl(synth_20k)
        tracemalloc.start()
        try:
            corpus, _ = parse_jsonl(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == len(synth_20k)
        assert peak <= 240 * len(synth_20k)

    def test_transient_peak_per_record_with_ids_in_order(self, synth_20k):
        # ids in order need no id table: above what the parse keeps, its
        # peak holds the record list and the corpus's tuple, about 23 B a
        # record, where an id-keyed dict took 35
        text = to_jsonl(synth_20k)
        tracemalloc.start()
        try:
            corpus, _ = parse_jsonl(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.id for r in corpus] == sorted(r.id for r in synth_20k)
        assert peak - retained <= 28 * len(synth_20k)


class TestApplyFilter:
    def test_year_filter(self):
        years = [2016] * 7 + [2015] * 3
        corpus = Corpus(tuple(rec(f"p{i}", ["US"], year=y) for i, y in enumerate(years)))
        assert len(apply_filter(corpus, years={2016})) == 7

    def test_years_are_a_set_not_a_range(self):
        corpus = Corpus(tuple(rec(f"p{y}", ["US"], year=y) for y in (2015, 2016, 2017)))
        kept = apply_filter(corpus, years={2015, 2017})
        assert [r.year for r in kept.records] == [2015, 2017]

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

    def test_a_filter_that_keeps_every_record_returns_the_corpus(self, mixed_corpus):
        shuffled = Corpus(mixed_corpus.records[::-1], mixed_corpus.scheme)
        for corpus in (mixed_corpus, shuffled):
            assert apply_filter(corpus, years={2016}, doc_types=DEFAULT_DOC_TYPES) is corpus


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
