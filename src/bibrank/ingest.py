"""Record ingestion: JSONL and CSV parsing, validation, filtering, writing.

Two record stream formats are supported and round-trip into identical
analysis results:

JSONL, one object per line::

    {"id": "p1", "year": 2016, "doc_type": "article",
     "subjects": ["PHYS"], "authors": [{"countries": ["IN", "US"]}]}

CSV with the exact header ``id,year,doc_type,subjects,author_countries``,
subjects separated by ``;``, authors by ``|``, and countries within one
author by ``+``. An author with no resolvable country is written as the
literal ``ZZ``::

    id,year,doc_type,subjects,author_countries
    p1,2016,article,PHYS;CHEM,IN+US|GB|ZZ

Malformed rows are rejected individually and listed in the validation
report; only a broken header or a row that ``csv`` cannot read is fatal.

Both parsers take the whole text or an iterable of lines, such as an open
file, and read it once. JSONL text splits into lines on ``\\n`` only, with a
trailing ``\\r`` dropped, so U+2028, U+0085 and the other characters that
``to_jsonl`` writes raw inside strings survive the round trip. CSV lines
keep their endings, so quoted fields may hold newlines. The command line
reads a file or stdin as a stream whose lines also end at a bare ``\\r``.

Each JSONL line is decoded by the ``json`` module's scanner (its C
implementation where available) without the ``json.loads`` wrappers: the
value may follow JSON whitespace only and be followed by JSON whitespace
only, as ``json.loads`` requires. A line that fails either test is handed
to ``json.loads`` itself, so every error is the one it raises, the
"Unexpected UTF-8 BOM" and "Extra data" ones included.

Both formats are tokenized into the JSONL object shape and checked by one
record builder. Within one parse call, authors with equal raw country lists
share one interned :class:`AuthorRef`, records with equal raw author lists
share one ``authors`` tuple and records with equal raw subject lists share
one subject set; all are immutable, so the sharing is safe. A shared author
list keeps its warnings, which are reported again for every record that
holds it. CSV looks the raw ``author_countries`` cell up first, so a
repeated cell is neither split nor checked again.
The writers serialize each distinct subject set and author country set
once per call and reuse the text for every record that holds it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import partial
from json.decoder import WHITESPACE
from typing import Any, Callable, Iterable, Iterator

from .errors import SchemaError
from .model import (
    AuthorRef,
    Corpus,
    DocType,
    EMPTY_SCHEME,
    PublicationRecord,
    SubjectScheme,
    UNRESOLVED,
    is_country_code,
    normalize_country,
)

CSV_HEADER = ["id", "year", "doc_type", "subjects", "author_countries"]
AGGREGATE_HEADER = ["country", "wc", "fc", "icp"]
GROUP_RANKS_HEADER = ["country", "group", "tp", "rank"]

DEFAULT_DOC_TYPES = frozenset(
    {DocType.ARTICLE, DocType.REVIEW, DocType.CONFERENCE_PAPER}
)
"""Document types kept by the default analysis filter."""

_WIRE_DOC_TYPES = {d.value: d for d in DocType}


@dataclass
class ValidationReport(object):
    """Outcome of parsing a record stream.

    ``errors`` and ``warnings`` are ``(record_ref, message)`` pairs where
    ``record_ref`` is the record id when available and a ``line N`` / ``row N``
    marker otherwise. Accepted plus rejected always equals the number of
    non-blank input records.
    """

    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)
    records_accepted: int = 0
    records_rejected: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


def _csv_rows(
    source: str | Iterable[str], expected_header: list[str]
) -> Iterator[tuple[int, list[str]]]:
    """Check the header row, then yield each non-blank row with its number."""
    # csv.reader needs the line endings to keep newlines inside quoted fields
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    rownum = 0  # rows read so far, the header included
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: expected a CSV header row")
        if [h.strip() for h in header] != expected_header:
            raise SchemaError(
                f"bad CSV header {header!r}; expected {','.join(expected_header)}"
            )
        rownum = 1
        for rownum, row in enumerate(reader, start=2):
            if row and any(cell.strip() for cell in row):
                yield rownum, row
    except csv.Error as exc:
        raise SchemaError(f"row {rownum + 1}: {exc}") from None


_Authors = tuple[tuple[AuthorRef, ...], tuple[str, ...]]


class _Slot(object):
    """One distinct raw author of a parse: its interned author and warnings.

    Hashed and compared by identity, so a tuple of slots is a cheap key for
    the author list that holds them.
    """

    __slots__ = ("author", "warnings")

    def __init__(self, author: AuthorRef, warnings: tuple[str, ...]) -> None:
        self.author = author
        self.warnings = warnings


class _Batch(object):
    """State of one parse call: report, accepted records and interning memos.

    Each parse creates its own batch and drops it on return, so no two
    parses share a memo. Interned values are immutable, so sharing one
    ``AuthorRef``, ``authors`` tuple or subject set between records is safe.
    """

    def __init__(self) -> None:
        self.report = ValidationReport()
        self.records: list[PublicationRecord] = []
        self.seen_ids: set[str] = set()
        # raw author country tuple -> its slot
        self.authors: dict[tuple[str, ...], _Slot] = {}
        # normalized country set -> the one AuthorRef that carries it
        self.refs: dict[frozenset[str], AuthorRef] = {}
        self.build_author = partial(_author, self.refs)
        # raw subject tuple -> interned subject set
        self.subjects: dict[tuple[str, ...], frozenset[str]] = {}
        # an author list's slots -> its shared authors tuple and warnings
        self.author_lists: dict[tuple[_Slot, ...], _Authors] = {}
        # raw CSV author_countries cell -> the same
        self.author_cells: dict[str, _Authors] = {}

    def reject(self, ref: str, message: str) -> None:
        self.report.errors.append((ref, message))
        self.report.records_rejected += 1

    def finish(
        self, scheme: SubjectScheme | None, provenance: str
    ) -> tuple[Corpus, ValidationReport]:
        return Corpus(tuple(self.records), scheme or EMPTY_SCHEME, provenance), self.report


def _take_doc_type(raw: Any, ref: str, report: ValidationReport) -> DocType:
    # unknown or missing types degrade to OTHER with a warning: they are
    # representable, just excluded by the default analysis filter
    if raw is None or raw == "":
        report.warnings.append((ref, "missing doc_type; treated as 'other'"))
        return DocType.OTHER
    if not isinstance(raw, str):
        report.warnings.append((ref, f"doc_type {raw!r} is not a string; treated as 'other'"))
        return DocType.OTHER
    dt = _WIRE_DOC_TYPES.get(raw.strip().lower())
    if dt is None:
        report.warnings.append((ref, f"unknown doc_type {raw!r}; treated as 'other'"))
        return DocType.OTHER
    return dt


def _take_year(raw: Any, ref: str, batch: _Batch) -> int | None:
    """The year, 0 with a warning when missing; None when the row is rejected."""
    if raw is None:
        batch.report.warnings.append((ref, "missing year; defaulting to 0"))
        return 0
    if isinstance(raw, bool) or not isinstance(raw, int):
        batch.reject(ref, f"year {raw!r} is not an integer")
        return None
    return raw


def _interned(
    memo: dict[tuple[str, ...], Any], raw: list[Any], build: Callable[[tuple[str, ...]], Any]
) -> Any:
    """``memo[tuple(raw)]``, built on a miss; None when ``raw`` holds a non-string.

    A hit needs no type check: the key was all strings when stored, and no
    other JSON value compares equal to a string.
    """
    key = tuple(raw)
    try:
        return memo[key]
    except KeyError:
        if not all(isinstance(v, str) for v in key):
            return None
        value = memo[key] = build(key)
        return value
    except TypeError:  # unhashable: a nested list or object
        return None


def _author(refs: dict[frozenset[str], AuthorRef], raw: tuple[str, ...]) -> _Slot:
    # runs once per distinct raw country tuple of a parse
    warnings = []
    for code in raw:
        norm = normalize_country(code)
        if norm != UNRESOLVED and not is_country_code(norm):
            warnings.append(f"country {code!r} is not a recognized name or two-letter code")
    author = AuthorRef.from_raw(raw)
    author = refs.setdefault(author.countries, author)
    if author.unresolved:
        warnings.append("author with no resolvable country; credited to ZZ")
    return _Slot(author, tuple(warnings))


def _take_authors(raw: Any, ref: str, batch: _Batch) -> _Authors | None:
    """Shared authors tuple and its warnings; None when the row is rejected."""
    if not isinstance(raw, list) or not raw:
        batch.reject(ref, "missing or empty authors")
        return None
    build = batch.build_author
    slots = []
    for entry in raw:
        if not isinstance(entry, dict):
            batch.reject(ref, "author entry is not an object")
            return None
        countries = entry.get("countries", [])
        slot = _interned(batch.authors, countries, build) if isinstance(countries, list) else None
        if slot is None:
            batch.reject(ref, "author countries must be a list of strings")
            return None
        slots.append(slot)
    key = tuple(slots)
    taken = batch.author_lists.get(key)
    if taken is None:
        taken = batch.author_lists[key] = (
            tuple([slot.author for slot in slots]),
            tuple([message for slot in slots for message in slot.warnings]),
        )
    return taken


def _take_author_cell(cell: str, ref: str, batch: _Batch) -> _Authors | None:
    """:func:`_take_authors` of a CSV ``author_countries`` cell, once per distinct cell."""
    taken = batch.author_cells.get(cell)
    if taken is None:
        tokens = [
            {"countries": [c for c in token.split("+") if c.strip()]}
            for token in (cell.split("|") if cell else ())
        ]
        taken = _take_authors(tokens, ref, batch)
        # a rejected cell is not stored: each row holding it reports its error
        if taken is not None:
            batch.author_cells[cell] = taken
    return taken


def _subject_set(raw: tuple[str, ...]) -> frozenset[str]:
    return frozenset(s.strip() for s in raw if s.strip())


def _build_record(
    batch: _Batch,
    ref: str,
    row: dict[str, Any],
    *,
    year_first: bool = False,
    take_authors: Callable[[Any, str, _Batch], _Authors | None] = _take_authors,
) -> None:
    """Check one tokenized row; append its record to ``batch`` or reject it.

    ``row`` has the JSONL object shape; CSV rows are tokenized into it, but
    for the raw ``author_countries`` cell, which ``take_authors`` reads. CSV
    checks the year before the authors and JSONL after them (``year_first``);
    the order decides which error a row with several problems reports.
    """
    rec_id = row.get("id")
    if not isinstance(rec_id, str) or not rec_id.strip():
        batch.reject(ref, "missing or empty id")
        return
    rec_id = ref = rec_id.strip()
    if rec_id in batch.seen_ids:
        batch.reject(ref, "duplicate record id; first occurrence kept")
        return

    if year_first and (year := _take_year(row.get("year"), ref, batch)) is None:
        return
    taken = take_authors(row.get("authors"), ref, batch)
    if taken is None:
        return
    if not year_first and (year := _take_year(row.get("year"), ref, batch)) is None:
        return
    raw_subjects = row.get("subjects", [])
    subjects = (
        _interned(batch.subjects, raw_subjects, _subject_set)
        if isinstance(raw_subjects, list)
        else None
    )
    if subjects is None:
        batch.reject(ref, "subjects must be a list of strings")
        return

    report = batch.report
    doc_type = _take_doc_type(row.get("doc_type"), ref, report)
    authors, warnings = taken
    for message in warnings:
        report.warnings.append((ref, message))
    batch.records.append(
        PublicationRecord(
            id=rec_id, year=year, doc_type=doc_type, subjects=subjects, authors=authors
        )
    )
    batch.seen_ids.add(rec_id)
    report.records_accepted += 1


_scan = json.JSONDecoder().scan_once
_skip_whitespace = WHITESPACE.match


def _decode(line: str) -> Any:
    """The JSON value of one line, as ``json.loads`` gives it or raises.

    ``line`` may keep its ending. The decoder's scanner reads the value
    after any leading JSON whitespace, and only JSON whitespace may follow
    it. On any miss, ``json.loads`` runs on the line without its ending, so
    every error is the one it raises.
    """
    try:
        value, end = _scan(line, _skip_whitespace(line, 0).end())
    except (StopIteration, ValueError):
        pass
    else:
        if _skip_whitespace(line, end).end() == len(line):
            return value
    return json.loads(line.rstrip("\n").rstrip("\r"))


def _split_lines(text: str) -> Iterator[str]:
    """``text.split("\\n")``, one line at a time.

    A string splits on ``"\\n"`` only: ``to_jsonl`` writes U+2028, U+0085 and
    the other characters ``str.splitlines()`` also breaks on raw inside
    strings. Yielding the lines one by one keeps a second copy of the whole
    text out of memory while its records are built.
    """
    start = 0
    find = text.find
    while (end := find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def parse_jsonl(
    source: str | Iterable[str],
    *,
    scheme: SubjectScheme | None = None,
    provenance: str = "jsonl",
) -> tuple[Corpus, ValidationReport]:
    """Parse a JSONL record stream.

    ``source`` is the whole text or an iterable of lines, such as an open
    file; it is read once, line by line. Returns the corpus of accepted
    records plus a validation report. Rows missing ``id`` or ``authors`` are
    rejected; missing ``year``/``doc_type`` degrade with a warning. Blank
    lines are ignored.
    """
    batch = _Batch()
    for lineno, line in enumerate(
        _split_lines(source) if isinstance(source, str) else source, start=1
    ):
        if not line.strip():
            continue
        ref = f"line {lineno}"
        try:
            obj = _decode(line)
        except json.JSONDecodeError as exc:
            batch.reject(ref, f"malformed JSON: {exc.msg}")
            continue
        if not isinstance(obj, dict):
            batch.reject(ref, "record is not a JSON object")
            continue
        _build_record(batch, ref, obj)
    return batch.finish(scheme, provenance)


def _csv_year(raw: str) -> int | str | None:
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw  # rejected by _build_record, quoted as written


def parse_csv(
    source: str | Iterable[str],
    *,
    scheme: SubjectScheme | None = None,
    provenance: str = "csv",
) -> tuple[Corpus, ValidationReport]:
    """Parse the CSV record format; see the module docstring for the layout.

    ``source`` is the whole text or an iterable of lines that keep their
    endings, such as a file opened with ``newline=""``. A wrong header, or a
    row that ``csv`` cannot read, raises :class:`SchemaError`; other row-level
    problems reject only that row.
    """
    batch = _Batch()
    for rownum, row in _csv_rows(source, CSV_HEADER):
        ref = f"row {rownum}"
        if len(row) != len(CSV_HEADER):
            batch.reject(ref, f"expected {len(CSV_HEADER)} columns, got {len(row)}")
            continue
        rec_id, raw_year, raw_doc, raw_subjects, raw_authors = (c.strip() for c in row)
        tokens = {
            "id": rec_id,
            "year": _csv_year(raw_year),
            "doc_type": raw_doc,
            "subjects": raw_subjects.split(";"),
            "authors": raw_authors,
        }
        _build_record(batch, ref, tokens, year_first=True, take_authors=_take_author_cell)
    return batch.finish(scheme, provenance)


# ---------------------------------------------------------------------------
# writers


def _check_clean(value: str, what: str, reserved: str) -> str:
    for ch in reserved:
        if ch in value:
            raise ValueError(
                f"{what} {value!r} contains reserved delimiter {ch!r}; "
                "cannot be serialized losslessly"
            )
    return value


class _Cells(dict):
    """Per-call memo of serialized cells: ``build(key)`` runs once per distinct key.

    Equal keys serialize to equal text, so records that share a subject set
    or an author country set share its cell, and any check inside ``build``
    runs on the first record holding the value.
    """

    def __init__(self, build: Callable[[Any], str]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: Any) -> str:
        cell = self[key] = self.build(key)
        return cell


def to_jsonl(corpus: Corpus) -> str:
    """Serialize a corpus to JSONL, one record per line.

    Subjects and per-author countries are emitted sorted so that equal
    corpora serialize to identical bytes.
    """
    # each line is the text json.dumps(obj, separators=(",", ":"),
    # ensure_ascii=False) gives for the record object, assembled from cells
    # encoded the same way; authors are keyed by their country sets, whose
    # hash a frozenset caches, rather than by the AuthorRef tuple
    encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
    # the year's class is part of the key: True == 1 and 2016.0 == 2016
    # compare equal but encode differently
    middle = _Cells(lambda key: f'"year":{encode(key[1])},"doc_type":{encode(key[2].value)}')
    subjects = _Cells(lambda codes: encode(sorted(codes)))
    authors = _Cells(lambda countries: encode({"countries": sorted(countries)}))
    return "".join(
        f'{{"id":{encode(r.id)},{middle[r.year.__class__, r.year, r.doc_type]},'
        f'"subjects":{subjects[r.subjects]},'
        f'"authors":[{",".join([authors[a.countries] for a in r.authors])}]}}\n'
        for r in corpus.records
    )


def _csv_subjects(codes: frozenset[str]) -> str:
    return ";".join(_check_clean(s, "subject code", ";|+") for s in sorted(codes))


def _csv_author(countries: frozenset[str]) -> str:
    cleaned = (_check_clean(c, "country code", ";|+") for c in sorted(countries))
    return "+".join(cleaned) or UNRESOLVED


def to_csv(corpus: Corpus) -> str:
    """Serialize a corpus to the CSV record format.

    Unresolved authors are written as the literal ``ZZ``. Subject codes and
    country codes must not contain the ``;``, ``|`` or ``+`` delimiters.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv quotes a field only for the characters of its own line terminator,
    # but its reader also ends a row at a bare "\r": quote such rows whole
    quoting_writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CSV_HEADER)
    subject_cells = _Cells(_csv_subjects)
    author_cells = _Cells(_csv_author)
    for record in corpus.records:
        subjects = subject_cells[record.subjects]
        authors = "|".join([author_cells[a.countries] for a in record.authors])
        row = [record.id, record.year, record.doc_type.value, subjects, authors]
        if "\r" in record.id or "\r" in subjects or "\r" in authors:
            quoting_writer.writerow(row)
        else:
            writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# filtering


def apply_filter(
    corpus: Corpus,
    years: Iterable[int] | None = None,
    doc_types: Iterable[DocType] | None = None,
) -> Corpus:
    """Restrict a corpus to the given years and document types.

    An empty or ``None`` dimension means no constraint on it. Record order
    is preserved and the scheme/provenance carry over.
    """
    year_set = set(years) if years else None
    type_set = set(doc_types) if doc_types else None
    kept = tuple(
        r
        for r in corpus.records
        if (year_set is None or r.year in year_set)
        and (type_set is None or r.doc_type in type_set)
    )
    return Corpus(kept, corpus.scheme, corpus.provenance)


# ---------------------------------------------------------------------------
# aggregate fixture schemas


@dataclass(frozen=True)
class CountryAggregate(object):
    """One row of a ``country,wc,fc,icp`` aggregate table."""

    country: str
    wc: float
    fc: float
    icp: int


@dataclass(frozen=True)
class GroupRankRow(object):
    """One row of a ``country,group,tp,rank`` table."""

    country: str
    group: str
    tp: float
    rank: float


def _strict_rows(
    source: str | Iterable[str], expected_header: list[str]
) -> Iterable[list[str]]:
    for rownum, row in _csv_rows(source, expected_header):
        if len(row) != len(expected_header):
            raise SchemaError(
                f"row {rownum}: expected {len(expected_header)} columns, got {len(row)}"
            )
        yield row


def parse_aggregate_csv(source: str | Iterable[str]) -> list[CountryAggregate]:
    """Parse a ``country,wc,fc,icp`` table. Any malformed row is fatal."""
    out = []
    for row in _strict_rows(source, AGGREGATE_HEADER):
        country, wc, fc, icp = (c.strip() for c in row)
        try:
            out.append(CountryAggregate(country, float(wc), float(fc), int(icp)))
        except ValueError as exc:
            raise SchemaError(f"bad aggregate row for {country!r}: {exc}") from None
    return out


def parse_group_ranks_csv(source: str | Iterable[str]) -> list[GroupRankRow]:
    """Parse a ``country,group,tp,rank`` table. Any malformed row is fatal."""
    out = []
    for row in _strict_rows(source, GROUP_RANKS_HEADER):
        country, group, tp, rank = (c.strip() for c in row)
        try:
            out.append(GroupRankRow(country, group, float(tp), float(rank)))
        except ValueError as exc:
            raise SchemaError(f"bad rank row for {country!r}/{group!r}: {exc}") from None
    return out
