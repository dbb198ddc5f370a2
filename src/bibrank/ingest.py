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

Both formats are read by one piece reader, and one record checker,
``_take_record``, accepts or rejects every record. A record is an id, a
fields piece and an authors piece. Each piece is looked up first among the
pieces of records already accepted in this parse; a known piece is not
decoded again, and a known authors piece is not checked again. Unknown
pieces are decoded into the JSONL object shape by their format's decoders.
The checker checks the id, then the year and the authors, then the
subjects, in that order whether the pieces are known or new. CSV checks
the year before the authors and JSONL after them, so only a CSV row warns
for a missing year when its authors are then rejected. A JSONL line with an
id in order and both pieces known, its year an int, skips the checks it would
pass. A parse given the private sink builds no record and returns an empty corpus.

A CSV row's pieces are its stripped ``(year, doc_type, subjects)`` cells
and its stripped ``author_countries`` cell. A JSONL line in the compact
form ``to_jsonl`` writes, ``{"id":"…",`` + fields + ``,"authors":`` + author
list + ``}``, has its id read as the decoder reads a string, and its
pieces are the fields text and the author-list text; decoded, they give
the object ``json.loads`` gives for the line. Any other line is decoded
whole. The ``json`` module's scanner (its C implementation where
available) decodes JSONL without the ``json.loads`` wrappers: a whole
line's value may follow JSON whitespace only and be followed by JSON
whitespace only, as ``json.loads`` requires. A line that fails any of
these tests is handed to ``json.loads`` itself, so every error is the one
it raises, the "Unexpected UTF-8 BOM" and "Extra data" ones included. A
line nested too deeply for the decoder, or holding an integer longer than
the interpreter converts, is one malformed line too, named by its number.

Within one parse call, authors with equal raw country lists share one
interned :class:`AuthorRef`, records with equal raw author lists share one
``authors`` tuple and records with equal raw subject lists share one
subject set; all are immutable, so the sharing is safe. A shared author
list or fields piece keeps its warnings, which are reported again for
every record that holds it.
The writers serialize each distinct subject set and author country set
once per call and reuse the text for every record that holds it. Given an
output stream, a writer writes its text there a fixed number of lines at a
time instead of returning it, so it holds one chunk, not the whole output.
``to_csv`` builds every cell before its first write, so a value it refuses
leaves the stream untouched.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from json.decoder import WHITESPACE
from typing import Any, Callable, Iterable, Iterator, Protocol, overload

from .errors import SchemaError
from .model import (
    AuthorRef,
    Corpus,
    DocType,
    EMPTY_SCHEME,
    PublicationRecord,
    SubjectScheme,
    UNRESOLVED,
    _Counted,
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

# a message quotes at most this many characters of a raw value
_QUOTE_CHARS = 80


def _quote(raw: Any) -> str:
    """``repr(raw)``, or past ``_QUOTE_CHARS`` characters its head, ``…`` and its length.

    A string counts its own characters and keeps its quotes; any other value
    counts those of its repr.
    """
    text = raw if isinstance(raw, str) else repr(raw)
    if len(text) <= _QUOTE_CHARS:
        return repr(raw)
    head = text[:_QUOTE_CHARS] + "…"
    if isinstance(raw, str):
        head = repr(head)
    return f"{head} ({len(text):,} characters)"


@dataclass
class ValidationReport(object):
    """Outcome of parsing a record stream.

    ``errors`` and ``warnings`` are ``(record_ref, message)`` pairs where
    ``record_ref`` is the record id, or ``line N`` / ``row N`` for a record
    rejected before its id is known. Accepted plus rejected always equals
    the number of non-blank input records.
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
                f"bad CSV header {_quote(header)}; expected {','.join(expected_header)}"
            )
        rownum = 1
        for rownum, row in enumerate(reader, start=2):
            if row and any(cell.strip() for cell in row):
                yield rownum, row
    except csv.Error as exc:
        raise SchemaError(f"row {rownum + 1}: {exc}") from None


_Authors = tuple[tuple[AuthorRef, ...], tuple[str, ...]]
# a record's raw year, its doc type, its interned subject set (None when the
# subjects are not a list of strings) and the doc type's warnings
_Fields = tuple[Any, DocType, frozenset[str] | None, tuple[str, ...]]


_FEED_RECORDS = 1024  # accepted records a parse hands its sink at a time


class _Unordered(Exception):
    """A parse given a sink met an id not greater than the last one accepted."""


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

    ``records`` lists the accepted records in acceptance order while each
    accepted id is greater than the one before: a new id greater than
    ``last_id``, the last one accepted, is no repeat, so no table of ids is
    needed. The first new id that is not greater moves the records into
    ``by_id``, a dict from each accepted id to its record in acceptance
    order, in which that id and every later one is looked up. A rejected
    record's id is neither ``last_id`` nor a key. A reject given no id
    names the ``unit`` and ``number`` of the line or row that the parse
    loop is reading. Given a ``sink``, ``records`` holds ``_Counted`` tuples and
    goes to it at each ``_FEED_RECORDS`` and at the end; an id not greater raises ``_Unordered``.

    Each parse creates its own batch and drops it on return, so no two
    parses share a memo. Interned values are immutable, so sharing one
    ``AuthorRef``, ``authors`` tuple or subject set between records is safe.
    """

    def __init__(self, unit: str, sink: Callable[[list[_Counted]], object] | None) -> None:
        self.report = ValidationReport()
        self.unit = unit
        self.number = 0
        self.records: list[Any] = []
        self.sink = sink
        self.last_id = ""
        self.by_id: dict[str, PublicationRecord] | None = None
        # raw author country tuple -> its slot
        self.authors: dict[tuple[str, ...], _Slot] = {}
        # normalized country set -> the one AuthorRef that carries it
        self.refs: dict[frozenset[str], AuthorRef] = {}
        self.build_author = partial(_author, self.refs)
        # raw subject tuple -> interned subject set
        self.subjects: dict[tuple[str, ...], frozenset[str]] = {}
        # an author list's slots -> its shared authors tuple and warnings
        self.author_lists: dict[tuple[_Slot, ...], _Authors] = {}
        # fields piece -> _Fields: the JSONL text between a compact line's id
        # and its authors, or a CSV row's (year, doc_type, subjects) cells
        self.fields: dict[str | tuple[str, str, str], _Fields] = {}
        # authors piece -> the same as author_lists: the JSONL text of a
        # compact line's author list and closing brace, or a CSV row's
        # author_countries cell
        self.author_texts: dict[str, _Authors] = {}

    def reject(self, rec_id: str | None, message: str) -> None:
        ref = f"{self.unit} {self.number}" if rec_id is None else rec_id
        self.report.errors.append((ref, message))
        self.report.records_rejected += 1

    def accept(self, rec_id: str, year: int, fields: _Fields, taken: _Authors) -> None:
        """Report a checked record's warnings, then add it, or its tuple for a sink."""
        _, doc_type, subjects, warnings = fields
        for message in warnings + taken[1]:
            self.report.warnings.append((rec_id, message))
        self.report.records_accepted += 1
        if self.by_id is not None:
            self.by_id[rec_id] = PublicationRecord(rec_id, year, doc_type, subjects, taken[0])
        elif self.sink is None:
            self.records.append(PublicationRecord(rec_id, year, doc_type, subjects, taken[0]))
            self.last_id = rec_id
        else:
            self.records.append((year, doc_type, subjects, taken[0]))
            self.last_id = rec_id
            if len(self.records) == _FEED_RECORDS:
                self.sink(self.records)
                self.records.clear()

    def finish(
        self, scheme: SubjectScheme | None, provenance: str
    ) -> tuple[Corpus, ValidationReport]:
        if self.sink is not None:  # the last partial list; the corpus is left empty
            self.sink(self.records)
            self.records.clear()
        records = tuple(self.records if self.by_id is None else self.by_id.values())
        order = records if self.by_id is None else None  # ids proven in order and unique
        self.records.clear()
        self.by_id = None
        return Corpus(records, scheme or EMPTY_SCHEME, provenance, order), self.report


def _take_doc_type(raw: Any) -> tuple[DocType, tuple[str, ...]]:
    """The doc type and its warnings."""
    # unknown or missing types degrade to OTHER with a warning: they are
    # representable, just excluded by the default analysis filter
    if raw is None or raw == "":
        return DocType.OTHER, ("missing doc_type; treated as 'other'",)
    if not isinstance(raw, str):
        return DocType.OTHER, (f"doc_type {_quote(raw)} is not a string; treated as 'other'",)
    dt = _WIRE_DOC_TYPES.get(raw.strip().lower())
    if dt is None:
        return DocType.OTHER, (f"unknown doc_type {_quote(raw)}; treated as 'other'",)
    return dt, ()


def _take_year(raw: Any, rec_id: str, batch: _Batch) -> int | None:
    """A raw year that is not an int: 0 with a warning when missing, else
    None with the row rejected."""
    if raw is None:
        batch.report.warnings.append((rec_id, "missing year; defaulting to 0"))
        return 0
    batch.reject(rec_id, f"year {_quote(raw)} is not an integer")
    return None


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
            warnings.append(f"country {_quote(code)} is not a recognized name or two-letter code")
    author = AuthorRef.from_raw(raw)
    author = refs.setdefault(author.countries, author)
    if author.unresolved:
        warnings.append("author with no resolvable country; credited to ZZ")
    return _Slot(author, tuple(warnings))


def _take_authors(raw: Any, rec_id: str, batch: _Batch) -> _Authors | None:
    """Shared authors tuple and its warnings; None when the row is rejected."""
    if not isinstance(raw, list) or not raw:
        batch.reject(rec_id, "missing or empty authors")
        return None
    build = batch.build_author
    slots = []
    for entry in raw:
        if not isinstance(entry, dict):
            batch.reject(rec_id, "author entry is not an object")
            return None
        countries = entry.get("countries", [])
        slot = _interned(batch.authors, countries, build) if isinstance(countries, list) else None
        if slot is None:
            batch.reject(rec_id, "author countries must be a list of strings")
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


def _subject_set(raw: Iterable[str]) -> frozenset[str]:
    return frozenset(s.strip() for s in raw if s.strip())


def _row_fields(obj: dict[str, Any], batch: _Batch) -> _Fields:
    """The :data:`_Fields` of a record object; nothing here rejects it."""
    raw = obj.get("subjects", [])
    subjects = _interned(batch.subjects, raw, _subject_set) if isinstance(raw, list) else None
    doc_type, warnings = _take_doc_type(obj.get("doc_type"))
    return obj.get("year"), doc_type, subjects, warnings


def _take_record(
    batch: _Batch,
    raw_id: Any,
    fields: _Fields,
    taken: _Authors | None,
    raw_authors: Any,
    year_first: bool = False,
) -> _Authors | None:
    """Check one record and append it to ``batch``, or reject it.

    The checks run in the order the module docstring gives; ``year_first``
    selects CSV's. ``taken`` is the authors of a known authors piece; when
    it is None, ``raw_authors`` is checked. Returns the record's authors
    when it is accepted.
    """
    rec_id = _take_id(raw_id, batch)
    if rec_id is None:
        return None
    year, _, subjects, _ = fields
    # an int year passes; any other warns or rejects where its format checks it
    if year_first and year.__class__ is not int:
        if (year := _take_year(year, rec_id, batch)) is None:
            return None
    if taken is None and (taken := _take_authors(raw_authors, rec_id, batch)) is None:
        return None
    if year.__class__ is not int and (year := _take_year(year, rec_id, batch)) is None:
        return None
    if subjects is None:
        batch.reject(rec_id, "subjects must be a list of strings")
        return None
    batch.accept(rec_id, year, fields, taken)
    return taken


def _take_id(raw: Any, batch: _Batch) -> str | None:
    """The stripped record id; None when the row is rejected for it."""
    if not isinstance(raw, str) or not raw.strip():
        batch.reject(None, "missing or empty id")
        return None
    rec_id = raw.strip()
    if batch.by_id is None:
        if rec_id > batch.last_id:
            return rec_id
        if batch.sink is not None:
            raise _Unordered(rec_id)
        # the first id out of order: look ids up in a dict from here on
        batch.by_id = {record.id: record for record in batch.records}
        batch.records.clear()
    if rec_id in batch.by_id:
        batch.reject(rec_id, "duplicate record id; first occurrence kept")
        return None
    return rec_id


_scan = json.JSONDecoder().scan_once
_skip_whitespace = WHITESPACE.match
_scan_string = json.decoder.scanstring
_ID_HEAD = '{"id":"'
_JSON_WHITESPACE = " \t\n\r"
_AUTHORS_KEY = ',"authors":'


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


def _split_compact(line: str) -> tuple[str, str, str] | None:
    """The id, fields text and authors text of a line in the compact form.

    The form is ``to_jsonl``'s: ``{"id":"`` + id + ``",`` + fields +
    ``,"authors":`` + authors, where the authors text holds the value, the
    closing brace and what follows. The id is read as the decoder reads a
    string; the fields and authors texts are not checked. None for any
    other line.
    """
    if not line.startswith(_ID_HEAD):
        return None
    try:
        rec_id, end = _scan_string(line, len(_ID_HEAD))
    except ValueError:
        return None
    cut = line.rfind(_AUTHORS_KEY, end)
    if cut < 0 or not line.startswith(",", end):
        return None
    return rec_id, line[end + 1 : cut], line[cut + len(_AUTHORS_KEY) :]


def _decode_fields(text: str) -> dict[str, Any] | None:
    """The object ``{text}`` when it is one non-empty object, else None.

    An empty object is refused: ``{"id":"a","authors":…}`` and the malformed
    ``{"id":"a",,"authors":…}`` both split into empty fields text.
    """
    obj_text = "{" + text + "}"
    try:
        obj, end = _scan(obj_text, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    return obj if obj and end == len(obj_text) else None


def _decode_authors(text: str) -> tuple[Any] | None:
    """``(value,)`` when ``text`` is one JSON value, then ``}``, with JSON
    whitespace around them, else None."""
    body = text.lstrip(_JSON_WHITESPACE)
    try:
        value, end = _scan(body, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    return (value,) if body[end:].strip(_JSON_WHITESPACE) == "}" else None


def _take_compact(
    batch: _Batch,
    rec_id: str,
    fields_piece: Any,
    authors_piece: str,
    fields: _Fields | None,
    taken: _Authors | None,
    decode_fields: Callable[[Any], dict[str, Any] | None] = _decode_fields,
    decode_authors: Callable[[str], tuple[Any] | None] = _decode_authors,
    year_first: bool = False,
) -> bool:
    """Read a record from its id, fields piece and authors piece and check
    it with :func:`_take_record`; False when the pieces do not decode.

    ``fields`` and ``taken`` are what ``batch`` holds for the pieces; a piece
    it does not hold (None) is decoded: ``decode_fields`` gives the object of
    the record's fields and ``decode_authors`` ``(author list,)``. For a
    compact JSONL line, pieces that decode make the line valid JSON with the
    same object ``json.loads`` gives, duplicate keys included; the caller
    decodes a line whose pieces do not, so every error is the one it raises.
    """
    obj = raw_authors = None
    if taken is None:
        if (decoded := decode_authors(authors_piece)) is None:
            return False
        raw_authors = decoded[0]
    if fields is None:
        if (obj := decode_fields(fields_piece)) is None:
            return False
        # an "id" among the fields replaces the line's own, as in json.loads
        rec_id = obj.get("id", rec_id)
        fields = _row_fields(obj, batch)
    accepted = _take_record(batch, rec_id, fields, taken, raw_authors, year_first)
    if accepted is None:
        return True
    if taken is None:
        batch.author_texts[authors_piece] = accepted
    # fields that hold an "id" do not make the record alone, so are not kept
    if obj is not None and "id" not in obj:
        batch.fields[fields_piece] = fields
    return True


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
    _sink: Callable[[list[_Counted]], object] | None = None,
) -> tuple[Corpus, ValidationReport]:
    """Parse a JSONL record stream.

    ``source`` is the whole text or an iterable of lines, such as an open
    file; it is read once, line by line. Returns the corpus of accepted
    records plus a validation report. Rows missing ``id`` or ``authors`` are
    rejected; missing ``year``/``doc_type`` degrade with a warning. Blank
    lines are ignored. The private ``_sink`` takes the records as ``_Counted``
    tuples in lists, and the corpus is empty; an id out of order raises ``_Unordered``.
    """
    batch = _Batch("line", _sink)
    for batch.number, line in enumerate(
        _split_lines(source) if isinstance(source, str) else source, start=1
    ):
        compact = _split_compact(line)
        if compact is not None:
            fields, taken = batch.fields.get(compact[1]), batch.author_texts.get(compact[2])
            if fields and taken and fields[0].__class__ is int and batch.by_id is None:
                if (rec_id := compact[0].strip()) > batch.last_id:
                    batch.accept(rec_id, fields[0], fields, taken)
                    continue
            if _take_compact(batch, *compact, fields, taken):
                continue
        if not line.strip():
            continue
        try:
            obj = _decode(line)
        except json.JSONDecodeError as exc:
            batch.reject(None, f"malformed JSON: {exc.msg}")
            continue
        except RecursionError:
            batch.reject(None, "malformed JSON: nested too deeply")
            continue
        except ValueError as exc:
            # an integer past the interpreter's digit limit; its advice on
            # raising the limit is cut, as no flag here can
            batch.reject(None, f"malformed JSON: {str(exc).partition(';')[0]}")
            continue
        if not isinstance(obj, dict):
            batch.reject(None, "record is not a JSON object")
            continue
        _take_record(batch, obj.get("id"), _row_fields(obj, batch), None, obj.get("authors"))
    return batch.finish(scheme, provenance)


def _decode_csv_fields(cells: tuple[str, str, str]) -> dict[str, Any]:
    """The object of a CSV row's stripped year, doc_type and subjects cells."""
    year, doc_type, subjects = cells
    try:
        year = int(year) if year else None
    except ValueError:
        pass  # rejected by _take_record, quoted as written
    return {"year": year, "doc_type": doc_type, "subjects": subjects.split(";")}


def _decode_csv_authors(cell: str) -> tuple[list[dict[str, list[str]]]]:
    """``(author list,)`` of a CSV row's stripped author_countries cell."""
    tokens = cell.split("|") if cell else ()
    return ([{"countries": [c for c in token.split("+") if c.strip()]} for token in tokens],)


def parse_csv(
    source: str | Iterable[str],
    *,
    scheme: SubjectScheme | None = None,
    provenance: str = "csv",
    _sink: Callable[[list[_Counted]], object] | None = None,
) -> tuple[Corpus, ValidationReport]:
    """Parse the CSV record format; see the module docstring for the layout.

    ``source`` is the whole text or an iterable of lines that keep their
    endings, such as a file opened with ``newline=""``. A wrong header, or a
    row that ``csv`` cannot read, raises :class:`SchemaError`; other row-level
    problems reject only that row. ``_sink`` works as in :func:`parse_jsonl`.
    """
    batch = _Batch("row", _sink)
    for batch.number, row in _csv_rows(source, CSV_HEADER):
        if len(row) != len(CSV_HEADER):
            batch.reject(None, f"expected {len(CSV_HEADER)} columns, got {len(row)}")
            continue
        rec_id, year, doc_type, subjects, authors = (c.strip() for c in row)
        cells = (year, doc_type, subjects)
        fields, taken = batch.fields.get(cells), batch.author_texts.get(authors)
        _take_compact(
            batch, rec_id, cells, authors, fields, taken, _decode_csv_fields, _decode_csv_authors, True
        )
    return batch.finish(scheme, provenance)


# ---------------------------------------------------------------------------
# writers


_CHUNK_LINES = 1024
"""Lines a writer joins into one ``write`` call when it is given a stream."""

_SURROGATE = re.compile("[\ud800-\udfff]")


class _TextSink(Protocol):
    """What a writer writes to: any object with ``write(str)``."""

    def write(self, text: str, /) -> Any: ...


def _emit(
    lines: Iterable[str], out: _TextSink | None, fix: Callable[[str], str] | None = None
) -> str | None:
    """Join ``lines`` ``_CHUNK_LINES`` at a time and pass each chunk to ``fix``.

    Each chunk is written to ``out``; with no ``out``, the chunks are
    returned as one string, so both forms give the same text.
    """
    lines = iter(lines)
    chunks: Iterable[str] = iter(lambda: "".join(islice(lines, _CHUNK_LINES)), "")
    if fix is not None:
        chunks = map(fix, chunks)
    if out is None:
        return "".join(chunks)
    for chunk in chunks:
        out.write(chunk)
        del chunk  # so the next chunk is joined while this one is already freed
    return None


def _escape_surrogates(text: str) -> str:
    """``text`` with each surrogate written as its JSON escape ``\\udXXX``.

    A JSON escape can give a string a lone surrogate, which UTF-8 cannot
    encode; inside a JSON string its escape reads back as the same
    character. As with ``json.dumps``, a high surrogate followed by a low one
    reads back as the one character the pair encodes.
    """
    if text.isascii():
        return text
    return _SURROGATE.sub(lambda m: f"\\u{ord(m[0]):04x}", text)


def _check_clean(value: str, what: str, reserved: str) -> str:
    for ch in reserved:
        if ch in value:
            raise ValueError(
                f"{what} {_quote(value)} contains reserved delimiter {ch!r}; "
                "cannot be serialized losslessly"
            )
    if not value.isascii() and (surrogate := _SURROGATE.search(value)):
        raise ValueError(
            f"{what} {_quote(value)} contains lone surrogate {surrogate[0]!r}; UTF-8 cannot encode it"
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


def _jsonl_lines(records: Iterable[PublicationRecord]) -> Iterator[str]:
    # each line is the text json.dumps(obj, separators=(",", ":"),
    # ensure_ascii=False) gives for the record object, assembled from cells
    # encoded the same way; authors are keyed by their country sets, whose
    # hash a frozenset caches, rather than by the AuthorRef tuple
    encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
    # the year's class is part of the key: True == 1 and 2016.0 == 2016
    # compare equal but encode differently; the doc type is its member's
    # _value_, since Enum.value and Enum.__hash__ are Python-level calls
    middle = _Cells(lambda key: f'"year":{encode(key[1])},"doc_type":{encode(key[2])}')
    subjects = _Cells(lambda codes: encode(sorted(codes)))
    authors = _Cells(lambda countries: encode({"countries": sorted(countries)}))
    return (
        f'{{"id":{encode(r.id)},{middle[r.year.__class__, r.year, r.doc_type._value_]},'
        f'"subjects":{subjects[r.subjects]},'
        f'"authors":[{",".join([authors[a.countries] for a in r.authors])}]}}\n'
        for r in records
    )


@overload
def to_jsonl(corpus: Iterable[PublicationRecord]) -> str: ...
@overload
def to_jsonl(corpus: Iterable[PublicationRecord], out: _TextSink) -> None: ...


def to_jsonl(corpus: Iterable[PublicationRecord], out: _TextSink | None = None) -> str | None:
    """Serialize a corpus, or any iterable of records, to JSONL, one record per line.

    Subjects and per-author countries are emitted sorted so that equal
    corpora serialize to identical bytes. A lone surrogate is written as its
    ``\\udXXX`` escape, so the text encodes as UTF-8 and parses back to the
    same records. Returns the text; given ``out``, writes it there in
    chunks of a fixed number of lines instead and returns None. The records
    are read once, in order, so given ``out`` and an iterator of records,
    only one chunk's lines are held at a time.
    """
    return _emit(_jsonl_lines(corpus), out, _escape_surrogates)


def _csv_subjects(codes: frozenset[str]) -> str:
    return ";".join(_check_clean(s, "subject code", ";|+") for s in sorted(codes))


def _csv_author(countries: frozenset[str]) -> str:
    cleaned = (_check_clean(c, "country code", ";|+") for c in sorted(countries))
    return "+".join(cleaned) or UNRESOLVED


class _Echo(object):
    """A file for ``csv.writer`` whose ``write`` returns the line it is given;
    ``writerow`` returns what ``write`` returns."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_lines(
    records: Iterable[PublicationRecord], subject_cells: _Cells, author_cells: _Cells
) -> Iterator[str]:
    writer = csv.writer(_Echo, lineterminator="\n")
    # csv quotes a field only for the characters of its own line terminator,
    # but its reader also ends a row at a bare "\r": quote such rows whole
    quoting_writer = csv.writer(_Echo, lineterminator="\n", quoting=csv.QUOTE_ALL)
    yield writer.writerow(CSV_HEADER)
    for record in records:
        subjects = subject_cells[record.subjects]
        authors = "|".join([author_cells[a.countries] for a in record.authors])
        # _value_: Enum.value is a Python-level property
        row = [record.id, record.year, record.doc_type._value_, subjects, authors]
        if "\r" in record.id or "\r" in subjects or "\r" in authors:
            yield quoting_writer.writerow(row)
        else:
            yield writer.writerow(row)


@overload
def to_csv(corpus: Corpus) -> str: ...
@overload
def to_csv(corpus: Corpus, out: _TextSink) -> None: ...


def to_csv(corpus: Corpus, out: _TextSink | None = None) -> str | None:
    """Serialize a corpus to the CSV record format.

    Unresolved authors are written as the literal ``ZZ``. Subject codes and
    country codes must not contain the ``;``, ``|`` or ``+`` delimiters, and
    no value may hold a lone surrogate, which UTF-8 cannot encode. Returns
    the text; given ``out``, writes it there in chunks of a fixed number of
    lines instead and returns None. A value that cannot be written raises
    ``ValueError`` before anything is written.
    """
    subject_cells = _Cells(_csv_subjects)
    author_cells = _Cells(_csv_author)
    # a first pass builds every cell, so a refused value raises at the first
    # record holding it, before the first line is written
    for record in corpus.records:
        if not record.id.isascii():
            _check_clean(record.id, "record id", "")
        subject_cells[record.subjects]
        for author in record.authors:
            author_cells[author.countries]
    return _emit(_csv_lines(corpus.records, subject_cells, author_cells), out)


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
    keep = _keeps(years, doc_types)
    return corpus._subset(lambda record: keep((record.year, record.doc_type)))


def _keeps(years: Iterable[int] | None, doc_types: Iterable[DocType] | None) -> Callable[..., bool]:
    """The filter's predicate, on a tuple that starts with a record's year and doc type."""
    year_set = set(years) if years else None
    type_set = set(doc_types) if doc_types else None
    return lambda c: (year_set is None or c[0] in year_set) and (
        type_set is None or c[1] in type_set
    )


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
