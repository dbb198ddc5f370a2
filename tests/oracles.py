"""Brute-force reference implementations used to check the library.

Everything here is written for obviousness, not speed: fractional credit
is exact rational arithmetic via Fraction, correlations follow the
textbook formulas with fsum, and ranks are counted by direct comparison.
None of it shares code with the package under test.

The record parsers at the end are the exception: they are frozen copies of
the straightforward per-row parsers that predate the interning ingest path,
kept so that the fast path can be checked against them byte for byte. They
share only the model types, ``normalize_country``, ``ValidationReport`` and
``SchemaError`` with the package. ``oracle_cli_pearson_matrix`` is a frozen
copy too: it keeps the library's ``pearson`` and checks only that the
shared-country selection and the matrix fill stay bit-identical. So are
the counting passes at the end (``oracle_count``,
``oracle_subject_group_count``, ``oracle_icp_count``): one id-sorted pass
per table and one corpus per subject group, kept so that the single
counting sweep can be checked against them float for float. They share
the model types, ``countries_of``, ``CountMethod`` and ``ScoreTable``.
``oracle_generate``, ``oracle_to_jsonl`` and ``oracle_to_csv`` at the very
end are frozen copies of the synthetic generator and the record writers
from before their fast paths, kept so that the generated and written bytes
can be checked against them. They share only the model types and numpy.
``oracle_load_fixtures`` and ``oracle_table4`` are frozen copies of the
bundled-table readers and the Table 4 pairwise loop from before the
fixtures went through ingest's strict reader and the loop through
rankstats' pairwise helper. They read the data files with ``csv`` and
fill the two matrices themselves, sharing only the replication, ingest and
rankstats result types, ``GROUPS``, ``published_srcc_variant`` and
``spearman``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from importlib import resources

import numpy as np

from bibrank.counting import CountMethod, ScoreTable
from bibrank.errors import SchemaError, UndefinedInputError
from bibrank.ingest import ValidationReport
from bibrank.model import (
    EMPTY_SCHEME,
    UNRESOLVED,
    AuthorRef,
    Corpus,
    DocType,
    PublicationRecord,
    countries_of,
    is_country_code,
    normalize_country,
)
from bibrank.ingest import CountryAggregate, GroupRankRow
from bibrank.rankstats import CorrelationMatrix, pearson, spearman
from bibrank.replication import (
    GROUPS,
    FixtureSet,
    PrintedMetrics,
    Table1Row,
    Table4Cell,
    Table4Report,
    published_srcc_variant,
)


def oracle_whole(corpus: Corpus) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in corpus.records:
        seen = set()
        for author in record.authors:
            for country in author.countries:
                seen.add(country)
        if any(not a.countries for a in record.authors):
            seen.add("ZZ")
        for country in seen:
            counts[country] = counts.get(country, 0) + 1
    return counts


def oracle_fractional_author(corpus: Corpus) -> dict[str, Fraction]:
    credit: dict[str, Fraction] = {}
    for record in corpus.records:
        n = len(record.authors)
        for author in record.authors:
            if not author.countries:
                credit["ZZ"] = credit.get("ZZ", Fraction(0)) + Fraction(1, n)
                continue
            k = len(author.countries)
            for country in author.countries:
                credit[country] = credit.get(country, Fraction(0)) + Fraction(1, n * k)
    return credit


def oracle_fractional_country(corpus: Corpus) -> dict[str, Fraction]:
    credit: dict[str, Fraction] = {}
    for record in corpus.records:
        countries = set()
        for author in record.authors:
            countries.update(author.countries)
        if not countries:
            credit["ZZ"] = credit.get("ZZ", Fraction(0)) + Fraction(1)
            continue
        for country in countries:
            credit[country] = credit.get(country, Fraction(0)) + Fraction(1, len(countries))
    return credit


def oracle_is_international(record: PublicationRecord) -> bool:
    countries = set()
    for author in record.authors:
        countries.update(author.countries)
    return len(countries) >= 2


def oracle_group_slice(corpus: Corpus, group: str) -> list[PublicationRecord]:
    if group == "ALL":
        return list(corpus.records)
    codes = corpus.scheme.groups[group]
    return [r for r in corpus.records if any(s in codes for s in r.subjects)]


def oracle_average_ranks(values: list[float], descending: bool = False) -> list[float]:
    ranks = []
    for v in values:
        if descending:
            better = sum(1 for w in values if w > v)
        else:
            better = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(better + (equal + 1) / 2)
    return ranks


def oracle_pearson(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def oracle_spearman(x: list[float], y: list[float]) -> float:
    return oracle_pearson(oracle_average_ranks(x), oracle_average_ranks(y))


def oracle_cli_pearson_matrix(tables) -> np.ndarray:
    """Frozen copy of the Pearson matrix the CLI's ``correlate`` once built
    by hand: shared countries ("ZZ" excluded), sorted, then ``pearson`` of
    each pair of score vectors above a unit diagonal."""
    labels = list(tables.keys())
    common: set[str] = set(next(iter(tables.values())).countries())
    for t in tables.values():
        common &= set(t.countries())
    countries = tuple(sorted(common))
    if len(countries) < 2:
        raise UndefinedInputError("correlation needs at least two shared countries")
    values = np.eye(len(labels))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            values[i, j] = values[j, i] = pearson(
                [tables[labels[i]].score(c) for c in countries],
                [tables[labels[j]].score(c) for c in countries],
            )
    return values


COUNTRY_POOL = ["US", "CN", "GB", "DE", "IN", "JP", "FR", "BR", "NL", "CH"]
SUBJECT_POOL = ["PHYS", "CHEM", "BIO", "MED", "SOC"]
DOC_TYPES = list(DocType)


def random_corpus(rng: random.Random, n_records: int, scheme=None) -> Corpus:
    """A messy random corpus: multi-country authors, unresolved authors,
    empty subject sets, mixed doc types."""
    records = []
    for i in range(n_records):
        n_authors = rng.randint(1, 5)
        authors = []
        for _ in range(n_authors):
            if rng.random() < 0.1:
                authors.append(AuthorRef(frozenset()))
            else:
                k = rng.choice([1, 1, 1, 2, 3])
                authors.append(AuthorRef(frozenset(rng.sample(COUNTRY_POOL, k))))
        n_subjects = rng.choice([0, 1, 1, 2])
        subjects = frozenset(rng.sample(SUBJECT_POOL, n_subjects))
        records.append(
            PublicationRecord(
                id=f"r{i:05d}",
                year=rng.choice([2015, 2016, 2017]),
                doc_type=rng.choice(DOC_TYPES),
                subjects=subjects,
                authors=tuple(authors),
            )
        )
    return Corpus(tuple(records), scheme or EMPTY_SCHEME)


# ---------------------------------------------------------------------------
# reference record parsers: one object per row, every string normalized in place

_ORACLE_CSV_HEADER = ["id", "year", "doc_type", "subjects", "author_countries"]
_ORACLE_DOC_TYPES = {d.value: d for d in DocType}


def _oracle_lines(source):
    # a text splits on "\n" only, as the library splits it
    lines = source.split("\n") if isinstance(source, str) else source
    return [line.rstrip("\n").rstrip("\r") for line in lines]


def _oracle_doc_type(raw, ref, report):
    if raw is None or raw == "":
        report.warnings.append((ref, "missing doc_type; treated as 'other'"))
        return DocType.OTHER
    if not isinstance(raw, str):
        report.warnings.append((ref, f"doc_type {raw!r} is not a string; treated as 'other'"))
        return DocType.OTHER
    dt = _ORACLE_DOC_TYPES.get(raw.strip().lower())
    if dt is None:
        report.warnings.append((ref, f"unknown doc_type {raw!r}; treated as 'other'"))
        return DocType.OTHER
    return dt


def _oracle_authors(raw_sets, ref, report):
    authors = []
    for raw in raw_sets:
        for code in raw:
            norm = normalize_country(code)
            if norm != UNRESOLVED and not is_country_code(norm):
                report.warnings.append(
                    (ref, f"country {code!r} is not a recognized name or two-letter code")
                )
        author = AuthorRef.from_raw(raw)
        if author.unresolved:
            report.warnings.append(
                (ref, "author with no resolvable country; credited to ZZ")
            )
        authors.append(author)
    return tuple(authors)


def oracle_parse_jsonl(source, *, scheme=None, provenance="jsonl"):
    """Reference JSONL parser. Its line split is the library's: a text
    splits on "\n" only, and each line drops a trailing "\r"."""
    report = ValidationReport()
    records = []
    seen_ids = set()

    for lineno, line in enumerate(_oracle_lines(source), start=1):
        if not line.strip():
            continue
        ref = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            report.errors.append((ref, f"malformed JSON: {exc.msg}"))
            report.records_rejected += 1
            continue
        if not isinstance(obj, dict):
            report.errors.append((ref, "record is not a JSON object"))
            report.records_rejected += 1
            continue

        rec_id = obj.get("id")
        if not isinstance(rec_id, str) or not rec_id.strip():
            report.errors.append((ref, "missing or empty id"))
            report.records_rejected += 1
            continue
        rec_id = rec_id.strip()
        ref = rec_id
        if rec_id in seen_ids:
            report.errors.append((ref, "duplicate record id; first occurrence kept"))
            report.records_rejected += 1
            continue

        raw_authors = obj.get("authors")
        if not isinstance(raw_authors, list) or not raw_authors:
            report.errors.append((ref, "missing or empty authors"))
            report.records_rejected += 1
            continue
        raw_sets = []
        bad = None
        for entry in raw_authors:
            if not isinstance(entry, dict):
                bad = "author entry is not an object"
                break
            countries = entry.get("countries", [])
            if not isinstance(countries, list) or not all(
                isinstance(c, str) for c in countries
            ):
                bad = "author countries must be a list of strings"
                break
            raw_sets.append(countries)
        if bad is not None:
            report.errors.append((ref, bad))
            report.records_rejected += 1
            continue

        year = obj.get("year")
        if year is None:
            report.warnings.append((ref, "missing year; defaulting to 0"))
            year = 0
        elif isinstance(year, bool) or not isinstance(year, int):
            report.errors.append((ref, f"year {year!r} is not an integer"))
            report.records_rejected += 1
            continue

        raw_subjects = obj.get("subjects", [])
        if not isinstance(raw_subjects, list) or not all(
            isinstance(s, str) for s in raw_subjects
        ):
            report.errors.append((ref, "subjects must be a list of strings"))
            report.records_rejected += 1
            continue

        records.append(
            PublicationRecord(
                id=rec_id,
                year=year,
                doc_type=_oracle_doc_type(obj.get("doc_type"), ref, report),
                subjects=frozenset(s.strip() for s in raw_subjects if s.strip()),
                authors=_oracle_authors(raw_sets, ref, report),
            )
        )
        seen_ids.add(rec_id)
        report.records_accepted += 1

    return Corpus(tuple(records), scheme or EMPTY_SCHEME, provenance), report


def oracle_parse_csv(source, *, scheme=None, provenance="csv"):
    report = ValidationReport()
    records = []
    seen_ids = set()

    # csv.reader reads the line endings, so a quoted cell keeps its newlines
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty input: expected a CSV header row") from None
    if [h.strip() for h in header] != _ORACLE_CSV_HEADER:
        raise SchemaError(
            f"bad CSV header {header!r}; expected {','.join(_ORACLE_CSV_HEADER)}"
        )

    for rownum, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        ref = f"row {rownum}"
        if len(row) != len(_ORACLE_CSV_HEADER):
            report.errors.append(
                (ref, f"expected {len(_ORACLE_CSV_HEADER)} columns, got {len(row)}")
            )
            report.records_rejected += 1
            continue
        rec_id, raw_year, raw_doc, raw_subjects, raw_authors = (c.strip() for c in row)
        if not rec_id:
            report.errors.append((ref, "missing or empty id"))
            report.records_rejected += 1
            continue
        ref = rec_id
        if rec_id in seen_ids:
            report.errors.append((ref, "duplicate record id; first occurrence kept"))
            report.records_rejected += 1
            continue

        if not raw_year:
            report.warnings.append((ref, "missing year; defaulting to 0"))
            year = 0
        else:
            try:
                year = int(raw_year)
            except ValueError:
                report.errors.append((ref, f"year {raw_year!r} is not an integer"))
                report.records_rejected += 1
                continue

        if not raw_authors:
            report.errors.append((ref, "missing or empty authors"))
            report.records_rejected += 1
            continue
        raw_sets = [
            [c for c in token.split("+") if c.strip()]
            for token in raw_authors.split("|")
        ]

        subjects = frozenset(s.strip() for s in raw_subjects.split(";") if s.strip())
        records.append(
            PublicationRecord(
                id=rec_id,
                year=year,
                doc_type=_oracle_doc_type(raw_doc, ref, report),
                subjects=subjects,
                authors=_oracle_authors(raw_sets, ref, report),
            )
        )
        seen_ids.add(rec_id)
        report.records_accepted += 1

    return Corpus(tuple(records), scheme or EMPTY_SCHEME, provenance), report


# ---------------------------------------------------------------------------
# reference counting passes: one id-sorted pass per table, one corpus per group


def _oracle_whole_shares(record):
    shares = {c: 1.0 for c in countries_of(record)}
    if any(a.unresolved for a in record.authors):
        shares[UNRESOLVED] = 1.0
    return shares


def _oracle_fractional_author_shares(record):
    n = len(record.authors)
    ks = [len(a.countries) for a in record.authors]
    scale = math.lcm(*(k for k in ks if k), 1)
    denom = n * scale
    units = {}
    for author, k in zip(record.authors, ks):
        if k == 0:
            units[UNRESOLVED] = units.get(UNRESOLVED, 0) + scale
            continue
        per_country = scale // k
        for country in author.countries:
            units[country] = units.get(country, 0) + per_country
    return {c: u / denom for c, u in units.items()}


def _oracle_fractional_country_shares(record):
    countries = countries_of(record)
    if not countries:
        return {UNRESOLVED: 1.0}
    k = len(countries)
    return {c: 1 / k for c in countries}


_ORACLE_SHARES = {
    CountMethod.WHOLE: _oracle_whole_shares,
    CountMethod.FRACTIONAL_AUTHOR: _oracle_fractional_author_shares,
    CountMethod.FRACTIONAL_COUNTRY: _oracle_fractional_country_shares,
}


def oracle_count(corpus, method, slice_label):
    """Frozen copy of the single-table pass that predates the counting
    sweep: the corpus sorted by id, each record's shares added in country
    order."""
    shares_of = _ORACLE_SHARES[method]
    scores = {}
    n = 0
    for record in sorted(corpus.records, key=lambda r: r.id):
        for country, share in sorted(shares_of(record).items()):
            scores[country] = scores.get(country, 0.0) + share
        n += 1
    return ScoreTable(method, slice_label, dict(sorted(scores.items())), n)


def oracle_subject_group_count(corpus, method=CountMethod.WHOLE, groups=None):
    """Frozen copy of the per-group loop that predates the counting sweep:
    each group sliced into a corpus of its own, then counted alone."""
    if groups is None:
        groups = ["ALL", *corpus.scheme.names]
    out = {}
    for group in groups:
        sliced = corpus
        if group != "ALL":
            codes = corpus.scheme.group(group)
            kept = tuple(r for r in corpus.records if r.subjects & codes)
            sliced = Corpus(kept, corpus.scheme, corpus.provenance)
        out[group] = oracle_count(sliced, method, group)
    return out


def oracle_icp_count(corpus):
    """Frozen copy of the id-sorted international-record count."""
    scores = {}
    n = 0
    for record in sorted(corpus.records, key=lambda r: r.id):
        n += 1
        if not oracle_is_international(record):
            continue
        for country in sorted(countries_of(record)):
            scores[country] = scores.get(country, 0.0) + 1.0
    return ScoreTable(CountMethod.WHOLE, "ALL", dict(sorted(scores.items())), n)


# ---------------------------------------------------------------------------
# reference generator and writers: one numpy draw call and one encode per record


def oracle_generate(params, scheme=None):
    """Frozen copy of ``synth.generate`` as it was before its weighted
    draws were ported off ``Generator.choice``: one ``rng.choice(...,
    p=probs)`` call per country draw and fresh author and subject objects
    for every record. The faster generator must write the same bytes."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    countries = sorted(params.country_weights)
    weights = np.array([params.country_weights[c] for c in countries], dtype=float)
    probs = weights / weights.sum()

    records = []
    for i in range(params.n_records):
        n_authors = int(rng.integers(params.authors_min, params.authors_max + 1))
        international = bool(rng.random() < params.collab_prob)
        if international:
            pick = rng.choice(len(countries), size=2, replace=False, p=probs)
            c1, c2 = countries[int(pick[0])], countries[int(pick[1])]
            if n_authors == 1:
                author_sets = [(c1, c2)]
            else:
                author_sets = [(c1,), (c2,)]
                for _ in range(n_authors - 2):
                    author_sets.append((c1,) if rng.random() < 0.5 else (c2,))
        else:
            home = countries[int(rng.choice(len(countries), p=probs))]
            author_sets = [(home,)] * n_authors

        n_subjects = int(rng.integers(params.subjects_min, params.subjects_max + 1))
        if n_subjects:
            picked = rng.choice(len(params.subject_pool), size=n_subjects, replace=False)
            subjects = frozenset(params.subject_pool[int(j)] for j in picked)
        else:
            subjects = frozenset()

        records.append(
            PublicationRecord(
                id=f"s{i:07d}",
                year=params.year,
                doc_type=DocType.ARTICLE,
                subjects=subjects,
                authors=tuple(AuthorRef(frozenset(cs)) for cs in author_sets),
            )
        )

    return Corpus(
        tuple(records),
        scheme or EMPTY_SCHEME,
        provenance=f"synth(seed={params.seed})",
    )


def _oracle_check_clean(value, what, reserved):
    for ch in reserved:
        if ch in value:
            raise ValueError(
                f"{what} {value!r} contains reserved delimiter {ch!r}; "
                "cannot be serialized losslessly"
            )
    return value


def oracle_to_jsonl(corpus):
    """Frozen copy of the per-record ``json.dumps`` writer that predates
    the memoized cells of ``ingest.to_jsonl``."""
    lines = []
    for record in corpus.records:
        obj = {
            "id": record.id,
            "year": record.year,
            "doc_type": record.doc_type.value,
            "subjects": sorted(record.subjects),
            "authors": [{"countries": sorted(a.countries)} for a in record.authors],
        }
        lines.append(json.dumps(obj, separators=(",", ":"), ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def oracle_to_csv(corpus):
    """Frozen copy of the per-record CSV writer that predates the memoized
    cells of ``ingest.to_csv``: every code checked on every record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoting_writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(_ORACLE_CSV_HEADER)
    for record in corpus.records:
        subjects = ";".join(
            _oracle_check_clean(s, "subject code", ";|+") for s in sorted(record.subjects)
        )
        authors = "|".join(
            "+".join(_oracle_check_clean(c, "country code", ";|+") for c in sorted(a.countries))
            or UNRESOLVED
            for a in record.authors
        )
        row = [record.id, record.year, record.doc_type.value, subjects, authors]
        if "\r" in record.id or "\r" in subjects or "\r" in authors:
            quoting_writer.writerow(row)
        else:
            writer.writerow(row)
    return buf.getvalue()


def _oracle_asset_rows(name):
    text = resources.files("bibrank").joinpath("data", name).read_bytes().decode("utf-8")
    return text.splitlines()


def oracle_load_fixtures():
    """Frozen copy of ``replication.load_fixtures`` from before all five
    tables went through ingest's strict reader: ``csv.DictReader`` for
    table 1 and the printed table 2 columns, ``csv.reader`` for the rest.
    Checksums and cross-table checks are left out; only the parsed values
    are compared."""
    t1 = tuple(
        Table1Row(
            country=row["country"],
            nsf_wc=float(row["nsf_wc"]),
            nsf_fc=float(row["nsf_fc"]),
            elsevier_wc=float(row["elsevier_wc"]) if row["elsevier_wc"] else None,
        )
        for row in csv.DictReader(_oracle_asset_rows("table1.csv"))
    )
    t2 = tuple(
        CountryAggregate(country.strip(), float(wc), float(fc), int(icp))
        for country, wc, fc, icp in list(csv.reader(_oracle_asset_rows("table2.csv")))[1:]
    )
    t2_printed = tuple(
        PrintedMetrics(
            country=row["country"],
            reduction_pct=float(row["reduction_pct"]),
            icp_pct=float(row["icp_pct"]),
            ratio=float(row["ratio"]),
        )
        for row in csv.DictReader(_oracle_asset_rows("table2_expected.csv"))
    )
    t3 = tuple(
        GroupRankRow(country.strip(), group.strip(), float(tp), float(rank))
        for country, group, tp, rank in list(csv.reader(_oracle_asset_rows("table3.csv")))[1:]
    )
    t4_rows = list(csv.reader(_oracle_asset_rows("table4.csv")))[1:]
    t4 = np.array([[float(v) for v in r[1:]] for r in t4_rows])
    t4.setflags(write=False)
    return FixtureSet(t1, t2, t2_printed, t3, t4, GROUPS)


def oracle_table4(fixtures):
    """Frozen copy of ``replication.replicate_table4`` from before it called
    rankstats' pairwise helper: one loop fills both symmetric matrices and
    appends each off-diagonal cell in row-major order."""
    groups = fixtures.groups
    cols = {g: fixtures.rank_column(g) for g in groups}
    n = len(groups)
    values = np.eye(n)
    avg_values = np.eye(n)
    cells = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if j > i:
                values[i, j] = values[j, i] = published_srcc_variant(
                    cols[groups[i]], cols[groups[j]]
                )
                avg_values[i, j] = avg_values[j, i] = spearman(
                    cols[groups[i]], cols[groups[j]]
                )
            cells.append(
                Table4Cell(
                    row_group=groups[i],
                    col_group=groups[j],
                    computed=float(values[i, j]),
                    printed=float(fixtures.table4_printed[i, j]),
                    avg_rank_spearman=float(avg_values[i, j]),
                )
            )
    values.setflags(write=False)
    avg_values.setflags(write=False)
    countries = tuple(fixtures.countries())
    return Table4Report(
        matrix=CorrelationMatrix(tuple(groups), values, countries),
        avg_rank_matrix=CorrelationMatrix(tuple(groups), avg_values, countries),
        printed=fixtures.table4_printed,
        cells=tuple(cells),
    )
