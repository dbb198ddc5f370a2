"""Country-level publication counting.

One method type, :class:`CountMethod`, names three methods:

* ``WHOLE``: every country appearing on a record receives one full
  credit, so multinational records are credited multiple times and column
  sums exceed the number of records.
* ``FRACTIONAL_AUTHOR`` and ``FRACTIONAL_COUNTRY``: each record distributes
  exactly one unit of credit. By author, the unit is split equally over the
  n authors and each author's share equally over that author's k
  countries, giving 1/(n*k) per country per author. By country, the unit
  is split equally over the record's distinct countries.

Authors with no resolvable country are credited to the ``ZZ`` bucket: a
full +1 under whole counting, and their 1/n share under fractional-author
counting. A record whose authors are all unresolved contributes its whole
unit to ``ZZ`` under both fractional methods.

Per-record fractional shares are computed in integer arithmetic over a
common denominator (n times the lcm of the authors' country counts) and
divided exactly once per country, so a single-country record contributes
exactly 1.0 to that country and accumulation order cannot leak rounding
differences. Every count is one sweep over the records in record-id order,
which makes every score bit-identical under permutation of the input. One
sweep counts every requested method, icp included, and adds each record's
shares once to every requested table it belongs to (``ALL`` and any
subject groups); unknown group names raise before any record is counted.

Each sweep memoizes shares and drops every memo on return. A record is
looked up by the identity of its ``authors`` tuple, which ingest and
``generate`` share between records with the same author list; a record
whose tuple is new to the sweep is priced afresh, so a hand-built corpus
that shares none is counted the same, only slower. A new tuple computes its
fractional-author shares from its authors' country sets and looks up the
other methods' by its country union and whether any author is unresolved.
Group membership is memoized per subject set, so subjects must be hashable,
as the frozenset that ``PublicationRecord`` declares is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import lcm
from typing import Mapping

from .model import ALL_FIELDS, Corpus, UNRESOLVED, countries_of


class CountMethod(enum.Enum):
    """Counting method identifiers as they appear on the wire."""

    WHOLE = "whole"
    FRACTIONAL_AUTHOR = "fractional_author"
    FRACTIONAL_COUNTRY = "fractional_country"


@dataclass(frozen=True)
class ScoreTable(object):
    """Country scores produced by one counting run.

    Attributes
    ----------
    method : CountMethod
        How the scores were produced.
    slice_label : str
        Subject group the corpus was restricted to; ``ALL`` when unrestricted.
    scores : Mapping[str, float]
        Country code to credit. Whole counts are floats holding exact
        integers. ``ZZ`` appears only when unresolved credit exists.
    records_counted : int
        Number of records that contributed.
    """

    method: CountMethod
    slice_label: str
    scores: Mapping[str, float]
    records_counted: int

    def score(self, country: str) -> float:
        return self.scores.get(country, 0.0)

    def total(self) -> float:
        return sum(self.scores.values())

    def countries(self, include_unresolved: bool = False) -> list[str]:
        """Country codes present, sorted, ``ZZ`` excluded unless asked for."""
        return sorted(
            c for c in self.scores if include_unresolved or c != UNRESOLVED
        )


_ICP = "icp"  # the key under which _sweep counts international records
_Shares = dict[str, float]


def _is_international(countries: frozenset[str]) -> bool:
    # at least two distinct resolved countries; ZZ is never in the set
    return len(countries) >= 2


def _fractional_author_shares(pattern: tuple[frozenset[str], ...]) -> _Shares:
    # m authors with the same k countries give each of them m*(scale//k) units
    distinct = dict.fromkeys(pattern)
    # common denominator: every author's per-country share is an integer
    # number of units, so the record total is exactly n*scale units
    scale = lcm(*filter(None, map(len, distinct)))
    denom = len(pattern) * scale
    units: dict[str, int] = {}
    for countries in distinct:
        k = len(countries)
        if k == 0:
            units[UNRESOLVED] = pattern.count(countries) * scale
            continue
        per_country = pattern.count(countries) * (scale // k)
        for country in countries:
            units[country] = units.get(country, 0) + per_country
    return {c: u / denom for c, u in units.items()}


def _union_shares(union: frozenset[str], unresolved: bool, method: object) -> _Shares | None:
    """A record's shares under ``method`` from its country union; None for fractional-author."""
    if method is CountMethod.FRACTIONAL_AUTHOR:
        return None
    if method is CountMethod.FRACTIONAL_COUNTRY:
        return dict.fromkeys(union, 1 / len(union)) if union else {UNRESOLVED: 1.0}
    if method == _ICP:
        return dict.fromkeys(union, 1.0) if _is_international(union) else {}
    whole = dict.fromkeys(union, 1.0)
    if unresolved:
        whole[UNRESOLVED] = 1.0
    return whole


def _sweep(
    corpus: Corpus, methods: list[object], groups: list[str]
) -> dict[object, dict[str, ScoreTable]]:
    """Count each of ``methods`` (``_ICP`` too) for each group in one id-ordered pass."""
    names = list(dict.fromkeys(groups))
    codes_of = [None if g == ALL_FIELDS else corpus.scheme.group(g) for g in names]
    methods = list(dict.fromkeys(methods))
    scores: list[list[dict[str, float]]] = [[{} for _ in methods] for _ in names]
    counted = [0] * len(names)
    by_tuple: dict[int, list[_Shares]] = {}
    # every method but fractional-author credits by the country union and
    # whether an author is unresolved, which far fewer author lists differ in
    by_union: dict[tuple[frozenset[str], bool], list[_Shares | None]] = {}
    needs_union = methods != [CountMethod.FRACTIONAL_AUTHOR]
    by_subjects: dict[frozenset[str], list[int]] = {}
    for record in corpus._by_id:
        authors, subjects = record.authors, record.subjects
        shares = by_tuple.get(id(authors))
        if shares is None:
            pattern = tuple([a.countries for a in authors])
            per_union: list[_Shares | None] | None = [None]
            if needs_union:
                key = countries_of(record), not all(pattern)
                per_union = by_union.get(key)
                if per_union is None:
                    per_union = by_union[key] = [_union_shares(*key, m) for m in methods]
            shares = by_tuple[id(authors)] = [
                _fractional_author_shares(pattern) if s is None else s for s in per_union
            ]
        members = by_subjects.get(subjects)
        if members is None:
            members = by_subjects[subjects] = [
                i for i, codes in enumerate(codes_of)
                if codes is None or not codes.isdisjoint(subjects)
            ]
        # one addend per country per record and table: the order within it is moot
        for i in members:
            counted[i] += 1
            for table, pairs in zip(scores[i], shares):
                for country, share in pairs.items():
                    table[country] = table.get(country, 0.0) + share
    return {
        m: {
            g: ScoreTable(CountMethod.WHOLE if m == _ICP else m, g, dict(sorted(t.items())), n)
            for g, t, n in zip(names, (row[j] for row in scores), counted)
        }
        for j, m in enumerate(methods)
    }


def whole_count(corpus: Corpus) -> ScoreTable:
    """Count each record once per country appearing on it."""
    return _sweep(corpus, [CountMethod.WHOLE], [ALL_FIELDS])[CountMethod.WHOLE][ALL_FIELDS]


class FractionalMode(object):
    """Deprecated alias: the two fractional :class:`CountMethod` members."""

    AUTHOR = CountMethod.FRACTIONAL_AUTHOR
    COUNTRY = CountMethod.FRACTIONAL_COUNTRY


def _fractional(method: CountMethod) -> CountMethod:
    if method not in (CountMethod.FRACTIONAL_AUTHOR, CountMethod.FRACTIONAL_COUNTRY):
        raise ValueError(f"{method!r} is not a fractional counting method")
    return method


def fractional_count(
    corpus: Corpus, method: CountMethod = CountMethod.FRACTIONAL_AUTHOR
) -> ScoreTable:
    """Distribute exactly one unit of credit per record.

    ``FRACTIONAL_AUTHOR`` (the default) splits by author first, then by each
    author's countries; ``FRACTIONAL_COUNTRY`` splits evenly over the
    record's distinct countries, and any other method raises ``ValueError``.
    Total credit equals the number of records up to float rounding.
    """
    return _sweep(corpus, [_fractional(method)], [ALL_FIELDS])[method][ALL_FIELDS]


def slice_corpus(corpus: Corpus, group: str) -> Corpus:
    """Restrict a corpus to records tagged with any subject in ``group``.

    ``ALL`` returns the corpus unchanged. Unknown group names raise
    :class:`UnknownGroupError`.
    """
    if group == ALL_FIELDS:
        return corpus
    codes = corpus.scheme.group(group)
    return corpus._subset(lambda r: r.subjects & codes)


def subject_group_count(
    corpus: Corpus,
    method: CountMethod = CountMethod.WHOLE,
    groups: list[str] | None = None,
) -> dict[str, ScoreTable]:
    """Count per subject group, plus the unrestricted ``ALL`` slice.

    Returns one ScoreTable per group, keyed and labelled by group name.
    ``groups=None`` means ``ALL`` followed by every scheme group in
    declaration order. All groups are counted in one pass, each table
    equal to a count of that group's slice alone; unknown group names
    raise :class:`UnknownGroupError` before any record is counted.
    """
    if groups is None:
        groups = [ALL_FIELDS, *corpus.scheme.names]
    return _sweep(corpus, [method], groups)[method]
