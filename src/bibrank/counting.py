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
sweep counts every requested method, icp included, for every requested
table (``ALL`` and any subject groups); unknown group names raise before
any record is counted.

A sweep has two phases and drops everything it built on return. The walk is
fed records in id order, each as the plain tuple a parse given a sink hands
on (year, doc type, subject set, authors tuple): in lists from a parse that
builds no record and returns an empty corpus, as the command line reads a
file, or mapped from a corpus. It holds no record. It gives each record a
kind, the index of its ``authors`` tuple by identity (ingest and
``generate`` share one tuple between records with the same author list), and
appends that kind to the list of every group the record belongs to. A kind
is priced at its first record: its fractional-author shares from its
authors' country sets, the other methods' by its country union and whether
any author is unresolved. A hand-built corpus that shares no tuple is
counted the same, with one kind per record. Group membership is memoized per
subject set, so subjects must be hashable, as the frozenset that
``PublicationRecord`` declares is. The credit phase then fills each table
from its group's list. Whole and icp shares are all exactly 1.0, so a table
counts its records per country union in integers, adds each union's count to
its countries, and gives a country credited by n records float(n): below
2**53 a sum of n 1.0s is exact in any order, so it is the same float.
Fractional shares are added once per record, in id order, as the sequential
sum adds them.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import lcm
from operator import attrgetter
from typing import Iterable, Mapping

from .model import ALL_FIELDS, Corpus, SubjectScheme, UNRESOLVED, _Counted
from .model import countries_of  # noqa: F401 - perfbench counts calls through it here


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
_SUBJECTS, _AUTHORS = attrgetter("subjects"), attrgetter("authors")


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


class _Walk(object):
    """One sweep: :meth:`feed` walks records in id order, then :meth:`credit`
    fills the tables; an unknown group raises on building. The walk holds each
    kind's tuple, keyed by identity, so no other author list can take its id."""

    def __init__(self, scheme: SubjectScheme, methods: list[object], groups: list[str] | None) -> None:
        self.names = list(dict.fromkeys([ALL_FIELDS, *scheme.names] if groups is None else groups))
        self.codes_of = [None if g == ALL_FIELDS else scheme.group(g) for g in self.names]
        self.methods = list(dict.fromkeys(methods))
        # a kind is a distinct authors tuple, priced at its first record
        self.kind_of: dict[int, int] = {}
        self.authors: list[tuple] = []
        self.author_shares: list[_Shares] = []
        self.union_of: list[int] = []
        # every method but fractional-author credits by the country union and
        # whether an author is unresolved, which far fewer author lists differ in
        self.by_union: dict[tuple[frozenset[str], bool], int] = {}
        self.per_union: list[list[_Shares | None]] = []
        # each group lists its records' kinds in id order
        self.kinds: list[list[int]] = [[] for _ in self.names]
        self.by_subjects: dict[frozenset[str], list[list[int]]] = {}

    def feed(self, records: Iterable[_Counted]) -> None:
        kind_of, by_subjects = self.kind_of, self.by_subjects
        needs_author = CountMethod.FRACTIONAL_AUTHOR in self.methods
        needs_union = self.methods != [CountMethod.FRACTIONAL_AUTHOR]
        for _, _, subjects, authors in records:
            kind = kind_of.get(id(authors))
            if kind is None:
                kind = kind_of[id(authors)] = len(kind_of)
                self.authors.append(authors)
                pattern = tuple([a.countries for a in authors])
                if needs_author:
                    self.author_shares.append(_fractional_author_shares(pattern))
                if needs_union:
                    key = frozenset().union(*pattern), not all(pattern)
                    u = self.by_union.get(key)
                    if u is None:
                        u = self.by_union[key] = len(self.per_union)
                        self.per_union.append([_union_shares(*key, m) for m in self.methods])
                    self.union_of.append(u)
            members = by_subjects.get(subjects)
            if members is None:
                members = by_subjects[subjects] = [
                    seq for seq, codes in zip(self.kinds, self.codes_of)
                    if codes is None or not codes.isdisjoint(subjects)
                ]
            for seq in members:
                seq.append(kind)

    def credit(self) -> dict[object, dict[str, ScoreTable]]:
        # a whole or icp share is 1.0, so a country credited by n records
        # scores float(n), exactly the sum of n sequential 1.0s; a fractional
        # share is added once per record, in id order
        out: dict[object, dict[str, ScoreTable]] = {}
        records_of: list[Counter[int]] = []  # per group, its records per union
        for j, m in enumerate(self.methods):
            unit = m is CountMethod.WHOLE or m == _ICP
            if unit and not records_of:
                records_of = [Counter(map(self.union_of.__getitem__, seq)) for seq in self.kinds]
            of_kind = self.author_shares
            if m is CountMethod.FRACTIONAL_COUNTRY:
                of_kind = [self.per_union[u][j] for u in self.union_of]
            tables = out[m] = {}
            for i, (name, seq) in enumerate(zip(self.names, self.kinds)):
                scores: dict[str, float] = {}
                if unit:
                    units: dict[str, int] = {}
                    for u, n in records_of[i].items():
                        for country in self.per_union[u][j]:
                            units[country] = units.get(country, 0) + n
                    scores = {c: float(n) for c, n in units.items()}
                else:
                    for kind in seq:
                        for country, share in of_kind[kind].items():
                            scores[country] = scores.get(country, 0.0) + share
                method = CountMethod.WHOLE if m == _ICP else m
                tables[name] = ScoreTable(method, name, dict(sorted(scores.items())), len(seq))
        return out


def _sweep(
    corpus: Corpus, methods: list[object], groups: list[str] | None
) -> dict[object, dict[str, ScoreTable]]:
    """Count each of ``methods`` (``_ICP`` too) for each group (None: ``ALL``
    and every scheme group), walking the corpus in id order."""
    walk = _Walk(corpus.scheme, methods, groups)
    records = corpus._by_id  # the walk reads no year or doc type, and zip reuses its tuple
    walk.feed(zip(repeat(None), repeat(None), map(_SUBJECTS, records), map(_AUTHORS, records)))
    return walk.credit()


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
    return _sweep(corpus, [method], groups)[method]
