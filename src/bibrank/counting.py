"""Country-level publication counting.

Two families of methods:

* whole counting: every country appearing on a record receives one full
  credit, so multinational records are credited multiple times and column
  sums exceed the number of records.
* fractional counting: each record distributes exactly one unit of credit.
  In author mode the unit is split equally over the n authors and each
  author's share is split equally over that author's k countries, giving
  1/(n*k) per country per author. In country mode the unit is split
  equally over the record's distinct countries.

Authors with no resolvable country are credited to the ``ZZ`` bucket: a
full +1 under whole counting, and their 1/n share under author-mode
fractional counting. A record whose authors are all unresolved contributes
its whole unit to ``ZZ`` in both fractional modes.

Per-record fractional shares are computed in integer arithmetic over a
common denominator (n times the lcm of the authors' country counts) and
divided exactly once per country, so a single-country record contributes
exactly 1.0 to that country and accumulation order cannot leak rounding
differences. Records are always folded in record-id order, which makes
every score bit-identical under permutation of the input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import lcm
from typing import Mapping

from .model import ALL_FIELDS, Corpus, PublicationRecord, UNRESOLVED, countries_of


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


def _sorted_records(corpus: Corpus) -> list[PublicationRecord]:
    return sorted(corpus.records, key=lambda r: r.id)


def _whole_shares(record: PublicationRecord) -> dict[str, float]:
    shares = {c: 1.0 for c in countries_of(record)}
    if any(a.unresolved for a in record.authors):
        shares[UNRESOLVED] = 1.0
    return shares


def _fractional_author_shares(record: PublicationRecord) -> dict[str, float]:
    n = len(record.authors)
    ks = [len(a.countries) for a in record.authors]
    # common denominator: every author's per-country share is an integer
    # number of units, so the record total is exactly n*scale units
    scale = lcm(*(k for k in ks if k), 1)
    denom = n * scale
    units: dict[str, int] = {}
    for author, k in zip(record.authors, ks):
        if k == 0:
            units[UNRESOLVED] = units.get(UNRESOLVED, 0) + scale
            continue
        per_country = scale // k
        for country in author.countries:
            units[country] = units.get(country, 0) + per_country
    return {c: u / denom for c, u in units.items()}


def _fractional_country_shares(record: PublicationRecord) -> dict[str, float]:
    countries = countries_of(record)
    if not countries:
        return {UNRESOLVED: 1.0}
    k = len(countries)
    return {c: 1 / k for c in countries}


_SHARES = {
    CountMethod.WHOLE: _whole_shares,
    CountMethod.FRACTIONAL_AUTHOR: _fractional_author_shares,
    CountMethod.FRACTIONAL_COUNTRY: _fractional_country_shares,
}


def _count(corpus: Corpus, method: CountMethod, slice_label: str) -> ScoreTable:
    shares_of = _SHARES[method]
    scores: dict[str, float] = {}
    n = 0
    for record in _sorted_records(corpus):
        for country, share in sorted(shares_of(record).items()):
            scores[country] = scores.get(country, 0.0) + share
        n += 1
    return ScoreTable(method, slice_label, dict(sorted(scores.items())), n)


def whole_count(corpus: Corpus) -> ScoreTable:
    """Count each record once per country appearing on it."""
    return _count(corpus, CountMethod.WHOLE, ALL_FIELDS)


class FractionalMode(enum.Enum):
    """How one record's unit of credit is divided."""

    AUTHOR = "author"
    COUNTRY = "country"

    @property
    def method(self) -> CountMethod:
        """The :class:`CountMethod` that counts with this split."""
        return CountMethod(f"fractional_{self.value}")


def fractional_count(
    corpus: Corpus, mode: FractionalMode = FractionalMode.AUTHOR
) -> ScoreTable:
    """Distribute exactly one unit of credit per record.

    Author mode (the default) splits by author first, then by each
    author's countries; country mode splits evenly over the record's
    distinct countries. Total credit equals the number of records up to
    float rounding.
    """
    return _count(corpus, mode.method, ALL_FIELDS)


def slice_corpus(corpus: Corpus, group: str) -> Corpus:
    """Restrict a corpus to records tagged with any subject in ``group``.

    ``ALL`` returns the corpus unchanged. Unknown group names raise
    :class:`UnknownGroupError`.
    """
    if group == ALL_FIELDS:
        return corpus
    codes = corpus.scheme.group(group)
    kept = tuple(r for r in corpus.records if r.subjects & codes)
    return Corpus(kept, corpus.scheme, corpus.provenance)


def subject_group_count(
    corpus: Corpus,
    method: CountMethod = CountMethod.WHOLE,
    groups: list[str] | None = None,
) -> dict[str, ScoreTable]:
    """Count per subject group, plus the unrestricted ``ALL`` slice.

    Returns one ScoreTable per group, keyed and labelled by group name.
    ``groups=None`` means ``ALL`` followed by every scheme group in
    declaration order. Unknown group names raise
    :class:`UnknownGroupError`, from :func:`slice_corpus`.
    """
    if groups is None:
        groups = [ALL_FIELDS, *corpus.scheme.names]
    out: dict[str, ScoreTable] = {}
    for group in groups:
        sliced = slice_corpus(corpus, group)
        out[group] = _count(sliced, method, group)
    return out
