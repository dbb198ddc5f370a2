"""Ranking and rank-correlation statistics.

Scores are ranked descending: the largest score gets rank 1. Ties are
handled two ways, carried side by side because they serve different
purposes:

* competition (display) rank: tied entries share the smallest position,
  the next entry skips past them (1, 2, 2, 4).
* average (tie) rank: tied entries share the mean of the positions they
  occupy (1, 2.5, 2.5, 4). Correlations always use these.

Spearman's rank correlation is computed as the Pearson correlation of the
two average-rank vectors; the classic closed form 1 - 6*sum(d^2)/(n^3 - n)
is also provided and agrees with it exactly when there are no ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .counting import ScoreTable
from .errors import UndefinedInputError
from .model import UNRESOLVED


def average_ranks(values: Sequence[float], descending: bool = False) -> list[float]:
    """Rank positions with ties averaged.

    ``descending=False`` ranks the smallest value 1 (the usual convention
    for rank vectors fed into correlations of already-ranked data);
    ``descending=True`` ranks the largest value 1.
    """
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=descending)
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        tied = pos
        while (
            tied + 1 < len(order)
            and values[order[tied + 1]] == values[order[pos]]
        ):
            tied += 1
        # positions pos..tied (0-based) share the mean 1-based rank
        mean_rank = (pos + tied) / 2 + 1
        for i in range(pos, tied + 1):
            ranks[order[i]] = mean_rank
        pos = tied + 1
    return ranks


@dataclass(frozen=True)
class RankEntry(object):
    """One ranked country."""

    country: str
    score: float
    rank: int
    tie_rank: float


@dataclass(frozen=True)
class RankTable(object):
    """Countries ordered by score, with competition and average ranks."""

    entries: tuple[RankEntry, ...]
    slice_label: str = ""

    def rank_of(self, country: str) -> int:
        for e in self.entries:
            if e.country == country:
                return e.rank
        raise KeyError(country)

    def countries(self) -> list[str]:
        return [e.country for e in self.entries]


def assign_ranks(
    scores: Mapping[str, float] | ScoreTable,
    include_unresolved: bool = False,
) -> RankTable:
    """Rank countries by score, descending, country code breaking ties.

    Tied scores share a competition rank and an average rank; the sort
    order within a tie is alphabetical so output is deterministic. The
    ``ZZ`` bucket is left out unless ``include_unresolved`` is set.
    """
    slice_label = ""
    if isinstance(scores, ScoreTable):
        slice_label = scores.slice_label
        scores = scores.scores
    items = sorted(
        (
            (c, s)
            for c, s in scores.items()
            if include_unresolved or c != UNRESOLVED
        ),
        key=lambda cs: (-cs[1], cs[0]),
    )
    if not items:
        raise UndefinedInputError("cannot rank an empty score table")
    values = [s for _, s in items]
    tie_ranks = average_ranks(values, descending=True)
    entries = []
    comp_rank = 0
    for i, (country, score) in enumerate(items):
        if i == 0 or score != items[i - 1][1]:
            comp_rank = i + 1
        entries.append(RankEntry(country, score, comp_rank, tie_ranks[i]))
    return RankTable(tuple(entries), slice_label)


def _clean_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    if len(x) != len(y):
        raise UndefinedInputError("correlation inputs differ in length")
    if len(x) < 2:
        raise UndefinedInputError("correlation needs at least two observations")
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
        raise UndefinedInputError("correlation inputs must be finite")
    return ax, ay


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation of two equal-length vectors.

    Raises :class:`UndefinedInputError` when either vector is constant.
    """
    ax, ay = _clean_pair(x, y)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedInputError("correlation undefined for a constant vector")
    r = float(dx @ dy) / (vx * vy) ** 0.5
    return min(1.0, max(-1.0, r))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation.

    Converts both inputs to average ranks and returns their Pearson
    correlation, which handles ties correctly.
    """
    ax, ay = _clean_pair(x, y)
    return pearson(average_ranks(list(ax)), average_ranks(list(ay)))


def spearman_closed_form(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-free Spearman shortcut 1 - 6*sum(d^2)/(n*(n^2-1)).

    ``x`` and ``y`` are converted to average ranks first. With ties the
    shortcut is only an approximation of :func:`spearman`; without ties
    the two agree to float precision.
    """
    ax, ay = _clean_pair(x, y)
    rx = np.asarray(average_ranks(list(ax)))
    ry = np.asarray(average_ranks(list(ay)))
    d = rx - ry
    n = len(rx)
    return float(1.0 - 6.0 * float(d @ d) / (n * (n * n - 1)))


@dataclass(frozen=True)
class CorrelationMatrix(object):
    """Symmetric matrix of pairwise correlations between labelled slices."""

    labels: tuple[str, ...]
    values: np.ndarray
    countries: tuple[str, ...]

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def _scores_for_matrix(table: ScoreTable | RankTable, country: str) -> float:
    if isinstance(table, ScoreTable):
        return table.score(country)
    # ranks order ascending = better, so negate to keep "larger is better"
    for e in table.entries:
        if e.country == country:
            return -e.tie_rank
    raise KeyError(country)


def correlation_matrix(
    tables: Mapping[str, ScoreTable | RankTable],
    countries: Sequence[str] | None = None,
    stat: Callable[[Sequence[float], Sequence[float]], float] = spearman,
) -> CorrelationMatrix:
    """Pairwise ``stat`` correlations across score or rank tables.

    With ``countries=None`` the comparison set is the countries common to
    every table (``ZZ`` excluded), sorted. Diagonal entries are exactly 1.
    """
    labels = tuple(tables.keys())
    if countries is None:
        common: set[str] | None = None
        for table in tables.values():
            present = set(table.countries())
            common = present if common is None else common & present
        countries = sorted(common or ())
    countries = tuple(countries)
    if len(countries) < 2:
        raise UndefinedInputError("correlation matrix needs at least two countries")

    vectors = {
        label: [_scores_for_matrix(table, c) for c in countries]
        for label, table in tables.items()
    }
    n = len(labels)
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = stat(vectors[labels[i]], vectors[labels[j]])
            values[i, j] = values[j, i] = r
    values.setflags(write=False)
    return CorrelationMatrix(labels, values, countries)


def srcc_matrix(
    tables: Mapping[str, ScoreTable | RankTable],
    countries: Sequence[str] | None = None,
) -> CorrelationMatrix:
    """Pairwise Spearman correlations; see :func:`correlation_matrix`."""
    return correlation_matrix(tables, countries)
