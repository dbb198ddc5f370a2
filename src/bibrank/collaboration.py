"""International collaboration metrics.

A record is international when at least two distinct resolved countries
appear across its authors; the ``ZZ`` bucket never counts toward that.
For each country three indicators are derived from whole count (wc),
fractional count (fc) and international collaborative paper count (icp):

* icp_pct: share of the country's papers that are international,
  100 * icp / wc.
* reduction_pct: how much smaller the fractional count is than the whole
  count. The default basis expresses the gap relative to fc,
  100 * (wc - fc) / fc; the alternative basis divides by wc instead.
* ratio: reduction_pct / icp_pct, undefined (None) when icp_pct is zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .counting import CountMethod, ScoreTable, _ICP, _fractional, _is_international, _sweep
from .counting import fractional_count, whole_count  # noqa: F401 - perfbench wraps them here
from .errors import UndefinedInputError
from .ingest import CountryAggregate
from .model import ALL_FIELDS, Corpus, PublicationRecord, countries_of


class ReductionBasis(enum.Enum):
    """Denominator used by :func:`reduction_pct`."""

    FC_BASIS = "fc"
    WC_BASIS = "wc"


def is_international(record: PublicationRecord) -> bool:
    """True when the record's authors span at least two resolved countries."""
    return _is_international(countries_of(record))


def icp_count(corpus: Corpus) -> ScoreTable:
    """Per-country count of international records (whole-counted)."""
    return _sweep(corpus, [_ICP], [ALL_FIELDS])[_ICP][ALL_FIELDS]


def icp_pct(wc: float, icp: float) -> float:
    """Percentage of a country's papers that are international."""
    if wc <= 0:
        raise UndefinedInputError("icp_pct needs a positive whole count")
    if icp < 0 or icp > wc:
        raise UndefinedInputError("icp must lie in [0, wc]")
    return 100.0 * icp / wc


def reduction_pct(
    wc: float, fc: float, basis: ReductionBasis = ReductionBasis.FC_BASIS
) -> float:
    """Relative gap between whole and fractional count, as a percentage."""
    if wc <= 0 or fc <= 0:
        raise UndefinedInputError("reduction_pct needs positive wc and fc")
    if fc > wc:
        raise UndefinedInputError("fractional count cannot exceed whole count")
    if basis is ReductionBasis.FC_BASIS:
        return 100.0 * (wc - fc) / fc
    return 100.0 * (wc - fc) / wc


def reduction_icp_ratio(reduction: float, icp_percentage: float) -> float | None:
    """Reduction per point of collaboration; None when icp_pct is zero."""
    if icp_percentage == 0.0:
        return None
    return reduction / icp_percentage


@dataclass(frozen=True)
class CountryMetrics(object):
    """Collaboration indicators for one country."""

    country: str
    wc: float
    fc: float
    icp: float
    icp_pct: float
    reduction_pct: float
    ratio: float | None


def derive_metrics(
    aggregates: list[CountryAggregate],
    basis: ReductionBasis = ReductionBasis.FC_BASIS,
) -> list[CountryMetrics]:
    """Turn (country, wc, fc, icp) aggregate rows into indicator rows.

    Input order is preserved; this is the single code path used both for
    corpus-derived aggregates and for externally published ones.
    """
    out = []
    for agg in aggregates:
        r = reduction_pct(agg.wc, agg.fc, basis)
        p = icp_pct(agg.wc, agg.icp)
        out.append(
            CountryMetrics(
                country=agg.country,
                wc=agg.wc,
                fc=agg.fc,
                icp=float(agg.icp),
                icp_pct=p,
                reduction_pct=r,
                ratio=reduction_icp_ratio(r, p),
            )
        )
    return out


def country_metrics(
    corpus: Corpus,
    basis: ReductionBasis = ReductionBasis.FC_BASIS,
    method: CountMethod = CountMethod.FRACTIONAL_AUTHOR,
) -> list[CountryMetrics]:
    """Compute the three indicators for every resolved country in a corpus.

    Rows are sorted by whole count descending, country code ascending on
    ties. ``ZZ`` is excluded: the indicators compare national counting
    methods and the unresolved bucket is not a country.
    """
    methods = [CountMethod.WHOLE, _fractional(method), _ICP]
    return _metrics(_sweep(corpus, methods, [ALL_FIELDS]), methods, basis)


def _metrics(tables: dict, methods: list[object], basis: ReductionBasis) -> list[CountryMetrics]:
    """:func:`country_metrics` from the ``ALL`` tables of a sweep of its ``methods``."""
    wc, fc, icp = (tables[m][ALL_FIELDS] for m in methods)
    aggregates = [
        CountryAggregate(c, wc.score(c), fc.score(c), int(icp.score(c)))
        for c in wc.countries()
        if fc.score(c) > 0
    ]
    return sorted(derive_metrics(aggregates, basis), key=lambda m: (-m.wc, m.country))
