"""Regeneration of every derived quantity in the bundled reference tables.

The ``data/`` directory carries a published 20-country indicator set,
transcribed verbatim and guarded by checksums:

* ``table1.csv``: whole and fractional counts from one source database
  plus whole counts from a second database (19 countries shared; the
  second database's own 20th entry is a country absent from the first
  list, so one cell is empty).
* ``table2.csv``: whole count, fractional count and international paper
  count per country, in the ``country,wc,fc,icp`` aggregate schema.
* ``table2_expected.csv``: the derived percentage columns as published.
* ``table3.csv``: paper totals and rank per country per subject group, in
  the ``country,group,tp,rank`` schema. The rank values are positions in
  the full source ranking, so they can exceed 20.
* ``table4.csv``: the published 10x10 rank-correlation matrix.

Every ``replicate_*`` function recomputes the derived numbers from the
raw columns through the ordinary library code paths, ingest's strict CSV
reader and rankstats' pairwise loop included, and reports per-cell
deltas against the published values. Deltas beyond tolerance are
returned as named outliers, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Sequence

from .collaboration import CountryMetrics, ReductionBasis, derive_metrics
from .errors import FixtureIntegrityError
from .ingest import (
    CountryAggregate,
    GroupRankRow,
    _strict_rows,
    parse_aggregate_csv,
    parse_group_ranks_csv,
)
from .rankstats import CorrelationMatrix, _pairwise_matrix, pearson, spearman

# numpy and hashlib are imported inside the functions that use them:
# importing numpy takes longer than importing the rest of bibrank, hashlib
# loads libcrypto, and most commands never need either
if TYPE_CHECKING:
    import numpy as np

FIXTURE_CHECKSUMS = {
    "table1.csv": "da36f467e52fb093e67dfabcb738a908bc7321337530a09cb524642d401ce6c1",
    "table2.csv": "deab5b8270ac710f4be7d81accc2c3a0cea0e1273810f3e6d90508032e50e35a",
    "table2_expected.csv": "60f6eef249fc711d63db07b69bc30bcc14624ba9efb10d1d5b9a683ba0d517a1",
    "table3.csv": "921c9672d8d78371bb8966677d03167f2e517d7b5dcda8ecd1747e11ec8cb0ee",
    "table4.csv": "014817acce8581c46b3817f9ded7a0c7115db6933e94a6ed2b10b21c1c5bb5e7",
}

GROUPS = (
    "All Fields",
    "Health Sciences",
    "Life Sciences",
    "Physical Sciences",
    "Social Science",
    "CS",
    "SS & AH",
    "ENG",
    "AGR, BIO & VET",
    "MED, IMM & DEN",
)

TOL_REDUCTION = 0.05
TOL_ICP = 0.05
TOL_RATIO = 0.01
TOL_CELL = 0.02
TOL_OUTLIER = 0.05
TOL_SRCC_WC_FC = 0.001
TOL_PEARSON = 0.01

# the second source list's 20th entry, absent from the first list's top 20;
# its first-list count ranks it 21st there. Used only in the cross-database
# coefficient note, never in the shared-country computation.
EXTRA_COUNTRY = "TW"
EXTRA_NSF_WC = 34561.0
EXTRA_ELSEVIER_WC = 34770.0


@dataclass(frozen=True)
class Table1Row(object):
    """Counts for one country across the two source databases."""

    country: str
    nsf_wc: float
    nsf_fc: float
    elsevier_wc: float | None


@dataclass(frozen=True)
class PrintedMetrics(object):
    """Published derived columns for one country."""

    country: str
    reduction_pct: float
    icp_pct: float
    ratio: float


@dataclass(frozen=True)
class FixtureSet(object):
    """The bundled reference tables, parsed and integrity-checked."""

    table1: tuple[Table1Row, ...]
    table2: tuple[CountryAggregate, ...]
    table2_printed: tuple[PrintedMetrics, ...]
    table3: tuple[GroupRankRow, ...]
    table4_printed: np.ndarray
    groups: tuple[str, ...]

    def countries(self) -> list[str]:
        return [row.country for row in self.table1]

    def rank_column(self, group: str) -> list[float]:
        """Table 3 rank values for ``group``, in table-1 country order."""
        by_country = {r.country: r.rank for r in self.table3 if r.group == group}
        return [by_country[c] for c in self.countries()]

    def tp_column(self, group: str) -> list[float]:
        by_country = {r.country: r.tp for r in self.table3 if r.group == group}
        return [by_country[c] for c in self.countries()]


def _read_asset(name: str) -> str:
    import hashlib

    data = resources.files("bibrank").joinpath("data", name).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    expected = FIXTURE_CHECKSUMS[name]
    if digest != expected:
        raise FixtureIntegrityError(
            f"bundled table {name} has been modified: "
            f"sha256 {digest} != expected {expected}"
        )
    return data.decode("utf-8")


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSet:
    """Load and validate the bundled tables.

    Raises :class:`SchemaError` from ingest's strict reader when a header
    or row width is off, and :class:`FixtureIntegrityError` when a file's
    checksum does not match or the cross-table consistency checks fail.
    """
    import numpy as np

    t1_rows = tuple(
        Table1Row(country, float(nsf_wc), float(nsf_fc), float(els_wc) if els_wc else None)
        for country, nsf_wc, nsf_fc, els_wc in _strict_rows(
            _read_asset("table1.csv"), ["country", "nsf_wc", "nsf_fc", "elsevier_wc"]
        )
    )

    t2 = tuple(parse_aggregate_csv(_read_asset("table2.csv")))
    t2_printed = tuple(
        PrintedMetrics(country, float(reduction_pct), float(icp_pct), float(ratio))
        for country, reduction_pct, icp_pct, ratio in _strict_rows(
            _read_asset("table2_expected.csv"), ["country", "reduction_pct", "icp_pct", "ratio"]
        )
    )
    t3 = tuple(parse_group_ranks_csv(_read_asset("table3.csv")))

    t4_rows = list(_strict_rows(_read_asset("table4.csv"), ["group", *GROUPS]))
    if [r[0] for r in t4_rows] != list(GROUPS):
        raise FixtureIntegrityError("table4 row labels do not match group order")
    t4 = np.array([[float(v) for v in r[1:]] for r in t4_rows])
    t4.setflags(write=False)

    fixtures = FixtureSet(t1_rows, t2, t2_printed, t3, t4, GROUPS)

    if len(fixtures.table1) != 20 or len(fixtures.table2) != 20:
        raise FixtureIntegrityError("expected 20 countries per table")
    if len(fixtures.table3) != 200:
        raise FixtureIntegrityError("expected 20 countries x 10 groups in table3")
    by_country = {a.country: a for a in fixtures.table2}
    for row in fixtures.table1:
        agg = by_country.get(row.country)
        if agg is None or agg.wc != row.nsf_wc or agg.fc != row.nsf_fc:
            raise FixtureIntegrityError(
                f"count tables disagree for {row.country}: "
                f"({row.nsf_wc}, {row.nsf_fc}) vs {agg}"
            )
    return fixtures


# ---------------------------------------------------------------------------
# Table 2


@dataclass(frozen=True)
class Table2Row(object):
    """Computed vs published indicators for one country."""

    computed: CountryMetrics
    printed: PrintedMetrics

    @property
    def deltas(self) -> tuple[float, float, float]:
        ratio = self.computed.ratio if self.computed.ratio is not None else float("nan")
        return (
            abs(self.computed.reduction_pct - self.printed.reduction_pct),
            abs(self.computed.icp_pct - self.printed.icp_pct),
            abs(ratio - self.printed.ratio),
        )

    @property
    def within_tolerance(self) -> bool:
        d_red, d_icp, d_ratio = self.deltas
        return d_red <= TOL_REDUCTION and d_icp <= TOL_ICP and d_ratio <= TOL_RATIO


@dataclass(frozen=True)
class Table2Report(object):
    rows: tuple[Table2Row, ...]

    @property
    def passed(self) -> bool:
        return all(r.within_tolerance for r in self.rows)

    @property
    def failures(self) -> list[Table2Row]:
        return [r for r in self.rows if not r.within_tolerance]


def replicate_table2(fixtures: FixtureSet | None = None) -> Table2Report:
    """Recompute the three derived indicator columns for all 20 countries.

    Goes through :func:`bibrank.collaboration.derive_metrics` (the same
    code path corpus-derived aggregates take) and compares row by row
    against the published columns.
    """
    fixtures = fixtures or load_fixtures()
    computed = derive_metrics(list(fixtures.table2), ReductionBasis.FC_BASIS)
    printed = {p.country: p for p in fixtures.table2_printed}
    rows = tuple(Table2Row(m, printed[m.country]) for m in computed)
    return Table2Report(rows)


# ---------------------------------------------------------------------------
# named coefficients


@dataclass(frozen=True)
class NamedCoefficient(object):
    """One replicated scalar statistic."""

    name: str
    computed: float
    expected_low: float
    expected_high: float
    note: str = ""

    @property
    def within_tolerance(self) -> bool:
        return self.expected_low <= self.computed <= self.expected_high


@dataclass(frozen=True)
class RankCorrelationReport(object):
    coefficients: tuple[NamedCoefficient, ...]

    @property
    def passed(self) -> bool:
        return all(c.within_tolerance for c in self.coefficients)

    def get(self, name: str) -> NamedCoefficient:
        for c in self.coefficients:
            if c.name == name:
                return c
        raise KeyError(name)


def replicate_rank_correlations(fixtures: FixtureSet | None = None) -> RankCorrelationReport:
    """Recompute the three named scalar statistics.

    * ``srcc_wc_fc``: Spearman between the whole-count and fractional-count
      rankings of the 20 first-database countries (published 0.947).
    * ``srcc_cross_database``: Spearman between the two databases' whole
      counts over their 19 shared countries. The shared countries rank in
      identical order, so the value is exactly 1.0; the published 0.999 is
      reproducible only by pulling in each database's non-shared 20th/21st
      entry, which the note documents without guessing intent.
    * ``pearson_icp_reduction``: Pearson between the collaboration share
      and the count-reduction columns (published 0.98).
    """
    fixtures = fixtures or load_fixtures()
    wc = [row.nsf_wc for row in fixtures.table1]
    fc = [row.nsf_fc for row in fixtures.table1]
    srcc_wc_fc = spearman(wc, fc)

    shared = [(r.nsf_wc, r.elsevier_wc) for r in fixtures.table1 if r.elsevier_wc is not None]
    srcc_cross = spearman([s[0] for s in shared], [s[1] for s in shared])

    # the documented reconstruction of the published cross-database value:
    # include each list's extra entry, rank within the first database (the
    # extra country lands 21st), take d^2 on those positions over the
    # second list's 20 members: sum(d^2)=1, 1 - 6/(20*399) = 0.99925
    nsf_all = sorted(
        [(row.nsf_wc, row.country) for row in fixtures.table1]
        + [(EXTRA_NSF_WC, EXTRA_COUNTRY)],
        reverse=True,
    )
    nsf_rank = {c: i + 1 for i, (_, c) in enumerate(nsf_all)}
    els_order = sorted(
        [(row.elsevier_wc, row.country) for row in fixtures.table1 if row.elsevier_wc is not None]
        + [(EXTRA_ELSEVIER_WC, EXTRA_COUNTRY)],
        reverse=True,
    )
    n = len(els_order)
    d2 = sum((nsf_rank[c] - (i + 1)) ** 2 for i, (_, c) in enumerate(els_order))
    cross_reconstructed = 1.0 - 6.0 * d2 / (n * (n * n - 1))

    metrics = derive_metrics(list(fixtures.table2), ReductionBasis.FC_BASIS)
    pearson_ir = pearson([m.icp_pct for m in metrics], [m.reduction_pct for m in metrics])

    coefficients = (
        NamedCoefficient(
            "srcc_wc_fc", srcc_wc_fc, 0.947 - TOL_SRCC_WC_FC, 0.947 + TOL_SRCC_WC_FC
        ),
        NamedCoefficient(
            "srcc_cross_database",
            srcc_cross,
            0.99,
            1.0,
            note=(
                "shared 19 countries rank identically (exactly 1.0); including "
                f"both lists' extra entries gives {cross_reconstructed:.5f}, "
                "matching the published 0.999 to three decimals"
            ),
        ),
        NamedCoefficient(
            "pearson_icp_reduction", pearson_ir, 0.98 - TOL_PEARSON, 0.98 + TOL_PEARSON
        ),
    )
    return RankCorrelationReport(coefficients)


# ---------------------------------------------------------------------------
# Table 4


def published_srcc_variant(rx: Sequence[float], ry: Sequence[float]) -> float:
    """The rank-correlation arithmetic behind the published matrix.

    Applies 1 - 6*sum(d^2)/(n^2*(n-1)) directly to the rank values as
    given. Two quirks, both recovered from the published numbers and
    needed to reproduce them: the denominator is n^2*(n-1) rather than
    the usual n*(n^2-1), and the ranks are used as-is (they are positions
    in the wider source ranking, not re-ranked to 1..n). Every published
    cell agrees with this variant within 0.007; no other tested
    convention comes close (see the delta report).
    """
    import numpy as np

    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    n = len(rx)
    d = rx - ry
    return float(1.0 - 6.0 * float(d @ d) / (n * n * (n - 1)))


@dataclass(frozen=True)
class Table4Cell(object):
    """Delta-report entry for one off-diagonal cell."""

    row_group: str
    col_group: str
    computed: float
    printed: float
    avg_rank_spearman: float

    @property
    def delta(self) -> float:
        return abs(self.computed - self.printed)

    @property
    def outlier(self) -> bool:
        return self.delta > TOL_CELL


@dataclass(frozen=True)
class Table4Report(object):
    """Recomputed matrix plus the per-cell delta report."""

    matrix: CorrelationMatrix
    avg_rank_matrix: CorrelationMatrix
    printed: np.ndarray
    cells: tuple[Table4Cell, ...]

    @property
    def outliers(self) -> list[Table4Cell]:
        return [c for c in self.cells if c.outlier]

    @property
    def passed(self) -> bool:
        n_off = len(self.cells)
        within = sum(1 for c in self.cells if not c.outlier)
        diag_ok = all(float(self.matrix.values[i, i]) == 1.0 for i in range(len(self.matrix.labels)))
        return (
            diag_ok
            and within >= 0.9 * n_off
            and all(c.delta <= TOL_OUTLIER for c in self.cells)
        )


def replicate_table4(fixtures: FixtureSet | None = None) -> Table4Report:
    """Recompute the 10x10 subject-group rank-correlation matrix.

    The primary matrix uses :func:`published_srcc_variant` on the raw
    rank columns, which is the arithmetic the published matrix was built
    with; the standard average-rank Spearman is computed alongside and
    carried in every delta-report cell for comparison. Cells beyond the
    per-cell tolerance are listed as outliers rather than hidden.
    """
    fixtures = fixtures or load_fixtures()
    groups = fixtures.groups
    cols = [fixtures.rank_column(g) for g in groups]
    values = _pairwise_matrix(cols, published_srcc_variant)
    avg_values = _pairwise_matrix(cols, spearman)
    cells = [
        Table4Cell(
            row_group=groups[i],
            col_group=groups[j],
            computed=float(values[i, j]),
            printed=float(fixtures.table4_printed[i, j]),
            avg_rank_spearman=float(avg_values[i, j]),
        )
        for i in range(len(groups))
        for j in range(len(groups))
        if i != j
    ]
    countries = tuple(fixtures.countries())
    return Table4Report(
        matrix=CorrelationMatrix(tuple(groups), values, countries),
        avg_rank_matrix=CorrelationMatrix(tuple(groups), avg_values, countries),
        printed=fixtures.table4_printed,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# Fig. 1


@dataclass(frozen=True)
class Fig1Curves(object):
    """Plot-ready descending series of the two indicator columns."""

    reduction_series: tuple[tuple[str, float], ...]
    icp_series: tuple[tuple[str, float], ...]


def fig1_curves(fixtures: FixtureSet | None = None) -> Fig1Curves:
    """Sorted indicator curves: each series descends over its 20 points."""
    fixtures = fixtures or load_fixtures()
    metrics = derive_metrics(list(fixtures.table2), ReductionBasis.FC_BASIS)
    reduction = sorted(
        ((m.country, m.reduction_pct) for m in metrics), key=lambda p: (-p[1], p[0])
    )
    icp = sorted(((m.country, m.icp_pct) for m in metrics), key=lambda p: (-p[1], p[0]))
    return Fig1Curves(tuple(reduction), tuple(icp))
