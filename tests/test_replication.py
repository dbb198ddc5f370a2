from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from bibrank.errors import FixtureIntegrityError
from bibrank.rankstats import spearman
from bibrank.replication import (
    FIXTURE_CHECKSUMS,
    GROUPS,
    TOL_CELL,
    TOL_OUTLIER,
    Table4Cell,
    fig1_curves,
    load_fixtures,
    published_srcc_variant,
    replicate_rank_correlations,
    replicate_table2,
    replicate_table4,
)

from oracles import oracle_load_fixtures, oracle_table4


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


class TestFixtures:
    def test_shapes(self, fixtures):
        assert len(fixtures.table1) == 20
        assert len(fixtures.table2) == 20
        assert len(fixtures.table3) == 200
        assert fixtures.table4_printed.shape == (10, 10)
        assert fixtures.groups == GROUPS

    def test_count_tables_agree_row_by_row(self, fixtures):
        by_country = {a.country: a for a in fixtures.table2}
        for row in fixtures.table1:
            assert by_country[row.country].wc == row.nsf_wc
            assert by_country[row.country].fc == row.nsf_fc

    def test_rank_columns_are_consistent_with_totals(self, fixtures):
        # within the 20 bundled countries, sorting by paper totals must
        # reproduce the column's rank order (rank values come from a wider
        # source list, so compare order, not position)
        for group in fixtures.groups:
            tp = fixtures.tp_column(group)
            rank = fixtures.rank_column(group)
            by_tp = sorted(range(20), key=lambda i: (-tp[i], rank[i]))
            assert [rank[i] for i in by_tp] == sorted(rank)

    def test_second_database_column_has_one_gap(self, fixtures):
        missing = [r.country for r in fixtures.table1 if r.elsevier_wc is None]
        assert len(missing) == 1

    def test_checksum_guard_catches_edits(self, monkeypatch):
        import bibrank.replication as replication

        monkeypatch.setitem(FIXTURE_CHECKSUMS, "table1.csv", "0" * 64)
        load_fixtures.cache_clear()
        try:
            with pytest.raises(FixtureIntegrityError, match="table1.csv"):
                replication._read_asset("table1.csv")
        finally:
            load_fixtures.cache_clear()

    def test_all_files_have_checksums(self):
        assert set(FIXTURE_CHECKSUMS) == {
            "table1.csv",
            "table2.csv",
            "table2_expected.csv",
            "table3.csv",
            "table4.csv",
        }


class TestFixtureReaderEquivalence:
    """The bundled tables parse to the same values as the frozen readers."""

    def test_row_tables_match_reference_reprs(self, fixtures):
        expected = oracle_load_fixtures()
        for name in ("table1", "table2", "table2_printed", "table3"):
            assert repr(getattr(fixtures, name)) == repr(getattr(expected, name)), name

    def test_printed_matrix_matches_reference_bytes(self, fixtures):
        expected = oracle_load_fixtures().table4_printed
        assert fixtures.table4_printed.dtype == expected.dtype
        assert fixtures.table4_printed.shape == expected.shape
        assert fixtures.table4_printed.tobytes() == expected.tobytes()
        assert not fixtures.table4_printed.flags.writeable


class TestTable2:
    def test_all_rows_within_tolerance(self, fixtures):
        report = replicate_table2(fixtures)
        assert len(report.rows) == 20
        assert report.passed, [r.computed.country for r in report.failures]

    @pytest.mark.parametrize(
        "country,reduction,icp,ratio",
        [
            ("IN", 10.5, 17.6, 0.60),
            ("NL", 64.3, 61.6, 1.04),
            ("GB", 57.9, 57.7, 1.00),
            ("CH", 83.5, 69.0, 1.21),
        ],
    )
    def test_named_rows(self, fixtures, country, reduction, icp, ratio):
        row = next(
            r for r in replicate_table2(fixtures).rows if r.computed.country == country
        )
        assert row.computed.reduction_pct == pytest.approx(reduction, abs=0.05)
        assert row.computed.icp_pct == pytest.approx(icp, abs=0.05)
        assert row.computed.ratio == pytest.approx(ratio, abs=0.01)
        assert (row.printed.reduction_pct, row.printed.icp_pct, row.printed.ratio) == (
            reduction,
            icp,
            ratio,
        )


class TestRankCorrelations:
    def test_wc_fc_srcc(self, fixtures):
        c = replicate_rank_correlations(fixtures).get("srcc_wc_fc")
        assert c.computed == pytest.approx(0.947, abs=0.001)
        assert c.within_tolerance

    def test_cross_database_srcc(self, fixtures):
        c = replicate_rank_correlations(fixtures).get("srcc_cross_database")
        assert 0.99 <= c.computed <= 1.0
        # the 19 shared countries rank in the same order in both databases
        assert c.computed == 1.0
        assert "0.99925" in c.note

    def test_pearson_icp_reduction(self, fixtures):
        c = replicate_rank_correlations(fixtures).get("pearson_icp_reduction")
        assert c.computed == pytest.approx(0.98, abs=0.01)

    def test_wc_fc_squared_rank_distance(self, fixtures):
        # the scalar behind srcc_wc_fc: fc reorders the wc ranking with
        # a total squared displacement of 70
        wc = [r.nsf_wc for r in fixtures.table1]
        fc = [r.nsf_fc for r in fixtures.table1]
        rank_wc = sorted(range(20), key=lambda i: -wc[i])
        rank_fc = sorted(range(20), key=lambda i: -fc[i])
        pos_wc = {i: p for p, i in enumerate(rank_wc)}
        pos_fc = {i: p for p, i in enumerate(rank_fc)}
        d2 = sum((pos_wc[i] - pos_fc[i]) ** 2 for i in range(20))
        assert d2 == 70
        assert spearman(wc, fc) == pytest.approx(1 - 6 * 70 / 7980, abs=1e-12)


class TestTable4:
    def test_passes_cell_tolerance_rule(self, fixtures):
        report = replicate_table4(fixtures)
        assert len(report.cells) == 90
        assert report.outliers == []
        assert report.passed

    def test_outlier_flag_is_the_cell_tolerance(self, fixtures):
        report = replicate_table4(fixtures)
        assert all(c.outlier == (c.delta > TOL_CELL) for c in report.cells)
        # delta exactly at the tolerance is within it; 9 of 10 within passes
        at = Table4Cell("a", "b", computed=TOL_CELL, printed=0.0, avg_rank_spearman=0.0)
        beyond = dataclasses.replace(at, computed=0.04)
        assert (at.outlier, beyond.outlier) == (False, True)
        for n_beyond, passed in [(0, True), (1, True), (2, False)]:
            cells = (beyond,) * n_beyond + (at,) * (10 - n_beyond)
            synthetic = dataclasses.replace(report, cells=cells)
            assert synthetic.outliers == [c for c in cells if c.outlier]
            assert synthetic.passed is passed
        far = dataclasses.replace(at, computed=TOL_OUTLIER + 0.01)
        assert not dataclasses.replace(report, cells=(far,) + (at,) * 9).passed

    def test_matches_reference_loop_bit_for_bit(self, fixtures):
        report = replicate_table4(fixtures)
        expected = oracle_table4(fixtures)
        for name in ("matrix", "avg_rank_matrix"):
            got, want = getattr(report, name), getattr(expected, name)
            assert got.labels == want.labels and got.countries == want.countries, name
            assert got.values.dtype == want.values.dtype, name
            assert got.values.shape == want.values.shape, name
            assert got.values.tobytes() == want.values.tobytes(), name
            assert not got.values.flags.writeable, name
        assert repr(report.cells) == repr(expected.cells)

    def test_named_cells(self, fixtures):
        matrix = replicate_table4(fixtures).matrix
        assert matrix.value("All Fields", "Health Sciences") == pytest.approx(0.84, abs=TOL_CELL)
        assert matrix.value("Physical Sciences", "ENG") == pytest.approx(0.96, abs=TOL_CELL)
        assert matrix.value("SS & AH", "ENG") == pytest.approx(0.053, abs=TOL_CELL)

    def test_diagonal_exactly_one(self, fixtures):
        values = replicate_table4(fixtures).matrix.values
        assert all(values[i, i] == 1.0 for i in range(10))

    def test_matrix_symmetric(self, fixtures):
        values = replicate_table4(fixtures).matrix.values
        assert np.array_equal(values, values.T)

    def test_published_variant_formula(self):
        # identical columns stay at exactly 1; one adjacent swap in a
        # 20-long column costs 12/7600
        col = list(range(1, 21))
        assert published_srcc_variant(col, col) == 1.0
        swapped = col.copy()
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert published_srcc_variant(col, swapped) == pytest.approx(1 - 12 / 7600)

    def test_published_variant_uses_raw_rank_values(self, fixtures):
        # the SS & AH column reaches rank 35; using those positions as-is
        # is what reproduces the published 0.053, while re-ranking to 1..20
        # (standard average-rank Spearman) lands far away: both values are
        # carried so the gap stays visible
        report = replicate_table4(fixtures)
        cell = next(
            c
            for c in report.cells
            if (c.row_group, c.col_group) == ("SS & AH", "ENG")
        )
        assert cell.printed == 0.053
        assert cell.computed == pytest.approx(0.0526, abs=5e-4)
        assert cell.avg_rank_spearman == pytest.approx(0.5308, abs=5e-4)

    def test_avg_rank_matrix_well_formed(self, fixtures):
        avg = replicate_table4(fixtures).avg_rank_matrix.values
        assert np.array_equal(avg, avg.T)
        assert all(avg[i, i] == 1.0 for i in range(10))
        assert np.all(avg <= 1.0) and np.all(avg >= -1.0)


class TestFig1:
    def test_curve_tops_and_shape(self, fixtures):
        curves = fig1_curves(fixtures)
        assert len(curves.reduction_series) == 20
        assert len(curves.icp_series) == 20
        top_red, top_icp = curves.reduction_series[0], curves.icp_series[0]
        assert top_red[0] == "CH"
        assert top_red[1] == pytest.approx(83.5, abs=0.05)
        assert top_icp[0] == "CH"
        assert top_icp[1] == pytest.approx(69.0, abs=0.05)

    def test_series_descend(self, fixtures):
        curves = fig1_curves(fixtures)
        for series in (curves.reduction_series, curves.icp_series):
            values = [v for _, v in series]
            assert values == sorted(values, reverse=True)
