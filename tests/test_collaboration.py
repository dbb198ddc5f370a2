from __future__ import annotations

import pytest

from bibrank.collaboration import (
    CountryMetrics,
    ReductionBasis,
    country_metrics,
    derive_metrics,
    icp_count,
    icp_pct,
    is_international,
    reduction_icp_ratio,
    reduction_pct,
)
from bibrank.errors import UndefinedInputError
from bibrank.ingest import CountryAggregate
from bibrank.model import Corpus

from conftest import rec
from oracles import oracle_is_international, random_corpus


class TestIsInternational:
    def test_two_countries_across_authors(self):
        assert is_international(rec("p", ["US"], ["GB"]))

    def test_two_countries_on_one_author(self):
        assert is_international(rec("p", ["GB", "FR"]))

    def test_domestic_many_authors(self):
        assert not is_international(rec("p", ["CN"], ["CN"], ["CN"]))

    def test_unresolved_author_does_not_make_international(self):
        assert not is_international(rec("p", ["US"], []))
        assert not is_international(rec("p", [], []))

    def test_matches_oracle_on_random_records(self):
        import random

        corpus = random_corpus(random.Random(99), 150)
        for record in corpus:
            assert is_international(record) == oracle_is_international(record)


class TestPercentages:
    def test_icp_pct(self):
        assert icp_pct(200, 50) == 25.0

    def test_icp_pct_requires_positive_wc(self):
        with pytest.raises(UndefinedInputError):
            icp_pct(0, 0)

    def test_icp_cannot_exceed_wc(self):
        with pytest.raises(UndefinedInputError):
            icp_pct(10, 11)

    def test_reduction_fc_basis(self):
        assert reduction_pct(3, 2) == 50.0

    def test_reduction_wc_basis(self):
        assert reduction_pct(3, 2, ReductionBasis.WC_BASIS) == pytest.approx(100 / 3)

    def test_reduction_requires_positive_counts(self):
        with pytest.raises(UndefinedInputError):
            reduction_pct(3, 0)

    def test_reduction_rejects_fc_above_wc(self):
        with pytest.raises(UndefinedInputError):
            reduction_pct(2, 3)

    def test_ratio_none_when_no_collaboration(self):
        assert reduction_icp_ratio(0.0, 0.0) is None
        assert reduction_icp_ratio(50.0, 25.0) == 2.0


class TestCorpusMetrics:
    def test_icp_count(self, mixed_corpus):
        table = icp_count(mixed_corpus)
        assert table.scores == {"FR": 1.0, "GB": 2.0, "US": 1.0}

    def test_country_metrics_values(self, mixed_corpus):
        metrics = {m.country: m for m in country_metrics(mixed_corpus)}
        us = metrics["US"]
        assert (us.wc, us.fc, us.icp) == (3.0, 2.0, 1.0)
        assert us.reduction_pct == 50.0
        assert us.icp_pct == pytest.approx(100 / 3)
        assert us.ratio == pytest.approx(1.5)
        cn = metrics["CN"]
        assert cn.icp_pct == 0.0
        assert cn.ratio is None

    def test_rows_sorted_by_wc_then_country(self, mixed_corpus):
        order = [m.country for m in country_metrics(mixed_corpus)]
        assert order == ["US", "GB", "CN", "FR"]

    def test_unresolved_bucket_excluded(self, mixed_corpus):
        assert all(m.country != "ZZ" for m in country_metrics(mixed_corpus))

    def test_wc_basis_changes_reduction_only(self, mixed_corpus):
        fc_rows = {m.country: m for m in country_metrics(mixed_corpus)}
        wc_rows = {
            m.country: m
            for m in country_metrics(mixed_corpus, ReductionBasis.WC_BASIS)
        }
        assert wc_rows["US"].reduction_pct == pytest.approx(100 / 3)
        assert wc_rows["US"].icp_pct == fc_rows["US"].icp_pct

    def test_fully_international_country(self):
        # every GB paper is international and half-credited
        corpus = Corpus((rec("p1", ["GB"], ["FR"]), rec("p2", ["GB"], ["FR"])))
        gb = {m.country: m for m in country_metrics(corpus)}["GB"]
        assert gb.icp_pct == 100.0
        assert gb.reduction_pct == 100.0
        assert gb.ratio == 1.0


class TestDeriveMetrics:
    def test_single_code_path_for_external_aggregates(self):
        rows = derive_metrics([CountryAggregate("GB", 156899, 99366.17, 90497)])
        gb = rows[0]
        assert isinstance(gb, CountryMetrics)
        assert gb.reduction_pct == pytest.approx(57.8998, abs=5e-4)
        assert gb.icp_pct == pytest.approx(57.6785, abs=5e-4)
        assert gb.ratio == pytest.approx(1.0038, abs=5e-4)

    def test_input_order_preserved(self):
        rows = derive_metrics(
            [
                CountryAggregate("B", 10, 5, 2),
                CountryAggregate("A", 20, 10, 4),
            ]
        )
        assert [r.country for r in rows] == ["B", "A"]
