from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from bibrank.counting import CountMethod, ScoreTable, subject_group_count
from bibrank.errors import UndefinedInputError
from bibrank.model import ALL_FIELDS, SubjectScheme
from bibrank.rankstats import (
    assign_ranks,
    average_ranks,
    correlation_matrix,
    pearson,
    spearman,
    spearman_closed_form,
    srcc_matrix,
)

from oracles import (
    oracle_average_ranks,
    oracle_cli_pearson_matrix,
    oracle_pearson,
    oracle_spearman,
    random_corpus,
)


class TestAverageRanks:
    def test_no_ties_ascending(self):
        assert average_ranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_share_mean_position(self):
        assert average_ranks([10, 5, 5, 1], descending=True) == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert average_ranks([7, 7, 7]) == [2.0, 2.0, 2.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40), st.booleans())
    def test_matches_counting_oracle(self, values, descending):
        assert average_ranks(values, descending) == oracle_average_ranks(
            values, descending
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    def test_ranks_sum_to_triangular_number(self, values):
        n = len(values)
        assert sum(average_ranks(values)) == pytest.approx(n * (n + 1) / 2)


class TestAssignRanks:
    def test_competition_and_tie_ranks(self):
        table = assign_ranks({"A": 10.0, "B": 5.0, "C": 5.0, "D": 1.0})
        assert [(e.country, e.rank) for e in table.entries] == [
            ("A", 1),
            ("B", 2),
            ("C", 2),
            ("D", 4),
        ]
        assert [e.tie_rank for e in table.entries] == [1.0, 2.5, 2.5, 4.0]

    def test_equal_scores_sorted_by_country(self):
        table = assign_ranks({"ZC": 5.0, "AB": 5.0, "MM": 5.0})
        assert table.countries() == ["AB", "MM", "ZC"]

    def test_tie_ranks_sum_to_triangular_number(self):
        table = assign_ranks({"A": 3.0, "B": 3.0, "C": 3.0, "D": 1.0, "E": 9.0})
        n = len(table.entries)
        assert sum(e.tie_rank for e in table.entries) == n * (n + 1) / 2

    def test_unresolved_excluded_by_default(self):
        scores = {"US": 5.0, "ZZ": 9.0}
        assert assign_ranks(scores).countries() == ["US"]
        with_zz = assign_ranks(scores, include_unresolved=True)
        assert with_zz.rank_of("ZZ") == 1

    def test_slice_label_copied_from_score_table(self):
        table = ScoreTable(CountMethod.WHOLE, "phys", {"US": 2.0, "GB": 1.0}, 2)
        ranked = assign_ranks(table)
        assert ranked.slice_label == "phys"
        assert ranked.rank_of("US") == 1

    def test_empty_table_rejected(self):
        with pytest.raises(UndefinedInputError):
            assign_ranks({})

    def test_rank_of_unranked_country(self):
        with pytest.raises(KeyError):
            assign_ranks({"US": 1.0}).rank_of("GB")

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.text("ABCDEFGH", min_size=1, max_size=2),
            st.integers(0, 1000),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([2, 3, 10, 1000]),
    )
    def test_scale_invariance(self, scores, factor):
        base = assign_ranks({c: float(v) for c, v in scores.items()})
        scaled = assign_ranks({c: float(v * factor) for c, v in scores.items()})
        assert [(e.country, e.rank, e.tie_rank) for e in base.entries] == [
            (e.country, e.rank, e.tie_rank) for e in scaled.entries
        ]


class TestSpearman:
    def test_identical_vectors(self):
        assert spearman([1, 5, 3, 4], [1, 5, 3, 4]) == 1.0

    def test_reversed_vectors(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_known_squared_distance(self):
        # a 20-element permutation built from disjoint swaps with offsets
        # 9, 1, 4, 2, 1: sum of d^2 = 2*(81+1+16+4+1) = 206
        x = list(range(1, 21))
        y = list(range(1, 21))
        for i, j in [(1, 10), (2, 3), (11, 15), (16, 18), (19, 20)]:
            a, b = x.index(i), x.index(j)
            y[a], y[b] = y[b], y[a]
        d2 = sum((a - b) ** 2 for a, b in zip(x, y))
        assert d2 == 206
        expected = 1 - 6 * 206 / (20 * (20 * 20 - 1))
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
        assert spearman(x, y) == pytest.approx(0.84, abs=0.01)

    def test_ties_use_average_ranks(self):
        x = [1, 2, 2, 4]
        y = [1, 3, 2, 4]
        assert spearman(x, y) == pytest.approx(oracle_spearman(x, y), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(UndefinedInputError):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(UndefinedInputError):
            spearman([1], [2])

    def test_constant_vector_undefined(self):
        with pytest.raises(UndefinedInputError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(UndefinedInputError):
            spearman([1, float("nan"), 3], [1, 2, 3])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=2, max_size=30, unique=True).flatmap(
            lambda x: st.tuples(
                st.just(x),
                st.lists(
                    st.integers(-100, 100),
                    min_size=len(x),
                    max_size=len(x),
                    unique=True,
                ),
            )
        )
    )
    def test_closed_form_agrees_when_tie_free(self, xy):
        x, y = xy
        assert spearman(x, y) == pytest.approx(spearman_closed_form(x, y), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=2, max_size=20),
        st.lists(st.integers(-20, 20), min_size=2, max_size=20),
    )
    def test_monotone_transform_invariance_and_symmetry(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        r = spearman(x, y)
        assert r == spearman(y, x)
        assert spearman([v**3 for v in x], y) == r
        assert -1.0 <= r <= 1.0


class TestPearson:
    def test_affine_positive(self):
        assert pearson([1, 2, 3], [5, 7, 9]) == 1.0

    def test_affine_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedInputError):
            pearson([2, 2, 2], [1, 2, 3])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=2, max_size=30),
        st.lists(st.integers(-100, 100), min_size=2, max_size=30),
    )
    def test_matches_textbook_formula(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert pearson(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-12)


class TestSrccMatrix:
    def _table(self, label, scores):
        return ScoreTable(CountMethod.WHOLE, label, scores, len(scores))

    def test_identical_slices(self):
        t = self._table("a", {"US": 3.0, "GB": 2.0, "FR": 1.0})
        u = self._table("b", {"US": 3.0, "GB": 2.0, "FR": 1.0})
        matrix = srcc_matrix({"a": t, "b": u})
        assert matrix.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_symmetric_with_unit_diagonal(self):
        tables = {
            "a": self._table("a", {"US": 3.0, "GB": 2.0, "FR": 1.0, "DE": 0.5}),
            "b": self._table("b", {"US": 1.0, "GB": 2.0, "FR": 3.0, "DE": 4.0}),
            "c": self._table("c", {"US": 2.0, "GB": 9.0, "FR": 1.0, "DE": 4.0}),
        }
        matrix = srcc_matrix(tables)
        for i in range(3):
            assert matrix.values[i, i] == 1.0
            for j in range(3):
                assert matrix.values[i, j] == matrix.values[j, i]

    def test_intersection_recorded(self):
        tables = {
            "a": self._table("a", {"US": 3.0, "GB": 2.0, "FR": 1.0}),
            "b": self._table("b", {"US": 1.0, "GB": 2.0, "JP": 3.0}),
        }
        matrix = srcc_matrix(tables)
        assert matrix.countries == ("GB", "US")

    def test_rank_table_input_equivalent_to_scores(self):
        scores_a = {"US": 3.0, "GB": 2.0, "FR": 1.5, "DE": 0.5}
        scores_b = {"US": 1.0, "GB": 5.0, "FR": 2.0, "DE": 4.0}
        from_scores = srcc_matrix(
            {"a": self._table("a", scores_a), "b": self._table("b", scores_b)}
        )
        from_ranks = srcc_matrix(
            {"a": assign_ranks(scores_a), "b": assign_ranks(scores_b)}
        )
        assert from_scores.values.tolist() == from_ranks.values.tolist()

    def test_too_few_common_countries(self):
        tables = {
            "a": self._table("a", {"US": 3.0, "GB": 2.0}),
            "b": self._table("b", {"JP": 1.0, "CN": 2.0}),
        }
        with pytest.raises(UndefinedInputError):
            srcc_matrix(tables)

    def test_value_lookup_by_label(self):
        tables = {
            "a": self._table("a", {"US": 3.0, "GB": 2.0, "FR": 1.0}),
            "b": self._table("b", {"US": 1.0, "GB": 2.0, "FR": 3.0}),
        }
        matrix = srcc_matrix(tables)
        assert matrix.value("a", "b") == pytest.approx(-1.0)


class TestCorrelationMatrix:
    SCHEME = SubjectScheme(
        {
            "phys": frozenset({"PHYS"}),
            "chem": frozenset({"CHEM", "BIO"}),
            "life": frozenset({"BIO", "MED"}),
            "soc": frozenset({"SOC"}),
        }
    )
    SLICE_SETS = (
        [ALL_FIELDS, "phys", "life"],
        [ALL_FIELDS, "phys", "chem", "life", "soc"],
        ["soc", "phys"],
        ["life"],
    )

    @pytest.mark.parametrize("method", list(CountMethod))
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_pearson_bit_equal_to_frozen_cli_loop(self, seed, method):
        corpus = random_corpus(random.Random(seed), 60 + 40 * seed, self.SCHEME)
        compared = 0
        for groups in self.SLICE_SETS:
            tables = subject_group_count(corpus, method, groups)
            try:
                expected = oracle_cli_pearson_matrix(tables)
            except UndefinedInputError:
                with pytest.raises(UndefinedInputError):
                    correlation_matrix(tables, stat=pearson)
                continue
            got = correlation_matrix(tables, stat=pearson)
            assert got.labels == tuple(groups)
            assert got.values.tobytes() == expected.tobytes()
            compared += 1
        assert compared >= 3

    def test_default_stat_is_srcc_matrix(self):
        corpus = random_corpus(random.Random(9), 200, self.SCHEME)
        tables = subject_group_count(corpus, CountMethod.WHOLE, [ALL_FIELDS, "phys", "life"])
        a, b = srcc_matrix(tables), correlation_matrix(tables)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.countries == b.countries

    def test_explicit_countries(self):
        t = ScoreTable(CountMethod.WHOLE, "a", {"US": 3.0, "GB": 2.0, "FR": 1.0}, 3)
        u = ScoreTable(CountMethod.WHOLE, "b", {"US": 1.0, "GB": 2.0, "FR": 9.0}, 3)
        matrix = correlation_matrix({"a": t, "b": u}, countries=["US", "GB"], stat=pearson)
        assert matrix.countries == ("US", "GB")
        assert matrix.value("a", "b") == pytest.approx(-1.0)

    def test_too_few_shared_countries_names_the_slices(self):
        t = ScoreTable(CountMethod.WHOLE, "a", {"US": 3.0, "GB": 2.0}, 3)
        u = ScoreTable(CountMethod.WHOLE, "b", {"US": 1.0, "FR": 9.0}, 3)
        with pytest.raises(UndefinedInputError) as info:
            correlation_matrix({"a": t, "b": u})
        assert str(info.value) == (
            "correlation matrix needs at least two countries, got 1 for slices a, b"
        )


class TestAgainstScipy:
    """scipy.stats as a second, independently written oracle."""

    def test_spearman_matches_scipy_with_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(5)
        checked = 0
        while checked < 50:
            n = rng.randint(3, 40)
            x = [rng.randint(0, 9) for _ in range(n)]
            y = [rng.randint(0, 9) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-9)
            checked += 1

    def test_pearson_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(3, 40)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            expected = stats.pearsonr(x, y).statistic
            assert pearson(x, y) == pytest.approx(expected, abs=1e-9)
