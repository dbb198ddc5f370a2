"""End-to-end acceptance gate.

Each test exercises one shipping criterion at its stated tolerance and
prints a single ``[acceptance] criterion N: PASS`` / ``FAIL`` line so a
plain ``pytest -v -s tests/test_acceptance.py`` run doubles as a
checklist.  Tolerances here are contractual; do not loosen them to make
a regression pass.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from bibrank.collaboration import country_metrics, is_international
from bibrank.counting import (
    CountMethod,
    fractional_count,
    subject_group_count,
    whole_count,
)
from bibrank.ingest import parse_csv, parse_jsonl, to_csv, to_jsonl
from bibrank.model import (
    ALL_FIELDS,
    AuthorRef,
    Corpus,
    DocType,
    PublicationRecord,
    SubjectScheme,
)
from bibrank.rankstats import assign_ranks, spearman
from bibrank.replication import (
    TOL_CELL,
    TOL_OUTLIER,
    load_fixtures,
    replicate_rank_correlations,
    replicate_table2,
    replicate_table4,
)
from bibrank.synth import SynthParams, generate
from bibrank import cli

from oracles import (
    oracle_fractional_author,
    oracle_fractional_country,
    oracle_group_slice,
    oracle_is_international,
    oracle_spearman,
    oracle_whole,
    random_corpus,
    SUBJECT_POOL,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_reference_table_metrics():
    with criterion(1, "collaboration metrics match printed table"):
        report = replicate_table2()
        assert len(report.rows) == 20
        for row in report.rows:
            d_red, d_icp, d_ratio = row.deltas
            assert d_red <= 0.05, row.printed.country
            assert d_icp <= 0.05, row.printed.country
            assert d_ratio <= 0.01, row.printed.country
        by_country = {row.printed.country: row for row in report.rows}
        gb = by_country["GB"]
        assert round(gb.printed.reduction_pct, 1) == 57.9
        assert round(gb.printed.icp_pct, 1) == 57.7
        assert round(gb.printed.ratio, 2) == 1.00
        ch = by_country["CH"]
        assert round(ch.printed.reduction_pct, 1) == 83.5
        assert round(ch.printed.icp_pct, 1) == 69.0
        assert round(ch.printed.ratio, 2) == 1.21
        india = by_country["IN"]
        assert round(india.printed.reduction_pct, 1) == 10.5
        assert round(india.printed.icp_pct, 1) == 17.6
        assert round(india.printed.ratio, 2) == 0.60
        assert report.passed


def test_criterion_2_whole_vs_fractional_rank_correlation():
    with criterion(2, "whole vs fractional rank correlation"):
        report = replicate_rank_correlations()
        coeff = report.get("srcc_wc_fc")
        assert abs(coeff.computed - 0.947) <= 0.001
        assert coeff.within_tolerance


def test_criterion_3_share_vs_reduction_pearson():
    with criterion(3, "collaboration share vs reduction correlation"):
        report = replicate_rank_correlations()
        coeff = report.get("pearson_icp_reduction")
        assert abs(coeff.computed - 0.98) <= 0.01
        assert coeff.within_tolerance


def test_criterion_4_subject_rank_matrix():
    with criterion(4, "subject rank correlation matrix"):
        report = replicate_table4()
        fixtures = load_fixtures()
        n = len(fixtures.groups)
        assert len(report.cells) == n * (n - 1)
        for group in fixtures.groups:
            assert report.matrix.value(group, group) == 1.0
        named = {
            ("All Fields", "Health Sciences"): 0.84,
            ("Physical Sciences", "ENG"): 0.96,
            ("SS & AH", "ENG"): 0.053,
        }
        for (row, col), printed in named.items():
            cell = next(
                c for c in report.cells if c.row_group == row and c.col_group == col
            )
            assert cell.printed == pytest.approx(printed, abs=0.005)
            assert abs(cell.delta) <= TOL_CELL
        within = sum(1 for c in report.cells if abs(c.delta) <= TOL_CELL)
        assert within / len(report.cells) >= 0.90
        for cell in report.outliers:
            assert abs(cell.delta) <= TOL_OUTLIER
        assert report.passed


def test_criterion_5_cross_database_rank_correlation():
    with criterion(5, "cross-database rank correlation"):
        fixtures = load_fixtures()
        shared = [row for row in fixtures.table1 if row.elsevier_wc is not None]
        assert len(shared) == 19
        value = spearman(
            [row.nsf_wc for row in shared], [row.elsevier_wc for row in shared]
        )
        assert 0.99 <= value <= 1.0
        coeff = replicate_rank_correlations().get("srcc_cross_database")
        assert coeff.computed == value
        assert coeff.within_tolerance


def _fuzz_sizes() -> list[tuple[int, int]]:
    # 100+ seeds, mostly small corpora for speed, ramping up to the
    # full 10,000-record case the invariants are specified against.
    plan = [(seed, 40 + 37 * (seed % 9)) for seed in range(96)]
    plan += [(96, 1_000), (97, 2_500), (98, 5_000), (99, 10_000)]
    return plan


def test_criterion_6_synthetic_invariants():
    with criterion(6, "synthetic corpus invariants"):
        plan = _fuzz_sizes()
        assert len(plan) >= 100
        assert max(n for _, n in plan) == 10_000
        shuffler = random.Random(4242)
        for seed, n_records in plan:
            corpus = generate(SynthParams(seed=seed, n_records=n_records))
            assert len(corpus) == n_records

            fc = fractional_count(corpus)
            wc = whole_count(corpus)
            assert abs(fc.total() - n_records) <= 1e-6
            fc_country = fractional_count(corpus, method=CountMethod.FRACTIONAL_COUNTRY)
            assert abs(fc_country.total() - n_records) <= 1e-6
            for country, share in fc.scores.items():
                assert share <= wc.score(country)

            # Permutation invariance: same records, shuffled order and
            # shuffled author lists, must land on the same floats.
            records = list(corpus)
            shuffler.shuffle(records)
            permuted = Corpus(
                PublicationRecord(
                    id=r.id,
                    year=r.year,
                    doc_type=r.doc_type,
                    subjects=r.subjects,
                    authors=tuple(
                        sorted(r.authors, key=lambda a: sorted(a.countries))
                    ),
                )
                for r in records
            )
            fc_permuted = fractional_count(permuted)
            assert set(fc_permuted.scores) == set(fc.scores)
            for country, share in fc.scores.items():
                assert abs(fc_permuted.scores[country] - share) <= 1e-9

            # Appending one domestic record moves exactly one score by
            # exactly one whole unit.
            extra = PublicationRecord(
                id="zzzz-appended",
                year=2016,
                doc_type=DocType.ARTICLE,
                subjects=frozenset(),
                authors=(AuthorRef(countries=frozenset({"US"})),),
            )
            grown = Corpus(list(corpus) + [extra])
            fc_grown = fractional_count(grown)
            assert fc_grown.score("US") == fc.score("US") + 1.0
            for country, share in fc.scores.items():
                if country != "US":
                    assert fc_grown.scores[country] == share


def test_criterion_7_oracle_equivalence():
    with criterion(7, "oracle equivalence on random corpora"):
        scheme = SubjectScheme(
            {
                "g1": frozenset(SUBJECT_POOL[:2]),
                "g2": frozenset(SUBJECT_POOL[2:4]),
                "g3": frozenset(SUBJECT_POOL[4:]),
            }
        )
        rng = random.Random(20160814)
        for trial in range(25):
            corpus = random_corpus(rng, rng.randint(1, 200), scheme=scheme)

            assert whole_count(corpus).scores == oracle_whole(corpus)
            fc = fractional_count(corpus).scores
            expected = oracle_fractional_author(corpus)
            assert set(fc) == set(expected)
            for country, share in expected.items():
                assert abs(fc[country] - share) <= 1e-9
            fc_c = fractional_count(corpus, method=CountMethod.FRACTIONAL_COUNTRY).scores
            expected_c = oracle_fractional_country(corpus)
            assert set(fc_c) == set(expected_c)
            for country, share in expected_c.items():
                assert abs(fc_c[country] - share) <= 1e-9

            for record in corpus:
                assert is_international(record) == oracle_is_international(record)

            by_group = subject_group_count(corpus)
            for group in (ALL_FIELDS, "g1", "g2", "g3"):
                sliced = Corpus(oracle_group_slice(corpus, group), scheme)
                assert by_group[group].scores == oracle_whole(sliced)

            n = rng.randint(3, 30)
            xs = [rng.randint(0, 8) for _ in range(n)]
            ys = [rng.randint(0, 8) for _ in range(n)]
            if len(set(xs)) > 1 and len(set(ys)) > 1:
                assert spearman(xs, ys) == pytest.approx(
                    oracle_spearman(xs, ys), abs=1e-9
                )


def test_criterion_8_rank_flip_between_methods():
    with criterion(8, "whole vs fractional rank flip"):
        # AA publishes more, but almost always with three CC co-authors;
        # BB publishes less, all of it domestic.
        records = []
        for i in range(5):
            records.append(
                PublicationRecord(
                    id=f"aa{i}",
                    year=2016,
                    doc_type=DocType.ARTICLE,
                    subjects=frozenset(),
                    authors=(
                        AuthorRef(countries=frozenset({"AA"})),
                        AuthorRef(countries=frozenset({"CC"})),
                        AuthorRef(countries=frozenset({"CC"})),
                        AuthorRef(countries=frozenset({"CC"})),
                    ),
                )
            )
        for i in range(4):
            records.append(
                PublicationRecord(
                    id=f"bb{i}",
                    year=2016,
                    doc_type=DocType.ARTICLE,
                    subjects=frozenset(),
                    authors=(AuthorRef(countries=frozenset({"BB"})),),
                )
            )
        corpus = Corpus(records)

        wc = whole_count(corpus)
        fc = fractional_count(corpus)
        assert wc.scores == oracle_whole(corpus)
        expected_fc = oracle_fractional_author(corpus)
        for country, share in expected_fc.items():
            assert fc.scores[country] == pytest.approx(share, abs=1e-12)

        assert wc.score("AA") > wc.score("BB")
        assert fc.score("BB") > fc.score("AA")

        whole_ranks = assign_ranks(wc)
        frac_ranks = assign_ranks(fc)
        assert whole_ranks.rank_of("AA") < whole_ranks.rank_of("BB")
        assert frac_ranks.rank_of("BB") < frac_ranks.rank_of("AA")


def _analysis_outputs(corpus: Corpus) -> tuple:
    wc = whole_count(corpus)
    fc = fractional_count(corpus)
    metrics = country_metrics(corpus)
    ranks = assign_ranks(fc)
    return (
        wc.scores,
        fc.scores,
        [
            (m.country, m.wc, m.fc, m.icp, m.icp_pct, m.reduction_pct, m.ratio)
            for m in metrics
        ],
        [(e.country, e.rank, e.tie_rank) for e in ranks.entries],
    )


def test_criterion_9_round_trip_and_determinism(tmp_path, capsys):
    with criterion(9, "round trips and byte-identical output"):
        rng = random.Random(99)
        corpus = random_corpus(rng, 120)

        jsonl_text = to_jsonl(corpus)
        csv_text = to_csv(corpus)
        via_csv, report_csv = parse_csv(csv_text)
        assert report_csv.records_rejected == 0
        via_jsonl, report_jsonl = parse_jsonl(to_jsonl(via_csv))
        assert report_jsonl.records_rejected == 0
        assert _analysis_outputs(via_csv) == _analysis_outputs(corpus)
        assert _analysis_outputs(via_jsonl) == _analysis_outputs(corpus)
        assert to_csv(via_jsonl) == csv_text
        assert to_jsonl(via_csv) == jsonl_text

        jsonl_path = tmp_path / "corpus.jsonl"
        jsonl_path.write_text(jsonl_text, encoding="utf-8")
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text(csv_text, encoding="utf-8")
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(
            '{"g1": ["PHYS", "CHEM"], "g2": ["BIO", "MED"], "g3": ["SOC"]}',
            encoding="utf-8",
        )

        invocations = [
            ["ingest", "--input", str(jsonl_path), "--emit", "report"],
            ["count", "--input", str(jsonl_path), "--method", "fractional"],
            ["count", "--input", str(csv_path), "--method", "whole"],
            ["collab", "--input", str(jsonl_path)],
            ["rank", "--input", str(jsonl_path), "--method", "fractional"],
            [
                "correlate",
                "--input", str(jsonl_path),
                "--scheme", str(scheme_path),
                "--slices", "all,g1,g2",
            ],
            ["subjects", "--input", str(jsonl_path), "--scheme", str(scheme_path)],
            ["replicate", "--target", "correlations"],
            ["synth", "--seed", "7", "--n-records", "25"],
        ]
        for argv in invocations:
            first_code = cli.run(argv)
            first = capsys.readouterr()
            second_code = cli.run(argv)
            second = capsys.readouterr()
            assert first_code == second_code == 0, argv
            assert first.out == second.out, argv
            assert first.err == second.err, argv

        # Same corpus through either container format gives the same table.
        outputs = []
        for path in (jsonl_path, csv_path):
            assert cli.run(["count", "--input", str(path), "--method", "fractional"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
