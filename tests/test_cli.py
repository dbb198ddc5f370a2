from __future__ import annotations

import io
import json

import pytest

from bibrank.cli import run
from bibrank.ingest import to_csv, to_jsonl
from bibrank.model import Corpus, DocType
from bibrank.synth import SynthParams, generate

from conftest import rec


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus_file(tmp_path, mixed_corpus):
    path = tmp_path / "corpus.jsonl"
    path.write_text(to_jsonl(mixed_corpus), encoding="utf-8")
    return str(path)


@pytest.fixture
def scheme_file(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(
        json.dumps({"phys": ["PHYS", "MATH"], "health": ["MED"], "life": ["BIO", "MED"]}),
        encoding="utf-8",
    )
    return str(path)


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = invoke(capsys, "count", "--input", "/nonexistent/x.jsonl")
        assert code == 2
        assert "i/o error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "count", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 1

    def test_record_errors_block_analysis(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"p1"}\n', encoding="utf-8")
        code, _, err = invoke(capsys, "count", "--input", str(path))
        assert code == 1
        assert "ingest" in err

    def test_bad_scheme_file_is_validation_error(self, capsys, corpus_file, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text('{"phys": "PHYS"}', encoding="utf-8")
        code, _, err = invoke(
            capsys, "count", "--input", corpus_file, "--scheme", str(path)
        )
        assert code == 1

    @pytest.mark.parametrize("content", [b"{not json", b'\xff{"phys": ["PHYS"]}'])
    def test_scheme_file_not_json_names_file_and_flag(
        self, capsys, corpus_file, tmp_path, content
    ):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code, out, err = invoke(
            capsys, "count", "--input", corpus_file, "--scheme", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: --scheme file {str(path)!r} is not valid JSON: ")

    @pytest.mark.parametrize(
        "content, problem",
        [
            ('{"phys": "PHYS"}', " must map group names to arrays of subject codes"),
            ('["PHYS"]', " must map group names to arrays of subject codes"),
            ('{" ": ["PHYS"]}', ": subject group name must be non-empty"),
            ('{"ALL": ["PHYS"]}', ": group name 'ALL' is reserved for the unrestricted slice"),
        ],
    )
    def test_scheme_file_of_wrong_shape_names_file_and_flag(
        self, capsys, corpus_file, tmp_path, content, problem
    ):
        path = tmp_path / "shape.json"
        path.write_text(content, encoding="utf-8")
        code, out, err = invoke(
            capsys, "count", "--input", corpus_file, "--scheme", str(path)
        )
        assert (code, out) == (1, "")
        assert err == f"error: --scheme file {str(path)!r}{problem}\n"


class TestIngest:
    def test_report_lists_problems(self, capsys, tmp_path):
        path = tmp_path / "messy.jsonl"
        path.write_text(
            '{"id":"p1","year":2016,"doc_type":"article","authors":[{"countries":["US"]}]}\n'
            '{"id":"p1","year":2016,"doc_type":"article","authors":[{"countries":["US"]}]}\n'
            '{"id":"p2","year":2016,"doc_type":"letter","authors":[{"countries":["US"]}]}\n',
            encoding="utf-8",
        )
        code, out, err = invoke(capsys, "ingest", "--input", str(path))
        assert code == 1
        assert "duplicate" in out
        assert "doc_type" in out
        assert "accepted 2, rejected 1" in err

    def test_emit_converts_between_formats(self, capsys, tmp_path, mixed_corpus):
        src = tmp_path / "corpus.jsonl"
        src.write_text(to_jsonl(mixed_corpus), encoding="utf-8")
        code, out, _ = invoke(
            capsys, "ingest", "--input", str(src), "--emit", "csv"
        )
        assert code == 0
        assert out == to_csv(mixed_corpus)


class TestCount:
    def test_fractional_author_table(self, capsys, corpus_file):
        code, out, _ = invoke(
            capsys,
            "count",
            "--input",
            corpus_file,
            "--method",
            "fractional",
            "--mode",
            "author",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "country,fractional_author"
        assert "US,2.00" in lines
        assert "FR,0.50" in lines
        assert "ZZ,1.50" in lines

    def test_group_slice(self, capsys, corpus_file, scheme_file):
        code, out, _ = invoke(
            capsys,
            "count",
            "--input",
            corpus_file,
            "--scheme",
            scheme_file,
            "--group",
            "phys",
        )
        assert code == 0
        assert out == "country,whole\nGB,1\nUS,2\n"

    def test_doc_type_filter_flag(self, capsys, tmp_path):
        corpus = Corpus((rec("p1", ["US"]), rec("p2", ["GB"], doc_type=DocType.OTHER)))
        path = tmp_path / "c.jsonl"
        path.write_text(to_jsonl(corpus), encoding="utf-8")
        _, default_out, _ = invoke(capsys, "count", "--input", str(path))
        assert "GB" not in default_out
        _, all_out, _ = invoke(capsys, "count", "--input", str(path), "--doc-types", "all")
        assert "GB,1" in all_out

    def test_csv_input_sniffed(self, capsys, tmp_path, mixed_corpus):
        path = tmp_path / "corpus.csv"
        path.write_text(to_csv(mixed_corpus), encoding="utf-8")
        code, out, _ = invoke(capsys, "count", "--input", str(path))
        assert code == 0
        assert "US,3" in out


    def test_bom_prefixed_jsonl_counts_every_record(self, capsys, tmp_path, mixed_corpus):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + to_jsonl(mixed_corpus).encode("utf-8"))
        code, out, err = invoke(capsys, "count", "--input", str(path), "--doc-types", "all")
        assert code == 0
        assert f"{len(mixed_corpus)} records counted" in err.splitlines()

    def test_bom_prefixed_stdin_counts_every_record(self, capsys, monkeypatch, mixed_corpus):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + to_jsonl(mixed_corpus)))
        code, _, err = invoke(capsys, "count", "--input", "-", "--doc-types", "all")
        assert code == 0
        assert f"{len(mixed_corpus)} records counted" in err.splitlines()

    def test_bom_prefixed_csv_sniffed(self, capsys, tmp_path, mixed_corpus):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + to_csv(mixed_corpus).encode("utf-8"))
        code, out, _ = invoke(capsys, "count", "--input", str(path))
        assert code == 0
        assert "US,3" in out


class TestCollabAndRank:
    def test_collab_columns(self, capsys, corpus_file):
        code, out, _ = invoke(capsys, "collab", "--input", corpus_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "country,wc,fc,icp,icp_pct,reduction_pct,ratio"
        assert lines[1] == "US,3,2.00,1,33.3,50.0,1.50"
        # no-collaboration country has an empty ratio cell
        assert lines[3] == "CN,1,1.00,0,0.0,0.0,"

    def test_rank_table(self, capsys, corpus_file):
        code, out, _ = invoke(
            capsys, "rank", "--input", corpus_file, "--method", "whole"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,country,score,tie_rank"
        assert lines[1] == "1,US,3,1.0"
        assert lines[2] == "2,GB,2,2.0"
        # CN and FR tie on one paper each
        assert lines[3] == "3,CN,1,3.5"
        assert lines[4] == "3,FR,1,3.5"

    def test_rank_include_unresolved(self, capsys, corpus_file):
        _, out, _ = invoke(
            capsys, "rank", "--input", corpus_file, "--include-unresolved"
        )
        assert ",ZZ," in out

    def test_group_with_nothing_to_rank_is_named(self, capsys, corpus_file, tmp_path):
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"astro": ["ASTRO"]}), encoding="utf-8")
        argv = ("--input", corpus_file, "--scheme", str(scheme), "--group", "astro")
        code, out, err = invoke(capsys, "rank", *argv)
        assert (code, out) == (1, "")
        assert err == "error: subject group 'astro' has no country to rank\n"
        # counting the same group still prints its empty table
        code, out, err = invoke(capsys, "count", *argv)
        assert (code, out, err) == (0, "country,whole\n", "0 records counted\n")

    @pytest.mark.parametrize("filters", [(), ("--years", "1999")])
    def test_input_with_nothing_to_rank_is_named(self, capsys, tmp_path, mixed_corpus, filters):
        path = tmp_path / "corpus.jsonl"
        path.write_text(to_jsonl(mixed_corpus) if filters else "", encoding="utf-8")
        argv = ("--input", str(path), *filters)
        code, out, err = invoke(capsys, "rank", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: input {str(path)!r} has no country to rank\n"
        code, out, err = invoke(capsys, "count", *argv)
        assert (code, out, err) == (0, "country,whole\n", "0 records counted\n")


class TestCorrelateAndSubjects:
    def test_correlate_matrix(self, capsys, corpus_file, scheme_file):
        code, out, _ = invoke(
            capsys,
            "correlate",
            "--input",
            corpus_file,
            "--scheme",
            scheme_file,
            "--slices",
            "all,health,life",
            "--stat",
            "spearman",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group,ALL,health,life"
        assert lines[1].startswith("ALL,1.000,")
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["ALL", "health", "life"]
        for i in range(3):
            assert rows[i][i + 1] == "1.000"
            for j in range(3):
                assert rows[i][j + 1] == rows[j][i + 1]

    def test_correlate_pearson(self, capsys, corpus_file, scheme_file):
        code, out, _ = invoke(
            capsys,
            "correlate",
            "--input",
            corpus_file,
            "--scheme",
            scheme_file,
            "--slices",
            "all,life",
            "--stat",
            "pearson",
        )
        assert code == 0
        assert out.splitlines()[0] == "group,ALL,life"

    def test_correlate_names_slices_without_shared_countries(
        self, capsys, corpus_file, tmp_path
    ):
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"astro": ["ASTRO"]}), encoding="utf-8")
        for stat in ("spearman", "pearson"):
            code, out, err = invoke(
                capsys,
                "correlate",
                "--input",
                corpus_file,
                "--scheme",
                str(scheme),
                "--slices",
                "all,astro",
                "--stat",
                stat,
            )
            assert (code, out) == (1, "")
            assert err == (
                "error: correlation matrix needs at least two countries, "
                "got 0 for slices ALL, astro\n"
            )

    def test_correlate_needs_slices(self, capsys, corpus_file):
        code, _, _ = invoke(capsys, "correlate", "--input", corpus_file)
        assert code == 1

    def test_subjects_long_table(self, capsys, corpus_file, scheme_file):
        code, out, _ = invoke(
            capsys, "subjects", "--input", corpus_file, "--scheme", scheme_file
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "country,group,tp,rank"
        assert "US,ALL,3,1" in lines
        assert "US,phys,2,1" in lines

    def test_subjects_skips_groups_without_ranked_country(
        self, capsys, tmp_path, mixed_corpus
    ):
        # "astro" matches no record; "geo" matches one whose authors are all
        # unresolved, so its table holds only the ZZ bucket
        corpus = Corpus(
            (*mixed_corpus.records, rec("p7", [], subjects=("GEO",))),
            mixed_corpus.scheme,
        )
        path = tmp_path / "corpus.jsonl"
        path.write_text(to_jsonl(corpus), encoding="utf-8")
        scheme = tmp_path / "scheme.json"
        scheme.write_text(
            json.dumps({"phys": ["PHYS"], "astro": ["ASTRO"], "geo": ["GEO"]}),
            encoding="utf-8",
        )
        code, out, err = invoke(
            capsys, "subjects", "--input", str(path), "--scheme", str(scheme)
        )
        assert code == 0, err
        groups = {line.split(",")[1] for line in out.splitlines()[1:]}
        assert groups == {"ALL", "phys"}
        assert "US,phys,2,1" in out.splitlines()


class TestReplicate:
    def test_table2_passes(self, capsys):
        code, out, err = invoke(capsys, "replicate", "--target", "table2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("country,reduction_pct")
        assert len(lines) == 21
        assert all(line.endswith(",yes") for line in lines[1:])

    def test_all_targets_pass(self, capsys):
        code, out, _ = invoke(capsys, "replicate")
        assert code == 0
        assert "table2,yes" in out
        assert "correlations,yes" in out
        assert "table4,yes" in out

    def test_fig1_series(self, capsys):
        code, out, _ = invoke(capsys, "replicate", "--target", "fig1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "series,country,value"
        assert lines[1] == "reduction_pct,CH,83.5"
        assert len(lines) == 41

    def test_table4_delta_report(self, capsys):
        code, out, _ = invoke(capsys, "replicate", "--target", "table4", "--format", "json")
        assert code == 0
        cells = json.loads(out)
        assert len(cells) == 90
        assert all(cell["outlier"] == "no" for cell in cells)


class TestSynthCommand:
    def test_emits_jsonl(self, capsys):
        code, out, err = invoke(capsys, "synth", "--seed", "5", "--n-records", "3")
        assert code == 0
        assert len(out.splitlines()) == 3
        assert json.loads(out.splitlines()[0])["id"] == "s0000000"
        assert "generated 3 records" in err

    def test_matches_library_call(self, capsys):
        code, out, _ = invoke(
            capsys, "synth", "--seed", "9", "--n-records", "20", "--collab-prob", "0.5"
        )
        assert out == to_jsonl(generate(SynthParams(seed=9, n_records=20, collab_prob=0.5)))

    def test_custom_weights(self, capsys):
        code, out, _ = invoke(
            capsys,
            "synth",
            "--seed",
            "4",
            "--n-records",
            "10",
            "--countries",
            "AA:1,BB:1",
            "--collab-prob",
            "0",
        )
        assert code == 0
        for line in out.splitlines():
            countries = {
                c for a in json.loads(line)["authors"] for c in a["countries"]
            }
            assert countries <= {"AA", "BB"}

    def test_bad_weights_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "synth", "--seed", "1", "--n-records", "5", "--countries", "US"
        )
        assert code == 1
        assert "CODE:WEIGHT" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--input", "{corpus}", "--method", "fractional"),
            ("collab", "--input", "{corpus}", "--format", "md"),
            ("rank", "--input", "{corpus}", "--format", "json"),
            ("replicate", "--target", "table4"),
            ("synth", "--seed", "31", "--n-records", "25"),
        ],
    )
    def test_byte_identical_across_runs(self, capsys, corpus_file, argv):
        argv = [a.format(corpus=corpus_file) for a in argv]
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_and_jsonl_inputs_give_identical_analysis(
        self, capsys, tmp_path, mixed_corpus
    ):
        jsonl_path = tmp_path / "c.jsonl"
        jsonl_path.write_text(to_jsonl(mixed_corpus), encoding="utf-8")
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(to_csv(mixed_corpus), encoding="utf-8")
        for command in (["count"], ["collab"], ["rank"]):
            _, out_a, _ = invoke(capsys, *command, "--input", str(jsonl_path))
            _, out_b, _ = invoke(capsys, *command, "--input", str(csv_path))
            assert out_a == out_b
