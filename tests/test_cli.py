from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bibrank
from bibrank import cli
from bibrank.cli import run
from bibrank.ingest import _CHUNK_LINES, to_csv, to_jsonl
from bibrank.model import Corpus, DocType
from bibrank.synth import SynthParams, generate

from conftest import digit_limit_message, rec
from oracles import random_corpus


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
            ('{"all": ["PHYS"]}', ": group name 'all' is reserved for the unrestricted slice"),
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


class TestFlagsBeforeInput:
    """Flag values are checked before a byte of the input is read."""

    @pytest.fixture(params=["missing", "0xff"])
    def unreadable(self, request, tmp_path):
        path = tmp_path / "input.jsonl"
        if request.param == "0xff":
            path.write_bytes(b'{"id":"p\xff1"}\n')
        return str(path)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["count", "--years", "x"], "--years expects comma-separated integers, got 'x'"),
            (["count", "--years", ","], "--years must name at least one year"),
            (["count", "--doc-types", "letter"], "unknown doc type 'letter'"),
            (["correlate", "--slices", ","], "--slices must name at least one subject group"),
        ],
        ids=["years-x", "years-blank", "doc-types-letter", "slices-blank"],
    )
    def test_bad_flag_wins_over_unreadable_input(self, capsys, unreadable, argv, message):
        code, out, err = invoke(capsys, *argv, "--input", unreadable)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--group", "nope"],
            ["rank", "--group", "nope"],
            ["correlate", "--slices", "all,nope"],
        ],
        ids=["count-group", "rank-group", "correlate-slices"],
    )
    def test_unknown_group_wins_over_unreadable_input(self, capsys, tmp_path, unreadable, argv):
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"phys": ["PHYS"]}', encoding="utf-8")
        code, out, err = invoke(capsys, *argv, "--scheme", str(scheme), "--input", unreadable)
        assert (code, out) == (1, "")
        assert err == "error: unknown subject group 'nope'; defined: ['phys']\n"

    def test_broken_scheme_wins_over_missing_input(self, capsys, tmp_path):
        scheme = tmp_path / "broken.json"
        scheme.write_text("{not json", encoding="utf-8")
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = invoke(capsys, "count", "--scheme", str(scheme), "--input", missing)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --scheme file {str(scheme)!r} is not valid JSON: ")


class TestNonUtf8Input:
    def test_names_input_and_byte_without_chunk_offset(self, capsys, tmp_path):
        # the bad byte sits well past the decoder's first 8 KB chunk
        lines = to_jsonl(generate(SynthParams(seed=1, n_records=3000))).encode().splitlines(True)
        lines[2000] = lines[2000].replace(b'"id":"', b'"id":"\xff', 1)
        path = tmp_path / "x.jsonl"
        path.write_bytes(b"".join(lines))
        for command in ("count", "ingest"):
            code, out, err = invoke(capsys, command, "--input", str(path))
            assert (code, out) == (1, "")
            assert err == f"error: input {str(path)!r} is not valid UTF-8: invalid start byte 0xff\n"

    def test_truncated_sequence_names_every_byte(self, capsys, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(_jsonl_record("p1").encode() + b"\xe2\x82")
        code, _, err = invoke(capsys, "ingest", "--input", str(path))
        assert code == 1
        assert err == (
            f"error: input {str(path)!r} is not valid UTF-8: unexpected end of data 0xe2 0x82\n"
        )


class TestHelp:
    # every long flag of each subcommand, as the help text must list it
    IO = ["--input", "--input-format", "--scheme", "--output", "--format"]
    FILTER = ["--years", "--doc-types"]
    FLAGS = {
        "ingest": [*IO, "--emit"],
        "count": [*IO, *FILTER, "--method", "--mode", "--group"],
        "collab": [*IO, *FILTER, "--basis", "--mode"],
        "rank": [*IO, *FILTER, "--method", "--mode", "--group", "--include-unresolved"],
        "correlate": [*IO, *FILTER, "--method", "--mode", "--slices", "--stat"],
        "subjects": [*IO, *FILTER, "--method", "--mode"],
        "replicate": ["--output", "--format", "--target"],
        "synth": [
            "--seed",
            "--n-records",
            "--countries",
            "--authors-min",
            "--authors-max",
            "--collab-prob",
            "--subject-pool",
            "--subjects-min",
            "--subjects-max",
            "--year",
            "--output",
        ],
    }
    def _help(self, capsys, *argv: str) -> str:
        with pytest.raises(SystemExit) as exit_:
            run([*argv, "--help"])
        assert exit_.value.code == 0
        return capsys.readouterr().out

    def test_top_level_lists_every_subcommand(self, capsys):
        out = self._help(capsys)
        assert "--help" in out
        assert all(command in out for command in self.FLAGS)

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_subcommand_lists_every_long_flag(self, capsys, command):
        out = self._help(capsys, command)
        listed = {tok.strip("[]") for tok in out.split() if tok.startswith(("--", "[--"))}
        assert listed == {"--help", *self.FLAGS[command]}


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

    def test_lone_surrogate_is_written_escaped_as_jsonl_and_refused_as_csv(self, capsys, tmp_path):
        # the JSON escape, not the character: the input itself is valid UTF-8
        src = tmp_path / "in.jsonl"
        src.write_text(_jsonl_record("a\\ud800"), encoding="utf-8")
        jsonl, csv_path = tmp_path / "out.jsonl", tmp_path / "out.csv"
        csv_path.write_bytes(b"kept\n")
        code, _, err = invoke(
            capsys, "ingest", "--input", str(src), "--emit", "jsonl", "--output", str(jsonl)
        )
        assert code == 0, err
        assert jsonl.read_bytes() == (
            b'{"id":"a\\ud800","year":2016,"doc_type":"article","subjects":[],'
            b'"authors":[{"countries":["US"]}]}\n'
        )
        code, out, err = invoke(
            capsys, "ingest", "--input", str(src), "--emit", "csv", "--output", str(csv_path)
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: record id 'a\\ud800' contains lone surrogate '\\ud800'; "
            "UTF-8 cannot encode it\n"
        )
        assert csv_path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"id":"h","year":2016,"authors":' + "[" * 200_000 + "]" * 200_000 + "}",
                "malformed JSON: nested too deeply",
            ),
            (
                '{"id":"h","year":' + "9" * 5000 + ',"authors":[{"countries":["US"]}]}',
                None,  # the interpreter's digit-limit message, read when the test runs
            ),
        ],
        ids=["deep-authors", "long-year"],
    )
    def test_hostile_line_is_one_reported_reject(self, capsys, tmp_path, line, message):
        if message is None:
            message = "malformed JSON: " + digit_limit_message(5000)
        path = tmp_path / "hostile.jsonl"
        path.write_text(f"{_jsonl_record('g1')}{line}\n{_jsonl_record('g3')}", encoding="utf-8")
        code, out, err = invoke(capsys, "ingest", "--input", str(path), "--format", "csv")
        assert code == 1
        assert out == f"severity,record,message\nerror,line 2,{message}\n"
        assert err == f"error: line 2: {message}\naccepted 2, rejected 1, 1 error(s), 0 warning(s)\n"
        code, out, err = invoke(capsys, "count", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line 2: {message}\n")

    def test_report_quotes_at_most_80_characters_of_a_raw_value(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "id,year,doc_type,subjects,author_countries\n"
            f"g1,2016,article,PHYS,US\nh,{'x' * 5000},article,PHYS,US\nw,2016,{'d' * 5000},PHYS,US\n",
            encoding="utf-8",
        )
        year = f"year '{'x' * 80}…' (5,000 characters) is not an integer"
        doc_type = f"unknown doc_type '{'d' * 80}…' (5,000 characters); treated as 'other'"
        code, out, err = invoke(capsys, "ingest", "--input", str(path))
        assert code == 1
        assert out == (
            f'severity,record,message\nerror,h,"{year}"\nwarning,w,"{doc_type}"\n'
        )
        assert err == f"error: h: {year}\naccepted 2, rejected 1, 1 error(s), 1 warning(s)\n"

    def test_unreadable_csv_field_exits_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "id,year,doc_type,subjects,author_countries\n"
            f"p1,2016,article,{'X' * 140_000},US\n",
            encoding="utf-8",
        )
        code, out, err = invoke(capsys, "ingest", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == "error: row 2: field larger than field limit (131072)\n"


C = _CHUNK_LINES


@pytest.fixture(scope="module")
def multi_chunk_corpus():
    """Two full chunks of records and one more."""
    return generate(SynthParams(seed=11, n_records=2 * C + 1))


class TestStreamedOutput:
    """synth and ingest --emit jsonl|csv write in chunks: to a path, or to
    stdout, the bytes are those of the library writer's returned text."""

    def _both_ways(self, capsys, tmp_path, argv):
        path = tmp_path / "out"
        code, out, err = invoke(capsys, *argv, "--output", str(path))
        assert (code, out) == (0, ""), err
        code, from_stdout, err = invoke(capsys, *argv)
        assert code == 0, err
        return path.read_bytes().decode("utf-8"), from_stdout

    @pytest.mark.parametrize("n", [0, 2 * C + 1])
    def test_synth(self, capsys, tmp_path, multi_chunk_corpus, n):
        # synth --n-records 0 writes nothing, yet still creates its --output
        expected = to_jsonl(multi_chunk_corpus) if n else ""
        argv = ["synth", "--seed", "11", "--n-records", str(n)]
        assert self._both_ways(capsys, tmp_path, argv) == (expected, expected)

    @pytest.mark.parametrize("n", [0, 1, 2 * C + 1])
    @pytest.mark.parametrize("emit", ["jsonl", "csv"])
    def test_ingest_emit(self, capsys, tmp_path, multi_chunk_corpus, n, emit):
        corpus = Corpus(multi_chunk_corpus.records[:n])
        src = tmp_path / "in.jsonl"
        src.write_text(to_jsonl(corpus), encoding="utf-8")
        expected = to_jsonl(corpus) if emit == "jsonl" else to_csv(corpus)
        argv = ["ingest", "--input", str(src), "--emit", emit]
        assert self._both_ways(capsys, tmp_path, argv) == (expected, expected)

    def test_refused_csv_writes_nothing(self, capsys, tmp_path, multi_chunk_corpus):
        # the one refused value is on the last record, after two full chunks
        records = multi_chunk_corpus.records[: 2 * C] + (rec("last", ["US"], subjects=("X;Y",)),)
        src = tmp_path / "in.jsonl"
        src.write_text(to_jsonl(Corpus(records)), encoding="utf-8")
        message = (
            "error: subject code 'X;Y' contains reserved delimiter ';'; "
            "cannot be serialized losslessly\n"
        )
        existing, absent = tmp_path / "existing.csv", tmp_path / "absent.csv"
        existing.write_bytes(b"kept\r\n")
        argv = ["ingest", "--input", str(src), "--emit", "csv"]
        assert invoke(capsys, *argv, "--output", str(existing)) == (1, "", message)
        assert existing.read_bytes() == b"kept\r\n"
        assert invoke(capsys, *argv, "--output", str(absent)) == (1, "", message)
        assert not absent.exists()
        assert invoke(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize("n", [7000, 7400, 3 * C])
    def test_refused_synth_writes_nothing(self, capsys, tmp_path, n):
        # ZY's weight is zero once normalized, so an international record
        # would have no second country to draw. The first one is record
        # 7,324: the corpus is refused whether or not it holds one
        argv = [
            "synth", "--seed", "6", "--n-records", str(n),
            "--countries", "AA:1e300,ZY:1e-300", "--collab-prob", "2e-4",
        ]
        message = "error: Fewer non-zero entries in p than size\n"
        existing, absent = tmp_path / "existing.jsonl", tmp_path / "absent.jsonl"
        existing.write_bytes(b"kept\r\n")
        assert invoke(capsys, *argv, "--output", str(existing)) == (1, "", message)
        assert existing.read_bytes() == b"kept\r\n"
        assert invoke(capsys, *argv, "--output", str(absent)) == (1, "", message)
        assert not absent.exists()
        assert invoke(capsys, *argv) == (1, "", message)

    # the 2k peak holds that output's whole text; the 20k one holds a chunk
    # of C lines (1.3 MB more) and the distinct author lists drawn so far
    # (0.6 MB more), where holding the 20k corpus would take 5.3 MB more
    def test_synth_holds_a_chunk_not_the_corpus(self, capsys, tmp_path):
        def peak(n):
            argv = [
                "synth", "--seed", "3", "--n-records", str(n), "--authors-max", "12",
                "--collab-prob", "0.5", "--output", str(tmp_path / "out.jsonl"),
            ]
            tracemalloc.start()
            try:
                assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(10)  # numpy is imported before anything is measured
        assert peak(20_000) <= peak(2000) + 3.0e6


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

    def test_group_all_is_the_whole_input(self, capsys, corpus_file):
        assert invoke(capsys, "count", "--input", corpus_file, "--group", "ALL") == invoke(
            capsys, "count", "--input", corpus_file
        )

    @pytest.mark.parametrize("command", ["count", "rank"])
    @pytest.mark.parametrize("name", ["all", "All"])
    def test_group_all_in_any_case_is_the_whole_input(self, capsys, corpus_file, command, name):
        # as --slices reads it, with or without a --scheme
        assert invoke(capsys, command, "--input", corpus_file, "--group", name) == invoke(
            capsys, command, "--input", corpus_file
        )

    def test_doc_type_filter_flag(self, capsys, tmp_path):
        corpus = Corpus((rec("p1", ["US"]), rec("p2", ["GB"], doc_type=DocType.OTHER)))
        path = tmp_path / "c.jsonl"
        path.write_text(to_jsonl(corpus), encoding="utf-8")
        _, default_out, _ = invoke(capsys, "count", "--input", str(path))
        assert "GB" not in default_out
        _, all_out, _ = invoke(capsys, "count", "--input", str(path), "--doc-types", "all")
        assert "GB,1" in all_out

    # --doc-types reads its items as --years and --slices do: stripped, blank ones dropped
    def test_doc_types_all_with_spaces_is_all(self, capsys, corpus_file):
        assert invoke(capsys, "count", "--input", corpus_file, "--doc-types", " all") == invoke(
            capsys, "count", "--input", corpus_file, "--doc-types", "all"
        )

    def test_doc_types_trailing_comma_is_dropped(self, capsys, corpus_file):
        assert invoke(capsys, "count", "--input", corpus_file, "--doc-types", "article,") == invoke(
            capsys, "count", "--input", corpus_file, "--doc-types", "article"
        )

    # and in any case, as ingest reads a record's doc type
    @pytest.mark.parametrize(
        "typed, canonical",
        [
            ("Article", "article"),
            ("ALL", "all"),
            ("Default", "default"),
            ("ARTICLE,Review", "article,review"),
        ],
    )
    def test_doc_types_in_any_case(self, capsys, tmp_path, typed, canonical):
        corpus = Corpus(
            (
                rec("p1", ["US"]),
                rec("p2", ["GB"], doc_type=DocType.REVIEW),
                rec("p3", ["FR"], doc_type=DocType.CONFERENCE_PAPER),
                rec("p4", ["IN"], doc_type=DocType.OTHER),
            )
        )
        path = tmp_path / "c.jsonl"
        path.write_text(to_jsonl(corpus), encoding="utf-8")
        argv = ["count", "--input", str(path), "--doc-types"]
        code, out, err = invoke(capsys, *argv, typed)
        assert code == 0, err
        assert (code, out, err) == invoke(capsys, *argv, canonical)

    @pytest.mark.parametrize("typed", ["Letter", "All,article"])
    def test_unknown_doc_type_is_quoted_as_typed(self, capsys, corpus_file, typed):
        code, out, err = invoke(capsys, "count", "--input", corpus_file, "--doc-types", typed)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: unknown doc type {typed.split(',')[0]!r}; expected names from ")

    def test_doc_types_blank_names_no_doc_type(self, capsys, corpus_file):
        code, out, err = invoke(capsys, "count", "--input", corpus_file, "--doc-types", "")
        assert (code, out) == (1, "")
        assert err == "error: --doc-types must name at least one doc type\n"

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

    def test_bom_prefixed_stdin_counts_every_record(
        self, capsys, monkeypatch, tmp_path, mixed_corpus
    ):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + to_jsonl(mixed_corpus).encode("utf-8"))
        with open(path, encoding="utf-8") as fake_stdin:
            monkeypatch.setattr("sys.stdin", fake_stdin)
            code, _, err = invoke(capsys, "count", "--input", "-", "--doc-types", "all")
        assert code == 0
        assert f"{len(mixed_corpus)} records counted" in err.splitlines()

    def test_stdin_stays_open(self, capsys, monkeypatch, corpus_file):
        with open(corpus_file, encoding="utf-8") as fake_stdin:
            monkeypatch.setattr("sys.stdin", fake_stdin)
            code, _, _ = invoke(capsys, "count", "--input", "-")
            assert code == 0
            # the descriptor, not just the Python object, is still open
            os.fstat(sys.stdin.fileno())
            assert not sys.stdin.closed

    def test_blank_stdin_is_sniffed_as_an_empty_jsonl_input(self, capsys, monkeypatch, tmp_path):
        # stdin has no extension, and no line says which format it is
        path = tmp_path / "blank"
        path.write_bytes(b"\n  \r\n\t\n\r\n")
        with open(path, encoding="utf-8") as fake_stdin:
            monkeypatch.setattr("sys.stdin", fake_stdin)
            assert invoke(capsys, "count", "--input", "-") == (
                0,
                "country,whole\n",
                "0 records counted\n",
            )

    @pytest.mark.parametrize("years", ["", ",", " , "])
    def test_empty_years_is_usage_error(self, capsys, corpus_file, years):
        code, out, err = invoke(capsys, "count", "--input", corpus_file, "--years", years)
        assert (code, out) == (1, "")
        assert err == "error: --years must name at least one year\n"

    def test_bom_prefixed_scheme_file(self, capsys, corpus_file, scheme_file):
        path = Path(scheme_file)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, out, err = invoke(
            capsys, "count", "--input", corpus_file, "--scheme", scheme_file, "--group", "phys"
        )
        assert code == 0, err
        assert out == "country,whole\nGB,1\nUS,2\n"

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


class TestProcessState:
    # the commands that never need numpy must not pay for importing it
    @pytest.mark.parametrize(
        "code",
        [
            "import bibrank",
            "import bibrank.cli",
            "from bibrank.cli import run\n"
            "for cmd in ('count', 'collab', 'ingest'):\n"
            "    assert run([cmd, '--input', PATH]) == 0\n",
        ],
        ids=["import-bibrank", "import-cli", "count-collab-ingest"],
    )
    def test_numpy_stays_unloaded(self, tmp_path, mixed_corpus, code):
        path = tmp_path / "corpus.jsonl"
        path.write_text(to_jsonl(mixed_corpus), encoding="utf-8")
        script = f"import sys\nPATH = {str(path)!r}\n{code}\nprint('numpy' in sys.modules)\n"
        env = dict(os.environ, PYTHONPATH=str(Path(bibrank.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_libcrypto_and_numpy_stay_unloaded(self, tmp_path, mixed_corpus):
        # only replicate checks checksums, so only it loads hashlib's
        # libcrypto; a subprocess, since this one has loaded both already
        path = tmp_path / "corpus.jsonl"
        path.write_text(to_jsonl(mixed_corpus), encoding="utf-8")
        script = (
            "import sys\n"
            "from bibrank.cli import run\n"
            "for cmd in ('count', 'collab', 'rank', 'subjects', 'ingest'):\n"
            f"    assert run([cmd, '--input', {str(path)!r}]) == 0, cmd\n"
            "print('_hashlib' in sys.modules, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bibrank.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False"

    def test_synth_leaves_numpy_random_unloaded(self, tmp_path):
        # synth computes PCG64's words with numpy core alone; importing
        # numpy.random would add about 6 MB to its peak
        out = tmp_path / "synth.jsonl"
        script = (
            "import sys\n"
            "from bibrank.cli import run\n"
            f"assert run(['synth', '--seed', '3', '--n-records', '3000', '--output', {str(out)!r}]) == 0\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bibrank.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "True False"
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3000

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("bad_header", [False, True], ids=["clean", "bad-csv-header"])
    def test_collector_state_is_restored(self, capsys, tmp_path, mixed_corpus, enabled, bad_header):
        path = tmp_path / "corpus.csv"
        text = to_csv(mixed_corpus)
        path.write_text("id,year\n" + text if bad_header else text, encoding="utf-8")
        was_enabled = gc.isenabled()
        set_collector = {True: gc.enable, False: gc.disable}
        try:
            set_collector[enabled]()
            code, _, err = invoke(capsys, "count", "--input", str(path))
            assert gc.isenabled() is enabled
        finally:
            set_collector[was_enabled]()
        assert code == (1 if bad_header else 0)
        assert ("bad CSV header" in err) is bad_header


_HEADER = "id,year,doc_type,subjects,author_countries"


def _jsonl_record(rec_id: str, sep: str = "") -> str:
    return (
        f'{{"id":"{rec_id}","year":2016,{sep}"doc_type":"article",'
        '"authors":[{"countries":["US"]}]}\n'
    )


class TestStdinReadsAsFile:
    """The same bytes give the same result from a file and from a real stdin."""

    @pytest.mark.parametrize(
        "data, code",
        [
            pytest.param(
                b"\xef\xbb\xbf" + (_jsonl_record("p1") + _jsonl_record("p2")).encode(),
                0,
                id="bom-jsonl",
            ),
            pytest.param(
                f'{_HEADER}\r\np1,2016,article,"PHYS;\r\nMED",US\r\np2,2016,review,BIO,GB\r\n'
                .encode(),
                0,
                id="csv-crlf-quoted-crlf",
            ),
            pytest.param(
                f"{_HEADER}\rp1,2016,article,PHYS,US\rp2,2016,review,BIO,GB\r".encode(),
                0,
                id="csv-bare-cr",
            ),
            pytest.param(_jsonl_record("p1", sep="\r").encode(), 1, id="jsonl-bare-cr"),
            pytest.param(
                _jsonl_record("p1").encode().replace(b"p1", b"p\xff1"), 1, id="jsonl-0xff"
            ),
            pytest.param(
                (_jsonl_record("a\u2028b") + _jsonl_record("c\x85d")).encode(),
                0,
                id="jsonl-u2028-u0085",
            ),
            pytest.param(b"", 0, id="empty"),
        ],
    )
    def test_file_and_stdin_agree(self, tmp_path, data, code):
        # no extension, so both runs sniff the format from the first line
        path = tmp_path / "input"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=str(Path(bibrank.__file__).parents[1]))
        argv = [sys.executable, "-m", "bibrank.cli", "ingest", "--emit", "jsonl", "--input"]
        from_file = subprocess.run(
            [*argv, str(path)], env=env, capture_output=True, timeout=60
        )
        with open(path, "rb") as stdin:
            from_stdin = subprocess.run(
                [*argv, "-"], env=env, stdin=stdin, capture_output=True, timeout=60
            )
        assert from_file.returncode == code, from_file.stderr
        assert from_stdin.returncode == code, from_stdin.stderr
        assert from_stdin.stdout == from_file.stdout
        assert from_stdin.stderr == from_file.stderr.replace(str(path).encode(), b"-")


def _last_first(text: str, fmt: str) -> str:
    """``text`` with its first record moved to the end, so that only the
    last record's id does not increase."""
    lines = text.splitlines(keepends=True)
    head = lines[:1] if fmt == "csv" else []
    body = lines[len(head) :]
    return "".join(head + body[1:] + body[:1])


class TestStreamedInput:
    """count, rank, subjects, correlate and collab count a regular file as
    they read it. A file whose ids stop increasing is read again into a
    corpus, and stdin and pipes are read into one at once: every way gives
    the same bytes."""

    ARGVS = [
        ["count", "--method", "fractional"],
        ["count", "--method", "whole", "--group", "phys", "--doc-types", "all"],
        ["count", "--years", "2016,2017", "--doc-types", "article,review"],
        ["rank", "--method", "fractional", "--mode", "country"],
        ["subjects", "--method", "fractional"],
        ["correlate", "--slices", "all,phys,life"],
        ["collab", "--mode", "country"],
    ]

    @pytest.fixture
    def texts(self):
        corpus = random_corpus(random.Random(31), 400)
        return {"jsonl": to_jsonl(corpus), "csv": to_csv(corpus)}

    @staticmethod
    def _parses(monkeypatch, fmt):
        # the parse calls of one run, by whether they were given a sink
        name = "parse_jsonl" if fmt == "jsonl" else "parse_csv"
        parse, calls = getattr(cli, name), []

        def counted(*args, **kwargs):
            calls.append(kwargs["_sink"] is not None)
            return parse(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
        return calls

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_last_line_out_of_order_reads_again(
        self, capsys, monkeypatch, tmp_path, scheme_file, texts, fmt, argv
    ):
        ordered, last_first = tmp_path / f"ordered.{fmt}", tmp_path / f"last_first.{fmt}"
        ordered.write_text(texts[fmt], encoding="utf-8")
        last_first.write_text(_last_first(texts[fmt], fmt), encoding="utf-8")
        argv = [*argv, "--scheme", scheme_file, "--input"]
        calls = self._parses(monkeypatch, fmt)
        code, streamed, _ = invoke(capsys, *argv, str(ordered))
        assert (code, calls) == (0, [True])
        calls.clear()
        code, again, _ = invoke(capsys, *argv, str(last_first))
        assert (code, calls) == (0, [True, False])
        assert again == streamed
        calls.clear()
        with open(last_first, encoding="utf-8") as fake_stdin:
            monkeypatch.setattr("sys.stdin", fake_stdin)
            code, from_stdin, _ = invoke(capsys, *argv, "-")
        assert (code, calls) == (0, [False])
        assert from_stdin == streamed

    @pytest.mark.parametrize("out_of_order", [False, True])
    def test_one_reject_prints_it_and_writes_nothing(self, capsys, tmp_path, texts, out_of_order):
        lines = texts["jsonl"].splitlines(keepends=True)
        lines[200] = lines[200].split(',"authors":')[0] + ',"authors":[]}\n'
        path = tmp_path / "one_reject.jsonl"
        path.write_text(_last_first("".join(lines), "jsonl") if out_of_order else "".join(lines))
        code, out, err = invoke(capsys, "count", "--input", str(path))
        assert (code, out) == (1, "")
        assert "error: r00200: missing or empty authors" in err.splitlines()
        assert f"error: 1 record error(s) in {path}; run 'bibrank ingest' for the full report" in err

    def test_repeated_id_is_named_as_the_corpus_path_names_it(self, capsys, tmp_path, texts):
        # a repeat right after its first occurrence: the stream stops at it
        lines = texts["jsonl"].splitlines(keepends=True)
        path = tmp_path / "repeat.jsonl"
        path.write_text("".join(lines[:3] + lines[2:]), encoding="utf-8")
        code, out, err = invoke(capsys, "count", "--input", str(path))
        assert (code, out) == (1, "")
        assert "error: r00002: duplicate record id; first occurrence kept" in err.splitlines()

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_stdin_and_a_pipe_give_the_file_bytes(self, tmp_path, texts, shuffled):
        lines = texts["jsonl"].splitlines(keepends=True)
        if shuffled:
            random.Random(3).shuffle(lines)
        data = "".join(lines).encode()
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=str(Path(bibrank.__file__).parents[1]))
        argv = [sys.executable, "-m", "bibrank.cli", "count", "--method", "fractional", "--input"]
        from_file = subprocess.run([*argv, str(path)], env=env, capture_output=True, timeout=60)
        with open(path, "rb") as stdin:
            from_stdin = subprocess.run([*argv, "-"], env=env, stdin=stdin, capture_output=True, timeout=60)
        read, write = os.pipe()
        child = subprocess.Popen(
            [*argv, f"/dev/fd/{read}"], env=env, pass_fds=(read,),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        os.close(read)
        with open(write, "wb") as pipe:
            pipe.write(data)
        from_pipe, _ = child.communicate(timeout=60)
        assert from_file.returncode == from_stdin.returncode == child.returncode == 0
        assert from_file.stdout.startswith(b"country,fractional_author\n")
        assert from_stdin.stdout == from_pipe == from_file.stdout

    def test_streamed_count_holds_no_corpus(self, capsys, tmp_path):
        def peak(n):
            path = tmp_path / f"synth_{n}.jsonl"
            path.write_text(to_jsonl(generate(SynthParams(seed=5, n_records=n))), encoding="utf-8")
            tracemalloc.start()
            try:
                assert run(["count", "--method", "fractional", "--input", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(10)
        assert peak(40_000) <= peak(10_000) + 1_000_000
