"""Golden snapshot of every ``bibrank`` subcommand.

Each case runs the CLI in-process, from a directory holding a fixed
400-record synthetic corpus (as JSONL and CSV) and a few scheme files, and
compares exit code, stdout and stderr byte for byte with
``tests/golden/cli.json``. The corpus has unresolved authors, records with
no subjects, records whose authors are all unresolved, and a scheme group
that matches no record.

After an intended output change, rewrite the expected data with::

    PYTHONPATH=src python tests/test_cli_golden.py

and check that the diff moves only the entries of that change.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from bibrank.cli import run
from bibrank.ingest import to_csv, to_jsonl
from bibrank.model import AuthorRef, Corpus, DocType
from bibrank.synth import SynthParams, generate
from bibrank.tables import FORMATS

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

SCHEME = {
    "phys": ["PHYS", "MATH"],
    "life": ["BIO", "MED"],
    "social": ["SOC"],
    "tech": ["COMP", "ENG", "CHEM"],
    # only records whose authors are all unresolved: a ZZ-only table
    "orphan": ["ORPHAN"],
    # matches no record
    "empty": ["ASTRO"],
}

_DOC_CYCLE = (DocType.ARTICLE,) * 6 + (
    DocType.REVIEW,
    DocType.CONFERENCE_PAPER,
    DocType.OTHER,
)

MESSY_JSONL = (
    '{"id":"m1","year":2016,"doc_type":"article","subjects":["PHYS"],'
    '"authors":[{"countries":["United States"]},{"countries":["Atlantis"]}]}\n'
    '{"id":"m1","year":2016,"doc_type":"article","authors":[{"countries":["US"]}]}\n'
    '{"id":"m2","year":"2016","doc_type":"article","authors":[{"countries":["US"]}]}\n'
    '{"id":"m3","year":2016,"doc_type":"letter","authors":[{"countries":["GB"]}]}\n'
    '{"id":"m4","doc_type":"review","authors":[{"countries":[]}]}\n'
    "not json\n"
    '{"id":"m5","year":2016,"authors":[]}\n'
)


def golden_corpus() -> Corpus:
    base = generate(
        SynthParams(seed=20200711, n_records=400, subjects_min=0, subjects_max=3)
    )
    records = []
    for i, r in enumerate(base.records):
        authors, subjects = r.authors, r.subjects
        if i % 29 == 5:
            authors = tuple(AuthorRef(frozenset()) for _ in authors)
            subjects = frozenset({"ORPHAN"})
        elif i % 11 == 3 and len(authors) > 1:
            authors = authors[:-1] + (AuthorRef(frozenset()),)
        records.append(
            replace(
                r,
                year=2015 + i % 3,
                doc_type=_DOC_CYCLE[i % len(_DOC_CYCLE)],
                authors=authors,
                subjects=subjects,
            )
        )
    return Corpus(tuple(records), base.scheme, base.provenance)


def write_inputs(directory: Path) -> None:
    corpus = golden_corpus()
    jsonl, csv_text = to_jsonl(corpus), to_csv(corpus)
    files = {
        "corpus.jsonl": jsonl,
        "corpus.csv": csv_text,
        "corpus_jsonl.txt": jsonl,
        "corpus_csv.txt": csv_text,
        "messy.jsonl": MESSY_JSONL,
        "empty.jsonl": "",
        "scheme.json": json.dumps(SCHEME),
        "scheme_ranked.json": json.dumps(
            {k: v for k, v in SCHEME.items() if k not in ("orphan", "empty")}
        ),
        "scheme_bad.json": json.dumps({"phys": "PHYS"}),
        "scheme_broken.json": "{not json",
    }
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8", newline="")


def _cases() -> dict[str, tuple[list[str], str | None]]:
    """Case name -> (argv, name of the file fed to stdin or None)."""
    cases: dict[str, tuple[list[str], str | None]] = {}

    def add(name: str, *argv: str, stdin: str | None = None) -> None:
        assert name not in cases, name
        cases[name] = (list(argv), stdin)

    jsonl = ("--input", "corpus.jsonl")
    scheme = ("--scheme", "scheme.json")
    methods = {
        "whole": ("--method", "whole"),
        "fa": ("--method", "fractional", "--mode", "author"),
        "fc": ("--method", "fractional", "--mode", "country"),
    }

    # ingest
    for fmt in FORMATS:
        add(f"ingest-report-{fmt}", "ingest", *jsonl, "--format", fmt)
        add(f"ingest-messy-{fmt}", "ingest", "--input", "messy.jsonl", "--format", fmt)
    add("ingest-report-csv-input", "ingest", "--input", "corpus.csv")
    add("ingest-emit-jsonl-from-csv", "ingest", "--input", "corpus.csv", "--emit", "jsonl")
    add("ingest-emit-csv-from-jsonl", "ingest", *jsonl, "--emit", "csv")
    add("ingest-emit-jsonl-stdin", "ingest", "--input", "-", "--emit", "jsonl", stdin="corpus.jsonl")
    add("ingest-sniff-csv", "ingest", "--input", "corpus_csv.txt", "--emit", "csv")
    add("ingest-messy-emit-jsonl", "ingest", "--input", "messy.jsonl", "--emit", "jsonl")

    # count
    for m, flags in methods.items():
        for fmt in FORMATS:
            add(f"count-{m}-{fmt}", "count", *jsonl, *flags, "--format", fmt)
        add(f"count-{m}-group-phys", "count", *jsonl, *scheme, *flags, "--group", "phys")
    add("count-csv-input", "count", "--input", "corpus.csv", "--method", "fractional")
    add("count-sniff-jsonl", "count", "--input", "corpus_jsonl.txt")
    add("count-sniff-csv", "count", "--input", "corpus_csv.txt")
    add("count-forced-csv", "count", "--input", "corpus_csv.txt", "--input-format", "csv")
    add("count-stdin", "count", "--input", "-", stdin="corpus.jsonl")
    add("count-stdin-csv", "count", "--input", "-", "--method", "fractional", stdin="corpus.csv")
    add("count-group-empty", "count", *jsonl, *scheme, "--group", "empty")
    add("count-group-orphan", "count", *jsonl, *scheme, "--group", "orphan")
    add("count-group-unknown", "count", *jsonl, *scheme, "--group", "nope")
    add("count-group-no-scheme", "count", *jsonl, "--group", "phys")
    add("count-years", "count", *jsonl, "--years", "2016,2017")
    add("count-years-bad", "count", *jsonl, "--years", "2016,x")
    add("count-doc-types-all", "count", *jsonl, "--doc-types", "all")
    add("count-doc-types-other", "count", *jsonl, "--doc-types", "other", "--method", "fractional")
    add("count-doc-types-bad", "count", *jsonl, "--doc-types", "article,letter")
    add("count-output-file", "count", *jsonl, "--output", "out.csv")
    add("count-empty-input", "count", "--input", "empty.jsonl")
    add("count-record-errors", "count", "--input", "messy.jsonl")

    # collab
    for basis in ("fc", "wc"):
        for mode in ("author", "country"):
            for fmt in FORMATS:
                add(
                    f"collab-{basis}-{mode}-{fmt}",
                    "collab", *jsonl, "--basis", basis, "--mode", mode, "--format", fmt,
                )
    add("collab-csv-input-years", "collab", "--input", "corpus.csv", "--years", "2015")

    # rank
    for m, flags in methods.items():
        for fmt in FORMATS:
            add(f"rank-{m}-{fmt}", "rank", *jsonl, *flags, "--format", fmt)
    add("rank-include-unresolved", "rank", *jsonl, "--include-unresolved")
    add("rank-group-life", "rank", *jsonl, *scheme, "--group", "life", "--method", "fractional")
    add("rank-group-empty", "rank", *jsonl, *scheme, "--group", "empty")
    add("rank-group-orphan-unresolved", "rank", *jsonl, *scheme, "--group", "orphan", "--include-unresolved")
    add("rank-csv-input", "rank", "--input", "corpus.csv", "--method", "fractional", "--mode", "country")

    # correlate
    slices = ("--slices", "all,phys,life,social,tech")
    for stat in ("spearman", "pearson"):
        for fmt in FORMATS:
            add(f"correlate-{stat}-{fmt}", "correlate", *jsonl, *scheme, *slices, "--stat", stat, "--format", fmt)
        for m in ("fa", "fc"):
            add(f"correlate-{stat}-{m}", "correlate", *jsonl, *scheme, *slices, *methods[m], "--stat", stat)
        add(f"correlate-{stat}-with-empty", "correlate", *jsonl, *scheme, "--slices", "all,empty", "--stat", stat)
        add(f"correlate-{stat}-with-orphan", "correlate", *jsonl, *scheme, "--slices", "phys,orphan", "--stat", stat)
        add(f"correlate-{stat}-one-slice", "correlate", *jsonl, *scheme, "--slices", "phys", "--stat", stat)
        add(f"correlate-{stat}-years", "correlate", *jsonl, *scheme, *slices, "--years", "2017", "--stat", stat)
    add("correlate-upper-all", "correlate", *jsonl, *scheme, "--slices", "ALL, tech ,phys")
    add("correlate-csv-input", "correlate", "--input", "corpus.csv", *scheme, *slices)
    add("correlate-no-slices-named", "correlate", *jsonl, *scheme, "--slices", " , ")
    add("correlate-unknown-slice", "correlate", *jsonl, *scheme, "--slices", "all,nope")
    add("correlate-missing-slices", "correlate", *jsonl, *scheme)

    # subjects
    ranked = ("--scheme", "scheme_ranked.json")
    for m, flags in methods.items():
        for fmt in FORMATS:
            add(f"subjects-{m}-{fmt}", "subjects", *jsonl, *ranked, *flags, "--format", fmt)
        add(f"subjects-{m}-unranked-groups", "subjects", *jsonl, *scheme, *flags)
    for fmt in ("md", "json"):
        add(f"subjects-unranked-groups-{fmt}", "subjects", *jsonl, *scheme, "--format", fmt)
    add("subjects-no-scheme", "subjects", *jsonl)
    add("subjects-csv-input", "subjects", "--input", "corpus.csv", *ranked, "--years", "2016")

    # replicate
    for target in ("table2", "correlations", "table4", "fig1", "all"):
        for fmt in FORMATS:
            add(f"replicate-{target}-{fmt}", "replicate", "--target", target, "--format", fmt)
    add("replicate-default", "replicate")
    add("replicate-bad-target", "replicate", "--target", "table9")

    # synth
    add("synth-small", "synth", "--seed", "3", "--n-records", "12")
    add("synth-weights", "synth", "--seed", "3", "--n-records", "12", "--countries", "IN:2, US:1", "--collab-prob", "0.5")
    add("synth-pool", "synth", "--seed", "4", "--n-records", "8", "--subject-pool", "A,B", "--subjects-min", "0")
    add("synth-zero", "synth", "--seed", "1", "--n-records", "0")
    add("synth-bad-pair", "synth", "--seed", "3", "--n-records", "5", "--countries", "IN")
    add("synth-bad-weight", "synth", "--seed", "3", "--n-records", "5", "--countries", "IN:x")
    add("synth-no-countries", "synth", "--seed", "3", "--n-records", "5", "--countries", ",")
    add("synth-empty-pool", "synth", "--seed", "3", "--n-records", "5", "--subject-pool", ",")
    add("synth-bad-params", "synth", "--seed", "3", "--n-records", "5", "--authors-min", "3", "--authors-max", "2")
    add("synth-missing-seed", "synth", "--n-records", "5")

    # usage, validation and i/o exits
    add("usage-no-command")
    add("usage-unknown-command", "frobnicate")
    add("usage-unknown-flag", "count", *jsonl, "--frobnicate")
    add("usage-missing-input", "count")
    add("usage-bad-format", "count", *jsonl, "--format", "xml")
    add("usage-bad-method", "rank", *jsonl, "--method", "harmonic")
    add("usage-bad-basis", "collab", *jsonl, "--basis", "xx")
    add("io-missing-input", "count", "--input", "missing.jsonl")
    add("io-missing-scheme", "count", *jsonl, "--scheme", "missing.json")
    add("validation-bad-scheme", "count", *jsonl, "--scheme", "scheme_bad.json")
    add("validation-broken-scheme", "subjects", *jsonl, "--scheme", "scheme_broken.json")
    return cases


CASES = _cases()


def capture(name: str) -> dict[str, object]:
    """Run one case in the current directory and record what it emitted."""
    argv, stdin = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(Path(stdin).read_text(encoding="utf-8"))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved_stdin
    result: dict[str, object] = {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if "--output" in argv:
        path = Path(argv[argv.index("--output") + 1])
        result["file"] = path.read_text(encoding="utf-8")
        path.unlink()
    return result


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def expected() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_golden(name, inputs_dir, expected, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    assert capture(name) == expected[name]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        here = Path.cwd()
        try:
            os.chdir(directory)
            results = {name: capture(name) for name in CASES}
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(results)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
