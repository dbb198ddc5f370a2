"""Benchmark worker: the part of the benchmark that imports bibrank.

Run by ``run.py`` as a child process, one task per process::

    python3 perfbench/worker.py TASK 'JSON-PARAMS'

It prints one JSON object as its last line of output. Tasks:

``setup-count``      build the count-jsonl input file and its exact oracle
``setup-roundtrip``  compute the bytes ``bibrank synth`` must write
``analysis``         build the analysis-lib corpus, then run analysis passes
``cli-op``           run CLI steps in-process through ``bibrank.cli.run``

Keeping this work out of ``run.py`` keeps that process small, so the peak
RSS it reads for CLI children is the children's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

from tracing import Tracer
import workloads as wl

sys.path.insert(0, str(wl.SRC))

from bibrank import (  # noqa: E402
    cli,
    collaboration,
    counting,
    ingest,
    model,
    rankstats,
    replication,
    tables,
)
from bibrank.collaboration import ReductionBasis  # noqa: E402
from bibrank.counting import CountMethod, FractionalMode  # noqa: E402
from bibrank.model import AuthorRef, Corpus, PublicationRecord, SubjectScheme  # noqa: E402
from bibrank.synth import SynthParams, generate  # noqa: E402

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def load_oracles() -> Any:
    spec = importlib.util.spec_from_file_location("bibrank_oracles", wl.ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# tracing: which looked-up names become spans, which only count calls


def _observe_parse(tracer: Tracer, parse: Any) -> Any:
    def observed(*args: Any, **kwargs: Any) -> Any:
        before = rss_bytes()
        corpus, report = parse(*args, **kwargs)
        tracer.counts["ingest.parse.rss_delta_bytes"] += rss_bytes() - before
        tracer.counts["ingest.records_accepted"] += report.records_accepted
        tracer.counts["ingest.records_rejected"] += report.records_rejected
        tracer.counts["ingest.warnings"] += len(report.warnings)
        return corpus, report

    return observed


def _observe_write_table(tracer: Tracer, write: Any) -> Any:
    def observed(*args: Any, **kwargs: Any) -> str:
        text = write(*args, **kwargs)
        tracer.counts["tables.write_table.bytes"] += len(text.encode("utf-8"))
        return text

    return observed


SPANS = (
    (cli, "parse_jsonl", "ingest.parse_jsonl"),
    (cli, "parse_csv", "ingest.parse_csv"),
    (cli, "to_jsonl", "ingest.to_jsonl"),
    (cli, "to_csv", "ingest.to_csv"),
    (cli, "apply_filter", "ingest.apply_filter"),
    (cli, "whole_count", "counting.whole_count"),
    (cli, "fractional_count", "counting.fractional_count"),
    (cli, "slice_corpus", "counting.slice_corpus"),
    (cli, "subject_group_count", "counting.subject_group_count"),
    (cli, "country_metrics", "collaboration.country_metrics"),
    (cli, "assign_ranks", "rankstats.assign_ranks"),
    (cli, "srcc_matrix", "rankstats.srcc_matrix"),
    (cli, "write_table", "tables.write_table"),
    (cli, "generate", "synth.generate"),
    (counting, "slice_corpus", "counting.slice_corpus"),
    (counting, "subject_group_count", "counting.subject_group_count"),
    (collaboration, "whole_count", "counting.whole_count"),
    (collaboration, "fractional_count", "counting.fractional_count"),
    (collaboration, "icp_count", "collaboration.icp_count"),
    (collaboration, "country_metrics", "collaboration.country_metrics"),
    (rankstats, "assign_ranks", "rankstats.assign_ranks"),
    (rankstats, "srcc_matrix", "rankstats.srcc_matrix"),
    (tables, "write_table", "tables.write_table"),
    (replication, "load_fixtures", "replication.load_fixtures"),
    (replication, "replicate_table2", "replication.replicate"),
    (replication, "replicate_rank_correlations", "replication.replicate"),
    (replication, "replicate_table4", "replication.replicate"),
    (replication, "fig1_curves", "replication.replicate"),
)

COUNTERS = (
    (ingest, "normalize_country", "model.normalize_country"),
    (model, "normalize_country", "model.normalize_country"),
    (counting, "countries_of", "model.countries_of"),
    (collaboration, "countries_of", "model.countries_of"),
    (model.Corpus, "__post_init__", "model.Corpus"),
)


def install(tracer: Tracer) -> None:
    for owner, attr, name in COUNTERS:
        tracer.patch(owner, attr, lambda fn, name=name: tracer.counter(name, fn))
    for owner, attr, name in SPANS:
        if name.startswith("ingest.parse_"):
            wrap = lambda fn, name=name: tracer.span(name, _observe_parse(tracer, fn))  # noqa: E731
        elif name == "tables.write_table":
            wrap = lambda fn, name=name: tracer.span(name, _observe_write_table(tracer, fn))  # noqa: E731
        else:
            wrap = lambda fn, name=name: tracer.span(name, fn)  # noqa: E731
        tracer.patch(owner, attr, wrap)


# ---------------------------------------------------------------------------
# count-jsonl set-up


def _dirty(corpus: Corpus, text: str, seed: int) -> tuple[str, list[PublicationRecord], int]:
    """Make a few percent of the JSONL lines dirty but valid.

    Returns the new JSONL, the records ``count`` should see after its
    default doc-type filter (built directly, not by parsing), and the
    number of raw country strings in the file.
    """
    rng = random.Random(seed)
    lines = text.splitlines()
    kept: list[PublicationRecord] = []
    country_strings = 0
    for i, record in enumerate(corpus.records):
        draw = rng.random()
        if draw < wl.DIRTY_NAMES_P + wl.DIRTY_UNRESOLVED_P + wl.DIRTY_DOC_TYPE_P:
            obj = json.loads(lines[i])
            if draw < wl.DIRTY_NAMES_P:
                for author in obj["authors"]:
                    author["countries"] = [wl.COUNTRY_NAMES[c] for c in author["countries"]]
            elif draw < wl.DIRTY_NAMES_P + wl.DIRTY_UNRESOLVED_P:
                j = rng.randrange(len(record.authors))
                obj["authors"][j]["countries"] = []
                authors = list(record.authors)
                authors[j] = AuthorRef(frozenset())
                record = PublicationRecord(
                    record.id, record.year, record.doc_type, record.subjects, tuple(authors)
                )
            else:
                obj["doc_type"] = rng.choice(wl.UNKNOWN_DOC_TYPES)
                record = None
            lines[i] = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
        if record is not None:
            kept.append(record)
            country_strings += sum(len(a.countries) for a in record.authors)
        else:
            country_strings += sum(len(a.countries) for a in corpus.records[i].authors)
    return "".join(line + "\n" for line in lines), kept, country_strings


def setup_count(p: dict) -> dict:
    work = Path(p["work"])
    data = work / "count.jsonl"
    times = []
    for _ in range(p["repeats"]):
        t0 = perf_counter()
        corpus = generate(SynthParams(seed=p["seed"], n_records=p["records"]))
        text, kept, country_strings = _dirty(corpus, ingest.to_jsonl(corpus), p["seed"])
        data.write_text(text, encoding="utf-8")
        times.append(perf_counter() - t0)
        del corpus, text
    exact = load_oracles().oracle_fractional_author(Corpus(tuple(kept)))
    if sum(exact.values()) != len(kept):
        raise RuntimeError("oracle credit does not sum to the record count")
    expected = {
        "records": p["records"],
        "counted": len(kept),
        "country_strings": country_strings,
        "scores": {c: str(v) for c, v in exact.items()},
    }
    (work / "count.expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return {"setup_s": times, "data": str(data)}


# ---------------------------------------------------------------------------
# roundtrip-csv set-up


def setup_roundtrip(p: dict) -> dict:
    params = SynthParams(
        seed=p["seed"],
        n_records=p["records"],
        authors_max=wl.WIDE_AUTHORS_MAX,
        collab_prob=wl.WIDE_COLLAB_PROB,
    )
    times = []
    for _ in range(p["repeats"]):
        t0 = perf_counter()
        digest = hashlib.sha256(ingest.to_jsonl(generate(params)).encode("utf-8")).hexdigest()
        times.append(perf_counter() - t0)
    return {"setup_s": times, "sha256": digest, "records": p["records"], "seed": p["seed"]}


# ---------------------------------------------------------------------------
# analysis-lib

SCHEME = SubjectScheme({g: frozenset(codes) for g, codes in wl.ANALYSIS_GROUPS.items()})
GROUPS = [model.ALL_FIELDS, *SCHEME.names]
RANK_HEADERS = ["rank", "country", "score", "tie_rank"]


def analysis_corpus(seed: int, records: int, path: Path) -> Corpus:
    params = SynthParams(
        seed=seed,
        n_records=records,
        country_weights=wl.analysis_weights(),
        authors_max=wl.WIDE_AUTHORS_MAX,
        collab_prob=wl.WIDE_COLLAB_PROB,
        subject_pool=wl.ANALYSIS_SUBJECTS,
        subjects_min=1,
        subjects_max=wl.ANALYSIS_SUBJECTS_MAX,
    )
    path.write_text(ingest.to_jsonl(generate(params)), encoding="utf-8")
    corpus, report = ingest.parse_jsonl(
        path.read_text(encoding="utf-8"), scheme=SCHEME, provenance=str(path)
    )
    if not report.ok or report.records_accepted != records:
        raise RuntimeError(f"analysis corpus did not parse cleanly: {report.errors[:3]}")
    return corpus


def analysis_pass(corpus: Corpus) -> dict[str, Any]:
    """One analysis pass. Every call goes through a module attribute, so a
    traced pass sees the wrappers."""
    metrics = [
        collaboration.country_metrics(corpus, ReductionBasis.FC_BASIS, mode)
        for mode in (FractionalMode.AUTHOR, FractionalMode.COUNTRY)
    ]
    scores = {
        method: counting.subject_group_count(corpus, method, GROUPS)
        for method in (CountMethod.WHOLE, CountMethod.FRACTIONAL_AUTHOR)
    }
    ranks = {
        method: {g: rankstats.assign_ranks(t) for g, t in by_group.items()}
        for method, by_group in scores.items()
    }
    matrices = []
    for method in scores:
        matrices.append(rankstats.srcc_matrix(scores[method]))
        matrices.append(rankstats.srcc_matrix(ranks[method]))
    texts = [
        tables.write_table(
            RANK_HEADERS,
            [[e.rank, e.country, e.score, e.tie_rank] for e in ranked.entries],
            "csv",
            precision=[None, None, 0 if method is CountMethod.WHOLE else 2, 1],
        )
        for method, by_group in ranks.items()
        for ranked in by_group.values()
    ]
    replicated = (
        replication.replicate_table2(),
        replication.replicate_rank_correlations(),
        replication.replicate_table4(),
    )
    curves = replication.fig1_curves()
    return {
        "metrics": metrics,
        "scores": scores,
        "matrices": matrices,
        "texts": texts,
        "replicated": replicated,
        "curves": curves,
    }


def check_analysis(out: dict[str, Any], records: int) -> str | None:
    for rows in out["metrics"]:
        for m in rows:
            if not m.fc <= m.wc:
                return f"{m.country}: fc {m.fc} > wc {m.wc}"
            if not m.icp <= m.wc:
                return f"{m.country}: icp {m.icp} > wc {m.wc}"
    for method, by_group in out["scores"].items():
        table = by_group[model.ALL_FIELDS]
        if table.records_counted != records:
            return f"{method.value}: {table.records_counted} records counted, not {records}"
    fc_total = out["scores"][CountMethod.FRACTIONAL_AUTHOR][model.ALL_FIELDS].total()
    if abs(fc_total - records) > 1e-9 * records:
        return f"fractional credit sums to {fc_total!r}, not {records}"
    t2, rc, t4 = out["replicated"]
    for matrix in [*out["matrices"], t4.matrix, t4.avg_rank_matrix]:
        if any(matrix.values[i, i] != 1.0 for i in range(len(matrix.labels))):
            return f"correlation matrix over {matrix.labels} lacks a unit diagonal"
    if not (t2.passed and rc.passed and t4.passed):
        return "a replicated reference table is outside its tolerance"
    if len(out["curves"].reduction_series) != 20 or not all(out["texts"]):
        return "replication curves or ranked tables are incomplete"
    return None


def run_analysis(p: dict) -> dict:
    path = Path(p["work"]) / "analysis.jsonl"
    times = []
    for _ in range(p["repeats"]):
        corpus = None  # drop the previous build, so peak RSS holds one corpus
        t0 = perf_counter()
        corpus = analysis_corpus(p["seed"], p["records"], path)
        times.append(perf_counter() - t0)
    path.unlink()
    op_s, traced_s, errors, traces = [], [], [], []
    start = perf_counter()
    while not op_s or perf_counter() - start < p["seconds"]:
        for traced in (False, True) if p["trace"] else (False,):
            tracer = Tracer(op=len(op_s) + len(traced_s))
            if traced:
                install(tracer)
            t0 = perf_counter()
            try:
                out = analysis_pass(corpus)
                error = None
            except Exception as exc:  # a pass that raises is a failed operation
                out, error = None, f"pass raised {exc!r}"
            finally:
                elapsed = perf_counter() - t0
                tracer.restore()
            (traced_s if traced else op_s).append(elapsed)
            if traced:
                traces.append(tracer.summary())
            error = error or check_analysis(out, p["records"])
            if error:
                errors.append(error)
            del out
    return {
        "setup_s": times,
        "wall_s": perf_counter() - start,
        "op_s": op_s,
        "traced_s": traced_s,
        "traces": traces,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


# ---------------------------------------------------------------------------
# CLI operations replayed in-process


def cli_op(p: dict) -> dict:
    tracer = Tracer()
    run = cli.run
    if p["trace"]:
        install(tracer)
        run = tracer.span("cli.run", cli.run)
    codes, stdouts, stderrs = [], [], []
    try:
        t0 = perf_counter()
        for argv in p["steps"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    codes.append(run(argv))
                except Exception:  # the CLI process would die with exit 1
                    traceback.print_exc(limit=-3)
                    codes.append(1)
            stdouts.append(out.getvalue())
            stderrs.append(err.getvalue())
            if codes[-1] != 0:
                break
        op_s = perf_counter() - t0
    finally:
        tracer.restore()
    result = {"op_s": op_s, "codes": codes, "stdout": stdouts, "stderr": stderrs}
    if p["trace"]:
        result["trace"] = tracer.summary()
    return result


TASKS = {
    "setup-count": setup_count,
    "setup-roundtrip": setup_roundtrip,
    "analysis": run_analysis,
    "cli-op": cli_op,
}

if __name__ == "__main__":
    task, params = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(TASKS[task](params)))
