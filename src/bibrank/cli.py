"""Command-line front end.

One subcommand per pipeline stage::

    bibrank ingest     validate a record stream, report problems
    bibrank count      per-country scores under one counting method
    bibrank collab     collaboration indicators per country
    bibrank rank       ranked country table
    bibrank correlate  rank-correlation matrix across subject slices
    bibrank subjects   per-group counts and ranks in one long table
    bibrank replicate  recompute the bundled reference tables
    bibrank synth      generate a deterministic synthetic corpus

``--input -`` reads standard input's bytes exactly as a file is read:
strict UTF-8, a leading BOM dropped, lines ending at ``\\n``, ``\\r\\n`` or
a bare ``\\r``. Data goes to stdout (or ``--output``), diagnostics to stderr.
Exit codes: 0 success, 1 validation or usage error, 2 I/O error. All
configuration is flags; no environment variables are consulted. Output
for a fixed input and flag set is byte-identical across runs.

The cyclic garbage collector is paused while the input is parsed: the
records are acyclic, and the collector would otherwise rescan them as they
accumulate. Its previous state is restored afterwards, also when the parse
raises. The library itself never touches the collector.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import fields
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence, TextIO

from . import replication
from .collaboration import ReductionBasis, country_metrics
from .counting import CountMethod, FractionalMode, ScoreTable, subject_group_count
from .counting import fractional_count, slice_corpus, whole_count  # noqa: F401 - perfbench wraps them here
from .errors import SchemaError, UndefinedInputError, UnknownGroupError
from .ingest import (
    _WIRE_DOC_TYPES,
    DEFAULT_DOC_TYPES,
    ValidationReport,
    apply_filter,
    parse_csv,
    parse_jsonl,
    to_csv,
    to_jsonl,
)
from .model import ALL_FIELDS, Corpus, DocType, SubjectScheme, EMPTY_SCHEME
from .rankstats import assign_ranks, correlation_matrix, pearson, srcc_matrix
from .synth import SynthParams, iter_records
from .synth import generate  # noqa: F401 - perfbench wraps it here
from .tables import FORMATS, write_table


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here reserves 2 for
    # I/O, so route usage failures through the normal error path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared plumbing


class _OutputFile(object):
    """``--output PATH``, opened for writing at the first write."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.file: TextIO | None = None

    def write(self, text: str) -> int:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8", newline="")
        return self.file.write(text)


def _write_output(write: Callable[[Any], object], path: str | None) -> None:
    """Call ``write(out)`` with ``out`` stdout, or the file at ``--output``.

    The file is opened at the first write. A record writer that refuses a
    corpus raises before it writes, so a file already at the path is then
    left as it was. An output of no text still creates the file.
    """
    if path is None or path == "-":
        write(sys.stdout)
        return
    out = _OutputFile(path)
    try:
        write(out)
        out.write("")
    finally:
        if out.file is not None:
            out.file.close()


def _sniff_format(path: str, lines: Iterable[str]) -> tuple[str, Iterable[str]]:
    """Format from the extension, else from the first non-blank line.

    Returns the format and the lines, with any peeked ones chained back.
    """
    if path.endswith(".csv"):
        return "csv", lines
    if path.endswith(".jsonl") or path.endswith(".json"):
        return "jsonl", lines
    lines = iter(lines)
    head = []
    for line in lines:
        head.append(line)
        if line.strip():
            fmt = "jsonl" if line.lstrip()[0] in "{[" else "csv"
            return fmt, chain(head, lines)
    return "jsonl", head


def _load_scheme(path: str | None) -> SubjectScheme:
    if path is None:
        return EMPTY_SCHEME
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"--scheme file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not all(
        isinstance(k, str)
        and isinstance(v, list)
        and all(isinstance(c, str) for c in v)
        for k, v in raw.items()
    ):
        raise SchemaError(
            f"--scheme file {path!r} must map group names to arrays of subject codes"
        )
    try:
        return SubjectScheme({k: frozenset(v) for k, v in raw.items()})
    except ValueError as exc:  # an empty or reserved group name
        raise SchemaError(f"--scheme file {path!r}: {exc}") from None


def _names(arg: str, flag: str, what: str) -> list[str]:
    """The non-blank items of a comma-separated flag value; at least one."""
    names = [tok.strip() for tok in arg.split(",") if tok.strip()]
    if not names:
        raise UsageError(f"{flag} must name at least one {what}")
    return names


def _parse_years(arg: str | None) -> set[int] | None:
    if arg is None:
        return None
    try:
        return {int(tok) for tok in _names(arg, "--years", "year")}
    except ValueError:
        raise UsageError(f"--years expects comma-separated integers, got {arg!r}")


def _parse_doc_types(arg: str) -> set[DocType] | None:
    names = _names(arg, "--doc-types", "doc type")
    keys = [tok.lower() for tok in names]  # stripped and lowered, as ingest reads a doc type
    if keys == ["all"]:
        return None
    if keys == ["default"]:
        return set(DEFAULT_DOC_TYPES)
    out = set()
    for tok, key in zip(names, keys):
        if (doc_type := _WIRE_DOC_TYPES.get(key)) is None:
            raise UsageError(
                f"unknown doc type {tok!r}; expected names from "
                f"{sorted(_WIRE_DOC_TYPES)}, 'default' or 'all'"
            )
        out.add(doc_type)
    return out


def _load_corpus(
    args: argparse.Namespace, groups: Iterable[str] = ()
) -> tuple[Corpus, ValidationReport]:
    # the scheme alone decides each group name: both are checked before the input is read
    scheme = _load_scheme(args.scheme)
    for name in groups:
        if name != ALL_FIELDS:
            scheme.group(name)
    stdin = args.input == "-"
    # stdin reads as a file does; newline="" keeps "\r\n" in quoted CSV fields
    try:
        with open(
            sys.stdin.fileno() if stdin else args.input,
            encoding="utf-8-sig",
            newline="",
            closefd=not stdin,
        ) as lines:
            fmt = args.input_format
            if fmt == "auto":
                fmt, lines = _sniff_format(args.input, lines)
            parse = parse_jsonl if fmt == "jsonl" else parse_csv
            # records are acyclic: the collector would only rescan them
            collecting = gc.isenabled()
            gc.disable()
            try:
                corpus, report = parse(lines, scheme=scheme, provenance=args.input)
            finally:
                if collecting:
                    gc.enable()
    except UnicodeDecodeError as exc:
        # the decoder's position counts from its current chunk, not the file
        bad = " ".join(f"0x{b:02x}" for b in exc.object[exc.start : exc.end])
        raise SchemaError(f"input {args.input!r} is not valid UTF-8: {exc.reason} {bad}") from None
    for ref, message in report.errors:
        print(f"error: {ref}: {message}", file=sys.stderr)
    return corpus, report


def _filtered_corpus(args: argparse.Namespace, groups: Iterable[str] = ()) -> Corpus:
    # a flag typo is reported before a long input is read
    years, doc_types = _parse_years(args.years), _parse_doc_types(args.doc_types)
    corpus, report = _load_corpus(args, groups)
    if not report.ok:
        raise UsageError(
            f"{len(report.errors)} record error(s) in {args.input}; "
            "run 'bibrank ingest' for the full report"
        )
    return apply_filter(corpus, years, doc_types)


def _method(args: argparse.Namespace) -> CountMethod:
    """The counting method selected by ``--method`` and ``--mode``."""
    if args.method == "whole":
        return CountMethod.WHOLE
    return FractionalMode(args.mode).method


def _score_decimals(method: CountMethod) -> int | None:
    return 0 if method is CountMethod.WHOLE else 2


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _attr_rows(items: Iterable[Any], headers: Sequence[str]) -> list[list[Any]]:
    """One row per item: its attributes named by ``headers``, a bool as yes/no."""
    values = attrgetter(*headers)
    return [[_yes(v) if isinstance(v, bool) else v for v in values(item)] for item in items]


def _write_rows(
    args: argparse.Namespace,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    precision: Sequence[int | None] | None = None,
) -> None:
    """Render a table in ``--format`` and write it to ``--output``."""
    text = write_table(headers, rows, args.format, precision=precision)
    _write_output(lambda out: out.write(text), args.output)


def _group_name(name: str) -> str:
    """A ``--group`` or ``--slices`` name: ``all`` in any case is the unrestricted slice."""
    return ALL_FIELDS if name.lower() == "all" else name


def _group_count(args: argparse.Namespace) -> ScoreTable:
    """Load and filter the input, restrict it to ``--group``, then count."""
    group = _group_name(args.group) if args.group else ALL_FIELDS
    return subject_group_count(_filtered_corpus(args, [group]), _method(args), [group])[group]


def _slice_tables(args: argparse.Namespace) -> dict[str, ScoreTable]:
    """Load and filter the input, then count each of ``--slices``."""
    names = _names(args.slices, "--slices", "subject group")
    groups = [_group_name(n) for n in names]
    return subject_group_count(_filtered_corpus(args, groups), _method(args), groups)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus, report = _load_corpus(args)
    if args.emit == "report":
        rows = [["error", ref, msg] for ref, msg in report.errors]
        rows += [["warning", ref, msg] for ref, msg in report.warnings]
        _write_rows(args, ["severity", "record", "message"], rows)
    else:
        _write_output(partial(to_jsonl if args.emit == "jsonl" else to_csv, corpus), args.output)
    print(
        f"accepted {report.records_accepted}, rejected {report.records_rejected}, "
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_count(args: argparse.Namespace) -> int:
    table = _group_count(args)
    rows = [[c, table.scores[c]] for c in table.countries(include_unresolved=True)]
    precision = [None, _score_decimals(table.method)]
    _write_rows(args, ["country", table.method.value], rows, precision)
    print(f"{table.records_counted} records counted", file=sys.stderr)
    return 0


def _cmd_collab(args: argparse.Namespace) -> int:
    corpus = _filtered_corpus(args)
    metrics = country_metrics(corpus, ReductionBasis(args.basis), FractionalMode(args.mode))
    headers = ["country", "wc", "fc", "icp", "icp_pct", "reduction_pct", "ratio"]
    _write_rows(args, headers, _attr_rows(metrics, headers), [None, 0, 2, 0, 1, 1, 2])
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    table = _group_count(args)
    if not table.countries(include_unresolved=args.include_unresolved):
        what = f"subject group {args.group!r}" if args.group else f"input {args.input!r}"
        raise UndefinedInputError(f"{what} has no country to rank")
    ranked = assign_ranks(table, include_unresolved=args.include_unresolved)
    headers = ["rank", "country", "score", "tie_rank"]
    precision = [None, None, _score_decimals(table.method), 1]
    _write_rows(args, headers, _attr_rows(ranked.entries, headers), precision)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    tables = _slice_tables(args)
    if args.stat == "spearman":
        matrix = srcc_matrix(tables)
    else:
        matrix = correlation_matrix(tables, stat=pearson)
    labels = matrix.labels
    rows = [[label, *map(float, values)] for label, values in zip(labels, matrix.values)]
    _write_rows(args, ["group", *labels], rows, [None] + [3] * len(labels))
    print(f"correlated over {len(matrix.countries)} countries", file=sys.stderr)
    return 0


def _cmd_subjects(args: argparse.Namespace) -> int:
    method = _method(args)
    tables = subject_group_count(_filtered_corpus(args), method)
    # a group with no country to rank (no record, or only ZZ) gets no rows
    rows = [
        [entry.country, group, entry.score, entry.rank]
        for group, table in tables.items()
        if table.countries()
        for entry in assign_ranks(table).entries
    ]
    precision = [None, None, _score_decimals(method), None]
    _write_rows(args, ["country", "group", "tp", "rank"], rows, precision)
    return 0


_Rows = tuple[list[list[Any]], bool]


def _table2_rows(fixtures: replication.FixtureSet, headers: Sequence[str]) -> _Rows:
    report = replication.replicate_table2(fixtures)
    values = attrgetter("reduction_pct", "icp_pct", "ratio")
    rows = [
        [r.computed.country, *values(r.computed), *values(r.printed), _yes(r.within_tolerance)]
        for r in report.rows
    ]
    return rows, report.passed


def _correlation_rows(fixtures: replication.FixtureSet, headers: Sequence[str]) -> _Rows:
    report = replication.replicate_rank_correlations(fixtures)
    return _attr_rows(report.coefficients, headers), report.passed


def _table4_rows(fixtures: replication.FixtureSet, headers: Sequence[str]) -> _Rows:
    report = replication.replicate_table4(fixtures)
    return _attr_rows(report.cells, headers), report.passed


def _fig1_rows(fixtures: replication.FixtureSet, headers: Sequence[str]) -> _Rows:
    curves = replication.fig1_curves(fixtures)
    rows = [["reduction_pct", c, v] for c, v in curves.reduction_series]
    rows += [["icp_pct", c, v] for c, v in curves.icp_series]
    return rows, True


def _summary_rows(fixtures: replication.FixtureSet, headers: Sequence[str]) -> _Rows:
    t2 = replication.replicate_table2(fixtures)
    rc = replication.replicate_rank_correlations(fixtures)
    t4 = replication.replicate_table4(fixtures)
    details = {
        "table2": (t2, f"{len(t2.failures)} rows out of tolerance"),
        "correlations": (rc, "; ".join(f"{c.name}={c.computed:.3f}" for c in rc.coefficients)),
        "table4": (t4, f"{len(t4.outliers)} of {len(t4.cells)} cells beyond per-cell tolerance"),
    }
    rows = [[name, _yes(r.passed), detail] for name, (r, detail) in details.items()]
    return rows, all(r.passed for r, _ in details.values())


# replicate --target -> (rows builder(fixtures, headers) -> (rows, passed), headers, precision)
_REPLICATE_TARGETS = {
    "table2": (
        _table2_rows,
        [
            "country",
            "reduction_pct",
            "icp_pct",
            "ratio",
            "printed_reduction_pct",
            "printed_icp_pct",
            "printed_ratio",
            "within_tolerance",
        ],
        [None, 1, 1, 2, 1, 1, 2, None],
    ),
    "correlations": (
        _correlation_rows,
        ["name", "computed", "expected_low", "expected_high", "within_tolerance", "note"],
        [None, 3, 3, 3, None, None],
    ),
    "table4": (
        _table4_rows,
        [
            "row_group",
            "col_group",
            "computed",
            "printed",
            "delta",
            "avg_rank_spearman",
            "outlier",
        ],
        [None, None, 3, 3, 3, 3, None],
    ),
    "fig1": (_fig1_rows, ["series", "country", "value"], [None, None, 1]),
    "all": (_summary_rows, ["target", "passed", "detail"], None),
}


def _cmd_replicate(args: argparse.Namespace) -> int:
    build_rows, headers, precision = _REPLICATE_TARGETS[args.target]
    rows, passed = build_rows(replication.load_fixtures(), headers)
    _write_rows(args, headers, rows, precision)
    if not passed:
        print(f"replication target {args.target!r} outside tolerance", file=sys.stderr)
    return 0 if passed else 1


def _parse_weights(arg: str) -> dict[str, float]:
    weights = {}
    for tok in _names(arg, "--countries", "country"):
        code, sep, value = tok.partition(":")
        if not sep:
            raise UsageError(f"--countries expects CODE:WEIGHT pairs, got {tok!r}")
        try:
            weights[code.strip()] = float(value)
        except ValueError:
            raise UsageError(f"bad weight {value!r} for {code.strip()!r}")
    return weights


def _cmd_synth(args: argparse.Namespace) -> int:
    given = vars(args)
    if "countries" in given:
        given["country_weights"] = _parse_weights(args.countries)
    if "subject_pool" in given:
        given["subject_pool"] = tuple(_names(args.subject_pool, "--subject-pool", "subject code"))
    kwargs = {f.name: given[f.name] for f in fields(SynthParams) if f.name in given}
    # SynthParams and iter_records raise ValueError on bad knobs, which run()
    # reports as exit 1, before anything is written
    params = SynthParams(**kwargs)
    _write_output(partial(to_jsonl, iter_records(params)), args.output)
    print(f"generated {params.n_records} records (seed {args.seed})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bibrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared flag sets, each extending the one before it
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="output path; default stdout")
    output.add_argument("--format", choices=list(FORMATS), default="csv", help="table format")
    inputs = argparse.ArgumentParser(add_help=False, parents=[output])
    inputs.add_argument("--input", required=True, help="record stream path, or - for stdin")
    inputs.add_argument(
        "--input-format",
        choices=["auto", "jsonl", "csv"],
        default="auto",
        help="input layout; auto sniffs from the extension or first line",
    )
    inputs.add_argument("--scheme", help="JSON file mapping group names to subject codes")
    analysis = argparse.ArgumentParser(add_help=False, parents=[inputs])
    analysis.add_argument("--years", help="comma-separated publication years to keep")
    analysis.add_argument(
        "--doc-types",
        default="default",
        help="comma-separated doc types to keep, 'default' "
        "(article,review,conference_paper) or 'all'",
    )
    analysis.add_argument(
        "--mode",
        choices=[m.value for m in FractionalMode],
        default="author",
        help="fractional credit split (ignored for whole counting)",
    )
    counted = argparse.ArgumentParser(add_help=False, parents=[analysis])
    counted.add_argument(
        "--method", choices=["whole", "fractional"], default="whole", help="counting method"
    )

    p = sub.add_parser(
        "ingest", parents=[inputs], help="validate a record stream and report problems"
    )
    p.add_argument(
        "--emit",
        choices=["report", "jsonl", "csv"],
        default="report",
        help="emit the validation report or re-serialize the accepted records",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "count", parents=[counted], help="per-country scores under one counting method"
    )
    p.add_argument("--group", help="restrict to one subject group before counting")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("collab", parents=[analysis], help="collaboration indicators per country")
    p.add_argument(
        "--basis",
        choices=["fc", "wc"],
        default="fc",
        help="denominator for reduction_pct: (wc-fc)/fc or (wc-fc)/wc",
    )
    p.set_defaults(func=_cmd_collab)

    p = sub.add_parser("rank", parents=[counted], help="ranked country table")
    p.add_argument("--group", help="restrict to one subject group before ranking")
    p.add_argument(
        "--include-unresolved",
        action="store_true",
        help="rank the ZZ bucket alongside real countries",
    )
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "correlate", parents=[counted], help="rank-correlation matrix across subject slices"
    )
    p.add_argument(
        "--slices",
        required=True,
        help="comma-separated subject groups ('all' for the unrestricted slice)",
    )
    p.add_argument(
        "--stat", choices=["spearman", "pearson"], default="spearman", help="correlation statistic"
    )
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser(
        "subjects", parents=[counted], help="per-group counts and ranks in one long table"
    )
    p.set_defaults(func=_cmd_subjects)

    p = sub.add_parser("replicate", parents=[output], help="recompute the bundled reference tables")
    p.add_argument(
        "--target",
        choices=list(_REPLICATE_TARGETS),
        default="all",
        help="which derived quantity to recompute",
    )
    p.set_defaults(func=_cmd_replicate)

    # a flag left out (--output aside) stays out of args: SynthParams holds the defaults
    p = sub.add_parser(
        "synth",
        help="generate a deterministic synthetic corpus (JSONL)",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--seed", type=int, required=True, help="PRNG seed")
    p.add_argument("--n-records", type=int, required=True, help="number of records")
    p.add_argument("--countries", help="CODE:WEIGHT pairs, comma-separated")
    p.add_argument("--authors-min", type=int)
    p.add_argument("--authors-max", type=int)
    p.add_argument("--collab-prob", type=float, help="international share")
    p.add_argument("--subject-pool", help="comma-separated subject codes to draw from")
    p.add_argument("--subjects-min", type=int)
    p.add_argument("--subjects-max", type=int)
    p.add_argument("--year", type=int)
    p.add_argument("--output", default=None, help="output path; default stdout")
    p.set_defaults(func=_cmd_synth)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args))
    except (UsageError, SchemaError, UnknownGroupError, UndefinedInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
