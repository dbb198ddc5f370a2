"""bibrank benchmark: three closed-loop workloads with one client each.

Run from the repository root::

    python3 perfbench/run.py --workload count-jsonl --seed 1 --seconds 15 --trace 0

``--trace 0`` runs one workload untraced and prints its end-to-end metrics.
``--trace 1`` is the separate traced run: it replays all three workloads
in-process with spans around every bibrank layer and prints the per-layer
metrics, each taken from the workload that exercises that layer (see
README.md). Either way the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
for people. Every operation's output is checked, and a failed check counts
toward ``failed``. Two known ingest defects are probed on every run and
reported, outside the timings and the failure count.

This process stays small and never imports bibrank: set-up, library passes
and in-process replays run in ``worker.py`` child processes, and the CLI
runs as ``python3 -m bibrank.cli`` children with ``src/`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import workloads as wl
from workloads import ANALYSIS_LIB, COUNT_JSONL, ROUNDTRIP_CSV

WORKER = wl.HERE / "worker.py"
RUNS_DIR = wl.ROOT / ".perfbench_run"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
# a run must end within 180 s; a child still running at this point is killed
DEADLINE = perf_counter() + 170.0

CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = str(wl.SRC)
# a fixed string-hash seed keeps set and dict layouts, and so timings, the
# same from run to run; outputs do not depend on it
CHILD_ENV["PYTHONHASHSEED"] = "0"


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child(object):
    """Outcome of one child process: exit code, wall time, peak RSS, output."""

    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn(argv: list[str], work: Path) -> Child:
    """Run ``argv`` to completion and read its own ``ru_maxrss`` via wait4.

    wait4 gives each child's rusage separately, which is what
    ``getrusage(RUSAGE_CHILDREN)`` would accumulate over all of them.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=CHILD_ENV
        )
        timer = threading.Timer(max(DEADLINE - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall_s,
        usage.ru_maxrss,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def worker(task: str, work: Path, **params: Any) -> dict:
    """Run one worker.py task in ``work``; a failed task aborts the benchmark."""
    params["work"] = str(work)
    child = spawn([sys.executable, str(WORKER), task, json.dumps(params)], work)
    if child.code != 0:
        raise RuntimeError(f"worker task {task} exited {child.code}: {child.stderr[-2000:]}")
    return json.loads(child.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# known-defect probes: reported on every run, never timed or counted

PROBE_RECORD = {"year": 2016, "doc_type": "article", "subjects": ["PHYS"]}


def _probe_line(**fields: Any) -> str:
    obj = {"id": fields["id"], **PROBE_RECORD, "authors": [{"countries": ["US"]}]}
    obj.update(fields)
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False) + "\n"


def run_probes(work: Path) -> list[str]:
    """Probe the two open ingest defects; each line says whether it still fails.

    Either defect makes the CLI exit 1, which is why neither can sit inside
    a timed workload without turning every operation into a failure.
    """
    lines = []

    bom = work / "probe-bom.jsonl"
    bom.write_bytes(b"\xef\xbb\xbf" + (_probe_line(id="b1") + _probe_line(id="b2")).encode())
    child = spawn(wl.bibrank_argv("count", "--input", str(bom)), work)
    fixed = child.code == 0 and "2 records counted" in child.stderr.splitlines()
    lines.append(
        ("fixed" if fixed else "STILL FAILING")
        + f": a UTF-8 BOM costs the first record (count of 2 BOM-prefixed records"
        f" exited {child.code}; expected 0 and '2 records counted')"
    )

    src = work / "probe-u2028.jsonl"
    dst = work / "probe-u2028.out.jsonl"
    src.write_text(
        _probe_line(id="u\u2028id") + _probe_line(id="u2", subjects=["PH\u2028YS"]),
        encoding="utf-8",
    )
    child = spawn(
        wl.bibrank_argv("ingest", "--input", str(src), "--emit", "jsonl", "--output", str(dst)),
        work,
    )
    fixed = child.code == 0 and dst.exists() and dst.read_bytes() == src.read_bytes()
    lines.append(
        ("fixed" if fixed else "STILL FAILING")
        + f": U+2028 in an id or subject breaks the JSONL round trip (ingest --emit jsonl"
        f" exited {child.code}; expected 0 and identical bytes)"
    )
    return ["known defect, " + line + "; outside error_rate and timings" for line in lines]


# ---------------------------------------------------------------------------
# untimed helpers shared by both modes


def load_expected_count(work: Path) -> dict:
    return json.loads((work / "count.expected.json").read_text(encoding="utf-8"))


def clear_roundtrip(work: Path) -> None:
    for path in wl.roundtrip_files(work):
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# timed runs (--trace 0)


@dataclass
class Measured(object):
    """Raw measurements of one timed workload run."""

    records_per_op: int
    setup_s: list[float]
    rss_source: str
    op_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    maxrss_kb: int = 0


CLI_RSS = "ru_maxrss of each CLI child, from wait4"


def closed_loop(seconds: float, op: Callable[[], tuple[float, int, str | None]], m: Measured) -> None:
    """One client: each operation starts when the previous one has ended."""
    start = perf_counter()
    while not m.op_s or perf_counter() - start < seconds:
        op_s, maxrss_kb, error = op()
        m.op_s.append(op_s)
        m.maxrss_kb = max(m.maxrss_kb, maxrss_kb)
        if error:
            m.errors.append(error)
    m.wall_s = perf_counter() - start


def timed_count_jsonl(seed: int, records: int, seconds: float, work: Path) -> Measured:
    setup = worker("setup-count", work, seed=seed, records=records, repeats=SETUP_REPEATS)
    expected = load_expected_count(work)
    argv = wl.bibrank_argv(*wl.count_steps(Path(setup["data"]))[0])
    m = Measured(records, setup["setup_s"], CLI_RSS)

    def op() -> tuple[float, int, str | None]:
        child = spawn(argv, work)
        if child.code != 0:
            return child.wall_s, child.maxrss_kb, f"exit {child.code}: {child.stderr[-300:]}"
        return child.wall_s, child.maxrss_kb, wl.check_count(child.stdout, child.stderr, expected)

    closed_loop(seconds, op, m)
    return m


def timed_roundtrip_csv(seed: int, records: int, seconds: float, work: Path) -> Measured:
    expected = worker("setup-roundtrip", work, seed=seed, records=records, repeats=SETUP_REPEATS)
    steps = [wl.bibrank_argv(*s) for s in wl.roundtrip_steps(seed, records, work)]
    m = Measured(records, expected["setup_s"], CLI_RSS)

    def op() -> tuple[float, int, str | None]:
        clear_roundtrip(work)
        op_s, maxrss_kb, stderrs = 0.0, 0, []
        for step in steps:
            child = spawn(step, work)
            op_s += child.wall_s
            maxrss_kb = max(maxrss_kb, child.maxrss_kb)
            stderrs.append(child.stderr)
            if child.code != 0:
                return op_s, maxrss_kb, f"exit {child.code}: {child.stderr[-300:]}"
        return op_s, maxrss_kb, wl.check_roundtrip(work, stderrs, expected)

    closed_loop(seconds, op, m)
    return m


def timed_analysis_lib(seed: int, records: int, seconds: float, work: Path) -> Measured:
    out = worker(
        "analysis", work, seed=seed, records=records, repeats=SETUP_REPEATS,
        seconds=seconds, trace=False,
    )
    return Measured(
        records, out["setup_s"], "ru_maxrss of the worker process (getrusage RUSAGE_SELF)",
        out["op_s"], out["errors"], out["wall_s"], out["maxrss_kb"],
    )


TIMED = {
    COUNT_JSONL: timed_count_jsonl,
    ANALYSIS_LIB: timed_analysis_lib,
    ROUNDTRIP_CSV: timed_roundtrip_csv,
}


def end_to_end(workload: str, m: Measured) -> tuple[dict, list[str]]:
    n, failed = len(m.op_s), len(m.errors)
    metrics = {
        "records_per_s": (m.records_per_op * (n - failed) / m.wall_s, "records/s"),
        "op_s_p50": (statistics.median(m.op_s), "s"),
        "peak_rss_mb": (m.maxrss_kb / 1024, "MB"),
        "setup_s": (statistics.median(m.setup_s), "s"),
    }
    notes = {
        "records_per_s": f"{m.records_per_op} records x {n - failed} complete ops / {m.wall_s:.3f} s wall",
        "op_s_p50": f"median of {n} ops",
        "peak_rss_mb": f"max over {n} ops, {m.rss_source}",
        "setup_s": f"median of {len(m.setup_s)} set-ups",
    }
    lines = [f"workload {workload}: {n} ops, closed loop, one client"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<14} {value:>14.4f} {unit:<10} ({notes[name]})")
    lines.append(f"  {'error_rate':<14} {failed / n:>14.4f} {'ratio':<10} ({failed} of {n} ops failed)")
    lines.append("  op times (s): " + " ".join(f"{t:.4f}" for t in m.op_s))
    lines.append("  set-up times (s): " + " ".join(f"{t:.4f}" for t in m.setup_s))
    lines += [f"  failed op: {e}" for e in m.errors[:5]]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def _self(name: str) -> Callable[[dict, dict], float]:
    return lambda t, facts: t["self_s"].get(name, 0.0)


def _count(name: str, scale: float = 1.0) -> Callable[[dict, dict], float]:
    return lambda t, facts: t["counts"].get(name, 0) * scale


def _per(get: Callable[[dict, dict], float], fact: str, scale: float = 1.0) -> Callable[[dict, dict], float]:
    return lambda t, facts: get(t, facts) / facts[fact] * scale


# name, unit, the workload it is taken from, and how to read it off one
# traced operation; ``.s`` metrics are self times per operation
PER_LAYER: tuple[tuple[str, str, str, Callable[[dict, dict], float]], ...] = (
    ("cli.self_s", "s", COUNT_JSONL, _self("cli.run")),
    ("ingest.parse_jsonl.s", "s", COUNT_JSONL, _self("ingest.parse_jsonl")),
    ("ingest.parse_jsonl.us_per_record", "us", COUNT_JSONL, _per(_self("ingest.parse_jsonl"), "records", 1e6)),
    ("ingest.parse_csv.s", "s", ROUNDTRIP_CSV, _self("ingest.parse_csv")),
    ("ingest.to_jsonl.s", "s", ROUNDTRIP_CSV, _self("ingest.to_jsonl")),
    ("ingest.to_csv.s", "s", ROUNDTRIP_CSV, _self("ingest.to_csv")),
    ("ingest.apply_filter.s", "s", COUNT_JSONL, _self("ingest.apply_filter")),
    ("ingest.records_accepted", "count", COUNT_JSONL, _count("ingest.records_accepted")),
    ("ingest.records_rejected", "count", COUNT_JSONL, _count("ingest.records_rejected")),
    ("ingest.warnings", "count", COUNT_JSONL, _count("ingest.warnings")),
    ("ingest.parse.rss_delta_mb", "MB", COUNT_JSONL, _count("ingest.parse.rss_delta_bytes", 1 / 2**20)),
    ("model.normalize_country.calls_per_country", "calls/country", COUNT_JSONL,
     _per(_count("model.normalize_country"), "country_strings")),
    ("model.countries_of.calls_per_record", "calls/record", ANALYSIS_LIB,
     _per(_count("model.countries_of"), "records")),
    ("model.Corpus.builds", "count", ANALYSIS_LIB, _count("model.Corpus")),
    ("counting.whole_count.s", "s", ANALYSIS_LIB, _self("counting.whole_count")),
    ("counting.fractional_count.s", "s", ANALYSIS_LIB, _self("counting.fractional_count")),
    ("counting.subject_group_count.s", "s", ANALYSIS_LIB, _self("counting.subject_group_count")),
    ("counting.slice_corpus.s", "s", ANALYSIS_LIB, _self("counting.slice_corpus")),
    ("collaboration.icp_count.s", "s", ANALYSIS_LIB, _self("collaboration.icp_count")),
    ("collaboration.country_metrics.s", "s", ANALYSIS_LIB, _self("collaboration.country_metrics")),
    ("rankstats.assign_ranks.s", "s", ANALYSIS_LIB, _self("rankstats.assign_ranks")),
    ("rankstats.srcc_matrix.s", "s", ANALYSIS_LIB, _self("rankstats.srcc_matrix")),
    ("tables.write_table.s", "s", ANALYSIS_LIB, _self("tables.write_table")),
    ("tables.write_table.bytes", "bytes", ANALYSIS_LIB, _count("tables.write_table.bytes")),
    ("synth.generate.s", "s", ROUNDTRIP_CSV, _self("synth.generate")),
    ("synth.generate.us_per_record", "us", ROUNDTRIP_CSV, _per(_self("synth.generate"), "records", 1e6)),
    ("replication.load_fixtures.s", "s", ANALYSIS_LIB, _self("replication.load_fixtures")),
    ("replication.replicate.s", "s", ANALYSIS_LIB, _self("replication.replicate")),
)

LAYERS = ("cli", "ingest", "model", "counting", "collaboration", "rankstats", "tables", "synth", "replication")


@dataclass
class Replay(object):
    """Untraced and traced operations of one workload in the traced run."""

    facts: dict
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.untraced_s) + len(self.traced_s)


def replay_cli(steps: list[list[str]], budget: float, work: Path, check: Callable[[dict], str | None], r: Replay) -> None:
    """Alternate untraced and traced in-process replays, each in a fresh worker."""
    start = perf_counter()
    while not r.traced_s or perf_counter() - start < budget:
        for trace in (False, True):
            child = spawn([sys.executable, str(WORKER), "cli-op", json.dumps({"steps": steps, "trace": trace})], work)
            if child.code != 0:
                raise RuntimeError(f"cli-op worker exited {child.code}: {child.stderr[-2000:]}")
            out = json.loads(child.stdout.splitlines()[-1])
            (r.traced_s if trace else r.untraced_s).append(out["op_s"])
            if trace:
                r.traces.append(out["trace"])
            if any(code != 0 for code in out["codes"]) or len(out["codes"]) != len(steps):
                r.errors.append(f"exit codes {out['codes']}: {out['stderr'][-1][-300:]}")
            else:
                error = check(out)
                if error:
                    r.errors.append(error)


def traced_run(seed: int, records: dict[str, int], seconds: float, work: Path) -> tuple[dict, list[str], int, int]:
    budget = seconds / len(wl.WORKLOADS)
    replays: dict[str, Replay] = {}

    n = records[COUNT_JSONL]
    setup = worker("setup-count", work, seed=seed, records=n, repeats=1)
    expected = load_expected_count(work)
    r = replays[COUNT_JSONL] = Replay({"records": n, "country_strings": expected["country_strings"]})
    replay_cli(
        wl.count_steps(Path(setup["data"])), budget, work,
        lambda out: wl.check_count(out["stdout"][0], out["stderr"][0], expected), r,
    )

    n = records[ANALYSIS_LIB]
    out = worker(
        "analysis", work, seed=seed, records=n, repeats=1, seconds=budget, trace=True
    )
    r = replays[ANALYSIS_LIB] = Replay({"records": n})
    r.untraced_s, r.traced_s, r.traces, r.errors = out["op_s"], out["traced_s"], out["traces"], out["errors"]

    n = records[ROUNDTRIP_CSV]
    expected_rt = worker("setup-roundtrip", work, seed=seed, records=n, repeats=1)
    r = replays[ROUNDTRIP_CSV] = Replay({"records": n})

    def check_rt(out: dict) -> str | None:
        error = wl.check_roundtrip(work, out["stderr"], expected_rt)
        clear_roundtrip(work)
        return error

    replay_cli(wl.roundtrip_steps(seed, n, work), budget, work, check_rt, r)

    startup = [spawn([sys.executable, "-c", "import bibrank.cli"], work) for _ in range(STARTUP_REPEATS)]
    if any(c.code != 0 for c in startup):
        raise RuntimeError(f"importing bibrank.cli failed: {startup[0].stderr[-2000:]}")

    metrics: dict[str, dict] = {}
    lines = ["traced run: per-layer metrics (self time per operation unless the unit says otherwise)"]
    startup_s = statistics.median(c.wall_s for c in startup)
    metrics["cli.startup_s"] = {"value": startup_s, "unit": "s"}
    lines.append(f"  {'cli.startup_s':<42} {startup_s:>14.6f} {'s':<13} child that only imports bibrank.cli, median of {len(startup)}")
    for name, unit, workload, get in PER_LAYER:
        r = replays[workload]
        value = statistics.median(get(t, r.facts) for t in r.traces)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<42} {value:>14.6f} {unit:<13} {workload}, median of {len(r.traces)} traced ops")
    overhead = {w: statistics.median(r.traced_s) - statistics.median(r.untraced_s) for w, r in replays.items()}
    metrics["trace.overhead_s"] = {"value": sum(overhead.values()), "unit": "s"}
    lines.append(
        f"  {'trace.overhead_s':<42} {sum(overhead.values()):>14.6f} {'s':<13} traced minus untraced op median, summed: "
        + ", ".join(f"{w} {v:+.4f}" for w, v in overhead.items())
    )

    for workload, r in replays.items():
        op_s = statistics.median(r.traced_s)
        shares = {layer: 0.0 for layer in LAYERS}
        for name in {k for t in r.traces for k in t["self_s"]}:
            layer = name.split(".")[0]
            shares[layer] += statistics.median(t["self_s"].get(name, 0.0) for t in r.traces)
        spans = sum(shares.values())
        lines.append(
            f"  {workload}: traced op {op_s:.4f} s (median of {len(r.traced_s)}; untraced "
            f"{statistics.median(r.untraced_s):.4f} s, median of {len(r.untraced_s)}); self-time shares: "
            + ", ".join(f"{k} {v / op_s:.1%}" for k, v in shares.items() if v)
            + f", outside any span {(op_s - spans) / op_s:.1%}"
        )
        lines += [f"  failed op ({workload}): {e}" for e in r.errors[:5]]

    attempted = sum(r.attempted for r in replays.values())
    failed = sum(len(r.errors) for r in replays.values())
    return metrics, lines, attempted, failed


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--records", type=int, help="override every workload's record count (for smoke tests)"
    )
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that kill and reap the
    # running child and remove the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (wl.SRC / "bibrank" / "cli.py").is_file() or not wl.ORACLES.is_file():
        print(f"error: no bibrank sources under {wl.ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    records = {w: args.records or n for w, n in wl.DEFAULT_RECORDS.items()}

    work = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        lines = run_probes(work)
        if args.trace:
            metrics, more, attempted, failed = traced_run(args.seed, records, args.seconds, work)
        else:
            m = TIMED[args.workload](args.seed, records[args.workload], args.seconds, work)
            metrics, more = end_to_end(args.workload, m)
            attempted, failed = len(m.op_s), len(m.errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass

    print("\n".join(lines + more))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
