"""Mutation check: break one invariant at a time and see a tier-1 test fail.

Run from anywhere with ``python mutation/run.py``. Each mutant below
replaces exact texts (anchors) in one file under ``src/``; every anchor
must occur exactly once there, which ``mutation/tests`` checks. For each
mutant the script copies ``src/`` and ``tests/`` with ``pyproject.toml`` to
a temporary directory, applies the edits to the copy, and runs the
mutant's tier-1 test files there with pytest. A conftest in the copy's
root turns off hypothesis's shrink and explain phases: a kill needs one
failing example, not the smallest, and shrinking one took up to five
minutes.

A mutant is killed only when pytest exits 1: tests ran and some failed.
Any other exit (3 for an internal error, 2 for an interruption, 4 or 5 for
a usage or collection problem) or a timeout is an error, not a kill, since
a crashed session shows nothing about the mutant. An equivalent mutant
changes no observable behaviour; it is still run, and its reason is kept
with the result. The script writes ``MUTANTS.json`` at the repository root
and exits 1 when a mutant that is not equivalent was not killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("mutation", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("mutation")
"""


@dataclass(frozen=True)
class Mutant(object):
    name: str
    file: str  # relative to src/
    edits: tuple[tuple[str, str], ...]  # (anchor, replacement) pairs
    tests: tuple[str, ...]  # tier-1 test files, relative to the repository root
    equivalent: str | None = None  # why no test can tell, for an equivalent mutant


INGEST = "bibrank/ingest.py"
IO_TESTS = ("tests/test_io.py",)
COUNTING_TESTS = ("tests/test_counting.py",)
SYNTH = "bibrank/synth.py"
SYNTH_TESTS = ("tests/test_synth.py",)

MUTANTS = (
    Mutant(
        "ingest: store the fields of a rejected row",
        INGEST,
        (
            (
                "    if accepted is None:\n        return True\n",
                "    if accepted is None:\n"
                '        if obj is not None and "id" not in obj:\n'
                "            batch.fields[fields_piece] = fields\n"
                "        return True\n",
            ),
        ),
        IO_TESTS,
        equivalent="a fields piece's _Fields hold its raw year and its subject set or None, "
        "which _take_record checks again on every hit, so a rejected row's fields "
        "give a later record the outcome their decode would",
    ),
    Mutant(
        "ingest: memoize a missing year as 0",
        INGEST,
        (
            (
                "        batch.fields[fields_piece] = fields\n",
                "        batch.fields[fields_piece] = (fields[0] or 0, *fields[1:])\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: skip _take_id on an authors hit",
        INGEST,
        (
            (
                "    rec_id = _take_id(raw_id, batch)\n",
                "    rec_id = raw_id if taken is not None else _take_id(raw_id, batch)\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: CSV checks a missing year after the authors",
        INGEST,
        (
            (
                "    if year_first and year.__class__ is not int:\n",
                "    if year_first and year is not None and year.__class__ is not int:\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: accept a bool year",
        INGEST,
        (
            (
                "    if year.__class__ is not int and (year := _take_year(year, rec_id, batch)) is None:\n",
                "    if not isinstance(year, int) and (year := _take_year(year, rec_id, batch)) is None:\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        'ingest: memoize fields that hold "id"',
        INGEST,
        (('    if obj is not None and "id" not in obj:\n', "    if obj is not None:\n"),),
        IO_TESTS,
    ),
    Mutant(
        "ingest: let _decode_fields accept {}",
        INGEST,
        (
            (
                "    return obj if obj and end == len(obj_text) else None\n",
                "    return obj if end == len(obj_text) else None\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: keep blank countries in the CSV author tokenizer",
        INGEST,
        (
            (
                '[{"countries": [c for c in token.split("+") if c.strip()]} for token in tokens]',
                '[{"countries": token.split("+")} for token in tokens]',
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: leave subjects unstripped",
        INGEST,
        (
            (
                "    return frozenset(s.strip() for s in raw if s.strip())\n",
                "    return frozenset(s for s in raw if s.strip())\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: key CSV fields on two of the three cells",
        INGEST,
        (
            (
                "        fields, taken = batch.fields.get(cells), batch.author_texts.get(authors)\n",
                "        fields, taken = batch.fields.get(cells[:2]), batch.author_texts.get(authors)\n",
            ),
            (
                "        batch.fields[fields_piece] = fields\n",
                "        batch.fields[fields_piece[:2] if year_first else fields_piece] = fields\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: CSV checks the authors before the year",
        INGEST,
        (("_decode_csv_fields, _decode_csv_authors, True", "_decode_csv_fields, _decode_csv_authors, False"),),
        IO_TESTS,
    ),
    Mutant(
        "ingest: drop the duplicate-id reject",
        INGEST,
        (("    if rec_id in batch.by_id:\n", "    if False:\n"),),
        IO_TESTS,
    ),
    Mutant(
        # the stream stops at the same compare, so the stream's own tests run too
        "ingest: the order check accepts an equal id",
        INGEST,
        (("        if rec_id > batch.last_id:\n", "        if rec_id >= batch.last_id:\n"),),
        IO_TESTS + COUNTING_TESTS + ("tests/test_cli.py",),
    ),
    Mutant(
        "ingest: the stream goes on past an id that does not increase",
        INGEST,
        (("        if batch.sink is not None:\n", "        if False:\n"),),
        COUNTING_TESTS + ("tests/test_cli.py",),
    ),
    Mutant(
        "ingest: the batch never switches to the dict",
        INGEST,
        (
            (
                "        batch.by_id = {record.id: record for record in batch.records}\n"
                "        batch.records.clear()\n",
                "        return rec_id\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: the known-line path accepts an equal id",
        INGEST,
        (
            (
                "                if (rec_id := compact[0].strip()) > batch.last_id:\n",
                "                if (rec_id := compact[0].strip()) >= batch.last_id:\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: the known-line path drops the pieces' warnings",
        INGEST,
        (
            (
                "                    batch.accept(rec_id, fields[0], fields, taken)\n",
                "                    batch.accept(rec_id, fields[0], (*fields[:3], ()), (taken[0], ()))\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: the known-line path takes a memoized missing year",
        INGEST,
        (("fields[0].__class__ is int and ", ""),),
        IO_TESTS,
    ),
    Mutant(
        "ingest: the known-line path accepts a padded id",
        INGEST,
        (
            (
                "                    batch.accept(rec_id, fields[0], fields, taken)\n",
                "                    batch.accept(compact[0], fields[0], fields, taken)\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: finish keeps the last partial list from the sink",
        INGEST,
        (("        if self.sink is not None:  # the last partial list; the corpus is left empty\n", "        if False:\n"),),
        COUNTING_TESTS + ("tests/test_cli.py",),
    ),
    Mutant(
        "ingest: name a pre-id reject by the previous number",
        INGEST,
        (
            (
                '        ref = f"{self.unit} {self.number}" if rec_id is None else rec_id\n',
                '        ref = f"{self.unit} {self.number - 1}" if rec_id is None else rec_id\n',
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: name a duplicate-id reject by position",
        INGEST,
        (
            (
                '        batch.reject(rec_id, "duplicate record id; first occurrence kept")\n',
                '        batch.reject(None, "duplicate record id; first occurrence kept")\n',
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: apply_filter reads --years as a range",
        INGEST,
        (
            (
                "(year_set is None or c[0] in year_set)",
                "(year_set is None or min(year_set) <= c[0] <= max(year_set))",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: drop to_csv's bare-\\r quoting",
        INGEST,
        (('        if "\\r" in record.id or "\\r" in subjects or "\\r" in authors:\n', "        if False:\n"),),
        IO_TESTS,
    ),
    Mutant(
        "ingest: drop to_csv's first pass",
        INGEST,
        (
            (
                "        subject_cells[record.subjects]\n"
                "        for author in record.authors:\n"
                "            author_cells[author.countries]\n",
                "        pass\n",
            ),
        ),
        IO_TESTS + ("tests/test_cli.py",),
    ),
    Mutant(
        "ingest: lose the last partial chunk",
        INGEST,
        (
            (
                '    chunks: Iterable[str] = iter(lambda: "".join(islice(lines, _CHUNK_LINES)), "")\n',
                '    chunks: Iterable[str] = iter(\n'
                '        lambda: "".join(part) if len(part := list(islice(lines, _CHUNK_LINES))) == _CHUNK_LINES else "",\n'
                '        "",\n'
                '    )\n',
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: skip the surrogate escape",
        INGEST,
        (
            (
                "    return _emit(_jsonl_lines(corpus), out, _escape_surrogates)\n",
                "    return _emit(_jsonl_lines(corpus), out)\n",
            ),
        ),
        IO_TESTS,
    ),
    Mutant(
        "ingest: quote a raw value whole in a message",
        INGEST,
        (("    if len(text) <= _QUOTE_CHARS:\n", "    if True:\n"),),
        IO_TESTS,
    ),
    Mutant(
        "synth: collect the records before writing",
        SYNTH,
        (
            (
                "    return _draw(params, _Draws(next_chunk), countries, probs, _cdf(probs))\n",
                "    return iter(tuple(_draw(params, _Draws(next_chunk), countries, probs, _cdf(probs))))\n",
            ),
        ),
        ("tests/test_cli.py",),
    ),
    Mutant(
        "synth: drop the up-front refusal",
        SYNTH,
        (("        if params.collab_prob > 0 and np.count_nonzero(probs) < 2:\n", "        if False:\n"),),
        ("tests/test_cli.py",),
    ),
    Mutant(
        "synth: the constructor's checks not run again",
        SYNTH,
        (("    params = replace(params)  #", "    params = params  #"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: weights not checked by their sum",
        SYNTH,
        (("        if not abs(sum(p) - 1.0) <= 2.0**-26:\n", "        if False:\n"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: a negative seed is not handed to SeedSequence",
        SYNTH,
        (("    if (seed := operator.index(seed)) < 0:\n", "    if (seed := operator.index(seed)) < 0 and False:\n"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: PCG64's high half without the low half's carry",
        SYNTH,
        ((" + c_hi + (lo < c_lo).astype(np.uint64)\n", " + c_hi\n"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: XSL-RR's left shift without & 63",
        SYNTH,
        (("(x << (-rot & n63))", "(x << -rot)"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: SeedSequence skips the entropy words past its pool",
        SYNTH,
        (("product(range(4, len(words)), range(4))", "product(range(4, 4), range(4))"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: the next chunk starts from the wrong lane",
        SYNTH,
        (("        state = int(hi[-1]) << 64 | int(lo[-1])\n", "        state = int(hi[-2]) << 64 | int(lo[-2])\n"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: a fresh word for every 32-bit draw",
        SYNTH,
        (("        half = self._half\n", "        half = None\n"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: Lemire without its rejection loop",
        SYNTH,
        (("            while m & 0xFFFFFFFF < threshold:\n", "            while False:\n"),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: Floyd keeps the colliding value instead of j",
        SYNTH,
        (("            if pick in taken:\n                pick = j\n", ""),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: no shuffle after Floyd's sample",
        SYNTH,
        (("        self._shuffle(picks, 1)\n", ""),),
        SYNTH_TESTS,
    ),
    Mutant(
        "synth: a word drawn for a range of one value",
        SYNTH,
        (("        if not high:\n            return 0\n", ""),),
        SYNTH_TESTS,
    ),
    Mutant(
        "counting: drop the lcm scale",
        "bibrank/counting.py",
        (("    scale = lcm(*filter(None, map(len, distinct)))\n", "    scale = 1\n"),),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: drop ZZ's whole credit",
        "bibrank/counting.py",
        (("    if unresolved:\n        whole[UNRESOLVED] = 1.0\n", ""),),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: drop the id sort in _sweep",
        "bibrank/counting.py",
        (("    records = corpus._by_id  #", "    records = corpus.records  #"),),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: the count path credits 1 per kind, not per record",
        "bibrank/counting.py",
        (
            (
                "records_of = [Counter(map(self.union_of.__getitem__, seq)) for seq in self.kinds]",
                "records_of = [Counter(map(self.union_of.__getitem__, set(seq))) for seq in self.kinds]",
            ),
        ),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: fractional-country goes through the count path",
        "bibrank/counting.py",
        (
            (
                "        unit = m is CountMethod.WHOLE or m == _ICP\n",
                "        unit = m is not CountMethod.FRACTIONAL_AUTHOR\n",
            ),
        ),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: a record's kind goes to every group's list",
        "bibrank/counting.py",
        (("                if codes is None or not codes.isdisjoint(subjects)\n", "                if True\n"),),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: the walk reads the doc type's slot as the subjects",
        "bibrank/counting.py",
        (("        for _, _, subjects, authors in records:\n", "        for _, subjects, _, authors in records:\n"),),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: the walk does not hold its kinds' authors tuples",
        "bibrank/counting.py",
        (("                self.authors.append(authors)\n", ""),),
        COUNTING_TESTS,
    ),
    Mutant(
        "counting: one country makes a record international",
        "bibrank/counting.py",
        (("    return len(countries) >= 2\n", "    return len(countries) >= 1\n"),),
        COUNTING_TESTS + ("tests/test_collaboration.py",),
    ),
    Mutant(
        "counting: fractional_count accepts WHOLE",
        "bibrank/counting.py",
        (("[_fractional(method)], [ALL_FIELDS]", "[method], [ALL_FIELDS]"),),
        COUNTING_TESTS,
    ),
    Mutant(
        "collaboration: country_metrics accepts WHOLE",
        "bibrank/collaboration.py",
        (("    methods = [CountMethod.WHOLE, _fractional(method), _ICP]\n", "    methods = [CountMethod.WHOLE, method, _ICP]\n"),),
        ("tests/test_collaboration.py",),
    ),
    Mutant(
        "collaboration: drop the fc <= wc check in reduction_pct",
        "bibrank/collaboration.py",
        (("    if fc > wc:\n", "    if False:\n"),),
        ("tests/test_collaboration.py",),
    ),
    Mutant(
        "collaboration: swap the ReductionBasis denominators",
        "bibrank/collaboration.py",
        (
            (
                "        return 100.0 * (wc - fc) / fc\n    return 100.0 * (wc - fc) / wc\n",
                "        return 100.0 * (wc - fc) / wc\n    return 100.0 * (wc - fc) / fc\n",
            ),
        ),
        ("tests/test_collaboration.py",),
    ),
    Mutant(
        "collaboration: icp_pct refuses icp equal to wc",
        "bibrank/collaboration.py",
        (("    if icp < 0 or icp > wc:\n", "    if icp < 0 or icp >= wc:\n"),),
        ("tests/test_collaboration.py",),
    ),
    Mutant(
        "model: drop Corpus's duplicate-id check",
        "bibrank/model.py",
        (("                    if record.id in seen:\n", "                    if False:\n"),),
        ("tests/test_model.py",),
    ),
    Mutant(
        "model: the neighbour compare skips one pair",
        "bibrank/model.py",
        (("    next(after, None)\n", "    next(after, None)\n    next(after, None)\n"),),
        ("tests/test_model.py",),
    ),
    Mutant(
        "model: an unsorted corpus keeps its input order as its id order",
        "bibrank/model.py",
        (
            (
                '            by_id = tuple(sorted(records, key=attrgetter("id")))\n',
                "            by_id = records\n",
            ),
        ),
        COUNTING_TESTS,
    ),
    Mutant(
        "model: a subset that drops records is its parent",
        "bibrank/model.py",
        (("        if len(kept) == len(self.records):\n", "        if len(kept) <= len(self.records):\n"),),
        COUNTING_TESTS,
    ),
    Mutant(
        "cli: count only what streamed before the first id out of order",
        "bibrank/cli.py",
        (
            (
                "    if corpus is None:\n        walk = _Walk(scheme, methods, groups)\n        corpus, report = _load_corpus(args, scheme)\n",
                "    if corpus is None:\n        return walk.credit()\n",
            ),
        ),
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli: open --input as utf-8, not utf-8-sig",
        "bibrank/cli.py",
        (('            encoding="utf-8-sig",\n', '            encoding="utf-8",\n'),),
        ("tests/test_cli.py",),
    ),
    Mutant(
        "rankstats: dense ranks for competition ranks",
        "bibrank/rankstats.py",
        (("            comp_rank = i + 1\n", "            comp_rank += 1\n"),),
        ("tests/test_rankstats.py",),
    ),
    Mutant(
        "tables: round half to even",
        "bibrank/tables.py",
        (("rounding=ROUND_HALF_UP)", 'rounding="ROUND_HALF_EVEN")'),),
        ("tests/test_io.py",),
    ),
    Mutant(
        "replication: the standard denominator in published_srcc_variant",
        "bibrank/replication.py",
        (("(n * n * (n - 1))", "(n * (n * n - 1))"),),
        ("tests/test_replication.py",),
    ),
    Mutant(
        "replication: _read_asset skips its checksum compare",
        "bibrank/replication.py",
        (("    if digest != expected:\n", "    if False:\n"),),
        ("tests/test_replication.py",),
    ),
)


def apply(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's edits; ValueError unless each anchor occurs once."""
    for anchor, replacement in mutant.edits:
        found = text.count(anchor)
        if found != 1:
            raise ValueError(f"{mutant.name}: anchor occurs {found} times in {mutant.file}: {anchor!r}")
        text = text.replace(anchor, replacement)
    return text


def verdict(exit_code: int | None) -> str:
    """killed on exit 1 only; a timeout (None) or any other exit is an error."""
    if exit_code == 1:
        return "killed"
    if exit_code == 0:
        return "survived"
    return "error"


def run_mutant(mutant: Mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="bibrank-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / "conftest.py").write_text(CONFTEST, encoding="utf-8")
        target = work / "src" / mutant.file
        target.write_text(apply(mutant, target.read_text(encoding="utf-8")), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            exit_code, summary, failed = None, f"timed out after {TIMEOUT_S} s", []
        else:
            exit_code = proc.returncode
            lines = proc.stdout.strip().splitlines()
            summary = lines[-1] if lines else proc.stderr.strip()[-200:]
            failed = [line.split(" - ")[0][len("FAILED ") :] for line in lines if line.startswith("FAILED ")]
    status = verdict(exit_code)
    result = {
        "name": mutant.name,
        "file": f"src/{mutant.file}",
        "tests": list(mutant.tests),
        "status": status,
        "exit_code": exit_code,
        "pytest": summary,
        "failed": failed,
        "seconds": round(time.perf_counter() - start, 1),
    }
    if mutant.equivalent:
        result["equivalent"] = mutant.equivalent
    return result


def main() -> int:
    results = []
    for mutant in MUTANTS:
        result = run_mutant(mutant)
        print(f"{result['status']:8s} {result['seconds']:6.1f}s  {mutant.name}  ({result['pytest']})", flush=True)
        results.append(result)
    missed = [r for r in results if r["status"] != "killed" and "equivalent" not in r]
    report = {
        "command": "python mutation/run.py",
        "python": sys.version.split()[0],
        "killed": sum(r["status"] == "killed" for r in results),
        "mutants": len(results),
        "not_killed_and_not_equivalent": [r["name"] for r in missed],
        "results": results,
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
