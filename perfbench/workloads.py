"""Workload definitions shared by ``run.py`` and its worker processes.

Standard library only, so ``run.py`` can import it without importing
bibrank. Every input is derived from the run's ``--seed``; the program
under test only ever sees the generated files and corpora.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"

COUNT_JSONL = "count-jsonl"
ANALYSIS_LIB = "analysis-lib"
ROUNDTRIP_CSV = "roundtrip-csv"
WORKLOADS = (COUNT_JSONL, ANALYSIS_LIB, ROUNDTRIP_CSV)

# roundtrip-csv runs three CLI children per operation; 20k records keep an
# operation near 5 s, so a 20 s run still takes the median of 4-5 operations
DEFAULT_RECORDS = {COUNT_JSONL: 50_000, ANALYSIS_LIB: 20_000, ROUNDTRIP_CSV: 20_000}

# count-jsonl: the default synth shape (10 countries, 1-6 authors, 25%
# international) with a few percent of records made dirty but valid, so
# the alias, warning and doc-type filter paths all run.
DIRTY_NAMES_P = 0.02
DIRTY_UNRESOLVED_P = 0.02
DIRTY_DOC_TYPE_P = 0.01
COUNTRY_NAMES = {
    "US": "United States",
    "CN": "china",
    "GB": "United  Kingdom",
    "DE": "Germany",
    "IN": "India",
    "JP": "Japan",
    "FR": "France",
    "BR": "Brazil",
    "NL": "The Netherlands",
    "CH": "switzerland",
}
UNKNOWN_DOC_TYPES = ("letter", "editorial", "erratum")

# analysis-lib and roundtrip-csv: wide records, so the fractional-author
# lcm arithmetic has work to do and rank vectors have real length.
WIDE_AUTHORS_MAX = 12
WIDE_COLLAB_PROB = 0.5

ANALYSIS_COUNTRIES = (
    "US", "CN", "GB", "DE", "IN", "JP", "FR", "IT", "CA", "AU",
    "ES", "KR", "BR", "NL", "RU", "IR", "CH", "SE", "PL", "TR",
    "TW", "BE", "DK", "AT", "NO", "IL", "FI", "MX", "PT", "SG",
    "CZ", "ZA", "GR", "NZ", "IE", "AR", "EG", "MY", "TH", "HU",
    "CL", "SA", "PK", "RO", "CO", "NG", "UA", "VN", "ID", "HK",
    "SK", "HR", "SI", "RS", "LT", "EE", "LU", "IS", "PE", "KE",
)
ANALYSIS_ZIPF_EXPONENT = 1.1
ANALYSIS_SUBJECTS = (
    "AGR", "BIO", "CHEM", "COMP", "EART", "ECON", "ENER", "ENG",
    "ENV", "MATH", "MED", "NEUR", "PHAR", "PHYS", "PSY", "SOC",
)
ANALYSIS_SUBJECTS_MAX = 3
ANALYSIS_GROUPS = {
    "Life": ("BIO", "AGR", "NEUR"),
    "Health": ("MED", "PHAR", "NEUR", "PSY"),
    "Physical": ("PHYS", "CHEM", "MATH", "EART"),
    "Engineering": ("ENG", "COMP", "ENER"),
    "Social": ("SOC", "ECON", "PSY"),
    "Environment": ("ENV", "EART", "AGR"),
    "Computing": ("COMP", "MATH"),
    "Chemistry": ("CHEM", "PHAR", "ENER"),
}


def analysis_weights() -> dict[str, float]:
    """Zipf-like publication weights over the 60 analysis countries."""
    return {
        code: 1000.0 / (rank + 1) ** ANALYSIS_ZIPF_EXPONENT
        for rank, code in enumerate(ANALYSIS_COUNTRIES)
    }


def bibrank_argv(*args: str) -> list[str]:
    """Command line that runs the bibrank CLI from this checkout's sources."""
    return [sys.executable, "-m", "bibrank.cli", *args]


def count_steps(data: Path) -> list[list[str]]:
    return [["count", "--method", "fractional", "--input", str(data)]]


def roundtrip_steps(seed: int, records: int, work: Path) -> list[list[str]]:
    synth_out, csv_out, final_out = roundtrip_files(work)
    return [
        [
            "synth", "--seed", str(seed), "--n-records", str(records),
            "--authors-max", str(WIDE_AUTHORS_MAX),
            "--collab-prob", str(WIDE_COLLAB_PROB),
            "--output", str(synth_out),
        ],
        ["ingest", "--input", str(synth_out), "--emit", "csv", "--output", str(csv_out)],
        ["ingest", "--input", str(csv_out), "--emit", "jsonl", "--output", str(final_out)],
    ]


def roundtrip_files(work: Path) -> tuple[Path, Path, Path]:
    return work / "synth.jsonl", work / "roundtrip.csv", work / "roundtrip.jsonl"


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else the reason


def check_count(stdout: str, stderr: str, expected: dict) -> str | None:
    """Compare a ``count --method fractional`` table with the exact oracle.

    Scores print with two decimals (half-up), so each printed score must lie
    within 0.005 of the exact rational score, plus a float-sum allowance.
    """
    lines = stdout.splitlines()
    if not lines or lines[0] != "country,fractional_author":
        return f"unexpected header {lines[:1]!r}"
    exact = {c: Fraction(v) for c, v in expected["scores"].items()}
    printed: dict[str, Fraction] = {}
    for line in lines[1:]:
        country, _, value = line.partition(",")
        try:
            printed[country] = Fraction(value)
        except ValueError:
            return f"unparseable row {line!r}"
    if sorted(printed) != sorted(exact):
        return f"countries {sorted(printed)} != oracle {sorted(exact)}"
    slack = Fraction(5, 1000) + Fraction(1, 10**6)
    for country, value in printed.items():
        if abs(value - exact[country]) > slack:
            return f"{country}: printed {value} vs oracle {float(exact[country])}"
    counted = expected["counted"]
    if abs(sum(printed.values()) - counted) > slack * len(printed):
        return f"scores sum to {float(sum(printed.values()))}, not {counted}"
    if f"{counted} records counted" not in stderr.splitlines():
        return f"stderr lacks '{counted} records counted': {stderr[-200:]!r}"
    return None


def check_roundtrip(work: Path, stderrs: list[str], expected: dict) -> str | None:
    """The CSV round trip must give back the synth output byte for byte."""
    synth_out, _, final_out = roundtrip_files(work)
    first = synth_out.read_bytes()
    if hashlib.sha256(first).hexdigest() != expected["sha256"]:
        return "synth output differs from the library's generate() + to_jsonl()"
    if final_out.read_bytes() != first:
        return "JSONL -> CSV -> JSONL output is not byte-identical to the input"
    records = expected["records"]
    want = [
        f"generated {records} records (seed {expected['seed']})",
        f"accepted {records}, rejected 0, 0 error(s), 0 warning(s)",
        f"accepted {records}, rejected 0, 0 error(s), 0 warning(s)",
    ]
    for step, (line, err) in enumerate(zip(want, stderrs), start=1):
        if line not in err.splitlines():
            return f"step {step} stderr lacks {line!r}: {err[-200:]!r}"
    return None
