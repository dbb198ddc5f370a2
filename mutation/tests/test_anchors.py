"""Checks of the mutant list, run with ``python -m pytest -q mutation/tests``.

Outside tier-1: a refactor that moves or rewrites an anchored text fails
here, and the mutant list must follow it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAMES = [m.name for m in run.MUTANTS]


def test_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("mutant", run.MUTANTS, ids=NAMES)
def test_each_anchor_occurs_exactly_once(mutant):
    text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    assert mutant.edits
    for anchor, replacement in mutant.edits:
        assert anchor != replacement
        assert text.count(anchor) == 1, anchor
    assert run.apply(mutant, text) != text


@pytest.mark.parametrize("mutant", run.MUTANTS, ids=NAMES)
def test_mapped_test_files_exist(mutant):
    assert mutant.tests
    for path in mutant.tests:
        assert (ROOT / path).is_file(), path


def test_apply_refuses_an_anchor_that_is_not_unique():
    mutant = run.Mutant("twice", "x.py", (("a", "b"),), ("tests/test_io.py",))
    with pytest.raises(ValueError, match="occurs 2 times"):
        run.apply(mutant, "a a")
    with pytest.raises(ValueError, match="occurs 0 times"):
        run.apply(mutant, "c")


def test_only_a_normal_test_failure_kills():
    assert run.verdict(1) == "killed"
    assert run.verdict(0) == "survived"
    for code in (2, 3, 4, 5, None):
        assert run.verdict(code) == "error"
