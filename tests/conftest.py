from __future__ import annotations

import pytest

from bibrank.model import (
    AuthorRef,
    Corpus,
    DocType,
    PublicationRecord,
    SubjectScheme,
)


def rec(
    id: str,
    *author_countries: tuple[str, ...] | list[str],
    year: int = 2016,
    doc_type: DocType = DocType.ARTICLE,
    subjects: tuple[str, ...] = (),
) -> PublicationRecord:
    """Shorthand record builder: rec("p1", ["US"], ["US", "GB"])."""
    return PublicationRecord(
        id=id,
        year=year,
        doc_type=doc_type,
        subjects=frozenset(subjects),
        authors=tuple(AuthorRef(frozenset(cs)) for cs in author_countries),
    )


def digit_limit_message(digits: int) -> str:
    """The interpreter's error for an integer literal of ``digits`` digits,
    without its advice on raising the limit, as the parser reports it.

    Skips the calling test when the interpreter has no integer-digit limit
    (before 3.10.7, or with ``PYTHONINTMAXSTRDIGITS=0``): such an integer
    then converts, and there is nothing to reject.
    """
    try:
        int("9" * digits)
    except ValueError as exc:
        return str(exc).partition(";")[0]
    pytest.skip(f"this interpreter converts {digits} digits")


@pytest.fixture
def scheme() -> SubjectScheme:
    return SubjectScheme(
        {
            "phys": frozenset({"PHYS", "MATH"}),
            "health": frozenset({"MED"}),
            "life": frozenset({"BIO", "MED"}),
        }
    )


@pytest.fixture
def mixed_corpus(scheme) -> Corpus:
    """Six records covering domestic, international, unresolved and
    multi-country-author shapes."""
    return Corpus(
        (
            rec("p1", ["US"], subjects=("PHYS",)),
            rec("p2", ["US"], ["GB"], subjects=("PHYS", "MED")),
            rec("p3", ["GB", "FR"], subjects=("MED",)),
            rec("p4", ["US"], [], subjects=("BIO",)),
            rec("p5", ["CN"], ["CN"], ["CN"]),
            rec("p6", [], []),
        ),
        scheme,
    )
