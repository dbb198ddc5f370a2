"""Core data model: publication records, country codes, subject schemes.

A corpus is an immutable sequence of publication records. Each record lists
its authors, and each author carries a set of normalized two-letter country
codes. Authors whose affiliation could not be resolved carry an empty set and
are credited to the pseudo-country ``ZZ`` at counting time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import tee
from operator import attrgetter, lt
from typing import Callable, Iterable, Iterator, Mapping

from .errors import UnknownGroupError

UNRESOLVED = "ZZ"
"""Pseudo country code credited for authors with no resolvable affiliation."""

ALL_FIELDS = "ALL"
"""Reserved slice label meaning "no subject restriction"."""

# Country names as they appear in national indicator reports, mapped to
# ISO 3166-1 alpha-2. Lookup happens after trimming and uppercasing, so the
# keys here are spelled uppercase. Anything already in alpha-2 form passes
# through normalize_country untouched.
COUNTRY_ALIASES: Mapping[str, str] = {
    "USA": "US",
    "UNITED STATES": "US",
    "UNITED STATES OF AMERICA": "US",
    "UK": "GB",
    "UNITED KINGDOM": "GB",
    "GREAT BRITAIN": "GB",
    "ENGLAND": "GB",
    "CHINA": "CN",
    "PEOPLES REPUBLIC OF CHINA": "CN",
    "GERMANY": "DE",
    "INDIA": "IN",
    "JAPAN": "JP",
    "FRANCE": "FR",
    "ITALY": "IT",
    "CANADA": "CA",
    "AUSTRALIA": "AU",
    "SPAIN": "ES",
    "SOUTH KOREA": "KR",
    "KOREA": "KR",
    "REPUBLIC OF KOREA": "KR",
    "RUSSIA": "RU",
    "RUSSIAN FEDERATION": "RU",
    "BRAZIL": "BR",
    "NETHERLANDS": "NL",
    "THE NETHERLANDS": "NL",
    "HOLLAND": "NL",
    "IRAN": "IR",
    "POLAND": "PL",
    "TURKEY": "TR",
    "SWITZERLAND": "CH",
    "SWEDEN": "SE",
    "TAIWAN": "TW",
}


def normalize_country(raw: str) -> str:
    """Normalize a raw country string to a two-letter uppercase code.

    Trims, collapses internal whitespace, uppercases, and applies the alias
    table. Strings that are neither aliases nor two-letter codes pass through
    unchanged (uppercased); ingestion flags them with a validation warning
    rather than rejecting the record.
    """
    cleaned = " ".join(raw.split()).upper()
    return COUNTRY_ALIASES.get(cleaned, cleaned)


def is_country_code(code: str) -> bool:
    """True when ``code`` is exactly two ASCII uppercase letters."""
    return len(code) == 2 and all("A" <= ch <= "Z" for ch in code)


class DocType(Enum):
    """Document type of a publication record.

    ``OTHER`` is representable but excluded by the default analysis filter
    (see :data:`bibrank.ingest.DEFAULT_DOC_TYPES`).
    """

    ARTICLE = "article"
    REVIEW = "review"
    CONFERENCE_PAPER = "conference_paper"
    OTHER = "other"


@dataclass(frozen=True)
class AuthorRef(object):
    """One author slot on a record: the set of countries it is affiliated to.

    ``countries`` holds normalized codes and never contains ``ZZ``; an empty
    set means the affiliation is unresolved and the author's credit goes to
    ``ZZ`` under fractional counting.
    """

    countries: frozenset[str] = frozenset()

    @classmethod
    def from_raw(cls, raw: Iterable[str]) -> "AuthorRef":
        """Build an author from raw country strings.

        Each entry is normalized; the unresolved marker ``ZZ`` is dropped so
        that an all-``ZZ`` author round-trips to the empty (unresolved) set.
        """
        codes = {normalize_country(c) for c in raw}
        codes.discard(UNRESOLVED)
        codes.discard("")
        return cls(frozenset(codes))

    @property
    def unresolved(self) -> bool:
        return not self.countries


@dataclass(frozen=True, slots=True)
class PublicationRecord(object):
    """A single publication.

    Records are slotted, so each holds no instance dict.

    Attributes
    ----------
    id:
        Unique, non-empty identifier within a corpus.
    year:
        Publication year; 0 when the source data carried none.
    doc_type:
        One of :class:`DocType`.
    subjects:
        Subject codes assigned by the source; may be empty, in which case the
        record matches only the all-fields slice.
    authors:
        Ordered author slots. Order never affects any count.
    """

    id: str
    year: int
    doc_type: DocType
    subjects: frozenset[str] = frozenset()
    authors: tuple[AuthorRef, ...] = ()


def countries_of(record: PublicationRecord) -> frozenset[str]:
    """Deduplicated union of all authors' country sets.

    May be empty when every author is unresolved; never contains ``ZZ``.
    """
    out: set[str] = set()
    for author in record.authors:
        out |= author.countries
    return frozenset(out)


@dataclass(frozen=True)
class SubjectScheme(object):
    """A named partition (possibly overlapping) of subject codes into groups.

    A record belongs to a group when any of its subject codes is in the
    group's set; membership is counted once per record regardless of how many
    codes match. The label ``ALL`` is reserved for the unrestricted slice and
    cannot be redefined, in any case: the command line reads ``all`` as it.
    """

    groups: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = {}
        for name, codes in self.groups.items():
            if not name or not name.strip():
                raise ValueError("subject group name must be non-empty")
            if name.lower() == ALL_FIELDS.lower():
                raise ValueError(
                    f"group name {name!r} is reserved for the unrestricted slice"
                )
            frozen[name] = frozenset(str(c).strip() for c in codes)
        object.__setattr__(self, "groups", frozen)

    def group(self, name: str) -> frozenset[str]:
        """Codes of ``name``; raises UnknownGroupError for undefined groups."""
        try:
            return self.groups[name]
        except KeyError:
            raise UnknownGroupError(
                f"unknown subject group {name!r}; defined: {sorted(self.groups) or 'none'}"
            ) from None

    @property
    def names(self) -> tuple[str, ...]:
        # insertion order of the defining mapping, deterministic for a given file
        return tuple(self.groups)


EMPTY_SCHEME = SubjectScheme({})
_Counted = tuple[int, DocType, frozenset[str], tuple[AuthorRef, ...]]  # a streamed record
_counted = attrgetter("year", "doc_type", "subjects", "authors")


def _increasing(ids: Iterable[str]) -> bool:
    """True when each id is less than the next: in order, with no repeat."""
    this, after = tee(ids)
    next(after, None)
    return all(map(lt, this, after))


@dataclass(frozen=True)
class Corpus(object):
    """An immutable collection of records plus the active subject scheme.

    ``records`` keeps the input order, which the writers follow. Counting
    walks the records in id order, which the corpus works out once when it
    is built, from its records alone: no caller can hand it one. Ids that
    already increase are checked by one pass over neighbours and cost
    nothing more, and other records are sorted by id once and that order
    kept. Both checks prove the ids unique; on a repeat the records are
    scanned in their own order, so the error names the first id to repeat
    there.
    """

    records: tuple[PublicationRecord, ...]
    scheme: SubjectScheme = EMPTY_SCHEME
    provenance: str = ""
    # the records in id order; ``records`` itself when already in it
    _by_id: tuple[PublicationRecord, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        by_id = records
        if not _increasing(map(attrgetter("id"), records)):
            by_id = tuple(sorted(records, key=attrgetter("id")))
            if not _increasing(map(attrgetter("id"), by_id)):
                seen: set[str] = set()
                for record in records:
                    if record.id in seen:
                        raise ValueError(f"duplicate record id {record.id!r}")
                    seen.add(record.id)
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PublicationRecord]:
        return iter(self.records)

    def _subset(self, keep: Callable[[PublicationRecord], object]) -> "Corpus":
        """The corpus of the records ``keep`` is true for, in record order.

        ``keep`` runs once on each record, in record order. A subset that
        keeps every record is this corpus, which is frozen, so sharing it is
        safe; any other works out its own id order.
        """
        kept = tuple(filter(keep, self.records))
        if len(kept) == len(self.records):
            return self
        return Corpus(kept, self.scheme, self.provenance)
