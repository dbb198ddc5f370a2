"""Synthetic corpus generation for stress and property testing.

Generation is fully deterministic given the seed: the generator is
numpy's PCG64 (a well-documented 64-bit PRNG with a reproducible stream
across platforms), and every draw happens in a fixed order per record.

The weighted country draws reproduce numpy's ``Generator.choice(...,
p=...)`` stream without calling it per record: the cumulative weights are
built once per call the way ``choice`` builds them, and each pick is a
bisection of one ``Generator.random()`` draw. Within one corpus, authors
with the same countries share one :class:`AuthorRef` and records with the
same subject pick share one subject set; both are frozen, so the sharing
is safe.

Each record flips one biased coin for "international". A domestic record
draws one country and gives it to every author. An international record
draws two distinct countries and guarantees both appear: the first author
takes the first, the second author the second, remaining authors pick one
of the two at random. A single-author international record gets one
author affiliated with both countries.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .model import AuthorRef, Corpus, DocType, PublicationRecord, SubjectScheme, EMPTY_SCHEME

# numpy is imported inside the functions that use it: importing it takes
# longer than importing the rest of bibrank, and most commands never need it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_COUNTRY_WEIGHTS = {
    "US": 30.0,
    "CN": 25.0,
    "GB": 10.0,
    "DE": 9.0,
    "IN": 7.0,
    "JP": 6.0,
    "FR": 5.0,
    "BR": 4.0,
    "NL": 2.5,
    "CH": 1.5,
}

DEFAULT_SUBJECT_POOL = ("PHYS", "CHEM", "BIO", "MED", "SOC", "COMP", "ENG", "MATH")


@dataclass(frozen=True)
class SynthParams(object):
    """Knobs for :func:`generate`.

    ``collab_prob`` is the probability that a record is international;
    the observed share converges to it for large ``n_records``. Author
    counts are drawn uniformly from ``[authors_min, authors_max]`` and
    subject counts from ``[subjects_min, subjects_max]``.
    """

    seed: int
    n_records: int
    country_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COUNTRY_WEIGHTS)
    )
    authors_min: int = 1
    authors_max: int = 6
    collab_prob: float = 0.25
    subject_pool: tuple[str, ...] = DEFAULT_SUBJECT_POOL
    subjects_min: int = 1
    subjects_max: int = 2
    year: int = 2016

    def __post_init__(self) -> None:
        if self.n_records < 0:
            raise ValueError("n_records must be non-negative")
        if not self.country_weights:
            raise ValueError("country_weights must not be empty")
        if any(w <= 0 for w in self.country_weights.values()):
            raise ValueError("country weights must be positive")
        if not 0.0 <= self.collab_prob <= 1.0:
            raise ValueError("collab_prob must lie in [0, 1]")
        if not 1 <= self.authors_min <= self.authors_max:
            raise ValueError("need 1 <= authors_min <= authors_max")
        if not 0 <= self.subjects_min <= self.subjects_max <= len(self.subject_pool):
            raise ValueError("need 0 <= subjects_min <= subjects_max <= pool size")
        if len(self.country_weights) < 2 and self.collab_prob > 0.0:
            raise ValueError("international records need at least two countries")


def _cdf(probs: np.ndarray) -> list[float]:
    # as Generator.choice builds it, so bisecting a uniform draw picks what
    # choice's searchsorted picks
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate(params: SynthParams, scheme: SubjectScheme | None = None) -> Corpus:
    """Produce a deterministic synthetic corpus.

    The same ``params.seed`` always yields byte-identical records. Record
    ids are zero-padded so lexicographic and generation order coincide.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(params.seed))
    countries = sorted(params.country_weights)
    weights = np.array([params.country_weights[c] for c in countries], dtype=float)
    probs = weights / weights.sum()
    if params.n_records:
        # the checks and errors of the Generator.choice calls the draws
        # below replace, on a generator of its own so the stream is untouched
        np.random.Generator(np.random.PCG64(0)).choice(len(countries), p=probs)
    cdf = _cdf(probs)
    # per country: the CDF with that country's weight set to zero
    cdf_without: dict[int, list[float]] = {}
    singles = [AuthorRef(frozenset((c,))) for c in countries]
    binational: dict[frozenset[str], AuthorRef] = {}
    pool = params.subject_pool
    subject_sets: dict[tuple[int, ...], frozenset[str]] = {}

    records = []
    for i in range(params.n_records):
        n_authors = int(rng.integers(params.authors_min, params.authors_max + 1))
        if rng.random() < params.collab_prob:
            # choice(size=2, replace=False, p=probs): two uniforms, then
            # while the picks coincide one more against the CDF without
            # the first pick, as numpy's loop draws them
            first = bisect_right(cdf, rng.random())
            second = bisect_right(cdf, rng.random())
            while second == first:
                if first not in cdf_without:
                    remaining = probs.copy()
                    remaining[first] = 0
                    if not remaining.any():
                        raise ValueError("Fewer non-zero entries in p than size")
                    cdf_without[first] = _cdf(remaining)
                second = bisect_right(cdf_without[first], rng.random())
            if n_authors == 1:
                both = frozenset((countries[first], countries[second]))
                authors = [binational.get(both) or binational.setdefault(both, AuthorRef(both))]
            else:
                authors = [singles[first], singles[second]]
                for _ in range(n_authors - 2):
                    authors.append(singles[first] if rng.random() < 0.5 else singles[second])
        else:
            authors = [singles[bisect_right(cdf, rng.random())]] * n_authors

        n_subjects = int(rng.integers(params.subjects_min, params.subjects_max + 1))
        if n_subjects:
            picked = tuple(rng.choice(len(pool), size=n_subjects, replace=False).tolist())
            subjects = subject_sets.get(picked) or subject_sets.setdefault(
                picked, frozenset(pool[j] for j in picked)
            )
        else:
            subjects = frozenset()

        records.append(
            PublicationRecord(
                id=f"s{i:07d}",
                year=params.year,
                doc_type=DocType.ARTICLE,
                subjects=subjects,
                authors=tuple(authors),
            )
        )

    return Corpus(
        tuple(records),
        scheme or EMPTY_SCHEME,
        provenance=f"synth(seed={params.seed})",
    )
