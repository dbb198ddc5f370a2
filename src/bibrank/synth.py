"""Synthetic corpus generation for stress and property testing.

Generation is fully deterministic given the seed: the generator is
numpy's PCG64 (a well-documented 64-bit PRNG with a reproducible stream
across platforms), and every draw happens in a fixed order per record.

The weighted country draws reproduce numpy's ``Generator.choice(...,
p=...)`` stream without calling it per record: the cumulative weights are
built once per call the way ``choice`` builds them, and each pick is a
bisection of one ``Generator.random()`` draw. Within one corpus, authors
with the same countries share one :class:`AuthorRef`, records whose
authors have the same countries in the same order share one ``authors``
tuple, and records with the same subject pick share one subject set; all
are immutable, so the sharing is safe.

Each record flips one biased coin for "international". A domestic record
draws one country and gives it to every author. An international record
draws two distinct countries and guarantees both appear: the first author
takes the first, the second author the second, remaining authors pick one
of the two at random. A single-author international record gets one
author affiliated with both countries.

:func:`iter_records` yields the records one at a time, and
:func:`generate` is the :class:`Corpus` of them. A caller that writes the
records as they come, as ``bibrank synth`` does, holds one chunk of output
and never the corpus. Every check runs when :func:`iter_records` is
called, so iterating never raises and such a writer writes all or nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

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


def iter_records(params: SynthParams) -> Iterator[PublicationRecord]:
    """The records :func:`generate` returns, one at a time, in the same order.

    Every check runs on this call, so a weight that ``Generator.choice``
    refuses raises here, before any record is drawn. Drawing the records
    can then refuse only an international record whose second country has
    no weight left once the weights are normalized; when that can happen,
    every record is drawn on this call too. So iterating never raises, and
    a writer that takes the records one at a time writes all or none.
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
    records = _draw(params, rng, countries, probs, _cdf(probs))
    if params.collab_prob > 0 and np.count_nonzero(probs) < 2:
        # an international record would find no second country and raise
        # part way through the records: draw them all before any is taken
        return iter(tuple(records))
    return records


def _draw(
    params: SynthParams,
    rng: np.random.Generator,
    countries: list[str],
    probs: np.ndarray,
    cdf: list[float],
) -> Iterator[PublicationRecord]:
    # per country: the CDF with that country's weight set to zero
    cdf_without: dict[int, list[float]] = {}
    singles = [AuthorRef(frozenset((c,))) for c in countries]
    pool = params.subject_pool
    subject_sets: dict[tuple[int, ...], frozenset[str]] = {}
    # an author list's countries, an index per single-country author and the
    # set of a binational one -> the one tuple of AuthorRefs that holds them
    author_lists: dict[tuple[int | frozenset[str], ...], tuple[AuthorRef, ...]] = {}

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
                key = (frozenset((countries[first], countries[second])),)
            else:
                picks = [first, second]
                for _ in range(n_authors - 2):
                    picks.append(first if rng.random() < 0.5 else second)
                key = tuple(picks)
        else:
            key = (bisect_right(cdf, rng.random()),) * n_authors
        authors = author_lists.get(key)
        if authors is None:
            authors = author_lists[key] = tuple(
                AuthorRef(k) if isinstance(k, frozenset) else singles[k] for k in key
            )

        n_subjects = int(rng.integers(params.subjects_min, params.subjects_max + 1))
        if n_subjects:
            picked = tuple(rng.choice(len(pool), size=n_subjects, replace=False).tolist())
            subjects = subject_sets.get(picked) or subject_sets.setdefault(
                picked, frozenset(pool[j] for j in picked)
            )
        else:
            subjects = frozenset()

        yield PublicationRecord(
            id=f"s{i:07d}",
            year=params.year,
            doc_type=DocType.ARTICLE,
            subjects=subjects,
            authors=authors,
        )


def generate(params: SynthParams, scheme: SubjectScheme | None = None) -> Corpus:
    """Produce a deterministic synthetic corpus.

    The same ``params.seed`` always yields byte-identical records. Record
    ids are zero-padded so lexicographic and generation order coincide.
    """
    return Corpus(
        tuple(iter_records(params)),
        scheme or EMPTY_SCHEME,
        provenance=f"synth(seed={params.seed})",
    )
