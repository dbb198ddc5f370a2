"""Synthetic corpus generation for stress and property testing.

Generation is fully deterministic given the seed: the generator is
numpy's PCG64 (a well-documented 64-bit PRNG with a reproducible stream
across platforms), and every draw happens in a fixed order per record.

Every draw reproduces numpy's ``Generator`` stream without calling a
``Generator`` method per record. The PCG64 words are read a chunk at a
time through ``bit_generator.random_raw``, and each draw is derived from
them in Python as numpy's C code derives it: ``random()`` from a word's top
53 bits, ``integers`` by Lemire's bounded draw on 32-bit halves (a word's
high half kept for the next such draw, as PCG64 keeps it), and the subject
``choice(..., replace=False)`` by Floyd's sample and a shuffle (or, as
numpy does for a pick of over a fiftieth of a pool of over 10,000 codes,
by a shuffle of the pool's tail). The weighted country draws are a
bisection of one ``random()`` draw against cumulative weights built once
per call the way ``choice(..., p=...)`` builds them. Within one corpus,
authors with the same countries share one :class:`AuthorRef`, records
whose authors have the same countries in the same order share one
``authors`` tuple, and records with the same subject pick share one
subject set; all are immutable, so the sharing is safe.

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
from itertools import chain
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


# raw words per random_raw call: enough to spread its cost, few enough that
# a streamed synth holds next to nothing of them
_CHUNK_WORDS = 1024


class _Draws(object):
    """numpy ``Generator`` draws, derived from its bit generator's raw words.

    The 64-bit PCG64 words are read :data:`_CHUNK_WORDS` at a time through
    ``bit_generator.random_raw``, and each draw is made from them in Python
    the way numpy's C code makes it from the same words, so the values and
    the words they use are those of the ``Generator`` method each method
    names. The bit generator must be fresh: numpy keeps a half-used word in
    its state, and this object keeps its own.
    """

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        chunks = iter(lambda: bit_generator.random_raw(_CHUNK_WORDS).tolist(), None)
        self._word = chain.from_iterable(chunks).__next__
        # PCG64's next_uint32 returns a word's low half and keeps its high
        # half for the next 32-bit draw; random() never touches it
        self._half: int | None = None

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of one word."""
        return (self._word() >> 11) * 2.0**-53

    def bounded(self, high: int) -> int:
        """``Generator.integers(0, high + 1)`` for ``0 <= high < 2**32``.

        Lemire's multiply-and-reject on 32-bit draws, as numpy's
        ``buffered_bounded_lemire_uint32``; a range of one value draws nothing.
        """
        if not high:
            return 0
        span = high + 1
        m = self._uint32() * span
        if m & 0xFFFFFFFF < span:
            # reject the low products that would bias the result
            threshold = (0x100000000 - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * span
        return m >> 32

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def sample(self, n: int, k: int) -> list[int]:
        """``Generator.choice(n, size=k, replace=False).tolist()``."""
        if n > 10000 and k > n // 50:
            # numpy shuffles the last k places of range(n) and keeps them
            picks = list(range(n))
            self._shuffle(picks, max(n - k, 1))
            return picks[n - k :]
        # Floyd's sample: j when the draw from [0, j] is already taken
        picks = []
        taken = set()
        for j in range(n - k, n):
            pick = self.bounded(j)
            if pick in taken:
                pick = j
            taken.add(pick)
            picks.append(pick)
        self._shuffle(picks, 1)
        return picks

    def _shuffle(self, items: list[int], first: int) -> None:
        # Fisher-Yates from the end down to index ``first``, as numpy's _shuffle_int
        for i in range(len(items) - 1, first - 1, -1):
            j = self.bounded(i)
            items[i], items[j] = items[j], items[i]


def iter_records(params: SynthParams) -> Iterator[PublicationRecord]:
    """The records :func:`generate` returns, one at a time, in the same order.

    Every check runs on this call, before any record is drawn: a weight that
    ``Generator.choice`` refuses raises here, and so does a corpus that may
    hold international records (``collab_prob > 0``) when fewer than two
    weights are non-zero once normalized, whether or not a record drawn
    would be international. So iterating never raises, and a writer that
    takes the records one at a time writes all or none.
    """
    import numpy as np

    bit_generator = np.random.PCG64(params.seed)
    countries = sorted(params.country_weights)
    weights = np.array([params.country_weights[c] for c in countries], dtype=float)
    probs = weights / weights.sum()
    if params.n_records:
        # the checks and errors of the Generator.choice calls the draws
        # below replace, on a generator of its own so the stream is untouched
        np.random.Generator(np.random.PCG64(0)).choice(len(countries), p=probs)
        if params.collab_prob > 0 and np.count_nonzero(probs) < 2:
            # choice(size=2, replace=False, p=probs)'s refusal
            raise ValueError("Fewer non-zero entries in p than size")
    return _draw(params, _Draws(bit_generator), countries, probs, _cdf(probs))


def _draw(
    params: SynthParams,
    draws: _Draws,
    countries: list[str],
    probs: np.ndarray,
    cdf: list[float],
) -> Iterator[PublicationRecord]:
    random, bounded, sample = draws.random, draws.bounded, draws.sample
    # per country: the CDF with that country's weight set to zero
    cdf_without: dict[int, list[float]] = {}
    singles = [AuthorRef(frozenset((c,))) for c in countries]
    pool = params.subject_pool
    subject_sets: dict[tuple[int, ...], frozenset[str]] = {}
    # an author list's countries, an index per single-country author and the
    # set of a binational one -> the one tuple of AuthorRefs that holds them
    author_lists: dict[tuple[int | frozenset[str], ...], tuple[AuthorRef, ...]] = {}
    authors_span = params.authors_max - params.authors_min
    subjects_span = params.subjects_max - params.subjects_min

    for i in range(params.n_records):
        # Generator.integers(authors_min, authors_max + 1)
        n_authors = params.authors_min + bounded(authors_span)
        if random() < params.collab_prob:
            # choice(size=2, replace=False, p=probs): two uniforms, then
            # while the picks coincide one more against the CDF without
            # the first pick, as numpy's loop draws them
            first = bisect_right(cdf, random())
            second = bisect_right(cdf, random())
            while second == first:
                if first not in cdf_without:
                    remaining = probs.copy()
                    remaining[first] = 0
                    cdf_without[first] = _cdf(remaining)
                second = bisect_right(cdf_without[first], random())
            if n_authors == 1:
                key = (frozenset((countries[first], countries[second])),)
            else:
                picks = [first, second]
                for _ in range(n_authors - 2):
                    picks.append(first if random() < 0.5 else second)
                key = tuple(picks)
        else:
            key = (bisect_right(cdf, random()),) * n_authors
        authors = author_lists.get(key)
        if authors is None:
            authors = author_lists[key] = tuple(
                AuthorRef(k) if isinstance(k, frozenset) else singles[k] for k in key
            )

        # Generator.integers(subjects_min, subjects_max + 1)
        n_subjects = params.subjects_min + bounded(subjects_span)
        if n_subjects:
            # Generator.choice(len(pool), size=n_subjects, replace=False)
            picked = tuple(sample(len(pool), n_subjects))
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
