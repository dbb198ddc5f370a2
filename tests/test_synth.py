from __future__ import annotations

import numpy as np
import pytest

from bibrank.collaboration import is_international
from bibrank.ingest import parse_jsonl, to_jsonl
from bibrank.model import DocType
from bibrank.synth import _CHUNK_WORDS, SynthParams, _Draws, generate, iter_records

from oracles import oracle_generate, oracle_to_jsonl


class TestParams:
    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(seed=1, n_records=5, country_weights={})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(seed=1, n_records=5, country_weights={"US": 0.0})

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(seed=1, n_records=5, collab_prob=1.5)

    def test_author_bounds_checked(self):
        with pytest.raises(ValueError):
            SynthParams(seed=1, n_records=5, authors_min=4, authors_max=2)

    def test_negative_record_count_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(seed=1, n_records=-1)

    def test_subject_bounds_checked(self):
        with pytest.raises(ValueError):
            SynthParams(seed=1, n_records=5, subjects_min=3, subjects_max=2)

    def test_single_country_cannot_collaborate(self):
        with pytest.raises(ValueError):
            SynthParams(
                seed=1, n_records=5, country_weights={"US": 1.0}, collab_prob=0.5
            )
        SynthParams(seed=1, n_records=5, country_weights={"US": 1.0}, collab_prob=0.0)


class TestGenerate:
    def test_empty_corpus(self):
        assert len(generate(SynthParams(seed=1, n_records=0))) == 0

    def test_deterministic_for_seed(self):
        params = SynthParams(seed=42, n_records=200)
        assert to_jsonl(generate(params)) == to_jsonl(generate(params))

    def test_known_seed_bytes_are_stable(self):
        # frozen output of the documented generator (PCG64, fixed draw
        # order); a change here means the stream contract broke
        corpus = generate(SynthParams(seed=7, n_records=2))
        assert to_jsonl(corpus) == (
            '{"id":"s0000000","year":2016,"doc_type":"article",'
            '"subjects":["CHEM","COMP"],"authors":[{"countries":["US"]},'
            '{"countries":["US"]},{"countries":["US"]},{"countries":["US"]},'
            '{"countries":["US"]},{"countries":["US"]}]}\n'
            '{"id":"s0000001","year":2016,"doc_type":"article",'
            '"subjects":["ENG"],"authors":[{"countries":["BR"]},'
            '{"countries":["BR"]}]}\n'
        )

    def test_different_seeds_differ(self):
        a = generate(SynthParams(seed=1, n_records=50))
        b = generate(SynthParams(seed=2, n_records=50))
        assert to_jsonl(a) != to_jsonl(b)

    def test_record_count_and_shape(self):
        params = SynthParams(seed=3, n_records=64, authors_min=2, authors_max=3)
        corpus = generate(params)
        assert len(corpus) == 64
        for record in corpus:
            assert 2 <= len(record.authors) <= 3
            assert record.doc_type is DocType.ARTICLE
            assert record.year == 2016
            assert 1 <= len(record.subjects) <= 2

    def test_ids_sort_in_generation_order(self):
        corpus = generate(SynthParams(seed=5, n_records=30))
        ids = [r.id for r in corpus]
        assert ids == sorted(ids)

    def test_international_records_span_exactly_two_countries(self):
        corpus = generate(SynthParams(seed=11, n_records=400, collab_prob=1.0))
        for record in corpus:
            countries = set()
            for author in record.authors:
                countries.update(author.countries)
            assert len(countries) == 2
            assert is_international(record)

    def test_single_author_international_gets_binational_author(self):
        params = SynthParams(
            seed=13, n_records=200, authors_min=1, authors_max=1, collab_prob=1.0
        )
        for record in generate(params):
            assert len(record.authors) == 1
            assert len(record.authors[0].countries) == 2

    def test_observed_share_approaches_collab_prob(self):
        corpus = generate(SynthParams(seed=17, n_records=10_000, collab_prob=0.3))
        share = sum(1 for r in corpus if is_international(r)) / len(corpus)
        assert share == pytest.approx(0.3, abs=0.02)

    def test_round_trips_through_ingest_cleanly(self):
        corpus = generate(SynthParams(seed=23, n_records=150))
        parsed, report = parse_jsonl(to_jsonl(corpus))
        assert report.ok
        assert not report.warnings
        assert parsed.records == corpus.records


# 60 countries with Zipf-like weights and a 16-code subject pool
ZIPF_WEIGHTS = {
    f"{chr(65 + rank // 26)}{chr(65 + rank % 26)}": 1000.0 / (rank + 1) ** 1.1
    for rank in range(60)
}
POOL_16 = tuple(f"S{j:02d}" for j in range(16))
# one country so rare that an international record only gets it when the
# first two picks coincide and the second is drawn again without the first
RARE = {"AA": 1.0, "ZY": 1e-9}

GATE_PARAMS = {
    "defaults": {},
    "wide": dict(authors_max=12, collab_prob=0.5),
    "zipf-60": dict(
        country_weights=ZIPF_WEIGHTS, subject_pool=POOL_16, subjects_max=3,
        authors_max=12, collab_prob=0.5,
    ),
    "single-author-international": dict(authors_min=1, authors_max=1, collab_prob=0.9),
    "subjects-min-0": dict(subjects_min=0),
    "collab-0": dict(collab_prob=0.0),
    "collab-1": dict(collab_prob=1.0),
    "rare-redraw": dict(country_weights=RARE, collab_prob=0.5),
    "empty": dict(n_records=0),
}


class TestGeneratorGate:
    """The generator writes the bytes of ``oracles.oracle_generate``."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    @pytest.mark.parametrize("name", sorted(GATE_PARAMS))
    def test_same_bytes_as_frozen_generator(self, name, seed):
        kwargs = {"n_records": 300, **GATE_PARAMS[name]}
        params = SynthParams(seed=seed, **kwargs)
        assert oracle_to_jsonl(generate(params)) == oracle_to_jsonl(oracle_generate(params))

    def test_grid_reaches_the_redraw(self):
        # every first pick is AA but one in ~1e9, so each international
        # record that holds ZY got it from the second draw
        corpus = generate(SynthParams(seed=0, n_records=300, **GATE_PARAMS["rare-redraw"]))
        international = [r for r in corpus if is_international(r)]
        assert international
        for record in international:
            assert {c for a in record.authors for c in a.countries} == {"AA", "ZY"}

    @pytest.mark.parametrize("name", ["defaults", "single-author-international"])
    def test_equal_authors_are_one_object_within_one_corpus(self, name):
        params = SynthParams(seed=3, n_records=300, **GATE_PARAMS[name])
        first, second = generate(params), generate(params)
        authors = [a for r in first for a in r.authors]
        assert len({id(a) for a in authors}) == len(set(authors))
        assert len({id(r.subjects) for r in first}) < len(first)
        # each call interns afresh
        assert first.records[0].authors[0] is not second.records[0].authors[0]

    @pytest.mark.parametrize(
        "weights, collab_prob",
        [
            # the second weight underflows to zero once normalized
            ({"AA": 1e300, "ZY": 1e-300}, 0.5),
            ({"AA": 1e300, "ZY": 1e-300}, 0.0),
            # the sum overflows, so every normalized weight is zero or NaN
            ({"AA": 1e308, "ZY": 1e308}, 0.5),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_weights_numpy_rejects_fail_as_before(self, weights, collab_prob):
        params = SynthParams(seed=1, n_records=5, country_weights=weights, collab_prob=collab_prob)
        outcomes = []
        for build in (generate, oracle_generate):
            try:
                outcomes.append(oracle_to_jsonl(build(params)))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# (n, k) for choice(n, size=k, replace=False): k = 0, 1, n and between; the
# pools of over 10,000 take numpy's tail shuffle once k > n // 50
SAMPLES = [
    (n, k)
    for n, ks in [
        (1, [0, 1]),
        (8, [0, 1, 2, 5, 7, 8]),
        (16, [0, 1, 3, 15, 16]),
        (40, [0, 1, 2, 20, 39, 40]),
        (12000, [0, 1, 240, 241, 3000, 12000]),
        (20000, [0, 1, 400, 401, 20000]),
    ]
    for k in ks
]


class TestDrawsMatchGenerator:
    """``_Draws`` gives numpy's ``Generator`` values, draw for draw, when the
    calls are interleaved as ``_draw`` interleaves them."""

    def _both(self, seed=19):
        return np.random.Generator(np.random.PCG64(seed)), _Draws(np.random.PCG64(seed))

    def test_interleaved_stream(self):
        rng, draws = self._both()
        for n, k in SAMPLES:
            # a record's draws: its author count, its coin and countries, its
            # subject count (here a one-value range, which draws nothing) and
            # its subject pick; then a 32-bit draw that may take a kept half
            assert int(rng.integers(1, 7)) == 1 + draws.bounded(5)
            for _ in range(3):
                assert rng.random() == draws.random()
            assert int(rng.integers(4, 5)) == 4 + draws.bounded(0)
            assert rng.choice(n, size=k, replace=False).tolist() == draws.sample(n, k)
            assert int(rng.integers(0, 3)) == draws.bounded(2)

    @pytest.mark.parametrize("high", [1, 2**31, 3 * 2**30 - 1, 2**32 - 1])
    def test_wide_ranges_reject_as_lemire_does(self, high):
        # near 2**31 about half the products are rejected and redrawn
        rng, draws = self._both(seed=high)
        for _ in range(500):
            assert int(rng.integers(0, high + 1)) == draws.bounded(high)
            assert rng.random() == draws.random()

    def test_reads_raw_words_a_chunk_at_a_time(self):
        class Counted(object):
            def __init__(self):
                self.bit_generator, self.sizes = np.random.PCG64(5), []

            def random_raw(self, size):
                self.sizes.append(size)
                return self.bit_generator.random_raw(size)

        counted = Counted()
        draws = _Draws(counted)
        for _ in range(2 * _CHUNK_WORDS + 1):
            draws.random()
        assert counted.sizes == [_CHUNK_WORDS] * 3


class TestVanishingSecondCountry:
    """International records need two countries with weight left once the
    weights are normalized; without them every non-empty corpus is refused
    on the call, whatever its length."""

    WEIGHTS = {"AA": 1e300, "ZY": 1e-300}

    @pytest.mark.parametrize("n_records", [1, 7000, 7400])
    def test_refused_on_call(self, n_records):
        params = SynthParams(
            seed=6, n_records=n_records, country_weights=self.WEIGHTS, collab_prob=2e-4
        )
        with pytest.raises(ValueError, match="^Fewer non-zero entries in p than size$"):
            iter_records(params)

    def test_empty_corpus_not_refused(self):
        params = SynthParams(seed=6, n_records=0, country_weights=self.WEIGHTS, collab_prob=2e-4)
        assert list(iter_records(params)) == []
