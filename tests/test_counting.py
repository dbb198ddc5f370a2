from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bibrank import counting
from bibrank.collaboration import country_metrics, derive_metrics, icp_count
from bibrank.counting import (
    CountMethod,
    FractionalMode,
    fractional_count,
    slice_corpus,
    subject_group_count,
    whole_count,
)
from bibrank.errors import UnknownGroupError
from bibrank.ingest import CountryAggregate, parse_csv, parse_jsonl, to_csv, to_jsonl
from bibrank.model import (
    ALL_FIELDS,
    UNRESOLVED,
    AuthorRef,
    Corpus,
    DocType,
    PublicationRecord,
    SubjectScheme,
)
from bibrank.synth import SynthParams, generate

from conftest import rec
from oracles import (
    oracle_count,
    oracle_fractional_author,
    oracle_fractional_country,
    oracle_icp_count,
    oracle_subject_group_count,
    oracle_whole,
    random_corpus,
)


class TestWholeCount:
    def test_every_country_gets_full_credit(self, mixed_corpus):
        table = whole_count(mixed_corpus)
        assert table.scores == {
            "CN": 1.0,
            "FR": 1.0,
            "GB": 2.0,
            "US": 3.0,
            UNRESOLVED: 2.0,
        }
        assert table.records_counted == 6

    def test_multinational_record_counted_once_per_country(self):
        table = whole_count(Corpus((rec("p", ["US", "GB"], ["US"]),)))
        assert table.scores == {"GB": 1.0, "US": 1.0}

    def test_sum_exceeds_record_count_with_collaboration(self, mixed_corpus):
        assert whole_count(mixed_corpus).total() > len(mixed_corpus)


class TestFractionalCount:
    def test_author_mode_splits_by_author_then_country(self):
        # one US author, one US+GB author, one unresolved: shares are
        # built over the common denominator 6 so they add up exactly
        corpus = Corpus((rec("p", ["US"], ["US", "GB"], []),))
        table = fractional_count(corpus)
        assert table.scores == {
            "GB": pytest.approx(1 / 6),
            "US": pytest.approx(1 / 2),
            UNRESOLVED: pytest.approx(1 / 3),
        }
        assert table.method is CountMethod.FRACTIONAL_AUTHOR

    def test_author_mode_matches_exact_fractions(self, mixed_corpus):
        table = fractional_count(mixed_corpus)
        expected = oracle_fractional_author(mixed_corpus)
        assert set(table.scores) == set(expected)
        for country, share in expected.items():
            assert table.scores[country] == pytest.approx(float(share), abs=1e-12)

    def test_country_mode_splits_by_distinct_country(self, mixed_corpus):
        table = fractional_count(mixed_corpus, FractionalMode.COUNTRY)
        expected = oracle_fractional_country(mixed_corpus)
        for country, share in expected.items():
            assert table.scores[country] == pytest.approx(float(share), abs=1e-12)

    def test_domestic_record_contributes_exactly_one(self):
        # three same-country authors: 3 * (1/3) must not leave float dust
        table = fractional_count(Corpus((rec("p", ["CN"], ["CN"], ["CN"]),)))
        assert table.scores == {"CN": 1.0}

    def test_all_unresolved_record_credits_zz_fully(self):
        for mode in FractionalMode:
            table = fractional_count(Corpus((rec("p", [], []),)), mode)
            assert table.scores == {UNRESOLVED: 1.0}

    def test_score_lookup_defaults_to_zero(self, mixed_corpus):
        assert fractional_count(mixed_corpus).score("XX") == 0.0


class TestSubjectGroups:
    def test_slices_follow_scheme_membership(self, mixed_corpus):
        tables = subject_group_count(mixed_corpus, CountMethod.WHOLE)
        assert list(tables) == [ALL_FIELDS, "phys", "health", "life"]
        assert tables[ALL_FIELDS].records_counted == 6
        assert tables["phys"].records_counted == 2  # p1, p2
        assert tables["health"].records_counted == 2  # p2, p3
        assert tables["life"].records_counted == 3  # p2, p3, p4

    def test_group_membership_counted_once_per_record(self, scheme):
        # MED and BIO both map into "life"; the record is still one paper
        corpus = Corpus((rec("p", ["US"], subjects=("MED", "BIO")),), scheme)
        assert subject_group_count(corpus)["life"].scores == {"US": 1.0}

    def test_slice_label_travels_with_table(self, mixed_corpus):
        tables = subject_group_count(mixed_corpus)
        assert tables["phys"].slice_label == "phys"

    def test_unknown_group_raises(self, mixed_corpus):
        with pytest.raises(UnknownGroupError):
            subject_group_count(mixed_corpus, groups=["astrology"])
        with pytest.raises(UnknownGroupError):
            slice_corpus(mixed_corpus, "astrology")

    def test_all_slice_is_the_corpus(self, mixed_corpus):
        assert slice_corpus(mixed_corpus, ALL_FIELDS) is mixed_corpus

    def test_empty_subjects_match_only_all(self, mixed_corpus):
        tables = subject_group_count(mixed_corpus)
        in_groups = set()
        for name in mixed_corpus.scheme.names:
            for r in slice_corpus(mixed_corpus, name):
                in_groups.add(r.id)
        assert "p5" not in in_groups
        assert "p6" not in in_groups
        assert tables[ALL_FIELDS].records_counted == 6


# ---------------------------------------------------------------------------
# property tests

_pool = ["US", "CN", "GB", "DE", "IN", "JP"]


@st.composite
def corpora(draw, max_records: int = 24) -> Corpus:
    n = draw(st.integers(min_value=0, max_value=max_records))
    records = []
    for i in range(n):
        n_authors = draw(st.integers(min_value=1, max_value=4))
        authors = []
        for _ in range(n_authors):
            k = draw(st.integers(min_value=0, max_value=3))
            authors.append(
                AuthorRef(frozenset(draw(st.permutations(_pool))[:k]))
            )
        records.append(rec(f"r{i:04d}", *[tuple(a.countries) for a in authors]))
    return Corpus(tuple(records))


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_fractional_mass_is_conserved(corpus):
    for mode in FractionalMode:
        table = fractional_count(corpus, mode)
        assert table.total() == pytest.approx(len(corpus), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_fractional_never_exceeds_whole(corpus):
    wc = whole_count(corpus)
    for mode in FractionalMode:
        fc = fractional_count(corpus, mode)
        for country, share in fc.scores.items():
            assert share <= wc.scores[country]


@settings(max_examples=60, deadline=None)
@given(corpora(), st.randoms(use_true_random=False))
def test_scores_invariant_under_permutation(corpus, rng):
    records = list(corpus.records)
    rng.shuffle(records)
    shuffled = Corpus(
        tuple(
            PublicationRecord(
                id=r.id,
                year=r.year,
                doc_type=r.doc_type,
                subjects=r.subjects,
                authors=tuple(sorted(r.authors, key=lambda a: rng.random())),
            )
            for r in records
        )
    )
    assert whole_count(shuffled).scores == whole_count(corpus).scores
    for mode in FractionalMode:
        assert (
            fractional_count(shuffled, mode).scores
            == fractional_count(corpus, mode).scores
        )


@settings(max_examples=60, deadline=None)
@given(corpora(), st.sampled_from(_pool))
def test_appending_domestic_record_adds_exactly_one(corpus, country):
    # the new id sorts last, so every earlier accumulation step is untouched
    extended = Corpus(corpus.records + (rec("zzzz", (country,), (country,)),))
    for count in (whole_count, fractional_count):
        before = count(corpus).scores
        after = count(extended).scores
        assert after[country] == before.get(country, 0.0) + 1.0
        for other, value in before.items():
            if other != country:
                assert after[other] == value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_counts_match_oracles_on_random_corpora(seed):
    corpus = random_corpus(random.Random(seed), 40)
    assert whole_count(corpus).scores == {
        c: float(v) for c, v in oracle_whole(corpus).items()
    }
    for mode, oracle in (
        (FractionalMode.AUTHOR, oracle_fractional_author),
        (FractionalMode.COUNTRY, oracle_fractional_country),
    ):
        table = fractional_count(corpus, mode)
        expected = oracle(corpus)
        assert set(table.scores) == set(expected)
        for country, share in expected.items():
            assert table.scores[country] == pytest.approx(float(share), abs=1e-9)


# ---------------------------------------------------------------------------
# the counting sweep against the frozen per-table passes it replaced

SWEEP_SCHEME = SubjectScheme(
    {
        "phys": frozenset({"PHYS", "CHEM"}),
        "life": frozenset({"BIO", "MED"}),
        "health": frozenset({"MED"}),  # inside life
        "broad": frozenset({"PHYS", "BIO", "SOC"}),  # overlaps phys and life
        "none": frozenset({"ASTRO"}),  # matches no record
    }
)

_WIDE_COUNTRIES = "US CN GB DE IN JP FR IT CA AU ES KR BR NL RU IR CH SE PL TR".split()
_SIXTY_COUNTRIES = _WIDE_COUNTRIES + (
    "BE DK AT NO IL FI PT MX SG CZ ZA GR NZ IE AR EG MY PK TH SA "
    "CL HU RO CO NG UA VN ID TW HK SK SI HR RS BD LT EE IS KE PE"
).split()
_SWEEP_SUBJECTS = ("PHYS", "CHEM", "BIO", "MED", "SOC")
# one country union, {IN, US}, split across authors and ordered in every way
_SPLITS = [
    (("IN", "US"), ("US",)),
    (("IN",), ("US",), ("US",)),
    (("US",), ("IN", "US")),
    (("US",), ("US",), ("IN",)),
    (("IN", "US"),),
    (("IN",), ("US",)),
    (("US",), ("IN",)),
    (("IN", "US"), ()),
    ((), ("IN", "US")),
    (("IN",), (), ("US",)),
]


def _shuffled(corpus: Corpus, seed: int) -> Corpus:
    records = list(corpus.records)
    random.Random(seed).shuffle(records)
    return Corpus(tuple(records), corpus.scheme)


def _orphaned(corpus: Corpus) -> Corpus:
    """Every third record loses all its author countries."""
    return Corpus(
        tuple(
            replace(r, authors=tuple(AuthorRef() for _ in r.authors)) if i % 3 == 0 else r
            for i, r in enumerate(corpus.records)
        ),
        corpus.scheme,
    )


def _distinct_patterns(seed: int, n_records: int) -> Corpus:
    """Wide records, no two with the same author-country tuple."""
    rng = random.Random(seed)
    seen = set()
    records = []
    while len(records) < n_records:
        authors = tuple(
            frozenset(rng.sample(_SIXTY_COUNTRIES, rng.choice([0, 1, 1, 1, 2, 3])))
            for _ in range(rng.randint(1, 12))
        )
        if authors in seen:
            continue
        seen.add(authors)
        subjects = rng.sample(_SWEEP_SUBJECTS, rng.randint(0, 3))
        records.append(rec(f"x{rng.randrange(10**6):06d}-{len(records)}", *authors, subjects=subjects))
    return Corpus(tuple(records), SWEEP_SCHEME)


def _same_union(seed: int, n_records: int) -> Corpus:
    """Records whose authors split one country union differently."""
    rng = random.Random(seed)
    return Corpus(
        tuple(
            rec(
                f"u{rng.randrange(10**6):06d}-{i}",
                *rng.choice(_SPLITS),
                subjects=rng.sample(_SWEEP_SUBJECTS, rng.randint(0, 2)),
            )
            for i in range(n_records)
        ),
        SWEEP_SCHEME,
    )


def _reused_tuples(seed: int, n_records: int, source: Corpus) -> Corpus:
    """Records that reuse a few authors tuple objects under different subjects."""
    rng = random.Random(seed)
    tuples = [r.authors for r in source.records[:12]]
    return Corpus(
        tuple(
            PublicationRecord(
                f"t{rng.randrange(10**6):06d}-{i}",
                2016,
                DocType.ARTICLE,
                frozenset(rng.sample(_SWEEP_SUBJECTS, rng.randint(0, 3))),
                rng.choice(tuples),
            )
            for i in range(n_records)
        ),
        SWEEP_SCHEME,
    )


def _sweep_corpora() -> dict[str, Corpus]:
    messy = random_corpus(random.Random(7), 300, SWEEP_SCHEME)
    wide = generate(
        SynthParams(
            seed=11,
            n_records=300,
            country_weights={c: 20.0 - i for i, c in enumerate(_WIDE_COUNTRIES)},
            authors_max=12,
            collab_prob=0.6,
            subject_pool=_SWEEP_SUBJECTS,
            subjects_min=0,
            subjects_max=3,
        )
    )
    wide = Corpus(wide.records, SWEEP_SCHEME)
    no_subjects = Corpus(
        tuple(replace(r, subjects=frozenset()) for r in messy.records), SWEEP_SCHEME
    )
    same_union = _same_union(17, 200)
    return {
        "messy": messy,
        "messy-shuffled": _shuffled(messy, 1),
        "wide-shuffled": _shuffled(wide, 2),
        "wide-orphaned": _orphaned(wide),
        "no-subjects": no_subjects,
        "distinct-patterns": _distinct_patterns(13, 300),
        "same-union": same_union,
        # parsed: records with the same raw author list share one tuple
        "wide-jsonl": parse_jsonl(to_jsonl(wide), scheme=SWEEP_SCHEME)[0],
        "messy-csv": parse_csv(to_csv(messy), scheme=SWEEP_SCHEME)[0],
        "same-union-csv": parse_csv(to_csv(same_union), scheme=SWEEP_SCHEME)[0],
        "reused-tuples": _reused_tuples(19, 200, messy),
        "empty": Corpus((), SWEEP_SCHEME),
    }


SWEEP_CORPORA = _sweep_corpora()
SWEEP_GROUPS = [
    None,
    [ALL_FIELDS],
    ["none", "phys", ALL_FIELDS],
    ["life", "health", "life", ALL_FIELDS, "broad", "life"],
    [],
]


def _assert_same_table(new, old):
    # repr pins the key order and every float's exact value
    assert new == old
    assert repr(new) == repr(old)


class TestSweepMatchesFrozenPasses:
    @pytest.mark.parametrize("name", SWEEP_CORPORA)
    @pytest.mark.parametrize("method", list(CountMethod))
    @pytest.mark.parametrize("groups", SWEEP_GROUPS, ids=repr)
    def test_subject_group_count(self, name, method, groups):
        corpus = SWEEP_CORPORA[name]
        new = subject_group_count(corpus, method, groups)
        old = oracle_subject_group_count(corpus, method, groups)
        assert list(new) == list(old)
        for group in old:
            _assert_same_table(new[group], old[group])

    @pytest.mark.parametrize("name", SWEEP_CORPORA)
    def test_whole_fractional_and_icp(self, name):
        corpus = SWEEP_CORPORA[name]
        _assert_same_table(
            whole_count(corpus), oracle_count(corpus, CountMethod.WHOLE, ALL_FIELDS)
        )
        for mode in FractionalMode:
            _assert_same_table(
                fractional_count(corpus, mode), oracle_count(corpus, mode.method, ALL_FIELDS)
            )
        _assert_same_table(icp_count(corpus), oracle_icp_count(corpus))

    def test_corpora_cover_the_hard_shapes(self):
        records = [r for c in SWEEP_CORPORA.values() for r in c.records]
        assert any(len(r.authors) > 6 for r in records)
        assert any(not r.subjects for r in records)
        assert any(all(a.unresolved for a in r.authors) for r in records)
        assert any(r.subjects >= {"MED", "PHYS"} for r in records)
        assert not any("ASTRO" in r.subjects for r in records)
        # share memo: every lookup misses, and equal unions split differently
        distinct = SWEEP_CORPORA["distinct-patterns"].records
        patterns = {tuple(a.countries for a in r.authors) for r in distinct}
        assert len(patterns) == len(distinct)
        assert len({c for r in distinct for a in r.authors for c in a.countries}) == 60
        same_union = SWEEP_CORPORA["same-union"].records
        assert len({tuple(a.countries for a in r.authors) for r in same_union}) == len(_SPLITS)
        # equal patterns held in distinct tuple objects
        assert len({id(r.authors) for r in same_union}) == len(same_union)
        # parsed corpora share tuples, one per distinct pattern here
        for name in ("wide-jsonl", "same-union-csv"):
            parsed = SWEEP_CORPORA[name].records
            patterns = {tuple(a.countries for a in r.authors) for r in parsed}
            assert len({id(r.authors) for r in parsed}) == len(patterns) < len(parsed)
        # one tuple object under records of different subjects
        reused = SWEEP_CORPORA["reused-tuples"].records
        subjects_by_tuple: dict = {}
        for r in reused:
            subjects_by_tuple.setdefault(id(r.authors), set()).add(r.subjects)
        assert len(subjects_by_tuple) <= 12
        assert all(len(subjects) > 1 for subjects in subjects_by_tuple.values())

    @pytest.mark.parametrize("name", SWEEP_CORPORA)
    @pytest.mark.parametrize("mode", list(FractionalMode))
    def test_country_metrics(self, name, mode):
        corpus = SWEEP_CORPORA[name]
        wc = oracle_count(corpus, CountMethod.WHOLE, ALL_FIELDS)
        fc = oracle_count(corpus, mode.method, ALL_FIELDS)
        icp = oracle_icp_count(corpus)
        aggregates = [
            CountryAggregate(c, wc.score(c), fc.score(c), int(icp.score(c)))
            for c in wc.countries()
            if fc.score(c) > 0
        ]
        expected = sorted(derive_metrics(aggregates), key=lambda m: (-m.wc, m.country))
        new = country_metrics(corpus, mode=mode)
        assert new == expected
        assert repr(new) == repr(expected)

    def test_unknown_group_raises_before_counting(self, monkeypatch):
        def no_shares(*args):
            raise AssertionError("counted a record before checking the groups")

        # a whole count prices its first record by the record's country union
        monkeypatch.setattr(counting, "_union_shares", no_shares)
        with pytest.raises(UnknownGroupError):
            subject_group_count(
                SWEEP_CORPORA["messy"], CountMethod.WHOLE, [ALL_FIELDS, "nope"]
            )

    def test_subjects_must_be_hashable(self):
        # group membership is memoized per subject set, so subjects must be
        # hashable, as the frozenset that PublicationRecord declares is
        record = rec("a", ["US"], subjects=("PHYS",))
        assert whole_count(Corpus((record,))).scores == {"US": 1.0}
        loose = replace(record, subjects=set(record.subjects))
        with pytest.raises(TypeError, match="unhashable"):
            whole_count(Corpus((loose,)))
