from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bibrank import counting, ingest
from bibrank.collaboration import country_metrics, derive_metrics, icp_count, is_international
from bibrank.counting import (
    CountMethod,
    FractionalMode,
    fractional_count,
    slice_corpus,
    subject_group_count,
    whole_count,
)
from bibrank.errors import UnknownGroupError
from bibrank.ingest import (
    DEFAULT_DOC_TYPES,
    CountryAggregate,
    apply_filter,
    parse_csv,
    parse_jsonl,
    to_csv,
    to_jsonl,
)
from bibrank.model import (
    ALL_FIELDS,
    UNRESOLVED,
    AuthorRef,
    Corpus,
    DocType,
    PublicationRecord,
    SubjectScheme,
    countries_of,
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

FRACTIONAL = (CountMethod.FRACTIONAL_AUTHOR, CountMethod.FRACTIONAL_COUNTRY)


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
        table = fractional_count(mixed_corpus, CountMethod.FRACTIONAL_COUNTRY)
        expected = oracle_fractional_country(mixed_corpus)
        for country, share in expected.items():
            assert table.scores[country] == pytest.approx(float(share), abs=1e-12)

    def test_domestic_record_contributes_exactly_one(self):
        # three same-country authors: 3 * (1/3) must not leave float dust
        table = fractional_count(Corpus((rec("p", ["CN"], ["CN"], ["CN"]),)))
        assert table.scores == {"CN": 1.0}

    def test_all_unresolved_record_credits_zz_fully(self):
        for method in FRACTIONAL:
            table = fractional_count(Corpus((rec("p", [], []),)), method)
            assert table.scores == {UNRESOLVED: 1.0}

    def test_score_lookup_defaults_to_zero(self, mixed_corpus):
        assert fractional_count(mixed_corpus).score("XX") == 0.0

    def test_whole_method_is_refused(self, mixed_corpus):
        with pytest.raises(ValueError, match="not a fractional counting method"):
            fractional_count(mixed_corpus, CountMethod.WHOLE)

    def test_fractional_mode_members_are_the_fractional_methods(self):
        assert FractionalMode.AUTHOR is CountMethod.FRACTIONAL_AUTHOR
        assert FractionalMode.COUNTRY is CountMethod.FRACTIONAL_COUNTRY


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
    for method in FRACTIONAL:
        table = fractional_count(corpus, method)
        assert table.total() == pytest.approx(len(corpus), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_fractional_never_exceeds_whole(corpus):
    wc = whole_count(corpus)
    for method in FRACTIONAL:
        fc = fractional_count(corpus, method)
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
    for method in FRACTIONAL:
        assert (
            fractional_count(shuffled, method).scores
            == fractional_count(corpus, method).scores
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
    for method, oracle in zip(FRACTIONAL, (oracle_fractional_author, oracle_fractional_country)):
        table = fractional_count(corpus, method)
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


def _one_tuple(seed: int, n_records: int) -> Corpus:
    """One international authors tuple, with an unresolved author, under most
    records and differing subjects, among a few records of their own."""
    rng = random.Random(seed)
    shared = (AuthorRef(frozenset({"IN", "US"})), AuthorRef(frozenset({"US"})), AuthorRef())
    return Corpus(
        tuple(
            PublicationRecord(
                f"o{rng.randrange(10**6):06d}-{i}",
                2016,
                DocType.ARTICLE,
                frozenset(rng.sample(_SWEEP_SUBJECTS, rng.randint(0, 3))),
                shared if i % 50 else (AuthorRef(frozenset({rng.choice(_WIDE_COUNTRIES)})),),
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
        # one kind under 5,096 records: whole counts in the thousands, long fractional sums
        "one-tuple": _one_tuple(29, 5_200),
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
        for method in FRACTIONAL:
            _assert_same_table(
                fractional_count(corpus, method), oracle_count(corpus, method, ALL_FIELDS)
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
        # one tuple object under more than 5,000 records of differing subjects
        repeated = SWEEP_CORPORA["one-tuple"].records
        by_tuple: dict = {}
        for r in repeated:
            by_tuple.setdefault(id(r.authors), []).append(r)
        most = max(by_tuple.values(), key=len)
        assert len(most) > 5_000
        assert len({r.subjects for r in most}) > 1
        assert is_international(most[0]) and any(a.unresolved for a in most[0].authors)

    @pytest.mark.parametrize("name", SWEEP_CORPORA)
    @pytest.mark.parametrize("method", FRACTIONAL)
    def test_country_metrics(self, name, method):
        corpus = SWEEP_CORPORA[name]
        wc = oracle_count(corpus, CountMethod.WHOLE, ALL_FIELDS)
        fc = oracle_count(corpus, method, ALL_FIELDS)
        icp = oracle_icp_count(corpus)
        aggregates = [
            CountryAggregate(c, wc.score(c), fc.score(c), int(icp.score(c)))
            for c in wc.countries()
            if fc.score(c) > 0
        ]
        expected = sorted(derive_metrics(aggregates), key=lambda m: (-m.wc, m.country))
        new = country_metrics(corpus, method=method)
        assert new == expected
        assert repr(new) == repr(expected)

    def test_unknown_group_raises_before_counting(self):
        # walking the first record in id order raises, since its subjects
        # cannot key the membership memo; the group check comes first
        records = sorted(SWEEP_CORPORA["messy"].records, key=lambda r: r.id)
        loose = replace(records[0], subjects=set(records[0].subjects))
        corpus = Corpus((loose, *records[1:]), SWEEP_SCHEME)
        with pytest.raises(TypeError, match="unhashable"):
            subject_group_count(corpus, CountMethod.WHOLE, [ALL_FIELDS])
        for method in CountMethod:
            with pytest.raises(UnknownGroupError):
                subject_group_count(corpus, method, [ALL_FIELDS, "nope"])

    @pytest.mark.parametrize("name", ["wide-jsonl", "same-union", "one-tuple", "messy-csv"])
    def test_each_kind_and_union_priced_once(self, name, monkeypatch):
        corpus = SWEEP_CORPORA[name]
        methods = [*CountMethod, counting._ICP]
        priced_authors, priced_unions = [], []
        author_shares, union_shares = counting._fractional_author_shares, counting._union_shares

        def by_authors(pattern):
            priced_authors.append(pattern)
            return author_shares(pattern)

        def by_union(union, unresolved, method):
            priced_unions.append((union, unresolved, method))
            return union_shares(union, unresolved, method)

        monkeypatch.setattr(counting, "_fractional_author_shares", by_authors)
        monkeypatch.setattr(counting, "_union_shares", by_union)
        counting._sweep(corpus, methods, [ALL_FIELDS, *SWEEP_SCHEME.names])
        assert len(priced_authors) == len({id(r.authors) for r in corpus.records})
        keys = {(countries_of(r), any(a.unresolved for a in r.authors)) for r in corpus.records}
        assert len(priced_unions) == len(set(priced_unions))
        assert set(priced_unions) == {(*key, m) for key in keys for m in methods}
        # a sweep without a union-priced method prices no union
        priced_authors.clear()
        priced_unions.clear()
        counting._sweep(corpus, [CountMethod.FRACTIONAL_AUTHOR], [ALL_FIELDS])
        assert len(priced_authors) == len({id(r.authors) for r in corpus.records})
        assert priced_unions == []

    def test_subjects_must_be_hashable(self):
        # group membership is memoized per subject set, so subjects must be
        # hashable, as the frozenset that PublicationRecord declares is
        record = rec("a", ["US"], subjects=("PHYS",))
        assert whole_count(Corpus((record,))).scores == {"US": 1.0}
        loose = replace(record, subjects=set(record.subjects))
        with pytest.raises(TypeError, match="unhashable"):
            whole_count(Corpus((loose,)))


class TestShuffledInput:
    """A corpus counts in id order whatever its input order: a shuffled copy,
    filtered and sliced, gives the ordered copy's tables bit for bit."""

    ORDERED = random_corpus(random.Random(23), 400, SWEEP_SCHEME)
    FILTERS = [
        {},
        {"years": {2016, 2017}},
        {"doc_types": DEFAULT_DOC_TYPES},
        {"years": {2015}, "doc_types": {DocType.ARTICLE, DocType.OTHER}},
    ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("filters", FILTERS, ids=repr)
    def test_filtered_tables_match_the_ordered_corpus(self, seed, filters):
        shuffled = _shuffled(self.ORDERED, seed)
        assert [r.id for r in shuffled] != [r.id for r in self.ORDERED]
        ordered = apply_filter(self.ORDERED, **filters)
        kept = apply_filter(shuffled, **filters)
        assert list(kept) == [r for r in shuffled if r in ordered.records]
        assert sorted(kept, key=lambda r: r.id) == list(ordered)
        for method in CountMethod:
            expected = subject_group_count(ordered, method)
            got = subject_group_count(kept, method)
            assert list(got) == list(expected)
            for group in expected:
                _assert_same_table(got[group], expected[group])
                sliced = slice_corpus(kept, group)
                _assert_same_table(
                    subject_group_count(sliced, method, [ALL_FIELDS])[ALL_FIELDS],
                    subject_group_count(slice_corpus(ordered, group), method, [ALL_FIELDS])[ALL_FIELDS],
                )

    def test_sums_depend_on_the_order(self):
        # so the match above shows an id order, not an order-free sum
        records = sorted(self.ORDERED.records, key=lambda r: r.id)
        forward = fractional_count(Corpus(tuple(records))).scores
        scores: dict[str, float] = {}
        for r in reversed(records):
            for country, share in fractional_count(Corpus((r,))).scores.items():
                scores[country] = scores.get(country, 0.0) + share
        assert forward != dict(sorted(scores.items()))


class TestStreamedWalk:
    """A walk fed by a parse as it reads, with no record or corpus built,
    gives the tables of the parsed corpus bit for bit."""

    GROUPS = [ALL_FIELDS, *SWEEP_SCHEME.names]
    METHODS = [[m] for m in CountMethod] + [[*CountMethod, counting._ICP]]

    @pytest.mark.parametrize("name", SWEEP_CORPORA)
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("methods", METHODS, ids=lambda ms: "+".join(str(m) for m in ms))
    def test_streamed_tables_match_the_parsed_corpus(self, monkeypatch, name, fmt, methods):
        # written in id order, as a file that streams to its end is
        ordered = Corpus(SWEEP_CORPORA[name]._by_id, SWEEP_SCHEME)
        text, parse = (to_jsonl(ordered), parse_jsonl) if fmt == "jsonl" else (to_csv(ordered), parse_csv)
        parsed, report = parse(text, scheme=SWEEP_SCHEME)
        walk = counting._Walk(SWEEP_SCHEME, methods, self.GROUPS)
        lists: list[list] = []

        def sink(counted):
            lists.append(list(counted))
            walk.feed(counted)

        # a streamed record is handed on as a plain tuple, never built
        monkeypatch.setattr(ingest, "PublicationRecord", None)
        empty, streamed_report = parse(text, scheme=SWEEP_SCHEME, _sink=sink)
        monkeypatch.undo()
        # the sink took every full list of records, then the rest, and the
        # corpus is empty
        assert len(parsed) == len(ordered)
        full, rest = divmod(len(parsed), ingest._FEED_RECORDS)
        assert [len(counted) for counted in lists] == [ingest._FEED_RECORDS] * full + [rest]
        assert [c for counted in lists for c in counted] == [
            (r.year, r.doc_type, r.subjects, r.authors) for r in parsed.records
        ]
        assert list(empty) == []
        assert streamed_report == report
        tables = walk.credit()
        for method in methods:
            if method == counting._ICP:
                _assert_same_table(tables[method][ALL_FIELDS], icp_count(parsed))
                continue
            expected = subject_group_count(parsed, method, self.GROUPS)
            assert list(tables[method]) == list(expected)
            for group in expected:
                _assert_same_table(tables[method][group], expected[group])

    def test_walk_holds_each_kinds_tuple(self):
        # each record gets a fresh authors tuple that is freed once the walk
        # has taken it, so its id is free for the next author list to reuse
        corpus = SWEEP_CORPORA["messy"]
        walk = counting._Walk(SWEEP_SCHEME, list(CountMethod), self.GROUPS)
        walk.feed((r.year, r.doc_type, r.subjects, tuple(list(r.authors))) for r in corpus._by_id)
        tables = walk.credit()
        for method in CountMethod:
            expected = subject_group_count(corpus, method, self.GROUPS)
            for group in expected:
                _assert_same_table(tables[method][group], expected[group])

    @pytest.mark.parametrize("last", ["p00000", "p01499", "p00999"])
    def test_an_id_that_does_not_increase_stops_the_stream(self, last):
        # the sink is handed whole lists of records as they fill, and none
        # after; the lines repeat their pieces, so most are known lines
        ids = [f"p{i:05d}" for i in range(1500)] + [last]
        text = "".join(
            f'{{"id":"{i}","year":{2000 + n % 7},"doc_type":"article","subjects":[],'
            f'"authors":[{{"countries":["US"]}}]}}\n'
            for n, i in enumerate(ids)
        )
        seen: list = []
        with pytest.raises(ingest._Unordered):
            parse_jsonl(text, _sink=seen.extend)
        # the same text read into a corpus takes each id once
        corpus, report = parse_jsonl(text)
        assert seen == [(r.year, r.doc_type, r.subjects, r.authors) for r in corpus.records[: ingest._FEED_RECORDS]]
        assert sorted(r.id for r in corpus) == sorted(set(ids))
        assert report.records_rejected == len(ids) - len(set(ids))
