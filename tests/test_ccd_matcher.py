"""Tests for the staged clone-matching engine (repro.ccd.matcher).

The central property is **backend parity**: the pruned ``myers``
backend must return :class:`CloneMatch` lists byte-identical (ids *and*
float scores) to the ``exact`` backend — and both must agree
with a naive re-derivation of the seed semantics (count-every-posting
candidates + Algorithm 1) — across randomized fingerprint corpora and
η/ε grids, including unicode and >64-character sub-fingerprints (the
multi-word big-int path of the bit-parallel kernel).
"""

import random
from collections import defaultdict

import pytest

from repro.ccd.detector import CloneDetector
from repro.ccd.fingerprint import Fingerprint
from repro.ccd.fuzzyhash import BASE64_ALPHABET
from repro.ccd.matcher import (
    DEFAULT_SIMILARITY_BACKEND,
    SIMILARITY_BACKENDS,
    CloneMatch,
    ExactSimilarityBackend,
    MatchPipeline,
    MatchStats,
    MyersSimilarityBackend,
    resolve_similarity_backend,
)
from repro.ccd.ngram_index import NGramIndex, ngrams
from repro.ccd.similarity import order_independent_similarity

PRUNED_BACKENDS = ("myers",)

ETA_GRID = (0.0, 0.2, 0.5, 0.8, 1.0)
EPSILON_GRID = (0.0, 30.0, 50.0, 70.0, 90.0, 100.0)


# ---------------------------------------------------------------------------
# randomized fingerprint corpora (seeded, stdlib only)
# ---------------------------------------------------------------------------

def random_sub(rng, low=1, high=40):
    return "".join(rng.choice(BASE64_ALPHABET) for _ in range(rng.randint(low, high)))


def mutate(rng, sub, max_edits=3):
    sub = list(sub)
    for _ in range(rng.randint(0, max_edits)):
        position = rng.randrange(len(sub)) if sub else 0
        operation = rng.random()
        if operation < 0.4 and sub:
            sub[position] = rng.choice(BASE64_ALPHABET)
        elif operation < 0.7 and sub:
            del sub[position]
        else:
            sub.insert(position, rng.choice(BASE64_ALPHABET))
    return "".join(sub)


def random_corpus(rng, documents=50):
    """Fingerprints with heavy sub-fingerprint reuse (clone-rich)."""
    pool = [random_sub(rng) for _ in range(15)]
    fingerprints = {}
    for index in range(documents):
        subs = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.7:
                subs.append(mutate(rng, rng.choice(pool)))
            else:
                subs.append(random_sub(rng, 0, 25))  # may be empty
        fingerprints[f"doc{index}"] = Fingerprint.parse(".".join(subs))
    return pool, fingerprints


def random_queries(rng, pool, fingerprints):
    queries = [
        Fingerprint.parse(".".join(
            mutate(rng, rng.choice(pool)) for _ in range(rng.randint(1, 4))))
        for _ in range(6)
    ]
    queries.append(Fingerprint.parse(""))    # empty fingerprint
    queries.append(Fingerprint.parse("ab"))  # shorter than N: whole-text gram
    queries.append(rng.choice(list(fingerprints.values())))  # exact document
    return queries


def build_index(fingerprints, ngram_size=3):
    index = NGramIndex(ngram_size=ngram_size)
    for document_id, fingerprint in fingerprints.items():
        index.add(document_id, fingerprint.text)
    return index


def seed_semantics_matches(fingerprints, query, eta, epsilon, ngram_size=3):
    """The pre-refactor behaviour, re-derived naively and independently."""
    query_grams = ngrams(query.text, ngram_size)
    matches = []
    if query_grams:
        counts = defaultdict(int)
        for document_id, fingerprint in fingerprints.items():
            document_grams = ngrams(fingerprint.text, ngram_size)
            for gram in query_grams:
                if gram in document_grams:
                    counts[document_id] += 1
        required = eta * len(query_grams)
        for document_id, count in counts.items():
            if count >= required:
                score = order_independent_similarity(query, fingerprints[document_id])
                if score >= epsilon:
                    matches.append(CloneMatch(document_id=document_id, similarity=score))
    matches.sort(key=lambda match: (-match.similarity, str(match.document_id)))
    return matches


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

class TestBackendParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_myers_equals_exact_equals_seed_semantics(self, seed):
        rng = random.Random(seed)
        pool, fingerprints = random_corpus(rng)
        index = build_index(fingerprints)
        exact = MatchPipeline(index, fingerprints, backend="exact")
        pruned = {backend: MatchPipeline(index, fingerprints, backend=backend)
                  for backend in PRUNED_BACKENDS}
        for query in random_queries(rng, pool, fingerprints):
            for eta in ETA_GRID:
                for epsilon in EPSILON_GRID:
                    exact_matches = exact.match(query, eta, epsilon)
                    for backend, pipeline in pruned.items():
                        assert pipeline.match(query, eta, epsilon) == exact_matches, \
                            f"{backend} mismatch at eta={eta} epsilon={epsilon}"
                    # not approx: scores must be byte-identical floats
                    assert exact_matches == seed_semantics_matches(
                        fingerprints, query, eta, epsilon), \
                        f"seed-semantics mismatch at eta={eta} epsilon={epsilon}"

    def test_parity_on_larger_ngram_size(self):
        rng = random.Random(99)
        pool, fingerprints = random_corpus(rng, documents=30)
        index = build_index(fingerprints, ngram_size=5)
        exact = MatchPipeline(index, fingerprints, backend="exact")
        pruned = {backend: MatchPipeline(index, fingerprints, backend=backend)
                  for backend in PRUNED_BACKENDS}
        for query in random_queries(rng, pool, fingerprints):
            for epsilon in EPSILON_GRID:
                exact_matches = exact.match(query, 0.5, epsilon)
                for pipeline in pruned.values():
                    assert pipeline.match(query, 0.5, epsilon) == exact_matches

    def test_detector_level_parity(self):
        sources = {
            "wallet": "contract W { function w(uint a) { msg.sender.transfer(a); } }",
            "guarded": """
contract G {
    address owner;
    function w(uint a) { require(msg.sender == owner); msg.sender.transfer(a); }
}
""",
            "token": """
contract T {
    mapping(address => uint) b;
    function mint(address t, uint v) public { b[t] += v; }
    function burn(address f, uint v) public { b[f] -= v; }
}
""",
        }
        detectors = {}
        for backend in ("exact",) + PRUNED_BACKENDS:
            detector = CloneDetector(
                ngram_threshold=0.3, similarity_threshold=0.5,
                similarity_backend=backend)
            detector.add_corpus(sources.items())
            detectors[backend] = detector
        query = "function send(uint v) { msg.sender.transfer(v); }"
        for epsilon in (0.3, 0.5, 0.7, 0.95):
            expected = detectors["exact"].find_clones(
                query, similarity_threshold=epsilon)
            for backend in PRUNED_BACKENDS:
                assert detectors[backend].find_clones(
                    query, similarity_threshold=epsilon) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_parity_on_long_sub_fingerprints(self, seed):
        # sub-fingerprints well past 64 characters: the bit-parallel
        # kernel's bitvectors span multiple machine words (Python big
        # ints), a path the short base64 corpora never reach
        rng = random.Random(1000 + seed)
        pool = [random_sub(rng, low=70, high=160) for _ in range(8)]
        fingerprints = {
            f"doc{index}": Fingerprint.parse(".".join(
                mutate(rng, rng.choice(pool), max_edits=6)
                for _ in range(rng.randint(1, 4))))
            for index in range(20)
        }
        index = build_index(fingerprints)
        exact = MatchPipeline(index, fingerprints, backend="exact")
        pruned = {backend: MatchPipeline(index, fingerprints, backend=backend)
                  for backend in PRUNED_BACKENDS}
        queries = [Fingerprint.parse(mutate(rng, rng.choice(pool), max_edits=8))
                   for _ in range(5)]
        for query in queries:
            for eta in (0.2, 0.5):
                for epsilon in EPSILON_GRID:
                    exact_matches = exact.match(query, eta, epsilon)
                    for backend, pipeline in pruned.items():
                        assert pipeline.match(query, eta, epsilon) == exact_matches, \
                            f"{backend} mismatch at eta={eta} epsilon={epsilon}"
        assert pruned["myers"].stats.myers_words > 0

    def test_parity_on_unicode_sub_fingerprints(self):
        # non-ascii characters exercise the Peq mask table with a sparse
        # alphabet far outside base64
        rng = random.Random(4242)
        alphabet = "αβγδε汉字漢字ß€✓é́"
        pool = ["".join(rng.choice(alphabet) for _ in range(rng.randint(8, 30)))
                for _ in range(6)]
        fingerprints = {
            f"doc{index}": Fingerprint.parse(".".join(
                rng.choice(pool) for _ in range(rng.randint(1, 3))))
            for index in range(12)
        }
        index = build_index(fingerprints)
        exact = MatchPipeline(index, fingerprints, backend="exact")
        pruned = {backend: MatchPipeline(index, fingerprints, backend=backend)
                  for backend in PRUNED_BACKENDS}
        for query_text in pool:
            query = Fingerprint.parse(query_text)
            for epsilon in EPSILON_GRID:
                exact_matches = exact.match(query, 0.5, epsilon)
                for backend, pipeline in pruned.items():
                    assert pipeline.match(query, 0.5, epsilon) == exact_matches, \
                        f"{backend} unicode mismatch at epsilon={epsilon}"

    def test_empty_corpus(self):
        pipeline = MatchPipeline(NGramIndex(3), {}, backend="myers")
        assert pipeline.match(Fingerprint.parse("ABCDEF"), 0.5, 70.0) == []

    def test_document_with_only_empty_subs(self):
        # a document whose text survives but whose subs are all empty
        fingerprints = {"empty": Fingerprint(text="ABCDEF", contracts=[[""]])}
        index = build_index(fingerprints)
        query = Fingerprint.parse("ABCDEF")
        for backend in ("exact",) + PRUNED_BACKENDS:
            pipeline = MatchPipeline(index, fingerprints, backend=backend)
            # score 0.0: matches only when epsilon is 0
            assert pipeline.match(query, 0.5, 0.0) == [CloneMatch("empty", 0.0)]
            assert pipeline.match(query, 0.5, 50.0) == []


# ---------------------------------------------------------------------------
# backend registry / resolution
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_default_is_myers(self):
        assert DEFAULT_SIMILARITY_BACKEND == "myers"
        assert isinstance(resolve_similarity_backend(None), MyersSimilarityBackend)
        assert CloneDetector().similarity_backend == "myers"

    def test_names_resolve(self):
        assert isinstance(resolve_similarity_backend("exact"), ExactSimilarityBackend)
        assert isinstance(resolve_similarity_backend("myers"), MyersSimilarityBackend)
        assert set(SIMILARITY_BACKENDS) == {"exact", "myers"}

    def test_retired_bounded_name_resolves_to_myers(self):
        # old manifests, study checkpoints and wire options name the
        # retired banded-DP backend; it made myers's pruning decisions
        assert isinstance(resolve_similarity_backend("bounded"), MyersSimilarityBackend)
        assert CloneDetector(similarity_backend="bounded").similarity_backend == "myers"

    def test_instance_passes_through(self):
        backend = ExactSimilarityBackend()
        assert resolve_similarity_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown similarity backend"):
            resolve_similarity_backend("fuzzy")
        with pytest.raises(ValueError, match="unknown similarity backend"):
            CloneDetector(similarity_backend="fuzzy")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

class TestMatchStats:
    def test_stats_accumulate_across_queries(self):
        rng = random.Random(7)
        pool, fingerprints = random_corpus(rng, documents=25)
        index = build_index(fingerprints)
        pipeline = MatchPipeline(index, fingerprints, backend="myers")
        for query in random_queries(rng, pool, fingerprints):
            pipeline.match(query, 0.5, 70.0)
        stats = pipeline.stats
        assert stats.queries == 9
        assert stats.verified == stats.candidates_generated
        assert stats.matched <= stats.verified
        assert stats.candidate_seconds >= 0.0
        assert stats.verify_seconds >= 0.0
        assert stats.pairs_scored + stats.memo_hits > 0

    def test_exact_backend_computes_every_pair(self):
        fingerprints = {"doc": Fingerprint.parse("AAAA.BBBB")}
        index = build_index(fingerprints)
        pipeline = MatchPipeline(index, fingerprints, backend="exact")
        pipeline.match(Fingerprint.parse("AAAA.CCCC"), 0.1, 0.0)
        # "AAAA" scores 100 against the first doc sub and short-circuits
        # (seed semantics); "CCCC" is scored against both doc subs
        assert pipeline.stats.pairs_scored == 3
        assert pipeline.stats.pairs_skipped_by_bound == 0
        assert pipeline.stats.pairs_cutoff == 0

    def test_merge_and_as_dict(self):
        first = MatchStats(queries=1, pairs_scored=10, verify_seconds=0.5)
        second = MatchStats(queries=2, pairs_scored=5, verify_seconds=0.25)
        merged = first.merge(second)
        assert merged is first
        assert merged.queries == 3
        assert merged.pairs_scored == 15
        assert merged.verify_seconds == pytest.approx(0.75)
        assert merged.as_dict()["pairs_scored"] == 15

    def test_stage_rows_cover_both_stages(self):
        stages = {row[0] for row in MatchStats().stage_rows()}
        assert stages == {"candidates", "verification", "ingest"}

    def test_detector_exposes_match_stats(self):
        detector = CloneDetector()
        detector.add_corpus([
            ("a", "contract A { function f(uint x) { msg.sender.transfer(x); } }")])
        detector.find_clones("function g(uint y) { msg.sender.transfer(y); }")
        assert detector.match_stats.queries == 1


# ---------------------------------------------------------------------------
# staged candidate generation
# ---------------------------------------------------------------------------

class TestCandidateGeneration:
    @pytest.mark.parametrize("seed", range(5))
    def test_pruned_generation_equals_naive_counting(self, seed):
        rng = random.Random(seed)
        _pool, fingerprints = random_corpus(rng, documents=40)
        index = build_index(fingerprints)
        document_grams = {document_id: ngrams(fingerprint.text, 3)
                          for document_id, fingerprint in fingerprints.items()}
        for fingerprint in list(fingerprints.values())[:10]:
            query_grams = ngrams(fingerprint.text, 3)
            for eta in ETA_GRID:
                got = set(index.candidates(fingerprint.text, eta))
                expected = set()
                if query_grams:
                    required = eta * len(query_grams)
                    for document_id, grams in document_grams.items():
                        if grams and len(query_grams & grams) >= required \
                                and query_grams & grams:
                            expected.add(document_id)
                assert got == expected, f"candidate mismatch at eta={eta}"

    def test_stats_counters_populated(self):
        index = NGramIndex(3)
        index.add("tiny", "ABC")      # one gram: length-prunable at eta 0.75
        index.add("full", "ABCDEF")   # all four query grams
        for bulk in range(5):
            # five documents sharing the three *common* grams: the rare
            # gram "ABC" (carrying "tiny") leads the ascending-df walk
            index.add(f"bulk{bulk}", "BCDEFG")
        counters: dict = {}
        candidates = index.candidates_from_grams(
            ngrams("ABCDEF", 3), 0.75, stats=counters)
        assert set(candidates) == {"full"} | {f"bulk{i}" for i in range(5)}
        assert counters["grams"] == 4
        assert counters["postings_scanned"] > 0
        assert counters["pruned_by_length"] == 1   # "tiny": 1 gram < required 3
        assert counters["candidates_considered"] == 6


class TestThreadSafety:
    def test_concurrent_queries_do_not_lose_stat_updates(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(11)
        pool, fingerprints = random_corpus(rng, documents=30)
        index = build_index(fingerprints)
        pipeline = MatchPipeline(index, fingerprints, backend="myers")
        queries = [
            Fingerprint.parse(".".join(
                mutate(rng, rng.choice(pool)) for _ in range(rng.randint(1, 3))))
            for _ in range(64)
        ]
        with ThreadPoolExecutor(max_workers=8) as executor:
            results = list(executor.map(
                lambda query: pipeline.match(query, 0.5, 70.0), queries))
        assert pipeline.stats.queries == len(queries)
        assert pipeline.stats.matched == sum(len(matches) for matches in results)
        assert pipeline.stats.verified == pipeline.stats.candidates_generated


class TestPickling:
    def test_detector_round_trips_through_pickle(self):
        import pickle

        detector = CloneDetector()
        detector.add_corpus([
            ("a", "contract A { function f(uint x) { msg.sender.transfer(x); } }")])
        clone = pickle.loads(pickle.dumps(detector))
        query = "function g(uint y) { msg.sender.transfer(y); }"
        assert clone.find_clones(query) == detector.find_clones(query)
        assert clone.similarity_backend == detector.similarity_backend
