"""Tests for the bit-parallel distance kernel and the corpus-global score memo.

Two properties carry the ``myers`` backend:

* **kernel parity** — :func:`myers_bounded_edit_distance` returns
  values byte-identical to the reference DP implementations on every
  input, including unicode alphabets and strings past 64 characters (the
  multi-word big-int path), and

* **memo lifecycle** — :class:`ScoreMemoTable` persists scores through
  its SQLite tier (a reopened table is warm: a repeated workload
  re-scores zero pairs) and drops every row of a sub-fingerprint whose
  last carrying document is retired.
"""

import pickle
import random
import sqlite3

import pytest

from repro.api import AnalysisSession
from repro.ccd.detector import CloneDetector
from repro.ccd.index_io import CORPUS_DATABASE_NAME, load_index, save_index
from repro.ccd.score_memo import (
    SCORE_MEMO_FORMAT_VERSION,
    SCORES_SCHEMA,
    ScoreMemoTable,
    memo_key,
)
from repro.ccd.similarity import (
    edit_distance,
    myers_bounded_edit_distance,
    myers_word_count,
)
from repro.core.sqlite import Database

#: the file of a disk tier of its own
SCORE_MEMO_NAME = "scores.sqlite"


def find_clones(detector, queries):
    """Per-query matches of ``detector``, through the session's ``ccd`` analyzer."""
    with AnalysisSession(store=detector.store) as session:
        return [envelope.payload for envelope in session.run(
            queries, analyses=["ccd"], options={"ccd": {"detector": detector}})]


ALPHABETS = ("ab", "abcdef", "ABCDEFGHIJabcdefghij0123+/", "αβγ汉字ß€✓")


def dp_distance(first, second):
    """Textbook full-matrix Levenshtein: the independent oracle."""
    previous = list(range(len(second) + 1))
    for row, char_first in enumerate(first, start=1):
        current = [row]
        for column, char_second in enumerate(second, start=1):
            current.append(min(current[-1] + 1, previous[column] + 1,
                               previous[column - 1] + (char_first != char_second)))
        previous = current
    return previous[-1]


# ---------------------------------------------------------------------------
# kernel parity
# ---------------------------------------------------------------------------

class TestKernelParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_parity_against_dp_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            alphabet = rng.choice(ALPHABETS)
            first = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 45)))
            second = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 45)))
            expected = dp_distance(first, second)
            assert edit_distance(first, second) == expected
            for limit in (0, 1, 2, 5, 12, 100):
                want = expected if expected <= limit else None
                assert myers_bounded_edit_distance(first, second, limit) == want, \
                    (first, second, limit)

    @pytest.mark.parametrize("seed", range(3))
    def test_parity_past_64_characters(self, seed):
        # bitvectors wider than one machine word: Python big ints carry
        # the pattern dimension across word boundaries transparently
        rng = random.Random(500 + seed)
        for _ in range(30):
            alphabet = rng.choice(ALPHABETS)
            first = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 200)))
            edited = list(first)
            for _ in range(rng.randint(0, 12)):
                position = rng.randrange(len(edited))
                if rng.random() < 0.5:
                    edited[position] = rng.choice(alphabet)
                else:
                    del edited[position]
            second = "".join(edited)
            expected = dp_distance(first, second)
            for limit in (3, 10, 25):
                want = expected if expected <= limit else None
                assert myers_bounded_edit_distance(first, second, limit) == want

    def test_word_count(self):
        assert myers_word_count("a" * 64, "abc") == 3
        assert myers_word_count("a" * 65, "abc") == 6
        assert myers_word_count("abc", "a" * 130) == 9
        assert myers_word_count("", "") == 0  # the kernel never runs on empties
        assert myers_word_count("abcd", "") == 1  # floor: one text step


class TestBoundedEdgeRegressions:
    """Pinned edges of the bounded kernel (empty strings, limit 0)."""

    def test_empty_string_edges(self):
        bounded = myers_bounded_edit_distance
        assert bounded("", "", 0) == 0
        assert bounded("", "abc", 3) == 3
        assert bounded("abc", "", 3) == 3
        # d >= |len difference|: a limit below it must bail, not scan
        assert bounded("", "abc", 2) is None
        assert bounded("abc", "", 2) is None

    def test_limit_zero_edges(self):
        bounded = myers_bounded_edit_distance
        assert bounded("a", "a", 0) == 0
        assert bounded("same", "same", 0) == 0
        assert bounded("a", "b", 0) is None
        assert bounded("", "a", 0) is None

    def test_exact_at_the_limit(self):
        bounded = myers_bounded_edit_distance
        assert bounded("a", "b", 1) == 1
        assert bounded("ab", "ba", 1) is None  # distance 2
        assert bounded("ab", "ba", 2) == 2
        long = "x" * 100
        assert bounded(long, long + "y" * 5, 4) is None
        assert bounded(long, long + "y" * 5, 5) == 5

    def test_pattern_word_boundaries(self):
        # the pattern bitvector fills exactly one or two 64-bit words, or
        # spills one cell past them; x/y edits at both ends defeat the
        # common-affix strip so the full width reaches the kernel
        bounded = myers_bounded_edit_distance
        rng = random.Random(64)
        for length in (63, 64, 65, 127, 128, 129):
            first = "".join(rng.choice("abcd") for _ in range(length))
            for second in ("x" + first[1:-1] + "y", "x" + first + "y",
                           "x" + first[::-1] + "y", "x" + first[length // 2:] + "y"):
                expected = dp_distance(first, second)
                assert bounded(first, second, expected) == expected, (length, second)
                assert bounded(second, first, expected + 1) == expected
                assert bounded(first, second, expected - 1) is None


# ---------------------------------------------------------------------------
# the memo table
# ---------------------------------------------------------------------------

class TestScoreMemoTable:
    def test_memo_key_is_canonically_ordered(self):
        assert memo_key("b", "a") == ("a", "b") == memo_key("a", "b")
        assert memo_key("x", "x") == ("x", "x")

    def test_first_write_is_final(self):
        memo = ScoreMemoTable()
        key = memo_key("AAA", "BBB")
        memo[key] = 75.0
        memo[key] = 10.0  # scores are pure: a second write is ignored
        assert memo.get(key) == 75.0
        assert len(memo) == 1
        assert key in memo
        assert memo.stats.stores == 1

    def test_stats_track_hits_and_misses(self):
        memo = ScoreMemoTable()
        key = memo_key("AAA", "BBB")
        assert memo.get(key) is None
        memo[key] = 50.0
        assert memo.get(key) == 50.0
        assert memo.stats.hits == 1
        assert memo.stats.misses == 1
        assert memo.stats.hit_rate == 0.5
        data = memo.as_dict()
        assert data["entries"] == 1
        assert data["persistent"] is False

    def test_cutoff_bounds_tighten_and_upgrade(self):
        # negative entries are proven upper bounds (-U: score < U); they
        # only tighten, and an exact score replaces them for good
        memo = ScoreMemoTable()
        key = memo_key("AAA", "BBB")
        memo[key] = -80.0
        assert memo.get(key) == -80.0
        memo[key] = -90.0   # looser bound: ignored
        assert memo.get(key) == -80.0
        memo[key] = -40.0   # tighter bound: replaces
        assert memo.get(key) == -40.0
        memo[key] = 33.0    # exact score: upgrades and is final
        memo[key] = -10.0
        assert memo.get(key) == 33.0

    def test_repr_mentions_tier(self, tmp_path):
        assert "memory" in repr(ScoreMemoTable())
        assert "disk" in repr(ScoreMemoTable(tmp_path / SCORE_MEMO_NAME))


class TestDiskTier:
    def test_write_through_and_warm_reopen(self, tmp_path):
        path = tmp_path / SCORE_MEMO_NAME
        memo = ScoreMemoTable(path)
        memo[memo_key("AAA", "BBB")] = 75.0
        memo[memo_key("AAA", "CCC")] = 25.0
        assert memo.disk_rows() == 2
        memo.close()

        warm = ScoreMemoTable(path)
        assert warm.stats.warm_loaded == 2
        assert warm.get(memo_key("BBB", "AAA")) == 75.0
        assert warm.get(memo_key("CCC", "AAA")) == 25.0
        assert warm.stats.stores == 0  # nothing recomputed, nothing rewritten
        warm.close()

    def test_a_shared_database_tier_joins_its_owners_transactions(self, tmp_path):
        database = Database(tmp_path / "owner.sqlite", SCORES_SCHEMA)
        memo = ScoreMemoTable(database)
        assert memo.persistent
        # one lock for both: the memo never orders its lock against the owner's
        assert memo._lock is database.lock
        memo.register(["AAA"])
        memo[memo_key("query", "AAA")] = 80.0
        statements: list = []
        database.connection.set_trace_callback(statements.append)
        with pytest.raises(RuntimeError):
            with database.transaction():
                memo.release(["AAA"])  # its invalidation joins the transaction
                raise RuntimeError("the owner's write failed")
        database.connection.set_trace_callback(None)
        assert statements[0] == "BEGIN IMMEDIATE"
        assert statements[1].startswith("DELETE FROM scores")
        assert memo.disk_rows() == 1  # rolled back with the owner's writes
        database.close()

    def test_corrupt_tier_degrades_to_cold(self, tmp_path):
        path = tmp_path / SCORE_MEMO_NAME
        ScoreMemoTable(path).close()
        # another process still has the tier open, so its -wal/-shm files
        # outlive the failed open below and must be moved aside with it
        holder = sqlite3.connect(str(path))
        holder.execute("SELECT COUNT(*) FROM scores").fetchone()
        path.write_bytes(b"this is not a sqlite database at all......")
        try:
            memo = ScoreMemoTable(path)
        finally:
            holder.close()
        assert memo.stats.warm_loaded == 0
        memo[memo_key("AAA", "BBB")] = 30.0
        assert memo.disk_rows() == 1
        for suffix in ("", "-wal", "-shm"):
            assert (tmp_path / (SCORE_MEMO_NAME + suffix + ".corrupt")).exists()
        memo.close()

    def test_format_version_mismatch_discards_rows(self, tmp_path):
        path = tmp_path / SCORE_MEMO_NAME
        memo = ScoreMemoTable(path)
        memo[memo_key("AAA", "BBB")] = 30.0
        connection = memo._connection
        connection.execute("REPLACE INTO meta (key, value) "
                           "VALUES ('format_version', ?)",
                           (str(SCORE_MEMO_FORMAT_VERSION + 1),))
        memo.close()
        reopened = ScoreMemoTable(path)
        assert reopened.stats.warm_loaded == 0
        assert reopened.disk_rows() == 0
        reopened.close()

    def test_pickle_round_trip_keeps_scores_and_tier(self, tmp_path):
        path = tmp_path / SCORE_MEMO_NAME
        memo = ScoreMemoTable(path)
        memo[memo_key("AAA", "BBB")] = 75.0
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.get(memo_key("AAA", "BBB")) == 75.0
        assert clone.persistent
        clone[memo_key("AAA", "CCC")] = 10.0
        assert clone.disk_rows() == 2
        clone.close()
        memo.close()


class TestInvalidation:
    def test_releasing_last_reference_drops_rows_in_both_tiers(self, tmp_path):
        path = tmp_path / SCORE_MEMO_NAME
        memo = ScoreMemoTable(path)
        memo.register(["AAA", "BBB"])
        memo[memo_key("query", "AAA")] = 80.0
        memo[memo_key("query", "BBB")] = 70.0
        memo.release(["AAA"])
        assert memo.get(memo_key("query", "AAA")) is None
        assert memo.get(memo_key("query", "BBB")) == 70.0
        assert memo.stats.invalidated == 1
        assert memo.disk_rows() == 1
        memo.close()

    def test_shared_subs_survive_until_the_last_release(self):
        memo = ScoreMemoTable()
        memo.register(["AAA"])  # doc 1
        memo.register(["AAA"])  # doc 2 carries the same sub
        memo[memo_key("query", "AAA")] = 90.0
        memo.release(["AAA"])   # doc 2 retired: still one live carrier
        assert memo.get(memo_key("query", "AAA")) == 90.0
        memo.release(["AAA"])   # last carrier gone
        assert memo.get(memo_key("query", "AAA")) is None

    def test_empty_subs_and_unknown_subs_are_ignored(self):
        memo = ScoreMemoTable()
        memo.register(["", "AAA"])
        memo.release(["", "AAA", "never-registered"])
        assert len(memo) == 0

    def test_reingesting_same_document_keeps_scores(self):
        # replacement registers before releasing: subs shared between the
        # old and new fingerprint never transit through refcount zero
        detector = CloneDetector(similarity_threshold=0.5)
        source = "contract A { function f(uint x) { msg.sender.transfer(x); } }"
        detector.add_corpus([("a", source)])
        detector.find_clones("function h(uint y) { msg.sender.transfer(y); }")
        entries = len(detector.score_memo)
        assert entries > 0
        detector.add_corpus([("a", source)])  # identical re-ingest
        assert len(detector.score_memo) == entries
        assert detector.score_memo.stats.invalidated == 0

    def test_detector_retirement_invalidates(self):
        detector = CloneDetector(similarity_threshold=0.5)
        detector.add_corpus([
            ("a", "contract A { function f(uint x) { msg.sender.transfer(x); } }"),
            ("b", "contract B { mapping(address => uint) m; "
                  "function g(address t) { m[t] += 1; } }"),
        ])
        detector.find_clones("function h(uint y) { msg.sender.transfer(y); }")
        assert len(detector.score_memo) > 0
        detector.remove_fingerprint("a")
        detector.remove_fingerprint("b")
        assert len(detector.score_memo) == 0


# ---------------------------------------------------------------------------
# warm index round trip (save -> load -> zero re-scored pairs)
# ---------------------------------------------------------------------------

class TestWarmIndexRoundTrip:
    def test_reloaded_index_rescores_zero_pairs(self, tmp_path):
        detector = CloneDetector(similarity_threshold=0.5)
        detector.add_corpus([
            ("wallet", "contract W { function w(uint a) "
                       "{ msg.sender.transfer(a); } }"),
            ("guarded", "contract G { address o; function w(uint a) "
                        "{ require(msg.sender == o); msg.sender.transfer(a); } }"),
            ("token", "contract T { mapping(address => uint) b; "
                      "function mint(address t, uint v) public { b[t] += v; } }"),
        ])
        queries = [
            ("q1", "function send(uint v) { msg.sender.transfer(v); }"),
            ("q2", "function mint2(address t, uint v) public { b[t] += v; }"),
        ]
        baseline = find_clones(detector, queries)
        assert detector.match_stats.pairs_scored > 0
        save_index(detector, tmp_path / "index")
        assert (tmp_path / "index" / CORPUS_DATABASE_NAME).exists()

        reloaded = load_index(tmp_path / "index")
        assert reloaded.score_memo.persistent
        assert reloaded.score_memo.stats.warm_loaded == len(detector.score_memo)
        assert find_clones(reloaded, queries) == baseline
        # every verified pair was answered by the warm corpus-global memo
        assert reloaded.match_stats.pairs_scored == 0
        assert reloaded.score_memo.stats.hits > 0
        assert reloaded.score_memo.stats.stores == 0


# ---------------------------------------------------------------------------
# invalidation under concurrent ingest (retired-sub store guard)
# ---------------------------------------------------------------------------

class TestConcurrentIngestInvalidation:
    """A dropped memo row must never be resurrected by an in-flight store.

    The race: a worker thread computes a score for sub ``S`` while an
    ingest thread retires the last document carrying ``S``.  If the
    worker's late ``memo[key] = score`` lands after the invalidation, the
    row would outlive its carrier — a leak in memory and (worse) a stale
    row written through to the SQLite tier.  The table refuses stores
    touching retired subs until a re-ingest registers them again.
    """

    def test_late_store_after_retirement_is_refused(self):
        memo = ScoreMemoTable()
        memo.register(["AAA"])
        memo.release(["AAA"])  # last carrier gone; sub now retired
        memo[memo_key("query", "AAA")] = 80.0  # the late, in-flight store
        assert memo.get(memo_key("query", "AAA")) is None
        assert len(memo) == 0
        assert memo.stats.blocked_stores == 1

    def test_never_registered_subs_are_not_blocked(self):
        # plain query-vs-query scoring (no corpus carrier) must still memoize
        memo = ScoreMemoTable()
        memo[memo_key("q1", "q2")] = 50.0
        assert memo.get(memo_key("q1", "q2")) == 50.0
        assert memo.stats.blocked_stores == 0

    def test_reingest_lifts_the_refusal(self):
        memo = ScoreMemoTable()
        memo.register(["AAA"])
        memo.release(["AAA"])
        memo.register(["AAA"])  # the document came back
        memo[memo_key("query", "AAA")] = 80.0
        assert memo.get(memo_key("query", "AAA")) == 80.0
        memo.release(["AAA"])
        assert memo.get(memo_key("query", "AAA")) is None

    def test_disk_tier_never_resurrects_a_dropped_row(self, tmp_path):
        path = tmp_path / SCORE_MEMO_NAME
        memo = ScoreMemoTable(path)
        memo.register(["AAA"])
        memo[memo_key("query", "AAA")] = 80.0
        memo.release(["AAA"])
        assert memo.disk_rows() == 0
        memo[memo_key("query", "AAA")] = 80.0  # late store post-drop
        assert memo.disk_rows() == 0
        memo.close()
        reopened = ScoreMemoTable(path)
        assert len(reopened) == 0  # a warm reopen sees no zombie rows
        reopened.close()

    def test_guard_survives_pickle_round_trip(self):
        memo = ScoreMemoTable()
        memo.register(["AAA"])
        memo.release(["AAA"])
        clone = pickle.loads(pickle.dumps(memo))
        clone[memo_key("query", "AAA")] = 80.0
        assert clone.get(memo_key("query", "AAA")) is None
        assert clone.stats.blocked_stores == 1

    def test_concurrent_ingest_churn_cannot_resurrect_rows(self, tmp_path):
        """Threaded stress: stores race register/release churn.

        Invariant at every quiescent point: a sub whose refcount is zero
        has no rows in either tier, regardless of how stores interleaved
        with the churn.
        """
        import threading

        memo = ScoreMemoTable(tmp_path / SCORE_MEMO_NAME)
        subs = [f"SUB-{index:02d}" for index in range(8)]
        rounds = 60
        start = threading.Barrier(3)

        def churner():
            start.wait()
            for round_index in range(rounds):
                for sub in subs:
                    memo.register([sub])
                for sub in subs:
                    memo.release([sub])

        def storer(tag):
            start.wait()
            for round_index in range(rounds):
                for index, sub in enumerate(subs):
                    memo[memo_key(f"q{tag}-{round_index}", sub)] = float(index)

        threads = [threading.Thread(target=churner),
                   threading.Thread(target=storer, args=(1,)),
                   threading.Thread(target=storer, args=(2,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # churn ended with every sub released: nothing may survive
        assert len(memo) == 0
        assert memo.disk_rows() == 0
        memo.close()
