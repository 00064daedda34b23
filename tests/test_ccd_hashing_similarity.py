"""Tests for fuzzy hashing, fingerprints, similarity, and the N-gram index."""

import pytest

from repro.ccd.fingerprint import Fingerprint, FingerprintGenerator
from repro.ccd.fuzzyhash import BASE64_ALPHABET, FuzzyHasher, fuzzy_hash_tokens
from repro.ccd.ngram_index import NGramIndex, ngrams
from repro.ccd.similarity import (
    edit_distance,
    myers_bounded_edit_distance,
    order_independent_similarity,
    sub_fingerprint_similarity,
)


class TestFuzzyHasher:
    def test_deterministic(self):
        tokens = ["msg", ".", "sender", ".", "transfer", "(", "uint", ")"]
        assert fuzzy_hash_tokens(tokens) == fuzzy_hash_tokens(tokens)

    def test_output_is_base64(self):
        digest = fuzzy_hash_tokens(["a", "b", "c", "d", "e", "f"])
        assert digest and all(char in BASE64_ALPHABET for char in digest)

    def test_empty_input_empty_digest(self):
        assert fuzzy_hash_tokens([]) == ""

    def test_different_inputs_differ(self):
        first = fuzzy_hash_tokens(["require", "(", "a", ">", "b", ")"])
        second = fuzzy_hash_tokens(["msg", ".", "sender", ".", "transfer", "(", "uint", ")"])
        assert first != second

    def test_digest_shorter_than_input(self):
        tokens = ["tok%d" % i for i in range(100)]
        assert len(fuzzy_hash_tokens(tokens)) < len(tokens)

    def test_locality_small_change_small_digest_change(self):
        base = ["function", "f", "(", "uint", ")", "{"] + ["x", "=", "x", "+", "1", ";"] * 10 + ["}"]
        modified = list(base)
        modified[10] = "y"
        first, second = fuzzy_hash_tokens(base), fuzzy_hash_tokens(modified)
        assert first != second
        assert edit_distance(first, second) <= max(3, len(first) // 3)

    def test_appending_preserves_prefix(self):
        base = ["a", "b", "c", "d"] * 6
        extended = base + ["x", "y", "z", "w"] * 3
        first, second = fuzzy_hash_tokens(base), fuzzy_hash_tokens(extended)
        assert second.startswith(first[: max(1, len(first) - 1)])

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            FuzzyHasher(block_size=0)

    def test_hash_text_convenience(self):
        hasher = FuzzyHasher()
        assert hasher.hash_text("a b c") == hasher.hash_tokens(["a", "b", "c"])


class TestFingerprint:
    generator = FingerprintGenerator()

    def test_structure_function_separator(self):
        fingerprint = self.generator.from_source(
            "contract C { function a() public { x = 1; } function b() public { y = 2; } }")
        assert "." in fingerprint.text
        # one segment per function (the common contract header is excluded)
        assert len(fingerprint.sub_fingerprints) == 2

    def test_structure_contract_separator(self):
        fingerprint = self.generator.from_source(
            "contract A { function f() public { x = 1; } } contract B { function g() public { y = 2; } }")
        assert ":" in fingerprint.text

    def test_parse_roundtrip(self):
        fingerprint = self.generator.from_source(
            "contract A { function f() public { x = 1; } } contract B { function g() public { y = 2; } }")
        parsed = Fingerprint.parse(fingerprint.text)
        assert parsed.sub_fingerprints == fingerprint.sub_fingerprints

    def test_type_two_clones_have_identical_fingerprints(self):
        first = self.generator.from_source(
            "function pay(address to, uint amount) { to.transfer(amount); }")
        second = self.generator.from_source(
            "function send(address dst, uint wad) { dst.transfer(wad); }")
        assert first.text == second.text

    def test_empty_detection(self):
        assert Fingerprint().is_empty
        assert not self.generator.from_source("function f() { x = 1; }").is_empty

    def test_len_is_text_length(self):
        fingerprint = self.generator.from_source("function f() { x = 1; }")
        assert len(fingerprint) == len(fingerprint.text)


class TestEditDistance:
    @pytest.mark.parametrize("first,second,expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("abc", "", 3),
        ("", "xyz", 3),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("abc", "abd", 1),
        ("abc", "acb", 2),
    ])
    def test_known_distances(self, first, second, expected):
        assert edit_distance(first, second) == expected

    def test_symmetry(self):
        assert edit_distance("solidity", "soliloquy") == edit_distance("soliloquy", "solidity")

    def test_triangle_inequality_sample(self):
        a, b, c = "contract", "contrast", "context"
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @pytest.mark.parametrize("first,second,expected", [
        # one string is a prefix of the other: distance = length difference
        ("abc", "abcdef", 3),
        ("abcdef", "abc", 3),
        ("A", "ABCDEFGH", 7),
        # equal after stripping the common prefix and suffix
        ("prefixXsuffix", "prefixYsuffix", 1),
        ("aaaaXbbbb", "aaaaYYbbbb", 2),
        ("same", "same", 0),
        # single-character remainders after the strip
        ("h", "hello", 4),
        ("x", "hello", 5),
        ("hello", "h", 4),
        ("aXa", "aYa", 1),
        # shared-suffix-only shapes
        ("Xend", "YZend", 2),
    ])
    def test_fast_path_distances_pinned(self, first, second, expected):
        assert edit_distance(first, second) == expected


class TestBoundedEditDistance:
    @pytest.mark.parametrize("first,second", [
        ("", ""), ("abc", "abc"), ("abc", ""), ("", "xyz"),
        ("kitten", "sitting"), ("flaw", "lawn"), ("abc", "acb"),
        ("abc", "abcdef"), ("prefixXsuffix", "prefixYsuffix"),
        ("h", "hello"), ("x", "hello"),
    ])
    def test_matches_exact_distance_when_within_limit(self, first, second):
        distance = edit_distance(first, second)
        for limit in (distance, distance + 1, distance + 10):
            assert myers_bounded_edit_distance(first, second, limit) == distance

    def test_returns_none_beyond_limit(self):
        assert myers_bounded_edit_distance("kitten", "sitting", 2) is None
        assert myers_bounded_edit_distance("abc", "", 2) is None
        assert myers_bounded_edit_distance("AAAAAAAA", "BBBBBBBB", 5) is None

    def test_zero_limit(self):
        assert myers_bounded_edit_distance("same", "same", 0) == 0
        assert myers_bounded_edit_distance("a", "b", 0) is None

    def test_randomized_agreement_with_exact(self):
        import random

        rng = random.Random(5)
        alphabet = "abcdef"
        for _ in range(500):
            first = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            second = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            distance = edit_distance(first, second)
            for limit in (0, 1, 3, 8, 20):
                bounded = myers_bounded_edit_distance(first, second, limit)
                assert bounded == (distance if distance <= limit else None)


class TestSimilarityScores:
    def test_identical_sub_fingerprints_score_100(self):
        assert sub_fingerprint_similarity("ABCDEF", "ABCDEF") == 100.0

    def test_disjoint_scores_low(self):
        assert sub_fingerprint_similarity("AAAA", "BBBB") == 0.0

    def test_empty_pair_scores_100(self):
        assert sub_fingerprint_similarity("", "") == 100.0

    def test_score_range(self):
        score = sub_fingerprint_similarity("ABCD", "ABXD")
        assert 0.0 <= score <= 100.0

    def test_order_independence(self):
        first = Fingerprint.parse("AAAA.BBBB")
        swapped = Fingerprint.parse("BBBB.AAAA")
        assert order_independent_similarity(first, swapped) == 100.0

    def test_containment_is_asymmetric(self):
        snippet = Fingerprint.parse("AAAA")
        contract = Fingerprint.parse("AAAA.ZZZZZZ.YYYYYY")
        assert order_independent_similarity(snippet, contract) == 100.0
        assert order_independent_similarity(contract, snippet) < 100.0

    def test_empty_fingerprint_scores_zero(self):
        assert order_independent_similarity(Fingerprint(), Fingerprint.parse("AAAA")) == 0.0

    def test_accepts_plain_sequences(self):
        assert order_independent_similarity(["AAAA"], ["AAAA", "BBBB"]) == 100.0


class TestNGramIndex:
    def test_ngrams_of_short_text(self):
        assert ngrams("ab", 3) == {"ab"}

    def test_ngrams_ignore_separators(self):
        assert ngrams("ab.cd", 3) == ngrams("abcd", 3)

    def test_add_and_candidates(self):
        index = NGramIndex(ngram_size=3)
        index.add("doc1", "ABCDEFGH")
        index.add("doc2", "ZZZZZZZZ")
        assert index.candidates("ABCDEFGH", 0.5) == ["doc1"]

    def test_threshold_filters_partial_overlap(self):
        index = NGramIndex(ngram_size=3)
        index.add("doc", "ABCDEFGH")
        assert "doc" in index.candidates("ABCDXYZW", 0.2)
        assert "doc" not in index.candidates("ABCDXYZW", 0.9)

    def test_overlap_fraction(self):
        index = NGramIndex(ngram_size=3)
        index.add("doc", "ABCDEF")
        assert index.overlap("ABCDEF", "doc") == 1.0
        assert index.overlap("ABCDEF", "missing") == 0.0

    def test_remove(self):
        index = NGramIndex(ngram_size=3)
        index.add("doc", "ABCDEF")
        index.remove("doc")
        assert index.candidates("ABCDEF", 0.1) == []
        assert "doc" not in index

    def test_readd_purges_stale_postings(self):
        # regression: re-adding a document with different grams used to
        # leave the old grams' postings pointing at the document, so the
        # removed n-grams still yielded it as a candidate
        index = NGramIndex(ngram_size=3)
        index.add("doc", "ABCDEF")
        index.add("doc", "UVWXYZ")
        assert index.candidates("ABCDEF", 0.1) == []
        assert index.candidates("UVWXYZ", 0.5) == ["doc"]
        assert len(index) == 1
        assert index.overlap("ABCDEF", "doc") == 0.0

    def test_readd_with_overlapping_grams(self):
        index = NGramIndex(ngram_size=3)
        index.add("doc", "ABCDEF")
        index.add("doc", "CDEFGH")  # shares CDE/DEF with the old text
        assert index.candidates("CDEFGH", 0.9) == ["doc"]
        assert "doc" not in index.candidates("ABCDEF", 0.9)

    def test_len_and_contains(self):
        index = NGramIndex(ngram_size=3)
        index.add_many([("a", "ABCDEF"), ("b", "GHIJKL")])
        assert len(index) == 2 and "a" in index

    def test_invalid_ngram_size(self):
        with pytest.raises(ValueError):
            NGramIndex(ngram_size=0)

    def test_empty_query_returns_nothing(self):
        index = NGramIndex()
        index.add("doc", "ABCDEF")
        assert index.candidates("", 0.5) == []
