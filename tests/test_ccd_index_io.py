"""Tests for CCD corpus index serialization (save / shard / reload)."""

import pytest

from repro.api import AnalysisSession
from repro.ccd.detector import CloneDetector
from repro.ccd.index_io import (
    IndexFormatError,
    MANIFEST_NAME,
    load_index,
    read_manifest,
    save_index,
    shard_of,
)
from repro.core.persistence import DiskArtifactStore
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus


def find_clones(detector, queries):
    """Per-query matches of ``detector``, through the session's ``ccd`` analyzer."""
    with AnalysisSession(store=detector.store) as session:
        return [envelope.payload for envelope in session.run(
            queries, analyses=["ccd"], options={"ccd": {"detector": detector}})]


@pytest.fixture(scope="module")
def corpus():
    qa = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 8, "ethereum.stackexchange": 16})
    sanctuary = generate_sanctuary(qa, seed=11, independent_contracts=8)
    queries = [(snippet.snippet_id, snippet.text)
               for post in qa.posts for snippet in post.snippets][:25]
    return sanctuary.contracts, queries


@pytest.fixture(scope="module")
def detector(corpus):
    contracts, _ = corpus
    detector = CloneDetector(similarity_threshold=0.9)
    detector.add_corpus([(contract.address, contract.source) for contract in contracts])
    return detector


class TestShardOf:
    def test_stable_and_in_range(self):
        for shards in (1, 4, 16):
            for document_id in ("0xabc", "s1", 42, ("tuple", 1)):
                shard = shard_of(document_id, shards)
                assert 0 <= shard < shards
                assert shard == shard_of(document_id, shards)

    def test_distributes_documents(self):
        shards = {shard_of(f"0x{i:040x}", 8) for i in range(200)}
        assert len(shards) == 8


class TestSaveLoadEquivalence:
    def test_roundtrip_results_identical(self, tmp_path, detector, corpus):
        _, queries = corpus
        baseline = find_clones(detector, queries)
        manifest = save_index(detector, tmp_path / "index", shards=4)
        assert manifest["documents"] == len(detector)
        reloaded = load_index(tmp_path / "index")
        assert len(reloaded) == len(detector)
        assert find_clones(reloaded, queries) == baseline

    def test_shard_counts_are_equivalent(self, tmp_path, detector, corpus):
        _, queries = corpus
        results = []
        for shards in (1, 3, 8):
            directory = tmp_path / f"index-{shards}"
            save_index(detector, directory, shards=shards)
            assert read_manifest(directory)["shards"] == shards
            results.append(find_clones(load_index(directory), queries))
        assert results[0] == results[1] == results[2]

    def test_resave_with_fewer_shards_drops_stale_files(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory, shards=8)
        save_index(detector, directory, shards=2)
        names = sorted(p.name for p in directory.glob("shard-*.pkl"))
        assert names == ["shard-0000.pkl", "shard-0001.pkl"]

    def test_load_performs_zero_parses(self, tmp_path, detector):
        save_index(detector, tmp_path / "index", shards=2)
        store = DiskArtifactStore(tmp_path / "cache")
        reloaded = load_index(tmp_path / "index", store=store)
        assert len(reloaded) == len(detector)
        assert store.stats.parse_calls == 0
        store.close()

    def test_parse_failures_survive_roundtrip(self, tmp_path):
        detector = CloneDetector()
        detector.add_corpus([("good", "contract c { function f() public {} }"),
                             ("bad", "not solidity {{{")])
        assert detector.parse_failures == ["bad"]
        save_index(detector, tmp_path / "index")
        assert load_index(tmp_path / "index").parse_failures == ["bad"]

    def test_fuzzy_hash_parameters_survive_roundtrip(self, tmp_path, corpus):
        contracts, _ = corpus
        detector = CloneDetector(fingerprint_block_size=3, fingerprint_window=6)
        detector.add_corpus([(c.address, c.source) for c in contracts])
        save_index(detector, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert reloaded.generator.hasher.block_size == 3
        assert reloaded.generator.hasher.window == 6

    def test_non_string_parse_failure_ids_survive_roundtrip(self, tmp_path):
        detector = CloneDetector()
        detector.add_corpus([(7, "not solidity {{{"), (12, "also not {{{")])
        assert detector.parse_failures == [7, 12]
        save_index(detector, tmp_path / "index")
        assert load_index(tmp_path / "index").parse_failures == [7, 12]

    def test_detector_convenience_methods(self, tmp_path, detector, corpus):
        _, queries = corpus
        detector.save_index(tmp_path / "index", shards=2)
        reloaded = CloneDetector.load(tmp_path / "index")
        assert find_clones(reloaded, queries) == find_clones(detector, queries)
        assert reloaded.ngram_size == detector.ngram_size
        assert reloaded.similarity_threshold == detector.similarity_threshold


class TestCorruptionHandling:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "nothing-here")

    def test_bad_format_version_raises(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory)
        (directory / MANIFEST_NAME).write_text('{"format_version": 999}')
        with pytest.raises(IndexFormatError):
            load_index(directory)

    def test_corrupt_shard_strict_raises(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory, shards=2)
        (directory / "shard-0001.pkl").write_bytes(b"garbage")
        with pytest.raises(IndexFormatError):
            load_index(directory)

    def test_corrupt_shard_lenient_skips(self, tmp_path, detector):
        directory = tmp_path / "index"
        manifest = save_index(detector, directory, shards=2)
        (directory / "shard-0001.pkl").write_bytes(b"garbage")
        partial = load_index(directory, strict=False)
        assert 0 < len(partial) < manifest["documents"]


class TestSimilarityBackendRoundtrip:
    def test_backend_recorded_and_restored(self, tmp_path, corpus):
        contracts, _ = corpus
        detector = CloneDetector(similarity_backend="exact")
        detector.add_corpus([(c.address, c.source) for c in contracts[:5]])
        manifest = save_index(detector, tmp_path / "index")
        assert manifest["configuration"]["similarity_backend"] == "exact"
        assert load_index(tmp_path / "index").similarity_backend == "exact"

    def test_default_backend_roundtrip(self, tmp_path, detector):
        manifest = save_index(detector, tmp_path / "index")
        assert manifest["configuration"]["similarity_backend"] == "myers"
        assert load_index(tmp_path / "index").similarity_backend == "myers"

    def test_legacy_manifest_without_backend_loads_with_default(self, tmp_path, detector):
        import json

        directory = tmp_path / "index"
        save_index(detector, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest["configuration"]["similarity_backend"]
        manifest_path.write_text(json.dumps(manifest))
        assert load_index(directory).similarity_backend == "myers"

    def test_retired_bounded_backend_loads_as_myers(self, tmp_path, detector):
        import json

        directory = tmp_path / "index"
        save_index(detector, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["configuration"]["similarity_backend"] = "bounded"
        manifest_path.write_text(json.dumps(manifest))
        assert load_index(directory).similarity_backend == "myers"

    def test_unregistered_backend_name_is_a_format_error(self, tmp_path, detector):
        import json

        directory = tmp_path / "index"
        save_index(detector, directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["configuration"]["similarity_backend"] = "custom-unregistered"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match="unloadable configuration"):
            load_index(directory)


class TestAppendToIndex:
    """Incremental persistence of newly indexed documents (the service path)."""

    def _fresh_copy(self, detector):
        copy = CloneDetector(similarity_threshold=detector.similarity_threshold)
        for document_id, fingerprint in detector.fingerprints.items():
            copy.add_fingerprint(document_id, fingerprint,
                                 grams=detector.index.grams_for(document_id))
        return copy

    def test_append_rewrites_only_affected_shards(self, detector, tmp_path):
        from repro.ccd.index_io import append_to_index

        live = self._fresh_copy(detector)
        save_index(live, tmp_path, shards=8)
        new_id = "0xfreshly-ingested"
        source = "contract Fresh { function f() public { msg.sender.transfer(1); } }"
        assert live.add_document(new_id, source)
        summary = append_to_index(live, tmp_path, [new_id])
        assert summary["appended"] == 1
        assert summary["shards_rewritten"] == 1  # one document -> one shard
        assert summary["manifest"]["documents"] == len(live)
        reloaded = load_index(tmp_path)
        assert new_id in reloaded.fingerprints
        assert len(reloaded) == len(live)
        assert reloaded.find_clones(source)[0].document_id == new_id

    def test_append_to_empty_directory_falls_back_to_save(self, detector, tmp_path):
        from repro.ccd.index_io import append_to_index

        live = self._fresh_copy(detector)
        summary = append_to_index(
            live, tmp_path / "fresh", live.fingerprints, shards=3)
        assert summary["appended"] == len(live)
        reloaded = load_index(tmp_path / "fresh")
        assert set(reloaded.fingerprints) == set(live.fingerprints)

    def test_reingesting_a_document_replaces_it(self, detector, tmp_path):
        from repro.ccd.index_io import append_to_index

        live = self._fresh_copy(detector)
        save_index(live, tmp_path, shards=2)
        victim = next(iter(live.fingerprints))
        replacement = "contract Replaced { function g() public {} }"
        assert live.add_document(victim, replacement)
        append_to_index(live, tmp_path, [victim])
        reloaded = load_index(tmp_path)
        assert len(reloaded) == len(live)  # replaced, not duplicated
        assert reloaded.fingerprints[victim].text == \
            live.fingerprints[victim].text

    def test_append_with_remove_ids_retires_documents(self, detector, tmp_path):
        from repro.ccd.index_io import append_to_index

        live = self._fresh_copy(detector)
        save_index(live, tmp_path, shards=4)
        victim = sorted(live.fingerprints)[0]
        live.remove_fingerprint(victim)
        summary = append_to_index(live, tmp_path, [], remove_ids=[victim])
        assert summary["appended"] == 0
        assert summary["manifest"]["documents"] == len(live)
        reloaded = load_index(tmp_path)
        assert victim not in reloaded.fingerprints
        assert set(reloaded.fingerprints) == set(live.fingerprints)


class TestIncrementalIndexState:
    """Source keys and function-granular accounting across persistence."""

    SOURCE = ("contract Keyed {\n"
              "    uint total;\n"
              "    function add(uint v) public { total += v; }\n"
              "    function get() public view returns (uint) { return total; }\n"
              "}\n")

    def test_source_keys_survive_roundtrip(self, tmp_path):
        from repro.core.artifacts import content_key

        live = CloneDetector(similarity_threshold=0.9)
        assert live.add_document("keyed", self.SOURCE)
        save_index(live, tmp_path, shards=2)
        reloaded = load_index(tmp_path)
        assert reloaded.source_keys["keyed"] == content_key(self.SOURCE)
        # ... which arms the no-op fast path across the save/load cycle:
        # re-ingesting identical bytes replaces nothing
        fingerprint = reloaded.fingerprints["keyed"]
        assert reloaded.add_document("keyed", self.SOURCE)
        assert reloaded.fingerprints["keyed"] is fingerprint

    def test_legacy_three_tuple_shards_load(self, tmp_path):
        import pickle

        live = CloneDetector(similarity_threshold=0.9)
        assert live.add_document("keyed", self.SOURCE)
        save_index(live, tmp_path, shards=1)
        # strip the source-key column, as an index written before it existed
        shard = tmp_path / "shard-0000.pkl"
        bucket = pickle.loads(shard.read_bytes())
        shard.write_bytes(pickle.dumps([entry[:3] for entry in bucket]))
        reloaded = load_index(tmp_path)
        assert reloaded.source_keys == {}  # unknown, never wrong
        assert "keyed" in reloaded.fingerprints

    def test_replacement_accounts_function_reuse(self):
        edited = self.SOURCE.replace("total += v;", "total += v + 1;")
        detector = CloneDetector(similarity_threshold=0.9)
        assert detector.add_document("keyed", self.SOURCE)
        assert detector.match_stats.functions_reused == 0
        assert detector.add_document("keyed", edited)
        # one of the two functions changed; the other's sub-fingerprints
        # carried over
        assert detector.match_stats.functions_reused >= 1
        assert detector.match_stats.functions_reanalyzed >= 1

    def test_noop_reingest_causes_zero_score_memo_invalidations(self, tmp_path):
        from repro.ccd.score_memo import ScoreMemoTable

        detector = CloneDetector(
            similarity_threshold=0.9,
            score_memo=ScoreMemoTable(tmp_path / "memo.sqlite"))
        assert detector.add_document("keyed", self.SOURCE)
        detector.find_clones(self.SOURCE)  # populate memo rows
        assert detector.add_document("keyed", self.SOURCE)  # identical bytes
        assert detector.score_memo.stats.invalidated == 0
