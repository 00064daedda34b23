"""Tests for CCD corpus index persistence (save / append / reload)."""

import json
import sqlite3

import pytest

from repro.api import AnalysisSession
from repro.ccd.detector import CloneDetector
from repro.ccd.index_io import (
    CORPUS_DATABASE_NAME,
    SCHEMA,
    IndexFormatError,
    append_to_index,
    load_index,
    read_manifest,
    save_index,
)
from repro.core.persistence import DiskArtifactStore
from repro.core.sqlite import Database
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


def set_configuration(directory, name, value=None):
    """Rewrite (or, with ``value=None``, drop) one saved configuration row."""
    connection = sqlite3.connect(directory / CORPUS_DATABASE_NAME)
    with connection:
        if value is None:
            connection.execute("DELETE FROM configuration WHERE name = ?", (name,))
        else:
            connection.execute("UPDATE configuration SET value = ? WHERE name = ?",
                               (json.dumps(value), name))
    connection.close()


class TestSaveLoadEquivalence:
    def test_roundtrip_results_identical(self, tmp_path, detector, corpus):
        _, queries = corpus
        baseline = find_clones(detector, queries)
        manifest = save_index(detector, tmp_path / "index")
        assert manifest["documents"] == len(detector)
        assert sorted(path.name for path in (tmp_path / "index").iterdir()
                      if path.suffix == ".sqlite") == [CORPUS_DATABASE_NAME]
        reloaded = load_index(tmp_path / "index")
        assert len(reloaded) == len(detector)
        assert find_clones(reloaded, queries) == baseline

    def test_resave_replaces_the_previous_index(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory)
        smaller = CloneDetector(similarity_threshold=0.9)
        smaller.add_corpus([("only", "contract C { function f() public {} }"),
                            ("bad", "not solidity {{{")])
        manifest = save_index(smaller, directory)
        assert (manifest["documents"], manifest["parse_failures"]) == (1, 1)
        reloaded = load_index(directory)
        assert list(reloaded.fingerprints) == ["only"]
        assert reloaded.parse_failures == ["bad"]

    def test_empty_contracts_match_identically_after_reload(self, tmp_path):
        # a fingerprint with an empty contract reparses as [""], not [];
        # sub-fingerprints drop empty entries, so matches cannot differ
        source = ("contract Empty {}\n"
                  "contract Full { function f(uint a) public "
                  "{ msg.sender.transfer(a); } }")
        detector = CloneDetector(similarity_threshold=0.5)
        assert detector.add_document("mixed", source)
        assert [] in detector.fingerprints["mixed"].contracts
        save_index(detector, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert reloaded.fingerprints["mixed"].sub_fingerprints == \
            detector.fingerprints["mixed"].sub_fingerprints
        query = [("q", "function g(uint b) public { msg.sender.transfer(b); }")]
        assert find_clones(reloaded, query) == find_clones(detector, query)

    def test_load_performs_zero_parses(self, tmp_path, detector):
        save_index(detector, tmp_path / "index")
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
        detector.save_index(tmp_path / "index")
        reloaded = CloneDetector.load(tmp_path / "index")
        assert find_clones(reloaded, queries) == find_clones(detector, queries)
        assert reloaded.ngram_size == detector.ngram_size
        assert reloaded.similarity_threshold == detector.similarity_threshold


class TestCorruptionHandling:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "nothing-here")
        with pytest.raises(IndexFormatError):
            read_manifest(tmp_path / "nothing-here")
        assert list(tmp_path.iterdir()) == []  # a failed load creates nothing

    def test_bad_format_version_raises(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory)
        connection = sqlite3.connect(directory / CORPUS_DATABASE_NAME)
        connection.execute("PRAGMA user_version = 999")
        connection.close()
        with pytest.raises(IndexFormatError):
            load_index(directory)

    def test_corrupt_database_raises(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory)
        for path in directory.iterdir():
            path.write_bytes(b"garbage")
        with pytest.raises(IndexFormatError):
            load_index(directory)

    def test_pickle_shard_layout_is_refused(self, tmp_path):
        directory = tmp_path / "index"
        directory.mkdir()
        (directory / "index.json").write_text('{"format_version": 1}')
        with pytest.raises(IndexFormatError, match="retired pickle-shard layout"):
            load_index(directory)
        assert sorted(path.name for path in directory.iterdir()) == ["index.json"]


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
        directory = tmp_path / "index"
        save_index(detector, directory)
        set_configuration(directory, "similarity_backend")
        assert load_index(directory).similarity_backend == "myers"

    def test_retired_bounded_backend_loads_as_myers(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory)
        set_configuration(directory, "similarity_backend", "bounded")
        assert load_index(directory).similarity_backend == "myers"

    def test_unregistered_backend_name_is_a_format_error(self, tmp_path, detector):
        directory = tmp_path / "index"
        save_index(detector, directory)
        set_configuration(directory, "similarity_backend", "custom-unregistered")
        with pytest.raises(IndexFormatError, match="unloadable configuration"):
            load_index(directory)


class TestAppendToIndex:
    """Incremental persistence of newly indexed documents (the service path)."""

    def _fresh_copy(self, detector):
        copy = CloneDetector(similarity_threshold=detector.similarity_threshold)
        for document_id, fingerprint in detector.fingerprints.items():
            copy.add_fingerprint(document_id, fingerprint)
        return copy

    @staticmethod
    def _append(live, directory, document_ids):
        database = Database(directory / CORPUS_DATABASE_NAME, SCHEMA)
        try:
            statements: list = []
            database.connection.set_trace_callback(statements.append)
            with database.transaction():
                append_to_index(live, database, document_ids)
            return statements
        finally:
            database.close()

    def test_append_writes_only_the_appended_rows(self, detector, tmp_path):
        live = self._fresh_copy(detector)
        save_index(live, tmp_path)
        new_id = "0xfreshly-ingested"
        source = "contract Fresh { function f() public { msg.sender.transfer(1); } }"
        assert live.add_document(new_id, source)
        statements = self._append(live, tmp_path, [new_id])
        assert statements[0] == "BEGIN IMMEDIATE" and statements[-1] == "COMMIT"
        writes = statements[1:-1]
        assert len(writes) == 2  # one fingerprint row, one failure-row delete
        assert all(" WHERE id = " in statement or "VALUES" in statement
                   for statement in writes)
        assert read_manifest(tmp_path)["documents"] == len(live)
        reloaded = load_index(tmp_path)
        assert new_id in reloaded.fingerprints
        assert len(reloaded) == len(live)
        assert reloaded.find_clones(source)[0].document_id == new_id

    def test_reingesting_a_document_replaces_it(self, detector, tmp_path):
        live = self._fresh_copy(detector)
        save_index(live, tmp_path)
        victim = next(iter(live.fingerprints))
        replacement = "contract Replaced { function g() public {} }"
        assert live.add_document(victim, replacement)
        self._append(live, tmp_path, [victim])
        reloaded = load_index(tmp_path)
        assert len(reloaded) == len(live)  # replaced, not duplicated
        assert reloaded.fingerprints[victim].text == \
            live.fingerprints[victim].text

    def test_append_with_remove_ids_retires_documents(self, detector, tmp_path):
        live = self._fresh_copy(detector)
        save_index(live, tmp_path)
        victim = sorted(live.fingerprints)[0]
        live.remove_fingerprint(victim)
        self._append(live, tmp_path, [victim])
        assert read_manifest(tmp_path)["documents"] == len(live)
        reloaded = load_index(tmp_path)
        assert victim not in reloaded.fingerprints
        assert set(reloaded.fingerprints) == set(live.fingerprints)

    def test_append_follows_the_parse_failure_record(self, tmp_path):
        live = CloneDetector()
        live.add_corpus([("good", "contract C { function f() public {} }"),
                         ("flaky", "not solidity {{{")])
        save_index(live, tmp_path)
        assert live.add_document("flaky", "contract D { function g() public {} }")
        live.parse_failures.remove("flaky")
        assert not live.add_document("late", "also not {{{")
        self._append(live, tmp_path, ["flaky", "late"])
        reloaded = load_index(tmp_path)
        assert reloaded.parse_failures == ["late"]
        assert set(reloaded.fingerprints) == {"good", "flaky"}


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
        save_index(live, tmp_path)
        reloaded = load_index(tmp_path)
        assert reloaded.source_keys["keyed"] == content_key(self.SOURCE)
        # ... which arms the no-op fast path across the save/load cycle:
        # re-ingesting identical bytes replaces nothing
        fingerprint = reloaded.fingerprints["keyed"]
        assert reloaded.add_document("keyed", self.SOURCE)
        assert reloaded.fingerprints["keyed"] is fingerprint

    def test_rows_without_a_source_key_load(self, tmp_path):
        live = CloneDetector(similarity_threshold=0.9)
        assert live.add_document("keyed", self.SOURCE)
        # indexed from a bare fingerprint: the source bytes were never seen
        live.add_fingerprint("keyed", live.fingerprints["keyed"])
        save_index(live, tmp_path)
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
