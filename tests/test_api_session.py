"""Tests for the unified ``repro.api`` analysis session and registry.

Acceptance criteria of the API redesign:

* ``session.run_iter`` streams per-contract ``AnalysisResult`` envelopes
  for a ccd+ccc run under the serial, thread, and process backends with
  byte-identical canonical output to batch ``session.run``,
* each unique source is parsed exactly once per session,
* analyzers are pluggable through the registry decorator.
"""

from __future__ import annotations

import pickle
import types
import warnings

import pytest

from repro.api import (
    AnalysisRequest,
    AnalysisSession,
    Analyzer,
    AnalyzerRegistry,
    REGISTRY,
    SessionConfig,
    as_request,
    canonicalize,
    register_analyzer,
)
from repro.ccc.checker import AnalysisResult as CccResult
from repro.ccc.checker import ContractChecker
from repro.ccd.detector import CloneDetector
from repro.ccd.matcher import MyersSimilarityBackend
from repro.core.artifacts import ArtifactStore
from repro.core.executor import BACKENDS, Executor
from repro.core.persistence import DiskArtifactStore
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.pipeline.collection import SnippetCollector
from repro.pipeline.temporal import TemporalCategories
from repro.pipeline.validation import ContractValidator, ValidationCandidate

REENTRANT = """
contract Wallet {
    mapping(address => uint) balances;
    function withdraw() public {
        uint amount = balances[msg.sender];
        msg.sender.call{value: amount}("");
        balances[msg.sender] = 0;
    }
}
"""

TIMESTAMP = """
contract Lottery {
    function draw() public {
        if (block.timestamp % 2 == 0) {
            msg.sender.transfer(address(this).balance);
        }
    }
}
"""

SAFE = """
contract Counter {
    uint total;
    function add(uint value) public {
        total = total + value;
    }
}
"""

UNPARSABLE = "}}} %%% {{{"


@pytest.fixture
def corpus():
    return [("reentrant", REENTRANT), ("timestamp", TIMESTAMP),
            ("reentrant-copy", REENTRANT), ("safe", SAFE),
            ("broken", UNPARSABLE)]


@pytest.fixture(scope="module")
def study_corpora():
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 6, "ethereum.stackexchange": 10})
    sanctuary = generate_sanctuary(qa_corpus, seed=11, independent_contracts=6)
    return qa_corpus, sanctuary.contracts


class TestRequestAdapters:
    def test_pairs_strings_and_requests(self):
        request = as_request(("a", SAFE), 0)
        assert (request.contract_id, request.source) == ("a", SAFE)
        assert as_request(SAFE, 7).contract_id == 7
        assert as_request(request, 3) is request

    def test_dataset_objects(self, study_corpora):
        qa_corpus, contracts = study_corpora
        request = as_request(contracts[0], 0)
        assert request.contract_id == contracts[0].address
        assert request.source == contracts[0].source
        snippets = SnippetCollector().collect(qa_corpus).snippets
        request = as_request(snippets[0], 0)
        assert request.contract_id == snippets[0].snippet_id
        assert request.source == snippets[0].text

    def test_validation_candidates_keep_query_ids(self):
        from repro.pipeline.validation import ValidationCandidate

        candidate = ValidationCandidate(
            address="0xa", source=SAFE, snippet_id="s1",
            query_ids=("reentrancy-call-before-write",))
        request = as_request(candidate, 0)
        assert request.options["snippet_id"] == "s1"
        assert request.options["query_ids"] == ("reentrancy-call-before-write",)

    def test_unadaptable_item_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot adapt"):
            as_request(object(), 0)

    def test_requests_are_picklable(self):
        request = AnalysisRequest("a", SAFE, {"query_ids": ("x",)})
        assert pickle.loads(pickle.dumps(request)) == request


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"ccd", "ccc", "validate", "temporal", "correlation"} <= set(REGISTRY.ids())

    def test_decorator_registers_custom_analyzer(self):
        registry = AnalyzerRegistry()

        @register_analyzer("loc", registry=registry)
        class LineCount(Analyzer):
            title = "line count"

            def analyze(self, session, state, request):
                return request.source.count("\n") + 1

        assert "loc" in registry
        assert registry.get("loc").analyzer_id == "loc"
        with AnalysisSession(registry=registry) as session:
            results = session.run([("a", "x\ny")], analyses=["loc"])
        assert results[0].payload == 2

    def test_duplicate_id_is_rejected(self):
        registry = AnalyzerRegistry()

        @register_analyzer("dup", registry=registry)
        class First(Analyzer):
            pass

        with pytest.raises(ValueError, match="already registered"):
            @register_analyzer("dup", registry=registry)
            class Second(Analyzer):
                pass

    def test_unknown_id_names_the_known_ones(self):
        with pytest.raises(KeyError, match="registered"):
            REGISTRY.get("nope")

    def test_non_analyzer_class_is_rejected(self):
        registry = AnalyzerRegistry()
        with pytest.raises(TypeError):
            registry.register("bad")(object)


class TestEnvelope:
    def test_canonicalize_strips_timings_and_orders_keys(self):
        result = CccResult(elapsed_seconds=1.23, graph_nodes=7)
        canonical = canonicalize(result)
        assert "elapsed_seconds" not in canonical
        assert canonical["graph_nodes"] == 7
        assert canonicalize({"b": 1, "a": frozenset({"y", "x"})}) == \
            {"a": ["x", "y"], "b": 1}

    def test_envelope_as_dict_is_deterministic(self, corpus):
        with AnalysisSession() as session:
            first = [r.as_dict() for r in session.run(corpus, analyses=["ccc"])]
        with AnalysisSession() as session:
            second = [r.as_dict() for r in session.run(corpus, analyses=["ccc"])]
        assert first == second

    def test_ok_reflects_payload(self, corpus):
        with AnalysisSession() as session:
            results = session.run(corpus, analyses=["ccd"])
        by_id = {r.contract_id: r for r in results}
        assert by_id["broken"].ok is False
        assert by_id["reentrant"].ok is True


class TestSessionRuns:
    def test_ccd_ccc_over_one_corpus(self, corpus):
        with AnalysisSession() as session:
            results = session.run(corpus, analyses=["ccd", "ccc"])
        assert [r.analyzer for r in results] == ["ccd"] * 5 + ["ccc"] * 5
        by_key = {(r.analyzer, r.contract_id): r for r in results}
        # the two copies of the reentrant contract are mutual clones
        matches = by_key[("ccd", "reentrant")].payload
        assert "reentrant-copy" in [m.document_id for m in matches]
        assert by_key[("ccd", "safe")].payload == []
        assert by_key[("ccd", "broken")].payload is None
        # ccc payloads are the legacy AnalysisResult objects
        assert by_key[("ccc", "reentrant")].payload.findings
        assert by_key[("ccc", "broken")].payload.parse_error is not None

    def test_each_unique_source_parsed_exactly_once(self, corpus):
        with AnalysisSession() as session:
            session.run(corpus, analyses=["ccd", "ccc"])
            stats = session.stats
            # 4 unique sources (one duplicated, one unparsable): ccd
            # fingerprints and ccc graphs share one parse per source
            assert stats.parse_calls == 4
            assert stats.parse_calls == stats.misses
        # run_iter over the same session stays fully cached
        with AnalysisSession() as session:
            session.run(corpus, analyses=["ccd"])
            list(session.run_iter(corpus, analyses=["ccc"]))
            assert session.stats.parse_calls == session.stats.misses == 4

    def test_run_iter_is_a_lazy_stream(self, corpus):
        with AnalysisSession() as session:
            stream = session.run_iter(corpus, analyses=["ccc"])
            assert isinstance(stream, types.GeneratorType)
            first = next(stream)
            assert first.analyzer == "ccc"
            assert first.contract_id == "reentrant"
            stream.close()

    def test_unknown_analysis_fails_before_any_work(self, corpus):
        with AnalysisSession() as session:
            with pytest.raises(KeyError, match="unknown analyzer"):
                session.run_iter(corpus, analyses=["nope"])

    def test_per_request_query_ids_restrict_ccc(self):
        request = AnalysisRequest(
            "r", REENTRANT, {"query_ids": ("time-manipulation-timestamp",)})
        with AnalysisSession() as session:
            restricted = session.run([request], analyses=["ccc"])[0].payload
            full = session.run([("r", REENTRANT)], analyses=["ccc"])[0].payload
        assert not restricted.findings
        assert full.findings

    def test_disk_cache_dir_builds_a_disk_store(self, tmp_path, corpus):
        config = SessionConfig(cache_dir=str(tmp_path / "cache"))
        with AnalysisSession(config) as session:
            assert isinstance(session.store, DiskArtifactStore)
            session.run(corpus, analyses=["ccc"])
        with AnalysisSession(config) as session:
            session.run(corpus, analyses=["ccc"])
            # warm rerun: everything hydrates from the disk tier
            assert session.stats.parse_calls == 0

    def test_adopted_store_and_executor_are_not_closed(self, corpus):
        from repro.core.executor import Executor

        executor = Executor.create("thread", max_workers=2)
        with AnalysisSession(executor=executor) as session:
            session.run(corpus, analyses=["ccc"])
        # the session did not own the executor, so it still works
        assert executor.map(len, ["ab"]) == [2]
        executor.close()


class TestBatchStreamingParity:
    """The headline acceptance criterion of the API redesign."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_iter_matches_run_byte_identically(self, backend, corpus):
        config = SessionConfig(backend=backend, max_workers=2, chunk_size=2)
        with AnalysisSession(config) as session:
            batch = [r.as_dict() for r in session.run(corpus, analyses=["ccd", "ccc"])]
        with AnalysisSession(config) as session:
            stream = [r.as_dict()
                      for r in session.run_iter(corpus, analyses=["ccd", "ccc"])]
        assert pickle.dumps(stream) == pickle.dumps(batch)

    def test_all_backends_agree_with_serial(self, corpus):
        outputs = {}
        for backend in BACKENDS:
            config = SessionConfig(backend=backend, max_workers=2, chunk_size=2)
            with AnalysisSession(config) as session:
                outputs[backend] = [
                    r.as_dict() for r in session.run(corpus, analyses=["ccd", "ccc"])]
        assert outputs["thread"] == outputs["serial"]
        assert outputs["process"] == outputs["serial"]


def ccc_fields(result):
    """The comparable (timing-free) fields of a ccc AnalysisResult."""
    return (tuple(result.findings), result.timed_out, result.parse_error,
            result.graph_nodes)


def outcome_fields(outcome):
    """The comparable (timing-free) fields of a ValidationOutcome."""
    return (outcome.address, outcome.snippet_id, outcome.expected_queries,
            outcome.vulnerable, outcome.confirmed_queries, outcome.timed_out,
            outcome.analysis_error, outcome.phase)


class TestSingleItemEntryPointParity:
    """A session run over adopted analysers equals their per-item calls.

    ``AnalysisSession.run`` is the only batch entry point; the per-item
    ``ContractChecker.analyze`` / ``CloneDetector.find_clones`` /
    ``ContractValidator.validate_candidate`` calls must give the same
    results item by item, under every executor backend.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ccc_matches_checker_analyze(self, backend, corpus):
        store = ArtifactStore()
        checker = ContractChecker(timeout=10.0, store=store)
        sources = [source for _, source in corpus]
        with Executor.create(backend, max_workers=2, chunk_size=2) as executor:
            with AnalysisSession(store=store, executor=executor) as session:
                envelopes = session.run(sources, analyses=["ccc"],
                                        options={"ccc": {"checker": checker}})
        direct = [checker.analyze(source) for source in sources]
        assert [ccc_fields(envelope.payload) for envelope in envelopes] == \
            [ccc_fields(result) for result in direct]
        assert any(result.findings for result in direct)
        assert direct[-1].parse_error is not None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ccd_matches_detector_find_clones(self, backend):
        store = ArtifactStore()
        detector = CloneDetector(similarity_threshold=0.7, store=store)
        detector.add_corpus([("wallet", REENTRANT), ("counter", SAFE)])
        queries = [("q1", REENTRANT), ("q2", TIMESTAMP), ("q3", UNPARSABLE)]
        with Executor.create(backend, max_workers=2, chunk_size=2) as executor:
            with AnalysisSession(store=store, executor=executor) as session:
                envelopes = session.run(queries, analyses=["ccd"],
                                        options={"ccd": {"detector": detector}})
        assert [envelope.contract_id for envelope in envelopes] == ["q1", "q2", "q3"]
        assert [envelope.payload for envelope in envelopes[:2]] == \
            [detector.find_clones(source) for _, source in queries[:2]]
        assert envelopes[0].payload[0].document_id == "wallet"
        assert envelopes[2].payload is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_validate_matches_validate_candidate(self, backend):
        store = ArtifactStore()
        validator = ContractValidator(
            timeout_seconds=10.0, checker=ContractChecker(store=store))
        candidates = [
            ValidationCandidate(address="0xa", source=REENTRANT, snippet_id="s1",
                                query_ids=("reentrancy-call-before-write",)),
            ValidationCandidate(address="0xb", source=TIMESTAMP, snippet_id="s2",
                                query_ids=("time-manipulation-timestamp",)),
            ValidationCandidate(address="0xc", source=SAFE, snippet_id="s3",
                                query_ids=("reentrancy-call-before-write",)),
        ]
        with Executor.create(backend, max_workers=2, chunk_size=2) as executor:
            with AnalysisSession(store=store, executor=executor) as session:
                envelopes = session.run(candidates, analyses=["validate"],
                                        options={"validate": {"validator": validator}})
        direct = [validator.validate_candidate(candidate) for candidate in candidates]
        assert [outcome_fields(envelope.payload) for envelope in envelopes] == \
            [outcome_fields(outcome) for outcome in direct]
        assert direct[0].vulnerable and direct[1].vulnerable
        assert not direct[2].vulnerable

    def test_single_item_entry_points_do_not_warn(self):
        detector = CloneDetector()
        detector.add_corpus([("w", REENTRANT)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ContractChecker().analyze(SAFE)
            detector.find_clones(REENTRANT)
            ContractValidator(timeout_seconds=10.0).validate_candidate(
                ValidationCandidate(address="0xa", source=SAFE, snippet_id="s"))


class TestRetiredBackendName:
    def test_bounded_session_config_and_option_run_as_myers(self, corpus):
        # "bounded" was a banded-DP verifier with myers's pruning
        # decisions; configs and job options that name it still run
        runs = {}
        for name, config, options in (
                ("myers", SessionConfig(), {}),
                ("config", SessionConfig(similarity_backend="bounded"), {}),
                ("option", SessionConfig(), {"similarity_backend": "bounded"})):
            detectors = []
            with AnalysisSession(config) as session:
                runs[name] = [envelope.as_dict() for envelope in session.run(
                    corpus, analyses=["ccd"],
                    options={"ccd": {**options, "profile_sink": detectors}})]
            (detector,) = detectors
            assert isinstance(detector.matcher.backend, MyersSimilarityBackend)
            assert detector.similarity_backend == "myers"
            assert detector.match_stats.verified > 0
        assert runs["config"] == runs["myers"]
        assert runs["option"] == runs["myers"]


class TestCorpusScopeAnalyzers:
    def test_temporal_and_correlation_envelopes(self, study_corpora):
        qa_corpus, contracts = study_corpora
        with AnalysisSession() as session:
            snippets = SnippetCollector(store=session.store).collect(qa_corpus).snippets
            options = {"temporal": {"contracts": contracts},
                       "correlation": {"contracts": contracts}}
            temporal, correlation = session.run(
                snippets, analyses=["temporal", "correlation"], options=options)
        assert temporal.contract_id is None
        assert isinstance(temporal.payload, TemporalCategories)
        assert temporal.payload.all_snippets
        assert correlation.contract_id is None
        assert [row.category for row in correlation.payload] == \
            ["All Snippets", "Disseminator", "Source"]

    def test_temporal_without_contracts_is_a_clear_error(self, study_corpora):
        qa_corpus, _ = study_corpora
        snippets = SnippetCollector().collect(qa_corpus).snippets
        with AnalysisSession() as session:
            with pytest.raises(ValueError, match="contracts"):
                session.run(snippets, analyses=["temporal"])

    def test_empty_snippet_corpus_yields_empty_categories(self, study_corpora):
        """A study whose collection stage finds nothing must not crash."""
        _, contracts = study_corpora
        with AnalysisSession() as session:
            options = {"temporal": {"contracts": contracts},
                       "correlation": {"contracts": contracts}}
            temporal, correlation = session.run(
                [], analyses=["temporal", "correlation"], options=options)
        assert temporal.payload.all_snippets == {}
        assert [row.sample_size for row in correlation.payload] == [0, 0, 0]

    def test_validate_analyzer_standalone(self):
        from repro.pipeline.validation import ValidationCandidate

        candidates = [ValidationCandidate(
            address="0xa", source=REENTRANT, snippet_id="s1",
            query_ids=("reentrancy-call-before-write",))]
        with AnalysisSession() as session:
            outcome = session.run(candidates, analyses=["validate"])[0].payload
        assert outcome.address == "0xa"
        assert outcome.vulnerable
        assert outcome.confirmed_queries == ("reentrancy-call-before-write",)
