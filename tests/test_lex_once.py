"""One fingerprint build lexes its source once.

Each test counts calls of :func:`repro.solidity.lexer.tokenize` by
wrapping it in every loaded module that imported it, over the
benchmark's inputs (see ``lexer_golden.INPUTS``): the corpus set's 395
deployed contracts and 415 snippets, and the batch set's distinct
snippets.  Only lexes of those sources count: a delta fingerprint also
re-parses each changed function on its own, which lexes that
function's text.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from lexer_golden import INPUTS
from repro.api import AnalysisSession, SessionConfig
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.service import AnalysisService, ServiceClient, ServiceConfig
from repro.solidity import lexer


@pytest.fixture
def lexed(monkeypatch):
    """The sources lexed while the test runs, one entry per call."""
    original = lexer.tokenize
    calls = []

    def counting(source):
        calls.append(source)
        return original(source)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("tokenize") is original:
            monkeypatch.setattr(module, "tokenize", counting)
    return calls


@pytest.fixture(scope="module")
def corpus():
    params = INPUTS["corpus"]
    qa = generate_qa_corpus(seed=params["qa_seed"], posts_per_site=params["posts_per_site"])
    sanctuary = generate_sanctuary(qa, seed=params["sanctuary_seed"],
                                   independent_contracts=params["independent_contracts"])
    return qa, [(contract.address, contract.source) for contract in sanctuary.contracts]


@pytest.fixture(scope="module")
def batch_snippets():
    params = INPUTS["batch"]
    qa = generate_qa_corpus(seed=params["qa_seed"], posts_per_site=params["posts_per_site"])
    return list(dict.fromkeys(snippet.text for snippet in qa.snippets))[:100]


def make_config(tmp_path) -> ServiceConfig:
    return ServiceConfig(data_dir=str(tmp_path / "svc"), port=0, backend="serial")


def lexes_of(lexed, sources) -> Counter:
    """How often each of ``sources`` was lexed (unlexed ones included)."""
    counts = Counter(dict.fromkeys(sources, 0))
    counts.update(source for source in lexed if source in counts)
    return counts


def test_a_cold_ingest_lexes_each_distinct_document_once(tmp_path, corpus, lexed):
    _, documents = corpus
    service = AnalysisService(make_config(tmp_path))
    try:
        summary = service.ingest(documents)
    finally:
        service.stop()
    assert summary["ingested"] == len(documents) == 395
    counts = lexes_of(lexed, [source for _, source in documents])
    assert sum(counts.values()) == len(counts) == 389
    assert set(counts.values()) == {1}


def test_a_cold_ccd_run_lexes_each_source_once(corpus, lexed):
    qa, _ = corpus
    pairs = [(f"s{index}", snippet.text) for index, snippet in enumerate(qa.snippets)]
    with AnalysisSession(SessionConfig(backend="serial")) as session:
        results = session.run(pairs, analyses=["ccd"])
    assert len(results) == len(pairs)
    counts = lexes_of(lexed, [source for _, source in pairs])
    assert set(counts.values()) == {1}


def test_a_cold_ccd_ccc_job_lexes_each_snippet_at_most_twice(
        tmp_path, corpus, batch_snippets, lexed):
    _, documents = corpus
    pairs = [(f"b{index}", text) for index, text in enumerate(batch_snippets)]
    with AnalysisService(make_config(tmp_path)) as service:
        service.ingest(documents)
        lexed.clear()
        client = ServiceClient(service.url)
        job = client.submit(pairs, ["ccd", "ccc"])
        assert client.wait(job["id"])["job"]["state"] == "done"
    counts = lexes_of(lexed, batch_snippets)
    assert min(counts.values()) >= 1
    assert max(counts.values()) <= 2
