"""Incremental re-analysis — whole-corpus re-index vs one-function delta.

The tentpole claim of the incremental subsystem: after editing **one
function** of one contract, a resident daemon re-analyzes in O(change),
not O(corpus).  Two regimes over the same logical edit:

* **full** — the batch world: a brand-new daemon re-ingests the entire
  edited corpus from scratch (every contract re-parsed, re-fingerprinted,
  re-indexed).  This is what an edit costs without incremental state.
* **incremental** — a resident daemon that already holds the base corpus
  receives the edit as a unified diff (``base_version``-guarded); the
  function-digest tier reuses every unchanged function's sub-fingerprints
  and only the edited function is re-parsed.

The asserted bar (skipped in ``BENCH_INCREMENTAL_REDUCED`` CI mode where
the corpus is tiny): the delta path is at least 5x faster, the corpus
spans at least 50 functions, and both regimes end in daemons that serve
byte-identical canonical envelopes for the same query job.
"""

import os
import time

import pytest

from repro.api import canonical_json
from repro.core.artifacts import content_key
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.service import AnalysisService, ServiceClient, ServiceConfig
from repro.service.delta import make_unified_diff
from repro.solidity.splitter import split_source

#: CI smoke mode: a corpus small enough for the bench-smoke job
REDUCED = bool(os.environ.get("BENCH_INCREMENTAL_REDUCED"))

INDEPENDENT_CONTRACTS = 6 if REDUCED else 30

#: the contract whose ``deposit`` function the benchmark edits
TARGET_ID = "0xbench-incremental-target"

TARGET_SOURCE = """pragma solidity ^0.4.24;
contract BenchTarget {
    mapping(address => uint) balances;
    uint public total;
    function deposit() public payable {
        balances[msg.sender] += msg.value;
        total += msg.value;
    }
    function withdraw(uint amount) public {
        require(balances[msg.sender] >= amount);
        msg.sender.transfer(amount);
        balances[msg.sender] -= amount;
        total -= amount;
    }
    function balanceOf(address who) public view returns (uint) {
        return balances[who];
    }
}
"""

#: the one-function edit: a single statement changed inside ``deposit``
EDITED_SOURCE = TARGET_SOURCE.replace(
    "total += msg.value;", "total += msg.value + 0;")


@pytest.fixture(scope="module")
def incremental_corpus():
    """``(base_contracts, edited_contracts, total_functions)``."""
    qa_corpus = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 4, "ethereum.stackexchange": 10})
    sanctuary = generate_sanctuary(
        qa_corpus, seed=11, independent_contracts=INDEPENDENT_CONTRACTS)
    base = [(contract.address, contract.source)
            for contract in sanctuary.contracts]
    base.append((TARGET_ID, TARGET_SOURCE))
    edited = [(doc_id, EDITED_SOURCE if doc_id == TARGET_ID else source)
              for doc_id, source in base]
    functions = 0
    for _, source in base:
        split = split_source(source)
        if split is not None:
            functions += len(list(split.spans))
    return base, edited, functions


def _config(tmp_path, name):
    return ServiceConfig(data_dir=str(tmp_path / name), port=0, backend="serial")


def _query_envelopes(client):
    """Canonical envelopes of one fixed ccd+ccc job (the parity probe)."""
    job = client.submit([["probe", EDITED_SOURCE]], analyses=["ccd", "ccc"])
    finished = client.wait(job["id"], timeout=120.0)
    return [canonical_json(envelope) for envelope in finished["results"]]


#: mode -> parity-probe envelopes, asserted identical across regimes
_MODE_ENVELOPES: dict = {}


def test_full_reanalysis(benchmark, incremental_corpus, tmp_path_factory,
                         incremental_registry):
    base, edited, functions = incremental_corpus
    tmp_path = tmp_path_factory.mktemp("inc-full")
    counter = iter(range(1_000_000))
    if not REDUCED:
        assert functions >= 50  # the ISSUE floor: edit 1 of >= 50 functions

    def full_run():
        # the batch world: the edit costs a cold re-index of everything
        with AnalysisService(_config(tmp_path, f"run-{next(counter)}")) as svc:
            client = ServiceClient(svc.url)
            summary = client.ingest(edited)
            return client, summary, _query_envelopes(client)

    started = time.perf_counter()
    _, summary, envelopes = benchmark.pedantic(full_run, rounds=1, iterations=1)
    wall = time.perf_counter() - started
    assert summary["ingested"] == len(edited)
    incremental_registry["full"] = {
        "wall": wall, "functions": functions, "functions_changed": functions,
        "documents": len(edited),
    }
    _MODE_ENVELOPES["full"] = envelopes


def test_incremental_reanalysis(benchmark, incremental_corpus,
                                tmp_path_factory, incremental_registry):
    base, edited, functions = incremental_corpus
    tmp_path = tmp_path_factory.mktemp("inc-delta")
    diff = make_unified_diff(TARGET_SOURCE, EDITED_SOURCE)
    with AnalysisService(_config(tmp_path, "daemon")) as svc:
        client = ServiceClient(svc.url)
        client.ingest(base)  # the resident state, paid once outside the timer
        before = client.stats()["incremental"]  # counters are cumulative

        def delta_run():
            return client.ingest_delta(
                TARGET_ID, diff=diff,
                base_version=content_key(TARGET_SOURCE))

        started = time.perf_counter()
        summary = benchmark.pedantic(delta_run, rounds=1, iterations=1)
        wall = time.perf_counter() - started
        after = client.stats()["incremental"]
        envelopes = _query_envelopes(client)
    assert summary["ingested"] == 1
    # the edit re-parsed exactly one function; everything else was reused
    stats = {key: after[key] - before.get(key, 0)
             for key in ("function_hits", "function_misses", "function_parses",
                         "delta_assemblies", "delta_fallbacks")}
    assert stats["delta_assemblies"] >= 1
    assert stats["delta_fallbacks"] == 0
    assert stats["function_parses"] <= 1
    incremental_registry["incremental"] = {
        "wall": wall, "functions": functions, "functions_changed": 1,
        "documents": len(base), **stats,
    }
    _MODE_ENVELOPES["incremental"] = envelopes
    # both regimes hold the same logical corpus: identical probe envelopes
    if "full" in _MODE_ENVELOPES:
        assert _MODE_ENVELOPES["full"] == envelopes
    if not REDUCED and "full" in incremental_registry:
        speedup = incremental_registry["full"]["wall"] / max(wall, 1e-9)
        assert speedup >= 5.0  # the ISSUE bar for the resident delta path
