"""Incremental diff-aware analysis: O(change) re-analysis, end to end.

The acceptance bars of the incremental subsystem:

* **parity** — a fingerprint assembled from cached function digests is
  byte-identical to the whole-source fingerprint of the same bytes, and
  a daemon fed a unified diff serves envelopes byte-identical to one
  fed the full edited corpus;
* **O(change)** — editing one of many functions re-parses exactly one
  function (asserted via the artifact-store counters), and re-ingesting
  unchanged bytes performs zero parses, zero index writes, and zero
  score-memo invalidations;
* **only the change** — the ``changed_only`` analyzer option returns
  only findings/matches the edit touched.
"""

from contextlib import contextmanager

import pytest

from repro.api import AnalysisSession, SessionConfig, canonical_json
from repro.ccd.detector import CloneDetector
from repro.ccd.index_io import IndexFormatError
from repro.core.artifacts import ArtifactStore, content_key
from repro.datasets.mutations import CloneMutator
from repro.datasets.sanctuary import generate_sanctuary
from repro.datasets.snippets import generate_qa_corpus
from repro.service import (
    AnalysisService,
    ClusterCoordinator,
    CoordinatorConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.delta import (
    DeltaError,
    SourceJournal,
    apply_unified_diff,
    make_unified_diff,
    resolve_ingest_documents,
)
from repro.solidity.splitter import split_source

VULN = """pragma solidity ^0.4.24;
contract Wallet {
    mapping(address => uint) balances;
    function deposit() public payable {
        balances[msg.sender] += msg.value;
    }
    function withdraw(uint amount) public {
        require(balances[msg.sender] >= amount);
        msg.sender.call.value(amount)();
        balances[msg.sender] -= amount;
    }
}
"""

#: the one-function edit: only ``deposit`` changes
VULN_EDITED = VULN.replace("balances[msg.sender] += msg.value;",
                           "balances[msg.sender] += msg.value + 1;")


# ---------------------------------------------------------------------------
# the delta wire layer
# ---------------------------------------------------------------------------

class TestUnifiedDiff:
    def test_round_trip_is_byte_exact(self):
        diff = make_unified_diff(VULN, VULN_EDITED)
        assert apply_unified_diff(VULN, diff) == VULN_EDITED

    @pytest.mark.parametrize("base,new", [
        ("a\nb\nc\n", "a\nB\nc\n"),
        ("a\nb\nc", "a\nb\nc\nd"),          # no trailing newline, both sides
        ("a\n", "a"),                        # newline removed at EOF
        ("", "x\ny\n"),                      # creation from empty
        ("x\ny\n", ""),                      # truncation to empty
        ("same\n", "same\n"),                # no-op edit
    ])
    def test_newline_edge_cases(self, base, new):
        if base == new:
            with pytest.raises(DeltaError):
                apply_unified_diff(base, make_unified_diff(base, new))
            return
        assert apply_unified_diff(base, make_unified_diff(base, new)) == new

    def test_stale_base_raises(self):
        diff = make_unified_diff(VULN, VULN_EDITED)
        with pytest.raises(DeltaError):
            apply_unified_diff(VULN_EDITED, diff)  # wrong base bytes

    def test_malformed_diff_raises(self):
        with pytest.raises(DeltaError):
            apply_unified_diff(VULN, "not a diff at all")


class TestResolveIngestDocuments:
    def resolve(self, documents, retained=None):
        retained = retained or {}
        return resolve_ingest_documents(documents, retained.get)

    def test_plain_pairs_pass_through(self):
        assert self.resolve([["a", VULN]]) == [("a", VULN)]

    def test_guarded_source_with_matching_base(self):
        resolved = self.resolve(
            [{"id": "a", "source": VULN_EDITED,
              "base_version": content_key(VULN)}],
            retained={"a": VULN})
        assert resolved == [("a", VULN_EDITED)]

    def test_guarded_source_with_stale_base_raises(self):
        with pytest.raises(DeltaError):
            self.resolve(
                [{"id": "a", "source": VULN_EDITED,
                  "base_version": content_key(VULN)}],
                retained={"a": VULN_EDITED})  # daemon moved on

    def test_diff_resolves_against_retained_source(self):
        resolved = self.resolve(
            [{"id": "a", "diff": make_unified_diff(VULN, VULN_EDITED)}],
            retained={"a": VULN})
        assert resolved == [("a", VULN_EDITED)]

    def test_diff_for_unknown_id_raises(self):
        with pytest.raises(DeltaError):
            self.resolve([{"id": "ghost",
                           "diff": make_unified_diff(VULN, VULN_EDITED)}])

    def test_source_and_diff_together_raise(self):
        with pytest.raises(DeltaError):
            self.resolve([{"id": "a", "source": VULN_EDITED,
                           "diff": make_unified_diff(VULN, VULN_EDITED)}],
                         retained={"a": VULN})


class TestSourceJournal:
    def test_record_get_forget_persist(self, tmp_path):
        path = tmp_path / "sources.sqlite"
        with SourceJournal(path) as journal:
            journal.record("a", VULN, content_key(VULN))
            journal.record(("tuple", 7), VULN_EDITED, content_key(VULN_EDITED))
            assert journal.get("a") == VULN
            assert journal.get(("tuple", 7)) == VULN_EDITED
            assert journal.count() == 2
        with SourceJournal(path) as journal:  # survives reopen
            assert journal.get("a") == VULN
            journal.forget("a")
            assert journal.get("a") is None
            assert journal.count() == 1


# ---------------------------------------------------------------------------
# the function-digest tier
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mutated_pairs():
    """``(base, edited)`` contract pairs: clone-type mutations over a corpus."""
    qa = generate_qa_corpus(seed=5)
    sanctuary = generate_sanctuary(qa, seed=7, independent_contracts=10)
    mutator = CloneMutator(seed=23)
    pairs = []
    for index, contract in enumerate(sanctuary.contracts[:12]):
        clone_type = (index % 3) + 1
        pairs.append((contract.source,
                      mutator.mutate(contract.source, clone_type)))
    return pairs


class TestDeltaFingerprintParity:
    def test_delta_assembly_is_byte_identical(self, mutated_pairs):
        """The hard bar: delta-assembled == whole-source, byte for byte."""
        for base, edited in mutated_pairs:
            warm = ArtifactStore()
            warm.get(base).fingerprint          # seed the function digests
            via_delta = warm.get(edited).fingerprint
            cold = ArtifactStore()
            whole = cold.get(edited).fingerprint
            assert via_delta.text == whole.text
            assert via_delta.contracts == whole.contracts

    def test_never_a_wrong_fallback(self, mutated_pairs):
        for base, edited in mutated_pairs:
            warm = ArtifactStore()
            warm.get(base).fingerprint
            warm.get(edited).fingerprint
            assert warm.stats.delta_fallbacks == 0

    def test_one_function_edit_parses_one_function(self):
        """Edit 1 of >= 50 functions: exactly one standalone re-parse."""
        functions = [
            f"    function f{i}(uint v) public returns (uint) "
            f"{{ return v + {i}; }}\n"
            for i in range(60)]
        base = "contract Big {\n" + "".join(functions) + "}\n"
        edited = base.replace("return v + 7;", "return v + 700;")
        assert len(list(split_source(base).spans)) >= 50
        store = ArtifactStore()
        store.get(base).fingerprint
        parses_before = store.stats.function_parses
        whole_parses_before = store.stats.parse_calls
        fingerprint = store.get(edited).fingerprint
        assert store.stats.delta_assemblies == 1
        assert store.stats.function_parses - parses_before == 1
        assert store.stats.parse_calls == whole_parses_before  # no whole parse
        assert fingerprint.text == ArtifactStore().get(edited).fingerprint.text


# ---------------------------------------------------------------------------
# the changed_only analyzer option
# ---------------------------------------------------------------------------

class TestChangedOnly:
    def run_ccc(self, source, changed_only=None):
        options = {"ccc": {"changed_only": changed_only}} if changed_only else {}
        with AnalysisSession(SessionConfig(backend="serial")) as session:
            return session.run([("w", source)], analyses=["ccc"],
                               options=options)

    def test_identical_base_filters_everything(self):
        [envelope] = self.run_ccc(VULN, changed_only={"w": VULN})
        assert envelope.payload.findings == []

    def test_one_function_edit_keeps_only_its_findings(self):
        [unfiltered] = self.run_ccc(VULN_EDITED)
        [filtered] = self.run_ccc(VULN_EDITED, changed_only={"w": VULN})
        assert filtered.payload.findings  # the edited deposit() still flags
        assert len(filtered.payload.findings) < len(
            unfiltered.payload.findings)
        # deposit() spans lines 4-6; withdraw's findings are filtered out
        assert all(4 <= finding.line <= 6
                   for finding in filtered.payload.findings)

    def test_ccd_changed_only_drops_unchanged_matches(self):
        corpus = [("w", VULN), ("v", VULN)]
        options = {"ccd": {"changed_only": {"w": VULN}}}
        with AnalysisSession(SessionConfig(backend="serial")) as session:
            results = session.run(corpus, analyses=["ccd"], options=options)
        by_id = {envelope.contract_id: envelope.payload
                 for envelope in results}
        assert by_id["w"] == []      # base identical: nothing changed
        assert by_id["v"]            # no base given: full matches


# ---------------------------------------------------------------------------
# the service delta path
# ---------------------------------------------------------------------------

def make_config(tmp_path, name="svc"):
    return ServiceConfig(data_dir=str(tmp_path / name), port=0,
                         backend="serial")


@pytest.fixture(scope="module")
def small_corpus():
    qa = generate_qa_corpus(
        seed=3, posts_per_site={"stackoverflow": 3, "ethereum.stackexchange": 6})
    sanctuary = generate_sanctuary(qa, seed=11, independent_contracts=4)
    contracts = [(contract.address, contract.source)
                 for contract in sanctuary.contracts]
    contracts.append(("wallet", VULN))
    return contracts


#: the first word of every statement that writes a row
WRITE_VERBS = ("INSERT", "REPLACE", "UPDATE", "DELETE")


def probe_envelopes(client):
    job = client.submit([["probe", VULN_EDITED]], analyses=["ccd", "ccc"])
    finished = client.wait(job["id"], timeout=120.0)
    return [canonical_json(envelope) for envelope in finished["results"]]


class TestServiceDeltaIngest:
    def test_noop_reingest_is_free(self, tmp_path, small_corpus):
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            client.ingest(small_corpus)
            parses = service.session.stats.parse_calls
            invalidated = service.detector.score_memo.stats.invalidated
            statements: list = []
            service.database.connection.set_trace_callback(statements.append)
            try:
                summary = client.ingest(small_corpus)  # identical bytes
            finally:
                service.database.connection.set_trace_callback(None)
            assert summary["unchanged"] == len(small_corpus)
            assert summary["ingested"] == 0
            assert not [statement for statement in statements  # no row written
                        if statement.split()[0] in WRITE_VERBS]
            assert service.session.stats.parse_calls == parses
            assert service.detector.score_memo.stats.invalidated == invalidated

    def test_diff_ingest_serves_identical_envelopes(self, tmp_path,
                                                    small_corpus):
        edited_corpus = [(doc_id, VULN_EDITED if doc_id == "wallet" else src)
                         for doc_id, src in small_corpus]
        with AnalysisService(make_config(tmp_path, "delta")) as service:
            client = ServiceClient(service.url)
            client.ingest(small_corpus)
            summary = client.ingest_delta(
                "wallet", diff=make_unified_diff(VULN, VULN_EDITED),
                base_version=content_key(VULN))
            assert summary["ingested"] == 1
            via_delta = probe_envelopes(client)
            stats = client.stats()
        with AnalysisService(make_config(tmp_path, "full")) as service:
            client = ServiceClient(service.url)
            client.ingest(edited_corpus)
            via_full = probe_envelopes(client)
        assert via_delta == via_full  # byte-identical canonical envelopes
        incremental = stats["incremental"]
        assert incremental["delta_fallbacks"] == 0
        assert incremental["functions_reused"] >= 1
        assert incremental["sources_retained"] == len(small_corpus)

    def test_stale_base_version_is_rejected(self, tmp_path, small_corpus):
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            client.ingest(small_corpus)
            with pytest.raises(ServiceError, match="base_version"):
                client.ingest_delta(
                    "wallet", source=VULN_EDITED,
                    base_version=content_key("something else entirely"))
            # ... and the index is untouched by the rejected delta
            assert client.stats()["index"]["documents"] == len(small_corpus)

    def test_guarded_replacement_round_trip(self, tmp_path, small_corpus):
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            client.ingest(small_corpus)
            summary = client.ingest_delta(
                "wallet", source=VULN_EDITED, base_version=content_key(VULN))
            assert summary["ingested"] == 1
            # the journal now retains the edited bytes: a diff against the
            # *new* version applies cleanly
            back = client.ingest_delta(
                "wallet", diff=make_unified_diff(VULN_EDITED, VULN),
                base_version=content_key(VULN_EDITED))
            assert back["ingested"] == 1


#: a worker killed in the middle of, or just after, a guarded diff edit
CRASHING_EDIT = """
import json, os, sys
from repro.core.artifacts import content_key
from repro.service import AnalysisService, ServiceConfig
from repro.service.delta import SourceJournal, make_unified_diff

spec = json.loads(open(sys.argv[1], encoding="utf-8").read())
service = AnalysisService(ServiceConfig(data_dir=spec["data_dir"], port=0,
                                        backend="serial"))
service.ingest(spec["corpus"])
if spec["crash_at"] == "journal-write":
    record = SourceJournal.record

    def record_then_die(journal, *args):
        record(journal, *args)
        os._exit(3)

    SourceJournal.record = record_then_die
service.ingest([{"id": "wallet",
                 "diff": make_unified_diff(spec["base"], spec["edited"]),
                 "base_version": content_key(spec["base"])}])
os._exit(3)
"""


def write_statements(statements):
    """The row-writing statements of a trace."""
    return [statement for statement in statements
            if statement.split()[0] in WRITE_VERBS]


class TestOneTransactionPerIngest:
    """An ingest commits its journal, index and memo rows together."""

    @pytest.mark.parametrize("crash_at", ["journal-write", "after-commit"])
    def test_a_crashed_edit_leaves_journal_and_index_agreeing(
            self, tmp_path, small_corpus, crash_at):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        spec = {"data_dir": str(tmp_path / "crashed"), "corpus": small_corpus,
                "crash_at": crash_at, "base": VULN, "edited": VULN_EDITED}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", CRASHING_EDIT, str(spec_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 3, child.stderr
        edited_corpus = [(doc_id, VULN_EDITED if doc_id == "wallet" else src)
                         for doc_id, src in small_corpus]
        with AnalysisService(make_config(tmp_path, "crashed")) as service:
            journaled = service.source_journal.get("wallet")
            assert service.detector.source_keys["wallet"] == content_key(journaled)
            client = ServiceClient(service.url)
            if crash_at == "journal-write":
                # the edit never committed: retrying the guarded diff applies it
                assert journaled == VULN
                summary = client.ingest_delta(
                    "wallet", diff=make_unified_diff(VULN, VULN_EDITED),
                    base_version=content_key(VULN))
                assert summary["ingested"] == 1
            else:
                assert journaled == VULN_EDITED
                summary = client.ingest_delta(
                    "wallet", source=VULN_EDITED,
                    base_version=content_key(VULN_EDITED))
                assert summary["unchanged"] == 1
            recovered = probe_envelopes(client)
        with AnalysisService(make_config(tmp_path, "fresh")) as service:
            client = ServiceClient(service.url)
            client.ingest(edited_corpus)
            assert probe_envelopes(client) == recovered

    def test_an_edit_writes_the_same_rows_at_any_corpus_size(
            self, tmp_path, small_corpus):
        qa = generate_qa_corpus(
            seed=5, posts_per_site={"stackoverflow": 6,
                                    "ethereum.stackexchange": 12})
        larger = [(contract.address, contract.source) for contract in
                  generate_sanctuary(qa, seed=13,
                                     independent_contracts=12).contracts]
        larger.append(("wallet", VULN))
        assert len(larger) > 2 * len(small_corpus)
        writes = []
        for name, corpus in (("small", small_corpus), ("large", larger)):
            data_dir = tmp_path / name
            service = AnalysisService(ServiceConfig(
                data_dir=str(data_dir), port=0, backend="serial", cache=False))
            try:
                service.ingest(corpus)
                others = {path: path.stat().st_mtime_ns
                          for path in data_dir.rglob("*")
                          if not path.name.startswith("corpus.sqlite")}
                statements: list = []
                service.database.connection.set_trace_callback(
                    statements.append)
                summary = service.ingest([{
                    "id": "wallet",
                    "diff": make_unified_diff(VULN, VULN_EDITED),
                    "base_version": content_key(VULN)}])
                service.database.connection.set_trace_callback(None)
                # no other file of the data dir changes
                assert {path: path.stat().st_mtime_ns
                        for path in others} == others
            finally:
                service.stop()
            assert summary["ingested"] == 1
            # every row of the edit is written inside one transaction
            assert statements.count("BEGIN IMMEDIATE") == 1
            assert statements.count("COMMIT") == 1
            begin = statements.index("BEGIN IMMEDIATE")
            commit = statements.index("COMMIT")
            assert write_statements(statements) == \
                write_statements(statements[begin:commit])
            writes.append(len(write_statements(statements)))
        assert writes[0] == writes[1]

    def test_a_failed_ingest_rolls_the_live_index_back(
            self, tmp_path, small_corpus, monkeypatch):
        import sqlite3

        import repro.service.server as server

        def failing_write(*args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        service = AnalysisService(make_config(tmp_path))
        try:
            service.ingest(small_corpus[:2])
            monkeypatch.setattr(server, "append_to_index", failing_write)
            with pytest.raises(sqlite3.OperationalError):
                service.ingest([("wallet", VULN)])
            monkeypatch.undo()
            assert "wallet" not in service.detector.fingerprints
            assert service.source_journal.get("wallet") is None
            # the retry is a real ingest, not an "unchanged" no-op
            assert service.ingest([("wallet", VULN)])["ingested"] == 1
        finally:
            service.stop()
        service = AnalysisService(make_config(tmp_path))
        try:
            assert sorted(service.detector.fingerprints) == sorted(
                document_id for document_id, _ in [*small_corpus[:2],
                                                   ("wallet", VULN)])
        finally:
            service.stop()

    def test_pickle_shard_data_dir_is_refused(self, tmp_path):
        data_dir = tmp_path / "old"
        (data_dir / "index").mkdir(parents=True)
        (data_dir / "index" / "index.json").write_text('{"format_version": 1}')
        with pytest.raises(IndexFormatError, match="retired pickle-shard layout"):
            AnalysisService(make_config(tmp_path, "old"))
        assert sorted(path.name for path in data_dir.iterdir()) == ["index"]


# ---------------------------------------------------------------------------
# the coordinator delta path (sharded)
# ---------------------------------------------------------------------------

@contextmanager
def in_process_cluster(tmp_path, shard_count):
    workers = []
    coordinator = None
    try:
        for index in range(shard_count):
            service = AnalysisService(make_config(tmp_path, f"worker-{index}"))
            service.start()
            workers.append(service)
        coordinator = ClusterCoordinator(CoordinatorConfig(
            data_dir=str(tmp_path / "coordinator"), port=0,
            workers=tuple(worker.url for worker in workers),
            connect_timeout=5.0, shard_timeout=60.0))
        coordinator.start()
        yield coordinator
    finally:
        if coordinator is not None:
            coordinator.stop()
        for worker in workers:
            worker.stop()


class TestCoordinatorDeltaIngest:
    def test_delta_through_coordinator_matches_single_node(self, tmp_path,
                                                           small_corpus):
        edited_corpus = [(doc_id, VULN_EDITED if doc_id == "wallet" else src)
                         for doc_id, src in small_corpus]
        with in_process_cluster(tmp_path, 2) as coordinator:
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            client.ingest(small_corpus)
            # the coordinator resolves the diff against its own journal
            # before routing the resolved source to the owning shard
            summary = client.ingest_delta(
                "wallet", diff=make_unified_diff(VULN, VULN_EDITED),
                base_version=content_key(VULN))
            assert summary["ingested"] == 1
            via_cluster = probe_envelopes(client)
        with AnalysisService(make_config(tmp_path, "single")) as service:
            client = ServiceClient(service.url)
            client.ingest(edited_corpus)
            via_single = probe_envelopes(client)
        assert via_cluster == via_single  # byte parity across the topology

    def test_diff_base_is_a_keyed_lookup(self, tmp_path, small_corpus):
        """Resolving a diff reads one journaled source, not every row.

        Every ``SELECT`` the ingest runs on ``corpus.sqlite`` is keyed by
        document id, except the document count of the response summary.
        """
        with in_process_cluster(tmp_path, 2) as coordinator:
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            client.ingest(small_corpus)
            connection = coordinator.journal._connection.connection
            statements: list = []
            connection.set_trace_callback(statements.append)
            try:
                summary = client.ingest_delta(
                    "wallet", diff=make_unified_diff(VULN, VULN_EDITED),
                    base_version=content_key(VULN))
            finally:
                connection.set_trace_callback(None)
            assert summary["ingested"] == 1
            selects = [statement for statement in statements
                       if statement.lstrip().upper().startswith("SELECT")]
            assert any(statement.startswith("SELECT source FROM documents "
                                            "WHERE id = ")
                       for statement in selects)
            for statement in selects:
                assert (" WHERE id = " in statement
                        or statement == "SELECT COUNT(*) FROM documents"), \
                    statement

    def test_unchanged_counts_aggregate_across_shards(self, tmp_path,
                                                      small_corpus):
        with in_process_cluster(tmp_path, 2) as coordinator:
            client = ServiceClient(coordinator.url, connect_timeout=5.0)
            client.ingest(small_corpus)
            summary = client.ingest(small_corpus)  # identical bytes
            assert summary["unchanged"] == len(small_corpus)
            assert summary["ingested"] == 0


# ---------------------------------------------------------------------------
# repro watch
# ---------------------------------------------------------------------------

class TestWatchSession:
    def test_watch_reports_only_changed_findings(self, tmp_path):
        from repro.cli import _WatchSession

        watched = tmp_path / "watched"
        watched.mkdir()
        (watched / "wallet.sol").write_text(VULN, encoding="utf-8")
        lines: list = []
        with AnalysisService(make_config(tmp_path)) as service:
            session = _WatchSession(
                ServiceClient(service.url), watched, ["ccd", "ccc"],
                out=lines.append)
            assert session.start() == 1
            assert session.poll() == 0          # nothing edited yet
            (watched / "wallet.sol").write_text(VULN_EDITED, encoding="utf-8")
            assert session.poll() == 1
            report = "\n".join(lines)
            # only the edited deposit()'s findings are printed; withdraw's
            # reentrancy finding exists but did not change
            assert "arithmetic-overflow" in report
            assert "reentrancy" not in report
            (watched / "wallet.sol").unlink()   # deletion retires the doc
            assert session.poll() == 0
            assert ServiceClient(service.url).stats()["index"]["documents"] == 0
        assert any("removed from index" in line for line in lines)
