"""Custom DASP-style query DSL: validation, compilation, daemon parity.

The DSL (:mod:`repro.ccc.custom`) lets users add CCC queries over the
API without code execution — a spec is pure data naming one selector
and two condition lists from a fixed vocabulary.  These tests cover the
strict validator, the compiled query's behaviour inside
:class:`ContractChecker`, the process-wide registry rules, and the
service integration: a query registered over ``POST /v1/queries``
persists across daemon restarts and changes ccc findings byte
identically to registering it locally.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api import AnalysisSession, SessionConfig, canonical_json
from repro.ccc.custom import (
    CONDITIONS,
    SELECTORS,
    CustomQuery,
    QuerySpecError,
    compile_query,
    validate_query_spec,
)
from repro.ccc.checker import ContractChecker
from repro.ccc.registry import (
    BUILTIN_QUERY_IDS,
    all_queries,
    register_query,
    registered_queries,
    unregister_query,
)
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)

#: a spec that flags every unguarded ether transfer
TRANSFER_SPEC = {
    "query_id": "custom-unguarded-transfer",
    "category": "Access Control",
    "title": "Ether transfer reachable without access control",
    "select": "ether_transfers",
    "require": [],
    "exclude": ["access_controlled"],
}

#: a contract the spec flags: a public payout with no guard
PAYOUT_SOURCE = """
contract Payout {
    function pay(address to) public { to.transfer(1 ether); }
}
"""

#: the same payout behind an owner check: the exclude condition holds
GUARDED_SOURCE = """
contract Payout {
    address owner;
    function pay(address to) public {
        require(msg.sender == owner);
        to.transfer(1 ether);
    }
}
"""


@pytest.fixture
def clean_registry():
    """Snapshot the custom-query registry and restore it afterwards."""
    before = {query.query_id for query in registered_queries()}
    yield
    for query in list(registered_queries()):
        if query.query_id not in before:
            unregister_query(query.query_id)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def test_valid_spec_normalizes(self):
        spec = validate_query_spec(dict(TRANSFER_SPEC, title="  padded  "))
        assert spec["title"] == "padded"
        assert spec["require"] == [] and spec["exclude"] == \
            ["access_controlled"]

    def test_defaults_empty_condition_lists(self):
        minimal = {key: TRANSFER_SPEC[key]
                   for key in ("query_id", "category", "title", "select")}
        spec = validate_query_spec(minimal)
        assert spec["require"] == [] and spec["exclude"] == []

    @pytest.mark.parametrize("mutation, message", [
        ({"query_id": "no-prefix"}, "query_id"),
        ({"query_id": "custom-"}, "query_id"),
        ({"query_id": 7}, "query_id"),
        ({"category": "Not A Category"}, "category"),
        ({"title": "   "}, "title"),
        ({"select": "everything"}, "select"),
        ({"require": ["grep"]}, "unknown require"),
        ({"exclude": "access_controlled"}, "exclude"),
        ({"payload": "import os"}, "unknown spec key"),
    ])
    def test_rejections(self, mutation, message):
        with pytest.raises(QuerySpecError, match=message):
            validate_query_spec(dict(TRANSFER_SPEC, **mutation))

    def test_non_object_spec_is_refused(self):
        with pytest.raises(QuerySpecError, match="JSON object"):
            validate_query_spec("select * from everything")

    def test_vocabulary_is_code_free(self):
        """Every selector and condition is a fixed callable, not user code."""
        assert all(callable(selector) for selector in SELECTORS.values())
        assert all(callable(condition) for condition in CONDITIONS.values())


# ---------------------------------------------------------------------------
# compiled behaviour
# ---------------------------------------------------------------------------

class TestCompiledQuery:
    def test_flags_unguarded_transfer_only(self, clean_registry):
        register_query(compile_query(TRANSFER_SPEC))
        checker = ContractChecker()
        flagged = checker.analyze(PAYOUT_SOURCE)
        assert TRANSFER_SPEC["query_id"] in flagged.query_ids()
        guarded = checker.analyze(GUARDED_SOURCE)
        assert TRANSFER_SPEC["query_id"] not in guarded.query_ids()

    def test_compiled_query_keeps_its_spec(self):
        query = compile_query(TRANSFER_SPEC)
        assert isinstance(query, CustomQuery)
        assert query.spec == validate_query_spec(TRANSFER_SPEC)

    def test_registry_rules(self, clean_registry):
        query = compile_query(TRANSFER_SPEC)
        register_query(query)
        with pytest.raises(ValueError, match="already registered"):
            register_query(compile_query(TRANSFER_SPEC))
        register_query(compile_query(TRANSFER_SPEC), replace=True)  # reload
        builtin_id = sorted(BUILTIN_QUERY_IDS)[0]
        impostor = compile_query(dict(TRANSFER_SPEC,
                                      query_id="custom-impostor"))
        impostor.query_id = builtin_id
        with pytest.raises(ValueError, match="built-in"):
            register_query(impostor)
        assert any(entry.query_id == TRANSFER_SPEC["query_id"]
                   for entry in all_queries())


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------

def make_config(tmp_path, name="svc", **overrides) -> ServiceConfig:
    defaults = dict(data_dir=str(tmp_path / name), port=0, backend="serial")
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def local_ccc_bytes(source: str) -> list:
    with AnalysisSession(SessionConfig(backend="serial")) as session:
        return [canonical_json(envelope) for envelope in
                session.run([("payout", source)], analyses=["ccc"])]


class TestServiceIntegration:
    def test_registered_query_changes_daemon_findings_identically(
            self, tmp_path, clean_registry):
        """Local registration and API registration agree byte-for-byte."""
        baseline = local_ccc_bytes(PAYOUT_SOURCE)

        register_query(compile_query(TRANSFER_SPEC))
        local = local_ccc_bytes(PAYOUT_SOURCE)
        assert local != baseline  # the query changes the findings
        unregister_query(TRANSFER_SPEC["query_id"])

        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            response = client.register_query(TRANSFER_SPEC)
            assert response["query"]["query_id"] == TRANSFER_SPEC["query_id"]
            job = client.submit([("payout", PAYOUT_SOURCE)],
                                analyses=["ccc"])
            finished = client.wait(job["id"], timeout=120.0)
            daemon = [canonical_json(envelope)
                      for envelope in finished["results"]]
        assert daemon == local

    def test_queries_listing_marks_custom_rows(self, tmp_path,
                                               clean_registry):
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            rows = client.queries()
            assert all(row["custom"] is False for row in rows)
            assert len(rows) == len(BUILTIN_QUERY_IDS)
            client.register_query(TRANSFER_SPEC)
            rows = {row["query_id"]: row for row in client.queries()}
            assert rows[TRANSFER_SPEC["query_id"]]["custom"] is True
            assert rows[TRANSFER_SPEC["query_id"]]["category"] == \
                "Access Control"

    def test_invalid_spec_is_a_400(self, tmp_path, clean_registry):
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError, match="select"):
                client.register_query(dict(TRANSFER_SPEC,
                                           select="everything"))
            with pytest.raises(ServiceError, match="query_id"):
                client.register_query(dict(TRANSFER_SPEC, query_id="bad"))

    def test_queries_persist_across_daemon_restart(self, tmp_path,
                                                   clean_registry):
        config = make_config(tmp_path)
        with AnalysisService(config) as service:
            ServiceClient(service.url).register_query(TRANSFER_SPEC)
            queries_path = service.queries_path
        assert json.loads(queries_path.read_text())[0]["query_id"] == \
            TRANSFER_SPEC["query_id"]

        # simulate a fresh process: the global registry forgets the query
        unregister_query(TRANSFER_SPEC["query_id"])

        with AnalysisService(make_config(tmp_path)) as service:
            assert service.reloaded_queries == 1
            rows = {row["query_id"]: row
                    for row in ServiceClient(service.url).queries()}
            assert rows[TRANSFER_SPEC["query_id"]]["custom"] is True

    def test_a_failed_queries_write_keeps_the_earlier_registrations(
            self, tmp_path, clean_registry, monkeypatch):
        second = dict(TRANSFER_SPEC, query_id="custom-second-transfer")
        service = AnalysisService(make_config(tmp_path))
        try:
            service.register_query_spec(TRANSFER_SPEC)
            real_open = io.open

            class TornFile:
                """A file whose write stores half the bytes, then fails."""

                def __init__(self, handle):
                    self.handle = handle

                def write(self, data):
                    self.handle.write(data[:len(data) // 2])
                    self.handle.flush()
                    raise OSError(28, "No space left on device")

                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    self.handle.close()

            def torn_open(file, mode="r", *args, **kwargs):
                handle = real_open(file, mode, *args, **kwargs)
                return TornFile(handle) if "w" in mode else handle

            monkeypatch.setattr(io, "open", torn_open)
            with pytest.raises(OSError, match="No space left"):
                service.register_query_spec(second)
            monkeypatch.undo()
            registered = {query.query_id for query in registered_queries()}
            assert TRANSFER_SPEC["query_id"] in registered
            assert second["query_id"] not in registered
        finally:
            service.stop()
        # a fresh process: the global registry forgets the query
        unregister_query(TRANSFER_SPEC["query_id"])
        service = AnalysisService(make_config(tmp_path))
        try:
            assert service.reloaded_queries == 1
            registered = {query.query_id for query in registered_queries()}
            assert TRANSFER_SPEC["query_id"] in registered
            assert second["query_id"] not in registered
        finally:
            service.stop()

    def test_reregistering_same_id_replaces(self, tmp_path, clean_registry):
        with AnalysisService(make_config(tmp_path)) as service:
            client = ServiceClient(service.url)
            client.register_query(TRANSFER_SPEC)
            retitled = dict(TRANSFER_SPEC, title="Retitled")
            client.register_query(retitled)
            rows = {row["query_id"]: row for row in client.queries()}
            assert rows[TRANSFER_SPEC["query_id"]]["title"] == "Retitled"
            specs = json.loads(service.queries_path.read_text())
            assert len(specs) == 1 and specs[0]["title"] == "Retitled"
