"""Tests for the ``repro`` console-script CLI."""

import json
import re
import threading

import pytest

from repro.api.envelope import canonical_json
from repro.cli import build_parser, main
from repro.pipeline.checkpoint import StudyCheckpoint
from test_workloads import (
    PAYOUT_SOURCE,
    SWEEP_PARAMS,
    in_process_cluster,
    local_workload_bytes,
)

SMALL_CORPUS = ["--posts-stackoverflow", "4", "--posts-ethereum", "8",
                "--independent-contracts", "4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_every_subcommand_is_wired(self):
        parser = build_parser()
        for argv in (["analyze", "contracts"],
                     ["analyzers", "list"],
                     ["queries", "list"],
                     ["index", "build", "--output", "x"],
                     ["index", "info", "x"],
                     ["study", "run"],
                     ["study", "resume", "--checkpoint", "x"],
                     ["cache", "stats", "x"],
                     ["cache", "gc", "x"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "run", "--backend", "rocket"])


class TestIndexCommands:
    def test_build_then_info(self, tmp_path, capsys):
        index = str(tmp_path / "index")
        code, out, _ = run_cli(capsys, "index", "build", "--output", index,
                               "--shards", "2", *SMALL_CORPUS)
        assert code == 0
        assert "saved" in out and "2 shard(s)" in out
        code, out, _ = run_cli(capsys, "index", "info", index)
        assert code == 0
        assert "documents" in out and "similarity_threshold" in out

    def test_build_with_cache_warm_rebuild(self, tmp_path, capsys):
        index = str(tmp_path / "index")
        cache = str(tmp_path / "cache")
        code, out, _ = run_cli(capsys, "index", "build", "--output", index,
                               "--cache", cache, *SMALL_CORPUS)
        assert code == 0
        code, out, _ = run_cli(capsys, "index", "build", "--output", index,
                               "--cache", cache, *SMALL_CORPUS)
        assert code == 0
        assert "0 parses" in out  # warm rebuild hydrated from the disk cache

    def test_info_on_missing_index_fails(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "index", "info", str(tmp_path / "nope"))
        assert code == 1
        assert "error" in err


class TestStudyCommands:
    def test_run_then_resume_same_report(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck")
        code, first, _ = run_cli(capsys, "study", "run", "--checkpoint", checkpoint,
                                 "--quiet", *SMALL_CORPUS)
        assert code == 0
        assert "Pipeline funnel" in first
        code, second, _ = run_cli(capsys, "study", "resume",
                                  "--checkpoint", checkpoint, "--quiet")
        assert code == 0

        def report_of(text):
            return text[:text.index("artifact cache")]

        assert report_of(first) == report_of(second)

    def test_run_with_cache_reports_disk_tier(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code, out, _ = run_cli(capsys, "study", "run", "--cache", cache,
                               "--quiet", *SMALL_CORPUS)
        assert code == 0
        assert "disk tier" in out

    def test_run_refuses_mismatched_corpus_checkpoint(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck")
        code, _, _ = run_cli(capsys, "study", "run", "--checkpoint", checkpoint,
                             "--quiet", *SMALL_CORPUS)
        assert code == 0
        code, _, err = run_cli(capsys, "study", "run", "--checkpoint", checkpoint,
                               "--quiet", "--posts-stackoverflow", "5",
                               "--posts-ethereum", "8", "--independent-contracts", "4")
        assert code == 1
        assert "different corpus parameters" in err

    def test_resume_of_checkpoint_naming_retired_bounded_backend(
            self, tmp_path, capsys):
        # a checkpoint recorded under the retired "bounded" backend resumes
        # (as myers, whose pruning decisions it made) to the same report
        code, fresh, _ = run_cli(capsys, "study", "run", "--checkpoint",
                                 str(tmp_path / "ck"), "--quiet", *SMALL_CORPUS)
        assert code == 0
        metadata = StudyCheckpoint(tmp_path / "ck").metadata
        assert metadata["configuration"]["similarity_backend"] == "myers"
        StudyCheckpoint(tmp_path / "legacy").update_metadata(
            configuration={**metadata["configuration"],
                           "similarity_backend": "bounded"},
            corpus=metadata["corpus"])
        code, resumed, _ = run_cli(capsys, "study", "resume", "--checkpoint",
                                   str(tmp_path / "legacy"), "--quiet")
        assert code == 0

        def report_of(text):
            return text[:text.index("artifact cache")]

        assert report_of(resumed) == report_of(fresh)

    def test_resume_without_study_fails(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "study", "resume",
                               "--checkpoint", str(tmp_path / "empty"))
        assert code == 1
        assert "resumable" in err


class TestCacheCommands:
    def test_stats_and_gc(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        run_cli(capsys, "study", "run", "--cache", cache, "--quiet", *SMALL_CORPUS)
        code, out, _ = run_cli(capsys, "cache", "stats", cache)
        assert code == 0
        assert "entries" in out
        code, out, _ = run_cli(capsys, "cache", "gc", cache, "--max-entries", "5")
        assert code == 0
        assert "evicted" in out
        code, out, _ = run_cli(capsys, "cache", "stats", cache)
        assert code == 0

    def test_mismatched_cache_configuration_is_a_clean_error(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code, _, _ = run_cli(capsys, "study", "run", "--cache", cache,
                             "--quiet", *SMALL_CORPUS)
        assert code == 0
        code, _, err = run_cli(capsys, "study", "run", "--cache", cache, "--quiet",
                               "--ngram-size", "5", *SMALL_CORPUS)
        assert code == 1
        assert "error" in err and "cache" in err
        code, _, err = run_cli(capsys, "index", "build", "--output",
                               str(tmp_path / "idx"), "--cache", cache,
                               "--ngram-size", "5", *SMALL_CORPUS)
        assert code == 1
        assert "error" in err

    def test_stats_on_missing_path_is_a_clean_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "cache", "stats", str(tmp_path / "none"))
        assert code == 1
        assert "no artifact cache" in err and "Traceback" not in err

    def test_stats_on_non_sqlite_path_is_a_clean_error(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "artifacts.sqlite").write_text("definitely not a database")
        code, _, err = run_cli(capsys, "cache", "stats", str(cache))
        assert code == 1
        assert "not a valid SQLite" in err and "Traceback" not in err


class TestRegistryCommands:
    def test_analyzers_list(self, capsys):
        code, out, _ = run_cli(capsys, "analyzers", "list")
        assert code == 0
        for analyzer_id in ("ccd", "ccc", "validate", "temporal", "correlation"):
            assert analyzer_id in out
        assert "corpus" in out and "contract" in out

    def test_queries_list(self, capsys):
        code, out, _ = run_cli(capsys, "queries", "list")
        assert code == 0
        assert "17 queries" in out
        assert "reentrancy-call-before-write" in out
        assert "Access Control" in out


class TestAnalyzeCommand:
    def test_streaming_and_batch_summaries_agree(self, capsys):
        code, stream_out, _ = run_cli(capsys, "analyze", "contracts", *SMALL_CORPUS)
        assert code == 0
        assert "(streaming)" in stream_out and "ccd" in stream_out and "ccc" in stream_out
        code, batch_out, _ = run_cli(capsys, "analyze", "contracts", "--batch",
                                     *SMALL_CORPUS)
        assert code == 0
        assert "(batch)" in batch_out

        def rows_of(text):
            # drop the mode word, timing line, and title underline; the
            # tallies themselves must be identical between the two modes
            return [line for line in text.splitlines()
                    if not line.startswith(("=", "analyzed "))
                    and "(streaming)" not in line and "(batch)" not in line]

        assert rows_of(stream_out) == rows_of(batch_out)

    def test_snippet_corpus_with_corpus_scope_analyzers(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "snippets",
                               "--analyses", "ccc,temporal,correlation",
                               *SMALL_CORPUS)
        assert code == 0
        assert "temporal (corpus scope)" in out
        assert "correlation (corpus scope)" in out
        assert "disseminator_snippets" in out

    def test_unknown_analyzer_is_a_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "contracts",
                               "--analyses", "nope", *SMALL_CORPUS)
        assert code == 1
        assert "unknown analyzer" in err and "analyzers list" in err

    def test_warm_cache_rerun_parses_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code, _, _ = run_cli(capsys, "analyze", "contracts", "--cache", cache,
                             *SMALL_CORPUS)
        assert code == 0
        code, out, _ = run_cli(capsys, "analyze", "contracts", "--cache", cache,
                               *SMALL_CORPUS)
        assert code == 0
        assert "0 parses" in out


class TestMatcherCliOptions:
    def test_profile_prints_stage_table(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "snippets", "--analyses", "ccd",
                               "--profile", *SMALL_CORPUS)
        assert code == 0
        assert "Match pipeline profile [myers backend]" in out
        assert "candidates" in out and "verification" in out
        assert "pruned by length bucket" in out
        assert "abandoned by mean bound" in out
        assert "seconds (summed over queries)" in out

    def test_exact_and_default_backends_agree(self, capsys):
        code, default_out, _ = run_cli(capsys, "analyze", "snippets",
                                       "--analyses", "ccd", *SMALL_CORPUS)
        assert code == 0
        code, exact_out, _ = run_cli(capsys, "analyze", "snippets",
                                     "--analyses", "ccd",
                                     "--similarity-backend", "exact",
                                     *SMALL_CORPUS)
        assert code == 0

        def tally_rows(text):
            return [line for line in text.splitlines()
                    if not line.startswith("analyzed ")]

        assert tally_rows(default_out) == tally_rows(exact_out)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "contracts", "--similarity-backend", "fuzzy"])

    def test_retired_bounded_backend_is_no_choice(self, capsys):
        for command in (["analyze", "contracts"], ["index", "build", "--output", "x"],
                        ["study", "run"]):
            args = build_parser().parse_args(
                [*command, "--similarity-backend", "myers"])
            assert args.similarity_backend == "myers"
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [*command, "--similarity-backend", "bounded"])
            err = capsys.readouterr().err
            assert "invalid choice: 'bounded'" in err
            assert re.search(r"choose from '?exact'?, '?myers'?\)", err)

    def test_index_build_records_backend(self, tmp_path, capsys):
        index = str(tmp_path / "index")
        code, _, _ = run_cli(capsys, "index", "build", "--output", index,
                             "--similarity-backend", "exact", *SMALL_CORPUS)
        assert code == 0
        code, out, _ = run_cli(capsys, "index", "info", index)
        assert code == 0
        assert "similarity_backend" in out and "exact" in out

    def test_profile_without_ccd_warns(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "snippets",
                                 "--analyses", "ccc", "--profile", *SMALL_CORPUS)
        assert code == 0
        assert "Match pipeline profile" not in out
        assert "needs 'ccd'" in err


class TestVersion:
    def test_version_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "version")
        assert code == 0
        from repro import __version__

        assert out.strip() == f"repro {__version__}"

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        from repro import __version__

        assert __version__ in out and out.startswith("repro")

    def test_version_matches_installed_metadata_when_available(self):
        from repro.cli import package_version

        assert package_version()  # never raises, installed or not


class TestServiceCommands:
    def test_serve_submit_jobs_are_wired(self):
        parser = build_parser()
        for argv in (["serve", "--data-dir", "x"],
                     ["submit", "snippets", "--url", "http://localhost:1"],
                     ["jobs", "list", "--url", "http://localhost:1"],
                     ["jobs", "show", "3", "--url", "http://localhost:1"],
                     ["version"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_serve_requires_data_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_against_dead_daemon_is_a_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "submit", "snippets",
                               "--url", "http://127.0.0.1:9",  # discard port
                               *SMALL_CORPUS)
        assert code == 1
        assert "error" in err and "Traceback" not in err

    def test_jobs_list_against_dead_daemon_is_a_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "jobs", "list", "--url", "http://127.0.0.1:9")
        assert code == 1
        assert "error" in err

    def test_submit_and_jobs_against_in_process_daemon(self, tmp_path, capsys):
        from repro.service import AnalysisService, ServiceConfig

        config = ServiceConfig(data_dir=str(tmp_path / "svc"), port=0,
                               backend="serial")
        with AnalysisService(config) as service:
            code, out, _ = run_cli(capsys, "submit", "snippets",
                                   "--url", service.url, "--ingest", "--wait",
                                   *SMALL_CORPUS)
            assert code == 0
            assert "submitted job" in out and "done in" in out
            assert "ingested" in out
            code, out, _ = run_cli(capsys, "jobs", "list", "--url", service.url)
            assert code == 0
            assert "done" in out
            code, out, _ = run_cli(capsys, "jobs", "show", "1",
                                   "--url", service.url)
            assert code == 0
            assert "Results" in out


@pytest.fixture
def daemon(tmp_path):
    """An in-process daemon with one scheduler worker."""
    from repro.service import AnalysisService, ServiceConfig

    config = ServiceConfig(data_dir=str(tmp_path / "svc"), port=0,
                           backend="serial")
    with AnalysisService(config) as service:
        yield service


def run_sweep(service) -> int:
    """Run the small parameter sweep to completion; returns its job id."""
    from repro.service import ServiceClient

    client = ServiceClient(service.url)
    job_id = client.submit_workload("parameter_sweep",
                                    params=SWEEP_PARAMS)["id"]
    assert client.wait_workload(job_id, timeout=120.0)["job"]["state"] == "done"
    return job_id


def cancel_after_first_chunk(service, capsys, monkeypatch) -> int:
    """Start the sweep, ``repro jobs cancel`` it once chunk 0 is done.

    The store's ``finish_chunk`` holds the runner after chunk 0 until
    the cancel has landed, so the job stops at the next chunk boundary
    with exactly one chunk done.  Returns the cancelled job's id.
    """
    from repro.service import ServiceClient

    store = service.jobstore
    first_done = threading.Event()
    cancel_sent = threading.Event()
    finish_chunk = store.finish_chunk

    def finish_then_hold(job_id, chunk, result, state="done"):
        finish_chunk(job_id, chunk, result, state)
        if chunk == 0:
            first_done.set()
            cancel_sent.wait(60)

    monkeypatch.setattr(store, "finish_chunk", finish_then_hold)
    client = ServiceClient(service.url)
    job_id = client.submit_workload("parameter_sweep",
                                    params=SWEEP_PARAMS)["id"]
    try:
        assert first_done.wait(60)
        code, out, _ = run_cli(capsys, "jobs", "cancel", str(job_id),
                               "--url", service.url)
    finally:
        cancel_sent.set()
    assert code == 0
    assert out.strip() == f"job {job_id}: cancelling"
    final = client.wait_workload(job_id, timeout=120.0)
    assert final["job"]["state"] == "cancelled"
    return job_id


class TestJobLifecycleCli:
    """``jobs cancel`` and ``workload run|list|show|resume`` on a daemon."""

    def test_jobs_cancel_drops_a_queued_job(self, daemon, capsys):
        from repro.service import ServiceClient

        client = ServiceClient(daemon.url)
        # the only scheduler worker parks on the work lock with the first
        # job, so the second one stays queued until the lock is released
        with daemon._work_lock.write():
            client.submit_workload("parameter_sweep", params=SWEEP_PARAMS)
            queued = client.submit_workload("parameter_sweep",
                                            params=SWEEP_PARAMS)["id"]
            code, out, _ = run_cli(capsys, "jobs", "cancel", str(queued),
                                   "--url", daemon.url)
        assert code == 0
        assert out.strip() == f"job {queued}: cancelled"
        assert client.job(queued, results=False)["job"]["state"] == "cancelled"
        code, out, _ = run_cli(capsys, "jobs", "cancel", "99",
                               "--url", daemon.url)
        assert code == 1

    def test_workload_run_wait_writes_the_merged_report(self, daemon, tmp_path,
                                                        capsys):
        from repro.service import ServiceClient

        output = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "workload", "run", "parameter_sweep",
                               "--url", daemon.url,
                               "--params", json.dumps(SWEEP_PARAMS),
                               "--wait", "--output", str(output))
        assert code == 0
        job_id = int(re.search(r"submitted workload (\d+)", out).group(1))
        assert f"workload {job_id} done in" in out and "(4/4 chunks)" in out
        assert f"merged report written to {output}" in out
        report = json.loads(output.read_text(encoding="utf-8"))
        merged = ServiceClient(daemon.url).job(job_id)["results"][0]
        assert report == merged
        assert canonical_json(report) == local_workload_bytes(
            "parameter_sweep", SWEEP_PARAMS)

    def test_workload_list_shows_chunk_progress(self, daemon, capsys):
        job_id = run_sweep(daemon)
        code, out, _ = run_cli(capsys, "workload", "list", "--url", daemon.url)
        assert code == 0
        assert "(0-1 of 1)" in out
        row = [line.split() for line in out.splitlines()
               if line.startswith(f"{job_id} ")]
        assert row and row[0][:4] == [str(job_id), "done", "parameter_sweep",
                                      "4/4"]

    def test_workload_show_chunks_after_a_cancel(self, daemon, capsys,
                                                 monkeypatch):
        job_id = cancel_after_first_chunk(daemon, capsys, monkeypatch)
        code, out, _ = run_cli(capsys, "workload", "show", str(job_id),
                               "--url", daemon.url, "--chunks")
        assert code == 0
        assert "Chunks (4)" in out
        states = {}
        for line in out.split("Chunks (4)")[1].splitlines():
            fields = line.split()
            if fields and fields[0].isdigit():
                states[int(fields[0])] = fields[1]
        assert states == {0: "done", 1: "cancelled", 2: "cancelled",
                          3: "cancelled"}
        assert any(line.split()[:2] == ["progress", "1/4"]
                   for line in out.splitlines() if line.strip())

    def test_workload_resume_after_a_cancel_keeps_done_chunks(
            self, daemon, capsys, monkeypatch):
        from repro.service import ServiceClient

        job_id = cancel_after_first_chunk(daemon, capsys, monkeypatch)
        code, out, _ = run_cli(capsys, "workload", "resume", str(job_id),
                               "--url", daemon.url)
        assert code == 0
        assert out.strip() == (f"workload {job_id} requeued "
                               f"(1/4 chunks already done)")
        final = ServiceClient(daemon.url).wait_workload(job_id, timeout=120.0)
        assert final["job"]["state"] == "done"
        assert canonical_json(final["results"][0]) == local_workload_bytes(
            "parameter_sweep", SWEEP_PARAMS)
        # a done job is not resumable: the requeue transaction refuses it
        code, _, err = run_cli(capsys, "workload", "resume", str(job_id),
                               "--url", daemon.url)
        assert code == 1 and "only failed or cancelled" in err


class TestClusterCli:
    def test_serve_role_and_cluster_status_are_wired(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--data-dir", "d", "--role", "coordinator",
             "--workers", "http://a:1,http://b:2",
             "--shard-timeout", "12", "--connect-timeout", "3"])
        assert args.role == "coordinator"
        assert args.workers == "http://a:1,http://b:2"
        assert args.shard_timeout == 12.0 and args.connect_timeout == 3.0
        args = parser.parse_args(["cluster", "status", "--url", "http://c:9"])
        assert args.url == "http://c:9" and callable(args.handler)

    def test_serve_worker_count_still_parses_as_int(self):
        args = build_parser().parse_args(
            ["serve", "--data-dir", "d", "--workers", "4"])
        assert args.role == "worker" and args.workers == "4"

    def test_port_zero_prints_machine_readable_port_line(self, tmp_path):
        """``repro serve --port 0`` must print ``PORT=<n>`` for harnesses."""
        import cluster_harness

        daemon = cluster_harness.spawn_daemon(tmp_path / "svc", timeout=60)
        try:
            assert daemon.port is not None and daemon.port > 0
            port_lines = [line for line in daemon.stdout_lines
                          if line.startswith("PORT=")]
            assert port_lines == [f"PORT={daemon.port}"]
            # the human-readable banner stays FIRST: operators and scripts
            # read the URL off line one
            assert daemon.stdout_lines[0].startswith("serving on ")
            assert f":{daemon.port}" in daemon.stdout_lines[0]
            assert daemon.client().healthz()["status"] == "ok"
        finally:
            daemon.close()

    def test_cluster_status_prints_every_shard(self, tmp_path, capsys):
        from repro.service import ServiceClient

        documents = [[f"doc-{index}", PAYOUT_SOURCE.replace(
            "Payout", f"Payout{index}")] for index in range(6)]
        with in_process_cluster(tmp_path, 2) as (coordinator, workers):
            ServiceClient(coordinator.url).ingest(documents)
            routed = coordinator.journal.per_shard_counts()
            indexed = {f"shard-{index}": len(worker.detector)
                       for index, worker in enumerate(workers)}
            code, out, err = run_cli(capsys, "cluster", "status",
                                     "--url", coordinator.url)
        assert code == 0, err
        rows = {line.split()[0]: line.split() for line in out.splitlines()
                if line.startswith("shard-")}
        assert sorted(rows) == ["shard-0", "shard-1"]
        assert sum(routed.values()) == 6
        for name, (_, _url, status, indexed_count, routed_count, _queue) \
                in rows.items():
            assert status == "ok"
            assert int(routed_count) == routed.get(name, 0)
            assert int(indexed_count) == indexed[name]

    def test_queries_register_broadcasts_to_every_shard(self, tmp_path,
                                                        capsys):
        from repro.ccc.registry import unregister_query
        from repro.service import ServiceClient

        spec = {"query_id": "custom-cli-transfer",
                "category": "Access Control",
                "title": "Ether transfer reachable without access control",
                "select": "ether_transfers",
                "exclude": ["access_controlled"]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            with in_process_cluster(tmp_path, 2) as (coordinator, workers):
                code, out, err = run_cli(capsys, "queries", "register",
                                         "--spec", str(spec_path),
                                         "--url", coordinator.url)
                assert code == 0, err
                assert "on shards shard-0, shard-1" in out
                for worker in workers:
                    listed = {entry["query_id"]
                              for entry in ServiceClient(worker.url).queries()}
                    assert spec["query_id"] in listed
        finally:
            unregister_query(spec["query_id"])
