"""Shared machinery of the benchmark: inputs, statistics, spans, the daemon.

Everything here measures the program from outside: it generates inputs
with the seeded ``repro.datasets`` generators, times calls into public
entry points, and drives a real ``python -m repro serve`` subprocess over
raw ``http.client``.  Nothing in ``src/`` is edited or patched.

Stdlib only.  Importing this module starts nothing and opens nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space of a run (daemon data dirs, result and span files);
#: listed in the repository's .gitignore
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = WORK_DIR / "results"

#: seconds any single HTTP request, daemon start or child process may take
#: before the harness gives up on it (the whole run must end within 180 s)
OPERATION_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, changed inputs)."""


def load_spec() -> dict:
    """The pinned workload parameters, input digests and gate floors."""
    return json.loads((BENCH_DIR / "spec.json").read_text())


def load_benchmark() -> dict:
    """The root ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or fail.

    The benchmark builds nothing: it runs the package straight from the
    checkout.  Without ``src/repro`` there is no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- inputs ------------------------------------------------------------------

def digest(value) -> str:
    """sha256 of one canonical JSON encoding of ``value``."""
    payload = json.dumps(value, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def generate_corpus(params: dict):
    """The Q&A corpus and deployed-contract corpus every daemon holds."""
    from repro.datasets import generate_qa_corpus, generate_sanctuary

    qa = generate_qa_corpus(seed=params["qa_seed"],
                            posts_per_site=params["posts_per_site"])
    sanctuary = generate_sanctuary(
        qa, seed=params["sanctuary_seed"],
        independent_contracts=params["independent_contracts"])
    return qa, sanctuary


def corpus_digest(qa, sanctuary) -> str:
    """Digest of everything the corpus generators produced, ground truth included."""
    return digest({
        "posts": [dataclasses.asdict(post) for post in qa.posts],
        "contracts": [dataclasses.asdict(contract) for contract in sanctuary.contracts],
        "embeddings": sanctuary.ground_truth_embeddings,
        "sources": sorted(sanctuary.ground_truth_source_snippets),
    })


def generate_batch(params: dict) -> list:
    """The distinct snippet texts of the large batch corpus, first occurrence order."""
    from repro.datasets import generate_qa_corpus

    qa = generate_qa_corpus(seed=params["qa_seed"],
                            posts_per_site=params["posts_per_site"])
    return list(dict.fromkeys(snippet.text for snippet in qa.snippets))


def input_digests(spec: dict) -> dict:
    """Freshly computed digests of every pinned input set."""
    qa, sanctuary = generate_corpus(spec["inputs"]["corpus"])
    return {"corpus": corpus_digest(qa, sanctuary),
            "batch": digest(generate_batch(spec["inputs"]["batch"]))}


def check_digest(spec: dict, name: str, actual: str) -> None:
    """Refuse to run on inputs that differ from the pinned ones."""
    pinned = spec["inputs"][name]["sha256"]
    if actual != pinned:
        raise BenchError(
            f"the {name!r} inputs changed: repro.datasets now generates "
            f"sha256 {actual}, bench/spec.json pins {pinned}; results would "
            f"not be comparable with earlier runs")


# -- statistics --------------------------------------------------------------

def median(values) -> Optional[float]:
    """The median, or ``None`` for no samples."""
    values = list(values)
    return statistics.median(values) if values else None


def percentile(values, q: float) -> Optional[float]:
    """The ``q``-th percentile by nearest rank, when the sample supports it.

    A tail percentile is reported only when at least ten samples lie
    beyond it; otherwise ``None``.  ``q == 50`` is the median, which
    every non-empty sample supports.
    """
    values = sorted(values)
    if not values:
        return None
    if q == 50:
        return statistics.median(values)
    rank = math.ceil(q / 100.0 * len(values))
    if len(values) - rank < 10:
        return None
    return values[rank - 1]


# -- spans -------------------------------------------------------------------

@dataclasses.dataclass
class Span:
    """One timed interval recorded by the harness (perf_counter seconds)."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    trace: Optional[str] = None


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Spans are kept in memory and written out once, when the run ends,
    so recording costs a list append.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, trace: Optional[str] = None) -> Optional[int]:
        """Record one span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            self.spans.append(Span(name, start, end, parent, trace))
            return len(self.spans) - 1

    def write(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(dataclasses.asdict(span), id=index)
                for index, span in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows}))


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans) -> dict:
    """Per span name: ``{"count", "total_s", "self_s"}``.

    A span's self time is its duration minus the part of that interval
    its child spans cover (overlapping children are counted once).
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    table: dict = {}
    for index, span in enumerate(spans):
        duration = span.end - span.start
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered(children.get(index, ()), span.start, span.end)
    return table


# -- the daemon --------------------------------------------------------------

def serve_flags() -> list:
    """``--frontend asyncio`` while ``repro serve --help`` still lists the flag.

    The asyncio gateway is the transport the project keeps; once the
    flag is gone it is the only one, so the benchmark passes nothing.
    """
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        cwd=ROOT, env=program_env(), capture_output=True, text=True,
        timeout=OPERATION_TIMEOUT)
    return ["--frontend", "asyncio"] if "--frontend" in completed.stdout else []


def program_env() -> dict:
    """Environment of child processes: the checkout's ``src/`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def timed_lines(process: subprocess.Popen, timeout: float) -> list:
    """``(perf_counter at arrival, line)`` for every stdout line of ``process``.

    Reads until the process closes stdout, then waits for its exit; a
    process that runs past ``timeout`` is killed and raises.
    """
    deadline = time.monotonic() + timeout
    fd = process.stdout.fileno()
    lines, buffered = [], b""
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"child {process.args} ran past {timeout:.0f} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            now = time.perf_counter()
            if not chunk:
                break
            *complete, buffered = (buffered + chunk).split(b"\n")
            lines.extend((now, line.decode("utf-8")) for line in complete)
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    return lines


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


class Daemon:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir: Path, flags: list, spec: dict):
        self.data_dir = data_dir
        daemon = spec["daemon"]
        self.argv = [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", str(data_dir), "--port", "0",
            "--backend", daemon["backend"], "--workers", str(daemon["workers"]),
            "--ngram-threshold", str(daemon["ngram_threshold"]),
            "--similarity-threshold", str(daemon["similarity_threshold"]),
        ] + flags
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log = None

    def start(self) -> None:
        """Spawn the daemon and wait for its ``PORT=`` line."""
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.mkdir(parents=True)
        self._log = open(self.data_dir.with_suffix(".log"), "wb")
        self.process = subprocess.Popen(
            self.argv, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._log, bufsize=0)
        deadline = time.monotonic() + OPERATION_TIMEOUT
        buffered = b""
        fd = self.process.stdout.fileno()
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise BenchError(f"daemon did not start: {self._log_tail()}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(f"daemon exited during start: {self._log_tail()}")
            buffered += chunk
            for line in buffered.split(b"\n"):
                if line.startswith(b"PORT="):
                    self.port = int(line[5:])

    def _log_tail(self) -> str:
        """The end of the daemon's stderr, for error messages."""
        self._log.flush()
        return self.data_dir.with_suffix(".log").read_text(errors="replace")[-2000:]

    def connection(self) -> http.client.HTTPConnection:
        """A fresh keep-alive connection to the daemon."""
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=OPERATION_TIMEOUT)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far, in MiB."""
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (then SIGKILL), wait for the exit, drop the data dir."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=OPERATION_TIMEOUT / 4)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process.stdout.close()
            self.process = None
        if self._log is not None:
            self._log.close()
            self._log = None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.with_suffix(".log").unlink(missing_ok=True)


# -- HTTP operations ---------------------------------------------------------

def request_json(connection, method: str, path: str, body=None) -> tuple:
    """One JSON request; returns ``(status, payload)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw) if raw else None
    except ValueError:
        payload = None
    return response.status, payload


@dataclasses.dataclass
class JobSample:
    """What one client saw of one ccd+ccc job."""

    start: float
    submitted: float = 0.0
    first: Optional[float] = None
    last: Optional[float] = None
    end: float = 0.0
    job_id: Optional[int] = None
    status: int = 0
    lines: list = dataclasses.field(default_factory=list)
    ok: bool = False
    #: daemon-side epoch stamps (traced runs only)
    stamps: Optional[dict] = None
    #: harness epoch time at ``start``, to place daemon stamps on this clock
    wall_start: float = 0.0

    @property
    def latency(self) -> float:
        """POST sent to last envelope received (seconds)."""
        return (self.last if self.last is not None else self.end) - self.start


def run_job(connection, sources: list, traced: bool = False) -> JobSample:
    """Submit one ccd+ccc job and read its stream to the last envelope."""
    sample = JobSample(start=time.perf_counter(), wall_start=time.time())
    try:
        status, payload = request_json(connection, "POST", "/v1/jobs", {
            "sources": sources, "analyses": ["ccd", "ccc"]})
        sample.submitted = time.perf_counter()
        sample.status = status
        if status != 202:
            sample.end = sample.submitted
            return sample
        sample.job_id = payload["job"]["id"]
        connection.request("GET", f"/v1/jobs/{sample.job_id}/stream")
        response = connection.getresponse()
        sample.status = response.status
        while True:
            line = response.readline()
            if not line:
                break
            now = time.perf_counter()
            if sample.first is None:
                sample.first = now
            sample.last = now
            sample.lines.append(line.rstrip(b"\n").decode("utf-8"))
        sample.end = time.perf_counter()
        sample.ok = (response.status == 200
                     and len(sample.lines) == 2 * len(sources))
        if traced and sample.ok:
            status, payload = request_json(
                connection, "GET", f"/v1/jobs/{sample.job_id}?results=0")
            if status == 200:
                job = payload["job"]
                sample.stamps = {key: job.get(key)
                                 for key in ("submitted", "started", "finished", "state")}
                sample.ok = job.get("state") == "done"
    except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError):
        sample.ok = False
        sample.status = 0  # no HTTP answer: refused, reset or timed out
        sample.end = time.perf_counter()
        connection.close()  # http.client reconnects on the next request
    return sample


# -- the Figure-6 study ------------------------------------------------------

def run_study(qa, contracts, sanctuary=None, traced: bool = False) -> dict:
    """Run the default-configuration study once; time it and check it.

    With ``traced``, the stages are attributed from outside: the public
    ``progress`` callback bounds collection and clone mapping, and the
    session's public ``run`` entry point is timed per call, which bounds
    the checking (``ccc``) and validation (``validate``) chunks.  The
    remainder of the run (temporal and correlation analysis, candidate
    assembly) is the study span's self time.
    """
    from repro.api import AnalysisSession
    from repro.pipeline import StudyConfiguration, VulnerableCodeReuseStudy
    from repro.pipeline.report import render_study_report

    configuration = StudyConfiguration()
    session = AnalysisSession(configuration.session_config())
    marks: dict = {}
    calls: list = []
    progress = None
    if traced:
        inner = session.run

        def timed_run(corpus, analyses, *args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(corpus, analyses, *args, **kwargs)
            finally:
                calls.append((tuple(analyses), start, time.perf_counter()))

        session.run = timed_run

        def progress(stage, done, total):
            marks.setdefault(stage, time.perf_counter())

    try:
        start = time.perf_counter()
        with VulnerableCodeReuseStudy(configuration, session=session) as study:
            result = study.run(qa, contracts, progress=progress)
        end = time.perf_counter()
        stats = session.stats
        store = {"hits": stats.hits, "lookups": stats.lookups,
                 "parse_calls": stats.parse_calls,
                 "disk_writes": getattr(stats, "disk_writes", 0)}
    finally:
        session.close()
    report = render_study_report(result)
    timeouts = result.snippet_timeouts + sum(
        1 for outcome in result.validation.outcomes if outcome.timed_out)
    outcome = {"study_s": end - start,
               "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
               "timeouts": timeouts, "store": store}
    if sanctuary is not None:
        outcome.update(_study_accuracy(result, sanctuary))
    if traced:
        stages = [("collection", start, marks["collection"]),
                  ("clone_mapping", marks["collection"], marks["clone_mapping"])]
        stages += [("checking", low, high) for analyses, low, high in calls
                   if analyses == ("ccc",)]
        stages += [("validation", low, high) for analyses, low, high in calls
                   if analyses == ("validate",)]
        outcome["spans"] = {"study": [start, end],
                            "stages": [[name, low, high] for name, low, high in stages]}
    return outcome


def _study_accuracy(result, sanctuary) -> dict:
    """CCC verdicts and CCD mapping against the generators' ground truth."""
    snippets = result.collection.snippets
    flagged = result.vulnerable_snippets
    true_positive = sum(1 for s in snippets if s.snippet_id in flagged and s.ground_truth_vulnerable)
    false_positive = sum(1 for s in snippets if s.snippet_id in flagged and not s.ground_truth_vulnerable)
    false_negative = sum(1 for s in snippets if s.snippet_id not in flagged and s.ground_truth_vulnerable)
    expected = found = 0
    for snippet_id, addresses in sanctuary.ground_truth_embeddings.items():
        mapped = set(result.clone_mapping.contracts_for(snippet_id))
        expected += len(addresses)
        found += len(mapped.intersection(addresses))
    return {
        "ccc_precision": true_positive / max(1, true_positive + false_positive),
        "ccc_recall": true_positive / max(1, true_positive + false_negative),
        "ccd_recall": found / max(1, expected),
    }


def shuffled(items, seed: int) -> list:
    """A seeded permutation of ``items``."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items
