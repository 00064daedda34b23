"""The four workloads: ``study``, ``jobs``, ``batch`` and ``edits``.

Each workload sets up (several times, reporting the median), measures
for the run's ``seconds``, checks the program's outputs, and returns an
:class:`Outcome`.  All load comes from this one process through at most
two threads, each with its own keep-alive connection.

The gated end-to-end metrics are the same four on every workload; what
"one operation" means differs and is listed in ``bench/README.md``:

* ``setup_s`` - median set-up time (study: spawn to ready; daemon:
  spawn, ready and the corpus ingest acknowledged);
* ``latency_p50_ms`` - median latency of the workload's operation;
* ``throughput_per_s`` - operations (study, batch: snippets) per second;
* ``peak_rss_mb`` - peak resident set of the measured process.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import http.client
import json
import math
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import (
    BENCH_DIR,
    OPERATION_TIMEOUT,
    ROOT,
    BenchError,
    Daemon,
    Span,
    Tracer,
    check_digest,
    corpus_digest,
    digest,
    generate_batch,
    generate_corpus,
    median,
    percentile,
    program_env,
    request_json,
    run_job,
    run_study,
    self_times,
    shuffled,
    timed_lines,
)
from replay import match_counters, replay_layers


@dataclasses.dataclass
class Context:
    """Everything one workload run is parameterised by."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    spec: dict
    tracer: Tracer
    work_dir: Path
    #: extra ``repro serve`` flags (``--frontend asyncio`` while it exists)
    serve_flags: list

    @property
    def params(self) -> dict:
        """This workload's parameters from ``bench/spec.json``."""
        return self.spec["workloads"][self.workload]

    def sized(self, key: str):
        """A sample size or probe length, shrunk by ``--quick``."""
        return self.spec["quick_sizes" if self.quick else "sizes"][key]


@dataclasses.dataclass
class Outcome:
    """What a workload run measured and checked."""

    #: gated end-to-end metrics: name -> value
    metrics: dict = dataclasses.field(default_factory=dict)
    #: secondary end-to-end numbers: name -> {"value", "unit", "samples"}
    report: dict = dataclasses.field(default_factory=dict)
    #: per-layer metrics (traced runs): name -> value
    layers: dict = dataclasses.field(default_factory=dict)
    #: correctness gates: name -> {"ok": bool, "detail": str}
    checks: dict = dataclasses.field(default_factory=dict)
    #: sample count behind each gated metric
    samples: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: per-layer metrics whose entry point no longer exists
    dropped: list = dataclasses.field(default_factory=list)

    def record(self, setups: list, latencies: list, throughput: float, operations: int,
               rss: list) -> None:
        """Set the four gated end-to-end metrics (seconds in, ms out)."""
        latency = median(latencies)
        self.metrics = {
            "setup_s": median(setups),
            "latency_p50_ms": None if latency is None else latency * 1000.0,
            "throughput_per_s": throughput,
            "peak_rss_mb": median(rss),
        }
        self.samples = {"setup_s": len(setups), "latency_p50_ms": len(latencies),
                        "throughput_per_s": operations, "peak_rss_mb": len(rss)}

    def check(self, name: str, ok: bool, detail: str) -> None:
        """Record one correctness gate."""
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def note(self, name: str, seconds: list, q: float) -> None:
        """Record a secondary timing in ms: the ``q``-th percentile, when supported."""
        value = percentile(seconds, q)
        self.report[name] = {"value": None if value is None else value * 1000.0,
                             "unit": "ms", "samples": len(seconds)}


# -- inputs ------------------------------------------------------------------

def corpus(ctx: Context):
    """The pinned Q&A + contract corpus (refuses changed generator output)."""
    qa, sanctuary = generate_corpus(ctx.spec["inputs"]["corpus"])
    check_digest(ctx.spec, "corpus", corpus_digest(qa, sanctuary))
    return qa, sanctuary


def batch_texts(ctx: Context) -> list:
    """The pinned distinct snippets of the large batch corpus."""
    texts = generate_batch(ctx.spec["inputs"]["batch"])
    check_digest(ctx.spec, "batch", digest(texts))
    return texts


def snippet_pairs(qa) -> list:
    """``[snippet_id, text]`` wire pairs of every corpus snippet."""
    return [[snippet.snippet_id, snippet.text] for snippet in qa.snippets]


def warm_jobs(ctx: Context, qa) -> list:
    """Every corpus snippet, in seeded order, cut into the small warm jobs.

    A warm one-snippet job races the stream endpoint's first poll: about
    half of them finish before it and return at once, the rest wait out
    the poll interval, and which half wins shifts from run to run.  A few
    snippets per job always outlast the first poll, so the latency is
    one mode, not a coin flip.
    """
    pairs, size = shuffled(snippet_pairs(qa), ctx.seed), ctx.params["job_size"]
    return [pairs[at:at + size] for at in range(0, len(pairs), size)]


def documents_of(sanctuary) -> list:
    """``[address, source]`` wire pairs of every deployed contract."""
    return [[contract.address, contract.source] for contract in sanctuary.contracts]


# -- the daemon set-up -------------------------------------------------------

def set_up(ctx: Context, documents: list, count: int = None) -> tuple:
    """Set a daemon up ``count`` times (default: ``setups``); keep the last one.

    One set-up is spawn, ready (``PORT=`` printed) and the ingest of the
    whole contract corpus acknowledged, on a fresh data directory each
    time, so every set-up is cold.  Returns ``(daemon, setup seconds,
    ingest milliseconds)``.
    """
    if count is None:
        count = 1 if ctx.quick else ctx.spec["daemon"]["setups"]
    setups, ingests = [], []
    daemon = None
    for index in range(count):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(ctx.work_dir / f"daemon-{index}", ctx.serve_flags, ctx.spec)
        start = time.perf_counter()
        try:
            daemon.start()
            ready = time.perf_counter()
            connection = daemon.connection()
            try:
                status, payload = request_json(
                    connection, "POST", "/v1/corpus", {"documents": documents})
            finally:
                connection.close()
        except BaseException:
            daemon.stop()
            raise
        end = time.perf_counter()
        if status != 200 or payload.get("ingested") != len(documents):
            daemon.stop()
            raise BenchError(f"corpus ingest failed: HTTP {status} {payload}")
        ctx.tracer.add("setup", start, end, trace=f"setup-{index}")
        setups.append(end - start)
        ingests.append(end - ready)
    return daemon, setups, ingests


def warm_up(daemon: Daemon, sources: list) -> None:
    """One job over ``sources`` so lazy start-up and cold parses are paid."""
    connection = daemon.connection()
    try:
        sample = run_job(connection, sources)
    finally:
        connection.close()
    if not sample.ok:
        raise BenchError(f"warm-up job failed (HTTP {sample.status})")


def stats(daemon: Daemon) -> dict:
    """One ``/v1/stats`` snapshot."""
    connection = daemon.connection()
    try:
        status, payload = request_json(connection, "GET", "/v1/stats")
    finally:
        connection.close()
    if status != 200:
        raise BenchError(f"/v1/stats answered HTTP {status}")
    return payload


def in_thread(target, *args):
    """Run ``target(*args)`` on one extra thread; returns ``wait()`` for its result."""
    box: dict = {}

    def body():
        try:
            box["value"] = target(*args)
        except BaseException as error:  # re-raised in the caller's thread
            box["error"] = error

    thread = threading.Thread(target=body, name="bench-client-1", daemon=True)
    thread.start()

    def wait():
        thread.join(timeout=4 * OPERATION_TIMEOUT)
        if thread.is_alive():
            raise BenchError("the second client did not finish")
        if "error" in box:
            raise box["error"]
        return box["value"]

    return wait


def client_loop(daemon: Daemon, items: list, deadline: float, traced: bool,
                repeat: bool = True, on_job=None) -> tuple:
    """A closed-loop client: next job as soon as the previous one streamed out.

    Cycles over ``items`` until ``deadline`` (or, without ``repeat``,
    until every item was sent once), calling ``on_job(samples)`` after
    each job.  Returns ``([(sources, JobSample)], gaps)``, where a gap is the
    harness's own time between one job's end and the next job's start.
    """
    connection = daemon.connection()
    samples, gaps = [], []
    previous = None
    try:
        index = 0
        while time.perf_counter() < deadline and (repeat or index < len(items)):
            sources = items[index % len(items)]
            index += 1
            sample = run_job(connection, sources, traced)
            if previous is not None:
                gaps.append(sample.start - previous)
            previous = sample.end
            samples.append((sources, sample))
            if on_job is not None:
                on_job(samples)
    finally:
        connection.close()
    return samples, gaps


def count_failures(outcome: Outcome, samples: list) -> None:
    """Count every job as attempted, and the ones that failed or were refused."""
    outcome.attempted += len(samples)
    outcome.failed += sum(1 for _, sample in samples if not sample.ok)


def job_spans(ctx: Context, samples: list) -> None:
    """Record each job's span tree: submit, queue wait, run, stream tail."""
    for _, sample in samples:
        if sample.last is None:
            continue
        trace = f"job-{sample.job_id}"
        root = ctx.tracer.add("job", sample.start, sample.last, trace=trace)
        ctx.tracer.add("job.submit", sample.start, sample.submitted, root, trace)
        stamps = sample.stamps
        if not stamps or None in (stamps["submitted"], stamps["started"], stamps["finished"]):
            continue

        def local(epoch, sample=sample):
            return sample.start + (epoch - sample.wall_start)

        ctx.tracer.add("job.queue_wait", local(stamps["submitted"]), local(stamps["started"]), root, trace)
        ctx.tracer.add("job.run", local(stamps["started"]), local(stamps["finished"]), root, trace)
        ctx.tracer.add("job.stream_tail", local(stamps["finished"]), sample.last, root, trace)


def service_layers(samples: list) -> dict:
    """The ``service.*`` per-layer metrics of a traced set of jobs (ms)."""
    done = [sample for _, sample in samples if sample.ok]
    stamped = [sample for sample in done if sample.stamps]
    layers = {
        "service.submit_ms": median(s.submitted - s.start for s in done),
        "service.ttfe_ms": median(s.first - s.start for s in done),
        "service.queue_wait_ms": median(
            s.stamps["started"] - s.stamps["submitted"] for s in stamped),
        "service.run_ms": median(
            s.stamps["finished"] - s.stamps["started"] for s in stamped),
        "service.stream_tail_ms": median(
            s.wall_start + (s.last - s.start) - s.stamps["finished"] for s in stamped),
    }
    layers = {name: value * 1000.0 for name, value in layers.items() if value is not None}
    statuses = [sample.status for _, sample in samples]
    layers["service.shed"] = sum(1 for status in statuses if status in (429, 503))
    layers["service.http_errors"] = sum(1 for status in statuses if status not in (200, 202))
    return layers


def stats_layers(before: dict, after: dict) -> dict:
    """``core.*`` and ``ccd`` counters from two ``/v1/stats`` snapshots."""
    def delta(block, key):
        return after[block].get(key, 0) - before[block].get(key, 0)

    lookups = delta("store", "lookups")
    layers = {
        "core.artifact_hit_ratio": delta("store", "hits") / lookups if lookups else 0.0,
        "core.parse_calls": delta("store", "parse_calls"),
        "core.disk_writes": delta("store", "disk_writes"),
    }
    layers.update(match_counters({key: delta("match_stats", key)
                                  for key in after["match_stats"]
                                  if isinstance(after["match_stats"][key], int)}))
    return layers


# -- correctness -------------------------------------------------------------

class Reference:
    """The in-process reference: ``exact`` backend, serial executor.

    Built with the daemon's thresholds over the same contract corpus, so
    its canonical envelopes must equal the daemon's byte for byte.
    """

    def __init__(self, spec: dict, documents: list):
        from repro.api import AnalysisSession, SessionConfig
        from repro.api.envelope import canonical_json
        from repro.ccd.detector import CloneDetector

        daemon = spec["daemon"]
        self.canonical_json = canonical_json
        self.session = AnalysisSession(SessionConfig(
            backend="serial", similarity_backend="exact",
            ngram_threshold=daemon["ngram_threshold"],
            similarity_threshold=daemon["similarity_threshold"]))
        self.detector = CloneDetector(
            ngram_threshold=daemon["ngram_threshold"],
            similarity_threshold=daemon["similarity_threshold"],
            store=self.session.store, similarity_backend="exact")
        self.detector.add_corpus([tuple(pair) for pair in documents])

    def lines(self, sources: list) -> list:
        """Canonical envelope lines of one ccd+ccc job over ``sources``."""
        envelopes = self.session.run([tuple(pair) for pair in sources],
                                     analyses=["ccd", "ccc"],
                                     options={"ccd": {"detector": self.detector}})
        return [self.canonical_json(envelope) for envelope in envelopes]

    def close(self) -> None:
        """Release the reference session."""
        self.session.close()


def check_parity(ctx: Context, outcome: Outcome, documents: list, population: list) -> None:
    """Byte-compare a seeded sample of distinct jobs against the reference.

    ``population`` holds ``(sources, envelope lines)`` per job the daemon
    answered.  A job body sent more than once must get the same bytes
    every time; a seeded sample of the distinct bodies must equal the
    reference's bytes.
    """
    answers: dict = {}
    for sources, lines in population:
        answers.setdefault(json.dumps(sources), set()).add(tuple(lines))
    unstable = sum(1 for seen in answers.values() if len(seen) > 1)
    distinct = sorted(answers)
    sample = random.Random(ctx.seed + 1).sample(distinct, min(ctx.sized("parity"), len(distinct)))
    reference = Reference(ctx.spec, documents)
    try:
        mismatched = [key for key in sample
                      if {tuple(reference.lines(json.loads(key)))} != answers[key]]
    finally:
        reference.close()
    outcome.check("parity", sample and not mismatched and not unstable,
                  f"{len(sample) - len(mismatched)}/{len(sample)} sampled distinct jobs "
                  f"(of {len(distinct)}) byte-identical to the exact/serial reference; "
                  f"{unstable} bodies answered differently on repeats" +
                  (f"; first mismatch: {mismatched[0][:120]}" if mismatched else ""))


# -- replay ------------------------------------------------------------------

def replay(ctx: Context, outcome: Outcome, snippet_sources: list, sanctuary,
           qa=None) -> None:
    """Fill the per-layer metrics the replay (and a small study) provide."""
    rng = random.Random(ctx.seed + 2)
    contracts = documents_of(sanctuary)
    sources = rng.sample(snippet_sources, min(ctx.sized("snippets"), len(snippet_sources)))
    sources += rng.sample(contracts, ctx.sized("contracts"))
    index = [tuple(pair) for pair in rng.sample(contracts, ctx.sized("index_contracts"))]
    layers, dropped = replay_layers([tuple(pair) for pair in sources], index, ctx.spec,
                                    ctx.work_dir, ctx.sized("jobstore_rounds"))
    outcome.layers.update(layers)
    outcome.dropped.extend(dropped)
    if qa is not None:
        from repro.datasets.snippets import QACorpus

        posts = rng.sample(qa.posts, ctx.sized("study_posts"))
        # the sampled posts' clones first, so the small study validates something
        sampled = {snippet.snippet_id for post in posts for snippet in post.snippets}
        study_contracts = sorted(sanctuary.contracts,
                                 key=lambda c: c.ground_truth_snippet_id not in sampled)
        study_contracts = study_contracts[:ctx.sized("study_contracts")]
        outcome.layers.update(pipeline_layers(
            ctx, [run_study(QACorpus(posts=posts), study_contracts, traced=True)]))


def pipeline_layers(ctx: Context, runs: list) -> dict:
    """``pipeline.*`` from traced study runs: medians of per-run stage sums."""
    per_run = []
    for number, run in enumerate(runs):
        trace = f"study-{ctx.workload}-{number}"
        study_start, study_end = run["spans"]["study"]
        stages = run["spans"]["stages"]
        root = ctx.tracer.add("study", study_start, study_end, trace=trace)
        for name, low, high in stages:
            ctx.tracer.add(f"study.{name}", low, high, root, trace)
        table = self_times([Span("study", study_start, study_end)] + [
            Span(f"study.{name}", low, high, parent=0) for name, low, high in stages])
        per_run.append({
            "pipeline.unattributed_s": table["study"]["self_s"],
            **{f"pipeline.{name}_s": table.get(f"study.{name}", {}).get("total_s", 0.0)
               for name in ("collection", "clone_mapping", "checking", "validation")},
        })
    return {name: median(run[name] for run in per_run) for name in per_run[0]}


def service_probe(ctx: Context, outcome: Outcome, documents: list, snippets: list) -> None:
    """``service.*`` layers for a workload without a daemon: a short traced probe.

    One set-up, then one closed-loop client over ``snippets`` for the
    probe's seconds; the study's own path never touches the service.
    """
    daemon, _, ingests = set_up(ctx, documents, count=1)
    try:
        samples, _ = client_loop(daemon, [[pair] for pair in snippets],
                                 time.perf_counter() + ctx.sized("probe_seconds"), True)
    finally:
        daemon.stop()
    outcome.layers.update(service_layers(samples))
    outcome.layers["service.ingest_ms"] = median(ingests) * 1000.0


def loadgen_layers(outcome: Outcome, lags: list, samples: int) -> None:
    """The benchmark's own health: its worst lag and its sample count."""
    outcome.layers["loadgen.lag_max_ms"] = max(lags, default=0.0) * 1000.0
    outcome.layers["loadgen.samples"] = samples


# -- study -------------------------------------------------------------------

def study(ctx: Context) -> Outcome:
    """Figure-6 study runs, each in a fresh process, for ``seconds``."""
    outcome = Outcome()
    qa, sanctuary = corpus(ctx)
    minimum = 1 if ctx.quick else ctx.params["min_runs"]
    runs, setups, gaps = [], [], []
    start = time.perf_counter()
    previous = None
    with open(ctx.work_dir / "study-child.log", "ab") as errors:
        while (len(runs) + outcome.failed < minimum
               or time.perf_counter() - start < ctx.seconds):
            spawned = time.perf_counter()
            if previous is not None:
                gaps.append(spawned - previous)
            outcome.attempted += 1
            process = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "study_child.py"),
                 "--seed", str(ctx.seed), "--trace", str(int(ctx.trace))],
                cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                stderr=errors, bufsize=0)
            lines = timed_lines(process, OPERATION_TIMEOUT)
            previous = time.perf_counter()
            ready = next((at for at, line in lines if line == "READY"), None)
            result = next((json.loads(line[len("RESULT "):]) for _, line in lines
                           if line.startswith("RESULT ")), None)
            if process.returncode != 0 or ready is None or result is None:
                outcome.failed += 1
                continue
            ctx.tracer.add("study.setup", spawned, ready, trace=f"study-{len(runs)}")
            setups.append(ready - spawned)
            runs.append(result)
    if not runs:
        raise BenchError(f"no study run completed; see {ctx.work_dir / 'study-child.log'}")

    durations = [run["study_s"] for run in runs]
    outcome.record(setups, durations, len(qa.snippets) / median(durations),
                   len(qa.snippets) * len(runs), [run["peak_rss_mb"] for run in runs])

    gates = ctx.spec["gates"]
    digests = sorted({run["report_sha256"] for run in runs})
    outcome.check("report_sha256", digests == [gates["study_report_sha256"]],
                  f"report digests {digests}, pinned {gates['study_report_sha256']}")
    timeouts = sum(run["timeouts"] for run in runs)
    outcome.check("timeouts", timeouts == 0, f"{timeouts} query timeouts")
    for key in ("ccc_precision", "ccc_recall", "ccd_recall"):
        worst, floor = min(run[key] for run in runs), gates[f"{key}_floor"]
        outcome.check(key, worst >= floor, f"{worst:.4f} (floor {floor})")

    if ctx.trace:
        pairs = snippet_pairs(qa)
        replay(ctx, outcome, pairs, sanctuary)
        outcome.layers.update(pipeline_layers(ctx, runs))
        store = [run["store"] for run in runs]
        outcome.layers.update({
            "core.artifact_hit_ratio": median(s["hits"] / s["lookups"] for s in store),
            "core.parse_calls": median(s["parse_calls"] for s in store),
            "core.disk_writes": median(s["disk_writes"] for s in store),
            "ccc.timeouts": timeouts,
        })
        service_probe(ctx, outcome, documents_of(sanctuary),
                      random.Random(ctx.seed).sample(pairs, ctx.sized("snippets")))
        loadgen_layers(outcome, gaps, len(durations))
    return outcome


# -- jobs --------------------------------------------------------------------

def jobs(ctx: Context) -> Outcome:
    """Two closed-loop clients of small warm ccd+ccc jobs."""
    outcome = Outcome()
    qa, sanctuary = corpus(ctx)
    documents = documents_of(sanctuary)
    bodies = warm_jobs(ctx, qa)
    # disjoint halves: two clients never submit identical bodies at once,
    # which the gateway would coalesce into one job
    halves = [bodies[0::2], bodies[1::2]]
    daemon, setups, ingests = set_up(ctx, documents)
    try:
        warm_up(daemon, snippet_pairs(qa))
        before = stats(daemon) if ctx.trace else None
        deadline = time.perf_counter() + ctx.seconds
        wait = in_thread(client_loop, daemon, halves[1], deadline, ctx.trace)
        first = client_loop(daemon, halves[0], deadline, ctx.trace)
        second = wait()
        after = stats(daemon) if ctx.trace else None
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    samples, gaps = first[0] + second[0], first[1] + second[1]
    count_failures(outcome, samples)
    done = [sample for _, sample in samples if sample.ok]
    latencies = [sample.latency for sample in done]
    window = max(s.end for _, s in samples) - min(s.start for _, s in samples)
    outcome.record(setups, latencies, len(done) / window, len(done), [rss])
    for name, q in (("job_p90_ms", 90), ("job_p99_ms", 99)):
        outcome.note(name, latencies, q)
    outcome.note("ttfe_p50_ms", [s.first - s.start for s in done], 50)
    check_parity(ctx, outcome, documents,
                 [(sources, s.lines) for sources, s in samples if s.ok])
    if ctx.trace:
        daemon_layers(ctx, outcome, samples, before, after, ingests)
        replay(ctx, outcome, snippet_pairs(qa), sanctuary, qa)
        loadgen_layers(outcome, gaps, len(latencies))
    return outcome


def daemon_layers(ctx: Context, outcome: Outcome, samples: list, before: dict,
                  after: dict, ingests: list) -> None:
    """Per-layer metrics a daemon workload reads from its own traced jobs."""
    job_spans(ctx, samples)
    outcome.layers.update(service_layers(samples))
    outcome.layers["service.ingest_ms"] = median(ingests) * 1000.0
    outcome.layers.update(stats_layers(before, after))


# -- batch -------------------------------------------------------------------

def batch(ctx: Context) -> Outcome:
    """One client streaming 100-snippet jobs of never-seen snippets.

    The last envelope of a job arrives at the stream endpoint's first
    poll after the job finishes, so job latencies sit on the 50 ms poll
    grid; at 100 snippets a grid step is a few percent of a job.
    """
    outcome = Outcome()
    qa, sanctuary = corpus(ctx)
    texts = batch_texts(ctx)
    documents = documents_of(sanctuary)
    size = ctx.params["job_size"]
    order = shuffled(range(len(texts)), ctx.seed)
    chunks = [[[f"b{index}", texts[index]] for index in order[at:at + size]]
              for at in range(0, len(order), size)]
    rss = []

    def read_rss(samples):
        # the daemon's memory grows with every new snippet it caches, so its
        # peak is read after a fixed amount of work: at the end of the window
        # it would track how fast the program is
        if not rss and len(samples) * size >= ctx.sized("rss_at_snippets"):
            rss.append(daemon.peak_rss_mb())

    daemon, setups, ingests = set_up(ctx, documents)
    try:
        warm_up(daemon, [[s.snippet_id, s.text] for s in
                         random.Random(ctx.seed).sample(qa.snippets, ctx.params["warm_up"])])
        before = stats(daemon) if ctx.trace else None
        samples, gaps = client_loop(daemon, chunks, time.perf_counter() + ctx.seconds,
                                    ctx.trace, repeat=False, on_job=read_rss)
        after = stats(daemon) if ctx.trace else None
        rss = rss or [daemon.peak_rss_mb()]
    finally:
        daemon.stop()
    count_failures(outcome, samples)
    done = [(sources, sample) for sources, sample in samples if sample.ok]
    latencies = [sample.latency for _, sample in done]
    snippets = sum(len(sources) for sources, _ in done)
    window = max(s.end for _, s in samples) - min(s.start for _, s in samples)
    outcome.record(setups, latencies, snippets / window, snippets, rss)
    population = []
    for sources, sample in done:
        by_key = {}
        for line in sample.lines:
            envelope = json.loads(line)
            by_key[(envelope["analyzer"], envelope["contract_id"])] = line
        population.extend(([pair], [by_key.get(("ccd", pair[0])), by_key.get(("ccc", pair[0]))])
                          for pair in sources)
    check_parity(ctx, outcome, documents, population)
    if ctx.trace:
        daemon_layers(ctx, outcome, samples, before, after, ingests)
        replay(ctx, outcome, [[f"b{index}", texts[index]] for index in order], sanctuary, qa)
        loadgen_layers(outcome, gaps, len(latencies))
    return outcome


# -- edits -------------------------------------------------------------------

#: a function header whose body opens on the same line (not an interface stub)
FUNCTION_LINE = re.compile(r"^(\s*)function\b[^;]*\{\s*$")


def unified_diff(old: str, new: str) -> str:
    """A stdlib ``difflib`` unified diff that also marks a missing final newline."""
    lines = []
    for line in difflib.unified_diff(old.splitlines(keepends=True),
                                     new.splitlines(keepends=True), "a", "b"):
        lines.append(line if line.endswith("\n")
                     else line + "\n\\ No newline at end of file\n")
    return "".join(lines)


def sha256(text: str) -> str:
    """The harness's own content key of a document (hex sha256 of UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_edits(seed: int, documents: list, count: int) -> tuple:
    """``count`` seeded one-statement edits, each a diff guarded by its base.

    Each edit inserts one local declaration at the top of a seeded
    function of a seeded document.  Returns ``(edits, final sources of
    the edited documents)``.
    """
    rng = random.Random(seed)
    current = {doc_id: source for doc_id, source in documents}
    editable = sorted(doc_id for doc_id, source in documents
                      if any(FUNCTION_LINE.match(line) for line in source.split("\n")))
    edits = []
    for number in range(count):
        doc_id = rng.choice(editable)
        old = current[doc_id]
        lines = old.split("\n")
        site = rng.choice([index for index, line in enumerate(lines) if FUNCTION_LINE.match(line)])
        indent = FUNCTION_LINE.match(lines[site]).group(1)
        lines.insert(site + 1, f"{indent}    uint256 benchEdit{number} = {number};")
        new = "\n".join(lines)
        edits.append({"id": doc_id, "diff": unified_diff(old, new), "base_version": sha256(old)})
        current[doc_id] = new
    return edits, {edit["id"]: current[edit["id"]] for edit in edits}


def editor(daemon: Daemon, edits: list, start: float, rate: float) -> list:
    """Open-loop editor: edit ``k`` is due at ``start + k / rate``.

    Returns ``(due, sent, done, ok)`` per edit; latency counts from the
    due time, so a stall also delays every edit queued behind it.
    """
    connection = daemon.connection()
    results = []
    try:
        for number, edit in enumerate(edits):
            due = start + number / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, payload = request_json(connection, "POST", "/v1/corpus",
                                               {"documents": [edit]})
                ok = (status == 200 and payload.get("ingested") == 1
                      and not payload.get("rejected"))
            except (OSError, ValueError, http.client.HTTPException):
                ok = False
                connection.close()
            results.append((due, sent, time.perf_counter(), ok))
    finally:
        connection.close()
    return results


def edits(ctx: Context) -> Outcome:
    """Open-loop diff edits at a fixed rate beside a closed-loop reader."""
    outcome = Outcome()
    qa, sanctuary = corpus(ctx)
    documents = documents_of(sanctuary)
    rate = ctx.params["edit_rate_per_s"]
    planned, expected = plan_edits(ctx.seed, documents, math.ceil(rate * ctx.seconds))
    daemon, setups, ingests = set_up(ctx, documents)
    try:
        warm_up(daemon, snippet_pairs(qa))
        before = stats(daemon) if ctx.trace else None
        start = time.perf_counter()
        wait = in_thread(editor, daemon, planned, start, rate)
        reads, gaps = client_loop(daemon, warm_jobs(ctx, qa),
                                  start + ctx.seconds, ctx.trace)
        written = wait()
        after = stats(daemon) if ctx.trace else None
        # every edited document re-sent as-is, guarded by the harness's own
        # digest of what it believes the daemon holds: all must be no-ops
        connection = daemon.connection()
        try:
            status, payload = request_json(connection, "POST", "/v1/corpus", {"documents": [
                {"id": doc_id, "source": source, "base_version": sha256(source)}
                for doc_id, source in expected.items()]})
        finally:
            connection.close()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    count_failures(outcome, reads)
    outcome.attempted += len(written)
    outcome.failed += sum(1 for *_, ok in written if not ok)
    edit_latencies = [done - due for due, _, done, ok in written if ok]
    read_latencies = [sample.latency for _, sample in reads if sample.ok]
    window = max(s.end for _, s in reads) - min(s.start for _, s in reads)
    outcome.record(setups, edit_latencies, len(read_latencies) / window,
                   len(read_latencies), [rss])
    for name, q in (("edit_p90_ms", 90), ("edit_p99_ms", 99)):
        outcome.note(name, edit_latencies, q)
    for name, q in (("job_p50_ms", 50), ("job_p90_ms", 90)):
        outcome.note(name, read_latencies, q)
    unchanged = payload.get("unchanged") if status == 200 else None
    outcome.check("noop_reingest",
                  unchanged == len(expected) and not payload.get("ingested")
                  and not payload.get("rejected"),
                  f"HTTP {status}: {unchanged}/{len(expected)} edited documents unchanged")
    if ctx.trace:
        daemon_layers(ctx, outcome, reads, before, after, ingests)
        outcome.layers["service.ingest_ms"] = median(
            done - sent for _, sent, done, ok in written if ok) * 1000.0
        replay(ctx, outcome, snippet_pairs(qa), sanctuary, qa)
        loadgen_layers(outcome, [sent - due for due, sent, _, _ in written],
                       len(edit_latencies))
    return outcome


WORKLOADS = {"study": study, "jobs": jobs, "batch": batch, "edits": edits}
