"""Durable, resumable evaluation workloads served by the daemon.

A **workload** is one of the repo's evaluation scenarios — the
:mod:`repro.evaluation` suites, the :mod:`repro.baselines` comparisons,
the Figure-9-style parameter sweep — packaged as a first-class job type
of the analysis service.  Each workload decomposes deterministically
into an ordered list of independent **chunks** (one per η/ε grid cell,
per baseline×dataset pair, per smartbugs category, ...); the scheduler
runs the chunks in order, persisting every completed chunk's canonical
JSON result in the :class:`~repro.service.jobstore.JobStore` chunk
table.  That persistence is the whole point:

- a daemon SIGKILLed mid-sweep resumes from the completed chunks
  (:meth:`JobStore.recover` keeps ``done`` chunk rows);
- ``GET /v1/workloads/{id}`` reports live ``{done, total, eta}``
  progress from the chunk table;
- the cluster coordinator fans pending chunk indices across shards and
  merges their chunk results through the *same* merge function a
  single node uses.

The final merged report is **byte-identical** to a fresh local run of
the underlying evaluation function, because the chunk decomposition
mirrors the local iteration order and the merge goes through the same
canonical report helpers (``sweep_report``/``evaluation_report``/
``honeypot_report``) — asserted in ``tests/test_workloads.py``.

Workload parameters carry the *generator specs* of their input corpora
(seeds and sizes), never the corpora themselves, so every chunk can
regenerate its inputs deterministically on whatever node runs it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.api.envelope import canonical_json


class WorkloadError(ValueError):
    """A workload request failed validation (mapped to HTTP 400)."""


# ---------------------------------------------------------------------------
# parameter validation helpers
# ---------------------------------------------------------------------------

def _require_mapping(value, what: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise WorkloadError(f"{what!r} must be an object")
    return dict(value)


def _reject_unknown(params: dict, allowed: tuple, what: str) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise WorkloadError(
            f"unknown {what} parameter(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}")


def _opt_int(params: dict, key: str, default: int, minimum: int = 0) -> int:
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise WorkloadError(f"{key!r} must be an integer >= {minimum}")
    return value


def _opt_number(params: dict, key: str, default: float,
                minimum: float = 0.0) -> float:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value < minimum:
        raise WorkloadError(f"{key!r} must be a number >= {minimum}")
    return float(value)


def _opt_bool(params: dict, key: str, default: bool) -> bool:
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise WorkloadError(f"{key!r} must be a boolean")
    return value


def _number_list(params: dict, key: str, default: tuple) -> list:
    values = params.get(key, list(default))
    if not isinstance(values, (list, tuple)) or not values or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            for v in values):
        raise WorkloadError(f"{key!r} must be a non-empty list of numbers")
    return [v if isinstance(v, int) else float(v) for v in values]


def _count_mapping(params: dict, key: str) -> Optional[dict]:
    counts = params.get(key)
    if counts is None:
        return None
    if not isinstance(counts, dict) or not counts or any(
            not isinstance(name, str) or isinstance(count, bool)
            or not isinstance(count, int) or count < 0
            for name, count in counts.items()):
        raise WorkloadError(
            f"{key!r} must map names to non-negative integer counts")
    return dict(counts)


def _corpus_spec(params: dict, key: str, allowed: tuple,
                 defaults: dict) -> dict:
    spec = _require_mapping(params.get(key), key)
    _reject_unknown(spec, allowed, key)
    normalized = {}
    for name, default in defaults.items():
        if isinstance(default, bool):
            normalized[name] = _opt_bool(spec, name, default)
        elif isinstance(default, int):
            normalized[name] = _opt_int(spec, name, default, minimum=0)
        else:
            normalized[name] = _count_mapping(spec, name)
    return normalized


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------

@dataclass
class WorkloadContext:
    """Per-run execution context handed to every chunk.

    Carries the resident :class:`~repro.api.AnalysisSession` (so CCC
    chunks share its parse-once artifact store) and a corpus memo, so a
    job touching the same generated corpus in every chunk builds it
    once per run instead of once per chunk.  Regenerating after a crash
    is fine — generation is deterministic in the stored seed.
    """

    session: object = None
    cache: dict = field(default_factory=dict)

    @property
    def store(self):
        """The session's artifact store, when a session is attached."""
        return getattr(self.session, "store", None)

    def corpus(self, kind: str, spec: dict, build: Callable):
        """Memoized deterministic corpus generation for one spec."""
        key = (kind, json.dumps(spec, sort_keys=True))
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]


def _check_honeypot_counts(spec: dict) -> dict:
    """Reject honeypot family names the generator does not know."""
    if spec["counts"] is not None:
        from repro.datasets.honeypots import HONEYPOT_TYPES

        unknown = sorted(set(spec["counts"]) - set(HONEYPOT_TYPES))
        if unknown:
            raise WorkloadError(
                f"unknown honeypot type(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(HONEYPOT_TYPES))}")
    return spec


def _honeypot_contracts(context: WorkloadContext, spec: dict) -> list:
    from repro.datasets.honeypots import generate_honeypot_corpus

    return context.corpus("honeypot", spec, lambda: generate_honeypot_corpus(
        seed=spec["seed"], counts=spec["counts"]))


def _smartbugs_corpus(context: WorkloadContext, spec: dict):
    from repro.datasets.smartbugs import generate_smartbugs_corpus

    return context.corpus("smartbugs", spec, lambda: generate_smartbugs_corpus(
        seed=spec["seed"],
        include_unknown_unknowns=spec["include_unknown_unknowns"]))


# ---------------------------------------------------------------------------
# the workload protocol and registry
# ---------------------------------------------------------------------------

class Workload:
    """One servable evaluation scenario (see the module docstring).

    Subclasses define a stable ``kind`` id plus four pure hooks:
    ``normalize`` (validate + default-fill the wire params — the stored
    params are always normalized), ``decompose`` (params → ordered
    chunk spec list; deterministic, runs on coordinators too),
    ``run_chunk`` (one chunk spec → one JSON-able result), and
    ``merge`` (all chunk results, in chunk order → the final report).
    """

    kind: str = ""
    title: str = ""

    def normalize(self, params: dict) -> dict:
        """Validate wire parameters and fill every default."""
        raise NotImplementedError

    def decompose(self, params: dict) -> list:
        """The ordered chunk specs of one normalized parameter set."""
        raise NotImplementedError

    def run_chunk(self, params: dict, spec: dict,
                  context: WorkloadContext) -> dict:
        """Execute one chunk; returns its JSON-able result."""
        raise NotImplementedError

    def merge(self, params: dict, results: list) -> dict:
        """Merge the chunk results (in chunk order) into the final report."""
        raise NotImplementedError


class WorkloadRegistry:
    """The registry of servable workload kinds (mirrors ``AnalyzerRegistry``)."""

    def __init__(self):
        self._workloads: dict = {}

    def register(self, workload: Workload) -> Workload:
        """Register one workload instance under its ``kind`` id."""
        if not workload.kind:
            raise ValueError("workload must define a non-empty kind")
        self._workloads[workload.kind] = workload
        return workload

    def get(self, kind: str) -> Workload:
        """The workload registered under ``kind`` (:class:`WorkloadError` if none)."""
        try:
            return self._workloads[kind]
        except KeyError:
            raise WorkloadError(
                f"unknown workload kind {kind!r}; registered: "
                f"{', '.join(self.kinds())}") from None

    def kinds(self) -> list:
        """Every registered kind id, sorted."""
        return sorted(self._workloads)


#: the process-wide registry the service consults
WORKLOADS = WorkloadRegistry()


def register_workload(workload_class):
    """Class decorator registering a workload in :data:`WORKLOADS`."""
    WORKLOADS.register(workload_class())
    return workload_class


# ---------------------------------------------------------------------------
# the built-in workloads
# ---------------------------------------------------------------------------

@register_workload
class ParameterSweepWorkload(Workload):
    """The Table 9 / Figure 9 N/η/ε sweep — one chunk per grid cell."""

    kind = "parameter_sweep"
    title = "CCD parameter sweep over N-gram size, eta, and epsilon"

    def normalize(self, params: dict) -> dict:
        """Validate wire parameters and fill every default."""
        from repro.evaluation.parameter_sweep import (
            DEFAULT_NGRAM_SIZES,
            DEFAULT_NGRAM_THRESHOLDS,
            DEFAULT_SIMILARITY_THRESHOLDS,
        )

        params = _require_mapping(params, "params")
        _reject_unknown(params, ("honeypot", "ngram_sizes", "ngram_thresholds",
                                 "similarity_thresholds"), self.kind)
        return {
            "honeypot": _check_honeypot_counts(
                _corpus_spec(params, "honeypot", ("seed", "counts"),
                             {"seed": 7, "counts": None})),
            "ngram_sizes": _number_list(params, "ngram_sizes",
                                        DEFAULT_NGRAM_SIZES),
            "ngram_thresholds": _number_list(params, "ngram_thresholds",
                                             DEFAULT_NGRAM_THRESHOLDS),
            "similarity_thresholds": _number_list(
                params, "similarity_thresholds",
                DEFAULT_SIMILARITY_THRESHOLDS),
        }

    def decompose(self, params: dict) -> list:
        """The ordered chunk specs for one normalized parameter set."""
        from repro.evaluation.parameter_sweep import sweep_grid

        return [{"cell": cell} for cell in sweep_grid(
            params["ngram_sizes"], params["ngram_thresholds"],
            params["similarity_thresholds"])]

    def run_chunk(self, params: dict, spec: dict,
                  context: WorkloadContext) -> dict:
        """Execute one chunk spec against the shared context."""
        from repro.evaluation.parameter_sweep import evaluate_sweep_cell

        contracts = _honeypot_contracts(context, params["honeypot"])
        return asdict(evaluate_sweep_cell(contracts, **spec["cell"]))

    def merge(self, params: dict, results: list) -> dict:
        """Merge the chunk results into the final report."""
        from repro.evaluation.parameter_sweep import SweepPoint, sweep_report

        return sweep_report([SweepPoint(**result) for result in results])


@register_workload
class SmartBugsCccWorkload(Workload):
    """CCC on the labelled corpus (Tables 1/2) — one chunk per category."""

    kind = "smartbugs_ccc"
    title = "CCC evaluation on the labelled smartbugs-style corpus"

    def normalize(self, params: dict) -> dict:
        """Validate wire parameters and fill every default."""
        params = _require_mapping(params, "params")
        _reject_unknown(params, ("smartbugs", "dataset", "timeout_per_file"),
                        self.kind)
        dataset = params.get("dataset", "original")
        if dataset not in ("original", "functions", "statements"):
            raise WorkloadError(
                "'dataset' must be original|functions|statements")
        return {
            "smartbugs": _corpus_spec(
                params, "smartbugs", ("seed", "include_unknown_unknowns"),
                {"seed": 13, "include_unknown_unknowns": False}),
            "dataset": dataset,
            "timeout_per_file": _opt_number(params, "timeout_per_file", 20.0),
        }

    def _categories(self, context: WorkloadContext, params: dict) -> list:
        corpus = _smartbugs_corpus(context, params["smartbugs"])
        return sorted({entry.category.value for entry in corpus.entries})

    def decompose(self, params: dict) -> list:
        """The ordered chunk specs for one normalized parameter set."""
        return [{"category": category}
                for category in self._categories(WorkloadContext(), params)]

    def run_chunk(self, params: dict, spec: dict,
                  context: WorkloadContext) -> dict:
        """Execute one chunk spec against the shared context."""
        from repro.ccc.checker import ContractChecker
        from repro.ccc.dasp import DaspCategory
        from repro.datasets.smartbugs import SmartBugsCorpus
        from repro.evaluation.smartbugs_eval import (
            evaluate_ccc_on_corpus,
            evaluation_report,
        )

        corpus = _smartbugs_corpus(context, params["smartbugs"])
        category = DaspCategory(spec["category"])
        subcorpus = SmartBugsCorpus(entries=corpus.by_category(category))
        checker = ContractChecker(timeout=params["timeout_per_file"],
                                  store=context.store)
        evaluation = evaluate_ccc_on_corpus(
            subcorpus, dataset=params["dataset"], checker=checker)
        return evaluation_report(evaluation)

    def merge(self, params: dict, results: list) -> dict:
        """Merge the chunk results into the final report."""
        from repro.ccc.dasp import DaspCategory
        from repro.evaluation.smartbugs_eval import (
            CategoryResult,
            ToolEvaluation,
            evaluation_report,
        )

        evaluation = ToolEvaluation(tool="CCC", dataset=params["dataset"])
        for report in results:
            for row in report["rows"]:
                category = DaspCategory(row["category"])
                evaluation.categories[category] = CategoryResult(
                    category=category, labels=row["labels"],
                    true_positives=row["tp"], false_positives=row["fp"])
        return evaluation_report(evaluation)


@register_workload
class SmartBugsBaselinesWorkload(Workload):
    """The lexical baseline on every dataset variant — one chunk per dataset."""

    kind = "smartbugs_baselines"
    title = "SmartCheck-style baseline over the corpus dataset variants"

    def normalize(self, params: dict) -> dict:
        """Validate wire parameters and fill every default."""
        params = _require_mapping(params, "params")
        _reject_unknown(params, ("smartbugs", "datasets"), self.kind)
        datasets = params.get("datasets",
                              ["original", "functions", "statements"])
        if not isinstance(datasets, (list, tuple)) or not datasets or any(
                dataset not in ("original", "functions", "statements")
                for dataset in datasets):
            raise WorkloadError(
                "'datasets' must be a non-empty list drawn from "
                "original|functions|statements")
        return {
            "smartbugs": _corpus_spec(
                params, "smartbugs", ("seed", "include_unknown_unknowns"),
                {"seed": 13, "include_unknown_unknowns": False}),
            "datasets": list(datasets),
        }

    def decompose(self, params: dict) -> list:
        """The ordered chunk specs for one normalized parameter set."""
        return [{"dataset": dataset} for dataset in params["datasets"]]

    def run_chunk(self, params: dict, spec: dict,
                  context: WorkloadContext) -> dict:
        """Execute one chunk spec against the shared context."""
        from repro.evaluation.smartbugs_eval import (
            evaluate_baseline_on_corpus,
            evaluation_report,
        )

        corpus = _smartbugs_corpus(context, params["smartbugs"])
        evaluation = evaluate_baseline_on_corpus(corpus,
                                                 dataset=spec["dataset"])
        return evaluation_report(evaluation)

    def merge(self, params: dict, results: list) -> dict:
        """Merge the chunk results into the final report."""
        return {"reports": results}


@register_workload
class HoneypotClonesWorkload(Workload):
    """Table 3 clone detection on the honeypot corpus — one chunk per tool."""

    kind = "honeypot_clones"
    title = "CCD vs. the clone baselines on the honeypot corpus"

    #: tool ids in canonical chunk order
    TOOLS = ("ccd", "smartembed", "exact_hash")

    def normalize(self, params: dict) -> dict:
        """Validate wire parameters and fill every default."""
        params = _require_mapping(params, "params")
        _reject_unknown(params, ("honeypot", "tools", "ngram_size",
                                 "ngram_threshold", "similarity_threshold",
                                 "smartembed_threshold"), self.kind)
        tools = params.get("tools", list(self.TOOLS))
        if not isinstance(tools, (list, tuple)) or not tools or any(
                tool not in self.TOOLS for tool in tools):
            raise WorkloadError(
                f"'tools' must be a non-empty list drawn from "
                f"{'|'.join(self.TOOLS)}")
        return {
            "honeypot": _check_honeypot_counts(
                _corpus_spec(params, "honeypot", ("seed", "counts"),
                             {"seed": 7, "counts": None})),
            "tools": list(tools),
            "ngram_size": _opt_int(params, "ngram_size", 3, minimum=1),
            "ngram_threshold": _opt_number(params, "ngram_threshold", 0.5),
            "similarity_threshold": _opt_number(
                params, "similarity_threshold", 0.7),
            "smartembed_threshold": _opt_number(
                params, "smartembed_threshold", 0.9),
        }

    def decompose(self, params: dict) -> list:
        """The ordered chunk specs for one normalized parameter set."""
        return [{"tool": tool} for tool in params["tools"]]

    def run_chunk(self, params: dict, spec: dict,
                  context: WorkloadContext) -> dict:
        """Execute one chunk spec against the shared context."""
        from repro.evaluation.honeypot_eval import (
            evaluate_ccd_on_honeypots,
            evaluate_exact_hash_on_honeypots,
            evaluate_smartembed_on_honeypots,
            honeypot_report,
        )

        contracts = _honeypot_contracts(context, params["honeypot"])
        if spec["tool"] == "ccd":
            evaluation = evaluate_ccd_on_honeypots(
                contracts,
                ngram_size=params["ngram_size"],
                ngram_threshold=params["ngram_threshold"],
                similarity_threshold=params["similarity_threshold"])
        elif spec["tool"] == "smartembed":
            evaluation = evaluate_smartembed_on_honeypots(
                contracts,
                similarity_threshold=params["smartembed_threshold"])
        else:
            evaluation = evaluate_exact_hash_on_honeypots(contracts)
        return honeypot_report(evaluation)

    def merge(self, params: dict, results: list) -> dict:
        """Merge the chunk results into the final report."""
        return {"reports": results}


@register_workload
class ManualValidationWorkload(Workload):
    """The Table 8 simulated manual review — one chunk (full study)."""

    kind = "manual_validation"
    title = "simulated manual validation of flagged snippet/contract pairs"

    def normalize(self, params: dict) -> dict:
        """Validate wire parameters and fill every default."""
        params = _require_mapping(params, "params")
        _reject_unknown(params, ("qa", "sanctuary", "sample_size",
                                 "review_seed", "validation_timeout_seconds",
                                 "snippet_analysis_timeout_seconds"),
                        self.kind)
        return {
            "qa": _corpus_spec(params, "qa", ("seed", "posts_per_site"),
                               {"seed": 3, "posts_per_site": None}),
            "sanctuary": _corpus_spec(
                params, "sanctuary", ("seed", "independent_contracts"),
                {"seed": 11, "independent_contracts": 150}),
            "sample_size": _opt_int(params, "sample_size", 100, minimum=1),
            "review_seed": _opt_int(params, "review_seed", 99),
            "validation_timeout_seconds": _opt_number(
                params, "validation_timeout_seconds", 15.0),
            "snippet_analysis_timeout_seconds": _opt_number(
                params, "snippet_analysis_timeout_seconds", 15.0),
        }

    def decompose(self, params: dict) -> list:
        """The ordered chunk specs for one normalized parameter set."""
        return [{"stage": "study"}]

    def run_chunk(self, params: dict, spec: dict,
                  context: WorkloadContext) -> dict:
        """Execute one chunk spec against the shared context."""
        from repro.datasets.sanctuary import generate_sanctuary
        from repro.datasets.snippets import generate_qa_corpus
        from repro.evaluation.manual_validation import (
            simulate_manual_validation,
        )
        from repro.pipeline import StudyConfiguration, VulnerableCodeReuseStudy

        qa_spec, sanctuary_spec = params["qa"], params["sanctuary"]
        qa = generate_qa_corpus(seed=qa_spec["seed"],
                                posts_per_site=qa_spec["posts_per_site"])
        sanctuary = generate_sanctuary(
            qa, seed=sanctuary_spec["seed"],
            independent_contracts=sanctuary_spec["independent_contracts"])
        study = VulnerableCodeReuseStudy(StudyConfiguration(
            validation_timeout_seconds=params["validation_timeout_seconds"],
            snippet_analysis_timeout_seconds=params[
                "snippet_analysis_timeout_seconds"]))
        result = study.run(qa, sanctuary.contracts)
        table = simulate_manual_validation(
            result, result.collection.snippets, sanctuary.contracts,
            sanctuary.ground_truth_embeddings,
            sample_size=params["sample_size"], seed=params["review_seed"])
        return {
            "sample_size": table.sample_size,
            "confirmed_pairings": table.confirmed_pairings,
            "counts": table.counts(),
        }

    def merge(self, params: dict, results: list) -> dict:
        """Merge the chunk results into the final report."""
        return results[0]


# ---------------------------------------------------------------------------
# wire validation and payloads
# ---------------------------------------------------------------------------

def validate_workload_request(body: dict,
                              registry: Optional[WorkloadRegistry] = None) -> dict:
    """Validate one ``POST /v1/workloads`` body into a stored descriptor.

    Returns ``{"kind", "params"}`` (params normalized and
    default-filled), plus ``"chunks"`` when the request restricts
    execution to a chunk subset — the coordinator uses that to fan one
    workload's cells across shards.  Raises :class:`WorkloadError` on
    any invalid field.
    """
    registry = registry if registry is not None else WORKLOADS
    if not isinstance(body, dict):
        raise WorkloadError("request body must be a JSON object")
    kind = body.get("kind")
    if not isinstance(kind, str):
        raise WorkloadError("'kind' must be a workload kind string")
    workload = registry.get(kind)
    params = workload.normalize(body.get("params") or {})
    descriptor = {"kind": kind, "params": params}
    chunks = body.get("chunks")
    if chunks is not None:
        total = len(workload.decompose(params))
        if not isinstance(chunks, (list, tuple)) or not chunks or any(
                isinstance(chunk, bool) or not isinstance(chunk, int)
                or chunk < 0 or chunk >= total
                for chunk in chunks):
            raise WorkloadError(
                f"'chunks' must be a non-empty list of chunk indices in "
                f"[0, {total})")
        descriptor["chunks"] = sorted(set(chunks))
    return descriptor


def workload_payload(jobstore, job, include_chunks: bool = False) -> dict:
    """The ``GET /v1/workloads/{id}`` body: job status plus chunk progress.

    ``include_chunks`` adds the raw chunk rows (spec and result as the
    stored canonical-JSON strings) — the coordinator polls with
    ``?chunks=1`` and copies finished rows into its own chunk table.
    """
    payload = job.as_dict()
    payload["progress"] = jobstore.chunk_progress(job.job_id)
    if include_chunks:
        payload["chunks"] = jobstore.chunks(job.job_id)
    return payload


def workloads_listing_payload(jobstore, query: dict) -> dict:
    """The ``GET /v1/workloads`` body for one parsed query string."""
    from repro.service.jobstore import JOB_STATES

    state = query.get("state", [None])[0]
    if state is not None and state not in JOB_STATES:
        raise WorkloadError(f"'state' must be one of {'|'.join(JOB_STATES)}")

    def query_int(name: str, default: int) -> int:
        raw = query.get(name, [str(default)])[0]
        try:
            return int(raw)
        except ValueError:
            raise WorkloadError(f"'{name}' must be an integer") from None

    limit = query_int("limit", 100)
    offset = query_int("offset", 0)
    jobs = jobstore.list_jobs(state=state, limit=limit, offset=offset,
                              workload_only=True)
    return {
        "workloads": [workload_payload(jobstore, job) for job in jobs],
        "total": jobstore.count_jobs(state=state, workload_only=True),
        "limit": limit,
        "offset": offset,
    }


# ---------------------------------------------------------------------------
# the chunk runner (called by the scheduler)
# ---------------------------------------------------------------------------

def run_workload_job(job, jobstore, session=None,
                     should_stop: Optional[Callable[[], bool]] = None,
                     registry: Optional[WorkloadRegistry] = None) -> str:
    """Drain one workload job chunk by chunk; returns the outcome.

    ``"done"`` — every (selected) chunk completed and, for unrestricted
    jobs, the merged report was appended as the job's single result
    envelope.  ``"cancelled"`` — a cancel request was honoured at a
    chunk boundary (remaining chunks marked ``cancelled``).
    ``"paused"`` — ``should_stop`` asked for a graceful shutdown; the
    job is left ``running`` so :meth:`JobStore.recover` requeues it on
    the next start and completed chunks are reused.

    Chunk specs are inserted with ``INSERT OR IGNORE``, so a resumed
    job keeps its completed rows and this function simply skips them —
    that is the entire resume protocol.
    """
    registry = registry if registry is not None else WORKLOADS
    descriptor = job.workload or {}
    workload = registry.get(descriptor.get("kind"))
    params = descriptor.get("params") or {}
    restrict = descriptor.get("chunks")
    specs = workload.decompose(params)
    jobstore.add_chunks(job.job_id, (canonical_json(spec) for spec in specs))
    context = WorkloadContext(session=session)
    for chunk, spec_json in jobstore.pending_chunks(job.job_id):
        if restrict is not None and chunk not in restrict:
            continue
        if should_stop is not None and should_stop():
            return "paused"
        if jobstore.is_cancel_requested(job.job_id):
            jobstore.cancel_pending_chunks(job.job_id)
            return "cancelled"
        jobstore.start_chunk(job.job_id, chunk)
        result = workload.run_chunk(params, json.loads(spec_json), context)
        jobstore.finish_chunk(job.job_id, chunk, canonical_json(result))
    if restrict is not None:
        # a shard executing a chunk subset never merges: the coordinator
        # collects the chunk rows and merges across every shard's subset
        return "done"
    rows = jobstore.chunks(job.job_id)
    results = [json.loads(row["result"]) for row in rows]
    report = workload.merge(params, results)
    jobstore.append_result(job.job_id, 0, canonical_json(report))
    return "done"


__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadContext",
    "WorkloadError",
    "WorkloadRegistry",
    "register_workload",
    "run_workload_job",
    "validate_workload_request",
    "workload_payload",
    "workloads_listing_payload",
]
