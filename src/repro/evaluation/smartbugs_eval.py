"""Evaluation of vulnerability detection tools on the labelled corpus.

Reproduces the protocol of Section 4.6: each tool analyses every file of a
category's test set; findings of the *matching* category count as true
positives up to the number of labels, findings beyond the labels count as
false positives.  Findings of other categories are ignored (the paper only
counts false positives reported in the matching test set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ccc.checker import ContractChecker
from repro.ccc.dasp import DaspCategory
from repro.baselines.smartcheck import SmartCheckBaseline
from repro.datasets.smartbugs import SmartBugsCorpus, SmartBugsEntry
from repro.metrics.classification import f1_score


@dataclass
class CategoryResult:
    """TP/FP counts for one tool on one category's test set."""

    category: DaspCategory
    labels: int = 0
    true_positives: int = 0
    false_positives: int = 0


@dataclass
class ToolEvaluation:
    """Aggregated evaluation of one tool over the whole corpus."""

    tool: str
    dataset: str = "original"
    categories: dict[DaspCategory, CategoryResult] = field(default_factory=dict)

    @property
    def total_labels(self) -> int:
        return sum(result.labels for result in self.categories.values())

    @property
    def total_true_positives(self) -> int:
        return sum(result.true_positives for result in self.categories.values())

    @property
    def total_false_positives(self) -> int:
        return sum(result.false_positives for result in self.categories.values())

    @property
    def precision(self) -> float:
        reported = self.total_true_positives + self.total_false_positives
        return self.total_true_positives / reported if reported else 0.0

    @property
    def recall(self) -> float:
        return self.total_true_positives / self.total_labels if self.total_labels else 0.0

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)

    @property
    def covered_categories(self) -> int:
        """Number of categories with at least one true positive."""
        return sum(1 for result in self.categories.values() if result.true_positives > 0)

    def rows(self) -> list[dict]:
        return [
            {
                "category": result.category.value,
                "labels": result.labels,
                "tp": result.true_positives,
                "fp": result.false_positives,
            }
            for result in sorted(self.categories.values(), key=lambda item: item.category.value)
        ]


def _entry_source(entry: SmartBugsEntry, dataset: str) -> Optional[str]:
    if dataset == "original":
        return entry.source
    if dataset == "functions":
        return entry.contract.vulnerable_function or None
    if dataset == "statements":
        return entry.contract.vulnerable_statements or None
    raise ValueError(f"unknown dataset: {dataset!r}")


def evaluate_ccc_on_corpus(
    corpus: SmartBugsCorpus,
    dataset: str = "original",
    checker: Optional[ContractChecker] = None,
    timeout_per_file: float = 20.0,
) -> ToolEvaluation:
    """Run CCC on every file of the corpus and count TP/FP per category.

    ``dataset`` selects the *Original*, *Functions*, or *Statements*
    variant (Section 4.6.1 / Table 2).
    """
    if checker is None:
        checker = ContractChecker(timeout=timeout_per_file)
    evaluation = ToolEvaluation(tool="CCC", dataset=dataset)
    sources = []
    analysed_entries = []
    for entry in corpus.entries:
        result = evaluation.categories.setdefault(
            entry.category, CategoryResult(category=entry.category))
        result.labels += entry.label_count
        source = _entry_source(entry, dataset)
        if not source:
            continue
        sources.append(source)
        analysed_entries.append(entry)
    analyses = [checker.analyze(source, snippet=True) for source in sources]
    for entry, analysis in zip(analysed_entries, analyses):
        if not analysis.ok:
            continue
        result = evaluation.categories[entry.category]
        matching = [finding for finding in analysis.findings if finding.category == entry.category]
        if entry.contract.needs_context and dataset != "original":
            # the labelled issue only manifests with the surrounding context;
            # findings on the isolated snippet are treated as not matching the
            # labelled location (the paper's Functions/Statements recall drop)
            matching = []
        result.true_positives += min(len(matching), entry.label_count)
        result.false_positives += max(0, len(matching) - entry.label_count)
    return evaluation


def evaluate_baseline_on_corpus(
    corpus: SmartBugsCorpus,
    dataset: str = "original",
    baseline: Optional[SmartCheckBaseline] = None,
) -> ToolEvaluation:
    """Run the SmartCheck-style lexical baseline with the same protocol."""
    if baseline is None:
        baseline = SmartCheckBaseline()
    evaluation = ToolEvaluation(tool=baseline.name, dataset=dataset)
    sources = []
    analysed_entries = []
    for entry in corpus.entries:
        result = evaluation.categories.setdefault(
            entry.category, CategoryResult(category=entry.category))
        result.labels += entry.label_count
        source = _entry_source(entry, dataset)
        if not source:
            continue
        sources.append(source)
        analysed_entries.append(entry)
    findings_per_source = [baseline.analyze(source) for source in sources]
    for entry, findings in zip(analysed_entries, findings_per_source):
        result = evaluation.categories[entry.category]
        matching = [finding for finding in findings if finding.category == entry.category]
        result.true_positives += min(len(matching), entry.label_count)
        result.false_positives += max(0, len(matching) - entry.label_count)
    return evaluation


def evaluation_report(evaluation: ToolEvaluation) -> dict:
    """The canonical report dict of one :class:`ToolEvaluation`.

    Shared by the local evaluation scripts and the service-side
    workload merge, so both paths emit byte-identical
    ``canonical_json`` for the same corpus.
    """
    return {
        "tool": evaluation.tool,
        "dataset": evaluation.dataset,
        "total_labels": evaluation.total_labels,
        "total_true_positives": evaluation.total_true_positives,
        "total_false_positives": evaluation.total_false_positives,
        "precision": evaluation.precision,
        "recall": evaluation.recall,
        "f1": evaluation.f1,
        "covered_categories": evaluation.covered_categories,
        "rows": evaluation.rows(),
    }
