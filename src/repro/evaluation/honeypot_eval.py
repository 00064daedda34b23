"""Clone-detection evaluation on the honeypot corpus (Table 3).

Protocol (Section 5.7.1): every contract is compared against every other
contract in the dataset; a reported clone pair is a true positive when both
contracts belong to the same honeypot family and a false positive
otherwise.  Recall is computed over all same-family pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.exact_hash import ExactHashCloneBaseline
from repro.baselines.smartembed import SmartEmbedBaseline
from repro.ccd.detector import CloneDetector
from repro.datasets.corpus import HoneypotContract
from repro.metrics.classification import f1_score


@dataclass
class HoneypotTypeResult:
    """TP/FP counts for one honeypot family."""

    honeypot_type: str
    true_positives: int = 0
    false_positives: int = 0
    possible_pairs: int = 0


@dataclass
class HoneypotEvaluation:
    """The full Table 3 style evaluation for one tool."""

    tool: str
    per_type: dict[str, HoneypotTypeResult] = field(default_factory=dict)
    unparsable: int = 0

    @property
    def total_true_positives(self) -> int:
        return sum(result.true_positives for result in self.per_type.values())

    @property
    def total_false_positives(self) -> int:
        return sum(result.false_positives for result in self.per_type.values())

    @property
    def total_possible_pairs(self) -> int:
        return sum(result.possible_pairs for result in self.per_type.values())

    @property
    def precision(self) -> float:
        reported = self.total_true_positives + self.total_false_positives
        return self.total_true_positives / reported if reported else 0.0

    @property
    def recall(self) -> float:
        possible = self.total_possible_pairs
        return self.total_true_positives / possible if possible else 0.0

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)

    def rows(self) -> list[dict]:
        return [
            {
                "type": result.honeypot_type,
                "tp": result.true_positives,
                "fp": result.false_positives,
                "possible": result.possible_pairs,
            }
            for result in sorted(self.per_type.values(), key=lambda item: item.honeypot_type)
        ]


def _possible_pairs(contracts: list[HoneypotContract]) -> dict[str, int]:
    counts: dict[str, int] = {}
    per_type: dict[str, int] = {}
    for contract in contracts:
        per_type[contract.honeypot_type] = per_type.get(contract.honeypot_type, 0) + 1
    for honeypot_type, count in per_type.items():
        counts[honeypot_type] = count * (count - 1)  # ordered pairs, as each side queries
    return counts


def _evaluate_pairs(
    tool_name: str,
    contracts: list[HoneypotContract],
    reported_pairs: dict[str, list[str]],
    unparsable: int,
) -> HoneypotEvaluation:
    type_of = {contract.address: contract.honeypot_type for contract in contracts}
    evaluation = HoneypotEvaluation(tool=tool_name, unparsable=unparsable)
    for honeypot_type, possible in _possible_pairs(contracts).items():
        evaluation.per_type[honeypot_type] = HoneypotTypeResult(
            honeypot_type=honeypot_type, possible_pairs=possible)
    for address, matched_addresses in reported_pairs.items():
        own_type = type_of[address]
        result = evaluation.per_type.setdefault(
            own_type, HoneypotTypeResult(honeypot_type=own_type))
        for matched in matched_addresses:
            if type_of.get(matched) == own_type:
                result.true_positives += 1
            else:
                result.false_positives += 1
    return evaluation


def evaluate_ccd_on_honeypots(
    contracts: list[HoneypotContract],
    ngram_size: int = 3,
    ngram_threshold: float = 0.5,
    similarity_threshold: float = 0.7,
    detector: Optional[CloneDetector] = None,
) -> HoneypotEvaluation:
    """Evaluate CCD with the given parameters on the honeypot corpus."""
    if detector is None:
        detector = CloneDetector(
            ngram_size=ngram_size,
            ngram_threshold=ngram_threshold,
            similarity_threshold=similarity_threshold,
        )
    detector.add_corpus((contract.address, contract.source) for contract in contracts)
    pairwise = detector.pairwise_clones()
    reported = {address: [match.document_id for match in matches]
                for address, matches in pairwise.items()}
    return _evaluate_pairs("CCD", contracts, reported, unparsable=len(detector.parse_failures))


def evaluate_smartembed_on_honeypots(
    contracts: list[HoneypotContract],
    similarity_threshold: float = 0.9,
    baseline: Optional[SmartEmbedBaseline] = None,
) -> HoneypotEvaluation:
    """Evaluate the SmartEmbed-style baseline (0.9 cosine threshold)."""
    if baseline is None:
        baseline = SmartEmbedBaseline(similarity_threshold=similarity_threshold)
    baseline.add_corpus((contract.address, contract.source) for contract in contracts)
    pairwise = baseline.pairwise_clones()
    reported = {address: [match.document_id for match in matches]
                for address, matches in pairwise.items()}
    return _evaluate_pairs(baseline.name, contracts, reported,
                           unparsable=len(baseline.parse_failures))


def evaluate_exact_hash_on_honeypots(
    contracts: list[HoneypotContract],
    baseline: Optional[ExactHashCloneBaseline] = None,
) -> HoneypotEvaluation:
    """Evaluate the exact-hash ablation baseline (Type I/II clones only)."""
    if baseline is None:
        baseline = ExactHashCloneBaseline()
    baseline.add_corpus((contract.address, contract.source) for contract in contracts)
    reported = {
        contract.address: [matched
                           for matched in baseline.find_clones(contract.source)
                           if matched != contract.address]
        for contract in contracts
    }
    return _evaluate_pairs(baseline.name, contracts, reported,
                           unparsable=len(baseline.parse_failures))


def honeypot_report(evaluation: HoneypotEvaluation) -> dict:
    """The canonical report dict of one :class:`HoneypotEvaluation`.

    Shared by the local evaluation scripts and the service-side
    ``honeypot_clones`` workload merge, so both paths emit byte-identical
    ``canonical_json`` for the same corpus.
    """
    return {
        "tool": evaluation.tool,
        "unparsable": evaluation.unparsable,
        "total_true_positives": evaluation.total_true_positives,
        "total_false_positives": evaluation.total_false_positives,
        "total_possible_pairs": evaluation.total_possible_pairs,
        "precision": evaluation.precision,
        "recall": evaluation.recall,
        "f1": evaluation.f1,
        "rows": evaluation.rows(),
    }
