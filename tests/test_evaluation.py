"""Tests for the evaluation harnesses feeding Tables 1-3, 8, 9."""

import pytest

from repro.ccc.dasp import DaspCategory
from repro.evaluation import (
    evaluate_baseline_on_corpus,
    evaluate_ccc_on_corpus,
    evaluate_ccd_on_honeypots,
    evaluate_smartembed_on_honeypots,
    simulate_manual_validation,
    sweep_ccd_parameters,
)
from repro.evaluation.parameter_sweep import best_combination


class TestSmartBugsEvaluation:
    @pytest.fixture(scope="class")
    def ccc_result(self, small_smartbugs_corpus):
        return evaluate_ccc_on_corpus(small_smartbugs_corpus, "original")

    def test_totals_consistent(self, ccc_result, small_smartbugs_corpus):
        assert ccc_result.total_labels == small_smartbugs_corpus.total_labels
        assert ccc_result.total_true_positives <= ccc_result.total_labels

    def test_reasonable_recall_and_precision(self, ccc_result):
        assert ccc_result.recall > 0.6
        assert ccc_result.precision > 0.7

    def test_covers_most_categories(self, ccc_result):
        assert ccc_result.covered_categories >= 7

    def test_functions_dataset_increases_precision(self, small_smartbugs_corpus, ccc_result):
        functions_result = evaluate_ccc_on_corpus(small_smartbugs_corpus, "functions")
        assert functions_result.precision >= ccc_result.precision
        assert functions_result.recall <= ccc_result.recall + 1e-9

    def test_statements_dataset_lowest_recall(self, small_smartbugs_corpus):
        functions_result = evaluate_ccc_on_corpus(small_smartbugs_corpus, "functions")
        statements_result = evaluate_ccc_on_corpus(small_smartbugs_corpus, "statements")
        assert statements_result.recall <= functions_result.recall

    def test_baseline_has_narrower_coverage(self, small_smartbugs_corpus, ccc_result):
        baseline = evaluate_baseline_on_corpus(small_smartbugs_corpus, "original")
        assert baseline.covered_categories < ccc_result.covered_categories
        assert baseline.total_true_positives < ccc_result.total_true_positives

    def test_rows_structure(self, ccc_result):
        rows = ccc_result.rows()
        assert len(rows) == 9
        assert all({"category", "labels", "tp", "fp"} <= set(row) for row in rows)

    def test_unknown_dataset_rejected(self, small_smartbugs_corpus):
        with pytest.raises(ValueError):
            evaluate_ccc_on_corpus(small_smartbugs_corpus, "bogus")


class TestHoneypotEvaluation:
    @pytest.fixture(scope="class")
    def ccd_result(self, small_honeypot_corpus):
        return evaluate_ccd_on_honeypots(small_honeypot_corpus)

    @pytest.fixture(scope="class")
    def smartembed_result(self, small_honeypot_corpus):
        return evaluate_smartembed_on_honeypots(small_honeypot_corpus)

    def test_ccd_precision_high(self, ccd_result):
        assert ccd_result.precision > 0.7

    def test_ccd_finds_intra_family_clones(self, ccd_result):
        assert ccd_result.total_true_positives > 0

    def test_ccd_beats_smartembed_on_false_positives(self, ccd_result, smartembed_result):
        assert ccd_result.total_false_positives <= smartembed_result.total_false_positives

    def test_ccd_precision_at_least_smartembed(self, ccd_result, smartembed_result):
        assert ccd_result.precision >= smartembed_result.precision

    def test_per_type_rows(self, ccd_result):
        rows = ccd_result.rows()
        assert len(rows) == 9
        assert all(row["possible"] >= row["tp"] for row in rows)

    def test_metrics_bounded(self, ccd_result):
        assert 0.0 <= ccd_result.precision <= 1.0
        assert 0.0 <= ccd_result.recall <= 1.0
        assert 0.0 <= ccd_result.f1 <= 1.0


class TestParameterSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_honeypot_corpus):
        return sweep_ccd_parameters(
            small_honeypot_corpus,
            ngram_sizes=(3, 5),
            ngram_thresholds=(0.5, 0.7),
            similarity_thresholds=(0.5, 0.7, 0.9),
        )

    def test_grid_size(self, sweep):
        assert len(sweep) == 2 * 2 * 3

    def test_higher_epsilon_never_lowers_precision_much(self, sweep):
        points = {(p.ngram_size, p.ngram_threshold, p.similarity_threshold): p for p in sweep}
        low = points[(3, 0.5, 0.5)]
        high = points[(3, 0.5, 0.9)]
        assert high.precision >= low.precision - 1e-9

    def test_higher_epsilon_never_raises_recall(self, sweep):
        points = {(p.ngram_size, p.ngram_threshold, p.similarity_threshold): p for p in sweep}
        low = points[(3, 0.5, 0.5)]
        high = points[(3, 0.5, 0.9)]
        assert high.recall <= low.recall + 1e-9

    def test_best_combination_is_from_grid(self, sweep):
        best = best_combination(sweep)
        assert best in sweep

    def test_rows_serializable(self, sweep):
        row = sweep[0].as_row()
        assert {"N", "eta", "epsilon", "precision", "recall", "f1"} <= set(row)


class TestManualValidation:
    def test_simulated_review(self, small_qa_corpus, small_sanctuary):
        from repro.pipeline import StudyConfiguration, VulnerableCodeReuseStudy

        study = VulnerableCodeReuseStudy(StudyConfiguration(
            validation_timeout_seconds=15, snippet_analysis_timeout_seconds=15))
        result = study.run(small_qa_corpus, small_sanctuary.contracts)
        collector_snippets = result.collection.snippets
        table = simulate_manual_validation(
            result, collector_snippets, small_sanctuary.contracts,
            small_sanctuary.ground_truth_embeddings, sample_size=50)
        counts = table.counts()
        assert sum(counts.values()) == table.sample_size
        assert table.sample_size <= 50
        if table.sample_size:
            # the majority of flagged pairings should be genuine (Table 8: 48/100)
            assert table.confirmed_pairings >= table.sample_size * 0.3
