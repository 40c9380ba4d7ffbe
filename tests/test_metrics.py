"""Metric formulas against hand examples and brute-force oracles."""

import numpy as np
import pytest

from flowids.errors import DataError, MetricUndefinedError
from flowids.metrics import (
    ConfusionCounts,
    confusion,
    render_table,
    report,
    roc_auc,
    scalar_metrics,
)
from oracles import np_auc_pairwise, np_scalar_metrics


class TestConfusion:
    def test_hand_example(self):
        scores = np.array([0.9, 0.8, 0.3, 0.6, 0.1, 0.7])
        truths = np.array([1, 0, 1, 1, 0, 0])
        c = confusion(scores, truths, threshold=0.5)
        assert c == ConfusionCounts(tp=2, tn=1, fp=2, fn=1)

    def test_threshold_boundary_is_positive(self):
        """A score exactly at the threshold predicts the positive class."""
        c = confusion(np.array([0.5]), np.array([1]), threshold=0.5)
        assert c.tp == 1 and c.fn == 0

    def test_rejects_non_finite_scores(self):
        with pytest.raises(DataError, match="non-finite"):
            confusion(np.array([0.5, np.nan]), np.array([0, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            confusion(np.array([0.5, 0.6]), np.array([1]))

    def test_rejects_nonbinary_truths(self):
        with pytest.raises(DataError, match="0 or 1"):
            confusion(np.array([0.5, 0.6]), np.array([1, 2]))


class TestScalarMetrics:
    def test_worked_example(self):
        """tp=50 tn=40 fp=5 fn=5: accuracy 0.9, precision = recall = 10/11."""
        m = scalar_metrics(ConfusionCounts(tp=50, tn=40, fp=5, fn=5))
        np.testing.assert_allclose(m.accuracy, 0.9)
        np.testing.assert_allclose(m.precision, 10 / 11)
        np.testing.assert_allclose(m.recall, 10 / 11)
        np.testing.assert_allclose(m.f1, 10 / 11)
        np.testing.assert_allclose(m.fnr, 1 / 11)
        np.testing.assert_allclose(m.mcc, 1975.0 / 2475.0)

    def test_perfect_classifier(self):
        m = scalar_metrics(ConfusionCounts(tp=10, tn=10, fp=0, fn=0))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert m.fnr == 0.0
        assert m.mcc == 1.0

    def test_never_predicts_positive(self):
        """tp = fp = 0: precision, f1 and mcc hit empty denominators -> 0."""
        m = scalar_metrics(ConfusionCounts(tp=0, tn=5, fp=0, fn=5))
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert m.fnr == 1.0
        assert m.mcc == 0.0

    def test_always_predicts_positive(self):
        m = scalar_metrics(ConfusionCounts(tp=5, tn=0, fp=5, fn=0))
        assert m.recall == 1.0
        assert m.fnr == 0.0
        assert m.mcc == 0.0  # two empty factors in the denominator

    def test_matches_formula_transcription(self):
        """1000 random count vectors agree with the straight-line formulas."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
            got = scalar_metrics(ConfusionCounts(tp, tn, fp, fn))
            want = np_scalar_metrics(tp, tn, fp, fn)
            for name in ("accuracy", "precision", "recall", "f1", "fnr", "mcc"):
                np.testing.assert_allclose(
                    getattr(got, name), want[name], rtol=1e-12, atol=1e-12, err_msg=name
                )

    def test_relabeling_negates_mcc(self):
        """Flipping the truth labels flips the correlation's sign exactly."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.uniform(size=30)
            truths = rng.integers(0, 2, size=30)
            if truths.min() == truths.max():
                continue
            a = scalar_metrics(confusion(scores, truths)).mcc
            b = scalar_metrics(confusion(scores, 1 - truths)).mcc
            np.testing.assert_allclose(a, -b, rtol=0, atol=1e-15)


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        truths = np.array([1, 1, 0, 0])
        assert roc_auc(scores, truths) == 1.0

    def test_perfectly_wrong(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        truths = np.array([1, 1, 0, 0])
        assert roc_auc(scores, truths) == 0.0

    def test_all_tied_is_half(self):
        scores = np.full(6, 0.5)
        truths = np.array([1, 0, 1, 0, 1, 0])
        np.testing.assert_allclose(roc_auc(scores, truths), 0.5, rtol=0, atol=0)

    def test_hand_example(self):
        """[0.9, 0.8, 0.7, 0.6] vs [1, 0, 1, 0]: 3 of 4 pairs ranked right."""
        auc = roc_auc(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0]))
        np.testing.assert_allclose(auc, 0.75)

    def test_endpoints(self):
        rng = np.random.default_rng(2)
        points = report(rng.uniform(size=40), rng.integers(0, 2, size=40)).roc
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_matches_pairwise_oracle(self):
        """Trapezoid area equals the tie-aware pairwise ranking statistic."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(5, 60))
            scores = np.round(rng.uniform(size=n), 1)  # force ties
            truths = rng.integers(0, 2, size=n)
            if truths.min() == truths.max():
                continue
            np.testing.assert_allclose(
                roc_auc(scores, truths), np_auc_pairwise(scores, truths), rtol=0, atol=1e-9
            )

    def test_monotone_transform_invariance(self):
        """AUC only sees the ordering, so strictly increasing maps keep it."""
        rng = np.random.default_rng(4)
        scores = np.round(rng.uniform(size=50), 1)
        truths = rng.integers(0, 2, size=50)
        a = roc_auc(scores, truths)
        b = roc_auc(3.0 * scores + 1.0, truths)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(MetricUndefinedError, match="both classes"):
            roc_auc(np.array([0.2, 0.8]), np.array([1, 1]))


class TestReport:
    def _report(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=80)
        truths = rng.integers(0, 2, size=80)
        return report(scores, truths)

    def test_dict_shape(self):
        d = self._report().to_dict()
        assert d["n"] == 80
        assert d["threshold"] == 0.5
        assert set(d["counts"]) == {"tp", "tn", "fp", "fn"}
        assert set(d["metrics"]) == {"accuracy", "precision", "recall", "f1", "fnr", "auc", "mcc"}

    def test_counts_sum_to_n(self):
        rep = self._report()
        assert rep.counts.total == rep.n

    def test_table_columns_and_percents(self):
        text = report(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])).table("demo")
        for col in ("Accuracy", "Precision", "Recall", "F-measure", "FNR", "AUC", "MCC"):
            assert col in text
        assert "100.00%" in text
        assert "zero-denominator" in text

    def test_multi_row_table(self):
        rep = self._report()
        text = render_table([("one", rep), ("two", rep)])
        lines = text.splitlines()
        assert lines[0].startswith("Model")
        assert len(lines) == 5  # header, rule, two rows, footer

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            render_table([])

    def test_roc_csv(self, tmp_path):
        rep = self._report()
        path = tmp_path / "roc.csv"
        rep.roc_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == len(rep.roc) + 1

    def test_single_class_raises(self):
        with pytest.raises(MetricUndefinedError):
            report(np.array([0.2, 0.8]), np.array([0, 0]))
