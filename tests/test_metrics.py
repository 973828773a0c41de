"""Tests for the confusion matrix, rate computations, aggregation and the
report renderers."""

import json

import numpy as np
import pytest

from maskdetect.errors import InputError, MetricError, ParameterError
from maskdetect.metrics import (
    ClassReport,
    ConfusionMatrix,
    accuracy,
    aggregate,
    classification_report,
    confusion,
    precision_recall_f1,
    render_report,
)
from maskdetect.rng import SplitMix64


def random_pairs(rng, n):
    pred = [rng.randint(3) for _ in range(n)]
    truth = [rng.randint(3) for _ in range(n)]
    return pred, truth


def tally_oracle(pred, truth):
    """Independent hash-map tally of (true, pred) pairs."""
    counts = {}
    for p, t in zip(pred, truth):
        counts[(t, p)] = counts.get((t, p), 0) + 1
    out = np.zeros((3, 3), dtype=np.int64)
    for (t, p), n in counts.items():
        out[t, p] = n
    return out


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------


def test_confusion_diagonal_when_pred_equals_truth():
    labels = [0, 1, 2, 2, 1, 0, 0]
    cm = confusion(labels, labels)
    assert np.array_equal(cm.counts, np.diag([3, 2, 2]))


def test_confusion_empty_input_is_zero_matrix():
    cm = confusion([], [])
    assert cm.total == 0
    assert np.all(cm.counts == 0)
    with pytest.raises(MetricError):
        accuracy(cm)


def test_confusion_matches_tally_oracle():
    rng = SplitMix64(31)
    for _ in range(5):
        pred, truth = random_pairs(rng, 200)
        cm = confusion(pred, truth)
        assert np.array_equal(cm.counts, tally_oracle(pred, truth))
        assert cm.total == 200
        assert np.array_equal(
            cm.row_sums(), [truth.count(k) for k in range(3)]
        )


def test_confusion_permutation_invariant():
    rng = SplitMix64(32)
    pred, truth = random_pairs(rng, 120)
    order = rng.permutation(120)
    cm_a = confusion(pred, truth)
    cm_b = confusion([pred[i] for i in order], [truth[i] for i in order])
    assert np.array_equal(cm_a.counts, cm_b.counts)


def test_confusion_input_errors():
    with pytest.raises(InputError):
        confusion([0, 1], [0])
    with pytest.raises(InputError):
        confusion([0, 3], [0, 0])
    with pytest.raises(InputError):
        confusion([0, 0], [0, -1])
    with pytest.raises(InputError):
        ConfusionMatrix(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(InputError):
        ConfusionMatrix(np.full((3, 3), -1))


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def test_accuracy_examples():
    assert accuracy(ConfusionMatrix(np.diag([4, 5, 6]))) == 1.0
    assert abs(accuracy(ConfusionMatrix(np.ones((3, 3)))) - 1.0 / 3.0) < 1e-15


def test_accuracy_matches_recount_oracle():
    rng = SplitMix64(33)
    for _ in range(10):
        pred, truth = random_pairs(rng, 150)
        cm = confusion(pred, truth)
        want = sum(p == t for p, t in zip(pred, truth)) / 150
        assert abs(accuracy(cm) - want) < 1e-12


# ---------------------------------------------------------------------------
# precision / recall / F1
# ---------------------------------------------------------------------------


def test_prf_direct_substitution():
    # class 0: TP=8, FP=2 (one column entry), FN=2 (one row entry)
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 0] = 8
    counts[1, 0] = 2
    counts[0, 1] = 2
    p, r, f1 = precision_recall_f1(ConfusionMatrix(counts), 0)
    assert abs(p - 0.8) < 1e-12
    assert abs(r - 0.8) < 1e-12
    assert abs(f1 - 0.8) < 1e-12


def test_prf_zero_denominator_convention():
    # class 2 never predicted and never present
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 0] = 5
    counts[1, 1] = 5
    assert precision_recall_f1(ConfusionMatrix(counts), 2) == (0.0, 0.0, 0.0)


def manual_prf(counts, k):
    tp = counts[k][k]
    fp = sum(counts[t][k] for t in range(3)) - tp
    fn = sum(counts[k][p] for p in range(3)) - tp
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def test_prf_matches_manual_recomputation():
    rng = SplitMix64(34)
    for _ in range(20):
        counts = np.array(
            [[rng.randint(30) for _ in range(3)] for _ in range(3)], dtype=np.int64
        )
        cm = ConfusionMatrix(counts)
        for k in range(3):
            got = precision_recall_f1(cm, k)
            want = manual_prf(counts.tolist(), k)
            assert np.allclose(got, want, atol=1e-12)


def test_prf_invariants_on_random_matrices():
    rng = SplitMix64(35)
    for _ in range(20):
        counts = np.array(
            [[rng.randint(25) for _ in range(3)] for _ in range(3)], dtype=np.int64
        )
        cm = ConfusionMatrix(counts)
        for k in range(3):
            p, r, f1 = precision_recall_f1(cm, k)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
            if p + r > 0:
                assert abs(f1 - 2 * p * r / (p + r)) < 1e-12
            row = int(cm.row_sums()[k])
            if row > 0:
                assert abs(r - cm.counts[k, k] / row) < 1e-12


def test_prf_validates_class_id():
    cm = ConfusionMatrix(np.ones((3, 3)))
    with pytest.raises(ParameterError):
        precision_recall_f1(cm, 3)
    with pytest.raises(ParameterError):
        precision_recall_f1(cm, -1)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_equal_supports():
    macro, weighted = aggregate((0.5, 0.7, 0.9), (10, 10, 10))
    assert abs(macro - 0.7) < 1e-12
    assert abs(weighted - macro) < 1e-12


def test_aggregate_support_dominance():
    macro, weighted = aggregate((1.0, 0.0, 0.0), (100, 0, 0))
    assert abs(weighted - 1.0) < 1e-12
    assert abs(macro - 1.0 / 3.0) < 1e-12


def test_aggregate_matches_hand_loop():
    rng = SplitMix64(36)
    for _ in range(20):
        values = [rng.uniform() for _ in range(3)]
        supports = [rng.randint(50) for _ in range(3)]
        if sum(supports) == 0:
            supports[0] = 1
        macro, weighted = aggregate(values, supports)
        assert abs(macro - sum(values) / 3) < 1e-12
        want = sum(v * s for v, s in zip(values, supports)) / sum(supports)
        assert abs(weighted - want) < 1e-12


def test_aggregate_errors():
    with pytest.raises(MetricError):
        aggregate((0.1, 0.2, 0.3), (0, 0, 0))
    with pytest.raises(InputError):
        aggregate((0.1, 0.2), (1, 1, 1))
    with pytest.raises(InputError):
        aggregate((0.1, 0.2, 0.3), (1, -1, 1))


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def test_report_known_small_case():
    # 10 samples: class 0 perfectly, one 1->2 slip, one 2->0 slip
    pred = [0, 0, 0, 0, 1, 1, 2, 2, 2, 0]
    truth = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    report = classification_report(confusion(pred, truth))
    assert report.support == (4, 3, 3)
    assert abs(report.accuracy - 0.8) < 1e-12
    assert abs(report.precision[0] - 4 / 5) < 1e-12
    assert abs(report.recall[0] - 1.0) < 1e-12
    assert abs(report.recall[1] - 2 / 3) < 1e-12
    assert abs(report.precision[2] - 2 / 3) < 1e-12


def test_report_accuracy_equals_weighted_recall():
    rng = SplitMix64(37)
    for _ in range(15):
        pred, truth = random_pairs(rng, 90)
        report = classification_report(confusion(pred, truth))
        assert abs(report.accuracy - report.weighted[1]) < 1e-12


def test_report_accuracy_equals_weighted_recall_with_empty_class():
    # class 2 absent from truth: its recall is 0 by convention but carries
    # zero weight, so the identity still holds
    pred = [0, 1, 2, 0, 1]
    truth = [0, 1, 1, 0, 0]
    report = classification_report(confusion(pred, truth))
    assert report.support[2] == 0
    assert abs(report.accuracy - report.weighted[1]) < 1e-12


def test_report_weighted_between_min_and_max():
    rng = SplitMix64(38)
    for _ in range(15):
        pred, truth = random_pairs(rng, 60)
        report = classification_report(confusion(pred, truth))
        for values, weighted in zip(
            (report.precision, report.recall, report.f1), report.weighted
        ):
            assert min(values) - 1e-12 <= weighted <= max(values) + 1e-12


def test_report_json_twin_roundtrip():
    pred = [0, 1, 2, 1, 0, 2, 2]
    truth = [0, 1, 2, 2, 0, 2, 1]
    report = classification_report(confusion(pred, truth))
    twin = json.loads(json.dumps(report.to_dict()))
    # every field survives the JSON twin, at full precision
    assert tuple(twin["classes"]) == report.class_names
    for k, name in enumerate(report.class_names):
        assert twin["classes"][name] == {
            "precision": report.precision[k],
            "recall": report.recall[k],
            "f1": report.f1[k],
            "support": report.support[k],
        }
    assert twin["accuracy"] == report.accuracy
    for key, summary in (("macro_avg", report.macro), ("weighted_avg", report.weighted)):
        assert tuple(twin[key][m] for m in ("precision", "recall", "f1")) == summary
    assert twin["total"] == sum(report.support)
    assert twin["classes"]["without_mask"]["recall"] == report.recall[1]
    assert "zero_denominator" in twin["conventions"]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_published_layout():
    # the published three-class table: class rows, then Accuracy (value in
    # the F1-score column), Macro_avg, Weighted_avg
    report = ClassReport(
        class_names=("Incorrect_mask", "With_mask", "Without_mask"),
        precision=(0.989, 0.993, 0.998),
        recall=(0.985, 0.993, 0.995),
        f1=(0.987, 0.991, 0.991),
        support=(1000, 1000, 1000),
        accuracy=0.994,
        macro=(0.989, 0.987, 0.989),
        weighted=(0.987, 0.988, 0.987),
    )
    text = render_report(report)
    lines = text.strip("\n").split("\n")
    assert len(lines) == 7
    assert lines[0].split() == ["Precision", "Recall", "F1-score"]
    assert lines[1].split() == ["Incorrect_mask", "0.989", "0.985", "0.987"]
    assert lines[2].split() == ["With_mask", "0.993", "0.993", "0.991"]
    assert lines[3].split() == ["Without_mask", "0.998", "0.995", "0.991"]
    assert lines[4].split() == ["Accuracy", "0.994"]
    # accuracy value sits in the F1-score column
    assert lines[4].index("0.994") == lines[3].index("0.991")
    assert lines[5].split() == ["Macro_avg", "0.989", "0.987", "0.989"]
    assert lines[6].split() == ["Weighted_avg", "0.987", "0.988", "0.987"]
    # fixed width: every row is the same length
    assert len({len(line) for line in lines}) == 1


def test_render_perfect_classifier():
    labels = [0, 1, 2] * 4
    report = classification_report(confusion(labels, labels))
    text = render_report(report)
    for line in text.strip("\n").split("\n")[1:]:
        for cell in line.split()[1:]:
            assert cell == "1.000"


def test_confusion_csv():
    cm = confusion([0, 1, 2, 0], [0, 1, 1, 2])
    csv = cm.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "true\\pred,with_mask,without_mask,incorrect_mask"
    assert lines[1] == "with_mask,1,0,0"
    assert lines[2] == "without_mask,0,1,1"
    assert lines[3] == "incorrect_mask,1,0,0"
