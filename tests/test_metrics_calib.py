import numpy as np
import pytest

from pcbls.calibration import TemperatureModel, apply_temperature, ece, fit_temperature, nll
from pcbls.metrics import accuracy, average_precision, brier, iou_dice, mean_average_precision
from pcbls.numerics import softmax

from conftest import ref_iou_dice


def ref_ece(confidences, correct, bins):
    """Per-bin loop oracle using the shared membership rule."""
    n = len(confidences)
    total = 0.0
    for b in range(bins):
        members = [i for i, c in enumerate(confidences) if min(int(c * bins), bins - 1) == b]
        if not members:
            continue
        conf = sum(confidences[i] for i in members) / len(members)
        acc = sum(1.0 for i in members if correct[i]) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([0, 0]), np.array([1, 2])) == 0.0

    def test_three_of_four(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 3, 0])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_positives_at_ranks_1_and_3(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_reversed_single_positive(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([0, 0, 1]))
        assert ap == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_map_skips_empty_labels(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.3]])
        labels = np.array([[1, 0], [0, 0]])
        value, skipped = mean_average_precision(scores, labels)
        assert value == 1.0
        assert skipped == [1]

    def test_map_perfect(self, rng):
        labels = rng.integers(0, 2, size=(20, 4))
        labels[0] = 1  # ensure every label has a positive
        scores = labels + rng.uniform(0, 0.4, size=labels.shape)
        value, skipped = mean_average_precision(scores, labels)
        assert value == 1.0
        assert skipped == []


class TestIouDice:
    def test_perfect_prediction(self, rng):
        maps = [rng.integers(0, 4, size=(6, 6)) for _ in range(3)]
        per_class, miou, mdice = iou_dice(maps, maps, 4)
        assert miou == 1.0 and mdice == 1.0
        assert all(v == 1.0 for v in per_class.values())

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=int)
        a[:2] = 1
        b = np.zeros((4, 4), dtype=int)
        b[2:] = 1
        _, miou, mdice = iou_dice([a], [b], 2)
        assert miou == 0.0 and mdice == 0.0

    def test_half_overlap(self):
        pred = np.zeros((4, 4), dtype=int)
        pred[0:2, :] = 1  # 8 pixels
        gt = np.zeros((4, 4), dtype=int)
        gt[1:3, :] = 1  # 8 pixels, 4 shared
        _, miou, mdice = iou_dice([pred], [gt], 2)
        assert miou == pytest.approx(1.0 / 3.0)
        assert mdice == pytest.approx(0.5)

    def test_absent_class_excluded(self):
        pred = np.zeros((3, 3), dtype=int)
        pred[0, 0] = 1
        gt = pred.copy()
        per_class, miou, _ = iou_dice([pred], [gt], 4)  # classes 2,3 nowhere
        assert set(per_class) == {1}
        assert miou == 1.0

    def test_iou_le_dice_identity(self, rng):
        for _ in range(20):
            pred = [rng.integers(0, 3, size=(5, 5)) for _ in range(2)]
            gt = [rng.integers(0, 3, size=(5, 5)) for _ in range(2)]
            try:
                per_class, miou, mdice = iou_dice(pred, gt, 3)
            except ValueError:
                continue
            assert miou <= mdice + 1e-12
            for c, iou_c in per_class.items():
                assert iou_c <= 2 * iou_c / (1 + iou_c) + 1e-12


    def test_matches_per_class_reference(self, rng):
        for _ in range(60):
            n, h, w = rng.integers(1, 5, size=3)
            k = int(rng.integers(2, 6))
            pred = rng.integers(0, k, size=(n, h, w))
            gt = rng.integers(0, k, size=(n, h, w))
            background = int(rng.integers(0, k))
            try:
                want = ref_iou_dice(list(pred), list(gt), k, background)
            except ValueError:
                with pytest.raises(ValueError):
                    iou_dice(pred, gt, k, background)
                continue
            assert iou_dice(pred, gt, k, background) == want

    def test_label_outside_classes_is_rejected(self):
        # a 7 would otherwise land in another class's confusion-matrix cell
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            iou_dice([[[1, 7]]], [[[1, 1]]], 2)
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            iou_dice([[[1, 1]]], [[[-1, 1]]], 2)

    def test_shape_mismatch_and_float_maps_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            iou_dice(np.zeros((2, 3, 3), dtype=int), np.zeros((2, 3, 4), dtype=int), 2)
        with pytest.raises(ValueError, match="integers"):
            iou_dice(np.ones((1, 2, 2)), np.ones((1, 2, 2), dtype=int), 2)


class TestBrier:
    def test_perfect(self):
        probs = np.eye(3)
        assert brier(probs, np.array([0, 1, 2])) == 0.0

    def test_uniform_two_class(self):
        assert brier(np.array([[0.5, 0.5]]), np.array([0])) == pytest.approx(0.5)

    def test_worst_case(self):
        assert brier(np.array([[1.0, 0.0]]), np.array([1])) == 2.0

    def test_bounds(self, rng):
        probs = rng.dirichlet(np.ones(4), size=50)
        labels = rng.integers(0, 4, size=50)
        assert 0.0 <= brier(probs, labels) <= 2.0


class TestEce:
    def test_perfectly_calibrated_deterministic(self):
        report = ece(np.ones(10), np.ones(10, dtype=bool))
        assert report.ece == 0.0

    def test_two_sample_hand_value(self):
        report = ece(np.array([0.8, 0.6]), np.array([True, False]), bins=10)
        assert report.ece == pytest.approx(0.5 * 0.2 + 0.5 * 0.6, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 60))
            conf = rng.uniform(size=n)
            correct = rng.uniform(size=n) < conf
            bins = int(rng.integers(1, 20))
            report = ece(conf, correct, bins=bins)
            assert report.ece == pytest.approx(ref_ece(conf, correct, bins), abs=1e-12)
            assert int(report.bin_count.sum()) == n
            assert 0.0 <= report.ece <= 1.0

    def test_boundary_confidences(self):
        report = ece(np.array([0.0, 0.6, 1.0]), np.array([False, True, True]), bins=10)
        assert report.ece == pytest.approx(
            ref_ece(np.array([0.0, 0.6, 1.0]), [False, True, True], 10), abs=1e-15
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ece(np.array([1.2]), np.array([True]))
        with pytest.raises(ValueError):
            ece(np.array([0.5]), np.array([True]), bins=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_confidence(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ece(np.array([0.5, bad]), np.array([True, False]))


def _calibrated_logits(rng, n=4000, k=5, scale=2.0):
    """Draw logits, then labels from softmax(logits): calibrated by construction."""
    logits = rng.normal(scale=scale, size=(n, k))
    probs = softmax(logits, axis=1)
    u = rng.uniform(size=n)
    labels = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
    return logits, labels


class TestTemperature:
    def test_apply_identity(self, rng):
        logits = rng.normal(size=(5, 4))
        assert np.allclose(apply_temperature(logits, 1.0), softmax(logits, axis=1), atol=1e-15)

    def test_two_temperature_hand_value(self):
        out = apply_temperature(np.array([[2.0, 0.0]]), 2.0)
        assert out[0, 0] == pytest.approx(0.73106, abs=1e-5)
        assert out[0, 1] == pytest.approx(0.26894, abs=1e-5)

    def test_large_t_approaches_uniform(self, rng):
        logits = rng.normal(size=(3, 4))
        out = apply_temperature(logits, 1e6)
        assert np.allclose(out, 0.25, atol=1e-5)

    def test_argmax_invariance(self, rng):
        logits = rng.normal(scale=4, size=(100, 6))
        base = np.argmax(logits, axis=1)
        for t in (0.05, 0.3, 1.0, 2.63, 19.9):
            assert np.array_equal(np.argmax(apply_temperature(logits, t), axis=1), base)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            apply_temperature(np.zeros((1, 2)), 0.0)

    def test_fit_recovers_one_on_calibrated(self, rng):
        logits, labels = _calibrated_logits(rng)
        tm = fit_temperature(logits, labels)
        assert tm.temperature == pytest.approx(1.0, abs=0.05)

    def test_fit_recovers_scaling(self, rng):
        logits, labels = _calibrated_logits(rng)
        tm = fit_temperature(logits * 3.0, labels)
        assert tm.temperature == pytest.approx(3.0, abs=0.1)

    def test_fit_never_worse_than_t1(self, rng):
        for _ in range(10):
            logits = rng.normal(scale=rng.uniform(0.5, 6), size=(200, 4))
            labels = rng.integers(0, 4, size=200)
            tm = fit_temperature(logits, labels)
            assert nll(logits, labels, tm.temperature) <= nll(logits, labels, 1.0) + 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_temperature(np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize(
        "t,pinned",
        [(0.05, True), (0.050002, True), (0.05004, True), (0.0501, False), (1.0, False), (19.99, True), (19.9, False)],
    )
    def test_pinned_within_1e3_of_a_window_edge_in_log_space(self, t, pinned):
        assert TemperatureModel(t).pinned is pinned

    def test_separable_logits_pin_the_fit_at_the_lower_edge(self):
        # confidently right everywhere: the NLL falls all the way down to T -> 0
        logits = np.array([[0.5, 0.0], [0.0, 0.5]] * 10)
        tm = fit_temperature(logits, np.array([0, 1] * 10))
        assert tm.pinned and tm.temperature == pytest.approx(0.05, rel=1e-3)
