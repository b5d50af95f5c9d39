import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbls.soft_labels import one_hot_maps, segmentation_targets, smooth_binary, uls, uls_matrix

from conftest import (
    ref_conv2d_replicate,
    ref_gaussian_kernel,
    ref_segmentation_targets,
    ref_svls_by_class,
    ref_uls_svls_by_class,
)


def ref_svls(labels, num_classes, sigma, k):
    kernel = ref_gaussian_kernel(k, sigma)
    out = np.zeros(labels.shape + (num_classes,))
    for c in range(num_classes):
        out[:, :, c] = ref_conv2d_replicate((labels == c).astype(np.float64), kernel)
    return out


def ref_uls_svls(labels, num_classes, epsilon, sigma, k):
    kernel = ref_gaussian_kernel(k, sigma)
    out = np.zeros(labels.shape + (num_classes,))
    for c in range(num_classes):
        chan = (labels == c) * (1.0 - epsilon) + epsilon / num_classes
        out[:, :, c] = ref_conv2d_replicate(chan.astype(np.float64), kernel)
    return out


class TestUls:
    def test_zero_epsilon_identity(self):
        assert np.array_equal(uls(3, 8, 0.0), np.eye(8)[3])

    def test_half_epsilon_k8(self):
        out = uls(2, 8, 0.5)
        assert out[2] == pytest.approx(0.5625)
        others = np.delete(out, 2)
        assert np.allclose(others, 0.0625)

    def test_two_class(self):
        assert np.allclose(uls(0, 2, 0.1), [0.95, 0.05])

    def test_min_max_and_monotonicity(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 12))
            y = int(rng.integers(0, k))
            e1, e2 = sorted(rng.uniform(0.0, 0.999, size=2))
            p1, p2 = uls(y, k, e1), uls(y, k, e2)
            assert p1.min() == pytest.approx(e1 / k)
            assert p1.max() == pytest.approx(1 - e1 + e1 / k)
            if e2 > e1:
                assert p2[y] < p1[y]

    def test_permutation_equivariance(self, rng):
        # smoothing then relabeling == relabeling then smoothing
        k = 6
        perm = rng.permutation(k)
        for y in range(k):
            base = uls(y, k, 0.3)
            relabeled = uls(int(perm[y]), k, 0.3)
            assert np.allclose(relabeled[perm], base, atol=1e-15)

    def test_rejects_bad_epsilon(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                uls(0, 4, bad)

    def test_matrix_matches_scalar(self, rng):
        labels = rng.integers(0, 5, size=20)
        m = uls_matrix(labels, 5, 0.25)
        for i, y in enumerate(labels):
            assert np.array_equal(m[i], uls(int(y), 5, 0.25))


class TestSmoothBinary:
    def test_k2_rule(self):
        t = np.array([0.0, 1.0])
        assert np.allclose(smooth_binary(t, 0.2), [0.1, 0.9])

    def test_zero_identity(self):
        t = np.array([[0.0, 1.0, 1.0]])
        assert np.array_equal(smooth_binary(t, 0.0), t)


class TestSvls:
    def test_uniform_map_stays_onehot(self):
        labels = np.full((6, 7), 2, dtype=np.int64)
        out = segmentation_targets(labels, 4, 0.0, 1.0, 3)
        assert np.allclose(out[:, :, 2], 1.0, atol=1e-12)
        assert np.allclose(np.delete(out, 2, axis=2), 0.0, atol=1e-12)

    def test_near_delta_kernel(self, rng):
        labels = rng.integers(0, 3, size=(5, 5))
        assert np.allclose(segmentation_targets(labels, 3, 0.0, 0.05, 3), one_hot_maps(labels, 3), atol=1e-9)

    def test_two_pixel_map_oracle_value(self):
        # frozen from the triple-loop reference at sigma=1, k=3
        out = segmentation_targets(np.array([[0, 1]]), 2, 0.0, 1.0, 3)
        assert out[0, 0, 0] == pytest.approx(0.725931, abs=1e-4)
        assert out[0, 0, 1] == pytest.approx(0.274069, abs=1e-4)
        assert np.allclose(out, ref_svls(np.array([[0, 1]]), 2, 1.0, 3), atol=1e-12)

    def test_matches_reference_random_maps(self, rng):
        for _ in range(40):
            h, w = rng.integers(1, 9, size=2)
            k = int(rng.integers(2, 6))
            labels = rng.integers(0, k, size=(h, w))
            sigma = float(rng.uniform(0.3, 2.0))
            got = segmentation_targets(labels, k, 0.0, sigma, 3)
            assert np.allclose(got, ref_svls(labels, k, sigma, 3), atol=1e-12)
            sums = got.sum(axis=2)
            assert np.allclose(sums, 1.0, atol=1e-6)
            assert (got >= -1e-15).all() and (got <= 1 + 1e-15).all()

    def test_interior_pixels_stay_onehot(self):
        labels = np.zeros((9, 9), dtype=np.int64)
        labels[3:6, 3:6] = 1  # 3x3 block; its center is 1 pixel from the boundary
        out = segmentation_targets(labels, 2, 0.0, 0.9, 3)
        # pixels farther than (k-1)/2 = 1 from any class change are exact
        assert out[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
        assert out[4, 4, 1] == pytest.approx(1.0, abs=1e-9)
        # boundary pixel is softened
        assert out[3, 3, 1] < 1.0 - 1e-6


class TestUlsSvls:
    def test_delta_sigma_equals_uls(self, rng):
        labels = rng.integers(0, 3, size=(5, 4))
        got = segmentation_targets(labels, 3, 0.4, 0.05, 3)
        per_pixel = one_hot_maps(labels, 3) * 0.6 + 0.4 / 3
        assert np.allclose(got, per_pixel, atol=1e-9)

    def test_compose_oracles(self, rng):
        labels = rng.integers(0, 3, size=(5, 5))
        got = segmentation_targets(labels, 3, 0.6, 0.9, 3)
        assert np.allclose(got, ref_uls_svls(labels, 3, 0.6, 0.9, 3), atol=1e-12)

    def test_valid_distributions(self, rng):
        for _ in range(10):
            labels = rng.integers(0, 5, size=(7, 7))
            out = segmentation_targets(labels, 5, float(rng.uniform(0, 0.9)), float(rng.uniform(0.3, 2)), 3)
            assert np.allclose(out.sum(axis=2), 1.0, atol=1e-6)
            assert (out >= 0).all() and (out <= 1).all()


class TestSegmentationTargets:
    def test_plain_onehot(self, rng):
        labels = rng.integers(0, 3, size=(4, 4))
        assert np.array_equal(segmentation_targets(labels, 3), one_hot_maps(labels, 3))


class TestStackedTargets:
    """A (N,H,W) stack gives, bit for bit, the per-frame, per-class targets."""

    @pytest.mark.parametrize("shape", [(1, 5, 6), (3, 1, 7), (4, 6, 1), (2, 4, 4)])
    @pytest.mark.parametrize("num_classes", [2, 3, 4, 5])
    def test_stack_matches_per_frame_reference(self, rng, shape, num_classes):
        labels = rng.integers(0, num_classes, size=shape)
        for epsilon in (0.0, 0.3):
            for sigma in (None, 0.0, 0.8):
                for k in (1, 3, 5):
                    got = segmentation_targets(labels, num_classes, epsilon, sigma, k)
                    want = np.stack([ref_segmentation_targets(l, num_classes, epsilon, sigma, k) for l in labels])
                    assert got.flags.c_contiguous
                    assert np.array_equal(got, want), (epsilon, sigma, k)
                    single = segmentation_targets(labels[0], num_classes, epsilon, sigma, k)
                    assert np.array_equal(single, want[0])

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_svls_and_uls_svls_match_per_class_reference(self, rng, k):
        labels = rng.integers(0, 4, size=(3, 5, 7))
        got = segmentation_targets(labels, 4, 0.0, 0.7, k)
        assert np.array_equal(got, np.stack([ref_svls_by_class(l, 4, 0.7, k) for l in labels]))
        got = segmentation_targets(labels, 4, 0.25, 0.7, k)
        assert np.array_equal(got, np.stack([ref_uls_svls_by_class(l, 4, 0.25, 0.7, k) for l in labels]))

    def test_random_stacks_match_reference(self, rng):
        for _ in range(60):
            n, h, w = rng.integers(1, 6, size=3)
            num_classes = int(rng.integers(2, 6))
            labels = rng.integers(0, num_classes, size=(n, h, w))
            epsilon = float(rng.choice([0.0, rng.uniform(0.0, 0.99)]))
            sigma = float(rng.uniform(0.1, 2.5))
            k = int(rng.choice([1, 3, 5]))
            got = segmentation_targets(labels, num_classes, epsilon, sigma, k)
            want = np.stack([ref_segmentation_targets(l, num_classes, epsilon, sigma, k) for l in labels])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    def test_negative_or_non_finite_sigma_is_refused(self, epsilon):
        labels = np.zeros((2, 3), dtype=np.int64)
        for bad in (-1.0, -1e-300, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=r"^sigma must be finite and at least 0, got "):
                segmentation_targets(labels, 3, epsilon, bad, 3)
        # None and 0 both mean no blur
        plain = segmentation_targets(labels, 3, epsilon)
        for off in (None, 0.0):
            assert np.array_equal(segmentation_targets(labels, 3, epsilon, off, 3), plain)

    @pytest.mark.parametrize("sigma", [None, 0.8])
    def test_epsilon_checked_on_every_call(self, sigma):
        labels = np.zeros((2, 2, 3), dtype=np.int64)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="smoothing factor"):
                segmentation_targets(labels, 3, epsilon=bad, sigma=sigma)

    def test_rejects_non_integer_and_out_of_range_labels(self):
        with pytest.raises(ValueError, match="integers"):
            one_hot_maps(np.full((2, 2), 1.5), 3)
        with pytest.raises(ValueError, match="out of range"):
            one_hot_maps(np.array([[[0, 3]]]), 3)
        with pytest.raises(ValueError, match="2-D"):
            one_hot_maps(np.array([0, 1]), 3)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)),
    num_classes=st.integers(2, 5),
    epsilon=st.floats(0.0, 0.999),
    sigma=st.one_of(st.none(), st.floats(0.05, 3.0)),
    k=st.sampled_from([1, 3, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_targets_are_distributions(shape, num_classes, epsilon, sigma, k, seed):
    labels = np.random.default_rng(seed).integers(0, num_classes, size=shape)
    out = segmentation_targets(labels, num_classes, epsilon, sigma, k)
    assert out.shape == shape + (num_classes,)
    assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)
    # the normalized kernel may sum to 1 plus a few ulps, so a blurred 1.0 can too
    assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
