import numpy as np
import pytest

from pcbls.numerics import conv2d_same, gaussian_kernel2d, log_softmax, softmax, softmax_log_softmax

from conftest import ref_conv2d_replicate, ref_conv2d_same, ref_gaussian_kernel


class TestGaussianKernel:
    def test_single_cell_is_one(self):
        for sigma in (0.1, 1.0, 5.0):
            assert np.array_equal(gaussian_kernel2d(1, sigma), [[1.0]])

    def test_k3_sigma1_values(self):
        k = gaussian_kernel2d(3, 1.0)
        assert k[1, 1] == pytest.approx(0.20418, abs=1e-4)
        assert k[0, 1] == pytest.approx(0.12384, abs=1e-4)
        assert k[0, 0] == pytest.approx(0.07511, abs=1e-4)

    def test_near_delta(self):
        k = gaussian_kernel2d(3, 0.05)
        assert k[1, 1] >= 1.0 - 1e-12
        off = k.copy()
        off[1, 1] = 0.0
        assert off.max() <= 1e-12

    def test_matches_reference(self, rng):
        for _ in range(20):
            size = int(rng.choice([1, 3, 5, 7]))
            sigma = float(rng.uniform(0.2, 3.0))
            got = gaussian_kernel2d(size, sigma)
            assert np.allclose(got, ref_gaussian_kernel(size, sigma), atol=1e-15)

    def test_sums_to_one(self):
        for size in (1, 3, 5, 9):
            assert gaussian_kernel2d(size, 0.8).sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        k = gaussian_kernel2d(5, 1.3)
        assert np.array_equal(k, k[::-1, :])
        assert np.array_equal(k, k[:, ::-1])
        assert np.array_equal(k, k.T)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gaussian_kernel2d(2, 1.0)
        with pytest.raises(ValueError):
            gaussian_kernel2d(3, 0.0)
        with pytest.raises(ValueError):
            gaussian_kernel2d(3, -1.0)


class TestConv2dSame:
    def test_identity_kernel(self, rng):
        m = rng.normal(size=(4, 6))
        assert np.array_equal(conv2d_same(m, np.array([[1.0]])), m)

    def test_constant_map_preserved(self):
        m = np.full((5, 5), 0.7)
        out = conv2d_same(m, gaussian_kernel2d(3, 1.0))
        assert np.allclose(out, 0.7, atol=1e-12)

    def test_matches_triple_loop_reference(self, rng):
        kernel = gaussian_kernel2d(3, 1.0)
        m = rng.normal(size=(5, 5))
        assert np.allclose(conv2d_same(m, kernel), ref_conv2d_replicate(m, kernel), atol=1e-12)

    def test_reference_on_many_shapes(self, rng):
        for _ in range(30):
            h, w = rng.integers(1, 9, size=2)
            size = int(rng.choice([1, 3, 5]))
            kernel = gaussian_kernel2d(size, float(rng.uniform(0.3, 2.0)))
            m = rng.normal(size=(h, w))
            assert np.allclose(
                conv2d_same(m, kernel), ref_conv2d_replicate(m, kernel), atol=1e-12
            )

    def test_channel_sum_preserved(self, rng):
        # stack of channel maps summing to 1 per pixel stays normalized
        kernel = gaussian_kernel2d(5, 0.9)
        raw = rng.uniform(0.1, 1.0, size=(4, 6, 6))
        stack = raw / raw.sum(axis=0, keepdims=True)
        out = np.stack([conv2d_same(stack[c], kernel) for c in range(4)])
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-9)

    def test_single_map_equals_shift_add_oracle(self, rng):
        m = rng.normal(size=(6, 9))
        kernel = rng.uniform(size=(5, 5))
        assert np.array_equal(conv2d_same(m, kernel), ref_conv2d_same(m, kernel))

    def test_batched_maps_one_kernel(self, rng):
        maps = rng.normal(size=(2, 3, 5, 6))
        kernel = gaussian_kernel2d(3, 0.8)
        out = conv2d_same(maps, kernel)
        assert out.shape == maps.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], ref_conv2d_same(maps[idx], kernel))

    def test_per_map_kernels(self, rng):
        maps = rng.normal(size=(4, 2, 1, 7))
        kernels = rng.uniform(size=(4, 1, 5, 5))  # one kernel per image, shared by its channels
        out = conv2d_same(maps, kernels)
        assert out.shape == maps.shape
        for n, c in np.ndindex(4, 2):
            assert np.array_equal(out[n, c], ref_conv2d_same(maps[n, c], kernels[n, 0]))
        own = rng.uniform(size=(4, 2, 3, 3))  # one kernel per map
        out = conv2d_same(maps, own)
        for n, c in np.ndindex(4, 2):
            assert np.array_equal(out[n, c], ref_conv2d_same(maps[n, c], own[n, c]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            conv2d_same(np.zeros(3), np.array([[1.0]]))
        with pytest.raises(ValueError):
            conv2d_same(np.zeros((3, 3)), np.ones((2, 2)) / 4)


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_two_class_value(self):
        out = softmax(np.array([2.0, 0.0]))
        assert out[0] == pytest.approx(0.88080, abs=1e-5)
        assert out[1] == pytest.approx(0.11920, abs=1e-5)

    def test_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one_and_positive(self, rng):
        logits = rng.normal(scale=10, size=(8, 5))
        out = softmax(logits, axis=1)
        assert (out > 0).all()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 6))
        shifted = logits + rng.normal() * np.ones((3, 1))
        assert np.allclose(softmax(logits, axis=1), softmax(shifted, axis=1), atol=1e-12)

    def test_log_softmax_consistent(self, rng):
        logits = rng.normal(scale=5, size=(4, 7))
        assert np.allclose(np.exp(log_softmax(logits)), softmax(logits), atol=1e-12)

    @pytest.mark.parametrize("shape", [(9, 5), (2, 4, 3, 6)])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_pair_equals_separate_functions(self, rng, shape, scale):
        logits = rng.uniform(-scale, scale, size=shape)
        before = logits.copy()
        probs, logp = softmax_log_softmax(logits)
        assert np.array_equal(probs, softmax(logits, axis=-1))
        assert np.array_equal(logp, log_softmax(logits, axis=-1))
        assert np.array_equal(logits, before)
