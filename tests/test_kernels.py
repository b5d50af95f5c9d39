"""The batched glass-blur swaps agree with the per-image oracle and keep every pixel."""

import numpy as np
import pytest

from pcbls import _kernels

from conftest import ref_glass_swaps


class TestFallbackAlwaysAvailable:
    def test_glass_swaps_preserves_multiset(self, rng):
        img = rng.uniform(size=(1, 5, 5, 1))
        offsets = rng.integers(-1, 2, size=(1, 3, 5, 5, 2)).astype(np.int64)
        out = _kernels.glass_swaps(img, offsets)
        assert np.allclose(np.sort(out.ravel()), np.sort(img.ravel()))


@pytest.mark.parametrize("shape, shift", [((5, 6, 3), 2), ((1, 32, 1), 1), ((7, 1, 1), 3)])
def test_batch_equals_per_image_oracle(rng, shape, shift):
    imgs = rng.uniform(size=(4,) + shape)
    offsets = rng.integers(-shift, shift + 1, size=(4, 3) + shape[:2] + (2,)).astype(np.int64)
    before = imgs.copy()
    out = _kernels.glass_swaps(imgs, offsets)
    assert np.array_equal(imgs, before)
    for n in range(4):
        assert np.array_equal(out[n], ref_glass_swaps(imgs[n], offsets[n]))
        assert np.array_equal(np.sort(out[n], axis=None), np.sort(imgs[n], axis=None))
