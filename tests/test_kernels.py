"""The numba glass-blur swap kernel and its numpy fallback must agree."""

import numpy as np
import pytest

from pcbls import _kernels


requires_numba = pytest.mark.skipif(
    not _kernels.USE_NUMBA, reason="numba unavailable"
)


@requires_numba
class TestPathEquivalence:
    def test_glass_swaps(self, rng):
        img = rng.uniform(size=(7, 6, 3))
        offsets = rng.integers(-2, 3, size=(2, 7, 6, 2)).astype(np.int64)
        a = _kernels.glass_swaps(img, offsets)
        b = _kernels.glass_swaps_np(img[:, :, :], offsets)
        assert np.array_equal(a, b)


class TestFallbackAlwaysAvailable:
    def test_glass_swaps_preserves_multiset(self, rng):
        img = rng.uniform(size=(5, 5, 1))
        offsets = rng.integers(-1, 2, size=(3, 5, 5, 2)).astype(np.int64)
        out = _kernels.glass_swaps_np(img, offsets)
        assert np.allclose(np.sort(out.ravel()), np.sort(img.ravel()))
