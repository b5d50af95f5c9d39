import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbls.corruption import (
    DOMAINS,
    DRAWING_KINDS,
    KINDS,
    SEVERITY_TABLE,
    _kind_seed,
    _line_kernel,
    corrupt_batch,
    corrupt_dataset,
    robustness_report,
)
from pcbls.datasets import as_images, gen_blobs, gen_shapes_seg
from pcbls.fileio import load_csv, load_image
from pcbls.seeding import fold_seed

from conftest import ref_corrupt_dataset, ref_corrupt_with_params, ref_line_kernel

IDENTITY_PARAMS = {
    "gaussian_noise": 0.0,
    "shot_noise": np.inf,
    "impulse_noise": 0.0,
    "defocus_blur": 0,
    "glass_blur": (0, 0),
    "motion_blur": 1,
    "zoom_blur": (1, 1.0),
    "fog": 0.0,
    "brightness": 0.0,
    "contrast": 1.0,
    "pixelate": 1,
    "jpeg_like": 0.0,
}

# direction in which each kind's leading parameter strengthens
_INCREASING = {
    "gaussian_noise", "impulse_noise", "defocus_blur", "motion_blur",
    "fog", "brightness", "pixelate", "jpeg_like",
}


def _strength_key(kind, params):
    if kind == "glass_blur":
        return params[0] * params[1]
    if kind == "zoom_blur":
        return params[1]
    return params


class TestSeverityTable:
    def test_every_kind_has_five_rows(self):
        assert set(SEVERITY_TABLE) == set(KINDS)
        for rows in SEVERITY_TABLE.values():
            assert len(rows) == 5

    def test_strictly_monotone_strength(self):
        for kind, rows in SEVERITY_TABLE.items():
            keys = [_strength_key(kind, p) for p in rows]
            if kind in _INCREASING or kind in ("glass_blur", "zoom_blur"):
                assert all(a < b for a, b in zip(keys, keys[1:])), kind
            else:
                assert all(a > b for a, b in zip(keys, keys[1:])), kind

    # the validation stacks the benchmark corrupts: 80 blob rows of 1x32 and
    # 20 shapes frames of 16x16x3
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dataset", ["blobs", "shapes"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_set_mean_change_does_not_fall_with_severity(self, kind, dataset, seed):
        # one image's mean |corrupt - clean| can fall (see the module
        # docstring); the mean over a validation set must not
        if dataset == "blobs":
            clean = as_images(gen_blobs(8, 10, dim=32, spread=0.35, seed=seed, split="val").inputs)[..., None]
        else:
            clean = gen_shapes_seg(16, 16, 3, 20, seed=seed, split="val").inputs
        means = []
        for severity, params in enumerate(SEVERITY_TABLE[kind], start=1):
            key = _kind_seed(seed, kind, severity)
            rngs = [np.random.default_rng(fold_seed(key, i)) for i in range(len(clean))]
            means.append(np.abs(corrupt_batch(clean, kind, params, rngs) - clean).mean())
        assert all(a <= b for a, b in zip(means, means[1:])), means


class TestDomains:
    def test_spatial_kinds(self):
        spatial = {kind for kind, domain in DOMAINS.items() if domain == "spatial"}
        assert spatial == {"defocus_blur", "glass_blur", "motion_blur", "zoom_blur", "pixelate", "jpeg_like"}
        assert set(DOMAINS.values()) == {"pointwise", "spatial"}

    @pytest.mark.parametrize("kind", sorted(set(KINDS) - DRAWING_KINDS))
    def test_a_drawless_kind_commutes_with_a_pixel_permutation_when_pointwise(self, rng, kind):
        img = rng.uniform(size=(1, 16, 16, 1))
        perm = rng.permutation(16 * 16)
        shuffled = img.reshape(1, -1, 1)[:, perm].reshape(img.shape)
        params = SEVERITY_TABLE[kind][2]
        out = corrupt_batch(img, kind, params, [None]).reshape(1, -1, 1)[:, perm].reshape(img.shape)
        commutes = np.allclose(out, corrupt_batch(shuffled, kind, params, [None]), atol=1e-12)
        assert commutes == (DOMAINS[kind] == "pointwise")


class TestCorrupt:
    def test_identity_parameters(self, rng):
        img = rng.uniform(size=(12, 14, 3))
        for kind in KINDS:
            out = corrupt_batch(img[None], kind, IDENTITY_PARAMS[kind], [np.random.default_rng(0)])
            assert np.allclose(out[0], img, atol=1e-9), kind

    def test_deterministic(self, rng):
        imgs = rng.uniform(size=(1, 10, 10, 3))
        for kind in KINDS:
            params = SEVERITY_TABLE[kind][2]
            once = corrupt_batch(imgs, kind, params, [np.random.default_rng(99)])
            assert np.array_equal(once, corrupt_batch(imgs, kind, params, [np.random.default_rng(99)])), kind

    def test_outputs_clipped(self, rng):
        imgs = rng.uniform(size=(1, 8, 8, 3))
        for kind in KINDS:
            for severity in (1, 5):
                out = corrupt_batch(imgs, kind, SEVERITY_TABLE[kind][severity - 1], [np.random.default_rng(1)])
                assert out.min() >= 0.0 and out.max() <= 1.0, kind
                assert out.shape == imgs.shape

    def test_gaussian_noise_statistics(self):
        imgs = np.full((1, 64, 64, 1), 0.5)
        out = corrupt_batch(imgs, "gaussian_noise", SEVERITY_TABLE["gaussian_noise"][0], [np.random.default_rng(5)])
        noise = out - 0.5
        assert abs(noise.mean()) < 0.01
        assert abs(noise.std() - SEVERITY_TABLE["gaussian_noise"][0]) < 0.01

    def test_pixelate_blocks(self, rng):
        img = rng.uniform(size=(16, 16, 3))
        factor = SEVERITY_TABLE["pixelate"][4]
        out = corrupt_batch(img[None], "pixelate", factor, [np.random.default_rng(0)])[0]
        assert factor == 8
        for by in range(0, 16, factor):
            for bx in range(0, 16, factor):
                block = out[by : by + factor, bx : bx + factor]
                assert np.allclose(block, block[0, 0], atol=1e-12)

    def test_noise_magnitude_monotone_over_seeds(self):
        # 100 copies of one flat image, copy s drawing from seed s
        imgs = np.full((100, 16, 16, 1), 0.5)
        for kind in ("gaussian_noise", "shot_noise", "impulse_noise"):
            mags = []
            for params in SEVERITY_TABLE[kind]:
                out = corrupt_batch(imgs, kind, params, [np.random.default_rng(s) for s in range(100)])
                mags.append(np.abs(out - imgs).mean(axis=(1, 2, 3)).mean())
            assert all(a < b for a, b in zip(mags, mags[1:])), (kind, mags)


class TestCorruptDataset:
    def test_empty_kinds(self, tmp_path, rng):
        rows = corrupt_dataset(rng.uniform(size=(1, 6, 6)), [], [1], 0, tmp_path)
        assert rows == []

    @pytest.mark.parametrize(
        "kinds, severities, problem",
        [
            (["fog"], [0], "severity 0 outside 1..5"),
            (["fog"], [1, 6], "severity 6 outside 1..5"),
            (["fog", "contrast", "fog"], [1], "kinds lists 'fog' more than once"),
            (["fog"], [2, 3, 2], "severities lists 2 more than once"),
            (["fog", "sleet"], [1], "unknown corruption kind 'sleet'"),
        ],
    )
    def test_bad_plan_is_refused_before_any_file(self, tmp_path, rng, kinds, severities, problem):
        with pytest.raises(ValueError, match=problem):
            corrupt_dataset(rng.uniform(size=(2, 4, 4)), kinds, severities, 0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_directory_holds_the_manifest_files_only(self, tmp_path, rng):
        rows = corrupt_dataset(rng.uniform(size=(3, 5, 4)), ["fog", "pixelate"], [1, 4], 0, tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted([path for *_, path in rows] + ["manifest.csv"])

    def test_row_counting(self, tmp_path, rng):
        images = rng.uniform(size=(2, 6, 6, 3))
        rows = corrupt_dataset(images, ["fog", "brightness", "contrast"], [1, 2, 3, 4, 5], 0, tmp_path)
        assert len(rows) == 2 * 3 * 5
        header, csv_rows = load_csv(tmp_path / "manifest.csv")
        assert header == ["orig_id", "kind", "severity", "path"]
        assert len(csv_rows) == 30

    def test_replay_byte_identical(self, tmp_path, rng):
        images = rng.uniform(size=(2, 8, 8, 3))
        rows1 = corrupt_dataset(images, ["gaussian_noise", "pixelate"], [1, 3], 42, tmp_path / "a")
        rows2 = corrupt_dataset(images, ["gaussian_noise", "pixelate"], [1, 3], 42, tmp_path / "b")
        assert rows1 == rows2
        for _, _, _, rel in rows1:
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert a == b

    def test_different_base_seed_differs(self, tmp_path, rng):
        images = rng.uniform(size=(1, 8, 8, 3))
        corrupt_dataset(images, ["gaussian_noise"], [3], 1, tmp_path / "a")
        corrupt_dataset(images, ["gaussian_noise"], [3], 2, tmp_path / "b")
        name = "gaussian_noise_s3_000000.ppm"
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()

    def test_written_images_load_in_range(self, tmp_path, rng):
        images = rng.uniform(size=(1, 6, 6, 3))
        rows = corrupt_dataset(images, ["fog"], [2], 7, tmp_path)
        img = load_image(tmp_path / rows[0][3])
        assert img.shape == (6, 6, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_all_kinds_handle_one_row_vectors(self, rng):
        v = rng.uniform(size=(1, 1, 16, 1))
        for kind in KINDS:
            out = corrupt_batch(v, kind, SEVERITY_TABLE[kind][4], [np.random.default_rng(1)])
            assert out.shape == (1, 1, 16, 1)
            assert out.min() >= 0.0 and out.max() <= 1.0


def _assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return names


class TestBatchedMatchesPerImage:
    """One batch per (kind, severity) must give each image the bytes it got
    when corrupted alone by the per-image oracle."""

    @pytest.mark.parametrize("shape", [(1, 32), (5, 7), (4, 4, 3), (9, 16, 3)])
    def test_corrupt_batch_equals_oracle(self, rng, shape):
        images = [rng.uniform(size=shape) for _ in range(3)]
        images[0] = np.round(images[0])  # pixels on the clip bounds
        stack = np.stack([im.reshape(shape[:2] + (-1,)) for im in images])
        for kind in KINDS:
            for params in SEVERITY_TABLE[kind]:
                got = corrupt_batch(stack, kind, params, [np.random.default_rng(s) for s in range(3)])
                for s, im in enumerate(images):
                    want = ref_corrupt_with_params(im, kind, params, np.random.default_rng(s))
                    assert np.array_equal(got[s].reshape(shape), want), (kind, params)

    @pytest.mark.parametrize("shape", [(4, 1, 32), (4, 5, 7), (4, 4, 4, 3)])
    def test_corrupt_dataset_files_equal_oracle_writer(self, tmp_path, rng, shape):
        images = rng.uniform(size=shape)
        severities = [1, 2, 3, 4, 5]
        rows = corrupt_dataset(images, list(KINDS), severities, 123, tmp_path / "new")
        assert rows == ref_corrupt_dataset(list(images), list(KINDS), severities, 123, tmp_path / "ref")
        names = _assert_same_files(tmp_path / "new", tmp_path / "ref")
        assert len(names) == len(KINDS) * len(severities) * len(images) + 1

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from([(1, 8), (4, 5), (3, 3, 3)]),
        n=st.integers(1, 4),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True),
        severities=st.lists(st.integers(1, 5), min_size=1, max_size=2, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_corrupt_dataset_files_equal_oracle_on_random_stacks(self, shape, n, kinds, severities, seed):
        images = np.random.default_rng(seed).uniform(size=(n, *shape))
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            rows = corrupt_dataset(images, kinds, severities, seed, a)
            assert rows == ref_corrupt_dataset(list(images), kinds, severities, seed, b)
            _assert_same_files(a, b)

    @pytest.mark.parametrize("length", range(1, 12))
    def test_line_kernel_equals_oracle(self, length):
        for angle in (0.0, 0.3, np.pi / 4, 1.0, np.pi / 2, 2.2, np.pi - 1e-9):
            assert _line_kernel(length, angle).tobytes() == ref_line_kernel(length, angle).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_only_drawing_kinds_use_their_generators(self, rng, kind):
        # corrupt_dataset builds generators only for DRAWING_KINDS, so a kind
        # outside it must not touch them, and a kind inside it must
        class Untouchable:
            def __getattr__(self, name):
                raise LookupError(f"generator used: {name}")

        stack = rng.uniform(size=(3, 8, 8, 1))
        for params in SEVERITY_TABLE[kind]:
            if kind in DRAWING_KINDS:
                with pytest.raises(LookupError, match="generator used"):
                    corrupt_batch(stack, kind, params, [Untouchable()] * 3)
            else:
                got = corrupt_batch(stack, kind, params, [Untouchable()] * 3)
                want = corrupt_batch(stack, kind, params, [np.random.default_rng(s) for s in range(3)])
                assert got.tobytes() == want.tobytes(), (kind, params)

    def test_batch_rejects_out_of_range_image(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            corrupt_batch(np.full((2, 3, 3, 1), 0.5) + np.eye(3)[None, :, :, None], "fog", 0.1,
                          [np.random.default_rng(0)] * 2)


class TestRobustnessReport:
    def _manifest(self, kinds, n_images):
        rows = []
        for kind in kinds:
            for severity in range(1, 6):
                for i in range(n_images):
                    rows.append((i, kind, severity, f"{kind}_{severity}_{i}"))
        return rows

    def test_constant_model_single_class(self):
        rows = self._manifest(["fog", "contrast"], 4)
        header, table = robustness_report(
            lambda cell: np.zeros(len(cell), dtype=int),
            rows,
            np.zeros(4, dtype=int),
            clean_accuracy=1.0,
        )
        assert header == ["kind", "sev1", "sev2", "sev3", "sev4", "sev5", "mean"]
        assert len(table) == 3  # 2 kinds + clean row
        for row in table[:-1]:
            assert all(cell == "1.000000" for cell in row[1:])

    def test_random_guess_near_chance(self, rng):
        k = 4
        labels = rng.integers(0, k, size=1000)
        rows = self._manifest(["fog"], 1000)
        state = {"i": 0}

        def guess(cell):
            out = np.random.default_rng(state["i"]).integers(0, k, size=len(cell))
            state["i"] += 1
            return out

        _, table = robustness_report(guess, rows, labels, 0.25)
        mean_acc = float(table[0][6])
        assert mean_acc == pytest.approx(1.0 / k, abs=0.03)

    def test_missing_severity_rejected(self):
        rows = [(0, "fog", 1, "x")]
        with pytest.raises(ValueError):
            robustness_report(lambda cell: np.zeros(1, dtype=int), rows, np.zeros(1, dtype=int), 1.0)

    def test_one_row_per_kind(self, rng):
        kinds = ["fog", "brightness", "gaussian_noise"]
        rows = self._manifest(kinds, 3)
        _, table = robustness_report(
            lambda cell: np.zeros(len(cell), dtype=int), rows, np.zeros(3, dtype=int), 1.0
        )
        assert [r[0] for r in table] == sorted(kinds) + ["clean"]
