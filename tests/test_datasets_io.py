import hashlib
import os

import numpy as np
import pytest

from pcbls.datasets import (
    CIFAR_RECORD,
    LabeledDataset,
    as_images,
    gen_blobs,
    gen_multilabel,
    gen_shapes_seg,
    load_cifar10,
    load_image_dataset,
    save_image_dataset,
    split_dataset,
)
from pcbls.fileio import (
    FormatError,
    load_bank,
    load_checkpoint,
    load_image,
    load_pixel_bank,
    save_bank,
    save_checkpoint,
    save_image,
    save_pixel_bank,
)
from pcbls.models import ModelSpec, init_params
from pcbls.pacing import SampleBank


class TestGenerators:
    def test_blobs_counts_and_ranges(self):
        ds = gen_blobs(8, 125, dim=16, seed=3)
        assert len(ds) == 1000
        assert ds.inputs.shape == (1000, 16)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert ds.targets.min() >= 0 and ds.targets.max() < 8

    def test_blobs_separable_when_tight(self):
        # tiny spread, no label noise: nearest-center classification is perfect
        ds = gen_blobs(4, 50, dim=8, spread=0.001, label_noise_rate=0.0, seed=1)
        centers = np.stack([ds.inputs[ds.targets == c].mean(axis=0) for c in range(4)])
        d = ((ds.inputs[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert (np.argmin(d, axis=1) == ds.targets).all()

    def test_blobs_label_noise_rate(self):
        ds = gen_blobs(8, 125, label_noise_rate=0.2, seed=9)
        flipped = (ds.targets != ds.meta["true_targets"]).mean()
        assert flipped == pytest.approx(0.2, abs=0.01)

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "65c26f8fe0a37459e05cc8c593a150fedcb2dc93517b019da4793f87eee1c1f8"),
            (2, "af478527debd2f21805604bb564728b05bf5e231b9df1459bd2543ac8ec8ff77"),
        ],
    )
    def test_blobs_bytes_match_their_golden_digest(self, seed, digest):
        # the default blobs shape; a rewrite of the generator must keep
        # every byte of the points, the labels and the true labels
        ds = gen_blobs(8, 125, 16, 0.06, 0.2, seed=seed, split="train")
        h = hashlib.sha256()
        for a in (ds.inputs, ds.targets, ds.meta["true_targets"]):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_blobs_replay(self):
        a = gen_blobs(5, 20, seed=7)
        b = gen_blobs(5, 20, seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        c = gen_blobs(5, 20, seed=8)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_blobs_train_val_share_centers(self):
        tr = gen_blobs(4, 100, seed=5, split="train")
        va = gen_blobs(4, 30, seed=5, split="val")
        assert not np.array_equal(tr.inputs[:30], va.inputs[:30])
        for c in range(4):
            assert np.allclose(
                tr.inputs[tr.meta["true_targets"] == c].mean(axis=0),
                va.inputs[va.meta["true_targets"] == c].mean(axis=0),
                atol=0.05,
            )

    def test_multilabel_all_negative_guarantee(self):
        ds = gen_multilabel(8, 50, seed=2)
        row_sums = ds.targets.sum(axis=1)
        assert (row_sums == 0).any()
        assert row_sums.min() >= 0 and row_sums.max() <= 8

    def test_multilabel_replay(self):
        a = gen_multilabel(6, 40, seed=3)
        b = gen_multilabel(6, 40, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_shapes_empty_frames_and_ranges(self):
        ds = gen_shapes_seg(24, 24, 3, 20, seed=4)
        assert ds.inputs.shape == (20, 24, 24, 3)
        assert ds.targets.max() <= 3
        empties = [i for i in range(20) if (ds.targets[i] == 0).all()]
        assert len(empties) >= 1

    def test_shapes_replay(self):
        a = gen_shapes_seg(16, 16, 2, 8, seed=1)
        b = gen_shapes_seg(16, 16, 2, 8, seed=1)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen_blobs(1, 10)
        with pytest.raises(ValueError):
            gen_shapes_seg(8, 8, 2, 5)
        with pytest.raises(ValueError):
            gen_multilabel(1, 10)


class TestSplit:
    def test_disjoint_exhaustive(self):
        ds = gen_blobs(4, 50, seed=0)
        train, val = split_dataset(ds, 0.25, seed=11)
        assert len(train) + len(val) == len(ds)
        all_rows = np.vstack([train.inputs, val.inputs])
        assert np.array_equal(np.sort(all_rows, axis=0), np.sort(ds.inputs, axis=0))
        assert train.split == "train" and val.split == "val"


def _cifar_fixture_bytes():
    """One crafted record: label 7 then the 0..255 repeating byte pattern."""
    pattern = (np.arange(CIFAR_RECORD - 1) % 256).astype(np.uint8)
    return bytes([7]) + pattern.tobytes()


class TestCifar10:
    def test_crafted_record_round_trip(self, tmp_path):
        raw = _cifar_fixture_bytes()
        p = tmp_path / "batch.bin"
        p.write_bytes(raw)
        ds = load_cifar10(p)
        assert len(ds) == 1
        assert ds.targets[0] == 7
        # first pixel byte is byte 0 of the red plane
        assert ds.inputs[0, 0, 0, 0] == pytest.approx(0.0 / 255.0)
        assert ds.inputs[0, 0, 1, 0] == pytest.approx(1.0 / 255.0)
        # green plane starts 1024 bytes in: value (1024 % 256) = 0
        assert ds.inputs[0, 0, 0, 1] == pytest.approx((1024 % 256) / 255.0)
        # round-trip: regenerate the record from the parsed tensor
        rec = np.concatenate(
            [
                np.array([ds.targets[0]], dtype=np.uint8),
                np.rint(ds.inputs[0].transpose(2, 0, 1).ravel() * 255).astype(np.uint8),
            ]
        )
        assert rec.tobytes() == raw

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        assert len(load_cifar10(p)) == 0

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * (CIFAR_RECORD - 1))
        with pytest.raises(FormatError):
            load_cifar10(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes([10]) + b"\x00" * (CIFAR_RECORD - 1))
        with pytest.raises(FormatError):
            load_cifar10(p)

    def test_directory_of_batches(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(_cifar_fixture_bytes())
        (tmp_path / "data_batch_2.bin").write_bytes(_cifar_fixture_bytes() * 2)
        ds = load_cifar10(tmp_path)
        assert len(ds) == 3


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        spec = ModelSpec("mlp", (6, 4, 3))
        params = init_params(spec, 42)
        p = tmp_path / "model.pckpt"
        save_checkpoint(p, spec, params, epoch=17)
        spec2, params2, epoch = load_checkpoint(p)
        assert spec2 == spec
        assert epoch == 17
        assert params2.tobytes() == params.tobytes()
        save_checkpoint(tmp_path / "again.pckpt", spec2, params2, epoch)
        assert (tmp_path / "again.pckpt").read_bytes() == p.read_bytes()

    def test_all_architectures(self, tmp_path):
        for spec in (
            ModelSpec("linear_softmax", (5, 2)),
            ModelSpec("mlp", (5, 3, 2)),
            ModelSpec("tiny_fcn", (3, 4, 4, 2)),
        ):
            p = tmp_path / f"{spec.architecture}.pckpt"
            save_checkpoint(p, spec, init_params(spec, 0), 3)
            got, _, _ = load_checkpoint(p)
            assert got == spec

    def test_magic_corruption_rejected(self, tmp_path):
        spec = ModelSpec("linear_softmax", (4, 2))
        p = tmp_path / "model.pckpt"
        save_checkpoint(p, spec, init_params(spec, 0), 0)
        raw = bytearray(p.read_bytes())
        for i in range(6):
            broken = bytearray(raw)
            broken[i] ^= 0xFF
            q = tmp_path / f"broken{i}.pckpt"
            q.write_bytes(bytes(broken))
            with pytest.raises(FormatError):
                load_checkpoint(q)

    def test_truncation_rejected(self, tmp_path):
        spec = ModelSpec("linear_softmax", (4, 2))
        p = tmp_path / "model.pckpt"
        save_checkpoint(p, spec, init_params(spec, 0), 0)
        (tmp_path / "short.pckpt").write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "short.pckpt")


class TestBanks:
    def test_csv_round_trip(self, tmp_path):
        bank = SampleBank(
            sample_ids=np.array([5, 1, 9], dtype=np.int64),
            scores=np.array([0.987654321, 0.5, 0.123456789]),
            source="temperature_scaled",
        )
        p = tmp_path / "bank.csv"
        save_bank(p, bank)
        text = p.read_text().splitlines()
        assert text[0] == "sample_id,score,source"
        assert text[1] == "5,0.987654321,temperature_scaled"
        back = load_bank(p)
        assert np.array_equal(back.sample_ids, bank.sample_ids)
        assert np.allclose(back.scores, bank.scores, atol=1e-9)
        assert back.source == "temperature_scaled"

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bank.csv"
        p.write_text("id,conf\n1,0.5\n")
        with pytest.raises(FormatError):
            load_bank(p)

    def test_pixel_bank_round_trip(self, tmp_path, rng):
        maps = [rng.uniform(size=(4, 6)).astype(np.float32) for _ in range(3)]
        save_pixel_bank(tmp_path / "pix", maps)
        back = load_pixel_bank(tmp_path / "pix")
        assert len(back) == 3
        for a, b in zip(maps, back):
            assert np.array_equal(a, b)

    def test_pixel_bank_directory_holds_the_sidecars_only(self, tmp_path, rng):
        save_pixel_bank(tmp_path / "pix", rng.uniform(size=(3, 2, 2)).astype(np.float32))
        assert sorted(os.listdir(tmp_path / "pix")) == ["000000.pcbl", "000001.pcbl", "000002.pcbl"]

    def test_pixel_bank_magic_corruption(self, tmp_path, rng):
        save_pixel_bank(tmp_path / "pix", [rng.uniform(size=(2, 2)).astype(np.float32)])
        f = next((tmp_path / "pix").glob("*.pcbl"))
        pristine = f.read_bytes()
        for i in range(4):
            raw = bytearray(pristine)
            raw[i] ^= 0xFF
            f.write_bytes(bytes(raw))
            with pytest.raises(FormatError):
                load_pixel_bank(tmp_path / "pix")


class TestImages:
    def test_rgb_round_trip(self, tmp_path, rng):
        img = np.rint(rng.uniform(size=(5, 7, 3)) * 255) / 255.0
        p = tmp_path / "img.ppm"
        save_image(p, img)
        back = load_image(p)
        assert np.allclose(back, img, atol=1e-12)

    def test_gray_round_trip(self, tmp_path, rng):
        img = np.rint(rng.uniform(size=(3, 9)) * 255) / 255.0
        p = tmp_path / "img.pgm"
        save_image(p, img)
        assert np.allclose(load_image(p), img, atol=1e-12)

    def test_magic_corruption(self, tmp_path, rng):
        p = tmp_path / "img.pgm"
        save_image(p, rng.uniform(size=(3, 3)))
        pristine = p.read_bytes()
        for i in range(2):
            raw = bytearray(pristine)
            raw[i] ^= 0xFF
            p.write_bytes(bytes(raw))
            with pytest.raises(FormatError):
                load_image(p)

    def test_image_dataset_dir_round_trip(self, tmp_path):
        ds = gen_blobs(3, 10, dim=8, seed=0)
        save_image_dataset(ds, tmp_path / "data")
        back = load_image_dataset(tmp_path / "data")
        assert len(back) == len(ds)
        assert np.array_equal(back.targets, ds.targets)
        # quantized to 1/255 on disk
        assert np.allclose(back.inputs.reshape(len(ds), -1), ds.inputs, atol=0.5 / 255)

    def test_rgb_image_dataset_dir_round_trip(self, tmp_path, rng):
        ds = LabeledDataset("multiclass", rng.uniform(size=(5, 4, 6, 3)), rng.integers(0, 3, size=5), 3)
        save_image_dataset(ds, tmp_path / "data")
        # each file holds the bytes save_image writes for its image alone
        save_image(tmp_path / "alone.ppm", ds.inputs[3])
        assert (tmp_path / "data" / "000003.ppm").read_bytes() == (tmp_path / "alone.ppm").read_bytes()
        back = load_image_dataset(tmp_path / "data")
        assert back.inputs.shape == (5, 4, 6, 3)
        assert np.array_equal(back.inputs, np.rint(ds.inputs * 255) / 255)
        assert np.array_equal(back.targets, ds.targets)

    def test_image_dataset_dir_holds_the_images_and_index_files_only(self, tmp_path):
        save_image_dataset(gen_blobs(2, 10, dim=4, seed=0), tmp_path / "data")
        images = [f"{i:06d}.pgm" for i in range(20)]
        assert sorted(os.listdir(tmp_path / "data")) == sorted(images + ["labels.csv", "meta.json"])

    def test_image_dataset_dir_of_mixed_shapes_names_the_file(self, tmp_path, rng):
        save_image_dataset(gen_blobs(3, 10, dim=8, seed=0), tmp_path / "data")
        save_image(tmp_path / "data" / "000002.pgm", rng.uniform(size=(4, 2)))
        with pytest.raises(FormatError) as e:
            load_image_dataset(tmp_path / "data")
        message = str(e.value)
        assert "000002.pgm" in message and "labels.csv line 4" in message
        assert "(4, 2)" in message and "(1, 8)" in message

    def test_as_images_makes_vectors_one_row_images(self, rng):
        vectors = rng.uniform(size=(3, 7))
        assert np.array_equal(as_images(vectors), vectors.reshape(3, 1, 7))
        for shape in [(3, 4, 5), (3, 4, 5, 3)]:
            stack = rng.uniform(size=shape)
            assert as_images(stack) is stack
