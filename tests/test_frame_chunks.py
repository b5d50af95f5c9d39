"""Whole-set image passes in frame chunks: the tiny-FCN forward, the
segmentation soft targets and the pixel-bank scores equal one whole-stack
computation byte for byte, the segmentation sample bank equals a per-frame
oracle, and the memory they hold beyond their output does not grow with
the number of frames."""

import tracemalloc

import numpy as np
import pytest

from pcbls import fileio, models, pacing, soft_labels, trainer
from pcbls.calibration import apply_temperature
from pcbls.datasets import gen_shapes_seg
from pcbls.models import ModelSpec
from pcbls.numerics import CHUNK_PIXELS, frame_chunks, softmax

from conftest import ref_bank_segmentation

FCN = ModelSpec("tiny_fcn", (3, 5, 6, 4))
K = FCN.dims[-1]
# frames a chunk: 16 on 16x16 maps, 17 on 12x20, and 1 on 72x64, whose
# 4 608 pixels are over the budget
MAP_SHAPES = [(16, 16), (12, 20), (72, 64)]


def _per_chunk(h, w):
    return max(1, CHUNK_PIXELS // (h * w))


def _cases():
    for h, w in MAP_SHAPES:
        c = _per_chunk(h, w)
        for n in sorted({n for n in (1, c - 1, c, c + 1, 3 * c + 1) if n > 0}):
            yield h, w, n


CASES = list(_cases())


def _batch(n, h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, h, w, FCN.dims[0])), rng.integers(0, K, size=(n, h, w))


def _whole_logits(spec, params, x):
    return models._logits(spec, models.unpack(spec, params), x)[0]


def test_chunk_sizes():
    assert [_per_chunk(h, w) for h, w in MAP_SHAPES] == [16, 17, 1]
    for h, w, n in CASES:
        chunks = frame_chunks(n, h, w)
        assert [s.start for s in chunks] == list(range(0, n, _per_chunk(h, w)))
        assert chunks[-1].stop == n and all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("h, w, n", CASES)
def test_forward_equals_one_whole_stack_pass(h, w, n):
    params = models.init_params(FCN, 3)
    x, _ = _batch(n, h, w)
    got = models.forward(FCN, params, x)
    assert got.shape == (n, h, w, K)
    assert got.tobytes() == _whole_logits(FCN, params, x).tobytes()


@pytest.mark.parametrize("eps, sigma", [(0.0, None), (0.3, None), (0.0, 0.8), (0.2, 1.5)])
@pytest.mark.parametrize("h, w, n", CASES)
def test_segmentation_targets_equal_one_whole_stack_build(h, w, n, eps, sigma):
    _, labels = _batch(n, h, w)
    cfg = trainer.TrainConfig("segmentation", FCN, 1)
    got = trainer.TASKS["segmentation"].soft_targets(cfg, labels, K, eps, sigma)
    want = soft_labels.segmentation_targets(labels, K, epsilon=eps, sigma=sigma, k=cfg.svls_kernel)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h, w, n", CASES)
def test_pixel_bank_equals_one_whole_stack_softmax(h, w, n):
    params = models.init_params(FCN, 4)
    x, labels = _batch(n, h, w)
    got = trainer.score_pixel_bank(FCN, params, x, labels)
    want = pacing.build_pixel_bank(softmax(_whole_logits(FCN, params, x), axis=-1), labels).astype(np.float32)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant, temperature", [("plain", 1.0), ("ts", 2.5)])
@pytest.mark.parametrize("h, w, n", CASES)
def test_sample_bank_equals_the_per_frame_oracle(tmp_path, h, w, n, variant, temperature):
    params = models.init_params(FCN, 4)
    x, labels = _batch(n, h, w)
    labels[0] = 0  # a frame with no foreground
    got = trainer.score_training_set(FCN, "segmentation", params, x, labels, variant, temperature)
    probs = apply_temperature(_whole_logits(FCN, params, x), temperature)
    want = ref_bank_segmentation(probs, labels, source=got.source)
    assert got.sample_ids.tolist() == want.sample_ids.tolist()
    # one reduction over the stack sums in another order than each frame alone
    assert np.abs(got.scores - want.scores).max() <= 4e-16
    assert got.scores[got.sample_ids == 0].tolist() == [0.0]
    fileio.save_bank(tmp_path / "got.csv", got)
    fileio.save_bank(tmp_path / "want.csv", want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("bank", ["pixel", "sample"])
@pytest.mark.parametrize("count", [19, 21])
def test_banks_refuse_label_maps_of_another_count(count, bank):
    # the chunks follow the label maps, so fewer of them must not pass as a smaller bank
    params = models.init_params(FCN, 4)
    x, labels = _batch(20, 16, 16)
    labels = np.concatenate([labels, labels])[:count]
    with pytest.raises(ValueError, match=rf"prob maps \(20, 16, 16, 4\) vs label maps \({count}, 16, 16\)"):
        if bank == "pixel":
            trainer.score_pixel_bank(FCN, params, x, labels)
        else:
            trainer.score_training_set(FCN, "segmentation", params, x, labels)


@pytest.mark.parametrize("spec", [ModelSpec("mlp", (32, 16, 8)), ModelSpec("linear_softmax", (32, 8))])
def test_dense_forward_is_one_call(spec):
    # a GEMM's last bits can depend on its row count, so dense models never chunk
    params = models.init_params(spec, 5)
    x = np.random.default_rng(5).normal(size=(1000, 32))
    assert models.forward(spec, params, x).tobytes() == _whole_logits(spec, params, x).tobytes()


def _peak(fn):
    """fn()'s result, and the peak bytes traced during it beyond those traced before."""
    fn()  # warm-up, so first-call allocations are not counted
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak - base


def _temporaries(fn):
    """Peak bytes traced during fn() beyond the array it returns."""
    out, peak = _peak(fn)
    return peak - out.nbytes


@pytest.mark.parametrize("stage", ["forward", "targets"])
def test_temporaries_do_not_grow_with_the_frame_count(stage):
    c = _per_chunk(32, 32)
    params = models.init_params(FCN, 6)
    cfg = trainer.TrainConfig("segmentation", FCN, 1)

    def temporaries(n):
        x, labels = _batch(n, 32, 32)
        if stage == "forward":
            return _temporaries(lambda: models.forward(FCN, params, x))
        return _temporaries(lambda: trainer.TASKS["segmentation"].soft_targets(cfg, labels, K, 0.1, 1.0))

    one, four = temporaries(c), temporaries(4 * c)
    assert four <= 1.25 * one, f"{four} bytes on {4 * c} frames against {one} on {c}"


def test_sample_bank_never_holds_the_whole_set_probabilities():
    # the (N,H,W,K) logits are the one whole-set array of the pass: the
    # probabilities and the gather go one frame chunk at a time
    ds = gen_shapes_seg(24, 24, 3, 240, seed=0, split="train")
    spec = ModelSpec("tiny_fcn", (3, 8, 8, 4))
    params = models.init_params(spec, 0)
    logits_nbytes = 240 * 24 * 24 * 4 * 8
    _, peak = _peak(lambda: trainer.score_training_set(spec, "segmentation", params, ds.inputs, ds.targets))
    assert peak < 2 * logits_nbytes, f"peak {peak} bytes against {logits_nbytes} bytes of logits"
