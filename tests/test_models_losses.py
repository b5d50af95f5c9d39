import hashlib

import numpy as np
import pytest

from pcbls import losses, models
from pcbls.models import ModelSpec, forward, init_params, pack, unpack
from pcbls.numerics import softmax
from pcbls.soft_labels import segmentation_targets, uls, uls_matrix

from conftest import (
    _ref_loss,
    checked_step,
    fd_gradient,
    grad_rel_error,
    ref_backward,
    ref_batched_conv_backward,
    ref_batched_conv_forward,
    ref_fcn_conv_backward,
    ref_fcn_conv_forward,
    ref_forward,
    task_loss,
)


class TestForward:
    def test_zero_params_linear(self):
        spec = ModelSpec("linear_softmax", (3, 4))
        logits = forward(spec, np.zeros(spec.param_count()), np.ones((2, 3)))
        assert np.array_equal(logits, np.zeros((2, 4)))

    def test_identity_weights(self):
        spec = ModelSpec("linear_softmax", (2, 2))
        params = pack([np.eye(2), np.zeros(2)])
        x = np.array([[3.0, -1.0], [0.5, 2.0]])
        assert np.array_equal(forward(spec, params, x), x)

    def test_mlp_golden_logits(self):
        # frozen from the first run at seed 12345
        spec = ModelSpec("mlp", (4, 3, 2))
        params = init_params(spec, 12345)
        x = np.array([[0.1, 0.2, 0.3, 0.4], [1.0, -1.0, 0.5, 0.0]])
        want = np.array(
            [[0.58072981, -0.2437461], [0.31462254, -0.24178697]]
        )
        assert np.allclose(forward(spec, params, x), want, atol=1e-8)

    def test_init_is_deterministic(self):
        spec = ModelSpec("tiny_fcn", (2, 3, 3, 4))
        assert np.array_equal(init_params(spec, 7), init_params(spec, 7))
        assert not np.array_equal(init_params(spec, 7), init_params(spec, 8))

    @pytest.mark.parametrize(
        "arch, dims, digest",
        [
            ("linear_softmax", (5, 3), "3add5fc0f2a69609a16ff8179e11193b6943f4d3f3a8d4920731de73d961f78a"),
            ("mlp", (6, 4, 3), "05615d355f1f6cd9b89d53d5d7bccbc86d806adbff9eab6584941d022cf9bcd0"),
            ("tiny_fcn", (3, 4, 5, 2), "28e59807b9c13d2fd00446876d2243bfa748d062580a56f74c386603fafa4e4f"),
        ],
    )
    def test_init_golden_bytes(self, arch, dims, digest):
        # frozen at seed 7: the reference trainer draws its init through
        # init_params too, so only this catches a moved tensor layout or
        # draw order
        params = init_params(ModelSpec(arch, dims), 7)
        assert hashlib.sha256(params.tobytes()).hexdigest() == digest

    def test_dim_mismatch(self):
        spec = ModelSpec("mlp", (4, 3, 2))
        with pytest.raises(ValueError):
            forward(spec, init_params(spec, 0), np.ones((2, 5)))

    def test_param_count_and_unpack(self):
        spec = ModelSpec("tiny_fcn", (2, 3, 4, 5))
        n = spec.param_count()
        assert n == (3 * 2 * 9 + 3) + (4 * 3 * 9 + 4) + (5 * 4 * 9 + 5)
        tensors = unpack(spec, np.arange(n, dtype=np.float64))
        assert [t.shape for t in tensors] == [
            (3, 2, 3, 3), (3,), (4, 3, 3, 3), (4,), (5, 4, 3, 3), (5,),
        ]
        assert np.array_equal(pack(tensors), np.arange(n, dtype=np.float64))


class TestSoftCe:
    def test_uniform_symmetric(self):
        loss, _ = task_loss("multiclass", np.zeros(4), np.full(4, 0.25))
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_one_hot_is_plain_ce(self, rng):
        logits = rng.normal(size=5)
        target = np.zeros(5)
        target[2] = 1.0
        loss, grad = task_loss("multiclass", logits, target)
        p = softmax(logits)
        assert loss == pytest.approx(-np.log(p[2]), abs=1e-12)
        assert np.allclose(grad, p - target, atol=1e-15)

    def test_gradient_formula(self, rng):
        logits = rng.normal(size=(3, 4))
        targets = uls_matrix(rng.integers(0, 4, 3), 4, 0.3)
        _, grad = task_loss("multiclass", logits, targets)
        assert np.allclose(grad, (softmax(logits, axis=1) - targets) / 3, atol=1e-15)

    def test_logit_gradient_matches_fd(self, rng):
        logits = rng.normal(size=5)
        target = uls(1, 5, 0.4)
        _, grad = task_loss("multiclass", logits, target)
        fd = fd_gradient(lambda z: task_loss("multiclass", z, target)[0], logits.copy())
        assert grad_rel_error(grad, fd) < 1e-6

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            losses.check_soft_ce((3,), np.array([0.5, 0.2, 0.1]))

    def test_uls_decomposition_identity(self, rng):
        # CE against a smoothed target splits into (1-eps) CE(one-hot) + eps CE(uniform)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            y = int(rng.integers(0, k))
            eps = float(rng.uniform(0, 0.999))
            logits = rng.normal(scale=3, size=k)
            smoothed, _ = task_loss("multiclass", logits, uls(y, k, eps))
            onehot = np.zeros(k)
            onehot[y] = 1.0
            hard, _ = task_loss("multiclass", logits, onehot)
            uniform, _ = task_loss("multiclass", logits, np.full(k, 1.0 / k))
            assert smoothed == pytest.approx((1 - eps) * hard + eps * uniform, abs=1e-10)

    def test_gibbs_inequality(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 6))
            target = rng.dirichlet(np.ones(k))
            logits = rng.normal(size=k)
            loss, _ = task_loss("multiclass", logits, target)
            entropy = -(target * np.log(target)).sum()
            assert loss >= entropy - 1e-12
        # equality at the constructed point softmax(logits) == target
        target = np.array([0.5, 0.3, 0.2])
        loss, _ = task_loss("multiclass", np.log(target), target)
        entropy = -(target * np.log(target)).sum()
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_class_permutation_invariance(self, rng):
        logits = rng.normal(size=6)
        target = rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        a, ga = task_loss("multiclass", logits, target)
        b, gb = task_loss("multiclass", logits[perm], target[perm])
        assert a == pytest.approx(b, abs=1e-12)
        assert np.allclose(ga[perm], gb, atol=1e-15)


class TestMaskedPixelCe:
    def test_all_ones_equals_unmasked_mean(self, rng):
        logits = rng.normal(size=(2, 3, 3, 4))
        targets = np.stack(
            [segmentation_targets(rng.integers(0, 4, (3, 3)), 4, epsilon=0.2) for _ in range(2)]
        )
        loss, grad = task_loss("segmentation", logits, targets, np.ones((2, 3, 3)))
        want, wgrad = task_loss("multiclass", logits.reshape(-1, 4), targets.reshape(-1, 4))
        assert loss == pytest.approx(want, abs=1e-12)
        assert np.allclose(grad.reshape(-1, 4), wgrad, atol=1e-15)

    def test_excluding_wrong_pixels_drops_loss(self):
        # two pixels: one predicted right, one predicted wrong
        logits = np.zeros((1, 1, 2, 2))
        logits[0, 0, 0] = [4.0, -4.0]  # confident class 0, correct
        logits[0, 0, 1] = [4.0, -4.0]  # confident class 0, wrong
        targets = np.zeros((1, 1, 2, 2))
        targets[0, 0, 0, 0] = 1.0
        targets[0, 0, 1, 1] = 1.0
        full, _ = task_loss("segmentation", logits, targets, np.ones((1, 1, 2)))
        only_right, _ = task_loss("segmentation", logits, targets, np.array([[[1.0, 0.0]]]))
        assert only_right < full

    def test_all_zero_mask_degenerate(self, rng):
        logits = rng.normal(size=(1, 2, 2, 3))
        targets = np.stack([segmentation_targets(rng.integers(0, 3, (2, 2)), 3)])
        loss, grad = task_loss("segmentation", logits, targets, np.zeros((1, 2, 2)))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(logits))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            losses.check_masked_pixel_ce((1, 2, 2, 3), np.zeros((1, 2, 2, 3)), np.zeros((2, 2)))

    def test_non_binary_mask_rejected(self, rng):
        targets = np.stack([segmentation_targets(rng.integers(0, 3, (2, 2)), 3)])
        with pytest.raises(ValueError):
            losses.check_masked_pixel_ce((1, 2, 2, 3), targets, np.full((1, 2, 2), 0.5))


class TestSoftBce:
    def test_stationary_at_matching_target(self):
        z = np.array([0.3, -1.2, 2.0])
        t = 1.0 / (1.0 + np.exp(-z))
        _, grad = task_loss("multilabel", z, t)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_ln2_at_zero_logit(self):
        loss, _ = task_loss("multilabel", np.array([0.0]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_gradient_matches_fd(self, rng):
        z = rng.normal(size=6)
        t = rng.uniform(size=6)
        _, grad = task_loss("multilabel", z, t)
        fd = fd_gradient(lambda q: task_loss("multilabel", q, t)[0], z.copy())
        assert grad_rel_error(grad, fd) < 1e-6

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            losses.check_soft_bce((2,), np.array([0.5, 1.2]))


# (N, H, W, Cin, Cout): the three convs of the benchmark's 16x16 shapes
# model (RGB -> 8 -> 8 -> 4 classes) on training and evaluation batches
WORKLOAD_CONV_SHAPES = [(4, 16, 16, 3, 8), (4, 16, 16, 8, 8), (4, 16, 16, 8, 4), (20, 16, 16, 8, 4)]
# batch, non-square maps, channel changes, single rows and columns
CONV_SHAPES = [
    (3, 5, 7, 2, 4), (2, 1, 6, 3, 2), (2, 6, 1, 1, 3), (1, 1, 1, 2, 2), (4, 4, 4, 3, 3),
] + WORKLOAD_CONV_SHAPES
# Shapes whose tap GEMMs BLAS runs on another kernel than the strided
# per-tap products of the batched oracles: a single-column map (W = 1), a
# GEMM dimension of 16 or more channels or classes, and the input gradient
# of a conv with one input channel. Their last bits may differ.
BIT_DOMAIN_EDGES = [(3, 5, 1, 4, 6), (2, 4, 5, 16, 3), (2, 4, 5, 3, 16), (2, 4, 5, 20, 20), (3, 5, 6, 1, 8)]
# (N, H, W, K) of the pixel loss: the benchmark's training, evaluation and
# whole-set batches of 16x16 maps over 4 classes, then every class count
# below 8, where NumPy's reduce along the short class axis adds in sequence
LOSS_SHAPES = [(4, 16, 16, 4), (20, 16, 16, 4), (60, 16, 16, 4)] + [(4, 16, 16, k) for k in range(2, 8)]
# 8 or more classes: the reduce adds in pairwise blocks, the class-column
# sums in sequence, so the last bits may differ
LOSS_BIT_DOMAIN_EDGES = [(4, 16, 16, 8), (4, 16, 16, 11), (2, 5, 6, 16)]


def _pixel_loss_case(rng, shape, mask_kind):
    logits = rng.normal(scale=3.0, size=shape)
    labels = rng.integers(0, shape[-1], size=shape[:-1])
    targets = np.stack([segmentation_targets(l, shape[-1], epsilon=0.3, sigma=0.8) for l in labels])
    if mask_kind == "partial":
        mask = (rng.uniform(size=shape[:-1]) > 0.3).astype(np.float64)
    else:
        mask = np.zeros(shape[:-1])
    return logits, targets, mask


class TestMaskedPixelCeAgainstReference:
    """The class-column loss against the reference built from softmax and
    log_softmax, each reducing along the class axis."""

    @pytest.mark.parametrize("mask_kind", ["partial", "zero"])
    @pytest.mark.parametrize("shape", LOSS_SHAPES)
    def test_byte_equal_below_8_classes(self, rng, shape, mask_kind):
        logits, targets, mask = _pixel_loss_case(rng, shape, mask_kind)
        value, dlogits = losses._masked_pixel_ce(logits, targets, mask)
        want, want_dlogits = _ref_loss("segmentation", logits, targets, mask)
        assert value == want
        assert dlogits.tobytes() == want_dlogits.tobytes()

    @pytest.mark.parametrize("shape", LOSS_BIT_DOMAIN_EDGES)
    def test_bit_domain_edges_agree_within_tolerance(self, rng, shape):
        logits, targets, mask = _pixel_loss_case(rng, shape, "partial")
        value, dlogits = losses._masked_pixel_ce(logits, targets, mask)
        want, want_dlogits = _ref_loss("segmentation", logits, targets, mask)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(dlogits, want_dlogits, rtol=1e-12, atol=1e-12)


class TestBatchedConv:
    """The batched conv helpers against the per-image oracles in conftest."""

    @pytest.mark.parametrize("n,h,w,cin,cout", CONV_SHAPES)
    def test_forward_equals_per_image_oracle(self, rng, n, h, w, cin, cout):
        x = rng.normal(size=(n, h, w, cin))
        wt = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        want = np.stack([ref_fcn_conv_forward(xi, wt, b) for xi in x])
        assert np.array_equal(models._conv_forward(_edge_pad(x), wt, b), want)

    @pytest.mark.parametrize("n,h,w,cin,cout", CONV_SHAPES)
    def test_backward_equals_per_image_oracle_summed(self, rng, n, h, w, cin, cout):
        x = rng.normal(size=(n, h, w, cin))
        wt = rng.normal(size=(cout, cin, 3, 3))
        dout = rng.normal(size=(n, h, w, cout))
        # the weight and bias gradients land in views of one flat buffer
        buf = np.full(wt.size + cout, np.nan)
        dw, db = buf[: wt.size].reshape(wt.shape), buf[wt.size :]
        models._conv_weight_grad(_edge_pad(x), dout, dw, db)
        dx = models._conv_input_grad(wt, dout)
        refs = [ref_fcn_conv_backward(xi, wt, di) for xi, di in zip(x, dout)]
        np.testing.assert_allclose(dx, np.stack([r[0] for r in refs]), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, sum(r[1] for r in refs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db, sum(r[2] for r in refs), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,h,w,cin,cout", CONV_SHAPES)
    def test_weight_grad_alone_equals_full_backward(self, rng, n, h, w, cin, cout):
        # the first conv computes dw and db only; they match the allocating
        # backward that also computes dx, bit for bit
        x = rng.normal(size=(n, h, w, cin))
        wt = rng.normal(size=(cout, cin, 3, 3))
        dout = rng.normal(size=(n, h, w, cout))
        dw, db = np.full_like(wt, np.nan), np.full(cout, np.nan)
        models._conv_weight_grad(_edge_pad(x), dout, dw, db)
        _, want_dw, want_db = ref_batched_conv_backward(x, wt, dout)
        assert dw.tobytes() == want_dw.tobytes() and db.tobytes() == want_db.tobytes()

    @pytest.mark.parametrize("n,h,w,cin,cout", CONV_SHAPES)
    def test_padded_activation_equals_np_pad(self, rng, n, h, w, cin, cout):
        a = rng.normal(scale=2.0, size=(n, h, w, cout))
        assert np.array_equal(models._tanh_padded(a, 1), _edge_pad(np.tanh(a)))

    @pytest.mark.parametrize("n,h,w,cin,cout", WORKLOAD_CONV_SHAPES)
    def test_workload_shapes_byte_equal_to_strided_taps(self, rng, n, h, w, cin, cout):
        # the contiguous tap matrices give the strided per-tap GEMMs' bytes
        x = rng.normal(size=(n, h, w, cin))
        wt = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        dout = rng.normal(size=(n, h, w, cout))
        assert models._conv_forward(_edge_pad(x), wt, b).tobytes() == ref_batched_conv_forward(x, wt, b).tobytes()
        want_dx = ref_batched_conv_backward(x, wt, dout)[0]
        assert models._conv_input_grad(wt, dout).tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("n,h,w,cin,cout", BIT_DOMAIN_EDGES)
    def test_bit_domain_edges_agree_within_tolerance(self, rng, n, h, w, cin, cout):
        x = rng.normal(size=(n, h, w, cin))
        wt = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        dout = rng.normal(size=(n, h, w, cout))
        np.testing.assert_allclose(
            models._conv_forward(_edge_pad(x), wt, b), ref_batched_conv_forward(x, wt, b), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            models._conv_input_grad(wt, dout), ref_batched_conv_backward(x, wt, dout)[0], rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("n,h,w,cin,cout", CONV_SHAPES)
    def test_padded_input_equals_np_pad(self, rng, n, h, w, cin, cout):
        x = rng.normal(size=(n, h, w, cin))
        assert np.array_equal(models._edge_padded(x, 1), _edge_pad(x))

    def test_forward_keeps_padded_activations(self, rng):
        spec = ModelSpec("tiny_fcn", (2, 3, 4, 3))
        params = rng.normal(scale=0.5, size=spec.param_count())
        x = rng.uniform(size=(3, 5, 4, 2))
        logits, acts = models._logits(spec, unpack(spec, params), models.check_inputs(spec, x))
        want_logits, _, plain = ref_forward(spec, params, x)
        assert np.array_equal(logits, want_logits)
        assert len(acts) == len(plain) == 3
        for padded, a in zip(acts, plain):
            assert np.array_equal(padded, _edge_pad(a))


def _edge_pad(x):
    return np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="edge")


class TestBackwardInto:
    """backward() writing into the views of one flat buffer against the
    reference that allocates every tensor gradient and concatenates them."""

    @pytest.mark.parametrize("arch", ["linear_softmax", "mlp", "tiny_fcn"])
    def test_into_views_equals_allocating_reference(self, rng, arch):
        spec, params, x = _random_case(rng, arch)
        x = np.concatenate([x, x[::-1] * 0.5])
        tensors = unpack(spec, params)
        logits, acts = models._logits(spec, tensors, models.check_inputs(spec, x))
        dlogits = rng.normal(size=logits.shape)
        buf = np.full(spec.param_count(), np.nan)
        models.backward(spec, tensors, acts, dlogits, unpack(spec, buf))
        _, ref_tensors, ref_acts = ref_forward(spec, params, x)
        assert buf.tobytes() == ref_backward(spec, ref_tensors, ref_acts, dlogits).tobytes()

    def test_rejects_dlogits_of_another_shape(self, rng):
        spec, params, x = _random_case(rng, "tiny_fcn")
        tensors = unpack(spec, params)
        logits, acts = models._logits(spec, tensors, models.check_inputs(spec, x))
        grads = unpack(spec, np.empty(spec.param_count()))
        with pytest.raises(ValueError, match="dlogits shape"):
            models.backward(spec, tensors, acts, np.zeros(logits.shape[:3] + (4,)), grads)


def _random_case(rng, arch):
    if arch == "linear_softmax":
        spec = ModelSpec("linear_softmax", (4, 3))
        x = rng.normal(size=(3, 4))
    elif arch == "mlp":
        spec = ModelSpec("mlp", (4, 5, 3))
        x = rng.normal(size=(3, 4))
    else:
        spec = ModelSpec("tiny_fcn", (2, 3, 3, 3))
        x = rng.uniform(size=(1, 5, 5, 2))
    params = rng.normal(scale=0.5, size=spec.param_count())
    return spec, params, x


class TestBackwardGradientChecks:
    """Analytic parameter gradients vs central finite differences."""

    @pytest.mark.parametrize("arch", ["linear_softmax", "mlp"])
    def test_soft_ce_through_vector_models(self, rng, arch):
        for _ in range(10):
            spec, params, x = _random_case(rng, arch)
            targets = uls_matrix(rng.integers(0, 3, len(x)), 3, float(rng.uniform(0, 0.9)))
            _, grad = checked_step(spec, params, x, targets, "multiclass")
            fd = fd_gradient(lambda p: checked_step(spec, p, x, targets, "multiclass")[0], params)
            assert grad_rel_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("arch", ["linear_softmax", "mlp"])
    def test_soft_bce_through_vector_models(self, rng, arch):
        for _ in range(10):
            spec, params, x = _random_case(rng, arch)
            targets = rng.uniform(size=(len(x), 3))
            _, grad = checked_step(spec, params, x, targets, "multilabel")
            fd = fd_gradient(lambda p: checked_step(spec, p, x, targets, "multilabel")[0], params)
            assert grad_rel_error(grad, fd) < 1e-4

    def test_masked_ce_through_fcn(self, rng):
        for _ in range(3):
            spec, params, x = _random_case(rng, "tiny_fcn")
            labels = rng.integers(0, 3, size=x.shape[:3])
            targets = np.stack(
                [segmentation_targets(l, 3, epsilon=0.3, sigma=0.9) for l in labels]
            )
            mask = (rng.uniform(size=x.shape[:3]) > 0.3).astype(np.float64)
            _, grad = checked_step(spec, params, x, targets, "segmentation", mask=mask)
            fd = fd_gradient(
                lambda p: checked_step(spec, p, x, targets, "segmentation", mask=mask)[0],
                params,
            )
            assert grad_rel_error(grad, fd) < 1e-4
