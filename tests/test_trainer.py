from types import SimpleNamespace

import numpy as np
import pytest

from conftest import RefOptimizer, record_epoch_ids, ref_train
from pcbls import models
from pcbls.cli import PRESETS, ConfigError, resolve_config
from pcbls.datasets import gen_blobs, gen_multilabel, gen_shapes_seg
from pcbls.models import ModelSpec, init_params
from pcbls.pacing import PacePlan, SampleBank, active_count, build_bank_multiclass
from pcbls.schedules import SmoothingSchedule
from pcbls.soft_labels import uls_matrix
from pcbls.trainer import (
    TASKS,
    NonFiniteLoss,
    NonFiniteParameters,
    TrainConfig,
    _Optimizer,
    records_to_csv,
    score_pixel_bank,
    score_training_set,
    train,
)


# the ULS factor of the workflow_cls preset, and the ULS factor and SVLS sigma
# of the segmentation preset
CBLS = SmoothingSchedule(kind="exponential", init=0.5, rate=0.9)
SEG_ULS = SmoothingSchedule(kind="exponential", init=0.6, rate=0.9)
SEG_SVLS = SmoothingSchedule(kind="exponential", init=0.9, rate=0.5)


def _blob_setup(seed=0, per_class=25, classes=4, noise=0.1):
    tr = gen_blobs(classes, per_class, dim=8, label_noise_rate=noise, seed=seed, split="train")
    va = gen_blobs(classes, 10, dim=8, seed=seed, split="val")
    return tr, va


def _config(task="multiclass", **kw):
    defaults = dict(
        task=task,
        model=ModelSpec("mlp", (8, 12, 4)),
        epochs=4,
        batch_size=16,
        seed=3,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestValidation:
    def test_pixel_granularity_needs_segmentation(self):
        tr, va = _blob_setup()
        pixel_bank = np.full((len(tr), 2, 2), 0.5, dtype=np.float32)
        cfg = _config(pace=PacePlan(0.5, 0.5))
        with pytest.raises(ValueError, match="pixel-wise pacing requires the segmentation task"):
            train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4, bank=pixel_bank)

    @pytest.mark.parametrize(
        "schedule,epoch",
        [
            (SmoothingSchedule(kind="anti", init=0.5, rate=1.5, cap=2.0), 2),
            (SmoothingSchedule(kind="linear", init=0.5, rate=0.25, floor=-1.0), 3),
            (SmoothingSchedule(kind="random", range_lo=1.0, range_hi=1.5, seed=0), 0),
        ],
        ids=["anti", "linear", "random"],
    )
    def test_schedule_leaving_the_unit_interval_is_refused(self, monkeypatch, schedule, epoch):
        tr, va = _blob_setup()

        def step(*args):
            raise AssertionError("trained before the schedule check")

        monkeypatch.setattr(models, "loss_and_grad_into", step)
        with pytest.raises(ValueError, match=rf"^schedule: smoothing factor \S+ at epoch {epoch} is outside \[0, 1\)$"):
            train(_config(epochs=5, uls_schedule=schedule), tr.inputs, tr.targets, va.inputs, va.targets, 4)

    def test_schedule_inside_the_unit_interval_to_the_last_epoch_trains(self):
        # 0.5 * 1.5^e stays below 1 up to epoch 1 only
        tr, va = _blob_setup()
        cfg = _config(epochs=2, uls_schedule=SmoothingSchedule(kind="anti", init=0.5, rate=1.5, cap=2.0))
        result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert [r.eps for r in result.records] == [0.5, 0.75]

    def test_spatial_schedule_below_zero_is_refused(self):
        # sigma 0.5 - 0.25 e reaches 0 at epoch 2, which means no blur, and -0.25 at epoch 3
        schedule = SmoothingSchedule(kind="linear", init=0.5, rate=0.25, floor=-1.0)
        seg = dict(task="segmentation", model=ModelSpec("tiny_fcn", (3, 4, 4, 3)), svls_schedule=schedule)
        with pytest.raises(ValueError, match=r"^svls_schedule: sigma -0\.25 at epoch 3 is below 0$"):
            TrainConfig(epochs=4, **seg)
        assert TrainConfig(epochs=3, **seg).svls_schedule.value_at(2) == 0.0

    @pytest.mark.parametrize("task", list(TASKS))
    @pytest.mark.parametrize("arch", list(models.ARCHITECTURES))
    def test_architecture_gives_the_logit_layout_of_the_tasks_default(self, task, arch):
        # dense layers give (N,K) logits, the conv layers of tiny_fcn (N,H,W,K)
        spec = ModelSpec(arch, {"linear_softmax": (8, 4), "mlp": (8, 12, 4), "tiny_fcn": (3, 4, 4, 4)}[arch])
        if (task == "segmentation") == (arch == "tiny_fcn"):
            assert _config(task, model=spec).model == spec
        else:
            with pytest.raises(ValueError, match=rf"^task '{task}' needs .* logits as .* gives; arch '{arch}' gives "):
                _config(task, model=spec)

    def test_svls_needs_segmentation(self):
        with pytest.raises(ValueError):
            _config(svls_schedule=SEG_SVLS)

    @pytest.mark.parametrize("granularity", ["sample", "pixel"])
    def test_bank_of_another_size_than_the_training_set_is_refused(self, granularity):
        tr = gen_shapes_seg(16, 16, 2, 5, seed=3, split="train")
        va = gen_shapes_seg(16, 16, 2, 2, seed=3, split="val")
        if granularity == "sample":
            bank, message = SampleBank(np.arange(4), np.full(4, 0.5)), r"\(4,\) does not match the training set's \(5,\)"
        else:
            bank, message = np.full((5, 16, 8), 0.5), r"\(5, 16, 8\) does not match the training set's \(5, 16, 16\)"
        cfg = TrainConfig(task="segmentation", model=ModelSpec("tiny_fcn", (3, 4, 4, 3)), epochs=2, pace=PacePlan(0.5, 0.5))
        with pytest.raises(ValueError, match=f"^bank of shape {message}$"):
            train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 3, bank=bank)

    def test_pace_requires_bank(self):
        tr, va = _blob_setup()
        cfg = _config(pace=PacePlan(0.5, 0.5))
        with pytest.raises(ValueError):
            train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)

    @pytest.mark.parametrize("field", ["lr", "momentum", "weight_decay", "lr_decay_factor"])
    def test_non_finite_float_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            _config(**{field: float("nan")})

    def test_non_finite_loss_stops_naming_epoch_and_batch(self):
        tr, va = _blob_setup()
        # the first step overflows the parameters; the loss turns NaN two batches on
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="nan in epoch 0, batch 2$") as info:
            train(_config(lr=1e300), tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert (info.value.epoch, info.value.batch) == (0, 2)

    def test_non_finite_parameters_after_finite_losses_stop_naming_the_epoch(self, monkeypatch):
        # a step that writes NaN into the gradient but reports a finite loss
        real_step = models.loss_and_grad_into

        def nan_gradient_step(spec, tensors, grads, *args):
            real_step(spec, tensors, grads, *args)
            grads[0][0, 0] = np.nan
            return 0.5

        monkeypatch.setattr(models, "loss_and_grad_into", nan_gradient_step)
        tr, va = _blob_setup()
        with pytest.raises(NonFiniteParameters, match="after epoch 0 ") as info:
            train(_config(), tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert info.value.epoch == 0

    def test_empty_data_rejected(self):
        cfg = _config()
        with pytest.raises(ValueError):
            train(cfg, np.zeros((0, 8)), np.zeros(0, dtype=int), np.zeros((1, 8)), np.zeros(1, dtype=int), 4)


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        tr, va = _blob_setup()
        cfg = _config(uls_schedule=CBLS)
        r1 = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        r2 = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert r1.params.tobytes() == r2.params.tobytes()
        assert records_to_csv("multiclass", r1.records) == records_to_csv("multiclass", r2.records)

    def test_runs_leak_no_state_into_each_other(self):
        # another run in between, with other shapes, optimizer, pacing and
        # batch size, leaves the first run's bytes as they were
        tr, va = _blob_setup()
        cfg = _config(batch_size=24, uls_schedule=CBLS)
        first = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        bank = build_bank_multiclass(np.random.default_rng(7).dirichlet(np.ones(4), size=len(tr)), tr.targets)
        other = _config(
            model=ModelSpec("linear_softmax", (8, 4)), batch_size=7, optimizer="adam", pace=PacePlan(0.6, 0.4)
        )
        train(other, tr.inputs, tr.targets, va.inputs, va.targets, 4, bank=bank)
        again = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert again.params.tobytes() == first.params.tobytes()
        assert records_to_csv("multiclass", again.records) == records_to_csv("multiclass", first.records)

    def test_seed_changes_trajectory(self):
        tr, va = _blob_setup()
        r1 = train(_config(seed=1), tr.inputs, tr.targets, va.inputs, va.targets, 4)
        r2 = train(_config(seed=2), tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert r1.params.tobytes() != r2.params.tobytes()


class TestCeDegeneracy:
    def test_constant_zero_schedule_equals_plain_ce(self):
        tr, va = _blob_setup()
        cbls_cfg = _config(uls_schedule=SmoothingSchedule(kind="constant", init=0.0))
        base_cfg = _config()
        r_cbls = train(cbls_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        r_base = train(base_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert r_cbls.params.tobytes() == r_base.params.tobytes()
        assert records_to_csv("multiclass", r_cbls.records) == records_to_csv(
            "multiclass", r_base.records
        )

    def test_smoothing_actually_changes_training(self):
        tr, va = _blob_setup()
        smooth_cfg = _config(uls_schedule=SmoothingSchedule(kind="constant", init=0.3))
        r_smooth = train(smooth_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        r_plain = train(_config(), tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert r_smooth.params.tobytes() != r_plain.params.tobytes()


class TestRecords:
    def test_schedule_factor_recorded(self):
        tr, va = _blob_setup()
        cfg = _config(epochs=12, uls_schedule=CBLS)
        result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert result.records[0].eps == 0.5
        assert result.records[10].eps == pytest.approx(0.5 * 0.9**10, abs=1e-9)
        factors = [r.eps for r in result.records]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_active_count_sequence(self):
        tr, va = _blob_setup(per_class=25, classes=4)  # n=100
        n = len(tr)
        bank = build_bank_multiclass(np.full((n, 4), 0.25), tr.targets)
        cfg = _config(epochs=10, pace=PacePlan(0.6, 0.4))
        result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4, bank=bank)
        counts = [r.active_count for r in result.records]
        assert counts == [60, 70, 80, 90, 100, 100, 100, 100, 100, 100]

    def test_csv_shape(self):
        tr, va = _blob_setup()
        result = train(_config(), tr.inputs, tr.targets, va.inputs, va.targets, 4)
        header, rows = records_to_csv("multiclass", result.records)
        assert header == ["epoch", "active_count", "eps", "sigma", "train_loss", "val_accuracy"]
        assert len(rows) == 4
        assert rows[0][0] == "0" and rows[-1][0] == "3"

    def test_entropy_floor_at_high_smoothing(self):
        # while eps is fixed the loss cannot beat the smoothed-target entropy
        tr, va = _blob_setup(noise=0.0)
        eps = 0.6
        cfg = _config(epochs=6, uls_schedule=SmoothingSchedule(kind="constant", init=eps))
        result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        t = uls_matrix(np.zeros(1, dtype=int), 4, eps)[0]
        floor = -(t * np.log(t)).sum()
        for r in result.records:
            assert r.train_loss >= floor - 1e-9


class TestInstrumentation:
    def test_steps_see_only_the_active_samples(self, monkeypatch):
        # a sample no step sees contributes no gradient
        tr, va = _blob_setup(per_class=25, classes=4)
        n = len(tr)
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=n)
        bank = build_bank_multiclass(probs, tr.targets)
        plan = PacePlan(0.5, 0.5)
        cfg = _config(epochs=8, pace=plan)
        epochs = record_epoch_ids(monkeypatch, tr.inputs)
        train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4, bank=bank)
        assert len(epochs) == cfg.epochs
        for e, seen in enumerate(epochs):
            assert sorted(seen) == sorted(bank.sample_ids[: active_count(plan, e, cfg.epochs, n)].tolist())


def _vector_data(task):
    if task == "multiclass":
        return _blob_setup()
    return gen_multilabel(4, 100, dim=8, seed=1, split="train"), gen_multilabel(4, 20, dim=8, seed=1, split="val")


def _assert_matches_reference(cfg, tr, va, num_classes, **kw):
    result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, num_classes, **kw)
    params, train_losses = ref_train(cfg, tr.inputs, tr.targets, num_classes, **kw)
    assert result.params.tobytes() == params.tobytes()
    assert [r.train_loss for r in result.records] == train_losses


class TestMatchesReferenceLoop:
    """Per-epoch targets, the shared softmax exp and the in-place optimizer
    state change no bit against the per-batch reference loop."""

    def _paced_blobs(self, epochs):
        tr, va = _blob_setup()
        n = len(tr)
        bank = build_bank_multiclass(np.random.default_rng(7).dirichlet(np.ones(4), size=n), tr.targets)
        # the workflow_cls preset's schedule and pace plan
        cfg = _config(epochs=epochs, uls_schedule=CBLS, pace=PacePlan(0.6, 0.4))
        return cfg, tr, va, bank

    def test_mlp_sgd_sample_pacing(self):
        cfg, tr, va, bank = self._paced_blobs(epochs=3)
        assert cfg.optimizer == "sgd" and cfg.decay_epoch() == 2
        _assert_matches_reference(cfg, tr, va, 4, bank=bank)

    def test_linear_multilabel_adam(self):
        tr = gen_multilabel(4, 60, dim=8, seed=1, split="train")
        va = gen_multilabel(4, 20, dim=8, seed=1, split="val")
        cfg = TrainConfig(
            task="multilabel",
            model=ModelSpec("linear_softmax", (8, 4)),
            epochs=3,
            batch_size=16,
            optimizer="adam",
            lr=1e-2,
            seed=2,
            uls_schedule=CBLS,
        )
        _assert_matches_reference(cfg, tr, va, 4)

    def test_fcn_adam_pixel_pacing_svls(self):
        tr = gen_shapes_seg(16, 16, 2, 7, seed=3, split="train")
        va = gen_shapes_seg(16, 16, 2, 3, seed=3, split="val")
        spec = ModelSpec("tiny_fcn", (3, 4, 4, 3))
        pixel_bank = score_pixel_bank(spec, init_params(spec, 0), tr.inputs, tr.targets)
        cfg = TrainConfig(
            task="segmentation",
            model=spec,
            epochs=2,
            batch_size=3,
            optimizer="adam",
            lr=1e-2,
            seed=4,
            # the segmentation preset's schedules and pace plan
            uls_schedule=SEG_ULS,
            svls_schedule=SEG_SVLS,
            svls_kernel=3,
            pace=PacePlan(0.8, 0.4),
        )
        _assert_matches_reference(cfg, tr, va, 3, bank=pixel_bank)

    def test_fcn_at_the_workload_model(self):
        # the benchmark's segmentation model (RGB -> 8 -> 8 -> 4 classes on
        # 16x16 shapes, Adam at 1e-2 on batches of 4); 10 frames leave a
        # short last batch of 2
        tr = gen_shapes_seg(16, 16, 3, 10, seed=6, split="train")
        va = gen_shapes_seg(16, 16, 3, 4, seed=6, split="val")
        spec = ModelSpec("tiny_fcn", (3, 8, 8, 4))
        pixel_bank = score_pixel_bank(spec, init_params(spec, 1), tr.inputs, tr.targets)
        cfg = TrainConfig(
            task="segmentation",
            model=spec,
            epochs=2,
            batch_size=4,
            optimizer="adam",
            lr=1e-2,
            seed=7,
            # the segmentation preset's schedules and pace plan
            uls_schedule=SEG_ULS,
            svls_schedule=SEG_SVLS,
            svls_kernel=3,
            pace=PacePlan(0.8, 0.4),
        )
        _assert_matches_reference(cfg, tr, va, 4, bank=pixel_bank)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("task", ["multiclass", "multilabel"])
    @pytest.mark.parametrize("arch", ["linear_softmax", "mlp"])
    def test_vector_models_under_each_loss_and_optimizer(self, arch, task, optimizer):
        # soft_ce for multiclass, soft_bce for multilabel; 100 samples in
        # batches of 24 leave a short last batch of 4
        tr, va = _vector_data(task)
        dims = (8, 4) if arch == "linear_softmax" else (8, 12, 4)
        cfg = TrainConfig(
            task=task,
            model=ModelSpec(arch, dims),
            epochs=3,
            batch_size=24,
            optimizer=optimizer,
            lr=1e-2,
            seed=5,
            uls_schedule=CBLS,
        )
        _assert_matches_reference(cfg, tr, va, 4)

    @pytest.mark.parametrize("batch_size", [24, 99, 100, 128])
    def test_batch_sizes_around_the_training_set_size(self, batch_size):
        # a short last batch of 4 or 1, one full batch, one batch smaller
        # than the batch size
        tr, va = _blob_setup()
        _assert_matches_reference(_config(batch_size=batch_size, epochs=2), tr, va, 4)


class TestCallerArraysUnwritten:
    def test_sample_paced_run(self):
        tr, va = _blob_setup()
        bank = build_bank_multiclass(np.random.default_rng(7).dirichlet(np.ones(4), size=len(tr)), tr.targets)
        arrays = [tr.inputs, tr.targets, va.inputs, va.targets, bank.sample_ids, bank.scores]
        before = [a.tobytes() for a in arrays]
        cfg = _config(uls_schedule=CBLS, pace=PacePlan(0.6, 0.4))
        train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4, bank=bank)
        assert [a.tobytes() for a in arrays] == before

    def test_pixel_paced_run(self):
        tr = gen_shapes_seg(16, 16, 2, 5, seed=3, split="train")
        va = gen_shapes_seg(16, 16, 2, 2, seed=3, split="val")
        spec = ModelSpec("tiny_fcn", (3, 4, 4, 3))
        pixel_bank = np.random.default_rng(5).uniform(size=tr.targets.shape).astype(np.float32)
        arrays = [tr.inputs, tr.targets, va.inputs, va.targets, pixel_bank]
        before = [a.tobytes() for a in arrays]
        cfg = TrainConfig(
            task="segmentation",
            model=spec,
            epochs=2,
            batch_size=2,
            optimizer="adam",
            lr=1e-2,
            seed=4,
            uls_schedule=SEG_ULS,
            svls_schedule=SEG_SVLS,
            pace=PacePlan(0.8, 0.4),
        )
        train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 3, bank=pixel_bank)
        assert [a.tobytes() for a in arrays] == before


class TestOptimizer:
    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_in_place_steps_equal_reference(self, name):
        rng = np.random.default_rng(11)
        params, grad = rng.normal(size=20), rng.normal(size=20)
        grad_before = grad.copy()
        cfg = _config(optimizer=name)
        opt, ref = _Optimizer(cfg, params.size), RefOptimizer(cfg, params.size)
        want = params.copy()
        for _ in range(3):
            assert opt.step(params, grad, 1e-2) is None
            want = ref.step(want, grad, 1e-2)
            assert params.tobytes() == want.tobytes()
        assert grad.tobytes() == grad_before.tobytes()


class TestTasks:
    def test_multilabel_training_runs(self):
        tr = gen_multilabel(4, 60, dim=8, seed=1, split="train")
        va = gen_multilabel(4, 30, dim=8, seed=1, split="val")
        cfg = TrainConfig(
            task="multilabel",
            model=ModelSpec("mlp", (8, 10, 4)),
            epochs=3,
            optimizer="adam",
            lr=1e-3,
            seed=0,
            uls_schedule=CBLS,
        )
        result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        assert "val_map" in result.records[-1].val_metrics
        assert 0.0 <= result.records[-1].val_metrics["val_map"] <= 1.0

    def test_segmentation_training_with_pixel_pacing(self):
        tr = gen_shapes_seg(16, 16, 2, 8, seed=2, split="train")
        va = gen_shapes_seg(16, 16, 2, 4, seed=2, split="val")
        spec = ModelSpec("tiny_fcn", (3, 4, 4, 3))
        base_cfg = TrainConfig(task="segmentation", model=spec, epochs=1, optimizer="adam", lr=1e-3, seed=1)
        base = train(base_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 3)
        pixel_bank = score_pixel_bank(spec, base.params, tr.inputs, tr.targets)
        total = sum(m.size for m in pixel_bank)
        cfg = TrainConfig(
            task="segmentation",
            model=spec,
            epochs=3,
            optimizer="adam",
            lr=1e-3,
            seed=1,
            uls_schedule=SEG_ULS,
            svls_schedule=SEG_SVLS,
            pace=PacePlan(0.8, 0.4),
        )
        result = train(
            cfg, tr.inputs, tr.targets, va.inputs, va.targets, 3, bank=pixel_bank
        )
        assert result.records[0].active_count == int(0.8 * total)
        assert result.records[-1].active_count == total
        assert result.records[0].sigma == 0.9
        assert result.records[1].sigma == pytest.approx(0.45)
        assert "val_miou" in result.records[-1].val_metrics


class TestBankScoring:
    def test_ts_bank_preserves_predicted_classes(self):
        tr, va = _blob_setup()
        cfg = _config(epochs=2)
        result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
        plain = score_training_set(cfg.model, cfg.task, result.params, tr.inputs, tr.targets, variant="plain")
        ts = score_training_set(
            cfg.model, cfg.task, result.params, tr.inputs, tr.targets, variant="ts", temperature=2.63
        )
        assert ts.source == "temperature_scaled"
        assert set(plain.sample_ids.tolist()) == set(ts.sample_ids.tolist())
        assert not np.allclose(plain.scores, ts.scores)
        # scaling only reshapes confidences; per-sample predicted classes hold
        from pcbls.calibration import apply_temperature
        from pcbls.models import forward

        logits = forward(cfg.model, result.params, tr.inputs)
        assert np.array_equal(
            np.argmax(apply_temperature(logits, 2.63), axis=1),
            np.argmax(apply_temperature(logits, 1.0), axis=1),
        )

    def test_segmentation_bank_empty_frames_zero(self):
        tr = gen_shapes_seg(16, 16, 2, 8, seed=2, split="train")
        spec = ModelSpec("tiny_fcn", (3, 4, 4, 3))
        cfg = TrainConfig(task="segmentation", model=spec, epochs=1, seed=0)
        result = train(cfg, tr.inputs, tr.targets, tr.inputs, tr.targets, 3)
        bank = score_training_set(cfg.model, cfg.task, result.params, tr.inputs, tr.targets)
        empty = [i for i in range(len(tr)) if (tr.targets[i] == 0).all()]
        by_id = dict(zip(bank.sample_ids.tolist(), bank.scores.tolist()))
        assert all(by_id[i] == 0.0 for i in empty)


class TestPresets:
    def test_workflow_cls_values(self):
        p = PRESETS["workflow_cls"]
        s = p["schedule"]
        assert (s["kind"], s["init"], s["rate"]) == ("exponential", 0.5, 0.9)
        assert (p["pace"]["lambda"], p["pace"]["e_all"]) == (0.6, 0.4)
        assert p["optimizer"] == "sgd"
        assert (p["lr"], p["momentum"], p["weight_decay"]) == (5e-3, 0.9, 5e-3)

    def test_segmentation_values(self):
        p = PRESETS["segmentation"]
        assert (p["schedule"]["init"], p["schedule"]["rate"]) == (0.6, 0.9)
        assert (p["svls_schedule"]["init"], p["svls_schedule"]["rate"]) == (0.9, 0.5)
        assert (p["pace"]["lambda"], p["pace"]["e_all"]) == (0.8, 0.4)
        assert p["optimizer"] == "adam" and p["lr"] == 1e-4

    def test_ablation_presets(self):
        anti = PRESETS["anti"]["schedule"]
        assert (anti["init"], anti["rate"], anti["cap"]) == (0.005, 1.1, 0.5)
        lin = PRESETS["linear"]["schedule"]
        assert (lin["init"], lin["rate"]) == (0.5, 0.015)
        rnd = PRESETS["random"]["schedule"]
        assert rnd["range"] == [0.0, 0.5]
        ls = PRESETS["ls"]["schedule"]
        assert (ls["kind"], ls["init"]) == ("constant", 0.1)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            resolve_config(SimpleNamespace(preset="nope"))

    def test_metric_columns_cover_tasks(self):
        columns = {task: entry.columns for task, entry in TASKS.items()}
        assert columns == {
            "multiclass": ("val_accuracy",), "multilabel": ("val_map",), "segmentation": ("val_miou", "val_mdice")
        }
