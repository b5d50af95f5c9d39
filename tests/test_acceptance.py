"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pcbls.calibration import apply_temperature, ece, fit_temperature, nll
from pcbls.corruption import KINDS, SEVERITY_TABLE, _kind_seed, corrupt_batch, corrupt_dataset, robustness_report
from pcbls.datasets import CIFAR_RECORD, gen_blobs, load_cifar10
from pcbls.fileio import FormatError, save_csv
from pcbls.metrics import accuracy
from pcbls.models import ModelSpec, _logits, forward, loss_and_grad_into, unpack
from pcbls.numerics import softmax
from pcbls.pacing import PacePlan, active_count, build_bank_multiclass, pace_parameter
from pcbls.schedules import SmoothingSchedule
from pcbls.seeding import fold_seed
from pcbls.soft_labels import segmentation_targets, uls, uls_matrix
from pcbls.trainer import TASKS, TrainConfig, records_to_csv, train

from conftest import (
    checked_batch,
    fd_gradient,
    grad_rel_error,
    record_epoch_ids,
    ref_conv2d_replicate,
    ref_gaussian_kernel,
    task_loss,
)


def _report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


def test_criterion_01_formula_exactness():
    start = time.perf_counter()
    # smoothing formula at the published initial factor
    probs = uls(2, 8, 0.5)
    assert abs(probs[2] - 0.5625) < 1e-9
    assert all(abs(p - 0.0625) < 1e-9 for i, p in enumerate(probs) if i != 2)
    # pace parameter and per-epoch counts at lambda=0.6, e_all=0.4, E=50
    assert abs(pace_parameter(0.6, 0.4, 50) - 0.02) < 1e-9
    plan = PacePlan(0.6, 0.4)
    for e in range(50):
        want = min(1000, int(np.floor((0.6 + 0.02 * e) * 1000 + 1e-9))) if e < 20 else 1000
        assert active_count(plan, e, 50, 1000) == want
    # exponential decay at init 0.5, rate 0.9
    sched = SmoothingSchedule(kind="exponential", init=0.5, rate=0.9)
    for e in range(50):
        assert abs(sched.value_at(e) - 0.5 * 0.9**e) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"uls/pace/active-count/schedule match hand evaluation to 1e-9 ({elapsed:.3f}s)")


def test_criterion_02_svls_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(200):
        h, w = rng.integers(1, 9, size=2)
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=(h, w))
        sigma = float(rng.uniform(0.2, 2.5))
        eps = float(rng.uniform(0.0, 0.9))
        kernel = ref_gaussian_kernel(3, sigma)

        got_svls = segmentation_targets(labels, k, 0.0, sigma, 3)
        want = np.stack(
            [ref_conv2d_replicate((labels == c).astype(np.float64), kernel) for c in range(k)],
            axis=2,
        )
        assert np.abs(got_svls - want).max() < 1e-12

        got_fused = segmentation_targets(labels, k, eps, sigma, 3)
        want_fused = np.stack(
            [
                ref_conv2d_replicate(
                    ((labels == c) * (1.0 - eps) + eps / k).astype(np.float64), kernel
                )
                for c in range(k)
            ],
            axis=2,
        )
        assert np.abs(got_fused - want_fused).max() < 1e-12

        for out in (got_svls, got_fused):
            assert np.abs(out.sum(axis=2) - 1.0).max() < 1e-6
            assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"SVLS and ULS+SVLS targets equal the triple-loop reference on 200 maps to 1e-12 ({elapsed:.1f}s)")


def test_criterion_03_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(303)

    # the trainer's own step, differentiated by its own loss values: each
    # point's batch is checked once, and each probe runs the step's forward
    # and loss core on it without the backward
    def check(spec, make_batch, task, points):
        loss = TASKS[task].loss
        for _ in range(points):
            params = rng.normal(scale=0.5, size=spec.param_count())
            x, targets, mask = make_batch()
            x, targets, mask = checked_batch(spec, x, targets, task, mask)
            grad = np.empty(spec.param_count())
            loss_and_grad_into(spec, unpack(spec, params), unpack(spec, grad), x, targets, loss, mask)
            fd = fd_gradient(
                lambda p: loss(_logits(spec, unpack(spec, p), x)[0], targets, mask)[0],
                params,
                h=1e-5,
            )
            assert grad_rel_error(grad, fd) < 1e-4

    lin = ModelSpec("linear_softmax", (4, 3))
    mlp = ModelSpec("mlp", (4, 5, 3))
    fcn = ModelSpec("tiny_fcn", (2, 3, 3, 3))

    def ce_batch():
        x = rng.normal(size=(2, 4))
        return x, uls_matrix(rng.integers(0, 3, 2), 3, float(rng.uniform(0, 0.9))), None

    def bce_batch():
        x = rng.normal(size=(2, 4))
        return x, rng.uniform(size=(2, 3)), None

    flip = [True]

    def pixel_batch():
        x = rng.uniform(size=(1, 5, 5, 2))
        labels = rng.integers(0, 3, size=(1, 5, 5))
        targets = np.stack([segmentation_targets(l, 3, epsilon=0.3, sigma=0.9) for l in labels])
        flip[0] = not flip[0]
        # alternate all-ones masks (plain per-pixel CE) and random masks
        mask = np.ones((1, 5, 5)) if flip[0] else (rng.uniform(size=(1, 5, 5)) > 0.4).astype(float)
        return x, targets, mask

    check(lin, ce_batch, "multiclass", 100)
    check(mlp, ce_batch, "multiclass", 100)
    check(lin, bce_batch, "multilabel", 100)
    check(mlp, bce_batch, "multilabel", 100)
    check(fcn, pixel_batch, "segmentation", 100)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"analytic vs central-difference gradients < 1e-4 rel on 100 points per combo ({elapsed:.1f}s)")


def test_criterion_04_uls_decomposition():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        k = int(rng.integers(2, 10))
        y = int(rng.integers(0, k))
        eps = float(rng.uniform(0.0, 0.999))
        logits = rng.normal(scale=4, size=k)
        smoothed, _ = task_loss("multiclass", logits, uls(y, k, eps))
        onehot = np.zeros(k)
        onehot[y] = 1.0
        hard, _ = task_loss("multiclass", logits, onehot)
        uniform, _ = task_loss("multiclass", logits, np.full(k, 1.0 / k))
        assert abs(smoothed - ((1 - eps) * hard + eps * uniform)) < 1e-10
    _report(4, "CE(uls target) == (1-eps) CE(one-hot) + eps CE(uniform) to 1e-10 on 1000 cases")


def test_criterion_05_ce_degeneracy(tmp_path):
    tr = gen_blobs(4, 30, dim=8, label_noise_rate=0.1, seed=11, split="train")
    va = gen_blobs(4, 10, dim=8, seed=11, split="val")
    spec = ModelSpec("mlp", (8, 12, 4))
    bank = build_bank_multiclass(np.full((len(tr), 4), 0.25), tr.targets)
    cbls_cfg = TrainConfig(
        task="multiclass", model=spec, epochs=5, batch_size=16, seed=7,
        uls_schedule=SmoothingSchedule(kind="constant", init=0.0), pace=PacePlan(1.0, 0.4),
    )
    base_cfg = TrainConfig(task="multiclass", model=spec, epochs=5, batch_size=16, seed=7)
    r_cbls = train(cbls_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4, bank=bank)
    r_base = train(base_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 4)
    h1, rows1 = records_to_csv("multiclass", r_cbls.records)
    h2, rows2 = records_to_csv("multiclass", r_base.records)
    save_csv(tmp_path / "cbls.csv", h1, rows1)
    save_csv(tmp_path / "base.csv", h2, rows2)
    assert (tmp_path / "cbls.csv").read_bytes() == (tmp_path / "base.csv").read_bytes()
    assert r_cbls.params.tobytes() == r_base.params.tobytes()
    _report(5, "constant-0 schedule + lambda=1 metrics CSV is byte-identical to the plain-CE trainer")


def test_criterion_06_pacing_trace(monkeypatch):
    n = 1000
    tr = gen_blobs(8, 125, dim=8, label_noise_rate=0.2, seed=6, split="train")
    va = gen_blobs(8, 10, dim=8, seed=6, split="val")
    rng = np.random.default_rng(66)
    bank = build_bank_multiclass(rng.dirichlet(np.ones(8), size=n), tr.targets)
    plan = PacePlan(0.6, 0.4)
    cfg = TrainConfig(
        task="multiclass", model=ModelSpec("mlp", (8, 16, 8)), epochs=50, batch_size=64,
        seed=2, uls_schedule=SmoothingSchedule(kind="exponential", init=0.5, rate=0.9), pace=plan,
    )
    # each batch row is mapped back to its sample id; a sample that no step
    # of an epoch sees contributes no gradient to that epoch
    epochs = record_epoch_ids(monkeypatch, tr.inputs)
    result = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 8, bank=bank)
    counts = [r.active_count for r in result.records]
    assert counts == [600 + 20 * e for e in range(20)] + [1000] * 30
    assert len(epochs) == cfg.epochs
    for e, seen in enumerate(epochs):
        assert sorted(seen) == sorted(bank.sample_ids[: active_count(plan, e, cfg.epochs, n)].tolist())
    _report(6, "active counts run 600,620,...,1000 and each epoch's steps see exactly the active samples, once each")


def test_criterion_07_calibration():
    rng = np.random.default_rng(707)
    # ECE == brute-force binning oracle on 100 random instances
    for _ in range(100):
        n = int(rng.integers(1, 80))
        bins = int(rng.integers(1, 25))
        conf = rng.uniform(size=n)
        correct = rng.uniform(size=n) < conf
        got = ece(conf, correct, bins=bins).ece
        total = 0.0
        for b in range(bins):
            members = [i for i in range(n) if min(int(conf[i] * bins), bins - 1) == b]
            if members:
                mean_conf = sum(conf[i] for i in members) / len(members)
                mean_acc = sum(1.0 for i in members if correct[i]) / len(members)
                total += len(members) / n * abs(mean_acc - mean_conf)
        assert got == pytest.approx(total, abs=1e-15)

    # fitted NLL never exceeds the T=1 NLL
    for _ in range(20):
        logits = rng.normal(scale=float(rng.uniform(0.3, 8)), size=(150, 5))
        labels = rng.integers(0, 5, size=150)
        t = fit_temperature(logits, labels).temperature
        assert nll(logits, labels, t) <= nll(logits, labels, 1.0) + 1e-9

    # temperature recovery on the scaled calibrated construction
    z = rng.normal(scale=2.0, size=(4000, 5))
    p = softmax(z, axis=1)
    labels = (p.cumsum(axis=1) < rng.uniform(size=4000)[:, None]).sum(axis=1)
    t1 = fit_temperature(z, labels).temperature
    t3 = fit_temperature(z * 3.0, labels).temperature
    assert abs(t1 - 1.0) < 0.1
    assert abs(t3 - 3.0) < 0.1

    # argmax invariance
    logits = rng.normal(scale=3, size=(300, 7))
    base = np.argmax(logits, axis=1)
    for t in (0.05, 0.51, 1.0, 2.63, 17.0):
        assert np.array_equal(np.argmax(apply_temperature(logits, t), axis=1), base)
    _report(7, "ECE matches its oracle exactly; temperature fit recovers T and never hurts NLL")


def test_criterion_08_corruption(tmp_path):
    rng = np.random.default_rng(808)
    images = rng.uniform(size=(2, 10, 10, 3))
    kinds = ["gaussian_noise", "pixelate", "fog"]
    rows_a = corrupt_dataset(images, kinds, [1, 2, 3, 4, 5], 4242, tmp_path / "a")
    rows_b = corrupt_dataset(images, kinds, [1, 2, 3, 4, 5], 4242, tmp_path / "b")
    assert rows_a == rows_b
    for _, _, _, rel in rows_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    for kind in KINDS:
        out = corrupt_batch(images[:1], kind, SEVERITY_TABLE[kind][4], [np.random.default_rng(3)])
        assert out.min() >= 0.0 and out.max() <= 1.0

    # 100 copies of one flat image, copy s drawing from seed s
    flat = np.full((100, 16, 16, 1), 0.5)
    for kind in ("gaussian_noise", "shot_noise", "impulse_noise"):
        mags = []
        for params in SEVERITY_TABLE[kind]:
            out = corrupt_batch(flat, kind, params, [np.random.default_rng(s) for s in range(100)])
            mags.append(float(np.abs(out - flat).mean(axis=(1, 2, 3)).mean()))
        assert all(a < b for a, b in zip(mags, mags[1:]))

    manifest = [
        (i, kind, severity, f"{kind}/{severity}/{i}")
        for kind in kinds
        for severity in range(1, 6)
        for i in range(3)
    ]
    header, table = robustness_report(
        lambda cell: np.zeros(len(cell), dtype=int),
        manifest,
        np.zeros(3, dtype=int),
        clean_accuracy=1.0,
    )
    assert header == ["kind", "sev1", "sev2", "sev3", "sev4", "sev5", "mean"]
    assert len(table) == len(kinds) + 1
    _report(8, "corruption replays byte-identically, clips to [0,1], noise is severity-monotone")


def test_criterion_09_directional_experiment():
    start = time.perf_counter()
    spec = ModelSpec("mlp", (16, 128, 8))

    def corrupted_acc(params, val_x, val_y, base_seed=99):
        # each sample as a 1xD image, seeded as corrupt_dataset seeds it
        accs = []
        for severity, noise in enumerate(SEVERITY_TABLE["gaussian_noise"], start=1):
            key = _kind_seed(base_seed, "gaussian_noise", severity)
            rngs = [np.random.default_rng(fold_seed(key, i)) for i in range(len(val_x))]
            batch = corrupt_batch(val_x[:, None, :, None], "gaussian_noise", noise, rngs)[:, 0, :, 0]
            preds = np.argmax(forward(spec, params, batch), axis=1)
            accs.append(accuracy(preds, val_y))
        return float(np.mean(accs))

    cbls_scores, base_scores = [], []
    for seed in range(5):
        tr = gen_blobs(8, 125, dim=16, spread=0.15, label_noise_rate=0.2, seed=seed, split="train")
        va = gen_blobs(8, 40, dim=16, spread=0.15, seed=seed, split="val")
        base_cfg = TrainConfig(
            task="multiclass", model=spec, epochs=50, batch_size=32,
            optimizer="sgd", lr=2e-2, momentum=0.9, weight_decay=0.0, seed=seed,
        )
        cfg = replace(base_cfg, uls_schedule=SmoothingSchedule(kind="exponential", init=0.5, rate=0.9))
        r_cbls = train(cfg, tr.inputs, tr.targets, va.inputs, va.targets, 8)
        r_base = train(base_cfg, tr.inputs, tr.targets, va.inputs, va.targets, 8)
        cbls_scores.append(corrupted_acc(r_cbls.params, va.inputs, va.targets))
        base_scores.append(corrupted_acc(r_base.params, va.inputs, va.targets))

    cbls_median = float(np.median(cbls_scores))
    base_median = float(np.median(base_scores))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert cbls_median >= base_median
    _report(
        9,
        f"median corrupted accuracy CBLS {cbls_median:.4f} >= baseline {base_median:.4f} "
        f"over 5 seeds ({elapsed:.0f}s)",
    )


def test_criterion_10_ablation_schedule_shapes():
    start = time.perf_counter()
    epochs = 60
    anti_sched = SmoothingSchedule(kind="anti", init=0.005, rate=1.1, cap=0.5)
    anti_trace = [anti_sched.value_at(e) for e in range(epochs)]
    assert anti_trace[0] == 0.005
    assert all(a <= b for a, b in zip(anti_trace, anti_trace[1:]))
    assert anti_trace[-1] == 0.5
    for e in range(epochs):
        assert anti_trace[e] == pytest.approx(min(0.5, 0.005 * 1.1**e), abs=1e-12)

    rand_sched = SmoothingSchedule(kind="random", range_lo=0.0, range_hi=0.5, seed=10)
    rand_trace = [rand_sched.value_at(e) for e in range(epochs)]
    assert all(0.0 <= v < 0.5 for v in rand_trace)
    assert rand_trace == [rand_sched.value_at(e) for e in range(epochs)]

    cbls_sched = SmoothingSchedule(kind="exponential", init=0.5, rate=0.9)
    cbls_trace = [cbls_sched.value_at(e) for e in range(epochs)]
    assert all(a > b for a, b in zip(cbls_trace, cbls_trace[1:]))
    assert cbls_trace[0] == 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(10, f"anti grows to its 0.5 cap, random stays inside (0,0.5), curriculum decays ({elapsed:.3f}s)")


def test_criterion_11_cifar10_ingestion(tmp_path):
    pattern = (np.arange(CIFAR_RECORD - 1) % 256).astype(np.uint8)
    raw = bytes([7]) + pattern.tobytes()
    fixture = tmp_path / "batch.bin"
    fixture.write_bytes(raw)
    ds = load_cifar10(fixture)
    assert len(ds) == 1 and ds.targets[0] == 7
    rebuilt = np.concatenate(
        [
            np.array([7], dtype=np.uint8),
            np.rint(ds.inputs[0].transpose(2, 0, 1).ravel() * 255).astype(np.uint8),
        ]
    ).tobytes()
    assert rebuilt == raw

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * (CIFAR_RECORD + 1))
    with pytest.raises(FormatError):
        load_cifar10(bad)

    real = None
    for candidate in (
        "data/cifar-10-batches-bin",
        "/root/data/cifar-10-batches-bin",
        "/data/cifar-10-batches-bin",
    ):
        from pathlib import Path

        p = Path(candidate)
        if p.is_dir() and list(p.glob("data_batch_*.bin")):
            real = p
            break
    if real is not None:
        batches = sorted(real.glob("data_batch_*.bin"))
        total = sum(len(load_cifar10(b)) for b in batches)
        assert total == 50000
        note = "real train batches load 50000 records"
    else:
        note = "real CIFAR-10 not present locally (fixture checks only)"
    _report(11, f"crafted record round-trips bit-exactly; malformed lengths rejected; {note}")
