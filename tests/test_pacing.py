from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbls.pacing import (
    PacePlan,
    SampleBank,
    active_count,
    active_mask,
    build_bank_multiclass,
    build_bank_multilabel,
    build_bank_segmentation,
    build_pixel_bank,
    pace_parameter,
    ranks,
)

from conftest import ref_pixel_masks


class TestPaceParameter:
    def test_full_data_degenerate(self):
        assert pace_parameter(1.0, 0.4, 50) == 0.0

    def test_classification_preset_values(self):
        assert pace_parameter(0.6, 0.4, 50) == pytest.approx(0.02, abs=1e-12)

    def test_smaller_increment_case(self):
        assert pace_parameter(0.9, 0.4, 25) == pytest.approx(0.01, abs=1e-12)

    def test_rejects_out_of_range(self):
        for bad in ((0.0, 0.4, 50), (1.1, 0.4, 50), (0.6, 0.0, 50), (0.6, 1.2, 50), (0.6, 0.4, 0)):
            with pytest.raises(ValueError):
                pace_parameter(*bad)


class TestPacePlan:
    def test_holds_lambda_and_e_all_only(self):
        assert [f.name for f in fields(PacePlan)] == ["lam", "e_all"]
        assert PacePlan(0.6, 0.4).to_dict() == {"lambda": 0.6, "e_all": 0.4}

    @pytest.mark.parametrize("lam, e_all", [(0.0, 0.4), (1.1, 0.4), (0.6, 0.0), (0.6, 1.2), (float("nan"), 0.4)])
    def test_refuses_a_share_outside_the_unit_interval_when_built(self, lam, e_all):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            PacePlan(lam, e_all)


class TestActiveCount:
    def test_reference_trace(self):
        plan = PacePlan(0.6, 0.4)
        assert active_count(plan, 0, 50, 1000) == 600
        assert active_count(plan, 10, 50, 1000) == 800
        for e in range(20, 50):
            assert active_count(plan, e, 50, 1000) == 1000

    def test_full_trace_exact(self):
        plan = PacePlan(0.6, 0.4)
        got = [active_count(plan, e, 50, 1000) for e in range(50)]
        want = [600 + 20 * e for e in range(20)] + [1000] * 30
        assert got == want

    def test_lambda_one(self):
        plan = PacePlan(1.0, 0.4)
        assert all(active_count(plan, e, 10, 77) == 77 for e in range(10))

    def test_lower_clamp(self):
        plan = PacePlan(0.6, 0.4)
        assert all(active_count(plan, e, 10, 1) == 1 for e in range(10))

    def test_monotone_and_saturating(self):
        plan = PacePlan(0.3, 0.5)
        counts = [active_count(plan, e, 37, 613) for e in range(37)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 613
        first_full = int(np.ceil(plan.e_all * 37))
        assert all(c == 613 for c in counts[first_full:])

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(0.01, 1.0),
        e_all=st.floats(0.01, 1.0),
        epochs=st.integers(1, 60),
        n=st.integers(1, 5000),
    )
    def test_monotone_bounded_and_full_from_e_all(self, lam, e_all, epochs, n):
        plan = PacePlan(lam, e_all)
        counts = [active_count(plan, e, epochs, n) for e in range(epochs)]
        assert all(1 <= c <= n for c in counts)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        first_full = int(np.ceil(plan.e_all * epochs))
        assert all(c == n for c in counts[first_full:])

    def test_epoch_bounds(self):
        plan = PacePlan(0.6, 0.4)
        with pytest.raises(ValueError):
            active_count(plan, -1, 5, 10)
        with pytest.raises(ValueError):
            active_count(plan, 5, 5, 10)


class TestBankBuilders:
    def test_multiclass_ordering(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7]])
        bank = build_bank_multiclass(probs, np.array([0, 0]))
        assert list(bank.sample_ids) == [0, 1]
        assert list(bank.scores) == [0.9, 0.3]

    def test_stable_ties(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        bank = build_bank_multiclass(probs, np.array([0, 1, 0]))
        assert list(bank.sample_ids) == [0, 1, 2]

    def test_matches_sort_oracle(self, rng):
        probs = rng.dirichlet(np.ones(4), size=20)
        labels = rng.integers(0, 4, size=20)
        bank = build_bank_multiclass(probs, labels)
        scored = [(float(probs[i, labels[i]]), i) for i in range(20)]
        want = sorted(scored, key=lambda t: (-t[0], t[1]))
        assert list(bank.sample_ids) == [i for _, i in want]
        assert list(bank.scores) == [s for s, _ in want]

    def test_order_independence_of_multiset(self, rng):
        probs = rng.dirichlet(np.ones(3), size=30)
        labels = rng.integers(0, 3, size=30)
        bank = build_bank_multiclass(probs, labels)
        perm = rng.permutation(30)
        bank_p = build_bank_multiclass(probs[perm], labels[perm])
        assert sorted(bank.scores) == sorted(bank_p.scores)

    def test_order_independence_all_builders(self, rng):
        n = 24
        perm = rng.permutation(n)
        ml_probs = rng.uniform(size=(n, 5))
        ml_labels = rng.integers(0, 2, size=(n, 5))
        a = build_bank_multilabel(ml_probs, ml_labels)
        b = build_bank_multilabel(ml_probs[perm], ml_labels[perm])
        assert sorted(a.scores) == sorted(b.scores)

        seg_probs = rng.uniform(size=(n, 4, 4))
        seg_labels = rng.integers(0, 3, size=(n, 4, 4))
        a = build_bank_segmentation(seg_probs, seg_labels)
        b = build_bank_segmentation(seg_probs[perm], seg_labels[perm])
        assert sorted(a.scores) == sorted(b.scores)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_bank_multiclass(np.ones((3, 2)) / 2, np.array([0, 1]))

    def test_multilabel_mean_over_positives(self):
        probs = np.array([[0.1, 0.8, 0.2, 0.6]])
        labels = np.array([[0, 1, 0, 1]])
        bank = build_bank_multilabel(probs, labels)
        assert bank.scores[0] == pytest.approx(0.7)

    def test_multilabel_empty_frame_rule(self):
        probs = np.array([[0.1, 0.1, 0.1]])
        labels = np.array([[0, 0, 0]])
        bank = build_bank_multilabel(probs, labels)
        assert bank.scores[0] == pytest.approx(0.1)

    def test_multilabel_single_positive(self):
        probs = np.array([[0.15, 0.85]])
        bank = build_bank_multilabel(probs, np.array([[0, 1]]))
        assert bank.scores[0] == pytest.approx(0.85)

    def test_segmentation_empty_frame_scores_zero(self, rng):
        true_probs = rng.uniform(size=(4, 4))
        labels = np.zeros((4, 4), dtype=np.int64)  # all background
        bank = build_bank_segmentation([true_probs], [labels])
        assert bank.scores[0] == 0.0

    def test_segmentation_perfect_frame(self):
        labels = np.array([[0, 1], [1, 2]])
        bank = build_bank_segmentation([np.ones((2, 2))], [labels])
        assert bank.scores[0] == 1.0

    def test_segmentation_mean_over_foreground(self):
        labels = np.array([[0, 1], [2, 0]])
        true_probs = np.array([[0.1, 0.4], [0.8, 0.1]])
        bank = build_bank_segmentation([true_probs], [labels])
        assert bank.scores[0] == pytest.approx(0.6)

    def test_segmentation_rejects_misaligned_maps(self, rng):
        with pytest.raises(ValueError, match=r"true-class maps \(2, 4, 5\) vs label maps \(2, 5, 4\)"):
            build_bank_segmentation(rng.uniform(size=(2, 4, 5)), np.zeros((2, 5, 4), dtype=np.int64))

    def test_pixel_bank_gather(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(4, 4)).reshape(4, 4, 3)
        labels = rng.integers(0, 3, size=(4, 4))
        maps = build_pixel_bank([probs], [labels])
        for y in range(4):
            for x in range(4):
                assert maps[0][y, x] == probs[y, x, labels[y, x]]

    def test_pixel_bank_uniform_prediction(self):
        probs = np.full((3, 3, 4), 0.25)
        labels = np.zeros((3, 3), dtype=np.int64)
        maps = build_pixel_bank([probs], [labels])
        assert np.allclose(maps[0], 0.25)


class TestActiveSet:
    def test_prefix_of_bank(self):
        bank = build_bank_multiclass(
            np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]), np.array([0, 1, 0])
        )
        plan = PacePlan(0.4, 0.5)
        ids0 = np.flatnonzero(active_mask(ranks(bank), plan, 0, 10))
        assert len(ids0) == 1
        assert ids0[0] == 0  # highest confidence sample

    def test_nested_growth(self, rng):
        probs = rng.dirichlet(np.ones(3), size=40)
        labels = rng.integers(0, 3, size=40)
        bank = build_bank_multiclass(probs, labels)
        plan = PacePlan(0.25, 0.6)
        previous = set()
        for e in range(20):
            current = set(np.flatnonzero(active_mask(ranks(bank), plan, e, 20)).tolist())
            assert previous <= current
            previous = current
        assert previous == set(range(40))


class TestPixelMasks:
    def test_lambda_one_all_ones(self):
        maps = [np.array([[0.5, 0.1]], dtype=np.float32)]
        plan = PacePlan(1.0, 0.4)
        masks = active_mask(ranks(np.stack(maps)), plan, 0, 10)
        assert masks[0].all()

    def test_top_half_kept(self):
        maps = [np.array([[0.9, 0.1]], dtype=np.float32)]
        plan = PacePlan(0.5, 0.4)
        masks = active_mask(ranks(np.stack(maps)), plan, 0, 10)
        assert masks[0][0, 0] and not masks[0][0, 1]

    def test_late_epochs_all_ones(self):
        maps = [np.random.default_rng(0).uniform(size=(3, 3)).astype(np.float32)]
        plan = PacePlan(0.5, 0.4)
        for e in range(4, 10):
            assert active_mask(ranks(np.stack(maps)), plan, e, 10)[0].all()

    def test_exact_count_with_ties(self):
        maps = [np.full((2, 3), 0.5, dtype=np.float32), np.full((2, 3), 0.5, dtype=np.float32)]
        plan = PacePlan(0.5, 0.5)
        masks = active_mask(ranks(np.stack(maps)), plan, 0, 10)
        assert sum(int(m.sum()) for m in masks) == 6
        # deterministic tie-break: earlier samples/pixels win
        assert masks[0].all() and not masks[1].any()

    def test_across_sample_selection(self, rng):
        maps = [rng.uniform(size=(4, 4)).astype(np.float32) for _ in range(3)]
        plan = PacePlan(0.25, 0.5)
        masks = active_mask(ranks(np.stack(maps)), plan, 0, 8)
        kept = np.concatenate([m.ravel() for m in masks])
        scores = np.concatenate([m.ravel() for m in maps])
        count = int(kept.sum())
        assert count == 12
        assert scores[kept].min() >= np.sort(scores)[-count]


class TestPixelRanks:
    def test_masks_match_per_epoch_sort(self, rng):
        for _ in range(40):
            n, h, w = rng.integers(1, 6, size=3)
            # coarse scores make ties common
            bank = (rng.integers(0, 4, size=(n, h, w)) / 4).astype(np.float32)
            epochs = int(rng.integers(1, 12))
            plan = PacePlan(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.1, 1.0)))
            bank_ranks = ranks(bank)
            for e in range(epochs):
                got = active_mask(bank_ranks, plan, e, epochs)
                assert got.shape == bank.shape and got.dtype == bool
                assert np.array_equal(got, np.stack(ref_pixel_masks(list(bank), plan, e, epochs)))

    def test_ranks_are_a_permutation_in_score_order(self, rng):
        bank = rng.uniform(size=(3, 4, 5)).astype(np.float32)
        bank_ranks = ranks(bank)
        assert sorted(bank_ranks.ravel().tolist()) == list(range(bank.size))
        assert np.all(np.diff(bank.ravel()[np.argsort(bank_ranks.ravel())]) <= 0)

    def test_rejects_non_finite_scores(self):
        bank = np.zeros((2, 2, 2), dtype=np.float32)
        bank[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ranks(bank)

    def test_pixel_bank_is_a_stack(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(2, 4, 5))
        labels = rng.integers(0, 3, size=(2, 4, 5))
        bank = build_pixel_bank(probs, labels)
        assert bank.shape == (2, 4, 5) and bank.dtype == np.float64
        for i in range(2):
            want = np.take_along_axis(probs[i], labels[i][:, :, None], axis=2)[:, :, 0]
            assert np.array_equal(bank[i], want)

    def test_pixel_bank_rejects_misaligned_maps(self, rng):
        with pytest.raises(ValueError):
            build_pixel_bank(rng.dirichlet(np.ones(3), size=(2, 4, 5)), np.zeros((2, 5, 4), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
    lam=st.floats(0.01, 1.0),
    e_all=st.floats(0.05, 1.0),
    epochs=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_pixel_masks_follow_the_pace_plan(shape, lam, e_all, epochs, seed):
    bank = np.random.default_rng(seed).uniform(size=shape).astype(np.float32)
    plan = PacePlan(lam, e_all)
    bank_ranks = ranks(bank)
    previous = np.zeros(shape, dtype=bool)
    for e in range(epochs):
        mask = active_mask(bank_ranks, plan, e, epochs)
        assert int(mask.sum()) == active_count(plan, e, epochs, bank.size)
        assert not (previous & ~mask).any()  # pixels are only ever added
        if e >= e_all * epochs:
            assert mask.all()
        previous = mask


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    levels=st.integers(1, 4),
    lam=st.floats(0.01, 1.0),
    e_all=st.floats(0.05, 1.0),
    epochs=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_masks_hold_the_bank_prefix(n, levels, lam, e_all, epochs, seed):
    # a bank as a file may hold it: shuffled ids, non-increasing coarse scores
    # with many ties; the mask's ids are the first active_count of the bank
    rng = np.random.default_rng(seed)
    scores = np.sort(rng.integers(0, levels, size=n) / levels)[::-1]
    bank = SampleBank(rng.permutation(n).astype(np.int64), scores)
    plan = PacePlan(lam, e_all)
    bank_ranks = ranks(bank)
    for e in range(epochs):
        want = np.sort(bank.sample_ids[: active_count(plan, e, epochs, n)])
        assert np.array_equal(np.flatnonzero(active_mask(bank_ranks, plan, e, epochs)), want)


class TestSampleRanks:
    def test_rank_is_the_position_in_the_bank(self):
        # all scores tie: the bank's (file) order decides, not the id order
        bank = SampleBank(np.array([2, 0, 3, 1]), np.full(4, 0.5))
        assert ranks(bank).tolist() == [1, 3, 0, 2]

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_id_outside_the_bank_range_is_refused(self, bad):
        bank = SampleBank(np.array([0, bad, 2, 3]), np.full(4, 0.5))
        with pytest.raises(ValueError, match=f"bank sample id {bad} outside the training set \\[0, 4\\)"):
            ranks(bank)


class TestSampleBankValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SampleBank(np.array([0, 1]), np.array([0.1, 0.9]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            SampleBank(np.array([0, 0]), np.array([0.9, 0.1]))

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            SampleBank(np.array([0]), np.array([0.9]), source="mystery")
