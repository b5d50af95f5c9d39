import json
from types import SimpleNamespace

import numpy as np
import pytest

from pcbls import config
from pcbls.schedules import SmoothingSchedule


class TestValueAt:
    def test_exponential_default_preset_values(self):
        s = SmoothingSchedule(kind="exponential", init=0.5, rate=0.9)
        assert s.value_at(0) == 0.5
        assert s.value_at(10) == pytest.approx(0.174339, abs=1e-6)

    def test_linear_hits_floor(self):
        s = SmoothingSchedule(kind="linear", init=0.5, rate=0.015)
        assert s.value_at(40) == 0.0
        assert s.value_at(0) == 0.5
        assert s.value_at(10) == pytest.approx(0.35)

    def test_anti_growth_then_cap(self):
        s = SmoothingSchedule(kind="anti", init=0.005, rate=1.1, cap=0.5)
        assert s.value_at(0) == 0.005
        assert s.value_at(200) == 0.5
        # first capped epoch: 0.005 * 1.1^e >= 0.5  <=>  e >= ln(100)/ln(1.1)
        first = int(np.ceil(np.log(100) / np.log(1.1)))
        assert s.value_at(first) == 0.5
        assert s.value_at(first - 1) < 0.5

    def test_constant(self):
        s = SmoothingSchedule(kind="constant", init=0.1)
        assert all(s.value_at(e) == 0.1 for e in range(100))

    def test_random_bounds_and_determinism(self):
        s = SmoothingSchedule(kind="random", range_lo=0.0, range_hi=0.5, seed=7)
        values = [s.value_at(e) for e in range(50)]
        assert all(0.0 <= v < 0.5 for v in values)
        assert values == [s.value_at(e) for e in range(50)]
        other = SmoothingSchedule(kind="random", range_lo=0.0, range_hi=0.5, seed=8)
        assert values != [other.value_at(e) for e in range(50)]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            SmoothingSchedule(kind="constant", init=0.1).value_at(-1)


class TestMonotonicity:
    def test_exponential_and_linear_non_increasing(self):
        for s in (
            SmoothingSchedule(kind="exponential", init=0.5, rate=0.9),
            SmoothingSchedule(kind="linear", init=0.5, rate=0.015),
            SmoothingSchedule(kind="exponential", init=0.3, rate=0.5, floor=0.05),
        ):
            values = [s.value_at(e) for e in range(80)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(s.floor <= v <= s.init for v in values)

    def test_anti_non_decreasing(self):
        s = SmoothingSchedule(kind="anti", init=0.005, rate=1.1)
        values = [s.value_at(e) for e in range(80)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.005 <= v <= 0.5 for v in values)

    def test_exponential_never_zero_without_floor(self):
        s = SmoothingSchedule(kind="exponential", init=0.5, rate=0.9)
        assert s.value_at(500) > 0.0

    def test_linear_zero_from_init_over_rate(self):
        s = SmoothingSchedule(kind="linear", init=0.5, rate=0.015)
        cutoff = int(np.ceil(0.5 / 0.015))
        assert s.value_at(cutoff) == 0.0
        assert s.value_at(cutoff - 1) > 0.0


class TestValidation:
    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            SmoothingSchedule(kind="exponential", init=0.5, rate=1.2)
        with pytest.raises(ValueError):
            SmoothingSchedule(kind="exponential", init=0.5, rate=0.0)
        with pytest.raises(ValueError):
            SmoothingSchedule(kind="anti", init=0.005, rate=0.9)
        with pytest.raises(ValueError):
            SmoothingSchedule(kind="linear", init=0.5, rate=0.0)
        with pytest.raises(ValueError):
            SmoothingSchedule(kind="nope")

    @pytest.mark.parametrize("field", ["init", "rate", "floor", "cap", "range_lo", "range_hi"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        # NaN fails every comparison, so only an explicit check catches it
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SmoothingSchedule(kind="constant", **{field: value})

    def test_round_trip_dict(self, tmp_path):
        # to_dict is what resolved_config.json records, and config resolution
        # is how a replay reads it back
        path = tmp_path / "c.json"
        for s in (
            SmoothingSchedule(kind="exponential", init=0.5, rate=0.9, floor=0.01),
            SmoothingSchedule(kind="linear", init=0.5, rate=0.015),
            SmoothingSchedule(kind="anti", init=0.005, rate=1.1, cap=0.4),
            SmoothingSchedule(kind="random", range_lo=0.1, range_hi=0.3, seed=3),
            SmoothingSchedule(kind="constant", init=0.1),
        ):
            path.write_text(json.dumps({"schedule": s.to_dict()}))
            back = config._schedule(config.resolve_config(SimpleNamespace(config=str(path))), "schedule")
            assert back == s
            assert [back.value_at(e) for e in range(20)] == [s.value_at(e) for e in range(20)]
