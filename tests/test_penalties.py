import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtea.penalties import (
    FAMILIES,
    PenaltySpec,
    majorizer_denom,
    smoothed_penalty,
)

from oracles import majorize_scalar, penalty

NONCONVEX = ("log", "rat", "atan")


def spec_of(family, a=0.5, eps=1e-10):
    if family == "abs":
        return PenaltySpec("abs", 0.0, eps)
    return PenaltySpec(family, a, eps)


class TestSpecValidation:
    def test_negative_a_rejected(self):
        for family in ("log", "rat", "atan"):
            for a in (-0.1, np.inf, np.nan):
                with pytest.raises(ValueError, match="a must be finite and >= 0"):
                    PenaltySpec(family, a=a)

    def test_abs_with_positive_a_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec("abs", a=0.5)

    def test_nonpositive_eps_rejected(self):
        for eps in (0.0, -1e-3, np.inf, np.nan):
            with pytest.raises(ValueError, match="eps must be finite and > 0"):
                PenaltySpec("abs", eps=eps)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec("huber")

    def test_defaults(self):
        spec = PenaltySpec()
        assert spec.family == "abs" and spec.a == 0.0 and spec.eps == 1e-10


class TestPenaltyValues:
    def test_abs_identity(self):
        assert penalty(3.0, PenaltySpec("abs")) == 3.0

    def test_atan_zero(self):
        # arctan(1/sqrt(3)) = pi/6 makes the bracket vanish
        assert abs(penalty(0.0, spec_of("atan", a=0.5))) < 1e-12

    def test_log_at_e_minus_one(self):
        assert penalty(math.e - 1.0, spec_of("log", a=1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_smoothed_abs(self):
        spec = PenaltySpec("abs", eps=0.02)
        assert smoothed_penalty(0.5, spec) == pytest.approx(math.sqrt(0.27), abs=1e-12)

    def test_smoothed_at_zero_is_sqrt_eps(self):
        assert smoothed_penalty(0.0, PenaltySpec("abs", eps=1e-10)) == pytest.approx(1e-5)

    def test_denom_abs_at_zero(self):
        assert majorizer_denom(0.0, PenaltySpec("abs", eps=0.04)) == pytest.approx(0.2)

    def test_denom_atan_eps_limit(self):
        # at u=1 with vanishing smoothing: 1 * (1 + a + a^2) = 3 for a = 1
        spec = PenaltySpec("atan", a=1.0, eps=1e-14)
        assert majorizer_denom(1.0, spec) == pytest.approx(3.0, rel=1e-6)

    @pytest.mark.parametrize("family", NONCONVEX)
    def test_small_a_matches_abs(self, family):
        u = np.linspace(-10, 10, 201)
        spec = PenaltySpec(family, a=1e-8)
        assert np.max(np.abs(penalty(u, spec) - np.abs(u))) < 1e-6
        ref = PenaltySpec("abs", eps=spec.eps)
        assert np.max(np.abs(majorizer_denom(u, spec) - majorizer_denom(u, ref))) < 1e-5

    @pytest.mark.parametrize("family", NONCONVEX)
    def test_a_zero_degenerates_to_abs(self, family):
        u = np.linspace(-5, 5, 101)
        spec = PenaltySpec(family, a=0.0, eps=1e-8)
        ref = PenaltySpec("abs", eps=1e-8)
        np.testing.assert_allclose(penalty(u, spec), penalty(u, ref))
        np.testing.assert_allclose(majorizer_denom(u, spec), majorizer_denom(u, ref))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_even_and_monotone(self, family):
        spec = spec_of(family, a=0.7, eps=1e-6)
        u = np.linspace(0.0, 8.0, 400)
        vals = penalty(u, spec)
        np.testing.assert_allclose(penalty(-u, spec), vals)
        assert np.all(np.diff(vals) > 0)
        sm = smoothed_penalty(u, spec)
        np.testing.assert_allclose(smoothed_penalty(-u, spec), sm)
        assert np.all(np.diff(sm) > 0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_denom_strictly_positive(self, family):
        spec = spec_of(family, a=1.3, eps=1e-10)
        rng = np.random.default_rng(0)
        u = rng.normal(scale=3.0, size=1000)
        assert np.all(majorizer_denom(u, spec) > 0)
        assert majorizer_denom(0.0, spec) > 0


class TestMajorizer:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tangency(self, family):
        spec = spec_of(family, a=0.8, eps=1e-8)
        v = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(
            majorize_scalar(v, v, spec), smoothed_penalty(v, spec), rtol=0, atol=1e-13
        )

    def test_tangency_value_abs(self):
        spec = PenaltySpec("abs", eps=0.02)
        assert majorize_scalar(0.5, 0.5, spec) == pytest.approx(math.sqrt(0.27), abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dominates_on_grid(self, family):
        spec = spec_of(family, a=0.5, eps=0.02)
        u, v = np.meshgrid(np.linspace(-2, 2, 100), np.linspace(-2, 2, 100))
        gap = majorize_scalar(u, v, spec) - smoothed_penalty(u, spec)
        assert gap.min() >= -1e-12

    @given(
        u=st.floats(-50, 50),
        v=st.floats(-50, 50),
        a=st.floats(0.01, 5.0),
        family=st.sampled_from(FAMILIES),
    )
    @settings(max_examples=300, deadline=None)
    def test_dominates_everywhere(self, u, v, a, family):
        spec = spec_of(family, a=a, eps=1e-6)
        gap = float(majorize_scalar(u, v, spec)) - float(smoothed_penalty(u, spec))
        assert gap >= -1e-9 * max(1.0, abs(u), abs(v))


def test_scalar_in_scalar_out():
    spec = PenaltySpec("rat", a=0.4)
    assert float(penalty(1.5, spec)) > 0
    assert np.shape(penalty(1.5, spec)) == ()
    assert penalty(np.ones(7), spec).shape == (7,)
