import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtea.penalties import PenaltySpec, smoothed_penalty
from rtea.regularizers import (
    WeightArray,
    combined_majorizer_weights,
    group_penalty,
    majorizer_weights,
)

from oracles import (
    combined_penalty,
    combined_weights_loops,
    dense_mask,
    group_majorizer_gap,
    group_penalty_loops,
    shift_add_sums,
    weights_loops,
    window_sums_loops,
)

ABS = PenaltySpec("abs")


def random_spec(rng, eps=None):
    family = rng.choice(["abs", "log", "rat", "atan"])
    a = 0.0 if family == "abs" else float(rng.uniform(0.05, 2.0))
    if eps is None:
        eps = 10.0 ** rng.integers(-10, -2)
    return PenaltySpec(family, a, eps)


class TestWeightArray:
    def test_example_pattern(self):
        w = WeightArray(n1=3, n0=29, m=4)
        assert len(w) == 131
        assert dense_mask(w).sum() == 15
        assert w.period == 32

    def test_structure_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n1 = int(rng.integers(1, 6))
            n0 = int(rng.integers(1, 8))
            m = int(rng.integers(1, 5))
            w = WeightArray(n1, n0, m)
            arr = dense_mask(w)
            assert len(arr) == m * (n1 + n0) + n1
            assert arr.sum() == (m + 1) * n1
            # begins and ends with a ones-run
            assert np.all(arr[:n1] == 1) and np.all(arr[-n1:] == 1)
            # periodic structure: shifting by one period maps ones-runs onto ones-runs
            unit = np.concatenate([np.ones(n1), np.zeros(n0)])
            np.testing.assert_array_equal(arr[: len(unit)], unit)

    def test_ones(self):
        w = WeightArray.ones(4)
        np.testing.assert_array_equal(dense_mask(w), np.ones(4))
        assert len(w) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            WeightArray(0, 3, 1)
        with pytest.raises(ValueError):
            WeightArray(2, -1, 1)
        with pytest.raises(ValueError):
            WeightArray(2, 3, 0)  # single run must have n0 == 0
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            WeightArray(2, 3, -1)

    @pytest.mark.parametrize("field", ["n1", "n0", "m"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0)], ids=["2.5", "3.0", "np3.0"])
    def test_non_integer_size_rejected(self, field, value):
        sizes = dict(n1=2, n0=3, m=1) | {field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got float"):
            WeightArray(**sizes)

    def test_numpy_integer_sizes_accepted(self):
        w = WeightArray(np.int64(3), np.int32(29), np.uint8(4))
        assert len(w) == 131 and w == WeightArray(3, 29, 4)


@st.composite
def mask_and_signal(draw):
    """A WeightArray (m = 0 and n0 = 0 included) and a signal of K to 3K
    samples whose magnitudes span 16 decades."""
    n1 = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    n0 = draw(st.integers(0, 5)) if m else 0
    b = WeightArray(n1, n0, m)
    n = draw(st.integers(len(b), 3 * len(b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    return b, x


@st.composite
def interleaved_shapes(draw):
    """A mask (m = 0 included) and a run of convolutions of ``x*x`` with it,
    each ``(x, valid)``: inputs of two lengths, interleaved, in the two
    shapes the solver takes, the full convolution and its valid part."""
    n1 = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    n0 = draw(st.integers(0, 5)) if m else 0
    b = WeightArray(n1, n0, m)
    k = len(b)
    lengths = draw(st.lists(st.integers(k, 3 * k + 4), min_size=2, max_size=2, unique=True))
    calls = []
    for _ in range(draw(st.integers(3, 8))):
        n = draw(st.sampled_from(lengths))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        calls.append((x, draw(st.booleans())))
    return b, calls


@st.composite
def mask_and_terms(draw):
    """A mask with m = 0..4 and K to 3K nonnegative terms to sum under it,
    as ``x*x`` and ``1/denom`` are: exact zeros among magnitudes drawn from
    a range of decades within 1e-150 .. 1e150."""
    n1 = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    n0 = draw(st.integers(0, 6)) if m else 0
    b = WeightArray(n1, n0, m)
    n = draw(st.integers(len(b), 3 * len(b)))
    lo = draw(st.integers(-150, 149))
    hi = draw(st.integers(lo, 149))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.uniform(1.0, 10.0, size=n) * 10.0 ** rng.integers(lo, hi + 1, size=n)
    v[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return b, v


class TestPeriodicConvolution:
    @settings(max_examples=200, deadline=None)
    @given(case=mask_and_terms(), valid=st.booleans())
    # the shortest inputs: N == K for the full shape, one entry for the valid
    # one, and for m = 0 both at N == n1
    @example(case=(WeightArray.ones(1), np.array([3.0])), valid=False)
    @example(case=(WeightArray.ones(3), np.array([1e-150, 0.0, 1e150])), valid=False)
    @example(case=(WeightArray.ones(3), np.array([1e-150, 0.0, 1e150])), valid=True)
    @example(case=(WeightArray(2, 3, 2), np.arange(12.0) / 7.0), valid=False)
    @example(case=(WeightArray(2, 3, 2), np.arange(12.0) / 7.0), valid=True)
    @example(case=(WeightArray(1, 0, 4), np.full(5, 0.1)), valid=True)
    def test_sums_added_in_the_fixed_order(self, case, valid):
        # bit for bit the zeros-plus-shifted-adds sum in its order, every
        # entry a new array apart from the input
        b, v = case
        got = b._convolve(v, valid)
        want = shift_add_sums(v, b, valid)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, v)

    @settings(max_examples=60, deadline=None)
    @given(case=interleaved_shapes())
    @example(case=(WeightArray(2, 3, 2), [(np.arange(1.0, 13.0), False),
                                          (np.arange(1.0, 30.0), True),
                                          (np.arange(1.0, 13.0), True),
                                          (np.arange(1.0, 30.0), False)]))
    @example(case=(WeightArray.ones(3), [(np.ones(5), False), (np.ones(9), True),
                                         (np.ones(5), True), (np.ones(9), False)]))
    def test_both_shapes_follow_the_input_length(self, case):
        # one mask at interleaved input lengths and both shapes: anything
        # kept across calls but the mask would add the box at the wrong places
        b, calls = case
        for x, valid in calls:
            dense = np.convolve(x * x, dense_mask(b), "valid" if valid else "full")
            np.testing.assert_allclose(b._convolve(x * x, valid), dense, rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=mask_and_signal())
    def test_window_sums_match_loops(self, case):
        b, x = case
        sums = b._convolve(x * x)
        assert np.all(sums >= 0)
        np.testing.assert_allclose(sums, window_sums_loops(x, dense_mask(b)), rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        case=mask_and_signal(),
        family=st.sampled_from(["abs", "log", "rat", "atan"]),
        a=st.floats(0.05, 2.0),
    )
    def test_weights_match_loops(self, case, family, a):
        b, x = case
        spec = PenaltySpec(family, 0.0 if family == "abs" else a, eps=1e-8)
        np.testing.assert_allclose(
            majorizer_weights(x, b, spec), weights_loops(x, dense_mask(b), spec), rtol=1e-12, atol=0
        )


class TestGroupPenalty:
    def test_zero_signal_floor(self):
        spec = PenaltySpec("abs", eps=1e-6)
        b = WeightArray(2, 3, 2)
        n = 30
        expected = (n + len(b) - 1) * float(smoothed_penalty(0.0, spec))
        assert group_penalty(np.zeros(n), b, spec) == pytest.approx(expected, rel=1e-12)

    def test_floor_is_strict_minimum(self):
        spec = PenaltySpec("abs", eps=1e-6)
        b = WeightArray(2, 3, 2)
        n = 30
        floor = group_penalty(np.zeros(n), b, spec)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=n)
            assert group_penalty(x, b, spec) > floor

    def test_single_ones_mask_is_l1(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        spec = PenaltySpec("abs", eps=1e-14)
        val = group_penalty(x, WeightArray.ones(1), spec)
        assert val == pytest.approx(np.sum(np.abs(x)), rel=1e-6)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        b = WeightArray(2, 3, 2)
        spec = PenaltySpec("atan", 0.4, eps=1e-8)
        assert group_penalty(x, b, spec) == pytest.approx(
            group_penalty_loops(x, dense_mask(b), spec), rel=1e-12
        )

    def test_scaling_homogeneity_near_zero_eps(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        spec = PenaltySpec("abs", eps=1e-14)
        b = WeightArray(3, 4, 2)
        for c in (0.5, 2.0, 7.0):
            assert group_penalty(c * x, b, spec) == pytest.approx(
                c * group_penalty(x, b, spec), rel=1e-6
            )

    def test_mask_longer_than_signal_rejected(self):
        with pytest.raises(ValueError):
            group_penalty(np.zeros(10), WeightArray(3, 29, 4), ABS)

    def test_bad_mask_rejected(self):
        # masks are WeightArrays only: no dense 0/1 array is accepted
        for dense in (np.array([1.0, 0.5, 1.0]), np.zeros(3), np.ones(3)):
            with pytest.raises(TypeError):
                group_penalty(np.zeros(10), dense, ABS)
            with pytest.raises(TypeError):
                majorizer_weights(np.zeros(10), dense, ABS)


class TestCombinedPenalty:
    def test_cancelling_components_hit_floor(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        spec = PenaltySpec("abs", eps=1e-8)
        k0 = 3
        floor = (20 + k0 - 1) * float(smoothed_penalty(0.0, spec))
        assert combined_penalty(x, -x, k0, spec) == pytest.approx(floor, rel=1e-12)

    def test_is_group_penalty_of_sum(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=24)
        spec = PenaltySpec("log", 0.3, eps=1e-8)
        assert combined_penalty(x, np.zeros(24), 4, spec) == pytest.approx(
            group_penalty(x, WeightArray.ones(4), spec), rel=1e-14
        )

    def test_impulse_against_bruteforce(self):
        n, k0 = 16, 3
        x1 = np.zeros(n)
        x1[7] = 1.0
        spec = PenaltySpec("abs", eps=1e-8)
        from oracles import combined_penalty_loops

        assert combined_penalty(x1, np.zeros(n), k0, spec) == pytest.approx(
            combined_penalty_loops(x1, np.zeros(n), k0, spec), rel=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combined_penalty(np.zeros(5), np.zeros(6), 2, ABS)


class TestWeights:
    def test_zero_signal_constant(self):
        spec = PenaltySpec("abs", eps=1e-4)
        r = combined_majorizer_weights(np.zeros(12), 3, spec)
        np.testing.assert_allclose(r, 300.0)

    def test_matches_bruteforce_elementwise(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=30)
        b = WeightArray(2, 4, 2)
        spec = PenaltySpec("rat", 0.6, eps=1e-8)
        fast = majorizer_weights(z, b, spec)
        slow = weights_loops(z, dense_mask(b), spec)
        assert np.max(np.abs(fast - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow)))

    def test_combined_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=25)
        spec = PenaltySpec("atan", 0.3, eps=1e-8)
        fast = combined_majorizer_weights(z, 4, spec)
        slow = combined_weights_loops(z, 4, spec)
        assert np.max(np.abs(fast - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow)))

    def test_combined_zero_group_size_rejected(self):
        with pytest.raises(ValueError, match="^k0 must be >= 1, got 0$"):
            combined_majorizer_weights(np.zeros(12), 0, ABS)

    def test_combined_equals_all_ones_mask(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=40)
        spec = PenaltySpec("abs", eps=1e-6)
        np.testing.assert_array_equal(
            combined_majorizer_weights(z, 5, spec),
            majorizer_weights(z, WeightArray.ones(5), spec),
        )

    def test_masked_positions_contribute_nothing(self):
        # zeroed mask entries must not add weight even over huge samples
        z = np.zeros(20)
        z[4] = 1e6
        spec = PenaltySpec("abs", eps=1e-6)
        b_gap = WeightArray(1, 1, 1)  # 1, 0, 1
        b_solid = WeightArray.ones(3)
        r_gap = majorizer_weights(z, b_gap, spec)
        slow = weights_loops(z, dense_mask(b_gap), spec)
        assert np.max(np.abs(r_gap - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow)))
        assert not np.allclose(r_gap, majorizer_weights(z, b_solid, spec))

    def test_strictly_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            z = rng.normal(size=30)
            spec = random_spec(rng)
            assert np.all(majorizer_weights(z, WeightArray(2, 3, 2), spec) > 0)

    def test_fast_equals_loops_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(8, 64))
            spec = random_spec(rng)
            n1 = int(rng.integers(1, 4))
            n0 = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            b = WeightArray(n1, n0, m)
            if len(b) > n:
                b = WeightArray.ones(min(3, n))
            z = rng.normal(size=n)
            fast = majorizer_weights(z, b, spec)
            slow = weights_loops(z, dense_mask(b), spec)
            assert np.max(np.abs(fast - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow)))


class TestGroupMajorizerGap:
    def test_tangency_zero(self):
        rng = np.random.default_rng(14)
        b = WeightArray(2, 3, 2)
        for _ in range(10):
            z = rng.normal(size=24)
            spec = random_spec(rng, eps=1e-8)
            assert abs(group_majorizer_gap(z, z, b, spec)) < 1e-12

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(15)
        b = WeightArray(2, 3, 2)
        worst = 0.0
        for _ in range(1000):
            x = rng.normal(size=24)
            z = rng.normal(size=24)
            spec = random_spec(rng, eps=1e-8)
            worst = min(worst, group_majorizer_gap(x, z, b, spec))
        assert worst >= -1e-10

    def test_second_order_touch(self):
        # gap(z + h*u, z) shrinks like h^2 near the anchor
        rng = np.random.default_rng(16)
        z = rng.normal(size=24)
        u = rng.normal(size=24)
        u /= np.linalg.norm(u)
        b = WeightArray(2, 3, 2)
        spec = PenaltySpec("abs", eps=1e-4)
        g1 = group_majorizer_gap(z + 1e-3 * u, z, b, spec)
        g2 = group_majorizer_gap(z + 5e-4 * u, z, b, spec)
        assert g1 > 0 and g2 > 0
        assert g1 / g2 == pytest.approx(4.0, rel=0.25)
