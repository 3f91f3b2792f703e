import math
import statistics
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from offdetect.errors import NumericError
from offdetect.rks import (
    MAX_MAP_ENTRIES,
    MAX_SEED,
    MEDIAN_MAX_POINTS,
    PCG64_ROWS_ID,
    PRNG_ID,
    median_heuristic_sigma,
    sample_map,
    transform,
)


def kernel_estimate(rks, x, y):
    """<Z(x), Z(y)>, the map's estimate of the Gaussian kernel."""
    return float(transform(rks, x) @ transform(rks, y))


def gaussian_kernel(x, y, sigma):
    return math.exp(-float(np.sum((np.asarray(x) - np.asarray(y)) ** 2)) / (2.0 * sigma**2))


class TestSampleMap:
    def test_shape_for_dim_1000(self):
        rks = sample_map(300, 1000, sigma=1.5, seed=0)
        assert rks.omega.shape == (300, 500)
        assert rks.dim_out == 1000

    def test_deterministic_in_seed(self):
        a = sample_map(20, 64, sigma=2.0, seed=7)
        b = sample_map(20, 64, sigma=2.0, seed=7)
        np.testing.assert_array_equal(a.omega, b.omega)
        c = sample_map(20, 64, sigma=2.0, seed=8)
        assert not np.array_equal(a.omega, c.omega)

    def test_odd_output_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sample_map(10, 101, sigma=1.0, seed=0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            sample_map(10, 10, sigma=0.0, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sigma_whose_frequencies_overflow_rejected(self):
        # 5e-324 passes the positivity check; a frequency of about 1e324 is inf
        with pytest.raises(ValueError, match=r"^bandwidth sigma 5e-324 is too small: a frequency overflows$"):
            sample_map(3, 10, sigma=5e-324, seed=0)
        assert np.isfinite(sample_map(3, 10, sigma=1e-300, seed=0).omega).all()

    def test_map_over_entry_cap_rejected_before_drawing(self):
        # 16 x 1,048,578 is 32 entries over 2^24; drawn, omega would be 67 MB
        assert 16 * 1_048_578 > MAX_MAP_ENTRIES == 1 << 24
        with pytest.raises(ValueError, match="16 x 1048578 exceeds the 16777216-entry limit"):
            sample_map(16, 1_048_578, sigma=1.0, seed=0)

    def test_seed_past_i64_rejected(self):
        # a model file stores the seed as an i64
        assert sample_map(3, 10, sigma=1.0, seed=MAX_SEED).seed == 2**63 - 1
        with pytest.raises(ValueError, match="seed must be <= 9223372036854775807"):
            sample_map(3, 10, sigma=1.0, seed=MAX_SEED + 1)

    def test_entry_moments(self):
        d_in, k, sigma = 4, 10**5, 2.5
        rks = sample_map(d_in, 2 * k, sigma=sigma, seed=123)
        se = (1.0 / sigma) / math.sqrt(k * d_in)
        assert abs(float(np.mean(rks.omega))) <= 3.0 * se
        assert abs(float(np.std(rks.omega)) - 1.0 / sigma) <= 0.01 / sigma


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 entries' bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values).view(np.uint64)


class TestNestedMaps:
    @settings(max_examples=60, deadline=None)
    @given(
        d_in=st.integers(1, 40),
        k=st.integers(1, 300),
        data=st.data(),
        sigma=st.floats(1e-3, 1e3),
        seed=st.integers(0, MAX_SEED),
    )
    def test_narrower_map_is_the_first_columns_bit_for_bit(self, d_in, k, data, sigma, seed):
        sub_k = data.draw(st.integers(1, k), label="sub_k")
        wide = sample_map(d_in, 2 * k, sigma, seed)
        narrow = sample_map(d_in, 2 * sub_k, sigma, seed)
        assert wide.prng == narrow.prng == PRNG_ID
        assert np.array_equal(bits(narrow.omega), bits(wide.omega[:, :sub_k]))
        assert np.array_equal(bits(wide.prefix(2 * sub_k).omega), bits(narrow.omega))

    def test_prefix_is_a_view_of_the_same_recipe(self):
        wide = sample_map(6, 40, sigma=1.5, seed=3)
        narrow = wide.prefix(10)
        assert np.shares_memory(narrow.omega, wide.omega)
        assert (narrow.d_in, narrow.dim_out, narrow.sigma, narrow.seed, narrow.prng) == (6, 10, 1.5, 3, PRNG_ID)

    @pytest.mark.parametrize("dim_out", [0, 7, 42])
    def test_prefix_outside_the_map_rejected(self, dim_out):
        with pytest.raises(ValueError, match="output dimension"):
            sample_map(6, 40, sigma=1.5, seed=3).prefix(dim_out)

    def test_row_by_row_draw_is_the_earlier_recipe_and_does_not_nest(self):
        # the draw of model files whose map block names numpy-pcg64
        rks = sample_map(5, 16, sigma=2.0, seed=11, prng=PCG64_ROWS_ID)
        expected = np.random.default_rng(11).standard_normal((5, 8)) / 2.0
        assert rks.prng == PCG64_ROWS_ID
        assert np.array_equal(bits(rks.omega), bits(expected))
        narrow = sample_map(5, 8, sigma=2.0, seed=11, prng=PCG64_ROWS_ID)
        assert not np.array_equal(narrow.omega, rks.omega[:, :4])
        with pytest.raises(ValueError, match="do not nest"):
            rks.prefix(8)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator 'mt19937'"):
            sample_map(5, 16, sigma=2.0, seed=11, prng="mt19937")


class TestTransform:
    def test_zero_vector_closed_form(self):
        rks = sample_map(6, 10, sigma=1.0, seed=0)
        z = transform(rks, np.zeros(6))
        k = rks.k
        expected = np.concatenate([np.ones(k), np.zeros(k)]) * math.sqrt(1.0 / k)
        np.testing.assert_array_equal(z, expected)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        rks = sample_map(8, 50, sigma=0.7, seed=1)
        for _ in range(20):
            z = transform(rks, rng.normal(size=8))
            assert abs(np.dot(z, z) - 1.0) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        rks = sample_map(5, 6, sigma=1.3, seed=3)
        x = rng.normal(size=5)
        k = rks.k
        expected = []
        for j in range(k):
            proj = sum(float(x[i]) * float(rks.omega[i, j]) for i in range(5))
            expected.append(math.cos(proj))
        for j in range(k):
            proj = sum(float(x[i]) * float(rks.omega[i, j]) for i in range(5))
            expected.append(math.sin(proj))
        expected = np.array(expected) * math.sqrt(1.0 / k)
        np.testing.assert_allclose(transform(rks, x), expected, atol=1e-12)

    def test_batch_matches_single_rows(self):
        rng = np.random.default_rng(4)
        rks = sample_map(7, 12, sigma=1.0, seed=5)
        X = rng.normal(size=(4, 7))
        batch = transform(rks, X)
        for i in range(4):
            np.testing.assert_allclose(batch[i], transform(rks, X[i]), atol=1e-15)

    def test_bit_identical_to_concatenated_blocks(self):
        rng = np.random.default_rng(6)
        rks = sample_map(9, 40, sigma=0.8, seed=7)
        for x in (rng.normal(size=(13, 9)), rng.normal(size=9)):
            proj = x @ rks.omega
            expected = np.concatenate([np.cos(proj), np.sin(proj)], axis=-1) * np.sqrt(1.0 / rks.k)
            assert np.array_equal(transform(rks, x), expected)

    @pytest.mark.parametrize(
        "shape, dim_out, buffers",
        [((4,), 40_000, 0), ((300, 4), 2_000, 2)],
        ids=["vector", "batch"],
    )
    def test_peak_memory_is_the_output(self, shape, dim_out, buffers):
        # the projection is written into the output's sin block, so the
        # output is the only array allocated; a separate projection would
        # add half the output.  On a batch, cos and sin also take numpy's
        # iteration buffers of 8192 doubles for their two strided operands
        rks = sample_map(4, dim_out, sigma=1.0, seed=0)
        x = np.random.default_rng(1).normal(size=shape)
        tracemalloc.start()
        try:
            z = transform(rks, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + (1 + buffers) * 64 * 1024

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_threaded_lift_matches_one_thread(self, monkeypatch, workers):
        # slices of 64 entries: 8 threads take 25 to 26 rows of a 203-row
        # batch, and each entry must keep its one-thread bits
        from offdetect import rks as rks_module

        rks = sample_map(11, 128, sigma=3.0, seed=2)
        x = np.random.default_rng(3).normal(size=(203, 11)) * 5.0
        expected = transform(rks, x)
        assert expected.size < rks_module._LIFT_SLICE_ENTRIES
        monkeypatch.setattr(rks_module, "_LIFT_SLICE_ENTRIES", 64)
        monkeypatch.setattr(rks_module, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = transform(rks, x)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, expected)

    def test_frequency_blocks_hold_the_whole_lift(self):
        # each block's cos and sin columns, written into a given buffer, are
        # the whole lift's columns for those frequencies, scaled by the whole
        # map's sqrt(1/k); a block's projection is its own matrix product
        # (one frequency takes a matrix-vector kernel), so only its rounding
        # may differ
        rks = sample_map(6, 40, sigma=1.5, seed=4)
        x = np.random.default_rng(5).normal(size=(9, 6))
        whole = transform(rks, x)
        assert np.array_equal(transform(rks, x, slice(None), out=np.empty_like(whole)), whole)
        for f0, f1 in [(0, 7), (7, 8), (8, 20)]:
            out = np.full((9, 2 * (f1 - f0)), np.nan)
            block = transform(rks, x, slice(f0, f1), out=out)
            assert block is out
            expected = np.concatenate([whole[:, f0:f1], whole[:, rks.k + f0 : rks.k + f1]], axis=1)
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_projection_is_silent_and_not_finite(self):
        rks = sample_map(3, 8, sigma=0.01, seed=0)
        z = transform(rks, np.array([[1e307, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        assert not np.isfinite(z[0]).all()
        assert np.isfinite(z[1]).all()

    def test_dimension_mismatch_rejected(self):
        rks = sample_map(5, 8, sigma=1.0, seed=0)
        with pytest.raises(ValueError, match="dim"):
            transform(rks, np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, 6, elements=st.floats(-50, 50)))
    def test_unit_norm_property(self, x):
        rks = sample_map(6, 20, sigma=2.0, seed=11)
        z = transform(rks, x)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-12


class TestApproxKernel:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(1)
        rks = sample_map(10, 40, sigma=1.0, seed=2)
        x = rng.normal(size=10)
        assert abs(kernel_estimate(rks, x, x) - 1.0) < 1e-12

    def test_distant_pair_near_zero(self):
        sigma = 1.0
        rks = sample_map(10, 4000, sigma=sigma, seed=3)
        x = np.zeros(10)
        y = np.full(10, 20.0)
        exact = gaussian_kernel(x, y, sigma)
        assert exact < 1e-10
        assert abs(kernel_estimate(rks, x, y) - exact) < 0.1

    def test_mean_abs_error_over_random_pairs(self):
        rng = np.random.default_rng(6)
        sigma = 3.0
        rks = sample_map(50, 4000, sigma=sigma, seed=7)
        errors = []
        for _ in range(100):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            errors.append(abs(kernel_estimate(rks, x, y) - gaussian_kernel(x, y, sigma)))
        assert float(np.mean(errors)) <= 0.05

    def test_unbiased_across_seeds(self):
        # S seeds x k frequencies with S*k = 1e6
        rng = np.random.default_rng(8)
        sigma = 1.5
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        exact = gaussian_kernel(x, y, sigma)
        k = 2000
        n_seeds = 500
        estimates = [
            kernel_estimate(sample_map(5, 2 * k, sigma=sigma, seed=seed), x, y)
            for seed in range(n_seeds)
        ]
        assert abs(float(np.mean(estimates)) - exact) <= 0.01

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        rks = sample_map(12, 100, sigma=2.0, seed=10)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = kernel_estimate(rks, x, y)
        for _ in range(5):
            c = rng.normal(size=12)
            assert abs(kernel_estimate(rks, x + c, y + c) - base) <= 1e-9

    def test_value_range(self):
        rng = np.random.default_rng(10)
        rks = sample_map(6, 30, sigma=1.0, seed=12)
        for _ in range(50):
            v = kernel_estimate(rks, rng.normal(size=6), rng.normal(size=6))
            assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9


class TestMedianHeuristic:
    def test_single_pair(self):
        sample = np.array([[0.0, 0.0], [0.0, 4.0]])
        assert median_heuristic_sigma(sample) == 4.0

    def test_identical_points_fall_back_to_one(self):
        sample = np.ones((5, 3))
        assert median_heuristic_sigma(sample) == 1.0

    def test_standard_normal_concentration(self):
        rng = np.random.default_rng(14)
        sample = rng.normal(size=(100, 10))
        sigma = median_heuristic_sigma(sample)
        assert 3.5 <= sigma <= 5.5
        # brute-force double-loop oracle
        dists = []
        for i in range(100):
            for j in range(i + 1, 100):
                dists.append(float(np.linalg.norm(sample[i] - sample[j])))
        assert abs(sigma - statistics.median(dists)) < 1e-12

    def test_subsample_is_deterministic(self):
        rng = np.random.default_rng(15)
        sample = rng.normal(size=(1500, 4))
        a = median_heuristic_sigma(sample, seed=1)
        b = median_heuristic_sigma(sample, seed=1)
        assert a == b

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e155, 1e200, 1e300, 1e308])
    def test_overflow_is_numeric_error(self, value):
        # one huge entry among 40 rows: at 1e155 its own Gram entries
        # overflow and the other distances round to 0, so the median alone
        # would read 0 and fall back to 1.0; from 1e200 the distances are nan
        sample = np.random.default_rng(16).normal(size=(40, 3))
        sample[5, 1] = value
        with pytest.raises(NumericError, match="bandwidth overflows"):
            median_heuristic_sigma(sample)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e10, 1e12, 1e14, 1e100])
    def test_one_outlier_keeps_the_exact_median(self, value):
        # a centre pulled toward the outlier would leave every other row far
        # from it, and their short distances would be lost to rounding
        from scipy.spatial.distance import pdist

        sample = np.random.default_rng(0).standard_normal((140, 16))
        sample[0, 0] = value
        expected = float(np.median(pdist(sample)))
        assert abs(median_heuristic_sigma(sample) - expected) <= 1e-12 * expected

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic_sigma(np.ones((1, 3)))

    @pytest.mark.parametrize("rows", [2, 3, 17, 1000, 1001])
    @pytest.mark.parametrize("dim", [1, 7, 300])
    def test_identical_unrepresentable_rows_fall_back_to_one(self, rows, dim):
        # 0.1 + 1e3 has no exact binary form, so the rows' mean need not
        # equal the rows; every pairwise distance must still be exactly 0
        assert median_heuristic_sigma(np.full((rows, dim), 0.1 + 1e3)) == 1.0

    def test_majority_of_equal_rows_falls_back_to_one(self):
        # most pairs equal (119 of 231, test_matches_pdist_oracle's example
        # below): the median distance is 0, though the Gram product alone
        # leaves 1.08e-5
        rows = np.random.default_rng(21).normal(size=(2, 10)) * 100.0
        sample = rows[[1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]]
        assert median_heuristic_sigma(sample) == 1.0

    @settings(max_examples=40, deadline=None)
    # two distinct rows among 22, most pairs equal: the Gram product leaves
    # squared distances up to 1.2e-10 between equal rows, and a median of
    # 1.08e-5 where pdist's is 0
    @example(rows=22, dim=10, log_scale=2.0, offset=0.0, distinct=2, seed=21)
    @given(
        rows=st.integers(2, 1200),
        dim=st.integers(1, 512),
        log_scale=st.floats(-3.0, 3.0),
        offset=st.floats(0.0, 1e6),
        distinct=st.one_of(st.none(), st.integers(1, 1200)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_pdist_oracle(self, rows, dim, log_scale, offset, distinct, seed):
        # scipy's direct pairwise distances on the same seeded subsample;
        # ``distinct`` rows drawn with repetition give duplicated rows, and
        # the common offset moves every row far from the origin
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(seed)
        sample = rng.normal(size=(rows, dim)) * 10.0**log_scale + offset * rng.normal(size=dim)
        if distinct is not None:
            sample = sample[rng.integers(0, min(distinct, rows), size=rows)]
        subsample = sample
        if rows > MEDIAN_MAX_POINTS:
            idx = np.random.default_rng(seed).choice(rows, size=MEDIAN_MAX_POINTS, replace=False)
            subsample = sample[np.sort(idx)]
        median = float(np.median(pdist(subsample)))
        expected = median if median > 0.0 else 1.0
        got = median_heuristic_sigma(sample, seed=seed)
        assert abs(got - expected) <= 1e-12 * expected
