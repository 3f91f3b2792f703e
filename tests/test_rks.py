import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from offdetect.rks import (
    MAX_MAP_ENTRIES,
    MEDIAN_MAX_POINTS,
    approx_kernel,
    median_heuristic_sigma,
    sample_map,
    transform,
)


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

    def test_map_over_entry_cap_rejected_before_drawing(self):
        # 16 x 1,048,578 is 32 entries over 2^24; drawn, omega would be 67 MB
        assert 16 * 1_048_578 > MAX_MAP_ENTRIES == 1 << 24
        with pytest.raises(ValueError, match="16 x 1048578 exceeds the 16777216-entry limit"):
            sample_map(16, 1_048_578, sigma=1.0, seed=0)

    def test_entry_moments(self):
        d_in, k, sigma = 4, 10**5, 2.5
        rks = sample_map(d_in, 2 * k, sigma=sigma, seed=123)
        se = (1.0 / sigma) / math.sqrt(k * d_in)
        assert abs(float(np.mean(rks.omega))) <= 3.0 * se
        assert abs(float(np.std(rks.omega)) - 1.0 / sigma) <= 0.01 / sigma


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
        assert abs(approx_kernel(rks, x, x) - 1.0) < 1e-12

    def test_distant_pair_near_zero(self):
        sigma = 1.0
        rks = sample_map(10, 4000, sigma=sigma, seed=3)
        x = np.zeros(10)
        y = np.full(10, 20.0)
        exact = gaussian_kernel(x, y, sigma)
        assert exact < 1e-10
        assert abs(approx_kernel(rks, x, y) - exact) < 0.1

    def test_mean_abs_error_over_random_pairs(self):
        rng = np.random.default_rng(6)
        sigma = 3.0
        rks = sample_map(50, 4000, sigma=sigma, seed=7)
        errors = []
        for _ in range(100):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            errors.append(abs(approx_kernel(rks, x, y) - gaussian_kernel(x, y, sigma)))
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
            approx_kernel(sample_map(5, 2 * k, sigma=sigma, seed=seed), x, y)
            for seed in range(n_seeds)
        ]
        assert abs(float(np.mean(estimates)) - exact) <= 0.01

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        rks = sample_map(12, 100, sigma=2.0, seed=10)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = approx_kernel(rks, x, y)
        for _ in range(5):
            c = rng.normal(size=12)
            assert abs(approx_kernel(rks, x + c, y + c) - base) <= 1e-9

    def test_value_range(self):
        rng = np.random.default_rng(10)
        rks = sample_map(6, 30, sigma=1.0, seed=12)
        for _ in range(50):
            v = approx_kernel(rks, rng.normal(size=6), rng.normal(size=6))
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

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic_sigma(np.ones((1, 3)))

    @pytest.mark.parametrize("rows", [2, 3, 17, 1000, 1001])
    @pytest.mark.parametrize("dim", [1, 7, 300])
    def test_identical_unrepresentable_rows_fall_back_to_one(self, rows, dim):
        # 0.1 + 1e3 has no exact binary form, so the rows' mean need not
        # equal the rows; every pairwise distance must still be exactly 0
        assert median_heuristic_sigma(np.full((rows, dim), 0.1 + 1e3)) == 1.0

    @settings(max_examples=40, deadline=None)
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
