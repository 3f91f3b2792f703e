import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offdetect.errors import DataError, NumericError
from offdetect.learn import (
    _CHOLESKY_BLOCK,
    _PANEL_ROWS,
    _cholesky_in_place,
    _cholesky_solve,
    _lower_panels,
    _sub_system,
    logreg_loss_grad,
    predict,
    svm_objective,
    train_gnb,
    train_linear_svm,
    train_logreg,
    train_rlsc,
    train_rlsc_nested,
)
from offdetect.rks import PCG64_ROWS_ID, median_heuristic_sigma, sample_map, transform


def blobs_fixture(n=50, dim=3, seed=42):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(loc=(1.2, 0.8, 0.0), scale=1.0, size=(half, dim)),
            rng.normal(loc=(-1.0, -0.6, 0.4), scale=1.0, size=(n - half, dim)),
        ]
    )
    y = np.array([1.0] * half + [-1.0] * (n - half))
    return X, y


def packed(a):
    """The row panels of the lower triangle that train_rlsc builds, cut
    from the full symmetric matrix `a`."""
    _, panels = _lower_panels(len(a))
    for panel in panels:
        i1 = panel.shape[1]
        panel[...] = a[i1 - len(panel) : i1, :i1]
    return panels


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([-1.0, 1.0, 1.0, -1.0])


def train_accuracy(model, X, y):
    preds = predict(model, X)
    signs = np.array([1.0 if label == "OFF" else -1.0 for label, _ in preds])
    return float(np.mean(signs == y))


def batch_subgradient_svm_oracle(X, y, C, steps=200_000, step_scale=0.05):
    """Full-batch subgradient descent on the primal hinge objective; returns
    the best objective value seen (upper bound on the optimum)."""
    n, dim = X.shape
    w = np.zeros(dim)
    b = 0.0
    best = svm_objective(w, b, X, y, C)
    for t in range(1, steps + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        gw = w - C * (X[active] * y[active, None]).sum(axis=0)
        gb = -C * float(y[active].sum())
        eta = step_scale / np.sqrt(t)
        w -= eta * gw
        b -= eta * gb
        best = min(best, svm_objective(w, b, X, y, C))
    return best


def _reference_svm(X, y, C, epochs, seed):
    """The per-step subgradient loop train_linear_svm must reproduce:
    returns the tail-averaged (w, bias)."""
    n, dim = X.shape
    lam = 1.0 / (C * n)
    steps = epochs * n
    order = np.random.default_rng(seed).integers(0, n, size=steps)

    w = np.zeros(dim)
    bias = 0.0
    tail_start = steps // 2
    w_sum = np.zeros(dim)
    bias_sum = 0.0
    tail = 0
    for t0 in range(steps):
        eta = 1.0 / np.sqrt(t0 + 1.0)
        i = order[t0]
        active = y[i] * (X[i] @ w + bias) < 1.0
        w *= max(0.0, 1.0 - eta * lam)
        if active:
            w += eta * y[i] * X[i]
            bias += eta * y[i]
        if t0 >= tail_start:
            w_sum += w
            bias_sum += bias
            tail += 1
    return w_sum / tail, bias_sum / tail


class TestRlsc:
    def test_separable_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train_rlsc(X, y, lam=1e-6)
        assert train_accuracy(model, X, y) == 1.0

    def test_orthonormal_design_small_lambda_limit(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(20, 5)))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        model = train_rlsc(Q, y, lam=1e-12, fit_intercept=False)
        np.testing.assert_allclose(model.w, Q.T @ y, atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        lam = 0.37
        for rows in (20, 4):  # 6 columns: the primal, then the dual system
            X = rng.normal(size=(rows, 5))
            y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
            model = train_rlsc(X, y, lam=lam)
            # independent dense solve on the explicitly formed primal system
            Xa = np.hstack([X, np.ones((rows, 1))])
            expected = np.linalg.solve(Xa.T @ Xa + lam * np.eye(6), Xa.T @ y)
            np.testing.assert_allclose(np.append(model.w, model.bias), expected, atol=1e-8)

    def test_normal_equation_residual_invariant(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            X = rng.normal(size=(30, 7))
            y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
            lam = 10.0 ** rng.uniform(-6, 1)
            model = train_rlsc(X, y, lam=lam)
            Xa = np.hstack([X, np.ones((30, 1))])
            w_full = np.append(model.w, model.bias)
            residual = (Xa.T @ Xa + lam * np.eye(8)) @ w_full - Xa.T @ y
            assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(Xa.T @ y))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_bit_identical_to_explicit_system(self, layout, fit_intercept):
        # the smaller Gram matrix is built in place, shifted and factored in
        # place; the weights are those of the module's own factor and solve
        # applied to the explicitly formed system: X^T X + lam I (60 rows,
        # no more unknowns than rows) or X X^T + lam I (12 rows), and with
        # an intercept the bordered [[X^T X, X^T 1], [1^T X, n]] + lam I
        # with right-hand side [X^T y, sum y], or X X^T + 1 1^T + lam I with
        # w = [X^T a, sum a], each passed as the panels of its lower
        # triangle.  scipy's LAPACK solve of the same system is the
        # independent oracle, to rounding
        import scipy.linalg

        def explicit_solve(gram, rhs):
            return _cholesky_solve(_cholesky_in_place(packed(gram)), rhs)

        def scipy_solve(gram, rhs):
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)

        rng = np.random.default_rng(4)
        lam = 0.05
        for rows in (60, 12):
            X = rng.normal(size=(rows, 34))
            X = {"C": X, "F": np.asfortranarray(X), "strided": X[:, ::2]}[layout]
            y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
            model = train_rlsc(X, y, lam=lam, fit_intercept=fit_intercept)
            got = np.append(model.w, model.bias) if fit_intercept else model.w
            if rows == 60:
                gram, rhs = X.T @ X, X.T @ y
                if fit_intercept:
                    col_sums = X.sum(axis=0)[:, None]
                    gram = np.block([[gram, col_sums], [col_sums.T, np.full((1, 1), rows)]])
                    rhs = np.append(rhs, y.sum())
                gram = gram + lam * np.eye(len(gram))
                expected, oracle = explicit_solve(gram, rhs), scipy_solve(gram, rhs)
            else:
                gram = X @ X.T + 1.0 if fit_intercept else X @ X.T
                gram = gram + lam * np.eye(rows)
                a, a_oracle = explicit_solve(gram, y), scipy_solve(gram, y)
                expected = np.append(X.T @ a, a.sum()) if fit_intercept else X.T @ a
                oracle = X.T @ a_oracle
                oracle = np.append(oracle, a_oracle.sum()) if fit_intercept else oracle
            assert np.array_equal(got, expected)
            assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("system", ["primal", "dual"])
    @pytest.mark.parametrize(
        "size",
        [1, _CHOLESKY_BLOCK - 1, _CHOLESKY_BLOCK, _CHOLESKY_BLOCK + 1, 2 * _CHOLESKY_BLOCK + 3]
        + [_PANEL_ROWS - 1, _PANEL_ROWS, _PANEL_ROWS + 1, 2 * _PANEL_ROWS + 3],
    )
    def test_blocked_solve_matches_lapack(self, size, system, fit_intercept):
        # k unknowns (primal) or n rows (dual) at and around the block
        # boundaries of the factorization: one block, a full one, one
        # column past it, and two full blocks plus a partial one; then the
        # same around the boundaries of the stored row panels
        import scipy.linalg

        rng = np.random.default_rng(size)
        lam = 0.1
        if system == "primal":
            dim = size - 1 if fit_intercept else size
            rows = 2 * size + 5
        else:
            rows, dim = size, size + 7
        X = rng.normal(size=(rows, dim))
        y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
        model = train_rlsc(X, y, lam=lam, fit_intercept=fit_intercept)
        Xa = np.hstack([X, np.ones((rows, 1))]) if fit_intercept else X
        if system == "primal":
            gram = Xa.T @ Xa + lam * np.eye(Xa.shape[1])
            expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), Xa.T @ y)
        else:
            gram = Xa @ Xa.T + lam * np.eye(rows)
            expected = Xa.T @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), y)
        got = np.append(model.w, model.bias) if fit_intercept else model.w
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "bad",
        [0, _CHOLESKY_BLOCK + 1, 2 * _CHOLESKY_BLOCK + 2, _PANEL_ROWS + _CHOLESKY_BLOCK + 1],
    )
    def test_indefinite_matrix_raises(self, bad):
        # a negative pivot in the first, second or last block of columns of
        # a one-panel matrix, and in the second block of the second panel
        size = 2 * _CHOLESKY_BLOCK + 3 if bad < _PANEL_ROWS else 2 * _PANEL_ROWS + 3
        rng = np.random.default_rng(bad)
        M = rng.normal(size=(size, size + 41))
        a = M @ M.T
        a[bad, bad] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_in_place(packed(a))

    def test_indefinite_gram_is_numeric_error(self):
        # two equal columns and a ridge too small to register: the Gram
        # matrix [[4, 4], [4, 4]] has an exactly zero second pivot
        X = np.ones((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(NumericError, match="solve failed"):
            train_rlsc(X, y, lam=1e-300, fit_intercept=False)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40),
        shift=st.integers(-1, 1),
        log_lam=st.floats(-6.0, 1.0),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_at_primal_dual_switch(self, n, shift, log_lam, data_seed):
        # dim + 1 unknowns in {n - 1, n, n + 1}: the last primal systems
        # (dim + 1 <= n) and the first dual one.  Near-square designs at
        # small lam reach weights in the hundreds, and any two solves of
        # such a system differ in proportion to the weights, so the 1e-8
        # bound scales with the largest weight once that exceeds 1
        dim = n - 1 + shift
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, dim))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        lam = 10.0**log_lam
        model = train_rlsc(X, y, lam=lam)
        Xa = np.hstack([X, np.ones((n, 1))])
        expected = np.linalg.solve(Xa.T @ Xa + lam * np.eye(dim + 1), Xa.T @ y)
        error = np.max(np.abs(np.append(model.w, model.bias) - expected))
        assert error <= 1e-8 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("rows, cols", [(300, 1200), (1200, 300)])
    def test_peak_memory_holds_no_widened_copy(self, rows, cols):
        # the dual (300 rows) and the primal (1200 rows) solve hold X, one
        # Gram matrix, which is factored in place, and transients such as
        # one panel of the blocked factorization; an (n, dim + 1) copy of X
        # held next to its Gram matrix exceeds the bound
        rng = np.random.default_rng(5)
        X = rng.normal(size=(rows, cols))
        y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
        gram_bytes = min(rows, cols + 1) ** 2 * X.itemsize
        tracemalloc.start()
        try:
            train_rlsc(X, y, lam=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2 + 2 * gram_bytes

    def test_dual_holds_half_the_gram_matrix(self):
        # the dual n x n system keeps only its lower triangle, in row
        # panels whose diagonal squares are stored whole: 0.59 n^2 entries
        # at n = 2,000, plus one block of columns per panel in transients
        rng = np.random.default_rng(8)
        n = 2000
        X = rng.normal(size=(n, n))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        tracemalloc.start()
        try:
            train_rlsc(X, y, lam=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.65 * n * n * X.itemsize

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match="zero rows"):
            train_rlsc(np.zeros((0, 3)), np.zeros(0))

    def test_nonfinite_features_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError, match="non-finite"):
            train_rlsc(X, np.array([1.0, -1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows", [40, 3], ids=["primal", "dual"])
    def test_strength_near_the_float_maximum_solves(self, rows):
        # the diagonal's sum passes the float range, but every entry of the
        # system is finite: w is about Z^T y / lam and the bias sum y / lam
        rng = np.random.default_rng(6)
        X = 100.0 * rng.normal(size=(rows, 4))
        y = np.where(np.arange(rows) % 3 == 0, 1.0, -1.0)
        lam = 1e308
        model = train_rlsc(X, y, lam=lam)
        np.testing.assert_allclose(model.w * lam, X.T @ y, rtol=1e-9)
        np.testing.assert_allclose(model.bias * lam, y.sum(), rtol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows", [40, 3], ids=["primal", "dual"])
    def test_overflowing_gram_is_numeric_error(self, rows):
        # finite features whose products pass the float range: the
        # NumericError reports the overflow, and no numpy warning does
        rng = np.random.default_rng(6)
        X = rng.normal(size=(rows, 4))
        X[1, 2] = 1e200
        y = np.where(np.arange(rows) % 2 == 0, 1.0, -1.0)
        with pytest.raises(NumericError, match="overflows"):
            train_rlsc(X, y)


def lift_fixture(n, d_in, dim_out, seed=3):
    """Gaussian inputs, +-1 labels and a map of width dim_out for them."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d_in))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return X, y, sample_map(d_in, dim_out, sigma=float(np.sqrt(d_in)), seed=1)


class TestRlscLift:
    # (rows, input dim, map width): primal (width + 1 <= rows) and dual
    SHAPES = [(300, 7, 200), (120, 5, 600), (97, 3, 1202)]

    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("n, d_in, dim_out", SHAPES)
    def test_one_block_is_the_whole_lift_bit_for_bit(self, n, d_in, dim_out, fit_intercept):
        X, y, rks = lift_fixture(n, d_in, dim_out)
        expected = train_rlsc(transform(rks, X), y, fit_intercept=fit_intercept)
        model = train_rlsc(X, y, fit_intercept=fit_intercept, rks=rks)
        assert np.array_equal(model.w, expected.w) and model.bias == expected.bias
        assert model.rks is rks

    @pytest.mark.parametrize("entries", [4096, 5000, 1 << 14])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("n, d_in, dim_out", SHAPES + [(800, 9, 798)])
    def test_blocks_agree_with_one_block(self, monkeypatch, n, d_in, dim_out, fit_intercept, entries):
        # more blocks only reorder the Gram matrix's and Z^T y's sums: 4 to
        # 46 blocks here, uneven ones among them, moved the weights by at
        # most 3.9e-11 of the largest (no intercept, dual) and 1.7e-11 with one
        from offdetect import learn

        X, y, rks = lift_fixture(n, d_in, dim_out)
        whole = train_rlsc(X, y, fit_intercept=fit_intercept, rks=rks)
        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", entries)
        primal = dim_out + fit_intercept <= n
        bounds = learn._lift_bounds(n, dim_out) if primal else learn._lift_bounds(rks.k, 2 * n)
        assert len(bounds) >= 4
        model = train_rlsc(X, y, fit_intercept=fit_intercept, rks=rks)
        expected = np.append(whole.w, whole.bias)
        error = np.max(np.abs(np.append(model.w, model.bias) - expected))
        assert error <= 1e-10 * np.max(np.abs(expected))

    def test_blocked_dual_holds_no_lifted_matrix(self, monkeypatch):
        # the dual lifts one block of frequencies at a time into one buffer
        # and lifts all but the last again for w: besides the Gram matrix's
        # lower triangle it holds that buffer and one panel's product, far
        # less than the (n, dim_out) lift the whole-lift solve holds
        from offdetect import learn

        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", 1 << 18)
        n, dim_out = 400, 8000
        X, y, rks = lift_fixture(n, 4, dim_out)
        assert len(learn._lift_bounds(rks.k, 2 * n)) == 13
        gram_bytes = sum(panel.nbytes for panel in _lower_panels(n)[1])
        tracemalloc.start()
        try:
            train_rlsc(X, y, rks=rks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = (1 << 18) * X.itemsize
        assert peak < gram_bytes + 2 * block_bytes
        assert peak < n * dim_out * X.itemsize / 4

    def test_later_blocks_add_their_products_in_column_slices(self, monkeypatch):
        # 12 frequency blocks each add Z_b Z_b^T into the 1,200-row dual's
        # panels 128 columns at a time: weights as with one block, and a
        # temporary of 384 x 128 floats where a whole panel's (384 x 1,200)
        # traced 2.8 MB more
        from offdetect import learn

        n, dim_out = 1200, 2400
        X, y, rks = lift_fixture(n, 4, dim_out)
        whole = train_rlsc(X, y, rks=rks)
        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", 1 << 18)
        monkeypatch.setattr(learn, "_ADD_COLUMNS", 128)
        assert len(learn._lift_bounds(rks.k, 2 * n)) == 12
        gram_bytes = sum(panel.nbytes for panel in _lower_panels(n)[1])
        tracemalloc.start()
        try:
            model = train_rlsc(X, y, rks=rks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = np.append(whole.w, whole.bias)
        error = np.max(np.abs(np.append(model.w, model.bias) - expected))
        assert error <= 1e-10 * np.max(np.abs(expected))
        slice_bytes = learn._PANEL_ROWS * 128 * X.itemsize
        assert peak < gram_bytes + (1 << 18) * X.itemsize + 3 * slice_bytes

    def test_dual_lifts_all_but_its_last_block_again(self, monkeypatch):
        # m frequency blocks: m lifts for the Gram matrix, in order, then
        # the first m - 1 again for w = Z^T a; the last block's part comes
        # from the block still in the lift buffer
        from offdetect import learn

        X, y, rks = lift_fixture(97, 3, 1202)
        whole = train_rlsc(X, y, rks=rks)
        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", 4096)
        blocks = [slice(f0, f1) for f0, f1 in learn._lift_bounds(rks.k, 2 * len(X))]
        assert len(blocks) >= 3
        lifted = []

        def counting_transform(rks, x, freqs, out):
            lifted.append(freqs)
            return transform(rks, x, freqs, out=out)

        monkeypatch.setattr(learn, "transform", counting_transform)
        model = train_rlsc(X, y, rks=rks)
        assert len(lifted) == 2 * len(blocks) - 1
        assert lifted == blocks + blocks[:-1]
        expected = np.append(whole.w, whole.bias)
        error = np.max(np.abs(np.append(model.w, model.bias) - expected))
        assert error <= 1e-10 * np.max(np.abs(expected))

    def test_dual_holds_one_lift_block_of_2_22_entries(self):
        # a 500-row dual of a 10,000-wide map, whose whole lift (40 MB) is
        # more than one 2^22-entry block: besides its Gram panels it holds
        # one block of frequencies, the scratch of later blocks' products
        # and the map; two 2^23-entry blocks would not fit in the bound
        from offdetect import learn

        assert learn._LIFT_BLOCK_ENTRIES == 1 << 22
        n, dim_out = 500, 10000
        X, y, rks = lift_fixture(n, 4, dim_out)
        assert n * dim_out > learn._LIFT_BLOCK_ENTRIES
        gram_bytes = sum(panel.nbytes for panel in _lower_panels(n)[1])
        scratch_bytes = learn._PANEL_ROWS * learn._ADD_COLUMNS * X.itemsize
        tracemalloc.start()
        try:
            train_rlsc(X, y, rks=rks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gram_bytes + (1 << 22) * X.itemsize + scratch_bytes + (1 << 20)

    @pytest.mark.parametrize("n, dim_out", [(40, 8), (5, 8)], ids=["primal", "dual"])
    def test_lift_past_the_float_range_is_data_error(self, n, dim_out):
        X, y, _ = lift_fixture(n, 3, dim_out)
        rks = sample_map(3, dim_out, sigma=0.01, seed=0)
        X[1, 0] = 1e307
        with pytest.raises(DataError, match="^feature matrix contains non-finite entries$"):
            train_rlsc(X, y, rks=rks)

    def test_map_input_mismatch_is_data_error(self):
        X, y, rks = lift_fixture(20, 3, 8)
        with pytest.raises(DataError, match="does not match map input"):
            train_rlsc(X[:, :2], y, rks=rks)


def nested_fixture(n, d_in, dims, seed=3):
    """Gaussian inputs, +-1 labels and nested maps of the widths ``dims``."""
    X, y, wide = lift_fixture(n, d_in, max(dims), seed)
    return X, y, [wide.prefix(dim) for dim in dims]


class TestRlscNested:
    # (rows, input dim, map widths): primal maps only; dual maps (600, 200)
    # and primal ones, 118 of them one unknown short of the rows; a 2-wide map
    CASES = [(300, 7, [16, 200, 64, 120]), (120, 5, [600, 40, 200, 100, 118]), (97, 3, [1202, 2, 50, 96])]

    @pytest.mark.parametrize("entries", [1 << 22, 4096])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("n, d_in, dims", CASES)
    def test_each_model_is_train_rlsc_with_its_map(self, monkeypatch, n, d_in, dims, fit_intercept, entries):
        # the widest primal map and the dual ones solve the systems
        # train_rlsc solves, bit for bit; a narrower primal map's sub-block
        # moved its weights by at most 9.0e-12 of the largest here
        from offdetect import learn

        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", entries)
        X, y, maps = nested_fixture(n, d_in, dims)
        models = train_rlsc_nested(X, y, maps, lam=1e-3, fit_intercept=fit_intercept)
        primal = [rks.dim_out for rks in maps if rks.dim_out + fit_intercept <= n]
        for rks, model in zip(maps, models):
            assert model.rks is rks and model.hyper == {"lam": 1e-3}
            alone = train_rlsc(X, y, lam=1e-3, fit_intercept=fit_intercept, rks=rks)
            expected, got = np.append(alone.w, alone.bias), np.append(model.w, model.bias)
            if rks.dim_out not in primal or rks.dim_out == max(primal):
                assert np.array_equal(got, expected)
            else:
                assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_narrower_primal_maps_neither_lift_nor_form_a_gram_matrix(self, monkeypatch):
        # each dual map lifts its m frequency blocks 2m - 1 times; the widest
        # primal map lifts each row block once; no other map lifts, and only
        # the maps that lift add Gram products
        from offdetect import learn

        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", 4096)
        X, y, maps = nested_fixture(120, 5, [600, 40, 200, 100, 118])
        lifted, grams = [], []

        def counting_transform(rks, x, freqs, out):
            lifted.append((rks.dim_out, freqs, len(x)))
            return transform(rks, x, freqs, out=out)

        add_gram = learn._add_gram
        monkeypatch.setattr(learn, "transform", counting_transform)
        monkeypatch.setattr(learn, "_add_gram", lambda panels, A, *a: grams.append(A.shape) or add_gram(panels, A, *a))
        train_rlsc_nested(X, y, maps)
        expected = []
        for dim_out in (600, 200):
            blocks = [(dim_out, slice(f0, f1), 120) for f0, f1 in learn._lift_bounds(dim_out // 2, 240)]
            expected += blocks + blocks[:-1]
        rows = learn._lift_bounds(120, 118)
        expected += [(118, slice(None), r1 - r0) for r0, r1 in rows]
        assert len(rows) >= 3
        assert lifted == expected
        assert len(grams) == len(learn._lift_bounds(300, 240)) + len(learn._lift_bounds(100, 240)) + len(rows)

    def test_maps_that_do_not_nest_rejected(self):
        X, y, _ = lift_fixture(50, 3, 8)
        wide = sample_map(3, 20, sigma=1.0, seed=0)
        for other in (sample_map(3, 8, sigma=1.0, seed=1), sample_map(3, 8, sigma=1.0, seed=0, prng=PCG64_ROWS_ID)):
            with pytest.raises(ValueError, match="^the 8-dim map is not nested in the 20-dim map$"):
                train_rlsc_nested(X, y, [wide, other])

    def test_one_map_is_train_rlsc_bit_for_bit(self):
        X, y, rks = lift_fixture(300, 7, 200)
        (model,) = train_rlsc_nested(X, y, [rks])
        alone = train_rlsc(X, y, rks=rks)
        assert np.array_equal(model.w, alone.w) and model.bias == alone.bias

    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("k", [250, 700])
    def test_sub_system_is_the_scaled_dense_sub_block(self, k, fit_intercept):
        # systems of several panels: a copied row reads source panels other
        # than its own, and a copy panel's diagonal square is mirrored
        rng = np.random.default_rng(k)
        size = 2 * k + fit_intercept
        G = rng.standard_normal((size, size))
        G += G.T
        rhs = rng.standard_normal(size)
        _, panels = _lower_panels(size)
        for panel in panels:
            i1 = panel.shape[1]
            panel[:] = G[i1 - len(panel) : i1, :i1]
        for sub_k in (1, _PANEL_ROWS // 2 - 1, _PANEL_ROWS // 2, _PANEL_ROWS // 2 + 1, k):
            idx = np.r_[0:sub_k, k : k + sub_k, 2 * k : size]
            scale = np.where(idx < 2 * k, np.sqrt(k / sub_k), 1.0)
            dense = G[np.ix_(idx, idx)] * np.outer(scale, scale)
            gram, sub, sub_rhs = _sub_system(panels, rhs, k, sub_k, fit_intercept)
            assert sum(panel.size for panel in sub) == gram.size
            for panel in sub:
                i1 = panel.shape[1]
                assert np.array_equal(panel, dense[i1 - len(panel) : i1, :i1])
            assert np.array_equal(sub_rhs, rhs[idx] * scale)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("call", ["train_rlsc", "train_linear_svm", "predict"])
def test_nonfinite_entry_is_data_error(value, position, call):
    from offdetect.learn import LinearModel

    X, y = blobs_fixture()
    X.flat[{"first": 0, "middle": X.size // 2, "last": -1}[position]] = value
    calls = {
        "train_rlsc": lambda: train_rlsc(X, y),
        "train_linear_svm": lambda: train_linear_svm(X, y, epochs=1),
        "predict": lambda: predict(LinearModel(kind="rlsc", w=np.ones(3), bias=0.0, hyper={}), X),
    }
    with pytest.raises(DataError, match="^feature matrix contains non-finite entries$"):
        calls[call]()


class TestLinearSvm:
    def test_separable_four_points_large_C(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 2.0], [2.0, 3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = train_linear_svm(X, y, C=1000.0, epochs=2000, seed=0)
        assert train_accuracy(model, X, y) == 1.0

    def test_objective_within_one_percent_of_batch_oracle(self):
        X, y = blobs_fixture()
        C = 1.0
        model = train_linear_svm(X, y, C=C, epochs=2000, seed=0)
        ours = svm_objective(model.w, model.bias, X, y, C)
        reference = batch_subgradient_svm_oracle(X, y, C, steps=50_000)
        assert ours <= 1.01 * reference
        assert ours >= 0.99 * reference  # both bound the same optimum

    @pytest.mark.parametrize("n", [140, 3310, 13240])
    def test_chunked_step_draws_equal_one_draw(self, n):
        # the solver draws its step order a step (None) or a chunk at a time
        # from one generator; the rows must be those of one draw of them all
        sizes = [None, None, None, 4096, 4095, 1, 17, None, 4096, 333]
        rng = np.random.default_rng(11)
        parts = [np.atleast_1d(rng.integers(0, n, size=size)) for size in sizes]
        whole = np.random.default_rng(11).integers(0, n, size=sum(size or 1 for size in sizes))
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("C, prefix", [(0.01, 44), (100.0, 0)])
    def test_step_order_is_drawn_per_chunk(self, monkeypatch, C, prefix):
        # at C n < 2 the run starts with steps drawn one at a time (a scalar
        # draw each), then chunks of at most _SVM_CHUNK steps follow, drawn
        # as they start; together they are one draw of the epochs x n steps,
        # which the solver never holds
        from offdetect import learn

        X, y = blobs_fixture(n=30, seed=9)
        expected = train_linear_svm(X, y, C=C, epochs=300, seed=4)
        draws = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, *args, **kwargs):
                drawn = self.rng.integers(*args, **kwargs)
                draws.append(drawn)
                return drawn

        monkeypatch.setattr(learn.np.random, "default_rng", Recording)
        model = train_linear_svm(X, y, C=C, epochs=300, seed=4)
        monkeypatch.undo()
        assert np.array_equal(model.w, expected.w) and model.bias == expected.bias
        scalars = [np.ndim(drawn) == 0 for drawn in draws]
        assert scalars == [True] * prefix + [False] * (len(draws) - prefix)
        assert max(np.size(drawn) for drawn in draws) <= learn._SVM_CHUNK
        if prefix == 0:
            assert [np.size(drawn) for drawn in draws] == [4096, 4096, 808]
        whole = default_rng(4).integers(0, 30, size=300 * 30)
        assert np.array_equal(np.concatenate([np.atleast_1d(drawn) for drawn in draws]), whole)

    def test_deterministic_bit_for_bit(self):
        X, y = blobs_fixture(seed=7)
        a = train_linear_svm(X, y, C=2.0, epochs=50, seed=3)
        b = train_linear_svm(X, y, C=2.0, epochs=50, seed=3)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.bias == b.bias

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 60),
        dim=st.integers(1, 8),
        log_c=st.floats(-4.0, 4.0),
        epochs=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_reference(self, n, dim, log_c, epochs, seed, data_seed):
        # log10 C spans the zero-shrink prefix (C n <= 1), the fast-decay
        # regime just above it, and the nearly shrink-free large-C regime
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-2, 2)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        assume(np.any(y != y[0]))  # a one-class training set is refused
        C = 10.0**log_c
        model = train_linear_svm(X, y, C=C, epochs=epochs, seed=seed)
        w_ref, bias_ref = _reference_svm(X, y, C, epochs, seed)
        got = np.append(model.w, model.bias)
        ref = np.append(w_ref, bias_ref)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("C", [0.1, 1000.0])
    def test_zero_columns_give_the_reference_bias_only_model(self, C):
        # C = 0.1 on 6 rows runs the per-step prefix (C n < 2), C = 1000 only
        # the lazy phase
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        X = np.zeros((y.shape[0], 0))
        model = train_linear_svm(X, y, C=C, epochs=40, seed=5)
        w_ref, bias_ref = _reference_svm(X, y, C, 40, seed=5)
        assert model.w.shape == w_ref.shape == (0,)
        assert abs(model.bias - bias_ref) <= 1e-9 * abs(bias_ref)

    def test_row_duplication_keeps_separable_predictions(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 2.0], [2.0, 3.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        base = train_linear_svm(X, y, C=10.0, epochs=3000, seed=0)
        X_dup = np.vstack([X, X[2]])
        y_dup = np.append(y, y[2])
        dup = train_linear_svm(X_dup, y_dup, C=10.0, epochs=3000, seed=0)
        base_labels = [label for label, _ in predict(base, X)]
        dup_labels = [label for label, _ in predict(dup, X)]
        assert base_labels == dup_labels

    def test_single_class_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(NumericError, match="degenerate training set"):
            train_linear_svm(X, np.ones(4))


class TestLogreg:
    def test_separable_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        model = train_logreg(X, y, lr=0.5, epochs=500, l2=1e-4)
        assert train_accuracy(model, X, y) == 1.0

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 4))
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        l2 = 0.05
        h = 1e-5
        for trial in range(10):
            w = rng.normal(size=5)
            _, grad = logreg_loss_grad(w, X, y, l2)
            fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                lp, _ = logreg_loss_grad(w + e, X, y, l2)
                lm, _ = logreg_loss_grad(w - e, X, y, l2)
                fd[j] = (lp - lm) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_stronger_l2_shrinks_weights_monotonically(self):
        X, y = blobs_fixture(n=40, seed=9)
        norms = []
        for l2 in (1.0, 10.0, 100.0):
            model = train_logreg(X, y, lr=0.1, epochs=500, l2=l2)
            norms.append(np.linalg.norm(np.append(model.w, model.bias)))
        assert norms[0] > norms[1] > norms[2]

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="degenerate"):
            train_logreg(np.ones((3, 2)), np.ones(3))

    @staticmethod
    def widened_descent(X, y, lr, epochs, l2):
        """Gradient descent on the explicitly widened [X, 1], its step capped
        by sigma_max([X 1])^2 from an SVD: the weights [w, bias] and the step."""
        n = len(X)
        Xa = np.hstack([X, np.ones((n, 1))])
        step = min(lr, 1.0 / (np.linalg.svd(Xa, compute_uv=False)[0] ** 2 / (4.0 * n) + l2))
        w = np.zeros(Xa.shape[1])
        for _ in range(epochs):
            margins = y * (Xa @ w)
            w -= step * (Xa.T @ (-y * 0.5 * (1.0 - np.tanh(0.5 * margins))) / n + l2 * w)
        return w, step

    @pytest.mark.parametrize("shape", [(60, 5), (20, 50)], ids=["tall", "wide"])
    def test_matches_the_widened_descent(self, shape):
        # the constant-1 column is never formed; where the step cap does not
        # bind, the weights are those of the descent on [X, 1]
        rng = np.random.default_rng(21)
        X = rng.normal(size=shape)
        y = np.where(rng.random(shape[0]) < 0.5, 1.0, -1.0)
        expected, step = self.widened_descent(X, y, lr=0.1, epochs=200, l2=1e-3)
        assert step == 0.1
        model = train_logreg(X, y, lr=0.1, epochs=200, l2=1e-3)
        got = np.append(model.w, model.bias)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(60, 5), (20, 50)], ids=["tall", "wide"])
    def test_capped_step_is_at_most_the_widened_bound(self, shape):
        # from zero weights one step moves them by -step * gradient, so the
        # weights are the widened ones times the ratio of the capped steps;
        # sigma_max(X)^2 + n is at most twice sigma_max([X 1])^2
        rng = np.random.default_rng(22)
        X = rng.normal(size=shape)
        y = np.where(rng.random(shape[0]) < 0.5, 1.0, -1.0)
        expected, _ = self.widened_descent(X, y, lr=1e9, epochs=1, l2=1e-3)
        model = train_logreg(X, y, lr=1e9, epochs=1, l2=1e-3)
        got = np.append(model.w, model.bias)
        ratio = got @ expected / (expected @ expected)
        assert 0.5 <= ratio <= 1.0 + 1e-12
        assert np.abs(got - ratio * expected).max() <= 1e-12 * np.abs(got).max()

    @pytest.mark.parametrize(
        "shape", [(20000, 20), (20, 20000), (2001, 2001)], ids=["tall", "wide", "past-2000"]
    )
    def test_holds_no_copy_of_its_input(self, shape):
        # no widened [X, 1] and no X * X temporary: the step bound reads X's
        # smaller Gram matrix, or past 2000 its squared Frobenius norm
        rng = np.random.default_rng(23)
        X = rng.normal(size=shape)
        y = np.where(np.arange(shape[0]) % 2 == 0, 1.0, -1.0)
        tracemalloc.start()
        try:
            train_logreg(X, y, epochs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "shape", [(40, 4), (3, 4), (2001, 2001)], ids=["primal-gram", "dual-gram", "past-2000"]
    )
    def test_overflowing_step_bound_is_numeric_error(self, shape):
        # finite features whose Gram matrix or squared norm passes the float
        # range: no eigen solve runs on it, and no numpy warning is shown
        rng = np.random.default_rng(24)
        X = rng.normal(size=shape)
        X[1, 2] = 1e200
        y = np.where(np.arange(shape[0]) % 2 == 0, 1.0, -1.0)
        with pytest.raises(NumericError, match="step bound overflows"):
            train_logreg(X, y)


class TestGnb:
    def test_two_separated_clusters(self):
        X = np.array([[0.0], [0.1], [-0.1], [5.0], [5.1], [4.9]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        model = train_gnb(X, y)
        assert train_accuracy(model, X, y) == 1.0

    def test_posterior_matches_closed_form(self):
        # two samples, one per class: means are the samples themselves and
        # variances clamp to the floor
        X = np.array([[1.0, 2.0], [3.0, 1.0]])
        y = np.array([1.0, -1.0])
        floor = 0.5
        model = train_gnb(X, y, var_floor=floor)
        query = np.array([[2.0, 2.0]])
        (_, score), = predict(model, query)

        def log_gauss(x, mu, var):
            return -0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)

        lp_off = np.log(0.5) + sum(log_gauss(query[0][j], X[0][j], floor) for j in range(2))
        lp_not = np.log(0.5) + sum(log_gauss(query[0][j], X[1][j], floor) for j in range(2))
        assert abs(score - (lp_off - lp_not)) < 1e-10

    def test_zero_variance_clamped_no_nan(self):
        X = np.array([[1.0, 5.0], [1.0, 5.0], [2.0, 0.0], [2.1, 0.1]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train_gnb(X, y, var_floor=1e-9)
        assert np.all(model.variances >= 1e-9)
        preds = predict(model, X)
        assert all(np.isfinite(score) for _, score in preds)

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="degenerate"):
            train_gnb(np.ones((3, 2)), np.ones(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_variance_floor_near_the_float_maximum_scores(self):
        # 2 pi var passes the float range, its logarithm does not; with
        # both classes at the floor their log-likelihoods are equal
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        model = train_gnb(X, np.array([-1.0, -1.0, 1.0, 1.0]), var_floor=1e308)
        assert [score for _, score in predict(model, X)] == [0.0] * 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_overflowing_both_classes_is_numeric_error(self):
        # a finite query whose squared distance to both class means is
        # infinite has no score sign: -inf - -inf
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        model = train_gnb(X, np.array([-1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(NumericError, match="scores overflow"):
            predict(model, np.array([[1e155]]))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "trainer, setting, message",
    [
        pytest.param(train_rlsc, "lam", "ridge strength lam", id="rlsc-lam"),
        pytest.param(train_linear_svm, "C", "control parameter C", id="svm-C"),
        pytest.param(train_logreg, "lr", "learning rate", id="logreg-lr"),
        pytest.param(train_logreg, "l2", "l2 strength", id="logreg-l2"),
        pytest.param(train_gnb, "var_floor", "variance floor", id="gnb-var_floor"),
    ],
)
def test_non_finite_hyperparameter_rejected(trainer, setting, message, value):
    X, y = blobs_fixture(n=10)
    with pytest.raises(ValueError, match=message):
        trainer(X, y, **{setting: value})


class TestPredict:
    def test_linear_score_and_label(self):
        from offdetect.learn import LinearModel

        model = LinearModel(kind="rlsc", w=np.array([1.0, 0.0]), bias=0.0, hyper={})
        ((label, score),) = predict(model, np.array([[3.0, 5.0]]))
        assert label == "OFF" and score == 3.0

    def test_negative_score_maps_to_not(self):
        from offdetect.learn import LinearModel

        model = LinearModel(kind="rlsc", w=np.array([1.0]), bias=0.0, hyper={})
        ((label, score),) = predict(model, np.array([[-2.0]]))
        assert label == "NOT" and score == -2.0

    def test_empty_feature_matrix(self):
        from offdetect.learn import LinearModel

        model = LinearModel(kind="rlsc", w=np.array([1.0, 1.0]), bias=0.0, hyper={})
        assert predict(model, np.zeros((0, 2))) == []
        model.rks = sample_map(3, 2, sigma=1.0, seed=0)
        assert predict(model, np.zeros((0, 3))) == []

    def test_lift_in_row_blocks_scores_as_the_whole_lift(self, monkeypatch):
        # 3,000 rows of a 2,000-wide lift (48 MB whole) scored 131 rows a
        # block: the whole lift's scores, with about one block traced
        from offdetect import learn

        X, y, rks = lift_fixture(300, 4, 2000)
        model = train_rlsc(X, y, rks=rks)
        raw = np.random.default_rng(8).normal(size=(3000, 4))
        expected = transform(rks, raw) @ model.w + model.bias
        monkeypatch.setattr(learn, "_LIFT_BLOCK_ENTRIES", 1 << 18)
        assert len(learn._lift_bounds(3000, 2000)) == 23
        tracemalloc.start()
        try:
            got = np.array([score for _, score in predict(model, raw)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert peak < 2 * (1 << 18) * raw.itemsize

    def test_embedded_map_composes_with_manual_transform(self):
        rng = np.random.default_rng(5)
        rks = sample_map(4, 20, sigma=1.0, seed=6)
        Xz = transform(rks, rng.normal(size=(30, 4)))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        model = train_rlsc(Xz, y, lam=1e-3)
        model.rks = rks
        raw = rng.normal(size=(5, 4))
        lifted_scores = transform(rks, raw) @ model.w + model.bias
        got_scores = np.array([score for _, score in predict(model, raw)])
        np.testing.assert_allclose(got_scores, lifted_scores, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        from offdetect.learn import LinearModel

        model = LinearModel(kind="rlsc", w=np.array([1.0, 1.0]), bias=0.0, hyper={})
        with pytest.raises(DataError, match="dim"):
            predict(model, np.zeros((2, 3)))


class TestXorLift:
    def test_raw_linear_models_cap_at_75_percent(self):
        rlsc = train_rlsc(XOR_X, XOR_Y, lam=1e-6)
        logreg = train_logreg(XOR_X, XOR_Y, lr=0.5, epochs=2000, l2=1e-6)
        svm = train_linear_svm(XOR_X, XOR_Y, C=100.0, epochs=500, seed=0)
        for model in (rlsc, logreg, svm):
            assert train_accuracy(model, XOR_X, XOR_Y) <= 0.75

    def test_lift_reaches_perfect_training_accuracy(self):
        sigma = median_heuristic_sigma(XOR_X)
        for seed in range(10):
            rks = sample_map(2, 100, sigma=sigma, seed=seed)
            model = train_rlsc(transform(rks, XOR_X), XOR_Y, lam=1e-6)
            model.rks = rks
            assert train_accuracy(model, XOR_X, XOR_Y) == 1.0
