import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offdetect.errors import DataError, NumericError
from offdetect.learn import (
    logreg_loss_grad,
    predict,
    svm_objective,
    train_gnb,
    train_linear_svm,
    train_logreg,
    train_rlsc,
)
from offdetect.rks import median_heuristic_sigma, sample_map, transform


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
        # place; the weights are those of factoring the explicitly formed
        # system: X^T X + lam I (60 rows, no more unknowns than rows) or
        # X X^T + lam I (12 rows), and with an intercept the bordered
        # [[X^T X, X^T 1], [1^T X, n]] + lam I with right-hand side
        # [X^T y, sum y], or X X^T + 1 1^T + lam I with w = [X^T a, sum a]
        import scipy.linalg

        rng = np.random.default_rng(4)
        lam = 0.05
        for rows in (60, 12):
            X = rng.normal(size=(rows, 34))
            X = {"C": X, "F": np.asfortranarray(X), "strided": X[:, ::2]}[layout]
            y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
            model = train_rlsc(X, y, lam=lam, fit_intercept=fit_intercept)
            if rows == 60:
                gram, rhs = X.T @ X, X.T @ y
                if fit_intercept:
                    col_sums = X.sum(axis=0)[:, None]
                    gram = np.block([[gram, col_sums], [col_sums.T, np.full((1, 1), rows)]])
                    rhs = np.append(rhs, y.sum())
                gram = gram + lam * np.eye(len(gram))
                expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
            else:
                gram = X @ X.T + 1.0 if fit_intercept else X @ X.T
                gram = gram + lam * np.eye(rows)
                a = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), y)
                expected = np.append(X.T @ a, a.sum()) if fit_intercept else X.T @ a
            got = np.append(model.w, model.bias) if fit_intercept else model.w
            assert np.array_equal(got, expected)

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
        # Gram matrix, which LAPACK factors in place, and transients such as
        # the (rows, cols) finiteness mask; an (n, dim + 1) copy of X held
        # next to its Gram matrix exceeds the bound
        rng = np.random.default_rng(5)
        X = rng.normal(size=(rows, cols))
        y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
        train_rlsc(X[:4, :2], y[:4])  # the first call imports scipy.linalg
        gram_bytes = min(rows, cols + 1) ** 2 * X.itemsize
        tracemalloc.start()
        try:
            train_rlsc(X, y, lam=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2 + 2 * gram_bytes

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match="zero rows"):
            train_rlsc(np.zeros((0, 3)), np.zeros(0))

    def test_nonfinite_features_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError, match="non-finite"):
            train_rlsc(X, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("rows", [40, 3], ids=["primal", "dual"])
    def test_overflowing_gram_is_numeric_error(self, rows):
        # finite features whose products pass the float range
        rng = np.random.default_rng(6)
        X = rng.normal(size=(rows, 4))
        X[1, 2] = 1e200
        y = np.where(np.arange(rows) % 2 == 0, 1.0, -1.0)
        with pytest.raises(NumericError, match="overflows"):
            train_rlsc(X, y)


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
        X = np.hstack([rng.normal(size=(12, 4)), np.ones((12, 1))])
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
