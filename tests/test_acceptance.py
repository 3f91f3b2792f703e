"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.optimize

from offdetect.corpus import LabeledCorpus, TweetRecord
from offdetect.dmd import HodmdConfig, build_snapshots, compute_dmd, reconstruction_error
from offdetect.evaluation import evaluate
from offdetect.experiment import parse_config, run_experiment
from offdetect.learn import (
    LinearModel,
    logreg_loss_grad,
    predict,
    svm_objective,
    train_linear_svm,
    train_logreg,
    train_rlsc,
)
from offdetect.rks import median_heuristic_sigma, sample_map, transform


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def gaussian_kernel(x, y, sigma):
    return math.exp(-float(np.sum((x - y) ** 2)) / (2.0 * sigma**2))


def svm_dual_objective(X, y, C):
    """Optimal value of the soft-margin SVM dual, max sum(a) - a^T Q a / 2
    over 0 <= a <= C with y^T a = 0, solved by SLSQP; by weak duality it
    is a lower bound on the primal hinge objective's minimum."""
    Q = (y[:, None] * X) @ (y[:, None] * X).T
    result = scipy.optimize.minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(),
        np.zeros(X.shape[0]),
        jac=lambda a: Q @ a - 1.0,
        bounds=[(0.0, C)] * X.shape[0],
        constraints=[{"type": "eq", "fun": lambda a: y @ a, "jac": lambda a: y}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success, result.message
    alpha = np.clip(result.x, 0.0, C)
    assert abs(y @ alpha) <= 1e-9
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def test_c01_degenerate_row_reproduction():
    with criterion(1, "all-NOT baseline reproduces the imbalanced-split row"):
        start = time.perf_counter()
        # test split of the corpus: 860 tweets, 620 NOT / 240 OFF
        corpus = LabeledCorpus(
            records=[
                TweetRecord(id=f"n{i}", text="x", label="NOT") for i in range(620)
            ]
            + [TweetRecord(id=f"o{i}", text="x", label="OFF") for i in range(240)],
            split="test",
        )
        model = LinearModel(kind="rlsc", w=np.zeros(1), bias=-1.0, hyper={})
        report = evaluate(model, corpus, np.zeros((len(corpus), 1)))
        elapsed = time.perf_counter() - start
        assert abs(report.accuracy - 72.09) <= 0.01
        assert abs(report.macro_precision - 36.05) <= 0.01
        assert abs(report.macro_recall - 50.00) <= 0.01
        assert abs(report.macro_f1 - 41.89) <= 0.01
        assert elapsed < 1.0


def test_c02_rks_kernel_approximation():
    with criterion(2, "kernel estimate error <= 0.05 at D=4000 and improves over D=400"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        pairs = [(rng.normal(size=50), rng.normal(size=50)) for _ in range(100)]
        sigma = median_heuristic_sigma(np.array([p for pair in pairs for p in pair]))
        exact = [gaussian_kernel(x, y, sigma) for x, y in pairs]

        def mean_error(dim_out, seed):
            rks = sample_map(50, dim_out, sigma, seed)
            return float(
                np.mean(
                    [
                        abs(float(np.dot(transform(rks, x), transform(rks, y))) - k)
                        for (x, y), k in zip(pairs, exact)
                    ]
                )
            )

        err_4000 = [mean_error(4000, seed) for seed in range(10)]
        err_400 = [mean_error(400, seed) for seed in range(10)]
        elapsed = time.perf_counter() - start
        assert all(err <= 0.05 for err in err_4000)
        assert np.mean(err_4000) <= np.mean(err_400)
        assert elapsed < 10.0


def test_c03_rks_exactness_invariants():
    with criterion(3, "unit norm within 1e-12 and closed-form image of zero"):
        rng = np.random.default_rng(3)
        rks = sample_map(20, 200, sigma=1.3, seed=0)
        for _ in range(1000):
            z = transform(rks, rng.normal(size=20))
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
        k = rks.k
        expected = np.concatenate([np.ones(k), np.zeros(k)]) * math.sqrt(1.0 / k)
        np.testing.assert_array_equal(transform(rks, np.zeros(20)), expected)


def test_c04_dmd_oracle():
    with criterion(4, "5x5 rotated linear map: spectrum to 1e-8, reconstruction to 1e-6"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        spectrum = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        A = Q @ np.diag(spectrum) @ Q.T
        cols = [rng.normal(size=5) + 2.0]
        for _ in range(11):
            cols.append(A @ cols[-1])
        seq = np.column_stack(cols)  # 12 snapshots
        snap = build_snapshots(seq, 1)
        dec = compute_dmd(snap, HodmdConfig(d=1, r_max=10, sv_rel_tol=1e-10))
        got = np.sort(np.real(dec.eigenvalues))
        np.testing.assert_allclose(got, np.sort(spectrum), atol=1e-8)
        assert np.max(np.abs(np.imag(dec.eigenvalues))) <= 1e-8
        assert reconstruction_error(dec, snap) <= 1e-6
        assert time.perf_counter() - start < 1.0


def test_c05_delay_embedding_necessity():
    with criterion(5, "period-2 scalar signal needs order 2: d=1 fails, d=2 exact"):
        seq = np.array([[1.0, 2.0] * 6])
        snap1 = build_snapshots(seq, 1)
        err1 = reconstruction_error(compute_dmd(snap1, HodmdConfig(d=1)), snap1)
        snap2 = build_snapshots(seq, 2)
        err2 = reconstruction_error(compute_dmd(snap2, HodmdConfig(d=2)), snap2)
        assert err1 >= 0.1
        assert err2 <= 1e-6


def test_c06_solver_oracles():
    with criterion(6, "RLSC, logistic-gradient, and SVM solvers match their oracles"):
        rng = np.random.default_rng(6)

        # ridge weights against an independent dense normal-equations solve
        X = rng.normal(size=(20, 5))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        lam = 0.25
        model = train_rlsc(X, y, lam=lam)
        Xa = np.hstack([X, np.ones((20, 1))])
        expected = np.linalg.solve(Xa.T @ Xa + lam * np.eye(6), Xa.T @ y)
        np.testing.assert_allclose(np.append(model.w, model.bias), expected, atol=1e-8)

        # analytic logistic gradient against central finite differences
        Xl = np.hstack([rng.normal(size=(15, 4)), np.ones((15, 1))])
        yl = np.where(rng.random(15) < 0.5, 1.0, -1.0)
        h = 1e-5
        for _ in range(10):
            w = rng.normal(size=5)
            _, grad = logreg_loss_grad(w, Xl, yl, l2=0.1)
            fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd[j] = (
                    logreg_loss_grad(w + e, Xl, yl, 0.1)[0]
                    - logreg_loss_grad(w - e, Xl, yl, 0.1)[0]
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)

        # hinge objective within 1% of a tightly-converged convex solver
        half = 25
        Xs = np.vstack(
            [
                rng.normal(loc=(1.2, 0.8, 0.0), scale=1.0, size=(half, 3)),
                rng.normal(loc=(-1.0, -0.6, 0.4), scale=1.0, size=(half, 3)),
            ]
        )
        ys = np.array([1.0] * half + [-1.0] * half)
        C = 1.0
        ours = train_linear_svm(Xs, ys, C=C, epochs=2000, seed=0)
        got = svm_objective(ours.w, ours.bias, Xs, ys, C)
        # a feasible dual value bounds the primal optimum from below, so an
        # inexact solve only makes this check stricter
        ref = svm_dual_objective(Xs, ys, C)
        assert ref <= got
        assert got <= 1.01 * ref
        try:
            import cvxpy as cp
        except ImportError:
            return
        wv = cp.Variable(3)
        bv = cp.Variable()
        objective = 0.5 * cp.sum_squares(wv) + C * cp.sum(
            cp.pos(1 - cp.multiply(ys, Xs @ wv + bv))
        )
        primal_ref = cp.Problem(cp.Minimize(objective)).solve(solver=cp.CLARABEL)
        assert got <= 1.01 * primal_ref


def test_c07_xor_lift():
    with criterion(7, "XOR: every raw linear model <= 75%, lifted 100% on 10/10 seeds"):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])

        def accuracy(model):
            signs = np.array([1.0 if lab == "OFF" else -1.0 for lab, _ in predict(model, X)])
            return float(np.mean(signs == y))

        raw_models = [
            train_rlsc(X, y, lam=1e-6),
            train_logreg(X, y, lr=0.5, epochs=2000, l2=1e-6),
            train_linear_svm(X, y, C=100.0, epochs=500, seed=0),
        ]
        assert all(accuracy(m) <= 0.75 for m in raw_models)

        sigma = median_heuristic_sigma(X)
        for seed in range(10):
            rks = sample_map(2, 100, sigma, seed)
            lifted = train_rlsc(transform(rks, X), y, lam=1e-6)
            lifted.rks = rks
            assert accuracy(lifted) == 1.0


def test_c08_pipeline_determinism(tmp_path, mini_dir):
    with criterion(8, "identical config and seeds give byte-identical artifacts"):
        outputs = []
        for sub in ("first", "second"):
            cfg_path = tmp_path / f"{sub}.cfg"
            cfg_path.write_text(
                f"""
name = determinism
train_tsv = {mini_dir}/train.tsv
test_tsv = {mini_dir}/test.tsv
test_labels = {mini_dir}/test_labels.csv
vec_file = {mini_dir}/toy.vec
feature = hodmd(2)
rks_dim = 64
rks_seed = 11
classifier = rlsc
seed = 5
out_dir = {tmp_path}/{sub}
""",
                encoding="utf-8",
            )
            run_experiment(parse_config(cfg_path))
            outputs.append(
                {
                    name: (tmp_path / sub / name).read_bytes()
                    for name in ("report.tsv", "report.txt", "manifest.json", "model.offd")
                }
            )
        assert outputs[0] == outputs[1]


def test_c09_dimension_trend():
    with criterion(9, "synthetic nonlinear corpus: accuracy at D=1000 beats D=100 by >= 2 points"):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 3, size=(2000, 2))
        y = np.where((np.floor(X[:, 0]) + np.floor(X[:, 1])) % 2 == 0, 1.0, -1.0)
        Xtr, ytr = X[:1000], y[:1000]
        Xte, yte = X[1000:], y[1000:]
        sigma = median_heuristic_sigma(Xtr, seed=0)

        def mean_accuracy(dim_out):
            accs = []
            for seed in range(3):
                rks = sample_map(2, dim_out, sigma, seed)
                model = train_rlsc(transform(rks, Xtr), ytr, lam=1e-3)
                scores = transform(rks, Xte) @ model.w + model.bias
                accs.append(100.0 * float(np.mean(np.sign(scores) == yte)))
            return float(np.mean(accs))

        acc_low = mean_accuracy(100)
        acc_high = mean_accuracy(1000)
        assert acc_high >= acc_low + 2.0


def test_c10_end_to_end_smoke(tmp_path, mini_dir):
    with criterion(10, "all four feature modes x four classifiers run end to end"):
        start = time.perf_counter()
        for feature, classifier in itertools.product(
            ("avg", "dmd", "hodmd(2)", "precomputed"), ("rlsc", "svm", "logreg", "gnb")
        ):
            name = f"{feature.replace('(', '').replace(')', '')}-{classifier}"
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(
                f"""
name = {name}
train_tsv = {mini_dir}/train.tsv
test_tsv = {mini_dir}/test.tsv
test_labels = {mini_dir}/test_labels.csv
vec_file = {mini_dir}/toy.vec
precomputed_file = {mini_dir}/precomputed.txt
feature = {feature}
classifier = {classifier}
out_dir = {tmp_path}/{name}
""",
                encoding="utf-8",
            )
            result = run_experiment(parse_config(cfg_path))
            report_lines = (tmp_path / name / "report.tsv").read_text().splitlines()
            assert report_lines[0] == "name\tacc\tprec\trecall\tf1"
            cells = report_lines[1].split("\t")
            assert cells[0] == name
            for cell in cells[1:]:
                assert 0.0 <= float(cell) <= 100.0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["classifier"]["kind"] == classifier
            assert (tmp_path / name / "model.offd").is_file()
            assert all(np.isfinite(v) for v in result.report.as_tuple())
        assert time.perf_counter() - start < 60.0
