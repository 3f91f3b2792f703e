import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offdetect.corpus import LabeledCorpus, TweetRecord
from offdetect.errors import DataError
from offdetect.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    evaluate,
    format_pct,
    labels_to_signs,
    macro_metrics,
    render_report,
    sweep_csv_lines,
)
from offdetect.learn import LinearModel


def per_sample_oracle(gold, predicted):
    """Independent per-sample metric computation (counting loops only)."""
    metrics = {}
    for cls in ("OFF", "NOT"):
        tp = sum(1 for g, p in zip(gold, predicted) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, predicted) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, predicted) if g == cls and p != cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        metrics[cls] = (prec, rec, f1)
    acc = sum(1 for g, p in zip(gold, predicted) if g == p) / len(gold)
    macro = [
        (metrics["OFF"][i] + metrics["NOT"][i]) / 2 for i in range(3)
    ]
    return 100 * acc, 100 * macro[0], 100 * macro[1], 100 * macro[2]


def constant_not_model(dim=1):
    return LinearModel(kind="rlsc", w=np.zeros(dim), bias=-1.0, hyper={})


def labeled_corpus(labels):
    records = [TweetRecord(id=f"t{i}", text="x", label=label) for i, label in enumerate(labels)]
    return LabeledCorpus(records=records, split="test")


def trivial_featurize(corpus):
    return np.zeros((len(corpus), 1))


class TestMacroMetrics:
    def test_all_not_predictor_on_imbalanced_test_split(self):
        # 620 NOT / 240 OFF, everything predicted NOT: the degenerate
        # baseline row that pins macro averaging and the zero-division rule
        cm = ConfusionMatrix.from_counts(off_off=0, off_not=240, not_off=0, not_not=620)
        report = macro_metrics(cm)
        assert abs(report.accuracy - 72.09) <= 0.01
        assert abs(report.macro_precision - 36.05) <= 0.01
        assert abs(report.macro_recall - 50.00) <= 0.01
        assert abs(report.macro_f1 - 41.89) <= 0.01
        # the all-NOT identity that makes the reconstruction work
        assert abs(report.macro_precision - report.accuracy / 2) < 1e-9

    def test_perfect_predictions(self):
        cm = ConfusionMatrix.from_counts(off_off=30, off_not=0, not_off=0, not_not=70)
        report = macro_metrics(cm)
        assert report.as_tuple() == (100.0, 100.0, 100.0, 100.0)

    def test_matches_per_class_hand_computation(self):
        cm = ConfusionMatrix.from_counts(off_off=50, off_not=30, not_off=20, not_not=100)
        report = macro_metrics(cm)
        gold = ["OFF"] * 80 + ["NOT"] * 120
        pred = ["OFF"] * 50 + ["NOT"] * 30 + ["OFF"] * 20 + ["NOT"] * 100
        expected = per_sample_oracle(gold, pred)
        for got, want in zip(report.as_tuple(), expected):
            assert abs(got - want) <= 0.01

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="empty"):
            macro_metrics(ConfusionMatrix.from_counts(0, 0, 0, 0))

    def test_agrees_with_per_sample_oracle_on_random_pairings(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            gold = [("OFF", "NOT")[i] for i in rng.integers(0, 2, size=n)]
            pred = [("OFF", "NOT")[i] for i in rng.integers(0, 2, size=n)]
            report = macro_metrics(ConfusionMatrix.from_pairs(gold, pred))
            expected = per_sample_oracle(gold, pred)
            for got, want in zip(report.as_tuple(), expected):
                assert abs(got - want) <= 1e-10

    @given(st.tuples(*(st.integers(0, 200) for _ in range(4))))
    def test_class_swap_invariance(self, counts):
        a, b, c, d = counts
        if a + b + c + d == 0:
            return
        direct = macro_metrics(ConfusionMatrix.from_counts(a, b, c, d))
        swapped = macro_metrics(ConfusionMatrix.from_counts(d, c, b, a))
        for x, y in zip(direct.as_tuple(), swapped.as_tuple()):
            assert abs(x - y) < 1e-12

    @given(st.tuples(*(st.integers(0, 200) for _ in range(4))))
    def test_macro_f1_between_per_class_f1s(self, counts):
        a, b, c, d = counts
        if a + b + c + d == 0:
            return
        cm = ConfusionMatrix.from_counts(a, b, c, d)
        report = macro_metrics(cm)
        f1s = []
        for i in range(2):
            tp = cm.counts[i, i]
            fp = cm.counts[1 - i, i]
            fn = cm.counts[i, 1 - i]
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(100 * (2 * p * r / (p + r) if p + r else 0.0))
        assert min(f1s) - 1e-9 <= report.macro_f1 <= max(f1s) + 1e-9

    @given(st.tuples(*(st.integers(0, 200) for _ in range(4))))
    def test_accuracy_is_frequency_weighted_recall(self, counts):
        a, b, c, d = counts
        total = a + b + c + d
        if total == 0:
            return
        cm = ConfusionMatrix.from_counts(a, b, c, d)
        report = macro_metrics(cm)
        rec_off = a / (a + b) if a + b else 0.0
        rec_not = d / (c + d) if c + d else 0.0
        weighted = 100 * (rec_off * (a + b) + rec_not * (c + d)) / total
        assert abs(report.accuracy - weighted) < 1e-9


class TestEvaluate:
    def test_constant_not_model_reproduces_degenerate_row(self):
        corpus = labeled_corpus(["NOT"] * 620 + ["OFF"] * 240)
        report = evaluate(constant_not_model(), corpus, trivial_featurize(corpus))
        assert abs(report.accuracy - 72.09) <= 0.01
        assert abs(report.macro_precision - 36.05) <= 0.01
        assert abs(report.macro_recall - 50.00) <= 0.01
        assert abs(report.macro_f1 - 41.89) <= 0.01

    def test_unlabeled_record_names_id(self):
        corpus = LabeledCorpus(
            records=[
                TweetRecord(id="ok1", text="x", label="NOT"),
                TweetRecord(id="missing7", text="y", label=None),
            ]
        )
        with pytest.raises(DataError, match="missing7"):
            evaluate(constant_not_model(), corpus, trivial_featurize(corpus))

    def test_deterministic_repeated_runs(self):
        corpus = labeled_corpus(["NOT", "OFF", "NOT", "OFF", "NOT"])
        a = evaluate(constant_not_model(), corpus, trivial_featurize(corpus))
        b = evaluate(constant_not_model(), corpus, trivial_featurize(corpus))
        assert a == b
        tsv_a, txt_a = render_report([("run", a)])
        tsv_b, txt_b = render_report([("run", b)])
        assert tsv_a == tsv_b and txt_a == txt_b

    def test_model_on_its_own_separable_training_corpus_scores_100(self):
        from offdetect.learn import train_rlsc

        train, _, featurize = separable_corpora()
        model = train_rlsc(featurize(train), labels_to_signs(train), lam=1e-6)
        report = evaluate(model, train, featurize(train))
        assert report.as_tuple() == (100.0, 100.0, 100.0, 100.0)


def separable_corpora():
    rng = np.random.default_rng(21)
    def make(n, split):
        labels = ["OFF" if i % 2 else "NOT" for i in range(n)]
        records = [TweetRecord(id=f"{split}{i}", text="x", label=lab) for i, lab in enumerate(labels)]
        return LabeledCorpus(records=records, split=split)

    def featurize(corpus):
        import zlib

        rows = []
        for rec in corpus.records:
            center = 2.0 if rec.label == "OFF" else -2.0
            rng_rec = np.random.default_rng(zlib.crc32(rec.id.encode()))
            rows.append(center + 0.3 * rng_rec.normal(size=2))
        return np.array(rows)

    return make(40, "train"), make(24, "test"), featurize


def separable_sweep_setup(**cfg_fields):
    """The separable corpora and their feature arrays, as
    ``experiment.sweep_reports`` takes them, with an svm config."""
    from pathlib import Path

    from offdetect.experiment import ExperimentConfig

    train, test, featurize = separable_corpora()
    cfg = ExperimentConfig(
        name="separable",
        train_tsv=Path("train.tsv"),
        test_tsv=Path("test.tsv"),
        feature="precomputed",
        classifier="svm",
        out_dir=Path("out"),
        **cfg_fields,
    )
    return (train, test, featurize(train), featurize(test)), cfg, featurize


class TestSweep:
    def test_sweep_dim_loads_and_featurizes_once(self, tmp_path, mini_dir, monkeypatch):
        from dataclasses import replace

        from offdetect import experiment
        from offdetect.cli import main
        from offdetect.experiment import parse_config, run_experiment

        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(
            f"train_tsv = {mini_dir}/train.tsv\ntest_tsv = {mini_dir}/test.tsv\n"
            f"test_labels = {mini_dir}/test_labels.csv\n"
            f"precomputed_file = {mini_dir}/precomputed.txt\nfeature = precomputed\n"
            "rks_dim = 16\nrks_sigma = median\nrks_seed = 3\nclassifier = rlsc\n",
            encoding="utf-8",
        )
        loads, featurized = [], []
        load_precomputed = experiment.load_precomputed
        featurize = experiment.FeaturePipeline.featurize

        def counting_load(source):
            loads.append(source)
            return load_precomputed(source)

        def counting_featurize(pipeline, corpus):
            featurized.append(corpus.split)
            return featurize(pipeline, corpus)

        monkeypatch.setattr(experiment, "load_precomputed", counting_load)
        monkeypatch.setattr(experiment.FeaturePipeline, "featurize", counting_featurize)
        dims = [16, 32, 64]
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv + ["--sweep-dim", ",".join(map(str, dims))]) == 0
        assert len(loads) == 1
        assert sorted(featurized) == ["test", "train"]
        monkeypatch.undo()

        lines = (tmp_path / "out" / "sweep_dim.csv").read_text(encoding="utf-8").splitlines()
        cfg = parse_config(cfg_path)
        for line, d in zip(lines[1:], dims):
            result = run_experiment(replace(cfg, rks=replace(cfg.rks, dim=d)), write_files=False)
            assert line == f"{d},{format_pct(result.report.accuracy)}"
        assert len(lines) == 1 + len(dims)

    C_VALUES = [0.1, 1, 100, 500, 1000]

    def _sweep_c(self, tmp_path, mini_dir, monkeypatch):
        """Runs ``sweep --sweep-C`` over ``C_VALUES`` on the mini corpus with an
        avg/svm config; returns the config path, the sweep_C.csv lines and the
        vector-table loads and featurized splits seen during the sweep."""
        from offdetect import experiment
        from offdetect.cli import main

        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(
            f"train_tsv = {mini_dir}/train.tsv\ntest_tsv = {mini_dir}/test.tsv\n"
            f"test_labels = {mini_dir}/test_labels.csv\n"
            f"vec_file = {mini_dir}/toy.vec\nfeature = avg\n"
            "classifier = svm\nsvm_epochs = 60\nseed = 5\n",
            encoding="utf-8",
        )
        loads, featurized = [], []
        load_vec_table = experiment.load_vec_table
        featurize = experiment.FeaturePipeline.featurize

        def counting_load(source, vocab_filter=None):
            loads.append(source)
            return load_vec_table(source, vocab_filter)

        def counting_featurize(pipeline, corpus):
            featurized.append(corpus.split)
            return featurize(pipeline, corpus)

        monkeypatch.setattr(experiment, "load_vec_table", counting_load)
        monkeypatch.setattr(experiment.FeaturePipeline, "featurize", counting_featurize)
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv + ["--sweep-C", ",".join(map(str, self.C_VALUES))]) == 0
        monkeypatch.undo()
        lines = (tmp_path / "out" / "sweep_C.csv").read_text(encoding="utf-8").splitlines()
        return cfg_path, lines, loads, featurized

    def test_each_corpus_featurized_once(self, tmp_path, mini_dir, monkeypatch):
        _, _, loads, featurized = self._sweep_c(tmp_path, mini_dir, monkeypatch)
        assert len(loads) == 1
        assert sorted(featurized) == ["test", "train"]

    def test_five_values_give_five_rows(self, tmp_path, mini_dir, monkeypatch):
        from dataclasses import replace

        from offdetect.experiment import parse_config, run_experiment

        cfg_path, lines, _, _ = self._sweep_c(tmp_path, mini_dir, monkeypatch)
        # one row per value, in the order given, each the accuracy of a run at that C
        assert lines[0] == "C,accuracy"
        assert len(lines) == 1 + len(self.C_VALUES)
        cfg = parse_config(cfg_path)
        for line, c in zip(lines[1:], self.C_VALUES):
            result = run_experiment(replace(cfg, C=c), write_files=False)
            assert line == f"{c:g},{format_pct(result.report.accuracy)}"

    def test_single_value_matches_direct_evaluate(self):
        from dataclasses import replace

        from offdetect.experiment import sweep_reports
        from offdetect.learn import train_linear_svm

        data, cfg, featurize = separable_sweep_setup(svm_epochs=60, seed=5)
        train, test = data[:2]
        reports = [report for _, report in sweep_reports(*data, [replace(cfg, C=10.0)])]
        model = train_linear_svm(featurize(train), labels_to_signs(train), C=10.0, epochs=60, seed=5)
        direct = evaluate(model, test, featurize(test))
        assert [report.as_tuple() for report in reports] == [direct.as_tuple()]

    def test_separable_accuracy_nondecreasing_in_c(self):
        from dataclasses import replace

        from offdetect.experiment import sweep_reports

        data, cfg, _ = separable_sweep_setup(svm_epochs=200)
        results = sweep_reports(*data, [replace(cfg, C=c) for c in self.C_VALUES])
        accs = [report.accuracy for _, report in results]
        for lo, hi in zip(accs, accs[1:]):
            assert hi >= lo - 2.0

    def test_csv_lines_format(self):
        lines = sweep_csv_lines([(0.1, 83.333333), (1000.0, 91.0)])
        assert lines[0] == "C,accuracy"
        assert lines[1] == "0.1,83.33"
        assert lines[2] == "1000,91.00"

    @pytest.mark.parametrize(
        "values, cells",
        [
            ([0.1, 1, 100, 500, 1000], ["0.1", "1", "100", "500", "1000"]),
            ([1000, 2000, 4000], ["1000", "2000", "4000"]),
        ],
    )
    def test_csv_shipped_sweep_values_keep_their_text(self, values, cells):
        lines = sweep_csv_lines([(float(v), 75.0) for v in values])
        assert [line.split(",")[0] for line in lines[1:]] == cells

    def test_csv_values_seven_digits_apart_stay_apart(self):
        lines = sweep_csv_lines([(1234567.0, 75.0), (1234568.0, 75.0)], value_name="D")
        assert lines[1:] == ["1234567.0,75.00", "1234568.0,75.00"]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    def test_csv_every_value_reads_back(self, values):
        lines = sweep_csv_lines([(v, 50.0) for v in values])
        assert [float(line.split(",")[0]) for line in lines[1:]] == values


class TestRendering:
    def test_two_decimal_rounding(self):
        assert format_pct(82.44444444) == "82.44"

    def test_half_up_boundary(self):
        assert format_pct(99.995) == "100.00"
        assert format_pct(72.085) == "72.09"

    def test_integer_renders_with_decimals(self):
        assert format_pct(50) == "50.00"

    def test_tsv_layout(self):
        reports = [
            ("first", MetricsReport(82.444, 81.13, 72.625, 75.1)),
            ("second", MetricsReport(100.0, 100.0, 100.0, 100.0)),
        ]
        tsv, text = render_report(reports)
        lines = tsv.splitlines()
        assert lines[0] == "name\tacc\tprec\trecall\tf1"
        assert lines[1] == "first\t82.44\t81.13\t72.63\t75.10"
        assert lines[2] == "second\t100.00\t100.00\t100.00\t100.00"
        assert len(text.splitlines()) == 3

    def test_row_order_stable(self):
        reports = [(name, MetricsReport(1.0, 1.0, 1.0, 1.0)) for name in ("z", "a", "m")]
        tsv, _ = render_report(reports)
        names = [line.split("\t")[0] for line in tsv.splitlines()[1:]]
        assert names == ["z", "a", "m"]

    def test_empty_report_list_rejected(self):
        with pytest.raises(DataError, match="empty"):
            render_report([])
