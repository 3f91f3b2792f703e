import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from offdetect.cli import main
from offdetect.corpus import load_olid_tsv
from offdetect.embed import load_precomputed
from offdetect.errors import DataError, NumericError
from offdetect.evaluation import ConfusionMatrix, macro_metrics, render_report
from offdetect.experiment import (
    ExperimentConfig,
    RksSpec,
    build_pipeline,
    export_feature_lines,
    load_corpora,
    parse_config,
    run_experiment,
)
from offdetect.learn import predict
from offdetect.model_io import load_model
from offdetect.rks import median_heuristic_sigma

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, mini_dir, extra=""):
    path.write_text(
        f"""
# mini-corpus experiment
train_tsv = {mini_dir}/train.tsv
test_tsv = {mini_dir}/test.tsv
test_labels = {mini_dir}/test_labels.csv
vec_file = {mini_dir}/toy.vec
precomputed_file = {mini_dir}/precomputed.txt
feature = avg
classifier = svm
C = 10
svm_epochs = 60
{extra}
""",
        encoding="utf-8",
    )
    return path


class TestParseConfig:
    def test_readme_table_lists_every_config_key(self):
        from offdetect.experiment import _CONFIG_KEYS

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
        documented = [
            key
            for line in section.splitlines()
            if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])
        ]
        assert sorted(documented) == sorted(_CONFIG_KEYS)

    def test_reads_keys_and_defaults(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "exp.cfg", mini_dir)
        cfg = parse_config(cfg_path)
        assert cfg.name == "exp"
        assert cfg.feature == "avg"
        assert cfg.classifier == "svm"
        assert cfg.C == 10.0
        assert cfg.svm_epochs == 60
        assert cfg.seed == 0
        assert cfg.rks is None

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        cfg_path = tmp_path / "least.cfg"
        cfg_path.write_text(
            "train_tsv = a.tsv\ntest_tsv = b.tsv\nvec_file = w.vec\nfeature = avg\n"
            "classifier = svm\n",
            encoding="utf-8",
        )
        required = ExperimentConfig(
            name="least",
            train_tsv=(tmp_path / "a.tsv").resolve(),
            test_tsv=(tmp_path / "b.tsv").resolve(),
            vec_file=(tmp_path / "w.vec").resolve(),
            feature="avg",
            classifier="svm",
            out_dir=Path("runs") / "least",
        )
        assert parse_config(cfg_path) == required
        with open(cfg_path, "a", encoding="utf-8") as fh:
            fh.write("rks_dim = 64\n")
        assert parse_config(cfg_path) == ExperimentConfig(
            **{**vars(required), "rks": RksSpec(dim=64)}
        )

    def test_hodmd_order_parsed(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "h.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = hodmd(3)"))
        cfg = parse_config(cfg_path)
        assert cfg.feature == "hodmd" and cfg.hodmd_d == 3

    def test_rks_block(self, tmp_path, mini_dir):
        cfg_path = write_config(
            tmp_path / "r.cfg", mini_dir, extra="rks_dim = 64\nrks_seed = 9\n"
        )
        cfg = parse_config(cfg_path)
        assert cfg.rks == RksSpec(dim=64, sigma=None, seed=9)

    def test_fixed_sigma(self, tmp_path, mini_dir):
        cfg_path = write_config(
            tmp_path / "r.cfg", mini_dir, extra="rks_dim = 64\nrks_sigma = 2.5\n"
        )
        assert parse_config(cfg_path).rks.sigma == 2.5

    def test_unknown_key_rejected(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "u.cfg", mini_dir, extra="wat = 1\n")
        with pytest.raises(DataError, match="unknown key"):
            parse_config(cfg_path)

    def test_missing_required_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text("train_tsv = x\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing required"):
            parse_config(cfg_path)

    def test_odd_rks_dim_rejected(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "o.cfg", mini_dir, extra="rks_dim = 65\n")
        with pytest.raises(DataError, match="even"):
            parse_config(cfg_path)

    def test_rks_with_gnb_rejected(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "g.cfg", mini_dir, extra="rks_dim = 64\n")
        text = cfg_path.read_text().replace("classifier = svm", "classifier = gnb")
        cfg_path.write_text(text)
        with pytest.raises(DataError, match="linear"):
            parse_config(cfg_path)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("lambda = 0", "lambda"),
            ("C = -1", "C"),
            ("C = nan", "C"),
            ("svm_epochs = 0", "svm_epochs"),
            ("logreg_epochs = -3", "logreg_epochs"),
            ("lr = inf", "lr"),
            ("l2 = -0.5", "l2"),
            ("var_floor = 0", "var_floor"),
            ("r_max = 0", "r_max"),
            ("sv_rel_tol = 1.5", "sv_rel_tol"),
            ("seed = -1", "seed"),
            ("rks_dim = 64\nrks_sigma = nan", "rks_sigma"),
            ("rks_dim = 64\nrks_seed = -2", "rks_seed"),
        ],
    )
    def test_out_of_range_value_rejected_before_data_loads(self, tmp_path, mini_dir, line, match):
        # the corpus paths do not exist: only the config itself may be read
        cfg_path = write_config(tmp_path / "bad.cfg", tmp_path / "absent", extra=line + "\n")
        with pytest.raises(DataError, match=match):
            parse_config(cfg_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_bare_hodmd_rejected(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "h.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = hodmd"))
        with pytest.raises(DataError, match="delay order"):
            parse_config(cfg_path)

    def test_negative_seed_override_is_data_error(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "s.cfg", mini_dir)
        argv = ["sweep", "--config", str(cfg_path), "--seed", "-1", "--sweep-C", "1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err


class TestRunExperiment:
    def test_writes_report_model_manifest(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "run.cfg", mini_dir, extra=f"out_dir = {tmp_path}/out\n")
        cfg = parse_config(cfg_path)
        result = run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "report.tsv").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "model.offd").is_file()
        assert (out / "manifest.json").is_file()
        header, row = (out / "report.tsv").read_text().splitlines()
        assert header.split("\t") == ["name", "acc", "prec", "recall", "f1"]
        assert len(row.split("\t")) == 5
        assert result.report.accuracy > 80.0

    def test_two_runs_byte_identical(self, tmp_path, mini_dir):
        contents = []
        for sub in ("a", "b"):
            cfg_path = write_config(
                tmp_path / f"{sub}.cfg", mini_dir,
                extra=f"name = same\nout_dir = {tmp_path}/{sub}\nrks_dim = 32\n",
            )
            run_experiment(parse_config(cfg_path))
            contents.append(
                {
                    name: (tmp_path / sub / name).read_bytes()
                    for name in ("report.tsv", "report.txt", "manifest.json", "model.offd")
                }
            )
        assert contents[0] == contents[1]

    def test_manifest_records_order_dim_and_seeds(self, tmp_path, mini_dir):
        cfg_path = write_config(
            tmp_path / "m.cfg", mini_dir,
            extra=f"out_dir = {tmp_path}/m\nrks_dim = 200\nrks_seed = 5\nseed = 3\n",
        )
        text = cfg_path.read_text().replace("feature = avg", "feature = hodmd(2)")
        text = text.replace("classifier = svm", "classifier = rlsc")
        cfg_path.write_text(text)
        run_experiment(parse_config(cfg_path))
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["feature"]["kind"] == "hodmd"
        assert manifest["feature"]["d"] == 2
        assert manifest["rks"]["dim"] == 200
        assert manifest["seeds"] == {"train": 3, "rks": 5}
        assert manifest["rks"]["sigma_spec"] == "median"
        assert manifest["rks"]["sigma"] > 0
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64

    def test_median_sigma_fitted_on_training_features_only(self, tmp_path, mini_dir):
        cfg_path = write_config(
            tmp_path / "s.cfg", mini_dir,
            extra=f"out_dir = {tmp_path}/s\nrks_dim = 32\nrks_seed = 4\n",
        )
        cfg = parse_config(cfg_path)
        result = run_experiment(cfg, write_files=False)
        with open(cfg.train_tsv, "rb") as fh:
            train_corpus = load_olid_tsv(fh, split="train")
        pipeline = build_pipeline(cfg, [train_corpus])
        train_only = pipeline.featurize(train_corpus)
        expected = median_heuristic_sigma(train_only, seed=4)
        assert result.manifest["rks"]["sigma"] == expected

    def test_missing_input_file_raises_data_error(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "x.cfg", mini_dir)
        text = cfg_path.read_text().replace("toy.vec", "nope.vec")
        cfg_path.write_text(text)
        with pytest.raises(DataError, match="no such file"):
            run_experiment(parse_config(cfg_path))

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_reloaded_model_reproduces_report(self, tmp_path, config, capsys):
        # the benchmark's output check: predictions of the reloaded model on
        # freshly featurized test tweets give the written report, byte for byte
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "model.offd", "rb") as fh:
            model = load_model(fh)
        cfg = parse_config(config)
        _, test = load_corpora(cfg)
        features = build_pipeline(cfg, [test]).featurize(test)
        predicted = [label for label, _ in predict(model, features)]
        gold = [rec.label for rec in test.records]
        report = macro_metrics(ConfusionMatrix.from_pairs(gold, predicted))
        tsv, _ = render_report([(cfg.name, report)])
        assert tsv == (out / "report.tsv").read_text(encoding="utf-8")

    def test_failed_run_leaves_no_report(self, tmp_path, mini_dir):
        bad_tsv = tmp_path / "bad.tsv"
        bad_tsv.write_text("id\ttweet\tsubtask_a\nt1\tok\tNOT\nbroken\n", encoding="utf-8")
        cfg_path = write_config(tmp_path / "f.cfg", mini_dir, extra=f"out_dir = {tmp_path}/f\n")
        text = cfg_path.read_text().replace(f"train_tsv = {mini_dir}/train.tsv", f"train_tsv = {bad_tsv}")
        cfg_path.write_text(text)
        with pytest.raises(DataError):
            run_experiment(parse_config(cfg_path))
        assert not (tmp_path / "f" / "report.tsv").exists()


class TestFeaturize:
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("feature", ["avg", "dmd", "hodmd(2)"])
    def test_matches_a_serial_loop_over_length_groups(
        self, tmp_path, mini_dir, monkeypatch, feature, workers
    ):
        # more workers than groups of some lengths, switching threads as
        # often as the interpreter allows: a lost or misplaced row write
        # would break the equality with one thread featurizing each group
        from offdetect import experiment
        from offdetect.dmd import sentence_feature
        from offdetect.embed import average_embedding, token_matrix

        cfg_path = write_config(tmp_path / "g.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", f"feature = {feature}"))
        cfg = parse_config(cfg_path)
        corpora = load_corpora(cfg)
        pipeline = build_pipeline(cfg, list(corpora))
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            features = [pipeline.featurize(corpus) for corpus in corpora]
        finally:
            sys.setswitchinterval(interval)
        for corpus, got in zip(corpora, features):
            rows = [pipeline.table.rows(tokens) for tokens in pipeline._tokens(corpus)]
            groups: dict[int, list[int]] = {}
            for i, tweet_rows in enumerate(rows):
                groups.setdefault(len(tweet_rows), []).append(i)
            expected = np.zeros((len(rows), pipeline.table.dim))
            for members in groups.values():
                block = np.array([rows[i] for i in members], dtype=np.intp)
                if feature == "avg":
                    expected[members] = average_embedding(block, pipeline.table)
                else:
                    stack = token_matrix(block, pipeline.table)
                    expected[members] = sentence_feature(stack, pipeline.hodmd)
            assert len(groups) > 1
            assert np.array_equal(got, expected)


class TestExportFeatures:
    def test_round_trip_through_precomputed_loader(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "e.cfg", mini_dir)
        cfg = parse_config(cfg_path)
        lines = export_feature_lines(cfg)
        table = load_precomputed("\n".join(lines) + "\n")
        with open(cfg.train_tsv, "rb") as fh:
            train_corpus = load_olid_tsv(fh, split="train")
        pipeline = build_pipeline(cfg, [train_corpus])
        features = pipeline.featurize(train_corpus)
        for tweet_id, row in zip(train_corpus.ids(), features):
            np.testing.assert_allclose(table.matrix[table.index[tweet_id]], row, atol=1e-9)

    def test_line_field_count(self, tmp_path, mini_dir):
        cfg = parse_config(write_config(tmp_path / "c.cfg", mini_dir))
        lines = export_feature_lines(cfg)
        assert len(lines) == 200
        assert all(len(line.split()) == 1 + 8 for line in lines)

    def test_empty_corpus_gives_empty_dump(self, tmp_path, mini_dir):
        empty = tmp_path / "empty.tsv"
        empty.write_text("id\ttweet\tsubtask_a\n", encoding="utf-8")
        cfg_path = write_config(tmp_path / "e2.cfg", mini_dir)
        text = cfg_path.read_text()
        text = text.replace(f"train_tsv = {mini_dir}/train.tsv", f"train_tsv = {empty}")
        text = text.replace(f"test_tsv = {mini_dir}/test.tsv", f"test_tsv = {empty}")
        text = text.replace(f"test_labels = {mini_dir}/test_labels.csv", "")
        cfg_path.write_text(text)
        assert export_feature_lines(parse_config(cfg_path)) == []


class TestCli:
    def test_run_command(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli.cfg", mini_dir)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.tsv").is_file()
        assert "acc" in capsys.readouterr().out

    def test_export_command(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli2.cfg", mini_dir)
        code = main(["export-features", "--config", str(cfg_path), "--out", str(tmp_path / "o2")])
        assert code == 0
        dump = (tmp_path / "o2" / "features.txt").read_text().splitlines()
        assert len(dump) == 200

    def test_sweep_c_writes_csv(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli3.cfg", mini_dir)
        code = main(
            ["sweep", "--config", str(cfg_path), "--sweep-C", "0.1,1", "--out", str(tmp_path / "o3")]
        )
        assert code == 0
        lines = (tmp_path / "o3" / "sweep_C.csv").read_text().splitlines()
        assert lines[0] == "C,accuracy"
        assert len(lines) == 3

    def test_sweep_c_needs_svm_classifier(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli3b.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("classifier = svm", "classifier = rlsc"))
        code = main(
            ["sweep", "--config", str(cfg_path), "--sweep-C", "0.1,1", "--out", str(tmp_path / "o3b")]
        )
        assert code == 1
        assert "rlsc" in capsys.readouterr().err
        assert not (tmp_path / "o3b").exists()

    def test_sweep_c_nonpositive_value_is_data_error(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli3c.cfg", mini_dir)
        code = main(
            ["sweep", "--config", str(cfg_path), "--sweep-C", "1,-2", "--out", str(tmp_path / "o3c")]
        )
        assert code == 2
        assert not (tmp_path / "o3c").exists()

    def test_sweep_c_empty_list_is_usage_error(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli3d.cfg", mini_dir)
        code = main(
            ["sweep", "--config", str(cfg_path), "--sweep-C", " , ", "--out", str(tmp_path / "o3d")]
        )
        assert code == 1
        assert "empty C list" in capsys.readouterr().err
        assert not (tmp_path / "o3d").exists()

    @pytest.mark.parametrize("feature", ["avg", "hodmd(2)"])
    @pytest.mark.parametrize(
        "command",
        [["run"], ["sweep", "--sweep-C", "1,10"], ["sweep", "--sweep-dim", "16,32"]],
        ids=["run", "sweep-C", "sweep-dim"],
    )
    def test_each_tweet_tokenized_once(self, tmp_path, mini_dir, monkeypatch, feature, command):
        from offdetect import experiment

        texts = []
        for name in ("train.tsv", "test.tsv"):
            with open(mini_dir / name, "rb") as fh:
                texts += [rec.text for rec in load_olid_tsv(fh).records]
        tokenized = []
        tokenize_clean = experiment.tokenize_clean

        def counting(text, stopwords):
            tokenized.append(text)
            return tokenize_clean(text, stopwords)

        monkeypatch.setattr(experiment, "tokenize_clean", counting)
        cfg_path = write_config(tmp_path / "tok.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", f"feature = {feature}"))
        argv = [command[0], "--config", str(cfg_path), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 0
        assert sorted(tokenized) == sorted(texts)

    def test_sweep_dim_writes_csv(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "cli4.cfg", mini_dir)
        code = main(
            ["sweep", "--config", str(cfg_path), "--sweep-dim", "16,32", "--out", str(tmp_path / "o4")]
        )
        assert code == 0
        lines = (tmp_path / "o4" / "sweep_dim.csv").read_text().splitlines()
        assert lines[0] == "D,accuracy"
        assert len(lines) == 3

    def test_sweep_dim_odd_value_is_data_error(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli4b.cfg", mini_dir)
        code = main(
            ["sweep", "--config", str(cfg_path), "--sweep-dim", "16,15", "--out", str(tmp_path / "o4b")]
        )
        assert code == 2
        assert not (tmp_path / "o4b").exists()

    @pytest.mark.parametrize("rows", [0, 1])
    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--sweep-dim", "20,40"]], ids=["run", "sweep-dim"]
    )
    def test_tiny_training_set_with_median_lift_is_data_error(
        self, tmp_path, mini_dir, capsys, rows, command
    ):
        lines = (mini_dir / "train.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("".join(lines[: 1 + rows]), encoding="utf-8")
        cfg_path = write_config(tmp_path / "tiny.cfg", mini_dir, extra="rks_dim = 20\n")
        text = cfg_path.read_text().replace(f"train_tsv = {mini_dir}/train.tsv", f"train_tsv = {tiny}")
        cfg_path.write_text(text.replace("feature = avg", "feature = precomputed"))
        out = tmp_path / "o"
        assert main([command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["run"], ["export-features"], ["sweep", "--sweep-C", "1,10"], ["sweep", "--sweep-dim", "16"]],
        ids=["run", "export", "sweep-C", "sweep-dim"],
    )
    def test_failed_command_leaves_no_output_directory(self, tmp_path, mini_dir, capsys, command):
        bad_tsv = tmp_path / "bad.tsv"
        bad_tsv.write_text("id\ttweet\tsubtask_a\nt1\tok\tNOT\nbroken\n", encoding="utf-8")
        cfg_path = write_config(tmp_path / "f.cfg", mini_dir)
        text = cfg_path.read_text().replace(f"train_tsv = {mini_dir}/train.tsv", f"train_tsv = {bad_tsv}")
        cfg_path.write_text(text)
        out = tmp_path / "o"
        assert main([command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--sweep-dim", "100,1048578"]], ids=["run", "sweep-dim"]
    )
    def test_map_over_entry_cap_is_data_error(
        self, tmp_path, mini_dir, capsys, monkeypatch, command
    ):
        # 16-dim precomputed vectors: a 1,048,578-wide map is 32 entries over
        # 2^24; the sweep refuses it before training its valid D=100 point
        import offdetect.experiment as experiment_mod

        fits = []
        train_rlsc = experiment_mod.train_rlsc
        monkeypatch.setattr(
            experiment_mod, "train_rlsc", lambda *a, **k: fits.append(1) or train_rlsc(*a, **k)
        )
        text = (CONFIGS / "precomputed_rks_rlsc.cfg").read_text(encoding="utf-8")
        text = text.replace("../data/mini", str(mini_dir))
        if command == ["run"]:
            text = text.replace("rks_dim = 200", "rks_dim = 1048578")
        cfg_path = tmp_path / "cap.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main([command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "16 x 1048578 exceeds the 16777216-entry limit" in err
        assert not out.exists()
        assert fits == []

    @pytest.mark.parametrize(
        "config, command",
        [(path, ["run"]) for path in sorted(CONFIGS.glob("*.cfg"))]
        + [(CONFIGS / "hodmd2_rks_rlsc.cfg", ["sweep", "--sweep-dim", "16,32"])],
        ids=[path.stem for path in sorted(CONFIGS.glob("*.cfg"))] + ["sweep-dim"],
    )
    def test_vector_table_freed_before_training(self, tmp_path, monkeypatch, config, command):
        import weakref

        from offdetect import experiment

        tables, alive_at_train = [], []
        build_pipeline, train = experiment.build_pipeline, experiment._train

        def recording_build(*args):
            pipeline = build_pipeline(*args)
            tables.append(weakref.ref(pipeline.table.matrix))
            return pipeline

        def checking_train(*args):
            alive_at_train.append(tables[0]() is not None)
            return train(*args)

        monkeypatch.setattr(experiment, "build_pipeline", recording_build)
        monkeypatch.setattr(experiment, "_train", checking_train)
        argv = [command[0], "--config", str(config), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 0
        assert len(tables) == 1
        assert alive_at_train[0] is False

    def test_precomputed_table_missing_a_test_id_fails_before_training(
        self, tmp_path, mini_dir, capsys, monkeypatch
    ):
        from offdetect import experiment

        with open(mini_dir / "test.tsv", "rb") as fh:
            dropped = load_olid_tsv(fh).records[-1].id
        lines = (mini_dir / "precomputed.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        table = tmp_path / "precomputed.txt"
        table.write_text("".join(l for l in lines if l.split()[0] != dropped), encoding="utf-8")
        assert len(table.read_text(encoding="utf-8").splitlines()) == len(lines) - 1
        cfg_path = write_config(tmp_path / "p.cfg", mini_dir)
        text = cfg_path.read_text().replace(f"{mini_dir}/precomputed.txt", str(table))
        cfg_path.write_text(text.replace("feature = avg", "feature = precomputed"))
        trained = []
        train = experiment._train
        monkeypatch.setattr(experiment, "_train", lambda *a: trained.append(1) or train(*a))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"precomputed table: no vector for id {dropped!r}" in capsys.readouterr().err
        assert trained == []
        assert not out.exists()

    def test_inspect_model(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli5.cfg", mini_dir)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o5")])
        capsys.readouterr()
        code = main(["inspect-model", str(tmp_path / "o5" / "model.offd")])
        assert code == 0
        out = capsys.readouterr().out
        assert "kind: svm_linear" in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["sweep", "--config", "whatever"]) == 1
        assert main(["run"]) == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["run", "--config", str(missing)]) == 2

    def test_numeric_error_exit_code(self, tmp_path, mini_dir, capsys):
        single = tmp_path / "single.tsv"
        single.write_text(
            "id\ttweet\tsubtask_a\nt1\tsunshine coffee\tNOT\nt2\tmusic garden\tNOT\n",
            encoding="utf-8",
        )
        cfg_path = write_config(tmp_path / "cli6.cfg", mini_dir)
        text = cfg_path.read_text().replace(f"train_tsv = {mini_dir}/train.tsv", f"train_tsv = {single}")
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o6")]) == 3

    def test_overflowing_ridge_solve_exits_3(self, tmp_path, mini_dir, capsys):
        # one precomputed value of 1e200 is finite, but its square is not
        lines = (mini_dir / "precomputed.txt").read_text(encoding="utf-8").splitlines()
        tweet_id, first, *rest = lines[0].split()
        table = tmp_path / "precomputed.txt"
        table.write_text("\n".join([" ".join([tweet_id, "1e200", *rest]), *lines[1:]]) + "\n")
        cfg_path = write_config(tmp_path / "huge.cfg", mini_dir)
        text = cfg_path.read_text().replace(f"{mini_dir}/precomputed.txt", str(table))
        text = text.replace("feature = avg", "feature = precomputed")
        cfg_path.write_text(text.replace("classifier = svm", "classifier = rlsc"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err
        assert not out.exists()

    def test_numeric_error_in_a_featurize_worker_exits_3(self, tmp_path, mini_dir, capsys, monkeypatch):
        # every length group after the first fails; the second, the first
        # failure a serial loop meets, fails last, and its error is reported
        import time

        from offdetect import experiment

        cfg_path = write_config(tmp_path / "w.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = dmd"))
        cfg = parse_config(cfg_path)
        train, _ = load_corpora(cfg)
        pipeline = build_pipeline(cfg, [train])
        lengths = list(dict.fromkeys(len(pipeline.table.rows(t)) for t in pipeline._tokens(train)))
        assert len(lengths) > 2
        sentence_feature = experiment.sentence_feature

        def failing(stack, hodmd):
            length = stack.shape[2]
            if length == lengths[1]:
                time.sleep(0.2)
                raise NumericError(f"group of length {length}")
            if length != lengths[0]:
                raise NumericError(f"later group of length {length}")
            return sentence_feature(stack, hodmd)

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(experiment, "sentence_feature", failing)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"numeric failure: group of length {lengths[1]}\n"
        assert not out.exists()

    def test_seed_override_changes_manifest(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "cli7.cfg", mini_dir)
        main(["run", "--config", str(cfg_path), "--seed", "77", "--out", str(tmp_path / "o7")])
        manifest = json.loads((tmp_path / "o7" / "manifest.json").read_text())
        assert manifest["seeds"]["train"] == 77


class TestMiniScript:
    def test_c_sweep_matches_the_cli(self, tmp_path, mini_dir):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_mini_experiments.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path / "script")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        cfg_path = tmp_path / "dmd.cfg"
        cfg_path.write_text(
            f"train_tsv = {mini_dir}/train.tsv\ntest_tsv = {mini_dir}/test.tsv\n"
            f"test_labels = {mini_dir}/test_labels.csv\nvec_file = {mini_dir}/toy.vec\n"
            "feature = dmd\nclassifier = svm\nsvm_epochs = 300\n",
            encoding="utf-8",
        )
        argv = ["sweep", "--config", str(cfg_path), "--sweep-C", "0.1,1,100,500,1000"]
        assert main(argv + ["--out", str(tmp_path / "cli")]) == 0
        written = (tmp_path / "script" / "dmd-c-sweep" / "sweep_C.csv").read_bytes()
        assert written == (tmp_path / "cli" / "sweep_C.csv").read_bytes()


class TestModuleEntryPoint:
    def test_python_dash_m_run(self, tmp_path, mini_dir):
        cfg_path = write_config(tmp_path / "pm.cfg", mini_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "offdetect", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "pm_out")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pm_out" / "report.tsv").is_file()

    def test_cli_import_leaves_out_scipy_spatial_and_sparse(self):
        # scipy.spatial is for median_heuristic_sigma alone; nothing uses scipy.sparse
        code = (
            "import sys, offdetect.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_ridge_runs_import_scipy(self, tmp_path):
        # one process runs the commands in order and lists the scipy modules
        # loaded after each; the rlsc run comes last, so the cases before it
        # cannot see a module it loaded
        configs = Path(__file__).resolve().parent.parent / "configs"
        out = tmp_path / "out"

        def command(name, cfg, sub):
            return [name, "--config", str(configs / cfg), "--out", str(out / sub)]

        commands = {
            "import": None,
            "run avg/svm": command("run", "avg_svm.cfg", "avg"),
            "run dmd/svm": command("run", "dmd_svm.cfg", "dmd"),
            "export-features": command("export-features", "avg_svm.cfg", "export"),
            "inspect-model": ["inspect-model", str(out / "avg" / "model.offd")],
            "run hodmd/rlsc": command("run", "hodmd2_rks_rlsc.cfg", "rlsc"),
        }
        code = (
            "import json, sys\n"
            "from offdetect.cli import main\n"
            "loaded = {}\n"
            f"for case, argv in json.loads({json.dumps(json.dumps(commands))}).items():\n"
            "    assert argv is None or main(argv) == 0, case\n"
            "    loaded[case] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.stderr.write(json.dumps(loaded))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stderr)
        for case in list(commands)[:-1]:
            assert loaded[case] == [], case
        assert "scipy.linalg" in loaded["run hodmd/rlsc"]
        # its median-heuristic lift computes distances with numpy alone
        assert not any(m.startswith("scipy.spatial") for m in loaded["run hodmd/rlsc"])

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--sweep-dim", "16,32"]], ids=["run", "sweep-dim"]
    )
    def test_closed_stdout_exits_1_without_traceback(self, tmp_path, command):
        # the reader of stdout is gone before anything is printed; the
        # output files are the ones an ordinary invocation writes
        config = CONFIGS / "hodmd2_rks_rlsc.cfg"

        def invoke(out, stdout):
            argv = [command[0], "--config", str(config), "--out", str(out), *command[1:]]
            return subprocess.run(
                [sys.executable, "-m", "offdetect", *argv],
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            )

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = invoke(tmp_path / "closed", write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr
        reference = invoke(tmp_path / "open", subprocess.PIPE)
        assert reference.returncode == 0, reference.stderr
        written = sorted(path.name for path in (tmp_path / "open").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "closed").iterdir())
        for name in written:
            assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()

    def test_python_dash_m_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "offdetect", "frobnicate"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
