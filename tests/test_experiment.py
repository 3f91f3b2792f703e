import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect.cli import main
from offdetect.corpus import load_olid_tsv
from offdetect.dmd import MAX_DELAY_ORDER
from offdetect.embed import load_precomputed, load_vec_table
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
    run_experiments,
)
from offdetect.learn import predict
from offdetect.model_io import load_model
from offdetect.rks import MAX_MAP_ENTRIES, MAX_SEED, median_heuristic_sigma

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


def _child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@functools.cache
def _child_address_space() -> int:
    """The address space, in bytes, of a fresh interpreter that has imported
    the CLI and run one BLAS product: numpy's BLAS reserves some per CPU."""
    code = (
        "import numpy, offdetect.cli\n"
        "numpy.ones((64, 64)) @ numpy.ones((64, 64))\n"
        "print(open('/proc/self/statm').read().split()[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env(), check=True
    )
    return int(proc.stdout) * os.sysconf("SC_PAGE_SIZE")


def run_limited(argv, headroom):
    """``python -m offdetect`` with ``argv`` in a child process whose address
    space is capped at ``headroom`` bytes over that of a fresh one, so that
    every machine leaves the run the same room."""
    import resource

    address_space = _child_address_space() + headroom

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "offdetect", *argv],
        capture_output=True, text=True, timeout=300, env=_child_env(), preexec_fn=limit,
    )


def serial_rows(pipeline, corpus, stopwords):
    """Each tweet's table rows, tokenized with ``stopwords`` (those the
    pipeline was built with) and looked up afresh: a reference that never
    reads the rows the pipeline keeps."""
    from offdetect.corpus import tokenize_clean

    return [pipeline.table.rows(tokenize_clean(rec.text, stopwords)) for rec in corpus.records]


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

    def test_line_breaks_follow_the_one_rule(self, tmp_path, mini_dir):
        # a form feed in a comment starts no new key; a lone CR ends a line,
        # also when a non-UTF-8 byte's line is counted
        cfg_path = write_config(tmp_path / "f.cfg", mini_dir, extra="# note\fclassifier = rlsc\n")
        assert parse_config(cfg_path).classifier == "svm"
        cfg_path.write_bytes(b"# one\r# two\r\nC = \xff\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(cfg_path))}:3: not UTF-8 text$"):
            parse_config(cfg_path)

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

    @pytest.mark.parametrize("key, value", [("C", "abc"), ("svm_epochs", "1.5"), ("rks_sigma", "wide")])
    def test_unconvertible_value_names_its_line(self, tmp_path, key, value):
        cfg_path = tmp_path / "v.cfg"
        cfg_path.write_text(
            f"# header\ntrain_tsv = a.tsv\n\n{key} = {value}\nfeature = avg\n", encoding="utf-8"
        )
        expected = f"{cfg_path}:4: key {key!r}: invalid value {value!r}"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
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
            (f"rks_dim = {MAX_MAP_ENTRIES + 2}", "rks_dim"),
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

    def test_sweep_dim_over_the_map_cap_rejected_before_data_loads(
        self, tmp_path, mini_dir, capsys, monkeypatch
    ):
        # every input has at least one dimension, so a map wider than
        # MAX_MAP_ENTRIES is over the cap whatever the features are
        from offdetect import experiment

        def no_loading(cfg):
            raise AssertionError("corpora loaded")

        monkeypatch.setattr(experiment, "load_corpora", no_loading)
        cfg_path = write_config(tmp_path / "w.cfg", mini_dir)
        argv = ["sweep", "--config", str(cfg_path), "--sweep-dim", "16,40000000"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert f"rks_dim must be <= {MAX_MAP_ENTRIES}, got 40000000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        assert manifest["rks"]["prng"] == "numpy-pcg64-nested"
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64
        # hodmd never loads the precomputed table: it is checksummed before the data loads
        table = (mini_dir / "precomputed.txt").read_bytes()
        assert manifest["inputs"]["precomputed_file"]["sha256"] == hashlib.sha256(table).hexdigest()

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
        assert result.model.rks.sigma == expected

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


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call is appended to the returned list."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls


STOPWORDS = Path(__file__).resolve().parent.parent / "src" / "offdetect" / "assets" / "stopwords.txt"
INPUT_KEYS = ["train_tsv", "test_tsv", "test_labels", "vec_file", "precomputed_file", "stopwords_file"]


class _FailingReads(io.RawIOBase):
    """A readable stream whose every read fails with EIO."""

    def readable(self):
        return True

    def readinto(self, buffer):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def fail_input(monkeypatch, target, how):
    """Shadow ``open`` in offdetect.experiment, so that opening ``target``
    fails with EACCES (``how`` "open"), or every read of it with EIO
    ("read"); returns the error's text.  Permission bits cannot make a file
    unreadable to root, and no file fails its reads on demand."""
    from offdetect import experiment

    def failing_open(path, *args, **kwargs):
        if Path(path) == Path(target):
            if how == "open":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return io.BufferedReader(_FailingReads())
        return open(path, *args, **kwargs)

    monkeypatch.setattr(experiment, "open", failing_open, raising=False)
    return os.strerror(errno.EACCES if how == "open" else errno.EIO)


class TestRunExperiments:
    def mixed_configs(self, mini_dir, root):
        # two feature modes, repeated out of order; fixed and median
        # bandwidths; two lift seeds
        base = ExperimentConfig(
            name="", train_tsv=mini_dir / "train.tsv", test_tsv=mini_dir / "test.tsv",
            test_labels=mini_dir / "test_labels.csv", vec_file=mini_dir / "toy.vec",
            precomputed_file=mini_dir / "precomputed.txt", feature="avg", classifier="rlsc",
            out_dir=root, C=10.0, svm_epochs=60,
        )
        cells = {
            "avg-svm": dict(classifier="svm"),
            "pre-fixed": dict(feature="precomputed", rks=RksSpec(dim=32, sigma=2.0)),
            "avg-median0": dict(rks=RksSpec(dim=32)),
            "pre-logreg": dict(feature="precomputed", classifier="logreg"),
            "avg-median7": dict(rks=RksSpec(dim=16, seed=7)),
            "pre-median7": dict(feature="precomputed", classifier="svm", rks=RksSpec(dim=32, seed=7)),
            "avg-gnb": dict(classifier="gnb"),
        }
        return [replace(base, name=name, out_dir=root / name, **kw) for name, kw in cells.items()]

    def test_mixed_list_matches_one_run_per_config(self, tmp_path, mini_dir, monkeypatch):
        from offdetect import experiment, rks
        from offdetect.model_io import save_model

        # fewer median-heuristic rows than training rows, so the lift seeds matter
        monkeypatch.setattr(rks, "MEDIAN_MAX_POINTS", 50)
        prepared = counting(monkeypatch, experiment, "_prepare")
        grouped = run_experiments(self.mixed_configs(mini_dir, tmp_path / "grouped"))
        assert [cfg.feature for cfg, *_ in prepared] == ["avg", "precomputed"]
        single = [run_experiment(cfg) for cfg in self.mixed_configs(mini_dir, tmp_path / "single")]
        assert len({r.manifest["rks"]["sigma"] for r in single if r.manifest["rks"]}) == 4

        def as_bytes(result):
            model_file = io.BytesIO()
            save_model(result.model, model_file)
            return result.report.as_tuple(), result.manifest, model_file.getvalue()

        assert [as_bytes(r) for r in grouped] == [as_bytes(r) for r in single]
        for cfg in self.mixed_configs(mini_dir, tmp_path):
            for name in ("report.tsv", "report.txt", "manifest.json", "model.offd"):
                grouped_file = tmp_path / "grouped" / cfg.name / name
                assert grouped_file.read_bytes() == (tmp_path / "single" / cfg.name / name).read_bytes()

    def test_unwritten_twin_matches_the_written_config(self, tmp_path, mini_dir, monkeypatch):
        # a config with no out_dir is fitted in the same groups as its written
        # twin: same report and model bytes, no manifest, and no file anywhere
        from offdetect.model_io import save_model

        monkeypatch.chdir(tmp_path)
        written = self.mixed_configs(mini_dir, tmp_path / "w")
        results = run_experiments(written + [replace(cfg, out_dir=None) for cfg in written])
        files = {"report.tsv", "report.txt", "manifest.json", "model.offd"}
        assert {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()} == {
            f"w/{cfg.name}/{name}" for cfg in written for name in files
        }
        for cfg, kept, twin in zip(written, results, results[len(written):]):
            assert kept.manifest is not None and twin.manifest is None
            assert twin.report.as_tuple() == kept.report.as_tuple()
            model_file = io.BytesIO()
            save_model(twin.model, model_file)
            assert model_file.getvalue() == (cfg.out_dir / "model.offd").read_bytes()

    def test_invalid_config_fails_before_any_data_loads(self, tmp_path, mini_dir, monkeypatch):
        from offdetect import experiment

        prepared = counting(monkeypatch, experiment, "_prepare")
        good, bad = self.mixed_configs(mini_dir, tmp_path)[:2]
        with pytest.raises(DataError, match="C must be positive"):
            run_experiments([good, replace(bad, C=-1.0)])
        assert prepared == [] and not tmp_path.joinpath(good.name).exists()

    def test_failing_group_writes_nothing_and_stops_the_call(self, tmp_path, mini_dir):
        avg_svm, pre_fixed, avg_median0, *_ = self.mixed_configs(mini_dir, tmp_path)
        pre_fixed = replace(pre_fixed, precomputed_file=tmp_path / "missing.txt")
        with pytest.raises(DataError, match="no such file"):
            run_experiments([avg_svm, pre_fixed, replace(pre_fixed, name="other"), avg_median0])
        assert (tmp_path / avg_svm.name / "report.tsv").is_file()
        assert (tmp_path / avg_median0.name / "report.tsv").is_file()
        assert not (tmp_path / pre_fixed.name).exists()


class TestFeaturize:
    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("feature", ["avg", "dmd", "hodmd(2)"])
    def test_matches_a_serial_loop_over_length_groups(
        self, tmp_path, mini_dir, monkeypatch, stopwords, feature, workers
    ):
        # more workers than groups of some lengths, switching threads as
        # often as the interpreter allows: a lost or misplaced row write
        # would break the equality with one thread featurizing each group
        from offdetect import experiment

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
            assert np.array_equal(got, self.serial_features(pipeline, corpus, stopwords))

    @pytest.mark.parametrize("feature", ["avg", "dmd", "hodmd(2)"])
    def test_a_text_the_pipeline_was_not_built_on_is_refused(self, tmp_path, mini_dir, feature):
        # the second test tweet with a trailing " !" is a text build_pipeline
        # never saw: the first such tweet is named, whatever comes after it
        from offdetect.corpus import LabeledCorpus

        cfg_path = write_config(tmp_path / "u.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", f"feature = {feature}"))
        cfg = parse_config(cfg_path)
        train, test = load_corpora(cfg)
        pipeline = build_pipeline(cfg, [train, test])
        records = [replace(rec, text=rec.text + " !") if i else rec for i, rec in enumerate(test.records)]
        assert [rec.text in pipeline.rows for rec in records[:3]] == [True, False, False]
        with pytest.raises(DataError) as excinfo:
            pipeline.featurize(LabeledCorpus(records))
        assert str(excinfo.value) == f"tweet {records[1].id!r}: not in the corpora the pipeline was built on"
        with pytest.raises(DataError, match=f"^tweet {test.records[0].id!r}: not in the corpora"):
            build_pipeline(cfg, [train]).featurize(test)

    def test_a_word_the_pipeline_filtered_out_is_not_read_as_out_of_vocabulary(self, tmp_path, mini_dir):
        # "idiot" is in toy.vec, but not in the table of a pipeline built
        # on "sunshine coffee" alone: featurizing "sunshine idiot" there is
        # refused, where it once gave the features of "sunshine" alone
        from offdetect.corpus import LabeledCorpus, TweetRecord

        cfg = parse_config(write_config(tmp_path / "i.cfg", mini_dir))
        built_on = LabeledCorpus([TweetRecord(id="t1", text="sunshine coffee", label="NOT")])
        asked = LabeledCorpus([TweetRecord(id="t2", text="sunshine idiot", label="OFF")])
        pipeline = build_pipeline(cfg, [built_on])
        assert "idiot" not in pipeline.table
        with pytest.raises(DataError, match="^tweet 't2': not in the corpora the pipeline was built on$"):
            pipeline.featurize(asked)
        with open(cfg.vec_file, "rb") as fh:
            table = load_vec_table(fh)
        expected = (table.matrix[table.index["sunshine"]] + table.matrix[table.index["idiot"]]) / 2
        np.testing.assert_array_equal(build_pipeline(cfg, [asked]).featurize(asked), [expected])

    def test_pipeline_keeps_table_rows_and_no_token_lists(self, tmp_path, mini_dir, stopwords):
        import dataclasses

        cfg = parse_config(write_config(tmp_path / "r.cfg", mini_dir))
        corpora = load_corpora(cfg)
        pipeline = build_pipeline(cfg, list(corpora))
        records = [rec for corpus in corpora for rec in corpus.records]
        assert set(pipeline.rows) == {rec.text for rec in records}
        for corpus in corpora:
            for rec, rows in zip(corpus.records, serial_rows(pipeline, corpus, stopwords)):
                kept = pipeline.rows[rec.text]
                assert isinstance(kept, np.ndarray) and kept.dtype == np.intp and kept.ndim == 1
                assert kept.tolist() == rows.tolist()
        # no list, and no array of Python objects, in anything the pipeline holds
        todo = [pipeline]
        while todo:
            obj = todo.pop()
            assert not isinstance(obj, list)
            if dataclasses.is_dataclass(obj):
                todo += vars(obj).values()
            elif isinstance(obj, dict):
                todo += [*obj, *obj.values()]
            elif isinstance(obj, (tuple, set, frozenset)):
                todo += obj
            elif isinstance(obj, np.ndarray):
                assert obj.dtype != object

    @staticmethod
    def serial_features(pipeline, corpus, stopwords):
        """The features of one thread featurizing each whole length group,
        tokenized with ``stopwords``."""
        from offdetect.dmd import sentence_feature
        from offdetect.embed import average_embedding, token_matrix

        rows = serial_rows(pipeline, corpus, stopwords)
        groups: dict[int, list[int]] = {}
        for i, tweet_rows in enumerate(rows):
            groups.setdefault(len(tweet_rows), []).append(i)
        assert len(groups) > 1
        expected = np.zeros((len(rows), pipeline.table.dim))
        for members in groups.values():
            block = np.array([rows[i] for i in members], dtype=np.intp)
            if pipeline.kind == "avg":
                expected[members] = average_embedding(block, pipeline.table)
            else:
                stack = token_matrix(block, pipeline.table)
                expected[members] = sentence_feature(stack, pipeline.hodmd)
        return expected

    @staticmethod
    def long_tweet_pipeline(dim, lengths, d):
        """A hodmd(d) pipeline on random word vectors of dim entries, and a corpus
        with one tweet of each given token count."""
        from offdetect import experiment
        from offdetect.corpus import LabeledCorpus, TweetRecord
        from offdetect.dmd import HodmdConfig
        from offdetect.embed import VectorTable

        rng = np.random.default_rng(13)
        words = [chr(97 + i // 26) + chr(97 + i % 26) for i in range(200)]
        table = VectorTable(matrix=rng.normal(size=(200, dim)), index={w: i for i, w in enumerate(words)})
        texts = [" ".join(words[j] for j in rng.integers(0, 200, length)) for length in lengths]
        corpus = LabeledCorpus([TweetRecord(id=str(i), text=text) for i, text in enumerate(texts)])
        rows = {text: table.rows(text.split()) for text in texts}
        return experiment.FeaturePipeline("hodmd", table, HodmdConfig(d=d), rows), corpus

    @pytest.mark.parametrize("workers", [1, 2])
    def test_long_tweets_match_a_serial_loop(self, monkeypatch, workers):
        # at hodmd(70) a 140-token tweet of 4-dim vectors stacks 19,880
        # snapshot entries, so its group of 80 is cut below 64 tweets a
        # chunk; each chunk stays within the entry budget
        from offdetect import experiment

        pipeline, corpus = self.long_tweet_pipeline(4, [140] * 80 + [100] * 20 + [3] * 5, d=70)
        sizes = []
        sentence_feature = experiment.sentence_feature

        def recording(stack, cfg):
            sizes.append(stack.shape)
            return sentence_feature(stack, cfg)

        monkeypatch.setattr(experiment, "sentence_feature", recording)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: workers)
        got = pipeline.featurize(corpus)
        assert np.array_equal(got, self.serial_features(pipeline, corpus, frozenset()))
        assert sorted(g for g, _, length in sizes if length == 140) == [28, 52]
        for g, dim, length in sizes:
            padded = max(length, 71)
            assert g == 1 or g * min(dim, padded) * 70 * (padded - 69) <= experiment._FEATURIZE_ENTRIES

    def test_one_featurize_call_bounds_its_stacked_entries(self, monkeypatch):
        # 64 tweets of 140 tokens at hodmd(70): one chunk of them traced
        # 109 MB; cut by the entry budget, two workers hold 34 MB
        import tracemalloc

        from offdetect import experiment

        pipeline, corpus = self.long_tweet_pipeline(20, [140] * 64, d=70)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            features = pipeline.featurize(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < features.nbytes + 2 * 4 * 8 * experiment._FEATURIZE_ENTRIES


    @pytest.mark.parametrize("d", [1, 2])
    def test_one_featurize_call_holds_a_chunk_per_worker(self, monkeypatch, d):
        # 640 tweets of 30 in-vocabulary tokens form one length group, cut
        # into chunks of 64: two workers hold at most two chunks' vectors and
        # decompositions (13 MB measured, d = 2), where the whole group took
        # 59 MB; the features equal those of the whole group
        import tracemalloc

        from offdetect import experiment
        from offdetect.corpus import LabeledCorpus, TweetRecord
        from offdetect.dmd import HodmdConfig, sentence_feature
        from offdetect.embed import VectorTable, token_matrix

        rng = np.random.default_rng(12)
        words = [chr(97 + i // 26) + chr(97 + i % 26) for i in range(60)]
        table = VectorTable(matrix=rng.normal(size=(60, 100)), index={w: i for i, w in enumerate(words)})
        texts = [" ".join(words[j] for j in rng.integers(0, 60, 30)) for _ in range(640)]
        corpus = LabeledCorpus([TweetRecord(id=str(i), text=text) for i, text in enumerate(texts)])
        kind = "dmd" if d == 1 else "hodmd"
        rows = {text: table.rows(text.split()) for text in texts}
        pipeline = experiment.FeaturePipeline(kind, table, HodmdConfig(d=d), rows)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            features = pipeline.featurize(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = np.array([table.rows(text.split()) for text in texts], dtype=np.intp)
        assert np.array_equal(features, sentence_feature(token_matrix(block, table), pipeline.hodmd))
        chunk_bytes = experiment._FEATURIZE_CHUNK * 30 * 100 * 8
        assert peak < features.nbytes + 2 * 8 * chunk_bytes


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
        build_pipeline = experiment.build_pipeline

        def recording_build(*args):
            pipeline = build_pipeline(*args)
            tables.append(weakref.ref(pipeline.table.matrix))
            return pipeline

        def checking(fit):
            def checking_fit(*args, **kwargs):
                alive_at_train.append(tables[0]() is not None)
                return fit(*args, **kwargs)

            return checking_fit

        monkeypatch.setattr(experiment, "build_pipeline", recording_build)
        # lifted rlsc configs are fitted by train_rlsc_nested, the rest by _train
        monkeypatch.setattr(experiment, "_train", checking(experiment._train))
        monkeypatch.setattr(experiment, "train_rlsc_nested", checking(experiment.train_rlsc_nested))
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

    def unusable_test_set(self, tmp_path, mini_dir, test_set):
        """A config whose test set has a tweet with no label (90002, its
        label line dropped), or no tweet at all."""
        cfg_path = write_config(tmp_path / "t.cfg", mini_dir)
        text = cfg_path.read_text()
        if test_set == "unlabeled":
            labels = tmp_path / "labels.csv"
            kept = (mini_dir / "test_labels.csv").read_text(encoding="utf-8").splitlines(keepends=True)
            labels.write_text("".join(line for line in kept if not line.startswith("90002,")), encoding="utf-8")
            text = text.replace(f"{mini_dir}/test_labels.csv", str(labels))
        else:
            empty = tmp_path / "empty.tsv"
            empty.write_text("id\ttweet\n", encoding="utf-8")
            text = text.replace(f"test_labels = {mini_dir}/test_labels.csv\n", "")
            text = text.replace(f"{mini_dir}/test.tsv", str(empty))
        cfg_path.write_text(text)
        return cfg_path

    @pytest.mark.parametrize(
        "test_set, expected",
        [
            ("unlabeled", "record '90002' has no label; cannot evaluate/train on it"),
            ("empty", "empty test set (zero rows)"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["run"], ["sweep", "--sweep-C", "1,10"], ["sweep", "--sweep-dim", "16,32"]],
        ids=["run", "sweep-C", "sweep-dim"],
    )
    def test_unusable_test_set_is_refused_before_any_fit(
        self, tmp_path, mini_dir, capsys, monkeypatch, command, test_set, expected
    ):
        from offdetect import experiment

        cfg_path = self.unusable_test_set(tmp_path, mini_dir, test_set)
        trained = counting(monkeypatch, experiment, "_train")
        out = tmp_path / "o"
        assert main([command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]]) == 2
        assert capsys.readouterr().err == f"data error: {expected}\n"
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("test_set, rows", [("unlabeled", 200), ("empty", 140)])
    def test_export_features_exports_an_unusable_test_set(self, tmp_path, mini_dir, capsys, test_set, rows):
        cfg_path = self.unusable_test_set(tmp_path, mini_dir, test_set)
        out = tmp_path / "o"
        assert main(["export-features", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len((out / "features.txt").read_text(encoding="utf-8").splitlines()) == rows

    @pytest.mark.parametrize(
        "option, table", [("--sweep-C", "sweep_C.csv"), ("--sweep-dim", "sweep_dim.csv")]
    )
    def test_sweep_checksums_nothing_and_writes_only_its_table(
        self, tmp_path, mini_dir, monkeypatch, capsys, option, table
    ):
        from offdetect import experiment

        hashed = counting(monkeypatch, experiment, "_sha256")
        cfg_path = write_config(tmp_path / "s.cfg", mini_dir)
        argv = ["sweep", "--config", str(cfg_path), option, "16,32", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert hashed == []
        assert [path.name for path in (tmp_path / "o").iterdir()] == [table]

    @pytest.mark.parametrize(
        "command, out",
        [(["run"], "F"), (["sweep", "--sweep-dim", "16"], "F"), (["export-features"], "F/x")],
        ids=["run", "sweep", "export"],
    )
    def test_unwritable_output_path_is_data_error(self, tmp_path, mini_dir, capsys, command, out):
        # the output path runs through an existing file: the work is done,
        # then the write fails with one error line naming the path
        (tmp_path / "F").write_text("a file\n", encoding="utf-8")
        cfg_path = write_config(tmp_path / "w.cfg", mini_dir)
        argv = [command[0], "--config", str(cfg_path), "--out", str(tmp_path / out), *command[1:]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"data error: cannot write {tmp_path / out}: ") and err.count("\n") == 1

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, mini_dir, capsys):
        # report.tsv is a directory: the target is refused before any
        # temporary file is written
        out = tmp_path / "o"
        (out / "report.tsv").mkdir(parents=True)
        cfg_path = write_config(tmp_path / "t.cfg", mini_dir)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: cannot write {out / 'report.tsv'}: Is a directory\n"
        assert [path.name for path in out.iterdir()] == ["report.tsv"]

    def rerun_over(self, tmp_path, mini_dir):
        """A config, the run directory one run of it wrote, and that run's
        files by name."""
        cfg_path = write_config(tmp_path / "r.cfg", mini_dir)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, out, {path.name: path.read_bytes() for path in out.iterdir()}

    def test_target_made_a_directory_leaves_the_earlier_run(self, tmp_path, mini_dir, capsys):
        # the second run's manifest.json cannot be written: none of its
        # files replaces the first run's
        cfg_path, out, before = self.rerun_over(tmp_path, mini_dir)
        (out / "manifest.json").unlink()
        (out / "manifest.json").mkdir()
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 2
        assert capsys.readouterr().err == f"data error: cannot write {out / 'manifest.json'}: Is a directory\n"
        del before["manifest.json"]
        assert sorted(path.name for path in out.iterdir()) == sorted([*before, "manifest.json"])
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_failed_third_write_leaves_the_earlier_run(self, tmp_path, mini_dir, monkeypatch, capsys):
        # the disk fills on the third temporary file (manifest.json): the
        # first two are written but never renamed, and all three go
        import builtins

        from offdetect import experiment

        cfg_path, out, before = self.rerun_over(tmp_path, mini_dir)
        opened = []

        def filling_open(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            if mode == "wb":
                opened.append(Path(path).name)
                if len(opened) == 3:
                    def full(data):
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

                    fh.write = full
            return fh

        monkeypatch.setattr(experiment, "open", filling_open, raising=False)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 2
        assert opened == ["report.tsv.tmp", "report.txt.tmp", "manifest.json.tmp"]
        err = capsys.readouterr().err
        assert err == f"data error: cannot write {out / 'manifest.json.tmp'}: {os.strerror(errno.ENOSPC)}\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_encode_leaves_no_temporary_file(self, tmp_path):
        # the second payload cannot be encoded: the error is not mapped, and
        # the first temporary file goes with the second
        from offdetect.experiment import write_artifacts

        class Unencodable(str):
            def encode(self, *args, **kwargs):
                raise MemoryError

        out = tmp_path / "o"
        out.mkdir()
        (out / "report.tsv").write_bytes(b"earlier\n")
        with pytest.raises(MemoryError):
            write_artifacts(out, {"report.tsv": "later\n", "features.txt": Unencodable("x\n")})
        assert {path.name: path.read_bytes() for path in out.iterdir()} == {"report.tsv": b"earlier\n"}

    @pytest.mark.parametrize(
        "header, expected",
        [
            ("1 100000000", "header declares 1 vector(s), but no vector line follows"),
            ("1 268435456", "dimension must be at most 268435455, got 268435456"),
            ("1 9223372036854775808", "dimension must be at most 268435455, got 9223372036854775808"),
        ],
        ids=["no-vector-line", "past-one-row-item", "past-int64"],
    )
    def test_vec_header_outside_the_loader_range_is_data_error(
        self, tmp_path, mini_dir, capsys, header, expected
    ):
        # refused on loading, before a (tweets x dim) feature array is asked for
        table = tmp_path / "header.vec"
        table.write_text(header + "\n")
        cfg_path = write_config(tmp_path / "h.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace(f"{mini_dir}/toy.vec", str(table)))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"data error: vec file line 1: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, source, expected",
        [
            ("config", None, "{config}:3: not UTF-8 text"),
            ("train_tsv", "train.tsv", "train tweet tsv line 3: not UTF-8 text"),
            ("test_tsv", "test.tsv", "test tweet tsv line 3: not UTF-8 text"),
            ("test_labels", "test_labels.csv", "label csv line 3: not UTF-8 text"),
            ("vec_file", "toy.vec", "vec file line 3: not UTF-8 text"),
            ("precomputed_file", "precomputed.txt", "precomputed file line 3: not UTF-8 text"),
            ("stopwords", None, "stopwords file line 3: not UTF-8 text"),
        ],
        ids=["config", "train_tsv", "test_tsv", "test_labels", "vec_file", "precomputed_file", "stopwords"],
    )
    def test_non_utf8_input_is_data_error(self, tmp_path, mini_dir, capsys, key, source, expected):
        # one 0xff byte at the start of the input's third line
        def spoiled(data: bytes) -> bytes:
            lines = data.splitlines(keepends=True)
            lines[2] = b"\xff" + lines[2]
            return b"".join(lines)

        cfg_path = write_config(tmp_path / "u.cfg", mini_dir, extra=f"stopwords = {STOPWORDS}\n")
        if key == "precomputed_file":
            cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = precomputed"))
        original = {"config": cfg_path, "stopwords": STOPWORDS}.get(key) or mini_dir / source
        bad = tmp_path / f"bad-{original.name}"
        bad.write_bytes(spoiled(original.read_bytes()))
        if key != "config":
            cfg_path.write_text(cfg_path.read_text().replace(f"= {original}\n", f"= {bad}\n"))
        argv = ["run", "--config", str(bad if key == "config" else cfg_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"data error: {expected.format(config=bad)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("how", ["open", "read"])
    @pytest.mark.parametrize("command", ["run", "export-features"])
    @pytest.mark.parametrize("key", INPUT_KEYS)
    def test_unreadable_input_is_data_error(self, tmp_path, mini_dir, capsys, monkeypatch, key, command, how):
        # the input exists, but opening it fails with EACCES, or reading it with EIO
        cfg_path = write_config(tmp_path / "r.cfg", mini_dir, extra=f"stopwords = {STOPWORDS}\n")
        if key == "precomputed_file":
            cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = precomputed"))
        inputs = parse_config(cfg_path).input_paths()
        assert sorted(inputs) == sorted(INPUT_KEYS)
        strerror = fail_input(monkeypatch, inputs[key], how)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"data error: {key}: cannot read {inputs[key]}: {strerror}\n"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["open", "read"])
    def test_input_unreadable_in_the_checksum_pass_is_data_error(
        self, tmp_path, mini_dir, capsys, monkeypatch, how
    ):
        # a precomputed config reads its stopwords file only to checksum it,
        # which it does before the data loads: no fit is made
        from offdetect import experiment

        cfg_path = write_config(tmp_path / "r.cfg", mini_dir, extra=f"stopwords = {STOPWORDS}\n")
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = precomputed"))
        strerror = fail_input(monkeypatch, STOPWORDS, how)
        trained = counting(monkeypatch, experiment, "_train")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"data error: stopwords_file: cannot read {STOPWORDS}: {strerror}\n"
        assert len(trained) == 0
        assert not out.exists()
        assert main(["export-features", "--config", str(cfg_path), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "feature, key", [("precomputed", "vec_file"), ("avg", "precomputed_file")]
    )
    def test_input_the_feature_mode_never_loads_is_read_before_the_data(
        self, tmp_path, mini_dir, capsys, monkeypatch, feature, key
    ):
        # the written run reads it to checksum it before any corpus loads;
        # an unwritten one (a sweep) never reads it
        from offdetect import experiment

        cfg_path = write_config(tmp_path / "r.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", f"feature = {feature}"))
        path = parse_config(cfg_path).input_paths()[key]
        strerror = fail_input(monkeypatch, path, "open")
        prepared = counting(monkeypatch, experiment, "_prepare")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {key}: cannot read {path}: {strerror}\n"
        assert prepared == [] and not out.exists()
        assert main(["sweep", "--config", str(cfg_path), "--sweep-C", "1", "--out", str(out)]) == 0

    def test_inspect_model(self, tmp_path, mini_dir, capsys):
        cfg_path = write_config(tmp_path / "cli5.cfg", mini_dir)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o5")])
        capsys.readouterr()
        code = main(["inspect-model", str(tmp_path / "o5" / "model.offd")])
        assert code == 0
        out = capsys.readouterr().out
        assert "kind: svm_linear" in out

    def test_inspect_gnb_model(self, tmp_path, mini_dir, capsys):
        text = (CONFIGS / "avg_svm.cfg").read_text(encoding="utf-8").replace("../data/mini", str(mini_dir))
        cfg_path = tmp_path / "gnb.cfg"
        cfg_path.write_text(text.replace("classifier = svm", "classifier = gnb"), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert main(["inspect-model", str(tmp_path / "o" / "model.offd")]) == 0
        assert capsys.readouterr().out == (
            "kind: gnb\nfeatures: 8\npriors: OFF=33.57% NOT=66.43%\nvar_floor: 1e-09\n"
        )

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

    @staticmethod
    def huge_value_config(tmp_path, mini_dir, value, classifier, extra, line=0):
        """A precomputed-feature config whose table has ``value`` as the
        first entry of its ``line``-th vector."""
        lines = (mini_dir / "precomputed.txt").read_text(encoding="utf-8").splitlines()
        tweet_id, first, *rest = lines[line].split()
        lines[line] = " ".join([tweet_id, value, *rest])
        table = tmp_path / "precomputed.txt"
        table.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path / "huge.cfg", mini_dir, extra=extra)
        text = cfg_path.read_text().replace(f"{mini_dir}/precomputed.txt", str(table))
        text = text.replace("feature = avg", "feature = precomputed")
        cfg_path.write_text(text.replace("classifier = svm", f"classifier = {classifier}"))
        return cfg_path

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("classifier", ["rlsc", "logreg", "gnb", "svm"])
    def test_overflowing_ridge_solve_exits_3(self, tmp_path, mini_dir, capsys, classifier):
        # one precomputed value of 1e200 is finite, but its square is not:
        # the Gram matrix, logreg's step bound, gnb's variances and the
        # svm's margins overflow
        cfg_path = self.huge_value_config(tmp_path, mini_dir, "1e200", classifier, extra="")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("classifier", ["rlsc", "svm", "logreg"])
    @pytest.mark.parametrize("value", ["1e155", "1e200", "1e300"])
    def test_overflowing_median_bandwidth_exits_3(self, tmp_path, mini_dir, capsys, value, classifier):
        # the median heuristic's Gram matrix overflows; the bandwidth is not
        # silently replaced by the all-identical fallback of 1.0
        extra = "rks_dim = 20\nrks_sigma = median\n"
        cfg_path = self.huge_value_config(tmp_path, mini_dir, value, classifier, extra)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: median-heuristic bandwidth overflows: features too large\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("classifier", ["rlsc", "svm", "logreg"])
    @pytest.mark.parametrize("line", [0, -1], ids=["train-row", "test-row"])
    def test_overflowing_lift_exits_2(self, tmp_path, mini_dir, capsys, classifier, line):
        # 1e307 at bandwidth 0.01 projects past the float range: the lifted
        # training matrix, or the lifted test features that predict scores,
        # are not finite, and that one error line is all stderr shows
        extra = "rks_dim = 20\nrks_sigma = 0.01\n"
        cfg_path = self.huge_value_config(tmp_path, mini_dir, "1e307", classifier, extra, line)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "data error: feature matrix contains non-finite entries\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_dmd_feature_names_its_tweet(self, tmp_path, mini_dir, capsys, stopwords):
        # one word-vector value of 1e200 is finite, but the DMD features of
        # some tweets with that word are not; the first in file order is named
        from offdetect.dmd import sentence_feature

        lines = (mini_dir / "toy.vec").read_text(encoding="utf-8").splitlines()
        word, first, *rest = lines[1].split()
        table = tmp_path / "toy.vec"
        table.write_text("\n".join([lines[0], " ".join([word, "1e200", *rest]), *lines[2:]]) + "\n")
        cfg_path = write_config(tmp_path / "huge.cfg", mini_dir)
        text = cfg_path.read_text().replace(f"{mini_dir}/toy.vec", str(table))
        cfg_path.write_text(text.replace("feature = avg", "feature = dmd"))
        cfg = parse_config(cfg_path)
        train, _ = load_corpora(cfg)
        pipeline = build_pipeline(cfg, [train])
        not_finite = []
        for rec, rows in zip(train.records, serial_rows(pipeline, train, stopwords)):
            seq = pipeline.table.matrix[rows].T
            with np.errstate(all="ignore"):
                if not np.isfinite(sentence_feature(seq, pipeline.hodmd)).all():
                    not_finite.append(rec.id)
        assert not_finite
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"data error: tweet {not_finite[0]!r}: feature is not finite (word vectors too large)\n"
        )
        assert not out.exists()

    def test_numeric_error_in_a_featurize_worker_exits_3(self, tmp_path, mini_dir, capsys, monkeypatch, stopwords):
        # every length group after the first fails; the second, the first
        # failure a serial loop meets, fails last, and its error is reported
        import time

        from offdetect import experiment

        cfg_path = write_config(tmp_path / "w.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace("feature = avg", "feature = dmd"))
        cfg = parse_config(cfg_path)
        train, _ = load_corpora(cfg)
        pipeline = build_pipeline(cfg, [train])
        lengths = list(dict.fromkeys(len(rows) for rows in serial_rows(pipeline, train, stopwords)))
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

    def shipped_config(self, tmp_path, mini_dir, old, new):
        """configs/hodmd2_rks_rlsc.cfg in tmp_path, with ``old`` replaced by ``new``."""
        text = (CONFIGS / "hodmd2_rks_rlsc.cfg").read_text(encoding="utf-8")
        assert old in text
        cfg_path = tmp_path / "bound.cfg"
        cfg_path.write_text(text.replace("../data/mini", str(mini_dir)).replace(old, new), encoding="utf-8")
        return cfg_path

    @pytest.mark.parametrize(
        "old, new",
        [("rks_seed = 0", f"rks_seed = {MAX_SEED + 1}"), ("hodmd(2)", f"hodmd({MAX_DELAY_ORDER + 1})")],
        ids=["rks_seed", "hodmd-order"],
    )
    def test_value_past_its_bound_exits_2_before_data_loads(
        self, tmp_path, mini_dir, monkeypatch, capsys, old, new
    ):
        # a lift seed the model file cannot store as an i64, or a delay order
        # past the cap: one error line, and no data loaded or written
        from offdetect import experiment

        loads = counting(monkeypatch, experiment, "load_corpora")
        out = tmp_path / "o"
        cfg_path = self.shipped_config(tmp_path, mini_dir, old, new)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert loads == [] and not out.exists()

    def test_values_at_their_bounds_run(self, tmp_path, mini_dir):
        cfg_path = self.shipped_config(tmp_path, mini_dir, "rks_seed = 0", f"rks_seed = {MAX_SEED}")
        cfg_path.write_text(cfg_path.read_text().replace("hodmd(2)", f"hodmd({MAX_DELAY_ORDER})"))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert (manifest["feature"]["d"], manifest["rks"]["seed"]) == (MAX_DELAY_ORDER, MAX_SEED)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(
        feature=st.sampled_from(["avg", "dmd", "hodmd(2)", "precomputed"]),
        classifier=st.sampled_from(["svm", "logreg", "rlsc", "gnb"]),
        lift=st.booleans(),
        value=st.sampled_from(["1e155", "1e200", "1e300", "5e-324"]),
        line=st.integers(0, 10**6),
        column=st.integers(0, 10**6),
    )
    def test_run_on_one_extreme_table_value(self, mini_dir, feature, classifier, lift, value, line, column):
        # any feature, classifier and lift, with one vector-table entry at the
        # edge of the float range: a clean exit, and a written model that
        # reproduces the written report
        source = mini_dir / ("precomputed.txt" if feature == "precomputed" else "toy.vec")
        lines = source.read_text(encoding="utf-8").splitlines()
        first = 0 if feature == "precomputed" else 1  # toy.vec opens with a header line
        line = first + line % (len(lines) - first)
        parts = lines[line].split()
        parts[1 + column % (len(parts) - 1)] = value
        lines[line] = " ".join(parts)
        extra = "rks_dim = 32\nrks_sigma = median\n" if lift and classifier != "gnb" else ""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            table = tmp / source.name
            table.write_text("\n".join(lines) + "\n", encoding="utf-8")
            cfg_path = write_config(tmp / "edge.cfg", mini_dir, extra=extra)
            text = cfg_path.read_text().replace(f"{mini_dir}/{source.name}", str(table))
            text = text.replace("feature = avg", f"feature = {feature}")
            cfg_path.write_text(text.replace("classifier = svm", f"classifier = {classifier}"))
            out = tmp / "o"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                return
            with open(out / "model.offd", "rb") as fh:
                model = load_model(fh)
            cfg = parse_config(cfg_path)
            _, test = load_corpora(cfg)
            features = build_pipeline(cfg, [test]).featurize(test)
            predicted = [label for label, _ in predict(model, features)]
            gold = [rec.label for rec in test.records]
            tsv, _ = render_report([(cfg.name, macro_metrics(ConfusionMatrix.from_pairs(gold, predicted)))])
            assert tsv == (out / "report.tsv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("classifier", ["svm", "logreg"])
    def test_lift_too_large_to_allocate_exits_2(self, tmp_path, mini_dir, classifier):
        # a legal map (8 x 2,097,152 entries, the cap) whose lifted training
        # matrix, 2.19 GiB, cannot be allocated with 2 GiB of room
        dim = MAX_MAP_ENTRIES // 8
        cfg_path = write_config(tmp_path / "big.cfg", mini_dir, extra=f"rks_dim = {dim}\nrks_sigma = 1\n")
        cfg_path.write_text(cfg_path.read_text().replace("classifier = svm", f"classifier = {classifier}"))
        out = tmp_path / "o"
        proc = run_limited(["run", "--config", str(cfg_path), "--out", str(out)], 2 << 30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"data error: out of memory: Unable to allocate 2.19 GiB for an array with shape (140, {dim}) "
            "and data type float64\n"
        )
        assert not out.exists()

    def test_count_0_vec_too_wide_to_featurize_exits_2(self, tmp_path, mini_dir):
        # a header-only table loads as (0, 100,000,000); the 140 x 10^8
        # training feature array, 104 GiB, cannot be allocated with 2 GiB of
        # room
        table = tmp_path / "wide.vec"
        table.write_text("0 100000000\n")
        cfg_path = write_config(tmp_path / "wide.cfg", mini_dir)
        cfg_path.write_text(cfg_path.read_text().replace(f"{mini_dir}/toy.vec", str(table)))
        out = tmp_path / "o"
        proc = run_limited(["run", "--config", str(cfg_path), "--out", str(out)], 2 << 30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "data error: out of memory: Unable to allocate 104. GiB for an array with shape (140, 100000000) "
            "and data type float64\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, patched",
        [
            (["run"], "train_linear_svm"),
            (["sweep", "--sweep-C", "1,10"], "train_linear_svm"),
            (["sweep", "--sweep-dim", "16,32"], "train_linear_svm"),
            (["export-features"], "average_embedding"),
        ],
        ids=["run", "sweep-C", "sweep-dim", "export-features"],
    )
    def test_out_of_memory_anywhere_exits_2(self, tmp_path, mini_dir, monkeypatch, capsys, command, patched):
        # an allocation that fails in the fit or in featurizing, mapped by
        # main alone: one error line (a bare MemoryError has no message) and
        # nothing written
        from offdetect import experiment

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(experiment, patched, out_of_memory)
        cfg_path = write_config(tmp_path / "m.cfg", mini_dir)
        out = tmp_path / "o"
        assert main([command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]]) == 2
        assert capsys.readouterr() == ("", "data error: out of memory\n")
        assert not out.exists()

    # Each numeric key is drawn over the whole range its check accepts, and
    # one of them, or none, over the whole of its type.  The epoch counts cost
    # only time, so they are drawn up to a budget of 2^24 (epochs x 140
    # training rows x training-matrix width, at least 64).
    POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
    COUNT = st.integers(1, 2**70)
    KEYS = {
        "order": st.integers(1, MAX_DELAY_ORDER),
        "r_max": COUNT,
        "sv_rel_tol": st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        "rks_dim": st.integers(1, 25).flatmap(lambda bits: st.integers(1, 2**bits).map(lambda k: 2 * k)),
        "rks_sigma": POSITIVE,
        "rks_seed": st.integers(0, MAX_SEED),
        "lambda": POSITIVE,
        "C": POSITIVE,
        "lr": POSITIVE,
        "l2": st.floats(min_value=0.0, max_value=1.7976931348623157e308),
        "var_floor": POSITIVE,
        "seed": st.integers(0, 2**70),
    }
    EPOCH_BUDGET = 1 << 24

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        feature=st.sampled_from(["avg", "dmd", "hodmd", "precomputed"]),
        classifier=st.sampled_from(["svm", "logreg", "rlsc", "gnb"]),
        lift=st.booleans(),
        spoiled=st.none() | st.sampled_from([*KEYS, "svm_epochs", "logreg_epochs"]),
    )
    def test_run_on_drawn_numeric_config_values(self, mini_dir, data, feature, classifier, lift, spoiled):
        # the run in a child process with 384 MiB of address space to spare,
        # so that the widest lifts cannot be allocated: a clean exit, and
        # never a traceback
        def anything(key):
            integer = key in ("order", "r_max", "rks_dim", "rks_seed", "seed", "svm_epochs", "logreg_epochs")
            return st.integers(-(2**70), 2**70) if integer else st.floats()

        values = {
            key: data.draw(anything(key) if key == spoiled else strategy, label=key)
            for key, strategy in self.KEYS.items()
        }
        lifted = lift and values["rks_dim"] >= 2
        width = values["rks_dim"] if lifted else 17 if feature == "precomputed" else 8
        most = max(1, self.EPOCH_BUDGET // (140 * max(width, 64)))
        for key in ("svm_epochs", "logreg_epochs"):
            values[key] = data.draw(anything(key) if key == spoiled else st.integers(1, most), label=key)
        if spoiled in ("svm_epochs", "logreg_epochs") and values[spoiled] > most:
            values[spoiled] = -values[spoiled]  # only a refused count may pass the budget
        order = values.pop("order")
        if not lift:
            for key in ("rks_dim", "rks_sigma", "rks_seed"):
                del values[key]
        lines = [f"feature = hodmd({order})" if feature == "hodmd" else f"feature = {feature}"]
        lines += [f"{key} = {value!r}" for key, value in values.items()]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg_path = write_config(tmp / "drawn.cfg", mini_dir)
            text = cfg_path.read_text().replace("C = 10\nsvm_epochs = 60\n", "")
            text = text.replace("feature = avg", "\n".join(lines))
            cfg_path.write_text(text.replace("classifier = svm", f"classifier = {classifier}"))
            proc = run_limited(["run", "--config", str(cfg_path), "--out", str(tmp / "o")], 384 << 20)
        assert proc.returncode in (0, 2, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 or proc.stderr.count("\n") == 1, proc.stderr


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_mini_experiments.py"


class TestMiniScript:
    def test_c_sweep_matches_the_cli(self, tmp_path, mini_dir, monkeypatch, capsys):
        # in-process, counting the work: one _prepare per feature setting
        # (avg, precomputed, dmd, hodmd-d2, hodmd-d3); the C sweep's points
        # share the dmd cell's
        import runpy

        from offdetect import experiment

        prepared = counting(monkeypatch, experiment, "_prepare")
        featurized = counting(monkeypatch, experiment.FeaturePipeline, "featurize")
        trained = counting(monkeypatch, experiment, "_train")
        # the 8 lifted rlsc configs: one call per feature setting (avg, precomputed)
        nested = counting(monkeypatch, experiment, "train_rlsc_nested")
        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", str(tmp_path / "script")])
        runpy.run_path(str(SCRIPT), run_name="__main__")
        monkeypatch.undo()
        assert (len(prepared), len(featurized), len(trained), len(nested)) == (5, 10, 16, 2)
        assert capsys.readouterr().out.startswith("== baseline classifiers ==\n")
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


DIGEST = SCRIPT.parent / "output_digest.py"


class TestOutputDigest:
    def test_lists_every_run_artifact(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, str(DIGEST), str(out)], capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        listed = {}
        for line in proc.stdout.splitlines():
            sha, label = line.split("  ", 1)
            assert re.fullmatch("[0-9a-f]{64}", sha) and label not in listed
            listed[label] = sha
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            for name in ("report.tsv", "report.txt", "manifest.json", "model.offd"):
                assert f"run/{cfg.stem}/{name}" in listed
            assert f"inspect-model/{cfg.stem} (stdout)" in listed
        # a file that holds no path is digested as written
        report = out / "run" / "avg_svm" / "report.tsv"
        assert listed["run/avg_svm/report.tsv"] == hashlib.sha256(report.read_bytes()).hexdigest()
        again = subprocess.run([sys.executable, str(DIGEST), str(out)], capture_output=True, text=True, timeout=60)
        assert again.returncode == 1 and again.stderr.endswith("is not empty\n")


class TestWarningsAsErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            *(
                pytest.param(["-m", "offdetect", "run", "--config", str(cfg)], id=f"run-{cfg.stem}")
                for cfg in sorted(CONFIGS.glob("*.cfg"))
            ),
            *(
                pytest.param(
                    ["-m", "offdetect", "sweep", "--config", str(CONFIGS / f"{cfg}.cfg"), option, values],
                    id=f"sweep{option[7:]}-{cfg}",
                )
                for cfg, option, values in [
                    ("avg_svm", "--sweep-C", "0.1,1,100,500,1000"),
                    ("dmd_svm", "--sweep-C", "0.1,1,100,500,1000"),
                    ("hodmd2_rks_rlsc", "--sweep-dim", "16,32,64,200"),
                    ("precomputed_rks_rlsc", "--sweep-dim", "16,32,64,200"),
                ]
            ),
            pytest.param([str(SCRIPT)], id=SCRIPT.stem),
        ],
    )
    def test_shipped_path_runs_clean(self, tmp_path, argv):
        # every shipped command under python's development mode with all
        # warnings as errors: exit 0 and nothing at all on stderr
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", *argv, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


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
        # the median-heuristic lift computes distances with numpy alone, and
        # nothing uses scipy.sparse
        code = (
            "import sys, offdetect.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_out_what_a_peak_does_not_use(self):
        # hashlib (OpenSSL) and decimal load at first use, after a run's
        # features and model exist; concurrent.futures (and with it logging)
        # with the first thread pool; numpy loads numpy.random, 5.3 MiB
        # resident, only when it is first used
        deferred = (
            "hashlib", "_hashlib", "decimal", "_decimal", "numpy.random", "concurrent.futures", "logging"
        )
        code = f"import sys, offdetect.cli; print(sorted(m for m in {deferred!r} if m in sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_command_imports_scipy(self, tmp_path):
        # one process runs every command, the ridge solves and both lift
        # modes included, and then lists the scipy modules it has loaded
        configs = Path(__file__).resolve().parent.parent / "configs"
        out = tmp_path / "out"

        def command(name, cfg, sub, *extra):
            return [name, "--config", str(configs / cfg), "--out", str(out / sub), *extra]

        commands = [
            command("run", "hodmd2_rks_rlsc.cfg", "hodmd"),
            command("run", "precomputed_rks_rlsc.cfg", "precomputed"),
            command("run", "dmd_svm.cfg", "dmd"),
            command("sweep", "precomputed_rks_rlsc.cfg", "sweep-dim", "--sweep-dim", "16,32"),
            command("sweep", "avg_svm.cfg", "sweep-C", "--sweep-C", "1,10"),
            command("export-features", "hodmd2_rks_rlsc.cfg", "export"),
            ["inspect-model", str(out / "hodmd" / "model.offd")],
        ]
        code = (
            "import json, sys\n"
            "from offdetect.cli import main\n"
            f"for argv in json.loads({json.dumps(json.dumps(commands))}):\n"
            "    assert main(argv) == 0, argv\n"
            "sys.stderr.write(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr) == []

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
