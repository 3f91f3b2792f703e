"""Experiment configs, feature pipelines, and end-to-end runs.

A run is described by a flat ``key = value`` config file: corpus paths, one
of four feature modes (averaged word vectors, DMD, delay-embedded DMD,
precomputed sentence vectors), an optional random-feature lift, and one of
four classifiers.  Running an experiment trains on the train corpus,
evaluates on the test corpus, and writes a metrics report, the model file,
and a manifest with every seed, hyperparameter, and input checksum, so a
run can be reproduced bit-exactly.

Test features are read only by the final evaluation; in particular the
median-heuristic bandwidth is fitted on training features alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import LabeledCorpus, default_stopwords, load_olid_tsv, load_stopwords, tokenize_clean
from .dmd import HodmdConfig, sentence_feature
from .embed import VectorTable, average_embedding, load_precomputed, load_vec_table, token_matrix
from .errors import DataError
from .evaluation import MetricsReport, evaluate, labels_to_signs, render_report, sweep_csv_lines
from .learn import train_gnb, train_linear_svm, train_logreg, train_rlsc
from .model_io import save_model
from .rks import PRNG_ID, check_map_size, median_heuristic_sigma, sample_map, transform

__all__ = [
    "RksSpec",
    "ExperimentConfig",
    "parse_config",
    "load_corpora",
    "FeaturePipeline",
    "build_pipeline",
    "ExperimentResult",
    "fit",
    "sweep_reports",
    "run_sweep",
    "run_experiment",
    "write_artifacts",
    "export_feature_lines",
]

FEATURE_KINDS = ("avg", "dmd", "hodmd", "precomputed")
CLASSIFIER_KINDS = ("rlsc", "svm", "logreg", "gnb")

_HODMD_RE = re.compile(r"^hodmd\((\d+)\)$")


@dataclass(frozen=True)
class RksSpec:
    """Random-feature lift: output dim, bandwidth (None = median heuristic), seed."""

    dim: int
    sigma: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    train_tsv: Path
    test_tsv: Path
    feature: str
    classifier: str
    out_dir: Path
    test_labels: Path | None = None
    vec_file: Path | None = None
    precomputed_file: Path | None = None
    stopwords_file: Path | None = None
    hodmd_d: int = 1
    r_max: int = 10
    sv_rel_tol: float = 1e-10
    rks: RksSpec | None = None
    lam: float = 1e-3
    C: float = 1000.0
    svm_epochs: int = 200
    lr: float = 0.1
    logreg_epochs: int = 500
    l2: float = 1e-3
    var_floor: float = 1e-9
    seed: int = 0

    def validate(self) -> None:
        if self.feature not in FEATURE_KINDS:
            raise DataError(f"unknown feature kind {self.feature!r}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise DataError(f"unknown classifier {self.classifier!r}")
        if self.feature == "precomputed":
            if self.precomputed_file is None:
                raise DataError("feature 'precomputed' needs precomputed_file")
        elif self.vec_file is None:
            raise DataError(f"feature {self.feature!r} needs vec_file")
        if self.rks is not None:
            if self.rks.dim < 2 or self.rks.dim % 2 != 0:
                raise DataError(f"rks_dim must be even and >= 2, got {self.rks.dim}")
            if self.rks.sigma is not None and not (
                math.isfinite(self.rks.sigma) and self.rks.sigma > 0
            ):
                raise DataError(f"rks_sigma must be positive, got {self.rks.sigma!r}")
            if self.rks.seed < 0:
                raise DataError(f"rks_seed must be >= 0, got {self.rks.seed}")
            if self.classifier == "gnb":
                raise DataError("the random-feature lift requires a linear classifier")
        positive = {"lambda": self.lam, "C": self.C, "lr": self.lr, "var_floor": self.var_floor}
        for key, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{key} must be positive, got {value!r}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise DataError(f"l2 must be >= 0, got {self.l2!r}")
        if not 0.0 < self.sv_rel_tol < 1.0:
            raise DataError(f"sv_rel_tol must be in (0, 1), got {self.sv_rel_tol!r}")
        counts = {
            "hodmd order": self.hodmd_d,
            "r_max": self.r_max,
            "svm_epochs": self.svm_epochs,
            "logreg_epochs": self.logreg_epochs,
        }
        for key, value in counts.items():
            if value < 1:
                raise DataError(f"{key} must be >= 1, got {value}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    def input_paths(self) -> dict[str, Path]:
        paths = {"train_tsv": self.train_tsv, "test_tsv": self.test_tsv}
        for key in ("test_labels", "vec_file", "precomputed_file", "stopwords_file"):
            value = getattr(self, key)
            if value is not None:
                paths[key] = value
        return paths

    def check_inputs_exist(self) -> None:
        for key, path in self.input_paths().items():
            if not Path(path).is_file():
                raise DataError(f"{key}: no such file {path}")


def _median_or_number(text: str) -> float | None:
    return None if text == "median" else float(text)


# config key -> (field, parser).  "rks." fields belong to RksSpec, the rest
# to ExperimentConfig; a key absent from the file keeps the field's default.
_CONFIG_KEYS = {
    "name": ("name", str),
    "train_tsv": ("train_tsv", Path),
    "test_tsv": ("test_tsv", Path),
    "test_labels": ("test_labels", Path),
    "vec_file": ("vec_file", Path),
    "precomputed_file": ("precomputed_file", Path),
    "stopwords": ("stopwords_file", Path),
    "out_dir": ("out_dir", Path),
    "feature": ("feature", str),
    "r_max": ("r_max", int),
    "sv_rel_tol": ("sv_rel_tol", float),
    "rks_dim": ("rks.dim", int),
    "rks_sigma": ("rks.sigma", _median_or_number),
    "rks_seed": ("rks.seed", int),
    "classifier": ("classifier", str),
    "lambda": ("lam", float),
    "C": ("C", float),
    "svm_epochs": ("svm_epochs", int),
    "lr": ("lr", float),
    "logreg_epochs": ("logreg_epochs", int),
    "l2": ("l2", float),
    "var_floor": ("var_floor", float),
    "seed": ("seed", int),
}


def parse_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file (#-comments, blank lines ok).

    Relative paths are resolved against the config file's directory.
    """
    path = Path(path)
    fields: dict = {}
    rks_fields: dict = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        name, convert = _CONFIG_KEYS[key]
        target = rks_fields if name.startswith("rks.") else fields
        name = name.removeprefix("rks.")
        if name in target:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            target[name] = convert(value)
        except ValueError:
            raise DataError(f"{path}: key {key!r}: invalid value {value!r}") from None
        if convert is Path and not target[name].is_absolute():
            target[name] = (path.parent / target[name]).resolve()

    for required in ("train_tsv", "test_tsv", "feature", "classifier"):
        if required not in fields:
            raise DataError(f"{path}: missing required key {required!r}")
    match = _HODMD_RE.match(fields["feature"])
    if match:
        fields.update(feature="hodmd", hodmd_d=int(match.group(1)))
    elif fields["feature"] == "hodmd":
        raise DataError(f"{path}: feature 'hodmd' needs a delay order, e.g. 'hodmd(2)'")
    if "dim" in rks_fields:
        fields["rks"] = RksSpec(**rks_fields)
    elif rks_fields:
        raise DataError(f"{path}: rks_sigma/rks_seed given without rks_dim")
    fields.setdefault("name", path.stem)
    fields.setdefault("out_dir", Path("runs") / fields["name"])

    cfg = ExperimentConfig(**fields)
    cfg.validate()
    return cfg


def load_corpora(cfg: ExperimentConfig) -> tuple[LabeledCorpus, LabeledCorpus]:
    """The (train, test) corpora named by the config."""
    with open(cfg.train_tsv, "rb") as fh:
        train_corpus = load_olid_tsv(fh, split="train")
    label_fh = open(cfg.test_labels, "rb") if cfg.test_labels is not None else None
    try:
        with open(cfg.test_tsv, "rb") as fh:
            test_corpus = load_olid_tsv(fh, label_fh, split="test")
    finally:
        if label_fh is not None:
            label_fh.close()
    return train_corpus, test_corpus


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class FeaturePipeline:
    """Resolved feature extractor: corpus -> (n, dim) float64 array, one row
    per tweet.  ``table`` holds word vectors keyed by token, or for the
    precomputed kind sentence vectors keyed by tweet id."""

    kind: str
    stopwords: frozenset[str]
    table: VectorTable
    hodmd: HodmdConfig | None = None
    # token lists by tweet text, filled by build_pipeline so that the corpora
    # it saw are tokenized once; any other text is tokenized when featurized
    tokens: dict[str, list[str]] = field(default_factory=dict)

    def featurize(self, corpus: LabeledCorpus) -> np.ndarray:
        """The (n, dim) feature array of ``corpus``, one row per tweet.

        The word-vector modes group tweets by in-vocabulary length and
        featurize each group whole, as one (G, L) block of table rows.  The
        groups run on a thread pool with one worker per CPU this process may
        use (numpy's batched LAPACK calls release the interpreter lock), so
        at most one group's vectors per worker are held at a time.  Each
        group gets the same block as in a serial loop over the groups, so
        the output does not depend on the worker count, and an error is the
        one that loop would raise first.
        """
        if self.kind == "precomputed":
            try:
                rows = [self.table.index[tweet_id] for tweet_id in corpus.ids()]
            except KeyError as exc:
                raise DataError(f"precomputed table: no vector for id {exc.args[0]!r}") from None
            return self.table.matrix[rows]
        if self.kind not in ("avg", "dmd", "hodmd"):
            raise DataError(f"unknown feature kind {self.kind!r}")
        # imported here: concurrent.futures loads logging, and only this needs it
        from concurrent.futures import ThreadPoolExecutor

        rows = [self.table.rows(toks) for toks in self._tokens(corpus)]
        by_length: dict[int, list[int]] = {}
        for i, tweet_rows in enumerate(rows):
            by_length.setdefault(len(tweet_rows), []).append(i)
        values = np.zeros((len(rows), self.table.dim), dtype=np.float64)

        def featurize_group(members: list[int]) -> None:
            block = np.array([rows[i] for i in members], dtype=np.intp)
            if self.kind == "avg":
                values[members] = average_embedding(block, self.table)
            else:
                values[members] = sentence_feature(token_matrix(block, self.table), self.hodmd)

        # results are read in submission order; the first error read cancels
        # the groups not yet started
        with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
            for _ in pool.map(featurize_group, by_length.values()):
                pass
        return values

    def _tokens(self, corpus: LabeledCorpus) -> list[list[str]]:
        cached = self.tokens
        return [
            cached[rec.text] if rec.text in cached else tokenize_clean(rec.text, self.stopwords)
            for rec in corpus.records
        ]


def build_pipeline(cfg: ExperimentConfig, corpora: list[LabeledCorpus]) -> FeaturePipeline:
    """Load the resources the configured feature mode needs.

    Word-vector tables are filtered to the tokens that actually occur in
    the given corpora.  The filter is a loading optimization only: it
    never changes a lookup result, so passing the test corpus here does
    not leak anything into feature fitting.  The token lists computed for
    the filter stay in the pipeline, so featurizing these corpora does not
    tokenize them again.
    """
    stopwords = (
        load_stopwords(cfg.stopwords_file.read_text(encoding="utf-8"))
        if cfg.stopwords_file is not None
        else default_stopwords()
    )
    hodmd = None
    tokens: dict[str, list[str]] = {}
    if cfg.feature in ("avg", "dmd", "hodmd"):
        for corpus in corpora:
            for rec in corpus.records:
                if rec.text not in tokens:
                    tokens[rec.text] = tokenize_clean(rec.text, stopwords)
        vocab = set().union(*tokens.values())
        with open(cfg.vec_file, "rb") as fh:
            table = load_vec_table(fh, vocab_filter=vocab)
        if cfg.feature in ("dmd", "hodmd"):
            hodmd = HodmdConfig(d=cfg.hodmd_d, r_max=cfg.r_max, sv_rel_tol=cfg.sv_rel_tol)
    else:
        with open(cfg.precomputed_file, "rb") as fh:
            table = load_precomputed(fh)
    return FeaturePipeline(
        kind=cfg.feature,
        stopwords=stopwords,
        table=table,
        hodmd=hodmd,
        tokens=tokens,
    )


def _prepare(cfg: ExperimentConfig) -> tuple[LabeledCorpus, LabeledCorpus, np.ndarray, np.ndarray]:
    """Validate the config, check that its inputs exist, load the (train,
    test) corpora and return them with their (n, dim) feature arrays.  The
    pipeline (vector table, token lists) is dropped here, before training."""
    cfg.validate()
    cfg.check_inputs_exist()
    train_corpus, test_corpus = load_corpora(cfg)
    pipeline = build_pipeline(cfg, [train_corpus, test_corpus])
    train_F = pipeline.featurize(train_corpus)
    test_F = pipeline.featurize(test_corpus)
    return train_corpus, test_corpus, train_F, test_F


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _train(cfg: ExperimentConfig, F, y):
    if cfg.classifier == "rlsc":
        return train_rlsc(F, y, lam=cfg.lam)
    if cfg.classifier == "svm":
        return train_linear_svm(F, y, C=cfg.C, epochs=cfg.svm_epochs, seed=cfg.seed)
    if cfg.classifier == "logreg":
        return train_logreg(F, y, lr=cfg.lr, epochs=cfg.logreg_epochs, l2=cfg.l2, seed=cfg.seed)
    return train_gnb(F, y, var_floor=cfg.var_floor)


def _lift_sigma(rks: RksSpec, train_F: np.ndarray) -> float:
    """The lift bandwidth: the configured one, else the median heuristic on
    the training features."""
    if rks.sigma is not None:
        return rks.sigma
    rows = len(train_F)
    if rows < 2:
        raise DataError(f"the median-heuristic bandwidth needs 2 or more training rows, got {rows}")
    return median_heuristic_sigma(train_F, seed=rks.seed)


def fit(cfg: ExperimentConfig, train_F: np.ndarray, y: np.ndarray):
    """Train the configured classifier on the (n, dim) ``train_F``, lifted
    first when the config asks for the random-feature map (bandwidth ->
    ``sample_map`` -> ``transform``); the returned model carries the map, so
    it predicts from raw features.  A map recipe that ``sample_map`` refuses
    (e.g. one over its entry cap) is a DataError, raised before any map is
    drawn."""
    if cfg.rks is None:
        return _train(cfg, train_F, y)
    sigma = _lift_sigma(cfg.rks, train_F)
    try:
        rks_map = sample_map(train_F.shape[1], cfg.rks.dim, sigma, cfg.rks.seed)
    except ValueError as exc:
        raise DataError(f"random-feature map: {exc}") from None
    model = _train(cfg, transform(rks_map, train_F), y)
    model.rks = rks_map
    return model


def sweep_reports(
    train_corpus: LabeledCorpus,
    test_corpus: LabeledCorpus,
    train_F: np.ndarray,
    test_F: np.ndarray,
    run_cfgs: list[ExperimentConfig],
) -> list[tuple[object, MetricsReport]]:
    """(model, test metrics) of each config in ``run_cfgs``, configs that
    differ only in classifier settings or map dimension, fitted on the given
    feature arrays.  The lift bandwidth is fitted once, so each config costs
    only its map, training and evaluation.  Every map is checked against the
    entry cap before the first config is trained."""
    train_y = labels_to_signs(train_corpus)
    for run_cfg in run_cfgs:
        if run_cfg.rks is not None:
            try:
                check_map_size(train_F.shape[1], run_cfg.rks.dim)
            except ValueError as exc:
                raise DataError(f"random-feature map: {exc}") from None
    sigma = None
    results = []
    for run_cfg in run_cfgs:
        if run_cfg.rks is not None:
            if sigma is None:
                sigma = _lift_sigma(run_cfg.rks, train_F)
            run_cfg = replace(run_cfg, rks=replace(run_cfg.rks, sigma=sigma))
        model = fit(run_cfg, train_F, train_y)
        results.append((model, evaluate(model, test_corpus, test_F)))
    return results


def run_sweep(cfg: ExperimentConfig, value_name: str, values: list) -> tuple[list[str], Path]:
    """Sweep the SVM's C (``value_name`` "C") or the map dimension ("D")
    over ``values``; writes the ``value,accuracy`` table into the output
    directory and returns its lines and its path."""
    if value_name == "C":
        run_cfgs = [replace(cfg, C=c) for c in values]
        table = "sweep_C.csv"
    else:
        run_cfgs = [replace(cfg, rks=replace(cfg.rks or RksSpec(dim=d), dim=d)) for d in values]
        table = "sweep_dim.csv"
    for run_cfg in run_cfgs:
        run_cfg.validate()
    results = sweep_reports(*_prepare(cfg), run_cfgs)
    rows = [(float(value), report.accuracy) for value, (_, report) in zip(values, results)]
    lines = sweep_csv_lines(rows, value_name=value_name)
    write_artifacts(cfg.out_dir, {table: "".join(line + "\n" for line in lines)})
    return lines, Path(cfg.out_dir) / table


def _classifier_hyper(cfg: ExperimentConfig) -> dict:
    if cfg.classifier == "rlsc":
        return {"lambda": cfg.lam}
    if cfg.classifier == "svm":
        return {"C": cfg.C, "epochs": cfg.svm_epochs}
    if cfg.classifier == "logreg":
        return {"lr": cfg.lr, "epochs": cfg.logreg_epochs, "l2": cfg.l2}
    return {"var_floor": cfg.var_floor}


@dataclass
class ExperimentResult:
    report: MetricsReport
    manifest: dict
    model: object


def run_experiment(cfg: ExperimentConfig, write_files: bool = True) -> ExperimentResult:
    """Train per config and evaluate on the test corpus (a one-config
    ``sweep_reports``), then emit artifacts.

    All outputs are computed before anything is written, then written via
    rename, so a failed run leaves no partial report files.
    """
    train_corpus, test_corpus, train_F, test_F = _prepare(cfg)
    [(model, report)] = sweep_reports(train_corpus, test_corpus, train_F, test_F, [cfg])

    manifest = {
        "name": cfg.name,
        "package": {"name": "offdetect", "version": __version__},
        "feature": {
            "kind": cfg.feature,
            "d": cfg.hodmd_d if cfg.feature in ("dmd", "hodmd") else None,
            "r_max": cfg.r_max if cfg.feature in ("dmd", "hodmd") else None,
            "sv_rel_tol": cfg.sv_rel_tol if cfg.feature in ("dmd", "hodmd") else None,
            "dim": train_F.shape[1],
        },
        "rks": None
        if cfg.rks is None
        else {
            "dim": cfg.rks.dim,
            "sigma": model.rks.sigma,
            "sigma_spec": "median" if cfg.rks.sigma is None else "fixed",
            "seed": cfg.rks.seed,
            "prng": PRNG_ID,
        },
        "classifier": {"kind": cfg.classifier, **_classifier_hyper(cfg)},
        "seeds": {
            "train": cfg.seed,
            "rks": None if cfg.rks is None else cfg.rks.seed,
        },
        "inputs": {
            key: {"path": str(path), "sha256": _sha256(path)}
            for key, path in sorted(cfg.input_paths().items())
        },
        "corpus": {
            "train_records": len(train_corpus),
            "test_records": len(test_corpus),
        },
    }

    if write_files:
        tsv, text = render_report([(cfg.name, report)])
        model_file = io.BytesIO()
        save_model(model, model_file)
        write_artifacts(cfg.out_dir, {
            "report.tsv": tsv,
            "report.txt": text,
            "manifest.json": json.dumps(manifest, sort_keys=True, indent=2) + "\n",
            "model.offd": model_file.getvalue(),
        })
    return ExperimentResult(report=report, manifest=manifest, model=model)


def write_artifacts(out_dir, files: dict[str, str | bytes]) -> None:
    """Create ``out_dir`` and write each named file whole (text as UTF-8):
    to a temporary file first, then renamed into place, so no reader sees a
    partial one."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, payload in files.items():
        tmp = out_dir / (filename + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
        os.replace(tmp, out_dir / filename)


def export_feature_lines(cfg: ExperimentConfig) -> list[str]:
    """Raw (pre-lift) features of every train then test tweet, one
    ``id v1 ... v_dim`` line each, in the precomputed-vector text format."""
    train_corpus, test_corpus, train_F, test_F = _prepare(cfg)
    rows = zip(train_corpus.ids() + test_corpus.ids(), [*train_F, *test_F])
    return [" ".join([tweet_id, *(repr(float(v)) for v in row)]) for tweet_id, row in rows]
