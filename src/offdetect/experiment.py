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

import io
import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import LabeledCorpus, default_stopwords, load_olid_tsv, load_stopwords, text_lines, tokenize_clean
from .dmd import MAX_DELAY_ORDER, HodmdConfig, sentence_feature
from .embed import VectorTable, average_embedding, load_precomputed, load_vec_table, token_matrix
from .errors import DataError
from .evaluation import MetricsReport, evaluate, labels_to_signs, render_report, sweep_csv_lines
from .learn import train_gnb, train_linear_svm, train_logreg, train_rlsc, train_rlsc_nested
from .model_io import save_model
from .rks import MAX_MAP_ENTRIES, MAX_SEED, _usable_cpus, check_map_size, median_heuristic_sigma, sample_map, transform

__all__ = [
    "RksSpec",
    "ExperimentConfig",
    "parse_config",
    "load_corpora",
    "FeaturePipeline",
    "build_pipeline",
    "ExperimentResult",
    "sweep_reports",
    "run_sweep",
    "run_experiments",
    "run_experiment",
    "write_artifacts",
    "export_feature_lines",
]

FEATURE_KINDS = ("avg", "dmd", "hodmd", "precomputed")
CLASSIFIER_KINDS = ("rlsc", "svm", "logreg", "gnb")

_HODMD_RE = re.compile(r"^hodmd\((\d+)\)$")
# Most tweets featurized as one work unit: a length group is cut into chunks
# of this many, so a worker holds at most this many tweets' vectors and
# decompositions (the largest group of an OLID-size corpus has 750 tweets).
_FEATURIZE_CHUNK = 64
# Most stacked-snapshot entries of one DMD work unit (8 MiB of float64).  A
# tweet of L tokens, padded to L' = max(L, d + 1), stacks min(dim, L') * d *
# (L' - d + 1) of them, so 64 tweets of 140 tokens at d = 70 (300-dim
# vectors) would stack 44.5 million; this cuts them into chunks of one.
# Tweets of up to 128 tokens at d = 1 keep chunks of 64.
_FEATURIZE_ENTRIES = 1 << 20


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
    out_dir: Path | None  # None: fitted and evaluated, nothing written
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
            # a map has d_in x rks_dim entries, and every d_in is at least 1
            if self.rks.dim > MAX_MAP_ENTRIES:
                raise DataError(f"rks_dim must be <= {MAX_MAP_ENTRIES}, got {self.rks.dim}")
            if self.rks.sigma is not None and not (
                math.isfinite(self.rks.sigma) and self.rks.sigma > 0
            ):
                raise DataError(f"rks_sigma must be positive, got {self.rks.sigma!r}")
            if self.rks.seed < 0:
                raise DataError(f"rks_seed must be >= 0, got {self.rks.seed}")
            if self.rks.seed > MAX_SEED:
                raise DataError(f"rks_seed must be <= {MAX_SEED}, got {self.rks.seed}")
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
        if self.hodmd_d > MAX_DELAY_ORDER:
            raise DataError(f"hodmd order must be <= {MAX_DELAY_ORDER}, got {self.hodmd_d}")
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
        raw = path.read_bytes()
        text = raw.decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the bad byte's line: the last line of the text up to it, the byte read as "?"
        lineno = sum(1 for _ in text_lines(raw[: exc.start] + b"?", str(path)))
        raise DataError(f"{path}:{lineno}: not UTF-8 text") from None
    for lineno, line in text_lines(text, str(path)):
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
            raise DataError(f"{path}:{lineno}: key {key!r}: invalid value {value!r}") from None
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


def _input_lines(key: str, path: Path):
    """The lines, as bytes, of the input file that config ``key`` names; an
    OSError opening or reading it is a DataError naming the key and path."""
    try:
        with open(path, "rb") as fh:
            yield from fh
    except OSError as exc:
        raise DataError(f"{key}: cannot read {path}: {exc.strerror or exc}") from None


def load_corpora(cfg: ExperimentConfig) -> tuple[LabeledCorpus, LabeledCorpus]:
    """The (train, test) corpora named by the config (see ``_input_lines``)."""
    train_corpus = load_olid_tsv(_input_lines("train_tsv", cfg.train_tsv), split="train")
    labels = None if cfg.test_labels is None else _input_lines("test_labels", cfg.test_labels)
    test_corpus = load_olid_tsv(_input_lines("test_tsv", cfg.test_tsv), labels, split="test")
    return train_corpus, test_corpus


@dataclass
class FeaturePipeline:
    """Resolved feature extractor: corpus -> (n, dim) float64 array, one row
    per tweet.  ``table`` holds word vectors keyed by token, or for the
    precomputed kind sentence vectors keyed by tweet id."""

    kind: str
    table: VectorTable
    hodmd: HodmdConfig | None = None
    # the table rows of each tweet text's in-vocabulary tokens, in token
    # order, filled by build_pipeline: the word-vector modes featurize only
    # the texts it was built on
    rows: dict[str, np.ndarray] = field(default_factory=dict)

    def featurize(self, corpus: LabeledCorpus) -> np.ndarray:
        """The (n, dim) feature array of ``corpus``, one row per tweet.

        The word-vector modes read each tweet's table rows from ``rows``; a
        tweet whose text is not there is a DataError naming the first such
        tweet, as a tweet id missing from the precomputed table is.  They
        group tweets by in-vocabulary length and cut each group into
        chunks of at most _FEATURIZE_CHUNK tweets, and for
        DMD of at most _FEATURIZE_ENTRIES stacked-snapshot entries (but at
        least one tweet), each featurized as one (G, L) block of table rows.
        The chunks run on a thread pool with one worker per CPU this process
        may use (numpy's batched LAPACK calls release the interpreter lock),
        so at most one chunk's vectors per worker are held at a time.  Every tweet's
        feature is computed on its own within a block, so the output equals
        a serial loop over whole groups and does not depend on the worker
        count, and an error is the one that loop would raise first.  A
        non-finite feature row (word vectors so large that it overflows) is
        a DataError naming its tweet.
        """
        if self.kind == "precomputed":
            try:
                rows = [self.table.index[tweet_id] for tweet_id in corpus.ids()]
            except KeyError as exc:
                raise DataError(f"precomputed table: no vector for id {exc.args[0]!r}") from None
            return self.table.matrix[rows]
        if self.kind not in ("avg", "dmd", "hodmd"):
            raise DataError(f"unknown feature kind {self.kind!r}")
        # imported here, not with the module: concurrent.futures loads logging,
        # which importing offdetect and the precomputed mode do not need
        from concurrent.futures import ThreadPoolExecutor

        try:
            rows = [self.rows[rec.text] for rec in corpus.records]
        except KeyError:
            tweet_id = next(rec.id for rec in corpus.records if rec.text not in self.rows)
            raise DataError(f"tweet {tweet_id!r}: not in the corpora the pipeline was built on") from None
        by_length: dict[int, list[int]] = {}
        for i, tweet_rows in enumerate(rows):
            by_length.setdefault(len(tweet_rows), []).append(i)
        values = np.zeros((len(rows), self.table.dim), dtype=np.float64)

        def featurize_group(members: list[int]) -> None:
            block = np.array([rows[i] for i in members], dtype=np.intp)
            # an overflow is reported by the row check below, not by numpy
            # warnings; the error state is per thread, so it is set here
            with np.errstate(all="ignore"):
                if self.kind == "avg":
                    values[members] = average_embedding(block, self.table)
                else:
                    values[members] = sentence_feature(token_matrix(block, self.table), self.hodmd)

        # each group cut into chunks, in order: results are read in
        # submission order, and the first error read cancels the chunks not
        # yet started
        chunks = []
        for length, members in by_length.items():
            size = _FEATURIZE_CHUNK
            if self.hodmd is not None:
                d = self.hodmd.d
                padded = max(length, d + 1)
                entries = min(self.table.dim, padded) * d * (padded - d + 1)
                size = max(1, min(size, _FEATURIZE_ENTRIES // entries))
            chunks += [members[start : start + size] for start in range(0, len(members), size)]
        with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
            for _ in pool.map(featurize_group, chunks):
                pass
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            tweet_id = corpus.records[int(finite.argmin())].id
            raise DataError(f"tweet {tweet_id!r}: feature is not finite (word vectors too large)")
        return values


def build_pipeline(cfg: ExperimentConfig, corpora: list[LabeledCorpus]) -> FeaturePipeline:
    """Load the resources the configured feature mode needs.

    Word-vector tables are filtered to the tokens that actually occur in
    the given corpora.  The filter is a loading optimization only: it
    never changes a lookup result, so passing the test corpus here does
    not leak anything into feature fitting.  Each distinct text is
    tokenized once, for the filter; once the table is loaded, its tokens
    become one array of table rows, which the pipeline keeps in place of
    the token lists.  The pipeline featurizes these corpora only, and
    neither tokenizes nor looks them up again.  Only the word-vector modes
    read the stopwords.
    """
    hodmd = None
    rows: dict[str, np.ndarray] = {}
    if cfg.feature in ("avg", "dmd", "hodmd"):
        if cfg.stopwords_file is None:
            stopwords = default_stopwords()
        else:
            stopwords = load_stopwords(_input_lines("stopwords_file", cfg.stopwords_file))
        tokens: dict[str, list[str]] = {}
        for corpus in corpora:
            for rec in corpus.records:
                if rec.text not in tokens:
                    tokens[rec.text] = tokenize_clean(rec.text, stopwords)
        vocab = set().union(*tokens.values())
        table = load_vec_table(_input_lines("vec_file", cfg.vec_file), vocab_filter=vocab)
        rows = {text: table.rows(toks) for text, toks in tokens.items()}
        if cfg.feature in ("dmd", "hodmd"):
            hodmd = HodmdConfig(d=cfg.hodmd_d, r_max=cfg.r_max, sv_rel_tol=cfg.sv_rel_tol)
    else:
        table = load_precomputed(_input_lines("precomputed_file", cfg.precomputed_file))
    return FeaturePipeline(kind=cfg.feature, table=table, hodmd=hodmd, rows=rows)


def _prepare(cfg: ExperimentConfig) -> tuple[LabeledCorpus, LabeledCorpus, np.ndarray, np.ndarray]:
    """Validate the config, check that its inputs exist, load the (train,
    test) corpora and return them with their (n, dim) feature arrays.  The
    pipeline (vector table, table rows) is dropped here, before training."""
    cfg.validate()
    cfg.check_inputs_exist()
    train_corpus, test_corpus = load_corpora(cfg)
    pipeline = build_pipeline(cfg, [train_corpus, test_corpus])
    train_F = pipeline.featurize(train_corpus)
    test_F = pipeline.featurize(test_corpus)
    return train_corpus, test_corpus, train_F, test_F


def _unloaded_digests(cfg: ExperimentConfig) -> dict[str, str]:
    """The checksums of the inputs that the config names but ``_prepare``
    does not load (a precomputed config's ``vec_file`` and stopwords, a
    word-vector config's ``precomputed_file``), by config key.  They are
    read before the data loads, so that an unreadable one is refused
    before any training; every input's existence is checked first."""
    cfg.check_inputs_exist()
    tables = {"precomputed_file"} if cfg.feature == "precomputed" else {"vec_file", "stopwords_file"}
    loaded = {"train_tsv", "test_tsv", "test_labels", *tables}
    paths = cfg.input_paths()
    return {key: _sha256(key, paths[key]) for key in sorted(paths.keys() - loaded)}


def _sha256(key: str, path: Path) -> str:
    # imported here, not with the module: hashlib loads OpenSSL, which only a
    # written run's input checksums need, after its features and model exist
    # (before the data loads only for an input its feature mode never loads)
    import hashlib

    digest = hashlib.sha256()
    for line in _input_lines(key, path):
        digest.update(line)
    return digest.hexdigest()


def _train(cfg: ExperimentConfig, F, y, rks=None):
    """The configured classifier fitted on F, or with a map ``rks`` on F
    lifted through it; the model then carries the map.  ``sweep_reports``
    passes each lifted svm or logreg config the prefix of its recipe's one
    drawn map, and fits lifted rlsc configs by ``train_rlsc_nested``
    instead.  svm and logreg train on the whole lifted matrix (gnb takes no
    map: ``validate`` refuses the pair)."""
    if cfg.classifier == "rlsc":
        return train_rlsc(F, y, lam=cfg.lam, rks=rks)
    if cfg.classifier == "gnb":
        return train_gnb(F, y, var_floor=cfg.var_floor)
    lifted = F if rks is None else transform(rks, F)
    if cfg.classifier == "svm":
        model = train_linear_svm(lifted, y, C=cfg.C, epochs=cfg.svm_epochs, seed=cfg.seed)
    else:
        model = train_logreg(lifted, y, lr=cfg.lr, epochs=cfg.logreg_epochs, l2=cfg.l2)
    model.rks = rks
    return model


def sweep_reports(
    train_corpus: LabeledCorpus,
    test_corpus: LabeledCorpus,
    train_F: np.ndarray,
    test_F: np.ndarray,
    run_cfgs: list[ExperimentConfig],
) -> list[tuple[object, MetricsReport]]:
    """(model, test metrics) of each config in ``run_cfgs``, fitted on the
    given feature arrays.  A config with a lift passes the raw features and
    its map to the trainer, which lifts them, and its model carries the map.
    One map is drawn per (rks_sigma, rks_seed), at the widest of its
    configs' dimensions, on the bandwidth given or else the median heuristic
    on the training features; every lifted config takes the prefix of that
    map at its own dimension, which is the map it draws alone (the maps
    nest).  An unlabeled tweet in either corpus and an empty test corpus
    are refused, and every map is checked against the entry cap, before any
    map is drawn or config trained; a recipe ``sample_map`` refuses is a
    DataError.

    The configs are fitted widest training matrix first (the lift dimension,
    else the feature dimension; ties in input order), so the largest
    allocation comes before any smaller fit leaves freed memory behind.
    The lifted rlsc configs of one (rks_sigma, rks_seed, lambda) are fitted
    together, when the widest of them comes up, by one
    ``train_rlsc_nested`` call, where a narrower primal system is a
    sub-block of a wider one; every other config is fitted by ``_train``.
    Results stay in input order; when several configs fail, the widest
    one's error is raised."""
    train_y = labels_to_signs(train_corpus)
    labels_to_signs(test_corpus)
    if not test_corpus.records:
        raise DataError("empty test set (zero rows)")
    for run_cfg in run_cfgs:
        if run_cfg.rks is not None:
            try:
                check_map_size(train_F.shape[1], run_cfg.rks.dim)
            except ValueError as exc:
                raise DataError(f"random-feature map: {exc}") from None
    widths = [train_F.shape[1] if c.rks is None else c.rks.dim for c in run_cfgs]
    order = sorted(range(len(run_cfgs)), key=lambda i: -widths[i])
    recipes = [None if c.rks is None else (c.rks.sigma, c.rks.seed) for c in run_cfgs]
    maps: dict = {}  # recipe -> its drawn map
    results: list = [None] * len(run_cfgs)
    for i in order:
        if results[i] is not None:
            continue
        run_cfg, recipe = run_cfgs[i], recipes[i]
        if recipe is None:
            model = _train(run_cfg, train_F, train_y)
            results[i] = (model, evaluate(model, test_corpus, test_F))
            continue
        if recipe not in maps:
            sigma, seed = recipe
            if sigma is None:
                if len(train_F) < 2:
                    raise DataError("the median-heuristic bandwidth needs 2 or more training rows, "
                                    f"got {len(train_F)}")
                sigma = median_heuristic_sigma(train_F, seed=seed)
            try:
                maps[recipe] = sample_map(train_F.shape[1], run_cfg.rks.dim, sigma, seed)
            except ValueError as exc:
                raise DataError(f"random-feature map: {exc}") from None
        if run_cfg.classifier == "rlsc":
            together = [j for j in order if results[j] is None and run_cfgs[j].classifier == "rlsc"
                        and (recipes[j], run_cfgs[j].lam) == (recipe, run_cfg.lam)]
            prefixes = [maps[recipe].prefix(run_cfgs[j].rks.dim) for j in together]
            models = train_rlsc_nested(train_F, train_y, prefixes, lam=run_cfg.lam)
        else:
            together, models = [i], [_train(run_cfg, train_F, train_y, maps[recipe].prefix(run_cfg.rks.dim))]
        for j, model in zip(together, models):
            results[j] = (model, evaluate(model, test_corpus, test_F))
    return results


def run_sweep(cfg: ExperimentConfig, value_name: str, values: list) -> tuple[list[str], Path]:
    """Sweep the SVM's C (``value_name`` "C") or the map dimension ("D")
    over ``values`` (``run_experiments`` of one unwritten config per value);
    writes only the ``value,accuracy`` table, and returns its lines and path."""
    if value_name == "C":
        run_cfgs = [replace(cfg, C=c) for c in values]
        table = "sweep_C.csv"
    else:
        run_cfgs = [replace(cfg, rks=replace(cfg.rks or RksSpec(dim=d), dim=d)) for d in values]
        table = "sweep_dim.csv"
    results = run_experiments([replace(run_cfg, out_dir=None) for run_cfg in run_cfgs])
    rows = [(float(value), result.report.accuracy) for value, result in zip(values, results)]
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
    manifest: dict | None  # None when the config's out_dir is None
    model: object


def _feature_settings(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with the fields that only training or the artifacts read
    reset, so a field not listed here keeps configs from sharing features."""
    training = ("name", "out_dir", "classifier", "rks", "lam", "C", "svm_epochs", "lr",
                "logreg_epochs", "l2", "var_floor", "seed")
    return replace(cfg, **dict.fromkeys(training))


def run_experiments(cfgs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Train and evaluate each config, then write its artifacts (via
    rename); one result per config, in input order.  A config whose
    ``out_dir`` is None writes nothing and gets ``manifest`` None.  All
    configs are validated before any data loads.  Configs with equal feature
    settings share one ``_prepare`` and ``sweep_reports`` call, and one input
    checksum pass if any of them is written, group by group in first-seen
    order (the inputs that ``_prepare`` does not load are checksummed before
    it, the others once the group is fitted); a group's files are written
    only once all of it is fitted: a failure stops the call there."""
    for cfg in cfgs:
        cfg.validate()
    groups: dict[ExperimentConfig, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_feature_settings(cfg), []).append(i)
    results: list = [None] * len(cfgs)
    for settings, members in groups.items():
        written = any(cfgs[i].out_dir is not None for i in members)
        digests = _unloaded_digests(settings) if written else {}
        train_corpus, test_corpus, train_F, test_F = _prepare(cfgs[members[0]])
        fitted = sweep_reports(train_corpus, test_corpus, train_F, test_F, [cfgs[i] for i in members])
        dim = train_F.shape[1]
        counts = {"train_records": len(train_corpus), "test_records": len(test_corpus)}
        del train_corpus, test_corpus, train_F, test_F
        inputs = None
        for i, (model, report) in zip(members, fitted):
            cfg = cfgs[i]
            manifest = None
            if cfg.out_dir is not None:
                inputs = inputs or {
                    key: {"path": str(path), "sha256": digests.get(key) or _sha256(key, path)}
                    for key, path in sorted(settings.input_paths().items())
                }
                manifest = {
                    "name": cfg.name,
                    "package": {"name": "offdetect", "version": __version__},
                    "feature": {
                        "kind": cfg.feature,
                        "d": cfg.hodmd_d if cfg.feature in ("dmd", "hodmd") else None,
                        "r_max": cfg.r_max if cfg.feature in ("dmd", "hodmd") else None,
                        "sv_rel_tol": cfg.sv_rel_tol if cfg.feature in ("dmd", "hodmd") else None,
                        "dim": dim,
                    },
                    "rks": None
                    if cfg.rks is None
                    else {
                        "dim": cfg.rks.dim,
                        "sigma": model.rks.sigma,
                        "sigma_spec": "median" if cfg.rks.sigma is None else "fixed",
                        "seed": cfg.rks.seed,
                        "prng": model.rks.prng,
                    },
                    "classifier": {"kind": cfg.classifier, **_classifier_hyper(cfg)},
                    "seeds": {
                        "train": cfg.seed,
                        "rks": None if cfg.rks is None else cfg.rks.seed,
                    },
                    "inputs": inputs,
                    "corpus": counts,
                }
                tsv, text = render_report([(cfg.name, report)])
                model_file = io.BytesIO()
                save_model(model, model_file)
                write_artifacts(cfg.out_dir, {
                    "report.tsv": tsv,
                    "report.txt": text,
                    "manifest.json": json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    "model.offd": model_file.getvalue(),
                })
            results[i] = ExperimentResult(report=report, manifest=manifest, model=model)
    return results


def run_experiment(cfg: ExperimentConfig, write_files: bool = True) -> ExperimentResult:
    """``run_experiments`` of the one config ``cfg``, unwritten unless ``write_files``."""
    return run_experiments([cfg if write_files else replace(cfg, out_dir=None)])[0]


def write_artifacts(out_dir, files: dict[str, str | bytes]) -> None:
    """Create ``out_dir`` and write each named file whole (text as UTF-8).

    Every target is checked first (none may be a directory), then every
    file is written to a temporary file, and only once all of them are
    written are they renamed into place.  So no reader sees a partial file,
    and a failure before the renames, whatever its exception, leaves the
    files already there as they were, with no temporary file.  A path that
    cannot be written is a DataError naming it; any other exception
    propagates."""
    out_dir = Path(out_dir)
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for filename in files:
            if (out_dir / filename).is_dir():
                raise DataError(f"cannot write {out_dir / filename}: Is a directory")
        for filename, payload in files.items():
            tmp = out_dir / (filename + ".tmp")
            with open(tmp, "wb") as fh:
                written.append(tmp)
                fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
        for tmp, filename in zip(written, files):
            os.replace(tmp, out_dir / filename)
    except BaseException as exc:
        for tmp in written:
            tmp.unlink(missing_ok=True)  # a failed write leaves no temporary file
        if not isinstance(exc, OSError):
            raise
        raise DataError(f"cannot write {exc.filename2 or exc.filename or out_dir}: {exc.strerror}") from None


def export_feature_lines(cfg: ExperimentConfig) -> list[str]:
    """Raw (pre-lift) features of every train then test tweet, one
    ``id v1 ... v_dim`` line each, in the precomputed-vector text format."""
    train_corpus, test_corpus, train_F, test_F = _prepare(cfg)
    rows = zip(train_corpus.ids() + test_corpus.ids(), [*train_F, *test_F])
    return [" ".join([tweet_id, *(repr(float(v)) for v in row)]) for tweet_id, row in rows]
