"""Offensive-tweet classification experiments.

Pipeline stages: OLID-format corpus loading and cleaning, sentence features
(averaged word vectors, DMD / delay-embedded DMD extrapolation, precomputed
encoder vectors), an optional random-feature lift approximating the
Gaussian kernel, four linear-ish classifiers, and macro-averaged metric
reports.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    LabeledCorpus,
    TweetRecord,
    default_stopwords,
    load_olid_tsv,
    normalize_social,
    tokenize_clean,
)
from .dmd import HodmdConfig, build_snapshots, compute_dmd, predict_state, sentence_feature  # noqa: F401
from .embed import (  # noqa: F401
    VectorTable,
    average_embedding,
    load_precomputed,
    load_vec_table,
    token_matrix,
)
from .errors import DataError, ModelFormatError, NumericError  # noqa: F401
from .evaluation import ConfusionMatrix, MetricsReport, evaluate, macro_metrics, render_report  # noqa: F401
from .learn import (  # noqa: F401
    GnbModel,
    LinearModel,
    predict,
    train_gnb,
    train_linear_svm,
    train_logreg,
    train_rlsc,
)
from .model_io import load_model, save_model  # noqa: F401
from .rks import RksMap, approx_kernel, median_heuristic_sigma, sample_map, transform  # noqa: F401
