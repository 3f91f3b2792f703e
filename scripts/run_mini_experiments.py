#!/usr/bin/env python3
"""Run the full experiment grid on the bundled mini corpus.

The grid's cells, mirroring how the pipeline is meant to be exercised:

1. baseline classifiers on averaged-word-vector and precomputed features,
2. DMD / delay-embedded DMD features under a linear SVM, plus the
   control-parameter sweep,
3. the random-feature lift at increasing output dimensions under ridge
   classification, for both embedding families.

The cells and the sweep's points (configs with no output directory) run in
one ``run_experiments`` call, which featurizes once per feature setting, so
the sweep shares the ``dmd`` cell's features.  Writes reports and the sweep
CSV under --out (default runs/mini) and prints the aligned tables.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from offdetect.evaluation import render_report, sweep_csv_lines  # noqa: E402
from offdetect.experiment import ExperimentConfig, RksSpec, run_experiments, write_artifacts  # noqa: E402

MINI = REPO / "data" / "mini"


def base_config(name: str, out_root: Path, **overrides) -> ExperimentConfig:
    kwargs = dict(
        name=name,
        train_tsv=MINI / "train.tsv",
        test_tsv=MINI / "test.tsv",
        test_labels=MINI / "test_labels.csv",
        vec_file=MINI / "toy.vec",
        precomputed_file=MINI / "precomputed.txt",
        feature="avg",
        classifier="rlsc",
        out_dir=out_root / name,
        svm_epochs=300,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO / "runs" / "mini")
    args = parser.parse_args()
    baselines = [
        base_config(f"{feature}-{classifier}", args.out, feature=feature, classifier=classifier)
        for feature in ("avg", "precomputed")
        for classifier in ("rlsc", "svm", "logreg", "gnb")
    ]
    decomposition = [
        base_config(name, args.out, feature=feature, hodmd_d=d, classifier="svm")
        for name, feature, d in (("dmd", "dmd", 1), ("hodmd-d2", "hodmd", 2), ("hodmd-d3", "hodmd", 3))
    ]
    lifts = {
        feature: [
            base_config(f"{feature}-rks{dim}-rlsc", args.out, feature=feature, rks=RksSpec(dim=dim))
            for dim in (100, 200, 500, 1000)
        ]
        for feature in ("avg", "precomputed")
    }
    cells = baselines + decomposition + [cfg for cfgs in lifts.values() for cfg in cfgs]
    sweep = base_config("dmd-c-sweep", args.out, feature="dmd", classifier="svm")
    c_values = [0.1, 1.0, 100.0, 500.0, 1000.0]
    results = run_experiments(cells + [replace(sweep, C=c, out_dir=None) for c in c_values])
    reports = {cfg.name: result.report for cfg, result in zip(cells, results)}
    sweep_rows = [(c, result.report.accuracy) for c, result in zip(c_values, results[len(cells):])]
    lines = sweep_csv_lines(sweep_rows, value_name="C")
    write_artifacts(sweep.out_dir, {"sweep_C.csv": "".join(line + "\n" for line in lines)})

    def print_table(title: str, cfgs: list[ExperimentConfig]) -> None:
        _, text = render_report([(cfg.name, reports[cfg.name]) for cfg in cfgs])
        print(f"== {title} ==")
        print(text)

    print_table("baseline classifiers", baselines)
    print_table("decomposition features, linear SVM (C=1000)", decomposition)
    print("== control-parameter sweep (DMD features) ==")
    for line in lines:
        print(line.replace(",", "\t"))
    print()
    for feature, cfgs in lifts.items():
        print_table(f"random-feature lift, ridge classifier ({feature} features)", cfgs)
    print(f"artifacts under {args.out}")


if __name__ == "__main__":
    main()
