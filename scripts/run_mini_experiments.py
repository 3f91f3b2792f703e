#!/usr/bin/env python3
"""Run the full experiment grid on the bundled mini corpus.

Three stages, mirroring how the pipeline is meant to be exercised:

1. baseline classifiers on averaged-word-vector and precomputed features,
2. DMD / delay-embedded DMD features under a linear SVM, plus the
   control-parameter sweep,
3. the random-feature lift at increasing output dimensions under ridge
   classification, for both embedding families.

Writes reports and sweep CSVs under --out (default runs/mini) and prints
the aligned tables.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from offdetect.evaluation import render_report  # noqa: E402
from offdetect.experiment import ExperimentConfig, RksSpec, run_experiment, run_sweep  # noqa: E402

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


def stage_baselines(out_root: Path) -> None:
    rows = []
    for feature in ("avg", "precomputed"):
        for classifier in ("rlsc", "svm", "logreg", "gnb"):
            name = f"{feature}-{classifier}"
            cfg = base_config(name, out_root, feature=feature, classifier=classifier)
            rows.append((name, run_experiment(cfg).report))
    _, text = render_report(rows)
    print("== baseline classifiers ==")
    print(text)


def stage_dmd(out_root: Path) -> None:
    rows = []
    for name, feature, d in (("dmd", "dmd", 1), ("hodmd-d2", "hodmd", 2), ("hodmd-d3", "hodmd", 3)):
        cfg = base_config(name, out_root, feature=feature, hodmd_d=d, classifier="svm")
        rows.append((name, run_experiment(cfg).report))
    _, text = render_report(rows)
    print("== decomposition features, linear SVM (C=1000) ==")
    print(text)

    cfg = base_config("dmd-c-sweep", out_root, feature="dmd", classifier="svm")
    lines, _ = run_sweep(cfg, "C", [0.1, 1.0, 100.0, 500.0, 1000.0])
    print("== control-parameter sweep (DMD features) ==")
    for line in lines:
        print(line.replace(",", "\t"))
    print()


def stage_rks(out_root: Path) -> None:
    for feature in ("avg", "precomputed"):
        rows = []
        for dim in (100, 200, 500, 1000):
            name = f"{feature}-rks{dim}-rlsc"
            cfg = base_config(
                name, out_root, feature=feature, classifier="rlsc",
                rks=RksSpec(dim=dim),
            )
            rows.append((name, run_experiment(cfg).report))
        _, text = render_report(rows)
        print(f"== random-feature lift, ridge classifier ({feature} features) ==")
        print(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO / "runs" / "mini")
    args = parser.parse_args()
    stage_baselines(args.out)
    stage_dmd(args.out)
    stage_rks(args.out)
    print(f"artifacts under {args.out}")


if __name__ == "__main__":
    main()
