#!/usr/bin/env python3
"""Cheap self-test of the benchmark harness on the bundled mini corpus.

    python3 bench/selftest.py

Runs every workload through the same code as a benchmark run (fresh CLI
processes, output checks, metric extraction), untraced and traced, on
``data/mini`` with a zero-second window, and checks that:

* every run is correct, with no failed invocation;
* the reported metric names and units are exactly those of BENCHMARK.json;
* the traced runs see the work each workload is meant to stress;
* the output checks catch a report that no longer matches the model;
* the corpus generator is deterministic, in a small configuration;
* the harness refuses to run, printing no result, without ``src/``.

Exits 0 when all hold.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import gen_corpus
import run_bench

MINI = run_bench.ROOT / "data" / "mini"
WORK = run_bench.ROOT / ".bench_work" / "selftest"

# traced metrics that must be non-zero on each workload
STRESSED = {
    "avg-svm": ("learn.svm_steps", "embed.average_embedding_s"),
    "hodmd-then-sweep": ("dmd.sentence_feature_calls", "embed.token_matrix_s", "learn.train_rlsc_s",
                         "embed.load_precomputed_calls", "rks.transform_bytes"),
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def declared(section: str) -> list[tuple[str, str]]:
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[section]]


def run_workloads(inputs, digests) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        for workload in run_bench.WORKLOADS:
            result = run_bench.run(workload, inputs, digests, 0.0, trace, WORK)
            label = f"{workload} trace={int(trace)}"
            errors = [e for r in result["invocations"] for e in r["errors"]]
            check(result["correct"] and result["failed"] == 0, f"{label}: {errors}")
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            check(got == declared(section), f"{label}: metrics differ from BENCHMARK.json")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{label}: non-finite metric")
            if trace:
                for name in STRESSED[workload]:
                    check(result["metrics"][name]["value"] > 0, f"{label}: {name} is zero")
            print(f"ok  {label}: {result['attempted']} invocations")


def tampered_report_is_caught(inputs) -> None:
    runs = WORK / "tamper"
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)
    cfg = run_bench.write_config(runs / "avg-svm.cfg", "avg-svm", inputs)
    checker = run_bench.Checker("avg-svm", cfg)
    out_dir = runs / "inv"
    record = run_bench.invoke(cfg, "avg-svm", out_dir, timeout=60.0)
    checker.check(record, out_dir)
    check(not record["errors"], f"untampered outputs rejected: {record['errors']}")
    report = out_dir / "report.tsv"
    header, row = report.read_text(encoding="utf-8").splitlines()
    fields = row.split("\t")
    fields[1] = "100.00" if fields[1] != "100.00" else "0.00"
    report.write_text(f"{header}\n" + "\t".join(fields) + "\n", encoding="utf-8")
    checker.reference = None
    record = {"exit_code": 0, "errors": []}
    checker.check(record, out_dir)
    check(any("report.tsv" in e for e in record["errors"]), "tampered report.tsv not caught")
    print("ok  a tampered report.tsv is caught")


def generator_is_deterministic() -> None:
    sizes = {"N_TRAIN": (30, 60), "N_TEST": (10, 20)}
    saved = {name: getattr(gen_corpus, name) for name in sizes}
    try:
        for name, value in sizes.items():
            setattr(gen_corpus, name, value)
        first = gen_corpus.generate(7, WORK / "gen-a")
        second = gen_corpus.generate(7, WORK / "gen-b")
        other = gen_corpus.generate(8, WORK / "gen-c")
    finally:
        for name, value in saved.items():
            setattr(gen_corpus, name, value)
    check(first == second, "same seed gave different files")
    check(all(first[n] != other[n] for n in gen_corpus.FILES), "another seed gave the same files")
    print("ok  the generator is deterministic per seed")


def refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run_bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "avg-svm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0, "exit code 0 without sources")
    check("{" not in proc.stdout, "printed a result without sources")
    print("ok  refuses to run without src/")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    inputs = {
        "train": MINI / "train.tsv",
        "test": MINI / "test.tsv",
        "test_labels": MINI / "test_labels.csv",
        "vec": MINI / "toy.vec",
        "precomputed": MINI / "precomputed.txt",
    }
    digests = {path.name: gen_corpus.sha256(path) for path in inputs.values()}
    run_bench.use_sources()
    run_workloads(inputs, digests)
    tampered_report_is_caught(inputs)
    generator_is_deterministic()
    refuses_without_sources()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
