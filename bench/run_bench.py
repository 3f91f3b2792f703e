#!/usr/bin/env python3
"""offdetect benchmark: OLID-scale workloads through the real CLI.

    python3 bench/run_bench.py --workload avg-svm --seed 1 --seconds 60 --trace 0

One run generates (or reuses) the seeded corpus, then, for ``--seconds``,
launches the workload's ``offdetect`` commands in turn, each in a fresh
process, one at a time (a closed loop with one client), and checks every
output after each invocation, outside its timing.  A round is one
invocation of each of the workload's commands.  ``--trace 0`` reports the
end-to-end metrics of a round; ``--trace 1`` alternates untraced and traced
rounds and reports the per-module metrics of the traced ones.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  The full record
(machine facts, input checksums, every invocation, the span call tree)
goes to ``.bench_work/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen_corpus
from tracer import totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SWEEP_DIMS = (1000, 2000, 4000)

# The commands a workload can run; the configs are the shipped ones with
# the corpus paths filled in.
COMMANDS = {
    "avg-svm": {
        "argv": ["run"],
        "config": "vec_file = {vec}\nfeature = avg\nclassifier = svm\nC = 1000\nsvm_epochs = 200\n",
    },
    "hodmd-rks-rlsc": {
        "argv": ["run"],
        "config": "vec_file = {vec}\nfeature = hodmd(2)\nrks_dim = 200\nrks_sigma = median\n"
                  "rks_seed = 0\nclassifier = rlsc\nlambda = 1e-3\n",
    },
    "precomputed-sweep-dim": {
        "argv": ["sweep", "--sweep-dim", ",".join(map(str, SWEEP_DIMS))],
        "config": "precomputed_file = {precomputed}\nfeature = precomputed\nrks_dim = 200\n"
                  "rks_sigma = median\nrks_seed = 0\nclassifier = rlsc\nlambda = 1e-3\n",
    },
}
# workload -> the commands of one round, in order.  Why each workload
# exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "avg-svm": ("avg-svm",),
    "hodmd-then-sweep": ("hodmd-rks-rlsc", "precomputed-sweep-dim"),
}
CORPUS_HEAD = "train_tsv = {train}\ntest_tsv = {test}\ntest_labels = {test_labels}\nseed = 0\n"

# (name, unit) in BENCHMARK.json order
END_TO_END = [
    ("run_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
    ("accuracy_pct", "%"), ("macro_f1_pct", "%"), ("ok_ratio", "ratio"),
]
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.parse_config_s", "s"),
    ("corpus.load_olid_tsv_s", "s"), ("corpus.tokenize_clean_s", "s"),
    ("corpus.tokenize_calls", "count"),
    ("embed.load_vec_table_s", "s"), ("embed.vec_rows_kept_ratio", "ratio"),
    ("embed.average_embedding_s", "s"), ("embed.token_matrix_s", "s"),
    ("embed.load_precomputed_s", "s"), ("embed.load_precomputed_calls", "count"),
    ("dmd.sentence_feature_s", "s"), ("dmd.sentence_feature_calls", "count"),
    ("dmd.us_per_tweet", "us"), ("dmd.cpu_per_wall", "ratio"),
    ("experiment.build_pipeline_s", "s"), ("experiment.featurize_s", "s"),
    ("experiment.featurize_calls", "count"),
    ("rks.median_heuristic_sigma_s", "s"), ("rks.transform_s", "s"),
    ("rks.transform_bytes", "bytes"),
    ("learn.train_linear_svm_s", "s"), ("learn.svm_steps", "count"),
    ("learn.svm_ns_per_step", "ns"), ("learn.svm_objective", "objective"),
    ("learn.train_rlsc_s", "s"), ("learn.rlsc_gram_flops", "flop"),
    ("learn.predict_s", "s"), ("evaluation.evaluate_self_s", "s"),
    ("model_io.save_model_s", "s"), ("model_io.load_model_s", "s"),
    ("model_io.model_bytes", "bytes"),
    ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
]

MIN_FULL = 2  # full untraced rounds per run, so outputs are always compared across two
DEADLINE_S = 165.0  # no round starts that would end after this; a run must end within 180 s
RUN_OUTPUTS = ("report.tsv", "manifest.json", "model.offd")
THREAD_ENV = ("OFFD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def use_sources() -> None:
    """Let the output checks import offdetect from this checkout's ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))


# --- inputs -----------------------------------------------------------------


def generated_corpus(work: Path, seed: int) -> tuple[dict[str, Path], dict[str, str]]:
    """The corpus for ``seed`` under ``work/corpus``, generated unless a
    complete copy with matching checksums is there; returns (paths, sha256)."""
    cache = work / "corpus"
    version = gen_corpus.sha256(Path(gen_corpus.__file__))[:12]
    dest = cache / f"seed-{seed}-{version}"
    paths = {
        "train": dest / "train.tsv",
        "test": dest / "test.tsv",
        "test_labels": dest / "test_labels.csv",
        "vec": dest / "vectors.vec",
        "precomputed": dest / "precomputed.txt",
    }
    recorded = dest / "sha256.json"
    if recorded.is_file():
        digests = {name: gen_corpus.sha256(dest / name) for name in gen_corpus.FILES}
        if json.loads(recorded.read_text()) == digests:
            return paths, digests
        shutil.rmtree(dest)
    cache.mkdir(parents=True, exist_ok=True)
    # keep the cache bounded: a few seeds of ~30 MB each
    old = sorted(cache.iterdir(), key=lambda p: p.stat().st_mtime)
    for stale in old[:-7]:
        shutil.rmtree(stale, ignore_errors=True)
    tmp = cache / f".tmp-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    digests = gen_corpus.generate(seed, tmp)
    (tmp / "sha256.json").write_text(json.dumps(digests))
    os.replace(tmp, dest)
    return paths, digests


def write_config(path: Path, command: str, inputs: dict[str, Path]) -> Path:
    text = CORPUS_HEAD + COMMANDS[command]["config"]
    path.write_text(text.format(**{k: str(v) for k, v in inputs.items()}), encoding="utf-8")
    return path


# --- one invocation ---------------------------------------------------------


def invoke(cfg: Path, command: str, out_dir: Path, *, setup_only=False, trace=False,
           timeout: float) -> dict:
    """Launch one fresh ``offdetect`` process and wait for it; returns its
    wall, set-up and CPU time, peak RSS, exit code and the launcher's stamp."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stamp = out_dir.parent / f"{out_dir.name}.stamp.json"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), "--stamp", str(stamp)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    cmd += ["--", *COMMANDS[command]["argv"], "--config", str(cfg), "--out", str(out_dir)]
    with open(out_dir.parent / f"{out_dir.name}.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=out_dir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "command": command,
        "setup_only": setup_only,
        "trace": trace,
        "exit_code": proc.returncode,
        "run_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "errors": [],
    }
    info = json.loads(stamp.read_text()) if stamp.is_file() else {}
    if "peak_rss_kb" in info:
        record["peak_rss_mb"] = info["peak_rss_kb"] / 1024.0
    if "setup_done" in info:
        record["setup_s"] = info["setup_done"] - t0
    if trace:
        record["call_tree"] = info.get("call_tree", [])
        record["counters"] = info.get("counters", {})
    if proc.returncode != 0:
        record["errors"].append(f"exit code {proc.returncode}")
    if "setup_s" not in record:
        record["errors"].append("no set-up stamp")
    return record


# --- output checks (run outside the timed span) -----------------------------


class Checker:
    """Checks the outputs of each invocation of one command: byte-identical
    across the run's repetitions, and, for ``run``, reproducible from the
    written model."""

    def __init__(self, command: str, cfg: Path):
        self.sweep = COMMANDS[command]["argv"][0] == "sweep"
        self.cfg = cfg
        self.reference: dict[str, str] | None = None
        self._test_features = None
        self.sweep_f1 = None

    def check(self, record: dict, out_dir: Path) -> None:
        if record["exit_code"] != 0:
            return
        names = ("sweep_dim.csv",) if self.sweep else RUN_OUTPUTS
        missing = [n for n in names if not (out_dir / n).is_file()]
        if missing:
            record["errors"].append(f"missing outputs {missing}")
            return
        digests = {n: gen_corpus.sha256(out_dir / n) for n in names}
        record["outputs"] = digests
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(n for n in names if digests[n] != self.reference[n])
            record["errors"].append(f"outputs differ from the first repetition: {changed}")
        try:
            if self.sweep:
                self._check_sweep(record, out_dir)
            else:
                self._check_run(record, out_dir)
        except Exception as exc:  # any failure of the check is a failed invocation
            record["errors"].append(f"check raised {type(exc).__name__}: {exc}")

    def _check_run(self, record: dict, out_dir: Path) -> None:
        from offdetect.evaluation import ConfusionMatrix, macro_metrics, render_report
        from offdetect.experiment import build_pipeline, load_corpora, parse_config
        from offdetect.learn import predict
        from offdetect.model_io import load_model

        cfg = parse_config(self.cfg)
        if self._test_features is None:
            _, test = load_corpora(cfg)
            pipeline = build_pipeline(cfg, [test])
            self._test_features = (pipeline.featurize(test), [r.label for r in test.records])
        features, gold = self._test_features
        t0 = time.perf_counter()
        with open(out_dir / "model.offd", "rb") as fh:
            model = load_model(fh)
        record["load_model_s"] = time.perf_counter() - t0
        record["model_bytes"] = (out_dir / "model.offd").stat().st_size
        predicted = [label for label, _ in predict(model, features)]
        report = macro_metrics(ConfusionMatrix.from_pairs(gold, predicted))
        tsv, _ = render_report([(cfg.name, report)])
        written = (out_dir / "report.tsv").read_text(encoding="utf-8")
        if tsv != written:
            record["errors"].append("report.tsv does not match the reloaded model's predictions")
        row = written.splitlines()[1].split("\t")
        record["accuracy_pct"] = float(row[1])
        record["macro_f1_pct"] = float(row[4])

    def _check_sweep(self, record: dict, out_dir: Path) -> None:
        lines = (out_dir / "sweep_dim.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != "D,accuracy" or [int(r[0]) for r in rows] != list(SWEEP_DIMS):
            record["errors"].append(f"unexpected sweep table {lines!r}")
            return
        accuracies = [float(r[1]) for r in rows]
        if not all(0.0 <= a <= 100.0 for a in accuracies):
            record["errors"].append(f"accuracy out of range {accuracies}")
        record["accuracy_pct"] = statistics.fmean(accuracies)
        if self.sweep_f1 is None:
            # reproduce the first sweep point through the library: it must give
            # the same accuracy, and it is the sweep's macro-F1 reading
            from dataclasses import replace

            from offdetect.evaluation import format_pct
            from offdetect.experiment import parse_config, run_experiment

            cfg = parse_config(self.cfg)
            cfg = replace(cfg, rks=replace(cfg.rks, dim=SWEEP_DIMS[0]))
            report = run_experiment(cfg, write_files=False).report
            if format_pct(report.accuracy) != rows[0][1]:
                record["errors"].append(
                    f"D={SWEEP_DIMS[0]}: library run gives {format_pct(report.accuracy)}, "
                    f"sweep wrote {rows[0][1]}"
                )
            self.sweep_f1 = report.macro_f1
        record["macro_f1_pct"] = self.sweep_f1


# --- metrics ----------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ok_rounds(records: list[dict], size: int) -> list[list[dict]]:
    """``records`` cut into consecutive rounds of ``size``, without the
    rounds that hold a failed invocation."""
    rounds = [records[i:i + size] for i in range(0, len(records), size)]
    return [rnd for rnd in rounds if not any(r["errors"] for r in rnd)]


def end_to_end_metrics(records: list[dict], commands: tuple[str, ...], attempted: int,
                       failed: int) -> dict:
    """End-to-end metrics of one round, one invocation of each command.  Its
    times are sums over the commands, its peak RSS their maximum and its
    accuracy and F1 their mean.  A command's ``run_s`` and ``cpu_s`` are
    means over its invocations: the host's speed switches between levels
    for tens of seconds at a time, and the mean moves with the share of the
    run spent at each level where a median would jump from one level to
    the other.  Its ``setup_s`` is the median over its set-up samples."""
    ok = [r for r in records if not r["errors"] and not r["trace"]]
    setups = {c: [r for r in ok if r["command"] == c] for c in commands}
    full = {c: [r for r in rs if not r["setup_only"]] for c, rs in setups.items()}
    firsts = [full[c][0] for c in commands if full[c]]
    return {
        "run_s": sum(mean(r["run_s"] for r in full[c]) for c in commands),
        "setup_s": sum(median(r["setup_s"] for r in setups[c]) for c in commands),
        "cpu_s": sum(mean(r["cpu_s"] for r in full[c]) for c in commands),
        "peak_rss_mb": max(median(r["peak_rss_mb"] for r in full[c]) for c in commands),
        "accuracy_pct": mean(r["accuracy_pct"] for r in firsts),
        "macro_f1_pct": mean(r["macro_f1_pct"] for r in firsts),
        "ok_ratio": (attempted - failed) / attempted,
    }


def layer_metrics(records: list[dict], vec_rows: int) -> dict:
    """Per-module metrics of one traced round: spans and counters summed
    over its invocations."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for record in records:
        for name, entry in totals(record["call_tree"]).items():
            into = spans.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def wall(name):
        return spans.get(name, {}).get("wall_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    covered = sum(s["self_s"] for n, s in spans.items() if n != "cli.main")
    steps = counters.get("learn.svm_steps", 0)
    dmd = spans.get("dmd.sentence_feature", {})
    return {
        "cli.import_s": wall("cli.import"),
        "cli.parse_config_s": wall("experiment.parse_config"),
        "corpus.load_olid_tsv_s": wall("corpus.load_olid_tsv"),
        "corpus.tokenize_clean_s": wall("corpus.tokenize_clean"),
        "corpus.tokenize_calls": calls("corpus.tokenize_clean"),
        "embed.load_vec_table_s": wall("embed.load_vec_table"),
        "embed.vec_rows_kept_ratio": ratio(counters.get("embed.vec_rows_kept", 0),
                                           vec_rows * calls("embed.load_vec_table")),
        "embed.average_embedding_s": wall("embed.average_embedding"),
        "embed.token_matrix_s": wall("embed.token_matrix"),
        "embed.load_precomputed_s": wall("embed.load_precomputed"),
        "embed.load_precomputed_calls": calls("embed.load_precomputed"),
        "dmd.sentence_feature_s": wall("dmd.sentence_feature"),
        "dmd.sentence_feature_calls": calls("dmd.sentence_feature"),
        "dmd.us_per_tweet": ratio(wall("dmd.sentence_feature"), calls("dmd.sentence_feature"), 1e6),
        "dmd.cpu_per_wall": ratio(dmd.get("cpu_s", 0.0), dmd.get("wall_s", 0.0)),
        "experiment.build_pipeline_s": wall("experiment.build_pipeline"),
        "experiment.featurize_s": wall("experiment.featurize"),
        "experiment.featurize_calls": calls("experiment.featurize"),
        "rks.median_heuristic_sigma_s": wall("rks.median_heuristic_sigma"),
        "rks.transform_s": wall("rks.transform"),
        "rks.transform_bytes": counters.get("rks.transform_bytes", 0),
        "learn.train_linear_svm_s": wall("learn.train_linear_svm"),
        "learn.svm_steps": steps,
        "learn.svm_ns_per_step": ratio(wall("learn.train_linear_svm"), steps, 1e9),
        "learn.svm_objective": counters.get("learn.svm_objective", 0.0),
        "learn.train_rlsc_s": wall("learn.train_rlsc"),
        "learn.rlsc_gram_flops": counters.get("learn.rlsc_gram_flops", 0),
        "learn.predict_s": wall("learn.predict"),
        "evaluation.evaluate_self_s": spans.get("evaluation.evaluate", {}).get("self_s", 0.0),
        "model_io.save_model_s": wall("model_io.save_model"),
        "model_io.load_model_s": sum(r.get("load_model_s", 0.0) for r in records),
        "model_io.model_bytes": sum(r.get("model_bytes", 0) for r in records),
        "trace.unattributed_s": sum(r["run_s"] for r in records) - covered,
    }


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


# --- one benchmark run ------------------------------------------------------


def run(workload: str, inputs: dict[str, Path], input_sha: dict[str, str], seconds: float,
        trace: bool, work: Path) -> dict:
    start = time.perf_counter()
    runs = work / "runs" / workload
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)
    commands = WORKLOADS[workload]
    cfgs = {c: write_config(runs / f"{c}.cfg", c, inputs) for c in commands}
    checkers = {c: Checker(c, cfgs[c]) for c in commands}
    load_before = os.getloadavg()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    records: list[dict] = []

    def launch(tag: str, command: str, **kw) -> float:
        """Launch one invocation and check its outputs; returns the time both took."""
        t0 = time.perf_counter()
        out_dir = runs / f"{len(records):03d}-{tag}-{command}"
        record = invoke(cfgs[command], command, out_dir, timeout=max(left(), 1.0) + 10.0, **kw)
        if not kw.get("setup_only"):
            checkers[command].check(record, out_dir)
        records.append(record)
        return time.perf_counter() - t0

    window = time.perf_counter()
    # the first launches of a run are slower (cold caches after generating
    # the corpus): a set-up-only launch of each command takes that cost
    for command in commands:
        launch("setup", command, setup_only=True)
    if trace:
        # one step is an untraced round and a traced round
        steps: list[float] = []
        while True:
            t0 = time.perf_counter()
            for command in commands:
                launch("full", command)
            for command in commands:
                launch("traced", command, trace=True)
            steps.append(time.perf_counter() - t0)
            need = median(steps)
            if need > left() or time.perf_counter() - window + need > seconds:
                break
    else:
        # the commands in turn, until the next one would end after the window
        took: dict[str, list[float]] = {c: [] for c in commands}
        n = 0
        while True:
            command = commands[n % len(commands)]
            took[command].append(launch("full", command))
            n += 1
            need = median(took[commands[n % len(commands)]])
            if need > left():
                break
            if n >= MIN_FULL * len(commands) and time.perf_counter() - window + need > seconds:
                break

    load_after = os.getloadavg()
    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    full = [r for r in records if not r["setup_only"] and not r["trace"]]
    if trace:
        traced = ok_rounds([r for r in records if r["trace"]], len(commands))
        with open(inputs["vec"], encoding="utf-8") as fh:
            vec_rows = int(fh.readline().split()[0])  # the .vec header: count dim
        per = [layer_metrics(rnd, vec_rows) for rnd in traced]
        metrics = {name: median(p[name] for p in per) for name, _ in PER_LAYER[:-1]}
        traced_s = [sum(r["run_s"] for r in rnd) for rnd in traced]
        untraced_s = [sum(r["run_s"] for r in rnd) for rnd in ok_rounds(full, len(commands))]
        metrics["trace.overhead_s"] = (
            mean(traced_s) - mean(untraced_s) if traced_s and untraced_s else 0.0
        )
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(records, commands, attempted, failed)
        units = END_TO_END
    return {
        "workload": workload,
        "commands": list(commands),
        "trace": trace,
        "seconds": seconds,
        "machine": machine_facts(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "inputs_sha256": input_sha,
        "config": {c: cfg.read_text(encoding="utf-8") for c, cfg in cfgs.items()},
        "invocations": records,
        "correct": failed == 0 and all(any(r["command"] == c for r in full) for c in commands),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "offdetect" / "cli.py").is_file():
        sys.stderr.write(f"offdetect sources not found under {ROOT / 'src'}\n")
        return 2
    use_sources()
    work = ROOT / ".bench_work"
    inputs, input_sha = generated_corpus(work, args.seed)
    result = run(args.workload, inputs, input_sha, args.seconds, bool(args.trace), work)
    result["seed"] = args.seed

    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {out}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"loadavg before {result['loadavg_before']}  after {result['loadavg_after']}")
    for name, digest in sorted(input_sha.items()):
        print(f"input {digest}  {name}")
    for i, rec in enumerate(result["invocations"]):
        kind = "setup-only" if rec["setup_only"] else ("traced" if rec["trace"] else "full")
        status = "ok" if not rec["errors"] else "FAILED: " + "; ".join(rec["errors"])
        print(f"invocation {i} {kind:10s} {rec['command']:21s} run_s {rec['run_s']:.3f}  {status}")
    print(f"fail_ratio {result['fail_ratio']:.4f} ({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
