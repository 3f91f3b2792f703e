#!/usr/bin/env python3
"""Run one ``offdetect`` command in this fresh process, as the CLI does.

    python3 bench/launch.py --stamp OUT.json [--setup-only] [--trace] -- run --config X

It imports the package from ``src/`` and calls ``offdetect.cli.main`` with
the arguments after ``--``, exactly what ``python -m offdetect`` calls, and
exits with its return code.  Around it, it records into ``--stamp``:

* ``setup_done``: the ``time.perf_counter()`` reading (CLOCK_MONOTONIC, so
  comparable with the launching process) when the first
  ``build_pipeline`` call returns;
* ``peak_rss_kb``: this process's peak resident memory (``VmHWM``) at exit;
* with ``--trace``, the span call tree and work counters (see tracer.py).

``--setup-only`` stops the command as soon as the pipeline is built, to
sample set-up time cheaply.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_t_start = time.perf_counter()
_cpu_start = time.process_time()

ROOT = Path(__file__).resolve().parent.parent


class _SetupDone(BaseException):
    """Raised through the CLI to stop a --setup-only command."""


def _hooks():
    """Work counters computed from arguments and results of traced calls."""

    def rows(matrix) -> int:
        return int(getattr(matrix, "values", matrix).shape[0])

    def vec_table(tracer, args, table):
        tracer.counters["embed.vec_rows_kept"] += len(table)

    def svm(tracer, args, model):
        tracer.counters["learn.svm_steps"] += args["epochs"] * rows(args["F"])
        objective = tracer.original("learn.svm_objective")
        tracer.counters["learn.svm_objective"] = objective(
            model.w, model.bias, args["F"], args["y"], args["C"]
        )

    def transform(tracer, args, lifted):
        tracer.counters["rks.transform_bytes"] += lifted.nbytes

    def rlsc(tracer, args, model):
        cols = model.w.shape[0] + (1 if args["fit_intercept"] else 0)
        tracer.counters["learn.rlsc_gram_flops"] += 2.0 * rows(args["F"]) * cols * cols

    return {
        "embed.load_vec_table": vec_table,
        "learn.train_linear_svm": svm,
        "rks.transform": transform,
        "learn.train_rlsc": rlsc,
    }


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    stamp_path = Path(opts[opts.index("--stamp") + 1])
    setup_only = "--setup-only" in opts
    tracing = "--trace" in opts

    sys.path.insert(0, str(ROOT / "src"))
    import offdetect.cli
    import offdetect.experiment

    stamp: dict = {}
    tracer = None
    if tracing:
        from tracer import Tracer

        tracer = Tracer()
        tracer.record("cli.import", time.perf_counter() - _t_start,
                      time.process_time() - _cpu_start)
        tracer.install(_hooks())

    def mark_setup(fn):
        def first_build(*args, **kwargs):
            pipeline = fn(*args, **kwargs)
            stamp.setdefault("setup_done", time.perf_counter())
            if setup_only:
                raise _SetupDone
            return pipeline

        return first_build

    # cli.py imported the name; run_experiment looks it up in experiment.py
    for mod in (offdetect.experiment, offdetect.cli):
        mod.build_pipeline = mark_setup(mod.build_pipeline)

    try:
        code = offdetect.cli.main(command)
    except _SetupDone:
        code = 0
    # ru_maxrss seen by the parent also counts the pre-exec image; VmHWM is this process's own
    status = Path("/proc/self/status").read_text(encoding="ascii")
    stamp["peak_rss_kb"] = int(status.split("VmHWM:")[1].split()[0])
    if tracer is not None:
        stamp["call_tree"] = tracer.call_tree()
        stamp["counters"] = dict(tracer.counters)
    stamp_path.write_text(json.dumps(stamp), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
