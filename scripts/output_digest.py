#!/usr/bin/env python3
"""Digest every output of the shipped commands, so that two checkouts can be
compared with one ``diff``.

Usage: python3 scripts/output_digest.py OUT

OUT must be empty or absent.  Each command runs in its own Python process
on this checkout's ``src`` and writes under its own directory of OUT:

- ``run``, ``export-features`` and ``inspect-model`` for each ``configs/*.cfg``;
- ``sweep --sweep-C`` on ``configs/dmd_svm.cfg``;
- ``sweep --sweep-dim`` on both lift configs;
- ``sweep --sweep-dim`` on ``configs/avg_svm.cfg``, a lifted svm sweep;
- ``scripts/run_mini_experiments.py``, the mini grid.

For each command, in that order, it prints ``sha256  <command>/<config> (stdout)``
for the command's standard output, then ``sha256  relative-path`` for each
file the command wrote.  Before hashing, the path of OUT and then the path
of this checkout are replaced by fixed tokens: a manifest records its input
paths, and the commands print their output paths.  So the digests do not
depend on where the checkout or OUT lives.  To compare two checkouts, run
the script in each and ``diff`` the two listings.  A command that fails
stops the script with its standard error and exit code 1.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))
C_VALUES = "0.1,1,100,500,1000"
DIM_VALUES = "16,32,64,200,400"


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each command; each label is also its output directory."""
    cli = [sys.executable, "-m", "offdetect"]
    listed = []
    for cfg in CONFIGS:
        run_dir = f"run/{cfg.stem}"
        listed += [
            (run_dir, [*cli, "run", "--config", str(cfg), "--out", str(out / run_dir)]),
            (f"export-features/{cfg.stem}",
             [*cli, "export-features", "--config", str(cfg), "--out", str(out / "export-features" / cfg.stem)]),
            (f"inspect-model/{cfg.stem}", [*cli, "inspect-model", str(out / run_dir / "model.offd")]),
        ]
    sweeps = [("sweep-C", "dmd_svm", C_VALUES), ("sweep-dim", "hodmd2_rks_rlsc", DIM_VALUES),
              ("sweep-dim", "precomputed_rks_rlsc", DIM_VALUES), ("sweep-dim", "avg_svm", DIM_VALUES)]
    for option, stem, values in sweeps:
        label = f"{option}/{stem}"
        cfg = REPO / "configs" / f"{stem}.cfg"
        listed.append((label, [*cli, "sweep", "--config", str(cfg), "--out", str(out / label), f"--{option}", values]))
    mini = REPO / "scripts" / "run_mini_experiments.py"
    listed.append(("mini-grid", [sys.executable, str(mini), "--out", str(out / "mini-grid")]))
    return listed


def digest(payload: bytes, out: Path) -> str:
    for path, token in ((out, b"<OUT>"), (REPO, b"<CHECKOUT>")):
        payload = payload.replace(str(path).encode("utf-8"), token)
    return hashlib.sha256(payload).hexdigest()


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    out = Path(sys.argv[1]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    for label, argv in commands(out):
        proc = subprocess.run(argv, capture_output=True, env=env)
        if proc.returncode != 0:
            sys.stderr.buffer.write(proc.stderr)
            sys.exit(f"{label}: exit {proc.returncode}")
        print(f"{digest(proc.stdout, out)}  {label} (stdout)")
        for path in sorted((out / label).rglob("*")):
            if path.is_file():
                print(f"{digest(path.read_bytes(), out)}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
