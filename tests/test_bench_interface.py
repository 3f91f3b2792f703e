"""The names the benchmark harness under bench/ reaches into offdetect by.

``bench/launch.py`` stamps the set-up time when ``build_pipeline`` first
returns, rebinding that name in ``offdetect.experiment`` and
``offdetect.cli``; with ``--trace`` it wraps every public function and
reads the arguments of ``train_rlsc``; ``bench/selftest.py`` needs the
``embed.average_embedding`` and ``embed.token_matrix`` spans.  These tests
run the launcher as the benchmark does, on the shipped mini configs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def launch(tmp_path, opts, command) -> dict:
    stamp = tmp_path / "stamp.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "launch.py"), "--stamp", str(stamp), *opts,
         "--", *command, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(stamp.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--config", str(CONFIGS / "avg_svm.cfg")],
        ["sweep", "--config", str(CONFIGS / "precomputed_rks_rlsc.cfg"), "--sweep-dim", "100,200"],
    ],
    ids=["run", "sweep-dim"],
)
def test_setup_only_stamps_setup_done(tmp_path, command):
    assert "setup_done" in launch(tmp_path, ["--setup-only"], command)


@pytest.mark.parametrize(
    "config, span",
    [("avg_svm.cfg", "embed.average_embedding"), ("hodmd2_rks_rlsc.cfg", "embed.token_matrix")],
)
def test_traced_run_records_featurization_spans(tmp_path, config, span):
    stamp = launch(tmp_path, ["--trace"], ["run", "--config", str(CONFIGS / config)])
    assert "setup_done" in stamp
    assert span in {node["name"] for node in stamp["call_tree"]}
