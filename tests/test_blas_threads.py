"""Artifacts do not depend on the BLAS thread count.

A 1-epoch experiment-width ``qadapt train`` (H=48, wide enough for OpenBLAS
to split its products between threads) runs in two subprocesses, one under
``OPENBLAS_NUM_THREADS=1`` and one under ``=2``; both must write the same
checkpoint and step log, byte for byte.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from qadapt import datagen
from qadapt.experiment import CONTRASTIVE_BETA, _phase_config, build_experiment_data
from qadapt.model import config_to_json

SRC = Path(__file__).resolve().parent.parent / "src"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_artifacts_identical_under_one_and_two_blas_threads(tmp_path):
    source, synthetic, _ = build_experiment_data(1)
    datagen.write_dataset(tmp_path / "source.json", source, title="source")
    datagen.write_dataset(tmp_path / "synthetic.json", synthetic)
    config = config_to_json(_phase_config(1, CONTRASTIVE_BETA, 1))
    config["data"] = {"source": str(tmp_path / "source.json"),
                      "synthetic": str(tmp_path / "synthetic.json")}
    (tmp_path / "train.json").write_text(json.dumps(config))

    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "qadapt.cli", "train", "--config", str(tmp_path / "train.json"),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[threads] = [_sha256(out / name) for name in ("checkpoint.bin", "steps.jsonl")]
    assert digests["1"] == digests["2"]
