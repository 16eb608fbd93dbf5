"""Golden hashes: the sha256 of every file a fixed set of small runs writes.

Each case writes into its own directory and is hashed file by file:

- ``train/<method>``: each of the 13 methods, plus ``instapbm`` under
  ``sgd_momentum``, trained for 2 epochs on a 24-per-class LDS pair and
  written with ``save_run``;
- ``probe``: ``pbmatch probe-lds`` over three warm-started weights;
- ``gradcheck``: the text ``pbmatch gradcheck --instances 7`` prints;
- ``bench``: ``pbmatch generate`` of a small glyph pair, then
  ``pbmatch bench --kind lds|ilds|two`` on it.

``tests/golden_hashes.json`` keeps one entry per environment fingerprint
(numpy, BLAS, Python, machine), since another BLAS build may round
differently. ``tests/test_golden_hashes.py`` recomputes every case and
names each file whose hash moved. A change that moves bytes on purpose
re-records the entry for this environment and lists the moved cases:

    PYTHONPATH=src python tests/record_golden_hashes.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from pbmatch import cli
from pbmatch.benchmarks import BenchmarkSpec
from pbmatch.training import METHODS, TrainConfig, build_benchmark_pair, save_run, train

GOLDEN = Path(__file__).with_name("golden_hashes.json")
RECORD_COMMAND = "PYTHONPATH=src python tests/record_golden_hashes.py"

Hashes = Dict[str, Dict[str, str]]


def fingerprint() -> str:
    """numpy version, BLAS name, version and build, Python version, machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " | ".join([
        f"numpy {np.__version__}",
        f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        f"python {platform.python_version()}",
        platform.machine(),
    ])


def _hash_tree(root: Path) -> Dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"pbmatch {' '.join(argv)} exited {code}")
    return out.getvalue()


def _train_cases(work: Path) -> Hashes:
    src, tgt = build_benchmark_pair(BenchmarkSpec(kind="LDS", imbalance_factor=4.0, seed=3),
                                    samples_per_class=24, data_seed=1)
    base = TrainConfig(epochs=2, batch=16, hidden=(16, 8), seed_model=5, seed_data=5)
    runs = {m: dataclasses.replace(base, method=m) for m in METHODS}
    runs["instapbm_sgd_momentum"] = dataclasses.replace(
        base, method="instapbm", optimizer="sgd_momentum", lr=0.01)
    hashes = {}
    for name, cfg in runs.items():
        params, metrics = train(cfg, src, tgt)
        save_run(work / name, cfg, params, metrics)
        hashes[f"train/{name}"] = _hash_tree(work / name)
    return hashes


def _probe_case(work: Path) -> Hashes:
    config = work / "probe_config.json"
    config.write_text(json.dumps({"dm_weight_schedule": [1.0, 10.0, 100.0], "n": 160,
                                  "epochs": 3, "batch": 32, "hidden": [8, 4]}))
    _cli("probe-lds", "--out", str(work / "probe"), "--config", str(config), "--seed", "3")
    return {"probe": _hash_tree(work / "probe")}


def _gradcheck_case() -> Hashes:
    text = _cli("gradcheck", "--instances", "7", "--seed", "2")
    return {"gradcheck": {"stdout": hashlib.sha256(text.encode()).hexdigest()}}


def _bench_case(work: Path) -> Hashes:
    spec = work / "pair_spec.json"
    spec.write_text(json.dumps({"kind": "glyph_pair", "n_classes": 4, "sub_styles": 2,
                                "samples_per_class": 12, "seed": 4}))
    root = work / "bench"
    _cli("generate", "--spec", str(spec), "--out", str(root / "pair"))
    _cli("bench", "--kind", "lds", "--in", str(root / "pair"), "--out", str(root / "lds"),
         "--if", "3")
    _cli("bench", "--kind", "ilds", "--in", str(root / "pair"), "--out", str(root / "ilds"),
         "--if", "2")
    _cli("bench", "--kind", "two", "--in", str(root / "pair"), "--out", str(root / "two"),
         "--rho", "0.2")
    return {"bench": _hash_tree(root)}


def compute() -> Hashes:
    """Every case's {file: sha256}, computed in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return {**_train_cases(work), **_probe_case(work), **_gradcheck_case(),
                **_bench_case(work)}


def load() -> Dict[str, Hashes]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def record() -> None:
    entries = load()
    entries[fingerprint()] = compute()
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
    print(f"recorded {GOLDEN} for: {fingerprint()}", file=sys.stderr)
