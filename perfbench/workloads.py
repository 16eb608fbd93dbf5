"""The benchmark's workloads. Each runs one unit of work for a workload
seed and returns the target accuracy the unit reports.

A workload seed ``n`` sets the data seed to ``n`` and the model and
batch-order seeds to ``17 + n``, so seed 0 is the acceptance setup (data
seed 0, model/data seeds 17). Every call goes through ``pbmatch.training``
attributes looked up at call time, so the benchmark's wrappers see it.
"""

from __future__ import annotations

from typing import Callable, Dict

from pbmatch import training
from pbmatch.benchmarks import BenchmarkSpec
from pbmatch.training import ABLATION_ROWS, TrainConfig

MODEL_SEED_OFFSET = 17

# the acceptance LDS pair: IF 10, 500 rows per class, hidden (64, 32)
LDS_IMBALANCE = 10.0
LDS_SAMPLES_PER_CLASS = 500
LDS_HIDDEN = (64, 32)
INSTAPBM_EPOCHS = 10
ABLATION_EPOCHS = 3
ABLATION_EXTRA_ROWS = (("dm_mmd", "dm_mmd"), ("dm_coral", "dm_coral"))

# the criterion-3 blob pair and its recovery run (criterion 3b)
PROBE_PRIORS = ((0.5, 0.5), (0.7, 0.3))
PROBE_MEANS = ((-2.0, 0.0), (2.0, 0.0))
RECOVERY_EPOCHS = 60
RECOVERY_HIDDEN = (32, 16)


def _lds_spec(seed: int) -> BenchmarkSpec:
    return BenchmarkSpec(kind="LDS", imbalance_factor=LDS_IMBALANCE, seed=seed)


def instapbm_lds(seed: int) -> float:
    """One instapbm train() on the acceptance LDS pair."""
    src, tgt = training.build_benchmark_pair(
        _lds_spec(seed), samples_per_class=LDS_SAMPLES_PER_CLASS, data_seed=seed)
    run_seed = MODEL_SEED_OFFSET + seed
    cfg = TrainConfig(method="instapbm", epochs=INSTAPBM_EPOCHS, batch=64,
                      hidden=LDS_HIDDEN, seed_model=run_seed, seed_data=run_seed)
    _, metrics = training.train(cfg, src, tgt)
    return metrics.final()["tgt_acc"]


def probe_blobs(seed: int) -> float:
    """The label-shift probe with its default warm-started dm_mmd
    schedule, then instapbm on the same blob pair."""
    run_seed = MODEL_SEED_OFFSET + seed
    training.lds_failure_probe(*PROBE_PRIORS, seed_model=run_seed, seed_data=run_seed)
    src, tgt = training.generate_blob_pair(2, *PROBE_PRIORS, means=PROBE_MEANS,
                                           spread=0.5, n=1000, seed=run_seed)
    cfg = TrainConfig(method="instapbm", epochs=RECOVERY_EPOCHS, batch=64,
                      hidden=RECOVERY_HIDDEN, seed_model=run_seed, seed_data=run_seed)
    _, metrics = training.train(cfg, src, tgt)
    return metrics.final()["tgt_acc"]


def ablation_lds(seed: int) -> float:
    """All 13 ablation rows on one shared LDS pair, one seed; returns the
    mean of the rows' target accuracies."""
    base = TrainConfig(method="instapbm", epochs=ABLATION_EPOCHS, batch=64,
                       hidden=LDS_HIDDEN)
    table = training.ablation_suite(
        base, [_lds_spec(seed)], samples_per_class=LDS_SAMPLES_PER_CLASS,
        data_seed=seed, seeds=(MODEL_SEED_OFFSET + seed,),
        rows=ABLATION_ROWS + ABLATION_EXTRA_ROWS)
    means = [row["mean"] for row in table["rows"]]
    return sum(means) / len(means)


WORKLOADS: Dict[str, Callable[[int], float]] = {
    "instapbm_lds": instapbm_lds,
    "probe_blobs": probe_blobs,
    "ablation_lds": ablation_lds,
}
