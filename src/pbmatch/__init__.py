"""Desk-scale domain adaptation lab.

Predictive-behavior matching objectives, distribution-matching baseline
distances, procedural domain-pair generators, realistic-shift benchmark
constructors, and a deterministic training/evaluation harness, in pure
numpy. Every gradient is closed-form: the objective's terms return theirs,
and a training step maps them back through the heads and the trunk with
no autodiff tape.
"""

from pbmatch.nets import (
    ModelParams,
    OptimState,
    clone_params,
    features,
    forward,
    init_params,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
    softmax_probs,
    step,
)
from pbmatch.transforms import (
    apply_semantic_preserving,
    apply_semantic_transforming,
    sample_mixup_beta,
)
from pbmatch.losses import (
    BatchBundle,
    LossConfig,
    coral_distance,
    cpbm_loss,
    cross_entropy,
    mim_loss,
    mmd_distance,
    mupbm_loss,
    total_objective,
    tpbm_loss,
)
from pbmatch.datasets import (
    OUTLIER_LABEL,
    DomainDataset,
    GlyphDomainSpec,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_domain,
    generate_glyph_pair,
    load_dataset,
    outlier_pool,
    regenerate,
    save_dataset,
)
from pbmatch.benchmarks import (
    BenchmarkSpec,
    benchmark_report,
    build_ilds,
    decay_counts,
    inject_two,
    label_histogram,
    load_pair,
    relabel_to_meta,
    resample_lds,
    write_benchmark,
)
from pbmatch.training import (
    ABLATION_ROWS,
    DEFAULT_SEEDS,
    METHODS,
    EvalReport,
    Metrics,
    NumericalAbort,
    TrainConfig,
    ablation_suite,
    ablation_table_text,
    build_benchmark_pair,
    evaluate,
    full_set_mmd,
    lds_failure_probe,
    save_run,
    split_target,
    train,
)
from pbmatch.gradcheck import grad_check, run_gradient_suite, suite_text

__all__ = [
    "ModelParams", "OptimState", "clone_params", "features", "forward",
    "init_params", "load_checkpoint", "predict_logits", "save_checkpoint",
    "softmax_probs", "step",
    "apply_semantic_preserving", "apply_semantic_transforming", "sample_mixup_beta",
    "BatchBundle", "LossConfig", "coral_distance", "cpbm_loss", "cross_entropy",
    "mim_loss", "mmd_distance", "mupbm_loss", "total_objective", "tpbm_loss",
    "OUTLIER_LABEL", "DomainDataset", "GlyphDomainSpec", "default_pair_specs",
    "generate_blob_pair", "generate_glyph_domain", "generate_glyph_pair",
    "load_dataset", "outlier_pool", "regenerate", "save_dataset",
    "BenchmarkSpec", "benchmark_report", "build_ilds", "decay_counts",
    "inject_two", "label_histogram", "load_pair", "relabel_to_meta",
    "resample_lds", "write_benchmark",
    "ABLATION_ROWS", "DEFAULT_SEEDS", "METHODS", "EvalReport", "Metrics",
    "NumericalAbort", "TrainConfig", "ablation_suite", "ablation_table_text",
    "build_benchmark_pair", "evaluate", "full_set_mmd", "lds_failure_probe",
    "save_run", "split_target", "train",
    "grad_check", "run_gradient_suite", "suite_text",
]
__version__ = "0.1.0"
