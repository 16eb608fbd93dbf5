"""Training loops, evaluation, the component ablation matrix, and the
label-shift failure probe.

Methods fall into three groups:

- ``source_only``: supervised cross-entropy on the source batch.
- ``dm_mmd`` / ``dm_coral``: source cross-entropy plus a weighted feature
  distance between the domains' latent batches.
- ``instapbm`` and its single-component tags (``mim``, ``cpbm_ra``,
  ``cpbm_ni``, ``cpbm_all``, ``mupbm``, ``tpbm_rot``, ``tpbm_qdr``,
  ``tpbm_flip``, ``tpbm_all``): supervised cross-entropy plus the selected
  predictive-behavior terms on the unlabeled target stream.

Every method takes the same step: it assembles one ``BatchBundle``,
``losses.total_objective`` scores it into one record, ``losses.backward``
turns the record into every parameter's gradient and ``nets.step``
applies them.
Source and target batches are drawn in lockstep with equal sizes each step.
Target accuracy is reported on a held-out stratified 20% split; the
transductive number (accuracy on the adaptation stream itself) is logged
alongside. All randomness derives from (seed_model, seed_data), so repeated
runs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Callable, Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .benchmarks import (
    BenchmarkSpec,
    build_ilds,
    inject_two,
    relabel_to_meta,
    resample_lds,
    two_outlier_count,
)
from .datasets import (
    Count,
    DomainDataset,
    PairSeed,
    Positive,
    Range,
    Seed,
    Share,
    Weight,
    check_fields,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_pair,
    outlier_pool,
)
# coral_distance and cross_entropy are not called here; they stay bound
# because perfbench/spans.py LAYER_CALLS times these names in this module
from .losses import (
    BatchBundle,
    LossConfig,
    _entropy,
    _floor_marginal,
    backward,
    bundle_reads,
    coral_distance,
    cross_entropy,
    mmd_distance,
    total_objective,
)
from .nets import (
    OPTIMIZERS,
    ModelParams,
    OptimState,
    clone_params,
    features,
    init_params,
    predict_logits,
    save_checkpoint,
    softmax_probs,
    step,
)
from .transforms import (
    NI_KINDS,
    RA_KINDS,
    ST_TASKS,
    apply_semantic_preserving,
    apply_semantic_transforming,
    rng,
    sample_mixup_beta,
)

@dataclass(frozen=True)
class _Method:
    """The terms a method trains on top of source cross-entropy: MIM on or
    off, the consistency view kinds, interpolation consistency on or off,
    the pretext tasks, and the feature distance."""

    mim: bool = False
    cpbm_kinds: Tuple[str, ...] = ()
    mupbm: bool = False
    tasks: Tuple[str, ...] = ()
    distance: Optional[str] = None


_METHODS: Dict[str, _Method] = {
    "source_only": _Method(),
    "dm_mmd": _Method(distance="mmd"),
    "dm_coral": _Method(distance="coral"),
    "instapbm": _Method(mim=True, cpbm_kinds=RA_KINDS + NI_KINDS, mupbm=True, tasks=ST_TASKS),
    "mim": _Method(mim=True),
    "cpbm_ra": _Method(cpbm_kinds=RA_KINDS),
    "cpbm_ni": _Method(cpbm_kinds=NI_KINDS),
    "cpbm_all": _Method(cpbm_kinds=RA_KINDS + NI_KINDS),
    "mupbm": _Method(mupbm=True),
    "tpbm_rot": _Method(tasks=("rotate90",)),
    "tpbm_qdr": _Method(tasks=("patch_location",)),
    "tpbm_flip": _Method(tasks=("vflip",)),
    "tpbm_all": _Method(tasks=ST_TASKS),
}

METHODS = tuple(_METHODS)

ABLATION_ROWS: Tuple[Tuple[str, str], ...] = (
    ("Baseline", "source_only"),
    ("+MIM", "mim"),
    ("+CPBM_RA", "cpbm_ra"),
    ("+CPBM_NI", "cpbm_ni"),
    ("+CPBM_ALL", "cpbm_all"),
    ("+MuPBM", "mupbm"),
    ("+TPBM_ROT", "tpbm_rot"),
    ("+TPBM_QDR", "tpbm_qdr"),
    ("+TPBM_FLIP", "tpbm_flip"),
    ("+TPBM_ALL", "tpbm_all"),
    ("full", "instapbm"),
)

DEFAULT_SEEDS = (17, 29, 41)

class NumericalAbort(ArithmeticError):
    """The objective produced a non-finite value; names the offending term."""

    def __init__(self, term: str, epoch: int, step_idx: int):
        self.term = term
        self.epoch = epoch
        self.step_idx = step_idx
        super().__init__(
            f"non-finite value in term {term!r} at epoch {epoch} step {step_idx}")


@dataclass
class TrainConfig:
    """Everything a run needs besides the datasets themselves."""

    method: Literal[METHODS] = "source_only"
    epochs: Count = 200
    batch: Annotated[int, Range(2)] = 64  # distances need pairs
    optimizer: Literal[OPTIMIZERS] = "adam"
    lr: Positive = 1e-3
    momentum: Share = 0.9
    weight_decay: Weight = 1e-5
    loss: Optional[LossConfig] = None  # resolved per class count when None
    dm_weight: Weight = 1.0
    dm_ramp_steps: Annotated[int, Range(0)] = 10
    hidden: Tuple[Count, ...] = (128, 64)
    seed_model: Seed = 17
    seed_data: Seed = 0
    eval_fraction: Annotated[float, Range(0, 0.5)] = 0.2
    initial_marginal: Optional[Tuple[Weight, ...]] = None

    def __post_init__(self):
        check_fields(self)
        if self.initial_marginal is not None and not any(self.initial_marginal):
            raise ValueError(f"initial_marginal must not be all 0, got {self.initial_marginal!r}")

    def resolved_loss(self, n_classes: int) -> LossConfig:
        return LossConfig.for_classes(
            n_classes, **({} if self.loss is None else dataclasses.asdict(self.loss)))


@dataclass
class EvalReport:
    """Accuracy breakdown over the labeled rows of one dataset."""

    accuracy: float
    per_class: List[Optional[float]]
    confusion: np.ndarray
    n_evaluated: int


@dataclass
class Metrics:
    """One record per epoch plus the final confusion matrix."""

    records: List[Dict] = field(default_factory=list)
    confusion: Optional[np.ndarray] = None

    def final(self) -> Dict:
        if not self.records:
            raise ValueError("no epochs recorded")
        return self.records[-1]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(params: ModelParams, ds: DomainDataset) -> EvalReport:
    """Argmax accuracy over rows with a valid label; sentinel rows are
    excluded from every denominator."""
    if ds.class_count != params.n_classes:
        raise ValueError(
            f"dataset has {ds.class_count} classes but the model predicts "
            f"{params.n_classes}")
    return _score(predict_logits(params, ds.x_flat()), ds.labels, ds.class_count)


def _score(logits: np.ndarray, labels: np.ndarray, k: int) -> EvalReport:
    """Accuracy breakdown of argmax predictions; rows labeled -1 are left out."""
    valid = labels >= 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("dataset has no labeled samples to evaluate")
    preds = logits[valid].argmax(axis=1)
    y = labels[valid]
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    per_class: List[Optional[float]] = []
    for c in range(k):
        row_total = confusion[c].sum()
        per_class.append(float(confusion[c, c] / row_total) if row_total else None)
    return EvalReport(
        accuracy=float((preds == y).mean()),
        per_class=per_class,
        confusion=confusion,
        n_evaluated=n_valid,
    )


def split_target(labels: np.ndarray, eval_fraction: float,
                 seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stratified adapt/eval index split; groups with one sample stay in adapt."""
    if eval_fraction == 0.0:
        idx = np.arange(labels.shape[0])
        return idx, idx.copy()
    gen = rng(seed, 909)
    adapt, held = [], []
    for value in np.unique(labels):
        rows = np.flatnonzero(labels == value)
        rows = rows[gen.permutation(rows.size)]
        n_eval = int(np.floor(eval_fraction * rows.size + 0.5))
        if rows.size >= 2:
            n_eval = min(max(n_eval, 1), rows.size - 1)
        else:
            n_eval = 0
        held.append(rows[:n_eval])
        adapt.append(rows[n_eval:])
    return np.sort(np.concatenate(adapt)), np.sort(np.concatenate(held))


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def full_set_mmd(params: ModelParams, src_x: np.ndarray, tgt_x: np.ndarray) -> float:
    """Squared kernel distance between the two domains' full latent sets:
    ``mmd_distance``'s value on one trunk pass over both sets, formed in
    row tiles; its gradient is unused."""
    return mmd_distance(features(params, np.concatenate([src_x, tgt_x])), src_x.shape[0])[0]


# the token advances by TOKEN_STRIDE per epoch, so step s + TOKEN_STRIDE of
# epoch e shares the token of step s of epoch e + 1; a step's views and
# pretext labels also take the word s // TOKEN_STRIDE, which tells them apart
TOKEN_STRIDE = 1_009


def _transform_token(seed_data: int, epoch: int, step_idx: int) -> int:
    return (seed_data * 1_000_003 + epoch * TOKEN_STRIDE + step_idx) % (2 ** 31 - 1)


# salt of a step's semantic-preserving views, under the step's token; a
# pretext task's labels take salt 101 + its index in ST_TASKS
SP_STREAM_SALT = 2**31


def _effective_loss(base: LossConfig, method: str, tgt_is_image: bool) -> LossConfig:
    """``base`` with the weight of every term ``method`` does not train set to 0."""
    m = _METHODS[method]
    if (m.cpbm_kinds or m.tasks) and not tgt_is_image and method != "instapbm":
        raise ValueError(f"method {method!r} needs image data")
    # point data has no transform geometry; instapbm keeps the input-agnostic terms
    return dataclasses.replace(
        base,
        lambda_M=base.lambda_M if m.mim else 0.0,
        lambda_C=base.lambda_C if m.cpbm_kinds and tgt_is_image else 0.0,
        lambda_U=base.lambda_U if m.mupbm else 0.0,
        lambda_S=base.lambda_S if m.tasks and tgt_is_image else 0.0,
    )


def _check_pair(src: DomainDataset, tgt: DomainDataset) -> None:
    if src.class_count != tgt.class_count:
        raise ValueError(
            f"class counts differ: {src.class_count} vs {tgt.class_count}")
    d_src, d_tgt = src.x_flat().shape[1], tgt.x_flat().shape[1]
    if d_src != d_tgt:
        raise ValueError(f"input geometry differs: {d_src} vs {d_tgt} features")
    if src.is_image != tgt.is_image:
        raise ValueError("domains must both be images or both be points")


def train(cfg: TrainConfig, src: DomainDataset, tgt: DomainDataset,
          on_step: Optional[Callable[[int, int, Dict[str, float]], None]] = None,
          warm_start: Optional[ModelParams] = None,
          ) -> Tuple[ModelParams, Metrics]:
    """Run the configured objective and log per-epoch metrics.

    Returns the trained parameters and the metric history. ``on_step``
    receives (epoch, step, term report) right after each optimizer update.
    ``warm_start`` continues from a copy of existing parameters instead of a
    fresh seeded init; its layer spec must match the config.
    """
    _check_pair(src, tgt)
    k = src.class_count

    # sentinel rows carry no class; they never see the supervised term
    if (src.labels < 0).any():
        src = src.take(np.flatnonzero(src.labels >= 0))
    if src.n_samples == 0:
        raise ValueError("source dataset has no labeled samples")

    loss_cfg = _effective_loss(cfg.resolved_loss(k), cfg.method, tgt.is_image)

    adapt_idx, eval_idx = split_target(tgt.labels, cfg.eval_fraction, cfg.seed_data)
    adapt = tgt.take(adapt_idx)

    tgt_flat = tgt.x_flat()
    layer_spec = [tgt_flat.shape[1], *cfg.hidden, k]
    if warm_start is None:
        params = init_params(layer_spec, cfg.seed_model)
    else:
        if list(warm_start.layer_spec) != layer_spec:
            raise ValueError(
                f"warm-start layer spec {warm_start.layer_spec} does not "
                f"match config {layer_spec}")
        params = clone_params(warm_start)
    opt = OptimState(kind=cfg.optimizer, lr=cfg.lr, momentum=cfg.momentum,
                     weight_decay=cfg.weight_decay)
    if cfg.initial_marginal is not None and len(cfg.initial_marginal) != k:
        raise ValueError(f"initial_marginal has {len(cfg.initial_marginal)} entries, "
                         f"but the pair has {k} classes")
    q = _floor_marginal(cfg.initial_marginal if cfg.initial_marginal is not None
                        else np.full(k, 1.0 / k))

    n_src, n_adapt = src.n_samples, adapt.n_samples
    pair_min = min(n_src, n_adapt)
    if pair_min < 2:
        raise ValueError("need at least 2 samples per domain")
    batch = min(cfg.batch, pair_min)
    steps_per_epoch = max(1, pair_min // batch)

    metrics = Metrics()

    for epoch in range(cfg.epochs):
        perm_src = rng(cfg.seed_data, 11, epoch).permutation(n_src)
        perm_tgt = rng(cfg.seed_data, 13, epoch).permutation(n_adapt)
        term_sums: Dict[str, float] = {}

        for s in range(steps_per_epoch):
            rows_s = perm_src[s * batch:(s + 1) * batch]
            rows_t = perm_tgt[s * batch:(s + 1) * batch]
            bundle = _build_bundle(cfg, src, adapt, rows_s, rows_t, loss_cfg,
                                   epoch, s, opt.step_count)
            obj = total_objective(bundle, params, loss_cfg, q)
            if not np.isfinite(obj.total):
                raise NumericalAbort(_first_bad_term(obj.report), epoch, s)
            step(params, opt, backward(obj))
            q = obj.marginal

            for name, value in obj.report.items():
                term_sums[name] = term_sums.get(name, 0.0) + value
            if on_step is not None:
                on_step(epoch, s, dict(obj.report))

        # one pass over the whole target; the splits are row subsets of it
        tgt_logits = predict_logits(params, tgt_flat)
        eval_rep = _score(tgt_logits[eval_idx], tgt.labels[eval_idx], k)
        trans_rep = _score(tgt_logits[adapt_idx], tgt.labels[adapt_idx], k)
        marginal = softmax_probs(tgt_logits).mean(axis=0)
        record = {
            "epoch": epoch,
            "loss_terms": {name: value / steps_per_epoch
                           for name, value in sorted(term_sums.items())},
            "src_train_acc": evaluate(params, src).accuracy,
            "tgt_acc": eval_rep.accuracy,
            "tgt_acc_transductive": trans_rep.accuracy,
            "per_class_tgt_acc": eval_rep.per_class,
            "prediction_marginal": [float(v) for v in marginal],
            # q only advances while the MIM term is weighted
            "h_q": _entropy(q if loss_cfg.lambda_M > 0.0 else marginal),
        }
        metrics.records.append(record)
        metrics.confusion = eval_rep.confusion

    return params, metrics


def _first_bad_term(report: Dict[str, float]) -> str:
    for name, value in report.items():
        if name != "total" and not np.isfinite(value):
            return name
    return "total"


def _build_bundle(cfg: TrainConfig, src: DomainDataset, adapt: DomainDataset,
                  rows_s: np.ndarray, rows_t: np.ndarray, loss_cfg: LossConfig,
                  epoch: int, s: int, step_count: int) -> BatchBundle:
    """The step's source rows, exactly the target views ``bundle_reads`` names,
    and the method's feature distance, ramped by the optimizer's ``step_count``."""
    token = _transform_token(cfg.seed_data, epoch, s)
    ramp = min(1.0, (step_count + 1) / cfg.dm_ramp_steps) if cfg.dm_ramp_steps > 0 else 1.0
    block = s // TOKEN_STRIDE
    distance = _METHODS[cfg.method].distance
    reads = bundle_reads(loss_cfg, distance)
    # each side's rows, gathered once: images or points, then flat for the trunk
    imgs_s, imgs_t = src.images[rows_s], adapt.images[rows_t]
    x_t = imgs_t.reshape(len(rows_t), -1)
    bundle = BatchBundle(src_x=imgs_s.reshape(len(rows_s), -1), src_y=src.labels[rows_s],
                         tgt_x=x_t if "tgt_x" in reads else None, distance=distance,
                         distance_weight=cfg.dm_weight * ramp)

    if "tgt_x_aug" in reads:
        bundle.tgt_x_aug = apply_semantic_preserving(
            imgs_t, rng(token, SP_STREAM_SALT, block),
            kinds=_METHODS[cfg.method].cpbm_kinds).reshape(len(rows_t), -1)

    if "mixed_x" in reads:
        gen = rng(cfg.seed_data, 17, epoch, s)
        partner = gen.permutation(x_t.shape[0])
        betas = sample_mixup_beta(x_t.shape[0], loss_cfg.mixup_alpha, gen)
        b_col = betas[:, None]
        bundle.mixed_x = b_col * x_t + (1.0 - b_col) * x_t[partner]
        bundle.mixed_partner = partner
        bundle.mixed_beta = betas

    if "st_batches" in reads:
        both = np.concatenate([imgs_s, imgs_t])
        st: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for task in _METHODS[cfg.method].tasks:
            x_task, labels = apply_semantic_transforming(
                both, task, rng(token, ST_TASKS.index(task) + 101, block))
            st[task] = (x_task.reshape(len(both), -1), labels)
        bundle.st_batches = st

    return bundle


# ---------------------------------------------------------------------------
# run directories
# ---------------------------------------------------------------------------

def save_run(out_dir, cfg: TrainConfig, params: ModelParams,
             metrics: Metrics) -> None:
    """Write config.json, metrics.jsonl, summary.json, confusion.csv,
    checkpoint.bin under one directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.asdict(cfg)
    resolved["loss"] = dataclasses.asdict(cfg.resolved_loss(params.n_classes))
    (out_dir / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True))
    (out_dir / "metrics.jsonl").write_text(metrics.to_jsonl())
    last = metrics.final()
    summary = {
        "method": cfg.method,
        "epochs": cfg.epochs,
        "target_accuracy": last["tgt_acc"],
        "target_accuracy_transductive": last["tgt_acc_transductive"],
        "source_accuracy": last["src_train_acc"],
        "per_class_target_accuracy": last["per_class_tgt_acc"],
        "loss_terms": last["loss_terms"],
        "prediction_marginal": last["prediction_marginal"],
        "h_q": last["h_q"],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    lines = [",".join(str(int(v)) for v in row) for row in metrics.confusion]
    (out_dir / "confusion.csv").write_text("\n".join(lines) + "\n")
    save_checkpoint(out_dir / "checkpoint.bin", params)


# ---------------------------------------------------------------------------
# the ablation matrix
# ---------------------------------------------------------------------------

def shift_pair(src: DomainDataset, tgt: DomainDataset, spec: BenchmarkSpec
               ) -> Tuple[DomainDataset, DomainDataset, BenchmarkSpec]:
    """Push the target of a pair through the constructor of ``spec.kind``.

    Returns the shifted pair and the spec as run. An ILDS spec without a
    meta-class map gets the one the target's sublabels carry, and only ILDS
    relabels the source. A TwO outlier pool holds twice the outliers the
    target needs, and at least 8.
    """
    if spec.kind == "LDS":
        return src, resample_lds(tgt, spec), spec
    if spec.kind == "ILDS":
        if spec.meta_class_map is None:
            if tgt.sublabels is None:
                raise ValueError("ILDS needs a dataset with sublabels")
            spec = dataclasses.replace(spec, meta_class_map={
                int(s): int(c) for s, c in zip(tgt.sublabels, tgt.labels)})
        tgt = build_ilds(tgt, spec)  # first, so outlier rows are named as such
        return relabel_to_meta(src, spec), tgt, spec
    n_out = two_outlier_count(tgt.n_samples, spec.outlier_fraction)
    pool = outlier_pool(max(2 * n_out, 8), seed=spec.seed)
    return src, inject_two(tgt, pool, spec), spec


def build_benchmark_pair(spec: BenchmarkSpec, samples_per_class: int = 250,
                         data_seed: int = 0) -> Tuple[DomainDataset, DomainDataset]:
    """Generate the canonical glyph pair and push the target through the
    requested constructor."""
    src, tgt = generate_glyph_pair(*default_pair_specs(
        samples_per_class=samples_per_class, seed=data_seed))
    src, tgt, _ = shift_pair(src, tgt, spec)
    return src, tgt


def ablation_suite(base_cfg: TrainConfig, benchmarks: Sequence[BenchmarkSpec],
                   samples_per_class: Count = 250,
                   data_seed: PairSeed = 0,
                   seeds: Sequence[Seed] = DEFAULT_SEEDS,
                   rows: Sequence[Tuple[str, Literal[METHODS]]] = ABLATION_ROWS, *,
                   progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run every component row on every benchmark; report per-seed and mean
    target accuracies in a row-major table."""
    columns = []
    pairs = []
    for i, spec in enumerate(benchmarks):
        name = spec.kind if spec.kind not in columns else f"{spec.kind}#{i}"
        columns.append(name)
        pairs.append(build_benchmark_pair(spec, samples_per_class, data_seed))

    table: Dict = {"columns": columns, "rows": []}
    for row_name, method in rows:
        row: Dict = {"row": row_name, "method": method, "per_benchmark": {}}
        bench_means = []
        for name, (src, tgt) in zip(columns, pairs):
            per_seed = {}
            for seed in seeds:
                cfg = dataclasses.replace(
                    base_cfg, method=method, seed_model=seed, seed_data=seed)
                _, metrics = train(cfg, src, tgt)
                per_seed[str(seed)] = metrics.final()["tgt_acc"]
                if progress is not None:
                    progress(f"{row_name} on {name} seed {seed}: "
                             f"{per_seed[str(seed)]:.3f}")
            mean = float(np.mean(list(per_seed.values())))
            row["per_benchmark"][name] = {"per_seed": per_seed, "mean": mean}
            bench_means.append(mean)
        row["mean"] = float(np.mean(bench_means))
        table["rows"].append(row)
    return table


def ablation_table_text(table: Dict) -> str:
    """Fixed-width text rendering of the ablation results."""
    columns = table["columns"]
    header = f"{'row':<12}" + "".join(f"{c:>10}" for c in columns) + f"{'mean':>10}"
    lines = [header, "-" * len(header)]
    for row in table["rows"]:
        cells = "".join(
            f"{row['per_benchmark'][c]['mean'] * 100:>10.1f}" for c in columns)
        lines.append(f"{row['row']:<12}" + cells + f"{row['mean'] * 100:>10.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# label-shift failure probe
# ---------------------------------------------------------------------------

DEFAULT_PROBE_SCHEDULE = (1.0, 3.0, 10.0, 30.0, 100.0)


def lds_failure_probe(priors_src: Sequence[Weight], priors_tgt: Sequence[Weight],
                      dm_weight_schedule: Sequence[Weight] = DEFAULT_PROBE_SCHEDULE,
                      # the fewest rows that split into an eval row and an adapt pair
                      n: Annotated[int, Range(3)] = 1000, spread: Weight = 0.5,
                      means: Tuple[Tuple[float, float], Tuple[float, float]] = (
                          (-2.0, 0.0), (2.0, 0.0)),
                      seed_model: Seed = 17, seed_data: Seed = 0,
                      epochs: Count = 120, batch: Annotated[int, Range(2)] = 64,
                      hidden: Tuple[Count, ...] = (32, 16),
                      weight_decay: Weight = 1e-5,
                      optimizer: Literal[OPTIMIZERS] = "adam", lr: Positive = 1e-3,
                      dm_ramp_steps: Annotated[int, Range(0)] = 10) -> Dict:
    """Escalate the feature-distance weight on a two-cluster pair with
    shifted label priors and record what tightly-matched features do to
    accuracy.

    One model is trained throughout: each schedule entry continues from the
    previous weight's parameters, so the curve follows a single matching
    trajectory as the pressure rises rather than re-rolling the dice per
    weight. The accuracy ceiling for any marginal-matched predictor is
    1 - TV(priors_src, priors_tgt); because the pair shares its
    class-conditionals, a model cannot hold source accuracy while its
    marginals are forced together, so past a threshold weight both
    accuracies fall through the ceiling as the distance drops toward zero.
    """
    priors_src = [float(p) for p in priors_src]
    priors_tgt = [float(p) for p in priors_tgt]
    for name, priors in (("priors_src", priors_src), ("priors_tgt", priors_tgt)):
        if len(priors) != 2 or abs(sum(priors) - 1.0) > 1e-9:
            raise ValueError(f"{name} must be 2 values summing to 1 (a 2-class probe), got {priors}")
    tv = 0.5 * sum(abs(a - b) for a, b in zip(priors_src, priors_tgt))
    src, tgt = generate_blob_pair(2, priors_src, priors_tgt, means, spread,
                                  n, seed=seed_data)
    curve = []
    params = None
    for weight in dm_weight_schedule:
        cfg = TrainConfig(method="dm_mmd", epochs=epochs, batch=batch,
                          dm_weight=float(weight), hidden=hidden,
                          weight_decay=weight_decay, optimizer=optimizer,
                          lr=lr, dm_ramp_steps=dm_ramp_steps,
                          seed_model=seed_model, seed_data=seed_data)
        params, metrics = train(cfg, src, tgt, warm_start=params)
        last = metrics.final()
        curve.append({
            "dm_weight": float(weight),
            "mmd": full_set_mmd(params, src.x_flat(), tgt.x_flat()),
            "source_acc": last["src_train_acc"],
            "target_acc": last["tgt_acc"],
            "target_acc_transductive": last["tgt_acc_transductive"],
        })
    return {
        "priors_src": priors_src,
        "priors_tgt": priors_tgt,
        "ceiling": 1.0 - tv,
        "curve": curve,
    }
