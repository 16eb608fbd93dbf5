"""Training objectives.

Four target-side terms (marginal matching, consistency under
semantic-preserving views, interpolation consistency, pretext-task
supervision), their weighted combination with source cross-entropy, and
two feature-distribution distances used by alignment baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .nets import ModelParams, forward, softmax_probs
from .tensor import (
    Tensor,
    add,
    exp,
    log_softmax,
    matmul,
    mul,
    neg,
    node,
    reduce,
    relu,
    scale,
    sub,
    take,
    tracked,
    transpose,
)

# per-pair clamp on the disagreement divergence; unbounded KL invites
# divergence-chasing on easy pairs
KL_MARGIN = 5.0
# multiples of the median pairwise distance used when no bandwidths are given
DEFAULT_BANDWIDTH_SCALES = (0.5, 1.0, 2.0, 4.0)
MARGINAL_FLOOR = 1e-6


def _const(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


def _as_bool_mask(mask) -> np.ndarray:
    data = mask.data if isinstance(mask, Tensor) else mask
    return np.asarray(data).astype(bool).reshape(-1)


def _row_entropies(q: np.ndarray) -> np.ndarray:
    """Entropy in nats of each distribution along the last axis."""
    q = np.asarray(q, dtype=np.float64)
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _entropy(q: np.ndarray) -> float:
    return float(_row_entropies(q))


def _mean_row_dot(a: Tensor, b: Tensor) -> Tensor:
    """E over rows of sum_y a[row, y] * b[row, y] (b may broadcast)."""
    return reduce("mean", reduce("sum", mul(a, b), axis=1))


def _kl_rows(logp_a: Tensor, logp_b: Tensor) -> Tensor:
    """Per-row KL(p_a || p_b) from two log-probability tensors."""
    p_a = exp(logp_a)
    return reduce("sum", mul(p_a, sub(logp_a, logp_b)), axis=1)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under the logits."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    k = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k}): {labels.min()}..{labels.max()}")
    onehot = np.zeros((labels.shape[0], k))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return neg(_mean_row_dot(_const(onehot), log_softmax(logits)))


# ---------------------------------------------------------------------------
# configuration and marginal state
# ---------------------------------------------------------------------------

@dataclass
class LossConfig:
    """Weights and knobs for the combined objective.

    ``entropy_ceiling`` is an absolute value in nats; build configs with
    :meth:`for_classes` to get the default 0.85 * ln K. The ceiling gates the
    marginal-diversity term: below it the term pushes predictions apart
    (anti-collapse brake), above it legitimately skewed marginals are left
    alone.
    """

    entropy_ceiling: float
    lambda_M: float = 0.25
    lambda_C: float = 1.0
    lambda_U: float = 0.5
    lambda_S: float = 0.5
    lambda_con: float = 0.1
    marginal_momentum: float = 0.1
    mixup_alpha: float = 0.2
    supervised_weight: float = 1.0

    def __post_init__(self):
        for name in ("lambda_M", "lambda_C", "lambda_U", "lambda_S",
                     "lambda_con", "supervised_weight"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (0.0 < self.marginal_momentum < 1.0):
            raise ValueError(f"marginal_momentum must lie in (0,1), got {self.marginal_momentum}")
        if self.mixup_alpha <= 0.0:
            raise ValueError(f"mixup_alpha must be positive, got {self.mixup_alpha}")
        if not (self.entropy_ceiling > 0.0):
            raise ValueError(f"entropy_ceiling must be positive, got {self.entropy_ceiling}")

    @classmethod
    def for_classes(cls, n_classes: int, **overrides) -> "LossConfig":
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        overrides.setdefault("entropy_ceiling", 0.85 * math.log(n_classes))
        cfg = cls(**overrides)
        cfg.check_ceiling(n_classes)
        return cfg

    def check_ceiling(self, n_classes: int) -> None:
        if self.entropy_ceiling > math.log(n_classes) + 1e-12:
            raise ValueError(
                f"entropy_ceiling {self.entropy_ceiling} exceeds ln {n_classes} "
                f"= {math.log(n_classes):.6f}")


@dataclass
class MarginalTracker:
    """Moving average of the predicted label marginal."""

    q: np.ndarray
    momentum: float = 0.1
    count: int = 0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.ndim != 1 or self.q.shape[0] < 2:
            raise ValueError(f"marginal must be a vector of >= 2 probabilities, got {self.q.shape}")
        if not (0.0 < self.momentum < 1.0):
            raise ValueError(f"momentum must lie in (0,1), got {self.momentum}")
        self._normalize()

    @classmethod
    def uniform(cls, n_classes: int, momentum: float = 0.1) -> "MarginalTracker":
        return cls(q=np.full(n_classes, 1.0 / n_classes), momentum=momentum)

    def _normalize(self) -> None:
        if np.any(self.q < 0.0):
            raise ValueError("marginal entries must be non-negative")
        self.q = np.maximum(self.q, MARGINAL_FLOOR)
        self.q = self.q / self.q.sum()

    def update(self, mean_p: np.ndarray) -> None:
        mean_p = np.asarray(mean_p, dtype=np.float64)
        if mean_p.shape != self.q.shape:
            raise ValueError(f"mean prediction shape {mean_p.shape} != marginal {self.q.shape}")
        self.q = (1.0 - self.momentum) * self.q + self.momentum * mean_p
        self._normalize()
        self.count += 1

    def entropy(self) -> float:
        return _entropy(self.q)


# ---------------------------------------------------------------------------
# the four target-side terms
# ---------------------------------------------------------------------------

def _diversity_term(target_logits: Tensor, log_q: np.ndarray) -> Tensor:
    """E_x sum_y p(y|x) log q(y) with q constant; its gradient is the
    moving-average estimator of the marginal-entropy derivative."""
    p = exp(log_softmax(target_logits))
    return _mean_row_dot(p, _const(log_q))


def _confidence_term(target_logits: Tensor) -> Tensor:
    """+E_x H(p(.|x)): mean conditional entropy, driven down when minimized."""
    logp = log_softmax(target_logits)
    return neg(_mean_row_dot(exp(logp), logp))


def mim_loss(target_logits: Tensor, tracker: MarginalTracker, ceiling: float) -> Tensor:
    """Marginal-diversity plus confidence objective on an unlabeled batch.

    The diversity part enters only while the tracked marginal's entropy is
    below ``ceiling``; the tracker is advanced with the batch mean
    prediction after the loss is formed.
    """
    if target_logits.ndim != 2 or target_logits.shape[1] != tracker.q.shape[0]:
        raise ValueError(
            f"logits shape {target_logits.shape} does not match marginal of "
            f"{tracker.q.shape[0]} classes")
    confidence = _confidence_term(target_logits)
    if tracker.entropy() < ceiling:
        loss = add(_diversity_term(target_logits, np.log(tracker.q)), confidence)
    else:
        loss = confidence
    tracker.update(exp(log_softmax(target_logits)).data.mean(axis=0))
    return loss


def cpbm_loss(logits_orig: Tensor, logits_aug: Tensor,
              src_logits_a: Optional[Tensor], src_logits_b: Optional[Tensor],
              diff_class_mask, lambda_con: float) -> Tensor:
    """Consistency under semantic-preserving views, minus clamped
    disagreement on source pairs with different labels."""
    if logits_orig.shape != logits_aug.shape:
        raise ValueError(
            f"original and transformed logits differ: {logits_orig.shape} vs {logits_aug.shape}")
    agreement = reduce("mean", _kl_rows(log_softmax(logits_orig), log_softmax(logits_aug)))
    mask = None if diff_class_mask is None else _as_bool_mask(diff_class_mask)
    if (src_logits_a is None or src_logits_b is None
            or mask is None or not mask.any() or lambda_con == 0.0):
        return agreement
    if src_logits_a.shape != src_logits_b.shape:
        raise ValueError(
            f"pair logits differ: {src_logits_a.shape} vs {src_logits_b.shape}")
    if mask.shape[0] != src_logits_a.shape[0]:
        raise ValueError(
            f"mask length {mask.shape[0]} != pair count {src_logits_a.shape[0]}")
    kl = _kl_rows(log_softmax(src_logits_a), log_softmax(src_logits_b))
    # min(kl, margin) within the op set: margin - relu(margin - kl)
    clamped = sub(_const(KL_MARGIN), relu(sub(_const(KL_MARGIN), kl)))
    masked_sum = reduce("sum", mul(clamped, _const(mask.astype(np.float64))))
    disagreement = scale(masked_sum, 1.0 / int(mask.sum()))
    return sub(agreement, scale(disagreement, lambda_con))


def mupbm_loss(mixed_logits: Tensor, mixed_targets) -> Tensor:
    """Match predictions on interpolated inputs to interpolated targets.

    The divergence is KL(target || prediction), i.e. cross-entropy minus
    the constant target entropy, so one-hot target rows stay finite.
    Targets never receive gradient.
    """
    q = mixed_targets.data if isinstance(mixed_targets, Tensor) else np.asarray(mixed_targets)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != mixed_logits.shape:
        raise ValueError(f"target shape {q.shape} does not match logits {mixed_logits.shape}")
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(f"target row {bad} sums to {row_sums[bad]}, not 1")
    ce = neg(_mean_row_dot(_const(q), log_softmax(mixed_logits)))
    mean_target_entropy = float(np.mean(_row_entropies(q)))
    return sub(ce, _const(mean_target_entropy))


def tpbm_loss(task_logits_by_task: Mapping[str, Tensor],
              task_labels_by_task: Mapping[str, np.ndarray]) -> Tensor:
    """Mean over pretext tasks of label cross-entropy."""
    if not task_logits_by_task:
        raise ValueError("no pretext tasks given")
    if set(task_logits_by_task) != set(task_labels_by_task):
        raise ValueError(
            f"task keys differ: {sorted(task_logits_by_task)} vs {sorted(task_labels_by_task)}")
    total = None
    for task in sorted(task_logits_by_task):
        ce = cross_entropy(task_logits_by_task[task], task_labels_by_task[task])
        total = ce if total is None else add(total, ce)
    return scale(total, 1.0 / len(task_logits_by_task))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

@dataclass
class BatchBundle:
    """One step's inputs: source labeled batch, target batch, and the
    pre-applied transform outputs each active term consumes.

    The consistency term's source pairs are the source rows and the same
    rows rolled by one; ``pair_diff_mask`` marks the pairs whose labels
    differ. ``mixed_x`` row r mixes target rows r and ``mixed_partner[r]``
    with weight ``mixed_beta[r]``; its targets mix the two rows' detached
    predictions the same way.
    """

    src_x: np.ndarray
    src_y: np.ndarray
    tgt_x: Optional[np.ndarray] = None
    tgt_x_aug: Optional[np.ndarray] = None
    pair_diff_mask: Optional[np.ndarray] = None
    mixed_x: Optional[np.ndarray] = None
    mixed_partner: Optional[np.ndarray] = None
    mixed_beta: Optional[np.ndarray] = None
    st_batches: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None


def _check_bundle(b: BatchBundle, cfg: LossConfig) -> None:
    if cfg.lambda_M > 0.0 and b.tgt_x is None:
        raise ValueError("lambda_M > 0 requires a target batch")
    if cfg.lambda_C > 0.0 and (b.tgt_x is None or b.tgt_x_aug is None):
        raise ValueError("lambda_C > 0 requires a target batch and its transformed view")
    if cfg.lambda_U > 0.0 and (b.tgt_x is None or b.mixed_x is None
                               or b.mixed_partner is None or b.mixed_beta is None):
        raise ValueError(
            "lambda_U > 0 requires a target batch, interpolated inputs and their mixing")
    if cfg.lambda_S > 0.0 and not b.st_batches:
        raise ValueError("lambda_S > 0 requires pretext-task batches")


def _rows(t: Tensor, start: int, stop: int) -> Tensor:
    return t if start == 0 and stop == t.shape[0] else take(t, slice(start, stop))


def total_objective(batch_bundle: BatchBundle, params: ModelParams,
                    cfg: LossConfig, tracker: MarginalTracker
                    ) -> Tuple[Tensor, Dict[str, float]]:
    """Weighted sum of the active terms; zero-weight terms are never built.

    Every view the active terms score is stacked into one constant batch
    and run through the shared extractor once; row blocks of the latent go
    to the label head and to each pretext head. Returns the scalar loss and
    a report of each computed term's unweighted value plus the total.
    """
    b = batch_bundle
    _check_bundle(b, cfg)
    use_pairs = cfg.lambda_C > 0.0 and b.pair_diff_mask is not None
    # label-head views first, then one block per pretext task
    label_views = [("src", b.src_x if cfg.supervised_weight > 0.0 or use_pairs else None),
                   ("tgt", b.tgt_x if cfg.lambda_M > 0.0 or cfg.lambda_C > 0.0
                    or cfg.lambda_U > 0.0 else None),
                   ("aug", b.tgt_x_aug if cfg.lambda_C > 0.0 else None),
                   ("mixed", b.mixed_x if cfg.lambda_U > 0.0 else None)]
    label_views = [(name, x) for name, x in label_views if x is not None]
    task_views = sorted(b.st_batches.items()) if cfg.lambda_S > 0.0 else []
    stacked = [x for _, x in label_views] + [x for _, (x, _) in task_views]
    if not stacked:
        raise ValueError("all objective weights are zero; nothing to optimize")
    z = forward(params, _const(np.concatenate(stacked)), head=None)

    bounds = [0, *accumulate(x.shape[0] for x in stacked)]
    n_label = len(label_views)
    logits: Dict[str, Tensor] = {}
    if label_views:
        w, bias = params.psi
        label_logits = add(matmul(_rows(z, 0, bounds[n_label]), w), bias)
        logits = {name: _rows(label_logits, bounds[i], bounds[i + 1])
                  for i, (name, _) in enumerate(label_views)}

    terms: List[Tuple[str, float, Tensor]] = []
    if cfg.supervised_weight > 0.0:
        terms.append(("supervised", cfg.supervised_weight,
                      cross_entropy(logits["src"], b.src_y)))
    if cfg.lambda_M > 0.0:
        terms.append(("mim", cfg.lambda_M,
                      mim_loss(logits["tgt"], tracker, cfg.entropy_ceiling)))
    if cfg.lambda_C > 0.0:
        pair_a = logits["src"] if use_pairs else None
        pair_b = (take(pair_a, np.roll(np.arange(pair_a.shape[0]), 1))
                  if use_pairs else None)
        terms.append(("cpbm", cfg.lambda_C,
                      cpbm_loss(logits["tgt"], logits["aug"], pair_a, pair_b,
                                b.pair_diff_mask, cfg.lambda_con)))
    if cfg.lambda_U > 0.0:
        # targets mix the detached target predictions; they get no gradient
        probs = softmax_probs(logits["tgt"].data)
        beta = b.mixed_beta[:, None]
        targets = beta * probs + (1.0 - beta) * probs[b.mixed_partner]
        terms.append(("mupbm", cfg.lambda_U, mupbm_loss(logits["mixed"], targets)))
    if cfg.lambda_S > 0.0:
        logits_map = {}
        for i, (task, _) in enumerate(task_views, start=n_label):
            w_t, b_t = params.head_tensors(task)
            logits_map[task] = add(matmul(_rows(z, bounds[i], bounds[i + 1]), w_t), b_t)
        labels_map = {task: labels for task, (_, labels) in task_views}
        terms.append(("tpbm", cfg.lambda_S, tpbm_loss(logits_map, labels_map)))

    total = None
    report: Dict[str, float] = {}
    for name, weight, term in terms:
        report[name] = float(term.data)
        weighted = scale(term, weight)
        total = weighted if total is None else add(total, weighted)
    report["total"] = float(total.data)
    return total, report


# ---------------------------------------------------------------------------
# feature-distribution distances (alignment baselines)
# ---------------------------------------------------------------------------

def _check_feature_pair(z_src: Tensor, z_tgt: Tensor) -> None:
    if z_src.ndim != 2 or z_tgt.ndim != 2:
        raise ValueError(
            f"features must be rank-2, got ranks {z_src.ndim} and {z_tgt.ndim}")
    if z_src.shape[1] != z_tgt.shape[1]:
        raise ValueError(
            f"feature widths differ: {z_src.shape[1]} vs {z_tgt.shape[1]}")


def _joint_sq_dists(joint: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Squared distances between all rows of ``joint``, plus a scratch buffer
    of the same shape that the caller may overwrite.

    The Gram matrix of ``joint`` with itself is exactly symmetric, so the
    distances are too; the diagonal is set to 0 and the tiny negatives
    float cancellation can leave are clamped.
    """
    sq = np.sum(joint ** 2, axis=1)
    d2 = joint @ joint.T
    d2 *= 2.0
    scratch = np.add(sq[:, None], sq[None, :])
    np.subtract(scratch, d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2, scratch


def _median_distance(d2: np.ndarray, scratch: np.ndarray) -> float:
    """Median distance over distinct pairs of a ``_joint_sq_dists`` matrix; 1.0 if degenerate.

    Partitions a copy of the whole matrix in ``scratch``: its N zero
    diagonal entries sort first and every distinct pair follows twice, so
    the two middle order statistics of the P pairs sit at N + P - 1 and
    the smallest entry after it. Taking square roots after selecting gives
    the same bits as taking them before, since the square root is monotone.
    """
    n = d2.shape[0]
    pairs = n * (n - 1) // 2
    if pairs == 0:
        return 1.0
    flat = scratch.reshape(-1)
    np.copyto(scratch, d2)
    mid = n + pairs - 1
    flat.partition(mid)
    med = (math.sqrt(flat[mid]) + math.sqrt(flat[mid + 1:].min())) / 2.0
    return med if med > 0.0 else 1.0


def median_pairwise_distance(z_src: np.ndarray, z_tgt: np.ndarray) -> float:
    """Median distance over distinct pairs of the joint batch; 1.0 if degenerate."""
    joint = np.vstack([np.asarray(z_src, dtype=np.float64),
                       np.asarray(z_tgt, dtype=np.float64)])
    return _median_distance(*_joint_sq_dists(joint))


def mmd_distance(z_src: Tensor, z_tgt: Tensor,
                 bandwidths: Optional[Sequence[float]] = None) -> Tensor:
    """Squared maximum mean discrepancy (biased estimator) between feature sets.

    The kernel is a sum of Gaussians over ``bandwidths`` (defaults:
    {0.5,1,2,4} x median pairwise distance of the joint batch, frozen per
    call). One squared-distance matrix D of the stacked rows Z = [z_src;
    z_tgt] serves the median and every kernel, whose blocks sum to
    mean(K_ss) + mean(K_tt) - 2 mean(K_st).

    The term is one tape node. With C the block weights (1/n^2, 1/m^2,
    -1/nm) times sum over bandwidths of -exp(-D / 2bw^2) / 2bw^2, zero
    where D is 0, the gradient with respect to Z is 4 (diag(C 1) Z - C Z).
    An untracked call builds no gradient buffers.
    """
    _check_feature_pair(z_src, z_tgt)
    n, m = z_src.shape[0], z_tgt.shape[0]
    if n == 0 or m == 0:
        raise ValueError(f"need >= 1 row per side, got {n} and {m}")
    joint = np.concatenate([z_src.data, z_tgt.data])
    d2, kern = _joint_sq_dists(joint)
    if bandwidths is None:
        med = _median_distance(d2, kern)
        bandwidths = [s * med for s in DEFAULT_BANDWIDTH_SCALES]
    bandwidths = [float(bw) for bw in bandwidths]
    if not bandwidths or any(bw <= 0.0 or not math.isfinite(bw) for bw in bandwidths):
        raise ValueError(f"bandwidths must be positive and finite, got {bandwidths}")

    needs_grad = tracked(z_src) or tracked(z_tgt)
    c = np.zeros_like(d2) if needs_grad else None
    k_ss = k_tt = k_st = 0.0
    for bw in bandwidths:
        coef = -1.0 / (2.0 * bw * bw)
        np.multiply(d2, coef, out=kern)
        np.exp(kern, out=kern)
        k_ss += kern[:n, :n].sum()
        k_tt += kern[n:, n:].sum()
        k_st += kern[:n, n:].sum()
        if needs_grad:
            kern *= coef
            c += kern
    value = k_ss / (n * n) + k_tt / (m * m) - 2.0 * k_st / (n * m)
    if needs_grad:
        c[:n, :n] *= 1.0 / (n * n)
        c[n:, n:] *= 1.0 / (m * m)
        c[:n, n:] *= -1.0 / (n * m)
        c[n:, :n] *= -1.0 / (n * m)
        c[d2 <= 0.0] = 0.0

    def rule(g):
        grad = c.sum(axis=1)[:, None] * joint
        grad -= c @ joint
        grad *= 4.0 * g
        return grad[:n], grad[n:]

    return node(value, (z_src, z_tgt), rule)


def coral_distance(z_src: Tensor, z_tgt: Tensor) -> Tensor:
    """Frobenius gap between sample covariances, scaled by 1/(4 d^2)."""
    _check_feature_pair(z_src, z_tgt)
    if z_src.shape[0] < 2 or z_tgt.shape[0] < 2:
        raise ValueError(
            f"need >= 2 rows per side for covariances, got {z_src.shape[0]} and {z_tgt.shape[0]}")
    d = z_src.shape[1]

    def cov(z: Tensor) -> Tensor:
        centered = sub(z, reduce("mean", z, axis=0))
        return scale(matmul(transpose(centered), centered), 1.0 / (z.shape[0] - 1))

    diff = sub(cov(z_src), cov(z_tgt))
    return scale(reduce("sum", mul(diff, diff)), 1.0 / (4.0 * d * d))
