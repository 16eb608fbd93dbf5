"""Training objectives.

Four target-side terms (marginal matching, consistency under
semantic-preserving views, interpolation consistency, pretext-task
supervision), two feature-distribution distances for the alignment
baselines, and their weighted combination with source cross-entropy.

Every term is a function over plain arrays that returns its value
together with its closed-form gradient. The classifier terms take
row-wise log-probabilities and give the gradient with respect to the
logits; the two distances take the stacked source and target latent rows
and the source row count, and give a map from a scale to the scaled
gradient with respect to those rows. No term touches the tape:
``total_objective`` runs the terms and records one node for the whole
weighted sum, head GEMMs and feature distance included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .nets import ModelParams, forward
from .tensor import Tensor, node

# per-pair clamp on the disagreement divergence; unbounded KL invites
# divergence-chasing on easy pairs
KL_MARGIN = 5.0
# multiples of the median pairwise distance used when no bandwidths are given
DEFAULT_BANDWIDTH_SCALES = (0.5, 1.0, 2.0, 4.0)
MARGINAL_FLOOR = 1e-6

Grads = Tuple[Optional[np.ndarray], ...]
# a scale s -> s times a distance's gradient with respect to its stacked rows
GradMap = Callable[[float], np.ndarray]


def _as_bool_mask(mask) -> np.ndarray:
    return np.asarray(mask).astype(bool).reshape(-1)


def _row_entropies(q: np.ndarray) -> np.ndarray:
    """Entropy in nats of each distribution along the last axis."""
    q = np.asarray(q, dtype=np.float64)
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _entropy(q: np.ndarray) -> float:
    return float(_row_entropies(q))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over [batch, K] logits, stabilized by max-subtraction."""
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError(f"logits must be [batch, K] with K >= 2, got shape {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logp: np.ndarray, labels) -> Tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels under the row-wise
    log-probabilities ``logp``; gradient to the logits (softmax - onehot) / n."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logp.shape[0]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logp.shape}")
    k = logp.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k}): {labels.min()}..{labels.max()}")
    n = logp.shape[0]
    rows = np.arange(n)
    value = -logp[rows, labels].mean()
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return float(value), grad


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

def mim_loss(logp: np.ndarray, tracker: MarginalTracker, ceiling: float
             ) -> Tuple[float, np.ndarray]:
    """Confidence E_x H(p(.|x)), plus the diversity E_x sum_y p(y|x) log q(y)
    while the tracked marginal's entropy is below ``ceiling``; then the
    tracker advances with the batch mean prediction.

    Per row the confidence gradient is -p (log p + H) / n. With q held
    fixed, the diversity gradient p (log q - p . log q) / n is the
    moving-average estimator of the marginal-entropy derivative.
    """
    if logp.shape[1] != tracker.q.shape[0]:
        raise ValueError(
            f"logits shape {logp.shape} does not match marginal of "
            f"{tracker.q.shape[0]} classes")
    n = logp.shape[0]
    p = np.exp(logp)
    h = -(p * logp).sum(axis=1)
    value = h.mean()
    grad = -p * (logp + h[:, None])
    if tracker.entropy() < ceiling:
        log_q = np.log(tracker.q)
        dot = p @ log_q
        value = dot.mean() + value
        grad += p * (log_q - dot[:, None])
    grad /= n
    tracker.update(p.mean(axis=0))
    return float(value), grad


def _kl_rows(logp_a: np.ndarray, logp_b: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row KL(p_a || p_b), with its per-row gradients
    p_a (log p_a - log p_b - KL) and p_b - p_a for the two sides' logits."""
    p_a = np.exp(logp_a)
    gap = logp_a - logp_b
    kl = (p_a * gap).sum(axis=1)
    return kl, p_a * (gap - kl[:, None]), np.exp(logp_b) - p_a


def cpbm_loss(orig: np.ndarray, aug: np.ndarray, pair_a: Optional[np.ndarray],
              pair_b: Optional[np.ndarray], mask: Optional[np.ndarray],
              lambda_con: float) -> Tuple[float, Grads]:
    """Mean KL agreement of the two views, minus lambda_con times the mean
    of min(KL, KL_MARGIN) over the masked source pairs, from the four
    blocks' log-probabilities.

    The disagreement part is off without pairs, with an empty mask or with
    lambda_con 0; then the pair gradients are None. A pair whose KL reaches
    the margin gets no gradient.
    """
    if orig.shape != aug.shape:
        raise ValueError(f"original and transformed logits differ: {orig.shape} vs {aug.shape}")
    n = orig.shape[0]
    kl, g_orig, g_aug = _kl_rows(orig, aug)
    value = kl.mean()
    g_orig /= n
    g_aug /= n
    if pair_a is None or pair_b is None or mask is None or not mask.any() or lambda_con == 0.0:
        return float(value), (g_orig, g_aug, None, None)
    if mask.shape[0] != pair_a.shape[0]:
        raise ValueError(f"mask length {mask.shape[0]} != pair count {pair_a.shape[0]}")
    kl_pair, g_a, g_b = _kl_rows(pair_a, pair_b)
    m = int(mask.sum())
    value = value - lambda_con * (np.minimum(kl_pair, KL_MARGIN)[mask].sum() / m)
    live = np.where(mask & (kl_pair < KL_MARGIN), -lambda_con / m, 0.0)[:, None]
    return float(value), (g_orig, g_aug, g_a * live, g_b * live)


def mupbm_loss(logp: np.ndarray, q: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean KL(q || p) of predictions on interpolated inputs from the
    interpolated target rows ``q``, as cross-entropy minus the constant
    target entropy, so one-hot target rows stay finite; gradient
    (p - q) / n, since the rows of q must be distributions. The targets
    get no gradient."""
    if q.shape != logp.shape:
        raise ValueError(f"target shape {q.shape} does not match logits {logp.shape}")
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(f"target row {bad} sums to {row_sums[bad]}, not 1")
    ce = -(q * logp).sum(axis=1).mean()
    value = ce - float(np.mean(_row_entropies(q)))
    return float(value), (np.exp(logp) - q) / logp.shape[0]


def tpbm_loss(logp_by_task: Sequence[np.ndarray], labels_by_task: Sequence[np.ndarray]
              ) -> Tuple[float, List[np.ndarray]]:
    """Mean over pretext tasks of label cross-entropy, from one block of
    log-probabilities and one label vector per task, with each task's
    logit gradient."""
    if not logp_by_task:
        raise ValueError("no pretext tasks given")
    share = 1.0 / len(logp_by_task)
    parts = [cross_entropy(logp, labels)
             for logp, labels in zip(logp_by_task, labels_by_task, strict=True)]
    return sum(value for value, _ in parts) * share, [grad * share for _, grad in parts]


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
    predictions the same way. ``distance`` names a feature distance
    between the source and target latents, "mmd" or "coral", that enters
    the objective with weight ``distance_weight``.
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
    distance: Optional[str] = None
    distance_weight: float = 1.0


def _check_bundle(b: BatchBundle, cfg: LossConfig) -> None:
    if b.distance is not None and b.distance not in _DISTANCES:
        raise ValueError(
            f"distance must be one of {sorted(_DISTANCES)} or None, got {b.distance!r}")
    if b.distance is not None and b.tgt_x is None:
        raise ValueError(f"the {b.distance} distance requires a target batch")
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


def total_objective(batch_bundle: BatchBundle, params: ModelParams,
                    cfg: LossConfig, tracker: MarginalTracker
                    ) -> Tuple[Tensor, Dict[str, float]]:
    """Weighted sum of the active terms; zero-weight terms are never built.

    Every view the active terms score is stacked into one constant batch
    and run through the shared extractor once. The rest is one tape node
    whose parents are the latent and the weights of the heads in use: it
    applies the label head to the label views' rows and each pretext head
    to its task's rows, adds up the terms' weighted closed-form logit
    gradients row block by row block, and its rule maps them back through
    the heads. A feature distance adds its weighted gradient straight into
    the latent rows of the source and target views. Returns the scalar loss
    and a report of each computed term's unweighted value, the distance's
    weight as ``dm_weight`` when there is one, and the total.
    """
    b = batch_bundle
    _check_bundle(b, cfg)
    dist = b.distance
    use_pairs = cfg.lambda_C > 0.0 and b.pair_diff_mask is not None
    # label-head views first, then one block per pretext task; a distance
    # reads the source and target views, which stay the first two
    label_views = [("src", b.src_x if cfg.supervised_weight > 0.0 or use_pairs or dist else None),
                   ("tgt", b.tgt_x if cfg.lambda_M > 0.0 or cfg.lambda_C > 0.0
                    or cfg.lambda_U > 0.0 or dist else None),
                   ("aug", b.tgt_x_aug if cfg.lambda_C > 0.0 else None),
                   ("mixed", b.mixed_x if cfg.lambda_U > 0.0 else None)]
    label_views = [(name, x) for name, x in label_views if x is not None]
    task_views = sorted(b.st_batches.items()) if cfg.lambda_S > 0.0 else []
    stacked = [x for _, x in label_views] + [x for _, (x, _) in task_views]
    if not stacked:
        raise ValueError("all objective weights are zero; nothing to optimize")
    z = forward(params, Tensor(np.concatenate(stacked)), head=None)

    # one GEMM per head: the label head over every label view, then each task's
    bounds = [0, *accumulate(x.shape[0] for x in stacked)]
    n_label = len(label_views)
    heads: List[Tuple[slice, Tensor, Tensor]] = []
    if label_views:
        heads.append((slice(0, bounds[n_label]), *params.psi))
    for i, (task, _) in enumerate(task_views, start=n_label):
        heads.append((slice(bounds[i], bounds[i + 1]), *params.head_tensors(task)))
    logp = [_log_softmax(z.data[rows] @ w.data + bias.data) for rows, w, bias in heads]
    dlogits = [np.zeros_like(block) for block in logp]
    view = {name: slice(bounds[i], bounds[i + 1]) for i, (name, _) in enumerate(label_views)}
    label = logp[0] if label_views else None
    dlabel = dlogits[0] if label_views else None

    terms: List[Tuple[str, float, float]] = []
    if cfg.supervised_weight > 0.0:
        value, grad = cross_entropy(label[view["src"]], b.src_y)
        dlabel[view["src"]] += cfg.supervised_weight * grad
        terms.append(("supervised", cfg.supervised_weight, value))
    if cfg.lambda_M > 0.0:
        value, grad = mim_loss(label[view["tgt"]], tracker, cfg.entropy_ceiling)
        dlabel[view["tgt"]] += cfg.lambda_M * grad
        terms.append(("mim", cfg.lambda_M, value))
    if cfg.lambda_C > 0.0:
        # the source pairs are the source rows and the same rows rolled by one
        src = label[view["src"]] if use_pairs else None
        value, (g_tgt, g_aug, g_a, g_b) = cpbm_loss(
            label[view["tgt"]], label[view["aug"]], src,
            np.roll(src, 1, axis=0) if use_pairs else None,
            _as_bool_mask(b.pair_diff_mask) if use_pairs else None, cfg.lambda_con)
        dlabel[view["tgt"]] += cfg.lambda_C * g_tgt
        dlabel[view["aug"]] += cfg.lambda_C * g_aug
        if g_a is not None:
            dlabel[view["src"]] += cfg.lambda_C * (g_a + np.roll(g_b, -1, axis=0))
        terms.append(("cpbm", cfg.lambda_C, value))
    if cfg.lambda_U > 0.0:
        # targets mix the detached target predictions; they get no gradient
        probs = np.exp(label[view["tgt"]])
        beta = b.mixed_beta[:, None]
        targets = beta * probs + (1.0 - beta) * probs[b.mixed_partner]
        value, grad = mupbm_loss(label[view["mixed"]], targets)
        dlabel[view["mixed"]] += cfg.lambda_U * grad
        terms.append(("mupbm", cfg.lambda_U, value))
    if cfg.lambda_S > 0.0:
        first = len(heads) - len(task_views)
        value, grads = tpbm_loss(logp[first:], [labels for _, (_, labels) in task_views])
        for dtask, grad in zip(dlogits[first:], grads):
            dtask += cfg.lambda_S * grad
        terms.append(("tpbm", cfg.lambda_S, value))
    if dist is not None:
        joint = slice(0, view["tgt"].stop)
        value, dist_grad = _DISTANCES[dist](z.data[joint], view["src"].stop)
        terms.append((dist, b.distance_weight, value))

    total = None
    report: Dict[str, float] = {}
    for name, weight, value in terms:
        report[name] = value
        weighted = value * weight
        total = weighted if total is None else total + weighted
    if dist is not None:
        report["dm_weight"] = b.distance_weight
    report["total"] = total

    parents = [z]
    for _, w, bias in heads:
        parents += [w, bias]

    def rule(g):
        dz = np.zeros_like(z.data)
        head_grads = []
        for (rows, w, _), dblock in zip(heads, dlogits):
            dblock = dblock * g
            dz[rows] = dblock @ w.data.T
            head_grads += [z.data[rows].T @ dblock, dblock.sum(axis=0)]
        if dist is not None:
            dz[joint] += dist_grad(g * b.distance_weight)
        return (dz, *head_grads)

    return node(total, tuple(parents), rule), report


# ---------------------------------------------------------------------------
# feature-distribution distances (alignment baselines)
# ---------------------------------------------------------------------------

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


def mmd_distance(joint: np.ndarray, n: int, bandwidths: Optional[Sequence[float]] = None,
                 needs_grad: bool = True) -> Tuple[float, Optional[GradMap]]:
    """Squared maximum mean discrepancy (biased estimator) between the
    first ``n`` rows of ``joint`` and the rest.

    The kernel is a sum of Gaussians over ``bandwidths`` (defaults:
    {0.5,1,2,4} x median pairwise distance of the joint batch, frozen per
    call). One squared-distance matrix D of the rows Z of ``joint`` serves
    the median and every kernel, whose blocks sum to mean(K_ss) + mean(K_tt)
    - 2 mean(K_st).

    With C the block weights (1/n^2, 1/m^2, -1/nm) times sum over
    bandwidths of -exp(-D / 2bw^2) / 2bw^2, zero where D is 0, the gradient
    with respect to Z is 4 (diag(C 1) Z - C Z); the returned map scales it
    by 4s in one multiply. Without ``needs_grad`` no gradient buffers are
    built and the map is None.
    """
    m = joint.shape[0] - n
    if n == 0 or m == 0:
        raise ValueError(f"need >= 1 row per side, got {n} and {m}")
    d2, kern = _joint_sq_dists(joint)
    if bandwidths is None:
        med = _median_distance(d2, kern)
        bandwidths = [s * med for s in DEFAULT_BANDWIDTH_SCALES]
    bandwidths = [float(bw) for bw in bandwidths]
    if not bandwidths or any(bw <= 0.0 or not math.isfinite(bw) for bw in bandwidths):
        raise ValueError(f"bandwidths must be positive and finite, got {bandwidths}")

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
    value = float(k_ss / (n * n) + k_tt / (m * m) - 2.0 * k_st / (n * m))
    if not needs_grad:
        return value, None
    c[:n, :n] *= 1.0 / (n * n)
    c[n:, n:] *= 1.0 / (m * m)
    c[:n, n:] *= -1.0 / (n * m)
    c[n:, :n] *= -1.0 / (n * m)
    c[d2 <= 0.0] = 0.0

    def grad(scale):
        out = c.sum(axis=1)[:, None] * joint
        out -= c @ joint
        out *= 4.0 * scale
        return out

    return value, grad


def coral_distance(joint: np.ndarray, n: int) -> Tuple[float, GradMap]:
    """||C_s - C_t||_F^2 / 4d^2 between the first ``n`` rows of ``joint``
    and the rest, over the sample covariances C = X^T X / (n - 1) of the
    centered rows X, with the gradients X_s (C_s - C_t) / (d^2 (n_s - 1))
    and -X_t (C_s - C_t) / (d^2 (n_t - 1)); centering adds nothing, since
    the columns of X sum to zero."""
    m = joint.shape[0] - n
    if n < 2 or m < 2:
        raise ValueError(f"need >= 2 rows per side for covariances, got {n} and {m}")
    d = joint.shape[1]
    x_s = joint[:n] - joint[:n].mean(axis=0)
    x_t = joint[n:] - joint[n:].mean(axis=0)
    c_s = 1.0 / (n - 1)
    c_t = 1.0 / (m - 1)
    diff = (x_s.T @ x_s) * c_s - (x_t.T @ x_t) * c_t
    value = (diff * diff).sum() * (1.0 / (4.0 * d * d))
    grad = np.concatenate([(x_s @ diff) * (c_s / (d * d)), (x_t @ diff) * (-c_t / (d * d))])
    return float(value), lambda scale: scale * grad


# the feature distances a BatchBundle may name, each over (joint rows, source count)
_DISTANCES = {"mmd": mmd_distance, "coral": coral_distance}
