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
gradient with respect to those rows. ``total_objective`` returns a plain
record of their weighted sum, and ``backward`` maps it to every
parameter's gradient: through the heads into the latent, then the trunk.

One ``mmd_distance`` serves a step's batch and a whole data set, such as
the label-shift probe's reading after each weight. It reads the distance
matrix through one tile walk, ``_tile_walk``, the only place the matrix
is formed: it forms the squared norms once and yields the matrix in row
tiles, pass after pass. A matrix of up to 362 rows is one tile, formed
once for every pass; a larger one is formed afresh on each pass and
never held whole. The median is selected by radix on the distances'
float64 bits, in a few passes over the walk, and the kernel formed in
one more, so the memory a call holds grows with the rows, not with the
N(N-1)/2 pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Annotated, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .datasets import Positive, Range, Weight, check_fields
from .nets import Cache, ModelParams, forward, trunk_grads

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

    ``entropy_ceiling`` is an absolute value in nats, or None for the default
    0.85 * ln K that :meth:`for_classes` fills in. The ceiling gates the
    marginal-diversity term: below it the term pushes predictions apart
    (anti-collapse brake), above it legitimately skewed marginals are left
    alone.
    """

    entropy_ceiling: Optional[Positive] = None
    lambda_M: Weight = 0.25
    lambda_C: Weight = 1.0
    lambda_U: Weight = 0.5
    lambda_S: Weight = 0.5
    lambda_con: Weight = 0.1
    marginal_momentum: Annotated[float, Range(0, 1, low_open=True, high_open=True)] = 0.1
    mixup_alpha: Positive = 0.2
    supervised_weight: Weight = 1.0

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def for_classes(cls, n_classes: int, **overrides) -> "LossConfig":
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if overrides.get("entropy_ceiling") is None:
            overrides["entropy_ceiling"] = 0.85 * math.log(n_classes)
        cfg = cls(**overrides)
        if cfg.entropy_ceiling > math.log(n_classes) + 1e-12:
            raise ValueError(
                f"entropy_ceiling {cfg.entropy_ceiling} exceeds ln {n_classes} "
                f"= {math.log(n_classes):.6f}")
        return cfg


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
    while the tracker's marginal entropy is below ``ceiling``; then the
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
    if cfg.entropy_ceiling is None:
        raise ValueError("entropy_ceiling is unresolved; build it with LossConfig.for_classes")
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


@dataclass
class Objective:
    """One step's objective: the weighted ``total``, the ``report`` of each
    computed term's unweighted value (plus ``dm_weight`` and ``total``),
    and what :func:`backward` takes back to the parameters: the latent
    ``z`` with its trunk ``cache``, each head in use as (head name, rows
    of ``z``, W, b) with the weighted gradient of its logit block, and the
    feature distance as (rows of ``z``, gradient map, weight)."""

    total: float
    report: Dict[str, float]
    params: ModelParams
    z: np.ndarray
    cache: Cache
    heads: List[Tuple[str, slice, np.ndarray, np.ndarray]]
    dlogits: List[np.ndarray]
    distance: Optional[Tuple[slice, GradMap, float]]


def total_objective(batch_bundle: BatchBundle, params: ModelParams,
                    cfg: LossConfig, tracker: MarginalTracker) -> Objective:
    """Weighted sum of the active terms; zero-weight terms are never built.

    Every view the active terms score is stacked into one batch and run
    through the shared extractor once. The label head is applied to the
    label views' rows and each pretext head to its task's rows, and the
    terms' weighted closed-form logit gradients are added up row block by
    row block; a feature distance keeps its gradient map over the latent
    rows of the source and target views.
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
    z, cache = forward(params, np.concatenate(stacked))

    # one GEMM per head: the label head over every label view, then each task's
    bounds = [0, *accumulate(x.shape[0] for x in stacked)]
    n_label = len(label_views)
    heads = [("label", slice(0, bounds[n_label]))] if label_views else []
    heads += [(task, slice(bounds[i], bounds[i + 1]))
              for i, (task, _) in enumerate(task_views, start=n_label)]
    heads = [(head, rows, *params.head_tensors(head)) for head, rows in heads]
    logp = [_log_softmax(z[rows] @ w + bias) for _, rows, w, bias in heads]
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
        value, dist_grad = _DISTANCES[dist](z[joint], view["src"].stop)
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

    return Objective(total=total, report=report, params=params, z=z, cache=cache,
                     heads=heads, dlogits=dlogits,
                     distance=(joint, dist_grad, b.distance_weight) if dist else None)


def backward(obj: Objective) -> List[Optional[np.ndarray]]:
    """Every parameter's gradient of ``obj.total``, in
    ``ModelParams.all_tensors`` order, with None for a head not in use.

    The objective's rule maps each head's logit gradient to the head's
    dW = z^T g and db = sum of g's rows and into the latent rows as g W^T,
    and adds the distance's weighted gradient to its rows; the trunk rule,
    ``nets.trunk_grads``, takes the latent's gradient to every layer.
    """
    dz = np.zeros_like(obj.z)
    head_grads: Dict[str, List[np.ndarray]] = {}
    for (head, rows, w, _), dblock in zip(obj.heads, obj.dlogits):
        dz[rows] = dblock @ w.T
        head_grads[head] = [obj.z[rows].T @ dblock, dblock.sum(axis=0)]
    if obj.distance is not None:
        joint, dist_grad, weight = obj.distance
        dz[joint] += dist_grad(weight)
    grads: List[Optional[np.ndarray]] = [
        g for pair in trunk_grads(obj.cache, dz) for g in pair]
    for head in ("label", *obj.params.tasks):
        grads += head_grads.get(head, [None, None])
    return grads


# ---------------------------------------------------------------------------
# feature-distribution distances (alignment baselines)
# ---------------------------------------------------------------------------

# rows per tile of the squared-distance matrix: 64 rows of 2048 distances
# are 1 MiB, and a matrix of at most that many entries is a single tile
_TILE_ROWS = 64
_TILE_ENTRIES = _TILE_ROWS * 2048
# the strict upper triangle of the largest tile's diagonal block, 362 x 362
_UPPER = np.triu(np.ones((math.isqrt(_TILE_ENTRIES),) * 2, dtype=bool), 1)
_UPPER.flags.writeable = False


def _tiles(total: int, n: int) -> List[Tuple[int, int]]:
    """Row ranges [a, b) of the distance matrix of ``total`` rows, of which
    the first ``n`` are source rows: the whole matrix when it fits one
    tile, else ``_TILE_ROWS``-row tiles of the source rows, then of the
    target rows. The plan depends only on the row counts."""
    if total * total <= _TILE_ENTRIES:
        return [(0, total)]
    return [(lo, min(lo + _TILE_ROWS, b)) for a, b in ((0, n), (n, total))
            for lo in range(a, b, _TILE_ROWS)]


def _sq_dist_rows(joint: np.ndarray, sq: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows [a, b) of the squared distances between the rows of ``joint``,
    whose squared norms are ``sq``: sq_i + sq_j - 2 z_i . z_j, with the tiny
    negatives float cancellation can leave clamped and each row's own
    entry 0. The whole matrix is exactly symmetric: its Gram product is."""
    d2 = joint[a:b] @ joint.T
    d2 *= 2.0
    np.subtract(np.add(sq[a:b, None], sq[None, :]), d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2[:, a:b], 0.0)
    return d2


# one pass over the distance matrix: its row tiles (a, b, rows [a, b)) in plan order
Walk = Callable[[], Iterator[Tuple[int, int, np.ndarray]]]


def _tile_walk(joint: np.ndarray, n: int) -> Walk:
    """The passes over the distance matrix of ``joint``'s rows, split after
    the first ``n``, in the row tiles of ``_tiles``; the only route to the
    matrix. The squared norms are formed once. A one-tile matrix is formed
    once and read by every pass; a larger one is formed afresh on each
    pass, tile by tile, and never held whole. A pass reads its tiles and
    leaves them unchanged."""
    sq = np.sum(joint ** 2, axis=1)
    tiles = _tiles(joint.shape[0], n)
    whole = _sq_dist_rows(joint, sq, *tiles[0]) if len(tiles) == 1 else None

    def walk() -> Iterator[Tuple[int, int, np.ndarray]]:
        for a, b in tiles:
            yield a, b, _sq_dist_rows(joint, sq, a, b) if whole is None else whole
    return walk


def _pair_bits(walk: Walk) -> Iterator[np.ndarray]:
    """The float64 bits, as uint64, of every pair's squared distance, in
    one pass. Each pair is read once, from the strict upper triangle of the
    tile holding its first row: the diagonal block's upper triangle through
    one mask, then the tile's columns right of it."""
    for a, b, d2 in walk():
        bits = d2.view(np.uint64)
        yield bits[:, a:b][_UPPER[:b - a, :b - a]]
        yield bits[:, b:]
        # free this tile before the next one is formed
        del d2, bits


# radix selection reads the float64 bits 16 at a time, most significant first
_DIGIT = 16
_BINS = 1 << _DIGIT
# past the top digit of +inf's bits (0x7FF0) every value is a quiet NaN, the
# only NaN arithmetic yields; a squared distance is never negative
_NAN_TOP = 0x7FF1


def _walk_median(walk: Walk, total: int) -> float:
    """Median distance over the P = N(N-1)/2 distinct pairs of the N =
    ``total`` rows the passes of ``walk`` read; 1.0 if degenerate.

    The two middle order statistics of the pair squared distances sit at
    ranks (P-1)//2 and P//2; they are selected by radix without holding
    the P values. A squared distance is >= +0.0, so its float64 bits sort
    as uint64 in the order of the values, with NaN last, as in
    ``partition``. Each middle rank keeps a prefix, its top 16 x depth
    bits, and its rank among the pairs that share it. While more than a
    tile of pairs share the live prefixes, one pass counts the next digit
    of those pairs in a 65,536-bin histogram, and each rank moves into the
    bin that holds it. Then one more pass keeps only those pairs, at most a
    tile, and partitions them; a one-tile matrix's pairs all fit, so it
    takes that pass alone. After four digits a prefix is the value itself,
    so any number of ties costs no memory. For an even P the second is NaN
    if any pair is, as ``min`` over the ranks above the first gives.
    Taking square roots after selecting gives the same bits as taking them
    first, since the square root is monotone.
    """
    pairs = total * (total - 1) // 2
    prefixes, ranks = [0, 0], [(pairs - 1) // 2, pairs // 2]
    sizes = {0: pairs}  # live prefix -> how many pairs share it
    nan = False
    depth = 0
    while depth < 64 // _DIGIT and sum(sizes.values()) > _TILE_ENTRIES:
        shift = 64 - _DIGIT * depth
        hists = {p: np.zeros(_BINS, dtype=np.int64) for p in sizes}
        for bits in _pair_bits(walk):
            for p, hist in hists.items():
                digits = (bits[(bits >> shift) == p] if depth else bits) >> (shift - _DIGIT)
                digits &= _BINS - 1
                # the digits fit int64, whose view bincount reads without a copy
                hist += np.bincount(digits.view(np.int64).reshape(-1), minlength=_BINS)
            # hold none of this tile while the next one is formed
            del bits, digits
        if depth == 0:
            nan = bool(hists[0][_NAN_TOP:].any())
        sizes = {}
        for i, p in enumerate(prefixes):
            below = np.cumsum(hists[p])
            digit = int(np.searchsorted(below, ranks[i], side="right"))
            ranks[i] -= int(below[digit] - hists[p][digit])
            prefixes[i] = p << _DIGIT | digit
            sizes[prefixes[i]] = int(hists[p][digit])
        depth += 1
    if depth == 64 // _DIGIT:
        low, high = np.array(prefixes, dtype=np.uint64).view(np.float64)
    else:
        shift = 64 - _DIGIT * depth
        kept = []
        for bits in _pair_bits(walk):
            for p in sizes:
                part = bits[(bits >> shift) == p] if depth else bits.reshape(-1)
                if part.size:
                    kept.append(part)
            del bits  # as in the count pass
        # a one-tile matrix's pairs are one masked copy of it, partitioned in place
        flat = (kept[0] if len(kept) == 1 else np.concatenate(kept)).view(np.float64)
        # the lower prefix's pairs sort first, and the first rank is among them
        lo = ranks[0]
        flat.partition(lo)
        low, high = flat[lo], flat[lo] if pairs % 2 else flat[lo + 1:].min()
    high = math.nan if nan and pairs % 2 == 0 else high
    med = (math.sqrt(low) + math.sqrt(high)) / 2.0
    return med if med > 0.0 else 1.0


def _median_distance(joint: np.ndarray, n: int) -> float:
    """Median distance over the distinct pairs of ``joint``'s rows, split
    after the first ``n``; 1.0 if degenerate."""
    return _walk_median(_tile_walk(joint, n), joint.shape[0])


def _check_sides(joint: np.ndarray, n: int) -> int:
    """The target row count of ``joint`` split after its first ``n`` rows."""
    m = joint.shape[0] - n
    if n < 1 or m < 1:
        raise ValueError(f"need >= 1 row per side, got {n} and {m}")
    return m


def _checked_bandwidths(bandwidths: Sequence[float]) -> List[float]:
    bandwidths = [float(bw) for bw in bandwidths]
    if not bandwidths or any(bw <= 0.0 or not math.isfinite(bw) for bw in bandwidths):
        raise ValueError(f"bandwidths must be positive and finite, got {bandwidths}")
    return bandwidths


def mmd_distance(joint: np.ndarray, n: int, bandwidths: Optional[Sequence[float]] = None
                 ) -> Tuple[float, GradMap]:
    """Squared maximum mean discrepancy (biased estimator) between the
    first ``n`` rows of ``joint`` and the rest.

    The kernel is a sum of Gaussians over ``bandwidths`` (defaults:
    {0.5,1,2,4} x median pairwise distance of the joint rows, frozen per
    call). The squared-distance matrix D of the rows Z of ``joint`` is read
    through one ``_tile_walk``: the median's passes and one kernel pass. A
    one-tile matrix (up to 362 rows) is formed once for all of them; a
    larger one is formed tile by tile on each pass and never held whole.
    Each tile's kernel rows add to the block sums of mean(K_ss) +
    mean(K_tt) - 2 mean(K_st), its source rows to K_ss and K_st, its
    target rows to K_tt.

    With C the block weights (1/n^2, 1/m^2, -1/nm) times sum over
    bandwidths of -exp(-D / 2bw^2) / 2bw^2, zero where D is 0, the gradient
    with respect to Z is 4 (diag(C 1) Z - C Z), formed tile by tile with
    the value; the returned map scales it by 4s in one multiply.
    """
    m = _check_sides(joint, n)
    walk = _tile_walk(joint, n)
    if bandwidths is None:
        med = _walk_median(walk, n + m)
        bandwidths = [s * med for s in DEFAULT_BANDWIDTH_SCALES]
    coefs = [-1.0 / (2.0 * bw * bw) for bw in _checked_bandwidths(bandwidths)]

    kern = np.empty((max(b - a for a, b in _tiles(n + m, n)), n + m))
    grad = np.empty_like(joint)
    k_ss = k_tt = k_st = 0.0
    for a, b, d2 in walk():
        k = kern[:b - a]
        # local rows [0, s) are source rows and [t, b - a) target rows
        s, t = min(b, n) - a, max(a, n) - a
        c = np.zeros_like(d2)
        for coef in coefs:
            np.multiply(d2, coef, out=k)
            np.exp(k, out=k)
            k_ss += k[:s, :n].sum()
            k_st += k[:s, n:].sum()
            k_tt += k[t:, n:].sum()
            k *= coef
            c += k
        c[:s, :n] *= 1.0 / (n * n)
        c[t:, n:] *= 1.0 / (m * m)
        c[:s, n:] *= -1.0 / (n * m)
        c[t:, :n] *= -1.0 / (n * m)
        c[d2 <= 0.0] = 0.0
        np.multiply(c.sum(axis=1)[:, None], joint[a:b], out=grad[a:b])
        grad[a:b] -= c @ joint
    value = float(k_ss / (n * n) + k_tt / (m * m) - 2.0 * k_st / (n * m))
    return value, lambda scale: grad * (4.0 * scale)


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
