"""Training objectives.

Four target-side terms (marginal matching, consistency under
semantic-preserving views, interpolation consistency, pretext-task
supervision), two feature-distribution distances for the alignment
baselines, and their weighted combination with source cross-entropy.

Every term is a function over plain arrays that returns its value
together with its closed-form gradient. The classifier terms take
row-wise log-probabilities and give the gradient with respect to the
logits; the two distances take the stacked source and target latent rows
and the source row count, and give the gradient with respect to those
rows. A term forms what it can derive from the blocks and labels it is
given: the consistency term pairs the source rows by their labels, and
the interpolation term mixes its own targets from the target
predictions. A term changes none of its inputs and holds no state: the
marginal-matching term reads the moving-average estimate ``q`` of the
target label marginal as an array, and the objective returns the next
estimate. ``total_objective`` returns a plain record of the terms'
weighted sum and that estimate, and ``backward`` maps it to every
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
from .nets import ModelParams, forward, trunk_grads

# per-pair clamp on the disagreement divergence; unbounded KL invites
# divergence-chasing on easy pairs
KL_MARGIN = 5.0
# multiples of the median pairwise distance used when no bandwidths are given
DEFAULT_BANDWIDTH_SCALES = (0.5, 1.0, 2.0, 4.0)
MARGINAL_FLOOR = 1e-6

Grads = Tuple[Optional[np.ndarray], ...]


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
# configuration and the marginal's floor
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


def _floor_marginal(q: np.ndarray) -> np.ndarray:
    """The marginal ``q`` with every entry raised to ``MARGINAL_FLOOR``,
    renormalized to sum to 1."""
    q = np.maximum(np.asarray(q, dtype=np.float64), MARGINAL_FLOOR)
    return q / q.sum()


# ---------------------------------------------------------------------------
# the four target-side terms
# ---------------------------------------------------------------------------

def mim_loss(logp: np.ndarray, q: np.ndarray, ceiling: float
             ) -> Tuple[float, np.ndarray]:
    """Confidence E_x H(p(.|x)), plus the diversity E_x sum_y p(y|x) log q(y)
    while the entropy of the marginal estimate ``q`` is below ``ceiling``.
    It reads ``q`` and changes nothing; ``total_objective`` forms the next
    estimate.

    Per row the confidence gradient is -p (log p + H) / n. With q held
    fixed, the diversity gradient p (log q - p . log q) / n is the
    moving-average estimator of the marginal-entropy derivative.
    """
    q = np.asarray(q, dtype=np.float64)
    k = logp.shape[1]
    if q.shape != (k,) or not np.all(q > 0.0):
        raise ValueError(f"q must be a vector of {k} positive entries, one per class, "
                         f"got {q.tolist()}")
    n = logp.shape[0]
    p = np.exp(logp)
    h = -(p * logp).sum(axis=1)
    value = h.mean()
    grad = -p * (logp + h[:, None])
    if _entropy(q) < ceiling:
        log_q = np.log(q)
        dot = p @ log_q
        value = dot.mean() + value
        grad += p * (log_q - dot[:, None])
    grad /= n
    return float(value), grad


def _kl_rows(logp_a: np.ndarray, logp_b: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row KL(p_a || p_b), with its per-row gradients
    p_a (log p_a - log p_b - KL) and p_b - p_a for the two sides' logits."""
    p_a = np.exp(logp_a)
    gap = logp_a - logp_b
    kl = (p_a * gap).sum(axis=1)
    return kl, p_a * (gap - kl[:, None]), np.exp(logp_b) - p_a


def cpbm_loss(orig: np.ndarray, aug: np.ndarray, src: np.ndarray, src_y: np.ndarray,
              lambda_con: float) -> Tuple[float, Grads]:
    """Mean KL agreement of the two views, minus lambda_con times the mean
    of min(KL, KL_MARGIN) over the source pairs whose labels differ, from
    the three blocks' log-probabilities and the source labels ``src_y``.

    Source row i is paired with row i - 1, the first with the last. The
    gradients are to the two views and to the source rows, each of which
    sits on two pairs. The disagreement part is off when no pair's labels
    differ or with lambda_con 0; then the source gradient is None. A pair
    whose KL reaches the margin gets no gradient.
    """
    if orig.shape != aug.shape:
        raise ValueError(f"original and transformed logits differ: {orig.shape} vs {aug.shape}")
    if np.ndim(src_y) != 1:
        raise ValueError(f"src_y must be a vector of labels, got shape {np.shape(src_y)}")
    if len(src_y) != len(src):
        raise ValueError(f"src_y has {len(src_y)} labels for {len(src)} source rows")
    n = orig.shape[0]
    kl, g_orig, g_aug = _kl_rows(orig, aug)
    value = kl.mean()
    g_orig /= n
    g_aug /= n
    mask = src_y != np.roll(src_y, 1)
    if not mask.any() or lambda_con == 0.0:
        return float(value), (g_orig, g_aug, None)
    kl_pair, g_a, g_b = _kl_rows(src, np.roll(src, 1, axis=0))
    m = int(mask.sum())
    value = value - lambda_con * (np.minimum(kl_pair, KL_MARGIN)[mask].sum() / m)
    live = np.where(mask & (kl_pair < KL_MARGIN), -lambda_con / m, 0.0)[:, None]
    # pair i's second side is row i - 1
    return float(value), (g_orig, g_aug, g_a * live + np.roll(g_b * live, -1, axis=0))


def mupbm_loss(logp: np.ndarray, tgt: np.ndarray, partner: np.ndarray, beta: np.ndarray
               ) -> Tuple[float, np.ndarray]:
    """Mean KL(q || p) of the predictions ``logp`` on interpolated inputs,
    whose row r mixes target rows r and ``partner[r]`` with weight
    ``beta[r]`` in [0, 1], from the same mix q of the target rows'
    log-probabilities ``tgt``. The KL is cross-entropy minus the constant
    target entropy, so one-hot target rows stay finite; gradient
    (p - q) / n. The targets are detached predictions and get no
    gradient."""
    n = logp.shape[0]
    if tgt.shape != logp.shape:
        raise ValueError(f"target shape {tgt.shape} does not match logits {logp.shape}")
    if not (partner.shape == beta.shape == (n,)):
        raise ValueError(f"partner {partner.shape} and beta {beta.shape} must hold one "
                         f"entry per row, {n}")
    if not np.all((partner >= 0) & (partner < n)):
        raise ValueError(f"partner entries must lie in [0, {n}), got {partner.tolist()}")
    if not np.all((beta >= 0.0) & (beta <= 1.0)):
        raise ValueError(f"beta entries must lie in [0, 1], got {beta.tolist()}")
    probs = np.exp(tgt)
    beta = beta[:, None]
    q = beta * probs + (1.0 - beta) * probs[partner]
    ce = -(q * logp).sum(axis=1).mean()
    value = ce - float(np.mean(_row_entropies(q)))
    return float(value), (np.exp(logp) - q) / n


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
    """One step's inputs: the source labeled batch, and the target batch and
    pre-applied transform outputs that ``TERM_READS`` names for its terms.

    ``mixed_x`` row r mixes target rows r and ``mixed_partner[r]`` with
    weight ``mixed_beta[r]``. ``distance`` names a feature distance
    between the source and target latents, "mmd" or "coral", that enters
    the objective with weight ``distance_weight``.
    """

    src_x: np.ndarray
    src_y: np.ndarray
    tgt_x: Optional[np.ndarray] = None
    tgt_x_aug: Optional[np.ndarray] = None
    mixed_x: Optional[np.ndarray] = None
    mixed_partner: Optional[np.ndarray] = None
    mixed_beta: Optional[np.ndarray] = None
    st_batches: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None
    distance: Optional[str] = None
    distance_weight: float = 1.0


# the BatchBundle fields read by each term, keyed by its weight, and by a distance
TERM_READS: Dict[str, Tuple[str, ...]] = {
    "supervised_weight": ("src_x",),
    "lambda_M": ("tgt_x",),
    "lambda_C": ("src_x", "tgt_x", "tgt_x_aug"),
    "lambda_U": ("tgt_x", "mixed_x", "mixed_partner", "mixed_beta"),
    "lambda_S": ("st_batches",),
    "distance": ("src_x", "tgt_x"),
}


def bundle_reads(cfg: LossConfig, distance: Optional[str]) -> Dict[str, str]:
    """Each field ``TERM_READS`` names for the terms weighted above 0 in
    ``cfg`` and for the feature ``distance``, if any, mapped to its first reader."""
    reads: Dict[str, str] = {}
    for key, fields in TERM_READS.items():
        if (distance is not None) if key == "distance" else getattr(cfg, key) > 0.0:
            for field in fields:
                reads.setdefault(field, key)
    return reads


def _check_bundle(b: BatchBundle, cfg: LossConfig) -> Dict[str, str]:
    """``b``'s ``bundle_reads``, once ``b`` holds each of them."""
    if cfg.entropy_ceiling is None:
        raise ValueError("entropy_ceiling is unresolved; build it with LossConfig.for_classes")
    if b.distance is not None and b.distance not in _DISTANCES:
        raise ValueError(
            f"distance must be one of {sorted(_DISTANCES)} or None, got {b.distance!r}")
    reads = bundle_reads(cfg, b.distance)
    for field, reader in reads.items():
        if getattr(b, field) is None or len(getattr(b, field)) == 0:
            raise ValueError(f"{reader} reads {field}, which the bundle does not hold")
    if len(b.src_y) != len(b.src_x):
        raise ValueError(f"src_y has {len(b.src_y)} labels for {len(b.src_x)} source rows")
    return reads


@dataclass
class Objective:
    """One step's objective: the weighted ``total``, the ``report`` of each
    computed term's unweighted value (plus ``dm_weight`` and ``total``),
    the next label-marginal estimate ``marginal``, and what
    :func:`backward` takes back to the parameters: the trunk's ``acts``,
    the last being the latent z, each head in use as (head name, rows of
    z, W, b) with the weighted gradient of its logit block, and the
    feature distance as (rows of z, its weighted gradient)."""

    total: float
    report: Dict[str, float]
    marginal: np.ndarray
    params: ModelParams
    acts: List[np.ndarray]
    heads: List[Tuple[str, slice, np.ndarray, np.ndarray]]
    dlogits: List[np.ndarray]
    distance: Optional[Tuple[slice, np.ndarray]]


def total_objective(batch_bundle: BatchBundle, params: ModelParams,
                    cfg: LossConfig, q: np.ndarray) -> Objective:
    """Weighted sum of the active terms; zero-weight terms are never built.

    Every view that ``bundle_reads`` names is stacked into one batch, in a
    fixed order, and run through the shared extractor once. The label head
    is applied to the label views' rows and each pretext head to its
    task's rows, and the terms' weighted closed-form logit gradients are
    added up row block by row block; a feature distance keeps its weighted
    gradient over the latent rows of the source and target views.

    ``q`` is the moving-average estimate of the target label marginal that
    the MIM term reads. While that term is weighted, the record's
    ``marginal`` is the next estimate, (1 - m) q + m times the target
    rows' mean prediction for ``cfg.marginal_momentum`` m, floored and
    renormalized; otherwise it is ``q``. No input is changed.
    """
    b = batch_bundle
    reads = _check_bundle(b, cfg)
    q = np.asarray(q, dtype=np.float64)
    dist = b.distance
    # label views in a fixed order, then the tasks; a distance's two views lead
    label_views = [name for name in ("src_x", "tgt_x", "tgt_x_aug", "mixed_x") if name in reads]
    task_views = sorted(b.st_batches.items()) if "st_batches" in reads else []
    stacked = [getattr(b, name) for name in label_views] + [x for _, (x, _) in task_views]
    if not stacked:
        raise ValueError("all objective weights are zero; nothing to optimize")
    z, acts = forward(params, np.concatenate(stacked))

    # one GEMM per head: the label head over every label view, then each task's
    bounds = [0, *accumulate(x.shape[0] for x in stacked)]
    n_label = len(label_views)
    heads = [("label", slice(0, bounds[n_label]))] if label_views else []
    heads += [(task, slice(bounds[i], bounds[i + 1]))
              for i, (task, _) in enumerate(task_views, start=n_label)]
    heads = [(head, rows, *params.head_tensors(head)) for head, rows in heads]
    logp = [_log_softmax(z[rows] @ w + bias) for _, rows, w, bias in heads]
    dlogits = [np.zeros_like(block) for block in logp]
    view = {name: slice(bounds[i], bounds[i + 1]) for i, name in enumerate(label_views)}
    label = logp[0] if label_views else None
    dlabel = dlogits[0] if label_views else None

    terms: List[Tuple[str, float, float]] = []
    marginal = q
    if cfg.supervised_weight > 0.0:
        value, grad = cross_entropy(label[view["src_x"]], b.src_y)
        dlabel[view["src_x"]] += cfg.supervised_weight * grad
        terms.append(("supervised", cfg.supervised_weight, value))
    if cfg.lambda_M > 0.0:
        tgt = label[view["tgt_x"]]
        value, grad = mim_loss(tgt, q, cfg.entropy_ceiling)
        dlabel[view["tgt_x"]] += cfg.lambda_M * grad
        terms.append(("mim", cfg.lambda_M, value))
        m = cfg.marginal_momentum
        marginal = _floor_marginal((1.0 - m) * q + m * np.exp(tgt).mean(axis=0))
    if cfg.lambda_C > 0.0:
        value, (g_tgt, g_aug, g_src) = cpbm_loss(
            label[view["tgt_x"]], label[view["tgt_x_aug"]], label[view["src_x"]], b.src_y,
            cfg.lambda_con)
        dlabel[view["tgt_x"]] += cfg.lambda_C * g_tgt
        dlabel[view["tgt_x_aug"]] += cfg.lambda_C * g_aug
        if g_src is not None:
            dlabel[view["src_x"]] += cfg.lambda_C * g_src
        terms.append(("cpbm", cfg.lambda_C, value))
    if cfg.lambda_U > 0.0:
        value, grad = mupbm_loss(label[view["mixed_x"]], label[view["tgt_x"]], b.mixed_partner,
                                 b.mixed_beta)
        dlabel[view["mixed_x"]] += cfg.lambda_U * grad
        terms.append(("mupbm", cfg.lambda_U, value))
    if cfg.lambda_S > 0.0:
        first = len(heads) - len(task_views)
        value, grads = tpbm_loss(logp[first:], [labels for _, (_, labels) in task_views])
        for dtask, grad in zip(dlogits[first:], grads):
            dtask += cfg.lambda_S * grad
        terms.append(("tpbm", cfg.lambda_S, value))
    if dist is not None:
        joint = slice(0, view["tgt_x"].stop)
        value, grad = _DISTANCES[dist](z[joint], view["src_x"].stop)
        dist_grad = b.distance_weight * grad
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

    return Objective(total=total, report=report, marginal=marginal, params=params, acts=acts,
                     heads=heads, dlogits=dlogits,
                     distance=(joint, dist_grad) if dist else None)


def backward(obj: Objective) -> List[Optional[np.ndarray]]:
    """Every parameter's gradient of ``obj.total``, in
    ``ModelParams.all_tensors`` order, with None for a head not in use.

    The objective's rule maps each head's logit gradient to the head's
    dW = z^T g and db = sum of g's rows and into the latent rows as g W^T,
    and adds the distance's weighted gradient to its rows; the trunk rule,
    ``nets.trunk_grads``, takes the latent's gradient to every layer.
    """
    z = obj.acts[-1]
    dz = np.zeros_like(z)
    head_grads: Dict[str, List[np.ndarray]] = {}
    for (head, rows, w, _), dblock in zip(obj.heads, obj.dlogits):
        dz[rows] = dblock @ w.T
        head_grads[head] = [z[rows].T @ dblock, dblock.sum(axis=0)]
    if obj.distance is not None:
        joint, dist_grad = obj.distance
        dz[joint] += dist_grad
    grads: List[Optional[np.ndarray]] = [
        g for pair in trunk_grads(obj.params, obj.acts, dz) for g in pair]
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
                 ) -> Tuple[float, np.ndarray]:
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
    the value.
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
    grad *= 4.0
    return value, grad


def coral_distance(joint: np.ndarray, n: int) -> Tuple[float, np.ndarray]:
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
    return float(value), grad


# the feature distances a BatchBundle may name, each over (joint rows, source count)
_DISTANCES = {"mmd": mmd_distance, "coral": coral_distance}
