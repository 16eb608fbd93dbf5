"""Reference formulations the library's batched code replaced.

Per-op tape oracles: the ops the library's one-node trunk and closed-form
terms replaced, and the objective terms and trunk formulated over them.
The library computes the trunk node and every objective term in closed
form; these formulations record one node per elementary op instead, so a
test can compare a closed-form value and gradient against an independent
chain of simple rules.

The glyph oracle renders a domain one sample at a time, each from its own
``rng(seed, idx)``, as the library did before it built the images with
array ops.
"""

import numpy as np

from pbmatch.datasets import (
    CANVAS, INK_LEVEL, DomainDataset, GlyphDomainSpec, _quantize, _render_glyph_mask)
from pbmatch.losses import DEFAULT_BANDWIDTH_SCALES, KL_MARGIN, MarginalTracker, _log_softmax
from pbmatch.tensor import Tensor, node, tracked
from pbmatch.transforms import ImageBatch, rng


# ---------------------------------------------------------------------------
# elementary ops with numpy trailing-dimension broadcasting
# ---------------------------------------------------------------------------

def _check_broadcast(a_shape: tuple, b_shape: tuple) -> None:
    # trailing-dimension broadcasting only, numpy semantics
    for da, db in zip(reversed(a_shape), reversed(b_shape)):
        if da != db and da != 1 and db != 1:
            raise ValueError(f"shapes not broadcast-compatible: {a_shape} vs {b_shape}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out broadcast dimensions so grad matches an input's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return node(a.data + b.data, (a, b), rule)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def rule(g):
        return (g * mask,)

    return node(np.maximum(a.data, 0.0), (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul needs rank-2 inputs, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")

    # an untracked operand, such as a constant input batch, gets no gradient
    def rule(g):
        return (g @ b.data.T if tracked(a) else None,
                a.data.T @ g if tracked(b) else None)

    return node(a.data @ b.data, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    return node(a.data - b.data, (a, b),
                lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    return node(a.data * b.data, (a, b),
                lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return node(out, (a,), lambda g: (g * out,))


def neg(a: Tensor) -> Tensor:
    return node(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return node(a.data * c, (a,), lambda g: (g * c,))


def transpose(a: Tensor) -> Tensor:
    return node(a.data.T.copy(), (a,), lambda g: (g.T.copy(),))


def reduce(op_kind: str, a: Tensor, axis=None) -> Tensor:
    n = 1 if op_kind == "sum" else (a.data.size if axis is None else a.shape[axis])

    def rule(g):
        expanded = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape).copy() / n,)

    out = a.data.sum(axis=axis) if op_kind == "sum" else a.data.mean(axis=axis)
    return node(out, (a,), rule)


def log_softmax(logits: Tensor) -> Tensor:
    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    softmax = np.exp(out)
    return node(out, (logits,), lambda g: (g - softmax * g.sum(axis=1, keepdims=True),))


def dot(t: Tensor, w) -> Tensor:
    """sum(t * w) as one node: a scalar readout to backpropagate."""
    w = np.asarray(w, dtype=np.float64)
    return node(float(np.sum(t.data * w)), (t,), lambda g: (g * w,))


# ---------------------------------------------------------------------------
# the objective terms
# ---------------------------------------------------------------------------

def closed_form_node(logits: Tensor, term, *args) -> Tensor:
    """A classifier term of ``pbmatch.losses`` as one node over ``logits``:
    its value on their log-probabilities, with its closed-form gradient to
    them. How a test trains or gradient-checks one term on its own."""
    value, grad = term(_log_softmax(logits.data), *args)
    return node(value, (logits,), lambda g: (g * grad,))


def _mean_row_dot(a: Tensor, b: Tensor) -> Tensor:
    return reduce("mean", reduce("sum", mul(a, b), axis=1))


def _kl_rows(logp_a: Tensor, logp_b: Tensor) -> Tensor:
    return reduce("sum", mul(exp(logp_a), sub(logp_a, logp_b)), axis=1)


def _row_entropy_mean(q: np.ndarray) -> float:
    terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    return float(np.mean(-terms.sum(axis=1)))


def oracle_ce(logits: Tensor, labels) -> Tensor:
    onehot = np.eye(logits.shape[1])[np.asarray(labels)]
    return neg(_mean_row_dot(Tensor(onehot), log_softmax(logits)))


def oracle_mim(logits: Tensor, tracker: MarginalTracker, ceiling: float) -> Tensor:
    logp = log_softmax(logits)
    loss = neg(_mean_row_dot(exp(logp), logp))
    if tracker.entropy() < ceiling:
        diversity = _mean_row_dot(exp(log_softmax(logits)), Tensor(np.log(tracker.q)))
        loss = add(diversity, loss)
    tracker.update(np.exp(logp.data).mean(axis=0))
    return loss


def oracle_cpbm(orig, aug, pair_a, pair_b, mask, lambda_con) -> Tensor:
    agreement = reduce("mean", _kl_rows(log_softmax(orig), log_softmax(aug)))
    if pair_a is None or mask is None or not np.any(mask) or lambda_con == 0.0:
        return agreement
    kl = _kl_rows(log_softmax(pair_a), log_softmax(pair_b))
    # min(kl, margin) as margin - relu(margin - kl)
    clamped = sub(Tensor(KL_MARGIN), relu(sub(Tensor(KL_MARGIN), kl)))
    masked_sum = reduce("sum", mul(clamped, Tensor(np.asarray(mask, dtype=np.float64))))
    disagreement = scale(masked_sum, 1.0 / int(np.sum(mask)))
    return sub(agreement, scale(disagreement, lambda_con))


def oracle_mupbm(logits: Tensor, q: np.ndarray) -> Tensor:
    ce = neg(_mean_row_dot(Tensor(q), log_softmax(logits)))
    return sub(ce, Tensor(_row_entropy_mean(q)))


def oracle_tpbm(logits_by_task, labels_by_task) -> Tensor:
    total = None
    for task in sorted(logits_by_task):
        ce = oracle_ce(logits_by_task[task], labels_by_task[task])
        total = ce if total is None else add(total, ce)
    return scale(total, 1.0 / len(logits_by_task))


# ---------------------------------------------------------------------------
# the trunk and heads, one node per op
# ---------------------------------------------------------------------------

def oracle_features(params, x: Tensor) -> Tensor:
    h = x
    for w, b in params.phi:
        h = relu(add(matmul(h, w), b))
    return h


def oracle_forward(params, x: Tensor, head="label") -> Tensor:
    z = oracle_features(params, x)
    if head is None:
        return z
    w, b = params.head_tensors(head)
    return add(matmul(z, w), b)


# ---------------------------------------------------------------------------
# feature distances
# ---------------------------------------------------------------------------

def _sq_dists(a: Tensor, b: Tensor) -> Tensor:
    """The per-op tape formulation the one-node MMD replaced."""
    ones_col = Tensor(np.ones((a.shape[1], 1)))
    a2 = matmul(mul(a, a), ones_col)
    b2t = transpose(matmul(mul(b, b), ones_col))
    return relu(sub(add(a2, b2t), scale(matmul(a, transpose(b)), 2.0)))


def _mean_kernel(a: Tensor, b: Tensor, bandwidths) -> Tensor:
    d2 = _sq_dists(a, b)
    acc = None
    for bw in bandwidths:
        term = exp(scale(d2, -1.0 / (2.0 * bw * bw)))
        acc = term if acc is None else add(acc, term)
    return reduce("mean", acc)


def oracle_median(z_src, z_tgt) -> float:
    """np.median over the upper triangle, on the same distance arithmetic."""
    joint = np.vstack([z_src, z_tgt])
    sq = np.sum(joint ** 2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (joint @ joint.T), 0.0)
    med = float(np.median(np.sqrt(d2[np.triu_indices(joint.shape[0], k=1)])))
    return med if med > 0.0 else 1.0


def oracle_mmd(z_src: Tensor, z_tgt: Tensor, bandwidths=None) -> Tensor:
    if bandwidths is None:
        med = oracle_median(z_src.data, z_tgt.data)
        bandwidths = [s * med for s in DEFAULT_BANDWIDTH_SCALES]
    k_ss = _mean_kernel(z_src, z_src, bandwidths)
    k_tt = _mean_kernel(z_tgt, z_tgt, bandwidths)
    k_st = _mean_kernel(z_src, z_tgt, bandwidths)
    return add(add(k_ss, k_tt), scale(k_st, -2.0))


def oracle_coral(z_src: Tensor, z_tgt: Tensor) -> Tensor:
    d = z_src.shape[1]

    def cov(z: Tensor) -> Tensor:
        centered = sub(z, reduce("mean", z, axis=0))
        return scale(matmul(transpose(centered), centered), 1.0 / (z.shape[0] - 1))

    diff = sub(cov(z_src), cov(z_tgt))
    return scale(reduce("sum", mul(diff, diff)), 1.0 / (4.0 * d * d))


# ---------------------------------------------------------------------------
# glyph rendering, one sample at a time
# ---------------------------------------------------------------------------

def _shift_mask(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    src_r = slice(max(0, -dy), CANVAS - max(0, dy))
    dst_r = slice(max(0, dy), CANVAS - max(0, -dy))
    src_c = slice(max(0, -dx), CANVAS - max(0, dx))
    dst_c = slice(max(0, dx), CANVAS - max(0, -dx))
    out[dst_r, dst_c] = mask[src_r, src_c]
    return out


def oracle_glyph_domain(spec: GlyphDomainSpec, domain_role: str) -> DomainDataset:
    k, s = spec.n_classes, spec.sub_styles
    n = k * spec.samples_per_class
    base_masks = {(c, st): _render_glyph_mask(c, st, spec.stroke_thickness)
                  for c in range(k) for st in range(s)}
    images = np.empty((n, CANVAS, CANVAS))
    labels = np.empty(n, dtype=np.int64)
    sublabels = np.empty(n, dtype=np.int64)
    jit = int(round(spec.jitter))
    idx = 0
    for c in range(k):
        for i in range(spec.samples_per_class):
            style = i % s
            gen = rng(spec.seed, idx)
            mask = base_masks[(c, style)]
            if jit > 0:
                dy, dx = gen.integers(-jit, jit + 1, 2)
                mask = _shift_mask(mask, int(dy), int(dx))
            img = np.where(mask, INK_LEVEL, spec.background)
            if spec.invert:
                img = 1.0 - img
            if spec.noise > 0.0:
                img = img + gen.normal(0.0, spec.noise, img.shape)
            images[idx] = np.clip(img, 0.0, 1.0)
            labels[idx] = c
            sublabels[idx] = c * s + style
            idx += 1
    return DomainDataset(
        images=ImageBatch(_quantize(images)), labels=labels,
        class_count=k, domain_role=domain_role, sublabels=sublabels,
        metadata={"generator": "glyph", "spec": spec.to_dict(),
                  "domain_role": domain_role})
