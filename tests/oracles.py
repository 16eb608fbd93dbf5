"""Reference formulations the library's batched code replaced.

Per-op tape oracles: a minimal reverse-mode tape, the elementary ops the
library's closed-form trunk rule and terms replaced, and the objective
terms and trunk formulated over them. The library computes every
gradient in closed form and keeps no tape; these formulations record one
node per elementary op instead, so a test can compare a closed-form
value and gradient against an independent chain of simple rules.
``head_objective`` is how a test trains one head through the library.

``oracle_stacked_views`` is the objective's stacking rule as it was
written before one table said which view each term reads: a weight test
per view.

``whole_matrix_mmd`` is the MMD on one whole N x N distance matrix, the
arithmetic the library's row-tiled ``mmd_distance`` must reproduce bit
for bit whenever the matrix is one tile.

The glyph oracle renders a domain one sample at a time, each from its own
``rng(seed, idx)``, as the library did before it built the images with
array ops.

``per_array_step`` is the optimizer update one parameter array at a time,
as the library made it before it updated runs of the model's flat buffer.

``traced_peak`` measures the memory a call allocates, for the tests that
bound it.
"""

import dataclasses
import math
import tracemalloc

import numpy as np

from pbmatch.datasets import (
    CANVAS, INK_LEVEL, DomainDataset, GlyphDomainSpec, _quantize, _render_glyph_mask)
from pbmatch.losses import (
    DEFAULT_BANDWIDTH_SCALES, KL_MARGIN, MARGINAL_FLOOR, BatchBundle, LossConfig,
    _entropy, _log_softmax, total_objective)
from pbmatch.nets import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ModelParams
from pbmatch.transforms import rng


# ---------------------------------------------------------------------------
# the tape
# ---------------------------------------------------------------------------

class Tensor:
    """A float64 value on the tape; a leaf with ``requires_grad`` gets a
    ``grad`` from :func:`backward`."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents: tuple = ()
        # maps the incoming gradient to one gradient per parent
        self._rule = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim


def tracked(t: Tensor) -> bool:
    """True if gradients flow through ``t``: a leaf that wants one, or a recorded result."""
    return t.requires_grad or t._rule is not None


def node(data, parents: tuple, rule) -> Tensor:
    """A result tensor, recording ``rule`` iff any parent is tracked."""
    out = Tensor(data)
    if any(tracked(p) for p in parents):
        out._parents = parents
        out._rule = rule
    return out


def backward(loss: Tensor) -> None:
    """Add dLoss/dLeaf into every ``requires_grad`` leaf's ``grad``, each
    recorded rule fired once, in reverse topological order. A leaf's first
    gradient is stored as it arrives, signed zeros included."""
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif id(t) not in seen:
            seen.add(id(t))
            stack.append((t, True))
            stack.extend((p, False) for p in reversed(t._parents))
    incoming = {id(loss): np.ones(())}
    for t in reversed(order):
        g = incoming.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            t.grad = np.array(g) if t.grad is None else t.grad + g
        if t._rule is not None:
            for p, pg in zip(t._parents, t._rule(g)):
                if tracked(p):
                    incoming[id(p)] = pg if id(p) not in incoming else incoming[id(p)] + pg


def replayed(fn):
    """``fn`` over a tensor as the ``x -> (value, gradient)`` function
    ``gradcheck.grad_check`` takes."""
    def checked(x):
        leaf = Tensor(x, requires_grad=True)
        out = fn(leaf)
        backward(out)
        return float(out.data), leaf.grad if leaf.grad is not None else np.zeros_like(x)
    return checked


@dataclasses.dataclass
class TapeParams:
    """A model over tape leaves: ``phi``, ``psi`` and ``omega`` as in
    ``ModelParams``, each array a :class:`Tensor`. The layer order comes
    from ``ModelParams``'s own methods, so it has one definition."""

    phi: tuple
    psi: tuple
    omega: dict
    tasks: tuple
    pairs = ModelParams.pairs
    all_tensors = ModelParams.all_tensors
    head_tensors = ModelParams.head_tensors


def leaves(params) -> TapeParams:
    """``params`` with every array wrapped in a tensor that wants a gradient."""
    def pair(p):
        return Tensor(p[0], requires_grad=True), Tensor(p[1], requires_grad=True)

    return TapeParams(phi=tuple(pair(p) for p in params.phi), psi=pair(params.psi),
                      omega={t: pair(p) for t, p in params.omega.items()},
                      tasks=params.tasks)


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


def row(a: Tensor, i: int) -> Tensor:
    """Row ``i`` of ``a`` as a one-row block; a negative ``i`` counts from the end."""
    def rule(g):
        grad = np.zeros_like(a.data)
        grad[i] = g[0]
        return (grad,)

    return node(a.data[[i]], (a,), rule)


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


def oracle_mim(logits: Tensor, q: np.ndarray, ceiling: float) -> Tensor:
    logp = log_softmax(logits)
    loss = neg(_mean_row_dot(exp(logp), logp))
    if _entropy(q) < ceiling:
        diversity = _mean_row_dot(exp(log_softmax(logits)), Tensor(np.log(q)))
        loss = add(diversity, loss)
    return loss


def oracle_next_marginal(logits: np.ndarray, q: np.ndarray, momentum: float) -> np.ndarray:
    """(1 - momentum) q + momentum times the mean of the logit rows'
    softmax, each entry raised to the floor and the whole renormalized,
    one row and one entry at a time."""
    k = len(q)
    mean_p = np.zeros(k)
    for row in logits:
        e = [math.exp(v - max(row)) for v in row]
        mean_p += [v / sum(e) for v in e]
    mean_p /= len(logits)
    mixed = [max((1.0 - momentum) * q[j] + momentum * mean_p[j], MARGINAL_FLOOR)
             for j in range(k)]
    return np.array([v / sum(mixed) for v in mixed])


def oracle_cpbm(orig, aug, src, src_y, lambda_con) -> Tensor:
    """Agreement of the two views, minus lambda_con times the mean clamped
    KL over the pairs of source row i and row i - 1 (row 0 and the last)
    whose labels differ, one pair at a time."""
    agreement = reduce("mean", _kl_rows(log_softmax(orig), log_softmax(aug)))
    pairs = [i for i in range(len(src_y)) if src_y[i] != src_y[i - 1]]
    if not pairs or lambda_con == 0.0:
        return agreement
    logp = log_softmax(src)
    total = None
    for i in pairs:
        kl = _kl_rows(row(logp, i), row(logp, i - 1))
        # min(kl, margin) as margin - relu(margin - kl)
        clamped = sub(Tensor(KL_MARGIN), relu(sub(Tensor(KL_MARGIN), kl)))
        total = clamped if total is None else add(total, clamped)
    disagreement = scale(reduce("sum", total), 1.0 / len(pairs))
    return sub(agreement, scale(disagreement, lambda_con))


def oracle_mupbm(logits: Tensor, probs: np.ndarray, partner, beta) -> Tensor:
    """KL from the targets, whose row r mixes the detached target
    predictions ``probs`` of rows r and ``partner[r]`` with weight
    ``beta[r]``, formed one row at a time."""
    q = np.array([beta[r] * probs[r] + (1.0 - beta[r]) * probs[partner[r]]
                  for r in range(len(beta))])
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


def head_objective(params, x, labels, head="label"):
    """The library's objective record of one head's mean cross-entropy on
    g(x): the supervised term for the label head, the pretext term over
    that one task for a task head."""
    k = params.n_classes
    off = dict(lambda_M=0.0, lambda_C=0.0, lambda_U=0.0)
    if head == "label":
        cfg = LossConfig.for_classes(k, lambda_S=0.0, **off)
        bundle = BatchBundle(src_x=x, src_y=labels)
    else:
        cfg = LossConfig.for_classes(k, supervised_weight=0.0, lambda_S=1.0, **off)
        bundle = BatchBundle(src_x=x, src_y=labels, st_batches={head: (x, labels)})
    return total_objective(bundle, params, cfg, np.full(k, 1.0 / k))


def oracle_stacked_views(bundle, cfg):
    """The rows ``total_objective`` runs through the trunk, in order, and
    its heads as (head, rows): each label view kept under the weights that
    read it, then the pretext tasks by name."""
    b, dist = bundle, bundle.distance
    label_views = [("src", b.src_x if cfg.supervised_weight > 0.0 or cfg.lambda_C > 0.0
                    or dist else None),
                   ("tgt", b.tgt_x if cfg.lambda_M > 0.0 or cfg.lambda_C > 0.0
                    or cfg.lambda_U > 0.0 or dist else None),
                   ("aug", b.tgt_x_aug if cfg.lambda_C > 0.0 else None),
                   ("mixed", b.mixed_x if cfg.lambda_U > 0.0 else None)]
    label_views = [(name, x) for name, x in label_views if x is not None]
    task_views = sorted(b.st_batches.items()) if cfg.lambda_S > 0.0 else []
    stacked = [x for _, x in label_views] + [x for _, (x, _) in task_views]
    n_label = sum(len(x) for _, x in label_views)
    heads = [("label", slice(0, n_label))] if label_views else []
    start = n_label
    for task, (x, _) in task_views:
        heads.append((task, slice(start, start + len(x))))
        start += len(x)
    return np.concatenate(stacked), heads


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


def whole_matrix_sq_dists(joint: np.ndarray):
    """Squared distances between all rows of ``joint``, plus a scratch
    buffer of the same shape: the Gram matrix doubled and subtracted from
    sq_i + sq_j, clamped at 0, with a zero diagonal."""
    sq = np.sum(joint ** 2, axis=1)
    d2 = joint @ joint.T
    d2 *= 2.0
    scratch = np.add(sq[:, None], sq[None, :])
    np.subtract(scratch, d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2, scratch


def whole_matrix_median(d2: np.ndarray, scratch: np.ndarray) -> float:
    """Median distance over distinct pairs of a ``whole_matrix_sq_dists``
    matrix; 1.0 if degenerate. Partitions a copy of the whole matrix: its N
    zero diagonal entries sort first and every pair follows twice, so the
    two middle order statistics sit at N + P - 1 and the smallest entry
    after it."""
    n = d2.shape[0]
    pairs = n * (n - 1) // 2
    flat = scratch.reshape(-1)
    np.copyto(scratch, d2)
    mid = n + pairs - 1
    flat.partition(mid)
    med = (math.sqrt(flat[mid]) + math.sqrt(flat[mid + 1:].min())) / 2.0
    return med if med > 0.0 else 1.0


def whole_matrix_mmd(joint: np.ndarray, n: int, bandwidths=None):
    """The MMD's value and its gradient to ``joint``'s rows, from one whole
    distance matrix: every kernel block summed over the whole matrix, and
    4 (diag(C 1) Z - C Z) from the whole weight matrix C."""
    m = joint.shape[0] - n
    d2, kern = whole_matrix_sq_dists(joint)
    if bandwidths is None:
        med = whole_matrix_median(d2, kern)
        bandwidths = [s * med for s in DEFAULT_BANDWIDTH_SCALES]
    c = np.zeros_like(d2)
    k_ss = k_tt = k_st = 0.0
    for bw in bandwidths:
        coef = -1.0 / (2.0 * bw * bw)
        np.multiply(d2, coef, out=kern)
        np.exp(kern, out=kern)
        k_ss += kern[:n, :n].sum()
        k_tt += kern[n:, n:].sum()
        k_st += kern[:n, n:].sum()
        kern *= coef
        c += kern
    value = float(k_ss / (n * n) + k_tt / (m * m) - 2.0 * k_st / (n * m))
    c[:n, :n] *= 1.0 / (n * n)
    c[n:, n:] *= 1.0 / (m * m)
    c[:n, n:] *= -1.0 / (n * m)
    c[n:, :n] *= -1.0 / (n * m)
    c[d2 <= 0.0] = 0.0
    grad = c.sum(axis=1)[:, None] * joint
    grad -= c @ joint
    grad *= 4.0
    return value, grad


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
        images=_quantize(images), labels=labels,
        class_count=k, domain_role=domain_role, sublabels=sublabels,
        metadata={"generator": "glyph", "spec": dataclasses.asdict(spec),
                  "domain_role": domain_role})


# ---------------------------------------------------------------------------
# the per-array optimizer
# ---------------------------------------------------------------------------

def per_array_step(params, opt, moments: list, grads) -> None:
    """One update of ``opt``'s kind, in place, array by array: each
    parameter whose gradient is set gets weight decay and its moments'
    update; one that has None is left as it is. ``moments`` holds each
    array's [m, v] and starts empty; ``opt`` gives the settings and counts
    the step."""
    tensors = params.all_tensors()
    if not moments:
        moments.extend([np.zeros_like(t), np.zeros_like(t)] for t in tensors)
    opt.step_count += 1
    t_count = opt.step_count
    for t, g, mv in zip(tensors, grads, moments):
        if g is None:
            continue
        if opt.weight_decay > 0:
            g = g + opt.weight_decay * t
        if opt.kind == "sgd_momentum":
            mv[0] = opt.momentum * mv[0] + g
            t -= opt.lr * mv[0]
        else:
            mv[0] = ADAM_BETA1 * mv[0] + (1 - ADAM_BETA1) * g
            mv[1] = ADAM_BETA2 * mv[1] + (1 - ADAM_BETA2) * g * g
            m_hat = mv[0] / (1 - ADAM_BETA1 ** t_count)
            v_hat = mv[1] / (1 - ADAM_BETA2 ** t_count)
            t -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def traced_peak(call):
    """Run ``call()`` under tracemalloc; return its result and the peak
    bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
