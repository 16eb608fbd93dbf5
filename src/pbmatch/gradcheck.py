"""Randomized gradient verification sweep.

The trunk rule, a head's part of the objective's rule, every objective
term and the whole objective are checked against central differences on
a batch of random instances. A check is a function ``x -> (value,
gradient)``: a term as ``total_objective`` calls it, with its closed-form
gradient to the varied input, or a rule of ``nets`` or ``losses`` read at
the varied parameter. The sweep is what the ``pbmatch gradcheck``
subcommand and the numerical acceptance tests run; it returns per-check
worst-case relative errors so a regression in any single rule is
attributable by name.

Points are drawn to stay away from the genuine kinks (ReLU pre-activations
at zero), since a subgradient mismatch there is not a bug.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .losses import (
    DEFAULT_BANDWIDTH_SCALES,
    BatchBundle,
    LossConfig,
    _floor_marginal,
    _log_softmax,
    _median_distance,
    backward,
    coral_distance,
    cpbm_loss,
    cross_entropy,
    mim_loss,
    mmd_distance,
    mupbm_loss,
    tpbm_loss,
    total_objective,
)
from .nets import ModelParams, clone_params, forward, init_params, trunk_grads
from .transforms import rng

DEFAULT_INSTANCES = 20
DEFAULT_TOL = 1e-4

# a scalar function with its analytic gradient: x -> (value, d value / d x)
Checked = Callable[[np.ndarray], Tuple[float, np.ndarray]]


@dataclass
class GradCheckReport:
    """Per-coordinate analytic vs central-difference comparison."""

    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"grad_check: max relative error {self.max_rel_error:.3e} "
                f"vs tol {self.tol:.1e} -> {verdict}")


def grad_check(fn: Checked, point: np.ndarray, step: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient ``fn`` returns at ``point`` against
    central differences of its value.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-6) as the
    denominator so near-zero coordinates are judged on absolute error.
    """
    x = np.array(point, dtype=np.float64)
    value, grad = fn(x)
    if np.shape(value) != ():
        raise ValueError("grad_check requires a scalar-valued function")
    if np.shape(grad) != x.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} does not match point {x.shape}")
    if not np.isfinite(value):
        raise ValueError("function value is not finite at the given point")
    analytic = np.array(grad, dtype=np.float64)

    numeric = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + step
        f_plus = float(fn(x)[0])
        x[i] = orig - step
        f_minus = float(fn(x)[0])
        x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("function value is not finite near the given point")
        numeric[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if x.size else 0.0
    return GradCheckReport(analytic=analytic, numeric=numeric,
                           max_rel_error=max_rel, tol=tol)


@dataclass
class CheckResult:
    """Worst case over the random instances of one named check."""

    name: str
    instances: int
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def _rng_logits(rng, n, k, spread=2.0) -> np.ndarray:
    return rng.normal(0.0, spread, (n, k))


# ---------------------------------------------------------------------------
# instance builders: (rng, i) -> (fn, point)
# ---------------------------------------------------------------------------

Builder = Callable[[np.random.Generator, int], Tuple[Checked, np.ndarray]]


def _off_kink_net(rng) -> Tuple[ModelParams, np.ndarray]:
    """A three-layer extractor with random biases and a 3-row input batch
    whose pre-activations all lie at least 0.05 from the ReLU kink;
    redrawn until they do."""
    while True:
        params = init_params([4, 5, 4, 3, 2], seed=int(rng.integers(0, 2**31 - 1)), tasks=())
        for _, b in params.phi:
            b[...] = rng.normal(0.0, 0.5, b.shape)
        x = rng.normal(size=(3, 4))
        h = x
        for w, b in params.phi:
            a = h @ w + b
            if np.min(np.abs(a)) < 0.05:
                break
            h = np.maximum(a, 0.0)
        else:
            return params, x


def _build_features(rng, i):
    # instance i varies one layer's W or b; the trunk rule reads the
    # gradient of a fixed readout of the latent
    params, x = _off_kink_net(rng)
    readout = rng.normal(size=(3, 3))
    layer, part = divmod(i % 6, 2)

    def fn(p: np.ndarray) -> Tuple[float, np.ndarray]:
        varied = clone_params(params)
        varied.phi[layer][part][...] = p
        z, acts = forward(varied, x)
        return float(np.sum(z * readout)), trunk_grads(varied, acts, readout)[layer][part]

    return fn, params.phi[layer][part]


def _build_head(rng, i):
    # instance i varies the label head's W or its b under the supervised
    # objective; backward maps its logit gradient through the head
    params, x = _off_kink_net(rng)
    bundle = BatchBundle(src_x=x, src_y=rng.integers(0, 2, 3))
    cfg = LossConfig.for_classes(2, lambda_M=0.0, lambda_C=0.0, lambda_U=0.0, lambda_S=0.0)
    slot = i % 2

    def fn(p: np.ndarray) -> Tuple[float, np.ndarray]:
        varied = clone_params(params)
        varied.psi[slot][...] = p
        obj = total_objective(bundle, varied, cfg, np.full(2, 0.5))
        # the label head's W and b are the last two parameters
        return obj.total, backward(obj)[slot - 2]

    return fn, params.psi[slot]


def _build_cross_entropy(rng, i):
    k = 3 + i % 2
    labels = rng.integers(0, k, 5)
    return (lambda x: cross_entropy(_log_softmax(x), labels)), _rng_logits(rng, 5, k)


def _build_mim(rng, i):
    k = 4
    ceiling = 0.85 * np.log(k)
    if i % 2:
        q = np.full(k, 1.0 / k)             # entropy above ceiling: confidence only
    else:
        q = rng.dirichlet(np.full(k, 0.3))  # usually skewed: both terms active
    # a training run's marginal is floored; a draw can hold a 0
    q = _floor_marginal(q)
    return (lambda x: mim_loss(_log_softmax(x), q, ceiling)), _rng_logits(rng, 6, k)


def _build_cpbm(rng, i):
    # instance i varies the original view, the transformed view or the
    # source rows, whose labels give pairs that differ and a pair that agrees
    k = 3
    blocks = [_rng_logits(rng, 5, k), _rng_logits(rng, 5, k), _rng_logits(rng, 4, k)]
    src_y = np.array([0, 1, 1, 2])
    slot = i % 3

    def fn(x: np.ndarray) -> Tuple[float, np.ndarray]:
        logp = [_log_softmax(x if j == slot else z) for j, z in enumerate(blocks)]
        value, grads = cpbm_loss(*logp, src_y, 0.3)
        return value, grads[slot]

    return fn, blocks[slot]


def _build_mupbm(rng, i):
    # the target predictions are detached, so they stay fixed
    k = 3
    tgt = _log_softmax(_rng_logits(rng, 5, k))
    partner, beta = rng.permutation(5), rng.uniform(0.1, 0.9, 5)
    return (lambda x: mupbm_loss(_log_softmax(x), tgt, partner, beta)), _rng_logits(rng, 5, k)


def _build_tpbm(rng, i):
    heads = {"rotate90": 4, "vflip": 2}
    vary = ("rotate90", "vflip")[i % 2]
    fixed = {t: _rng_logits(rng, 5, c) for t, c in heads.items() if t != vary}
    labels = {t: rng.integers(0, c, 5) for t, c in heads.items()}
    tasks = sorted(heads)

    def fn(x: np.ndarray) -> Tuple[float, np.ndarray]:
        logp = [_log_softmax(x if t == vary else fixed[t]) for t in tasks]
        value, grads = tpbm_loss(logp, [labels[t] for t in tasks])
        return value, grads[tasks.index(vary)]

    return fn, _rng_logits(rng, 5, heads[vary])


def _distance_fn(distance, z_s: np.ndarray, z_t: np.ndarray, vary_target: bool):
    """fn(x) for a feature distance over stacked latent rows,
    ``distance(joint)``, with one side replaced by ``x``."""
    n = z_s.shape[0]
    rows = slice(n, None) if vary_target else slice(0, n)

    def fn(x: np.ndarray) -> Tuple[float, np.ndarray]:
        value, grad = distance(np.concatenate((z_s, x) if vary_target else (x, z_t)))
        return value, grad[rows]

    return fn, z_t if vary_target else z_s


def _build_mmd(rng, i):
    # the default bandwidths follow the median distance, which finite
    # differences would move; the check freezes them at the point's median
    z_s = rng.normal(0.0, 1.0, (6, 4))
    z_t = rng.normal(0.3, 1.1, (5, 4))
    med = _median_distance(np.concatenate([z_s, z_t]), 6)
    bws = [s * med for s in DEFAULT_BANDWIDTH_SCALES]
    return _distance_fn(lambda joint: mmd_distance(joint, 6, bws), z_s, z_t, bool(i % 2))


def _build_coral(rng, i):
    z_s = rng.normal(0.0, 1.0, (6, 4))
    z_t = rng.normal(0.3, 1.2, (5, 4))
    return _distance_fn(lambda joint: coral_distance(joint, 6), z_s, z_t, bool(i % 2))


def _build_total(rng, i):
    k = 3
    d = 4
    params = init_params([d, 5, k], seed=int(rng.integers(0, 2**31 - 1)),
                         tasks=("rotate90", "vflip"))
    # the mixup targets are detached target predictions, which the analytic
    # gradient holds fixed. Odd instances zero the target rows, so the
    # checked first-layer weights cannot move those predictions and finite
    # differences see the same fixed targets; even instances drop the mixup
    # term and keep random target rows. Instances 2 and 3 of every 4 add a
    # CORAL distance; term.mmd_rbf checks the MMD with fixed bandwidths.
    mixup = bool(i % 2)
    src_y = rng.integers(0, k, 6)
    bundle = BatchBundle(
        src_x=rng.normal(size=(6, d)),
        src_y=src_y,
        tgt_x=np.zeros((6, d)) if mixup else rng.normal(size=(6, d)),
        tgt_x_aug=rng.normal(size=(6, d)),
        mixed_x=rng.normal(size=(6, d)),
        mixed_partner=rng.permutation(6),
        mixed_beta=rng.uniform(0.0, 1.0, 6),
        st_batches={
            "rotate90": (rng.normal(size=(5, d)), rng.integers(0, 4, 5)),
            "vflip": (rng.normal(size=(5, d)), rng.integers(0, 2, 5)),
        },
        distance="coral" if i % 4 >= 2 else None,
        distance_weight=1.5,
    )
    cfg = LossConfig.for_classes(k, **({} if mixup else {"lambda_U": 0.0}))
    q = _floor_marginal(rng.dirichlet(np.full(k, 0.5)))

    def fn(x: np.ndarray) -> Tuple[float, np.ndarray]:
        p = clone_params(params)
        p.phi[0][0][...] = x
        obj = total_objective(bundle, p, cfg, q)
        return obj.total, backward(obj)[0]

    return fn, params.phi[0][0]


CHECKS: Dict[str, Builder] = {
    "net.features": _build_features,
    "net.head": _build_head,
    "term.cross_entropy": _build_cross_entropy,
    "term.mim": _build_mim,
    "term.cpbm": _build_cpbm,
    "term.mupbm": _build_mupbm,
    "term.tpbm": _build_tpbm,
    "term.mmd_rbf": _build_mmd,
    "term.coral": _build_coral,
    "term.total": _build_total,
}


def run_gradient_suite(tol: float = DEFAULT_TOL,
                       instances: int = DEFAULT_INSTANCES,
                       seed: int = 0,
                       names=None) -> List[CheckResult]:
    """Run each check of ``names``, a list of ``CHECKS`` keys (all of
    them when None), on ``instances`` fresh random instances.

    Returns one result per check with the worst relative error seen. A
    result with ``passed == False`` means some instance's analytic gradient
    disagreed with central differences beyond ``tol``.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    selected = list(CHECKS) if names is None else names
    if isinstance(selected, str) or not set(selected) <= set(CHECKS):
        raise ValueError(f"names must be a list of check names from {list(CHECKS)}, "
                         f"got {names!r}")
    results = []
    for name in selected:
        build = CHECKS[name]
        gen = rng(seed, zlib.crc32(name.encode()))
        # a NaN error anywhere makes the worst case NaN, which fails
        worst = float(np.max([grad_check(*build(gen, i), tol=tol).max_rel_error
                              for i in range(instances)]))
        results.append(CheckResult(name=name, instances=instances,
                                   max_rel_error=worst, tol=tol))
    return results


def suite_text(results: List[CheckResult]) -> str:
    """Fixed-width report, one line per check plus a verdict line."""
    lines = []
    for r in results:
        verdict = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<22s} n={r.instances:<3d} "
                     f"max_rel_err={r.max_rel_error:.3e}  {verdict}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {n_fail} failed")
    return "\n".join(lines)
