"""Randomized gradient verification sweep.

Every differentiable tensor op and every objective term is checked against
central differences on a batch of random instances. The sweep is what the
``pbmatch gradcheck`` subcommand and the numerical acceptance tests run; it
returns per-check worst-case relative errors so a regression in any single
backward rule is attributable by name.

Points are drawn to stay away from the genuine kinks (relu at zero), since
a subgradient mismatch there is not a bug.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .losses import (
    BatchBundle,
    LossConfig,
    MarginalTracker,
    coral_distance,
    cpbm_loss,
    cross_entropy,
    median_pairwise_distance,
    mim_loss,
    mmd_distance,
    mupbm_loss,
    tpbm_loss,
    total_objective,
)
from .nets import ModelParams, init_params
from .tensor import Tensor, add, grad_check, matmul, node, relu
from .transforms import rng

DEFAULT_INSTANCES = 20
DEFAULT_TOL = 1e-4


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


def _away_from_zero(x: np.ndarray) -> np.ndarray:
    """Push coordinates out of the +-0.05 band so the kink stays far away."""
    shift = np.where(x >= 0.0, 0.05, -0.05)
    return np.where(np.abs(x) < 0.05, x + shift, x)


def _rng_logits(rng, n, k, spread=2.0) -> np.ndarray:
    return rng.normal(0.0, spread, (n, k))


# ---------------------------------------------------------------------------
# instance builders: (rng, i) -> (fn, point)
# ---------------------------------------------------------------------------

Builder = Callable[[np.random.Generator, int], Tuple[Callable[[Tensor], Tensor], Tensor]]


def _weighted_sum(t: Tensor, w: np.ndarray) -> Tensor:
    """sum(t * w) as one node: a scalar readout with the known gradient w."""
    return node(float(np.sum(t.data * w)), (t,), lambda g: (g * w,))


def _build_add(rng, i):
    # broadcast on odd instances to exercise the unbroadcast path
    b = Tensor(rng.normal(size=(3,) if i % 2 else (4, 3)))
    w = rng.normal(size=(4, 3))
    return (lambda x: _weighted_sum(add(x, b), w)), Tensor(rng.normal(size=(4, 3)))


def _build_relu(rng, i):
    w = rng.normal(size=(4, 3))
    point = _away_from_zero(rng.normal(size=(4, 3)))
    return (lambda x: _weighted_sum(relu(x), w)), Tensor(point)


def _build_matmul(rng, i):
    w = rng.normal(size=(3, 2))
    if i % 2:
        a = Tensor(rng.normal(size=(3, 4)))
        return (lambda x: _weighted_sum(matmul(a, x), w)), Tensor(rng.normal(size=(4, 2)))
    b = Tensor(rng.normal(size=(4, 2)))
    return (lambda x: _weighted_sum(matmul(x, b), w)), Tensor(rng.normal(size=(3, 4)))


def _build_cross_entropy(rng, i):
    k = 3 + i % 2
    labels = rng.integers(0, k, 5)
    return (lambda x: cross_entropy(x, labels)), Tensor(_rng_logits(rng, 5, k))


def _build_mim(rng, i):
    k = 4
    ceiling = 0.85 * np.log(k)
    if i % 2:
        q = np.full(k, 1.0 / k)             # entropy above ceiling: confidence only
    else:
        q = rng.dirichlet(np.full(k, 0.3))  # usually skewed: both terms active
    momentum = 0.1

    def fn(x: Tensor) -> Tensor:
        tracker = MarginalTracker(q=q.copy(), momentum=momentum)
        return mim_loss(x, tracker, ceiling)

    return fn, Tensor(_rng_logits(rng, 6, k))


def _build_cpbm(rng, i):
    k = 3
    orig = _rng_logits(rng, 5, k)
    aug = _rng_logits(rng, 5, k)
    pa = _rng_logits(rng, 4, k)
    pb = _rng_logits(rng, 4, k)
    mask = np.array([True, False, True, True])
    slot = i % 3
    if slot == 0:
        fn = lambda x: cpbm_loss(x, Tensor(aug), Tensor(pa), Tensor(pb), mask, 0.3)
        point = orig
    elif slot == 1:
        fn = lambda x: cpbm_loss(Tensor(orig), x, Tensor(pa), Tensor(pb), mask, 0.3)
        point = aug
    else:
        fn = lambda x: cpbm_loss(Tensor(orig), Tensor(aug), x, Tensor(pb), mask, 0.3)
        point = pa
    return fn, Tensor(point)


def _build_mupbm(rng, i):
    k = 3
    lam = rng.uniform(0.1, 0.9, (5, 1))
    eye = np.eye(k)
    targets = lam * eye[rng.integers(0, k, 5)] + (1 - lam) * eye[rng.integers(0, k, 5)]
    return (lambda x: mupbm_loss(x, targets)), Tensor(_rng_logits(rng, 5, k))


def _build_tpbm(rng, i):
    heads = {"rotate90": 4, "vflip": 2}
    vary = ("rotate90", "vflip")[i % 2]
    fixed = {t: Tensor(_rng_logits(rng, 5, c)) for t, c in heads.items() if t != vary}
    labels = {t: rng.integers(0, c, 5) for t, c in heads.items()}

    def fn(x: Tensor) -> Tensor:
        logits = dict(fixed)
        logits[vary] = x
        return tpbm_loss(logits, labels)

    return fn, Tensor(_rng_logits(rng, 5, heads[vary]))


def _build_mmd(rng, i):
    z_s = rng.normal(0.0, 1.0, (6, 4))
    z_t = rng.normal(0.3, 1.1, (5, 4))
    med = median_pairwise_distance(z_s, z_t)
    bws = [s * med for s in (0.5, 1.0, 2.0, 4.0)]
    if i % 2:
        return (lambda x: mmd_distance(Tensor(z_s), x, bandwidths=bws)), Tensor(z_t)
    return (lambda x: mmd_distance(x, Tensor(z_t), bandwidths=bws)), Tensor(z_s)


def _build_coral(rng, i):
    z_s = rng.normal(0.0, 1.0, (6, 4))
    z_t = rng.normal(0.3, 1.2, (5, 4))
    if i % 2:
        return (lambda x: coral_distance(Tensor(z_s), x)), Tensor(z_t)
    return (lambda x: coral_distance(x, Tensor(z_t))), Tensor(z_s)


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
        pair_diff_mask=src_y != np.roll(src_y, 1),
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
    q0 = rng.dirichlet(np.full(k, 0.5))
    rest = params.phi[1:]
    bias0 = params.phi[0][1]

    def fn(x: Tensor) -> Tensor:
        p = ModelParams(phi=[(x, bias0)] + rest, psi=params.psi,
                        omega=params.omega, layer_spec=params.layer_spec,
                        seed=params.seed, tasks=params.tasks)
        tracker = MarginalTracker(q=q0.copy(), momentum=cfg.marginal_momentum)
        loss, _ = total_objective(bundle, p, cfg, tracker)
        return loss

    return fn, Tensor(params.phi[0][0].data.copy())


CHECKS: Dict[str, Builder] = {
    "op.add": _build_add,
    "op.relu": _build_relu,
    "op.matmul": _build_matmul,
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
    """Run every named check on ``instances`` fresh random instances.

    Returns one result per check with the worst relative error seen. A
    result with ``passed == False`` means some instance's analytic gradient
    disagreed with central differences beyond ``tol``.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    selected = CHECKS if names is None else {n: CHECKS[n] for n in names}
    results = []
    for name, build in selected.items():
        gen = rng(seed, zlib.crc32(name.encode()))
        worst = 0.0
        for i in range(instances):
            fn, point = build(gen, i)
            report = grad_check(fn, point, tol=tol)
            worst = max(worst, report.max_rel_error)
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
