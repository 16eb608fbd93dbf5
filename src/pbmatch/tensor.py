"""Minimal reverse-mode autodiff over dense float64 arrays.

Every differentiable value is a :class:`Tensor` wrapping a numpy array.
The module has no op set: each caller computes its value over plain arrays
and records one :func:`node` with its inputs and a closed-form backward
rule (the trunk and heads in ``nets``, the objective in ``losses``);
``backward`` linearizes the recorded graph in topological order (inputs
before consumers) and replays it exactly once, accumulating ``dLoss/dLeaf``
into every ``requires_grad`` tensor. Gradients accumulate across calls
(+=); callers zero them explicitly, so multi-term objectives compose by
summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """Dense n-dimensional float64 value with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_rule")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        # parents kept as a tuple so replay order is deterministic
        self._parents: tuple = ()
        # rule maps the incoming gradient to one gradient per parent; backward
        # reads only the tracked parents' entries, so a rule may skip the rest
        self._rule: Optional[Callable[[np.ndarray], tuple]] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None


def tracked(t: Tensor) -> bool:
    """True if gradients flow through ``t``: a leaf that wants one, or a recorded result."""
    return t.requires_grad or t._rule is not None


def node(data: np.ndarray, parents: tuple, rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Build a result tensor, recording the backward rule iff any input is tracked.

    ``rule`` maps the incoming gradient to one gradient per parent.
    """
    out = Tensor(data)
    if any(tracked(p) for p in parents):
        out._parents = parents
        out._rule = rule
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _linearize(root: Tensor) -> list:
    """Topologically order the recorded graph (inputs before consumers)."""
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        # push reversed so replay preserves left-to-right parent order
        for p in reversed(t._parents):
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into every requires_grad tensor in the graph.

    Incoming gradients are gathered in a per-call table, so each recorded
    operation's rule fires exactly once and repeated backward calls add up
    without double-counting earlier passes.
    """
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _linearize(loss)
    incoming: dict = {id(loss): np.ones(())}
    for t in reversed(order):
        g = incoming.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
        if t._rule is None:
            continue
        parent_grads = t._rule(np.asarray(g, dtype=np.float64))
        for p, pg in zip(t._parents, parent_grads):
            if not tracked(p):
                continue
            key = id(p)
            if key in incoming:
                incoming[key] = incoming[key] + pg
            else:
                incoming[key] = pg


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

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


def grad_check(fn: Callable[[Tensor], Tensor], point: Tensor,
               step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of a scalar-valued fn against central differences.

    Relative error per coordinate uses max(|analytic|, |numeric|, 1e-6) as the
    denominator so near-zero coordinates are judged on absolute error.
    """
    x = Tensor(point.data.copy(), requires_grad=True)
    out = fn(x)
    if out.shape != ():
        raise ValueError("grad_check requires a scalar-valued function")
    if not np.isfinite(out.data):
        raise ValueError("function value is not finite at the given point")
    backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(fn(Tensor(x.data)).data)
        flat[i] = orig - step
        f_minus = float(fn(Tensor(x.data)).data)
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("function value is not finite near the given point")
        num_flat[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(analytic=analytic, numeric=numeric,
                           max_rel_error=max_rel, tol=tol)
