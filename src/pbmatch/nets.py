"""MLP predictive model: shared feature extractor, label head, auxiliary heads.

The feature extractor maps flattened images to a latent vector through
ReLU dense layers; the label head and each pretext-task head are single
dense layers on the latent. All heads share the extractor parameters, so
a step driven by any head moves the shared trunk.

Parameters are plain float64 arrays. ``forward`` caches what
``trunk_grads`` needs to map the latent's gradient to every layer's
(dW, db) in closed form; ``step`` applies one gradient per parameter.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Annotated, Dict, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from pbmatch.datasets import (Count, Positive, Range, Seed, Share, Weight, check_fields,
                              checked_object, parse_json)
from pbmatch.transforms import ST_TASKS, _ST_OPS, rng

# pretext task identifier -> number of prediction classes, one per task label
TASK_CLASSES = {task: _ST_OPS[task][1] for task in ST_TASKS}


# a dense layer's weight and bias
Pair = Tuple[np.ndarray, np.ndarray]
# per extractor layer: its input, its weight and the mask of its positive
# pre-activations, the trunk rule's inputs
Cache = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class ModelParams:
    """Parameters of the feature extractor (phi), label head (psi), and task heads (omega)."""

    phi: List[Pair]
    psi: Pair
    omega: Dict[str, Pair]
    layer_spec: List[int]
    seed: int
    tasks: Tuple[str, ...]

    @property
    def input_dim(self) -> int:
        return self.layer_spec[0]

    @property
    def n_classes(self) -> int:
        return self.layer_spec[-1]

    def pairs(self) -> List[Pair]:
        """Every dense layer's (W, b) in declaration order: phi, psi, then task heads."""
        return [*self.phi, self.psi, *(self.omega[task] for task in self.tasks)]

    def all_tensors(self) -> List[np.ndarray]:
        """Every parameter array in declaration order: phi, psi, then task heads."""
        return [t for pair in self.pairs() for t in pair]

    def head_tensors(self, head: str) -> List[np.ndarray]:
        if head == "label":
            return list(self.psi)
        if head in self.omega:
            return list(self.omega[head])
        raise ValueError(f"unknown head: {head!r} (have label, {', '.join(self.omega)})")


def _dense_init(gen: np.random.Generator, fan_in: int, fan_out: int) -> Pair:
    # Kaiming-style fan-in scaling: uniform with std sqrt(2/fan_in)
    limit = np.sqrt(6.0 / fan_in)
    return gen.uniform(-limit, limit, (fan_in, fan_out)), np.zeros(fan_out)


@dataclass(frozen=True)
class CheckpointHeader:
    """A checkpoint's first line: layer sizes, seed, task heads and steps
    taken. :func:`init_params` takes only what it holds, so a model that can
    be built can be saved; a size of 4.7 or true is refused, not coerced."""

    layer_spec: Tuple[Count, ...]
    seed: Seed
    tasks: Union[Tuple[Literal[ST_TASKS], ...], Tuple[()]]
    step_count: Annotated[int, Range(0)]

    def __post_init__(self):
        check_fields(self)
        if len(self.layer_spec) < 2:
            raise ValueError(f"layer_spec needs at least input and output sizes, "
                             f"got {self.layer_spec}")
        for i, task in enumerate(self.tasks):
            if task in self.tasks[:i]:
                raise ValueError(f"task {task!r} is named twice")


def _layer_shapes(spec: List[int], tasks: Sequence[str]) -> List[Tuple[int, int]]:
    """(fan_in, fan_out) of every dense layer in ``all_tensors`` order: the
    extractor's, the label head's, then each task head's."""
    return list(zip(spec[:-1], spec[1:])) + [(spec[-2], TASK_CLASSES[t]) for t in tasks]


def _assemble(spec: List[int], seed: int, tasks: Sequence[str], pairs: List[Pair]
              ) -> ModelParams:
    n_phi = len(spec) - 2
    return ModelParams(phi=pairs[:n_phi], psi=pairs[n_phi],
                       omega=dict(zip(tasks, pairs[n_phi + 1:])), layer_spec=spec,
                       seed=int(seed), tasks=tuple(tasks))


def init_params(spec: Sequence[int], seed: int,
                tasks: Sequence[str] = ST_TASKS) -> ModelParams:
    """Build model parameters for a layer-size chain like [256, 128, 64, K].

    All sizes through the latent belong to the extractor; the final pair is
    the label head. Auxiliary heads map the latent to each task's classes.
    Deterministic in the seed.
    """
    CheckpointHeader(spec, seed, tasks, step_count=0)  # what no checkpoint could hold is refused
    spec = [int(s) for s in spec]
    gen = rng(seed)
    return _assemble(spec, seed, tasks,
                     [_dense_init(gen, *shape) for shape in _layer_shapes(spec, tasks)])


def clone_params(params: ModelParams) -> ModelParams:
    """Deep-copy parameters so further training leaves the original intact."""
    return _assemble(list(params.layer_spec), params.seed, params.tasks,
                     [(w.copy(), b.copy()) for w, b in params.pairs()])


def _checked_input(params: ModelParams, x) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.input_dim:
        raise ValueError(f"input width {h.shape} does not match input dim {params.input_dim}")
    return h


def forward(params: ModelParams, x: np.ndarray) -> Tuple[np.ndarray, Cache]:
    """Latent representation g(x), ReLU after every extractor layer, and
    the layer cache :func:`trunk_grads` takes it back through."""
    h = _checked_input(params, x)
    cache: Cache = []
    for w, b in params.phi:
        a = h @ w + b
        mask = a > 0.0
        cache.append((h, w, mask))
        h = np.maximum(a, 0.0)
    return h, cache


def trunk_grads(cache: Cache, dz: np.ndarray) -> List[Pair]:
    """Each extractor layer's (dW, db), given the gradient ``dz`` of the
    latent that :func:`forward` cached: walking the layers back, the mask
    of positive pre-activations, then db = sum of g's rows, dW = h^T g and,
    below every layer but the first, g W^T. The input gets no gradient."""
    g = dz
    grads: List[Pair] = []
    for i in reversed(range(len(cache))):
        h_in, w, mask = cache[i]
        g = g * mask
        grads.append((h_in.T @ g, g.sum(axis=0)))
        g = g @ w.T if i > 0 else None
    return grads[::-1]


def features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The latent g(x) of :func:`forward`, without its layer cache (evaluation)."""
    return forward(params, x)[0]


def predict_logits(params: ModelParams, x: np.ndarray, head: str = "label") -> np.ndarray:
    """Logits of the requested head on g(x) (evaluation)."""
    w, b = params.head_tensors(head)
    return features(params, x) @ w + b


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZERS = ("adam", "sgd_momentum")


@dataclass
class OptimState:
    """SGD-with-momentum or Adam state over a fixed parameter list."""

    kind: Literal[OPTIMIZERS] = "adam"
    lr: Positive = 1e-3
    momentum: Share = 0.9
    weight_decay: Weight = 1e-5
    step_count: Annotated[int, Range(0)] = 0
    _m: List[np.ndarray] = field(default_factory=list, init=False)
    _v: List[np.ndarray] = field(default_factory=list, init=False)

    def __post_init__(self):
        check_fields(self)


def step(params: ModelParams, opt: OptimState,
         grads: Sequence[Optional[np.ndarray]]) -> None:
    """Apply one optimizer update in place from one gradient per parameter,
    in :meth:`ModelParams.all_tensors` order; a head the objective did not
    use has None and is left as it is."""
    tensors = params.all_tensors()
    if len(grads) != len(tensors):
        raise ValueError(f"got {len(grads)} gradients for {len(tensors)} parameters")
    if all(g is None for g in grads):
        raise ValueError("no parameter has a gradient")
    if not opt._m:
        opt._m = [np.zeros_like(t) for t in tensors]
        opt._v = [np.zeros_like(t) for t in tensors]
    opt.step_count += 1
    t_count = opt.step_count
    for i, (t, g) in enumerate(zip(tensors, grads)):
        if g is None:
            continue
        if opt.weight_decay > 0:
            g = g + opt.weight_decay * t
        if opt.kind == "sgd_momentum":
            opt._m[i] = opt.momentum * opt._m[i] + g
            t -= opt.lr * opt._m[i]
        else:
            opt._m[i] = ADAM_BETA1 * opt._m[i] + (1 - ADAM_BETA1) * g
            opt._v[i] = ADAM_BETA2 * opt._v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = opt._m[i] / (1 - ADAM_BETA1 ** t_count)
            v_hat = opt._v[i] / (1 - ADAM_BETA2 ** t_count)
            t -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoint file: one JSON header line, then raw little-endian float64 blob
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, step_count: int = 0) -> None:
    header = CheckpointHeader(params.layer_spec, params.seed, params.tasks, step_count)
    with open(path, "wb") as f:
        f.write(json.dumps(asdict(header)).encode("utf-8"))
        f.write(b"\n")
        for t in params.all_tensors():
            f.write(t.astype("<f8").tobytes())


# longest header line read, newline included; a real header is a few hundred bytes
_MAX_HEADER_BYTES = 1 << 16


def load_checkpoint(path) -> Tuple[ModelParams, int]:
    """Read a file written by :func:`save_checkpoint`.

    A header line longer than ``_MAX_HEADER_BYTES``, a header that
    :class:`CheckpointHeader` refuses, or a parameter blob of the wrong
    byte length raises ``ValueError`` naming the file.
    """
    with open(path, "rb") as f:
        line = f.readline(_MAX_HEADER_BYTES + 1)
    if len(line) > _MAX_HEADER_BYTES:
        raise ValueError(
            f"checkpoint {path} header line is longer than {_MAX_HEADER_BYTES} bytes")
    # the blob is sized before it is read
    blob_bytes = os.path.getsize(path) - len(line)
    what = f"checkpoint {path} header"
    header = checked_object(CheckpointHeader, parse_json(line, what), what)
    # the blob length the header implies, in Python ints: a header naming
    # huge layers fails here, before any parameter is allocated
    layers = _layer_shapes(header.layer_spec, header.tasks)
    n_bytes = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in layers)
    if blob_bytes != n_bytes:
        raise ValueError(
            f"checkpoint {path} holds {blob_bytes} parameter bytes, expected {n_bytes}")
    flat = np.fromfile(path, dtype="<f8", offset=len(line))
    pairs, start = [], 0
    for fan_in, fan_out in layers:
        end = start + fan_in * fan_out
        pairs.append((flat[start:end].reshape(fan_in, fan_out).astype(np.float64),
                      flat[end:end + fan_out].astype(np.float64)))
        start = end + fan_out
    return _assemble(list(header.layer_spec), header.seed, header.tasks, pairs), header.step_count
