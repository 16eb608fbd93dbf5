"""MLP predictive model: shared feature extractor, label head, auxiliary heads.

The feature extractor maps flattened images to a latent vector through
ReLU dense layers; the label head and each pretext-task head are single
dense layers on the latent. All heads share the extractor parameters, so
a step driven by any head moves the shared trunk.

A model is one float64 buffer, ``ModelParams.flat``, from which it makes
each ``W`` and ``b`` as a reshaped view, in ``all_tensors`` order; the
optimizer's moments are buffers of the same length.
``forward`` keeps the activations it forms, which ``trunk_grads`` maps
the latent's gradient back through to every layer's (dW, db) in closed
form; ``step`` takes one gradient per parameter and updates each run of
adjacent parameters whose gradient is set as one slice of the buffer.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Annotated, List, Literal, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from pbmatch.datasets import (Count, Positive, Range, Seed, Share, Weight, check_fields,
                              checked_object, parse_json)
from pbmatch.transforms import ST_TASKS, _ST_OPS, rng

# pretext task identifier -> number of prediction classes, one per task label
TASK_CLASSES = {task: _ST_OPS[task][1] for task in ST_TASKS}


# a dense layer's weight and bias
Pair = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the feature extractor (phi), label head (psi), and task heads (omega).

    The model is its buffer: ``flat`` holds every parameter in
    :meth:`all_tensors` order, and each ``W`` and ``b`` is a view of it made
    here, no init field, so the model can hold no other array.
    ``dataclasses.replace(params, flat=buf)`` is the model over ``buf``; a
    ``flat`` that is not 1-D float64 of the model's length is refused.
    """

    layer_spec: List[int]
    seed: int
    tasks: Tuple[str, ...]
    flat: np.ndarray = field(repr=False)
    phi: Tuple[Pair, ...] = field(init=False, repr=False)
    psi: Pair = field(init=False, repr=False)
    omega: Mapping[str, Pair] = field(init=False, repr=False)

    def __post_init__(self):
        flat, n = self.flat, _n_params(self.layer_spec, self.tasks)
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (n,)):
            raise ValueError(f"flat must be a 1-D float64 buffer of the model's {n} parameters, "
                             f"got {getattr(flat, 'dtype', None)} of shape {np.shape(flat)}")
        pairs, start = [], 0
        for fan_in, fan_out in _layer_shapes(self.layer_spec, self.tasks):
            end = start + fan_in * fan_out
            pairs.append((flat[start:end].reshape(fan_in, fan_out), flat[end:end + fan_out]))
            start = end + fan_out
        n_phi = len(self.layer_spec) - 2
        # a frozen dataclass's __post_init__ sets fields this way
        object.__setattr__(self, "phi", tuple(pairs[:n_phi]))
        object.__setattr__(self, "psi", pairs[n_phi])
        omega = dict(zip(self.tasks, pairs[n_phi + 1:]))
        object.__setattr__(self, "omega", MappingProxyType(omega))

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


def _n_params(spec: List[int], tasks: Sequence[str]) -> int:
    """Length of the buffer, in Python ints: the sizes of every W and b."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in _layer_shapes(spec, tasks))


def init_params(spec: Sequence[int], seed: int,
                tasks: Sequence[str] = ST_TASKS) -> ModelParams:
    """Build model parameters for a layer-size chain like [256, 128, 64, K].

    All sizes through the latent belong to the extractor; the final pair is
    the label head. Auxiliary heads map the latent to each task's classes.
    Deterministic in the seed.
    """
    # what no checkpoint could hold is refused, and the header holds Python ints
    header = CheckpointHeader(spec, seed, tasks, step_count=0)
    spec, tasks = list(header.layer_spec), header.tasks
    params = ModelParams(spec, header.seed, tasks, np.zeros(_n_params(spec, tasks)))
    gen = rng(header.seed)
    for w, _ in params.pairs():
        # Kaiming-style fan-in scaling: uniform with std sqrt(2/fan_in)
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = gen.uniform(-limit, limit, w.shape)
    return params


def clone_params(params: ModelParams) -> ModelParams:
    """The model over a copy of the buffer, so further training leaves the
    original intact."""
    return replace(params, flat=params.flat.copy())


def forward(params: ModelParams, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Latent representation g(x), ReLU after every extractor layer, and
    the activations :func:`trunk_grads` takes it back through: the input,
    then each layer's output, the last being the latent. Each output is
    formed in place, so the pass holds nothing else."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.input_dim:
        raise ValueError(f"input width {h.shape} does not match input dim {params.input_dim}")
    acts = [h]
    for w, b in params.phi:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def trunk_grads(params: ModelParams, acts: List[np.ndarray], dz: np.ndarray) -> List[Pair]:
    """Each extractor layer's (dW, db), given the gradient ``dz`` of the
    latent of :func:`forward`'s ``acts``: walking the layers back, the mask
    of the layer's positive outputs (those of its pre-activations), then
    db = sum of g's rows, dW = h^T g and, below every layer but the first,
    g W^T. The input gets no gradient."""
    g = dz
    grads: List[Pair] = []
    for i in reversed(range(len(params.phi))):
        g = g * (acts[i + 1] > 0.0)
        grads.append((acts[i].T @ g, g.sum(axis=0)))
        g = g @ params.phi[i][0].T if i > 0 else None
    return grads[::-1]


def features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The latent g(x) of :func:`forward` (evaluation)."""
    return forward(params, x)[0]


def predict_logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Label-head logits on g(x) (evaluation)."""
    w, b = params.psi
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
    """SGD-with-momentum or Adam settings and state for one model.

    The state is laid out like ``ModelParams.flat``: ``_m`` (SGD's momentum
    or Adam's first moment) and Adam's ``_v`` are float64 buffers of the
    buffer's length, entry for entry, allocated by the first :func:`step`,
    as is ``_work``, two rows of that length that hold the update's
    intermediates, so a step allocates no array the size of the model.
    """

    kind: Literal[OPTIMIZERS] = "adam"
    lr: Positive = 1e-3
    momentum: Share = 0.9
    weight_decay: Weight = 1e-5
    step_count: Annotated[int, Range(0)] = 0
    _m: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _v: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _work: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_fields(self)


def step(params: ModelParams, opt: OptimState,
         grads: Sequence[Optional[np.ndarray]]) -> None:
    """Apply one optimizer update in place from one gradient per parameter,
    in :meth:`ModelParams.all_tensors` order; a head the objective did not
    use has None and is left as it is, its moments too.

    Each maximal run of adjacent parameters whose gradient is set is one
    slice of the buffer, updated in place from the run's gradients joined
    end to end. Every entry goes through the operations of the per-array
    update, ``g + wd * t``, ``b1 * m + (1 - b1) * g``, ...,
    ``t - lr * m_hat / (sqrt(v_hat) + eps)``, in their order; each product
    and sum is formed with its operands swapped where that lets it land in
    place, which rounds to the same double, so the bytes are the same.
    """
    tensors = params.all_tensors()
    if len(grads) != len(tensors):
        raise ValueError(f"got {len(grads)} gradients for {len(tensors)} parameters")
    flat = params.flat
    # [start, end) of the buffer and the gradients of each run
    runs: List[list] = []
    end = 0
    for t, g in zip(tensors, grads):
        start, end = end, end + t.size
        if g is None:
            continue
        if g.shape != t.shape:
            raise ValueError(f"gradient of shape {g.shape} for a parameter of shape {t.shape}")
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
            runs[-1][2].append(g.ravel())
        else:
            runs.append([start, end, [g.ravel()]])
    if not runs:
        raise ValueError("no parameter has a gradient")
    if opt._m is None:
        opt._m = np.zeros_like(flat)
        opt._v = np.zeros_like(flat) if opt.kind == "adam" else None
        opt._work = np.empty((2, flat.size))
    elif opt._m.size != flat.size:
        raise ValueError(f"optimizer state holds moments for {opt._m.size} parameters, "
                         f"the model has {flat.size}")
    opt.step_count += 1
    m_scale = 1 - ADAM_BETA1 ** opt.step_count
    v_scale = 1 - ADAM_BETA2 ** opt.step_count
    for start, end, run in runs:
        t, m = flat[start:end], opt._m[start:end]
        a, c = opt._work[0, start:end], opt._work[1, start:end]
        # g is the caller's array or c, which is free again once the moments have it
        g = run[0] if len(run) == 1 else np.concatenate(run, out=c)
        if opt.weight_decay > 0:
            np.multiply(t, opt.weight_decay, out=a)
            g = np.add(g, a, out=c)
        if opt.kind == "sgd_momentum":
            m *= opt.momentum
            m += g
            t -= np.multiply(m, opt.lr, out=a)
        else:
            v = opt._v[start:end]
            m *= ADAM_BETA1
            m += np.multiply(g, 1 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1 - ADAM_BETA2, out=a)
            v += np.multiply(a, g, out=a)
            # a: sqrt(v_hat) + eps; c: lr * m_hat, then the step
            np.sqrt(np.divide(v, v_scale, out=a), out=a)
            a += ADAM_EPS
            np.divide(m, m_scale, out=c)
            c *= opt.lr
            t -= np.divide(c, a, out=c)


# ---------------------------------------------------------------------------
# checkpoint file: one JSON header line, then raw little-endian float64 blob
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, step_count: int = 0) -> None:
    header = CheckpointHeader(params.layer_spec, params.seed, params.tasks, step_count)
    with open(path, "wb") as f:
        f.write(json.dumps(asdict(header)).encode("utf-8"))
        f.write(b"\n")
        f.write(params.flat.astype("<f8", copy=False).tobytes())


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
    n_bytes = 8 * _n_params(header.layer_spec, header.tasks)
    if blob_bytes != n_bytes:
        raise ValueError(
            f"checkpoint {path} holds {blob_bytes} parameter bytes, expected {n_bytes}")
    # the blob is read once into the buffer; a big-endian host converts it
    flat = np.fromfile(path, dtype="<f8", offset=len(line)).astype(np.float64, copy=False)
    return ModelParams(list(header.layer_spec), header.seed, header.tasks, flat), header.step_count
