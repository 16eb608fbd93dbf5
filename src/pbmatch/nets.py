"""MLP predictive model: shared feature extractor, label head, auxiliary heads.

The feature extractor maps flattened images to a latent vector through
ReLU dense layers; the label head and each pretext-task head are single
dense layers on the latent. All heads share the extractor parameters, so
a step driven by any head moves the shared trunk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from pbmatch.tensor import Tensor, node, tracked
from pbmatch.transforms import ST_TASKS, _ST_OPS

# pretext task identifier -> number of prediction classes, one per task label
TASK_CLASSES = {task: _ST_OPS[task][1] for task in ST_TASKS}


@dataclass
class ModelParams:
    """Parameters of the feature extractor (phi), label head (psi), and task heads (omega)."""

    phi: List[Tuple[Tensor, Tensor]]
    psi: Tuple[Tensor, Tensor]
    omega: Dict[str, Tuple[Tensor, Tensor]]
    layer_spec: List[int]
    seed: int
    tasks: Tuple[str, ...]

    @property
    def input_dim(self) -> int:
        return self.layer_spec[0]

    @property
    def n_classes(self) -> int:
        return self.layer_spec[-1]

    def all_tensors(self) -> List[Tensor]:
        """Every parameter tensor in declaration order: phi, psi, then task heads."""
        out: List[Tensor] = []
        for w, b in self.phi:
            out.extend([w, b])
        out.extend(self.psi)
        for task in self.tasks:
            out.extend(self.omega[task])
        return out

    def head_tensors(self, head: str) -> List[Tensor]:
        if head == "label":
            return list(self.psi)
        if head in self.omega:
            return list(self.omega[head])
        raise ValueError(f"unknown head: {head!r} (have label, {', '.join(self.omega)})")

    def zero_grads(self) -> None:
        for t in self.all_tensors():
            t.zero_grad()


def _dense_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tuple[Tensor, Tensor]:
    # Kaiming-style fan-in scaling: uniform with std sqrt(2/fan_in)
    limit = np.sqrt(6.0 / fan_in)
    w = Tensor(rng.uniform(-limit, limit, (fan_in, fan_out)), requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


def _checked_spec(spec: Sequence[int], tasks: Sequence[str]) -> List[int]:
    """The layer sizes as ints, once they and the task names are usable."""
    spec = [int(s) for s in spec]
    if len(spec) < 2:
        raise ValueError("layer spec needs at least input and output sizes")
    if any(s < 1 for s in spec):
        raise ValueError(f"all layer sizes must be >= 1, got {spec}")
    for task in tasks:
        if task not in TASK_CLASSES:
            raise ValueError(f"unknown task: {task!r}")
    return spec


def init_params(spec: Sequence[int], seed: int,
                tasks: Sequence[str] = ST_TASKS) -> ModelParams:
    """Build model parameters for a layer-size chain like [256, 128, 64, K].

    All sizes through the latent belong to the extractor; the final pair is
    the label head. Auxiliary heads map the latent to each task's classes.
    Deterministic in the seed.
    """
    spec = _checked_spec(spec, tasks)
    rng = np.random.default_rng(seed)
    phi = [_dense_init(rng, spec[i], spec[i + 1]) for i in range(len(spec) - 2)]
    psi = _dense_init(rng, spec[-2], spec[-1])
    omega = {task: _dense_init(rng, spec[-2], TASK_CLASSES[task]) for task in tasks}
    return ModelParams(phi=phi, psi=psi, omega=omega, layer_spec=spec,
                       seed=int(seed), tasks=tuple(tasks))


def clone_params(params: ModelParams) -> ModelParams:
    """Deep-copy parameters so further training leaves the original intact."""
    def pair(p: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        return (Tensor(p[0].data.copy(), requires_grad=p[0].requires_grad),
                Tensor(p[1].data.copy(), requires_grad=p[1].requires_grad))

    return ModelParams(phi=[pair(p) for p in params.phi], psi=pair(params.psi),
                       omega={t: pair(p) for t, p in params.omega.items()},
                       layer_spec=list(params.layer_spec), seed=params.seed,
                       tasks=params.tasks)


def features(params: ModelParams, x: Tensor) -> Tensor:
    """Latent representation g(x); ReLU after every extractor layer.

    The layers run over plain arrays and the trunk is recorded as one tape
    node whose parents are ``x`` and every (W, b) of the extractor. Its rule
    walks the layers back: the mask of positive pre-activations, then
    dW = h^T g, db = sum of g's rows and, below the first layer or for a
    tracked input, g W^T.
    """
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input width {x.shape} does not match input dim {params.input_dim}")
    h = x.data
    layers = []
    for w, b in params.phi:
        a = h @ w.data + b.data
        mask = a > 0.0
        layers.append((h, w.data, mask))
        h = np.maximum(a, 0.0)

    def rule(g):
        grads = []
        for i in reversed(range(len(layers))):
            h_in, w, mask = layers[i]
            g = g * mask
            grads += [g.sum(axis=0), h_in.T @ g]
            g = g @ w.T if i > 0 or tracked(x) else None
        return (g, *reversed(grads))

    return node(h, (x, *[t for layer in params.phi for t in layer]), rule)


def forward(params: ModelParams, x: Tensor, head: Optional[str] = "label") -> Tensor:
    """Logits of the requested head applied to g(x), the head recorded as
    one node over the latent and its (W, b); ``head=None`` returns the
    latent g(x) itself, for callers that route its rows to several heads."""
    z = features(params, x)
    if head is None:
        return z
    w, b = params.head_tensors(head)
    return node(z.data @ w.data + b.data, (z, w, b),
                lambda g: (g @ w.data.T, z.data.T @ g, g.sum(axis=0)))


def predict_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Tape-free extractor output g(x) over plain arrays."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.input_dim:
        raise ValueError(f"input width {h.shape} does not match input dim {params.input_dim}")
    for w, b in params.phi:
        h = np.maximum(h @ w.data + b.data, 0.0)
    return h


def predict_logits(params: ModelParams, x: np.ndarray, head: str = "label") -> np.ndarray:
    """Tape-free inference path over plain arrays (evaluation)."""
    w, b = params.head_tensors(head)
    return predict_features(params, x) @ w.data + b.data


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


@dataclass
class OptimState:
    """SGD-with-momentum or Adam state over a fixed parameter list."""

    kind: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-5
    step_count: int = 0
    _m: List[np.ndarray] = field(default_factory=list)
    _v: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("sgd_momentum", "adam"):
            raise ValueError(f"unknown optimizer kind: {self.kind!r}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


def step(params: ModelParams, opt: OptimState) -> None:
    """Apply one optimizer update from the accumulated gradients.

    Gradients are left untouched; the caller zeroes them.
    """
    tensors = params.all_tensors()
    if all(t.grad is None for t in tensors):
        raise ValueError("no parameter has a gradient; run backward first")
    if not opt._m:
        opt._m = [np.zeros_like(t.data) for t in tensors]
        opt._v = [np.zeros_like(t.data) for t in tensors]
    opt.step_count += 1
    t_count = opt.step_count
    for i, t in enumerate(tensors):
        # heads untouched by the current objective carry no gradient; skip them
        if t.grad is None:
            continue
        g = t.grad
        if opt.weight_decay > 0:
            g = g + opt.weight_decay * t.data
        if opt.kind == "sgd_momentum":
            opt._m[i] = opt.momentum * opt._m[i] + g
            t.data -= opt.lr * opt._m[i]
        else:
            opt._m[i] = ADAM_BETA1 * opt._m[i] + (1 - ADAM_BETA1) * g
            opt._v[i] = ADAM_BETA2 * opt._v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = opt._m[i] / (1 - ADAM_BETA1 ** t_count)
            v_hat = opt._v[i] / (1 - ADAM_BETA2 ** t_count)
            t.data -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoint file: one JSON header line, then raw little-endian float64 blob
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, step_count: int = 0) -> None:
    header = {
        "layer_spec": params.layer_spec,
        "seed": params.seed,
        "tasks": list(params.tasks),
        "step_count": int(step_count),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        for t in params.all_tensors():
            f.write(t.data.astype("<f8").tobytes())


_HEADER_KEYS = ("layer_spec", "seed", "tasks", "step_count")
# longest header line read, newline included; a real header is a few hundred bytes
_MAX_HEADER_BYTES = 1 << 16


def load_checkpoint(path) -> Tuple[ModelParams, int]:
    """Read a file written by :func:`save_checkpoint`.

    A header line longer than ``_MAX_HEADER_BYTES``, a header that is not
    a JSON object with every key and usable values, or a parameter blob of
    the wrong byte length raises ``ValueError`` naming the file.
    """
    with open(path, "rb") as f:
        line = f.readline(_MAX_HEADER_BYTES + 1)
    if len(line) > _MAX_HEADER_BYTES:
        raise ValueError(
            f"checkpoint {path} header line is longer than {_MAX_HEADER_BYTES} bytes")
    # the blob is sized before it is read
    blob_bytes = os.path.getsize(path) - len(line)
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"checkpoint {path} has no JSON header line: {e}") from e
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path} header must be a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ValueError(f"checkpoint {path} header is missing keys: {missing}")
    try:
        spec = _checked_spec(header["layer_spec"], header["tasks"])
        step_count = int(header["step_count"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {path} header is malformed: {e}") from e
    # the blob length the header implies, in Python ints: a header naming
    # huge layers fails here, before any parameter is allocated
    layers = list(zip(spec[:-1], spec[1:]))
    layers += [(spec[-2], TASK_CLASSES[task]) for task in header["tasks"]]
    n_bytes = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in layers)
    if blob_bytes != n_bytes:
        raise ValueError(
            f"checkpoint {path} holds {blob_bytes} parameter bytes, expected {n_bytes}")
    try:
        params = init_params(spec, header["seed"], tasks=header["tasks"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {path} header is malformed: {e}") from e
    flat = np.fromfile(path, dtype="<f8", offset=len(line))
    offset = 0
    for t in params.all_tensors():
        n = t.data.size
        t.data = flat[offset:offset + n].reshape(t.data.shape).astype(np.float64)
        offset += n
    return params, step_count
