"""Outside-in tracing: spans around the calls the trainer makes into each
layer, recorded by replacing module globals for the length of one pass.

``training`` and ``losses`` call the other modules' entry points through
names bound in their own namespaces (``from .nets import forward``), so
rebinding those names in the calling module times every call without
touching the library. ``remove()`` puts every original object back.

A span is ``[name, start, end, parent, run, work]``: times from
``time.perf_counter``, the index of the enclosing span (-1 for none), the
run it belongs to (``setup<i>`` or ``unit<i>``), and a count of the work
it did (input rows, or tape nodes for ``tensor.backward``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, global name, span name, position of the argument whose leading
# dimension is the span's work, or None): the calls the trainer makes into
# each layer. Names in ``training`` are the ones train(), _build_bundle(),
# _dm_step(), evaluate() and the workload helpers look up at call time.
LAYER_CALLS: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("training", "generate_glyph_pair", "datasets.generate", None),
    ("training", "generate_blob_pair", "datasets.generate", None),
    ("training", "resample_lds", "benchmarks.construct", None),
    ("training", "_build_bundle", "training.assembly", None),
    ("training", "apply_semantic_preserving", "transforms.sp", 0),
    ("training", "apply_semantic_transforming", "transforms.st", 0),
    ("training", "predict_logits", "nets.predict", 1),
    ("training", "features", "nets.forward", 1),
    ("training", "evaluate", "training.eval", None),
    ("training", "total_objective", "losses.objective", None),
    ("training", "cross_entropy", "losses.cross_entropy", None),
    ("training", "mmd_distance", "losses.mmd", None),
    ("training", "coral_distance", "losses.coral", None),
    ("training", "step", "nets.optimizer", None),
    ("training", "backward", "tensor.backward", None),
    ("losses", "forward", "nets.forward", 1),
)

# spans for the tracer's own work inside train(); their time is overhead
TRACER_PREFIX = "trace."


def _leading(a) -> int:
    """Rows of an array, a Tensor or an ImageBatch."""
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape is not None else len(a)


def tape_nodes(loss) -> int:
    """Distinct nodes reachable from ``loss`` through the recorded tape."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[list] = []
        self.run = ""
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []
        # traced names the library no longer has; their layers read 0
        self.missing: List[str] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, work: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run, work])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str, work: int = 0):
        index = self.open(name, work)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, rows_arg: Optional[int]) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name, 0 if rows_arg is None else _leading(args[rows_arg]))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _wrap_backward(self, fn: Callable) -> Callable:
        def wrapper(loss):
            with self.span(TRACER_PREFIX + "tape_count"):
                nodes = tape_nodes(loss)
            index = self.open("tensor.backward", nodes)
            try:
                return fn(loss)
            finally:
                self.close(index)
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, rows_arg in LAYER_CALLS:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            wrapped = (self._wrap_backward(fn) if name == "tensor.backward"
                       else self._wrap(fn, name, rows_arg))
            setattr(module, attr, wrapped)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def removed_cleanly(self, originals: Sequence[Tuple[object, str, object]]) -> bool:
        """True when every name in ``originals`` holds its original object."""
        return not self._originals and all(
            getattr(module, attr, None) is fn for module, attr, fn in originals)


def snapshot(modules: Dict[str, object]) -> List[Tuple[object, str, object]]:
    """The objects every traced name is bound to now."""
    return [(modules[m], attr, getattr(modules[m], attr, None))
            for m, attr, _, _ in LAYER_CALLS]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread, properly closed), so children never overlap
    and the self times of a tree add up to its root's duration.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans: Sequence[Sequence], runs: Callable[[str], bool]
                 ) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Self time, call count and work per span name, over spans that lie
    inside a ``training.train`` span of a selected run; and the wall time
    of those ``training.train`` spans, less the spans of other runs (set-ups)
    nested in them."""
    own = self_times(spans)
    inside = [False] * len(spans)
    totals: Dict[str, Dict[str, float]] = {}
    train_wall = 0.0
    for i, (name, start, end, parent, run, work) in enumerate(spans):
        if not runs(run):
            if parent >= 0 and inside[parent]:
                train_wall -= end - start
            continue
        if name == "training.train":
            inside[i] = True
            if parent < 0 or not inside[parent]:
                train_wall += end - start
            continue
        inside[i] = parent >= 0 and inside[parent]
        if not inside[i]:
            continue
        t = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "work": 0})
        t["self_s"] += own[i]
        t["calls"] += 1
        t["work"] += work
    return totals, train_wall


def call_mean_s(spans: Sequence[Sequence], name: str) -> float:
    """Mean duration of every span with this name, or 0.0 if none ran."""
    durations = [s[2] - s[1] for s in spans if s[0] == name]
    return sum(durations) / len(durations) if durations else 0.0


def coverage(totals: Dict[str, Dict[str, float]], train_wall: float) -> float:
    """Share of training wall time that layer spans account for; the
    tracer's own spans are taken out of both sides."""
    tracer_s = sum(t["self_s"] for n, t in totals.items() if n.startswith(TRACER_PREFIX))
    layer_s = sum(t["self_s"] for n, t in totals.items() if not n.startswith(TRACER_PREFIX))
    return layer_s / (train_wall - tracer_s)


def per_layer_metrics(totals: Dict[str, Dict[str, float]], steps: int,
                      epochs: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, each as (value, unit)."""
    def t(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ms_per_step(name: str) -> float:
        return t(name, "self_s") * 1000.0 / steps

    mmd_calls = t("losses.mmd", "calls")
    return {
        "transforms.sp_ms_per_step": (ms_per_step("transforms.sp"), "ms"),
        "transforms.sp_rows_per_step": (t("transforms.sp", "work") / steps, "count"),
        "transforms.st_ms_per_step": (ms_per_step("transforms.st"), "ms"),
        "transforms.st_rows_per_step": (t("transforms.st", "work") / steps, "count"),
        "training.assembly_ms_per_step": (ms_per_step("training.assembly"), "ms"),
        "nets.forward_calls_per_step": (t("nets.forward", "calls") / steps, "count"),
        "nets.forward_rows_per_step": (t("nets.forward", "work") / steps, "count"),
        "nets.forward_ms_per_step": (ms_per_step("nets.forward"), "ms"),
        "nets.predict_calls_per_epoch": (t("nets.predict", "calls") / epochs, "count"),
        "nets.predict_ms_per_epoch": (t("nets.predict", "self_s") * 1000.0 / epochs, "ms"),
        "training.eval_ms_per_epoch": (t("training.eval", "self_s") * 1000.0 / epochs, "ms"),
        "nets.optimizer_ms_per_step": (ms_per_step("nets.optimizer"), "ms"),
        "tensor.backward_ms_per_step": (ms_per_step("tensor.backward"), "ms"),
        "tensor.tape_nodes_per_step": (t("tensor.backward", "work") / steps, "count"),
        "losses.objective_ms_per_step": (ms_per_step("losses.objective"), "ms"),
        "losses.mmd_ms_per_call": (
            t("losses.mmd", "self_s") * 1000.0 / mmd_calls if mmd_calls else 0.0, "ms"),
    }
