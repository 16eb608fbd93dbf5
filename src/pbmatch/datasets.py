"""Deterministic synthetic domain pairs.

Two families: 16x16 procedural glyph images whose rendering knobs create a
controllable domain gap, and 2-D Gaussian blob pairs with identical
class-conditionals but different label priors (pure label shift).
``regenerate`` rebuilds a glyph or blob domain bit-identically from its
recorded metadata; a benchmark target's metadata (its ``benchmark`` key)
is refused, and such a target is rebuilt by running its recorded spec on
the regenerated pair. Pixel values are quantized to 32-bit float
precision at generation time so the on-disk format round-trips exactly.
A dataset holds its samples in one float64 array, [n, H, W] images or
[n, d] points, checked once when the dataset is built; outlier pools are
plain [n, H, W] arrays.

A glyph sample's random draws, its shift and then its noise field, come
from its own stream ``rng(seed, idx)`` (built by ``transforms.rngs``);
everything else about the images is built for all the rendered rows at
once, with the same bytes as rendering each sample alone. So any subset of
a domain's rows renders alone, from the same per-sample streams, to the
bytes of those rows of the whole domain: a benchmark target built from a
``LazyGlyphDomain`` renders only the rows its constructor keeps.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import numbers
import re
import sys
import typing
from collections import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Dict, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from .transforms import rng, rngs

CANVAS = 16
INK_LEVEL = 0.95
MAX_CLASSES = 6
MAX_SUB_STYLES = 4
DOMAIN_ROLES = ("source", "target")
OUTLIER_LABEL = -1


def _quantize(x: np.ndarray) -> np.ndarray:
    """Round to exactly representable 32-bit values (disk format precision)."""
    return x.astype(np.float32).astype(np.float64)


# ---------------------------------------------------------------------------
# the JSON boundary: every config and spec is read through ``checked``
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    # an exact type is judged first, since the ABC checks cost more
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_float(v) -> bool:
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class Range:
    """The interval of a number field, in its hint: ``Annotated[float,
    Range(0, 1, high_open=True)]``; no ``high`` is no upper bound."""

    low: float
    high: Optional[float] = None
    low_open: bool = False
    high_open: bool = False

    def __call__(self, v) -> bool:
        return ((v > self.low if self.low_open else v >= self.low)
                and (self.high is None or (v < self.high if self.high_open else v <= self.high)))

    def __str__(self) -> str:
        if self.high is None:
            return f"{'>' if self.low_open else '>='} {self.low}"
        return f"in {'(['[not self.low_open]}{self.low}, {self.high}{')]'[not self.high_open]}"


# the rules that several fields share
Weight = Annotated[float, Range(0)]
Positive = Annotated[float, Range(0, low_open=True)]
Count = Annotated[int, Range(1)]
Share = Annotated[float, Range(0, 1, high_open=True)]
# transforms.rng refuses a seed outside [0, 2**32), so a wider seed is refused,
# not aliased; a glyph pair renders its target from its seed + 1
Seed = Annotated[int, Range(0, 2**32 - 1)]
PairSeed = Annotated[int, Range(0, 2**32 - 2)]

# hint -> (check, one value in words, several in words)
_SCALARS = {
    int: (_is_int, "an integer", "integers"),
    # finite: NaN, the infinities and an int past every float are no setting;
    # an int is stored as a float, so it must be one that a float holds exactly
    float: (lambda v: abs(v) <= sys.float_info.max and float(v) == int(v) if _is_int(v) else
            _is_float(v) and math.isfinite(v), "a finite number", "finite numbers"),
    bool: (lambda v: isinstance(v, bool), "true or false", "true or false values"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
    type(None): (lambda v: v is None, "null", "nulls"),
    # a free-form object, taken as it is
    dict: (lambda v: isinstance(v, dict), "an object", "objects"),
}


class _Misfit(Exception):
    """``args[0]`` is the value, or the part of it, that fits no hint."""


def _want(hint, plural: bool = False) -> str:
    """What a JSON value of type ``hint`` must be, in words; a hint that
    :func:`checked` cannot check raises ``TypeError``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        return _SCALARS[hint][2 if plural else 1]
    if origin is Annotated:
        return f"{_want(args[0], plural)} {args[1]}"
    if origin is Literal and all(isinstance(a, str) for a in args):
        return f"one of {args}"
    if origin is Union:
        return " or ".join(_want(h, plural) for h in args)
    if origin is abc.Sequence or origin is tuple and args[1:] == (...,):
        return f"{'lists' if plural else 'a list'} of {_want(args[0], True)}" + (
            "" if plural else " (not empty)")
    if origin is tuple and not args:
        return "empty lists" if plural else "an empty list"
    if origin is tuple and len(set(args)) == 1:
        return f"{'lists' if plural else 'a list'} of {len(args)} {_want(args[0], True)}"
    if origin is tuple:
        return f"{'lists' if plural else 'a list'} of {' and '.join(map(_want, args))}"
    if origin is dict and args[0] is int:
        return f"{'objects' if plural else 'an object'} mapping integers to {_want(args[1], True)}"
    if dataclasses.is_dataclass(hint):
        return f"{hint.__name__} objects" if plural else f"a {hint.__name__} object"
    raise TypeError(f"no JSON check for the type hint {hint!r}")


def _fit(hint, v, what: Optional[str]):
    """``v`` in its JSON form as a value of type ``hint``: a number becomes
    a Python int or float (a float field's int too), a list (or numpy
    array) a tuple, and an object a dict or, through :func:`checked_object`
    with ``what`` naming it, a dataclass; with ``what`` None, no object is
    read as a dataclass."""
    origin = typing.get_origin(hint)
    if origin is None and hint in _SCALARS:
        if not _SCALARS[hint][0](v):
            raise _Misfit(v)
        return hint(v) if hint in (int, float) else v
    if origin is Annotated:
        fitted = _fit(hint.__origin__, v, what)
        if not hint.__metadata__[0](fitted):
            raise _Misfit(v)
        return fitted
    args = typing.get_args(hint)
    if origin is Literal:
        if not (isinstance(v, str) and v in args):
            raise _Misfit(v)
        return v
    if origin is Union:
        if v is None and type(None) in args:
            return v
        parts = []  # not the exceptions, whose tracebacks would pin these frames in a cycle
        for h in args:
            try:
                return _fit(h, v, what)
            except _Misfit as e:
                parts.append(e.args[0])
        # name the deepest part that fits no alternative
        raise _Misfit(next((p for p in parts if p is not v), v))
    if origin in (abc.Sequence, tuple):
        if not (isinstance(v, (list, tuple, np.ndarray)) and (len(v) > 0 or not args)):
            raise _Misfit(v)
        items = args[:1] * len(v) if origin is abc.Sequence or args[1:] == (...,) else args
        if len(items) != len(v):
            raise _Misfit(v)
        return tuple(_fit(h, x, what) for h, x in zip(items, v))
    if origin is dict:
        if not isinstance(v, dict):
            raise _Misfit(v)
        # a JSON object's keys are strings, so an int key is written as one
        return {_fit(int, int(k) if re.fullmatch(r"-?[0-9]+", str(k)) else k, what):
                _fit(args[1], x, what) for k, x in v.items()}
    if dataclasses.is_dataclass(hint):
        if isinstance(v, hint):
            return v
        if what is None or not isinstance(v, dict):
            raise _Misfit(v)
        return checked_object(hint, v, what)
    raise TypeError(f"no JSON check for the type hint {hint!r}")


def checked(target, d, what: str) -> Dict:
    """The JSON object ``d`` as keyword arguments of ``target``, a dataclass
    or a function, each value checked against its type hint.

    An unknown key, a missing required key, or a value that does not fit
    its hint raises ``ValueError`` naming ``what`` and the key: an int
    takes no float or bool, a float is finite, a bool is only true or
    false, a list is not empty (but ``Tuple[()]``), and a ``Literal`` or a
    :class:`Range` in ``Annotated`` states the values a field takes. Values
    come back in their JSON form (see :func:`_fit`), and an object for a
    dataclass is read by :func:`checked_object`, named ``what`` and its key.
    A keyword-only parameter is for Python callers and is no JSON key. A
    parameter whose hint cannot be checked raises ``TypeError`` on every
    call, whatever ``d`` holds.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {type(d).__name__}")
    params = {name: (hint, required, want) for name, hint, required, want in _params(target)}
    unknown = sorted(set(d) - set(params))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = [name for name, (_, required, _) in params.items() if required and name not in d]
    if missing:
        raise ValueError(f"{what} is missing required keys: {missing}")
    kwargs = {}
    for name, v in d.items():
        hint, _, want = params[name]
        try:
            kwargs[name] = _fit(hint, v, f"{what} {name}")
        except _Misfit as e:
            part = e.args[0]
            raise ValueError(
                f"{what} field {name!r} must be {want}, got {v!r}" if part is v
                else f"{what} field {name!r} holds {part!r}, but {name} must be {want}"
            ) from None
    return kwargs


def checked_object(cls, d, what: str):
    """The dataclass ``cls`` built from the JSON object ``d`` by :func:`checked`,
    the one route from JSON to a dataclass; a rule of ``cls`` across its
    fields that refuses it names ``what`` too. ``dataclasses.asdict`` writes
    it back."""
    kwargs = checked(cls, d, what)
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from None


def check_fields(obj) -> None:
    """Hold a dataclass built in Python to the JSON rules of
    :func:`checked`, rules in ``Literal`` and :class:`Range` included: a
    field that does not fit its hint raises ``ValueError`` naming it and
    its rule, where ``int()`` or truthiness would turn a float or a bool
    into another value. Each value is checked, then stored in its JSON form
    (see :func:`_fit`): a list or a numpy array becomes a tuple and a numpy
    number a Python one, so ``dataclasses.asdict`` of ``obj`` is JSON. A
    dict for a dataclass field is refused, not read."""
    for name, hint, _, want in _params(type(obj)):
        v = getattr(obj, name)
        try:
            # a frozen dataclass's __post_init__ sets fields this way too
            object.__setattr__(obj, name, _fit(hint, v, None))
        except _Misfit:
            raise ValueError(f"{name} must be {want}, got {v!r}") from None


@functools.lru_cache(maxsize=None)
def _params(target) -> Tuple[Tuple[str, object, bool, str], ...]:
    """(name, hint, required, the hint in words) of each JSON parameter of
    ``target``, a function or a dataclass (its ``__init__`` fields); resolved
    once per target, since resolving hints is slow and configs are built at
    every run's start. A hint :func:`_want` cannot check raises each call."""
    # without the extras, get_type_hints strips every Range from its hint
    hints = typing.get_type_hints(target, include_extras=True)
    return tuple((name, hints.get(name), p.default is p.empty, _want(hints.get(name)))
                 for name, p in inspect.signature(target).parameters.items()
                 if p.kind is p.POSITIONAL_OR_KEYWORD)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass
class DomainDataset:
    """Labeled sample collection for one side of a domain pair.

    ``images`` is one float64 array, and its rank says what it holds:
    [n, H, W] grayscale images (glyph data; at least 4x4, values in
    [0, 1]) or [n, d] points (blob data; finite). Every dataset is checked
    here, whether generated, subset, injected or loaded, so code that reads
    one need not check it again. Label -1 marks outlier rows with no valid
    class (they are excluded from accuracy denominators).
    """

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    domain_role: str
    sublabels: Optional[np.ndarray] = None
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.domain_role not in DOMAIN_ROLES:
            raise ValueError(f"domain_role must be one of {DOMAIN_ROLES}, got {self.domain_role!r}")
        if not (_is_int(self.class_count) and self.class_count >= 1):
            raise ValueError(f"class_count must be an integer >= 1, got {self.class_count!r}")
        x = self.images = np.asarray(self.images, dtype=np.float64)
        if x.ndim == 3:
            if x.shape[1] < 4 or x.shape[2] < 4:
                raise ValueError(f"images must be at least 4x4, got {x.shape[1]}x{x.shape[2]}")
            # NaN fails every comparison, so the range test is written to fail on it
            if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
                raise ValueError("image values must be finite and lie in [0, 1]")
        elif x.ndim == 2:
            if not np.all(np.isfinite(x)):
                raise ValueError("point coordinates must be finite")
        else:
            raise ValueError(
                f"images must be [n, H, W] images or [n, d] points, got shape {x.shape}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.n_samples:
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.n_samples} samples")
        if self.labels.size and (self.labels.min() < OUTLIER_LABEL
                                 or self.labels.max() >= self.class_count):
            raise ValueError(
                f"labels must lie in [-1, {self.class_count}), got "
                f"{self.labels.min()}..{self.labels.max()}")
        if self.sublabels is not None:
            self.sublabels = np.asarray(self.sublabels, dtype=np.int64)
            if self.sublabels.shape != self.labels.shape:
                raise ValueError("sublabels must align with labels")
            for sub in np.unique(self.sublabels):
                owners = np.unique(self.labels[self.sublabels == sub])
                if owners.size != 1:
                    raise ValueError(
                        f"sublabel {sub} maps to several labels: {owners.tolist()}")

    @property
    def is_image(self) -> bool:
        return self.images.ndim == 3

    @property
    def n_samples(self) -> int:
        return self.images.shape[0]

    def x_flat(self) -> np.ndarray:
        """Row-major [n, D] feature view (pixels or point coordinates)."""
        return self.images.reshape(self.n_samples, -1)

    def take(self, indices: np.ndarray) -> "DomainDataset":
        """Row subset in the given order; metadata is carried over."""
        indices = np.asarray(indices)
        return DomainDataset(
            images=self.images[indices], labels=self.labels[indices],
            class_count=self.class_count, domain_role=self.domain_role,
            sublabels=None if self.sublabels is None else self.sublabels[indices],
            metadata=dict(self.metadata))


@dataclass(frozen=True)
class GlyphDomainSpec:
    """Rendering recipe for one glyph domain; knobs carry the domain shift."""

    n_classes: Annotated[int, Range(2, MAX_CLASSES)] = 4
    sub_styles: Annotated[int, Range(1, MAX_SUB_STYLES)] = 2
    samples_per_class: Count = 100
    stroke_thickness: Annotated[int, Range(1, 3)] = 1
    background: Annotated[float, Range(0, 0.5)] = 0.1
    invert: bool = False
    noise: Annotated[float, Range(0, 0.3)] = 0.05
    jitter: Annotated[float, Range(0, 3)] = 1.0
    seed: Seed = 0

    def __post_init__(self):
        check_fields(self)


# ---------------------------------------------------------------------------
# glyph rendering
# ---------------------------------------------------------------------------

_ROWS, _COLS = np.meshgrid(np.arange(CANVAS, dtype=np.float64),
                           np.arange(CANVAS, dtype=np.float64), indexing="ij")


def _segment_mask(r0, c0, r1, c1, thickness) -> np.ndarray:
    """Pixels within thickness/2 of the segment (crisp stroke)."""
    dr, dc = r1 - r0, c1 - c0
    length_sq = dr * dr + dc * dc
    if length_sq == 0.0:
        dist = np.hypot(_ROWS - r0, _COLS - c0)
    else:
        t = np.clip(((_ROWS - r0) * dr + (_COLS - c0) * dc) / length_sq, 0.0, 1.0)
        dist = np.hypot(_ROWS - (r0 + t * dr), _COLS - (c0 + t * dc))
    return dist <= thickness / 2.0 + 0.1


def _circle_mask(cr, cc, radius, thickness) -> np.ndarray:
    dist = np.hypot(_ROWS - cr, _COLS - cc)
    return np.abs(dist - radius) <= thickness / 2.0 + 0.1


# per-class stroke templates: line segments (r0,c0,r1,c1) and circles (cr,cc,rad)
_TEMPLATES: List[Tuple[List[Tuple[float, float, float, float]],
                       List[Tuple[float, float, float]]]] = [
    ([(3, 7.5, 12, 7.5), (7.5, 3, 7.5, 12)], []),            # cross
    ([(3, 4, 12, 4), (12, 4, 12, 11)], []),                  # corner
    ([], [(7.5, 7.5, 4.0)]),                                 # ring
    ([(3, 3, 12, 12)], []),                                  # slash
    ([(3, 3, 3, 12), (3, 7.5, 12, 7.5)], []),                # tee
    ([(3, 4, 12, 7.5), (3, 11, 12, 7.5)], []),               # vee
]


def _render_glyph_mask(class_idx: int, style: int, thickness: int) -> np.ndarray:
    segments, circles = _TEMPLATES[class_idx]
    mask = np.zeros((CANVAS, CANVAS), dtype=bool)
    for r0, c0, r1, c1 in segments:
        mask |= _segment_mask(r0, c0, r1, c1, thickness)
    for cr, cc, rad in circles:
        mask |= _circle_mask(cr, cc, rad, thickness)
    if style == 1:
        # serif: short caps across every segment endpoint; a tick on rings
        for r0, c0, r1, c1 in segments:
            for r, c in ((r0, c0), (r1, c1)):
                mask |= _segment_mask(r, c - 1.5, r, c + 1.5, thickness)
        for cr, cc, rad in circles:
            mask |= _segment_mask(cr - rad - 1.5, cc, cr - rad + 1.5, cc, thickness)
    elif style == 2:
        # double stroke: echo the glyph two pixels to the right
        echo = np.zeros_like(mask)
        echo[:, 2:] = mask[:, :-2]
        mask = mask | echo
    elif style == 3:
        # stippled stroke: keep pixels of one checker parity
        mask = mask & (((_ROWS + _COLS).astype(int) % 2) == 0)
    return mask


def _glyph_layout(spec: GlyphDomainSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's label and sub-style: balanced classes, class-major, with
    the sub-styles round-robin inside each class."""
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.samples_per_class)
    styles = np.tile(np.arange(spec.samples_per_class, dtype=np.int64) % spec.sub_styles,
                     spec.n_classes)
    return labels, styles


def generate_glyph_domain(spec: GlyphDomainSpec, domain_role: Literal[DOMAIN_ROLES], *,
                          rows: Optional[Sequence[int]] = None) -> DomainDataset:
    """Render one glyph domain: balanced classes, round-robin sub-styles.

    Sample ``idx`` draws its shift ``(dy, dx)`` and then its noise field
    from its own stream ``rng(spec.seed, idx)``; the images are then built
    for all the rendered rows at once. With ``rows``, a vector of indices
    in [0, n), only those samples are rendered, in that order: the bytes of
    ``generate_glyph_domain(spec, domain_role).take(rows)``.
    """
    labels, styles = _glyph_layout(spec)
    n = labels.size
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"rows must be a vector of row indices, got {rows.dtype} "
                             f"of shape {rows.shape}")
        outside = rows[(rows < 0) | (rows >= n)]
        if outside.size:
            raise ValueError(f"rows holds {outside[0]}, outside the domain's [0, {n})")
        labels, styles = labels[rows], styles[rows]
    s, jit = spec.sub_styles, int(round(spec.jitter))
    shifts = np.zeros((labels.size, 2), dtype=np.int64)
    # the noise fields first, each drawn into its image, then the levels added
    images = np.zeros((labels.size, CANVAS, CANVAS))
    if jit > 0 or spec.noise > 0.0:
        for i, gen in enumerate(rngs(spec.seed, np.arange(n) if rows is None else rows)):
            if jit > 0:
                # two scalar draws give the values of one draw of size 2
                shifts[i] = gen.integers(-jit, jit + 1), gen.integers(-jit, jit + 1)
            if spec.noise > 0.0:
                gen.standard_normal(out=images[i])
    if spec.noise > 0.0:
        # sigma * z is normal(0, sigma) but for its "0.0 +", which moves no
        # byte once the non-negative level is added
        images *= spec.noise
    # every (dy, dx) shift of every base mask, zero-filled where it moves in
    padded = np.pad(np.array([[_render_glyph_mask(c, st, spec.stroke_thickness)
                               for st in range(s)] for c in range(spec.n_classes)]),
                    ((0, 0), (0, 0), (jit, jit), (jit, jit)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (CANVAS, CANVAS), axis=(2, 3))
    ink = windows[labels, styles, jit - shifts[:, 0], jit - shifts[:, 1]]
    levels = (INK_LEVEL, spec.background)
    if spec.invert:
        levels = tuple(1.0 - level for level in levels)
    np.add(images, levels[0], out=images, where=ink)
    np.add(images, levels[1], out=images, where=~ink)
    np.clip(images, 0.0, 1.0, out=images)
    images[...] = images.astype(np.float32)  # _quantize, in place
    return DomainDataset(
        images=images, labels=labels,
        class_count=spec.n_classes, domain_role=domain_role,
        sublabels=labels * s + styles,
        metadata={"generator": "glyph", "spec": dataclasses.asdict(spec),
                  "domain_role": domain_role})


class LazyGlyphDomain:
    """A glyph domain's labels, with its images rendered only for the rows
    taken: ``take(rows)`` is ``generate_glyph_domain(spec,
    domain_role).take(rows)``, byte for byte, rendering just those rows.

    The long-tail constructors read its labels, sublabels and class count
    and call ``take`` as they do on a dataset, so a generated benchmark
    target renders only the rows it keeps.
    """

    def __init__(self, spec: GlyphDomainSpec, domain_role: Literal[DOMAIN_ROLES]):
        self.spec, self.domain_role = spec, domain_role
        self.labels, styles = _glyph_layout(spec)
        self.sublabels = self.labels * spec.sub_styles + styles
        self.class_count = spec.n_classes

    def take(self, rows: Sequence[int]) -> DomainDataset:
        return generate_glyph_domain(self.spec, self.domain_role, rows=rows)


def generate_glyph_pair(source: GlyphDomainSpec,
                        target: GlyphDomainSpec) -> Tuple[DomainDataset, DomainDataset]:
    """Source and target glyph domains; shapes must agree so only the
    rendering knobs differ."""
    if source.n_classes != target.n_classes:
        raise ValueError(
            f"class counts differ: {source.n_classes} vs {target.n_classes}")
    if source.sub_styles != target.sub_styles:
        raise ValueError(
            f"sub-style counts differ: {source.sub_styles} vs {target.sub_styles}")
    return (generate_glyph_domain(source, "source"),
            generate_glyph_domain(target, "target"))


def default_pair_specs(n_classes: Annotated[int, Range(2, MAX_CLASSES)] = 4,
                       sub_styles: Annotated[int, Range(1, MAX_SUB_STYLES)] = 2,
                       samples_per_class: Count = 100,
                       seed: PairSeed = 0
                       ) -> Tuple[GlyphDomainSpec, GlyphDomainSpec]:
    """Canonical shifted pair: thin strokes on a dark field vs thick strokes
    on a brighter, noisier field with more positional jitter.

    Knobs are set so a source-trained MLP lands well below its source
    accuracy on the target (a real but recoverable gap).
    """
    src = GlyphDomainSpec(
        n_classes=n_classes, sub_styles=sub_styles,
        samples_per_class=samples_per_class, stroke_thickness=1,
        background=0.08, invert=False, noise=0.04, jitter=1.0, seed=seed)
    tgt = GlyphDomainSpec(
        n_classes=n_classes, sub_styles=sub_styles,
        samples_per_class=samples_per_class, stroke_thickness=2,
        background=0.14, invert=False, noise=0.08, jitter=2.0, seed=seed + 1)
    return src, tgt


# ---------------------------------------------------------------------------
# blob pairs (pure label shift)
# ---------------------------------------------------------------------------

def _generate_blob_domain(K: Count, priors: Tuple[Weight, ...],
                          means: Tuple[Tuple[float, float], ...], spread: Weight,
                          n: Count, seed: Seed, *, role: str, what: str,
                          priors_key: str = "priors") -> DomainDataset:
    """One blob domain from parameters already checked against these hints.
    They are named as the keys of the metadata's "params", K included, and
    recorded there as given. Every blob path passes here, so the rules
    across them live here: a refusal names ``what`` and the key, the
    priors by ``priors_key``."""
    if len(priors) != K or abs(sum(priors) - 1.0) > 1e-9:
        raise ValueError(f"{what} field {priors_key!r} must be {K} non-negative values "
                         f"summing to 1, got {list(priors)}")
    if len(means) != K:
        raise ValueError(f"{what} field 'means' must be {K} 2-D points, got {len(means)}")
    gen = rng(seed, DOMAIN_ROLES.index(role))
    labels = gen.choice(K, size=n, p=np.asarray(priors))
    points = np.asarray(means)[labels] + gen.normal(0.0, spread, (n, 2))
    return DomainDataset(
        images=_quantize(points), labels=labels.astype(np.int64),
        class_count=K, domain_role=role,
        metadata={"generator": "blob", "domain_role": role,
                  "params": {"K": K, "priors": priors, "means": means, "spread": spread,
                             "n": n, "seed": seed}})


def generate_blob_pair(k: Count, source_priors: Sequence[Weight],
                       target_priors: Sequence[Weight],
                       means: Sequence[Tuple[float, float]], spread: Weight,
                       n: Count, seed: Seed) -> Tuple[DomainDataset, DomainDataset]:
    """2-D Gaussian clusters with shared class-conditionals and per-domain
    label priors; a refusal names the key of this function's arguments."""
    args = checked(generate_blob_pair, {
        "k": k, "source_priors": source_priors, "target_priors": target_priors,
        "means": means, "spread": spread, "n": n, "seed": seed}, "blob pair")
    return tuple(_generate_blob_domain(
        args["k"], args[f"{role}_priors"], args["means"], args["spread"], args["n"],
        args["seed"], role=role, what="blob pair", priors_key=f"{role}_priors")
        for role in DOMAIN_ROLES)


# ---------------------------------------------------------------------------
# outlier pools
# ---------------------------------------------------------------------------

def outlier_pool(n: int, seed: int) -> np.ndarray:
    """[n, 16, 16] images far from the glyph manifold: squared-uniform
    noise pulled toward 1, dense brightness, the inverse of the
    sparse-ink glyph statistics."""
    if n < 1:
        raise ValueError("need n >= 1 outliers")
    # the golden TwO cases pin this stream, salt 2 included
    images = 1.0 - rng(seed, 2).uniform(0.0, 1.0, (n, CANVAS, CANVAS)) ** 2
    return _quantize(images)


# ---------------------------------------------------------------------------
# regeneration and the on-disk format
# ---------------------------------------------------------------------------

def _regenerate_blob(domain_role: Literal[DOMAIN_ROLES], params: dict) -> DomainDataset:
    what = "blob metadata params"
    return _generate_blob_domain(**checked(_generate_blob_domain, params, what),
                                 role=domain_role, what=what)


def regenerate(metadata: Dict) -> DomainDataset:
    """Rebuild a glyph or blob domain from its recorded metadata,
    bit-identically; a missing, unknown or misfit key raises ``ValueError``
    naming it. A benchmark target's metadata holds a ``benchmark`` key and
    is refused: rebuild the pair, then run the target's recorded spec."""
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be an object, got {type(metadata).__name__}")
    gen = metadata.get("generator")
    # each function's parameters are the other keys of its generator's metadata
    build = {"glyph": generate_glyph_domain, "blob": _regenerate_blob}.get(gen)
    if build is None:
        raise ValueError(f"cannot regenerate from metadata with generator {gen!r}")
    return build(**checked(build, {k: v for k, v in metadata.items() if k != "generator"},
                           f"{gen} metadata"))


@dataclass(frozen=True)
class DatasetMeta:
    """The ``meta.json`` of a dataset directory: what its data files hold."""

    kind: Literal["images", "points"]
    shape: Tuple[Annotated[int, Range(0)], ...]
    class_count: Count
    domain_role: Literal[DOMAIN_ROLES]
    n: Annotated[int, Range(0)]
    has_sublabels: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)
        if len(self.shape) != (3 if self.kind == "images" else 2):
            raise ValueError(f"field 'kind' is {self.kind!r}, but field 'shape' {list(self.shape)} "
                             f"has rank {len(self.shape)}: images are [n, H, W], points [n, d]")
        if self.n != self.shape[0]:
            raise ValueError(f"field 'n' is {self.n}, but field 'shape' {list(self.shape)} "
                             f"holds {self.shape[0]} samples")


def save_dataset(ds: DomainDataset, path) -> None:
    """Write meta.json + images.f32le + labels.u32le (+ sublabels.u32le)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = DatasetMeta(kind="images" if ds.is_image else "points", shape=ds.images.shape,
                       class_count=ds.class_count, domain_role=ds.domain_role, n=ds.n_samples,
                       has_sublabels=ds.sublabels is not None, metadata=ds.metadata)
    (path / "meta.json").write_text(json.dumps(dataclasses.asdict(meta), indent=2, sort_keys=True))
    (path / "images.f32le").write_bytes(ds.images.astype("<f4").tobytes())
    (path / "labels.u32le").write_bytes(
        ds.labels.astype(np.int64).astype("<u4").tobytes())
    if ds.sublabels is not None:
        (path / "sublabels.u32le").write_bytes(
            ds.sublabels.astype(np.int64).astype("<u4").tobytes())


def parse_json(text: Union[str, bytes], name: str):
    """The JSON value in ``text``; ``ValueError``, starting with ``name``, for
    text that is not JSON, ``NaN``, ``Infinity`` and ``-Infinity`` included."""
    def refuse(token):
        raise ValueError(f"{name} holds {token}, which is not JSON")
    try:
        return json.loads(text, parse_constant=refuse)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"{name} is not valid JSON: {e}") from e


def read_json(path: Path, name: str):
    """The JSON value in the file ``path``, parsed by :func:`parse_json`."""
    return parse_json(path.read_bytes(), name)


def _read_exact(path: Path, n_bytes: int) -> bytes:
    """The bytes of ``path``, which must hold exactly ``n_bytes``; the size
    is checked before anything is read."""
    size = path.stat().st_size
    if size != n_bytes:
        raise ValueError(f"{path} holds {size} bytes, expected {n_bytes}")
    return path.read_bytes()


def _read_labels(path: Path, n: int) -> np.ndarray:
    labels = np.frombuffer(_read_exact(path, 4 * n), dtype="<u4").astype(np.int64)
    # the sentinel wraps around in unsigned storage
    return np.where(labels == 0xFFFFFFFF, OUTLIER_LABEL, labels)


def load_dataset(path) -> DomainDataset:
    """Read a directory written by :func:`save_dataset`.

    A ``meta.json`` that :class:`DatasetMeta` refuses, a data file of the
    wrong byte length, or contents the dataset rejects raise ``ValueError``
    naming the file or directory.
    """
    path = Path(path)
    meta_path = path / "meta.json"
    meta = checked_object(DatasetMeta, read_json(meta_path, str(meta_path)), str(meta_path))
    raw = np.frombuffer(_read_exact(path / "images.f32le", 4 * math.prod(meta.shape)),
                        dtype="<f4").astype(np.float64).reshape(meta.shape)
    labels = _read_labels(path / "labels.u32le", meta.n)
    sublabels = _read_labels(path / "sublabels.u32le", meta.n) if meta.has_sublabels else None
    try:
        return DomainDataset(
            images=raw, labels=labels, class_count=meta.class_count,
            domain_role=meta.domain_role, sublabels=sublabels, metadata=meta.metadata)
    except ValueError as e:
        raise ValueError(f"dataset {path}: {e}") from e
