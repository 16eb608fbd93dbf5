"""Image operation families: semantic-preserving, interpolation, semantic-transforming.

All operations act on batches of [0,1]-valued H x W grayscale images and are
deterministic: the same seed and the same batch give the same bytes. Each
call draws every sample's random parameters as arrays from one generator
seeded by (seed, family salt), so a sample's draw depends on its position
and on the batch's size and shape. The drawn operations are applied batch-wise, each kind to all the
images that drew it at once, and give the same bytes as applying every
sample's operations to it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

SP_KINDS = ("shift", "small_rotate", "cutout", "brightness", "contrast", "gaussian_noise")
# semantic-preserving subsets used by the consistency objective
RA_KINDS = ("shift", "small_rotate", "cutout", "brightness", "contrast")
NI_KINDS = ("gaussian_noise",)

ST_TASKS = ("rotate90", "vflip", "patch_location")

# magnitude caps for semantic-preserving kinds
MAX_SHIFT_PX = 2
MAX_ROTATE_DEG = 15.0
MAX_NOISE_SIGMA = 0.15
MAX_BRIGHTNESS_DELTA = 0.2
MAX_CONTRAST_DELTA = 0.3
CUTOUT_SIDE_FRACTION = 0.25


@dataclass
class ImageBatch:
    """Batch of grayscale images, values in [0,1], shape [batch, H, W]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"ImageBatch needs [batch, H, W], got shape {self.data.shape}")
        if self.height < 4 or self.width < 4:
            raise ValueError(f"images must be at least 4x4, got {self.height}x{self.width}")
        # NaN fails every comparison, so the range test is written to fail on it
        if self.data.size and not (self.data.min() >= 0.0 and self.data.max() <= 1.0):
            raise ValueError("image values must be finite and lie in [0, 1]")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def flat(self) -> np.ndarray:
        """Row-major [batch, H*W] view for the MLP input."""
        return self.data.reshape(len(self), -1)


# salt of the semantic-preserving stream; the other [seed, salt] streams use
# small constants or per-sample indices, which stay far below it
SP_STREAM_SALT = 2**31


def rng(seed: int, *salts: int) -> np.random.Generator:
    """Generator of the stream named by ``seed`` and ``salts``.

    Every salted stream in the package is built here, from the seed's low
    32 bits followed by the salts, so a salt names one stream everywhere.
    """
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *salts])


class SpDraw(NamedTuple):
    """One kind applied in one slot: ``rows`` of the batch and their params.

    ``params`` per kind, one row each: shift ``(dy, dx)``, small_rotate
    ``(angle_deg,)``, cutout ``(top, left, side)``, brightness ``(delta,)``,
    contrast ``(factor,)``, gaussian_noise ``(sigma,)``; ``noise`` holds the
    standard-normal fields that gaussian_noise scales by sigma.
    """

    slot: int
    kind: str
    rows: np.ndarray
    params: np.ndarray
    noise: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# semantic-preserving kinds
# ---------------------------------------------------------------------------

def _sp_params(kind: str, u: np.ndarray, h: int, w: int) -> np.ndarray:
    """Map [k, 2] uniform draws in [0, 1) to the kind's [k, n_params] params."""
    def centered(cap):
        return (2.0 * u[:, :1] - 1.0) * cap

    if kind == "shift":
        return np.floor(u * (2 * MAX_SHIFT_PX + 1)) - MAX_SHIFT_PX
    if kind == "small_rotate":
        return centered(MAX_ROTATE_DEG)
    if kind == "cutout":
        side = int(round(CUTOUT_SIDE_FRACTION * min(h, w)))
        span = np.array([max(h - side, 0) + 1, max(w - side, 0) + 1])
        return np.column_stack([np.floor(u * span), np.full(len(u), side)])
    if kind == "brightness":
        return centered(MAX_BRIGHTNESS_DELTA)
    if kind == "contrast":
        return 1.0 + centered(MAX_CONTRAST_DELTA)
    # gaussian_noise
    return 0.02 + u[:, :1] * (MAX_NOISE_SIGMA - 0.02)


def draw_semantic_preserving(seed: int, n: int, h: int, w: int,
                             kinds: Sequence[str]) -> List[SpDraw]:
    """Draw the ops of a batch of n H x W images from one generator.

    Every sample gets 1-2 distinct kinds (exactly 1 from a single kind) in
    a random order; slot 0 holds each sample's first op and slot 1 the
    second op of the samples that drew two. Returns one :class:`SpDraw` per
    (slot, kind) that some sample uses, by slot and then in ``kinds`` order
    (repeats in ``kinds`` count once). The draws depend only on ``seed``,
    the batch geometry and ``kinds``.
    """
    kinds = tuple(dict.fromkeys(kinds))
    gen = rng(seed, SP_STREAM_SALT)
    n_ops = gen.integers(1, 3, n) if len(kinds) > 1 else np.ones(n, dtype=np.int64)
    # a random order of the kinds per sample; its leading entries are distinct
    order = np.argsort(gen.random((n, len(kinds))), axis=1)
    u = gen.random((2, n, 2))
    draws = []
    for slot in range(min(2, len(kinds))):
        active = n_ops > slot
        for ki in np.unique(order[active, slot]):
            kind = kinds[int(ki)]
            rows = np.flatnonzero(active & (order[:, slot] == ki))
            draws.append(SpDraw(slot, kind, rows,
                                _sp_params(kind, u[slot, rows], h, w)))
    return [d._replace(noise=gen.standard_normal((len(d.rows), h, w)))
            if d.kind == "gaussian_noise" else d for d in draws]


def _apply_sp_kind(kind: str, imgs: np.ndarray, p: np.ndarray,
                   noise: Optional[np.ndarray]) -> np.ndarray:
    """Apply one kind to a fresh [k, H, W] stack, image r with parameters p[r]."""
    k, h, w = imgs.shape
    stack = np.arange(k)[:, None, None]
    if kind == "shift":
        # edge padding: output pixel (y, x) reads source (y - dy, x - dx), clipped
        iy = np.clip(np.arange(h) - p[:, :1].astype(np.intp), 0, h - 1)
        ix = np.clip(np.arange(w) - p[:, 1:2].astype(np.intp), 0, w - 1)
        return imgs[stack, iy[:, :, None], ix[:, None, :]]
    if kind == "small_rotate":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        theta = np.deg2rad(p[:, 0])[:, None, None]
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
        # inverse map each output pixel back into the source image
        src_y = cos_t * yy + sin_t * xx + cy
        src_x = -sin_t * yy + cos_t * xx + cx
        iy = np.clip(np.rint(src_y).astype(int), 0, h - 1)
        ix = np.clip(np.rint(src_x).astype(int), 0, w - 1)
        return imgs[stack, iy, ix]
    if kind == "cutout":
        top, left, side = (p[:, j:j + 1].astype(np.intp) for j in range(3))
        ys, xs = np.arange(h), np.arange(w)
        in_rows = (ys >= top) & (ys < top + side)
        in_cols = (xs >= left) & (xs < left + side)
        imgs[in_rows[:, :, None] & in_cols[:, None, :]] = 0.0
        return imgs
    if kind == "brightness":
        return imgs + p[:, 0, None, None]
    if kind == "contrast":
        mean = (imgs.reshape(k, h * w).sum(axis=1) / (h * w))[:, None, None]
        return (imgs - mean) * p[:, 0, None, None] + mean
    # gaussian_noise
    return imgs + p[:, 0, None, None] * noise


def apply_semantic_preserving(x: ImageBatch, seed: int,
                              kinds: Sequence[str] = SP_KINDS) -> ImageBatch:
    """Random composition of 1-2 kinds per sample; output clamped to [0,1].

    The ops are drawn for the whole batch by
    :func:`draw_semantic_preserving` and applied in two slots, every
    sample's first op and then the second op of the samples that drew two,
    so each sample keeps its drawn order. Within a slot each kind acts on
    all of its images at once, and the batch is clipped once at the end.
    """
    for k in kinds:
        if k not in SP_KINDS:
            raise ValueError(f"unknown semantic-preserving kind: {k!r}")
    n, h, w = x.data.shape
    out = x.data.copy()
    for draw in draw_semantic_preserving(seed, n, h, w, kinds):
        out[draw.rows] = _apply_sp_kind(draw.kind, out[draw.rows], draw.params, draw.noise)
    np.clip(out, 0.0, 1.0, out=out)
    return ImageBatch(out)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def sample_mixup_beta(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Per-pair mixing weights from a symmetric Beta(alpha, alpha)."""
    if alpha <= 0:
        raise ValueError("mixup concentration must be positive")
    return rng.beta(alpha, alpha, size=n)


# ---------------------------------------------------------------------------
# semantic-transforming tasks
# ---------------------------------------------------------------------------

def rotate90_cw(img: np.ndarray, k: int) -> np.ndarray:
    """k clockwise quarter-turns of an image, or of each image in a stack."""
    return np.rot90(img, -int(k) % 4, axes=(-2, -1))


def vflip(img: np.ndarray, b: int) -> np.ndarray:
    """b in {0,1} vertical flips (upside down) of an image or a stack."""
    return img[..., ::-1, :].copy() if b % 2 else img.copy()


def extract_quadrant(img: np.ndarray, q: int) -> np.ndarray:
    """Paste quadrant q at the canvas origin, zero elsewhere; images or a stack.

    Quadrants are indexed row-major: 0 top-left, 1 top-right,
    2 bottom-left, 3 bottom-right.
    """
    h, w = img.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"patch_location needs even dimensions, got {h}x{w}")
    hh, hw = h // 2, w // 2
    top = (q // 2) * hh
    left = (q % 2) * hw
    out = np.zeros_like(img)
    out[..., :hh, :hw] = img[..., top:top + hh, left:left + hw]
    return out


# task -> (transform of one label's images, number of labels)
_ST_OPS = {"rotate90": (rotate90_cw, 4), "vflip": (vflip, 2),
           "patch_location": (extract_quadrant, 4)}


def apply_semantic_transforming(x: ImageBatch, task: str,
                                seed: int) -> Tuple[ImageBatch, np.ndarray]:
    """Apply the pretext task; returns transformed images and labels.

    Labels come from one task-salted stream, so sample i's label depends
    only on (seed, task, i) and each task sees a different sequence. The
    images sharing a label are transformed together.
    """
    if task not in ST_TASKS:
        raise ValueError(f"unknown semantic-transforming task: {task!r}")
    if task == "rotate90" and x.height != x.width:
        raise ValueError(f"rotate90 needs square images, got {x.height}x{x.width}")
    if task == "patch_location" and (x.height % 2 or x.width % 2):
        raise ValueError(f"patch_location needs even dimensions, got {x.height}x{x.width}")
    op, n_classes = _ST_OPS[task]
    labels = rng(seed, ST_TASKS.index(task) + 101).integers(0, n_classes, len(x))
    labels = labels.astype(np.int64)
    out = np.empty_like(x.data)
    for label in range(n_classes):
        rows = np.flatnonzero(labels == label)
        out[rows] = op(x.data[rows], label)
    return ImageBatch(out), labels
