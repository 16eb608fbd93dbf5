"""Image operation families: semantic-preserving, interpolation, semantic-transforming.

All operations take a plain [n, H, W] array of [0,1]-valued grayscale
images and return a new array; the values are checked once, where a
``DomainDataset`` is built, not on each call. They are deterministic: the
same generator state and the same batch give the same bytes. Each call
draws every sample's random parameters as arrays from the generator its
caller built, so a sample's draw depends on its position and on the
batch's size and shape. The drawn operations are applied batch-wise, each
kind to all the images that drew it at once, and give the same bytes as
applying every sample's operations to it alone.

Every generator in the package is built here: :func:`rng` builds the
stream of a seed and its salts, and :func:`rngs` yields a run of per-index
ones.
"""

from __future__ import annotations

import operator
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def _checked_words(seed: int, *salts: int) -> List[int]:
    """The seed and the salts as entropy words, each refused by name unless
    it lies in [0, 2**32): numpy would split a wider one into several words,
    and a mask would alias it to another seed."""
    words = [operator.index(w) for w in (seed, *salts)]
    for what, word in zip(("seed",) + ("salt",) * len(salts), words):
        if not 0 <= word < 2**32:
            raise ValueError(f"random stream {what} {word} is outside [0, 2**32)")
    return words


def rng(seed: int, *salts: int) -> np.random.Generator:
    """Generator of the stream named by ``seed`` and ``salts``.

    Every salted stream in the package is built here or by :func:`rngs`,
    from the seed followed by the salts, every word in [0, 2**32).
    """
    return np.random.default_rng(_checked_words(seed, *salts))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class _SeedState(ISeedSequence):
    """Hands PCG64 a seed state computed in advance."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg64_seed_states(seed: int, n: int) -> np.ndarray:
    """[n, 4] uint64: the PCG64 seed state of ``rng(seed, i)`` for each i < n.

    numpy's SeedSequence mixing of the entropy ``[seed, i]``
    into a 4-word pool, then the pool's 8 output words, run on all n pools
    at once in wrapping uint32 arithmetic.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(_XSHIFT))

    entropy = (np.full(n, seed, dtype=np.uint32),
               np.arange(n, dtype=np.uint32), np.zeros(n, dtype=np.uint32))
    pool = [hashmix(entropy[min(i, 2)]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    words = np.empty((n, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(8):
        value = pool[i_dst % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words[:, i_dst] = value ^ (value >> np.uint32(_XSHIFT))
    # word pairs read as little-endian uint64, as SeedSequence returns them
    return words.astype("<u4").view("<u8").astype(np.uint64)


def rngs(seed: int, n: int) -> Iterator[np.random.Generator]:
    """``rng(seed, 0)``, ..., ``rng(seed, n - 1)``, in order.

    The n seed states are computed together; each generator is built only
    when it is asked for.
    """
    if not 0 <= n <= 2**32:
        raise ValueError(f"need 0 <= n <= 2**32 per-index streams, got {n}")
    seed, = _checked_words(seed)
    for state in _pcg64_seed_states(seed, n):
        yield np.random.Generator(np.random.PCG64(_SeedState(state)))


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


def draw_semantic_preserving(gen: np.random.Generator, n: int, h: int, w: int,
                             kinds: Sequence[str]) -> List[SpDraw]:
    """Draw the ops of a batch of n H x W images from the generator ``gen``.

    Every sample gets 1-2 distinct kinds (exactly 1 from a single kind) in
    a random order; slot 0 holds each sample's first op and slot 1 the
    second op of the samples that drew two. Returns one :class:`SpDraw` per
    (slot, kind) that some sample uses, by slot and then in ``kinds`` order
    (repeats in ``kinds`` count once). The draws depend only on ``gen``'s
    state, the batch geometry and ``kinds``.
    """
    kinds = tuple(dict.fromkeys(kinds))
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


def apply_semantic_preserving(x: np.ndarray, gen: np.random.Generator,
                              kinds: Sequence[str] = SP_KINDS) -> np.ndarray:
    """Random composition of 1-2 kinds per sample of the [n, H, W] images
    ``x``; returns a new array clamped to [0,1].

    The ops are drawn for the whole batch from ``gen`` by
    :func:`draw_semantic_preserving` and applied in two slots, every
    sample's first op and then the second op of the samples that drew two,
    so each sample keeps its drawn order. Within a slot each kind acts on
    all of its images at once, and the batch is clipped once at the end.
    """
    for k in kinds:
        if k not in SP_KINDS:
            raise ValueError(f"unknown semantic-preserving kind: {k!r}")
    n, h, w = x.shape
    out = np.array(x, dtype=np.float64)
    for draw in draw_semantic_preserving(gen, n, h, w, kinds):
        out[draw.rows] = _apply_sp_kind(draw.kind, out[draw.rows], draw.params, draw.noise)
    np.clip(out, 0.0, 1.0, out=out)
    return out


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


def apply_semantic_transforming(x: np.ndarray, task: str,
                                gen: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Apply the pretext task to the [n, H, W] images ``x``; returns the
    transformed images, a new array, and their labels.

    The labels are drawn from ``gen``, one per sample in order. The images
    sharing a label are transformed together.
    """
    if task not in ST_TASKS:
        raise ValueError(f"unknown semantic-transforming task: {task!r}")
    n, h, w = x.shape
    if task == "rotate90" and h != w:
        raise ValueError(f"rotate90 needs square images, got {h}x{w}")
    op, n_classes = _ST_OPS[task]
    labels = gen.integers(0, n_classes, n).astype(np.int64)
    out = np.empty_like(x, dtype=np.float64)
    for label in range(n_classes):
        rows = np.flatnonzero(labels == label)
        out[rows] = op(x[rows], label)
    return out, labels
