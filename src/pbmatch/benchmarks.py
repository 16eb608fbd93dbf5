"""Constructors that reshape a balanced domain pair into a shifted benchmark.

Three kinds, all operating on the target side only (the source dataset is
never resampled):

- LDS: long-tail the target label marginal with a single imbalance factor.
- ILDS: the LDS long tail applied to the sub-classes inside each
  meta-class, then the labels replaced by meta-classes.
- TwO: append out-of-support images, drawn from a plain [m, H, W] pool
  array, carrying the sentinel label -1.

Counts follow the exponential decay n_k = round(n_max * IF^(-k/(K-1))),
the standard single-knob long-tail construction, which one resampler
applies for LDS and ILDS; both refuse a target holding outlier rows, so
TwO comes last. Everything is deterministic in (input, spec). Each
constructor returns a new ``DomainDataset``, checked as it is built.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Dict, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from .datasets import (
    OUTLIER_LABEL,
    DomainDataset,
    Range,
    Seed,
    Share,
    check_fields,
    load_dataset,
    save_dataset,
)
from .transforms import rng

BENCHMARK_KINDS = ("LDS", "ILDS", "TwO")

# salts for the independent draw streams used by each constructor
_SALT_CLASS_ORDER = 7
_SALT_LDS_ROWS = 1000
_SALT_ILDS_ORDER = 2000
_SALT_ILDS_ROWS = 2500
_SALT_TWO_POOL = 3000
_SALT_TWO_SHUFFLE = 3001


@dataclass(frozen=True)
class BenchmarkSpec:
    """Recipe for one benchmark constructor run.

    ``class_order`` (LDS only) is an explicit permutation of the class
    indices (tail position -> class) or "random" for a seeded draw.
    ``meta_class_map`` (ILDS only) sends every sublabel to its meta-class.
    """

    kind: Literal[BENCHMARK_KINDS]
    imbalance_factor: Annotated[float, Range(1)] = 1.0
    class_order: Union[Sequence[int], Literal["random"]] = "random"
    meta_class_map: Optional[Dict[int, int]] = None
    outlier_fraction: Share = 0.0
    seed: Seed = 0

    def __post_init__(self):
        check_fields(self)
        if self.kind == "TwO" and self.imbalance_factor != 1.0:
            raise ValueError(
                f"imbalance_factor is for LDS and ILDS; a TwO spec leaves it at 1, "
                f"got {self.imbalance_factor}")
        if self.kind != "TwO" and self.outlier_fraction != 0.0:
            raise ValueError(
                f"outlier_fraction is for TwO; an {self.kind} spec leaves it at 0, "
                f"got {self.outlier_fraction}")
        if self.kind != "LDS" and self.class_order != "random":
            raise ValueError(f"class_order is for LDS; {self.kind} specs leave it "
                             f"\"random\", got {list(self.class_order)}")
        if self.kind != "ILDS" and self.meta_class_map is not None:
            raise ValueError(f"meta_class_map is for ILDS; {self.kind} specs leave it "
                             f"null, got {self.meta_class_map}")


def decay_counts(n_max: int, positions: int, factor: float) -> np.ndarray:
    """Per-position kept counts n_k = round(n_max * factor^(-k/(K-1)))."""
    if positions == 1:
        return np.array([n_max], dtype=np.int64)
    k = np.arange(positions, dtype=np.float64)
    raw = n_max * factor ** (-k / (positions - 1))
    return np.floor(raw + 0.5).astype(np.int64)


def _resolve_class_order(spec: BenchmarkSpec, class_count: int) -> np.ndarray:
    if isinstance(spec.class_order, str):
        return rng(spec.seed, _SALT_CLASS_ORDER).permutation(class_count)
    order = np.asarray(spec.class_order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(class_count)):
        raise ValueError(
            f"class_order must be a permutation of 0..{class_count - 1}, got {order.tolist()}")
    return order


def _long_tail(labels: np.ndarray, groups: Sequence[int], factor: float, seed: int,
               salt: int, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """Rows kept, and the count kept per group, when the balanced ``groups``
    (head first) decay by ``factor``: group g keeps the head of its rows
    shuffled by the stream ``rng(seed, salt + g)``."""
    counts = np.array([(labels == g).sum() for g in sorted(groups)], dtype=np.int64)
    if not counts.any():
        raise ValueError(f"no samples found for {what}")
    if counts.min() != counts.max():
        raise ValueError(
            f"{what} must be balanced before resampling, got counts {counts.tolist()}")
    n_max = int(counts[0])
    kept = decay_counts(n_max, len(groups), factor)
    if kept[-1] == 0:
        raise ValueError(
            f"imbalance factor {factor} drives the tail to 0 of {n_max} samples "
            "per class; generate more samples per class or lower the factor")
    selected = []
    for g, n in zip(groups, kept):
        rows = np.flatnonzero(labels == g)
        selected.append(rows[rng(seed, salt + int(g)).permutation(rows.size)][:n])
    return np.concatenate(selected), kept


def _checked_target(target: DomainDataset, spec: BenchmarkSpec, kind: str,
                    caller: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"{caller} needs kind {kind}, got {spec.kind}")
    n_out = int((target.labels == OUTLIER_LABEL).sum())
    if n_out:
        raise ValueError(
            f"{kind} needs a target without outlier rows, got {n_out} rows labeled "
            f"{OUTLIER_LABEL}; build TwO last, once, on a target without outliers")


# ---------------------------------------------------------------------------
# LDS: long-tail the label marginal
# ---------------------------------------------------------------------------

def resample_lds(target: DomainDataset, spec: BenchmarkSpec) -> DomainDataset:
    """Keep a decaying sample count per class, majority first in class_order."""
    _checked_target(target, spec, "LDS", "resample_lds")
    k = target.class_count
    order = _resolve_class_order(spec, k)
    rows, _ = _long_tail(target.labels, order, spec.imbalance_factor, spec.seed,
                         _SALT_LDS_ROWS, "target classes")
    out = target.take(np.sort(rows))
    out.metadata["benchmark"] = {
        "kind": "LDS",
        "imbalance_factor": spec.imbalance_factor,
        "class_order": [int(c) for c in order],
        "seed": spec.seed,
        "achieved_histogram": np.bincount(out.labels, minlength=k).tolist(),
        "tv_vs_uniform": label_histogram(out)[1],
    }
    return out


# ---------------------------------------------------------------------------
# ILDS: the LDS long tail inside each meta-class
# ---------------------------------------------------------------------------

def relabel_to_meta(ds: DomainDataset, spec: BenchmarkSpec) -> DomainDataset:
    """Replace labels by the meta-class of each sublabel; no resampling.

    The source-side half of the ILDS construction and the target side's
    last step: pixels carry over byte-identically, only the labels change.
    """
    mapping, meta_count = _validated_meta_map(ds, spec)
    labels = np.array([mapping[int(s)] for s in ds.sublabels], dtype=np.int64)
    return DomainDataset(
        images=ds.images, labels=labels, class_count=meta_count,
        domain_role=ds.domain_role, sublabels=ds.sublabels,
        metadata=dict(ds.metadata))


def _validated_meta_map(ds: DomainDataset, spec: BenchmarkSpec) -> Tuple[Dict[int, int], int]:
    if ds.sublabels is None:
        raise ValueError("ILDS needs a dataset with sublabels")
    if spec.meta_class_map is None:
        raise ValueError("ILDS needs a BenchmarkSpec with meta_class_map set")
    mapping = spec.meta_class_map
    present = np.unique(ds.sublabels)
    missing = [int(s) for s in present if int(s) not in mapping]
    if missing:
        raise ValueError(f"sublabels missing from meta_class_map: {missing}")
    metas = sorted(set(mapping.values()))
    if metas != list(range(len(metas))):
        raise ValueError(f"meta labels must be contiguous from 0, got {metas}")
    return mapping, len(metas)


def build_ilds(target: DomainDataset, spec: BenchmarkSpec) -> DomainDataset:
    """Long-tail the sub-classes of each meta-class, in a seeded order per
    meta-class, then relabel to meta-classes."""
    _checked_target(target, spec, "ILDS", "build_ilds")
    mapping, meta_count = _validated_meta_map(target, spec)
    present = np.unique(target.sublabels).tolist()
    selected = []
    sub_histograms: Dict[str, Dict[str, int]] = {}
    for meta in range(meta_count):
        subs = [s for s in present if mapping[s] == meta]
        order = rng(spec.seed, _SALT_ILDS_ORDER + meta).permutation(len(subs))
        groups = [subs[i] for i in order]
        rows, kept = _long_tail(target.sublabels, groups, spec.imbalance_factor,
                                spec.seed, _SALT_ILDS_ROWS, f"meta-class {meta} sub-classes")
        selected.append(rows)
        sub_histograms[str(meta)] = {str(s): int(n) for s, n in zip(groups, kept)}

    out = relabel_to_meta(target.take(np.sort(np.concatenate(selected))), spec)
    out.metadata["benchmark"] = {
        "kind": "ILDS",
        "imbalance_factor": spec.imbalance_factor,
        "meta_class_map": {str(k): v for k, v in mapping.items()},
        "seed": spec.seed,
        "achieved_histogram": np.bincount(out.labels, minlength=meta_count).tolist(),
        "sub_histograms": sub_histograms,
        "tv_vs_uniform": label_histogram(out)[1],
    }
    return out


# ---------------------------------------------------------------------------
# TwO: target with outliers
# ---------------------------------------------------------------------------

def two_outlier_count(n: int, outlier_fraction: float) -> int:
    """Outliers to append to n target rows so they form ``outlier_fraction``
    of the result: round(rho * n / (1 - rho))."""
    return int(round(outlier_fraction * n / (1.0 - outlier_fraction)))


def inject_two(target: DomainDataset, pool: np.ndarray, spec: BenchmarkSpec) -> DomainDataset:
    """Append sentinel-labeled outliers, drawn from the [m, H, W] images
    ``pool``, so they form outlier_fraction of the result."""
    _checked_target(target, spec, "TwO", "inject_two")
    if not target.is_image:
        raise ValueError("outlier injection needs an image dataset")
    rho = spec.outlier_fraction
    n = target.n_samples
    n_out = two_outlier_count(n, rho)
    if n_out == 0:
        out = target.take(np.arange(n))
    else:
        if len(pool) < n_out:
            raise ValueError(
                f"outlier pool has {len(pool)} images but fraction {rho} of "
                f"{n} target samples needs {n_out}")
        if pool.shape[1:] != target.images.shape[1:]:
            raise ValueError(
                f"pool image shape {pool.shape[1:]} does not match "
                f"target {target.images.shape[1:]}")

        pick = rng(spec.seed, _SALT_TWO_POOL).permutation(len(pool))[:n_out]
        images = np.concatenate([target.images, pool[pick]], axis=0)
        labels = np.concatenate([target.labels,
                                 np.full(n_out, OUTLIER_LABEL, dtype=np.int64)])
        sublabels = None
        if target.sublabels is not None:
            sublabels = np.concatenate([target.sublabels,
                                        np.full(n_out, OUTLIER_LABEL, dtype=np.int64)])
        perm = rng(spec.seed, _SALT_TWO_SHUFFLE).permutation(n + n_out)
        out = DomainDataset(
            images=images[perm], labels=labels[perm],
            class_count=target.class_count, domain_role=target.domain_role,
            sublabels=None if sublabels is None else sublabels[perm],
            metadata=dict(target.metadata))
    out.metadata["benchmark"] = {
        "kind": "TwO", "outlier_fraction": rho, "seed": spec.seed,
        "n_outliers": n_out, "n_total": n + n_out,
    }
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def label_histogram(ds: DomainDataset) -> Tuple[np.ndarray, float]:
    """Per-class counts (sentinel rows excluded) and TV distance vs uniform."""
    valid = ds.labels[ds.labels >= 0]
    counts = np.bincount(valid, minlength=ds.class_count)
    if counts.sum() == 0:
        return counts, 0.0
    p = counts / counts.sum()
    tv = 0.5 * float(np.abs(p - 1.0 / ds.class_count).sum())
    return counts, tv


def benchmark_report(spec: BenchmarkSpec, source: DomainDataset,
                     target: DomainDataset) -> Dict:
    """The benchmark.json payload: spec plus achieved statistics per side."""
    report = {"spec": dataclasses.asdict(spec)}
    if spec.meta_class_map is not None:
        # string keys, which sort as text in benchmark.json, as they always have
        report["spec"]["meta_class_map"] = {str(k): v for k, v in spec.meta_class_map.items()}
    for name, ds in (("source", source), ("target", target)):
        counts, tv = label_histogram(ds)
        report[name] = {
            "n_samples": ds.n_samples,
            "counts": counts.tolist(),
            "tv_vs_uniform": tv,
            "n_outliers": int((ds.labels == OUTLIER_LABEL).sum()),
        }
    bench_meta = target.metadata.get("benchmark")
    if bench_meta is not None:
        report["target"]["benchmark"] = bench_meta
    return report


def write_benchmark(out_dir, source: DomainDataset, target: DomainDataset,
                    spec: BenchmarkSpec) -> None:
    """Persist the pair plus benchmark.json under one directory."""
    out_dir = Path(out_dir)
    save_dataset(source, out_dir / "source")
    save_dataset(target, out_dir / "target")
    (out_dir / "benchmark.json").write_text(
        json.dumps(benchmark_report(spec, source, target), indent=2, sort_keys=True))


def load_pair(in_dir) -> Tuple[DomainDataset, DomainDataset]:
    """Read the source/ and target/ datasets written by write_benchmark."""
    in_dir = Path(in_dir)
    return load_dataset(in_dir / "source"), load_dataset(in_dir / "target")
