"""Reshape a balanced pair into the three realistic-shift benchmarks.

The constructors touch only the target: a long-tailed label marginal
(LDS), a long-tailed sub-class composition inside every meta-class
(ILDS), and out-of-support rows carrying the sentinel label (TwO). The
source is what a practitioner already has, so it is never resampled.
"""

import numpy as np

from pbmatch import (
    BenchmarkSpec,
    build_ilds,
    decay_counts,
    default_pair_specs,
    generate_glyph_pair,
    inject_two,
    label_histogram,
    outlier_pool,
    relabel_to_meta,
    resample_lds,
)


def bar(count: int, scale: float = 0.25) -> str:
    return "#" * max(1, int(count * scale))


def show_histogram(title: str, ds) -> None:
    counts, tv = label_histogram(ds)
    print(f"{title} ({ds.n_samples} rows, TV vs uniform = {tv:.3f})")
    for cls, c in enumerate(counts):
        print(f"  class {cls}: {c:>4d} {bar(c)}")


def main():
    print("exponential decay law, n_max=100:")
    for factor in (2.0, 10.0):
        print(f"  IF={factor:>4.0f}: {decay_counts(100, 4, factor).tolist()}")
    print()

    src_spec, tgt_spec = default_pair_specs(samples_per_class=100, seed=0)
    src, tgt = generate_glyph_pair(src_spec, tgt_spec)
    show_histogram("balanced target before any constructor", tgt)

    print("\n--- LDS: long-tail the label marginal ---")
    lds_spec = BenchmarkSpec(kind="LDS", imbalance_factor=10.0,
                             class_order=(0, 1, 2, 3), seed=0)
    show_histogram("IF=10 target", resample_lds(tgt, lds_spec))

    print("\n--- ILDS: shift composition inside each meta-class ---")
    meta_map = {int(s): int(l) for s, l in zip(tgt.sublabels, tgt.labels)}
    ilds_spec = BenchmarkSpec(kind="ILDS", imbalance_factor=6.0,
                              meta_class_map=meta_map, seed=0)
    ilds_tgt = build_ilds(tgt, ilds_spec)
    show_histogram("meta-class marginal stays near-flat", ilds_tgt)
    sub_counts = np.bincount(ilds_tgt.sublabels)
    print(f"  but sub-style counts are skewed: {sub_counts.tolist()}")
    relabeled_src = relabel_to_meta(src, ilds_spec)
    same = relabeled_src.images.tobytes() == src.images.tobytes()
    print(f"  source images byte-identical after relabeling: {same}")

    print("\n--- TwO: inject out-of-support rows ---")
    two_spec = BenchmarkSpec(kind="TwO", outlier_fraction=0.2, seed=0)
    pool = outlier_pool(250, seed=0)
    two_tgt = inject_two(tgt, pool, two_spec)
    n_out = int((two_tgt.labels == -1).sum())
    print(f"400 clean rows + {n_out} sentinels = {two_tgt.n_samples} rows "
          f"({n_out / two_tgt.n_samples:.0%} outliers)")
    print("sentinel rows are excluded from every accuracy denominator")


if __name__ == "__main__":
    main()
