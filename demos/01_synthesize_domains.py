"""Walk through the procedural data generators.

Renders the canonical glyph domain pair, prints a couple of samples as
ASCII art so the domain shift is visible in a terminal, then draws the
2-D blob pair that isolates pure label shift, and finally a pool of
out-of-support images. Everything is seeded; run it twice and the bytes
match.
"""

import numpy as np

from pbmatch import (
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_pair,
    outlier_pool,
)

SHADES = " .:-=+*#%@"


def ascii_image(img: np.ndarray) -> str:
    idx = np.clip(img * (len(SHADES) - 1), 0, len(SHADES) - 1).astype(int)
    return "\n".join("".join(SHADES[v] for v in row) for row in idx)


def side_by_side(left: str, right: str, gap: str = "   |   ") -> str:
    rows = zip(left.splitlines(), right.splitlines())
    return "\n".join(l + gap + r for l, r in rows)


def main():
    print("=== glyph pair ===")
    src_spec, tgt_spec = default_pair_specs(samples_per_class=40, seed=0)
    print(f"source knobs: thickness={src_spec.stroke_thickness} "
          f"background={src_spec.background} noise={src_spec.noise} "
          f"jitter={src_spec.jitter}")
    print(f"target knobs: thickness={tgt_spec.stroke_thickness} "
          f"background={tgt_spec.background} noise={tgt_spec.noise} "
          f"jitter={tgt_spec.jitter}")
    src, tgt = generate_glyph_pair(src_spec, tgt_spec)
    print(f"rendered {src.n_samples} source and {tgt.n_samples} target "
          f"glyphs, {src.class_count} classes, "
          f"{len(set(src.sublabels.tolist()))} sub-styles\n")

    for cls in (0, 2):
        i = int(np.flatnonzero(src.labels == cls)[0])
        j = int(np.flatnonzero(tgt.labels == cls)[0])
        print(f"class {cls}: source (left) vs target (right)")
        print(side_by_side(ascii_image(src.images[i]),
                           ascii_image(tgt.images[j])))
        print()

    print("=== blob pair (pure label shift) ===")
    bsrc, btgt = generate_blob_pair(
        2, (0.5, 0.5), (0.7, 0.3),
        means=((-2.0, 0.0), (2.0, 0.0)), spread=0.5, n=2000, seed=0)
    for name, ds in (("source", bsrc), ("target", btgt)):
        counts = np.bincount(ds.labels, minlength=2)
        print(f"{name}: class counts {counts.tolist()} "
              f"(priors ~ {np.round(counts / counts.sum(), 3).tolist()})")
    # same class-conditionals by construction: cluster centers agree
    for cls in (0, 1):
        mu_s = bsrc.images[bsrc.labels == cls].mean(axis=0)
        mu_t = btgt.images[btgt.labels == cls].mean(axis=0)
        print(f"class {cls} centroid: source {np.round(mu_s, 2).tolist()} "
              f"target {np.round(mu_t, 2).tolist()}")

    print("\n=== outlier pool ===")
    pool = outlier_pool(6, seed=4)
    print(f"{len(pool)} images off the glyph manifold; one of them:")
    print(ascii_image(pool[0]))


if __name__ == "__main__":
    main()
