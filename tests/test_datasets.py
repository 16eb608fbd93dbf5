"""Synthetic domain generators: determinism, balance, and disk round-trips."""

import itertools
import json
import os

import numpy as np
import pytest

from pbmatch.datasets import (
    CANVAS,
    INK_LEVEL,
    OUTLIER_LABEL,
    OUTLIER_STYLES,
    DomainDataset,
    GlyphDomainSpec,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_domain,
    generate_glyph_pair,
    load_dataset,
    outlier_pool,
    regenerate,
    save_dataset,
)
from pbmatch.losses import backward
from pbmatch.nets import OptimState, init_params, predict_logits, step

from oracles import head_objective, oracle_glyph_domain, traced_peak


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"n_classes": 1},
    {"n_classes": 7},
    {"sub_styles": 0},
    {"sub_styles": 5},
    {"samples_per_class": 0},
    {"stroke_thickness": 0},
    {"stroke_thickness": 4},
    {"background": -0.01},
    {"background": 0.51},
    {"noise": -0.01},
    {"noise": 0.31},
    {"jitter": -1.0},
    {"jitter": 3.5},
])
def test_spec_rejects_out_of_range_knobs(kwargs):
    with pytest.raises(ValueError):
        GlyphDomainSpec(**kwargs)


def test_spec_dict_round_trip():
    spec = GlyphDomainSpec(n_classes=5, sub_styles=3, samples_per_class=7,
                           stroke_thickness=2, background=0.3, invert=True,
                           noise=0.2, jitter=2.0, seed=99)
    assert GlyphDomainSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("payload,msg", [
    ([4, 2], "glyph spec must be an object"),
    ({"n_classes": 4, "bogus": 1}, "bogus"),
    ({"n_classes": "4"}, "'n_classes'"),
    ({"noise": "0.1"}, "'noise'"),
], ids=["not_object", "unknown_key", "int_str", "float_str"])
def test_spec_from_dict_names_the_bad_field(payload, msg):
    with pytest.raises(ValueError, match=msg):
        GlyphDomainSpec.from_dict(payload)


# ---------------------------------------------------------------------------
# glyph generation
# ---------------------------------------------------------------------------

def test_glyph_domain_shapes_and_ranges():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=25, seed=3)
    ds = generate_glyph_domain(spec, "source")
    assert ds.is_image
    assert ds.images.data.shape == (100, CANVAS, CANVAS)
    assert ds.n_samples == 100
    assert ds.class_count == 4
    assert ds.domain_role == "source"
    assert ds.images.data.min() >= 0.0 and ds.images.data.max() <= 1.0


def test_glyph_domain_exact_label_histogram():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=100, seed=0)
    ds = generate_glyph_domain(spec, "source")
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.tolist() == [100, 100, 100, 100]


def test_glyph_domain_sub_style_balance():
    spec = GlyphDomainSpec(n_classes=3, sub_styles=2, samples_per_class=50, seed=1)
    ds = generate_glyph_domain(spec, "target")
    sub_counts = np.bincount(ds.sublabels, minlength=6)
    assert sub_counts.tolist() == [25] * 6


def test_glyph_sublabels_nest_inside_labels():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=3, samples_per_class=30, seed=5)
    ds = generate_glyph_domain(spec, "source")
    assert np.array_equal(ds.sublabels // 3, ds.labels)


def test_glyph_domain_deterministic():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=20, seed=11)
    a = generate_glyph_domain(spec, "source")
    b = generate_glyph_domain(spec, "source")
    assert np.array_equal(a.images.data, b.images.data)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.sublabels, b.sublabels)


def test_glyph_domain_seed_changes_pixels():
    base = dict(n_classes=4, sub_styles=2, samples_per_class=20)
    a = generate_glyph_domain(GlyphDomainSpec(seed=11, **base), "source")
    b = generate_glyph_domain(GlyphDomainSpec(seed=12, **base), "source")
    assert not np.array_equal(a.images.data, b.images.data)
    assert np.array_equal(a.labels, b.labels)  # layout is class-major either way


def test_glyph_regenerates_bit_identically_from_metadata():
    spec = GlyphDomainSpec(n_classes=5, sub_styles=3, samples_per_class=8,
                           stroke_thickness=2, background=0.2, noise=0.1,
                           jitter=2.0, seed=42)
    ds = generate_glyph_domain(spec, "target")
    rebuilt = regenerate(ds.metadata)
    assert np.array_equal(ds.images.data, rebuilt.images.data)
    assert np.array_equal(ds.labels, rebuilt.labels)
    assert np.array_equal(ds.sublabels, rebuilt.sublabels)
    assert rebuilt.domain_role == "target"


# n_classes, noise and jitter set how many streams there are and what each
# draws; the jitters round to 0, 0, 2 and 3 pixels
_DRAW_KNOBS = list(itertools.product((2, 6), (0.0, 0.3), (0.0, 0.4, 2.5, 3.0)))
# sub_styles, stroke_thickness and invert set only the rendered levels
_RENDER_KNOBS = list(itertools.product((1, 4), (1, 3), (False, True)))


def _oracle_grid(samples_per_class):
    """Every knob combination; at 250 per class, every draw combination
    once, with the render combinations taken in turn (each twice)."""
    if samples_per_class < 250:
        return itertools.product(_DRAW_KNOBS, _RENDER_KNOBS)
    return zip(_DRAW_KNOBS, itertools.cycle(_RENDER_KNOBS))


@pytest.mark.parametrize("samples_per_class", [1, 7, 250])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, -5])
def test_glyph_domain_equals_the_per_sample_oracle_byte_for_byte(samples_per_class, seed):
    for (k, noise, jitter), (s, thickness, invert) in _oracle_grid(samples_per_class):
        spec = GlyphDomainSpec(n_classes=k, sub_styles=s, samples_per_class=samples_per_class,
                               stroke_thickness=thickness, background=0.15, invert=invert,
                               noise=noise, jitter=jitter, seed=seed)
        got = generate_glyph_domain(spec, "target")
        want = oracle_glyph_domain(spec, "target")
        assert np.array_equal(got.images.data.view(np.uint64),
                              want.images.data.view(np.uint64)), spec
        assert np.array_equal(got.labels, want.labels), spec
        assert np.array_equal(got.sublabels, want.sublabels), spec
        assert got.metadata == want.metadata, spec


def test_glyph_pixels_survive_f32_quantization():
    spec = GlyphDomainSpec(samples_per_class=10, noise=0.1, seed=7)
    ds = generate_glyph_domain(spec, "source")
    raw = ds.images.data
    assert np.array_equal(raw, raw.astype(np.float32).astype(np.float64))


def test_glyph_classes_are_distinct_templates():
    spec = GlyphDomainSpec(n_classes=6, sub_styles=1, samples_per_class=1,
                           background=0.0, noise=0.0, jitter=0.0, seed=0)
    ds = generate_glyph_domain(spec, "source")
    imgs = ds.images.data
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(imgs[i], imgs[j])


def test_glyph_invert_flips_intensities():
    base = dict(n_classes=4, sub_styles=1, samples_per_class=5,
                background=0.1, noise=0.0, jitter=0.0, seed=0)
    plain = generate_glyph_domain(GlyphDomainSpec(invert=False, **base), "source")
    flipped = generate_glyph_domain(GlyphDomainSpec(invert=True, **base), "source")
    assert np.allclose(plain.images.data + flipped.images.data, 1.0, atol=1e-6)


def test_glyph_zero_noise_zero_jitter_is_two_level():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=1, samples_per_class=3,
                           background=0.2, noise=0.0, jitter=0.0, seed=0)
    ds = generate_glyph_domain(spec, "source")
    values = np.unique(ds.images.data)
    assert set(np.round(values, 6).tolist()) <= {0.2, round(INK_LEVEL, 6)}


def test_glyph_pair_requires_matching_shape_knobs():
    a = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=5)
    b = GlyphDomainSpec(n_classes=3, sub_styles=2, samples_per_class=5)
    with pytest.raises(ValueError, match="class counts differ"):
        generate_glyph_pair(a, b)
    c = GlyphDomainSpec(n_classes=4, sub_styles=1, samples_per_class=5)
    with pytest.raises(ValueError, match="sub-style counts differ"):
        generate_glyph_pair(a, c)


def test_default_pair_specs_builds_a_shifted_pair():
    src_spec, tgt_spec = default_pair_specs(samples_per_class=10, seed=4)
    src, tgt = generate_glyph_pair(src_spec, tgt_spec)
    assert src.domain_role == "source" and tgt.domain_role == "target"
    assert src.n_samples == tgt.n_samples == 40
    assert src_spec.stroke_thickness != tgt_spec.stroke_thickness
    assert not np.array_equal(src.images.data, tgt.images.data)


# ---------------------------------------------------------------------------
# container semantics
# ---------------------------------------------------------------------------

def _tiny_dataset():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=6, seed=2)
    return generate_glyph_domain(spec, "source")


def test_dataset_rejects_unknown_role():
    ds = _tiny_dataset()
    with pytest.raises(ValueError, match="domain_role"):
        DomainDataset(images=ds.images, labels=ds.labels, class_count=4,
                      domain_role="middle")


def test_dataset_rejects_out_of_range_labels():
    ds = _tiny_dataset()
    bad = ds.labels.copy()
    bad[0] = 4
    with pytest.raises(ValueError, match="labels must lie"):
        DomainDataset(images=ds.images, labels=bad, class_count=4,
                      domain_role="source")
    bad[0] = -2
    with pytest.raises(ValueError, match="labels must lie"):
        DomainDataset(images=ds.images, labels=bad, class_count=4,
                      domain_role="source")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_points(bad):
    src, _ = generate_blob_pair(2, (0.5, 0.5), (0.5, 0.5), ((-2, 0), (2, 0)),
                                0.5, 20, seed=0)
    points = src.images.copy()
    points[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        DomainDataset(images=points, labels=src.labels, class_count=2,
                      domain_role="source")


def test_dataset_accepts_outlier_sentinel():
    ds = _tiny_dataset()
    lab = ds.labels.copy()
    lab[:3] = OUTLIER_LABEL
    out = DomainDataset(images=ds.images, labels=lab, class_count=4,
                        domain_role="target")
    assert (out.labels == OUTLIER_LABEL).sum() == 3


def test_dataset_rejects_misaligned_sublabels():
    ds = _tiny_dataset()
    with pytest.raises(ValueError, match="align"):
        DomainDataset(images=ds.images, labels=ds.labels, class_count=4,
                      domain_role="source", sublabels=ds.sublabels[:-1])


def test_dataset_rejects_sublabel_spanning_two_labels():
    ds = _tiny_dataset()
    bad = ds.sublabels.copy()
    bad[:] = 0  # sublabel 0 now appears under every class
    with pytest.raises(ValueError, match="several labels"):
        DomainDataset(images=ds.images, labels=ds.labels, class_count=4,
                      domain_role="source", sublabels=bad)


def test_take_selects_rows_in_order():
    ds = _tiny_dataset()
    idx = np.array([5, 0, 17])
    sub = ds.take(idx)
    assert sub.n_samples == 3
    assert np.array_equal(sub.images.data, ds.images.data[idx])
    assert np.array_equal(sub.labels, ds.labels[idx])
    assert np.array_equal(sub.sublabels, ds.sublabels[idx])
    assert sub.metadata == ds.metadata


def test_x_flat_matches_row_major_reshape():
    ds = _tiny_dataset()
    flat = ds.x_flat()
    assert flat.shape == (ds.n_samples, CANVAS * CANVAS)
    assert np.array_equal(flat, ds.images.data.reshape(ds.n_samples, -1))


# ---------------------------------------------------------------------------
# blob pairs
# ---------------------------------------------------------------------------

_MEANS = [[-2.0, 0.0], [2.0, 0.0]]


def test_blob_pair_deterministic():
    a = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 400, seed=9)
    b = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 400, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(np.asarray(x.images), np.asarray(y.images))
        assert np.array_equal(x.labels, y.labels)


def test_blob_roles_draw_independent_streams():
    src, tgt = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5], _MEANS, 0.5, 400, seed=9)
    assert not np.array_equal(src.labels, tgt.labels) or \
        not np.array_equal(np.asarray(src.images), np.asarray(tgt.images))


def test_blob_equal_priors_are_near_uniform():
    src, _ = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5], _MEANS, 0.5, 4000, seed=1)
    counts = np.bincount(src.labels, minlength=2)
    tv = 0.5 * np.abs(counts / counts.sum() - 0.5).sum()
    assert tv < 0.05


def test_blob_skewed_priors_show_up_in_counts():
    _, tgt = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 1000, seed=2)
    majority = (tgt.labels == 0).sum()
    # binomial 3-sigma band around 700
    assert abs(majority - 700) < 3 * np.sqrt(1000 * 0.7 * 0.3) + 1


def test_blob_zero_spread_collapses_to_means():
    src, _ = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5], _MEANS, 0.0, 50, seed=3)
    pts = np.asarray(src.images)
    expected = np.asarray(_MEANS, dtype=np.float64)[src.labels]
    assert np.array_equal(pts, expected.astype(np.float32).astype(np.float64))


def test_blob_regenerates_from_metadata():
    src, tgt = generate_blob_pair(3, [0.2, 0.3, 0.5], [0.5, 0.3, 0.2],
                                  [[0, 0], [3, 0], [0, 3]], 0.4, 300, seed=8)
    for ds in (src, tgt):
        rebuilt = regenerate(ds.metadata)
        assert np.array_equal(np.asarray(ds.images), np.asarray(rebuilt.images))
        assert np.array_equal(ds.labels, rebuilt.labels)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(K=2, source_priors=[0.5, 0.5], target_priors=[0.7, 0.3],
          means=_MEANS, spread=-0.1, n=10, seed=0), "spread"),
    (dict(K=2, source_priors=[0.5, 0.5], target_priors=[0.7, 0.3],
          means=[[0, 0]], spread=0.5, n=10, seed=0), "means"),
    (dict(K=2, source_priors=[0.6, 0.5], target_priors=[0.7, 0.3],
          means=_MEANS, spread=0.5, n=10, seed=0), "source_priors"),
    (dict(K=2, source_priors=[0.5, 0.5], target_priors=[1.2, -0.2],
          means=_MEANS, spread=0.5, n=10, seed=0), "target_priors"),
])
def test_blob_pair_validation_errors(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        generate_blob_pair(**kwargs)


# ---------------------------------------------------------------------------
# outlier pools
# ---------------------------------------------------------------------------

def test_outlier_blank_images_are_constant_fields():
    pool = outlier_pool("blank", 32, seed=0)
    data = pool.data
    per_image = data.reshape(32, -1)
    assert all(np.unique(img).size == 1 for img in per_image)
    levels = {img[0] for img in per_image}
    assert levels <= {0.0, 1.0} and len(levels) == 2


def test_outlier_checker_has_exactly_half_bright():
    pool = outlier_pool("checker", 16, seed=1)
    bright = pool.data.reshape(16, -1).sum(axis=1)
    assert np.all(bright == CANVAS * CANVAS / 2)
    # both phases occur and are complements
    flat = pool.data.reshape(16, -1)
    distinct = np.unique(flat, axis=0)
    assert distinct.shape[0] == 2
    assert np.array_equal(distinct[0], 1.0 - distinct[1])


def test_outlier_inverted_random_is_bright_skewed():
    pool = outlier_pool("inverted_random", 64, seed=2)
    assert pool.data.min() >= 0.0 and pool.data.max() <= 1.0
    assert pool.data.mean() > 0.6  # mean of 1 - U^2 is 2/3


@pytest.mark.parametrize("style", OUTLIER_STYLES)
def test_outlier_pool_deterministic(style):
    a = outlier_pool(style, 8, seed=5)
    b = outlier_pool(style, 8, seed=5)
    assert np.array_equal(a.data, b.data)


def test_outlier_pool_rejects_bad_arguments():
    with pytest.raises(ValueError, match="style"):
        outlier_pool("plaid", 4, seed=0)
    with pytest.raises(ValueError, match="n >= 1"):
        outlier_pool("blank", 0, seed=0)


# ---------------------------------------------------------------------------
# disk format
# ---------------------------------------------------------------------------

def test_glyph_save_load_round_trip(tmp_path):
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=7,
                           noise=0.1, seed=21)
    ds = generate_glyph_domain(spec, "target")
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.is_image
    assert np.array_equal(back.images.data, ds.images.data)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.sublabels, ds.sublabels)
    assert back.class_count == 4 and back.domain_role == "target"
    assert back.metadata == ds.metadata


def test_blob_save_load_round_trip(tmp_path):
    _, tgt = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 60, seed=6)
    save_dataset(tgt, tmp_path / "b")
    back = load_dataset(tmp_path / "b")
    assert not back.is_image
    assert np.array_equal(np.asarray(back.images), np.asarray(tgt.images))
    assert np.array_equal(back.labels, tgt.labels)
    assert back.sublabels is None


def test_sentinel_label_survives_unsigned_storage(tmp_path):
    ds = _tiny_dataset()
    lab = ds.labels.copy()
    lab[[0, 5]] = OUTLIER_LABEL
    marked = DomainDataset(images=ds.images, labels=lab, class_count=4,
                           domain_role="target")
    save_dataset(marked, tmp_path / "s")
    back = load_dataset(tmp_path / "s")
    assert np.array_equal(back.labels, lab)
    assert (back.labels == OUTLIER_LABEL).sum() == 2


def test_sentinel_sublabel_survives_unsigned_storage(tmp_path):
    ds = generate_glyph_domain(GlyphDomainSpec(samples_per_class=3), "target")
    lab, sub = ds.labels.copy(), ds.sublabels.copy()
    lab[[1, 4]] = sub[[1, 4]] = OUTLIER_LABEL
    marked = DomainDataset(images=ds.images, labels=lab, class_count=4,
                           domain_role="target", sublabels=sub)
    save_dataset(marked, tmp_path / "s")
    assert np.array_equal(load_dataset(tmp_path / "s").sublabels, sub)


def _saved(tmp_path):
    save_dataset(generate_glyph_domain(GlyphDomainSpec(samples_per_class=3), "target"),
                 tmp_path / "d")
    return tmp_path / "d"


@pytest.mark.parametrize("key", ["kind", "shape", "class_count", "domain_role"])
def test_load_names_a_key_missing_from_meta(tmp_path, key):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    del meta[key]
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"meta\.json is missing keys: \['{key}'\]"):
        load_dataset(path)


@pytest.mark.parametrize("key,value,msg", [
    ("kind", "voxels", "'kind' must be images or points"),
    ("shape", [12, "16", 16], "'shape' must be a list of sizes"),
    ("class_count", "4", "'class_count' must be an integer"),
    ("metadata", 5, "'metadata' must be an object"),
    ("domain_role", "sideways", "domain_role must be one of"),
    ("class_count", 2, "labels must lie in"),
], ids=["kind", "shape", "class_count", "metadata", "role", "labels_vs_classes"])
def test_load_names_the_file_of_a_bad_meta_value(tmp_path, key, value, msg):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta[key] = value
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=msg) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("text,msg", [
    ("{not json", "not valid JSON"),
    ("[1]", "JSON object"),
])
def test_load_names_a_malformed_meta_file(tmp_path, text, msg):
    path = _saved(tmp_path)
    (path / "meta.json").write_text(text)
    with pytest.raises(ValueError, match=msg) as err:
        load_dataset(path)
    assert str(path / "meta.json") in str(err.value)


@pytest.mark.parametrize("name,per_row", [
    ("images.f32le", 4 * CANVAS * CANVAS), ("labels.u32le", 4), ("sublabels.u32le", 4),
])
@pytest.mark.parametrize("delta", [-1, -4, 3])
def test_load_names_a_file_of_the_wrong_length(tmp_path, name, per_row, delta):
    path = _saved(tmp_path)
    raw = (path / name).read_bytes()
    (path / name).write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
    want = 12 * per_row
    with pytest.raises(ValueError, match=f"holds {want + delta} bytes, expected {want}") as err:
        load_dataset(path)
    assert str(path / name) in str(err.value)


@pytest.mark.parametrize("name", ["images.f32le", "labels.u32le", "sublabels.u32le"])
def test_load_rejects_a_file_with_a_huge_tail_before_reading_it(tmp_path, name):
    path = _saved(tmp_path)
    os.truncate(path / name, (path / name).stat().st_size + 64 * 2**20)  # a sparse zero tail

    def load():
        with pytest.raises(ValueError, match="bytes, expected") as err:
            load_dataset(path)
        return err.value

    error, peak = traced_peak(load)
    assert str(path / name) in str(error)
    assert peak < 2**20


def test_load_names_the_image_file_when_the_shape_product_overflows_int64(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64, which an empty file would match
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["shape"] = [2**32, 2**32]
    (path / "meta.json").write_text(json.dumps(meta))
    (path / "images.f32le").write_bytes(b"")
    with pytest.raises(ValueError, match=f"holds 0 bytes, expected {4 * 2**64}") as err:
        load_dataset(path)
    assert str(path / "images.f32le") in str(err.value)


def test_regenerate_rejects_unknown_generator():
    with pytest.raises(ValueError, match="generator"):
        regenerate({"generator": "fractal", "domain_role": "source"})


# ---------------------------------------------------------------------------
# learnability
# ---------------------------------------------------------------------------

def test_source_glyphs_are_separable_by_small_mlp():
    src_spec, _ = default_pair_specs(samples_per_class=40, seed=0)
    ds = generate_glyph_domain(src_spec, "source")
    x, y = ds.x_flat(), ds.labels
    params = init_params([x.shape[1], 64, 32, 4], seed=17)
    opt = OptimState(kind="adam", lr=1e-3, weight_decay=1e-5)
    rng = np.random.default_rng(0)
    for _ in range(80):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            rows = order[start:start + 64]
            step(params, opt, backward(head_objective(params, x[rows], y[rows])))
    preds = predict_logits(params, x).argmax(axis=1)
    assert (preds == y).mean() >= 0.95
