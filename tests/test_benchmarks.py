"""Benchmark constructors: decay law, relabeling, outlier injection."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from pbmatch.benchmarks import (
    BenchmarkSpec,
    benchmark_report,
    build_ilds,
    decay_counts,
    inject_two,
    label_histogram,
    load_pair,
    relabel_to_meta,
    resample_lds,
    write_benchmark,
)
from pbmatch.datasets import (
    OUTLIER_LABEL,
    DomainDataset,
    GlyphDomainSpec,
    checked_object,
    generate_blob_pair,
    generate_glyph_domain,
    outlier_pool,
)
from pbmatch.transforms import rng


def _balanced_glyphs(samples_per_class=100, seed=0, role="target"):
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2,
                           samples_per_class=samples_per_class, seed=seed)
    return generate_glyph_domain(spec, role)


def _point_dataset(sub_counts, role="target"):
    """Points dataset with sublabel s repeated sub_counts[s] times; label = s // 2."""
    sublabels = np.concatenate([np.full(c, s) for s, c in enumerate(sub_counts)])
    labels = sublabels // 2
    rng = np.random.default_rng(0)
    points = rng.normal(size=(len(sublabels), 2))
    return DomainDataset(images=points, labels=labels,
                         class_count=int(labels.max()) + 1, domain_role=role,
                         sublabels=sublabels)


def _row_multiset(arr):
    return Counter(row.tobytes() for row in np.asarray(arr))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,msg", [
    (dict(kind="XDS"), "kind"),
    (dict(kind="LDS", imbalance_factor=0.5), "imbalance_factor"),
    (dict(kind="LDS", imbalance_factor=float("inf")), "imbalance_factor"),
    (dict(kind="LDS", imbalance_factor=float("nan")), "imbalance_factor"),
    (dict(kind="TwO", outlier_fraction=1.0), "outlier_fraction"),
    (dict(kind="TwO", outlier_fraction=-0.1), "outlier_fraction"),
    (dict(kind="LDS", class_order="alphabetical"), "class_order"),
])
def test_spec_rejects_invalid_fields(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        BenchmarkSpec(**kwargs)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(kind="TwO", imbalance_factor=10.0, outlier_fraction=0.2), "imbalance_factor"),
    (dict(kind="LDS", imbalance_factor=4.0, outlier_fraction=0.5), "outlier_fraction"),
    (dict(kind="ILDS", outlier_fraction=0.1), "outlier_fraction"),
])
def test_spec_rejects_the_field_its_kind_does_not_use(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        BenchmarkSpec(**kwargs)
    with pytest.raises(ValueError, match=msg):
        checked_object(BenchmarkSpec, kwargs, "benchmark spec")


@pytest.mark.parametrize("payload,msg", [
    ("LDS", "benchmark spec must be an object"),
    ({"kind": "LDS", "bogus": 1}, "bogus"),
    ({"imbalance_factor": 4.0}, "'kind'"),
    ({"kind": "LDS", "imbalance_factor": "4"}, "'imbalance_factor'"),
    ({"kind": "LDS", "seed": 1.5}, "'seed'"),
    ({"kind": "LDS", "class_order": 3}, "'class_order'"),
    ({"kind": "ILDS", "meta_class_map": [0, 1]}, "'meta_class_map'"),
    ({"kind": "ILDS", "meta_class_map": {"a": 0}}, "'meta_class_map'"),
    ({"kind": "ILDS", "meta_class_map": {"0": [0]}}, "'meta_class_map'"),
], ids=["not_object", "unknown_key", "no_kind", "float_str", "int_float",
        "order_not_list", "map_not_object", "map_key_not_int", "map_value_not_int"])
def test_spec_read_from_json_names_the_bad_field(payload, msg):
    with pytest.raises(ValueError, match=msg):
        checked_object(BenchmarkSpec, payload, "benchmark spec")


@pytest.mark.parametrize("read", [
    lambda order: BenchmarkSpec(kind="LDS", class_order=order),
    lambda order: checked_object(BenchmarkSpec, {"kind": "LDS", "class_order": order},
                                 "benchmark spec"),
], ids=["python", "json"])
def test_class_order_takes_no_string_but_random(read):
    with pytest.raises(ValueError, match=r"class_order'? must be a list of integers \(not "
                                         r"empty\) or one of \('random',\), got 'shuffled'"):
        read("shuffled")
    assert read("random").class_order == "random"


def test_spec_dict_round_trip():
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=9.0,
                         class_order=[1, 0, 3, 2],
                         meta_class_map={0: 0, 1: 0, 2: 1, 3: 1},
                         outlier_fraction=0.0, seed=5)
    back = checked_object(BenchmarkSpec, json.loads(json.dumps(dataclasses.asdict(spec))),
                          "benchmark spec")
    assert back.kind == spec.kind
    assert back.meta_class_map == spec.meta_class_map
    assert list(back.class_order) == [1, 0, 3, 2]


# ---------------------------------------------------------------------------
# decay law
# ---------------------------------------------------------------------------

def test_decay_counts_reference_values():
    assert decay_counts(1000, 4, 10.0).tolist() == [1000, 464, 215, 100]


def test_decay_counts_direct_formula_oracle():
    got = decay_counts(700, 5, 6.0)
    for k in range(5):
        raw = 700 * 6.0 ** (-k / 4.0)
        assert got[k] == int(np.floor(raw + 0.5))


def test_decay_counts_single_position_keeps_all():
    assert decay_counts(123, 1, 50.0).tolist() == [123]


def test_decay_counts_factor_one_is_flat():
    assert decay_counts(400, 6, 1.0).tolist() == [400] * 6


# ---------------------------------------------------------------------------
# LDS
# ---------------------------------------------------------------------------

def test_lds_reference_histogram():
    ds = _balanced_glyphs(samples_per_class=1000, seed=1)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=10.0,
                         class_order=[0, 1, 2, 3], seed=0)
    out = resample_lds(ds, spec)
    counts = np.bincount(out.labels, minlength=4)
    assert counts.tolist() == [1000, 464, 215, 100]
    assert out.metadata["benchmark"]["achieved_histogram"] == [1000, 464, 215, 100]


def test_lds_factor_one_is_identity():
    ds = _balanced_glyphs(samples_per_class=30, seed=2)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=1.0, seed=0)
    out = resample_lds(ds, spec)
    assert np.array_equal(out.images, ds.images)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.sublabels, ds.sublabels)


@pytest.mark.parametrize("factor", [2.0, 5.0, 10.0])
def test_lds_max_min_ratio_matches_factor(factor):
    ds = _balanced_glyphs(samples_per_class=200, seed=3)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=factor, seed=1)
    counts = np.bincount(resample_lds(ds, spec).labels, minlength=4)
    assert counts.max() == 200
    assert abs(counts.min() - 200 / factor) <= 0.5 + 1e-12


def test_lds_output_is_sub_multiset_of_input():
    ds = _balanced_glyphs(samples_per_class=50, seed=4)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=5.0, seed=2)
    out = resample_lds(ds, spec)
    leftover = _row_multiset(ds.images)
    leftover.subtract(_row_multiset(out.images))
    assert all(v >= 0 for v in leftover.values())
    assert out.n_samples < ds.n_samples


def test_lds_explicit_class_order_places_majority():
    ds = _balanced_glyphs(samples_per_class=100, seed=5)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=10.0,
                         class_order=[2, 0, 3, 1], seed=0)
    counts = np.bincount(resample_lds(ds, spec).labels, minlength=4)
    assert counts[2] == 100  # head of the tail order keeps everything
    assert counts[1] == 10   # last position decays fully


def test_lds_random_class_order_is_seeded():
    ds = _balanced_glyphs(samples_per_class=40, seed=6)
    a = resample_lds(ds, BenchmarkSpec(kind="LDS", imbalance_factor=8.0, seed=11))
    b = resample_lds(ds, BenchmarkSpec(kind="LDS", imbalance_factor=8.0, seed=11))
    c = resample_lds(ds, BenchmarkSpec(kind="LDS", imbalance_factor=8.0, seed=12))
    assert np.array_equal(a.images, b.images)
    assert sorted(np.bincount(c.labels, minlength=4).tolist()) == \
        sorted(np.bincount(a.labels, minlength=4).tolist())


def test_lds_rejects_unbalanced_input():
    ds = _balanced_glyphs(samples_per_class=20, seed=7)
    trimmed = ds.take(np.arange(ds.n_samples - 3))
    with pytest.raises(ValueError, match="balanced"):
        resample_lds(trimmed, BenchmarkSpec(kind="LDS", imbalance_factor=2.0))


def test_lds_tail_zero_error_suggests_more_samples():
    ds = _balanced_glyphs(samples_per_class=5, seed=8)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=1000.0, seed=0)
    with pytest.raises(ValueError, match="more samples per class"):
        resample_lds(ds, spec)


def test_lds_rejects_wrong_kind():
    ds = _balanced_glyphs(samples_per_class=10, seed=9)
    with pytest.raises(ValueError, match="kind"):
        resample_lds(ds, BenchmarkSpec(kind="TwO"))


def test_lds_does_not_mutate_input():
    ds = _balanced_glyphs(samples_per_class=25, seed=10)
    before_imgs = ds.images.copy()
    before_labels = ds.labels.copy()
    resample_lds(ds, BenchmarkSpec(kind="LDS", imbalance_factor=4.0, seed=3))
    assert np.array_equal(ds.images, before_imgs)
    assert np.array_equal(ds.labels, before_labels)


# ---------------------------------------------------------------------------
# ILDS
# ---------------------------------------------------------------------------

_META_MAP = {0: 0, 1: 0, 2: 1, 3: 1}


def test_ilds_reference_sub_counts():
    ds = _point_dataset([900, 900, 900, 900])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=9.0,
                         meta_class_map=_META_MAP, seed=0)
    out = build_ilds(ds, spec)
    for meta in (0, 1):
        subs = [s for s, m in _META_MAP.items() if m == meta]
        kept = sorted((out.sublabels == s).sum() for s in subs)
        assert kept == [100, 900]
    assert np.bincount(out.labels, minlength=2).tolist() == [1000, 1000]


def test_ilds_labels_follow_meta_map():
    ds = _point_dataset([40, 40, 40, 40])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=4.0,
                         meta_class_map=_META_MAP, seed=1)
    out = build_ilds(ds, spec)
    expected = np.array([_META_MAP[int(s)] for s in out.sublabels])
    assert np.array_equal(out.labels, expected)
    assert out.class_count == 2


def test_ilds_factor_one_is_pure_relabeling():
    ds = _point_dataset([30, 30, 30, 30])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=1.0,
                         meta_class_map=_META_MAP, seed=2)
    out = build_ilds(ds, spec)
    assert out.n_samples == ds.n_samples
    assert np.array_equal(np.asarray(out.images), np.asarray(ds.images))
    assert np.array_equal(out.labels, np.array([_META_MAP[int(s)] for s in ds.sublabels]))


def test_ilds_output_rows_come_from_input():
    ds = _point_dataset([60, 60, 60, 60])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=6.0,
                         meta_class_map=_META_MAP, seed=3)
    out = build_ilds(ds, spec)
    leftover = _row_multiset(ds.images)
    leftover.subtract(_row_multiset(out.images))
    assert all(v >= 0 for v in leftover.values())


def test_ilds_works_on_glyph_sublabels():
    ds = _balanced_glyphs(samples_per_class=60, seed=11)
    # styles within each class become the long-tailed sub-classes
    mapping = {c * 2 + st: c for c in range(4) for st in range(2)}
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=5.0,
                         meta_class_map=mapping, seed=4)
    out = build_ilds(ds, spec)
    assert np.bincount(out.labels, minlength=4).tolist() == [36] * 4  # 30 + 6
    for c in range(4):
        kept = sorted((out.sublabels == c * 2 + st).sum() for st in range(2))
        assert kept == [6, 30]


def test_ilds_requires_sublabels():
    src, _ = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5],
                                [[-2, 0], [2, 0]], 0.5, 40, seed=0)
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=2.0,
                         meta_class_map={0: 0, 1: 1})
    with pytest.raises(ValueError, match="sublabels"):
        build_ilds(src, spec)


def test_ilds_rejects_missing_sublabel_in_map():
    ds = _point_dataset([20, 20, 20, 20])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=2.0,
                         meta_class_map={0: 0, 1: 0, 2: 1}, seed=0)
    with pytest.raises(ValueError, match="missing from meta_class_map"):
        build_ilds(ds, spec)


def test_ilds_rejects_non_contiguous_meta_labels():
    ds = _point_dataset([20, 20, 20, 20])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=2.0,
                         meta_class_map={0: 0, 1: 0, 2: 2, 3: 2}, seed=0)
    with pytest.raises(ValueError, match="contiguous"):
        build_ilds(ds, spec)


def test_relabel_to_meta_keeps_bytes_and_count():
    ds = _balanced_glyphs(samples_per_class=15, seed=12, role="source")
    mapping = {c * 2 + st: c // 2 for c in range(4) for st in range(2)}
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=3.0, meta_class_map=mapping)
    out = relabel_to_meta(ds, spec)
    assert out.n_samples == ds.n_samples
    assert out.images.tobytes() == ds.images.tobytes()
    assert out.class_count == 2
    assert np.array_equal(out.labels, np.array([mapping[int(s)] for s in ds.sublabels]))


def test_ilds_deterministic():
    ds = _point_dataset([80, 80, 80, 80])
    spec = BenchmarkSpec(kind="ILDS", imbalance_factor=7.0,
                         meta_class_map=_META_MAP, seed=6)
    a, b = build_ilds(ds, spec), build_ilds(ds, spec)
    assert np.array_equal(np.asarray(a.images), np.asarray(b.images))
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# one long-tail resampler for LDS and ILDS
# ---------------------------------------------------------------------------

def _reference_lds(target, spec):
    """LDS as two separate loops once wrote it, on a balanced target."""
    k = target.class_count
    n_max = int(np.bincount(target.labels, minlength=k)[0])
    if isinstance(spec.class_order, str):
        order = rng(spec.seed, 7).permutation(k)
    else:
        order = np.asarray(spec.class_order, dtype=np.int64)
    kept = decay_counts(n_max, k, spec.imbalance_factor)
    selected = []
    for position, cls in enumerate(order):
        rows = np.flatnonzero(target.labels == cls)
        shuffled = rows[rng(spec.seed, 1000 + int(cls)).permutation(rows.size)]
        selected.append(shuffled[: kept[position]])
    out = target.take(np.sort(np.concatenate(selected)))
    out.metadata["benchmark"] = {
        "kind": "LDS",
        "imbalance_factor": spec.imbalance_factor,
        "class_order": [int(c) for c in order],
        "seed": spec.seed,
        "achieved_histogram": np.bincount(out.labels, minlength=k).tolist(),
        "tv_vs_uniform": label_histogram(out)[1],
    }
    return out


def _reference_ilds(target, spec):
    """ILDS as two separate loops once wrote it, on a balanced target."""
    mapping = {int(k): int(v) for k, v in spec.meta_class_map.items()}
    meta_count = len(set(mapping.values()))
    sublabels = target.sublabels
    per_meta = {m: [] for m in range(meta_count)}
    for sub in np.unique(sublabels):
        per_meta[mapping[int(sub)]].append(int(sub))
    selected = []
    sub_histograms = {}
    for meta in range(meta_count):
        subs = sorted(per_meta[meta])
        n_max = int((sublabels == subs[0]).sum())
        kept = decay_counts(n_max, len(subs), spec.imbalance_factor)
        order = rng(spec.seed, 2000 + meta).permutation(len(subs))
        sub_histograms[str(meta)] = {}
        for position, oi in enumerate(order):
            sub = subs[oi]
            rows = np.flatnonzero(sublabels == sub)
            shuffled = rows[rng(spec.seed, 2500 + sub).permutation(rows.size)]
            selected.append(shuffled[: kept[position]])
            sub_histograms[str(meta)][str(sub)] = int(kept[position])
    trimmed = target.take(np.sort(np.concatenate(selected)))
    labels = np.array([mapping[int(s)] for s in trimmed.sublabels], dtype=np.int64)
    out = DomainDataset(
        images=trimmed.images, labels=labels, class_count=meta_count,
        domain_role=trimmed.domain_role, sublabels=trimmed.sublabels,
        metadata=dict(trimmed.metadata))
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


def _styled_points(classes, styles, per_style=20):
    """Shuffled points: class c, sub-style st carries sublabel c * styles + st."""
    gen = np.random.default_rng([classes, styles])
    sublabels = gen.permutation(np.repeat(np.arange(classes * styles), per_style))
    return DomainDataset(images=gen.normal(size=(sublabels.size, 2)),
                         labels=sublabels // styles, class_count=classes,
                         domain_role="target", sublabels=sublabels)


def _assert_same_dataset(got, want):
    assert got.images.tobytes() == want.images.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.sublabels.tobytes() == want.sublabels.tobytes()
    assert got.class_count == want.class_count
    assert got.metadata["benchmark"] == want.metadata["benchmark"]
    assert json.dumps(got.metadata["benchmark"]) == json.dumps(want.metadata["benchmark"])


@pytest.mark.parametrize("styles", [1, 2, 3, 4])
@pytest.mark.parametrize("classes", [2, 3, 4, 5, 6])
def test_the_shared_resampler_matches_the_two_loops(classes, styles):
    ds = _styled_points(classes, styles)
    meta_map = {int(s): int(c) for s, c in zip(ds.sublabels, ds.labels)}
    for seed in range(10):
        explicit = np.random.default_rng([seed, classes]).permutation(classes).tolist()
        for factor in (1.0, 2.0, 9.5, 10.0):
            for order in (explicit, "random"):
                spec = BenchmarkSpec(kind="LDS", imbalance_factor=factor,
                                     class_order=order, seed=seed)
                _assert_same_dataset(resample_lds(ds, spec), _reference_lds(ds, spec))
            spec = BenchmarkSpec(kind="ILDS", imbalance_factor=factor,
                                 meta_class_map=meta_map, seed=seed)
            _assert_same_dataset(build_ilds(ds, spec), _reference_ilds(ds, spec))


@pytest.mark.parametrize("kind", ["LDS", "ILDS", "TwO"])
def test_a_target_holding_outlier_rows_is_refused_by_name(kind):
    clean = _balanced_glyphs(samples_per_class=10, seed=14)
    two = inject_two(clean, outlier_pool(10, seed=0),
                     BenchmarkSpec(kind="TwO", outlier_fraction=0.2))
    # the map a dispatcher reads off these sublabels sends -1 to -1, and the
    # outlier rows are named before the map is checked
    meta_map = {int(s): int(c) for s, c in zip(two.sublabels, two.labels)}
    builds = {
        "LDS": lambda: resample_lds(two, BenchmarkSpec(kind="LDS", imbalance_factor=2.0)),
        "ILDS": lambda: build_ilds(two, BenchmarkSpec(kind="ILDS", imbalance_factor=2.0,
                                                      meta_class_map=meta_map)),
        # a second injection would count the 10 outlier rows as inliers and
        # leave more than the 20% asked
        "TwO": lambda: inject_two(two, outlier_pool(20, seed=1),
                                  BenchmarkSpec(kind="TwO", outlier_fraction=0.2)),
    }
    with pytest.raises(ValueError, match=(
            f"^{kind} needs a target without outlier rows, got 10 rows labeled -1; "
            "build TwO last")):
        builds[kind]()


# ---------------------------------------------------------------------------
# TwO
# ---------------------------------------------------------------------------

def test_two_zero_fraction_is_identity():
    ds = _balanced_glyphs(samples_per_class=10, seed=13)
    out = inject_two(ds, outlier_pool(4, seed=0),
                     BenchmarkSpec(kind="TwO", outlier_fraction=0.0))
    assert np.array_equal(out.images, ds.images)
    assert np.array_equal(out.labels, ds.labels)


def test_two_reference_arithmetic():
    ds = _balanced_glyphs(samples_per_class=225, seed=14)  # 900 samples
    pool = outlier_pool(128, seed=1)
    out = inject_two(ds, pool, BenchmarkSpec(kind="TwO", outlier_fraction=0.1, seed=2))
    assert out.n_samples == 1000
    assert (out.labels == OUTLIER_LABEL).sum() == 100
    counts, _ = label_histogram(out)
    assert counts.sum() == 900  # sentinel rows never enter the denominator


def test_two_shuffles_outliers_into_the_stream():
    ds = _balanced_glyphs(samples_per_class=225, seed=15)
    pool = outlier_pool(128, seed=3)
    out = inject_two(ds, pool, BenchmarkSpec(kind="TwO", outlier_fraction=0.1, seed=4))
    assert (out.labels[:900] == OUTLIER_LABEL).any()
    assert (out.labels[900:] != OUTLIER_LABEL).any()


def test_two_preserves_valid_rows_exactly():
    ds = _balanced_glyphs(samples_per_class=50, seed=16)
    pool = outlier_pool(64, seed=5)
    out = inject_two(ds, pool, BenchmarkSpec(kind="TwO", outlier_fraction=0.2, seed=6))
    valid = out.images[out.labels != OUTLIER_LABEL]
    assert _row_multiset(valid) == _row_multiset(ds.images)


def test_two_insufficient_pool_error():
    ds = _balanced_glyphs(samples_per_class=225, seed=17)
    pool = outlier_pool(10, seed=7)
    with pytest.raises(ValueError, match="pool has 10"):
        inject_two(ds, pool, BenchmarkSpec(kind="TwO", outlier_fraction=0.1))


def test_two_rejects_point_datasets():
    src, _ = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5],
                                [[-2, 0], [2, 0]], 0.5, 40, seed=1)
    with pytest.raises(ValueError, match="image"):
        inject_two(src, outlier_pool(8, seed=0),
                   BenchmarkSpec(kind="TwO", outlier_fraction=0.1))


def test_two_rejects_shape_mismatch():
    ds = _balanced_glyphs(samples_per_class=10, seed=18)
    odd_pool = np.zeros((8, 8, 8))
    with pytest.raises(ValueError, match="shape"):
        inject_two(ds, odd_pool, BenchmarkSpec(kind="TwO", outlier_fraction=0.1))


def test_two_deterministic():
    ds = _balanced_glyphs(samples_per_class=30, seed=19)
    pool = outlier_pool(32, seed=8)
    spec = BenchmarkSpec(kind="TwO", outlier_fraction=0.15, seed=9)
    a, b = inject_two(ds, pool, spec), inject_two(ds, pool, spec)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# histogram reporting
# ---------------------------------------------------------------------------

def test_histogram_balanced_gives_zero_tv():
    ds = _balanced_glyphs(samples_per_class=12, seed=20)
    counts, tv = label_histogram(ds)
    assert counts.tolist() == [12] * 4
    assert tv == 0.0


def test_histogram_seventy_thirty_reference():
    labels = np.array([0] * 700 + [1] * 300)
    ds = DomainDataset(images=np.zeros((1000, 2)), labels=labels,
                       class_count=2, domain_role="target")
    _, tv = label_histogram(ds)
    assert abs(tv - 0.2) < 1e-12


def test_histogram_matches_direct_summation_on_lds_counts():
    ds = _balanced_glyphs(samples_per_class=1000, seed=21)
    out = resample_lds(ds, BenchmarkSpec(kind="LDS", imbalance_factor=10.0,
                                         class_order=[0, 1, 2, 3], seed=0))
    counts, tv = label_histogram(out)
    total = counts.sum()
    direct = 0.5 * sum(abs(c / total - 0.25) for c in counts)
    assert abs(tv - direct) < 1e-12


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_write_benchmark_round_trip(tmp_path):
    src = _balanced_glyphs(samples_per_class=25, seed=22, role="source")
    tgt = _balanced_glyphs(samples_per_class=25, seed=23)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=5.0, seed=1)
    shifted = resample_lds(tgt, spec)
    write_benchmark(tmp_path, src, shifted, spec)

    report = json.loads((tmp_path / "benchmark.json").read_text())
    assert report["spec"]["kind"] == "LDS"
    assert report["source"]["tv_vs_uniform"] == 0.0
    assert report["target"]["counts"] == np.bincount(shifted.labels, minlength=4).tolist()
    assert report["target"]["benchmark"]["imbalance_factor"] == 5.0

    src_back, tgt_back = load_pair(tmp_path)
    assert np.array_equal(src_back.images, src.images)
    assert np.array_equal(tgt_back.images, shifted.images)
    assert np.array_equal(tgt_back.labels, shifted.labels)


def test_a_spec_of_numpy_numbers_is_written_and_read_back(tmp_path):
    # json.dumps once failed here on the stored numpy numbers
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=np.int64(3), seed=np.uint8(2))
    src = _balanced_glyphs(samples_per_class=6, seed=22, role="source")
    shifted = resample_lds(_balanced_glyphs(samples_per_class=6, seed=23), spec)
    write_benchmark(tmp_path, src, shifted, spec)
    report = json.loads((tmp_path / "benchmark.json").read_text())
    assert checked_object(BenchmarkSpec, report["spec"], "benchmark spec") == spec
    src_back, tgt_back = load_pair(tmp_path)
    assert np.array_equal(tgt_back.images, shifted.images)
    assert tgt_back.metadata == json.loads(json.dumps(shifted.metadata))


def test_report_keeps_meta_class_map_keys_in_text_order():
    spec = BenchmarkSpec(kind="ILDS", meta_class_map={k: k % 2 for k in range(12)})
    ds = _balanced_glyphs(samples_per_class=2, role="source")
    text = json.dumps(benchmark_report(spec, ds, ds), sort_keys=True)
    keys = list(json.loads(text)["spec"]["meta_class_map"])
    assert keys == sorted(str(k) for k in range(12)) and keys[:3] == ["0", "1", "10"]


def test_report_counts_outliers_separately():
    ds = _balanced_glyphs(samples_per_class=225, seed=24)
    spec = BenchmarkSpec(kind="TwO", outlier_fraction=0.1, seed=3)
    out = inject_two(ds, outlier_pool(128, seed=0), spec)
    report = benchmark_report(spec, _balanced_glyphs(samples_per_class=10, role="source"), out)
    assert report["target"]["n_outliers"] == 100
    assert sum(report["target"]["counts"]) == 900
