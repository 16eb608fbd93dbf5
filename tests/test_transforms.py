"""Image operation families: examples, group laws, determinism, label balance,
and bitwise agreement of the batch-wise transforms with per-sample references."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import pbmatch
from pbmatch.training import SP_STREAM_SALT
from pbmatch.transforms import (
    CUTOUT_SIDE_FRACTION,
    MAX_BRIGHTNESS_DELTA,
    MAX_CONTRAST_DELTA,
    MAX_NOISE_SIGMA,
    MAX_ROTATE_DEG,
    MAX_SHIFT_PX,
    NI_KINDS,
    RA_KINDS,
    SP_KINDS,
    ST_TASKS,
    apply_semantic_preserving,
    apply_semantic_transforming,
    draw_semantic_preserving,
    extract_quadrant,
    rng,
    rngs,
    rotate90_cw,
    sample_mixup_beta,
    vflip,
)


def _random_batch(n, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (n, h, w))


def _views(seed):
    """A fresh generator of the view stream that training builds from ``seed``."""
    return rng(seed, SP_STREAM_SALT)


def _pretext(seed, task):
    """A fresh generator of the label stream that training builds for
    ``task`` from ``seed``."""
    return rng(seed, ST_TASKS.index(task) + 101)


# ---------------------------------------------------------------------------
# rotate90 / vflip / patch_location algebra
# ---------------------------------------------------------------------------

class TestRotate90:
    def test_single_clockwise_turn(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array([[3.0, 1.0], [4.0, 2.0]])
        assert np.array_equal(rotate90_cw(img, 1), expected)

    def test_zero_turns_is_identity(self):
        img = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(rotate90_cw(img, 0), img)

    def test_four_turns_is_identity(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(7, 7))
        assert np.array_equal(rotate90_cw(img, 4), img)

    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_composition_adds_mod_4(self, a, b):
        rng = np.random.default_rng(10 * a + b)
        img = rng.uniform(size=(6, 6))
        twice = rotate90_cw(rotate90_cw(img, a), b)
        assert np.array_equal(twice, rotate90_cw(img, (a + b) % 4))


class TestVflip:
    def test_flip_reverses_rows(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vflip(img, 1), np.array([[3.0, 4.0], [1.0, 2.0]]))

    def test_involution(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(5, 8))
        assert np.array_equal(vflip(vflip(img, 1), 1), img)

    def test_zero_is_identity(self):
        img = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(vflip(img, 0), img)


class TestPatchLocation:
    def test_quadrant_indexing(self):
        img = np.array([
            [1.0, 1.0, 2.0, 2.0],
            [1.0, 1.0, 2.0, 2.0],
            [3.0, 3.0, 4.0, 4.0],
            [3.0, 3.0, 4.0, 4.0],
        ])
        for q, val in enumerate((1.0, 2.0, 3.0, 4.0)):
            out = extract_quadrant(img, q)
            assert np.array_equal(out[:2, :2], np.full((2, 2), val))
            assert out[2:, :].sum() == 0.0
            assert out[:, 2:].sum() == 0.0

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even dimensions"):
            extract_quadrant(np.zeros((5, 4)), 0)


# ---------------------------------------------------------------------------
# batch-level semantic-transforming
# ---------------------------------------------------------------------------

class TestSemanticTransforming:
    def test_deterministic_given_seed(self):
        x = _random_batch(32)
        out1, lab1 = apply_semantic_transforming(x, "rotate90", _pretext(7, "rotate90"))
        out2, lab2 = apply_semantic_transforming(x, "rotate90", _pretext(7, "rotate90"))
        assert np.array_equal(out1, out2)
        assert np.array_equal(lab1, lab2)

    def test_labels_match_applied_op(self):
        x = _random_batch(64)
        out, labels = apply_semantic_transforming(x, "rotate90", _pretext(11, "rotate90"))
        for i in range(len(x)):
            assert np.array_equal(out[i], rotate90_cw(x[i], labels[i]))

    def test_vflip_labels_match(self):
        x = _random_batch(64)
        out, labels = apply_semantic_transforming(x, "vflip", _pretext(5, "vflip"))
        for i in range(len(x)):
            assert np.array_equal(out[i], vflip(x[i], labels[i]))

    def test_patch_labels_match(self):
        x = _random_batch(64)
        out, labels = apply_semantic_transforming(x, "patch_location",
                                                  _pretext(9, "patch_location"))
        for i in range(len(x)):
            assert np.array_equal(out[i], extract_quadrant(x[i], labels[i]))

    @pytest.mark.parametrize("task,k", [("rotate90", 4), ("vflip", 2), ("patch_location", 4)])
    def test_labels_close_to_uniform(self, task, k):
        # chi-square goodness of fit over a large stream
        x = _random_batch(4096)
        _, labels = apply_semantic_transforming(x, task, _pretext(23, task))
        counts = np.bincount(labels, minlength=k)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_rotate_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            apply_semantic_transforming(_random_batch(2, 8, 10), "rotate90",
                                        _pretext(0, "rotate90"))

    def test_patch_requires_even(self):
        with pytest.raises(ValueError, match="even"):
            apply_semantic_transforming(_random_batch(2, 7, 7), "patch_location",
                                        _pretext(0, "patch_location"))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown semantic-transforming task"):
            apply_semantic_transforming(_random_batch(2), "colorize", _views(0))


# ---------------------------------------------------------------------------
# semantic-preserving family
# ---------------------------------------------------------------------------

class TestSemanticPreserving:
    def test_output_in_unit_range(self):
        x = _random_batch(64)
        out = apply_semantic_preserving(x, _views(3))
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_deterministic_given_seed(self):
        x = _random_batch(32)
        a = apply_semantic_preserving(x, _views(13))
        b = apply_semantic_preserving(x, _views(13))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        x = _random_batch(32)
        a = apply_semantic_preserving(x, _views(1))
        b = apply_semantic_preserving(x, _views(2))
        assert not np.array_equal(a, b)

    def test_does_not_mutate_input(self):
        x = _random_batch(16)
        before = x.copy()
        apply_semantic_preserving(x, _views(5))
        assert np.array_equal(x, before)

    def test_usually_changes_the_image(self):
        x = _random_batch(64)
        out = apply_semantic_preserving(x, _views(21))
        changed = sum(
            not np.array_equal(out[i], x[i]) for i in range(len(x))
        )
        assert changed >= 56

    def test_kind_subsets(self):
        x = _random_batch(16)
        ra = apply_semantic_preserving(x, _views(2), kinds=RA_KINDS)
        ni = apply_semantic_preserving(x, _views(2), kinds=NI_KINDS)
        assert not np.array_equal(ra, ni)

    def test_noise_only_stays_close(self):
        # additive noise capped at sigma 0.15 cannot move pixels far
        x = _random_batch(8)
        out = apply_semantic_preserving(x, _views(4), kinds=NI_KINDS)
        assert np.abs(out - x).max() < 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown semantic-preserving kind"):
            apply_semantic_preserving(_random_batch(2), _views(0), kinds=("sharpen",))

    @pytest.mark.parametrize("n", [0, 2])
    def test_unknown_kind_rejected_without_any_draw(self, n):
        with pytest.raises(ValueError, match="unknown semantic-preserving kind"):
            apply_semantic_preserving(_random_batch(n), _views(0), kinds=("sharpen",))


# ---------------------------------------------------------------------------
# mixup interpolation
# ---------------------------------------------------------------------------

class TestMixup:
    def test_beta_sampler_range_and_symmetry(self):
        rng = np.random.default_rng(8)
        draws = sample_mixup_beta(20000, 0.2, rng)
        assert draws.min() >= 0.0
        assert draws.max() <= 1.0
        # Beta(a,a) is symmetric about 1/2
        assert abs(draws.mean() - 0.5) < 0.01

    def test_beta_sampler_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            sample_mixup_beta(4, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# per-sample references: one image at a time, as the transforms are defined
# ---------------------------------------------------------------------------

def _ref_shift(img, dy, dx):
    if dy == 0 and dx == 0:
        return img
    h, w = img.shape
    padded = np.pad(img, ((abs(dy), abs(dy)), (abs(dx), abs(dx))), mode="edge")
    return np.ascontiguousarray(
        padded[abs(dy) - dy:abs(dy) - dy + h, abs(dx) - dx:abs(dx) - dx + w])


def _ref_rotate_nearest(img, angle_deg):
    if angle_deg == 0.0:
        return img
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    src_y = cos_t * yy + sin_t * xx + cy
    src_x = -sin_t * yy + cos_t * xx + cx
    iy = np.clip(np.rint(src_y).astype(int), 0, h - 1)
    ix = np.clip(np.rint(src_x).astype(int), 0, w - 1)
    return img[iy, ix]


def _ref_apply_sp_op(img, kind, p, noise):
    if kind == "shift":
        return _ref_shift(img, int(p[0]), int(p[1]))
    if kind == "small_rotate":
        return _ref_rotate_nearest(img, p[0])
    if kind == "cutout":
        top, left, side = int(p[0]), int(p[1]), int(p[2])
        if side <= 0:
            return img
        out = img.copy()
        out[top:top + side, left:left + side] = 0.0
        return out
    if kind == "brightness":
        return img + p[0]
    if kind == "contrast":
        mean = img.mean()
        return (img - mean) * p[0] + mean
    return img + p[0] * noise


def _ops_per_sample(draws, n):
    """Each sample's (slot, kind, params, noise field) ops, in slot order."""
    ops = [[] for _ in range(n)]
    for d in draws:
        for j, r in enumerate(d.rows):
            ops[r].append((d.slot, d.kind, d.params[j],
                           None if d.noise is None else d.noise[j]))
    return [sorted(o, key=lambda op: op[0]) for o in ops]


def reference_semantic_preserving(data, seed, kinds):
    """Each sample's drawn ops applied to that image alone, one at a time."""
    n, h, w = data.shape
    ops = _ops_per_sample(draw_semantic_preserving(_views(seed), n, h, w, kinds), n)
    out = np.empty_like(data)
    for i in range(n):
        img = data[i]
        for _, kind, params, noise in ops[i]:
            img = _ref_apply_sp_op(img, kind, params, noise)
        out[i] = np.clip(img, 0.0, 1.0)
    return out


def reference_semantic_transforming(data, task, seed):
    n_classes = {"rotate90": 4, "vflip": 2, "patch_location": 4}[task]
    labels = _pretext(seed, task).integers(0, n_classes, data.shape[0]).astype(np.int64)
    out = np.empty_like(data)
    h, w = data.shape[1:]
    for i in range(data.shape[0]):
        img, label = data[i], int(labels[i])
        if task == "rotate90":
            out[i] = np.rot90(img, -label % 4)
        elif task == "vflip":
            out[i] = img[::-1].copy() if label % 2 else img.copy()
        else:
            top, left = (label // 2) * (h // 2), (label % 2) * (w // 2)
            quad = np.zeros_like(img)
            quad[:h // 2, :w // 2] = img[top:top + h // 2, left:left + w // 2]
            out[i] = quad
    return out, labels


def _same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_sp_matches_reference(data, seed, kinds):
    got = apply_semantic_preserving(data, _views(seed), kinds=kinds)
    want = reference_semantic_preserving(data, seed, kinds)
    assert _same_bytes(got, want), (seed, kinds, data.shape)


def _assert_st_matches_reference(data, task, seed):
    got, labels = apply_semantic_transforming(data, task, _pretext(seed, task))
    want, want_labels = reference_semantic_transforming(data, task, seed)
    assert _same_bytes(got, want), (task, seed, data.shape)
    assert np.array_equal(labels, want_labels)


KIND_SETS = {"ra": RA_KINDS, "ni": NI_KINDS, "all": SP_KINDS}


class TestBatchedMatchesPerSampleReference:
    @pytest.mark.parametrize("shape", [(32, 16, 16), (16, 12, 20)], ids=["square", "12x20"])
    @pytest.mark.parametrize("kinds", list(KIND_SETS), ids=list(KIND_SETS))
    def test_semantic_preserving_over_seeds(self, kinds, shape):
        rng = np.random.default_rng(shape[1] * 100 + shape[2])
        for seed in range(25):
            _assert_sp_matches_reference(rng.uniform(size=shape), seed, KIND_SETS[kinds])

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kinds", list(KIND_SETS), ids=list(KIND_SETS))
    def test_semantic_preserving_tiny_batches(self, kinds, n):
        data = np.random.default_rng(n).uniform(size=(n, 16, 16))
        for seed in range(40):
            _assert_sp_matches_reference(data, seed, KIND_SETS[kinds])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(0, 12),
           kinds=st.lists(st.sampled_from(SP_KINDS), min_size=1, max_size=6),
           shape=st.sampled_from([(16, 16), (12, 20), (9, 7), (4, 4)]))
    def test_semantic_preserving_property(self, seed, n, kinds, shape):
        data = np.random.default_rng(seed % 997).uniform(size=(n,) + shape)
        _assert_sp_matches_reference(data, seed, tuple(kinds))

    @pytest.mark.parametrize("task", ST_TASKS)
    def test_semantic_transforming_over_seeds(self, task):
        rng = np.random.default_rng(ST_TASKS.index(task))
        for seed in range(100):
            _assert_st_matches_reference(rng.uniform(size=(32, 16, 16)), task, seed)
        for n in (0, 1):
            for seed in range(20):
                _assert_st_matches_reference(rng.uniform(size=(n, 16, 16)), task, seed)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
           task=st.sampled_from(ST_TASKS), side=st.sampled_from([4, 8, 16, 22]))
    def test_semantic_transforming_property(self, seed, n, task, side):
        data = np.random.default_rng(seed % 991).uniform(size=(n, side, side))
        _assert_st_matches_reference(data, task, seed)

    def test_vflip_and_patch_location_on_non_square_images(self):
        rng = np.random.default_rng(13)
        for seed in range(20):
            data = rng.uniform(size=(24, 12, 20))
            _assert_st_matches_reference(data, "vflip", seed)
            _assert_st_matches_reference(data, "patch_location", seed)


class TestSemanticPreservingDraws:
    @pytest.mark.parametrize("kinds", list(KIND_SETS) + ["shift_contrast"],
                             ids=list(KIND_SETS) + ["shift_contrast"])
    def test_each_sample_gets_one_or_two_distinct_kinds(self, kinds):
        kinds = KIND_SETS.get(kinds, ("shift", "contrast"))
        for seed in range(30):
            ops = _ops_per_sample(draw_semantic_preserving(_views(seed), 40, 16, 16, kinds), 40)
            for sample in ops:
                drawn = [kind for _, kind, _, _ in sample]
                assert [slot for slot, _, _, _ in sample] == list(range(len(drawn)))
                assert 1 <= len(drawn) <= min(2, len(kinds))
                assert len(set(drawn)) == len(drawn)
                assert set(drawn) <= set(kinds)

    def test_repeated_kinds_count_once(self):
        draws = draw_semantic_preserving(_views(3), 50, 16, 16, ("shift", "shift"))
        assert [d.slot for d in draws] == [0]
        assert np.array_equal(draws[0].rows, np.arange(50))

    @pytest.mark.parametrize("shape", [(16, 16), (12, 20)], ids=["square", "12x20"])
    def test_parameters_stay_within_the_caps(self, shape):
        h, w = shape
        seen = set()
        for seed in range(40):
            for d in draw_semantic_preserving(_views(seed), 64, h, w, SP_KINDS):
                seen.add(d.kind)
                p = d.params
                if d.kind == "shift":
                    assert p.shape[1] == 2 and np.all(np.abs(p) <= MAX_SHIFT_PX)
                    assert np.array_equal(p, np.round(p))
                elif d.kind == "small_rotate":
                    assert np.all(np.abs(p) <= MAX_ROTATE_DEG)
                elif d.kind == "cutout":
                    side = int(round(CUTOUT_SIDE_FRACTION * min(h, w)))
                    assert np.all(p[:, 2] == side)
                    assert np.all((p[:, 0] >= 0) & (p[:, 0] <= h - side))
                    assert np.all((p[:, 1] >= 0) & (p[:, 1] <= w - side))
                    assert np.array_equal(p, np.round(p))
                elif d.kind == "brightness":
                    assert np.all(np.abs(p) <= MAX_BRIGHTNESS_DELTA)
                elif d.kind == "contrast":
                    assert np.all(np.abs(p - 1.0) <= MAX_CONTRAST_DELTA)
                else:
                    assert np.all((p >= 0.02) & (p <= MAX_NOISE_SIGMA))
                    assert d.noise.shape == (len(d.rows), h, w)
                if d.kind != "gaussian_noise":
                    assert d.noise is None
        assert seen == set(SP_KINDS)

    def test_kinds_and_op_counts_are_balanced(self):
        # chi-square goodness of fit over a large batch
        draws = draw_semantic_preserving(_views(23), 6000, 16, 16, SP_KINDS)
        first = {d.kind: len(d.rows) for d in draws if d.slot == 0}
        assert sum(first.values()) == 6000
        assert stats.chisquare([first[k] for k in SP_KINDS]).pvalue > 0.01
        n_two = sum(len(d.rows) for d in draws if d.slot == 1)
        assert stats.chisquare([6000 - n_two, n_two]).pvalue > 0.01

    def test_output_depends_only_on_seed_and_batch(self):
        x = _random_batch(32)
        first = apply_semantic_preserving(x, _views(13))
        apply_semantic_preserving(_random_batch(32, seed=1), _views(14))
        again = apply_semantic_preserving(x.copy(), _views(13))
        assert _same_bytes(first, again)

    @pytest.mark.parametrize("kinds", list(KIND_SETS), ids=list(KIND_SETS))
    def test_different_seeds_differ(self, kinds):
        x = _random_batch(16)
        outs = {apply_semantic_preserving(x, _views(seed), kinds=KIND_SETS[kinds]).tobytes()
                for seed in range(40)}
        assert len(outs) == 40


# ---------------------------------------------------------------------------
# the seeding helper
# ---------------------------------------------------------------------------

class TestSeedingHelper:
    @pytest.mark.parametrize("seed,salts", [
        (0, (909,)), (17, (11, 3)), (2**32 - 1, (2**31,)), (5, (17, 4, 2)),
        (3, (2**32 - 1,))])
    def test_same_stream_as_the_seed_list(self, seed, salts):
        want = np.random.default_rng([seed, *salts]).random(8)
        assert _same_bytes(rng(seed, *salts).random(8), want)

    @pytest.mark.parametrize("args,msg", [
        ((-1,), "seed -1 is outside"), ((2**32,), "seed 4294967296 is outside"),
        ((2**40 + 5, 17), "seed 1099511627781 is outside"),
        ((0, 11, -1), "salt -1 is outside"), ((3, 2**32), "salt 4294967296 is outside"),
    ], ids=["negative_seed", "wide_seed", "wider_seed", "negative_salt", "wide_salt"])
    def test_a_word_outside_32_bits_is_refused_not_aliased(self, args, msg):
        with pytest.raises(ValueError, match=msg):
            rng(*args)
        if len(args) == 1:
            with pytest.raises(ValueError, match=msg):
                next(rngs(args[0], [0, 1, 2]))

    @pytest.mark.parametrize("n", [1, 2, 4097])
    @pytest.mark.parametrize("seed", [0, 17, 2**31, 2**32 - 1])
    def test_rngs_yields_the_per_index_streams_in_order(self, seed, n):
        indices = np.concatenate([np.arange(n), 2**32 - 1 - np.arange(n),
                                  rng(n).permutation(n)])
        count = 0
        for i, gen in zip(indices.tolist(), rngs(seed, indices)):
            seq = np.random.SeedSequence([seed, i])
            want = np.random.Generator(np.random.PCG64(seq))
            assert gen.bit_generator.state == want.bit_generator.state, (seed, i)
            assert gen.bit_generator.state == rng(seed, i).bit_generator.state, (seed, i)
            assert _same_bytes(gen.random(8), want.random(8)), (seed, i)
            assert _same_bytes(gen.normal(size=8), want.normal(size=8)), (seed, i)
            count += 1
        assert count == 3 * n

    @pytest.mark.parametrize("indices", [[], np.array([], dtype=np.uint32), range(0)])
    def test_rngs_of_no_index_is_empty(self, indices):
        assert list(rngs(3, indices)) == []

    @pytest.mark.parametrize("indices,msg", [
        ([0, -1], "index -1 is outside"), ([2**32], "index 4294967296 is outside"),
        (np.array([5, 2**40], dtype=np.uint64), "index 1099511627776 is outside"),
        ([0.0, 1.0], "indices must be a vector of integers"),
        ([[0, 1]], "indices must be a vector of integers"),
        (3, "indices must be a vector of integers")])
    def test_rngs_refuses_an_index_outside_32_bits_by_name(self, indices, msg):
        with pytest.raises(ValueError, match=msg):
            next(rngs(3, indices))

    def test_no_site_outside_transforms_builds_a_generator(self):
        sites = _generator_sites({path.name: path.read_text()
                                  for path in Path(pbmatch.__file__).parent.glob("*.py")})
        assert _stray(sites) == []
        assert sorted({scope for module, scope, _ in sites if module == "transforms.py"}) == [
            "rng", "rngs"]

    @pytest.mark.parametrize("call", [
        "np.random.default_rng(seed)", "np.random.default_rng([seed, 3])",
        "default_rng(seed + 1)", "np.random.Generator(np.random.PCG64(seed))",
        "Generator(PCG64(seed))", "np.random.SeedSequence(seed)",
        "np.random.RandomState(seed)"])
    def test_the_guard_flags_a_generator_built_in_datasets(self, call):
        source = f"def generate(seed):\n    return {call}\n"
        assert _stray(_generator_sites({"datasets.py": source})) != []

    def test_the_guard_flags_a_salted_generator_in_init_params(self):
        source = "def init_params(seed):\n    return np.random.default_rng([seed, 1])\n"
        assert _stray(_generator_sites({"nets.py": source})) != []

    def test_the_guard_flags_an_unsalted_generator_in_init_params(self):
        source = "def init_params(seed):\n    return np.random.default_rng(seed)\n"
        assert _stray(_generator_sites({"nets.py": source})) != []


_GENERATOR_CONSTRUCTORS = {"default_rng", "Generator", "PCG64", "SeedSequence",
                           "RandomState"}


def _generator_sites(sources):
    """(module, innermost function, call source) of every generator,
    bit generator or seed sequence built in ``sources``, by module name."""
    finder = _GeneratorSites()
    for module in sorted(sources):
        finder.module = module
        finder.visit(ast.parse(sources[module]))
    return finder.sites


def _stray(sites):
    """The sites other than the seeding helpers in ``transforms``."""
    return [site for site in sites
            if not (site[0] == "transforms.py" and site[1] in ("rng", "rngs"))]


class _GeneratorSites(ast.NodeVisitor):
    def __init__(self):
        self.module, self.scope, self.sites = None, None, []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in _GENERATOR_CONSTRUCTORS:
            self.sites.append((self.module, self.scope, ast.unparse(node)))
        self.generic_visit(node)
