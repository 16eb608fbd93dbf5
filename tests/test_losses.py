"""Objective terms: analytic identities, direct-summation and per-op tape oracles, gradients.

Each term is a closed-form function of log-probabilities (or, for a
distance, of the stacked latent rows and the source count) that returns
its value and gradient; the oracles in oracles.py rebuild it one tape
node per op.
"""

import math

import numpy as np
import pytest

from pbmatch.losses import (
    BatchBundle,
    DEFAULT_BANDWIDTH_SCALES,
    KL_MARGIN,
    LossConfig,
    MarginalTracker,
    _log_softmax,
    _TILE_ROWS,
    _median_distance,
    _tiles,
    backward,
    coral_distance,
    cpbm_loss,
    cross_entropy,
    mim_loss,
    mmd_distance,
    mupbm_loss,
    tpbm_loss,
    total_objective,
)
from pbmatch.gradcheck import grad_check
from pbmatch.nets import init_params, predict_logits, softmax_probs

import oracles
from oracles import (
    Tensor,
    closed_form_node,
    leaves,
    log_softmax,
    mul,
    neg,
    oracle_ce,
    oracle_coral,
    oracle_cpbm,
    oracle_forward,
    oracle_median,
    oracle_mim,
    oracle_mmd,
    oracle_mupbm,
    oracle_tpbm,
    reduce,
    sub,
    whole_matrix_median,
    whole_matrix_mmd,
    whole_matrix_sq_dists,
)


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _kl(p, q):
    return float(np.sum(p * (np.log(p) - np.log(q))))


def _logp(logits):
    """Row-wise log-probabilities of logits, as total_objective forms them."""
    return _log_softmax(np.asarray(logits, dtype=np.float64))


def _logp_for(probs):
    """log p recovers p exactly through log-softmax (logsumexp(log p) = 0)."""
    return _logp(np.log(np.asarray(probs, dtype=np.float64)))


def _median(a, b):
    """The median distance the default MMD bandwidths scale."""
    return _median_distance(np.concatenate([a, b]), len(a))


# ---------------------------------------------------------------------------
# comparing a closed-form term with its per-op oracle (see oracles.py)
# ---------------------------------------------------------------------------

def _term(fn, *logits):
    """fn on the logits' log-probabilities: its value, then its gradient to
    each logit block (None for a block it leaves alone)."""
    value, grads = fn(*(_logp(z) for z in logits))
    return (value, *(grads if isinstance(grads, (tuple, list)) else (grads,)))


def _distance(fn, a, b, **kw):
    """A distance on the stacked rows of a and b: its value, then its
    gradient to each side."""
    value, grad = fn(np.concatenate([a, b]), len(a), **kw)
    g = grad(1.0)
    return value, g[:len(a)], g[len(a):]


def _oracle(fn, *arrays):
    """The oracle's value on fresh leaves, then each leaf's gradient."""
    inputs = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = fn(*inputs)
    oracles.backward(out)
    return (float(out.data), *(leaf.grad for leaf in inputs))


def _assert_matches_oracle(got, want):
    """Value and every input gradient to 1e-12; inputs the oracle is not
    given must get no gradient."""
    assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
    for g, w in zip(got[1:], want[1:]):
        if w is None:
            assert g is None
        else:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    assert all(g is None for g in got[len(want):])


def _distance_fn(fn, a, b, vary_target, **kw):
    """x -> (value, gradient) for grad_check: the distance with one side
    replaced by x, and its gradient to that side."""
    n = len(a)

    def checked(x):
        value, grad = fn(np.concatenate([a, x] if vary_target else [x, b]), n, **kw)
        return value, grad(1.0)[n:] if vary_target else grad(1.0)[:n]

    return checked


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestLossConfig:
    def test_default_ceiling_tracks_class_count(self):
        cfg = LossConfig.for_classes(4)
        assert cfg.entropy_ceiling == pytest.approx(0.85 * math.log(4))
        assert (cfg.lambda_M, cfg.lambda_C, cfg.lambda_U, cfg.lambda_S) == (0.25, 1.0, 0.5, 0.5)
        assert cfg.lambda_con == 0.1
        assert cfg.supervised_weight == 1.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="lambda_C"):
            LossConfig(entropy_ceiling=1.0, lambda_C=-0.5)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError, match="marginal_momentum"):
            LossConfig(entropy_ceiling=1.0, marginal_momentum=1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="mixup_alpha"):
            LossConfig(entropy_ceiling=1.0, mixup_alpha=0.0)

    def test_rejects_ceiling_above_ln_k(self):
        cfg = LossConfig(entropy_ceiling=math.log(3) + 0.1)
        with pytest.raises(ValueError, match="entropy_ceiling"):
            cfg.check_ceiling(3)


class TestMarginalTracker:
    def test_starts_uniform(self):
        t = MarginalTracker.uniform(5)
        assert np.allclose(t.q, 0.2)
        assert t.count == 0

    def test_update_arithmetic(self):
        t = MarginalTracker(q=np.array([0.5, 0.5]), momentum=0.1)
        t.update(np.array([0.9, 0.1]))
        assert np.allclose(t.q, [0.54, 0.46])
        assert t.count == 1

    def test_floor_keeps_entries_positive(self):
        t = MarginalTracker(q=np.array([1.0, 0.0]))
        assert t.q.min() > 0.0
        assert abs(t.q.sum() - 1.0) < 1e-9
        for _ in range(50):
            t.update(np.array([1.0, 0.0]))
        assert t.q.min() > 0.0
        assert abs(t.q.sum() - 1.0) < 1e-9

    def test_entropy_of_uniform(self):
        assert MarginalTracker.uniform(4).entropy() == pytest.approx(math.log(4))

    def test_shape_mismatch_rejected(self):
        t = MarginalTracker.uniform(3)
        with pytest.raises(ValueError, match="shape"):
            t.update(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# marginal + confidence term
# ---------------------------------------------------------------------------

class TestMimLoss:
    def test_uniform_predictions_give_zero(self):
        k = 4
        value, _ = mim_loss(_logp(np.zeros((8, k))), MarginalTracker.uniform(k),
                            ceiling=float("inf"))
        assert abs(value) < 1e-9

    def test_balanced_one_hot_hits_minimum(self):
        k = 4
        value, _ = mim_loss(_logp(40.0 * np.eye(k)[np.arange(8) % k]),
                            MarginalTracker.uniform(k), ceiling=float("inf"))
        assert value == pytest.approx(-math.log(k), abs=1e-9)

    def test_collapsed_one_hot_scores_zero(self):
        # all mass on class 0 and a matching collapsed marginal: no reward
        k = 4
        tracker = MarginalTracker(q=np.array([1.0, 0.0, 0.0, 0.0]))
        value, _ = mim_loss(_logp(40.0 * np.eye(k)[np.zeros(8, dtype=int)]), tracker,
                            ceiling=float("inf"))
        assert abs(value) < 1e-4

    def test_ceiling_drops_diversity(self):
        k = 3
        value, _ = mim_loss(_logp(np.zeros((6, k))), MarginalTracker.uniform(k), ceiling=0.01)
        # only the confidence part survives: mean conditional entropy = ln K
        assert value == pytest.approx(math.log(k))

    def test_tracker_advances_after_loss(self):
        tracker = MarginalTracker(q=np.array([0.5, 0.5]), momentum=0.1)
        probs = np.array([[0.9, 0.1]] * 4)
        mim_loss(_logp_for(probs), tracker, ceiling=float("inf"))
        assert np.allclose(tracker.q, [0.54, 0.46])
        assert tracker.count == 1

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            mim_loss(_logp(np.zeros((4, 3))), MarginalTracker.uniform(4), 1.0)

    def test_gradcheck_full_loss(self):
        rng = np.random.default_rng(0)
        point = rng.uniform(-2, 2, (5, 4))
        report = grad_check(
            lambda x: mim_loss(_logp(x), MarginalTracker.uniform(4), float("inf")), point)
        assert report.passed, str(report)

    def test_gradcheck_diversity_estimator(self):
        # a skewed marginal below the ceiling, frozen per call: FD must
        # reproduce sum grad(p) * log q plus the confidence gradient
        rng = np.random.default_rng(1)
        point = rng.uniform(-2, 2, (6, 3))
        q = np.array([0.2, 0.5, 0.3])
        report = grad_check(
            lambda x: mim_loss(_logp(x), MarginalTracker(q=q.copy()), float("inf")), point)
        assert report.passed, str(report)

    def test_confidence_term_bounded_by_ln_k(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            value, _ = mim_loss(_logp(rng.uniform(-4, 4, (7, k))), MarginalTracker.uniform(k),
                                ceiling=0.0)
            assert -1e-12 <= value <= math.log(k) + 1e-12


# ---------------------------------------------------------------------------
# consistency + disagreement term
# ---------------------------------------------------------------------------

class TestCpbmLoss:
    def test_identical_views_give_zero(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, (6, 4))
        value, _ = cpbm_loss(_logp(z), _logp(z.copy()), None, None, None, 0.1)
        assert abs(value) < 1e-12

    def test_two_class_agreement_oracle(self):
        value, _ = cpbm_loss(_logp_for([[0.5, 0.5]]), _logp_for([[0.25, 0.75]]),
                             None, None, None, 0.0)
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.1438, abs=1e-4)

    def test_identical_pair_contributes_nothing(self):
        z = np.random.default_rng(1).uniform(-1, 1, (4, 3))
        pair = np.random.default_rng(2).uniform(-1, 1, (5, 3))
        mask = np.array([True, True, False, True, False])
        with_pairs, _ = cpbm_loss(_logp(z), _logp(z + 0.3), _logp(pair), _logp(pair.copy()),
                                  mask, 0.7)
        without, _ = cpbm_loss(_logp(z), _logp(z + 0.3), None, None, None, 0.7)
        assert with_pairs == pytest.approx(without, abs=1e-12)

    def test_full_loss_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        zo, za = rng.uniform(-2, 2, (6, 4)), rng.uniform(-2, 2, (6, 4))
        pa, pb = rng.uniform(-2, 2, (5, 4)), rng.uniform(-2, 2, (5, 4))
        mask = np.array([True, False, True, True, False])
        lam = 0.3
        value, _ = cpbm_loss(_logp(zo), _logp(za), _logp(pa), _logp(pb), mask, lam)
        po, paug = _softmax(zo), _softmax(za)
        first = np.mean([_kl(po[i], paug[i]) for i in range(6)])
        pairs = [_softmax(pa[i]) for i in range(5)], [_softmax(pb[i]) for i in range(5)]
        second = np.mean([min(_kl(pairs[0][i], pairs[1][i]), KL_MARGIN)
                          for i in range(5) if mask[i]])
        assert value == pytest.approx(first - lam * second, abs=1e-10)

    def test_disagreement_clamped_at_margin(self):
        zero = _logp(np.zeros((1, 2)))
        a = _logp(np.array([[30.0, 0.0]]))
        b = _logp(np.array([[0.0, 30.0]]))
        value, _ = cpbm_loss(zero, zero.copy(), a, b, np.array([True]), 1.0)
        # first term 0; pair KL is ~30 nats but enters as the margin
        assert value == pytest.approx(-KL_MARGIN, abs=1e-6)

    def test_empty_mask_is_not_an_error(self):
        z = _logp(np.zeros((3, 2)))
        pair = _logp(np.ones((2, 2)))
        value, _ = cpbm_loss(z, z, pair, pair, np.array([False, False]), 0.5)
        assert value == 0.0

    def test_misaligned_views_rejected(self):
        with pytest.raises(ValueError, match="logits differ"):
            cpbm_loss(_logp(np.zeros((3, 2))), _logp(np.zeros((4, 2))), None, None, None, 0.1)

    def test_mask_length_mismatch_rejected(self):
        z = _logp(np.zeros((3, 2)))
        pair = _logp(np.ones((2, 2)))
        with pytest.raises(ValueError, match="mask length"):
            cpbm_loss(z, z, pair, pair, np.array([True, True, False]), 0.5)

    def test_gradient_reaches_both_views(self):
        rng = np.random.default_rng(4)
        orig, aug = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3))
        _, (g_orig, g_aug, g_a, g_b) = cpbm_loss(_logp(orig), _logp(aug), None, None, None, 0.1)
        assert g_orig.shape == orig.shape and np.any(g_orig != 0.0)
        assert g_aug.shape == aug.shape and np.any(g_aug != 0.0)
        assert g_a is None and g_b is None

    def test_gradcheck_each_argument(self):
        rng = np.random.default_rng(5)
        blocks = [rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3)),
                  rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, (3, 3))]
        mask = np.array([True, False, True])

        def build(slot):
            def fn(x):
                logp = [_logp(x if i == slot else z) for i, z in enumerate(blocks)]
                value, grads = cpbm_loss(*logp, mask, 0.4)
                return value, grads[slot]
            return fn

        for slot, pt in enumerate(blocks):
            report = grad_check(build(slot), pt)
            assert report.passed, str(report)


# ---------------------------------------------------------------------------
# interpolation term
# ---------------------------------------------------------------------------

class TestMupbmLoss:
    def test_one_hot_target_equals_cross_entropy(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, (6, 4))
        labels = rng.integers(0, 4, 6)
        onehot = np.eye(4)[labels]
        value, _ = mupbm_loss(_logp(z), onehot)
        ce, _ = cross_entropy(_logp(z), labels)
        assert value == pytest.approx(ce, abs=1e-9)

    def test_matching_distributions_give_zero(self):
        probs = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        value, _ = mupbm_loss(_logp_for(probs), probs)
        assert abs(value) < 1e-12

    def test_two_class_oracle(self):
        value, _ = mupbm_loss(_logp_for([[0.25, 0.75]]), np.array([[0.5, 0.5]]))
        assert value == pytest.approx(0.1438, abs=1e-4)

    def test_rejects_non_distribution_rows(self):
        with pytest.raises(ValueError, match="sums to"):
            mupbm_loss(_logp(np.zeros((2, 3))), np.array([[0.5, 0.5, 0.5],
                                                          [0.2, 0.3, 0.5]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mupbm_loss(_logp(np.zeros((2, 3))), np.full((3, 3), 1 / 3))

    def test_target_entropy_matches_per_row_reference_bitwise(self):
        rng = np.random.default_rng(12)

        def row_entropy(row):
            terms = np.where(row > 0.0, row * np.log(np.where(row > 0.0, row, 1.0)), 0.0)
            return float(-terms.sum())

        for trial in range(400):
            k, n = int(rng.integers(2, 7)), int(rng.integers(1, 130))
            q = _softmax(rng.normal(0.0, 3.0, (n, k)))
            if trial % 3 == 0:
                q[rng.integers(0, n)] = np.eye(k)[rng.integers(0, k)]
            z = rng.normal(size=(n, k))
            want = sub(neg(reduce("mean", reduce("sum", mul(Tensor(q), log_softmax(Tensor(z))),
                                                 axis=1))),
                       Tensor(np.mean([row_entropy(row) for row in q])))
            got, _ = mupbm_loss(_logp(z), q)
            assert np.float64(got).view(np.uint64) == want.data.view(np.uint64), trial

    def test_targets_never_receive_gradient(self):
        # the one gradient is the logits' (p - q) / n; the targets are constants
        rng = np.random.default_rng(1)
        logits = rng.uniform(-1, 1, (4, 3))
        targets = np.full((4, 3), 1 / 3)
        _, grad = mupbm_loss(_logp(logits), targets)
        np.testing.assert_allclose(grad, (_softmax(logits) - targets) / 4, rtol=0, atol=1e-15)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        q = _softmax(rng.uniform(-1, 1, (5, 4)))
        point = rng.uniform(-2, 2, (5, 4))
        report = grad_check(lambda x: mupbm_loss(_logp(x), q), point)
        assert report.passed, str(report)


# ---------------------------------------------------------------------------
# pretext-task term
# ---------------------------------------------------------------------------

class TestTpbmLoss:
    def test_perfect_predictions_vanish(self):
        labels = np.array([0, 1, 2, 3])
        value, _ = tpbm_loss([_logp(20.0 * np.eye(4)[labels])], [labels])
        assert value <= 1e-6

    def test_uniform_logits_give_ln4(self):
        value, _ = tpbm_loss([_logp(np.zeros((3, 4)))], [np.array([0, 3, 1])])
        assert value == pytest.approx(math.log(4))

    def test_two_tasks_average(self):
        rng = np.random.default_rng(0)
        za, zb = rng.uniform(-2, 2, (5, 4)), rng.uniform(-2, 2, (5, 2))
        la, lb = rng.integers(0, 4, 5), rng.integers(0, 2, 5)
        (a, ga), (b, gb) = cross_entropy(_logp(za), la), cross_entropy(_logp(zb), lb)
        combined, grads = tpbm_loss([_logp(za), _logp(zb)], [la, lb])
        assert combined == pytest.approx((a + b) / 2, abs=1e-12)
        np.testing.assert_allclose(grads[0], ga / 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(grads[1], gb / 2, rtol=0, atol=1e-15)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            tpbm_loss([_logp(np.zeros((2, 2)))], [np.array([0, 2])])

    def test_task_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="longer|shorter"):
            tpbm_loss([_logp(np.zeros((1, 2)))], [np.array([0]), np.array([1])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no pretext tasks"):
            tpbm_loss([], [])


# ---------------------------------------------------------------------------
# closed-form terms against their per-op oracles
# ---------------------------------------------------------------------------

class TestTermsMatchPerOpOracles:
    @pytest.mark.parametrize("n,k,spread", [(1, 2, 1.0), (5, 3, 2.0), (64, 4, 6.0), (7, 5, 40.0)])
    def test_cross_entropy(self, n, k, spread):
        rng = np.random.default_rng(n * 10 + k)
        labels = rng.integers(0, k, n)
        z = rng.normal(0, spread, (n, k))
        _assert_matches_oracle(_term(lambda p: cross_entropy(p, labels), z),
                               _oracle(lambda t: oracle_ce(t, labels), z))

    @pytest.mark.parametrize("diversity", [True, False], ids=["below_ceiling", "above_ceiling"])
    @pytest.mark.parametrize("n,k", [(1, 3), (6, 4), (64, 4)])
    def test_mim_on_both_sides_of_the_ceiling(self, diversity, n, k):
        rng = np.random.default_rng(n + k)
        q = rng.dirichlet(np.full(k, 0.4))
        ceiling = float("inf") if diversity else 0.0

        def term(fn):
            return lambda x: fn(x, MarginalTracker(q=q.copy(), momentum=0.1), ceiling)

        z = rng.normal(0, 2.0, (n, k))
        _assert_matches_oracle(_term(term(mim_loss), z), _oracle(term(oracle_mim), z))

    def test_mim_advances_the_tracker_like_the_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(0, 2.0, (8, 3))
        got, want = MarginalTracker.uniform(3), MarginalTracker.uniform(3)
        mim_loss(_logp(logits), got, float("inf"))
        oracle_mim(Tensor(logits), want, float("inf"))
        np.testing.assert_allclose(got.q, want.q, rtol=0, atol=1e-15)
        assert got.count == want.count == 1

    @pytest.mark.parametrize("lambda_con", [0.3, 1.0])
    def test_cpbm_with_rows_where_the_clamp_binds(self, lambda_con):
        rng = np.random.default_rng(5)
        orig, aug = rng.normal(0, 2.0, (6, 4)), rng.normal(0, 2.0, (6, 4))
        pair_a, pair_b = rng.normal(0, 2.0, (5, 4)), rng.normal(0, 2.0, (5, 4))
        # rows 0 and 3 are far past the margin; row 3 is masked out
        pair_a[[0, 3]] = [30.0, 0.0, 0.0, 0.0]
        pair_b[[0, 3]] = [0.0, 30.0, 0.0, 0.0]
        mask = np.array([True, True, False, False, True])
        kl = np.sum(_softmax(pair_a) * (np.log(_softmax(pair_a)) - np.log(_softmax(pair_b))),
                    axis=1)
        assert kl[0] > KL_MARGIN and kl[[1, 4]].max() < KL_MARGIN
        got = _term(lambda *p: cpbm_loss(*p, mask, lambda_con), orig, aug, pair_a, pair_b)
        _assert_matches_oracle(
            got, _oracle(lambda *t: oracle_cpbm(*t, mask, lambda_con), orig, aug, pair_a, pair_b))
        # the binding row passes no gradient to either side
        _, _, _, g_a, g_b = got
        assert not np.any(g_a[[0, 2, 3]]) and not np.any(g_b[[0, 2, 3]])

    @pytest.mark.parametrize("mask,lambda_con", [
        (np.array([False, False, False]), 0.5), (np.array([True, False, True]), 0.0),
    ], ids=["empty_mask", "zero_lambda"])
    def test_cpbm_without_the_disagreement_part(self, mask, lambda_con):
        rng = np.random.default_rng(6)
        orig, aug = rng.normal(0, 2.0, (4, 3)), rng.normal(0, 2.0, (4, 3))
        pair = rng.normal(0, 2.0, (3, 3))
        _assert_matches_oracle(
            _term(lambda o, a: cpbm_loss(o, a, _logp(pair), _logp(pair[::-1].copy()), mask,
                                         lambda_con), orig, aug),
            _oracle(lambda o, a: oracle_cpbm(o, a, None, None, mask, lambda_con), orig, aug))

    @pytest.mark.parametrize("n,k", [(1, 2), (5, 3), (64, 4)])
    def test_mupbm(self, n, k):
        rng = np.random.default_rng(n * 7 + k)
        q = _softmax(rng.normal(0, 3.0, (n, k)))
        q[0] = np.eye(k)[rng.integers(0, k)]
        z = rng.normal(0, 2.0, (n, k))
        _assert_matches_oracle(_term(lambda p: mupbm_loss(p, q), z),
                               _oracle(lambda t: oracle_mupbm(t, q), z))

    def test_tpbm(self):
        rng = np.random.default_rng(8)
        classes = {"patch_location": 4, "rotate90": 4, "vflip": 2}
        labels = {t: rng.integers(0, c, 9) for t, c in classes.items()}
        points = [rng.normal(0, 2.0, (9, c)) for c in classes.values()]
        _assert_matches_oracle(
            _term(lambda *p: tpbm_loss(list(p), list(labels.values())), *points),
            _oracle(lambda *ts: oracle_tpbm(dict(zip(classes, ts)), labels), *points))

    @pytest.mark.parametrize("n,m,d", [(2, 2, 1), (9, 6, 5), (64, 64, 32)])
    def test_coral(self, n, m, d):
        rng = np.random.default_rng(n + m + d)
        a, b = rng.normal(0, 1.0, (n, d)), rng.normal(0.3, 1.4, (m, d))
        _assert_matches_oracle(_distance(coral_distance, a, b), _oracle(oracle_coral, a, b))

    def test_each_term_returns_one_gradient_per_input(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        la, lb = _logp(a), _logp(b)
        q = _softmax(rng.normal(size=(4, 3)))
        labels = np.array([0, 2, 1, 1])
        mask = np.array([True, False, True, True])
        joint = np.concatenate([a, b])
        for (value, grads), shapes in [
            (cross_entropy(la, labels), [(4, 3)]),
            (mim_loss(la, MarginalTracker.uniform(3), float("inf")), [(4, 3)]),
            (cpbm_loss(la, lb, la, lb, mask, 0.1), [(4, 3)] * 4),
            (mupbm_loss(la, q), [(4, 3)]),
            (tpbm_loss([la, lb[:, :2]], [labels, labels % 2]), [(4, 3), (4, 2)]),
            (coral_distance(joint, 4), [(8, 3)]),
            (mmd_distance(joint, 4), [(8, 3)]),
        ]:
            # a plain float and plain arrays: a distance gives a map from a
            # scale to its gradient over the stacked rows
            grads = grads(1.0) if callable(grads) else grads
            grads = grads if isinstance(grads, (tuple, list)) else (grads,)
            assert type(value) is float
            assert [type(g) for g in grads] == [np.ndarray] * len(shapes)
            assert [g.shape for g in grads] == shapes

    def test_cross_entropy_is_stable_for_huge_logit_gaps(self):
        value, grad = cross_entropy(_logp([[1000.0, 0.0]]), np.array([1]))
        assert value == 1000.0
        np.testing.assert_array_equal(grad, [[1.0, -1.0]])


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

def _full_bundle(params, rng, n_src=8, n_tgt=6):
    d = params.input_dim
    k = params.n_classes
    src_x = rng.uniform(0, 1, (n_src, d))
    src_y = rng.integers(0, k, n_src)
    tgt_x = rng.uniform(0, 1, (n_tgt, d))
    partner = rng.permutation(n_tgt)
    mix_b = rng.beta(0.2, 0.2, n_tgt)
    mix_x = mix_b[:, None] * tgt_x + (1 - mix_b[:, None]) * tgt_x[partner]
    st = {
        "rotate90": (rng.uniform(0, 1, (5, d)), rng.integers(0, 4, 5)),
        "vflip": (rng.uniform(0, 1, (5, d)), rng.integers(0, 2, 5)),
    }
    return BatchBundle(
        src_x=src_x, src_y=src_y, tgt_x=tgt_x,
        tgt_x_aug=np.clip(tgt_x + rng.normal(0, 0.05, tgt_x.shape), 0, 1),
        pair_diff_mask=src_y != np.roll(src_y, 1),
        mixed_x=mix_x, mixed_partner=partner, mixed_beta=mix_b, st_batches=st)


def _per_view_terms(bundle, params, cfg):
    """The objective's weighted terms built the way it was first written:
    one per-op extractor pass per view, the per-op term oracles, the source
    pairs as their own inputs, the mixup targets from a prediction of the
    target batch, and the feature distance on the two latent batches. Each
    term is built over the parameter leaves it is given."""
    b = bundle
    oracle_distance = {"mmd": oracle_mmd, "coral": oracle_coral}.get(b.distance)
    probs = softmax_probs(predict_logits(params, b.tgt_x))
    beta = b.mixed_beta[:, None]
    targets = beta * probs + (1 - beta) * probs[b.mixed_partner]

    def view(tp, x, head="label"):
        return oracle_forward(tp, Tensor(x), head=head)

    return [
        (cfg.supervised_weight, lambda tp: oracle_ce(view(tp, b.src_x), b.src_y)),
        (cfg.lambda_M, lambda tp: oracle_mim(view(tp, b.tgt_x), MarginalTracker.uniform(3),
                                             cfg.entropy_ceiling)),
        (cfg.lambda_C, lambda tp: oracle_cpbm(
            view(tp, b.tgt_x), view(tp, b.tgt_x_aug), view(tp, b.src_x),
            view(tp, np.roll(b.src_x, 1, axis=0)), b.pair_diff_mask, cfg.lambda_con)),
        (cfg.lambda_U, lambda tp: oracle_mupbm(view(tp, b.mixed_x), targets)),
        (cfg.lambda_S, lambda tp: oracle_tpbm(
            {t: view(tp, x, head=t) for t, (x, _) in b.st_batches.items()},
            {t: lab for t, (_, lab) in b.st_batches.items()})),
        (b.distance_weight if b.distance else 0.0,
         lambda tp: oracle_distance(view(tp, b.src_x, head=None),
                                    view(tp, b.tgt_x, head=None))),
    ]


def _assert_matches_per_view(bundle, params, cfg):
    """Loss to 1e-12 and every gradient at atol 1e-12 against the sum of
    the per-view oracle terms, each backpropagated on its own."""
    obj = total_objective(bundle, params, cfg, MarginalTracker.uniform(3))
    combined = backward(obj)

    want_loss = 0.0
    accumulated = [np.zeros_like(t) for t in params.all_tensors()]
    for weight, build in _per_view_terms(bundle, params, cfg):
        if weight == 0.0:
            continue
        tp = leaves(params)
        term = build(tp)
        want_loss += weight * float(term.data)
        oracles.backward(term)
        for i, t in enumerate(tp.all_tensors()):
            if t.grad is not None:
                accumulated[i] += weight * t.grad

    assert abs(obj.total - want_loss) < 1e-12
    for got, want in zip(combined, accumulated):
        if got is None:
            assert not np.any(want)
        else:
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


class TestTotalObjective:
    def _setup(self, seed=0):
        params = init_params([12, 8, 3], seed=seed)
        rng = np.random.default_rng(seed + 100)
        return params, _full_bundle(params, rng)

    def test_degenerate_weights_reduce_to_source_ce(self):
        params, bundle = self._setup()
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0,
                         lambda_U=0, lambda_S=0, supervised_weight=1.0)
        tracker = MarginalTracker.uniform(3)
        obj = total_objective(bundle, params, cfg, tracker)
        direct, _ = cross_entropy(_logp(predict_logits(params, bundle.src_x)), bundle.src_y)
        assert obj.total == direct
        assert set(obj.report) == {"supervised", "total"}

    def test_degenerate_weights_match_supervised_gradients_bitwise(self):
        params, bundle = self._setup(seed=1)
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0,
                         lambda_U=0, lambda_S=0)
        got = backward(total_objective(bundle, params, cfg, MarginalTracker.uniform(3)))
        tp = leaves(params)
        oracles.backward(closed_form_node(oracle_forward(tp, Tensor(bundle.src_x)),
                                          cross_entropy, bundle.src_y))
        want = [t.grad for t in tp.all_tensors()]
        assert [g is None for g in got] == [w is None for w in want]
        for g, w in zip(got, want):
            if w is not None:
                assert np.array_equal(g, w)

    def test_report_reweights_to_total(self):
        params, bundle = self._setup(seed=2)
        cfg = LossConfig.for_classes(3)
        obj = total_objective(bundle, params, cfg, MarginalTracker.uniform(3))
        weights = {"supervised": cfg.supervised_weight, "mim": cfg.lambda_M,
                   "cpbm": cfg.lambda_C, "mupbm": cfg.lambda_U, "tpbm": cfg.lambda_S}
        recombined = sum(weights[k] * v for k, v in obj.report.items() if k != "total")
        assert obj.report["total"] == pytest.approx(recombined, abs=1e-9)
        assert obj.total == obj.report["total"]

    def test_gradient_is_weighted_sum_of_term_gradients(self):
        params, bundle = self._setup(seed=3)
        cfg = LossConfig.for_classes(3, lambda_M=0.7, lambda_C=0.3,
                                     lambda_U=0.4, lambda_S=0.9,
                                     supervised_weight=0.8)
        _assert_matches_per_view(bundle, params, cfg)

    @pytest.mark.parametrize("seed", [8, 9])
    @pytest.mark.parametrize("weights", [
        {},
        {"supervised_weight": 0.0},
        {"supervised_weight": 0.0, "lambda_M": 0.0, "lambda_C": 0.0},
        {"lambda_M": 0.0, "lambda_C": 0.0, "lambda_S": 0.0},
        {"lambda_U": 0.0, "lambda_S": 0.0},
    ], ids=["all", "no_supervised", "mixup_and_pretext", "mixup_only", "mim_and_cpbm"])
    def test_term_subsets_match_one_pass_per_view(self, weights, seed):
        params, bundle = self._setup(seed=seed)
        _assert_matches_per_view(bundle, params, LossConfig.for_classes(3, **weights))

    def test_missing_target_batch_rejected(self):
        params, bundle = self._setup(seed=4)
        bundle.tgt_x = None
        cfg = LossConfig.for_classes(3)
        with pytest.raises(ValueError, match="target batch"):
            total_objective(bundle, params, cfg, MarginalTracker.uniform(3))

    def test_zero_weight_skips_missing_fields(self):
        params, bundle = self._setup(seed=5)
        bundle.mixed_x = None
        bundle.mixed_partner = None
        bundle.mixed_beta = None
        cfg = LossConfig.for_classes(3, lambda_U=0.0)
        report = total_objective(bundle, params, cfg, MarginalTracker.uniform(3)).report
        assert "mupbm" not in report

    def test_all_zero_weights_rejected(self):
        params, bundle = self._setup(seed=6)
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0,
                         lambda_U=0, lambda_S=0, supervised_weight=0)
        with pytest.raises(ValueError, match="zero"):
            total_objective(bundle, params, cfg, MarginalTracker.uniform(3))

    def test_record_holds_one_latent_and_the_heads_in_use(self):
        params, bundle = self._setup(seed=10)
        obj = total_objective(bundle, params, LossConfig.for_classes(3),
                              MarginalTracker.uniform(3))
        assert [head for head, *_ in obj.heads] == ["label", "rotate90", "vflip"]
        assert obj.z.shape[0] == sum(len(x) for x in (
            bundle.src_x, bundle.tgt_x, bundle.tgt_x_aug, bundle.mixed_x,
            *(x for x, _ in bundle.st_batches.values())))
        assert [block.shape for block in obj.dlogits] == [
            (obj.z[rows].shape[0], w.shape[1]) for _, rows, w, _ in obj.heads]
        # a head the objective does not use gets no gradient
        grads = backward(obj)
        unused = {id(t) for t in params.omega["patch_location"]}
        assert [g is None for g in grads] == [id(t) in unused for t in params.all_tensors()]

    @pytest.mark.parametrize("supervised_weight", [1.0, 0.4, 0.0])
    @pytest.mark.parametrize("distance", ["mmd", "coral"])
    def test_distance_term_matches_weighted_oracles(self, distance, supervised_weight):
        params, bundle = self._setup(seed=11)
        bundle.distance, bundle.distance_weight = distance, 1.7
        cfg = LossConfig.for_classes(3, lambda_M=0.0, lambda_C=0.0, lambda_U=0.0,
                                     lambda_S=0.0, supervised_weight=supervised_weight)
        _assert_matches_per_view(bundle, params, cfg)
        obj = total_objective(bundle, params, cfg, MarginalTracker.uniform(3))
        names = ["supervised"] if supervised_weight > 0.0 else []
        assert list(obj.report) == names + [distance, "dm_weight", "total"]
        assert obj.report["dm_weight"] == 1.7
        # the latent rows of the source and target views, under the label head only
        assert [head for head, *_ in obj.heads] == ["label"]
        assert obj.distance[0] == slice(0, len(bundle.src_x) + len(bundle.tgt_x))
        assert obj.distance[2] == 1.7

    @pytest.mark.parametrize("distance", ["mmd", "coral"])
    def test_distance_adds_to_every_other_term(self, distance):
        params, bundle = self._setup(seed=12)
        bundle.distance, bundle.distance_weight = distance, 0.6
        _assert_matches_per_view(bundle, params, LossConfig.for_classes(3))

    def test_distance_without_target_batch_rejected(self):
        params, bundle = self._setup(seed=13)
        bundle.tgt_x, bundle.distance = None, "coral"
        cfg = LossConfig.for_classes(3, lambda_M=0.0, lambda_C=0.0, lambda_U=0.0)
        with pytest.raises(ValueError, match="coral distance requires a target batch"):
            total_objective(bundle, params, cfg, MarginalTracker.uniform(3))

    def test_unknown_distance_rejected(self):
        params, bundle = self._setup(seed=14)
        bundle.distance = "wasserstein"
        with pytest.raises(ValueError, match="distance must be one of"):
            total_objective(bundle, params, LossConfig.for_classes(3),
                            MarginalTracker.uniform(3))

    def test_deterministic_across_calls(self):
        params, bundle = self._setup(seed=7)
        cfg = LossConfig.for_classes(3)
        a = total_objective(bundle, params, cfg, MarginalTracker.uniform(3))
        b = total_objective(bundle, params, cfg, MarginalTracker.uniform(3))
        assert a.total == b.total


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------

class TestMmdMatchesPerOpOracle:
    @pytest.mark.parametrize("n,m,dup,explicit", [
        (8, 8, False, True), (7, 12, False, False), (1, 5, False, True),
        (6, 1, False, False), (1, 1, False, False), (9, 4, True, True),
        (5, 6, True, False), (64, 48, False, False),
    ], ids=["equal_sides", "n_ne_m", "one_src_row", "one_tgt_row", "one_row_each",
            "duplicates_explicit", "duplicates_default", "batch_sized"])
    def test_value_and_both_gradients(self, n, m, dup, explicit):
        rng = np.random.default_rng(n * 100 + m)
        a = rng.normal(size=(n, 5))
        b = rng.normal(0.4, 1.3, size=(m, 5))
        if dup:
            # d^2 = 0 off the diagonal: within a side and across sides
            a[-1] = a[0]
            b[0] = a[0]
        bws = [0.7, 1.9, 3.1] if explicit else None
        _assert_matches_oracle(_distance(mmd_distance, a, b, bandwidths=bws),
                               _oracle(lambda x, y: oracle_mmd(x, y, bws), a, b))

    def test_clamped_pairs_get_no_gradient_like_the_relu(self):
        # rows 1e4 from the origin and 1e-6 apart: the squared distance
        # cancels to <= 0, where the oracle's relu passes no gradient; at
        # this offset the two Gram formulations' values differ by ~1e-8
        rng = np.random.default_rng(8)
        a = 1e4 + rng.normal(size=(4, 3))
        b = a + rng.choice([-1e-6, 1e-6], size=a.shape)
        got = _distance(mmd_distance, a, b, bandwidths=[1.0])
        want = _oracle(lambda x, y: oracle_mmd(x, y, [1.0]), a, b)
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-7)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)

    def test_identical_sets_have_zero_gradient(self):
        z = np.random.default_rng(3).normal(size=(6, 3))
        value, ga, gb = _distance(mmd_distance, z, z)
        assert abs(value) < 1e-12
        np.testing.assert_allclose(ga + gb, 0.0, atol=1e-12)

    def test_default_bandwidths_use_the_median_bitwise(self):
        rng = np.random.default_rng(6)
        for n, m in [(3, 4), (10, 7), (1, 1), (33, 20)]:
            a, b = rng.normal(size=(n, 4)), rng.normal(size=(m, 4))
            med = _median(a, b)
            joint = np.concatenate([a, b])
            explicit, _ = mmd_distance(joint, n,
                                       bandwidths=[s * med for s in DEFAULT_BANDWIDTH_SCALES])
            default, _ = mmd_distance(joint, n)
            assert np.float64(default).view(np.uint64) == np.float64(explicit).view(np.uint64)

    def test_median_equals_np_median_of_distinct_pairs_bitwise(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n, m, d = (int(v) for v in rng.integers(1, 30, size=3))
            a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            if trial % 3 == 0:
                # coarse grids give tied and zero distances
                a, b = np.round(a), np.round(b)
            got = np.float64(_median(a, b))
            want = np.float64(oracle_median(a, b))
            assert got.view(np.uint64) == want.view(np.uint64), (trial, got, want)

    @pytest.mark.parametrize("n", [0, 3, 5, -1])
    def test_empty_side_rejected(self, n):
        # a split past either end once gave a finite value with no error
        with pytest.raises(ValueError, match="1 row per side"):
            mmd_distance(np.zeros((3, 2)), n)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestMmdMatchesTheWholeMatrixArithmetic:
    """``mmd_distance`` forms its distance matrix in row tiles. While the
    matrix is one tile (N <= 362 rows) its value, gradient and median have
    the bits of the whole-matrix arithmetic in oracles.py; past that the
    median keeps its bits and the block sums, summed tile by tile, move in
    their last bits."""

    @staticmethod
    def _joint(n, m, width, tied, seed):
        rng = np.random.default_rng(seed)
        joint = rng.normal(size=(n + m, width))
        joint[n:] += 0.5
        # coarse grids give tied and zero distances
        return np.round(joint) if tied else joint

    @pytest.mark.parametrize("n,m,width,tied", [
        (64, 64, 16, False), (64, 64, 32, False), (64, 64, 16, True),
        (7, 12, 5, False), (33, 20, 4, True), (6, 5, 3, False), (2, 1, 5, True),
        (1, 1, 2, False), (100, 100, 8, True), (181, 181, 16, False), (300, 62, 32, True),
    ])
    def test_one_tile_is_bitwise(self, n, m, width, tied):
        assert _tiles(n + m, n) == [(0, n + m)]
        for trial in range(3):
            joint = self._joint(n, m, width, tied, seed=(n * 1000 + m) * 10 + trial)
            assert _bits(_median_distance(joint, n)) == _bits(
                whole_matrix_median(*whole_matrix_sq_dists(joint)))
            for bandwidths in (None, [0.7, 1.9, 3.1]):
                value, grad = mmd_distance(joint, n, bandwidths)
                want_value, want_grad = whole_matrix_mmd(joint, n, bandwidths)
                assert _bits(value) == _bits(want_value)
                assert np.array_equal(_bits(grad(1.0)), _bits(want_grad))

    @pytest.mark.parametrize("rows,n,width", [
        (362, 181, 16), (363, 181, 16), (363, 1, 32), (363, 362, 1),
        (_TILE_ROWS * 7, _TILE_ROWS * 3, 16), (2000, 1000, 16), (2000, 777, 1),
    ])
    def test_past_one_tile_the_median_is_bitwise(self, rows, n, width):
        # the plan's boundary is 362 rows: 362^2 distances fit one 1 MiB tile
        assert (len(_tiles(rows, n)) == 1) == (rows <= 362)
        joint = self._joint(n, rows - n, width, False, seed=rows + n + width)
        assert _bits(_median_distance(joint, n)) == _bits(
            whole_matrix_median(*whole_matrix_sq_dists(joint)))
        value, grad = mmd_distance(joint, n)
        want_value, want_grad = whole_matrix_mmd(joint, n)
        assert abs(value - want_value) <= 1e-14
        np.testing.assert_allclose(grad(1.0), want_grad, rtol=0, atol=1e-14)

    def test_multi_tile_matches_the_per_op_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(200, 6))
        b = rng.normal(0.4, 1.3, size=(163, 6))
        assert len(_tiles(363, 200)) > 1
        _assert_matches_oracle(_distance(mmd_distance, a, b), _oracle(oracle_mmd, a, b))

    @pytest.mark.parametrize("rows", [3, 400])
    def test_collapsed_latent_falls_back_to_unit_median(self, rows):
        # every row equal, so every distance is 0 and the median degenerate
        joint = np.full((rows, 16), 0.5)
        assert _median_distance(joint, 2) == 1.0
        value, grad = mmd_distance(joint, 2)
        assert value == 0.0
        assert not grad(1.0).any()

    def test_infinite_median_is_rejected(self):
        # the two rows' squared distance overflows, so the median is inf
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="bandwidths must be positive and finite"):
            mmd_distance(np.array([[-1e154], [1e154]]), 1)


class TestMmdDistance:
    def test_identical_sets_give_zero(self):
        z = np.random.default_rng(0).normal(size=(6, 3))
        value, _ = mmd_distance(np.concatenate([z, z]), 6, bandwidths=[0.5, 1.0, 2.0])
        assert abs(value) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(8, 4)), rng.normal(size=(8, 4)) + 0.5
        bws = [0.5, 1.0, 2.0, 4.0]
        value, _ = mmd_distance(np.concatenate([a, b]), 8, bandwidths=bws)

        def kern(x, y):
            d2 = np.sum((x - y) ** 2)
            return sum(np.exp(-d2 / (2 * bw * bw)) for bw in bws)

        def mean_kernel(xs, ys):
            return np.mean([[kern(x, y) for y in ys] for x in xs])

        expected = mean_kernel(a, a) + mean_kernel(b, b) - 2 * mean_kernel(a, b)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        ab, _ = mmd_distance(np.concatenate([a, b]), 5)
        ba, _ = mmd_distance(np.concatenate([b, a]), 7)
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_default_bandwidths_from_median(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 2.0
        assert _median(a, b) > 0.0
        value, _ = mmd_distance(np.concatenate([a, b]), 6)
        assert value > 0.0

    def test_separated_sets_score_higher_than_identical(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 3))
        near = a + rng.normal(0, 0.01, a.shape)
        far = a + 5.0
        bws = [1.0, 2.0]
        d_near, _ = mmd_distance(np.concatenate([a, near]), 8, bandwidths=bws)
        d_far, _ = mmd_distance(np.concatenate([a, far]), 8, bandwidths=bws)
        assert d_far > d_near > 0.0

    def test_bad_bandwidths_rejected(self):
        with pytest.raises(ValueError, match="bandwidths"):
            mmd_distance(np.ones((6, 2)), 3, bandwidths=[0.0])

    def test_gradcheck_both_sides(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        for vary_target, pt in [(False, a), (True, b)]:
            fn = _distance_fn(mmd_distance, a, b, vary_target, bandwidths=[1.0, 2.0])
            report = grad_check(fn, pt)
            assert report.passed, str(report)


class TestCoralDistance:
    def test_row_permutation_gives_zero(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        value, _ = coral_distance(np.concatenate([z, z[perm]]), 7)
        assert abs(value) < 1e-10

    def test_one_dim_closed_form(self):
        # sample variances 1 and 4 in one dimension: (1-4)^2 / 4 = 2.25
        joint = np.array([[0.0], [math.sqrt(2.0)], [0.0], [math.sqrt(8.0)]])
        assert coral_distance(joint, 2)[0] == pytest.approx(2.25, abs=1e-12)

    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(9, 5)), rng.normal(size=(6, 5))
        value, _ = coral_distance(np.concatenate([a, b]), 9)
        ca = np.cov(a, rowvar=False, ddof=1)
        cb = np.cov(b, rowvar=False, ddof=1)
        expected = np.sum((ca - cb) ** 2) / (4 * 25)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(8, 3))
        ab, _ = coral_distance(np.concatenate([a, b]), 5)
        ba, _ = coral_distance(np.concatenate([b, a]), 8)
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match=">= 2 rows"):
            coral_distance(np.zeros((5, 3)), 1)

    def test_gradcheck_both_sides(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        for vary_target, pt in [(False, a), (True, b)]:
            report = grad_check(_distance_fn(coral_distance, a, b, vary_target), pt)
            assert report.passed, str(report)


# ---------------------------------------------------------------------------
# shared non-negativity / range properties
# ---------------------------------------------------------------------------

class TestSharedProperties:
    def test_kl_style_terms_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(2, 9))
            zo = _logp(rng.uniform(-3, 3, (n, k)))
            za = _logp(rng.uniform(-3, 3, (n, k)))
            assert cpbm_loss(zo, za, None, None, None, 0.0)[0] >= -1e-12
            q = _softmax(rng.uniform(-3, 3, (n, k)))
            assert mupbm_loss(_logp(rng.uniform(-3, 3, (n, k))), q)[0] >= -1e-12

    def test_distances_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            joint = np.concatenate([rng.normal(size=(6, 3)), rng.normal(size=(5, 3))])
            assert mmd_distance(joint, 6, bandwidths=[1.0])[0] >= -1e-12
            assert coral_distance(joint, 6)[0] >= 0.0
