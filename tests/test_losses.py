"""Objective terms: analytic identities, direct-summation and per-op tape oracles, gradients.

Each term is a closed-form function of log-probabilities (or, for a
distance, of the stacked latent rows and the source count) that returns
its value and gradient; the oracles in oracles.py rebuild it one tape
node per op.
"""

import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbmatch import losses, training
from pbmatch.losses import (
    BatchBundle,
    DEFAULT_BANDWIDTH_SCALES,
    KL_MARGIN,
    LossConfig,
    TERM_READS,
    _entropy,
    _floor_marginal,
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
    oracle_next_marginal,
    oracle_stacked_views,
    oracle_tpbm,
    reduce,
    sub,
    traced_peak,
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


def _uniform(k):
    """The uniform marginal over k classes."""
    return np.full(k, 1.0 / k)


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
    value, g = fn(np.concatenate([a, b]), len(a), **kw)
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
        return value, grad[n:] if vary_target else grad[:n]

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
        with pytest.raises(ValueError, match="entropy_ceiling"):
            LossConfig.for_classes(3, entropy_ceiling=math.log(3) + 0.1)

    def test_an_unset_ceiling_takes_the_default_for_k(self):
        assert LossConfig(lambda_M=0.5).entropy_ceiling is None
        for ceiling in (None, 0.85 * math.log(4)):
            cfg = LossConfig.for_classes(4, entropy_ceiling=ceiling, lambda_M=0.5)
            assert cfg == LossConfig(entropy_ceiling=0.85 * math.log(4), lambda_M=0.5)
        with pytest.raises(ValueError, match="need at least 2 classes"):
            LossConfig.for_classes(1)


def _constant_prediction(probs, momentum=0.1):
    """A model whose label head predicts ``probs`` on every row, a bundle
    with a target batch, and a config that weights the MIM term beside the
    supervised one, with marginal momentum ``momentum``."""
    k = len(probs)
    params = init_params([3, 4, k], seed=0)
    w, b = params.head_tensors("label")
    w[...] = 0.0
    b[...] = np.log(probs)
    rng = np.random.default_rng(0)
    bundle = BatchBundle(src_x=rng.normal(size=(4, 3)), src_y=np.arange(4) % k,
                         tgt_x=rng.normal(size=(4, 3)))
    cfg = LossConfig.for_classes(k, lambda_C=0.0, lambda_U=0.0, lambda_S=0.0,
                                 marginal_momentum=momentum)
    return params, bundle, cfg


class TestMarginal:
    """The label-marginal estimate q: a plain array that the objective
    advances, floored at MARGINAL_FLOOR."""

    def test_the_floor_keeps_uniform_uniform(self):
        q = _floor_marginal(_uniform(5))
        assert np.allclose(q, 0.2)
        assert _entropy(_floor_marginal(_uniform(4))) == pytest.approx(math.log(4))

    def test_advance_arithmetic(self):
        params, bundle, cfg = _constant_prediction([0.9, 0.1], momentum=0.1)
        q = np.array([0.5, 0.5])
        marginal = total_objective(bundle, params, cfg, q).marginal
        assert np.allclose(marginal, [0.54, 0.46])
        np.testing.assert_array_equal(q, [0.5, 0.5])
        # a list is read as the same array
        assert np.array_equal(_bits(total_objective(bundle, params, cfg, [0.5, 0.5]).marginal),
                              _bits(marginal))

    def test_floor_keeps_entries_positive(self):
        q = _floor_marginal(np.array([1.0, 0.0]))
        assert q.min() > 0.0
        assert abs(q.sum() - 1.0) < 1e-9
        # every row predicts class 0 with probability 1 - 2e-22
        params, bundle, cfg = _constant_prediction(np.exp([50.0, 0.0]))
        for _ in range(50):
            q = total_objective(bundle, params, cfg, q).marginal
        assert q.min() > 0.0
        assert abs(q.sum() - 1.0) < 1e-9

    def test_a_marginal_of_another_length_is_refused(self):
        params, bundle, cfg = _constant_prediction([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match=r"q must be a vector of 3 positive entries"):
            total_objective(bundle, params, cfg, np.array([0.5, 0.5]))

    def test_without_the_mim_weight_q_is_returned_as_it_is(self):
        params, bundle, cfg = _constant_prediction([0.9, 0.1])
        cfg.lambda_M = 0.0
        q = np.array([0.7, 0.3])
        assert total_objective(bundle, params, cfg, q).marginal is q

    @pytest.mark.parametrize("call,msg", [
        (lambda: mim_loss(_logp(np.zeros((4, 2))), np.array([1.0]), 1.0),
         r"q must be a vector of 2 positive entries, one per class, got \[1.0\]"),
        (lambda: LossConfig(entropy_ceiling=1.0, marginal_momentum=1.0),
         r"marginal_momentum must be a finite number in \(0, 1\), got 1.0"),
        (lambda: mim_loss(_logp(np.zeros((4, 3))), np.array([0.5, -0.5, 1.0]), 1.0),
         r"q must be a vector of 3 positive entries, one per class, got \[0.5, -0.5, 1.0\]"),
    ], ids=["one_entry", "momentum_one", "negative_entry"])
    def test_an_unusable_marginal_is_refused_by_name(self, call, msg):
        with pytest.raises(ValueError, match=msg):
            call()


# ---------------------------------------------------------------------------
# marginal + confidence term
# ---------------------------------------------------------------------------

class TestMimLoss:
    def test_uniform_predictions_give_zero(self):
        k = 4
        value, _ = mim_loss(_logp(np.zeros((8, k))), _uniform(k),
                            ceiling=float("inf"))
        assert abs(value) < 1e-9

    def test_balanced_one_hot_hits_minimum(self):
        k = 4
        value, _ = mim_loss(_logp(40.0 * np.eye(k)[np.arange(8) % k]),
                            _uniform(k), ceiling=float("inf"))
        assert value == pytest.approx(-math.log(k), abs=1e-9)

    def test_collapsed_one_hot_scores_zero(self):
        # all mass on class 0 and a matching collapsed marginal: no reward
        k = 4
        q = _floor_marginal(np.array([1.0, 0.0, 0.0, 0.0]))
        value, _ = mim_loss(_logp(40.0 * np.eye(k)[np.zeros(8, dtype=int)]), q,
                            ceiling=float("inf"))
        assert abs(value) < 1e-4

    def test_ceiling_drops_diversity(self):
        k = 3
        value, _ = mim_loss(_logp(np.zeros((6, k))), _uniform(k), ceiling=0.01)
        # only the confidence part survives: mean conditional entropy = ln K
        assert value == pytest.approx(math.log(k))

    def test_reads_q_and_changes_nothing(self):
        q = np.array([0.5, 0.5])
        logp = _logp_for(np.array([[0.9, 0.1]] * 4))
        first = mim_loss(logp, q, ceiling=float("inf"))
        second = mim_loss(logp, q, ceiling=float("inf"))
        np.testing.assert_array_equal(q, [0.5, 0.5])
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"q must be a vector of 3 positive entries, "
                                             r"one per class, got \[0.25, 0.25, 0.25, 0.25\]"):
            mim_loss(_logp(np.zeros((4, 3))), _uniform(4), 1.0)

    def test_gradcheck_full_loss(self):
        rng = np.random.default_rng(0)
        point = rng.uniform(-2, 2, (5, 4))
        report = grad_check(
            lambda x: mim_loss(_logp(x), _uniform(4), float("inf")), point)
        assert report.passed, str(report)

    def test_gradcheck_diversity_estimator(self):
        # a skewed marginal below the ceiling, frozen per call: FD must
        # reproduce sum grad(p) * log q plus the confidence gradient
        rng = np.random.default_rng(1)
        point = rng.uniform(-2, 2, (6, 3))
        q = np.array([0.2, 0.5, 0.3])
        report = grad_check(
            lambda x: mim_loss(_logp(x), q, float("inf")), point)
        assert report.passed, str(report)

    def test_confidence_term_bounded_by_ln_k(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            value, _ = mim_loss(_logp(rng.uniform(-4, 4, (7, k))), _uniform(k),
                                ceiling=0.0)
            assert -1e-12 <= value <= math.log(k) + 1e-12


# ---------------------------------------------------------------------------
# consistency + disagreement term
# ---------------------------------------------------------------------------

def _per_row_cpbm(orig, aug, src, src_y, lambda_con):
    """cpbm_loss's value and source gradient from log-probabilities, formed
    one row and one pair at a time: source row i pairs with row i - 1 (row
    0 with the last), and a pair counts where its two labels differ."""
    agreement = np.mean([(np.exp(orig[i]) * (orig[i] - aug[i])).sum()
                         for i in range(len(orig))])
    pairs = [i for i in range(len(src)) if src_y[i] != src_y[i - 1]]
    share = -lambda_con / len(pairs)
    clamped = []
    g_src = np.zeros_like(src)
    for i in pairs:
        p, gap = np.exp(src[i]), src[i] - src[i - 1]
        kl = (p * gap).sum()
        clamped.append(min(kl, KL_MARGIN))
        if kl < KL_MARGIN:
            g_src[i] += (p * (gap - kl)) * share
            g_src[i - 1] += (np.exp(src[i - 1]) - p) * share
    return agreement - lambda_con * (np.sum(clamped) / len(pairs)), g_src


class TestCpbmLoss:
    def test_identical_views_give_zero(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, (6, 4))
        value, _ = cpbm_loss(_logp(z), _logp(z.copy()), _logp(z), np.zeros(6, dtype=np.int64),
                             0.1)
        assert abs(value) < 1e-12

    def test_two_class_agreement_oracle(self):
        one = _logp_for([[0.5, 0.5]])
        value, _ = cpbm_loss(one, _logp_for([[0.25, 0.75]]), one, np.zeros(1, dtype=np.int64),
                             0.0)
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.1438, abs=1e-4)

    def test_identical_pair_contributes_nothing(self):
        z = np.random.default_rng(1).uniform(-1, 1, (4, 3))
        src = np.tile(np.random.default_rng(2).uniform(-1, 1, (1, 3)), (5, 1))
        with_pairs, _ = cpbm_loss(_logp(z), _logp(z + 0.3), _logp(src), np.array([0, 1, 0, 2, 1]),
                                  0.7)
        without, _ = cpbm_loss(_logp(z), _logp(z + 0.3), _logp(src), np.ones(5, dtype=np.int64),
                               0.7)
        assert with_pairs == pytest.approx(without, abs=1e-12)

    def test_full_loss_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        zo, za = rng.uniform(-2, 2, (6, 4)), rng.uniform(-2, 2, (6, 4))
        src = rng.uniform(-2, 2, (5, 4))
        src_y = np.array([1, 0, 0, 2, 2])
        lam = 0.3
        value, _ = cpbm_loss(_logp(zo), _logp(za), _logp(src), src_y, lam)
        po, paug, ps = _softmax(zo), _softmax(za), _softmax(src)
        first = np.mean([_kl(po[i], paug[i]) for i in range(6)])
        # rows 0, 1 and 3 differ from the row before them (row 0 from row 4)
        second = np.mean([min(_kl(ps[i], ps[i - 1]), KL_MARGIN) for i in (0, 1, 3)])
        assert value == pytest.approx(first - lam * second, abs=1e-10)

    def test_pairs_each_source_row_with_the_one_before_it_bitwise(self):
        # labels 0, 1, 1, 2: rows 0, 1 and 3 differ from the row before them
        # (row 0 from row 3), row 2 agrees with row 1
        rng = np.random.default_rng(13)
        src_y = np.array([0, 1, 1, 2])
        for trial in range(50):
            orig, aug, src = (_logp(rng.normal(0, 2.0, (4, 3))) for _ in range(3))
            value, (_, _, g_src) = cpbm_loss(orig, aug, src, src_y, 0.3)
            want_value, want_g = _per_row_cpbm(orig, aug, src, src_y, 0.3)
            assert np.float64(value).view(np.uint64) == np.float64(want_value).view(np.uint64)
            np.testing.assert_array_equal(g_src, want_g)

    def test_disagreement_clamped_at_margin(self):
        zero = _logp(np.zeros((1, 2)))
        src = _logp(np.array([[30.0, 0.0], [0.0, 30.0]]))
        value, (_, _, g_src) = cpbm_loss(zero, zero.copy(), src, np.array([0, 1]), 1.0)
        # first term 0; both pairs' KL is ~30 nats but enters as the margin
        assert value == pytest.approx(-KL_MARGIN, abs=1e-6)
        assert not np.any(g_src)

    def test_empty_mask_is_not_an_error(self):
        z = _logp(np.zeros((3, 2)))
        value, (_, _, g_src) = cpbm_loss(z, z, _logp(np.ones((2, 2))), np.array([4, 4]), 0.5)
        assert value == 0.0 and g_src is None

    def test_misaligned_views_rejected(self):
        z = _logp(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="logits differ"):
            cpbm_loss(z, _logp(np.zeros((4, 2))), z, np.zeros(3, dtype=np.int64), 0.1)

    @pytest.mark.parametrize("n_labels", [3, 5])
    def test_labels_of_another_length_are_refused(self, n_labels):
        z = _logp(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=f"src_y has {n_labels} labels for 4 source rows"):
            cpbm_loss(z, z, _logp(np.ones((4, 2))), np.arange(n_labels), 0.5)

    def test_labels_of_another_shape_are_refused_by_name(self):
        # a (4, 1) column of differing labels once failed inside the pairing
        z = _logp(np.zeros((3, 2)))
        with pytest.raises(ValueError,
                           match=r"src_y must be a vector of labels, got shape \(4, 1\)"):
            cpbm_loss(z, z, _logp(np.ones((4, 2))), np.array([[0], [1], [0], [1]]), 0.5)

    def test_gradient_reaches_both_views(self):
        rng = np.random.default_rng(4)
        orig, aug = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3))
        _, (g_orig, g_aug, g_src) = cpbm_loss(_logp(orig), _logp(aug), _logp(orig),
                                              np.array([0, 1, 0, 1]), 0.0)
        assert g_orig.shape == orig.shape and np.any(g_orig != 0.0)
        assert g_aug.shape == aug.shape and np.any(g_aug != 0.0)
        assert g_src is None

    def test_gradcheck_each_argument(self):
        rng = np.random.default_rng(5)
        blocks = [rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3)),
                  rng.uniform(-2, 2, (4, 3))]
        src_y = np.array([0, 1, 1, 2])

        def build(slot):
            def fn(x):
                logp = [_logp(x if i == slot else z) for i, z in enumerate(blocks)]
                value, grads = cpbm_loss(*logp, src_y, 0.4)
                return value, grads[slot]
            return fn

        for slot, pt in enumerate(blocks):
            report = grad_check(build(slot), pt)
            assert report.passed, str(report)


# ---------------------------------------------------------------------------
# interpolation term
# ---------------------------------------------------------------------------

def _keep(n):
    """Mixing draws that keep every row's own target: partner r, weight 1."""
    return np.arange(n), np.ones(n)


class TestMupbmLoss:
    def test_one_hot_target_equals_cross_entropy(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, (6, 4))
        labels = rng.integers(0, 4, 6)
        # exp(-1000) is 0: the target rows are exactly one-hot
        value, _ = mupbm_loss(_logp(z), _logp(1000.0 * np.eye(4)[labels]), *_keep(6))
        ce, _ = cross_entropy(_logp(z), labels)
        assert value == pytest.approx(ce, abs=1e-9)

    def test_matching_distributions_give_zero(self):
        logp = _logp_for([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        value, _ = mupbm_loss(logp, logp.copy(), np.array([0, 1]), np.array([0.3, 0.8]))
        assert abs(value) < 1e-12

    def test_two_class_oracle(self):
        value, _ = mupbm_loss(_logp_for([[0.25, 0.75]]), _logp_for([[0.5, 0.5]]), *_keep(1))
        assert value == pytest.approx(0.1438, abs=1e-4)

    def test_targets_mix_two_rows_predictions(self):
        # row 0 mixes one-hot rows 0 and 1 half and half, row 1 takes a
        # quarter of its own and three quarters of row 0's
        tgt = _logp(1000.0 * np.eye(2))
        logp = _logp_for([[0.25, 0.75], [0.75, 0.25]])
        value, grad = mupbm_loss(logp, tgt, np.array([1, 0]), np.array([0.5, 0.25]))
        assert value == pytest.approx((0.5 * math.log(2) + 0.5 * math.log(2 / 3)) / 2, abs=1e-12)
        np.testing.assert_allclose(grad, [[-0.125, 0.125], [0.0, 0.0]], rtol=0, atol=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mupbm_loss(_logp(np.zeros((2, 3))), _logp(np.zeros((3, 3))), *_keep(2))

    @pytest.mark.parametrize("partner,beta", [
        (np.array([1, 0, 2]), np.array([0.5])), (np.array([1, 0]), np.full(3, 0.5)),
        (np.array([[1, 0, 2]]), np.full((1, 3), 0.5)),
    ], ids=["one_beta", "short_partner", "draws_of_rank_2"])
    def test_refuses_mixing_draws_that_are_not_one_per_row(self, partner, beta):
        z = _logp(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="must hold one entry per row, 3"):
            mupbm_loss(z, z, partner, beta)

    @pytest.mark.parametrize("beta", [[2.0, 0.5, 0.5, -1.0], [0.5, np.nan, 0.5, 0.5]],
                             ids=["outside", "nan"])
    def test_refuses_a_mixing_weight_outside_the_unit_interval(self, beta):
        z = _logp(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"beta entries must lie in \[0, 1\]"):
            mupbm_loss(z, z, np.arange(4), np.array(beta))

    @pytest.mark.parametrize("partner", [[1, 0, 3, 4], [1, 0, -1, 2]], ids=["past_n", "negative"])
    def test_refuses_a_partner_outside_the_rows(self, partner):
        z = _logp(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"partner entries must lie in \[0, 4\)"):
            mupbm_loss(z, z, np.array(partner), np.full(4, 0.5))

    def test_target_entropy_matches_per_row_reference_bitwise(self):
        rng = np.random.default_rng(12)

        def row_entropy(row):
            terms = np.where(row > 0.0, row * np.log(np.where(row > 0.0, row, 1.0)), 0.0)
            return float(-terms.sum())

        for trial in range(400):
            k, n = int(rng.integers(2, 7)), int(rng.integers(1, 130))
            tgt = _logp(rng.normal(0.0, 3.0, (n, k)))
            partner, beta = rng.permutation(n), rng.uniform(0.0, 1.0, n)
            if trial % 3 == 0:
                # a one-hot row kept whole: its target entropy is 0
                r = rng.integers(0, n)
                tgt[r] = _logp(1000.0 * np.eye(k)[[rng.integers(0, k)]])
                beta[r] = 1.0
            probs = np.exp(tgt)
            q = np.array([beta[r] * probs[r] + (1.0 - beta[r]) * probs[partner[r]]
                          for r in range(n)])
            z = rng.normal(size=(n, k))
            want = sub(neg(reduce("mean", reduce("sum", mul(Tensor(q), log_softmax(Tensor(z))),
                                                 axis=1))),
                       Tensor(np.mean([row_entropy(row) for row in q])))
            got, _ = mupbm_loss(_logp(z), tgt, partner, beta)
            assert np.float64(got).view(np.uint64) == want.data.view(np.uint64), trial

    def test_targets_never_receive_gradient(self):
        # the one gradient is the logits' (p - q) / n; the targets are constants
        rng = np.random.default_rng(1)
        logits = rng.uniform(-1, 1, (4, 3))
        _, grad = mupbm_loss(_logp(logits), _logp(np.zeros((4, 3))), rng.permutation(4),
                             rng.uniform(0, 1, 4))
        np.testing.assert_allclose(grad, (_softmax(logits) - 1 / 3) / 4, rtol=0, atol=1e-15)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        tgt = _logp(rng.uniform(-1, 1, (5, 4)))
        partner, beta = rng.permutation(5), rng.uniform(0, 1, 5)
        point = rng.uniform(-2, 2, (5, 4))
        report = grad_check(lambda x: mupbm_loss(_logp(x), tgt, partner, beta), point)
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
            return lambda x: fn(x, _floor_marginal(q), ceiling)

        z = rng.normal(0, 2.0, (n, k))
        _assert_matches_oracle(_term(term(mim_loss), z), _oracle(term(oracle_mim), z))

    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    def test_the_objective_advances_the_marginal_like_the_oracle(self, skewed):
        rng = np.random.default_rng(3)
        params = init_params([5, 6, 3], seed=3)
        bundle = BatchBundle(src_x=rng.normal(size=(4, 5)), src_y=rng.integers(0, 3, 4),
                             tgt_x=rng.normal(0, 2.0, (8, 5)))
        cfg = LossConfig.for_classes(3, lambda_C=0.0, lambda_U=0.0, lambda_S=0.0)
        q = _floor_marginal(rng.dirichlet(np.full(3, 0.4)) if skewed else _uniform(3))
        got = total_objective(bundle, params, cfg, q).marginal
        want = oracle_next_marginal(predict_logits(params, bundle.tgt_x), q,
                                    cfg.marginal_momentum)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lambda_con", [0.3, 1.0])
    def test_cpbm_with_rows_where_the_clamp_binds(self, lambda_con):
        rng = np.random.default_rng(5)
        orig, aug = rng.normal(0, 2.0, (6, 4)), rng.normal(0, 2.0, (6, 4))
        src = rng.normal(0, 2.0, (5, 4))
        # labels 0, 1, 1, 2, 2: pairs 2 and 4 agree. Rows 1 and 2 sit far
        # apart, so pair 2 (masked out) and pair 3 (counted) are past the margin
        src[1] = [0.0, 30.0, 0.0, 0.0]
        src[2] = [0.0, 0.0, 30.0, 0.0]
        src_y = np.array([0, 1, 1, 2, 2])
        p = _softmax(src)
        kl = np.sum(p * (np.log(p) - np.log(np.roll(p, 1, axis=0))), axis=1)
        assert kl[[2, 3]].min() > KL_MARGIN and kl[[0, 1]].max() < KL_MARGIN
        got = _term(lambda *p: cpbm_loss(*p, src_y, lambda_con), orig, aug, src)
        _assert_matches_oracle(
            got, _oracle(lambda *t: oracle_cpbm(*t, src_y, lambda_con), orig, aug, src))
        # rows 2 and 3 sit only on pairs 2, 3 and 4, which pass no gradient
        g_src = got[3]
        assert not np.any(g_src[[2, 3]]) and np.all(np.any(g_src[[0, 1, 4]], axis=1))

    @pytest.mark.parametrize("src_y,lambda_con", [
        (np.array([2, 2, 2]), 0.5), (np.array([0, 1, 1]), 0.0),
    ], ids=["labels_agree", "zero_lambda"])
    def test_cpbm_without_the_disagreement_part(self, src_y, lambda_con):
        rng = np.random.default_rng(6)
        orig, aug = rng.normal(0, 2.0, (4, 3)), rng.normal(0, 2.0, (4, 3))
        src = rng.normal(0, 2.0, (3, 3))
        _assert_matches_oracle(
            _term(lambda *p: cpbm_loss(*p, src_y, lambda_con), orig, aug, src),
            _oracle(lambda *t: oracle_cpbm(*t, src_y, lambda_con), orig, aug, src))

    @pytest.mark.parametrize("n,k", [(1, 2), (5, 3), (64, 4)])
    def test_mupbm(self, n, k):
        rng = np.random.default_rng(n * 7 + k)
        t = rng.normal(0, 3.0, (n, k))
        partner, beta = rng.permutation(n), rng.uniform(0, 1, n)
        # row 0 keeps a one-hot target whole
        t[0] = 1000.0 * np.eye(k)[rng.integers(0, k)]
        beta[0] = 1.0
        z = rng.normal(0, 2.0, (n, k))
        _assert_matches_oracle(_term(lambda p: mupbm_loss(p, _logp(t), partner, beta), z),
                               _oracle(lambda x: oracle_mupbm(x, _softmax(t), partner, beta), z))

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
        partner, beta = rng.permutation(4), rng.uniform(0, 1, 4)
        labels = np.array([0, 2, 1, 1])
        joint = np.concatenate([a, b])
        q = _floor_marginal(np.array([0.2, 0.5, 0.3]))
        for term, args, shapes in [
            (cross_entropy, (la, labels), [(4, 3)]),
            (mim_loss, (la, q, float("inf")), [(4, 3)]),
            (cpbm_loss, (la, lb, la, labels, 0.1), [(4, 3)] * 3),
            (cpbm_loss, (la, lb, la, labels, 0.0), [(4, 3)] * 2 + [None]),
            (mupbm_loss, (la, lb, partner, beta), [(4, 3)]),
            (tpbm_loss, ([la, lb[:, :2]], [labels, labels % 2]), [(4, 3), (4, 2)]),
            (coral_distance, (joint, 4), [(8, 3)]),
            (mmd_distance, (joint, 4), [(8, 3)]),
        ]:
            arrays = [x for arg in args for x in (arg if isinstance(arg, list) else [arg])
                      if isinstance(x, np.ndarray)]
            before = [x.tobytes() for x in arrays]
            value, grads = term(*args)
            # the term leaves every array it is given as it found it
            assert [x.tobytes() for x in arrays] == before, term.__name__
            # a plain float and plain arrays, a distance's over the stacked
            # rows, or None for an input the term leaves alone; never a callable
            grads = grads if isinstance(grads, (tuple, list)) else (grads,)
            assert type(value) is float
            assert [type(g) for g in grads] == [
                np.ndarray if shape else type(None) for shape in shapes]
            assert [g.shape if shape else g for g, shape in zip(grads, shapes)] == shapes

    def test_cross_entropy_refuses_labels_of_another_length(self):
        with pytest.raises(ValueError, match=r"labels shape \(4,\) does not match logits \(5, 2\)"):
            cross_entropy(_logp(np.zeros((5, 2))), np.zeros(4, dtype=np.int64))

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
        mixed_x=mix_x, mixed_partner=partner, mixed_beta=mix_b, st_batches=st)


def _per_view_terms(bundle, params, cfg):
    """The objective's weighted terms built the way it was first written:
    one per-op extractor pass per view, the per-op term oracles, which form
    the source pairs and the mixup targets row by row, the mixup targets
    from a prediction of the target batch, and the feature distance on the
    two latent batches. Each term is built over the parameter leaves it is
    given."""
    b = bundle
    oracle_distance = {"mmd": oracle_mmd, "coral": oracle_coral}.get(b.distance)
    probs = softmax_probs(predict_logits(params, b.tgt_x))

    def view(tp, x, head="label"):
        return oracle_forward(tp, Tensor(x), head=head)

    return [
        (cfg.supervised_weight, lambda tp: oracle_ce(view(tp, b.src_x), b.src_y)),
        (cfg.lambda_M, lambda tp: oracle_mim(view(tp, b.tgt_x), _uniform(3),
                                             cfg.entropy_ceiling)),
        (cfg.lambda_C, lambda tp: oracle_cpbm(
            view(tp, b.tgt_x), view(tp, b.tgt_x_aug), view(tp, b.src_x), b.src_y,
            cfg.lambda_con)),
        (cfg.lambda_U, lambda tp: oracle_mupbm(view(tp, b.mixed_x), probs, b.mixed_partner,
                                               b.mixed_beta)),
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
    obj = total_objective(bundle, params, cfg, _uniform(3))
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


# the weights of the objective's terms, and each (reader, field) row of TERM_READS
_WEIGHTS = ("supervised_weight", "lambda_M", "lambda_C", "lambda_U", "lambda_S")
_READ_ROWS = [
    ("supervised_weight", "src_x"),
    ("lambda_M", "tgt_x"),
    ("lambda_C", "src_x"), ("lambda_C", "tgt_x"), ("lambda_C", "tgt_x_aug"),
    ("lambda_U", "tgt_x"), ("lambda_U", "mixed_x"), ("lambda_U", "mixed_partner"),
    ("lambda_U", "mixed_beta"),
    ("lambda_S", "st_batches"),
    ("distance", "src_x"), ("distance", "tgt_x"),
]


class TestTotalObjective:
    def _setup(self, seed=0):
        params = init_params([12, 8, 3], seed=seed)
        rng = np.random.default_rng(seed + 100)
        return params, _full_bundle(params, rng)

    def test_degenerate_weights_reduce_to_source_ce(self):
        params, bundle = self._setup()
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0,
                         lambda_U=0, lambda_S=0, supervised_weight=1.0)
        obj = total_objective(bundle, params, cfg, _uniform(3))
        direct, _ = cross_entropy(_logp(predict_logits(params, bundle.src_x)), bundle.src_y)
        assert obj.total == direct
        assert set(obj.report) == {"supervised", "total"}

    def test_degenerate_weights_match_supervised_gradients_bitwise(self):
        params, bundle = self._setup(seed=1)
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0,
                         lambda_U=0, lambda_S=0)
        got = backward(total_objective(bundle, params, cfg, _uniform(3)))
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
        obj = total_objective(bundle, params, cfg, _uniform(3))
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

    def test_the_refusal_cases_cover_the_whole_table(self):
        assert {(reader, field) for reader, fields in TERM_READS.items()
                for field in fields} == set(_READ_ROWS)

    @pytest.mark.parametrize("reader,field", _READ_ROWS)
    def test_a_read_field_left_out_is_refused_by_reader_and_field(self, reader, field):
        # the reader alone is weighted, so it is the field's first reader
        params, bundle = self._setup(seed=16)
        setattr(bundle, field, None)
        weights = {key: 0.0 for key in _WEIGHTS}
        if reader == "distance":
            bundle.distance = "coral"
        else:
            weights[reader] = 1.0
        with pytest.raises(ValueError, match=rf"^{reader} reads {field}, "
                                             rf"which the bundle does not hold$"):
            total_objective(bundle, params, LossConfig.for_classes(3, **weights), _uniform(3))

    @pytest.mark.parametrize("field,empty", [("st_batches", {}), ("tgt_x", np.zeros((0, 12)))])
    def test_an_empty_read_field_is_refused_too(self, field, empty):
        params, bundle = self._setup(seed=19)
        setattr(bundle, field, empty)
        reader = {"st_batches": "lambda_S", "tgt_x": "lambda_M"}[field]
        weights = {key: 1.0 if key == reader else 0.0 for key in _WEIGHTS}
        with pytest.raises(ValueError, match=rf"^{reader} reads {field}, "):
            total_objective(bundle, params, LossConfig.for_classes(3, **weights), _uniform(3))

    @pytest.mark.parametrize("distance", [None, "mmd", "coral"])
    def test_the_stack_and_heads_follow_the_per_view_weight_rule(self, distance):
        params, bundle = self._setup(seed=18)
        bundle.distance = distance
        for on in itertools.product([False, True], repeat=len(_WEIGHTS)):
            if not any(on) and distance is None:
                continue  # the objective refuses a step with nothing to optimize
            cfg = LossConfig.for_classes(3, **{key: 0.5 if lit else 0.0
                                               for key, lit in zip(_WEIGHTS, on)})
            obj = total_objective(bundle, params, cfg, _uniform(3))
            stacked, heads = oracle_stacked_views(bundle, cfg)
            assert [(head, rows) for head, rows, *_ in obj.heads] == heads, on
            assert np.array_equal(_bits(obj.acts[0]), _bits(stacked)), on

    @pytest.mark.parametrize("lambda_C, distance", [(1.0, None), (0.0, "coral")],
                             ids=["consistency", "distance_only"])
    def test_labels_of_another_length_are_refused_by_name(self, lambda_C, distance):
        # the consistency term once failed on a mask the caller never
        # passed, and a distance alone never read the labels
        params, bundle = self._setup(seed=17)
        bundle.src_y = bundle.src_y[:-1]
        bundle.distance = distance
        weights = dict(supervised_weight=0.0, lambda_M=0.0, lambda_C=lambda_C,
                       lambda_U=0.0, lambda_S=0.0)
        with pytest.raises(ValueError, match=rf"src_y has {len(bundle.src_x) - 1} labels "
                                             rf"for {len(bundle.src_x)} source rows"):
            total_objective(bundle, params, LossConfig.for_classes(3, **weights),
                            _uniform(3))

    def test_a_one_class_label_head_is_refused(self):
        params = init_params([12, 8, 1], seed=0)
        bundle = BatchBundle(src_x=np.zeros((2, 12)), src_y=np.zeros(2, dtype=np.int64))
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0, lambda_U=0, lambda_S=0)
        with pytest.raises(ValueError, match=r"logits must be \[batch, K\] with K >= 2"):
            total_objective(bundle, params, cfg, _uniform(2))

    def test_zero_weight_skips_missing_fields(self):
        params, bundle = self._setup(seed=5)
        bundle.mixed_x = None
        bundle.mixed_partner = None
        bundle.mixed_beta = None
        cfg = LossConfig.for_classes(3, lambda_U=0.0)
        report = total_objective(bundle, params, cfg, _uniform(3)).report
        assert "mupbm" not in report

    def test_all_zero_weights_rejected(self):
        params, bundle = self._setup(seed=6)
        cfg = LossConfig(entropy_ceiling=1.0, lambda_M=0, lambda_C=0,
                         lambda_U=0, lambda_S=0, supervised_weight=0)
        with pytest.raises(ValueError, match="zero"):
            total_objective(bundle, params, cfg, _uniform(3))

    def test_record_holds_one_latent_and_the_heads_in_use(self):
        params, bundle = self._setup(seed=10)
        obj = total_objective(bundle, params, LossConfig.for_classes(3),
                              _uniform(3))
        assert [head for head, *_ in obj.heads] == ["label", "rotate90", "vflip"]
        z = obj.acts[-1]
        assert z.shape[0] == sum(len(x) for x in (
            bundle.src_x, bundle.tgt_x, bundle.tgt_x_aug, bundle.mixed_x,
            *(x for x, _ in bundle.st_batches.values())))
        assert [block.shape for block in obj.dlogits] == [
            (z[rows].shape[0], w.shape[1]) for _, rows, w, _ in obj.heads]
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
        obj = total_objective(bundle, params, cfg, _uniform(3))
        names = ["supervised"] if supervised_weight > 0.0 else []
        assert list(obj.report) == names + [distance, "dm_weight", "total"]
        assert obj.report["dm_weight"] == 1.7
        # the latent rows of the source and target views, under the label head only
        assert [head for head, *_ in obj.heads] == ["label"]
        assert obj.distance[0] == slice(0, len(bundle.src_x) + len(bundle.tgt_x))
        distance_fn = {"mmd": mmd_distance, "coral": coral_distance}[distance]
        _, grad = distance_fn(obj.acts[-1][obj.distance[0]], len(bundle.src_x))
        assert np.array_equal(_bits(obj.distance[1]), _bits(1.7 * grad))

    @pytest.mark.parametrize("distance", ["mmd", "coral"])
    def test_distance_adds_to_every_other_term(self, distance):
        params, bundle = self._setup(seed=12)
        bundle.distance, bundle.distance_weight = distance, 0.6
        _assert_matches_per_view(bundle, params, LossConfig.for_classes(3))

    def test_an_unresolved_ceiling_is_refused_by_name(self):
        params, bundle = self._setup(seed=15)
        with pytest.raises(ValueError, match="entropy_ceiling is unresolved"):
            total_objective(bundle, params, LossConfig(), _uniform(3))

    def test_unknown_distance_rejected(self):
        params, bundle = self._setup(seed=14)
        bundle.distance = "wasserstein"
        with pytest.raises(ValueError, match="distance must be one of"):
            total_objective(bundle, params, LossConfig.for_classes(3),
                            _uniform(3))

    def test_deterministic_across_calls(self):
        # two calls on one q agree bitwise and leave every input alone; q is
        # skewed below the ceiling, so the diversity term reads it
        params, bundle = self._setup(seed=7)
        cfg = LossConfig.for_classes(3)
        q = _floor_marginal(np.array([0.7, 0.2, 0.1]))
        assert _entropy(q) < cfg.entropy_ceiling

        def inputs():
            arrays = [q, params.flat, bundle.src_x, bundle.src_y, bundle.tgt_x,
                      bundle.tgt_x_aug, bundle.mixed_x, bundle.mixed_partner,
                      bundle.mixed_beta,
                      *(x for pair in bundle.st_batches.values() for x in pair)]
            return [x.tobytes() for x in arrays]

        kept = inputs()
        a = total_objective(bundle, params, cfg, q)
        b = total_objective(bundle, params, cfg, q)
        assert inputs() == kept
        assert list(a.report) == list(b.report)
        assert all(_bits(a.report[k]) == _bits(b.report[k]) for k in a.report)
        assert len(a.dlogits) == len(b.dlogits)
        for ga, gb in zip(a.dlogits, b.dlogits):
            assert np.array_equal(_bits(ga), _bits(gb))
        assert np.array_equal(_bits(a.marginal), _bits(b.marginal))
        assert not np.array_equal(a.marginal, q)


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
                assert np.array_equal(_bits(grad), _bits(want_grad))

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
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-14)

    @staticmethod
    def _passes(monkeypatch):
        """The passes over the tile walk, in order: "count" for a pass that
        counts digits, else "keep"; the median's pass that counts no digit
        keeps pairs."""
        passes = []
        tile_walk, bincount = losses._tile_walk, np.bincount

        def counted_walk(joint, n):
            walk = tile_walk(joint, n)

            def counted():
                passes.append("keep")
                yield from walk()
            return counted

        def counting(*args, **kwargs):
            passes[-1] = "count"
            return bincount(*args, **kwargs)

        monkeypatch.setattr(losses, "_tile_walk", counted_walk)
        monkeypatch.setattr(np, "bincount", counting)
        return passes

    @classmethod
    def _latent(cls, case, rows=2000):
        """A joint past one tile and its source row count: a normal latent,
        a tied one (a coarse grid at width 2), a collapsed one, or two
        clusters of 1035 and 990 rows, which put as many pairs within the
        clusters as across, so the two middle ranks fall into two bins.
        Two point clusters make both bins far larger than a tile; clusters
        spread over 0.1 make both small."""
        if case in ("two_clusters", "two_spread_clusters"):
            spread = 0.1 if case == "two_spread_clusters" else 0.0
            gen = np.random.default_rng(0)
            return np.concatenate([gen.uniform(0.0, spread, (1035, 1)),
                                   1.0 + gen.uniform(0.0, spread, (990, 1))]), 1035
        if case == "collapsed":
            return np.full((rows, 16), 0.5), rows // 2
        return cls._joint(rows // 2, rows // 2, 16 if case == "normal" else 2,
                          case == "tied", seed=0), rows // 2

    @pytest.mark.parametrize("case,passes", [
        ("normal", ["count", "count", "keep"]),
        ("tied", ["count"] * 4),
        ("collapsed", ["count"] * 4),
        ("two_clusters", ["count"] * 4),
        ("two_spread_clusters", ["count", "keep"]),
    ])
    def test_past_one_tile_every_digit_path_is_bitwise(self, case, passes, monkeypatch):
        # a tied latent past one tile puts more than a tile of pairs in
        # every bin down to the last digit, whose prefix is the value itself
        joint, n = self._latent(case)
        want = whole_matrix_median(*whole_matrix_sq_dists(joint))
        got = self._passes(monkeypatch)
        assert _bits(_median_distance(joint, n)) == _bits(want)
        assert got == passes
        value, grad = mmd_distance(joint, n)
        want_value, want_grad = whole_matrix_mmd(joint, n)
        assert abs(value - want_value) <= 1e-14
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case,median_passes", [
        ("one_tile", 1), ("normal", 3), ("collapsed", 4), ("two_spread_clusters", 2)])
    def test_each_pass_forms_each_tile_once(self, case, median_passes, monkeypatch):
        # a one-tile matrix is formed once for the median and the kernel; a
        # larger one once per median pass plus once for the kernel
        joint, n = (self._joint(64, 64, 16, False, seed=0), 64) if case == "one_tile" \
            else self._latent(case)
        passes = self._passes(monkeypatch)
        formed = []
        sq_dist_rows = losses._sq_dist_rows

        def forming(joint, sq, a, b):
            formed.append((a, b))
            return sq_dist_rows(joint, sq, a, b)

        monkeypatch.setattr(losses, "_sq_dist_rows", forming)
        mmd_distance(joint, n)
        tiles = _tiles(len(joint), n)
        assert len(passes) == median_passes + 1
        if case == "one_tile":
            assert formed == tiles == [(0, 128)]
        else:
            assert len(tiles) > 1
            assert formed == tiles * (median_passes + 1)

    @pytest.mark.parametrize("rows", [600, 602])
    def test_past_one_tile_a_nan_sorts_last(self, rows):
        # as partitioning every pair did: the lower middle rank counts NaN
        # last, and the smallest pair above it is NaN if any pair is
        joint = self._joint(rows // 2, rows // 2, 4, True, seed=rows)
        joint[7] = np.nan
        d2, _ = whole_matrix_sq_dists(joint)
        pairs = np.sort(d2[np.triu_indices(rows, 1)])
        lo = (pairs.size - 1) // 2
        want = math.sqrt(pairs[lo]) if pairs.size % 2 else 1.0
        assert pairs.size % 2 == (rows == 602)
        assert _bits(_median_distance(joint, rows // 2)) == _bits(want)

    @pytest.mark.parametrize("case,rows,bound_mib", [
        ("normal", 2000, 6), ("tied", 2000, 6), ("two_clusters", 2025, 6), ("normal", 8000, 24),
    ])
    def test_past_one_tile_memory_grows_with_rows_not_pairs(self, case, rows, bound_mib):
        # the P = N(N-1)/2 pair distances alone would be 15.25 MiB at 2000
        # rows and 244 MiB at 8000; the call holds a few tiles instead
        joint, n = self._latent(case, rows)
        assert len(joint) == rows
        _, peak = traced_peak(lambda: mmd_distance(joint, n))
        assert peak <= bound_mib * 2**20

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
        assert not grad.any()

    def test_infinite_median_is_rejected(self):
        # the two rows' squared distance overflows, so the median is inf
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="bandwidths must be positive and finite"):
            mmd_distance(np.array([[-1e154], [1e154]]), 1)


class TestOneRouteToTheDistanceMatrix:
    """Only ``_tile_walk`` forms distance rows: the median and the kernel
    read the matrix through it, and a second route fails here."""

    def test_only_the_walk_forms_distance_rows(self):
        source = Path(losses.__file__).read_text()
        assert _use_sites(source, "_sq_dist_rows") == [("_tile_walk",), ("_tile_walk", "walk")]

    @pytest.mark.parametrize("source", [
        "def mmd_distance(joint, n):\n    return _sq_dist_rows(joint, sq, 0, 3)\n",
        "def _median_distance(joint, n):\n    form = _sq_dist_rows\n    return form(joint, sq, 0, 3)\n",
        "whole = lambda joint, sq: _sq_dist_rows(joint, sq, 0, len(joint))\n",
    ])
    def test_the_guard_flags_a_second_route(self, source):
        assert [scope for scope in _use_sites(source, "_sq_dist_rows")
                if scope[:1] != ("_tile_walk",)] != []


def _use_sites(source, name):
    """The enclosing functions, outermost first, of every use of ``name``
    in ``source``, bare or as an attribute such as ``np.roll``."""
    sites = []

    class Sites(ast.NodeVisitor):
        scope = ()

        def visit_FunctionDef(self, node):
            outer, self.scope = self.scope, (*self.scope, node.name)
            self.generic_visit(node)
            self.scope = outer

        def visit_Name(self, node):
            if node.id == name:
                sites.append(self.scope)

        def visit_Attribute(self, node):
            if node.attr == name:
                sites.append(self.scope)
            self.generic_visit(node)

    Sites().visit(ast.parse(source))
    return sites


class TestOnePairingRule:
    """The consistency term's pairing, source row i with row i - 1, lives
    in ``cpbm_loss`` alone: no other function in the library rolls rows."""

    def test_only_cpbm_loss_rolls_rows(self):
        sites = {(path.stem, *scope) for path in Path(losses.__file__).parent.glob("*.py")
                 for scope in _use_sites(path.read_text(), "roll")}
        assert sites == {("losses", "cpbm_loss")}

    @pytest.mark.parametrize("source", [
        "def total_objective(b):\n    return np.roll(b.src_y, 1)\n",
        "from numpy import roll\ndef total_objective(b):\n    return roll(b.src_y, 1)\n",
        "shift = lambda a: numpy.roll(a, -1, axis=0)\n",
    ])
    def test_the_guard_flags_a_second_pairing(self, source):
        assert _use_sites(source, "roll") != []


class TestOneTableOfReads:
    """Which views a step builds and checks is decided by ``TERM_READS``
    alone: the bundle builder and the bundle check read no term weight."""

    @pytest.mark.parametrize("module,function", [(training, "_build_bundle"),
                                                 (losses, "_check_bundle")])
    def test_reads_no_weight(self, module, function):
        assert _weight_reads(Path(module.__file__).read_text(), function) == []

    @pytest.mark.parametrize("source", [
        "def _build_bundle(cfg, loss_cfg):\n    if loss_cfg.lambda_C > 0.0:\n        pass\n",
        "def _build_bundle(loss_cfg):\n    def inner():\n        return loss_cfg.lambda_S\n",
        "def _build_bundle(loss_cfg):\n    return getattr(loss_cfg, 'supervised_weight')\n",
    ])
    def test_the_guard_flags_a_weight_test(self, source):
        assert _weight_reads(source, "_build_bundle") != []


def _weight_reads(source, function):
    """The term weights, ``lambda_*`` or ``supervised_weight``, that the
    function ``function`` in ``source`` names, as an attribute or a string."""
    names = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == function:
            names += [node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)]
            names += [node.value for node in ast.walk(fn)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return [name for name in names if re.fullmatch(r"lambda_\w+|supervised_weight", name)]


# the parity of P = N(N-1)/2 follows N % 4: odd for 2 and 3, even for 0 and 1
_TILED_MEDIANS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def _tiled_joints(draw, odd_pairs):
    rows = 4 * draw(st.integers(91, 174)) + draw(st.sampled_from((2, 3) if odd_pairs else (0, 1)))
    width = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joint = gen.normal(size=(rows, width)) * draw(st.sampled_from((1e-3, 1.0, 30.0)))
    if draw(st.booleans()):
        # a coarse grid: tied and zero distances, and -0.0 where a negative rounds to 0
        joint = np.round(joint)
    copies = draw(st.integers(0, rows // 2))
    joint[gen.integers(0, rows, copies)] = joint[gen.integers(0, rows, copies)]
    return joint, draw(st.integers(1, rows - 1))


@pytest.mark.parametrize("odd_pairs", [False, True])
@_TILED_MEDIANS
@given(data=st.data())
def test_past_one_tile_the_median_has_the_whole_matrix_bits(odd_pairs, data):
    joint, n = data.draw(_tiled_joints(odd_pairs))
    assert len(_tiles(len(joint), n)) > 1
    assert (len(joint) * (len(joint) - 1) // 2) % 2 == odd_pairs
    assert _bits(_median_distance(joint, n)) == _bits(
        whole_matrix_median(*whole_matrix_sq_dists(joint)))


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
            assert cpbm_loss(zo, za, zo, np.zeros(n, dtype=np.int64), 0.0)[0] >= -1e-12
            tgt = _logp(rng.uniform(-3, 3, (n, k)))
            partner, beta = rng.permutation(n), rng.uniform(0, 1, n)
            assert mupbm_loss(_logp(rng.uniform(-3, 3, (n, k))), tgt, partner, beta)[0] >= -1e-12

    def test_distances_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            joint = np.concatenate([rng.normal(size=(6, 3)), rng.normal(size=(5, 3))])
            assert mmd_distance(joint, 6, bandwidths=[1.0])[0] >= -1e-12
            assert coral_distance(joint, 6)[0] >= 0.0
