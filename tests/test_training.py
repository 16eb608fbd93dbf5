"""Trainer, evaluation, run persistence, ablation matrix, and the
label-shift probe."""

import ast
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pbmatch.benchmarks import BenchmarkSpec, two_outlier_count
from pbmatch.datasets import (
    DomainDataset,
    checked_object,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_pair,
)
from pbmatch.losses import LossConfig, _entropy, cross_entropy
from pbmatch.nets import (
    ModelParams,
    OptimState,
    init_params,
    load_checkpoint,
    predict_logits,
    step,
)
from pbmatch.training import (
    ABLATION_ROWS,
    METHODS,
    Metrics,
    NumericalAbort,
    TrainConfig,
    ablation_suite,
    ablation_table_text,
    build_benchmark_pair,
    evaluate,
    full_set_mmd,
    lds_failure_probe,
    save_run,
    split_target,
    train,
)
from pbmatch.transforms import rng, sample_mixup_beta
from pbmatch import losses, nets, training

import oracles
from oracles import Tensor, closed_form_node, leaves, oracle_forward, traced_peak


BLOB_MEANS = ((-2.0, 0.0), (2.0, 0.0))


def blob_pair(n=200, priors_t=(0.7, 0.3), seed=0, spread=0.5):
    return generate_blob_pair(2, (0.5, 0.5), priors_t, BLOB_MEANS, spread,
                              n, seed=seed)


def _glyph_pair():
    src_spec, tgt_spec = default_pair_specs(samples_per_class=8, seed=0)
    return generate_glyph_pair(src_spec, tgt_spec)


def small_cfg(**kw):
    base = dict(method="source_only", epochs=3, batch=32, hidden=(16, 8),
                seed_model=7, seed_data=3)
    base.update(kw)
    return TrainConfig(**base)


def sign_params() -> ModelParams:
    """Hand-built 2-input classifier: class 1 iff x0 > 0."""
    params = init_params([2, 2], seed=0)
    params.psi[0][...] = np.array([[-1.0, 1.0], [0.0, 0.0]])
    params.psi[1][...] = 0.0
    return params


def constant_params(k=2, win=2) -> ModelParams:
    """Always predicts class 0."""
    params = init_params([win, k], seed=0)
    params.psi[0][...] = 0.0
    params.psi[1][...] = 0.0
    params.psi[1][0] = 10.0
    return params


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.method == "source_only"
        assert cfg.optimizer == "adam"

    @pytest.mark.parametrize("kw", [
        dict(method="dann"),
        dict(epochs=0),
        dict(batch=1),
        dict(optimizer="rmsprop"),
        dict(dm_weight=-0.5),
        dict(dm_ramp_steps=-1),
        dict(eval_fraction=0.6),
        dict(eval_fraction=-0.1),
        dict(hidden=()),
        dict(hidden=(32, 0)),
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("lr", -1.0),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", float("nan")),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("weight_decay", -1e-5), ("dm_weight", float("nan")), ("dm_weight", float("inf")),
        # an int past every float once passed, and the first update raised OverflowError
        pytest.param("lr", 10**400, id="lr-int_past_every_float"),
    ])
    def test_unusable_optimizer_settings_are_named(self, field, value):
        # a NaN lr trained to NaN parameters, and a negative one ascended, silently
        with pytest.raises(ValueError, match=f"^{field} must"):
            TrainConfig(method="instapbm", epochs=1, hidden=(8,), **{field: value})

    def test_large_finite_optimizer_settings_pass(self):
        cfg = TrainConfig(lr=1e300, momentum=0.0, weight_decay=1e300, dm_weight=1e300)
        assert cfg.lr == 1e300

    def test_negative_seed_model_is_named(self):
        msg = "seed_model must be an integer in [0, 4294967295], got -1"
        with pytest.raises(ValueError, match=re.escape(msg)):
            TrainConfig(seed_model=-1)

    def test_every_method_constructs(self):
        for method in METHODS:
            assert TrainConfig(method=method).method == method

    def test_dict_round_trip_plain(self):
        cfg = small_cfg(method="dm_mmd", dm_weight=2.5, eval_fraction=0.25)
        again = checked_object(TrainConfig, json.loads(json.dumps(dataclasses.asdict(cfg))),
                               "train config")
        assert again == cfg

    def test_dict_round_trip_with_loss_and_marginal(self):
        cfg = small_cfg(method="instapbm",
                        loss=LossConfig(entropy_ceiling=1.0, lambda_M=0.5),
                        initial_marginal=(0.25, 0.75))
        again = checked_object(TrainConfig, dataclasses.asdict(cfg), "train config")
        assert again == cfg
        assert isinstance(again.loss, LossConfig)

    @pytest.mark.parametrize("payload,field", [
        ({"loss": {"entropy_ceiling": 0}}, "entropy_ceiling"),
        ({"hidden": 5}, "hidden"),
        ({"initial_marginal": 0.5}, "initial_marginal"),
    ], ids=["zero_ceiling", "hidden_not_list", "marginal_not_list"])
    def test_json_names_a_malformed_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            checked_object(TrainConfig, payload, "train config")

    @pytest.mark.parametrize("payload,field", [
        ({"epochs": "3"}, "'epochs' must be an integer"),
        ({"batch": 2.5}, "'batch' must be an integer"),
        ({"seed_model": True}, "'seed_model' must be an integer"),
        ({"dm_ramp_steps": None}, "'dm_ramp_steps' must be an integer"),
        ({"lr": "fast"}, "'lr' must be a finite number"),
        ({"dm_weight": False}, "'dm_weight' must be a finite number"),
        ({"loss": {"entropy_ceiling": 1.0, "lambda_M": "x"}}, "'lambda_M' must be a finite number"),
        ({"loss": {"entropy_ceiling": "1"}}, "'entropy_ceiling' must be a finite number"),
        ({"hidden": [8, "4"]}, "hidden must be a list of integers"),
        ({"hidden": [8, 2.5]}, "hidden must be a list of integers"),
        ({"initial_marginal": [0.5, "0.5"]}, "initial_marginal must be a list of finite numbers"),
    ], ids=["int_str", "int_float", "int_bool", "int_null", "float_str", "float_bool",
            "loss_float_str", "loss_required_str", "hidden_str", "hidden_float",
            "marginal_str"])
    def test_json_rejects_a_mistyped_scalar(self, payload, field):
        with pytest.raises(ValueError, match=field):
            checked_object(TrainConfig, payload, "train config")

    def test_json_takes_ints_for_floats(self):
        cfg = checked_object(TrainConfig, {"lr": 1, "dm_weight": 2, "initial_marginal": [0, 1],
                                           "loss": {"entropy_ceiling": 1, "lambda_M": 0}},
                             "train config")
        assert cfg.lr == 1.0 and cfg.dm_weight == 2.0 and cfg.loss.lambda_M == 0.0

    @pytest.mark.parametrize("marginal", [
        (0.5, float("nan")), (float("inf"), 0.5), (0.7, -0.1), (0.0, 0.0), ((0.5, 0.5),),
    ], ids=["nan", "inf", "negative", "all_zero", "nested"])
    def test_unusable_initial_marginal_is_rejected_by_name(self, marginal):
        with pytest.raises(ValueError, match="^initial_marginal must (be a list of finite "
                                             "numbers >= 0|not be all 0)"):
            TrainConfig(initial_marginal=marginal)

    def test_resolved_loss_defaults_track_class_count(self):
        cfg = TrainConfig()
        resolved = cfg.resolved_loss(4)
        assert resolved.entropy_ceiling == pytest.approx(0.85 * np.log(4))

    def test_resolved_loss_rejects_oversized_ceiling(self):
        cfg = TrainConfig(loss=LossConfig(entropy_ceiling=np.log(4) + 0.2))
        cfg.resolved_loss(5)
        with pytest.raises(ValueError):
            cfg.resolved_loss(2)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_perfect_predictor(self):
        src, _ = blob_pair()
        rep = evaluate(sign_params(), src)
        assert rep.accuracy == 1.0
        assert rep.per_class == [1.0, 1.0]
        assert rep.confusion.trace() == rep.n_evaluated == src.n_samples

    def test_constant_predictor_scores_the_class_fraction(self):
        _, tgt = blob_pair(n=1000, priors_t=(0.7, 0.3))
        rep = evaluate(constant_params(), tgt)
        fraction = float((tgt.labels == 0).mean())
        assert rep.accuracy == pytest.approx(fraction, abs=1e-12)
        assert 0.65 < fraction < 0.75
        assert rep.per_class == [1.0, 0.0]
        assert rep.confusion[:, 1].sum() == 0

    def test_per_class_weighted_mean_matches_overall(self):
        _, tgt = blob_pair(n=1000, priors_t=(0.7, 0.3))
        rep = evaluate(sign_params(), tgt)
        weights = rep.confusion.sum(axis=1) / rep.n_evaluated
        weighted = sum(w * a for w, a in zip(weights, rep.per_class))
        assert weighted == pytest.approx(rep.accuracy, abs=1e-12)

    def test_sentinel_rows_are_excluded(self):
        src, _ = blob_pair(n=100)
        labels = src.labels.copy()
        labels[:10] = -1
        ds = DomainDataset(images=src.images, labels=labels,
                           class_count=2, domain_role="target")
        rep = evaluate(sign_params(), ds)
        assert rep.n_evaluated == 90
        assert rep.confusion.sum() == 90

    def test_all_sentinel_raises(self):
        src, _ = blob_pair(n=20)
        ds = DomainDataset(images=src.images,
                           labels=np.full(20, -1, dtype=np.int64),
                           class_count=2, domain_role="target")
        with pytest.raises(ValueError, match="no labeled samples"):
            evaluate(sign_params(), ds)

    def test_class_count_mismatch_rejected(self):
        # a 3-class model scored on a 2-class dataset
        src, _ = blob_pair(n=60)
        with pytest.raises(ValueError, match="2 classes but the model predicts 3"):
            evaluate(init_params([2, 4, 3], seed=0), src)

    def test_absent_class_gets_none(self):
        src, _ = blob_pair(n=100)
        keep = np.flatnonzero(src.labels == 0)
        rep = evaluate(sign_params(), src.take(keep))
        assert rep.per_class[1] is None


# ---------------------------------------------------------------------------
# split_target
# ---------------------------------------------------------------------------

class TestSplitTarget:
    def test_stratified_counts(self):
        labels = np.repeat([0, 1], [700, 300])
        adapt, held = split_target(labels, 0.2, seed=5)
        assert held.size == 140 + 60
        assert np.bincount(labels[held]).tolist() == [140, 60]

    def test_partition_is_exact(self):
        labels = np.repeat([0, 1, 2], [50, 30, 20])
        adapt, held = split_target(labels, 0.25, seed=11)
        combined = np.sort(np.concatenate([adapt, held]))
        assert np.array_equal(combined, np.arange(100))

    def test_deterministic(self):
        labels = np.repeat([0, 1], [60, 40])
        first = split_target(labels, 0.2, seed=9)
        second = split_target(labels, 0.2, seed=9)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_zero_fraction_reuses_everything(self):
        labels = np.repeat([0, 1], [6, 4])
        adapt, held = split_target(labels, 0.0, seed=1)
        assert np.array_equal(adapt, np.arange(10))
        assert np.array_equal(held, np.arange(10))

    def test_singleton_class_stays_in_adapt(self):
        labels = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        adapt, held = split_target(labels, 0.4, seed=2)
        assert 4 in adapt and 4 not in held


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

class TestTrainLoop:
    def test_source_only_matches_manual_supervised_loop(self):
        src, tgt = blob_pair(n=160)
        cfg = small_cfg(epochs=3, batch=32)
        params, _ = train(cfg, src, tgt)

        mask = 0xFFFFFFFF
        adapt_idx, _ = split_target(tgt.labels, cfg.eval_fraction, cfg.seed_data)
        pair_min = min(src.n_samples, adapt_idx.size)
        batch = min(cfg.batch, pair_min)
        steps = max(1, pair_min // batch)
        manual = init_params([2, *cfg.hidden, 2], cfg.seed_model)
        opt = OptimState(kind=cfg.optimizer, lr=cfg.lr, momentum=cfg.momentum,
                         weight_decay=cfg.weight_decay)
        x, y = src.x_flat(), src.labels
        for epoch in range(cfg.epochs):
            perm = np.random.default_rng(
                [cfg.seed_data & mask, 11, epoch]).permutation(src.n_samples)
            for s in range(steps):
                rows = perm[s * batch:(s + 1) * batch]
                tp = leaves(manual)
                oracles.backward(closed_form_node(oracle_forward(tp, Tensor(x[rows])),
                                                  cross_entropy, y[rows]))
                step(manual, opt, [t.grad for t in tp.all_tensors()])

        for got, want in zip(params.all_tensors(), manual.all_tensors()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("method", ["source_only", "instapbm"])
    def test_initial_marginal_of_another_length_is_rejected_by_name(self, method):
        src, tgt = blob_pair(n=40)
        cfg = small_cfg(method=method, epochs=1, initial_marginal=(0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match="initial_marginal has 3 entries, "
                                             "but the pair has 2 classes"):
            train(cfg, src, tgt)

    # at lr 1e-3 only a few inits reach 0.95 source accuracy in 60 steps
    @pytest.mark.parametrize("seed_model", range(7, 17))
    def test_dm_mmd_on_matching_domains_stays_at_noise_floor(self, seed_model):
        src, _ = blob_pair(n=200, priors_t=(0.5, 0.5))
        twin = DomainDataset(images=src.images.copy(), labels=src.labels.copy(),
                             class_count=2, domain_role="target")
        seen = []
        cfg = small_cfg(method="dm_mmd", epochs=20, batch=64, dm_weight=1.0, lr=1e-2,
                        seed_model=seed_model)
        _, metrics = train(cfg, src, twin,
                           on_step=lambda e, s, rep: seen.append(rep["mmd"]))
        # identical domains: batch-level distance is pure estimator bias
        assert seen and max(seen) < 0.3
        assert sum(seen) / len(seen) < 0.12
        assert metrics.final()["src_train_acc"] > 0.95

    def test_marginal_entropy_recovers_from_collapsed_start(self):
        src, tgt = blob_pair(n=300)
        cfg = small_cfg(method="mim", epochs=6, initial_marginal=(0.97, 0.03))
        _, metrics = train(cfg, src, tgt)
        h = [record["h_q"] for record in metrics.records]
        # q leaves the collapsed start and heads toward the mix of
        # batch marginals; it never falls back toward H((0.97, 0.03)) = 0.13
        assert h[-1] > h[0]
        assert max(h) > 0.64
        assert min(h) > 0.3

    def test_metrics_are_bit_deterministic(self):
        src, tgt = blob_pair(n=120)
        cfg = small_cfg(method="mupbm", epochs=2)
        _, first = train(cfg, src, tgt)
        _, second = train(cfg, src, tgt)
        assert first.to_jsonl() == second.to_jsonl()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_abort_names_the_term(self):
        src, tgt = blob_pair(n=100)
        cfg = small_cfg(optimizer="sgd_momentum", lr=1e12, epochs=3)
        with pytest.raises(NumericalAbort) as info:
            train(cfg, src, tgt)
        assert info.value.term == "supervised"
        assert info.value.epoch >= 0 and info.value.step_idx >= 0

    def test_class_count_mismatch_rejected(self):
        src, _ = blob_pair(n=60)
        other = generate_blob_pair(3, (1 / 3,) * 3, (1 / 3,) * 3,
                                   ((-2, 0), (2, 0), (0, 2)), 0.5, 60, seed=1)[1]
        with pytest.raises(ValueError, match="class counts differ"):
            train(small_cfg(), src, other)

    def test_geometry_mismatch_rejected(self):
        src, _ = blob_pair(n=60)
        s_spec, t_spec = default_pair_specs(samples_per_class=8)
        glyph_src, _ = generate_glyph_pair(s_spec, t_spec)
        with pytest.raises(ValueError):
            train(small_cfg(), src, glyph_src)

    @pytest.mark.parametrize("src_images,src_labels,tgt_images,msg", [
        (np.zeros((4, 4, 4)), [0, 1, 0, 1], np.zeros((4, 5, 5)),
         "input geometry differs: 16 vs 25 features"),
        (np.zeros((4, 4, 4)), [0, 1, 0, 1], np.zeros((4, 16)),
         "domains must both be images or both be points"),
        (np.zeros((4, 4, 4)), [-1] * 4, np.zeros((4, 4, 4)), "source dataset has no labeled samples"),
        (np.zeros((1, 4, 4)), [0], np.zeros((4, 4, 4)), "need at least 2 samples per domain"),
    ], ids=["image_sizes", "images_and_points", "only_outliers", "one_source_row"])
    def test_an_unusable_pair_is_refused_by_name(self, src_images, src_labels, tgt_images, msg):
        src = DomainDataset(images=src_images, labels=src_labels, class_count=2,
                            domain_role="source")
        tgt = DomainDataset(images=tgt_images, labels=[0, 1, 0, 1], class_count=2,
                            domain_role="target")
        with pytest.raises(ValueError, match=msg):
            train(small_cfg(method="source_only"), src, tgt)

    def test_image_transforms_rejected_on_point_data(self):
        src, tgt = blob_pair(n=60)
        for method in ("cpbm_ra", "tpbm_rot", "cpbm_all", "tpbm_all"):
            with pytest.raises(ValueError, match="needs image data"):
                train(small_cfg(method=method), src, tgt)

    def test_instapbm_on_points_keeps_input_agnostic_terms(self):
        src, tgt = blob_pair(n=120)
        reports = []
        cfg = small_cfg(method="instapbm", epochs=1)
        train(cfg, src, tgt, on_step=lambda e, s, rep: reports.append(rep))
        keys = set(reports[0])
        assert {"supervised", "mim", "mupbm"} <= keys
        assert "cpbm" not in keys and "tpbm" not in keys

    def test_sentinel_source_rows_match_prefiltered_run(self):
        src, tgt = blob_pair(n=150)
        labels = src.labels.copy()
        labels[::7] = -1
        noisy = DomainDataset(images=src.images, labels=labels,
                              class_count=2, domain_role="source")
        clean = noisy.take(np.flatnonzero(labels >= 0))
        cfg = small_cfg(epochs=2)
        _, from_noisy = train(cfg, noisy, tgt)
        _, from_clean = train(cfg, clean, tgt)
        assert from_noisy.to_jsonl() == from_clean.to_jsonl()

    def test_on_step_totals_average_to_epoch_record(self):
        src, tgt = blob_pair(n=160)
        totals = []
        cfg = small_cfg(epochs=2, batch=40)
        _, metrics = train(cfg, src, tgt,
                           on_step=lambda e, s, rep: totals.append((e, rep["total"])))
        steps = sum(1 for e, _ in totals if e == 0)
        epoch0 = [v for e, v in totals if e == 0]
        assert metrics.records[0]["loss_terms"]["total"] == pytest.approx(
            sum(epoch0) / steps, rel=1e-12)

    def test_zero_eval_fraction_makes_both_accuracies_agree(self):
        src, tgt = blob_pair(n=100)
        cfg = small_cfg(epochs=2, eval_fraction=0.0)
        _, metrics = train(cfg, src, tgt)
        last = metrics.final()
        assert last["tgt_acc"] == last["tgt_acc_transductive"]

    def test_dm_ramp_scales_the_reported_weight(self):
        src, tgt = blob_pair(n=200)
        weights = []
        cfg = small_cfg(method="dm_mmd", epochs=1, batch=32, dm_weight=2.0,
                        dm_ramp_steps=4)
        train(cfg, src, tgt, on_step=lambda e, s, rep: weights.append(rep["dm_weight"]))
        assert weights[:4] == [0.5, 1.0, 1.5, 2.0]
        assert all(w == 2.0 for w in weights[3:])

    @pytest.mark.parametrize("supervised_weight", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("method,name", [("dm_mmd", "mmd"), ("dm_coral", "coral")])
    def test_dm_methods_honour_the_supervised_weight(self, method, name, supervised_weight):
        src, tgt = blob_pair(n=200)
        reports = []
        cfg = small_cfg(method=method, epochs=1, batch=32, dm_weight=2.0,
                        loss=LossConfig.for_classes(2, supervised_weight=supervised_weight))
        train(cfg, src, tgt, on_step=lambda e, s, rep: reports.append(rep))
        for rep in reports:
            want = rep[name] * rep["dm_weight"]
            if supervised_weight > 0.0:
                assert list(rep) == ["supervised", name, "dm_weight", "total"]
                want = rep["supervised"] * supervised_weight + want
            else:
                assert list(rep) == [name, "dm_weight", "total"]
            assert rep["total"] == want

    def test_warm_start_layer_mismatch_rejected(self):
        src, tgt = blob_pair(n=80)
        donor = init_params([2, 4, 2], seed=0)
        with pytest.raises(ValueError, match="layer spec"):
            train(small_cfg(hidden=(16, 8)), src, tgt, warm_start=donor)

    def test_warm_start_leaves_donor_untouched(self):
        src, tgt = blob_pair(n=80)
        cfg = small_cfg(epochs=2)
        donor, _ = train(cfg, src, tgt)
        snapshot = [t.copy() for t in donor.all_tensors()]
        trained, _ = train(cfg, src, tgt, warm_start=donor)
        for before, now in zip(snapshot, donor.all_tensors()):
            assert np.array_equal(before, now)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(donor.all_tensors(), trained.all_tensors()))

    def test_every_parameter_stays_a_view_of_its_buffer(self, tmp_path):
        def views(params):
            return (params.flat.flags.owndata
                    and all(t.base is params.flat for t in params.all_tensors()))

        src, tgt = blob_pair(n=80)
        cfg = small_cfg(method="instapbm", epochs=2, optimizer="adam")
        path = tmp_path / "checkpoint.bin"
        nets.save_checkpoint(path, init_params([2, 16, 8, 2], seed=7))
        trained, _ = train(cfg, src, tgt)
        warm, _ = train(cfg, src, tgt, warm_start=trained)
        for params in (init_params([2, 16, 8, 2], seed=7), nets.clone_params(trained),
                       load_checkpoint(path)[0], trained, warm):
            assert views(params)
        assert trained.flat is not warm.flat

    @pytest.mark.parametrize("method", METHODS)
    def test_one_trunk_pass_per_step(self, method, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(params, x):
                calls.append((name, x.shape[0]))
                return fn(params, x)
            return wrapper

        # every method reaches the trunk through nets.forward in losses; training
        # keeps a features name bound for the benchmark tracer, counted too in
        # case a step ever calls it
        monkeypatch.setattr(losses, "forward", counting("forward", nets.forward))
        monkeypatch.setattr(training, "features", counting("features", nets.features))
        per_step = []

        def on_step(epoch, s, report):
            per_step.append([name for name, _ in calls])
            calls.clear()

        src, tgt = _glyph_pair()
        cfg = small_cfg(method=method, epochs=2, batch=8, hidden=(8, 4))
        train(cfg, src, tgt, on_step=on_step)
        assert per_step == [["forward"]] * (2 * 3)
        # per-epoch evaluation reaches the trunk through neither traced name
        assert calls == []

    @pytest.mark.parametrize("method", METHODS)
    def test_step_is_the_objective_record_then_one_backward(self, method, monkeypatch):
        events = []

        def recording(name, fn):
            def wrapper(*args):
                out = fn(*args)
                events.append((name, args, out))
                return out
            return wrapper

        for name in ("total_objective", "backward", "step"):
            monkeypatch.setattr(training, name, recording(name, getattr(training, name)))
        src, tgt = _glyph_pair()
        train(small_cfg(method=method, epochs=1, batch=8, hidden=(8, 4)), src, tgt)
        assert [name for name, _, _ in events] == ["total_objective", "backward", "step"] * 3
        # backward reads the step's record, and the optimizer applies its gradients
        for objective, rule, update in zip(events[::3], events[1::3], events[2::3]):
            assert rule[1] == (objective[2],)
            assert update[1][2] is rule[2]

    def test_h_q_is_the_prediction_marginal_entropy_without_the_mim_weight(self):
        src, tgt = _glyph_pair()
        loss = LossConfig.for_classes(src.class_count, lambda_M=0.0)
        cfg = small_cfg(method="instapbm", epochs=2, batch=8, hidden=(8, 4), loss=loss)
        _, metrics = train(cfg, src, tgt)
        for record in metrics.records:
            assert record["h_q"] == _entropy(np.array(record["prediction_marginal"]))
        assert record["h_q"] != pytest.approx(np.log(src.class_count), abs=1e-9)

    def test_epoch_reports_match_evaluate_on_each_split(self):
        src, tgt = _glyph_pair()
        cfg = small_cfg(method="mim", epochs=2, batch=8, hidden=(8, 4))
        params, metrics = train(cfg, src, tgt)
        adapt_idx, eval_idx = split_target(tgt.labels, cfg.eval_fraction, cfg.seed_data)
        held_out = evaluate(params, tgt.take(eval_idx))
        last = metrics.final()
        assert last["tgt_acc"] == held_out.accuracy
        assert last["per_class_tgt_acc"] == held_out.per_class
        assert np.array_equal(metrics.confusion, held_out.confusion)
        assert last["tgt_acc_transductive"] == evaluate(params, tgt.take(adapt_idx)).accuracy
        assert last["src_train_acc"] == evaluate(params, src).accuracy

    def test_metrics_final_requires_records(self):
        with pytest.raises(ValueError):
            Metrics().final()

    def test_full_set_mmd_is_zero_on_identical_sets(self):
        src, _ = blob_pair(n=60)
        params = init_params([2, 8, 2], seed=1)
        assert full_set_mmd(params, src.x_flat(), src.x_flat()) == pytest.approx(
            0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [60, 1000])
    def test_full_set_mmd_is_the_per_step_term_bitwise(self, n):
        # 120 rows are one tile of the distance matrix, 2000 rows many
        src, tgt = blob_pair(n=n)
        params = init_params([2, 32, 16, 2], seed=1)
        z_s = nets.features(params, src.x_flat())
        z_t = nets.features(params, tgt.x_flat())
        want = losses.mmd_distance(np.concatenate([z_s, z_t]), len(z_s))[0]
        got = full_set_mmd(params, src.x_flat(), tgt.x_flat())
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_full_set_mmd_holds_no_square_distance_matrix(self):
        # 2000 rows would need 2 x 30.5 MiB for two N x N float64 arrays; the
        # streamed reading holds a few row tiles and selects the median by
        # radix, without a buffer of the N(N-1)/2 pair distances
        src, tgt = blob_pair(n=1000)
        params = init_params([2, 32, 16, 2], seed=1)
        _, peak = traced_peak(lambda: full_set_mmd(params, src.x_flat(), tgt.x_flat()))
        assert peak < 24 * 2**20


@pytest.mark.parametrize("pair", ["images", "points"])
def test_bundle_mixes_each_target_row_with_its_partner(pair):
    src, tgt = _glyph_pair() if pair == "images" else blob_pair(n=40)
    cfg = small_cfg(method="mupbm", seed_data=5)
    loss_cfg = LossConfig.for_classes(src.class_count, lambda_M=0.0, lambda_C=0.0,
                                      lambda_S=0.0)
    rows_s, rows_t = np.arange(10), np.arange(3, 13)
    x_t = tgt.x_flat()[rows_t]
    bundle = training._build_bundle(cfg, src, tgt, rows_s, rows_t, loss_cfg, 2, 1, 0)
    # the (seed_data, 17, epoch, step) stream draws the partners, then the weights
    gen = rng(5, 17, 2, 1)
    assert np.array_equal(bundle.mixed_partner, gen.permutation(10))
    assert np.array_equal(bundle.mixed_beta, sample_mixup_beta(10, loss_cfg.mixup_alpha, gen))
    beta = bundle.mixed_beta[:, None]
    want = beta * x_t + (1.0 - beta) * x_t[bundle.mixed_partner]
    assert np.array_equal(bundle.mixed_x.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("pair", ["images", "points"])
@pytest.mark.parametrize("method", METHODS)
def test_bundle_holds_exactly_the_fields_its_terms_read(method, pair):
    src, tgt = _glyph_pair() if pair == "images" else blob_pair(n=40)
    cfg = small_cfg(method=method)
    try:
        loss_cfg = training._effective_loss(cfg.resolved_loss(src.class_count), method,
                                            tgt.is_image)
    except ValueError:
        assert pair == "points"  # the method needs image data
        return
    rows = np.arange(8)
    bundle = training._build_bundle(cfg, src, tgt, rows, rows, loss_cfg, 0, 0, 0)
    optional = [f.name for f in dataclasses.fields(losses.BatchBundle)
                if f.default is None and f.name != "distance"]
    reads = losses.bundle_reads(loss_cfg, bundle.distance)
    assert {name for name in optional if getattr(bundle, name) is not None} == (
        set(reads) - {"src_x"})


@pytest.mark.parametrize("weights,sp_calls,st_calls", [
    ({}, 3, 9),
    ({"lambda_C": 0.0}, 0, 9),
    ({"lambda_S": 0.0}, 3, 0),
    ({"lambda_C": 0.0, "lambda_S": 0.0}, 0, 0),
], ids=["all", "no_cpbm", "no_tpbm", "neither"])
def test_bundle_builds_only_the_views_a_weighted_term_scores(weights, sp_calls, st_calls,
                                                               monkeypatch):
    counts = {"sp": 0, "st": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "apply_semantic_preserving",
                        counting("sp", training.apply_semantic_preserving))
    monkeypatch.setattr(training, "apply_semantic_transforming",
                        counting("st", training.apply_semantic_transforming))
    src, tgt = _glyph_pair()
    cfg = small_cfg(method="instapbm", epochs=1, batch=8, hidden=(8, 4),
                    loss=LossConfig.for_classes(src.class_count, **weights))
    train(cfg, src, tgt)
    assert counts == {"sp": sp_calls, "st": st_calls}


def _layer_calls():
    """LAYER_CALLS as written in perfbench/spans.py, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for stmt in ast.parse(path.read_text()).body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if any(getattr(t, "id", None) == "LAYER_CALLS" for t in targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no LAYER_CALLS in {path}")


def test_every_traced_layer_name_resolves():
    # the tracer rebinds these names in the library's namespaces; a name the
    # library drops leaves its layer unmeasured and fails a traced run
    modules = {"training": training, "losses": losses}
    calls = _layer_calls()
    missing = [f"{module}.{name}" for module, name, *_ in calls
               if not hasattr(modules[module], name)]
    assert calls and missing == []


def test_the_benchmark_tracer_wraps_a_training_run_and_unwraps():
    # perfbench/spans.py loaded by path, as it is: a lost or re-signed traced
    # name fails every perfbench run, so its tracer must run a step unchanged
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"training": training, "losses": losses}
    before = spans.snapshot(modules)
    tracer = spans.Tracer(modules)
    steps = []
    tracer.install()
    try:
        src, tgt = _glyph_pair()
        train(small_cfg(method="instapbm", epochs=2, batch=8, hidden=(8, 4)), src, tgt,
              on_step=lambda epoch, s, report: steps.append(s))
    finally:
        tracer.remove()
    assert tracer.missing == [] and len(steps) == 6
    names = [span[0] for span in tracer.spans]
    assert names.count("tensor.backward") == names.count("losses.objective") == len(steps)
    assert all(span[2] is not None for span in tracer.spans)
    assert tracer.removed_cleanly(before)


# ---------------------------------------------------------------------------
# run persistence
# ---------------------------------------------------------------------------

class TestSaveRun:
    def test_run_directory_contents(self, tmp_path):
        src, tgt = blob_pair(n=100)
        cfg = small_cfg(epochs=2)
        params, metrics = train(cfg, src, tgt)
        save_run(tmp_path / "run", cfg, params, metrics)

        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert names == {"config.json", "metrics.jsonl", "summary.json",
                         "confusion.csv", "checkpoint.bin"}

        stored = json.loads((tmp_path / "run" / "config.json").read_text())
        assert checked_object(TrainConfig, stored, "train config") == dataclasses.replace(
            cfg, loss=cfg.resolved_loss(2))

        assert (tmp_path / "run" / "metrics.jsonl").read_text() == metrics.to_jsonl()

        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["target_accuracy"] == metrics.final()["tgt_acc"]

        rows = [[int(v) for v in line.split(",")]
                for line in (tmp_path / "run" / "confusion.csv").read_text().splitlines()]
        assert np.array_equal(np.array(rows), metrics.confusion)

        loaded, _ = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        x = src.x_flat()[:5]
        assert np.array_equal(predict_logits(loaded, x), predict_logits(params, x))

    def test_a_config_of_numpy_numbers_is_written_and_read_back(self, tmp_path):
        # json.dumps once failed here, after the run, on the stored numpy numbers
        src, tgt = blob_pair(n=100)
        cfg = small_cfg(epochs=np.int32(1), lr=np.float32(0.01), seed_model=np.int64(3))
        params, metrics = train(cfg, src, tgt)
        save_run(tmp_path / "run", cfg, params, metrics)
        stored = json.loads((tmp_path / "run" / "config.json").read_text())
        assert stored["epochs"] == 1 and stored["lr"] == float(np.float32(0.01))
        assert checked_object(TrainConfig, stored, "train config") == dataclasses.replace(
            cfg, loss=cfg.resolved_loss(2))


# ---------------------------------------------------------------------------
# ablation matrix
# ---------------------------------------------------------------------------

class TestAblation:
    def test_rows_cover_every_component_and_full(self):
        methods = [m for _, m in ABLATION_ROWS]
        assert methods[0] == "source_only"
        assert methods[-1] == "instapbm"
        assert len(set(methods)) == len(methods) == 11

    def test_small_suite_structure_and_baseline_equivalence(self):
        base = small_cfg(epochs=2, batch=32, hidden=(12, 6))
        spec = BenchmarkSpec(kind="LDS", imbalance_factor=2.0, seed=0)
        table = ablation_suite(
            base, [spec], samples_per_class=12, data_seed=0, seeds=(7,),
            rows=(("Baseline", "source_only"), ("full", "instapbm")))

        assert table["columns"] == ["LDS"]
        assert [r["row"] for r in table["rows"]] == ["Baseline", "full"]
        cell = table["rows"][0]["per_benchmark"]["LDS"]
        assert set(cell["per_seed"]) == {"7"}

        src, tgt = build_benchmark_pair(spec, samples_per_class=12, data_seed=0)
        cfg = dataclasses.replace(base, method="source_only",
                                  seed_model=7, seed_data=7)
        _, metrics = train(cfg, src, tgt)
        assert cell["per_seed"]["7"] == metrics.final()["tgt_acc"]

        text = ablation_table_text(table)
        assert "Baseline" in text and "LDS" in text

    def test_benchmark_pair_lds_counts(self):
        spec = BenchmarkSpec(kind="LDS", imbalance_factor=2.0,
                             class_order=(0, 1, 2, 3), seed=0)
        src, tgt = build_benchmark_pair(spec, samples_per_class=40)
        assert np.bincount(tgt.labels).tolist() == [40, 32, 25, 20]
        plain_src, _ = generate_glyph_pair(*default_pair_specs(
            samples_per_class=40, seed=0))
        assert np.array_equal(src.images, plain_src.images)

    def test_benchmark_pair_ilds_relabels_source(self):
        spec = BenchmarkSpec(kind="ILDS", imbalance_factor=2.0, seed=0)
        src, tgt = build_benchmark_pair(spec, samples_per_class=16)
        assert src.class_count == 4 and tgt.class_count == 4
        plain_src, _ = generate_glyph_pair(*default_pair_specs(
            samples_per_class=16, seed=0))
        assert np.array_equal(src.images, plain_src.images)
        assert np.array_equal(src.labels, plain_src.labels)
        assert "benchmark" in tgt.metadata

    @pytest.mark.parametrize("kind,knobs", [
        ("LDS", {"imbalance_factor": 10.0}),
        ("LDS", {"imbalance_factor": 4.0, "class_order": (2, 0, 3, 1)}),
        ("ILDS", {"imbalance_factor": 3.0})], ids=["lds", "lds_order", "ilds"])
    @pytest.mark.parametrize("samples,data_seed", [(12, 0), (40, 3), (500, 1), (6, 2)])
    def test_benchmark_pair_holds_the_bytes_of_the_whole_pair_shifted(
            self, kind, knobs, samples, data_seed):
        spec = BenchmarkSpec(kind=kind, seed=data_seed + 5, **knobs)
        got = build_benchmark_pair(spec, samples_per_class=samples, data_seed=data_seed)
        whole = generate_glyph_pair(*default_pair_specs(samples_per_class=samples,
                                                        seed=data_seed))
        want = training.shift_pair(*whole, spec)[:2]
        for g, w in zip(got, want):
            assert np.array_equal(g.images.view(np.uint64), w.images.view(np.uint64))
            assert np.array_equal(g.labels, w.labels)
            assert np.array_equal(g.sublabels, w.sublabels)
            assert g.metadata == w.metadata
            assert (g.class_count, g.domain_role) == (w.class_count, w.domain_role)

    @pytest.mark.parametrize("kind", ["LDS", "ILDS"])
    def test_a_zero_tail_is_refused_before_anything_renders(self, monkeypatch, kind):
        from pbmatch import datasets
        rendered = []

        def recording(spec, role, **kw):
            rendered.append(role)
            raise AssertionError("rendered")

        monkeypatch.setattr(datasets, "generate_glyph_domain", recording)
        monkeypatch.setattr(training, "generate_glyph_domain", recording)
        spec = BenchmarkSpec(kind=kind, imbalance_factor=100.0)
        with pytest.raises(ValueError, match="drives the tail to 0 of"):
            build_benchmark_pair(spec, samples_per_class=12)
        assert rendered == []

    @pytest.mark.parametrize("samples,seed", [(6, 0), (16, 3), (250, 0), (16, 0)])
    def test_ilds_map_read_off_sublabels_is_the_canonical_map(self, samples, seed):
        src, tgt = generate_glyph_pair(*default_pair_specs(
            samples_per_class=samples, seed=seed))
        _, _, spec = training.shift_pair(
            src, tgt, BenchmarkSpec(kind="ILDS", imbalance_factor=2.0, seed=seed))
        canonical = {c * 2 + style: c for c in range(4) for style in range(2)}
        assert list(spec.meta_class_map.items()) == list(canonical.items())

    def test_ilds_needs_sublabels_or_a_map(self):
        src, tgt = blob_pair(n=40)
        with pytest.raises(ValueError, match="sublabels"):
            training.shift_pair(src, tgt, BenchmarkSpec(kind="ILDS"))

    def test_benchmark_pair_two_adds_sentinel_rows(self):
        spec = BenchmarkSpec(kind="TwO", outlier_fraction=0.1, seed=0)
        src, tgt = build_benchmark_pair(spec, samples_per_class=18)
        n_clean = 18 * 4
        n_out = round(0.1 * n_clean / 0.9)
        assert tgt.n_samples == n_clean + n_out
        assert int((tgt.labels == -1).sum()) == n_out

    @pytest.mark.parametrize("rho", [0.01, 0.1, 0.2, 0.5])
    @pytest.mark.parametrize("per_class", [2, 18])
    def test_two_pool_sizing_and_injection_agree(self, monkeypatch, rho, per_class):
        pools = []
        real_pool = training.outlier_pool

        def recording_pool(n, seed):
            pools.append(n)
            return real_pool(n, seed)

        monkeypatch.setattr(training, "outlier_pool", recording_pool)
        spec = BenchmarkSpec(kind="TwO", outlier_fraction=rho, seed=1)
        _, tgt = build_benchmark_pair(spec, samples_per_class=per_class)
        n_out = two_outlier_count(per_class * 4, rho)
        assert int((tgt.labels == -1).sum()) == n_out
        assert pools == [max(2 * n_out, 8)]
        assert tgt.metadata["benchmark"]["n_outliers"] == n_out


# ---------------------------------------------------------------------------
# label-shift probe
# ---------------------------------------------------------------------------

class TestProbe:
    def test_ceiling_is_one_minus_tv(self):
        out = lds_failure_probe((0.5, 0.5), (0.7, 0.3), [1.0],
                                n=80, epochs=1, batch=16, hidden=(8, 4))
        assert out["ceiling"] == pytest.approx(0.8)

    def test_rejects_non_binary_priors(self):
        with pytest.raises(ValueError, match="2-class"):
            lds_failure_probe((0.5, 0.3, 0.2), (0.7, 0.2, 0.1), [1.0])

    def test_curve_schema(self):
        out = lds_failure_probe((0.5, 0.5), (0.7, 0.3), [0.5, 1.0],
                                n=80, epochs=2, batch=16, hidden=(8, 4))
        assert len(out["curve"]) == 2
        assert [r["dm_weight"] for r in out["curve"]] == [0.5, 1.0]
        for row in out["curve"]:
            assert {"dm_weight", "mmd", "source_acc", "target_acc",
                    "target_acc_transductive"} <= set(row)

    def test_equal_priors_leave_accuracy_near_supervised(self):
        src, tgt = blob_pair(n=400, priors_t=(0.5, 0.5), seed=3)
        cfg = TrainConfig(method="source_only", epochs=25, batch=64,
                          hidden=(32, 16), seed_model=17, seed_data=3)
        _, metrics = train(cfg, src, tgt)
        reference = metrics.final()["tgt_acc"]

        out = lds_failure_probe((0.5, 0.5), (0.5, 0.5), [1.0, 10.0],
                                n=400, epochs=25, batch=64, hidden=(32, 16),
                                seed_model=17, seed_data=3)
        assert out["ceiling"] == pytest.approx(1.0)
        for row in out["curve"]:
            assert row["target_acc"] >= reference - 0.02


def test_step_1009_and_the_next_epochs_first_step_draw_different_views():
    src, tgt = _glyph_pair()
    cfg = small_cfg(method="instapbm", seed_data=4, dm_ramp_steps=0)
    # no mixup, whose stream is keyed by (epoch, step) and differs already
    loss_cfg = LossConfig.for_classes(4, lambda_U=0.0)
    rows = np.arange(8)
    for first, second in (((0, 1009), (1, 0)), ((0, 1010), (1, 1)), ((0, 2018), (2, 0))):
        # the two steps share a transform token
        assert training._transform_token(4, *first) == training._transform_token(4, *second)
        a, b = (training._build_bundle(cfg, src, tgt, rows, rows, loss_cfg, epoch, s, 0)
                for epoch, s in (first, second))
        assert not np.array_equal(a.tgt_x_aug, b.tgt_x_aug)
        assert any(not np.array_equal(a.st_batches[t][1], b.st_batches[t][1])
                   for t in a.st_batches)


def test_steps_below_the_token_stride_keep_their_two_word_streams():
    # numpy pads entropy shorter than its 4-word pool with zeros, so the
    # word s // TOKEN_STRIDE, 0 below the stride, leaves those streams as they were
    for salt in (training.SP_STREAM_SALT, 101, 102, 103):
        assert np.array_equal(rng(2**31 - 2, salt, 0).random(4), rng(2**31 - 2, salt).random(4))
