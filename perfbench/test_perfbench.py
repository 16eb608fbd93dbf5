"""Tests for the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench
"""

import json
import math
import random
import types

import numpy as np
import pytest

import run
from measure import (Recorder, StopAtFirstStep, TrainCall, above, check_records,
                     epoch_rate, failed_share, grouped_percentile, percentile)
from spans import (Tracer, coverage, layer_totals, per_layer_metrics, self_times,
                   snapshot)

_, MODULES = run.load_pbmatch()
training = MODULES["training"]

import workloads  # noqa: E402  (needs pbmatch on the path)


def span(name, start, end, parent=-1, run_id="unit0", work=0):
    return [name, start, end, parent, run_id, work]


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        span("training.train", 0.0, 10.0),
        span("losses.objective", 1.0, 4.0, parent=0),
        span("nets.forward", 2.0, 3.0, parent=1),
        span("tensor.backward", 5.0, 9.0, parent=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


def test_layer_totals_keep_spans_inside_selected_train_runs():
    spans = [
        span("datasets.generate", 0.0, 1.0, run_id="unit0"),            # outside train
        span("training.train", 1.0, 11.0, run_id="unit0"),
        span("nets.forward", 2.0, 4.0, parent=1, run_id="unit0", work=64),
        span("nets.forward", 4.0, 5.0, parent=1, run_id="unit0", work=32),
        span("trace.tape_count", 5.0, 6.0, parent=1, run_id="unit0"),
        span("training.train", 20.0, 30.0, run_id="setup0"),           # not a unit
        span("nets.forward", 21.0, 29.0, parent=5, run_id="setup0", work=64),
        span("datasets.generate", 7.0, 9.0, parent=1, run_id="setup1"),  # set-up between steps
    ]
    totals, wall = layer_totals(spans, runs=lambda r: r.startswith("unit"))
    assert wall == pytest.approx(8.0)  # the nested set-up is not training time
    assert set(totals) == {"nets.forward", "trace.tape_count"}
    assert totals["nets.forward"] == {"self_s": pytest.approx(3.0), "calls": 2, "work": 96}
    # 3 s of layer time over 8 s of train minus 1 s of the tracer's own work
    assert coverage(totals, wall) == pytest.approx(3.0 / 7.0)


def test_per_layer_metrics_divide_by_steps_and_epochs():
    totals = {
        "nets.forward": {"self_s": 0.9, "calls": 90, "work": 5760},
        "nets.predict": {"self_s": 0.02, "calls": 4, "work": 0},
        "losses.mmd": {"self_s": 0.5, "calls": 10, "work": 0},
    }
    m = per_layer_metrics(totals, steps=10, epochs=2)
    assert m["nets.forward_calls_per_step"] == (9.0, "count")
    assert m["nets.forward_rows_per_step"] == (576.0, "count")
    assert m["nets.forward_ms_per_step"][0] == pytest.approx(90.0)
    assert m["nets.predict_calls_per_epoch"] == (2.0, "count")
    assert m["losses.mmd_ms_per_call"][0] == pytest.approx(50.0)
    assert m["transforms.sp_ms_per_step"] == (0.0, "ms")


# ---------------------------------------------------------------------------
# percentiles with their sample counts
# ---------------------------------------------------------------------------

def test_percentile_matches_numpy_linear():
    rng = random.Random(3)
    for n in (1, 2, 7, 100, 333):
        values = [rng.expovariate(1.0) for _ in range(n)]
        for q in (1, 10, 50, 90, 99):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_p90_of_a_hundred_samples_leaves_ten_above():
    values = [float(v) for v in range(1, 101)]
    p90 = percentile(values, 90)
    assert p90 == pytest.approx(90.1)
    assert above(values, p90) == 10
    assert percentile(values, 50) == pytest.approx(50.5)


def test_grouped_percentile_weights_groups_by_sample_count():
    fast = [float(v) for v in range(1, 101)]          # p90 = 90.1, 10 above
    slow = [1000.0 + v for v in range(1, 301)]        # p90 = 1270.1, 30 above
    value, n, fewest = grouped_percentile([fast, [], slow], 90)
    assert n == 400 and fewest == 10
    assert value == pytest.approx((100 * 90.1 + 300 * 1270.1) / 400)
    # pooled, p90 would land inside the slow group's upper tail instead
    assert percentile(fast + slow, 90) == pytest.approx(1260.1)


def call(epoch_s, epochs, rows):
    return TrainCall(steps=0, epochs=epochs, rows_stepped=rows,
                     sha256="", problems=[], periods_ms=[], epoch_s=epoch_s)


def test_epoch_rate_takes_each_calls_mean_epoch_for_every_epoch():
    calls = [call([1.0, 1.0, 4.0], 4, 400), call([2.0, 2.5], 3, 90)]
    rate, used = epoch_rate(calls)
    assert used == 5
    # 4 epochs at a 2 s mean, plus 3 at 2.25 s
    assert rate == pytest.approx((400 + 90) / (4 * 2.0 + 3 * 2.25))
    with pytest.raises(ValueError):
        epoch_rate(calls + [call([], 1, 50)])


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100)
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], 12.5)
    with pytest.raises(ValueError):
        grouped_percentile([[], []], 50)


# ---------------------------------------------------------------------------
# output checks and failure counting
# ---------------------------------------------------------------------------

def record(**overrides):
    rec = {"epoch": 0, "loss_terms": {"supervised": 0.5, "total": 0.5},
           "src_train_acc": 0.9, "tgt_acc": 0.8, "tgt_acc_transductive": 0.8,
           "per_class_tgt_acc": [1.0, None, 0.5]}
    rec.update(overrides)
    return rec


def test_check_records_flags_non_finite_terms_and_bad_accuracies():
    assert check_records([record()]) == []
    assert check_records([]) == ["no epoch recorded"]
    bad = check_records([record(loss_terms={"mim": float("nan")}),
                         record(tgt_acc=1.5, per_class_tgt_acc=[-0.1])])
    assert len(bad) == 3
    assert "loss term mim" in bad[0]
    assert "tgt_acc" in bad[1] and "per_class_tgt_acc[0]" in bad[2]


class FakeMetrics:
    def __init__(self, records):
        self.records = records

    def to_jsonl(self):
        return repr(self.records)

    def final(self):
        return self.records[-1]


def fake_training(outcomes):
    """A stand-in ``training`` module whose train() replays ``outcomes``:
    a list of records (success) or an exception to raise."""
    queue = list(outcomes)

    def train(cfg, src, tgt, on_step=None, warm_start=None):
        outcome = queue.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        for s in range(3):
            on_step(0, s, {})
        return None, FakeMetrics(outcome)

    def split_target(labels, eval_fraction, seed):
        return np.arange(labels.size), np.arange(0)

    return types.SimpleNamespace(train=train, split_target=split_target)


def test_failed_share_counts_raised_and_unsound_calls():
    module = fake_training([[record()], RuntimeError("boom"),
                            [record(loss_terms={"total": float("inf")})], [record()]])
    original = module.train
    recorder = Recorder(module)
    recorder.install()
    cfg = types.SimpleNamespace(batch=2, eval_fraction=0.2, seed_data=0)
    data = types.SimpleNamespace(labels=np.zeros(5, dtype=np.int64))
    for _ in range(4):
        try:
            module.train(cfg, data, data)
        except RuntimeError:
            pass
    recorder.remove()
    assert recorder.removed_cleanly(original)
    assert (recorder.attempted, recorder.failed) == (4, 2)
    assert failed_share(recorder.attempted, recorder.failed) == 0.5
    assert [c.steps for c in recorder.calls] == [3, 3, 3]
    assert recorder.calls[0].rows_stepped == 6
    assert [len(c.periods_ms) for c in recorder.calls] == [2, 2, 2]  # 3-step epochs
    assert [c.epoch_s for c in recorder.calls] == [[], [], []]  # one epoch each


def test_failed_share_rejects_impossible_counts():
    assert failed_share(13, 0) == 0.0
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(2, 3)


def test_stop_at_first_step_counts_only_failures():
    module = fake_training([[record()], RuntimeError("setup broke")])
    recorder = Recorder(module, stop_at_first_step=True)
    recorder.install()
    with pytest.raises(StopAtFirstStep):
        module.train(None, None, None)
    assert recorder.attempted == 0 and recorder.first_step_at is not None
    with pytest.raises(RuntimeError):
        module.train(None, None, None)
    recorder.remove()
    assert (recorder.attempted, recorder.failed) == (1, 1)


def test_untraced_pass_tops_set_ups_up_and_leaves_them_out_of_step_times(monkeypatch):
    module = fake_training([[record()]] * 100)
    modules = {"training": module, "losses": types.SimpleNamespace()}
    cfg = types.SimpleNamespace(batch=2, eval_fraction=0.2, seed_data=0)
    data = types.SimpleNamespace(labels=np.zeros(5, dtype=np.int64))

    def two_calls(seed):
        module.train(cfg, data, data)
        module.train(cfg, data, data)
        return 0.5

    monkeypatch.setattr(run, "MIN_SETUP_GAP_S", 0.0)
    monkeypatch.setattr(run, "SETUP_SHARE", float("inf"))
    p = run.run_pass(two_calls, 0, modules, seconds=1e-9)
    assert p.error is None and len(p.tgt_acc) == 1 and len(p.unit_calls[0]) == 2
    # with no gap, a set-up follows each of the 6 steps; the end tops up to 5
    assert len(p.setup_s) == len(p.setup_steps) >= run.MIN_SETUPS
    assert p.setup_steps[:5] == [1, 2, 3, 4, 5]
    # every step follows a set-up, so no step period is kept
    assert [c.periods_ms for c in p.unit_calls[0]] == [[], []]
    assert p.recorder.attempted == 2 and p.unwrapped

    replay = run.run_pass(two_calls, 0, modules, setup_steps=[2, 6, 6], units=1)
    assert replay.setup_steps == [2, 6, 6]
    # the set-up after step 2 drops step 3's period; steps 1 and 4 open epochs
    assert [len(c.periods_ms) for c in replay.unit_calls[0]] == [1, 2]


# ---------------------------------------------------------------------------
# the seed argument reaches the workload's inputs
# ---------------------------------------------------------------------------

class Captured(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 3])
def test_seed_reaches_instapbm_inputs(monkeypatch, seed):
    seen = {}

    def build(spec, samples_per_class, data_seed):
        seen.update(spec_seed=spec.seed, data_seed=data_seed)
        return "src", "tgt"

    def train(cfg, src, tgt, **kw):
        seen.update(seed_model=cfg.seed_model, seed_data=cfg.seed_data)
        raise Captured

    monkeypatch.setattr(training, "build_benchmark_pair", build)
    monkeypatch.setattr(training, "train", train)
    args = run.parse_args(["--workload", "instapbm_lds", "--seed", str(seed)])
    with pytest.raises(Captured):
        workloads.WORKLOADS[args.workload](args.seed)
    assert seen == {"spec_seed": seed, "data_seed": seed,
                    "seed_model": 17 + seed, "seed_data": 17 + seed}


def test_seed_reaches_probe_and_ablation_inputs(monkeypatch):
    seen = {}

    def probe(priors_src, priors_tgt, seed_model, seed_data):
        seen["probe"] = (seed_model, seed_data)

    def blobs(*a, seed, **kw):
        seen["blobs"] = seed
        raise Captured

    def suite(base, specs, samples_per_class, data_seed, seeds, rows):
        seen["ablation"] = (specs[0].seed, data_seed, tuple(seeds), len(rows))
        raise Captured

    monkeypatch.setattr(training, "lds_failure_probe", probe)
    monkeypatch.setattr(training, "generate_blob_pair", blobs)
    monkeypatch.setattr(training, "ablation_suite", suite)
    with pytest.raises(Captured):
        workloads.probe_blobs(run.parse_args(["--workload", "probe_blobs", "--seed", "5"]).seed)
    with pytest.raises(Captured):
        workloads.ablation_lds(5)
    assert seen == {"probe": (22, 22), "blobs": 22, "ablation": (5, 5, (22,), 13)}


def test_parse_args_rejects_negative_seed():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "probe_blobs", "--seed", "-1"])


# ---------------------------------------------------------------------------
# tracing leaves the program's output and namespaces untouched
# ---------------------------------------------------------------------------

def tiny_instapbm(seed):
    from pbmatch.benchmarks import BenchmarkSpec
    src, tgt = training.build_benchmark_pair(
        BenchmarkSpec(kind="LDS", imbalance_factor=4.0, seed=3),
        samples_per_class=12, data_seed=1)
    cfg = training.TrainConfig(method="instapbm", epochs=2, batch=16, hidden=(12, 6),
                               seed_model=seed, seed_data=seed)
    _, metrics = training.train(cfg, src, tgt)
    return metrics.final()["tgt_acc"]


def test_traced_pass_matches_untraced_bytes_and_unwraps():
    before = snapshot(MODULES)
    original_train = training.train
    plain = run.run_pass(tiny_instapbm, 5, MODULES, setup_steps=[2, 2], units=1)
    tracer = Tracer(MODULES)
    traced = run.run_pass(tiny_instapbm, 5, MODULES, setup_steps=[2, 2], units=1,
                          tracer=tracer)
    assert plain.error is None and traced.error is None
    assert plain.setup_steps == traced.setup_steps == [2, 2]
    assert len(traced.setup_s) == 2
    assert traced.unit_hashes == plain.unit_hashes
    assert plain.unwrapped and traced.unwrapped and not tracer.missing
    assert snapshot(MODULES) == before and training.train is original_train

    steps = sum(c.steps for c in traced.recorder.calls)
    epochs = sum(c.epochs for c in traced.recorder.calls)
    totals, wall = layer_totals(tracer.spans, runs=lambda r: r.startswith("unit"))
    m = per_layer_metrics(totals, steps, epochs)
    assert m["nets.forward_calls_per_step"][0] == 9.0
    assert m["transforms.sp_rows_per_step"][0] == 16.0
    assert 0.5 < coverage(totals, wall) <= 1.0
    assert all(s[2] is not None for s in tracer.spans)
    assert not math.isnan(m["tensor.backward_ms_per_step"][0])


def test_tracer_reports_names_the_library_lacks():
    module = types.SimpleNamespace(train=lambda *a, **k: None)
    tracer = Tracer({"training": module, "losses": types.SimpleNamespace()})
    tracer.install()
    tracer.remove()
    assert "training.train" not in tracer.missing
    assert "losses.forward" in tracer.missing


def test_a_traced_name_missing_from_the_library_fails_the_run(monkeypatch, capsys):
    import spans
    from pbmatch.benchmarks import BenchmarkSpec

    def small_batches(seed):
        src, tgt = training.build_benchmark_pair(
            BenchmarkSpec(kind="LDS", imbalance_factor=4.0, seed=3),
            samples_per_class=12, data_seed=1)
        cfg = training.TrainConfig(method="instapbm", epochs=2, batch=4, hidden=(12, 6),
                                   seed_model=seed, seed_data=seed)
        return training.train(cfg, src, tgt)[1].final()["tgt_acc"]

    monkeypatch.setitem(workloads.WORKLOADS, "instapbm_lds", small_batches)
    monkeypatch.setattr(spans, "LAYER_CALLS", spans.LAYER_CALLS + (
        ("training", "renamed_away", "training.assembly", None),))
    assert run.main(["--workload", "instapbm_lds", "--seconds", "0.01", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "problem: traced: training.renamed_away not found, so its layer was not traced" in lines
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 0
