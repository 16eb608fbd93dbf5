import json
import os

import numpy as np
import pytest

from pbmatch.losses import backward, cross_entropy
from pbmatch.nets import (
    OptimState,
    features,
    forward,
    init_params,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
    softmax_probs,
    step,
    trunk_grads,
)
from pbmatch import nets

import oracles
from oracles import Tensor, closed_form_node, dot, head_objective, leaves, oracle_forward, traced_peak


def test_init_deterministic_in_seed():
    a = init_params([256, 64, 10], seed=3)
    b = init_params([256, 64, 10], seed=3)
    for ta, tb in zip(a.all_tensors(), b.all_tensors()):
        assert np.array_equal(ta, tb)
    c = init_params([256, 64, 10], seed=4)
    assert not np.array_equal(a.phi[0][0], c.phi[0][0])


def test_init_shapes():
    p = init_params([256, 64, 10], seed=0)
    assert p.phi[0][0].shape == (256, 64)
    assert p.psi[0].shape == (64, 10)
    assert p.omega["rotate90"][0].shape == (64, 4)
    assert p.omega["vflip"][0].shape == (64, 2)
    assert p.omega["patch_location"][0].shape == (64, 4)
    assert all(b.sum() == 0.0 for _, b in p.phi)


def test_init_weight_scale_matches_fan_in():
    # sample-statistics oracle: std should be near sqrt(2/fan_in)
    p = init_params([256, 128, 4], seed=12)
    w = p.phi[0][0]
    target = np.sqrt(2.0 / 256)
    assert abs(w.std() - target) / target < 0.2


def test_init_rejects_bad_spec():
    with pytest.raises(ValueError):
        init_params([], seed=0)
    with pytest.raises(ValueError):
        init_params([256, 0, 4], seed=0)
    with pytest.raises(ValueError):
        init_params([4, 4, 4], seed=0, tasks=("spin",))


def test_forward_zero_params_gives_uniform_softmax():
    p = init_params([8, 4, 3], seed=0)
    for t in p.all_tensors():
        t[...] = 0.0
    logits = predict_logits(p, np.ones((5, 8)))
    assert np.array_equal(logits, np.zeros((5, 3)))
    probs = softmax_probs(logits)
    assert np.allclose(probs, np.full((5, 3), 1 / 3))


def test_forward_shapes_and_heads():
    p = init_params([16, 8, 4], seed=1)
    x = np.random.default_rng(0).uniform(0, 1, (8, 16))
    z, cache = forward(p, x)
    assert z.shape == (8, 8) and len(cache) == 1
    assert predict_logits(p, x, "label").shape == (8, 4)
    assert predict_logits(p, x, "rotate90").shape == (8, 4)
    assert predict_logits(p, x, "vflip").shape == (8, 2)
    with pytest.raises(ValueError, match="unknown head"):
        predict_logits(p, x, "jigsaw")
    for run in (forward, features, predict_logits):
        with pytest.raises(ValueError, match="input width"):
            run(p, np.ones((2, 7)))


def test_forward_matches_hand_unrolled_chain():
    p = init_params([6, 5, 4, 3], seed=9)
    x = np.random.default_rng(2).uniform(-1, 1, (4, 6))
    h = x
    for w, b in p.phi:
        h = np.maximum(h @ w + b, 0.0)
    expected = h @ p.psi[0] + p.psi[1]
    assert np.max(np.abs(forward(p, x)[0] - h)) < 1e-12
    assert np.max(np.abs(predict_logits(p, x) - expected)) < 1e-12


def test_forward_deterministic():
    p = init_params([6, 4, 2], seed=5)
    x = np.random.default_rng(1).uniform(0, 1, (3, 6))
    z = forward(p, x)[0]
    assert _bits(z) == _bits(forward(p, x)[0]) == _bits(features(p, x))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("hidden", [(5,), (5, 4), (6, 5, 4)], ids=["1", "2", "3"])
def test_trunk_rule_equals_the_per_op_chain_bit_for_bit(hidden):
    rng = np.random.default_rng(len(hidden))
    x = rng.normal(size=(7, 6))
    p = init_params([6, *hidden, 3], seed=4)
    for _, b in p.phi:
        b[...] = np.random.default_rng(1).normal(0.0, 0.5, b.shape)
    z, cache = forward(p, x)
    readout = rng.normal(size=z.shape)
    got = [z] + [g for pair in trunk_grads(cache, readout) for g in pair]
    tp = leaves(p)
    out = oracle_forward(tp, Tensor(x), head=None)
    oracles.backward(dot(out, readout))
    want = [out.data] + [t.grad for t in tp.all_tensors()[:2 * len(hidden)]]
    assert len(got) == len(want) == 1 + 2 * len(hidden)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


@pytest.mark.parametrize("head", ["label", "rotate90"])
@pytest.mark.parametrize("hidden", [(5,), (5, 4), (6, 5, 4)], ids=["1", "2", "3"])
def test_objective_rule_through_a_head_equals_the_per_op_chain_bit_for_bit(hidden, head):
    rng = np.random.default_rng(len(hidden))
    x = rng.normal(size=(7, 6))
    labels = rng.integers(0, 3, 7)
    p = init_params([6, *hidden, 3], seed=4)
    obj = head_objective(p, x, labels, head)
    got = backward(obj)
    tp = leaves(p)
    loss = closed_form_node(oracle_forward(tp, Tensor(x), head), cross_entropy, labels)
    oracles.backward(loss)
    assert obj.total == float(loss.data)
    want = [t.grad for t in tp.all_tensors()]
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if g is not None:
            assert _bits(g) == _bits(w)


def test_trunk_rule_gives_one_pair_per_layer_and_no_input_gradient():
    rng = np.random.default_rng(13)
    p = init_params([5, 4, 3, 2], seed=1)
    z, cache = forward(p, rng.uniform(-2, 2, (6, 5)))
    grads = trunk_grads(cache, rng.uniform(-1, 1, z.shape))
    assert [(dw.shape, db.shape) for dw, db in grads] == [(w.shape, b.shape) for w, b in p.phi]


def test_sgd_basic_update_rule():
    p = init_params([2, 2], seed=0, tasks=())
    p.psi[0][...] = 1.0
    opt = OptimState(kind="sgd_momentum", lr=0.1, momentum=0.0, weight_decay=0.0)
    step(p, opt, [np.ones_like(t) for t in p.all_tensors()])
    assert np.allclose(p.psi[0], 0.9)


@pytest.mark.parametrize("weight_decay", [-1e-5, float("nan")])
def test_optimizer_rejects_unusable_weight_decay(weight_decay):
    with pytest.raises(ValueError, match="weight_decay must be >= 0"):
        OptimState(kind="adam", weight_decay=weight_decay)


def test_step_with_zero_grads_leaves_params():
    p = init_params([4, 3, 2], seed=0)
    before = [t.copy() for t in p.all_tensors()]
    step(p, OptimState(kind="sgd_momentum", lr=0.5, weight_decay=0.0),
         [np.zeros_like(t) for t in p.all_tensors()])
    for b, t in zip(before, p.all_tensors()):
        assert np.array_equal(b, t)


def test_step_requires_gradients():
    p = init_params([4, 3, 2], seed=0)
    with pytest.raises(ValueError, match="no parameter has a gradient"):
        step(p, OptimState(), [None] * len(p.all_tensors()))
    with pytest.raises(ValueError, match="got 2 gradients for 10 parameters"):
        step(p, OptimState(), [np.zeros(1)] * 2)


def test_adam_first_step_magnitude_is_lr():
    # closed-form: first Adam update is lr * sign(g) regardless of |g|
    for g_scale in (1e-4, 1.0, 1e4):
        p = init_params([2, 2], seed=0, tasks=())
        opt = OptimState(kind="adam", lr=0.01, weight_decay=0.0)
        before = p.psi[0].copy()
        step(p, opt, [np.full_like(t, g_scale) for t in p.all_tensors()])
        delta = np.abs(p.psi[0] - before)
        assert np.allclose(delta, 0.01, rtol=1e-3)


def test_gradients_flow_and_loss_descends():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (16, 12))
    labels = rng.integers(0, 3, 16)
    p = init_params([12, 10, 6, 3], seed=2)
    opt = OptimState(kind="sgd_momentum", lr=1e-2, momentum=0.0, weight_decay=0.0)
    losses = []
    for _ in range(50):
        obj = head_objective(p, x, labels)
        step(p, opt, backward(obj))
        losses.append(obj.total)
    diffs = np.diff(losses)
    assert np.all(diffs < 0.0), "loss must strictly decrease on a fixed tiny batch"


def test_aux_head_step_touches_only_shared_trunk_and_its_own_head():
    p = init_params([8, 6, 4], seed=3)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (6, 8))
    labels = rng.integers(0, 4, 6)
    grads = backward(head_objective(p, x, labels, head="rotate90"))
    by_id = {id(t): g for t, g in zip(p.all_tensors(), grads)}

    for t in [t for pair in p.phi for t in pair] + list(p.omega["rotate90"]):
        assert by_id[id(t)] is not None and np.abs(by_id[id(t)]).sum() > 0
    for t in list(p.psi) + list(p.omega["vflip"]) + list(p.omega["patch_location"]):
        assert by_id[id(t)] is None

    before = {h: [t.copy() for t in p.head_tensors(h)] for h in ("label", "vflip")}
    step(p, OptimState(kind="sgd_momentum", lr=0.1, momentum=0.0, weight_decay=0.0), grads)
    for h, snap in before.items():
        for s, t in zip(snap, p.head_tensors(h)):
            assert np.array_equal(s, t)


def test_checkpoint_roundtrip(tmp_path):
    p = init_params([16, 8, 4], seed=7)
    rng = np.random.default_rng(1)
    for t in p.all_tensors():
        t[...] = rng.uniform(-1, 1, t.shape)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, p, step_count=123)
    loaded, steps = load_checkpoint(path)
    assert steps == 123
    assert loaded.layer_spec == p.layer_spec
    for a, b in zip(p.all_tensors(), loaded.all_tensors()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("key", ["layer_spec", "seed", "tasks", "step_count"])
def test_checkpoint_header_missing_key_names_file_and_key(tmp_path, key):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, init_params([4, 3, 2], seed=1))
    header, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    del header[key]
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=rf"header is missing keys: \['{key}'\]") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("key,value", [
    ("tasks", 5), ("tasks", ["spin"]), ("layer_spec", [4, "x", 2]), ("seed", 1.5),
    ("step_count", None), ("seed", True), ("seed", -1), ("seed", "3"),
    ("step_count", False), ("step_count", -2), ("step_count", 2.0)])
def test_checkpoint_header_bad_value_names_file(tmp_path, key, value):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, init_params([4, 3, 2], seed=1))
    header, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="header is malformed") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("payload,msg", [
    (b"not json\n", "no JSON header line"),
    (b"[1, 2]\n", "header must be a JSON object"),
])
def test_checkpoint_bad_header_names_file(tmp_path, payload, msg):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match=msg) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_blob_of_any_wrong_length_names_file_and_length(tmp_path):
    p = init_params([4, 3, 2], seed=1)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, p)
    header, _, blob = path.read_bytes().partition(b"\n")
    want = 8 * sum(t.size for t in p.all_tensors())
    assert len(blob) == want
    for n in [*range(len(blob)), len(blob) + 1, len(blob) + 8]:
        path.write_bytes(header + b"\n" + (blob + bytes(8))[:n])
        with pytest.raises(ValueError, match=f"holds {n} parameter bytes, expected {want}") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


def test_checkpoint_header_naming_huge_layers_fails_before_allocating(tmp_path, monkeypatch):
    # [1e7, 1e7, 2] would need ~800 TB of float64; the 16-byte blob is
    # rejected from the header's own count, before init_params runs
    path = tmp_path / "checkpoint.bin"
    header = {"layer_spec": [10**7, 10**7, 2], "seed": 0, "tasks": ["vflip"], "step_count": 0}
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
    monkeypatch.setattr(nets, "init_params", lambda *a, **k: pytest.fail("allocated"))
    want = 8 * ((10**7 + 1) * 10**7 + (10**7 + 1) * 2 + (10**7 + 1) * 2)
    with pytest.raises(ValueError, match=f"holds 16 parameter bytes, expected {want}") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def _load_error(path, match):
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(path)
    return err.value


def test_checkpoint_with_a_huge_tail_is_rejected_before_it_is_read(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, init_params([4, 3, 2], seed=1))
    os.truncate(path, path.stat().st_size + 64 * 2**20)  # a sparse zero tail
    error, peak = traced_peak(lambda: _load_error(path, "parameter bytes"))
    assert str(path) in str(error)
    assert peak < 2**20


def test_checkpoint_without_a_header_line_is_rejected_before_it_is_read(tmp_path):
    # a truncated JSON prefix, then a sparse zero tail: 64 MiB and no newline
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b'{"layer_spec": [4, 3, 2], "seed"')
    os.truncate(path, 64 * 2**20)
    error, peak = traced_peak(lambda: _load_error(path, "header line is longer than"))
    assert str(path) in str(error)
    assert peak < 2**20


def test_checkpoint_header_is_json_line(tmp_path):
    import json

    p = init_params([4, 3, 2], seed=1)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, p)
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    assert header["layer_spec"] == [4, 3, 2]
    n_params = sum(t.size for t in p.all_tensors())
    assert len(blob) == 8 * n_params
    # little-endian float64, declaration order: first value is phi[0] weight[0,0]
    first = np.frombuffer(blob[:8], dtype="<f8")[0]
    assert first == p.phi[0][0][0, 0]


def test_checkpoint_header_names_the_field_that_is_not_a_non_negative_integer(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, init_params([4, 3, 2], seed=1))
    header, _, blob = path.read_bytes().partition(b"\n")
    for key, value in (("seed", True), ("step_count", -1)):
        bad = {**json.loads(header), key: value}
        path.write_bytes(json.dumps(bad).encode() + b"\n" + blob)
        _load_error(path, f"{key} must be a non-negative integer, got {value!r}")


def test_checkpoint_loads_from_the_blob_without_a_random_init(tmp_path, monkeypatch):
    p = init_params([5, 4, 3], seed=2, tasks=("vflip", "rotate90"))
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, p, step_count=7)
    monkeypatch.setattr(nets, "init_params", lambda *a, **k: pytest.fail("init drawn"))
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("rng drawn"))
    loaded, steps = load_checkpoint(path)
    assert (steps, loaded.seed, loaded.tasks) == (7, 2, ("vflip", "rotate90"))
    assert [_bits(t) for t in loaded.all_tensors()] == [_bits(t) for t in p.all_tensors()]
    assert all(t.flags.owndata for t in loaded.all_tensors())
