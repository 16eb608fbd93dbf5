import json
import os
import tracemalloc

import numpy as np
import pytest

from pbmatch.losses import cross_entropy
from pbmatch.nets import (
    OptimState,
    forward,
    init_params,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
    softmax_probs,
    step,
)
from pbmatch import nets
from pbmatch.tensor import Tensor, backward

from oracles import closed_form_node, dot, oracle_forward


def test_init_deterministic_in_seed():
    a = init_params([256, 64, 10], seed=3)
    b = init_params([256, 64, 10], seed=3)
    for ta, tb in zip(a.all_tensors(), b.all_tensors()):
        assert np.array_equal(ta.data, tb.data)
    c = init_params([256, 64, 10], seed=4)
    assert not np.array_equal(a.phi[0][0].data, c.phi[0][0].data)


def test_init_shapes():
    p = init_params([256, 64, 10], seed=0)
    assert p.phi[0][0].shape == (256, 64)
    assert p.psi[0].shape == (64, 10)
    assert p.omega["rotate90"][0].shape == (64, 4)
    assert p.omega["vflip"][0].shape == (64, 2)
    assert p.omega["patch_location"][0].shape == (64, 4)
    assert all(b.data.sum() == 0.0 for _, b in p.phi)


def test_init_weight_scale_matches_fan_in():
    # sample-statistics oracle: std should be near sqrt(2/fan_in)
    p = init_params([256, 128, 4], seed=12)
    w = p.phi[0][0].data
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
        t.data[:] = 0.0
    logits = forward(p, Tensor(np.ones((5, 8))))
    assert np.array_equal(logits.data, np.zeros((5, 3)))
    probs = softmax_probs(logits.data)
    assert np.allclose(probs, np.full((5, 3), 1 / 3))


def test_forward_shapes_and_heads():
    p = init_params([16, 8, 4], seed=1)
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (8, 16)))
    assert forward(p, x, "label").shape == (8, 4)
    assert forward(p, x, "rotate90").shape == (8, 4)
    assert forward(p, x, "vflip").shape == (8, 2)
    with pytest.raises(ValueError, match="unknown head"):
        forward(p, x, "jigsaw")
    with pytest.raises(ValueError, match="input width"):
        forward(p, Tensor(np.ones((2, 7))))


def test_forward_matches_hand_unrolled_chain():
    p = init_params([6, 5, 4, 3], seed=9)
    x = np.random.default_rng(2).uniform(-1, 1, (4, 6))
    h = x
    for w, b in p.phi:
        h = np.maximum(h @ w.data + b.data, 0.0)
    expected = h @ p.psi[0].data + p.psi[1].data
    got = forward(p, Tensor(x)).data
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.max(np.abs(predict_logits(p, x) - expected)) < 1e-12


def test_forward_deterministic():
    p = init_params([6, 4, 2], seed=5)
    x = Tensor(np.random.default_rng(1).uniform(0, 1, (3, 6)))
    assert np.array_equal(forward(p, x).data, forward(p, x).data)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("head", [None, "label", "rotate90"])
@pytest.mark.parametrize("hidden", [(5,), (5, 4), (6, 5, 4)], ids=["1", "2", "3"])
def test_trunk_and_head_nodes_equal_the_per_op_chain_bit_for_bit(hidden, head):
    rng = np.random.default_rng(len(hidden))
    x_data = rng.normal(size=(7, 6))
    readout = None
    results = []
    for build in (forward, oracle_forward):
        p = init_params([6, *hidden, 3], seed=4)
        for _, b in p.phi:
            b.data = np.random.default_rng(1).normal(0.0, 0.5, b.shape)
        x = Tensor(x_data, requires_grad=True)
        out = build(p, x, head)
        if readout is None:
            readout = rng.normal(size=out.shape)
        backward(dot(out, readout))
        results.append([out.data, x.grad] + [t.grad for t in p.all_tensors()
                                             if t.grad is not None])
    got, want = results
    assert len(got) == len(want) == 2 + 2 * len(hidden) + (head is not None) * 2
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


@pytest.mark.parametrize("tracked", ["input", "params", "both"])
def test_trunk_forms_the_input_gradient_only_for_a_tracked_input(tracked):
    rng = np.random.default_rng(13)
    p = init_params([5, 4, 3, 2], seed=1)
    for t in p.all_tensors():
        t.requires_grad = tracked != "input"
    x = Tensor(rng.uniform(-2, 2, (6, 5)), requires_grad=tracked != "params")
    z = forward(p, x, head=None)
    grads = z._rule(rng.uniform(-1, 1, z.shape))
    assert (grads[0] is not None) == x.requires_grad
    assert len(grads) == 1 + 2 * len(p.phi)


def _nll(params, x, labels, head="label"):
    return closed_form_node(forward(params, Tensor(x), head), cross_entropy, labels)


def test_sgd_basic_update_rule():
    p = init_params([2, 2], seed=0, tasks=())
    p.psi[0].data[:] = 1.0
    for t in p.all_tensors():
        t.grad = np.ones_like(t.data)
    opt = OptimState(kind="sgd_momentum", lr=0.1, momentum=0.0, weight_decay=0.0)
    step(p, opt)
    assert np.allclose(p.psi[0].data, 0.9)


def test_step_with_zero_grads_leaves_params():
    p = init_params([4, 3, 2], seed=0)
    before = [t.data.copy() for t in p.all_tensors()]
    for t in p.all_tensors():
        t.grad = np.zeros_like(t.data)
    step(p, OptimState(kind="sgd_momentum", lr=0.5, weight_decay=0.0))
    for b, t in zip(before, p.all_tensors()):
        assert np.array_equal(b, t.data)


def test_step_requires_gradients():
    p = init_params([4, 3, 2], seed=0)
    with pytest.raises(ValueError, match="gradient"):
        step(p, OptimState())


def test_adam_first_step_magnitude_is_lr():
    # closed-form: first Adam update is lr * sign(g) regardless of |g|
    for g_scale in (1e-4, 1.0, 1e4):
        p = init_params([2, 2], seed=0, tasks=())
        for t in p.all_tensors():
            t.grad = np.full_like(t.data, g_scale)
        opt = OptimState(kind="adam", lr=0.01, weight_decay=0.0)
        before = p.psi[0].data.copy()
        step(p, opt)
        delta = np.abs(p.psi[0].data - before)
        assert np.allclose(delta, 0.01, rtol=1e-3)


def test_gradients_flow_and_loss_descends():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (16, 12))
    labels = rng.integers(0, 3, 16)
    p = init_params([12, 10, 6, 3], seed=2)
    opt = OptimState(kind="sgd_momentum", lr=1e-2, momentum=0.0, weight_decay=0.0)
    losses = []
    for _ in range(50):
        p.zero_grads()
        loss = _nll(p, x, labels)
        backward(loss)
        step(p, opt)
        losses.append(loss.item())
    diffs = np.diff(losses)
    assert np.all(diffs < 0.0), "loss must strictly decrease on a fixed tiny batch"


def test_aux_head_step_touches_only_shared_trunk_and_its_own_head():
    p = init_params([8, 6, 4], seed=3)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (6, 8))
    labels = rng.integers(0, 4, 6)
    p.zero_grads()
    backward(_nll(p, x, labels, head="rotate90"))

    for w, b in p.phi:
        assert w.grad is not None and np.abs(w.grad).sum() > 0
    for t in p.omega["rotate90"]:
        assert t.grad is not None and np.abs(t.grad).sum() > 0
    for t in list(p.psi) + list(p.omega["vflip"]) + list(p.omega["patch_location"]):
        assert t.grad is None

    before = {h: [t.data.copy() for t in p.head_tensors(h)] for h in ("label", "vflip")}
    step(p, OptimState(kind="sgd_momentum", lr=0.1, momentum=0.0, weight_decay=0.0))
    for h, snap in before.items():
        for s, t in zip(snap, p.head_tensors(h)):
            assert np.array_equal(s, t.data)


def test_checkpoint_roundtrip(tmp_path):
    p = init_params([16, 8, 4], seed=7)
    rng = np.random.default_rng(1)
    for t in p.all_tensors():
        t.data = rng.uniform(-1, 1, t.data.shape)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, p, step_count=123)
    loaded, steps = load_checkpoint(path)
    assert steps == 123
    assert loaded.layer_spec == p.layer_spec
    for a, b in zip(p.all_tensors(), loaded.all_tensors()):
        assert np.array_equal(a.data, b.data)


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
    ("step_count", None)])
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
    want = 8 * sum(t.data.size for t in p.all_tensors())
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


def test_checkpoint_with_a_huge_tail_is_rejected_before_it_is_read(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, init_params([4, 3, 2], seed=1))
    os.truncate(path, path.stat().st_size + 64 * 2**20)  # a sparse zero tail
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="parameter bytes") as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(path) in str(err.value)
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
    n_params = sum(t.data.size for t in p.all_tensors())
    assert len(blob) == 8 * n_params
    # little-endian float64, declaration order: first value is phi[0] weight[0,0]
    first = np.frombuffer(blob[:8], dtype="<f8")[0]
    assert first == p.phi[0][0].data[0, 0]
