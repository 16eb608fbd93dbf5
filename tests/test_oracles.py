"""The per-op oracles of oracles.py and the minimal tape they record on;
the library keeps no tape."""

import numpy as np
import pytest

from pbmatch.gradcheck import grad_check

from oracles import Tensor, add, backward, dot, matmul, node, relu, replayed


def test_elementwise_basics():
    assert np.array_equal(relu(Tensor([-2.0, 3.0])).data, [0.0, 3.0])
    assert np.array_equal(add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])


def test_elementwise_broadcasting_trailing():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.arange(4.0), requires_grad=True)
    w = np.arange(12.0).reshape(3, 4)
    backward(dot(add(a, b), w))
    assert np.array_equal(a.grad, w)
    assert np.array_equal(b.grad, w.sum(axis=0))


def test_elementwise_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_matmul_identity_and_orthogonal():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)
    out2 = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [1.0]]))
    assert np.array_equal(out2.data, [[0.0]])


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("tracked", ["left", "right", "both"])
def test_matmul_gradient_only_for_tracked_operands(tracked):
    rng = np.random.default_rng(13)
    a = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=tracked in ("left", "both"))
    b = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=tracked in ("right", "both"))
    weights = rng.uniform(-1, 1, (5, 3))
    out = matmul(a, b)
    backward(dot(out, weights))
    # the closed forms the rule computes, bit for bit, for each tracked operand
    if a.requires_grad:
        assert np.array_equal(a.grad, weights @ b.data.T)
    else:
        assert a.grad is None
    if b.requires_grad:
        assert np.array_equal(b.grad, a.data.T @ weights)
    else:
        assert b.grad is None
    # the untracked operand's gradient is never formed
    grads = out._rule(weights)
    assert [g is not None for g in grads] == [a.requires_grad, b.requires_grad]


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="inner dimensions"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError, match="rank"):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_backward_matmul_of_a_tensor_with_itself():
    x = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]), requires_grad=True)
    w = np.array([[0.5, -1.0], [2.0, 1.5]])
    backward(dot(matmul(x, x), w))
    # d/dX sum(W * XX) = W X^T + X^T W
    assert np.allclose(x.grad, w @ x.data.T + x.data.T @ w)


def test_backward_constant_loss_leaves_no_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(add(Tensor(3.0), Tensor(1.0)))
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(add(x, x))


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = dot(relu(x), [3.0, 5.0])
    backward(loss)
    backward(loss)
    assert np.array_equal(x.grad, [6.0, 10.0])


def test_backward_linearity():
    rng = np.random.default_rng(11)
    x_data = rng.uniform(-2, 2, (3, 2))
    w1, w2 = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 3))
    m = Tensor(rng.uniform(-1, 1, (2, 3)))

    def grads_of(fn):
        x = Tensor(x_data, requires_grad=True)
        backward(fn(x))
        return x.grad

    def first(x):
        return dot(relu(x), w1)

    def second(x):
        return dot(matmul(x, m), w2)

    def combined(x):
        a, b = first(x), second(x)
        return node(2.5 * a.data - 0.7 * b.data, (a, b), lambda g: (2.5 * g, -0.7 * g))

    g1, g2 = grads_of(first), grads_of(second)
    assert np.max(np.abs(grads_of(combined) - (2.5 * g1 - 0.7 * g2))) < 1e-12


def test_backward_shared_subexpression_counted_once_per_consumer():
    x = Tensor([3.0], requires_grad=True)
    y = relu(x)      # used twice below
    backward(dot(add(y, y), [2.0]))
    assert np.array_equal(x.grad, [4.0])


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    w_data = rng.uniform(-1, 1, (4, 3))
    x_data = rng.uniform(-1, 1, (2, 4))
    readout = rng.uniform(-1, 1, (2, 3))

    def run():
        w = Tensor(w_data.copy(), requires_grad=True)
        h = relu(matmul(Tensor(x_data), w))
        backward(dot(add(h, h), readout))
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def _random_composite(x):
    # exercises every op in one scalar pipeline
    m = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    h = add(relu(x), matmul(x, Tensor(np.eye(4) * 0.3)))
    h = relu(add(matmul(h, m), Tensor(np.array([0.1, -0.2, 0.3]))))
    return dot(h, np.full((3, 3), 0.5))


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(5):
        point = rng.uniform(-2, 2, (3, 4))
        assert grad_check(replayed(_random_composite), point, step=1e-5, tol=1e-4).passed


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: dot(add(x, Tensor(np.full((3, 4), 0.5))), np.arange(12.0).reshape(3, 4)),
        lambda x: dot(relu(x), np.arange(12.0).reshape(3, 4)),
        lambda x: dot(matmul(x, Tensor(np.arange(12.0).reshape(4, 3))), np.ones((3, 3))),
        lambda x: dot(add(matmul(Tensor(np.arange(6.0).reshape(2, 3) - 2.0), x),
                           matmul(Tensor(np.ones((2, 3))), x)), np.arange(8.0).reshape(2, 4)),
    ],
    ids=["add", "relu", "matmul", "matmul_right"],
)
def test_every_op_matches_finite_differences(fn):
    rng = np.random.default_rng(41)
    for _ in range(3):
        point = rng.uniform(-2, 2, (3, 4))
        report = grad_check(replayed(fn), point, step=1e-5, tol=1e-4)
        assert report.passed, str(report)
