import ast
import inspect

import numpy as np
import pytest

from pbmatch import losses, nets, tensor
from pbmatch.tensor import (
    Tensor,
    add,
    backward,
    exp,
    grad_check,
    log_softmax,
    matmul,
    mul,
    neg,
    reduce,
    relu,
    scale,
    sub,
    take,
    transpose,
)


def test_elementwise_basics():
    assert np.allclose(exp(Tensor([0.0, 1.0])).data, [1.0, np.e])
    assert np.array_equal(relu(Tensor([-2.0, 3.0])).data, [0.0, 3.0])
    assert np.array_equal(add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])
    assert np.array_equal(neg(Tensor([1.0, -2.0])).data, [-1.0, 2.0])
    assert np.array_equal(scale(Tensor([1.0, 2.0]), 3.0).data, [3.0, 6.0])
    assert np.array_equal(sub(Tensor([5.0, 5.0]), Tensor([2.0, 1.0])).data, [3.0, 4.0])
    assert np.array_equal(mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0])).data, [8.0, 15.0])


def test_elementwise_broadcasting_trailing():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.arange(4.0), requires_grad=True)
    out = (a * b).sum()
    backward(out)
    assert np.allclose(a.grad, np.tile(np.arange(4.0), (3, 1)))
    assert np.allclose(b.grad, [3.0, 3.0, 3.0, 3.0])


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
    backward(reduce("sum", out * Tensor(weights)))
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


def test_transpose_forward_and_backward():
    a = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), requires_grad=True)
    out = transpose(a)
    assert np.array_equal(out.data, a.data.T)
    backward(reduce("sum", mul(out, Tensor(np.arange(6.0).reshape(3, 2)))))
    assert np.array_equal(a.grad, np.arange(6.0).reshape(3, 2).T)


def test_transpose_rejects_non_matrix():
    with pytest.raises(ValueError, match="rank"):
        transpose(Tensor([1.0, 2.0]))


def test_take_rows_forward_and_backward():
    a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    weights = np.arange(6.0).reshape(2, 3) + 1.0
    out = take(a, slice(1, 3))
    assert np.array_equal(out.data, a.data[1:3])
    backward(reduce("sum", mul(out, Tensor(weights))))
    want = np.zeros((4, 3))
    want[1:3] = weights
    assert np.array_equal(a.grad, want)


def test_take_gather_adds_up_repeated_rows():
    a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    rows = np.array([3, 0, 3])
    out = take(a, rows)
    assert np.array_equal(out.data, a.data[rows])
    backward(reduce("sum", out))
    assert np.array_equal(a.grad, np.array([[1.0] * 3, [0.0] * 3, [0.0] * 3, [2.0] * 3]))


def test_take_blocks_sum_back_to_the_whole():
    # disjoint blocks of one tensor give the gradient of using it whole
    a = Tensor(np.arange(12.0).reshape(4, 3) / 7.0, requires_grad=True)
    w = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    backward(reduce("sum", mul(a, w)))
    whole = a.grad.copy()
    a.zero_grad()
    top = reduce("sum", mul(take(a, slice(0, 1)), take(w, slice(0, 1))))
    rest = reduce("sum", mul(take(a, slice(1, 4)), take(w, slice(1, 4))))
    backward(top + rest)
    assert np.array_equal(a.grad, whole)


def test_take_rejects_bad_indices():
    with pytest.raises(ValueError, match="rank 1"):
        take(Tensor(2.0), slice(0, 1))
    with pytest.raises(ValueError, match="1-D index array"):
        take(Tensor(np.ones((3, 2))), np.array([[0, 1]]))


def test_reduce_basics():
    assert reduce("sum", Tensor([1.0, 2.0, 3.0])).data == 6.0
    assert np.array_equal(
        reduce("mean", Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0).data, [3.0, 5.0]
    )


def test_reduce_axis_out_of_range():
    with pytest.raises(ValueError, match="axis"):
        reduce("sum", Tensor([[1.0, 2.0]]), axis=2)


def test_log_softmax_symmetry_and_stability():
    out = log_softmax(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, np.log([0.5, 0.5]))
    big = log_softmax(Tensor([[1000.0, 0.0]])).data
    assert np.isfinite(big).all()
    assert abs(big[0, 0]) < 1e-12
    assert abs(big[0, 1] + 1000.0) < 1e-9


def test_log_softmax_direct_formula_oracle():
    z = np.array([[1.0, 2.0, 3.0]])
    direct = np.log(np.exp(z) / np.exp(z).sum())
    assert np.max(np.abs(log_softmax(Tensor(z)).data - direct)) < 1e-12


def test_log_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(-50, 50, (5, 7))
        probs = np.exp(log_softmax(Tensor(z)).data)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward((x * x).sum())
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_constant_loss_leaves_no_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(Tensor(3.0) * Tensor(1.0))
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(x * x)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    backward(loss)
    assert np.allclose(x.grad, [4.0, 8.0])


def test_backward_linearity():
    rng = np.random.default_rng(11)
    x_data = rng.uniform(-2, 2, 6)

    def grads_of(fn):
        x = Tensor(x_data, requires_grad=True)
        backward(fn(x))
        return x.grad

    g1 = grads_of(lambda x: (x * x).sum())
    g2 = grads_of(lambda x: exp(x).mean())
    combined = grads_of(
        lambda x: scale((x * x).sum(), 2.5) + scale(exp(x).mean(), -0.7)
    )
    assert np.max(np.abs(combined - (2.5 * g1 - 0.7 * g2))) < 1e-9


def test_backward_shared_subexpression_counted_once_per_consumer():
    x = Tensor([3.0], requires_grad=True)
    y = x * x      # used twice below
    backward((y + y).sum())
    # d/dx of 2x^2 = 4x
    assert np.allclose(x.grad, [12.0])


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    w_data = rng.uniform(-1, 1, (4, 3))
    x_data = rng.uniform(-1, 1, (2, 4))

    def run():
        w = Tensor(w_data.copy(), requires_grad=True)
        logits = matmul(Tensor(x_data), w)
        loss = (log_softmax(logits) * log_softmax(logits)).mean()
        backward(loss)
        return w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def _random_composite(x):
    # exercises every op family in one scalar pipeline
    h = relu(x) + exp(scale(x, 0.3))
    h = h * x - neg(x)
    h = scale(h, 0.5)
    return reduce("mean", h)


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(5):
        point = Tensor(rng.uniform(-2, 2, (3, 4)))
        assert grad_check(_random_composite, point, step=1e-5, tol=1e-4).passed


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: (x + Tensor(np.full((3, 4), 0.5))).sum(),
        lambda x: (x - scale(x, 0.25)).mean(),
        lambda x: (x * x).sum(),
        lambda x: exp(x).mean(),
        lambda x: relu(x).sum(),
        lambda x: neg(x).mean(),
        lambda x: matmul(x, Tensor(np.arange(12.0).reshape(4, 3))).sum(),
        lambda x: (matmul(Tensor(np.arange(6.0).reshape(2, 3) - 2.0), x)
                   * matmul(Tensor(np.ones((2, 3))), x)).sum(),
        lambda x: reduce("sum", x, axis=1).mean(),
        lambda x: reduce("mean", x, axis=0).sum(),
        lambda x: (log_softmax(x) * log_softmax(x)).mean(),
        lambda x: matmul(transpose(x), x).sum(),
        lambda x: (take(x, slice(1, 3)) * Tensor(np.arange(8.0).reshape(2, 4))).sum(),
        lambda x: (take(x, np.array([2, 0, 2])) * Tensor(np.arange(12.0).reshape(3, 4))).sum(),
    ],
    ids=[
        "add", "sub", "mul", "exp", "relu", "neg",
        "matmul", "matmul_right", "sum_axis", "mean_axis", "log_softmax",
        "transpose", "take_slice", "take_gather",
    ],
)
def test_every_op_matches_finite_differences(fn):
    rng = np.random.default_rng(41)
    for _ in range(3):
        point = Tensor(rng.uniform(-2, 2, (3, 4)))
        report = grad_check(fn, point, step=1e-5, tol=1e-4)
        assert report.passed, str(report)


def test_grad_check_linear_function_near_exact():
    report = grad_check(lambda x: x.sum(), Tensor(np.array([1.0, -2.0, 3.0])))
    assert report.max_rel_error < 1e-9
    assert report.passed


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda x: x * x, Tensor(np.ones(3)))


def test_grad_check_report_fields():
    report = grad_check(lambda x: (x * x).sum(), Tensor(np.array([1.0, 2.0])))
    assert report.analytic.shape == (2,)
    assert report.numeric.shape == (2,)
    assert "PASS" in str(report)


def test_public_ops_are_exactly_what_nets_and_losses_import():
    # the engine entry points are not ops; every other public function is
    engine = {"backward", "grad_check"}
    public = {name for name, obj in vars(tensor).items()
              if inspect.isfunction(obj) and obj.__module__ == tensor.__name__
              and not name.startswith("_")} - engine
    imported = set()
    for module in (nets, losses):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "pbmatch.tensor"):
                imported |= {alias.name for alias in node.names}
    assert public == {name for name in imported if inspect.isfunction(getattr(tensor, name))}
