"""The tape engine (backward, grad_check) driven through the per-op oracles
of oracles.py, and those oracle ops themselves; the library records only
closed-form nodes."""

import ast
import inspect

import numpy as np
import pytest

from pbmatch import gradcheck, losses, nets, tensor
from pbmatch.tensor import Tensor, backward, grad_check, node

from oracles import add, dot, matmul, relu


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
        point = Tensor(rng.uniform(-2, 2, (3, 4)))
        assert grad_check(_random_composite, point, step=1e-5, tol=1e-4).passed


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
        point = Tensor(rng.uniform(-2, 2, (3, 4)))
        report = grad_check(fn, point, step=1e-5, tol=1e-4)
        assert report.passed, str(report)


def test_grad_check_linear_function_near_exact():
    report = grad_check(lambda x: dot(x, np.ones(3)), Tensor(np.array([1.0, -2.0, 3.0])))
    assert report.max_rel_error < 1e-9
    assert report.passed


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda x: add(x, x), Tensor(np.ones(3)))


def test_grad_check_report_fields():
    report = grad_check(lambda x: dot(relu(x), [2.0, 3.0]), Tensor(np.array([1.0, 2.0])))
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


def _called_names(tree) -> set:
    """Names of every function that ``tree`` calls, by name or attribute."""
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))}


def _public_functions(module) -> list:
    """Public top-level function definitions of ``module``."""
    return [f for f in ast.parse(inspect.getsource(module)).body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def _node_recorders(module) -> set:
    """Public top-level functions of ``module`` that record a tape node."""
    return {f.name for f in _public_functions(module) if "node" in _called_names(f)}


def test_every_node_recorder_in_nets_and_losses_has_a_gradcheck_builder():
    recorders = _node_recorders(nets) | _node_recorders(losses)
    # the trunk, a head and the objective are the only tape nodes
    assert recorders == {"features", "forward", "total_objective"}
    # every other public function of losses is a closed-form term over arrays
    terms = {f.name: f for f in _public_functions(losses)
             if f.name not in recorders}
    assert set(terms) == {"cross_entropy", "mim_loss", "cpbm_loss", "mupbm_loss",
                          "tpbm_loss", "mmd_distance", "coral_distance"}
    for f in terms.values():
        signature = ast.unparse(f.args) + (ast.unparse(f.returns) if f.returns else "")
        assert "Tensor" not in signature, f.name
    builders = {build.__name__ for build in gradcheck.CHECKS.values()}
    checked = set()
    for f in ast.parse(inspect.getsource(gradcheck)).body:
        if isinstance(f, ast.FunctionDef) and f.name in builders:
            checked |= _called_names(f)
    assert (recorders | set(terms)) - checked == set()
