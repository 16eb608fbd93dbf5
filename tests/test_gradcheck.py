"""grad_check, the gradient sweep's arguments, and the rule that every
public function returning a gradient has a gradcheck builder."""

import ast
import inspect
import math

import numpy as np
import pytest

from pbmatch import gradcheck, losses, nets
from pbmatch.gradcheck import grad_check, run_gradient_suite


def test_grad_check_linear_function_near_exact():
    report = grad_check(lambda x: (float(x.sum()), np.ones(3)), np.array([1.0, -2.0, 3.0]))
    assert report.max_rel_error < 1e-9
    assert report.passed


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda x: (x + x, np.ones(3)), np.ones(3))


def test_grad_check_rejects_a_gradient_of_another_shape():
    with pytest.raises(ValueError, match="gradient shape"):
        grad_check(lambda x: (float(x.sum()), np.ones(2)), np.ones(3))


def test_grad_check_report_fields():
    w = np.array([2.0, 3.0])
    report = grad_check(lambda x: (float(np.maximum(x, 0.0) @ w), w * (x > 0)),
                        np.array([1.0, 2.0]))
    assert report.analytic.shape == (2,)
    assert report.numeric.shape == (2,)
    assert "PASS" in str(report)


def test_grad_check_leaves_the_point_alone():
    point = np.array([1.0, -2.0])
    grad_check(lambda x: (float(x @ x), 2.0 * x), point)
    assert np.array_equal(point, [1.0, -2.0])


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_gradient_suite_rejects_an_unusable_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        run_gradient_suite(tol=tol, instances=1, names=["term.coral"])


def test_a_nan_error_in_any_instance_fails_the_check(monkeypatch):
    def build(rng, i):
        # the second instance's analytic gradient is NaN
        return (lambda x: (float(x.sum()), np.full_like(x, np.nan if i else 1.0))), np.ones(2)

    monkeypatch.setitem(gradcheck.CHECKS, "nan_second", build)
    [result] = run_gradient_suite(instances=2, names=["nan_second"])
    assert math.isnan(result.max_rel_error) and not result.passed


def _called_names(tree) -> set:
    """Names of every function that ``tree`` calls, by name or attribute."""
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))}


def _public_functions(module) -> list:
    """Public top-level function definitions of ``module``."""
    return [f for f in ast.parse(inspect.getsource(module)).body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def _returns_gradient(f) -> bool:
    # a term returns (value, gradient); a rule returns a list of gradients
    ret = ast.unparse(f.returns) if f.returns else ""
    return ret.startswith("Tuple[float") or ret in ("List[Pair]", "List[Optional[np.ndarray]]")


def test_every_gradient_in_nets_and_losses_has_a_gradcheck_builder():
    returns_gradient = {f.name for module in (nets, losses) for f in _public_functions(module)
                        if _returns_gradient(f)}
    # the trunk rule, the objective's rule and the seven closed-form terms
    assert returns_gradient == {"trunk_grads", "backward", "cross_entropy", "mim_loss",
                                "cpbm_loss", "mupbm_loss", "tpbm_loss", "mmd_distance",
                                "coral_distance"}
    builders = {build.__name__ for build in gradcheck.CHECKS.values()}
    checked = set()
    for f in ast.parse(inspect.getsource(gradcheck)).body:
        if isinstance(f, ast.FunctionDef) and f.name in builders:
            checked |= _called_names(f)
    assert returns_gradient - checked == set()
