"""Synthetic domain generators: determinism, balance, and disk round-trips."""

import ast
import dataclasses
import gc
import inspect
import itertools
import json
import math
import os
import typing
from collections import abc
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np
import pytest

import pbmatch
from pbmatch.datasets import (
    CANVAS,
    INK_LEVEL,
    OUTLIER_LABEL,
    DatasetMeta,
    DomainDataset,
    GlyphDomainSpec,
    _want,
    checked,
    checked_object,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_domain,
    generate_glyph_pair,
    load_dataset,
    outlier_pool,
    regenerate,
    save_dataset,
)
from pbmatch.benchmarks import BenchmarkSpec
from pbmatch.cli import _load_json
from pbmatch.losses import LossConfig, backward
from pbmatch.nets import CheckpointHeader, OptimState, init_params, predict_logits, step
from pbmatch.training import TrainConfig, ablation_suite, lds_failure_probe

from oracles import head_objective, oracle_glyph_domain, traced_peak


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"n_classes": 1},
    {"n_classes": 7},
    {"sub_styles": 0},
    {"sub_styles": 5},
    {"samples_per_class": 0},
    {"stroke_thickness": 0},
    {"stroke_thickness": 4},
    {"background": -0.01},
    {"background": 0.51},
    {"noise": -0.01},
    {"noise": 0.31},
    {"jitter": -1.0},
    {"jitter": 3.5},
])
def test_spec_rejects_out_of_range_knobs(kwargs):
    with pytest.raises(ValueError):
        GlyphDomainSpec(**kwargs)


@pytest.mark.parametrize("build", [
    lambda seed: GlyphDomainSpec(seed=seed),
    lambda seed: TrainConfig(seed_data=seed),
    lambda seed: BenchmarkSpec(kind="LDS", seed=seed),
], ids=["glyph_spec", "train_config", "benchmark_spec"])
@pytest.mark.parametrize("seed", [-1, 2**32])
def test_a_seed_past_32_bits_is_refused_not_aliased(build, seed):
    # a stream keeps its seed's low 32 bits: seed -1 rendered the bytes of
    # 2**32 - 1, and 2**32 trained the run of 0
    with pytest.raises(ValueError, match=rf"seed\w* must be an integer in \[0, 4294967295\], "
                                         rf"got {seed}"):
        build(seed)


def test_spec_dict_round_trip():
    spec = GlyphDomainSpec(n_classes=5, sub_styles=3, samples_per_class=7,
                           stroke_thickness=2, background=0.3, invert=True,
                           noise=0.2, jitter=2.0, seed=99)
    assert checked_object(GlyphDomainSpec, dataclasses.asdict(spec), "glyph spec") == spec


@pytest.mark.parametrize("payload,msg", [
    ([4, 2], "glyph spec must be an object"),
    ({"n_classes": 4, "bogus": 1}, "bogus"),
    ({"n_classes": "4"}, "'n_classes'"),
    ({"noise": "0.1"}, "'noise'"),
], ids=["not_object", "unknown_key", "int_str", "float_str"])
def test_spec_read_from_json_names_the_bad_field(payload, msg):
    with pytest.raises(ValueError, match=msg):
        checked_object(GlyphDomainSpec, payload, "glyph spec")


# ---------------------------------------------------------------------------
# the JSON boundary
# ---------------------------------------------------------------------------

# every dataclass and function a JSON config, spec or file header is read into
JSON_TARGETS = [GlyphDomainSpec, TrainConfig, LossConfig, BenchmarkSpec, default_pair_specs,
                generate_glyph_pair, generate_blob_pair, ablation_suite, lds_failure_probe,
                CheckpointHeader, DatasetMeta]


@pytest.mark.parametrize("target", JSON_TARGETS, ids=lambda t: t.__name__)
def test_checked_can_check_every_hint_a_json_reader_feeds(target):
    # a field whose hint checked cannot check would pass a JSON value unchecked
    hints = typing.get_type_hints(target, include_extras=True)
    params = [p for p in inspect.signature(target).parameters.values()
              if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert params
    for p in params:
        assert _want(hints[p.name]), p.name


# one valid JSON object per target; every case below changes one key of it
_MINIMAL = {
    GlyphDomainSpec: {}, TrainConfig: {}, LossConfig: {}, BenchmarkSpec: {"kind": "LDS"},
    default_pair_specs: {}, generate_glyph_pair: {"source": {}, "target": {}},
    generate_blob_pair: {"k": 2, "source_priors": [0.5, 0.5], "target_priors": [0.7, 0.3],
                         "means": [[-2, 0], [2, 0]], "spread": 0.5, "n": 40, "seed": 0},
    ablation_suite: {"base_cfg": {}, "benchmarks": [{"kind": "LDS"}]},
    lds_failure_probe: {"priors_src": [0.5, 0.5], "priors_tgt": [0.7, 0.3]},
    CheckpointHeader: {"layer_spec": [2, 2], "seed": 0, "tasks": ["vflip"], "step_count": 0},
    DatasetMeta: {"kind": "points", "shape": [0, 2], "class_count": 2, "domain_role": "source",
                  "n": 0},
}
# values no field takes (JSON spells the infinities 1e999 and -1e999, and has
# no NaN), then values that only a bool or a string field takes
_NON_FINITE = [float("nan"), float("inf"), -float("inf")]
_OTHER_TYPES = [True, "text"]


def _leaf(hint, like=None):
    """The first scalar or object hint inside ``hint``, and a function that
    places a value there: in an Optional's first choice, or at every place
    of a list, a list of any length having as many places as ``like``, the
    field's value in the minimal object, or else one."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return _leaf(args[0], like)
    if origin in (abc.Sequence, tuple):
        leaf, wrap = _leaf(args[0], like[0] if like else None)
        variadic = origin is abc.Sequence or args[1:] == (...,)
        n = (len(like) if like else 1) if variadic else len(args)
        return leaf, lambda v: [wrap(v)] * n
    return hint, lambda v: v


def _rule_values(hint):
    """Each edge of a leaf hint's rule and one step either side of it, or
    each value of a Literal and one more."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return [*args, "none of these"]
    if origin is not typing.Annotated:
        return []
    base, rule = args
    edges = [rule.low] + ([] if rule.high is None else [rule.high])
    if base is int:
        return [e + step for e in edges for step in (-1, 0, 1)]
    return [v for e in map(float, edges)
            for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]


@pytest.mark.parametrize("target", JSON_TARGETS, ids=lambda t: t.__name__)
def test_every_json_field_takes_what_its_rule_allows_or_refuses_it_by_name(target, tmp_path):
    # every value derived from a field's rule, read as a config file is: it
    # is accepted, or refused with a ValueError naming its key
    assert set(_MINIMAL) == set(JSON_TARGETS)
    hints = typing.get_type_hints(target, include_extras=True)
    path = tmp_path / "in.json"
    for name, p in inspect.signature(target).parameters.items():
        if p.kind is not p.POSITIONAL_OR_KEYWORD:
            continue
        leaf, wrap = _leaf(hints[name], _MINIMAL[target].get(name))
        ruled = _rule_values(leaf)
        outcomes = {}
        junk = _NON_FINITE + _OTHER_TYPES
        for value in [*junk, *map(wrap, junk + ruled)]:
            payload = {**_MINIMAL[target], name: value}
            path.write_text(json.dumps(payload).replace("Infinity", "1e999"))
            try:
                d = _load_json(path, "config")
            except ValueError as e:
                assert "holds NaN, which is not JSON" in str(e)
                d = payload
            try:
                kwargs = checked(target, d, "config")
                if dataclasses.is_dataclass(target):
                    target(**kwargs)
                outcomes[repr(value)] = True
            except ValueError as e:
                assert f"field '{name}'" in str(e) or str(e).startswith(f"{name} "), (
                    target.__name__, name, value, str(e))
                outcomes[repr(value)] = False
        assert not any(outcomes[repr(v)] or outcomes[repr(wrap(v))] for v in _NON_FINITE), (
            target.__name__, name)
        if ruled:
            # a rule both takes and refuses some of its edge values
            assert {outcomes[repr(wrap(v))] for v in ruled} == {True, False}, (
                target.__name__, name)


def test_only_the_strict_parser_reads_json():
    # nets.load_checkpoint once parsed its header with json.loads, which
    # takes NaN and Infinity; every file is read through parse_json
    sources = {path.name: path.read_text() for path in Path(pbmatch.__file__).parent.glob("*.py")}
    assert _json_read_sites(sources) == [("datasets.py", "parse_json")]


@pytest.mark.parametrize("source", [
    "def load_checkpoint(path):\n    return json.loads(line.decode('utf-8'))\n",
    "def load_checkpoint(f):\n    return json.load(f)\n",
    "from json import loads\n",
], ids=["loads", "load", "imported"])
def test_the_parser_guard_flags_a_stray_json_read(source):
    assert _json_read_sites({"nets.py": source}) != []


def test_no_class_keeps_its_own_json_codec():
    # checked_object reads every JSON-fed dataclass and dataclasses.asdict writes it
    sources = {path.name: path.read_text() for path in Path(pbmatch.__file__).parent.glob("*.py")}
    assert _codec_methods(sources) == []


def test_the_codec_guard_flags_a_from_dict():
    source = "class Spec:\n    @classmethod\n    def from_dict(cls, d):\n        return cls(**d)\n"
    assert _codec_methods({"x.py": source}) == [("x.py", "Spec", "from_dict")]


def _codec_methods(sources):
    """(module, class, method) of every ``from_dict`` or ``to_dict`` a class defines."""
    return [(module, node.name, item.name) for module in sorted(sources)
            for node in ast.walk(ast.parse(sources[module])) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name in ("from_dict", "to_dict")]


# one JSON object per dataclass target that sets its fields away from their defaults
_FULL = {
    GlyphDomainSpec: {"n_classes": 5, "sub_styles": 3, "samples_per_class": 7,
                      "stroke_thickness": 2, "background": 0.3, "invert": True, "noise": 0.2,
                      "jitter": 2, "seed": 99},
    TrainConfig: {"method": "instapbm", "epochs": 3, "batch": 8, "lr": 0.01, "momentum": 0.5,
                  "loss": {"entropy_ceiling": 1, "lambda_M": 0.5, "mixup_alpha": 0.3},
                  "dm_weight": 2, "dm_ramp_steps": 4, "hidden": [8, 4], "seed_model": 5,
                  "seed_data": 4294967295, "eval_fraction": 0.25,
                  "initial_marginal": [0.25, 3]},
    LossConfig: {"entropy_ceiling": 0.7, "lambda_C": 2, "marginal_momentum": 0.3},
    BenchmarkSpec: {"kind": "LDS", "imbalance_factor": 9, "class_order": [1, 0, 3, 2],
                    "seed": 5},
    CheckpointHeader: {"layer_spec": [6, 4, 2], "seed": 7, "tasks": ["vflip", "rotate90"],
                       "step_count": 12},
    DatasetMeta: {"kind": "images", "shape": [3, 4, 4], "class_count": 2,
                  "domain_role": "target", "n": 3, "has_sublabels": True,
                  "metadata": {"generator": "glyph", "spec": {"seed": 1}}},
}


def _as_python_caller(hint, v):
    """The JSON value ``v`` as a Python caller may pass it for ``hint``: an
    int as a numpy int, a float as a float32, a list of numbers as an array,
    an object for a dataclass as that dataclass, a free-form object as it is."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        return _as_python_caller(args[0], v)
    if origin is Union:
        return _as_python_caller(next(h for h in args if h is not type(None)), v)
    if dataclasses.is_dataclass(hint):
        kinds = typing.get_type_hints(hint, include_extras=True)
        return hint(**{k: _as_python_caller(kinds[k], x) for k, x in v.items()})
    if isinstance(v, bool) or isinstance(v, str) or hint is dict:
        return v
    if isinstance(v, int):
        return np.int64(v)
    if isinstance(v, float):
        return np.float32(v)
    if isinstance(v, dict):
        return {np.int64(k): np.int64(x) for k, x in v.items()}
    if all(isinstance(x, (int, float)) for x in v):
        return np.array(v)
    return [_as_python_caller(args[0], x) for x in v]


@pytest.mark.parametrize("target", list(_FULL), ids=lambda t: t.__name__)
def test_a_dataclass_built_from_numpy_values_is_written_and_read_back_equal(target):
    # check_fields stores each field's JSON form, so asdict of the object is JSON
    assert set(_FULL) == {t for t in JSON_TARGETS if dataclasses.is_dataclass(t)}
    obj = _as_python_caller(target, _FULL[target])
    text = json.dumps(dataclasses.asdict(obj))
    assert checked_object(target, json.loads(text), "config") == obj


def _json_read_sites(sources):
    """(module, innermost function) of every use of ``json.load`` or
    ``json.loads``, and of every import of either, in ``sources``, by
    module name."""
    sites = []

    class Sites(ast.NodeVisitor):
        scope = None

        def visit_FunctionDef(self, node):
            outer, self.scope = self.scope, node.name
            self.generic_visit(node)
            self.scope = outer

        def visit_Attribute(self, node):
            if (node.attr in ("load", "loads") and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                sites.append((module, self.scope))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module == "json" and {a.name for a in node.names} & {"load", "loads"}:
                sites.append((module, self.scope))

    for module in sorted(sources):
        Sites().visit(ast.parse(sources[module]))
    return sites


def test_checking_a_union_field_leaves_no_garbage_cycle():
    # a kept _Misfit's traceback holds the checking frames, and through them
    # the callers' frames and arrays, until the cyclic collector runs; and
    # configs are checked at every run's start
    gc.collect()
    gc.disable()
    try:
        BenchmarkSpec(kind="LDS")
        checked_object(BenchmarkSpec, {"kind": "LDS", "class_order": "random"}, "benchmark spec")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reader(a: int, b: float = 0.5, c: bool = False, d: str = "x",
            e: Optional[Tuple[int, ...]] = None, f: Sequence[Sequence[float]] = ((0.0,),),
            g: Sequence[Tuple[str, str]] = (("a", "b"),), h: Optional[Dict[int, int]] = None,
            i: Union[Sequence[int], str] = "all", j: Optional[LossConfig] = None, *,
            hook: Optional[Callable[[], None]] = None):
    pass


def test_checked_converts_what_fits():
    got = checked(_reader, {"a": 3, "b": 1, "c": True, "e": [1, 2], "f": [[1, 2.5]],
                            "g": [["x", "y"]], "h": {"-1": 2, "3": 4}, "i": [0],
                            "j": {"entropy_ceiling": 0.5}}, "reader")
    assert got == {"a": 3, "b": 1, "c": True, "e": (1, 2), "f": ((1, 2.5),),
                   "g": (("x", "y"),), "h": {-1: 2, 3: 4}, "i": (0,),
                   "j": LossConfig(entropy_ceiling=0.5)}
    assert checked(_reader, {"a": 1, "e": None, "h": None, "i": "all"}, "reader") == {
        "a": 1, "e": None, "h": None, "i": "all"}


@pytest.mark.parametrize("payload,msg", [
    ({"a": 2.0}, "reader field 'a' must be an integer, got 2.0"),
    ({"a": True}, "reader field 'a' must be an integer, got True"),
    ({"a": 1, "b": False}, "reader field 'b' must be a finite number, got False"),
    ({"a": 1, "b": 2**53 + 1}, "reader field 'b' must be a finite number, got 9007199254740993"),
    ({"a": 1, "c": 1}, "reader field 'c' must be true or false, got 1"),
    ({"a": 1, "c": "no"}, "reader field 'c' must be true or false, got 'no'"),
    ({"a": 1, "d": None}, "reader field 'd' must be a string, got None"),
    ({"a": 1, "e": []}, r"reader field 'e' must be a list of integers \(not empty\) or null"),
    ({"a": 1, "e": [1, 2.5]}, r"field 'e' holds 2.5, but e must be a list of integers"),
    ({"a": 1, "f": [[]]}, r"field 'f' holds \[\], but f must be a list of lists of finite numbers"),
    ({"a": 1, "g": [["x"]]}, r"field 'g' holds \['x'\], but g must be a list of lists of 2"),
    ({"a": 1, "h": {"1.5": 0}}, "field 'h' holds '1.5', but h must be an object mapping "
                                "integers to integers or null"),
    ({"a": 1, "h": {"1": "0"}}, "field 'h' holds '0'"),
    ({"a": 1, "i": "all", "j": 3}, "reader field 'j' must be a LossConfig object or null, got 3"),
    ({"a": 1, "i": 3}, r"field 'i' must be a list of integers \(not empty\) or a string"),
    ({"a": 1, "hook": None}, r"unknown reader keys: \['hook'\]"),
    ({"b": 1.0}, r"reader is missing required keys: \['a'\]"),
    ([1], "reader must be an object, got list"),
], ids=["int_float", "int_bool", "float_bool", "float_inexact_int", "bool_int", "bool_str",
        "str_null", "list_empty", "list_item", "nested_empty", "pair_short", "key_not_int",
        "value_not_int", "dataclass_not_object", "union", "keyword_only", "missing",
        "not_object"])
def test_checked_names_the_field_and_the_rule(payload, msg):
    with pytest.raises(ValueError, match=msg):
        checked(_reader, payload, "reader")


def test_checked_raises_on_a_hint_it_cannot_check_whatever_the_value():
    def reader(a: int = 0, hook: Optional[Callable[[], None]] = None):
        pass

    for payload in ({}, {"a": 1}):
        with pytest.raises(TypeError, match="no JSON check for the type hint"):
            checked(reader, payload, "reader")
    with pytest.raises(TypeError):
        _want(np.ndarray)


@pytest.mark.parametrize("build,msg", [
    (lambda: TrainConfig(hidden=(4.7, True)), "hidden must be a list of integers"),
    (lambda: TrainConfig(hidden=5), "hidden must be a list of integers"),
    (lambda: TrainConfig(batch=2.5), "batch must be an integer"),
    (lambda: TrainConfig(epochs=True), "epochs must be an integer"),
    (lambda: TrainConfig(seed_model=1.5), "seed_model must be an integer"),
    (lambda: TrainConfig(lr="0.1"), "lr must be a finite number"),
    (lambda: TrainConfig(initial_marginal=(True, False)), "initial_marginal must be a list of"),
    (lambda: TrainConfig(initial_marginal=("0.5", "0.5")), "initial_marginal must be a list of"),
    (lambda: BenchmarkSpec(kind="LDS", imbalance_factor=True),
     "imbalance_factor must be a finite number"),
    (lambda: BenchmarkSpec(kind="LDS", seed=1.5), "seed must be an integer"),
    (lambda: BenchmarkSpec(kind="LDS", class_order=(1.7, 0.2, 2.9, 3.5)),
     "class_order must be a list of integers"),
    (lambda: BenchmarkSpec(kind="LDS", class_order=5), "class_order must be a list of integers"),
    (lambda: LossConfig(entropy_ceiling=1.0, lambda_M=True), "lambda_M must be a finite number"),
    (lambda: GlyphDomainSpec(invert="no"), "invert must be true or false"),
    (lambda: GlyphDomainSpec(samples_per_class=7.5), "samples_per_class must be an integer"),
    (lambda: TrainConfig(loss={"entropy_ceiling": 1.0}),
     "loss must be a LossConfig object or null"),
    # the optimizer took these, though a TrainConfig refuses each
    (lambda: OptimState(lr=-1.0), "lr must be a finite number > 0, got -1.0"),
    (lambda: OptimState(lr=float("nan")), "lr must be a finite number > 0, got nan"),
    (lambda: OptimState(lr=True), "lr must be a finite number > 0, got True"),
    (lambda: OptimState(momentum=5.0), r"momentum must be a finite number in \[0, 1\), got 5.0"),
], ids=["hidden_float_bool", "hidden_not_list", "batch_float", "epochs_bool", "seed_float",
        "lr_str", "marginal_bool", "marginal_str", "imbalance_bool", "spec_seed_float", "order_float", "order_int", "loss_bool", "invert_str",
        "samples_float", "loss_dict", "optim_lr_negative", "optim_lr_nan", "optim_lr_bool",
        "optim_momentum_past_1"])
def test_a_python_built_config_is_checked_not_coerced(build, msg):
    # int() once turned (4.7, True) into (4, 1), and the rest were stored as given
    with pytest.raises(ValueError, match=msg):
        build()


def test_a_python_built_config_takes_lists_and_numpy_numbers():
    cfg = TrainConfig(hidden=[np.int64(8), 4], epochs=np.int32(3), lr=np.float32(0.5),
                      dm_weight=2, initial_marginal=[np.float32(0.25), 3])
    assert cfg.hidden == (8, 4) and all(type(h) is int for h in cfg.hidden)
    # each field holds its JSON form: Python numbers, a float field's int as a float
    assert cfg.initial_marginal == (0.25, 3.0)
    assert [type(v) for v in cfg.initial_marginal] == [float, float]
    assert (cfg.epochs, cfg.lr, cfg.dm_weight) == (3, 0.5, 2.0)
    assert (type(cfg.epochs), type(cfg.lr), type(cfg.dm_weight)) == (int, float, float)
    spec = BenchmarkSpec(kind="LDS", imbalance_factor=np.int64(3), seed=np.uint8(2),
                         class_order=np.array([1, 0]))
    assert spec.imbalance_factor == 3.0 and type(spec.imbalance_factor) is float
    assert spec.seed == 2 and type(spec.seed) is int
    assert spec.class_order == (1, 0) and all(type(c) is int for c in spec.class_order)


# ---------------------------------------------------------------------------
# glyph generation
# ---------------------------------------------------------------------------

def test_glyph_domain_shapes_and_ranges():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=25, seed=3)
    ds = generate_glyph_domain(spec, "source")
    assert ds.is_image
    assert ds.images.shape == (100, CANVAS, CANVAS)
    assert ds.n_samples == 100
    assert ds.class_count == 4
    assert ds.domain_role == "source"
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_glyph_domain_exact_label_histogram():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=100, seed=0)
    ds = generate_glyph_domain(spec, "source")
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.tolist() == [100, 100, 100, 100]


def test_glyph_domain_sub_style_balance():
    spec = GlyphDomainSpec(n_classes=3, sub_styles=2, samples_per_class=50, seed=1)
    ds = generate_glyph_domain(spec, "target")
    sub_counts = np.bincount(ds.sublabels, minlength=6)
    assert sub_counts.tolist() == [25] * 6


def test_glyph_sublabels_nest_inside_labels():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=3, samples_per_class=30, seed=5)
    ds = generate_glyph_domain(spec, "source")
    assert np.array_equal(ds.sublabels // 3, ds.labels)


def test_glyph_domain_deterministic():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=20, seed=11)
    a = generate_glyph_domain(spec, "source")
    b = generate_glyph_domain(spec, "source")
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.sublabels, b.sublabels)


def test_glyph_domain_seed_changes_pixels():
    base = dict(n_classes=4, sub_styles=2, samples_per_class=20)
    a = generate_glyph_domain(GlyphDomainSpec(seed=11, **base), "source")
    b = generate_glyph_domain(GlyphDomainSpec(seed=12, **base), "source")
    assert not np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)  # layout is class-major either way


def test_glyph_regenerates_bit_identically_from_metadata():
    spec = GlyphDomainSpec(n_classes=5, sub_styles=3, samples_per_class=8,
                           stroke_thickness=2, background=0.2, noise=0.1,
                           jitter=2.0, seed=42)
    ds = generate_glyph_domain(spec, "target")
    rebuilt = regenerate(ds.metadata)
    assert np.array_equal(ds.images, rebuilt.images)
    assert np.array_equal(ds.labels, rebuilt.labels)
    assert np.array_equal(ds.sublabels, rebuilt.sublabels)
    assert rebuilt.domain_role == "target"


# n_classes, noise and jitter set how many streams there are and what each
# draws; the jitters round to 0, 0, 2 and 3 pixels
_DRAW_KNOBS = list(itertools.product((2, 6), (0.0, 0.3), (0.0, 0.4, 2.5, 3.0)))
# sub_styles, stroke_thickness and invert set only the rendered levels
_RENDER_KNOBS = list(itertools.product((1, 4), (1, 3), (False, True)))


def _oracle_grid(samples_per_class):
    """Every knob combination; at 250 per class, every draw combination
    once, with the render combinations taken in turn (each twice)."""
    if samples_per_class < 250:
        return itertools.product(_DRAW_KNOBS, _RENDER_KNOBS)
    return zip(_DRAW_KNOBS, itertools.cycle(_RENDER_KNOBS))


@pytest.mark.parametrize("samples_per_class", [1, 7, 250])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32 - 5])
def test_glyph_domain_equals_the_per_sample_oracle_byte_for_byte(samples_per_class, seed):
    for (k, noise, jitter), (s, thickness, invert) in _oracle_grid(samples_per_class):
        spec = GlyphDomainSpec(n_classes=k, sub_styles=s, samples_per_class=samples_per_class,
                               stroke_thickness=thickness, background=0.15, invert=invert,
                               noise=noise, jitter=jitter, seed=seed)
        got = generate_glyph_domain(spec, "target")
        want = oracle_glyph_domain(spec, "target")
        assert np.array_equal(got.images.view(np.uint64),
                              want.images.view(np.uint64)), spec
        assert np.array_equal(got.labels, want.labels), spec
        assert np.array_equal(got.sublabels, want.sublabels), spec
        assert got.metadata == want.metadata, spec


def test_glyph_pixels_survive_f32_quantization():
    spec = GlyphDomainSpec(samples_per_class=10, noise=0.1, seed=7)
    ds = generate_glyph_domain(spec, "source")
    raw = ds.images
    assert np.array_equal(raw, raw.astype(np.float32).astype(np.float64))


def test_glyph_classes_are_distinct_templates():
    spec = GlyphDomainSpec(n_classes=6, sub_styles=1, samples_per_class=1,
                           background=0.0, noise=0.0, jitter=0.0, seed=0)
    ds = generate_glyph_domain(spec, "source")
    imgs = ds.images
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(imgs[i], imgs[j])


def test_glyph_invert_flips_intensities():
    base = dict(n_classes=4, sub_styles=1, samples_per_class=5,
                background=0.1, noise=0.0, jitter=0.0, seed=0)
    plain = generate_glyph_domain(GlyphDomainSpec(invert=False, **base), "source")
    flipped = generate_glyph_domain(GlyphDomainSpec(invert=True, **base), "source")
    assert np.allclose(plain.images + flipped.images, 1.0, atol=1e-6)


def test_glyph_zero_noise_zero_jitter_is_two_level():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=1, samples_per_class=3,
                           background=0.2, noise=0.0, jitter=0.0, seed=0)
    ds = generate_glyph_domain(spec, "source")
    values = np.unique(ds.images)
    assert set(np.round(values, 6).tolist()) <= {0.2, round(INK_LEVEL, 6)}


def test_glyph_pair_requires_matching_shape_knobs():
    a = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=5)
    b = GlyphDomainSpec(n_classes=3, sub_styles=2, samples_per_class=5)
    with pytest.raises(ValueError, match="class counts differ"):
        generate_glyph_pair(a, b)
    c = GlyphDomainSpec(n_classes=4, sub_styles=1, samples_per_class=5)
    with pytest.raises(ValueError, match="sub-style counts differ"):
        generate_glyph_pair(a, c)


def test_default_pair_specs_builds_a_shifted_pair():
    src_spec, tgt_spec = default_pair_specs(samples_per_class=10, seed=4)
    src, tgt = generate_glyph_pair(src_spec, tgt_spec)
    assert src.domain_role == "source" and tgt.domain_role == "target"
    assert src.n_samples == tgt.n_samples == 40
    assert src_spec.stroke_thickness != tgt_spec.stroke_thickness
    assert not np.array_equal(src.images, tgt.images)


# ---------------------------------------------------------------------------
# container semantics
# ---------------------------------------------------------------------------

def _tiny_dataset():
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=6, seed=2)
    return generate_glyph_domain(spec, "source")


def test_dataset_rejects_unknown_role():
    ds = _tiny_dataset()
    with pytest.raises(ValueError, match="domain_role"):
        DomainDataset(images=ds.images, labels=ds.labels, class_count=4,
                      domain_role="middle")


def test_dataset_rejects_out_of_range_labels():
    ds = _tiny_dataset()
    bad = ds.labels.copy()
    bad[0] = 4
    with pytest.raises(ValueError, match="labels must lie"):
        DomainDataset(images=ds.images, labels=bad, class_count=4,
                      domain_role="source")
    bad[0] = -2
    with pytest.raises(ValueError, match="labels must lie"):
        DomainDataset(images=ds.images, labels=bad, class_count=4,
                      domain_role="source")


def test_dataset_rejects_labels_of_another_length():
    with pytest.raises(ValueError, match=r"labels shape \(2,\) does not match 3 samples"):
        DomainDataset(images=np.zeros((3, 4, 4)), labels=[0, 1], class_count=2,
                      domain_role="source")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_points(bad):
    src, _ = generate_blob_pair(2, (0.5, 0.5), (0.5, 0.5), ((-2, 0), (2, 0)),
                                0.5, 20, seed=0)
    points = src.images.copy()
    points[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        DomainDataset(images=points, labels=src.labels, class_count=2,
                      domain_role="source")


@pytest.mark.parametrize("images,msg", [
    (np.zeros(4), r"\[n, H, W\] images or \[n, d\] points"),
    (np.zeros((4, 4, 4, 1)), r"\[n, H, W\] images or \[n, d\] points"),
    (np.zeros((4, 2, 2)), "at least 4x4"),
    (np.zeros((4, 4, 3)), "at least 4x4"),
    (np.full((4, 4, 4), 1.5), r"\[0, 1\]"),
    (np.full((4, 4, 4), -0.1), r"\[0, 1\]"),
], ids=["rank_1", "rank_4", "2x2", "4x3", "above_1", "below_0"])
def test_dataset_rejects_unusable_images(images, msg):
    with pytest.raises(ValueError, match=msg):
        DomainDataset(images=images, labels=np.zeros(4, dtype=np.int64), class_count=2,
                      domain_role="source")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_images(bad):
    images = np.full((2, 4, 4), 0.5)
    images[1, 2, 3] = bad
    for x in (images, np.full((2, 4, 4), bad)):
        with pytest.raises(ValueError, match="finite"):
            DomainDataset(images=x, labels=[0, 1], class_count=2, domain_role="source")


def test_dataset_accepts_outlier_sentinel():
    ds = _tiny_dataset()
    lab = ds.labels.copy()
    lab[:3] = OUTLIER_LABEL
    out = DomainDataset(images=ds.images, labels=lab, class_count=4,
                        domain_role="target")
    assert (out.labels == OUTLIER_LABEL).sum() == 3


def test_dataset_rejects_misaligned_sublabels():
    ds = _tiny_dataset()
    with pytest.raises(ValueError, match="align"):
        DomainDataset(images=ds.images, labels=ds.labels, class_count=4,
                      domain_role="source", sublabels=ds.sublabels[:-1])


def test_dataset_rejects_sublabel_spanning_two_labels():
    ds = _tiny_dataset()
    bad = ds.sublabels.copy()
    bad[:] = 0  # sublabel 0 now appears under every class
    with pytest.raises(ValueError, match="several labels"):
        DomainDataset(images=ds.images, labels=ds.labels, class_count=4,
                      domain_role="source", sublabels=bad)


def test_take_selects_rows_in_order():
    ds = _tiny_dataset()
    idx = np.array([5, 0, 17])
    sub = ds.take(idx)
    assert sub.n_samples == 3
    assert np.array_equal(sub.images, ds.images[idx])
    assert np.array_equal(sub.labels, ds.labels[idx])
    assert np.array_equal(sub.sublabels, ds.sublabels[idx])
    assert sub.metadata == ds.metadata


def test_x_flat_matches_row_major_reshape():
    ds = _tiny_dataset()
    flat = ds.x_flat()
    assert flat.shape == (ds.n_samples, CANVAS * CANVAS)
    assert np.array_equal(flat, ds.images.reshape(ds.n_samples, -1))


# ---------------------------------------------------------------------------
# blob pairs
# ---------------------------------------------------------------------------

_MEANS = [[-2.0, 0.0], [2.0, 0.0]]


def test_blob_pair_deterministic():
    a = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 400, seed=9)
    b = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 400, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(np.asarray(x.images), np.asarray(y.images))
        assert np.array_equal(x.labels, y.labels)


def test_blob_roles_draw_independent_streams():
    src, tgt = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5], _MEANS, 0.5, 400, seed=9)
    assert not np.array_equal(src.labels, tgt.labels) or \
        not np.array_equal(np.asarray(src.images), np.asarray(tgt.images))


def test_blob_equal_priors_are_near_uniform():
    src, _ = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5], _MEANS, 0.5, 4000, seed=1)
    counts = np.bincount(src.labels, minlength=2)
    tv = 0.5 * np.abs(counts / counts.sum() - 0.5).sum()
    assert tv < 0.05


def test_blob_skewed_priors_show_up_in_counts():
    _, tgt = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 1000, seed=2)
    majority = (tgt.labels == 0).sum()
    # binomial 3-sigma band around 700
    assert abs(majority - 700) < 3 * np.sqrt(1000 * 0.7 * 0.3) + 1


def test_blob_zero_spread_collapses_to_means():
    src, _ = generate_blob_pair(2, [0.5, 0.5], [0.5, 0.5], _MEANS, 0.0, 50, seed=3)
    pts = np.asarray(src.images)
    expected = np.asarray(_MEANS, dtype=np.float64)[src.labels]
    assert np.array_equal(pts, expected.astype(np.float32).astype(np.float64))


def test_blob_regenerates_from_metadata():
    src, tgt = generate_blob_pair(3, [0.2, 0.3, 0.5], [0.5, 0.3, 0.2],
                                  [[0, 0], [3, 0], [0, 3]], 0.4, 300, seed=8)
    for ds in (src, tgt):
        rebuilt = regenerate(ds.metadata)
        assert np.array_equal(np.asarray(ds.images), np.asarray(rebuilt.images))
        assert np.array_equal(ds.labels, rebuilt.labels)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(k=2, source_priors=[0.5, 0.5], target_priors=[0.7, 0.3],
          means=_MEANS, spread=-0.1, n=10, seed=0), "spread"),
    (dict(k=2, source_priors=[0.5, 0.5], target_priors=[0.7, 0.3],
          means=[[0, 0]], spread=0.5, n=10, seed=0), "means"),
    (dict(k=2, source_priors=[0.6, 0.5], target_priors=[0.7, 0.3],
          means=_MEANS, spread=0.5, n=10, seed=0), "source_priors"),
    (dict(k=2, source_priors=[0.5, 0.5], target_priors=[1.2, -0.2],
          means=_MEANS, spread=0.5, n=10, seed=0), "target_priors"),
])
def test_blob_pair_validation_errors(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        generate_blob_pair(**kwargs)


_BLOB_PARAMS = {"K": 2, "priors": [0.5, 0.5], "means": _MEANS, "spread": 0.5, "n": 4, "seed": 0}


@pytest.mark.parametrize("change,msg", [
    ({"priors": [0.6, 0.6]}, r"field 'priors' must be 2 non-negative values summing to 1, "
                             r"got \[0.6, 0.6\]"),
    ({"K": 3}, r"field 'priors' must be 3 non-negative values summing to 1, got \[0.5, 0.5\]"),
    ({"means": [[0, 0]]}, "field 'means' must be 2 2-D points, got 1"),
], ids=["priors_past_1", "priors_short_of_K", "means_short_of_K"])
def test_regenerate_holds_blob_params_to_the_rules_across_them(change, msg):
    # numpy's unnamed ValueError, or an IndexError, once came out of these
    metadata = {"generator": "blob", "domain_role": "source", "params": {**_BLOB_PARAMS, **change}}
    with pytest.raises(ValueError, match="^blob metadata params " + msg):
        regenerate(metadata)


def test_a_blob_pair_of_numpy_numbers_is_saved_and_read_back(tmp_path):
    # the metadata once held the numpy numbers, and json.dumps refused them
    src, tgt = generate_blob_pair(np.int64(2), np.array([0.5, 0.5]), [np.float64(0.7), 0.3],
                                  np.array(_MEANS), np.float32(0.5), n=np.int64(40),
                                  seed=np.uint32(6))
    for ds in (src, tgt):
        save_dataset(ds, tmp_path / ds.domain_role)
        back = load_dataset(tmp_path / ds.domain_role)
        assert back.metadata == json.loads(json.dumps(ds.metadata))
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(regenerate(back.metadata).images, ds.images)


def test_a_glyph_spec_of_numpy_numbers_is_saved_and_read_back(tmp_path):
    ds = generate_glyph_domain(GlyphDomainSpec(samples_per_class=np.int64(3)), "source")
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.metadata == ds.metadata
    assert np.array_equal(back.images, ds.images)


# ---------------------------------------------------------------------------
# outlier pools
# ---------------------------------------------------------------------------

def test_outlier_pool_is_bright_skewed():
    pool = outlier_pool(64, seed=2)
    assert pool.min() >= 0.0 and pool.max() <= 1.0
    assert pool.mean() > 0.6  # mean of 1 - U^2 is 2/3


def test_outlier_pool_deterministic():
    a = outlier_pool(8, seed=5)
    b = outlier_pool(8, seed=5)
    assert np.array_equal(a, b)


def test_outlier_pool_rejects_bad_arguments():
    with pytest.raises(ValueError, match="n >= 1"):
        outlier_pool(0, seed=0)


# ---------------------------------------------------------------------------
# disk format
# ---------------------------------------------------------------------------

def test_glyph_save_load_round_trip(tmp_path):
    spec = GlyphDomainSpec(n_classes=4, sub_styles=2, samples_per_class=7,
                           noise=0.1, seed=21)
    ds = generate_glyph_domain(spec, "target")
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.is_image
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.sublabels, ds.sublabels)
    assert back.class_count == 4 and back.domain_role == "target"
    assert back.metadata == ds.metadata


def test_blob_save_load_round_trip(tmp_path):
    _, tgt = generate_blob_pair(2, [0.5, 0.5], [0.7, 0.3], _MEANS, 0.5, 60, seed=6)
    save_dataset(tgt, tmp_path / "b")
    back = load_dataset(tmp_path / "b")
    assert not back.is_image
    assert np.array_equal(np.asarray(back.images), np.asarray(tgt.images))
    assert np.array_equal(back.labels, tgt.labels)
    assert back.sublabels is None


def test_sentinel_label_survives_unsigned_storage(tmp_path):
    ds = _tiny_dataset()
    lab = ds.labels.copy()
    lab[[0, 5]] = OUTLIER_LABEL
    marked = DomainDataset(images=ds.images, labels=lab, class_count=4,
                           domain_role="target")
    save_dataset(marked, tmp_path / "s")
    back = load_dataset(tmp_path / "s")
    assert np.array_equal(back.labels, lab)
    assert (back.labels == OUTLIER_LABEL).sum() == 2


def test_sentinel_sublabel_survives_unsigned_storage(tmp_path):
    ds = generate_glyph_domain(GlyphDomainSpec(samples_per_class=3), "target")
    lab, sub = ds.labels.copy(), ds.sublabels.copy()
    lab[[1, 4]] = sub[[1, 4]] = OUTLIER_LABEL
    marked = DomainDataset(images=ds.images, labels=lab, class_count=4,
                           domain_role="target", sublabels=sub)
    save_dataset(marked, tmp_path / "s")
    assert np.array_equal(load_dataset(tmp_path / "s").sublabels, sub)


def _saved(tmp_path):
    save_dataset(generate_glyph_domain(GlyphDomainSpec(samples_per_class=3), "target"),
                 tmp_path / "d")
    return tmp_path / "d"


@pytest.mark.parametrize("key", ["kind", "shape", "class_count", "domain_role"])
def test_load_names_a_key_missing_from_meta(tmp_path, key):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    del meta[key]
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"meta\.json is missing required keys: \['{key}'\]"):
        load_dataset(path)


@pytest.mark.parametrize("key,value,msg", [
    ("kind", "voxels", "'kind' must be one of \\('images', 'points'\\), got 'voxels'"),
    ("shape", [12, "16", 16], "'shape' holds '16', but shape must be a list of integers >= 0"),
    ("class_count", "4", "'class_count' must be an integer"),
    ("metadata", 5, "'metadata' must be an object"),
    ("domain_role", "sideways", "'domain_role' must be one of"),
    ("class_count", 2, "labels must lie in"),
    ("has_sublabels", "no", "'has_sublabels' must be true or false, got 'no'"),
], ids=["kind", "shape", "class_count", "metadata", "role", "labels_vs_classes",
        "has_sublabels"])
def test_load_names_the_file_of_a_bad_meta_value(tmp_path, key, value, msg):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta[key] = value
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=msg) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def test_load_reads_a_missing_has_sublabels_as_false(tmp_path):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    del meta["has_sublabels"]
    (path / "meta.json").write_text(json.dumps(meta))
    assert load_dataset(path).sublabels is None


@pytest.mark.parametrize("kind,shape", [("points", (8, 4, 4)), ("images", (8, 16))],
                         ids=["points_3d", "images_2d"])
def test_load_refuses_a_kind_that_disagrees_with_the_rank(tmp_path, kind, shape):
    # a points directory of 3-D shape once loaded, and training then failed
    # on the input width without naming any file
    other = "images" if kind == "points" else "points"
    ds = DomainDataset(images=np.full(shape, 0.5), labels=np.arange(8) % 2,
                       class_count=2, domain_role="target")
    save_dataset(ds, tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["kind"] == other
    meta["kind"] = kind
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"field 'kind' is '{kind}', but field 'shape'") as err:
        load_dataset(tmp_path / "d")
    assert str(meta_path) in str(err.value)


@pytest.mark.parametrize("text,msg", [
    ("{not json", "not valid JSON"),
    ("[1]", "must be an object"),
    # Python's reader takes these tokens, so a NaN in the metadata once loaded
    *[(f'{{"metadata": {{"noise": {t}}}}}', f"holds {t}, which is not JSON")
      for t in ("NaN", "Infinity", "-Infinity")],
])
def test_load_names_a_malformed_meta_file(tmp_path, text, msg):
    path = _saved(tmp_path)
    (path / "meta.json").write_text(text)
    with pytest.raises(ValueError, match=msg) as err:
        load_dataset(path)
    assert str(path / "meta.json") in str(err.value)


@pytest.mark.parametrize("name,per_row", [
    ("images.f32le", 4 * CANVAS * CANVAS), ("labels.u32le", 4), ("sublabels.u32le", 4),
])
@pytest.mark.parametrize("delta", [-1, -4, 3])
def test_load_names_a_file_of_the_wrong_length(tmp_path, name, per_row, delta):
    path = _saved(tmp_path)
    raw = (path / name).read_bytes()
    (path / name).write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
    want = 12 * per_row
    with pytest.raises(ValueError, match=f"holds {want + delta} bytes, expected {want}") as err:
        load_dataset(path)
    assert str(path / name) in str(err.value)


@pytest.mark.parametrize("name", ["images.f32le", "labels.u32le", "sublabels.u32le"])
def test_load_rejects_a_file_with_a_huge_tail_before_reading_it(tmp_path, name):
    path = _saved(tmp_path)
    os.truncate(path / name, (path / name).stat().st_size + 64 * 2**20)  # a sparse zero tail

    def load():
        with pytest.raises(ValueError, match="bytes, expected") as err:
            load_dataset(path)
        return err.value

    error, peak = traced_peak(load)
    assert str(path / name) in str(error)
    assert peak < 2**20


def test_load_names_the_image_file_when_the_shape_product_overflows_int64(tmp_path):
    # 2**32 * 2**16 * 2**16 wraps to 0 in int64, which an empty file would match
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["shape"] = [2**32, 2**16, 2**16]
    meta["n"] = 2**32
    (path / "meta.json").write_text(json.dumps(meta))
    (path / "images.f32le").write_bytes(b"")
    with pytest.raises(ValueError, match=f"holds 0 bytes, expected {4 * 2**64}") as err:
        load_dataset(path)
    assert str(path / "images.f32le") in str(err.value)


@pytest.mark.parametrize("key,value,msg", [
    ("n", 999, r"field 'n' is 999, but field 'shape' \[12, 16, 16\] holds 12 samples"),
    ("n", "x", "field 'n' must be an integer >= 0, got 'x'"),
    ("x", 1, r"unknown .*meta\.json keys: \['x'\]"),
], ids=["n_not_the_row_count", "n_str", "unknown_key"])
def test_load_refuses_a_meta_key_it_once_ignored(tmp_path, key, value, msg):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta[key] = value
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=msg) as err:
        load_dataset(path)
    assert str(path / "meta.json") in str(err.value)


@pytest.mark.parametrize("class_count", [2.5, True, 0, -3])
def test_a_dataset_refuses_a_class_count_that_is_not_an_integer_from_1(class_count):
    # rows of label -1 fit any of these; an empty dataset with -3 once saved and loaded
    for n in (0, 2):
        with pytest.raises(ValueError, match=f"class_count must be an integer >= 1, "
                                             f"got {class_count!r}"):
            DomainDataset(images=np.zeros((n, 2)), labels=np.full(n, OUTLIER_LABEL),
                          class_count=class_count, domain_role="source")


def test_load_refuses_an_empty_dataset_of_negative_class_count(tmp_path):
    save_dataset(DomainDataset(images=np.zeros((0, 2)), labels=np.zeros(0), class_count=2,
                               domain_role="source"), tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta_path.write_text(meta_path.read_text().replace('"class_count": 2', '"class_count": -3'))
    with pytest.raises(ValueError, match="field 'class_count' must be an integer >= 1, got -3"
                       ) as err:
        load_dataset(tmp_path / "d")
    assert str(meta_path) in str(err.value)


def test_regenerate_rejects_unknown_generator():
    with pytest.raises(ValueError, match="generator"):
        regenerate({"generator": "fractal", "domain_role": "source"})


@pytest.mark.parametrize("metadata,msg", [
    ({"generator": "blob", "domain_role": "source", "params": {"K": 2}},
     r"blob metadata params is missing required keys: \['priors', 'means', 'spread', 'n', "
     r"'seed'\]"),
    ({"generator": "blob", "domain_role": "source",
      "params": {"K": 2.5, "priors": [0.5, 0.5], "means": [[0, 0], [1, 1]], "spread": 0.5,
                 "n": 4, "seed": 0}},
     "blob metadata params field 'K' must be an integer >= 1, got 2.5"),
    ({"generator": "blob", "domain_role": "source"},
     r"blob metadata is missing required keys: \['params'\]"),
    ({"generator": "glyph", "domain_role": "source"},
     r"glyph metadata is missing required keys: \['spec'\]"),
    ({"generator": "glyph", "spec": {}, "domain_role": "sideways"},
     "glyph metadata field 'domain_role' must be one of"),
    (None, "metadata must be an object, got NoneType"),
], ids=["blob_without_priors", "blob_fractional_K", "blob_without_params",
        "glyph_without_spec", "glyph_bad_role", "none"])
def test_regenerate_names_the_key_it_cannot_use(metadata, msg):
    # these raised KeyError or AttributeError, naming no metadata
    with pytest.raises(ValueError, match=msg):
        regenerate(metadata)


# ---------------------------------------------------------------------------
# learnability
# ---------------------------------------------------------------------------

def test_source_glyphs_are_separable_by_small_mlp():
    src_spec, _ = default_pair_specs(samples_per_class=40, seed=0)
    ds = generate_glyph_domain(src_spec, "source")
    x, y = ds.x_flat(), ds.labels
    params = init_params([x.shape[1], 64, 32, 4], seed=17)
    opt = OptimState(kind="adam", lr=1e-3, weight_decay=1e-5)
    rng = np.random.default_rng(0)
    for _ in range(80):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 64):
            rows = order[start:start + 64]
            step(params, opt, backward(head_objective(params, x[rows], y[rows])))
    preds = predict_logits(params, x).argmax(axis=1)
    assert (preds == y).mean() >= 0.95
