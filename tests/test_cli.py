"""End-to-end checks of the command line front end.

Every subcommand runs in-process through main(argv) so exit codes and
stdout are assertable without subprocess overhead. The entry-point tests
run real subprocesses: `python -m pbmatch.cli`; a launcher built in a temp
dir from the `[project.scripts]` entry in pyproject.toml, the same wrapper
an installer writes, run against this checkout; and, only where a pbmatch
distribution is installed, the installed `pbmatch` launcher itself.
"""

import importlib.metadata
import json
import math
from concurrent.futures import ThreadPoolExecutor
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbmatch
from pbmatch.cli import main
from pbmatch.datasets import DomainDataset, load_dataset, save_dataset
from pbmatch.nets import init_params, save_checkpoint
from pbmatch.benchmarks import BenchmarkSpec, load_pair
from pbmatch.training import build_benchmark_pair

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh).get("project", {})
    entry = project.get("scripts", {}).get("pbmatch")
    assert entry is not None, "pyproject.toml declares no pbmatch script"
    return entry


def installed_distribution():
    try:
        return importlib.metadata.distribution("pbmatch")
    except importlib.metadata.PackageNotFoundError:
        return None


def run_missing_spec(exe, cwd, env=None):
    return subprocess.run([exe, "generate", "--spec", "ghost.json",
                           "--out", "x"], capture_output=True, text=True,
                          cwd=cwd, env=env)


def assert_clean_missing_spec(proc):
    # an uncaught exception exits 1 too; only the message and the absence
    # of a traceback tell the handled ValueError from a crash
    assert proc.returncode == 1
    assert "spec file not found: ghost.json" in proc.stderr
    assert "Traceback" not in proc.stderr


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def assert_named_error(capsys, *names):
    err = capsys.readouterr().err
    assert "pbmatch: error:" in err
    for name in names:
        assert name in err
    assert "Traceback" not in err


@pytest.fixture()
def glyph_pair_dir(tmp_path):
    spec = write_json(tmp_path / "pair.json", {
        "kind": "glyph_pair", "n_classes": 4, "sub_styles": 2,
        "samples_per_class": 30})
    out = tmp_path / "pair"
    assert main(["generate", "--spec", spec, "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture()
def blob_pair_dir(tmp_path):
    spec = write_json(tmp_path / "blob.json", {
        "kind": "blob_pair", "k": 2, "source_priors": [0.5, 0.5],
        "target_priors": [0.7, 0.3], "means": [[-2.0, 0.0], [2.0, 0.0]],
        "spread": 0.5, "n": 240})
    out = tmp_path / "blobs"
    assert main(["generate", "--spec", spec, "--out", str(out), "--seed", "0"]) == 0
    return out


class TestGenerate:
    def test_glyph_pair_layout_and_echo(self, glyph_pair_dir, capsys):
        src, tgt = load_pair(glyph_pair_dir)
        assert src.n_samples == tgt.n_samples == 120
        assert src.domain_role == "source" and tgt.domain_role == "target"

    def test_single_glyph_domain(self, tmp_path):
        spec = write_json(tmp_path / "one.json", {
            "kind": "glyph", "domain_role": "target", "n_classes": 3,
            "sub_styles": 1, "samples_per_class": 5, "seed": 2})
        out = tmp_path / "one"
        assert main(["generate", "--spec", spec, "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.domain_role == "target"
        assert ds.n_samples == 15
        assert ds.metadata["spec"]["seed"] == 2

    def test_explicit_pair_specs_with_seed_override(self, tmp_path):
        base = {"n_classes": 2, "sub_styles": 1, "samples_per_class": 4}
        spec = write_json(tmp_path / "explicit.json", {
            "kind": "glyph_pair",
            "source": {**base, "stroke_thickness": 1, "seed": 0},
            "target": {**base, "stroke_thickness": 3, "seed": 0}})
        out = tmp_path / "explicit"
        assert main(["generate", "--spec", spec, "--out", str(out),
                     "--seed", "7"]) == 0
        src, tgt = load_pair(out)
        assert src.metadata["spec"]["seed"] == 7
        assert tgt.metadata["spec"]["seed"] == 8
        assert tgt.metadata["spec"]["stroke_thickness"] == 3

    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "default"])
    def test_a_pair_seed_whose_target_seed_overflows_names_the_flag(self, tmp_path, capsys,
                                                                   explicit):
        # the target renders from --seed + 1, so the flag is held to the pair rule
        base = {"n_classes": 2, "sub_styles": 1, "samples_per_class": 4}
        payload = ({"kind": "glyph_pair", "source": base, "target": base} if explicit
                   else {"kind": "glyph_pair", **base})
        spec = write_json(tmp_path / "pair.json", payload)
        out = tmp_path / "pair"
        assert main(["generate", "--spec", spec, "--out", str(out),
                     "--seed", "4294967295"]) == 1
        assert_named_error(capsys, "argument --seed: a glyph pair's seed must be an "
                                   "integer in [0, 4294967294]", "got 4294967295")
        assert not out.exists()
        assert main(["generate", "--spec", spec, "--out", str(out),
                     "--seed", "4294967294"]) == 0
        assert load_pair(out)[1].metadata["spec"]["seed"] == 4294967295

    def test_blob_pair(self, blob_pair_dir):
        src, tgt = load_pair(blob_pair_dir)
        assert not src.is_image
        assert src.n_samples == tgt.n_samples == 240
        assert src.x_flat().shape == (240, 2)

    def test_blob_spec_missing_keys(self, tmp_path, capsys):
        spec = write_json(tmp_path / "bad.json", {"kind": "blob_pair", "k": 2})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "o")]) == 1
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("change,name", [
        ({"k": [2]}, "'k'"),
        ({"spread": "wide"}, "'spread'"),
        ({"means": [[-2.0, 0.0], 2.0]}, "'means'"),
        ({"seed": 1.5}, "'seed'"),
        ({"sprd": 0.5}, "sprd"),
    ], ids=["int_list", "float_str", "point_not_list", "seed_float", "unknown_key"])
    def test_malformed_blob_spec_exits_1(self, tmp_path, capsys, change, name):
        spec = write_json(tmp_path / "bad.json", {
            "kind": "blob_pair", "k": 2, "source_priors": [0.5, 0.5],
            "target_priors": [0.7, 0.3], "means": [[-2.0, 0.0], [2.0, 0.0]],
            "spread": 0.5, "n": 40, **change})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "o")]) == 1
        assert_named_error(capsys, name)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("payload", [
        {"kind": "mystery"},
        {"no_kind": True},
    ])
    def test_unknown_kind(self, tmp_path, payload):
        spec = write_json(tmp_path / "bad.json", payload)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("payload,name", [
        ({"kind": "glyph", "samples_per_class": 3, "bogus": 1}, "bogus"),
        ({"kind": "glyph_pair", "source": {"bogus": 1}, "target": {}}, "bogus"),
        ({"kind": "glyph_pair", "source": 5, "target": {}},
         "field 'source' must be a GlyphDomainSpec object"),
        ({"kind": "glyph_pair", "samples_per_clas": 3}, "samples_per_clas"),
        ({"kind": "glyph_pair", "n_classes": "4"}, "n_classes"),
    ], ids=["glyph", "pair_source", "pair_source_not_object", "pair_knob",
            "pair_knob_mistyped"])
    def test_malformed_glyph_spec_exits_1(self, tmp_path, capsys, payload, name):
        spec = write_json(tmp_path / "bad.json", payload)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "o")]) == 1
        assert_named_error(capsys, name)
        assert not (tmp_path / "o").exists()

    def test_spec_file_missing(self, tmp_path):
        assert main(["generate", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_spec_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--spec", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    def test_spec_not_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["generate", "--spec", str(bad),
                     "--out", str(tmp_path / "o")]) == 1


class TestBench:
    def test_lds_counts_and_source_untouched(self, glyph_pair_dir, tmp_path):
        out = tmp_path / "lds"
        assert main(["bench", "--kind", "lds", "--in", str(glyph_pair_dir),
                     "--out", str(out), "--if", "10", "--seed", "3"]) == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert report["spec"]["kind"] == "LDS"
        assert sorted(report["target"]["counts"]) == [3, 6, 14, 30]
        src_in, _ = load_pair(glyph_pair_dir)
        src_out, _ = load_pair(out)
        assert src_out.images.tobytes() == src_in.images.tobytes()

    def test_ilds_keeps_meta_marginal(self, glyph_pair_dir, tmp_path):
        out = tmp_path / "ilds"
        assert main(["bench", "--kind", "ilds", "--in", str(glyph_pair_dir),
                     "--out", str(out), "--if", "4", "--seed", "5"]) == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert report["spec"]["kind"] == "ILDS"
        # per meta class: 15-per-sub decayed by 4 over 2 positions -> 15 + 4
        assert report["target"]["counts"] == [19, 19, 19, 19]
        assert report["source"]["counts"] == [30, 30, 30, 30]

    def test_two_outlier_budget(self, glyph_pair_dir, tmp_path):
        out = tmp_path / "two"
        assert main(["bench", "--kind", "two", "--in", str(glyph_pair_dir),
                     "--out", str(out), "--rho", "0.2", "--seed", "5"]) == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert report["target"]["n_outliers"] == 30
        assert report["target"]["n_samples"] == 150

    @pytest.mark.parametrize("kind,flags", [
        ("lds", ["--if", "4"]), ("ilds", ["--if", "4"]), ("two", ["--rho", "0.2"]),
    ])
    def test_writes_what_build_benchmark_pair_builds(self, tmp_path, kind, flags):
        spec = write_json(tmp_path / "pair.json", {"kind": "glyph_pair",
                                                   "samples_per_class": 16})
        pair, out = tmp_path / "pair", tmp_path / kind
        assert main(["generate", "--spec", spec, "--out", str(pair), "--seed", "3"]) == 0
        assert main(["bench", "--kind", kind, "--in", str(pair), "--out", str(out),
                     "--seed", "5", *flags]) == 0
        spec = BenchmarkSpec(kind={"lds": "LDS", "ilds": "ILDS", "two": "TwO"}[kind],
                             imbalance_factor=1.0 if kind == "two" else 4.0,
                             outlier_fraction=0.2 if kind == "two" else 0.0, seed=5)
        for got, want in zip(load_pair(out), build_benchmark_pair(spec, 16, data_seed=3)):
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.sublabels.tobytes() == want.sublabels.tobytes()
            assert got.images.tobytes() == want.images.tobytes()

    @pytest.mark.parametrize("kind,flags,name", [
        ("two", ["--rho", "0.2", "--if", "10"], "imbalance_factor"),
        ("lds", ["--rho", "0.5"], "outlier_fraction"),
        ("ilds", ["--if", "2", "--rho", "0.1"], "outlier_fraction"),
    ])
    def test_flag_the_kind_does_not_use_exits_1(self, glyph_pair_dir, tmp_path, capsys,
                                                 kind, flags, name):
        assert main(["bench", "--kind", kind, "--in", str(glyph_pair_dir),
                     "--out", str(tmp_path / "o"), *flags]) == 1
        assert_named_error(capsys, name)
        assert not (tmp_path / "o").exists()

    def test_meta_without_class_count_exits_1(self, glyph_pair_dir, tmp_path, capsys):
        meta_path = glyph_pair_dir / "target" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["class_count"]
        meta_path.write_text(json.dumps(meta))
        assert main(["bench", "--kind", "lds", "--in", str(glyph_pair_dir),
                     "--out", str(tmp_path / "o")]) == 1
        assert_named_error(capsys, str(meta_path), "class_count")

    @pytest.mark.parametrize("kind,name,shift", [
        ("lds", "LDS", ["--if", "2"]), ("ilds", "ILDS", ["--if", "2"]),
        ("two", "TwO", ["--rho", "0.2"])], ids=["lds", "ilds", "two"])
    def test_a_target_holding_outliers_exits_1_by_name(self, glyph_pair_dir, tmp_path, capsys,
                                                       kind, name, shift):
        # a TwO output holds label -1 rows, which no long tail can place and
        # a second injection would leave at more than the fraction asked
        two = tmp_path / "two"
        assert main(["bench", "--kind", "two", "--in", str(glyph_pair_dir),
                     "--out", str(two), "--rho", "0.2"]) == 0
        capsys.readouterr()
        assert main(["bench", "--kind", kind, "--in", str(two),
                     "--out", str(tmp_path / "o"), *shift]) == 1
        assert_named_error(capsys, f"{name} needs a target without outlier rows, "
                                   "got 30 rows labeled -1; build TwO last")
        assert not (tmp_path / "o").exists()

    def test_missing_input_pair(self, tmp_path):
        assert main(["bench", "--kind", "lds", "--in", str(tmp_path / "void"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_kind_is_validation_error(self, glyph_pair_dir, tmp_path, capsys):
        assert main(["bench", "--kind", "zzz", "--in", str(glyph_pair_dir),
                     "--out", str(tmp_path / "o")]) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestTrainEval:
    def test_train_writes_run_and_eval_scores_it(self, blob_pair_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "source_only", "epochs": 3, "batch": 60,
            "hidden": [8, 4], "seed_model": 1, "seed_data": 1})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) >= {"method", "target_accuracy", "source_accuracy"}
        for name in ("config.json", "metrics.jsonl", "summary.json",
                     "confusion.csv", "checkpoint.bin"):
            assert (out / name).is_file()

        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--data", str(blob_pair_dir / "target")]) == 0
        scored = json.loads(capsys.readouterr().out)
        assert scored["n_evaluated"] == 240
        assert 0.0 <= scored["accuracy"] <= 1.0
        assert np.asarray(scored["confusion"]).sum() == 240

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_abort_exits_2(self, blob_pair_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "source_only", "epochs": 2, "batch": 60, "hidden": [8],
            "optimizer": "sgd_momentum", "lr": 1e300})
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "numerical abort" in capsys.readouterr().err

    @pytest.mark.parametrize("marginal", [[0.5, float("nan")], [0.5, float("inf")],
                                          [0.0, 0.0], [0.2, 0.3, 0.5]],
                             ids=["nan", "inf", "all_zero", "three_of_two"])
    @pytest.mark.parametrize("method", ["source_only", "instapbm"])
    def test_unusable_initial_marginal_exits_1(self, blob_pair_dir, tmp_path, capsys,
                                               method, marginal):
        cfg = write_json(tmp_path / "cfg.json", {
            "method": method, "epochs": 1, "hidden": [8], "initial_marginal": marginal})
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 1
        assert_named_error(capsys, "initial_marginal")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value,name", [
        ("1e999", "field 'mixup_alpha' must be a finite number > 0, got inf"),
        ("-1e999", "field 'mixup_alpha' must be a finite number > 0, got -inf"),
        ("NaN", "holds NaN, which is not JSON"),
        ("Infinity", "holds Infinity, which is not JSON"),
        ("-Infinity", "holds -Infinity, which is not JSON"),
    ], ids=["overflow", "negative_overflow", "nan", "infinity", "negative_infinity"])
    def test_a_non_finite_mixup_alpha_exits_1_by_name(self, blob_pair_dir, tmp_path, capsys,
                                                      value, name):
        # the concentration once reached the mixup draw and exited 2, a
        # numerical abort in the mupbm term that named no field
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"method": "mupbm", "epochs": 1, "batch": 8, "hidden": [8], '
                       '"loss": {"entropy_ceiling": 0.5, "mixup_alpha": %s}}' % value)
        assert main(["train", "--config", str(cfg),
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 1
        assert_named_error(capsys, name)
        assert not (tmp_path / "run").exists()

    def test_a_loss_dict_without_a_ceiling_trains_on_the_default(self, blob_pair_dir,
                                                                 tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "instapbm", "epochs": 1, "batch": 60, "hidden": [8],
            "loss": {"lambda_M": 0.5}})
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 0
        loss = json.loads((tmp_path / "run" / "config.json").read_text())["loss"]
        assert loss["entropy_ceiling"] == 0.85 * math.log(2) and loss["lambda_M"] == 0.5

    def test_dataset_whose_kind_disagrees_with_its_rank_exits_1(self, tmp_path, capsys):
        # 3-D rows in a directory that says points: the data is refused where
        # it is read, naming its meta.json, before training sees a width
        ds = DomainDataset(images=np.full((8, 4, 4), 0.5), labels=np.arange(8) % 2,
                           class_count=2, domain_role="target")
        data = tmp_path / "data"
        save_dataset(ds, data)
        meta = json.loads((data / "meta.json").read_text())
        meta["kind"] = "points"
        (data / "meta.json").write_text(json.dumps(meta))
        cfg = write_json(tmp_path / "cfg.json", {"method": "source_only", "epochs": 1,
                                                 "hidden": [4]})
        assert main(["train", "--config", cfg, "--src", str(data), "--tgt", str(data),
                     "--out", str(tmp_path / "run")]) == 1
        assert_named_error(capsys, str(data / "meta.json"),
                           "field 'kind' is 'points', but field 'shape'")
        assert not (tmp_path / "run").exists()

    def test_bad_method_exits_1(self, blob_pair_dir, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"method": "alchemy"})
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 1


    @pytest.mark.parametrize("payload,key", [
        ({"method": "source_only", "epoch": 3}, "epoch"),
        ({"method": "source_only", "loss": {"entropy_ceiling": 0.5, "lambda_X": 1.0}},
         "lambda_X"),
        ({"method": "source_only", "loss": 0.5}, "field 'loss' must be a LossConfig object"),
    ], ids=["top_level", "loss", "loss_not_object"])
    def test_unknown_config_key_exits_1(self, blob_pair_dir, tmp_path, capsys,
                                        payload, key):
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert key in err and "pbmatch: error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("payload,field", [
        ({"method": "source_only", "loss": {"entropy_ceiling": 0}}, "entropy_ceiling"),
        ({"method": "source_only", "hidden": 5}, "hidden"),
        ({"method": "source_only", "seed_model": -1}, "seed_model"),
        ({"method": "source_only", "lr": -1.0}, "lr"),
        ({"method": "source_only", "lr": float("nan")}, "holds NaN, which is not JSON"),
        ({"method": "source_only", "momentum": 1.0}, "momentum"),
        ({"method": "dm_mmd", "dm_weight": float("inf")}, "holds Infinity, which is not JSON"),
    ], ids=["zero_ceiling", "hidden_not_list", "negative_seed_model", "negative_lr", "nan_lr",
            "unit_momentum", "infinite_dm_weight"])
    def test_malformed_config_field_exits_1(self, blob_pair_dir, tmp_path, capsys,
                                            payload, field):
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert field in err and "pbmatch: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload,field", [
        ({"method": "source_only", "epochs": "3"}, "epochs"),
        ({"method": "source_only", "batch": 2.5}, "batch"),
        ({"method": "source_only", "lr": "fast"}, "lr"),
        ({"method": "source_only", "loss": {"entropy_ceiling": 0.5, "lambda_M": "x"}},
         "lambda_M"),
    ], ids=["int_str", "int_float", "float_str", "loss_float_str"])
    def test_mistyped_config_field_exits_1(self, blob_pair_dir, tmp_path, capsys,
                                           payload, field):
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert f"field '{field}' must be" in err and "pbmatch: error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_eval_rejects_a_dataset_with_other_classes(self, blob_pair_dir, tmp_path,
                                                       capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "source_only", "epochs": 1, "batch": 60, "hidden": [4]})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(out)]) == 0
        spec = write_json(tmp_path / "blob3.json", {
            "kind": "blob_pair", "k": 3, "source_priors": [0.4, 0.3, 0.3],
            "target_priors": [0.4, 0.3, 0.3],
            "means": [[-2.0, 0.0], [2.0, 0.0], [0.0, 2.0]], "spread": 0.5, "n": 60})
        three = tmp_path / "blobs3"
        assert main(["generate", "--spec", spec, "--out", str(three), "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--data", str(three / "target")]) == 1
        captured = capsys.readouterr()
        assert "3 classes but the model predicts 2" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


    def test_eval_rejects_a_checkpoint_header_without_tasks(self, blob_pair_dir,
                                                             tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "method": "source_only", "epochs": 1, "batch": 60, "hidden": [4]})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg,
                     "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        ckpt = out / "checkpoint.bin"
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        header = json.loads(header)
        del header["tasks"]
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(blob_pair_dir / "target")]) == 1
        assert_named_error(capsys, str(ckpt), "tasks")


    def test_eval_rejects_a_checkpoint_header_naming_huge_layers(self, blob_pair_dir,
                                                                 tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.bin"
        header = {"layer_spec": [10**7, 10**7, 2], "seed": 0, "tasks": [], "step_count": 0}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(blob_pair_dir / "target")]) == 1
        assert_named_error(capsys, str(ckpt), "holds 16 parameter bytes")

    @pytest.mark.parametrize("key,value,named", [
        ("tasks", "", "'tasks'"), ("tasks", {}, "'tasks'"), ("x", 1, "'x'"),
        ("x", float("nan"), "NaN"), ("seed", 2**40, "'seed'"),
    ], ids=["tasks_empty_string", "tasks_object", "unknown_key", "unknown_key_nan",
            "seed_past_32_bits"])
    def test_eval_refuses_a_checkpoint_header_value_by_name(self, blob_pair_dir, tmp_path,
                                                            capsys, key, value, named):
        ckpt = tmp_path / "checkpoint.bin"
        save_checkpoint(ckpt, init_params([2, 4, 2], seed=0, tasks=()))
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        header = {**json.loads(header), key: value}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(blob_pair_dir / "target")]) == 1
        assert_named_error(capsys, str(ckpt), named)

    @pytest.mark.parametrize("key,value", [("n", 999), ("n", "x"), ("x", 1)],
                             ids=["n_not_the_row_count", "n_str", "unknown_key"])
    def test_train_refuses_a_meta_key_by_name(self, blob_pair_dir, tmp_path, capsys, key, value):
        meta_path = blob_pair_dir / "source" / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), key: value}))
        cfg = write_json(tmp_path / "cfg.json", {"method": "source_only", "epochs": 1})
        assert main(["train", "--config", cfg, "--src", str(blob_pair_dir / "source"),
                     "--tgt", str(blob_pair_dir / "target"), "--out", str(tmp_path / "run")]) == 1
        assert_named_error(capsys, str(meta_path), f"'{key}'")
        assert not (tmp_path / "run").exists()


class TestAblate:
    def test_tiny_matrix(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "abl.json", {
            "train": {"method": "source_only", "epochs": 2, "batch": 16,
                      "hidden": [10, 5]},
            "benchmarks": [{"kind": "LDS", "imbalance_factor": 4.0, "seed": 1,
                            "class_order": [0, 1, 2, 3]}],
            "samples_per_class": 10, "data_seed": 0, "seeds": [1],
            "rows": [["Baseline", "source_only"], ["full", "instapbm"]]})
        out = tmp_path / "abl"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        table = json.loads((out / "ablation.json").read_text())
        assert table["columns"] == ["LDS"]
        assert [r["row"] for r in table["rows"]] == ["Baseline", "full"]
        text = (out / "ablation.txt").read_text()
        assert "Baseline" in text and "full" in text
        assert text.strip() in capsys.readouterr().out

    def test_config_missing_sections(self, tmp_path):
        cfg = write_json(tmp_path / "abl.json", {"train": {}})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_config_without_train_exits_1_naming_it(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "abl.json", {"benchmarks": [{"kind": "LDS"}]})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_named_error(capsys, 'ablate config needs a "train" entry')

    def test_unknown_train_key_exits_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "abl.json", {
            "train": {"method": "source_only", "epoch": 3},
            "benchmarks": [{"kind": "LDS", "imbalance_factor": 4.0}]})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "epoch" in err and "unknown" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("train_cfg,field", [
        ({"method": "source_only", "loss": {"entropy_ceiling": 0}}, "entropy_ceiling"),
        ({"method": "source_only", "hidden": 5}, "hidden"),
    ], ids=["zero_ceiling", "hidden_not_list"])
    def test_malformed_train_field_exits_1(self, tmp_path, capsys, train_cfg, field):
        cfg = write_json(tmp_path / "abl.json", {
            "train": train_cfg,
            "benchmarks": [{"kind": "LDS", "imbalance_factor": 4.0}]})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert field in err and "pbmatch: error:" in err
        assert "Traceback" not in err


    def test_mistyped_train_field_exits_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "abl.json", {
            "train": {"method": "source_only", "epochs": "3"},
            "benchmarks": [{"kind": "LDS", "imbalance_factor": 4.0}]})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "field 'epochs' must be an integer" in err and "pbmatch: error:" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("change,name", [
        ({"benchmarks": [{"kind": "LDS", "bogus": 1}]}, "bogus"),
        ({"benchmarks": [{"imbalance_factor": 4.0}]}, "kind"),
        ({"benchmarks": [{"kind": "LDS", "seed": "1"}]}, "seed"),
        ({"benchmarks": [{"kind": "ILDS", "class_order": [1, 0, 3, 2]}]}, "class_order"),
        ({"benchmarks": "LDS"}, "benchmarks"),
        ({"seeds": 5}, "seeds"),
        ({"rows": [["full"]]}, "rows"),
        ({"samples_per_class": "10"}, "samples_per_class"),
        ({"seed": 1}, "seed"),
    ], ids=["bench_unknown_key", "bench_no_kind", "bench_mistyped", "bench_other_kinds_field",
            "benchmarks_not_list",
            "seeds_not_list", "row_not_pair", "samples_mistyped", "unknown_key"])
    def test_malformed_matrix_field_exits_1(self, tmp_path, capsys, change, name):
        cfg = write_json(tmp_path / "abl.json", {
            "train": {"method": "source_only", "epochs": 1},
            "benchmarks": [{"kind": "LDS", "imbalance_factor": 4.0}],
            "samples_per_class": 10, "seeds": [1], **change})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_named_error(capsys, name)
        assert not (tmp_path / "o").exists()

    def test_a_row_of_an_unknown_method_exits_1_before_any_row_trains(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "abl.json", {
            "train": {"method": "source_only", "epochs": 1},
            "benchmarks": [{"kind": "LDS", "imbalance_factor": 4.0}],
            "samples_per_class": 10, "seeds": [1],
            "rows": [["Baseline", "source_only"], ["X", "nonsense"]]})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "ablate config field 'rows' holds 'nonsense'" in err
        assert "must be a list of lists of a string and one of (" in err
        # no progress line: nothing trained
        assert "Baseline on" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


# Every JSON reader, a field it feeds and the payload that puts a value there.
_BLOB = {"kind": "blob_pair", "k": 2, "source_priors": [0.5, 0.5],
         "target_priors": [0.7, 0.3], "means": [[-2.0, 0.0], [2.0, 0.0]],
         "spread": 0.5, "n": 40}
_READERS = {
    "glyph": ("generate", lambda f, v: {"kind": "glyph", "samples_per_class": 2, f: v}),
    "glyph_pair_explicit": ("generate", lambda f, v: {
        "kind": "glyph_pair", "source": {"samples_per_class": 2, f: v},
        "target": {"samples_per_class": 2}}),
    "glyph_pair": ("generate", lambda f, v: {"kind": "glyph_pair", "samples_per_class": 2,
                                             f: v}),
    "blob_pair": ("generate", lambda f, v: {**_BLOB, f: v}),
    "train_config": ("train", lambda f, v: {"method": "source_only", "epochs": 1, f: v}),
    "loss_config": ("train", lambda f, v: {"loss": {"entropy_ceiling": 0.5, f: v}}),
    "benchmark_spec": ("ablate", lambda f, v: {
        "train": {"epochs": 1}, "benchmarks": [{"kind": "LDS", f: v}], "seeds": [1]}),
    "ablate_config": ("ablate", lambda f, v: {
        "train": {"epochs": 1}, "benchmarks": [{"kind": "LDS"}], "seeds": [1], f: v}),
    "probe_config": ("probe-lds", lambda f, v: {"n": 40, "epochs": 1, f: v}),
}
_BOUNDARY_CASES = [
    # a string or an int where a bool is expected
    *[(r, "invert", v) for r in ("glyph", "glyph_pair_explicit") for v in ("no", 1)],
    # a bool or a float where an int is expected
    *[(r, f, v) for r, f in [("glyph", "n_classes"), ("glyph_pair_explicit", "seed"),
                             ("glyph_pair", "sub_styles"), ("blob_pair", "n"),
                             ("train_config", "batch"), ("benchmark_spec", "seed"),
                             ("ablate_config", "data_seed"), ("probe_config", "epochs")]
      for v in (True, 2.0)],
    # a bool where a number is expected, the loss config having no int field
    ("loss_config", "lambda_M", True),
]


@pytest.mark.parametrize("reader,field,value", _BOUNDARY_CASES,
                         ids=[f"{r}-{f}-{v!r}" for r, f, v in _BOUNDARY_CASES])
def test_every_json_reader_rejects_a_mistyped_value_by_name(tmp_path, capsys, reader,
                                                            field, value):
    command, payload = _READERS[reader]
    path = write_json(tmp_path / "in.json", payload(field, value))
    out = str(tmp_path / "o")
    argv = {"generate": ["generate", "--spec", path, "--out", out],
            "train": ["train", "--config", path, "--src", str(tmp_path / "src"),
                      "--tgt", str(tmp_path / "tgt"), "--out", out],
            "ablate": ["ablate", "--config", path, "--out", out],
            "probe-lds": ["probe-lds", "--config", path, "--out", out]}[command]
    assert main(argv) == 1
    assert_named_error(capsys, f"field {field!r} must be")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,payload,path", [
    ("train", {"loss": {"lambda_M": "x"}}, "train config loss field 'lambda_M'"),
    ("ablate", {"train": {"epochs": "3"}, "benchmarks": [{"kind": "LDS"}]},
     "ablate config train field 'epochs'"),
    ("ablate", {"train": {}, "benchmarks": [{"kind": "LDS", "seed": "1"}]},
     "ablate config benchmarks field 'seed'"),
], ids=["loss_in_train", "train_in_ablate", "benchmarks_in_ablate"])
def test_a_nested_refusal_names_the_path_of_its_key(tmp_path, capsys, command, payload, path):
    config = write_json(tmp_path / "in.json", payload)
    out = str(tmp_path / "o")
    argv = {"train": ["train", "--config", config, "--src", str(tmp_path / "src"),
                      "--tgt", str(tmp_path / "tgt"), "--out", out],
            "ablate": ["ablate", "--config", config, "--out", out]}[command]
    assert main(argv) == 1
    assert_named_error(capsys, path)


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck", "--tol", "1e-4", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "net.features" in out and "term.total" in out

    def test_bad_instances(self):
        assert main(["gradcheck", "--instances", "0"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_unusable_tol_exits_1_and_names_it(self, capsys, tol):
        assert main(["gradcheck", "--tol", tol, "--instances", "1"]) == 1
        captured = capsys.readouterr()
        assert "pbmatch: error: tol must be finite and > 0" in captured.err
        assert captured.out == ""


class TestProbe:
    def test_tiny_probe_writes_curve(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {
            "n": 120, "epochs": 2, "batch": 40, "hidden": [6, 4],
            "dm_weight_schedule": [1.0, 2.0]})
        out = tmp_path / "probe"
        assert main(["probe-lds", "--out", str(out), "--seed", "7",
                     "--config", cfg]) == 0
        result = json.loads((out / "probe.json").read_text())
        assert result["ceiling"] == pytest.approx(0.8)
        assert [row["dm_weight"] for row in result["curve"]] == [1.0, 2.0]
        assert (out / "probe.txt").read_text().strip() in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", {"warp": 9})
        assert main(["probe-lds", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1

    @pytest.mark.parametrize("payload,name", [
        ({"epochs": [1]}, "epochs"),
        ({"priors_src": 5}, "priors_src"),
    ], ids=["int_list", "list_int"])
    def test_mistyped_config_field_exits_1(self, tmp_path, capsys, payload, name):
        cfg = write_json(tmp_path / "p.json", payload)
        assert main(["probe-lds", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        assert_named_error(capsys, f"probe config field {name!r}")
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("text,name", [
        ('{"n": 0}', "n"),
        ('{"n": -5}', "n"),
        ('{"priors_src": [1e999, 0.5]}', "priors_src"),
        ('{"spread": 1e999}', "spread"),
    ], ids=["no_rows", "negative_rows", "infinite_prior", "infinite_spread"])
    def test_out_of_range_config_field_exits_1_by_name(self, tmp_path, capsys, text, name):
        # these once failed inside numpy, in messages that named no field
        cfg = tmp_path / "p.json"
        cfg.write_text(text)
        assert main(["probe-lds", "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
        assert_named_error(capsys, f"probe config field {name!r}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["priors_src", "priors_tgt"])
    def test_priors_that_do_not_sum_to_1_exit_1_by_name(self, tmp_path, capsys, name):
        # named by the probe's own key, not by generate_blob_pair's
        cfg = write_json(tmp_path / "p.json", {name: [0.6, 0.6], "n": 40, "epochs": 1})
        assert main(["probe-lds", "--out", str(tmp_path / "o"), "--config", cfg]) == 1
        assert_named_error(capsys, f"{name} must be 2 values summing to 1")
        assert not (tmp_path / "o").exists()

    def test_means_of_one_point_exit_1_by_the_probes_own_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {"means": [[0, 0]], "n": 40, "epochs": 1})
        assert main(["probe-lds", "--out", str(tmp_path / "o"), "--config", cfg]) == 1
        assert_named_error(capsys, "probe config field 'means' must be a list of 2 lists of "
                                   "2 finite numbers")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", "blobs.json", "--out", "o"],
    ["bench", "--kind", "lds", "--in", "pair", "--out", "o"],
    ["gradcheck", "--instances", "1"],
    ["probe-lds", "--out", "o"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "4294967296", "1.5"])
def test_every_seed_flag_takes_only_a_32_bit_seed(tmp_path, capsys, monkeypatch, argv, seed):
    # a stream keeps its seed's low 32 bits, so --seed -1 once ran as 2**32 - 1
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "blobs.json", _BLOB)
    assert main([*argv, "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer in [0, 4294967295], got '{seed}'" in err
    assert not (tmp_path / "o").exists()


class TestBlasThreads:
    """OpenBLAS splits a large product across its threads, so the same run
    at 1 and at 2 threads must still write the same bytes: sharding runs
    across processes relies on that. The thread count is read only when
    numpy loads, so each count runs in its own process."""

    def test_train_and_probe_write_the_same_bytes_at_one_and_two_threads(
            self, blob_pair_dir, tmp_path):
        train = write_json(tmp_path / "train.json", {
            "method": "dm_mmd", "epochs": 2, "batch": 60, "hidden": [32, 16]})
        # 1000 + 1000 rows: the full-set MMD's tiles are products large
        # enough to thread, and its median is selected across tiles
        probe = write_json(tmp_path / "probe.json", {
            "dm_weight_schedule": [1.0], "n": 1000, "epochs": 1, "batch": 64,
            "hidden": [32, 16]})
        script = ("import sys\nfrom pbmatch.cli import main\nout = sys.argv[1]\n"
                  f"assert main(['train', '--config', {train!r}, "
                  f"'--src', {str(blob_pair_dir / 'source')!r}, "
                  f"'--tgt', {str(blob_pair_dir / 'target')!r}, '--out', out + '/train']) == 0\n"
                  f"assert main(['probe-lds', '--config', {probe!r}, '--seed', '1', "
                  "'--out', out + '/probe']) == 0\n")
        package_root = str(Path(pbmatch.__file__).resolve().parents[1])

        def run(threads):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join(filter(None, [
                       package_root, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run([sys.executable, "-c", script, str(out)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return {p.relative_to(out).as_posix(): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            one, two = pool.map(run, (1, 2))
        assert {"train/metrics.jsonl", "probe/probe.json"} <= set(one)
        assert sorted(one) == sorted(two)
        assert [name for name in one if one[name] != two[name]] == []


class TestEntryPoints:
    def test_module_entry_help(self):
        proc = subprocess.run([sys.executable, "-m", "pbmatch.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "probe-lds" in proc.stdout

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "probe-lds" in capsys.readouterr().out

    def test_console_script_installed(self, tmp_path):
        entry = declared_console_script()
        module, _, attr = entry.partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        launcher = tmp_path / "pbmatch"
        launcher.write_text(f"#!{sys.executable}\n"
                            f"import sys\nfrom {module} import {attr}\n"
                            f"sys.exit({attr}())\n")
        launcher.chmod(0o755)
        # the directory holding the imported package, so the launcher runs
        # this checkout and not another copy of pbmatch
        package_root = str(Path(pbmatch.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        assert_clean_missing_spec(run_missing_spec(str(launcher), tmp_path, env))

    @pytest.mark.skipif(installed_distribution() is None,
                        reason="no pbmatch distribution installed")
    def test_installed_console_script(self, tmp_path):
        scripts = {ep.name: ep.value
                   for ep in installed_distribution().entry_points
                   if ep.group == "console_scripts"}
        assert scripts.get("pbmatch") == declared_console_script()
        exe = shutil.which("pbmatch")
        assert exe is not None, "pbmatch is installed but not on PATH"
        assert_clean_missing_spec(run_missing_spec(exe, tmp_path))

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err
