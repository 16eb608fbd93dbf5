"""Command line front end.

Seven subcommands cover the full workflow: synthesize a domain pair
(``generate``), reshape its target into a benchmark (``bench``), adapt a
model (``train``), score a checkpoint (``eval``), run the component matrix
(``ablate``), verify gradients (``gradcheck``), and trace the
distribution-matching failure curve (``probe-lds``).

Exit codes: 0 on success, 1 on a validation problem (bad flags, malformed
config, inconsistent data), 2 when training aborts on a non-finite loss.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from .benchmarks import (
    BenchmarkSpec,
    benchmark_report,
    load_pair,
    write_benchmark,
)
from .datasets import (
    GlyphDomainSpec,
    _is_float,
    _is_int,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_domain,
    generate_glyph_pair,
    load_dataset,
    save_dataset,
)
from .gradcheck import run_gradient_suite, suite_text
from .nets import load_checkpoint
from .training import (
    ABLATION_ROWS,
    DEFAULT_SEEDS,
    NumericalAbort,
    TrainConfig,
    ablation_suite,
    ablation_table_text,
    evaluate,
    lds_failure_probe,
    save_run,
    shift_pair,
    train,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def _load_json(path, what: str) -> Dict:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{what} file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} file {p} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValueError(f"{what} file {p} must hold a JSON object")
    return data


def _echo(payload: Dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _check_fields(d: Dict, fields: Dict[str, Tuple[Callable, str]], what: str) -> None:
    """Reject a key of ``d`` that ``fields`` lacks, or a value that fails its
    check; ``fields`` maps each key to (check, what the value must be)."""
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    for key, value in d.items():
        ok, want = fields[key]
        if not ok(value):
            raise ValueError(f"{what} field {key!r} must be {want}, got {value!r}")


def _list_of(ok: Callable, want: str) -> Tuple[Callable, str]:
    """The field check of a non-empty JSON list whose items pass ``ok``."""
    return (lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v)),
            f"a non-empty list of {want}")


_ANY = (lambda v: True, "")
_INT = (_is_int, "an integer")
_NUMBER = (_is_float, "a number")
_NUMBERS = _list_of(_is_float, "numbers")
_POINTS = _list_of(_NUMBERS[0], "points")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_PAIR_FIELDS = {"n_classes": _INT, "sub_styles": _INT, "samples_per_class": _INT,
                "seed": _INT}
_BLOB_FIELDS = {"k": _INT, "source_priors": _NUMBERS, "target_priors": _NUMBERS,
                "means": _POINTS, "spread": _NUMBER, "n": _INT, "seed": _INT}


def _glyph_spec(d: Dict, seed: Optional[int]) -> GlyphDomainSpec:
    if seed is not None and isinstance(d, dict):
        d = {**d, "seed": seed}
    return GlyphDomainSpec.from_dict(d)


def _cmd_generate(args) -> int:
    spec = _load_json(args.spec, "spec")
    kind = spec.get("kind")
    out = Path(args.out)
    if kind == "glyph_pair":
        body = {k: v for k, v in spec.items() if k != "kind"}
        explicit = "source" in body or "target" in body
        _check_fields(body, {"source": _ANY, "target": _ANY} if explicit else _PAIR_FIELDS,
                      "glyph_pair")
        if explicit:
            if not ("source" in body and "target" in body):
                raise ValueError('glyph_pair spec needs both "source" and "target"')
            src_spec = _glyph_spec(body["source"], args.seed)
            tgt_spec = _glyph_spec(
                body["target"], None if args.seed is None else args.seed + 1)
        else:
            if args.seed is not None:
                body["seed"] = args.seed
            src_spec, tgt_spec = default_pair_specs(**body)
        src, tgt = generate_glyph_pair(src_spec, tgt_spec)
    elif kind == "glyph":
        role = spec.pop("domain_role", "source")
        spec.pop("kind")
        ds = generate_glyph_domain(_glyph_spec(spec, args.seed), role)
        save_dataset(ds, out)
        _echo({"out": str(out), "kind": "glyph", "n_samples": ds.n_samples,
               "class_count": ds.class_count})
        return 0
    elif kind == "blob_pair":
        missing = [k for k in _BLOB_FIELDS if k != "seed" and k not in spec]
        if missing:
            raise ValueError(f"blob_pair spec is missing {missing}")
        _check_fields({k: v for k, v in spec.items() if k != "kind"}, _BLOB_FIELDS,
                      "blob_pair")
        src, tgt = generate_blob_pair(
            spec["k"], spec["source_priors"], spec["target_priors"],
            spec["means"], float(spec["spread"]), spec["n"],
            spec.get("seed", 0) if args.seed is None else args.seed)
    else:
        raise ValueError(
            f'spec "kind" must be glyph_pair, glyph, or blob_pair, got {kind!r}')

    save_dataset(src, out / "source")
    save_dataset(tgt, out / "target")
    _echo({"out": str(out), "kind": kind,
           "source": {"n_samples": src.n_samples, "class_count": src.class_count},
           "target": {"n_samples": tgt.n_samples, "class_count": tgt.class_count}})
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_BENCH_KINDS = {"lds": "LDS", "ilds": "ILDS", "two": "TwO"}


def _cmd_bench(args) -> int:
    src, tgt = load_pair(args.in_dir)
    spec = BenchmarkSpec(kind=_BENCH_KINDS[args.kind],
                         imbalance_factor=args.imbalance_factor,
                         outlier_fraction=args.rho, seed=args.seed)
    src2, tgt2, spec = shift_pair(src, tgt, spec)
    write_benchmark(args.out, src2, tgt2, spec)
    _echo(benchmark_report(spec, src2, tgt2))
    return 0


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    cfg = TrainConfig.from_dict(_load_json(args.config, "config"))
    src = load_dataset(args.src)
    tgt = load_dataset(args.tgt)
    params, metrics = train(cfg, src, tgt)
    save_run(args.out, cfg, params, metrics)
    print((Path(args.out) / "summary.json").read_text())
    return 0


def _cmd_eval(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    rep = evaluate(params, ds)
    _echo({"accuracy": rep.accuracy, "n_evaluated": rep.n_evaluated,
           "per_class": rep.per_class, "confusion": rep.confusion.tolist()})
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _is_row(r) -> bool:
    return isinstance(r, list) and len(r) == 2 and all(isinstance(v, str) for v in r)


_ABLATE_FIELDS = {
    "train": _ANY,
    "benchmarks": _list_of(lambda b: isinstance(b, dict), "benchmark spec objects"),
    "rows": _list_of(_is_row, "[row name, method] pairs"),
    "seeds": _list_of(_is_int, "integers"),
    "samples_per_class": _INT,
    "data_seed": _INT,
}


def _cmd_ablate(args) -> int:
    cfg = _load_json(args.config, "config")
    if "train" not in cfg or "benchmarks" not in cfg:
        raise ValueError('ablate config needs "train" and "benchmarks" entries')
    _check_fields(cfg, _ABLATE_FIELDS, "ablate config")
    base = TrainConfig.from_dict(cfg["train"])
    benchmarks = [BenchmarkSpec.from_dict(b) for b in cfg["benchmarks"]]
    rows = [tuple(r) for r in cfg["rows"]] if "rows" in cfg else ABLATION_ROWS
    table = ablation_suite(
        base, benchmarks,
        samples_per_class=cfg.get("samples_per_class", 250),
        data_seed=cfg.get("data_seed", 0),
        seeds=tuple(cfg.get("seeds", DEFAULT_SEEDS)),
        rows=rows,
        progress=lambda msg: print(msg, file=sys.stderr))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = ablation_table_text(table)
    (out / "ablation.json").write_text(json.dumps(table, indent=2, sort_keys=True))
    (out / "ablation.txt").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _cmd_gradcheck(args) -> int:
    results = run_gradient_suite(tol=args.tol, instances=args.instances,
                                 seed=args.seed)
    print(suite_text(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# probe-lds
# ---------------------------------------------------------------------------

def _probe_text(result: Dict) -> str:
    lines = [f"label-shift ceiling (1 - TV): {result['ceiling']:.3f}",
             f"{'dm_weight':>10s} {'mmd':>9s} {'src_acc':>8s} "
             f"{'tgt_acc':>8s} {'tgt_acc_trans':>13s}"]
    for row in result["curve"]:
        lines.append(
            f"{row['dm_weight']:>10.2f} {row['mmd']:>9.5f} {row['source_acc']:>8.4f} "
            f"{row['target_acc']:>8.4f} {row['target_acc_transductive']:>13.4f}")
    return "\n".join(lines)


_PROBE_FIELDS = {
    "priors_src": _NUMBERS, "priors_tgt": _NUMBERS, "dm_weight_schedule": _NUMBERS,
    "means": _POINTS, "hidden": _list_of(_is_int, "integers"),
    "n": _INT, "epochs": _INT, "batch": _INT, "seed_model": _INT, "seed_data": _INT,
    "dm_ramp_steps": _INT, "spread": _NUMBER, "weight_decay": _NUMBER, "lr": _NUMBER,
    "optimizer": (lambda v: isinstance(v, str), "a string"),
}


def _cmd_probe(args) -> int:
    kwargs: Dict = {}
    if args.config is not None:
        kwargs = _load_json(args.config, "config")
        _check_fields(kwargs, _PROBE_FIELDS, "probe config")
    if args.seed is not None:
        kwargs["seed_model"] = args.seed
        kwargs["seed_data"] = args.seed
    kwargs.setdefault("priors_src", (0.5, 0.5))
    kwargs.setdefault("priors_tgt", (0.7, 0.3))
    result = lds_failure_probe(**kwargs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "probe.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    text = _probe_text(result)
    (out / "probe.txt").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbmatch",
                     description="domain adaptation lab: generators, "
                                 "benchmarks, adaptation training, probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset or domain pair")
    p.add_argument("--spec", required=True, help="JSON recipe (see README)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the recipe's seed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="reshape a pair into a shifted benchmark")
    p.add_argument("--kind", required=True, choices=sorted(_BENCH_KINDS))
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory holding source/ and target/")
    p.add_argument("--out", required=True)
    p.add_argument("--if", dest="imbalance_factor", type=float, default=1.0,
                   help="head/tail imbalance factor (lds, ilds)")
    p.add_argument("--rho", type=float, default=0.0,
                   help="outlier fraction of the final target (two)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("train", help="adapt a model on a source/target pair")
    p.add_argument("--config", required=True, help="TrainConfig as JSON")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the component ablation matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify gradients against central differences")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("probe-lds",
                       help="trace feature matching vs target accuracy under label shift")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="sets both the model and data seeds")
    p.add_argument("--config", default=None,
                   help="optional JSON overriding probe parameters")
    p.set_defaults(func=_cmd_probe)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 1
        return 0 if e.code is None else int(e.code)
    except NumericalAbort as e:
        print(f"pbmatch: numerical abort: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"pbmatch: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
