"""Command line front end.

Seven subcommands cover the full workflow: synthesize a domain pair
(``generate``), reshape its target into a benchmark (``bench``), adapt a
model (``train``), score a checkpoint (``eval``), run the component matrix
(``ablate``), verify gradients (``gradcheck``), and trace the
distribution-matching failure curve (``probe-lds``).

Every JSON spec or config is read by ``datasets.checked`` against the type
hints of the dataclass or function it feeds, one key per parameter (an
ablate config's "train" is ``ablation_suite``'s ``base_cfg``); ``--seed``
overrides a seed after the file is checked, and obeys the same rule.

Exit codes: 0 on success, 1 on a validation problem (bad flags, malformed
config, inconsistent data), 2 when training aborts on a non-finite loss.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from .benchmarks import (
    BenchmarkSpec,
    benchmark_report,
    load_pair,
    write_benchmark,
)
from .datasets import (
    GlyphDomainSpec,
    PairSeed,
    Seed,
    checked,
    checked_object,
    default_pair_specs,
    generate_blob_pair,
    generate_glyph_domain,
    generate_glyph_pair,
    load_dataset,
    read_json,
    save_dataset,
)
from .gradcheck import DEFAULT_INSTANCES, DEFAULT_TOL, run_gradient_suite, suite_text
from .nets import load_checkpoint
from .training import (
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


def _seed(text: str) -> int:
    """argparse type of every ``--seed`` flag: the rule of a JSON seed."""
    rule = Seed.__metadata__[0]
    if not (text.isdecimal() and rule(int(text))):
        raise argparse.ArgumentTypeError(f"must be an integer {rule}, got {text!r}")
    return int(text)


def _load_json(path, what: str) -> Dict:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{what} file not found: {p}")
    data = read_json(p, f"{what} file {p}")
    if not isinstance(data, dict):
        raise ValueError(f"{what} file {p} must hold a JSON object")
    return data


def _echo(payload: Dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    spec = _load_json(args.spec, "spec")
    kind = spec.pop("kind", None)
    out = Path(args.out)
    explicit = kind == "glyph_pair" and ("source" in spec or "target" in spec)
    rule = PairSeed.__metadata__[0]
    if kind == "glyph_pair" and args.seed is not None and not rule(args.seed):
        raise ValueError(f"argument --seed: a glyph pair's seed must be an integer {rule}, "
                         f"since its target renders from seed + 1, got {args.seed}")
    if args.seed is not None and not explicit:
        spec["seed"] = args.seed
    if explicit:
        pair = checked(generate_glyph_pair, spec, "glyph_pair")
        src_spec, tgt_spec = pair["source"], pair["target"]
        if args.seed is not None:
            src_spec = dataclasses.replace(src_spec, seed=args.seed)
            tgt_spec = dataclasses.replace(tgt_spec, seed=args.seed + 1)
        src, tgt = generate_glyph_pair(src_spec, tgt_spec)
    elif kind == "glyph_pair":
        pair = checked(default_pair_specs, spec, "glyph_pair")
        src, tgt = generate_glyph_pair(*default_pair_specs(**pair))
    elif kind == "glyph":
        role = spec.pop("domain_role", "source")
        glyph = checked_object(GlyphDomainSpec, spec, "glyph spec")
        ds = generate_glyph_domain(glyph, role)
        save_dataset(ds, out)
        _echo({"out": str(out), "kind": "glyph", "n_samples": ds.n_samples,
               "class_count": ds.class_count})
        return 0
    elif kind == "blob_pair":
        blobs = checked(generate_blob_pair, {"seed": 0, **spec}, "blob_pair")
        src, tgt = generate_blob_pair(**blobs)
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
    cfg = checked_object(TrainConfig, _load_json(args.config, "config"), "train config")
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

def _cmd_ablate(args) -> int:
    cfg = _load_json(args.config, "config")
    # ablation_suite's base_cfg is the config's "train" entry, not a key of its own
    if "train" not in cfg or "base_cfg" in cfg:
        raise ValueError('ablate config needs a "train" entry, and takes no "base_cfg" key')
    cfg["base_cfg"] = checked_object(TrainConfig, cfg.pop("train"), "ablate config train")
    suite = checked(ablation_suite, cfg, "ablate config")
    table = ablation_suite(**suite, progress=lambda msg: print(msg, file=sys.stderr))
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


def _cmd_probe(args) -> int:
    probe = {"priors_src": (0.5, 0.5), "priors_tgt": (0.7, 0.3)}
    if args.config is not None:
        probe.update(_load_json(args.config, "config"))
    probe = checked(lds_failure_probe, probe, "probe config")
    if args.seed is not None:
        probe["seed_model"] = probe["seed_data"] = args.seed
    result = lds_failure_probe(**probe)
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
    p.add_argument("--seed", type=_seed, default=None,
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
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("probe-lds",
                       help="trace feature matching vs target accuracy under label shift")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None,
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
