"""pbmatch benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload instapbm_lds --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. BLAS is pinned to one thread before numpy loads. The run
repeats the workload's unit of work while another unit fits in
``--seconds`` (at least once), and between its optimizer steps measures
set-up (data generation and benchmark construction up to the first
optimizer step) several times. With ``--trace 1`` it repeats the same
set-ups and units a second time with every layer call wrapped in a span,
and reports the per-layer split instead of the end-to-end metrics.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (``train()`` calls) and ``metrics``.

See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from measure import (Recorder, StopAtFirstStep, TrainCall, failed_share, grouped_percentile,
                     median, epoch_rate)
from spans import (Tracer, call_mean_s, coverage, layer_totals, per_layer_metrics,
                   snapshot)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference_hashes.json"
WORKLOAD_NAMES = ("instapbm_lds", "probe_blobs", "ablation_lds")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Set-ups are spread over the whole pass, between the optimizer steps of
# its units: one runs when MIN_SETUP_GAP_S, and the median set-up divided
# by SETUP_SHARE, have both passed since the last one ended; the pass ends
# with enough to make MIN_SETUPS. The host's speed switches between modes
# that last about a second, so set-ups taken all at once sample one mode,
# while the step metrics sample the whole pass.
SETUP_SHARE = 0.15
MIN_SETUP_GAP_S = 0.25
MIN_SETUPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_pbmatch():
    """Pin BLAS threads, then import numpy and pbmatch from ``src/``.

    Returns (numpy, {"training": ..., "losses": ...}); raises
    FileNotFoundError when the checkout has no library sources.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pbmatch" / "__init__.py").is_file():
        raise FileNotFoundError(f"no pbmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import pbmatch
    from pbmatch import losses, training
    if Path(pbmatch.__file__).resolve().parent != (SRC / "pbmatch").resolve():
        raise FileNotFoundError(f"pbmatch imported from {pbmatch.__file__}, not {SRC}")
    return numpy, {"training": training, "losses": losses}


def environment(numpy) -> Dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": nproc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


@dataclass
class Pass:
    """What one pass over a workload produced."""

    recorder: Recorder
    setup_s: List[float] = field(default_factory=list)
    setup_steps: List[int] = field(default_factory=list)  # unit steps before each set-up
    unit_calls: List[List[TrainCall]] = field(default_factory=list)
    tgt_acc: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    error: Optional[str] = None
    unwrapped: bool = False

    @property
    def unit_hashes(self) -> List[List[str]]:
        return [[c.sha256 for c in calls] for calls in self.unit_calls]


def run_pass(workload: Callable[[int], float], seed: int, modules: Dict,
             seconds: Optional[float] = None, setup_steps: Optional[List[int]] = None,
             units: Optional[int] = None, tracer: Optional[Tracer] = None) -> Pass:
    """Run units of the workload, with set-ups between their optimizer
    steps and at the end.

    Without ``setup_steps``/``units`` the schedule follows the constants
    above and ``seconds``; a traced pass passes the untraced pass's
    schedule so both do the same work in the same order.
    """
    training = modules["training"]
    original_train = training.train
    originals = snapshot(modules)
    recorder = Recorder(training, span=tracer.span if tracer else None)
    out = Pass(recorder=recorder)
    pending = list(setup_steps) if setup_steps is not None else None
    steps = 0
    t_pass = last_setup = time.perf_counter()

    def set_up() -> None:
        nonlocal last_setup
        label = tracer.run if tracer is not None else None
        if tracer is not None:
            tracer.run = f"setup{len(out.setup_s)}"
        recorder.stop_at_first_step = True
        t0 = time.perf_counter()
        try:
            workload(seed)
        except StopAtFirstStep:
            out.setup_s.append(recorder.first_step_at - t0)
        else:
            raise RuntimeError("workload finished without an optimizer step")
        finally:
            recorder.stop_at_first_step = False
            if tracer is not None:
                tracer.run = label
        out.setup_steps.append(steps)
        last_setup = time.perf_counter()

    def setup_due() -> bool:
        if pending is not None:
            if pending and pending[0] <= steps:
                pending.pop(0)
                return True
            return False
        gap = max(MIN_SETUP_GAP_S, median(out.setup_s) / SETUP_SHARE if out.setup_s else 0.0)
        return time.perf_counter() - last_setup >= gap

    def between_steps() -> bool:
        nonlocal steps
        steps += 1
        if not setup_due():
            return False
        set_up()
        return True

    def more_units() -> bool:
        n = len(out.tgt_acc)
        if units is not None:
            return n < units
        if n == 0:
            return True
        elapsed = time.perf_counter() - t_pass
        return elapsed + elapsed / n <= seconds  # another unit of mean length fits

    recorder.between_steps = between_steps
    recorder.install()
    if tracer is not None:
        tracer.install()
    try:
        while more_units():
            if tracer is not None:
                tracer.run = f"unit{len(out.tgt_acc)}"
            before = len(recorder.calls)
            out.tgt_acc.append(workload(seed))
            out.unit_calls.append(recorder.calls[before:])
        if pending is None:
            while len(out.setup_s) < MIN_SETUPS:
                set_up()
        else:
            for _ in range(len(pending)):  # the schedule's set-ups after the last step
                set_up()
    except Exception as exc:  # reported as a failed run, not a traceback
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.remove()
        recorder.remove()
    out.wall_s = time.perf_counter() - t_pass
    out.unwrapped = recorder.removed_cleanly(original_train) and (
        tracer is None or tracer.removed_cleanly(originals))
    return out


def call_groups(p: Pass) -> List[List[TrainCall]]:
    """Calls grouped by their position in a unit: one group per ablation
    row or probe weight, one for instapbm_lds. Calls in a group do the same
    work, so step percentiles are taken within a group.

    Pooling unlike calls puts p90 on the boundary between two methods'
    step times: on ablation_lds it fell between the cpbm rows and instapbm
    and moved by 20% between two runs whose throughput differed by 3%.
    """
    return [list(calls) for calls in zip(*p.unit_calls)]


def end_to_end(p: Pass) -> Tuple[Dict[str, tuple], Dict[str, str]]:
    """The end-to-end metrics as (value, unit), and a note on each
    metric's samples."""
    groups = call_groups(p)
    rate, epochs = epoch_rate(p.recorder.calls)
    periods = [[t for c in calls for t in c.periods_ms] for calls in groups]
    p50, n, _ = grouped_percentile(periods, 50)
    p90, _, fewest = grouped_percentile(periods, 90)
    metrics = {
        "setup_s": (median(p.setup_s), "s"),
        "samples_per_s": (rate, "1/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p90": (p90, "ms"),
        "tgt_acc": (p.tgt_acc[0], "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(p.setup_s)} set-ups",
        "samples_per_s": f"{len(p.recorder.calls)} train() calls, {epochs} epoch durations",
        "step_ms_p50": f"{n} step periods in {len(groups)} groups",
        "step_ms_p90": f"{n} step periods, at least {fewest} above in each group",
    }
    return metrics, notes


def problems_of(p: Pass, label: str) -> List[str]:
    problems = []
    if p.error is not None:
        problems.append(f"{label}: {p.error}")
    for i, call in enumerate(p.recorder.calls):
        problems += [f"{label}: train() call {i}: {msg}" for msg in call.problems]
    if any(h != p.unit_hashes[0] for h in p.unit_hashes):
        problems.append(f"{label}: repeated units produced different metrics.jsonl bytes")
    if not p.unwrapped:
        problems.append(f"{label}: a wrapper was left in place after the pass")
    if not p.tgt_acc:
        problems.append(f"{label}: no unit completed")
    return problems


def reference_hashes(workload: str, seed: int) -> Optional[List[str]]:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {}).get(str(seed))


def print_metrics(title: str, metrics: Dict[str, tuple], notes: Dict[str, str]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<32} {value:>14.6g} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        numpy, modules = load_pbmatch()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    env = environment(numpy)
    print("env " + json.dumps(env, sort_keys=True))
    plain = run_pass(workload, args.seed, modules, seconds=args.seconds)
    problems = problems_of(plain, "untraced")
    attempted, failed = plain.recorder.attempted, plain.recorder.failed
    print(f"workload {args.workload} seed {args.seed}: {len(plain.setup_s)} set-ups, "
          f"{len(plain.tgt_acc)} units, {attempted} train() calls, "
          f"{plain.wall_s:.2f} s")

    metrics: Dict[str, tuple] = {}
    if plain.error is None and plain.tgt_acc:
        metrics, notes = end_to_end(plain)
        notes["tgt_acc"] = ("mean over rows" if args.workload == "ablation_lds"
                            else "final epoch")
        notes["failed_share"] = f"{failed} of {attempted} train() calls"
        print_metrics("end to end (untraced)", {
            **metrics, "failed_share": (failed_share(attempted, failed), "share")}, notes)
        expected = reference_hashes(args.workload, args.seed)
        match = ("no reference recorded for this seed" if expected is None
                 else "matches reference" if expected == plain.unit_hashes[0]
                 else "DIFFERS from reference")
        print(f"metrics.jsonl sha256, {len(plain.unit_hashes[0])} train() calls: {match}")
        for i, h in enumerate(plain.unit_hashes[0]):
            print(f"  call {i}: {h}")

    if args.trace:
        tracer = Tracer(modules)
        traced = run_pass(workload, args.seed, modules, setup_steps=plain.setup_steps,
                          units=len(plain.tgt_acc), tracer=tracer)
        problems += problems_of(traced, "traced")
        problems += [f"traced: {name} not found, so its layer was not traced"
                     for name in tracer.missing]
        attempted += traced.recorder.attempted
        failed += traced.recorder.failed
        same_bytes = traced.unit_hashes == plain.unit_hashes
        if not same_bytes:
            problems.append("traced run's metrics.jsonl bytes differ from the untraced run's")
        metrics = {}
        if traced.error is None and traced.tgt_acc:
            metrics = trace_metrics(tracer, traced, plain)
            print_metrics("per layer (traced)", metrics, {})
            print(f"traced metrics.jsonl bytes equal untraced: {same_bytes}; "
                  f"wrappers removed: {traced.unwrapped}")
            path = write_trace(tracer, env, args, metrics)
            print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    for msg in problems:
        print(f"problem: {msg}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def trace_metrics(tracer: Tracer, traced: Pass, plain: Pass) -> Dict[str, tuple]:
    calls = traced.recorder.calls
    steps = sum(c.steps for c in calls)
    epochs = sum(c.epochs for c in calls)
    totals, train_wall = layer_totals(tracer.spans, runs=lambda r: r.startswith("unit"))
    metrics = per_layer_metrics(totals, steps, epochs)
    metrics["datasets.generate_s"] = (call_mean_s(tracer.spans, "datasets.generate"), "s")
    metrics["benchmarks.construct_s"] = (call_mean_s(tracer.spans, "benchmarks.construct"), "s")
    metrics["trace.coverage"] = (coverage(totals, train_wall), "share")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return metrics


def write_trace(tracer: Tracer, env: Dict, args: argparse.Namespace,
                metrics: Dict[str, tuple]) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "run", "work"],
        "spans": tracer.spans,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return path


if __name__ == "__main__":
    sys.exit(main())
