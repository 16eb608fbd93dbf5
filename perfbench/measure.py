"""What the benchmark measures around every ``train()`` call, and the
arithmetic it reports: percentiles, output checks, run hashes and failure
accounting.

The recorder replaces ``pbmatch.training.train`` for the length of one
pass. Workloads that reach ``train`` indirectly (``ablation_suite``,
``lds_failure_probe``) look it up as a module global, so they get the
wrapper too. The wrapper adds an ``on_step`` hook and passes every other
argument through unchanged.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ACCURACY_KEYS = ("src_train_acc", "tgt_acc", "tgt_acc_transductive")


class StopAtFirstStep(Exception):
    """Raised from the step hook to end a set-up measurement."""


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99), interpolating linearly between the two
    nearest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if q != int(q) or not 1 <= q <= 99:
        raise ValueError(f"percentile must be a whole number in [1, 99], got {q}")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def above(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above a percentile value."""
    return sum(1 for v in values if v > threshold)


median = statistics.median


def grouped_percentile(groups: Sequence[Sequence[float]], q: int) -> Tuple[float, int, int]:
    """The q-th percentile taken within each group, averaged with the
    groups' sample counts as weights.

    Returns (value, samples, fewest samples above a group's percentile).
    Empty groups are skipped.
    """
    groups = [g for g in groups if g]
    if not groups:
        raise ValueError("percentile of no values")
    total = sum(len(g) for g in groups)
    value = sum(len(g) * percentile(g, q) for g in groups) / total
    fewest = min(above(g, percentile(g, q)) for g in groups)
    return value, total, fewest


def epoch_rate(calls: Sequence["TrainCall"]) -> Tuple[float, int]:
    """Source rows stepped per second of training.

    A call's training time is its epoch count times its mean epoch
    duration; the last epoch, which no next epoch's first step closes, is
    taken at the mean. Returns (rate, epoch durations used).
    """
    if any(not c.epoch_s for c in calls):
        raise ValueError("a train() call has no epoch duration")
    rows = sum(c.rows_stepped for c in calls)
    seconds = sum(c.epochs * statistics.fmean(c.epoch_s) for c in calls)
    return rows / seconds, sum(len(c.epoch_s) for c in calls)


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no train() call was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def check_records(records: Sequence[Dict]) -> List[str]:
    """Problems in one run's per-epoch records: a non-finite logged loss
    term, or an accuracy outside [0, 1]. Empty when the run is sound."""
    problems = []
    if not records:
        problems.append("no epoch recorded")
    for rec in records:
        epoch = rec["epoch"]
        for name, value in rec["loss_terms"].items():
            if not math.isfinite(value):
                problems.append(f"epoch {epoch}: loss term {name} = {value}")
        accs = [(k, rec[k]) for k in ACCURACY_KEYS]
        accs += [(f"per_class_tgt_acc[{c}]", v)
                 for c, v in enumerate(rec["per_class_tgt_acc"]) if v is not None]
        for name, value in accs:
            if not 0.0 <= value <= 1.0:
                problems.append(f"epoch {epoch}: {name} = {value} outside [0, 1]")
    return problems


def jsonl_sha256(jsonl: str) -> str:
    """Hash of the bytes ``save_run`` writes to metrics.jsonl."""
    return hashlib.sha256(jsonl.encode("utf-8")).hexdigest()


@dataclass
class TrainCall:
    """One completed ``train()`` call."""

    steps: int
    epochs: int
    rows_stepped: int
    sha256: str
    problems: List[str]
    periods_ms: List[float]
    epoch_s: List[float]  # from one epoch's first step to the next epoch's


@dataclass
class Recorder:
    """Wraps ``pbmatch.training.train`` for one pass of a workload.

    Counts attempted and failed calls, records the periods between
    consecutive steps of one epoch, checks each call's records and hashes
    its metrics.jsonl bytes. With ``stop_at_first_step`` set, the hook
    notes the time of the first optimizer step and raises
    :class:`StopAtFirstStep`; such calls are counted only if they fail
    before that step. Otherwise ``between_steps`` runs after every step;
    it returns True when it did work (a set-up), and that time is left out
    of the call's step periods and epoch durations.
    """

    training: object
    span: Optional[Callable[[str], object]] = None
    stop_at_first_step: bool = False
    first_step_at: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    calls: List[TrainCall] = field(default_factory=list)
    between_steps: Optional[Callable[[], bool]] = None
    _original: Optional[Callable] = None

    def install(self) -> None:
        if self._original is not None:
            raise RuntimeError("recorder already installed")
        self._original = self.training.train
        self.training.train = self._train

    def remove(self) -> None:
        self.training.train = self._original
        self._original = None

    def removed_cleanly(self, original: Callable) -> bool:
        return self._original is None and self.training.train is original

    def _train(self, cfg, src, tgt, on_step=None, warm_start=None):
        if self.stop_at_first_step:
            try:
                return self._call(cfg, src, tgt, self._stop_hook, warm_start)
            except StopAtFirstStep:
                raise
            except Exception:
                self.attempted += 1
                self.failed += 1
                raise
        rows_per_step = _rows_per_step(self.training, cfg, src, tgt)
        clock = _StepClock(on_step, self.between_steps)
        self.attempted += 1
        try:
            params, metrics = self._call(cfg, src, tgt, clock, warm_start)
        except Exception:
            self.failed += 1
            raise
        problems = check_records(metrics.records)
        if problems:
            self.failed += 1
        self.calls.append(TrainCall(
            steps=clock.steps, epochs=len(metrics.records),
            rows_stepped=clock.steps * rows_per_step,
            sha256=jsonl_sha256(metrics.to_jsonl()), problems=problems,
            periods_ms=clock.periods_ms,
            epoch_s=[b - a for a, b in zip(clock.epoch_starts, clock.epoch_starts[1:])]))
        return params, metrics

    def _stop_hook(self, epoch, s, report):
        self.first_step_at = time.perf_counter()
        raise StopAtFirstStep

    def _call(self, cfg, src, tgt, hook, warm_start):
        if self.span is None:
            return self._original(cfg, src, tgt, on_step=hook, warm_start=warm_start)
        with self.span("training.train"):
            return self._original(cfg, src, tgt, on_step=hook, warm_start=warm_start)


class _StepClock:
    """``on_step`` hook that counts steps and times the period between
    consecutive steps of one epoch. The first step of an epoch opens no
    period: the time before it includes the previous epoch's evaluation.

    Time spent in ``between_steps`` is paused out of the clock. When it
    did work, the next step opens no period either: that work has
    evicted the step's data from the caches.
    """

    def __init__(self, on_step, between_steps=None):
        self.on_step = on_step
        self.between_steps = between_steps
        self.steps = 0
        self.periods_ms: List[float] = []
        self.epoch_starts: List[float] = []
        self._epoch = None
        self._at = 0.0
        self._paused = 0.0
        self._cold = False

    def __call__(self, epoch, s, report):
        now = time.perf_counter() - self._paused
        if epoch != self._epoch:
            self.epoch_starts.append(now)
        elif not self._cold:
            self.periods_ms.append((now - self._at) * 1000.0)
        self._epoch, self._at, self._cold = epoch, now, False
        self.steps += 1
        if self.on_step is not None:
            self.on_step(epoch, s, report)
        if self.between_steps is not None:
            t0 = time.perf_counter()
            self._cold = self.between_steps()
            self._paused += time.perf_counter() - t0


def _rows_per_step(training, cfg, src, tgt) -> int:
    """Source rows one step consumes, worked out as ``train`` does."""
    n_src = int((src.labels >= 0).sum())
    adapt_idx, _ = training.split_target(tgt.labels, cfg.eval_fraction, cfg.seed_data)
    return min(cfg.batch, n_src, adapt_idx.size)
