"""Measurement for the fedfs benchmark: set-up timing, repetitions, per-layer figures.

Imported by ``run.py`` after it has pinned the thread settings, because
importing numpy starts the BLAS thread pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent

# Set-up repeats until both floors are met, then its median is reported.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0

# Work that never touches fedfs, timed between repetitions. The host's speed
# swings up to 2x over 5-20 s as other tenants come and go, and this work
# slows with it, so a repetition's time in units of it is steady. It mixes
# what the workloads spend time on: interpreter loops, many numpy calls on
# tiny arrays, and sorts of a few thousand values.
_CALIBRATION_ARRAYS = [np.random.default_rng(size).integers(0, 16, size) for size in (64, 4096)]


def calibration_seconds() -> float:
    """Time one fixed mix of interpreter, small-call and sort work (about 35 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    small, large = _CALIBRATION_ARRAYS
    for seed in range(800):
        np.random.default_rng(seed).random(8)
        np.unique(small, return_counts=True)
    for _ in range(60):
        np.unique(large, return_counts=True)
    return time.perf_counter() - start


def _git_commit() -> str:
    """The checked-out commit read from .git, or "none" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedfs").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """Counts operations of one benchmark run and checks them against the first."""

    def __init__(self, workload: workloads.Workload, inputs: workloads.Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.first: workloads.Outcome | None = None

    def measure(self, seconds: float, tracer: Tracer | None = None):
        """Repeat until ``seconds`` pass.

        Returns, per successful repetition, masks per second and masks per
        calibration time (the mean of the calibrations just before and
        after it), and each repetition's spans.
        """
        rates, cal_rates, traces = [], [], []
        deadline = time.perf_counter() + seconds
        calibration = calibration_seconds()
        while True:
            self.attempted += 1
            rate = None
            start = time.perf_counter()
            try:
                with tracer.span("bench.rep") if tracer else nullcontext():
                    outcome = workloads.repetition(self.workload, self.inputs)
                elapsed = time.perf_counter() - start
                if self.first is None:
                    self.first = outcome
                elif outcome.fingerprint != self.first.fingerprint:
                    raise workloads.CheckFailed("output differs from the first repetition")
                rate = outcome.masks / elapsed
            except Exception:
                self.failed += 1
                traceback.print_exc()
            if tracer is not None:
                traces.append(tracer.take())
            before, calibration = calibration, calibration_seconds()
            if rate is not None:
                rates.append(rate)
                cal_rates.append(rate * (before + calibration) / 2)
            if time.perf_counter() >= deadline:
                return rates, cal_rates, traces


def _setups(workload: workloads.Workload, seed: int, tracer: Tracer | None = None):
    """Build the inputs repeatedly; return the median time, the count and the last inputs."""
    times = []
    total_start = time.perf_counter()
    while True:
        inputs = None  # release the previous set so peak memory is one set-up's
        start = time.perf_counter()
        with tracer.span("bench.setup") if tracer else nullcontext():
            inputs = workloads.setup(workload, seed)
        times.append(time.perf_counter() - start)
        spent = time.perf_counter() - total_start
        if len(times) >= SETUP_MIN_REPEATS and spent >= SETUP_MIN_SECONDS:
            return statistics.median(times), len(times), inputs


def _per_layer(traces: list[list], setup_spans: list, setups: int, counters: dict):
    """Per-layer figures per traced repetition (set-up layers per set-up), and the layer totals."""
    reps = max(len(traces), 1)
    totals: dict[str, list[float]] = {}
    for spans in traces:
        for name, entry in layer_totals(spans).items():
            acc = totals.setdefault(name, [0.0, 0.0, 0.0])
            for i in range(3):
                acc[i] += entry[i]
    setup_totals = layer_totals(setup_spans)

    def calls(name):
        return totals.get(name, [0.0])[0] / reps

    def busy(name, source=totals, per=reps):
        return source.get(name, [0.0, 0.0])[1] / per

    def own(name):
        return totals.get(name, [0.0, 0.0, 0.0])[2] / reps

    def ratio(a, b):
        return a / b if b else 0.0

    objective_calls = totals.get("info.objective", [0.0])[0]
    objective_busy = totals.get("info.objective", [0.0, 0.0])[1]
    cells = counters.get("objective.cells", 0.0)
    wall = busy("bench.rep")
    figures = {
        "info.objective.calls": (calls("info.objective"), "count"),
        "info.objective.busy_s": (busy("info.objective"), "s"),
        "info.objective.us_per_call": (1e6 * ratio(objective_busy, objective_calls), "us"),
        "info.mask_card_mean": (ratio(counters.get("objective.card", 0.0), objective_calls), "count"),
        "info.cells_scored": (cells / reps, "count"),
        "info.ns_per_cell": (1e9 * ratio(objective_busy, cells), "ns"),
        "ce.sample.busy_s": (busy("ce.sample"), "s"),
        "ce.update.busy_s": (busy("ce.update"), "s"),
        "ce.round.self_s": (own("ce.round"), "s"),
        "ce.elite_ratio": (ratio(counters.get("elite.ratio_sum", 0.0), counters.get("elite.rounds", 0.0)), "ratio"),
        "federation.client_round.busy_s": (busy("federation.client_round"), "s"),
        "federation.codec.busy_s": (busy("federation.codec"), "s"),
        "federation.aggregate.self_s": (own("federation.aggregate"), "s"),
        "federation.ks.busy_s": (busy("federation.ks"), "s"),
        "federation.server.self_s": (own("federation.server"), "s"),
        "federation.nonzero_frac": (ratio(counters.get("codec.nonzero", 0.0), counters.get("codec.entries", 0.0)), "ratio"),
        "datasets.generate.busy_s": (busy("datasets.generate", setup_totals, max(setups, 1)), "s"),
        "datasets.partition.busy_s": (busy("datasets.partition", setup_totals, max(setups, 1)), "s"),
        "bounds.optimum.busy_s": (busy("bounds.optimum"), "s"),
        "bounds.curve.self_s": (own("bounds.curve"), "s"),
        "bounds.bound.busy_s": (busy("bounds.bound"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.accounted_frac": (ratio(wall - own("bench.rep"), wall), "ratio"),
    }
    return figures, totals


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _write_spans(path: Path, groups: list[list]) -> None:
    """One JSON line per span; ``group`` numbers the set-up (0) and traced repetition (1)."""
    with path.open("w") as handle:
        for group, spans in enumerate(groups):
            for name, start, end, parent in spans:
                handle.write(json.dumps({"group": group, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and the lines to print before it."""
    lines = [
        f"workload {workload.name} seed {seed} seconds {seconds} trace {int(trace)}",
        f"nproc {os.cpu_count()} python {platform.python_version()} numpy {np.__version__} "
        f"commit {_git_commit()} src-sha256 {_source_digest()}",
        "cli: not measured (file I/O glue)",
    ]
    if not trace:
        setup_s, setups, inputs = _setups(workload, seed)
        bench = Run(workload, inputs)
        rates, cal_rates, _ = bench.measure(seconds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "masks_per_cal": (_median(cal_rates), "1/cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        lines.append(f"set-ups {setups}, repetitions timed {len(rates)}, masks_per_s {_median(rates):.6g}")
        for name, values in (("masks_per_s", rates), ("masks_per_cal", cal_rates)):
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                lines.append(f"{name} quartiles {q1:.6g} .. {q3:.6g}")
        if bench.first is not None:
            figures = workloads.quality(inputs, bench.first)
            lines.append(" ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in figures.items()))
    else:
        tracer = Tracer()
        with tracer.installed():
            _, setups, inputs = _setups(workload, seed, tracer)
        setup_spans = tracer.take()
        bench = Run(workload, inputs)
        plain, _, _ = bench.measure(seconds / 2)
        with tracer.installed():
            traced, _, traces = bench.measure(seconds / 2, tracer)
        metrics, totals = _per_layer(traces, setup_spans, setups, tracer.counters)
        untraced_rate, traced_rate = _median(plain), _median(traced)
        metrics["masks_per_s"] = (untraced_rate, "1/s")
        metrics["trace.overhead"] = (untraced_rate / traced_rate if traced_rate else 0.0, "ratio")
        if bench.first is not None:
            metrics.update(workloads.quality(inputs, bench.first))
        if tracer.absent:
            lines.append("absent hooks (their metrics read 0): " + ", ".join(tracer.absent))
        lines.append(f"traced repetitions {len(traces)}, untraced {len(plain)}")
        lines.append(f"{'layer':<26}{'calls/rep':>12}{'busy s/rep':>12}{'self s/rep':>12}")
        reps = max(len(traces), 1)
        for name, (count, busy, own) in sorted(totals.items()):
            lines.append(f"{name:<26}{count / reps:>12.1f}{busy / reps:>12.4f}{own / reps:>12.4f}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        _write_spans(out / f"trace-{workload.name}-{seed}.jsonl", [setup_spans] + traces[:1])
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines
