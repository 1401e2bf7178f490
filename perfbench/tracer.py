"""Spans recorded from outside the program, at the module attributes callers look up.

A :class:`Tracer` replaces a public function ``owner.attr`` with a wrapper
that records a span (name, start, end, parent) around each call and
restores the original on exit. A hook whose module or attribute no longer
exists is listed in :attr:`Tracer.absent` instead of failing, so a later
refactor that renames a function only blanks the metrics read from it.
Spans stay in memory until the caller collects them.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

# (name, start, end, parent index or -1)
Span = tuple[str, float, float, int]
# observe(counters, args, result) adds exact work counts from one call.
Observer = Callable[[dict, tuple, object], None]


def _count_objective(counters: dict, args: tuple, result: object) -> None:
    dataset, mask = args[0], args[1]
    card = int(mask.sum())
    counters["objective.card"] += card
    counters["objective.cells"] += dataset.n * card


def _count_elite(counters: dict, args: tuple, gamma: object) -> None:
    objectives, beta = args[0], args[1]
    size = len(objectives)
    # The elite size the nearest-rank percentile aims at, as compute_gamma indexes it.
    target = min(max(math.ceil((1.0 - beta) * size) - 1, 0), size - 1) + 1
    counters["elite.ratio_sum"] += sum(1 for v in objectives if v <= gamma) / target
    counters["elite.rounds"] += 1


def _count_nonzero(counters: dict, args: tuple, message: object) -> None:
    counters["codec.nonzero"] += message.nonzero_count
    counters["codec.entries"] += len(args[1])


# (module, attribute path, span name, observer). Each function is wrapped at
# every module that looks it up, because `from x import f` copies the name.
HOOKS: tuple[tuple[str, str, str, Optional[Observer]], ...] = (
    ("fedfs.datasets", "generate_planted", "datasets.generate", None),
    ("fedfs.datasets", "partition_iid", "datasets.partition", None),
    ("fedfs.ce", "ce_round", "ce.round", None),
    ("fedfs.federation", "ce_round", "ce.round", None),
    ("fedfs.ce", "sample_masks", "ce.sample", None),
    ("fedfs.bounds", "sample_masks", "ce.sample", None),
    ("fedfs.ce", "evaluate_objective", "info.objective", _count_objective),
    ("fedfs.bounds", "evaluate_objective", "info.objective", _count_objective),
    ("fedfs.ce", "compute_gamma", "ce.update", _count_elite),
    ("fedfs.bounds", "compute_gamma", "ce.update", _count_elite),
    ("fedfs.ce", "update_probabilities", "ce.update", None),
    ("fedfs.bounds", "update_probabilities", "ce.update", None),
    ("fedfs.federation", "run_federation", "federation.server", None),
    ("fedfs.federation", "client_round", "federation.client_round", None),
    ("fedfs.federation", "encode_message", "federation.codec", _count_nonzero),
    ("fedfs.federation", "decode_message", "federation.codec", None),
    ("fedfs.federation", "UpdateMessage.to_bytes", "federation.codec", None),
    ("fedfs.federation", "aggregate", "federation.aggregate", None),
    ("fedfs.federation", "ks_two_sample", "federation.ks", None),
    ("fedfs.bounds", "find_optimal_mask", "bounds.optimum", None),
    ("fedfs.bounds", "miss_rate_curve", "bounds.curve", None),
    ("fedfs.bounds", "centralized_miss_bound", "bounds.bound", None),
)


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, path: str, name: str, observe: Optional[Observer]) -> None:
        where = f"{module}.{path}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(where)
            return
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(where)
            return

        def traced(*args, **kwargs):
            opened = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(*opened)
            if observe is not None and where not in self.absent:
                try:
                    observe(self.counters, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.absent.append(where)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    @contextmanager
    def installed(self, hooks: Sequence[tuple[str, str, str, Optional[Observer]]] = HOOKS) -> Iterator["Tracer"]:
        """Wrap every hook for the duration of the block, then restore the originals."""
        for hook in hooks:
            self._wrap(*hook)
        try:
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    def _open(self, name: str) -> tuple[str, int, int, float]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        return name, index, parent, time.perf_counter()

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code, such as one repetition."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(*opened)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def layer_totals(spans: Sequence[Span]) -> dict[str, list[float]]:
    """Per span name: [calls, busy seconds, self seconds]."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return totals
