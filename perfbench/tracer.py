"""Spans around the calls into each pfedbred module, recorded from outside it.

A wrapped function records one span per call: name, start, end and the index
of the enclosing span.  Spans stay in memory until the run ends; a layer's
self time is its span's duration minus the durations of its direct children.
Calls are strictly nested (one thread), so self times partition the root's
duration exactly.

``install`` puts the wrappers where each name is looked up at call time:
``fl`` imports ``bregman_prox``, ``per_class_stats`` and the step functions
by name, so those are patched on ``pfedbred.fl``; ``metrics`` calls its own
``per_class_stats``; ``LossOracle`` and ``Evaluator`` methods are patched on
their classes.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.quantities: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, quantity=None):
        """Return ``fn`` recording a span per call.

        ``quantity`` is an optional ``(label, measure)`` pair; ``measure``
        takes the call's arguments and returns a count added to the
        ``(name, label)`` total, such as the examples a gradient touches.
        """
        spans, stack, quantities = self.spans, self._stack, self.quantities

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if quantity is not None:
                quantities[(name, quantity[0])] += quantity[1](*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: call count, total, self and median duration in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            durations[name].append(end - start)
            self_s[name] += end - start - children
        return {name: {"calls": len(d), "total_s": sum(d), "self_s": self_s[name],
                       "median_s": statistics.median(d)}
                for name, d in durations.items()}


def _gradient_examples(oracle, params, idx=None):
    return oracle.n if idx is None else len(idx)


def _aggregate_bytes(w_old, collected, beta):
    return len(collected) * w_old.size * 8


def _per_class_stats_examples(model, params, features, labels, num_classes):
    return features.shape[0]


def _targets():
    from pfedbred import fl, metrics, models

    return [
        (models.LossOracle, "gradient", "models.gradient", ("examples", _gradient_examples)),
        (models.LossOracle, "draw_batch", "models.draw_batch", None),
        (fl, "bregman_prox", "mirror.bregman_prox", None),
        (fl, "local_round", "fl.local_round", None),
        (fl, "perfedavg_local_round", "fl.perfedavg_local_round", None),
        (fl, "perfedavg_personalize", "fl.perfedavg_personalize", None),
        (fl, "aggregate", "fl.aggregate", ("bytes", _aggregate_bytes)),
        (fl.Evaluator, "compute", "metrics.evaluator_compute", None),
        (fl, "per_class_stats", "metrics.per_class_stats",
         ("examples", _per_class_stats_examples)),
        (metrics, "per_class_stats", "metrics.per_class_stats",
         ("examples", _per_class_stats_examples)),
    ]


@contextmanager
def install(tracer: Tracer):
    """Wrap the package's layer boundaries for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, quantity in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, quantity))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
