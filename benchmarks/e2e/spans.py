"""In-memory spans around the program's public calls, recorded from outside.

Nothing under ``src/`` is edited: :func:`install` replaces public
methods and functions of the program (:func:`hooks.replace`) with
wrappers that record a span (layer, start, end, the span that caused
it, the tick it belongs to) and then call the original.  Spans are kept in memory; a worker process
writes its spans to a file when it exits and the parent reads them back.

**Self time.**  A layer's self time is its span's duration minus the
part of that interval its child spans cover -- the *union* of the
children, because pool-thread children overlap each other.  Where
children overlap, the covered wall time is shared among them in
proportion to their durations, so attributed times add up to the wall
time of the root spans exactly (:func:`attribute`).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import hooks

__all__ = ["Span", "Recorder", "attribute", "covered", "install",
           "install_in_worker", "load_worker_spans"]


class Span:
    """One call into a layer; ``n`` is the work it did, counted at the
    boundary (windows run, records replayed, bytes framed, ...)."""

    __slots__ = ("layer", "start", "end", "parent", "cause", "n")

    def __init__(self, layer, start, end=0.0, parent=None, cause=None, n=0):
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.cause = cause
        self.n = n

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span store for one process.

    Same-thread nesting is tracked on a per-thread stack.  A span opened
    on a thread with an empty stack while :attr:`adopter` is set (the
    pool's ``validate`` span, which fans work out to pool threads) is
    recorded as that span's child.  :attr:`cause` is the id of the tick
    (or worker request) being served; the driver is single-threaded, so
    one process-wide value is enough, and every span copies it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[str] = []      # names install() did not find
        self.cause = None
        self._caused = 0
        self.adopter: Span | None = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, *, adopts: bool = False,
             causes: bool = False, count=None):
        """``fn`` wrapped in a span.  ``adopts`` makes the span the
        parent of spans opened on other threads while it runs;
        ``causes`` makes it the cause of everything under it, unless a
        cause is already set (a worker serving a labelled request);
        ``count(args, result)`` gives the span's ``n``."""
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else recorder.adopter
            caused = causes and recorder.cause is None
            if caused:
                recorder._caused += 1
                recorder.cause = f"{layer}#{recorder._caused}"
            span = Span(layer, time.perf_counter(), parent=parent,
                        cause=recorder.cause)
            recorder.spans.append(span)
            stack.append(span)
            if adopts:
                recorder.adopter = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if adopts:
                    recorder.adopter = None
                if caused:
                    recorder.cause = None
            if count is not None:
                span.n = count(args, result)
            return result

        return wrapper

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` once inside a span of ``layer``."""
        return self.wrap(layer, fn)(*args, **kwargs)

    def dump(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[s.layer, s.start, s.end,
                 -1 if s.parent is None else index[id(s.parent)],
                 s.cause, s.n] for s in self.spans]
        Path(path).write_text(json.dumps(rows))


def load_worker_spans(trace_dir) -> list[Span]:
    """Every worker dump under ``trace_dir``, merged."""
    spans: list[Span] = []
    for path in sorted(Path(trace_dir).glob("worker-*.json")):
        rows = json.loads(path.read_text())
        loaded = [Span(layer, start, end, cause=cause, n=n)
                  for layer, start, end, _parent, cause, n in rows]
        for span, row in zip(loaded, rows):
            if row[3] >= 0:
                span.parent = loaded[row[3]]
        spans.extend(loaded)
    return spans


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def attribute(spans) -> tuple[dict[str, float], float]:
    """Wall time attributed to each layer, and the root spans' total.

    Each root span is worth its duration.  A span keeps its self time
    (duration minus the union of its children) and hands the covered
    remainder to its children in proportion to their durations, so a
    parent whose children ran in parallel on pool threads is not
    charged twice for the same wall second.  The per-layer values sum
    to the returned root total.  Spans whose parent is not in ``spans``
    are roots.
    """
    spans = list(spans)
    present = {id(span) for span in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent is not None and id(span.parent) in present:
            children[id(span.parent)].append(span)
        else:
            roots.append(span)
    layer_time: dict[str, float] = defaultdict(float)
    pending = [(root, root.duration) for root in roots]
    while pending:
        span, worth = pending.pop()
        kids = children.get(id(span), ())
        if not kids or span.duration <= 0.0:
            layer_time[span.layer] += worth
            continue
        union = covered(((k.start, k.end) for k in kids),
                        span.start, span.end)
        share = worth * union / span.duration
        layer_time[span.layer] += worth - share
        total = sum(k.duration for k in kids)
        for kid in kids:
            pending.append((kid, share * kid.duration / total
                            if total > 0.0 else 0.0))
    return dict(layer_time), sum(root.duration for root in roots)


# ----------------------------------------------------------------------
# Wrapping the program
# ----------------------------------------------------------------------

def install(recorder: Recorder) -> None:
    """Wrap the program's public calls, process-wide and for good: a
    traced pass runs after the untraced one, in a process that exits.
    Names the program no longer has are noted in ``recorder.notes``
    and their layers read 0."""

    def patch(path, layer, **options):
        hooks.replace(path, lambda fn: recorder.wrap(layer, fn, **options),
                      recorder.notes)

    service = "repro.service."
    patch(service + "supervisor:ShardSupervisor.submit",
          "service.supervisor.submit", causes=True)
    patch(service + "supervisor:ShardSupervisor.tick",
          "service.supervisor.tick", causes=True)
    patch(service + "procfabric:ProcessFabric.submit",
          "service.procfabric.submit", causes=True)
    patch(service + "procfabric:ProcessFabric.tick",
          "service.procfabric.tick", causes=True)
    patch(service + "controlplane:ValidationService.submit",
          "service.controlplane.submit", causes=True)
    patch(service + "controlplane:ValidationService.tick",
          "service.controlplane.tick", causes=True)
    patch(service + "controlplane:ValidationService.learn_criteria",
          "service.controlplane.learn")
    patch(service + "queue:EventQueue.push", "service.queue.push")
    patch(service + "queue:EventQueue.pop", "service.queue.pop")
    patch(service + "pool:ValidationPool.validate", "service.pool.validate",
          adopts=True)
    patch(service + "store:JournalStore.append", "service.store.append")
    patch(service + "store:JournalStore.replay", "service.store.replay",
          count=lambda args, records: len(records))
    patch("repro.benchsuite.runner:SuiteRunner.run", "benchsuite.run",
          count=lambda args, result: len(result.windows))
    # args = (sanitizer, spec, result): windows that already crossed the
    # layer pass through untouched and are not this call's work.
    patch("repro.quality.sanitize:Sanitizer.sanitize_result",
          "quality.sanitize",
          count=lambda args, result: sum(
              1 for window in args[2].windows if not window.sanitized))
    patch("repro.quality.rollout:evaluate_rollout", "quality.rollout_eval")
    patch("repro.core.selector:Selector.select_for_event",
          "core.selector.select")
    # args = (validator, spec, results)
    patch("repro.core.validator:Validator.check_results",
          "core.validator.score",
          count=lambda args, violations: len(args[2]) * len(args[1].metrics))
    patch("repro.core.validator:Validator.learn_criteria",
          "core.validator.learn",
          count=lambda args, windows: len(windows))
    patch("repro.analytics.reader:JournalReader.read_all",
          "analytics.reader.read",
          count=lambda args, records: len(records))


def install_in_worker(trace_dir) -> None:
    """Worker-process side: wrap the same calls, label every span with
    the request being served, write everything out at exit."""
    recorder = Recorder()
    install(recorder)
    pid = os.getpid()
    served = [0]

    def labelled(read_frame):
        def read_frame_labelled(fd):
            # The time blocked here is the worker idling between
            # requests; it overlaps the parent's own work and is not a
            # span.
            recorder.cause = None
            message = read_frame(fd)
            served[0] += 1
            recorder.cause = f"w{pid}.{served[0]}"
            return message

        return read_frame_labelled

    hooks.replace("repro.service.procfabric:read_frame", labelled,
                  recorder.notes)
    atexit.register(recorder.dump, Path(trace_dir) / f"worker-{pid}.json")
