"""Span recording for the traced run, kept entirely in the benchmark.

A :class:`SpanRecorder` wraps public functions and methods of the program
with span recorders.  Every span holds its name, start, end, parent span
and operation id; spans stay in memory and are written out at the end.

A layer's *self time* is its span's duration minus the time its child
spans cover, and an operation's ``unattributed`` residual is the operation
time minus its top-level child spans, so self times plus the residual add
up to the operation time exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: The fields of one span, in order: start and end are CLOCK_MONOTONIC
#: seconds (comparable across processes), parent is the parent span's index
#: or -1 at top level, cpu is the CPU seconds of an operation span.
FIELDS = ("name", "start", "end", "parent", "op", "thread", "cpu")


class SpanRecorder:
    """Collects spans from any thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cpu: bool = False) -> Iterator[None]:
        """Record the enclosed block as span ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.monotonic(), 0.0, parent,
                  self.spans[parent][4] if parent >= 0 else next(self._ops),
                  threading.get_ident(), 0.0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        cpu_start = time.process_time() if cpu else 0.0
        try:
            yield
        finally:
            record[2] = time.monotonic()
            if cpu:
                record[6] = time.process_time() - cpu_start
            stack.pop()

    def wrap(self, owner: Any, attribute: str, name: Any) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``name`` is the span name, or a callable mapping the call's
        arguments to one.  Class and static methods keep their kind.
        """
        raw = inspect.getattr_static(owner, attribute)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw
        recorder = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with recorder.span(label):
                return function(*args, **kwargs)

        setattr(owner, attribute, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attribute, raw))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON."""
        Path(path).write_text(json.dumps(
            [dict(zip(FIELDS, span)) for span in self.spans]))


def load_spans(path: Path) -> List[list]:
    """Read spans written by :meth:`SpanRecorder.dump`."""
    return [[entry[key] for key in FIELDS]
            for entry in json.loads(Path(path).read_text())]


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span: duration minus its children's durations."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def operation_breakdown(spans: List[list], op_name: str
                        ) -> Tuple[int, float, float, Dict[str, float]]:
    """Per-layer self time of the operations named ``op_name``.

    Returns ``(n_ops, total op seconds, total op CPU seconds, {layer: self
    seconds})``; the ``unattributed`` entry is the op spans' own self time,
    so the layer entries add up to the total exactly.
    """
    own = self_times(spans)
    op_index = {}
    for index, span in enumerate(spans):
        if span[0] == op_name and span[3] < 0:
            op_index[span[4]] = index
    layers: Dict[str, float] = defaultdict(float)
    total = cpu = 0.0
    for index, span in enumerate(spans):
        if span[4] not in op_index:
            continue
        if index == op_index[span[4]]:
            total += span[2] - span[1]
            cpu += span[6]
            layers["unattributed"] += own[index]
        else:
            layers[span[0]] += own[index]
    return len(op_index), total, cpu, dict(layers)


def window_total(spans: List[list], name: str, window: Tuple[float, float]
                 ) -> Tuple[int, float]:
    """``(calls, total seconds)`` of the spans ``name`` started in ``window``."""
    calls, total = 0, 0.0
    for span in spans:
        if span[0] == name and window[0] <= span[1] < window[1]:
            calls += 1
            total += span[2] - span[1]
    return calls, total


def span_cost_seconds(n: int = 20000) -> float:
    """Measured cost of recording one (empty) span, in seconds.

    Multiplied by the spans an operation records, this estimates the
    tracing overhead inside a single traced run.
    """
    recorder = SpanRecorder()
    start = time.perf_counter()
    for _ in range(n):
        with recorder.span("probe"):
            pass
    return (time.perf_counter() - start) / n


def op_span(recorder: Optional[SpanRecorder], name: str):
    """An operation span (with CPU time) when tracing, nothing otherwise."""
    return recorder.span(name, cpu=True) if recorder is not None else nullcontext()


def layer_metrics(spans: List[list], op_name: str, prefix: str,
                  layers: List[str]) -> Dict[str, float]:
    """Mean per-operation self time (ms) of each layer of ``op_name``.

    Keys are ``<prefix>.<layer>_ms`` for every name in ``layers`` (0 when
    a layer did not run), ``<prefix>.unattributed_ms``, ``<prefix>.cpu_ms``
    and ``<prefix>.op_ms`` (the traced operation time they add up to).
    Raises ``ValueError`` when a span outside ``layers`` ran inside the
    operation, so no time can go missing from the table.
    """
    n_ops, total, cpu, own = operation_breakdown(spans, op_name)
    unknown = set(own) - set(layers) - {"unattributed"}
    if unknown:
        raise ValueError(f"{op_name}: spans outside the layer list: "
                         f"{sorted(unknown)}")
    scale = 1000.0 / max(1, n_ops)
    result = {f"{prefix}.{layer}_ms": own.get(layer, 0.0) * scale
              for layer in layers}
    result[f"{prefix}.unattributed_ms"] = own.get("unattributed", 0.0) * scale
    result[f"{prefix}.cpu_ms"] = cpu * scale
    result[f"{prefix}.op_ms"] = total * scale
    return result


def table_lines(title: str, rows: Dict[str, float], op_ms: float,
                moves: str) -> List[str]:
    """A per-layer table as printable lines: each row's ms and share of the
    operation time ``op_ms``, then the sum of the rows."""
    def share(value: float) -> float:
        return 100.0 * value / op_ms if op_ms else 0.0

    lines = [f"{title} (moves {moves}); operation {op_ms:.3f} ms",
             f"  {'layer':44s} {'self ms':>10s} {'share':>7s}"]
    for name, value in rows.items():
        lines.append(f"  {name:44s} {value:10.3f} {share(value):6.1f}%")
    total = sum(rows.values())
    lines.append(f"  {'sum of rows':44s} {total:10.3f} {share(total):6.1f}%")
    return lines


def layer_rows(values: Dict[str, float], prefix: str) -> Dict[str, float]:
    """The self-time rows of :func:`layer_metrics` (not CPU or op time)."""
    return {name: value for name, value in values.items()
            if name not in (f"{prefix}.op_ms", f"{prefix}.cpu_ms")}


def estimated_overhead_pct(spans: List[list], op_names: List[str]) -> float:
    """Tracing overhead estimated inside a traced run, in percent.

    The number of spans recorded inside the operations named ``op_names``,
    times the measured cost of one span, over those operations' time.
    """
    ops = {span[4]: span[2] - span[1] for span in spans
           if span[0] in op_names and span[3] < 0}
    n_spans = sum(1 for span in spans if span[4] in ops)
    busy = sum(ops.values())
    return 100.0 * n_spans * span_cost_seconds() / busy if busy else 0.0
