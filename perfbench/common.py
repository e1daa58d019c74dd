"""Shared machinery of the benchmark: spans, self times, statistics.

Spans are recorded from benchmark code around calls into the program's
public functions (and, for the training executor, through the public
:class:`~repro.diagnostics.StepTracer` hooks).  They stay in memory until
the run ends and are then written to a JSON file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import resource
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.diagnostics import StepTracer

#: Where runs leave their scratch state and span dumps (git-ignored).
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


class Spans:
    """In-memory span log: ``[id, name, start, end, parent]`` rows."""

    enabled = True

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []

    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.add(name, perf_counter(), math.nan, self.current())
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.rows[sid][3] = perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> int:
        sid = len(self.rows)
        self.rows.append([sid, name, start, end, parent])
        return sid

    def set_parent(self, sid: int, parent: int) -> None:
        self.rows[sid][4] = parent

    def self_times(self, root: str) -> Dict[str, List[float]]:
        """Self seconds per span name, one summed value per ``root`` span.

        A span's self time is its duration minus its direct children's
        durations, so nested spans are never counted twice and the self
        times inside one root add up to the root's duration.
        """
        child_s = [0.0] * len(self.rows)
        for _, _, start, end, parent in self.rows:
            if parent is not None:
                child_s[parent] += end - start
        roots = [sid for sid, name, *_ in self.rows if name == root]
        root_of = {sid: sid for sid in roots}

        def find_root(sid):
            if sid not in root_of:
                parent = self.rows[sid][4]
                root_of[sid] = None if parent is None else find_root(parent)
            return root_of[sid]

        per_root: Dict[int, Dict[str, float]] = {sid: {} for sid in roots}
        for sid, name, start, end, _ in self.rows:
            owner = find_root(sid)
            if owner is not None:
                bucket = per_root[owner]
                bucket[name] = bucket.get(name, 0.0) + (end - start) - child_s[sid]
        names = sorted({n for b in per_root.values() for n in b})
        return {n: [per_root[r].get(n, 0.0) for r in roots] for n in names}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(fields, row))
                                    for row in self.rows]))


class NullSpans(Spans):
    """Tracing off: the same interface, recording nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str):
        yield None


def new_spans(trace: bool) -> Spans:
    return Spans() if trace else NullSpans()


@contextlib.contextmanager
def timed_attr(spans: Spans, owner, attr: str, name: str):
    """Record a ``name`` span around every call of ``owner.attr``."""
    original = getattr(owner, attr)
    if not spans.enabled:
        yield
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with spans.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def node_span(kind: str, phase: str) -> str:
    """Span name a graph node's forward or backward compute is charged to."""
    forward = phase == "forward"
    if kind in ("conv", "conv_relu"):
        return "kernels.conv_fwd" if forward else "kernels.conv_bwd"
    if kind in ("maxpool", "avgpool"):
        return "kernels.pool"
    if kind == "lstm_step":
        return "layers.lstm_step_fwd" if forward else "layers.lstm_step_bwd"
    return "train.forward" if forward else "train.backward_self"


def codec_span(encoding: str, phase: str) -> str:
    """Span name a stash encode or decode is charged to.

    Binarize, SSDC and DPR have their own; a recompute decode is
    ``encodings.recompute``.  Any other stash handling (identity, host
    swap, shared concat) is charged to the training loop:
    ``train.forward`` on encode, ``train.backward_self`` on decode.
    """
    for family in ("binarize", "ssdc", "dpr"):
        if encoding.startswith(family):
            return f"encodings.{family}.{phase}"
    if encoding.startswith("recompute"):
        return "encodings.recompute"
    return "train.forward" if phase == "encode" else "train.backward_self"


class SpanTracer(StepTracer):
    """A :class:`StepTracer` that also turns executor events into spans.

    The executor reports each event after it ends, with its wall time,
    so a span runs from ``now - wall`` to ``now``.  A decode happens
    inside the backward call of the node that reads the stash, which is
    reported after it: pending decode spans are re-parented onto that
    node's span, so node self time excludes decode.
    """

    def __init__(self, spans: Spans, graph) -> None:
        super().__init__(keep_events=False)
        self.spans = spans
        self._kind = {n.name: n.kind for n in graph.nodes}
        self._pending: List[int] = []
        self.recomputes = 0

    def record_node(self, node_name: str, phase: str, wall_s: float) -> None:
        super().record_node(node_name, phase, wall_s)
        end = perf_counter()
        sid = self.spans.add(node_span(self._kind[node_name], phase),
                             end - wall_s, end, self.spans.current())
        if phase == "backward":
            for child in self._pending:
                self.spans.set_parent(child, sid)
            self._pending.clear()

    def record_encode(self, node_name: str, encoding: str, raw_bytes: int,
                      encoded_bytes: int, wall_s: float) -> None:
        super().record_encode(node_name, encoding, raw_bytes, encoded_bytes,
                              wall_s)
        end = perf_counter()
        self.spans.add(codec_span(encoding, "encode"), end - wall_s, end,
                       self.spans.current())

    def record_decode(self, node_name: str, encoding: str,
                      decoded_bytes: int, wall_s: float) -> None:
        super().record_decode(node_name, encoding, decoded_bytes, wall_s)
        end = perf_counter()
        name = codec_span(encoding, "decode")
        self.recomputes += name == "encodings.recompute"
        self._pending.append(self.spans.add(name, end - wall_s, end,
                                            self.spans.current()))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> Optional[float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def geomean(values: Sequence[float]) -> float:
    return float(np.exp(np.mean(np.log(values))))


def median(values: Sequence[float]) -> float:
    return float(np.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux: KiB -> MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(seconds: float, op) -> List[float]:
    """Closed loop, one caller: run ``op()`` until ``seconds`` elapse.

    ``op`` returns the seconds its timed part took, so checks it runs
    outside that part are not counted as latency.
    """
    latencies: List[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        latencies.append(op())
    return latencies
