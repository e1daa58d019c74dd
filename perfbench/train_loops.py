"""Training workloads: ``cnn_gist`` and ``lstm_hybrid``.

Both are closed loops with one caller: the next step starts when the
previous one (forward + backward + SGD) has returned.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core import GistConfig, HybridPolicy
from repro.kernels import clear_plan_cache, clear_selection_cache, plan_cache_stats
from repro.memory import (
    ALL_CHOICES,
    StaticAllocator,
    build_hybrid_plan,
    plan_cache_key,
)
from repro.models import build_model
from repro.rewrite import apply_passes
from repro.train import (
    SGD,
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    HybridExecutionPolicy,
    make_synthetic,
    make_synthetic_sequences,
)

from common import (
    Spans,
    SpanTracer,
    mean,
    median,
    new_spans,
    peak_rss_mb,
    timed_loop,
    timed_attr,
)

#: Steps of the correctness runs that give ``loss_final`` and the stash.
CHECK_STEPS = 8
#: Parameter-initialisation seed: part of the model, not of the inputs.
INIT_SEED = 0
#: Data seed of the reference check behind memory_mb, mfr and
#: loss_final, which therefore do not move with ``--seed``.
REFERENCE_SEED = 0
#: cnn_gist's lossy FP16 DPR may move the loss by at most this share of
#: the FP32 baseline's loss after CHECK_STEPS steps at the same seed.
CNN_LOSS_TOLERANCE = 0.02
#: Synthetic samples the load generator cycles through.
NUM_SAMPLES = 1024
LR = 0.01


@dataclass(frozen=True)
class TrainWorkload:
    model: str
    batch_size: int
    #: (graph, spans) -> (graph to train, stash policy, plan counts); the
    #: rewrite and policy build are set-up work.
    prepare: Callable
    #: seed -> training dataset.
    make_data: Callable
    #: Whether the policy must match the FP32 baseline bit for bit.
    lossless: bool
    #: Set-ups before and again after the timed loop; ``setup_s`` is the
    #: median of all of them.  Enough to span a second or more on each
    #: side, so swings in machine speed during a run average out.
    setup_reps: int


def _gist_policy(graph, spans: Spans):
    with spans.span("core.gist_plan"):
        return graph, GistPolicy(graph, GistConfig.full("fp16")), {}


def _hybrid_policy(graph, spans: Spans):
    """Rewrite, then plan: the path ``repro plan --rewrite`` takes, with
    the graph fingerprint a plan cache keys on."""
    policy = HybridPolicy()
    with spans.span("rewrite.apply"):
        rewritten = apply_passes(graph)
    with spans.span("graph.fingerprint"):
        plan_cache_key(rewritten.graph, policy)
    with spans.span("memory.hybrid_plan"):
        plan = build_hybrid_plan(rewritten.graph, policy)
    counts = {f"memory.decisions.{choice}": 0 for choice in ALL_CHOICES}
    for decision in plan.decisions.values():
        counts[f"memory.decisions.{decision.choice}"] += 1
    counts["rewrite.changes"] = sum(s.changes for s in rewritten.stats)
    return rewritten.graph, HybridExecutionPolicy(plan), counts


WORKLOADS = {
    "cnn_gist": TrainWorkload(
        "scaled_vgg", 32, _gist_policy,
        lambda seed: make_synthetic(num_samples=NUM_SAMPLES, num_classes=10,
                                    image_size=32, seed=seed)[0],
        lossless=False, setup_reps=3),
    "lstm_hybrid": TrainWorkload(
        "lstm", 64, _hybrid_policy,
        lambda seed: make_synthetic_sequences(num_samples=NUM_SAMPLES,
                                              num_classes=10, seq_len=12,
                                              input_size=32, seed=seed)[0],
        lossless=True, setup_reps=60),
}


class Batches:
    """Endless seeded minibatch stream over one dataset."""

    def __init__(self, data, batch_size: int, seed: int) -> None:
        self.data = data
        self.batch_size = batch_size
        self.rng = np.random.default_rng([seed, 1])
        self._order = np.empty(0, dtype=np.int64)
        self._pos = 0

    def next(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._pos + self.batch_size > self._order.size:
            self._order = self.rng.permutation(self.data.num_samples)
            self._pos = 0
        idx = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.data.images[idx], self.data.labels[idx]


def train_step(executor: GraphExecutor, opt: SGD, batch,
               spans: Spans) -> Tuple[float, Dict[str, np.ndarray]]:
    """One step: forward + backward + SGD, with spans around each call."""
    images, labels = batch
    with spans.span("train.step"):
        with spans.span("train.fwd_call"):
            loss = executor.forward(images, labels)
        with spans.span("train.bwd_call"):
            grads = executor.backward()
        with spans.span("train.optimizer"):
            opt.step(executor.parameters(), grads)
    return loss, grads


def set_up(wl: TrainWorkload, first_batch, spans: Spans):
    """Graph build, policy plan, executor init and the warm-up step.

    Kernel plan and autotune caches are cleared first, so every set-up
    pays the warm-up a fresh process pays.
    """
    clear_selection_cache()
    clear_plan_cache()
    with spans.span("setup"):
        with spans.span("graph.build"):
            graph = build_model(wl.model, batch_size=wl.batch_size)
        graph, policy, counts = wl.prepare(graph, spans)
        with spans.span("train.init"):
            executor = GraphExecutor(graph, policy, seed=INIT_SEED)
            opt = SGD(lr=LR, momentum=0.9)
        with spans.span("kernels.autotune"):
            train_step(executor, opt, first_batch, new_spans(False))
    return executor, opt, counts


def timed_set_ups(wl: TrainWorkload, first_batch, trace: bool):
    """``wl.setup_reps`` set-ups: their seconds, and the executor,
    optimizer, plan counts and spans of the last one."""
    times = []
    executor = opt = None
    for _ in range(wl.setup_reps):
        # Free the previous set-up first (the executor holds reference
        # cycles), so peak_rss_mb sees one set-up, as a fresh process does.
        executor = opt = None
        gc.collect()
        spans = new_spans(trace)
        t0 = perf_counter()
        with timed_attr(spans, StaticAllocator, "allocate", "memory.allocate"):
            executor, opt, counts = set_up(wl, first_batch, spans)
        times.append(perf_counter() - t0)
    return times, (executor, opt, counts, spans)


def _check_run(wl: TrainWorkload, prepare, batches):
    """CHECK_STEPS steps from a fresh executor; losses, grads, stash."""
    graph, policy, _ = prepare(build_model(wl.model, batch_size=wl.batch_size))
    executor = GraphExecutor(graph, policy, seed=INIT_SEED)
    opt = SGD(lr=LR, momentum=0.9)
    losses, grads = [], []
    stash = 0
    for images, labels in batches:
        losses.append(executor.forward(images, labels))
        stash = sum(executor.stash_bytes().values())
        step_grads = executor.backward()
        grads.append({k: v.copy() for k, v in step_grads.items()})
        opt.step(executor.parameters(), step_grads)
    return losses, grads, stash, executor


def correctness(wl: TrainWorkload, seed: int) -> dict:
    """Policy run vs FP32 baseline run on the same seed and batches."""
    stream = Batches(wl.make_data(seed), wl.batch_size, seed + 1)
    batches = [stream.next() for _ in range(CHECK_STEPS)]
    silent = new_spans(False)
    losses, grads, stash, executor = _check_run(
        wl, lambda g: wl.prepare(g, silent), batches)
    base_losses, base_grads, base_stash, _ = _check_run(
        wl, lambda g: (g, BaselinePolicy(), {}), batches)
    if wl.lossless:
        failures = sum(
            not (a == b and ga.keys() == gb.keys()
                 and all(np.array_equal(ga[k], gb[k]) for k in ga))
            for a, b, ga, gb in zip(losses, base_losses, grads, base_grads))
        checks = CHECK_STEPS
    else:
        rel = abs(losses[-1] - base_losses[-1]) / abs(base_losses[-1])
        failures = int(not rel <= CNN_LOSS_TOLERANCE)
        checks = 1
    sparsity = list(executor.last_sparsity.values())
    return {
        "checks": checks,
        "failures": failures,
        "loss_final": losses[-1],
        "stash_mb": stash / 2**20,
        "mfr": base_stash / stash,
        "sparsity": mean(sparsity),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    data = wl.make_data(seed)
    batches = Batches(data, wl.batch_size, seed)
    first = batches.next()

    setups, (executor, opt, counts, spans) = timed_set_ups(wl, first, trace)

    failed = 0

    def step(step_spans: Spans) -> float:
        nonlocal failed
        t0 = perf_counter()
        loss, _ = train_step(executor, opt, batches.next(), step_spans)
        elapsed = perf_counter() - t0
        failed += not np.isfinite(loss)
        return elapsed

    silent = new_spans(False)
    if trace:
        untraced = timed_loop(seconds / 2, lambda: step(silent))
        tracer = executor.tracer = SpanTracer(spans, executor.graph)
        latencies = timed_loop(seconds / 2, lambda: step(spans))
        executor.tracer = None
    else:
        latencies = timed_loop(seconds, lambda: step(silent))
    rss = peak_rss_mb()
    plans = plan_cache_stats()
    executor = opt = None
    setups += timed_set_ups(wl, first, False)[0]
    check = correctness(wl, seed)
    ref = correctness(wl, REFERENCE_SEED)

    result = {
        "attempted": len(latencies) + check["checks"] + ref["checks"],
        "failed": failed + check["failures"] + ref["failures"],
        "incorrect": check["failures"] + ref["failures"],
        "latencies_s": latencies,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "memory_mb": ref["stash_mb"],
        "mfr": ref["mfr"],
        "batch_size": wl.batch_size,
        "loss_final": ref["loss_final"],
        "sparsity": ref["sparsity"],
    }
    if trace:
        layers, ok = _layer_metrics(spans, tracer, plans, untraced,
                                    latencies)
        layers.update(counts)
        layers["train.loss_final"] = ref["loss_final"]
        layers["encodings.stash_sparsity"] = ref["sparsity"]
        result["layers"] = layers
        result["attempted"] += 1
        result["failed"] += not ok
        result["incorrect"] += not ok
        result["spans"] = spans
    return result


def _layer_metrics(spans: Spans, tracer: SpanTracer, plans: Dict[str, int],
                   untraced: List[float],
                   traced: List[float]) -> Tuple[Dict[str, float], bool]:
    """Per-module metrics of a traced run, and whether self times held.

    Step metrics are per-step means of self time, so they add up to the
    mean traced step; set-up metrics come from the last set-up.
    """
    step = spans.self_times("train.step")
    setup = spans.self_times("setup")
    out = {f"{name}_ms": 1e3 * mean(vals) for name, vals in step.items()}
    out["train.dispatch_ms"] = sum(
        out.pop(f"{name}_ms") for name in
        ("train.step", "train.fwd_call", "train.bwd_call"))
    for name in ("graph.build", "rewrite.apply", "graph.fingerprint",
                 "core.gist_plan", "memory.hybrid_plan", "memory.allocate"):
        out[f"{name}_ms"] = 1e3 * sum(setup.get(name, [0.0]))
    out["kernels.autotune_s"] = sum(setup.get("kernels.autotune", [0.0]))

    records = tracer.steps
    hits = sum(r.arena_hits for r in records)
    misses = sum(r.arena_misses for r in records)
    raw = sum(r.total_raw_bytes for r in records)
    encoded = sum(r.total_encoded_bytes for r in records)
    out.update({
        "kernels.arena_hit_ratio": hits / max(1, hits + misses),
        "kernels.arena_pooled_mb": mean([r.arena_pooled_bytes
                                         for r in records]) / 2**20,
        "kernels.plan_cache_hit_ratio":
            plans["hits"] / max(1, plans["hits"] + plans["misses"]),
        "encodings.compression_ratio": raw / encoded if encoded else 1.0,
        "encodings.encoded_mb": encoded / max(1, len(records)) / 2**20,
        "encodings.recompute_count": tracer.recomputes / max(1, len(records)),
        "bench.trace_overhead": median(traced) / median(untraced),
    })
    # Self times never go negative and never add up to more than the
    # traced step; either would mean a span was counted twice.
    totals = [sum(vals[i] for vals in step.values())
              for i in range(len(traced))]
    ok = (min(min(vals) for vals in step.values()) > -1e-6
          and all(t <= s + 1e-6 for t, s in zip(totals, traced)))
    return out, ok
