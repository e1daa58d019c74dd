"""``serve_zipf``: a closed loop of Zipf-skewed jobs into ``JobService``.

One caller submits a job, calls ``run_pending`` and waits for the answer
before it submits the next one, so the loop runs at the service's own
capacity and a job's latency is its service time: from ``submit`` to the
end of the pass that answered it.

Some ranks of the universe are *fresh* train slots: each time one is
drawn it gets a seed no earlier job used, so it always misses the
caches and runs on the pool (``orchestrate``, ``distributed``).  The
other ranks repeat and are answered from the result cache after their
first computation.

The job mix is stratified: every round of ``ROUND`` jobs holds each spec
of the fixed universe its Zipf share of the times (largest remainder),
and the seed draws the order within each round.  So runs differ in order
but not in composition, which keeps hit and miss shares steady.
"""

from __future__ import annotations

import itertools
import os
import shutil
from time import perf_counter
from typing import Dict, Iterator, List

import numpy as np

import repro.serve.service as service_module
from repro.serve import JobService, validate_job_spec

from common import OUT_DIR, Spans, geomean, mean, median, new_spans, peak_rss_mb

ZIPF_S = 1.1
#: Jobs per stratified round.
ROUND = 200
WORKERS = 2
#: Set-ups before and again after the timed loop, each batch spanning
#: about a second; ``setup_s`` is the median of these and of the loop's
#: own start of a new service every round.
SETUP_REPS = 25
#: Start-up job, outside the universe: the first pass pays the pool and
#: planner warm-up that a freshly started service pays.
WARM_UP = {"kind": "plan", "model": "tiny_cnn", "batch_size": 4}
#: Fresh train jobs of the loop replayed by the final check.
REPLAY_FRESH = 8


def _train(model: str, policy: str, wire_codec: str, seed: int) -> dict:
    return {"kind": "train", "model": model, "policy": policy,
            "wire_codec": wire_codec, "batch_size": 16, "shards": 2,
            "steps": 2, "seed": seed}


#: First seed of the fresh train slots, above every fixed spec's seed.
FRESH_SEED = 1000


def _fresh(model: str, wire_codec: str) -> dict:
    """A fresh train slot; ``seed`` is replaced on every draw."""
    return _train(model, "baseline", wire_codec, FRESH_SEED)


def is_fresh(spec: dict) -> bool:
    return spec.get("seed") == FRESH_SEED


#: The train schema's ``policy`` choices (``repro.serve.spec``), each
#: submitted once after the run to count those the service cannot run.
SCHEMA_POLICIES = ("baseline", "gist")


#: Sixteen schema-valid specs in Zipf rank order, plan and train
#: alternating, every wire codec once.  The fresh tiny_cnn slots (about
#: 14% of jobs, ~75 ms each) and fresh lstm slots (about 4%, ~250 ms)
#: are the two slow modes; a round's first computation of each fixed
#: spec (about 5%, 5-250 ms) spreads across both.  The ranks put p90 in
#: the middle of the tiny_cnn mode and p50 among the cache hits.
#: Train jobs use ``policy: baseline`` only: ``policy: gist`` passes the
#: schema but always fails (see README.md and ``policy_defects``).
UNIVERSE = [
    {"kind": "plan", "model": "tiny_cnn", "batch_size": 8},
    _train("tiny_cnn", "baseline", "auto", 0),
    {"kind": "plan", "model": "scaled_vgg", "batch_size": 16,
     "config": "network"},
    _fresh("tiny_cnn", "rle"),
    {"kind": "plan", "model": "lstm", "batch_size": 16,
     "strategy": "recompute"},
    _fresh("tiny_cnn", "csr"),
    # Same plan-cache key as the scaled_vgg spec above: isomorphic graph
    # under the same policy, different job fingerprint.
    {"kind": "plan", "model": "scaled_vgg", "batch_size": 16,
     "config": "fp16"},
    _train("lstm", "baseline", "dpr-fp16", 3),
    {"kind": "plan", "model": "tiny_cnn", "batch_size": 16,
     "strategy": "gist", "config": "fp8"},
    _train("lstm", "baseline", "dpr-fp8", 4),
    # Same plan-cache key as the first lstm plan.
    {"kind": "plan", "model": "lstm", "batch_size": 16,
     "strategy": "recompute", "rewrite": True},
    _fresh("lstm", "dpr-fp10"),
    {"kind": "plan", "model": "scaled_vgg", "batch_size": 32,
     "strategy": "swap", "budget": 0.3},
    _fresh("tiny_cnn", "fp32"),
    {"kind": "plan", "model": "tiny_cnn", "batch_size": 32,
     "strategy": "shared_concat", "config": "fp10"},
    _fresh("lstm", "auto"),
]


def round_counts(n_specs: int) -> np.ndarray:
    """Times each rank appears in one round: its Zipf share of ROUND,
    rounded by largest remainder."""
    weights = 1.0 / np.arange(1, n_specs + 1) ** ZIPF_S
    share = ROUND * weights / weights.sum()
    counts = np.floor(share).astype(int)
    for k in np.argsort(counts - share)[: ROUND - counts.sum()]:
        counts[k] += 1
    return counts


def job_order(seed: int, n_specs: int) -> Iterator[int]:
    """Endless spec indices: stratified rounds, each shuffled by ``seed``."""
    rng = np.random.default_rng([seed, 3])
    jobs = np.repeat(np.arange(n_specs), round_counts(n_specs))
    while True:
        yield from rng.permutation(jobs).tolist()


class UnitLog:
    """Wraps ``run_units`` inside the service to span and keep results."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.results = []
        self._original = service_module.run_units

    def __enter__(self):
        def run_units(units, **kwargs):
            with self.spans.span("orchestrate.run_units"):
                results = self._original(units, **kwargs)
            kinds = {u.key: u.payload.get("kind") for u in units}
            self.results.extend((kinds[k], r) for k, r in results.items())
            return results

        if self.spans.enabled:
            service_module.run_units = run_units
        return self

    def __exit__(self, *exc) -> None:
        service_module.run_units = self._original


def _state_dir(tag: str):
    path = OUT_DIR / f"serve-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def start_service(tag: str) -> JobService:
    service = JobService(_state_dir(tag), workers=WORKERS)
    service.submit(WARM_UP)
    service.run_pending()
    return service


def timed_starts(tag: str) -> List[float]:
    times = []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        start_service(f"{tag}{rep}")
        times.append(perf_counter() - t0)
    return times


def drive(tag: str, specs: List[dict], seed: int, seeds: Iterator[int],
          seconds: float, spans: Spans) -> dict:
    """Closed loop, one caller, for ``seconds``.

    Every round starts on a new service, so each round does the same
    work: the run journal, which every pass compacts, holds one round's
    pool work at most rather than growing with the run's length."""
    order = job_order(seed, len(specs))
    latencies, jobs, fresh, starts = [], [], [], []
    failed = mismatched = 0
    first_digest: Dict[str, str] = {}
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        if len(latencies) % ROUND == 0:
            t0 = perf_counter()
            service = start_service(f"{tag}{len(latencies) // ROUND % 2}")
            starts.append(perf_counter() - t0)
        slot = specs[next(order)]
        spec = dict(slot, seed=next(seeds)) if is_fresh(slot) else slot
        t0 = perf_counter()
        service.submit(spec)
        with spans.span("serve.pass"):
            report = service.run_pending()
        latencies.append(perf_counter() - t0)
        (record,) = report.jobs
        jobs.append((record.fingerprint, record.kind, record.source))
        if not record.ok:
            failed += 1
            continue
        seen = first_digest.setdefault(record.fingerprint, record.digest)
        mismatched += seen != record.digest
        if record.kind == "train" and record.source == "computed":
            jobs[-1] += (record.result,)
            if is_fresh(slot):
                fresh.append(spec)
    return {
        "service": service,
        "starts_s": starts,
        "latencies_s": latencies,
        "jobs": jobs,
        "fresh": fresh,
        "failed": failed,
        "mismatched": mismatched,
        "digests": first_digest,
        "elapsed_s": perf_counter() - start,
    }


def replay_check(specs: List[dict], driven: dict) -> dict:
    """Resubmit the fixed specs and the last fresh ones to the loop's
    last service: every fingerprint answered before must return the
    digest of its first computation.  Also sums the plan results behind
    memory_mb and mfr."""
    service = driven["service"]
    digests = driven["digests"]
    replay = [spec for spec in specs if not is_fresh(spec)]
    replay += driven["fresh"][-REPLAY_FRESH:]
    for spec in replay:
        if (spec["kind"] == "plan"
                or validate_job_spec(spec).fingerprint() in digests):
            service.submit(spec)
    report = service.run_pending()
    failed = 0
    footprint, ratios = 0, []
    for record in report.jobs:
        if record.fingerprint in digests:
            failed += record.digest != digests[record.fingerprint]
        elif not record.ok:
            failed += 1
        if record.kind == "plan" and record.ok:
            footprint += record.result["plan"]["allocated_bytes"]
            ratios.append(record.result["plan"]["footprint_ratio"])
    return {"checks": len(report.jobs), "failed": failed,
            "memory_mb": footprint / 2**20, "mfr": geomean(ratios)}


def recompute_check(driven: dict) -> dict:
    """Compute the first fresh train job of each model again in a new
    service: a train result is a pure function of its spec, so the
    digest must equal the loop's."""
    firsts = {}
    for spec in driven["fresh"]:
        firsts.setdefault(spec["model"], spec)
    service = start_service("recompute")
    for spec in firsts.values():
        service.submit(spec)
    report = service.run_pending()
    failed = sum(record.digest != driven["digests"].get(record.fingerprint)
                 for record in report.jobs)
    return {"checks": len(report.jobs), "failed": failed}


def policy_defects() -> int:
    """Schema-valid train policies the service answers with an error.

    Counted once per run in a service of its own, outside the timed loop
    and outside ``attempted``: a known defect reported as a per-layer
    metric (see README.md)."""
    service = start_service("policies")
    for policy in SCHEMA_POLICIES:
        service.submit(_train("tiny_cnn", policy, "fp32", FRESH_SEED - 1))
    return sum(not record.ok for record in service.run_pending().jobs)


def _layer_metrics(spans: Spans, log: UnitLog, driven: dict,
                   repeat_share: float, untraced: List[float],
                   defects: int) -> dict:
    per_pass = spans.self_times("serve.pass")
    out = {f"{name}_ms": 1e3 * mean(vals) for name, vals in per_pass.items()}
    jobs = driven["jobs"]
    plan_misses = [source for _, kind, source, *_ in jobs
                   if kind == "plan" and source != "result-cache"]
    train_units = [r for kind, r in log.results if kind == "train" and r.ok]
    train_results = [job[3] for job in jobs if len(job) > 3]
    out.update({
        "serve.result_cache_hit_ratio":
            sum(source == "result-cache" for _, _, source, *_ in jobs)
            / len(jobs),
        "serve.plan_cache_hit_ratio":
            plan_misses.count("plan-cache") / max(1, len(plan_misses)),
        "orchestrate.failed_units": sum(not r.ok for _, r in log.results),
        "orchestrate.retries": sum(r.attempts - 1 for _, r in log.results),
        "distributed.train_job_ms":
            1e3 * mean([r.elapsed_s for r in train_units]),
        "distributed.wire_bytes":
            mean([r["total_wire_bytes"] for r in train_results]),
        "distributed.wire_reduction":
            mean([r["wire_reduction"] for r in train_results]),
        "serve.policy_defects": defects,
        "bench.repeat_share": repeat_share,
        "bench.trace_overhead":
            median(driven["latencies_s"]) / median(untraced),
    })
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    specs = UNIVERSE
    try:
        setups = timed_starts("setup-before")
        spans = new_spans(trace)
        seeds = itertools.count(FRESH_SEED + 1)
        if trace:
            seconds /= 2
            untraced = drive("untraced", specs, seed, seeds, seconds,
                             new_spans(False))["latencies_s"]
        with UnitLog(spans) as log:
            driven = drive("run", specs, seed, seeds, seconds, spans)
            rss = peak_rss_mb()
            # Inside the log, so the defect's failed pool units count in
            # orchestrate.failed_units and orchestrate.retries.
            defects = policy_defects()
        setups += driven["starts_s"] + timed_starts("setup-after")
        replay = replay_check(specs, driven)
        recompute = recompute_check(driven)
    finally:
        for path in OUT_DIR.glob(f"serve-{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)

    n = len(driven["latencies_s"])
    repeat_share = 1.0 - len({fp for fp, *_ in driven["jobs"]}) / n
    incorrect = driven["mismatched"] + replay["failed"] + recompute["failed"]
    result = {
        "attempted": n + replay["checks"] + recompute["checks"],
        "failed": driven["failed"] + incorrect,
        "incorrect": incorrect,
        "latencies_s": driven["latencies_s"],
        "ops_per_s": (n - driven["failed"]) / driven["elapsed_s"],
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "memory_mb": replay["memory_mb"],
        "mfr": replay["mfr"],
        "repeat_share": repeat_share,
        "policy_defects": defects,
    }
    if trace:
        result["layers"] = _layer_metrics(spans, log, driven, repeat_share,
                                          untraced, defects)
        result["spans"] = spans
    return result
