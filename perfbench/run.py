"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cnn_gist --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it name the same results the way the
workload's users would (samples/s, jobs/s).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import serve_zipf  # noqa: E402
import train_loops  # noqa: E402
from common import OUT_DIR, percentile, tail_percentile  # noqa: E402

RUNNERS = {
    "cnn_gist": train_loops.run,
    "lstm_hybrid": train_loops.run,
    "serve_zipf": serve_zipf.run,
}

#: What one operation is, per workload, for the readable report.
OP_NAMES = {
    "cnn_gist": "step",
    "lstm_hybrid": "step",
    "serve_zipf": "job",
}


def end_to_end(result: dict) -> dict:
    latencies = result["latencies_s"]
    ops_per_s = result.get("ops_per_s", len(latencies) / sum(latencies))
    return {
        "setup_s": result["setup_s"],
        "ops_per_s": ops_per_s,
        "op_ms_p50": 1e3 * percentile(latencies, 50),
        "op_ms_p90": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": result["peak_rss_mb"],
        "memory_mb": result["memory_mb"],
        "mfr": result["mfr"],
    }


def report_lines(workload: str, result: dict, metrics: dict) -> list:
    """The workload's results under the names its users know."""
    op = OP_NAMES[workload]
    latencies = result["latencies_s"]
    n = len(latencies)
    rows = [("setup_s", metrics["setup_s"], "s")]
    if op == "step":
        rows.append(("samples_per_s",
                     metrics["ops_per_s"] * result["batch_size"], "1/s"))
    else:
        rows.append((f"{op}s_per_s", metrics["ops_per_s"], "1/s"))
    rows.append((f"{op}_ms_p50", metrics["op_ms_p50"], "ms"))
    tail = tail_percentile(n)
    if tail is not None and tail > 50:
        rows.append((f"{op}_ms_p{tail:g}",
                     1e3 * percentile(latencies, tail), "ms"))
    memory = {"step": "stash_mb", "job": "plan_footprint_mb"}[op]
    rows.append((memory, metrics["memory_mb"], "MB"))
    rows.append(("mfr", metrics["mfr"], "x"))
    if op == "step":
        rows.append(("loss_final", result["loss_final"], "loss"))
        rows.append(("stash_sparsity", result["sparsity"], "ratio"))
    if op == "job":
        rows.append(("repeat_share", result["repeat_share"], "ratio"))
        rows.append(("policy_defects", result["policy_defects"], "count"))
    rows.append(("fail_ratio", result["failed"] / result["attempted"],
                 "ratio"))
    rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB"))
    lines = [f"{workload}: {n} {op}s timed"]
    lines += [f"  {name:<18} {value:>14.6g} {unit}" for name, value, unit
              in rows]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    result = RUNNERS[args.workload](args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    e2e = end_to_end(result)
    for line in report_lines(args.workload, result, e2e):
        print(line)

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        result["spans"].dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        # A layer the workload bypasses did no work: 0.
        values = {m["name"]: result["layers"].get(m["name"], 0.0)
                  for m in declared}
    else:
        values = {m["name"]: e2e[m["name"]] for m in declared}

    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
