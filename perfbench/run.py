"""Benchmark of `pilab verify`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run:

1. in a fresh process, sets the workload up again and again (SETUP_REPEATS,
   SETUP_SECONDS): each time it generates and saves the space file with
   `pilab.gallery`;
2. in another fresh process, calls `pilab.cli.main(["verify", ...])` on
   that file one call after another, in a closed loop, repeating the
   workload's batch of calls until S seconds have passed (at least once);
3. checks every call's report and prints the metrics.

With `--trace 0` the last line of output holds the end-to-end metrics. With
`--trace 1` it holds the per-layer metrics of a traced calls process, and the
lines above it give the tracing overhead against an untraced one.
`--workload all` runs every workload in turn. Work files go to `.perfbench/`
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TIME_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run sets up at least SETUP_REPEATS times and for at least SETUP_SECONDS;
# setup_s is the fastest set-up, for the reason given in summarize().
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
# Every run, with all of its child processes, ends within this many seconds.
DEADLINE_S = 170.0

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class BenchError(Exception):
    pass


def child(args, deadline):
    """Run perfbench/worker.py in a fresh process; return its JSON result."""
    what = " ".join(map(str, args[:2]))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {what}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(result):
    """End-to-end metrics and checks of one calls process.

    Each distinct call's time is its fastest repeat in the run. The work of
    a call is the same on every repeat, so slower repeats measure other load
    on the host, which on a shared machine swings by tens of percent from
    one minute to the next.
    """
    labels = result["labels"]
    batches = result["batches"]
    per_call = {}
    for b in batches:
        for label, t in zip(labels, b["times"]):
            per_call.setdefault(label, []).append(t)
    best = {label: min(ts) for label, ts in per_call.items()}
    failures = [f for b in batches for f in b["failures"]]
    return {
        "metrics": {
            "batch_s": sum(best[label] for label in labels),
            "verdict_p50_s": statistics.median(best.values()),
            "verdict_max_s": max(best.values()),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "batch_wall_s": statistics.median(b["batch_s"] for b in batches),
        "attempted": len(failures),
        "failed": sum(f is not None for f in failures),
        "failures": sorted({f"{l}: {f}" for l, f in zip(labels * len(batches), failures) if f}),
        "batches": len(batches),
    }


def run_workload(name, seed, seconds, trace, deadline):
    directory = ROOT / ".perfbench" / name
    directory.mkdir(parents=True, exist_ok=True)
    setups = child(["setup", name, directory, SETUP_REPEATS, SETUP_SECONDS], deadline)["setup_s"]
    # A traced run reports no end-to-end metrics, so its untraced and traced
    # calls processes share the run's time.
    if trace:
        seconds /= 2
    plain = child(["calls", name, directory, seed, seconds, 0], deadline)
    summary = summarize(plain)
    summary["metrics"] = {"setup_s": min(setups), **summary["metrics"]}
    out = [
        f"{name} seed={seed}: {summary['batches']} batches, {summary['attempted']} calls, "
        f"{summary['failed']} failed, median batch wall time {summary['batch_wall_s']:.4f} s",
        "  " + " | ".join(f"{k} {v:.6g} {UNITS[k]}" for k, v in summary["metrics"].items()),
        f"  failed_frac {summary['failed'] / summary['attempted']:.6g} share "
        f"({summary['failed']}/{summary['attempted']} timed calls)",
        f"  report_digest {plain['report_digest']}",
    ]
    out += [f"  failed {f}" for f in summary["failures"]]
    failed_probes = sum(p["failure"] is not None for p in plain["probes"])
    out.append(f"  probes {failed_probes}/{len(plain['probes'])} failed")
    out += [f"    {p['label']}: {p['failure'] or 'ok'}" for p in plain["probes"]]
    out.append("  env " + " ".join(f"{k}={v}" for k, v in plain["env"].items()))
    correct = summary["failed"] == 0 and plain["consistent"]
    if not plain["consistent"]:
        out.append("  reports differ between repeats of the same call")
    metrics = summary["metrics"]

    if trace:
        traced = child(["calls", name, directory, seed, seconds, 1], deadline)
        tr = traced["trace"]
        metrics = layer_metrics(tr["self_times"], tr["counters"], len(traced["batches"]))
        traced_batch = summarize(traced)["metrics"]["batch_s"]
        overhead = traced_batch - summary["metrics"]["batch_s"]
        correct &= traced["report_digest"] == plain["report_digest"]
        out.append(
            f"  trace overhead {overhead:+.4f} s per batch "
            f"(traced batch_s {traced_batch:.4f} - untraced {summary['metrics']['batch_s']:.4f})"
        )
        out.append(f"  spans written to {tr['spans_file']}")
        out += [f"  dropped {target}: {reason}" for target, reason in tr["missing"]]
        out += per_call_table(traced["labels"], tr["self_times"], tr["counters"])
    print("\n".join(out), flush=True)
    return {
        "correct": bool(correct),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def per_call_table(labels, self_times, counters):
    """Largest self times and distance rows of each distinct call's first repeat."""
    lines = ["  per call: largest self times, distance rows"]
    seen = set()
    for label, per, count in zip(labels, self_times, counters):
        if label in seen:
            continue
        seen.add(label)
        top = sorted(per.items(), key=lambda kv: -kv[1])[:4]
        lines.append(
            f"    {label}: "
            + ", ".join(f"{TIME_METRICS[k]} {v:.4f}" for k, v in top)
            + f"; dist_rows {count['dist_rows']}, dist_calls {count['dist_calls']}"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pilab" / "cli.py").is_file():
        print(f"error: no pilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
