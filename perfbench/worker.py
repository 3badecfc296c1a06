"""Child process of the benchmark: set up a workload, or run its calls.

    python3 perfbench/worker.py setup WORKLOAD DIR REPEATS SECONDS
    python3 perfbench/worker.py calls WORKLOAD DIR SEED SECONDS TRACE

Each mode runs in a fresh process, so that the `ru_maxrss` of a calls
process belongs to that workload's calls alone. The last line of standard
output is a JSON object with the results.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pilab import cli, gallery  # noqa: E402
from workloads import CHECKS, PROBES, WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def generate(space, directory):
    """Generate and save one space file; return its base point."""
    generated = gallery.generate(gallery.GallerySpec(**space.spec))
    gallery.save_space(generated, directory / f"{space.stem}.json")
    if space.base == "sector_union_origin":
        return gallery.sector_union_origin(generated)
    return space.base


def setup(workload, directory, repeats, seconds):
    """Generate and save the workload's space, at least `repeats` times and
    for at least `seconds`; time each."""
    times = []
    while len(times) < repeats or sum(times) < seconds:
        start = time.perf_counter()
        base = generate(workload.space, directory)
        times.append(time.perf_counter() - start)
    (directory / "base.json").write_text(json.dumps(int(base)))
    return {"setup_s": times}


def failure(rc, error, report):
    """Why a call counts as failed, or None when it does not."""
    if error is not None:
        return f"raised {error}"
    if rc == 1:
        return "exit code 1"
    try:
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        passed = {"True": True, "False": False}[rows[0]["pass"]]
        theoretical = float(rows[0]["theoretical"])
    except (OSError, LookupError, ValueError, TypeError):
        return "no report that parses"
    if len(rows) != 1:
        return "no report that parses"
    if rc != (0 if passed else 2):
        return f"exit code {rc} disagrees with pass={passed}"
    if passed and not math.isfinite(theoretical):
        return f"pass with non-finite theoretical={theoretical}"
    return None


def run_call(cli, argv, report, tracer, label):
    """One in-process `pilab verify` call: (seconds, failure, report bytes)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    error = rc = None
    sink = io.StringIO()
    scope = tracer.call(label) if tracer is not None else contextlib.nullcontext()
    with scope, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            error = type(exc).__name__
        seconds = time.perf_counter() - start
    try:
        body = Path(report).read_bytes()
    except FileNotFoundError:
        body = b"<no report>"
    return seconds, failure(rc, error, report), body


def calls(workload, directory, seed, seconds, trace):
    bases = {workload.space.stem: json.loads((directory / "base.json").read_text())}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def argv(space, check, report):
        return [
            "verify",
            "--space", str(directory / f"{space.stem}.json"),
            "--o", str(bases[space.stem]),
            "--kappa", repr(space.kappa),
            "--seed", str(seed),
            "--deterministic-output",
            *CHECKS[check],
            "-o", str(report),
        ]

    plan = [(workload.space, check) for check in workload.checks]
    labels = [f"{space.stem}:{check}" for space, check in plan]
    report = directory / "report.csv"
    batches = []
    reports = {}
    consistent = True
    started = time.perf_counter()
    while not batches or time.perf_counter() - started < seconds:
        batch_start = time.perf_counter()
        times, failures = [], []
        for (space, check), label in zip(plan, labels):
            t, failed, body = run_call(cli, argv(space, check, report), report, tracer, label)
            times.append(t)
            failures.append(failed)
            consistent &= reports.setdefault(label, body) == body
        batches.append(
            {"batch_s": time.perf_counter() - batch_start, "times": times, "failures": failures}
        )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
    probes = []
    for space, check in PROBES:
        bases[space.stem] = generate(space, directory)
        label = f"{space.stem}:{check}"
        _, failed, body = run_call(cli, argv(space, check, report), report, None, label)
        probes.append({"label": label, "failure": failed})
        reports[label] = body

    digest = hashlib.sha256()
    for label, body in reports.items():
        digest.update(label.encode() + b"\0" + body + b"\0")

    result = {
        "labels": labels,
        "batches": batches,
        "probes": probes,
        "consistent": consistent,
        "report_digest": digest.hexdigest(),
        "peak_rss_mb": peak_kb / 1024.0,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        },
    }
    if tracer is not None:
        spans_path = directory / "spans.json"
        tracer.write_spans(spans_path)
        result["trace"] = {
            "self_times": tracer.self_times(),
            "counters": [c["counters"] for c in tracer.calls],
            "missing": tracer.missing,
            "spans_file": str(spans_path),
        }
    return result


def main(argv):
    mode, name, directory = argv[0], argv[1], Path(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload, directory, int(argv[3]), float(argv[4]))
    else:
        seed, seconds, trace = int(argv[3]), float(argv[4]), argv[5] == "1"
        result = calls(workload, directory, seed, seconds, trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
