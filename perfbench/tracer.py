"""Outside-in tracer for `pilab verify` calls.

The tracer changes nothing in `src/`. It replaces public functions of pilab
with timing wrappers, each under the name its caller looks up: `verify`
imported `kappa_decomposition` from `covering`, so the wrapper goes on
`pilab.verify.kappa_decomposition`. Every wrapper records a span (name,
parent span, call, start, end); spans stay in memory and are written out when
the run ends. A layer's self time is its spans' durations minus the time of
their child spans, so the self times of one call add up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

# (module, attribute, span name). Span names are "<layer>.<step>".
TARGETS = (
    ("pilab.gallery", "load_space", "gallery.load"),
    ("pilab.gallery", "build_space", "space.build"),
    ("pilab.verify", "make_family", "verify.family"),
    ("pilab.verify", "doubling_profile", "profile.doubling"),
    ("pilab.verify", "measure_poincare", "profile.poincare"),
    ("pilab.verify", "eta_fit", "profile.eta"),
    ("pilab.verify", "kappa_decomposition", "covering.decompose"),
    ("pilab.verify", "expand_covering", "covering.expand"),
    ("pilab.verify", "validate_covering", "covering.validate"),
    ("pilab.verify", "build_covering_graph", "graph_ineq.build"),
    ("pilab.verify", "isoperimetric_constant", "graph_ineq.iso"),
    ("pilab.verify", "graph_profile", "graph_ineq.profile"),
    ("pilab.verify", "hardy_check", "verify.check"),
    ("pilab.verify", "weighted_sobolev_check", "verify.check"),
    ("pilab.verify", "annulus_piece_check", "verify.check"),
    ("pilab.verify", "space_hash", "verify.hash"),
    ("pilab.verify", "write_reports_csv", "verify.write"),
)
DIST_TARGET = ("pilab.space", "FiniteMetricMeasureSpace", "dist_from", "space.dist")
ROOT = "cli"

# Self-time metric of each span name. A check's self time is the sweep, the
# constant assembly and the annulus fattening loop: everything in the check
# that is not one of the wrapped functions above.
TIME_METRICS = {
    "gallery.load": "gallery.load_s",
    "space.build": "space.build_s",
    "space.dist": "space.dist_s",
    "profile.doubling": "profile.doubling_s",
    "profile.poincare": "profile.poincare_s",
    "profile.eta": "profile.eta_s",
    "covering.decompose": "covering.decompose_s",
    "covering.expand": "covering.expand_s",
    "covering.validate": "covering.validate_s",
    "graph_ineq.build": "graph_ineq.build_s",
    "graph_ineq.iso": "graph_ineq.iso_s",
    "graph_ineq.profile": "graph_ineq.profile_s",
    "verify.family": "verify.family_s",
    "verify.check": "verify.check_self_s",
    "verify.hash": "verify.hash_s",
    "verify.write": "verify.write_s",
    ROOT: "cli.self_s",
}
# Counters kept per call. Sums are per batch; the "max_" ones are the largest
# value seen in one call.
COUNTERS = (
    "dist_calls",
    "dist_rows",
    "max_dist_bytes",
    "doubling_calls",
    "poincare_calls",
    "max_pieces",
    "iso_calls",
    "iso_exact",
    "max_iso_interior",
    "family_size",
    "sweep_fns",
)


def held_distance_bytes(space):
    """Bytes of distances a space holds: its dense matrix and its cached rows."""
    dense = space._dist.nbytes if space._dist is not None else 0
    return dense + sum(row.nbytes for row in space._dist_cache.values())


class Tracer:
    """Spans and counters of traced `pilab verify` calls.

    Use `install()` once, wrap each call in `with tracer.call(label):`, and
    `uninstall()` at the end.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, call index, start, end]
        self.calls = []  # per call: {"label", "counters"}
        self.missing = []  # (target, reason) for wrappers that could not be set
        self._stack = []
        self._undo = []
        self._space = None

    # -- recording ---------------------------------------------------------

    def count(self, name, k=1):
        if self.calls:
            self.calls[-1]["counters"][name] += k

    def _peak(self, name, value):
        counters = self.calls[-1]["counters"]
        counters[name] = max(counters[name], value)

    def _enter(self, name):
        record = [name, self._stack[-1] if self._stack else -1, len(self.calls) - 1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[3] = time.perf_counter()
        return record

    def _exit(self, record):
        record[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def call(self, label):
        """Root span of one `pilab verify` call."""
        self.calls.append({"label": label, "counters": dict.fromkeys(COUNTERS, 0)})
        record = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(record)
            if self._space is not None:
                # Each call loads its own space, and a row enters the cache
                # only when dist_from computes it after construction.
                self.count("dist_rows", len(self._space._dist_cache))
                self._peak("max_dist_bytes", held_distance_bytes(self._space))
            self._space = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(record)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self):
        after = {
            "gallery.load": self._after_load,
            "profile.doubling": lambda a, k, r: self.count("doubling_calls"),
            "profile.poincare": lambda a, k, r: self.count("poincare_calls"),
            "covering.decompose": lambda a, k, r: self._peak("max_pieces", len(r.pieces)),
            "graph_ineq.iso": self._after_iso,
            "verify.family": lambda a, k, r: self.count("family_size", len(r)),
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append((f"{module_name}.{attr}", "no such attribute"))
                continue
            hook = after.get(name)
            if name == "verify.check":
                hook = self._sweep_counter(getattr(module, attr))
            self._wrap(module, attr, name, hook)
        self._wrap_space()

    def _wrap_space(self):
        module_name, cls_name, attr, name = DIST_TARGET
        module = importlib.import_module(module_name)
        cls = getattr(module, cls_name, None)
        if cls is None or not hasattr(cls, attr):
            self.missing.append((f"{module_name}.{cls_name}.{attr}", "no such attribute"))
            return
        self._wrap(cls, attr, name, lambda a, k, r: self.count("dist_calls"))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _after_load(self, args, kwargs, space):
        self._space = space

    def _after_iso(self, args, kwargs, result):
        graph = args[0] if args else kwargs["graph"]
        self.count("iso_calls")
        self.count("iso_exact", int(bool(result.exact)))
        self._peak("max_iso_interior", len(graph.interior))

    def _sweep_counter(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            family = signature.bind(*args, **kwargs).arguments.get("family", ())
            self.count("sweep_fns", len(family))

        return after

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per call, the self time of each span name."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = [dict() for _ in self.calls]
        for (name, _, call, start, end), covered in zip(self.spans, child):
            per = out[call]
            per[name] = per.get(name, 0.0) + (end - start - covered)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "parent", "call", "start_s", "end_s"],
                    "calls": [c["label"] for c in self.calls],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(self_times, counters, n_batches):
    """Per-layer metrics of a traced run, per batch of the workload."""
    totals = {}
    for per in self_times:
        for name, seconds in per.items():
            totals[name] = totals.get(name, 0.0) + seconds
    metrics = {metric: totals.get(span, 0.0) / n_batches for span, metric in TIME_METRICS.items()}
    sums = {name: sum(c[name] for c in counters) for name in COUNTERS}
    peaks = {name: max((c[name] for c in counters), default=0) for name in COUNTERS}
    calls = sums["dist_calls"]
    metrics.update(
        {
            "space.dist_calls": sums["dist_calls"] / n_batches,
            "space.dist_rows": sums["dist_rows"] / n_batches,
            "space.row_hit_ratio": (calls - sums["dist_rows"]) / calls if calls else 1.0,
            "space.dist_bytes": peaks["max_dist_bytes"],
            "profile.doubling_calls": sums["doubling_calls"] / n_batches,
            "profile.poincare_calls": sums["poincare_calls"] / n_batches,
            "covering.pieces": peaks["max_pieces"],
            "graph_ineq.iso_interior": peaks["max_iso_interior"],
            "graph_ineq.iso_exact_frac": (
                sums["iso_exact"] / sums["iso_calls"] if sums["iso_calls"] else 0.0
            ),
            "verify.family_size": sums["family_size"] / n_batches,
            "verify.sweep_fns": sums["sweep_fns"] / n_batches,
        }
    )
    return metrics
