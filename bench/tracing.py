"""Traced in-process invocation of the causal-ssd CLI, and the per-layer metrics.

Run as a script, it imports the package from ``src/``, replaces each traced
function at the module attribute its callers look it up through with a
wrapper that records a span (name, start, end, parent, pid, payload), calls
``causal_ssd.cli.main`` with the given arguments, and writes the spans to a
JSON file when the run ends::

    python3 bench/tracing.py SPANS.json plan --graph g.txt --data d.csv ...

Spans stay in memory until then.  Pool workers are separate processes, so
``ssd.ProcessPoolExecutor`` is replaced by a subclass whose workers run each
task under a fresh span list and send the spans back with the result; the
parent attaches them under the span that was open when ``map`` was called
(``ssd.plan_cpdag``).  A span's self time is its duration minus the part of
that interval that its child spans cover, so time that two workers spend in
parallel is not subtracted twice from ``plan_cpdag``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, attribute, span name, payload) for every traced call site.
# Payloads: "len" records len(result), "count" the draw count of a sample,
# "bytes" the size of the written text.
TRACED = (
    ("predictive", "sample_wishart", "numerics.sample_wishart", None),
    ("ssd", "sample_bf_h1", "predictive.sample_bf_h1", "count"),
    ("harness", "sample_bf_h1", "predictive.sample_bf_h1", "count"),
    ("cli", "sample_bf_h1", "predictive.sample_bf_h1", "count"),
    ("harness", "sample_bf_h0", "predictive.sample_bf_h0", None),
    ("cli", "sample_bf_h0", "predictive.sample_bf_h0", None),
    ("ssd", "prob_bf_band_h0", "predictive.prob_bf_band_h0", None),
    ("harness", "prob_bf_band_h0", "predictive.prob_bf_band_h0", None),
    ("ssd", "h0_band_probabilities", "ssd.h0_band_probabilities", None),
    ("harness", "h0_band_probabilities", "ssd.h0_band_probabilities", None),
    ("ssd", "optimal_n_edge", "ssd.optimal_n_edge", None),
    ("cli", "plan_cpdag", "ssd.plan_cpdag", None),
    ("ssd", "chain_components", "graph.chain_components", None),
    ("cli", "chain_components", "graph.chain_components", None),
    ("ssd", "enumerate_class", "graph.enumerate_class", "len"),
    ("design", "enumerate_class", "graph.enumerate_class", "len"),
    ("cli", "enumerate_class", "graph.enumerate_class", "len"),
    ("design", "meek_closure", "graph.meek_closure", None),
    ("ssd", "optimal_sequences", "design.optimal_sequences", "len"),
    ("ssd", "prior_h0", "design.prior_h0", None),
    ("cli", "prior_h0", "design.prior_h0", None),
    ("cli", "parse_edge_list", "graph.parse_edge_list", None),
    ("cli", "ingest_csv", "harness.ingest_csv", None),
    ("cli", "replicate_two_node_study", "harness.replicate_two_node_study", None),
    ("cli", "write_json", "harness.write_json", None),
    ("cli", "atomic_write_text", "harness.atomic_write_text", "bytes"),
    ("harness", "atomic_write_text", "harness.atomic_write_text", "bytes"),
    ("cli", "bf_samples_csv", "harness.bf_samples_csv", None),
    ("cli", "threshold_curves_csv", "harness.threshold_curves_csv", None),
    ("cli", "nstar_curve_csv", "harness.nstar_curve_csv", None),
    ("cli", "dce_curve_csv", "harness.dce_curve_csv", None),
)
SERIALIZE = {
    "harness.write_json",
    "harness.atomic_write_text",
    "harness.bf_samples_csv",
    "harness.threshold_curves_csv",
    "harness.nstar_curve_csv",
    "harness.dce_curve_csv",
}

NAME, START, END, PARENT, PID, PAYLOAD = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def reset(self) -> None:
        self.spans, self.stack = [], []

    def wrap(self, name: str, fn, payload: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, os.getpid(), 0]
            self.spans.append(span)
            self.stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if payload == "len":
                span[PAYLOAD] = len(result)
            elif payload == "count":
                span[PAYLOAD] = result.count
            elif payload == "bytes":
                text = args[1] if len(args) > 1 else kwargs["text"]
                span[PAYLOAD] = len(text.encode())
            return result

        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in another process, re-rooted under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            self.spans.append(span)


TRACER = Tracer()
_installed = False


def install() -> None:
    """Wrap every call site in TRACED; idempotent, so forked workers may call it."""
    global _installed
    if _installed:
        return
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    for module, attr, name, payload in TRACED:
        mod = importlib.import_module(f"causal_ssd.{module}")
        setattr(mod, attr, TRACER.wrap(name, getattr(mod, attr), payload))
    importlib.import_module("causal_ssd.ssd").ProcessPoolExecutor = TracedPool
    _installed = True


def _traced_task(fn, *args):
    install()
    TRACER.reset()
    result = fn(*args)
    return result, TRACER.spans


class TracedPool(ProcessPoolExecutor):
    """Process pool whose workers send their spans back with each result."""

    def map(self, fn, *iterables, **kwargs):
        parent = TRACER.stack[-1] if TRACER.stack else -1
        calls = [list(it) for it in iterables]
        for result, spans in super().map(_traced_task, [fn] * len(calls[0]), *calls, **kwargs):
            TRACER.adopt(spans, parent)
            yield result


def run(spans_path: str, argv: list[str]) -> int:
    install()
    from causal_ssd import cli

    main = TRACER.wrap("cli.main", cli.main)
    try:
        return main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(TRACER.spans, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[list], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(i)

    def duration(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def self_time(i: int) -> float:
        lo, hi = spans[i][START], spans[i][END]
        kids = [(spans[k][START], spans[k][END]) for k in children.get(i, ())]
        return duration(i) - _covered(kids, lo, hi)

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def total(name: str) -> float:
        return sum((duration(i) for i in by_name.get(name, ())), 0.0)

    def own(name: str) -> float:
        return sum((self_time(i) for i in by_name.get(name, ())), 0.0)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def payload(name: str) -> int:
        return sum(spans[i][PAYLOAD] for i in by_name.get(name, ()))

    def under_edge(name: str) -> int:
        return sum(1 for i in by_name.get(name, ())
                   if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "ssd.optimal_n_edge")

    evaluated = under_edge("predictive.sample_bf_h1")
    top_serialize = [i for name in SERIALIZE for i in by_name.get(name, ())
                     if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] not in SERIALIZE]
    s, c = "s", "count"
    return {
        "numerics.sample_wishart_s": (total("numerics.sample_wishart"), s),
        "numerics.sample_wishart_calls": (calls("numerics.sample_wishart"), c),
        "predictive.sample_bf_h1_s": (own("predictive.sample_bf_h1"), s),
        "predictive.sample_bf_h1_calls": (calls("predictive.sample_bf_h1"), c),
        "predictive.h1_draws": (payload("predictive.sample_bf_h1"), c),
        "predictive.sample_bf_h0_s": (total("predictive.sample_bf_h0"), s),
        "predictive.prob_bf_band_h0_s": (total("predictive.prob_bf_band_h0"), s),
        "predictive.prob_bf_band_h0_calls": (calls("predictive.prob_bf_band_h0"), c),
        "ssd.optimal_n_edge_s": (own("ssd.optimal_n_edge"), s),
        "ssd.edge_tasks": (calls("ssd.optimal_n_edge"), c),
        # every scanned n makes one h0_band_probabilities call for the skip
        # bound, and every evaluated n one more inside combine_dce
        "ssd.grid_points_scanned": (under_edge("ssd.h0_band_probabilities") - evaluated, c),
        "ssd.grid_points_evaluated": (evaluated, c),
        "ssd.h0_band_probabilities_calls": (calls("ssd.h0_band_probabilities"), c),
        "ssd.plan_cpdag_self_s": (own("ssd.plan_cpdag"), s),
        "graph.enumerate_class_s": (total("graph.enumerate_class"), s),
        "graph.enumerate_class_calls": (calls("graph.enumerate_class"), c),
        "graph.class_members": (payload("graph.enumerate_class"), c),
        "graph.meek_closure_s": (total("graph.meek_closure"), s),
        "graph.meek_closure_calls": (calls("graph.meek_closure"), c),
        "graph.chain_components_s": (total("graph.chain_components"), s),
        "graph.parse_edge_list_s": (total("graph.parse_edge_list"), s),
        "design.optimal_sequences_s": (own("design.optimal_sequences"), s),
        "design.sequences_found": (payload("design.optimal_sequences"), c),
        "design.prior_h0_s": (total("design.prior_h0"), s),
        "design.prior_h0_calls": (calls("design.prior_h0"), c),
        "harness.ingest_csv_s": (total("harness.ingest_csv"), s),
        "harness.replicate_two_node_study_s": (own("harness.replicate_two_node_study"), s),
        "harness.serialize_s": (sum(duration(i) for i in top_serialize), s),
        "harness.output_bytes": (payload("harness.atomic_write_text"), "bytes"),
        "cli.main_s": (total("cli.main"), s),
        "cli.self_s": (own("cli.main"), s),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, s),
    }


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
