"""Which program functions each layer's spans wrap, and the per-layer metrics.

The layer names are the program's module names.  Query-path times and
counts are normalised per query probe (one query against one PM-LSH
index; a sharded engine probes every shard), so runs of different length
compare directly.  A layer a workload does not exercise reads 0: for
example the process engine runs ``core``/``pmtree``/``kernels`` inside
worker processes, which the parent's spans cannot see.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from perfbench.trace import Recorder, Span, Wrapping, self_times, union_length

LAYERS = ("core", "pmtree", "kernels", "baselines", "engine", "parallel", "serving", "lifecycle")

#: The dispatched kernels whose calls the kernels layer times.
KERNELS = (
    "leaf_prune",
    "inner_prune",
    "pair_distances",
    "verify_distances",
    "budget_cut",
    "group_topk",
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Dict[str, str] = {
    "core.fit_s": "s",
    "core.project_ms": "ms",
    "core.probe_self_ms": "ms",
    "core.candidates_per_query": "count",
    "core.rounds_per_query": "count",
    "core.verify_yield": "ratio",
    "pmtree.batch_range_ms": "ms",
    "pmtree.nodes_per_query": "count",
    "pmtree.dist_comps_per_query": "count",
    "pmtree.flatten_ms": "ms",
    "pmtree.flatten_calls": "count",
    **{f"kernels.{name}_ms": "ms" for name in KERNELS},
    **{f"kernels.{name}_calls": "count" for name in KERNELS},
    "baselines.exact_ms": "ms",
    "engine.run_ms": "ms",
    "engine.shard_ms_max": "ms",
    "engine.shard_ms_mean": "ms",
    "engine.merge_ms": "ms",
    "parallel.publish_ms": "ms",
    "parallel.publishes": "count",
    "parallel.bytes_published": "bytes",
    "parallel.ipc_roundtrips": "count",
    "parallel.round_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.batch_occupancy": "count",
    "serving.batches": "count",
    "serving.size_flushes": "count",
    "serving.deadline_flushes": "count",
    "serving.drain_flushes": "count",
    "lifecycle.add_ms": "ms",
    "lifecycle.delete_ms": "ms",
    "lifecycle.tombstones": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _count_queries(span: Span, args: tuple, result) -> None:
    span.attrs["queries"] = int(result.stats.get("queries", len(result)))
    span.attrs["kind"] = type(args[2]).__name__ if len(args) > 2 else "Knn"


def _annotate_probe(span: Span, args: tuple, result) -> None:
    _count_queries(span, args, result)
    queries = span.attrs["queries"]
    stats = result.stats
    span.attrs["candidates"] = float(stats.get("candidates", 0.0)) * queries
    span.attrs["rounds"] = float(stats.get("rounds", 0.0)) * queries
    if span.attrs["kind"] == "Knn":
        span.attrs["k"] = int(result.ids.shape[1])


def _annotate_traversal(span: Span, args: tuple, result) -> None:
    stats = result[3]
    span.attrs["nodes"] = int(stats.nodes.sum())
    span.attrs["dist_comps"] = int(stats.dist_comps.sum())


def _annotate_engine(span: Span, args: tuple, result) -> None:
    _count_queries(span, args, result)
    for key in ("shard_time_ms_max", "shard_time_ms_mean"):
        if key in result.stats:
            span.attrs[key] = float(result.stats[key])


def _annotate_request(span: Span, args: tuple, result) -> None:
    wait_ms = result.stats.get("serving_wait_ms")
    if wait_ms is not None:
        span.attrs["wait_s"] = float(wait_ms) / 1e3


def install(recorder: Recorder, server=None, indexes: Sequence = ()) -> Wrapping:
    """Wrap every layer's public entry points; returns the undo handle.

    Classes are wrapped once for all their instances; *server* and
    *indexes* (the served top-level objects, once they exist) get
    instance shims for the calls only they receive.
    """
    from repro import kernels
    from repro.baselines.exact import ExactKNN
    from repro.core.hashing import GaussianProjection, SampledProjection
    from repro.core.pmlsh import PMLSH
    import repro.engine.sharded as sharded_module
    from repro.engine.sharded import ShardedIndex
    from repro.parallel.pool import WorkerPool
    from repro.pmtree.flat import FlatPMTree
    from repro.pmtree.tree import PMTree

    wrapping = Wrapping(recorder)
    wrap = wrapping.wrap
    wrap(PMLSH, "fit", "fit", "core")
    wrap(PMLSH, "run", "run", "core", annotate=_annotate_probe)
    wrap(GaussianProjection, "project", "project", "core")
    wrap(SampledProjection, "project", "project", "core")
    wrap(FlatPMTree, "batch_range", "batch_range", "pmtree", annotate=_annotate_traversal)
    wrap(PMTree, "flatten", "flatten", "pmtree")
    backend = kernels.active()
    for name in KERNELS:
        wrap(backend, name, name, "kernels")
    wrap(ExactKNN, "run", "exact", "baselines", annotate=_count_queries)
    wrap(ShardedIndex, "run", "run", "engine", annotate=_annotate_engine, fan_out=True)
    wrap(sharded_module, "merge_shard_results", "merge", "engine")
    wrap(sharded_module, "merge_shard_range_results", "merge", "engine")
    wrap(WorkerPool, "publish", "publish", "parallel")
    wrap(WorkerPool, "run", "round", "parallel")
    for index in indexes:
        wrap(index, "add", "add", "lifecycle")
        wrap(index, "delete", "delete", "lifecycle")
    if server is not None:
        wrap(server, "submit", "request", "serving", root=True, annotate=_annotate_request)
        wrap(server, "add", "add", "serving", root=True)
        wrap(server, "delete", "delete", "serving", root=True)
    return wrapping


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _ms(spans: Sequence[Span]) -> List[float]:
    return [span.duration * 1e3 for span in spans]


def _served_coverage(callers: Sequence[Span], executor: Sequence[Span]) -> float:
    """Share of the served operations' time the layers account for.

    An operation's time is its span at the server's public API.  A
    stretch of it is accounted for while the server reports the request
    queued (``serving_wait_ms``, from the request's enqueue) or while a
    traced layer runs on the server's executor (the batch that answers
    it, earlier batches it waits behind, an index mutation); event-loop
    hand-offs and the scatter of results are not.
    """
    executor = sorted(executor, key=lambda span: span.start)
    starts = [span.start for span in executor]
    accounted = total = 0.0
    for op in callers:
        intervals = [
            (max(span.start, op.start), min(span.end, op.end))
            for span in executor[: bisect.bisect_left(starts, op.end)]
            if span.end > op.start
        ]
        wait = op.attrs.get("wait_s", 0.0)
        if wait:
            intervals.append((op.start, min(op.start + wait, op.end)))
        accounted += union_length(intervals)
        total += op.duration
    return accounted / total if total > 0 else 0.0


def per_layer_metrics(
    recorder: Recorder,
    operations: int,
    timed_s: Optional[float],
    shim_s: float,
    observed: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Derive every :data:`PER_LAYER` metric from the spans.

    Only spans of the measured phases count, except that ``core.fit_s``
    and ``pmtree.flatten_ms`` also see the set-ups.  *timed_s* is the
    workload's own timing of the operations it ran directly (None when a
    server runs them: the operations' spans at the server's API are the
    end-to-end figure then); *shim_s* is what one shim adds to a call.
    *observed* carries the values read from the program's public stats
    (serving and pool counters, tombstones); anything neither source
    provides stays 0 because the workload never exercised it.
    """
    everything = recorder.spans
    phase = [span for span in everything if span.phase == "measure"]
    spans: Dict[str, List[Span]] = defaultdict(list)
    for span in phase:
        spans[f"{span.layer}.{span.name}"].append(span)
    own = self_times(phase)
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    # core: one probe = one query against one PM-LSH index.
    probes = spans["core.run"]
    queries = sum(span.attrs["queries"] for span in probes)
    per_query = (lambda total: total / queries) if queries else (lambda total: 0.0)
    probe_ids = {span.id for span in probes}
    knn = [span for span in probes if span.attrs["kind"] == "Knn"]
    knn_queries = sum(span.attrs["queries"] for span in knn)
    candidates = sum(span.attrs["candidates"] for span in knn)
    metrics["core.fit_s"] = _mean(
        span.duration for span in everything if (span.layer, span.name) == ("core", "fit")
    )
    metrics["core.project_ms"] = per_query(
        sum(_ms([span for span in spans["core.project"] if span.parent in probe_ids]))
    )
    metrics["core.probe_self_ms"] = per_query(sum(own[span.id] for span in probes) * 1e3)
    if knn_queries:
        metrics["core.candidates_per_query"] = candidates / knn_queries
        metrics["core.rounds_per_query"] = sum(s.attrs["rounds"] for s in knn) / knn_queries
    if candidates:
        metrics["core.verify_yield"] = (
            sum(span.attrs["k"] * span.attrs["queries"] for span in knn) / candidates
        )

    traversals = spans["pmtree.batch_range"]
    metrics["pmtree.batch_range_ms"] = per_query(sum(_ms(traversals)))
    metrics["pmtree.nodes_per_query"] = per_query(sum(s.attrs["nodes"] for s in traversals))
    metrics["pmtree.dist_comps_per_query"] = per_query(
        sum(span.attrs["dist_comps"] for span in traversals)
    )
    metrics["pmtree.flatten_ms"] = _mean(
        _ms([s for s in everything if (s.layer, s.name) == ("pmtree", "flatten")])
    )
    metrics["pmtree.flatten_calls"] = float(len(spans["pmtree.flatten"]))
    for name in KERNELS:
        calls = spans[f"kernels.{name}"]
        metrics[f"kernels.{name}_ms"] = per_query(sum(_ms(calls)))
        metrics[f"kernels.{name}_calls"] = per_query(float(len(calls)))

    exact = spans["baselines.exact"]
    exact_queries = sum(span.attrs["queries"] for span in exact)
    if exact_queries:
        metrics["baselines.exact_ms"] = sum(_ms(exact)) / exact_queries

    engine = spans["engine.run"]
    metrics["engine.run_ms"] = _mean(_ms(engine))
    for attr in ("shard_time_ms_max", "shard_time_ms_mean"):
        metrics["engine." + attr.replace("_time", "")] = _mean(
            span.attrs[attr] for span in engine if attr in span.attrs
        )
    metrics["engine.merge_ms"] = _mean(_ms(spans["engine.merge"]))
    metrics["parallel.publish_ms"] = _mean(_ms(spans["parallel.publish"]))
    metrics["parallel.publishes"] = float(len(spans["parallel.publish"]))
    metrics["parallel.round_ms"] = _mean(_ms(spans["parallel.round"]))
    metrics["lifecycle.add_ms"] = _mean(_ms(spans["lifecycle.add"]))
    metrics["lifecycle.delete_ms"] = _mean(_ms(spans["lifecycle.delete"]))

    # Serving spans are request/write roots at the server's API; the work
    # they wait for runs as separate roots on the server's executor.  The
    # serving layer's own time is what the program reports each request
    # spent queued.
    callers = [span for span in phase if span.layer == "serving"]
    layer_totals = defaultdict(float)
    for span in phase:
        layer_totals[span.layer] += own[span.id]
    waits = [span.attrs["wait_s"] for span in callers if "wait_s" in span.attrs]
    layer_totals["serving"] = sum(waits)
    metrics["serving.queue_wait_ms"] = statistics.median(waits) * 1e3 if waits else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (
            layer_totals[layer] * 1e3 / operations if operations else 0.0
        )
    if callers:
        executor = [span for span in phase if span.parent is None and span.layer != "serving"]
        metrics["trace.coverage"] = _served_coverage(callers, executor)
        timed_s = sum(span.duration for span in callers)
    elif timed_s:
        metrics["trace.coverage"] = sum(own.values()) / timed_s
    if timed_s:
        metrics["trace.overhead_pct"] = 100.0 * shim_s * len(phase) / timed_s
    metrics["trace.spans"] = float(len(everything))
    metrics.update(observed or {})
    return metrics
