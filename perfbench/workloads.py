"""The two workloads: offline batches, and open-loop reads served under ingest.

Each run sets its index up three times (``setup_s`` is the median) and
measures a third of the run on each set-up, because on a shared host the
speed of a freshly built index varies from build to build; then it
checks every answer it collected against :mod:`perfbench.data`'s brute
force and the method's promises.  Every workload reports every
end-to-end metric (README.md says what each one means on each
workload); the traced run (``--trace 1``) reports the per-layer metrics
of :mod:`perfbench.layers` instead.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import layers
from perfbench.checks import Checker, recall_at_k
from perfbench.data import K, Inputs, ball_truth, knn_truth
from perfbench.loadgen import Outcome, Run, percentile, poisson_offsets, run_schedule
from perfbench.trace import Recorder, shim_cost_s, union_length

#: Seed of the program's own randomness (projections, pivots); the
#: benchmark's --seed varies the data and the schedules.
INDEX_SEED = 0
#: Set-ups per run; each is measured for a third of the run.
BUILDS = 3
#: Wall-clock limit of one workload, set-up and checks included.
WALL_LIMIT_S = 150.0
#: p95 latency limit a serving rung must meet.
LATENCY_LIMIT_MS = 100.0
#: Samples a rung needs before its p95 counts.
RUNG_SAMPLES = 200
#: Workers of the sharded engines.  With one worker per core (two here)
#: the shards of a query contend for the host's shared cores, and the
#: served latency of a fresh build swung between about 16 and 27 ms from
#: build to build; with one worker the shards run in turn and runs agree.
ENGINE_WORKERS = 1

# offline-batch: rounds of 50 queries, at least one per build; the rounds
# cycle through the 200 queries' four blocks.
BATCH = 50
ROUNDS_PER_BUILD = 1

# ingest-mixed: rounds of ROUND_S seconds.  Reads arrive at 5 req/s, so
# that the server stays mostly idle even when the host runs at half
# speed: at 10 req/s with a write every second it was busy about 35% of
# the time, and in slow stretches the queue behind the writes took read
# p50 from about 25 to 136 ms.  The write sizes and
# period define the workload (no measured production mix backs them):
# the index grows by under 1% in a run.
ROUND_S = 3.0
READS_PER_ROUND = 15
ADD_BATCH = 50
DELETE_BATCH = 25
ADD_AT_S = 0.75
DELETE_AT_S = 2.25
PROBE_EVERY = 5
FINAL_CHECK_QUERIES = 40

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "index_mb": "MB",
    "recall_at_10": "ratio",
    "capacity_qps": "1/s",
    "read_p50_ms": "ms",
}


@dataclass
class Context:
    inputs: Inputs
    seconds: float
    trace: bool
    workers: int
    started: float = field(default_factory=time.perf_counter)

    def remaining(self) -> float:
        return WALL_LIMIT_S - (time.perf_counter() - self.started)


@dataclass
class Report:
    metrics: Dict[str, float]
    extras: Dict[str, float]
    attempted: int
    failed: int
    checker: Checker
    recorder: Optional[Recorder] = None
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class Tracing:
    """The layer shims of a traced run: on during set-ups (labelled
    ``setup``) and measured phases, off otherwise; a no-op untraced."""

    def __init__(self, enabled: bool) -> None:
        self.recorder = Recorder() if enabled else None
        self.observed: Dict[str, float] = defaultdict(float)

    @contextmanager
    def phase(self, name: str, **instances):
        if self.recorder is None:
            yield
            return
        self.recorder.phase = name
        wrapping = layers.install(self.recorder, **instances)
        try:
            yield
        finally:
            wrapping.undo()

    def finish(self, report: Report, timed_s: Optional[float] = None) -> Report:
        """Attach the per-layer metrics; *timed_s* is the workload's own
        timing of the operations it ran directly, if it ran any."""
        if self.recorder is not None:
            report.recorder = self.recorder
            report.per_layer = layers.per_layer_metrics(
                self.recorder, report.attempted, timed_s, shim_cost_s(), self.observed
            )
        return report


def timed(build: Callable[[], object]):
    start = time.perf_counter()
    built = build()
    return built, time.perf_counter() - start


def export_mb(index) -> float:
    """MB (10^6 bytes) of the arrays in the index's ``to_shm()`` export
    (summed over shards for the sharded engine)."""
    parts = getattr(index, "shards", None) or (index,)
    return sum(
        sum(array.nbytes for array in part.to_shm()[0].values()) for part in parts
    ) / 1e6


# ----------------------------------------------------------------------
# offline-batch
# ----------------------------------------------------------------------


def offline_batch(ctx: Context) -> Report:
    """Batch kNN (50 per call), the same queries one per call, a batch
    Range(r) and exact kNN on the same batches, through one pm-lsh index,
    in whole rounds until each build's share of the run has passed."""
    import repro
    from repro import Knn, Range

    data, queries = ctx.inputs.data, ctx.inputs.queries
    checker = Checker()
    tracing = Tracing(ctx.trace)
    truth_ids, truth_dists = knn_truth(data, queries, K)
    radius = float(np.median(truth_dists[:, -1]))
    balls = ball_truth(data, queries, radius)
    blocks = [slice(start, start + BATCH) for start in range(0, len(queries), BATCH)]

    def build():
        pm = repro.create_index("pm-lsh", seed=INDEX_SEED).fit(data)
        pm.flat_tree  # the traversal snapshot queries read: ready to answer
        return pm, repro.create_index("exact").fit(data)

    setups: List[float] = []
    knn_s: List[float] = []
    single_ms: List[float] = []
    range_s: List[float] = []
    exact_s: List[float] = []
    answers = []
    for _ in range(BUILDS):
        with tracing.phase("setup"):
            (pm, exact), seconds = timed(build)
        setups.append(seconds)
        with tracing.phase("measure"):
            start, rounds = time.perf_counter(), 0
            while (
                rounds < ROUNDS_PER_BUILD or time.perf_counter() - start < ctx.seconds / BUILDS
            ) and ctx.remaining() > 0:
                rows = blocks[len(answers) % len(blocks)]
                block = queries[rows]
                begin = time.perf_counter()
                batch = pm.run(block, Knn(K))
                knn_s.append(time.perf_counter() - begin)
                singles = []
                for query in block:
                    begin = time.perf_counter()
                    singles.append(pm.run(query[None, :], Knn(K)))
                    single_ms.append((time.perf_counter() - begin) * 1e3)
                begin = time.perf_counter()
                ranged = pm.run(block, Range(radius))
                range_s.append(time.perf_counter() - begin)
                begin = time.perf_counter()
                exact_batch = exact.run(block, Knn(K))
                exact_s.append(time.perf_counter() - begin)
                answers.append((rows, batch, singles, ranged, exact_batch))
                rounds += 1

    c = pm.params.c
    first = {}
    range_recalls = []
    for rows, batch, singles, ranged, exact_batch in answers:
        for i, q in enumerate(range(rows.start, rows.stop)):
            checker.knn_row(f"pm-lsh q{q}", batch.ids[i], batch.distances[i], data, queries[q], K)
            checker.identical(
                f"pm-lsh batch vs single q{q}",
                batch.ids[i], batch.distances[i], singles[i].ids[0], singles[i].distances[0],
            )
        checker.exact_rows(
            "exact", exact_batch.ids, exact_batch.distances,
            truth_ids[rows], truth_dists[rows], data, queries[rows],
        )
        range_recalls.append(checker.range_rows(
            "range", ranged.lims, ranged.ids, ranged.distances, balls[rows],
            data, queries[rows], radius, c, 1.0 - pm.params.alpha1,
        ))
        if rows.start in first:  # the same block on a later round or build
            checker.identical(
                f"pm-lsh repeated block {rows.start}", first[rows.start].ids,
                first[rows.start].distances, batch.ids, batch.distances,
            )
        else:
            first[rows.start] = batch
    seen = sorted(first)
    ids = np.vstack([first[start].ids for start in seen])
    dists = np.vstack([first[start].distances for start in seen])
    covered = np.concatenate([np.arange(start, start + BATCH) for start in seen])
    c2_share = checker.c2_share("pm-lsh", dists, truth_dists[covered], c)

    answered = len(answers) * BATCH
    timed_s = sum(knn_s) + sum(single_ms) / 1e3 + sum(range_s) + sum(exact_s)
    return tracing.finish(Report(
        metrics={
            "setup_s": statistics.median(setups),
            "index_mb": export_mb(pm),
            "recall_at_10": recall_at_k(ids, truth_ids[covered]),
            "capacity_qps": answered / sum(knn_s),
            "read_p50_ms": percentile(single_ms, 50),
        },
        extras={
            "read_p95_ms": percentile(single_ms, 95),
            "rounds": len(answers),
            "knn_qps": answered / sum(knn_s),
            "knn_single_qps": answered / (sum(single_ms) / 1e3),
            "range_qps": answered / sum(range_s),
            "exact_qps": answered / sum(exact_s),
            "knn_batch_ms_per_query": sum(knn_s) * 1e3 / answered,
            "exact_batch_ms_per_query": sum(exact_s) * 1e3 / answered,
            "single_samples": len(single_ms),
            "c2_share": c2_share,
            "range_radius": radius,
            "range_recall": float(np.mean(range_recalls)),
        },
        attempted=len(answers) * 4 * BATCH,
        failed=0,
        checker=checker,
    ), timed_s)


# ----------------------------------------------------------------------
# the sharded engine and the server, shared by ingest-mixed and observations.py
# ----------------------------------------------------------------------


def _sharded(ctx: Context, pool_backend: str):
    """The sharded engine over the data (``nproc`` shards on
    :data:`ENGINE_WORKERS` workers), ready to answer."""
    import repro
    from repro import Knn

    index = repro.create_index(
        "sharded",
        backend="pm-lsh",
        num_shards=ctx.workers,
        num_workers=ENGINE_WORKERS,
        seed=INDEX_SEED,
        pool_backend=pool_backend,
    )
    try:
        index.fit(ctx.inputs.data)
        if pool_backend == "process":
            index.start_pool()  # workers forked, every shard published
        else:
            for shard in index.shards:
                shard.flat_tree
            index.run(ctx.inputs.queries[:1], Knn(K))  # one query end to end: ready to answer
    except BaseException:
        index.close()
        raise
    return index


@contextmanager
def _tally(tracing: Tracing, server):
    """Add the serving and pool counters a measured phase moved to
    ``tracing.observed`` (the program's public stats; traced runs only)."""
    if tracing.recorder is None:
        yield
        return
    from repro import default_registry

    registry = default_registry()
    pool = ("pool_bytes_published", "pool_ipc_roundtrips")
    before = server.stats().as_dict(), [registry.total(name) for name in pool]
    yield
    after = server.stats().as_dict(), [registry.total(name) for name in pool]
    observed = tracing.observed
    for key in ("batches_served", "requests_served", "size_flushes", "deadline_flushes",
                "drain_flushes"):
        observed[f"_{key}"] += after[0][key] - before[0][key]
    observed["parallel.bytes_published"] += after[1][0] - before[1][0]
    observed["parallel.ipc_roundtrips"] += after[1][1] - before[1][1]


def _serving_layer(tracing: Tracing, tombstones: int) -> None:
    """Turn the tallied counters into the serving per-layer metrics."""
    if tracing.recorder is None:
        return
    observed = tracing.observed
    batches = observed.pop("_batches_served", 0.0)
    served = observed.pop("_requests_served", 0.0)
    observed["serving.batch_occupancy"] = served / batches if batches else 0.0
    observed["serving.batches"] = batches
    for key in ("size_flushes", "deadline_flushes", "drain_flushes"):
        observed[f"serving.{key}"] = observed.pop(f"_{key}", 0.0)
    observed["lifecycle.tombstones"] = float(tombstones)


@dataclass
class Rung:
    """One stretch of Poisson reads at a fixed offered rate."""

    phase: str
    rate: float
    run: Run
    occupancy: float

    @property
    def latencies(self) -> List[float]:
        return [o.latency_ms for o in self.run.outcomes if o.error is None]

    @property
    def p95(self) -> float:
        return percentile(self.latencies, 95)

    @property
    def ok(self) -> bool:
        """Meets the latency limit without a growing backlog."""
        backlog_grew = self.run.outstanding_end > 2 + self.rate * LATENCY_LIMIT_MS / 1e3
        return self.run.failed == 0 and self.p95 <= LATENCY_LIMIT_MS and not backlog_grew

    def note(self) -> str:
        return (
            f"{self.phase} {self.rate:.1f} req/s: n={len(self.run.outcomes)} "
            f"p50={percentile(self.latencies, 50):.1f} ms p95={self.p95:.1f} ms "
            f"occupancy={self.occupancy:.2f} backlog={self.run.outstanding_end} "
            + ("ok" if self.ok else "MISS")
        )


async def poisson_rung(server, rng, phase: str, rate: float, samples: int, read, tags, limit_s):
    """*samples* Poisson reads at *rate*; ``read(tag)`` with the next tags."""
    events = [
        (float(offset), "read", next(tags), read)
        for offset in poisson_offsets(rng, rate, samples)
    ]
    before = server.stats()
    run = await run_schedule(events, limit_s)
    after = server.stats()
    batches = after.batches_served - before.batches_served
    served = after.requests_served - before.requests_served
    return Rung(phase, rate, run, served / batches if batches else 0.0)


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------


@dataclass
class IngestBuild:
    """One build's schedule outcomes and the index states its reads saw."""

    warmup: Run
    run: Run
    points: np.ndarray
    #: (ntotal, sorted dead ids) after each write, in the order writes were called.
    versions: List
    final: List
    direct: object

    def note(self, number: int) -> str:
        reads = [o.latency_ms for o in self.run.outcomes if o.kind == "read" and o.error is None]
        writes = [o.latency_ms for o in self.run.outcomes if o.kind != "read" and o.error is None]
        return (
            f"build {number}: {len(reads)} reads p50={percentile(reads, 50):.1f} ms "
            f"p95={percentile(reads, 95):.1f} ms; {len(writes)} writes "
            f"p50={percentile(writes, 50):.1f} ms p95={percentile(writes, 95):.1f} ms"
        )


def ingest_mixed(ctx: Context) -> Report:
    """Light Poisson reads while add() and delete() batches run on a fixed
    schedule, through AsyncSearchServer in front of the process-pool
    sharded engine."""
    checker = Checker()
    tracing = Tracing(ctx.trace)
    rounds = max(1, math.ceil(round(ctx.seconds / ROUND_S) / BUILDS))
    setups: List[float] = []
    builds: List[IngestBuild] = []
    for _ in range(BUILDS):
        with tracing.phase("setup"):
            index, seconds = timed(lambda: _sharded(ctx, "process"))
        setups.append(seconds)
        try:
            builds.append(asyncio.run(_ingest_build(ctx, index, tracing, rounds, checker)))
            index_mb = export_mb(index)
            tombstones = index.num_tombstones
        finally:
            index.close()
    _serving_layer(tracing, tombstones)

    queries = ctx.inputs.queries
    checked: List[Outcome] = []  # every read that did not fail, warm-up rounds included
    truth: List[np.ndarray] = []
    for number, build in enumerate(builds):
        for row, answer in enumerate(build.final):
            checker.identical(
                f"build {number}: final served q{row} vs direct run",
                answer.ids, answer.distances, build.direct.ids[row], build.direct.distances[row],
            )
        done = [
            o for o in build.warmup.outcomes + build.run.outcomes
            if o.kind == "read" and o.error is None
        ]
        excluded = np.zeros((len(done), build.points.shape[0]), dtype=bool)
        for row, outcome in enumerate(done):
            version, probe, query, answer = outcome.result
            ntotal, dead = build.versions[version]
            excluded[row, ntotal:] = True
            excluded[row, dead] = True
            label = f"build {number} read {outcome.tag} (version {version})"
            checker.knn_row(label, answer.ids, answer.distances, build.points, query, K, dead, ntotal)
            if probe >= 0:
                checker.expect(
                    answer.ids.size > 0 and answer.ids[0] == probe and answer.distances[0] == 0.0,
                    f"{label}: probe of added point {probe} not returned at distance 0",
                )
        read_queries = np.vstack([o.result[2] for o in done])
        truth.append(knn_truth(build.points, read_queries, K, excluded=excluded)[0])
        checked += done

    outcomes = [o for build in builds for o in build.run.outcomes]  # the timed ones
    read_ms = [o.latency_ms for o in outcomes if o.kind == "read" and o.error is None]
    write_ms = [o.latency_ms for o in outcomes if o.kind != "read" and o.error is None]
    # Seconds in which the server had a read or a write outstanding, by
    # the load generator's clock: cost moved from reads to writes stays in.
    busy_s = sum(
        union_length((o.started, o.done) for o in build.run.outcomes) for build in builds
    )
    return tracing.finish(Report(
        metrics={
            "setup_s": statistics.median(setups),
            "index_mb": index_mb,
            "recall_at_10": recall_at_k(
                np.vstack([o.result[3].ids for o in checked]), np.vstack(truth)
            ),
            "capacity_qps": len(read_ms) / busy_s if busy_s else 0.0,
            "read_p50_ms": percentile(read_ms, 50),
        },
        extras={
            "read_p95_ms": percentile(read_ms, 95),
            "rounds": rounds * BUILDS,
            "reads": len(read_ms),
            "writes": len(write_ms),
            "busy_share": busy_s / sum(
                max(o.done for o in b.run.outcomes) - b.run.outcomes[0].due for b in builds
            ),
            "write_p50_ms": percentile(write_ms, 50),
            "write_p95_ms": percentile(write_ms, 95),
            "tombstones": float(tombstones),
            "generator_late_p95_ms": percentile([o.late_ms for o in outcomes], 95),
        },
        attempted=sum(len(b.warmup.outcomes) + len(b.run.outcomes) for b in builds),
        failed=sum(build.warmup.failed + build.run.failed for build in builds),
        checker=checker,
        notes=[build.note(number) for number, build in enumerate(builds)],
    ))


async def _ingest_build(ctx, index, tracing: Tracing, rounds: int, checker: Checker) -> IngestBuild:
    import repro
    from repro import Knn

    inputs = ctx.inputs
    data, queries = inputs.data, inputs.queries
    n = data.shape[0]
    rng = inputs.schedule_rng
    total = rounds + 1  # the first round warms up: checked, not timed
    additions = [inputs.fresh_points(ADD_BATCH) for _ in range(total)]
    removals = np.split(rng.permutation(n)[: total * DELETE_BATCH], total)
    points = np.vstack([data] + additions)
    versions = [(n, np.empty(0, dtype=np.int64))]
    server = repro.AsyncSearchServer(index)

    async def add(tag):
        ntotal, dead = versions[-1]
        versions.append((ntotal + ADD_BATCH, dead))
        ids = await server.add(additions[tag])
        checker.expect(
            np.array_equal(ids, np.arange(ntotal, ntotal + ADD_BATCH)),
            f"add {tag}: assigned ids {ids[:3]}... expected from {ntotal}",
        )
        return ids

    async def delete(tag):
        ntotal, dead = versions[-1]
        versions.append((ntotal, np.union1d(dead, removals[tag])))
        return await server.delete(removals[tag])

    async def read(tag):
        version = len(versions) - 1
        ntotal = versions[version][0]
        probe = ntotal - 1 if tag % PROBE_EVERY == 0 and ntotal > n else -1
        query = points[probe] if probe >= 0 else queries[tag % len(queries)]
        answer = await server.submit(query, Knn(K))
        return version, probe, query, answer

    def schedule(first: int, count: int):
        events = []
        for r in range(first, first + count):
            base = (r - first) * ROUND_S
            offsets = np.sort(rng.uniform(0.0, ROUND_S, size=READS_PER_ROUND))
            for number, offset in enumerate(offsets):
                events.append((base + float(offset), "read", r * READS_PER_ROUND + number, read))
            events.append((base + ADD_AT_S, "add", r, add))
            events.append((base + DELETE_AT_S, "delete", r, delete))
        return sorted(events, key=lambda event: event[0])

    try:
        # The first write of a build and the first reads after set-up run
        # slower than the rest; a whole round absorbs them untimed.
        warmup = await run_schedule(schedule(0, 1), max(1.0, ctx.remaining() - 30.0))
        with tracing.phase("measure", server=server, indexes=[index]), _tally(tracing, server):
            run = await run_schedule(schedule(1, rounds), max(1.0, ctx.remaining() - 30.0))
        final = await server.submit_many(queries[:FINAL_CHECK_QUERIES], Knn(K))
    finally:
        await server.close()
    return IngestBuild(
        warmup=warmup,
        run=run,
        points=points,
        versions=versions,
        final=final,
        direct=index.run(queries[:FINAL_CHECK_QUERIES], Knn(K)),
    )


WORKLOADS = {
    "offline-batch": offline_batch,
    "ingest-mixed": ingest_mixed,
}
