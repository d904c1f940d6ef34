"""Re-measure the three observations README.md quotes.

Usage (from the repository root; a few minutes on two cores)::

    python3 perfbench/observations.py --seed 1

1. Per-query cost against batch size, PM-LSH and exact, on the
   offline-batch index.
2. The serving rate ladder behind ``serve_max_rps``, with the requests
   per batch the server forms on each rung as the rate nears capacity.
3. Read p95 under the ingest-mixed write schedule with the process-pool
   engine against the thread-pool engine.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

from run import bootstrap, stop_helpers


def batch_sweep(inputs, sizes=(1, 10, 50, 200)) -> None:
    import repro
    from repro import Knn

    from perfbench.data import K
    from perfbench.workloads import INDEX_SEED

    indexes = {
        "pm-lsh": repro.create_index("pm-lsh", seed=INDEX_SEED).fit(inputs.data),
        "exact": repro.create_index("exact").fit(inputs.data),
    }
    queries = inputs.queries
    for name, index in indexes.items():
        index.run(queries[:2], Knn(K))
        cells = []
        for size in sizes:
            start = time.perf_counter()
            for lo in range(0, len(queries), size):
                index.run(queries[lo : lo + size], Knn(K))
            cells.append(f"batch {size}: {(time.perf_counter() - start) * 1e3 / len(queries):.1f}")
        print(f"{name:7s} ms/query  " + "  ".join(cells), flush=True)


#: The serving ladder's first rung (req/s) and the ratio between rungs.
LADDER_BASE = 36.0
LADDER_STEP = 1.10
#: Write rounds per engine in the ingest comparison.
INGEST_ROUNDS = 12


def ladder(inputs, workers: int) -> None:
    """The serving rate ladder: Poisson rungs of 200 requests, each 10%
    above the last, until a rung misses p95 <= 100 ms (or its backlog
    grows) twice in a row.  Prints every rung and the highest that held."""
    import repro
    from repro import Knn

    from perfbench.data import K
    from perfbench.workloads import RUNG_SAMPLES, Context, _sharded, poisson_rung

    index = _sharded(Context(inputs, 0.0, False, workers), "thread")
    tags = (number % len(inputs.queries) for number in range(10**9))

    async def climb():
        server = repro.AsyncSearchServer(index)

        async def read(tag):
            return await server.submit(inputs.queries[tag], Knn(K))

        async def holds(rate):
            rung = await poisson_rung(
                server, inputs.schedule_rng, "ladder", rate, RUNG_SAMPLES, read, tags, 60.0
            )
            print(rung.note(), flush=True)
            return rung.ok

        best, rate = 0.0, LADDER_BASE
        try:
            while await holds(rate) or await holds(rate):
                best, rate = rate, rate * LADDER_STEP
        finally:
            await server.close()
        print(f"serve_max_rps = {best:.1f} req/s", flush=True)

    try:
        asyncio.run(climb())
    finally:
        index.close()


def ingest_engines(inputs_factory, seed: int, workers: int) -> None:
    from perfbench.checks import Checker
    from perfbench.loadgen import percentile
    from perfbench.workloads import Context, Tracing, _ingest_build, _sharded

    for backend in ("process", "thread"):
        ctx = Context(inputs_factory(seed), 0.0, False, workers)
        index = _sharded(ctx, backend)
        checker = Checker()
        try:
            build = asyncio.run(_ingest_build(ctx, index, Tracing(False), INGEST_ROUNDS, checker))
        finally:
            index.close()
        reads = [o.latency_ms for o in build.run.outcomes if o.kind == "read" and not o.error]
        writes = [o.latency_ms for o in build.run.outcomes if o.kind != "read" and not o.error]
        print(
            f"ingest-mixed schedule on the {backend} engine: read p50 "
            f"{percentile(reads, 50):.1f} ms, p95 {percentile(reads, 95):.1f} ms; write p50 "
            f"{percentile(writes, 50):.1f} ms, p95 {percentile(writes, 95):.1f} ms "
            f"({len(reads)} reads, {len(writes)} writes)",
            flush=True,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description="Re-measure README.md's observations.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not bootstrap():
        return 2
    from perfbench.data import make_inputs

    workers = os.cpu_count() or 1
    try:
        batch_sweep(make_inputs(args.seed))
        ladder(make_inputs(args.seed), workers)
        ingest_engines(make_inputs, args.seed, workers)
    finally:
        stop_helpers()
    return 0


if __name__ == "__main__":
    sys.exit(main())
