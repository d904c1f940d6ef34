"""Open-loop load from one process: operations start when they are due.

An operation's latency runs from its due time to its completion, so a
stall in the program also charges the wait it imposes on every later
operation; how late the generator itself started each one is reported
separately.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Outcome:
    """One scheduled operation: what it was, when, and how it ended."""

    kind: str
    due: float
    tag: Any = None
    started: float = float("nan")
    done: float = float("nan")
    result: Any = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.started - self.due) * 1e3


@dataclass
class Run:
    """The outcomes of one schedule and the backlog at its last arrival."""

    outcomes: List[Outcome]
    outstanding_end: int = 0
    failed: int = 0


async def run_schedule(
    events: Sequence[Tuple[float, str, Any, Callable[[Any], Awaitable[Any]]]],
    limit_s: float,
) -> Run:
    """Start ``op(tag)`` at each ``(offset_s, kind, tag, op)``'s due time.

    Waits for every operation to finish, at most *limit_s* seconds after
    the last one was due; whatever is still outstanding then is cancelled
    and counted as failed.
    """
    loop = asyncio.get_running_loop()
    origin = loop.time() + 0.005
    outcomes: List[Outcome] = []
    tasks: List[asyncio.Task] = []
    pending = set()
    run = Run(outcomes)

    async def execute(outcome: Outcome, op) -> None:
        try:
            outcome.result = await op(outcome.tag)
        except asyncio.CancelledError:
            outcome.error = "cancelled at the wall-clock limit"
            raise
        except Exception as error:  # an operation that failed is counted, not fatal
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            outcome.done = loop.time()

    for offset, kind, tag, op in events:
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(kind=kind, due=due, tag=tag, started=loop.time())
        outcomes.append(outcome)
        task = loop.create_task(execute(outcome, op))
        tasks.append(task)
        pending.add(task)
        task.add_done_callback(pending.discard)
    run.outstanding_end = len(pending)
    if tasks:
        _, still = await asyncio.wait(tasks, timeout=limit_s)
        if still:
            for task in still:
                task.cancel()
            await asyncio.gather(*still, return_exceptions=True)
    run.failed = sum(1 for outcome in outcomes if outcome.error is not None)
    return run


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """*count* Poisson arrival offsets (seconds) at *rate* per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0
