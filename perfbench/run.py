"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with the layer shims installed and prints every per-layer
metric instead, writing the spans to ``perfbench/out/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command exits non-zero when any answer
check fails, when a worker process or shared-memory segment it started
outlives it, or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("offline-batch", "ingest-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit_id(root: Path) -> str:
    """HEAD's commit when the tree is a git checkout, else ``unknown``."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bootstrap() -> bool:
    """Prepare to import the program as users get it by default: drop
    every ``REPRO_*`` variable and put ``src/`` and the repository root
    on the import path.  False when the program's sources are missing.

    The process is also pinned to one core before NumPy loads, and the
    engine's worker process inherits the pin.  The engine runs its
    shards in turn on one worker (``ENGINE_WORKERS``), so a read never
    needs two cores; unpinned, every hand-off between the server and the
    worker could cross cores, and ingest-mixed's read p50 moved between
    26 and 47 ms from run to run with the host's load (a spread of 0.26
    over ten runs), against 25-27 ms pinned."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def stop_helpers(timeout: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end: the
    worker processes still alive, then multiprocessing's resource tracker.

    The tracker is started by the first shared-memory segment and would
    otherwise end only after this process has exited, outliving the run."""
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    # Closing the tracker's pipe ends it; _stop() then waits for its exit.
    resource_tracker._resource_tracker._stop()


def abandon() -> None:
    """Give up a run that hung: dump every thread's stack, stop the
    processes it started and exit non-zero without a result line."""
    print("error: the run hung past its wall-clock limit", file=sys.stderr, flush=True)
    faulthandler.dump_traceback(all_threads=True)
    try:
        stop_helpers(timeout=2.0)
    finally:
        os._exit(3)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2

    from perfbench.data import make_inputs
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import END_TO_END, WALL_LIMIT_S, WORKLOADS, Context

    # If a call hangs past the wall-clock limit: dump the stacks, stop
    # every process the run started and exit.  faulthandler's own timer
    # is the backstop should the watchdog thread never get to run.
    watchdog = threading.Timer(WALL_LIMIT_S + 12.0, abandon)
    watchdog.daemon = True
    watchdog.start()
    faulthandler.dump_traceback_later(WALL_LIMIT_S + 22.0, exit=True)

    import repro
    from repro.parallel.shm import SEGMENT_PREFIX, leaked_segments

    workers = os.cpu_count() or 1
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} commit={commit_id(ROOT)} host={platform.node()} "
        f"cores={workers} pinned_to_cpu={min(os.sched_getaffinity(0))} "
        f"kernels={repro.kernels.active().name} "
        f"python={platform.python_version()} repro={repro.__version__}",
        flush=True,
    )
    ctx = Context(make_inputs(args.seed), args.seconds, bool(args.trace), workers)
    try:
        report = WORKLOADS[args.workload](ctx)
        watchdog.cancel()
        faulthandler.cancel_dump_traceback_later()
        own_prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-"
        children = multiprocessing.active_children()
        segments = [name for name in leaked_segments() if name.startswith(own_prefix)]
        leaks = [f"child process {child.name} (pid {child.pid}) still running" for child in children]
        leaks += [f"shared-memory segment {name} still published" for name in segments]
    finally:
        stop_helpers()

    for note in report.notes:
        print(f"# {note}")
    for name, value in report.extras.items():
        print(f"# {name} = {value:.6g}")
    for failure in report.checker.failures[:20]:
        print(f"# CHECK FAILED: {failure}")
    for leak in leaks:
        print(f"# LEAK: {leak}")
    print(
        f"# checks={report.checker.checked} failed_checks={len(report.checker.failures)} "
        f"attempted={report.attempted} failed={report.failed}"
    )
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        report.recorder.write(str(path))
        print(f"# spans written to {path.relative_to(ROOT)}")
        # With the shims on: set beside an untraced run, the difference is
        # the tracing overhead on the end-to-end metrics.
        for name, unit in END_TO_END.items():
            print(f"# traced {name} = {report.metrics[name]:.6g} {unit}")
        values, units = report.per_layer, PER_LAYER
    else:
        values, units = report.metrics, END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    correct = report.checker.ok
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(report.attempted),
                "failed": int(report.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct and not leaks else 1


if __name__ == "__main__":
    sys.exit(main())
