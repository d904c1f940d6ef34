"""A run leaves nothing behind, and fails cleanly without the program."""

import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import perfbench.workloads as workloads
from perfbench.data import make_inputs

BENCH_DIR = Path(workloads.__file__).resolve().parent


def test_ingest_run_leaves_no_child_or_segment(monkeypatch):
    from repro.parallel.shm import SEGMENT_PREFIX, leaked_segments

    monkeypatch.setattr(workloads, "FINAL_CHECK_QUERIES", 5)
    own = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    inputs = make_inputs(5, n=1500, d=16, num_queries=20, num_clusters=5)
    ctx = workloads.Context(inputs, seconds=2.0, trace=False, workers=2)
    report = workloads.ingest_mixed(ctx)
    assert report.checker.ok, report.checker.failures
    # one warm-up round and one timed round per build, 17 operations each
    assert report.failed == 0 and report.attempted == workloads.BUILDS * 2 * 17
    assert multiprocessing.active_children() == []
    assert [name for name in leaked_segments() if name.startswith(own)] == []


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_stop_helpers_ends_the_resource_tracker():
    # The first shared-memory segment starts multiprocessing's resource
    # tracker; stop_helpers() must end it before the run exits.
    script = """
import os
from multiprocessing import resource_tracker, shared_memory
from perfbench.run import stop_helpers
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
pid = resource_tracker._resource_tracker._pid
assert pid is not None
stop_helpers()
try:
    os.kill(pid, 0)
except ProcessLookupError:
    print("stopped")
else:
    print("running")
"""
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=BENCH_DIR.parent,
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "stopped"
