"""Self-time arithmetic, coverage, parent links and shim removal."""

import threading

import pytest

from perfbench.layers import _served_coverage, per_layer_metrics
from perfbench.trace import Recorder, Span, Wrapping, self_times, shim_cost_s


def span(span_id, parent, start, end, layer="x"):
    built = Span("s", layer, start, span_id, parent, 1, 0)
    built.end = end
    return built


def test_self_time_of_a_hand_built_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 12] (clipped to the root: 2); grandchild [1, 2] under the first.
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),
        span(4, 1, 8.0, 12.0),
        span(5, 2, 1.0, 2.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_serial_tree_self_times_sum_to_the_root():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 2.0, 5.0), span(3, 2, 3.0, 4.0)]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_coverage_is_measured_against_the_workloads_own_timing():
    recorder = Recorder()
    recorder.spans = [span(1, None, 1.0, 9.0, "core"), span(2, 1, 2.0, 5.0, "pmtree")]
    # The workload timed 10 s of operations; the spans cover 8 s of them.
    metrics = per_layer_metrics(recorder, 4, timed_s=10.0, shim_s=1e-3)
    assert metrics["trace.coverage"] == pytest.approx(0.8)
    assert metrics["core.self_ms"] == pytest.approx(5.0 * 1e3 / 4)
    assert metrics["trace.overhead_pct"] == pytest.approx(100.0 * 2 * 1e-3 / 10.0)


def test_served_coverage_counts_queue_waits_and_executor_work_once():
    # A request [0, 10] queued 2 s (overlapping executor work on [1, 4]),
    # then answered by a batch on [6, 9]: accounted [0, 4] and [6, 9] = 7.
    request = span(1, None, 0.0, 10.0, "serving")
    request.attrs["wait_s"] = 2.0
    write = span(2, None, 20.0, 24.0, "serving")  # its mutation ran [21, 23]
    executor = [
        span(3, None, 1.0, 4.0, "engine"),
        span(4, None, 6.0, 9.0, "engine"),
        span(5, None, 21.0, 23.0, "lifecycle"),
    ]
    assert _served_coverage([request, write], executor) == pytest.approx((7.0 + 2.0) / 14.0)
    assert _served_coverage([request], []) == pytest.approx(0.2)


def test_shim_cost_is_positive_and_small():
    assert 0.0 < shim_cost_s(calls=2_000, repeats=3) < 1e-3


class Engine:
    def run(self, work):
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return "done"

    def leaf(self):
        return 1


def test_wrapping_links_children_and_pool_threads_then_undoes():
    recorder = Recorder()
    engine = Engine()
    wrapping = Wrapping(recorder)
    wrapping.wrap(Engine, "run", "run", "engine", fan_out=True)
    wrapping.wrap(Engine, "leaf", "leaf", "core")
    assert engine.run(engine.leaf) == "done"
    wrapping.undo()
    assert "run" in vars(Engine) and not hasattr(Engine.run, "__wrapped__")
    assert not hasattr(Engine.leaf, "__wrapped__")
    run = [s for s in recorder.spans if s.name == "run"]
    leaves = [s for s in recorder.spans if s.name == "leaf"]
    assert len(run) == 1 and len(leaves) == 2
    assert all(leaf.parent == run[0].id for leaf in leaves)
    assert all(leaf.request == run[0].request for leaf in leaves)
    engine.leaf()
    assert len(recorder.spans) == 3  # nothing recorded after undo


def test_instance_shim_is_removed():
    recorder = Recorder()
    engine = Engine()
    wrapping = Wrapping(recorder)
    wrapping.wrap(engine, "leaf", "leaf", "core", root=True)
    engine.leaf()
    wrapping.undo()
    assert "leaf" not in vars(engine)
    assert recorder.spans[0].parent is None
