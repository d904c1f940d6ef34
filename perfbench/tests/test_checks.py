"""The answer checks accept true answers and reject planted wrong ones."""

import numpy as np
import pytest

from perfbench.checks import Checker, recall_at_k
from perfbench.data import ball_truth, direct_distances, knn_truth, make_inputs

K = 5


@pytest.fixture(scope="module")
def tiny():
    inputs = make_inputs(3, n=400, d=8, num_queries=6, num_clusters=4)
    ids, dists = knn_truth(inputs.data, inputs.queries, K)
    return inputs.data, inputs.queries, ids, dists


def test_truth_matches_a_full_sort(tiny):
    data, queries, ids, dists = tiny
    for row, query in enumerate(queries):
        true = direct_distances(data, query)
        order = np.lexsort((np.arange(data.shape[0]), true))[:K]
        assert np.array_equal(ids[row], order)
        assert np.allclose(dists[row], true[order])


def test_true_answers_pass(tiny):
    data, queries, ids, dists = tiny
    checker = Checker()
    for row in range(len(queries)):
        assert checker.knn_row("row", ids[row], dists[row], data, queries[row], K)
    checker.exact_rows("exact", ids, dists, ids, dists, data, queries)
    assert checker.ok, checker.failures
    assert recall_at_k(ids, ids) == 1.0


def test_shifted_id_is_rejected(tiny):
    data, queries, ids, dists = tiny
    shifted = ids[0].copy()
    shifted[2] = (shifted[2] + 1) % data.shape[0]
    checker = Checker()
    assert not checker.knn_row("shifted", shifted, dists[0], data, queries[0], K)
    checker.exact_rows("exact", shifted[None], dists[:1], ids[:1], dists[:1], data, queries[:1])
    assert len(checker.failures) >= 2


def test_deleted_id_is_rejected(tiny):
    data, queries, ids, dists = tiny
    checker = Checker()
    dead = np.array([ids[0][1]])
    assert not checker.knn_row("dead", ids[0], dists[0], data, queries[0], K, dead=dead)
    assert any("deleted" in failure for failure in checker.failures)


def test_wrong_distance_is_rejected(tiny):
    data, queries, ids, dists = tiny
    wrong = dists[0].copy()
    wrong[-1] *= 1.0001
    checker = Checker()
    assert not checker.knn_row("distance", ids[0], wrong, data, queries[0], K)


def test_disorder_and_short_rows_are_rejected(tiny):
    data, queries, ids, dists = tiny
    checker = Checker()
    assert not checker.knn_row("order", ids[0][::-1], dists[0][::-1], data, queries[0], K)
    assert not checker.knn_row("short", ids[0][:-1], dists[0][:-1], data, queries[0], K)


def test_range_check_rejects_points_beyond_c_r(tiny):
    data, queries, _, dists = tiny
    radius = float(np.median(dists[:, -1]))
    balls = ball_truth(data, queries, radius)
    lims = np.concatenate([[0], np.cumsum([ball.size for ball in balls])])
    ids = np.concatenate(balls)
    got = np.concatenate(
        [direct_distances(data[ball], query) for ball, query in zip(balls, queries)]
    )
    checker = Checker()
    assert checker.range_rows("ball", lims, ids, got, balls, data, queries, radius, 1.5, 0.9) == 1.0
    assert checker.ok, checker.failures
    far = np.argmax(direct_distances(data, queries[0]))
    planted_ids = np.concatenate([[far], ids])
    planted_d = np.concatenate([[direct_distances(data[[far]], queries[0])[0]], got])
    planted_lims = lims + 1
    planted_lims[0] = 0
    checker.range_rows(
        "planted", planted_lims, planted_ids, planted_d, balls, data, queries, radius, 1.5, 0.9
    )
    assert any("beyond c*r" in failure for failure in checker.failures)


def test_c2_share_floor():
    checker = Checker()
    truth = np.ones((10, 3))
    assert checker.c2_share("good", truth * 2.0, truth, 1.5) == 1.0
    assert checker.ok
    checker.c2_share("bad", truth * 3.0, truth, 1.5)
    assert not checker.ok
