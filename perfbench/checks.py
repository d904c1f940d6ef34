"""Answer checks made apart from the program, outside the timed regions.

Every check compares the program's output with :mod:`perfbench.data`'s
brute force or with a property the method promises; none compares with a
stored copy of an earlier output.  A :class:`Checker` collects failures
instead of raising, so one run reports every broken property at once;
any failure makes the command exit non-zero.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from perfbench.data import direct_distances

#: Relative tolerance between a reported distance and the recomputed one
#: (both float64; they differ only in summation order).
RTOL = 1e-9
ATOL = 1e-9


class Checker:
    """Collects failed checks; ``ok`` is True while none failed."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checked = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, message: str) -> bool:
        self.checked += 1
        if not condition:
            self.failures.append(message)
        return bool(condition)

    # ------------------------------------------------------------------
    # kNN answers
    # ------------------------------------------------------------------

    def knn_row(
        self,
        label: str,
        ids: np.ndarray,
        dists: np.ndarray,
        data: np.ndarray,
        query: np.ndarray,
        k: int,
        dead: Optional[np.ndarray] = None,
        ntotal: int | None = None,
    ) -> bool:
        """k distinct live ids, ascending by (distance, id), each distance
        equal to the recomputed true distance."""
        ids = np.asarray(ids)
        dists = np.asarray(dists)
        ntotal = data.shape[0] if ntotal is None else ntotal
        if not self.expect(ids.shape == (k,), f"{label}: {ids.size} ids, expected {k}"):
            return False
        if not self.expect(
            bool(np.all((ids >= 0) & (ids < ntotal))), f"{label}: id out of range {ids}"
        ):
            return False
        good = self.expect(np.unique(ids).size == k, f"{label}: repeated ids {ids}")
        if dead is not None:
            dead_hit = np.intersect1d(ids, dead)
            good &= self.expect(
                dead_hit.size == 0, f"{label}: deleted ids {dead_hit} returned"
            )
        steps = np.diff(dists)
        ordered = np.all((steps > 0) | ((steps == 0) & (np.diff(ids) > 0)))
        good &= self.expect(bool(ordered), f"{label}: not ordered by (distance, id)")
        true = direct_distances(data[ids], query)
        good &= self.expect(
            bool(np.allclose(dists, true, rtol=RTOL, atol=ATOL)),
            f"{label}: reported distances differ from true distances "
            f"(max abs err {np.max(np.abs(dists - true)):.3g})",
        )
        return bool(good)

    def exact_rows(
        self,
        label: str,
        ids: np.ndarray,
        dists: np.ndarray,
        truth_ids: np.ndarray,
        truth_dists: np.ndarray,
        data: np.ndarray,
        queries: np.ndarray,
    ) -> None:
        """The exact index must equal the brute force, ties included: same
        ids in the same order, except that a swap is allowed only where the
        brute force itself measures the two distances as equal."""
        for row in range(truth_ids.shape[0]):
            if np.array_equal(ids[row], truth_ids[row]):
                self.expect(
                    bool(np.allclose(dists[row], truth_dists[row], rtol=RTOL, atol=ATOL)),
                    f"{label} row {row}: distances differ from brute force",
                )
                continue
            true = direct_distances(data[ids[row]], queries[row])
            self.expect(
                bool(np.allclose(true, truth_dists[row], rtol=RTOL, atol=ATOL))
                and np.unique(ids[row]).size == ids.shape[1],
                f"{label} row {row}: ids {ids[row]} differ from brute force "
                f"{truth_ids[row]} beyond ties",
            )

    def identical(self, label: str, ids_a, dists_a, ids_b, dists_b) -> bool:
        """Byte identity of two answers to the same query on the same state."""
        return self.expect(
            np.array_equal(ids_a, ids_b) and np.array_equal(dists_a, dists_b),
            f"{label}: answers differ ({np.asarray(ids_a)[:4]}... vs {np.asarray(ids_b)[:4]}...)",
        )

    def c2_share(
        self,
        label: str,
        dists: np.ndarray,
        truth_dists: np.ndarray,
        c: float,
    ) -> float:
        """Theorem 1: at least 1/2 - 1/e of queries are c^2-approximate at
        every rank.  Returns the measured share."""
        ok = np.all(dists <= c * c * np.maximum(truth_dists, 1e-12) + ATOL, axis=1)
        share = float(np.mean(ok))
        self.expect(
            share >= 0.5 - 1.0 / np.e,
            f"{label}: only {share:.3f} of queries are c^2-approximate",
        )
        return share

    # ------------------------------------------------------------------
    # range answers
    # ------------------------------------------------------------------

    def range_rows(
        self,
        label: str,
        lims: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        balls: Sequence[np.ndarray],
        data: np.ndarray,
        queries: np.ndarray,
        radius: float,
        c: float,
        recall_floor: float,
    ) -> float:
        """Nothing beyond c*r, every distance true, and mean recall of the
        exact r-ball at least *recall_floor*.  Returns that recall."""
        recalls = []
        for row, ball in enumerate(balls):
            got = ids[lims[row] : lims[row + 1]]
            got_d = dists[lims[row] : lims[row + 1]]
            if got.size:
                true = direct_distances(data[got], queries[row])
                self.expect(
                    bool(np.allclose(got_d, true, rtol=RTOL, atol=ATOL)),
                    f"{label} row {row}: reported distances differ from true distances",
                )
                self.expect(
                    bool(np.all(true <= c * radius * (1 + RTOL))),
                    f"{label} row {row}: point beyond c*r returned",
                )
                self.expect(
                    np.unique(got).size == got.size, f"{label} row {row}: repeated ids"
                )
            if ball.size:
                recalls.append(np.intersect1d(got, ball).size / ball.size)
        recall = float(np.mean(recalls)) if recalls else 1.0
        self.expect(
            recall >= recall_floor,
            f"{label}: r-ball recall {recall:.3f} below the (r, c) floor {recall_floor:.3f}",
        )
        return recall


def recall_at_k(ids: np.ndarray, truth_ids: np.ndarray) -> float:
    """Mean share of the true k nearest ids found per query."""
    k = truth_ids.shape[1]
    hits = [np.intersect1d(a, b).size for a, b in zip(ids, truth_ids)]
    return float(np.sum(hits) / (k * len(hits)))
