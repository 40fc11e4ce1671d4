"""Seeded inputs for the benchmark workloads.

This generator is deliberately separate from ``tests/gen.py``: editing the
test helpers must never change what a workload measures.  Every draw comes
from ``numpy.random.SeedSequence([seed, *tags])``, so one seed gives the same
inputs on every machine and each workload item has its own stream.
"""

from __future__ import annotations

import numpy as np

import riskspace as rs


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _distinct_predictors(rng: np.random.Generator, nx: int, ny: int,
                         n_h: int) -> np.ndarray:
    """n_h distinct maps from nx inputs to ny labels, as label-index rows."""
    codes = rng.choice(ny**nx, size=n_h, replace=False)
    return np.array([[(c // ny**x) % ny for x in range(nx)] for c in codes],
                    dtype=np.int64)


def random_problem(rng: np.random.Generator, nx: int, ny: int,
                   n_h: int) -> rs.FiniteProblem:
    """Full-support joint law, random loss, distinct random predictors."""
    eta = rng.random((nx, ny)) + 0.05
    return rs.FiniteProblem(
        x_labels=_labels("x", nx),
        y_labels=_labels("y", ny),
        eta=eta / eta.sum(),
        loss=rng.random((ny, ny)) * 2.0,
        predictors=_distinct_predictors(rng, nx, ny, n_h),
    )


def _circulant_loss(v: np.ndarray) -> np.ndarray:
    n = len(v)
    return np.array([[v[(y - k) % n] for y in range(n)] for k in range(n)])


def balanced_pair(rng: np.random.Generator, nx: int, ny: int, n_h: int,
                  n_hp: int) -> tuple[rs.FiniteProblem, rs.FiniteProblem]:
    """A pair whose per-pair transport lower bounds are all zero.

    Each row of a circulant loss is a permutation of one vector ``v``, and
    the joint laws spread each input's mass evenly over the labels, so every
    predictor on either side incurs a loss distributed uniformly over ``v``.
    The exact solver's score-sorted sweep therefore prunes no assignment
    pattern: it solves one minimax LP per distinct pattern union, a count
    fixed by (|H|, |H'|) alone.  The seed moves the values, never the work.
    """
    v = np.concatenate([[0.0], rng.random(ny - 1) * 2.0 + 0.1])
    loss = _circulant_loss(v)

    def side(n_preds: int) -> rs.FiniteProblem:
        w = rng.random(nx) + 0.2
        eta = np.repeat((w / w.sum())[:, None] / ny, ny, axis=1)
        return rs.FiniteProblem(
            x_labels=_labels("x", nx),
            y_labels=_labels("y", ny),
            eta=eta,
            loss=loss,
            predictors=_distinct_predictors(rng, nx, ny, n_preds),
        )

    return side(n_h), side(n_hp)


def weighted(rng: np.random.Generator, problem: rs.FiniteProblem
             ) -> rs.WeightedProblem:
    lam = rng.random(problem.n_predictors) + 0.2
    return rs.WeightedProblem(problem=problem, lam=lam / lam.sum())


def mm_space(rng: np.random.Generator, n: int
             ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Random planar points under the L1 metric, with a full-support mass."""
    pts = rng.random((n, 2)) * 2.0
    dist = np.abs(pts[:, None] - pts[None, :]).sum(axis=2)
    mu = rng.random(n) + 0.1
    return _labels("a", n), dist, mu / mu.sum()


def graph_edges(kind: str, n: int) -> tuple[tuple[int, int], ...]:
    path = tuple((i, i + 1) for i in range(n - 1))
    if kind == "path":
        return path
    if kind == "cycle":
        return path + ((0, n - 1),)
    if kind == "complete":
        return tuple((i, j) for i in range(n) for j in range(i + 1, n))
    raise ValueError(kind)


def threshold_landscapes(k: int) -> tuple[rs.PredictorGraph, rs.PredictorGraph]:
    """Cutoff landscapes on a k-point grid: threshold predictors that switch
    the first or the last j inputs to label 1 trace a circle through the two
    constant predictors; deleting the all-zeros predictor leaves an interval.
    Every observation is labelled 0 under 0-1 loss, so risk is j/k."""
    eta = np.zeros((k, 2))
    eta[:, 0] = 1.0 / k
    loss = np.array([[0.0, 1.0], [1.0, 0.0]])

    def first(j):
        return [1] * j + [0] * (k - j)

    def last(j):
        return [0] * (k - j) + [1] * j

    circle = [first(j) for j in range(k + 1)] + [last(j) for j in range(k - 1, 0, -1)]
    interval = [first(j) for j in range(1, k + 1)] + [last(j) for j in range(k - 1, -1, -1)]

    def graph(preds, closed):
        n = len(preds)
        problem = rs.FiniteProblem(_labels("x", k), ("0", "1"), eta, loss,
                                   np.array(preds))
        edges = graph_edges("cycle" if closed else "path", n)
        return rs.PredictorGraph(problem=problem, edges=edges)

    return graph(circle, True), graph(interval, False)


def constants_graph(values: list[float]) -> rs.PredictorGraph:
    """One input, one label per value, the loss |value - value'|, and the
    constant predictors joined in a path.  With values (0, 1) against
    (0, 1, 0.4) the best plain alignment is inverse-disconnected: the plain
    distance is 0.4 and the connected distance 0.6."""
    n = len(values)
    eta = np.zeros((1, n))
    eta[0, 0] = 1.0
    problem = rs.FiniteProblem(
        x_labels=("x",),
        y_labels=_labels("y", n),
        eta=eta,
        loss=np.abs(np.subtract.outer(values, values)),
        predictors=np.arange(n)[:, None],
    )
    return rs.PredictorGraph(problem=problem, edges=graph_edges("path", n))


def random_predictor_graph(rng: np.random.Generator, nx: int, ny: int,
                           n_h: int) -> rs.PredictorGraph:
    """A path over the predictors plus a few random chords."""
    problem = random_problem(rng, nx, ny, n_h)
    edges = set(graph_edges("path", n_h))
    for a, b in rng.integers(0, n_h, size=(3, 2)):
        if a != b:
            edges.add((int(min(a, b)), int(max(a, b))))
    return rs.PredictorGraph(problem=problem, edges=tuple(sorted(edges)))
