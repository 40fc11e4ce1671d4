"""Seeded generators and independent brute-force oracles for the test suite.

Oracles here deliberately avoid the library code paths they are used to
check: risks are summed with explicit loops, transport values come from
vertex enumeration rather than the LP solver, correspondence optima from
exhaustive relation enumeration, and coupling optima from grid search.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskspace import (
    FiniteProblem,
    Partition,
    PredictorGraph,
    WeightedProblem,
    is_inverse_connected,
    solve_ot_exact,
)
from riskspace.distance import _minimax_coupling_lp, _pair_costs


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

def random_problem(
    rng: np.random.Generator,
    nx: int | None = None,
    ny: int | None = None,
    n_h: int | None = None,
    max_nx: int = 3,
    max_ny: int = 3,
    max_h: int = 3,
    loss_scale: float = 2.0,
    eta_support: int | None = None,
) -> FiniteProblem:
    nx = nx or int(rng.integers(2, max_nx + 1))
    ny = ny or int(rng.integers(2, max_ny + 1))
    n_h = n_h or int(rng.integers(1, max_h + 1))
    if eta_support is None:
        eta = rng.random((nx, ny))
    else:
        eta = np.zeros(nx * ny)
        cells = rng.choice(nx * ny, size=eta_support, replace=False)
        eta[cells] = rng.random(eta_support) + 0.05
        eta = eta.reshape(nx, ny)
    eta = eta / eta.sum()
    loss = rng.random((ny, ny)) * loss_scale
    predictors = rng.integers(0, ny, size=(n_h, nx))
    return FiniteProblem(
        x_labels=tuple(f"x{i}" for i in range(nx)),
        y_labels=tuple(f"y{j}" for j in range(ny)),
        eta=eta,
        loss=loss,
        predictors=predictors,
    )


def random_weighted(rng: np.random.Generator, **kwargs) -> WeightedProblem:
    problem = random_problem(rng, **kwargs)
    lam = rng.random(problem.n_predictors) + 0.05
    return WeightedProblem(problem=problem, lam=lam / lam.sum())


def scaled(problem, k: float):
    """``problem`` with every loss multiplied by ``k``, which multiplies
    every risk and Risk distance by ``k``; a weighted problem keeps its
    weights and a predictor graph its edges."""
    if isinstance(problem, FiniteProblem):
        return replace(problem, loss=problem.loss * k)
    return replace(problem, problem=scaled(problem.problem, k))


def random_partition(rng: np.random.Generator, ny: int) -> Partition:
    n_blocks = int(rng.integers(1, ny + 1))
    assignment = rng.integers(0, n_blocks, size=ny)
    # make sure every block index up to its max is used
    blocks = [tuple(np.flatnonzero(assignment == b)) for b in range(n_blocks)]
    blocks = [b for b in blocks if b]
    return Partition(blocks=tuple(blocks), ny=ny)


# the component each shared-structure mode lets differ between two problems
SHARED_MODE_CHANGES = {"shared_eta_H": "loss", "shared_all_but_eta": "eta",
                       "shared_all_but_H": "predictors"}


@st.composite
def shared_pairs(draw, mode: str) -> tuple[FiniteProblem, FiniteProblem]:
    """Small problem pairs (at most 2x3 grids and 3 predictors each, inside
    the exact solver's caps) that share everything but the component
    ``mode`` lets differ.  Joint laws are normalized weights 0-4, so zero
    cells and ties come up often."""
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(2, 3))

    def eta():
        weights = draw(arrays(np.int64, (nx, ny), elements=st.integers(0, 4))
                       .filter(lambda w: w.sum() > 0))
        return weights / weights.sum()

    def loss():
        return draw(arrays(float, (ny, ny), elements=st.floats(0, 2)))

    def predictors():
        return draw(arrays(np.int64, (draw(st.integers(1, 3)), nx),
                           elements=st.integers(0, ny - 1)))

    draws = {"eta": eta, "loss": loss, "predictors": predictors}
    p = FiniteProblem(tuple(f"x{i}" for i in range(nx)),
                      tuple(f"y{j}" for j in range(ny)),
                      eta(), loss(), predictors())
    changed = SHARED_MODE_CHANGES[mode]
    return p, replace(p, **{changed: draws[changed]()})


def random_predictor_graph(rng: np.random.Generator, **kwargs) -> PredictorGraph:
    """A random problem on a connected predictor graph: a path through the
    predictors in random order, plus each other pair with probability 1/2."""
    problem = random_problem(rng, **kwargs)
    order = rng.permutation(problem.n_predictors)
    edges = {tuple(sorted(e)) for e in zip(order[:-1], order[1:])}
    edges |= {e for e in itertools.combinations(range(problem.n_predictors), 2)
              if rng.random() < 0.5}
    return PredictorGraph(problem=problem, edges=tuple(sorted(edges)))


def rademacher_example_problem(n: int) -> FiniteProblem:
    """n equiprobable inputs always labeled 0, 0-1 loss, singleton indicators."""
    eta = np.zeros((n, 2))
    eta[:, 0] = 1.0 / n
    predictors = np.zeros((n, n), dtype=int)
    for k in range(n):
        predictors[k, k] = 1
    return FiniteProblem(
        x_labels=tuple(f"x{i}" for i in range(n)),
        y_labels=("0", "1"),
        eta=eta,
        loss=np.array([[0.0, 1.0], [1.0, 0.0]]),
        predictors=predictors,
    )


def identity_support_problem() -> FiniteProblem:
    """2x2 inputs/labels, mass only on matching pairs, 0-1 loss, all 4 maps."""
    return FiniteProblem(
        x_labels=("x0", "x1"),
        y_labels=("y0", "y1"),
        eta=np.array([[0.5, 0.0], [0.0, 0.5]]),
        loss=np.array([[0.0, 1.0], [1.0, 0.0]]),
        predictors=np.array([[0, 1], [0, 0], [1, 1], [1, 0]]),
    )


def repeated_predictor_problem(n_h: int) -> FiniteProblem:
    """One input, two labels, 0-1 loss and ``n_h`` copies of one constant
    predictor: as many predictor pairs as wanted at a tiny support."""
    return FiniteProblem(("x",), ("a", "b"), [[0.5, 0.5]], 1.0 - np.eye(2),
                         np.zeros((n_h, 1), dtype=int))


def cutoff_landscapes(k: int) -> tuple[PredictorGraph, PredictorGraph]:
    """Discretized one-dimensional threshold landscapes: a circle and the
    interval obtained by deleting the circle's all-zeros predictor.

    Inputs are a k-point grid, every observation carries label 0, and the
    loss is 0-1.  Left-threshold predictors switch the first j inputs to 1,
    right-threshold predictors the last j; sweeping both families traces a
    circle through the constant predictors, with risk j/k along the way.
    """
    eta = np.zeros((k, 2))
    eta[:, 0] = 1.0 / k
    loss = np.array([[0.0, 1.0], [1.0, 0.0]])

    def left(j):
        v = np.zeros(k, dtype=int)
        v[:j] = 1
        return v

    def right(j):
        v = np.zeros(k, dtype=int)
        if j:
            v[-j:] = 1
        return v

    circle_preds = [left(j) for j in range(k + 1)]
    circle_preds += [right(j) for j in range(k - 1, 0, -1)]
    n = len(circle_preds)
    circle = PredictorGraph(
        problem=FiniteProblem(
            x_labels=tuple(f"x{i}" for i in range(k)),
            y_labels=("0", "1"),
            eta=eta,
            loss=loss,
            predictors=np.array(circle_preds),
        ),
        edges=tuple((i, (i + 1) % n) for i in range(n)),
    )
    interval_preds = [left(j) for j in range(1, k + 1)]
    interval_preds += [right(j) for j in range(k - 1, -1, -1)]
    interval = PredictorGraph(
        problem=FiniteProblem(
            x_labels=tuple(f"x{i}" for i in range(k)),
            y_labels=("0", "1"),
            eta=eta,
            loss=loss,
            predictors=np.array(interval_preds),
        ),
        edges=tuple((i, i + 1) for i in range(n - 1)),
    )
    return circle, interval


def connected_gap_instance() -> tuple[PredictorGraph, PredictorGraph]:
    """A frozen pair where the best unrestricted alignment is inverse-
    disconnected: matching both extreme predictors of the first problem onto
    the ends of the second problem's path costs 0.4, but no inverse-connected
    correspondence does better than 0.6."""
    def constants_problem(values):
        n = len(values)
        eta = np.zeros((1, n))
        eta[0, 0] = 1.0
        loss = np.abs(np.subtract.outer(values, values))
        predictors = np.arange(n)[:, None]
        return FiniteProblem(
            x_labels=("x",),
            y_labels=tuple(f"y{i}" for i in range(n)),
            eta=eta,
            loss=loss,
            predictors=predictors,
        )

    left = PredictorGraph(problem=constants_problem(np.array([0.0, 1.0])),
                          edges=((0, 1),))
    right = PredictorGraph(
        problem=constants_problem(np.array([0.0, 1.0, 0.4])),
        edges=((0, 1), (1, 2)),
    )
    return left, right


# --------------------------------------------------------------------------
# Brute-force oracles
# --------------------------------------------------------------------------

def brute_risk(problem: FiniteProblem, h: int) -> float:
    total = 0.0
    for x in range(problem.nx):
        for y in range(problem.ny):
            total += problem.eta[x, y] * problem.loss[problem.predictors[h, x], y]
    return total


def brute_profile(problem: FiniteProblem, h: int) -> dict[float, float]:
    atoms: dict[float, float] = {}
    for x in range(problem.nx):
        for y in range(problem.ny):
            value = float(problem.loss[problem.predictors[h, x], y])
            atoms[value] = atoms.get(value, 0.0) + float(problem.eta[x, y])
    return atoms


def transport_vertices(mu: np.ndarray, nu: np.ndarray) -> list[np.ndarray]:
    """Basic feasible solutions of the transportation polytope, by support
    enumeration and direct linear solves (independent of any LP solver)."""
    rows = [i for i, v in enumerate(mu) if v > 0]
    cols = [j for j, v in enumerate(nu) if v > 0]
    m, n = len(rows), len(cols)
    cells = list(itertools.product(range(m), range(n)))
    k = m + n - 1
    vertices: dict[bytes, np.ndarray] = {}
    for support in itertools.combinations(cells, k):
        # marginal equations, dropping the last column equation (redundant)
        a = np.zeros((m + n - 1, k))
        b = np.concatenate([np.asarray(mu)[rows], np.asarray(nu)[cols][:-1]])
        for col, (i, j) in enumerate(support):
            a[i, col] = 1.0
            if j < n - 1:
                a[m + j, col] = 1.0
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        plan = np.zeros((m, n))
        for col, (i, j) in enumerate(support):
            plan[i, j] = sol[col]
        if np.any(plan < -1e-9):
            continue
        plan = np.clip(plan, 0.0, None)
        if np.max(np.abs(plan.sum(axis=1) - np.asarray(mu)[rows])) > 1e-9:
            continue
        if np.max(np.abs(plan.sum(axis=0) - np.asarray(nu)[cols])) > 1e-9:
            continue
        full = np.zeros((len(mu), len(nu)))
        full[np.ix_(rows, cols)] = plan
        # a vertex is the only coupling on its support, however small its masses
        vertices.setdefault((full > 1e-12).tobytes(), full)
    return list(vertices.values())


def ot_value_by_vertices(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    return min(float(np.sum(v * cost)) for v in transport_vertices(mu, nu))


def bilinear_vertex_oracle(
    dist_a: np.ndarray, mu_a: np.ndarray, dist_b: np.ndarray, mu_b: np.ndarray
) -> float:
    """min over couplings gamma, rho of (mu_a, mu_b) of
    sum |d_A(a2, a1) - d_B(b2, b1)| gamma(a1, b1) rho(a2, b2).

    The objective is bilinear, so the minimum is attained at a pair of
    transportation-polytope vertices; every pair is evaluated."""
    na, nb = len(mu_a), len(mu_b)
    # cost[(a2, b2), (a1, b1)] = |d_A(a2, a1) - d_B(b2, b1)|
    cost = np.abs(
        np.asarray(dist_a)[:, None, :, None] - np.asarray(dist_b)[None, :, None, :]
    ).reshape(na * nb, na * nb)
    vertices = np.array([v.ravel() for v in transport_vertices(mu_a, mu_b)])
    return float((vertices @ cost @ vertices.T).min())


def enumerate_correspondences(n_h: int, n_hp: int):
    """All correspondences on an (n_h, n_hp) grid; n_h * n_hp <= 9 expected."""
    cells = list(itertools.product(range(n_h), range(n_hp)))
    for mask in range(1, 1 << len(cells)):
        r = np.zeros((n_h, n_hp), dtype=bool)
        for bit, (i, j) in enumerate(cells):
            if mask >> bit & 1:
                r[i, j] = True
        if r.any(axis=1).all() and r.any(axis=0).all():
            yield r


def assignment_unions_oracle(n_h: int, n_hp: int) -> list[tuple[tuple[int, int], ...]]:
    """Distinct unions of a row assignment and a column assignment, each as
    its sorted pair list, in sorted order; by explicit loops over both
    assignment sets."""
    unions = set()
    for a in itertools.product(range(n_hp), repeat=n_h):
        for b in itertools.product(range(n_h), repeat=n_hp):
            pairs = {(h, a[h]) for h in range(n_h)} | {(b[g], g) for g in range(n_hp)}
            unions.add(tuple(sorted(pairs)))
    return sorted(unions)


def correspondence_minimax_oracle(costs: np.ndarray) -> float:
    """min over correspondences of the max selected cost, by enumeration."""
    best = np.inf
    for r in enumerate_correspondences(*costs.shape):
        best = min(best, float(costs[r].max()))
    return best


def connected_distance_oracle(pg: PredictorGraph, qg: PredictorGraph) -> float:
    """The connected distance without pruning: the minimax coupling LP of
    every inverse-connected correspondence, minimized.

    It shares the library's LP and connectivity test, so it checks only the
    search around them; inf when no correspondence is inverse-connected.
    """
    p, q = pg.problem, qg.problem
    costs = _pair_costs(p, q)
    best = np.inf
    for r in enumerate_correspondences(p.n_predictors, q.n_predictors):
        if is_inverse_connected(r, pg, qg):
            value, _ = _minimax_coupling_lp(costs[r], p.eta.ravel(), q.eta.ravel())
            best = min(best, value)
    return best


def kernel_transport_oracle(
    m_kernel: np.ndarray, n_kernel: np.ndarray, base_mu: np.ndarray,
    ground: np.ndarray,
) -> float:
    """The base-measure average of the exact transport costs from row i of
    ``m_kernel`` to row i of ``n_kernel`` under ``ground``: one transport
    solve per state of positive mass, where the noise certificates take a
    closed-form expectation."""
    total = 0.0
    for i in np.flatnonzero(base_mu > 0):
        _, value = solve_ot_exact(ground, m_kernel[i], n_kernel[i])
        total += float(base_mu[i]) * value
    return total


def rademacher_tuple_oracle(values: np.ndarray, weights: np.ndarray, m: int) -> float:
    """Exact order-m Rademacher complexity of the rows of ``values`` over
    atoms of probability ``weights``: a loop over every atom m-tuple (weighted
    by the product law, zero-weight tuples skipped) and every sign vector."""
    atoms = len(weights)
    sign_vectors = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    total = 0.0
    for obs in itertools.product(range(atoms), repeat=m):
        weight = float(np.prod(weights[list(obs)]))
        if weight == 0.0:
            continue
        table = values[:, list(obs)]  # (functions, m)
        sups = (sign_vectors @ table.T / m).max(axis=1)  # (2^m,)
        total += weight * float(sups.mean())
    return total


def grid_distance_oracle(
    p: FiniteProblem, q: FiniteProblem, step: float
) -> tuple[float, float]:
    """Grid search over the coupling polytope combined with the closed-form
    correspondence step.

    Returns (grid_min, slack): the smallest objective over strictly feasible
    grid couplings, and an a-priori bound on how far that can sit above the
    true optimum given the grid resolution.
    """
    mu = p.eta.ravel()
    nu = q.eta.ravel()
    rows = np.flatnonzero(mu > 0)
    cols = np.flatnonzero(nu > 0)
    a, b = len(rows), len(cols)
    dim = (a - 1) * (b - 1)
    if dim > 3:
        raise ValueError("grid oracle supports at most 3 free parameters")

    la = p.predictor_loss_stack().reshape(p.n_predictors, -1)[:, rows]
    lb = q.predictor_loss_stack().reshape(q.n_predictors, -1)[:, cols]
    pair_costs = np.abs(la[:, None, :, None] - lb[None, :, None, :])
    pair_flat = pair_costs.reshape(p.n_predictors * q.n_predictors, a * b)
    cmax = float(pair_flat.max())

    sub_mu, sub_nu = mu[rows], nu[cols]
    if dim == 0:
        gamma = np.outer(sub_mu, sub_nu).ravel()
        c = (pair_flat @ gamma).reshape(p.n_predictors, q.n_predictors)
        value = max(c.min(axis=1).max(), c.min(axis=0).max())
        return float(value), 0.0

    axes = [np.arange(0.0, min(sub_mu[i], sub_nu[j]) + step, step)
            for i in range(a - 1) for j in range(b - 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=1)  # (G, dim)

    best = np.inf
    chunk = 200_000
    for start in range(0, free.shape[0], chunk):
        block = free[start : start + chunk]
        g = np.zeros((block.shape[0], a, b))
        idx = 0
        for i in range(a - 1):
            for j in range(b - 1):
                g[:, i, j] = block[:, idx]
                idx += 1
        g[:, : a - 1, b - 1] = sub_mu[: a - 1] - g[:, : a - 1, : b - 1].sum(axis=2)
        g[:, a - 1, :] = sub_nu - g[:, : a - 1, :].sum(axis=1)
        feasible = (g >= 0.0).all(axis=(1, 2))
        if not feasible.any():
            continue
        g = g[feasible].reshape(-1, a * b)
        c = (g @ pair_flat.T).reshape(-1, p.n_predictors, q.n_predictors)
        values = np.maximum(
            c.min(axis=2).max(axis=1), c.min(axis=1).max(axis=1)
        )
        best = min(best, float(values.min()))
    # nearest-grid rounding moves each free coordinate by at most step and
    # the coupling by at most 4*step per coordinate in L1
    slack = 4.0 * step * dim * cmax + 1e-9
    return best, slack
