"""Risk landscapes over graph-structured predictor sets.

A predictor graph equips a problem's (finite) predictor list with an
adjacency structure, standing in for a topology on the predictor space.  The
risk function over that graph is the landscape; its Reeb graph contracts
each connected piece of each level set to a node.  Restricting alignments to
inverse-connected correspondences strengthens the plain distance into one
that also controls the landscape's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require, within_cap
from .distance import (
    ENUMERATION_CAPACITY,
    DistanceResult,
    _minimax_coupling_lp,  # noqa: F401  unused; perfbench's tracer wraps this binding
    _pair_costs,
    _pattern_sweep,
    _result,
    check_correspondence,
)
from .problems import (
    FiniteProblem,
    _count,
    _index_array,
    _mask,
    _real,
    all_risks,
    constrained_bayes_risk,
)

CONNECTED_CAP_PAIRS = 9


@dataclass(frozen=True)
class PredictorGraph:
    """A problem plus an undirected adjacency structure on its predictors."""

    problem: FiniteProblem
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.problem.n_predictors
        edges = _index_array(self.edges, "edges")
        # no edges at all is a graph too, whatever the empty list's shape
        edges = _index_array(edges.reshape(-1, 2) if edges.size == 0 else edges,
                             "edges", (None, 2))
        require((edges >= 0) & (edges < n), "edges", f"must lie in [0, {n})")
        require(edges[:, 0] != edges[:, 1], "edges", "must not be a self-loop")
        norm = {(min(a, b), max(a, b)) for a, b in edges.tolist()}
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def adjacency(self) -> np.ndarray:
        n = self.problem.n_predictors
        adj = np.zeros((n, n), dtype=bool)
        for a, b in self.edges:
            adj[a, b] = adj[b, a] = True
        return adj


@dataclass(frozen=True)
class ReebGraph:
    """Quotient of a predictor graph by connected components of risk levels.

    ``nodes`` holds (height, member predictor indices); ``edges`` connect
    nodes whose member sets are joined by an original edge.
    """

    nodes: tuple[tuple[float, tuple[int, ...]], ...]
    edges: tuple[tuple[int, int], ...]

    def heights(self) -> np.ndarray:
        return np.array([h for h, _ in self.nodes])

    def degrees(self) -> np.ndarray:
        deg = np.zeros(len(self.nodes), dtype=int)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def local_minima(self) -> list[int]:
        """Nodes all of whose neighbors sit strictly higher.

        On a circle-shaped landscape the unique minimum is such a node of
        degree two; on an interval it is a degree-one leaf.
        """
        heights = self.heights()
        neighbor_min = np.full(len(self.nodes), np.inf)
        for a, b in self.edges:
            neighbor_min[a] = min(neighbor_min[a], heights[b])
            neighbor_min[b] = min(neighbor_min[b], heights[a])
        return [i for i in range(len(self.nodes)) if heights[i] < neighbor_min[i]]


def _components(vertices, adjacent) -> list[list[int]]:
    """Connected components of the graph that the boolean matrix
    ``adjacent[v][w]`` induces on ``vertices``, each a sorted list, ordered
    by their smallest members."""
    unseen = sorted(vertices)
    components = []
    while unseen:
        component = [unseen.pop(0)]
        for v in component:  # also visits the vertices appended on the way
            row = adjacent[v]
            reached = [w for w in unseen if row[w]]
            if reached:
                component += reached
                unseen = [w for w in unseen if not row[w]]
        components.append(sorted(component))
    return components


def risk_landscape(pg: PredictorGraph) -> np.ndarray:
    """Risk of every predictor, indexed like the graph's vertices."""
    return all_risks(pg.problem)


def reeb_graph(pg: PredictorGraph, height_tol: float = 0.0) -> ReebGraph:
    """Contract each same-height connected group of predictors to one node.

    Heights are grouped exactly by default; ``height_tol`` merges levels
    whose gap is at most the tolerance (discretized landscapes rarely collide
    exactly).  The minimum node height equals the problem's optimal risk.
    """
    height_tol = _real(height_tol, "height_tol")
    require(0 <= height_tol < np.inf, "height_tol", "must be finite and nonnegative")
    heights = risk_landscape(pg)
    n = len(heights)
    order = np.argsort(heights, kind="stable")
    jumps = np.diff(heights[order], prepend=heights[order[0]]) > height_tol
    level_of = np.empty(n, dtype=int)
    level_of[order] = np.cumsum(jumps)  # a new level after each jump
    same_level = pg.adjacency() & (level_of[:, None] == level_of[None, :])
    members = _components(range(n), same_level.tolist())
    # Members share one height when height_tol is 0; min keeps the lowest
    # node's height bit-equal to the optimal risk even when levels merge.
    nodes = tuple((float(heights[m].min()), tuple(m)) for m in members)
    node_of = {i: k for k, m in enumerate(members) for i in m}
    edges = {tuple(sorted((node_of[a], node_of[b]))) for a, b in pg.edges
             if node_of[a] != node_of[b]}
    return ReebGraph(nodes=nodes, edges=tuple(sorted(edges)))


# --------------------------------------------------------------------------
# Inverse-connected correspondences
# --------------------------------------------------------------------------

def is_inverse_connected(
    r: np.ndarray, left: PredictorGraph, right: PredictorGraph
) -> bool:
    """Whether both projections of the correspondence pull connected sets
    back to connected sets.

    The correspondence carries the product-graph structure restricted to its
    pairs: two pairs are adjacent when both coordinates are equal or
    adjacent.  A vertex's fiber, or an edge's, is connected exactly when its
    image, the predictors of the other graph that it relates to, is
    connected there; checking these images suffices for all connected sets
    (induction along a spanning tree; see docs/algorithms.md).
    """
    shape = (left.problem.n_predictors, right.problem.n_predictors)
    r = check_correspondence(_mask(r, "correspondence", shape))
    for rows, graph, other in ((r, left, right), (r.T, right, left)):
        adjacent = other.adjacency().tolist()
        images = [set(np.flatnonzero(row).tolist()) for row in rows]
        edge_images = [images[a] | images[b] for a, b in graph.edges]
        if any(len(_components(s, adjacent)) != 1 for s in images + edge_images):
            return False
    return True


def connected_risk_distance_exact(
    pg: PredictorGraph,
    pg_prime: PredictorGraph,
    cap_pairs: int = CONNECTED_CAP_PAIRS,
) -> DistanceResult:
    """Risk distance restricted to inverse-connected correspondences.

    Every correspondence on H x H' is a candidate for the exact solver's
    score-sorted sweep: candidates are taken in increasing order of their
    per-pair transport lower bound, fewer pairs first among equal bounds,
    and solved by the exact minimax coupling LP until no remaining bound can
    beat the best value.  A candidate reached is skipped when it contains a
    correspondence already solved, since its LP has every constraint of that
    one's, and is otherwise checked for inverse connectivity; so only
    minimal inverse-connected correspondences are solved.  Dominates the
    unrestricted distance.  If no correspondence is inverse-connected the
    distance is infinite.  A ``cap_pairs`` raised so far that the relation
    bits would exceed ``distance.ENUMERATION_CAPACITY`` bytes is refused
    with a capacity error before they are built.
    """
    cap_pairs = _count(cap_pairs, "cap_pairs")
    p, q = pg.problem, pg_prime.problem
    n_pairs = p.n_predictors * q.n_predictors
    within_cap(n_pairs, cap_pairs, "cap_pairs", "relation enumeration needs |H||H'|")
    within_cap(8 * n_pairs * ((1 << n_pairs) - 1), ENUMERATION_CAPACITY,
               "enumeration", "the relation bits need a byte count")
    # relation k holds pair b (row-major) when bit b of k is set
    relations = np.arange(1, 1 << n_pairs)[:, None] >> np.arange(n_pairs) & 1
    relations = relations.astype(bool).reshape(-1, p.n_predictors, q.n_predictors)
    covering = relations.any(axis=2).all(axis=1) & relations.any(axis=1).all(axis=1)
    relations = relations[covering]
    # fewer pairs first, so among equal scores every subset precedes its supersets
    relations = relations[np.argsort(relations.sum(axis=(1, 2)), kind="stable")]
    solved = []  # the sweep solves each relation it admits at once

    def admissible(rel: np.ndarray) -> bool:
        if any((s <= rel).all() for s in solved):
            return False  # its LP holds every constraint of s's: no lower value
        if not is_inverse_connected(rel, pg, pg_prime):
            return False
        solved.append(rel)
        return True

    value, gamma_flat, r = _pattern_sweep(
        _pair_costs(p, q), p.eta.ravel(), q.eta.ravel(), relations, admissible)
    if gamma_flat is None:
        return DistanceResult(value=np.inf, status="exact")
    return _result(value, "exact", p, q, gamma_flat, r=r)


def reeb_sandwich(
    pg: PredictorGraph, pg_prime: PredictorGraph
) -> tuple[float, float]:
    """The two computable ends of the landscape-stability sandwich.

    The gap between optimal risks bounds the universal Reeb-graph distance
    from below; the connected distance bounds it from above.  The universal
    distance itself is not computed.
    """
    lower = abs(
        constrained_bayes_risk(pg.problem)
        - constrained_bayes_risk(pg_prime.problem)
    )
    upper = connected_risk_distance_exact(pg, pg_prime).value
    return lower, upper
