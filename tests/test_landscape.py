"""Risk landscapes, Reeb graphs, inverse connectivity, connected distance."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riskspace as rs
from riskspace import serialize
from gen import (
    connected_distance_oracle,
    connected_gap_instance,
    cutoff_landscapes,
    enumerate_correspondences,
    random_predictor_graph,
    random_problem,
    scaled,
)


def _path_graph(problem: rs.FiniteProblem) -> rs.PredictorGraph:
    n = problem.n_predictors
    return rs.PredictorGraph(problem=problem,
                             edges=tuple((i, i + 1) for i in range(n - 1)))


def _heights_problem(heights) -> rs.FiniteProblem:
    """One-input problem whose k-th predictor has risk heights[k]."""
    heights = np.asarray(heights, dtype=float)
    n = len(heights)
    eta = np.zeros((1, n))
    eta[0, 0] = 1.0
    loss = np.tile(heights[:, None], (1, n))
    return rs.FiniteProblem(
        x_labels=("x",),
        y_labels=tuple(f"y{i}" for i in range(n)),
        eta=eta,
        loss=loss,
        predictors=np.arange(n)[:, None],
    )


# --------------------------------------------------------------------------
# Landscape and Reeb extraction
# --------------------------------------------------------------------------

def test_landscape_heights_are_risks():
    rng = np.random.default_rng(100)
    p = random_problem(rng)
    pg = _path_graph(p)
    assert np.array_equal(rs.risk_landscape(pg), rs.all_risks(p))


def test_landscape_constant_loss_flat():
    p = rs.FiniteProblem(("x",), ("a", "b"), np.array([[0.5, 0.5]]),
                         np.full((2, 2), 0.7), np.array([[0], [1]]))
    heights = rs.risk_landscape(_path_graph(p))
    assert np.all(heights == 0.7)


def test_landscape_one_point_problem():
    pg = rs.PredictorGraph(problem=rs.one_point_problem(1.3), edges=())
    assert rs.risk_landscape(pg).tolist() == [1.3]


def test_reeb_path_one_basin():
    pg = _path_graph(_heights_problem([1.0, 0.0, 1.0]))
    reeb = rs.reeb_graph(pg)
    assert len(reeb.nodes) == 3
    assert sorted(reeb.heights().tolist()) == [0.0, 1.0, 1.0]
    assert len(reeb.local_minima()) == 1


def test_reeb_path_two_basins():
    pg = _path_graph(_heights_problem([1.0, 0.0, 1.0, 0.0, 1.0]))
    reeb = rs.reeb_graph(pg)
    minima = reeb.local_minima()
    assert len(minima) == 2
    assert all(reeb.nodes[i][0] == 0.0 for i in minima)


def test_reeb_min_height_is_bayes_risk():
    rng = np.random.default_rng(101)
    for _ in range(20):
        p = random_problem(rng)
        pg = _path_graph(p)
        reeb = rs.reeb_graph(pg)
        assert reeb.heights().min() == rs.constrained_bayes_risk(p)
        assert len(reeb.nodes) <= p.n_predictors


def test_reeb_same_level_components_merge():
    # two separate plateaus at the same height stay distinct nodes
    pg = _path_graph(_heights_problem([0.5, 0.5, 1.0, 0.5, 0.5]))
    reeb = rs.reeb_graph(pg)
    assert len(reeb.nodes) == 3
    assert sorted(len(m) for _, m in reeb.nodes) == [1, 2, 2]


def test_reeb_contraction_invariance():
    # duplicating a predictor inside a constant-height connected region
    # leaves the node/edge height structure unchanged
    base = _path_graph(_heights_problem([1.0, 0.4, 1.0]))
    dup = rs.PredictorGraph(
        problem=_heights_problem([1.0, 0.4, 0.4, 1.0]),
        edges=((0, 1), (1, 2), (2, 3)),
    )
    reeb_a = rs.reeb_graph(base)
    reeb_b = rs.reeb_graph(dup)
    assert sorted(reeb_a.heights().tolist()) == sorted(reeb_b.heights().tolist())
    edges_a = sorted(
        tuple(sorted((reeb_a.nodes[i][0], reeb_a.nodes[j][0])))
        for i, j in reeb_a.edges
    )
    edges_b = sorted(
        tuple(sorted((reeb_b.nodes[i][0], reeb_b.nodes[j][0])))
        for i, j in reeb_b.edges
    )
    assert edges_a == edges_b


def test_reeb_height_tolerance_merges_levels():
    pg = _path_graph(_heights_problem([0.5, 0.5 + 1e-7, 1.0]))
    assert len(rs.reeb_graph(pg).nodes) == 3
    assert len(rs.reeb_graph(pg, height_tol=1e-6).nodes) == 2


def _reeb_oracle(pg: rs.PredictorGraph, height_tol: float):
    """Same-level contraction by brute force: two predictors share a level
    when the sorted heights between them never jump by more than the
    tolerance; a node is a class of the transitive closure of same-level
    edges, numbered in order of its smallest member."""
    heights = rs.risk_landscape(pg).tolist()
    n = len(heights)

    def same_level(a, b):
        lo, hi = sorted((heights[a], heights[b]))
        between = sorted(h for h in heights if lo <= h <= hi)
        return all(y - x <= height_tol for x, y in zip(between, between[1:]))

    joined = [[a == b or ((min(a, b), max(a, b)) in pg.edges and same_level(a, b))
               for b in range(n)] for a in range(n)]
    for k in range(n):  # Warshall's transitive closure
        for a in range(n):
            for b in range(n):
                joined[a][b] = joined[a][b] or (joined[a][k] and joined[k][b])
    classes = sorted({tuple(b for b in range(n) if joined[a][b]) for a in range(n)})
    node_of = {v: k for k, members in enumerate(classes) for v in members}
    nodes = tuple((min(heights[v] for v in members), members) for members in classes)
    edges = sorted({tuple(sorted((node_of[a], node_of[b]))) for a, b in pg.edges
                    if node_of[a] != node_of[b]})
    return nodes, tuple(edges)


@pytest.mark.parametrize("height_tol", [0.0, 0.05])
def test_reeb_matches_brute_force_contraction(height_tol):
    rng = np.random.default_rng(109)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        # heights on a coarse grid plus small jitter: ties, near-ties and gaps
        heights = rng.integers(0, 4, size=n) / 4 + rng.choice([0.0, 0.03], size=n)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        pg = rs.PredictorGraph(problem=_heights_problem(heights), edges=edges)
        reeb = rs.reeb_graph(pg, height_tol=height_tol)
        assert (reeb.nodes, reeb.edges) == _reeb_oracle(pg, height_tol)


def test_reeb_dict_is_json_serializable():
    rng = np.random.default_rng(110)
    pg = random_predictor_graph(rng, n_h=3)
    data = serialize.reeb_to_dict(rs.reeb_graph(pg))
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_reeb_height_tolerance_must_be_finite_nonnegative(tol):
    pg = _path_graph(_heights_problem([0.5, 0.5, 1.0]))
    with pytest.raises(rs.ValidationError) as err:
        rs.reeb_graph(pg, height_tol=tol)
    assert err.value.field == "height_tol"


@pytest.mark.parametrize("edges, field", [
    ([[0.5, 1.9], [True, 2]], "edges[0][0]"),
    ([[0, 1], [True, 2]], "edges[1][0]"),
    ([[0, 1], [1, 3]], "edges[1][1]"),
    ([[0, 1], [2, 2]], "edges[1]"),
    ([0, 1], "edges"),
])
def test_predictor_graph_edges_are_refused_not_cast(edges, field):
    with pytest.raises(rs.ValidationError) as err:
        rs.PredictorGraph(_heights_problem([0.1, 0.2, 0.3]), edges)
    assert err.value.field == field


def test_predictor_graph_normalizes_edges():
    pg = rs.PredictorGraph(_heights_problem([0.1, 0.2, 0.3]),
                           [[2, 1.0], [1, 2], [0, 1]])
    assert pg.edges == ((0, 1), (1, 2))
    assert rs.PredictorGraph(_heights_problem([0.1]), ()).edges == ()


def test_circle_vs_interval_minima_counts():
    circle, interval = cutoff_landscapes(6)
    reeb_circle = rs.reeb_graph(circle)
    reeb_interval = rs.reeb_graph(interval)
    assert len(reeb_circle.local_minima()) == 1
    assert len(reeb_interval.local_minima()) == 2
    # single basin on the circle: its minimum sits at the optimal risk
    assert reeb_circle.heights().min() == rs.constrained_bayes_risk(
        circle.problem
    )


# --------------------------------------------------------------------------
# Inverse connectivity
# --------------------------------------------------------------------------

def _connected_subsets(n: int, edges):
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                v = stack.pop()
                for w in subset:
                    if w not in seen and adj[v, w]:
                        seen.add(w)
                        stack.append(w)
            if seen == set(subset):
                yield subset


def _inverse_connected_oracle(r, left: rs.PredictorGraph,
                              right: rs.PredictorGraph) -> bool:
    """Check every connected subset directly, not just vertex/edge fibers."""
    pairs = [tuple(ij) for ij in np.argwhere(r)]
    adj_l = left.adjacency()
    adj_r = right.adjacency()

    def pair_adjacent(a, b):
        (h1, g1), (h2, g2) = a, b
        return ((h1 == h2 or adj_l[h1, h2])
                and (g1 == g2 or adj_r[g1, g2])
                and a != b)

    def preimage_connected(subset, axis):
        members = [pr for pr in pairs if pr[axis] in subset]
        if not members:
            return False
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            v = stack.pop()
            for w in members:
                if w not in seen and pair_adjacent(v, w):
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(members)

    n_left = left.problem.n_predictors
    n_right = right.problem.n_predictors
    for subset in _connected_subsets(n_left, left.edges):
        if not preimage_connected(set(subset), 0):
            return False
    for subset in _connected_subsets(n_right, right.edges):
        if not preimage_connected(set(subset), 1):
            return False
    return True


def test_diagonal_correspondence_inverse_connected():
    rng = np.random.default_rng(102)
    p = random_problem(rng, n_h=3)
    pg = _path_graph(p)
    assert rs.is_inverse_connected(np.eye(3, dtype=bool), pg, pg)
    # holds on every graph, including the edgeless one
    bare = rs.PredictorGraph(problem=p, edges=())
    assert rs.is_inverse_connected(np.eye(3, dtype=bool), bare, bare)


def test_full_correspondence_between_connected_graphs():
    rng = np.random.default_rng(103)
    a = _path_graph(random_problem(rng, n_h=3))
    b = _path_graph(random_problem(rng, n_h=2))
    assert rs.is_inverse_connected(np.ones((3, 2), dtype=bool), a, b)


def test_split_fiber_not_inverse_connected():
    rng = np.random.default_rng(104)
    a = _path_graph(random_problem(rng, n_h=2))
    b = _path_graph(random_problem(rng, n_h=3))
    r = np.array([[True, False, True], [False, True, False]])
    # fiber over the first row is {0, 2}: not adjacent on the path
    assert not rs.is_inverse_connected(r, a, b)


def test_inverse_connectivity_matches_full_subset_oracle():
    rng = np.random.default_rng(105)
    edge_sets_2 = [(), ((0, 1),)]
    # edgeless, one edge, path, and the cycle, which on three vertices is
    # also the complete graph
    edge_sets_3 = [(), ((0, 1),), ((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2))]
    # edgeless, path, star, cycle, complete, and two disjoint edges: on four
    # vertices an image can be disconnected in more ways
    edge_sets_4 = [(), ((0, 1), (1, 2), (2, 3)), ((0, 1), (0, 2), (0, 3)),
                   ((0, 1), (1, 2), (2, 3), (0, 3)),
                   tuple(itertools.combinations(range(4), 2)), ((0, 1), (2, 3))]
    a_problem = random_problem(rng, n_h=2)
    b_problem = random_problem(rng, n_h=3)
    c_problem = random_problem(rng, n_h=3)
    d_problem = random_problem(rng, n_h=4)
    for left_problem, left_edge_sets, right_problem, right_edge_sets in (
            (a_problem, edge_sets_2, b_problem, edge_sets_3),
            (c_problem, edge_sets_3, b_problem, edge_sets_3),
            (d_problem, edge_sets_4, a_problem, edge_sets_2)):
        for edges_a in left_edge_sets:
            for edges_b in right_edge_sets:
                pg_a = rs.PredictorGraph(problem=left_problem, edges=edges_a)
                pg_b = rs.PredictorGraph(problem=right_problem, edges=edges_b)
                for r in enumerate_correspondences(left_problem.n_predictors,
                                                   right_problem.n_predictors):
                    assert rs.is_inverse_connected(r, pg_a, pg_b) == (
                        _inverse_connected_oracle(r, pg_a, pg_b)
                    )


# --------------------------------------------------------------------------
# Connected distance
# --------------------------------------------------------------------------

def test_connected_distance_identical_zero():
    rng = np.random.default_rng(106)
    p = random_problem(rng, n_h=3)
    pg = _path_graph(p)
    result = rs.connected_risk_distance_exact(pg, pg)
    assert result.status == "exact"
    assert result.value <= 1e-9


def test_connected_distance_to_one_point_is_worst_risk():
    rng = np.random.default_rng(107)
    p = random_problem(rng, n_h=3)
    pg = _path_graph(p)
    bullet = rs.PredictorGraph(problem=rs.one_point_problem(0.0), edges=())
    result = rs.connected_risk_distance_exact(pg, bullet)
    assert result.value == pytest.approx(float(rs.all_risks(p).max()), abs=1e-9)


def test_connected_distance_infinite_when_no_valid_correspondence():
    rng = np.random.default_rng(108)
    p = random_problem(rng, n_h=2)
    pg = rs.PredictorGraph(problem=p, edges=())  # two isolated predictors
    bullet = rs.PredictorGraph(problem=rs.one_point_problem(0.0), edges=())
    result = rs.connected_risk_distance_exact(pg, bullet)
    assert np.isinf(result.value)


def test_connected_dominates_unrestricted_with_strict_gap():
    left, right = connected_gap_instance()
    plain = rs.risk_distance_exact(left.problem, right.problem)
    connected = rs.connected_risk_distance_exact(left, right)
    assert plain.value == pytest.approx(0.4, abs=1e-9)
    assert connected.value == pytest.approx(0.6, abs=1e-9)
    assert connected.value - plain.value > 0.01
    witness = connected.witness_correspondence
    assert rs.is_inverse_connected(witness, left, right)


def test_connected_dominance_on_seeded_instances():
    rng = np.random.default_rng(109)
    for _ in range(6):
        a = _path_graph(random_problem(rng, n_h=2))
        b = _path_graph(random_problem(rng, n_h=2))
        plain = rs.risk_distance_exact(a.problem, b.problem).value
        connected = rs.connected_risk_distance_exact(a, b).value
        assert connected >= plain - 1e-9


def test_connected_distance_scales_with_the_losses():
    # the sweep prunes relative to the largest pair cost, so at losses
    # x1e-12 it still solves every relation that can improve on the best
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        a, b = random_predictor_graph(rng), random_predictor_graph(rng)
        base = rs.connected_risk_distance_exact(a, b).value
        for k in (1e-14, 1e-12):
            value = rs.connected_risk_distance_exact(scaled(a, k), scaled(b, k)).value
            assert value / k == pytest.approx(base, rel=1e-12, abs=0.0), (seed, k)


def test_connected_distance_matches_unpruned_oracle():
    rng = np.random.default_rng(111)
    for _ in range(30):
        a, b = (random_predictor_graph(rng, nx=2, ny=2, n_h=int(rng.integers(2, 4)))
                for _ in range(2))
        expected = connected_distance_oracle(a, b)
        result = rs.connected_risk_distance_exact(a, b)
        if np.isinf(expected):
            assert np.isinf(result.value)
            continue
        assert result.value == pytest.approx(expected, abs=1e-9)
        r = result.witness_correspondence
        assert rs.is_inverse_connected(r, a, b)
        replay = rs.risk_distortion(a.problem, b.problem, r, result.witness_coupling)
        assert replay == pytest.approx(result.value, abs=1e-9)


def test_connected_distance_prunes_lps(monkeypatch):
    rng = np.random.default_rng(112)
    a = _path_graph(random_problem(rng, nx=2, ny=2, n_h=3))
    b = _path_graph(random_problem(rng, nx=2, ny=2, n_h=3))
    survivors = sum(rs.is_inverse_connected(r, a, b)
                    for r in enumerate_correspondences(3, 3))
    calls = []
    solve = rs.distance._minimax_coupling_lp
    monkeypatch.setattr(rs.distance, "_minimax_coupling_lp",
                        lambda *args: calls.append(1) or solve(*args))
    rs.connected_risk_distance_exact(a, b)
    assert 0 < len(calls) < survivors


def _recorded_sweep(monkeypatch, lps: list, solved: list, bounds: list):
    """Patch the connected distance's sweep to log, for each relation it
    solves, (relation, value, flat coupling, LP calls it took), and the
    sweep's (pair bounds, largest pair cost); ``lps`` is a list that grows
    by one per LP solved."""
    sweep = rs.landscape._pattern_sweep

    def recorded_sweep(costs, mu, nu, lower, candidates, admissible, solve):
        bounds.append((lower, costs.max()))

        def recorded_solve(r):
            before = len(lps)
            value, gamma_flat = solve(r)
            solved.append((r, value, gamma_flat, len(lps) - before))
            return value, gamma_flat

        return sweep(costs, mu, nu, lower, candidates, admissible, recorded_solve)

    monkeypatch.setattr(rs.landscape, "_pattern_sweep", recorded_sweep)


def _canonical_pair(rng, **kwargs):
    """Two random predictor graphs in the order the connected distance
    solves them in, so its relations and couplings are in their frame."""
    a, b = (random_predictor_graph(rng, **kwargs) for _ in range(2))
    key = rs.distance._canonical_key
    return (b, a) if (key(b.problem), b.edges) < (key(a.problem), a.edges) else (a, b)


def test_connected_distance_solves_only_minimal_relations(monkeypatch):
    # a relation that holds an admitted one has every constraint of its LP,
    # so only relations holding no admitted relation are solved, each by
    # one minimax LP or by the closed-form certificate
    rng = np.random.default_rng(113)
    graphs = [_path_graph(random_problem(rng, nx=2, ny=2, n_h=3)) for _ in range(3)]
    graphs += [random_predictor_graph(rng, nx=2, ny=2, n_h=3) for _ in range(3)]
    checked, calls, solved = [], [], []
    check = rs.landscape.is_inverse_connected
    solve = rs.distance._minimax_coupling_lp

    def recorded_check(r, left, right):
        checked.append((r, check(r, left, right)))
        return checked[-1][1]

    monkeypatch.setattr(rs.landscape, "is_inverse_connected", recorded_check)
    monkeypatch.setattr(rs.distance, "_minimax_coupling_lp",
                        lambda *args: calls.append(1) or solve(*args))
    _recorded_sweep(monkeypatch, calls, solved, [])
    kinds = set()
    for a, b in zip(graphs[:3], graphs[3:]):
        expected = connected_distance_oracle(a, b)
        for log in (checked, calls, solved):
            log.clear()
        result = rs.connected_risk_distance_exact(a, b)
        admitted = [r for r, ok in checked if ok]
        assert admitted and len(solved) == len(admitted)
        assert all(np.array_equal(r, s) for r, (s, *_) in zip(admitted, solved))
        assert all(n in (0, 1) for *_, n in solved)
        assert len(calls) == sum(n for *_, n in solved)
        kinds |= {n for *_, n in solved}
        assert not any((r <= s).all() for r, s in itertools.permutations(admitted, 2))
        assert result.value == pytest.approx(expected, abs=1e-9)
    assert kinds == {0, 1}  # both LP-solved and certified relations came up


def test_connected_distance_is_exactly_symmetric():
    # argument order is canonicalized, so a swapped call returns the same
    # float and the transposed witnesses
    for seed in range(60):
        rng = np.random.default_rng(seed)
        a, b = (random_predictor_graph(rng, nx=2, ny=2, n_h=3) for _ in range(2))
        ab = rs.connected_risk_distance_exact(a, b)
        ba = rs.connected_risk_distance_exact(b, a)
        assert ab.value == ba.value, seed
        assert np.array_equal(ab.witness_coupling,
                              np.transpose(ba.witness_coupling, (2, 3, 0, 1)))
        assert np.array_equal(ab.witness_correspondence, ba.witness_correspondence.T)
    # no relation is inverse-connected: inf, with no witness, either way
    isolated = rs.PredictorGraph(problem=random_problem(rng, n_h=2), edges=())
    bullet = rs.PredictorGraph(problem=rs.one_point_problem(0.0), edges=())
    for result in (rs.connected_risk_distance_exact(isolated, bullet),
                   rs.connected_risk_distance_exact(bullet, isolated)):
        assert np.isinf(result.value) and result.witness_coupling is None


def test_connected_distance_solves_no_transport_lp(monkeypatch):
    # the pair bounds are closed-form profile W1 distances; the exact
    # distance still solves them by LP
    def no_transport_lp(*args):
        raise AssertionError("a transport LP was solved")

    monkeypatch.setattr(rs.distance, "solve_ot_exact", no_transport_lp)
    rng = np.random.default_rng(114)
    for _ in range(6):
        a, b = (random_predictor_graph(rng, nx=2, ny=2, n_h=3) for _ in range(2))
        value = rs.connected_risk_distance_exact(a, b).value
        assert value == pytest.approx(connected_distance_oracle(a, b), abs=1e-9)
    with pytest.raises(AssertionError, match="transport LP"):
        rs.risk_distance_exact(a.problem, b.problem)


def test_connected_distance_lps_are_its_admitted_relations(monkeypatch):
    # every relation the connected distance admits is solved at once, by
    # one minimax LP or certified with none, and no solved relation's value
    # is below the sweep's bound on it
    rng = np.random.default_rng(115)
    admitted, solved, lps, bounds = [], [], [], []
    check = rs.landscape.is_inverse_connected
    linprog = rs.transport.linprog

    def recorded_check(r, left, right):
        if check(r, left, right):
            admitted.append(r)
            return True
        return False

    monkeypatch.setattr(rs.landscape, "is_inverse_connected", recorded_check)
    monkeypatch.setattr(rs.transport, "linprog",
                        lambda *args, **kwargs: lps.append(1) or linprog(*args, **kwargs))
    _recorded_sweep(monkeypatch, lps, solved, bounds)
    kinds = set()
    for _ in range(8):
        a, b = (random_predictor_graph(rng, nx=2, ny=2, n_h=3) for _ in range(2))
        for log in (admitted, solved, lps, bounds):
            log.clear()
        rs.connected_risk_distance_exact(a, b)
        assert len(admitted) == len(solved) > 0
        assert all(np.array_equal(r, s) for r, (s, *_) in zip(admitted, solved))
        assert len(lps) == sum(n for *_, n in solved)
        kinds |= {n for *_, n in solved}
        [(lower, top)] = bounds
        for r, value, _, _ in solved:
            assert lower[r].max() <= value + 1e-12 * top
    assert kinds == {0, 1}


def test_connected_certificate_matches_the_lp(monkeypatch):
    # a relation solved with no LP has the LP's value, and its plan is a
    # coupling of the two joint laws
    rng = np.random.default_rng(116)
    solved, lps, bounds = [], [], []
    linprog = rs.transport.linprog
    monkeypatch.setattr(rs.transport, "linprog",
                        lambda *args, **kwargs: lps.append(1) or linprog(*args, **kwargs))
    _recorded_sweep(monkeypatch, lps, solved, bounds)
    certified = 0
    for _ in range(12):
        a, b = _canonical_pair(rng, nx=2, ny=2, n_h=int(rng.integers(2, 4)))
        solved.clear()
        rs.connected_risk_distance_exact(a, b)
        p, q = a.problem, b.problem
        costs = rs.distance._pair_costs(p, q)
        for r, value, gamma_flat, n in solved:
            if n:
                continue
            certified += 1
            lp_value, _ = rs.distance._minimax_coupling_lp(
                costs[r], p.eta.ravel(), q.eta.ravel())
            assert abs(value - lp_value) <= 1e-12 * costs.max()
            plan = gamma_flat.reshape(p.eta.shape + q.eta.shape)
            rs.transport.check_coupling(plan, p.eta, q.eta)
    assert certified


def test_connected_dual_records_bound_every_superset(monkeypatch):
    # a record (S, L) from an LP's duals bounds the LP value of every
    # correspondence holding S from below, so skipping them is exact
    rng = np.random.default_rng(117)
    records = []
    record = rs.landscape._dual_record
    monkeypatch.setattr(rs.landscape, "_dual_record",
                        lambda *args: records.append(record(*args)) or records[-1])
    checked = 0
    for _ in range(10):
        a, b = _canonical_pair(rng, nx=2, ny=2, n_h=int(rng.integers(2, 4)))
        p, q = a.problem, b.problem
        records.clear()
        rs.connected_risk_distance_exact(a, b)
        costs = rs.distance._pair_costs(p, q)
        mu, nu = p.eta.ravel(), q.eta.ravel()
        for held, bound in records:
            for r in enumerate_correspondences(p.n_predictors, q.n_predictors):
                if (held <= r).all():
                    value, _ = rs.distance._minimax_coupling_lp(costs[r], mu, nu)
                    assert bound <= value + 1e-12 * costs.max()
                    checked += 1
    assert checked


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_connected_distance_matches_oracle_on_random_graphs(data):
    def graph():
        n_h = data.draw(st.integers(2, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edges = data.draw(st.sets(st.sampled_from(
            list(itertools.combinations(range(n_h), 2)))))
        problem = random_problem(rng, nx=2, ny=2, n_h=n_h)
        return rs.PredictorGraph(problem=problem, edges=tuple(sorted(edges)))

    a, b = graph(), graph()
    expected = connected_distance_oracle(a, b)
    result = rs.connected_risk_distance_exact(a, b)
    if np.isinf(expected):
        assert np.isinf(result.value)
        return
    assert result.value == pytest.approx(expected, abs=1e-9)
    r = result.witness_correspondence
    assert rs.is_inverse_connected(r, a, b)
    replay = rs.risk_distortion(a.problem, b.problem, r, result.witness_coupling)
    assert replay == pytest.approx(result.value, abs=1e-9)


def test_connected_distance_capacity():
    rng = np.random.default_rng(110)
    a = _path_graph(random_problem(rng, n_h=3))
    b = _path_graph(random_problem(rng, n_h=4))
    with pytest.raises(rs.CapacityError):
        rs.connected_risk_distance_exact(a, b)


# --------------------------------------------------------------------------
# Sandwich
# --------------------------------------------------------------------------

def test_sandwich_identical_zero_zero():
    rng = np.random.default_rng(111)
    pg = _path_graph(random_problem(rng, n_h=2))
    lower, upper = rs.reeb_sandwich(pg, pg)
    assert lower == 0.0
    assert upper <= 1e-9


def test_sandwich_loss_shift():
    rng = np.random.default_rng(112)
    p = random_problem(rng, n_h=2)
    alpha = 0.7
    shifted = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta, p.loss + alpha,
                               p.predictors)
    lower, upper = rs.reeb_sandwich(_path_graph(p), _path_graph(shifted))
    assert lower == pytest.approx(alpha, abs=1e-12)
    assert upper >= alpha - 1e-9


def test_sandwich_order():
    rng = np.random.default_rng(113)
    for _ in range(6):
        a = _path_graph(random_problem(rng, n_h=2))
        b = _path_graph(random_problem(rng, n_h=3))
        lower, upper = rs.reeb_sandwich(a, b)
        assert lower <= upper + 1e-9
