"""Deeper validation of the exact distance solver.

The solver eliminates the correspondence infimum analytically and enumerates
assignment patterns.  Here the same quantity is recomputed along a second,
fully independent exact route: enumerate every correspondence outright and
solve, for each, a minimax LP assembled from scratch with scipy.  The two
routes must agree to solver tolerance.

Every size-cap refusal, of the exact solver and of the other capped
routines, is raised by ``errors.within_cap`` in one form.
"""

import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog

import riskspace as rs
from gen import (
    enumerate_correspondences,
    random_predictor_graph,
    random_problem,
    random_weighted,
    repeated_predictor_problem,
)


_FOUR = random_problem(np.random.default_rng(170), nx=2, ny=2, n_h=4)
_SAMPLES = rs.empirical.SAMPLE_CAPACITY


@pytest.mark.parametrize("refuse, cap, actual, limit", [
    # both caps are exceeded: the pairs cap is named first
    (lambda p: rs.risk_distance_exact(p, p, cap_support=15, fallback=False),
     "cap_pairs", 16, 12),
    (lambda p: rs.risk_distance_exact(p, p, cap_pairs=16, cap_support=15,
                                      fallback=False), "cap_support", 16, 15),
    (lambda p: rs.connected_risk_distance_exact(rs.PredictorGraph(p, []),
                                                rs.PredictorGraph(p, [])),
     "cap_pairs", 16, rs.landscape.CONNECTED_CAP_PAIRS),
    (lambda p: rs.sample_empirical(p, _SAMPLES + 1, 0),
     "sample", _SAMPLES + 1, _SAMPLES),
    (lambda p: rs.rademacher_mc(p, 3, _SAMPLES // 3 + 1, 0),
     "sample", 3 * (_SAMPLES // 3 + 1), _SAMPLES),
    (lambda p: rs.rademacher_exact_small(p, 9),
     "rademacher", 4**9 * 2**9, rs.empirical.RADEMACHER_CAPACITY),
], ids=["exact-pairs", "exact-support", "connected", "sample", "monte-carlo",
        "exhaustive"])
def test_capacity_refusals_share_one_form(refuse, cap, actual, limit):
    with pytest.raises(rs.CapacityError) as err:
        refuse(_FOUR)
    assert (err.value.cap, err.value.actual) == (cap, actual)
    assert str(err.value).endswith(f" <= {limit}, got {actual}")


def test_enumerations_one_step_past_the_capacity_refused_before_allocating():
    limit = rs.distance.ENUMERATION_CAPACITY
    # the unions of n_h x n_hp predictors take n_hp^n_h * n_h^n_hp * n_h * n_hp
    # bytes: 2 x 15 fits (221 MB), 2 x 16 does not (537 MB); the relation bits
    # of k pairs take 8 * k * (2^k - 1) bytes: 20 pairs fit, 21 do not; the
    # defaults and the suite's cap_pairs=16 sit far below
    assert 15**2 * 2**15 * 30 <= limit < 16**2 * 2**16 * 32
    assert 8 * 20 * (2**20 - 1) <= limit < 8 * 21 * (2**21 - 1)
    assert max(b**a * a**b * a * b for a in range(1, 17) for b in range(1, 17)
               if a * b <= 16) <= limit
    two, three, sixteen, seven = (repeated_predictor_problem(n)
                                  for n in (2, 3, 16, 7))
    tracemalloc.start()
    try:
        for refuse, actual in (
                (lambda: rs.risk_distance_exact(two, sixteen, cap_pairs=32),
                 16**2 * 2**16 * 32),
                (lambda: rs.risk_distance_exact(sixteen, two, cap_pairs=32,
                                                fallback=False),
                 16**2 * 2**16 * 32),
                (lambda: rs.connected_risk_distance_exact(
                    rs.PredictorGraph(three, []), rs.PredictorGraph(seven, []),
                    cap_pairs=21), 8 * 21 * (2**21 - 1))):
            with pytest.raises(rs.CapacityError) as err:
                refuse()
            assert (err.value.cap, err.value.actual) == ("enumeration", actual)
            assert str(err.value).endswith(f" <= {limit}, got {actual}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_only_errors_constructs_capacity_errors():
    src = pathlib.Path(__file__).parents[1] / "src" / "riskspace"
    constructing = [
        path.name for path in sorted(src.glob("*.py"))
        if path.name != "errors.py"
        and re.search(r"CapacityError\s*\(|raise\s+CapacityError\b",
                      path.read_text())
    ]
    assert constructing == []


def _minimax_lp_from_scratch(cost_vectors, mu, nu):
    """min over couplings of the max selected linear cost, built directly."""
    m, n = len(mu), len(nu)
    n_gamma = m * n
    k = len(cost_vectors)
    a_ub = np.zeros((k, n_gamma + 1))
    for i, c in enumerate(cost_vectors):
        a_ub[i, :n_gamma] = c
        a_ub[i, n_gamma] = -1.0
    a_eq = np.zeros((m + n, n_gamma + 1))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j:n_gamma:n] = 1.0
    b_eq = np.concatenate([mu, nu])
    objective = np.zeros(n_gamma + 1)
    objective[-1] = 1.0
    res = linprog(objective, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    gamma = res.x[:n_gamma]
    return max(float(c @ gamma) for c in cost_vectors)


def _distance_by_correspondence_enumeration(p, q):
    """Exact distance as the minimum over ALL correspondences of the per-
    correspondence minimax transport value."""
    la = p.predictor_loss_stack().reshape(p.n_predictors, -1)
    lb = q.predictor_loss_stack().reshape(q.n_predictors, -1)
    mu, nu = p.eta.ravel(), q.eta.ravel()
    best = np.inf
    for r in enumerate_correspondences(p.n_predictors, q.n_predictors):
        vectors = [
            np.abs(la[h][:, None] - lb[hp][None, :]).ravel()
            for h, hp in np.argwhere(r)
        ]
        best = min(best, _minimax_lp_from_scratch(vectors, mu, nu))
    return best


@pytest.mark.parametrize("module, message", [
    ("transport", "^transport LP failed: infeasible"),
    ("distance", "^minimax transport LP failed: infeasible"),
])
def test_lp_failure_raises_solver_error(monkeypatch, module, message):
    rng = np.random.default_rng(141)
    p = random_problem(rng, nx=2, ny=2, n_h=2)
    q = random_problem(rng, nx=2, ny=2, n_h=2)

    # every LP is solved in transport; the distance case fails only the
    # minimax LPs (those with inequality rows), so the pair-bound OT LPs solve
    def failing(*args, **kwargs):
        if module == "distance" and kwargs.get("A_ub") is None:
            return linprog(*args, **kwargs)
        return OptimizeResult(status=2, message="infeasible", x=None)

    monkeypatch.setattr(rs.transport, "linprog", failing)
    with pytest.raises(rs.SolverError, match=message):
        rs.risk_distance_exact(p, q)
    assert issubclass(rs.SolverError, RuntimeError)


def test_every_lp_is_solved_in_transport(monkeypatch):
    # distance keeps a linprog binding only for the benchmark tracer to wrap
    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved through distance.linprog")

    monkeypatch.setattr(rs.distance, "linprog", refuse)
    rng = np.random.default_rng(142)
    p = random_problem(rng, nx=2, ny=2, n_h=2)
    q = random_problem(rng, nx=2, ny=2, n_h=2)
    assert rs.risk_distance_exact(p, q).status == "exact"
    assert rs.risk_distance_exact(p, q, cap_pairs=1).status == "upper_bound"
    rs.lp_risk_distance(random_weighted(rng, n_h=2), random_weighted(rng, n_h=3),
                        p=2.0)
    points = rng.random((4, 2))
    dist = np.abs(points[:, None] - points[None, :]).sum(axis=2)
    mu = np.full(4, 0.25)
    rs.bilinear_gw(dist, mu, dist[::-1, ::-1], mu)
    rs.connected_risk_distance_exact(random_predictor_graph(rng, n_h=2),
                                     random_predictor_graph(rng, n_h=2))


def test_exact_matches_full_correspondence_enumeration():
    rng = np.random.default_rng(200)
    for _ in range(12):
        p = random_problem(rng, n_h=int(rng.integers(1, 4)))
        q = random_problem(rng, n_h=int(rng.integers(1, 3)))
        solver = rs.risk_distance_exact(p, q).value
        oracle = _distance_by_correspondence_enumeration(p, q)
        assert solver == pytest.approx(oracle, abs=1e-9)


def test_exact_with_zero_mass_atoms():
    rng = np.random.default_rng(201)
    for _ in range(8):
        p = random_problem(rng, nx=3, ny=3, eta_support=3)
        q = random_problem(rng, nx=2, ny=3, eta_support=2)
        solver = rs.risk_distance_exact(p, q).value
        oracle = _distance_by_correspondence_enumeration(p, q)
        assert solver == pytest.approx(oracle, abs=1e-9)
        # witnesses stay valid despite the degenerate marginals
        result = rs.risk_distance_exact(p, q)
        replay = rs.risk_distortion(p, q, result.witness_correspondence,
                                    result.witness_coupling)
        assert replay == pytest.approx(result.value, abs=1e-9)


def test_exact_repeat_runs_bit_identical():
    rng = np.random.default_rng(202)
    p, q = random_problem(rng), random_problem(rng)
    first = rs.risk_distance_exact(p, q)
    second = rs.risk_distance_exact(p, q)
    assert first.value == second.value
    assert np.array_equal(first.witness_coupling, second.witness_coupling)
    assert np.array_equal(first.witness_correspondence,
                          second.witness_correspondence)


def test_exact_at_cap_boundary():
    # |H| * |H'| = 12 and support product 16 * 16 = 256: the largest
    # instance the default caps admit
    rng = np.random.default_rng(203)
    p = random_problem(rng, nx=4, ny=4, n_h=3)
    q = random_problem(rng, nx=4, ny=4, n_h=4)
    result = rs.risk_distance_exact(p, q)
    assert result.status == "exact"
    heuristic = rs.risk_distance_exact(p, q, cap_pairs=1)
    assert heuristic.status == "upper_bound"
    assert heuristic.value >= result.value - 1e-9


def test_lp_distance_never_below_plain_distance_at_pinf_proxy():
    # the supremum variant dominates every finite-p weighted value on the
    # same problems with any weights
    rng = np.random.default_rng(204)
    for _ in range(6):
        p = random_problem(rng, n_h=2)
        q = random_problem(rng, n_h=2)
        lam_p = rng.dirichlet(np.ones(2))
        lam_q = rng.dirichlet(np.ones(2))
        wp = rs.WeightedProblem(problem=p, lam=lam_p)
        wq = rs.WeightedProblem(problem=q, lam=lam_q)
        weighted = rs.lp_risk_distance(wp, wq, p=1.0).value
        # evaluate the supremum distortion at the weighted witnesses: it can
        # only be larger than their L1 distortion
        result = rs.lp_risk_distance(wp, wq, p=1.0)
        sup_at_witnesses = rs.lp_risk_distortion(
            wp, wq, result.witness_predictor_coupling,
            result.witness_coupling, np.inf,
        )
        assert weighted <= sup_at_witnesses + 1e-9
