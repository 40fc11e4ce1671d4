"""Exact transport, 1-D Wasserstein, total variation, Hausdorff, kernels."""

import tracemalloc

import numpy as np
import pytest

import riskspace as rs
from riskspace.problems import LossProfile
from riskspace.transport import check_coupling
from gen import (
    enumerate_correspondences,
    identity_support_problem,
    ot_value_by_vertices,
    random_problem,
    random_weighted,
    transport_vertices,
)


def _random_distribution(rng, n):
    v = rng.random(n) + 0.01
    return v / v.sum()


def _profile(values, masses) -> LossProfile:
    order = np.argsort(values)
    return LossProfile(values=np.asarray(values, float)[order],
                       masses=np.asarray(masses, float)[order])


# --------------------------------------------------------------------------
# solve_ot_exact
# --------------------------------------------------------------------------

def test_ot_point_masses():
    cost = np.array([[3.7]])
    plan, value = rs.solve_ot_exact(cost, np.array([1.0]), np.array([1.0]))
    assert value == 3.7
    assert plan.tolist() == [[1.0]]


def test_ot_point_to_uniform():
    cost = np.array([[0.0, 1.0]])
    plan, value = rs.solve_ot_exact(cost, np.array([1.0]), np.array([0.5, 0.5]))
    assert value == pytest.approx(0.5, abs=1e-12)
    assert plan.tolist() == [[0.5, 0.5]]


def test_ot_matches_vertex_enumeration_random_4x4():
    rng = np.random.default_rng(10)
    for _ in range(8):
        m, n = rng.integers(2, 5, size=2)
        mu = _random_distribution(rng, m)
        nu = _random_distribution(rng, n)
        cost = rng.random((m, n)) * 3
        plan, value = rs.solve_ot_exact(cost, mu, nu)
        oracle = ot_value_by_vertices(cost, mu, nu)
        assert value == pytest.approx(oracle, abs=1e-9)
        check_coupling(plan, mu, nu)


def test_ot_coupling_marginals_tight():
    rng = np.random.default_rng(11)
    mu = _random_distribution(rng, 4)
    nu = _random_distribution(rng, 3)
    plan, _ = rs.solve_ot_exact(rng.random((4, 3)), mu, nu)
    assert np.max(np.abs(plan.sum(axis=1) - mu)) < 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - nu)) < 1e-9


def test_ot_degenerate_marginals_handled():
    mu = np.array([0.5, 0.0, 0.5])
    nu = np.array([0.0, 1.0])
    cost = np.arange(6.0).reshape(3, 2)
    plan, value = rs.solve_ot_exact(cost, mu, nu)
    assert plan[1].tolist() == [0.0, 0.0]
    assert plan[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert value == pytest.approx(0.5 * 1 + 0.5 * 5, abs=1e-12)


def test_ot_permutation_invariance():
    rng = np.random.default_rng(12)
    mu = _random_distribution(rng, 4)
    nu = _random_distribution(rng, 4)
    cost = rng.random((4, 4))
    _, value = rs.solve_ot_exact(cost, mu, nu)
    perm_r = rng.permutation(4)
    perm_c = rng.permutation(4)
    _, value_p = rs.solve_ot_exact(cost[np.ix_(perm_r, perm_c)],
                                   mu[perm_r], nu[perm_c])
    # identical value up to summation order
    assert value_p == pytest.approx(value, abs=1e-12)


def test_ot_marginal_mismatch_rejected():
    with pytest.raises(rs.ValidationError):
        rs.solve_ot_exact(np.zeros((2, 2)), np.array([0.7, 0.7]),
                          np.array([0.5, 0.5]))


def test_random_vertex_is_feasible_and_sparse():
    from riskspace.transport import random_coupling_vertex

    rng = np.random.default_rng(25)
    for _ in range(20):
        m, n = rng.integers(2, 6, size=2)
        mu = _random_distribution(rng, m)
        nu = _random_distribution(rng, n)
        vertex = random_coupling_vertex(mu, nu, rng)
        check_coupling(vertex, mu, nu)
        # basic feasible solutions have at most m + n - 1 nonzero cells
        assert np.count_nonzero(vertex) <= m + n - 1


def _vertex_marginal_pairs(rng):
    """Random, zero-mass and equal-mass marginals on small grids; equal
    masses make several spanning trees give one vertex."""
    for m, n in [(1, 3), (3, 1), (2, 2), (2, 4), (4, 2), (3, 3)]:
        yield _random_distribution(rng, m), _random_distribution(rng, n)
        yield (np.insert(_random_distribution(rng, m), 0, 0.0),
               np.append(_random_distribution(rng, n), 0.0))
        yield np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        yield np.insert(np.full(m, 1.0 / m), 1, 0.0), _random_distribution(rng, n)


def test_library_vertices_agree_with_oracle():
    # same vertices in the same order: the order is the start order of the
    # weighted distance's restarts and breaks its vertex-pair ties
    rng = np.random.default_rng(13)
    for mu, nu in _vertex_marginal_pairs(rng):
        lib = rs.coupling_vertices(mu, nu)
        oracle = np.array(transport_vertices(mu, nu))
        assert lib.shape == oracle.shape
        assert np.max(np.abs(lib - oracle)) <= 1e-12


def test_vertices_attain_the_ot_minimum():
    rng = np.random.default_rng(15)
    for mu, nu in _vertex_marginal_pairs(rng):
        for _ in range(3):
            cost = rng.random((len(mu), len(nu)))
            by_vertices = min(float(np.sum(v * cost))
                              for v in rs.coupling_vertices(mu, nu))
            _, value = rs.solve_ot_exact(cost, mu, nu)
            assert by_vertices == pytest.approx(value, abs=1e-9)


def test_vertex_enumeration_memory_is_blocked():
    # a 4x4 polytope has 11440 cell sets of size 7; solving them all in one
    # batch peaks near 8 MB, the blocked enumeration well under 1 MB
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    rs.coupling_vertices(mu, mu)
    tracemalloc.start()
    try:
        vertices = rs.coupling_vertices(mu, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vertices) > 0
    assert peak < 1_000_000


# --------------------------------------------------------------------------
# w1_real_line
# --------------------------------------------------------------------------

def test_w1_point_masses():
    assert rs.w1_real_line(_profile([0.0], [1.0]), _profile([1.0], [1.0])) == 1.0


def test_w1_point_vs_uniform():
    assert rs.w1_real_line(
        _profile([0.0], [1.0]), _profile([0.0, 1.0], [0.5, 0.5])
    ) == pytest.approx(0.5, abs=1e-12)


def test_w1_matches_lp_on_random_pairs():
    rng = np.random.default_rng(14)
    for _ in range(200):
        na, nb = rng.integers(1, 5, size=2)
        a = _profile(np.sort(rng.choice(20, size=na, replace=False) * 0.37),
                     _random_distribution(rng, na))
        b = _profile(np.sort(rng.choice(20, size=nb, replace=False) * 0.53),
                     _random_distribution(rng, nb))
        cost = np.abs(a.values[:, None] - b.values[None, :])
        _, lp_value = rs.solve_ot_exact(cost, a.masses, b.masses)
        assert rs.w1_real_line(a, b) == pytest.approx(lp_value, abs=1e-9)


# --------------------------------------------------------------------------
# total_variation
# --------------------------------------------------------------------------

def test_tv_identical_zero():
    mu = np.array([0.2, 0.8])
    assert rs.total_variation(mu, mu) == 0.0


def test_tv_uniform_vs_point_mass():
    assert rs.total_variation(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5


def test_tv_disjoint_supports_one():
    assert rs.total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_tv_equals_ot_under_discrete_metric():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        mu = _random_distribution(rng, n)
        nu = _random_distribution(rng, n)
        cost = 1.0 - np.eye(n)
        _, value = rs.solve_ot_exact(cost, mu, nu)
        assert rs.total_variation(mu, nu) == pytest.approx(value, abs=1e-9)


def test_tv_length_mismatch():
    with pytest.raises(rs.ValidationError):
        rs.total_variation(np.array([1.0]), np.array([0.5, 0.5]))


# --------------------------------------------------------------------------
# hausdorff
# --------------------------------------------------------------------------

def test_hausdorff_identical_sets_zero():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert rs.hausdorff(d) == 0.0


def test_hausdorff_point_vs_pair():
    assert rs.hausdorff(np.array([[0.0, 1.0]])) == 1.0


def test_hausdorff_matches_correspondence_enumeration():
    rng = np.random.default_rng(16)
    for _ in range(20):
        k, kp = rng.integers(1, 4, size=2)
        cross = rng.random((k, kp)) * 2
        oracle = min(
            float(cross[r].max()) for r in enumerate_correspondences(k, kp)
        )
        assert rs.hausdorff(cross) == pytest.approx(oracle, abs=1e-12)


def test_hausdorff_triangle_inequality_in_common_space():
    rng = np.random.default_rng(17)
    for _ in range(20):
        points = rng.random((9, 2)) * 3
        dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
        a, b, c = np.split(rng.permutation(9), 3)
        d_ab = rs.hausdorff(dist[np.ix_(a, b)])
        d_bc = rs.hausdorff(dist[np.ix_(b, c)])
        d_ac = rs.hausdorff(dist[np.ix_(a, c)])
        assert d_ac <= d_ab + d_bc + 1e-12


def test_hausdorff_empty_rejected():
    with pytest.raises(rs.ValidationError):
        rs.hausdorff(np.zeros((0, 2)))


# --------------------------------------------------------------------------
# Profile-set and profile-distribution distances
# --------------------------------------------------------------------------

def test_hausdorff_loss_profiles_self_zero():
    p = identity_support_problem()
    assert rs.hausdorff_loss_profiles(p, p) == 0.0


def test_hausdorff_loss_profiles_vs_one_point():
    rng = np.random.default_rng(18)
    p = random_problem(rng)
    bullet = rs.one_point_problem(0.0)
    value = rs.hausdorff_loss_profiles(p, bullet)
    cross = np.array([[rs.w1_real_line(prof, rs.loss_profile(bullet, 0))]
                      for prof in rs.loss_profile_set(p)])
    assert value == pytest.approx(rs.hausdorff(cross), abs=1e-12)


def test_hausdorff_loss_profiles_dominates_bayes_gap():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a, b = random_problem(rng), random_problem(rng)
        gap = abs(rs.constrained_bayes_risk(a) - rs.constrained_bayes_risk(b))
        assert rs.hausdorff_loss_profiles(a, b) >= gap - 1e-9


def test_profile_distribution_distance_identical_zero():
    rng = np.random.default_rng(20)
    wp = random_weighted(rng)
    assert rs.wasserstein_profile_distributions(wp, wp, p=1) == pytest.approx(
        0.0, abs=1e-12
    )


def test_profile_distribution_distance_below_weighted_distance():
    import riskspace.distance as distance

    rng = np.random.default_rng(24)
    for _ in range(8):
        wa, wb = random_weighted(rng), random_weighted(rng)
        for p in (1.0, 2.0):
            profile_d = rs.wasserstein_profile_distributions(wa, wb, p=p)
            upper = distance.lp_risk_distance(wa, wb, p=p).value
            assert profile_d <= upper + 1e-9


def test_profile_distribution_point_masses_reduce_to_w1():
    rng = np.random.default_rng(21)
    a, b = random_problem(rng), random_problem(rng)
    lam_a = np.zeros(a.n_predictors)
    lam_a[0] = 1.0
    lam_b = np.zeros(b.n_predictors)
    lam_b[0] = 1.0
    wa = rs.WeightedProblem(problem=a, lam=lam_a)
    wb = rs.WeightedProblem(problem=b, lam=lam_b)
    expected = rs.w1_real_line(rs.loss_profile(a, 0), rs.loss_profile(b, 0))
    for p in (1.0, 2.0):
        assert rs.wasserstein_profile_distributions(wa, wb, p=p) == pytest.approx(
            expected, abs=1e-9
        )


# --------------------------------------------------------------------------
# kernel_w1
# --------------------------------------------------------------------------

def test_kernel_w1_identical_zero():
    kernel = np.array([[0.5, 0.5], [0.1, 0.9]])
    base = np.array([0.3, 0.7])
    ground = 1.0 - np.eye(2)
    assert rs.kernel_w1(kernel, kernel, base, ground) == 0.0


def test_kernel_w1_epsilon_mixing_binary():
    # rows: observed label y; mixing re-draws the label uniformly with prob eps
    ground = 1.0 - np.eye(2)
    delta = np.eye(2)
    for eps in (0.05, 0.2, 0.5):
        mixed = eps * np.full((2, 2), 0.5) + (1 - eps) * delta
        for base in (np.array([0.3, 0.7]), np.array([0.5, 0.5])):
            assert rs.kernel_w1(mixed, delta, base, ground) == pytest.approx(
                eps / 2, abs=1e-12
            )


def test_kernel_w1_single_state_reduces_to_w1():
    rng = np.random.default_rng(22)
    values = np.array([0.0, 1.0, 2.5])
    ground = np.abs(values[:, None] - values[None, :])
    mu = _random_distribution(rng, 3)
    nu = _random_distribution(rng, 3)
    got = rs.kernel_w1(mu[None, :], nu[None, :], np.array([1.0]), ground)
    _, expected = rs.solve_ot_exact(ground, mu, nu)
    assert got == pytest.approx(expected, abs=1e-12)


def test_kernel_w1_bounded_by_worst_row():
    rng = np.random.default_rng(23)
    m = rng.dirichlet(np.ones(3), size=4)
    n = rng.dirichlet(np.ones(3), size=4)
    base = _random_distribution(rng, 4)
    values = np.array([0.0, 0.7, 1.9])
    ground = np.abs(values[:, None] - values[None, :])
    avg = rs.kernel_w1(m, n, base, ground)
    worst = max(rs.solve_ot_exact(ground, m[i], n[i])[1] for i in range(4))
    assert avg <= worst + 1e-12


def test_kernel_w1_shape_mismatch():
    with pytest.raises(rs.ValidationError):
        rs.kernel_w1(np.eye(2), np.eye(3), np.array([0.5, 0.5]), np.eye(2))


# --------------------------------------------------------------------------
# Refused numeric inputs name their field
# --------------------------------------------------------------------------

_HALF = np.array([0.5, 0.5])
_EYE_KERNEL = np.eye(2)
_P2 = rs.FiniteProblem(("x0", "x1"), ("a", "b"), np.full((2, 2), 0.25),
                       1.0 - np.eye(2), [[0, 1], [1, 0]])
_W2 = rs.WeightedProblem(_P2, _HALF)
_GAMMA = np.full((2, 2, 2, 2), 1 / 16)
_GRAPH = rs.PredictorGraph(_P2, [[0, 1]])


def _witness(correspondence):
    return rs.DistanceResult(0.0, "exact", _GAMMA, correspondence)


# scalar parameters: each is refused given a string, a boolean or NaN
_SCALAR_CALLS = {
    "lp-distance-p": ("p", lambda v: rs.lp_risk_distance(_W2, _W2, p=v)),
    "lp-distortion-p": ("p", lambda v: rs.lp_risk_distortion(
        _W2, _W2, np.diag(_HALF), _GAMMA, v)),
    "profile-distribution-p": ("p", lambda v: rs.wasserstein_profile_distributions(
        _W2, _W2, v)),
    "s-metric-p": ("p", lambda v: rs.s_metric_weighted(_W2, v)),
    "general-noise-p": ("p", lambda v: rs.apply_general_noise(_W2, np.eye(4), v)),
    "geodesic-t": ("t", lambda v: rs.geodesic_problem(
        _P2, _P2, _witness(np.eye(2, dtype=bool)), v)),
    "tv-ell-max": ("ell_max", lambda v: rs.tv_bound(_P2, _P2, v)),
    "noise-lipschitz-c": ("lipschitz_c", lambda v: rs.noise_bound_metric(
        _P2, rs.no_noise_kernel(_P2), 1.0 - np.eye(2), v)),
    "reeb-height-tol": ("height_tol", lambda v: rs.reeb_graph(_GRAPH, v)),
    "verify-tol": ("tol", lambda v: rs.verify_simulation(
        _P2, _P2, [0, 1], [0, 1], [0, 1], [0, 1], tol=v)),
    "one-point-c": ("c", rs.one_point_problem),
}
_SCALAR_VALUES = {"string": "x", "bool": True, "nan": np.nan}
# correspondences: strings, a scalar, NaN and ragged rows are not 0/1 relations
_CORRESPONDENCES = {
    "string": ([["a", ""], ["b", "c"]], ""),
    "half": (0.5, ""),
    "nan": ([[np.nan, 1.0], [1.0, 1.0]], "[0][0]"),
    "ragged": ([[1, 0], [1]], ""),
}
_CORRESPONDENCE_CALLS = {
    "risk-distortion": ("correspondence",
                        lambda r: rs.risk_distortion(_P2, _P2, r, _GAMMA)),
    "inverse-connected": ("correspondence",
                          lambda r: rs.is_inverse_connected(r, _GRAPH, _GRAPH)),
    "geodesic": ("witness_correspondence",
                 lambda r: rs.geodesic_problem(_P2, _P2, _witness(r), 0.5)),
}
_MORE_REFUSALS = {
    f"{call}-{kind}": (lambda f=f, v=v: f(v), field)
    for call, (field, f) in _SCALAR_CALLS.items()
    for kind, v in _SCALAR_VALUES.items()
} | {
    f"{call}-{kind}": (lambda f=f, r=r: f(r), field + suffix)
    for call, (field, f) in _CORRESPONDENCE_CALLS.items()
    for kind, (r, suffix) in _CORRESPONDENCES.items()
} | {
    "partition-string-ny": (lambda: rs.Partition([[0], [1]], ny="2"), "ny"),
    "partition-bool-ny": (lambda: rs.Partition([[0]], ny=True), "ny"),
    "general-noise-inf-p": (lambda: rs.apply_general_noise(
        _W2, np.eye(4), np.inf), "p"),
    "profile-distribution-inf-p": (lambda: rs.wasserstein_profile_distributions(
        _W2, _W2, np.inf), "p"),
    "inverse-connected-shape": (lambda: rs.is_inverse_connected(
        np.ones((3, 3), dtype=bool), _GRAPH, _GRAPH), "correspondence"),
    "reduction-vector": (lambda: rs.hausdorff_reduction([1.0, 2.0]), "costs"),
    "reduction-empty": (lambda: rs.hausdorff_reduction(np.zeros((0, 0))), "costs"),
    "result-string-value": (lambda: rs.DistanceResult("x", "exact"), "value"),
    "result-bool-value": (lambda: rs.DistanceResult(True, "exact"), "value"),
}


@pytest.mark.parametrize("call, field", [
    (lambda: rs.solve_ot_exact([["a", "b"], ["c", "d"]], _HALF, _HALF), "cost"),
    (lambda: rs.solve_ot_exact([[0.0, 1.0], [1.0]], _HALF, _HALF), "cost"),
    (lambda: rs.hausdorff([["a"]]), "dist"),
    (lambda: rs.hausdorff([[np.nan, 1.0]]), "dist[0][0]"),
    (lambda: rs.hausdorff_reduction([["a"]]), "costs"),
    (lambda: rs.kernel_w1(_EYE_KERNEL, _EYE_KERNEL, _HALF, [["a", "b"], ["c", "d"]]),
     "ground_metric"),
    (lambda: rs.kernel_w1(_EYE_KERNEL, _EYE_KERNEL, _HALF, [[0.0, np.nan], [1.0, 0.0]]),
     "ground_metric[0][1]"),
    (lambda: LossProfile(values=["a"], masses=[1.0]), "values"),
    (lambda: LossProfile(values=[[0.0, 1.0]], masses=[[0.5, 0.5]]), "values"),
    (lambda: LossProfile(values=[0.0, 1.0], masses=[1.0]), "masses"),
    (lambda: LossProfile(values=[1.0, 0.0], masses=[0.5, 0.5]), "values"),
    (lambda: LossProfile(values=[0.0, np.nan], masses=[0.5, 0.5]), "values[1]"),
    *_MORE_REFUSALS.values(),
], ids=["ot-string-cost", "ot-ragged-cost", "hausdorff-string", "hausdorff-nan",
        "reduction-string", "kernel-string-ground", "kernel-nan-ground",
        "profile-string-values", "profile-matrix-values", "profile-length",
        "profile-order", "profile-nan-values", *_MORE_REFUSALS])
def test_numeric_input_refused_naming_field(call, field):
    with pytest.raises(rs.ValidationError) as err:
        call()
    assert err.value.field == field
