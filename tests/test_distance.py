"""Risk distortion, the exact distance solver, bounds, weighted variants,
the bilinear relaxation, geodesics, and weak-isomorphism witnesses."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import riskspace as rs
from gen import (
    SHARED_MODE_CHANGES,
    assignment_unions_oracle,
    bilinear_vertex_oracle,
    correspondence_minimax_oracle,
    grid_distance_oracle,
    identity_support_problem,
    rademacher_example_problem,
    random_problem,
    random_weighted,
    shared_pairs,
    transport_vertices,
)


def _diagonal_coupling(p: rs.FiniteProblem) -> np.ndarray:
    n = p.nx * p.ny
    gamma = np.zeros((n, n))
    np.fill_diagonal(gamma, p.eta.ravel())
    return gamma.reshape(p.nx, p.ny, p.nx, p.ny)


def _unique_coupling_with_point(p: rs.FiniteProblem) -> np.ndarray:
    return p.eta.reshape(p.nx, p.ny, 1, 1).copy()


# --------------------------------------------------------------------------
# risk_distortion and pair costs
# --------------------------------------------------------------------------

def test_distortion_identity_witnesses_zero():
    p = identity_support_problem()
    r = np.eye(p.n_predictors, dtype=bool)
    assert rs.risk_distortion(p, p, r, _diagonal_coupling(p)) == 0.0


def test_distortion_vs_zero_one_point_is_worst_risk():
    rng = np.random.default_rng(30)
    for _ in range(10):
        p = random_problem(rng)
        bullet = rs.one_point_problem(0.0)
        r = np.ones((p.n_predictors, 1), dtype=bool)
        value = rs.risk_distortion(p, bullet, r, _unique_coupling_with_point(p))
        assert value == pytest.approx(float(rs.all_risks(p).max()), abs=1e-12)


def test_distortion_vs_max_one_point_is_loss_cap_minus_bayes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = random_problem(rng)
        ell_max = float(p.loss.max())
        bullet = rs.one_point_problem(ell_max)
        r = np.ones((p.n_predictors, 1), dtype=bool)
        value = rs.risk_distortion(p, bullet, r, _unique_coupling_with_point(p))
        assert value == pytest.approx(
            ell_max - rs.constrained_bayes_risk(p), abs=1e-12
        )


def test_pair_cost_matrix_diagonal_recovers_predictor_metric():
    rng = np.random.default_rng(32)
    p = random_problem(rng)
    costs = rs.pair_cost_matrix(p, p, _diagonal_coupling(p))
    assert np.allclose(costs, rs.predictor_pseudometric(p), atol=1e-12)


def test_pair_cost_matrix_one_point_column_of_risks():
    rng = np.random.default_rng(33)
    p = random_problem(rng)
    bullet = rs.one_point_problem(0.0)
    costs = rs.pair_cost_matrix(p, bullet, _unique_coupling_with_point(p))
    assert np.allclose(costs[:, 0], rs.all_risks(p), atol=1e-12)


def test_pair_cost_matrix_zero_losses():
    p = rs.FiniteProblem(("x",), ("a", "b"), np.array([[0.4, 0.6]]),
                         np.zeros((2, 2)), np.array([[0], [1]]))
    costs = rs.pair_cost_matrix(p, p, _diagonal_coupling(p))
    assert np.all(costs == 0.0)


def test_pair_transport_minimum_is_profile_w1():
    # the cost |l_h - l'_h'| factors through the two loss maps, so its
    # transport minimum is the W1 distance of the two loss profiles
    rng = np.random.default_rng(34)
    for trial in range(16):
        support = None if trial % 2 else int(rng.integers(1, 4))
        p = random_problem(rng, eta_support=support)
        q = random_problem(rng, eta_support=support)
        for h in range(p.n_predictors):
            for hp in range(q.n_predictors):
                cost = np.abs(p.predictor_loss(h).ravel()[:, None]
                              - q.predictor_loss(hp).ravel()[None, :])
                _, value = rs.solve_ot_exact(cost, p.eta.ravel(), q.eta.ravel())
                w1 = rs.w1_real_line(rs.loss_profile(p, h), rs.loss_profile(q, hp))
                assert abs(value - w1) <= 1e-12


# --------------------------------------------------------------------------
# hausdorff_reduction
# --------------------------------------------------------------------------

def test_reduction_zero_diagonal():
    costs = np.array([[0.0, 2.0], [3.0, 0.0]])
    value, witness = rs.hausdorff_reduction(costs)
    assert value == 0.0
    assert witness[0, 0] and witness[1, 1]
    assert not witness[0, 1] and not witness[1, 0]


def test_reduction_single_column_is_max():
    costs = np.array([[0.3], [0.9], [0.1]])
    value, witness = rs.hausdorff_reduction(costs)
    assert value == 0.9
    assert witness.all()


def test_reduction_matches_relation_enumeration():
    rng = np.random.default_rng(34)
    for _ in range(30):
        costs = rng.random((3, 3)) * 2
        value, witness = rs.hausdorff_reduction(costs)
        assert value == pytest.approx(correspondence_minimax_oracle(costs),
                                      abs=1e-12)
        # the witness achieves the value it certifies
        assert costs[witness].max() <= value + 1e-12


def test_reduction_below_every_explicit_correspondence():
    rng = np.random.default_rng(35)
    p = random_problem(rng, n_h=2)
    q = random_problem(rng, n_h=2)
    gamma, _ = rs.solve_ot_exact(
        np.zeros((p.nx * p.ny, q.nx * q.ny)), p.eta.ravel(), q.eta.ravel()
    )
    costs = rs.pair_cost_matrix(p, q, gamma.reshape(p.nx, p.ny, q.nx, q.ny))
    value, _ = rs.hausdorff_reduction(costs)
    from gen import enumerate_correspondences

    for r in enumerate_correspondences(2, 2):
        assert value <= rs.risk_distortion(
            p, q, r, gamma.reshape(p.nx, p.ny, q.nx, q.ny)
        ) + 1e-12


# --------------------------------------------------------------------------
# Exact distance
# --------------------------------------------------------------------------

def test_self_distance_zero():
    rng = np.random.default_rng(36)
    for _ in range(10):
        p = random_problem(rng)
        result = rs.risk_distance_exact(p, p)
        assert result.status == "exact"
        assert result.value <= 1e-9


def test_distance_to_zero_one_point_is_worst_risk():
    rng = np.random.default_rng(37)
    bullet = rs.one_point_problem(0.0)
    for _ in range(10):
        p = random_problem(rng)
        result = rs.risk_distance_exact(p, bullet)
        assert result.value == pytest.approx(float(rs.all_risks(p).max()),
                                             abs=1e-9)


def test_rademacher_family_distances():
    bullet = rs.one_point_problem(0.0)
    for n in (2, 3, 4):
        result = rs.risk_distance_exact(rademacher_example_problem(n), bullet)
        assert result.status == "exact"
        assert result.value == pytest.approx(1.0 / n, abs=1e-9)


def test_exact_matches_grid_oracle_dim1():
    rng = np.random.default_rng(38)
    for _ in range(6):
        p = random_problem(rng, eta_support=2)
        q = random_problem(rng, eta_support=2)
        exact = rs.risk_distance_exact(p, q).value
        grid_min, slack = grid_distance_oracle(p, q, step=1e-3)
        assert exact <= grid_min + 1e-9
        assert grid_min - exact <= slack


def test_exact_matches_grid_oracle_dim2():
    rng = np.random.default_rng(39)
    for _ in range(3):
        p = random_problem(rng, eta_support=2)
        q = random_problem(rng, eta_support=3)
        exact = rs.risk_distance_exact(p, q).value
        grid_min, slack = grid_distance_oracle(p, q, step=2e-3)
        assert exact <= grid_min + 1e-9
        assert grid_min - exact <= slack


def test_symmetry_is_exact():
    rng = np.random.default_rng(40)
    for _ in range(10):
        p, q = random_problem(rng), random_problem(rng)
        assert rs.risk_distance_exact(p, q).value == rs.risk_distance_exact(
            q, p
        ).value


def test_triangle_inequality_small_sample():
    rng = np.random.default_rng(41)
    for _ in range(8):
        a, b, c = (random_problem(rng) for _ in range(3))
        d_ab = rs.risk_distance_exact(a, b).value
        d_bc = rs.risk_distance_exact(b, c).value
        d_ac = rs.risk_distance_exact(a, c).value
        assert d_ac <= d_ab + d_bc + 1e-8


def test_witnesses_achieve_reported_value():
    rng = np.random.default_rng(42)
    for _ in range(8):
        p, q = random_problem(rng), random_problem(rng)
        result = rs.risk_distance_exact(p, q)
        replay = rs.risk_distortion(
            p, q, result.witness_correspondence, result.witness_coupling
        )
        assert replay == pytest.approx(result.value, abs=1e-9)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)])
def test_assignment_unions_match_loop_oracle(shape):
    unions = rs.distance._assignment_unions(*shape)
    got = sorted(tuple(map(tuple, np.argwhere(r).tolist())) for r in unions)
    assert got == assignment_unions_oracle(*shape)


def test_sweep_breaks_score_ties_by_sorted_pair_list(monkeypatch):
    # zero transport bounds tie every score, so the pair lists alone fix the
    # order, and no pattern is pruned before the LP values reach zero
    rng = np.random.default_rng(45)
    p = random_problem(rng, nx=2, ny=2, n_h=2)
    q = random_problem(rng, nx=2, ny=2, n_h=3)
    costs = rs.distance._pair_costs(p, q)
    solved = []
    solve = rs.distance._minimax_coupling_lp
    monkeypatch.setattr(rs.distance, "solve_ot_exact", lambda c, mu, nu: (None, 0.0))
    monkeypatch.setattr(rs.distance, "_minimax_coupling_lp",
                        lambda c, mu, nu: solved.append(c) or solve(c, mu, nu))
    rs.distance._pattern_sweep(costs, p.eta.ravel(), q.eta.ravel(),
                               rs.distance._assignment_unions(2, 3))
    expected = [costs[tuple(zip(*union))] for union in assignment_unions_oracle(2, 3)]
    assert len(solved) == len(expected) == 24
    assert all(np.array_equal(a, b) for a, b in zip(solved, expected))


def test_capacity_error_without_fallback():
    rng = np.random.default_rng(43)
    p = random_problem(rng, nx=3, ny=3, n_h=3)
    q = random_problem(rng, nx=3, ny=3, n_h=3)
    with pytest.raises(rs.CapacityError):
        rs.risk_distance_exact(p, q, cap_pairs=4, fallback=False)


@pytest.mark.parametrize("kwargs, field", [
    ({"cap_pairs": -3}, "cap_pairs"),
    ({"cap_support": -1}, "cap_support"),
])
def test_exact_rejects_negative_caps_and_restarts(kwargs, field):
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError) as err:
        rs.risk_distance_exact(p, p, **kwargs)
    assert err.value.field == field


def test_lp_distance_rejects_negative_restarts():
    rng = np.random.default_rng(44)
    wp = random_weighted(rng)
    with pytest.raises(rs.ValidationError) as err:
        rs.lp_risk_distance(wp, wp, restarts=-5)
    assert err.value.field == "restarts"


def test_fallback_upper_bound_dominates_exact():
    rng = np.random.default_rng(44)
    for _ in range(5):
        p, q = random_problem(rng), random_problem(rng)
        exact = rs.risk_distance_exact(p, q).value
        heur = rs.risk_distance_exact(p, q, cap_pairs=1, fallback=True)
        assert heur.status == "upper_bound"
        assert heur.value >= exact - 1e-9


# --------------------------------------------------------------------------
# Shared-structure bounds and the lower bound
# --------------------------------------------------------------------------

def test_loss_shift_bound_is_alpha():
    rng = np.random.default_rng(45)
    p = random_problem(rng)
    for alpha in (0.1, 1.0, 3.0):
        shifted = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta,
                                   p.loss + alpha, p.predictors)
        bound = rs.risk_distance_upper_shared(p, shifted, "shared_eta_H")
        assert bound == pytest.approx(alpha, abs=1e-12)


def test_loss_swap_identical_zero():
    p = identity_support_problem()
    assert rs.risk_distance_upper_shared(p, p, "shared_eta_H") == 0.0


def test_loss_perturbation_bound_capped():
    rng = np.random.default_rng(46)
    p = random_problem(rng)
    eps = 0.05
    noisy_loss = p.loss + rng.uniform(0, eps, size=p.loss.shape)
    q = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta, noisy_loss, p.predictors)
    assert rs.risk_distance_upper_shared(p, q, "shared_eta_H") <= eps + 1e-12


def test_mode_mismatch_rejected():
    rng = np.random.default_rng(47)
    p = random_problem(rng, ny=2)
    q = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta, p.loss + 1.0,
                         p.predictors)
    with pytest.raises(rs.ValidationError):
        rs.risk_distance_upper_shared(p, q, "shared_all_but_eta")
    with pytest.raises(rs.ValidationError):
        rs.risk_distance_upper_shared(p, q, "no_such_mode")


# what each mode requires the two problems to share, besides their labels
_SHARED = {"shared_eta_H": ("eta", "predictors"),
           "shared_all_but_eta": ("loss", "predictors"),
           "shared_all_but_H": ("eta", "loss")}
_CHANGED = {
    "y_labels": lambda p: replace(p, y_labels=("a", "b", "z")),
    "eta": lambda p: replace(p, eta=np.full((2, 3), 1 / 6)),
    "loss": lambda p: replace(p, loss=p.loss + 1.0),
    "predictors": lambda p: replace(p, predictors=p.predictors[:1]),
}


@pytest.mark.parametrize("mode, changed", [
    (mode, changed) for mode, parts in sorted(_SHARED.items())
    for changed in ("y_labels", *parts)
])
def test_upper_shared_mismatch_names_p_prime(mode, changed):
    p = rs.FiniteProblem(("x0", "x1"), ("a", "b", "c"),
                         [[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]], 1.0 - np.eye(3),
                         [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(rs.ValidationError) as err:
        rs.risk_distance_upper_shared(p, _CHANGED[changed](p), mode)
    assert err.value.field == "p_prime"


@pytest.mark.parametrize("mode", sorted(SHARED_MODE_CHANGES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lower_exact_upper_sandwich_property(mode, data):
    p, q = data.draw(shared_pairs(mode))
    exact = rs.risk_distance_exact(p, q)
    assert exact.status == "exact"
    assert rs.risk_distance_lower(p, q) <= exact.value + 1e-9
    assert exact.value <= rs.risk_distance_upper_shared(p, q, mode) + 1e-9


def test_lower_bound_below_exact_and_self_zero():
    rng = np.random.default_rng(48)
    p = random_problem(rng)
    assert rs.risk_distance_lower(p, p) == 0.0
    for _ in range(10):
        a, b = random_problem(rng), random_problem(rng)
        lower = rs.risk_distance_lower(a, b)
        exact = rs.risk_distance_exact(a, b).value
        assert lower <= exact + 1e-9


def test_lower_bound_vs_max_one_point_includes_bayes_gap():
    rng = np.random.default_rng(49)
    p = random_problem(rng)
    ell_max = float(p.loss.max())
    bullet = rs.one_point_problem(ell_max)
    lower = rs.risk_distance_lower(p, bullet)
    assert lower >= abs(rs.constrained_bayes_risk(p) - ell_max) - 1e-12


def test_sandwich_on_shared_structure_pairs():
    rng = np.random.default_rng(50)
    for _ in range(8):
        p = random_problem(rng)
        # loss swap
        q = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta,
                             p.loss + rng.uniform(0, 0.5, p.loss.shape),
                             p.predictors)
        exact = rs.risk_distance_exact(p, q).value
        assert rs.risk_distance_lower(p, q) <= exact + 1e-9
        assert exact <= rs.risk_distance_upper_shared(p, q, "shared_eta_H") + 1e-9
        # joint-law swap
        eta2 = rng.random(p.eta.shape)
        eta2 /= eta2.sum()
        q2 = rs.FiniteProblem(p.x_labels, p.y_labels, eta2, p.loss, p.predictors)
        exact2 = rs.risk_distance_exact(p, q2).value
        assert exact2 <= rs.risk_distance_upper_shared(
            p, q2, "shared_all_but_eta"
        ) + 1e-9
        # predictor swap
        preds = rng.integers(0, p.ny, size=(2, p.nx))
        q3 = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta, p.loss, preds)
        exact3 = rs.risk_distance_exact(p, q3).value
        assert exact3 <= rs.risk_distance_upper_shared(
            p, q3, "shared_all_but_H"
        ) + 1e-9


# --------------------------------------------------------------------------
# Weighted variant
# --------------------------------------------------------------------------

def test_lp_distortion_point_masses_single_pair_cost():
    rng = np.random.default_rng(51)
    wa = random_weighted(rng)
    wb = random_weighted(rng)
    lam_a = np.zeros(wa.problem.n_predictors)
    lam_a[0] = 1.0
    lam_b = np.zeros(wb.problem.n_predictors)
    lam_b[0] = 1.0
    wa = rs.WeightedProblem(problem=wa.problem, lam=lam_a)
    wb = rs.WeightedProblem(problem=wb.problem, lam=lam_b)
    rho = np.outer(lam_a, lam_b)
    gamma_flat = np.outer(wa.problem.eta.ravel(), wb.problem.eta.ravel())
    gamma = gamma_flat.reshape(wa.problem.nx, wa.problem.ny,
                               wb.problem.nx, wb.problem.ny)
    single = rs.pair_cost_matrix(wa.problem, wb.problem, gamma)[0, 0]
    assert rs.lp_risk_distortion(wa, wb, rho, gamma, 1.0) == pytest.approx(
        single, abs=1e-12
    )


def test_lp_distortion_monotone_in_p():
    rng = np.random.default_rng(52)
    for _ in range(10):
        wa, wb = random_weighted(rng), random_weighted(rng)
        rho = np.outer(wa.lam, wb.lam)
        gamma_flat = np.outer(wa.problem.eta.ravel(), wb.problem.eta.ravel())
        gamma = gamma_flat.reshape(wa.problem.nx, wa.problem.ny,
                                   wb.problem.nx, wb.problem.ny)
        d1 = rs.lp_risk_distortion(wa, wb, rho, gamma, 1.0)
        d2 = rs.lp_risk_distortion(wa, wb, rho, gamma, 2.0)
        dinf = rs.lp_risk_distortion(wa, wb, rho, gamma, np.inf)
        assert d1 <= d2 + 1e-12
        assert d2 <= dinf + 1e-12


def test_lp_distortion_rejects_p_below_one():
    rng = np.random.default_rng(53)
    wa, wb = random_weighted(rng), random_weighted(rng)
    rho = np.outer(wa.lam, wb.lam)
    gamma = np.einsum(
        "xy,uv->xyuv", wa.problem.eta, wb.problem.eta
    )
    with pytest.raises(rs.ValidationError):
        rs.lp_risk_distortion(wa, wb, rho, gamma, 0.5)


def test_lp_distance_self_zero():
    rng = np.random.default_rng(54)
    wp = random_weighted(rng)
    result = rs.lp_risk_distance(wp, wp, p=1.0)
    assert result.value <= 1e-9


def test_lp_distance_self_zero_beyond_vertex_enumeration():
    # six predictors: too many for exhaustive vertex restarts, so the
    # diagonal initialization has to carry the self-comparison to zero
    rng = np.random.default_rng(68)
    eta = rng.random((3, 3))
    eta /= eta.sum()
    p = rs.FiniteProblem(("a", "b", "c"), ("u", "v", "w"), eta,
                         rng.random((3, 3)) * 2,
                         rng.integers(0, 3, size=(6, 3)))
    wp = rs.WeightedProblem(problem=p, lam=rng.dirichlet(np.ones(6)))
    assert rs.lp_risk_distance(wp, wp, p=1.0).value <= 1e-9


def test_lp_distance_p_diameter_formula():
    rng = np.random.default_rng(55)
    bullet = rs.WeightedProblem(problem=rs.one_point_problem(0.0),
                                lam=np.array([1.0]))
    for _ in range(5):
        wp = random_weighted(rng)
        risks = rs.all_risks(wp.problem)
        for p_order in (1.0, 2.0):
            expected = float(np.sum(wp.lam * risks**p_order) ** (1 / p_order))
            result = rs.lp_risk_distance(wp, bullet, p=p_order)
            assert result.value == pytest.approx(expected, abs=1e-9)


def test_lp_distance_monotone_iterations_p1():
    rng = np.random.default_rng(56)
    for _ in range(5):
        wa, wb = random_weighted(rng), random_weighted(rng)
        trace: list[float] = []
        rs.lp_risk_distance(wa, wb, p=1.0, restarts=0, trace=trace)
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))


def test_lp_distance_singletons_exact_status():
    rng = np.random.default_rng(57)
    wa = random_weighted(rng, n_h=1)
    wb = random_weighted(rng, n_h=1)
    result = rs.lp_risk_distance(wa, wb)
    assert result.status == "exact"
    recomputed = rs.lp_risk_distortion(
        wa, wb, result.witness_predictor_coupling, result.witness_coupling, 1.0
    )
    assert recomputed == pytest.approx(result.value, abs=1e-9)


# --------------------------------------------------------------------------
# Bilinear relaxation
# --------------------------------------------------------------------------

def _space(rng, n):
    pts = rng.random((n, 2)) * 2
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    mu = rng.random(n) + 0.1
    return dist, mu / mu.sum()


def test_bilinear_identical_spaces_zero():
    rng = np.random.default_rng(59)
    dist, mu = _space(rng, 3)
    assert rs.bilinear_gw(dist, mu, dist, mu) <= 1e-12


def test_bilinear_isometric_relabeling_zero():
    rng = np.random.default_rng(60)
    dist, mu = _space(rng, 3)
    perm = np.array([2, 0, 1])
    assert rs.bilinear_gw(dist, mu, dist[np.ix_(perm, perm)], mu[perm]) <= 1e-12


def test_bilinear_two_point_gap_spaces_vs_hand_enumeration():
    d1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    d2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    mu = np.array([0.5, 0.5])
    value = rs.bilinear_gw(d1, mu, d2, mu)
    # hand enumeration over the two vertex couplings on each side
    vertices = [np.array([[0.5, 0.0], [0.0, 0.5]]),
                np.array([[0.0, 0.5], [0.5, 0.0]])]
    best = np.inf
    for g in vertices:
        for r in vertices:
            total = 0.0
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for el in range(2):
                            total += g[i, j] * r[k, el] * abs(
                                d1[k, i] - d2[el, j]
                            )
            best = min(best, total)
    assert value == pytest.approx(best, abs=1e-12)


def test_bilinear_rejects_non_metric():
    bad = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    mu = np.array([0.4, 0.3, 0.3])
    with pytest.raises(rs.ValidationError):
        rs.bilinear_gw(bad, mu, bad, mu)


def test_lp_distance_equals_bilinear_on_encoded_spaces():
    rng = np.random.default_rng(61)
    for _ in range(4):
        da, mua = _space(rng, int(rng.integers(2, 4)))
        db, mub = _space(rng, int(rng.integers(2, 4)))
        labels_a = tuple(f"a{i}" for i in range(len(mua)))
        labels_b = tuple(f"b{i}" for i in range(len(mub)))
        wa = rs.encode_mm_space_weighted(labels_a, da, mua)
        wb = rs.encode_mm_space_weighted(labels_b, db, mub)
        lp = rs.lp_risk_distance(wa, wb, p=1.0)
        relaxed = rs.bilinear_gw(da, mua, db, mub)
        assert lp.value == pytest.approx(relaxed, abs=1e-9)
        assert relaxed == pytest.approx(
            bilinear_vertex_oracle(da, mua, db, mub), abs=1e-9)


@pytest.mark.parametrize("na, nb", [
    (1, 2), (1, 5), (1, 9), (9, 1), (2, 2), (2, 3), (2, 4), (4, 2), (3, 3),
])
def test_bilinear_exact_at_support_product_up_to_nine(na, nb):
    rng = np.random.default_rng(63 + 10 * na + nb)
    for _ in range(3):
        spaces = (*_space(rng, na), *_space(rng, nb))
        assert rs.bilinear_gw(*spaces) == pytest.approx(
            bilinear_vertex_oracle(*spaces), abs=1e-9)


def test_bilinear_exact_with_zero_mass_atoms():
    # zero-mass points leave the support product at most 9 on larger spaces
    rng = np.random.default_rng(64)
    for na, nb, dead_a, dead_b in ((4, 4, [0], [3]), (5, 3, [1, 3], []),
                                   (4, 6, [0, 2], [1, 2, 4])):
        da, mua = _space(rng, na)
        db, mub = _space(rng, nb)
        mua[dead_a] = 0.0
        mub[dead_b] = 0.0
        mua, mub = mua / mua.sum(), mub / mub.sum()
        assert rs.bilinear_gw(da, mua, db, mub) == pytest.approx(
            bilinear_vertex_oracle(da, mua, db, mub), abs=1e-9)


def test_lp_distance_p1_small_polytopes_is_vertex_pair_minimum(monkeypatch):
    # both coupling polytopes have support product at most 9, some through
    # zero-mass cells: the p = 1 value is the least distortion over every
    # pair of vertices, found without an LP
    rng = np.random.default_rng(65)
    for nx, ny, support in ((1, 3, None), (1, 2, None), (2, 3, 3), (3, 3, 2)):
        wa = random_weighted(rng, nx=nx, ny=ny, n_h=3, eta_support=support)
        wb = random_weighted(rng, nx=nx, ny=ny, n_h=3, eta_support=support)
        result, solved = _recorded_lps(
            monkeypatch, lambda: rs.lp_risk_distance(wa, wb, p=1.0))
        assert solved == []
        shape = (nx, ny, nx, ny)
        oracle = min(
            rs.lp_risk_distortion(wa, wb, rho, gamma.reshape(shape), 1.0)
            for rho in transport_vertices(wa.lam, wb.lam)
            for gamma in transport_vertices(wa.problem.eta.ravel(),
                                            wb.problem.eta.ravel()))
        assert result.value == pytest.approx(oracle, abs=1e-9)
        assert rs.lp_risk_distortion(
            wa, wb, result.witness_predictor_coupling, result.witness_coupling,
            1.0) == pytest.approx(result.value, abs=1e-9)


def test_bilinear_memory_on_fifteen_point_spaces():
    # the pair costs cover the supported cells only: (15 * 15)^2 entries,
    # not 15^6 over the full observation grids (about 90 MB)
    rng = np.random.default_rng(66)
    spaces = (*_space(rng, 15), *_space(rng, 15))
    tracemalloc.start()
    try:
        value = rs.bilinear_gw(*spaces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value >= 0.0
    assert peak < 16e6


def test_bilinear_checks_each_metric_once(monkeypatch):
    checked = []
    check = rs.problems._check_metric_matrix
    monkeypatch.setattr(rs.problems, "_check_metric_matrix",
                        lambda d, field: checked.append(field) or check(d, field))
    rng = np.random.default_rng(67)
    rs.bilinear_gw(*_space(rng, 3), *_space(rng, 4))
    assert checked == ["dist_a", "dist_b"]


@pytest.mark.parametrize("args, field", [
    ((np.zeros((2, 3)), [0.5, 0.5]), "dist_a"),
    (([[0.0, "x"], ["x", 0.0]], [0.5, 0.5]), "dist_a"),
    (([[0.0, 1.0], [1.0]], [0.5, 0.5]), "dist_a"),
    ((1.0 - np.eye(3), [0.5, 0.5]), "dist_a"),
    ((1.0 - np.eye(2), [[0.5, 0.5]]), "mu_a"),
    ((1.0 - np.eye(2), ["a", "b"]), "mu_a"),
    ((1.0 - np.eye(2), [0.7, 0.7]), "mu_a"),
])
def test_bilinear_names_the_bad_input(args, field):
    good = (1.0 - np.eye(2), np.array([0.5, 0.5]))
    with pytest.raises(rs.ValidationError) as err:
        rs.bilinear_gw(*args, *good)
    assert err.value.field == field
    with pytest.raises(rs.ValidationError) as err:
        rs.bilinear_gw(*good, *args)
    assert err.value.field == field.replace("_a", "_b")


# --------------------------------------------------------------------------
# Alternating solvers: each distinct LP is solved once per call
# --------------------------------------------------------------------------

def _alternating_cases():
    rng = np.random.default_rng(62)
    for order in (1.0, 2.0):
        for n_h in (2, 3):
            wa = random_weighted(rng, nx=3, ny=3, n_h=n_h)
            wb = random_weighted(rng, nx=3, ny=3, n_h=3)
            yield lambda wa=wa, wb=wb, order=order: _lp_outcome(wa, wb, order)
    for na, nb in ((4, 4), (4, 5)):
        spaces = (*_space(rng, na), *_space(rng, nb))
        yield lambda spaces=spaces: (rs.bilinear_gw(*spaces),)
    for _ in range(2):
        p = random_problem(rng, nx=3, ny=3, n_h=3)
        q = random_problem(rng, nx=3, ny=3, n_h=3)
        yield lambda p=p, q=q: _fallback_outcome(p, q)


def _lp_outcome(wa, wb, order):
    trace: list[float] = []
    result = rs.lp_risk_distance(wa, wb, p=order, trace=trace)
    return (result.value, result.witness_coupling.tobytes(),
            result.witness_predictor_coupling.tobytes(), np.array(trace).tobytes())


def _fallback_outcome(p, q):
    result = rs.risk_distance_exact(p, q, cap_pairs=4)
    assert result.status == "upper_bound"
    return (result.value, result.witness_coupling.tobytes(),
            result.witness_correspondence.tobytes())


def _recorded_lps(monkeypatch, call):
    """Outcome of ``call`` and the inputs of every LP it solved."""
    solved = []

    def recording(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, **kwargs):
        solved.append(tuple(None if a is None else np.asarray(a).tobytes()
                            for a in (c, A_ub, b_ub, A_eq, b_eq)))
        return scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                                      b_eq=b_eq, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(rs.transport, "linprog", recording)
        patch.setattr(rs.distance, "linprog", recording)
        return call(), solved


def test_alternating_solvers_match_unmemoized(monkeypatch):
    repeats = 0
    for call in _alternating_cases():
        memoized, solved = _recorded_lps(monkeypatch, call)
        assert len(set(solved)) == len(solved)
        with monkeypatch.context() as patch:
            patch.setattr(rs.distance, "_solved_once", lambda solve: solve)
            plain, solved_plain = _recorded_lps(monkeypatch, call)
        assert memoized == plain
        assert set(solved_plain) == set(solved)
        repeats += len(solved_plain) - len(solved)
    # the unmemoized runs do repeat LPs, so the comparison is not vacuous
    assert repeats > 0


# --------------------------------------------------------------------------
# Geodesics
# --------------------------------------------------------------------------

def _tiny_pair(rng):
    p0 = random_problem(rng, nx=2, ny=2, n_h=int(rng.integers(1, 3)))
    p1 = random_problem(rng, nx=2, ny=2, n_h=int(rng.integers(1, 3)))
    return p0, p1


def test_geodesic_endpoints_at_distance_zero():
    rng = np.random.default_rng(62)
    p0, p1 = _tiny_pair(rng)
    witness = rs.risk_distance_exact(p0, p1)
    start = rs.geodesic_problem(p0, p1, witness, 0.0)
    end = rs.geodesic_problem(p0, p1, witness, 1.0)
    assert rs.risk_distance_exact(p0, start).value <= 1e-9
    assert rs.risk_distance_exact(p1, end).value <= 1e-9


def test_geodesic_midpoint_halves_distance():
    rng = np.random.default_rng(63)
    p0, p1 = _tiny_pair(rng)
    witness = rs.risk_distance_exact(p0, p1)
    mid = rs.geodesic_problem(p0, p1, witness, 0.5)
    d_mid = rs.risk_distance_exact(p0, mid).value
    assert d_mid == pytest.approx(witness.value / 2, abs=1e-6)


def test_geodesic_chain_between_interior_points():
    rng = np.random.default_rng(66)
    p0 = random_problem(rng, nx=2, ny=2, n_h=2)
    p1 = random_problem(rng, nx=2, ny=2, n_h=1)
    witness = rs.risk_distance_exact(p0, p1)
    total = witness.value
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    points = {t: rs.geodesic_problem(p0, p1, witness, t) for t in grid}
    for i, s in enumerate(grid):
        for t in grid[i + 1:]:
            # interior points share everything but the loss blend, so the
            # diagonal-witness bound is the loss-swap bound, and it is tight
            upper = rs.risk_distance_upper_shared(points[s], points[t],
                                                  "shared_eta_H")
            assert upper <= (t - s) * total + 1e-8
            d = rs.risk_distance_exact(points[s], points[t]).value
            assert abs(d - (t - s) * total) <= 1e-6


def test_isometric_relabelings_encode_at_distance_zero():
    rng = np.random.default_rng(67)
    pts = rng.random((3, 2))
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    mu = rng.dirichlet(np.ones(3))
    perm = np.array([1, 2, 0])
    a = rs.encode_mm_space(("p0", "p1", "p2"), dist, mu)
    b = rs.encode_mm_space(("q0", "q1", "q2"), dist[np.ix_(perm, perm)],
                           mu[perm])
    assert rs.risk_distance_exact(a, b).value <= 1e-9


def test_geodesic_requires_exact_witnesses_and_valid_t():
    rng = np.random.default_rng(64)
    p0, p1 = _tiny_pair(rng)
    witness = rs.risk_distance_exact(p0, p1)
    with pytest.raises(rs.ValidationError):
        rs.geodesic_problem(p0, p1, witness, 1.5)
    fake = rs.DistanceResult(value=witness.value, status="upper_bound",
                             witness_coupling=witness.witness_coupling,
                             witness_correspondence=witness.witness_correspondence)
    with pytest.raises(rs.ValidationError):
        rs.geodesic_problem(p0, p1, fake, 0.5)


def test_distance_result_rejects_nan_but_not_inf():
    with pytest.raises(rs.ValidationError) as err:
        rs.DistanceResult(value=float("nan"), status="exact")
    assert err.value.field == "value"
    assert rs.DistanceResult(value=np.inf, status="exact").value == np.inf

# --------------------------------------------------------------------------
# Weak isomorphism
# --------------------------------------------------------------------------

def test_weak_iso_with_singleton_coarsening():
    rng = np.random.default_rng(65)
    p = random_problem(rng, n_h=2)
    coarse = rs.coarsen(p, rs.singleton_partition(p.ny))
    witness = rs.weak_isomorphism_witness(p, coarse)
    assert witness is not None
    r, gamma = witness
    assert rs.risk_distortion(p, coarse, r, gamma) <= 1e-9


def test_weak_iso_extra_label_pair():
    from test_problems import _extra_label_pair

    rich, base, _, _, _ = _extra_label_pair()
    # restrict the rich problem to 2 predictors to stay inside the pair cap
    rich_small = rs.FiniteProblem(rich.x_labels, rich.y_labels, rich.eta,
                                  rich.loss, rich.predictors[[0, 4]])
    base_small = rs.FiniteProblem(base.x_labels, base.y_labels, base.eta,
                                  base.loss, base.predictors[[0, 3]])
    witness = rs.weak_isomorphism_witness(base_small, rich_small)
    assert witness is not None


def test_weak_iso_none_for_distinct_bayes_risks():
    p = identity_support_problem()
    bullet = rs.one_point_problem(1.0)
    assert rs.weak_isomorphism_witness(p, bullet) is None
