"""Risk distortion, the exact distance solver, bounds, weighted variants,
the bilinear relaxation, geodesics, and weak-isomorphism witnesses."""

import tracemalloc
import warnings
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
    scaled,
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_distance_is_a_pseudometric(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_problem(rng, max_nx=2, max_h=2) for _ in range(3))
    assert rs.risk_distance_exact(a, a).value <= 1e-9
    d_ab = rs.risk_distance_exact(a, b).value
    assert d_ab == rs.risk_distance_exact(b, a).value
    d_bc = rs.risk_distance_exact(b, c).value
    d_ac = rs.risk_distance_exact(a, c).value
    assert d_ac <= d_ab + d_bc + 1e-9
    assert d_ab <= d_ac + d_bc + 1e-9
    assert d_bc <= d_ab + d_ac + 1e-9


def test_witnesses_achieve_reported_value():
    rng = np.random.default_rng(42)
    for _ in range(8):
        p, q = random_problem(rng), random_problem(rng)
        result = rs.risk_distance_exact(p, q)
        replay = rs.risk_distortion(
            p, q, result.witness_correspondence, result.witness_coupling
        )
        assert replay == pytest.approx(result.value, abs=1e-9)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4),
                                   (4, 3), (2, 6), (6, 2), (4, 4)])
def test_assignment_unions_match_loop_oracle(shape):
    unions = rs.distance._assignment_unions(*shape)
    got = [tuple(map(tuple, np.argwhere(r).tolist())) for r in unions]
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


def test_sweep_solves_tied_sets_in_the_given_order_each_when_admitted(monkeypatch):
    # zero transport bounds tie every score, so the candidate order alone
    # fixes the solve order; every admitted set is solved before the next
    # one is offered
    rng = np.random.default_rng(45)
    p = random_problem(rng, nx=2, ny=2, n_h=2)
    q = random_problem(rng, nx=2, ny=2, n_h=3)
    costs = rs.distance._pair_costs(p, q)
    events = []
    solve = rs.distance._minimax_coupling_lp
    monkeypatch.setattr(rs.distance, "solve_ot_exact", lambda c, mu, nu: (None, 0.0))
    monkeypatch.setattr(rs.distance, "_minimax_coupling_lp",
                        lambda c, mu, nu: events.append("solve") or solve(c, mu, nu))

    def offered(candidates):
        events.clear()
        order = []

        def admit(r):
            order.append(r.tobytes())
            events.append("admit")
            return True

        rs.distance._pattern_sweep(costs, p.eta.ravel(), q.eta.ravel(), candidates, admit)
        assert events == ["admit", "solve"] * len(order)
        return order

    unions = rs.distance._assignment_unions(2, 3)
    forward, backward = offered(unions), offered(unions[::-1])
    assert len(forward) == 24 and backward == forward[::-1]


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


def test_exact_distance_scales_with_the_losses():
    # the LP sees its costs in one binade whatever the loss unit, so HiGHS's
    # absolute tolerances and its infinite cost meet every unit alike; the
    # sweep's pruning and the witness's ties are relative to the largest
    # pair cost, so at losses x1e-12 the value and its witnesses still agree
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        p, q = random_problem(rng), random_problem(rng)
        base = rs.risk_distance_exact(p, q).value
        for k in (1e-14, 1e-12, 1e-8, 1e-6, 1e-4, 1e4, 1e8):
            pk, qk = scaled(p, k), scaled(q, k)
            result = rs.risk_distance_exact(pk, qk)
            assert result.value / k == pytest.approx(base, rel=1e-12, abs=0.0), (
                seed, k)
            distortion = rs.risk_distortion(pk, qk, result.witness_correspondence,
                                            result.witness_coupling)
            assert distortion == pytest.approx(result.value, rel=1e-12, abs=0.0), (
                seed, k)


def test_fallback_scales_with_the_losses():
    # beyond the caps: a power-of-two unit scales every cost exactly, so the
    # LPs and the descent's path are the unscaled pair's, and only a
    # tolerance in loss units could stop the descent elsewhere
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, nx=3, ny=3, n_h=4)
        q = random_problem(rng, nx=3, ny=3, n_h=4)
        base = rs.risk_distance_exact(p, q)
        assert base.status == "upper_bound"
        for k in (2.0**-40, 2.0**40):
            value = rs.risk_distance_exact(scaled(p, k), scaled(q, k)).value
            assert value / k == pytest.approx(base.value, rel=1e-12, abs=0.0), (
                seed, k)


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
    # numpy compares a string array elementwise; only a str names a mode
    for mode in (np.array(["shared_eta_H", "x"]), np.array(["shared_eta_H"]),
                 np.array("shared_eta_H")):
        with pytest.raises(rs.ValidationError) as err:
            rs.risk_distance_upper_shared(p, p, mode)
        assert err.value.field == "mode"
    assert rs.risk_distance_upper_shared(p, p, np.str_("shared_eta_H")) == 0.0


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


def test_fallback_self_distance_zero_beyond_caps():
    # four predictors: 16 pairs, beyond the exact caps, so the fallback's
    # diagonal start has to carry each self-comparison to zero
    rng = np.random.default_rng(0)
    for _ in range(8):
        p = rs.FiniteProblem(("a", "b", "c"), ("u", "v", "w"),
                             rng.dirichlet(np.ones(9)).reshape(3, 3),
                             rng.integers(0, 3, size=(3, 3)),
                             rng.integers(0, 3, size=(4, 3)))
        result = rs.risk_distance_exact(p, p)
        assert result.status == "upper_bound" and result.value <= 1e-9


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


def test_starts_are_drawn_as_they_are_reached():
    lam, lam_prime = np.full(4, 0.25), np.array([0.1, 0.2, 0.3, 0.4])
    tracemalloc.start()
    try:
        starts = rs.distance._starts(lam, lam_prime, None, 10**12,
                                     np.random.default_rng(0))
        first = next(starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, np.outer(lam, lam_prime))
    assert peak < 1e5
    # the same starts, in the same order, from the same draws as a list
    rng = np.random.default_rng(0)
    expected = [np.outer(lam, lam), np.diag(lam)] + [
        rs.transport.random_coupling_vertex(lam, lam, rng) for _ in range(5)]
    starts = rs.distance._starts(lam, lam, None, 5, np.random.default_rng(0))
    assert [s.tobytes() for s in starts] == [s.tobytes() for s in expected]


# --------------------------------------------------------------------------
# Large orders: weighted L^p means are scaled before they are powered
# --------------------------------------------------------------------------

def _two_labels(eta=(0.5, 0.5), gap=0.5):
    """One input, two labels, loss ``gap`` off the diagonal and the two
    constant predictors, weighted equally."""
    problem = rs.FiniteProblem(("x",), ("a", "b"), [list(eta)],
                               [[0.0, gap], [gap, 0.0]], [[0], [1]])
    return rs.WeightedProblem(problem, [0.5, 0.5])


def test_label_swap_certificate_at_large_p():
    # both predictors' losses differ by 0.5 between the labels, so S_p is
    # 0.5 off the diagonal at every p, though 0.5 ** 2000 underflows
    for order in (1.0, 100.0, 2000.0):
        _, bound = rs.apply_general_noise(_two_labels(), [[0, 1], [1, 0]], order)
        assert bound == pytest.approx(0.5, abs=1e-12)


def test_lp_distortion_at_large_p():
    # each diagonal pair costs 0.25 under the independent coupling
    wp = _two_labels()
    gamma = np.multiply.outer(wp.problem.eta, wp.problem.eta)
    assert rs.lp_risk_distortion(wp, wp, np.diag([0.5, 0.5]), gamma,
                                 2000.0) == pytest.approx(0.25, abs=1e-12)


def test_lp_distance_at_large_p_is_its_witnesses_distortion():
    # every round's objective underflows to 0; the reported value does not
    wp = _two_labels()
    noised, _ = rs.apply_general_noise(wp, [[1.0, 0.0], [0.1, 0.9]])
    trace: list[float] = []
    result = rs.lp_risk_distance(wp, noised, p=2000.0, trace=trace)
    assert set(trace) == {0.0}
    assert result.value == pytest.approx(0.025, abs=1e-12)
    assert result.value == pytest.approx(rs.lp_risk_distortion(
        wp, noised, result.witness_predictor_coupling, result.witness_coupling,
        2000.0), rel=1e-12)


def test_profile_wasserstein_at_large_p():
    # every pair of loss profiles is 0.2 apart in W1
    value = rs.wasserstein_profile_distributions(
        _two_labels(), _two_labels(eta=(0.9, 0.1)), 1200.0)
    assert value == pytest.approx(0.2, abs=1e-12)


def test_lp_distance_self_distance_zero_at_any_order():
    # pair costs reach 3, and 3 ** 45 passes HiGHS's infinite cost of 1e20
    # and 3 ** 800 overflows a float; the steps see the costs divided by 3
    wp = _two_labels(gap=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (45.0, 600.0, 800.0, 2000.0):
            assert rs.lp_risk_distance(wp, wp, p=order).value == 0.0


def test_lp_distance_self_distance_zero_when_powers_are_tiny():
    # 0.5 ** 100 is about 8e-31: powered raw costs put every rho-step cost
    # inside the steps' absolute tolerances, and the value read 0.4
    wp = _two_labels(eta=(0.9, 0.1))
    assert rs.lp_risk_distance(wp, wp, p=100.0).value == 0.0


def test_lp_distance_scales_with_the_losses():
    # the distance is a mean of expected loss gaps: losses times k give k
    # times the distance, at every order and loss unit, and the descent
    # stops after as many rounds, its gains being compared in that unit
    for seed in range(6):
        rng = np.random.default_rng(seed)
        wp, wq = random_weighted(rng), random_weighted(rng)
        for p in (1.0, 2.0, 3.0):
            base_trace = []
            base = rs.lp_risk_distance(wp, wq, p=p, trace=base_trace).value
            for k in (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9):
                trace = []
                value = rs.lp_risk_distance(scaled(wp, k), scaled(wq, k), p=p,
                                            trace=trace).value
                assert value / k == pytest.approx(base, rel=1e-12, abs=0.0), (
                    seed, p, k)
                assert len(trace) == len(base_trace), (seed, p, k)


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
    # zero-mass cells: the p = 1 value, descended from every predictor
    # vertex, is the least distortion over every pair of vertices
    rng = np.random.default_rng(65)
    for nx, ny, support in ((1, 3, None), (1, 2, None), (2, 3, 3), (3, 3, 2)):
        wa = random_weighted(rng, nx=nx, ny=ny, n_h=3, eta_support=support)
        wb = random_weighted(rng, nx=nx, ny=ny, n_h=3, eta_support=support)
        result, _ = _recorded_lps(
            monkeypatch, lambda: rs.lp_risk_distance(wa, wb, p=1.0))
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
    ((np.zeros((0, 0)), []), "mu_a"),
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
# Transport steps: the least-cost vertex of a small polytope
# --------------------------------------------------------------------------

def _marginal(rng, size, dead=()):
    mass = rng.random(size) + 0.05
    mass[list(dead)] = 0.0
    return mass / mass.sum()


def test_transport_step_costs_the_lp_optimum():
    # integer costs make tied optima common, so both the vertex argmin or
    # tree simplex and the LP they defer to are checked; the plan itself is
    # read downstream, so a large step takes the LP on every tie
    rng = np.random.default_rng(70)
    for size_a, size_b, dead_a, dead_b in ((1, 4, (), ()), (2, 3, (), ()),
                                           (3, 3, (), ()), (4, 3, (1,), ()),
                                           (3, 5, (0,), (1, 3)), (2, 4, (), (2,)),
                                           (4, 3, (), ()), (5, 4, (0,), ()),
                                           (1, 12, (), (3,)), (6, 6, (2, 4), (5,))):
        a = _marginal(rng, size_a, dead_a)
        b = _marginal(rng, size_b, dead_b)
        plan_reads = np.eye(size_a * size_b).reshape(-1, size_a, size_b)
        step, vertices = rs.distance._transport_step(a, b, plan_reads)
        small = (size_a - len(dead_a)) * (size_b - len(dead_b)) <= 9
        assert (vertices is not None) == small
        for trial in range(20):
            cost = (rng.integers(0, 3, (size_a, size_b)).astype(float)
                    if trial % 2 else rng.random((size_a, size_b)))
            plan = rs.transport.check_coupling(step(cost), a, b)
            _, value = rs.solve_ot_exact(cost, a, b)
            assert abs(np.sum(plan * cost) - value) <= 1e-12


def test_transport_step_tells_apart_vertices_a_tiny_mass_apart():
    # the plan that moves 1e-11 through the cell of cost 1e3 costs 1e-8, ten
    # times METRIC_TOL, so no tie sends the step to the LP
    a, b = np.array([1 - 1e-11, 1e-11]), np.array([0.5, 0.5])
    cost = np.array([[0.0, 0.0], [1e3, 0.0]])
    step, vertices = rs.distance._transport_step(a, b, np.eye(4).reshape(-1, 2, 2))
    assert len(vertices) == 2
    _, value = rs.solve_ot_exact(cost, a, b)
    assert abs(np.sum(step(cost) * cost) - value) <= 1e-12


def _lps_over(solved, a, b) -> int:
    """How many of the recorded LPs couple the positive atoms of a and b."""
    marginals = np.concatenate([a[a > 0], b[b > 0]]).tobytes()
    return sum(b_eq == marginals for *_, b_eq in solved)


def _etas(wa, wb):
    return wa.problem.eta.ravel(), wb.problem.eta.ravel()


def test_tied_predictor_vertices_take_the_lp(monkeypatch):
    # two copies of one predictor pay the same against every partner, so all
    # rho vertices cost the same and the rho step is HiGHS's choice
    rng = np.random.default_rng(71)
    base = random_problem(rng, nx=3, ny=3, n_h=1)
    twins = rs.FiniteProblem(base.x_labels, base.y_labels, base.eta, base.loss,
                             np.repeat(base.predictors, 2, axis=0))
    wa = rs.WeightedProblem(twins, np.array([0.5, 0.5]))
    wb = random_weighted(rng, nx=3, ny=3, n_h=3)
    _, solved = _recorded_lps(monkeypatch, lambda: rs.lp_risk_distance(wa, wb))
    assert _lps_over(solved, wa.lam, wb.lam)


def _simplex_steps(monkeypatch, call):
    """Outcome of ``call`` and the (marginals, plan, basis, reduced, inverse)
    of every tree simplex it ran."""
    steps = []

    def recording(cost, support, start=None):
        out = rs.transport._tree_simplex(cost, support, start)
        steps.append((np.concatenate([support.mu, support.nu]).tobytes(), *out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(rs.distance, "_tree_simplex", recording)
        return call(), steps


def _by_lp_steps(monkeypatch, wa, wb, order):
    """(value, trace) of ``lp_risk_distance`` with every large transport step
    solved by LP, as before the tree simplex."""
    step_of = rs.distance._transport_step

    def lp_step(a, b, downstream):
        step, vertices = step_of(a, b, downstream)
        if vertices is None:
            step = lambda cost: rs.solve_ot_exact(cost, a, b)[0]  # noqa: E731
        return step, vertices

    trace: list[float] = []
    with monkeypatch.context() as patch:
        patch.setattr(rs.distance, "_transport_step", lp_step)
        value = rs.lp_risk_distance(wa, wb, p=order, trace=trace).value
    return value, trace


def _matches_lp_steps(monkeypatch, wa, wb, order):
    trace: list[float] = []
    value = rs.lp_risk_distance(wa, wb, p=order, trace=trace).value
    lp_value, lp_trace = _by_lp_steps(monkeypatch, wa, wb, order)
    return len(trace) == len(lp_trace) and abs(value - lp_value) <= 1e-12


def _zeroed_weighted(rng, n_h, zeros=0, **kwargs):
    """A random weighted problem with ``zeros`` of its weights set to 0."""
    wp = random_weighted(rng, n_h=n_h, **kwargs)
    lam = wp.lam.copy()
    lam[rng.choice(n_h, size=zeros, replace=False)] = 0.0
    return rs.WeightedProblem(wp.problem, lam / lam.sum())


@pytest.mark.parametrize("order", [1.0, 2.0])
def test_generic_predictor_steps_solve_no_lp(monkeypatch, order):
    # no rho step of these seeded pairs ties (predictors that agree on some
    # points tie steps often, at p = 1 above all; the tie tests cover that):
    # no LP over the predictor weightings, whether the rho polytope is small
    # (3 x 3) or large (4 x 4 through a zero weight), and the gamma steps,
    # over 81 cells, solve fewer LPs than there are distinct gamma steps
    rng = np.random.default_rng(72)
    pairs = [(random_weighted(rng, nx=3, ny=3, n_h=3),
              random_weighted(rng, nx=3, ny=3, n_h=3))]
    rng = np.random.default_rng(79)
    pairs.append((_zeroed_weighted(rng, 5, 1, nx=3, ny=3),
                  _zeroed_weighted(rng, 4, 0, nx=3, ny=3)))
    for wa, wb in pairs:
        call = lambda: rs.lp_risk_distance(wa, wb, p=order)  # noqa: E731
        (_, steps), solved = _recorded_lps(
            monkeypatch, lambda: _simplex_steps(monkeypatch, call))
        mu, nu = _etas(wa, wb)
        gamma_steps = [s for s in steps if s[0] == np.concatenate([mu, nu]).tobytes()]
        assert not _lps_over(solved, wa.lam, wb.lam)
        assert _lps_over(solved, mu, nu) < len(gamma_steps)
    assert len(steps) > len(gamma_steps)  # the second pair's rho steps are large


def test_harmless_gamma_tie_solves_no_lp(monkeypatch):
    # x0 and x1 get the same label from every predictor, so their cells pay
    # equal losses: the gamma optimum is not unique, but moving mass between
    # those cells moves no pair cost
    rng = np.random.default_rng(73)
    wa = random_weighted(rng, nx=3, ny=3, n_h=3)
    predictors = wa.problem.predictors.copy()
    predictors[:, 1] = predictors[:, 0]
    wa = rs.WeightedProblem(replace(wa.problem, predictors=predictors), wa.lam)
    wb = random_weighted(rng, nx=3, ny=3, n_h=3)
    call = lambda: rs.lp_risk_distance(wa, wb)  # noqa: E731
    (_, steps), solved = _recorded_lps(
        monkeypatch, lambda: _simplex_steps(monkeypatch, call))
    mu, nu = _etas(wa, wb)
    tied = [np.count_nonzero(reduced <= rs.problems.METRIC_TOL) > len(basis)
            for marginals, _, basis, reduced, _ in steps
            if marginals == np.concatenate([mu, nu]).tobytes()]
    assert any(tied)
    assert not _lps_over(solved, mu, nu)
    assert _matches_lp_steps(monkeypatch, wa, wb, 1.0)


@pytest.mark.parametrize("order", [1.0, 2.0])
def test_harmful_gamma_tie_takes_the_lp(monkeypatch, order):
    # losses in {0, 1, 2} tie gamma plans that move some pair cost, so the
    # step is HiGHS's choice and the descent is the one of an LP per step
    rng = np.random.default_rng(75)

    def integer_losses(wp):
        loss = rng.integers(0, 3, wp.problem.loss.shape).astype(float)
        return rs.WeightedProblem(replace(wp.problem, loss=loss), wp.lam)

    wa = integer_losses(random_weighted(rng, nx=3, ny=3, n_h=3))
    wb = integer_losses(random_weighted(rng, nx=3, ny=3, n_h=3))
    _, solved = _recorded_lps(monkeypatch, lambda: rs.lp_risk_distance(wa, wb, p=order))
    assert _lps_over(solved, *_etas(wa, wb))
    assert _matches_lp_steps(monkeypatch, wa, wb, order)


def _frozen_trajectory_cases():
    """Seeded weighted pairs, each with an order, whose alternating descent
    takes vertex-argmin steps: a predictor polytope with at most nine
    supported cells (some through zero weights) at p = 1 and 2, then an
    observation polytope with at most nine at p = 2."""
    rng = np.random.default_rng(69)

    def weighted(n_h, zeros=0, **kwargs):
        return _zeroed_weighted(rng, n_h, zeros, **kwargs)

    for n_h, zeros_a, n_hp, zeros_b in ((3, 0, 3, 0), (2, 0, 3, 0), (4, 1, 3, 0),
                                        (3, 1, 5, 2), (4, 2, 4, 1), (3, 0, 4, 1)):
        wa = weighted(n_h, zeros_a, nx=3, ny=3)
        wb = weighted(n_hp, zeros_b, nx=int(rng.integers(2, 4)), ny=3)
        for order in (1.0, 2.0):
            yield wa, wb, order
    for (nx, ny, support), n_h, n_hp, zeros_b in (
            ((1, 3, None), 3, 4, 0), ((2, 3, 3), 4, 4, 0),
            ((3, 3, 3), 2, 3, 1), ((2, 2, 3), 3, 3, 0)):
        wa = weighted(n_h, nx=nx, ny=ny, eta_support=support)
        wb = weighted(n_hp, zeros_b, nx=nx, ny=ny, eta_support=support)
        yield wa, wb, 2.0


# (value, len(trace)) of each case above, from the solver that took every
# transport step by LP
_FROZEN_TRAJECTORIES = [
    (0.5661248373549022, 47),
    (0.5729150662495749, 40),
    (0.5994639827848971, 16),
    (0.6469074377797025, 17),
    (0.613109832281207, 24),
    (0.6190170162321658, 23),
    (0.6834936218887332, 13),
    (0.7130016569143852, 13),
    (0.4107072445507607, 11),
    (0.4151989645627413, 11),
    (0.5114602354114188, 43),
    (0.5184391416503031, 40),
    (0.4493684313038245, 18),
    (0.341861278554816, 18),
    (0.9022322256333289, 6),
    (0.6121749336421132, 38),
]


def test_vertex_steps_keep_frozen_trajectories():
    cases = list(_frozen_trajectory_cases())
    assert len(cases) == len(_FROZEN_TRAJECTORIES)
    for (wa, wb, order), (value, steps) in zip(cases, _FROZEN_TRAJECTORIES):
        trace: list[float] = []
        result = rs.lp_risk_distance(wa, wb, p=order, trace=trace)
        assert len(trace) == steps
        assert abs(result.value - value) <= 1e-12


def _large_step_cases():
    """Seeded pairs, each with an order, whose alternating descent takes
    tree-simplex steps: 3x3 grids (an 81-cell observation polytope) with
    predictor polytopes of 9 to 16 supported cells, some through zero
    weights, at p = 1 and 2; then the weighted encodings of two pairs of
    metric spaces of 4 to 6 points, as ``bilinear_gw`` takes them."""
    rng = np.random.default_rng(73)
    for n_h, zeros_a, n_hp, zeros_b in ((3, 0, 3, 0), (4, 0, 3, 0), (4, 1, 4, 0),
                                        (5, 2, 4, 1), (5, 1, 4, 0)):
        wa = _zeroed_weighted(rng, n_h, zeros_a, nx=3, ny=3)
        wb = _zeroed_weighted(rng, n_hp, zeros_b, nx=3, ny=3)
        for order in (1.0, 2.0):
            yield wa, wb, order
    for na, nb in ((4, 5), (6, 5)):
        (da, mua), (db, mub) = _space(rng, na), _space(rng, nb)
        yield (rs.encode_mm_space_weighted([f"a{i}" for i in range(na)], da, mua),
               rs.encode_mm_space_weighted([f"b{i}" for i in range(nb)], db, mub),
               1.0)


# (value, len(trace)) of each case above, from the solver that took every
# large transport step by LP
_FROZEN_LARGE_STEP_TRAJECTORIES = [
    (0.38215238950270425, 50),
    (0.40973309282099646, 51),
    (0.41130728753472734, 23),
    (0.4160024705342561, 22),
    (0.4108749154432504, 27),
    (0.4518306114497147, 25),
    (0.4743836645020591, 43),
    (0.4845206968254502, 40),
    (0.3722244881560985, 31),
    (0.3713993306479338, 29),
    (0.3949871855358318, 25),
    (0.35105734441872927, 23),
]


def test_large_steps_keep_frozen_trajectories():
    cases = list(_large_step_cases())
    assert len(cases) == len(_FROZEN_LARGE_STEP_TRAJECTORIES)
    for (wa, wb, order), (value, steps) in zip(cases, _FROZEN_LARGE_STEP_TRAJECTORIES):
        trace: list[float] = []
        result = rs.lp_risk_distance(wa, wb, p=order, trace=trace)
        assert len(trace) == steps
        assert abs(result.value - value) <= 1e-12


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


def test_geodesic_labels_with_separators_stay_distinct():
    # joined unescaped, x|y with z and x with y|z would both be x|y|z
    rng = np.random.default_rng(65)
    p0, p1 = _tiny_pair(rng)
    p0 = replace(p0, x_labels=("x|y", "x"))
    p1 = replace(p1, x_labels=("z", "y|z"))
    mid = rs.geodesic_problem(p0, p1, rs.risk_distance_exact(p0, p1), 0.5)
    assert mid.x_labels == ("x\\|y|z", "x\\|y|y\\|z", "x|z", "x|y\\|z")


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


def test_weak_iso_zero_test_is_relative_to_the_losses():
    # at losses x1e-12 a distance of 0.1 units is still no zero, and a
    # singleton coarsening is still at distance zero
    rng = np.random.default_rng(65)
    p, q = random_problem(rng, n_h=2), random_problem(rng, n_h=2)
    coarse = rs.coarsen(p, rs.singleton_partition(p.ny))
    assert rs.risk_distance_exact(p, q).value > 0.1
    k = 1e-12
    assert rs.weak_isomorphism_witness(scaled(p, k), scaled(q, k)) is None
    assert rs.weak_isomorphism_witness(scaled(p, k), scaled(coarse, k)) is not None


def test_weak_iso_none_for_distinct_bayes_risks():
    p = identity_support_problem()
    bullet = rs.one_point_problem(1.0)
    assert rs.weak_isomorphism_witness(p, bullet) is None
