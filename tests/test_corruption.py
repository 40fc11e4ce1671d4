"""Corruption transforms, their certificates, and pipeline composition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import riskspace as rs
from gen import (
    identity_support_problem,
    kernel_transport_oracle,
    random_problem,
    random_weighted,
    scaled,
    shared_pairs,
)


# --------------------------------------------------------------------------
# Sampling bias
# --------------------------------------------------------------------------

def test_bias_density_identity_zero_bound():
    rng = np.random.default_rng(71)
    p = random_problem(rng)
    biased, bound = rs.apply_bias_density(p, np.ones_like(p.eta))
    assert bound == 0.0
    assert np.array_equal(biased.eta, p.eta)


def test_bias_density_restriction_formula():
    p = identity_support_problem()
    # keep only the (x0, y0) cell, eta(A) = 0.5... use 0.8 via a 2-cell region
    eta = np.array([[0.6, 0.2], [0.1, 0.1]])
    p = rs.FiniteProblem(p.x_labels, p.y_labels, eta, p.loss, p.predictors)
    mask = np.array([[True, True], [False, False]])
    f = mask / eta[mask].sum()
    biased, bound = rs.apply_bias_density(p, f)
    assert bound == pytest.approx(1 - 0.8, abs=1e-12)
    restricted, bound_r = rs.restrict(p, mask)
    assert bound_r == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(biased.eta, restricted.eta, atol=1e-12)


def test_bias_density_bound_dominates_exact_distance():
    rng = np.random.default_rng(72)
    for _ in range(8):
        p = random_problem(rng)
        f = rng.random(p.eta.shape) + 0.2
        f = f / float(np.sum(f * p.eta))
        biased, bound = rs.apply_bias_density(p, f)
        exact = rs.risk_distance_exact(p, biased).value
        assert exact <= bound + 1e-9


def test_bias_density_rejects_non_density():
    rng = np.random.default_rng(73)
    p = random_problem(rng)
    with pytest.raises(rs.ValidationError):
        rs.apply_bias_density(p, np.full(p.eta.shape, 2.0))


def test_restrict_full_space_zero_bound():
    rng = np.random.default_rng(74)
    p = random_problem(rng)
    restricted, bound = rs.restrict(p, np.ones(p.eta.shape, dtype=bool))
    # limited by the 1e-12 tolerance on eta's total mass
    assert bound <= 1e-12
    assert np.allclose(restricted.eta, p.eta, atol=1e-15)


def test_restrict_half_mass():
    p = identity_support_problem()
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    restricted, bound = rs.restrict(p, mask)
    assert bound == pytest.approx(0.5, abs=1e-12)
    assert restricted.eta[0, 0] == 1.0


@pytest.mark.parametrize("mask, field", [
    ([[0.5, 1], [0, 0]], "A[0][0]"),
    ([[1, np.nan], [0, 0]], "A[0][1]"),
    ([[True, False], [2, False]], "A[1][0]"),
])
def test_restrict_mask_is_refused_not_cast(mask, field):
    with pytest.raises(rs.ValidationError) as err:
        rs.restrict(identity_support_problem(), mask)
    assert err.value.field == field


def test_restrict_bound_dominates_exact():
    rng = np.random.default_rng(75)
    for _ in range(8):
        p = random_problem(rng)
        mask = rng.random(p.eta.shape) < 0.7
        if not p.eta[mask].sum() > 0:
            mask[np.unravel_index(np.argmax(p.eta), p.eta.shape)] = True
        restricted, bound = rs.restrict(p, mask)
        assert rs.risk_distance_exact(p, restricted).value <= bound + 1e-9


def test_bias_and_restrict_certify_losses_above_one():
    # a loss of 4 moves each risk by 4 times the total variation, so the
    # total variation alone (0.5) would undercut the exact distance
    p = rs.FiniteProblem(("x",), ("y0", "y1"), np.array([[0.5, 0.5]]),
                         np.array([[0.0, 4.0], [4.0, 0.0]]), [[0]])
    for moved, bound in (rs.restrict(p, [[True, False]]),
                         rs.apply_bias_density(p, [[2.0, 0.0]])):
        assert rs.risk_distance_exact(p, moved).value == pytest.approx(2.0, abs=1e-9)
        assert bound == pytest.approx(2.0, abs=1e-12)


def test_restrict_zero_mass_rejected():
    p = identity_support_problem()
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    with pytest.raises(rs.ValidationError):
        rs.restrict(p, mask)


# --------------------------------------------------------------------------
# Joint-law bounds
# --------------------------------------------------------------------------

def _eta_variant(rng, p):
    eta = rng.random(p.eta.shape)
    eta /= eta.sum()
    return rs.FiniteProblem(p.x_labels, p.y_labels, eta, p.loss, p.predictors)


def test_tv_bound_same_law_zero():
    rng = np.random.default_rng(76)
    p = random_problem(rng)
    assert rs.tv_bound(p, p, float(p.loss.max())) == 0.0


def test_tv_bound_point_masses():
    loss = np.array([[0.0, 1.0], [1.0, 0.0]])
    preds = np.array([[0, 0]])
    a = rs.FiniteProblem(("x0", "x1"), ("u", "v"),
                         np.array([[1.0, 0.0], [0.0, 0.0]]), loss, preds)
    b = rs.FiniteProblem(("x0", "x1"), ("u", "v"),
                         np.array([[0.0, 0.0], [0.0, 1.0]]), loss, preds)
    assert rs.tv_bound(a, b, 1.0) == 1.0


def test_tv_bound_rejects_small_ell_max():
    rng = np.random.default_rng(77)
    p = random_problem(rng)
    with pytest.raises(rs.ValidationError):
        rs.tv_bound(p, p, float(p.loss.max()) - 0.1)


def test_s_metric_single_predictor_01_loss():
    p = rs.FiniteProblem(("x0", "x1"), ("u", "v"),
                         np.array([[0.25, 0.25], [0.25, 0.25]]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array([[0, 1]]))
    s = rs.s_metric(p)
    table = p.predictor_loss(0).ravel()
    expected = np.abs(table[:, None] - table[None, :])
    assert np.array_equal(s, expected)


def test_s_metric_is_pseudometric():
    rng = np.random.default_rng(78)
    for _ in range(10):
        p = random_problem(rng)
        s = rs.s_metric(p)
        assert np.allclose(s, s.T)
        assert np.all(np.diag(s) == 0.0)
        n = s.shape[0]
        slack = s[:, None, :] - (s[:, :, None] + s[None, :, :])
        assert slack.max() <= 1e-9


def test_s_metric_weighted_point_mass_matches_unweighted():
    rng = np.random.default_rng(79)
    p = random_problem(rng, n_h=1)
    wp = rs.WeightedProblem(problem=p, lam=np.array([1.0]))
    assert np.allclose(rs.s_metric_weighted(wp, 1.0), rs.s_metric(p), atol=1e-12)


def test_w1_eta_bound_same_law_zero():
    rng = np.random.default_rng(80)
    p = random_problem(rng)
    assert rs.w1_eta_bound(p, p) <= 1e-12


def test_w1_eta_bound_below_tv_bound():
    rng = np.random.default_rng(81)
    for _ in range(10):
        p = random_problem(rng)
        q = _eta_variant(rng, p)
        assert rs.w1_eta_bound(p, q) <= rs.tv_bound(p, q, float(p.loss.max())) + 1e-9


@settings(max_examples=40, deadline=None)
@given(pair=shared_pairs("shared_all_but_eta"))
def test_w1_eta_bound_below_tv_bound_property(pair):
    p, q = pair
    assert rs.w1_eta_bound(p, q) <= rs.tv_bound(p, q, float(p.loss.max())) + 1e-9


def test_w1_eta_bound_dominates_exact():
    rng = np.random.default_rng(82)
    for _ in range(8):
        p = random_problem(rng)
        q = _eta_variant(rng, p)
        assert rs.risk_distance_exact(p, q).value <= rs.w1_eta_bound(p, q) + 1e-9


# --------------------------------------------------------------------------
# Label noise
# --------------------------------------------------------------------------

def test_no_noise_kernel_is_identity():
    rng = np.random.default_rng(83)
    for _ in range(5):
        p = random_problem(rng)
        noised = rs.apply_label_noise(p, rs.no_noise_kernel(p))
        assert np.array_equal(noised.eta, p.eta)


def _epsilon_mixing_kernel(p: rs.FiniteProblem, eps) -> np.ndarray:
    """Binary-label kernel: keep the label w.p. 1-eps, redraw uniformly w.p. eps.

    ``eps`` may be a scalar or a per-input vector.
    """
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (p.nx,))
    kernel = np.zeros((p.nx * p.ny, p.ny))
    for x in range(p.nx):
        for y in range(p.ny):
            row = np.full(p.ny, eps[x] / p.ny)
            row[y] += 1.0 - eps[x]
            kernel[x * p.ny + y] = row
    return kernel


def test_epsilon_mixing_composition():
    p = identity_support_problem()
    eps = 0.2
    noised = rs.apply_label_noise(p, _epsilon_mixing_kernel(p, eps))
    # per-row mass flip: each diagonal cell keeps (1 - eps/2) of its mass
    expected = np.array([[0.5 * (1 - eps / 2), 0.5 * eps / 2],
                         [0.5 * eps / 2, 0.5 * (1 - eps / 2)]])
    assert np.allclose(noised.eta, expected, atol=1e-12)


def test_deterministic_relabeling_kernel_pushforward():
    rng = np.random.default_rng(84)
    p = random_problem(rng, ny=2)
    swap = np.array([1, 0])
    kernel = np.zeros((p.nx * p.ny, p.ny))
    for x in range(p.nx):
        for y in range(p.ny):
            kernel[x * p.ny + y, swap[y]] = 1.0
    noised = rs.apply_label_noise(p, kernel)
    assert np.allclose(noised.eta, p.eta[:, swap], atol=1e-15)


def test_noise_bound_no_noise_zero():
    rng = np.random.default_rng(85)
    p = random_problem(rng, ny=2)
    zero_one = (p.loss > 0).astype(float)
    d_y = 1.0 - np.eye(p.ny)
    bound = rs.noise_bound_metric(p, rs.no_noise_kernel(p), d_y,
                                  float(p.loss.max()))
    assert bound == 0.0


def test_noise_bound_epsilon_over_two():
    p = identity_support_problem()
    d_y = np.array([[0.0, 1.0], [1.0, 0.0]])
    for eps in (0.05, 0.2, 0.5):
        kernel = _epsilon_mixing_kernel(p, eps)
        bound = rs.noise_bound_metric(p, kernel, d_y, 1.0)
        assert bound == pytest.approx(eps / 2, abs=1e-12)
        noised = rs.apply_label_noise(p, kernel)
        assert rs.risk_distance_exact(p, noised).value <= bound + 1e-9


def test_noise_bound_epsilon_mixing_binary():
    # one input, so the kernel's rows are the observed labels; mixing redraws
    # the label uniformly with probability eps, whatever the law of the labels
    d_y = 1.0 - np.eye(2)
    for eps in (0.05, 0.2, 0.5):
        mixed = eps * np.full((2, 2), 0.5) + (1 - eps) * np.eye(2)
        for law in ([0.3, 0.7], [0.5, 0.5]):
            p = rs.FiniteProblem(("x0",), ("y0", "y1"), [law], d_y, [[0], [1]])
            assert rs.noise_bound_metric(p, mixed, d_y, 1.0) == pytest.approx(
                eps / 2, abs=1e-12
            )


def test_noise_bound_x_dependent_epsilon():
    p = identity_support_problem()
    d_y = np.array([[0.0, 1.0], [1.0, 0.0]])
    eps = np.array([0.1, 0.4])
    kernel = _epsilon_mixing_kernel(p, eps)
    alpha = p.eta.sum(axis=1)
    expected = 0.5 * float(alpha @ eps)
    assert rs.noise_bound_metric(p, kernel, d_y, 1.0) == pytest.approx(
        expected, abs=1e-12
    )


def test_noise_bound_refuses_bad_lipschitz_constant():
    p = identity_support_problem()
    d_y = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(rs.ValidationError, match="Lipschitz"):
        rs.noise_bound_metric(p, rs.no_noise_kernel(p), d_y, 0.5)


@pytest.mark.parametrize("k", [1e-12, 1.0, 1e12])
def test_noise_bound_lipschitz_check_is_relative_to_the_losses(k):
    # losses and label distances in one unit: C = 1/2 is refused and C = 1
    # accepted in every unit
    p = scaled(identity_support_problem(), k)
    d_y = k * (1.0 - np.eye(2))
    with pytest.raises(rs.ValidationError, match="Lipschitz"):
        rs.noise_bound_metric(p, rs.no_noise_kernel(p), d_y, 0.5)
    assert rs.noise_bound_metric(p, rs.no_noise_kernel(p), d_y, 1.0) == 0.0


@pytest.mark.parametrize("lipschitz_c, d_y, field", [
    (np.nan, [[0.0, 1.0], [1.0, 0.0]], "lipschitz_c"),
    (np.inf, [[0.0, 1.0], [1.0, 0.0]], "lipschitz_c"),
    (-1.0, [[0.0, 1.0], [1.0, 0.0]], "lipschitz_c"),
    (1.0, [[0.0, np.nan], [1.0, 0.0]], "d_y[0][1]"),
])
def test_noise_bound_refuses_non_finite_parameters(lipschitz_c, d_y, field):
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError) as err:
        rs.noise_bound_metric(p, rs.no_noise_kernel(p), d_y, lipschitz_c)
    assert err.value.field == field


# --------------------------------------------------------------------------
# General joint-space noise
# --------------------------------------------------------------------------

def test_general_noise_identity_zero_bound():
    rng = np.random.default_rng(86)
    wp = random_weighted(rng)
    n = wp.problem.nx * wp.problem.ny
    noised, bound = rs.apply_general_noise(wp, np.eye(n))
    assert bound == 0.0
    assert np.array_equal(noised.problem.eta, wp.problem.eta)


def test_general_noise_constant_kernel_formula():
    rng = np.random.default_rng(87)
    wp = random_weighted(rng)
    p = wp.problem
    n = p.nx * p.ny
    target = rng.random(n) + 0.05
    target /= target.sum()
    kernel = np.tile(target, (n, 1))
    noised, bound = rs.apply_general_noise(wp, kernel)
    assert np.allclose(noised.problem.eta.ravel(), target, atol=1e-12)
    ground = rs.s_metric_weighted(wp, 1.0)
    expected = sum(
        float(p.eta.ravel()[i])
        * rs.solve_ot_exact(ground, np.eye(n)[i], target)[1]
        for i in range(n)
    )
    assert bound == pytest.approx(expected, abs=1e-9)


def test_general_noise_bound_dominates_alternating_value():
    rng = np.random.default_rng(88)
    for _ in range(5):
        wp = random_weighted(rng, max_nx=2, max_ny=2)
        n = wp.problem.nx * wp.problem.ny
        kernel = rng.dirichlet(np.ones(n), size=n)
        noised, bound = rs.apply_general_noise(wp, kernel)
        value = rs.lp_risk_distance(wp, noised, p=1.0).value
        assert value <= bound + 1e-9


@st.composite
def _noise_instances(draw):
    """A weighted problem of at most a 2x3 grid whose joint law may leave
    states without mass, a label-noise kernel, an asymmetric label cost
    the loss is 1-Lipschitz in (the largest loss gap plus a nonnegative
    asymmetric excess), a joint-space kernel and an order p."""
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 3))

    def weights(shape):
        """Integer weights 0-4 of positive total."""
        return draw(arrays(np.int64, shape, elements=st.integers(0, 4))
                    .filter(lambda w: w.sum() > 0)).astype(float)

    def kernel(n_rows, n_cols):
        rows = np.array([weights(n_cols) for _ in range(n_rows)])
        return rows / rows.sum(axis=1, keepdims=True)

    eta = weights((nx, ny))
    loss = draw(arrays(float, (ny, ny), elements=st.floats(0, 5)))
    predictors = draw(arrays(np.int64, (draw(st.integers(1, 3)), nx),
                             elements=st.integers(0, ny - 1)))
    lam = weights(len(predictors))
    p = rs.FiniteProblem(tuple(f"x{i}" for i in range(nx)),
                         tuple(f"y{j}" for j in range(ny)), eta / eta.sum(),
                         loss, predictors)
    excess = draw(arrays(float, (ny, ny), elements=st.floats(0, 2)))
    d_y = np.abs(loss[:, :, None] - loss[:, None, :]).max(axis=0) + excess
    return (rs.WeightedProblem(p, lam / lam.sum()), kernel(nx * ny, ny), d_y,
            kernel(nx * ny, nx * ny), draw(st.sampled_from([1.0, 2.0])))


@settings(max_examples=60, deadline=None)
@given(_noise_instances())
def test_noise_certificates_match_per_state_transport(instance):
    wp, label_kernel, d_y, joint_kernel, p = instance
    problem, eta = wp.problem, wp.problem.eta.ravel()
    label = rs.noise_bound_metric(problem, label_kernel, d_y, 1.0)
    assert label == pytest.approx(kernel_transport_oracle(
        label_kernel, rs.no_noise_kernel(problem), eta, d_y), abs=1e-12)
    _, joint = rs.apply_general_noise(wp, joint_kernel, p)
    n = problem.nx * problem.ny
    assert joint == pytest.approx(kernel_transport_oracle(
        np.eye(n), joint_kernel, eta, rs.s_metric_weighted(wp, p)), abs=1e-12)


# --------------------------------------------------------------------------
# Predictor-set substitution
# --------------------------------------------------------------------------

def test_predictor_bound_same_set_zero():
    rng = np.random.default_rng(89)
    p = random_problem(rng)
    _, bound = rs.predictor_set_bound(p, p.predictors)
    assert bound == 0.0


def test_predictor_bound_duplicates_zero():
    rng = np.random.default_rng(90)
    p = random_problem(rng)
    doubled = np.vstack([p.predictors, p.predictors])
    _, bound = rs.predictor_set_bound(p, doubled)
    assert bound == 0.0


def test_predictor_bound_dropping_one():
    rng = np.random.default_rng(91)
    p = random_problem(rng, n_h=3)
    kept = p.predictors[:2]
    _, bound = rs.predictor_set_bound(p, kept)
    metric = rs.predictor_pseudometric(p)
    expected = max(
        min(metric[h, k] for k in range(2)) for h in range(p.n_predictors)
    )
    assert bound == pytest.approx(expected, abs=1e-12)


def test_predictor_bound_dominates_exact():
    rng = np.random.default_rng(92)
    for _ in range(8):
        p = random_problem(rng)
        preds = rng.integers(0, p.ny, size=(int(rng.integers(1, 4)), p.nx))
        swapped, bound = rs.predictor_set_bound(p, preds)
        assert rs.risk_distance_exact(p, swapped).value <= bound + 1e-9


def test_predictor_bound_empty_rejected():
    rng = np.random.default_rng(93)
    p = random_problem(rng)
    with pytest.raises(rs.ValidationError):
        rs.predictor_set_bound(p, np.zeros((0, p.nx), dtype=int))


def test_predictor_swap_rejects_fractional_indices():
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError) as err:
        rs.run_pipeline(p, [{"kind": "predictor_swap", "predictors": [[0, 0.5]]}])
    assert err.value.field == "predictors[0][1]"

# --------------------------------------------------------------------------
# Pipelines
# --------------------------------------------------------------------------

def test_pipeline_bias_then_label_noise_ledger():
    p = identity_support_problem()
    eta = np.array([[0.6, 0.2], [0.1, 0.1]])
    p = rs.FiniteProblem(p.x_labels, p.y_labels, eta, p.loss, p.predictors)
    mask = np.array([[True, True], [False, False]])
    f = (mask / eta[mask].sum()).tolist()
    eps = 0.1
    stages = [
        {"kind": "bias_density", "f": f},
        {
            "kind": "label_noise",
            "kernel": _epsilon_mixing_kernel(p, eps).tolist(),
            "d_y": [[0.0, 1.0], [1.0, 0.0]],
            "lipschitz_c": 1.0,
        },
    ]
    final, records = rs.run_pipeline(p, stages)
    assert [r.kind for r in records] == ["bias_density", "label_noise"]
    assert records[0].bound == pytest.approx(0.2, abs=1e-12)
    assert records[1].bound == pytest.approx(0.05, abs=1e-12)
    total = sum(r.bound for r in records)
    assert total == pytest.approx(0.25, abs=1e-12)
    assert rs.risk_distance_exact(p, final).value <= total + 1e-9


def test_pipeline_chained_bounds_dominate_endpoint_distance():
    rng = np.random.default_rng(94)
    for _ in range(5):
        p = random_problem(rng)
        f = rng.random(p.eta.shape) + 0.3
        f /= float(np.sum(f * p.eta))
        stages = [
            {"kind": "bias_density", "f": f.tolist()},
            {"kind": "loss_swap",
             "loss": (p.loss + rng.uniform(0, 0.3, p.loss.shape)).tolist()},
            {"kind": "predictor_swap",
             "predictors": rng.integers(0, p.ny, size=(2, p.nx)).tolist()},
        ]
        final, records = rs.run_pipeline(p, stages)
        total = sum(r.bound for r in records)
        assert rs.risk_distance_exact(p, final).value <= total + 1e-9


def test_pipeline_unknown_kind_rejected():
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError, match="unknown kind"):
        rs.run_pipeline(p, [{"kind": "transmogrify"}])


@pytest.mark.parametrize("stages", [None, 5, {"kind": "restrict"}])
def test_pipeline_stages_must_be_a_list(stages):
    with pytest.raises(rs.ValidationError) as err:
        rs.run_pipeline(identity_support_problem(), stages)
    assert err.value.field == "stages"


def test_pipeline_missing_parameter_named():
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError) as err:
        rs.run_pipeline(p, [{"kind": "bias_density"}])
    assert "stages[0]" in str(err.value)


_RAGGED = [[0.5, 0.5], [1.0]]
_NO_NOISE = np.tile(np.eye(2), (2, 1)).tolist()


@pytest.mark.parametrize("stage, field", [
    ({"kind": "label_noise", "kernel": _NO_NOISE, "lipschitz_c": "x"}, "lipschitz_c"),
    ({"kind": "label_noise", "kernel": _NO_NOISE, "lipschitz_c": True}, "lipschitz_c"),
    ({"kind": "label_noise", "kernel": _NO_NOISE, "lipschitz_c": None}, "lipschitz_c"),
    ({"kind": "bias_density", "f": _RAGGED}, "f"),
    ({"kind": "bias_density", "f": [["1", "1"], ["1", "1"]]}, "f"),
    ({"kind": "restrict", "A": _RAGGED}, "A"),
    ({"kind": "label_noise", "kernel": _RAGGED}, "kernel"),
    ({"kind": "label_noise", "kernel": [[1.0, 0.0]] * 3 + [[0.5, 0.6]]}, "kernel[3]"),
    ({"kind": "label_noise", "kernel": _NO_NOISE, "d_y": _RAGGED}, "d_y"),
    ({"kind": "loss_swap", "loss": _RAGGED}, "loss"),
    ({"kind": "general_noise", "kernel": _RAGGED}, "kernel"),
    ({"kind": "general_noise", "kernel": np.eye(4).tolist(), "p": "2"}, "p"),
    ({"kind": "label_noise", "kernel": _NO_NOISE[:3]}, "kernel"),
    ({"kind": "general_noise", "kernel": np.eye(3).tolist()}, "kernel"),
    # keys the kind does not take; misspelled, these certified with their
    # defaults (C = 1, d_y = loss > 0)
    ({"kind": "label_noise", "kernel": _NO_NOISE, "lipschitz": 0.5,
      "dy": [[0.0, 2.0], [2.0, 0.0]]}, "stages[0].lipschitz"),
    ({"kind": "restrict", "A": [[1, 1], [1, 1]], "f": [[1, 1], [1, 1]]}, "stages[0].f"),
    ({"kind": "general_noise", "kernel": np.eye(4).tolist(), "lambda": [0.25] * 4},
     "stages[0].lambda"),
])
def test_pipeline_refuses_bad_stage_parameters(stage, field):
    # _NO_NOISE is the label-noise identity of this two-input, two-label problem
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError) as err:
        rs.run_pipeline(p, [stage], lam=np.full(p.n_predictors, 1 / p.n_predictors))
    assert err.value.field == field


def test_pipeline_solves_no_transport(monkeypatch):
    # every stage kind certifies in closed form; only the CLI's eta-w1 bound
    # solves a transport problem
    def refuse(*args):
        raise AssertionError("solve_ot_exact called")

    monkeypatch.setattr(rs.transport, "solve_ot_exact", refuse)
    monkeypatch.setattr(rs.corruption, "solve_ot_exact", refuse)
    p = identity_support_problem()
    stages = [
        {"kind": "bias_density", "f": np.ones((2, 2)).tolist()},
        {"kind": "restrict", "A": [[1, 1], [1, 1]]},
        {"kind": "label_noise", "kernel": _epsilon_mixing_kernel(p, 0.2).tolist(),
         "d_y": [[0.0, 1.0], [1.0, 0.0]], "lipschitz_c": 1.0},
        {"kind": "general_noise", "kernel": np.full((4, 4), 0.25).tolist(), "p": 2.0},
        {"kind": "loss_swap", "loss": [[0.0, 0.5], [0.5, 0.0]]},
        {"kind": "predictor_swap", "predictors": [[0, 1]]},
    ]
    _, records = rs.run_pipeline(p, stages, lam=np.full(4, 0.25))
    assert [r.kind for r in records] == [stage["kind"] for stage in stages]
    assert records[2].bound == pytest.approx(0.1, abs=1e-12)


def test_noise_operations_name_a_misshapen_kernel():
    # the certificate compares against an internal no-noise kernel; a shape
    # mismatch is the caller's kernel's fault, never that one's
    p = identity_support_problem()
    d_y = 1.0 - np.eye(2)
    for call in (lambda: rs.apply_label_noise(p, _NO_NOISE[:3]),
                 lambda: rs.noise_bound_metric(p, _NO_NOISE[:3], d_y, 1.0),
                 lambda: rs.noise_bound_metric(p, np.eye(4), d_y, 1.0),
                 lambda: rs.apply_general_noise(
                     rs.WeightedProblem(p, np.full(4, 0.25)), np.eye(3))):
        with pytest.raises(rs.ValidationError) as err:
            call()
        assert err.value.field == "kernel"


def test_pipeline_general_noise_needs_weights():
    p = identity_support_problem()
    kernel = np.eye(4).tolist()
    with pytest.raises(rs.ValidationError, match="lambda"):
        rs.run_pipeline(p, [{"kind": "general_noise", "kernel": kernel}])
    final, records = rs.run_pipeline(
        p, [{"kind": "general_noise", "kernel": kernel}],
        lam=np.full(4, 0.25),
    )
    assert records[0].bound == 0.0


# --------------------------------------------------------------------------
# Every certificate against the exact distance
# --------------------------------------------------------------------------

@st.composite
def _certified_moves(draw):
    """A problem of at most a 2x3 grid, 3 predictors and losses up to 5,
    and each corruption or substitution of it with its certificate, as
    (name, moved problem, bound) triples."""
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(2, 3))

    def weights(shape, under=1.0):
        """Integer weights 0-4 of positive total under ``under``."""
        return draw(arrays(np.int64, shape, elements=st.integers(0, 4))
                    .filter(lambda w: np.sum(w * under) > 0)).astype(float)

    def eta():
        w = weights((nx, ny))
        return w / w.sum()

    def loss():
        return draw(arrays(float, (ny, ny), elements=st.floats(0, 5)))

    def predictors():
        return draw(arrays(np.int64, (draw(st.integers(1, 3)), nx),
                           elements=st.integers(0, ny - 1)))

    p = rs.FiniteProblem(tuple(f"x{i}" for i in range(nx)),
                         tuple(f"y{j}" for j in range(ny)), eta(), loss(), predictors())
    density = weights((nx, ny), under=p.eta)
    mask = weights((nx, ny), under=p.eta) > 0
    kernel = np.array([weights(ny) for _ in range(nx * ny)])
    kernel /= kernel.sum(axis=1, keepdims=True)
    # the largest loss gap between two labels: the loss is 1-Lipschitz in it
    d_y = np.abs(p.loss[:, :, None] - p.loss[:, None, :]).max(axis=0)
    block_of = np.array(draw(st.lists(st.integers(0, ny - 1), min_size=ny, max_size=ny)))
    q = rs.Partition([np.flatnonzero(block_of == k) for k in np.unique(block_of)], ny)
    new_loss, new_eta = replace(p, loss=loss()), replace(p, eta=eta())
    return p, [
        ("bias", *rs.apply_bias_density(p, density / np.sum(density * p.eta))),
        ("restrict", *rs.restrict(p, mask)),
        ("predictor_set", *rs.predictor_set_bound(p, predictors())),
        ("loss_swap", new_loss,
         rs.risk_distance_upper_shared(p, new_loss, "shared_eta_H")),
        ("label_noise", rs.apply_label_noise(p, kernel),
         rs.noise_bound_metric(p, kernel, d_y, 1.0)),
        ("w1_eta", new_eta, rs.w1_eta_bound(p, new_eta)),
        ("tv", new_eta, rs.tv_bound(p, new_eta, float(p.loss.max()))),
        ("coarsening", rs.coarsen(p, q), rs.coarsening_bound(p, q)),
    ]


@settings(max_examples=40, deadline=None)
@given(_certified_moves())
def test_every_certificate_dominates_exact(moves):
    p, certified = moves
    for name, moved, bound in certified:
        assert rs.risk_distance_exact(p, moved).value <= bound + 1e-9, name
