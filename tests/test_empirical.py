"""Empirical sampling, convergence reports, Rademacher complexity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riskspace as rs
from riskspace.distance import _pair_costs
from riskspace.empirical import _exhaustive_rademacher
from gen import (
    identity_support_problem,
    rademacher_example_problem,
    rademacher_tuple_oracle,
    random_problem,
    scaled,
)


def _four_atom_problem() -> rs.FiniteProblem:
    return rs.FiniteProblem(
        ("x0", "x1"), ("y0", "y1"),
        np.array([[0.4, 0.1], [0.2, 0.3]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1], [0, 0], [1, 1]]),
    )


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

def test_sample_single_observation_is_point_mass():
    p = _four_atom_problem()
    emp = rs.sample_empirical(p, 1, seed=3)
    assert sorted(emp.eta.ravel().tolist()) == [0.0, 0.0, 0.0, 1.0]


def test_sample_same_seed_bit_identical():
    p = _four_atom_problem()
    a = rs.sample_empirical(p, 500, seed=11)
    b = rs.sample_empirical(p, 500, seed=11)
    assert np.array_equal(a.eta, b.eta)
    c = rs.sample_empirical(p, 500, seed=12)
    assert not np.array_equal(a.eta, c.eta)


def test_sample_large_n_frozen_regression():
    p = _four_atom_problem()
    emp = rs.sample_empirical(p, 100_000, seed=42)
    tv = rs.total_variation(p.eta.ravel(), emp.eta.ravel())
    assert tv == pytest.approx(0.00257, abs=1e-12)
    assert tv < 0.02


def test_sample_preserves_everything_but_eta():
    p = _four_atom_problem()
    emp = rs.sample_empirical(p, 50, seed=0)
    assert emp.x_labels == p.x_labels
    assert np.array_equal(emp.loss, p.loss)
    assert np.array_equal(emp.predictors, p.predictors)


def test_sample_rejects_nonpositive_n():
    with pytest.raises(rs.ValidationError):
        rs.sample_empirical(_four_atom_problem(), 0, seed=0)


_SEEDED = {
    "sample_empirical": lambda p, seed: rs.sample_empirical(p, 5, seed),
    "rademacher_mc": lambda p, seed: rs.rademacher_mc(p, 1, 10, seed),
    "convergence_experiment": lambda p, seed: rs.convergence_experiment(
        p, [5], trials=1, seed=seed),
    "lp_risk_distance": lambda p, seed: rs.lp_risk_distance(
        rs.WeightedProblem(p, [0.2, 0.3, 0.5]),
        rs.WeightedProblem(p, [0.5, 0.5, 0.0]), seed=seed),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3"])
def test_seeded_calls_refuse_bad_seeds(name, seed):
    with pytest.raises(rs.ValidationError) as err:
        _SEEDED[name](_four_atom_problem(), seed)
    assert err.value.field == "seed"


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seeded_calls_take_numpy_integer_seeds(name):
    p = _four_atom_problem()
    a, b = _SEEDED[name](p, 7), _SEEDED[name](p, np.int64(7))
    assert repr(a) == repr(b)


def _weighted(p):
    return rs.WeightedProblem(p, [0.2, 0.3, 0.5])


def _graph(p):
    return rs.PredictorGraph(problem=p, edges=[[0, 1], [1, 2]])


# (field, smallest valid count, a valid count, call with the count in that field)
_COUNTED = {
    "sample-n": ("n", 1, 5, lambda p, k: rs.sample_empirical(p, k, 0)),
    "convergence-trials": ("trials", 1, 2, lambda p, k: rs.convergence_experiment(
        p, [5], trials=k, seed=0)),
    "mc-m": ("m", 1, 2, lambda p, k: rs.rademacher_mc(p, k, 10, 0)),
    "mc-num-samples": ("num_samples", 1, 10, lambda p, k: rs.rademacher_mc(p, 1, k, 0)),
    "exact-m": ("m", 1, 2, lambda p, k: rs.rademacher_exact_small(p, k)),
    "lp-restarts": ("restarts", 0, 2, lambda p, k: rs.lp_risk_distance(
        _weighted(p), _weighted(p), restarts=k)),
    "exact-cap-pairs": ("cap_pairs", 0, 12, lambda p, k: rs.risk_distance_exact(
        p, p, cap_pairs=k)),
    "exact-cap-support": ("cap_support", 0, 256, lambda p, k: rs.risk_distance_exact(
        p, p, cap_support=k)),
    "connected-cap-pairs": ("cap_pairs", 0, 9, lambda p, k:
                            rs.connected_risk_distance_exact(_graph(p), _graph(p),
                                                             cap_pairs=k)),
}


@pytest.mark.parametrize("name", sorted(_COUNTED))
@pytest.mark.parametrize("bad", ["below", 1.5, True, np.float64(2.0), "3", None])
def test_counts_refuse_non_integers(name, bad):
    """A fractional count would reach ``range`` or numpy as a bare TypeError,
    and ``True`` would pass as 1."""
    field, least, _, call = _COUNTED[name]
    with pytest.raises(rs.ValidationError) as err:
        call(_four_atom_problem(), least - 1 if bad == "below" else bad)
    assert err.value.field == field


@pytest.mark.parametrize("name", sorted(_COUNTED))
def test_counts_take_numpy_integers(name):
    _, _, count, call = _COUNTED[name]
    p = _four_atom_problem()
    assert repr(call(p, count)) == repr(call(p, np.int64(count)))


# --------------------------------------------------------------------------
# Convergence experiment
# --------------------------------------------------------------------------

@pytest.mark.parametrize("ns, field", [
    ([], "ns"),
    ([[5, 10]], "ns"),
    ([5, 2.5], "ns[1]"),
    ([True], "ns[0]"),
    (["5"], "ns"),
    ([10, -3], "n"),
    ([2**63], "ns[0]"),
    ([5, 2**64], "ns[1]"),
])
def test_convergence_refuses_bad_sizes(ns, field):
    with pytest.raises(rs.ValidationError) as err:
        rs.convergence_experiment(_four_atom_problem(), ns, trials=1, seed=0)
    assert err.value.field == field


@pytest.mark.parametrize("call", [
    lambda p, n: rs.sample_empirical(p, n, 0),
    lambda p, n: rs.convergence_experiment(p, [5, n], trials=1, seed=0),
])
@pytest.mark.parametrize("n", [rs.empirical.SAMPLE_CAPACITY + 1, 2**62, 2**63 - 1])
def test_sample_sizes_over_capacity_refused_before_drawing(monkeypatch, call, n):
    # a convergence experiment refuses every size before it resamples any
    drawn = []
    monkeypatch.setattr(rs.empirical, "tv_bound", lambda *args: drawn.append(args))
    with pytest.raises(rs.CapacityError) as err:
        call(_four_atom_problem(), n)
    assert (err.value.cap, err.value.actual, drawn) == ("sample", n, [])


def test_convergence_degenerate_law_all_zero():
    p = rs.FiniteProblem(("x",), ("a", "b"), np.array([[1.0, 0.0]]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array([[0], [1]]))
    report = rs.convergence_experiment(p, [5, 20], trials=3, seed=1)
    for row in report.rows:
        assert row.tv_bound == 0.0
        assert row.exact_distance == pytest.approx(0.0, abs=1e-9)


def test_convergence_medians_frozen_and_decreasing():
    report = rs.convergence_experiment(_four_atom_problem(), [10, 100, 1000],
                                       trials=5, seed=7)
    medians = {
        n: float(np.median([r.tv_bound for r in report.rows if r.n == n]))
        for n in (10, 100, 1000)
    }
    assert medians[10] == pytest.approx(0.2, abs=1e-12)
    assert medians[100] == pytest.approx(0.05, abs=1e-12)
    assert medians[1000] == pytest.approx(0.021, abs=1e-12)
    assert medians[10] > medians[100] > medians[1000]
    assert medians[1000] < 0.1


def test_convergence_exact_below_bound_per_row():
    report = rs.convergence_experiment(_four_atom_problem(), [10, 100],
                                       trials=4, seed=9)
    for row in report.rows:
        assert row.exact_distance is not None
        assert row.exact_distance <= row.tv_bound + 1e-9


def test_convergence_report_deterministic():
    p = _four_atom_problem()
    a = rs.convergence_experiment(p, [10, 50], trials=3, seed=21)
    b = rs.convergence_experiment(p, [10, 50], trials=3, seed=21)
    assert a == b
    assert a.prng == "numpy-PCG64"


def test_convergence_skips_exact_when_caps_too_small():
    report = rs.convergence_experiment(_four_atom_problem(), [10], trials=2,
                                       seed=2, cap_pairs=1)
    for row in report.rows:
        assert row.exact_distance is None


# (n, trial, tv_bound, exact_distance) of the four-atom problem at seed 3,
# frozen when the caps were still tested outside risk_distance_exact
_FROZEN_ROWS = [
    (10, 0, 0.10000000000000002, 0.1),
    (10, 1, 0.19999999999999996, 0.19999999999999998),
    (50, 0, 0.04000000000000003, 0.020000000000000018),
    (50, 1, 0.059999999999999984, 0.04000000000000001),
]


@pytest.mark.parametrize("caps, exact", [
    ({}, True),
    ({"cap_pairs": 9, "cap_support": 16}, True),  # |H|^2 = 9, (nx*ny)^2 = 16
    ({"cap_pairs": 8}, False),
    ({"cap_support": 15}, False),
])
def test_convergence_rows_at_the_caps(caps, exact):
    report = rs.convergence_experiment(_four_atom_problem(), [10, 50], trials=2,
                                       seed=3, **caps)
    rows = [(r.n, r.trial, r.tv_bound, r.exact_distance) for r in report.rows]
    assert rows == [(n, t, tv, d if exact else None) for n, t, tv, d in _FROZEN_ROWS]


# --------------------------------------------------------------------------
# Rademacher complexity
# --------------------------------------------------------------------------

def test_rademacher_mc_zero_loss_exactly_zero():
    p = rs.FiniteProblem(("x",), ("a", "b"), np.array([[0.5, 0.5]]),
                         np.zeros((2, 2)), np.array([[0], [1]]))
    estimate, se = rs.rademacher_mc(p, 2, 500, seed=4)
    assert estimate == 0.0
    assert se == 0.0


def test_rademacher_exact_example_values():
    for n in (2, 3, 4):
        value = rs.rademacher_exact_small(rademacher_example_problem(n), 1)
        assert value == pytest.approx(0.5, abs=1e-12)
    assert rs.rademacher_exact_small(rs.one_point_problem(0.0), 1) == 0.0


def test_rademacher_exact_m1_closed_form():
    rng = np.random.default_rng(120)
    for _ in range(10):
        p = random_problem(rng)
        tables = p.predictor_loss_stack()
        spread = tables.max(axis=0) - tables.min(axis=0)
        expected = 0.5 * float(np.sum(p.eta * spread))
        assert rs.rademacher_exact_small(p, 1) == pytest.approx(expected,
                                                                abs=1e-12)


def test_rademacher_single_constant_predictor_zero():
    p = rs.one_point_problem(2.0)
    for m in (1, 2, 3):
        assert rs.rademacher_exact_small(p, m) == pytest.approx(0.0, abs=1e-12)
    estimate, se = rs.rademacher_mc(p, 1, 2000, seed=8)
    assert abs(estimate) <= max(5 * se, 1e-12)


def test_rademacher_exact_nonnegative():
    rng = np.random.default_rng(121)
    for _ in range(10):
        p = random_problem(rng)
        assert rs.rademacher_exact_small(p, 2) >= -1e-12


def test_rademacher_mc_within_five_se_of_exact():
    rng = np.random.default_rng(122)
    for seed in (5, 6):
        p = random_problem(rng)
        for m in (1, 2):
            exact = rs.rademacher_exact_small(p, m)
            estimate, se = rs.rademacher_mc(p, m, 4000, seed=seed)
            assert abs(estimate - exact) <= max(5 * se, 1e-9)


@pytest.mark.parametrize("m, num_samples", [
    (1, rs.empirical.SAMPLE_CAPACITY + 1),
    (2, rs.empirical.SAMPLE_CAPACITY // 2 + 1),
    (2**62, 2),
    (1, 2**62),
])
def test_rademacher_mc_over_capacity_refused_before_drawing(monkeypatch, m, num_samples):
    seeded = []
    monkeypatch.setattr(rs.empirical, "_rng", seeded.append)
    with pytest.raises(rs.CapacityError) as err:
        rs.rademacher_mc(_four_atom_problem(), m, num_samples, seed=0)
    assert (err.value.cap, err.value.actual, seeded) == ("sample", m * num_samples, [])


def test_rademacher_capacity_error():
    p = _four_atom_problem()
    with pytest.raises(rs.CapacityError):
        rs.rademacher_exact_small(p, 12)


def _oracle_cases():
    """Eighteen seeded (values, weights, m) classes for m = 1..5: random
    classes with and without zero-weight atoms, single functions, and
    loss-gap classes over a witness coupling (which has zero cells)."""
    rng = np.random.default_rng(124)
    cases = []
    for m in range(1, 6):
        for n_f, atoms, zeros in ((3, 4, 0), (1, 3, 0), (2, 5, 2)):
            weights = rng.random(atoms)
            weights[rng.choice(atoms, size=zeros, replace=False)] = 0.0
            cases.append((rng.random((n_f, atoms)) * 2, weights / weights.sum(), m))
    for m in (1, 2, 3):
        p = random_problem(rng, nx=2, ny=2, n_h=2)
        q = random_problem(rng, nx=2, ny=2, n_h=2)
        result = rs.risk_distance_exact(p, q)
        gaps = _pair_costs(p, q)
        weights = result.witness_coupling.ravel()
        cases.append((gaps.reshape(-1, gaps.shape[-1]), weights, m))
    return cases


def test_exhaustive_rademacher_matches_tuple_oracle():
    cases = _oracle_cases()
    assert any((w == 0).any() for _, w, _ in cases)
    for values, weights, m in cases:
        assert _exhaustive_rademacher(values, weights, m) == pytest.approx(
            rademacher_tuple_oracle(values, weights, m), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), atoms=st.integers(1, 4), n_f=st.integers(1, 3),
       m=st.integers(1, 4))
def test_exhaustive_rademacher_permutation_invariant_and_nonnegative(
        data, atoms, n_f, m):
    row = st.lists(st.floats(-2.0, 2.0), min_size=atoms, max_size=atoms)
    values = np.array(data.draw(st.lists(row, min_size=n_f, max_size=n_f)))
    weights = np.array(data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=atoms, max_size=atoms)))
    weights[data.draw(st.integers(0, atoms - 1))] += 1.0  # some mass
    weights /= weights.sum()
    perm = np.array(data.draw(st.permutations(range(atoms))))
    value = _exhaustive_rademacher(values, weights, m)
    assert value >= -1e-12
    assert _exhaustive_rademacher(values[:, perm], weights[perm], m) == (
        pytest.approx(value, abs=1e-12))


def test_rademacher_capacity_boundary_unmoved():
    # 5 atoms: 5^6 * 2^6 is exactly RADEMACHER_CAPACITY, 5^7 * 2^7 is over it
    p = random_problem(np.random.default_rng(125), nx=1, ny=5, n_h=3)
    values = p.predictor_loss_stack().reshape(p.n_predictors, -1)
    assert rs.rademacher_exact_small(p, 6) == pytest.approx(
        rademacher_tuple_oracle(values, p.eta.ravel(), 6), abs=1e-12)
    with pytest.raises(rs.CapacityError) as err:
        rs.rademacher_exact_small(p, 7)
    assert err.value.actual == 5**7 * 2**7


def test_rademacher_mc_deterministic():
    p = _four_atom_problem()
    assert rs.rademacher_mc(p, 1, 100, seed=3) == rs.rademacher_mc(
        p, 1, 100, seed=3
    )


# --------------------------------------------------------------------------
# Rademacher gap bound
# --------------------------------------------------------------------------

def test_gap_bound_identity_witnesses():
    p = identity_support_problem()
    n = p.nx * p.ny
    gamma = np.zeros((n, n))
    np.fill_diagonal(gamma, p.eta.ravel())
    gamma = gamma.reshape(p.nx, p.ny, p.nx, p.ny)
    r = np.eye(p.n_predictors, dtype=bool)
    bound = rs.rademacher_gap_bound(p, p, r, gamma, m=1)
    assert bound >= 0.0  # left side is exactly zero here


def test_gap_bound_example_pair_nonvacuous():
    p4 = rademacher_example_problem(4)
    bullet = rs.one_point_problem(0.0)
    result = rs.risk_distance_exact(p4, bullet)
    bound = rs.rademacher_gap_bound(
        p4, bullet, result.witness_correspondence, result.witness_coupling, m=1
    )
    gap = abs(
        rs.rademacher_exact_small(p4, 1) - rs.rademacher_exact_small(bullet, 1)
    )
    assert gap == pytest.approx(0.5, abs=1e-12)
    assert gap <= bound + 1e-9
    # the coupled-gap complexity term contributes at least 0.125 here
    assert bound - result.value >= 2 * 0.125 - 1e-9


@pytest.mark.parametrize("k", [1e-12, 1.0])
def test_gap_bound_refuses_a_gap_over_its_certificate_in_any_loss_unit(k, monkeypatch):
    # a gap a millionth of the certificate over it is refused, however
    # small the losses are
    p4 = scaled(rademacher_example_problem(4), k)
    bullet = rs.one_point_problem(0.0)
    result = rs.risk_distance_exact(p4, bullet)
    args = (p4, bullet, result.witness_correspondence, result.witness_coupling)
    bound = rs.rademacher_gap_bound(*args, m=1)
    monkeypatch.setattr(rs.empirical, "rademacher_exact_small",
                        lambda problem, m: bound * (1 + 1e-6) if problem is p4 else 0.0)
    with pytest.raises(AssertionError, match="exceeds its certificate"):
        rs.rademacher_gap_bound(*args, m=1)


def test_gap_bound_random_tiny_pairs():
    rng = np.random.default_rng(123)
    for _ in range(5):
        a = random_problem(rng, nx=2, ny=2, n_h=2)
        b = random_problem(rng, nx=2, ny=2, n_h=2)
        result = rs.risk_distance_exact(a, b)
        bound = rs.rademacher_gap_bound(
            a, b, result.witness_correspondence, result.witness_coupling, m=1
        )
        gap = abs(
            rs.rademacher_exact_small(a, 1) - rs.rademacher_exact_small(b, 1)
        )
        assert gap <= bound + 1e-9
