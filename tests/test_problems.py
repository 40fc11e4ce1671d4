"""Problem container, risk functionals, coarsening, simulations, encodings."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import array_shapes, arrays

import riskspace as rs
from riskspace.errors import require
from gen import (
    brute_profile,
    brute_risk,
    identity_support_problem,
    rademacher_example_problem,
    random_partition,
    random_problem,
    random_weighted,
    scaled,
)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(ok=arrays(bool, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)))
def test_require_names_the_first_false_entry(ok):
    first = next((i for i in np.ndindex(ok.shape) if not ok[i]), None)
    if first is None:
        require(ok, "a", "must hold")
        return
    with pytest.raises(rs.ValidationError) as err:
        require(ok, "a", "must hold")
    field = "a" + "".join(f"[{i}]" for i in first)
    assert err.value.field == field
    assert str(err.value) == f"{field} must hold"


def test_require_refuses_nan_through_the_valid_condition():
    nan = float("nan")
    for ok in (nan >= 1, 0 <= nan < np.inf, np.array(nan) >= 0):
        with pytest.raises(rs.ValidationError) as err:
            require(ok, "p", "must be at least 1")
        assert err.value.field == "p"


def test_eta_must_sum_to_one():
    with pytest.raises(rs.ValidationError, match="eta"):
        rs.FiniteProblem(("x",), ("y",), np.array([[0.5]]), np.zeros((1, 1)),
                         np.array([[0]]))


def test_negative_loss_rejected_with_indexed_field():
    with pytest.raises(rs.ValidationError) as err:
        rs.FiniteProblem(("x",), ("a", "b"), np.array([[0.5, 0.5]]),
                         np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[0]]))
    assert err.value.field == "loss[0][1]"


def test_predictor_range_checked():
    with pytest.raises(rs.ValidationError, match="predictors"):
        rs.FiniteProblem(("x",), ("a", "b"), np.array([[0.5, 0.5]]),
                         np.zeros((2, 2)), np.array([[2]]))


@pytest.mark.parametrize("predictors, field", [
    ([[0.7, 1.9], [True, False]], "predictors[0][0]"),
    ([[0, True]], "predictors[0][1]"),
    (np.array([[True, False]]), "predictors[0][0]"),
    ([[0.0, np.nan]], "predictors[0][1]"),
    ([[0, 2**63]], "predictors[0][1]"),
    ([[1e30, 0]], "predictors[0][0]"),
    ([[0, 2**64]], "predictors[0][1]"),
    ([[2**64, 1.5]], "predictors[0][0]"),
    ([[1.5, 2**64]], "predictors[0][0]"),
])
def test_non_integer_predictors_rejected_not_cast(predictors, field):
    with pytest.raises(rs.ValidationError) as err:
        rs.FiniteProblem(("x0", "x1"), ("a", "b"), np.full((2, 2), 0.25),
                         np.zeros((2, 2)), predictors)
    assert err.value.field == field


@pytest.mark.parametrize("other, field", [
    ([[0.7, 1.9]], "predictors[0][0]"),
    ([[-1, 0]], "predictors[0][0]"),
])
def test_cross_predictor_pseudometric_rejects_bad_indices(other, field):
    with pytest.raises(rs.ValidationError) as err:
        rs.cross_predictor_pseudometric(identity_support_problem(), other)
    assert err.value.field == field


@pytest.mark.parametrize("labels", ["ab", 5])
@pytest.mark.parametrize("field", ["x_labels", "y_labels"])
def test_labels_must_be_a_list(labels, field):
    fields = {"x_labels": ("x0", "x1"), "y_labels": ("a", "b")}
    fields[field] = labels
    with pytest.raises(rs.ValidationError) as err:
        rs.FiniteProblem(eta=np.full((2, 2), 0.25), loss=np.zeros((2, 2)),
                         predictors=[[0, 1]], **fields)
    assert err.value.field == field


@pytest.mark.parametrize("labels, suffix", [
    ({"a": 1, "b": 2}, ""),
    ([["u"], None], "[0]"),
    (["a", None], "[1]"),
    ([True, "b"], "[0]"),
])
@pytest.mark.parametrize("field", ["x_labels", "y_labels"])
def test_labels_must_be_strings_or_numbers(labels, suffix, field):
    fields = {"x_labels": ("x0", "x1"), "y_labels": ("a", "b")}
    fields[field] = labels
    with pytest.raises(rs.ValidationError) as err:
        rs.FiniteProblem(eta=np.full((2, 2), 0.25), loss=np.zeros((2, 2)),
                         predictors=[[0, 1]], **fields)
    assert err.value.field == field + suffix


@pytest.mark.parametrize("labels, message", [((), "nonempty"), (("u", "u"), "duplicates")])
@pytest.mark.parametrize("field", ["x_labels", "y_labels"])
def test_labels_must_be_nonempty_and_distinct(labels, message, field):
    fields = {"x_labels": ("x0", "x1"), "y_labels": ("a", "b")}
    fields[field] = labels
    with pytest.raises(rs.ValidationError, match=message) as err:
        rs.FiniteProblem(eta=np.full((2, 2), 0.25), loss=np.zeros((2, 2)),
                         predictors=[[0, 1]], **fields)
    assert err.value.field == field


def test_equality_compares_values_and_declines_other_types():
    wp = random_weighted(np.random.default_rng(7), n_h=3)
    assert wp == rs.WeightedProblem(wp.problem, wp.lam.copy())
    assert wp != rs.WeightedProblem(wp.problem, wp.lam[::-1])
    assert wp != rs.WeightedProblem(replace(wp.problem, loss=wp.problem.loss + 1.0),
                                    wp.lam)
    for value in (wp, wp.problem, rs.loss_profile(wp.problem, 0)):
        assert value.__eq__("x") is NotImplemented
        assert value != "x"


def test_number_labels_read_as_strings():
    p = rs.FiniteProblem(("x0", 1), (2.5, np.int64(3)), np.full((2, 2), 0.25),
                         np.zeros((2, 2)), [[0, 1]])
    assert p.x_labels == ("x0", "1")
    assert p.y_labels == ("2.5", "3")


def test_integral_float_predictors_accepted():
    p = rs.FiniteProblem(("x0", "x1"), ("a", "b"), np.full((2, 2), 0.25),
                         np.zeros((2, 2)), [[1.0, 0.0]])
    assert p.predictors.dtype == np.int64
    assert p.predictors.tolist() == [[1, 0]]

def test_duplicate_labels_rejected():
    with pytest.raises(rs.ValidationError, match="duplicates"):
        rs.FiniteProblem(("x", "x"), ("a",), np.array([[0.5], [0.5]]),
                         np.zeros((1, 1)), np.array([[0, 0]]))


def test_problem_is_immutable():
    p = identity_support_problem()
    with pytest.raises(ValueError):
        p.eta[0, 0] = 0.7


# --------------------------------------------------------------------------
# Risk and profiles
# --------------------------------------------------------------------------

def test_risk_zero_loss_one_point():
    p = rs.one_point_problem(0.0)
    assert rs.risk(p, 0) == 0.0


def test_risk_identity_predictor_matches_support():
    p = identity_support_problem()
    assert rs.risk(p, 0) == 0.0


def test_risk_constant_predictor_half():
    p = identity_support_problem()
    assert rs.risk(p, 1) == pytest.approx(brute_risk(p, 1), abs=1e-15)
    assert rs.risk(p, 1) == pytest.approx(0.5, abs=1e-12)


def test_risk_matches_brute_force_on_random_problems():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = random_problem(rng)
        for h in range(p.n_predictors):
            assert rs.risk(p, h) == pytest.approx(brute_risk(p, h), abs=1e-12)


def test_risk_index_out_of_range():
    with pytest.raises(rs.ValidationError, match="index"):
        rs.risk(identity_support_problem(), 9)


@pytest.mark.parametrize("h_index", [0.7, float("nan"), True, -1, [0, 1]])
def test_risk_index_is_refused_not_cast(h_index):
    with pytest.raises(rs.ValidationError) as err:
        rs.risk(identity_support_problem(), h_index)
    assert err.value.field == "h_index"


def test_risk_accepts_integral_index_types():
    p = identity_support_problem()
    assert rs.risk(p, 1.0) == rs.risk(p, np.int64(1)) == rs.risk(p, 1)


def test_bayes_risk_one_point_equals_constant():
    for c in (0.0, 1.0, 2.5):
        assert rs.constrained_bayes_risk(rs.one_point_problem(c)) == c


def test_bayes_risk_identity_support_zero():
    assert rs.constrained_bayes_risk(identity_support_problem()) == 0.0


def test_bayes_risk_rademacher_example():
    p = rademacher_example_problem(4)
    brute = min(brute_risk(p, h) for h in range(p.n_predictors))
    assert rs.constrained_bayes_risk(p) == pytest.approx(brute, abs=1e-15)
    assert rs.constrained_bayes_risk(p) == pytest.approx(0.25, abs=1e-12)


def test_loss_profile_zero_loss_single_atom():
    prof = rs.loss_profile(rs.one_point_problem(0.0), 0)
    assert prof.values.tolist() == [0.0]
    assert prof.masses.tolist() == [1.0]


def test_loss_profile_constant_predictor():
    prof = rs.loss_profile(identity_support_problem(), 1)
    assert prof.values.tolist() == [0.0, 1.0]
    assert prof.masses.tolist() == [0.5, 0.5]


def test_loss_profile_mean_equals_risk():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = random_problem(rng)
        for h in range(p.n_predictors):
            assert rs.loss_profile(p, h).mean() == pytest.approx(
                rs.risk(p, h), abs=1e-12
            )


def test_loss_profile_matches_pushforward_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_problem(rng)
        for h in range(p.n_predictors):
            atoms = {v: m for v, m in brute_profile(p, h).items() if m > 0}
            prof = rs.loss_profile(p, h)
            assert len(prof.values) == len(atoms)
            for value, mass in zip(prof.values, prof.masses):
                assert mass == pytest.approx(atoms[float(value)], abs=1e-12)


def test_loss_profile_set_order_and_means():
    p = identity_support_problem()
    profiles = rs.loss_profile_set(p)
    assert sorted(prof.mean() for prof in profiles) == pytest.approx(
        [0.0, 0.5, 0.5, 1.0]
    )


def test_bayes_risk_recoverable_from_profiles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_problem(rng)
        profile_min = min(prof.mean() for prof in rs.loss_profile_set(p))
        # equal in exact arithmetic; the two paths sum in different orders
        assert profile_min == pytest.approx(rs.constrained_bayes_risk(p),
                                            abs=1e-12)


def test_loss_profile_distribution_merges_duplicates():
    p = identity_support_problem()
    wp = rs.WeightedProblem(problem=p, lam=np.full(4, 0.25))
    atoms = rs.loss_profile_distribution(wp)
    masses = sorted(weight for _, weight in atoms)
    assert masses == pytest.approx([0.25, 0.25, 0.5])


def test_loss_profile_distribution_point_mass():
    p = identity_support_problem()
    wp = rs.WeightedProblem(problem=p, lam=np.array([1.0, 0.0, 0.0, 0.0]))
    atoms = rs.loss_profile_distribution(wp)
    assert len(atoms) == 1
    assert atoms[0][1] == 1.0


def test_one_point_weighted_profile_distribution():
    wp = rs.WeightedProblem(problem=rs.one_point_problem(0.0), lam=np.array([1.0]))
    atoms = rs.loss_profile_distribution(wp)
    assert len(atoms) == 1
    assert atoms[0][0].values.tolist() == [0.0]


# --------------------------------------------------------------------------
# Predictor pseudometric
# --------------------------------------------------------------------------

def test_predictor_pseudometric_duplicates_and_value():
    p = identity_support_problem()
    d = rs.predictor_pseudometric(p)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    # identity vs constant-0
    assert d[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_predictor_pseudometric_duplicate_rows_zero():
    p = rs.FiniteProblem(("x",), ("a", "b"), np.array([[0.6, 0.4]]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array([[0], [0]]))
    assert rs.predictor_pseudometric(p)[0, 1] == 0.0


def test_predictor_pseudometric_triangle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_problem(rng)
        d = rs.predictor_pseudometric(p)
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


# --------------------------------------------------------------------------
# Coarsening
# --------------------------------------------------------------------------

def test_coarsen_singleton_partition_identity_matrices():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = random_problem(rng)
        coarse = rs.coarsen(p, rs.singleton_partition(p.ny))
        assert np.array_equal(coarse.eta, p.eta)
        assert np.array_equal(coarse.loss, p.loss)
        unique = np.unique(p.predictors, axis=0)
        assert coarse.n_predictors == unique.shape[0]


def test_coarsen_one_block():
    p = identity_support_problem()
    coarse = rs.coarsen(p, rs.Partition(blocks=((0, 1),), ny=2))
    assert coarse.ny == 1
    assert coarse.loss[0, 0] == p.loss.max()
    assert coarse.n_predictors == 1


GRID = [0.17, 0.5, 0.83, 1.17, 1.5, 1.83, 2.17, 2.5, 2.83]
GRID_BLOCKS = ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def _grid_problem() -> rs.FiniteProblem:
    n = len(GRID)
    eta = np.full((n, n), 1.0 / n**2)
    loss = np.abs(np.subtract.outer(GRID, GRID))
    predictors = np.arange(n)[None, :].repeat(2, axis=0)
    predictors[1] = (np.arange(n) + 1) % n
    return rs.FiniteProblem(
        x_labels=tuple(f"x{i}" for i in range(n)),
        y_labels=tuple(str(v) for v in GRID),
        eta=eta,
        loss=loss,
        predictors=predictors,
    )


def test_coarsen_grid_loss_table_matches_block_maxima():
    p = _grid_problem()
    q = rs.Partition(blocks=GRID_BLOCKS, ny=9)
    coarse = rs.coarsen(p, q)
    expected = np.empty((3, 3))
    for bi, block_i in enumerate(GRID_BLOCKS):
        for bj, block_j in enumerate(GRID_BLOCKS):
            expected[bi, bj] = max(
                abs(GRID[i] - GRID[j]) for i in block_i for j in block_j
            )
    assert np.array_equal(coarse.loss, expected)
    # the discretized table sits just under the continuum pattern 1,2,3 / ...
    assert np.allclose(coarse.loss, [[0.66, 1.66, 2.66],
                                     [1.66, 0.66, 1.66],
                                     [2.66, 1.66, 0.66]], atol=1e-12)


def test_coarsening_bound_singletons_zero():
    p = identity_support_problem()
    assert rs.coarsening_bound(p, rs.singleton_partition(2)) == 0.0


def test_coarsening_bound_one_block_is_loss_range():
    rng = np.random.default_rng(6)
    p = random_problem(rng)
    bound = rs.coarsening_bound(p, rs.Partition(blocks=(tuple(range(p.ny)),),
                                                ny=p.ny))
    assert bound == pytest.approx(float(p.loss.max() - p.loss.min()), abs=1e-15)


def test_coarsening_bound_grid_matches_brute_force():
    p = _grid_problem()
    q = rs.Partition(blocks=GRID_BLOCKS, ny=9)
    brute = 0.0
    for block_i in GRID_BLOCKS:
        for block_j in GRID_BLOCKS:
            vals = [abs(GRID[i] - GRID[j]) for i in block_i for j in block_j]
            brute = max(brute, max(vals) - min(vals))
    assert rs.coarsening_bound(p, q) == pytest.approx(brute, abs=1e-15)


def test_coarsen_weighted_pushforward_masses():
    p = rs.FiniteProblem(("x",), ("a", "b", "c"),
                         np.array([[0.2, 0.3, 0.5]]),
                         np.ones((3, 3)) - np.eye(3),
                         np.array([[0], [1], [2]]))
    wp = rs.WeightedProblem(problem=p, lam=np.array([0.2, 0.3, 0.5]))
    coarse = rs.coarsen_weighted(wp, rs.Partition(blocks=((0, 1), (2,)), ny=3))
    assert coarse.problem.n_predictors == 2
    assert coarse.lam.tolist() == pytest.approx([0.5, 0.5])


def test_coarsen_labels_with_commas_stay_distinct():
    # joined unescaped, blocks [0] and [2, 3] would both be labeled {a,b}
    p = replace(random_problem(np.random.default_rng(413), ny=4),
                y_labels=("a,b", "c", "a", "b"))
    coarse = rs.coarsen(p, rs.Partition(blocks=((0,), (2, 3), (1,)), ny=4))
    assert coarse.y_labels == ("{a\\,b}", "{a,b}", "{c}")


def test_joined_labels_are_distinct_for_distinct_parts():
    from riskspace.problems import _join_labels

    assert _join_labels(("x0", "x1"), "|") == "x0|x1"
    assert _join_labels(("y0", "y1"), ",") == "y0,y1"
    parts = ("", "a", "|", ",", "\\")
    tuples = [t for k in (1, 2, 3) for t in itertools.product(parts, repeat=k)]
    for sep in "|,":
        assert len({_join_labels(t, sep) for t in tuples}) == len(tuples)


def test_coarsen_weighted_sums_weights_in_first_seen_order():
    rng = np.random.default_rng(412)
    for _ in range(20):
        wp = random_weighted(rng, n_h=int(rng.integers(1, 6)))
        q = random_partition(rng, wp.problem.ny)
        coarse = rs.coarsen_weighted(wp, q)
        mapped = [tuple(q.block_of()[h]) for h in wp.problem.predictors]
        seen = list(dict.fromkeys(mapped))
        assert [tuple(h) for h in coarse.problem.predictors] == seen
        assert coarse.problem == rs.coarsen(wp.problem, q)
        sums = [sum(lam for m, lam in zip(mapped, wp.lam) if m == h) for h in seen]
        assert coarse.lam.tolist() == pytest.approx(sums, abs=1e-15)


@pytest.mark.parametrize("ny", [2, 4])
@pytest.mark.parametrize("call", [
    rs.coarsen, rs.coarsening_bound,
    lambda p, q: rs.coarsen_weighted(rs.WeightedProblem(p, [0.5, 0.5]), q),
], ids=["coarsen", "coarsening_bound", "coarsen_weighted"])
def test_partition_of_another_label_count_names_blocks(call, ny):
    p = rs.FiniteProblem(("x0", "x1"), ("a", "b", "c"), np.full((2, 3), 1 / 6),
                         1.0 - np.eye(3), [[0, 1], [2, 2]])
    with pytest.raises(rs.ValidationError) as err:
        call(p, rs.singleton_partition(ny))
    assert err.value.field == "blocks"


def test_invalid_partition_rejected():
    with pytest.raises(rs.ValidationError):
        rs.Partition(blocks=((0,), (0, 1)), ny=2)
    with pytest.raises(rs.ValidationError):
        rs.Partition(blocks=((0,),), ny=2)


@pytest.mark.parametrize("blocks, field", [
    ([[0.7, 1], [2.2]], "blocks[0][0]"),
    ([[0, 1], [2, True]], "blocks[1][1]"),
    ([[0, 1], [np.nan]], "blocks[1][0]"),
    ([[0, 1], [2, 3]], "blocks[1][1]"),
    ([[0, 1, 2], []], "blocks[1]"),
    (5, "blocks"),
])
def test_partition_indices_are_refused_not_cast(blocks, field):
    with pytest.raises(rs.ValidationError) as err:
        rs.Partition(blocks=blocks, ny=3)
    assert err.value.field == field


def test_partition_accepts_integral_floats():
    q = rs.Partition(blocks=[[0.0, 2], [1]], ny=3)
    assert q.blocks == ((0, 2), (1,))


# --------------------------------------------------------------------------
# Simulation checking
# --------------------------------------------------------------------------

def test_identity_simulation_true_on_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_problem(rng)
        check = rs.verify_simulation(
            p, p,
            f1=np.arange(p.nx), f2=np.arange(p.ny),
            fwd=np.arange(p.n_predictors), bwd=np.arange(p.n_predictors),
        )
        assert check.ok, check.violation


def _extra_label_pair():
    """Binary classification vs. the same problem with a duplicated label."""
    eta = np.array([[0.3, 0.2], [0.1, 0.4]])
    loss = np.array([[0.0, 1.0], [1.0, 0.0]])
    base = rs.FiniteProblem(("x0", "x1"), ("a", "b"), eta, loss,
                            np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
    # split b's mass between b and the clone c
    eta_rich = np.array([[0.3, 0.12, 0.08], [0.1, 0.15, 0.25]])
    merge = np.array([0, 1, 1])  # a -> a, b -> b, c -> b
    loss_rich = loss[np.ix_(merge, merge)]
    rich_predictors = np.array(list(
        (i, j) for i in range(3) for j in range(3)
    ))
    rich = rs.FiniteProblem(("x0", "x1"), ("a", "b", "c"), eta_rich, loss_rich,
                            rich_predictors)
    fwd = []
    for pred in base.predictors:
        fwd.append(int(np.argwhere(
            (rich.predictors == pred[None, :]).all(axis=1)
        )[0][0]))
    bwd = [int(np.argwhere(
        (base.predictors == merge[pred][None, :]).all(axis=1)
    )[0][0]) for pred in rich.predictors]
    return rich, base, merge, np.array(fwd), np.array(bwd)


def test_extra_label_simulation_true():
    rich, base, merge, fwd, bwd = _extra_label_pair()
    check = rs.verify_simulation(rich, base, f1=np.array([0, 1]), f2=merge,
                                 fwd=fwd, bwd=bwd)
    assert check.ok, check.violation


def test_perturbed_pushforward_fails():
    rich, base, merge, fwd, bwd = _extra_label_pair()
    eta = rich.eta.copy()
    eta[0, 0] += 0.01
    eta[1, 2] -= 0.01
    perturbed = rs.FiniteProblem(rich.x_labels, rich.y_labels, eta, rich.loss,
                                 rich.predictors)
    check = rs.verify_simulation(perturbed, base, f1=np.array([0, 1]), f2=merge,
                                 fwd=fwd, bwd=bwd)
    assert not check.ok
    assert "pushforward" in check.violation
    assert "np.float64" not in check.violation


@pytest.mark.parametrize("key, index, entry", [
    ("fwd", 1, "fwd[1]"),
    ("bwd", 4, "bwd[4]"),
])
def test_mismatched_map_entry_fails_naming_it(key, index, entry):
    rich, base, merge, fwd, bwd = _extra_label_pair()
    maps = {"fwd": fwd.copy(), "bwd": bwd.copy()}
    maps[key][index] = maps[key][0]  # a predictor whose losses differ
    check = rs.verify_simulation(rich, base, f1=np.array([0, 1]), f2=merge, **maps)
    assert not check.ok
    assert check.violation.startswith(entry + " ")
    assert "np.float64" not in check.violation


@pytest.mark.parametrize("key, value, field", [
    ("f1", [0.9, 1], "f1[0]"),
    ("f2", [0, True], "f2[1]"),
    ("fwd", [0, 1, 2, 3.5], "fwd[3]"),
    ("bwd", [0, 1, 2, 4], "bwd[3]"),
    ("tol", np.nan, "tol"),
    ("tol", -1e-9, "tol"),
])
def test_simulation_maps_are_indices_not_casts(key, value, field):
    p = identity_support_problem()
    args = {"f1": [0, 1], "f2": [0, 1], "fwd": [0, 1, 2, 3], "bwd": [0, 1, 2, 3]}
    args[key] = value
    with pytest.raises(rs.ValidationError) as err:
        rs.verify_simulation(p, p, **args)
    assert err.value.field == field


def test_simulation_shape_mismatch_errors():
    p = identity_support_problem()
    with pytest.raises(rs.ValidationError, match="f1"):
        rs.verify_simulation(p, p, f1=[0], f2=[0, 1], fwd=[0, 1, 2, 3],
                             bwd=[0, 1, 2, 3])


# --------------------------------------------------------------------------
# Metric measure space encodings
# --------------------------------------------------------------------------

def test_encode_one_point_space():
    p = rs.encode_mm_space(("pt",), np.zeros((1, 1)), np.array([1.0]))
    assert p.nx == p.ny == 1
    assert p.loss[0, 0] == 0.0
    assert rs.constrained_bayes_risk(p) == 0.0


def test_encode_two_point_space_bayes_risk():
    p = rs.encode_mm_space(("u", "v"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([0.5, 0.5]))
    assert rs.constrained_bayes_risk(p) == pytest.approx(0.5, abs=1e-12)
    assert rs.all_risks(p).tolist() == pytest.approx([0.5, 0.5])


def test_encode_rejects_non_metric():
    bad = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(rs.ValidationError, match="triangle"):
        rs.encode_mm_space(("a", "b", "c"), bad, np.array([0.4, 0.3, 0.3]))


@pytest.mark.parametrize("k", [1e-12, 1.0, 1e12])
def test_metric_check_is_relative_to_the_largest_distance(k):
    # a triangle violation of half the unit is refused in every unit, and
    # an asymmetry of half a billionth of it, round-off, is accepted
    bad = k * np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    with pytest.raises(rs.ValidationError, match="triangle"):
        rs.encode_mm_space(("a", "b", "c"), bad, np.array([0.4, 0.3, 0.3]))
    near = k * (1.0 - np.eye(2))
    near[0, 1] += 5e-10 * k
    assert rs.encode_mm_space(("a", "b"), near, [0.5, 0.5]).loss.max() == near.max()


@pytest.mark.parametrize("points, dist, mu, field", [
    (("a", "b"), np.zeros((2, 3)), [0.5, 0.5], "dist"),
    (("a", "b"), [[0.0, "x"], ["x", 0.0]], [0.5, 0.5], "dist"),
    (("a", "b"), [[0.0, 1.0], [1.0]], [0.5, 0.5], "dist"),
    (("a", "b"), 1.0 - np.eye(2), [[0.5, 0.5]], "mu"),
    (("a", "b"), 1.0 - np.eye(2), ["a", "b"], "mu"),
    (("a", "b", "c"), 1.0 - np.eye(2), [0.5, 0.5], "points"),
    ("ab", 1.0 - np.eye(2), [0.5, 0.5], "points"),
    (("a", "b"), [[1.0, 1.0], [1.0, 0.0]], [0.5, 0.5], "dist"),
    (("a", "b"), [[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5], "dist"),
    (None, np.zeros((0, 0)), [], "mu"),
])
def test_encode_names_the_bad_input(points, dist, mu, field):
    for encode in (rs.encode_mm_space, rs.encode_mm_space_weighted):
        with pytest.raises(rs.ValidationError) as err:
            encode(points, dist, mu)
        assert err.value.field == field


def test_encode_weighted_attaches_mu():
    mu = np.array([0.25, 0.75])
    wp = rs.encode_mm_space_weighted(("u", "v"),
                                     np.array([[0.0, 2.0], [2.0, 0.0]]), mu)
    assert np.array_equal(wp.lam, mu)


def test_constructors_freeze_a_private_copy():
    eta = np.full((2, 2), 0.25)
    loss = 1.0 - np.eye(2)
    predictors = np.array([[0, 1], [1, 0]])
    lam = np.array([0.5, 0.5])
    p = rs.FiniteProblem(("x0", "x1"), ("a", "b"), eta, loss, predictors)
    wp = rs.WeightedProblem(problem=p, lam=lam)
    witness = np.eye(2, dtype=bool)
    result = rs.DistanceResult(value=0.0, status="exact",
                               witness_correspondence=witness)
    for caller, stored in ((eta, p.eta), (loss, p.loss),
                           (predictors, p.predictors), (lam, wp.lam),
                           (witness, result.witness_correspondence)):
        assert caller.flags.writeable
        assert not stored.flags.writeable
        caller[0] = 0
        assert stored[0].any()
