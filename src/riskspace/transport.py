"""Exact discrete optimal transport and the auxiliary metrics built on it.

All solvers here are exact (LP-grade): the downstream distance bounds are
sandwiches with equalities at corner cases, and entropic smoothing would
break them.  Problem sizes are desk scale, so exactness is cheap.

Conventions: a discrete distribution is a nonnegative vector summing to 1; a
coupling of (mu, nu) is a nonnegative matrix with row sums mu and column sums
nu; a finite Markov kernel is a row-stochastic matrix.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from .errors import SolverError, ValidationError, require
from .problems import (
    METRIC_TOL,
    PROB_TOL,
    FiniteProblem,
    LossProfile,
    WeightedProblem,
    _check_mass,
    _float_array,
    _power_mean,
    _real,
    loss_profile_distribution,
)

# Tightened HiGHS tolerances (1e-10 is the solver's floor): vertex solutions
# on these tiny instances are then accurate well inside the 1e-9 contracts.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

_VERTEX_BLOCK = 256  # cell sets per batched tree solve; bounds peak memory


def check_distribution(vec: np.ndarray, name: str = "distribution") -> np.ndarray:
    return _check_mass(vec, name, (None,))


def check_coupling(
    gamma: np.ndarray, mu: np.ndarray, nu: np.ndarray, name: str = "coupling"
) -> np.ndarray:
    """``gamma`` as a float coupling of ``mu`` and ``nu``, of shape
    ``mu.shape + nu.shape`` (a coupling of two joint laws has shape
    (nx, ny, nx', ny')); entries and marginals are checked to METRIC_TOL."""
    gamma = _float_array(gamma, name, mu.shape + nu.shape)
    require(np.isfinite(gamma) & (gamma >= -METRIC_TOL), name,
            "must be a finite nonnegative mass")
    flat = gamma.reshape(mu.size, nu.size)
    if np.max(np.abs(flat.sum(axis=1) - mu.ravel())) > METRIC_TOL:
        raise ValidationError(f"{name} row sums do not match the first marginal",
                              field=name)
    if np.max(np.abs(flat.sum(axis=0) - nu.ravel())) > METRIC_TOL:
        raise ValidationError(f"{name} column sums do not match the second marginal",
                              field=name)
    return gamma


def check_markov_kernel(kernel: np.ndarray, name: str = "kernel") -> np.ndarray:
    kernel = _float_array(kernel, name, (None, None))
    require(np.isfinite(kernel) & (kernel >= 0), name,
            "must be a finite nonnegative mass")
    require(np.abs(kernel.sum(axis=1) - 1.0) <= PROB_TOL, name,
            f"must sum to 1 within {PROB_TOL}")
    return kernel


# --------------------------------------------------------------------------
# Exact optimal transport
# --------------------------------------------------------------------------

def _marginal_equalities(
    mu: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Equality constraints (A_eq, b_eq) fixing the row sums to ``mu`` and the
    column sums to ``nu`` of a coupling flattened row-major."""
    m, n = len(mu), len(nu)
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j : m * n : n] = 1.0
    return a_eq, np.concatenate([mu, nu])


class _Support(NamedTuple):
    """The positive-mass atoms of two marginals.  Couplings vanish on the
    other rows and columns, so solvers work on these atoms alone and
    :meth:`embed` puts the zero rows and columns back."""

    rows: np.ndarray
    cols: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    shape: tuple[int, int]

    def restrict(self, a: np.ndarray) -> np.ndarray:
        """The supported (rows, cols) block of each trailing matrix of ``a``."""
        return a[..., self.rows, :][..., self.cols]

    def embed(self, plan: np.ndarray) -> np.ndarray:
        """Supported (rows, cols) blocks back at full shape, zeros elsewhere."""
        full = np.zeros(plan.shape[:-2] + self.shape)
        full[..., self.rows[:, None], self.cols] = plan
        return full


def _support(mu: np.ndarray, nu: np.ndarray) -> _Support:
    rows = np.flatnonzero(mu > 0)
    cols = np.flatnonzero(nu > 0)
    return _Support(rows, cols, mu[rows], nu[cols], (len(mu), len(nu)))


def _coupling_lp(mu: np.ndarray, nu: np.ndarray, costs: np.ndarray,
                 duals: bool = False):
    """A coupling of (mu, nu), at full shape, minimizing one cost of shape
    (len(mu), len(nu)), the transport form, or the largest of a stack
    (k, len(mu), len(nu)), the epigraph form: its variables are the
    supported block flattened row-major, then t, and it minimizes t subject
    to <costs[r], x> - t <= 0, one row per r in order.

    Zero-mass rows and columns are dropped before the solve and come back
    as zeros; with one supported row or column the product coupling is the
    only one, and no LP is solved unless ``duals`` asks for its duals.  The
    supported costs reach HiGHS in one binade (:func:`_unit_binade`), so
    its absolute tolerances and its infinite cost of 1e20 meet every loss
    unit alike.  This is the one call site of the LP solver.

    With ``duals`` it returns (plan, (w, u, v)): the epigraph rows' weights
    w >= 0 (empty in the transport form) and the marginal potentials u, v
    of the supported rows and columns, in the units of ``costs``, so that
    <u, mu> + <v, nu> is the optimal value and sum_r w_r costs[r] - u - v
    is nonnegative on the supported block up to the LP tolerances.
    """
    support = _support(mu, nu)
    m, n = len(support.mu), len(support.nu)
    if (m == 1 or n == 1) and not duals:
        return support.embed(np.outer(support.mu, support.nu))
    block, shift = _unit_binade(support.restrict(costs))
    a_eq, b_eq = _marginal_equalities(support.mu, support.nu)
    a_ub = b_ub = None
    if costs.ndim == 2:
        objective = block.ravel()
    else:
        k = len(block)
        objective = np.append(np.zeros(m * n), 1.0)
        a_ub = np.hstack([block.reshape(k, -1), np.full((k, 1), -1.0)])
        b_ub = np.zeros(k)
        a_eq = np.hstack([a_eq, np.zeros((m + n, 1))])
    res = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        kind = "transport" if a_ub is None else "minimax transport"
        raise SolverError(f"{kind} LP failed: {res.message}")
    plan = support.embed(res.x[: m * n].reshape(m, n))
    if not duals:
        return plan
    weights = np.zeros(0) if a_ub is None else -res.ineqlin.marginals
    # the potentials scale with the costs: undo the binade shift
    u, v = np.split(np.ldexp(res.eqlin.marginals, -shift), [m])
    return plan, (weights, u, v)


def _unit_binade(costs: np.ndarray) -> tuple[np.ndarray, int]:
    """``costs`` times the power of two 2**shift that puts its largest
    |entry| in [1, 2), and ``shift``: exact, the same optima, and costs
    already there unchanged."""
    _, exponent = np.frexp(np.max(np.abs(costs)))
    return np.ldexp(costs, 1 - exponent), int(1 - exponent)


def solve_ot_exact(
    cost: np.ndarray, mu: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize <cost, gamma> over couplings of (mu, nu), exactly.

    Solves the transportation LP with a simplex-grade method
    (:func:`_coupling_lp`); no entropic approximation.  Any optimal basic
    solution may be returned; callers must depend only on the value or
    treat the coupling as one witness among many.
    """
    mu = check_distribution(mu, "mu")
    nu = check_distribution(nu, "nu")
    cost = _float_array(cost, "cost", (len(mu), len(nu)))
    require(np.isfinite(cost), "cost", "must be finite")
    plan = _coupling_lp(mu, nu, cost)
    return plan, float(np.sum(plan * cost))


def coupling_vertices(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """All vertices of the transportation polytope of (mu, nu).

    Every vertex is the unique coupling supported on some spanning tree of
    the complete bipartite graph on the supported atoms.  The marginal
    equations less the last one, restricted to m + n - 1 cells, have
    determinant 0 or +-1 (the incidence matrix is totally unimodular), and
    +-1 exactly when the cells form a spanning tree; so the cell sets are
    taken in ``itertools.combinations`` order, in blocks of
    ``_VERTEX_BLOCK``, the tree systems of a block solved in one batch, and
    each nonnegative plan kept at the first occurrence of its support (the
    cells above ``PROB_TOL``): a vertex is the only coupling on its support.
    Intended for small supports only (the count grows super-exponentially).

    Returns an array of shape (n_vertices, len(mu), len(nu)).
    """
    mu = check_distribution(mu, "mu")
    nu = check_distribution(nu, "nu")
    support = _support(mu, nu)
    m, n = len(support.rows), len(support.cols)
    system, b = _tree_system(support)
    cell_columns = system.T
    cell_sets = itertools.combinations(range(m * n), m + n - 1)
    vertices: dict[bytes, np.ndarray] = {}
    for block in iter(lambda: list(itertools.islice(cell_sets, _VERTEX_BLOCK)), []):
        cells = np.array(block)
        systems = np.swapaxes(cell_columns[cells], 1, 2)
        trees = np.abs(np.linalg.det(systems)) > 0.5
        cells, systems = cells[trees], systems[trees]
        # right-hand sides as one-column matrices: numpy 1 and 2 read a
        # stack of those alike
        rhs = np.broadcast_to(b[:, None], (len(cells), len(b), 1))
        sol = np.linalg.solve(systems, rhs)[..., 0]
        feasible = np.all(sol >= -1e-12, axis=1)
        plans = np.zeros((int(feasible.sum()), m * n))
        np.put_along_axis(plans, cells[feasible], np.maximum(sol[feasible], 0.0), axis=1)
        for key, plan in zip(plans > PROB_TOL, plans):
            vertices.setdefault(key.tobytes(), plan)
    return support.embed(np.reshape(list(vertices.values()), (-1, m, n)))


def random_coupling_vertex(
    mu: np.ndarray, nu: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A random basic feasible coupling: northwest-corner rule applied after
    independently permuting rows and columns."""
    mu = check_distribution(mu, "mu")
    nu = check_distribution(nu, "nu")
    support = _support(mu, nu)
    return _corner_plan(support, rng.permutation(len(support.rows)),
                        rng.permutation(len(support.cols)))


def _corner_plan(support: _Support, rperm: np.ndarray, cperm: np.ndarray) -> np.ndarray:
    """The northwest-corner coupling of ``support`` with its rows taken in
    the order ``rperm`` and its columns in the order ``cperm``, at full
    shape.  With rows and columns sorted by two real values it is their
    quantile (monotone) coupling, which is optimal for the distance between
    the two values."""
    rows, cols, masses = _northwest_corner(support.mu[rperm], support.nu[cperm])
    plan = np.zeros((len(rperm), len(cperm)))
    plan[rperm[rows], cperm[cols]] = masses
    return support.embed(plan)


def _northwest_corner(
    mu: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The northwest-corner walk over couplings of two positive marginals:
    the rows, columns and masses of the m + n - 1 cells it visits.

    From each cell the walk moves down when the row has no more mass left
    than the column, else right, and along the last row or column once it
    reaches it.  The cells are a staircase from (0, 0) to (m - 1, n - 1), so
    they form a spanning tree of the complete bipartite graph, and the
    masses are that tree's plan; equal partial sums put a zero mass on the
    cell after the tie.
    """
    m, n = len(mu), len(nu)
    remaining_mu, remaining_nu = mu.copy(), nu.copy()
    rows = np.zeros(m + n - 1, dtype=int)
    cols = np.zeros(m + n - 1, dtype=int)
    masses = np.zeros(m + n - 1)
    i = j = 0
    for k in range(m + n - 1):
        move = min(remaining_mu[i], remaining_nu[j])
        rows[k], cols[k], masses[k] = i, j, move
        remaining_mu[i] -= move
        remaining_nu[j] -= move
        if j == n - 1 or (i < m - 1 and remaining_mu[i] <= remaining_nu[j]):
            i += 1
        else:
            j += 1
    return rows, cols, masses


def _tree_system(support: _Support) -> tuple[np.ndarray, np.ndarray]:
    """The marginal equations of ``support`` less the last, over its cells
    flattened row-major.  The dropped equation follows from the others, and
    the columns of a set of m + n - 1 cells form a square matrix of
    determinant +-1 exactly when the cells are a spanning tree (see
    :func:`coupling_vertices`)."""
    a_eq, b_eq = _marginal_equalities(support.mu, support.nu)
    return a_eq[:-1], b_eq[:-1]


def _tree_simplex(
    cost: np.ndarray,
    support: _Support,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize <cost, x> over the couplings of ``support`` by the
    transportation simplex: (plan, basis, reduced, inverse).

    ``cost`` and ``plan`` are supported (rows, cols) blocks.  A basis is a
    spanning tree of m + n - 1 cells, flat row-major indices; the plan is
    the tree's unique coupling, kept as it pivots.  ``start`` is a (plan,
    basis) pair this function returned for the same marginals; without it
    the walk starts at the northwest corner.

    The tree system is totally unimodular, so its basis inverse has entries
    -1, 0 and 1: it is inverted and rounded once, then carried.  A pivot
    prices the cells with it (``c - c[basis] @ inverse @ system``), enters
    the cell of least reduced cost below -METRIC_TOL (Dantzig's rule) and
    takes its cycle ``inverse @ system[:, cell]``, of integer entries, so
    the ratio test compares masses with no tolerance; the leaving cell is
    the first of the least-mass cells the cycle drains.  Its cycle entry is
    1, so the rank-one update of the inverse adds and subtracts integer rows
    and stays exact.  When a pivot would move no mass (equal partial sums of
    the marginals), the first cell below -METRIC_TOL enters instead (Bland's
    rule), which cannot cycle.  So the walk ends, with no pivot cap, at a
    plan whose cells all have reduced cost at least -METRIC_TOL:
    ``reduced``, zero on the basis, with ``inverse`` its basis inverse.  No
    coupling costs less than the plan by more than the largest such
    negative part, at most METRIC_TOL.
    """
    system, _ = _tree_system(support)
    c = cost.ravel()
    if start is None:
        rows, cols, x = _northwest_corner(support.mu, support.nu)
        basis = rows * len(support.nu) + cols
    else:
        plan, basis = start
        basis = basis.copy()
        x = plan.ravel()[basis]
    inverse = np.rint(np.linalg.inv(system[:, basis]))
    while True:
        reduced = c - (c[basis] @ inverse) @ system
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -METRIC_TOL)
        if not len(entering):
            break
        for cell in (entering[np.argmin(reduced[entering])], entering[0]):
            cycle = inverse @ system[:, cell]
            drained = np.flatnonzero(cycle > 0)
            theta = x[drained].min()
            if theta > 0:
                break
        ties = drained[x[drained] == theta]
        leaving = ties[np.argmin(basis[ties])]
        x = x - theta * cycle
        x[leaving], basis[leaving] = theta, cell
        pivot = inverse[leaving].copy()
        inverse -= np.outer(cycle, pivot)
        inverse[leaving] = pivot
    plan = np.zeros(c.size)
    plan[basis] = x
    return plan.reshape(cost.shape), basis, reduced.reshape(cost.shape), inverse


# --------------------------------------------------------------------------
# One-dimensional and set-valued metrics
# --------------------------------------------------------------------------

def w1_real_line(a: LossProfile, b: LossProfile) -> float:
    """1-Wasserstein distance between real discrete distributions via the CDF
    formula: the area between the two cumulative distribution functions."""
    return float(_w1_matrix([a], [b])[0, 0])


def total_variation(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total variation distance: half the L1 gap, on a shared ground set."""
    mu = check_distribution(mu, "mu")
    nu = check_distribution(nu, "nu")
    if mu.shape != nu.shape:
        raise ValidationError("mu and nu must share a ground set", field="nu")
    return 0.5 * float(np.sum(np.abs(mu - nu)))


def hausdorff(dist: np.ndarray) -> float:
    """Hausdorff distance from a rectangular cross-distance matrix: each side
    must reach the other within the returned radius."""
    dist = _float_array(dist, "dist", (None, None))
    require(dist.size > 0, "dist", "must be a nonempty cross-distance matrix")
    require(np.isfinite(dist), "dist", "must be finite")
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def _line_w1(a: np.ndarray, mu: np.ndarray, b: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """1-Wasserstein distances on the line between every row of ``a`` and
    every row of ``b``: row i of ``a`` puts the masses ``mu`` (one row for
    all rows, or one per row) on its values, row j of ``b`` the masses
    ``nu`` on its; shape (len(a), len(b)).

    W1 is the area between the two CDFs.  Each pair's atoms are merged and
    sorted stably, ``a``'s first among equal values, and each CDF is a
    running sum of its own masses in that order, so two equal rows measure
    exactly 0.  Ties, repeated values and zero masses need no merging: an
    interval of length 0 adds nothing, and a zero mass does not move a CDF.
    """
    a, mu = np.broadcast_arrays(a, mu)
    b, nu = np.broadcast_arrays(b, nu)
    shape = (len(a), len(b))
    values = np.concatenate([np.broadcast_to(a[:, None], shape + a.shape[1:]),
                             np.broadcast_to(b[None], shape + b.shape[1:])], axis=2)
    masses = np.concatenate([np.broadcast_to(mu[:, None], shape + mu.shape[1:]),
                             np.broadcast_to(nu[None], shape + nu.shape[1:])], axis=2)
    order = np.argsort(values, axis=2, kind="stable")
    masses = np.take_along_axis(masses, order, axis=2)
    from_a = order < a.shape[1]
    gaps = (np.cumsum(np.where(from_a, masses, 0.0), axis=2)
            - np.cumsum(np.where(from_a, 0.0, masses), axis=2))
    steps = np.diff(np.take_along_axis(values, order, axis=2), axis=2)
    return np.sum(np.abs(gaps[..., :-1]) * steps, axis=2)


def _w1_matrix(profiles_a, profiles_b) -> np.ndarray:
    """1-Wasserstein distances on the line between two profile lists: each
    list stacked, shorter profiles padded with zero-mass atoms at 0, and
    measured by :func:`_line_w1`."""
    return _line_w1(*_stacked(profiles_a), *_stacked(profiles_b))


def _stacked(profiles) -> tuple[np.ndarray, np.ndarray]:
    """A profile list as (values, masses) stacks of one width."""
    width = max(len(profile.values) for profile in profiles)
    values = np.zeros((len(profiles), width))
    masses = np.zeros((len(profiles), width))
    for row, profile in enumerate(profiles):
        values[row, : len(profile.values)] = profile.values
        masses[row, : len(profile.masses)] = profile.masses
    return values, masses


def _profile_w1(p: FiniteProblem, p_prime: FiniteProblem) -> np.ndarray:
    """The (|H|, |H'|) 1-Wasserstein distances between the loss profiles of
    every predictor pair, taken from the two loss stacks and joint laws, so
    no profile is built."""
    return _line_w1(p.predictor_loss_stack().reshape(p.n_predictors, -1), p.eta.ravel(),
                    p_prime.predictor_loss_stack().reshape(p_prime.n_predictors, -1),
                    p_prime.eta.ravel())


def hausdorff_loss_profiles(p: FiniteProblem, p_prime: FiniteProblem) -> float:
    """Hausdorff distance between the two loss-profile sets, with profiles
    compared by 1-Wasserstein distance on the line."""
    return hausdorff(_profile_w1(p, p_prime))


def wasserstein_profile_distributions(
    wp: WeightedProblem, wp_prime: WeightedProblem, p: float
) -> float:
    """Outer p-Wasserstein distance between the two weighted profile
    distributions, with ground distance 1-Wasserstein between profiles, scaled
    so that a large p does not underflow it (``problems._power_mean``)."""
    p = _real(p, "p")
    require(1 <= p < np.inf, "p", "must lie in [1, inf)")
    profiles_a, mass_a = zip(*loss_profile_distribution(wp))
    profiles_b, mass_b = zip(*loss_profile_distribution(wp_prime))
    mass_a, mass_b = (np.array(mass) / np.sum(mass) for mass in (mass_a, mass_b))
    dist = _w1_matrix(profiles_a, profiles_b)
    plan, _ = solve_ot_exact((dist / (dist.max() or 1.0)) ** p, mass_a, mass_b)
    return float(_power_mean(dist, plan, p))

