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
    _real,
    loss_profile_distribution,
    loss_profile_set,
)

# Tightened HiGHS tolerances (1e-10 is the solver's floor): vertex solutions
# on these tiny instances are then accurate well inside the 1e-9 contracts.
_LP_OPTIONS = {
    "presolve": True,
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
    mu: np.ndarray, nu: np.ndarray, n_extra: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Equality constraints (A_eq, b_eq) fixing the row sums to ``mu`` and the
    column sums to ``nu`` of a coupling flattened row-major, followed by
    ``n_extra`` further variables that the constraints leave free."""
    m, n = len(mu), len(nu)
    a_eq = np.zeros((m + n, m * n + n_extra))
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


def _coupling_lp(
    support: _Support, objective: np.ndarray, a_ub: np.ndarray | None = None
) -> np.ndarray:
    """The supported block of a coupling of ``support`` minimizing
    ``objective``, subject to ``a_ub @ x <= 0`` when ``a_ub`` is given.

    The LP variables are the supported block flattened row-major, followed by
    as many free extra variables as ``objective`` has further entries.  With
    one supported row or column the product coupling is the only one, and no
    LP is solved.  This is the one call site of the LP solver.
    """
    m, n = len(support.mu), len(support.nu)
    if m == 1 or n == 1:
        return np.outer(support.mu, support.nu)
    a_eq, b_eq = _marginal_equalities(support.mu, support.nu,
                                      n_extra=len(objective) - m * n)
    res = linprog(
        objective,
        A_ub=a_ub,
        b_ub=None if a_ub is None else np.zeros(len(a_ub)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        kind = "transport" if a_ub is None else "minimax transport"
        raise SolverError(f"{kind} LP failed: {res.message}")
    return res.x[: m * n].reshape(m, n)


def solve_ot_exact(
    cost: np.ndarray, mu: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize <cost, gamma> over couplings of (mu, nu), exactly.

    Solves the transportation LP with a simplex-grade method; no entropic
    approximation.  Zero-mass rows and columns are dropped before the solve
    and reinserted as zero rows/columns of the returned coupling.  Any
    optimal basic solution may be returned; callers must depend only on the
    value or treat the coupling as one witness among many.
    """
    mu = check_distribution(mu, "mu")
    nu = check_distribution(nu, "nu")
    cost = _float_array(cost, "cost", (len(mu), len(nu)))
    require(np.isfinite(cost), "cost", "must be finite")
    support = _support(mu, nu)
    plan = support.embed(_coupling_lp(support, support.restrict(cost).ravel()))
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
    the nonnegative plans kept at their first occurrence.  Intended for
    small supports only (the count grows super-exponentially).

    Returns an array of shape (n_vertices, len(mu), len(nu)).
    """
    mu = check_distribution(mu, "mu")
    nu = check_distribution(nu, "nu")
    support = _support(mu, nu)
    m, n = len(support.rows), len(support.cols)
    a_eq, b_eq = _marginal_equalities(support.mu, support.nu)
    cell_columns, b = a_eq[:-1].T, b_eq[:-1]
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
        for key, plan in zip(np.round(plans, 10), plans):
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
    m, n = len(support.rows), len(support.cols)
    rperm = rng.permutation(m)
    cperm = rng.permutation(n)
    remaining_mu = support.mu[rperm]
    remaining_nu = support.nu[cperm]
    plan = np.zeros((m, n))
    i = j = 0
    while i < m and j < n:
        move = min(remaining_mu[i], remaining_nu[j])
        plan[rperm[i], cperm[j]] = move
        remaining_mu[i] -= move
        remaining_nu[j] -= move
        if remaining_mu[i] <= remaining_nu[j]:
            i += 1
        else:
            j += 1
    return support.embed(plan)


# --------------------------------------------------------------------------
# One-dimensional and set-valued metrics
# --------------------------------------------------------------------------

def w1_real_line(a: LossProfile, b: LossProfile) -> float:
    """1-Wasserstein distance between real discrete distributions via the CDF
    formula: the area between the two cumulative distribution functions."""
    grid = np.union1d(a.values, b.values)
    cdf_a = _cdf_on_grid(a, grid)
    cdf_b = _cdf_on_grid(b, grid)
    return float(np.sum(np.abs(cdf_a[:-1] - cdf_b[:-1]) * np.diff(grid)))


def _cdf_on_grid(profile: LossProfile, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(profile.values, grid, side="right")
    cum = np.concatenate([[0.0], np.cumsum(profile.masses)])
    return cum[idx]


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


def _w1_matrix(profiles_a, profiles_b, p: float = 1.0) -> np.ndarray:
    """1-Wasserstein distances on the line between two profile lists, each
    raised to ``p`` as a Python float: numpy's vectorised power can differ
    in the last bit, and x ** 1.0 is x."""
    return np.array([[w1_real_line(a, b) ** p for b in profiles_b]
                     for a in profiles_a])


def hausdorff_loss_profiles(p: FiniteProblem, p_prime: FiniteProblem) -> float:
    """Hausdorff distance between the two loss-profile sets, with profiles
    compared by 1-Wasserstein distance on the line."""
    return hausdorff(_w1_matrix(loss_profile_set(p), loss_profile_set(p_prime)))


def wasserstein_profile_distributions(
    wp: WeightedProblem, wp_prime: WeightedProblem, p: float
) -> float:
    """Outer p-Wasserstein distance between the two weighted profile
    distributions, with ground distance 1-Wasserstein between profiles."""
    p = _real(p, "p")
    # at p = inf the formula below gives 0 ** 0 = 1 for equal distributions
    require(1 <= p < np.inf, "p", "must lie in [1, inf)")
    profiles_a, mass_a = zip(*loss_profile_distribution(wp))
    profiles_b, mass_b = zip(*loss_profile_distribution(wp_prime))
    mass_a, mass_b = np.array(mass_a), np.array(mass_b)
    cost = _w1_matrix(profiles_a, profiles_b, p)
    _, value = solve_ot_exact(cost, mass_a / mass_a.sum(), mass_b / mass_b.sum())
    return float(max(value, 0.0) ** (1.0 / p))


def kernel_w1(
    m_kernel: np.ndarray,
    n_kernel: np.ndarray,
    base_mu: np.ndarray,
    ground_metric: np.ndarray,
) -> float:
    """Wasserstein distance between two Markov kernels with a common source:
    the base-measure average of the per-state 1-Wasserstein distances."""
    m_kernel = check_markov_kernel(m_kernel, "M")
    n_kernel = check_markov_kernel(n_kernel, "N")
    base_mu = check_distribution(base_mu, "base_mu")
    ground = _float_array(ground_metric, "ground_metric")
    if m_kernel.shape != n_kernel.shape:
        raise ValidationError("M and N must have the same shape", field="N")
    base_mu = _float_array(base_mu, "base_mu", (len(m_kernel),))
    t = m_kernel.shape[1]
    ground = _float_array(ground, "ground_metric", (t, t))
    require(np.isfinite(ground), "ground_metric", "must be finite")
    total = 0.0
    for i in np.flatnonzero(base_mu > 0):
        _, value = solve_ot_exact(ground, m_kernel[i], n_kernel[i])
        total += float(base_mu[i]) * value
    return total
