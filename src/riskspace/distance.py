"""Risk distortion, the exact Risk distance, its profile lower bound,
weighted variants, geodesics, and the bilinear relaxation for metric measure
spaces.

The distance between two problems is the smallest worst-case gap in expected
loss achievable by jointly aligning the observation spaces (a coupling of the
joint laws) and the predictor sets (a correspondence).  On finite problems
the optimum is computed exactly; see ``docs/algorithms.md`` for the argument
that the assignment-enumeration scheme used here is exact.

Size caps keep the exact solver at desk scale: ``cap_pairs`` bounds
``|H| * |H'|`` (default 12) and ``cap_support`` bounds the product of the
flattened observation supports (default 256).  Beyond the caps the solver
either falls back to a labeled upper bound from alternating minimization or
raises, depending on ``fallback``; it never silently approximates.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog  # noqa: F401  unused; perfbench's tracer wraps this binding

from .errors import CapacityError, ValidationError, require, within_cap
from .problems import (
    METRIC_TOL,
    FiniteProblem,
    WeightedProblem,
    _count,
    _float_array,
    _freeze,
    _join_labels,
    _mask,
    _mm_space,
    _power_mean,
    _real,
    _rng,
    constrained_bayes_risk,
)
from .transport import (
    _coupling_lp,
    _Support,
    _support,
    _tree_simplex,
    _tree_system,
    check_coupling,
    coupling_vertices,
    hausdorff,
    hausdorff_loss_profiles,
    random_coupling_vertex,
    solve_ot_exact,
)

DEFAULT_CAP_PAIRS = 12
DEFAULT_CAP_SUPPORT = 256
# Bytes of one enumeration array: the assignment unions of the exact solver,
# the relation bits of the connected distance.  A raised cap is refused
# above it before the array is built.
ENUMERATION_CAPACITY = 2**28

# Coupling polytopes with support product at most this have their vertices
# listed: a transport step over one is a vertex argmin, and a predictor
# polytope that small is searched from every vertex, which for a bilinear
# objective makes the alternating scheme provably optimal, not just a
# heuristic.
_EXHAUSTIVE_VERTEX_LIMIT = 9

# Alternating descents stop after _MAX_ITER rounds or once a round gains less
# than _DESCENT_TOL times the largest pair cost.  The fallback beyond the caps
# takes its starts from _starts, with _FALLBACK_RESTARTS random vertices drawn
# with _FALLBACK_SEED.
_MAX_ITER = 100
_DESCENT_TOL = 1e-10
_FALLBACK_RESTARTS = 4
_FALLBACK_SEED = 0


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance computation.

    ``value`` is the computed distance (``exact``) or a certified upper bound
    (``upper_bound``).  ``witness_coupling`` has shape (nx, ny, nx', ny');
    ``witness_correspondence`` is a boolean (|H|, |H'|) matrix for supremum
    variants, ``witness_predictor_coupling`` a (|H|, |H'|) coupling for
    weighted variants.
    """

    value: float
    status: str
    witness_coupling: np.ndarray | None = None
    witness_correspondence: np.ndarray | None = None
    witness_predictor_coupling: np.ndarray | None = None

    def __post_init__(self):
        if self.status not in ("exact", "upper_bound"):
            raise ValidationError(f"unknown status {self.status!r}",
                                  field="status")
        require(_real(self.value, "value") >= 0, "value",
                "must be a nonnegative number")
        for name, convert in (("witness_coupling", _float_array),
                              ("witness_correspondence", _mask),
                              ("witness_predictor_coupling", _float_array)):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(self, name, _freeze(convert(arr, name)))


def _result(value, status: str, p: FiniteProblem, q: FiniteProblem,
            gamma_flat: np.ndarray, r=None, rho=None) -> DistanceResult:
    """A solver's result: ``value`` with round-off below zero clamped, and
    the flat coupling ``gamma_flat`` shaped over the two joint laws."""
    return DistanceResult(max(float(value), 0.0), status,
                          gamma_flat.reshape(p.eta.shape + q.eta.shape), r, rho)


def check_correspondence(r: np.ndarray) -> np.ndarray:
    r = _mask(r, "correspondence", (None, None))
    require(r.any(axis=1), "correspondence", "must cover some column")
    if not np.all(r.any(axis=0)):
        (hp,) = np.argwhere(~r.any(axis=0))[0]
        raise ValidationError(f"correspondence column {hp} is not covered",
                              field=f"correspondence[:,{hp}]")
    return r


# --------------------------------------------------------------------------
# Pair costs
# --------------------------------------------------------------------------

def _pair_costs(p: FiniteProblem, q: FiniteProblem,
                support: _Support | None = None) -> np.ndarray:
    """The pair-cost functionals |l_h - l'_{h'}| of every predictor pair, flat
    over the product of the two observation grids: shape
    (|H|, |H'|, nx*ny*nx'*ny'), or over the cells of a ``support`` only.

    The cost matrix under a coupling (:func:`_costs_under`) takes one dot
    product per pair, not one matrix product over this array: a matrix
    product sums in another order, and its changed last bits move the argmin
    tie-breaks of the alternating fallback.
    """
    la = p.predictor_loss_stack().reshape(p.n_predictors, -1)
    lb = q.predictor_loss_stack().reshape(q.n_predictors, -1)
    if support is not None:
        la, lb = la[:, support.rows], lb[:, support.cols]
    return np.abs(la[:, None, :, None] - lb[None, :, None, :]).reshape(
        p.n_predictors, q.n_predictors, -1
    )


def _costs_under(pair_costs: np.ndarray, gamma_flat: np.ndarray) -> np.ndarray:
    """Expected pair costs (|H|, |H'|) under a flat coupling, one dot product
    per pair (see :func:`_pair_costs`)."""
    g = gamma_flat.ravel()
    return np.array([[c @ g for c in row] for row in pair_costs])


def pair_cost_matrix(
    p: FiniteProblem, p_prime: FiniteProblem, gamma: np.ndarray
) -> np.ndarray:
    """Expected loss gaps for every predictor pair under a fixed coupling."""
    gamma = check_coupling(gamma, p.eta, p_prime.eta, name="gamma")
    return _costs_under(_pair_costs(p, p_prime), gamma)


def risk_distortion(
    p: FiniteProblem,
    p_prime: FiniteProblem,
    r: np.ndarray,
    gamma: np.ndarray,
) -> float:
    """Worst expected loss gap over the correspondence, under the coupling."""
    shape = (p.n_predictors, p_prime.n_predictors)
    r = check_correspondence(_mask(r, "correspondence", shape))
    costs = pair_cost_matrix(p, p_prime, gamma)
    return float(costs[r].max())


def hausdorff_reduction(costs: np.ndarray) -> tuple[float, np.ndarray]:
    """Best correspondence for a fixed pair-cost matrix, in closed form.

    For fixed costs, the optimal correspondence problem collapses to the
    Hausdorff value of the matrix.  The witness keeps every pair whose cost
    does not exceed that value, so it covers each row and column at its minimum.
    """
    costs = _float_array(costs, "costs", (None, None))
    require(costs.size > 0, "costs", "must be a nonempty pair-cost matrix")
    require(np.isfinite(costs), "costs", "must be finite")
    value = hausdorff(costs)
    return value, costs <= value + 1e-12 * np.abs(costs).max()


# --------------------------------------------------------------------------
# Epigraph LP: minimize the max of linear functionals over a coupling polytope
# --------------------------------------------------------------------------

def _minimax_coupling_lp(
    costs: np.ndarray, mu: np.ndarray, nu: np.ndarray, duals: bool = False
):
    """min over couplings gamma of max_k <costs[k], gamma>: (value, flat
    coupling), and with ``duals`` also the LP's duals (w, u, v).

    ``costs`` has one row per functional, flat over the (len(mu), len(nu))
    grid; each row is one constraint of the epigraph LP
    (:func:`transport._coupling_lp`), in row order, and w weighs the rows.
    """
    solved = _coupling_lp(mu, nu, costs.reshape(-1, len(mu), len(nu)), duals)
    gamma_flat = (solved[0] if duals else solved).ravel()
    value = max(float(c @ gamma_flat) for c in costs)
    return (value, gamma_flat, solved[1]) if duals else (value, gamma_flat)


# --------------------------------------------------------------------------
# Exact Risk distance
# --------------------------------------------------------------------------

def _canonical_key(p: FiniteProblem) -> tuple:
    return (
        p.nx,
        p.ny,
        p.n_predictors,
        p.x_labels,
        p.y_labels,
        p.eta.tobytes(),
        p.loss.tobytes(),
        p.predictors.tobytes(),
    )


def _transposed(result: DistanceResult) -> DistanceResult:
    """A correspondence distance's result with its two arguments swapped."""
    if result.witness_coupling is None:
        return result  # no relation attains it: the value is inf
    return replace(result,
                   witness_coupling=np.transpose(result.witness_coupling, (2, 3, 0, 1)),
                   witness_correspondence=result.witness_correspondence.T)


def _assignment_unions(n_h: int, n_hp: int) -> np.ndarray:
    """Distinct unions of a row assignment H -> H' and a column assignment
    H' -> H, as a boolean (k, n_h, n_hp) stack of pair sets, ordered by
    their row-major pair lists (a list before its extensions).  Refused
    with a capacity error when the assignment pairs iterated, as a boolean
    stack of their unions, would exceed ``ENUMERATION_CAPACITY`` bytes."""
    within_cap(n_hp**n_h * n_h**n_hp * n_h * n_hp, ENUMERATION_CAPACITY,
               "enumeration", "the assignment unions need a byte count")
    rows = [{h * n_hp + g for h, g in enumerate(a)}
            for a in itertools.product(range(n_hp), repeat=n_h)]
    cols = [{h * n_hp + g for g, h in enumerate(b)}
            for b in itertools.product(range(n_h), repeat=n_hp)]
    unions = sorted({tuple(sorted(r | c)) for r in rows for c in cols})
    stack = np.zeros((len(unions), n_h * n_hp), dtype=bool)
    for k, pairs in enumerate(unions):
        stack[k, pairs] = True
    return stack.reshape(-1, n_h, n_hp)


def _pattern_sweep(
    costs: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    lower: np.ndarray,
    candidates: np.ndarray,
    admissible=None,
    solve=None,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Minimum of the minimax coupling LP over candidate pair sets.

    ``costs`` is the pair-cost tensor (:func:`_pair_costs`), ``lower`` the
    (|H|, |H'|) matrix of the pairs' transport minima ``m[h, h']`` and
    ``candidates`` a boolean (k, |H|, |H'|) stack of pair sets.  A set's LP
    value is at least its score, the largest ``m[h, h']`` of its pairs
    (docs/algorithms.md, Step 2), so the sets are solved in increasing score
    order, ties in the order ``candidates`` lists them, and the sweep stops
    at the first score that cannot improve on the best value.  ``admissible``
    filters the sets as they are reached; a set it accepts is solved at
    once, before the next set is offered to it.  ``solve(r)`` returns a
    set's (value, flat coupling); it defaults to the minimax coupling LP.

    Returns (value, flat coupling, pair set) of the best set, or
    (inf, None, None) when no set is admissible.
    """
    if solve is None:
        def solve(r):
            return _minimax_coupling_lp(costs[r], mu, nu)
    flat = candidates.reshape(len(candidates), -1)
    scores = np.where(flat, lower.ravel(), -np.inf).max(axis=1)
    best: tuple[float, np.ndarray | None, np.ndarray | None] = (np.inf, None, None)
    for i in np.argsort(scores, kind="stable"):
        if scores[i] >= best[0] - 1e-12 * costs.max():
            break
        r = candidates[i]
        if admissible is not None and not admissible(r):
            continue
        value, gamma_flat = solve(r)
        if value < best[0]:
            best = (value, gamma_flat, r)
    return best


def risk_distance_exact(
    p: FiniteProblem,
    p_prime: FiniteProblem,
    cap_pairs: int = DEFAULT_CAP_PAIRS,
    cap_support: int = DEFAULT_CAP_SUPPORT,
    fallback: bool = True,
) -> DistanceResult:
    """The Risk distance between two finite problems.

    Within the size caps the returned value is the exact infimum over
    couplings and correspondences.  The search enumerates every way of
    assigning each predictor a partner (in both directions): for a fixed
    assignment pattern the inner problem is a linear program in the coupling,
    and the pattern minima exhaust the correspondence infimum (the reduction
    is spelled out in docs/algorithms.md).  Patterns are processed in
    increasing order of a per-pair transport lower bound, so most are pruned
    without solving their LP.

    Beyond the caps: with ``fallback`` the best alternating-minimization
    result is returned with status ``upper_bound``; otherwise a capacity
    error is raised.  A ``cap_pairs`` raised so far that the assignment
    unions would exceed ``ENUMERATION_CAPACITY`` bytes is refused with a
    capacity error either way, before they are built.

    Argument order is canonicalized internally, making the function exactly
    symmetric.
    """
    cap_pairs = _count(cap_pairs, "cap_pairs")
    cap_support = _count(cap_support, "cap_support")
    if _canonical_key(p_prime) < _canonical_key(p):
        return _transposed(risk_distance_exact(p_prime, p, cap_pairs, cap_support, fallback))

    n_pairs = p.n_predictors * p_prime.n_predictors
    support = (p.nx * p.ny) * (p_prime.nx * p_prime.ny)
    if not fallback:
        within_cap(n_pairs, cap_pairs, "cap_pairs", "the exact solver needs |H||H'|")
        within_cap(support, cap_support, "cap_support",
                   "the exact solver needs a support product")
    elif n_pairs > cap_pairs or support > cap_support:
        return _alternating_upper_bound(p, p_prime)

    costs = _pair_costs(p, p_prime)
    mu, nu = p.eta.ravel(), p_prime.eta.ravel()
    # bounds by LP, not W1: perfbench's selftest counts these LPs (ROADMAP item 1)
    lower = np.array([
        [solve_ot_exact(c.reshape(len(mu), len(nu)), mu, nu)[1] for c in row]
        for row in costs
    ])
    _, best_gamma, _ = _pattern_sweep(
        costs, mu, nu, lower,
        _assignment_unions(p.n_predictors, p_prime.n_predictors),
    )
    value, witness_r = hausdorff_reduction(_costs_under(costs, best_gamma))
    return _result(value, "exact", p, p_prime, best_gamma, r=witness_r)


def _exact_or_none(p: FiniteProblem, q: FiniteProblem, cap_pairs: int,
                   cap_support: int) -> float | None:
    """The exact distance, or None when the pair exceeds the caps."""
    try:
        return risk_distance_exact(p, q, cap_pairs=cap_pairs,
                                   cap_support=cap_support, fallback=False).value
    except CapacityError:
        return None


def _solved_once(solve):
    """``solve``, a function of one array, memoized on the array's bytes.

    Alternating descents re-solve the LPs of converged rounds, and restarts
    reach couplings an earlier restart already visited.  HiGHS is
    deterministic, so a hit returns exactly what a re-solve would (see
    docs/algorithms.md).  The memo lives as long as the returned function,
    i.e. one solver call; callers only read the results it hands out.
    """
    memo: dict[bytes, object] = {}

    def solved(a: np.ndarray):
        key = a.tobytes()
        if key not in memo:
            memo[key] = solve(a)
        return memo[key]

    return solved


def _alternating_upper_bound(
    p: FiniteProblem, p_prime: FiniteProblem
) -> DistanceResult:
    """Alternate between the closed-form correspondence step and the minimax
    coupling LP; a descent heuristic whose result is a certified upper bound."""
    costs = _pair_costs(p, p_prime)
    mu, nu = p.eta.ravel(), p_prime.eta.ravel()
    pattern_lp = _solved_once(lambda r: _minimax_coupling_lp(costs[r], mu, nu))
    starts = _starts(mu, nu, None, _FALLBACK_RESTARTS, _rng(_FALLBACK_SEED))

    best = (np.inf, None, None)
    for gamma in starts:
        gamma_flat = gamma.ravel()
        value = np.inf
        for _ in range(_MAX_ITER):
            cost_matrix = _costs_under(costs, gamma_flat)
            current = hausdorff(cost_matrix)
            if value - current < _DESCENT_TOL * (costs.max() or 1.0):
                break
            value = current
            # re-solve the coupling for the argmin assignment pattern; its
            # optimum can only sit at or below the current objective
            r = np.zeros(cost_matrix.shape, dtype=bool)
            r[np.arange(p.n_predictors), np.argmin(cost_matrix, axis=1)] = True
            r[np.argmin(cost_matrix, axis=0), np.arange(p_prime.n_predictors)] = True
            _, gamma_flat = pattern_lp(r)
        final_value, witness = hausdorff_reduction(_costs_under(costs, gamma_flat))
        if final_value < best[0]:
            best = (final_value, gamma_flat, witness)

    value, gamma_flat, witness = best
    return _result(value, "upper_bound", p, p_prime, gamma_flat, r=witness)


# --------------------------------------------------------------------------
# The profile lower bound
# --------------------------------------------------------------------------

def risk_distance_lower(p: FiniteProblem, p_prime: FiniteProblem) -> float:
    """Certified lower bound: the larger of the optimal-risk gap and the
    Hausdorff distance between loss profile sets."""
    bayes_gap = abs(constrained_bayes_risk(p) - constrained_bayes_risk(p_prime))
    return max(bayes_gap, hausdorff_loss_profiles(p, p_prime))


# --------------------------------------------------------------------------
# Weighted (L^p) variant
# --------------------------------------------------------------------------

def lp_risk_distortion(
    wp: WeightedProblem,
    wp_prime: WeightedProblem,
    rho: np.ndarray,
    gamma: np.ndarray,
    p: float,
) -> float:
    """L^p mean (or supported supremum, for p = inf) of the pair costs under
    a predictor coupling and an observation coupling (``problems._power_mean``)."""
    p = _real(p, "p")
    require(p >= 1, "p", "must be at least 1")
    rho = check_coupling(rho, wp.lam, wp_prime.lam, name="rho")
    pair_costs = pair_cost_matrix(wp.problem, wp_prime.problem, gamma)
    return float(_power_mean(pair_costs, rho, p))


def _transport_step(a: np.ndarray, b: np.ndarray, downstream: np.ndarray):
    """One exact transport half-step over couplings of (a, b), for one
    alternating call: (step, vertices), where ``step`` maps a cost matrix to
    an optimal plan and ``vertices`` is the polytope's vertex array, or None
    when the support product exceeds ``_EXHAUSTIVE_VERTEX_LIMIT``.
    ``downstream`` (k, len(a), len(b)) maps a plan to what the rest of the
    descent reads of it: row r of the image is <downstream[r], plan>.

    On a small polytope the step is the argmin of <cost, v> over the
    vertices, listed once: an LP optimum over a polytope is a vertex, so
    that is the LP's answer.  When another vertex costs within METRIC_TOL of
    the least, the step is the transport LP instead, so HiGHS picks among
    tied vertices.  A large polytope takes the tree simplex
    (``transport._tree_simplex``), started from the basis, among those this
    step has reached, whose plan costs least under the new cost.  Nonbasic
    cells of reduced cost at most METRIC_TOL are tied; the simplex's basis
    inverse prices the image under ``downstream`` like a cost, and when the
    tree cycle of some tied cell moves it by more than METRIC_TOL, the tied
    optima can send the descent different ways and the step is the
    transport LP.  Otherwise every optimal plan has the simplex plan's image
    (see docs/algorithms.md), and the step takes that plan.  Either step is
    memoized on the cost's bytes, tie LP included; callers only read its plans.
    """
    support = _support(a, b)
    if len(support.mu) * len(support.nu) <= _EXHAUSTIVE_VERTEX_LIMIT:
        vertices = coupling_vertices(a, b)
        flat = vertices.reshape(len(vertices), -1)

        def step(cost: np.ndarray) -> np.ndarray:
            values = flat @ cost.ravel()
            k = int(np.argmin(values))
            if np.count_nonzero(values <= values[k] + METRIC_TOL) > 1:
                return solve_ot_exact(cost, a, b)[0]
            return vertices[k]

        return _solved_once(step), vertices

    system, _ = _tree_system(support)
    image = support.restrict(downstream).reshape(len(downstream), -1)
    held: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def simplex_step(cost: np.ndarray) -> np.ndarray:
        block = support.restrict(cost)
        starts = list(held.values())
        start = None
        if starts:
            plans = np.array([plan.ravel() for plan, _ in starts])
            start = starts[int(np.argmin(plans @ block.ravel()))]
        plan, basis, reduced, inverse = _tree_simplex(block, support, start)
        held.setdefault(np.sort(basis).tobytes(), (plan, basis))
        tied = reduced.ravel() <= METRIC_TOL
        tied[basis] = False
        moves = image[:, tied] - image[:, basis] @ inverse @ system[:, tied]
        if np.any(np.abs(moves) > METRIC_TOL):
            return solve_ot_exact(cost, a, b)[0]
        return support.embed(plan)

    return _solved_once(simplex_step), None


def _starts(
    lam: np.ndarray,
    lam_prime: np.ndarray,
    vertices: np.ndarray | None,
    restarts: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Starting couplings of an alternating descent: the independent (and
    maybe the diagonal) coupling, then every listed vertex, else
    ``restarts`` seeded random ones.  They are yielded one at a time and a
    random vertex is drawn when it is reached, so a large ``restarts``
    costs time, not memory."""
    yield np.outer(lam, lam_prime)
    if np.array_equal(lam, lam_prime):
        # the diagonal coupling is a vertex; it is the natural start for
        # self-comparisons and is rarely hit by random sampling
        yield np.diag(lam)
    if vertices is not None:
        yield from vertices
    else:
        for _ in range(restarts):
            yield random_coupling_vertex(lam, lam_prime, rng)


def lp_risk_distance(
    wp: WeightedProblem,
    wp_prime: WeightedProblem,
    p: float = 1.0,
    restarts: int = 8,
    seed: int = 0,
    trace: list | None = None,
) -> DistanceResult:
    """The L^p Risk distance between weighted problems, by alternating exact
    transport steps.

    With the predictor coupling fixed, the observation coupling is re-solved
    by exact transport (for p = 1 this is the exact half-step; for p > 1 the
    transported cost is a surrogate and the true objective is re-evaluated);
    with the observation coupling fixed, the predictor coupling step is exact
    for every p.  A step over a polytope with at most
    ``_EXHAUSTIVE_VERTEX_LIMIT`` supported cells is the least-cost vertex,
    with no LP, unless two vertices tie within METRIC_TOL; a step over a
    larger one is a warm-started tree simplex, with no LP, unless tied
    optima would move what the rest of the descent reads of the plan (the
    pair costs, for the observation coupling; the next observation cost,
    for the predictor coupling).  On a tie the step solves the transport
    LP, so values and ``trace`` lengths are those of an LP per step (see
    :func:`_transport_step`).  Every call descends from each start of
    :func:`_starts`: the independent coupling, the diagonal coupling when
    the two weightings coincide, and polytope vertices: all of them when
    the predictor supports are small (which makes the p = 1 result provably
    optimal), a seeded random sample otherwise.  Only the supported
    observation cells enter the steps, divided by t, the largest pair cost:
    no power of them overflows, every step tolerance is relative to t, and
    the result scales with the losses.  ``trace``, a list when given,
    receives the objective after every round, which may underflow to 0 at a
    large p; the value reported, the L^p mean at the witnesses, is scaled
    so that it does not (``problems._power_mean``).

    The result is labeled ``exact`` only in the trivially tight case of
    singleton predictor sets, else ``upper_bound``.  For p = 1 the objective
    is nonincreasing along iterations.
    """
    p = _real(p, "p")
    require(1 <= p < np.inf, "p", "must lie in [1, inf)")
    restarts = _count(restarts, "restarts")
    require(trace is None or isinstance(trace, list), "trace",
            "must be None or a list")
    pa, pb = wp.problem, wp_prime.problem
    support = _support(pa.eta.ravel(), pb.eta.ravel())
    mu, nu = support.mu, support.nu
    m, n = len(mu), len(nu)
    rng = _rng(_count(seed, "seed"))

    n_h, n_hp = pa.n_predictors, pb.n_predictors
    flat_pairwise = _pair_costs(pa, pb, support)
    top = float(flat_pairwise.max()) or 1.0
    unit = flat_pairwise / top
    pow_pairwise = unit**p

    # each step's downstream: the pair costs read the gamma plan, and the
    # next gamma cost reads the rho plan
    gamma_step, _ = _transport_step(mu, nu, unit.reshape(n_h * n_hp, m, n))
    rho_step, rhos = _transport_step(
        wp.lam, wp_prime.lam, np.moveaxis(pow_pairwise, -1, 0))

    best = (np.inf, None, None)
    for rho in _starts(wp.lam, wp_prime.lam, rhos, restarts, rng):
        current = np.inf
        for _ in range(_MAX_ITER):
            gamma_cost = np.tensordot(rho, pow_pairwise, axes=2)
            gamma_flat = gamma_step(gamma_cost.reshape(m, n)).ravel()
            pair_cost = (unit @ gamma_flat) ** p
            rho = rho_step(pair_cost)
            value = top * float(np.sum(rho * pair_cost) ** (1.0 / p))
            if trace is not None:
                trace.append(value)
            if current - value < _DESCENT_TOL * top:
                break
            current = value
        if value < best[0]:
            best = (value, gamma_flat, rho)

    _, gamma_flat, rho = best
    status = "exact" if n_h == 1 and n_hp == 1 else "upper_bound"
    return _result(_power_mean(flat_pairwise @ gamma_flat, rho, p), status, pa, pb,
                   support.embed(gamma_flat.reshape(m, n)), rho=rho)


# --------------------------------------------------------------------------
# Bilinear relaxation for metric measure spaces
# --------------------------------------------------------------------------

def bilinear_gw(
    dist_a: np.ndarray,
    mu_a: np.ndarray,
    dist_b: np.ndarray,
    mu_b: np.ndarray,
) -> float:
    """Minimize the metric-gap integral over two independent couplings:
    the p = 1 weighted Risk distance of the encoded spaces.

    The objective int int |d_A(a2,a1) - d_B(b2,b1)| dgamma(a1,b1) drho(a2,b2)
    is :func:`lp_risk_distance` at p = 1 between the two
    :func:`encode_mm_space_weighted` problems: their joint laws sit on the
    diagonal, so the constant predictor at ``a2`` has loss d_A(a2, a1) at the
    point ``a1``, and the pair cost of (a2, b2) under gamma is the inner
    integral.  The objective is bilinear, so its minimum is attained at a
    vertex pair; when the support product is at most
    ``_EXHAUSTIVE_VERTEX_LIMIT`` the descent starts from every predictor
    coupling vertex and the value is exact, otherwise it is an upper bound
    from seeded random starts.  Every step reaches the transport LP only
    on a tie.
    """
    return lp_risk_distance(
        _mm_space(None, dist_a, mu_a, "dist_a", "mu_a"),
        _mm_space(None, dist_b, mu_b, "dist_b", "mu_b"),
        p=1.0,
    ).value


# --------------------------------------------------------------------------
# Geodesics and weak isomorphism
# --------------------------------------------------------------------------

def geodesic_problem(
    p0: FiniteProblem,
    p1: FiniteProblem,
    witness: DistanceResult,
    t: float,
) -> FiniteProblem:
    """The point at parameter ``t`` on the straight line between two problems.

    Requires exact optimal witnesses (a DistanceResult, not raw couplings):
    the interpolant lives on the product spaces, carries the witness coupling
    as its joint law, blends the losses linearly, and uses the witness
    correspondence pairs as product predictors.  Endpoints are at distance
    zero from the originals, and the family is a geodesic.
    """
    t = _real(t, "t")
    require(0.0 <= t <= 1.0, "t", "must lie in [0, 1]")
    if witness.status != "exact":
        raise ValidationError(
            "geodesic construction needs exact optimal witnesses", field="witness"
        )
    if witness.witness_coupling is None or witness.witness_correspondence is None:
        raise ValidationError("witnesses are missing", field="witness")
    gamma = witness.witness_coupling
    r = check_correspondence(witness.witness_correspondence)
    check_coupling(gamma, p0.eta, p1.eta, name="witness coupling")
    _mask(r, "witness", (p0.n_predictors, p1.n_predictors))

    x_labels = tuple(_join_labels(pair, "|")
                     for pair in itertools.product(p0.x_labels, p1.x_labels))
    y_labels = tuple(_join_labels(pair, "|")
                     for pair in itertools.product(p0.y_labels, p1.y_labels))
    eta_t = np.transpose(gamma, (0, 2, 1, 3)).reshape(
        p0.nx * p1.nx, p0.ny * p1.ny
    )
    ones0 = np.ones((p1.ny, p1.ny))
    loss_t = (1.0 - t) * np.kron(p0.loss, ones0) + t * np.kron(
        np.ones((p0.ny, p0.ny)), p1.loss
    )
    h0, h1 = np.nonzero(r)
    rows = p0.predictors[h0][:, :, None] * p1.ny + p1.predictors[h1][:, None, :]
    predictors = np.unique(rows.reshape(len(h0), -1), axis=0)
    return FiniteProblem(
        x_labels=x_labels,
        y_labels=y_labels,
        eta=eta_t,
        loss=loss_t,
        predictors=predictors,
    )


def weak_isomorphism_witness(
    p: FiniteProblem,
    p_prime: FiniteProblem,
    cap_pairs: int = DEFAULT_CAP_PAIRS,
    cap_support: int = DEFAULT_CAP_SUPPORT,
) -> tuple[np.ndarray, np.ndarray] | None:
    """A zero-distortion (correspondence, coupling) pair if one exists.

    Distance zero (at most METRIC_TOL times the largest loss) with attained
    witnesses characterizes interchangeable problems; capacity errors from
    the exact solver propagate.
    """
    result = risk_distance_exact(
        p, p_prime, cap_pairs=cap_pairs, cap_support=cap_support, fallback=False
    )
    if result.value <= METRIC_TOL * max(p.loss.max(), p_prime.loss.max()):
        return result.witness_correspondence, result.witness_coupling
    return None
