"""Risk distortion, the exact Risk distance, its bounds, weighted variants,
geodesics, and the bilinear relaxation for metric measure spaces.

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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog  # noqa: F401  unused; perfbench's tracer wraps this binding

from .corruption import (
    _loss_swap_bound,
    _require_shared,
    predictor_set_bound,
    w1_eta_bound,
)
from .errors import CapacityError, ValidationError, require
from .problems import (
    FiniteProblem,
    WeightedProblem,
    _count,
    _float_array,
    _freeze,
    _mask,
    _mm_space,
    _real,
    _rng,
    constrained_bayes_risk,
)
from .transport import (
    _coupling_lp,
    _Support,
    _support,
    check_coupling,
    coupling_vertices,
    hausdorff,
    hausdorff_loss_profiles,
    random_coupling_vertex,
    solve_ot_exact,
)

DEFAULT_CAP_PAIRS = 12
DEFAULT_CAP_SUPPORT = 256

# Predictor-coupling polytopes with support product at most this are searched
# from every vertex; for a bilinear objective that makes the alternating
# scheme provably optimal, not just a heuristic.
_EXHAUSTIVE_VERTEX_LIMIT = 9

# Alternating descents stop after _MAX_ITER rounds or once a round gains less
# than _DESCENT_TOL.  The fallback beyond the caps starts from the independent
# coupling and _FALLBACK_RESTARTS random vertices drawn with _FALLBACK_SEED.
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


def check_correspondence(r: np.ndarray, name: str = "correspondence") -> np.ndarray:
    r = _mask(r, name, (None, None))
    require(r.any(axis=1), name, "must cover some column")
    if not np.all(r.any(axis=0)):
        (hp,) = np.argwhere(~r.any(axis=0))[0]
        raise ValidationError(
            f"{name} column {hp} is not covered", field=f"{name}[:,{hp}]"
        )
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
    Hausdorff value of the matrix; the maximal witness keeps every pair whose
    cost does not exceed that value.
    """
    costs = _float_array(costs, "costs", (None, None))
    require(costs.size > 0, "costs", "must be a nonempty pair-cost matrix")
    require(np.isfinite(costs), "costs", "must be finite")
    value = hausdorff(costs)
    witness = costs <= value + 1e-12
    return value, check_correspondence(witness, name="witness")


# --------------------------------------------------------------------------
# Epigraph LP: minimize the max of linear functionals over a coupling polytope
# --------------------------------------------------------------------------

def _minimax_coupling_lp(
    costs: np.ndarray, mu: np.ndarray, nu: np.ndarray
) -> tuple[float, np.ndarray]:
    """min over couplings gamma of max_k <costs[k], gamma>.

    ``costs`` has one row per functional, flat over the (len(mu), len(nu))
    grid; each row is one constraint, in row order.  Zero-mass
    rows/columns are dropped before the solve and reinserted as zeros.
    """
    support = _support(mu, nu)
    k = len(costs)
    sub_costs = support.restrict(costs.reshape(k, *support.shape)).reshape(k, -1)
    objective = np.zeros(sub_costs.shape[1] + 1)
    objective[-1] = 1.0
    a_ub = np.hstack([sub_costs, np.full((k, 1), -1.0)])
    gamma_flat = support.embed(_coupling_lp(support, objective, a_ub)).ravel()
    return max(float(c @ gamma_flat) for c in costs), gamma_flat


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


def _assignment_unions(n_h: int, n_hp: int) -> np.ndarray:
    """Distinct unions of a row assignment H -> H' and a column assignment
    H' -> H, as a boolean (k, n_h, n_hp) stack of pair sets."""
    a = np.indices((n_hp,) * n_h).reshape(n_h, -1).T
    b = np.indices((n_h,) * n_hp).reshape(n_hp, -1).T
    rows = a[:, :, None] == np.arange(n_hp)
    cols = b[:, None, :] == np.arange(n_h)[:, None]
    unions = (rows[:, None] | cols[None, :]).reshape(-1, n_h * n_hp)
    # deduplicated on packed bytes: np.unique over boolean rows is far slower
    packed = np.packbits(unions, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                         return_index=True)
    return unions[first].reshape(-1, n_h, n_hp)


def _pattern_sweep(
    costs: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    candidates: np.ndarray,
    admissible=None,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Minimum of the minimax coupling LP over candidate pair sets.

    ``costs`` is the pair-cost tensor (:func:`_pair_costs`); ``candidates``
    a boolean (k, |H|, |H'|) stack of pair sets.  A set's LP value is at
    least its score, the largest transport minimum ``m[h, h']`` of its pairs
    (docs/algorithms.md, Step 2), so the sets are solved in increasing score
    order, ties broken by their row-major pair lists, and the sweep stops at
    the first score that cannot improve on the best value.  ``admissible``
    filters the sets as they are reached.

    Returns (value, flat coupling, pair set) of the best set, or
    (inf, None, None) when no set is admissible.
    """
    lower = np.array([
        [solve_ot_exact(c.reshape(len(mu), len(nu)), mu, nu)[1] for c in row]
        for row in costs
    ])
    flat = candidates.reshape(len(candidates), -1)
    n = flat.shape[1]
    scores = np.where(flat, lower.ravel(), -np.inf).max(axis=1)
    # pair lists padded with -1, so a list sorts before its extensions
    pairs = np.sort(np.where(flat, np.arange(n), n), axis=1)
    pairs[pairs == n] = -1
    best: tuple[float, np.ndarray | None, np.ndarray | None] = (np.inf, None, None)
    for i in np.lexsort((*pairs.T[::-1], scores)):
        if scores[i] >= best[0] - 1e-12:
            break
        r = candidates[i]
        if admissible is not None and not admissible(r):
            continue
        value, gamma_flat = _minimax_coupling_lp(costs[r], mu, nu)
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
    error is raised.

    Argument order is canonicalized internally, making the function exactly
    symmetric.
    """
    cap_pairs = _count(cap_pairs, "cap_pairs")
    cap_support = _count(cap_support, "cap_support")
    if _canonical_key(p_prime) < _canonical_key(p):
        result = risk_distance_exact(
            p_prime, p, cap_pairs=cap_pairs, cap_support=cap_support,
            fallback=fallback,
        )
        return DistanceResult(
            value=result.value,
            status=result.status,
            witness_coupling=None
            if result.witness_coupling is None
            else np.transpose(result.witness_coupling, (2, 3, 0, 1)),
            witness_correspondence=None
            if result.witness_correspondence is None
            else result.witness_correspondence.T,
        )

    n_pairs = p.n_predictors * p_prime.n_predictors
    support = (p.nx * p.ny) * (p_prime.nx * p_prime.ny)
    if n_pairs > cap_pairs or support > cap_support:
        if not fallback:
            raise CapacityError(
                f"exact solver caps exceeded: |H||H'| = {n_pairs} (cap"
                f" {cap_pairs}), support product = {support} (cap"
                f" {cap_support})",
                cap="cap_pairs" if n_pairs > cap_pairs else "cap_support",
                actual=n_pairs if n_pairs > cap_pairs else support,
            )
        return _alternating_upper_bound(p, p_prime)

    costs = _pair_costs(p, p_prime)
    _, best_gamma, _ = _pattern_sweep(
        costs, p.eta.ravel(), p_prime.eta.ravel(),
        _assignment_unions(p.n_predictors, p_prime.n_predictors),
    )
    value, witness_r = hausdorff_reduction(_costs_under(costs, best_gamma))
    return DistanceResult(
        value=max(float(value), 0.0),
        status="exact",
        witness_coupling=best_gamma.reshape(p.eta.shape + p_prime.eta.shape),
        witness_correspondence=witness_r,
    )


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
    rng = _rng(_FALLBACK_SEED)
    inits = [np.outer(mu, nu)]
    inits += [random_coupling_vertex(mu, nu, rng) for _ in range(_FALLBACK_RESTARTS)]

    best = (np.inf, None, None)
    for gamma in inits:
        gamma_flat = gamma.ravel()
        value = np.inf
        for _ in range(_MAX_ITER):
            cost_matrix = _costs_under(costs, gamma_flat)
            current = hausdorff(cost_matrix)
            if value - current < _DESCENT_TOL:
                value = min(value, current)
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
    return DistanceResult(
        value=max(float(value), 0.0),
        status="upper_bound",
        witness_coupling=gamma_flat.reshape(p.eta.shape + p_prime.eta.shape),
        witness_correspondence=witness,
    )


# --------------------------------------------------------------------------
# Shared-structure upper bounds and the profile lower bound
# --------------------------------------------------------------------------

def risk_distance_upper_shared(
    p: FiniteProblem, p_prime: FiniteProblem, mode: str
) -> float:
    """Closed-form upper bounds for problems differing in one component.

    ``shared_eta_H``: same joint law and predictors, losses may differ;
    the bound is the worst per-predictor expected loss gap.
    ``shared_all_but_eta``: only the joint law differs; exact transport under
    the predictor-uniform loss-gap pseudometric on observations.
    ``shared_all_but_H``: only the predictor set differs; Hausdorff distance
    between the predictor sets in L1(eta).

    Two problems that do not share what ``mode`` needs are refused naming
    ``p_prime``.
    """
    if mode == "shared_eta_H":
        return _loss_swap_bound(p, p_prime)
    if mode == "shared_all_but_eta":
        return w1_eta_bound(p, p_prime)
    if mode == "shared_all_but_H":
        _require_shared(p, p_prime, "eta", "loss")
        return predictor_set_bound(p, p_prime.predictors)[1]
    raise ValidationError(f"unknown mode {mode!r}", field="mode")


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
    """L^p average (or supported supremum, for p = inf) of the pair costs
    under a predictor coupling and an observation coupling."""
    p = _real(p, "p")
    require(p >= 1, "p", "must be at least 1")
    rho = check_coupling(rho, wp.lam, wp_prime.lam, name="rho")
    pair_costs = pair_cost_matrix(wp.problem, wp_prime.problem, gamma)
    if p == np.inf:
        return float(pair_costs[rho > 0].max())
    return float(np.sum(rho * pair_costs**p) ** (1.0 / p))


def _rho_inits(
    lam: np.ndarray, lam_prime: np.ndarray, restarts: int, rng: np.random.Generator
) -> list[np.ndarray]:
    inits = [np.outer(lam, lam_prime)]
    if lam.shape == lam_prime.shape and np.array_equal(lam, lam_prime):
        # the diagonal coupling is a vertex; it is the natural start for
        # self-comparisons and is rarely hit by random sampling
        inits.append(np.diag(lam))
    support = int(np.count_nonzero(lam)) * int(np.count_nonzero(lam_prime))
    if support <= _EXHAUSTIVE_VERTEX_LIMIT:
        inits.extend(coupling_vertices(lam, lam_prime))
    else:
        inits.extend(
            random_coupling_vertex(lam, lam_prime, rng) for _ in range(restarts)
        )
    return inits


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
    for every p.  Restarts cover the independent coupling, the diagonal
    coupling when the two weightings coincide, and polytope vertices: all of
    them when the predictor supports are small (which makes the p = 1 result
    provably optimal), a seeded random sample otherwise; at p = 1 with both
    polytopes that small, every vertex pair instead, with no LP.  Only the
    supported observation cells enter the steps.

    The result is labeled ``exact`` only in the trivially tight case of
    singleton predictor sets, else ``upper_bound``.  For p = 1 the objective
    is nonincreasing along iterations.
    """
    p = _real(p, "p")
    require(1 <= p < np.inf, "p", "must lie in [1, inf)")
    restarts = _count(restarts, "restarts")
    pa, pb = wp.problem, wp_prime.problem
    support = _support(pa.eta.ravel(), pb.eta.ravel())
    mu, nu = support.mu, support.nu
    m, n = len(mu), len(nu)
    rng = _rng(_count(seed, "seed"))

    n_h, n_hp = pa.n_predictors, pb.n_predictors
    flat_pairwise = _pair_costs(pa, pb, support)
    pow_pairwise = flat_pairwise if p == 1.0 else flat_pairwise**p

    def objective(rho: np.ndarray, gamma_flat: np.ndarray) -> float:
        pair = flat_pairwise @ gamma_flat
        return float(np.sum(rho * pair**p) ** (1.0 / p))

    gamma_step = _solved_once(lambda c: solve_ot_exact(c, mu, nu))
    rho_step = _solved_once(lambda c: solve_ot_exact(c, wp.lam, wp_prime.lam))

    best = (np.inf, None, None)
    inits = []
    rho_support = np.count_nonzero(wp.lam) * np.count_nonzero(wp_prime.lam)
    if p == 1.0 and max(rho_support, m * n) <= _EXHAUSTIVE_VERTEX_LIMIT:
        rhos = coupling_vertices(wp.lam, wp_prime.lam)
        gammas = coupling_vertices(mu, nu).reshape(-1, m * n)
        values = np.einsum("vij,ijk,wk->vw", rhos, flat_pairwise, gammas)
        v, w = np.unravel_index(np.argmin(values), values.shape)
        best = (values[v, w], gammas[w], rhos[v])
        if trace is not None:
            trace.append(float(values[v, w]))
    else:
        inits = _rho_inits(wp.lam, wp_prime.lam, restarts, rng)
    for rho in inits:
        gamma_flat = np.outer(mu, nu).ravel()
        current = np.inf
        for _ in range(_MAX_ITER):
            gamma_cost = np.tensordot(rho, pow_pairwise, axes=2)
            gamma, _ = gamma_step(gamma_cost.reshape(m, n))
            gamma_flat = gamma.ravel()
            pair = flat_pairwise @ gamma_flat
            rho, _ = rho_step(pair**p)
            value = objective(rho, gamma_flat)
            if trace is not None:
                trace.append(value)
            if current - value < _DESCENT_TOL:
                current = min(current, value)
                break
            current = value
        value = objective(rho, gamma_flat)
        if value < best[0]:
            best = (value, gamma_flat, rho)

    value, gamma_flat, rho = best
    status = "exact" if n_h == 1 and n_hp == 1 else "upper_bound"
    return DistanceResult(
        value=max(float(value), 0.0),
        status=status,
        witness_coupling=support.embed(gamma_flat.reshape(m, n)).reshape(
            pa.eta.shape + pb.eta.shape),
        witness_predictor_coupling=rho,
    )


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
    ``_EXHAUSTIVE_VERTEX_LIMIT`` every vertex pair is evaluated and the
    value is exact, otherwise it is an upper bound.
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

    x_labels = tuple(
        f"{a}|{b}" for a in p0.x_labels for b in p1.x_labels
    )
    y_labels = tuple(
        f"{a}|{b}" for a in p0.y_labels for b in p1.y_labels
    )
    eta_t = np.transpose(gamma, (0, 2, 1, 3)).reshape(
        p0.nx * p1.nx, p0.ny * p1.ny
    )
    ones0 = np.ones((p1.ny, p1.ny))
    loss_t = (1.0 - t) * np.kron(p0.loss, ones0) + t * np.kron(
        np.ones((p0.ny, p0.ny)), p1.loss
    )
    rows = []
    for h0, h1 in np.argwhere(r):
        pred0 = p0.predictors[h0]
        pred1 = p1.predictors[h1]
        product = (pred0[:, None] * p1.ny + pred1[None, :]).ravel()
        rows.append(product)
    predictors = np.unique(np.array(rows, dtype=np.int64), axis=0)
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

    Distance zero with attained witnesses characterizes interchangeable
    problems; capacity errors from the exact solver propagate.
    """
    result = risk_distance_exact(
        p, p_prime, cap_pairs=cap_pairs, cap_support=cap_support, fallback=False
    )
    if result.value <= 1e-9:
        return result.witness_correspondence, result.witness_coupling
    return None
