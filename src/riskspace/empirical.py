"""Empirical problems, convergence experiments, and Rademacher complexity.

Randomness is deterministic end to end: every sampler takes an integer seed,
derives sub-streams with ``numpy.random.SeedSequence``, and draws from PCG64.
The generator identity ("numpy-PCG64") is recorded in every report so frozen
regression values survive toolchain changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, require
from . import distance as _distance
from .corruption import tv_bound
from .problems import FiniteProblem, _count, _index_array, _rng

PRNG_ID = "numpy-PCG64"

RADEMACHER_CAPACITY = 10**6
_RADEMACHER_BLOCK = 1024  # multisets per vectorised step; larger blocks raise peak RSS


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    trial: int
    seed: int
    tv_bound: float
    exact_distance: float | None
    bound_used: str


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    seed: int
    prng: str = PRNG_ID


def _resample(
    problem: FiniteProblem, n: int, rng: np.random.Generator
) -> FiniteProblem:
    """The empirical problem after n i.i.d. draws from the joint law.

    Only the joint law changes: it becomes the average of the n observed
    point masses.
    """
    n = _count(n, "n", least=1)
    flat = problem.eta.ravel()
    draws = rng.choice(len(flat), size=n, p=flat)
    counts = np.bincount(draws, minlength=len(flat)).astype(float)
    return replace(problem, eta=(counts / n).reshape(problem.eta.shape))


def sample_empirical(problem: FiniteProblem, n: int, seed: int) -> FiniteProblem:
    """The empirical problem after n seeded i.i.d. draws from the joint law.

    Identical seeds give bit-identical samples.
    """
    return _resample(problem, n, _rng(_count(seed, "seed")))


def convergence_experiment(
    problem: FiniteProblem,
    ns: list[int],
    trials: int,
    seed: int,
    cap_pairs: int = _distance.DEFAULT_CAP_PAIRS,
    cap_support: int = _distance.DEFAULT_CAP_SUPPORT,
) -> ExperimentReport:
    """Resample the problem at several sample sizes and record, per trial,
    the total-variation certificate and (when the exact solver fits in its
    caps) the exact distance to the original problem.

    Trials are independent; each derives its own sub-seed from
    (seed, n, trial).
    """
    ns = _index_array(ns, "ns", (None,))
    require(ns.size >= 1, "ns", "must list at least one sample size")
    trials = _count(trials, "trials", least=1)
    seed = _count(seed, "seed")
    ell_max = float(problem.loss.max())
    rows = []
    for n in ns.tolist():
        for trial in range(trials):
            empirical = _resample(problem, n, _rng(seed, n, trial))
            bound = tv_bound(problem, empirical, ell_max)
            try:
                exact = _distance.risk_distance_exact(
                    problem,
                    empirical,
                    cap_pairs=cap_pairs,
                    cap_support=cap_support,
                    fallback=False,
                ).value
            except CapacityError:
                exact = None
            rows.append(
                ExperimentRow(
                    n=n,
                    trial=trial,
                    seed=seed,
                    tv_bound=bound,
                    exact_distance=exact,
                    bound_used="tv",
                )
            )
    return ExperimentReport(rows=tuple(rows), seed=seed)


# --------------------------------------------------------------------------
# Rademacher complexity
# --------------------------------------------------------------------------

def rademacher_mc(
    problem: FiniteProblem, m: int, num_samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the order-m Rademacher complexity.

    Each sample draws m observations from the joint law and m signs, and
    takes the best sign-weighted average loss over the predictor list.
    Returns (mean, standard error).
    """
    m = _count(m, "m", least=1)
    num_samples = _count(num_samples, "num_samples", least=1)
    rng = _rng(_count(seed, "seed"))
    flat_losses = problem.predictor_loss_stack().reshape(problem.n_predictors, -1)
    flat_eta = problem.eta.ravel()
    draws = rng.choice(len(flat_eta), size=(num_samples, m), p=flat_eta)
    signs = rng.integers(0, 2, size=(num_samples, m)) * 2 - 1
    # sup_h (1/m) sum_i sigma_i * loss_h(obs_i), vectorized over samples
    per_h = np.einsum("sm,hsm->sh", signs, flat_losses[:, draws]) / m
    values = per_h.max(axis=1)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else 0.0
    return mean, se


def _exhaustive_rademacher(values: np.ndarray, weights: np.ndarray, m: int) -> float:
    """Exact order-m Rademacher complexity of the function class whose rows
    of ``values`` are evaluated at atoms of probability ``weights``.

    The m draws are i.i.d. (atom, sign) pairs of probability weights[a] / 2
    and the supremum is symmetric in them, so each multiset of
    positive-probability pairs is evaluated once, weighted by
    m! / prod c_j! * prod p_j^c_j, in lazy blocks of ``_RADEMACHER_BLOCK``
    (docs/algorithms.md).  The refusal still counts the atoms^m * 2^m
    (tuple, sign vector) terms, so which inputs are accepted depends on the
    sizes alone.
    """
    m = _count(m, "m", least=1)
    atoms = len(weights)
    work = (atoms**m) * (2**m)
    if work > RADEMACHER_CAPACITY:
        raise CapacityError(
            f"exhaustive expectation needs atoms^m * 2^m <= "
            f"{RADEMACHER_CAPACITY}, got {work}",
            cap="rademacher",
            actual=work,
        )
    atom = np.repeat(np.flatnonzero(weights), 2)
    prob = weights[atom] / 2
    signed = values[:, atom] * np.tile([-1.0, 1.0], len(atom) // 2)
    draws = itertools.combinations_with_replacement(range(len(atom)), m)
    total = 0.0
    for block in iter(lambda: list(itertools.islice(draws, _RADEMACHER_BLOCK)), []):
        pairs = np.array(block)  # (multisets, m), each row sorted
        # prod c_j! as the product of the running length of each row's ties
        run = ties = np.ones(len(pairs))
        for i in range(1, m):
            run = np.where(pairs[:, i] == pairs[:, i - 1], run + 1.0, 1.0)
            ties = ties * run
        mass = math.factorial(m) / ties * prob[pairs].prod(axis=1)
        sups = signed[:, pairs].sum(axis=2).max(axis=0) / m
        total += float(mass @ sups)
    return total


def rademacher_exact_small(problem: FiniteProblem, m: int) -> float:
    """Exact order-m Rademacher complexity by exhaustive expectation over the
    observation grid.  Feasible only while (nx*ny)^m * 2^m stays at desk
    scale.
    """
    flat_losses = problem.predictor_loss_stack().reshape(problem.n_predictors, -1)
    return _exhaustive_rademacher(flat_losses, problem.eta.ravel(), m)


def rademacher_gap_bound(
    p: FiniteProblem,
    p_prime: FiniteProblem,
    r: np.ndarray,
    gamma: np.ndarray,
    m: int,
) -> float:
    """Certified cap on the Rademacher complexity gap between two problems.

    Evaluates the witnesses' risk distortion plus twice the exact Rademacher
    complexity of the coupled loss-gap class, checks that the actual gap
    |R_m(P) - R_m(P')| respects it, and returns the cap.
    """
    distortion = _distance.risk_distortion(p, p_prime, r, gamma)
    # the loss-gap class {|l_h - l'_{h'}|} over the coupled observation space
    gaps = _distance._pair_costs(p, p_prime)
    gap_complexity = _exhaustive_rademacher(
        gaps.reshape(-1, gaps.shape[-1]),
        np.asarray(gamma, dtype=float).ravel(),
        m,
    )
    bound = distortion + 2.0 * gap_complexity
    actual = abs(rademacher_exact_small(p, m) - rademacher_exact_small(p_prime, m))
    if actual > bound + 1e-9:
        raise AssertionError(
            f"Rademacher gap {actual!r} exceeds its certificate {bound!r}"
        )
    return float(bound)
