"""Corruption models and their distance certificates.

Each operation here transforms a problem the way a real data pipeline might
(biased collection, dropped regions, label noise, joint-space noise, loss
substitution, predictor-set swaps) and returns the transformed problem
together with an upper bound on how far the transformation can have moved it.
Bounds compose along a pipeline by the triangle inequality, so a sequence of
stages yields a ledger of per-stage and cumulative certificates.  The
shared-structure upper bounds (``risk_distance_upper_shared``) apply them to
two problems that differ in one component: the loss, joint law or predictors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, require
from .problems import (
    METRIC_TOL,
    FiniteProblem,
    WeightedProblem,
    _float_array,
    _mask,
    _power_mean,
    _real,
    cross_predictor_pseudometric,
)
from .transport import (
    check_markov_kernel,
    hausdorff,
    solve_ot_exact,
    total_variation,
)


# --------------------------------------------------------------------------
# Sampling bias
# --------------------------------------------------------------------------

def apply_bias_density(
    problem: FiniteProblem, f: np.ndarray
) -> tuple[FiniteProblem, float]:
    """Reweight the joint law by a density ``f`` and certify the move.

    The certificate is :func:`tv_bound` at the largest loss: that loss times
    half the eta-expected |1 - f|, the total variation of the reweighting.
    """
    f = _float_array(f, "f", problem.eta.shape)
    require(np.isfinite(f) & (f >= 0), "f", "must be a finite nonnegative density")
    total = float(np.sum(f * problem.eta))
    if abs(total - 1.0) > METRIC_TOL:
        raise ValidationError(
            f"f integrates to {total!r} against eta, expected 1", field="f"
        )
    biased = replace(problem, eta=f * problem.eta / total)
    return biased, tv_bound(problem, biased, float(problem.loss.max()))


def restrict(
    problem: FiniteProblem, a_mask: np.ndarray
) -> tuple[FiniteProblem, float]:
    """Condition the joint law on a region of the observation space.

    The certificate is the largest loss times the discarded mass (:func:`tv_bound`).
    """
    a_mask = _mask(a_mask, "A", problem.eta.shape)
    mass = float(problem.eta[a_mask].sum())
    require(mass > 0, "A", "must have positive mass")
    restricted = replace(problem, eta=np.where(a_mask, problem.eta, 0.0) / mass)
    return restricted, tv_bound(problem, restricted, float(problem.loss.max()))


# --------------------------------------------------------------------------
# Joint-law substitution bounds
# --------------------------------------------------------------------------

def _require_shared(p: FiniteProblem, p_prime: FiniteProblem, *parts: str):
    """Refuse, naming ``p_prime``, two problems that differ in their label
    sets or in any of the named arrays (``"eta"``, ``"loss"``,
    ``"predictors"``): the one check behind every bound that holds only for
    problems sharing those components."""
    if (
        p.x_labels != p_prime.x_labels
        or p.y_labels != p_prime.y_labels
        or not all(np.array_equal(getattr(p, a), getattr(p_prime, a)) for a in parts)
    ):
        raise ValidationError(
            f"problems must share their label sets and {', '.join(parts)}",
            field="p_prime",
        )


def tv_bound(p: FiniteProblem, p_prime: FiniteProblem, ell_max: float) -> float:
    """Bound a joint-law substitution by loss range times total variation."""
    _require_shared(p, p_prime, "loss", "predictors")
    ell_max = _real(ell_max, "ell_max")
    require(float(p.loss.max()) <= ell_max < np.inf, "ell_max",
            f"must be finite and at least the largest loss {float(p.loss.max())}")
    return ell_max * total_variation(p.eta.ravel(), p_prime.eta.ravel())


def s_metric(problem: FiniteProblem) -> np.ndarray:
    """Worst-case (over predictors) loss gap between observation pairs.

    A pseudometric on the flattened observation grid; the natural ground cost
    for transporting one joint law onto another without disturbing any
    predictor's risk more than necessary.
    """
    flat = problem.predictor_loss_stack().reshape(problem.n_predictors, -1)
    return np.abs(flat[:, :, None] - flat[:, None, :]).max(axis=0)


def s_metric_weighted(wp: WeightedProblem, p: float) -> np.ndarray:
    """Weighted analog of :func:`s_metric`: the lambda-L^p mean of the
    per-predictor loss gaps (``problems._power_mean``)."""
    p = _real(p, "p")
    require(1 <= p < np.inf, "p", "must lie in [1, inf)")
    flat = wp.problem.predictor_loss_stack().reshape(wp.problem.n_predictors, -1)
    return _power_mean(np.abs(flat[:, :, None] - flat[:, None, :]), wp.lam, p)


def w1_eta_bound(p: FiniteProblem, p_prime: FiniteProblem) -> float:
    """Bound a joint-law substitution by exact transport under the
    observation pseudometric of :func:`s_metric`."""
    _require_shared(p, p_prime, "loss", "predictors")
    _, value = solve_ot_exact(s_metric(p), p.eta.ravel(), p_prime.eta.ravel())
    return float(value)


# --------------------------------------------------------------------------
# Label noise
# --------------------------------------------------------------------------

def no_noise_kernel(problem: FiniteProblem) -> np.ndarray:
    """The label-noise kernel that reproduces each observed label exactly."""
    return np.tile(np.eye(problem.ny), (problem.nx, 1))


def _label_kernel(problem: FiniteProblem, n_kernel: np.ndarray) -> np.ndarray:
    """``n_kernel`` checked as a label-noise kernel of ``problem``."""
    n_kernel = check_markov_kernel(n_kernel, "kernel")
    return _float_array(n_kernel, "kernel", (problem.nx * problem.ny, problem.ny))


def apply_label_noise(problem: FiniteProblem, n_kernel: np.ndarray) -> FiniteProblem:
    """Push each observation's label through an input-dependent noise kernel.

    ``n_kernel`` rows are indexed by flattened (x, y) pairs and give the law
    of the corrupted label.  The input marginal is preserved.
    """
    rows = _label_kernel(problem, n_kernel).reshape(problem.nx, problem.ny, problem.ny)
    return replace(problem, eta=np.matmul(problem.eta[:, None, :], rows)[:, 0])


def noise_bound_metric(
    problem: FiniteProblem,
    n_kernel: np.ndarray,
    d_y: np.ndarray,
    lipschitz_c: float,
) -> float:
    """Certificate for label noise when the loss respects a label metric.

    Verifies that |loss(z, y) - loss(z, y')| <= C * d_y(y, y') on every
    triple, within METRIC_TOL times the largest loss (the bound is vacuous
    otherwise, so the check refuses rather than returning a meaningless
    number), then charges C times the eta-average transport cost from each
    noisy row to the point mass at its observed label.  A coupling with a
    point mass is unique, so that cost is the expectation sum_j N[r, j]
    d_y(j, y) of row r = (x, y).
    """
    lipschitz_c = _real(lipschitz_c, "lipschitz_c")
    require(0 <= lipschitz_c < np.inf, "lipschitz_c", "must be finite and nonnegative")
    d_y = _float_array(d_y, "d_y", (problem.ny, problem.ny))
    require(np.isfinite(d_y), "d_y", "must be finite")
    gaps = np.abs(problem.loss[:, :, None] - problem.loss[:, None, :])
    allowed = lipschitz_c * d_y[None, :, :]
    slack = gaps - allowed
    if np.max(slack) > METRIC_TOL * problem.loss.max():
        z, y, yp = np.unravel_index(np.argmax(slack), slack.shape)
        raise ValidationError(
            f"loss is not {lipschitz_c}-Lipschitz in its second argument:"
            f" |loss[{z}][{y}] - loss[{z}][{yp}]| = {gaps[z, y, yp]!r} exceeds"
            f" C*d_y = {allowed[0, y, yp]!r}",
            field="lipschitz_c",
        )
    n_kernel = _label_kernel(problem, n_kernel)
    rows = np.arange(len(n_kernel))
    costs = (n_kernel @ d_y)[rows, rows % problem.ny]
    return lipschitz_c * float(problem.eta.ravel() @ costs)


# --------------------------------------------------------------------------
# General joint-space noise (weighted problems)
# --------------------------------------------------------------------------

def apply_general_noise(
    wp: WeightedProblem, n_kernel: np.ndarray, p: float = 1.0
) -> tuple[WeightedProblem, float]:
    """Apply a noise kernel on the whole observation space and certify it.

    The new joint law is the kernel image of the old one; the certificate is
    the eta-average transport cost from each state's point mass to its
    kernel row under the weighted observation pseudometric S_p: the
    expectation sum_j N[i, j] S_p(i, j), as a point mass has one coupling.
    """
    problem = wp.problem
    n = problem.nx * problem.ny
    n_kernel = _float_array(check_markov_kernel(n_kernel, "kernel"), "kernel", (n, n))
    new_eta = (problem.eta.ravel() @ n_kernel).reshape(problem.nx, problem.ny)
    noised = replace(wp, problem=replace(problem, eta=new_eta))
    costs = np.sum(n_kernel * s_metric_weighted(wp, p), axis=1)
    return noised, float(problem.eta.ravel() @ costs)


# --------------------------------------------------------------------------
# Loss and predictor-set substitution
# --------------------------------------------------------------------------

def _loss_swap_bound(p: FiniteProblem, p_prime: FiniteProblem) -> float:
    """Bound a loss substitution (same joint law and predictors) by the worst
    per-predictor expected loss gap."""
    _require_shared(p, p_prime, "eta", "predictors")
    gaps = np.abs(p.predictor_loss_stack() - p_prime.predictor_loss_stack())
    return float(np.max(np.einsum("xy,hxy->h", p.eta, gaps)))


def predictor_set_bound(
    problem: FiniteProblem, new_predictors: np.ndarray
) -> tuple[FiniteProblem, float]:
    """Swap the predictor set and certify by the Hausdorff distance between
    the two sets in L1(eta)."""
    swapped = replace(problem, predictors=new_predictors)
    cross = cross_predictor_pseudometric(problem, swapped.predictors)
    return swapped, hausdorff(cross)


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
    if not isinstance(mode, str):
        raise ValidationError(f"unknown mode {mode!r}", field="mode")
    if mode == "shared_eta_H":
        return _loss_swap_bound(p, p_prime)
    if mode == "shared_all_but_eta":
        return w1_eta_bound(p, p_prime)
    if mode == "shared_all_but_H":
        _require_shared(p, p_prime, "eta", "loss")
        return predictor_set_bound(p, p_prime.predictors)[1]
    raise ValidationError(f"unknown mode {mode!r}", field="mode")


# --------------------------------------------------------------------------
# Pipelines
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    kind: str
    bound: float


# the parameters each stage kind takes, beside its ``kind``
_STAGE_PARAMETERS = {
    "bias_density": ("f",),
    "restrict": ("A",),
    "label_noise": ("kernel", "d_y", "lipschitz_c"),
    "general_noise": ("kernel", "p"),
    "loss_swap": ("loss",),
    "predictor_swap": ("predictors",),
}


def run_pipeline(
    problem: FiniteProblem,
    stages: list[dict],
    lam: np.ndarray | None = None,
) -> tuple[FiniteProblem, list[StageRecord]]:
    """Run corruption stages in order, collecting per-stage certificates.

    Each stage is a dict with a ``kind`` key naming the transform plus its
    parameters (see the individual operations).  The certificates compose by
    the triangle inequality: their sum bounds the distance between the
    pipeline's endpoints.  A key the stage's kind does not take is refused,
    naming it, rather than leaving a misspelled parameter at its default.
    """
    require(isinstance(stages, (list, tuple)), "stages", "must be a list of stages")
    records: list[StageRecord] = []
    current = problem
    for idx, stage in enumerate(stages):
        if not isinstance(stage, dict) or "kind" not in stage:
            raise ValidationError(
                f"stages[{idx}] is not an object with a kind", field=f"stages[{idx}]"
            )
        kind = stage["kind"]
        if not (isinstance(kind, str) and kind in _STAGE_PARAMETERS):
            raise ValidationError(
                f"stages[{idx}] has unknown kind {kind!r}",
                field=f"stages[{idx}].kind",
            )
        params = {k: v for k, v in stage.items() if k != "kind"}
        for key in params:
            if key not in _STAGE_PARAMETERS[kind]:
                raise ValidationError(
                    f"stages[{idx}] ({kind}) has unknown parameter {key!r}",
                    field=f"stages[{idx}].{key}",
                )
        try:
            if kind == "bias_density":
                current, bound = apply_bias_density(current, params["f"])
            elif kind == "restrict":
                current, bound = restrict(current, params["A"])
            elif kind == "label_noise":
                noised = apply_label_noise(current, params["kernel"])
                d_y = params.get("d_y", (current.loss > 0).astype(float))
                bound = noise_bound_metric(current, params["kernel"], d_y,
                                           params.get("lipschitz_c", 1.0))
                current = noised
            elif kind == "general_noise":
                if lam is None:
                    raise ValidationError(
                        "general_noise stages need predictor weights (lambda)",
                        field=f"stages[{idx}]",
                    )
                wp, bound = apply_general_noise(
                    WeightedProblem(problem=current, lam=lam),
                    params["kernel"],
                    p=_real(params.get("p", 1.0), "p"),
                )
                current = wp.problem
            elif kind == "loss_swap":
                swapped = replace(current, loss=params["loss"])
                bound = _loss_swap_bound(current, swapped)
                current = swapped
            else:  # predictor_swap
                current, bound = predictor_set_bound(current, params["predictors"])
        except KeyError as missing:
            raise ValidationError(
                f"stages[{idx}] ({kind}) lacks parameter {missing.args[0]!r}",
                field=f"stages[{idx}].{missing.args[0]}",
            ) from None
        records.append(StageRecord(kind=kind, bound=float(bound)))
    return current, records
