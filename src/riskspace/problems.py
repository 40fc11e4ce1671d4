"""Finite supervised learning problems and their basic functionals.

A problem is the 5-tuple (X, Y, eta, loss, H): finite input and response
label sets, a joint probability mass ``eta`` on X x Y, a loss matrix on
Y x Y, and an explicitly enumerated predictor list H.  Everything downstream
(risk functionals, distances, stability bounds) is built on this container.

Index convention, fixed once and relied on everywhere: ``loss[i, j]`` is the
penalty for *predicting* label ``i`` when the *true* label is ``j``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Set as AbstractSet
from dataclasses import dataclass, replace
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError, require

# Probability-mass sums are validated at 1e-12; metric structure (symmetry,
# triangle inequality) at 1e-9 of the largest distance.  The first is data
# validation, the second absorbs solver round-off.
PROB_TOL = 1e-12
METRIC_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only private copy of ``a``: the caller's array stays writeable,
    and later edits to it do not reach the copy."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


_is_bool = np.vectorize(lambda v: isinstance(v, (bool, np.bool_)), otypes=[bool])


# The checked conversions below are the one place where outside input
# becomes an array or a scalar.  Each takes the expected ``shape``, with
# ``None`` for an axis of any length.  Called again on an array it already
# converted, a conversion only checks the shape: a caller that checks
# another input first does so to keep which field a faulty call names.

def _shaped(arr: np.ndarray, name: str, shape) -> np.ndarray:
    if shape is not None and (
        arr.ndim != len(shape)
        or any(e is not None and e != s for s, e in zip(arr.shape, shape))
    ):
        expected = str(tuple(shape)).replace("None", "any")
        raise ValidationError(f"{name} has shape {arr.shape}, expected {expected}",
                              field=name)
    return arr


def _numeric(raw, name: str) -> np.ndarray:
    try:
        arr = np.asarray(raw)
    except ValueError:
        raise ValidationError(
            f"{name} must be a rectangular numeric array", field=name
        ) from None
    # numpy holds integers beyond 64 bits as Python ints in an object array,
    # along with any floats beside them
    reals = arr.dtype.kind == "O" and all(
        isinstance(v, float) or isinstance(v, int) and abs(v) <= sys.float_info.max
        for v in arr.flat)
    if arr.dtype.kind not in "biuf" and not reals:
        raise ValidationError(f"{name} must hold numbers", field=name)
    return arr


def _index_array(raw, name: str, shape=None) -> np.ndarray:
    """Indices (labels, inputs, predictors, vertices) as an int64 array.

    A cast would truncate 0.7 to 0, read ``True`` as 1 and wrap 2**63, so
    boolean, non-integral and out-of-range entries are refused instead,
    naming the entry.
    """
    arr = _numeric(raw, name)
    if isinstance(raw, np.ndarray):  # its dtype shows whether it holds booleans
        ok = np.full(arr.shape, arr.dtype.kind != "b")
    else:  # scanned entry by entry: numpy turns [0, True] into int64 without a trace
        ok = ~_is_bool(np.asarray(raw, dtype=object))
    if arr.dtype.kind == "f":  # NaN and the infinities fail the range test
        ok &= (arr == np.trunc(arr)) & (arr >= -(2.0**63)) & (arr < 2.0**63)
    elif arr.dtype.kind == "u":  # integers held unsigned may pass int64
        ok &= arr < 2**63
    elif arr.dtype.kind == "O":  # Python ints and floats; Python compares NaN unwarned
        ok &= np.array([v % 1 == 0 and -(2**63) <= v < 2**63 for v in arr.flat],
                       dtype=bool).reshape(arr.shape)
    require(ok, name, "must be an integer index")
    return _shaped(arr.astype(np.int64, copy=False), name, shape)


def _float_array(raw, name: str, shape=None) -> np.ndarray:
    """Numbers (masses, losses, densities, costs) as a float array; a ragged
    or non-numeric ``raw`` is refused where a cast would raise or parse
    strings."""
    return _shaped(_numeric(raw, name).astype(float, copy=False), name, shape)


def _mask(raw, name: str, shape=None) -> np.ndarray:
    """A 0/1 relation (a region, a correspondence) as a boolean array.  A
    cast would read 0.5, NaN or a string as true, so only booleans, 0 and 1
    are accepted."""
    arr = _shaped(_numeric(raw, name), name, shape)
    if arr.dtype != bool:
        require((arr == 0) | (arr == 1), name, "must be true, false, 0 or 1")
    return arr.astype(bool, copy=False)


def _real(value, name: str) -> float:
    """A real scalar parameter (exponent, tolerance, loss bound) as a float,
    for the caller's range check.  A comparison would raise a bare TypeError
    on a string and a cast reads ``True`` as 1, so both are refused here."""
    require(isinstance(value, Real) and not isinstance(value, bool), name,
            "must be a real number")
    return float(value)


def _power_mean(values, weights, p: float):
    """The weighted L^p mean (sum w * v ** p) ** (1 / p) over the axes that
    ``weights`` spans; at p = inf, t, the largest v of positive weight.  Zero
    weights are dropped and v is divided by t first, so no p underflows it to 0."""
    values = values[weights > 0]
    weights = weights[weights > 0].reshape((-1,) + (1,) * (values.ndim - 1))
    top = values.max(axis=0)
    if p == np.inf:
        return top
    scaled = values / np.where(top > 0, top, 1.0)
    return top * np.sum(weights * scaled**p, axis=0) ** (1.0 / p)


def _count(value, name: str, least: int = 0) -> int:
    """A count (seed, sample size, trials, restarts, cap) as a Python int of
    at least ``least``.  ``range`` and numpy refuse fractional counts with
    a bare TypeError and read ``True`` as 1; every non-integer is refused
    here instead, naming ``name``."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    require(ok and value >= least, name, f"must be an integer of at least {least}")
    return int(value)


def _rng(*keys: int) -> np.random.Generator:
    """The PCG64 stream seeded by the integer ``keys``: the one place a
    generator is made.  One key ``s`` gives the same stream as
    ``default_rng`` seeded with ``s``."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _check_mass(a, name: str, shape=None) -> np.ndarray:
    """``a`` as a float probability mass: finite nonnegative entries summing
    to 1 within ``PROB_TOL``.  The one check of joint laws, predictor
    weightings, loss profiles and transport marginals."""
    a = _float_array(a, name, shape)
    require(np.isfinite(a) & (a >= 0), name, "must be a finite nonnegative mass")
    total = float(a.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(
            f"{name} sums to {total!r}, expected 1 within {PROB_TOL}", field=name
        )
    return a


def _label_tuple(raw, field: str) -> tuple[str, ...]:
    # a bare string would pass as one label per character, a mapping or set
    # as its keys in no fixed order
    if isinstance(raw, (str, Mapping, AbstractSet)) or not isinstance(raw, Iterable):
        raise ValidationError(f"{field} must be a list of labels", field=field)
    labels = tuple(raw)
    scalar = [isinstance(s, (str, Real)) and not isinstance(s, bool) for s in labels]
    require(np.array(scalar, dtype=bool), field, "must be a string or a number")
    return tuple(str(s) for s in labels)


def _join_labels(parts: Iterable[str], sep: str) -> str:
    """``parts`` joined by ``sep``, with each backslash and ``sep`` in a part
    escaped by a backslash: distinct part tuples give distinct labels."""
    escape = {ord("\\"): "\\\\", ord(sep): "\\" + sep}
    return sep.join(part.translate(escape) for part in parts)


@dataclass(frozen=True, eq=False)
class FiniteProblem:
    """A finite supervised learning problem.

    Fields
    ------
    x_labels, y_labels : opaque, duplicate-free label strings.
    eta : (nx, ny) nonnegative array summing to 1 (the joint law).
    loss : (ny, ny) finite nonnegative array; ``loss[predicted, true]``.
    predictors : (nH, nx) integer array; ``predictors[k, x]`` is the label
        index produced by predictor k on input x.

    Instances are immutable after construction and safe to share across
    threads.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    eta: np.ndarray
    loss: np.ndarray
    predictors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_labels", _label_tuple(self.x_labels, "x_labels"))
        object.__setattr__(self, "y_labels", _label_tuple(self.y_labels, "y_labels"))
        object.__setattr__(self, "eta", _freeze(_float_array(self.eta, "eta")))
        object.__setattr__(self, "loss", _freeze(_float_array(self.loss, "loss")))
        predictors = _index_array(self.predictors, "predictors")
        object.__setattr__(self, "predictors", _freeze(predictors))
        self._validate()

    def _validate(self):
        nx, ny = len(self.x_labels), len(self.y_labels)
        if nx < 1:
            raise ValidationError("x_labels must be nonempty", field="x_labels")
        if ny < 1:
            raise ValidationError("y_labels must be nonempty", field="y_labels")
        if len(set(self.x_labels)) != nx:
            raise ValidationError("x_labels contain duplicates", field="x_labels")
        if len(set(self.y_labels)) != ny:
            raise ValidationError("y_labels contain duplicates", field="y_labels")
        _check_mass(self.eta, "eta", (nx, ny))
        loss = _float_array(self.loss, "loss", (ny, ny))
        require(np.isfinite(loss) & (loss >= 0), "loss",
                "must be finite and nonnegative")
        predictors = _index_array(self.predictors, "predictors", (None, nx))
        require(len(predictors) > 0, "predictors", "must list at least one predictor")
        require((predictors >= 0) & (predictors < ny), "predictors",
                f"must lie in [0, {ny})")

    # -- basic views -------------------------------------------------------

    @property
    def nx(self) -> int:
        return len(self.x_labels)

    @property
    def ny(self) -> int:
        return len(self.y_labels)

    @property
    def n_predictors(self) -> int:
        return self.predictors.shape[0]

    def predictor_loss(self, h_index: int) -> np.ndarray:
        """The (nx, ny) table of losses incurred by predictor ``h_index``."""
        return self.loss[self.predictors[self._check_h(h_index)], :]

    def predictor_loss_stack(self) -> np.ndarray:
        """All predictor loss tables, shape (nH, nx, ny)."""
        return self.loss[self.predictors, :]

    def _check_h(self, h_index: int) -> int:
        h = _index_array(h_index, "h_index", ())
        require((h >= 0) & (h < self.n_predictors), "h_index",
                f"must lie in [0, {self.n_predictors})")
        return int(h)

    def __eq__(self, other):
        if not isinstance(other, FiniteProblem):
            return NotImplemented
        return (
            self.x_labels == other.x_labels
            and self.y_labels == other.y_labels
            and np.array_equal(self.eta, other.eta)
            and np.array_equal(self.loss, other.loss)
            and np.array_equal(self.predictors, other.predictors)
        )


@dataclass(frozen=True, eq=False)
class WeightedProblem:
    """A problem together with a probability weighting ``lam`` on its predictors."""

    problem: FiniteProblem
    lam: np.ndarray

    def __post_init__(self):
        lam = _check_mass(self.lam, "lambda", (self.problem.n_predictors,))
        object.__setattr__(self, "lam", _freeze(lam))

    def __eq__(self, other):
        if not isinstance(other, WeightedProblem):
            return NotImplemented
        return self.problem == other.problem and np.array_equal(self.lam, other.lam)


@dataclass(frozen=True, eq=False)
class LossProfile:
    """A discrete distribution of loss values: sorted atoms with merged masses."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        values = _float_array(self.values, "values")
        masses = _check_mass(self.masses, "masses")
        values = _float_array(values, "values", (None,))
        masses = _float_array(masses, "masses", values.shape)
        require(np.isfinite(values), "values", "must be finite")
        if not np.all(np.diff(values) > 0):
            raise ValidationError("profile values must be strictly increasing",
                                  field="values")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "masses", _freeze(masses))

    def mean(self) -> float:
        return float(self.values @ self.masses)

    def __eq__(self, other):
        if not isinstance(other, LossProfile):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.masses, other.masses
        )

    def __hash__(self):
        return hash((self.values.tobytes(), self.masses.tobytes()))


@dataclass(frozen=True)
class Partition:
    """A partition of the response-label indices [0, ny) into disjoint blocks."""

    blocks: tuple[tuple[int, ...], ...]
    ny: int

    def __post_init__(self):
        if not isinstance(self.blocks, Iterable):
            raise ValidationError("blocks must be a list of index lists",
                                  field="blocks")
        ny = _count(self.ny, "ny")
        blocks = []
        seen: set[int] = set()
        for bi, raw in enumerate(self.blocks):
            block = _index_array(raw, f"blocks[{bi}]", (None,))
            require(block.size > 0, f"blocks[{bi}]", "must be nonempty")
            require((block >= 0) & (block < ny), f"blocks[{bi}]",
                    f"must lie in [0, {ny})")
            blocks.append(tuple(block.tolist()))
            for i in blocks[-1]:
                if i in seen:
                    raise ValidationError(
                        f"index {i} appears in more than one block",
                        field=f"blocks[{bi}]",
                    )
                seen.add(i)
        object.__setattr__(self, "blocks", tuple(blocks))
        if len(seen) != ny:
            missing = sorted(set(range(ny)) - seen)
            raise ValidationError(
                f"blocks do not cover indices {missing}", field="blocks"
            )

    def block_of(self) -> np.ndarray:
        """Map y-index -> block index, as an integer vector of length ny."""
        out = np.empty(self.ny, dtype=np.int64)
        for bi, block in enumerate(self.blocks):
            for i in block:
                out[i] = bi
        return out


class SimulationCheck(NamedTuple):
    ok: bool
    violation: str | None


# --------------------------------------------------------------------------
# Risk functionals
# --------------------------------------------------------------------------

def risk(problem: FiniteProblem, h_index: int) -> float:
    """Expected loss of predictor ``h_index`` under the joint law."""
    table = problem.predictor_loss(h_index)
    return float(np.sum(problem.eta * table))


def all_risks(problem: FiniteProblem) -> np.ndarray:
    """Vector of risks over the whole predictor list."""
    return np.einsum("xy,hxy->h", problem.eta, problem.predictor_loss_stack())


def constrained_bayes_risk(problem: FiniteProblem) -> float:
    """Minimum risk over the predictor list."""
    return float(np.min(all_risks(problem)))


def loss_profile(problem: FiniteProblem, h_index: int) -> LossProfile:
    """Push the joint law through (x, y) -> loss[h(x), y].

    Equal values merge and zero-mass values are dropped: the profile carries
    only the support of the pushforward distribution.
    """
    table = problem.predictor_loss(h_index)
    values, inverse = np.unique(table.ravel(), return_inverse=True)
    masses = np.bincount(inverse, weights=problem.eta.ravel(), minlength=len(values))
    keep = masses > 0
    return LossProfile(values=values[keep], masses=masses[keep] / masses.sum())


def loss_profile_set(problem: FiniteProblem) -> list[LossProfile]:
    """One profile per predictor, in predictor order; duplicates retained."""
    return [loss_profile(problem, k) for k in range(problem.n_predictors)]


def loss_profile_distribution(
    wp: WeightedProblem,
) -> list[tuple[LossProfile, float]]:
    """Distribution over distinct loss profiles induced by the predictor weights.

    Predictors with identical profiles are merged, summing their weights.
    Profiles with zero total weight are dropped.
    """
    atoms: dict[LossProfile, float] = {}  # in first-seen order
    for k, profile in enumerate(loss_profile_set(wp.problem)):
        atoms[profile] = atoms.get(profile, 0.0) + float(wp.lam[k])
    return [(p, w) for p, w in atoms.items() if w > 0.0]


def predictor_pseudometric(problem: FiniteProblem) -> np.ndarray:
    """Pairwise L1(eta) distances between predictor loss tables.

    Symmetric, zero-diagonal, and triangle-inequality compliant; compares
    predictors purely by the losses they incur.
    """
    return cross_predictor_pseudometric(problem, problem.predictors)


def cross_predictor_pseudometric(
    problem: FiniteProblem, other_predictors: np.ndarray
) -> np.ndarray:
    """L1(eta) distances between ``problem``'s predictors and another list.

    Both predictor lists are evaluated against ``problem``'s loss and joint
    law, so the two problems must share (X, Y, eta, loss).  The other list
    is validated like ``problem``'s own predictors.
    """
    other_predictors = replace(problem, predictors=other_predictors).predictors
    stack_a = problem.predictor_loss_stack().reshape(problem.n_predictors, -1)
    stack_b = problem.loss[other_predictors, :].reshape(other_predictors.shape[0], -1)
    weights = problem.eta.ravel()
    return np.abs(stack_a[:, None, :] - stack_b[None, :, :]) @ weights


# --------------------------------------------------------------------------
# Canonical constructions
# --------------------------------------------------------------------------

def one_point_problem(c: float) -> FiniteProblem:
    """The problem with a single point, constant loss ``c``, and one predictor."""
    c = _real(c, "c")
    require(0 <= c < np.inf, "c", "must be a finite nonnegative loss")
    return FiniteProblem(
        x_labels=("*",),
        y_labels=("*",),
        eta=np.array([[1.0]]),
        loss=np.array([[c]]),
        predictors=np.array([[0]]),
    )


def _mm_space(points, dist, mu, dist_name: str = "dist",
              mu_name: str = "mu") -> WeightedProblem:
    """The weighted encoding of a finite metric measure space (see
    :func:`encode_mm_space`), each error naming ``dist_name`` or ``mu_name``.
    The number of points is the length of ``mu``; ``points=None`` labels
    the points by their indices."""
    labels = None if points is None else _label_tuple(points, "points")
    mu = _float_array(mu, mu_name, (None,))
    n = len(mu)
    dist = _float_array(dist, dist_name, (n, n))
    _check_mass(mu, mu_name)
    _check_metric_matrix(dist, field=dist_name)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    elif len(labels) != n:
        raise ValidationError(
            f"points has {len(labels)} labels, expected {n} (one per mass in mu)",
            field="points",
        )
    problem = FiniteProblem(
        x_labels=labels,
        y_labels=labels,
        eta=np.diag(mu),
        loss=dist,
        predictors=np.repeat(np.arange(n)[:, None], n, axis=1),
    )
    return WeightedProblem(problem=problem, lam=mu)


def encode_mm_space(
    points: Sequence[str], dist: np.ndarray, mu: np.ndarray
) -> FiniteProblem:
    """Encode a finite metric measure space as a problem.

    The input and response spaces are both the point set, the joint law sits
    on the diagonal with the point masses, the loss is the metric, and the
    predictors are the constant maps.  Isometric relabelings encode to
    problems at distance zero.
    """
    return _mm_space(points, dist, mu).problem


def encode_mm_space_weighted(
    points: Sequence[str], dist: np.ndarray, mu: np.ndarray
) -> WeightedProblem:
    """Weighted variant of :func:`encode_mm_space`: the constant predictor at
    each point carries that point's mass."""
    return _mm_space(points, dist, mu)


def _check_metric_matrix(d: np.ndarray, field: str = "dist"):
    require(np.isfinite(d) & (d >= 0), field, "must be finite and nonnegative")
    if np.any(np.abs(np.diag(d)) > 0):
        raise ValidationError(f"{field} must have a zero diagonal", field=field)
    tol = METRIC_TOL * d.max()
    if np.max(np.abs(d - d.T)) > tol:
        raise ValidationError(f"{field} must be symmetric", field=field)
    # triangle inequality: d[i,k] <= d[i,j] + d[j,k] for all triples
    slack = d[:, None, :] - (d[:, :, None] + d[None, :, :])
    if np.max(slack) > tol:
        i, j, k = np.unravel_index(np.argmax(slack), slack.shape)
        raise ValidationError(
            f"{field} violates the triangle inequality on ({i},{j},{k})", field=field
        )


# --------------------------------------------------------------------------
# Coarsening
# --------------------------------------------------------------------------

def _coarse_predictors(
    problem: FiniteProblem, q: Partition
) -> tuple[np.ndarray, np.ndarray]:
    """``problem``'s predictors through ``q``'s quotient map, deduplicated in
    first-seen order, and each predictor's coarse row.  The one check that
    ``q`` partitions ``problem``'s labels; another label count names ``blocks``."""
    if q.ny != problem.ny:
        raise ValidationError(
            f"partition covers [0, {q.ny}) but the problem has {problem.ny} labels",
            field="blocks",
        )
    coarse = q.block_of()[problem.predictors]
    _, keep, inverse = np.unique(coarse, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(keep)
    return coarse[keep[order]], np.argsort(order)[inverse]


def _block_loss_ranges(loss: np.ndarray, q: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The largest and the smallest loss over each ordered block pair of
    ``q``, as two (nb, nb) arrays."""
    subs = [[loss[np.ix_(block_i, block_j)] for block_j in q.blocks]
            for block_i in q.blocks]
    return (np.array([[sub.max() for sub in row] for row in subs]),
            np.array([[sub.min() for sub in row] for row in subs]))


def coarsen(problem: FiniteProblem, q: Partition) -> FiniteProblem:
    """Collapse the response space to the blocks of ``q``.

    Block masses add, the block loss is the worst case over constituent
    labels, and predictors are composed with the quotient map (duplicates
    removed: a predictor set carries no multiplicity).
    """
    predictors, _ = _coarse_predictors(problem, q)
    nb = len(q.blocks)
    eta_q = np.zeros((problem.nx, nb))
    for bi, block in enumerate(q.blocks):
        eta_q[:, bi] = problem.eta[:, list(block)].sum(axis=1)
    loss_q, _ = _block_loss_ranges(problem.loss, q)
    labels = tuple(
        "{" + _join_labels((problem.y_labels[i] for i in block), ",") + "}"
        for block in q.blocks
    )
    return FiniteProblem(
        x_labels=problem.x_labels,
        y_labels=labels,
        eta=eta_q,
        loss=loss_q,
        predictors=predictors,
    )


def coarsen_weighted(wp: WeightedProblem, q: Partition) -> WeightedProblem:
    """Coarsen a weighted problem; weights of predictors that collapse to the
    same coarse predictor are summed."""
    predictors, rows = _coarse_predictors(wp.problem, q)
    lam_q = np.bincount(rows, weights=wp.lam, minlength=len(predictors))
    return WeightedProblem(problem=coarsen(wp.problem, q), lam=lam_q)


def coarsening_bound(problem: FiniteProblem, q: Partition) -> float:
    """Worst block-pair oscillation of the loss: an a-priori cap on how far
    coarsening by ``q`` can move the problem.

    For every ordered block pair the loss is scanned over the product of the
    two blocks; the bound is the largest (max - min) gap found.
    """
    _coarse_predictors(problem, q)  # refuses a partition of another label count
    high, low = _block_loss_ranges(problem.loss, q)
    return float(np.max(high - low))


def singleton_partition(ny: int) -> Partition:
    return Partition(blocks=tuple((i,) for i in range(ny)), ny=ny)


# --------------------------------------------------------------------------
# Simulation checking
# --------------------------------------------------------------------------

def verify_simulation(
    p_rich: FiniteProblem,
    p: FiniteProblem,
    f1: Sequence[int],
    f2: Sequence[int],
    fwd: Sequence[int],
    bwd: Sequence[int],
    tol: float = PROB_TOL,
) -> SimulationCheck:
    """Check that ``p_rich`` simulates ``p`` via the given component maps.

    ``f1`` maps rich inputs onto base inputs, ``f2`` rich labels onto base
    labels; ``fwd[h]`` names, for each base predictor, a rich predictor that
    matches its losses, and ``bwd[h']`` conversely.  The pushforward of the
    rich joint law must equal the base law, and matched predictors must incur
    identical losses at every rich observation of positive mass.

    A failed check names its first violation: the pushforward, else the first
    mismatched map entry (every ``fwd[h]`` before every ``bwd[h']``) with its
    two predictors and their two losses.
    """
    tol = _real(tol, "tol")
    require(0 <= tol < np.inf, "tol", "must be finite and nonnegative")
    maps = []
    for name, raw, length, bound in (
        ("f1", f1, p_rich.nx, p.nx),
        ("f2", f2, p_rich.ny, p.ny),
        ("fwd", fwd, p.n_predictors, p_rich.n_predictors),
        ("bwd", bwd, p_rich.n_predictors, p.n_predictors),
    ):
        m = _index_array(raw, name, (length,))
        require((m >= 0) & (m < bound), name, f"must lie in [0, {bound})")
        maps.append(m)
    f1, f2, fwd, bwd = maps

    pushed = np.zeros((p.nx, p.ny))
    np.add.at(pushed, (f1[:, None], f2[None, :]), p_rich.eta)
    gap = np.abs(pushed - p.eta)
    if np.max(gap) > tol:
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        return SimulationCheck(
            False,
            f"pushforward of the rich joint law differs from eta at [{i}][{j}]:"
            f" {float(pushed[i, j])!r} vs {float(p.eta[i, j])!r}",
        )

    support = p_rich.eta > 0
    # base losses pulled back to the rich grid, (nH, nx', ny')
    pulled = p.predictor_loss_stack()[:, f1[:, None], f2[None, :]]
    rich_tables = p_rich.predictor_loss_stack()
    matched = [(f"fwd[{h}]", h, g) for h, g in enumerate(fwd.tolist())]
    matched += [(f"bwd[{g}]", h, g) for g, h in enumerate(bwd.tolist())]
    for entry, h, g in matched:
        bad = (np.abs(rich_tables[g] - pulled[h]) > tol) & support
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            return SimulationCheck(
                False,
                f"{entry} matches predictor {h} to rich predictor {g}, but they"
                f" pay {float(pulled[h][i, j])!r} and"
                f" {float(rich_tables[g][i, j])!r} at supported point [{i}][{j}]",
            )
    return SimulationCheck(True, None)
