"""The benchmark's workloads.

Each workload function turns a seed into a fixed batch of operations.  An operation
is one public call: a solver call for the in-process workloads, one
``python -m riskspace.cli`` process for the CLI workloads.  Operations call
the library through ``riskspace.<name>`` at call time, so the traced run's
wrappers on the package bindings see every call.  Checks run outside the
timed region and return a list of problems (empty when the output is right).

Why these batches (see README.md for the predictions):

* ``exact-ladder``: ``risk_distance_exact`` on pairs whose transport lower
  bounds are all zero, so the pattern sweep prunes nothing and the LP count
  per shape is fixed; the ladder runs from 2x2 grids with |H||H'| = 4 to the
  cap boundary, |H||H'| = 12 with support 256.  Most calls are the
  |H||H'| = 6 rung, so the median call is a small exact solve.
* ``small-lp-batch``: many tiny LPs with almost no search, mostly
  ``lp_risk_distance``, plus the alternating fallback, ``bilinear_gw`` and a
  convergence experiment.
* ``landscape-enum``: relation enumeration with the connectivity filter,
  Reeb graphs, and the LP-free exhaustive Rademacher loops.
* ``cli-nolp`` / ``cli-lp``: one process per command, split by whether the
  command solves an LP, so an import change shows on one and not the other.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

import riskspace as rs
from riskspace import serialize

import gen

TOL = 1e-9


@dataclass
class Op:
    """One timed call, its output check and its numeric fingerprint."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    fingerprint: Callable[[Any], list[float]]
    headline: bool = False  # timed into call_ms as well as batch_s


def call(name: str, *args, **kwargs):
    return getattr(rs, name)(*args, **kwargs)


def _close(a: float, b: float, what: str) -> list[str]:
    return [] if abs(a - b) <= TOL else [f"{what}: {a!r} != {b!r}"]


def _at_most(a: float, b: float, what: str) -> list[str]:
    return [] if a <= b + TOL else [f"{what}: {a!r} > {b!r}"]


def _status(result, expected: str) -> list[str]:
    return [] if result.status == expected else [f"status {result.status!r}"]


def _value(result) -> list[float]:
    return [float(result.value)]


def _replay(p, q, result) -> list[str]:
    replay = rs.risk_distortion(p, q, result.witness_correspondence,
                                result.witness_coupling)
    return _close(replay, result.value, "risk_distortion at witnesses")


# --------------------------------------------------------------------------
# exact-ladder
# --------------------------------------------------------------------------

# (nx, ny, |H|, |H'|, pairs per batch); LPs per pair: 11, 30, 228, 1410
LADDER = ((2, 2, 2, 2, 5), (3, 3, 2, 3, 15), (3, 3, 3, 3, 1), (4, 4, 3, 4, 1))


def _check_exact(p, q, result) -> list[str]:
    return (_status(result, "exact") + _replay(p, q, result)
            + _at_most(rs.risk_distance_lower(p, q), result.value,
                       "risk_distance_lower"))


def exact_ladder(seed: int, workdir: str) -> list[Op]:
    ops = []
    for rung, (nx, ny, n_h, n_hp, count) in enumerate(LADDER):
        for k in range(count):
            p, q = gen.balanced_pair(gen.rng_for(seed, 1, rung, k), nx, ny, n_h, n_hp)
            ops.append(Op(f"exact {nx}x{ny} {n_h}x{n_hp} #{k}",
                          partial(call, "risk_distance_exact", p, q),
                          partial(_check_exact, p, q), _value, headline=True))
    return ops


# --------------------------------------------------------------------------
# small-lp-batch
# --------------------------------------------------------------------------

def _lp_distance(wp, wq, order):
    trace: list[float] = []
    return rs.lp_risk_distance(wp, wq, p=order, trace=trace), trace


def _trace_problems(trace: list[float], tol: float = 1e-10) -> list[str]:
    """Each restart's objective must not increase.  A restart ends at the
    first step that fails to decrease by ``tol`` (the solver's stopping
    rule); that step may not rise by more than TOL either."""
    i = 0
    while i < len(trace):
        j = i + 1
        while j < len(trace) and trace[j - 1] - trace[j] >= tol:
            j += 1
        if j < len(trace) and trace[j] > trace[j - 1] + TOL:
            return [f"p=1 trace rises at step {j}: {trace[j - 1]!r} -> {trace[j]!r}"]
        i = j + 1
    return []


def _check_lp(wp, wq, order, out) -> list[str]:
    result, trace = out
    replay = rs.lp_risk_distortion(wp, wq, result.witness_predictor_coupling,
                                   result.witness_coupling, order)
    problems = _status(result, "upper_bound") + _close(replay, result.value,
                                                      "lp_risk_distortion")
    if not trace:
        problems.append("empty trace")
    if order == 1.0:
        problems += _trace_problems(trace)
    return problems


def _check_fallback(p, q, exact_support, result) -> list[str]:
    problems = _status(result, "upper_bound") + _replay(p, q, result)
    problems += _at_most(rs.risk_distance_lower(p, q), result.value,
                         "risk_distance_lower")
    if exact_support:
        exact = rs.risk_distance_exact(p, q, cap_support=exact_support)
        problems += _status(exact, "exact")
        problems += _at_most(exact.value, result.value, "exact vs fallback")
    return problems


def _check_gw(dist_a, mu_a, dist_b, mu_b, value) -> list[str]:
    # the alternating scheme starts from the independent couplings, so it
    # can only end at or below the objective there
    gap = np.abs(dist_a[:, None, :, None] - dist_b[None, :, None, :])
    product = float(np.einsum("ijkl,i,j,k,l->", gap, mu_a, mu_b, mu_a, mu_b))
    return _at_most(0.0, value, "bilinear_gw sign") + _at_most(
        value, product, "bilinear_gw vs independent couplings")


def _check_convergence(report) -> list[str]:
    problems = []
    for row in report.rows:
        if row.exact_distance is None:
            problems.append(f"n={row.n} trial={row.trial}: no exact distance")
        else:
            problems += _at_most(row.exact_distance, row.tv_bound,
                                 f"n={row.n} trial={row.trial} exact vs TV")
    return problems


def _convergence_fp(report) -> list[float]:
    return [v for row in report.rows for v in (row.tv_bound, row.exact_distance)]


def small_lp_batch(seed: int, workdir: str) -> list[Op]:
    ops = []
    for k in range(6):
        rng = gen.rng_for(seed, 2, 0, k)
        wp = gen.weighted(rng, gen.random_problem(rng, 3, 3, 3))
        wq = gen.weighted(rng, gen.random_problem(rng, 3, 3, 3))
        for order in (1.0, 2.0):
            ops.append(Op(f"lp_risk_distance p={order:g} #{k}",
                          partial(_lp_distance, wp, wq, order),
                          partial(_check_lp, wp, wq, order),
                          lambda out: [out[0].value, float(len(out[1]))],
                          headline=True))
    # beyond cap_pairs (16 > 12), then beyond cap_support (320 > 256) where
    # the exact value is still cheap with a raised support cap
    for k, (shape_p, shape_q, exact_support) in enumerate(
            (((3, 3, 4), (3, 3, 4), 0), ((3, 3, 4), (3, 3, 4), 0),
             ((5, 4, 2), (4, 4, 3), 320), ((5, 4, 2), (4, 4, 3), 320))):
        rng = gen.rng_for(seed, 2, 1, k)
        p, q = gen.random_problem(rng, *shape_p), gen.random_problem(rng, *shape_q)
        ops.append(Op(f"fallback {shape_p}-{shape_q} #{k}",
                      partial(call, "risk_distance_exact", p, q),
                      partial(_check_fallback, p, q, exact_support), _value))
    for k, (na, nb) in enumerate(((4, 5), (5, 6), (6, 4))):
        rng = gen.rng_for(seed, 2, 2, k)
        spaces = []
        for n in (na, nb):
            encoded = rs.encode_mm_space(*gen.mm_space(rng, n))
            spaces += [encoded.loss, encoded.eta.diagonal().copy()]
        ops.append(Op(f"bilinear_gw {na}-{nb}", partial(call, "bilinear_gw", *spaces),
                      partial(_check_gw, *spaces), lambda v: [float(v)]))
    problem = gen.random_problem(gen.rng_for(seed, 2, 3), 2, 2, 2)
    ops.append(Op("convergence_experiment 2x2",
                  partial(call, "convergence_experiment", problem, [10, 40],
                          trials=3, seed=seed),
                  _check_convergence, _convergence_fp))
    return ops


# --------------------------------------------------------------------------
# landscape-enum
# --------------------------------------------------------------------------

# Six pairs with one path side and one other (about 400 ms each), one
# path-path (fewer survivors, faster) and one cycle-complete (more, slower).
# The median and the tail of these calls then both fall inside the
# six-pair group, whatever the number of passes.
GRAPH_PAIRS = (("path", "cycle"), ("cycle", "complete"), ("complete", "path"),
               ("path", "path"), ("path", "complete"), ("cycle", "path"),
               ("path", "cycle"), ("complete", "path"))


def _check_connected(pg, qg, expected, result) -> list[str]:
    problems = _status(result, "exact")
    if not np.isfinite(result.value):
        return problems + ["no inverse-connected correspondence"]
    if not rs.is_inverse_connected(result.witness_correspondence, pg, qg):
        problems.append("witness is not inverse-connected")
    problems += _replay(pg.problem, qg.problem, result)
    plain = rs.risk_distance_exact(pg.problem, qg.problem)
    problems += _at_most(plain.value, result.value, "plain vs connected")
    if expected is not None:
        problems += _close(result.value, expected[0], "frozen connected value")
        problems += _close(plain.value, expected[1], "frozen plain value")
    return problems


def _check_sandwich(pg, qg, out) -> list[str]:
    lower, upper = out
    gap = abs(rs.constrained_bayes_risk(pg.problem)
              - rs.constrained_bayes_risk(qg.problem))
    return _close(lower, gap, "sandwich lower end") + _at_most(
        lower, upper, "sandwich order")


def _check_reeb(pg, minima, reeb) -> list[str]:
    problems = []
    lowest = float(reeb.heights().min())
    if lowest != rs.constrained_bayes_risk(pg.problem):
        problems.append(f"lowest Reeb height {lowest!r} is not the optimal risk")
    if minima is not None and len(reeb.local_minima()) != minima:
        problems.append(f"{len(reeb.local_minima())} local minima, expected {minima}")
    return problems


def _reeb_fp(reeb) -> list[float]:
    return [float(h) for h in reeb.heights()] + [float(len(reeb.edges))]


def _check_rademacher(problem, value) -> list[str]:
    return _at_most(0.0, value, "Rademacher sign") + _at_most(
        value, float(problem.loss.max()), "Rademacher vs loss cap")


def _check_gap_bound(p, q, result, m, bound) -> list[str]:
    actual = abs(rs.rademacher_exact_small(p, m) - rs.rademacher_exact_small(q, m))
    return _at_most(actual, bound, "Rademacher gap") + _at_most(
        result.value, bound, "distortion part of the gap bound")


def landscape_enum(seed: int, workdir: str) -> list[Op]:
    ops = []
    for k, (left, right) in enumerate(GRAPH_PAIRS):
        rng = gen.rng_for(seed, 3, 0, k)
        pg = rs.PredictorGraph(problem=gen.random_problem(rng, 2, 2, 3),
                               edges=gen.graph_edges(left, 3))
        qg = rs.PredictorGraph(problem=gen.random_problem(rng, 2, 2, 3),
                               edges=gen.graph_edges(right, 3))
        ops.append(Op(f"connected {left}-{right} #{k}",
                      partial(call, "connected_risk_distance_exact", pg, qg),
                      partial(_check_connected, pg, qg, None), _value, headline=True))
        if k == 0:
            ops.append(Op(f"reeb_sandwich {left}-{right}",
                          partial(call, "reeb_sandwich", pg, qg),
                          partial(_check_sandwich, pg, qg), list))
    rng = gen.rng_for(seed, 3, 1)
    for k, third in enumerate((0.4, float(rng.uniform(0.3, 0.45)))):
        pg = gen.constants_graph([0.0, 1.0])
        qg = gen.constants_graph([0.0, 1.0, third])
        expected = (0.6, 0.4) if k == 0 else None
        ops.append(Op(f"connected gap instance {third:.3f}",
                      partial(call, "connected_risk_distance_exact", pg, qg),
                      partial(_check_connected, pg, qg, expected), _value))
    circle, interval = gen.threshold_landscapes(9)
    random_graph = gen.random_predictor_graph(gen.rng_for(seed, 3, 2), 3, 3, 6)
    for name, graph, minima in (("circle", circle, 1), ("interval", interval, 2),
                                ("random", random_graph, None)):
        ops.append(Op(f"reeb_graph {name}", partial(call, "reeb_graph", graph),
                      partial(_check_reeb, graph, minima), _reeb_fp))
    # (nx*ny)^m * 2^m is 10% of RADEMACHER_CAPACITY, then exactly at it
    for k, (nx, ny, m) in enumerate(((3, 3, 4), (1, 5, 6))):
        problem = gen.random_problem(gen.rng_for(seed, 3, 3, k), nx, ny, 3)
        ops.append(Op(f"rademacher_exact_small {nx}x{ny} m={m}",
                      partial(call, "rademacher_exact_small", problem, m),
                      partial(_check_rademacher, problem), lambda v: [float(v)]))
    rng = gen.rng_for(seed, 3, 4)
    p, q = gen.random_problem(rng, 2, 2, 2), gen.random_problem(rng, 2, 2, 2)
    witness = rs.risk_distance_exact(p, q)
    ops.append(Op("rademacher_gap_bound 2x2 m=3",
                  partial(call, "rademacher_gap_bound", p, q,
                          witness.witness_correspondence, witness.witness_coupling, 3),
                  partial(_check_gap_bound, p, q, witness, 3), lambda v: [float(v)]))
    return ops


# --------------------------------------------------------------------------
# CLI workloads: one process per command on generated JSON files
# --------------------------------------------------------------------------

@dataclass
class Command:
    argv: list[str]
    expect: Callable[[], dict] | None  # expected output keys; None if invalid
    field: str | None = None           # field an invalid input must name


def _write(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _problem_file(workdir, name, problem, lam=None) -> str:
    return _write(workdir, name, serialize.problem_to_dict(problem, lam=lam))


def _numbers_close(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key, value in want.items():
            if key not in got:
                problems.append(f"{where}.{key} missing")
            else:
                problems += _numbers_close(got[key], value, f"{where}.{key}")
        return problems
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected {len(want)} items"]
        return [msg for k, (g, w) in enumerate(zip(got, want))
                for msg in _numbers_close(g, w, f"{where}[{k}]")]
    if isinstance(want, (bool, str)) or want is None:
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} is not a number"]
    return _close(float(got), float(want), where)


def _flat_numbers(data) -> list[float]:
    if isinstance(data, dict):
        return [v for value in data.values() for v in _flat_numbers(value)]
    if isinstance(data, list):
        return [v for value in data for v in _flat_numbers(value)]
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return [float(data)]
    return []


def _run_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "riskspace.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _check_command(command: Command, out) -> list[str]:
    code, stdout, stderr = out
    if command.expect is None:
        if code != 1:
            return [f"invalid input exited {code}, expected 1"]
        try:
            error = json.loads(stderr)
        except json.JSONDecodeError:
            return [f"stderr is not a JSON error object: {stderr[:200]!r}"]
        if error.get("field") != command.field:
            return [f"error names field {error.get('field')!r}, expected {command.field!r}"]
        return []
    if code != 0:
        return [f"exited {code}: {stderr[:200]!r}"]
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {stdout[:200]!r}"]
    return _numbers_close(got, command.expect(), command.argv[0])


def _command_fp(out) -> list[float]:
    code, stdout, _ = out
    return [float(code)] + (_flat_numbers(json.loads(stdout)) if code == 0 else [])


def _ops_for(commands: list[Command], in_process: bool) -> list[Op]:
    run = run_in_process if in_process else _run_process
    return [Op(" ".join(c.argv[:1] + [a for a in c.argv[1:] if a.startswith("--")]),
               partial(run, c.argv), partial(_check_command, c),
               _command_fp, headline=True)
            for c in commands]


def _distance_expect(result) -> dict:
    return {"value": result.value, "status": result.status}


def nolp_commands(seed: int, workdir: str) -> list[Command]:
    """Commands that solve no LP, then invalid inputs that must exit 1."""
    rng = gen.rng_for(seed, 4, 0)
    p = gen.random_problem(rng, 3, 3, 3)
    q = gen.random_problem(rng, 3, 3, 3)
    swapped = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta,
                               rng.random((3, 3)) * 2.0, p.predictors)
    eta = rng.random((3, 3)) + 0.05
    reweighted = rs.FiniteProblem(p.x_labels, p.y_labels, eta / eta.sum(),
                                  p.loss, p.predictors)
    pf = _problem_file(workdir, "p.json", p)
    qf = _problem_file(workdir, "q.json", q)
    swapf = _problem_file(workdir, "swapped.json", swapped)
    rewf = _problem_file(workdir, "reweighted.json", reweighted)
    blocks = [[0, 2], [1]]
    partf = _write(workdir, "partition.json", {"blocks": blocks})
    graph = gen.random_predictor_graph(rng, 3, 3, 6)
    gf = _problem_file(workdir, "graph_problem.json", graph.problem)
    ef = _write(workdir, "edges.json", {"edges": [list(e) for e in graph.edges]})
    # the rich problem splits input x0 into two halves of its mass
    rich_eta = np.vstack([p.eta[:1] / 2, p.eta[:1] / 2, p.eta[1:]])
    rich = rs.FiniteProblem(("x0a", "x0b") + p.x_labels[1:], p.y_labels, rich_eta,
                            p.loss, np.hstack([p.predictors[:, :1], p.predictors]))
    maps = {"f1": [0, 0] + list(range(1, p.nx)), "f2": list(range(p.ny)),
            "fwd": list(range(p.n_predictors)), "bwd": list(range(p.n_predictors))}
    richf = _problem_file(workdir, "rich.json", rich)
    mapsf = _write(workdir, "maps.json", maps)
    rad = gen.random_problem(rng, 2, 2, 3)
    radf = _problem_file(workdir, "rad.json", rad)
    n_sample = 200
    ell_max = float(max(p.loss.max(), 1.0))

    bad = serialize.problem_to_dict(p)
    bad_sum = dict(bad, eta=(p.eta * 1.1).tolist())
    bad_neg = dict(bad, eta=[[0.6, -0.1, 0.0], [0.2, 0.1, 0.0], [0.1, 0.1, 0.0]])
    bad_missing = {k: v for k, v in bad.items() if k != "loss"}

    def profile_expect():
        def profs(problem):
            return [{"values": pr.values.tolist(), "masses": pr.masses.tolist()}
                    for pr in rs.loss_profile_set(problem)]
        return {"profiles_a": profs(p), "profiles_b": profs(q),
                "hausdorff_w1": rs.hausdorff_loss_profiles(p, q)}

    partition = rs.Partition(blocks=tuple(map(tuple, blocks)), ny=p.ny)
    return [
        Command(["sample", pf, "--n", str(n_sample), "--seed", str(seed)],
                lambda: {"problem": serialize.problem_to_dict(
                    rs.sample_empirical(p, n_sample, seed)), "n": n_sample}),
        Command(["coarsen", pf, partf],
                lambda: {"problem": serialize.problem_to_dict(rs.coarsen(p, partition)),
                         "bound": rs.coarsening_bound(p, partition)}),
        Command(["reeb", gf, "--edges", ef],
                lambda: serialize.reeb_to_dict(rs.reeb_graph(graph))),
        Command(["verify", richf, pf, mapsf],
                lambda: {"ok": True, "violation": rs.verify_simulation(
                    rich, p, maps["f1"], maps["f2"], maps["fwd"], maps["bwd"],
                    tol=1e-12).violation}),
        Command(["bound", pf, swapf, "--mode", "loss-swap"],
                lambda: {"value": rs.risk_distance_upper_shared(p, swapped,
                                                                "shared_eta_H")}),
        Command(["bound", pf, rewf, "--mode", "eta-tv", "--ell-max", repr(ell_max)],
                lambda: {"value": rs.tv_bound(p, reweighted, ell_max)}),
        Command(["rademacher", radf, "--m", "3", "--exact"],
                lambda: {"value": rs.rademacher_exact_small(rad, 3)}),
        Command(["profile", pf, qf], profile_expect),
        Command(["bound", pf, qf, "--mode", "lower"],
                lambda: {"value": rs.risk_distance_lower(p, q), "kind": "lower_bound"}),
        Command(["rademacher", pf, "--m", "2", "--samples", "400", "--seed", str(seed)],
                lambda: dict(zip(("estimate", "standard_error"),
                                 rs.rademacher_mc(p, 2, 400, seed)))),
        Command(["distance", _write(workdir, "bad_sum.json", bad_sum), qf], None, "eta"),
        Command(["sample", _write(workdir, "bad_neg.json", bad_neg), "--n", "5"],
                None, "eta[0][1]"),
        Command(["coarsen", _write(workdir, "bad_missing.json", bad_missing), partf],
                None, "loss"),
    ]


def lp_commands(seed: int, workdir: str) -> list[Command]:
    """Commands that solve LPs, on small inputs so the process dominates."""
    commands = []
    for k, t in enumerate((0.5, 0.25, None)):
        rng = gen.rng_for(seed, 5, 0, k)
        a, b = gen.random_problem(rng, 2, 2, 2), gen.random_problem(rng, 2, 2, 2)
        af = _problem_file(workdir, f"a{k}.json", a)
        bf = _problem_file(workdir, f"b{k}.json", b)
        commands.append(Command(
            ["distance", af, bf],
            partial(lambda a, b: _distance_expect(rs.risk_distance_exact(a, b)), a, b)))
        if t is not None:
            commands.append(Command(["geodesic", af, bf, "--t", repr(t)],
                                    partial(_geodesic_expect, a, b, t)))
    rng = gen.rng_for(seed, 5, 1)
    wa = gen.weighted(rng, gen.random_problem(rng, 2, 2, 2))
    wb = gen.weighted(rng, gen.random_problem(rng, 2, 2, 2))
    waf = _problem_file(workdir, "wa.json", wa.problem, wa.lam)
    wbf = _problem_file(workdir, "wb.json", wb.problem, wb.lam)
    for order in (1.0, 2.0):
        commands.append(Command(
            ["distance-lp", waf, wbf, "--p", repr(order)],
            partial(lambda o: _distance_expect(rs.lp_risk_distance(wa, wb, p=o)), order)))
    commands.append(Command(
        ["profile", waf, wbf],
        lambda: {"hausdorff_w1": rs.hausdorff_loss_profiles(wa.problem, wb.problem),
                 "wasserstein_profile_distribution":
                     rs.wasserstein_profile_distributions(wa, wb, p=1.0)}))
    for k in range(2):
        rng = gen.rng_for(seed, 5, 2, k)
        p = gen.random_problem(rng, 2, 2, 2)
        kernel = rng.random((4, 2)) + 0.5
        # a loss in [0, 0.9] with zero diagonal is 1-Lipschitz for the 0-1
        # label metric, as the noise certificate requires
        loss = rng.random((2, 2)) * 0.9
        np.fill_diagonal(loss, 0.0)
        stages = [{"kind": "loss_swap", "loss": loss.tolist()},
                  {"kind": "label_noise",
                   "kernel": (kernel / kernel.sum(axis=1, keepdims=True)).tolist(),
                   "d_y": [[0.0, 1.0], [1.0, 0.0]], "lipschitz_c": 1.0}]
        pf = _problem_file(workdir, f"c{k}.json", p)
        sf = _write(workdir, f"pipeline{k}.json", stages)
        commands.append(Command(["corrupt", pf, sf, "--exact"],
                                partial(_corrupt_expect, p, stages)))
    rng = gen.rng_for(seed, 5, 3)
    pairs = [(gen.constants_graph([0.0, 1.0]),
              gen.constants_graph([0.0, 1.0, float(rng.uniform(0.3, 0.45))])),
             (rs.PredictorGraph(gen.random_problem(rng, 2, 2, 2), ((0, 1),)),
              rs.PredictorGraph(gen.random_problem(rng, 2, 2, 3), ((0, 1), (1, 2))))]
    for k, (g, h) in enumerate(pairs):
        gf = _problem_file(workdir, f"g{k}.json", g.problem)
        hf = _problem_file(workdir, f"h{k}.json", h.problem)
        ge = _write(workdir, f"ge{k}.json", {"edges": [list(e) for e in g.edges]})
        he = _write(workdir, f"he{k}.json", {"edges": [list(e) for e in h.edges]})
        commands.append(Command(
            ["connected-distance", gf, hf, "--edges-a", ge, "--edges-b", he],
            partial(lambda g, h: _distance_expect(
                rs.connected_risk_distance_exact(g, h)), g, h)))
    pf = _problem_file(workdir, "w1.json", wa.problem)
    eta = rng.random(wa.problem.eta.shape) + 0.05
    moved = rs.FiniteProblem(wa.problem.x_labels, wa.problem.y_labels, eta / eta.sum(),
                             wa.problem.loss, wa.problem.predictors)
    mf = _problem_file(workdir, "w1_moved.json", moved)
    commands.append(Command(
        ["bound", pf, mf, "--mode", "eta-w1"],
        lambda: {"value": rs.risk_distance_upper_shared(wa.problem, moved,
                                                        "shared_all_but_eta")}))
    return commands


def _geodesic_expect(a, b, t) -> dict:
    witness = rs.risk_distance_exact(a, b, fallback=False)
    return {"problem": serialize.problem_to_dict(rs.geodesic_problem(a, b, witness, t)),
            "endpoint_distance": witness.value}


def _corrupt_expect(p, stages) -> dict:
    final, records = rs.run_pipeline(p, stages)
    return {"stages": [{"kind": r.kind, "bound": r.bound} for r in records],
            "cumulative_bound": float(sum(r.bound for r in records)),
            "problem": serialize.problem_to_dict(final),
            "endpoint_exact_distance": rs.risk_distance_exact(p, final,
                                                              fallback=False).value}


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in this process with its output captured.  The traced
    CLI passes use it, so the wrappers see the library calls."""
    from riskspace import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Seconds one pass of each batch takes on the reference machine (2 shared
# cores, Python 3.11, scipy 1.17).  A run makes round(--seconds / this)
# passes, so the sample counts behind each median and tail are the same on
# every run, however fast the host is that day.
NOMINAL_PASS_S = {
    "exact-ladder": 11.0,
    "small-lp-batch": 4.4,
    "landscape-enum": 4.5,
    "cli-nolp": 9.5,
    "cli-lp": 9.5,
}

IN_PROCESS = {
    "exact-ladder": exact_ladder,
    "small-lp-batch": small_lp_batch,
    "landscape-enum": landscape_enum,
}
CLI = {"cli-nolp": nolp_commands, "cli-lp": lp_commands}


def build(name: str, seed: int, workdir: str, in_process: bool = False) -> list[Op]:
    """The batch of a workload; ``in_process`` runs CLI commands through
    ``cli.main`` in this process instead of one process each."""
    if name in CLI:
        return _ops_for(CLI[name](seed, workdir), in_process)
    return IN_PROCESS[name](seed, workdir)
