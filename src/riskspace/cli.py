"""Command-line front door.

One command per process; inputs are problem JSON files, outputs are
machine-readable JSON (or CSV where a report is tabular).  Validation
failures exit 1 with an error object on stderr naming the offending field;
size-cap violations exit 2; LP solver failures exit 3.  Output files are
written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import corruption, distance, empirical, landscape, serialize
from .errors import CapacityError, SolverError, ValidationError
from .problems import (
    Partition,
    WeightedProblem,
    coarsen,
    coarsening_bound,
    loss_profile_set,
    verify_simulation,
)
from .transport import hausdorff_loss_profiles, wasserstein_profile_distributions


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_weighted(path: str) -> WeightedProblem:
    problem, lam = serialize.load_problem(path)
    if lam is None:
        raise ValidationError(
            f"{path} lacks the 'lambda' key required for weighted commands",
            field="lambda",
        )
    return WeightedProblem(problem=problem, lam=lam)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path: str, name: str, *keys: str) -> dict:
    """The JSON object in the ``name`` file ``path``, holding every key of
    ``keys`` (see :func:`serialize._json_object`)."""
    return serialize._json_object(_load_json(path), name, keys, f"{name} file {path}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="riskspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write output here (atomic)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("distance", "exact distance between two problems")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument("--cap-pairs", type=int, default=distance.DEFAULT_CAP_PAIRS)
    p.add_argument("--cap-support", type=int, default=distance.DEFAULT_CAP_SUPPORT)
    p.add_argument("--no-heuristic", action="store_true",
                   help="fail (exit 2) instead of falling back beyond the caps")
    p.add_argument("--witnesses", action="store_true",
                   help="include witness coupling/correspondence in the output")

    p = add("distance-lp", "weighted distance by alternating minimization")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witnesses", action="store_true")

    p = add("bound", "closed-form stability bound for shared-structure pairs")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument(
        "--mode",
        required=True,
        choices=("loss-swap", "eta-w1", "eta-tv", "predictor-swap", "lower"),
    )
    p.add_argument("--ell-max", type=float, help="loss cap for --mode eta-tv")

    p = add("corrupt", "run a corruption pipeline and emit its bound ledger")
    p.add_argument("problem")
    p.add_argument("pipeline")
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact endpoint distance when it fits")
    p.add_argument("--cap-pairs", type=int, default=distance.DEFAULT_CAP_PAIRS)
    p.add_argument("--cap-support", type=int, default=distance.DEFAULT_CAP_SUPPORT)

    p = add("coarsen", "coarsen the response space by a partition")
    p.add_argument("problem")
    p.add_argument("partition", help="JSON file: {\"blocks\": [[...], ...]}")

    p = add("sample", "draw a seeded empirical problem")
    p.add_argument("problem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("convergence", "empirical-problem convergence experiment")
    p.add_argument("problem")
    p.add_argument("--ns", default="10,100,1000",
                   help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-pairs", type=int, default=distance.DEFAULT_CAP_PAIRS)
    p.add_argument("--cap-support", type=int, default=distance.DEFAULT_CAP_SUPPORT)

    p = add("rademacher", "Rademacher complexity (Monte Carlo or exact)")
    p.add_argument("problem")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = add("reeb", "Reeb graph of a risk landscape")
    p.add_argument("problem")
    p.add_argument("--edges", required=True,
                   help="JSON file: {\"edges\": [[i, j], ...]}")
    p.add_argument("--tol", type=float, default=0.0,
                   help="height-merge tolerance for level grouping")

    p = add("connected-distance", "distance over inverse-connected alignments")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument("--edges-a", required=True)
    p.add_argument("--edges-b", required=True)
    p.add_argument("--cap-pairs", type=int, default=landscape.CONNECTED_CAP_PAIRS)
    p.add_argument("--witnesses", action="store_true")

    p = add("geodesic", "interpolate between two problems at parameter t")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--cap-pairs", type=int, default=distance.DEFAULT_CAP_PAIRS)
    p.add_argument("--cap-support", type=int, default=distance.DEFAULT_CAP_SUPPORT)

    p = add("profile", "loss profiles, and profile-set comparisons")
    p.add_argument("problem_a")
    p.add_argument("problem_b", nargs="?")
    p.add_argument("--p", type=float, default=1.0,
                   help="order for the weighted profile-distribution distance")

    p = add("verify", "check a simulation witness between two problems")
    p.add_argument("rich")
    p.add_argument("base")
    p.add_argument("maps", help="JSON file with f1, f2, fwd, bwd index maps")
    p.add_argument("--tol", type=float, default=1e-12)

    return parser


def _edges_graph(problem, path: str) -> landscape.PredictorGraph:
    edges = _load_object(path, "edges", "edges")["edges"]
    return landscape.PredictorGraph(problem=problem, edges=edges)


def _cmd_distance(args) -> dict:
    pa, _ = serialize.load_problem(args.problem_a)
    pb, _ = serialize.load_problem(args.problem_b)
    result = distance.risk_distance_exact(
        pa, pb, cap_pairs=args.cap_pairs, cap_support=args.cap_support,
        fallback=not args.no_heuristic,
    )
    return serialize.distance_result_to_dict(result,
                                             include_witnesses=args.witnesses)


def _cmd_distance_lp(args) -> dict:
    wa = _load_weighted(args.problem_a)
    wb = _load_weighted(args.problem_b)
    result = distance.lp_risk_distance(
        wa, wb, p=args.p, restarts=args.restarts, seed=args.seed
    )
    out = serialize.distance_result_to_dict(result,
                                            include_witnesses=args.witnesses)
    out.update({"p": args.p, "seed": args.seed, "prng": empirical.PRNG_ID})
    return out


def _cmd_bound(args) -> dict:
    pa, _ = serialize.load_problem(args.problem_a)
    pb, _ = serialize.load_problem(args.problem_b)
    if args.mode == "loss-swap":
        value = distance.risk_distance_upper_shared(pa, pb, "shared_eta_H")
    elif args.mode == "eta-w1":
        value = distance.risk_distance_upper_shared(pa, pb, "shared_all_but_eta")
    elif args.mode == "eta-tv":
        if args.ell_max is None:
            raise ValidationError("--ell-max is required for eta-tv",
                                  field="ell_max")
        value = corruption.tv_bound(pa, pb, args.ell_max)
    elif args.mode == "predictor-swap":
        value = distance.risk_distance_upper_shared(pa, pb, "shared_all_but_H")
    else:
        value = distance.risk_distance_lower(pa, pb)
    kind = "lower_bound" if args.mode == "lower" else "upper_bound"
    return {"mode": args.mode, "value": value, "kind": kind}


def _cmd_corrupt(args) -> dict:
    problem, lam = serialize.load_problem(args.problem)
    stages = _load_json(args.pipeline)
    if not isinstance(stages, list):
        raise ValidationError("pipeline JSON must be a list of stage objects",
                              field="pipeline")
    final, records = corruption.run_pipeline(problem, stages, lam=lam)
    out = {
        "stages": [{"kind": r.kind, "bound": r.bound} for r in records],
        "cumulative_bound": float(sum(r.bound for r in records)),
        "problem": serialize.problem_to_dict(final),
    }
    if args.exact:
        try:
            result = distance.risk_distance_exact(
                problem, final, cap_pairs=args.cap_pairs,
                cap_support=args.cap_support, fallback=False,
            )
            out["endpoint_exact_distance"] = result.value
        except CapacityError:
            out["endpoint_exact_distance"] = None
    return out


def _cmd_coarsen(args) -> dict:
    problem, _ = serialize.load_problem(args.problem)
    blocks = _load_object(args.partition, "blocks", "blocks")["blocks"]
    q = Partition(blocks=blocks, ny=problem.ny)
    coarse = coarsen(problem, q)
    return {
        "problem": serialize.problem_to_dict(coarse),
        "bound": coarsening_bound(problem, q),
    }


def _cmd_sample(args) -> dict:
    problem, _ = serialize.load_problem(args.problem)
    sampled = empirical.sample_empirical(problem, args.n, args.seed)
    return {
        "problem": serialize.problem_to_dict(sampled),
        "n": args.n,
        "seed": args.seed,
        "prng": empirical.PRNG_ID,
    }


def _cmd_convergence(args):
    problem, _ = serialize.load_problem(args.problem)
    try:
        ns = json.loads(f"[{args.ns}]")
    except json.JSONDecodeError:
        raise ValidationError(f"--ns must be comma-separated numbers, got {args.ns!r}",
                              field="ns") from None
    report = empirical.convergence_experiment(
        problem, ns, trials=args.trials, seed=args.seed,
        cap_pairs=args.cap_pairs, cap_support=args.cap_support,
    )
    if args.format == "csv":
        return serialize.report_to_csv(report)
    return serialize.report_to_dict(report)


def _cmd_rademacher(args) -> dict:
    problem, _ = serialize.load_problem(args.problem)
    if args.exact:
        value = empirical.rademacher_exact_small(problem, args.m)
        return {"m": args.m, "value": value, "method": "exact"}
    mean, se = empirical.rademacher_mc(problem, args.m, args.samples, args.seed)
    return {
        "m": args.m,
        "estimate": mean,
        "standard_error": se,
        "samples": args.samples,
        "seed": args.seed,
        "prng": empirical.PRNG_ID,
        "method": "monte-carlo",
    }


def _cmd_reeb(args):
    problem, _ = serialize.load_problem(args.problem)
    graph = _edges_graph(problem, args.edges)
    reeb = landscape.reeb_graph(graph, height_tol=args.tol)
    if args.format == "csv":
        return serialize.reeb_to_csv(reeb)
    return serialize.reeb_to_dict(reeb)


def _cmd_connected(args) -> dict:
    pa, _ = serialize.load_problem(args.problem_a)
    pb, _ = serialize.load_problem(args.problem_b)
    ga = _edges_graph(pa, args.edges_a)
    gb = _edges_graph(pb, args.edges_b)
    result = landscape.connected_risk_distance_exact(ga, gb,
                                                     cap_pairs=args.cap_pairs)
    out = serialize.distance_result_to_dict(result,
                                            include_witnesses=args.witnesses)
    if np.isinf(result.value):
        out["value"] = "inf"
    return out


def _cmd_geodesic(args) -> dict:
    pa, _ = serialize.load_problem(args.problem_a)
    pb, _ = serialize.load_problem(args.problem_b)
    witness = distance.risk_distance_exact(
        pa, pb, cap_pairs=args.cap_pairs, cap_support=args.cap_support,
        fallback=False,
    )
    interpolated = distance.geodesic_problem(pa, pb, witness, args.t)
    return {
        "problem": serialize.problem_to_dict(interpolated),
        "t": args.t,
        "endpoint_distance": witness.value,
    }


def _cmd_profile(args) -> dict:
    def profiles(problem):
        return [{"values": prof.values.tolist(), "masses": prof.masses.tolist()}
                for prof in loss_profile_set(problem)]

    pa, lam_a = serialize.load_problem(args.problem_a)
    out: dict = {"profiles_a": profiles(pa)}
    if args.problem_b:
        pb, lam_b = serialize.load_problem(args.problem_b)
        out["profiles_b"] = profiles(pb)
        out["hausdorff_w1"] = hausdorff_loss_profiles(pa, pb)
        if lam_a is not None and lam_b is not None:
            out["wasserstein_profile_distribution"] = (
                wasserstein_profile_distributions(
                    WeightedProblem(problem=pa, lam=lam_a),
                    WeightedProblem(problem=pb, lam=lam_b),
                    p=args.p,
                )
            )
    return out


def _cmd_verify(args) -> dict:
    rich, _ = serialize.load_problem(args.rich)
    base, _ = serialize.load_problem(args.base)
    maps = _load_object(args.maps, "maps", "f1", "f2", "fwd", "bwd")
    check = verify_simulation(
        rich, base, maps["f1"], maps["f2"], maps["fwd"], maps["bwd"],
        tol=args.tol,
    )
    return {"ok": check.ok, "violation": check.violation}


_COMMANDS = {
    "distance": _cmd_distance,
    "distance-lp": _cmd_distance_lp,
    "bound": _cmd_bound,
    "corrupt": _cmd_corrupt,
    "coarsen": _cmd_coarsen,
    "sample": _cmd_sample,
    "convergence": _cmd_convergence,
    "rademacher": _cmd_rademacher,
    "reeb": _cmd_reeb,
    "connected-distance": _cmd_connected,
    "geodesic": _cmd_geodesic,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
}

_CSV_COMMANDS = {"convergence", "reeb"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    field = "path"  # what an OSError or undecodable file blames: an input, then --out
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise ValidationError(
                f"{args.command} has no CSV form (tabular commands:"
                f" {', '.join(sorted(_CSV_COMMANDS))})",
                field="format",
            )
        result = _COMMANDS[args.command](args)
        text = result if isinstance(result, str) else serialize.dump_json(result)
        field = "out"
        if args.out:
            serialize.atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    except ValidationError as exc:
        sys.stderr.write(serialize.dump_json({
            "error": "validation", "message": str(exc), "field": exc.field,
        }))
        return 1
    except CapacityError as exc:
        sys.stderr.write(serialize.dump_json({
            "error": "capacity", "message": str(exc), "cap": exc.cap,
            "actual": exc.actual,
        }))
        return 2
    except SolverError as exc:
        sys.stderr.write(serialize.dump_json({
            "error": "solver", "message": str(exc),
        }))
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(serialize.dump_json({
            "error": "validation", "message": str(exc), "field": field,
        }))
        return 1
    except json.JSONDecodeError as exc:
        sys.stderr.write(serialize.dump_json({
            "error": "validation", "message": f"invalid JSON: {exc}",
            "field": "path",
        }))
        return 1
    return 0


def run():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
