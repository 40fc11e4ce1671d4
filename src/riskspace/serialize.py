"""JSON and CSV interchange.

Problem schema: an object with keys ``x_labels``, ``y_labels``, ``eta``
(row-major nested arrays), ``loss``, ``predictors`` (array of integer
arrays), and optional ``lambda``.  Reals are serialized with ``repr``
precision (17 significant digits), so a dump/load round trip reproduces the
in-memory problem bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import tempfile
from typing import Any

import numpy as np

from .distance import DistanceResult
from .empirical import ExperimentReport
from .errors import ValidationError
from .landscape import ReebGraph
from .problems import FiniteProblem, WeightedProblem


def problem_to_dict(
    problem: FiniteProblem, lam: np.ndarray | None = None
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "x_labels": list(problem.x_labels),
        "y_labels": list(problem.y_labels),
        "eta": problem.eta.tolist(),
        "loss": problem.loss.tolist(),
        "predictors": problem.predictors.tolist(),
    }
    if lam is not None:
        out["lambda"] = np.asarray(lam, dtype=float).tolist()
    return out


def weighted_problem_to_dict(wp: WeightedProblem) -> dict[str, Any]:
    return problem_to_dict(wp.problem, lam=wp.lam)


def _json_object(data, name: str, keys, source: str) -> dict:
    """``data`` as a JSON object holding every key of ``keys``: the one check
    of problem and side files.  Anything else is refused naming ``name``, or
    the first missing key; messages call the object ``source``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source} must be a JSON object", field=name)
    for key in keys:
        if key not in data:
            raise ValidationError(f"{source} lacks key {key!r}", field=key)
    return data


_PROBLEM_KEYS = ("x_labels", "y_labels", "eta", "loss", "predictors")


def problem_from_dict(data: dict[str, Any]) -> tuple[FiniteProblem, np.ndarray | None]:
    """Parse the problem schema; returns (problem, lambda-or-None)."""
    data = _json_object(data, "problem", _PROBLEM_KEYS, "problem JSON")
    problem = FiniteProblem(**{key: data[key] for key in _PROBLEM_KEYS})
    lam = None
    if data.get("lambda") is not None:
        lam = WeightedProblem(problem=problem, lam=data["lambda"]).lam
    return problem, lam


def load_problem(path: str) -> tuple[FiniteProblem, np.ndarray | None]:
    with open(path, encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


def distance_result_to_dict(
    result: DistanceResult, include_witnesses: bool = True
) -> dict[str, Any]:
    out: dict[str, Any] = {"value": result.value, "status": result.status}
    if include_witnesses:
        if result.witness_coupling is not None:
            out["witness_coupling"] = result.witness_coupling.tolist()
        if result.witness_correspondence is not None:
            out["witness_correspondence"] = [
                [int(h), int(hp)]
                for h, hp in np.argwhere(result.witness_correspondence)
            ]
        if result.witness_predictor_coupling is not None:
            out["witness_predictor_coupling"] = (
                result.witness_predictor_coupling.tolist()
            )
    return out


def reeb_to_dict(reeb: ReebGraph) -> dict[str, Any]:
    return {
        "nodes": [
            {"id": i, "height": h, "members": list(members)}
            for i, (h, members) in enumerate(reeb.nodes)
        ],
        "edges": [list(e) for e in reeb.edges],
    }


def _csv_text(header: list[str], rows) -> str:
    """A header row and then ``rows`` as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def reeb_to_csv(reeb: ReebGraph) -> str:
    """Plot-ready CSV of (node_id, height, degree)."""
    return _csv_text(
        ["node_id", "height", "degree"],
        ([i, repr(height), int(degree)]
         for i, ((height, _), degree) in enumerate(zip(reeb.nodes, reeb.degrees()))),
    )


def report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    return {
        "seed": report.seed,
        "prng": report.prng,
        "rows": [
            {
                "n": row.n,
                "trial": row.trial,
                "seed": row.seed,
                "tv_bound": row.tv_bound,
                "exact_distance": row.exact_distance,
                "bound_used": row.bound_used,
            }
            for row in report.rows
        ],
    }


def report_to_csv(report: ExperimentReport) -> str:
    return _csv_text(
        ["n", "trial", "seed", "prng", "tv_bound", "exact_distance", "bound_used"],
        ([
            row.n,
            row.trial,
            row.seed,
            report.prng,
            repr(row.tv_bound),
            "" if row.exact_distance is None else repr(row.exact_distance),
            row.bound_used,
        ] for row in report.rows),
    )


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def atomic_write(path: str, text: str):
    """Write via a temp file in the target directory, then rename.  The file
    gets the mode a plain ``open(path, "w")`` gives it: an existing file
    keeps its mode, a new one gets 0o666 less the umask (the temp file alone
    would leave 0o600)."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
