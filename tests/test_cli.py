"""CLI subcommands, JSON schemas, exit codes, atomic output."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import stat
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

import riskspace as rs
from riskspace import cli, serialize
from gen import (
    identity_support_problem,
    rademacher_example_problem,
    random_problem,
    random_weighted,
    repeated_predictor_problem,
)


@pytest.fixture
def paths(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return tmp_path, write


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _problem_file(write, name, problem, lam=None):
    return write(name, serialize.problem_to_dict(problem, lam=lam))


# --------------------------------------------------------------------------
# Schema round trips
# --------------------------------------------------------------------------

def test_problem_json_roundtrip_bit_identical():
    rng = np.random.default_rng(130)
    for _ in range(10):
        p = random_problem(rng)
        data = json.loads(json.dumps(serialize.problem_to_dict(p)))
        q, lam = serialize.problem_from_dict(data)
        assert q == p
        assert lam is None


def test_weighted_problem_roundtrip():
    rng = np.random.default_rng(131)
    p = random_problem(rng)
    lam = rng.dirichlet(np.ones(p.n_predictors))
    data = json.loads(json.dumps(serialize.problem_to_dict(p, lam=lam)))
    q, lam_back = serialize.problem_from_dict(data)
    assert q == p
    assert np.array_equal(lam_back, lam)


def test_problem_json_missing_key_names_field():
    with pytest.raises(rs.ValidationError) as err:
        serialize.problem_from_dict({"x_labels": ["x"]})
    assert err.value.field == "y_labels"


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"{\"eta\": ["],
                         ids=["missing", "not-utf8", "not-json"])
def test_load_problem_refuses_unreadable_files_naming_path(tmp_path, content):
    path = tmp_path / "p.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(rs.ValidationError) as err:
        serialize.load_problem(str(path))
    assert err.value.field == "path"


@pytest.mark.parametrize("data", [[], 5, "x", None])
def test_cli_non_object_problem_names_problem(capsys, paths, data):
    _, write = paths
    path = write("p.json", data)
    assert _validation_field(capsys, ["distance", path, path]) == "problem"


def test_cli_out_file_gets_the_usual_mode(capsys, paths):
    tmp_path, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("")
    old.chmod(0o604)
    umask = os.umask(0o022)
    try:
        for out in (new, old):
            assert _run(capsys, ["distance", path, path, "--out", str(out)])[0] == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o604


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # a umask flipped to read it would give another thread's new files 0o666
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("")
    old.chmod(0o604)
    set_umask = os.umask
    umask = set_umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", lambda mask: pytest.fail("umask changed"))
        for out in (new, old):
            serialize.atomic_write(str(out), "{}\n")
    finally:
        set_umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert new.read_text() == old.read_text() == "{}\n"


def test_problem_json_ragged_array_names_field():
    with pytest.raises(rs.ValidationError) as err:
        serialize.problem_from_dict({
            "x_labels": ["x0", "x1"], "y_labels": ["a"],
            "eta": [[0.5], [0.25, 0.25]],
            "loss": [[0.0]], "predictors": [[0, 0]],
        })
    assert err.value.field == "eta"


def test_distance_result_serialization():
    p = identity_support_problem()
    result = rs.risk_distance_exact(p, rs.one_point_problem(0.0))
    data = serialize.distance_result_to_dict(result)
    assert data["value"] == pytest.approx(1.0, abs=1e-9)
    assert data["status"] == "exact"
    assert all(len(pair) == 2 for pair in data["witness_correspondence"])
    gamma = np.asarray(data["witness_coupling"])
    assert gamma.shape == (2, 2, 1, 1)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def test_parser_dispatch_and_readme_list_the_same_commands():
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("riskspace ")]
    assert list(subparsers.choices) == documented


def _power_literal(text: str) -> int:
    base, _, exponent = text.partition("**")
    return int(base) ** int(exponent or 1)


def test_readme_size_caps_equal_the_constants():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Size caps and exactness", 1)[1].split("\n## ", 1)[0]
    stated = {name: _power_literal(value)
              for name, value in re.findall(r"`([A-Z_]+) = ([0-9*]+)`", section)}
    assert stated == {
        "DEFAULT_CAP_PAIRS": rs.distance.DEFAULT_CAP_PAIRS,
        "DEFAULT_CAP_SUPPORT": rs.distance.DEFAULT_CAP_SUPPORT,
        "CONNECTED_CAP_PAIRS": rs.landscape.CONNECTED_CAP_PAIRS,
        "ENUMERATION_CAPACITY": rs.distance.ENUMERATION_CAPACITY,
        "RADEMACHER_CAPACITY": rs.empirical.RADEMACHER_CAPACITY,
        "SAMPLE_CAPACITY": rs.empirical.SAMPLE_CAPACITY,
    }


def test_cli_distance_example_pair(capsys, paths):
    _, write = paths
    a = _problem_file(write, "a.json", rademacher_example_problem(4))
    b = _problem_file(write, "b.json", rs.one_point_problem(0.0))
    code, out, err = _run(capsys, ["distance", a, b])
    assert code == 0, err
    data = json.loads(out)
    assert data == {"value": pytest.approx(0.25, abs=1e-9), "status": "exact"}


def test_cli_distance_self_zero(capsys, paths):
    _, write = paths
    a = _problem_file(write, "a.json", identity_support_problem())
    code, out, _ = _run(capsys, ["distance", a, a])
    assert code == 0
    assert json.loads(out)["value"] <= 1e-9


def test_cli_distance_witnesses_flag(capsys, paths):
    _, write = paths
    a = _problem_file(write, "a.json", rademacher_example_problem(2))
    b = _problem_file(write, "b.json", rs.one_point_problem(0.0))
    code, out, _ = _run(capsys, ["distance", a, b, "--witnesses"])
    assert code == 0
    data = json.loads(out)
    assert "witness_coupling" in data and "witness_correspondence" in data


def test_cli_distance_capacity_exit_2(capsys, paths):
    rng = np.random.default_rng(132)
    _, write = paths
    a = _problem_file(write, "a.json", random_problem(rng, n_h=3))
    b = _problem_file(write, "b.json", random_problem(rng, n_h=3))
    code, out, err = _run(capsys, ["distance", a, b, "--cap-pairs", "2",
                                   "--no-heuristic"])
    assert code == 2
    assert json.loads(err)["error"] == "capacity"


def test_cli_distance_lp_requires_lambda(capsys, paths):
    rng = np.random.default_rng(133)
    _, write = paths
    p = random_problem(rng)
    bare = _problem_file(write, "bare.json", p)
    code, _, err = _run(capsys, ["distance-lp", bare, bare])
    assert code == 1
    assert json.loads(err)["field"] == "lambda"


def test_cli_distance_lp_echoes_seed(capsys, paths):
    rng = np.random.default_rng(134)
    _, write = paths
    p = random_problem(rng)
    lam = np.full(p.n_predictors, 1.0 / p.n_predictors)
    a = _problem_file(write, "a.json", p, lam=lam)
    code, out, _ = _run(capsys, ["distance-lp", a, a, "--seed", "9"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 9
    assert data["prng"] == "numpy-PCG64"
    assert data["value"] <= 1e-9


def test_cli_distance_lp_witnesses(capsys, paths):
    rng = np.random.default_rng(134)
    _, write = paths
    wp, wq = random_weighted(rng), random_weighted(rng)
    a = _problem_file(write, "a.json", wp.problem, lam=wp.lam)
    b = _problem_file(write, "b.json", wq.problem, lam=wq.lam)
    code, out, _ = _run(capsys, ["distance-lp", a, b, "--witnesses"])
    assert code == 0
    data = json.loads(out)
    expected = rs.lp_risk_distance(wp, wq)
    assert data["value"] == expected.value
    assert data["witness_predictor_coupling"] == expected.witness_predictor_coupling.tolist()
    assert data["witness_coupling"] == expected.witness_coupling.tolist()


def test_cli_bound_modes(capsys, paths):
    rng = np.random.default_rng(135)
    _, write = paths
    p = random_problem(rng)
    shifted = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta, p.loss + 0.5,
                               p.predictors)
    a = _problem_file(write, "a.json", p)
    b = _problem_file(write, "b.json", shifted)
    code, out, _ = _run(capsys, ["bound", a, b, "--mode", "loss-swap"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-12)
    code, out, _ = _run(capsys, ["bound", a, b, "--mode", "lower"])
    assert json.loads(out)["kind"] == "lower_bound"
    # eta-tv needs --ell-max
    code, _, err = _run(capsys, ["bound", a, a, "--mode", "eta-tv"])
    assert code == 1


@pytest.mark.parametrize("mode", ["loss-swap", "eta-w1", "eta-tv", "predictor-swap"])
def test_cli_bound_mismatch_names_p_prime(capsys, paths, mode):
    _, write = paths
    p = random_problem(np.random.default_rng(136), nx=2, ny=2, n_h=2)
    other = random_problem(np.random.default_rng(137), nx=2, ny=2, n_h=3)
    argv = ["bound", _problem_file(write, "a.json", p),
            _problem_file(write, "b.json", other), "--mode", mode, "--ell-max", "9"]
    assert _validation_field(capsys, argv) == "p_prime"


def test_cli_corrupt_ledger(capsys, paths):
    _, write = paths
    eta = np.array([[0.6, 0.2], [0.1, 0.1]])
    base = identity_support_problem()
    # three predictors keep the endpoint distance inside the exact caps
    p = rs.FiniteProblem(base.x_labels, base.y_labels, eta, base.loss,
                         base.predictors[:3])
    mask = np.array([[True, True], [False, False]])
    f = (mask / eta[mask].sum()).tolist()
    eps = 0.1
    kernel = np.zeros((4, 2))
    for x in range(2):
        for y in range(2):
            row = np.full(2, eps / 2)
            row[y] += 1 - eps
            kernel[x * 2 + y] = row
    problem_path = _problem_file(write, "p.json", p)
    pipeline_path = write("pipeline.json", [
        {"kind": "bias_density", "f": f},
        {"kind": "label_noise", "kernel": kernel.tolist(),
         "d_y": [[0.0, 1.0], [1.0, 0.0]], "lipschitz_c": 1.0},
    ])
    code, out, _ = _run(capsys, ["corrupt", problem_path, pipeline_path,
                                 "--exact"])
    assert code == 0
    data = json.loads(out)
    bounds = [stage["bound"] for stage in data["stages"]]
    assert bounds == [pytest.approx(0.2, abs=1e-12),
                      pytest.approx(0.05, abs=1e-12)]
    assert data["cumulative_bound"] == pytest.approx(0.25, abs=1e-12)
    assert data["endpoint_exact_distance"] <= data["cumulative_bound"] + 1e-9
    # the emitted problem re-ingests
    final, _ = serialize.problem_from_dict(data["problem"])
    assert abs(final.eta.sum() - 1.0) < 1e-12


def test_cli_coarsen_roundtrip(capsys, paths):
    rng = np.random.default_rng(136)
    _, write = paths
    p = random_problem(rng, ny=3)
    problem_path = _problem_file(write, "p.json", p)
    partition_path = write("q.json", {"blocks": [[0, 2], [1]]})
    code, out, _ = _run(capsys, ["coarsen", problem_path, partition_path])
    assert code == 0
    data = json.loads(out)
    coarse, _ = serialize.problem_from_dict(data["problem"])
    expected = rs.coarsen(p, rs.Partition(blocks=((0, 2), (1,)), ny=3))
    assert coarse == expected
    assert data["bound"] == rs.coarsening_bound(
        p, rs.Partition(blocks=((0, 2), (1,)), ny=3)
    )


def test_cli_coarsen_labels_with_commas(capsys, paths):
    _, write = paths
    p = replace(random_problem(np.random.default_rng(138), ny=4),
                y_labels=("a,b", "c", "a", "b"))
    problem_path = _problem_file(write, "p.json", p)
    partition_path = write("q.json", {"blocks": [[0], [2, 3], [1]]})
    code, out, _ = _run(capsys, ["coarsen", problem_path, partition_path])
    assert code == 0
    coarse, _ = serialize.problem_from_dict(json.loads(out)["problem"])
    assert coarse.y_labels == ("{a\\,b}", "{a,b}", "{c}")


# three predictors, of which the first two collapse under blocks [[0, 2], [1]]
_WEIGHTED_THREE = rs.FiniteProblem(
    ("x0", "x1"), ("a", "b", "c"), [[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]],
    1.0 - np.eye(3), [[0, 1], [2, 1], [1, 1]])


@pytest.mark.parametrize("argv, lam", [
    (["coarsen", "p.json", "q.json"], [0.5, 0.5]),
    (["sample", "p.json", "--n", "16", "--seed", "2"], [0.25, 0.25, 0.5]),
])
def test_cli_carries_lambda(capsys, paths, monkeypatch, argv, lam):
    tmp_path, write = paths
    monkeypatch.chdir(tmp_path)
    _problem_file(write, "p.json", _WEIGHTED_THREE, lam=[0.25, 0.25, 0.5])
    write("q.json", {"blocks": [[0, 2], [1]]})
    code, out, _ = _run(capsys, argv)
    assert code == 0
    emitted = json.loads(out)["problem"]
    assert emitted["lambda"] == lam
    write("emitted.json", emitted)
    assert _run(capsys, ["distance-lp", "emitted.json", "emitted.json"])[0] == 0


def test_cli_sample_echoes_seed_and_roundtrips(capsys, paths):
    _, write = paths
    p = identity_support_problem()
    path = _problem_file(write, "p.json", p)
    code, out, _ = _run(capsys, ["sample", path, "--n", "64", "--seed", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5 and data["prng"] == "numpy-PCG64"
    sampled, _ = serialize.problem_from_dict(data["problem"])
    assert sampled == rs.sample_empirical(p, 64, seed=5)


def test_cli_convergence_csv(capsys, paths):
    _, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    code, out, _ = _run(capsys, ["convergence", path, "--ns", "5,20",
                                 "--trials", "2", "--seed", "3",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,trial,seed,tv_bound,exact_distance,prng"
    assert len(lines) == 1 + 4


def test_cli_convergence_json_holds_the_csv_rows(capsys, paths):
    _, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    argv = ["convergence", path, "--ns", "5,20", "--trials", "2", "--seed", "3"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 3 and data["prng"] == "numpy-PCG64"
    assert [row["n"] for row in data["rows"]] == [5, 5, 20, 20]
    _, csv_out, _ = _run(capsys, [*argv, "--format", "csv"])
    header, *lines = csv_out.strip().splitlines()
    assert list(data["rows"][0]) + ["prng"] == header.split(",")
    assert [repr(row["tv_bound"]) for row in data["rows"]] == [
        line.split(",")[3] for line in lines]


def test_cli_rademacher(capsys, paths):
    _, write = paths
    path = _problem_file(write, "p.json", rademacher_example_problem(4))
    code, out, _ = _run(capsys, ["rademacher", path, "--m", "1", "--exact"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-12)
    code, out, _ = _run(capsys, ["rademacher", path, "--m", "1",
                                 "--samples", "500", "--seed", "2"])
    data = json.loads(out)
    assert data["prng"] == "numpy-PCG64"
    assert abs(data["estimate"] - 0.5) <= 5 * data["standard_error"]


def test_cli_reeb_json_and_csv(capsys, paths):
    _, write = paths
    heights = [1.0, 0.0, 1.0]
    n = len(heights)
    p = rs.FiniteProblem(
        ("x",), tuple(f"y{i}" for i in range(n)),
        np.array([[1.0, 0.0, 0.0]]),
        np.tile(np.asarray(heights)[:, None], (1, n)),
        np.arange(n)[:, None],
    )
    problem_path = _problem_file(write, "p.json", p)
    edges_path = write("edges.json", {"edges": [[0, 1], [1, 2]]})
    code, out, _ = _run(capsys, ["reeb", problem_path, "--edges", edges_path])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 3
    assert min(node["height"] for node in data["nodes"]) == 0.0
    code, out, _ = _run(capsys, ["reeb", problem_path, "--edges", edges_path,
                                 "--format", "csv"])
    assert out.splitlines()[0] == "node_id,height,degree"


def test_cli_connected_distance(capsys, paths):
    from gen import connected_gap_instance

    _, write = paths
    left, right = connected_gap_instance()
    a = _problem_file(write, "a.json", left.problem)
    b = _problem_file(write, "b.json", right.problem)
    ea = write("ea.json", {"edges": [list(e) for e in left.edges]})
    eb = write("eb.json", {"edges": [list(e) for e in right.edges]})
    code, out, _ = _run(capsys, ["connected-distance", a, b,
                                 "--edges-a", ea, "--edges-b", eb])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.6, abs=1e-9)


def test_cli_connected_distance_prints_inf_without_a_connected_correspondence(
        capsys, paths):
    # two isolated predictors against one: no correspondence is inverse-connected
    _, write = paths
    p = random_problem(np.random.default_rng(108), n_h=2)
    a = _problem_file(write, "a.json", p)
    b = _problem_file(write, "b.json", rs.one_point_problem(0.0))
    none = write("none.json", {"edges": []})
    code, out, _ = _run(capsys, ["connected-distance", a, b,
                                 "--edges-a", none, "--edges-b", none])
    assert code == 0
    assert json.loads(out) == {"value": "inf", "status": "exact"}


def test_cli_geodesic(capsys, paths):
    rng = np.random.default_rng(137)
    _, write = paths
    p0 = random_problem(rng, nx=2, ny=2, n_h=2)
    p1 = random_problem(rng, nx=2, ny=2, n_h=2)
    a = _problem_file(write, "a.json", p0)
    b = _problem_file(write, "b.json", p1)
    code, out, _ = _run(capsys, ["geodesic", a, b, "--t", "0.5"])
    assert code == 0
    data = json.loads(out)
    mid, _ = serialize.problem_from_dict(data["problem"])
    d = rs.risk_distance_exact(p0, mid).value
    assert d == pytest.approx(data["endpoint_distance"] / 2, abs=1e-6)


def test_cli_geodesic_labels_with_separators(capsys, paths):
    rng = np.random.default_rng(139)
    _, write = paths
    p0 = replace(random_problem(rng, nx=2, ny=2, n_h=2), x_labels=("x|y", "x"))
    p1 = replace(random_problem(rng, nx=2, ny=2, n_h=2), x_labels=("z", "y|z"))
    a = _problem_file(write, "a.json", p0)
    b = _problem_file(write, "b.json", p1)
    code, out, _ = _run(capsys, ["geodesic", a, b, "--t", "0.5"])
    assert code == 0
    mid, _ = serialize.problem_from_dict(json.loads(out)["problem"])
    assert mid.x_labels == ("x\\|y|z", "x\\|y|y\\|z", "x|z", "x|y\\|z")


def test_cli_profile(capsys, paths):
    _, write = paths
    p = identity_support_problem()
    lam = np.full(4, 0.25)
    a = _problem_file(write, "a.json", p, lam=lam)
    b = _problem_file(write, "b.json", rs.one_point_problem(0.0),
                      lam=np.array([1.0]))
    code, out, _ = _run(capsys, ["profile", a, b, "--p", "1"])
    assert code == 0
    data = json.loads(out)
    assert len(data["profiles_a"]) == 4
    assert data["hausdorff_w1"] == pytest.approx(1.0, abs=1e-9)
    assert "wasserstein_profile_distribution" in data


def test_cli_verify(capsys, paths):
    _, write = paths
    p = identity_support_problem()
    path = _problem_file(write, "p.json", p)
    maps_path = write("maps.json", {
        "f1": [0, 1], "f2": [0, 1], "fwd": [0, 1, 2, 3], "bwd": [0, 1, 2, 3],
    })
    code, out, _ = _run(capsys, ["verify", path, path, maps_path])
    assert code == 0
    assert json.loads(out) == {"ok": True, "violation": None}


# --------------------------------------------------------------------------
# Error handling and output plumbing
# --------------------------------------------------------------------------

def test_cli_csv_rejected_for_non_tabular_command(capsys, paths):
    _, write = paths
    a = _problem_file(write, "a.json", identity_support_problem())
    # only the tabular commands (convergence, reeb) declare --format
    code, _, err = _run(capsys, ["distance", a, a, "--format", "csv"])
    assert code == 1
    assert "usage" in err.lower() and "--format" in err


def test_cli_unknown_command_usage_exit_1(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    assert "usage" in err.lower()


@pytest.mark.parametrize("command, flags, field", [
    ("sample", ["--n", "nan"], "n"),
    ("sample", ["--n", "1.5"], "n"),
    ("sample", ["--n", "5", "--seed", "x"], "seed"),
    ("distance-lp", ["--restarts", "1e3"], "restarts"),
    ("distance-lp", ["--p", "abc"], "p"),
    ("distance", ["--cap-pairs", "1.5"], "cap_pairs"),
    ("bound", ["--mode", "eta-tv", "--ell-max", "one"], "ell_max"),
])
def test_cli_malformed_numeric_flag_names_field(capsys, paths, command, flags, field):
    _, write = paths
    wp = rs.WeightedProblem(problem=identity_support_problem(), lam=np.full(4, 0.25))
    path = _problem_file(write, "p.json", wp.problem, lam=wp.lam)
    files = [path] if command == "sample" else [path, path]
    assert _validation_field(capsys, [command, *files, *flags]) == field


@pytest.mark.parametrize("flags", [[], ["--n", "5", "--bogus", "1"]])
def test_cli_missing_or_unknown_flag_is_usage_error(capsys, paths, flags):
    _, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    code, _, err = _run(capsys, ["sample", path, *flags])
    assert code == 1
    assert "usage" in err.lower()


def test_cli_no_command_exit_1(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1


def test_cli_validation_error_json_on_stderr(capsys, paths):
    _, write = paths
    bad = write("bad.json", {"x_labels": ["x"], "y_labels": ["a"],
                             "eta": [[0.5]], "loss": [[0.0]],
                             "predictors": [[0]]})
    code, _, err = _run(capsys, ["distance", bad, bad])
    assert code == 1
    data = json.loads(err)
    assert data["error"] == "validation"
    assert data["field"] == "eta"


def _validation_field(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    data = json.loads(err)
    assert data["error"] == "validation"
    return data["field"]


@pytest.mark.parametrize("predictors, field", [
    ([[0.7, 1.9], [True, False]], "predictors[0][0]"),
    ([[0, 1], [0, True]], "predictors[1][1]"),
])
def test_cli_rejects_non_integer_predictors(capsys, paths, predictors, field):
    _, write = paths
    data = serialize.problem_to_dict(identity_support_problem())
    data["predictors"] = predictors
    bad = write("bad.json", data)
    assert _validation_field(capsys, ["distance", bad, bad]) == field


@pytest.mark.parametrize("key", ["x_labels", "y_labels"])
def test_cli_rejects_bare_string_labels(capsys, paths, key):
    _, write = paths
    data = serialize.problem_to_dict(identity_support_problem())
    data[key] = "ab"
    bad = write("bad.json", data)
    assert _validation_field(capsys, ["distance", bad, bad]) == key


@pytest.mark.parametrize("key, labels, field", [
    ("x_labels", {"a": 1, "b": 2}, "x_labels"),
    ("y_labels", [["u"], None], "y_labels[0]"),
])
def test_cli_rejects_non_scalar_labels(capsys, paths, key, labels, field):
    _, write = paths
    data = serialize.problem_to_dict(identity_support_problem())
    data[key] = labels
    bad = write("bad.json", data)
    assert _validation_field(capsys, ["distance", bad, bad]) == field


def test_cli_solver_failure_exit_3(capsys, paths, monkeypatch):
    _, write = paths
    rng = np.random.default_rng(140)
    a = _problem_file(write, "a.json", random_problem(rng, nx=2, ny=2, n_h=2))
    b = _problem_file(write, "b.json", random_problem(rng, nx=2, ny=2, n_h=2))
    monkeypatch.setattr(rs.transport, "linprog", lambda *args, **kwargs:
                        OptimizeResult(status=2, message="infeasible", x=None))
    code, out, err = _run(capsys, ["distance", a, b])
    monkeypatch.undo()
    assert rs.transport.linprog is scipy.optimize.linprog
    assert (code, out) == (3, "")
    data = json.loads(err)
    assert data["error"] == "solver"
    assert "infeasible" in data["message"]


@pytest.mark.parametrize("flags, field", [
    (["--cap-pairs", "-3"], "cap_pairs"),
    (["--cap-support", "-1"], "cap_support"),
])
def test_cli_distance_rejects_negative_caps(capsys, paths, flags, field):
    _, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    assert _validation_field(capsys, ["distance", path, path, *flags]) == field


def test_cli_distance_lp_rejects_negative_restarts(capsys, paths):
    _, write = paths
    rng = np.random.default_rng(139)
    wp = rs.WeightedProblem(problem=random_problem(rng, n_h=2), lam=[0.5, 0.5])
    path = _problem_file(write, "p.json", wp.problem, lam=wp.lam)
    argv = ["distance-lp", path, path, "--restarts", "-5"]
    assert _validation_field(capsys, argv) == "restarts"


def test_cli_connected_distance_rejects_negative_cap(capsys, paths):
    from gen import connected_gap_instance

    _, write = paths
    left, right = connected_gap_instance()
    a = _problem_file(write, "a.json", left.problem)
    b = _problem_file(write, "b.json", right.problem)
    ea = write("ea.json", {"edges": [list(e) for e in left.edges]})
    eb = write("eb.json", {"edges": [list(e) for e in right.edges]})
    argv = ["connected-distance", a, b, "--edges-a", ea, "--edges-b", eb,
            "--cap-pairs", "-1"]
    assert _validation_field(capsys, argv) == "cap_pairs"


def test_cli_raised_caps_beyond_enumeration_capacity_exit_2(capsys, paths):
    # 6 x 6 predictors would enumerate about 78 GB of assignment unions, and
    # 5 x 8 would enumerate 2^40 relations; both are refused before that
    _, write = paths
    edges = write("edges.json", {"edges": []})
    six, five, eight = (
        _problem_file(write, f"h{n}.json", repeated_predictor_problem(n))
        for n in (6, 5, 8))
    for argv, actual in (
            (["distance", six, six, "--cap-pairs", "36"], 6**6 * 6**6 * 36),
            (["connected-distance", five, eight, "--edges-a", edges,
              "--edges-b", edges, "--cap-pairs", "40"], 8 * 40 * (2**40 - 1))):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        data = json.loads(err)
        assert (data["error"], data["cap"], data["actual"]) == (
            "capacity", "enumeration", actual)


def test_cli_distance_lp_runs_at_an_order_past_float_range(capsys, paths):
    # losses up to 3: 3 ** 800 overflows a float, 1 ** 800 does not
    _, write = paths
    problem = rs.FiniteProblem(("x",), ("a", "b"), [[0.5, 0.5]],
                               3.0 * (1.0 - np.eye(2)), [[0], [1]])
    path = _problem_file(write, "w.json", problem, lam=[0.5, 0.5])
    code, out, err = _run(capsys, ["distance-lp", path, path, "--p", "800"])
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 0.0


def test_cli_distance_lp_scales_with_large_losses(cli_process, paths):
    # losses times 1e6 once hung the descent's tree simplex; the subprocess
    # timeout turns a hang into a failure
    _, write = paths
    rng = np.random.default_rng(0)
    pair = random_weighted(rng), random_weighted(rng)
    values = []
    for k in (1.0, 1e6):
        a, b = (_problem_file(write, f"{name}{k:g}.json",
                              replace(wp.problem, loss=wp.problem.loss * k),
                              lam=wp.lam)
                for name, wp in zip("ab", pair))
        proc = cli_process(["distance-lp", a, b, "--p", "2"])
        assert (proc.returncode, proc.stderr) == (0, "")
        values.append(json.loads(proc.stdout)["value"])
    assert values[1] == pytest.approx(1e6 * values[0], rel=1e-12, abs=0.0)


def test_cli_corrupt_exact_beyond_caps_is_null(capsys, paths):
    _, write = paths
    problem = _problem_file(write, "p.json", identity_support_problem())
    pipeline = write("pipeline.json", [
        {"kind": "loss_swap", "loss": [[0.0, 2.0], [2.0, 0.0]]}])
    code, out, err = _run(capsys, ["corrupt", problem, pipeline, "--exact",
                                   "--cap-pairs", "15"])
    assert (code, err) == (0, "")
    assert '"endpoint_exact_distance": null' in out


def test_cli_corrupt_pipeline_must_be_a_list(capsys, paths):
    _, write = paths
    problem = _problem_file(write, "p.json", identity_support_problem())
    pipeline = write("pipeline.json", {"kind": "label_noise"})
    assert _validation_field(capsys, ["corrupt", problem, pipeline]) == "pipeline"


def test_cli_corrupt_non_object_stage(capsys, paths):
    _, write = paths
    problem = _problem_file(write, "p.json", identity_support_problem())
    pipeline = write("pipeline.json", [1])
    assert _validation_field(capsys, ["corrupt", problem, pipeline]) == "stages[0]"


_RAGGED = [[0.5, 0.5], [1.0]]
# the label-noise identity of identity_support_problem (two inputs, two labels)
_NO_NOISE = np.tile(np.eye(2), (2, 1)).tolist()


@pytest.mark.parametrize("stage, field", [
    ({"kind": "label_noise", "kernel": _NO_NOISE, "lipschitz_c": "x"}, "lipschitz_c"),
    ({"kind": "label_noise", "kernel": _NO_NOISE, "lipschitz_c": True}, "lipschitz_c"),
    ({"kind": "bias_density", "f": _RAGGED}, "f"),
    ({"kind": "label_noise", "kernel": _RAGGED}, "kernel"),
    ({"kind": "label_noise", "kernel": _NO_NOISE, "d_y": _RAGGED}, "d_y"),
    ({"kind": "loss_swap", "loss": _RAGGED}, "loss"),
    ({"kind": "label_noise", "kernel": _NO_NOISE[:3]}, "kernel"),
    ({"kind": "label_noise", "kernel": _NO_NOISE, "dy": [[0.0, 2.0], [2.0, 0.0]]},
     "stages[0].dy"),
])
def test_cli_corrupt_rejects_bad_stage_parameters(capsys, paths, stage, field):
    _, write = paths
    problem = _problem_file(write, "p.json", identity_support_problem())
    pipeline = write("pipeline.json", [stage])
    assert _validation_field(capsys, ["corrupt", problem, pipeline]) == field


@pytest.mark.parametrize("flags, field", [
    (["--ns", "0"], "n"),
    (["--trials", "-1"], "trials"),
    (["--trials", "0"], "trials"),
    (["--ns", "a,b"], "ns"),
    (["--ns", "1.5"], "ns[0]"),
    (["--ns", ""], "ns"),
    (["--ns", "5,"], "ns"),
    (["--ns", "10,-3"], "n"),
    (["--ns", "9223372036854775808"], "ns[0]"),
    (["--ns", "18446744073709551616"], "ns[0]"),
])
def test_cli_convergence_rejects_bad_sizes(capsys, paths, flags, field):
    _, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    assert _validation_field(capsys, ["convergence", path, *flags]) == field


@pytest.mark.parametrize("command, flags", [
    ("sample", ["--n", "9223372036854775808"]),
    ("sample", ["--n", str(rs.empirical.SAMPLE_CAPACITY + 1)]),
    ("convergence", ["--ns", "5,4611686018427387904"]),
    ("rademacher", ["--samples", "4611686018427387904"]),
    ("rademacher", ["--m", str(rs.empirical.SAMPLE_CAPACITY + 1), "--samples", "1"]),
])
def test_cli_sample_sizes_over_capacity_exit_2(capsys, paths, command, flags):
    _, write = paths
    path = _problem_file(write, "p.json", identity_support_problem())
    code, out, err = _run(capsys, [command, path, *flags])
    assert (code, out) == (2, "")
    data = json.loads(err)
    assert data["error"] == "capacity" and data["cap"] == "sample"
    assert data["actual"] == int(flags[1].split(",")[-1])


# Three labels and three predictors, so every index-taking command has room
# for both a fractional and a boolean index.
_THREE = rs.FiniteProblem(("x0", "x1"), ("a", "b", "c"), np.full((2, 3), 1 / 6),
                          1.0 - np.eye(3), [[0, 1], [1, 2], [2, 0]])
_MAPS = {"f1": [0, 1], "f2": [0, 1, 2], "fwd": [0, 1, 2], "bwd": [0, 1, 2]}


@pytest.mark.parametrize("command, data, field", [
    ("coarsen", {"blocks": [[0.7, 1], [2.2]]}, "blocks[0][0]"),
    ("coarsen", {"blocks": [[0, 1], [2, True]]}, "blocks[1][1]"),
    ("reeb", {"edges": [[0.5, 1.9], [True, 2]]}, "edges[0][0]"),
    ("reeb", {"edges": [[0, 1], [True, 2]]}, "edges[1][0]"),
    ("verify", dict(_MAPS, f1=[0.9, 1]), "f1[0]"),
    ("verify", dict(_MAPS, bwd=[0, 1, True]), "bwd[2]"),
    ("coarsen", {"blocks": 5}, "blocks"),
    # a side file must hold an object with its keys
    ("verify", 5, "maps"),
    ("verify", "f1f2fwdbwd", "maps"),
    ("verify", [_MAPS], "maps"),
    ("verify", {"f1": [0, 1], "f2": [0, 1, 2], "fwd": [0, 1, 2]}, "bwd"),
    ("reeb", [[0, 1]], "edges"),
    ("reeb", {"edge": [[0, 1]]}, "edges"),
    ("coarsen", [[0, 1], [2]], "blocks"),
])
def test_cli_rejects_non_integer_indices(capsys, paths, command, data, field):
    _, write = paths
    problem = _problem_file(write, "p.json", _THREE)
    extra = write("extra.json", data)
    argv = {"coarsen": ["coarsen", problem, extra],
            "reeb": ["reeb", problem, "--edges", extra],
            "verify": ["verify", problem, problem, extra]}[command]
    assert _validation_field(capsys, argv) == field


def _plateau_reeb(write, tol):
    # risks 0.5, 0.5, 1.0 on a path: the first two predictors form a plateau
    plateau = rs.FiniteProblem(("x",), ("a", "b", "c"), [[1.0, 0.0, 0.0]],
                               np.repeat([[0.5], [0.5], [1.0]], 3, axis=1),
                               [[0], [1], [2]])
    return ["reeb", _problem_file(write, "plateau.json", plateau), "--edges",
            write("edges.json", {"edges": [[0, 1], [1, 2]]}), "--tol", tol]


def _failing_verify(write, tol):
    moved = rs.FiniteProblem(_THREE.x_labels, _THREE.y_labels,
                             [[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]], _THREE.loss,
                             _THREE.predictors)
    return ["verify", _problem_file(write, "p.json", _THREE),
            _problem_file(write, "moved.json", moved), write("maps.json", _MAPS),
            "--tol", tol]


def _nan_lipschitz_corrupt(write):
    stage = {"kind": "label_noise", "kernel": rs.no_noise_kernel(_THREE).tolist(),
             "lipschitz_c": float("nan")}
    return ["corrupt", _problem_file(write, "p.json", _THREE),
            write("pipeline.json", [stage])]


def _nan_ell_max_bound(write):
    path = _problem_file(write, "p.json", _THREE)
    return ["bound", path, path, "--mode", "eta-tv", "--ell-max", "nan"]


@pytest.mark.parametrize("make_argv, field", [
    (lambda write: _failing_verify(write, "nan"), "tol"),
    (lambda write: _plateau_reeb(write, "nan"), "height_tol"),
    (lambda write: _plateau_reeb(write, "-1"), "height_tol"),
    (_nan_lipschitz_corrupt, "lipschitz_c"),
    (_nan_ell_max_bound, "ell_max"),
], ids=["verify-tol-nan", "reeb-tol-nan", "reeb-tol-negative",
        "corrupt-lipschitz-nan", "bound-ell-max-nan"])
def test_cli_rejects_tolerances_that_certify_wrong_answers(capsys, paths,
                                                           make_argv, field):
    _, write = paths
    assert _validation_field(capsys, make_argv(write)) == field


def test_cli_valid_tolerances_still_answer(capsys, paths):
    _, write = paths
    code, out, _ = _run(capsys, _failing_verify(write, "1e-12"))
    assert code == 0 and json.loads(out)["ok"] is False
    code, out, _ = _run(capsys, _plateau_reeb(write, "0"))
    assert code == 0 and len(json.loads(out)["nodes"]) == 2


_TWO = rs.FiniteProblem(("x0", "x1"), ("a", "b"), np.full((2, 2), 0.25),
                        1.0 - np.eye(2), [[0, 1], [1, 0]])
_TWO_W = rs.WeightedProblem(_TWO, [0.25, 0.75])
_NAN_GAMMA = np.full((2, 2, 2, 2), np.nan)
_GAMMA = np.multiply.outer(_TWO.eta, _TWO.eta)


@pytest.mark.parametrize("call, field", [
    (lambda: rs.WeightedProblem(_TWO, [np.nan, 0.5]), "lambda[0]"),
    (lambda: rs.risk_distortion(_TWO, _TWO, np.ones((2, 2), bool), _NAN_GAMMA),
     "gamma[0][0][0][0]"),
    (lambda: rs.pair_cost_matrix(_TWO, _TWO, _NAN_GAMMA), "gamma[0][0][0][0]"),
    (lambda: rs.lp_risk_distortion(_TWO_W, _TWO_W, _NAN_GAMMA[0, 0], _GAMMA, 1.0),
     "rho[0][0]"),
    (lambda: rs.lp_risk_distortion(_TWO_W, _TWO_W, np.diag([0.25, 0.75]),
                                   _NAN_GAMMA, 1.0), "gamma[0][0][0][0]"),
    (["distance-lp", "--p", "nan"], "p"),
    (["profile", "--p", "nan"], "p"),
    (lambda: rs.one_point_problem(np.nan), "c"),
    (lambda: rs.encode_mm_space(("u", "v"), 1.0 - np.eye(2), [np.nan, 0.5]),
     "mu[0]"),
], ids=["weighted-lambda", "risk-distortion-gamma", "pair-cost-gamma",
        "lp-distortion-rho", "lp-distortion-gamma", "distance-lp-p", "profile-p",
        "one-point-c", "mm-space-mu"])
def test_fields_name_the_bad_input(capsys, paths, call, field):
    """Each call (a library call, or a CLI command on a weighted problem) is
    refused naming the input that is wrong, not a later quantity built from
    it."""
    if callable(call):
        with pytest.raises(rs.ValidationError) as err:
            call()
        assert err.value.field == field
        return
    command, *flags = call
    path = _problem_file(paths[1], "w.json", _TWO, lam=_TWO_W.lam)
    assert _validation_field(capsys, [command, path, path, *flags]) == field


# Replacements each key must refuse.  A loss of 0.5 or 1 (JSON true) is a
# valid loss; in eta and lambda they break the sum to 1, since no entry
# below is 0.5 or 1 already.
_MUTATIONS = {
    "eta": [float("nan"), float("inf"), -1.0, 0.5, True],
    "loss": [float("nan"), float("inf"), -1.0],
    "lambda": [float("nan"), float("inf"), -1.0, 0.5, True],
    "predictors": [float("nan"), float("inf"), -1, 0.5, True],
}
_MUTATED_BASE = serialize.problem_to_dict(
    rs.FiniteProblem(("x0", "x1"), ("a", "b"), [[0.1, 0.2], [0.3, 0.4]],
                     [[0.0, 1.5], [2.0, 0.0]], [[0, 1], [1, 0], [1, 1]]),
    lam=[0.125, 0.25, 0.625],
)


def _mutated_run_field(argv, context):
    """The field a CLI run on mutated files names; the run must exit 1 with a
    validation error.  Uses no ``capsys``: hypothesis runs many examples in
    one test call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    assert code == 1, context
    error = json.loads(err.getvalue())
    assert error["error"] == "validation", (context, error)
    return error["field"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_mutated_json_never_tracebacks(tmp_path_factory, data):
    key = data.draw(st.sampled_from(sorted(_MUTATIONS)))
    value = data.draw(st.sampled_from(_MUTATIONS[key]))
    command = data.draw(st.sampled_from(["distance", "distance-lp"]))
    mutated = json.loads(json.dumps(_MUTATED_BASE))
    entries = np.asarray(mutated[key], dtype=object)
    index = data.draw(st.sampled_from(list(np.ndindex(entries.shape))))
    entries[index] = value
    mutated[key] = entries.tolist()
    path = tmp_path_factory.mktemp("mutated") / "p.json"
    path.write_text(json.dumps(mutated))
    field = _mutated_run_field([command, path, path], (key, value, index))
    assert field.startswith(key), (key, value, index, field)


# Side files valid for _THREE with lambda _THREE_W.  Each value below is
# invalid at every leaf of every file: as an index, a mass, a loss, a 0/1
# entry, a stage kind, or a scalar parameter.
_THREE_W = [0.25, 0.25, 0.5]
_SIDE_FILES = {
    "pipeline": ("corrupt", [
        {"kind": "bias_density", "f": np.ones((2, 3)).tolist()},
        {"kind": "restrict", "A": [[1, 1, 1], [1, 1, 0]]},
        {"kind": "label_noise", "kernel": np.tile(np.eye(3), (2, 1)).tolist(),
         "d_y": (1.0 - np.eye(3)).tolist(), "lipschitz_c": 1.0},
        {"kind": "general_noise", "kernel": np.eye(6).tolist(), "p": 2.0},
        {"kind": "loss_swap", "loss": (2.0 - 2.0 * np.eye(3)).tolist()},
        {"kind": "predictor_swap", "predictors": [[0, 1], [1, 2]]},
    ]),
    "edges": ("reeb", {"edges": [[0, 1], [1, 2]]}),
    "partition": ("coarsen", {"blocks": [[0, 1], [2]]}),
    "maps": ("verify", _MAPS),
}
_SIDE_MUTATIONS = [float("nan"), float("inf"), -1, "x", None]


def _leaf_paths(data, path=()):
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        return [leaf for key, value in items
                for leaf in _leaf_paths(value, path + (key,))]
    return [path]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_mutated_side_file_never_tracebacks(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(_SIDE_FILES)))
    command, base = _SIDE_FILES[kind]
    mutated = json.loads(json.dumps(base))
    *parents, leaf = data.draw(st.sampled_from(_leaf_paths(mutated)))
    value = data.draw(st.sampled_from(_SIDE_MUTATIONS))
    container = mutated
    for key in parents:
        container = container[key]
    container[leaf] = value
    tmp = tmp_path_factory.mktemp("side")
    problem = tmp / "p.json"
    problem.write_text(json.dumps(serialize.problem_to_dict(_THREE, lam=_THREE_W)))
    side = tmp / "side.json"
    side.write_text(json.dumps(mutated))
    argv = {"corrupt": ["corrupt", problem, side],
            "reeb": ["reeb", problem, "--edges", side],
            "coarsen": ["coarsen", problem, side],
            "verify": ["verify", problem, problem, side]}[command]
    assert _mutated_run_field(argv, (kind, parents, leaf, value))


@pytest.mark.parametrize("case", ["out-missing-dir", "out-is-dir", "input-is-dir",
                                  "input-not-utf8"])
def test_cli_file_errors_name_the_path(capsys, paths, case):
    tmp_path, write = paths
    a = _problem_file(write, "a.json", identity_support_problem())
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    argv, field = {
        "out-missing-dir": (["distance", a, a, "--out", str(tmp_path / "no" / "o")],
                            "out"),
        "out-is-dir": (["distance", a, a, "--out", str(tmp_path)], "out"),
        "input-is-dir": (["distance", str(tmp_path), a], "path"),
        "input-not-utf8": (["distance", str(tmp_path / "binary.json"), a], "path"),
    }[case]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["field"] == field
    assert not [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]


@pytest.mark.parametrize("command", [["sample", "--n", "5"], ["rademacher"],
                                     ["convergence", "--ns", "5"], ["distance-lp"]])
def test_cli_rejects_negative_seed(capsys, paths, command):
    _, write = paths
    p = identity_support_problem()
    lam = np.full(p.n_predictors, 1 / p.n_predictors)
    path = _problem_file(write, "p.json", p, lam=lam)
    name, *flags = command
    inputs = [path, path] if name == "distance-lp" else [path]
    argv = [name, *inputs, *flags, "--seed", "-1"]
    assert _validation_field(capsys, argv) == "seed"


def test_cli_missing_file_exit_1(capsys):
    code, _, err = _run(capsys, ["distance", "/nonexistent/a.json",
                                 "/nonexistent/b.json"])
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_cli_out_file_written_atomically(capsys, paths):
    tmp_path, write = paths
    a = _problem_file(write, "a.json", identity_support_problem())
    out_path = tmp_path / "result.json"
    code, out, _ = _run(capsys, ["distance", a, a, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text())
    assert data["value"] <= 1e-9
    leftovers = [f for f in tmp_path.iterdir() if f.suffix == ".tmp"]
    assert not leftovers
