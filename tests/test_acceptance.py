"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

import riskspace as rs
from gen import (
    bilinear_vertex_oracle,
    connected_gap_instance,
    cutoff_landscapes,
    rademacher_example_problem,
    random_partition,
    random_problem,
)


def _report(num: int, name: str, checks: list[bool], elapsed: float,
            budget: float, detail: str = ""):
    ok = all(checks) and elapsed < budget
    line = (f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
            f" [{elapsed:.2f}s / {budget:.0f}s budget"
            f"{', ' + detail if detail else ''}]")
    print(line)
    assert all(checks), f"criterion {num} ({name}): a check failed; {detail}"
    assert elapsed < budget, f"criterion {num} ({name}): over budget"


def test_criterion_01_one_point_calibration():
    start = time.time()
    rng = np.random.default_rng(1001)
    checks = []
    worst = 0.0
    for _ in range(20):
        p = random_problem(rng)
        risks = rs.all_risks(p)
        d0 = rs.risk_distance_exact(p, rs.one_point_problem(0.0)).value
        checks.append(abs(d0 - float(risks.max())) <= 1e-9)
        ell_max = float(p.loss.max())
        dmax = rs.risk_distance_exact(p, rs.one_point_problem(ell_max)).value
        target = ell_max - rs.constrained_bayes_risk(p)
        checks.append(abs(dmax - target) <= 1e-9)
        worst = max(worst, abs(d0 - float(risks.max())), abs(dmax - target))
    _report(1, "one-point calibration", checks, time.time() - start, 5.0,
            f"max deviation {worst:.2e}")


def test_criterion_02_rademacher_example():
    start = time.time()
    bullet = rs.one_point_problem(0.0)
    checks = []
    for n in (2, 3, 4):
        p_n = rademacher_example_problem(n)
        d = rs.risk_distance_exact(p_n, bullet).value
        checks.append(abs(d - 1.0 / n) <= 1e-9)
        checks.append(abs(rs.rademacher_exact_small(p_n, 1) - 0.5) <= 1e-12)
    checks.append(rs.rademacher_exact_small(bullet, 1) == 0.0)
    _report(2, "Rademacher example", checks, time.time() - start, 5.0)


def test_criterion_03_pseudometric_suite():
    start = time.time()
    rng = np.random.default_rng(1003)
    checks = []
    worst_slack = -np.inf
    for _ in range(50):
        a, b, c = (random_problem(rng, max_nx=3, max_ny=3, max_h=3)
                   for _ in range(3))
        d_ab = rs.risk_distance_exact(a, b).value
        d_bc = rs.risk_distance_exact(b, c).value
        d_ac = rs.risk_distance_exact(a, c).value
        checks.append(d_ab == rs.risk_distance_exact(b, a).value)
        slack = d_ac - (d_ab + d_bc)
        worst_slack = max(worst_slack, slack)
        checks.append(slack <= 1e-8)
    _report(3, "pseudometric suite", checks, time.time() - start, 60.0,
            f"worst triangle slack {worst_slack:.2e}")


def test_criterion_04_sandwich_suite():
    start = time.time()
    rng = np.random.default_rng(1004)
    checks = []
    for _ in range(10):
        p = random_problem(rng)
        # coarsening
        q = random_partition(rng, p.ny)
        coarse = rs.coarsen(p, q)
        exact = rs.risk_distance_exact(p, coarse).value
        checks.append(rs.risk_distance_lower(p, coarse) <= exact + 1e-9)
        checks.append(exact <= rs.coarsening_bound(p, q) + 1e-9)
        # joint-law swap: tv and w1 bounds
        eta2 = rng.random(p.eta.shape)
        eta2 /= eta2.sum()
        p_eta = rs.FiniteProblem(p.x_labels, p.y_labels, eta2, p.loss,
                                 p.predictors)
        exact = rs.risk_distance_exact(p, p_eta).value
        checks.append(rs.risk_distance_lower(p, p_eta) <= exact + 1e-9)
        checks.append(exact <= rs.w1_eta_bound(p, p_eta) + 1e-9)
        checks.append(exact <= rs.tv_bound(p, p_eta, float(p.loss.max())) + 1e-9)
        # predictor swap
        preds = rng.integers(0, p.ny, size=(int(rng.integers(1, 4)), p.nx))
        p_h, bound_h = rs.predictor_set_bound(p, preds)
        exact = rs.risk_distance_exact(p, p_h).value
        checks.append(rs.risk_distance_lower(p, p_h) <= exact + 1e-9)
        checks.append(exact <= bound_h + 1e-9)
        # bias density and restriction
        f = rng.random(p.eta.shape) + 0.2
        f /= float(np.sum(f * p.eta))
        p_f, bound_f = rs.apply_bias_density(p, f)
        exact = rs.risk_distance_exact(p, p_f).value
        checks.append(rs.risk_distance_lower(p, p_f) <= exact + 1e-9)
        checks.append(exact <= bound_f + 1e-9)
        mask = rng.random(p.eta.shape) < 0.7
        if p.eta[mask].sum() <= 0:
            mask[np.unravel_index(np.argmax(p.eta), p.eta.shape)] = True
        p_a, bound_a = rs.restrict(p, mask)
        exact = rs.risk_distance_exact(p, p_a).value
        checks.append(rs.risk_distance_lower(p, p_a) <= exact + 1e-9)
        checks.append(exact <= bound_a + 1e-9)
    _report(4, "sandwich suite", checks, time.time() - start, 60.0,
            f"{len(checks)} inequalities")


def test_criterion_05_loss_shift_exactness():
    start = time.time()
    rng = np.random.default_rng(1005)
    checks = []
    worst = 0.0
    for alpha in (0.1, 1.0, 3.0):
        p = random_problem(rng)
        shifted = rs.FiniteProblem(p.x_labels, p.y_labels, p.eta,
                                   p.loss + alpha, p.predictors)
        d = rs.risk_distance_exact(p, shifted).value
        checks.append(abs(d - alpha) <= 1e-9)
        worst = max(worst, abs(d - alpha))
    _report(5, "loss-shift exactness", checks, time.time() - start, 5.0,
            f"max deviation {worst:.2e}")


def test_criterion_06_noise_bound():
    start = time.time()
    p = rs.FiniteProblem(
        ("x0", "x1"), ("0", "1"),
        np.array([[0.35, 0.15], [0.1, 0.4]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1], [0, 0], [1, 1]]),
    )
    d_y = np.array([[0.0, 1.0], [1.0, 0.0]])
    checks = []
    for eps in (0.05, 0.2, 0.5):
        kernel = np.zeros((4, 2))
        for x in range(2):
            for y in range(2):
                row = np.full(2, eps / 2)
                row[y] += 1 - eps
                kernel[x * 2 + y] = row
        bound = rs.noise_bound_metric(p, kernel, d_y, 1.0)
        checks.append(abs(bound - eps / 2) <= 1e-12)
        noised = rs.apply_label_noise(p, kernel)
        exact = rs.risk_distance_exact(p, noised).value
        checks.append(exact <= eps / 2 + 1e-9)
    _report(6, "binary label-noise bound", checks, time.time() - start, 5.0)


def test_criterion_07_geodesics():
    start = time.time()
    rng = np.random.default_rng(1007)
    checks = []
    worst = 0.0
    for _ in range(10):
        p0 = random_problem(rng, nx=2, ny=2, n_h=int(rng.integers(1, 3)))
        p1 = random_problem(rng, nx=2, ny=2, n_h=int(rng.integers(1, 3)))
        witness = rs.risk_distance_exact(p0, p1)
        for t in (0.25, 0.5, 0.75):
            p_t = rs.geodesic_problem(p0, p1, witness, t)
            d_t = rs.risk_distance_exact(p0, p_t).value
            gap = abs(d_t - t * witness.value)
            worst = max(worst, gap)
            checks.append(gap <= 1e-6)
    _report(7, "geodesic interpolation", checks, time.time() - start, 60.0,
            f"max |d(P0,Pt) - t*d| = {worst:.2e}")


def test_criterion_08_bilinear_gw_equivalence():
    start = time.time()
    rng = np.random.default_rng(1008)
    checks = []
    worst = 0.0
    for na in (2, 3):
        for nb in (2, 3):
            for _ in range(3):
                pts_a = rng.random((na, 2)) * 2
                pts_b = rng.random((nb, 2)) * 2
                dist_a = np.abs(pts_a[:, None] - pts_a[None, :]).sum(axis=2)
                dist_b = np.abs(pts_b[:, None] - pts_b[None, :]).sum(axis=2)
                mu_a = rng.random(na) + 0.1
                mu_a /= mu_a.sum()
                mu_b = rng.random(nb) + 0.1
                mu_b /= mu_b.sum()
                wa = rs.encode_mm_space_weighted(
                    tuple(f"a{i}" for i in range(na)), dist_a, mu_a)
                wb = rs.encode_mm_space_weighted(
                    tuple(f"b{i}" for i in range(nb)), dist_b, mu_b)
                lp = rs.lp_risk_distance(wa, wb, p=1.0).value
                relaxed = rs.bilinear_gw(dist_a, mu_a, dist_b, mu_b)
                # the support product is at most 9: the vertex-pair minimum
                oracle = bilinear_vertex_oracle(dist_a, mu_a, dist_b, mu_b)
                gap = max(abs(lp - relaxed), abs(relaxed - oracle))
                worst = max(worst, gap)
                checks.append(gap <= 1e-9)
    _report(8, "bilinear relaxation equivalence", checks, time.time() - start,
            30.0, f"max gap {worst:.2e}")


def test_criterion_09_reeb_fidelity():
    start = time.time()
    rng = np.random.default_rng(1009)
    checks = []
    for _ in range(30):
        p = random_problem(rng, max_h=6)
        n = p.n_predictors
        edges = {(i, i + 1) for i in range(n - 1)}
        extra = rng.integers(0, n, size=(3, 2))
        edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
        pg = rs.PredictorGraph(problem=p, edges=tuple(sorted(edges)))
        reeb = rs.reeb_graph(pg)
        checks.append(reeb.heights().min() == rs.constrained_bayes_risk(p))
    circle, interval = cutoff_landscapes(6)
    checks.append(len(rs.reeb_graph(circle).local_minima()) == 1)
    checks.append(len(rs.reeb_graph(interval).local_minima()) == 2)
    _report(9, "Reeb fidelity", checks, time.time() - start, 10.0)


def test_criterion_10_connected_dominance():
    start = time.time()
    rng = np.random.default_rng(1010)
    checks = []
    for _ in range(8):
        a = random_problem(rng, n_h=int(rng.integers(1, 4)))
        b = random_problem(rng, n_h=int(rng.integers(1, 3)))
        if a.n_predictors * b.n_predictors > 9:
            continue
        edges_a = tuple((i, i + 1) for i in range(a.n_predictors - 1))
        edges_b = tuple((i, i + 1) for i in range(b.n_predictors - 1))
        pg_a = rs.PredictorGraph(problem=a, edges=edges_a)
        pg_b = rs.PredictorGraph(problem=b, edges=edges_b)
        connected = rs.connected_risk_distance_exact(pg_a, pg_b).value
        plain = rs.risk_distance_exact(a, b).value
        checks.append(connected >= plain - 1e-9)
    left, right = connected_gap_instance()
    gap = (rs.connected_risk_distance_exact(left, right).value
           - rs.risk_distance_exact(left.problem, right.problem).value)
    checks.append(gap > 0.01)
    _report(10, "connected dominance", checks, time.time() - start, 60.0,
            f"frozen-instance gap {gap:.3f}")


def test_criterion_11_empirical_convergence_regression():
    start = time.time()
    p = rs.FiniteProblem(
        ("x0", "x1"), ("y0", "y1"),
        np.array([[0.4, 0.1], [0.2, 0.3]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1], [0, 0], [1, 1]]),
    )
    report = rs.convergence_experiment(p, [10, 100, 1000], trials=5, seed=7)
    medians = {
        n: float(np.median([r.tv_bound for r in report.rows if r.n == n]))
        for n in (10, 100, 1000)
    }
    checks = [
        medians[10] > medians[100] > medians[1000],
        medians[1000] < 0.1,
    ]
    for row in report.rows:
        checks.append(row.exact_distance is not None)
        checks.append(row.exact_distance <= row.tv_bound + 1e-9)
    _report(11, "empirical convergence regression", checks,
            time.time() - start, 30.0,
            f"medians {medians[10]:.3f} > {medians[100]:.3f} >"
            f" {medians[1000]:.3f}")


def test_criterion_12_coarsening():
    start = time.time()
    rng = np.random.default_rng(1012)
    checks = []
    for _ in range(10):
        p = random_problem(rng)
        coarse = rs.coarsen(p, rs.singleton_partition(p.ny))
        checks.append(rs.risk_distance_exact(p, coarse).value <= 1e-9)
    for _ in range(20):
        p = random_problem(rng)
        q = random_partition(rng, p.ny)
        coarse = rs.coarsen(p, q)
        exact = rs.risk_distance_exact(p, coarse).value
        checks.append(exact <= rs.coarsening_bound(p, q) + 1e-9)
    grid = [0.17, 0.5, 0.83, 1.17, 1.5, 1.83, 2.17, 2.5, 2.83]
    blocks = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    n = len(grid)
    eta = np.full((n, n), 1.0 / n**2)
    loss = np.abs(np.subtract.outer(grid, grid))
    predictors = np.arange(n)[None, :]
    p_grid = rs.FiniteProblem(
        tuple(f"x{i}" for i in range(n)), tuple(str(v) for v in grid),
        eta, loss, predictors,
    )
    coarse = rs.coarsen(p_grid, rs.Partition(blocks=blocks, ny=9))
    expected = np.empty((3, 3))
    for bi, block_i in enumerate(blocks):
        for bj, block_j in enumerate(blocks):
            expected[bi, bj] = max(
                abs(grid[i] - grid[j]) for i in block_i for j in block_j
            )
    checks.append(np.array_equal(coarse.loss, expected))
    _report(12, "coarsening", checks, time.time() - start, 30.0)
