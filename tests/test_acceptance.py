"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion including its runtime.
"""

import json
import time

import numpy as np

from conftest import make_spd, make_spd_unit_floor, make_tangent, random_invertible, reference_distance
from spdot import adaptation as ad
from spdot import datasets
from spdot import experiments as ex
from spdot import manifold as mf
from spdot import transport as tp
from spdot.cli import main


def _finish(num, desc, t0, limit, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] acceptance {num} ({elapsed:.2f}s, limit {limit}s): {desc}{suffix}")
    assert ok, f"acceptance {num}: {desc}{suffix}"
    assert elapsed < limit, (
        f"acceptance {num} runtime {elapsed:.2f}s exceeds {limit}s"
    )


def test_acceptance_1_exact_recovery_at_zero_angle():
    t0 = time.perf_counter()
    ((_, rep),) = ex.toy_a_sweep(n=50, theta_grid=[0.0], seed=0)
    ok = rep.recovery_error <= 1e-6 and rep.diagonal_mass == 1.0
    _finish(
        1,
        "positive congruence map recovered at theta=0 (N=50, dim 2)",
        t0,
        5.0,
        ok,
        f"recovery_error={rep.recovery_error:.2e}, diagonal_mass={rep.diagonal_mass}",
    )


def test_acceptance_2_rotation_breaks_recovery():
    t0 = time.perf_counter()
    good = 0
    for seed in range(10):
        results = ex.toy_a_sweep(n=50, theta_grid=[0.0, np.pi / 2], seed=seed)
        base, rot = results[0][1], results[1][1]
        if rot.diagonal_mass < 1.0 and rot.recovery_error > 10.0 * base.recovery_error + 1e-6:
            good += 1
    _finish(
        2,
        "theta=pi/2 breaks matching and recovery on >= 9/10 seeds",
        t0,
        30.0,
        good >= 9,
        f"{good}/10 seeds",
    )


def test_acceptance_3_rotation_search_argmin():
    t0 = time.perf_counter()
    theta_star = 1.0
    good = 0
    for seed in range(10):
        src = ex.isotropic_spd_cloud(20, seed=seed)
        tgt = ex.apply_congruence(ex.CongruenceMap(ex.DEFAULT_T, theta_star), src)
        best_theta, curve = ex.toy_b_search(src, tgt)
        objs = dict(curve)
        if (
            objs[best_theta].objective <= objs[0.0].objective
            and objs[best_theta].diagonal_mass == 1.0
        ):
            good += 1
    _finish(
        3,
        "grid search over rotations finds the hidden map on >= 9/10 seeds",
        t0,
        60.0,
        good >= 9,
        f"{good}/10 seeds",
    )


def test_acceptance_4_cost_configuration_ordering():
    t0 = time.perf_counter()
    good = 0
    for seed in range(10):
        reports = ex.three_config_comparison(seed=seed)
        d1 = reports[ex.CONFIG_RAW_EUCLIDEAN].diagonal_mass
        d2 = reports[ex.CONFIG_COV_EUCLIDEAN].diagonal_mass
        d3 = reports[ex.CONFIG_COV_RIEMANNIAN].diagonal_mass
        if d3 >= 0.9 and d3 >= d2 >= d1:
            good += 1
    _finish(
        4,
        "covariance+Riemannian matches near-perfectly and beats the "
        "other cost configurations on >= 8/10 seeds",
        t0,
        60.0,
        good >= 8,
        f"{good}/10 seeds",
    )


def test_acceptance_5_sinkhorn_tracks_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_ratio, worst_res = 0.0, 0.0
    for _ in range(20):
        # planted assignment keeps the gap bounded so the scaling loop
        # converges at this lambda; see the solver notes
        C = 0.4 + 0.6 * rng.random((8, 8))
        C[np.arange(8), rng.permutation(8)] = 0.2 * rng.random(8)
        lam = 200.0 / np.median(C)
        exact = tp.exact_ot(C)
        plan = tp.sinkhorn(C, lam=lam)
        worst_ratio = max(worst_ratio, plan.objective(C) / exact.objective(C))
        worst_res = max(worst_res, *plan.marginal_residuals())
    ok = worst_ratio <= 1.01 and worst_res <= 1e-6
    _finish(
        5,
        "Sinkhorn at lambda=200/median tracks exact transport on 20 instances",
        t0,
        5.0,
        ok,
        f"worst objective ratio={worst_ratio:.6f}, worst residual={worst_res:.2e}",
    )


def test_acceptance_6_geometry_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    failures = []

    # exp/log round trips <= 1e-8 (well-conditioned bases)
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 7))
        P = make_spd_unit_floor(dim, 1, seed=1000 + k)[0]
        A = make_tangent(dim, seed=2000 + k, norm=float(rng.uniform(0.1, 5.0)))
        worst = max(worst, np.abs(mf.log_map(P, mf.exp_map(P, A)) - A).max())
        Q = make_spd_unit_floor(dim, 1, seed=3000 + k)[0]
        worst = max(worst, np.abs(mf.exp_map(P, mf.log_map(P, Q)) - Q).max())
    if worst > 1e-8:
        failures.append(f"round trips worst={worst:.2e}")

    # congruence and inversion invariance <= 1e-8 relative
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 7))
        P, Q = make_spd(dim, 2, seed=4000 + k)
        A = random_invertible(dim, seed=5000 + k)
        d = mf.riemannian_distance(P, Q)
        worst = max(
            worst,
            abs(mf.riemannian_distance(A @ P @ A.T, A @ Q @ A.T) - d) / d,
            abs(
                mf.riemannian_distance(
                    mf.sym(np.linalg.inv(P)), mf.sym(np.linalg.inv(Q))
                )
                - d
            )
            / d,
        )
    if worst > 1e-8:
        failures.append(f"invariance worst={worst:.2e}")

    # generalized-eigenvalue distance vs log-Frobenius form <= 1e-9 relative
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 7))
        P, Q = make_spd(dim, 2, seed=6000 + k)
        d = mf.riemannian_distance(P, Q)
        worst = max(worst, abs(d - reference_distance(P, Q)) / d)
    if worst > 1e-9:
        failures.append(f"distance forms worst={worst:.2e}")

    # weighted-mean first-order condition <= 1e-10
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(2, 7))
        pts = make_spd(dim, count, seed=7000 + k)
        w = rng.random(count) + 0.1
        w /= w.sum()
        mean = mf.frechet_mean(pts, w)
        grad = np.einsum("i,iab->ab", w, mf.log_map(mean, pts))
        worst = max(worst, np.linalg.norm(grad))
    if worst > 1e-10:
        failures.append(f"first-order condition worst={worst:.2e}")

    # two-point weighted mean lies on the geodesic <= 1e-7
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 7))
        P, Q = make_spd(dim, 2, seed=8000 + k)
        t = float(rng.uniform(0.05, 0.95))
        mean = mf.frechet_mean([P, Q], [1.0 - t, t])
        worst = max(worst, mf.riemannian_distance(mean, mf.geodesic(P, Q, t)))
    if worst > 1e-7:
        failures.append(f"two-point mean worst={worst:.2e}")

    # whitened tangent coordinates: norm equals distance <= 1e-9
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 7))
        pts = make_spd(dim, 4, seed=9000 + k)
        base = mf.frechet_mean(pts)
        coords = mf.tangent_coordinates(pts, base)
        for i in range(4):
            d = mf.riemannian_distance(base, pts[i])
            worst = max(worst, abs(np.linalg.norm(coords[i]) - d) / max(1.0, d))
    if worst > 1e-9:
        failures.append(f"coordinate norms worst={worst:.2e}")

    _finish(
        6,
        "geometry property suite (6 properties x 200 randomized cases)",
        t0,
        30.0,
        not failures,
        "; ".join(failures) if failures else "all within tolerance",
    )


def test_acceptance_7_label_regularization_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        n1 = int(rng.integers(3, 8))
        n2 = int(rng.integers(3, 8))
        C = rng.random((n1, n2))
        labels = rng.integers(0, 3, n1)
        a = tp.sinkhorn_with_labels(C, labels=labels, lam=8.0, eta=0.0).matrix
        b = tp.sinkhorn(C, lam=8.0).matrix
        worst = max(worst, float(np.abs(a - b).max()))
    eta_zero_ok = worst <= 1e-10

    C0 = np.array([[0.0, 1.0], [0.0, 1.0], [0.4, 0.6], [1.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    eta = 2.0 * float(np.median(C0))
    base = tp.sinkhorn(C0, lam=1.5).matrix
    reg = tp.sinkhorn_with_labels(C0, labels=labels, lam=1.5, eta=eta).matrix
    p0 = tp.label_group_penalty(base, labels)
    p1 = tp.label_group_penalty(reg, labels)
    penalty_ok = p1 <= p0
    _finish(
        7,
        "label penalty vanishes at eta=0 and does not grow at eta=2*median",
        t0,
        5.0,
        eta_zero_ok and penalty_ok,
        f"eta0 max diff={worst:.2e}; penalty {p0:.4f} -> {p1:.4f}",
    )


def test_acceptance_8_pipeline_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 5, 17, 30):
        src = make_spd(5, n, seed=40 + n)
        res = ad.adapt(src, src, config=ad.AdaptationConfig(solver="exact"))
        worst = max(
            worst, float(np.sqrt(mf.paired_sq_distances(res.adapted_source, src)).max())
        )
    _finish(
        8,
        "self-adaptation returns the source set (N up to 30, dim 5)",
        t0,
        10.0,
        worst <= 1e-8,
        f"worst distance={worst:.2e}",
    )


def test_acceptance_9_cli_round_trip(tmp_path):
    t0 = time.perf_counter()

    def run_chain(root):
        codes = [
            main(["cosine", "--seed", "7", "--out", str(root / "cos")]),
            main(["covariance", str(root / "cos" / "source_timeseries.json"),
                  "--out", str(root / "cov_s")]),
            main(["covariance", str(root / "cos" / "target_timeseries.json"),
                  "--out", str(root / "cov_t")]),
            main(["adapt", str(root / "cov_s" / "covariances.json"),
                  str(root / "cov_t" / "covariances.json"),
                  "--solver", "sinkhorn", "--lambda", "auto",
                  "--out", str(root / "adapted")]),
        ]
        return codes

    data_files = [
        "cos/cosine.csv",
        "cos/source_timeseries.json",
        "cos/target_timeseries.json",
        "cov_s/covariances.json",
        "cov_t/covariances.json",
        "adapted/adapted.json",
        "adapted/plan.csv",
    ]
    report_dirs = ("cos", "cov_s", "cov_t", "adapted")

    c1 = run_chain(tmp_path)
    ok = all(code == 0 for code in c1)
    detail = f"exit codes {c1}"
    first_data = {rel: (tmp_path / rel).read_bytes() for rel in data_files} if ok else {}
    first_reports = (
        {rel: (tmp_path / rel / "report.json").read_bytes() for rel in report_dirs}
        if ok
        else {}
    )

    if ok:
        # literally identical invocations, overwriting in place
        c2 = run_chain(tmp_path)
        ok = all(code == 0 for code in c2)
        detail = f"exit codes {c2}"
    if ok:
        for rel in data_files:
            if (tmp_path / rel).read_bytes() != first_data[rel]:
                ok = False
                detail = f"{rel} differs between identical invocations"
                break
    if ok:
        # reports match modulo wall-clock timings
        for rel in report_dirs:
            ra = json.loads(first_reports[rel])
            rb = json.loads((tmp_path / rel / "report.json").read_text())
            ra.pop("timings")
            rb.pop("timings")
            if ra != rb:
                ok = False
                detail = f"{rel}/report.json differs beyond timings"
                break
    if ok:
        # everything written must reload through the package's own loader
        for rel in data_files:
            if rel.endswith(".json"):
                datasets.load_dataset(tmp_path / rel)
        adapted = datasets.load_dataset(tmp_path / "adapted" / "adapted.json")
        ok = adapted.matrices.shape == (40, 5, 5)
        detail = "all files reload, outputs byte-identical"
    _finish(9, "CLI chain cosine -> covariance -> adapt round-trips", t0, 30.0, ok, detail)
