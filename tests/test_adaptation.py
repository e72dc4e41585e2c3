import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    SOLVER_MASS,
    make_spd,
    random_invertible,
    reference_frechet_mean,
    use_cpus,
)
from spdot import adaptation as ad
from spdot import manifold as mf
from spdot import transport as tp
from spdot.errors import ConvergenceFailure, InvalidInput, NotPositiveDefinite


def test_public_names_resolve():
    import spdot

    assert all(hasattr(spdot, name) for name in spdot.__all__)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ad.AdaptationConfig()
        assert cfg.metric == "riemannian" and cfg.solver == "sinkhorn"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"metric": "hyperbolic"},
            {"solver": "emd"},
            {"lam": -1.0},
            {"lam": "none"},
            {"eta": -0.1},
            {"mass": "weighted"},
            {"eta": float("inf")},
            {"top_k": 0},
            {"top_k": 2.5},
            {"top_k": "3"},
            {"top_k": True},
            {"lam": float("inf")},
            {"lam": "0.5"},
            {"lam": True},
            {"eta": float("nan")},
            {"eta": "0.1"},
            {"metric": "euclidean"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInput) as err:
            ad.AdaptationConfig(**kwargs)
        assert type(err.value) is InvalidInput
        assert err.value.pipeline_step is None

    def test_fields(self):
        # stopping tolerances are module constants of manifold and transport
        assert [f.name for f in dataclasses.fields(ad.AdaptationConfig)] == [
            "metric", "solver", "lam", "eta", "mass", "top_k",
        ]


class TestKdeWeights:
    def test_single_point(self):
        pts = make_spd(3, 1, seed=1)
        np.testing.assert_array_equal(ad.kde_weights(pts), [1.0])

    def test_two_identical_points(self):
        P = make_spd(3, 1, seed=2)[0]
        np.testing.assert_allclose(ad.kde_weights([P, P]), [0.5, 0.5])

    def test_matches_direct_kernel_sum(self):
        pts = make_spd(3, 5, seed=3)
        d2 = np.array([[mf.riemannian_distance(P, Q) ** 2 for Q in pts]
                       for P in pts])
        # the bandwidth: the median of the 10 pairs i < j
        sigma2 = np.median(d2[np.triu_indices(5, k=1)])
        w = ad.kde_weights(pts)
        raw = np.exp(-d2 / (2 * sigma2)).sum(axis=1)
        np.testing.assert_allclose(w, raw / raw.sum(), atol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_outlier_downweighted(self):
        # tight cluster plus one far point: the kernel sum sees ~1 neighbor
        # for the outlier and ~5 for cluster members
        base = np.eye(2)
        cluster = mf.exp_map(
            base,
            np.stack([0.05 * make_sym for make_sym in _sym_basis_5()]),
        )
        far = mf.exp_map(base, np.diag([4.0, 4.0]))
        pts = np.concatenate([cluster, far[None]])
        w = ad.kde_weights(pts)
        assert w[-1] < 1.0 / 6.0
        assert (w[:-1] > 1.0 / 6.0).all()

    def test_auto_sigma_is_median_sq_distance(self):
        # bit for bit the kernel sum at the set's median_sq_distance
        for pts in (make_spd(3, 7, seed=5), make_spd(2, 1, seed=6)):
            w = np.exp(
                -mf.sq_distance_matrix(pts) / (2.0 * ad.median_sq_distance(pts))
            ).sum(axis=1)
            assert np.array_equal(ad.kde_weights(pts), w / w.sum())


def _sym_basis_5():
    mats = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2),
        np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2),
        np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(3),
    ]
    return mats


EMPTY = np.zeros((0, 2, 2))
LABELS_CONFIG = ad.AdaptationConfig(solver="sinkhorn-labels")


@pytest.mark.parametrize(
    "call",
    [
        lambda: mf.check_spd(EMPTY),
        lambda: mf._eigh_fun(EMPTY, np.log, "logm input", "logm"),
        lambda: mf.expm(EMPTY),
        lambda: mf._sqrt_invsqrt(EMPTY)[0],
        lambda: mf.invsqrtm(EMPTY),
        lambda: mf.paired_sq_distances(EMPTY, EMPTY),
    ],
    ids=["check_spd", "logm", "expm", "sqrtm", "invsqrtm", "paired"],
)
def test_empty_stack_elementwise_returns_empty(call):
    assert len(call()) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: mf.sq_distance_matrix(EMPTY),
        lambda: mf.sq_distance_matrix(make_spd(2, 2, seed=1), EMPTY),
        lambda: mf.frechet_mean(EMPTY),
        lambda: mf.tangent_coordinates(EMPTY, np.eye(2)),
        lambda: ad.kde_weights(EMPTY),
        lambda: ad.mdm_fit(EMPTY, []),
        lambda: ad.adapt(EMPTY, make_spd(2, 2, seed=1)),
        lambda: ad.adapt(make_spd(2, 2, seed=1), EMPTY),
        lambda: mf.sq_euclidean_matrix(np.zeros((0, 3)), np.zeros((2, 3))),
        lambda: mf.sq_euclidean_matrix(np.zeros((2, 3)), np.zeros((0, 3))),
        lambda: ad.mdm_classify(np.eye(2), {}),
        lambda: tp.uniform_mass(0),
    ],
    ids=["sq_distance_matrix", "sq_distance_matrix_b", "frechet_mean",
         "tangent_coordinates", "kde_weights", "mdm_fit", "adapt_source",
         "adapt_target", "sq_euclidean_matrix", "sq_euclidean_matrix_b",
         "mdm_classify", "uniform_mass"],
)
def test_empty_stack_set_level_raises(call):
    # exactly InvalidInput: numpy's bare ValueError on an empty reduction
    # must not pass
    with pytest.raises(InvalidInput) as err:
        call()
    assert type(err.value) is InvalidInput


@pytest.mark.parametrize("value", [float("inf"), float("nan"), True, -1],
                         ids=["inf", "nan", "bool", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: tp.sinkhorn(np.ones((2, 2)), lam=v),
        lambda v: tp.sinkhorn_with_labels(np.ones((2, 2)), labels=[0, 1], lam=v),
        lambda v: tp.sinkhorn_with_labels(np.ones((2, 2)), labels=[0, 1], lam=1.0, eta=v),
    ],
    ids=["sinkhorn_lam", "labels_lam", "labels_eta"],
)
def test_numbers_must_be_finite_and_positive(call, value):
    # the same rule AdaptationConfig applies to lam and eta
    with pytest.raises(InvalidInput) as err:
        call(value)
    assert type(err.value) is InvalidInput


class TestMedianSqDistance:
    def test_degenerate_set_falls_back(self):
        P = make_spd(2, 1, seed=5)[0]
        assert ad.median_sq_distance([P, P, P]) == 1.0

    def test_single_point(self):
        assert ad.median_sq_distance(make_spd(2, 1, seed=6)) == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInput):
            ad.median_sq_distance(np.zeros((0, 2, 2)))

    def test_matches_upper_triangle_median(self):
        pts = make_spd(3, 6, seed=7)
        d2 = mf.sq_distance_matrix(pts, pts)
        want = np.median(d2[np.triu_indices(6, k=1)])
        assert ad.median_sq_distance(pts) == pytest.approx(want)


class TestBuildCost:
    def test_single_identical_pair(self):
        P = make_spd(3, 1, seed=8)
        cost = ad.build_cost(P, P)
        assert cost.values.shape == (1, 1)
        assert cost.values[0, 0] <= 1e-12
        assert np.array_equal(cost.values, mf.sq_distance_matrix(P, P))

    def test_zero_iff_equal(self):
        pts = make_spd(2, 3, seed=9)
        C = ad.build_cost(pts, pts).values
        assert (np.diag(C) <= 1e-12).all()
        off = C[~np.eye(3, dtype=bool)]
        assert (off > 1e-6).all()

    def test_riemannian_congruence_invariance(self):
        src = make_spd(3, 4, seed=10)
        tgt = make_spd(3, 5, seed=11)
        A = random_invertible(3, seed=12)
        C0 = ad.build_cost(src, tgt).values
        C1 = ad.build_cost(mf.sym(A @ src @ A.T), mf.sym(A @ tgt @ A.T)).values
        assert np.abs(C1 - C0).max() <= 1e-8 * C0.max()

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            ad.build_cost(make_spd(2, 2, seed=15), make_spd(3, 2, seed=16))


class TestBarycentricMap:
    def test_one_hot_rows_map_to_targets(self):
        tgt = make_spd(3, 4, seed=17)
        gamma = np.zeros((2, 4))
        gamma[0, 2] = 0.5
        gamma[1, 0] = 0.5
        plan = tp.TransportPlan(gamma, tp.uniform_mass(2), None)
        out, info = ad.barycentric_map(make_spd(3, 2, seed=18), tgt, plan)
        assert np.array_equal(out[0], tgt[2])
        assert np.array_equal(out[1], tgt[0])
        assert info == {"iterations": [0, 0], "residuals": [0.0, 0.0], "certified_rows": 0}
        perm = np.array([3, 0, 2, 1])
        plan = tp.TransportPlan(np.eye(4)[perm] / 4, None, None)
        out, info = ad.barycentric_map(make_spd(3, 4, seed=18), tgt, plan)
        assert np.array_equal(out, tgt[perm])
        assert info == {"iterations": [0] * 4, "residuals": [0.0] * 4, "certified_rows": 0}

    @staticmethod
    def dense_map_peak():
        """Traced peak bytes of the map of a dense KDE plan at n=64, d=8."""
        src, tgt = make_spd(8, 64, seed=19, scale=0.5), make_spd(8, 64, seed=20, scale=0.5)
        cost = ad.build_cost(src, tgt)
        plan = tp.sinkhorn(cost, ad.kde_weights(src), ad.kde_weights(tgt),
                           tp.adaptive_lambda(cost))
        assert (plan.matrix > 0).all()
        tracemalloc.start()
        try:
            ad.barycentric_map(src, tgt, plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dense_map_memory(self, monkeypatch):
        """A dense KDE plan's map stays within the pair block budget: its
        traced peak at n=64, d=8 on one CPU is about 1.3 MB, not 17 MB."""
        use_cpus(monkeypatch, 1)
        assert self.dense_map_peak() < 4 * 2**20

    def test_pooled_dense_map_memory(self, monkeypatch):
        """On four CPUs up to four row blocks are live at once, and the
        traced peak (4.0-4.4 MB) grows by about 1 MB per concurrent block.
        The bound is 2 MB per concurrent block."""
        use_cpus(monkeypatch, 4)
        assert self.dense_map_peak() < 4 * 2 * 2**20

    def test_rejects_bad_target_without_mass(self):
        # target 2 gets no mass but must still be validated
        tgt = make_spd(2, 3, seed=17)
        tgt[2] = np.diag([1.0, -1.0])
        plan = tp.TransportPlan(np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]), None, None)
        with pytest.raises(NotPositiveDefinite):
            ad.barycentric_map(make_spd(2, 2, seed=18), tgt, plan)

    def test_negative_plan_entry_rejected(self):
        # so are non-finite entries: an inf one would map its row to that
        # target, a NaN one would pass for a row without mass; a bare array
        # is not a plan, and neither is one whose shape does not match the sets
        tgt = make_spd(2, 2, seed=19)
        plans = [tp.TransportPlan(np.array([[0.6, bad], [0.0, 0.5]]), None, None)
                 for bad in (-0.1, np.inf, np.nan)] + [np.full((2, 2), 0.25)]
        plans.append(tp.TransportPlan(np.full((2, 3), 1 / 6), None, None))
        for plan in plans:
            with pytest.raises(InvalidInput,
                               match="negative|non-finite|TransportPlan|does not match") as err:
                ad.barycentric_map(make_spd(2, 2, seed=20), tgt, plan)
            assert type(err.value) is InvalidInput

    def test_duplicate_targets(self):
        Q = make_spd(2, 1, seed=19)[0]
        tgt = np.stack([Q, Q])
        gamma = np.array([[0.3, 0.7]])
        plan = tp.TransportPlan(gamma, np.array([1.0]), None)
        out, _ = ad.barycentric_map(make_spd(2, 1, seed=20), tgt, plan)
        assert mf.riemannian_distance(out[0], Q) <= 1e-9

    def test_matches_objective_minimizer(self):
        # oracle: derivative-free minimization of the weighted objective
        tgt = make_spd(3, 3, seed=21)
        row = np.array([[0.2, 0.5, 0.3]])
        plan = tp.TransportPlan(row, np.array([1.0]), None)
        out, _ = ad.barycentric_map(make_spd(3, 1, seed=22), tgt, plan)
        oracle = reference_frechet_mean(tgt, row[0])
        oracle = (oracle + oracle.T) / 2
        assert mf.riemannian_distance(out[0], oracle) <= 1e-6

    def test_top_k_full_equals_unset(self):
        tgt = make_spd(2, 5, seed=23)
        rng = np.random.default_rng(24)
        gamma = rng.random((3, 5))
        gamma /= gamma.sum()
        plan = tp.TransportPlan(gamma, None, None)
        src = make_spd(2, 3, seed=25)
        dense, dense_info = ad.barycentric_map(src, tgt, plan)
        kfull, kfull_info = ad._barycentric_map(3, tgt, plan, 5)
        assert np.abs(dense - kfull).max() <= 1e-10
        assert kfull_info["iterations"] == dense_info["iterations"]

    def test_top_k_one_picks_heaviest_target(self):
        tgt = make_spd(2, 4, seed=26)
        gamma = np.array([[0.1, 0.2, 0.6, 0.1]])
        plan = tp.TransportPlan(gamma, None, None)
        out, info = ad._barycentric_map(1, tgt, plan, 1)
        assert np.array_equal(out[0], tgt[2])
        assert info == {"iterations": [0], "residuals": [0.0], "certified_rows": 0}
        # ties go to the lowest target index
        plan = tp.TransportPlan(np.array([[0.1, 0.3, 0.3, 0.3]]), None, None)
        out, _ = ad._barycentric_map(1, tgt, plan, 2)
        want, _ = ad.barycentric_map(tgt[:1], tgt, tp.TransportPlan(
            np.array([[0.0, 0.3, 0.3, 0.0]]), None, None))
        assert np.array_equal(out, want)

    def test_rows_match_frechet_mean(self):
        tgt = make_spd(3, 6, seed=32)
        gamma = np.random.default_rng(33).random((5, 6))
        gamma[2] = 0.0
        gamma[2, 4] = 0.7  # one-hot row
        plan = tp.TransportPlan(gamma / gamma.sum(), None, None)
        for top_k in (None, 3):
            out, info = ad._barycentric_map(5, tgt, plan, top_k)
            assert set(info) == {"iterations", "residuals", "certified_rows"}
            for i, row in enumerate(plan.matrix):
                row = row.copy()
                if top_k is not None:
                    row[np.argpartition(row, -top_k)[:-top_k]] = 0.0
                means, row_iterations, _, _ = mf._karcher_means(tgt, (row / row.sum())[None])
                assert mf.riemannian_distance(out[i], means[0]) <= 1e-12
                assert info["iterations"][i] == row_iterations[0]
                assert info["residuals"][i] <= mf.MEAN_TOL
            assert np.array_equal(out[2], tgt[4])
            assert info["iterations"][2] == 0 and info["residuals"][2] == 0.0

    def test_failure_names_row(self, monkeypatch):
        monkeypatch.setattr(mf, "MEAN_MAX_ITER", 1)
        tgt = make_spd(3, 4, seed=35)
        gamma = np.full((3, 4), 1 / 12)
        gamma[0] = [0.0, 0.25, 0.0, 0.0]
        plan = tp.TransportPlan(gamma, None, None)
        with pytest.raises(ConvergenceFailure, match="row 1") as err:
            ad.barycentric_map(make_spd(3, 3, seed=36), tgt, plan)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10
        assert err.value.last.shape == (3, 3)

    def test_zero_row_rejected(self):
        tgt = make_spd(2, 2, seed=28)
        gamma = np.array([[0.5, 0.5], [0.0, 0.0]])
        plan = tp.TransportPlan(gamma, None, None)
        with pytest.raises(InvalidInput, match="plan row 1 carries no mass"):
            ad.barycentric_map(make_spd(2, 2, seed=29), tgt, plan)


def exact_config(**kwargs):
    return ad.AdaptationConfig(solver="exact", **kwargs)


class TestAdaptPipeline:
    def test_identity_adaptation(self):
        src = make_spd(4, 10, seed=32)
        res = ad.adapt(src, src, config=exact_config())
        np.testing.assert_array_equal(
            res.plan.matrix, np.eye(10) / 10
        )
        d = np.sqrt(mf.paired_sq_distances(res.adapted_source, src))
        assert d.max() <= 1e-8
        assert res.lambda_used is None
        # uniform mass policy produces exactly 1/n entries
        np.testing.assert_array_equal(res.plan.source_marginal, np.full(10,  0.1))
        np.testing.assert_array_equal(res.plan.target_marginal, np.full(10, 0.1))

    def test_positive_congruence_recovered(self):
        # target built by the positive factor alone: transport recovers it
        src = make_spd(2, 20, seed=33, scale=0.3)
        T = np.array([[0.5, -0.25], [-0.25, 1.0]])
        tgt = mf.sym(T @ src @ T)
        res = ad.adapt(src, tgt, config=exact_config())
        d = np.sqrt(mf.paired_sq_distances(res.adapted_source, tgt))
        assert d.max() <= 1e-6
        assert tp.diagonal_mass(res.plan.matrix) == 1.0

    def test_rotation_breaks_matching(self):
        # a pure rotation has no positive part to recover; the plan must
        # mismatch at least one pair
        src = make_spd(2, 5, seed=0, scale=0.3)
        U = np.array([[0.0, 1.0], [-1.0, 0.0]])
        tgt = mf.sym(U @ src @ U.T)
        res = ad.adapt(src, tgt, config=exact_config())
        assert tp.diagonal_mass(res.plan.matrix) < 1.0

    def test_support_alignment_under_bijection(self):
        src = make_spd(3, 8, seed=34)
        perm = np.random.default_rng(35).permutation(8)
        tgt = src[perm]
        res = ad.adapt(src, tgt, config=exact_config())
        # every adapted point coincides with some target point
        d2 = mf.sq_distance_matrix(res.adapted_source, tgt)
        assert (d2.min(axis=1) <= 1e-12).all()
        cols = d2.argmin(axis=1)
        assert sorted(cols) == list(range(8))

    def test_sinkhorn_auto_lambda(self):
        src = make_spd(3, 6, seed=36)
        tgt = make_spd(3, 6, seed=37)
        res = ad.adapt(src, tgt, config=ad.AdaptationConfig(solver="sinkhorn"))
        assert res.lambda_used == pytest.approx(
            tp.adaptive_lambda(res.cost.values)
        )
        row, col = res.plan.marginal_residuals()
        assert row <= 1e-6 and col <= 1e-6
        mf.check_spd(res.adapted_source)

    def test_labels_solver_roundtrip(self):
        src = make_spd(2, 6, seed=38)
        tgt = make_spd(2, 5, seed=39)
        labels = np.array([0, 0, 0, 1, 1, 1])
        cfg = ad.AdaptationConfig(solver="sinkhorn-labels", lam=2.0, eta=0.1)
        res = ad.adapt(src, tgt, labels, cfg)
        assert res.eta_used == pytest.approx(0.1)
        assert res.adapted_source.shape == (6, 2, 2)

    def test_plan_solver_statistics(self):
        src = make_spd(2, 6, seed=38)
        tgt = make_spd(2, 6, seed=39)
        labels = np.array([0, 0, 0, 1, 1, 1])
        res = ad.adapt(src, tgt, config=exact_config())
        assert res.diagnostics["plan"]["iterations"] is None
        assert res.diagnostics["plan"]["dual_gradient"] is None
        res = ad.adapt(src, tgt, config=ad.AdaptationConfig(solver="sinkhorn", lam=2.0))
        plan = tp.sinkhorn(res.cost, lam=2.0)
        assert res.diagnostics["plan"]["iterations"] == plan.iterations > 0
        assert res.diagnostics["plan"]["dual_gradient"] == plan.dual_gradient <= tp.SINKHORN_TOL
        cfg = ad.AdaptationConfig(solver="sinkhorn-labels", lam=2.0, eta=0.1)
        res = ad.adapt(src, tgt, labels, cfg)
        plan = tp.sinkhorn_with_labels(res.cost, labels=labels, lam=2.0, eta=0.1)
        assert res.diagnostics["plan"]["iterations"] == plan.iterations > 0
        assert res.diagnostics["plan"]["dual_gradient"] == plan.dual_gradient <= tp.SINKHORN_TOL

    def test_plan_marginal_error(self):
        src = make_spd(2, 6, seed=38)
        tgt = make_spd(2, 6, seed=39)
        labels = np.array([0, 0, 0, 1, 1, 1])
        for cfg, lab in (
            (exact_config(), None),
            (ad.AdaptationConfig(solver="sinkhorn", lam=2.0, mass="kde"), None),
            (ad.AdaptationConfig(solver="sinkhorn-labels", lam=2.0, eta=0.1), labels),
        ):
            res = ad.adapt(src, tgt, lab, cfg)
            diag = res.diagnostics["plan"]
            assert diag["marginal_residuals"] == list(res.plan.marginal_residuals())
            assert max(diag["marginal_residuals"]) <= tp.MARGINAL_TOL
            assert diag["objective"] == res.plan.objective(res.cost)
            objective = np.sum(res.plan.matrix * res.cost.values)
            assert diag["objective"] == pytest.approx(objective)

    def test_plan_scale_diagnostics(self):
        src = make_spd(2, 6, seed=38)
        tgt = make_spd(2, 7, seed=39)
        labels = np.array([0, 0, 0, 1, 1, 1])
        res = ad.adapt(src, tgt[:6], config=exact_config())
        assert res.diagnostics["plan"]["lambda_median_cost"] is None
        assert res.diagnostics["plan"]["kernel_log10_range"] is None
        assert res.diagnostics["plan"]["row_perplexity"] == 1.0
        for cfg, lab in (
            (ad.AdaptationConfig(solver="sinkhorn"), None),
            (ad.AdaptationConfig(solver="sinkhorn", lam=2.0, mass="kde"), None),
            (ad.AdaptationConfig(solver="sinkhorn-labels", lam=2.0, eta=0.1), labels),
        ):
            res = ad.adapt(src, tgt, lab, cfg)
            C, G, lam = res.cost.values, res.plan.matrix, res.lambda_used
            diag = res.diagnostics["plan"]
            assert diag["lambda_median_cost"] == pytest.approx(lam * np.median(C))
            K = np.exp(-lam * C)
            assert diag["kernel_log10_range"] == pytest.approx(
                np.log10(K.min()) - np.log10(K.max())
            )
            perplexity = [
                np.exp(-sum(r * np.log(r) for r in row / row.sum() if r > 0))
                for row in G
            ]
            assert diag["row_perplexity"] == pytest.approx(np.median(perplexity))
            assert 1.0 <= diag["row_perplexity"] <= 7.0

    def test_row_perplexity_skips_empty_rows(self):
        G = np.array([[0.25, 0.25, 0.0], [0.0, 0.0, 0.0], [0.1, 0.1, 0.1]])
        assert ad._row_perplexity(G) == pytest.approx(2.5)
        assert ad._row_perplexity(np.eye(4) / 4) == 1.0

    def test_bare_sinkhorn_reproduces_default_plan(self):
        # the default config needs 10 Newton steps on this instance
        src = make_spd(4, 50, seed=0, scale=0.5)
        tgt = make_spd(4, 50, seed=1, scale=0.5)
        res = ad.adapt(src, tgt)
        plan = tp.sinkhorn(res.cost, lam=res.lambda_used)
        assert np.array_equal(plan.matrix, res.plan.matrix)

    def test_labels_auto_eta(self):
        src = make_spd(2, 4, seed=40)
        tgt = make_spd(2, 4, seed=41)
        cfg = ad.AdaptationConfig(solver="sinkhorn-labels", lam=0.5)
        res = ad.adapt(src, tgt, np.array([0, 0, 1, 1]), cfg)
        assert res.eta_used == pytest.approx(2.0 * np.median(res.cost.values))

    def test_labels_iff_solver(self):
        src = make_spd(2, 3, seed=42)
        with pytest.raises(InvalidInput):
            ad.adapt(src, src, config=ad.AdaptationConfig(solver="sinkhorn-labels"))
        with pytest.raises(InvalidInput):
            ad.adapt(src, src, np.array([0, 1, 0]), exact_config())

    def test_kde_mass_changes_marginals(self):
        src = make_spd(2, 6, seed=43)
        tgt = make_spd(2, 7, seed=44)
        cfg = ad.AdaptationConfig(solver="sinkhorn", mass="kde")
        res = ad.adapt(src, tgt, config=cfg)
        assert res.plan.source_marginal.shape == (6,)
        assert np.abs(res.plan.source_marginal - 1 / 6).max() > 1e-6

    @pytest.mark.parametrize("mass, step", [("uniform", "cost"), ("kde", "mass")],
                             ids=["uniform", "kde"])
    def test_non_spd_target_names_the_set(self, mass, step):
        # uniform mass meets a set first in the cost, KDE mass in its
        # self-distances; either way the one SPD-floor message names the set
        cfg = ad.AdaptationConfig(mass=mass)
        for bad in ("source", "target"):
            sets = {"source": make_spd(2, 5, seed=45), "target": make_spd(2, 4, seed=46)}
            sets[bad][2] = np.diag([-0.5, 1.0])
            with pytest.raises(NotPositiveDefinite) as err:
                ad.adapt(sets["source"], sets["target"], config=cfg)
            assert str(err.value) == (
                f"[step: {step}] {bad} set has smallest eigenvalue -5.000e-01 "
                "<= floor 1.0e-10"
            )
            assert err.value.pipeline_step == step

    def test_uniform_adapt_checks_each_set_once(self, monkeypatch):
        # the cost stage checks both sets, and the map reuses its checked target
        names, floor = [], mf._above_floor
        monkeypatch.setattr(mf, "_above_floor", lambda w, name: names.append(name) or floor(w, name))
        ad.adapt(make_spd(2, 5, seed=45), make_spd(2, 4, seed=46))
        assert names.count("source set") == names.count("target set") == 1

    def test_kde_with_exact_solver_unsupported(self):
        src = make_spd(2, 5, seed=45)
        tgt = make_spd(2, 5, seed=46)
        cfg = exact_config(mass="kde")
        with pytest.raises(InvalidInput, match="uniform marginals") as err:
            ad.adapt(src, tgt, config=cfg)
        assert err.value.pipeline_step == "plan"

    def test_zero_cost_lambda_auto_tagged(self):
        # the geodesic cost between two identities is exactly zero, so the
        # auto lambda rule has no scale to work with
        eye = np.eye(3)[None]
        cfg = ad.AdaptationConfig(solver="sinkhorn")
        with pytest.raises(InvalidInput, match=r"^\[step: plan\] .*median is zero") as err:
            ad.adapt(eye, eye, config=cfg)
        assert err.value.pipeline_step == "plan"

    def test_marginal_failure_tagged(self, monkeypatch):
        # a solve stopped after one Newton step leaves the marginals off: a
        # solver failure
        monkeypatch.setattr(tp, "NEWTON_MAX_STEPS", 1)
        cfg = ad.AdaptationConfig(solver="sinkhorn")
        with pytest.raises(
            ConvergenceFailure, match=r"^\[step: plan\] sinkhorn: dual gradient"
        ) as err:
            ad.adapt(make_spd(3, 12, seed=50), make_spd(3, 10, seed=51), config=cfg)
        assert err.value.pipeline_step == "plan"
        plan = err.value.last
        assert isinstance(plan, tp.TransportPlan)
        assert err.value.residual == pytest.approx(max(plan.marginal_residuals()), rel=1e-9)
        assert err.value.residual > tp.SINKHORN_TOL

    def test_top_k_exceeding_targets(self):
        src = make_spd(2, 3, seed=48)
        with pytest.raises(InvalidInput):
            ad.adapt(src, src, config=exact_config(top_k=4))

    def test_top_k_ties_go_to_the_lowest_target(self):
        # every cost row is constant, so every plan entry is the same
        src = np.stack([np.eye(2), 3 * np.eye(2)])
        tgt = np.stack([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        res = ad.adapt(src, tgt, config=ad.AdaptationConfig(solver="sinkhorn", top_k=1))
        gamma = res.plan.matrix
        assert (gamma == gamma[0, 0]).all()
        assert np.array_equal(res.adapted_source, tgt[gamma.argmax(axis=1)])
        assert np.array_equal(res.adapted_source, tgt[[0, 0]])

    @pytest.mark.parametrize(
        "target, labels, config",
        [
            (make_spd(3, 3, seed=48), None, None),
            (make_spd(2, 3, seed=48), None, LABELS_CONFIG),
            (make_spd(2, 3, seed=48), np.zeros(2), LABELS_CONFIG),
            (make_spd(2, 3, seed=48), np.zeros((3, 1)), LABELS_CONFIG),
            (make_spd(2, 3, seed=48), [0, np.nan, 1], LABELS_CONFIG),
            (make_spd(2, 3, seed=48), [0.5, 1.5, 0.5], LABELS_CONFIG),
            (make_spd(2, 3, seed=48), None, ad.AdaptationConfig(top_k=4)),
        ],
        ids=["dimension", "labels", "label_count", "label_shape", "label_nan",
             "label_fraction", "top_k"],
    )
    def test_argument_errors_carry_no_step(self, target, labels, config):
        # rejected before any stage runs, so the error names no step
        with pytest.raises(InvalidInput) as err:
            ad.adapt(make_spd(2, 3, seed=48), target, labels, config=config)
        assert err.value.pipeline_step is None
        assert "[step:" not in str(err.value)

    @pytest.mark.parametrize("fields", SOLVER_MASS)
    def test_diagnostics_are_plain_json_and_reproducible(self, fields):
        def plain(x):
            if type(x) is dict:
                return all(type(k) is str and plain(v) for k, v in x.items())
            if type(x) is list:
                return all(plain(v) for v in x)
            return x is None or type(x) in (bool, int, float, str)

        cfg = ad.AdaptationConfig(**fields)
        src, tgt = make_spd(3, 6, seed=70), make_spd(3, 6, seed=71)
        labels = np.array([0, 0, 0, 1, 1, 1]) if cfg.solver == "sinkhorn-labels" else None
        res = ad.adapt(src, tgt, labels, cfg)
        assert set(res.diagnostics) == {"plan", "map"}
        assert plain(res.diagnostics)
        assert json.loads(json.dumps(res.diagnostics, allow_nan=False)) == res.diagnostics
        assert ad.adapt(src, tgt, labels, cfg).diagnostics == res.diagnostics

    def test_determinism(self):
        src = make_spd(3, 7, seed=49)
        tgt = make_spd(3, 9, seed=50)
        cfg = ad.AdaptationConfig(solver="sinkhorn")
        a = ad.adapt(src, tgt, config=cfg)
        b = ad.adapt(src, tgt, config=cfg)
        assert np.array_equal(a.plan.matrix, b.plan.matrix)
        assert np.array_equal(a.adapted_source, b.adapted_source)

    def test_diagnostics_per_row(self):
        src = make_spd(2, 4, seed=51)
        tgt = make_spd(2, 5, seed=52)
        res = ad.adapt(src, tgt, config=ad.AdaptationConfig(solver="sinkhorn"))
        assert set(res.diagnostics) == {"plan", "map"}
        assert len(res.diagnostics["map"]["iterations"]) == 4
        assert len(res.diagnostics["map"]["residuals"]) == 4
        assert max(res.diagnostics["map"]["residuals"]) <= 1e-10
        stages = res.stage_s
        assert list(stages) == ["mass", "cost", "plan", "map"]
        assert all(t >= 0.0 for t in stages.values())

    def test_map_failure_tagged(self, monkeypatch):
        monkeypatch.setattr(mf, "MEAN_MAX_ITER", 1)
        src = make_spd(3, 4, seed=53)
        cfg = ad.AdaptationConfig(solver="sinkhorn")
        step = r"^\[step: map\] Karcher mean of row 0"
        with pytest.raises(ConvergenceFailure, match=step):
            ad.adapt(src, make_spd(3, 5, seed=54), config=cfg)


class TestMdm:
    def test_one_point_per_class(self):
        pts = make_spd(3, 3, seed=53)
        means = ad.mdm_fit(pts, [2, 0, 1])
        assert np.array_equal(means[2], pts[0])
        assert np.array_equal(means[0], pts[1])

    def test_duplicated_points_same_mean(self):
        P = make_spd(2, 1, seed=54)[0]
        means = ad.mdm_fit(np.stack([P, P, P]), [0, 0, 0])
        assert mf.riemannian_distance(means[0], P) <= 1e-10

    def test_commuting_classes_geometric_means(self):
        train = np.stack(
            [np.diag([1.0, 2.0]), np.diag([4.0, 8.0]), np.diag([9.0, 1.0]), np.diag([1.0, 9.0])]
        )
        means = ad.mdm_fit(train, [0, 0, 1, 1])
        np.testing.assert_allclose(means[0], np.diag([2.0, 4.0]), atol=1e-9)
        np.testing.assert_allclose(means[1], np.diag([3.0, 3.0]), atol=1e-9)

    @pytest.mark.parametrize(
        "labels",
        [[0, np.nan, 1, 1], [0.5, 0.5, 1.5, 1.5], [0, 0, 1], [[0, 0, 1, 1]]],
        ids=["nan", "fraction", "short", "shape"],
    )
    def test_labels_must_be_one_integer_per_point(self, labels):
        with pytest.raises(InvalidInput, match="labels must be"):
            ad.mdm_fit(make_spd(2, 4, seed=1), labels)

    def test_class_keys_are_python_ints(self):
        means = ad.mdm_fit(make_spd(2, 4, seed=1), np.array([3, 3, 1, 1], dtype=np.int32))
        assert list(means) == [1, 3] and all(type(y) is int for y in means)

    def test_query_at_mean(self):
        pts = make_spd(3, 4, seed=55)
        means = ad.mdm_fit(pts, [0, 0, 1, 1])
        assert ad.mdm_classify(means[1], means) == 1

    def test_log_distance_comparison(self):
        means = {0: np.eye(2), 1: np.diag([100.0, 100.0])}
        assert ad.mdm_classify(np.diag([1.1, 1.1]), means) == 0

    def test_tie_goes_to_smallest_label(self):
        P, Q = make_spd(2, 2, seed=58)
        assert ad.mdm_classify(P, {3: Q, 1: Q, 2: Q}) == 1
        assert ad.mdm_classify(P, {3: P, 1: Q, 2: P}) == 2

    def test_agrees_with_brute_force(self):
        pts = make_spd(3, 9, seed=56)
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        means = ad.mdm_fit(pts, labels)
        queries = make_spd(3, 5, seed=57)
        for q in queries:
            dists = {y: mf.riemannian_distance(q, m) for y, m in means.items()}
            want = min(sorted(dists), key=lambda y: dists[y])
            assert ad.mdm_classify(q, means) == want

    def test_tie_breaks_to_smallest_label(self):
        P = make_spd(2, 1, seed=58)[0]
        assert ad.mdm_classify(P, {3: P.copy(), 1: P.copy()}) == 1

    def test_congruence_invariance(self):
        pts = make_spd(2, 6, seed=59)
        labels = np.array([0, 0, 0, 1, 1, 1])
        means = ad.mdm_fit(pts, labels)
        A = random_invertible(2, seed=60)
        q = make_spd(2, 1, seed=61)[0]
        mapped_means = {y: mf.sym(A @ m @ A.T) for y, m in means.items()}
        assert ad.mdm_classify(mf.sym(A @ q @ A.T), mapped_means) == ad.mdm_classify(
            q, means
        )
