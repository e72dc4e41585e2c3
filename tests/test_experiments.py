import numpy as np
import pytest

from spdot import experiments as ex
from spdot import manifold as mf
from spdot import transport as tp
from spdot.errors import InvalidInput, NotPositiveDefinite


class TestRandomSpd:
    def test_deterministic_in_seed(self):
        a = ex.random_spd(3, 4, seed=9)
        b = ex.random_spd(3, 4, seed=9)
        assert np.array_equal(a, b)

    def test_zero_scale_gives_floor(self):
        out = ex.random_spd(3, 2, scale=0.0, seed=1)
        np.testing.assert_array_equal(out, np.broadcast_to(0.1 * np.eye(3), (2, 3, 3)))

    def test_validation_sweep(self):
        pts = ex.random_spd(4, 1000, seed=2)
        mf.check_spd(pts)  # raises if any draw is not SPD

    def test_bad_arguments(self):
        with pytest.raises(InvalidInput):
            ex.random_spd(0, 1)


class TestIsotropicCloud:
    def test_whitened_moments(self):
        pts = ex.isotropic_spd_cloud(24, seed=3)
        logs = mf.tangent_coordinates(pts, np.eye(2))
        coords = np.stack(
            [logs[:, 0, 0], logs[:, 1, 1], np.sqrt(2.0) * logs[:, 0, 1]], axis=1
        )
        np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-10)
        cov = coords.T @ coords / 24
        np.testing.assert_allclose(cov, 0.25 * np.eye(3), atol=1e-10)

    def test_deterministic_and_spd(self):
        a = ex.isotropic_spd_cloud(10, seed=4)
        assert np.array_equal(a, ex.isotropic_spd_cloud(10, seed=4))
        mf.check_spd(a)


class TestCongruenceMap:
    def test_identity_map(self):
        pts = ex.random_spd(2, 3, seed=5)
        out = ex.apply_congruence(ex.CongruenceMap(np.eye(2), 0.0), pts)
        np.testing.assert_allclose(out, pts, atol=1e-15)

    def test_positive_part_squared_at_identity(self):
        cmap = ex.CongruenceMap(ex.DEFAULT_T, 0.0)
        out = ex.apply_congruence(cmap, np.eye(2)[None])
        np.testing.assert_allclose(out[0], ex.DEFAULT_T @ ex.DEFAULT_T, atol=1e-15)

    def test_distances_preserved(self):
        pts = ex.random_spd(2, 4, seed=6)
        cmap = ex.CongruenceMap(ex.DEFAULT_T, 1.3)
        mapped = ex.apply_congruence(cmap, pts)
        for i in range(3):
            d0 = mf.riemannian_distance(pts[i], pts[i + 1])
            d1 = mf.riemannian_distance(mapped[i], mapped[i + 1])
            assert abs(d1 - d0) <= 1e-8 * d0

    def test_requires_spd_positive_part(self):
        with pytest.raises(NotPositiveDefinite):
            ex.CongruenceMap(np.diag([1.0, -1.0]), 0.0)
        with pytest.raises(InvalidInput, match="positive part must be 2x2"):
            ex.CongruenceMap(np.eye(3), 0.0)

    def test_outputs_spd(self):
        pts = ex.random_spd(2, 5, seed=7)
        mf.check_spd(ex.apply_congruence(ex.CongruenceMap(ex.DEFAULT_T, 2.1), pts))


class TestToyA:
    def test_zero_angle_recovers(self):
        ((theta, rep),) = ex.toy_a_sweep(n=20, theta_grid=[0.0], seed=0)
        assert theta == 0.0
        assert rep.recovery_error <= 1e-6
        assert rep.diagonal_mass == 1.0

    def test_pi_recovers_like_zero(self):
        # U at pi is -I, the same conjugation as the identity, so the map
        # is again purely positive and recovery is exact
        results = ex.toy_a_sweep(n=20, theta_grid=[0.0, np.pi], seed=0)
        for _, rep in results:
            assert rep.recovery_error <= 1e-6
            assert rep.diagonal_mass == 1.0

    def test_right_angle_fails(self):
        results = ex.toy_a_sweep(n=20, theta_grid=[0.0, np.pi / 2], seed=0)
        base = results[0][1]
        rot = results[1][1]
        assert rot.diagonal_mass < 1.0
        assert rot.recovery_error > 10.0 * base.recovery_error + 1e-6

    def test_error_continuity_under_refinement(self):
        grid = np.linspace(0.0, np.pi, 33)
        results = ex.toy_a_sweep(n=20, theta_grid=grid, seed=1)
        errors = np.array([rep.recovery_error for _, rep in results])
        max_err = errors.max()
        spacing = grid[1] - grid[0]
        assert np.abs(np.diff(errors)).max() < 10.0 * spacing * max_err

    def test_default_grid_size(self):
        results = ex.toy_a_sweep(n=5, seed=2)
        assert len(results) == ex.TOY_A_GRID_SIZE
        assert results[0][0] == 0.0
        assert results[-1][0] == pytest.approx(np.pi)


class TestToyB:
    def test_self_target_minimizes_at_zero(self):
        src = ex.isotropic_spd_cloud(8, seed=8)
        grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        best_theta, curve = ex.toy_b_search(src, src, grid)
        objs = {theta: rep.objective for theta, rep in curve}
        assert objs[0.0] <= 1e-12
        assert min(objs.values()) >= -1e-15
        assert objs[best_theta] == min(objs.values())

    def test_two_pi_periodicity(self):
        src = ex.isotropic_spd_cloud(6, seed=9)
        tgt = ex.apply_congruence(ex.CongruenceMap(ex.DEFAULT_T, 0.7), src)
        _, curve = ex.toy_b_search(src, tgt, [0.9, 0.9 + 2.0 * np.pi])
        assert curve[0][1].objective == pytest.approx(
            curve[1][1].objective, rel=1e-12
        )

    def test_finds_planted_rotation(self):
        theta_star = 1.0
        src = ex.isotropic_spd_cloud(20, seed=10)
        tgt = ex.apply_congruence(ex.CongruenceMap(ex.DEFAULT_T, theta_star), src)
        best_theta, curve = ex.toy_b_search(src, tgt)
        objs = dict((round(t, 12), r.objective) for t, r in curve)
        assert dict(curve)[best_theta].diagonal_mass == 1.0
        # the found angle matches theta_star modulo pi (U and -U conjugate
        # identically), within one grid step
        step = 2.0 * np.pi / ex.TOY_B_GRID_SIZE
        off = abs((best_theta - theta_star + np.pi / 2) % np.pi - np.pi / 2)
        assert off <= step
        assert objs[0.0] > curve[[t for t, _ in curve].index(best_theta)][1].objective

    def test_rejects_higher_dims(self):
        src = ex.random_spd(3, 4, seed=11)
        with pytest.raises(InvalidInput):
            ex.toy_b_search(src, src)


@pytest.mark.parametrize("grid", [[], np.zeros((0,)), np.zeros((2, 2))])
def test_empty_or_malformed_grid_rejected(grid):
    src = ex.isotropic_spd_cloud(6, seed=8)
    with pytest.raises(InvalidInput, match="theta_grid"):
        ex.toy_b_search(src, src, grid)
    with pytest.raises(InvalidInput, match="theta_grid"):
        ex.toy_a_sweep(n=5, theta_grid=grid)


class TestCosineTrials:
    def test_deterministic(self):
        a = ex.cosine_trials(n=3, seed=12)
        b = ex.cosine_trials(n=3, seed=12)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_default_shapes(self):
        xs, zs = ex.cosine_trials(seed=13)
        assert xs.shape == (40, 5, 101)
        assert zs.shape == (40, 5, 101)

    def test_pairs_share_frequency_spectra(self):
        # noiseless pair spectra must peak in the same FFT bin per channel
        xs, zs = ex.cosine_trials(n=6, seed=14, noise=False)
        for i in range(6):
            for c in range(5):
                fx = np.abs(np.fft.rfft(xs[i, c]))
                fz = np.abs(np.fft.rfft(zs[i, c]))
                assert np.argmax(fx[1:]) == np.argmax(fz[1:])

    def test_noise_changes_trials(self):
        clean = ex.cosine_trials(n=2, seed=15, noise=False)[0]
        noisy = ex.cosine_trials(n=2, seed=15, noise=True)[0]
        assert np.abs(clean - noisy).max() > 0.1

    @pytest.mark.parametrize("ts", [np.nan, np.inf, -np.inf])
    def test_non_finite_ts_rejected(self, ts):
        with pytest.raises(InvalidInput, match="finite ts"):
            ex.cosine_trials(n=2, ts=ts)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ts", [1e307, -1e307, np.float64(1e306)])
    def test_overflowing_ts_rejected(self, ts):
        # finite, but 20 cycles at the last sample time overflow
        with pytest.raises(InvalidInput, match="finite ts and phases, got ts="):
            ex.cosine_trials(n=2, ts=ts)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_sample_times_accepted(self):
        xs, zs = ex.cosine_trials(n=2, ts=1e300)
        assert np.isfinite(xs).all() and np.isfinite(zs).all()


class TestCovariance:
    def test_one_dimensional_example(self):
        np.testing.assert_allclose(ex.covariance(np.array([[1.0, -1.0]])), [[2.0]])

    def test_identical_rows_need_ridge(self):
        X = np.tile(np.linspace(0.0, 1.0, 30), (3, 1))
        C, ridges = ex.covariances([X])
        assert ridges[0] > 0
        mf.check_spd(C[0])
        assert np.array_equal(ex.covariance(X), C[0])

    def test_zero_trial_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ex.covariance(np.zeros((2, 10)))

    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((3, 50))
        np.testing.assert_allclose(ex.covariance(X), np.cov(X), atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(InvalidInput):
            ex.covariance(np.ones((2,)))
        with pytest.raises(InvalidInput):
            ex.covariance(np.ones((2, 1)))

    def test_stack_matches_single_trials(self):
        trials = np.random.default_rng(17).standard_normal((5, 3, 40))
        trials[1] = np.tile(np.linspace(0.0, 1.0, 40), (3, 1))  # needs a ridge
        trials[3, 2] = trials[3, 0]
        covs, ridges = ex.covariances(trials)
        for i, X in enumerate(trials):
            # one trial at a time, with the arithmetic of the documented formula
            Xc = X - X.mean(axis=1, keepdims=True)
            C = mf.sym(Xc @ Xc.T / (X.shape[1] - 1))
            ridge = 0.0
            if np.linalg.eigvalsh(C)[0] <= mf.EPS_PD:
                ridge = 1e-8 * np.trace(C) / C.shape[0]
                C = C + ridge * np.eye(C.shape[0])
            assert np.array_equal(covs[i], C)
            assert ridges[i] == ridge
            assert np.array_equal(ex.covariance(X), C)
        assert [i for i, r in enumerate(ridges) if r > 0] == [1, 3]
        assert np.array_equal(ex.covariances(trials)[0], covs)

    def test_stack_names_failing_trial(self):
        trials = np.random.default_rng(18).standard_normal((3, 2, 10))
        trials[2] = 0.0
        with pytest.raises(NotPositiveDefinite, match="trial 2: .* smallest eigenvalue 0.000e"):
            ex.covariances(trials)

    @pytest.mark.parametrize("trials", [[], np.zeros((0, 2, 10))], ids=["list", "array"])
    def test_empty_input_rejected(self, trials):
        with pytest.raises(InvalidInput, match="empty input") as err:
            ex.covariances(trials)
        assert type(err.value) is InvalidInput

    def test_unequal_trial_shapes_rejected(self):
        rng = np.random.default_rng(20)
        trials = [rng.standard_normal((2, 5)), rng.standard_normal((3, 5))]
        with pytest.raises(InvalidInput,
                           match=r"trial 1: shape \(3, 5\) differs from trial 0's \(2, 5\)"):
            ex.covariances(trials)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_rejected(self):
        trials = np.random.default_rng(21).standard_normal((3, 2, 5))
        trials[1] *= 1e160
        with pytest.raises(InvalidInput, match="trial 1: covariance overflows") as err:
            ex.covariances(trials)
        assert type(err.value) is InvalidInput
        # 40 channels, 5 samples: finite, but the ridge's trace overflows
        wide = np.random.default_rng(0).standard_normal((1, 40, 5)) * 10**153.6
        with pytest.raises(InvalidInput, match="trial 0: .* ridge repair has non-finite"):
            ex.covariances(wide)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_trial_rejected(self, bad):
        with pytest.raises(InvalidInput, match="trial 0 has non-finite"):
            ex.covariances(np.full((1, 2, 3), bad))
        trials = np.random.default_rng(19).standard_normal((3, 2, 10))
        trials[1, 0, 4] = bad
        with pytest.raises(InvalidInput, match="trial 1 has non-finite"):
            ex.covariances(trials)


class TestThreeConfigComparison:
    def test_riemannian_config_near_perfect(self):
        reports = ex.three_config_comparison(seed=0)
        assert reports[ex.CONFIG_COV_RIEMANNIAN].diagonal_mass >= 0.9

    def test_ordering_seed_zero(self):
        reports = ex.three_config_comparison(seed=0)
        d1 = reports[ex.CONFIG_RAW_EUCLIDEAN].diagonal_mass
        d2 = reports[ex.CONFIG_COV_EUCLIDEAN].diagonal_mass
        d3 = reports[ex.CONFIG_COV_RIEMANNIAN].diagonal_mass
        assert d3 >= d2 >= d1

    def test_single_pair_degenerate(self):
        reports = ex.three_config_comparison(seed=17, n=1)
        for rep in reports.values():
            assert rep.diagonal_mass == 1.0

    def test_three_configs_reported(self):
        reports = ex.three_config_comparison(seed=18, n=4)
        assert list(reports) == [
            ex.CONFIG_RAW_EUCLIDEAN,
            ex.CONFIG_COV_EUCLIDEAN,
            ex.CONFIG_COV_RIEMANNIAN,
        ]


class TestPositiveMapIsEuclideanOptimum:
    def test_euclidean_cost_always_recovers_positive_map(self):
        # under the squared Frobenius cost, matching a set to its image by
        # P -> T P T (T positive) is optimal for any set, including spread
        # ones where the curved-metric matching fails
        for scale, seed in [(0.3, 0), (1.0, 0), (2.0, 5)]:
            src = ex.random_spd(2, 30, scale=scale, seed=seed)
            tgt = ex.apply_congruence(ex.CongruenceMap(ex.DEFAULT_T, 0.0), src)
            plan = tp.exact_ot(mf.sq_euclidean_matrix(src, tgt))
            assert tp.diagonal_mass(plan.matrix) == 1.0


class TestMatchReport:
    def test_diagonal_mass_range_enforced(self):
        with pytest.raises(InvalidInput):
            ex.MatchReport(diagonal_mass=1.5, recovery_error=0.0, objective=0.0)

    def test_diagonal_mass_counts_matches(self):
        # cross-check: mass on the diagonal of an exact plan equals the
        # fraction of correctly matched pairs
        src = ex.random_spd(2, 12, seed=19)
        tgt = ex.apply_congruence(ex.CongruenceMap(ex.DEFAULT_T, 2.0), src)
        cost = mf.sq_distance_matrix(src, tgt)
        plan = tp.exact_ot(cost)
        perm = plan.matrix.argmax(axis=1)
        assert tp.diagonal_mass(plan.matrix) == pytest.approx(
            np.mean(perm == np.arange(12))
        )
