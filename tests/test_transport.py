import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_wide_spd
from spdot import manifold as mf
from spdot import transport as tp
from spdot.errors import (
    ConvergenceFailure,
    InvalidInput,
    NumericalFailure,
    UnsupportedInstance,
)

SEEDS = st.integers(min_value=0, max_value=10_000)


def planted_cost(rng, n=8):
    """Random cost with one cheap hidden permutation; assignment gap >= 0.2."""
    C = 0.4 + 0.6 * rng.random((n, n))
    C[np.arange(n), rng.permutation(n)] = 0.2 * rng.random(n)
    return C


def class_structured_cost(seed, n=48, dim=4, classes=3):
    """Squared geodesic costs between two class-structured SPD sets, and labels.

    Point ``i`` of either set is ``R E_i R`` with ``R^2 = exp(0.7 sym N)``
    the centre of class ``i % classes`` and ``E_i = exp(0.6 sym N)``; the
    target set also carries a random congruence.
    """
    labels = np.arange(n) % classes
    roots = mf.sqrtm(make_wide_spd(dim, classes, seed, 0.7))[labels]
    source, target = (
        mf.sym(roots @ make_wide_spd(dim, n, seed + k, 0.6) @ roots) for k in (1, 2)
    )
    W = np.eye(dim) + 0.3 * np.random.default_rng(seed).standard_normal((dim, dim))
    return mf.sq_distance_matrix(source, mf.sym(W @ target @ W.T)), labels


def cold_start_labels(C, labels, lam, eta, p=None, q=None, tol=1e-8, max_iter=50):
    """The label solver's majorization with every step a cold public ``sinkhorn``.

    Returns the plan matrix, the scaling iterations summed over all solves
    and the number of solves.
    """
    G = np.zeros_like(C)
    prev = None
    total = 0
    for outer in range(1, max_iter + 1):
        plan = tp.sinkhorn(C + G, p, q, lam)
        total += plan.iterations
        gamma = plan.matrix
        if prev is not None and np.abs(gamma - prev).max() <= tol:
            return gamma, total, outer
        prev = gamma
        for y in np.unique(labels):
            G[labels == y] = eta * 2 * gamma[labels == y].sum(axis=0)
    raise AssertionError("cold-start reference did not converge")


def brute_force_objective(C):
    n = C.shape[0]
    return min(
        sum(C[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    ) / n


class TestExactOt:
    def test_two_point_identity(self):
        plan = tp.exact_ot(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(plan.matrix, 0.5 * np.eye(2))

    def test_recovers_planted_permutation(self):
        # zero-cost entries along a known permutation; brute force confirms
        rng = np.random.default_rng(5)
        perm = np.array([2, 0, 3, 1])
        C = 1.0 + rng.random((4, 4))
        C[np.arange(4), perm] = 0.0
        plan = tp.exact_ot(C)
        expected = np.zeros((4, 4))
        expected[np.arange(4), perm] = 0.25
        np.testing.assert_array_equal(plan.matrix, expected)
        assert plan.objective(C) == pytest.approx(brute_force_objective(C))

    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(6)
        C = rng.random((6, 6))
        plan = tp.exact_ot(C)
        assert plan.objective(C) == pytest.approx(brute_force_objective(C), rel=1e-12)

    def test_optimal_against_all_permutation_plans(self):
        rng = np.random.default_rng(7)
        C = rng.random((5, 5))
        best = tp.exact_ot(C).objective(C)
        for p in itertools.permutations(range(5)):
            gamma = np.zeros((5, 5))
            gamma[np.arange(5), list(p)] = 0.2
            assert best <= np.sum(gamma * C) + 1e-12

    def test_rejects_nonuniform_marginals(self):
        C = np.zeros((2, 2))
        with pytest.raises(UnsupportedInstance):
            tp.exact_ot(C, p=[0.7, 0.3])

    def test_rejects_rectangular(self):
        with pytest.raises(UnsupportedInstance):
            tp.exact_ot(np.zeros((2, 3)))


class TestDiagonalMass:
    def test_exact_one_for_identity_permutation(self):
        for n in (3, 7, 20, 50):
            gamma = np.eye(n) / n
            assert tp.diagonal_mass(gamma) == 1.0

    def test_counts_matched_pairs(self):
        gamma = np.zeros((4, 4))
        gamma[0, 0] = gamma[1, 1] = gamma[2, 3] = gamma[3, 2] = 0.25
        assert tp.diagonal_mass(gamma) == pytest.approx(0.5)

    def test_zero_plan(self):
        assert tp.diagonal_mass(np.zeros((3, 3))) == 0.0


class TestSqEuclideanMatrix:
    def test_row_blocks_match_full_differencing(self, monkeypatch):
        rng = np.random.default_rng(28)
        A = rng.standard_normal((7, 3, 4))
        B = rng.standard_normal((5, 3, 4))
        B[2] = A[4]
        diff = A.reshape(7, 1, 12) - B.reshape(1, 5, 12)
        want = np.einsum("ijk,ijk->ij", diff, diff)
        # 1, 2 and 3 rows per block (7 rows: partial last blocks), then one block
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(tp, "PAIR_BLOCK_DOUBLES", rows * 5 * 12)
            got = tp.sq_euclidean_matrix(A, B)
            assert np.array_equal(got, want)
            assert got[4, 2] == 0.0
        monkeypatch.setattr(tp, "PAIR_BLOCK_DOUBLES", 1)
        D = tp.sq_euclidean_matrix(A, A)
        assert (np.diag(D) == 0.0).all() and np.array_equal(D, D.T)


class TestAdaptiveLambda:
    def test_all_ones(self):
        assert tp.adaptive_lambda(np.ones((3, 3))) == pytest.approx(200.0)

    def test_even_count_median(self):
        assert tp.adaptive_lambda(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(
            32.0
        )

    def test_scaling(self):
        rng = np.random.default_rng(8)
        C = rng.random((5, 5)) + 0.1
        lam = tp.adaptive_lambda(C)
        assert tp.adaptive_lambda(3.0 * C) == pytest.approx(lam / 9.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInput):
            tp.adaptive_lambda(np.zeros((2, 2)))


class TestSinkhorn:
    def test_constant_cost_gives_outer_product(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.25, 0.75])
        plan = tp.sinkhorn(np.full((3, 2), 4.0), p, q, lam=1.0)
        np.testing.assert_allclose(plan.matrix, np.outer(p, q), atol=1e-12)

    def test_sharp_two_point(self):
        plan = tp.sinkhorn(np.array([[0.0, 5.0], [5.0, 0.0]]), lam=50.0)
        assert np.abs(plan.matrix - 0.5 * np.eye(2)).max() <= 1e-3

    def test_tracks_exact_at_large_lambda(self):
        rng = np.random.default_rng(9)
        C = planted_cost(rng)
        lam = 200.0 / np.median(C)
        exact = tp.exact_ot(C)
        plan = tp.sinkhorn(C, lam=lam)
        assert plan.objective(C) <= 1.01 * exact.objective(C)

    def test_marginals_within_tolerance(self):
        rng = np.random.default_rng(10)
        C = rng.random((6, 9))
        p = rng.random(6) + 0.1
        p /= p.sum()
        q = rng.random(9) + 0.1
        q /= q.sum()
        plan = tp.sinkhorn(C, p, q, lam=20.0)
        row, col = plan.marginal_residuals()
        assert row <= 1e-6 and col <= 1e-6
        assert (plan.matrix >= 0).all()

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(11)
        C = rng.random((5, 5))
        a = tp.sinkhorn(C, lam=10.0).matrix
        b = tp.sinkhorn(C + 7.5, lam=10.0).matrix
        assert np.abs(a - b).max() <= 1e-8

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(12)
        C = rng.random((4, 6))
        p = tp.uniform_mass(4)
        q = rng.random(6) + 0.1
        q /= q.sum()
        a = tp.sinkhorn(C, p, q, lam=15.0).matrix
        b = tp.sinkhorn(C.T, q, p, lam=15.0).matrix
        assert np.abs(a - b.T).max() <= 1e-8

    def test_objective_monotone_in_lambda(self):
        # ladder spans the smooth regime and the numerically sharp extreme;
        # intermediate lambdas whose plans are almost-but-not-quite
        # permutations converge too slowly to test here
        rng = np.random.default_rng(13)
        C = planted_cost(rng, n=6)
        ladder = (0.5, 2.0, 8.0, 200.0 / np.median(C))
        objs = [tp.sinkhorn(C, lam=lam).objective(C) for lam in ladder]
        for lo, hi in zip(objs, objs[1:]):
            assert hi <= lo + 1e-9

    def test_lambda_validation(self):
        with pytest.raises(InvalidInput):
            tp.sinkhorn(np.ones((2, 2)), lam=0.0)

    def test_underflow_guard(self):
        C = np.array([[2000.0, 2000.0], [0.0, 0.0]])
        with pytest.raises(NumericalFailure):
            tp.sinkhorn(C, lam=1.0)

    def test_iteration_cap(self, monkeypatch):
        rng = np.random.default_rng(14)
        C = rng.random((8, 8))
        monkeypatch.setattr(tp, "SINKHORN_TOL", 1e-12)
        monkeypatch.setattr(tp, "SINKHORN_MAX_ITER", 3)
        with pytest.raises(ConvergenceFailure) as err:
            tp.sinkhorn(C, lam=500.0)
        assert err.value.last is not None
        assert err.value.iterations == 3

    def test_info_counts_scaling_iterations(self, monkeypatch):
        C = np.random.default_rng(19).random((6, 5))
        plan = tp.sinkhorn(C, lam=8.0)
        k = plan.iterations
        assert plan.outer_iterations == 1 and k > 1
        monkeypatch.setattr(tp, "SINKHORN_MAX_ITER", k)
        assert np.array_equal(tp.sinkhorn(C, lam=8.0).matrix, plan.matrix)
        monkeypatch.setattr(tp, "SINKHORN_MAX_ITER", k - 1)
        with pytest.raises(ConvergenceFailure):
            tp.sinkhorn(C, lam=8.0)

    def test_iterations_are_whole_check_blocks(self):
        rng = np.random.default_rng(20)
        for lam in (0.5, 8.0, 40.0):
            C = rng.random((7, 6))
            plan = tp.sinkhorn(C, lam=lam)
            assert plan.iterations > 0
            assert plan.iterations % tp.CHECK_EVERY == 0
        C, labels = class_structured_cost(21, n=12)
        plan = tp.sinkhorn_with_labels(C, labels=labels, lam=20.0 / np.median(C), eta=0.5)
        assert plan.outer_iterations > 1
        assert plan.iterations % tp.CHECK_EVERY == 0

    def test_marginals_off_raise_convergence_failure(self, monkeypatch):
        # a loose stopping test is met with the marginals still off: a solver
        # failure, carrying the plan, not an input error
        monkeypatch.setattr(tp, "SINKHORN_TOL", 1e-2)
        with pytest.raises(ConvergenceFailure, match="plan marginals off") as err:
            tp.sinkhorn(np.random.default_rng(3).random((12, 10)), lam=20.0)
        plan = err.value.last
        assert isinstance(plan, tp.TransportPlan)
        assert err.value.residual == max(plan.marginal_residuals()) > tp.MARGINAL_TOL
        assert err.value.iterations == plan.iterations > 0

    @staticmethod
    def per_iteration_sinkhorn(C, p, q, lam):
        """Scaling with the stopping test after every iteration."""
        K = np.exp(-lam * C)
        with np.errstate(divide="ignore"):
            Kt = K / p[:, None]
        u = np.full(len(p), 1.0 / len(p))
        for _ in range(tp.SINKHORN_MAX_ITER):
            u_new = 1.0 / (Kt @ (q / (K.T @ u)))
            done = np.abs(u_new - u).max() / u_new.max() <= tp.SINKHORN_TOL
            u = u_new
            if done:
                return u[:, None] * K * (q / (K.T @ u))[None, :]
        raise AssertionError("reference loop did not converge")

    def test_zero_marginal_entries(self):
        rng = np.random.default_rng(22)
        C = rng.random((5, 4))
        uniform_p, uniform_q = tp.uniform_mass(5), tp.uniform_mass(4)
        zero_p = np.array([0.3, 0.0, 0.2, 0.4, 0.1])
        zero_q = np.array([0.25, 0.5, 0.0, 0.25])
        # at this lambda both loops stop within the first block, so they
        # differ only in where the zero entries enter the scaling
        for p, q in ((zero_p, uniform_q), (uniform_p, zero_q)):
            plan = tp.sinkhorn(C, p, q, lam=2.0).matrix
            want = self.per_iteration_sinkhorn(C, p, q, 2.0)
            assert np.isfinite(plan).all()
            assert np.abs(plan - want).max() <= 1e-12
            assert (plan[p == 0] == 0).all() and (plan[:, q == 0] == 0).all()

    def test_zero_mass_on_both_sides(self):
        # a zero in both p and q: the plan is the solve on the supports of p
        # and q, padded with exact zero rows and columns
        rng = np.random.default_rng(23)
        cases = [(rng.random((3, 3)), [0.5, 0.5, 0.0], [0.0, 0.5, 0.5])]
        p, q = rng.random(6), rng.random(5)
        p[[1, 5]] = q[[0, 2]] = 0.0
        cases.append((rng.random((6, 5)), p / p.sum(), q / q.sum()))
        for C, p, q in cases:
            p, q = np.asarray(p), np.asarray(q)
            plan = tp.sinkhorn(C, p, q, lam=2.0)
            assert plan.iterations <= 3 * tp.CHECK_EVERY
            assert (plan.matrix[p == 0] == 0).all()
            assert (plan.matrix[:, q == 0] == 0).all()
            want = tp.sinkhorn(C[p > 0][:, q > 0], p[p > 0], q[q > 0], lam=2.0)
            assert np.abs(plan.matrix[np.ix_(p > 0, q > 0)] - want.matrix).max() <= 1e-9


class TestSinkhornWithLabels:
    # class 0 strongly prefers the first target column, class 1 is split;
    # lam kept moderate so the alternating loop contracts
    C0 = np.array([[0.0, 1.0], [0.0, 1.0], [0.4, 0.6], [1.0, 0.0]])
    labels = np.array([0, 0, 1, 1])

    def test_zero_eta_reduces_to_sinkhorn(self):
        rng = np.random.default_rng(15)
        for k in range(5):
            C = rng.random((5, 4))
            labels = rng.integers(0, 3, 5)
            a = tp.sinkhorn_with_labels(C, labels=labels, lam=8.0, eta=0.0).matrix
            b = tp.sinkhorn(C, lam=8.0).matrix
            assert np.array_equal(a, b)

    def test_zero_eta_is_one_solve(self):
        C = np.random.default_rng(17).random((5, 4))
        plan = tp.sinkhorn_with_labels(C, labels=[0, 1, 2, 0, 1], lam=8.0, eta=0.0)
        plain = tp.sinkhorn(C, lam=8.0)
        assert (plan.iterations, plan.outer_iterations) == (plain.iterations, 1)

    def test_warm_start_matches_cold_reference(self):
        rng = np.random.default_rng(18)
        for _ in range(6):
            n1, n2 = rng.integers(3, 9, size=2)
            C = rng.random((n1, n2))
            labels = rng.integers(0, 3, n1)
            p = rng.random(n1) + 0.2
            p /= p.sum()
            want, _, outer = cold_start_labels(C, labels, 5.0, 0.2, p=p)
            got = tp.sinkhorn_with_labels(C, p, labels=labels, lam=5.0, eta=0.2)
            assert np.abs(got.matrix - want).max() <= 1e-8
            assert got.outer_iterations == outer

    def test_warm_start_saves_scaling_iterations(self):
        # the plan layer's benchmark size: n = 48, 3 classes, auto lambda,
        # eta = 2 median(C)
        C, labels = class_structured_cost(3)
        lam = tp.adaptive_lambda(C)
        eta = 2.0 * float(np.median(C))
        want, cold, outer = cold_start_labels(C, labels, lam, eta)
        got = tp.sinkhorn_with_labels(C, labels=labels, lam=lam, eta=eta)
        assert np.abs(got.matrix - want).max() <= 1e-8
        assert got.outer_iterations == outer > 2
        assert got.iterations < cold / 2

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_loose_intermediate_solves_keep_the_plan(self, monkeypatch, seed):
        # LABEL_SOLVE_RATIO = 0 runs every solve at SINKHORN_TOL
        C, labels = class_structured_cost(seed)
        args = dict(labels=labels, lam=tp.adaptive_lambda(C), eta=2.0 * np.median(C))
        got = tp.sinkhorn_with_labels(C, **args)
        monkeypatch.setattr(tp, "LABEL_SOLVE_RATIO", 0.0)
        want = tp.sinkhorn_with_labels(C, **args)
        assert got.outer_iterations == want.outer_iterations > 2
        assert np.abs(got.matrix - want.matrix).max() <= 1e-10
        assert got.iterations <= 0.6 * want.iterations

    @staticmethod
    def solve_tolerances(monkeypatch, *args, **kwargs):
        tols = []
        scale = tp._scale

        def spy(K, p, q, u, tol):
            tols.append(tol)
            return scale(K, p, q, u, tol)

        monkeypatch.setattr(tp, "_scale", spy)
        plan = tp.sinkhorn_with_labels(*args, **kwargs)
        assert len(tols) == plan.outer_iterations
        return tols

    def test_solve_tolerance_schedule(self, monkeypatch):
        C, labels = class_structured_cost(3)
        tols = self.solve_tolerances(
            monkeypatch, C, labels=labels, lam=tp.adaptive_lambda(C),
            eta=2.0 * np.median(C),
        )
        assert tols[0] == tp.LABEL_SOLVE_RATIO**2
        assert min(tols) >= tp.SINKHORN_TOL
        assert tols[-1] == tp.SINKHORN_TOL
        assert len(set(tols)) > 2

    def test_zero_eta_solves_at_full_tolerance(self, monkeypatch):
        C = np.random.default_rng(17).random((5, 4))
        tols = self.solve_tolerances(monkeypatch, C, labels=[0, 1, 2, 0, 1], lam=8.0)
        assert tols == [tp.SINKHORN_TOL]

    @pytest.mark.parametrize(
        "tol, lam, eta", [(1e-2, 20.0, 0.0), (1e-5, 200.0, 0.01)],
        ids=["zero-eta", "penalized"],
    )
    def test_marginals_off_raise_convergence_failure(self, monkeypatch, tol, lam, eta):
        # lam and eta in units of the median cost; at the penalized setting
        # slow scaling meets the loosened test with its marginals off
        monkeypatch.setattr(tp, "SINKHORN_TOL", tol)
        C, labels = class_structured_cost(3, n=12)
        m = float(np.median(C))
        with pytest.raises(ConvergenceFailure, match="plan marginals off") as err:
            tp.sinkhorn_with_labels(C, labels=labels, lam=lam / m, eta=eta * m)
        plan = err.value.last
        assert err.value.residual == max(plan.marginal_residuals()) > tp.MARGINAL_TOL
        assert err.value.iterations == plan.iterations
        assert (plan.outer_iterations == 1) == (eta == 0)

    def test_penalty_strictly_decreases(self):
        base = tp.sinkhorn(self.C0, lam=1.5).matrix
        reg = tp.sinkhorn_with_labels(
            self.C0, labels=self.labels, lam=1.5, eta=1.0
        ).matrix
        p0 = tp.label_group_penalty(base, self.labels)
        p1 = tp.label_group_penalty(reg, self.labels)
        assert p1 < p0 - 1e-3

    def test_single_class_matches_plain_sinkhorn(self):
        rng = np.random.default_rng(16)
        C = rng.random((4, 4))
        plain = tp.sinkhorn(C, lam=5.0).matrix
        reg = tp.sinkhorn_with_labels(
            C, labels=np.zeros(4, dtype=int), lam=5.0, eta=0.8
        ).matrix
        assert np.abs(plain - reg).max() <= 1e-8

    def test_labels_required_and_sized(self):
        with pytest.raises(InvalidInput):
            tp.sinkhorn_with_labels(self.C0, lam=1.0, eta=0.0)
        with pytest.raises(InvalidInput):
            tp.sinkhorn_with_labels(self.C0, labels=[0, 1], lam=1.0, eta=0.0)
        with pytest.raises(InvalidInput):
            tp.sinkhorn_with_labels(
                self.C0, labels=self.labels, lam=1.0, eta=-0.5
            )

    def test_oscillation_raises_with_last_plan(self):
        # large lam*eta makes the alternating loop 2-cycle
        with pytest.raises(ConvergenceFailure) as err:
            tp.sinkhorn_with_labels(self.C0, labels=self.labels, lam=4.0, eta=1.0)
        assert isinstance(err.value.last, tp.TransportPlan)
        assert err.value.residual > 1e-8
        assert err.value.iterations == err.value.last.outer_iterations == 50
        assert err.value.last.iterations >= 50 * tp.CHECK_EVERY

    def test_penalty_value_direct(self):
        gamma = np.array([[0.3, 0.1], [0.1, 0.0], [0.0, 0.2], [0.1, 0.2]])
        got = tp.label_group_penalty(gamma, self.labels)
        want = (0.4**2 + 0.1**2) + (0.1**2 + 0.4**2)
        assert got == pytest.approx(want)

    def test_penalty_matches_per_class_loop(self):
        # arbitrary, unsorted label values; classes need not be contiguous
        rng = np.random.default_rng(24)
        labels = np.array([7, -1, 7, 3, -1, 7, 3, 3, 7])
        for _ in range(3):
            gamma = rng.random((9, 6))
            want = sum(
                (gamma[labels == y].sum(axis=0) ** 2).sum() for y in set(labels)
            )
            assert tp.label_group_penalty(gamma, labels) == pytest.approx(
                want, rel=1e-14
            )

    def test_zero_mass_on_both_sides(self):
        rng = np.random.default_rng(25)
        C = rng.random((6, 5))
        p = np.array([0.3, 0.0, 0.2, 0.1, 0.4, 0.0])
        q = np.array([0.0, 0.25, 0.0, 0.5, 0.25])
        plan = tp.sinkhorn_with_labels(C, p, q, labels=np.arange(6) % 2, lam=2.0, eta=0.1)
        assert plan.outer_iterations > 1
        assert (plan.matrix[p == 0] == 0).all()
        assert (plan.matrix[:, q == 0] == 0).all()


def reference_scale(K, p, q, u, tol):
    """The blocked scaling loop spelled with ``@`` and ``1.0 /``.

    A copy of ``transport._scale`` as it was first blocked, stopping at the
    caller's ``tol``; returns ``(u, iterations)``.
    """
    with np.errstate(divide="ignore"):
        Kt = K / p[:, None]
        KqT = K.T / q[:, None]
    if not (p.all() or q.all()):
        Kt[np.ix_(p == 0, q == 0)] = 0.0
        KqT[np.ix_(q == 0, p == 0)] = 0.0
    it = 0
    while it < tp.SINKHORN_MAX_ITER:
        for _ in range(tp.CHECK_EVERY - 1):
            u = 1.0 / (Kt @ (1.0 / (KqT @ u)))
        u_new = 1.0 / (Kt @ (1.0 / (KqT @ u)))
        delta = float(np.abs(u_new - u).max() / u_new.max())
        u = u_new
        it += tp.CHECK_EVERY
        if delta <= tol:
            return u, it
    raise AssertionError("reference loop did not converge")


def reference_coupling(K, q, u):
    v = q / (K.T @ u)
    return u[:, None] * K * v[None, :]


class TestScalingBitIdentity:
    """Both entropic solvers reproduce the ``@``/``1.0 /`` loop bit for bit."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(26)

        def mass(n, zeros=()):
            m = rng.random(n) + 0.1
            m[list(zeros)] = 0.0
            return m / m.sum()

        yield rng.random((8, 8)), mass(8), mass(8), 8.0  # square
        yield rng.random((7, 5)), mass(7), mass(5), 8.0  # rectangular
        yield rng.random((5, 9)), tp.uniform_mass(5), mass(9), 20.0
        yield rng.random((6, 5)), mass(6, [1]), mass(5), 4.0  # zero in p
        yield rng.random((6, 5)), mass(6), mass(5, [0, 3]), 4.0  # zero in q
        yield rng.random((6, 5)), mass(6, [1, 5]), mass(5, [2]), 4.0  # both

    def test_sinkhorn(self):
        for C, p, q, lam in self.instances():
            K = tp._gibbs_kernel(C, lam)
            u0 = np.full(len(p), 1.0 / len(p))
            u, iterations = reference_scale(K, p, q, u0, tp.SINKHORN_TOL)
            plan = tp.sinkhorn(C, p, q, lam)
            assert np.array_equal(plan.matrix, reference_coupling(K, q, u))
            assert plan.iterations == iterations > tp.CHECK_EVERY

    @staticmethod
    def both_loops(monkeypatch, *args, **kwargs):
        got = tp.sinkhorn_with_labels(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(tp, "_scale", reference_scale)
            m.setattr(tp, "_coupling", reference_coupling)
            want = tp.sinkhorn_with_labels(*args, **kwargs)
        return got, want

    def test_sinkhorn_with_labels(self, monkeypatch):
        rng = np.random.default_rng(27)
        cases = [
            (C, p, q, rng.integers(0, 3, len(p)), lam, 0.2)
            for C, p, q, lam in self.instances()
        ]
        # the plan layer's benchmark size: n = 48, 3 classes, auto lambda,
        # eta = 2 median(C)
        C, labels = class_structured_cost(3)
        cases.append((C, None, None, labels, tp.adaptive_lambda(C), 2.0 * np.median(C)))
        for C, p, q, labels, lam, eta in cases:
            got, want = self.both_loops(
                monkeypatch, C, p, q, labels=labels, lam=lam, eta=eta
            )
            assert np.array_equal(got.matrix, want.matrix)
            assert got.iterations == want.iterations
            assert got.outer_iterations == want.outer_iterations > 1


class TestPlanValidation:
    def test_negative_entries_rejected(self):
        gamma = np.array([[0.6, -0.1], [0.0, 0.5]])
        plan = tp.TransportPlan(gamma, tp.uniform_mass(2), tp.uniform_mass(2))
        with pytest.raises(InvalidInput):
            plan.validate()

    def test_exact_plan_carries_no_counts(self):
        plan = tp.exact_ot(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert plan.iterations is None and plan.outer_iterations is None

    def test_bad_marginals_rejected(self):
        gamma = np.full((2, 2), 0.3)
        plan = tp.TransportPlan(gamma, tp.uniform_mass(2), tp.uniform_mass(2))
        with pytest.raises(InvalidInput):
            plan.validate()

    def test_mass_vector_checks(self):
        with pytest.raises(InvalidInput):
            tp.check_mass([0.5, 0.4])
        with pytest.raises(InvalidInput):
            tp.check_mass([-0.2, 1.2])
        with pytest.raises(InvalidInput):
            tp.check_mass([0.5, 0.5], size=3)
        with pytest.raises(InvalidInput):
            tp.check_mass([np.nan, 1.0])

    def test_nonfinite_lambda_rejected(self):
        with pytest.raises(InvalidInput):
            tp.sinkhorn(np.ones((2, 2)), lam=np.inf)
        with pytest.raises(InvalidInput):
            tp.sinkhorn_with_labels(
                np.ones((2, 2)), labels=[0, 1], lam=1.0, eta=np.nan
            )

    def test_cost_matrix_validation(self):
        with pytest.raises(InvalidInput):
            tp.CostMatrix(np.array([[1.0, -2.0]]))
        with pytest.raises(InvalidInput):
            tp.CostMatrix(np.array([[np.inf]]))


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n1=st.integers(2, 7), n2=st.integers(2, 7))
def test_sinkhorn_plans_always_feasible(seed, n1, n2):
    rng = np.random.default_rng(seed)
    C = rng.random((n1, n2))
    p = rng.random(n1) + 0.2
    p /= p.sum()
    q = rng.random(n2) + 0.2
    q /= q.sum()
    plan = tp.sinkhorn(C, p, q, lam=5.0)
    assert (plan.matrix >= 0).all()
    row, col = plan.marginal_residuals()
    assert row <= 1e-6 and col <= 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 6))
def test_exact_ot_beats_every_permutation(seed, n):
    rng = np.random.default_rng(seed)
    C = rng.random((n, n))
    best = tp.exact_ot(C).objective(C)
    assert best <= brute_force_objective(C) + 1e-12