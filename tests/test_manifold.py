import itertools
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import (
    make_spd,
    make_spd_unit_floor,
    make_tangent,
    make_wide_spd,
    random_invertible,
    reference_distance,
    reference_frechet_mean,
    use_cpus,
)
from spdot import experiments
from spdot import manifold as mf
from spdot.adaptation import AdaptationConfig, adapt, barycentric_map
from spdot.errors import (
    ConvergenceFailure,
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
)

DIMS = st.integers(min_value=2, max_value=6)
SEEDS = st.integers(min_value=0, max_value=10_000)


def logm(P):
    """The package's matrix logarithm: tangent coordinates at the identity."""
    return mf.tangent_coordinates(np.asarray(P)[None], np.eye(len(P)))[0]


def sqrtm(P):
    """The package's matrix square root."""
    return mf._sqrt_invsqrt(P)[0]


class TestMatrixFunctions:
    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(logm(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(
            sqrtm(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_exp_log_round_trip(self):
        P = make_spd(5, 1, seed=7)[0]
        np.testing.assert_allclose(mf.expm(logm(P)), P, atol=1e-8)

    def test_invsqrt_inverts_sqrt(self):
        P = make_spd(4, 1, seed=9)[0]
        np.testing.assert_allclose(
            mf.invsqrtm(P) @ sqrtm(P), np.eye(4), atol=1e-10
        )

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            logm(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            sqrtm(np.diag([1.0, 0.0]))

    def test_exp_accepts_any_symmetric(self):
        A = np.diag([1.0, -30.0])
        np.testing.assert_allclose(mf.expm(A), np.diag(np.exp([1.0, -30.0])))

    def test_output_symmetrized(self):
        P = make_spd(6, 1, seed=13)[0]
        R = logm(P)
        assert np.array_equal(R, R.T)


class TestDistance:
    def test_self_distance_zero(self):
        P = make_spd(4, 1, seed=1)[0]
        assert mf.riemannian_distance(P, P) <= 1e-12

    def test_diagonal_closed_form(self):
        d = mf.riemannian_distance(np.eye(2), np.diag([np.e**2, np.e**2]))
        assert abs(d - np.sqrt(8.0)) <= 1e-12

    def test_congruence_invariance(self):
        P, Q = make_spd(3, 2, seed=21)
        A = random_invertible(3, seed=22)
        d0 = mf.riemannian_distance(P, Q)
        d1 = mf.riemannian_distance(A @ P @ A.T, A @ Q @ A.T)
        assert abs(d0 - d1) <= 1e-8 * d0

    def test_matches_log_frobenius_form(self):
        # independent route: scipy Schur-based sqrtm/logm
        P, Q = make_spd(4, 2, seed=23)
        d = mf.riemannian_distance(P, Q)
        assert abs(d - reference_distance(P, Q)) <= 1e-9 * d

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            mf.riemannian_distance(np.eye(2), np.eye(3))

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            mf.riemannian_distance(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize(
        "P, Q",
        [
            (make_spd(3, 4, seed=25), make_spd(3, 4, seed=26)),
            (make_spd(3, 1, seed=25), make_spd(3, 1, seed=26)),
            (make_spd(3, 1, seed=25)[0], make_spd(3, 4, seed=26)),
            (make_spd(3, 4, seed=25), make_spd(3, 1, seed=26)[0]),
            (np.ones((2, 3)), np.ones((2, 3))),
        ],
        ids=["stacks", "one_stacks", "matrix_stack", "stack_matrix", "not_square"],
    )
    def test_takes_only_two_matrices(self, P, Q):
        # batched eigvalsh would sum the paired squared distances of stacks
        with pytest.raises(InvalidInput, match=r"two \(d, d\) matrices") as err:
            mf.riemannian_distance(P, Q)
        assert type(err.value) is InvalidInput

    def test_squared_flag(self):
        # the distance has no squared= option; square the distance instead
        P, Q = make_spd(3, 2, seed=24)
        with pytest.raises(TypeError, match="squared"):
            mf.riemannian_distance(P, Q, squared=True)

    def test_distance_matrix_agrees_with_scalar(self):
        # the batched kernel against scipy's generalized eigvalsh, every pair
        for dim in (2, 3, 4, 16):
            A = make_spd(dim, 4, seed=25)
            B = make_spd(dim, 5, seed=26)
            D2 = mf.sq_distance_matrix(A, B)
            assert D2.shape == (4, 5)
            for i in range(4):
                for j in range(5):
                    assert D2[i, j] == pytest.approx(
                        mf.riemannian_distance(A[i], B[j]) ** 2, rel=1e-10
                    )

    def test_paired_distances(self):
        A = make_spd(4, 3, seed=27)
        B = make_spd(4, 3, seed=28)
        d2 = mf.paired_sq_distances(A, B)
        for i in range(3):
            assert d2[i] == pytest.approx(
                mf.riemannian_distance(A[i], B[i]) ** 2, rel=1e-9
            )
        assert np.array_equal(d2, np.diag(mf.sq_distance_matrix(A, B)))

    def test_distance_matrix_rejects_non_spd(self):
        good = make_spd(2, 3, seed=29)
        bad = good.copy()
        bad[1] = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            mf.sq_distance_matrix(bad, good)
        with pytest.raises(NotPositiveDefinite):
            mf.sq_distance_matrix(good, bad)
        with pytest.raises(InvalidInput):
            mf.sq_distance_matrix(good[0], good)
        with pytest.raises(NotPositiveDefinite):
            mf.sq_distance_matrix(bad)

    def test_self_distances_from_upper_triangle(self):
        for dim in (2, 4, 8):
            A = make_spd(dim, 7, seed=30)
            D2 = mf.sq_distance_matrix(A)
            full = mf.sq_distance_matrix(A, A)
            assert np.array_equal(D2, D2.T)
            assert (np.diag(D2) == 0.0).all()
            off = ~np.eye(7, dtype=bool)
            np.testing.assert_allclose(D2[off], full[off], rtol=1e-10)
        assert np.array_equal(mf.sq_distance_matrix(A[:1]), np.zeros((1, 1)))

    @staticmethod
    def per_row_sq_distances(A, B=None):
        """The kernel one source row at a time (upper triangle for self)."""
        self_distances = B is None
        W = mf.invsqrtm(A if self_distances else B)
        out = np.zeros((len(A), len(W)))
        for i, P in enumerate(A):
            cols = slice(i + 1, None) if self_distances else slice(None)
            w = np.linalg.eigvalsh(W[cols] @ P @ W[cols])
            out[i, cols] = np.sum(np.log(np.maximum(w, 1e-300)) ** 2, axis=-1)
        return out + out.T if self_distances else out

    def test_row_blocks_match_per_row_loop(self, monkeypatch):
        A = make_spd(3, 7, seed=31)
        B = make_spd(3, 5, seed=32)
        cross = self.per_row_sq_distances(A, B)
        upper = self.per_row_sq_distances(A)
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda M: solved.append(len(M)) or eigvalsh(M)
        )
        # 1, 2 and 3 rows per block (7 rows: partial last blocks), then one block
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", rows * 5 * 9)
            assert np.array_equal(mf.sq_distance_matrix(A, B), cross)
            monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", rows * 7 * 9)
            solved.clear()
            D2 = mf.sq_distance_matrix(A)
            assert np.array_equal(D2, upper)
            assert np.array_equal(D2, D2.T) and (np.diag(D2) == 0.0).all()
            # exactly the strict upper triangle, one nonempty solve per block
            assert sum(solved) == 7 * 6 // 2 and len(solved) == -(-6 // rows)


FORK_CHILD = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from spdot import manifold as mf

os.sched_getaffinity = lambda pid: {0, 1}  # pooled even on a one-CPU host
mf.PAIR_BLOCK_DOUBLES = 4 * 9  # several blocks
rng = np.random.default_rng(0)
G = rng.standard_normal((12, 3, 3))
P = G @ G.transpose(0, 2, 1) / 3 + 0.1 * np.eye(3)
want = mf.sq_distance_matrix(P[:6], P[6:])
assert mf._POOL[0] == os.getpid()
pid = os.fork()
if pid == 0:
    ok = np.array_equal(mf.sq_distance_matrix(P[:6], P[6:]), want)
    os._exit(0 if ok and mf._POOL[0] == os.getpid() else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print("exit", os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.01)
else:
    os.kill(pid, 9)
    print("hung")
"""

EACH_CHILD = """
import os, sys, threading, time
sys.path.insert(0, sys.argv[1])
from spdot import manifold as mf

os.sched_getaffinity = lambda pid: {0, 1, 2, 3}  # pooled even on a one-CPU host
"""

NESTED_CHILD = EACH_CHILD + """
inner = lambda j: mf._each(lambda k: time.sleep(0.01) or 10 * j + k, range(3))
print(mf._each(inner, range(4)))
"""

CONCURRENT_CHILD = EACH_CHILD + """
sys.setswitchinterval(1e-6)
calls, got = [], {}

def block(t, i):
    calls.append((t, i))
    sum(j for j in range(50))  # bytecode, so the threads switch often
    return t, i

users = [threading.Thread(target=lambda t=t: got.update({t: mf._each(block, [t] * 64, range(64))}))
         for t in range(4)]
for user in users:
    user.start()
for user in users:
    user.join()
want = {t: [(t, i) for i in range(64)] for t in range(4)}
# in order, and every block run exactly once
print(got == want and sorted(calls) == sorted(sum(want.values(), [])))
"""


class TestThreadPool:
    """``_each`` and ``sq_distance_matrix``'s row blocks on the per-process thread pool."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_same_bits_on_any_cpu_count(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        A = make_spd(3, 7, seed=31)
        B = make_spd(3, 5, seed=32)
        cross = TestDistance.per_row_sq_distances(A, B)
        upper = TestDistance.per_row_sq_distances(A)
        log_norms = mf._sq_log_norms
        for rows in (1, 2, 3, 7):
            # one block, or one CPU: the calling thread solves every block;
            # otherwise the first two blocks wait for each other, so two
            # threads must run them at once
            serial = cpus == 1 or rows == 7
            for args, want in (((A, B), cross), ((A,), upper)):
                threads, calls = set(), itertools.count()
                meet = threading.Barrier(2, timeout=10)

                def block(M):
                    threads.add(threading.get_ident())
                    if not serial and next(calls) < 2:
                        meet.wait()
                    return log_norms(M)

                monkeypatch.setattr(mf, "_sq_log_norms", block)
                monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", rows * len(args[-1]) * 9)
                assert np.array_equal(mf.sq_distance_matrix(*args), want)
                assert threading.get_ident() in threads
                assert len(threads) == (1 if serial else 2)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_block_raises(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        log_norms = mf._sq_log_norms

        def failing(M):
            # with one row per block, block k holds the 6 - k pairs (k, j > k)
            if len(M) == 6:
                return log_norms(M)
            if len(M) == 5:
                time.sleep(0.05)  # the first failing block fails last
            raise NumericalFailure(f"block of {len(M)} pairs")

        monkeypatch.setattr(mf, "_sq_log_norms", failing)
        monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", 7 * 9)
        with pytest.raises(NumericalFailure, match="^block of 5 pairs$"):
            mf.sq_distance_matrix(make_spd(3, 7, seed=31))

    def test_one_cpu_runs_every_block(self, monkeypatch):
        # the serial path is the pooled one: a failure stops no later block,
        # and the lowest-index exception is raised
        use_cpus(monkeypatch, 1)
        ran = []

        def block(k):
            ran.append(k)
            if k:
                raise NumericalFailure(f"block {k}")
            return k

        with pytest.raises(NumericalFailure, match="^block 1$"):
            mf._each(block, range(3))
        assert ran == [0, 1, 2]

    @staticmethod
    def run_child(script):
        """Standard output of ``script`` in a fresh interpreter; a hang fails."""
        src = str(Path(mf.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_forked_child_builds_its_own_pool(self):
        # a fresh interpreter: this one's threads must not be forked
        assert self.run_child(FORK_CHILD) == "exit 0"

    def test_nested_call_returns(self):
        # every pool thread runs an outer block that waits on inner blocks
        want = [[10 * j + k for k in range(3)] for j in range(4)]
        assert self.run_child(NESTED_CHILD) == str(want)

    def test_concurrent_callers_return(self):
        assert self.run_child(CONCURRENT_CHILD) == "True"


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
            monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", rows * 5 * 12)
            got = mf.sq_euclidean_matrix(A, B)
            assert np.array_equal(got, want)
            assert got[4, 2] == 0.0
        monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", 1)
        D = mf.sq_euclidean_matrix(A, A)
        assert (np.diag(D) == 0.0).all() and np.array_equal(D, D.T)


def test_one_budget_blocks_every_kernel(monkeypatch):
    """One patch of ``PAIR_BLOCK_DOUBLES`` re-blocks the geodesic cost, the
    Euclidean cost and the Karcher map alike."""
    A, B = make_spd(3, 7, seed=31), make_spd(3, 5, seed=32)
    W = np.full((7, 5), 0.2)  # every map row has support 5
    blocks = []
    log_norms, eigh, einsum = mf._sq_log_norms, mf._eigh, np.einsum
    monkeypatch.setattr(mf, "_sq_log_norms", lambda M: blocks.append("cost") or log_norms(M))
    monkeypatch.setattr(mf, "_eigh", lambda M, floor=None, op="": (
        blocks.append(op) or eigh(M, floor, op)))
    monkeypatch.setattr(np, "einsum", lambda sub, *ops: blocks.append(sub) or einsum(sub, *ops))
    # a block of 2 source rows has 2 * 5 pairs of 3 x 3 matrices
    monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", 2 * 5 * 9)
    mf.sq_distance_matrix(A, B)
    mf.sq_euclidean_matrix(A, B)
    mf._karcher_means(B, W)
    counts = [blocks.count(k) for k in ("cost", "ijk,ijk->ij", "frechet_mean")]
    assert counts == [4, 4, 4]  # 7 rows, 2 per block


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mf.sq_euclidean_matrix(np.zeros((2, 3)), np.zeros((2, 4))),
         "element sizes differ"),
        (lambda: mf.paired_sq_distances(make_spd(2, 3, seed=33), make_spd(2, 2, seed=34)),
         "shape mismatch"),
    ],
    ids=["sq_euclidean_matrix", "paired_sq_distances"],
)
def test_mismatched_stacks_rejected(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def test_eigensolver_failure_names_its_op(monkeypatch):
    # injected: numpy 2.4's eigh returns NaNs for a NaN matrix instead of raising
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalFailure, match="eigendecomposition failed in logm"):
        mf._eigh(np.full((2, 2), np.nan), op="logm")


def test_nan_eigenvalue_fails_the_floor():
    # eigh returns [nan, 1] here, and nan <= EPS_PD is False
    with pytest.raises(NotPositiveDefinite, match="x has smallest eigenvalue nan"):
        mf._eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]), spd="x", op="logm")


class TestGeodesic:
    def test_endpoints(self):
        P, Q = make_spd(3, 2, seed=31)
        np.testing.assert_allclose(mf.geodesic(P, Q, 0.0), P, atol=1e-10)
        np.testing.assert_allclose(mf.geodesic(P, Q, 1.0), Q, atol=1e-10)

    def test_commuting_midpoint(self):
        mid = mf.geodesic(np.eye(2), np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(mid, np.diag([2.0, 3.0]), atol=1e-12)

    def test_arc_length_proportionality(self):
        P, Q = make_spd(4, 2, seed=33)
        d = mf.riemannian_distance(P, Q)
        for t in (0.3, 0.77):
            assert mf.riemannian_distance(P, mf.geodesic(P, Q, t)) == pytest.approx(
                t * d, abs=1e-8
            )

    def test_parameter_range(self):
        P, Q = make_spd(2, 2, seed=34)
        with pytest.raises(InvalidInput):
            mf.geodesic(P, Q, -0.1)
        with pytest.raises(InvalidInput):
            mf.geodesic(P, Q, 1.1)


class TestExpLog:
    def test_exp_of_zero(self):
        P = make_spd(3, 1, seed=41)[0]
        np.testing.assert_allclose(mf.exp_map(P, np.zeros((3, 3))), P, atol=1e-12)

    def test_exp_at_identity(self):
        A = make_tangent(3, seed=42)
        np.testing.assert_allclose(mf.exp_map(np.eye(3), A), mf.expm(A), atol=1e-12)

    def test_log_of_base(self):
        P = make_spd(4, 1, seed=43)[0]
        np.testing.assert_allclose(mf.log_map(P, P), np.zeros((4, 4)), atol=1e-10)

    def test_log_diagonal_case(self):
        A = mf.log_map(np.eye(2), np.diag([np.e, np.e]))
        np.testing.assert_allclose(A, np.eye(2), atol=1e-12)

    def test_round_trip_log_exp(self):
        P, Q = make_spd(4, 2, seed=44)
        np.testing.assert_allclose(mf.exp_map(P, mf.log_map(P, Q)), Q, atol=1e-8)

    def test_round_trip_exp_log(self):
        P = make_spd(4, 1, seed=45)[0]
        A = make_tangent(4, seed=46, norm=3.0)
        np.testing.assert_allclose(mf.log_map(P, mf.exp_map(P, A)), A, atol=1e-8)

    def test_log_norm_is_distance(self):
        P, Q = make_spd(3, 2, seed=47)
        W = mf.invsqrtm(P)
        assert np.linalg.norm(W @ mf.log_map(P, Q) @ W) == pytest.approx(
            mf.riemannian_distance(P, Q), abs=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            mf.exp_map(np.eye(2), np.zeros((3, 3)))

    def test_log_rejects_non_symmetric_target(self):
        with pytest.raises(InvalidInput):
            mf.log_map(np.eye(2), np.array([[2.0, 0.3], [0.9, 1.0]]))


# positive eigenvalues, but not symmetric: eigh would read its lower triangle
NON_SYMMETRIC_BASE = np.array([[2.0, 0.3], [0.9, 1.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda P: mf.geodesic(P, np.eye(2), 0.5),
        lambda P: mf.exp_map(P, np.eye(2)),
        lambda P: mf.log_map(P, np.eye(2)),
        lambda P: mf.tangent_coordinates([np.eye(2)], P),
    ],
    ids=["geodesic", "exp_map", "log_map", "tangent_coordinates"],
)
def test_base_point_must_be_symmetric(call):
    with pytest.raises(InvalidInput):
        call(NON_SYMMETRIC_BASE)


class TestFrechetMean:
    def test_duplicate_points(self):
        P = make_spd(3, 1, seed=51)[0]
        np.testing.assert_allclose(
            mf.frechet_mean([P, P], [0.5, 0.5]), P, atol=1e-10
        )

    def test_commuting_geometric_mean(self):
        mean = mf.frechet_mean([np.diag([1.0, 1.0]), np.diag([4.0, 4.0])])
        np.testing.assert_allclose(mean, np.diag([2.0, 2.0]), atol=1e-9)

    def test_one_hot_returns_exact_input(self):
        pts = make_spd(3, 4, seed=52)
        mean = mf.frechet_mean(pts, [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(mean, pts[2])

    def test_singleton(self):
        pts = make_spd(2, 1, seed=53)
        assert np.array_equal(mf.frechet_mean(pts), pts[0])

    def test_first_order_condition(self):
        pts = make_spd(4, 5, seed=54)
        w = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        mean = mf.frechet_mean(pts, w)
        grad = np.einsum("i,iab->ab", w, mf.log_map(mean, pts))
        assert np.linalg.norm(grad) <= 1e-10

    def test_two_point_mean_on_geodesic(self):
        P, Q = make_spd(3, 2, seed=55)
        w2 = 0.3
        mean = mf.frechet_mean([P, Q], [1 - w2, w2])
        assert mf.riemannian_distance(mean, mf.geodesic(P, Q, w2)) <= 1e-7

    def test_matches_direct_minimizer(self):
        # independent oracle: derivative-free minimization of the objective
        pts = make_spd(3, 3, seed=56)
        w = np.array([0.2, 0.5, 0.3])
        oracle = reference_frechet_mean(pts, w)
        oracle = (oracle + oracle.T) / 2
        mean = mf.frechet_mean(pts, w)
        assert mf.riemannian_distance(mean, oracle) <= 1e-6

    def test_weight_validation(self):
        pts = make_spd(2, 2, seed=57)
        with pytest.raises(InvalidInput):
            mf.frechet_mean(pts, [0.5, 0.6])
        with pytest.raises(InvalidInput):
            mf.frechet_mean(pts, [-0.1, 1.1])
        with pytest.raises(InvalidInput):
            mf.frechet_mean(pts, [1.0])
        with pytest.raises(InvalidInput):
            mf.frechet_mean(make_spd(2, 3, seed=57), [np.nan, 0.5, 0.5])

    def test_rejects_bad_points(self):
        # every point is validated, also one with zero weight
        pts = make_spd(2, 3, seed=59)
        indefinite = pts.copy()
        indefinite[2] = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            mf.frechet_mean(indefinite, [0.5, 0.5, 0.0])
        skewed = pts.copy()
        skewed[0, 0, 1] += 0.1
        with pytest.raises(InvalidInput):
            mf.frechet_mean(skewed, [0.5, 0.5, 0.0])

    def test_nan_whitened_eigenvalue_names_row_and_iteration(self, monkeypatch):
        # NaN eigenvalues in the second whitened pass, after one Newton step:
        # the row fails the floor there, not the iteration budget
        pts = make_spd(3, 6, seed=70)
        eigh, passes = mf._eigh, []

        def nan_second_pass(M, spd=None, op="matrix function"):
            w, V = eigh(M, spd, op)
            if op == "logm":
                passes.append(op)
                if len(passes) == 2:
                    w = np.full_like(w, np.nan)
            return w, V

        monkeypatch.setattr(mf, "_eigh", nan_second_pass)
        with pytest.raises(NotPositiveDefinite,
                           match="row 0: whitened point eigenvalue nan .* at iteration 1 "):
            mf.frechet_mean(pts)
        assert len(passes) == 2

    def test_convergence_failure_carries_state(self, monkeypatch):
        pts = make_spd(3, 4, seed=58)
        monkeypatch.setattr(mf, "MEAN_MAX_ITER", 1)
        with pytest.raises(ConvergenceFailure) as err:
            mf.frechet_mean(pts)
        assert err.value.last is not None
        assert err.value.residual > 1e-10
        assert err.value.iterations == 1

    def test_hessian_matches_second_derivative(self):
        # <D, H[D]> against central differences of f along the geodesic
        # X^{1/2} exp(tD) X^{1/2}, with f through scipy's generalized eigvalsh
        pts = make_wide_spd(3, 5, seed=63, spread=1.5)
        w = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        S = scipy.linalg.sqrtm(make_spd(3, 1, seed=64)[0]).real
        Si = np.linalg.inv(S)
        lam, U = np.linalg.eigh(mf.sym(Si @ pts @ Si))
        hess = mf._karcher_hessian(U, np.log(lam), w)

        def f(t):
            Y = S @ scipy.linalg.expm(t * D) @ S
            Y = (Y + Y.T) / 2
            return 0.5 * sum(
                wi * mf.riemannian_distance(Y, P) ** 2
                for wi, P in zip(w, pts)
            )

        for seed in (65, 66, 67):
            D = make_tangent(3, seed=seed)
            h = 1e-3
            second = (f(h) - 2 * f(0.0) + f(-h)) / h**2
            assert np.vdot(D, hess(D)) == pytest.approx(second, rel=1e-6)

        # the Newton solve: H[D] = T to 1e-8, never longer than T
        T = make_tangent(3, seed=68)
        D = mf._newton_direction(hess, T)
        assert np.linalg.norm(hess(D) - T) <= 1e-8 * np.linalg.norm(T)
        assert np.linalg.norm(D) <= np.linalg.norm(T)

    def test_wide_spread_converges(self):
        # far-apart, ill-conditioned points: the unit-step fixed point
        # oscillates on this set and raises at its cap of 200 steps
        pts = make_wide_spd(4, 30, seed=0, spread=2.0)
        means, iterations, residuals, _ = mf._karcher_means(pts, np.full((1, 30), 1 / 30))
        mean = means[0]
        assert np.array_equal(mean, mf.frechet_mean(pts))
        assert residuals[0] <= 1e-10
        assert iterations[0] <= 8
        grad = np.mean(mf.log_map(mean, pts), axis=0)
        assert np.linalg.norm(grad) <= 1e-10

    def test_newton_step_count(self):
        # quadratic convergence: the unit-step fixed point needs 72 steps here
        pts = make_wide_spd(8, 30, seed=0, spread=1.0)
        _, iterations, _, _ = mf._karcher_means(pts, np.full((1, 30), 1 / 30))
        assert iterations[0] <= 8


def per_row_karcher(points, weights, tol=1e-10, max_iter=200):
    """Reference Newton iteration for one weight row.

    Whitens with the symmetric square root of each iterate, recomputed by
    eigendecomposition at every step, and runs conjugate gradients on the
    unbatched Hessian with ``vdot`` inner products.  Returns ``(mean,
    iterations, residual)``.
    """
    active = np.flatnonzero(weights > 0)
    if active.size == 1:
        return points[active[0]].copy(), 0, 0.0
    pts, w = points[active], weights[active]
    mean = mf.sym(np.einsum("i,iab->ab", w, pts))
    for iteration in range(max_iter):
        S, Si = mf._sqrt_invsqrt(mean)
        lam, U = np.linalg.eigh(mf.sym(Si @ pts @ Si))
        L = np.log(lam)
        logs = (U * L[:, None, :]) @ np.swapaxes(U, -1, -2)
        T = mf.sym(np.einsum("i,iab->ab", w, logs))
        residual = float(np.linalg.norm(mf.sym(S @ T @ S)))
        if residual <= tol:
            return mean, iteration, residual
        hess = mf._karcher_hessian(U, L, w)
        D, r = np.zeros_like(T), T.copy()
        p, rr = r.copy(), np.vdot(r, r)
        stop = 1e-16 * rr
        for _ in range(T.shape[0] * (T.shape[0] + 1) // 2):
            if rr <= stop:
                break
            Hp = hess(p)
            alpha = rr / np.vdot(p, Hp)
            D += alpha * p
            r -= alpha * Hp
            rr, rr_old = np.vdot(r, r), rr
            p = r + (rr / rr_old) * p
        e, Q = np.linalg.eigh(mf.sym(D))
        mean = mf.sym(S @ mf.sym((Q * np.exp(e)[None, :]) @ Q.T) @ S)
    raise ConvergenceFailure("per-row reference did not converge", last=mean)


def scipy_karcher_residual(mean, points, weights):
    """``||M^1/2 (sum_j w_j logm(M^-1/2 P_j M^-1/2)) M^1/2||_F`` through scipy."""
    root = np.real(scipy.linalg.sqrtm(mean))
    inv_root = np.linalg.inv(root)
    grad = sum(
        w * np.real(scipy.linalg.logm(inv_root @ P @ inv_root))
        for w, P in zip(weights, points)
        if w > 0
    )
    return np.linalg.norm(root @ grad @ root)


def mixed_weights(n, seed):
    """Rows: one-hot, two- and three-point supports, and dense."""
    rng = np.random.default_rng(seed)
    W = np.zeros((6, n))
    W[0, 3] = 1.0
    W[1, [1, 5]] = rng.random(2)
    W[2] = rng.random(n)
    W[3, [0, 2, 6]] = rng.random(3)
    W[4, n - 1] = 1.0
    W[5, ::2] = rng.random(len(range(0, n, 2)))
    return W / W.sum(axis=1, keepdims=True)


class TestKarcherMeans:
    def check_against_reference(self, pts, W, means, iterations, residuals):
        for i, w in enumerate(W):
            ref, ref_iterations, _ = per_row_karcher(pts, w)
            assert iterations[i] == ref_iterations
            assert residuals[i] <= 1e-10
            if ref_iterations == 0:
                assert np.array_equal(means[i], ref)
            else:
                assert mf.riemannian_distance(means[i], ref) <= 1e-12
                assert scipy_karcher_residual(means[i], pts, w) <= 1e-8

    def test_mixed_rows_match_per_row_reference(self):
        pts = make_wide_spd(4, 8, seed=70, spread=1.0)
        W = mixed_weights(8, seed=71)
        means, iterations, residuals, _ = mf._karcher_means(pts, W)
        self.check_against_reference(pts, W, means, iterations, residuals)
        assert (iterations[[0, 4]] == 0).all() and (residuals[[0, 4]] == 0.0).all()
        assert (iterations[[1, 2, 3, 5]] > 0).all()

    def test_zero_weight_points_add_nothing(self):
        # a far, ill-conditioned point with zero weight everywhere: it pads
        # the short rows but must not move any mean
        pts = make_wide_spd(3, 6, seed=72, spread=0.5)
        far = np.concatenate([pts, [np.diag([1e6, 1.0, 1e-6])]])
        W = np.zeros((3, 7))
        W[0, :6] = 1.0 / 6
        W[1, [2, 4]] = [0.25, 0.75]
        W[2, [0, 1, 5]] = [0.2, 0.3, 0.5]
        got = mf._karcher_means(far, W)
        want = mf._karcher_means(pts, W[:, :6])
        assert np.array_equal(got[1], want[1])
        assert np.abs(got[0] - want[0]).max() <= 1e-13 * np.abs(want[0]).max()

    def test_row_blocks_agree(self, monkeypatch):
        pts = make_wide_spd(4, 8, seed=73, spread=1.0)
        dense = np.random.default_rng(75).random((3, 8))
        W = np.concatenate([mixed_weights(8, seed=74), dense / dense.sum(axis=1)[:, None]])
        full = [2, 6, 7, 8]  # rows with positive weight on every point
        use_cpus(monkeypatch, 1)
        one = mf._karcher_means(pts, W)
        # 8 * 16 doubles per row: one row, then two and three rows per block
        for cap in (1, 2 * 8 * 16, 3 * 8 * 16):
            monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", cap)
            use_cpus(monkeypatch, 1)
            serial = mf._karcher_means(pts, W)
            means, iterations, residuals, _ = serial
            # the blocks on two threads: the same bits
            use_cpus(monkeypatch, 2)
            pooled = mf._karcher_means(pts, W)
            for got, want in zip(pooled, serial, strict=True):
                assert np.array_equal(got, want)
            assert np.array_equal(iterations, one[1])
            # a full row is never padded, so no partition moves its bits
            assert np.array_equal(means[full], one[0][full])
            assert np.abs(means - one[0]).max() <= 1e-13 * np.abs(one[0]).max()
            self.check_against_reference(pts, W, means, iterations, residuals)

    def test_log_floor_only_on_positive_weights(self):
        # point 0 has an eigenvalue 1.5e-10 (valid); whitened by the means of
        # the large points 2 and 3 it falls below EPS_PD
        pts = np.stack([
            np.diag([1.5e-10, 1.0]),
            np.diag([4.0, 2.0]),
            np.diag([20.0, 30.0]),
            np.array([[25.0, 5.0], [5.0, 20.0]]),
        ])
        mf.check_spd(pts)
        W = np.array([
            [0.0, 0.2, 0.3, 0.5],  # support 3 sets the padded width
            [0.0, 0.0, 0.4, 0.6],  # padded with point 0, weight 0
            [0.5, 0.0, 0.0, 0.5],  # point 0 carries weight
        ])
        # row 1's padding entry, whitened by its starting mean, is below the floor
        start = 0.4 * pts[2] + 0.6 * pts[3]
        assert np.linalg.eigvals(pts[0] @ np.linalg.inv(start)).real.min() <= mf.EPS_PD
        means, iterations, residuals, _ = mf._karcher_means(pts, W[:2])
        self.check_against_reference(pts, W[:2], means, iterations, residuals)
        with pytest.raises(NotPositiveDefinite, match="row 2: .* at iteration 0"):
            mf._karcher_means(pts, W)

    def test_failure_names_lowest_row(self, monkeypatch):
        pts = make_spd(3, 4, seed=58)
        W = np.array([[0.0, 1.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [0.25] * 4])
        monkeypatch.setattr(mf, "MEAN_MAX_ITER", 1)
        # rows 1 and 2 fail in one block, then in one block each, serially
        # and on two threads
        for cap, cpus in ((mf.PAIR_BLOCK_DOUBLES, 1), (1, 1), (1, 2)):
            monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", cap)
            use_cpus(monkeypatch, cpus)
            with pytest.raises(ConvergenceFailure, match="row 1") as err:
                mf._karcher_means(pts, W)
        with pytest.raises(ConvergenceFailure) as single:
            mf.frechet_mean(pts, W[1])
        assert err.value.iterations == 1
        assert err.value.residual == pytest.approx(single.value.residual, rel=1e-12)
        assert mf.riemannian_distance(err.value.last, single.value.last) <= 1e-12
        assert f"{err.value.residual:.3e}" in str(err.value)

    def test_first_failing_block_raises(self, monkeypatch):
        # the start means of rows 0 and 1 have eigenvalues -1 and -2; with
        # one row per block, block 0 waits until block 1 has failed
        use_cpus(monkeypatch, 2)
        pts = np.stack([np.diag([-1.0, 1.0])] * 2 + [np.diag([-2.0, 1.0])] * 2)
        W = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        monkeypatch.setattr(mf, "PAIR_BLOCK_DOUBLES", 1)
        later_failed, waited = threading.Event(), []
        eigh = mf._eigh

        def start_mean(M, floor=None, op=""):
            if M[0, 0, 0] == -1.0:
                waited.append(later_failed.wait(timeout=10))
            try:
                return eigh(M, floor, op)
            except NotPositiveDefinite:
                later_failed.set()
                raise

        monkeypatch.setattr(mf, "_eigh", start_mean)
        with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue -1.000e[+]00 <="):
            mf._karcher_means(pts, W)
        assert waited == [True]


def whitened_residuals(means, points, W):
    """``||M^1/2 T M^1/2||_F`` at each row's mean ``M``: the whitened pass
    that a certified row skips, through symmetric square roots instead of
    the core's frame."""
    lam, V = np.linalg.eigh(means)
    S = (V * np.sqrt(lam)[:, None, :]) @ np.swapaxes(V, -1, -2)
    Si = (V / np.sqrt(lam)[:, None, :]) @ np.swapaxes(V, -1, -2)
    out = []
    for i, w in enumerate(W):
        keep = w > 0
        lam, U = np.linalg.eigh(mf.sym(Si[i] @ points[keep] @ Si[i]))
        logs = (U * np.log(lam)[:, None, :]) @ np.swapaxes(U, -1, -2)
        T = np.einsum("k,kab->ab", w[keep], logs)
        out.append(np.linalg.norm(mf.sym(S[i] @ T @ S[i])))
    return np.array(out)


def kde_chain(n, channels, seed):
    """The README chain ``cosine -> covariance x2 -> adapt --mass kde``."""
    xs, zs = experiments.cosine_trials(n=n, channels=channels, seed=seed)
    (src, _), (tgt, _) = experiments.covariances(xs), experiments.covariances(zs)
    return src, tgt, AdaptationConfig(mass="kde")


def spd_pair(dim, mass):
    """Two sets of 100 random SPD matrices and the config with ``mass``."""
    return (make_spd(dim, 100, seed=dim, scale=0.5), make_spd(dim, 100, seed=dim + 1, scale=0.5),
            AdaptationConfig(mass=mass))


CERTIFIED_INSTANCES = [
    pytest.param(lambda: kde_chain(48, 8, seed=7), id="chain-n48-d8-kde"),
    pytest.param(lambda: spd_pair(16, "kde"), id="n100-d16-kde"),
    pytest.param(lambda: spd_pair(4, "uniform"), id="n100-d4-uniform"),
]


class TestCertifiedStep:
    def test_kernel_facts(self):
        # the proof's h(x) = (x/2) coth(x/2) increases on x >= 0, and
        # g(y) = h(sqrt y) is concave with slope at most 1/12
        x = np.linspace(0.0, 60.0, 6001)
        h = mf._coth_kernel(x)
        assert h[0] == 1.0 and (np.diff(h) > 0).all()
        y = np.linspace(0.0, 900.0, 90001)
        slope = np.diff(mf._coth_kernel(np.sqrt(y))) / np.diff(y)
        assert (slope <= 1 / 12).all() and slope[0] == pytest.approx(1 / 12, rel=1e-3)
        assert (np.diff(slope) <= 1e-12).all()

    @pytest.mark.parametrize("instance", CERTIFIED_INSTANCES)
    def test_bound_holds_on_every_row(self, instance):
        src, tgt, config = instance()
        res = adapt(src, tgt, config=config)
        info = res.diagnostics["map"]
        W = res.plan.matrix / res.plan.matrix.sum(axis=1, keepdims=True)
        measured = whitened_residuals(res.adapted_source, tgt, W)
        assert (measured <= np.array(info["residuals"]) + 1e-12).all()
        assert 0 < info["certified_rows"] <= len(src)

    def test_certified_rows_skip_the_confirming_pass(self, monkeypatch):
        src, tgt, config = kde_chain(48, 8, seed=7)
        plan = adapt(src, tgt, config=config).plan
        n, k = plan.matrix.shape
        assert (plan.matrix > 0).all()  # every row is dense
        shapes, eigh = [], mf._eigh
        monkeypatch.setattr(mf, "_eigh", lambda M, spd=None, op="": (
            shapes.append((op, M.shape[:-2])) or eigh(M, spd, op)))
        adapted, info = barycentric_map(src, tgt, plan)
        iterations, certified = np.array(info["iterations"]), info["certified_rows"]
        # one whitened pass per step, plus one that confirms each uncertified stop
        passes = sum(shape[0] for op, shape in shapes if op == "logm")
        assert passes == iterations.sum() + n - certified
        # start points, steps and k targets per pass; a loop that confirms
        # every stop eigensolves k more matrices per certified row
        mats = sum(np.prod(shape) for _, shape in shapes)
        confirming_loop = n + iterations.sum() + k * (iterations.sum() + n)
        assert mats == confirming_loop - k * certified <= 0.8 * confirming_loop
        assert (iterations <= 3).all()
        # the same means and step counts as that loop
        for i, row in enumerate(plan.matrix):
            ref, ref_iterations, _ = per_row_karcher(tgt, row / row.sum())
            assert iterations[i] == ref_iterations
            assert mf.riemannian_distance(adapted[i], ref) <= 1e-12


class TestTangentCoordinates:
    def test_zero_at_base(self):
        base = make_spd(3, 1, seed=61)[0]
        np.testing.assert_allclose(
            mf.tangent_coordinates([base], base)[0], np.zeros((3, 3)), atol=1e-10
        )

    def test_norm_equals_distance(self):
        pts = make_spd(4, 6, seed=62)
        base = mf.frechet_mean(pts)
        coords = mf.tangent_coordinates(pts, base)
        for i in range(6):
            d = mf.riemannian_distance(base, pts[i])
            assert abs(np.linalg.norm(coords[i]) - d) <= 1e-9 * max(1.0, d)

    def test_local_distance_approximation(self):
        # coordinates of points within 0.1 of the base approximate their
        # pairwise distances within 5% relative
        base = make_spd(3, 1, seed=63)[0]
        W = mf.invsqrtm(base)
        tangents = []
        for k in range(4):
            A = make_tangent(3, seed=64 + k)
            tangents.append(A * (0.1 / np.linalg.norm(W @ A @ W)))
        pts = mf.exp_map(base, np.stack(tangents))
        for p in pts:
            assert mf.riemannian_distance(base, p) <= 0.1 + 1e-12
        coords = mf.tangent_coordinates(pts, base)
        for i in range(4):
            for j in range(i + 1, 4):
                d = mf.riemannian_distance(pts[i], pts[j])
                approx = np.linalg.norm(coords[i] - coords[j])
                assert abs(approx - d) <= 0.05 * d


@settings(max_examples=40, deadline=None)
@given(dim=DIMS, seed=SEEDS)
def test_congruence_and_inversion_invariance(dim, seed):
    P, Q = make_spd(dim, 2, seed=seed)
    A = random_invertible(dim, seed=seed + 1)
    d = mf.riemannian_distance(P, Q)
    assert abs(mf.riemannian_distance(A @ P @ A.T, A @ Q @ A.T) - d) <= 1e-8 * d
    Pinv = mf.sym(np.linalg.inv(P))
    Qinv = mf.sym(np.linalg.inv(Q))
    assert abs(mf.riemannian_distance(Pinv, Qinv) - d) <= 1e-8 * d


@settings(max_examples=40, deadline=None)
@given(dim=DIMS, seed=SEEDS)
def test_symmetry_and_identity(dim, seed):
    P, Q = make_spd(dim, 2, seed=seed)
    assert mf.riemannian_distance(P, Q) == pytest.approx(
        mf.riemannian_distance(Q, P), rel=1e-10
    )
    assert mf.riemannian_distance(P, P) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(dim=DIMS, seed=SEEDS)
def test_triangle_inequality(dim, seed):
    P, Q, R = make_spd(dim, 3, seed=seed)
    assert mf.riemannian_distance(P, R) <= (
        mf.riemannian_distance(P, Q) + mf.riemannian_distance(Q, R) + 1e-8
    )


@settings(max_examples=40, deadline=None)
@given(dim=DIMS, seed=SEEDS, norm=st.floats(min_value=0.1, max_value=5.0))
def test_exp_log_round_trips(dim, seed, norm):
    P = make_spd_unit_floor(dim, 1, seed=seed)[0]
    A = make_tangent(dim, seed=seed + 1, norm=norm)
    np.testing.assert_allclose(mf.log_map(P, mf.exp_map(P, A)), A, atol=1e-8)
    Q = make_spd_unit_floor(dim, 1, seed=seed + 2)[0]
    np.testing.assert_allclose(mf.exp_map(P, mf.log_map(P, Q)), Q, atol=1e-8)
