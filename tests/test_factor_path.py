"""The two factor paths of the shifted-solve service: a LAPACK band LU for
matrices that are dense inside their band and SuperLU for everything else.
The band path is checked against SuperLU factors of the same matrices."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import riccati_si.ilrsi
from riccati_si import (
    CareProblem,
    SolverBreakdown,
    ilrsi_solve,
    make_laplacian_problem,
    make_toeplitz_problem,
    penzl_shifts,
    random_stable_problem,
    rksm_solve,
)
from riccati_si.ilrsi import ShiftedSolver, _BandLU, sparse_lu

TOL = 1e-12


def rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def reference(problem, alpha, rhs, E=None):
    """(-A* + alpha E*)^{-1} rhs from a SuperLU factor."""
    Astar = problem.A.conj().T
    Estar = sp.identity(problem.n) if E is None else E.conj().T
    M = sp.csc_matrix(alpha * Estar - Astar, dtype=complex)
    return splu(M).solve(np.asarray(rhs, dtype=complex))


@pytest.fixture
def toeplitz():
    return make_toeplitz_problem(400)


@pytest.fixture
def rhs():
    return np.random.default_rng(0).standard_normal((400, 2))


class TestBandAgreesWithSuperLU:
    def test_real_shift(self, toeplitz, rhs):
        solver = ShiftedSolver(toeplitz)
        x = solver.solve(0.7, rhs)
        assert x.dtype == np.float64
        assert rel(x, reference(toeplitz, 0.7, rhs)) <= TOL

    def test_complex_shift_and_conjugate_reuse(self, toeplitz, rhs):
        solver = ShiftedSolver(toeplitz)
        a = 0.5 + 1.5j
        assert rel(solver.solve(a, rhs), reference(toeplitz, a, rhs)) <= TOL
        x = solver.solve(np.conj(a), rhs)
        assert list(solver.cache) == [a]
        assert rel(x, reference(toeplitz, np.conj(a), rhs)) <= TOL

    def test_complex_rhs_on_real_factor(self, toeplitz, rhs):
        solver = ShiftedSolver(toeplitz)
        z = rhs + 1j * rhs[:, ::-1]
        x = solver.solve(2.0, z)
        assert solver.cache[2.0]._lu.dtype == np.float64
        assert rel(x, reference(toeplitz, 2.0, z)) <= TOL

    @pytest.mark.parametrize("imag", [0.0, 0.3])
    @pytest.mark.parametrize("trans", ["N", "T", "H"])
    def test_trans(self, toeplitz, rhs, imag, trans):
        # the one-off factor of A that Penzl's shifts and the Hamiltonian
        # solves use; with a complex A, "T" and "H" differ
        A = sp.csc_matrix(toeplitz.A + imag * 1j * sp.identity(400))
        lu = sparse_lu(A)
        assert isinstance(lu, _BandLU)
        ref = splu(A).solve(rhs.astype(A.dtype), trans=trans)
        assert rel(lu.solve(rhs, trans=trans), ref) <= TOL

    def test_complex_rhs_on_real_factor_refused(self, toeplitz, rhs):
        # as SuperLU does, rather than dropping the imaginary part
        A = sp.csc_matrix(toeplitz.A)
        for lu in (sparse_lu(A), splu(A)):
            with pytest.raises(TypeError, match="Cannot cast"):
                lu.solve(1j * rhs)

    def test_stored_zero_outside_band(self, toeplitz, rhs):
        A = sp.coo_matrix(toeplitz.A)
        A = sp.csr_matrix((np.r_[A.data, 0.0],
                           (np.r_[A.row, 0], np.r_[A.col, 300])), shape=A.shape)
        assert A.nnz == toeplitz.A.nnz + 1
        problem = CareProblem(A=A, B=toeplitz.B, C=toeplitz.C,
                              check_stability=False)
        solver = ShiftedSolver(problem)
        assert solver.factor_path == ("band", 3, 1)
        assert rel(solver.solve(0.7, rhs), reference(toeplitz, 0.7, rhs)) \
            <= TOL

    def test_banded_pencil(self, toeplitz, rhs):
        # E has a second subdiagonal, so E* widens the band of A* (kl = 3,
        # ku = 1) to ku = 2
        n = toeplitz.n
        E = sp.identity(n) + sp.diags([0.2 * np.ones(n - 2)], [-2])
        problem = CareProblem(A=toeplitz.A, B=toeplitz.B, C=toeplitz.C, E=E,
                              check_stability=False)
        solver = ShiftedSolver(problem)
        assert solver.factor_path == ("band", 3, 2)
        for a in (0.7, 0.5 + 1.5j, 0.5 - 1.5j):
            assert rel(solver.solve(a, rhs), reference(problem, a, rhs, E)) \
                <= TOL


class TestDispatch:
    def test_toeplitz_takes_band_path(self):
        assert ShiftedSolver(make_toeplitz_problem(2000)).factor_path == \
            ("band", 3, 1)

    @pytest.mark.parametrize("m", [100, 200])
    def test_laplacian_takes_superlu(self, m):
        assert ShiftedSolver(make_laplacian_problem(m)).factor_path == \
            ("superlu", "MMD_AT_PLUS_A")

    @pytest.mark.parametrize("p, q, seed", [(1, 1, 0), (2, 3, 1), (3, 1, 2)])
    def test_random_triangular_takes_band(self, p, q, seed):
        # A* is upper triangular: its band, as wide as the matrix, is
        # stored in 1.99 times its nonzeros. A itself is lower triangular,
        # and room for pivoting doubles its band storage, so the one-off
        # factor of A stays on SuperLU
        problem = random_stable_problem(200, p, q, seed)
        assert ShiftedSolver(problem).factor_path == ("band", 0, 199)
        assert not isinstance(sparse_lu(problem.A), _BandLU)


def laplacian_3d(k):
    """Seven-point Laplacian on a k x k x k grid (negative definite)."""
    L = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(k, k))
    Ik = sp.identity(k)
    return (sp.kron(sp.kron(Ik, Ik), L) + sp.kron(sp.kron(Ik, L), Ik)
            + sp.kron(sp.kron(L, Ik), Ik)).tocsc()


class TestSuperLUSettings:
    def test_no_relaxed_supernodes_by_count(self):
        # SuperLU's default relaxed supernodes pad this 3-D pattern's
        # factor to 40,262 entries; relax=1 with 2-column panels stores
        # 24,000
        A = laplacian_3d(8)
        n = A.shape[0]
        problem = CareProblem(A=A, B=np.ones((n, 1)),
                              C=np.eye(1, n), check_stability=False)
        solver = ShiftedSolver(problem)
        assert solver.factor_path == ("superlu", "MMD_AT_PLUS_A")
        solver.solve(3.0, np.ones((n, 1)))
        M = sp.csc_matrix(3.0 * sp.identity(n) - A)
        want = splu(M, permc_spec="MMD_AT_PLUS_A", relax=1,
                    panel_size=2).nnz
        default = splu(M, permc_spec="MMD_AT_PLUS_A").nnz
        for lu in (solver.cache[3.0], sparse_lu(M)):
            assert lu.nnz == want
            assert lu.nnz < default


def force_superlu(monkeypatch):
    """Send every factorization to SuperLU, with the ordering a structurally
    nonsymmetric pattern such as Toeplitz gets."""
    monkeypatch.setattr(riccati_si.ilrsi, "factor_path",
                        lambda A, E=None: ("superlu", "COLAMD"))


class TestSameIterates:
    """Runs on the band path against the same runs with the SuperLU path
    forced: the solvers see the same shifts, poles and residuals."""

    def test_penzl_shifts(self, toeplitz, monkeypatch):
        band = [penzl_shifts(toeplitz, m=6, mode=mode).values
                for mode in ("on_A", "on_H")]
        force_superlu(monkeypatch)
        for values, mode in zip(band, ("on_A", "on_H")):
            ref = penzl_shifts(toeplitz, m=6, mode=mode).values
            assert len(values) == len(ref)
            assert rel(np.array(values), np.array(ref)) <= 1e-10

    def test_rksm_and_ilrsi(self, toeplitz, monkeypatch):
        # ten distinct fixed poles: adaptive poles amplify rounding
        # differences by a factor of 10 to 20 per pole on this problem, and
        # repeated ones raise resolvent powers, whichever path factors
        same_runs(monkeypatch, toeplitz,
                  [0.5, 1.0, 2.0 + 1.0j, 2.0 - 1.0j, 4.0, 8.0, 1.5 + 2.5j,
                   1.5 - 2.5j, 16.0, 0.25])

    @pytest.mark.parametrize("p, q, seed", [(1, 1, 0), (2, 3, 1), (3, 1, 2)])
    def test_random_triangular(self, monkeypatch, p, q, seed):
        # the dense upper triangular A* of the rksm sweep
        same_runs(monkeypatch, random_stable_problem(200, p, q, seed),
                  [0.5, 2.0, 1.0 + 3.0j, 1.0 - 3.0j, 6.0, 0.2])


def same_runs(monkeypatch, problem, poles):
    """rksm and ilrsi with ten poles of the list give the same statuses,
    dims, residuals and solutions on the problem's factor path and with
    SuperLU forced."""

    def solve_both():
        return [rksm_solve(problem, poles, tol=1e-30, max_iter=10),
                ilrsi_solve(problem, poles, tol=1e-30, max_iter=10)]

    runs = solve_both()
    force_superlu(monkeypatch)
    for (sol, hist), (ref_sol, ref_hist) in zip(runs, solve_both()):
        assert hist.status == ref_hist.status
        assert [(r.iteration, r.dim) for r in hist.records] == \
            [(r.iteration, r.dim) for r in ref_hist.records]
        assert max(abs(r.rel_residual - s.rel_residual) for r, s in
                   zip(hist.records, ref_hist.records)) <= 1e-12
        assert rel(sol.to_dense(), ref_sol.to_dense()) <= 1e-12


class TestSingularShift:
    @pytest.mark.parametrize("scale, alpha", [(1.0, 1.0),
                                              (1.0 + 1.0j, 1.0 - 1.0j)])
    def test_zero_pivot_raises_breakdown(self, scale, alpha):
        # -A* + alpha I is exactly zero for a diagonal A = scale I with
        # alpha = conj(scale)
        n = 20
        problem = CareProblem(A=scale * sp.identity(n), B=np.ones((n, 1)),
                              C=np.ones((1, n)), check_stability=False)
        solver = ShiftedSolver(problem)
        assert solver.factor_path == ("band", 0, 0)
        with pytest.raises(SolverBreakdown, match="singular") as info:
            solver.solve(alpha, np.ones((n, 1)))
        assert info.value.shift == alpha
        with pytest.raises(SolverBreakdown) as info:
            ilrsi_solve(problem, [alpha], tol=1e-10, max_iter=3)
        assert info.value.shift == alpha
        assert info.value.history.status == "breakdown"
