import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_si import (
    CSV_HEADER,
    CareProblem,
    LowRankSolution,
    SolverBreakdown,
    care_residual,
    dense_subspace_iteration,
    ilrsi_init,
    ilrsi_solve,
    ilrsi_step,
    make_laplacian_problem,
    make_toeplitz_problem,
    penzl_shifts,
    random_stable_problem,
    residual_norm,
)
from riccati_si.ilrsi import _BasisQR
from oracles import (
    adi_lyapunov_dense,
    dense_riccati_residual,
    lrsi_reference_step,
    scalar_problem,
)


class TestScalarChain:
    """Hand-computed trace for A=-1, B=1, C=sqrt(3), shifts 2 then 3."""

    def test_first_step(self):
        st1 = ilrsi_init(scalar_problem(), 2.0)
        assert st1.V.ravel()[0] == pytest.approx(-4.0 * np.sqrt(3.0) / 3.0,
                                                 abs=1e-14)
        assert st1.T.ravel()[0] == pytest.approx(16.0 / 3.0, abs=1e-13)
        assert st1.solution.to_dense().ravel()[0] == pytest.approx(1.0,
                                                                   abs=1e-13)

    def test_second_step(self):
        st1 = ilrsi_init(scalar_problem(), 2.0)
        st2 = ilrsi_step(st1, 3.0)
        # X_1 = 1 is exact, so R_1 = 0, v_2 = 0 and T_2 = diag(T_1, 2 a_2)
        expect = np.diag([16.0 / 3.0, 6.0])
        assert np.allclose(st2.T, expect, atol=1e-12)
        assert st2.solution.to_dense().ravel()[0] == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_residual_exact_at_solution(self):
        st1 = ilrsi_init(scalar_problem(), 2.0)
        assert residual_norm(scalar_problem(), st1.solution,
                             st1.tracker) <= 1e-12


class TestOracleEquivalence:
    def test_matches_dense_iteration(self):
        p = random_stable_problem(30, 1, 1, seed=7)
        vals = list(penzl_shifts(p, m=6).values)
        state = None
        for k in range(1, 9):
            a = vals[(k - 1) % len(vals)]
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            traj = dense_subspace_iteration(
                p, [vals[i % len(vals)] for i in range(k)])
            err = np.linalg.norm(state.solution.to_dense() - traj[-1].X)
            assert err <= 1e-8 * max(np.linalg.norm(traj[-1].X), 1e-300)

    def test_lyapunov_degeneration_vs_adi(self):
        # B = 0 turns the equation into a Lyapunov equation; iterates must
        # reproduce the classical ADI sweep exactly, complex shifts included
        base = random_stable_problem(15, 1, 1, seed=4)
        p = CareProblem(A=base.A, B=np.zeros((15, 1)), C=base.C,
                        check_stability=False)
        sh = [1.0, 2.0 + 0.7j, 2.0 - 0.7j, 0.5, 3.3]
        oracle = adi_lyapunov_dense(base.A.toarray(),
                                    base.C.conj().T @ base.C, sh)
        state = None
        for k, a in enumerate(sh):
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            X = state.solution.to_dense()
            assert np.linalg.norm(X - oracle[k]) <= 1e-10 * np.linalg.norm(
                oracle[k])

    def test_matches_reference_recursion(self):
        p = random_stable_problem(25, 1, 1, seed=7)
        vals = list(penzl_shifts(p, m=4).values)
        U = np.zeros((25, 0))
        T = np.zeros((0, 0))
        state = None
        for i in range(5):
            a = vals[i % len(vals)]
            U, T = lrsi_reference_step(U, T, p, a)
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        Xr = U @ np.linalg.solve(T, U.conj().T)
        Xi = state.solution.to_dense()
        assert np.linalg.norm(Xr - Xi) <= 1e-9 * np.linalg.norm(Xi)


class TestStructure:
    def test_hermitian_psd_monotone(self):
        p = random_stable_problem(20, 1, 1, seed=1)
        vals = list(penzl_shifts(p, m=5).values)
        state = None
        prev = np.zeros((20, 20))
        for k in range(6):
            a = vals[k % len(vals)]
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            X = state.solution.to_dense()
            nX = np.linalg.norm(X)
            assert np.linalg.norm(X - X.conj().T) <= 1e-10 * nX
            assert np.linalg.eigvalsh(X).min() >= -1e-10 * nX
            assert np.linalg.eigvalsh(X - prev).min() >= -1e-10 * nX
            prev = X

    def test_real_iterates_for_conjugate_closed_shifts(self):
        p = random_stable_problem(12, 1, 1, seed=9)
        state = ilrsi_init(p, 1.0 + 0.5j)
        state = ilrsi_step(state, 1.0 - 0.5j)
        X = state.solution.to_dense()
        assert np.isrealobj(X)

    def test_basis_grows_by_p_columns(self):
        p = random_stable_problem(18, 2, 1, seed=3)
        state = ilrsi_init(p, 1.0)
        assert state.V.shape == (18, 2)
        state = ilrsi_step(state, 2.0)
        assert state.V.shape == (18, 4)
        assert state.T.shape == (4, 4)


class TestResidualNorm:
    def test_matches_dense_assembly(self):
        p = random_stable_problem(30, 1, 1, seed=7)
        vals = list(penzl_shifts(p, m=6).values)
        state = None
        for i in range(6):
            a = vals[i % len(vals)]
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        rn = residual_norm(p, state.solution, state.tracker)
        ref = np.linalg.norm(dense_riccati_residual(p,
                                                    state.solution.to_dense()))
        assert abs(rn - ref) <= 1e-10 * ref
        # the generic path (QR sandwich without the factor) agrees
        rn2 = residual_norm(p, state.solution, None)
        assert abs(rn2 - ref) <= 1e-10 * ref

    def test_generalized_E(self):
        rng = np.random.default_rng(5)
        n = 40
        base = random_stable_problem(n, 1, 1, seed=21)
        E = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        p = CareProblem(A=base.A, B=base.B, C=base.C, E=sp.csr_matrix(E),
                        check_stability=False)
        state = None
        for a in (1.0, 3.0, 0.5, 2.2):
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        rn = residual_norm(p, state.solution, state.tracker)
        ref = np.linalg.norm(dense_riccati_residual(p,
                                                    state.solution.to_dense()))
        assert abs(rn - ref) <= 1e-10 * ref

    def test_factor_reproduces_residual_matrix(self):
        # p = 2, q = 3, E != I and a conjugate shift pair: R_k R_k* is the
        # whole residual matrix at every step, not only its norm
        rng = np.random.default_rng(8)
        n = 30
        base = random_stable_problem(n, 2, 3, seed=13)
        E = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        p = CareProblem(A=base.A, B=base.B, C=base.C, E=sp.csr_matrix(E),
                        check_stability=False)
        state = None
        for a in (1.5, 0.8 + 0.6j, 0.8 - 0.6j, 2.5, 0.4):
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            R = state.tracker
            ref = dense_riccati_residual(p, state.solution.to_dense())
            assert np.linalg.norm(R @ R.conj().T - ref) <= \
                1e-10 * np.linalg.norm(ref)
        assert np.isrealobj(state.solution.to_dense())

    def test_factor_shape_checked(self):
        p = random_stable_problem(10, 2, 1, seed=0)
        state = ilrsi_init(p, 1.0)
        with pytest.raises(ValueError, match="residual factor has shape"):
            residual_norm(p, state.solution, state.tracker[:, :1])

    def test_zero_solution_gives_constant_term(self):
        p = random_stable_problem(10, 1, 1, seed=0)
        empty = LowRankSolution(np.zeros((10, 0), dtype=complex),
                                np.zeros((0, 0), dtype=complex))
        assert residual_norm(p, empty) == pytest.approx(
            np.linalg.norm(p.C @ p.C.conj().T))

    def test_singular_T_names_truncation(self):
        p = random_stable_problem(10, 1, 1, seed=0)
        bad = LowRankSolution(np.ones((10, 1), dtype=complex),
                              np.zeros((1, 1), dtype=complex))
        with pytest.raises(ValueError, match="numerically singular"):
            residual_norm(p, bad)


class TestRealArithmetic:
    def test_real_laplacian_stays_real(self):
        p = make_laplacian_problem(10)
        sh = list(penzl_shifts(p, m=4).values)
        assert all(a.imag == 0 for a in sh)
        state = None
        for k in range(6):
            a = sh[k % len(sh)]
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        for arr in (state.V, state.T, state.tracker, state.K):
            assert arr.dtype == np.float64
        assert len(state.shifted.cache) == 4
        for lu in state.shifted.cache.values():
            assert lu.L.dtype == lu.U.dtype == np.float64
        assert state.shifted.permc_spec == "MMD_AT_PLUS_A"
        # Toeplitz A has a structurally nonsymmetric band
        toeplitz = ilrsi_init(make_toeplitz_problem(50), 1.0)
        assert toeplitz.shifted.permc_spec == "COLAMD"

    def test_complex_rhs_on_real_factor(self):
        # real data, E != I and shifts [real, pair, real]: after the pair the
        # state is complex and the last shift's factor is real, so its solve
        # splits the right-hand side into real and imaginary parts. The dense
        # oracle runs on the equivalent E = I problem (E^{-1} A, E^{-1} B, C),
        # whose iterates are E* X_k E.
        rng = np.random.default_rng(3)
        n = 20
        base = random_stable_problem(n, 1, 1, seed=11)
        E = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        p = CareProblem(A=base.A, B=base.B, C=base.C, E=sp.csr_matrix(E),
                        check_stability=False)
        Ei = np.linalg.inv(E)
        pe = CareProblem(A=sp.csr_matrix(Ei @ base.A.toarray()),
                         B=Ei @ base.B, C=base.C, check_stability=False)
        sh = [1.2, 0.7 + 0.5j, 0.7 - 0.5j, 2.0]
        traj = dense_subspace_iteration(pe, sh)
        state = None
        for a, it in zip(sh, traj):
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            X = state.solution.to_dense()
            ref = Ei.conj().T @ it.X @ Ei
            assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)
            R = state.tracker
            res = dense_riccati_residual(p, X)
            assert np.linalg.norm(R @ R.conj().T - res) <= \
                1e-10 * np.linalg.norm(res)
        assert np.iscomplexobj(state.tracker)
        assert state.shifted.cache[2.0].L.dtype == np.float64
        assert np.isrealobj(X)

    @pytest.mark.parametrize("m, alpha, steps, cutoff", [
        (4, 30.0, 30, None),      # dim 30 > n = 16, rank saturates at 9
        (30, 500.0, 60, 1e-8),    # columns decay below the cutoff
    ])
    def test_rank_column_matches_svd(self, m, alpha, steps, cutoff):
        # one shift cycled until V is numerically rank-deficient; V only
        # grows, so step k's basis is the first k columns of the final V
        p = make_laplacian_problem(m)
        sol, hist = ilrsi_solve(p, [alpha], tol=1e-30, max_iter=steps,
                                truncation_tol=cutoff)
        tol = cutoff or 1e-12
        expect = []
        for k in range(1, steps + 1):
            s = np.linalg.svd(sol.V[:, :k], compute_uv=False)
            expect.append(int(np.count_nonzero(s > tol * s[0])))
        assert [r.rank for r in hist.records] == expect
        assert expect[-1] < min(p.n, steps)


class TestSolverLoop:
    def test_laplacian_convergence_and_csv(self):
        p = make_laplacian_problem(8)
        sh = penzl_shifts(p, m=6)
        sol, hist = ilrsi_solve(p, sh, tol=1e-8, max_iter=40)
        assert hist.status == "converged"
        assert hist.records[-1].rel_residual <= 1e-8
        dims = [r.dim for r in hist.records]
        assert dims == sorted(dims)
        csv = hist.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER == "iter,dim,rank,rel_residual,seconds"
        assert len(lines) == len(hist.records) + 1
        # determinism: a second identical run produces identical bytes
        _, hist2 = ilrsi_solve(p, sh, tol=1e-8, max_iter=40)
        assert hist2.to_csv() == csv

    def test_solution_shifts_recorded(self):
        p = random_stable_problem(15, 1, 1, seed=2)
        sol, hist = ilrsi_solve(p, [1.0, 2.0], tol=1e-12, max_iter=5)
        assert list(sol.shifts_used) == [1.0, 2.0, 1.0, 2.0, 1.0]

    def test_max_iter_zero(self):
        p = random_stable_problem(8, 1, 1, seed=0)
        sol, hist = ilrsi_solve(p, [1.0], max_iter=0)
        assert hist.status == "max_iter"
        assert sol.dim == 0
        assert hist.records == []

    def test_max_iter_exhaustion(self):
        p = random_stable_problem(15, 1, 1, seed=2)
        sol, hist = ilrsi_solve(p, [1.0], tol=1e-16, max_iter=3)
        assert hist.status == "max_iter"
        assert len(hist.records) == 3

    def test_residual_every_skips_rows(self):
        p = random_stable_problem(15, 1, 1, seed=2)
        _, hist = ilrsi_solve(p, [1.0, 2.5], tol=1e-16, max_iter=5,
                              residual_every=2)
        rels = [r.rel_residual for r in hist.records]
        assert np.isnan(rels[0]) and np.isnan(rels[2])
        assert not np.isnan(rels[1]) and not np.isnan(rels[3])
        # the final row is always evaluated
        assert not np.isnan(rels[4])
        assert "nan" in hist.to_csv()

    def test_unknown_option_rejected(self):
        p = random_stable_problem(8, 1, 1, seed=0)
        with pytest.raises(ValueError, match="unknown option"):
            ilrsi_solve(p, [1.0], speed="ludicrous")

    def test_empty_shift_list_rejected(self):
        p = random_stable_problem(8, 1, 1, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            ilrsi_solve(p, [])

    def test_nonpositive_shift_rejected(self):
        p = random_stable_problem(8, 1, 1, seed=0)
        with pytest.raises(ValueError, match="positive real part"):
            ilrsi_init(p, -1.0)

    def test_breakdown_carries_shift_and_history(self):
        # E = -1 makes -A* + alpha E* singular at alpha = 1
        p = CareProblem(A=sp.csr_matrix([[-1.0]]), B=[[1.0]], C=[[1.0]],
                        E=sp.csr_matrix([[-1.0]]), check_stability=False)
        with pytest.raises(SolverBreakdown) as info:
            ilrsi_solve(p, [1.0])
        assert info.value.shift == 1.0
        assert info.value.history is not None
        assert info.value.history.status == "breakdown"


class TestIncrementalQR:
    """The blockwise thin QR behind the residual tracker and the rank
    column (``_BasisQR``)."""

    def test_dependent_columns_do_not_grow_basis(self):
        rng = np.random.default_rng(0)
        qr = _BasisQR(6, float)
        a = rng.standard_normal((6, 1))
        qr.add(a)
        qr.add(a)  # same column again: coefficient only
        qr.add(2.5 * a)
        assert qr.Q.shape == (6, 1)
        assert qr.R.shape == (1, 3)
        assert np.linalg.norm(qr.Q @ qr.R - np.hstack([a, a, 2.5 * a])) < 1e-12

    @settings(max_examples=40)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_reconstruction_property(self, n, total_cols, seed):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((n, total_cols))
        # repeat an existing column every third slot to force deflations
        for j in range(2, total_cols, 3):
            cols[:, j] = cols[:, j - 1]
        qr = _BasisQR(n, float)
        pos = 0
        while pos < total_cols:
            width = min(int(rng.integers(1, 3)), total_cols - pos)
            qr.add(cols[:, pos:pos + width])
            pos += width
        Q, R = qr.Q, qr.R
        assert Q.shape[1] <= min(n, total_cols)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-10
        assert np.linalg.norm(Q @ R - cols) <= 1e-9 * max(
            1.0, np.linalg.norm(cols))

