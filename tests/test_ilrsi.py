import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from riccati_si import (
    CSV_HEADER,
    CareProblem,
    SolverBreakdown,
    care_residual,
    dense_care_solve,
    dense_subspace_iteration,
    ilrsi_init,
    ilrsi_solve,
    ilrsi_step,
    make_laplacian_problem,
    make_toeplitz_problem,
    penzl_shifts,
    random_stable_problem,
    residual_norm,
    rksm_solve,
)
from riccati_si.ilrsi import _BasisQR, check_stopping
from oracles import (
    adi_lyapunov_dense,
    dense_riccati_residual,
    lrsi_reference_step,
    scalar_problem,
)


@pytest.fixture
def added_blocks(monkeypatch):
    """The blocks v_k that ilrsi appends to its basis: the columns of V."""
    blocks = []
    add = _BasisQR.add

    def recording_add(self, W):
        blocks.append(W.copy())
        add(self, W)

    monkeypatch.setattr(_BasisQR, "add", recording_add)
    return blocks


def _pair_problem():
    """p = 2, q = 3 and E != I, for a shift list with a conjugate pair."""
    rng = np.random.default_rng(8)
    n = 30
    base = random_stable_problem(n, 2, 3, seed=13)
    E = np.eye(n) + 0.05 * rng.standard_normal((n, n))
    return CareProblem(A=base.A, B=base.B, C=base.C, E=sp.csr_matrix(E),
                       check_stability=False)


class TestScalarChain:
    """Hand-computed trace for A=-1, B=1, C=sqrt(3), shifts 2 then 3."""

    def test_first_step(self):
        st1 = ilrsi_init(scalar_problem(), 2.0)
        V = st1.basis.Q @ st1.basis.R
        assert V.ravel()[0] == pytest.approx(-4.0 * np.sqrt(3.0) / 3.0,
                                             abs=1e-14)
        assert 1.0 / st1.Y_inv[0].ravel()[0] == pytest.approx(16.0 / 3.0,
                                                              abs=1e-13)
        assert st1.solution.to_dense().ravel()[0] == pytest.approx(1.0,
                                                                   abs=1e-13)

    def test_second_step(self):
        st1 = ilrsi_init(scalar_problem(), 2.0)
        st2 = ilrsi_step(st1, 3.0)
        # X_1 = 1 is exact, so R_1 = 0, v_2 = 0 and T_2 = diag(T_1, 2 a_2)
        expect = np.diag([16.0 / 3.0, 6.0])
        T = block_diag(*[np.linalg.inv(Y) for Y in st2.Y_inv])
        assert np.allclose(T, expect, atol=1e-12)
        assert st2.solution.to_dense().ravel()[0] == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_residual_exact_at_solution(self):
        st1 = ilrsi_init(scalar_problem(), 2.0)
        assert residual_norm(scalar_problem(), st1.residual_factor) <= 1e-12


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
        assert state.dim == 2
        state = ilrsi_step(state, 2.0)
        assert state.dim == 4
        assert (state.basis.Q @ state.basis.R).shape == (18, 4)
        assert [Y.shape for Y in state.Y_inv] == [(2, 2), (2, 2)]


class TestResidualNorm:
    def test_matches_dense_assembly(self):
        p = random_stable_problem(30, 1, 1, seed=7)
        vals = list(penzl_shifts(p, m=6).values)
        state = None
        for i in range(6):
            a = vals[i % len(vals)]
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        rn = residual_norm(p, state.residual_factor)
        ref = np.linalg.norm(dense_riccati_residual(p,
                                                    state.solution.to_dense()))
        assert abs(rn - ref) <= 1e-10 * ref

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
        rn = residual_norm(p, state.residual_factor)
        ref = np.linalg.norm(dense_riccati_residual(p,
                                                    state.solution.to_dense()))
        assert abs(rn - ref) <= 1e-10 * ref

    def test_factor_reproduces_residual_matrix(self):
        # p = 2, q = 3, E != I and a conjugate shift pair: R_k R_k* is the
        # whole residual matrix at every step, not only its norm
        p = _pair_problem()
        state = None
        for a in (1.5, 0.8 + 0.6j, 0.8 - 0.6j, 2.5, 0.4):
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            R = state.residual_factor
            ref = dense_riccati_residual(p, state.solution.to_dense())
            assert np.linalg.norm(R @ R.conj().T - ref) <= \
                1e-10 * np.linalg.norm(ref)
        assert np.isrealobj(state.solution.to_dense())

    def test_factor_shape_checked(self):
        p = random_stable_problem(10, 2, 1, seed=0)
        state = ilrsi_init(p, 1.0)
        with pytest.raises(ValueError, match="residual factor has shape"):
            residual_norm(p, state.residual_factor[:, :1])

    def test_zero_solution_gives_constant_term(self):
        # X = 0 leaves the residual C*C, whose factor is C*
        p = random_stable_problem(10, 1, 1, seed=0)
        assert residual_norm(p, p.C.conj().T) == pytest.approx(
            np.linalg.norm(p.C @ p.C.conj().T))


class TestRealArithmetic:
    def test_real_laplacian_stays_real(self):
        p = make_laplacian_problem(10)
        sh = list(penzl_shifts(p, m=4).values)
        assert all(a.imag == 0 for a in sh)
        state = None
        for k in range(6):
            a = sh[k % len(sh)]
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        for arr in (state.basis.Q, state.basis.R, *state.Y_inv,
                    state.residual_factor, state.K, state.solution.V):
            assert arr.dtype == np.float64
        assert len(state.shifted.cache) == 4
        for lu in state.shifted.cache.values():
            assert lu.L.dtype == lu.U.dtype == np.float64
        assert state.shifted.factor_path == ("superlu", "MMD_AT_PLUS_A")
        # Toeplitz A has a band narrow enough for the band path
        toeplitz = ilrsi_init(make_toeplitz_problem(50), 1.0)
        assert toeplitz.shifted.factor_path == ("band", 3, 1)

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
            R = state.residual_factor
            res = dense_riccati_residual(p, X)
            assert np.linalg.norm(R @ R.conj().T - res) <= \
                1e-10 * np.linalg.norm(res)
        assert np.iscomplexobj(state.residual_factor)
        assert state.shifted.cache[2.0].L.dtype == np.float64
        assert np.isrealobj(X)

    @pytest.mark.parametrize("m, alpha, steps, cutoff", [
        (4, 30.0, 30, None),      # dim 30 > n = 16, rank saturates at 9
        (30, 500.0, 60, 1e-8),    # columns decay below the cutoff
    ])
    def test_rank_column_matches_svd(self, added_blocks, m, alpha, steps,
                                     cutoff):
        # one shift cycled until V is numerically rank-deficient; V only
        # grows, so step k's basis is the first k columns of the final V.
        # The rank column counts at 1e-12; a cutoff, when given, is applied
        # to the thin QR of the same blocks (copied, since the fixture
        # records every add)
        p = make_laplacian_problem(m)
        sol, hist = ilrsi_solve(p, [alpha], tol=1e-30, max_iter=steps)
        blocks = list(added_blocks)
        V = np.hstack(blocks)

        def svd_rank(k, tol):
            s = np.linalg.svd(V[:, :k], compute_uv=False)
            return int(np.count_nonzero(s > tol * s[0]))

        expect = [svd_rank(k, 1e-12) for k in range(1, steps + 1)]
        assert [r.rank for r in hist.records] == expect
        assert expect[-1] < min(p.n, steps)
        if cutoff is not None:
            basis = _BasisQR(p.n, V.dtype)
            for blk in blocks:
                basis.add(blk)
            assert basis.rank(cutoff) == svd_rank(steps, cutoff) < expect[-1]


class TestCompressedSolution:
    @pytest.mark.parametrize("case", ["laplacian-4", "laplacian-30", "pair"])
    def test_matches_uncompressed_iterate(self, added_blocks, case):
        # X = Q (R T^{-1} R*) Q* compressed to its numerical rank acts like
        # V T^{-1} V*, with V the appended blocks and T = blkdiag(Y_k)
        # rebuilt here from them
        if case == "laplacian-4":      # dim 30 > n = 16
            p, shifts = make_laplacian_problem(4), [30.0] * 30
        elif case == "laplacian-30":   # columns decay below rounding
            p, shifts = make_laplacian_problem(30), [500.0] * 60
        else:
            p, shifts = _pair_problem(), [1.5, 0.8 + 0.6j, 0.8 - 0.6j, 2.5,
                                          0.4]
        Bh = p.B.conj().T
        omega = np.random.default_rng(0).standard_normal((p.n, 5))
        state = None
        for a in shifts:
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
            V = np.hstack(added_blocks)
            T = block_diag(*[2.0 * r * np.eye(p.p)
                             + (Bh @ v).conj().T @ (Bh @ v) / (2.0 * r)
                             for v, r in zip(added_blocks,
                                             np.real(shifts))])
            ref = V @ np.linalg.solve(T, V.conj().T @ omega)
            got = state.solution.apply(omega)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        if case != "pair":
            assert state.solution.dim < state.dim

    @pytest.mark.filterwarnings("ignore:deflated")
    def test_to_dense_keeps_imaginary_part_between_conjugate_pairs(self):
        # an iterate that stops between the two members of a conjugate pair
        # is complex even where Im X is small (6.8e-11 relative for ilrsi
        # at step 18); to_dense() keeps it, so it describes the same X as
        # apply(). rksm takes a pair in one step on real data, so its
        # iterates are closed under conjugation and real.
        p = make_toeplitz_problem(300)
        runs = [ilrsi_solve(p, penzl_shifts(p, m=8), tol=1e-30, max_iter=k)
                for k in range(1, 22)]
        runs += [rksm_solve(p, "adaptive_stabilized", tol=1e-30, max_iter=k)
                 for k in (13, 14, 15)]
        for sol, _ in runs:
            shifts = sol.shifts_used
            closed = sorted(shifts, key=lambda s: (s.real, s.imag)) == \
                sorted(np.conj(shifts), key=lambda s: (s.real, s.imag))
            X = sol.to_dense()
            VV = sol.V @ sol.V.conj().T
            assert np.isrealobj(X) == closed
            assert np.linalg.norm(X - VV) <= 1e-14 * np.linalg.norm(VV)


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
        # both solvers return an empty X = V V* in the dtype of the data
        base = random_stable_problem(8, 1, 1, seed=0)
        cplx = CareProblem(A=base.A + 0.3j * sp.identity(8, format="csr"),
                           B=base.B, C=base.C)
        for p, dtype in ((base, np.float64), (cplx, np.complex128)):
            for solve in (ilrsi_solve, rksm_solve):
                sol, hist = solve(p, [1.0], max_iter=0)
                assert hist.status == "max_iter"
                assert sol.dim == 0
                assert hist.records == []
                assert sol.V.shape == (8, 0) and sol.V.dtype == dtype
                X = sol.to_dense()
                assert X.dtype == dtype and not X.any()
                assert not sol.apply(np.ones((8, 2))).any()

    @pytest.mark.parametrize("solve", [ilrsi_solve, rksm_solve],
                             ids=["ilrsi", "rksm"])
    def test_negative_max_iter_rejected(self, solve):
        # with a NaN tol no residual ever passes the test, and an infinite
        # one passes at the first step; a fractional max_iter is not
        # rounded. All are errors, before any step
        p = random_stable_problem(8, 1, 1, seed=0)
        for options, match in [
            ({"max_iter": -1}, "max_iter must be nonnegative"),
            ({"max_iter": 2.5}, "max_iter must be an integer"),
            ({"max_iter": "3"}, "max_iter must be an integer"),
            ({"tol": float("nan")}, "tol must be positive"),
            ({"tol": float("inf")}, "tol must be positive"),
            ({"tol": 0.0}, "tol must be positive"),
            ({"max_iter": True}, "max_iter must be an integer"),
            ({"tol": True}, "tol must be a real number"),
            ({"tol": "1e-8"}, "tol must be a real number"),
        ]:
            with pytest.raises(ValueError, match=match):
                solve(p, [1.0], **options)

    def test_numpy_scalar_stopping_inputs_accepted(self):
        tol, max_iter = check_stopping(np.float32(0.5), np.int64(3))
        assert (tol, max_iter) == (0.5, 3)
        assert type(tol) is float and type(max_iter) is int

    def test_max_iter_exhaustion(self):
        p = random_stable_problem(15, 1, 1, seed=2)
        sol, hist = ilrsi_solve(p, [1.0], tol=1e-16, max_iter=3)
        assert hist.status == "max_iter"
        assert len(hist.records) == 3

    @pytest.mark.filterwarnings("ignore:right-hand-side ranks")
    @settings(max_examples=60)
    @given(st.integers(8, 40), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    def test_converged_solve_matches_dense_solution(self, n, p, q, seed):
        prob = random_stable_problem(n, p, q, seed=seed)
        sol, hist = ilrsi_solve(prob, penzl_shifts(prob, m=6), tol=1e-10,
                                max_iter=100)
        if hist.status == "converged":
            Xs = dense_care_solve(prob)
            assert np.linalg.norm(sol.to_dense() - Xs) <= \
                1e-6 * np.linalg.norm(Xs)

    def test_unknown_option_rejected(self):
        p = random_stable_problem(8, 1, 1, seed=0)
        with pytest.raises(TypeError, match="speed"):
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

