import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import riccati_si.ilrsi
from riccati_si import (
    CareProblem,
    LowRankSolution,
    RksmState,
    adaptive_pole,
    build_distinct_basis,
    check_entrywise_T,
    check_sylvester_identity,
    dense_care_solve,
    galerkin_defect,
    ilrsi_init,
    ilrsi_step,
    make_laplacian_problem,
    mirrored_ritz_fixed_point,
    penzl_shifts,
    projected_residual_norm,
    random_stable_problem,
    residual_rank_diagnostic,
    rksm_solve,
)
from riccati_si.dense import care_solve_dense
from riccati_si.rksm import _next_pole
from oracles import (
    dense_riccati_residual,
    passive_problem,
    projector_distance,
    scalar_problem,
)


class TestDistinctBasis:
    def test_single_shift_T(self):
        p = random_stable_problem(20, 2, 1, seed=8)
        a = 1.7
        data = build_distinct_basis(p, [a])
        F = p.B @ p.B.conj().T
        expect = (np.eye(2) + data.V.conj().T @ F @ data.V) / (2.0 * a)
        assert np.allclose(data.T, expect, atol=1e-12)

    def test_cauchy_pin(self):
        # F = 0 on the scalar problem A=-1, C=1: T is the Cauchy matrix
        # 1/(a_i + a_j) for shifts {1, 2}
        p = CareProblem(A=sp.csr_matrix([[-1.0]]), B=np.zeros((1, 1)),
                        C=np.array([[1.0]]), check_stability=False)
        data = build_distinct_basis(p, [1.0, 2.0])
        assert np.allclose(data.T,
                           [[1.0 / 2.0, 1.0 / 3.0], [1.0 / 3.0, 1.0 / 4.0]],
                           atol=1e-14)

    def test_identities_on_larger_instance(self):
        p = random_stable_problem(50, 1, 1, seed=11)
        sh = [1.0, 2.0 + 1.0j, 2.0 - 1.0j, 5.5, 0.3 + 2.0j, 0.3 - 2.0j,
              0.9, 3.7]
        data = build_distinct_basis(p, sh)
        assert check_sylvester_identity(data) <= 1e-10 * np.linalg.norm(data.T)
        assert check_entrywise_T(data) <= 1e-10

    def test_projection_coupling_identity(self):
        # K = Lambda - g ones* holds exactly for a full-rank basis; check it
        # on a well-conditioned instance (the defect scales with the
        # conditioning of the Gram matrix behind the least-squares projection)
        p = random_stable_problem(20, 1, 1, seed=4)
        data = build_distinct_basis(p, [1.0, 2.0 + 1.0j, 2.0 - 1.0j])
        defect = np.linalg.norm(
            data.K - (data.Lambda - data.g @ data.ones.conj().T))
        assert defect <= 1e-10 * np.linalg.norm(data.K)

    def test_matches_iteration_for_same_shifts(self):
        p = random_stable_problem(30, 1, 1, seed=7)
        sh = [1.0, 2.5, 0.7]
        data = build_distinct_basis(p, sh)
        Xd = data.V @ np.linalg.solve(data.T, data.V.conj().T)
        state = None
        for a in sh:
            state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
        Xi = state.solution.to_dense()
        assert np.linalg.norm(Xd - Xi) <= 1e-9 * np.linalg.norm(Xi)

    def test_repeated_shift_rejected(self):
        p = random_stable_problem(10, 1, 1, seed=0)
        with pytest.raises(ValueError, match="distinct"):
            build_distinct_basis(p, [1.0, 1.0])
        with pytest.raises(ValueError, match="positive real part"):
            build_distinct_basis(p, [1.0, -2.0])

    def test_projected_residual_matches_dense(self):
        p = random_stable_problem(15, 1, 1, seed=2)
        data = build_distinct_basis(p, [1.0, 3.0])
        X = data.V @ np.linalg.solve(data.T, data.V.conj().T)
        R = dense_riccati_residual(p, X)
        Q = np.linalg.qr(data.V)[0]
        vrv = projected_residual_norm(p, data)
        # the diagnostic projects with the raw (non-orthonormal) basis
        ref = np.linalg.norm(data.V.conj().T @ R @ data.V)
        assert vrv == pytest.approx(ref, rel=1e-8)

    def test_residual_rank_one(self):
        p = random_stable_problem(30, 1, 1, seed=7)
        s1, s2 = residual_rank_diagnostic(
            p, build_distinct_basis(p, [1.0, 2.0, 3.3, 0.4]))
        assert s2 <= 1e-10 * s1

    def test_rank_diagnostic_requires_rank_one_constant(self):
        p = random_stable_problem(10, 2, 1, seed=3)
        with pytest.raises(ValueError, match="p = 1"):
            residual_rank_diagnostic(p, build_distinct_basis(p, [1.0]))
        with pytest.raises(ValueError, match="p = 1"):
            galerkin_defect(build_distinct_basis(p, [1.0]))


class TestSolver:
    def test_scalar_one_step_exact(self):
        sol, hist = rksm_solve(scalar_problem(), [2.0], tol=1e-12, max_iter=1)
        assert hist.status == "converged"
        assert sol.to_dense().ravel()[0] == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_exact_solution(self):
        p = passive_problem(40, seed=5)
        sh = penzl_shifts(p, m=8)
        sol, hist = rksm_solve(p, sh, tol=1e-8, max_iter=40)
        assert hist.status == "converged"
        X = sol.to_dense()
        Xs = dense_care_solve(p)
        assert np.linalg.norm(X - Xs) <= 1e-6 * np.linalg.norm(Xs)
        # identity coefficient contract of the refactored output
        assert np.allclose(sol.T, np.eye(sol.dim))

    def test_galerkin_condition(self):
        p = passive_problem(40, seed=5)
        sol, _ = rksm_solve(p, penzl_shifts(p, m=8), tol=1e-10, max_iter=30)
        R = dense_riccati_residual(p, sol.to_dense())
        U = np.linalg.qr(sol.V)[0]
        cc = np.linalg.norm(p.C.conj().T @ p.C)
        assert np.linalg.norm(U.conj().T @ R @ U) <= 1e-8 * cc

    def test_adaptive_strategies_converge(self):
        p = passive_problem(40, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, plain = rksm_solve(p, "adaptive_plain", tol=1e-8, max_iter=40)
            _, stab = rksm_solve(p, "adaptive_stabilized", tol=1e-8,
                                 max_iter=40)
        assert plain.status == "converged"
        assert stab.status == "converged"
        assert plain.records[-1].rel_residual <= 1e-8

    @pytest.mark.filterwarnings("ignore:deflated")
    def test_history_dims_nondecreasing(self):
        p = make_laplacian_problem(6)
        _, hist = rksm_solve(p, penzl_shifts(p, m=5), tol=1e-8, max_iter=30)
        dims = [r.dim for r in hist.records]
        assert dims == sorted(dims)
        assert hist.status == "converged"

    def test_spans_distinct_shift_space(self):
        p = random_stable_problem(12, 1, 1, seed=6)
        sh = [1.0, 2.5, 0.7]
        sol, hist = rksm_solve(p, sh, tol=1e-30, max_iter=3)
        data = build_distinct_basis(p, sh)
        assert sol.dim == 3
        assert projector_distance(sol.V, data.V) <= 1e-8

    @pytest.mark.filterwarnings("ignore:deflated")
    def test_saturation_reports_breakdown_status(self):
        # dimension 4: the space fills up long before the pole list ends
        p = random_stable_problem(4, 1, 1, seed=13)
        with pytest.warns(UserWarning, match="saturated"):
            sol, hist = rksm_solve(p, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                                   tol=1e-30, max_iter=40)
        assert hist.status == "breakdown"
        assert sol.dim <= 4
        assert len(hist.records) >= 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonpassive_projection_error(self):
        # stable but non-normal A whose projection onto the first basis
        # direction is antistable, with B orthogonal to everything: the
        # reduced equation has no stabilizing solution
        A = sp.csr_matrix(np.array([[-1.0, 100.0], [0.0, -1.0]]))
        p = CareProblem(A=A, B=np.zeros((2, 1)), C=np.array([[1.0, 1.0]]),
                        check_stability=False)
        with pytest.raises(RuntimeError, match="passive"):
            rksm_solve(p, [2.0], tol=1e-12, max_iter=1)

    def test_input_validation(self):
        p = random_stable_problem(8, 1, 1, seed=0)
        with pytest.raises(ValueError, match="pole strategy"):
            rksm_solve(p, "adaptive_psychic")
        with pytest.raises(ValueError, match="nonempty"):
            rksm_solve(p, [])
        pe = CareProblem(A=p.A, B=p.B, C=p.C,
                         E=sp.identity(8, format="csr"),
                         check_stability=False)
        with pytest.raises(ValueError, match="identity"):
            rksm_solve(pe, [1.0])


@pytest.fixture
def factored(monkeypatch):
    """Dtypes of the matrices the shifted-solve service factors, and of the
    L and U factors it gets back."""
    seen = []
    splu = riccati_si.ilrsi.splu

    def recording_splu(M, *args, **kwargs):
        lu = splu(M, *args, **kwargs)
        seen.append((M.dtype, lu.L.dtype, lu.U.dtype))
        return lu

    monkeypatch.setattr(riccati_si.ilrsi, "splu", recording_splu)
    return seen


class TestRealArithmetic:
    def test_real_poles_stay_real(self, factored, monkeypatch):
        # the projected matrices handed to the dense solver are built from
        # U, so their dtypes are those of U
        projected = []

        def recording_care(UAU, UB, CU, **kwargs):
            projected.append((UAU.dtype, UB.dtype, CU.dtype))
            return care_solve_dense(UAU, UB, CU, **kwargs)

        monkeypatch.setattr(riccati_si.rksm, "care_solve_dense",
                            recording_care)
        p = random_stable_problem(30, 2, 1, seed=4)
        sol, hist = rksm_solve(p, [1.0, 2.5, 0.7], tol=1e-30, max_iter=5)
        assert len(hist.records) == 5
        assert len(factored) == 3
        assert all(d == np.float64 for dts in factored for d in dts)
        assert len(projected) == 5
        assert all(d == np.float64 for dts in projected for d in dts)
        assert sol.V.dtype == sol.T.dtype == np.float64

    def test_conjugate_pair_reuses_factor(self, factored):
        p = random_stable_problem(12, 1, 1, seed=6)
        sh = [1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.7]
        sol, hist = rksm_solve(p, sh, tol=1e-30, max_iter=4)
        assert len(factored) == 3
        assert [dts[0] for dts in factored] == \
            [np.float64, np.complex128, np.float64]
        data = build_distinct_basis(p, sh)
        assert len(factored) == 6
        assert sol.dim == 4
        assert projector_distance(sol.V, data.V) <= 1e-8
        assert np.isrealobj(sol.to_dense())

    @pytest.mark.parametrize("strategy, mode", [
        ("adaptive_plain", "plain"), ("adaptive_stabilized", "stabilized"),
    ])
    def test_pole_from_projected_matrices(self, strategy, mode):
        # the loop's pole from U*AU (and U*B, Y) equals adaptive_pole on U,
        # up to the order within a conjugate pair (positive imaginary part
        # first). The existing poles are not closed under conjugation, so a
        # complex winner and its conjugate do not tie.
        p = passive_problem(40, seed=5)
        rng = np.random.default_rng(1)
        U = np.linalg.qr(rng.standard_normal((p.n, 5)))[0]
        UAU = U.T @ (p.A @ U)
        UB = U.T @ p.B
        CU = p.C @ U
        Y = care_solve_dense(UAU, UB, CU)
        state = RksmState(U=U, UAU=UAU, UB=UB, CU=CU, poles=[1.0, 2.0 + 0.5j],
                          Y=Y)
        pending = []
        pole = _next_pole(p, state, strategy, pending, 0)
        current = LowRankSolution(U, np.linalg.inv(Y)) \
            if mode == "stabilized" else None
        ref = adaptive_pole(U, p, current_solution=current,
                            existing_poles=(1.0, 2.0 + 0.5j), mode=mode)
        if ref.imag < 0:
            ref = np.conj(ref)
        assert abs(pole - ref) <= 1e-10 * abs(ref)
        assert pending == ([np.conj(pole)] if pole.imag else [])

    def test_pair_order_independent_of_candidate_order(self, monkeypatch):
        # on real data a candidate and its conjugate score the same, so the
        # member the scoring returns depends on the candidate order; the
        # poles must not
        import riccati_si.shifts
        p = passive_problem(60, seed=3)
        hull = riccati_si.shifts._hull_candidates
        runs = []
        for order in (1, -1):
            monkeypatch.setattr(riccati_si.shifts, "_hull_candidates",
                                lambda mu: hull(mu)[::order])
            sol, hist = rksm_solve(p, "adaptive_stabilized", tol=1e-30,
                                   max_iter=12)
            runs.append(np.array(sol.shifts_used))
        assert np.any(runs[0].imag != 0)
        assert np.allclose(runs[0], runs[1], rtol=1e-10, atol=0)
        for a, b in zip(runs[0][:-1], runs[0][1:]):
            if a.imag != 0 and b == np.conj(a):
                assert a.imag > 0


class TestMirroredRitzFixedPoint:
    def test_converges_on_passive_instance(self):
        p = passive_problem(8, seed=3)
        poles, rounds, change = mirrored_ritz_fixed_point(
            p, 3, (1.0, 2.0, 3.0), max_rounds=200, tol=1e-10)
        assert change <= 1e-10
        assert len(poles) == 3
        data = build_distinct_basis(p, list(poles))
        assert galerkin_defect(data) <= 1e-6

    def test_pole_count_validated(self):
        p = passive_problem(8, seed=3)
        with pytest.raises(ValueError, match="starting poles"):
            mirrored_ritz_fixed_point(p, 3, (1.0, 2.0))
