import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import riccati_si.ilrsi
from riccati_si import (
    CareProblem,
    LowRankSolution,
    SolverBreakdown,
    adaptive_pole,
    build_distinct_basis,
    check_entrywise_T,
    check_sylvester_identity,
    dense_care_solve,
    ilrsi_init,
    ilrsi_step,
    make_laplacian_problem,
    make_toeplitz_problem,
    penzl_shifts,
    random_stable_problem,
    rksm_solve,
)
from riccati_si import cli
from riccati_si.dense import care_solve_dense
from riccati_si.ilrsi import _BasisQR
from riccati_si.rksm import RksmState, _next_pole
from diagnostics import (
    galerkin_defect,
    mirrored_ritz_fixed_point,
    projected_residual_norm,
    projections,
    residual_rank_diagnostic,
)
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
        g, K = projections(data)
        defect = np.linalg.norm(K - (data.Lambda - g @ data.ones.conj().T))
        assert defect <= 1e-10 * np.linalg.norm(K)

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
    @pytest.mark.filterwarnings("ignore:rational Krylov space saturated")
    @pytest.mark.parametrize("make, poles", [
        pytest.param(lambda: passive_problem(40, 1, 1, seed=5),
                     lambda prob: penzl_shifts(prob, m=8), id="1-1"),
        pytest.param(lambda: passive_problem(40, 2, 3, seed=5),
                     lambda prob: penzl_shifts(prob, m=8), id="2-3"),
        # 11 directions deflate and the space saturates at dim 13
        pytest.param(lambda: make_laplacian_problem(6),
                     lambda prob: penzl_shifts(prob, m=5),
                     id="laplacian6-penzl5"),
        # complex poles: some iterates stop between a conjugate pair
        pytest.param(lambda: make_toeplitz_problem(300),
                     lambda prob: "adaptive_stabilized",
                     id="toeplitz300-stabilized"),
    ])
    def test_rel_residual_matches_dense_assembly(self, make, poles):
        # the block-split residual behind rel_residual against the dense
        # residual at the returned iterate, at every step (a run stopped
        # after k steps returns the k-th iterate)
        prob = make()
        strategy = poles(prob)
        cc = np.linalg.norm(prob.C @ prob.C.conj().T)
        for k in range(1, 16):
            sol, hist = rksm_solve(prob, strategy, tol=1e-30, max_iter=k)
            ref = np.linalg.norm(dense_riccati_residual(prob, sol.to_dense()))
            assert abs(hist.records[-1].rel_residual - ref / cc) <= 1e-12

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

    @pytest.mark.filterwarnings("ignore:deflated", "ignore:rational Krylov")
    def test_deflation_independent_of_data_scale(self):
        # (A, B / g, g C) has the same rational Krylov spaces and the
        # solution g^2 X, so it must take the same steps
        prob = random_stable_problem(200, 2, 1, seed=0)
        g = 1e-3
        scaled = CareProblem(A=prob.A, B=prob.B / g, C=g * prob.C,
                             check_stability=False)
        runs = [rksm_solve(q, "adaptive_plain", tol=1e-9, max_iter=80)
                for q in (prob, scaled)]
        (sol, hist), (sol_g, hist_g) = runs
        assert hist.status == hist_g.status
        assert len(sol.shifts_used) == len(sol_g.shifts_used)
        assert [r.dim for r in hist.records] == \
            [r.dim for r in hist_g.records]

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

    @pytest.mark.parametrize("strategy, options, error, match", [
        ("plain", {}, ValueError, "pole strategy"),
        ("stabilized", {}, ValueError, "pole strategy"),
        # an option rksm does not take is Python's unknown-keyword error
        ([1.0, 2.0], {"truncation_tol": 0.9}, TypeError, "truncation_tol"),
    ], ids=["plain-alias", "stabilized-alias", "ilrsi-truncation-tol"])
    def test_rejects_undocumented_inputs(self, strategy, options, error,
                                         match):
        p = random_stable_problem(8, 1, 1, seed=0)
        with pytest.raises(error, match=match):
            rksm_solve(p, strategy, **options)


_RKSM_CONFIG = {
    "problem": {"kind": "laplacian", "m": 6},
    "solver": "rksm",
    "shifts": {"kind": "penzl", "m": 6},
    "tol": 1e-8,
    "max_iter": 40,
}


@pytest.fixture
def projection_fails_third_time(monkeypatch):
    """The projected-equation solve raises on its third call."""
    calls = []

    def failing_care(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("injected failure")
        return care_solve_dense(*args, **kwargs)

    monkeypatch.setattr(riccati_si.rksm, "care_solve_dense", failing_care)


class TestBreakdownHistory:
    def test_singular_resolvent(self):
        # -A* + 2 I is singular; the first pole gives one history row
        A = sp.csr_matrix(np.diag([-1.0, 2.0]))
        p = CareProblem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)),
                        check_stability=False)
        with pytest.raises(SolverBreakdown, match="singular") as info:
            rksm_solve(p, [1.0, 2.0], tol=1e-30, max_iter=5)
        assert info.value.shift == 2.0
        assert info.value.history.status == "breakdown"
        assert len(info.value.history.records) == 1

    def test_non_finite_resolvent(self, monkeypatch):
        # without the check, the non-finite block would reach the basis QR
        monkeypatch.setattr(riccati_si.ilrsi.ShiftedSolver, "solve",
                            lambda self, alpha, rhs: np.inf * rhs)
        p = passive_problem(20, seed=5)
        with pytest.raises(SolverBreakdown, match="non-finite") as info:
            rksm_solve(p, [1.0], tol=1e-30, max_iter=3)
        assert info.value.shift == 1.0
        assert info.value.history.status == "breakdown"
        assert info.value.history.records == []

    def test_projection_failure(self, projection_fails_third_time):
        p = passive_problem(40, seed=5)
        with pytest.raises(SolverBreakdown, match="passive") as info:
            rksm_solve(p, penzl_shifts(p, m=8), tol=1e-30, max_iter=10)
        assert info.value.history.status == "breakdown"
        assert len(info.value.history.records) == 2

    def test_cli_run_writes_partial_history(self, projection_fails_third_time,
                                            tmp_path):
        cfg = tmp_path / "rksm.json"
        cfg.write_text(json.dumps(_RKSM_CONFIG))
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 3
        rows = (tmp_path / "history.csv").read_text().splitlines()
        assert len(rows) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "breakdown"

    def test_cli_compare_reports_breakdown(self, projection_fails_third_time,
                                           tmp_path, capsys):
        paths = []
        for name, doc in (("ilrsi", dict(_RKSM_CONFIG, solver="ilrsi")),
                          ("rksm", _RKSM_CONFIG)):
            paths.append(str(tmp_path / f"{name}.json"))
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert cli.main(["compare", "--configs", *paths,
                         "--out", str(tmp_path)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["reached_tol_at_dim"]["run1_rksm_penzl"] is None


class TestSeededSweep:
    @pytest.mark.filterwarnings("ignore:deflated", "ignore:rational Krylov")
    def test_breakdown_count(self):
        # one batch shaped like the benchmark's rksm sweep: n = 200,
        # p in {1, 2, 3}, q in {1, 3}, two problem seeds each, three pole
        # strategies
        converged, breakdowns, worst = 0, 0, 0.0
        cases = [(p, q) for _ in range(2) for p in (1, 2, 3) for q in (1, 3)]
        for seed, (p, q) in enumerate(cases):
            prob = random_stable_problem(200, p, q, seed=seed)
            Xs = dense_care_solve(prob)
            for poles in ("adaptive_plain", "adaptive_stabilized",
                          penzl_shifts(prob, m=10)):
                try:
                    sol, hist = rksm_solve(prob, poles, tol=1e-9,
                                           max_iter=80)
                except SolverBreakdown:
                    breakdowns += 1
                    continue
                if hist.status != "converged":
                    breakdowns += hist.status == "breakdown"
                    continue
                converged += 1
                err = np.linalg.norm(sol.to_dense() - Xs) / np.linalg.norm(Xs)
                worst = max(worst, err)
        assert worst <= 1e-6
        # 19 of 36 converge here (plain 1, stabilized 6, Penzl 12), 17 end
        # in breakdown; 2 spare for BLAS rounding
        assert converged >= 17, \
            f"{converged} of 36 converged, {breakdowns} breakdowns"


@pytest.fixture
def factored(monkeypatch):
    """Dtypes of the factors the shifted-solve service makes, one tuple per
    factor on either path: L and U of a SuperLU factor, or the LU band of
    a band factor."""
    seen = []
    factor = riccati_si.ilrsi.ShiftedSolver._factor

    def recording_factor(self, shift):
        lu = factor(self, shift)
        seen.append((lu.L.dtype, lu.U.dtype) if self.factor_path[0] ==
                    "superlu" else (lu._lu.dtype,))
        return lu

    monkeypatch.setattr(riccati_si.ilrsi.ShiftedSolver, "_factor",
                        recording_factor)
    return seen


@pytest.fixture
def shifted_calls(monkeypatch):
    """The shifts the shifted-solve service solves with, and the shifts it
    factors (a float for a real factor, a complex for a complex one)."""
    solves, factors = [], []
    solve = riccati_si.ilrsi.ShiftedSolver.solve
    factor = riccati_si.ilrsi.ShiftedSolver._factor

    def recording_solve(self, alpha, rhs):
        solves.append(complex(alpha))
        return solve(self, alpha, rhs)

    def recording_factor(self, shift):
        factors.append(shift)
        return factor(self, shift)

    monkeypatch.setattr(riccati_si.ilrsi.ShiftedSolver, "solve",
                        recording_solve)
    monkeypatch.setattr(riccati_si.ilrsi.ShiftedSolver, "_factor",
                        recording_factor)
    return solves, factors


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
        assert sol.V.dtype == np.float64

    def test_conjugate_pair_reuses_factor(self, factored):
        p = random_stable_problem(12, 1, 1, seed=6)
        sh = [1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.7]
        sol, hist = rksm_solve(p, sh, tol=1e-30, max_iter=4)
        # the pair's factor is made on the worker while 1.0 is factored, so
        # the order of the two is not fixed
        assert sorted(np.dtype(dts[0]).name for dts in factored) == \
            ["complex128", "float64", "float64"]
        data = build_distinct_basis(p, sh)
        assert len(factored) == 6
        assert sol.dim == 4
        assert projector_distance(sol.V, data.V) <= 1e-8
        assert np.isrealobj(sol.to_dense())

    @pytest.mark.parametrize("make, poles, max_iter", [
        pytest.param(lambda: random_stable_problem(12, 1, 1, seed=6),
                     [1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.7], 4, id="list"),
        pytest.param(lambda: make_toeplitz_problem(300),
                     "adaptive_stabilized", 40,
                     id="toeplitz300-stabilized"),
    ])
    def test_pair_step_stays_real(self, shifted_calls, monkeypatch, make,
                                  poles, max_iter):
        # a complex pole and its conjugate take one step: one solve, one
        # complex factor, [Re v, Im v] added to a real basis, and both
        # poles logged, positive imaginary part first
        projected = []

        def recording_care(UAU, UB, CU, **kwargs):
            projected.append((UAU.dtype, UB.dtype, CU.dtype))
            return care_solve_dense(UAU, UB, CU, **kwargs)

        monkeypatch.setattr(riccati_si.rksm, "care_solve_dense",
                            recording_care)
        sol, hist = rksm_solve(make(), poles, tol=1e-10, max_iter=max_iter)
        solves, factors = shifted_calls
        pairs = [s for s in solves if s.imag != 0]
        assert pairs
        assert len(projected) == len(hist.records)
        assert all(d == np.float64 for dts in projected for d in dts)
        assert sol.V.dtype == np.float64
        assert [s for s in factors if isinstance(s, complex)] == pairs
        logged = []
        for s in solves:
            logged += [s] if s.imag == 0 else \
                [complex(s.real, abs(s.imag)), complex(s.real, -abs(s.imag))]
        assert list(sol.shifts_used) == logged
        # one record per step, numbered by the poles used so far
        assert [r.iteration for r in hist.records] == \
            list(np.cumsum([1 + (s.imag != 0) for s in solves]))

    @pytest.mark.parametrize("poles", [
        [2.0 + 1.0j, 1.0, 2.0 - 1.0j],
        [1.0, 2.0 + 1.0j],
        [2.0 + 1.0j, 2.0 - 1.0j, 2.0 + 1.0j],
    ])
    def test_pole_list_pairs_must_be_adjacent(self, poles):
        p = random_stable_problem(12, 1, 1, seed=6)
        with pytest.raises(ValueError, match="conjugate"):
            rksm_solve(p, poles, tol=1e-30, max_iter=4)
        # complex data takes one pole per step, in any order
        pc = CareProblem(A=p.A.astype(complex), B=p.B, C=p.C,
                         check_stability=False)
        sol, hist = rksm_solve(pc, poles, tol=1e-30, max_iter=3)
        assert len(hist.records) == 3
        assert sol.V.dtype == np.complex128

    def test_pair_in_last_slot_taken_whole(self):
        # max_iter counts poles; a pair that would overrun it is not split
        p = random_stable_problem(12, 1, 1, seed=6)
        sol, hist = rksm_solve(p, [1.0, 0.7, 2.0 + 1.0j, 2.0 - 1.0j],
                               tol=1e-30, max_iter=3)
        assert hist.status == "max_iter"
        assert sol.shifts_used == (1.0, 0.7, 2.0 + 1.0j, 2.0 - 1.0j)
        assert [r.iteration for r in hist.records] == [1, 2, 4]
        assert hist.records[-1].dim == 4
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
        basis = _BasisQR(p.n, float)
        basis.add(rng.standard_normal((p.n, 5)))
        U = basis.Q
        UAU = U.T @ (p.A @ U)
        UB = U.T @ p.B
        CU = p.C @ U
        Y = care_solve_dense(UAU, UB, CU)
        state = RksmState(basis=basis, UAU=UAU, UB=UB, CU=CU,
                          poles=[1.0, 2.0 + 0.5j], Y=Y)
        pending = []
        pole = _next_pole(p, state, strategy, pending)
        current = LowRankSolution.from_basis(U, Y, ()) \
            if mode == "stabilized" else None
        ref = adaptive_pole(U, p, current_solution=current,
                            existing_poles=(1.0, 2.0 + 0.5j), mode=mode)
        if ref.imag < 0:
            ref = np.conj(ref)
        assert abs(pole - ref) <= 1e-10 * abs(ref)
        # on real data the loop takes a complex pole's conjugate in the
        # same step, so nothing is queued
        assert pole.imag >= 0
        assert pending == []

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
