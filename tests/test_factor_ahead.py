"""Factoring ahead on a worker thread (``ShiftedSolver`` given the shift
list its caller cycles, as ``ilrsi_solve`` and rksm with a pole list do):
same iterates and same factors as one shift at a time, every worker factor
freed on the worker, no thread left behind; and a complex right-hand side
of any shape on a real factor."""

import gc
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riccati_si.ilrsi
import riccati_si.rksm
from riccati_si import (
    CareProblem,
    SolverBreakdown,
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
from riccati_si.ilrsi import ConvergenceHistory, ShiftedSolver


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Run the worker path whatever the host's CPU count."""
    monkeypatch.setattr(riccati_si.ilrsi, "_cpu_count", lambda: 2)


class _Recorded:
    """A factor that logs (shift, thread that made it, thread that freed
    it) when it is freed."""

    def __init__(self, lu, shift, log):
        self._lu = lu
        self._made = (shift, threading.get_ident())
        self._log = log

    def solve(self, *args, **kwargs):
        return self._lu.solve(*args, **kwargs)

    def __del__(self):
        self._log.append((*self._made, threading.get_ident()))


@pytest.fixture
def factors(monkeypatch):
    """Every call to ``ShiftedSolver._factor`` as (shift, thread), and the
    freed factors as (shift, made on, freed on)."""
    calls, freed = [], []
    factor = ShiftedSolver._factor

    def recording_factor(self, shift):
        calls.append((shift, threading.get_ident()))
        return _Recorded(factor(self, shift), shift, freed)

    monkeypatch.setattr(ShiftedSolver, "_factor", recording_factor)
    return calls, freed


def stepwise(problem, shifts, tol, max_iter):
    """ilrsi_solve's loop written out with ilrsi_init and ilrsi_step, whose
    solver factors one shift at a time: (V, history)."""
    shifts = [complex(s) for s in shifts]
    cc_norm = float(np.linalg.norm(problem.C @ problem.C.conj().T))
    history = ConvergenceHistory(status="max_iter")
    state = None
    for it in range(1, max_iter + 1):
        alpha = shifts[(it - 1) % len(shifts)]
        state = ilrsi_init(problem, alpha) if state is None \
            else ilrsi_step(state, alpha)
        rel = residual_norm(problem, state.residual_factor) / cc_norm
        history.append(it, dim=state.dim, rank=state.basis.rank(1e-12),
                       rel_residual=rel)
        if rel <= tol:
            history.status = "converged"
            break
    return state.solution.V, history


def assert_same_as_stepwise(problem, shifts, tol=1e-10, max_iter=60):
    solution, history = ilrsi_solve(problem, shifts, tol=tol,
                                    max_iter=max_iter)
    V, reference = stepwise(problem, shifts, tol, max_iter)
    assert history.to_csv() == reference.to_csv()
    assert history.status == reference.status
    assert solution.V.dtype == V.dtype and solution.V.shape == V.shape
    assert solution.V.tobytes() == V.tobytes()
    return history


def e_problem():
    """p = 2, q = 3 and E != I."""
    base = random_stable_problem(30, 2, 3, seed=13)
    rng = np.random.default_rng(8)
    E = np.eye(30) + 0.05 * rng.standard_normal((30, 30))
    return CareProblem(A=base.A, B=base.B, C=base.C, E=sp.csr_matrix(E),
                       check_stability=False)


def singular_problem(s, n=20):
    """A = diag(s, -1, ..., 1 - n), so -A* + s I is singular at the shift s
    and no pole's resolvent block spans an invariant subspace."""
    d = -np.arange(n, dtype=float)
    d[0] = s
    return CareProblem(A=sp.diags(d, format="csr"), B=np.ones((n, 1)),
                       C=np.ones((1, n)), check_stability=False)


E_SHIFTS = [0.8, 2.0 + 1.5j, 2.0 - 1.5j, 5.0, 0.3]


class TestSameIterates:
    def test_laplacian(self, factors):
        problem = make_laplacian_problem(40)
        history = assert_same_as_stepwise(problem,
                                          penzl_shifts(problem, m=10).values)
        assert history.status == "converged"
        calls, _ = factors
        assert any(t != threading.get_ident() for _, t in calls)

    def test_toeplitz_conjugate_pairs(self):
        problem = make_toeplitz_problem(2000)
        shifts = penzl_shifts(problem, m=10).values
        assert sum(complex(s).imag != 0 for s in shifts) == 8
        history = assert_same_as_stepwise(problem, shifts, max_iter=80)
        assert history.status == "converged"

    def test_e_not_identity(self):
        assert_same_as_stepwise(e_problem(), E_SHIFTS, max_iter=12)

    # the autouse fixture only pins the CPU count, the same for every example
    @settings(max_examples=15, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(n=st.integers(5, 40), p=st.integers(1, 3), q=st.integers(1, 3),
           seed=st.integers(0, 2**20))
    def test_random_stable_problem(self, n, p, q, seed):
        problem = random_stable_problem(n, p, q, seed)
        assert_same_as_stepwise(problem, penzl_shifts(problem, m=6).values,
                                max_iter=30)


class TestFactors:
    @pytest.mark.parametrize("case", ["laplacian", "toeplitz", "e"])
    def test_same_factors_as_stepwise(self, factors, case):
        if case == "laplacian":
            problem = make_laplacian_problem(40)
            shifts = penzl_shifts(problem, m=10).values
        elif case == "toeplitz":
            problem = make_toeplitz_problem(2000)
            shifts = penzl_shifts(problem, m=10).values
        else:
            problem, shifts = e_problem(), E_SHIFTS
        calls, _ = factors
        ilrsi_solve(problem, shifts, tol=1e-10, max_iter=40)
        ahead = sorted((complex(s) for s, _ in calls), key=str)
        calls.clear()
        stepwise(problem, shifts, 1e-10, 40)
        assert ahead == sorted((complex(s) for s, _ in calls), key=str)
        if case == "toeplitz":
            assert len(ahead) == 6
            assert sum(s.imag != 0 for s in ahead) == 4

    def test_worker_factors_freed_on_worker(self, factors):
        problem = make_laplacian_problem(40)
        calls, freed = factors
        ilrsi_solve(problem, penzl_shifts(problem, m=10).values, tol=1e-10)
        gc.collect()
        main = threading.get_ident()
        assert len(freed) == len(calls) == 10
        assert sum(made != main for _, made, _ in freed) == 5
        for shift, made, freed_on in freed:
            assert freed_on == made, shift

    def test_step_functions_start_no_thread(self, factors):
        # ilrsi_init's solver keeps every factor but is given no list, so
        # the public step functions never start a worker to be closed
        problem = make_laplacian_problem(40)
        calls, _ = factors
        before = threading.active_count()
        stepwise(problem, penzl_shifts(problem, m=10).values, 1e-10, 60)
        assert threading.active_count() == before
        assert len(calls) == 10
        assert {t for _, t in calls} == {threading.get_ident()}

    @pytest.mark.filterwarnings("ignore:deflated")
    def test_rksm_pole_list_same_factors(self, factors, monkeypatch):
        # rksm with a pole list factors two at a time, with the same
        # factors and iterates as a solver given no list
        problem = make_toeplitz_problem(2000)
        poles = penzl_shifts(problem, m=10).values
        calls, freed = factors
        solution, history = rksm_solve(problem, poles, tol=1e-10)
        main = threading.get_ident()
        ahead = sorted((complex(s) for s, _ in calls), key=str)
        assert any(t != main for _, t in calls)
        gc.collect()
        assert all(freed_on == made for _, made, freed_on in freed)
        calls.clear()
        monkeypatch.setattr(
            riccati_si.rksm, "ShiftedSolver",
            lambda problem, cycle: ShiftedSolver(problem, ()))
        reference, ref_history = rksm_solve(problem, poles, tol=1e-10)
        assert {t for _, t in calls} == {main}
        assert ahead == sorted((complex(s) for s, _ in calls), key=str)
        assert history.to_csv() == ref_history.to_csv()
        assert history.status == ref_history.status == "converged"
        assert solution.V.tobytes() == reference.V.tobytes()

    def test_no_worker_on_one_cpu(self, factors, monkeypatch):
        monkeypatch.setattr(riccati_si.ilrsi, "_cpu_count", lambda: 1)
        problem = make_laplacian_problem(40)
        calls, _ = factors
        ilrsi_solve(problem, penzl_shifts(problem, m=10).values, tol=1e-10)
        assert {t for _, t in calls} == {threading.get_ident()}

    def test_pairing_rule(self, factors):
        # a solve that needs a new factor starts the first list shift that
        # still needs one: never the current shift or, on real data, its
        # conjugate, and never one that has a factor or is being factored
        problem = make_laplacian_problem(10)
        rhs = np.ones((100, 1))
        calls, _ = factors
        main = threading.get_ident()

        def made_on_worker():
            return [s for s, t in calls if t != main]

        solver = ShiftedSolver(problem, [2 - 1j, 2 + 1j, 2 - 1j])
        solver.solve(2 + 1j, rhs)           # its conjugate, then a repeat
        assert solver._worker is None
        solver = ShiftedSolver(problem, [1.0, 2 + 1j, 2 - 1j, 3.0, 1.0, 4.0])
        # _pending holds the shifts started on the worker that no solve has
        # used yet
        solver.solve(1.0, rhs)
        assert list(solver._pending) == [2 + 1j]
        solver.solve(2 - 1j, rhs)           # the pair's factor serves
        assert not solver._pending
        solver.solve(3.0, rhs)              # next entry 1.0 has a factor
        assert list(solver._pending) == [4.0]
        solver.solve(5.0, rhs)              # every list shift has one
        solver.solve(4.0, rhs)              # current is being factored
        assert not solver._pending
        assert made_on_worker() == [2 + 1j, 4.0]
        assert [s for s, t in calls if t == main] == [2 + 1j, 1.0, 3.0, 5.0]
        solver.close()
        solver.close()
        # the worker's factors are gone: 4.0 is refactored inline, and the
        # pair's factor is started again on a new worker
        x = solver.solve(4.0, rhs)
        assert list(solver._pending) == [2 + 1j]
        solver.close()
        assert calls[-2:].count((4.0, main)) == 1
        ref = ShiftedSolver(problem).solve(4.0, rhs)
        np.testing.assert_array_equal(x, ref)

    def test_pairing_rule_complex_data(self, factors):
        # on complex data a conjugate shift is another matrix, so it is
        # factored ahead
        base = make_laplacian_problem(10)
        problem = CareProblem(A=(1 + 0.1j) * base.A, B=base.B, C=base.C,
                              check_stability=False)
        calls, _ = factors
        solver = ShiftedSolver(problem, [2 + 1j, 2 - 1j])
        with solver:
            solver.solve(2 + 1j, np.ones((100, 1)))
            assert solver._worker is not None
        assert solver._worker is None
        main = threading.get_ident()
        assert [s for s, t in calls if t != main] == [2 - 1j]

    def test_concurrent_solves(self, factors):
        # four solves at once, each with its own worker, switching threads
        # often: no state is shared between solvers
        problem = make_laplacian_problem(20)
        shifts = penzl_shifts(problem, m=10).values
        V, reference = stepwise(problem, shifts, 1e-10, 60)
        results = []

        def run():
            results.append(ilrsi_solve(problem, shifts, tol=1e-10,
                                       max_iter=60))

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        for solution, history in results:
            assert history.to_csv() == reference.to_csv()
            assert solution.V.tobytes() == V.tobytes()
        del results
        gc.collect()
        _, freed = factors
        assert all(freed_on == made for _, made, freed_on in freed)


class TestThreadsEnd:
    """No thread is left on any exit of ilrsi_solve; the subclass below
    runs the same cases for rksm with a pole list."""

    solve = staticmethod(ilrsi_solve)

    def assert_no_thread_left(self, run):
        before = threading.active_count()
        run()
        assert threading.active_count() == before

    def test_converged(self):
        problem = make_laplacian_problem(40)
        shifts = penzl_shifts(problem, m=10).values

        def run():
            _, history = self.solve(problem, shifts, tol=1e-10)
            assert history.status == "converged"

        self.assert_no_thread_left(run)

    def test_max_iter(self):
        problem = make_laplacian_problem(40)
        shifts = penzl_shifts(problem, m=10).values

        def run():
            _, history = self.solve(problem, shifts, tol=1e-10,
                                    max_iter=5)
            assert history.status == "max_iter"

        self.assert_no_thread_left(run)

    @pytest.mark.parametrize("position", [1, 2])
    def test_breakdown(self, factors, position):
        # at position 1 the singular shift is factored inline while the
        # worker factors the next one; at 2 the worker factors it
        s = 3.0
        shifts = [s, 1.0] if position == 1 else [1.0, s]
        calls, freed = factors

        def run():
            with pytest.raises(SolverBreakdown) as info:
                self.solve(singular_problem(s), shifts, tol=1e-10)
            assert info.value.shift == s
            assert info.value.history.status == "breakdown"
            assert len(info.value.history.records) == position - 1

        self.assert_no_thread_left(run)
        main = threading.get_ident()
        made = {shift: t for shift, t in calls}
        assert (made[s] == main) == (position == 1)
        assert (made[1.0] == main) == (position == 2)
        gc.collect()
        assert all(freed_on == made for _, made, freed_on in freed)


@pytest.mark.filterwarnings("ignore:deflated")
class TestThreadsEndRksm(TestThreadsEnd):
    solve = staticmethod(rksm_solve)


class TestComplexRhsOnRealFactor:
    @pytest.mark.parametrize("problem", [make_laplacian_problem(5),
                                         make_toeplitz_problem(25)],
                             ids=["superlu", "band"])
    def test_any_shape(self, problem):
        solver = ShiftedSolver(problem)
        z = np.ones(25) + 1j * np.arange(25)
        x = solver.solve(2.0, z)
        assert x.shape == (25,)
        assert solver.cache[2.0].solve(np.ones(25)).dtype == np.float64
        M = 2.0 * np.eye(25) - problem.A.conj().T.toarray()
        np.testing.assert_allclose(x, np.linalg.solve(M, z), rtol=1e-13)
        np.testing.assert_array_equal(solver.solve(2.0, z[:, None])[:, 0], x)
        x_real = solver.solve(2.0, z.real)
        assert x_real.shape == (25,)
        np.testing.assert_allclose(x_real, x.real, rtol=1e-14)
