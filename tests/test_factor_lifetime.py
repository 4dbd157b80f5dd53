"""How long ``ShiftedSolver`` holds a factor: a caller that cycles a fixed
shift list gives it that list and keeps every factor; adaptive rksm gives
it ``None`` and keeps only the latest one."""

import warnings
from collections import Counter

import numpy as np
import pytest

import riccati_si.ilrsi
import riccati_si.rksm
from riccati_si import (
    ilrsi_solve,
    make_laplacian_problem,
    make_toeplitz_problem,
    penzl_shifts,
    random_stable_problem,
    rksm_solve,
)
from riccati_si.ilrsi import ShiftedSolver


@pytest.fixture
def made(monkeypatch):
    """The shift key of every factor made, and the number of factors held
    after every solve."""
    keys, held = [], []
    make = ShiftedSolver._make
    solve = ShiftedSolver.solve

    def recording_make(self, key):
        keys.append(key)
        return make(self, key)

    def recording_solve(self, alpha, rhs):
        x = solve(self, alpha, rhs)
        held.append(len(self.cache))
        return x

    monkeypatch.setattr(ShiftedSolver, "_make", recording_make)
    monkeypatch.setattr(ShiftedSolver, "solve", recording_solve)
    return keys, held


def pair_keys(poles):
    """One key per pole or conjugate pair, as rksm logs them on real data
    (a pair with its positive imaginary part first)."""
    return [complex(s) for s in poles if complex(s).imag >= 0]


@pytest.mark.parametrize("strategy", ["adaptive_stabilized",
                                      "adaptive_plain"])
def test_adaptive_rksm_holds_one_factor(made, strategy):
    keys, held = made
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol, hist = rksm_solve(make_toeplitz_problem(400), strategy,
                               tol=1e-10, max_iter=60)
    poles = pair_keys(sol.shifts_used)
    assert len(hist.records) == 9
    assert held and max(held) == 1
    # no pole on this problem comes back, so one factor per pole or pair
    assert len(set(poles)) == len(poles)
    assert keys == poles


def test_repeated_latest_pole_not_refactored(made, monkeypatch):
    # the "reuse the most recent pole" path: every other step picks the
    # latest pole again, whose factor is still held
    keys, held = made
    pick = riccati_si.rksm._mirrored_ritz_pole
    calls = []

    def every_other(theta, existing_poles=()):
        calls.append(None)
        if len(calls) % 2 == 0:
            return complex(existing_poles[-1])
        return pick(theta, existing_poles)

    monkeypatch.setattr(riccati_si.rksm, "_mirrored_ritz_pole", every_other)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol, _ = rksm_solve(make_toeplitz_problem(400), "adaptive_stabilized",
                            tol=1e-10, max_iter=20)
    poles = pair_keys(sol.shifts_used)
    assert any(a == b for a, b in zip(poles, poles[1:]))
    assert keys == [a for i, a in enumerate(poles)
                    if i == 0 or a != poles[i - 1]]
    assert max(held) == 1


@pytest.mark.parametrize("problem", [make_laplacian_problem(6),
                                     make_toeplitz_problem(36)],
                         ids=["superlu", "band"])
def test_older_shift_refactored_identically(made, problem, monkeypatch):
    # a solver without a shift list holds the latest factor only and never
    # starts a worker, even on two CPUs, so every factor it drops was made
    # on the calling thread
    monkeypatch.setattr(riccati_si.ilrsi, "_cpu_count", lambda: 2)
    keys, held = made
    solver = ShiftedSolver(problem, None)
    rhs = np.ones((36, 1))
    first = solver.solve(1.0, rhs)
    solver.solve(1.0, rhs)
    solver.solve(2 + 1j, rhs)
    solver.solve(2 - 1j, rhs)                  # the pair's factor serves
    assert list(solver.cache) == [2 + 1j]
    again = solver.solve(1.0, rhs)
    assert keys == [1.0, 2 + 1j, 1.0]
    assert held == [1, 1, 1, 1, 1]
    assert solver._worker is None
    np.testing.assert_array_equal(again, first)


def test_cycled_ilrsi_one_factor_per_shift(made):
    problem = make_laplacian_problem(12)
    shifts = list(penzl_shifts(problem, m=4).values)
    _, hist = ilrsi_solve(problem, shifts, tol=1e-30,
                          max_iter=3 * len(shifts))
    keys, held = made
    assert hist.status == "max_iter"
    assert Counter(keys) == Counter(set(shifts))
    assert held[-1] == len(set(shifts))


@pytest.mark.filterwarnings("ignore:deflated")
def test_cycled_rksm_one_factor_per_pole_or_pair(made):
    poles = [1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.7]
    sol, hist = rksm_solve(random_stable_problem(30, 1, 1, seed=6), poles,
                           tol=1e-30, max_iter=12)
    keys, held = made
    assert len(sol.shifts_used) == 12
    # 2 + 1j is factored on the worker while 1.0 is, so their order varies
    assert Counter(keys) == Counter([1.0, 2.0 + 1.0j, 0.7])
    assert held[-1] == 3
