"""Seeded workloads of the riccati-si benchmark and the runner for one solve.

A workload turns a random generator into the cases of one repetition. Only
`multi-ilrsi` and `rksm-sweep` draw from the generator; the other two solve
the same fixed problem every repetition. The solvers see only the generated
problems, never the seed.

Mapping to the workloads named in ROADMAP.md:

- `lap-ilrsi` is W2 (W1 has the same layer mix at a quarter of the size);
- `multi-ilrsi` is W3, with a fresh Gaussian B and C for every repetition;
- `toeplitz-rksm` is W5 with n raised from 2e4 to 1e5;
- `rksm-sweep` covers the pole strategies behind W4 on small problems.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

import riccati_si
from riccati_si import (
    CareProblem,
    SolverBreakdown,
    make_laplacian_problem,
    make_toeplitz_problem,
    random_stable_problem,
)

import check

# Problem sizes per workload; the tests shrink them.
SIZES = {
    "lap-ilrsi": {"m": 200},
    "multi-ilrsi": {"m": 100, "p": 4, "q": 2},
    "toeplitz-rksm": {"n": 100_000},
    "rksm-sweep": {"n": 200, "grids": 2},
}

PENZL_M = 10
# Untraced, Penzl shifts are recomputed until this much time is spent (at
# most PENZL_MAX_SAMPLES times) and the median is the case's shifts_s sample,
# so a 0.01-0.1 s computation is not a single noisy reading. Traced, they are
# computed once, so that the per-layer counts are those of one solve.
PENZL_MIN_S = 0.3
PENZL_MAX_SAMPLES = 5


@dataclass(frozen=True)
class Case:
    """One solve: the problem, the solver, where its poles come from, and
    whether Penzl shifts are computed (and timed) for it."""

    problem: CareProblem
    solver: str          # "ilrsi" or "rksm"
    poles: str           # "penzl", "adaptive_plain" or "adaptive_stabilized"
    tol: float
    max_iter: int
    penzl: bool = True
    dense_check: bool = False


def lap_ilrsi(size, rng):
    problem = make_laplacian_problem(size["m"])
    return [Case(problem, "ilrsi", "penzl", 1e-10, 100)]


def multi_ilrsi(size, rng):
    base = make_laplacian_problem(size["m"])
    B = rng.standard_normal((base.n, size["q"]))
    C = rng.standard_normal((size["p"], base.n))
    problem = CareProblem(A=base.A, B=B, C=C, check_stability=False)
    return [Case(problem, "ilrsi", "penzl", 1e-10, 100)]


def toeplitz_rksm(size, rng):
    # The solve picks adaptive poles. Penzl shifts are still computed and
    # timed for shifts_s, as a nonsymmetric banded input to penzl_shifts;
    # they are not part of the solve.
    problem = make_toeplitz_problem(size["n"])
    return [Case(problem, "rksm", "adaptive_stabilized", 1e-10, 100)]


def rksm_sweep(size, rng):
    # Every (p, q) problem gets its own problem seed. With one seed shared
    # across the six (p, q) pairs they share A, and breakdowns cluster: the
    # converged count of a 36-solve batch had a standard deviation of 2.25
    # over 16 batches, against 1.63 with a seed each (same mean, 12.9).
    cases = []
    for _ in range(size["grids"]):
        for p in (1, 2, 3):
            for q in (1, 3):
                problem_seed = int(rng.integers(0, 2**31))
                problem = random_stable_problem(size["n"], p, q, problem_seed)
                for poles in ("adaptive_plain", "adaptive_stabilized", "penzl"):
                    cases.append(Case(problem, "rksm", poles, 1e-9, 80,
                                      penzl=poles == "penzl", dense_check=True))
    return cases


WORKLOADS = {
    "lap-ilrsi": lap_ilrsi,
    "multi-ilrsi": multi_ilrsi,
    "toeplitz-rksm": toeplitz_rksm,
    "rksm-sweep": rksm_sweep,
}


def make_cases(name, rng):
    return WORKLOADS[name](SIZES[name], rng)


@dataclass
class Outcome:
    """What one solve returned and how it fared in the external check."""

    status: str            # solver status, "breakdown" for a raised stall, or "error"
    solve_s: float
    shift_s: float | None  # one Penzl shift computation, None when not computed
    shifts_used: bool      # whether the solve consumed the Penzl shifts
    steps: int
    final_dim: int
    verified: bool = False
    wrong: bool = False    # claimed convergence but failed the external check
    check_note: str = ""


def _no_span(name):
    return contextlib.nullcontext()


def _final(history, solution):
    records = history.records if history is not None else []
    if solution is not None:
        steps = len(solution.shifts_used)
    else:
        steps = records[-1].iteration if records else 0
    dim = records[-1].dim if records else 0
    rank = records[-1].rank if records else 0
    return steps, dim, rank


def solve_case(case: Case, tracer=None):
    """Compute the shifts the case needs and run its solver, timing both.

    Returns (solution or None, Outcome without the check filled in). A
    RuntimeError or LinAlgError from the solver is its way of reporting a
    breakdown and is recorded as one; anything else is recorded as an
    error with its traceback on stderr.
    """
    span = tracer.span if tracer is not None else _no_span
    shifts = None
    shift_s = None
    if case.penzl:
        samples = []
        most = PENZL_MAX_SAMPLES if tracer is None else 1
        while sum(samples) < PENZL_MIN_S and len(samples) < most:
            t0 = time.perf_counter()
            with span("shifts.penzl"):
                shifts = riccati_si.penzl_shifts(case.problem, m=PENZL_M)
            samples.append(time.perf_counter() - t0)
        shift_s = statistics.median(samples)
    solution = history = None
    t0 = time.perf_counter()
    with span(f"{case.solver}.solve") as record:
        try:
            if case.solver == "ilrsi":
                solution, history = riccati_si.ilrsi_solve(
                    case.problem, shifts.values, tol=case.tol, max_iter=case.max_iter)
            else:
                poles = shifts if case.poles == "penzl" else case.poles
                solution, history = riccati_si.rksm_solve(
                    case.problem, poles, tol=case.tol, max_iter=case.max_iter)
            status = history.status
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            history = exc.history if isinstance(exc, SolverBreakdown) else None
            status = "breakdown"
        except Exception:
            traceback.print_exc()
            status = "error"
    solve_s = time.perf_counter() - t0
    steps, dim, rank = _final(history, solution)
    if record is not None:
        record.attrs.update(steps=steps, dim=dim, rank=rank, p=case.problem.p)
    outcome = Outcome(status, solve_s, shift_s, case.poles == "penzl", steps, dim)
    return solution, outcome


def run_case(case: Case, check_rng, oracles, tracer=None) -> Outcome:
    """Solve one case, then check the answer from outside the solver
    (untimed). A converged solve counts as verified only if it passes."""
    solution, outcome = solve_case(case, tracer)
    if outcome.status != "converged":
        return outcome
    ok, note = check.sketch_check(case.problem, solution, case.tol, check_rng)
    if ok and case.dense_check:
        key = id(case.problem)
        if key not in oracles:
            oracles[key] = riccati_si.dense_care_solve(case.problem)
        ok, note = check.dense_check(solution, oracles[key])
    outcome.verified = ok
    outcome.wrong = not ok
    outcome.check_note = note
    return outcome
