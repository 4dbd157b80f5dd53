"""External checks of a returned solution, independent of the solver's own
residual bookkeeping.

The residual is touched only through `LowRankSolution.apply` and the problem
data, so the check keeps working when the solver's residual code changes.
"""

from __future__ import annotations

import numpy as np

# The sketch estimates ||R||_F from below and agreed with the solver's own
# residual to 2e-6 relative on the Laplacian problems and 0.5% on Toeplitz;
# a solve passes when the estimate is within this factor of its tolerance.
SKETCH_SLACK = 1.5
# Relative Frobenius distance to the dense stabilizing solution.
DENSE_TOL = 1e-6


def residual_apply(problem, solution, M):
    """R @ M for R = A*X + XA - X BB* X + C*C at the solution's X (E = I)."""
    if problem.E is not None:
        raise ValueError("the external check assumes E = identity")
    A, B, C = problem.A, problem.B, problem.C
    XM = solution.apply(M)
    XAM = solution.apply(A @ M)
    XBBXM = solution.apply(B @ (B.conj().T @ XM))
    return A.conj().T @ XM + XAM - XBBXM + C.conj().T @ (C @ M)


def sketch_rel_residual(problem, solution, rng) -> float:
    """Randomized estimate of ||R||_F / ||C C*||_F with 2p + 10 probes.

    R is Hermitian and numerically of low rank, so an orthonormal basis Q of
    R @ Omega captures its range and ||R Q||_F approximates ||R||_F.
    """
    probes = 2 * problem.p + 10
    omega = rng.standard_normal((problem.n, probes))
    Q = np.linalg.qr(residual_apply(problem, solution, omega))[0]
    est = np.linalg.norm(residual_apply(problem, solution, Q))
    return float(est / np.linalg.norm(problem.C @ problem.C.conj().T))


def sketch_check(problem, solution, tol, rng):
    """(passed, note) for the sketched residual against the solve's tol."""
    rel = sketch_rel_residual(problem, solution, rng)
    ok = bool(rel <= SKETCH_SLACK * tol)
    return ok, f"sketched rel residual {rel:.3e} (tol {tol:.1e})"


def dense_check(solution, X_ref):
    """(passed, note) for the distance to the dense reference solution."""
    err = np.linalg.norm(solution.to_dense() - X_ref) / np.linalg.norm(X_ref)
    return bool(err <= DENSE_TOL), f"distance to dense solution {err:.3e}"
