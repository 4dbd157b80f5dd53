"""Diagnostics tying the distinct-shift normal form of the rational Krylov
space (``build_distinct_basis``) to Galerkin projection.

They check relations from the paper that no solver path needs: the
Galerkin defect of the iterate V T^{-1} V*, its projected residual, the
rank of its residual for p = 1, and pole sets that reproduce themselves
under mirrored Ritz values. Unlike ``oracles``, they build on the
package's ``build_distinct_basis``.
"""

import numpy as np

from riccati_si import build_distinct_basis, care_residual, dense_threshold


def projections(data):
    """(g, K): the Gram-weighted projections of C* and A* onto span(V).

    Least squares instead of a direct solve: the Gram matrix can be
    numerically singular (overcomplete basis), and g and K are only
    meaningful projections in the full-rank case anyway."""
    V = data.V
    VhV = V.conj().T @ V
    Astar = data.problem.A.conj().T.tocsc()
    g = np.linalg.lstsq(VhV, V.conj().T @ data.problem.C.conj().T,
                        rcond=None)[0]
    K = np.linalg.lstsq(VhV, V.conj().T @ (Astar @ V), rcond=None)[0]
    return g, K


def galerkin_defect(data) -> float:
    """||g - T^{-1} ones||: zero exactly when the iterate is the Galerkin
    solution on the space (rank-one C path)."""
    if data.problem.p != 1:
        raise ValueError("Galerkin defect diagnostic is defined for p = 1")
    g = projections(data)[0]
    return float(np.linalg.norm(g - np.linalg.solve(data.T, data.ones)))


def projected_residual_norm(problem, data) -> float:
    """||V* R V||_F for the residual R at X = V T^{-1} V* (dense evaluation;
    diagnostic scale only)."""
    X = data.V @ np.linalg.solve(data.T, data.V.conj().T)
    R = care_residual(problem.A.toarray(), problem.B, problem.C, X)
    return float(np.linalg.norm(data.V.conj().T @ R @ data.V))


def residual_rank_diagnostic(problem, data):
    """Leading two singular values of the dense residual at X = V T^{-1} V*,
    cross-checked against its factored form w w* with w = C* - V T^{-1} ones."""
    if problem.p != 1:
        raise ValueError("rank diagnostic is defined for p = 1")
    if problem.n > dense_threshold():
        raise ValueError(
            f"problem size {problem.n} exceeds the dense diagnostic "
            f"threshold {dense_threshold()}"
        )
    X = data.V @ np.linalg.solve(data.T, data.V.conj().T)
    R = care_residual(problem.A.toarray(), problem.B, problem.C, X)
    s = np.linalg.svd(R, compute_uv=False)
    w = problem.C.conj().T.astype(complex) - data.V @ np.linalg.solve(data.T, data.ones)
    factored = w @ w.conj().T
    Rn = float(np.linalg.norm(R))
    Gn = float(np.linalg.norm(problem.C.conj().T @ problem.C))
    defect = float(np.linalg.norm(R - factored))
    if defect > 1e-10 * max(Rn, 0.1 * Gn):
        raise RuntimeError(
            f"residual does not match its factored rank-one form "
            f"(defect {defect:.2e} vs norm {Rn:.2e})"
        )
    sigma1 = float(s[0]) if s.size else 0.0
    sigma2 = float(s[1]) if s.size > 1 else 0.0
    return sigma1, sigma2


def mirrored_ritz_fixed_point(problem, k, poles0, max_rounds=60, tol=1e-8,
                              damping=0.0):
    """Search pole sets that reproduce themselves: build the distinct-shift
    basis, mirror the eigenvalues of the projected closed-loop matrix
    K - T^{-1} V*FV, and iterate. Returns (poles, rounds, final_change).

    Convergence is not guaranteed (the underlying characterization is a
    fixed-point condition, not an algorithm); callers should check the
    reported change. damping blends consecutive pole sets when cycling.
    """
    poles = np.sort_complex(np.asarray([complex(s) for s in poles0]))
    if len(poles) != k:
        raise ValueError(f"expected {k} starting poles, got {len(poles)}")
    change = np.inf
    for round_no in range(1, max_rounds + 1):
        data = build_distinct_basis(problem, list(poles))
        W = problem.B.conj().T @ data.V
        VFV = W.conj().T @ W
        closed = projections(data)[1] - np.linalg.solve(data.T, VFV)
        theta = np.linalg.eigvals(closed)
        new = -np.conj(theta)
        if np.any(new.real <= 0):
            raise RuntimeError(
                "projected closed-loop matrix produced a non-mirrorable "
                f"eigenvalue at round {round_no}"
            )
        new = np.sort_complex(new)
        if damping:
            new = np.sort_complex((1.0 - damping) * new + damping * poles)
        change = float(np.max(np.abs(new - poles)) / max(1.0, np.max(np.abs(new))))
        poles = new
        if change <= tol:
            break
    return poles, round_no, change
