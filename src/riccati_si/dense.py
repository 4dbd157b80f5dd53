"""Dense small-scale ground truth for the low-rank solvers.

Everything here works on explicit matrices: the stabilizing Riccati solution
through the ordered Schur form of the Hamiltonian, the Cayley transform, the
dense subspace / fixed-point iterations, and the convergence-bound apparatus
(Schur blocks, Sylvester coupling, sep, subspace distances).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .problems import CareProblem


def dense_threshold() -> int:
    """Largest problem dimension the dense operations accept.

    Override with the RICCATI_SI_DENSE_THRESHOLD environment variable.
    """
    return int(os.environ.get("RICCATI_SI_DENSE_THRESHOLD", "400"))


def _check_size(n):
    limit = dense_threshold()
    if n > limit:
        raise ValueError(
            f"problem dimension {n} exceeds the dense threshold {limit} "
            f"(set RICCATI_SI_DENSE_THRESHOLD to override)"
        )


def _dense_parts(problem: CareProblem):
    """Dense (A, B, C) with a generalized E folded in.

    Multiplying the equation by E^{-*} on the left and E^{-1} on the right
    turns the quadruple (A, B, C, E) into the standard-form triple
    (A E^{-1}, B, C E^{-1}) with the same solution X. A complex A or E
    keeps its imaginary part.
    """
    A = problem.A.toarray().astype(np.result_type(problem.A.dtype, float))
    B, C = problem.B, problem.C
    if problem.E is not None:
        Einv = la.inv(problem.E.toarray())
        A = A @ Einv
        C = C @ Einv
    return A, B, C


def hamiltonian_matrix(A, B, C) -> np.ndarray:
    """The 2n x 2n block matrix [[A, -BB*], [-C*C, -A*]]."""
    A = np.asarray(A)
    B = np.asarray(B)
    C = np.asarray(C)
    F = B @ B.conj().T
    G = C.conj().T @ C
    top = np.hstack([A, -F])
    bot = np.hstack([-G, -A.conj().T])
    return np.vstack([top, bot])


def _hermitize(X):
    return 0.5 * (X + X.conj().T)


def care_residual(A, B, C, X) -> np.ndarray:
    """Residual A*X + XA - X BB* X + C*C, assembled densely."""
    A = np.asarray(A)
    F = B @ B.conj().T
    G = C.conj().T @ C
    return A.conj().T @ X + X @ A - X @ F @ X + G


def _schur_eigvals(T) -> np.ndarray:
    """Eigenvalues of a Schur form T: its diagonal, except that each 2 x 2
    block of a real quasi-triangular T gives its complex pair."""
    lam = np.diag(T).astype(complex)
    if np.iscomplexobj(T):
        return lam
    i = np.flatnonzero(np.diag(T, -1))
    mid = 0.5 * (T[i, i] + T[i + 1, i + 1])
    root = np.sqrt((0.5 * (T[i, i] - T[i + 1, i + 1])) ** 2
                   + T[i, i + 1] * T[i + 1, i] + 0j)
    lam[i], lam[i + 1] = mid + root, mid - root
    return lam


def care_solve_dense(A, B, C, check_tol=1e-10) -> np.ndarray:
    """Stabilizing solution of A*X + XA - X BB* X + C*C = 0.

    Computes the ordered Schur form of the Hamiltonian with the stable
    eigenvalues leading and reads off X = Q21 Q11^{-1}. Real inputs get the
    real Schur form, whose 2 x 2 blocks hold the complex pairs, and a real
    X; complex inputs get the complex Schur form. The result is checked
    to be stabilizing (A - BB*X stable) and to satisfy the equation to
    check_tol relative to ||C*C||_F.
    """
    real = np.isrealobj(A) and np.isrealobj(B) and np.isrealobj(C)
    A = np.asarray(A, dtype=float if real else complex)
    n = A.shape[0]
    H = hamiltonian_matrix(A, B, C)
    T, Z, sdim = la.schur(H, output="real" if real else "complex",
                          sort="lhp")
    eigs = _schur_eigvals(T)
    gap = np.abs(eigs.real) / np.maximum(1.0, np.abs(eigs))
    if gap.min() <= 1e-10:
        raise ValueError(
            "Hamiltonian has an eigenvalue within 1e-10 of the imaginary "
            "axis; the stable/unstable splitting does not exist"
        )
    if sdim != n:
        raise ValueError(
            f"expected {n} stable Hamiltonian eigenvalues, found {sdim}"
        )
    Q11 = Z[:n, :n]
    Q21 = Z[n:, :n]
    try:
        X = la.solve(Q11.T, Q21.T).T
    except la.LinAlgError as exc:
        raise ValueError("leading Schur block Q11 is singular") from exc
    X = _hermitize(X)
    F = B @ B.conj().T
    closed = np.asarray(A) - F @ X
    if np.linalg.eigvals(closed).real.max() >= 0.0:
        raise ValueError("computed solution is not stabilizing")
    G = C.conj().T @ C
    res = np.linalg.norm(care_residual(A, B, C, X))
    if res > check_tol * max(np.linalg.norm(G), 1e-300):
        raise ValueError(
            f"Riccati residual {res:.3e} exceeds {check_tol:.1e} * ||C*C||"
        )
    return X


def dense_care_solve(problem: CareProblem, check_tol=1e-10) -> np.ndarray:
    """Stabilizing solution of the problem's (possibly generalized) equation.

    The balanced equation, with (A, sqrt(s) B, C / sqrt(s)) for
    s = ||C||_F / ||B||_F (s = 1 when B or C is zero), is solved instead,
    and X is s times its solution. Rescaling (B, C) to (B / g, g C) then
    leaves the balanced equation as it is and X scales by exactly g^2.
    """
    _check_size(problem.n)
    A, B, C = _dense_parts(problem)
    nb, nc = np.linalg.norm(B), np.linalg.norm(C)
    s = nc / nb if nb and nc else 1.0
    return s * care_solve_dense(A, np.sqrt(s) * B, C / np.sqrt(s),
                                check_tol=check_tol)


def cayley(H, alpha) -> np.ndarray:
    """Cayley transform (H + alpha I)^{-1} (H - conj(alpha) I).

    Computed both directly and through the equivalent resolvent form
    I - 2 Re(alpha) (H + alpha I)^{-1}; the two must agree to 1e-12.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    a = complex(alpha).real
    I = np.eye(n)
    shifted = H + alpha * I
    try:
        S = la.solve(shifted, H - np.conj(alpha) * I)
        S2 = I - 2.0 * a * la.solve(shifted, I)
    except la.LinAlgError as exc:
        raise ValueError(f"H + alpha I is singular for alpha = {alpha}") from exc
    if not (np.isfinite(S).all() and np.isfinite(S2).all()):
        raise ValueError(f"H + alpha I is singular for alpha = {alpha}")
    drift = np.linalg.norm(S - S2) / (1.0 + np.linalg.norm(S))
    if drift > 1e-12:
        raise RuntimeError(f"Cayley transform cross-check failed ({drift:.2e})")
    return S


@dataclass
class DenseIterate:
    """One step of the dense iteration: X plus the blocks that produced it."""

    X: np.ndarray
    M: np.ndarray
    N: np.ndarray
    S1: np.ndarray
    S2: np.ndarray


def dense_subspace_iteration(problem: CareProblem, shifts, X0=None, steps=None):
    """Run the dense iteration, in both of its equivalent forms, and return
    the trajectory.

    Per step, the block form maps [I; X] through the Cayley transform of the
    Hamiltonian and takes X <- N M^{-1}; the fixed-point form expresses the
    same update through the two Schur complements S1, S2 of the shifted
    Hamiltonian. The block result is kept (it only needs the shifted
    Hamiltonian itself to be well-conditioned), and the fixed-point form is
    recomputed as a cross-check. A shift that lands on a mirrored eigenvalue
    of A makes A + alpha I singular and the Schur complements meaningless,
    so the agreement requirement is 1e-10 scaled up by their conditioning.
    """
    if problem.E is not None:
        raise ValueError("dense iteration is defined for E = identity only")
    _check_size(problem.n)
    A, B, C = _dense_parts(problem)
    A = A.astype(complex)
    n = problem.n
    F = B @ B.conj().T
    G = C.conj().T @ C
    H = hamiltonian_matrix(A, B, C)
    I = np.eye(n)
    shifts = list(shifts)
    if steps is None:
        steps = len(shifts)
    X = np.zeros((n, n), dtype=complex) if X0 is None else np.asarray(X0, dtype=complex)
    out = []
    for k in range(steps):
        alpha = complex(shifts[k % len(shifts)])
        a = alpha.real
        S = cayley(H, alpha)
        Y = S @ np.vstack([I, X])
        M = Y[:n]
        N = Y[n:]
        try:
            X_blk = la.solve(M.T, N.T).T
        except la.LinAlgError as exc:
            raise ValueError(f"block M is singular at step {k + 1}") from exc

        Aal = A + alpha * I
        nAs = -A.conj().T + alpha * I
        try:
            S1 = nAs - G @ la.solve(Aal, F)
            S2 = Aal - F @ la.solve(nAs, G)
            GAinv = la.solve(Aal.T, G.T).T
            N_fp = X - 2.0 * a * la.solve(S1, X + GAinv)
            M_fp = I - 2.0 * a * la.solve(S2, I + F @ la.solve(nAs, X))
            X_fp = la.solve(M_fp.T, N_fp.T).T
        except la.LinAlgError:
            # A + alpha I (or a Schur complement) is exactly singular: the
            # fixed-point form is undefined for this shift, no cross-check
            S1 = S2 = X_fp = None
        if X_fp is not None:
            agree = np.linalg.norm(X_blk - X_fp) / (1.0 + np.linalg.norm(X_blk))
            kappa = max(np.linalg.cond(S1), np.linalg.cond(S2),
                        np.linalg.cond(Aal), np.linalg.cond(nAs))
            agree_tol = max(1e-10, 1e3 * np.finfo(float).eps * kappa)
            if agree > agree_tol:
                raise RuntimeError(
                    f"block and fixed-point forms disagree at step {k + 1} "
                    f"({agree:.2e}, tolerance {agree_tol:.2e})"
                )
        X = _hermitize(X_blk)
        out.append(DenseIterate(X=X.copy(), M=M, N=N, S1=S1, S2=S2))
    return out


def subspace_distance(U, W) -> float:
    """Distance between the column spans of U and W (orthogonal-projector
    difference in the spectral norm)."""
    Qu = np.linalg.qr(np.asarray(U, dtype=complex))[0]
    Qw = np.linalg.qr(np.asarray(W, dtype=complex))[0]
    P = Qu @ Qu.conj().T - Qw @ Qw.conj().T
    return float(la.svdvals(P).max())


def sep_exact(T11, T22) -> float:
    """sep as the smallest singular value of the Kronecker-assembled
    Sylvester operator X -> T11 X - X T22."""
    n = T11.shape[0]
    m = T22.shape[0]
    L = np.kron(np.eye(m), T11) - np.kron(T22.T, np.eye(n))
    return float(la.svdvals(L).min())


def sep_estimate(T11, T22, iters=1000, seed=0) -> float:
    """Power-iteration estimate of sep through solves with the Sylvester
    operator and its adjoint (used above the exact-computation size limit).

    The estimate approaches sep from above, slowly when the two smallest
    singular values of the operator are close, so the iteration runs until
    two successive Rayleigh quotients agree to 1e-12 relative. ``iters``
    caps the steps; reaching the cap raises a RuntimeWarning that names the
    last relative change."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = T11.shape[0]
    m = T22.shape[0]
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    V /= np.linalg.norm(V)
    ray = 0.0
    for _ in range(iters):
        W = la.solve_sylvester(T11, -T22, V)
        W = la.solve_sylvester(T11.conj().T, -T22.conj().T, W)
        ray, last = np.linalg.norm(W), ray
        V = W / ray
        change = abs(ray - last) / ray
        if change <= 1e-12:
            break
    else:
        warnings.warn(
            f"sep_estimate reached its cap of {iters} power steps with a "
            f"last relative change of {change:.2e}", RuntimeWarning,
            stacklevel=2,
        )
    return float(1.0 / np.sqrt(ray))


@dataclass
class HamiltonianAnalysis:
    """Ordered Schur data of the Hamiltonian plus every quantity entering the
    convergence bound."""

    H: np.ndarray
    Q: np.ndarray
    T11: np.ndarray
    T12: np.ndarray
    T22: np.ndarray
    K: np.ndarray
    sep: float
    d: float
    gamma: float
    R0: np.ndarray
    T11_factors: list
    T22_factors: list
    shifts: list
    problem: CareProblem
    X0: np.ndarray
    _trajectory: list = field(default_factory=list, repr=False)


def analyze_hamiltonian(problem: CareProblem, shifts, X0=None) -> HamiltonianAnalysis:
    """Ordered Schur form of the Hamiltonian and the convergence-bound data.

    d is the distance between Range[I; X0] and the stable invariant subspace
    of H* (spanned by Q1 - Q2 K*); it is computed through the principal-angle
    identity sqrt(1 - sigma_min^2) and cross-checked against the
    projector-difference norm. The bound constant is
    gamma = (||R0^{-1}|| / sqrt(1 - d^2)) (1 + ||T12||_F / sep).
    """
    if problem.E is not None:
        raise ValueError("Hamiltonian analysis is defined for E = identity only")
    _check_size(problem.n)
    A, B, C = _dense_parts(problem)
    n = problem.n
    H = hamiltonian_matrix(A.astype(complex), B, C)
    T, Z, sdim = la.schur(H, output="complex", sort="lhp")
    eigs = np.diag(T)
    gap = np.abs(eigs.real) / np.maximum(1.0, np.abs(eigs))
    if gap.min() <= 1e-10 or sdim != n:
        raise ValueError(
            "Hamiltonian eigenvalues do not split cleanly across the "
            "imaginary axis; analysis is undefined"
        )
    T11 = T[:n, :n]
    T12 = T[:n, n:]
    T22 = T[n:, n:]
    K = la.solve_sylvester(T11, -T22, -T12)
    defect = np.linalg.norm(T11 @ K - K @ T22 + T12)
    if defect > 1e-10 * max(np.linalg.norm(T12), 1e-300):
        raise RuntimeError(f"Sylvester coupling solve inaccurate ({defect:.2e})")
    sep = sep_exact(T11, T22) if n <= 60 else sep_estimate(T11, T22)

    shifts = [complex(s) for s in shifts]
    I = np.eye(n)
    T11_factors = [la.solve(T11 + s * I, T11 - np.conj(s) * I) for s in shifts]
    T22_factors = [la.solve(T22 + s * I, T22 - np.conj(s) * I) for s in shifts]

    X0 = np.zeros((n, n)) if X0 is None else np.asarray(X0)
    U0, R0 = np.linalg.qr(np.vstack([I, X0.astype(complex)]))
    Q1 = Z[:, :n]
    Q2 = Z[:, n:]
    Zb = np.linalg.qr(Q1 - Q2 @ K.conj().T)[0]
    smin = la.svdvals(Zb.conj().T @ U0).min()
    d = float(np.sqrt(max(0.0, 1.0 - smin**2)))
    d_proj = subspace_distance(Zb, U0)
    if abs(d - d_proj) > 1e-10 * (1.0 + d_proj):
        raise RuntimeError(
            f"distance cross-check failed: {d:.15e} vs {d_proj:.15e}"
        )
    if smin <= 1e-12:
        raise ValueError("initial subspace distance d >= 1; bound hypothesis fails")
    r0_inv_norm = 1.0 / la.svdvals(R0).min()
    gamma = (r0_inv_norm / np.sqrt(1.0 - d**2)) * (
        1.0 + np.linalg.norm(T12) / sep
    )
    return HamiltonianAnalysis(
        H=H, Q=Z, T11=T11, T12=T12, T22=T22, K=K, sep=sep, d=d,
        gamma=float(gamma), R0=R0, T11_factors=T11_factors,
        T22_factors=T22_factors, shifts=shifts, problem=problem, X0=X0,
    )


def _factor_products(analysis: HamiltonianAnalysis, k: int):
    """(T22 factor product for steps k..1, inverse T11 factor product for
    steps 1..k), with the shift list cycled the same way the iteration
    cycles it."""
    nshift = len(analysis.shifts)
    idx = [i % nshift for i in range(k)]
    n = analysis.T11.shape[0]
    # left-multiplying in step order puts the step-k factor leftmost
    prod22 = np.eye(n, dtype=complex)
    for i in idx:
        prod22 = analysis.T22_factors[i] @ prod22
    prod11inv = np.eye(n, dtype=complex)
    for i in reversed(idx):
        prod11inv = la.solve(analysis.T11_factors[i], prod11inv)
    return prod22, prod11inv


def convergence_bound(analysis: HamiltonianAnalysis, k: int):
    """Measured subspace distance after k steps and its theoretical bound.

    The distance is between span[I; X_+] and span[I; X_k] (projector
    difference); the bound is gamma * ||prod T22 factors|| * ||prod inverse
    T11 factors||.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(analysis._trajectory) < k:
        analysis._trajectory = dense_subspace_iteration(
            analysis.problem, analysis.shifts, X0=analysis.X0, steps=k
        )
    Xk = analysis._trajectory[k - 1].X
    n = analysis.problem.n
    I = np.eye(n)
    Xplus = dense_care_solve(analysis.problem)
    distance = subspace_distance(np.vstack([I, Xplus]), np.vstack([I, Xk]))
    prod22, prod11inv = _factor_products(analysis, k)
    bound = analysis.gamma * la.svdvals(prod22).max() * la.svdvals(prod11inv).max()
    return float(distance), float(bound)


def spectral_radius_identity_check(analysis: HamiltonianAnalysis) -> float:
    """Relative defect between the spectral radii of the shift-factor
    products and the max of the rational product over the antistable
    Hamiltonian eigenvalues (the quantities are equal in exact arithmetic)."""
    k = len(analysis.shifts)
    prod22, prod11inv = _factor_products(analysis, k)
    rho22 = np.abs(np.linalg.eigvals(prod22)).max()
    rho11 = np.abs(np.linalg.eigvals(prod11inv)).max()
    lam = np.linalg.eigvals(analysis.H)
    lam_plus = lam[lam.real > 0]
    vals = np.ones(lam_plus.shape, dtype=float)
    for s in analysis.shifts:
        vals *= np.abs(lam_plus - np.conj(s)) / np.abs(lam_plus + s)
    brute = vals.max()
    denom = max(brute, 1e-300)
    return float(max(abs(rho22 - brute), abs(rho11 - brute)) / denom)
