"""Independent reference implementations used to check the library.

Everything here is written directly from the defining formulas, without
importing solver internals, so that agreement is meaningful.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from riccati_si import CareProblem


def scalar_problem():
    """A=-1, B=1, C=sqrt(3): F=1, G=3, exact stabilizing solution X=1."""
    return CareProblem(A=sp.csr_matrix(np.array([[-1.0]])),
                       B=np.array([[1.0]]),
                       C=np.array([[np.sqrt(3.0)]]))


def passive_problem(n, p=1, q=1, seed=0):
    """Random A with negative definite Hermitian part (so every Galerkin
    projection of A is stable), plus Gaussian B, C."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n)) / np.sqrt(n)
    K = rng.standard_normal((n, n))
    A = -(S @ S.T) - 0.5 * np.eye(n) + 0.5 * (K - K.T)
    return CareProblem(A=sp.csr_matrix(A), B=rng.standard_normal((n, q)),
                       C=rng.standard_normal((p, n)))


def adi_lyapunov_dense(A, G, shifts):
    """Alternating-direction iterates for A*X + XA + G = 0 with A stable.

    Written on the negated operator At = -A (spectrum in the right half
    plane) as the classical two-half-step sweep, the second half at the
    conjugate shift:

        (At* + a I) X_half = G - X (At - a I)
        X_new (At + conj(a) I) = G - (At* - conj(a) I) X_half

    starting from X = 0. Returns the list of full-step iterates.
    """
    At = -np.asarray(A, dtype=complex)
    n = At.shape[0]
    I = np.eye(n)
    X = np.zeros((n, n), dtype=complex)
    out = []
    for a in shifts:
        a = complex(a)
        Xh = np.linalg.solve(At.conj().T + a * I, G - X @ (At - a * I))
        rhs = G - (At.conj().T - np.conj(a) * I) @ Xh
        X = np.linalg.solve((At + np.conj(a) * I).conj().T,
                            rhs.conj().T).conj().T
        out.append(X.copy())
    return out


def dense_riccati_residual(problem, X):
    """A*XE + E*XA - E*X BB* XE + C*C assembled with plain dense products."""
    A = problem.A.toarray()
    B = np.asarray(problem.B)
    C = np.asarray(problem.C)
    E = np.eye(problem.n) if problem.E is None else problem.E.toarray()
    XE = np.asarray(X) @ E
    return (A.conj().T @ XE + XE.conj().T @ A
            - XE.conj().T @ (B @ B.conj().T) @ XE
            + C.conj().T @ C)


def brute_force_objective(shifts, spectrum):
    """max over the spectrum of |prod_j (lam - conj(a_j)) / (lam + a_j)|,
    evaluated with straight Python loops."""
    best = 0.0
    for lam in spectrum:
        prod = 1.0
        for a in shifts:
            prod *= abs((lam - np.conj(a)) / (lam + a))
        best = max(best, prod)
    return best


def projector_distance(U, W):
    """Spectral norm of the difference of the orthogonal projectors onto
    the column spans of U and W."""
    Qu = np.linalg.qr(np.asarray(U, dtype=complex))[0]
    Qw = np.linalg.qr(np.asarray(W, dtype=complex))[0]
    Pu = Qu @ Qu.conj().T
    Pw = Qw @ Qw.conj().T
    return float(np.linalg.norm(Pu - Pw, 2))


def lrsi_reference_step(U_prev, T_prev, problem: CareProblem, alpha):
    """Reference recursion: carries every previous column through the new
    resolvent instead of only the last block.

    U_k = [(-A*+aI)^{-1}(-A*-conj(a)I) U_{k-1},  -2 Re(a) (-A*+aI)^{-1} C*],
    with the matching T update evaluated through B (the n x n quadratic
    coefficient is never formed). With an empty U the step reproduces
    ilrsi_init exactly.
    """
    if problem.E is not None:
        raise ValueError("reference recursion is defined for E = identity only")
    alpha = complex(alpha)
    a = alpha.real
    if a <= 0:
        raise ValueError(f"shift must have positive real part, got {alpha}")
    U_prev = np.asarray(U_prev, dtype=complex)
    T_prev = np.asarray(T_prev, dtype=complex)
    n = problem.n
    Astar = problem.A.conj().T.tocsc().astype(complex)
    M = -Astar + alpha * sp.identity(n, format="csc", dtype=complex)
    lu = splu(M.tocsc())
    Cstar = problem.C.conj().T.astype(complex)
    carried = lu.solve(-(Astar @ U_prev) - np.conj(alpha) * U_prev) \
        if U_prev.shape[1] else U_prev
    fresh = -2.0 * a * lu.solve(Cstar)
    U = np.hstack([carried, fresh])

    Wm = lu.solve(np.hstack([U_prev, Cstar]))
    wB = problem.B.conj().T @ Wm
    c = U_prev.shape[1]
    p = problem.p
    T = np.zeros((c + p, c + p), dtype=complex)
    T[:c, :c] = T_prev
    T[c:, c:] = 2.0 * a * np.eye(p)
    T += 2.0 * a * (wB.conj().T @ wB)
    T = 0.5 * (T + T.conj().T)
    return U, T
