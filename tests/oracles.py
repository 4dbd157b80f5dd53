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


def _realified(z):
    """z, with an imaginary part below 1e-10 (1 + |Re z|) dropped."""
    z = complex(z)
    return complex(z.real, 0.0) if abs(z.imag) <= 1e-10 * (1.0 + abs(z.real)) \
        else z


def reference_dedupe(points, tol=1e-8):
    """The points in order, less each one within tol (1 + |z|) of one kept
    before it."""
    kept = []
    for z in points:
        if all(abs(z - w) > tol * (1.0 + abs(z)) for w in kept):
            kept.append(z)
    return kept


def _reference_candidates(mu):
    """Grid points between consecutive real mirrored Ritz values, or points
    on the boundary of the conjugation-closed convex hull of complex ones
    (on the segments between every pair when the hull is degenerate)."""
    if all(abs(z.imag) <= 1e-8 * (1.0 + abs(z)) for z in mu):
        xs = sorted(z.real for z in mu)
        return [complex(x) for lo, hi in zip(xs[:-1], xs[1:])
                if hi - lo > 1e-14 * (1.0 + abs(hi))
                for x in np.linspace(lo, hi, 34)[1:-1]]
    pts = reference_dedupe(mu + [np.conj(z) for z in mu])
    coords = np.array([[z.real, z.imag] for z in pts])
    try:
        from scipy.spatial import ConvexHull
        segments = [tuple(s) for s in ConvexHull(coords).simplices]
        ts = np.linspace(0.0, 1.0, 18)[1:-1]
    except Exception:
        segments = [(i, j) for i in range(len(pts))
                    for j in range(i + 1, len(pts))]
        ts = np.linspace(0.0, 1.0, 10)[1:-1]
    cands = []
    for a, b in segments:
        za, zb = complex(*coords[a]), complex(*coords[b])
        cands.extend(za + t * (zb - za) for t in ts)
    return cands


def reference_pole_scores(theta, existing_poles=()):
    """The mirrored stable Ritz values mu (duplicates dropped) and the
    candidates of the adaptive pole search with their scores, computed one
    candidate at a time in scalar arithmetic: [(s, score)], where score is
    prod |s - alpha_i| / prod |s - mu_j| over the previous poles alpha_i,
    or with none, minus max_j |mu_j - conj(s)| / |mu_j + s|."""
    stable = [z for z in np.asarray(theta) if z.real < 0]
    mu = reference_dedupe(_realified(-np.conj(z)) for z in stable)
    if len(mu) < 2:
        return mu, []
    cands = [c for c in _reference_candidates(mu)
             if min(abs(c - z) for z in mu) > 1e-12 * (1.0 + abs(c))]
    poles = [complex(s) for s in existing_poles]
    if poles:
        def score(s):
            num = 1.0
            for a in poles:
                num *= abs(s - a)
            den = 1.0
            for z in mu:
                den *= abs(s - z)
            return num / den
    else:
        lam = np.array(mu)

        def score(s):
            return -float((np.ones(lam.shape) * (np.abs(lam - np.conj(s))
                                                 / np.abs(lam + s))).max())
    return mu, [(c, score(c)) for c in cands]


def reference_mirrored_ritz_pole(theta, existing_poles=()):
    """The adaptive pole from the Ritz values theta: the first candidate of
    largest score (``reference_pole_scores``), or the first mirrored Ritz
    value when there is a single one or no candidate. None when no Ritz
    value is stable."""
    mu, scored = reference_pole_scores(theta, existing_poles)
    if not mu:
        return None
    if not scored:
        return mu[0]
    return _realified(max(scored, key=lambda cs: cs[1])[0])


def reference_greedy_shifts(spectrum, pool, m):
    """Penzl's greedy pass over the candidates pool, scored on spectrum, one
    candidate at a time in scalar arithmetic: (chosen shifts, notes).

    The seed is the first candidate c of least max |lam - conj(c)| /
    |lam + c| over the spectrum (numpy's abs over the spectrum array), and
    a pole of the seed objective on the spectrum raises ValueError. Each
    further shift is the first remaining candidate t of largest
    prod |t - conj(a)| / |t + a| over the shifts a chosen so far. A complex
    pick brings its conjugate partner (or its exact conjugate, when no
    candidate is within 1e-8 of it), positive imaginary part first; in the
    last slot the best real candidate is taken instead of a complex one,
    and with none the pair is appended with a note."""
    lam = np.array([complex(z) for z in spectrum])
    remaining = [complex(z) for z in pool]
    notes = []

    def is_real(z):
        return abs(z.imag) <= 1e-10 * (1.0 + abs(z))

    def grab(z):
        out = [z]
        remaining.remove(z)
        if not is_real(z):
            partner = None
            for w in remaining:
                if abs(w - np.conj(z)) <= 1e-8 * (1.0 + abs(z)):
                    partner = w
                    break
            remaining[:] = [w for w in remaining if w is not partner]
            out.append(np.conj(z) if partner is None else partner)
            out.sort(key=lambda w: -w.imag)
        return out

    def seed_objective(c):
        denom = np.abs(lam + c)
        if np.any(denom <= 1e-13 * (1.0 + np.abs(lam) + abs(c))):
            raise ValueError(f"the seed objective of {c} has a pole on the "
                             f"spectrum")
        return float((np.ones(lam.shape)
                      * (np.abs(lam - np.conj(c)) / denom)).max())

    chosen = grab(min(remaining, key=seed_objective))

    def growth_score(t):
        val = 1.0
        for a in chosen:
            val *= abs(t - np.conj(a)) / abs(t + a)
        return val

    while len(chosen) < m and remaining:
        best = max(remaining, key=growth_score)
        if not is_real(best) and m - len(chosen) == 1:
            reals = [t for t in remaining if is_real(t)]
            if reals:
                best = max(reals, key=growth_score)
            else:
                notes.append("appended a conjugate pair into the last slot")
        chosen.extend(grab(best))
    return chosen, notes
