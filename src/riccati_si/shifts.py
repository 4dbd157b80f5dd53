"""Shift and pole selection for the rational iterations.

Three mechanisms live here: the rational min-max objective that measures how
well a shift set damps a spectrum, a Penzl-style greedy selection from Ritz
values, and adaptive mirrored-Ritz poles (with the stabilized variant that
looks at A - BB*X for the current approximate solution X instead of A alone).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ilrsi import sparse_lu

ORIGINS = ("penzl_A", "penzl_H", "adaptive_ritz", "adaptive_stabilized", "user")

_REAL_TOL = 1e-10


@dataclass(frozen=True)
class ShiftSequence:
    """Ordered shifts with positive real parts, closed under conjugation."""

    values: tuple
    origin: str = "user"
    notes: tuple = ()

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin tag {self.origin!r}")
        for v in vals:
            if not v.real > 0.0:
                raise ValueError(f"shift {v} does not have positive real part")
        for v in vals:
            if abs(v.imag) > _REAL_TOL * (1.0 + abs(v)):
                match = min(abs(w - np.conj(v)) for w in vals)
                if match > 1e-10 * (1.0 + abs(v)):
                    raise ValueError(
                        f"shift set is not closed under conjugation: "
                        f"conjugate of {v} is missing"
                    )

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def rational_objective(shifts, spectrum) -> float:
    """max over the spectrum of prod_i |lam - conj(alpha_i)| / |lam + alpha_i|.

    This is the quantity the shift selection tries to make small; it equals
    the spectral radius of the corresponding Cayley factor product on the
    antistable invariant subspace.
    """
    svals = np.asarray([complex(s) for s in shifts], dtype=complex)
    lam = np.asarray([complex(z) for z in spectrum], dtype=complex)
    if lam.size == 0:
        raise ValueError("spectrum must be nonempty")
    if svals.size == 0:
        raise ValueError("shift set must be nonempty")
    return float(_damping(svals, lam).prod(axis=0).max())


def _damping(shifts, spectrum):
    """|lam - conj(s)| / |lam + s| for each shift s (a row) and spectrum
    point lam (a column), both complex arrays: the single-shift factors of
    the rational objective. Raises ValueError when a point lies on the pole
    -s of a shift, i.e. |lam + s| is at most 1e-13 (1 + |lam| + |s|); the
    first such pair in shift order is named."""
    denom = np.abs(spectrum + shifts[:, None])
    size = np.hypot(shifts.real, shifts.imag)[:, None]
    bad = denom <= 1e-13 * (1.0 + np.abs(spectrum) + size)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"spectrum point {spectrum[k]} coincides with the "
                         f"pole of shift {shifts[i]}")
    return np.abs(spectrum - shifts.conj()[:, None]) / denom


def _arnoldi_ritz(matvec, v0, steps):
    """Ritz values from an Arnoldi run in the dtype of v0 (so matvec must map
    that dtype into itself); returns (ritz values, broke_down).

    The basis is stored one vector per row, and each new vector is
    orthogonalized by classical Gram-Schmidt run twice (CGS2): two passes of
    h = V* w, w -= V h, each one matrix-vector product with the rows so far.
    """
    n = v0.size
    steps = max(1, min(steps, n))
    dtype = np.result_type(v0, float)
    V = np.zeros((steps + 1, n), dtype=dtype)
    Hm = np.zeros((steps + 1, steps), dtype=dtype)
    nrm = np.linalg.norm(v0)
    if nrm == 0:
        raise ValueError("Arnoldi start vector is zero")
    V[0] = v0 / nrm
    j_done = 0
    broke = False
    for j in range(steps):
        w = np.asarray(matvec(V[j]), dtype=dtype).ravel()
        h = _cgs_pass(V[: j + 1], w)
        c = _cgs_pass(V[: j + 1], w)
        Hm[: j + 1, j] = h + c
        hnext = np.linalg.norm(w)
        j_done = j + 1
        if hnext <= 1e-12 * max(1.0, np.linalg.norm(Hm[: j + 1, j])):
            broke = True
            break
        Hm[j + 1, j] = hnext
        V[j + 1] = w / hnext
    ritz = np.linalg.eigvals(Hm[:j_done, :j_done])
    return ritz, broke


def _cgs_pass(V, w):
    """One classical Gram-Schmidt pass of w against the rows of V: returns
    the coefficients h = V* w and subtracts h V from w in place. On complex
    data w is conjugated rather than the (larger) basis."""
    if np.iscomplexobj(V):
        h = (V @ w.conj()).conj()
    else:
        h = V @ w
    w -= h @ V
    return h


def _realify(z):
    """z (an array or a scalar) as a flat complex array, with each imaginary
    part at most _REAL_TOL (1 + |Re z|) set to zero."""
    z = np.asarray(z, dtype=complex).ravel()
    near = np.abs(z.imag) <= _REAL_TOL * (1.0 + np.abs(z.real))
    return np.where(near, z.real, z)


def _dedupe(points, tol=1e-8):
    """The points (a complex array) in order, less each one that lies within
    tol (1 + |z|) of a point kept before it.

    Distances are libm hypot, as Python's abs of a complex computes them.
    A point with no close point before it is kept; the others are decided
    in order, since whether one is kept depends on which earlier ones were.
    """
    z = np.asarray(points, dtype=complex).ravel()
    gap = z[:, None] - z
    radius = tol * (1.0 + np.hypot(z.real, z.imag))
    close = np.tril(~(np.hypot(gap.real, gap.imag) > radius[:, None]), -1)
    keep = ~close.any(axis=1)
    for i in np.flatnonzero(~keep):
        keep[i] = not (close[i] & keep).any()
    return z[keep]


def _hamiltonian_ops(problem):
    """Matvec and inverse-matvec with the Hamiltonian, never forming BB* or
    C*C; the inverse uses a low-rank update of the solve with A. Both work
    in the dtype of A (B and C are real)."""
    A = problem.A.tocsc()
    B = problem.B
    C = problem.C
    n = problem.n
    lu = sparse_lu(A)
    Astar_mv = A.conj().T.tocsr()

    def matvec(x):
        x1, x2 = x[:n], x[n:]
        top = A @ x1 - B @ (B.conj().T @ x2)
        bot = -C.conj().T @ (C @ x1) - Astar_mv @ x2
        return np.concatenate([top, bot])

    # pieces of the Woodbury-corrected solve with A + B(B*A^{-*}C*)C
    AsinvCt = lu.solve(C.conj().T, trans="H")
    mid = B.conj().T @ AsinvCt          # q x p
    U = B @ mid                         # n x p
    AinvU = lu.solve(U)
    small = np.eye(problem.p) + C @ AinvU

    def invvec(x):
        x1, x2 = x[:n], x[n:]
        r = x1 - B @ (B.conj().T @ lu.solve(x2, trans="H"))
        base = lu.solve(r)
        y1 = base - AinvU @ np.linalg.solve(small, C @ base)
        y2 = -lu.solve(x2 + C.conj().T @ (C @ y1), trans="H")
        return np.concatenate([y1, y2])

    return matvec, invvec


def penzl_shifts(problem, m=10, m1=20, m2=10, mode="on_A") -> ShiftSequence:
    """Greedy shift selection from Ritz values.

    Two Krylov runs (m1 steps with the operator, m2 with its inverse) supply
    Ritz values of A (mode ``on_A``, the default) or of the Hamiltonian
    (mode ``on_H``, where only Ritz values with positive real part are kept).
    Both are Arnoldi runs with classical Gram-Schmidt applied twice
    (``_arnoldi_ritz``); the products with A use it as stored. Stable Ritz
    values of A are mirrored into the right half-plane. The greedy pass
    (``_greedy_shifts``) seeds with the candidate minimizing the
    single-shift rational objective over the Ritz set, then repeatedly adds
    the candidate where the current product is largest (i.e. least damped).
    Conjugate pairs are kept together; when only one slot remains and the
    best candidate is complex, the best real candidate is preferred, and if
    none exists the pair is appended anyway (one shift over m) with a note.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > m1 + m2:
        raise ValueError(f"m={m} exceeds the Krylov budget m1+m2={m1 + m2}")
    notes = []
    if mode == "on_A":
        n = problem.n
        A = problem.A
        v0 = problem.B[:, 0].astype(np.result_type(A.dtype, float))
        if np.linalg.norm(v0) == 0:
            v0 = np.ones(n, dtype=v0.dtype)
        lu = sparse_lu(A)
        ritz_op, br1 = _arnoldi_ritz(lambda x: A @ x, v0, min(m1, n))
        ritz_inv, br2 = _arnoldi_ritz(lu.solve, v0, min(m2, n))
        ritz = np.concatenate([ritz_op, 1.0 / ritz_inv[ritz_inv != 0]])
        mirrored = -np.conj(ritz)
    elif mode == "on_H":
        matvec, invvec = _hamiltonian_ops(problem)
        v0 = np.ones(2 * problem.n, dtype=np.result_type(problem.A.dtype,
                                                          float))
        ritz_op, br1 = _arnoldi_ritz(matvec, v0, min(m1, 2 * problem.n))
        ritz_inv, br2 = _arnoldi_ritz(invvec, v0, min(m2, 2 * problem.n))
        mirrored = np.concatenate([ritz_op, 1.0 / ritz_inv[ritz_inv != 0]])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if br1 or br2:
        notes.append("arnoldi breakdown; candidate set may be small")

    spectrum = _dedupe(_realify(mirrored[mirrored.real > 0]))
    if not spectrum.size:
        raise ValueError("no Ritz-derived candidates with positive real part")
    chosen, greedy_notes = _greedy_shifts(spectrum, spectrum, m)
    notes.extend(greedy_notes)
    if len(chosen) < m:
        notes.append(f"only {len(chosen)} distinct candidates available")
        warnings.warn(
            f"requested {m} shifts but only {len(chosen)} candidates were "
            f"available", stacklevel=2,
        )
    return ShiftSequence(tuple(chosen),
                         origin="penzl_A" if mode == "on_A" else "penzl_H",
                         notes=tuple(notes))


def _greedy_shifts(spectrum, pool, m):
    """The greedy pass of ``penzl_shifts`` over the candidates ``pool``,
    scored on ``spectrum`` (both complex arrays as ``_dedupe`` leaves them):
    returns (chosen shifts, notes).

    The scores are arrays over the whole pool that pick what the scalar
    loops did (the oracles in the tests): the seed is the first minimum of
    ``rational_objective([c], spectrum)``, and a growth score is built
    factor by factor in the order of the chosen shifts, each factor a
    quotient of libm hypot distances as Python's abs computes them.
    """
    size = np.hypot(pool.real, pool.imag)
    is_real = np.abs(pool.imag) <= _REAL_TOL * (1.0 + size)
    remaining = np.ones(pool.size, dtype=bool)
    notes = []

    def grab(i):
        """Take candidate i (and its conjugate partner when complex) out of
        the remaining ones. A pair comes out with its positive imaginary
        part first, whichever member was picked (a tie between the two falls
        to pool order)."""
        z = pool[i]
        out = [z]
        remaining[i] = False
        if not is_real[i]:
            gap = pool - np.conj(z)
            near = remaining & (np.hypot(gap.real, gap.imag)
                                <= 1e-8 * (1.0 + size[i]))
            if near.any():
                partner = int(np.argmax(near))
                remaining[partner] = False
                out.append(pool[partner])
            else:
                out.append(np.conj(z))
            out.sort(key=lambda w: -w.imag)
        return out

    # rational_objective([c], spectrum) of every candidate c, to be minimized
    chosen = grab(_first_max(-_damping(pool, spectrum).max(axis=1)))

    score = np.ones(pool.size)
    scored = 0
    while len(chosen) < m and remaining.any():
        for a in chosen[scored:]:
            num, den = pool - np.conj(a), pool + a
            score *= np.hypot(num.real, num.imag) / np.hypot(den.real, den.imag)
        scored = len(chosen)
        left = np.flatnonzero(remaining)
        best = left[_first_max(score[left])]
        if not is_real[best] and m - len(chosen) == 1:
            reals = left[is_real[left]]
            if reals.size:
                best = reals[_first_max(score[reals])]
            else:
                notes.append("appended a conjugate pair into the last slot")
        chosen.extend(grab(best))
    return chosen, notes


def projected_ritz(basis, problem, current_solution=None, mode="plain"):
    """Ritz values of A (or of A - BB*X for the current approximate solution
    in ``stabilized`` mode) on the span of ``basis``."""
    if mode not in ("plain", "stabilized"):
        raise ValueError(f"unknown mode {mode!r}")
    U = np.asarray(basis)
    if U.ndim == 1:
        U = U[:, None]
    gram = U.conj().T @ U
    if np.linalg.norm(gram - np.eye(U.shape[1])) > 1e-8:
        U = np.linalg.qr(U)[0]
        gram = U.conj().T @ U
    W = problem.A @ U
    if mode == "stabilized" and current_solution is not None:
        XU = current_solution.apply(U)
        W = W - problem.B @ (problem.B.conj().T @ XU)
    small = np.linalg.solve(gram, U.conj().T @ W)
    return np.linalg.eigvals(small)


def _hull_candidates(mu):
    """Candidate points for the pole search, as a complex array: interior
    grid points between consecutive mirrored Ritz values mu when they are
    all real, otherwise a discretization of the boundary of their
    conjugation-closed convex hull. mu is as ``_dedupe`` leaves it."""
    mu = np.asarray(mu, dtype=complex)
    if np.all(np.abs(mu.imag) <= 1e-8 * (1.0 + np.hypot(mu.real, mu.imag))):
        xs = np.sort(mu.real)
        lo, hi = xs[:-1], xs[1:]
        wide = hi - lo > 1e-14 * (1.0 + np.abs(hi))
        grid = np.linspace(lo[wide], hi[wide], 34, axis=1)[:, 1:-1]
        return grid.ravel().astype(complex)
    # the points of mu lie apart from each other (``_dedupe``), so their
    # conjugates do too: the hull's points are mu and the conjugates that
    # lie apart from all of mu, as _dedupe of both would leave them
    gap = mu.conj()[:, None] - mu
    apart = np.all(np.hypot(gap.real, gap.imag)
                   > 1e-8 * (1.0 + np.hypot(mu.real, mu.imag))[:, None],
                   axis=1)
    pts = np.concatenate([mu, mu.conj()[apart]])
    try:
        from scipy.spatial import ConvexHull
        ends = ConvexHull(np.column_stack([pts.real, pts.imag])).simplices.T
        t = np.linspace(0.0, 1.0, 18)[1:-1]
    except Exception:
        # degenerate geometry (collinear points etc): fall back to segments
        # between every pair
        ends = np.triu_indices(len(pts), 1)
        t = np.linspace(0.0, 1.0, 10)[1:-1]
    za, zb = pts[ends[0]], pts[ends[1]]
    return (za[:, None] + t * (zb - za)[:, None]).ravel()


def adaptive_pole(basis_so_far, problem, current_solution=None,
                  existing_poles=(), mode="plain") -> complex:
    """Next pole by the greedy rational criterion on mirrored Ritz values.

    The projected operator's stable Ritz values are mirrored into the right
    half-plane; candidate points discretize the region they span, and the
    returned pole maximizes prod |s - alpha_i| / prod |s - mu_j| over the
    candidates (largest value of the reciprocal of the rational function with
    zeros at the mirrored Ritz values and poles at the shifts already used).
    With no existing poles the single-shift rational objective is minimized
    instead. A complex result is returned as-is; the caller is responsible
    for also using its conjugate.

    If no Ritz value is stable, the most recent existing pole is returned
    with a warning.
    """
    return _mirrored_ritz_pole(
        projected_ritz(basis_so_far, problem, current_solution, mode),
        existing_poles)


def _mirrored_ritz_pole(theta, existing_poles=()) -> complex:
    """The scoring step of ``adaptive_pole``, given the Ritz values theta of
    the projected operator (for callers that hold the projected matrix)."""
    stable = theta[theta.real < 0]
    if stable.size == 0:
        if len(existing_poles) > 0:
            warnings.warn(
                "no stable Ritz value on the current space; reusing the most "
                "recent pole", stacklevel=3,
            )
            return complex(existing_poles[-1])
        raise ValueError("no stable Ritz values and no previous pole to reuse")
    # mu is realified already, so a point of it is returned as it is
    mu = _dedupe(_realify(-np.conj(stable)))
    if len(mu) == 1:
        return complex(mu[0])
    cands = _hull_candidates(mu)
    # |c - z| as Python's abs of a complex computes it (libm hypot), which
    # numpy's abs of a complex array does not always match to the last bit
    gap = cands[:, None] - mu
    near = np.hypot(gap.real, gap.imag).min(axis=1)
    cands = cands[near > 1e-12 * (1.0 + np.hypot(cands.real, cands.imag))]
    if not cands.size:
        return complex(mu[0])
    if len(existing_poles):
        # the products are formed factor by factor in the order of the
        # poles and then of the Ritz values, as a scalar loop would
        num = np.ones(cands.size)
        for a in existing_poles:
            d = cands - complex(a)
            num *= np.hypot(d.real, d.imag)
        den = np.ones(cands.size)
        for z in mu:
            d = cands - z
            den *= np.hypot(d.real, d.imag)
        score = num / den
    else:
        # rational_objective([c], mu) of every candidate c, to be minimized
        score = -_damping(cands, mu).max(axis=1)
    return complex(_realify(cands[_first_max(score)])[0])


def _first_max(score):
    """The index ``max(range(len(score)), key=score.__getitem__)`` picks:
    the first largest entry, where a NaN is passed over unless it comes
    first."""
    if np.isnan(score[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(score), -np.inf, score)))
