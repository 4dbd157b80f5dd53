"""Incremental low-rank subspace iteration (one sparse solve per step).

The iterate is X_k = V T^{-1} V* with V = [v_1, ..., v_k] growing by p
columns per step and T = blkdiag(Y_1, ..., Y_k). The step is written in
residual-factor form (the RADI recursion of Benner, Bujanovic, Kurschner and
Saak, which produces the same iterates): the state is an n x p factor R_k
with residual R(X_k) = R_k R_k*, and each step solves the closed-loop
shifted system once with R_{k-1}. The residual norm is ||R_k* R_k||_F.

Neither V nor T is stored. V lives in its thin QR V = Q R (``_BasisQR``),
grown by p columns per step, whose small R also gives the history's rank
column; T lives in its p x p inverse blocks Y_k^{-1}. The solution is the
form both iterations return, X = Z Z* (``LowRankSolution``), compressed
from Q (R T^{-1} R*) Q* to the numerical rank.

Real data (A and E real; B and C always are) stays in real arithmetic: the
state starts as float64 and only a complex shift promotes it. The shifted
systems are factored and solved by ``ShiftedSolver``, which both iterations
use: it factors each real shift in real arithmetic, applies the factor of a
complex shift also to its conjugate, and uses the LU column ordering chosen
once per problem from the sparsity pattern of A and E (``lu_ordering``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.sparse.linalg import splu

from .problems import CareProblem, lu_ordering

CSV_HEADER = "iter,dim,rank,rel_residual,seconds"


class SolverBreakdown(RuntimeError):
    """Raised when a shifted solve is singular or yields non-finite values;
    carries the offending shift and the partial history if any."""

    def __init__(self, message, shift=None, history=None):
        super().__init__(message)
        self.shift = shift
        self.history = history


def _fmt(x) -> str:
    if x != x:  # nan
        return "nan"
    return format(float(x), ".17g")


@dataclass
class HistoryRecord:
    iteration: int
    dim: int
    rank: int
    rel_residual: float
    seconds: float


@dataclass
class ConvergenceHistory:
    """Per-iteration convergence records plus a terminal status."""

    records: list = field(default_factory=list)
    status: str = "running"

    def append(self, iteration, dim, rank, rel_residual, seconds=0.0):
        self.records.append(
            HistoryRecord(iteration, dim, rank, float(rel_residual), seconds)
        )

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.iteration},{r.dim},{r.rank},"
                f"{_fmt(r.rel_residual)},{_fmt(r.seconds)}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class LowRankSolution:
    """X = V V*, the form both solvers return. ``dim`` is the width of the
    factor V, which can be smaller than the dimension of the space the
    solver built; that dimension is in the solver's history."""

    V: np.ndarray
    shifts_used: tuple = ()

    @classmethod
    def from_basis(cls, Q, M, shifts_used):
        """X = Q M Q* for a Hermitian positive semidefinite core M, as
        V = Q W sqrt(L) from the eigenpairs (L, W) of M. Eigenvalues at most
        1e-14 of the largest are dropped, so V is as wide as the numerical
        rank of X."""
        lam, W = np.linalg.eigh(0.5 * (M + M.conj().T))
        keep = lam > 1e-14 * max(lam.max(initial=0.0), 1e-300)
        return cls(Q @ (W[:, keep] * np.sqrt(lam[keep])), tuple(shifts_used))

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    def apply(self, M):
        """X @ M without forming X."""
        return self.V @ (self.V.conj().T @ M)

    def to_dense(self):
        """X in the dtype of V, except that a nonempty complex V whose X is
        numerically real (real data with complex shifts) gives a real X."""
        X = self.V @ self.V.conj().T
        X = 0.5 * (X + X.conj().T)
        if self.dim and np.linalg.norm(X.imag) <= \
                1e-10 * max(1.0, np.linalg.norm(X)):
            X = np.ascontiguousarray(X.real)
        return X


class ResidualTracker:
    """Thin QR (``_BasisQR``) of [C*, A*V, E*V] in arrival order (C* first,
    then one [A*v_k, E*v_k] pair per step), with the bookkeeping needed to
    evaluate the residual norm as a sandwich R M R*. Q R reproduces every
    tracked column, so ||J M J*||_F = ||R M R*||_F."""

    def __init__(self, problem: CareProblem):
        self.p = problem.p
        Cstar = problem.C.conj().T
        self.qr = _BasisQR(problem.n, Cstar.dtype)
        self.qr.add(Cstar)
        self.widths = []

    def add_step(self, x_cols, y_cols):
        if x_cols.shape[1] != y_cols.shape[1]:
            raise ValueError("paired blocks must have equal column counts")
        self.qr.add(np.hstack([x_cols, y_cols]))
        self.widths.append(x_cols.shape[1])

    def _perm(self):
        """Arrival position -> position in the canonical column order
        [C* | all A*v blocks | all E*v blocks]. Step blocks may have
        different widths (a deflated step contributes fewer columns)."""
        p = self.p
        total = sum(self.widths)
        perm = np.empty(p + 2 * total, dtype=int)
        perm[:p] = np.arange(p)
        base = p
        offset = 0
        for w in self.widths:
            perm[base: base + w] = p + offset + np.arange(w)
            perm[base + w: base + 2 * w] = p + total + offset + np.arange(w)
            base += 2 * w
            offset += w
        return perm

    def weighted_norm(self, middle) -> float:
        """Frobenius norm of J M J* for J the tracked columns (canonical
        order), evaluated as ||R M_perm R*||_F."""
        perm = self._perm()
        Mp = middle[np.ix_(perm, perm)]
        R = self.qr.R
        return float(np.linalg.norm(R @ Mp @ R.conj().T))


def _middle_matrix(Tinv_like, VFV, p):
    """Center factor of the residual sandwich for columns [C*, A*V, E*V]:
    [[I, 0, 0], [0, 0, S], [0, S, -S (V*FV) S]] with S the (inverted) small
    matrix linking V to the iterate."""
    kp = Tinv_like.shape[0]
    M = np.zeros((p + 2 * kp, p + 2 * kp),
                 dtype=np.result_type(Tinv_like, VFV))
    M[:p, :p] = np.eye(p)
    M[p: p + kp, p + kp:] = Tinv_like
    M[p + kp:, p: p + kp] = Tinv_like
    M[p + kp:, p + kp:] = -Tinv_like @ VFV @ Tinv_like
    return M


class _BasisQR:
    """Thin QR V = Q R of a growing set of columns. It has three users:
    ilrsi's basis V, whose rank column comes from the small R (with Q
    orthonormal, V and R have the same singular values); the columns of the
    residual tracker; and rksm's orthonormal basis U, which is Q itself.

    Each block of new columns is orthogonalized against Q by block classical
    Gram-Schmidt run twice (BCGS2), with a column-pivoted QR of the block
    between the passes. A column whose pivot there is at most ``noise_tol``
    of its norm (one already in span(Q), or a repeat within the block) adds
    only coefficients to R. ``noise_tol`` is 1e-13 for ilrsi and the
    tracker, whose Q R must reproduce every column. rksm passes 1e-10: its
    basis only has to span the space, and at 1e-13 it keeps directions that
    are dependent up to rounding, which make its bases larger. A unit column
    that the second pass shrinks below ``_drop_tol`` lay mostly in span(Q)
    and is left out too (found by a second pivoted QR), so Q keeps
    orthonormal columns, at most n of them.
    R has a row per column of Q and a column per column of V. Q lives in a
    buffer that doubles its capacity when full; products with it are formed
    as (W* Q)*, which never copies its conjugate."""

    _drop_tol = 0.5

    def __init__(self, n, dtype, noise_tol=1e-13):
        self._noise_tol = noise_tol
        self._buf = np.zeros((n, 0), dtype=dtype)
        self._k = 0
        self.R = np.zeros((0, 0), dtype=dtype)

    @property
    def Q(self):
        """The orthonormal columns, a view into the buffer."""
        return self._buf[:, :self._k]

    def add(self, W):
        dtype = np.result_type(self._buf, W)
        if dtype != self._buf.dtype:
            self._buf = self._buf.astype(dtype)
        Q = self.Q
        S1 = (W.conj().T @ Q).conj().T
        Y, R1p, piv1 = scipy.linalg.qr(W - Q @ S1, mode="economic",
                                       pivoting=True)
        d = np.abs(np.diag(R1p))
        noise = d <= self._noise_tol * np.linalg.norm(W[:, piv1[:d.size]],
                                                      axis=0)
        r = int(np.argmax(noise)) if noise.any() else d.size
        Y = Y[:, :r]
        R1 = np.empty((r, W.shape[1]), dtype=R1p.dtype)
        R1[:, piv1] = R1p[:r]
        S2 = (Y.conj().T @ Q).conj().T
        Z, Rz, piv = scipy.linalg.qr(Y - Q @ S2, mode="economic",
                                     pivoting=True)
        m = int(np.count_nonzero(np.abs(np.diag(Rz)) > self._drop_tol))
        R22 = np.empty_like(Rz[:m])
        R22[:, piv] = Rz[:m]
        k, c = self.R.shape
        R = np.zeros((k + m, c + W.shape[1]), dtype=dtype)
        R[:k, :c] = self.R
        R[:k, c:] = S1 + S2 @ R1
        R[k:, c:] = R22 @ R1
        self.R = R
        if k + m > self._buf.shape[1]:
            buf = np.zeros((self._buf.shape[0], max(2 * self._buf.shape[1],
                                                    k + m)), dtype=dtype)
            buf[:, :k] = Q
            self._buf = buf
        self._buf[:, k:k + m] = Z[:, :m]
        self._k = k + m

    def rank(self, tol) -> int:
        """Count of singular values of V above tol times the largest."""
        if self.R.size == 0:
            return 0
        s = np.linalg.svd(self.R, compute_uv=False)
        return int(np.count_nonzero(s > tol * s[0]))


def _data_dtype(problem: CareProblem):
    """float64 when A and E are real (B and C always are), else complex."""
    E = problem.E
    return np.result_type(problem.A.dtype, float,
                          float if E is None else E.dtype)


class ShiftedSolver:
    """Applies (-A* + alpha E*)^{-1}, factoring once per distinct shift; the
    one place where the iterations factor and solve shifted systems.

    It holds A* and E* in the dtype of the data (float64 when A and E are
    real; B and C always are), the LU column ordering chosen from their
    sparsity pattern (``lu_ordering``) and the factor cache. On real data a
    real shift is factored in real arithmetic, and a complex shift whose
    conjugate is already factored reuses that factor, because
    (-A* + conj(alpha) E*)^{-1} y = conj((-A* + alpha E*)^{-1} conj(y)).
    Any other shift gets one complex factor. SuperLU cannot apply a real
    factor to a complex right-hand side, so such a right-hand side is solved
    as its real and imaginary parts side by side."""

    def __init__(self, problem: CareProblem):
        E = problem.E
        self.n = problem.n
        self.dtype = _data_dtype(problem)
        self.Astar = problem.A.conj().T.tocsc().astype(self.dtype)
        self.Estar = None if E is None else \
            E.conj().T.tocsc().astype(self.dtype)
        self.permc_spec = lu_ordering(problem.A, E)
        self.cache = {}

    def solve(self, alpha, rhs):
        key = complex(alpha)
        real_data = self.dtype.kind != "c"
        if real_data and key not in self.cache and \
                key.conjugate() in self.cache:
            return self.cache[key.conjugate()].solve(rhs.conj()).conj()
        real_factor = real_data and key.imag == 0
        lu = self.cache.get(key)
        if lu is None:
            shift = key.real if real_factor else key
            E = sp.identity(self.n, format="csc") if self.Estar is None \
                else self.Estar
            try:
                lu = splu(shift * E - self.Astar, permc_spec=self.permc_spec)
            except RuntimeError as exc:
                raise SolverBreakdown(
                    f"-A* + alpha E* is singular for alpha = {key}", shift=key
                ) from exc
            self.cache[key] = lu
        if real_factor and np.iscomplexobj(rhs):
            m = rhs.shape[1]
            X = lu.solve(np.hstack([rhs.real, rhs.imag]))
            return X[:, :m] + 1j * X[:, m:]
        return lu.solve(rhs)


@dataclass
class IlrsiState:
    """Loop state: the thin QR V = Q R of the basis, the inverses Y_k^{-1}
    of the diagonal blocks of T, the n x p residual factor R_k, the
    feedback K_k = E* X_k B, and the shifted solves with their cached
    factorizations."""

    problem: CareProblem
    basis: _BasisQR = field(repr=False)
    Y_inv: list
    residual_factor: np.ndarray
    K: np.ndarray
    shifts_used: list
    shifted: ShiftedSolver = field(repr=False)

    @property
    def dim(self) -> int:
        """Columns of V, p per step."""
        return self.basis.R.shape[1]

    @property
    def solution(self) -> LowRankSolution:
        """X = Q (R T^{-1} R*) Q*, compressed to its numerical rank."""
        R = self.basis.R
        return LowRankSolution.from_basis(
            self.basis.Q, R @ block_diag(*self.Y_inv) @ R.conj().T,
            self.shifts_used)


def ilrsi_step(state: IlrsiState, alpha) -> IlrsiState:
    """Advance the iteration by one shift, in residual-factor form:

        v_k   = -2 a_k (-A* + alpha_k E* + K B*)^{-1} R_{k-1}
        Y_k   = 2 a_k I + (B* v_k)* (B* v_k) / (2 a_k)
        R_k   = R_{k-1} + 2 a_k E* v_k Y_k^{-1}
        K_k   = K_{k-1} + E* v_k Y_k^{-1} (v_k* B)

    The closed-loop solve is one cached solve with [R, K] and a q x q
    Woodbury correction. v_k joins the thin QR of V, and Y_k^{-1} the
    inverse blocks of T.
    """
    alpha = complex(alpha)
    a = alpha.real
    if a <= 0:
        raise ValueError(f"shift must have positive real part, got {alpha}")
    p = state.problem.p
    Bh = state.problem.B.conj().T
    S = state.shifted.solve(alpha,
                            np.hstack([state.residual_factor, state.K]))
    SR, SK = S[:, :p], S[:, p:]
    try:
        corr = np.linalg.solve(np.eye(SK.shape[1]) + Bh @ SK, Bh @ SR)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(
            f"closed-loop correction is singular for alpha = {alpha}",
            shift=alpha,
        ) from exc
    v = -2.0 * a * (SR - SK @ corr)
    if not np.isfinite(v).all():
        raise SolverBreakdown(
            f"shifted solve produced non-finite values for alpha = {alpha}",
            shift=alpha,
        )
    w = Bh @ v
    Yk = 2.0 * a * np.eye(p) + (w.conj().T @ w) / (2.0 * a)
    Estar = state.shifted.Estar
    ev = v if Estar is None else Estar @ v
    Yinv = np.linalg.inv(Yk)
    evY = ev @ Yinv
    state.residual_factor = state.residual_factor + 2.0 * a * evY
    state.K = state.K + evY @ w.conj().T
    state.basis.add(v)
    state.Y_inv.append(Yinv)
    state.shifts_used.append(alpha)
    return state


def ilrsi_init(problem: CareProblem, alpha1) -> IlrsiState:
    """First step from R_0 = C*, K_0 = 0: v_1 = -2 a_1 (-A* + alpha_1 E*)^{-1}
    C* and Y_1 = 2 a_1 I + (1 / 2 a_1) (B* v_1)* (B* v_1).

    The state is float64 when A and E are real (B and C always are)."""
    n = problem.n
    shifted = ShiftedSolver(problem)
    dtype = shifted.dtype
    state = IlrsiState(
        problem=problem,
        basis=_BasisQR(n, dtype),
        Y_inv=[],
        residual_factor=problem.C.conj().T.astype(dtype),
        K=np.zeros((n, problem.q), dtype=dtype),
        shifts_used=[],
        shifted=shifted,
    )
    return ilrsi_step(state, alpha1)


def residual_norm(problem: CareProblem, residual_factor) -> float:
    """Frobenius norm of A*XE + E*XA - E*X BB* X E + C*C at an iterate whose
    residual is R R* for the n x p factor R (``IlrsiState.residual_factor``),
    as ||R* R||_F, never forming the n x n residual."""
    R = np.asarray(residual_factor)
    if R.shape != (problem.n, problem.p):
        raise ValueError(
            f"residual factor has shape {R.shape}, expected "
            f"{(problem.n, problem.p)}"
        )
    return float(np.linalg.norm(R.conj().T @ R))


_DEFAULT_OPTIONS = {
    "tol": 1e-8,
    "max_iter": 100,
    "truncation_tol": None,
    "record_timing": False,
}


def _merge_options(options, kwargs):
    opts = dict(_DEFAULT_OPTIONS)
    for src in (options or {}), kwargs:
        for key, val in src.items():
            if key not in _DEFAULT_OPTIONS:
                raise ValueError(f"unknown option {key!r}")
            opts[key] = val
    return opts


def ilrsi_solve(problem: CareProblem, shifts, options=None, **kwargs):
    """Run the incremental iteration until the relative residual drops below
    tol or max_iter steps are spent; the shift list is cycled as needed.
    truncation_tol, when given, is the relative singular-value cutoff of the
    history's rank column, in (0, 1) (default 1e-12); it does not change the
    iterate.

    Returns (solution, history). A breakdown is re-raised with the partial
    history attached.
    """
    opts = _merge_options(options, kwargs)
    shift_list = [complex(s) for s in shifts]
    if not shift_list:
        raise ValueError("shift list must be nonempty")
    tol = float(opts["tol"])
    if tol <= 0:
        raise ValueError("tol must be positive")
    max_iter = int(opts["max_iter"])
    rank_tol = 1e-12 if opts["truncation_tol"] is None \
        else float(opts["truncation_tol"])
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"truncation_tol must be in (0, 1), got {rank_tol}")

    history = ConvergenceHistory()
    if max_iter == 0:
        history.status = "max_iter"
        dtype = _data_dtype(problem)
        empty = LowRankSolution.from_basis(np.zeros((problem.n, 0), dtype),
                                           np.zeros((0, 0), dtype), ())
        return empty, history

    cc_norm = float(np.linalg.norm(problem.C @ problem.C.conj().T))
    state = None
    try:
        for it in range(1, max_iter + 1):
            alpha = shift_list[(it - 1) % len(shift_list)]
            t0 = time.monotonic()
            state = ilrsi_init(problem, alpha) if state is None \
                else ilrsi_step(state, alpha)
            rel = residual_norm(problem, state.residual_factor) / cc_norm
            seconds = (time.monotonic() - t0) if opts["record_timing"] else 0.0
            history.append(it, dim=state.dim, rank=state.basis.rank(rank_tol),
                           rel_residual=rel, seconds=seconds)
            if rel <= tol:
                history.status = "converged"
                break
        else:
            history.status = "max_iter"
    except SolverBreakdown as exc:
        history.status = "breakdown"
        exc.history = history
        raise

    return state.solution, history
