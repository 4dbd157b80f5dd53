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
use: it factors each real shift in real arithmetic and applies the factor of
a complex shift also to its conjugate. How it factors is chosen once per
problem from the sparsity pattern of A and E (``factor_path``): a band that
is dense (a banded Toeplitz matrix, or a triangular one) gets a LAPACK band
LU (``gbtrf``), anything else a SuperLU factor with a fill-reducing column
ordering. ``sparse_lu`` makes
the same choice for the one-off factors of A in ``shifts``.

The factors of a fixed shift list do not depend on each other, so
``ilrsi_solve`` gives the solver the list it cycles. When a solve needs a
new factor, the solver starts the factor of the first list shift that
still needs one on a single worker thread and factors the current shift on
the calling thread, so the distinct shifts are factored two at a time with
the same factors and iterates. A SuperLU factor must be freed on the
thread that made it (dropped on another thread, its memory is never
returned), so ``ShiftedSolver.close`` drops the worker's factors on the
worker before it stops it, and ``ilrsi_solve`` runs inside the solver's
``with`` block. ``ilrsi_init`` and ``ilrsi_step`` never start a worker.
"""

from __future__ import annotations

import numbers
import operator
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import block_diag
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse.linalg import splu

from .problems import CareProblem, factor_path

CSV_HEADER = "iter,dim,rank,rel_residual,seconds"


class SolverBreakdown(RuntimeError):
    """Raised when a shifted solve is singular or yields non-finite values;
    carries the offending shift and the partial history if any."""

    def __init__(self, message, shift=None, history=None):
        super().__init__(message)
        self.shift = shift
        self.history = history


def check_stopping(tol, max_iter):
    """The stopping inputs of both solvers and of the CLI, checked: returns
    (tol, max_iter) as (float, int). Raises ValueError unless tol is a
    finite positive real and max_iter a nonnegative integer (an int, not a
    float that happens to be whole). A bool is neither."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    try:
        if isinstance(max_iter, bool):
            raise TypeError
        steps = operator.index(max_iter)
    except TypeError:
        raise ValueError(
            f"max_iter must be an integer, got {max_iter!r}") from None
    if steps < 0:
        raise ValueError(f"max_iter must be nonnegative, got {steps}")
    return tol, steps


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


@dataclass
class ConvergenceHistory:
    """Per-iteration convergence records plus a terminal status."""

    records: list = field(default_factory=list)
    status: str = "running"

    def append(self, iteration, dim, rank, rel_residual):
        self.records.append(
            HistoryRecord(iteration, dim, rank, float(rel_residual))
        )

    def to_csv(self) -> str:
        """One line per record; the seconds column is always 0 (no
        per-step timing is recorded)."""
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.iteration},{r.dim},{r.rank},{_fmt(r.rel_residual)},0"
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
        numerically real and whose shifts are closed under conjugation (as
        a multiset; real data with complex shifts) gives a real X. Between
        the two members of a conjugate pair X is complex and stays so."""
        X = self.V @ self.V.conj().T
        X = 0.5 * (X + X.conj().T)
        closed = Counter(self.shifts_used) == \
            Counter(s.conjugate() for s in self.shifts_used)
        if self.dim and closed and np.linalg.norm(X.imag) <= \
                1e-10 * max(1.0, np.linalg.norm(X)):
            X = np.ascontiguousarray(X.real)
        return X


class ResidualTracker:
    """Residual norm of rksm's Galerkin iterate X = U Y U* (E = I) from the
    block split of R(X) along U and its complement (Druskin & Simoncini,
    Syst. Control Lett. 60 (2011)). For orthonormal U, Hermitian Y and
    P = I - U U*,

        ||R||_F^2 = ||U* R U||_F^2 + 2 ||P (A* U Y + C* C U)||_F^2
                    + ||c* c||_F^2,   c = P C*,

    where U* R U comes from the projected matrices alone. The tracker keeps
    [C*, A* U], one block of A* U per step. The benchmark's per-layer
    tracing wraps ``add_step`` and ``weighted_norm`` by name, so these
    names are kept."""

    def __init__(self, problem: CareProblem):
        self.cols = problem.C.conj().T

    def add_step(self, AsN):
        """Append A* N for the basis columns N the step added."""
        self.cols = np.hstack([self.cols, AsN])

    def weighted_norm(self, U, Y, UAU, UB, CU) -> float:
        """||R(U Y U*)||_F, with UAU = U* A U, UB = U* B and CU = C U."""
        S = UAU.conj().T @ Y + CU.conj().T @ CU  # U* (A* U Y + C* C U)
        YB = Y @ UB
        projected = S + Y @ UAU - YB @ YB.conj().T
        coupling = self.cols @ np.vstack([CU, Y]) - U @ S
        c = self.cols[:, :CU.shape[0]] - U @ CU.conj().T
        return float(np.sqrt(np.linalg.norm(projected) ** 2
                             + 2.0 * np.linalg.norm(coupling) ** 2
                             + np.linalg.norm(c.conj().T @ c) ** 2))


class _BasisQR:
    """Thin QR V = Q R of a growing set of columns. It has two users:
    ilrsi's basis V, whose rank column comes from the small R (with Q
    orthonormal, V and R have the same singular values), and rksm's
    orthonormal basis U, which is Q itself.

    Each block of new columns is orthogonalized against Q by block classical
    Gram-Schmidt run twice (BCGS2), with a column-pivoted QR of the block
    between the passes. A column whose pivot there is at most ``noise_tol``
    of its norm (one already in span(Q), or a repeat within the block) adds
    only coefficients to R. ``noise_tol`` is 1e-13 for ilrsi, whose Q R
    must reproduce every column of V because its solution is formed from
    R. rksm passes 1e-10: its basis only has to span the space, and at 1e-13
    it keeps directions that are dependent up to rounding, which make its
    bases larger. A unit column that the second pass shrinks below
    ``_drop_tol`` lay mostly in span(Q) and is left out too (found by a
    second pivoted QR), so Q keeps orthonormal columns, at most n of them.
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


def _band(M, kl, ku):
    """M in the layout ``gbtrf`` factors in place: a (2 kl + ku + 1) x n
    array in Fortran order, M[i, j] at row kl + ku + i - j of column j, with
    the first kl rows left for the fill of row pivoting. Every nonzero of M
    must lie in the band; explicit zeros may lie outside it."""
    M = sp.csc_matrix(M, copy=True)
    M.sum_duplicates()
    M.eliminate_zeros()
    n = M.shape[1]
    cols = np.repeat(np.arange(n), np.diff(M.indptr))
    ab = np.zeros((2 * kl + ku + 1, n), dtype=M.dtype, order="F")
    # entry (kl + ku + i - j, j) of ab, in its Fortran-order memory
    ab.reshape(-1, order="F")[kl + ku + M.indices + cols * (2 * kl + ku)] \
        = M.data
    return ab


class _BandLU:
    """LAPACK band LU (``gbtrf``) of a matrix in the layout of ``_band``,
    which it overwrites, with the ``solve(rhs, trans)`` of a SuperLU factor
    (``gbtrs``). Like ``splu``, it raises RuntimeError for an exactly
    singular matrix."""

    _TRANS = {"N": 0, "T": 1, "H": 2}

    def __init__(self, ab, kl, ku):
        gbtrf, self._gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._lu, self._piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")
        self.kl, self.ku = kl, ku

    def solve(self, rhs, trans="N"):
        rhs = np.asarray(rhs)
        if not np.can_cast(rhs.dtype, self._lu.dtype):
            raise TypeError(f"Cannot cast array data from {rhs.dtype} to "
                            f"{self._lu.dtype} according to the rule 'safe'")
        return self._gbtrs(self._lu, self.kl, self.ku, rhs, self._piv,
                           trans=self._TRANS[trans])[0]


def _superlu(M, permc_spec):
    """SuperLU factor of the sparse matrix M with the column ordering
    permc_spec, made through this module's ``splu`` with no relaxed
    supernodes and 2-column panels, the settings ``factor_path`` explains.
    Every SuperLU factor of the package is made here."""
    return splu(M, permc_spec=permc_spec, relax=1, panel_size=2)


def sparse_lu(M):
    """LU factor of the sparse matrix M along ``factor_path(M)``: a band LU
    or a SuperLU factor from ``_superlu``, with ``relax=1`` (0.2-0.3 of the
    default's factor time on 3-D Laplacians) and ``panel_size=2`` (0.7-0.8
    on 2-D patterns). Either has ``solve(rhs, trans="N")`` with trans "N",
    "T" or "H"."""
    path = factor_path(M)
    if path[0] == "band":
        return _BandLU(_band(M, *path[1:]), *path[1:])
    return _superlu(sp.csc_matrix(M), path[1])


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask off Linux
        return os.cpu_count() or 1


class ShiftedSolver:
    """Applies (-A* + alpha E*)^{-1}, factoring once per distinct shift; the
    one place where the iterations factor and solve shifted systems.

    It holds A* and E* in the dtype of the data (float64 when A and E are
    real; B and C always are), the factor path chosen from their sparsity
    pattern (``factor_path``) and the factor cache. ``factor_path`` is
    ``("band", kl, ku)`` when the band of A* (with E*) is dense: the band of
    -A* (and of E*) is then laid out once, and each shift adds itself to a
    copy and factors it in place with LAPACK's ``gbtrf``, so a factor costs
    no sparse temporaries. Otherwise it is ``("superlu", permc_spec)``, and
    each shift gets a SuperLU factor from ``_superlu`` with that column
    ordering, ``relax=1`` (0.2-0.3 of the default's factor time on 3-D
    Laplacians) and ``panel_size=2`` (0.7-0.8 on 2-D patterns). On real data
    a real shift is factored in real arithmetic, and a complex shift whose
    conjugate is already factored reuses that factor, because
    (-A* + conj(alpha) E*)^{-1} y = conj((-A* + alpha E*)^{-1} conj(y)).
    Any other shift gets one complex factor. Neither path applies a real
    factor to a complex right-hand side, so such a right-hand side is solved
    as its real and imaginary parts side by side.

    The caller passes the shift list it cycles as ``cycle``, which decides
    both how long a factor is held and what is factored ahead. With a list
    (the default is the empty one), every factor stays, since any shift may
    come back. When a solve needs a new factor, the factor of the first list
    shift that still needs one is started on a single worker thread while
    the current shift is factored on the calling thread. That shift is never
    the current one nor, on real data, its conjugate, which the current
    factor serves; a shift needs no new factor when it has one, is being
    factored, or, on real data, its conjugate has or is. So the factors
    made are those of the same solves one at a time, plus the ones started
    for list shifts that no later solve uses. There is no worker on a host
    with one CPU, and none until a factor is started. A SuperLU factor must
    be freed on the thread that made it: dropped on any other thread, its
    memory is never returned. ``close``, which the solver's ``with`` block
    calls on exit, drops the worker's factors in a task on the worker and
    then stops it. The solver stays usable after ``close``; it refactors
    what the worker made.

    A caller that picks each shift as it goes (adaptive rksm) passes
    ``cycle=None``: then only the factor serving the latest solve is held
    (on real data, one complex factor serves a conjugate pair), a solve
    with a shift it does not serve drops it before the new factor is made,
    and nothing is factored ahead, so every factor is made and dropped on
    the calling thread. A shift that comes back later is factored again,
    which gives the same factor."""

    def __init__(self, problem: CareProblem, cycle=()):
        E = problem.E
        self.n = problem.n
        self.dtype = _data_dtype(problem)
        self.Astar = problem.A.conj().T.tocsc().astype(self.dtype)
        self.Estar = None if E is None else \
            E.conj().T.tocsc().astype(self.dtype)
        self.factor_path = factor_path(self.Astar, self.Estar)
        if self.factor_path[0] == "band":
            kl, ku = self.factor_path[1:]
            self._band_A = _band(-self.Astar, kl, ku)
            self._band_E = None if E is None else _band(self.Estar, kl, ku)
        self._cycle = None if cycle is None else \
            tuple(complex(s) for s in cycle)
        self.cache = {}
        self._pending = {}  # shift -> future of its factor on the worker
        self._worker = None
        self._worker_made = []  # cache keys whose factor the worker made

    def _factor(self, shift):
        """Factor of -A* + shift E*; shift is a float for a real factor."""
        if self.factor_path[0] == "superlu":
            E = sp.identity(self.n, format="csc") if self.Estar is None \
                else self.Estar
            return _superlu(shift * E - self.Astar, self.factor_path[1])
        kl, ku = self.factor_path[1:]
        if self._band_E is None:
            ab = self._band_A.astype(np.result_type(self._band_A, shift),
                                     order="F")
            ab[kl + ku] += shift
        else:
            ab = shift * self._band_E + self._band_A
        return _BandLU(ab, kl, ku)

    def _make(self, key):
        """Factor for the shift key, real when key and the data are."""
        real = self.dtype.kind != "c" and key.imag == 0
        try:
            return self._factor(key.real if real else key)
        except RuntimeError as exc:
            raise SolverBreakdown(
                f"-A* + alpha E* is singular for alpha = {key}", shift=key
            ) from exc

    def _serving(self, key):
        """The shift keys whose factor serves a solve with key."""
        return (key,) if self.dtype.kind == "c" else (key, key.conjugate())

    def _has(self, key) -> bool:
        """Whether a solve with the shift key needs no new factor."""
        return any(k in self.cache or k in self._pending
                   for k in self._serving(key))

    def _lookup(self, key):
        """The factor of key, waiting for the worker if it is making it;
        None if there is none."""
        future = self._pending.pop(key, None)
        if future is not None:
            self.cache[key] = future.result()
            self._worker_made.append(key)
        return self.cache.get(key)

    def _factor_ahead(self, current):
        """Start the factor of the first list shift that needs one, other
        than the current shift and the shifts it serves, on the worker."""
        skip = self._serving(current)
        key = next((k for k in self._cycle
                    if k not in skip and not self._has(k)), None)
        if key is None:
            return
        if self._worker is None:
            if _cpu_count() < 2:
                return
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="riccati-si-factor")
        self._pending[key] = self._worker.submit(self._make, key)

    def close(self):
        """Drop the factors the worker made, on the worker, and stop it."""
        if self._worker is None:
            return

        def release():
            for key in self._worker_made:
                self.cache.pop(key, None)
            # list shifts started but never solved with
            self._pending.clear()

        self._worker.submit(release).result()
        self._worker.shutdown()
        self._worker = None
        self._worker_made = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def solve(self, alpha, rhs):
        key = complex(alpha)
        if self._cycle is None:
            serving = self._serving(key)
            self.cache = {k: lu for k, lu in self.cache.items()
                          if k in serving}
        if not self._has(key):
            if self._cycle:
                self._factor_ahead(key)
            self.cache[key] = self._make(key)
        lu = self._lookup(key)
        if lu is None:  # real data, and the conjugate's factor serves
            return self._lookup(key.conjugate()).solve(rhs.conj()).conj()
        if self.dtype.kind != "c" and key.imag == 0 and \
                np.iscomplexobj(rhs):
            re, im = np.hsplit(lu.solve(np.column_stack([rhs.real,
                                                         rhs.imag])), 2)
            return (re + 1j * im).reshape(rhs.shape)
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
        if self.Y_inv:  # else no step was taken, and R is empty
            R = R @ block_diag(*self.Y_inv) @ R.conj().T
        return LowRankSolution.from_basis(self.basis.Q, R, self.shifts_used)


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


def _initial_state(problem: CareProblem, shifted: ShiftedSolver):
    """The state before the first step: R_0 = C*, K_0 = 0 and an empty
    basis, in the dtype of the data."""
    dtype = shifted.dtype
    return IlrsiState(
        problem=problem,
        basis=_BasisQR(problem.n, dtype),
        Y_inv=[],
        residual_factor=problem.C.conj().T.astype(dtype),
        K=np.zeros((problem.n, problem.q), dtype=dtype),
        shifts_used=[],
        shifted=shifted,
    )


def ilrsi_init(problem: CareProblem, alpha1) -> IlrsiState:
    """First step from R_0 = C*, K_0 = 0: v_1 = -2 a_1 (-A* + alpha_1 E*)^{-1}
    C* and Y_1 = 2 a_1 I + (1 / 2 a_1) (B* v_1)* (B* v_1).

    The state is float64 when A and E are real (B and C always are). Its
    solver keeps every factor and factors one shift at a time on the
    calling thread, so it starts no worker and needs no ``close``."""
    return ilrsi_step(_initial_state(problem, ShiftedSolver(problem)), alpha1)


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


def ilrsi_solve(problem: CareProblem, shifts, *, tol=1e-8, max_iter=100):
    """Run the incremental iteration until the relative residual drops below
    tol or max_iter steps are spent; the shift list is cycled as needed.
    The history's rank column counts the singular values of V above 1e-12
    of the largest.

    Returns (solution, history). A breakdown is re-raised with the partial
    history attached. The shifted solver is given the shifts the run can
    use, so it factors them two at a time (``ShiftedSolver``), and its
    worker is stopped on every exit.
    """
    shift_list = [complex(s) for s in shifts]
    if not shift_list:
        raise ValueError("shift list must be nonempty")
    tol, max_iter = check_stopping(tol, max_iter)

    history = ConvergenceHistory()
    cc_norm = float(np.linalg.norm(problem.C @ problem.C.conj().T))
    with ShiftedSolver(problem, shift_list[:max_iter]) as shifted:
        state = _initial_state(problem, shifted)
        try:
            for it in range(1, max_iter + 1):
                state = ilrsi_step(state,
                                   shift_list[(it - 1) % len(shift_list)])
                rel = residual_norm(problem, state.residual_factor) / cc_norm
                history.append(it, dim=state.dim,
                               rank=state.basis.rank(1e-12),
                               rel_residual=rel)
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
