"""Problem definitions for Riccati equations with low-rank right-hand sides.

A problem is the quadruple (A, B, C, E) describing

    A* X E + E* X A - E* X B B* X E + C* C = 0,

with E optional (absent means identity). A is expected to be stable; this is
validated densely only for small problems, see ``STABILITY_CHECK_LIMIT``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

# Above this dimension the eigenvalue check of A is skipped and stability is
# trusted (running a dense eigensolve on every large problem would defeat the
# point of the low-rank machinery).
STABILITY_CHECK_LIMIT = 500


def _real_array(M, name):
    """M as a float64 array. The solvers take B and C to be real, so a
    nonzero imaginary part is an error rather than dropped."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and np.any(M.imag):
        raise ValueError(f"{name} must be real; it has a nonzero "
                         f"imaginary part")
    return np.asarray(M.real, dtype=float)


@dataclass(frozen=True)
class CareProblem:
    """Immutable Riccati problem instance.

    B holds the factor of the quadratic-term coefficient (F = B B*), C the
    factor of the constant term (G = C* C); both must be real, while A and
    E may be complex. E, when present, must be square and nonsingular.
    """

    A: sp.spmatrix
    B: np.ndarray
    C: np.ndarray
    E: sp.spmatrix | None = None
    check_stability: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        A = sp.csr_matrix(self.A)
        object.__setattr__(self, "A", A)
        B = np.atleast_2d(_real_array(self.B, "B"))
        C = np.atleast_2d(_real_array(self.C, "C"))
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(
                f"dimension mismatch between A and B: A is {n}x{n} "
                f"but B has {B.shape[0]} rows"
            )
        if C.shape[1] != n:
            raise ValueError(
                f"dimension mismatch between A and C: A is {n}x{n} "
                f"but C has {C.shape[1]} columns"
            )
        if self.E is not None:
            E = sp.csr_matrix(self.E)
            if E.shape != (n, n):
                raise ValueError(
                    f"dimension mismatch between A and E: A is {n}x{n} "
                    f"but E is {E.shape[0]}x{E.shape[1]}"
                )
            object.__setattr__(self, "E", E)
        if self.p + self.q > n / 4:
            warnings.warn(
                f"right-hand-side ranks p={self.p}, q={self.q} are not small "
                f"against n={n}; the low-rank solvers will be inefficient",
                stacklevel=2,
            )
        if self.check_stability and n <= STABILITY_CHECK_LIMIT:
            eigs = np.linalg.eigvals(A.toarray())
            worst = float(eigs.real.max())
            if worst >= 0.0:
                raise ValueError(
                    f"A must be stable (all eigenvalues in the open left "
                    f"half-plane); found real part {worst:.3e}"
                )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[1]


def factor_path(A, E=None) -> tuple:
    """How matrices with the sparsity pattern of A (plus E), shifted on the
    diagonal, are factored: ``("band", kl, ku)`` for a LAPACK band LU with
    kl subdiagonals and ku superdiagonals, or ``("superlu", permc_spec)``
    for SuperLU with that column ordering.

    The band path is taken when the band is dense: its storage with room
    for pivoting, n (2 kl + ku + 1) entries, is at most twice the nonzeros.
    The band LU runs dense kernels over the band, so it then spends little
    work on zeros at any width, and it has no symbolic analysis, ordering or
    sparse bookkeeping to pay for. The Toeplitz matrices of
    ``make_toeplitz_problem`` take the band path (1.6 times the nonzeros),
    and so does the upper triangular -A* + s I of ``random_stable_problem``
    (kl = 0, 1.99 times the nonzeros at n = 200). There, on a 2-vCPU
    x86-64 VM with one BLAS thread, a shifted factor, real or complex and
    with the shift added, takes about 0.02 ms on the band path against
    0.9-1.0 ms with SuperLU, and a two-column solve 0.015-0.025 ms against
    0.04-0.07 ms.
    2-D Laplacians on an m x m grid take SuperLU (band storage about 0.6 m
    times the nonzeros), and so does the lower triangular A of
    ``random_stable_problem`` itself (2 n^2 - n band entries against
    n^2 + n nonzeros), because pivoting may fill all of its n - 1
    superdiagonals.

    SuperLU's ordering is minimum degree on A* + A when the pattern is
    structurally symmetric, where it needs far less fill than COLAMD, and
    COLAMD otherwise."""
    S = abs(sp.csr_matrix(A))
    if E is not None:
        S = S + abs(sp.csr_matrix(E))
    S = S != 0
    n = S.shape[0]
    offset = np.repeat(np.arange(n), np.diff(S.indptr)) - S.indices
    kl = int(max(offset.max(initial=0), 0))
    ku = int(max(-offset.min(initial=0), 0))
    if n * (2 * kl + ku + 1) <= 2 * S.nnz:
        return ("band", kl, ku)
    return ("superlu", "MMD_AT_PLUS_A" if (S != S.T).nnz == 0 else "COLAMD")


def make_laplacian_problem(interior_points_per_side: int) -> CareProblem:
    """Five-point Laplacian on the unit square with m interior points per side.

    The stencil is scaled by 1/h^2 with h = 1/(m+1). B is the all-ones vector
    and C* the first canonical basis vector, so p = q = 1. A is symmetric
    negative definite.
    """
    m = int(interior_points_per_side)
    if m < 1:
        raise ValueError("interior_points_per_side must be >= 1")
    # 1/h^2 = (m+1)^2 exactly; multiply rather than divide by h*h so the
    # stencil entries stay exact integers in floating point
    scale = float((m + 1) ** 2)
    ones = np.ones(m)
    T = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], [-1, 0, 1], format="csr")
    I = sp.identity(m, format="csr")
    A = sp.csr_matrix((sp.kron(I, T) + sp.kron(T, I)) * scale)
    # scipy's kron may go through dense-block BSR for small m and leave
    # explicit zeros in the pattern; drop them so nnz reflects the stencil
    A.eliminate_zeros()
    n = m * m
    B = np.ones((n, 1))
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    # symmetric negative definite by construction; skip the eigensolve
    return CareProblem(A=sp.csr_matrix(A), B=B, C=C, check_stability=False)


def make_toeplitz_problem(n: int, normalize_b: bool = True) -> CareProblem:
    """Banded Toeplitz test matrix: diagonal 2.5, superdiagonals 1..3 equal
    to 1, first subdiagonal -1, negated.

    The unnegated matrix has its spectrum in the right half-plane, so the
    generator negates it to obtain a stable A (only spectra enter the
    methods, so nothing else changes).

    C is the alternating row [1, -2, 1, -2, ...]; B is the all-ones vector,
    divided by its norm when ``normalize_b`` (the default).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    diagonals = [2.5 * np.ones(n)]
    offsets = [0]
    if n > 1:
        diagonals.append(-1.0 * np.ones(n - 1))
        offsets.append(-1)
    for off in (1, 2, 3):
        if n > off:
            diagonals.append(np.ones(n - off))
            offsets.append(off)
    A = -sp.diags(diagonals, offsets, format="csr")
    B = np.ones((n, 1))
    if normalize_b:
        B /= np.linalg.norm(B)
    C = np.where(np.arange(n) % 2 == 0, 1.0, -2.0).reshape(1, n)
    return CareProblem(A=sp.csr_matrix(A), B=B, C=C)


def random_stable_problem(n: int, p: int, q: int, seed: int) -> CareProblem:
    """Seeded random stable problem for oracle tests.

    A = D + N with D diagonal (entries in [-10, -0.1]) and N strictly lower
    triangular, so the spectrum is exactly diag(D) regardless of N. B and C
    are dense Gaussian. Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError("need 1 <= p,q <= n")
    rng = np.random.default_rng(seed)
    d = rng.uniform(-10.0, -0.1, size=n)
    N = np.tril(rng.standard_normal((n, n)), -1) / max(1.0, np.sqrt(n))
    A = sp.csr_matrix(np.diag(d) + N)
    B = rng.standard_normal((n, q))
    C = rng.standard_normal((p, n))
    return CareProblem(A=A, B=B, C=C, check_stability=False)


def _read_matrix(path, name):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{name} file not found: {path}")
    try:
        M = mmread(path)
    except Exception as exc:
        raise ValueError(f"failed to parse {name} file {path}: {exc}") from exc
    return M


def load_problem(path_A, path_B, path_C, path_E=None) -> CareProblem:
    """Assemble a problem from MatrixMarket files.

    A (and E, if given) are expected in coordinate format, B and C in array
    format. Dimensions are cross-checked, and an E with a structurally zero
    row or column is rejected as singular.
    """
    A = sp.csr_matrix(_read_matrix(path_A, "A"))
    B = _real_array(_read_matrix(path_B, "B"), "B")
    C = _real_array(_read_matrix(path_C, "C"), "C")
    E = None
    if path_E is not None:
        E = sp.csr_matrix(_read_matrix(path_E, "E"))
        rows = np.asarray(abs(E).sum(axis=1)).ravel()
        cols = np.asarray(abs(E).sum(axis=0)).ravel()
        if (rows == 0).any() or (cols == 0).any():
            raise ValueError(f"E from {path_E} has a zero row or column (singular)")
    return CareProblem(A=A, B=B, C=C, E=E, check_stability=False)


def save_problem(problem: CareProblem, path_A, path_B, path_C, path_E=None):
    """Write a problem back to MatrixMarket files (inverse of load_problem)."""
    mmwrite(path_A, sp.coo_matrix(problem.A), precision=17)
    mmwrite(path_B, problem.B, precision=17)
    mmwrite(path_C, problem.C, precision=17)
    if problem.E is not None:
        if path_E is None:
            raise ValueError("problem has E but no path_E was given")
        mmwrite(path_E, sp.coo_matrix(problem.E), precision=17)
