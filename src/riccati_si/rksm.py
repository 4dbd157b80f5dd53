"""Galerkin rational Krylov solver and the diagnostics tying it to the
incremental subspace iteration.

rksm_solve projects the Riccati equation onto a rational Krylov space built
one resolvent solve per pole and solves the small projected equation densely
each iteration. The resolvent solves go through the shifted-solve service
the incremental iteration uses (``ShiftedSolver``): on real data the state
stays in real arithmetic until the first complex pole, real poles get real
factors, and the conjugate partner of a complex pole reuses its factor.
Adaptive poles after the first come from the eigenvalues of the projected
matrices the loop already holds, not from products with the basis, and the
residual's QR grows blockwise.

build_distinct_basis assembles the same space (with the same solves) in its
distinct-shift normal form V = [(-A*+a_1 I)^{-1}C*, ...] together with the
structured small matrix T, on which the algebraic identities (Sylvester
relation, entrywise closed form, Galerkin defect, rank-p residual) can be
checked directly.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .problems import CareProblem
from .dense import care_solve_dense, dense_threshold
from .ilrsi import (
    ConvergenceHistory,
    LowRankSolution,
    ResidualTracker,
    ShiftedSolver,
    SolverBreakdown,
    _merge_options,
    _middle_matrix,
)
from .shifts import ShiftSequence, _mirrored_ritz_pole, adaptive_pole

_DISTINCT_TOL = 1e-12


@dataclass
class RksmState:
    """Orthonormal basis with its projections onto the problem data, the
    reduced solution, and the pole log."""

    U: np.ndarray
    UAU: np.ndarray
    UB: np.ndarray
    CU: np.ndarray
    poles: list = field(default_factory=list)
    Y: np.ndarray = None
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)


@dataclass
class DistinctShiftBasisData:
    """Distinct-shift normal form of the rational Krylov space.

    V stacks the blocks (-A* + a_i E*)^{-1} C*; T is the structured small
    matrix making V T^{-1} V* the iterate; Lambda = diag(shifts) (x) I_p;
    ones stacks k copies of I_p; g and K are the Gram-weighted projections
    of C* and A* onto the space.
    """

    problem: CareProblem
    shifts: tuple
    V: np.ndarray
    T: np.ndarray
    Lambda: np.ndarray
    ones: np.ndarray
    g: np.ndarray
    K: np.ndarray


def _check_distinct(shifts):
    vals = [complex(s) for s in shifts]
    for i, a in enumerate(vals):
        if a.real <= 0:
            raise ValueError(f"shift must have positive real part, got {a}")
        for b in vals[:i]:
            if abs(a - b) <= _DISTINCT_TOL * max(1.0, abs(a)):
                raise ValueError(
                    f"repeated shift {a}: the distinct-shift form requires "
                    "pairwise distinct values"
                )
    return vals


def build_distinct_basis(problem: CareProblem, shifts) -> DistinctShiftBasisData:
    """Assemble V column-block-wise and build T by the small-matrix
    recursion (closed-form inverse factors, one growth step per shift)."""
    vals = _check_distinct(shifts)
    k = len(vals)
    p = problem.p
    shifted = ShiftedSolver(problem)
    Cstar = problem.C.conj().T
    V = np.hstack([shifted.solve(a, Cstar) for a in vals])

    W = problem.B.conj().T @ V          # q x kp, so V*FV = W^H W
    Ip = np.eye(p, dtype=complex)
    T = None
    for j, a_j in enumerate(vals, start=1):
        re_j = a_j.real
        Wj = W[:, : j * p]
        VFV = Wj.conj().T @ Wj
        if j == 1:
            T = (Ip + VFV) / (2.0 * re_j)
            continue
        # closed-form inverse of the arrow-shaped basis-change factor
        Psinv = np.zeros((j, j), dtype=complex)
        for i, a_i in enumerate(vals[: j - 1]):
            Psinv[i, i] = (a_i - a_j) / (a_i + np.conj(a_j))
            Psinv[j - 1, i] = -1.0 / (a_i + np.conj(a_j))
        Psinv[j - 1, j - 1] = -1.0 / (2.0 * re_j)
        # diagonal product of the two inverse factors
        D = np.ones(j, dtype=complex)
        for i, a_i in enumerate(vals[: j - 1]):
            D[i] = 2.0 * re_j / (a_i + np.conj(a_j))
        blk = np.zeros((j * p, j * p), dtype=complex)
        blk[: (j - 1) * p, : (j - 1) * p] = T
        blk[(j - 1) * p:, (j - 1) * p:] = 2.0 * re_j * Ip
        Pk = np.kron(Psinv, Ip)
        Dk = np.kron(np.diag(D), Ip)
        T = Pk.conj().T @ blk @ Pk \
            + (Dk.conj().T @ VFV @ Dk) / (2.0 * re_j)
        T = 0.5 * (T + T.conj().T)

    Lambda = np.kron(np.diag(vals), Ip)
    ones = np.kron(np.ones((k, 1)), Ip)
    VhV = V.conj().T @ V
    # least squares instead of a direct solve: the Gram matrix can be
    # numerically singular (overcomplete basis), and g/K are only
    # meaningful projections in the full-rank case anyway
    g = np.linalg.lstsq(VhV, V.conj().T @ Cstar, rcond=None)[0]
    K = np.linalg.lstsq(VhV, V.conj().T @ (shifted.Astar @ V), rcond=None)[0]
    return DistinctShiftBasisData(
        problem=problem, shifts=tuple(vals), V=V, T=T,
        Lambda=Lambda, ones=ones, g=g, K=K,
    )


def check_sylvester_identity(data: DistinctShiftBasisData) -> float:
    """Defect ||Lambda* T + T Lambda - V*FV - ones ones*||_F of the small
    matrix; near zero whenever T was built consistently with V."""
    W = data.problem.B.conj().T @ data.V
    VFV = W.conj().T @ W
    defect = (data.Lambda.conj().T @ data.T + data.T @ data.Lambda
              - VFV - data.ones @ data.ones.conj().T)
    return float(np.linalg.norm(defect))


def check_entrywise_T(data: DistinctShiftBasisData) -> float:
    """Max relative error of T against its blockwise closed form
    T_ij = ((V*FV)_ij + I_p) / (conj(a_i) + a_j)."""
    p = data.problem.p
    W = data.problem.B.conj().T @ data.V
    VFV = W.conj().T @ W
    k = len(data.shifts)
    Ip = np.eye(p, dtype=complex)
    scale = max(np.max(np.abs(data.T)), 1e-300)
    worst = 0.0
    for i in range(k):
        for j in range(k):
            denom = np.conj(data.shifts[i]) + data.shifts[j]
            ref = (VFV[i * p:(i + 1) * p, j * p:(j + 1) * p] + Ip) / denom
            got = data.T[i * p:(i + 1) * p, j * p:(j + 1) * p]
            err = np.max(np.abs(got - ref)) / scale
            worst = max(worst, float(err))
    return worst


def galerkin_defect(data: DistinctShiftBasisData) -> float:
    """||g - T^{-1} ones||: zero exactly when the iterate is the Galerkin
    solution on the space (rank-one C path)."""
    if data.problem.p != 1:
        raise ValueError("Galerkin defect diagnostic is defined for p = 1")
    return float(np.linalg.norm(data.g - np.linalg.solve(data.T, data.ones)))


def _dense_residual(problem: CareProblem, X):
    A = problem.A.toarray().astype(complex)
    if problem.E is not None:
        raise ValueError("dense residual diagnostic assumes E = identity")
    B, C = problem.B, problem.C
    return (A.conj().T @ X + X @ A
            - X @ B @ (B.conj().T @ X) + C.conj().T @ C)


def projected_residual_norm(problem: CareProblem, data: DistinctShiftBasisData) -> float:
    """||V* R V||_F for the residual R at X = V T^{-1} V* (dense evaluation;
    diagnostic scale only)."""
    X = data.V @ np.linalg.solve(data.T, data.V.conj().T)
    R = _dense_residual(problem, X)
    return float(np.linalg.norm(data.V.conj().T @ R @ data.V))


def residual_rank_diagnostic(problem: CareProblem, data: DistinctShiftBasisData):
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
    R = _dense_residual(problem, X)
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


# ---------------------------------------------------------------------------
# the solver

def _orthonormalize_against(U, cols, drop_tol=1e-10):
    """Orthogonalize cols against U (two passes) and among themselves,
    dropping directions whose remaining mass is below drop_tol relative to
    the incoming column norm. Returns the kept orthonormal columns, in the
    common dtype of U and cols. Products with U are formed as (W* U)*, which
    never copies the conjugate of U."""
    W = cols.astype(np.result_type(U, cols))
    incoming = np.linalg.norm(W)
    if incoming == 0.0:
        return W[:, :0]
    for _ in range(2):
        if U.shape[1]:
            W -= U @ (W.conj().T @ U).conj().T
    kept = []
    for i in range(W.shape[1]):
        w = W[:, i].copy()
        for u in kept:
            w -= u * (u.conj() @ w)
        nrm = np.linalg.norm(w)
        if nrm <= drop_tol * max(incoming, 1.0):
            continue
        w /= nrm
        for _ in range(1):
            if U.shape[1]:
                w -= U @ (w.conj() @ U).conj()
            for u in kept:
                w -= u * (u.conj() @ w)
            nn = np.linalg.norm(w)
            if nn <= drop_tol:
                w = None
                break
            w /= nn
        if w is not None:
            kept.append(w)
    if not kept:
        return W[:, :0]
    return np.column_stack(kept)


def _next_pole(problem, state, strategy, pending, it):
    """Pick the pole for the next expansion; complex poles enqueue their
    conjugate partner so the space stays conjugation-closed.

    Adaptive poles on a nonempty space come from the eigenvalues of the
    projected matrices already held: U*AU (plain) or U*(A - BB*X)U =
    U*AU - (U*B)(U*B)* Y (stabilized), the Ritz values that
    ``adaptive_pole`` would compute from U. On real data a complex pole and
    its conjugate score the same, so the pair comes with its positive
    imaginary part first, whichever member the scoring returned."""
    if isinstance(strategy, (ShiftSequence, list, tuple, np.ndarray)):
        vals = strategy.values if isinstance(strategy, ShiftSequence) else \
            [complex(s) for s in strategy]
        return complex(vals[it % len(vals)])
    if pending:
        return pending.pop(0)
    mode = "stabilized" if strategy == "adaptive_stabilized" else "plain"
    if state.U.shape[1] == 0:
        pole = adaptive_pole(np.linalg.qr(problem.C.conj().T)[0], problem,
                             existing_poles=tuple(state.poles), mode=mode)
    else:
        small = state.UAU
        if mode == "stabilized":
            small = small - state.UB @ (state.UB.conj().T @ state.Y)
        pole = _mirrored_ritz_pole(np.linalg.eigvals(small), state.poles)
    if abs(pole.imag) > 1e-12 * max(1.0, abs(pole)):
        if pole.imag < 0 and problem.A.dtype.kind != "c":
            pole = np.conj(pole)
        pending.append(np.conj(pole))
    return pole


def rksm_solve(problem: CareProblem, pole_strategy, options=None, **kwargs):
    """Expand the rational Krylov space one resolvent solve per iteration,
    solve the projected equation densely, and stop when the true relative
    residual drops below tol.

    pole_strategy is either a precomputed shift sequence (cycled) or one of
    the strings "adaptive_plain" / "adaptive_stabilized". Returns
    (solution, history) with the solution refactored as V diag-free:
    X = V V* absorbed into V (T = identity).
    """
    if problem.E is not None:
        raise ValueError("rational Krylov solver supports E = identity only")
    if isinstance(pole_strategy, str):
        aliases = {
            "adaptive_plain": "adaptive_plain", "plain": "adaptive_plain",
            "adaptive_stabilized": "adaptive_stabilized",
            "stabilized": "adaptive_stabilized",
        }
        if pole_strategy not in aliases:
            raise ValueError(f"unknown pole strategy {pole_strategy!r}")
        strategy = aliases[pole_strategy]
    else:
        strategy = pole_strategy
        seq = strategy.values if isinstance(strategy, ShiftSequence) else list(strategy)
        if not len(seq):
            raise ValueError("pole sequence must be nonempty")

    opts = _merge_options(options, kwargs)
    tol = float(opts["tol"])
    if tol <= 0:
        raise ValueError("tol must be positive")
    max_iter = int(opts["max_iter"])
    residual_every = max(1, int(opts["residual_every"]))

    n, p = problem.n, problem.p
    shifted = ShiftedSolver(problem)
    dtype = shifted.dtype
    Cstar = problem.C.conj().T
    cc_norm = float(np.linalg.norm(problem.C @ problem.C.conj().T))

    state = RksmState(
        U=np.zeros((n, 0), dtype=dtype),
        UAU=np.zeros((0, 0), dtype=dtype),
        UB=np.zeros((0, problem.q), dtype=dtype),
        CU=np.zeros((p, 0), dtype=dtype),
    )
    tracker = ResidualTracker(problem)
    pending = []
    # one continuation chain per distinct pole: a pole's first visit applies
    # its resolvent to C*, repeats raise the resolvent power; this spans the
    # same rational Krylov space as a nested construction but keeps far-apart
    # poles from collapsing each other's continuation vectors
    chains = {}
    deflated_in_a_row = 0
    if isinstance(strategy, str):
        saturation_limit = 3
    else:
        seq_len = len(strategy.values if isinstance(strategy, ShiftSequence)
                      else strategy)
        saturation_limit = seq_len + 1

    if max_iter == 0:
        state.history.status = "max_iter"
        empty = LowRankSolution(np.zeros((n, 0), dtype=dtype),
                                np.zeros((0, 0), dtype=dtype))
        return empty, state.history

    for it in range(1, max_iter + 1):
        t0 = time.monotonic()
        pole = _next_pole(problem, state, strategy, pending, it - 1)
        key = complex(pole)
        try:
            raw = shifted.solve(key, chains.get(key, Cstar))
        except SolverBreakdown as exc:
            exc.history = state.history
            raise
        chains[key] = raw / max(np.linalg.norm(raw), 1e-300)

        new_cols = _orthonormalize_against(state.U, raw)
        if new_cols.shape[1] < p:
            warnings.warn(
                f"deflated {p - new_cols.shape[1]} dependent direction(s) "
                f"at pole {key}", stacklevel=2,
            )
        state.poles.append(key)
        if new_cols.shape[1] == 0:
            deflated_in_a_row += 1
            if deflated_in_a_row >= saturation_limit:
                # the space stopped growing; the current Galerkin iterate is
                # still valid, so report the stall instead of raising
                warnings.warn(
                    f"rational Krylov space saturated for the given poles "
                    f"({deflated_in_a_row} fully deflated expansions in a "
                    f"row) before reaching tol", stacklevel=2,
                )
                state.history.status = "breakdown"
                break
            continue
        deflated_in_a_row = 0

        # U*AU grows by U*(A N), (U*(A* N))* and N*(A N) for the new columns
        # N; A* N is needed for the residual tracker anyway
        c = new_cols.shape[1]
        AN = problem.A @ new_cols
        AsN = shifted.Astar @ new_cols
        side = (np.hstack([AN, AsN]).conj().T @ state.U).conj().T
        state.UAU = np.block([
            [state.UAU, side[:, :c]],
            [side[:, c:].conj().T, new_cols.conj().T @ AN],
        ])
        state.UB = np.vstack([state.UB, new_cols.conj().T @ problem.B])
        state.CU = np.hstack([state.CU, problem.C @ new_cols])
        state.U = np.hstack([state.U, new_cols])
        tracker.add_step(AsN, new_cols)

        try:
            state.Y = care_solve_dense(state.UAU, state.UB, state.CU,
                                       check_tol=1e-6)
        except (ValueError, RuntimeError) as exc:
            raise RuntimeError(
                "projected equation has no stabilizing solution; the "
                "Galerkin step is only guaranteed for passive A "
                f"(pole {key}, dimension {state.U.shape[1]}): {exc}"
            ) from exc

        evaluate = (it % residual_every == 0) or (it == max_iter)
        rel = np.nan
        if evaluate:
            W = state.UB
            UFU = W @ W.conj().T
            mid = _middle_matrix(state.Y, UFU, p)
            rel = tracker.weighted_norm(mid) / cc_norm
        seconds = (time.monotonic() - t0) if opts["record_timing"] else 0.0
        eigs = np.linalg.eigvalsh(0.5 * (state.Y + state.Y.conj().T))
        rank = int(np.count_nonzero(eigs > 1e-12 * max(eigs.max(), 1e-300)))
        state.history.append(it, dim=state.U.shape[1], rank=rank,
                             rel_residual=rel, seconds=seconds)
        if evaluate and rel <= tol:
            state.history.status = "converged"
            break
    else:
        state.history.status = "max_iter"

    lam, Wv = np.linalg.eigh(0.5 * (state.Y + state.Y.conj().T))
    keep = lam > 1e-14 * max(lam.max(), 1e-300)
    Vout = state.U @ (Wv[:, keep] * np.sqrt(lam[keep]))
    solution = LowRankSolution(
        V=Vout, T=np.eye(Vout.shape[1], dtype=Vout.dtype),
        shifts_used=tuple(state.poles),
    )
    return solution, state.history


def mirrored_ritz_fixed_point(problem: CareProblem, k, poles0,
                              max_rounds=60, tol=1e-8, damping=0.0):
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
        closed = data.K - np.linalg.solve(data.T, VFV)
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
