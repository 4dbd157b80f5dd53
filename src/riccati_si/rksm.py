"""Galerkin rational Krylov solver and the diagnostics tying it to the
incremental subspace iteration.

rksm_solve projects the Riccati equation onto a rational Krylov space built
one resolvent solve per step and solves the small projected equation densely
each step. The orthonormal basis U grows through the blockwise thin QR
ilrsi uses (``_BasisQR``): each resolvent block is added with one
``_BasisQR.add``, and a direction is dropped (deflated) when
orthogonalization leaves at most 1e-10 of that column's own norm, so the
decision does not depend on the scale of C. The resolvent solves go through
the shifted-solve service the incremental iteration uses
(``ShiftedSolver``). On real data the whole run stays in real arithmetic:
a real pole gets a real factor, and a complex pole is taken with its
conjugate in one step, as in the real ADI step for a conjugate shift pair.
The conjugate pole's block is the conjugate of the pole's block v, so one
complex solve gives both, and [Re v, Im v] spans them. U, the projected
matrices and the projected equations are then real, and ``care_solve_dense``
solves those through the real Schur form. Complex data takes one pole per
step. Adaptive poles after the first come from the eigenvalues of the
projected matrices the loop already holds, not from products with the
basis. The residual norm comes from its block split along U and its
complement (``ResidualTracker``).

build_distinct_basis assembles the same space (with the same solves) in its
distinct-shift normal form V = [(-A*+a_1 I)^{-1}C*, ...] together with the
structured small matrix T, on which the algebraic identities (Sylvester
relation, entrywise closed form, Galerkin defect, rank-p residual) can be
checked directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .problems import CareProblem
from .dense import care_residual, care_solve_dense, dense_threshold
from .ilrsi import (
    ConvergenceHistory,
    LowRankSolution,
    ResidualTracker,
    ShiftedSolver,
    SolverBreakdown,
    _BasisQR,
    _merge_options,
)
from .shifts import ShiftSequence, _mirrored_ritz_pole, adaptive_pole

_DISTINCT_TOL = 1e-12
# A new basis direction is dropped when orthogonalization leaves at most
# this fraction of its incoming column's norm (``_BasisQR``'s noise_tol).
_DEFLATION_TOL = 1e-10


@dataclass
class RksmState:
    """Orthonormal basis (the Q of a ``_BasisQR``) with its projections onto
    the problem data, the reduced solution, and the pole log."""

    basis: _BasisQR
    UAU: np.ndarray
    UB: np.ndarray
    CU: np.ndarray
    poles: list = field(default_factory=list)
    Y: np.ndarray = None
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)

    @property
    def U(self):
        """The orthonormal basis, a view into the basis buffer."""
        return self.basis.Q


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
    if problem.E is not None:
        raise ValueError("dense residual diagnostic assumes E = identity")
    return care_residual(problem.A.toarray(), problem.B, problem.C, X)


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

def _next_pole(problem, state, strategy, pending, used):
    """Pick the pole for the next expansion; ``used`` counts the poles
    taken so far and indexes a pole list, which is cycled.

    On real data a complex pole stands for its conjugate pair, which the
    caller takes in the same step, so nothing is queued. On complex data
    a complex adaptive pole enqueues its conjugate partner in ``pending``
    so the space stays conjugation-closed.

    Adaptive poles on a nonempty space come from the eigenvalues of the
    projected matrices already held: U*AU (plain) or U*(A - BB*X)U =
    U*AU - (U*B)(U*B)* Y (stabilized), the Ritz values that
    ``adaptive_pole`` would compute from U. On real data a complex pole and
    its conjugate score the same, so the pair comes with its positive
    imaginary part first, whichever member the scoring returned."""
    if isinstance(strategy, (ShiftSequence, list, tuple, np.ndarray)):
        vals = strategy.values if isinstance(strategy, ShiftSequence) else \
            [complex(s) for s in strategy]
        return complex(vals[used % len(vals)])
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
        if problem.A.dtype.kind != "c":
            return np.conj(pole) if pole.imag < 0 else pole
        pending.append(np.conj(pole))
    return pole


def _check_pairs(poles):
    """On real data, a complex pole in a list must sit right before or
    after its conjugate, so that the loop takes the two in one step."""
    vals = [complex(s) for s in poles]
    i = 0
    while i < len(vals):
        v = vals[i]
        if v.imag != 0:
            if i + 1 == len(vals) or \
                    abs(vals[i + 1] - v.conjugate()) > 1e-10 * (1.0 + abs(v)):
                raise ValueError(
                    f"complex pole {v} at position {i} is not next to its "
                    "conjugate; on real data a pole list must hold each "
                    "conjugate pair in adjacent entries"
                )
            i += 1
        i += 1


def rksm_solve(problem: CareProblem, pole_strategy, options=None, **kwargs):
    """Expand the rational Krylov space one resolvent solve per step, solve
    the projected equation densely, and stop when the true relative
    residual drops below tol.

    pole_strategy is either a precomputed shift sequence (cycled) or one of
    the strings "adaptive_plain" / "adaptive_stabilized". Returns
    (solution, history); the solution X = U Y U*, for the orthonormal
    basis U and the projected solution Y, comes in the factored form
    X = V V* (``LowRankSolution.from_basis``).

    On real data a step takes a complex pole together with its conjugate:
    one resolvent solve gives v, the basis grows by [Re v, Im v], and both
    poles are logged, positive imaginary part first. A pole list must then
    hold each complex pole right before or after its conjugate (ValueError
    otherwise). max_iter counts poles, a pair as two; a pair is never
    split, so a run can end with max_iter + 1 poles. The history has one
    record per step, whose iteration is the number of poles used so far.
    """
    if problem.E is not None:
        raise ValueError("rational Krylov solver supports E = identity only")
    real_data = problem.A.dtype.kind != "c"
    strategy = pole_strategy
    if isinstance(strategy, str):
        if strategy not in ("adaptive_plain", "adaptive_stabilized"):
            raise ValueError(f"unknown pole strategy {strategy!r}")
        saturation_limit = 3
    else:
        seq = strategy.values if isinstance(strategy, ShiftSequence) else list(strategy)
        if not len(seq):
            raise ValueError("pole sequence must be nonempty")
        if real_data:
            _check_pairs(seq)
        saturation_limit = len(seq) + 1

    opts = _merge_options(options, kwargs)
    tol = float(opts["tol"])
    if tol <= 0:
        raise ValueError("tol must be positive")
    max_iter = int(opts["max_iter"])

    n, p = problem.n, problem.p
    shifted = ShiftedSolver(problem)
    dtype = shifted.dtype
    Cstar = problem.C.conj().T
    cc_norm = float(np.linalg.norm(problem.C @ problem.C.conj().T))

    state = RksmState(
        basis=_BasisQR(n, dtype, noise_tol=_DEFLATION_TOL),
        UAU=np.zeros((0, 0), dtype=dtype),
        UB=np.zeros((0, problem.q), dtype=dtype),
        CU=np.zeros((p, 0), dtype=dtype),
        Y=np.zeros((0, 0), dtype=dtype),
    )
    tracker = ResidualTracker(problem)
    pending = []
    # one continuation chain per distinct pole: a pole's first visit applies
    # its resolvent to C*, repeats raise the resolvent power; this spans the
    # same rational Krylov space as a nested construction but keeps far-apart
    # poles from collapsing each other's continuation vectors
    chains = {}
    # poles used so far, and poles in a row whose directions all deflated
    used = 0
    deflated_in_a_row = 0

    while used < max_iter:
        pole = _next_pole(problem, state, strategy, pending, used)
        key = complex(pole)
        try:
            raw = shifted.solve(key, chains.get(key, Cstar))
            if not np.isfinite(raw).all():
                raise SolverBreakdown(
                    f"shifted solve produced non-finite values for pole "
                    f"{key}", shift=key,
                )
        except SolverBreakdown as exc:
            state.history.status = "breakdown"
            exc.history = state.history
            raise
        chains[key] = raw / max(np.linalg.norm(raw), 1e-300)
        if real_data and key.imag != 0:
            # the conjugate pole's resolvent block is conj(raw), so
            # [Re raw, Im raw] spans both blocks in real arithmetic
            chains[key.conjugate()] = chains[key].conj()
            raw = np.hstack([raw.real, raw.imag])
            step_poles = sorted((key, key.conjugate()), key=lambda s: -s.imag)
        else:
            step_poles = [key]

        U = state.U
        state.basis.add(raw)
        new_cols = state.U[:, U.shape[1]:]
        if new_cols.shape[1] < raw.shape[1]:
            warnings.warn(
                f"deflated {raw.shape[1] - new_cols.shape[1]} dependent "
                f"direction(s) at pole {step_poles[0]}"
                + (" and its conjugate" if len(step_poles) == 2 else ""),
                stacklevel=2,
            )
        state.poles.extend(step_poles)
        used += len(step_poles)
        if new_cols.shape[1] == 0:
            deflated_in_a_row += len(step_poles)
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
        # N; the residual tracker keeps A* N for the coupling block
        c = new_cols.shape[1]
        AN = problem.A @ new_cols
        AsN = shifted.Astar @ new_cols
        side = (np.hstack([AN, AsN]).conj().T @ U).conj().T
        state.UAU = np.block([
            [state.UAU, side[:, :c]],
            [side[:, c:].conj().T, new_cols.conj().T @ AN],
        ])
        state.UB = np.vstack([state.UB, new_cols.conj().T @ problem.B])
        state.CU = np.hstack([state.CU, problem.C @ new_cols])
        tracker.add_step(AsN)

        try:
            state.Y = care_solve_dense(state.UAU, state.UB, state.CU,
                                       check_tol=1e-6)
        except (ValueError, RuntimeError) as exc:
            state.history.status = "breakdown"
            raise SolverBreakdown(
                "projected equation has no stabilizing solution; the "
                "Galerkin step is only guaranteed for passive A "
                f"(pole {key}, dimension {state.U.shape[1]}): {exc}",
                shift=key, history=state.history,
            ) from exc

        rel = tracker.weighted_norm(state.U, state.Y, state.UAU, state.UB,
                                    state.CU) / cc_norm
        eigs = np.linalg.eigvalsh(0.5 * (state.Y + state.Y.conj().T))
        rank = int(np.count_nonzero(eigs > 1e-12 * max(eigs.max(), 1e-300)))
        state.history.append(used, dim=state.U.shape[1], rank=rank,
                             rel_residual=rel)
        if rel <= tol:
            state.history.status = "converged"
            break
    else:
        state.history.status = "max_iter"

    return LowRankSolution.from_basis(state.U, state.Y, state.poles), \
        state.history


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
