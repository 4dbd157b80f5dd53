import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from riccati_si import (
    CareProblem,
    analyze_hamiltonian,
    care_residual,
    care_solve_dense,
    cayley,
    convergence_bound,
    dense_care_solve,
    dense_subspace_iteration,
    dense_threshold,
    hamiltonian_matrix,
    ilrsi_init,
    ilrsi_solve,
    ilrsi_step,
    make_toeplitz_problem,
    penzl_shifts,
    random_stable_problem,
    spectral_radius_identity_check,
    subspace_distance,
)
from riccati_si.dense import sep_estimate, sep_exact
from oracles import dense_riccati_residual, projector_distance, scalar_problem


def test_scalar_solution_exact():
    X = dense_care_solve(scalar_problem())
    assert X.shape == (1, 1)
    assert abs(X[0, 0] - 1.0) < 1e-13
    assert np.isrealobj(X)


def test_matches_scipy_reference():
    # scipy's solver is an independent implementation of the same equation
    for seed in (0, 4, 11):
        p = random_stable_problem(18, 1, 2, seed=seed)
        A = p.A.toarray()
        X = care_solve_dense(A, p.B, p.C)
        Xref = la.solve_continuous_are(A, p.B, p.C.T @ p.C,
                                       np.eye(p.B.shape[1]))
        assert np.linalg.norm(X - Xref) <= 1e-8 * np.linalg.norm(Xref)


def test_solution_is_stabilizing_and_psd():
    p = random_stable_problem(25, 1, 1, seed=7)
    X = dense_care_solve(p)
    A = p.A.toarray()
    closed = A - (p.B @ p.B.conj().T) @ X
    assert np.linalg.eigvals(closed).real.max() < 0
    assert np.linalg.eigvalsh(X).min() > -1e-10 * np.linalg.norm(X)


def test_axis_eigenvalue_rejected():
    A = np.array([[0.0]])
    B = np.zeros((1, 1))
    C = np.array([[1.0]])
    with pytest.raises(ValueError, match="imaginary axis"):
        care_solve_dense(A, B, C)


def test_generalized_E_fold_in():
    rng = np.random.default_rng(0)
    base = random_stable_problem(15, 1, 1, seed=3)
    E = np.eye(15) + 0.05 * rng.standard_normal((15, 15))
    p = CareProblem(A=base.A, B=base.B, C=base.C, E=sp.csr_matrix(E),
                    check_stability=False)
    X = dense_care_solve(p)
    R = dense_riccati_residual(p, X)
    cc = np.linalg.norm(p.C.conj().T @ p.C)
    assert np.linalg.norm(R) <= 1e-9 * cc


@pytest.mark.parametrize("gamma", [1e-3, 1e3, 1e-5, 1e5])
def test_rescaled_input_scales_solution(gamma):
    # (A, B / g, g C) has the solution g^2 X; unbalanced, the Schur solve
    # fails its residual check or miscounts stable eigenvalues on these
    p = random_stable_problem(40, 2, 2, seed=1)
    X = dense_care_solve(p)
    scaled = CareProblem(A=p.A, B=p.B / gamma, C=gamma * p.C,
                         check_stability=False)
    Xg = dense_care_solve(scaled)
    assert np.linalg.norm(Xg - gamma**2 * X) <= \
        1e-12 * np.linalg.norm(gamma**2 * X)


def test_hamiltonian_block_structure():
    p = random_stable_problem(9, 2, 1, seed=5)
    A = p.A.toarray()
    H = hamiltonian_matrix(A, p.B, p.C)
    n = 9
    assert np.array_equal(H[:n, :n], A)
    assert np.allclose(H[:n, n:], -(p.B @ p.B.conj().T))
    assert np.allclose(H[n:, :n], -(p.C.conj().T @ p.C))
    assert np.allclose(H[n:, n:], -A.conj().T)
    # J H is Hermitian for J = [[0, I], [-I, 0]]
    J = np.block([[np.zeros((n, n)), np.eye(n)],
                  [-np.eye(n), np.zeros((n, n))]])
    JH = J @ H
    assert np.linalg.norm(JH - JH.conj().T) < 1e-12 * np.linalg.norm(H)


def test_cayley_splits_unit_circle():
    p = random_stable_problem(12, 1, 1, seed=2)
    H = hamiltonian_matrix(p.A.toarray(), p.B, p.C)
    S = cayley(H, 1.7)
    mods = np.abs(np.linalg.eigvals(S))
    assert (mods < 1).sum() == 12
    assert (mods > 1).sum() == 12


def test_cayley_eigenvalue_map():
    # on a diagonal H the transform acts entrywise
    lam = np.array([-3.0, -0.5, 2.0])
    alpha = 1.0 + 0.5j
    S = cayley(np.diag(lam), alpha)
    expect = (lam - np.conj(alpha)) / (lam + alpha)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(S)),
                       np.sort_complex(expect))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cayley_singular_shift():
    with pytest.raises(ValueError, match="singular"):
        cayley(np.array([[-2.0]]), 2.0)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_iteration_converges_to_stabilizing_solution():
    p = random_stable_problem(12, 1, 1, seed=6)
    Xs = dense_care_solve(p)
    sh = penzl_shifts(p, m=4)
    seq = [sh[i % len(sh)] for i in range(16)]
    traj = dense_subspace_iteration(p, seq)
    err = np.linalg.norm(traj[-1].X - Xs) / np.linalg.norm(Xs)
    assert err < 1e-8
    # iterates stay Hermitian and grow monotonically
    prev = np.zeros((12, 12))
    for it in traj:
        X = it.X
        assert np.linalg.norm(X - X.conj().T) <= 1e-10 * np.linalg.norm(X)
        assert np.linalg.eigvalsh(X - prev).min() >= -1e-8 * max(
            np.linalg.norm(X), 1.0)
        prev = X


def test_exact_solution_is_fixed_point():
    p = random_stable_problem(10, 1, 1, seed=8)
    Xs = dense_care_solve(p)
    traj = dense_subspace_iteration(p, [2.5], X0=Xs, steps=1)
    assert np.linalg.norm(traj[0].X - Xs) <= 1e-9 * np.linalg.norm(Xs)


def test_iteration_rejects_generalized_E():
    base = random_stable_problem(8, 1, 1, seed=1)
    p = CareProblem(A=base.A, B=base.B, C=base.C,
                    E=sp.identity(8, format="csr"), check_stability=False)
    with pytest.raises(ValueError, match="identity"):
        dense_subspace_iteration(p, [1.0])


def test_analysis_distance_matches_projector_oracle():
    p = random_stable_problem(8, 1, 1, seed=100)
    vals = list(penzl_shifts(p, m=3).values)
    an = analyze_hamiltonian(p, vals)
    H = hamiltonian_matrix(p.A.toarray(), p.B, p.C)
    T, Z, sdim = la.schur(H.conj().T, output="complex", sort="lhp")
    assert sdim == 8
    start = np.vstack([np.eye(8), np.zeros((8, 8))])
    d_oracle = projector_distance(start, Z[:, :8])
    assert abs(an.d - d_oracle) < 1e-10


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [5, 10, 20])
def test_sep_estimate_matches_exact(n, seed):
    # the estimate is a power iteration with (L* L)^{-1} for the Sylvester
    # operator L, so it approaches sep from above, at a rate set by the
    # ratio r of the two smallest singular values of L
    p = random_stable_problem(n, 1, 1, seed=seed)
    an = analyze_hamiltonian(p, [1.0])
    I = np.eye(n)
    L = np.kron(I, an.T11) - np.kron(an.T22.T, I)
    s = la.svdvals(L)
    r = s[-1] / s[-2]
    exact = sep_exact(an.T11, an.T22)
    est = sep_estimate(an.T11, an.T22)
    assert exact * (1 - 1e-12) <= est <= exact * (1 + r ** 80 + 1e-12)


def _close_sep_blocks():
    # the two smallest singular values of this problem's Sylvester operator
    # are in ratio 0.97, so a fixed 40 power steps stop 7e-4 above sep
    an = analyze_hamiltonian(random_stable_problem(5, 1, 1, seed=5), [1.0])
    return an.T11, an.T22


def test_sep_estimate_runs_to_convergence():
    T11, T22 = _close_sep_blocks()
    exact = sep_exact(T11, T22)
    assert abs(sep_estimate(T11, T22) - exact) <= 1e-9 * exact


def test_sep_estimate_warns_at_its_cap():
    T11, T22 = _close_sep_blocks()
    with pytest.warns(RuntimeWarning, match="last relative change"):
        est = sep_estimate(T11, T22, iters=5)
    assert est > sep_exact(T11, T22)
    with pytest.raises(ValueError, match="iters"):
        sep_estimate(T11, T22, iters=0)


def test_analysis_estimates_sep_above_60(monkeypatch):
    calls = []

    def record(name, f):
        def wrapped(*args, **kwargs):
            out = f(*args, **kwargs)
            calls.append((name, out))
            return out
        return wrapped

    monkeypatch.setattr("riccati_si.dense.sep_exact",
                        record("exact", sep_exact))
    monkeypatch.setattr("riccati_si.dense.sep_estimate",
                        record("estimate", sep_estimate))
    an = analyze_hamiltonian(random_stable_problem(70, 1, 1, seed=70), [1.0])
    assert calls == [("estimate", an.sep)]
    assert 0.0 < an.sep < np.inf


def test_zero_start_distance_below_one():
    for seed in (0, 5, 17, 23):
        p = random_stable_problem(8, 1, 1, seed=seed)
        an = analyze_hamiltonian(p, [1.0, 2.0])
        assert 0.0 <= an.d < 1.0
        assert an.sep > 0
        assert np.isfinite(an.gamma)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_distance_bound_and_radius_identity():
    p = random_stable_problem(8, 1, 1, seed=101)
    vals = [complex(v) for v in penzl_shifts(p, m=3).values][:4]
    an = analyze_hamiltonian(p, vals)
    for k in range(1, 5):
        dist, bound = convergence_bound(an, k)
        assert dist <= bound * (1 + 1e-9)
        assert dist >= 0
    assert spectral_radius_identity_check(an) < 1e-8


def test_subspace_distance_matches_oracle():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((20, 4))
    W = rng.standard_normal((20, 4))
    assert subspace_distance(U, W) == pytest.approx(
        projector_distance(U, W), abs=1e-12)
    assert subspace_distance(U, U) < 1e-12
    # orthogonal complement directions give distance 1
    U1 = np.eye(6)[:, :2]
    W1 = np.eye(6)[:, 2:4]
    assert subspace_distance(U1, W1) == pytest.approx(1.0)


def test_dense_threshold_env(monkeypatch):
    assert dense_threshold() == 400
    monkeypatch.setenv("RICCATI_SI_DENSE_THRESHOLD", "7")
    assert dense_threshold() == 7
    p = random_stable_problem(10, 1, 1, seed=0)
    with pytest.raises(ValueError, match="dense threshold"):
        dense_care_solve(p)


def test_care_residual_definition():
    p = random_stable_problem(6, 1, 1, seed=12)
    X = dense_care_solve(p)
    R = care_residual(p.A.toarray(), p.B, p.C, X)
    assert np.allclose(R, dense_riccati_residual(p, X))
    assert np.linalg.norm(R) <= 1e-10 * np.linalg.norm(p.C.conj().T @ p.C)


def _complex_problem(E=None):
    # A with an imaginary diagonal; its real part alone solves a different
    # equation (residual 4.9e-2 against the true A)
    n = 30
    rng = np.random.default_rng(0)
    A = -5.0 * np.eye(n) + 0.2 * rng.standard_normal((n, n)) \
        + 0.5j * np.diag(rng.standard_normal(n))
    return CareProblem(A=sp.csr_matrix(A), B=rng.standard_normal((n, 1)),
                       C=rng.standard_normal((1, n)), E=E)


@pytest.mark.parametrize("generalized", [False, True])
def test_complex_data_keeps_imaginary_part(generalized):
    E = None
    if generalized:
        rng = np.random.default_rng(1)
        E = sp.csr_matrix(np.eye(30) + 0.05j * rng.standard_normal((30, 30)))
    p = _complex_problem(E)
    X = dense_care_solve(p)
    cc = np.linalg.norm(p.C.conj().T @ p.C)
    assert np.linalg.norm(dense_riccati_residual(p, X)) <= 1e-12 * cc
    if not generalized:
        ref = ilrsi_solve(p, penzl_shifts(p, m=6), tol=1e-12)[0].to_dense()
        assert np.linalg.norm(ref - X) <= 1e-10 * np.linalg.norm(X)


def test_complex_data_dense_iteration_follows_ilrsi():
    p = _complex_problem()
    shifts = list(penzl_shifts(p, m=4).values)
    traj = dense_subspace_iteration(p, shifts)
    state = None
    for a in shifts:
        state = ilrsi_init(p, a) if state is None else ilrsi_step(state, a)
    X = state.solution.to_dense()
    assert np.linalg.norm(traj[-1].X - X) <= 1e-10 * np.linalg.norm(X)


@pytest.mark.parametrize("make", [
    lambda: make_toeplitz_problem(60),
    lambda: random_stable_problem(20, 2, 2, seed=3),
])
def test_real_schur_path_matches_complex_path(make):
    # real inputs take the real Schur form; a complex dtype takes the
    # complex one, and both must give the same X
    p = make()
    A = p.A.toarray()
    assert np.any(np.abs(la.eigvals(hamiltonian_matrix(A, p.B, p.C)).imag)
                  > 1e-3)
    X = care_solve_dense(A, p.B, p.C)
    Xc = care_solve_dense(A.astype(complex), p.B, p.C)
    assert X.dtype == np.float64
    assert Xc.dtype == np.complex128
    assert np.linalg.norm(X - Xc) <= 1e-12 * np.linalg.norm(Xc)


def test_real_schur_path_reads_pair_blocks():
    # Hamiltonian eigenvalues +-eps +- i omega: their real parts, on the
    # diagonal of the real Schur form's 2 x 2 blocks, are 1e-3, but the
    # eigenvalues are 1e-11 of their modulus from the imaginary axis
    eps, omega = 1e-3, 1e8
    A = np.array([[-eps, omega], [-omega, -eps]])
    B = np.zeros((2, 1))
    C = np.array([[1.0, 0.0]])
    for dtype in (float, complex):
        with pytest.raises(ValueError, match="imaginary axis"):
            care_solve_dense(A.astype(dtype), B, C)
