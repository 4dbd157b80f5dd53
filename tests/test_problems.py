import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmwrite

from riccati_si import (
    CareProblem,
    load_problem,
    make_laplacian_problem,
    make_toeplitz_problem,
    random_stable_problem,
    save_problem,
)


def test_validation_square_A():
    with pytest.raises(ValueError, match="square"):
        CareProblem(A=sp.csr_matrix(np.ones((2, 3))), B=np.ones((2, 1)),
                    C=np.ones((1, 3)))


def test_validation_B_rows():
    with pytest.raises(ValueError, match="B"):
        CareProblem(A=sp.csr_matrix(-np.eye(3)), B=np.ones((2, 1)),
                    C=np.ones((1, 3)))


def test_validation_C_cols():
    with pytest.raises(ValueError, match="C"):
        CareProblem(A=sp.csr_matrix(-np.eye(3)), B=np.ones((3, 1)),
                    C=np.ones((1, 2)))


def test_validation_E_shape():
    with pytest.raises(ValueError, match="E"):
        CareProblem(A=sp.csr_matrix(-np.eye(3)), B=np.ones((3, 1)),
                    C=np.ones((1, 3)), E=sp.identity(2, format="csr"))


def test_unstable_A_rejected():
    A = sp.csr_matrix(np.diag([-1.0, 0.5]))
    with pytest.raises(ValueError, match="stable"):
        CareProblem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))
    # the same matrix passes with the check turned off
    p = CareProblem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)),
                    check_stability=False)
    assert p.n == 2


def test_rank_dimensions():
    p = random_stable_problem(20, 2, 3, seed=0)
    assert (p.n, p.p, p.q) == (20, 2, 3)
    assert p.B.shape == (20, 3)
    assert p.C.shape == (2, 20)


def test_laplacian_structure():
    for m in (1, 2, 3, 10, 25):
        p = make_laplacian_problem(m)
        n = m * m
        assert p.n == n
        assert p.A.nnz == 5 * n - 4 * m
        # corner stencil value -4/h^2, exact
        assert p.A[0, 0] == -4.0 * (m + 1) ** 2
        assert (p.A != p.A.T).nnz == 0
        assert np.allclose(p.B, 1.0) and p.B.shape == (n, 1)
        assert p.C[0, 0] == 1.0 and np.count_nonzero(p.C) == 1
    with pytest.raises(ValueError):
        make_laplacian_problem(0)


def test_laplacian_negative_definite():
    p = make_laplacian_problem(5)
    ev = np.linalg.eigvalsh(p.A.toarray())
    assert ev.max() < 0


def test_toeplitz_structure():
    p = make_toeplitz_problem(6, normalize_b=False)
    A = p.A.toarray()
    assert np.allclose(np.diag(A), -2.5)
    assert np.allclose(np.diag(A, -1), 1.0)
    for off in (1, 2, 3):
        assert np.allclose(np.diag(A, off), -1.0)
    assert np.allclose(np.diag(A, 4), 0.0)
    assert np.allclose(p.B, 1.0)
    assert np.allclose(p.C.ravel(), [1, -2, 1, -2, 1, -2])


def test_toeplitz_b_normalization():
    p = make_toeplitz_problem(9)
    assert np.linalg.norm(p.B) == pytest.approx(1.0)


def test_random_stable_spectrum_and_determinism():
    p1 = random_stable_problem(30, 1, 1, seed=42)
    p2 = random_stable_problem(30, 1, 1, seed=42)
    assert np.array_equal(p1.A.toarray(), p2.A.toarray())
    assert np.array_equal(p1.B, p2.B)
    ev = np.linalg.eigvals(p1.A.toarray())
    assert ev.real.max() < 0
    p3 = random_stable_problem(30, 1, 1, seed=43)
    assert not np.array_equal(p1.A.toarray(), p3.A.toarray())


def test_save_load_round_trip(tmp_path):
    p = random_stable_problem(12, 2, 1, seed=9)
    E = sp.identity(12, format="csr") + 0.01 * sp.random(
        12, 12, density=0.2, random_state=3)
    p = CareProblem(A=p.A, B=p.B, C=p.C, E=sp.csr_matrix(E),
                    check_stability=False)
    paths = [str(tmp_path / f"{x}.mtx") for x in "abce"]
    save_problem(p, *paths)
    q = load_problem(*paths)
    assert np.allclose(q.A.toarray(), p.A.toarray(), atol=0, rtol=1e-15)
    assert np.allclose(q.B, p.B, atol=0, rtol=1e-15)
    assert np.allclose(q.C, p.C, atol=0, rtol=1e-15)
    assert np.allclose(q.E.toarray(), p.E.toarray(), atol=0, rtol=1e-15)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_problem(str(tmp_path / "nope.mtx"), str(tmp_path / "b.mtx"),
                     str(tmp_path / "c.mtx"))


def test_load_singular_E_rejected(tmp_path):
    p = random_stable_problem(5, 1, 1, seed=1)
    Ebad = sp.csr_matrix(np.diag([1.0, 1.0, 0.0, 1.0, 1.0]))
    paths = [str(tmp_path / f"{x}.mtx") for x in "abce"]
    from scipy.io import mmwrite
    mmwrite(paths[0], sp.coo_matrix(p.A))
    mmwrite(paths[1], p.B)
    mmwrite(paths[2], p.C)
    mmwrite(paths[3], sp.coo_matrix(Ebad))
    with pytest.raises(ValueError, match="zero row or column"):
        load_problem(*paths)


@pytest.mark.parametrize("name", ["B", "C"])
def test_complex_factor_rejected(name):
    # the solvers take B and C real; an imaginary part is not dropped
    parts = {"B": np.ones((3, 1)), "C": np.ones((1, 3))}
    parts[name] = parts[name] + 0.5j
    with pytest.raises(ValueError, match=f"{name} must be real"):
        CareProblem(A=sp.csr_matrix(-np.eye(3)), **parts)
    # a complex dtype with a zero imaginary part is accepted as real
    parts[name] = parts[name].real + 0j
    p = CareProblem(A=sp.csr_matrix(-np.eye(3)), **parts)
    assert p.B.dtype == p.C.dtype == np.float64


def test_load_complex_factor_rejected(tmp_path):
    p = random_stable_problem(6, 1, 1, seed=2)
    paths = [str(tmp_path / f"{x}.mtx") for x in "abc"]
    save_problem(p, *paths)
    mmwrite(paths[1], p.B + 1j)
    with pytest.raises(ValueError, match="B must be real"):
        load_problem(*paths)
