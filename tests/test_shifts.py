import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riccati_si import (
    ShiftSequence,
    adaptive_pole,
    penzl_shifts,
    projected_ritz,
    random_stable_problem,
    rational_objective,
)
from riccati_si.problems import CareProblem
from riccati_si.shifts import _arnoldi_ritz
import scipy.sparse as sp

from oracles import brute_force_objective


class TestShiftSequence:
    def test_positive_real_part_required(self):
        with pytest.raises(ValueError, match="positive real part"):
            ShiftSequence((1.0, -2.0))
        with pytest.raises(ValueError, match="positive real part"):
            ShiftSequence((0.0 + 1.0j,))

    def test_conjugation_closure_required(self):
        with pytest.raises(ValueError, match="conjugation"):
            ShiftSequence((1.0 + 2.0j, 3.0))
        # a closed pair passes
        s = ShiftSequence((1.0 + 2.0j, 1.0 - 2.0j, 3.0))
        assert len(s) == 3

    def test_unknown_origin(self):
        with pytest.raises(ValueError, match="origin"):
            ShiftSequence((1.0,), origin="mystery")

    def test_json_round_trip(self):
        s = ShiftSequence((1.0 + 2.0j, 1.0 - 2.0j, 3.0))
        text = s.to_json()
        # the serialized form is a plain list of [re, im] pairs
        assert json.loads(text) == [[1.0, 2.0], [1.0, -2.0], [3.0, 0.0]]
        t = ShiftSequence.from_json(text)
        assert t.values == s.values

    def test_cycled(self):
        s = ShiftSequence((1.0, 2.0))
        assert s.cycled(5) == [1.0, 2.0, 1.0, 2.0, 1.0]
        assert s.reals == (1.0, 2.0)
        assert list(s) == [1.0, 2.0]
        assert s[1] == 2.0


class TestRationalObjective:
    def test_matches_brute_force_fixed(self):
        sh = [1.0 + 0.5j, 1.0 - 0.5j, 3.0]
        spec = [-0.5 + 1.0j, -2.0, -7.7 - 0.3j]
        assert rational_objective(sh, spec) == pytest.approx(
            brute_force_objective(sh, spec), rel=1e-12)

    @given(
        st.lists(st.complex_numbers(min_magnitude=0.05, max_magnitude=50,
                                    allow_nan=False, allow_infinity=False)
                 .map(lambda z: complex(abs(z.real) + 0.05, z.imag)),
                 min_size=1, max_size=5),
        st.lists(st.complex_numbers(min_magnitude=0.05, max_magnitude=50,
                                    allow_nan=False, allow_infinity=False)
                 .map(lambda z: complex(abs(z.real) + 0.05, z.imag)),
                 min_size=1, max_size=6),
    )
    def test_matches_brute_force_random(self, shifts, spectrum):
        # evaluation points live on the mirrored (right half plane) side,
        # as in the selection routine, so no factor pole can be hit
        lib = rational_objective(shifts, spectrum)
        ref = brute_force_objective(shifts, spectrum)
        assert lib == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_contraction_on_mirrored_spectrum(self):
        # every positive-real-part point is damped below 1 by any such shift
        spec = [1.0, 2.0 + 1.0j, 0.3]
        assert rational_objective([1.5], spec) < 1.0

    def test_pole_collision_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            rational_objective([2.0], [-2.0])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rational_objective([], [-1.0])
        with pytest.raises(ValueError):
            rational_objective([1.0], [])


def _two_point_problem():
    """Spectrum exactly {-1, -10}; mirrored candidate set {1, 10}."""
    A = sp.csr_matrix(np.diag([-1.0, -10.0]))
    return CareProblem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))


class TestPenzl:
    def test_basic_properties(self):
        p = random_stable_problem(40, 1, 1, seed=0)
        s = penzl_shifts(p, m=6)
        assert len(s) == 6
        assert all(v.real > 0 for v in s.values)
        assert s.origin == "penzl_A"
        # deterministic
        t = penzl_shifts(p, m=6)
        assert s.values == t.values

    def test_conjugation_closed_output(self):
        # rotation-heavy A forces complex Ritz values
        blocks = [np.array([[-1.0, w], [-w, -1.0]]) for w in (3.0, 7.0, 11.0)]
        A = sp.block_diag(blocks, format="csr")
        p = CareProblem(A=A, B=np.ones((6, 1)), C=np.ones((1, 6)))
        s = penzl_shifts(p, m=4, m1=6, m2=6)
        vals = set(np.round(np.array(s.values), 10))
        assert {np.round(np.conj(v), 10) for v in vals} == vals

    def test_hamiltonian_mode(self):
        p = random_stable_problem(20, 1, 1, seed=3)
        s = penzl_shifts(p, m=4, mode="on_H")
        assert s.origin == "penzl_H"
        assert all(v.real > 0 for v in s.values)

    def test_real_arnoldi_matches_complex(self):
        # a real start vector keeps the run real; its Ritz values are those
        # of the complex run, conjugate pairs included
        p = random_stable_problem(40, 1, 1, seed=6)
        v0 = np.arange(1.0, 41.0)
        seen = set()

        def matvec(x):
            seen.add(x.dtype)
            return p.A @ x

        real, broke = _arnoldi_ritz(matvec, v0, 12)
        assert seen == {np.dtype(float)}
        cplx, broke_c = _arnoldi_ritz(matvec, v0.astype(complex), 12)
        assert broke == broke_c and len(real) == len(cplx)
        assert np.abs(real.imag).max() > 0
        tol = 1e-10 * np.abs(cplx).max()
        # each value has a partner in the other run, and its conjugate in
        # its own run
        gap = np.abs(real[:, None] - cplx[None, :])
        assert gap.min(axis=0).max() <= tol and gap.min(axis=1).max() <= tol
        assert np.abs(np.conj(real)[:, None] - real[None, :]).min(
            axis=1).max() <= tol

    def test_budget_and_mode_validation(self):
        p = random_stable_problem(10, 1, 1, seed=0)
        with pytest.raises(ValueError, match="budget"):
            penzl_shifts(p, m=10, m1=4, m2=4)
        with pytest.raises(ValueError, match="mode"):
            penzl_shifts(p, m=2, mode="sideways")
        with pytest.raises(ValueError):
            penzl_shifts(p, m=0)

    def test_geometric_mean_on_injected_grid(self):
        # for the two-point spectrum {1, 10} the optimal single shift is
        # sqrt(10) (equioscillation); with sqrt(10) present in the candidate
        # pool the greedy seed must pick it exactly
        p = _two_point_problem()
        pool = list(np.linspace(1.0, 10.0, 181)) + [np.sqrt(10.0)]
        s = penzl_shifts(p, m=1, m1=2, m2=2, candidate_pool=pool)
        assert len(s) == 1
        assert s.values[0] == pytest.approx(np.sqrt(10.0), abs=1e-12)

    def test_pair_order_independent_of_candidate_order(self):
        # the growth scores of a candidate and its exact conjugate tie, so
        # the member picked first follows list order; the pair must still
        # come out with its positive imaginary part first
        p = random_stable_problem(20, 1, 1, seed=3)
        out = [penzl_shifts(p, m=3, candidate_pool=pool).values
               for pool in ([1.0, 2.0 + 1.0j, 2.0 - 1.0j],
                            [1.0, 2.0 - 1.0j, 2.0 + 1.0j])]
        assert out[0] == out[1]
        assert [v for v in out[0] if v.imag] == [2.0 + 1.0j, 2.0 - 1.0j]

    def test_warns_when_candidates_run_out(self):
        p = _two_point_problem()
        with pytest.warns(UserWarning, match="candidates"):
            s = penzl_shifts(p, m=4, m1=2, m2=2)
        assert len(s) == 2  # only two distinct Ritz values exist


class TestProjectedRitz:
    def test_diagonal_exact(self):
        A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
        p = CareProblem(A=A, B=np.ones((3, 1)), C=np.ones((1, 3)))
        theta = projected_ritz(np.eye(3)[:, :2], p)
        assert np.allclose(np.sort(theta.real), [-2.0, -1.0])

    def test_mode_validation(self):
        p = random_stable_problem(5, 1, 1, seed=0)
        with pytest.raises(ValueError, match="mode"):
            projected_ritz(np.eye(5)[:, :1], p, mode="fancy")


class TestAdaptivePole:
    def test_single_ritz_mirrored(self):
        A = sp.csr_matrix(np.diag([-2.0, -5.0]))
        p = CareProblem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))
        pole = adaptive_pole(np.eye(2)[:, :1], p)
        assert pole == pytest.approx(2.0)

    def test_two_point_seed_near_geometric_mean(self):
        p = _two_point_problem()
        pole = adaptive_pole(np.eye(2), p)
        assert 1.0 < pole.real < 10.0
        assert abs(pole - np.sqrt(10.0)) < 0.3

    def test_no_stable_ritz_falls_back(self):
        # stable but heavily non-normal: the Rayleigh quotient on this
        # direction is positive, so no usable Ritz value exists
        A = sp.csr_matrix(np.array([[-1.0, 100.0], [0.0, -1.0]]))
        p = CareProblem(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        with pytest.warns(UserWarning, match="reusing"):
            pole = adaptive_pole(v, p, existing_poles=(3.0,))
        assert pole == 3.0
        with pytest.raises(ValueError, match="no previous pole"):
            adaptive_pole(v, p)

    def test_avoids_repeating_existing_poles(self):
        p = random_stable_problem(12, 1, 1, seed=6)
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        used = [1.0, 2.0]
        pole = adaptive_pole(basis, p, existing_poles=used)
        assert min(abs(pole - u) for u in used) > 1e-8
        assert pole.real > 0
