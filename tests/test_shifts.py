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
from riccati_si.shifts import (
    _arnoldi_ritz,
    _dedupe,
    _greedy_shifts,
    _hull_candidates,
    _mirrored_ritz_pole,
    _realify,
)
import scipy.sparse as sp

from oracles import (
    brute_force_objective,
    reference_dedupe,
    reference_greedy_shifts,
    reference_mirrored_ritz_pole,
    reference_pole_scores,
)


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

    def test_cycled(self):
        # a solver cycles the list by index, modulo its length
        s = ShiftSequence((1.0, 2.0))
        assert [s[i % len(s)] for i in range(5)] == [1.0, 2.0, 1.0, 2.0, 1.0]
        assert list(s) == [1.0, 2.0]


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
        # for the two-point spectrum {1, 10} (the mirrored Ritz set of
        # _two_point_problem) the optimal single shift is sqrt(10)
        # (equioscillation); with sqrt(10) present in the candidate pool the
        # greedy seed must pick it exactly
        spectrum = np.array([1.0, 10.0], dtype=complex)
        pool = list(np.linspace(1.0, 10.0, 181)) + [np.sqrt(10.0)]
        s, _ = _greedy_shifts(spectrum, _dedupe(_realify(pool)), 1)
        assert len(s) == 1
        assert s[0] == pytest.approx(np.sqrt(10.0), abs=1e-12)

    def test_pair_order_independent_of_candidate_order(self):
        # the growth scores of a candidate and its exact conjugate tie, so
        # the member picked first follows list order; the pair must still
        # come out with its positive imaginary part first
        p = random_stable_problem(20, 1, 1, seed=3)
        mirrored = -np.conj(np.linalg.eigvals(p.A.toarray()))
        spectrum = _dedupe(_realify(mirrored))
        out = [_greedy_shifts(spectrum, _dedupe(_realify(pool)), 3)[0]
               for pool in ([1.0, 2.0 + 1.0j, 2.0 - 1.0j],
                            [1.0, 2.0 - 1.0j, 2.0 + 1.0j])]
        assert out[0] == out[1]
        assert [v for v in out[0] if v.imag] == [2.0 + 1.0j, 2.0 - 1.0j]

    def test_warns_when_candidates_run_out(self):
        p = _two_point_problem()
        with pytest.warns(UserWarning, match="candidates"):
            s = penzl_shifts(p, m=4, m1=2, m2=2)
        assert len(s) == 2  # only two distinct Ritz values exist


def _arnoldi_basis(A, v0, steps):
    """Ritz values, breakdown flag and the basis vectors of an Arnoldi run
    with A, read off the vectors it multiplies."""
    rows = []

    def matvec(x):
        rows.append(x.copy())
        return A @ x

    ritz, broke = _arnoldi_ritz(matvec, v0, steps)
    return ritz, broke, np.array(rows)


def _same_points(got, want, tol):
    gap = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    return gap.min(axis=0).max() <= tol and gap.min(axis=1).max() <= tol


class TestArnoldi:
    def test_basis_orthonormal_on_nonnormal_matrix(self):
        rng = np.random.default_rng(0)
        n = 200
        A = np.triu(rng.standard_normal((n, n)), 1) * 5.0 - np.diag(
            rng.uniform(1.0, 100.0, n))
        _, broke, V = _arnoldi_basis(A, rng.standard_normal(n), 40)
        assert not broke and V.shape == (40, n)
        assert np.abs(V @ V.T - np.eye(40)).max() <= 1e-13

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_full_run_gives_eigenvalues(self, dtype):
        rng = np.random.default_rng(1)
        n = 30
        A = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
        v0 = rng.standard_normal(n)
        if dtype is complex:
            A = A + 1j * rng.standard_normal((n, n)) / np.sqrt(n)
            v0 = v0 + 1j * rng.standard_normal(n)
        ritz, _, V = _arnoldi_basis(A, v0, n)
        assert V.dtype == np.dtype(dtype) and len(ritz) == n
        assert np.abs(V @ V.conj().T - np.eye(n)).max() <= 1e-13
        assert _same_points(ritz, np.linalg.eigvals(A), 1e-10)

    def test_breakdown_on_invariant_subspace(self):
        # a start vector in the span of the first three coordinates, which
        # A maps into itself: the fourth vector vanishes
        rng = np.random.default_rng(2)
        A = np.zeros((12, 12))
        A[:3, :3] = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
        A[3:, 3:] = rng.standard_normal((9, 9))
        A[:3, 3:] = rng.standard_normal((3, 9))
        v0 = np.zeros(12)
        v0[:3] = rng.standard_normal(3)
        ritz, broke, V = _arnoldi_basis(A, v0, 8)
        assert broke and len(V) == 3 and len(ritz) == 3
        assert _same_points(ritz, np.linalg.eigvals(A[:3, :3]), 1e-12)


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _points_with_near_ties(draw):
    """Complex points with copies of some of them planted at distances
    around the 1e-8 (1 + |z|) tolerance of ``_dedupe``: inside, on and just
    outside it."""
    pts = draw(st.lists(st.complex_numbers(max_magnitude=1e4, **_finite),
                        min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 10))):
        z = draw(st.sampled_from(pts))
        scale = draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
                                      1.5, 2.0]))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        step = scale * 1e-8 * (1.0 + abs(z))
        pts.insert(draw(st.integers(0, len(pts))),
                   z + step * complex(np.cos(angle), np.sin(angle)))
    return pts


def _all_bits(values):
    return [_bits(v) for v in values]


class TestDedupeMatchesReference:
    @given(_points_with_near_ties())
    def test_bitwise_equal(self, points):
        assert _all_bits(_dedupe(points)) == _all_bits(reference_dedupe(points))

    def test_keeps_a_point_whose_close_neighbour_was_dropped(self):
        # b is within the tolerance of a and c of b, but c is not of a: b
        # goes, and so c stays
        a = 1.0
        b = a + 0.9e-8 * 2.0
        c = b + 0.9e-8 * 2.0
        assert list(_dedupe([a, b, c])) == [a, c] == reference_dedupe([a, b, c])


def _greedy_case(seed, k):
    """Mirrored Ritz values of a seeded real matrix as ``penzl_shifts``
    leaves them: conjugate pairs and real points in the right half-plane."""
    theta = _real_matrix_ritz(seed, k)
    return _dedupe(_realify(-np.conj(theta[theta.real < 0])))


class TestGreedyMatchesReference:
    """The array greedy pass of ``penzl_shifts`` against the scalar loops in
    ``oracles``: the shifts must agree to the bit."""

    @staticmethod
    def check(spectrum, pool, m):
        got, notes = _greedy_shifts(spectrum, pool, m)
        want, want_notes = reference_greedy_shifts(spectrum, pool, m)
        assert _all_bits(got) == _all_bits(want)
        assert notes == want_notes
        return got, notes

    def test_seeded_spectra(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            spectrum = _greedy_case(trial, int(rng.integers(2, 30)))
            if trial % 3 == 0:
                pool = _dedupe(_realify(np.concatenate([
                    rng.uniform(0.05, 8.0, 20),
                    rng.uniform(0.05, 8.0, 5) + 1j * rng.uniform(0.1, 3.0, 5),
                ])))
            else:
                pool = spectrum
            self.check(spectrum, pool, int(rng.integers(1, 13)))

    def test_ties_decided_by_rounding(self):
        # sets closed under t -> 1/t and conjugation: after the seed 1, t and
        # 1/t score the same in exact arithmetic, so each pick between them
        # rests on the rounding of the products, factor by factor
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = np.exp(rng.uniform(0.1, 5.0, 8))
            z = np.exp(rng.uniform(0.1, 3.0, 3) + 1j * rng.uniform(0.1, 1.2, 3))
            pts = np.concatenate([[1.0], k, 1 / k, z, z.conj(), 1 / z,
                                  1 / z.conj()])
            pool = _dedupe(_realify(rng.permutation(pts)))
            for m in (6, 10, 14):
                self.check(pool, pool, m)

    @pytest.mark.parametrize("pool, first", [([1.0, 2.0, 0.5], 2.0),
                                             ([1.0, 0.5, 2.0], 0.5)])
    def test_tie_goes_to_pool_order(self, pool, first):
        # seed 1 (the geometric mean of the spectrum {0.5, 2}); then 2 and
        # 0.5 both score exactly 1/3, and the first in the pool wins
        got, _ = self.check(np.array([0.5, 2.0], dtype=complex),
                            np.array(pool, dtype=complex), 2)
        assert got == [1.0, first]

    def test_last_slot_takes_a_real_shift(self):
        # after the seed 10 the pair 10 +- 50j is least damped; it is taken
        # with two slots left, but a real shift fills a single one
        spectrum = np.array([1.0, 10.0, 100.0, 10.0 + 50.0j, 10.0 - 50.0j])
        got, notes = self.check(spectrum, spectrum, 3)
        assert got == [10.0, 10.0 + 50.0j, 10.0 - 50.0j] and notes == []
        got, notes = self.check(spectrum, spectrum, 2)
        assert got == [10.0, 1.0] and notes == []

    def test_last_slot_without_a_real_shift_takes_the_pair(self):
        spectrum = np.array([1.0, 3.0 + 4.0j, 3.0 - 4.0j])
        got, notes = self.check(spectrum, spectrum, 2)
        assert got == [1.0, 3.0 + 4.0j, 3.0 - 4.0j]
        assert notes == ["appended a conjugate pair into the last slot"]

    def test_coinciding_pole_raises(self):
        spectrum = np.array([1e-15 + 1.0j])
        pool = np.array([1e-15 - 1.0j])
        with pytest.raises(ValueError, match="pole"):
            _greedy_shifts(spectrum, pool, 1)
        with pytest.raises(ValueError, match="pole"):
            reference_greedy_shifts(spectrum, pool, 1)


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


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _real_matrix_ritz(seed, n):
    """Eigenvalues of a seeded real matrix, mostly stable: conjugate pairs
    and real values, as the projected matrices of real data give them."""
    rng = np.random.default_rng(seed)
    return np.linalg.eigvals(-3.0 * np.eye(n) + rng.standard_normal((n, n)))


_RNG = np.random.default_rng(1)
_REAL = -_RNG.uniform(0.1, 10.0, 12)
_REAL_POLES = tuple(_RNG.uniform(0.1, 10.0, 5))
# mirrored, these lie on the line Re s = 2, so the hull is degenerate
_COLLINEAR = -2.0 + 1j * np.array([0.5, -0.5, 1.5, -1.5, 3.0, -3.0])


class TestScoringMatchesReference:
    """The array scoring of the adaptive pole search against the scalar
    reference scorer in ``oracles``: the poles must agree to the bit,
    because adaptive poles amplify a rounding difference from one pole to
    the next."""

    @pytest.mark.parametrize("theta, poles", [
        pytest.param(_REAL, _REAL_POLES, id="all-real-grid"),
        pytest.param(_real_matrix_ritz(2, 10), (1.0, 2.0 + 0.5j, 2.0 - 0.5j,
                                                4.0), id="complex-hull"),
        pytest.param(_COLLINEAR, (1.0, 3.0), id="collinear-fallback"),
        pytest.param(np.array([-3.0, 2.0, -3.0 + 1e-12j]), (1.0,),
                     id="single-mu"),
        pytest.param(_REAL, (), id="no-previous-pole-real"),
        pytest.param(_real_matrix_ritz(2, 10), (),
                     id="no-previous-pole-complex"),
        pytest.param(_COLLINEAR, (), id="no-previous-pole-collinear"),
    ])
    def test_bitwise_equal(self, theta, poles):
        ref = reference_mirrored_ritz_pole(theta, poles)
        assert _bits(_mirrored_ritz_pole(theta, poles)) == _bits(ref)

    def test_collinear_takes_fallback(self):
        # segments between all 15 pairs of the 6 points, 8 points each
        assert len(_hull_candidates(-np.conj(_COLLINEAR))) == 8 * 15

    # Ritz values of seeded random real matrices and positive poles,
    # written out so that the cases do not depend on the LAPACK build
    TIE = (np.array([-5.261723570118012, -4.175737757792251
                     + 0.25155277329677644j, -4.175737757792251
                     - 0.25155277329677644j, -0.47389482343322514,
                     -1.5107228994708144, -2.18111636675236]),
           (0.1325217049455206, 0.9843898673831739, 0.683600432743302))
    NEAR_TIE = (np.array([-5.0805754256695534,
                          -4.353257019867755 + 1.6222901258808191j,
                          -4.353257019867755 - 1.6222901258808191j,
                          -3.6396855161801245,
                          -0.3254273163682151 + 1.165219054613264j,
                          -0.3254273163682151 - 1.165219054613264j,
                          -2.3080458032037603 + 1.4438411738623067j,
                          -2.3080458032037603 - 1.4438411738623067j,
                          -0.8656740838969164 + 0.8524583421190494j,
                          -0.8656740838969164 - 0.8524583421190494j,
                          -1.6266340068491147]),
                (0.81804142158478, 0.6600398673078971, 2.239248619481165))

    def test_exact_score_tie(self):
        # a candidate and its conjugate score exactly the same here, and
        # the first of the two in candidate order wins
        theta, poles = self.TIE
        _, scored = reference_pole_scores(theta, poles)
        top = max(score for _, score in scored)
        tied = [c for c, score in scored if score == top]
        assert len(tied) == 2 and tied[0] == np.conj(tied[1])
        pole = _mirrored_ritz_pole(theta, poles)
        assert _bits(pole) == _bits(tied[0])

    def test_near_tie(self):
        # the best candidate and its conjugate score within rounding of each
        # other: an abs other than Python's (libm hypot) in either product
        # can flip which member wins
        theta, poles = self.NEAR_TIE
        ref = reference_mirrored_ritz_pole(theta, poles)
        assert ref.imag != 0
        assert _bits(_mirrored_ritz_pole(theta, poles)) == _bits(ref)

    def test_seeded_ritz_sets(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            k = int(rng.integers(2, 30))
            theta = _real_matrix_ritz(trial, k) if trial % 2 else \
                -np.abs(rng.standard_normal(k)) \
                + 1j * rng.standard_normal(k) * rng.choice([0.0, 1e-9, 1.0])
            poles = tuple(np.abs(rng.standard_normal(trial % 7)) + 0.1)
            ref = reference_mirrored_ritz_pole(theta, poles)
            if ref is not None:
                assert _bits(_mirrored_ritz_pole(theta, poles)) == _bits(ref)
