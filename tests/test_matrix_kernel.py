"""Tests for the dense symmetric linear-algebra kernel.

The kernel calls LAPACK's symmetric eigen solver, so it is cross-checked
against independent routes: the general (non-symmetric) eigen solver, the
SVD, hand arithmetic and Rayleigh quotients.  It reaches LAPACK through the
gufuncs that numpy.linalg.eigvalsh and eigh call, so it must give their
bytes and fail where they fail.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidcert import matrix_kernel as mk
from pidcert.errors import DimensionError, NumericalError, UsageError


def random_symmetric(rng, n, scale=5.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return mk.symmetrize(a)


def _nonconvergent(a, signature):
    """Stands in for a LAPACK eigen gufunc that does not converge: like the
    real one, it raises numpy's invalid flag (here by 0/0) and gives NaN."""
    return np.divide(np.zeros(a.shape[:-1]), 0.0)


class TestSymmetrize:
    def test_upper_triangular(self):
        out = mk.symmetrize([[0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(mk.symmetrize(np.eye(3)), np.eye(3))

    def test_hand_arithmetic(self):
        out = mk.symmetrize([[1.0, 4.0], [2.0, 3.0]])
        np.testing.assert_array_equal(out, [[1.0, 3.0], [3.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mk.symmetrize(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(UsageError):
            mk.symmetrize([[np.nan, 0.0], [0.0, 0.0]])

    def test_rejects_non_numbers(self):
        with pytest.raises(UsageError, match="theta must be a matrix of numbers"):
            mk.as_square([["x", 1.0], [0.0, 1.0]], "theta")

    def test_entries_near_the_float_limit_do_not_overflow(self):
        """m/2 + m^T/2 halves before it adds, so a finite m has a finite
        Sym[m]: (m + m^T)/2 would overflow to inf here, with a warning."""
        big = [[1.0, 1.7e308], [1.7e308, 1.0]]
        np.testing.assert_array_equal(mk.symmetrize(big), big)
        assert mk.sym_min(np.array(big)) == -1.7e308

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_the_bits_of_the_sum_halved(self, seed, n):
        """Halving is exact outside the subnormal range, so m/2 + m^T/2 has
        the bits of (m + m^T)/2."""
        m = np.random.default_rng(seed).uniform(-10, 10, size=(n, n))
        assert np.array_equal(mk.symmetrize(m), (m + m.T) / 2.0)

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_bitwise(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-10, 10, size=(n, n))
        once = mk.symmetrize(m)
        twice = mk.symmetrize(once)
        assert np.array_equal(once, twice)


class TestEigExtrema:
    def test_identity(self):
        assert mk.eig_extrema(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = mk.eig_extrema(np.diag([3.0, -2.0, 5.0]))
        assert lo == -2.0 and hi == 5.0

    def test_2x2_quadratic_formula(self):
        # characteristic polynomial x^2 - 12x + 19 has roots 6 +- sqrt(17)
        lo, hi = mk.eig_extrema(np.array([[2.0, -1.0], [-1.0, 10.0]]))
        assert abs(lo - (6 - math.sqrt(17))) < 1e-12
        assert abs(hi - (6 + math.sqrt(17))) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(UsageError):
            mk.eig_extrema([[1.0, 2.0], [0.0, 1.0]])

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_lapack(self, seed, n):
        """Agrees with the general (non-symmetric) eigen driver."""
        rng = np.random.default_rng(seed)
        s = random_symmetric(rng, n)
        lo, hi = mk.eig_extrema(s)
        ref = np.sort(np.linalg.eigvals(s).real)
        tol = 1e-10 * (1 + np.linalg.norm(s))
        assert abs(lo - ref[0]) < tol
        assert abs(hi - ref[-1]) < tol

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(mk, "_eigvalsh_lo", _nonconvergent)
        with pytest.raises(NumericalError, match="^symmetric eigenvalue solver did not converge$"):
            mk.eig_extrema(np.eye(2))

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_rayleigh_sandwich(self, seed, n):
        """lambda_min*I <= S <= lambda_max*I on 100 random unit vectors."""
        rng = np.random.default_rng(seed)
        s = random_symmetric(rng, n)
        lo, hi = mk.eig_extrema(s)
        for _ in range(100):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            q = float(x @ s @ x)
            assert q - lo >= -1e-9
            assert hi - q >= -1e-9


class TestOperatorNorm:
    def test_identity(self):
        assert abs(mk.operator_norm(np.eye(5)) - 1.0) < 1e-12

    def test_nilpotent(self):
        # m^T m = diag(0, 4)
        assert abs(mk.operator_norm([[0.0, 2.0], [0.0, 0.0]]) - 2.0) < 1e-12

    def test_diagonal_absolute_max(self):
        assert abs(mk.operator_norm(np.diag([-3.0, 1.0])) - 3.0) < 1e-12

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_svd(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-5, 5, size=(n, n))
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(mk.operator_norm(m) - ref) < 1e-10 * (1 + np.linalg.norm(m))


class TestStacks:
    """A (S, n, n) stack goes through one LAPACK call and gives, matrix by
    matrix, the single-matrix results."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_equal_to_matrix_by_matrix(self, n):
        rng = np.random.default_rng(n)
        stack = rng.uniform(-4, 4, size=(7, n, n))
        sym = mk.symmetrize(stack)
        assert all(np.array_equal(sym[k], mk.symmetrize(stack[k])) for k in range(7))
        lo, hi = mk.eig_extrema(sym)
        norms = mk.operator_norm(stack)
        assert lo.shape == hi.shape == norms.shape == (7,)
        for k in range(7):
            assert (lo[k], hi[k]) == mk.eig_extrema(sym[k])
            assert norms[k] == mk.operator_norm(stack[k])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_sym_min_is_the_least_eigenvalue_of_symmetrize(self, n):
        """sym_min, unchecked, gives eig_extrema's smallest eigenvalue of
        symmetrize(m), bit for bit, for a stack and for each matrix."""
        stack = np.random.default_rng(n).uniform(-4, 4, size=(7, n, n))
        lo = mk.sym_min(stack)
        assert lo.shape == (7,)
        assert np.array_equal(lo, mk.eig_extrema(mk.symmetrize(stack))[0])
        assert all(mk.sym_min(stack[k]) == lo[k] for k in range(7))
        assert type(mk.sym_min(stack[0])) is float

    def test_one_by_one_stack_norm_is_the_absolute_value(self):
        """Exact even where the SVD rescales (|a| near the ends of the range)."""
        stack = np.array([[[-3e-300]], [[2e300]], [[-0.5]]])
        np.testing.assert_array_equal(mk.operator_norm(stack), [3e-300, 2e300, 0.5])

    def test_single_matrix_gives_floats(self):
        assert type(mk.operator_norm(np.eye(2))) is float
        assert all(type(v) is float for v in mk.eig_extrema(np.eye(2)))

    def test_nan_names_its_matrix(self):
        stack = np.zeros((4, 2, 2))
        stack[2, 1, 0] = np.inf
        with pytest.raises(UsageError, match=r"matrix \[2\]"):
            mk.operator_norm(stack)

    def test_rejects_an_asymmetric_member(self):
        stack = np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
        with pytest.raises(UsageError, match="symmetric"):
            mk.eig_extrema(stack)

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionError):
            mk.operator_norm(np.ones((3, 2, 3)))

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(mk, "_eigvalsh_lo", _nonconvergent)
        with pytest.raises(NumericalError, match="^symmetric eigenvalue solver did not converge$"):
            mk.eig_extrema(np.stack([np.eye(2)] * 3))



def _solved(solver, m):
    """The bytes, dtype and shape of each array a solver returns."""
    out = solver(m)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


class TestLapackSeam:
    """mk.eigvalsh and mk.eigh call numpy.linalg's gufuncs directly and give
    numpy.linalg.eigvalsh's and eigh's results byte for byte."""

    PAIRS = ((mk.eigvalsh, np.linalg.eigvalsh), (mk.eigh, np.linalg.eigh))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_single_matrix(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            s = random_symmetric(rng, n, scale=10.0 ** rng.uniform(-3, 3))
            for ours, theirs in self.PAIRS:
                assert _solved(ours, s) == _solved(theirs, s)

    @pytest.mark.parametrize(
        "shape",
        [(4, 3, 3), (2, 2, 2)] + [(3, mn, mn) for mn in (2, 3, 6, 9, 16, 24)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_stack(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[-1])
        for _ in range(5):
            s = mk.symmetrize(rng.standard_normal(shape))
            for ours, theirs in self.PAIRS:
                assert _solved(ours, s) == _solved(theirs, s)

    def test_fails_where_numpy_linalg_fails(self):
        """A real LAPACK failure, unpatched: each input either fails in both
        (NumericalError here, LinAlgError in numpy.linalg) or gives both the
        same bytes.  With the OpenBLAS that numpy 2.4's wheels bundle, a
        5 x 5 NaN matrix fails to converge."""
        for m in (np.full((5, 5), np.nan), np.full((2, 2), np.nan), np.eye(3)):
            for ours, theirs in self.PAIRS:
                try:
                    want = _solved(theirs, m)
                except np.linalg.LinAlgError:
                    with pytest.raises(NumericalError, match="solver did not converge$"):
                        ours(m)
                else:
                    assert _solved(ours, m) == want
