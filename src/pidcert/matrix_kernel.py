"""Dense symmetric linear-algebra primitives used by the certificate checks.

Everything here operates on plain ``numpy`` float arrays.  Symmetric eigen
solves call LAPACK's ``dsyevd`` through the gufuncs ``eigvalsh_lo`` and
``eigh_lo`` of ``numpy.linalg._umath_linalg``, the same calls that
``numpy.linalg.eigvalsh`` and ``eigh`` make, so every bit is theirs.  They are
called directly because on the 1x1 to 3x3 matrices and small stacks of the
certificate path numpy's per-call wrapper (coercion, type dispatch, an
errstate with a Python callback) costs more than the solve.  Spectral norms
come from ``numpy.linalg.norm(., 2)``.  The wrappers add input validation, an
exact-symmetry check and the package's own error types.

``as_square``, ``symmetrize``, ``eig_extrema``, ``sym_min`` and
``operator_norm`` also take a stack of matrices, shape (..., n, n), and then
act on each matrix in one stacked LAPACK call: ``eig_extrema`` returns two
arrays and the others one, with the leading shape of the stack.  A single
matrix gives plain floats.  ``as_matrix`` is ``as_square`` where one matrix
and no stack belongs.  ``require_finite`` is the finiteness test alone, and
``eigvalsh`` and ``eigh`` the error-mapped solves alone, for a matrix or
stack its caller built finite and exactly symmetric.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, NumericalError, UsageError

# LAPACK's symmetric eigen solvers on the lower triangle: the gufuncs that
# numpy.linalg.eigvalsh and eigh call.  Non-convergence raises numpy's
# invalid flag, which numpy.linalg turns into LinAlgError and _solve into
# NumericalError.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo
_eigh_lo = _umath_linalg.eigh_lo


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square float matrix, or a (..., n, n)
    stack of them (copies input)."""
    try:
        a = np.array(m, dtype=float)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be a matrix of numbers, got {m!r}") from None
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise DimensionError(f"{name} must have dimension >= 1")
    require_finite(a, name)
    return a


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """``as_square`` for one matrix: a stack is a DimensionError."""
    a = as_square(m, name)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be one square matrix, got shape {a.shape}")
    return a


def require_finite(a: np.ndarray, name: str = "matrix") -> None:
    """Raise UsageError, naming the first offending matrix of a stack,
    unless every entry of ``a`` is finite."""
    if np.count_nonzero(np.isfinite(a)) != a.size:
        where = "" if a.ndim == 2 else f" (matrix {np.argwhere(~np.isfinite(a))[0][:-2].tolist()})"
        raise UsageError(f"{name} contains NaN or Inf entries{where}")


def symmetrize(m) -> np.ndarray:
    """Return m/2 + m^T/2 (of each matrix of a stack): exactly symmetric, as
    addition commutes, and finite for a finite m."""
    h = as_square(m) / 2.0
    return h + h.swapaxes(-1, -2)


def sym_min(m):
    """lambda_min(Sym[m]) of a finite square matrix, or the array of them
    over a stack, by symmetrize's arithmetic without its checks."""
    h = m / 2.0
    vals = eigvalsh(h + h.swapaxes(-1, -2))[..., 0]
    return float(vals) if m.ndim == 2 else vals


def eig_extrema(s):
    """(smallest, largest) eigenvalue of an exactly symmetric matrix, or
    the two arrays of them over a stack."""
    a = as_square(s)
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise UsageError("matrix must be exactly symmetric; use symmetrize() first")
    vals = eigvalsh(a)
    if a.ndim == 2:
        return float(vals[0]), float(vals[-1])
    return vals[..., 0], vals[..., -1]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a finite, exactly symmetric matrix (of each
    matrix of a stack), unchecked; a LAPACK failure is a NumericalError."""
    return _solve(_eigvalsh_lo, a, "d->d", "eigenvalue")


def eigh(a: np.ndarray):
    """(ascending eigenvalues, eigenvectors as columns) of a finite, exactly
    symmetric matrix (of each matrix of a stack), unchecked; a LAPACK
    failure is a NumericalError."""
    return _solve(_eigh_lo, a, "d->dd", "eigenvector")


def _solve(gufunc, a, signature: str, what: str):
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return gufunc(a, signature=signature)
    except FloatingPointError as exc:
        raise NumericalError(f"symmetric {what} solver did not converge") from exc


def operator_norm(m):
    """Spectral norm sup_{|x|=1} |Mx| = largest singular value (of each
    matrix of a stack)."""
    a = as_square(m)
    if a.ndim == 2:
        return float(np.linalg.norm(a, 2))
    if a.shape[-1] == 1:  # |a|, exact and without a stacked SVD's per-matrix cost
        return np.abs(a[..., 0, 0])
    return np.linalg.norm(a, 2, axis=(-2, -1))
