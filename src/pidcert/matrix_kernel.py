"""Dense symmetric linear-algebra primitives used by the certificate checks.

Everything here operates on plain ``numpy`` float arrays.  Eigenvalues of
symmetric matrices come from LAPACK (``numpy.linalg.eigvalsh``) and spectral
norms from ``numpy.linalg.norm(., 2)``; the wrappers add input validation, an
exact-symmetry check and the package's own error types.

``as_square``, ``symmetrize``, ``eig_extrema`` and ``operator_norm`` also
take a stack of matrices, shape (..., n, n), and then act on each matrix in
one stacked LAPACK call: ``eig_extrema`` returns two arrays and
``operator_norm`` one, with the leading shape of the stack.  A single matrix
gives plain floats.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError, UsageError


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
    if not np.all(np.isfinite(a)):
        where = "" if a.ndim == 2 else f" (matrix {np.argwhere(~np.isfinite(a))[0][:-2].tolist()})"
        raise UsageError(f"{name} contains NaN or Inf entries{where}")
    return a


def symmetrize(m) -> np.ndarray:
    """Return (m + m^T)/2 (of each matrix of a stack); exactly symmetric."""
    a = as_square(m)
    s = (a + np.swapaxes(a, -1, -2)) / 2.0
    # averaging a[i,j] and a[j,i] is commutative, so s == s.T bitwise
    return s


def eig_extrema(s):
    """(smallest, largest) eigenvalue of an exactly symmetric matrix, or
    the two arrays of them over a stack."""
    a = as_square(s)
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise UsageError("matrix must be exactly symmetric; use symmetrize() first")
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigenvalue solver failed: {exc}") from exc
    if a.ndim == 2:
        return float(vals[0]), float(vals[-1])
    return vals[..., 0], vals[..., -1]


def operator_norm(m):
    """Spectral norm sup_{|x|=1} |Mx| = largest singular value (of each
    matrix of a stack)."""
    a = as_square(m)
    if a.ndim == 2:
        return float(np.linalg.norm(a, 2))
    if a.shape[-1] == 1:  # |a|, exact and without a stacked SVD's per-matrix cost
        return np.abs(a[..., 0, 0])
    return np.linalg.norm(a, 2, axis=(-2, -1))
