"""Dense complex linear algebra kernel.

Everything downstream (bases, filters, sampling plans) reduces to three
operations on dense complex matrices: Gauss-Jordan row reduction with
pivot/free-column tracking, linear solves, and a full eigendecomposition of
a general (non-symmetric, possibly complex) square matrix.

Row reduction is kept for callers whose result is the pivot pattern itself
(the sampling sets); its pivoting is by largest magnitude with ties broken by
the lowest row index, so reductions are reproducible bit-for-bit on
identical inputs. Solves, whose result is only the solution, use LAPACK's
partially pivoted LU. Both treat a pivot as zero when its magnitude is at or
below ``tol * max(|initial entries|)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotConvergedError, SingularMatrixError

__all__ = [
    "RowReduction",
    "EigPair",
    "as_cmatrix",
    "as_cvector",
    "row_reduce",
    "solve",
    "eig",
]


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and copy an array-like into a finite complex128 2-D array."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_cvector(v, name: str = "vector") -> np.ndarray:
    m = np.array(v, dtype=np.complex128)
    if m.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class RowReduction:
    """Reduced row echelon form plus the pivot/free column bookkeeping.

    ``pivot_cols`` and ``free_cols`` are ascending and partition the column
    index set; ``rank == len(pivot_cols)``. Each pivot column of ``rref`` is
    exactly a distinct unit vector.
    """

    rref: np.ndarray
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class EigPair:
    """Right eigendecomposition: ``values[k]`` pairs with column ``vectors[:, k]``.

    Columns have unit Euclidean norm with their first significant entry
    rotated onto the positive real axis. ``min_gap`` is the smallest pairwise
    eigenvalue distance, for callers that must enforce distinctness.
    """

    values: np.ndarray
    vectors: np.ndarray
    min_gap: float


def row_reduce(a, tol: float = 1e-10) -> RowReduction:
    """Gauss-Jordan elimination to reduced row echelon form.

    Partial pivoting by largest magnitude (ties to the lowest row index);
    a candidate pivot with magnitude <= tol * max(|initial entries|) is
    treated as zero and its column becomes free. A zero (or empty) matrix
    has rank 0 with every column free.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    r = as_cmatrix(a)
    m, n = r.shape
    thresh = tol * (np.max(np.abs(r)) if r.size else 0.0)
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        mags = np.abs(r[row:, col])
        local = int(np.argmax(mags))
        if mags[local] <= thresh:
            continue
        piv = row + local
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = r[row] / r[row, col]
        others = np.arange(m) != row
        r[others] -= np.outer(r[others, col], r[row])
        # force the pivot column to an exact unit vector
        r[:, col] = 0.0
        r[row, col] = 1.0
        pivot_cols.append(col)
        row += 1
    pivots = set(pivot_cols)
    free_cols = tuple(c for c in range(n) if c not in pivots)
    return RowReduction(r, tuple(pivot_cols), free_cols, len(pivot_cols))


def solve(a, b, tol: float = 1e-10):
    """Solve ``a @ x = b`` by LU factorization with partial pivoting (LAPACK).

    ``b`` may be a vector or a matrix of stacked right-hand sides; the result
    has the matching shape. Raises SingularMatrixError when a pivot of the
    factorization is at or below ``tol * max(|a|)``, the cutoff ``row_reduce``
    applies.
    """
    a = as_cmatrix(a)
    n, n2 = a.shape
    if n != n2:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    rhs = np.asarray(b)
    vector_rhs = rhs.ndim == 1
    rhs = as_cmatrix(rhs[:, None] if vector_rhs else rhs, "rhs")
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    if n == 0:
        x = rhs
    else:
        with warnings.catch_warnings():
            # an exactly zero pivot is reported below as SingularMatrixError
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
        pivots = np.abs(np.diagonal(lu))
        thresh = tol * float(np.max(np.abs(a)))
        if pivots.min() <= thresh:
            rank = int(np.count_nonzero(pivots > thresh))
            raise SingularMatrixError(
                f"matrix is singular at tolerance {tol:.1e} (rank {rank} of {n})"
            )
        x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return x[:, 0] if vector_rhs else x


def _normalize_columns(vectors: np.ndarray) -> np.ndarray:
    v = vectors.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            continue
        col = col / nrm
        mags = np.abs(col)
        lead = int(np.argmax(mags >= 1e-8 * mags.max()))
        phase = col[lead] / abs(col[lead])
        v[:, k] = col / phase
    return v


def eig(a, tol: float = 1e-9) -> EigPair:
    """Full right eigendecomposition of a general square matrix.

    Delegates to LAPACK (Hessenberg + shifted QR) via scipy, then normalizes
    each eigenvector to unit norm with its first significant entry rotated to
    the positive real axis. The residual contract
    ``max_k ||A v_k - w_k v_k||_inf <= tol * ||A||_inf`` is enforced.
    """
    a = as_cmatrix(a)
    n, n2 = a.shape
    if n != n2:
        raise ValueError(f"matrix must be square, got {a.shape}")
    try:
        values, vectors = scipy.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR failure is rare
        raise NotConvergedError(f"eigendecomposition did not converge: {exc}") from exc
    vectors = _normalize_columns(vectors.astype(np.complex128))
    values = values.astype(np.complex128)
    scale = max(np.max(np.sum(np.abs(a), axis=1)), np.finfo(float).tiny) if n else 1.0
    residual = np.max(np.abs(a @ vectors - vectors * values)) if n else 0.0
    if residual > tol * scale:
        raise NotConvergedError(
            f"eigendecomposition residual {residual:.3e} exceeds {tol:.1e} * ||A||_inf"
        )
    if n >= 2:
        diff = np.abs(values[:, None] - values[None, :])
        min_gap = float(np.min(diff[~np.eye(n, dtype=bool)]))
    else:
        min_gap = float("inf")
    return EigPair(values, vectors, min_gap)
