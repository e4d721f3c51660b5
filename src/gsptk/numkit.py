"""Dense complex linear algebra kernel.

Everything downstream (bases, filters, sampling plans) reduces to three
operations on dense complex matrices: the pivot pattern of Gauss
elimination, linear solves, and a full eigendecomposition of a general
(non-symmetric, possibly complex) square matrix.

Elimination is kept for callers whose result is the pivot pattern itself
(the sampling sets); its pivoting is by largest magnitude with ties broken by
the lowest row index, so pivot patterns are reproducible bit-for-bit on
identical inputs. Solves, whose result is only the solution, use LAPACK's
partially pivoted LU. Both treat a pivot as zero when its magnitude is at or
below ``PIVOT_TOL * max(|initial entries|)``.

Every tolerance the library and the CLI commands apply is stated once, in
the table below; the demos' own assertion tolerances stay with the demos.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NonFiniteError, NotConvergedError, SingularMatrixError

# ---------------------------------------------------------------------------
# tolerances: each names the quantity it cuts and the scale it multiplies

# row_reduce, solve: a pivot is zero at or below PIVOT_TOL * max|a|
PIVOT_TOL = 1e-10
# eig: max_k ||A v_k - w_k v_k||_inf must not exceed EIG_RESIDUAL_TOL * ||A||_inf
EIG_RESIDUAL_TOL = 1e-9
# distinct frequencies: every eigenvalue gap exceeds GAP_TOL * max(1, max|lam|)
# (``_gap_cut``); the default of basis_from_graph, the cut of check_assumptions
# (which also holds |y0| to it) and of the fit_filter diagnosis
GAP_TOL = 1e-8
# eig: an eigenvector's phase is set by its first entry >= LEAD_TOL * max|v|
LEAD_TOL = 1e-8
# computed bases: max|gft @ igft - I| <= IDENTITY_TOL, and the shift is
# reconstructed to IDENTITY_TOL * max(1, max|A|)
IDENTITY_TOL = 1e-8
# explicit bases: the shift is reconstructed to EXPLICIT_RECON_TOL * max|A|
EXPLICIT_RECON_TOL = 1e-6
# read_plan with a graph: the recovery map R = [I; S] (scattered to N x K) has
# an A-invariant range, ||A R - R (A R)[kept]||_inf <= INVARIANCE_TOL *
# ||A||_inf * ||R||_inf
INVARIANCE_TOL = 1e-8
# band_project default: out-of-band magnitudes must not exceed BAND_TOL (absolute)
BAND_TOL = 1e-8
# cli sample: the band guard is max(--tol, BAND_GUARD_REL * max|xhat|), loose
# enough for reference data stored at print precision
BAND_GUARD_REL = 5e-3
# cli: the default of --tol, the gap cut of a computed basis and the floor of
# the sample band guard
CLI_TOL = 1e-10
# fit_filter diagnosis: min|D_hat[:, 0]| at or below FIRST_COLUMN_TOL (absolute)
# reads as a zero first GFT (or inverse GFT) column
FIRST_COLUMN_TOL = 1e-8
# structural_equal: |m_ij| > STRUCTURAL_TOL * max|m| is an edge
STRUCTURAL_TOL = 1e-9
# dspcompat closed forms on the cycle: max deviation <= CLOSED_FORM_TOL (absolute)
CLOSED_FORM_TOL = 1e-10
# replication_compare: an entry below REPLICATION_ZERO_TOL * max|entry| counts as zero
REPLICATION_ZERO_TOL = 1e-6
# fit_filter L1 (ISTA): stop when max|z_new - z| < ISTA_STOP (absolute)
ISTA_STOP = 1e-10


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
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.view(np.float64))):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def as_cvector(v, name: str = "vector") -> np.ndarray:
    m = np.array(v, dtype=np.complex128)
    if m.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.view(np.float64))):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class RowReduction:
    """The pivot pattern of Gauss elimination.

    ``pivot_cols`` and ``free_cols`` are ascending and partition the column
    index set; ``rank == len(pivot_cols)``.
    """

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


def row_reduce(a) -> RowReduction:
    """Forward Gauss elimination, keeping only the pivot pattern.

    Partial pivoting by largest magnitude (ties to the lowest row index);
    a candidate pivot with magnitude <= PIVOT_TOL * max(|initial entries|) is
    treated as zero and its column becomes free. A zero (or empty) matrix
    has rank 0 with every column free. Only the block below and right of
    each pivot is eliminated: the rows above a pivot are never searched
    again, so they cannot change the pattern.
    """
    r = as_cmatrix(a)
    m, n = r.shape
    thresh = PIVOT_TOL * (np.max(np.abs(r)) if r.size else 0.0)
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
            r[[row, piv], col:] = r[[piv, row], col:]
        r[row + 1:, col + 1:] -= np.outer(r[row + 1:, col], r[row, col + 1:] / r[row, col])
        pivot_cols.append(col)
        row += 1
    pivots = set(pivot_cols)
    free_cols = tuple(c for c in range(n) if c not in pivots)
    return RowReduction(tuple(pivot_cols), free_cols, len(pivot_cols))


def solve(a, b):
    """Solve ``a @ x = b`` by LU factorization with partial pivoting (LAPACK).

    ``b`` may be a vector or a matrix of stacked right-hand sides; the result
    has the matching shape. Raises SingularMatrixError when a pivot of the
    factorization is at or below ``PIVOT_TOL * max(|a|)``, the cutoff ``row_reduce``
    applies.
    """
    a = as_cmatrix(a)
    n, n2 = a.shape
    if n != n2:
        raise DimensionMismatchError(f"coefficient matrix must be square, got {a.shape}")
    rhs = np.asarray(b)
    vector_rhs = rhs.ndim == 1
    rhs = as_cmatrix(rhs[:, None] if vector_rhs else rhs, "rhs")
    if rhs.shape[0] != n:
        raise DimensionMismatchError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    if n == 0:
        x = rhs
    else:
        with warnings.catch_warnings():
            # an exactly zero pivot is reported below as SingularMatrixError
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
        pivots = np.abs(np.diagonal(lu))
        thresh = PIVOT_TOL * float(np.max(np.abs(a)))
        if pivots.min() <= thresh:
            rank = int(np.count_nonzero(pivots > thresh))
            raise SingularMatrixError(
                f"matrix is singular at tolerance {PIVOT_TOL:.1e} (rank {rank} of {n})"
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
        lead = int(np.argmax(mags >= LEAD_TOL * mags.max()))
        phase = col[lead] / abs(col[lead])
        v[:, k] = col / phase
    return v


def eig(a) -> EigPair:
    """Full right eigendecomposition of a general square matrix.

    Delegates to LAPACK (Hessenberg + shifted QR) via scipy, then normalizes
    each eigenvector to unit norm with its first significant entry rotated to
    the positive real axis. The residual contract
    ``max_k ||A v_k - w_k v_k||_inf <= EIG_RESIDUAL_TOL * ||A||_inf`` is enforced.
    """
    a = as_cmatrix(a)
    n, n2 = a.shape
    if n != n2:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    try:
        values, vectors = scipy.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR failure is rare
        raise NotConvergedError(f"eigendecomposition did not converge: {exc}") from exc
    vectors = _normalize_columns(vectors.astype(np.complex128))
    values = values.astype(np.complex128)
    scale = max(np.max(np.sum(np.abs(a), axis=1)), np.finfo(float).tiny) if n else 1.0
    residual = np.max(np.abs(a @ vectors - vectors * values)) if n else 0.0
    if residual > EIG_RESIDUAL_TOL * scale:
        raise NotConvergedError(
            f"eigendecomposition residual {residual:.3e} exceeds {EIG_RESIDUAL_TOL:.1e} * ||A||_inf"
        )
    return EigPair(values, vectors, _min_gap(values))


def _min_gap(values: np.ndarray) -> float:
    """Smallest distance between two entries (inf for fewer than two)."""
    n = values.shape[0]
    if n < 2:
        return float("inf")
    diff = np.abs(values[:, None] - values[None, :])
    return float(np.min(diff[~np.eye(n, dtype=bool)]))


def _gap_cut(values: np.ndarray, tol: float = GAP_TOL) -> float:
    """The distinctness cut ``tol * max(1, max|values|)`` for eigenvalue gaps."""
    return tol * max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
