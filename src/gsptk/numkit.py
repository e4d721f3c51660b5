"""Dense complex linear algebra kernel.

Everything downstream (bases, filters, sampling plans) reduces to three
operations on dense complex matrices: the pivot pattern of Gauss
elimination, linear solves, and a full eigendecomposition of a general
(non-symmetric) square matrix. A circulant matrix, the shift of the
directed cycle and of every weighted circulant graph, is diagonalized in
closed form by the DFT; every other matrix goes to LAPACK, in real
arithmetic when it has no imaginary part, as the shift of a real weighted
graph has, and in complex arithmetic otherwise. The result is complex
either way, in one frequency order, and a real shift's comes with the real
pair form (``_pair_form``) in which ``_diagonalize`` inverts and checks it.

Elimination is kept for callers whose result is the pivot pattern itself
(the sampling sets); its pivoting is by largest magnitude with ties broken by
the lowest row index, so pivot patterns are reproducible bit-for-bit on
identical inputs. On a wide matrix whose leading square block is well
conditioned, the singular values of that block prove the pattern (the
leading columns) and the elimination loop does not run. Solves, whose result
is only the solution, use LAPACK's partially pivoted LU. Both treat a pivot
as zero at or below ``PIVOT_TOL * max(|initial entries|)``, except in the
solve of a sampling block, which its singular values have already judged.

Every cut the library and the CLI commands apply is stated once, in the
table below, relative to a stated norm of what it guards, so scaling a graph
or a signal changes no verdict. The demos' assertion tolerances stay there.
"""

from __future__ import annotations

import numbers
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadSizeError, DimensionMismatchError, NonFiniteError, NotConvergedError,
                     ReconstructionMismatchError, RepeatedEigenvaluesError, SingularMatrixError)

# ---------------------------------------------------------------------------
# tolerances: each names the quantity it cuts and the scale it multiplies

# zero (``_zero_cut``): a pivot, an entry or the smallest singular value of a
# block, at or below PIVOT_TOL * max|a| for the matrix or vector a it is cut from;
# an eigenvector's phase is set by its first entry above the zero cut of its column
PIVOT_TOL = 1e-10
# eig: max_k ||A v_k - w_k v_k||_inf must not exceed EIG_RESIDUAL_TOL * ||A||_inf
EIG_RESIDUAL_TOL = 1e-9
# distinct frequencies (``_coincident``): every eigenvalue gap exceeds GAP_TOL * max|lam|;
# the default of basis_from_graph and --tol, and the cut of fit_filter's repeated frequencies
GAP_TOL = 1e-8
# computed bases reconstruct I to IDENTITY_TOL * max|I|, and computed and explicit
# bases A to IDENTITY_TOL * max|A|; read_plan with a graph: R = [I; S] (scattered to N x K)
# has an A-invariant range, ||A R - R (A R)[kept]||_inf <= IDENTITY_TOL * ||A||_inf * ||R||_inf
IDENTITY_TOL = 1e-8
# cli sample: the band guard is BAND_GUARD_REL * max|xhat|, loose enough for
# reference data stored at print precision
BAND_GUARD_REL = 5e-3


__all__ = [
    "RowReduction",
    "EigPair",
    "row_reduce",
    "solve",
    "eig",
]


def _as_array(a, name: str, ndim: int, dtype=np.complex128, order: str = "C") -> np.ndarray:
    """``a`` as a finite ``ndim``-D ``dtype`` array in ``order``, else NonFiniteError or DimensionMismatchError
    naming ``name``. An array that already is one is kept, not copied: a routine that writes into it copies it."""
    m = np.asarray(a, dtype=dtype, order=order)
    if m.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-D, got shape {m.shape}")
    if m.size and not _all_finite(m.ravel("K").view(np.float64)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` without its boolean temporary: a sum is finite only when every entry
    is, so the exact pass runs only when the sum is not (a non-finite entry, or an overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(x.sum()):
            return True
    return bool(np.isfinite(x).all())


def _as_size(n, name: str) -> int:
    """The size argument ``n`` as an int; BadSizeError, naming it ``name``, unless it is an integer."""
    if isinstance(n, bool):  # True == 1, but is no size
        raise BadSizeError(f"{name!r} must be an integer, not a boolean")
    try:  # operator.index, not int(), so that 2.5 is refused, not truncated
        return operator.index(n)
    except TypeError:
        raise BadSizeError(f"{name!r} must be an integer, got {n!r}") from None


@dataclass(frozen=True)
class RowReduction:
    """The pivot pattern of Gauss elimination: ``pivot_cols``, ascending.
    ``singular_values``: the leading block's, when they proved the pattern
    (``row_reduce``); not compared.
    """

    pivot_cols: tuple[int, ...]
    singular_values: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EigPair:
    """Right eigendecomposition in ``eig``'s frequency order: ``values[k]`` pairs with ``vectors[:, k]``.

    Columns have unit Euclidean norm with their first entry above the zero cut of the column rotated onto
    the positive real axis. ``unitary``: the columns are orthonormal by construction, so the inverse of
    ``vectors`` is its conjugate transpose. ``pair_form``: ``_pair_form``'s ``(W, order, m)``,
    ``vectors[:, order] = W T``, on which ``eig`` checked its residual; not compared.
    """

    values: np.ndarray
    vectors: np.ndarray
    unitary: bool
    pair_form: tuple = field(compare=False, repr=False)


def row_reduce(a) -> RowReduction:
    """Forward Gauss elimination, keeping only the pivot pattern.

    Partial pivoting by largest magnitude (ties to the lowest row index);
    a candidate pivot with magnitude <= PIVOT_TOL * max(|initial entries|) is
    treated as zero and its column becomes free. A zero (or empty) matrix
    has no pivot. Only the block below and right of each pivot is
    eliminated: the rows above a pivot are never searched again, so they
    cannot change the pattern.

    A matrix with ``0 < r <= n`` rows is first tested without elimination:
    when the smallest singular value of its leading block ``B = a[:, :r]``
    exceeds ``2 * sqrt(r) * cut`` (``cut`` the zero cut above), the pattern
    is the leading columns ``0..r-1``. Proof: after ``j`` pivots in columns
    ``0..j-1`` the rows still searched hold the Schur complement ``S_j`` of a
    ``j x j`` block of ``P B``, for whatever row permutation ``P`` the
    pivoting chose. ``S_j^-1`` is a block of ``(P B)^-1``, so
    ``sigma_min(S_j) >= sigma_min(B)``, and the candidate pivot, the largest
    magnitude in the first column of ``S_j``, is at least ``|S_j e_1|_2 /
    sqrt(r) >= sigma_min(B) / sqrt(r) > 2 * cut``. The factor 2 covers
    rounding under a growth assumption: the computed ``S_j`` is the exact
    Schur complement of ``P (B + E)``, and every candidate stays above
    ``cut`` while ``|E|_2 <= sqrt(r) * cut``. Wilkinson's worst case,
    ``|E|_2`` about ``r^2 * g * eps * max|a|`` for the growth factor ``g``,
    meets that while ``g < PIVOT_TOL / (r^1.5 * eps)``, 20 at r = 800; on
    the sampling blocks of ER digraphs at N = 400 and 1600, ``g`` was at most
    7.4 and ``|E|_2`` at most 5.6e-14 * max|a|. Past that growth the loop
    could call a candidate zero and return another pattern than this test.
    The factor is a proof margin, not a cut: it decides only whether the
    loop runs. Tall and empty matrices, and a block that fails the test, go
    to the loop.
    """
    r = _as_array(a, "matrix", 2)
    m, n = r.shape
    if 0 < m <= n:
        sv = np.linalg.svd(r[:, :m], compute_uv=False)
        if sv[-1] > 2.0 * np.sqrt(m) * _zero_cut(r):
            return RowReduction(tuple(range(m)), sv)
    return _eliminate(r.copy())


def _eliminate(r: np.ndarray) -> RowReduction:
    """``row_reduce``'s elimination loop on ``r``, a C-contiguous complex128 matrix, which it overwrites."""
    m, n = r.shape
    _rescale(r)
    thresh = _zero_cut(r)
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
    return RowReduction(tuple(pivot_cols))


def solve(a, b):
    """Solve ``a @ x = b`` by LU factorization with partial pivoting (LAPACK).

    ``b`` may be a vector or a matrix of stacked right-hand sides; the result
    has the matching shape, float64 when neither operand is complex (a real pair form W), else
    complex128. Raises SingularMatrixError when a pivot of the factorization is at or below
    ``PIVOT_TOL * max(|a|)``, the cutoff ``row_reduce`` applies, NonFiniteError when x overflows.
    """
    dtype = np.complex128 if np.iscomplexobj(a) or np.iscomplexobj(b) else np.float64
    # one copy of each operand, in the Fortran order LAPACK factors and solves in place
    a = _as_array(np.array(a, dtype, order="F"), "matrix", 2, dtype, "F")
    n, n2 = a.shape
    if n != n2:
        raise DimensionMismatchError(f"coefficient matrix must be square, got {a.shape}")
    rhs = np.asarray(b)
    vector_rhs = rhs.ndim == 1
    rhs = _as_array(np.array(rhs[:, None] if vector_rhs else rhs, dtype, order="F"), "rhs", 2, dtype, "F")
    if rhs.shape[0] != n:
        raise DimensionMismatchError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    x = _as_array(_lu_solve(a, rhs, _zero_cut(a)), "solution", 2, dtype, "K")
    return x[:, 0] if vector_rhs else x


def _exponent(a) -> int:
    """The e that brings ``2**e * max|a|`` into [0.5, 1) when max|a| is outside [2**-400, 2**400], else 0:
    inside the [6.7e-139, 1.5e138] beyond which LAPACK's eigensolvers scale a matrix themselves."""
    big = _max_abs(a)
    return -int(np.frexp(big)[1]) if big and not 2.0 ** -400 <= big <= 2.0 ** 400 else 0


def _rescale(a: np.ndarray, *others: np.ndarray) -> int:
    """Scale ``a`` and ``others``, C-contiguous float64 or complex128 arrays, in place by ``2**e``, e =
    ``_exponent(a)``, and return e. The scaling is exact, so a pivot pattern, an eigenbasis or a solve of
    ``others`` by ``a`` is the same map, but no reciprocal or product of an extreme entry overflows."""
    e = _exponent(a)
    for m in (a, *others) if e else ():
        np.ldexp(m.view(np.float64), e, out=m.view(np.float64))
    return e


def _unscale(values: np.ndarray, e: int) -> np.ndarray:
    """Scale complex128 ``values`` by ``2**-e`` in place, undoing ``_rescale``; NonFiniteError on overflow."""
    with np.errstate(over="ignore"):
        np.ldexp(values.view(np.float64), -e, out=values.view(np.float64))
    return _as_array(values, "lam scaled back", 1)


def _lu_solve(a: np.ndarray, b: np.ndarray, cut: float | None = None) -> np.ndarray:
    """``a^-1 b`` by LAPACK's partially pivoted LU (``b`` when ``a`` is empty);
    SingularMatrixError when a pivot is at or below ``cut``, if one is given.
    LAPACK works in place on ``a`` and ``b`` where it can: pass arrays you own."""
    if not a.size:
        return b
    import scipy.linalg  # here, not at the top: a command that never solves skips its import

    with warnings.catch_warnings():
        # an exactly zero pivot is judged below or, without a cut, by the caller
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if cut is not None and pivots.min() <= cut:
        raise SingularMatrixError(f"matrix is singular at tolerance {PIVOT_TOL:.1e} "
                                  f"(rank {np.count_nonzero(pivots > cut)} of {a.shape[0]})")
    return scipy.linalg.lu_solve((lu, piv), b, overwrite_b=True, check_finite=False)


def _normalize_columns(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with each nonzero column scaled to unit norm and its first
    entry of magnitude ``> PIVOT_TOL * max|column|``, the zero cut, rotated onto
    the positive real axis; a zero column is returned as it is, signed zeros included."""
    if not vectors.size:
        return vectors.copy()
    # np.linalg.norm of each column sums as one BLAS dot; a reduction along axis 0 would not
    nrm = np.array([np.linalg.norm(col) for col in vectors.T])
    with np.errstate(invalid="ignore"):  # a zero column's 0/0, undone below
        v = np.divide(vectors, nrm, order="C")
        mags = np.abs(v)
        lead = np.argmax(mags > PIVOT_TOL * mags.max(axis=0), axis=0)
        pick = v[lead, np.arange(v.shape[1])]
        # np.hypot rounds as abs() of one entry does; np.abs of an array need not
        v /= pick / np.hypot(pick.real, pick.imag)
    zero = nrm == 0.0
    v[:, zero] = vectors[:, zero]
    return v


def eig(a) -> EigPair:
    """Full right eigendecomposition of a general square matrix.

    A circulant matrix, whose entry ``(i, j)`` depends only on
    ``(i - j) mod n``, is diagonalized in closed form by the DFT
    (``_dft_eig``); every other matrix goes to LAPACK (Hessenberg + shifted
    QR) via scipy. LAPACK's eigenvectors are then normalized to unit norm
    with their first entry above the zero cut rotated to the positive real axis;
    the closed form's already are. The residual contract ``max_k ||A v_k -
    w_k v_k||_inf <= EIG_RESIDUAL_TOL * ||A||_inf`` is enforced on either
    path, on the matrix scaled by a power of two (``_rescale``), which LAPACK need not scale again;
    the eigenvalues are scaled back at the end. Only the closed form sets ``unitary``: its columns are the
    orthonormal DFT columns, or, for a tied real value, an orthonormal
    cos/sin pair. The eigenpairs come in the frequency order of every basis:
    descending real part, ties by descending imaginary part, so a real shift's
    conjugate pairs sort adjacent, positive imaginary part first.

    Off the circulant path, a matrix with no imaginary part goes to the real
    solver (``dgeev``), which is faster than the complex one (``zgeev``). It
    returns each complex eigenvalue and its eigenvector as an exactly
    conjugate pair, and each real eigenvalue with imaginary part exactly 0
    and a real eigenvector, and the normalization keeps both properties bit
    for bit; a real circulant's closed form does the same. The result is
    complex128 on either path; the residual of a real shift's is ``max|(A W - W B) T|``
    on its real pair form, which the result keeps as ``pair_form``.
    """
    a = _as_array(a, "matrix", 2)
    n, n2 = a.shape
    if n != n2:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    unitary = bool(n) and _circulant(a)
    mags = np.abs(a)
    if _exponent(mags):  # scaled on a copy, not in the caller's array
        a = a.copy()
    e = _rescale(mags, a)
    scale = max(np.max(np.sum(mags, axis=1)), np.finfo(float).tiny) if n else 1.0
    del mags
    if unitary:
        values, vectors = _dft_eig(a[:, 0])
    else:
        import scipy.linalg  # here, not at the top: a command that never decomposes skips its import

        try:
            values, vectors = scipy.linalg.eig(a if a.imag.any() else a.real)
        except np.linalg.LinAlgError as exc:
            raise NotConvergedError(f"eigendecomposition did not converge: {exc}") from exc
        vectors = _normalize_columns(vectors.astype(np.complex128, copy=False))
    values = values.astype(np.complex128)
    freq = np.lexsort((-values.imag, -values.real))
    values, vectors = values[freq], vectors[:, freq]
    a, w, order, m = _pair_form(a, values, vectors)
    r = a @ w
    r -= _times_b(w, values[order], m)
    residual = _pair_max(r, m, rows=False)
    if not residual <= EIG_RESIDUAL_TOL * scale:
        raise NotConvergedError(
            f"eigendecomposition residual {residual:.3e} exceeds {EIG_RESIDUAL_TOL:.1e} * ||A||_inf"
        )
    return EigPair(_unscale(values, e) if e else values, vectors, unitary, (w, order, m))


def _diagonalize(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gft, igft, lam)`` of the square matrix ``a``: ``eig``'s values and vectors, in its frequency
    order, and the inverse of the vectors, checked.

    A real shift's vectors are ``igft = W T`` in the real pair form (``_pair_form``); a complex one has
    W = ``igft``. ``gft`` is ``T^-1 W^-1``, W^-1 the real LU inverse of W (``solve``) or, for a
    circulant, whose eigenvectors are orthonormal, W^T with doubled pair rows and ``gft = igft^H``.
    The basis must reconstruct I, ``max|T^-1 (W^-1 W - I) T|``, and A, ``(W B) W^-1``, to
    ``IDENTITY_TOL`` (``_check_close``). Raises RepeatedEigenvaluesError when the smallest eigenvalue
    gap is within ``tol * max|lam|``, since no useful basis exists without distinct frequencies.
    All of this runs on ``a`` scaled by ``2**_exponent(a)``, exactly, and ``lam`` is scaled back once.
    It calls ``eig`` and ``solve`` by their module names, so that a wrapper put in their place sees each call.
    """
    # the window is tested on max(|re|, |im|), within sqrt(2) of max|a| and read without the temporary |a|
    e = _rescale(a := a.copy()) if _exponent(a.view(np.float64)) else 0
    pair = eig(a)
    gap, cut, pairs = _coincident(pair.values, tol)
    if pairs.size:
        raise RepeatedEigenvaluesError(gap, cut)
    lam, igft, (w, order, m) = pair.values, pair.vectors, pair.pair_form
    gft = igft.conj().T if pair.unitary else np.empty_like(igft)  # before the work arrays, for a trimmable heap
    a = a if np.iscomplexobj(w) else a.real
    n = a.shape[0]
    s, t = n - 2 * m, n - m
    if pair.unitary:  # W^-1 is W^T with each pair's rows doubled
        wi = np.conj(w.T)
        wi[s:] *= 2
    else:
        wi = solve(w, np.eye(n, dtype=w.dtype))
    _check_close(wi @ w, np.eye(n), IDENTITY_TOL, "gft @ igft deviates from the identity", m)
    _check_close(_times_b(w, lam[order], m) @ wi, a, IDENTITY_TOL, "computed basis does not reconstruct the shift")
    if not pair.unitary:  # T^-1 W^-1: row p is (W^-1[p] - i W^-1[q]) / 2, row q its conjugate
        gft[order[:s]] = wi[:s]
        gft.real[order[s:t]] = gft.real[order[t:]] = wi.real[s:t] / 2
        gft.imag[order[t:]] = wi.real[t:] / 2
        gft.imag[order[s:t]] = wi.real[t:] / -2
    return gft, igft, _unscale(lam, e) if e else lam


def _check_close(got: np.ndarray, want: np.ndarray, tol: float, what: str, m: int = 0) -> None:
    """The reconstruction check of every basis: ReconstructionMismatchError
    unless ``got`` reproduces ``want`` (A, or I) to ``tol * max|want|``, read by ``_pair_max``.
    It overwrites ``got``, a product the caller formed for the check, with ``got - want``."""
    got -= want
    err = _pair_max(got, m)
    limit = tol * _max_abs(want)
    if not err <= limit:
        raise ReconstructionMismatchError(f"{what}: error {err:.3e} > {limit:.3e}")


def _circulant(a: np.ndarray) -> bool:
    """Whether the square matrix ``a`` is circulant, tested exactly: the first
    row wraps the last one, and each diagonal is constant. The O(N) test runs
    first, so most other matrices are told apart without the O(N^2) one."""
    return bool(np.array_equal(a[0, 1:], a[-1, :-1]) and np.array_equal(a[1:, 1:], a[:-1, :-1]))


def _dft_eig(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the n x n circulant with first column
    ``column`` (n >= 1): value ``k`` is entry ``k`` of the column's FFT and
    vector ``k`` is the DFT column ``w**(j*k) / sqrt(n)``, ``w = exp(2 pi i / n)``,
    whose phases are read from a table of the n-th roots of unity at
    ``j*k mod n``. For a real column, values and vectors ``k`` and ``n - k``
    are exact conjugates, and values and vectors 0 and ``n/2`` are real. Any
    other real value equals its partner ``n - k``, as on a symmetric
    circulant; that pair's vectors are replaced by ``sqrt(2)`` times the real
    and imaginary parts of vector ``k``, real orthonormal eigenvectors of the
    same value. Every vector has unit norm, up to rounding, and its first entry
    above the zero cut on the positive real axis: entry 0, or entry 1 of an
    imaginary part, ``sqrt(2/n) sin(2 pi k / n)`` with ``0 < k < n/2``.
    """
    n = column.shape[0]
    real = not column.imag.any()
    values = _hermitian(np.fft.rfft(column.real), n) if real else np.fft.fft(column)
    roots = _hermitian(np.exp(2j * np.pi * np.arange(n // 2 + 1) / n), n)
    vectors = roots[np.outer(np.arange(n), np.arange(n)) % n] / np.sqrt(n)
    if real:
        tied = 1 + np.flatnonzero(values[1:(n + 1) // 2].imag == 0)
        vectors[:, n - tied] = vectors[:, tied].imag * np.sqrt(2.0)
        vectors[:, tied] = vectors[:, tied].real * np.sqrt(2.0)
    return values, vectors


def _hermitian(half: np.ndarray, n: int) -> np.ndarray:
    """The length-``n`` sequence whose entries ``0..n//2`` are ``half`` and whose
    entry ``n - k`` is the conjugate of entry ``k`` bit for bit; entries 0 and
    ``n/2`` are made exactly real."""
    full = np.empty(n, dtype=np.complex128)
    full[: n // 2 + 1] = half
    full.imag[0] = 0.0
    if n % 2 == 0:
        full.imag[n // 2] = 0.0
    full[n // 2 + 1:] = full[1:(n + 1) // 2][::-1].conj()
    return full


def _conjugate_pairs(values: np.ndarray, vectors: np.ndarray):
    """``(order, m)`` when conjugation maps the eigenpairs ``values[k]``, ``vectors[:, k]`` onto themselves
    bit for bit, else None: ``order`` lists the real values, the m values ``p`` of positive imaginary part
    and their conjugates ``q``; each real value's vector is real and each ``q``'s value and vector are the
    conjugates of its ``p``'s. A signed zero matches its opposite."""
    kind = np.sign(values.imag) % 3  # 0 for a real value, 1 for p, 2 for q
    order = np.lexsort((np.abs(values.imag), values.real, kind))
    n, m = values.shape[0], int(np.count_nonzero(kind == 1))
    p, q = order[n - 2 * m:n - m], order[n - m:]
    paired = (np.count_nonzero(kind == 2) == m and np.array_equal(values[q], values[p].conj())
              and not vectors.imag[:, kind == 0].any() and np.array_equal(vectors.real[:, q], vectors.real[:, p])
              and np.array_equal(vectors.imag[:, q], -vectors.imag[:, p]))
    return (order, m) if paired else None


def _pair_form(a: np.ndarray, values: np.ndarray, vectors: np.ndarray):
    """``(a, W, order, m)``, ``vectors[:, order] = W T`` for a real ``a`` whose eigenpairs
    ``_conjugate_pairs`` accepts: W is the real vectors, the real and imaginary parts of vectors ``p``,
    T ``[[I, I], [iI, -iI]]`` on the last 2m columns; else ``a``, ``vectors``, the identity order and m = 0."""
    pairs = None if a.imag.any() else _conjugate_pairs(values, vectors)
    if pairs is None:
        return a, vectors, np.arange(values.shape[0]), 0
    (order, m), n = pairs, values.shape[0]
    w = vectors.real[:, order]
    w[:, n - m:] = vectors.imag[:, order[n - 2 * m:n - m]]
    return a.real, w, order, m


def _times_b(w: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """``W B`` for ``_pair_form``'s W and ``values``: ``[[x, y], [-y, x]]`` on a pair of value x + iy."""
    s, t = w.shape[1] - 2 * m, w.shape[1] - m
    wb = w * (values if np.iscomplexobj(w) else values.real)
    wb[:, s:t] -= w[:, t:] * values.imag[s:t]
    wb[:, t:] += w[:, s:t] * values.imag[s:t]
    return wb


def _pair_max(e: np.ndarray, m: int, rows: bool = True) -> float:
    """``max|T^-1 e T|`` (``max|e T|`` without ``rows``), T ``_pair_form``'s: ``e[j, p] +- i e[j, q]`` on
    pair columns, half ``e[p, k] -+ i e[q, k]`` on pair rows, half ``(e11 +- e22) + i (e12 -+ e21)`` on both."""
    if not m:
        return float(np.max(np.abs(e), initial=0.0))
    r, p, q = slice(0, -2 * m), slice(-2 * m, -m), slice(-m, None)
    er = e[r] if rows else e
    big = [np.abs(er[:, r]).max(initial=0.0), np.abs(er[:, p] + 1j * er[:, q]).max(initial=0.0)]
    if rows:
        ep, eq = e[p], e[q]
        big += [np.abs(ep[:, r] + 1j * eq[:, r]).max(initial=0.0) / 2,
                np.abs(ep[:, p] + eq[:, q] + 1j * (ep[:, q] - eq[:, p])).max() / 2,
                np.abs(ep[:, p] - eq[:, q] + 1j * (ep[:, q] + eq[:, p])).max() / 2]
    return float(np.max(big))  # np.max, not max(), so that a NaN in any part is the result


def _coincident(values: np.ndarray, tol: float = GAP_TOL) -> tuple[float, float, np.ndarray]:
    """``(gap, cut, pairs)``, the one verdict on which frequencies ``values`` coincide: the smallest distance
    between two entries (inf for fewer than two), the cut ``tol * max|values|``, and the index pairs
    ``(i, j)``, ``i < j``, at most ``cut`` apart, one per row in ascending order. BadSizeError unless ``tol``
    is a finite real number >= 0.

    With the entries sorted by descending real part, it takes the distances of entries w places apart for
    w = 1, 2, ... and stops once every real-part gap at offset w exceeds both the gap so far and the cut: a
    pair farther apart in that order is at least as far apart in real part. Memory is O(N); equal real parts
    (a skew-symmetric shift) still take N^2 / 2 distances, one offset at a time."""
    if not isinstance(tol, numbers.Real) or not 0 <= tol < np.inf:
        raise BadSizeError(f"tol must be finite and >= 0, got {tol}")
    cut = tol * float(np.max(np.abs(values), initial=0.0))
    order = np.argsort(-values.real, kind="stable")
    v, gap, pairs = values[order], np.inf, [np.empty((0, 2), dtype=np.intp)]
    for w in range(1, v.shape[0]):
        if (v.real[:-w] - v.real[w:]).min() > max(gap, cut):
            break
        d = np.abs(v[w:] - v[:-w])
        gap = min(gap, float(d.min()))
        if gap <= cut:  # some pair is at or below the cut, so this offset may hold more
            k = np.flatnonzero(d <= cut)
            pairs.append(np.sort(np.stack((order[k], order[k + w]), axis=1), axis=1))
    pairs = np.concatenate(pairs)
    return gap, cut, pairs[np.lexsort(pairs.T[::-1])]


def _zero_cut(a) -> float:
    """``PIVOT_TOL * max|a|``: an entry, pivot or singular value at or below it is zero."""
    return PIVOT_TOL * _max_abs(a)


def _max_abs(a) -> float:
    """``max|a|``, 0 for an empty ``a``. A float ``a``'s is read from its extremes, without the temporary ``|a|``."""
    a = np.asarray(a)
    if a.dtype.kind != "f":
        return float(np.max(np.abs(a), initial=0.0))
    return float(max(0.0, a.max(initial=0.0), -a.min(initial=0.0)))
