"""Polynomial graph filters in both shifts, dualities, and convolution.

Filtering with a polynomial in the adjacency shift acts in the vertex
domain and is modulation by the filter's frequency response in the spectral
domain. A polynomial in the spectral shift M is a polynomial in the
adjacency of the spectral graph G_s, so each spectral-domain operation here
is its vertex-domain twin on G_s: the same code on ``basis.dual``. A
filter's shift is therefore named by the ``Domain`` it acts in: VERTEX for
a polynomial in A, SPECTRAL for one in M. Only filter files spell the shift
as ``"A"`` or ``"M"``.
Convolution of two arbitrary signals is realized by fitting filter
coefficients so that one signal becomes the filter's impulse response, then
applying the filter to the other. Every signal carries its domain, so no
function here asks for it again: a response's domain picks P(A) or P(M), a
fit target's domain picks the impulse matrix or its transform, and a
convolution runs in the domain of its first operand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError, DomainMismatchError, ParseError, SingularMatrixError
from .graphs import Domain, Graph, GraphSignal, _from_pairs, _pairs, _read_json, _write_json
from .impulses import ImpulseFamily, ImpulseKind, impulse_family
from .spectral import SpectralBasis, _check_length, _diag, spectral_shift

__all__ = [
    "FitMethod",
    "PolynomialFilter",
    "apply_filter",
    "response",
    "matrix_from_response",
    "modulate",
    "fit_filter",
    "convolve",
    "read_filter",
    "write_filter",
]


class FitMethod(enum.Enum):
    DENSE = "dense"


@dataclass(frozen=True)
class PolynomialFilter:
    """Coefficients p_0..p_d of a polynomial in a graph shift: the adjacency
    A when ``shift_domain`` is VERTEX, the spectral shift M when SPECTRAL."""

    coeffs: np.ndarray
    shift_domain: Domain

    def __post_init__(self):
        c = numkit.as_cvector(self.coeffs, "coeffs")
        if c.size < 1:
            raise BadSizeError("a filter needs at least one coefficient")
        object.__setattr__(self, "coeffs", c)


def apply_filter(
    filt: PolynomialFilter, graph: Graph, basis: SpectralBasis, signal: GraphSignal
) -> GraphSignal:
    """Apply P(shift) to a signal by Horner-style repeated shifting.

    Vertex filters act on vertex-domain signals through the adjacency;
    spectral filters act on spectral-domain signals through M, the
    adjacency of G_s. The full filter matrix is never formed.
    """
    x = signal.require(filt.shift_domain)
    shift = graph.adjacency if filt.shift_domain is Domain.VERTEX else spectral_shift(basis)
    _check_length(x, shift.shape[0])
    coeffs = filt.coeffs
    acc = coeffs[-1] * x
    for c in coeffs[-2::-1]:
        acc = shift @ acc + c * x
    return GraphSignal(acc, signal.domain)


def response(filt: PolynomialFilter, basis: SpectralBasis) -> GraphSignal:
    """Evaluate the filter polynomial on the frequencies.

    A vertex filter has the spectral response P(lam); a spectral filter has
    the vertex response P(conj(lam)), P on the frequencies of G_s. Modulating
    by the response in the opposite domain is equivalent to applying it.
    """
    hi_first = filt.coeffs[::-1]
    vertex = filt.shift_domain is Domain.VERTEX
    b = basis if vertex else basis.dual
    return GraphSignal(np.polyval(hi_first, b.lam), Domain.SPECTRAL if vertex else Domain.VERTEX)


def matrix_from_response(basis: SpectralBasis, resp: GraphSignal) -> np.ndarray:
    """Assemble the full filter matrix directly from a response vector.

    A spectral ``resp`` gives P(A) = igft @ diag(resp) @ gft, and a vertex
    ``resp`` gives P(M) = gft @ diag(resp) @ igft. No polynomial coefficients
    are involved; this is the matrix whose action on a signal of the
    opposite domain equals modulation by ``resp``.
    """
    b = basis if resp.domain is Domain.SPECTRAL else basis.dual
    return _diag(b, _check_length(resp.values, b.n))


def modulate(a: GraphSignal, b: GraphSignal) -> GraphSignal:
    """Entrywise (Hadamard) product of two signals in the same domain."""
    if a.domain is not b.domain:
        raise DomainMismatchError(
            f"cannot modulate {a.domain.value} with {b.domain.value}"
        )
    if a.values.shape != b.values.shape:
        raise DimensionMismatchError("modulation operands differ in length")
    return GraphSignal(a.values * b.values, a.domain)


def fit_filter(
    target: GraphSignal, fam: ImpulseFamily, method: FitMethod = FitMethod.DENSE
) -> PolynomialFilter:
    """Fit polynomial coefficients whose impulse response is ``target``.

    The target's domain picks the system: D p = target when it lives in the
    family's domain, the transformed D_hat p = target when it lives in the
    opposite one; both give the same filter, a polynomial in A for a vertex
    family and in M for a spectral one. A singular system raises
    SingularMatrixError naming the invertibility assumption that failed.
    ``method`` (DENSE, the one fit) stays for callers that pass it positionally.
    """
    system = fam.D if target.domain is fam.kind.domain else fam.D_hat
    rhs = _check_length(target.values, system.shape[0])
    try:
        coeffs = numkit.solve(system, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{exc}; {_diagnose(fam, system)}") from exc
    return PolynomialFilter(coeffs, fam.kind.domain)


def _diagnose(fam: ImpulseFamily, system: np.ndarray) -> str:
    # D_hat = diag(D_hat[:, 0]) @ [lam_i ** k]. Its first column is gft[:, 0]
    # (y0) for the vertex-impulsive family, igft[:, 0] for the spectral-domain
    # impulsive one and flat for the other two; its second column over its
    # first gives the frequencies (conjugated for the families of M)
    min_first = float(np.min(np.abs(fam.D_hat[:, 0])))
    if min_first <= numkit._zero_cut(fam.D_hat[:, 0]):
        vertex = fam.kind.domain is Domain.VERTEX
        column, name = ("GFT", "y0") if vertex else ("inverse GFT", "igft[:, 0]")
        return (
            f"the first {column} column has (near-)zero entries "
            f"(min |{name}| = {min_first:.2e}), which this impulse convention cannot tolerate"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = fam.D_hat[:, 1] / fam.D_hat[:, 0]
    gap = numkit._min_gap(lam)
    if not gap > numkit._gap_cut(lam):
        return "the shift appears to have repeated eigenvalues"
    return (
        f"the eigenvalues are distinct (smallest gap {gap:.2e}), but the impulse matrix "
        f"has condition number {np.linalg.cond(system):.1e}: it is a Krylov (Vandermonde) "
        "matrix in the frequencies, whose conditioning grows exponentially with N"
    )


def convolve(
    x: GraphSignal,
    y: GraphSignal,
    graph: Graph,
    basis: SpectralBasis,
    *,
    fam_kind: ImpulseKind | None = None,
) -> GraphSignal:
    """Convolve two graph signals by filtering, in the domain of ``x``.

    In the vertex domain, y * x = P(A) x where P(A) has impulse response y;
    in the spectral domain, yhat * xhat = P(M) xhat where P(M) has spectral
    impulse response yhat. ``y`` may be given in either domain, since
    fit_filter reads its tag. ``fam_kind`` defaults to the impulsive delta
    e_0 of x's domain and must live in that domain.
    """
    if fam_kind is None:
        fam_kind = (
            ImpulseKind.VERTEX_IMPULSIVE
            if x.domain is Domain.VERTEX
            else ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE
        )
    if fam_kind.domain is not x.domain:
        raise DomainMismatchError(
            f"impulse kind {fam_kind.value} does not live in the {x.domain.value} domain"
        )
    fam = impulse_family(graph, basis, fam_kind)
    return apply_filter(fit_filter(y, fam), graph, basis, x)


def write_filter(filt: PolynomialFilter, path) -> None:
    shift = "A" if filt.shift_domain is Domain.VERTEX else "M"
    _write_json(path, {"shift_domain": shift, "coeffs": _pairs(filt.coeffs)})


def read_filter(path) -> PolynomialFilter:
    doc = _read_json(path, ("shift_domain", "coeffs"))
    shift = doc["shift_domain"]
    if shift not in ("A", "M"):
        raise ParseError(f"{path}: shift_domain must be 'A' or 'M', got {shift!r}")
    domain = Domain.VERTEX if shift == "A" else Domain.SPECTRAL
    return PolynomialFilter(_from_pairs(doc["coeffs"], (None,), f"{path}: coeffs"), domain)
