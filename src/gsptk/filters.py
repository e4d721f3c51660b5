"""Polynomial graph filters in both shifts, dualities, and convolution.

Filtering with a polynomial in the adjacency shift acts in the vertex
domain and is modulation by the filter's frequency response in the spectral
domain; filtering with a polynomial in the spectral shift M acts in the
spectral domain and is modulation by its vertex response. Convolution of two
arbitrary signals is realized by fitting filter coefficients so that one
signal becomes the filter's impulse response, then applying the filter to
the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError, DomainMismatchError, ParseError, SingularMatrixError
from .graphs import Domain, Graph, GraphSignal, _from_pairs, _pairs, _read_json, _write_json
from .impulses import ImpulseFamily, ImpulseKind, impulse_family
from .spectral import SpectralBasis, _check_length, spectral_shift

__all__ = [
    "ShiftDomain",
    "ResponseDirection",
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


class ShiftDomain(enum.Enum):
    VERTEX_A = "A"
    SPECTRAL_M = "M"


class ResponseDirection(enum.Enum):
    FREQ_RESPONSE_TO_PA = "freq_response_to_pa"
    VERTEX_RESPONSE_TO_PM = "vertex_response_to_pm"


class FitMethod(enum.Enum):
    DENSE = "dense"
    DENSE_SPECTRAL = "dense_spectral"
    L1 = "l1"


@dataclass(frozen=True)
class PolynomialFilter:
    """Coefficients p_0..p_d of a polynomial in a graph shift."""

    coeffs: np.ndarray
    shift_domain: ShiftDomain

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
    spectral filters act on spectral-domain signals through M. The full
    filter matrix is never formed.
    """
    if filt.shift_domain is ShiftDomain.VERTEX_A:
        x = signal.require(Domain.VERTEX)
        shift = graph.adjacency
    else:
        x = signal.require(Domain.SPECTRAL)
        shift = spectral_shift(basis)
    _check_length(x, shift.shape[0])
    coeffs = filt.coeffs
    acc = coeffs[-1] * x
    for c in coeffs[-2::-1]:
        acc = shift @ acc + c * x
    return GraphSignal(acc, signal.domain)


def response(filt: PolynomialFilter, basis: SpectralBasis) -> GraphSignal:
    """Evaluate the filter polynomial on the frequencies.

    A vertex filter has the spectral response P(lam); a spectral filter has
    the vertex response P(conj(lam)). Modulating by the response in the
    opposite domain is equivalent to applying the filter.
    """
    hi_first = filt.coeffs[::-1]
    if filt.shift_domain is ShiftDomain.VERTEX_A:
        return GraphSignal(np.polyval(hi_first, basis.lam), Domain.SPECTRAL)
    return GraphSignal(np.polyval(hi_first, np.conj(basis.lam)), Domain.VERTEX)


def matrix_from_response(
    basis: SpectralBasis, resp: GraphSignal, direction: ResponseDirection
) -> np.ndarray:
    """Assemble the full filter matrix directly from a response vector.

    FREQ_RESPONSE_TO_PA:   P(A) = igft @ diag(resp) @ gft   (resp spectral)
    VERTEX_RESPONSE_TO_PM: P(M) = gft @ diag(resp) @ igft   (resp vertex)

    No polynomial coefficients are involved; this is the matrix whose action
    equals modulation by ``resp`` in the opposite domain.
    """
    if direction is ResponseDirection.FREQ_RESPONSE_TO_PA:
        r = resp.require(Domain.SPECTRAL)
        return basis.igft @ (r[:, None] * basis.gft)
    r = resp.require(Domain.VERTEX)
    return basis.gft @ (r[:, None] * basis.igft)


def modulate(a: GraphSignal, b: GraphSignal) -> GraphSignal:
    """Entrywise (Hadamard) product of two signals in the same domain."""
    if a.domain is not b.domain:
        raise DomainMismatchError(
            f"cannot modulate {a.domain.value} with {b.domain.value}"
        )
    if a.values.shape != b.values.shape:
        raise DimensionMismatchError("modulation operands differ in length")
    return GraphSignal(a.values * b.values, a.domain)


def _ista(d: np.ndarray, y: np.ndarray, gamma: float, max_iter: int = 100_000) -> np.ndarray:
    """Proximal gradient for min_z ||y - D z||_2^2 + gamma * |z|_1.

    Runs on the equivalent scaled objective (1/2)||y - D z||^2 + (gamma/2)|z|_1
    so the step 1 / sigma_max(D)^2 sits exactly at the convergence boundary.
    Soft thresholding acts on complex magnitudes.
    """
    step = 1.0 / max(np.linalg.norm(d, 2) ** 2, np.finfo(float).tiny)
    thresh = 0.5 * gamma * step
    z = np.zeros(d.shape[1], dtype=np.complex128)
    for _ in range(max_iter):
        w = z - step * (d.conj().T @ (d @ z - y))
        mag = np.abs(w)
        shrink = np.maximum(mag - thresh, 0.0)
        z_new = w * (shrink / np.maximum(mag, np.finfo(float).tiny))
        if np.max(np.abs(z_new - z)) < numkit.ISTA_STOP:
            return z_new
        z = z_new
    return z


def _family_domain(kind: ImpulseKind) -> Domain:
    return Domain.VERTEX if kind.lives_in_vertex_domain else Domain.SPECTRAL


def fit_filter(
    target: GraphSignal,
    fam: ImpulseFamily,
    method: FitMethod = FitMethod.DENSE,
    gamma: float | None = None,
) -> PolynomialFilter:
    """Fit polynomial coefficients whose impulse response is ``target``.

    DENSE solves D p = target in the family's own domain; DENSE_SPECTRAL
    solves the transformed system D_hat p = target with the target supplied
    in the opposite domain; L1 runs ISTA on the dense system and tolerates
    singular impulse matrices. The singular error message names which
    invertibility assumption failed.
    """
    own = _family_domain(fam.kind)
    fits_vertex_shift = fam.kind.lives_in_vertex_domain
    if method is FitMethod.DENSE_SPECTRAL:
        other = Domain.SPECTRAL if own is Domain.VERTEX else Domain.VERTEX
        rhs = target.require(other)
        system = fam.D_hat
    else:
        rhs = target.require(own)
        system = fam.D
    _check_length(rhs, system.shape[0])
    if method is FitMethod.L1:
        if gamma is None:
            gamma = 1e-3 * float(np.max(np.abs(system.conj().T @ rhs)))
        coeffs = _ista(system, rhs, gamma)
    else:
        try:
            coeffs = numkit.solve(system, rhs)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{exc}; {_diagnose(fam, system)}") from exc
    domain = ShiftDomain.VERTEX_A if fits_vertex_shift else ShiftDomain.SPECTRAL_M
    return PolynomialFilter(coeffs, domain)


def _diagnose(fam: ImpulseFamily, system: np.ndarray) -> str:
    # D_hat = diag(D_hat[:, 0]) @ [lam_i ** k]. Its first column is gft[:, 0]
    # (y0) for the vertex-impulsive family, igft[:, 0] for the spectral-domain
    # impulsive one and flat for the other two; its second column over its
    # first gives the frequencies (conjugated for the families of M)
    min_first = float(np.min(np.abs(fam.D_hat[:, 0])))
    if min_first <= numkit.FIRST_COLUMN_TOL:
        vertex = fam.kind.lives_in_vertex_domain
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
    domain: Domain,
    fam_kind: ImpulseKind | None = None,
    method: FitMethod = FitMethod.DENSE,
) -> GraphSignal:
    """Convolve two graph signals by filtering.

    In the vertex domain, y * x = P(A) x where P(A) has impulse response y;
    in the spectral domain, yhat * xhat = P(M) xhat where P(M) has spectral
    impulse response yhat. Both signals must live in ``domain``.
    """
    if fam_kind is None:
        fam_kind = (
            ImpulseKind.VERTEX_IMPULSIVE
            if domain is Domain.VERTEX
            else ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE
        )
    if _family_domain(fam_kind) is not domain:
        raise DomainMismatchError(
            f"impulse kind {fam_kind.value} does not live in the {domain.value} domain"
        )
    x.require(domain)
    y.require(domain)
    fam = impulse_family(graph, basis, fam_kind)
    filt = fit_filter(y, fam, method)
    return apply_filter(filt, graph, basis, x)


def write_filter(filt: PolynomialFilter, path) -> None:
    doc = {"shift_domain": filt.shift_domain.value, "coeffs": _pairs(filt.coeffs)}
    _write_json(path, doc)


def read_filter(path) -> PolynomialFilter:
    doc = _read_json(path, ("shift_domain", "coeffs"))
    try:
        shift_domain = ShiftDomain(doc["shift_domain"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return PolynomialFilter(_from_pairs(doc["coeffs"], (None,), f"{path}: coeffs"), shift_domain)
