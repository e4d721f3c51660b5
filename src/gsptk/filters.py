"""Polynomial graph filters in both shifts, dualities, and convolution.

Filtering with a polynomial in the adjacency shift acts in the vertex
domain and is modulation by the filter's frequency response in the spectral
domain. A polynomial in the spectral shift M is a polynomial in the
adjacency of the spectral graph G_s, so each spectral-domain operation here
is its vertex-domain twin on G_s: the same code on ``basis.dual``. A
filter's shift is therefore named by the ``Domain`` it acts in: VERTEX for
a polynomial in A, SPECTRAL for one in M.
A filter is fixed by its frequency response, so the convolution y * x, the
filter with impulse response y applied to x, needs no coefficients:
``fit_filter`` divides the transform of y by the transform of the delta,
and ``convolve`` modulates the transform of x by that response and
transforms back. Every signal carries its domain, so no function here asks
for it again: a response's domain picks P(A) or P(M), a fit target's domain
says whether it still needs its transform, and a convolution runs in the
domain of its first operand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError, DomainMismatchError, SingularMatrixError
from .graphs import Domain, Graph, GraphSignal
from .impulses import ImpulseKind
from .spectral import SpectralBasis, _check_length, _diag, gft_apply, spectral_shift

__all__ = [
    "FitMethod",
    "PolynomialFilter",
    "apply_filter",
    "response",
    "matrix_from_response",
    "modulate",
    "fit_filter",
    "convolve",
]


class FitMethod(enum.Enum):
    """The choices of ``convolve --method``; the response is the one fit."""

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
        if not isinstance(self.shift_domain, Domain):
            raise TypeError("shift_domain must be a Domain enum member")
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
    lam = basis.for_domain(filt.shift_domain).lam
    return GraphSignal(np.polyval(filt.coeffs[::-1], lam), filt.shift_domain.other)


def matrix_from_response(basis: SpectralBasis, resp: GraphSignal) -> np.ndarray:
    """Assemble the full filter matrix directly from a response vector.

    A spectral ``resp`` gives P(A) = igft @ diag(resp) @ gft, and a vertex
    ``resp`` gives P(M) = gft @ diag(resp) @ igft. No polynomial coefficients
    are involved; this is the matrix whose action on a signal of the
    opposite domain equals modulation by ``resp``.
    """
    b = basis.for_domain(resp.domain.other)
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


def fit_filter(target: GraphSignal, kind: ImpulseKind, basis: SpectralBasis) -> GraphSignal:
    """The frequency response of the filter whose impulse response is ``target``.

    The filter is a polynomial in A for a vertex ``kind`` and in M for a
    spectral one, so its response lives in the opposite domain: the
    transform of ``target`` (read from its tag) divided entrywise by the
    transform of the kind's delta, ``gft[:, 0]`` for an impulsive delta and
    1/sqrt(N) for a flat one. Raises SingularMatrixError when the delta's
    transform has a zero entry, and when the response takes two values on a
    repeated eigenvalue, where no polynomial in the shift has it.
    """
    if not isinstance(kind, ImpulseKind):
        raise TypeError(f"kind must be an ImpulseKind, got {kind!r}")
    b = basis.for_domain(kind.domain)
    t = _check_length(target.values, b.n)
    t_hat = b.gft @ t if target.domain is kind.domain else t
    delta_hat = b.gft[:, 0] if kind.impulsive else np.full(b.n, 1.0 / np.sqrt(b.n))
    min_abs = float(np.min(np.abs(delta_hat)))
    if not min_abs > numkit._zero_cut(delta_hat):
        column, name = ("GFT", "y0") if b is basis else ("inverse GFT", "igft[:, 0]")
        raise SingularMatrixError(
            f"the first {column} column has (near-)zero entries "
            f"(min |{name}| = {min_abs:.2e}), which this impulse convention cannot tolerate"
        )
    resp = t_hat / delta_hat
    pairs = numkit._coincident(b.lam)[2]
    split = pairs[np.abs(resp[pairs[:, 0]] - resp[pairs[:, 1]]) > numkit._zero_cut(resp)]
    if split.size:
        idx = np.unique(split)
        values = ", ".join(f"{z:.3g}" for z in b.lam[idx])
        raise SingularMatrixError(
            f"the response takes different values on the repeated eigenvalues "
            f"{values} (indices {idx.tolist()}), so no polynomial in the shift has "
            "this impulse response"
        )
    return GraphSignal(resp, kind.domain.other)


def convolve(x: GraphSignal, y: GraphSignal, basis: SpectralBasis, *, impulsive: bool = True) -> GraphSignal:
    """Convolve two graph signals by filtering, in the domain of ``x``.

    In the vertex domain, y * x = P(A) x where P(A) has impulse response y;
    in the spectral domain, yhat * xhat = P(M) xhat where P(M) has spectral
    impulse response yhat. Either filter is modulation by its response in
    the opposite domain; ``y`` may be in either domain (fit_filter reads its
    tag). The delta is ``ImpulseKind.of(x.domain, impulsive)``.
    """
    resp = fit_filter(y, ImpulseKind.of(x.domain, impulsive), basis)
    return gft_apply(basis, modulate(resp, gft_apply(basis, x)))
