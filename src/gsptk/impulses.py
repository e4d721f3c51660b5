"""Graph delta conventions, their shift families, and the Vandermonde matrix.

A graph has no delta that is simultaneously impulsive on a vertex and flat
across frequencies, so two conventions coexist:

* vertex-impulsive: delta_0 = e_0, shifted by powers of the adjacency A;
* spectral-flat: gft(delta_0) = (1/sqrt(N)) * ones, shifted likewise.

Stacking a delta and its N-1 shifts column-wise gives the impulse matrix D:
column k is the impulse response of the k-th power of the shift, and its
transform D_hat is diag(delta_hat) times the Vandermonde matrix of the
frequencies. A filter needs only D_hat's first column, the transform of the
delta, to turn an impulse response into its frequency response
(``filters.fit_filter``); the powers themselves overflow on large graphs and
are kept as the paper's objects. A spectral-domain family is the same construction on the spectral graph G_s:
its deltas are shifted by the spectral shift M and transformed with
``basis.dual``. Each ``ImpulseKind`` states its domain once, as
``ImpulseKind.domain``, and its convention once, as ``ImpulseKind.impulsive``;
the family's transform ``D_hat`` covers the opposite domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError
from .graphs import Domain, Graph
from .spectral import SpectralBasis, spectral_shift

__all__ = [
    "ImpulseKind",
    "ImpulseFamily",
    "AssumptionReport",
    "impulse_family",
    "vandermonde",
    "check_assumptions",
]


class ImpulseKind(enum.Enum):
    VERTEX_IMPULSIVE = "vertex_impulsive"
    SPECTRAL_FLAT = "spectral_flat"
    SPECTRAL_DOMAIN_IMPULSIVE = "spectral_domain_impulsive"
    SPECTRAL_DOMAIN_FLAT = "spectral_domain_flat"

    @property
    def domain(self) -> Domain:
        """The domain the family's deltas and their shifts live in."""
        vertex = self in (ImpulseKind.VERTEX_IMPULSIVE, ImpulseKind.SPECTRAL_FLAT)
        return Domain.VERTEX if vertex else Domain.SPECTRAL

    @property
    def impulsive(self) -> bool:
        """True for the delta e_0, False for the delta whose transform is flat."""
        return self in (ImpulseKind.VERTEX_IMPULSIVE, ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE)

    @classmethod
    def of(cls, domain: Domain, impulsive: bool) -> ImpulseKind:
        """The kind whose deltas live in ``domain`` and are impulsive or flat."""
        if not isinstance(domain, Domain):
            raise TypeError(f"domain must be a Domain enum member, got {domain!r}")
        if not isinstance(impulsive, bool):
            raise TypeError(f"impulsive must be True or False, got {impulsive!r}")
        return next(k for k in cls if k.domain is domain and k.impulsive == impulsive)


@dataclass(frozen=True)
class ImpulseFamily:
    """A delta convention together with its N shifted copies.

    ``D`` holds the shifted impulses column-wise in ``kind.domain``;
    ``D_hat`` is its transform into the opposite domain.
    """

    kind: ImpulseKind
    D: np.ndarray
    D_hat: np.ndarray


@dataclass(frozen=True)
class AssumptionReport:
    distinct: bool
    y0_nonzero: bool
    min_gap: float
    min_abs_y0: float


def _shift_stack(shift: np.ndarray, start: np.ndarray) -> np.ndarray:
    n = start.shape[0]
    cols = np.empty((n, n), dtype=np.complex128)
    cols[:, 0] = start
    for k in range(1, n):
        cols[:, k] = shift @ cols[:, k - 1]
    return cols


def impulse_family(graph: Graph, basis: SpectralBasis, kind: ImpulseKind) -> ImpulseFamily:
    """Build the impulse matrix D and its transform for one delta convention.

    Every family is a delta and its N-1 shifts: by the adjacency in the
    vertex domain, by the spectral shift M in the spectral domain. The
    eigenbasis enters D only through the flat deltas.
    """
    n = graph.n
    if basis.n != n:
        raise DimensionMismatchError(f"basis size {basis.n} does not match the graph size {n}")
    if not isinstance(kind, ImpulseKind):
        raise TypeError(f"kind must be an ImpulseKind, got {kind!r}")
    b = basis.for_domain(kind.domain)
    shift = graph.adjacency if kind.domain is Domain.VERTEX else spectral_shift(basis)
    # powers of a shift whose spectral radius exceeds 1 overflow on large
    # graphs, and so may a hand-built basis's products; as_cmatrix turns that
    # into a typed error naming D or its transform
    with np.errstate(over="ignore", invalid="ignore"):
        if kind.impulsive:
            start = np.zeros(n, dtype=np.complex128)
            start[0] = 1.0
        else:  # the delta whose transform into the other domain is flat
            start = b.igft @ np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
        d = _shift_stack(shift, start)
        d_hat = b.gft @ d
    return ImpulseFamily(kind, numkit.as_cmatrix(d, "impulse matrix"), numkit.as_cmatrix(d_hat, "impulse transform"))


def vandermonde(lam) -> np.ndarray:
    """Normalized Vandermonde matrix (1/sqrt(N)) * [lam_i ** k], k = 0..N-1.

    For the cycle graph's frequencies this is exactly the DFT matrix.
    NonFiniteError when a power overflows, as |lam|^(N-1) does on large graphs.
    """
    lam = numkit.as_cvector(lam, "lam")
    if lam.size == 0:
        raise BadSizeError("lam must be nonempty")
    n = lam.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is as_cmatrix's NonFiniteError
        v = (lam[:, None] ** np.arange(n)[None, :]) / np.sqrt(n)
    return numkit.as_cmatrix(v, "Vandermonde matrix")


def check_assumptions(basis: SpectralBasis) -> AssumptionReport:
    """Report whether the two invertibility assumptions hold for ``basis``.

    distinct: no two frequencies are within ``numkit.GAP_TOL * max|lam|``
    (``numkit._coincident``), and ``min_gap`` is the smallest distance;
    y0_nonzero: every entry of the first GFT column y0 exceeds
    ``numkit.PIVOT_TOL * max|y0|``. Neither verdict depends on scale.
    """
    min_gap, _, pairs = numkit._coincident(basis.lam)
    y0 = basis.gft[:, 0]
    min_abs_y0 = float(np.min(np.abs(y0)))
    return AssumptionReport(
        distinct=not pairs.size,
        y0_nonzero=min_abs_y0 > numkit._zero_cut(y0),
        min_gap=min_gap,
        min_abs_y0=min_abs_y0,
    )
