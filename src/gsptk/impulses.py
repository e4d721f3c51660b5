"""Graph delta conventions, their shift families, and the Vandermonde matrix.

A graph has no delta that is simultaneously impulsive on a vertex and flat
across frequencies, so two conventions coexist:

* vertex-impulsive: delta_0 = e_0, shifted by powers of the adjacency A;
* spectral-flat: gft(delta_0) = (1/sqrt(N)) * ones, shifted likewise.

Stacking a delta and its N-1 shifts column-wise gives the impulse matrix D
used to fit polynomial filter coefficients from an impulse response. The
same construction in the frequency domain (shifting by the spectral shift M)
yields the impulse matrices for spectral-domain filter fitting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError
from .graphs import Graph
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
    def lives_in_vertex_domain(self) -> bool:
        return self in (ImpulseKind.VERTEX_IMPULSIVE, ImpulseKind.SPECTRAL_FLAT)


@dataclass(frozen=True)
class ImpulseFamily:
    """A delta convention together with its N shifted copies.

    ``D`` holds the shifted impulses column-wise in the domain where the
    family lives; ``D_hat`` is its transform into the opposite domain.
    ``y0`` caches the first column of the GFT, whose zero entries are exactly
    what breaks invertibility of the vertex-impulsive family.
    """

    kind: ImpulseKind
    D: np.ndarray
    D_hat: np.ndarray
    y0: np.ndarray


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

    Vertex-domain families are generated by repeated adjacency shifts (no
    eigendecomposition enters D itself); spectral-domain families by repeated
    applications of the spectral shift M.
    """
    n = graph.n
    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0
    flat = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    # powers of a shift whose spectral radius exceeds 1 overflow on large
    # graphs; as_cmatrix turns that into a typed error naming D
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is ImpulseKind.VERTEX_IMPULSIVE:
            d = _shift_stack(graph.adjacency, e0)
        elif kind is ImpulseKind.SPECTRAL_FLAT:
            # column k is (1/sqrt(N)) * igft @ lam^k, equal to repeated A-shifts
            powers = basis.lam[:, None] ** np.arange(n)[None, :]
            d = basis.igft @ powers / np.sqrt(n)
        elif kind is ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE:
            d = _shift_stack(spectral_shift(basis), e0)
        elif kind is ImpulseKind.SPECTRAL_DOMAIN_FLAT:
            d = _shift_stack(spectral_shift(basis), basis.gft @ flat)
        else:  # pragma: no cover
            raise ValueError(f"unknown impulse kind {kind!r}")
    d = numkit.as_cmatrix(d, "impulse matrix")
    d_hat = (basis.gft if kind.lives_in_vertex_domain else basis.igft) @ d
    return ImpulseFamily(kind, d, d_hat, basis.gft[:, 0].copy())


def vandermonde(lam) -> np.ndarray:
    """Normalized Vandermonde matrix (1/sqrt(N)) * [lam_i ** k], k = 0..N-1.

    For the cycle graph's frequencies this is exactly the DFT matrix.
    """
    lam = numkit.as_cvector(lam, "lam")
    if lam.size == 0:
        raise BadSizeError("lam must be nonempty")
    n = lam.shape[0]
    return (lam[:, None] ** np.arange(n)[None, :]) / np.sqrt(n)


def check_assumptions(basis: SpectralBasis) -> AssumptionReport:
    """Report whether the two invertibility assumptions hold for ``basis``.

    distinct: all eigenvalue gaps exceed numkit.GAP_TOL * max(1, |lam|_max);
    y0_nonzero: every entry of the first GFT column exceeds the same cut.
    """
    lam = basis.lam
    min_gap = numkit._min_gap(lam)
    cut = numkit._gap_cut(lam)
    y0 = basis.gft[:, 0]
    min_abs_y0 = float(np.min(np.abs(y0)))
    return AssumptionReport(
        distinct=min_gap > cut,
        y0_nonzero=min_abs_y0 > cut,
        min_gap=min_gap,
        min_abs_y0=min_abs_y0,
    )
