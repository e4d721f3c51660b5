"""Graph Fourier basis and the spectral shift.

A ``SpectralBasis`` packages the analysis transform ``gft``, its inverse
``igft`` (whose columns are the spectral components), and the graph
frequencies ``lam`` so that ``igft @ diag(lam) @ gft`` reproduces the shift.
From it we derive the spectral shift

    M = gft @ diag(conj(lam)) @ igft

which delays a signal in the graph frequency domain exactly the way the
adjacency shift delays it in the vertex domain, and whose nonzero pattern
(the spectral graph) is invariant under the scaling freedom of the
eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import numkit
from .errors import (
    DimensionMismatchError,
    ReconstructionMismatchError,
    RepeatedEigenvaluesError,
    ZeroScaleError,
)
from .graphs import Domain, Graph, GraphSignal, _from_pairs, _pairs, _read_json, _write_json

__all__ = [
    "SpectralBasis",
    "basis_from_graph",
    "basis_explicit",
    "gft_apply",
    "igft_apply",
    "spectral_shift",
    "spectral_shift_variant",
    "rescale_basis",
    "structural_equal",
    "load_basis",
    "save_basis",
    "bundled_basis",
]


@dataclass(frozen=True)
class SpectralBasis:
    """A GFT/inverse-GFT pair with its eigenvalue list."""

    gft: np.ndarray
    igft: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return self.lam.shape[0]


def _default_order(lam: np.ndarray) -> np.ndarray:
    """Descending real part, ties by descending imaginary part."""
    return np.lexsort((-lam.imag, -lam.real))


def _check_identity(gft: np.ndarray, igft: np.ndarray) -> None:
    n = gft.shape[0]
    err = np.max(np.abs(gft @ igft - np.eye(n)))
    if err > numkit.IDENTITY_TOL:
        raise ReconstructionMismatchError(
            f"gft @ igft deviates from the identity by {err:.3e}"
        )


def basis_from_graph(graph: Graph, ordering=None, tol: float = numkit.GAP_TOL) -> SpectralBasis:
    """Diagonalize the shift of ``graph`` into a spectral basis.

    ``ordering`` may be an explicit permutation of the raw eigensolver order;
    by default frequencies are sorted by descending real part (ties by
    descending imaginary part). Raises RepeatedEigenvaluesError when the
    smallest eigenvalue gap is within ``tol * max(1, |lam|_max)``, since no
    useful basis exists without distinct frequencies.
    """
    pair = numkit.eig(graph.adjacency)
    gap_tol = numkit._gap_cut(pair.values, tol)
    if pair.min_gap <= gap_tol:
        raise RepeatedEigenvaluesError(pair.min_gap, gap_tol)
    if ordering is None:
        perm = _default_order(pair.values)
    else:
        perm = np.asarray(ordering, dtype=int)
        if sorted(perm.tolist()) != list(range(graph.n)):
            raise DimensionMismatchError("ordering must be a permutation of 0..n-1")
    lam = pair.values[perm]
    igft = pair.vectors[:, perm]
    gft = numkit.solve(igft, np.eye(graph.n, dtype=np.complex128))
    basis = SpectralBasis(gft, igft, lam)
    _check_identity(gft, igft)
    recon = np.max(np.abs(igft @ (lam[:, None] * gft) - graph.adjacency))
    if recon > numkit.IDENTITY_TOL * max(1.0, np.max(np.abs(graph.adjacency))):
        raise ReconstructionMismatchError(
            f"computed basis fails to reconstruct the shift (error {recon:.3e})"
        )
    return basis


def basis_explicit(gft, lam, graph: Graph) -> SpectralBasis:
    """Build a basis from a user-supplied GFT matrix and frequency list.

    The inverse transform is obtained by a linear solve, and the
    reconstruction ``igft @ diag(lam) @ gft == A`` is validated against the
    graph before the basis is returned. Explicit bases may carry repeated
    eigenvalues (useful for shifts where a computed decomposition would pick
    an arbitrary eigenspace basis).
    """
    gft = numkit.as_cmatrix(gft, "gft")
    lam = numkit.as_cvector(lam, "lam")
    n = graph.n
    if gft.shape != (n, n) or lam.shape != (n,):
        raise DimensionMismatchError(
            f"gft {gft.shape} / lam {lam.shape} do not match graph size {n}"
        )
    igft = numkit.solve(gft, np.eye(n, dtype=np.complex128))
    recon = np.max(np.abs(igft @ (lam[:, None] * gft) - graph.adjacency))
    limit = numkit.EXPLICIT_RECON_TOL * max(np.max(np.abs(graph.adjacency)), np.finfo(float).tiny)
    if recon > limit:
        raise ReconstructionMismatchError(
            f"explicit basis does not reconstruct the shift: error {recon:.3e} > {limit:.3e}"
        )
    return SpectralBasis(gft, igft, lam)


def gft_apply(basis: SpectralBasis, signal: GraphSignal) -> GraphSignal:
    """Forward transform a vertex-domain signal into the spectral domain."""
    x = _check_length(signal.require(Domain.VERTEX), basis.n)
    return GraphSignal(basis.gft @ x, Domain.SPECTRAL)


def igft_apply(basis: SpectralBasis, signal: GraphSignal) -> GraphSignal:
    """Inverse transform a spectral-domain signal back to the vertex domain."""
    xhat = _check_length(signal.require(Domain.SPECTRAL), basis.n)
    return GraphSignal(basis.igft @ xhat, Domain.VERTEX)


def _check_length(values: np.ndarray, n: int) -> np.ndarray:
    if values.shape[0] != n:
        raise DimensionMismatchError(
            f"signal length {values.shape[0]} does not match the graph size {n}"
        )
    return values


def spectral_shift(basis: SpectralBasis) -> np.ndarray:
    """The frequency-domain shift M = gft @ diag(conj(lam)) @ igft."""
    return basis.gft @ (np.conj(basis.lam)[:, None] * basis.igft)


def spectral_shift_variant(basis: SpectralBasis) -> np.ndarray:
    """The alternative shift built with lam instead of conj(lam).

    On the directed cycle this reverses the edge direction (it equals the
    transpose of the adjacency), which is why the conjugated form is the
    default.
    """
    return basis.gft @ (basis.lam[:, None] * basis.igft)


def rescale_basis(basis: SpectralBasis, c) -> SpectralBasis:
    """Apply the eigenvector scaling freedom: gft' = diag(c)^-1 gft.

    The rescaled basis diagonalizes the same shift; its spectral shift is the
    diagonal conjugate diag(c)^-1 M diag(c).
    """
    c = numkit.as_cvector(c, "scale")
    if c.shape[0] != basis.n:
        raise DimensionMismatchError(f"scale length {c.shape[0]} != basis size {basis.n}")
    if np.any(np.abs(c) == 0.0):
        raise ZeroScaleError("all scale entries must be nonzero")
    return SpectralBasis(basis.gft / c[:, None], basis.igft * c[None, :], basis.lam.copy())


def structural_equal(m1, m2) -> bool:
    """Compare zero/nonzero patterns: an entry above ``numkit.STRUCTURAL_TOL``
    times its own matrix's largest magnitude counts as an edge."""
    m1 = numkit.as_cmatrix(m1, "m1")
    m2 = numkit.as_cmatrix(m2, "m2")
    if m1.shape != m2.shape:
        raise DimensionMismatchError(f"shape mismatch {m1.shape} vs {m2.shape}")

    def pattern(m):
        cut = numkit.STRUCTURAL_TOL * max(np.max(np.abs(m)), np.finfo(float).tiny)
        return np.abs(m) > cut

    return bool(np.array_equal(pattern(m1), pattern(m2)))


# ---------------------------------------------------------------------------
# basis file IO


def save_basis(basis: SpectralBasis, path) -> None:
    doc = {"lambda": _pairs(basis.lam), "gft": _pairs(basis.gft)}
    _write_json(path, doc)


def load_basis(path, graph: Graph) -> SpectralBasis:
    """Load an explicit-basis JSON file and validate it against ``graph``."""
    doc = _read_json(path, ("lambda", "gft"))
    lam = _from_pairs(doc["lambda"], (None,), f"{path}: lambda")
    gft = _from_pairs(doc["gft"], (None, None), f"{path}: gft")
    return basis_explicit(gft, lam, graph)


_BUNDLED = {
    "star5": "star5_basis.json",
    "example4": "example4_basis.json",
}


def bundled_basis(name: str, graph: Graph) -> SpectralBasis:
    """Load one of the explicit bases shipped with the package.

    ``star5`` is the hand-derived star-graph basis (a computed decomposition
    of the star would pick an arbitrary basis for its repeated zero
    eigenvalue); ``example4`` is the fixed basis of the 4-node sampling
    showcase, stored at full precision with the conventional column scaling
    its reference values use.
    """
    try:
        fname = _BUNDLED[name]
    except KeyError:
        raise KeyError(f"unknown bundled basis {name!r}; have {sorted(_BUNDLED)}") from None
    ref = resources.files("gsptk._data").joinpath(fname)
    with resources.as_file(ref) as p:
        return load_basis(p, graph)
