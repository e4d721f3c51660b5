"""Graph Fourier basis, the spectral graph, and the spectral shift.

A ``SpectralBasis`` packages the analysis transform ``gft``, its inverse
``igft`` (whose columns are the spectral components), and the graph
frequencies ``lam`` so that ``igft @ diag(lam) @ gft`` reproduces the shift.
Every graph G has a spectral graph G_s whose vertices are the frequencies of
G. Its basis is ``SpectralBasis.dual``: the two transforms trade places and
the frequencies are conjugated, so the GFT of G_s is the inverse GFT of G,
and the shift of G_s is the spectral shift

    M = gft @ diag(conj(lam)) @ igft

which delays a signal in the graph frequency domain exactly the way the
adjacency shift delays it in the vertex domain, and whose nonzero pattern
is invariant under the scaling freedom of the eigenvectors. A
spectral-domain operation is its vertex-domain twin run on G_s. A computed
basis is ``numkit._diagonalize``'s: ``numkit.eig``'s eigenpairs in their
frequency order, with the inverse and the checks of that one module.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError, GsptkError, ZeroScaleError
from .graphs import Domain, Graph, GraphSignal, _from_pairs, _gc_paused, _pairs, _read_json, _write_json

__all__ = [
    "SpectralBasis",
    "basis_from_graph",
    "basis_explicit",
    "gft_apply",
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
    """A GFT/inverse-GFT pair with its eigenvalue list: finite complex128 arrays of shapes N x N, N x N and
    N, checked once, when the basis is built (NonFiniteError or DimensionMismatchError, naming the field).
    A field that already is such an array is kept, not copied."""

    gft: np.ndarray
    igft: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        lam = numkit._as_array(self.lam, "lam", 1, np.complex128, "K", copy=None)
        object.__setattr__(self, "lam", lam)
        for name in ("gft", "igft"):
            m = numkit._as_array(getattr(self, name), name, 2, np.complex128, "K", copy=None)
            if m.shape != lam.shape * 2:
                raise DimensionMismatchError(f"{name} must be N x N for N = {lam.shape[0]} frequencies, "
                                             f"got shape {m.shape}")
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @property
    def dual(self) -> SpectralBasis:
        """The basis of the spectral graph G_s; the dual of the dual is this basis. It holds this
        basis's arrays and ``conj(lam)``, which need no second check."""
        dual = object.__new__(SpectralBasis)
        dual.__dict__.update(gft=self.igft, igft=self.gft, lam=np.conj(self.lam))
        return dual

    def for_domain(self, domain: Domain) -> SpectralBasis:
        """The basis whose ``gft`` transforms a signal of ``domain``: this one for VERTEX, ``dual`` for SPECTRAL."""
        if not isinstance(domain, Domain):
            raise TypeError(f"domain must be a Domain enum member, got {domain!r}")
        return self if domain is Domain.VERTEX else self.dual


def _diag(basis: SpectralBasis, v: np.ndarray) -> np.ndarray:
    """igft @ diag(v) @ gft: the filter of ``basis``'s graph with spectral response v; NonFiniteError
    when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = basis.igft @ (v[:, None] * basis.gft)
    return numkit._as_array(m, "filter matrix", 2, np.complex128, copy=None)


def basis_from_graph(graph: Graph, *, tol: float = numkit.GAP_TOL) -> SpectralBasis:
    """The spectral basis of the shift of ``graph``, ``numkit._diagonalize``'s: RepeatedEigenvaluesError
    when the smallest eigenvalue gap is within ``tol * |lam|_max``, ReconstructionMismatchError when
    the basis misses I or the shift. BadSizeError unless ``tol`` is a finite real number >= 0."""
    if not isinstance(tol, numbers.Real) or not 0 <= tol < np.inf:
        raise BadSizeError(f"tol must be finite and >= 0, got {tol}")
    return SpectralBasis(*numkit._diagonalize(graph.adjacency, tol))


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
    basis = SpectralBasis(gft, numkit.solve(gft, np.eye(n, dtype=np.complex128)), lam)
    numkit._check_close(_diag(basis, lam), graph.adjacency, numkit.EXPLICIT_RECON_TOL,
                        "explicit basis does not reconstruct the shift")
    return basis


def gft_apply(basis: SpectralBasis, signal: GraphSignal) -> GraphSignal:
    """Transform a signal into the other domain, as its tag says: a vertex
    signal forward, a spectral one back (the GFT of G_s)."""
    b = basis.for_domain(signal.domain)
    x = _check_length(signal.values, b.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is GraphSignal's NonFiniteError
        y = b.gft @ x
    return GraphSignal(y, signal.domain.other)


def _check_length(values: np.ndarray, n: int) -> np.ndarray:
    if values.shape[0] != n:
        raise DimensionMismatchError(
            f"signal length {values.shape[0]} does not match the graph size {n}"
        )
    return values


def spectral_shift(basis: SpectralBasis) -> np.ndarray:
    """The frequency-domain shift M = gft @ diag(conj(lam)) @ igft, the shift of G_s."""
    return _diag(basis.dual, basis.dual.lam)


def spectral_shift_variant(basis: SpectralBasis) -> np.ndarray:
    """The alternative shift built with lam instead of conj(lam).

    On the directed cycle this reverses the edge direction (it equals the
    transpose of the adjacency), which is why the conjugated form is the
    default.
    """
    return _diag(basis.dual, basis.lam)


def rescale_basis(basis: SpectralBasis, c) -> SpectralBasis:
    """Apply the eigenvector scaling freedom: gft' = diag(c)^-1 gft.

    The rescaled basis diagonalizes the same shift; its spectral shift is the
    diagonal conjugate diag(c)^-1 M diag(c). ZeroScaleError for a zero entry of
    ``c``, NonFiniteError, naming the matrix, when a tiny or huge one overflows it.
    """
    c = numkit.as_cvector(c, "scale")
    if c.shape[0] != basis.n:
        raise DimensionMismatchError(f"scale length {c.shape[0]} != basis size {basis.n}")
    if np.any(np.abs(c) == 0.0):
        raise ZeroScaleError("all scale entries must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is as_cmatrix's NonFiniteError
        gft, igft = basis.gft / c[:, None], basis.igft * c[None, :]
    return SpectralBasis(numkit.as_cmatrix(gft, "rescaled gft"), numkit.as_cmatrix(igft, "rescaled igft"),
                         basis.lam.copy())


def structural_equal(m1, m2) -> bool:
    """Compare zero/nonzero patterns: an entry above ``numkit.PIVOT_TOL``
    times its own matrix's largest magnitude counts as an edge."""
    m1 = numkit.as_cmatrix(m1, "m1")
    m2 = numkit.as_cmatrix(m2, "m2")
    if m1.shape != m2.shape:
        raise DimensionMismatchError(f"shape mismatch {m1.shape} vs {m2.shape}")

    def pattern(m):
        return np.abs(m) > numkit._zero_cut(m)

    return bool(np.array_equal(pattern(m1), pattern(m2)))


# ---------------------------------------------------------------------------
# basis file IO


@_gc_paused()
def save_basis(basis: SpectralBasis, path) -> None:
    doc = {"lambda": _pairs(basis.lam), "gft": _pairs(basis.gft)}
    _write_json(path, doc)


@_gc_paused()
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
        raise GsptkError(f"unknown bundled basis {name!r}; have {sorted(_BUNDLED)}") from None
    ref = resources.files("gsptk._data").joinpath(fname)
    with resources.as_file(ref) as p:
        return load_basis(p, graph)
