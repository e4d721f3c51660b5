"""The classical-DSP specialization and cross-checking oracles.

On the directed cycle the analytic DFT diagonalizes the shift, and even
sampling produces the block-identity operator whose recovery is plain
low-pass filtering. This module provides the DFT basis and that closed form
plus the brute-force circular convolution oracle, and the
frequency-replication comparison showing why low-pass recovery does not
transfer to arbitrary graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError, NotDivisibleError
from .graphs import Domain, GraphSignal, _dense_adjacency
from .sampling import sampling_operator
from .spectral import SpectralBasis

__all__ = [
    "ReplicationReport",
    "dft_basis",
    "dsp_sampling_operator",
    "nyquist_recover",
    "circulant_convolve",
    "replication_compare",
]


def dft_basis(n: int) -> SpectralBasis:
    """Analytic unitary DFT basis for the n-node directed cycle.

    Frequencies are the n-th roots of unity exp(-2j pi k / n) in natural
    order k = 0..n-1; the inverse transform is the conjugate transpose. Both
    come from ``numkit``'s closed-form diagonalization of a circulant shift,
    applied to the cycle's first column: each phase is read from one table of
    the roots of unity at ``j*k mod n``.
    """
    n = numkit._as_size(n, "n")
    if n < 1:
        raise BadSizeError("n must be positive")
    _dense_adjacency(n)  # the size guard of graphs.build: refuses an n whose N x N basis cannot exist
    column = np.zeros(n)
    column[1 % n] = 1.0
    lam, igft = numkit._dft_eig(column)
    return SpectralBasis(igft.conj().T, igft, lam)


def dsp_sampling_operator(n: int, k: int) -> np.ndarray:
    """P(M) of the even k-of-n delta train on the n-node directed cycle.

    The train keeps every (n/k)-th node. The resulting operator is
    (k/n) times an (n/k) x (n/k) grid of k x k identity blocks.
    """
    n, k = numkit._as_size(n, "n"), numkit._as_size(k, "k")
    if k < 1 or n < 1 or n % k:
        raise NotDivisibleError(f"k must divide n, got n={n} k={k}")
    basis = dft_basis(n)
    delta = np.zeros(n, dtype=np.complex128)
    delta[:: n // k] = 1.0
    return sampling_operator(basis, delta)


def nyquist_recover(x_spl_hat: GraphSignal, k: int) -> GraphSignal:
    """Low-pass recovery of a band-k spectrum from its even-sampled image.

    The even-train operator replicates the in-band block with gain k/n, so
    recovery keeps the first k entries and undoes that known gain. No matrix
    is inverted. With k = n this is the identity.
    """
    xhat = x_spl_hat.require(Domain.SPECTRAL)
    n, k = xhat.shape[0], numkit._as_size(k, "k")
    if k < 1 or n % k:
        raise NotDivisibleError(f"k must divide the signal length, got n={n} k={k}")
    out = np.zeros(n, dtype=np.complex128)
    out[:k] = (n / k) * xhat[:k]
    return GraphSignal(out, Domain.SPECTRAL)


def circulant_convolve(x, y) -> np.ndarray:
    """Direct circular convolution sum_k y[n-k] x[k]: the brute-force oracle
    for convolution on the cycle graph (in either domain)."""
    x = numkit.as_cvector(x, "x")
    y = numkit.as_cvector(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatchError("operands must have equal length")
    n = x.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return y[idx] @ x


@dataclass(frozen=True)
class ReplicationReport:
    freq_sampled: np.ndarray
    vertex_image_via_gft: np.ndarray
    vertex_image_via_dft: np.ndarray
    zero_count: int


def replication_compare(
    basis: SpectralBasis, xhat: GraphSignal, factor: int
) -> ReplicationReport:
    """Replicate a spectrum by the block-identity map and invert both ways.

    The replication operator (an all-ones factor x factor grid of identity
    blocks, no decimation) tiles the leading n/factor spectral entries. Its
    inverse DFT is a genuinely decimated time signal; its inverse GFT on a
    non-cycle graph generally has no zeros at all, which ``zero_count``
    (entries at or below ``numkit``'s zero cut, ``PIVOT_TOL`` times the
    largest) makes visible.
    """
    vec = xhat.require(Domain.SPECTRAL)
    n, factor = vec.shape[0], numkit._as_size(factor, "factor")
    if factor < 1 or n % factor:
        raise NotDivisibleError(f"factor must divide n, got n={n} factor={factor}")
    block = n // factor
    replicated = np.tile(vec.reshape(factor, block).sum(axis=0), factor)
    via_gft = basis.igft @ replicated
    via_dft = dft_basis(n).igft @ replicated
    zero_count = int(np.sum(np.abs(via_gft) <= numkit._zero_cut(via_gft)))
    return ReplicationReport(replicated, via_gft, via_dft, zero_count)
