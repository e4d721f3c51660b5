"""The classical-DSP specialization and cross-checking oracles.

On the directed cycle the analytic DFT diagonalizes the shift, the spectral
shift M coincides with the adjacency, and even sampling produces the
block-identity operator whose recovery is plain low-pass filtering. This
module provides those closed forms plus the brute-force circular convolution
oracle, and the frequency-replication comparison showing why low-pass
recovery does not transfer to arbitrary graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BadSizeError, DimensionMismatchError, NotDivisibleError
from .graphs import Domain, GraphKind, GraphSignal, build
from .sampling import sampling_operator
from .spectral import SpectralBasis, spectral_shift, spectral_shift_variant

__all__ = [
    "RingShiftReport",
    "ReplicationReport",
    "dft_basis",
    "verify_ring",
    "dsp_sampling_operator",
    "nyquist_recover",
    "circulant_convolve",
    "replication_compare",
]


def dft_basis(n: int) -> SpectralBasis:
    """Analytic unitary DFT basis for the n-node directed cycle.

    Frequencies are the n-th roots of unity exp(-2j pi k / n) in natural
    order k = 0..n-1; the inverse transform is the conjugate transpose.
    """
    if n < 1:
        raise BadSizeError("n must be positive")
    grid = np.outer(np.arange(n), np.arange(n))
    gft = np.exp(-2j * np.pi * grid / n) / np.sqrt(n)
    lam = np.exp(-2j * np.pi * np.arange(n) / n)
    return SpectralBasis(gft, gft.conj().T, lam)


@dataclass(frozen=True)
class RingShiftReport:
    m_deviation: float
    variant_deviation: float
    variant_is_transpose: bool


def verify_ring(n: int) -> RingShiftReport:
    """Check that on the cycle the spectral shift equals the adjacency and
    the non-conjugated variant equals its transpose (the reversed cycle)."""
    a = build(GraphKind.RING, n).adjacency
    basis = dft_basis(n)
    m_dev = float(np.max(np.abs(spectral_shift(basis) - a)))
    var_dev = float(np.max(np.abs(spectral_shift_variant(basis) - a.T)))
    return RingShiftReport(m_dev, var_dev, var_dev <= numkit.CLOSED_FORM_TOL)


def dsp_sampling_operator(n: int, k: int) -> np.ndarray:
    """P(M) of the even k-of-n delta train, verified against its closed form.

    The train keeps every (n/k)-th node. The resulting operator is
    (k/n) times an (n/k) x (n/k) grid of k x k identity blocks; the
    construction asserts that equality before returning.
    """
    if k < 1 or n < 1 or n % k:
        raise NotDivisibleError(f"k must divide n, got n={n} k={k}")
    delta = np.zeros(n, dtype=np.complex128)
    delta[:: n // k] = 1.0
    pm = sampling_operator(dft_basis(n), delta)
    blocks = (k / n) * np.kron(np.ones((n // k, n // k)), np.eye(k))
    dev = float(np.max(np.abs(pm - blocks)))
    if dev > numkit.CLOSED_FORM_TOL:
        raise AssertionError(
            f"even-train operator deviates from its block form by {dev:.3e}"
        )
    return pm


def nyquist_recover(x_spl_hat: GraphSignal, k: int) -> GraphSignal:
    """Low-pass recovery of a band-k spectrum from its even-sampled image.

    The even-train operator replicates the in-band block with gain k/n, so
    recovery keeps the first k entries and undoes that known gain. No matrix
    is inverted. With k = n this is the identity.
    """
    xhat = x_spl_hat.require(Domain.SPECTRAL)
    n = xhat.shape[0]
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
    (entries below ``numkit.REPLICATION_ZERO_TOL`` of the peak) makes visible.
    """
    vec = xhat.require(Domain.SPECTRAL)
    n = vec.shape[0]
    if factor < 1 or n % factor:
        raise NotDivisibleError(f"factor must divide n, got n={n} factor={factor}")
    block = n // factor
    replicated = np.tile(vec.reshape(factor, block).sum(axis=0), factor)
    via_gft = basis.igft @ replicated
    via_dft = dft_basis(n).igft @ replicated
    peak = max(float(np.max(np.abs(via_gft))), np.finfo(float).tiny)
    zero_count = int(np.sum(np.abs(via_gft) < numkit.REPLICATION_ZERO_TOL * peak))
    return ReplicationReport(replicated, via_gft, via_dft, zero_count)
