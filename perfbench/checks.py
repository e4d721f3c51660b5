"""Correctness checks computed apart from the program.

Every check returns ``None`` when the output is right and a one-line reason
when it is not. The references are numpy's own LAPACK routines (eig, inv,
svd, fft); the one exception is the spectral-domain convolution reference,
which is the transform-product identity evaluated on the basis the program's
``spectral.basis_from_graph`` returns, so the check tests the filter fit and
its Horner application, not the eigensolver.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

# A square block counts as invertible when its smallest singular value is
# above this share of its largest: the program's own default pivot cutoff.
RANK_CUTOFF = 1e-10

# Recovery must return the signal to within this many units of roundoff,
# scaled by the condition numbers of the eigenbasis and of the plan's block.
# Observed errors sit more than three orders of magnitude below the bound; at
# N = 400 the bound is 1e-8 to 3e-8, so a 1e-6 relative perturbation fails.
RECOVERY_FACTOR = 10.0

# Convolution on the directed cycle is exact up to roundoff: the impulse
# matrix is a permutation and the eigenbasis is unitary up to scaling.
CONVOLUTION_FACTOR = 100.0


def relative_error(got, want) -> float:
    want = np.asarray(want)
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


def block_condition(block) -> float:
    """2-norm condition number of a square block; inf when it is singular
    at ``RANK_CUTOFF``."""
    s = np.linalg.svd(np.asarray(block), compute_uv=False)
    if s.size == 0:
        return 1.0
    if s[-1] <= RANK_CUTOFF * s[0]:
        return float("inf")
    return float(s[0] / s[-1])


def spectral_plan_condition(band_vectors, delta) -> float:
    """Condition of the kept rows of the band eigenvectors (N x K columns).

    A valid spectral-rule sampling set keeps K nodes whose rows are linearly
    independent, so the K x K block is invertible.
    """
    keep = np.flatnonzero(np.asarray(delta))
    return block_condition(np.asarray(band_vectors)[keep, :])


def vertex_plan_condition(out_rows, delta) -> float:
    """Condition of the out-of-band rows of the inverse eigenbasis
    ((N-K) x N) restricted to the dropped nodes.

    A valid vertex-rule sampling set drops N-K nodes that index an
    invertible (N-K) x (N-K) block, so the dropped samples are determined by
    the kept ones.
    """
    drop = np.flatnonzero(np.asarray(delta) == 0)
    return block_condition(np.asarray(out_rows)[:, drop])


def check_delta(delta, n: int, k: int) -> str | None:
    delta = np.asarray(delta)
    if delta.shape != (n,) or not np.all(np.isin(delta, (0, 1))):
        return f"delta is not a 0/1 vector of length {n}"
    if int(delta.sum()) != k:
        return f"delta keeps {int(delta.sum())} nodes, the band has K = {k}"
    return None


def check_samples(samples, signal, delta) -> str | None:
    """The samples file must hold exactly the signal's entries at the kept nodes."""
    want = np.asarray(signal)[np.asarray(delta) == 1]
    if np.shape(samples) != want.shape or not np.array_equal(samples, want):
        return "samples differ from the signal's entries at the delta nodes"
    return None


def recovery_tolerance(basis_condition: float, plan_condition: float) -> float:
    return RECOVERY_FACTOR * EPS * basis_condition * plan_condition


def check_recovery(got, want, tol: float) -> str | None:
    if np.shape(got) != np.shape(want):
        return f"recovered length {np.shape(got)} differs from {np.shape(want)}"
    err = relative_error(got, want)
    if not err <= tol:
        return f"recovery relative error {err:.3e} exceeds {tol:.3e}"
    return None


def circular_convolution(x, y) -> np.ndarray:
    """Cyclic convolution by the FFT: what vertex-domain convolution on the
    directed cycle must return."""
    return np.fft.ifft(np.fft.fft(x) * np.fft.fft(y))


def spectral_convolution(gft, igft, xhat, yhat) -> np.ndarray:
    """Transform-product identity for the spectral-domain impulse convention:
    ``gft ((igft yhat / igft e0) * igft xhat)``."""
    return gft @ ((igft @ yhat) / igft[:, 0] * (igft @ xhat))


def convolution_tolerance(n: int) -> float:
    return CONVOLUTION_FACTOR * n * EPS


def check_convolution(got, want, n: int) -> str | None:
    if np.shape(got) != np.shape(want):
        return f"convolution length {np.shape(got)} differs from {np.shape(want)}"
    err = relative_error(got, want)
    tol = convolution_tolerance(n)
    if not err <= tol:
        return f"convolution relative error {err:.3e} exceeds {tol:.3e}"
    return None
