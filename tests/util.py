"""Shared helpers for the test suite: seeded random graphs with guards."""

import numpy as np

from gsptk import Graph, GsptkError, InfeasibleError, basis_explicit, basis_from_graph, spectral_plan, vertex_plan


# decimal exponents of the moduli the finiteness properties draw: 10 ** -330 underflows to 0,
# 1e-320 and 1e-310 are subnormal, and the rest span the normal range
DECADES = (-330, -320, -310, -300, -100, 0, 100, 300)


def er_digraph(rng, n, p=0.55):
    """Uniform-weight Erdos-Renyi digraph without self loops."""
    a = (rng.random((n, n)) < p).astype(np.complex128)
    np.fill_diagonal(a, 0.0)
    return Graph(a)


def node_0_sends_nothing(n):
    """An ER digraph whose node 0 sends to no one, so every left eigenvector
    with a nonzero eigenvalue vanishes there: column 0 of the out-of-band GFT
    rows is zero when the eigenvalue 0 is in the band."""
    a = er_digraph(np.random.default_rng(1), n).adjacency.copy()
    a[:, 0] = 0.0
    return Graph(a)


def bits(m):
    """The IEEE bits of a float or complex array, to compare bit for bit."""
    return np.ascontiguousarray(m).view(np.uint64)


def one_vector_off(lapack_eig, share=1e-3):
    """A stand-in for ``scipy.linalg.eig`` that returns ``lapack_eig``'s result with entry (0, 0) of
    its eigenvectors moved by ``share`` times their largest magnitude."""
    def planted(*args, **kwargs):
        values, vectors = lapack_eig(*args, **kwargs)
        vectors[0, 0] += share * np.abs(vectors).max()
        return values, vectors

    return planted


def circulant(column):
    """The circulant matrix with first column ``column``: entry (i, j) is
    ``column[(i - j) mod n]``."""
    n = len(column)
    return np.asarray(column)[(np.arange(n)[:, None] - np.arange(n)) % n]


def random_basis_graph(rng, n, p=0.55, max_cond=1e6, need_y0=False, max_tries=500):
    """An ER digraph whose shift is safely diagonalizable, plus its basis.

    Regenerates until the eigenvalues are distinct, the eigenvector matrix is
    well conditioned, and (optionally) the first GFT column has no tiny
    entries.
    """
    for _ in range(max_tries):
        g = er_digraph(rng, n, p)
        try:
            b = basis_from_graph(g, tol=1e-6)
        except GsptkError:
            # repeated eigenvalues or an eigenbasis too ill conditioned to invert
            continue
        if np.linalg.cond(b.igft) > max_cond:
            continue
        if need_y0 and np.min(np.abs(b.gft[:, 0])) < 1e-4:
            continue
        return g, b
    raise RuntimeError(f"no suitable random graph found for n={n}")


def small_pivot_basis(eps=0.9e-10):
    """A 4-node explicit basis whose band (0, 1, 2) and indicator (0, 1, 1, 1)
    give the block ``vb[kept] = igft[1:, :3]`` with singular values 1.73, 1.0
    and ``sqrt(3) * eps`` = 1.56e-10, above the zero cut 1e-10 *
    max|igft[:, :3]| = 1e-10, while the first pivot of its LU is ``eps``,
    below it. The eigenvector matrix itself is well conditioned, so the
    inverse of ``gft`` that ``basis_explicit`` takes keeps that block up to
    rounding."""
    lam = np.array([4.0, 3.0, 2.0, 1.0])
    igft = np.array([[1.0, 0.0, 0.0, 0.0], [eps, 1.0, 0.0, 1.0],
                     [eps, 0.0, 1.0, 1.0], [eps, -1.0, -1.0, 1.0]])
    gft = np.linalg.inv(igft)
    graph = Graph(igft @ np.diag(lam) @ gft)
    return graph, basis_explicit(gft, lam, graph)


def forced_verdicts(basis, band, delta):
    """Whether ``vertex_plan`` and ``spectral_plan``, forced to the indicator
    ``delta``, each make a plan (False where they raise InfeasibleError).
    np.asarray: a None indicator is refused, not read as "select one"."""
    verdicts = []
    for route in (vertex_plan, spectral_plan):
        try:
            route(basis, band, forced_delta=np.asarray(delta))
            verdicts.append(True)
        except InfeasibleError:  # raised only after delta passed the indicator check
            verdicts.append(False)
    return tuple(verdicts)
