"""The spectral graph G_s as a dual: every spectral-domain operation of a
graph equals its vertex-domain twin on ``(Graph(M), basis.dual)``, exactly.

A twin signal has the same values and the other domain tag.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gsptk import (
    Domain,
    Graph,
    GraphSignal,
    GsptkError,
    ImpulseKind,
    PolynomialFilter,
    apply_filter,
    convolve,
    gft_apply,
    impulse_family,
    matrix_from_response,
    response,
    spectral_shift,
)

from util import random_basis_graph

TWIN_KIND = {
    ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE: ImpulseKind.VERTEX_IMPULSIVE,
    ImpulseKind.SPECTRAL_DOMAIN_FLAT: ImpulseKind.SPECTRAL_FLAT,
}


def twin(signal):
    other = Domain.VERTEX if signal.domain is Domain.SPECTRAL else Domain.SPECTRAL
    return GraphSignal(signal.values, other)


def outcome(call):
    """The values a call returns, or the type of the typed error it raises."""
    try:
        return call().values
    except GsptkError as exc:
        return type(exc)


def same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b)


digraphs = st.builds(
    lambda seed, n: random_basis_graph(np.random.default_rng(seed), n, need_y0=True),
    st.integers(0, 2**32 - 1),
    st.integers(3, 8),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(digraphs, st.integers(0, 2**32 - 1))
def test_spectral_calls_equal_their_vertex_twins_on_the_spectral_graph(graph_basis, seed):
    g, b = graph_basis
    dual_graph, dual = Graph(spectral_shift(b)), b.dual
    rng = np.random.default_rng(seed)
    n = g.n
    values = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    xhat, yhat = (GraphSignal(v, Domain.SPECTRAL) for v in values)
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)

    filt_m = PolynomialFilter(coeffs, Domain.SPECTRAL)
    filt_a = PolynomialFilter(coeffs, Domain.VERTEX)
    assert np.array_equal(
        apply_filter(filt_m, g, b, xhat).values,
        apply_filter(filt_a, dual_graph, dual, twin(xhat)).values,
    )
    assert np.array_equal(response(filt_m, b).values, response(filt_a, dual).values)

    resp = twin(yhat)  # a vertex response gives P(M)
    assert np.array_equal(matrix_from_response(b, resp), matrix_from_response(dual, twin(resp)))

    for kind, vertex_kind in TWIN_KIND.items():
        fam, fam_twin = impulse_family(g, b, kind), impulse_family(dual_graph, dual, vertex_kind)
        assert np.array_equal(fam.D, fam_twin.D)
        assert np.array_equal(fam.D_hat, fam_twin.D_hat)

    assert np.array_equal(gft_apply(b, xhat).values, gft_apply(dual, twin(xhat)).values)

    for y in (yhat, twin(yhat)):
        assert same(
            outcome(lambda: convolve(xhat, y, b)),
            outcome(lambda: convolve(twin(xhat), twin(y), dual)),
        )


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(digraphs)
def test_the_dual_of_the_dual_is_the_graph(graph_basis):
    g, b = graph_basis
    back = b.dual.dual
    assert all(np.array_equal(getattr(back, f), getattr(b, f)) for f in ("gft", "igft", "lam"))
    # the spectral shift of G_s is igft @ diag(lam) @ gft, the adjacency of G
    a = g.adjacency
    err = np.linalg.norm(spectral_shift(b.dual) - a, 2)
    bound = 10 * g.n * np.finfo(float).eps * np.linalg.cond(b.igft) * np.linalg.norm(a, 2)
    assert err <= bound
