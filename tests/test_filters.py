import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import functools

from gsptk import (
    DimensionMismatchError,
    Domain,
    Graph,
    GsptkError,
    GraphKind,
    GraphSignal,
    ImpulseKind,
    NonFiniteError,
    PolynomialFilter,
    SingularMatrixError,
    SpectralBasis,
    apply_filter,
    basis_explicit,
    basis_from_graph,
    build,
    bundled_basis,
    circulant_convolve,
    convolve,
    dft_basis,
    fit_filter,
    gft_apply,
    impulse_family,
    matrix_from_response,
    modulate,
    response,
    spectral_shift,
)

from util import er_digraph, random_basis_graph


def ring4():
    return build(GraphKind.RING, 4), dft_basis(4)


def vertex(vals):
    return GraphSignal(np.asarray(vals, dtype=complex), Domain.VERTEX)


def spectral(vals):
    return GraphSignal(np.asarray(vals, dtype=complex), Domain.SPECTRAL)


# the cycle convolution showcase pair
X4 = [1.0, 2.0, 3.0, 4.0]
Y4 = [-1.0, 1.0, 2.0, 4.0]
Y4_RESPONSE = [6.0, -3 + 3j, -4.0, -3 - 3j]  # = P(lam) at the 4 ring frequencies


class TestApply:
    def test_degree_one_is_the_shift(self):
        g, basis = ring4()
        x = vertex(X4)
        out = apply_filter(PolynomialFilter([0.0, 1.0], Domain.VERTEX), g, basis, x)
        assert np.allclose(out.values, np.roll(x.values, 1))

    def test_vertex_showcase(self):
        g, basis = ring4()
        out = apply_filter(PolynomialFilter(Y4, Domain.VERTEX), g, basis, vertex(X4))
        assert np.max(np.abs(out.values - np.array([17, 19, 17, 7]))) < 1e-10

    def test_spectral_polynomial_acts_as_circular_convolution(self):
        # On the cycle M equals the adjacency, so applying sum_i c_i M^i to a
        # spectrum is circular convolution with c. The reference value is
        # pinned by the independent brute-force oracle.
        g, basis = ring4()
        out = apply_filter(
            PolynomialFilter(Y4_RESPONSE, Domain.SPECTRAL), g, basis, spectral(X4)
        )
        oracle = circulant_convolve(np.array(X4, dtype=complex), np.array(Y4_RESPONSE))
        assert np.max(np.abs(out.values - oracle)) < 1e-10
        assert np.max(np.abs(out.values - np.array([-24 + 6j, -16 - 6j, -4 - 6j, 4 + 6j]))) < 1e-10

    def test_domain_guard(self):
        from gsptk import DomainMismatchError

        g, basis = ring4()
        with pytest.raises(DomainMismatchError):
            apply_filter(PolynomialFilter([1.0], Domain.VERTEX), g, basis, spectral(X4))

    @pytest.mark.parametrize("shift_domain, signal, message", [
        (Domain.SPECTRAL, vertex(X4), "expected a spectral-domain signal, got vertex"),
        (Domain.VERTEX, spectral(X4), "expected a vertex-domain signal, got spectral"),
    ])
    def test_domain_guard_names_the_callers_domains(self, shift_domain, signal, message):
        # a spectral filter runs as a vertex filter on the spectral graph, but
        # the refusal speaks of the domains the caller used
        from gsptk import DomainMismatchError

        g, basis = ring4()
        with pytest.raises(DomainMismatchError) as err:
            apply_filter(PolynomialFilter([1.0, 2.0], shift_domain), g, basis, signal)
        assert str(err.value) == message

    @pytest.mark.parametrize("shift_domain", list(Domain))
    def test_an_overflow_is_a_typed_error_naming_the_filter(self, shift_domain):
        # the Horner loop on a ring scaled by 1e200, and the polynomial on its frequencies, overflow;
        # under filterwarnings = error a numpy RuntimeWarning would come out first
        g, basis = build(GraphKind.RING, 4), dft_basis(4)
        g, basis = Graph(1e200 * g.adjacency), SpectralBasis(basis.gft, basis.igft, 1e200 * basis.lam)
        filt = PolynomialFilter([1e300, 1e300], shift_domain)
        with pytest.raises(NonFiniteError, match="^filter output contains non-finite entries"):
            apply_filter(filt, g, basis, GraphSignal(np.ones(4), shift_domain))
        with pytest.raises(NonFiniteError, match="^filter response contains non-finite entries"):
            response(filt, basis)


class TestResponse:
    def test_degree_one_gives_frequencies(self):
        _, basis = ring4()
        out = response(PolynomialFilter([0.0, 1.0], Domain.VERTEX), basis)
        assert out.domain is Domain.SPECTRAL
        assert np.allclose(out.values, basis.lam)

    def test_constant(self):
        _, basis = ring4()
        out = response(PolynomialFilter([2.5j], Domain.SPECTRAL), basis)
        assert out.domain is Domain.VERTEX
        assert np.allclose(out.values, np.full(4, 2.5j))

    def test_ring_showcase_response(self):
        # oracle: evaluate the polynomial at each frequency directly
        _, basis = ring4()
        got = response(PolynomialFilter(Y4, Domain.VERTEX), basis)
        oracle = np.array([np.polyval(Y4[::-1], lam) for lam in basis.lam])
        assert np.max(np.abs(got.values - oracle)) < 1e-12
        assert np.max(np.abs(got.values - 2 * (basis.gft @ np.array(Y4)))) < 1e-12
        assert np.max(np.abs(got.values - np.array(Y4_RESPONSE))) < 1e-12

    def test_spectral_filter_uses_conjugated_frequencies(self):
        rng = np.random.default_rng(2)
        _, basis = random_basis_graph(rng, 6)
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = response(PolynomialFilter(p, Domain.SPECTRAL), basis)
        oracle = np.array([np.polyval(p[::-1], np.conj(lam)) for lam in basis.lam])
        assert np.max(np.abs(got.values - oracle)) < 1e-10


class TestMatrixFromResponse:
    def test_all_ones_is_identity(self):
        _, basis = ring4()
        m = matrix_from_response(basis, spectral(np.ones(4)))
        assert np.max(np.abs(m - np.eye(4))) < 1e-12

    def test_showcase_sampling_filter_columns(self):
        graph = build(GraphKind.EXAMPLE4, 4)
        basis = bundled_basis("example4", graph)
        pm = matrix_from_response(basis, vertex([0.0, 1.0, 0.0, 1.0]))
        want = np.array(
            [
                [0.564, -0.412],
                [-0.817, 0.0],
                [0.296 - 0.106j, 0.41 + 0.205j],
                [0.296 + 0.106j, 0.41 - 0.205j],
            ]
        )
        assert np.max(np.abs(pm[:, :2] - want)) < 5e-3

    def test_ring_circulant_from_response(self):
        _, basis = ring4()
        pa = matrix_from_response(basis, spectral(Y4_RESPONSE))
        want = np.array(
            [[-1, 4, 2, 1], [1, -1, 4, 2], [2, 1, -1, 4], [4, 2, 1, -1]], dtype=float
        )
        assert np.max(np.abs(pa - want)) < 1e-10

    def test_consistency_with_horner_application(self):
        rng = np.random.default_rng(4)
        g, basis = random_basis_graph(rng, 7)
        p = rng.normal(size=7) + 1j * rng.normal(size=7)
        filt = PolynomialFilter(p, Domain.VERTEX)
        dense = matrix_from_response(basis, response(filt, basis))
        horner = np.column_stack(
            [
                apply_filter(filt, g, basis, vertex(np.eye(7)[:, k])).values
                for k in range(7)
            ]
        )
        scale = max(1.0, np.max(np.abs(horner)))
        assert np.max(np.abs(dense - horner)) < 1e-8 * scale


class TestModulate:
    def test_zeros_annihilate(self):
        assert np.array_equal(
            modulate(vertex(X4), vertex(np.zeros(4))).values, np.zeros(4, dtype=complex)
        )

    def test_showcase_sampling_modulation(self):
        x = vertex([-1.992, 0.93, -0.314, -0.577])
        delta = vertex([0.0, 1.0, 0.0, 1.0])
        out = modulate(delta, x)
        assert np.allclose(out.values, [0.0, 0.93, 0.0, -0.577])

    def test_commutative(self):
        rng = np.random.default_rng(5)
        a = spectral(rng.normal(size=6) + 1j * rng.normal(size=6))
        b = spectral(rng.normal(size=6))
        assert np.array_equal(modulate(a, b).values, modulate(b, a).values)

    def test_domain_guard(self):
        from gsptk import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            modulate(vertex(X4), spectral(X4))

    def test_length_guard(self):
        with pytest.raises(DimensionMismatchError, match="differ in length"):
            modulate(vertex(X4), vertex(X4[:3]))


class TestFitFilter:
    # the fit is the inverse of response(): it returns the response of the
    # filter whose impulse response is the target

    def test_ring_identity_system(self):
        g, basis = ring4()
        resp = fit_filter(vertex(Y4), ImpulseKind.VERTEX_IMPULSIVE, basis)
        want = response(PolynomialFilter(Y4, Domain.VERTEX), basis)
        assert resp.domain is want.domain is Domain.SPECTRAL
        assert np.max(np.abs(resp.values - want.values)) < 1e-12
        assert np.max(np.abs(resp.values - np.array(Y4_RESPONSE))) < 1e-12

    @pytest.mark.parametrize("kind", list(ImpulseKind))
    def test_forward_generated_response_recovered(self, kind):
        # the impulse response of a polynomial filter, to each convention's
        # own delta, gives back that filter's response
        rng = np.random.default_rng(6)
        g, basis = random_basis_graph(rng, 8, need_y0=True)
        p_true = rng.normal(size=8) + 1j * rng.normal(size=8)
        filt = PolynomialFilter(p_true, kind.domain)
        delta0 = GraphSignal(impulse_family(g, basis, kind).D[:, 0], kind.domain)
        got = fit_filter(apply_filter(filt, g, basis, delta0), kind, basis)
        want = response(filt, basis)
        assert got.domain is want.domain
        assert np.max(np.abs(got.values - want.values)) < 1e-10 * np.max(np.abs(want.values))

    def test_a_target_in_either_domain_gives_one_response(self):
        # a target in the other domain is already transformed
        rng = np.random.default_rng(7)
        g, basis = random_basis_graph(rng, 6, need_y0=True)
        values = rng.normal(size=6) + 1j * rng.normal(size=6)
        for kind in ImpulseKind:
            y = GraphSignal(values, kind.domain)
            own = fit_filter(y, kind, basis)
            other = fit_filter(gft_apply(basis, y), kind, basis)
            assert own.domain is other.domain is not kind.domain
            assert np.max(np.abs(own.values - other.values)) < 1e-10 * np.max(np.abs(own.values))

    def test_singular_fit_names_the_broken_assumption(self):
        # distinct frequencies, but gft[:, 0] = igft[:, 0] = e_0 has zeros
        g = Graph(np.diag([1.0, 2.0, 3.0]))
        basis = basis_explicit(np.eye(3), [1.0, 2.0, 3.0], g)
        for kind, domain, column in (
            (ImpulseKind.VERTEX_IMPULSIVE, Domain.VERTEX, "y0"),
            (ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE, Domain.SPECTRAL, "igft[:, 0]"),
        ):
            with pytest.raises(SingularMatrixError) as err:
                fit_filter(GraphSignal(np.ones(3), domain), kind, basis)
            msg = str(err.value)
            assert f"min |{column}| = 0.00e+00" in msg and "repeated" not in msg

    @pytest.mark.parametrize("case", ["repeated", "distinct"])
    def test_a_polynomial_target_is_accepted_and_filters_as_its_polynomial(self, case):
        # the last column of D is the impulse response of shift ** (N - 1)
        if case == "repeated":
            # star5 has the eigenvalue 0 three times; x ** 4 is 0 on all three
            g = build(GraphKind.STAR, 5)
            basis, kind = bundled_basis("star5", g), ImpulseKind.SPECTRAL_FLAT
        else:
            # smallest eigenvalue gap 0.32, min |y0| 0.18, cond(D) 4.0e15
            g, basis = random_basis_graph(np.random.default_rng(16), 16, need_y0=True)
            kind = ImpulseKind.VERTEX_IMPULSIVE
        n = g.n
        target = vertex(impulse_family(g, basis, kind).D[:, -1])
        power = PolynomialFilter(np.eye(n)[-1], Domain.VERTEX)
        resp, want = fit_filter(target, kind, basis), response(power, basis)
        assert np.max(np.abs(resp.values - want.values)) < 1e-12 * np.max(np.abs(want.values))
        x = vertex([1.0, 1j] @ np.random.default_rng(3).normal(size=(2, n)))
        got = convolve(x, target, basis, impulsive=kind.impulsive).values
        oracle = apply_filter(power, g, basis, x).values
        assert np.max(np.abs(got - oracle)) < 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("case", ["repeated", "distinct"])
    def test_a_target_is_refused_only_when_no_polynomial_has_it(self, case):
        # a random response splits star5's repeated eigenvalue 0; on distinct
        # frequencies every response is a polynomial in the shift
        if case == "repeated":
            g = build(GraphKind.STAR, 5)
            basis = bundled_basis("star5", g)
        else:
            g, basis = random_basis_graph(np.random.default_rng(16), 16, need_y0=True)
        target = vertex(np.random.default_rng(5).normal(size=g.n))
        if case == "repeated":
            with pytest.raises(SingularMatrixError) as err:
                fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis)
            assert "repeated eigenvalues" in str(err.value) and "indices [2, 3, 4]" in str(err.value)
        else:
            assert fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis).domain is Domain.SPECTRAL


class TestConvolve:
    def test_delta_is_identity(self):
        _, basis = ring4()
        delta = vertex([1.0, 0.0, 0.0, 0.0])
        out = convolve(vertex(X4), delta, basis)
        assert np.max(np.abs(out.values - np.array(X4))) < 1e-12

    def test_vertex_showcase(self):
        _, basis = ring4()
        out = convolve(vertex(X4), vertex(Y4), basis)
        assert np.max(np.abs(out.values - np.array([17, 19, 17, 7]))) < 1e-6

    def test_spectral_showcase_matches_brute_force(self):
        # Three independent routes agree: convolve, the circular-convolution
        # oracle, and the transform-product theorem written out by hand.
        _, basis = ring4()
        out = convolve(spectral(X4), spectral(Y4_RESPONSE), basis)
        oracle = circulant_convolve(np.array(X4, dtype=complex), np.array(Y4_RESPONSE))
        product = 2 * basis.gft @ (
            (basis.igft @ np.array(X4)) * (basis.igft @ np.array(Y4_RESPONSE))
        )
        want = np.array([-24 + 6j, -16 - 6j, -4 - 6j, 4 + 6j])
        assert np.max(np.abs(oracle - want)) < 1e-12
        assert np.max(np.abs(product - want)) < 1e-12
        assert np.max(np.abs(out.values - want)) < 1e-6

    def test_each_convention_reproduces_its_own_impulse_response(self):
        # the delta conventions yield different filters on a generic graph
        # (they only coincide on the cycle); each fit must make the second
        # operand the response to its own delta, in the family's own domain
        rng = np.random.default_rng(8)
        g, basis = random_basis_graph(rng, 6, need_y0=True)
        values = rng.normal(size=6) + 1j * rng.normal(size=6)
        for kind in ImpulseKind:
            own = kind.domain
            y = GraphSignal(values, own)
            resp = fit_filter(y, kind, basis)
            delta0 = GraphSignal(impulse_family(g, basis, kind).D[:, 0], own)
            out = gft_apply(basis, modulate(resp, gft_apply(basis, delta0)))
            scale = max(1.0, np.max(np.abs(y.values)))
            assert np.max(np.abs(out.values - y.values)) < 1e-7 * scale

    def test_conventions_coincide_on_the_cycle(self):
        rng = np.random.default_rng(12)
        _, basis = ring4()
        x = vertex(rng.normal(size=4) + 1j * rng.normal(size=4))
        y = vertex(rng.normal(size=4) + 1j * rng.normal(size=4))
        via_impulsive = convolve(x, y, basis)
        via_flat = convolve(x, y, basis, impulsive=False)
        via_yhat = convolve(x, gft_apply(basis, y), basis)
        assert np.max(np.abs(via_impulsive.values - via_flat.values)) < 1e-9
        assert np.max(np.abs(via_impulsive.values - via_yhat.values)) < 1e-9

    @pytest.mark.parametrize("kind", list(ImpulseKind))
    def test_a_basis_of_another_size_is_a_dimension_error(self, kind):
        g = build(GraphKind.RING, 5)
        x = GraphSignal(np.ones(5), kind.domain)
        with pytest.raises(DimensionMismatchError, match="basis size 4 does not match the graph size 5"):
            impulse_family(g, dft_basis(4), kind)
        with pytest.raises(DimensionMismatchError, match="signal length 5 does not match the graph size 4"):
            convolve(x, x, dft_basis(4), impulsive=kind.impulsive)


class TestDualities:
    def test_vertex_filtering_is_spectral_modulation(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(3, 13))
            g, basis = random_basis_graph(rng, n)
            p = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = vertex(rng.normal(size=n) + 1j * rng.normal(size=n))
            filt = PolynomialFilter(p, Domain.VERTEX)
            lhs = gft_apply(basis, apply_filter(filt, g, basis, x)).values
            rhs = response(filt, basis).values * gft_apply(basis, x).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))

    def test_spectral_filtering_is_vertex_modulation(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(3, 13))
            g, basis = random_basis_graph(rng, n)
            p = rng.normal(size=n) + 1j * rng.normal(size=n)
            xhat = spectral(rng.normal(size=n) + 1j * rng.normal(size=n))
            filt = PolynomialFilter(p, Domain.SPECTRAL)
            lhs = gft_apply(basis, apply_filter(filt, g, basis, xhat)).values
            rhs = response(filt, basis).values * gft_apply(basis, xhat).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


@functools.cache
def _er(n):
    g = er_digraph(np.random.default_rng(1), n)
    return g, basis_from_graph(g)


@functools.cache
def _cycle(n, computed):
    g = build(GraphKind.RING, n)
    return g, basis_from_graph(g) if computed else dft_basis(n)


class TestConvolveAtSize:
    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("n", [16, 64, 256, 800])
    def test_identity_element_shift_equivariance_and_commutativity(self, n, domain):
        # e0 * y = y, (S x) * y = S (x * y) and x * y = y * x, with S the
        # shift of the domain (A or M), within N eps cond(V) / min|delta_hat|
        g, basis = _er(n)
        b = basis if domain is Domain.VERTEX else basis.dual
        shift = g.adjacency if domain is Domain.VERTEX else spectral_shift(basis)
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))

        def conv(a, c):
            return convolve(GraphSignal(a, domain), GraphSignal(c, domain), basis).values

        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        bound = n * np.finfo(float).eps * np.linalg.cond(basis.igft) / np.min(np.abs(b.gft[:, 0]))
        xy = conv(x, y)
        assert rel(conv(np.eye(n)[0], y), y) <= bound
        assert rel(conv(shift @ x, y), shift @ xy) <= bound
        assert rel(conv(y, x), xy) <= bound

    @pytest.mark.parametrize("computed", [False, True], ids=["dft_basis", "basis_from_graph"])
    @pytest.mark.parametrize("domain", list(Domain))
    def test_the_cycle_at_1024_matches_the_fft(self, domain, computed):
        # both domains convolve circularly; a spectral entry is indexed by the k
        # of its frequency exp(-2j pi k / n), which the computed basis orders
        # by descending real part and the DFT basis naturally
        n = 1024
        _, basis = _cycle(n, computed)
        k = np.arange(n)
        if domain is Domain.SPECTRAL:
            k = np.rint(-np.angle(basis.lam) * n / (2 * np.pi)).astype(int) % n
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        got = convolve(GraphSignal(x, domain), GraphSignal(y, domain), basis).values
        natural = np.zeros((2, n), dtype=np.complex128)
        natural[:, k] = x, y
        want = np.fft.ifft(np.fft.fft(natural[0]) * np.fft.fft(natural[1]))[k]
        assert np.linalg.norm(got - want) <= 100 * n * np.finfo(float).eps * np.linalg.norm(want)


@settings(deadline=None, derandomize=True, database=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    imaginary=st.booleans(),
)
def test_the_filter_layer_returns_finite_values_or_a_toolkit_error(seed, n, density, imaginary):
    # a real digraph's basis comes in conjugate pairs (its real pair form), a
    # complex shift's has none; either way the transforms and the convolution
    # of both domains return finite values or raise GsptkError
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * rng.normal(size=(n, n))
    if imaginary:
        a = a + 1j * (rng.random((n, n)) < density) * rng.normal(size=(n, n))
    graph = Graph(a)
    x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    try:
        basis = basis_from_graph(graph)
    except GsptkError:
        return
    assert all(np.all(np.isfinite(m)) for m in (basis.gft, basis.igft, basis.lam))
    if not imaginary:
        assert not basis.gft[basis.lam.imag == 0].imag.any()
    for domain in Domain:
        signal = GraphSignal(x, domain)
        there = gft_apply(basis, signal)
        assert there.domain is not domain and np.all(np.isfinite(there.values))
        assert np.all(np.isfinite(gft_apply(basis, there).values))
        try:
            out = convolve(signal, GraphSignal(y, domain), basis)
        except GsptkError:
            continue
        assert out.domain is domain and np.all(np.isfinite(out.values))
