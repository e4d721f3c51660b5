import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsptk import (
    DimensionMismatchError,
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    GsptkError,
    ImpulseKind,
    NonFiniteError,
    PolynomialFilter,
    ReconstructionMismatchError,
    RepeatedEigenvaluesError,
    SingularMatrixError,
    SpectralBasis,
    ZeroScaleError,
    apply_filter,
    basis_explicit,
    basis_from_graph,
    build,
    BandSpec,
    bundled_basis,
    dft_basis,
    gft_apply,
    impulse_family,
    rescale_basis,
    response,
    spectral_shift,
    spectral_plan,
    spectral_shift_variant,
    structural_equal,
    vertex_plan,
)
from gsptk import numkit
from gsptk.numkit import PIVOT_TOL, eig

from util import DECADES, bits, circulant, er_digraph, random_basis_graph


def _weighted_cycle(n):
    """The directed cycle with weighted chords: a real circulant shift, whose
    first column holds random weights and no self loop."""
    column = np.random.default_rng(n).random(n)
    column[0] = 0.0
    return Graph(circulant(column))


STAR_M_REFERENCE = 0.5 * np.array(
    [
        [1.5, -2.5, 0.5, 0.5, 0.5],
        [-2.5, 1.5, 0.5, 0.5, 0.5],
        [1.0, 1.0, -1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0, -1.0],
    ]
)


def example4():
    g = build(GraphKind.EXAMPLE4, 4)
    return g, bundled_basis("example4", g)


def star5():
    g = build(GraphKind.STAR, 5)
    return g, bundled_basis("star5", g)


class TestBasisFromGraph:
    def test_ring4_matches_analytic_dft_up_to_scale(self):
        g = build(GraphKind.RING, 4)
        computed = basis_from_graph(g)
        dft_order = [1, -1j, -1, 1j]
        perm = [int(np.argmin(np.abs(computed.lam - t))) for t in dft_order]
        basis = SpectralBasis(computed.gft[perm], computed.igft[:, perm], computed.lam[perm])
        assert np.max(np.abs(basis.lam - np.array(dft_order))) < 1e-10
        analytic = dft_basis(4)
        for k in range(4):
            got, want = basis.igft[:, k], analytic.igft[:, k]
            scale = want[np.argmax(np.abs(want))] / got[np.argmax(np.abs(want))]
            assert np.max(np.abs(scale * got - want)) < 1e-10

    def test_star_rejected_for_repeated_eigenvalues(self):
        with pytest.raises(RepeatedEigenvaluesError):
            basis_from_graph(build(GraphKind.STAR, 5))

    def test_default_ordering_descending_real(self):
        basis = basis_from_graph(Graph(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(basis.lam, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(basis.igft), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    @pytest.mark.parametrize("graph", [
        er_digraph(np.random.default_rng(1), 60),
        _weighted_cycle(9),
        _weighted_cycle(16),
    ], ids=["er60", "cycle9", "cycle16"])
    def test_conjugate_pairs_follow_the_tie_rule_on_a_real_graph(self, graph):
        basis = basis_from_graph(graph)
        lam = basis.lam
        complex_idx = np.flatnonzero(lam.imag)
        assert complex_idx.size and complex_idx.size < lam.size
        first, second = complex_idx[0::2], complex_idx[1::2]
        assert np.array_equal(second, first + 1)
        assert np.all(lam[first].imag > 0)
        assert np.array_equal(lam[second], np.conj(lam[first]))
        assert np.array_equal(basis.igft[:, second], np.conj(basis.igft[:, first]))
        # a real eigenvalue carries no rounding residue in its imaginary part,
        # and its eigenvector none either
        assert np.all((lam.imag == 0) | (np.abs(lam.imag) > 1e-8))
        assert not basis.igft[:, lam.imag == 0].imag.any()

    def test_a_shift_with_an_imaginary_entry_still_decomposes(self):
        a = er_digraph(np.random.default_rng(1), 12).adjacency
        a[0, 1] += 0.5j
        pair = eig(a)
        assert pair.vectors.dtype == np.complex128
        assert np.max(np.abs(a @ pair.vectors - pair.vectors * pair.values)) < 1e-10
        basis = basis_from_graph(Graph(a))
        assert np.max(np.abs(basis.igft @ (basis.lam[:, None] * basis.gft) - a)) < 1e-8

    def test_a_real_symmetric_shift_gives_complex_eigenvectors(self):
        pair = eig(build(GraphKind.PATH, 6).adjacency)
        assert pair.values.dtype == np.complex128
        assert pair.vectors.dtype == np.complex128
        assert np.all(pair.values.imag == 0)

    def test_reconstruction_invariants(self):
        rng = np.random.default_rng(4)
        for n in (3, 6, 9):
            g, basis = random_basis_graph(rng, n)
            assert np.max(np.abs(basis.gft @ basis.igft - np.eye(n))) < 1e-8
            recon = basis.igft @ (basis.lam[:, None] * basis.gft)
            assert np.max(np.abs(recon - g.adjacency)) < 1e-8


def _cycle(n):
    """The directed cycle, n >= 1 (one node: a self loop)."""
    return Graph(circulant(np.roll(np.eye(n)[0], 1)))


def _relabelled_cycle(n):
    perm = np.random.default_rng(n).permutation(n)
    return Graph(_cycle(n).adjacency[np.ix_(perm, perm)])


class TestCirculantInverse:
    """A circulant's eigenvectors are orthonormal, so its basis takes the
    conjugate transpose of ``igft`` as ``gft``, and no LU inverse."""

    @pytest.mark.parametrize("graph", [
        *(_cycle(n) for n in (1, 2, 3, 4, 256)),
        _weighted_cycle(9),
        _weighted_cycle(16),
        Graph(circulant(np.random.default_rng(5).normal(size=(16, 2)) @ [1, 1j])),
    ], ids=["cycle1", "cycle2", "cycle3", "cycle4", "cycle256", "weighted9", "weighted16", "complex16"])
    def test_gft_is_the_conjugate_transpose(self, graph):
        n = graph.n
        with mock.patch.object(numkit, "solve", side_effect=AssertionError("LU inverse ran")):
            basis = basis_from_graph(graph)
        assert np.array_equal(bits(basis.gft), bits(basis.igft.conj().T))
        # the LU inverse of the same matrix, within c N eps (measured c <= 0.71)
        inverse = numkit.solve(basis.igft, np.eye(n, dtype=np.complex128))
        assert np.max(np.abs(basis.gft - inverse)) <= 2 * n * np.finfo(float).eps
        if not graph.adjacency.imag.any():
            # a real circulant: each pair's rows are exact conjugates (a signed zero matches its opposite)
            for k in np.flatnonzero(basis.lam.imag):
                partner = np.flatnonzero(basis.lam == np.conj(basis.lam[k]))
                assert partner.size == 1
                assert np.array_equal(basis.gft[partner[0]], basis.gft[k].conj())

    @pytest.mark.parametrize("n", [6, 8, 9, 16, 64])
    def test_tied_real_pairs_of_a_symmetric_circulant_stay_orthonormal(self, n):
        # a symmetric circulant ties values k and n - k (its basis is refused for
        # them), and eig replaces their vectors by the real cos/sin pair
        column = np.zeros(n)
        column[[1, -1]] += 1.0
        column[[2, -2]] += 0.5
        pair = eig(circulant(column))
        tied = pair.values.imag == 0
        assert pair.unitary and np.count_nonzero(tied) > 2
        assert not pair.vectors[:, tied].imag.any()
        eps = np.finfo(float).eps
        v = pair.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 2 * n * eps
        inverse = numkit.solve(v, np.eye(n, dtype=np.complex128))
        assert np.max(np.abs(v.conj().T - inverse)) <= 2 * n * eps

    @pytest.mark.parametrize("graph", [_relabelled_cycle(8), er_digraph(np.random.default_rng(1), 60)],
                             ids=["relabelled-cycle8", "er60"])
    def test_any_other_shift_keeps_its_lu_inverse(self, graph):
        # a real shift's inverse is one real LU of its pair form W, gft = T^-1 W^-1
        assert not numkit._circulant(graph.adjacency)
        assert not eig(graph.adjacency).unitary
        with mock.patch.object(numkit, "solve", wraps=numkit.solve) as lu:
            basis = basis_from_graph(graph)
        lu.assert_called_once()
        assert lu.call_args.args[0].dtype == np.float64
        n, eps = graph.n, np.finfo(float).eps
        # the complex LU inverse of igft, within 2 N eps cond(igft) relative (measured c <= 0.54)
        inverse = numkit.solve(basis.igft, np.eye(n, dtype=np.complex128))
        bound = 2 * n * eps * np.linalg.cond(basis.igft) * np.max(np.abs(inverse))
        assert np.max(np.abs(basis.gft - inverse)) <= bound
        # each conjugate pair's rows are exact conjugates, and a real value's row is real
        paired = np.flatnonzero(basis.lam.imag > 0)
        assert paired.size
        for k in paired:
            partner = np.flatnonzero(basis.lam == np.conj(basis.lam[k]))
            assert partner.size == 1
            assert np.array_equal(basis.gft[partner[0]], basis.gft[k].conj())
        real = basis.lam.imag == 0
        assert real.any() and not basis.gft[real].imag.any()


def _pair_t(n, m):
    """The T of ``numkit._pair_form`` for n columns with m pairs, as a dense matrix."""
    t = np.eye(n, dtype=np.complex128)
    for p in range(n - 2 * m, n - m):
        t[[p, p + m], p] = 1, 1j
        t[[p, p + m], p + m] = 1, -1j
    return t


def _check_verdict(call):
    """ok, or what a failing basis check names."""
    try:
        call()
    except ReconstructionMismatchError as exc:
        return str(exc).split(":")[0]
    return "ok"


def _complex_products(graph, lam, w, wi, order, m):
    """The errors of the two checks as complex products, each over its cut: igft = W T and
    gft = T^-1 W^-1 in the order of ``lam``, then gft @ igft against I and igft @ diag(lam) @ gft
    against A."""
    n = graph.n
    t = _pair_t(n, m)
    igft, gft = np.empty((n, n), np.complex128), np.empty((n, n), np.complex128)
    igft[:, order], gft[order] = w @ t, np.linalg.inv(t) @ wi
    return (
        np.max(np.abs(gft @ igft - np.eye(n))) / numkit.IDENTITY_TOL,
        np.max(np.abs(igft @ (lam[:, None] * gft) - graph.adjacency))
        / (numkit.IDENTITY_TOL * np.max(np.abs(graph.adjacency))),
    )


class TestRealPairForm:
    """A real shift's basis is inverted and checked as the real matrix W of its
    real vectors and of each conjugate pair's real and imaginary parts."""

    @pytest.mark.parametrize("seed", range(6))
    def test_the_pair_form_packs_a_real_basis_exactly(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(9, 9))
        pair = eig(a)
        perm = rng.permutation(9)  # a pair's members need not be adjacent
        values, vectors = pair.values[perm], pair.vectors[:, perm]
        real_a, w, order, m = numkit._pair_form(numkit._as_array(a, "shift", 2), values, vectors)
        assert real_a.dtype == w.dtype == np.float64 and m == np.count_nonzero(values.imag > 0) > 0
        assert np.array_equal(vectors[:, order], w @ _pair_t(9, m))  # exact, up to the sign of a zero
        wb = numkit._times_b(w, values[order], m)
        assert np.max(np.abs(real_a @ w - wb)) <= 1e-12 * np.max(np.abs(a))
        # a vector one ulp off its partner's conjugate, or a complex shift: no pairs
        q = order[-1]
        vectors[0, q] = np.nextafter(vectors[0, q].real, np.inf) + 1j * vectors[0, q].imag
        for shift in (a, a + 1e-3j):
            got_a, got_w, got_order, got_m = numkit._pair_form(numkit._as_array(shift, "shift", 2), values, vectors)
            assert got_m == 0 and got_w is vectors and np.array_equal(got_order, np.arange(9))

    @pytest.mark.parametrize("seed", range(40))
    def test_the_block_formula_is_the_explicit_product(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, n // 2 + 1))
        e = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-12, 3)
        t = _pair_t(n, m)
        for rows, want in ((True, np.linalg.inv(t) @ e @ t), (False, e @ t)):
            got = numkit._pair_max(e, m, rows=rows)
            assert abs(got - np.max(np.abs(want))) <= 4 * np.finfo(float).eps * np.max(np.abs(want))

    @pytest.mark.parametrize("share", [0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("fault, check", [
        ("an entry of W^-1", 0), ("an entry of W^-1", 1),
        ("a pair's imaginary row of W^-1", 0), ("a pair's imaginary row of W^-1", 1),
        ("a real column of W", 1),  # its basis is W's own inverse, so only the shift can miss
    ])
    def test_a_planted_fault_gets_the_verdict_of_the_complex_products(self, fault, check, share):
        graph = er_digraph(np.random.default_rng(1), 12)
        pair = eig(graph.adjacency)
        lam, n, (w, order, m) = pair.values, graph.n, pair.pair_form
        s = n - 2 * m
        assert 0 < s < n - m, "the graph has real values and pairs"
        wi = numkit.solve(w, np.eye(n))
        dw, dwi = np.zeros((n, n)), np.zeros((n, n))
        if fault == "a real column of W":
            dw[:, 0] = np.random.default_rng(2).normal(size=n)
        elif fault == "an entry of W^-1":
            dwi[s, 3] = 1.0
        else:
            dwi[n - m] = np.random.default_rng(2).normal(size=n)

        def planted(delta):
            w2 = w + delta * dw
            return w2, (numkit.solve(w2, np.eye(n)) if dw.any() else wi + delta * dwi)

        # the fault's size puts one complex-product error, I's or A's, at share x its cut
        delta = share * 1e-6 / _complex_products(graph, lam, *planted(1e-6), order, m)[check]
        w2, wi2 = planted(delta)
        ratios = _complex_products(graph, lam, w2, wi2, order, m)
        assert abs(ratios[check] - share) <= 1e-3 * share
        want = ("gft @ igft deviates from the identity" if ratios[0] > 1
                else "computed basis does not reconstruct the shift" if ratios[1] > 1 else "ok")
        planted_pair = dataclasses.replace(pair, pair_form=(w2, order, m))
        with mock.patch.object(numkit, "eig", return_value=planted_pair), \
                mock.patch.object(numkit, "solve", return_value=wi2):
            assert _check_verdict(lambda: basis_from_graph(graph)) == want

    @pytest.mark.parametrize("graph", [
        er_digraph(np.random.default_rng(1), 12),
        _relabelled_cycle(8),
        _weighted_cycle(9),
        Graph(er_digraph(np.random.default_rng(2), 8).adjacency + 0.5j * np.eye(8)),
    ], ids=["er12", "relabelled-cycle8", "weighted9", "complex8"])
    def test_the_pair_form_is_built_once_per_basis(self, graph):
        with mock.patch.object(numkit, "_pair_form", wraps=numkit._pair_form) as form:
            basis = basis_from_graph(graph)
        form.assert_called_once()
        w, order, m = eig(graph.adjacency).pair_form
        assert np.array_equal(basis.igft[:, order], w @ _pair_t(graph.n, m))


class TestBasisExplicit:
    def test_identity_basis_on_diagonal_shift(self):
        g = Graph(np.diag([5.0, -2.0, 1.0]))
        basis = basis_explicit(np.eye(3), [5.0, -2.0, 1.0], g)
        assert np.allclose(basis.igft, np.eye(3))

    def test_star_bundle_reconstructs_exactly(self):
        g, basis = star5()
        recon = basis.igft @ (basis.lam[:, None] * basis.gft)
        assert np.max(np.abs(recon - g.adjacency)) < 1e-12
        assert np.allclose(basis.lam, [2, -2, 0, 0, 0])

    def test_example4_bundle_is_valid(self):
        g, basis = example4()
        recon = basis.igft @ (basis.lam[:, None] * basis.gft)
        assert np.max(np.abs(recon - g.adjacency)) < 1e-12
        # frequencies ordered real-Perron, -1, conjugate pair
        assert abs(basis.lam[0] - 1.8393) < 5e-4
        assert abs(basis.lam[1] + 1.0) < 1e-12
        assert abs(basis.lam[2] - (-0.4196 + 0.6063j)) < 5e-4
        assert abs(basis.lam[3] - np.conj(basis.lam[2])) < 1e-15

    def test_mismatched_lambda_rejected(self):
        g = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ReconstructionMismatchError):
            basis_explicit(np.eye(2), [1.0, -1.0], g)

    def test_singular_gft_rejected(self):
        g = Graph(np.diag([1.0, 2.0]))
        with pytest.raises(SingularMatrixError):
            basis_explicit(np.ones((2, 2)), [1.0, 2.0], g)

    def test_an_unknown_bundled_basis_is_a_toolkit_error_naming_the_known_ones(self):
        with pytest.raises(GsptkError, match=r"unknown bundled basis 'ring4'; have \['example4', 'star5'\]"):
            bundled_basis("ring4", build(GraphKind.RING, 4))


class TestTransforms:
    def test_showcase_spectrum(self):
        g, basis = example4()
        x = GraphSignal(np.array([-1.992, 0.93, -0.314, -0.577]), Domain.VERTEX)
        xhat = gft_apply(basis, x)
        assert xhat.domain is Domain.SPECTRAL
        assert np.max(np.abs(xhat.values - np.array([1, 2, 0, 0]))) < 5e-3

    def test_dft_of_impulse_is_flat(self):
        basis = dft_basis(8)
        e0 = np.zeros(8)
        e0[0] = 1.0
        xhat = gft_apply(basis, GraphSignal(e0, Domain.VERTEX))
        assert np.max(np.abs(xhat.values - np.full(8, 1 / np.sqrt(8)))) < 1e-12

    def test_inverse_pair(self):
        rng = np.random.default_rng(6)
        g, basis = random_basis_graph(rng, 7)
        x = GraphSignal(rng.normal(size=7) + 1j * rng.normal(size=7), Domain.VERTEX)
        back = gft_apply(basis, gft_apply(basis, x))
        assert np.max(np.abs(back.values - x.values)) < 1e-10

    def test_the_tag_directs_the_transform(self):
        # a spectral signal goes back through igft, the GFT of the spectral graph
        _, basis = example4()
        xhat = GraphSignal(np.array([1.0, 2.0, 0.5j, -1.0]), Domain.SPECTRAL)
        x = gft_apply(basis, xhat)
        assert x.domain is Domain.VERTEX
        assert np.array_equal(x.values, basis.igft @ xhat.values)
        back = gft_apply(basis, x)
        assert back.domain is Domain.SPECTRAL
        assert np.max(np.abs(back.values - xhat.values)) < 1e-10


class TestSpectralShift:
    def test_cycle_shift_equals_adjacency(self):
        for n in (4, 8, 16, 64):
            a = build(GraphKind.RING, n).adjacency
            m = spectral_shift(dft_basis(n))
            assert np.max(np.abs(m - a)) <= 1e-10

    def test_star_matches_reference_values(self):
        _, basis = star5()
        m = spectral_shift(basis)
        assert np.max(np.abs(m - STAR_M_REFERENCE)) < 5e-3

    def test_diagonal_shift(self):
        g = Graph(np.diag([1.0 + 2.0j, 3.0, -1.0]))
        basis = basis_explicit(np.eye(3), [1.0 + 2.0j, 3.0, -1.0], g)
        assert np.allclose(spectral_shift(basis), np.diag([1.0 - 2.0j, 3.0, -1.0]))

    def test_m_spectrum_conjugate_to_a_spectrum(self):
        rng = np.random.default_rng(8)
        for n in (4, 6, 8):
            g, basis = random_basis_graph(rng, n)
            m_vals = eig(spectral_shift(basis)).values
            a_vals = eig(g.adjacency).values
            got = np.sort_complex(np.round(m_vals, 10))
            want = np.sort_complex(np.round(np.conj(a_vals), 10))
            assert np.max(np.abs(got - want)) < 1e-8


class TestVariantShift:
    def test_cycle_variant_reverses_direction(self):
        a = build(GraphKind.RING, 4).adjacency
        mv = spectral_shift_variant(dft_basis(4))
        assert np.max(np.abs(mv - a.T)) < 1e-12
        assert np.max(np.abs(mv - a)) > 0.5

    def test_symmetric_shift_variant_equals_default(self):
        g = build(GraphKind.PATH, 6)
        basis = basis_from_graph(g)
        assert np.allclose(spectral_shift_variant(basis), spectral_shift(basis), atol=1e-10)

    def test_diagonal_variant(self):
        g = Graph(np.diag([2.0j, 1.0]))
        basis = basis_explicit(np.eye(2), [2.0j, 1.0], g)
        assert np.allclose(spectral_shift_variant(basis), np.diag([2.0j, 1.0]))


class TestRescaling:
    def test_unit_scale_is_identity(self):
        _, basis = example4()
        scaled = rescale_basis(basis, np.ones(4))
        assert np.array_equal(scaled.gft, basis.gft)
        assert np.array_equal(scaled.igft, basis.igft)

    def test_conjugation_and_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            g, basis = random_basis_graph(rng, n)
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            c += np.sign(c.real + 1e-12) * 0.5  # keep well away from zero
            scaled = rescale_basis(basis, c)
            m = spectral_shift(basis)
            mc = spectral_shift(scaled)
            conj = (m * c[None, :]) / c[:, None]  # diag(c)^-1 M diag(c)
            assert np.max(np.abs(mc - conj)) < 1e-9 * max(1.0, np.max(np.abs(m)))
            recon = scaled.igft @ (scaled.lam[:, None] * scaled.gft)
            assert np.max(np.abs(recon - g.adjacency)) < 1e-8

    def test_zero_scale_rejected(self):
        _, basis = example4()
        with pytest.raises(ZeroScaleError):
            rescale_basis(basis, [1.0, 0.0, 1.0, 1.0])

    def test_short_scale_rejected(self):
        _, basis = example4()
        with pytest.raises(DimensionMismatchError, match="scale length 2 != basis size 4"):
            rescale_basis(basis, [1.0, 2.0])

    def test_an_overflowing_scale_names_its_matrix(self):
        # 1 / 1e-320 overflows gft's row; 1e200 twice overflows igft's column.
        # The suite turns a RuntimeWarning into a failure
        with pytest.raises(NonFiniteError, match="rescaled gft"):
            rescale_basis(dft_basis(4), [1e-320, 1, 1, 1])
        big = rescale_basis(dft_basis(4), [1e200, 1, 1, 1])
        with pytest.raises(NonFiniteError, match="rescaled igft"):
            rescale_basis(big, [1e200, 1, 1, 1])

    @settings(deadline=None, derandomize=True, database=None, max_examples=80)
    @given(seed=st.integers(0, 2**16), exponents=st.lists(st.sampled_from(DECADES), min_size=1, max_size=8))
    def test_returns_finite_values_or_a_toolkit_error(self, seed, exponents):
        # moduli from 0 through subnormal to 1e300 (DECADES), a tenth of the entries 0
        rng, n = np.random.default_rng(seed), len(exponents)
        c = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** np.array(exponents)
        c[rng.random(n) < 0.1] = 0.0
        try:
            scaled = rescale_basis(dft_basis(n), c)
        except GsptkError:
            return
        assert all(np.all(np.isfinite(m)) for m in (scaled.gft, scaled.igft, scaled.lam))


class TestSpectralBasisChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, np.nan), complex(0.0, -np.inf)])
    def test_a_non_finite_frequency_is_refused_when_the_basis_is_built(self, bad):
        # before any spectral_shift or plan could read it
        with pytest.raises(NonFiniteError, match="lam"):
            SpectralBasis(np.eye(3), np.eye(3), np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("field", ["gft", "igft"])
    def test_a_non_finite_transform_is_refused(self, field):
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(np.nan, 0.0)
        with pytest.raises(NonFiniteError, match=f"^{field} "):
            SpectralBasis(**{"gft": np.eye(3), "igft": np.eye(3), field: m}, lam=np.ones(3))

    @pytest.mark.parametrize("gft, igft, lam, match", [
        (np.eye(3), np.eye(3), np.ones((3, 1)), "lam must be 1-D"),
        (np.eye(2), np.eye(3), np.ones(3), r"gft must be N x N for N = 3 frequencies, got shape \(2, 2\)"),
        (np.eye(3), np.ones((3, 2)), np.ones(3), r"igft must be N x N for N = 3 frequencies, got shape \(3, 2\)"),
        (np.ones(3), np.eye(3), np.ones(3), "gft must be 2-D"),
    ])
    def test_shapes_are_checked(self, gft, igft, lam, match):
        with pytest.raises(DimensionMismatchError, match=match):
            SpectralBasis(gft, igft, lam)

    def test_complex128_fields_are_kept_and_others_converted(self):
        basis = dft_basis(5)
        again = SpectralBasis(basis.gft, basis.igft, basis.lam)
        assert all(getattr(again, f) is getattr(basis, f) for f in ("gft", "igft", "lam"))
        real = SpectralBasis([[1.0, 0.0], [0.0, 1.0]], np.eye(2), np.array([1, 2]))
        assert all(getattr(real, f).dtype == np.complex128 for f in ("gft", "igft", "lam"))

    def test_the_dual_is_not_checked_again(self):
        basis = dft_basis(5)
        with mock.patch.object(numkit, "_as_array", side_effect=AssertionError("checked again")):
            dual = basis.dual
            twice = dual.dual
        assert dual.gft is basis.igft and dual.igft is basis.gft
        assert np.array_equal(dual.lam, np.conj(basis.lam))
        assert twice.gft is basis.gft and twice.igft is basis.igft and bits(twice.lam).tobytes() == bits(basis.lam).tobytes()

    def test_a_domain_selects_the_basis_that_transforms_it(self):
        basis = dft_basis(5)
        assert basis.for_domain(Domain.VERTEX) is basis
        spectral = basis.for_domain(Domain.SPECTRAL)
        assert spectral.gft is basis.igft and spectral.igft is basis.gft
        assert Domain.VERTEX.other is Domain.SPECTRAL and Domain.SPECTRAL.other is Domain.VERTEX


@settings(deadline=None, derandomize=True, database=None, max_examples=80)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 6), k=st.integers(1, 6),
       bad=st.sampled_from([None, None, "gft", "igft", "lam"]))
def test_a_hand_built_basis_gives_finite_values_or_a_toolkit_error(seed, n, k, bad):
    # moduli from 0 through subnormal to 1e300 (DECADES), a tenth of the entries 0; a non-finite
    # entry is refused when the basis is built, and every reader of a built one, a solve by its gft
    # and a filter with coefficients of the same moduli return finite values or raise GsptkError
    rng = np.random.default_rng(seed)

    def draw(*shape):
        m = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.choice(DECADES, size=shape)
        m[rng.random(shape) < 0.1] = 0.0
        return m

    fields = {"gft": draw(n, n), "igft": draw(n, n), "lam": draw(n)}
    if bad:
        fields[bad].flat[rng.integers(fields[bad].size)] = rng.choice([np.nan, np.inf, complex(0.0, -np.inf)])
        with pytest.raises(NonFiniteError, match=f"^{bad} "):
            SpectralBasis(**fields)
        return
    basis = SpectralBasis(**fields)
    graph, x, band = Graph(np.ones((n, n)) - np.eye(n)), draw(n), BandSpec(tuple(range(min(k, n))))
    calls = [lambda: spectral_shift(basis), lambda: numkit.solve(basis.gft, x),
             *(lambda d=d: gft_apply(basis, GraphSignal(x, d)).values for d in Domain),
             *(lambda kind=kind: impulse_family(graph, basis, kind).D_hat for kind in ImpulseKind),
             lambda: vertex_plan(basis, band).S, lambda: spectral_plan(basis, band).S,
             *(lambda f=PolynomialFilter(draw(k), d): apply_filter(f, graph, basis, GraphSignal(x, d)).values
               for d in Domain),
             *(lambda f=PolynomialFilter(draw(k), d): response(f, basis).values for d in Domain)]
    for call in calls:
        try:
            out = call()
        except GsptkError:
            continue
        assert np.all(np.isfinite(out))


class TestStructuralEqual:
    def test_self(self):
        _, basis = star5()
        m = spectral_shift(basis)
        assert structural_equal(m, m)

    def test_diagonal_conjugation_preserves_pattern(self):
        rng = np.random.default_rng(10)
        trials = 0
        while trials < 20:
            n = int(rng.integers(3, 10))
            _, basis = random_basis_graph(rng, n)
            m = spectral_shift(basis)
            cutoff = PIVOT_TOL * np.max(np.abs(m))
            mags = np.abs(m)
            # skip patterns with entries too close to the cutoff to classify
            if np.any((mags > 0.1 * cutoff) & (mags < 10 * cutoff)):
                continue
            c = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * rng.uniform(0.5, 2.0, n)
            mc = spectral_shift(rescale_basis(basis, c))
            assert structural_equal(m, mc)
            trials += 1

    def test_different_patterns_differ(self):
        ring = build(GraphKind.RING, 5).adjacency
        _, basis = star5()
        assert not structural_equal(ring, spectral_shift(basis))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            structural_equal(np.eye(2), np.eye(3))
