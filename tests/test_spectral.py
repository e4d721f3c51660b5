import numpy as np
import pytest

from gsptk import (
    DimensionMismatchError,
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    GsptkError,
    ReconstructionMismatchError,
    RepeatedEigenvaluesError,
    SingularMatrixError,
    SpectralBasis,
    ZeroScaleError,
    basis_explicit,
    basis_from_graph,
    build,
    bundled_basis,
    dft_basis,
    gft_apply,
    rescale_basis,
    spectral_shift,
    spectral_shift_variant,
    structural_equal,
)
from gsptk.numkit import PIVOT_TOL, eig

from util import er_digraph, random_basis_graph

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

    def test_conjugate_pairs_follow_the_tie_rule_on_a_real_graph(self):
        basis = basis_from_graph(er_digraph(np.random.default_rng(1), 60))
        lam = basis.lam
        complex_idx = np.flatnonzero(lam.imag)
        assert complex_idx.size and complex_idx.size < lam.size
        first, second = complex_idx[0::2], complex_idx[1::2]
        assert np.array_equal(second, first + 1)
        assert np.all(lam[first].imag > 0)
        assert np.array_equal(lam[second], np.conj(lam[first]))
        assert np.array_equal(basis.igft[:, second], np.conj(basis.igft[:, first]))
        # a real eigenvalue carries no rounding residue in its imaginary part
        assert np.all((lam.imag == 0) | (np.abs(lam.imag) > 1e-8))

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
