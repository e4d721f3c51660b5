import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsptk import (
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    GsptkError,
    ImpulseKind,
    NonFiniteError,
    RepeatedEigenvaluesError,
    SingularMatrixError,
    SpectralBasis,
    basis_explicit,
    basis_from_graph,
    build,
    bundled_basis,
    dft_basis,
    fit_filter,
    impulse_family,
    spectral_shift,
    vandermonde,
)
from gsptk import numkit
from gsptk.numkit import row_reduce

from util import DECADES, er_digraph, random_basis_graph


class TestImpulseFamilies:
    def test_ring_vertex_impulsive_is_identity_with_dft_image(self):
        g = build(GraphKind.RING, 4)
        basis = dft_basis(4)
        fam = impulse_family(g, basis, ImpulseKind.VERTEX_IMPULSIVE)
        assert np.array_equal(fam.D, np.eye(4, dtype=complex))
        assert np.max(np.abs(fam.D_hat - basis.gft)) < 1e-12

    def test_ring_spectral_flat_image_is_vandermonde(self):
        g = build(GraphKind.RING, 4)
        basis = dft_basis(4)
        fam = impulse_family(g, basis, ImpulseKind.SPECTRAL_FLAT)
        v = vandermonde(basis.lam)
        assert np.max(np.abs(fam.D_hat - v)) < 1e-12
        assert np.max(np.abs(v - basis.gft)) < 1e-12

    def test_vertex_impulsive_image_factors_through_y0(self):
        # independent construction of the image: diag(y0) times the raw
        # (unnormalized) frequency-power matrix
        rng = np.random.default_rng(3)
        for n in (4, 6, 9):
            g, basis = random_basis_graph(rng, n)
            fam = impulse_family(g, basis, ImpulseKind.VERTEX_IMPULSIVE)
            powers = basis.lam[:, None] ** np.arange(n)[None, :]
            oracle = basis.gft[:, 0][:, None] * powers  # == sqrt(n) * diag(y0) @ vandermonde
            scale = max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(fam.D_hat - oracle)) < 1e-9 * scale
            via_vandermonde = np.sqrt(n) * (basis.gft[:, 0][:, None] * vandermonde(basis.lam))
            assert np.max(np.abs(oracle - via_vandermonde)) < 1e-9 * scale

    def test_shift_consistency(self):
        rng = np.random.default_rng(5)
        g, basis = random_basis_graph(rng, 7)
        fam = impulse_family(g, basis, ImpulseKind.VERTEX_IMPULSIVE)
        for k in range(6):
            assert np.max(np.abs(fam.D[:, k + 1] - g.adjacency @ fam.D[:, k])) <= 1e-10
        assert np.array_equal(fam.D[:, 0], np.eye(7)[:, 0].astype(complex))

    def test_spectral_flat_column0_transforms_to_flat(self):
        rng = np.random.default_rng(7)
        g, basis = random_basis_graph(rng, 6)
        fam = impulse_family(g, basis, ImpulseKind.SPECTRAL_FLAT)
        flat = np.full(6, 1 / np.sqrt(6))
        assert np.max(np.abs(basis.gft @ fam.D[:, 0] - flat)) < 1e-10

    def test_spectral_domain_impulsive_shifts_by_m(self):
        rng = np.random.default_rng(9)
        g, basis = random_basis_graph(rng, 5)
        fam = impulse_family(g, basis, ImpulseKind.SPECTRAL_DOMAIN_IMPULSIVE)
        m = spectral_shift(basis)
        e0 = np.eye(5, dtype=complex)[:, 0]
        assert np.array_equal(fam.D[:, 0], e0)
        for k in range(4):
            assert np.max(np.abs(fam.D[:, k + 1] - m @ fam.D[:, k])) < 1e-12

    def test_frequency_shifting_a_vertex_impulse_keeps_it_impulsive(self):
        # the M-shifted transform of e_0 maps back to conj(lam_0)^n * e_0
        rng = np.random.default_rng(11)
        g, basis = random_basis_graph(rng, 6)
        m = spectral_shift(basis)
        e0 = np.zeros(6, dtype=complex)
        e0[0] = 1.0
        vec = basis.gft @ e0
        for n in range(6):
            back = basis.igft @ vec
            want = np.conj(basis.lam[0]) ** n * e0
            assert np.max(np.abs(back - want)) < 1e-9
            vec = m @ vec

    def test_dsp_shifted_deltas_have_power_spectra(self):
        basis = dft_basis(8)
        g = build(GraphKind.RING, 8)
        fam = impulse_family(g, basis, ImpulseKind.VERTEX_IMPULSIVE)
        for n in range(8):
            want = basis.lam**n / np.sqrt(8)
            assert np.max(np.abs(fam.D_hat[:, n] - want)) < 1e-12


class TestInvertibility:
    def test_flat_family_survives_zero_y0(self):
        # diagonal shift: distinct frequencies but y0 = e_0 has zeros, so the
        # vertex-impulsive family degenerates while the flat one stays full rank
        g = Graph(np.diag([1.0, 2.0, 3.0]))
        basis = basis_explicit(np.eye(3), [1.0, 2.0, 3.0], g)
        dv = impulse_family(g, basis, ImpulseKind.VERTEX_IMPULSIVE)
        ds = impulse_family(g, basis, ImpulseKind.SPECTRAL_FLAT)
        assert row_reduce(dv.D).rank == 1
        assert row_reduce(ds.D).rank == 3

    def test_star_vertex_family_rank_deficient(self):
        g = build(GraphKind.STAR, 5)
        basis = bundled_basis("star5", g)
        fam = impulse_family(g, basis, ImpulseKind.VERTEX_IMPULSIVE)
        assert row_reduce(fam.D).rank < 5


class TestVandermonde:
    def test_ring_frequencies_give_dft(self):
        basis = dft_basis(4)
        assert np.max(np.abs(vandermonde(basis.lam) - basis.gft)) < 1e-12

    def test_single_entry(self):
        assert np.array_equal(vandermonde([1.0]), np.array([[1.0 + 0j]]))

    def test_distinct_frequencies_full_rank(self):
        rng = np.random.default_rng(13)
        _, basis = random_basis_graph(rng, 6)
        assert row_reduce(vandermonde(basis.lam)).rank == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vandermonde([])

    def test_overflowing_powers_raise_a_typed_error(self):
        # 2 ** 1100 overflows; the suite turns a RuntimeWarning into a failure
        with pytest.raises(NonFiniteError, match="Vandermonde matrix"):
            vandermonde([2.0] + [0.5] * 1100)

    @settings(deadline=None, derandomize=True, database=None, max_examples=80)
    @given(seed=st.integers(0, 2**16), exponents=st.lists(st.sampled_from(DECADES), min_size=1, max_size=60))
    def test_returns_finite_values_or_a_toolkit_error(self, seed, exponents):
        # moduli from 0 through subnormal to 1e300 (DECADES), a tenth of the entries 0
        rng, n = np.random.default_rng(seed), len(exponents)
        lam = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** np.array(exponents)
        lam[rng.random(n) < 0.1] = 0.0
        try:
            v = vandermonde(lam)
        except GsptkError:
            return
        assert v.shape == (n, n) and np.all(np.isfinite(v))


class TestAssumptions:
    """The two assumptions an impulse family needs, distinct frequencies and a first GFT column y0 with
    no zero entry, are judged by two refusals: ``basis_from_graph``'s gap refusal (and, for an explicit
    basis, ``fit_filter``'s on a response that splits a repeated frequency), and ``fit_filter``'s on y0."""

    def test_ring(self):
        basis = dft_basis(8)
        assert basis_from_graph(build(GraphKind.RING, 8)).n == 8
        assert np.max(np.abs(np.abs(basis.gft[:, 0]) - 1 / np.sqrt(8))) < 1e-12
        target = GraphSignal(np.arange(8.0), Domain.VERTEX)
        for kind in ImpulseKind:
            assert np.all(np.isfinite(fit_filter(target, kind, basis).values))

    @pytest.mark.parametrize("lam", ([1.0, 1.0, np.nan], [np.inf, 1.0, 2.0]))
    def test_non_finite_frequencies_raise_a_typed_error(self, lam):
        # a hand-built basis; a NaN would hide the pair (0, 1) from every comparison
        with pytest.raises(NonFiniteError, match="lam"):
            SpectralBasis(np.eye(3), np.eye(3), np.array(lam))

    def test_star_explicit_basis_fails_both(self):
        graph = build(GraphKind.STAR, 5)
        basis = bundled_basis("star5", graph)
        with pytest.raises(RepeatedEigenvaluesError):
            basis_from_graph(graph)
        assert numkit._coincident(basis.lam)[0] == 0.0
        target = GraphSignal(np.arange(5.0), Domain.VERTEX)
        with pytest.raises(SingularMatrixError, match=r"min \|y0\|"):
            fit_filter(target, ImpulseKind.VERTEX_IMPULSIVE, basis)
        # the flat delta has no zero entry, and the response splits the repeated frequency 0
        with pytest.raises(SingularMatrixError, match="repeated eigenvalues"):
            fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis)

    def test_row_stochastic_digraph_keeps_y0_alive(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = er_digraph(rng, 6, p=0.7)
            a = g.adjacency.real
            np.fill_diagonal(a, 1.0)  # guarantee nonzero rows
            a = a / a.sum(axis=1, keepdims=True)
            try:
                basis = basis_from_graph(Graph(a))
            except GsptkError:
                continue
            # distinct frequencies, and no refusal of y0
            fit_filter(GraphSignal(np.ones(6), Domain.VERTEX), ImpulseKind.VERTEX_IMPULSIVE, basis)
            return
        pytest.fail("no diagonalizable row-stochastic digraph found")
