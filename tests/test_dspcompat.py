import numpy as np
import pytest

from gsptk import (
    BandSpec,
    Domain,
    GraphKind,
    GraphSignal,
    NotDivisibleError,
    build,
    bundled_basis,
    circulant_convolve,
    dft_basis,
    dsp_sampling_operator,
    gft_apply,
    nyquist_recover,
    replication_compare,
    sample,
    spectral_plan,
    spectral_recover,
)


class TestDftBasis:
    def test_entry_values(self):
        basis = dft_basis(4)
        assert abs(basis.gft[1, 1] - (-0.5j)) < 1e-14
        assert abs(basis.gft[0, 0] - 0.5) < 1e-14

    def test_unitary(self):
        for n in (2, 5, 16):
            basis = dft_basis(n)
            assert np.max(np.abs(basis.gft @ basis.igft - np.eye(n))) < 1e-12

    def test_columns_match_harmonic_formula(self):
        n = 8
        basis = dft_basis(n)
        for k in range(n):
            want = np.exp(2j * np.pi * np.arange(n) * k / n) / np.sqrt(n)
            assert np.max(np.abs(basis.igft[:, k] - want)) < 1e-12

    def test_diagonalizes_the_cycle(self):
        n = 6
        a = build(GraphKind.RING, n).adjacency
        basis = dft_basis(n)
        recon = basis.igft @ (basis.lam[:, None] * basis.gft)
        assert np.max(np.abs(recon - a)) < 1e-12


class TestDspSamplingOperator:
    def test_4_2_explicit(self):
        pm = dsp_sampling_operator(4, 2)
        want = 0.5 * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
        )
        assert np.max(np.abs(pm - want)) < 1e-12

    def test_full_sampling_identity(self):
        assert np.max(np.abs(dsp_sampling_operator(6, 6) - np.eye(6))) < 1e-12

    def test_12_3_block_structure(self):
        pm = dsp_sampling_operator(12, 3)
        want = 0.25 * np.kron(np.ones((4, 4)), np.eye(3))
        assert np.max(np.abs(pm - want)) < 1e-10

    def test_all_divisor_pairs_up_to_32(self):
        for n in range(2, 33):
            for k in range(1, n + 1):
                if n % k == 0:
                    dsp_sampling_operator(n, k)  # internal closed-form assert

    def test_non_divisor_rejected(self):
        with pytest.raises(NotDivisibleError):
            dsp_sampling_operator(10, 3)


class TestNyquistRecover:
    def test_showcase_pipeline(self):
        xhat = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)
        pm = dsp_sampling_operator(4, 2)
        sampled = pm @ xhat
        # the even-train operator replicates the band with gain K/N
        assert np.max(np.abs(sampled - 0.5 * np.array([1, 2, 1, 2]))) < 1e-12
        rec = nyquist_recover(GraphSignal(sampled, Domain.SPECTRAL), 2)
        assert np.max(np.abs(rec.values - xhat)) < 1e-12

    def test_full_band_identity(self):
        vals = np.array([1.0, 2.0, 3.0], dtype=complex)
        rec = nyquist_recover(GraphSignal(vals, Domain.SPECTRAL), 3)
        assert np.max(np.abs(rec.values - vals)) < 1e-15

    def test_non_divisor_rejected(self):
        with pytest.raises(NotDivisibleError, match="n=4 k=3"):
            nyquist_recover(GraphSignal(np.ones(4), Domain.SPECTRAL), 3)

    def test_matches_spectral_recovery_on_the_cycle(self):
        rng = np.random.default_rng(1)
        n, k = 12, 4
        basis = dft_basis(n)
        xhat = np.zeros(n, dtype=complex)
        xhat[:k] = rng.normal(size=k) + 1j * rng.normal(size=k)
        x = gft_apply(basis, GraphSignal(xhat, Domain.SPECTRAL))
        delta = np.zeros(n, dtype=int)
        delta[:: n // k] = 1
        plan = spectral_plan(basis, BandSpec(tuple(range(k))), forced_delta=delta)
        rec_plan = spectral_recover(plan, sample(x, delta))
        pm = dsp_sampling_operator(n, k)
        rec_ny = gft_apply(
            basis, nyquist_recover(GraphSignal(pm @ xhat, Domain.SPECTRAL), k)
        )
        assert np.max(np.abs(rec_ny.values - x.values)) < 1e-10
        assert np.max(np.abs(rec_plan.values - rec_ny.values)) < 1e-10


class TestCirculantConvolve:
    def test_showcase_pair(self):
        got = circulant_convolve([1.0, 2.0, 3.0, 4.0], [-1.0, 1.0, 2.0, 4.0])
        assert np.max(np.abs(got - np.array([17, 19, 17, 7]))) < 1e-12

    def test_delta_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        assert np.allclose(circulant_convolve(x, [1.0, 0.0, 0.0]), x)

    def test_transform_product_theorem(self):
        rng = np.random.default_rng(2)
        for n in (3, 8, 16):
            basis = dft_basis(n)
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            via_fft = np.sqrt(n) * (basis.igft @ ((basis.gft @ x) * (basis.gft @ y)))
            assert np.max(np.abs(circulant_convolve(x, y) - via_fft)) < 1e-10


class TestReplicationCompare:
    def test_showcase_numbers(self):
        graph = build(GraphKind.EXAMPLE4, 4)
        basis = bundled_basis("example4", graph)
        xhat = GraphSignal(np.array([1.0, 2.0, 0.0, 0.0]), Domain.SPECTRAL)
        rep = replication_compare(basis, xhat, 2)
        assert np.max(np.abs(rep.freq_sampled - np.array([1, 2, 1, 2]))) < 1e-12
        want_gft = np.array([-3.098 + 0.158j, 2.786, 0.013 - 0.533j, -1.68 + 0.158j])
        assert np.max(np.abs(rep.vertex_image_via_gft - want_gft)) < 5e-3
        assert rep.zero_count == 0
        want_dft = np.array([3.0, 0.0, -1.0, 0.0])
        assert np.max(np.abs(rep.vertex_image_via_dft - want_dft)) < 5e-3

    def test_cycle_case_is_consistent_sampling(self):
        rng = np.random.default_rng(3)
        n = 8
        basis = dft_basis(n)
        xhat = np.zeros(n, dtype=complex)
        xhat[: n // 2] = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        rep = replication_compare(basis, GraphSignal(xhat, Domain.SPECTRAL), 2)
        assert rep.zero_count == n // 2
        # on the cycle the replicated spectrum is the (scaled) even-sampled signal
        x = basis.igft @ xhat
        sampled = x.copy()
        sampled[1::2] = 0.0
        assert np.max(np.abs(rep.vertex_image_via_gft - 2 * sampled)) < 1e-10

    def test_bad_factor(self):
        basis = dft_basis(6)
        with pytest.raises(NotDivisibleError):
            replication_compare(basis, GraphSignal(np.zeros(6), Domain.SPECTRAL), 4)
