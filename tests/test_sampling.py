import base64
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsptk import (
    BadSizeError,
    BandSpec,
    DimensionMismatchError,
    Domain,
    DomainMismatchError,
    Graph,
    GraphKind,
    GraphSignal,
    InfeasibleError,
    NotBandlimitedError,
    SizeMismatchError,
    band_project,
    basis_explicit,
    basis_from_graph,
    build,
    bundled_basis,
    dft_basis,
    gft_apply,
    modulate,
    plan_equivalent,
    read_plan,
    recovery_block,
    sample,
    sampling_operator,
    spectral_plan,
    spectral_recover,
    upsample,
    vertex_plan,
    vertex_recover,
    write_plan,
)
from gsptk.numkit import solve

from util import er_digraph, random_basis_graph

X4 = np.array([-1.992, 0.93, -0.314, -0.577])
DELTA4 = np.array([0, 1, 0, 1])
S4 = np.array([[-1.0, 1.839], [0.0, 0.544]])
PMKK4 = np.array([[-0.817, 0.0], [0.296 + 0.106j, 0.41 - 0.205j]])
XHAT_SPL4 = np.array([-0.259, -0.817, 1.116 + 0.305j, 1.116 - 0.305j])


def example4():
    g = build(GraphKind.EXAMPLE4, 4)
    return g, bundled_basis("example4", g)


def lowpass_signal(rng, basis, band):
    xhat = np.zeros(basis.n, dtype=complex)
    coeffs = rng.normal(size=band.k) + 1j * rng.normal(size=band.k)
    xhat[list(band.support)] = coeffs
    return gft_apply(basis, GraphSignal(xhat, Domain.SPECTRAL)), xhat


@pytest.mark.parametrize("support", [(), (-1, 0), (0, 0), (1, 0), (False, True)])
def test_band_spec_rejects_a_bad_support_with_a_typed_error(support):
    with pytest.raises(DimensionMismatchError):
        BandSpec(support)


def test_band_spec_refuses_non_integers_instead_of_truncating():
    with pytest.raises(DimensionMismatchError, match="must be integers"):
        BandSpec((0.7, 1.2))
    with pytest.raises(DimensionMismatchError):
        BandSpec((np.float64(0.0),))
    assert BandSpec((np.int64(0), np.int32(2))).support == (0, 2)


class TestBandProject:
    def test_showcase(self):
        out = band_project(GraphSignal(np.array([1, 2, 0, 0], dtype=complex), Domain.SPECTRAL),
                           BandSpec((0, 1)))
        assert np.array_equal(out, np.array([1, 2], dtype=complex))

    def test_full_band_identity(self):
        vals = np.array([1.0, 2.0j, -3.0])
        out = band_project(GraphSignal(vals, Domain.SPECTRAL), BandSpec((0, 1, 2)))
        assert np.array_equal(out, vals)

    def test_violation_reports_worst_entry(self):
        sig = GraphSignal(np.array([1, 2, 0.5, 0], dtype=complex), Domain.SPECTRAL)
        with pytest.raises(NotBandlimitedError) as err:
            band_project(sig, BandSpec((0, 1)), rel=1e-6)
        assert err.value.worst == 0.5

    @pytest.mark.parametrize("rel", [float("nan"), -1e-8, float("inf")])
    def test_rel_must_be_finite_and_nonnegative(self, rel):
        # with rel = nan the guard never fired, and this returned [1, 1]
        sig = GraphSignal(np.array([1, 1, 5, 5], dtype=complex), Domain.SPECTRAL)
        with pytest.raises(BadSizeError, match="rel must be finite and >= 0"):
            band_project(sig, BandSpec((0, 1)), rel=rel)


class TestVertexPlan:
    def test_showcase_plan(self):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1)))
        assert np.array_equal(plan.delta, DELTA4)
        assert plan.free_idx == (1, 3)
        assert plan.pivot_idx == (0, 2)
        assert np.max(np.abs(plan.S - S4)) < 5e-3

    def test_full_band(self):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1, 2, 3)))
        assert np.array_equal(plan.delta, np.ones(4, dtype=int))
        assert plan.S.shape == (0, 4)

    def test_ring_lowpass_roundtrip(self):
        rng = np.random.default_rng(1)
        basis = dft_basis(8)
        band = BandSpec(tuple(range(4)))
        plan = vertex_plan(basis, band)
        x, _ = lowpass_signal(rng, basis, band)
        rec = vertex_recover(plan, sample(x, plan.delta))
        assert np.max(np.abs(rec.values - x.values)) < 1e-10

    def test_forced_delta(self):
        basis = dft_basis(8)
        band = BandSpec(tuple(range(4)))
        forced = np.array([1, 0, 0, 1, 1, 0, 0, 1])
        plan = vertex_plan(basis, band, forced_delta=forced)
        assert np.array_equal(plan.delta, forced)
        rng = np.random.default_rng(2)
        x, _ = lowpass_signal(rng, basis, band)
        rec = vertex_recover(plan, sample(x, plan.delta))
        assert np.max(np.abs(rec.values - x.values)) < 1e-9


class TestVertexRecover:
    def test_showcase_recovery(self):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1)))
        rec = vertex_recover(plan, np.array([0.93, -0.577]))
        assert np.max(np.abs(rec.values - X4)) < 5e-3

    def test_full_band_echo(self):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1, 2, 3)))
        rec = vertex_recover(plan, X4)
        assert np.array_equal(rec.values, X4.astype(complex))

    def test_wrong_sample_count(self):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1)))
        with pytest.raises(SizeMismatchError):
            vertex_recover(plan, np.array([1.0]))

    def test_random_roundtrips(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            g, basis = random_basis_graph(rng, n)
            k = int(rng.integers(1, n // 2 + 1))
            band = BandSpec(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
            plan = vertex_plan(basis, band)
            if plan.cond > 1e8:
                continue
            x, _ = lowpass_signal(rng, basis, band)
            rec = vertex_recover(plan, sample(x, plan.delta))
            scale = max(1.0, np.max(np.abs(x.values)))
            assert np.max(np.abs(rec.values - x.values)) <= 1e-8 * scale


class TestSpectralPlan:
    def test_showcase_forced_plan(self):
        _, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1)), forced_delta=DELTA4)
        assert np.array_equal(plan.delta, DELTA4)
        assert recovery_block(basis, plan.delta, plan.band)[0] == (1, 3)
        assert np.max(np.abs(recovery_block(basis, plan.delta, plan.band)[1] - PMKK4)) < 5e-3

    def test_default_plan_is_valid(self):
        _, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1)))
        assert int(plan.delta.sum()) == 2
        assert abs(np.linalg.det(recovery_block(basis, plan.delta, plan.band)[1])) > 1e-12

    def test_full_band(self):
        _, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1, 2, 3)))
        assert np.array_equal(plan.delta, np.ones(4, dtype=int))
        assert np.max(np.abs(recovery_block(basis, plan.delta, plan.band)[1] - np.eye(4))) < 1e-10

    def test_ring_12_band_4(self):
        basis = dft_basis(12)
        plan = spectral_plan(basis, BandSpec(tuple(range(4))))
        assert abs(np.linalg.det(recovery_block(basis, plan.delta, plan.band)[1])) > 0


class TestSamplingOperator:
    def test_all_ones_identity(self):
        _, basis = example4()
        assert np.max(np.abs(sampling_operator(basis, np.ones(4)) - np.eye(4))) < 1e-10

    def test_showcase_band_columns(self):
        _, basis = example4()
        pm = sampling_operator(basis, DELTA4)
        want = np.array(
            [
                [0.564, -0.412],
                [-0.817, 0.0],
                [0.296 - 0.106j, 0.41 + 0.205j],
                [0.296 + 0.106j, 0.41 - 0.205j],
            ]
        )
        assert np.max(np.abs(pm[:, :2] - want)) < 5e-3

    def test_ring_even_train_block_form(self):
        basis = dft_basis(4)
        pm = sampling_operator(basis, np.array([1, 0, 1, 0]))
        want = 0.5 * np.kron(np.ones((2, 2)), np.eye(2))
        assert np.max(np.abs(pm - want)) < 1e-12

    @pytest.mark.parametrize("delta", ([np.nan, 0, 1, 0], [2, 0, 1, 0], [1, 0, 1]))
    def test_refuses_anything_but_a_0_1_indicator_of_length_n(self, delta):
        with pytest.raises(SizeMismatchError, match="0/1 vector of length 4"):
            sampling_operator(dft_basis(4), delta)

    @pytest.mark.parametrize("delta, samples, fault", (
        ([1, 0, 1], None, ", got shape (3,)"),
        ([np.nan, 0, 1, 0], None, ", got nan at entry 0"),
        ([1, 0, 2, np.nan], None, ", got 2.0 at entry 2"),
        ([0, 1, 0, 0], [5.0, 6.0], " with 2 ones, got 1"),
    ), ids=("shape", "nan", "first-of-two", "count"))
    def test_names_the_first_fault_of_an_indicator(self, delta, samples, fault):
        # the shape, then each entry, and only then the count of ones
        with pytest.raises(SizeMismatchError) as err:
            if samples is None:
                sampling_operator(dft_basis(4), delta)
            else:
                upsample(samples, delta)
        assert str(err.value) == "delta must be a 0/1 vector of length 4" + fault


class TestSpectralRecover:
    def test_showcase_recovery(self):
        _, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1)), forced_delta=DELTA4)
        x_s = np.array([0.93, -0.577])
        xhat_spl = gft_apply(basis, upsample(x_s, plan.delta)).values
        assert np.max(np.abs(xhat_spl - XHAT_SPL4)) < 5e-3
        xhat_k = np.linalg.solve(recovery_block(basis, plan.delta, plan.band)[1],
                                 xhat_spl[list(recovery_block(basis, plan.delta, plan.band)[0])])
        assert np.max(np.abs(xhat_k - np.array([1.0, 2.0]))) < 5e-3
        rec = spectral_recover(plan, x_s)
        assert np.max(np.abs(rec.values - X4)) < 5e-3

    def test_full_band_identity(self):
        _, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1, 2, 3)))
        rec = spectral_recover(plan, X4)
        assert np.max(np.abs(rec.values - X4)) < 1e-10

    def test_random_roundtrips(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 30:
            n = int(rng.integers(4, 13))
            g, basis = random_basis_graph(rng, n)
            k = int(rng.integers(1, n // 2 + 1))
            band = BandSpec(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
            plan = spectral_plan(basis, band)
            if plan.cond > 1e8:
                continue
            x, _ = lowpass_signal(rng, basis, band)
            rec = spectral_recover(plan, sample(x, plan.delta))
            scale = max(1.0, np.max(np.abs(x.values)))
            assert np.max(np.abs(rec.values - x.values)) <= 1e-8 * scale
            done += 1


class TestSampleUpsample:
    def test_showcase(self):
        x = GraphSignal(X4, Domain.VERTEX)
        x_s = sample(x, DELTA4)
        assert np.array_equal(x_s, np.array([0.93, -0.577], dtype=complex))
        up = upsample(x_s, DELTA4)
        assert np.array_equal(up.values, np.array([0, 0.93, 0, -0.577], dtype=complex))

    def test_all_ones_identity(self):
        x = GraphSignal(X4, Domain.VERTEX)
        ones = np.ones(4, dtype=int)
        assert np.array_equal(sample(x, ones), x.values)
        assert np.array_equal(upsample(x.values, ones).values, x.values)

    def test_upsample_of_sample_is_modulation(self):
        rng = np.random.default_rng(5)
        x = GraphSignal(rng.normal(size=9) + 1j * rng.normal(size=9), Domain.VERTEX)
        delta = (rng.random(9) < 0.5).astype(int)
        lhs = upsample(sample(x, delta), delta).values
        rhs = modulate(GraphSignal(delta.astype(complex), Domain.VERTEX), x).values
        assert np.array_equal(lhs, rhs)

    def test_in_sample_entries_preserved(self):
        rng = np.random.default_rng(6)
        x = GraphSignal(rng.normal(size=7), Domain.VERTEX)
        delta = np.array([1, 0, 1, 1, 0, 0, 1])
        up = upsample(sample(x, delta), delta).values
        assert np.array_equal(up[delta == 1], x.values[delta == 1])

    def test_sample_requires_a_vertex_signal(self):
        with pytest.raises(DomainMismatchError):
            sample(GraphSignal(X4, Domain.SPECTRAL), DELTA4)

    @pytest.mark.parametrize("delta", ([2, 0, -1, 0], [0.5, 1, 0, 1], [1, 0, 1], [[1, 0], [1, 0]]))
    def test_sample_refuses_an_indicator_that_is_not_0_1_of_the_signal_length(self, delta):
        with pytest.raises(SizeMismatchError, match="delta must be a 0/1 vector of length 4"):
            sample(GraphSignal(X4, Domain.VERTEX), delta)

    @pytest.mark.parametrize("delta", ([0, 3, 0, 1.5], [0, 1, 0, 0], [0, 1, 1, 1], [[0, 1], [0, 1]]))
    def test_upsample_refuses_an_indicator_that_is_not_0_1_with_one_1_per_sample(self, delta):
        with pytest.raises(SizeMismatchError, match="delta must be a 0/1 vector"):
            upsample([5.0, 6.0], delta)


def makes_a_plan(basis, band, delta):
    try:
        vertex_plan(basis, band, forced_delta=delta)
    except InfeasibleError:
        return False
    return True


class TestPlanEquivalent:
    def test_showcase_indicator_valid_both_ways(self):
        _, basis = example4()
        out = plan_equivalent(basis, DELTA4, BandSpec((0, 1)))
        assert out == {"vertex_ok": True, "spectral_ok": True}

    def test_degenerate_choice_fails_both_ways(self):
        g = Graph(np.diag([1.0, 2.0, 3.0]))
        basis = basis_explicit(np.eye(3), [1.0, 2.0, 3.0], g)
        out = plan_equivalent(basis, np.array([0, 1, 0]), BandSpec((0,)))
        assert out == {"vertex_ok": False, "spectral_ok": False}

    @pytest.mark.parametrize("delta", [[0, 2, 0, 1], [0, 1, 0], [1, 1, 0, 1], None])
    def test_a_non_indicator_is_refused(self, delta):
        _, basis = example4()
        with pytest.raises(SizeMismatchError):
            plan_equivalent(basis, delta, BandSpec((0, 1)))

    def test_ring6_exhaustive_agreement(self):
        basis = dft_basis(6)
        band = BandSpec((0, 1, 2))
        for subset in itertools.combinations(range(6), 3):
            delta = np.zeros(6, dtype=int)
            delta[list(subset)] = 1
            out = plan_equivalent(basis, delta, band)
            assert out["vertex_ok"] == out["spectral_ok"] == makes_a_plan(basis, band, delta)

    def test_random_graph_exhaustive_agreement(self):
        rng = np.random.default_rng(7)
        g, basis = random_basis_graph(rng, 6)
        # the out-of-band row of this one is [4.7e-16, 7.9e-17, 1.41, 1.41, 1.41, 1.41]:
        # with band 0..4, dropping node 0 or 1 alone leaves a block of rounding noise
        noisy = basis_from_graph(er_digraph(np.random.default_rng(15), 6))
        for basis in (basis, noisy):
            for k in (1, 2, 3, 4, 5):
                band = BandSpec(tuple(range(k)))
                for subset in itertools.combinations(range(6), k):
                    delta = np.zeros(6, dtype=int)
                    delta[list(subset)] = 1
                    out = plan_equivalent(basis, delta, band)
                    ok = makes_a_plan(basis, band, delta)
                    assert out["vertex_ok"] == out["spectral_ok"] == ok
                    if ok:  # the routes differ only in their selection rule
                        sp = spectral_plan(basis, band, forced_delta=delta)
                        assert sp.domain is Domain.SPECTRAL
                        assert_same_fields(
                            dataclasses.replace(sp, domain=Domain.VERTEX),
                            vertex_plan(basis, band, forced_delta=delta),
                        )


def pairs(values):
    return np.stack((values.real, values.imag), axis=-1).tolist()


def assert_same_fields(a, b):
    """Every dataclass field of ``a`` equals ``b``'s, arrays to the byte."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
        else:
            assert x == y, field.name


class TestPlanIO:
    def test_vertex_roundtrip(self, tmp_path):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1)))
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        back = read_plan(path)
        assert back.domain is Domain.VERTEX
        assert np.array_equal(back.delta, plan.delta)
        assert back.free_idx == plan.free_idx
        assert back.cond == plan.cond
        assert np.array_equal(back.S, plan.S)
        assert_same_fields(back, plan)
        rec = vertex_recover(back, np.array([0.93, -0.577]))
        assert np.max(np.abs(rec.values - X4)) < 5e-3

    def test_spectral_roundtrip_with_graph_validation(self, tmp_path):
        g, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1)), forced_delta=DELTA4)
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        assert sorted(json.loads(path.read_text())) == [
            "S", "band", "cond", "delta", "domain", "version"
        ]
        back = read_plan(path, g)
        assert back.cond == plan.cond
        assert np.array_equal(back.S, plan.S)
        assert_same_fields(back, plan)
        rec = spectral_recover(back, np.array([0.93, -0.577]))
        assert np.max(np.abs(rec.values - X4)) < 5e-3

    def test_reads_a_spectral_plan_without_version(self, tmp_path):
        # the layout spectral plan files had before version 2
        g, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1)), forced_delta=DELTA4)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "domain": "spectral",
            "delta": DELTA4.tolist(),
            "band": [0, 1],
            "pmkk": pairs(recovery_block(basis, plan.delta, plan.band)[1]),
            "selected_rows": list(recovery_block(basis, plan.delta, plan.band)[0]),
            "gft": pairs(basis.gft),
            "lambda": pairs(basis.lam),
        }))
        for back in (read_plan(path), read_plan(path, g)):
            assert back.domain is Domain.SPECTRAL
            assert math.isnan(back.cond)
            assert np.max(np.abs(back.S - plan.S)) < 1e-12
            rec = spectral_recover(back, np.array([0.93, -0.577]))
            assert np.max(np.abs(rec.values - X4)) < 5e-3
        # its unknown cond is written back as null, not as the non-JSON NaN
        again = tmp_path / "again.json"
        write_plan(back, again)
        assert json.loads(again.read_text())["cond"] is None
        reread = read_plan(again, g)
        assert np.array_equal(reread.delta, back.delta) and reread.band == back.band
        assert reread.S.tobytes() == back.S.tobytes()
        assert math.isnan(reread.cond)

    def test_version_2_3_and_4_files_read_the_same_plan(self, tmp_path):
        basis = basis_from_graph(er_digraph(np.random.default_rng(1), 60))
        plan = vertex_plan(basis, BandSpec(tuple(range(30))))
        assert plan.S.dtype == np.float64  # a real graph, a band of whole conjugate pairs
        v4, v3, v2 = tmp_path / "v4.json", tmp_path / "v3.json", tmp_path / "v2.json"
        write_plan(plan, v4)
        doc = json.loads(v4.read_text())
        assert doc["version"] == 4
        # base64 of 8 bytes per real value, (N - K) * K of them
        assert len(doc["S"]) == 4 * math.ceil(8 * 30 * 30 / 3)
        packed = base64.b64encode(plan.S.astype("<c16").tobytes()).decode()
        v3.write_text(json.dumps({**doc, "version": 3, "S": packed}))
        v2.write_text(json.dumps({**doc, "version": 2, "S": pairs(plan.S)}))
        a, b, c = read_plan(v4), read_plan(v3), read_plan(v2)
        assert_same_fields(a, plan)
        assert b.S.tobytes() == c.S.tobytes() == plan.S.astype(np.complex128).tobytes()
        assert np.array_equal(a.delta, b.delta) and np.array_equal(b.delta, c.delta)
        assert a.cond == b.cond == c.cond == plan.cond

    def test_full_band_plan_has_an_empty_map(self, tmp_path):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1, 2, 3)))
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        assert json.loads(path.read_text())["S"] == ""
        back = read_plan(path)
        assert back.S.shape == (0, 4)
        assert np.array_equal(vertex_recover(back, X4).values, X4)

    def test_malformed_plan(self, tmp_path):
        from gsptk import ParseError

        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_plan(path)


def _rotated(basis):
    """``basis`` with every eigenvector times i: the same band spans, so the same
    exact plans, but no band's columns are closed under conjugation."""
    return dataclasses.replace(basis, igft=basis.igft * 1j)


class TestRealPlans:
    @pytest.mark.parametrize("route", [vertex_plan, spectral_plan])
    @pytest.mark.parametrize("n", [60, 400])
    def test_a_conjugate_closed_band_of_a_real_graph_has_a_real_map(self, n, route):
        basis = basis_from_graph(er_digraph(np.random.default_rng(1), n))
        band = BandSpec(tuple(range(n // 2)))  # splits no conjugate pair on this graph
        plan, cplx = route(basis, band), route(_rotated(basis), band)
        assert (plan.S.dtype, cplx.S.dtype) == (np.float64, np.complex128)
        assert plan.delta.tobytes() == cplx.delta.tobytes() and plan.cond == cplx.cond
        kept = plan.delta != 0
        g_out = basis.gft[list(band.complement(n))]
        exact = -solve(g_out[:, ~kept], g_out[:, kept])
        assert plan.S.tobytes() == exact.real.tobytes() and cplx.S.tobytes() == exact.tobytes()
        # for a real signal, the real map's error is the real part of the complex
        # map's, up to the rounding of the two products
        x = lowpass_signal(np.random.default_rng(2), basis, band)[0].values.real
        x_s = sample(GraphSignal(x, Domain.VERTEX), plan.delta)
        err_real = np.abs(vertex_recover(plan, x_s).values - x)
        err_cplx = np.abs(vertex_recover(cplx, x_s).values - x)
        rounding = np.zeros(n)
        rounding[~kept] = 2 * band.k * np.finfo(float).eps * (np.abs(cplx.S) @ np.abs(x_s))
        assert np.all(err_real <= err_cplx + rounding)

    def test_a_band_that_splits_a_pair_keeps_a_complex_map(self, tmp_path):
        # example4's band (0, 1) holds one of its two complex frequencies
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1)))
        assert plan.S.dtype == np.complex128
        write_plan(plan, tmp_path / "plan.json")
        doc = json.loads((tmp_path / "plan.json").read_text())
        assert doc["S"] == base64.b64encode(plan.S.astype("<c16").tobytes()).decode()
        assert_same_fields(read_plan(tmp_path / "plan.json"), plan)

    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(seed=st.integers(0, 2**16), n=st.integers(3, 9), k=st.integers(1, 9),
           real=st.booleans(), route=st.sampled_from([vertex_plan, spectral_plan]))
    def test_plan_files_round_trip_bit_for_bit(self, tmp_path_factory, seed, n, k, real, route):
        rng = np.random.default_rng(seed)
        g, basis = random_basis_graph(rng, n)
        if not real:  # the same eigenvectors, but a complex shift goes to the complex solver
            basis = basis_from_graph(Graph(g.adjacency * np.exp(2j * np.pi * rng.random())), tol=1e-6)
        k = min(k, n)
        if real and k < n and basis.lam[k] == np.conj(basis.lam[k - 1]) != basis.lam[k - 1]:
            k += 1  # keep the conjugate pair k - 1, k together
        try:
            plan = route(basis, BandSpec(tuple(range(k))))
        except InfeasibleError:
            return
        assert (plan.S.dtype == np.float64) == real
        path = tmp_path_factory.mktemp("plan") / "plan.json"
        write_plan(plan, path)
        if plan.S.size == 0:  # an empty map has no layout to tell apart; it reads as complex
            plan = dataclasses.replace(plan, S=plan.S.astype(np.complex128))
        assert_same_fields(read_plan(path), plan)


@pytest.mark.parametrize("route, recover", [(vertex_plan, vertex_recover), (spectral_plan, spectral_recover)])
def test_a_real_map_applies_to_complex_samples_as_one_real_product(route, recover):
    # the real and imaginary parts of the samples go through one real product;
    # it may differ from the complex product with the same map only by rounding
    basis = basis_from_graph(er_digraph(np.random.default_rng(1), 60))
    band = BandSpec(tuple(range(30)))
    plan = route(basis, band)
    assert plan.S.dtype == np.float64
    x = lowpass_signal(np.random.default_rng(3), basis, band)[0].values
    x_s = sample(GraphSignal(x, Domain.VERTEX), plan.delta)
    got = recover(plan, x_s).values
    kept = plan.delta != 0
    want = plan.S.astype(np.complex128) @ x_s
    assert got[kept].tobytes() == x_s.tobytes()
    assert np.all(np.abs(got[~kept] - want) <= band.k * np.finfo(float).eps * (np.abs(plan.S) @ np.abs(x_s)))


class TestInfeasible:
    @pytest.mark.parametrize("plan_fn", [vertex_plan, spectral_plan])
    def test_dependent_forced_delta(self, plan_fn):
        # node 1 carries none of frequency 0, so sampling only it cannot recover the band
        g = Graph(np.diag([1.0, 2.0, 3.0]))
        basis = basis_explicit(np.eye(3), [1.0, 2.0, 3.0], g)
        with pytest.raises(InfeasibleError):
            plan_fn(basis, BandSpec((0,)), forced_delta=np.array([0, 1, 0]))

    def test_even_sampling_aliases_the_cycle(self):
        # the even train on the 4-cycle folds frequency 2 onto frequency 0
        with pytest.raises(InfeasibleError, match=r"rank deficient \(1 < 2\)"):
            recovery_block(dft_basis(4), [1, 0, 1, 0], BandSpec((0, 2)))


class TestDomainAgreement:
    def test_recoveries_agree_when_deltas_coincide(self):
        rng = np.random.default_rng(8)
        matched = 0
        while matched < 10:
            n = int(rng.integers(4, 11))
            g, basis = random_basis_graph(rng, n)
            k = int(rng.integers(1, n // 2 + 1))
            band = BandSpec(tuple(range(k)))
            vp = vertex_plan(basis, band)
            sp = spectral_plan(basis, band, forced_delta=vp.delta)
            if max(vp.cond, sp.cond) > 1e8:
                continue
            x, _ = lowpass_signal(rng, basis, band)
            x_s = sample(x, vp.delta)
            rv = vertex_recover(vp, x_s).values
            rs = spectral_recover(sp, x_s).values
            scale = max(1.0, np.max(np.abs(rv)))
            assert np.max(np.abs(rv - rs)) <= 1e-8 * scale
            matched += 1
