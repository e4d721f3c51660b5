import base64
import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gsptk import (
    BandSpec,
    DimensionMismatchError,
    Domain,
    DomainMismatchError,
    Graph,
    GraphKind,
    GraphSignal,
    GsptkError,
    InfeasibleError,
    NonFiniteError,
    NotBandlimitedError,
    ParseError,
    SizeMismatchError,
    SpectralBasis,
    band_project,
    basis_explicit,
    basis_from_graph,
    build,
    bundled_basis,
    dft_basis,
    gft_apply,
    modulate,
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
from gsptk import numkit
from gsptk.numkit import solve

from util import circulant, er_digraph, forced_verdicts, node_0_sends_nothing, random_basis_graph, small_pivot_basis

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
            band_project(sig, BandSpec((0, 1)))
        assert err.value.worst == 0.5


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


class TestPlanEquivalent:
    def test_showcase_indicator_valid_both_ways(self):
        _, basis = example4()
        assert forced_verdicts(basis, BandSpec((0, 1)), DELTA4) == (True, True)

    def test_degenerate_choice_fails_both_ways(self):
        g = Graph(np.diag([1.0, 2.0, 3.0]))
        basis = basis_explicit(np.eye(3), [1.0, 2.0, 3.0], g)
        assert forced_verdicts(basis, BandSpec((0,)), np.array([0, 1, 0])) == (False, False)

    @pytest.mark.parametrize("delta", [[0, 2, 0, 1], [0, 1, 0], [1, 1, 0, 1], None])
    def test_a_non_indicator_is_refused(self, delta):
        _, basis = example4()
        with pytest.raises(SizeMismatchError):
            forced_verdicts(basis, BandSpec((0, 1)), delta)

    def test_ring6_exhaustive_agreement(self):
        basis = dft_basis(6)
        band = BandSpec((0, 1, 2))
        for subset in itertools.combinations(range(6), 3):
            delta = np.zeros(6, dtype=int)
            delta[list(subset)] = 1
            vertex_ok, spectral_ok = forced_verdicts(basis, band, delta)
            assert vertex_ok == spectral_ok

    def test_a_block_is_judged_by_its_singular_values_alone(self):
        # the LU of this block meets a first pivot of 0.9e-10 below the cut
        # 1e-10; its smallest singular value, 1.56e-10, is above it
        _, basis = small_pivot_basis()
        band, delta = BandSpec((0, 1, 2)), np.array([0, 1, 1, 1])
        vb = basis.igft[:, :3]
        block = vb[1:]
        cut = numkit._zero_cut(vb)
        assert np.abs(block[:, 0]).max() <= cut < np.linalg.svd(block, compute_uv=False)[-1]
        for route in (vertex_plan, spectral_plan):
            plan = route(basis, band, forced_delta=delta)
            assert plan.cond == pytest.approx(1.111e10, rel=1e-3)
            assert plan.cond == np.linalg.cond(block)
        assert forced_verdicts(basis, band, delta) == (True, True)

    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(seed=st.integers(0, 2**16), n=st.integers(3, 9), k=st.integers(1, 8),
           picks=st.integers(0, 2**32 - 1))
    def test_the_two_verdicts_agree_away_from_their_cuts(self, seed, n, k, picks):
        # the one verdict is the smallest singular value of the kept rows of
        # the band columns against their cut; the paper's vertex rule judges
        # the complementary minor, the dropped columns of the out-of-band GFT
        # rows, which vanishes with it, so within 10x of a cut the two may differ
        _, basis = random_basis_graph(np.random.default_rng(seed), n)
        band = BandSpec(tuple(range(min(k, n - 1))))
        delta = np.zeros(n, dtype=int)
        delta[np.random.default_rng(picks).permutation(n)[:band.k]] = 1
        g_out, cols = basis.gft[band.k:], basis.igft[:, :band.k]
        margins = [np.linalg.svd(block, compute_uv=False)[-1] / numkit._zero_cut(whole)
                   for block, whole in ((g_out[:, delta == 0], g_out), (cols[delta != 0], cols))]
        assert forced_verdicts(basis, band, delta) == (margins[1] > 1, margins[1] > 1)
        assume(all(not 0.1 <= m <= 10 for m in margins))
        assert (margins[0] > 1) == (margins[1] > 1)

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
                    ok, spectral_ok = forced_verdicts(basis, band, delta)
                    assert ok == spectral_ok
                    if ok:  # the routes differ only in their selection rule
                        sp = spectral_plan(basis, band, forced_delta=delta)
                        assert sp.domain is Domain.SPECTRAL
                        assert_same_fields(
                            dataclasses.replace(sp, domain=Domain.VERTEX),
                            vertex_plan(basis, band, forced_delta=delta),
                        )


def paper_rules(basis, band):
    """The nodes each route keeps by the paper's rules, run by the elimination
    loop: the free columns of the out-of-band GFT rows (vertex), and the
    pivot columns of the band columns of the inverse GFT, transposed
    (spectral)."""
    out, inside = list(band.complement(basis.n)), list(band.support)
    return (numkit._eliminate(numkit.as_cmatrix(basis.gft[out])).free_cols,
            numkit._eliminate(numkit.as_cmatrix(basis.igft[:, inside].T)).pivot_cols)


def assert_paper_rules(basis, band):
    kept = tuple(route(basis, band).free_idx for route in (vertex_plan, spectral_plan))
    assert kept == paper_rules(basis, band)


class TestSelectionRules:
    """Both routes select on the band columns ``vb`` of the inverse GFT; the
    vertex route's greedy runs from the last row, which by matroid duality
    keeps the free columns of the out-of-band GFT rows."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(seed=st.integers(0, 2**16), n=st.integers(3, 12), k=st.integers(1, 12))
    def test_each_route_keeps_the_nodes_of_the_paper_s_rule(self, seed, n, k):
        rng = np.random.default_rng(seed)
        _, basis = random_basis_graph(rng, n)
        band = BandSpec(tuple(sorted(rng.choice(n, size=min(k, n), replace=False).tolist())))
        assert_paper_rules(basis, band)

    @pytest.mark.parametrize("graph, k", [
        (node_0_sends_nothing(64), 32),
        (node_0_sends_nothing(400), 200),
        (er_digraph(np.random.default_rng([1, 1]), 400), 201),  # the benchmark's graph and band
    ], ids=["er64-node-0-sends-nothing", "er400-node-0-sends-nothing", "bench400"])
    def test_on_the_graphs_where_the_loop_runs_and_the_bench_graph(self, graph, k):
        # node 0 sending nothing puts e_0 in the band's span, so the vertex
        # route's last K rows of vb are dependent and its greedy eliminates
        basis, band = basis_from_graph(graph), BandSpec(tuple(range(k)))
        with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
            vertex_plan(basis, band)
        assert loop.called == (graph.adjacency[:, 0] == 0).all()
        assert_paper_rules(basis, band)

    def test_on_example4_and_every_band_of_the_6_cycle(self):
        assert_paper_rules(example4()[1], BandSpec((0, 1)))
        basis = dft_basis(6)
        for k in range(1, 7):
            for band in itertools.combinations(range(6), k):
                assert_paper_rules(basis, BandSpec(band))

    @pytest.mark.parametrize("route", [vertex_plan, spectral_plan])
    def test_a_plan_takes_one_svd_where_the_proof_holds(self, route):
        # the proof's leading block is the block the plan judges and solves
        basis = basis_from_graph(er_digraph(np.random.default_rng(1), 60))
        band = BandSpec(tuple(range(30)))
        svd = np.linalg.svd
        with mock.patch.object(np.linalg, "svd", side_effect=svd) as taken, \
                mock.patch.object(numkit, "_eliminate", side_effect=AssertionError("loop ran")):
            plan = route(basis, band)
        assert taken.call_count == 1
        block = basis.igft[:, :30][plan.delta != 0]
        assert plan.cond == pytest.approx(np.linalg.cond(block), rel=1e-10)


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

    def test_refuses_a_spectral_plan_without_version(self, tmp_path):
        # the layout spectral plan files had before version 2; its stored delta makes the plan anew
        g, basis = example4()
        plan = spectral_plan(basis, BandSpec((0, 1)), forced_delta=DELTA4)
        doc = {
            "domain": "spectral",
            "delta": DELTA4.tolist(),
            "band": [0, 1],
            "pmkk": pairs(recovery_block(basis, plan.delta, plan.band)[1]),
            "selected_rows": list(recovery_block(basis, plan.delta, plan.band)[0]),
            "gft": pairs(basis.gft),
            "lambda": pairs(basis.lam),
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        for graph in (None, g):
            with pytest.raises(ParseError, match=r"plan\.json: unsupported plan version 1; .* sample --delta"):
                read_plan(path, graph)
        assert_same_fields(spectral_plan(basis, BandSpec(tuple(doc["band"])), forced_delta=doc["delta"]), plan)

    def test_a_spectral_plan_without_version_is_refused_by_its_version_not_its_fields(self, tmp_path):
        # the version-1 writer always stored lambda; without it the version is still what is refused
        _, basis = example4()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"domain": "spectral", "delta": DELTA4.tolist(), "band": [0, 1],
                                    "gft": pairs(basis.gft)}))
        with pytest.raises(ParseError, match="unsupported plan version 1") as err:
            read_plan(path)
        assert "lambda" not in str(err.value)

    def test_only_version_4_files_read(self, tmp_path):
        basis = basis_from_graph(er_digraph(np.random.default_rng(1), 60))
        plan = vertex_plan(basis, BandSpec(tuple(range(30))))
        assert plan.S.dtype == np.float64  # a real graph, a band of whole conjugate pairs
        v4, v3, v2 = tmp_path / "v4.json", tmp_path / "v3.json", tmp_path / "v2.json"
        write_plan(plan, v4)
        doc = json.loads(v4.read_text())
        assert doc["version"] == 4
        # base64 of 8 bytes per real value, (N - K) * K of them
        assert len(doc["S"]) == 4 * math.ceil(8 * 30 * 30 / 3)
        assert_same_fields(read_plan(v4), plan)
        # version 3 stored S as complex128 bytes only, version 2 as [re, im] pairs
        packed = base64.b64encode(plan.S.astype("<c16").tobytes()).decode()
        v3.write_text(json.dumps({**doc, "version": 3, "S": packed}))
        v2.write_text(json.dumps({**doc, "version": 2, "S": pairs(plan.S)}))
        for version, path in ((3, v3), (2, v2)):
            with pytest.raises(ParseError, match=f"unsupported plan version {version};"):
                read_plan(path)

    def test_a_null_cond_is_refused(self, tmp_path):
        # the null a version-1 plan's unknown cond was written back as
        _, basis = example4()
        path = tmp_path / "plan.json"
        write_plan(vertex_plan(basis, BandSpec((0, 1))), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "cond": None}))
        with pytest.raises(ParseError, match="cond must be a finite number, got None"):
            read_plan(path)

    @pytest.mark.parametrize("cond", [math.nan, math.inf])
    def test_a_non_finite_cond_is_not_written(self, tmp_path, cond):
        # json.dumps would write the non-JSON token NaN or Infinity, which read_plan refuses
        _, basis = example4()
        plan = dataclasses.replace(vertex_plan(basis, BandSpec((0, 1))), cond=cond)
        path = tmp_path / "plan.json"
        with pytest.raises(NonFiniteError, match="cond"):
            write_plan(plan, path)
        assert not path.exists()

    def test_full_band_plan_has_an_empty_map(self, tmp_path):
        _, basis = example4()
        plan = vertex_plan(basis, BandSpec((0, 1, 2, 3)))
        path = tmp_path / "plan.json"
        write_plan(plan, path)
        assert json.loads(path.read_text())["S"] == ""
        back = read_plan(path)
        assert back.S.shape == (0, 4)
        assert np.array_equal(vertex_recover(back, X4).values, X4)

    @pytest.mark.parametrize("route", [vertex_plan, spectral_plan])
    def test_old_layouts_of_a_full_band_are_refused(self, tmp_path, route):
        # versions 1 (vertex plans) and 2 stored S as [re, im] pairs, a full band's as []
        _, basis = example4()
        plan = route(basis, BandSpec((0, 1, 2, 3)))
        doc = {"domain": plan.domain.value, "delta": plan.delta.tolist(), "band": [0, 1, 2, 3], "S": []}
        for version, layout in ((1, doc), (2, {**doc, "version": 2, "cond": plan.cond})):
            path = tmp_path / f"v{version}.json"
            path.write_text(json.dumps(layout))
            with pytest.raises(ParseError, match=f"unsupported plan version {version};"):
                read_plan(path)

    def test_malformed_plan(self, tmp_path):
        from gsptk import ParseError

        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_plan(path)


def _byte_closed(cols):
    """The reference verdict on whether ``S`` is real: conjugation maps the set of columns of ``cols``
    onto itself, bit for bit, by sorting their bytes; + 0.0 makes -0.0 into 0.0, so that a signed zero
    matches its opposite."""

    def keys(m):
        return sorted(col.tobytes() for col in (m + 0.0).T)

    return keys(cols) == keys(cols.conj())


def _family(kind, rng, n):
    """A random graph of one family: an ER digraph with real or complex weights, a real circulant, or
    an undirected graph (a real symmetric shift)."""
    if kind == "circulant":
        return Graph(circulant(rng.normal(size=n) * (rng.random(n) < 0.7)))
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
    if kind == "complex":
        a = a + 1j * rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
    return Graph(a + a.T if kind == "symmetric" else a)


class TestConjugatePairs:
    """``numkit._conjugate_pairs`` of a band's frequencies and columns decides whether a plan's ``S`` is
    real. It agrees with the byte sort of the columns on computed and bundled bases, except where the
    columns close and the frequencies do not, as on a complex diagonal shift with its real eigenvectors:
    the exact map is real there too, but ``S`` stays complex, with imaginary parts 0."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 12),
           kind=st.sampled_from(["real", "complex", "circulant", "symmetric"]),
           whole_pairs=st.booleans(), rotated=st.booleans())
    def test_agrees_with_the_byte_sort_on_computed_bases(self, seed, n, kind, whole_pairs, rotated):
        rng = np.random.default_rng(seed)
        try:
            basis = basis_from_graph(_family(kind, rng, n))
        except GsptkError:
            assume(False)
        lam = basis.lam
        band = rng.random(n) < rng.random()
        band[rng.integers(n)] = True
        if whole_pairs:  # add the partner of each complex frequency
            band |= np.isin(lam, lam[band & (lam.imag != 0)].conj())
        cols = basis.igft[:, band] * (1j if rotated else 1)
        paired = numkit._conjugate_pairs(lam[band], cols) is not None
        assert paired == (_byte_closed(cols) and _byte_closed(lam[None, band]))

    # example4's igft, the complex LU inverse of its stored gft, has no column that is real or the
    # conjugate of another bit for bit; star5's is real
    @pytest.mark.parametrize("name, kind, n, want", [("example4", GraphKind.EXAMPLE4, 4, {False}),
                                                     ("star5", GraphKind.STAR, 5, {True, False})])
    def test_agrees_with_the_byte_sort_on_every_band_of_a_bundled_basis(self, name, kind, n, want):
        basis = bundled_basis(name, build(kind, n))
        verdicts = set()
        for band in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(1, n + 1)):
            for cols in (basis.igft[:, band], 1j * basis.igft[:, band]):
                paired = numkit._conjugate_pairs(basis.lam[list(band)], cols) is not None
                assert paired == _byte_closed(cols)
                verdicts.add(paired)
        assert verdicts == want


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
        assert plan.delta.tobytes() == cplx.delta.tobytes()
        # the rotated block is the same block times i: its singular values
        # agree up to the SVD's backward error, K eps sigma_max each
        eps = np.finfo(float).eps
        assert cplx.cond == pytest.approx(plan.cond, rel=2 * band.k * eps * plan.cond)
        kept = plan.delta != 0

        def the_map(vb):  # S = vb[dropped] @ vb[kept]^-1, as the plan solves it
            return solve(vb[kept].T, vb[~kept].T).T

        exact = the_map(basis.igft[:, :band.k])
        assert plan.S.tobytes() == exact.real.tobytes()
        assert cplx.S.tobytes() == the_map(_rotated(basis).igft[:, :band.k]).tobytes()
        # for a real signal, the real map's error is the real part of the complex
        # map's, up to the rounding of the two products
        x = lowpass_signal(np.random.default_rng(2), basis, band)[0].values.real
        x_s = sample(GraphSignal(x, Domain.VERTEX), plan.delta)
        err_real = np.abs(vertex_recover(plan, x_s).values - x)
        err_cplx = np.abs(vertex_recover(dataclasses.replace(plan, S=exact), x_s).values - x)
        rounding = np.zeros(n)
        rounding[~kept] = 2 * band.k * eps * (np.abs(exact) @ np.abs(x_s))
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


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 12), k=st.integers(1, 12),
       route=st.sampled_from([(vertex_plan, vertex_recover), (spectral_plan, spectral_recover)]))
def test_recovery_is_bandlimited_and_matches_the_truth(seed, n, k, route):
    # both within c N eps cond(igft) cond(block), c = 10 (measured c <= 0.74
    # over 600 plans of the same kind)
    make, recover = route
    rng = np.random.default_rng(seed)
    _, basis = random_basis_graph(rng, n)
    band = BandSpec(tuple(range(min(k, n))))
    try:
        plan = make(basis, band)
    except InfeasibleError:
        assume(False)
    x = lowpass_signal(rng, basis, band)[0].values
    got = recover(plan, sample(GraphSignal(x, Domain.VERTEX), plan.delta)).values
    tol = 10 * n * np.finfo(float).eps * np.linalg.cond(basis.igft) * plan.cond
    xhat = basis.gft @ got
    assert np.max(np.abs(xhat[band.k:]), initial=0.0) <= tol * np.max(np.abs(xhat))
    assert np.max(np.abs(got - x)) <= tol * np.max(np.abs(x))


class TestInfeasible:
    @pytest.mark.parametrize("plan_fn", [vertex_plan, spectral_plan])
    def test_dependent_forced_delta(self, plan_fn):
        # node 1 carries none of frequency 0, so sampling only it cannot recover the band
        g = Graph(np.diag([1.0, 2.0, 3.0]))
        basis = basis_explicit(np.eye(3), [1.0, 2.0, 3.0], g)
        with pytest.raises(InfeasibleError):
            plan_fn(basis, BandSpec((0,)), forced_delta=np.array([0, 1, 0]))

    @pytest.mark.parametrize("plan_fn", [vertex_plan, spectral_plan])
    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_a_subnormal_band_block_has_a_finite_map(self, plan_fn, tiny):
        # the block [tiny] passes the cut, relative to max|vb| = tiny, but the reciprocal of its pivot
        # overflows unless the solve runs on the block scaled by a power of two
        basis = SpectralBasis(np.eye(2), np.array([[0.0, 1.0], [tiny, 0.0]]), np.array([1.0, 2.0]))
        plan = plan_fn(basis, BandSpec((0,)))
        assert plan.delta.tolist() == [0, 1] and plan.S.tolist() == [[0.0]]

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
