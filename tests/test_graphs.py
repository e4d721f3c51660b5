import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsptk import (
    BadSizeError,
    BandSpec,
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    ParseError,
    build,
    bundled_basis,
    save_basis,
    vertex_plan,
    read_graph,
    read_signal,
    write_graph,
    write_plan,
    write_signal,
)
from gsptk.graphs import _from_packed, _from_pairs, _packed, _pairs


class TestBuild:
    def test_ring_is_cyclic_permutation(self):
        a = build(GraphKind.RING, 4).adjacency
        want = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert np.array_equal(a.real, want)
        assert np.array_equal(a.imag, np.zeros((4, 4)))

    def test_ring_nth_power_is_identity(self):
        for n in (2, 5, 8):
            a = build(GraphKind.RING, n).adjacency
            assert np.allclose(np.linalg.matrix_power(a, n), np.eye(n))
            # permutation matrix: single one per row and column
            assert np.array_equal(np.sum(a != 0, axis=0), np.ones(n))
            assert np.array_equal(np.sum(a != 0, axis=1), np.ones(n))

    def test_star_hub_pattern(self):
        a = build(GraphKind.STAR, 5).adjacency
        assert np.array_equal(a, a.T)
        assert np.count_nonzero(a) == 2 * 4
        assert np.all(a[0, 1:] == 1) and np.all(a[1:, 0] == 1)
        assert np.count_nonzero(a[1:, 1:]) == 0

    def test_path_chain(self):
        a = build(GraphKind.PATH, 4).adjacency
        want = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
        assert np.array_equal(a.real, want)

    def test_example4_exact(self):
        a = build(GraphKind.EXAMPLE4, 4).adjacency
        want = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
        assert np.array_equal(a.real, want)

    def test_bad_sizes(self):
        with pytest.raises(BadSizeError):
            build(GraphKind.RING, 1)
        with pytest.raises(BadSizeError):
            build(GraphKind.EXAMPLE4, 5)

    def test_shift_moves_samples_along_edges(self):
        # entry (i, j) weights edge j -> i, so A @ x aggregates in-neighbors
        a = build(GraphKind.RING, 4).adjacency
        x = np.array([10.0, 20.0, 30.0, 40.0])
        assert np.array_equal((a @ x).real, [40.0, 10.0, 20.0, 30.0])


class TestGraphIO:
    def test_json_roundtrip_bit_for_bit(self, tmp_path):
        g = build(GraphKind.RING, 8)
        p1 = tmp_path / "g.json"
        p2 = tmp_path / "g2.json"
        write_graph(g, p1)
        g2 = read_graph(p1)
        write_graph(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(g.adjacency, g2.adjacency)

    def test_json_edges_in_src_dst_order(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 9)) * (rng.random((9, 9)) < 0.5)
        path = tmp_path / "g.json"
        write_graph(Graph(a), path)
        edges = json.loads(path.read_text())["edges"]
        assert [e[:2] for e in edges] == sorted([s, d] for d, s in zip(*np.nonzero(a)))
        assert [e[2] for e in edges] == [a[d, s] for s, d, *_ in edges]

    def test_csv_roundtrip_complex_weights(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a[0, 0] = 0.25  # exercise the pure-real formatting path
        g = Graph(a)
        path = tmp_path / "g.csv"
        write_graph(g, path)
        g2 = read_graph(path)
        assert np.array_equal(g.adjacency, g2.adjacency)

    def test_csv_matches_builder(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,1,0,1\n1,0,1,0\n0,0,0,1\n1,1,0,0\n")
        g = read_graph(path)
        assert np.array_equal(g.adjacency, build(GraphKind.EXAMPLE4, 4).adjacency)

    def test_out_of_range_edge(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": [[0, 5, 1.0, 0.0]]}')
        with pytest.raises(ParseError):
            read_graph(path)

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(ParseError) as err:
            read_graph(path)
        assert "line 2" in str(err.value)

    def test_bad_token_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        for token in ("xyz", "nan", "inf", "1-infj"):
            path.write_text(f"0,{token}\n1,0\n")
            with pytest.raises(ParseError) as err:
                read_graph(path)
            assert "line 1, field 2" in str(err.value)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            read_graph(path)

    @pytest.mark.parametrize("name", ["none.csv", "none.json"])
    def test_missing_file_is_file_not_found(self, tmp_path, name):
        with pytest.raises(FileNotFoundError):
            read_graph(tmp_path / name)

    def test_too_large_to_allocate(self, tmp_path):
        # numpy refuses this size without allocating; never test with an n
        # whose adjacency could actually be allocated
        path = tmp_path / "big.json"
        path.write_text('{"n": 1000000000000, "edges": []}')
        with pytest.raises(ParseError, match="'n' = 1000000000000"):
            read_graph(path)


class TestSignalIO:
    def test_roundtrip_showcase_signal(self, tmp_path):
        sig = GraphSignal(np.array([-1.992, 0.93, -0.314, -0.577]), Domain.VERTEX)
        path = tmp_path / "x.json"
        write_signal(sig, path)
        back = read_signal(path)
        assert back.domain is Domain.VERTEX
        assert np.array_equal(back.values, sig.values)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError):
            read_signal(path)

    def test_spectral_tagged_values(self, tmp_path):
        path = tmp_path / "xhat.json"
        path.write_text('{"domain": "spectral", "values": [[1,0],[2,0],[0,0],[0,0]]}')
        sig = read_signal(path)
        assert sig.domain is Domain.SPECTRAL
        assert np.array_equal(sig.values, np.array([1, 2, 0, 0], dtype=complex))

    def test_bad_domain(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"domain": "time", "values": [[1,0]]}')
        with pytest.raises(ParseError):
            read_signal(path)

    def test_full_precision_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        sig = GraphSignal(rng.normal(size=9) + 1j * rng.normal(size=9), Domain.SPECTRAL)
        path = tmp_path / "x.json"
        write_signal(sig, path)
        assert np.array_equal(read_signal(path).values, sig.values)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    values=st.lists(st.builds(complex, _FINITE, _FINITE), min_size=1, max_size=8),
    domain=st.sampled_from(Domain),
)
@example(values=[complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)], domain=Domain.SPECTRAL)
def test_signal_and_filter_files_round_trip_bit_for_bit(tmp_path_factory, values, domain):
    # a signal in either domain comes back with its domain and every bit of
    # its values; a filter file is a signal file holding the response
    path = tmp_path_factory.mktemp("roundtrip")
    write_signal(GraphSignal(np.array(values), domain), path / "x.json")
    sig = read_signal(path / "x.json")
    assert sig.domain is domain and np.array_equal(_bits(sig.values), _bits(values))


def test_pair_codec_matches_a_per_value_loop():
    # the encoding every file uses, against the per-value loop it replaced,
    # byte for byte and with signed zeros in both parts
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, -0.0), complex(2.0, -0.0), complex(-0.0, 1.5)
    loop = [[[complex(z).real, complex(z).imag] for z in row] for row in m]
    assert json.dumps(_pairs(m)) == json.dumps(loop)
    assert json.dumps(_pairs(m[0])) == json.dumps(loop[0])
    back = _from_pairs(json.loads(json.dumps(loop)), (5, None), "m")
    assert back.tobytes() == m.tobytes()


def test_packed_codec_is_bit_exact():
    # signed zeros and subnormals in both parts, and an empty (0 x K) array
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, -0.0), complex(5e-324, -2.5e-310), complex(-0.0, 1.5)
    both = (np.complex128, np.float64)
    for a in (m, m.real.copy(), np.zeros((0, 3), dtype=np.complex128)):
        back = _from_packed(_packed(a), a.shape, "m", both)
        assert back.shape == a.shape and back.dtype == a.dtype
        assert back.tobytes() == a.tobytes()
        assert back.flags.writeable
    assert len(_packed(m.real)) == len(_packed(m)) // 2  # 8 bytes a value, not 16
    assert _from_packed(_packed(np.zeros((0, 3))), (0, 3), "m", both).dtype == np.complex128
    assert _packed(m.T) == _packed(np.ascontiguousarray(m.T))  # row-major


_C6 = np.zeros(6, dtype=np.complex128)
_COMPLEX, _EITHER = (np.complex128,), (np.complex128, np.float64)


@pytest.mark.parametrize(
    "text, dtypes",
    [([[1.0, 0.0]], _COMPLEX), (None, _COMPLEX), ("****" + _packed(_C6), _COMPLEX),
     (_packed(_C6[:5]), _COMPLEX), (_packed(np.ones(7, dtype=complex)), _COMPLEX),
     (_packed([np.nan, 0, 0, 0, 0, 0j]), _COMPLEX), (_packed(np.zeros(6)), _COMPLEX),
     (_packed(np.zeros(9)), _EITHER), (_packed([0, 0, np.nan, 0, 0, 0]), _EITHER)],
    ids=["a list", "None", "non-base64", "one value short", "one value long", "NaN",
         "float64 where only complex128 is read", "neither 8 nor 16 bytes a value", "float64 NaN"],
)
def test_packed_decoder_names_the_field(text, dtypes):
    with pytest.raises(ParseError, match="^m.S "):
        _from_packed(text, (2, 3), "m.S", dtypes)


def _example4_basis():
    return bundled_basis("example4", build(GraphKind.EXAMPLE4, 4))


_WRITERS = {
    "plan": lambda path: write_plan(vertex_plan(_example4_basis(), BandSpec((0, 1))), path),
    "signal": lambda path: write_signal(GraphSignal(np.array([1.0, 2.0]), Domain.SPECTRAL), path),
    "basis": lambda path: save_basis(_example4_basis(), path),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(b"previous contents\n")

    def failing_fsync(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        _WRITERS[name](path)
    assert path.read_bytes() == b"previous contents\n"


class TestSignalType:
    def test_domain_guard(self):
        sig = GraphSignal(np.zeros(3), Domain.VERTEX)
        assert sig.require(Domain.VERTEX) is sig.values
        from gsptk import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            sig.require(Domain.SPECTRAL)


def test_the_package_exports_every_public_name():
    import gsptk
    from gsptk import dspcompat, filters, graphs, impulses, sampling, spectral

    for module in (graphs, spectral, impulses, filters, sampling, dspcompat):
        missing = [n for n in module.__all__ if getattr(gsptk, n, None) is not getattr(module, n)]
        assert not missing, (module.__name__, missing)
