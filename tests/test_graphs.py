import os

import numpy as np
import pytest

from gsptk import (
    BadSizeError,
    BandSpec,
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    ParseError,
    PolynomialFilter,
    ShiftDomain,
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
from gsptk.filters import write_filter


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
        path.write_text("0,xyz\n1,0\n")
        with pytest.raises(ParseError) as err:
            read_graph(path)
        assert "field 2" in str(err.value)


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


def _example4_basis():
    return bundled_basis("example4", build(GraphKind.EXAMPLE4, 4))


_WRITERS = {
    "plan": lambda path: write_plan(vertex_plan(_example4_basis(), BandSpec((0, 1))), path),
    "filter": lambda path: write_filter(
        PolynomialFilter(np.array([1.0, 2.0]), ShiftDomain.VERTEX_A), path
    ),
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
