import cmath
import gc
import json
import os
import tracemalloc

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
    GsptkError,
    ImpulseKind,
    ParseError,
    PolynomialFilter,
    SamplingPlan,
    basis_from_graph,
    build,
    bundled_basis,
    convolve,
    dft_basis,
    dsp_sampling_operator,
    fit_filter,
    impulse_family,
    nyquist_recover,
    replication_compare,
    save_basis,
    spectral_plan,
    vertex_plan,
    read_graph,
    read_plan,
    read_signal,
    write_graph,
    write_plan,
    write_signal,
)
from gsptk.graphs import _from_packed, _from_pairs, _packed, _pairs
from util import er_digraph


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

    # a size that is not an integer or too large, an empty graph, a kind or domain that is not its
    # enum or an impulsive flag that is not a bool is refused with the library's own error, not
    # numpy's TypeError or MemoryError, a StopIteration or a wrong answer
    @pytest.mark.parametrize("call, error", [
        (lambda: Graph(np.zeros((0, 0))), BadSizeError),
        (lambda: build(GraphKind.RING, 2.5), BadSizeError),
        (lambda: build(GraphKind.RING, True), BadSizeError),
        (lambda: build(GraphKind.EXAMPLE4, 4.0), BadSizeError),
        (lambda: dft_basis(2.5), BadSizeError),
        (lambda: dft_basis(True), BadSizeError),
        (lambda: dsp_sampling_operator(4.0, 2), BadSizeError),
        (lambda: dsp_sampling_operator(4, True), BadSizeError),
        (lambda: nyquist_recover(GraphSignal(np.ones(4), Domain.SPECTRAL), 2.0), BadSizeError),
        (lambda: nyquist_recover(GraphSignal(np.ones(4), Domain.SPECTRAL), True), BadSizeError),
        (lambda: replication_compare(dft_basis(4), GraphSignal(np.ones(4), Domain.SPECTRAL), 2.0), BadSizeError),
        (lambda: PolynomialFilter([1, 1], "vertex"), TypeError),
        (lambda: GraphSignal(np.ones(2), "vertex"), TypeError),
        (lambda: ImpulseKind.of(Domain.VERTEX, 0), TypeError),
        (lambda: convolve(*[GraphSignal(np.ones(2), Domain.VERTEX)] * 2, dft_basis(2), impulsive=None), TypeError),
        (lambda: ImpulseKind.of("vertex", True), TypeError),
        (lambda: impulse_family(build(GraphKind.RING, 2), dft_basis(2), "vertex_impulsive"), TypeError),
        (lambda: fit_filter(GraphSignal(np.ones(2), Domain.VERTEX), "vertex_impulsive", dft_basis(2)), TypeError),
        (lambda: dft_basis(2).for_domain("vertex"), TypeError),
        (lambda: basis_from_graph(build(GraphKind.RING, 2), tol="x"), BadSizeError),
        (lambda: build("ring", 1), TypeError),
        (lambda: build("ring", 4), TypeError),
        # 142 PiB: numpy refuses the N x N basis without allocating it
        (lambda: dft_basis(10**8), BadSizeError),
        (lambda: dsp_sampling_operator(10**8, 1), BadSizeError),
    ], ids=["empty-graph", "ring-2.5", "ring-True", "example4-4.0", "dft-2.5", "dft-True", "dsp-n-4.0",
            "dsp-k-True", "nyquist-2.0", "nyquist-True", "replication-2.0", "filter-str-domain",
            "signal-str-domain", "impulse-kind-0", "convolve-impulsive-None", "impulse-kind-str-domain",
            "family-str-kind", "fit-str-kind", "basis-str-domain", "tol-str", "build-str-kind-1",
            "build-str-kind-4", "dft-1e8", "dsp-1e8"])
    def test_a_bad_argument_gets_a_typed_error(self, call, error):
        with pytest.raises(error):
            call()

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

    def test_integer_weights_read_as_their_float_twin(self, tmp_path):
        # each JSON integer is the float64 nearest to it, rounded as float()
        # rounds it, also past 2**53, past int64 and with every weight an integer
        rng = np.random.default_rng(7)
        w = rng.integers(-9, 10, size=(12, 2)).tolist()
        w[:4] = [[2**53 + 1, -(2**62) - 1], [2**63, 0], [-(2**70) - 1, 3], [0, 0]]
        edges = [[s, d, *w[i]] for i, (s, d) in enumerate(zip(range(12), [*range(1, 12), 0]))]
        paths = tmp_path / "int.json", tmp_path / "float.json"
        for path, table in zip(paths, (edges, [[s, d, float(re), float(im)] for s, d, re, im in edges])):
            path.write_text(json.dumps({"n": 12, "edges": table}))
        got, want = (read_graph(path).adjacency for path in paths)
        assert np.array_equal(_bits(got), _bits(want))
        assert got[1, 0] == complex(float(2**53 + 1), float(-(2**62) - 1))

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


def _edge_list_adjacency(n, edges):
    """The adjacency an edge list states, built one entry at a time, or None
    where the file format refuses it."""
    a, seen = np.zeros((n, n), dtype=np.complex128), set()
    for edge in edges:
        if type(edge) is not list or len(edge) != 4:
            return None
        src, dst, w_re, w_im = edge
        if not all(type(v) is int and 0 <= v < n for v in (src, dst)) or (src, dst) in seen:
            return None
        if not all(type(v) in (int, float) for v in (w_re, w_im)):
            return None
        try:
            w = complex(w_re, w_im)
        except OverflowError:  # an integer beyond float64
            return None
        if not cmath.isfinite(w):
            return None
        a[dst, src] = w
        seen.add((src, dst))
    return a


_EDGES5 = [[0, 1, 1.0, 0.0], [1, 2, -0.0, 2.5], [2, 3, 3, -1], [3, 4, 0.5, -0.0], [4, 0, 2.0, 0.0],
           [0, 2, -1.5, 0.25]]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(
    edge=st.integers(0, len(_EDGES5) - 1),
    field=st.sampled_from([0, 1, 2, 3, None]),
    value=st.one_of(st.integers(-2, 7), st.sampled_from([1.0, 10**400, 2**70, float("inf"), True, None]), _JSON),
)
@example(edge=1, field=3, value=float("nan"))
@example(edge=2, field=2, value=-(10**400))
def test_an_edited_edge_list_reads_as_edited_or_raises_parse_error(tmp_path_factory, edge, field, value):
    # one entry of a valid 5-node edge list, or one whole edge, replaced by
    # any JSON value: a boolean, null, a string, a list, an object, a float
    # endpoint, a huge integer, a negative or out-of-range index
    doc = {"n": 5, "edges": json.loads(json.dumps(_EDGES5))}
    if field is None:
        doc["edges"][edge] = value
    else:
        doc["edges"][edge][field] = value
    path = tmp_path_factory.mktemp("edited") / "g.json"
    path.write_text(json.dumps(doc))
    want = _edge_list_adjacency(5, json.loads(path.read_text())["edges"])
    if want is None:
        with pytest.raises(ParseError):
            read_graph(path)
    else:
        assert np.array_equal(_bits(read_graph(path).adjacency), _bits(want))


def _edit(doc, key, edit, value, index):
    """``doc`` with the value of ``key`` replaced by ``value``, one entry of it
    replaced (where it is a nonempty list), or ``key`` deleted."""
    doc = json.loads(json.dumps(doc))
    if edit == "delete":
        del doc[key]
    elif edit == "replace an entry" and isinstance(doc[key], list) and doc[key]:
        doc[key][index % len(doc[key])] = value
    else:
        doc[key] = value
    return doc


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(
    kind=st.sampled_from(["signal", "vertex plan", "spectral plan"]),
    key=st.integers(0, 5),
    edit=st.sampled_from(["replace", "replace an entry", "delete", "truncate"]),
    value=st.one_of(st.integers(-2, 7), st.sampled_from([1.0, 10**400, float("nan"), True, None]), _JSON),
    index=st.integers(0, 7),
    cut=st.floats(0.0, 1.0),
    with_graph=st.booleans(),
)
def test_an_edited_signal_or_plan_file_reads_checked_or_raises(
        tmp_path_factory, kind, key, edit, value, index, cut, with_graph):
    # a valid file with one key's value (or one entry of it) replaced by any
    # JSON value, one key deleted, or its text truncated: the reader returns a
    # checked signal or plan, or raises GsptkError, and nothing else escapes
    tmp = tmp_path_factory.mktemp("edited")
    graph = build(GraphKind.EXAMPLE4, 4)
    basis, band, path = bundled_basis("example4", graph), BandSpec((0, 1)), tmp / "f.json"
    if kind == "signal":
        write_signal(GraphSignal(basis.igft[:, 0], Domain.VERTEX), path)
    else:
        write_plan((vertex_plan if kind == "vertex plan" else spectral_plan)(basis, band), path)
    text = path.read_text()
    if edit == "truncate":
        text = text[:int(cut * (len(text) - 1))]
    else:
        doc = json.loads(text)
        text = json.dumps(_edit(doc, sorted(doc)[key % len(doc)], edit, value, index))
    path.write_text(text)
    try:
        got = read_signal(path) if kind == "signal" else read_plan(path, graph if with_graph else None)
    except GsptkError:
        return
    if kind == "signal":
        assert isinstance(got, GraphSignal) and isinstance(got.domain, Domain)
        assert got.values.ndim == 1 and got.values.size and np.all(np.isfinite(got.values))
    else:
        assert isinstance(got, SamplingPlan) and isinstance(got.domain, Domain)
        n, k = got.delta.shape[0], got.band.k
        assert set(np.unique(got.delta)) <= {0, 1} and np.count_nonzero(got.delta) == k
        assert got.S.shape == (n - k, k) and np.all(np.isfinite(got.S))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_graph_peaks_no_higher_than_parsing_its_text(tmp_path):
    # the parsed lists are released before anything N x N is allocated, so
    # the read peaks at json.loads of the text plus the float64 edge table,
    # within a margin of one N x N complex128 array. At N=200 (21,842 edges,
    # json.loads 3.62 MB, table 0.70 MB, margin 0.64 MB) the read peaked
    # 0.46 MB below loads plus table; keeping the lists alive while the
    # table, the adjacency and its copy were built peaked 1.82 MB above it
    n = 200
    path = tmp_path / "g.json"
    write_graph(er_digraph(np.random.default_rng(0), n), path)
    edges = len(json.loads(path.read_text())["edges"])
    loads = _traced_peak(lambda: json.loads(path.read_text()))
    assert _traced_peak(read_graph, path) <= loads + edges * 4 * 8 + n * n * 16


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
    for a in (m, m.real.copy(), np.zeros((0, 3), dtype=np.complex128)):
        back = _from_packed(_packed(a), a.shape, "m")
        assert back.shape == a.shape and back.dtype == a.dtype
        assert back.tobytes() == a.tobytes()
        assert back.flags.writeable
    assert len(_packed(m.real)) == len(_packed(m)) // 2  # 8 bytes a value, not 16
    assert _from_packed(_packed(np.zeros((0, 3))), (0, 3), "m").dtype == np.complex128
    assert _packed(m.T) == _packed(np.ascontiguousarray(m.T))  # row-major


_C6 = np.zeros(6, dtype=np.complex128)


@pytest.mark.parametrize(
    "text",
    [[[1.0, 0.0]], None, "****" + _packed(_C6), _packed(_C6[:5]), _packed(np.ones(7, dtype=complex)),
     _packed([np.nan, 0, 0, 0, 0, 0j]), _packed(np.zeros(9)), _packed([0, 0, np.nan, 0, 0, 0])],
    ids=["a list", "None", "non-base64", "one value short", "one value long", "NaN",
         "neither 8 nor 16 bytes a value", "float64 NaN"],
)
def test_packed_decoder_names_the_field(text):
    with pytest.raises(ParseError, match="^m.S "):
        _from_packed(text, (2, 3), "m.S")


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


def test_graph_files_are_read_and_written_without_collections(tmp_path):
    a = (np.random.default_rng(0).random((200, 200)) < 0.5).astype(float)
    path = tmp_path / "g.json"
    starts = []

    def count(phase, info):
        starts.append(phase == "start")

    gc.callbacks.append(count)
    try:
        write_graph(Graph(a), path)  # 20,000 edge lists built, dumped and parsed
        got = read_graph(path)
    finally:
        gc.callbacks.remove(count)
    assert not any(starts)
    np.testing.assert_array_equal(got.adjacency, a)


@pytest.mark.parametrize("enabled", [True, False])
def test_file_io_restores_the_collector_state(tmp_path, enabled):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [[0, 5, 1.0, 0.0]]}\n')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        write_signal(GraphSignal(np.array([1.0, 2.0]), Domain.VERTEX), tmp_path / "x.json")
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            read_graph(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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
