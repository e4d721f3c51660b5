import base64
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gsptk
from gsptk import (
    BadSizeError,
    Domain,
    GraphKind,
    GraphSignal,
    basis_from_graph,
    build,
    gft_apply,
    read_signal,
    write_graph,
    write_signal,
)
from gsptk import cli
from gsptk.cli import DEMO_NAMES, build_parser, main
from util import er_digraph, one_vector_off, random_basis_graph, small_pivot_basis


def run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_every_demo_passes(tmp_path, name):
    args = ["--out-dir", tmp_path, "demo", name]
    if name == "path_signals":
        args += ["--n", "40"]  # keep the suite quick
    assert run(args) == 0
    report = json.loads((tmp_path / name / "report.json").read_text())
    assert all(a["passed"] for a in report["assertions"])


def _child(*argv):
    """Run ``python *argv`` in a fresh process that imports the same gsptk as
    this one, installed or not."""
    src = str(Path(gsptk.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_demo_exit_code_via_subprocess(tmp_path):
    # the exit-code contract through a real shell-out, not an in-process call
    proc = _child("-m", "gsptk.cli", "--out-dir", tmp_path, "demo", "convolution")
    assert proc.returncode == 0, proc.stderr
    assert "all 4 assertions passed" in proc.stdout


def test_a_fresh_recover_does_not_import_scipy(tmp_path):
    # scipy.linalg is imported where a decomposition or a solve runs; recover runs neither
    graph_path, sig_path = _write_example4_inputs(tmp_path)
    assert run(["sample", graph_path, sig_path, "--domain", "vertex", "--band", "0,1",
                "--basis", _bundled_basis_file(tmp_path), "--out", tmp_path / "run"]) == 0
    proc = _child("-c", "import sys; from gsptk.cli import main; "
                        "print(main(sys.argv[1:]), 'scipy' in sys.modules)",
                  "recover", tmp_path / "run.plan.json", tmp_path / "run.samples.json",
                  "--out", tmp_path / "rec.json")
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_reports_are_deterministic(tmp_path, name):
    size = ["--n", "40"] if name == "path_signals" else []
    for d in ("a", "b"):
        assert run(["--out-dir", tmp_path / d, "demo", name] + size) == 0
    first, second = tmp_path / "a" / name, tmp_path / "b" / name
    files = sorted(p.name for p in first.iterdir())
    assert "report.json" in files and files == sorted(p.name for p in second.iterdir())
    for f in files:
        assert (first / f).read_bytes() == (second / f).read_bytes(), f


def test_plot_csv_format(tmp_path):
    assert run(["--out-dir", tmp_path, "demo", "ring_shift"]) == 0
    lines = (tmp_path / "ring_shift" / "original.csv").read_text().splitlines()
    assert lines[0] == "index,re,im,abs"
    assert lines[1].startswith("0,")
    assert len(lines) == 5
    # every CSV of every demo holds numbers: a vector as a panel of floats, a
    # matrix as complex fields
    panels, matrices = 0, []
    for name in DEMO_NAMES:
        size = ["--n", "40"] if name == "path_signals" else []
        assert run(["--out-dir", tmp_path, "demo", name] + size) == 0
        for path in sorted((tmp_path / name).glob("*.csv")):
            lines = path.read_text().splitlines()
            if lines[0] == "index,re,im,abs":
                panels += 1
                for i, line in enumerate(lines[1:]):
                    index, *fields = line.split(",")
                    assert int(index) == i and len(fields) == 3, (path, line)
                    [float(f) for f in fields]
            else:
                matrices.append(path.name)
                for line in lines:
                    [complex(f) for f in line.split(",")]
    assert panels == 21 and matrices == ["m_matrix.csv", "operator.csv"]


def _write_example4_inputs(tmp_path):
    graph_path = tmp_path / "g.json"
    write_graph(build(GraphKind.EXAMPLE4, 4), graph_path)
    sig_path = tmp_path / "x.json"
    write_signal(
        GraphSignal(np.array([-1.992, 0.93, -0.314, -0.577]), Domain.VERTEX), sig_path
    )
    return graph_path, sig_path


def _bundled_basis_file(tmp_path):
    from gsptk import bundled_basis
    from gsptk.spectral import save_basis

    basis = bundled_basis("example4", build(GraphKind.EXAMPLE4, 4))
    path = tmp_path / "basis.json"
    save_basis(basis, path)
    return path


class TestSampleRecover:
    def test_showcase_spectral_pipeline(self, tmp_path, capsys):
        graph_path, sig_path = _write_example4_inputs(tmp_path)
        basis_path = _bundled_basis_file(tmp_path)
        out_prefix = tmp_path / "run"
        code = run(
            ["sample", graph_path, sig_path, "--domain", "spectral", "--band", "0,1",
             "--delta", "0,1,0,1", "--basis", basis_path, "--out", out_prefix]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "K=2" in printed and "delta=0101" in printed
        plan_file = tmp_path / "run.plan.json"
        samples_file = tmp_path / "run.samples.json"
        plan_doc = json.loads(plan_file.read_text())
        assert plan_doc["delta"] == [0, 1, 0, 1]

        out_sig = tmp_path / "rec.json"
        code = run(
            ["recover", plan_file, samples_file, "--graph", graph_path,
             "--truth", sig_path, "--out", out_sig]
        )
        assert code == 0
        rec = read_signal(out_sig)
        assert np.max(np.abs(rec.values - np.array([-1.992, 0.93, -0.314, -0.577]))) < 5e-3

    def test_vertex_pipeline_roundtrip(self, tmp_path):
        graph_path, sig_path = _write_example4_inputs(tmp_path)
        basis_path = _bundled_basis_file(tmp_path)
        out_prefix = tmp_path / "run"
        assert run(
            ["sample", graph_path, sig_path, "--domain", "vertex", "--band", "0,1",
             "--basis", basis_path, "--out", out_prefix]
        ) == 0
        out_sig = tmp_path / "rec.json"
        assert run(
            ["recover", tmp_path / "run.plan.json", tmp_path / "run.samples.json",
             "--out", out_sig]
        ) == 0
        rec = read_signal(out_sig)
        assert np.max(np.abs(rec.values - np.array([-1.992, 0.93, -0.314, -0.577]))) < 5e-3

    def test_computed_basis_ordering_band(self, tmp_path):
        # without --basis the default ordering (descending real part) puts
        # the showcase spectrum on indices {0, 3}
        graph_path, sig_path = _write_example4_inputs(tmp_path)
        assert run(
            ["sample", graph_path, sig_path, "--domain", "vertex", "--band", "0,3",
             "--out", tmp_path / "c"]
        ) == 0
        out_sig = tmp_path / "crec.json"
        assert run(
            ["recover", tmp_path / "c.plan.json", tmp_path / "c.samples.json",
             "--out", out_sig]
        ) == 0
        rec = read_signal(out_sig)
        assert np.max(np.abs(rec.values - np.array([-1.992, 0.93, -0.314, -0.577]))) < 5e-3

    def test_band_all(self, tmp_path):
        graph_path, sig_path = _write_example4_inputs(tmp_path)
        basis_path = _bundled_basis_file(tmp_path)
        assert run(
            ["sample", graph_path, sig_path, "--domain", "vertex", "--band", "all",
             "--basis", basis_path, "--out", tmp_path / "full"]
        ) == 0
        plan_doc = json.loads((tmp_path / "full.plan.json").read_text())
        assert plan_doc["delta"] == [1, 1, 1, 1]

    def test_ring_any_forced_subset(self, tmp_path):
        n = 12
        graph_path = tmp_path / "ring.json"
        write_graph(build(GraphKind.RING, n), graph_path)
        rng = np.random.default_rng(0)
        xhat = np.zeros(n, dtype=complex)
        xhat[:4] = rng.normal(size=4)
        sig_path = tmp_path / "xhat.json"
        write_signal(GraphSignal(xhat, Domain.SPECTRAL), sig_path)
        delta = np.zeros(n, dtype=int)
        delta[[0, 3, 7, 11]] = 1
        assert run(
            ["sample", graph_path, sig_path, "--domain", "spectral",
             "--band", "0,1,2,3", "--delta", ",".join(map(str, delta)),
             "--out", tmp_path / "r"]
        ) == 0

    @pytest.mark.parametrize("domain", ["vertex", "spectral"])
    def test_a_block_with_a_small_lu_pivot_is_sampled(self, tmp_path, capsys, domain):
        # its smallest singular value clears the zero cut, the one test of a block
        from gsptk.spectral import save_basis

        graph, basis = small_pivot_basis()
        write_graph(graph, tmp_path / "g.json")
        save_basis(basis, tmp_path / "basis.json")
        write_signal(GraphSignal(np.array([1.0, 0, 0, 0]), Domain.SPECTRAL), tmp_path / "xhat.json")
        assert run(["sample", tmp_path / "g.json", tmp_path / "xhat.json", "--domain", domain,
                    "--band", "0,1,2", "--delta", "0,1,1,1", "--basis", tmp_path / "basis.json",
                    "--out", tmp_path / "run"]) == 0
        assert "delta=0111 cond=1.111e+10" in capsys.readouterr().out

    def test_a_dotted_prefix_keeps_its_dots(self, tmp_path):
        graph_path, sig_path = _write_example4_inputs(tmp_path)
        basis_path = _bundled_basis_file(tmp_path)
        for domain in ("vertex", "spectral"):
            assert run(
                ["sample", graph_path, sig_path, "--domain", domain, "--band", "0,1",
                 "--basis", basis_path, "--out", tmp_path / f"run.{domain}"]
            ) == 0
        assert sorted(p.name for p in tmp_path.glob("run.*")) == [
            "run.spectral.plan.json", "run.spectral.samples.json",
            "run.vertex.plan.json", "run.vertex.samples.json",
        ]

    def test_not_bandlimited_error(self, tmp_path, capsys):
        graph_path, _ = _write_example4_inputs(tmp_path)
        sig_path = tmp_path / "bad.json"
        write_signal(GraphSignal(np.array([1.0, 1.0, 1.0, 1.0]), Domain.SPECTRAL), sig_path)
        code = run(
            ["sample", graph_path, sig_path, "--domain", "spectral", "--band", "0,1",
             "--basis", _bundled_basis_file(tmp_path), "--out", tmp_path / "x"]
        )
        assert code == 2
        assert "not bandlimited" in capsys.readouterr().err


class TestConvolveCommand:
    def test_ring_showcase(self, tmp_path):
        graph_path = tmp_path / "ring.json"
        write_graph(build(GraphKind.RING, 4), graph_path)
        x_path = tmp_path / "x.json"
        write_signal(GraphSignal(np.array([1.0, 2.0, 3.0, 4.0]), Domain.VERTEX), x_path)
        y_path = tmp_path / "y.json"
        write_signal(GraphSignal(np.array([-1.0, 1.0, 2.0, 4.0]), Domain.VERTEX), y_path)
        out_prefix = tmp_path / "conv"
        assert run(
            ["convolve", graph_path, x_path, y_path, "--domain", "vertex",
             "--out", out_prefix]
        ) == 0
        result = read_signal(tmp_path / "conv.signal.json")
        assert np.max(np.abs(result.values - np.array([17, 19, 17, 7]))) < 1e-6
        # the filter file holds the response P(lam) of P(A) = -1 + A + 2A^2 + 4A^3
        from gsptk import PolynomialFilter, response

        resp = read_signal(tmp_path / "conv.filter.json")
        want = response(PolynomialFilter([-1, 1, 2, 4], Domain.VERTEX),
                        basis_from_graph(build(GraphKind.RING, 4)))
        assert resp.domain is Domain.SPECTRAL
        assert np.max(np.abs(resp.values - want.values)) < 1e-9

    def test_y_in_either_domain_gives_one_signal(self, tmp_path):
        # the y file's own tag picks the system it is fitted against
        n = 8
        graph = build(GraphKind.RING, n)
        rng = np.random.default_rng(22)
        x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        yhat = basis_from_graph(graph).gft @ y
        paths = [tmp_path / name for name in ("ring.json", "x.json", "y.json", "yhat.json")]
        write_graph(graph, paths[0])
        for values, domain, path in zip((x, y, yhat), ("vertex", "vertex", "spectral"), paths[1:]):
            write_signal(GraphSignal(values, Domain(domain)), path)
        got = []
        for y_path, prefix in ((paths[2], "conv.y"), (paths[3], "conv.yhat")):
            assert run(["convolve", paths[0], paths[1], y_path, "--domain", "vertex",
                        "--out", tmp_path / prefix]) == 0
            got.append(read_signal(tmp_path / f"{prefix}.signal.json"))
            assert (tmp_path / f"{prefix}.filter.json").exists()
        assert got[0].domain is got[1].domain is Domain.VERTEX
        assert np.max(np.abs(got[0].values - got[1].values)) <= 1e-9 * np.max(np.abs(got[0].values))

    def test_delta_echoes_input(self, tmp_path):
        graph_path = tmp_path / "ring.json"
        write_graph(build(GraphKind.RING, 4), graph_path)
        x_path = tmp_path / "x.json"
        write_signal(GraphSignal(np.array([5.0, -1.0, 2.0, 0.5]), Domain.VERTEX), x_path)
        y_path = tmp_path / "d.json"
        write_signal(GraphSignal(np.array([1.0, 0.0, 0.0, 0.0]), Domain.VERTEX), y_path)
        assert run(
            ["convolve", graph_path, x_path, y_path, "--out", tmp_path / "out"]
        ) == 0
        result = read_signal(tmp_path / "out.signal.json")
        assert np.max(np.abs(result.values - np.array([5.0, -1.0, 2.0, 0.5]))) < 1e-9

    def _ring_pair(self, tmp_path, domain):
        paths = [tmp_path / name for name in ("ring.json", "x.json", "y.json")]
        write_graph(build(GraphKind.RING, 4), paths[0])
        write_signal(GraphSignal(np.array([1.0, 2.0, 3.0, 4.0]), Domain(domain)), paths[1])
        write_signal(GraphSignal(np.array([-1.0, 1.0, 2.0, 4.0]), Domain(domain)), paths[2])
        return paths

    @pytest.mark.parametrize("domain", ["vertex", "spectral"])
    def test_domain_defaults_to_the_tag_of_x(self, tmp_path, domain):
        paths = self._ring_pair(tmp_path, domain)
        assert run(["convolve", *paths, "--out", tmp_path / "implicit"]) == 0
        assert run(["convolve", *paths, "--domain", domain, "--out", tmp_path / "explicit"]) == 0
        for suffix in (".signal.json", ".filter.json"):
            implicit = (tmp_path / f"implicit{suffix}").read_bytes()
            assert implicit == (tmp_path / f"explicit{suffix}").read_bytes()
        assert read_signal(tmp_path / "implicit.signal.json").domain is Domain(domain)

    @pytest.mark.parametrize("domain, other", [("vertex", "spectral"), ("spectral", "vertex")])
    def test_a_domain_against_the_tag_of_x_is_refused_first(self, tmp_path, capsys, monkeypatch,
                                                             domain, other):
        from gsptk import filters

        def no_fit(*args):
            raise AssertionError("the filter was fitted")

        monkeypatch.setattr(filters, "fit_filter", no_fit)
        paths = self._ring_pair(tmp_path, domain)
        assert run(["convolve", *paths, "--domain", other, "--out", tmp_path / "conv"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: expected a {other}-domain signal, got {domain}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.json", "x.json", "y.json"]

    @pytest.mark.parametrize("domain", ["vertex", "spectral"])
    @pytest.mark.parametrize("impulse", ["vertex", "flat"])
    def test_every_convention_on_the_cycle(self, tmp_path, domain, impulse):
        # on the cycle with its computed basis the four conventions agree with
        # the transform-product identity: circular convolution in the vertex
        # domain, gft((igft yhat / igft[:, 0]) * igft xhat) in the spectral one
        from gsptk import basis_from_graph
        from gsptk.dspcompat import circulant_convolve

        n = 8
        graph = build(GraphKind.RING, n)
        basis = basis_from_graph(graph)
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        paths = [tmp_path / "ring.json", tmp_path / "x.json", tmp_path / "y.json"]
        write_graph(graph, paths[0])
        for values, path in zip((x, y), paths[1:]):
            write_signal(GraphSignal(values, Domain(domain)), path)
        if domain == "vertex":
            want = circulant_convolve(x, y)
        else:
            igft = basis.igft
            want = basis.gft @ ((igft @ y / igft[:, 0]) * (igft @ x))
        assert run(["convolve", *paths, "--domain", domain, "--impulse", impulse,
                    "--method", "dense", "--out", tmp_path / "dense"]) == 0
        got = read_signal(tmp_path / "dense.signal.json").values
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 100 * n * np.finfo(float).eps * scale

    def test_identity_and_shift_equivariance_on_a_generic_digraph(self, tmp_path, capsys):
        # distinct frequencies (smallest gap 0.32), but cond 4.0e15 for the
        # Krylov matrix of powers of A: the response needs no such matrix
        n = 16
        graph, basis = random_basis_graph(np.random.default_rng(16), n, need_y0=True)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        write_graph(graph, tmp_path / "g.json")
        inputs = {"x": x, "y": y, "e0": np.eye(n)[0], "ax": graph.adjacency @ x}
        for name, values in inputs.items():
            write_signal(GraphSignal(values, Domain.VERTEX), tmp_path / f"{name}.json")

        def conv(first):
            paths = [tmp_path / f"{name}.json" for name in ("g", first, "y")]
            assert run(["convolve", *paths, "--out", tmp_path / first]) == 0
            return read_signal(tmp_path / f"{first}.signal.json").values

        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        bound = n * np.finfo(float).eps * np.linalg.cond(basis.igft) / np.min(np.abs(basis.gft[:, 0]))
        assert rel(conv("e0"), y) <= bound
        assert rel(conv("ax"), graph.adjacency @ conv("x")) <= bound
        # the dense fit is the only one
        with pytest.raises(SystemExit) as exc:
            run(["convolve", *(tmp_path / f"{name}.json" for name in ("g", "x", "y")),
                 "--method", "l1", "--out", tmp_path / "conv"])
        assert exc.value.code == 2
        assert "invalid choice: 'l1'" in capsys.readouterr().err

    def test_a_zero_in_y0_is_refused_and_nothing_is_written(self, tmp_path, capsys):
        # distinct frequencies, but the identity basis has gft[:, 0] = e_0
        from gsptk import Graph, basis_explicit
        from gsptk.spectral import save_basis

        graph = Graph(np.diag([1.0, 2.0, 3.0]))
        paths = [tmp_path / name for name in ("g.json", "x.json", "y.json")]
        write_graph(graph, paths[0])
        for path in paths[1:]:
            write_signal(GraphSignal(np.ones(3), Domain.VERTEX), path)
        save_basis(basis_explicit(np.eye(3), [1.0, 2.0, 3.0], graph), tmp_path / "basis.json")
        assert run(["convolve", *paths, "--basis", tmp_path / "basis.json",
                    "--out", tmp_path / "conv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "min |y0| = 0.00e+00" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.json", "g.json", "x.json", "y.json"]


class TestTransformCommands:
    def test_gft_and_inverse(self, tmp_path):
        graph_path, sig_path = _write_example4_inputs(tmp_path)
        basis_path = _bundled_basis_file(tmp_path)
        spec_path = tmp_path / "xhat.json"
        assert run(
            ["gft", graph_path, sig_path, "--basis", basis_path, "--out", spec_path]
        ) == 0
        xhat = read_signal(spec_path)
        assert xhat.domain is Domain.SPECTRAL
        assert np.max(np.abs(xhat.values - np.array([1, 2, 0, 0]))) < 5e-3
        back_path = tmp_path / "back.json"
        assert run(
            ["gft", graph_path, spec_path, "--basis", basis_path, "--out", back_path]
        ) == 0
        back = read_signal(back_path)
        assert np.max(np.abs(back.values - np.array([-1.992, 0.93, -0.314, -0.577]))) < 1e-9

    def test_spectral_shift_of_ring_is_adjacency(self, tmp_path):
        # the cycle identity M == A holds for the natural-order DFT basis,
        # so the analytic basis is supplied explicitly
        from gsptk import dft_basis, read_graph
        from gsptk.spectral import save_basis

        graph_path = tmp_path / "ring.json"
        write_graph(build(GraphKind.RING, 4), graph_path)
        basis_path = tmp_path / "dft.json"
        save_basis(dft_basis(4), basis_path)
        out_path = tmp_path / "m.csv"
        assert run(["spectral-shift", graph_path, "--basis", basis_path,
                    "--out", out_path]) == 0
        m = read_graph(out_path).adjacency
        assert np.max(np.abs(m - build(GraphKind.RING, 4).adjacency)) < 1e-9

    def test_spectral_shift_variant_of_ring(self, tmp_path):
        from gsptk import dft_basis, read_graph
        from gsptk.spectral import save_basis

        graph_path = tmp_path / "ring.json"
        write_graph(build(GraphKind.RING, 4), graph_path)
        basis_path = tmp_path / "dft.json"
        save_basis(dft_basis(4), basis_path)
        out_path = tmp_path / "mv.csv"
        assert run(["spectral-shift", graph_path, "--variant", "--basis", basis_path,
                    "--out", out_path]) == 0
        mv = read_graph(out_path).adjacency
        assert np.max(np.abs(mv - build(GraphKind.RING, 4).adjacency.T)) < 1e-9

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_spectral_shift_reads_back_as_a_graph(self, tmp_path, suffix):
        from gsptk import read_graph, spectral_shift
        from gsptk.spectral import load_basis

        graph_path, _ = _write_example4_inputs(tmp_path)
        basis_path = _bundled_basis_file(tmp_path)
        out_path = tmp_path / f"m{suffix}"
        assert run(["spectral-shift", graph_path, "--basis", basis_path,
                    "--out", out_path]) == 0
        m = spectral_shift(load_basis(basis_path, build(GraphKind.EXAMPLE4, 4)))
        assert np.array_equal(read_graph(out_path).adjacency, m)

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert run(["gft", tmp_path / "none.json", tmp_path / "x.json",
                    "--out", tmp_path / "o.json"]) == 2


def _sample_example4(tmp_path, domain):
    graph_path, sig_path = _write_example4_inputs(tmp_path)
    assert run(
        ["sample", graph_path, sig_path, "--domain", domain, "--band", "0,1",
         "--delta", "0,1,0,1", "--basis", _bundled_basis_file(tmp_path),
         "--out", tmp_path / "run"]
    ) == 0
    return tmp_path / "run.plan.json", tmp_path / "run.samples.json"


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: {**doc, key: value}


def _replace(key, index, value):
    """An edit that sets ``doc[key][index[0]][index[1]]...`` to ``value`` in a copy."""

    def edit(doc):
        doc = json.loads(json.dumps(doc))
        node = doc[key]
        for i in index[:-1]:
            node = node[i]
        node[index[-1]] = value
        return doc

    return edit


def _unpacked(doc):
    """The (N-K) x K map ``S`` of a version-4 plan document whose ``S`` is
    complex, as example4's is."""
    n, k = len(doc["delta"]), len(doc["band"])
    return np.frombuffer(base64.b64decode(doc["S"]), dtype="<c16").reshape(n - k, k)


def _pairs_of_s(doc):
    """``S`` of a version-4 plan document as nested [re, im] pairs, the layout of versions 1 and 2."""
    s = _unpacked(doc)
    return np.stack((s.real, s.imag), -1).tolist()


def _old_version(version):
    """An edit that rewrites the plan in an older version's layout: ``S`` as [re, im] pairs in versions
    1 (no version and no cond field) and 2, as base64 of complex128 bytes in version 3."""

    def edit(doc):
        if version == 3:
            return {**doc, "version": 3}
        old = {**doc, "version": 2, "S": _pairs_of_s(doc)}
        return old if version == 2 else {k: v for k, v in old.items() if k not in ("version", "cond")}

    return edit


def _packed_s(first=None, drop_last=False, layout="<c16"):
    """An edit that repacks ``S`` in ``layout`` (its real part for ``"<f8"``)
    with its first value replaced, or its last dropped."""

    def edit(doc):
        s = _unpacked(doc).ravel().copy()
        s = s.real.copy() if layout == "<f8" else s
        if first is not None:
            s[0] = first
        s = s[:-1] if drop_last else s
        return {**doc, "S": base64.b64encode(s.astype(layout).tobytes()).decode()}

    return edit


# nested past the JSON decoder's recursion limit: a ParseError, not a RecursionError
_DEEP = "[" * 100_000 + "]" * 100_000

_BROKEN_PLANS = {
    "nested 100,000 deep": '{"version": 4, "domain": "vertex", "delta": ' + _DEEP + ', "band": [0, 1]}',
    "missing S": _without("S"),
    "missing cond": _without("cond"),
    "missing delta": _without("delta"),
    "delta not 0/1": _with("delta", [0, 2, 0, 1]),
    "delta count differs from band": _with("delta", [1, 1, 0, 1]),
    # one complex value: 16 bytes, neither the 32 of a 2 x 2 float64 S nor the 64 of a complex128 one
    "S of the wrong shape": _with("S", base64.b64encode(np.array([1.0], "<c16").tobytes()).decode()),
    "non-finite entry": _packed_s(first=complex(0.0, float("nan"))),
    # version 4: S packed as base64 of complex128 bytes, or of float64 bytes
    "S not a string": lambda doc: {**doc, "S": _pairs_of_s(doc)},
    # without validation, b64decode would skip the four stars and decode the rest
    "S with non-base64 characters": lambda doc: {**doc, "S": "****" + doc["S"]},
    "S one complex value short": _packed_s(drop_last=True),
    "S with a NaN first value": _packed_s(first=complex(float("nan"), 0.0)),
    "S with an infinite first value": _packed_s(first=complex(float("inf"), 0.0)),
    # 24 bytes for 4 entries: neither 8 nor 16 bytes per entry
    "S one float64 value short": _packed_s(drop_last=True, layout="<f8"),
    "S with a NaN first float64 value": _packed_s(first=float("nan"), layout="<f8"),
    "non-finite cond": _with("cond", float("inf")),
    "band not ascending": _with("band", [1, 0]),
    "band not integers": _with("band", [0.7, 1.2]),
    "band booleans": _with("band", [False, True]),
    "band index out of range": _with("band", [0, 4]),
    "delta with a boolean": _with("delta", [0, True, 0, 1]),
    "cond a boolean": _with("cond", True),
    "cond null": _with("cond", None),
    "version true": _with("version", True),
    "version 4.0": _with("version", 4.0),
    "not an object": lambda doc: [doc],
}


@pytest.mark.parametrize("case", sorted(_BROKEN_PLANS))
def test_recover_rejects_a_malformed_plan(tmp_path, capsys, case):
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    edit = _BROKEN_PLANS[case]
    plan_path.write_text(edit if isinstance(edit, str) else json.dumps(edit(json.loads(plan_path.read_text()))))
    capsys.readouterr()
    assert run(["recover", plan_path, samples_path, "--out", tmp_path / "rec.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("version", [1, 2, 3])
def test_recover_refuses_an_older_plan_by_its_version(tmp_path, capsys, version):
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    plan_path.write_text(json.dumps(_old_version(version)(json.loads(plan_path.read_text()))))
    capsys.readouterr()
    assert run(["recover", plan_path, samples_path, "--out", tmp_path / "rec.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"unsupported plan version {version};" in err and "sample --delta" in err
    assert not (tmp_path / "rec.json").exists()


def test_recover_reads_a_float64_map(tmp_path):
    # the float64 edits above fail for their own reason, not their layout
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    plan_path.write_text(json.dumps(_packed_s(layout="<f8")(json.loads(plan_path.read_text()))))
    assert run(["recover", plan_path, samples_path, "--out", tmp_path / "rec.json"]) == 0


@pytest.mark.parametrize("domain", ["vertex", "spectral"])
def test_recover_checks_the_plan_against_the_graph(tmp_path, capsys, domain):
    plan_path, samples_path = _sample_example4(tmp_path, domain)
    own = tmp_path / "g.json"
    assert run(["recover", plan_path, samples_path, "--graph", own,
                "--out", tmp_path / "rec.json"]) == 0
    other = tmp_path / "ring.json"
    write_graph(build(GraphKind.RING, 4), other)
    capsys.readouterr()
    assert run(["recover", plan_path, samples_path, "--graph", other,
                "--out", tmp_path / "rec.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# gft reads all three kinds of input; each edit breaks one of them
_BROKEN_INPUTS = {
    ("graph", "invalid JSON"): "{not json",
    ("graph", "not an object"): lambda doc: [doc],
    ("graph", "missing edges"): _without("edges"),
    ("graph", "edges not a list"): _with("edges", 5),
    ("graph", "edge not four entries"): _replace("edges", (0,), [0, 1, 1.0]),
    ("graph", "non-numeric weight"): _replace("edges", (0, 2), "a"),
    ("graph", "weight a list"): _replace("edges", (0, 2), [1.0]),
    ("graph", "non-finite weight"): _replace("edges", (0, 3), float("inf")),
    ("graph", "null weight"): _replace("edges", (0, 2), None),
    ("graph", "weight beyond float64"): _replace("edges", (0, 2), 10**400),
    # edge 2 is [1, 0, 1.0, 0.0]: with true or 1.0 for 1 it would read as the same graph
    ("graph", "boolean endpoint"): _replace("edges", (2, 0), True),
    ("graph", "float endpoint"): _replace("edges", (2, 0), 1.0),
    ("graph", "n a boolean"): lambda doc: {"n": True, "edges": []},
    # numpy refuses this size without allocating; never test with an n whose
    # adjacency could actually be allocated
    ("graph", "n too large to allocate"): _with("n", 10**12),
    # each boolean below replaces an equal number: read as one, it gives the same input
    ("graph", "boolean weight"): _replace("edges", (2, 2), True),
    ("graph", "repeated edge"): lambda doc: {**doc, "edges": doc["edges"] + doc["edges"][:1]},
    ("graph", "nested 100,000 deep"): '{"n": 4, "edges": ' + _DEEP + "}",
    ("signal", "invalid JSON"): "",
    ("signal", "not an object"): lambda doc: [doc],
    ("signal", "missing values"): _without("values"),
    ("signal", "values not a list"): _with("values", 3.0),
    ("signal", "entry not a pair"): _replace("values", (0,), [1.0]),
    ("signal", "non-numeric pair"): _replace("values", (0,), ["1.0", "0.0"]),
    ("signal", "non-finite entry"): _replace("values", (0, 0), float("nan")),
    ("signal", "boolean in a pair"): _replace("values", (0, 1), False),
    ("signal", "values of the wrong shape"): _with("values", [[[1.0, 0.0]]] * 4),
    ("signal", "nested 100,000 deep"): '{"domain": "vertex", "values": ' + _DEEP + "}",
    ("basis", "invalid JSON"): '{"lambda": [[1.0, 0.0]',
    ("basis", "not an object"): lambda doc: [doc],
    ("basis", "missing gft"): _without("gft"),
    ("basis", "entry not a pair"): _replace("gft", (0, 0), [1.0]),
    ("basis", "non-numeric entry"): _replace("gft", (0, 0), ["1.0", "0.0"]),
    ("basis", "non-finite entry"): _replace("lambda", (0, 1), float("nan")),
    ("basis", "boolean in a pair"): _replace("gft", (0, 0, 1), False),
    ("basis", "gft of the wrong shape"): lambda doc: {**doc, "gft": doc["gft"][:-1]},
    ("basis", "nested 100,000 deep"): '{"lambda": [], "gft": ' + _DEEP + "}",
}


@pytest.mark.parametrize("kind, case", sorted(_BROKEN_INPUTS))
def test_gft_rejects_a_malformed_input(tmp_path, capsys, kind, case):
    paths = dict(zip(("graph", "signal"), _write_example4_inputs(tmp_path)))
    paths["basis"] = _bundled_basis_file(tmp_path)
    edit = _BROKEN_INPUTS[kind, case]
    path = paths[kind]
    path.write_text(edit if isinstance(edit, str) else json.dumps(edit(json.loads(path.read_text()))))
    assert run(["gft", paths["graph"], paths["signal"], "--basis", paths["basis"],
                "--out", tmp_path / "xhat.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["gft", "convolve"])
@pytest.mark.parametrize("domain", ["vertex", "spectral"])
def test_a_signal_of_the_wrong_length_is_an_error(tmp_path, capsys, domain, command):
    graph_path = tmp_path / "ring.json"
    write_graph(build(GraphKind.RING, 4), graph_path)
    full, short = tmp_path / "full.json", tmp_path / "short.json"
    write_signal(GraphSignal(np.array([1.0, 2.0, 3.0, 4.0]), Domain(domain)), full)
    write_signal(GraphSignal(np.array([1.0, 2.0, 3.0]), Domain(domain)), short)
    if command == "convolve":
        args = ["convolve", graph_path, full, short, "--domain", domain, "--out", tmp_path / "conv"]
    else:
        args = ["gft", graph_path, short, "--out", tmp_path / "out.json"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "does not match the graph size 4" in err


def test_recover_checks_the_truth_length_before_writing(tmp_path, capsys):
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    truth, out = tmp_path / "short.json", tmp_path / "rec.json"
    write_signal(GraphSignal(np.array([1.0, 2.0, 3.0]), Domain.VERTEX), truth)
    capsys.readouterr()
    assert run(["recover", plan_path, samples_path, "--truth", truth, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truth signal has length 3" in err
    assert not out.exists()


@pytest.mark.parametrize("n", [16, 400])
def test_convolve_on_an_er_digraph_exits_0(tmp_path, n):
    # at N = 16 the Krylov matrix of powers of A is numerically singular, and
    # at N = 400 those powers overflow (spectral radius about 220); the
    # response is the transform of y over y0 and needs neither
    graph = er_digraph(np.random.default_rng(1), n)
    x = np.random.default_rng(2).normal(size=n)
    graph_path, x_path, out = tmp_path / "g.json", tmp_path / "x.json", tmp_path / "conv"
    write_graph(graph, graph_path)
    write_signal(GraphSignal(x, Domain.VERTEX), x_path)
    assert run(["convolve", graph_path, x_path, x_path, "--out", out]) == 0
    basis = basis_from_graph(graph)
    y0, xhat = basis.gft[:, 0], basis.gft @ x
    resp = read_signal(tmp_path / "conv.filter.json")
    assert resp.domain is Domain.SPECTRAL
    assert np.max(np.abs(resp.values - xhat / y0)) <= 1e-12 * np.max(np.abs(xhat / y0))
    got = read_signal(tmp_path / "conv.signal.json").values
    want = basis.igft @ (xhat / y0 * xhat)
    bound = n * np.finfo(float).eps * np.linalg.cond(basis.igft) / np.min(np.abs(y0))
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _recover_with_a_spectral(tmp_path, which):
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    truth_path = tmp_path / "x.json"
    path = {"samples": samples_path, "truth": truth_path}[which]
    write_signal(GraphSignal(read_signal(path).values, Domain.SPECTRAL), path)
    return ["recover", plan_path, samples_path, "--truth", truth_path, "--out", tmp_path / "rec.json"]


def _sample_with_band(tmp_path, band, *extra):
    graph_path, sig_path = _write_example4_inputs(tmp_path)
    return ["sample", graph_path, sig_path, "--domain", "vertex", f"--band={band}",
            "--basis", _bundled_basis_file(tmp_path), "--out", tmp_path / "run", *extra]


def _sample_on_a_noise_block(tmp_path):
    # an out-of-band GFT row of this graph is [4.7e-16, 7.9e-17, 1.41, 1.41, 1.41, 1.41],
    # so the block at the one dropped node 1 is rounding noise
    graph = er_digraph(np.random.default_rng(15), 6)
    xhat = np.append(np.arange(1.0, 6.0), 0.0)
    graph_path, sig_path = tmp_path / "g.json", tmp_path / "x.json"
    write_graph(graph, graph_path)
    write_signal(gft_apply(basis_from_graph(graph), GraphSignal(xhat, Domain.SPECTRAL)), sig_path)
    return ["sample", graph_path, sig_path, "--domain", "vertex", "--band", "0,1,2,3,4",
            "--delta", "1,0,1,1,1,1", "--out", tmp_path / "run"]


def _recover_against_a_larger_graph(tmp_path):
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    graph_path = tmp_path / "ring5.json"
    write_graph(build(GraphKind.RING, 5), graph_path)
    return ["recover", plan_path, samples_path, "--graph", graph_path, "--out", tmp_path / "rec.json"]


def _out_dir_is_a_file(tmp_path):
    path = tmp_path / "out"
    path.write_text("")
    return ["--out-dir", path, "demo", "ring_shift"]


def _csv_graph_is_a_directory(tmp_path):
    _, sig_path = _write_example4_inputs(tmp_path)
    graph_path = tmp_path / "g.csv"
    graph_path.mkdir()
    return ["gft", graph_path, sig_path, "--out", tmp_path / "xhat.json"]


_BAD_ARGUMENTS = {
    "spectral samples": (
        lambda p: _recover_with_a_spectral(p, "samples"),
        "expected a vertex-domain signal, got spectral",
    ),
    "spectral truth": (
        lambda p: _recover_with_a_spectral(p, "truth"),
        "expected a vertex-domain signal, got spectral",
    ),
    "negative band index": (lambda p: _sample_with_band(p, "-1,0"), "must be nonnegative"),
    "repeated band index": (lambda p: _sample_with_band(p, "0,0"), "strictly ascending and unique"),
    "empty band": (lambda p: _sample_with_band(p, ","), "must be nonempty"),
    "band index out of range": (
        lambda p: _sample_with_band(p, "0,9"), "band index 9 out of range for size 4"
    ),
    "band not integers": (lambda p: _sample_with_band(p, "a,b"), "cannot parse band 'a,b'"),
    "delta not integers": (
        lambda p: _sample_with_band(p, "0,1", "--delta", "x,1"), "cannot parse indicator 'x,1'"
    ),
    "graph larger than the plan": (
        _recover_against_a_larger_graph, "plan has 4 nodes but the graph has 5"
    ),
    "short delta": (
        lambda p: _sample_with_band(p, "0,1", "--delta", "0,1,0"),
        "delta must be a 0/1 vector of length 4",
    ),
    "delta not 0/1": (
        lambda p: _sample_with_band(p, "0,1", "--delta", "0,2,0,1"),
        "delta must be a 0/1 vector of length 4",
    ),
    "delta drops a noise block": (
        _sample_on_a_noise_block, "sampling set is not valid for this band: smallest singular value"
    ),
    "negative demo size": (
        lambda p: ["--out-dir", p, "demo", "dsp_block_sampling", "--n", "-3"],
        "needs n >= 1, got -3",
    ),
    "plan is a directory": (
        lambda p: ["recover", p, p / "samples.json", "--out", p / "rec.json"],
        "Is a directory",
    ),
    "out under a file": (
        lambda p: ["gft", *_write_example4_inputs(p), "--out", p / "g.json" / "xhat.json"],
        "File exists",
    ),
    "out-dir is a file": (_out_dir_is_a_file, "Not a directory"),
    "out prefix is a directory": (
        lambda p: _sample_with_band(p, "0,1", "--out", "."), "names a directory, not a file prefix"
    ),
    "csv graph is a directory": (_csv_graph_is_a_directory, "Is a directory"),
}


def test_gsp_out_dir_is_read_when_a_demo_runs(tmp_path, monkeypatch):
    # the parser is built once per process, so the variable must be read per call
    for root in ("a", "b"):
        monkeypatch.setenv("GSP_OUT_DIR", str(tmp_path / root))
        assert run(["demo", "ring_shift"]) == 0
        assert (tmp_path / root / "ring_shift" / "report.json").exists()
    assert run(["--out-dir", tmp_path / "c", "demo", "ring_shift"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c"]


_REJECTED_DEMOS = {
    ("ring_shift", "1"): "ring graph needs n >= 2, got 1",
    ("path_signals", "3"): "path_signals needs an even n, got 3",
    ("dsp_block_sampling", "-3"): "dsp_block_sampling needs n >= 1, got -3",
    # 142 PiB: numpy refuses the adjacency without allocating it
    ("ring_shift", "100000000"): "'n' = 100000000 is too large for a dense adjacency",
    ("path_signals", "100000000"): "'n' = 100000000 is too large for a dense adjacency",
    ("dsp_block_sampling", "100000000"): "'n' = 100000000 is too large for a dense adjacency",
    # the five fixed-size demos refuse any size rather than ignore it
    ("star_m", "3"): "demo star_m has a fixed size",
    ("example4_vertex", "9"): "demo example4_vertex has a fixed size",
    ("example4_spectral", "4"): "demo example4_spectral has a fixed size",
    ("replication_compare", "5"): "demo replication_compare has a fixed size",
    ("convolution", "8"): "demo convolution has a fixed size",
}


@pytest.mark.parametrize("name, size", list(_REJECTED_DEMOS))
def test_a_rejected_demo_leaves_no_directory(tmp_path, capsys, name, size):
    assert run(["--out-dir", tmp_path / "out", "demo", name, "--n", size]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _REJECTED_DEMOS[name, size] in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(BadSizeError):  # each size refusal is a BadSizeError, a ValueError
        cli._cmd_demo(build_parser().parse_args(["--out-dir", str(tmp_path / "out"), "demo", name, "--n", size]))


@pytest.mark.parametrize("name", ["convolution", "path_signals", "replication_compare", "dsp_block_sampling"])
def test_a_negative_seed_is_refused_before_the_demo_runs(tmp_path, capsys, name):
    # each of these demos seeds numpy's default_rng, which refuses a negative seed
    assert run(["--seed", "-1", "--out-dir", tmp_path / "out", "demo", name]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_sample_refuses_an_eigendecomposition_over_its_residual_contract(tmp_path, capsys, monkeypatch):
    write_graph(er_digraph(np.random.default_rng(1), 12), tmp_path / "g.json")
    write_signal(GraphSignal(np.zeros(12), Domain.SPECTRAL), tmp_path / "xhat.json")
    monkeypatch.setattr(scipy.linalg, "eig", one_vector_off(scipy.linalg.eig))
    assert run(["sample", tmp_path / "g.json", tmp_path / "xhat.json", "--domain", "vertex",
                "--band", "0,1", "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eigendecomposition residual ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "xhat.json"]


def test_a_failed_demo_assertion_exits_1_and_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_REF_CONV_VERTEX", cli._REF_CONV_VERTEX + 1)
    assert run(["--out-dir", tmp_path, "demo", "convolution"]) == 1
    out, err = capsys.readouterr()
    assert err == "demo convolution failed at assertion: vertex_convolution\n"
    assert "[FAIL] convolution: vertex_convolution" in out
    report = json.loads((tmp_path / "convolution" / "report.json").read_text())
    assert [a["name"] for a in report["assertions"] if not a["passed"]] == ["vertex_convolution"]


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_a_bad_argument_is_an_error_not_a_traceback(tmp_path, capsys, case):
    make_args, message = _BAD_ARGUMENTS[case]
    args = make_args(tmp_path)
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "rec.json").exists()


def test_readme_command_lines_parse():
    # every example in README's sh blocks must stay a valid command line
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("gsptk ")
    ]
    assert len(lines) >= 10
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
