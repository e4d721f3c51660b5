import json

import numpy as np
import pytest

from gsptk import Domain, GraphKind, GraphSignal, build, read_signal, write_graph, write_signal
from gsptk.cli import DEMO_NAMES, main


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


def test_demo_exit_code_via_subprocess(tmp_path):
    # the exit-code contract through a real shell-out, not an in-process call
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "gsptk.cli", "--out-dir", str(tmp_path), "demo", "convolution"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all 4 assertions passed" in proc.stdout


def test_demo_reports_are_deterministic(tmp_path):
    for d in ("a", "b"):
        assert run(["--out-dir", tmp_path / d, "demo", "example4_spectral"]) == 0
    assert (tmp_path / "a" / "example4_spectral" / "report.json").read_bytes() == (
        tmp_path / "b" / "example4_spectral" / "report.json"
    ).read_bytes()


def test_plot_csv_format(tmp_path):
    assert run(["--out-dir", tmp_path, "demo", "ring_shift"]) == 0
    lines = (tmp_path / "ring_shift" / "original.csv").read_text().splitlines()
    assert lines[0] == "index,re,im,abs"
    assert lines[1].startswith("0,")
    assert len(lines) == 5


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
        filt_doc = json.loads((tmp_path / "conv.filter.json").read_text())
        got = [complex(re, im) for re, im in filt_doc["coeffs"]]
        assert np.max(np.abs(np.array(got) - np.array([-1, 1, 2, 4]))) < 1e-9

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
            ["gft", graph_path, spec_path, "--inverse", "--basis", basis_path,
             "--out", back_path]
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


def _with_first_entry(value):
    return lambda doc: {**doc, "S": [[value] + doc["S"][0][1:]] + doc["S"][1:]}


_BROKEN_PLANS = {
    "missing S": _without("S"),
    "missing cond": _without("cond"),
    "missing delta": _without("delta"),
    "delta not 0/1": _with("delta", [0, 2, 0, 1]),
    "delta count differs from band": _with("delta", [1, 1, 0, 1]),
    "S of the wrong shape": _with("S", [[[1.0, 0.0], [2.0, 0.0]]]),
    "entry not a pair": _with_first_entry([1.0]),
    "entry not a number": _with_first_entry(["1.0", "0.0"]),
    "non-finite entry": _with_first_entry([float("nan"), 0.0]),
    "non-finite cond": _with("cond", float("inf")),
    "not an object": lambda doc: [doc],
}


@pytest.mark.parametrize("case", sorted(_BROKEN_PLANS))
def test_recover_rejects_a_malformed_plan(tmp_path, capsys, case):
    plan_path, samples_path = _sample_example4(tmp_path, "vertex")
    plan_path.write_text(json.dumps(_BROKEN_PLANS[case](json.loads(plan_path.read_text()))))
    capsys.readouterr()
    assert run(["recover", plan_path, samples_path, "--out", tmp_path / "rec.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
