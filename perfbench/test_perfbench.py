"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest -q perfbench``. Each
workload runs at a small size; each correctness check is shown to reject a
deliberately wrong output, made by wrapping a program function in the test
process (nothing under ``src/`` changes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from gsptk import filters, sampling  # noqa: E402
from gsptk.graphs import GraphSignal  # noqa: E402


def run_small(name, tmp_path, trace=False):
    return harness.run(name, seed=7, seconds=1, trace=trace, root=ROOT, out_root=tmp_path, small=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_its_checks(name, trace, tmp_path):
    result = run_small(name, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if trace:
        want = [n for n, _, _ in spans.PER_LAYER] + ["trace.overhead_s"]
    else:
        want = [n for n, _ in harness.END_TO_END]
    assert list(result["metrics"]) == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["cli.main.self_ms"]["value"] > 0
        assert result["metrics"]["numkit.solve.calls"]["value"] > 0


def test_times_are_scaled_by_the_host_speed_and_sizes_are_not(tmp_path, monkeypatch):
    monkeypatch.setattr(speed.Probe, "factor", lambda self: 2.0)
    result = run_small("convolve_cycle", tmp_path)
    detail = json.loads((tmp_path / "convolve_cycle" / "result-seed7-trace0.json").read_text())
    for name, unit in harness.END_TO_END:
        raw = detail["unscaled_end_to_end"][name]
        assert result["metrics"][name]["value"] == pytest.approx(raw / 2.0 if unit == "s" else raw)


def test_probes_cover_the_run_in_proportion_to_its_length():
    probe = speed.Probe()
    probe.run()
    probe._last -= 3.5 * speed.INTERVAL_S
    probe.maybe()
    assert len(probe.times) == 4
    probe.maybe()  # no interval has passed
    assert len(probe.times) == 4


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, where):
        w = workloads.Workload("recover_stream_vertex", seed, 2, tmp_path / where, small=True)
        w.setup()
        return {p.name: p.read_bytes() for p in sorted((tmp_path / where).iterdir())}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_bands_never_split_a_conjugate_pair():
    rng = np.random.default_rng(0)
    for _ in range(5):
        bg = workloads.band_graph(rng, 40)
        inside, outside = bg.lam[: bg.k], bg.lam[bg.k :]
        assert not np.any(np.isclose(np.conj(inside)[:, None], outside[None, :], atol=1e-9))


def _perturbed(fn):
    def wrong(plan, x_s):
        good = fn(plan, x_s)
        return GraphSignal(good.values * (1 + 1e-6), good.domain)

    return wrong


@pytest.mark.parametrize("name", ["sample_recover_spectral", "recover_stream_vertex"])
def test_recovery_check_rejects_a_one_in_a_million_perturbation(name, tmp_path, monkeypatch):
    monkeypatch.setattr(sampling, "spectral_recover", _perturbed(sampling.spectral_recover))
    monkeypatch.setattr(sampling, "vertex_recover", _perturbed(sampling.vertex_recover))
    result = run_small(name, tmp_path)
    details = json.loads((tmp_path / name / "result-seed7-trace0.json").read_text())
    assert not result["correct"]
    assert result["failed"] == len(details["seconds_by_kind"]["recover"])
    assert all("recovery relative error" in r for r in details["failures"])


def test_convolution_check_rejects_the_reversed_kernel(tmp_path, monkeypatch):
    fit = filters.fit_filter

    def reversed_kernel(target, fam, method=filters.FitMethod.DENSE, *rest):
        flipped = np.roll(target.values[::-1], 1)  # y[(-k) mod N]: circular correlation
        return fit(GraphSignal(flipped, target.domain), fam, method, *rest)

    monkeypatch.setattr(filters, "fit_filter", reversed_kernel)
    result = run_small("convolve_cycle", tmp_path)
    details = json.loads((tmp_path / "convolve_cycle" / "result-seed7-trace0.json").read_text())
    assert not result["correct"]
    assert result["failed"] == len(details["seconds_by_kind"]["convolve"])
    assert all("convolution relative error" in r for r in details["failures"])


def test_plan_checks_reject_a_dependent_node():
    rng = np.random.default_rng(1)
    n, k = 12, 5
    delta = np.zeros(n, dtype=int)
    delta[:k] = 1
    band_vectors = workloads.complex_normal(rng, (n, k))
    assert np.isfinite(checks.spectral_plan_condition(band_vectors, delta))
    band_vectors[3] = 2.0 * band_vectors[1] - band_vectors[0]  # kept node 3 depends on 0 and 1
    assert checks.spectral_plan_condition(band_vectors, delta) == np.inf

    out_rows = workloads.complex_normal(rng, (n - k, n))
    assert np.isfinite(checks.vertex_plan_condition(out_rows, delta))
    out_rows[:, 9] = out_rows[:, 6] + out_rows[:, 7]  # dropped node 9 depends on 6 and 7
    assert checks.vertex_plan_condition(out_rows, delta) == np.inf


def test_samples_check_requires_the_exact_entries():
    x = np.arange(6) + 1j
    delta = np.array([1, 0, 1, 0, 0, 1])
    assert checks.check_samples(x[[0, 2, 5]], x, delta) is None
    assert checks.check_samples(x[[0, 2, 4]], x, delta) is not None
    assert checks.check_delta(np.array([1, 0, 1, 0, 0, 0]), 6, 3) is not None


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (n, u) for n, u, _ in spans.PER_LAYER
    ] + [("trace.overhead_s", "s")]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convolve_cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
