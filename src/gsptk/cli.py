"""Command-line front end.

Subcommands: demo, sample, recover, convolve, gft, spectral-shift. Demos
re-run the toolkit's built-in showcase computations, write a JSON report
plus CSV plot data (a vector as an ``index,re,im,abs`` panel, a matrix as
dense complex CSV), and exit 0 only if every embedded assertion passes. All
randomness sits behind --seed and every file write is atomic, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dspcompat, filters, graphs, numkit, sampling, spectral
from .errors import BadSizeError, GsptkError, SizeMismatchError
from .graphs import Domain, Graph, GraphKind, GraphSignal, _pairs, build, read_graph, read_signal, write_signal
from .impulses import ImpulseKind

# Reference vectors for the 4-node showcase pipelines (3-digit values; all
# comparisons against them use the 5e-3 print tolerance).
_REF_TOL = 5e-3
_REF4_X = np.array([-1.992, 0.93, -0.314, -0.577])
_REF4_DELTA = np.array([0, 1, 0, 1])
_REF4_S = np.array([[-1.0, 1.839], [0.0, 0.544]])
_REF4_XHAT_SPL = np.array([-0.259, -0.817, 1.116 + 0.305j, 1.116 - 0.305j])
_REF4_PMKK = np.array([[-0.817, 0.0], [0.296 + 0.106j, 0.41 - 0.205j]])
_REF4_REPLICATED = np.array([1.0, 2.0, 1.0, 2.0])
_REF4_REP_GFT = np.array([-3.098 + 0.158j, 2.786, 0.013 - 0.533j, -1.68 + 0.158j])
_REF4_REP_DFT = np.array([3.0, 0.0, -1.0, 0.0])
_REF_STAR_M = 0.5 * np.array(
    [
        [1.5, -2.5, 0.5, 0.5, 0.5],
        [-2.5, 1.5, 0.5, 0.5, 0.5],
        [1.0, 1.0, -1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0, -1.0, -1.0],
    ]
)
_REF_CONV_VERTEX = np.array([17.0, 19.0, 17.0, 7.0])


class Checks:
    """Collect named pass/fail assertions for a demo report."""

    def __init__(self):
        self.results = []

    def close(self, name: str, got, want, tol: float) -> None:
        got = np.asarray(got, dtype=np.complex128)
        want = np.asarray(want, dtype=np.complex128)
        dev = float(np.max(np.abs(got - want))) if got.size else 0.0
        self.results.append(
            {"name": name, "passed": bool(dev <= tol), "deviation": dev, "tol": tol}
        )

    def ok(self, name: str, cond: bool, detail: str = "") -> None:
        self.results.append({"name": name, "passed": bool(cond), "detail": detail})


def _example4() -> tuple[Graph, spectral.SpectralBasis]:
    graph = build(GraphKind.EXAMPLE4, 4)
    return graph, spectral.bundled_basis("example4", graph)


# ---------------------------------------------------------------------------
# demos
#
# Each demo returns its assertions, its report fields and its arrays to plot
# by file stem. _cmd_demo writes every file, so a demo that raises leaves none.


def _demo_ring_shift(n: int, seed: int) -> tuple[Checks, dict, dict]:
    graph = build(GraphKind.RING, n)
    x = np.arange(1, n + 1, dtype=np.complex128)
    shifted = graph.adjacency @ x
    checks = Checks()
    checks.close("cyclic_shift_moves_each_sample_forward", shifted, np.roll(x, 1), 1e-12)
    report = {"n": n, "original": _pairs(x), "shifted": _pairs(shifted)}
    return checks, report, {"original": x, "shifted": shifted}


def _demo_star_m(n: int, seed: int) -> tuple[Checks, dict, dict]:
    graph = build(GraphKind.STAR, 5)
    basis = spectral.bundled_basis("star5", graph)
    m = spectral.spectral_shift(basis)
    recon = np.max(np.abs(spectral._diag(basis, basis.lam) - graph.adjacency))
    checks = Checks()
    checks.ok("explicit_basis_reconstructs_star", recon <= 1e-9, f"error {recon:.2e}")
    checks.close("spectral_shift_matches_reference", m, _REF_STAR_M, _REF_TOL)
    checks.ok(
        "spectral_graph_is_fully_connected",
        bool(np.all(np.abs(m) > 1e-9 * np.max(np.abs(m)))),
    )
    report = {"m": _pairs(m), "reconstruction_error": float(recon)}
    return checks, report, {"m_matrix": m}


def _demo_example4_vertex(n: int, seed: int) -> tuple[Checks, dict, dict]:
    graph, basis = _example4()
    band = sampling.BandSpec((0, 1))
    plan = sampling.vertex_plan(basis, band)
    x = GraphSignal(_REF4_X, Domain.VERTEX)
    x_s = sampling.sample(x, plan.delta)
    recovered = sampling.vertex_recover(plan, x_s)
    checks = Checks()
    checks.close("sampling_indicator", plan.delta, _REF4_DELTA, 0)
    checks.close("pivot_from_free_matrix", plan.S, _REF4_S, _REF_TOL)
    checks.close("recovered_signal", recovered.values, _REF4_X, _REF_TOL)
    report = {
        "delta": [int(v) for v in plan.delta],
        "S": _pairs(plan.S),
        "free_idx": list(plan.free_idx),
        "pivot_idx": list(plan.pivot_idx),
        "condition": plan.cond,
        "recovered": _pairs(recovered.values),
    }
    arrays = {"original": x.values, "samples": x_s, "recovered": recovered.values}
    return checks, report, arrays


def _demo_example4_spectral(n: int, seed: int) -> tuple[Checks, dict, dict]:
    graph, basis = _example4()
    band = sampling.BandSpec((0, 1))
    plan = sampling.spectral_plan(basis, band, forced_delta=_REF4_DELTA)
    x = GraphSignal(_REF4_X, Domain.VERTEX)
    x_s = sampling.sample(x, plan.delta)
    xhat_spl = spectral.gft_apply(basis, sampling.upsample(x_s, plan.delta)).values
    rows, pmkk = sampling.recovery_block(basis, plan.delta, band)
    xhat_k = np.linalg.solve(pmkk, xhat_spl[list(rows)])
    recovered = sampling.spectral_recover(plan, x_s)
    checks = Checks()
    checks.close("sampled_signal_spectrum", xhat_spl, _REF4_XHAT_SPL, _REF_TOL)
    checks.close("recovery_block", pmkk, _REF4_PMKK, _REF_TOL)
    checks.close("in_band_spectrum", xhat_k, np.array([1.0, 2.0]), _REF_TOL)
    checks.close("recovered_signal", recovered.values, _REF4_X, _REF_TOL)
    report = {
        "delta": [int(v) for v in plan.delta],
        "selected_rows": list(rows),
        "pmkk": _pairs(pmkk),
        "in_band_spectrum": _pairs(xhat_k),
        "condition": float(np.linalg.cond(pmkk)),
        "recovered": _pairs(recovered.values),
    }
    return checks, report, {"sampled_spectrum": xhat_spl, "recovered": recovered.values}


def _demo_dsp_block_sampling(n: int, seed: int) -> tuple[Checks, dict, dict]:
    if n < 1:
        raise BadSizeError(f"dsp_block_sampling needs n >= 1, got {n}")
    graphs._dense_adjacency(n)  # build's size guard, before the divisor loop walks sqrt(n) integers
    rng = np.random.default_rng(seed)
    checks = Checks()
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    divisors = sorted({*small, *(n // k for k in small)})
    for k in divisors:
        pm = dspcompat.dsp_sampling_operator(n, k)
        blocks = (k / n) * np.kron(np.ones((n // k, n // k)), np.eye(k))
        checks.close(f"block_form_n{n}_k{k}", pm, blocks, 1e-10)
        xhat = np.zeros(n, dtype=np.complex128)
        xhat[:k] = rng.normal(size=k) + 1j * rng.normal(size=k)
        rec = dspcompat.nyquist_recover(GraphSignal(pm @ xhat, Domain.SPECTRAL), k)
        checks.close(f"lowpass_recovery_n{n}_k{k}", rec.values, xhat, 1e-10)
    k = divisors[len(divisors) // 2]
    report = {"n": n, "divisors": divisors}
    return checks, report, {"operator": dspcompat.dsp_sampling_operator(n, k)}


def _demo_replication_compare(n: int, seed: int) -> tuple[Checks, dict, dict]:
    graph, basis = _example4()
    xhat = GraphSignal(np.array([1.0, 2.0, 0.0, 0.0]), Domain.SPECTRAL)
    rep = dspcompat.replication_compare(basis, xhat, 2)
    checks = Checks()
    checks.close("replicated_spectrum", rep.freq_sampled, _REF4_REPLICATED, _REF_TOL)
    checks.close("graph_domain_image", rep.vertex_image_via_gft, _REF4_REP_GFT, _REF_TOL)
    checks.ok("graph_image_has_no_zeros", rep.zero_count == 0, f"zero_count={rep.zero_count}")
    checks.close("dft_domain_image", rep.vertex_image_via_dft, _REF4_REP_DFT, _REF_TOL)
    ring_n = 8
    ring_hat = np.zeros(ring_n, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    ring_hat[: ring_n // 2] = rng.normal(size=ring_n // 2) + 1j * rng.normal(size=ring_n // 2)
    ring_rep = dspcompat.replication_compare(
        dspcompat.dft_basis(ring_n), GraphSignal(ring_hat, Domain.SPECTRAL), 2
    )
    checks.ok(
        "cycle_case_is_true_sampling",
        ring_rep.zero_count == ring_n // 2,
        f"zero_count={ring_rep.zero_count}",
    )
    report = {
        "input_spectrum": _pairs(xhat.values),
        "freq_sampled": _pairs(rep.freq_sampled),
        "vertex_image_via_gft": _pairs(rep.vertex_image_via_gft),
        "vertex_image_via_dft": _pairs(rep.vertex_image_via_dft),
        "zero_count": rep.zero_count,
    }
    return checks, report, {
        "input_spectrum": xhat.values,
        "replicated": rep.freq_sampled,
        "via_gft": rep.vertex_image_via_gft,
        "via_dft": rep.vertex_image_via_dft,
    }


def _demo_path_signals(n: int, seed: int) -> tuple[Checks, dict, dict]:
    if n % 2:
        raise BadSizeError(f"path_signals needs an even n, got {n}")
    graph = build(GraphKind.PATH, n)
    basis = spectral.basis_from_graph(graph)
    rng = np.random.default_rng(seed)
    k = n // 2
    xhat = np.zeros(n, dtype=np.complex128)
    xhat[:k] = rng.normal(size=k) * np.exp(-np.arange(k) / 8.0)
    x = spectral.gft_apply(basis, GraphSignal(xhat, Domain.SPECTRAL))
    delta = np.zeros(n)
    delta[::2] = 1
    sampled = GraphSignal(x.values * delta, Domain.VERTEX)
    sampled_hat = spectral.gft_apply(basis, sampled)
    pm_xhat = sampling.sampling_operator(basis, delta) @ xhat
    rep = dspcompat.replication_compare(basis, GraphSignal(xhat, Domain.SPECTRAL), 2)
    checks = Checks()
    checks.close(
        "block_operator_equals_sampled_spectrum", pm_xhat, sampled_hat.values, 1e-8
    )
    report = {"n": n, "replication_zero_count": rep.zero_count}
    return checks, report, {
        "original_vertex": x.values,
        "original_spectral": xhat,
        "sampled_vertex": sampled.values,
        "sampled_spectral": sampled_hat.values,
        "block_operator_vertex": basis.igft @ pm_xhat,
        "block_operator_spectral": pm_xhat,
        "replication_vertex": rep.vertex_image_via_gft,
        "replication_spectral": rep.freq_sampled,
    }


def _demo_convolution(n: int, seed: int) -> tuple[Checks, dict, dict]:
    basis = dspcompat.dft_basis(4)
    x = GraphSignal(np.array([1.0, 2.0, 3.0, 4.0]), Domain.VERTEX)
    y = GraphSignal(np.array([-1.0, 1.0, 2.0, 4.0]), Domain.VERTEX)
    vert = filters.convolve(x, y, basis)
    xhat = GraphSignal(np.array([1.0, 2.0, 3.0, 4.0]), Domain.SPECTRAL)
    yhat = GraphSignal(np.array([6.0, -3 + 3j, -4.0, -3 - 3j]), Domain.SPECTRAL)
    spec = filters.convolve(xhat, yhat, basis)
    checks = Checks()
    checks.close("vertex_convolution", vert.values, _REF_CONV_VERTEX, 1e-6)
    checks.close(
        "vertex_route_matches_oracle",
        vert.values,
        dspcompat.circulant_convolve(x.values, y.values),
        1e-10,
    )
    checks.close(
        "spectral_route_matches_oracle",
        spec.values,
        dspcompat.circulant_convolve(xhat.values, yhat.values),
        1e-10,
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = filters.convolve(GraphSignal(a, Domain.VERTEX), GraphSignal(b, Domain.VERTEX), basis).values
        worst = max(worst, float(np.max(np.abs(got - dspcompat.circulant_convolve(a, b)))))
    checks.ok("random_pairs_match_oracle", worst <= 1e-8, f"worst {worst:.2e}")
    report = {"vertex_result": _pairs(vert.values), "spectral_result": _pairs(spec.values)}
    return checks, report, {"vertex_result": vert.values, "spectral_result": spec.values}


# name -> (demo, default --n); a demo of size None has a fixed size and refuses any --n
_DEMOS = {
    "ring_shift": (_demo_ring_shift, 4),
    "star_m": (_demo_star_m, None),
    "example4_vertex": (_demo_example4_vertex, None),
    "example4_spectral": (_demo_example4_spectral, None),
    "dsp_block_sampling": (_demo_dsp_block_sampling, 12),
    "replication_compare": (_demo_replication_compare, None),
    "path_signals": (_demo_path_signals, 100),
    "convolution": (_demo_convolution, None),
}
DEMO_NAMES = tuple(_DEMOS)


# ---------------------------------------------------------------------------
# file-driven commands


def _load_basis_for(graph: Graph, args) -> spectral.SpectralBasis:
    if args.basis:
        return spectral.load_basis(args.basis, graph)
    return spectral.basis_from_graph(graph, tol=args.tol)


def _with_suffixes(prefix: str, *suffixes: str) -> list[Path]:
    """Append each suffix to the whole ``--out`` prefix, dots included."""
    out = Path(prefix)
    if not out.name:
        raise GsptkError(f"--out {prefix!r} names a directory, not a file prefix")
    return [out.with_name(out.name + suffix) for suffix in suffixes]


def _parse_band(text: str, n: int) -> sampling.BandSpec:
    if text.strip().lower() == "all":
        return sampling.BandSpec(tuple(range(n)))
    try:
        idx = tuple(sorted(int(t) for t in text.split(",") if t.strip()))
    except ValueError:
        raise GsptkError(f"cannot parse band {text!r}; expected e.g. '0,1' or 'all'") from None
    return sampling.BandSpec(idx)


def _parse_delta(text: str) -> np.ndarray:
    try:
        return np.array([int(t) for t in text.split(",") if t.strip()])
    except ValueError:
        raise GsptkError(f"cannot parse indicator {text!r}") from None


def _cmd_sample(args) -> int:
    graph = read_graph(args.graph)
    signal = read_signal(args.signal)
    basis = _load_basis_for(graph, args)
    band = _parse_band(args.band, graph.n)
    other = spectral.gft_apply(basis, signal)
    x, xhat = (signal, other) if signal.domain is Domain.VERTEX else (other, signal)
    sampling.band_project(xhat, band)
    forced = _parse_delta(args.delta) if args.delta else None
    if args.domain == "vertex":
        plan = sampling.vertex_plan(basis, band, forced_delta=forced)
    else:
        plan = sampling.spectral_plan(basis, band, forced_delta=forced)
    x_s = sampling.sample(x, plan.delta)
    plan_path, samples_path = _with_suffixes(args.out, ".plan.json", ".samples.json")
    sampling.write_plan(plan, plan_path)
    write_signal(GraphSignal(x_s, Domain.VERTEX), samples_path)
    print(f"K={plan.k} delta={''.join(str(int(v)) for v in plan.delta)} cond={plan.cond:.3e}")
    print(f"wrote {plan_path} and {samples_path}")
    return 0


def _cmd_recover(args) -> int:
    graph = read_graph(args.graph) if args.graph else None
    plan = sampling.read_plan(args.plan, graph)
    x_s = read_signal(args.samples).require(Domain.VERTEX)
    truth = read_signal(args.truth).require(Domain.VERTEX) if args.truth else None
    if truth is not None and truth.shape[0] != plan.n:
        raise SizeMismatchError(
            f"truth signal has length {truth.shape[0]} but the plan has {plan.n} nodes"
        )
    if plan.domain is Domain.VERTEX:
        recovered = sampling.vertex_recover(plan, x_s)
    else:
        recovered = sampling.spectral_recover(plan, x_s)
    write_signal(recovered, args.out)
    print(f"wrote {args.out}")
    if truth is not None:
        resid = float(np.max(np.abs(recovered.values - truth)))
        print(f"max residual vs truth: {resid:.6e}")
    return 0


def _cmd_convolve(args) -> int:
    graph = read_graph(args.graph)
    x = read_signal(args.x)
    y = read_signal(args.y)
    if args.domain:
        x.require(Domain(args.domain))
    basis = _load_basis_for(graph, args)
    kind = ImpulseKind.of(x.domain, impulsive=args.impulse == "vertex")
    resp = filters.fit_filter(y, kind, basis)
    result = spectral.gft_apply(basis, filters.modulate(resp, spectral.gft_apply(basis, x)))
    signal_path, filter_path = _with_suffixes(args.out, ".signal.json", ".filter.json")
    write_signal(result, signal_path)
    write_signal(resp, filter_path)
    print(f"wrote {signal_path} and {filter_path}")
    return 0


def _cmd_gft(args) -> int:
    graph = read_graph(args.graph)
    signal = read_signal(args.signal)
    basis = _load_basis_for(graph, args)
    write_signal(spectral.gft_apply(basis, signal), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_spectral_shift(args) -> int:
    graph = read_graph(args.graph)
    basis = _load_basis_for(graph, args)
    m = (
        spectral.spectral_shift_variant(basis)
        if args.variant
        else spectral.spectral_shift(basis)
    )
    graphs.write_graph(Graph(m), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_demo(args) -> int:
    name = args.name
    if args.seed < 0:  # numpy's default_rng takes no negative seed
        raise BadSizeError(f"--seed must be >= 0, got {args.seed}")
    root = os.environ.get("GSP_OUT_DIR", "gsp_out") if args.out_dir is None else args.out_dir
    out = Path(root) / name
    demo, size = _DEMOS[name]
    if size is None and args.n:
        raise BadSizeError(f"demo {name} has a fixed size and takes no --n, got {args.n}")
    checks, report, arrays = demo(args.n or size, args.seed)
    for stem, values in arrays.items():
        graphs._write_csv(out / f"{stem}.csv", values)
    graphs._write_json(
        out / "report.json", {**report, "assertions": checks.results}, indent=1, sort_keys=True
    )
    for r in checks.results:
        state = "PASS" if r["passed"] else "FAIL"
        print(f"[{state}] {name}: {r['name']}")
    failed = [r["name"] for r in checks.results if not r["passed"]]
    if failed:
        print(f"demo {name} failed at assertion: {failed[0]}", file=sys.stderr)
        return 1
    print(f"demo {name}: all {len(checks.results)} assertions passed; reports in {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsptk",
        description="Graph signal processing toolkit: transforms, filters, sampling.",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=numkit.GAP_TOL,
        help="eigenvalue-gap cut of a computed basis, relative to max|lam|",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomness")
    parser.add_argument(
        "--out-dir",
        help="output root for demo reports (default: env GSP_OUT_DIR, else gsp_out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    on_graph = argparse.ArgumentParser(add_help=False)
    on_graph.add_argument("graph")
    on_graph.add_argument("--basis", help="explicit basis JSON (default: computed)")

    p = sub.add_parser("demo", help="run a built-in showcase with embedded assertions")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--n", type=int, default=0, help="size override where applicable")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("sample", parents=[on_graph], help="plan a sampling set and decimate a signal")
    p.add_argument("signal")
    p.add_argument("--domain", choices=[d.value for d in Domain], required=True)
    p.add_argument("--band", required=True, help="comma-separated spectral indices or 'all'")
    p.add_argument("--delta", help="forced 0/1 sampling indicator")
    p.add_argument("--out", required=True, help="prefix; .plan.json and .samples.json are appended")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("recover", help="rebuild a signal from plan + samples")
    p.add_argument("plan")
    p.add_argument("samples")
    p.add_argument("--graph", help="graph file to validate the plan against")
    p.add_argument("--truth", help="reference signal to report the residual against")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("convolve", parents=[on_graph], help="convolve two signals by the response of a filter")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--domain", choices=[d.value for d in Domain], help="default: the domain tag of x")
    p.add_argument("--impulse", choices=["vertex", "flat"], default="vertex")
    p.add_argument("--method", choices=[m.value for m in filters.FitMethod],
                   default=filters.FitMethod.DENSE.value)
    p.add_argument("--out", required=True, help="prefix; .signal.json and .filter.json (the response) are appended")
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("gft", parents=[on_graph], help="transform a vertex signal forward or a spectral signal back")
    p.add_argument("signal")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gft)

    p = sub.add_parser("spectral-shift", parents=[on_graph], help="write the spectral shift matrix of a graph")
    p.add_argument("--variant", action="store_true", help="use lam instead of conj(lam)")
    p.add_argument("--out", required=True, help="graph file: dense CSV if .csv, else edge-list JSON")
    p.set_defaults(func=_cmd_spectral_shift)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GsptkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
