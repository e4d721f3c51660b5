"""Seeded inputs and the three workloads.

A workload is a list of pipelines. Each pipeline writes its inputs
(``setup``), computes what its checks compare against (``references``), and
then yields the CLI calls of one of its rounds at a time (``round``). Every
call starts only after the previous one has returned and been checked: a
closed loop with one client.

Every workload has a main pipeline, which is what the workload is for, and a
side pipeline that runs the file-driven commands the main one does not, so
that each end-to-end metric has a measured value on every workload. The side
calls take a fifth to a third of a round.

The program only ever sees the files written here. Graph and signal files
are written by this module in the program's documented formats, not by the
program's writers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import checks

EDGE_P = 0.55
# Two eigenvalues count as distinct, and a band boundary as clean, when they
# are this share of the spectral radius apart: far above eigensolver roundoff,
# so the program's ordering puts the same set inside the band.
SEPARATION = 1e-6
MAX_GRAPH_TRIES = 20


@dataclass
class Op:
    """One CLI call and the check of its output."""

    kind: str  # "sample", "recover" or "convolve"
    argv: list[str]
    check: Callable[[], str | None]
    outputs: tuple[Path, ...] = ()  # removed before the call, so stale files never pass
    plan: Path | None = None  # plan file whose size is recorded after a sample call


# ---------------------------------------------------------------------------
# inputs


def er_adjacency(rng: np.random.Generator, n: int, p: float = EDGE_P) -> np.ndarray:
    """Unit-weight Erdos-Renyi digraph without self loops (the test suite's family)."""
    a = (rng.random((n, n)) < p).astype(float)
    np.fill_diagonal(a, 0.0)
    return a


def cycle_adjacency(n: int) -> np.ndarray:
    """Directed cycle: node i receives from node i - 1."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, (idx - 1) % n] = 1.0
    return a


def sorted_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigendecomposition, in the program's frequency order:
    descending real part, ties by descending imaginary part."""
    lam, v = np.linalg.eig(a)
    order = np.lexsort((-lam.imag, -lam.real))
    return lam[order], v[:, order]


def band_size(lam: np.ndarray) -> int:
    """About half the frequencies, grown until the boundary separates two real
    parts clearly, so that it never splits a complex-conjugate pair."""
    n = lam.shape[0]
    cut = SEPARATION * max(1.0, float(np.max(np.abs(lam))))
    k = n // 2
    while k < n - 1 and lam[k - 1].real - lam[k].real <= cut:
        k += 1
    return k


@dataclass
class BandGraph:
    adjacency: np.ndarray
    lam: np.ndarray
    vectors: np.ndarray  # right eigenvectors, columns in frequency order
    k: int
    basis_condition: float = 0.0
    out_rows: np.ndarray | None = None  # out-of-band rows of the inverse eigenbasis


def band_graph(rng: np.random.Generator, n: int) -> BandGraph:
    """An ER digraph with distinct eigenvalues, drawn from ``rng`` alone."""
    for _ in range(MAX_GRAPH_TRIES):
        a = er_adjacency(rng, n)
        lam, v = sorted_eig(a)
        gaps = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > SEPARATION * max(1.0, float(np.max(np.abs(lam)))):
            return BandGraph(a, lam, v, band_size(lam))
    raise RuntimeError(f"no ER digraph with distinct eigenvalues at n={n}")


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def write_graph(path: Path, a: np.ndarray) -> None:
    """Edge-list JSON: [src, dst, re, im] for each entry a[dst, src] != 0."""
    dst, src = np.nonzero(a)
    w = a[dst, src]
    edges = [[s, d, float(x), 0.0] for s, d, x in zip(src.tolist(), dst.tolist(), w.real.tolist())]
    path.write_text(json.dumps({"n": a.shape[0], "edges": edges}) + "\n")


def write_signal(path: Path, values: np.ndarray, domain: str) -> None:
    pairs = np.column_stack((values.real, values.imag)).tolist()
    path.write_text(json.dumps({"domain": domain, "values": pairs}) + "\n")


def read_signal(path: Path) -> tuple[str, np.ndarray]:
    doc = json.loads(path.read_text())
    pairs = np.asarray(doc["values"], dtype=float).reshape(-1, 2)
    return doc["domain"], pairs[:, 0] + 1j * pairs[:, 1]


# ---------------------------------------------------------------------------
# pipelines


@dataclass
class SamplingPipeline:
    """``gsptk sample`` on a bandlimited signal, then ``gsptk recover``.

    With ``stream == 0`` the recover call rebuilds the sampled signal from the
    samples file ``sample`` wrote. With ``stream > 0`` the plan is read by
    ``stream`` recover calls on fresh bandlimited signals, each decimated at
    the plan's delta by this module.
    """

    domain: str  # "spectral" or "vertex"
    n: int
    stream: int
    graphs: int
    rounds: int
    rng_key: list[int]
    workdir: Path
    pool: list[BandGraph] = field(default_factory=list)
    signals: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def ops_per_round(self) -> int:
        return 1 + max(1, self.stream)

    def _path(self, name: str) -> Path:
        return self.workdir / f"{self.domain}{self.n}_{name}"

    def setup(self) -> None:
        rng = np.random.default_rng(self.rng_key)
        self.pool = [band_graph(rng, self.n) for _ in range(self.graphs)]
        for g, bg in enumerate(self.pool):
            write_graph(self._path(f"g{g}.graph.json"), bg.adjacency)
        self.signals = []
        for r in range(self.rounds):
            bg = self.pool[r % self.graphs]
            coeffs = complex_normal(rng, (bg.k, 1 + self.stream))
            batch = list((bg.vectors[:, : bg.k] @ coeffs).T)
            self.signals.append(batch)
            write_signal(self._path(f"r{r}.x.json"), batch[0], "vertex")

    def references(self) -> None:
        for bg in self.pool:
            bg.basis_condition = float(np.linalg.cond(bg.vectors))
            bg.out_rows = np.linalg.inv(bg.vectors)[bg.k :, :]

    def _check_plan(self, bg: BandGraph, x, plan: Path, samples: Path, state: dict):
        doc = json.loads(plan.read_text())
        if doc.get("domain") != self.domain or doc.get("band") != list(range(bg.k)):
            return "plan domain or band differs from the request"
        delta = np.asarray(doc["delta"])
        reason = checks.check_delta(delta, self.n, bg.k)
        if reason is None:
            reason = checks.check_samples(read_signal(samples)[1], x, delta)
        if reason is not None:
            return reason
        if self.domain == "spectral":
            cond = checks.spectral_plan_condition(bg.vectors[:, : bg.k], delta)
            rule = "kept nodes give dependent rows of the band eigenvectors"
        else:
            cond = checks.vertex_plan_condition(bg.out_rows, delta)
            rule = "dropped nodes give a singular block of the out-of-band rows of the inverse"
        if not np.isfinite(cond):
            return rule
        state["delta"] = delta
        state["tol"] = checks.recovery_tolerance(bg.basis_condition, cond)
        return None

    def _check_recovery(self, out: Path, x, state: dict):
        if "tol" not in state:
            return "no valid plan to recover from"
        domain, got = read_signal(out)
        if domain != "vertex":
            return f"recovered signal is in the {domain} domain"
        return checks.check_recovery(got, x, state["tol"])

    def round(self, r: int) -> Iterator[Op]:
        bg = self.pool[r % self.graphs]
        batch = self.signals[r]
        graph = self._path(f"g{r % self.graphs}.graph.json")
        prefix = self._path("out")
        plan, samples = prefix.with_suffix(".plan.json"), prefix.with_suffix(".samples.json")
        band = ",".join(str(i) for i in range(bg.k))
        state: dict = {}
        yield Op(
            "sample",
            ["sample", str(graph), str(self._path(f"r{r}.x.json")), "--domain", self.domain,
             "--band", band, "--out", str(prefix)],
            lambda: self._check_plan(bg, batch[0], plan, samples, state),
            outputs=(plan, samples),
            plan=plan,
        )
        out = self._path("recovered.json")
        if not self.stream:
            yield Op("recover", ["recover", str(plan), str(samples), "--out", str(out)],
                     lambda: self._check_recovery(out, batch[0], state), outputs=(out,))
            return
        fed = self._path("stream.samples.json")
        for x in batch[1:]:
            fed.unlink(missing_ok=True)
            if "delta" in state:
                write_signal(fed, x[state["delta"] == 1], "vertex")
            yield Op("recover", ["recover", str(plan), str(fed), "--out", str(out)],
                     lambda x=x: self._check_recovery(out, x, state), outputs=(out,))


@dataclass
class ConvolvePipeline:
    """``gsptk convolve --method dense`` on the directed cycle, alternating the
    vertex and the spectral domain, with fresh random complex x and y."""

    n: int
    rounds: int
    rng_key: list[int]
    workdir: Path
    pairs: list[dict] = field(default_factory=list)
    expected: list[dict] = field(default_factory=list)

    ops_per_round = 2

    def _path(self, name: str) -> Path:
        return self.workdir / f"cycle{self.n}_{name}"

    def setup(self) -> None:
        rng = np.random.default_rng(self.rng_key)
        write_graph(self._path("graph.json"), cycle_adjacency(self.n))
        self.pairs = []
        for r in range(self.rounds):
            pair = {d: complex_normal(rng, (2, self.n)) for d in ("vertex", "spectral")}
            for d, (x, y) in pair.items():
                write_signal(self._path(f"r{r}.{d}.x.json"), x, d)
                write_signal(self._path(f"r{r}.{d}.y.json"), y, d)
            self.pairs.append(pair)

    def references(self) -> None:
        from gsptk import graphs, spectral

        basis = spectral.basis_from_graph(graphs.Graph(cycle_adjacency(self.n)))
        self.expected = [
            {
                "vertex": checks.circular_convolution(*p["vertex"]),
                "spectral": checks.spectral_convolution(basis.gft, basis.igft, *p["spectral"]),
            }
            for p in self.pairs
        ]

    def _check(self, out: Path, domain: str, want):
        got_domain, got = read_signal(out)
        if got_domain != domain:
            return f"convolution returned a {got_domain}-domain signal"
        return checks.check_convolution(got, want, self.n)

    def round(self, r: int) -> Iterator[Op]:
        prefix = self._path("out")
        out = prefix.with_suffix(".signal.json")
        for d in ("vertex", "spectral"):
            yield Op(
                "convolve",
                ["convolve", str(self._path("graph.json")), str(self._path(f"r{r}.{d}.x.json")),
                 str(self._path(f"r{r}.{d}.y.json")), "--domain", d, "--method", "dense",
                 "--out", str(prefix)],
                lambda d=d: self._check(out, d, self.expected[r][d]),
                outputs=(out, prefix.with_suffix(".filter.json")),
            )


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Spec:
    why: str
    round_s: float  # one round at full size, 1 BLAS thread, 2 cores; sets rounds per run
    build: Callable[[int, int, Path, bool], list]


def _spectral(seed, rounds, workdir, small):
    return [
        (SamplingPipeline("spectral", 24 if small else 400, 0, 2, rounds, [seed, 1], workdir), 1),
        (ConvolvePipeline(16 if small else 256, rounds, [seed, 2], workdir), 1),
    ]


def _stream(seed, rounds, workdir, small):
    return [
        (SamplingPipeline("vertex", 24 if small else 400, 5 if small else 100, 2, rounds, [seed, 1],
                          workdir), 1),
        (ConvolvePipeline(16 if small else 256, rounds, [seed, 2], workdir), 1),
    ]


def _convolve(seed, rounds, workdir, small):
    return [
        (ConvolvePipeline(16 if small else 256, rounds, [seed, 1], workdir), 1),
        (SamplingPipeline("vertex", 24 if small else 256, 16, 1, rounds, [seed, 2], workdir), 1),
    ]


WORKLOADS = {
    "sample_recover_spectral": Spec(
        "the baseline pipeline: basis inversion, row_reduce selection, an 8.9 MB plan write "
        "and a read_plan that inverts the stored gft again",
        5.0,
        _spectral,
    ),
    "recover_stream_vertex": Spec(
        "each vertex plan is read by 100 recover calls, which do no numkit work: JSON parsing, "
        "vertex_recover and CLI overhead",
        11.6,
        _stream,
    ),
    "convolve_cycle": Spec(
        "the only workload that exercises impulses, filters and the spectral shift M, on a "
        "graph where dense convolution is exact",
        3.9,
        _convolve,
    ),
}


class Workload:
    """The pipelines of one named workload at one seed.

    A workload round runs ``m`` rounds of each pipeline that the workload
    lists with repeat ``m``. The calls of the pipelines are interleaved in
    proportion to their counts, so that the side calls are spread across the
    round instead of bunched at its end.
    """

    def __init__(self, name: str, seed: int, rounds: int, workdir: Path, small: bool = False):
        workdir.mkdir(parents=True, exist_ok=True)
        self.parts = WORKLOADS[name].build(seed, rounds, workdir, small)

    def setup(self) -> None:
        for pipeline, _ in self.parts:
            pipeline.setup()

    def references(self) -> None:
        for pipeline, _ in self.parts:
            pipeline.references()

    def round(self, r: int) -> Iterator[Op]:
        streams, order = [], []
        for p, (pipeline, m) in enumerate(self.parts):
            streams.append(itertools.chain.from_iterable(map(pipeline.round, range(r * m, r * m + m))))
            count = m * pipeline.ops_per_round
            order += [((i + 0.5) / count, p) for i in range(count)]
        for _, p in sorted(order):
            yield next(streams[p])
