"""Time the stages of ``gsptk sample`` from two checkouts and write BENCH_<label>.json.

    python3 tools/stage_times.py PARENT CHANGE --label NAME --change "what changed"

PARENT and CHANGE are checkouts, each with ``src/gsptk`` and ``perfbench/``.
For each n in SIZES, a writer process per checkout builds
``perfbench/workloads.band_graph(default_rng([1, 1]), n)``, with its band of
K indices 0..K-1, and writes it with the benchmark's graph writer. Each run
is then a fresh process with one BLAS thread that imports ``gsptk`` from one
checkout, reads that file and times, once each and in this order:
``read_graph``, ``numkit.eig`` of the adjacency, ``basis_from_graph``,
``basis_less_eig`` (``basis_from_graph``'s time less that of its own
``numkit.eig`` call, timed inside it in the same run, so that the spread of
``dgeev`` does not hide a change to the inverse or the checks),
``numkit.row_reduce`` of the matrix
each route selects on (the band columns of the inverse GFT, transposed, in
reverse node order for the vertex route and in node order for the spectral
route), ``vertex_plan``, ``spectral_plan``, ``write_plan`` of the spectral
plan and, as ``basis_cycle``, ``basis_from_graph`` of the n-node directed
cycle, a circulant shift. ``scipy.linalg`` is imported before the first
stage, so that no stage is charged with it on a checkout that imports it
where it is used. The run also records its high-water resident set
(``ru_maxrss``, MB) before ``read_graph``, after it, after
``basis_from_graph`` and after the two plans. The graph is built and written
in another process because ``band_graph`` runs ``np.linalg.eig`` and the
writer builds the edge lists, either of which would set that mark. After its
timed run, ``spectral_plan`` runs once more, untimed, under ``tracemalloc``,
whose peak is recorded as ``tracemalloc_plans`` (MB). Each checkout
runs RUNS times per size, the two alternating, the parent first on even runs. The record is
``tools/bench_pairs.py``'s: per size and stage, each side's median and
quartiles over its runs, the change's relative difference of the medians and
how many pairs the change read lower or higher, plus the host and every
run's values.

    python3 tools/stage_times.py PARENT CHANGE --label NAME --change "what changed" --paired

``--paired`` resolves stages a few percent apart, which fresh processes do
not: one process per size, with one BLAS thread, imports each checkout's
package under its own name, builds the bench graph once (CHANGE's
workloads) and each side's basis once, and times ``basis_from_graph``,
``vertex_plan`` and ``spectral_plan``, each in its
PAIRS pairs, the parent first on even pairs, ``gc.collect()`` before each call. Per
stage it records the median and quartiles of the ratios change / parent,
each side's times in ms and a verdict: ``faster`` when the median ratio is
below 0.98 and its third quartile below 1, ``slower`` when the median is
above 1.02 and its first quartile above 1, else ``no change``. An A/A record
(one commit on both sides) must read ``no change`` on every stage. RSS and
``tracemalloc`` peaks stay with the fresh processes, which one process would mix.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import metadata
from pathlib import Path

from bench_pairs import SIDES, compare, summary

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (400, 1600)  # the benchmark's size and the north star's
RUNS = 5  # per side and size: the fewest a BENCH_<label>.json median may rest on
# per size in the paired mode; in A/A records 20 pairs put the median ratio 4% from 1 for
# basis_from_graph, whose dgeev time varies from call to call
PAIRS = {"basis_from_graph": 60, "vertex_plan": 20, "spectral_plan": 20}


def write(checkout: Path, n: int, path: Path) -> dict:
    """Write the bench graph of size ``n`` with the workloads of ``checkout``; its band size."""
    sys.path[:0] = [str(checkout / "perfbench")]
    import numpy as np
    import workloads

    bg = workloads.band_graph(np.random.default_rng([1, 1]), n)
    workloads.write_graph(path, bg.adjacency)
    return {"k": bg.k}


def stages(checkout: Path, n: int, path: Path, k: int) -> dict:
    """One run's stage times in ms, and its high-water RSS in MB, with gsptk of ``checkout``."""
    sys.path[:0] = [str(checkout / "src")]
    import scipy.linalg  # loaded before the first timed stage; see the docstring
    from gsptk import BandSpec, GraphKind, basis_from_graph, build, numkit, read_graph, sampling

    band = BandSpec(tuple(range(k)))
    times, mb = {}, {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name] = (time.perf_counter() - start) * 1e3
        return out

    def maxrss(name):  # ru_maxrss is in KiB on Linux
        mb[f"maxrss_{name}"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced(name, fn, *args):  # the traced peak of one more, untimed call
        tracemalloc.start()
        try:
            fn(*args)
            mb[f"tracemalloc_{name}"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    maxrss("start")
    graph = timed("read_graph", read_graph, path)
    maxrss("read_graph")
    eig = numkit.eig
    timed("eig", eig, graph.adjacency)
    # basis_from_graph calls numkit._diagonalize, which looks numkit.eig up in its module at each call
    numkit.eig = functools.partial(timed, "eig_in_basis", eig)
    try:
        basis = timed("basis_from_graph", basis_from_graph, graph)
    finally:
        numkit.eig = eig
    times["basis_less_eig"] = times["basis_from_graph"] - times.pop("eig_in_basis")
    maxrss("basis_from_graph")
    timed("row_reduce_vertex", numkit.row_reduce, basis.igft[::-1, :k].T)
    timed("row_reduce_spectral", numkit.row_reduce, basis.igft[:, :k].T)
    timed("vertex_plan", sampling.vertex_plan, basis, band)
    plan = timed("spectral_plan", sampling.spectral_plan, basis, band)
    maxrss("plans")
    traced("plans", sampling.spectral_plan, basis, band)
    with tempfile.TemporaryDirectory(prefix="gsptk-stages-") as tmp:
        timed("write_plan", sampling.write_plan, plan, Path(tmp) / "plan.json")
    timed("basis_cycle", basis_from_graph, build(GraphKind.RING, n))
    return {"metrics": {**{name: {"value": v, "unit": "ms"} for name, v in times.items()},
                        **{name: {"value": v, "unit": "MB"} for name, v in mb.items()}}}


def paired(parent: Path, change: Path, n: int) -> dict:
    """The paired mode's record of size ``n``: per stage, the ratios' and each side's summaries, the
    verdict and the raw times in ms."""
    sys.path[:0] = [str(change / "perfbench")]
    import numpy as np
    import workloads

    bg = workloads.band_graph(np.random.default_rng([1, 1]), n)
    calls = {}
    for side, checkout in zip(SIDES, (parent, change)):
        spec = importlib.util.spec_from_file_location(f"gsptk_{side}", checkout / "src/gsptk/__init__.py",
                                                      submodule_search_locations=[str(checkout / "src/gsptk")])
        pkg = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pkg)
        graph, band = pkg.Graph(bg.adjacency), pkg.BandSpec(tuple(range(bg.k)))
        basis = pkg.basis_from_graph(graph)
        calls[side] = {"basis_from_graph": (pkg.basis_from_graph, graph),
                       "vertex_plan": (pkg.vertex_plan, basis, band),
                       "spectral_plan": (pkg.spectral_plan, basis, band)}
    metrics, runs = {}, {}
    for name in calls["change"]:
        times = {side: [] for side in SIDES}
        for i in range(PAIRS[name]):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                fn, *args = calls[side][name]
                gc.collect()
                start = time.perf_counter()
                fn(*args)
                times[side].append((time.perf_counter() - start) * 1e3)
        ratio = summary([c / p for p, c in zip(times["parent"], times["change"])])
        faster = ratio["median"] < 0.98 and ratio["q3"] < 1
        slower = ratio["median"] > 1.02 and ratio["q1"] > 1
        metrics[name] = {"unit": "ms", "pairs": PAIRS[name], "ratio": ratio,
                         **{s: summary(times[s]) for s in SIDES},
                         "verdict": "faster" if faster else "slower" if slower else "no change"}
        runs[name] = {s: [round(t, 3) for t in times[s]] for s in SIDES}
        print(f"n={n} {name}: {metrics[name]['ratio']} {metrics[name]['verdict']}", file=sys.stderr, flush=True)
    return {"n": n, "k": bg.k, "metrics": metrics, "runs": runs}


def child(mode: str, *args) -> dict:
    """The JSON output of this script's ``mode`` in a fresh process with one BLAS thread."""
    env = {**os.environ, **{v: "1" for v in BLAS_VARIABLES}}
    argv = [sys.executable, __file__, mode, *map(str, args)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env)  # its stderr shows progress
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[2:])} exited {proc.returncode}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--write"]:
        print(json.dumps(write(Path(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]))))
        return 0
    if argv is None and sys.argv[1:2] == ["--stages"]:
        print(json.dumps(stages(Path(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]), int(sys.argv[5]))))
        return 0
    if argv is None and sys.argv[1:2] == ["--pair"]:
        print(json.dumps(paired(Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json at the repository root")
    parser.add_argument("--change", dest="what", required=True, help="one line on what the change does")
    parser.add_argument("--paired", action="store_true", help="time stage ratios in one process; see the docstring")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {
        "label": args.label,
        "change": args.what,
        "command": "python3 tools/stage_times.py "
                   + ("--pair PARENT CHANGE N" if args.paired else "--stages CHECKOUT N GRAPH K"),
        "protocol": ("one process per size with one BLAS thread imports both checkouts and times each stage "
                     f"in the pairs {PAIRS} gives it, the parent first on even pairs, "
                     "gc.collect() before each call; ratio is change / parent per pair; the verdict rule is "
                     "the script's docstring"
                     if args.paired else
                     "parent and change alternate, the parent first on even runs; each run is a fresh "
                     "process with one BLAS thread that reads a graph file another process wrote and "
                     "times each stage once; maxrss_<stage> is its ru_maxrss in MB after that stage; "
                     "tracemalloc_plans is the traced peak in MB of one more, untimed spectral_plan call")
                    + "; the value of a metric is the median, with the first and third quartiles "
                      "(statistics.quantiles, n=4)",
        "host": {
            "cores": os.cpu_count(),
            "blas_threads": 1,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
        "workloads": {},
        "runs": {},
    }
    for n in SIZES:
        name = f"band_graph_{n}"
        if args.paired:
            record["workloads"][name] = child("--pair", checkouts["parent"], checkouts["change"], n)
            record["runs"][name] = record["workloads"][name].pop("runs")
            continue
        runs = {side: [] for side in SIDES}
        with tempfile.TemporaryDirectory(prefix="gsptk-stages-") as tmp:
            graphs = {side: Path(tmp) / f"{side}.json" for side in SIDES}
            band = {side: child("--write", checkouts[side], n, graphs[side])["k"] for side in SIDES}
            for i in range(RUNS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = child("--stages", checkouts[side], n, graphs[side], band[side])
                    runs[side].append(result)
                    shown = {name: round(v["value"], 1) for name, v in result["metrics"].items()}
                    print(f"n={n} run {i} {side}: {shown}", file=sys.stderr, flush=True)
        record["workloads"][name] = {"n": n, "k": band["change"], "pairs": RUNS, "metrics": compare(runs)}
        record["runs"][name] = {s: [{k: round(v["value"], 3) for k, v in r["metrics"].items()}
                                    for r in runs[s]] for s in SIDES}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
