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
``check_assumptions`` of that basis, ``numkit.row_reduce`` of the matrix
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
timed run, ``check_assumptions`` runs once more, untimed, under
``tracemalloc``, whose peak is recorded as ``tracemalloc_check_assumptions``
(MB). Each checkout runs RUNS times per size,
the two alternating, the parent first on even runs. The record is
``tools/bench_pairs.py``'s: per size and stage, each side's median and
quartiles over its runs, the change's relative difference of the medians and
how many pairs the change read lower or higher, plus the host and every
run's values.
"""

from __future__ import annotations

import argparse
import functools
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

from bench_pairs import SIDES, compare

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (400, 1600)  # the benchmark's size and the north star's
RUNS = 5  # per side and size: the fewest a BENCH_<label>.json median may rest on


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
    from gsptk import BandSpec, GraphKind, basis_from_graph, build, check_assumptions, numkit, read_graph, sampling

    band = BandSpec(tuple(range(k)))
    times, mb = {}, {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name] = (time.perf_counter() - start) * 1e3
        return out

    def maxrss(name):  # ru_maxrss is in KiB on Linux
        mb[f"maxrss_{name}"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

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
    timed("check_assumptions", check_assumptions, basis)
    tracemalloc.start()
    try:
        check_assumptions(basis)
        mb["tracemalloc_check_assumptions"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    timed("row_reduce_vertex", numkit.row_reduce, basis.igft[::-1, :k].T)
    timed("row_reduce_spectral", numkit.row_reduce, basis.igft[:, :k].T)
    timed("vertex_plan", sampling.vertex_plan, basis, band)
    plan = timed("spectral_plan", sampling.spectral_plan, basis, band)
    maxrss("plans")
    with tempfile.TemporaryDirectory(prefix="gsptk-stages-") as tmp:
        timed("write_plan", sampling.write_plan, plan, Path(tmp) / "plan.json")
    timed("basis_cycle", basis_from_graph, build(GraphKind.RING, n))
    return {"metrics": {**{name: {"value": v, "unit": "ms"} for name, v in times.items()},
                        **{name: {"value": v, "unit": "MB"} for name, v in mb.items()}}}


def child(mode: str, checkout: Path, *args) -> dict:
    """The JSON output of this script's ``mode`` in a fresh process with one BLAS thread."""
    env = {**os.environ, **{v: "1" for v in BLAS_VARIABLES}}
    argv = [sys.executable, __file__, mode, str(checkout), *map(str, args)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[2:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--write"]:
        print(json.dumps(write(Path(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]))))
        return 0
    if argv is None and sys.argv[1:2] == ["--stages"]:
        print(json.dumps(stages(Path(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]), int(sys.argv[5]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json at the repository root")
    parser.add_argument("--change", dest="what", required=True, help="one line on what the change does")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {
        "label": args.label,
        "change": args.what,
        "command": "python3 tools/stage_times.py --stages CHECKOUT N GRAPH K",
        "protocol": "parent and change alternate, the parent first on even runs; each run is a fresh "
                    "process with one BLAS thread that reads a graph file another process wrote and "
                    "times each stage once; maxrss_<stage> is its ru_maxrss in MB after that stage; "
                    "tracemalloc_check_assumptions is the traced peak in MB of one more, untimed "
                    "check_assumptions call; "
                    "the value of a metric is the median over runs, with the first and third "
                    "quartiles (statistics.quantiles, n=4)",
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
        name = f"band_graph_{n}"
        record["workloads"][name] = {"n": n, "k": band["change"], "pairs": RUNS, "metrics": compare(runs)}
        record["runs"][name] = {s: [{k: round(v["value"], 3) for k, v in r["metrics"].items()}
                                    for r in runs[s]] for s in SIDES}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
