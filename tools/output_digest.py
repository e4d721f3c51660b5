"""Run the same gsptk commands from two checkouts; list every output whose bytes differ, exit 1 if any.

    python3 tools/output_digest.py PARENT CHANGE

CHANGE's ``perfbench/workloads.py`` writes the inputs once: the 16- and 256-node cycles with complex
x and y in both domains, and ``band_graph(default_rng([1, 1]), n)`` at n = 60 and 400 with a
bandlimited vertex signal. Each checkout's ``gsptk.cli.main`` then runs, in one process with one
BLAS thread: every demo, and each fixed-size demo again with ``--n 3``; ``convolve`` in both domains
with both ``--impulse`` values and ``gft`` on the cycles; ``sample`` on both routes, ``recover`` of its
samples and ``gft`` on the band graphs; on the 60-node band graph, ``recover --graph --truth`` of the
vertex plan, ``sample --band all``, ``gft`` under ``--tol``, and ``spectral-shift`` to a dense CSV
graph that ``gft`` and ``sample --band all`` read back; on the bundled bases, ``sample --delta
0,1,0,1`` and its ``recover`` on the example4 graph, and ``convolve`` on the 5-star with both
``--impulse`` values; ``spectral-shift`` of every graph, with and without ``--variant``. Outputs
include the process's stdout and stderr and the exit codes; one differs when its sha256 does, or
when one side lacks it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXED_SIZE_DEMOS = ("star_m", "example4_vertex", "example4_spectral", "replication_compare", "convolution")
EXAMPLE4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]]
RUN = ("import json, pathlib, sys\nfrom gsptk import cli\n"
       "cmds = [['demo', name] for name in cli.DEMO_NAMES] + json.load(sys.stdin)\n"
       "codes = [[argv, cli.main(argv)] for argv in cmds]\n"
       "pathlib.Path('exit_codes.json').write_text(json.dumps(codes, indent=0))\n")


def write_inputs(change: Path, inputs: Path) -> list[list[str]]:
    """Write the inputs with CHANGE's workloads; the commands that read them."""
    sys.path[:0] = [str(change / "perfbench")]
    import numpy as np
    import workloads

    inputs.mkdir()
    cmds = [["demo", name, "--n", "3"] for name in FIXED_SIZE_DEMOS]
    data = change / "src" / "gsptk" / "_data"
    g, x = inputs / "example4.graph.json", inputs / "example4.xhat.json"
    workloads.write_graph(g, np.array(EXAMPLE4, dtype=float))
    workloads.write_signal(x, np.array([1.0, 2.0, 0.0, 0.0]), "spectral")
    cmds += [["sample", str(g), str(x), "--domain", "spectral", "--band", "0,1", "--delta", "0,1,0,1",
              "--basis", str(data / "example4_basis.json"), "--out", "sample_example4"],
             ["recover", "sample_example4.plan.json", "sample_example4.samples.json", "--out", "recover_example4.json"]]
    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = 1.0
    g, x, y = inputs / "star5.graph.json", inputs / "star5.x.json", inputs / "star5.y.json"
    workloads.write_graph(g, star)
    for path, values in zip((x, y), workloads.complex_normal(np.random.default_rng([1, 5]), (2, 5))):
        workloads.write_signal(path, values, "vertex")
    for imp in ("vertex", "flat"):
        cmds.append(["convolve", str(g), str(x), str(y), "--impulse", imp, "--basis", str(data / "star5_basis.json"),
                     "--out", f"convolve_star5_{imp}"])
    for n in (16, 256):
        rng = np.random.default_rng([1, n])
        g = inputs / f"cycle{n}.graph.json"
        workloads.write_graph(g, workloads.cycle_adjacency(n))
        for d in ("vertex", "spectral"):
            x, y = (inputs / f"cycle{n}.{d}.{s}.json" for s in "xy")
            for path, values in zip((x, y), workloads.complex_normal(rng, (2, n))):
                workloads.write_signal(path, values, d)
            cmds.append(["gft", str(g), str(x), "--out", f"gft_cycle{n}_{d}.json"])
            for imp in ("vertex", "flat"):
                cmds.append(["convolve", str(g), str(x), str(y), "--domain", d, "--impulse", imp,
                             "--out", f"convolve_cycle{n}_{d}_{imp}"])
    for n in (60, 400):
        rng = np.random.default_rng([1, 1])
        bg = workloads.band_graph(rng, n)
        g, x = inputs / f"band{n}.graph.json", inputs / f"band{n}.x.json"
        workloads.write_graph(g, bg.adjacency)
        workloads.write_signal(x, bg.vectors[:, : bg.k] @ workloads.complex_normal(rng, bg.k), "vertex")
        cmds.append(["gft", str(g), str(x), "--out", f"gft_band{n}.json"])
        for route in ("spectral", "vertex"):
            out = f"sample_band{n}_{route}"
            cmds += [["sample", str(g), str(x), "--domain", route, "--band", ",".join(map(str, range(bg.k))),
                      "--out", out],
                     ["recover", f"{out}.plan.json", f"{out}.samples.json", "--out", f"recover_band{n}_{route}.json"]]
    g, x = inputs / "band60.graph.json", inputs / "band60.x.json"
    cmds += [["recover", "sample_band60_vertex.plan.json", "sample_band60_vertex.samples.json", "--graph", str(g),
              "--truth", str(x), "--out", "recover_band60_vertex_checked.json"],
             ["sample", str(g), str(x), "--domain", "vertex", "--band", "all", "--out", "sample_band60_all"],
             ["--tol", "1e-6", "gft", str(g), str(x), "--out", "gft_band60_tol.json"],
             ["spectral-shift", str(g), "--out", "shift_band60.csv"],
             ["gft", "shift_band60.csv", str(x), "--out", "gft_shift_band60.json"],
             ["sample", "shift_band60.csv", str(x), "--domain", "spectral", "--band", "all", "--out", "sample_shift_band60"]]
    for g in sorted(inputs.glob("*.graph.json")):
        name = g.name.removesuffix(".graph.json")
        cmds += [["spectral-shift", str(g), "--out", f"shift_{name}.json"],
                 ["spectral-shift", str(g), "--variant", "--out", f"shift_{name}_variant.json"]]
    return cmds


def run(checkout: Path, cmds: list[list[str]], out: Path) -> dict[str, str]:
    """Run ``cmds`` with ``checkout``'s gsptk in ``out``; the sha256 of every file it wrote."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "GSP_OUT_DIR": "demos",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with open(out / "stdout.txt", "w") as stdout, open(out / "stderr.txt", "w") as stderr:
        subprocess.run([sys.executable, "-c", RUN], input=json.dumps(cmds), text=True, cwd=out, env=env,
                       stdout=stdout, stderr=stderr, check=True)
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cmds = write_inputs(args.change.resolve(), Path(tmp) / "inputs")
        parent, change = (run(c.resolve(), cmds, Path(tmp) / side)
                          for c, side in ((args.parent, "parent"), (args.change, "change")))
    differ = sorted(name for name in parent.keys() | change.keys() if parent.get(name) != change.get(name))
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} outputs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
