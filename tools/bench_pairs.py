"""Run perfbench from two checkouts in alternating pairs and write BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --label NAME --change "what changed" \
        --claim recover_stream_vertex:recover_s --seeds 1-10

PARENT and CHANGE are checkouts, each with ``perfbench/`` and ``src/gsptk``.
The workloads and the run length are those CHANGE's ``BENCHMARK.json``
declares. Both checkouts' ``src`` and ``perfbench`` are byte-compiled first,
with the running interpreter, so that a bytecode cache on one side only does
not read as import time (it would under PYTHONDONTWRITEBYTECODE). For
every seed and workload, both run ``perfbench/run.py`` one after the other,
the parent first on odd seeds and the change first on even ones, so a drift
of the host's speed favours neither side. Runs are
sequential. The record holds, per workload and end-to-end metric, each
side's median and quartiles over its runs, the change's relative difference
of the medians, and how many pairs the change read lower or higher.
perfbench divides each time by its run's speed factor (the mean
speed-probe time over a reference), and a shorter run takes fewer probes,
so the record also keeps every run's factor and raw times: per workload,
each side's factor, and per time metric, each side's unscaled median and
quartiles. Also the graph sizes the runs used, the operation counts, the
host (cores, BLAS threads, Python, numpy and scipy) and every run's
metrics. One ``--trace 1`` run per side and workload, on the seed after
the last, adds the per-layer totals that changed, which show where a gain
comes from. The claim verdict follows the rule the benchmark's bounds
assume: the change is lower in at least nine tenths of the pairs, and its
median is below the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run: its result line, plus the graph sizes and BLAS threads it used,
    its speed factor and its end-to-end values before the factor's scaling."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = checkout / ".perfbench_out" / workload
    detail = json.loads((out / f"result-seed{seed}-trace{trace}.json").read_text())
    sizes = {p.name: json.loads(p.read_text())["n"] for p in sorted((out / "inputs").glob("*graph.json"))}
    return {**result, "n": sizes, "blas_threads": detail["blas_threads"],
            "speed_factor": detail["speed_factor"], "unscaled": detail["unscaled_end_to_end"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Per metric: each side's summary and the pairwise verdicts (runs are paired by index);
    for a time whose runs carry their unscaled values, each side's summary of those."""
    metrics = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        stats = {side: summary(values[side]) for side in SIDES}
        base = stats["parent"]["median"]
        pairs = list(zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": first["unit"],
            **stats,
            "change_vs_parent": round(stats["change"]["median"] / base - 1, 4) if base else None,
            "pairs_change_lower": sum(c < p for p, c in pairs),
            "pairs_change_higher": sum(c > p for p, c in pairs),
        }
        if first["unit"] == "s" and "unscaled" in runs["parent"][0]:
            metrics[name]["unscaled"] = {side: summary([r["unscaled"][name] for r in runs[side]])
                                         for side in SIDES}
    return metrics


def verdict(record: dict, workload: str, metric: str) -> dict:
    m = record["workloads"][workload]["metrics"][metric]
    parent, change = m["parent"], m["change"]
    pairs = record["workloads"][workload]["pairs"]
    gain = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    return {
        "metric": metric, "workload": workload,
        "pairs_change_lower": m["pairs_change_lower"], "pairs": pairs,
        "median_drop": round(gain, 6), "parent_iqr": round(iqr, 6),
        "met": m["pairs_change_lower"] >= 0.9 * pairs and gain > iqr,
    }


def traced(checkouts: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    values = {s: {k: v["value"] for k, v in run_once(checkouts[s], workload, seed, seconds, 1)["metrics"].items()}
              for s in SIDES}
    changed = [k for k in values["parent"] if values["parent"][k] != values["change"].get(k)]
    return {s: {k: round(values[s][k], 1) for k in changed} for s in SIDES}


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json at the repository root")
    parser.add_argument("--change", dest="what", required=True, help="one line on what the change does")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to lower; omit when it claims no gain")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10 or 1,3,5")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    names, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    trace_seed = args.seeds[-1] + 1
    for checkout in checkouts.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout, check=True)

    runs = {w: {side: [] for side in SIDES} for w in names}
    for seed in args.seeds:
        for w in names:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = run_once(checkouts[side], w, seed, seconds)
                runs[w][side].append({"seed": seed, **result})
                shown = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"seed {seed} {w} {side}: failed={result['failed']} factor={result['speed_factor']:.3f} "
                      f"{shown}", file=sys.stderr, flush=True)

    record = {
        "label": args.label,
        "change": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": "parent and change alternate, the parent first on odd seeds; each side runs from its "
                    "own checkout; the value of a metric is the median over runs, with the first and "
                    "third quartiles (statistics.quantiles, n=4)",
        "host": {
            "cores": os.cpu_count(),
            "blas_threads": sorted({r["blas_threads"] for w in names for s in SIDES for r in runs[w][s]}),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
        "workloads": {},
    }
    for w in names:
        record["workloads"][w] = {
            "n": runs[w]["change"][-1]["n"],
            "pairs": len(args.seeds),
            "seeds": args.seeds,
            "attempted": {s: sum(r["attempted"] for r in runs[w][s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in runs[w][s]) for s in SIDES},
            "all_correct": all(r["correct"] for s in SIDES for r in runs[w][s]),
            "speed_factor": {s: summary([r["speed_factor"] for r in runs[w][s]]) for s in SIDES},
            "metrics": compare(runs[w]),
        }
    record["claim"] = verdict(record, *args.claim.split(":", 1)) if args.claim else None
    record["runs"] = {w: {s: [{"seed": r["seed"], **{k: v["value"] for k, v in r["metrics"].items()},
                               "speed_factor": r["speed_factor"], "unscaled": r["unscaled"]}
                              for r in runs[w][s]] for s in SIDES} for w in names}
    record["trace"] = {
        "command": f"python3 perfbench/run.py --workload W --seed {trace_seed} --seconds {seconds:g} --trace 1",
        "note": "one run per side; each value is the total over the run's traced calls; "
                "only the layer metrics whose values differ between the sides",
        "workloads": {w: traced(checkouts, w, trace_seed, seconds) for w in names},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    met = record["claim"]["met"] if args.claim else "no claim"
    print(f"wrote {out}; claim met: {met}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
