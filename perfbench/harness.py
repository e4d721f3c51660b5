"""Run one workload and print its metrics as one JSON line.

The run, in order: import gsptk (timed), write the inputs three times
(timed; ``setup_s`` is the import plus the median write), compute the
references the checks compare against, warm up on the first calls of each
pipeline at full size, then run a fixed number of rounds. A speed probe
(``speed.py``) runs between calls, and the end-to-end times are divided by
the run's speed factor. Each CLI call goes in process through
``gsptk.cli.main``, with its stdout captured, and is checked as soon as it
returns. With ``--trace 1`` every round runs twice, untraced then traced, and
the per-layer metrics come from the traced copies.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import speed
import workloads

SETUP_REPEATS = 3
# Uncounted calls per pipeline before timing: a sample and a recover, or a
# convolve in each domain. The first full-size call of a kind ran 10-50%
# slower than the later ones.
WARMUP_OPS = 2

# End-to-end metrics: name and unit. Every one is lower-is-better.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sample_s", "s"),
    ("recover_s", "s"),
    ("recover_p90_s", "s"),
    ("convolve_s", "s"),
    ("plan_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Record:
    kind: str
    seconds: float
    failed: bool
    wrong: bool  # the call returned 0 but its output failed the check
    reason: str | None
    plan_bytes: int | None = None


def run_op(cli, op: workloads.Op) -> Record:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    code, reason = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a crashed run
            reason = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    if reason is None and code != 0:
        reason = f"exit {code}: {err.getvalue().strip()}"
    wrong = False
    if reason is None:
        reason = op.check()
        wrong = reason is not None
    size = op.plan.stat().st_size if op.plan is not None and op.plan.exists() else None
    return Record(op.kind, seconds, reason is not None, wrong, reason, size)


def run_round(cli, workload, r: int, probe: speed.Probe, tracer: spans.Tracer | None = None) -> list[Record]:
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for op in workload.round(r):
            probe.maybe()
            if tracer is not None:
                tracer.op = len(tracer.spans)
            records.append(run_op(cli, op))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def warm_up(cli, workload, probe: speed.Probe) -> None:
    for pipeline, _ in workload.parts:
        for op in itertools.islice(pipeline.round(0), WARMUP_OPS):
            probe.maybe()
            run_op(cli, op)


def rounds_for(name: str, seconds: float) -> int:
    """A fixed amount of work per run: ``seconds`` worth of rounds at the
    round time measured when the benchmark was defined, so that ``wall_s``
    compares the same work across commits."""
    return max(2, round(seconds / workloads.WORKLOADS[name].round_s))


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    def seconds(kind):
        """Call times of one kind, from the calls that did not fail while
        at least two did not."""
        ok = [r.seconds for r in records if r.kind == kind and not r.failed]
        return ok if len(ok) >= 2 else [r.seconds for r in records if r.kind == kind]

    sizes = [r.plan_bytes for r in records if r.plan_bytes is not None]
    return {
        "setup_s": setup_s,
        "wall_s": sum(r.seconds for r in records),
        # means, not medians: on a host that switches between a fast and a
        # slow state, the median of a run's calls jumps between the two
        "sample_s": statistics.fmean(seconds("sample")),
        "recover_s": statistics.fmean(seconds("recover")),
        # inclusive: interpolate within the observed calls, never beyond the slowest
        "recover_p90_s": statistics.quantiles(seconds("recover"), n=10, method="inclusive")[-1],
        "convolve_s": statistics.fmean(seconds("convolve")),
        "plan_bytes": statistics.median(sizes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, out_root: Path | None = None,
        blas_threads: int | None = None, small: bool = False) -> dict:
    """Run one workload and return the result object (the last output line).

    ``small`` runs two rounds at small sizes, for tests.
    Files go under ``out_root`` (default ``.perfbench_out`` in ``root``).
    """
    start = time.perf_counter()
    import gsptk.cli as cli

    import_s = time.perf_counter() - start
    src = (root / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"gsptk was imported from {cli.__file__}, not from {src}")

    out_dir = (out_root or root / ".perfbench_out") / name
    shutil.rmtree(out_dir, ignore_errors=True)
    rounds = 2 if small else rounds_for(name, seconds)
    workload = workloads.Workload(name, seed, rounds, out_dir / "inputs", small)
    probe = speed.Probe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        probe.run()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    workload.references()

    warm_up(cli, workload, probe)

    records, traced = [], []
    tracer = spans.Tracer() if trace else None
    for r in range(rounds):
        records += run_round(cli, workload, r, probe)
        if tracer is not None:
            traced += run_round(cli, workload, r, probe, tracer)
    everything = records + traced

    raw = end_to_end(records, setup_s)
    factor = probe.factor()
    if tracer is None:
        units = dict(END_TO_END)
        # times in seconds at the reference host speed (speed.py); sizes as measured
        metrics = {k: (v / factor if units[k] == "s" else v, units[k]) for k, v in raw.items()}
    else:
        tracer.write(out_dir / f"trace-seed{seed}.jsonl")
        metrics = spans.layer_metrics(tracer.spans)
        overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in records)
        metrics["trace.overhead_s"] = (overhead, "s")

    result = {
        "correct": not any(r.wrong for r in everything),
        "attempted": len(everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "rounds": rounds,
        "blas_threads": blas_threads, "nproc": os.cpu_count(),
        "failures": [r.reason for r in everything if r.failed],
        "speed_factor": factor, "probe_seconds": probe.times, "unscaled_end_to_end": raw,
        "seconds_by_kind": {k: [r.seconds for r in records if r.kind == k] for k in ("sample", "recover", "convolve")},
        "result": result,
    }
    (out_dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def main(argv, root: Path, blas_threads: int) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, blas_threads=blas_threads)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} blas_threads={blas_threads} "
        f"attempted={result['attempted']} failed={result['failed']}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0
