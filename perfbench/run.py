"""Benchmark of the gsptk command-line pipelines, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample_recover_spectral --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Inputs, outputs,
per-run details and span files go to ``.perfbench_out/`` in the checkout.
See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

# BLAS threads for the whole process, fixed before numpy loads OpenBLAS:
# one thread keeps timings steady and is within nproc on any machine.
BLAS_THREADS = 1
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    for var in _BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "gsptk" / "__init__.py").is_file():
        print(f"perfbench: no gsptk sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(argv, ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
