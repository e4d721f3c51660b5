"""Print each mutant of numkit's tolerance table that tier-1 does not kill.

    python3 tools/cut_audit.py [CHECKOUT]

CHECKOUT (default: this repository) is copied to a temporary directory, whose tier-1 run, ``python
-m pytest -q -x tests perfbench`` with the running interpreter, must pass. Then, for each constant
of the table at the top of ``src/gsptk/numkit.py`` and each factor in ``FACTORS``, the copy's
table gets that one constant multiplied by the factor, and tier-1 runs again. A mutant whose run
passes survives: no test pins that constant's value within the factor. Each survivor is printed
as ``NAME xFACTOR`` when its run ends, then a count; the exit code is 1 if any survived.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FACTORS = (1000.0, 10.0, 0.1, 0.001)
# a line of the table: an upper-case name bound to a float literal
CONSTANT = re.compile(r"^([A-Z][A-Z0-9_]*) = ([0-9.]+e-?[0-9]+)$", re.M)
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out", "BENCH_*")


def passes(copy: Path) -> bool:
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests", "perfbench"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # no stale bytecode of another mutant
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=ROOT)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(args.checkout, copy, ignore=SKIP)
        if not passes(copy):
            sys.exit(f"{args.checkout}: tier-1 fails before any mutation")
        numkit, survivors, total = copy / "src" / "gsptk" / "numkit.py", [], 0
        source = numkit.read_text()
        for m in CONSTANT.finditer(source):
            for factor in FACTORS:
                numkit.write_text(f"{source[:m.start(2)]}{float(m.group(2)) * factor!r}{source[m.end(2):]}")
                mutant, total = f"{m.group(1)} x{factor:g}", total + 1
                if passes(copy):
                    survivors.append(mutant)
                    print(mutant, flush=True)
    print(f"{len(survivors)} of {total} mutants survive", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
