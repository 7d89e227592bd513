"""Benchmark of one ``execute_spec(RunSpec)``, normalised to host speed.

Run from the root of a checkout::

    python3 specbench/run.py --workload hmp1024-smart --seed 0 --seconds 30 --trace 0
    python3 specbench/run.py --workload hmp1024-smart --seed 0 --pin

The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); a human summary goes to stderr.  See
``specbench/README.md``.
"""

import os
import sys

# Pin the BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"specbench: no src/repro under {ROOT}; run from a checkout of the repo",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from specbench.bench import main

    sys.exit(main())
