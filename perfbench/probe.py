"""Set-up probe: a fresh interpreter that imports the CLI and prepares inputs.

Run by ``run.py``, which times it from spawn until the first line this
prints, i.e. until the first request could be sent.  That line holds the
import and input-preparation times measured inside the child.  A second
line, after the ready point, holds the reference kernel's times in this
process; with the parent's kernel runs just before the spawn, they rescale
the set-up time to reference speed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import env
from speed import SETUP_RUNS, kernel_times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    env.setup()
    t0 = time.perf_counter()
    import bicomplex.cli  # noqa: F401  (numpy comes with it)
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].prepare(args.seed, Path(args.workdir))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    print(json.dumps({"kernel_s": kernel_times(SETUP_RUNS)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
