"""Run-to-run spread of the end-to-end metrics, and a held-out seed check.

    python3 perfbench/spread.py --workload separate --seeds 1-10 [--heldout 1000]

Runs ``run.py`` once per seed, then prints, for each end-to-end metric of
``BENCHMARK.json``, the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound.  A spread above the bound fails, ``setup_s``
included; a spread above a third of the bound is flagged, since a third is
the target for a steady benchmark.  With ``--heldout``, one more
run on a seed not used while tuning must land within the tuning runs'
range widened by the metric's bound.  ``--json PATH`` also writes the
per-seed values, medians and spreads, with failed/attempted counts, to PATH.
Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs failed their checks\n{proc.stdout}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--heldout", type=int)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    seeds = parse_seeds(args.seeds)
    failed = attempted = 0
    for seed in seeds:
        result = run_once(args.workload, seed, seconds)
        failed += result["failed"]
        attempted += result["attempted"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}  " + "  ".join(
            f"{name} {result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)

    ok = True
    summary = {"workload": args.workload, "seconds": seconds, "seeds": seeds,
               "failed": failed, "attempted": attempted, "metrics": {}}
    print(f"{'metric':<16} {'median':>10} {'iqr/median':>11} {'bound':>8}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        note = ""
        if spread > bounds[name]:
            ok, note = False, "  too wide"
        elif spread > bounds[name] / 3:
            note = "  above a third of the bound"
        summary["metrics"][name] = {"median": med, "iqr_share": spread, "values": vals}
        print(f"{name:<16} {med:>10.4g} {spread:>11.3%} {bounds[name]:>8.3%}{note}")

    if args.heldout is not None:
        result = run_once(args.workload, args.heldout, seconds)
        for name, vals in values.items():
            lo = min(vals) * (1 - bounds[name])
            hi = max(vals) * (1 + bounds[name])
            value = result["metrics"][name]["value"]
            inside = lo <= value <= hi
            ok = ok and inside
            print(f"held-out seed {args.heldout}: {name} {value:.4g} "
                  f"{'within' if inside else 'OUTSIDE'} [{lo:.4g}, {hi:.4g}]")
            summary["metrics"][name]["heldout"] = value
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
