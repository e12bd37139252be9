"""Seeded benchmark of the bicomplex library: separate, gauge and verify.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload separate --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in one process sends the next
request when the previous one returns.  ``--trace 0`` measures the
end-to-end metrics of one workload; ``--trace 1`` is the separate traced
run, which profiles all three mixes so every per-layer metric is measured
on every traced run (``--workload`` then only picks the inputs of the set-up
probes that time the import).  Every output is checked, outside the timed
region, by ``check.py``, which shares no code with the library.

A human-readable table goes to stdout first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import NamedTuple

import env
from speed import REF_MS, SETUP_RUNS, SpeedProbe, factor_of, kernel_times

WORKLOAD_NAMES = ("separate", "gauge", "verify")
PROBES = 15  # fresh interpreters per run; setup_s is their median
COLD_REPS = 3  # spawns per cold-CLI metric; the median is reported
# Share of a traced run's seconds per mix: separate's requests are the
# slowest, so it gets half to trace a comparable number of them.
TRACE_SHARE = {"separate": 0.5, "gauge": 0.25, "verify": 0.25}
CHILD_TIMEOUT_S = 120


# -- set-up ------------------------------------------------------------------------


def probe_setup(workload: str, seed: int, workdir: Path) -> dict:
    """Spawn a fresh interpreter that imports the CLI and prepares the inputs.

    Returns the wall time from spawn until the child reports it is ready to
    send its first request, also at reference speed, plus the child's own
    import and input times.  The rescaling factor comes from kernel runs
    on both sides of the set-up: here just before the spawn, and in the
    child once it is ready.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    before = kernel_times(SETUP_RUNS)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env.child_env(),
                          cwd=env.ROOT, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        kernel = proc.stdout.readline()
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line or not kernel:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    timings = json.loads(line)
    timings["ready_s"] = ready
    timings["ready_ref_s"] = ready * factor_of(before + json.loads(kernel)["kernel_s"])
    return timings


# -- the closed loop ---------------------------------------------------------------


class Record(NamedTuple):
    index: int  # into the request pool
    latency: float  # seconds
    start: float  # perf_counter() when sent


class Loop(NamedTuple):
    records: list[Record]
    # (pool index, output, error) -> how many requests returned it.  The
    # library is deterministic, so this holds at most one output per request
    # of the pool, each checked once, however many requests a run completes.
    outcomes: Counter


def closed_loop(wl, requests, seconds: float, tracer=None, speed=None) -> Loop:
    """Send requests back to back for ``seconds``; between requests, let the
    speed probe time its kernel (outside every request's latency)."""
    gc.collect()
    records = []
    outcomes: Counter = Counter()
    n = len(requests)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if speed is not None:
            speed.tick()
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        if tracer is not None:
            tracer.request = i
        try:
            outcome = i % n, wl.run(requests[i % n].payload), None
        except Exception as exc:  # a failed request is counted, never fatal
            outcome = i % n, None, f"{type(exc).__name__}: {exc}"
        records.append(Record(i % n, time.perf_counter() - t0, t0))
        outcomes[outcome] += 1
        i += 1
    if speed is not None:
        speed.sample()
    return Loop(records, outcomes)


def warm_up(wl, requests) -> None:
    """One request of each category, so lazy imports happen before timing."""
    seen = set()
    for req in requests:
        if req.category not in seen:
            seen.add(req.category)
            try:
                wl.run(req.payload)
            except Exception:  # counted when the timed loop meets it again
                pass


@dataclass
class Verdict:
    failed: int
    wrong: list  # (category, reason) of outputs that failed their check
    errors: Counter  # (category, reason) -> count, for every failed request


def judge(wl, requests, outcomes: Counter) -> Verdict:
    """Check each distinct output once and count every request that failed."""
    errors: Counter = Counter()
    wrong = []
    for (idx, output, error), count in outcomes.items():
        cat = requests[idx].category
        if error is not None:
            errors[(cat, error.split(":")[0])] += count
            continue
        reason = wl.check(requests[idx], output)
        if reason is not None:
            errors[(cat, "check failed")] += count
            wrong.append((cat, reason))
    return Verdict(sum(errors.values()), wrong, errors)


def percentile_90(latencies: list[float]) -> float:
    """Nearest-rank p90: at least 10 samples lie beyond it once n >= 100."""
    ordered = sorted(latencies)
    return ordered[ceil(0.9 * len(ordered)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reporting ---------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(title: str, rows: list[tuple[str, float, str, int]]) -> None:
    print(title)
    print(f"  {'metric':<52} {'value':>14} {'unit':<6} {'samples':>7}")
    for name, value, unit, samples in rows:
        print(f"  {name:<52} {value:>14.6g} {unit:<6} {samples:>7}")


def print_categories(requests, records, verdict: Verdict) -> None:
    by_cat: dict[str, list] = {}
    for idx, lat, _ in records:
        by_cat.setdefault(requests[idx].category, []).append(lat * 1000)
    failed: Counter = Counter()
    for (cat, _), count in verdict.errors.items():
        failed[cat] += count
    print(f"  {'category':<14} {'n':>5} {'p50_ms':>9} {'max_ms':>9} {'failed':>6}  (as measured)")
    for cat in sorted(by_cat):
        lats = by_cat[cat]
        print(f"  {cat:<14} {len(lats):>5} {statistics.median(lats):>9.3f} "
              f"{max(lats):>9.3f} {failed[cat]:>6}")


def print_verdict(verdict: Verdict) -> None:
    for (cat, reason), count in sorted(verdict.errors.items()):
        print(f"  failed: {cat} {reason} x{count}")
    for cat, reason in verdict.wrong[:5]:
        print(f"  wrong output: {cat}: {reason}")


def probe_touching(seed: int, workdir: Path) -> list:
    """Send each boundary-touching pair once, untimed; return the wrong outputs.

    An open A and a closed B that meet only on the boundary of A are strictly
    separable, but at the commit that introduced the benchmark the library
    raises on every such pair (a known defect).  A raised error is reported
    here and not counted in ``failed``; an output is checked like any other,
    so a fix that emits a wrong certificate makes the run incorrect.
    """
    from workloads import WORKLOADS, prepare_touching

    wl = WORKLOADS["separate"]
    requests = prepare_touching(seed, workdir)
    outcomes: Counter = Counter()
    for idx, req in enumerate(requests):
        try:
            outcomes[idx, wl.run(req.payload), None] += 1
        except Exception as exc:
            outcomes[idx, None, f"{type(exc).__name__}: {exc}"] += 1
    verdict = judge(wl, requests, outcomes)
    print(f"  boundary-touching pairs, once each outside the timed loop: "
          f"{len(requests) - verdict.failed} of {len(requests)} certified")
    print_verdict(verdict)
    return verdict.wrong


# -- end-to-end run ----------------------------------------------------------------


def latency_rows(lat_ms: list[float], suffix: str = "") -> list[tuple[str, float, str, int]]:
    """Closed-loop throughput (requests back to back) and latency quantiles."""
    n = len(lat_ms)
    return [
        ("throughput_rps" + suffix, 1000 * n / sum(lat_ms), "1/s", n),
        ("latency_p50_ms" + suffix, statistics.median(lat_ms), "ms", n),
        ("latency_p90_ms" + suffix, percentile_90(lat_ms), "ms", n),
    ]


def run_end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    probes = [probe_setup(workload, seed, workdir / f"probe{k}") for k in range(PROBES)]
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    requests = wl.prepare(seed, workdir / "inputs")
    warm_up(wl, requests)
    speed = SpeedProbe()
    loop = closed_loop(wl, requests, seconds, speed=speed)
    rss = peak_rss_mb()  # before the checks import scipy
    verdict = judge(wl, requests, loop.outcomes)
    records = loop.records

    attempted = len(records)
    ref_ms = [1000 * r.latency * speed.factor(r.start + r.latency / 2) for r in records]
    raw_ms = [1000 * r.latency for r in records]
    rows = latency_rows(ref_ms) + [
        ("error_rate", verdict.failed / attempted, "ratio", attempted),
        ("setup_s", statistics.median(p["ready_ref_s"] for p in probes), "s", len(probes)),
        ("peak_rss_mb", rss, "MB", 1),
    ]
    print_table(f"workload {workload}  seed {seed}  {seconds:g} s  closed loop, 1 client  "
                "(times at reference speed)", rows)
    kernel = statistics.median(speed.durations) * 1000
    print_table(f"  as measured, host at {REF_MS / kernel:.3g} of reference speed "
                f"(kernel median {kernel:.3f} ms over {len(speed.durations)} runs)",
                latency_rows(raw_ms, ".raw") + [
                    ("setup_s.raw", statistics.median(p["ready_s"] for p in probes), "s",
                     len(probes))])
    print_categories(requests, records, verdict)
    print_verdict(verdict)
    wrong = verdict.wrong
    if workload == "separate":
        wrong = wrong + probe_touching(seed, workdir / "touching")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {name: metric(v, u) for name, v, u, _ in rows if name != "error_rate"},
    }


# -- traced run --------------------------------------------------------------------

# Per-layer metrics reported for each mix: (name, kind, span or sample name).
# "calls" and "self_ms" are per request; "max" and "mean" are over samples.
LAYER_METRICS = {
    "separate": [
        ("lp.solve.calls", "calls", "lp.solve"),
        ("lp.solve.self_ms", "self_ms", "lp.solve"),
        ("lp.result.max_bits", "max", "lp.result.bits"),
        ("polytope.facet_enumeration.calls", "calls", "polytope.facet_enumeration"),
        ("polytope.facet_enumeration.self_ms", "self_ms", "polytope.facet_enumeration"),
        ("polytope.facet_enumeration.vertices_in", "mean", "polytope.facet_enumeration.vertices_in"),
        ("polytope.extreme_points.calls", "calls", "polytope.extreme_points"),
        ("polytope.extreme_points.self_ms", "self_ms", "polytope.extreme_points"),
        ("polytope.origin_interior.calls", "calls", "polytope.origin_interior"),
        ("polytope.origin_interior.self_ms", "self_ms", "polytope.origin_interior"),
        ("polytope.vertex_enumeration.calls", "calls", "polytope.vertex_enumeration"),
        ("polytope.vertex_enumeration.self_ms", "self_ms", "polytope.vertex_enumeration"),
        ("convex.minkowski_gauge.calls", "calls", "convex.minkowski_gauge"),
        ("convex.minkowski_gauge.self_ms", "self_ms", "convex.minkowski_gauge"),
        ("convex.minkowski_diff_translate.self_ms", "self_ms", "convex.minkowski_diff_translate"),
        ("convex.diff_body_vertices", "mean", "convex.diff_body_vertices"),
        ("analysis.separate_hyperbolic.self_ms", "self_ms", "analysis.separate_hyperbolic"),
        ("analysis.extend_dominated.calls", "calls", "analysis.extend_dominated"),
        ("analysis.extend_dominated.self_ms", "self_ms", "analysis.extend_dominated"),
        ("serialize.decode_dconvex.self_ms", "self_ms", "serialize.decode_dconvex"),
        ("serialize.encode_certificate.self_ms", "self_ms", "serialize.encode_certificate"),
    ],
    "gauge": [
        ("lp.solve.calls", "calls", "lp.solve"),
        ("lp.solve.self_ms", "self_ms", "lp.solve"),
        ("lp.result.max_bits", "max", "lp.result.bits"),
        ("polytope.origin_interior.calls", "calls", "polytope.origin_interior"),
        ("polytope.origin_interior.self_ms", "self_ms", "polytope.origin_interior"),
        ("convex.minkowski_gauge.calls", "calls", "convex.minkowski_gauge"),
        ("convex.minkowski_gauge.self_ms", "self_ms", "convex.minkowski_gauge"),
        ("serialize.decode_dconvex.self_ms", "self_ms", "serialize.decode_dconvex"),
    ],
    "verify": [
        ("lp.solve.calls", "calls", "lp.solve"),
        ("lp.solve.self_ms", "self_ms", "lp.solve"),
        ("linear.operator_dnorm.self_ms", "self_ms", "linear.operator_dnorm"),
    ] + [
        (f"suites.run_suite.{s}.self_ms", "self_ms", f"suites.run_suite.{s}")
        for s in ("algebra", "order", "metric", "linear", "theorems")
    ],
}
UNITS = {"calls": "count", "self_ms": "ms", "max": "bits", "mean": "count"}


def layer_rows(workload: str, tracer, totals: dict, n: int) -> list[tuple[str, float, str, int]]:
    rows = []
    for name, kind, key in LAYER_METRICS[workload]:
        calls, self_s = totals.get(key, (0, 0.0))
        samples = tracer.samples.get(key, [])
        if kind == "calls":
            value, count = calls / n, n
        elif kind == "self_ms":
            value, count = self_s * 1000 / n, n
        elif kind == "max":
            value, count = max(samples, default=0), len(samples)
        else:
            value, count = (statistics.fmean(samples) if samples else 0.0), len(samples)
        rows.append((f"{workload}.{name}", value, UNITS[kind], count))
    return rows


def run_mix_traced(workload: str, seed: int, seconds: float, workdir: Path, spans_path: Path):
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    t0 = time.perf_counter()
    requests = wl.prepare(seed, workdir / workload)
    inputs_s = time.perf_counter() - t0
    warm_up(wl, requests)
    speed = SpeedProbe()  # the halves run at different times: compare at reference speed
    base = closed_loop(wl, requests, seconds / 2, speed=speed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(wl, requests, seconds / 2, tracer, speed)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, workload)

    n = len(traced.records)
    totals = tracer.layer_totals()
    rows = layer_rows(workload, tracer, totals, n)
    if workload == "separate":
        certs: Counter = Counter()  # certificate size in KB -> requests
        for (_, output, error), count in traced.outcomes.items():
            if error is None and output[0] == 0:
                certs[len(output[1]) / 1024] += count
        made = len(tracer.samples.get("analysis.certificates", []))
        attempts = totals.get("analysis.extend_dominated", (0, 0.0))[0]
        rows.append(("separate.analysis.extension_yield", made / attempts if attempts else 0.0,
                     "ratio", attempts))
        rows.append(("separate.serialize.certificate_kb",
                     statistics.fmean(certs.elements()) if certs else 0.0, "KB",
                     certs.total()))
        busy = sum(r.latency for r in traced.records)
        for key in ("lp.solve", "polytope.facet_enumeration"):
            share = totals.get(key, (0, 0.0))[1] / busy
            print(f"  separate: {key} self time is {share:.1%} of traced request time")
    # the same requests from the start of the sequence, so the mix cancels
    m = min(len(base.records), n)

    def busy_ref(records):
        return sum(r.latency * speed.factor(r.start + r.latency / 2) for r in records[:m])

    overhead = busy_ref(base.records) / busy_ref(traced.records)
    rows.append((f"{workload}.trace.overhead", overhead, "ratio", m))
    rows.append((f"{workload}.setup.inputs_s", inputs_s, "s", len(requests)))
    verdict = judge(wl, requests, base.outcomes + traced.outcomes)
    print_verdict(verdict)
    return rows, len(base.records) + n, verdict, (wl, requests)


def run_cold(args: list[str], command=("-m", "bicomplex.cli")) -> tuple[float, list]:
    """Median wall time in ms of ``python -m bicomplex.cli <args>`` (or of
    ``python <command> <args>``), and the outputs of every spawn."""
    times, outputs = [], []
    for _ in range(COLD_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *command, *args],
                              capture_output=True, text=True, env=env.child_env(),
                              cwd=env.ROOT, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        outputs.append((proc.returncode, proc.stdout))
    return statistics.median(times) * 1000, outputs


def run_cold_cli(sep, gauge, workdir: Path, import_s: float):
    """Cold CLI latency on fixed files from the seed, with the in-process model."""
    import check

    sep_wl, sep_reqs = sep
    gauge_wl, gauge_reqs = gauge
    rows, attempted, failed, wrong = [], 0, 0, []

    def first(requests, category):
        return next(r for r in requests if r.category == category)

    cases = []
    for dim in (1, 2, 3):
        req = first(sep_reqs, f"sep-{dim}d")
        cases.append((f"cli.cold_separate_{dim}d_ms", ["separate", req.payload],
                      lambda rc, out, req=req: sep_wl.check(req, (rc, out)),
                      lambda req=req: sep_wl.run(req.payload)))
    req = first(gauge_reqs, "vrep-3d")
    one = {"set": req.expect["set"], "points": req.expect["points"][:1]}
    set_path, point_path = workdir / "gauge-set.json", workdir / "gauge-point.json"
    set_path.write_text(json.dumps(one["set"]), encoding="utf-8")
    point_path.write_text(json.dumps(one["points"][0]), encoding="utf-8")
    cases.append(("cli.cold_gauge_ms", ["gauge", str(set_path), str(point_path)],
                  lambda rc, out: (f"exit {rc}" if rc != 0
                                   else check.check_gauge(one, [tuple(out.split())])),
                  lambda: gauge_wl.run(json.dumps(one))))

    bare_ms = run_cold([], ("-c", "pass"))[0]
    rows.append(("cli.interpreter_start_ms", bare_ms, "ms", COLD_REPS))
    for name, args, check_fn, in_process in cases:
        ms, outputs = run_cold(args)
        for rc, out in outputs:
            attempted += 1
            reason = check_fn(rc, out)
            if reason is not None:
                failed += 1
                wrong.append((name, reason))
        warm = []
        for _ in range(COLD_REPS):
            t0 = time.perf_counter()
            in_process()
            warm.append(time.perf_counter() - t0)
        model = bare_ms + (import_s + statistics.median(warm)) * 1000
        print(f"  {name}: cold {ms:.1f} ms vs interpreter {bare_ms:.1f} + import "
              f"{import_s * 1000:.1f} + in-process {statistics.median(warm) * 1000:.1f} "
              f"= {model:.1f} ms")
        rows.append((name, ms, "ms", COLD_REPS))
    return rows, attempted, failed, wrong


def run_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    probes = [probe_setup(workload, seed, workdir / f"probe{k}") for k in range(PROBES)]
    import_s = statistics.median(p["import_s"] for p in probes)
    spans_path = env.WORK / "spans.jsonl"
    spans_path.unlink(missing_ok=True)

    rows = [("setup.import_s", import_s, "s", len(probes))]
    attempted = failed = 0
    wrong = []
    mixes = {}
    for name in WORKLOAD_NAMES:
        mix_rows, n, verdict, mixes[name] = run_mix_traced(
            name, seed, seconds * TRACE_SHARE[name], workdir, spans_path)
        rows += mix_rows
        attempted += n
        failed += verdict.failed
        wrong += verdict.wrong
    cold_rows, n, f, w = run_cold_cli(mixes["separate"], mixes["gauge"], workdir, import_s)
    rows += cold_rows
    attempted += n
    failed += f
    wrong += w
    print_table(f"traced run  seed {seed}  {seconds:g} s over {len(TRACE_SHARE)} mixes  "
                f"spans in {spans_path}", rows)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(v, u) for name, v, u, _ in rows},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    env.setup()
    workdir = env.WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            result = run_end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
