"""vessiot benchmark runner (stdlib only).

    python3 perfbench/run.py --workload {corpus,prolong,rational,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The load is a closed loop in
one process and one thread: each pass runs in a fresh interpreter
(``worker.py``) with ``PYTHONHASHSEED`` pinned, and each item starts when
the previous one ends.  Passes repeat until ``--seconds`` have elapsed
(at least ``MIN_PASSES``).  The first pass's outputs are checked by the
oracles, and every pass must give the same answers.

Times are at a fixed host speed: the worker scales each one by a fixed
reference computation timed around it (see ``worker.py``), because the
shared host's own speed drifts by a third or more between runs.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, spans going to ``.perfbench_out/``.  Each workload
prints human-readable lines (with ``failed_frac`` and the tail
percentile used) and then one JSON line, the last of the output for a
single workload.  The exit code is 1 when any answer is wrong and 2 when
a pass cannot be run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASHSEED = "0"
MIN_PASSES = 3
# Set-up is short and noisy, so a run times it at least this often,
# adding set-up-only interpreters to the passes' own set-ups.
SETUP_SAMPLES = 11
TAIL_ITEMS = 10
# Wall-clock budget of a run; no pass starts after it, and a pass that
# would run past the hard limit is killed.
BUDGET_S = 150.0
HARD_LIMIT_S = 170.0


class RunError(Exception):
    """A pass could not be run or reported nothing usable."""


def tail_percentile(n_items):
    """The highest whole percentile with at least TAIL_ITEMS of the
    workload's distinct items beyond it.  Repeated passes over the same
    items add no new items, so the pass count does not move it."""
    return (100 * (n_items - TAIL_ITEMS)) // n_items


def item_latencies(plain):
    """Each item's median latency over the passes, in item order."""
    per_item = zip(*([ms for _, ms, _ in p["items"]] for p in plain))
    return [statistics.median(ms) for ms in per_item]


def run_pass(workload, seed, deadline, trace=False, oracle=False,
             setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--spans",
                str(ROOT / ".perfbench_out" / f"spans-{workload}")]
    if oracle:
        cmd.append("--oracle")
    env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} pass exceeded the run's time limit")
    if proc.returncode != 0:
        raise RunError(f"{workload} pass failed:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunError(f"{workload} pass printed no result:\n{proc.stderr}")


def run_passes(workload, seed, seconds, trace):
    """Untraced passes, plus as many traced ones when ``trace``; then,
    untraced, the extra set-up timings (returned with the passes')."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain, traced = [], []
    while True:
        plain.append(run_pass(workload, seed, deadline, oracle=not plain))
        if trace:
            traced.append(run_pass(workload, seed, deadline, trace=True))
        elapsed = time.monotonic() - start
        enough = trace or len(plain) >= MIN_PASSES
        per_pass = elapsed / len(plain)
        if enough and (elapsed >= seconds or elapsed + per_pass > BUDGET_S):
            break
    setups = [p["setup_s"] for p in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, deadline,
                               setup_only=True)["setup_s"])
    return plain, traced, setups


def correctness(plain, traced):
    """Errors: oracle failures, and answers or traced call counts that
    differ between passes."""
    errors = list(plain[0]["errors"])
    answers = {p["answers"] for p in plain + traced}
    if len(answers) != 1:
        errors.append("passes gave different answers")
    counts = {
        json.dumps({k: v for k, v in p["layers"].items()
                    if k.endswith(".calls")}, sort_keys=True)
        for p in traced
    }
    if len(counts) > 1:
        errors.append("traced call counts differ between passes")
    return errors


def end_to_end(plain, setups):
    items = item_latencies(plain)
    pct = tail_percentile(len(items))
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "item_ms_p50": statistics.median(items),
        "item_ms_tail": statistics.quantiles(
            items, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    raw_pass = statistics.median(p["raw_pass_s"] for p in plain)
    host = statistics.median(p["host_factor"] for p in plain)
    note = (f"item latencies are per-item medians over the passes; "
            f"item_ms_tail is p{pct} of {len(items)} items; wall-clock "
            f"pass_s {raw_pass:.4g} s on a host {host:.3g}x the "
            f"reference's time")
    return values, note


def per_layer(plain, traced):
    layers = traced[0]["layers"]
    values = {}
    for name in layers:
        if name.endswith((".s", ".self_s")):
            values[name] = statistics.median(p["layers"][name] for p in traced)
        else:
            values[name] = layers[name]
    values["trace.overhead_frac"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in plain) - 1.0
    )
    return values


def run_workload(workload, seed, seconds, trace, spec):
    """Measure one workload, print its metrics; True when all answers
    were right."""
    try:
        plain, traced, setups = run_passes(workload, seed, seconds, trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    errors = correctness(plain, traced)
    runs = plain + traced
    attempted = sum(len(p["items"]) for p in runs)
    failed = [(i, err) for p in runs for i, _, err in p["items"] if err]

    if trace:
        values = per_layer(plain, traced)
        wanted = spec["per_layer"]
        note = f"{len(traced)} traced and {len(plain)} untraced passes"
    else:
        values, note = end_to_end(plain, setups)
        wanted = spec["end_to_end"]
        note = f"{len(plain)} passes, {len(setups)} set-ups; {note}"
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return None
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }

    print(f"workload {workload}, seed {seed}, PYTHONHASHSEED="
          f"{HASHSEED}: {note}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {len(failed) / attempted:>14.6g} ratio"
          f" ({len(failed)} of {attempted} items)")
    for item_id, err in failed[:10]:
        print(f"  failed {item_id}: {err}")
    for err in errors[:20]:
        print(f"  WRONG {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return not errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "vessiot" / "__init__.py").is_file():
        print("error: no vessiot sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    outcomes = [
        run_workload(name, ns.seed, ns.seconds, bool(ns.trace), spec)
        for name in names
    ]
    if None in outcomes:
        return 2
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
