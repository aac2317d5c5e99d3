"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]
        [--oracle] [--spans PATH] [--setup-only]

Imports vessiot from ``src/`` beside this directory, builds the inputs
(timed as set-up), runs every item once under a per-item time limit,
optionally checks the outputs against the oracles, and prints one JSON
line: set-up time, per-item latencies and their sum (the pass time), a
digest of the answers, peak memory and, when traced, the per-layer
metrics.  ``--setup-only`` stops after
the set-up and reports its time alone.

Times are reported at a fixed host speed.  A shared host's speed drifts
by a third or more over seconds to minutes, and that drift moves every
wall-clock time alike.  So a fixed pure-Python computation that uses no
vessiot code (``reference_ms``) is timed before and after each item,
every ``SAMPLE_EVERY_S`` of CPU time within it (from a ``SIGPROF``
handler; its time is taken out of the item's) and after the set-up.
Each time is scaled by ``REFERENCE_MS`` over the mean of the
reference's times around and within it: a time reads as it would on a
host on which the reference takes ``REFERENCE_MS``.  A change to vessiot
cannot move the reference.  The raw wall-clock pass time and the host's
speed factor are reported beside them.  Traced passes time the
reference only between items, so that it adds nothing to the spans.
"""
from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# The reference's time on a quiet 2-CPU x86-64 host under CPython 3.11.
REFERENCE_MS = 1.4
SETUP_REFERENCES = 5
SAMPLE_EVERY_S = 0.02
# Two sparse polynomials with rational coefficients, as dicts from
# exponent tuples, like the program's own; the reference multiplies them.
_REF_A = {(i % 3, i % 5, i // 5 % 3, i % 2): Fraction(i - 7, i % 4 + 1)
          for i in range(28)}
_REF_B = {(i % 2, i % 4, i % 3, i // 4 % 3): Fraction(3 - i, i % 5 + 1)
          for i in range(24)}


def reference_ms():
    """Wall-clock milliseconds of the fixed reference computation, with
    the garbage collector off so that the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        out = {}
        for ea, ca in _REF_A.items():
            for eb, cb in _REF_B.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return (perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


class ItemTimeout(BaseException):
    """The per-item time limit expired.  A BaseException, so that the
    program's own ``except Exception`` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


def run_items(items, limit_s, answer, keep=False, tracer=None):
    """Run each item once.  Returns each finished item's answer text,
    the outputs themselves when ``keep`` (for the oracles; otherwise they
    are dropped at once, so they do not pile up on the heap that later
    items run on), [(id, ms, error)] with ms at the reference's speed,
    and the raw wall-clock ms of the items."""
    answers, outputs, timings, raw = {}, {}, [], []
    samples = []  # reference times taken within the current item

    def sample(signum, frame):
        samples.append(reference_ms())

    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGPROF, sample)
    every = SAMPLE_EVERY_S if tracer is None else 0
    ref_before = reference_ms()
    for k, (item_id, fn) in enumerate(items):
        if tracer is not None:
            tracer.item = k
        out = error = None
        samples.clear()
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        signal.setitimer(signal.ITIMER_PROF, every, every)
        try:
            out = fn()
        except ItemTimeout:
            error = f"time limit {limit_s} s"
        except Exception as exc:  # an item's failure is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (perf_counter() - t0) * 1000.0 - sum(samples)
        ref_after = reference_ms()
        refs = [ref_before, *samples, ref_after]
        scale = REFERENCE_MS * len(refs) / sum(refs)
        ref_before = ref_after
        timings.append((item_id, ms * scale, error))
        raw.append(ms)
        if error is None:
            with tracer.suspended() if tracer else nullcontext():
                answers[item_id] = answer(out)
            if keep:
                outputs[item_id] = out
    return answers, outputs, timings, raw


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args(argv)

    import vessiot  # noqa: F401  (timed as part of set-up)
    import workloads

    tracer = None
    if ns.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    prepared = workloads.WORKLOADS[ns.workload](ns.seed)
    setup_raw_s = perf_counter() - START
    host_factor = median(
        reference_ms() for _ in range(SETUP_REFERENCES)
    ) / REFERENCE_MS
    setup_s = setup_raw_s / host_factor
    if ns.setup_only:
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0
    answers, outputs, timings, raw = run_items(
        prepared.items, workloads.ITEM_LIMIT_S[ns.workload],
        prepared.answer, keep=ns.oracle, tracer=tracer,
    )
    pass_s = sum(ms for _, ms, _ in timings) / 1000.0
    raw_pass_s = sum(raw) / 1000.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "host_factor": raw_pass_s / pass_s,
        "peak_rss_mb": peak_rss_mb,
        "items": timings,
        "answers": hashlib.sha256(
            json.dumps(answers, sort_keys=True).encode()
        ).hexdigest(),
        "errors": [],
    }
    if ns.oracle:
        result["errors"] = prepared.check(outputs)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if ns.spans is not None:
            tracer.write(ns.spans, [i for i, _ in prepared.items])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
