"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names ---------------------------------------------------------


def test_metric_names_use_only_allowed_characters():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_per_layer_metrics_are_the_tracers():
    t = tracer.Tracer()
    measured = set(t.metrics()) | {"trace.overhead_frac"}
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert listed <= measured
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_tail_percentile_leaves_ten_items_beyond():
    for n, pct in ((65, 84), (33, 69), (200, 95)):
        assert run.tail_percentile(n) == pct
        assert n * (100 - pct) / 100 >= run.TAIL_ITEMS
        assert n * (100 - pct - 1) / 100 < run.TAIL_ITEMS


# -- seeded inputs ----------------------------------------------------------


def _ids(prepared):
    return [item_id for item_id, _ in prepared.items]


def test_rational_inputs_follow_the_seed():
    assert workloads.rational_cases(5, 20) == workloads.rational_cases(5, 20)
    assert workloads.rational_cases(5, 20) != workloads.rational_cases(6, 20)
    # The seed draws coefficients; each case's shape stays put.
    shapes = [
        [(c["diff"], c["sub"], sorted(c["F"])) for c in
         workloads.rational_cases(seed, 20)[1]]
        for seed in (5, 6)
    ]
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize("name", ["corpus", "prolong"])
def test_item_order_follows_the_seed(name):
    prepare = workloads.WORKLOADS[name]
    assert _ids(prepare(1)) == _ids(prepare(1))
    assert _ids(prepare(1)) != _ids(prepare(2))
    assert sorted(_ids(prepare(1))) == sorted(_ids(prepare(2)))


# -- oracles reject planted wrong answers ------------------------------------


def test_fraction_rank():
    F = Fraction
    assert oracle.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert oracle.rank([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]]) == 2
    assert oracle.check_generic_rank(2, [1, 2], "r") is None
    assert oracle.check_generic_rank(3, [1, 2], "r")
    assert oracle.check_generic_rank(1, [1, 2], "r")


def _run_all(prepared):
    return {item_id: fn() for item_id, fn in prepared.items}


def test_rational_oracle_rejects_wrong_results():
    prepared = workloads.prepare_rational(3)
    items = prepared.items[:3]
    small = workloads.Prepared(items, prepared.answer, prepared.check)
    outputs = _run_all(small)
    names, cases = workloads.rational_cases(3, 3)

    def errors(out, k=0):
        return workloads._rational_oracle(
            names, cases[k], out, workloads._seeded("t", 0)
        )

    good = outputs["case0"]
    assert errors(good) == []
    a, b, s = good[0], good[1], good[2]
    assert errors(good[:2] + (s + 1,) + good[3:])
    assert errors(good[:8] + (False, True))
    from vessiot import RationalExpr

    unreduced = RationalExpr(a.num * b.den, a.den * b.den, _normalized=True)
    assert any("cancel" in e for e in errors((unreduced,) + good[1:]))


def _small_prolong(name="metric_system", r=1):
    from vessiot import cli, systems

    stem = dict((n, s) for s, n in workloads.PROLONG_SYSTEMS)[name]
    path = cli.default_corpus_dir() / f"{stem}.json"
    data = path.read_bytes()
    pf = cli.parse_problem(data, str(path),
                           max_order=workloads.PROLONG_MAX_ORDER)
    P = systems.prolong_system(cli._build(pf, name, "system"), r)
    return (json.loads(data)["context"], P, systems.symbol_of(P).rank(),
            systems.compatibility_count(P))


def test_prolong_rank_oracle_rejects_off_by_one():
    ctx, P, exact, count = _small_prolong()
    rng = workloads._seeded("t", 0)
    assert workloads._prolong_oracle(rng, ctx, P, exact, count) == []
    assert workloads._prolong_oracle(rng, ctx, P, exact + 1, count)
    assert workloads._prolong_oracle(rng, ctx, P, exact - 1, count)
    assert workloads._prolong_oracle(rng, ctx, P, exact, count + 1)


def test_saddle_oracle_rejects_a_residual_off_the_graph():
    ctx, P, _, _ = _small_prolong()
    rng = workloads._seeded("t", 0)
    assert workloads._saddle_oracle(rng, ctx, P) == []
    wrong = P.residuals()[0] + 1
    fake = types.SimpleNamespace(
        order=P.order, integrability=[],
        residuals=lambda: P.residuals()[1:] + [wrong],
    )
    assert workloads._saddle_oracle(rng, ctx, fake)


def test_corpus_oracle_rejects_status_board_and_report_changes():
    prepared = workloads.prepare_corpus(0)
    outputs = _run_all(prepared)
    assert prepared.check(outputs) == []

    def changed(item_suffix, **fields):
        out = dict(outputs)
        key = next(k for k in out if k.endswith(item_suffix))
        result = out[key]
        saved = {f: getattr(result, f) for f in fields}
        for f, v in fields.items():
            setattr(result, f, v)
        try:
            return prepared.check(out)
        finally:
            for f, v in saved.items():
                setattr(result, f, v)

    assert changed(":saddle_gauss_codazzi", status="FAIL")
    assert changed(":nine_equation_board", board="x\n")
    assert changed(":saddle_compatibility_count", numbers={"count": 13})
    assert prepared.check(outputs) == []


# -- per-item time limit -------------------------------------------------------


def test_time_limit_gets_past_except_exception():
    def stubborn():
        while True:
            try:
                time.sleep(0.01)
            except Exception:
                pass

    answers, outputs, timings, raw = worker.run_items(
        [("stubborn", stubborn), ("fine", lambda: 1)], 0.2, repr, keep=True
    )
    assert answers == {"fine": "1"} and outputs == {"fine": 1}
    assert len(raw) == 2 and raw[0] >= 200
    assert timings[0][2].startswith("time limit")
    assert timings[1][2] is None


def test_item_times_are_scaled_to_the_reference_speed(monkeypatch):
    # A host on which the reference takes twice REFERENCE_MS runs at half
    # speed, so the item's time is reported halved.
    monkeypatch.setattr(worker, "reference_ms",
                        lambda: 2 * worker.REFERENCE_MS)
    _, _, timings, raw = worker.run_items(
        [("short", lambda: sum(range(10_000)))], 5.0, repr
    )
    assert timings[0][1] == pytest.approx(raw[0] / 2)


# -- tracer --------------------------------------------------------------------


def test_tracer_wraps_imported_copies_and_restores_them():
    from vessiot import geomkit, invariants, linalg, symcore, systems

    originals = (linalg.rank, linalg.det, symcore.eval_point,
                 symcore.RationalExpr.__init__, symcore.Polynomial.__mul__)
    t = tracer.Tracer()
    t.install()
    try:
        assert systems.rank is linalg.rank is not originals[0]
        assert geomkit.det is linalg.det is not originals[1]
        assert invariants.eval_point is symcore.eval_point
        assert symcore.Polynomial.__rmul__ is symcore.Polynomial.__mul__
        x = symcore.RationalExpr.const(2) * symcore.RationalExpr.const(3)
        assert x == 6
    finally:
        t.uninstall()
    assert (linalg.rank, linalg.det, symcore.eval_point,
            symcore.RationalExpr.__init__,
            symcore.Polynomial.__mul__) == originals
    assert systems.rank is linalg.rank and geomkit.det is linalg.det
    assert t.calls[t.names.index("symcore.normalize")] >= 1
    assert len(t.span_id) == sum(t.calls)


def _worker_pass(hashseed, trace, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", "corpus", "--seed", "4"]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_pass_matches_untraced_and_counts_repeat(tmp_path):
    plain = _worker_pass(0, False)
    first = _worker_pass(0, True, tmp_path / "spans")
    again = _worker_pass(0, True)
    other = _worker_pass(1, True)
    assert first["answers"] == plain["answers"] == other["answers"]
    calls = [
        {k: v for k, v in p["layers"].items() if k.endswith(".calls")}
        for p in (first, again, other)
    ]
    assert calls[0] == calls[1] == calls[2]
    assert calls[0]["symcore.poly_gcd.calls"] > 0
    header = json.loads((tmp_path / "spans.json").read_text())
    assert header["spans"] == sum(calls[0].values())
