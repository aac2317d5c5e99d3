"""Problem-file frontend and check runner.

Problem files are JSON documents with four sections: ``context``
(variable declarations), ``definitions`` (named expressions),
``objects`` (surfaces, curves, sections, systems, generator sets) and
``checks`` (named check invocations with expected statuses).  The runner
executes each check through the owning module and emits a deterministic
text or JSON report; Janet boards are rendered in the text format.
"""
from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import diffideal, geomkit, invariants, mechanics, systems
from .errors import (
    ContextMismatch,
    ProblemSyntaxError,
    UnknownReference,
    UnknownVariable,
    VessiotError,
)
from .jets import JetContext, JetSection, VectorField, holonomic_section
from .report import CheckReport
from .symcore import RationalExpr, normalize, substitute

EXPECTED_STATUSES = ("OK", "FAIL")


def default_corpus_dir():
    env = os.environ.get("VESSIOT_CORPUS")
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


@dataclass
class Options:
    only: str | None = None
    corpus_dir: Path = field(default_factory=default_corpus_dir)


@dataclass
class CheckSpec:
    id: str
    op: str
    args: dict
    expect: str


@dataclass
class ProblemFile:
    path: str
    raw: dict
    ctx: JetContext
    definitions: dict
    object_specs: dict
    checks: list

    def __post_init__(self):
        self._built = {}


@dataclass
class CheckResult:
    id: str
    op: str
    status: str
    expect: str
    witness: str | None
    numbers: dict
    detail: str
    board: str | None
    seconds: float

    @property
    def matched(self):
        return self.status == self.expect


@dataclass
class RunReport:
    path: str
    results: list

    @property
    def all_matched(self):
        return all(r.matched for r in self.results)


# ---------------------------------------------------------------------------
# parsing


def _fail(where, message):
    raise ProblemSyntaxError(f"{where}: {message}")


def _require(cond, where, message):
    if not cond:
        _fail(where, message)


def parse_problem(data, path="<memory>", max_order=None):
    """Parse a problem file; the first error carries its location
    (line/column for JSON syntax, a JSON path otherwise)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemSyntaxError(f"{path}: not UTF-8 ({exc})")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ProblemSyntaxError(
            f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno
        )
    _require(isinstance(raw, dict), path, "top level must be an object")
    allowed = {"context", "definitions", "objects", "checks"}
    for key in raw:
        _require(key in allowed, path, f"unknown section {key!r}")
    _require("context" in raw, path, "missing 'context' section")
    ctx = _parse_context(raw["context"], f"{path}:context", max_order)
    definitions = {}
    for name, text in (raw.get("definitions") or {}).items():
        where = f"{path}:definitions.{name}"
        _require(isinstance(text, str), where, "definition must be a string")
        try:
            definitions[name] = ctx.expr(text, extra=definitions)
        except UnknownVariable as exc:
            raise UnknownReference(f"{where}: {exc}")
    object_specs = {}
    for name, spec in (raw.get("objects") or {}).items():
        where = f"{path}:objects.{name}"
        _require(isinstance(spec, dict), where, "object must be an object")
        kind = spec.get("kind")
        _require(kind in _OBJECT_KINDS, where, f"unknown object kind {kind!r}")
        _validate_object_exprs(ctx, definitions, spec, where)
        _check_order(spec, where)
        object_specs[name] = spec
    checks = []
    seen = set()
    for i, c in enumerate(raw.get("checks") or []):
        where = f"{path}:checks[{i}]"
        _require(isinstance(c, dict), where, "check must be an object")
        cid = c.get("id")
        _require(isinstance(cid, str) and cid, where, "check needs an 'id'")
        _require(cid not in seen, where, f"duplicate check id {cid!r}")
        seen.add(cid)
        op = c.get("op")
        _require(op in OPS, where, f"unknown op {op!r}")
        expect = c.get("expect", "OK")
        _require(expect in EXPECTED_STATUSES, where,
                 f"expect must be one of {EXPECTED_STATUSES}")
        args = c.get("args") or {}
        _require(isinstance(args, dict), where, "args must be an object")
        checks.append(CheckSpec(cid, op, args, expect))
    return ProblemFile(path, raw, ctx, definitions, object_specs, checks)


def _member(spec, key, typ, where):
    """``spec[key]`` (an empty ``typ`` when absent), which must be a JSON
    array (``typ`` list) or object (``typ`` dict)."""
    value = spec.get(key, typ())
    _require(isinstance(value, typ), f"{where}.{key}",
             f"expected a JSON {'array' if typ is list else 'object'}, "
             f"got {value!r}")
    return value


def _parse_context(spec, where, max_order=None):
    _require(isinstance(spec, dict), where, "context must be an object")
    independents = _member(spec, "independents", list, where)
    parameters = _member(spec, "parameters", list, where)
    deps = []
    for i, d in enumerate(_member(spec, "dependents", list, where)):
        if isinstance(d, str):
            deps.append(d)
        else:
            _require(
                isinstance(d, list) and len(d) == 2
                and isinstance(d[0], str) and isinstance(d[1], list),
                f"{where}.dependents[{i}]",
                f"dependent must be a name or [name, base-list], got {d!r}",
            )
            deps.append((d[0], tuple(d[1])))
    specials = []
    for i, s in enumerate(_member(spec, "specials", list, where)):
        _require(
            isinstance(s, list) and len(s) in (3, 4)
            and all(isinstance(part, str) for part in s),
            f"{where}.specials[{i}]",
            "special must be [name, base, derivative] or [name, base, "
            f"derivative, rewrite], got {s!r}",
        )
        specials.append(tuple(s))
    try:
        return JetContext(
            independents,
            deps,
            parameters=parameters,
            specials=specials,
            max_order=(
                max_order if max_order is not None
                else spec.get("max_order", 4)
            ),
        )
    except VessiotError as exc:
        raise ProblemSyntaxError(f"{where}: {exc}")


_OBJECT_KINDS = (
    "surface", "curve", "section", "system", "genset", "generators",
)


def _iter_expr_strings(spec, where):
    """The expression strings of an object spec; a container of the
    wrong JSON type on the way is a syntax error at its path."""
    kind = spec["kind"]
    if kind in ("surface", "curve"):
        yield from _member(spec, "components", list, where)
    elif kind == "section":
        yield from _member(spec, "components", dict, where).values()
        jets = _member(spec, "jets", dict, where)
        for dep in jets:
            yield from _member(jets, dep, dict, f"{where}.jets").values()
    elif kind == "system":
        for i, eq in enumerate(_member(spec, "equations", list, where)):
            at = f"{where}.equations[{i}]"
            _require(isinstance(eq, dict), at, "equation must be an object")
            for key in ("leading", "lhs", "rhs"):
                if key in eq:
                    yield eq[key]
            yield from _member(eq, "genericity", list, at)
        yield from _member(spec, "genericity", list, where)
    elif kind == "genset":
        yield from _member(spec, "generators", list, where)
    elif kind == "generators":
        for i, f in enumerate(_member(spec, "fields", list, where)):
            at = f"{where}.fields[{i}]"
            _require(isinstance(f, dict), at, "field must be an object")
            for k, v in _member(f, "components", dict, at).items():
                yield k
                yield v


def _validate_object_exprs(ctx, definitions, spec, where):
    for text in _iter_expr_strings(spec, where):
        _require(isinstance(text, str), where,
                 f"expected an expression string, got {text!r}")
        try:
            ctx.expr(text, extra=definitions)
        except UnknownVariable as exc:
            raise UnknownReference(f"{where}: {exc}")


def _check_order(spec, where):
    """``order`` is required on a system and a section and optional on
    generators; where present it must be a non-negative int."""
    kind = spec["kind"]
    if kind in ("system", "section"):
        _require("order" in spec, f"{where}.order", "missing order")
    elif kind != "generators" or "order" not in spec:
        return
    order = spec["order"]
    _require(type(order) is int and order >= 0, f"{where}.order",
             f"order must be a non-negative integer, got {order!r}")


def render_problem(pf):
    """Canonical text of a parsed problem file; reparses to an equal
    structure."""
    return json.dumps(pf.raw, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# object construction (lazy, cached per ProblemFile)


def _expr(pf, text):
    if isinstance(text, (int, str)) and not isinstance(text, bool):
        try:
            return pf.ctx.expr(str(text), extra=pf.definitions)
        except UnknownVariable as exc:
            raise UnknownReference(f"{pf.path}: {exc}")
    raise UnknownReference(f"{pf.path}: not an expression: {text!r}")


def _spec_of(pf, name, kind):
    spec = pf.object_specs.get(name)
    if spec is None:
        raise UnknownReference(f"{pf.path}: no object named {name!r}")
    if spec["kind"] != kind:
        raise ContextMismatch(
            f"{pf.path}: object {name!r} is a {spec['kind']}, not a {kind}"
        )
    return spec


def _single_variable(ctx, text):
    e = ctx.expr(text)
    vs = sorted(e.variables())
    if len(vs) != 1 or not (e - RationalExpr.var(vs[0])).is_zero():
        raise ProblemSyntaxError(f"not a plain variable: {text!r}")
    return vs[0]


def _build(pf, name, kind):
    key = (kind, name)
    if key in pf._built:
        return pf._built[key]
    spec = _spec_of(pf, name, kind)
    ctx = pf.ctx
    if kind == "surface":
        obj = geomkit.surface_invariants(
            ctx, [_expr(pf, c) for c in spec["components"]]
        )
    elif kind == "curve":
        obj = geomkit.curve_invariants(
            ctx, [_expr(pf, c) for c in spec["components"]]
        )
    elif kind == "section":
        if "jets" in spec:
            values = {}
            for dep, jets in spec["jets"].items():
                for mu, text in jets.items():
                    index = tuple(int(i) for i in str(mu).split(","))
                    if len(index) != len(ctx.independents):
                        raise ProblemSyntaxError(
                            f"{pf.path}: jet index {mu!r} needs one count "
                            f"per independent variable"
                        )
                    values[(dep, index)] = _expr(pf, text)
            obj = JetSection(ctx, spec["order"], values)
        else:
            comp = {d: _expr(pf, c) for d, c in spec["components"].items()}
            obj = holonomic_section(ctx, comp, spec["order"], deps=list(comp))
    elif kind == "system":
        eqs = []
        for eq in spec["equations"]:
            gen = tuple(_expr(pf, g) for g in eq.get("genericity", []))
            if "lhs" in eq:
                lead = (
                    _single_variable(ctx, eq["leading"])
                    if "leading" in eq else None
                )
                eqs.append(systems.implicit_equation(
                    _expr(pf, eq["lhs"]),
                    _expr(pf, eq["rhs"]) if "rhs" in eq else None,
                    leading=lead, genericity=gen,
                ))
            else:
                eqs.append(systems.solved_equation(
                    _single_variable(ctx, eq["leading"]),
                    _expr(pf, eq["rhs"]), genericity=gen,
                ))
        obj = systems.SolvedSystem(
            ctx, spec["order"], eqs,
            ordering=tuple(spec["ordering"]) if "ordering" in spec else None,
            genericity=tuple(
                _expr(pf, g) for g in spec.get("genericity", [])
            ),
        )
    elif kind == "genset":
        obj = diffideal.DiffPolySet(
            ctx, [_expr(pf, g) for g in spec["generators"]]
        )
    elif kind == "generators":
        fields, labels = [], []
        for f in spec["fields"]:
            comp = {
                _single_variable(ctx, k): _expr(pf, v)
                for k, v in f["components"].items()
            }
            fields.append(VectorField(comp))
            labels.append(f.get("label", f"theta{len(labels) + 1}"))
        obj = invariants.GeneratorSet(
            ctx, fields, order=spec.get("order", 0), labels=tuple(labels)
        )
    else:  # pragma: no cover - guarded by _spec_of
        raise UnknownReference(f"{pf.path}: bad kind {kind!r}")
    pf._built[key] = obj
    return obj


def _point(pf, mapping):
    out = {}
    for name, val in mapping.items():
        out[pf.ctx.var(name)] = Fraction(str(val))
    return out


def _witness(pf, args, key):
    w = args.get(key)
    if w is None:
        return None
    section = _build(pf, w["section"], "section")
    return systems.witness_from_section(section, _point(pf, w["point"]))


# ---------------------------------------------------------------------------
# check operations


def _residual_report(name, residuals, numbers=None):
    for r in residuals:
        r = normalize(r)
        if not r.is_zero():
            return CheckReport(name, "FAIL", witness=r,
                               numbers=numbers or {})
    return CheckReport(name, "OK", numbers=numbers or {})


def _surface_quantity(S, key):
    if key == "det_omega":
        return S.det_omega
    if key == "det_sigma":
        return S.det_sigma
    head, rest = key.split("[")
    idx = [int(i) for i in rest.rstrip("]").split(",")]
    if head == "omega":
        return S.om(*idx)
    if head == "sigma":
        return S.si(*idx)
    if head == "gamma":
        return S.ga(*idx)
    raise UnknownReference(f"unknown surface quantity {key!r}")


def op_surface_values(pf, args, options):
    S = _build(pf, args["surface"], "surface")
    res = [
        pf.ctx.reduce(_surface_quantity(S, k) - _expr(pf, v))
        for k, v in args["values"].items()
    ]
    return _residual_report("surface_values", res)


def op_surface_substitute(pf, args, options):
    S = _build(pf, args["surface"], "surface")
    q = _surface_quantity(S, args["quantity"])
    binding = {
        pf.ctx.var(n): RationalExpr.const(Fraction(str(v)))
        for n, v in args["at"].items()
    }
    val = pf.ctx.reduce(substitute(q, binding))
    return _residual_report(
        "surface_substitute", [val - _expr(pf, args["expected"])]
    )


def op_gauss_codazzi(pf, args, options):
    S = _build(pf, args["surface"], "surface")
    c1, c2 = geomkit.codazzi_residual(S)
    return _residual_report(
        "gauss_codazzi", [geomkit.gauss_residual(S), c1, c2]
    )


def _curve_quantity(C, key):
    val = getattr(C, key, None)
    if val is None:
        raise UnknownReference(f"unknown curve quantity {key!r}")
    return val


def op_curve_values(pf, args, options):
    C = _build(pf, args["curve"], "curve")
    res = [
        pf.ctx.reduce(_curve_quantity(C, k) - _expr(pf, v))
        for k, v in args["values"].items()
    ]
    return _residual_report("curve_values", res)


def op_curve_identities(pf, args, options):
    C = _build(pf, args["curve"], "curve")
    return C.identity_report()


def op_frenet(pf, args, options):
    C = _build(pf, args["curve"], "curve")
    kappa2, tau = geomkit.frenet_squares(C)
    res = [pf.ctx.reduce(kappa2 - _expr(pf, args["kappa2"]))]
    if "tau" in args:
        if args["tau"] is None:
            if tau is not None:
                return CheckReport("frenet", "FAIL", witness=tau,
                                   detail="expected no torsion")
        else:
            res.append(pf.ctx.reduce(tau - _expr(pf, args["tau"])))
    return _residual_report("frenet", res)


def _matrix_residuals(pf, got, expected):
    out = []
    for grow, erow in zip(got, expected):
        if isinstance(grow, list):
            for g, e in zip(grow, erow):
                out.append(pf.ctx.reduce(g - _expr(pf, e)))
        else:
            out.append(pf.ctx.reduce(grow - _expr(pf, erow)))
    return out


def op_gauging_forms(pf, args, options):
    f = _build(pf, args["source"], "section")
    fbar = _build(pf, args["target"], "section")
    G = geomkit.gauging(f, fbar)
    res = []
    if "A" in args:
        res += _matrix_residuals(pf, G.A, args["A"])
    if "B" in args:
        res += _matrix_residuals(pf, G.B, args["B"])
    if "P" in args or "Q" in args:
        P, Q = geomkit.maurer_cartan(G)
        if "P" in args:
            res += _matrix_residuals(pf, P, args["P"])
        if "Q" in args:
            res += _matrix_residuals(pf, Q, args["Q"])
        if args.get("P_skew"):
            n = len(P)
            res += [
                pf.ctx.reduce(P[i][j] + P[j][i])
                for i in range(n) for j in range(i, n)
            ]
    if args.get("orthogonal"):
        for row in G.orthogonal_defect():
            res.extend(row)
        res.append(G.det_defect())
    return _residual_report("gauging_forms", res)


def op_characters(pf, args, options):
    S = _build(pf, args["system"], "system")
    alpha = systems.characters(S, strict=args.get("strict", False))
    expected = list(args["expected"])
    got = list(alpha)
    ok = (
        got == expected if args.get("ordered") else
        sorted(got) == sorted(expected)
    )
    return CheckReport(
        "characters", "OK" if ok else "FAIL",
        witness=None if ok else tuple(alpha),
        numbers={f"alpha{i + 1}": a for i, a in enumerate(alpha)},
    )


def op_cartan(pf, args, options):
    return systems.cartan_test(_build(pf, args["system"], "system"))


def op_cartan_bound(pf, args, options):
    rep = systems.cartan_test(_build(pf, args["system"], "system"))
    ok = rep.numbers["dim_symbol_next"] <= rep.numbers["bound"]
    return CheckReport("cartan_bound", "OK" if ok else "FAIL",
                       numbers=dict(rep.numbers))


def _golden_path(pf, options, name):
    candidates = []
    base = Path(pf.path).parent if pf.path != "<memory>" else None
    if base is not None:
        candidates += [base / "golden" / name, base / name]
    candidates += [options.corpus_dir / "golden" / name,
                   options.corpus_dir / name]
    for c in candidates:
        if c.is_file():
            return c
    raise UnknownReference(f"{pf.path}: golden file {name!r} not found")


def op_janet_board(pf, args, options):
    S = _build(pf, args["system"], "system")
    board = systems.janet_board(S).render()
    if "golden" in args:
        golden = _golden_path(pf, options, args["golden"]).read_text()
        ok = board == golden
        detail = "" if ok else f"differs from {args['golden']}"
    else:
        golden = args["expected"]
        ok = board == golden
        detail = "" if ok else "differs from inline expectation"
    return CheckReport(
        "janet_board", "OK" if ok else "FAIL",
        witness=None if ok else board, detail=detail,
    ), board


def _count_report(name, key, got, expected):
    ok = got == expected
    return CheckReport(
        name, "OK" if ok else "FAIL",
        witness=None if ok else got, numbers={key: got},
    )


def op_fiber_dimension(pf, args, options):
    S = _build(pf, args["system"], "system")
    dim = systems.fiber_dimension(S, _witness(pf, args, "witness"))
    return _count_report("fiber_dimension", "dimension", dim,
                         args["expected"])


def op_phs(pf, args, options):
    return systems.phs_check(
        _build(pf, args["system"], "system"),
        _build(pf, args["groupoid"], "system"),
        _witness(pf, args, "witness_system"),
        _witness(pf, args, "witness_groupoid"),
    )


def op_automorphic(pf, args, options):
    return systems.automorphic_criterion(
        _build(pf, args["system"], "system"),
        _build(pf, args["groupoid"], "system"),
        _witness(pf, args, "witness_system"),
        _witness(pf, args, "witness_groupoid"),
    )


def op_compatibility_count(pf, args, options):
    S = _build(pf, args["system"], "system")
    return _count_report("compatibility_count", "count",
                         systems.compatibility_count(S), args["expected"])


def op_prolong_count(pf, args, options):
    S = _build(pf, args["genset"], "genset")
    P = diffideal.prolong_gens(S, args["rounds"])
    return _count_report("prolong_count", "generators", len(P.generators),
                         args["expected"])


def op_syzygy(pf, args, options):
    return diffideal.syzygy_check(_expr(pf, args["combination"]))


def op_radical_membership(pf, args, options):
    rep, _cert = diffideal.radical_power_membership(
        pf.ctx, _expr(pf, args["element"]), args["direction"], args["r"]
    )
    return rep


def op_is_invariant(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    return invariants.is_invariant(_expr(pf, args["candidate"]), G)


def op_invariant_count(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    n = invariants.invariant_count(pf.ctx, G, args["order"])
    return _count_report("invariant_count", "count", n, args["expected"])


def op_structure_table(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    table = invariants.structure_constants(G)
    witness = None
    for key, coeffs in args["expected"].items():
        rho, sigma = (int(i) - 1 for i in key.split(","))
        got = table[(rho, sigma)]
        want = [Fraction(str(c)) for c in coeffs]
        if list(got) != want:
            witness = (key, tuple(got))
            break
    return CheckReport(
        "structure_table", "OK" if witness is None else "FAIL",
        witness=witness,
    )


def op_jacobi_table(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    table = invariants.structure_constants(G)
    residuals = invariants.jacobi_residuals(table, len(G.fields))
    bad = [r for r in residuals if r != 0]
    return CheckReport(
        "jacobi_table", "OK" if not bad else "FAIL",
        witness=bad[0] if bad else None,
        numbers={"residuals": len(residuals)},
    )


def op_lie_condition(pf, args, options):
    return mechanics.lie_condition_equivalence(
        flip_chi=args.get("flip_chi", False)
    )


def op_jacobi_multiplier(pf, args, options):
    return mechanics.jacobi_multiplier_identity(args.get("n", 2))


def op_multiplier_transport(pf, args, options):
    return mechanics.multiplier_transport(
        pf.ctx,
        _expr(pf, args.get("multiplier", "1")),
        [_expr(pf, t) for t in args["field"]],
        [_expr(pf, p) for p in args["map"]],
    )


def op_hessian(pf, args, options):
    if "lagrangian" in args:
        return mechanics.hessian_multiplier_identity(
            pf.ctx, _expr(pf, args["lagrangian"])
        )
    return mechanics.hessian_multiplier_identity()


def op_hj_chain(pf, args, options):
    ctx = pf.ctx if "hamiltonian" in args else None
    H = _expr(pf, args["hamiltonian"]) if "hamiltonian" in args else None
    rep, art = mechanics.hj_closure_chain(ctx, H)
    if rep.ok and "coefficient" in args:
        res = normalize(art["coefficient"] - _expr(pf, args["coefficient"]))
        if not res.is_zero():
            return CheckReport("hj_chain", "FAIL", witness=res,
                               detail="volume coefficient mismatch")
    return rep


def op_separability(pf, args, options):
    return mechanics.separability_conditions(
        pf.ctx, _expr(pf, args["hamiltonian"])
    )


OPS = {
    "surface_values": op_surface_values,
    "surface_substitute": op_surface_substitute,
    "gauss_codazzi": op_gauss_codazzi,
    "curve_values": op_curve_values,
    "curve_identities": op_curve_identities,
    "frenet": op_frenet,
    "gauging_forms": op_gauging_forms,
    "characters": op_characters,
    "cartan": op_cartan,
    "cartan_bound": op_cartan_bound,
    "janet_board": op_janet_board,
    "fiber_dimension": op_fiber_dimension,
    "phs": op_phs,
    "automorphic": op_automorphic,
    "compatibility_count": op_compatibility_count,
    "prolong_count": op_prolong_count,
    "syzygy": op_syzygy,
    "radical_membership": op_radical_membership,
    "is_invariant": op_is_invariant,
    "invariant_count": op_invariant_count,
    "structure_table": op_structure_table,
    "jacobi_table": op_jacobi_table,
    "lie_condition": op_lie_condition,
    "jacobi_multiplier": op_jacobi_multiplier,
    "multiplier_transport": op_multiplier_transport,
    "hessian": op_hessian,
    "hj_chain": op_hj_chain,
    "separability": op_separability,
}


# ---------------------------------------------------------------------------
# runner


def run(pf, options=None):
    """Execute the file's checks (optionally filtered by ``--only``);
    a check that raises reports ERROR and never aborts the run."""
    options = options or Options()
    results = []
    for spec in pf.checks:
        if options.only and not fnmatch.fnmatch(spec.id, options.only):
            continue
        start = time.monotonic()
        board = None
        try:
            out = OPS[spec.op](pf, spec.args, options)
            if isinstance(out, tuple):
                report, board = out
            else:
                report = out
            status = report.status
            witness = (
                None if report.witness is None else str(report.witness)
            )
            numbers = dict(report.numbers)
            detail = report.detail
        except Exception as exc:  # per-check isolation, by contract
            status = "ERROR"
            witness = None
            numbers = {}
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(
            spec.id, spec.op, status, spec.expect, witness, numbers,
            detail, board, time.monotonic() - start,
        ))
    return RunReport(pf.path, results)


def report_json(reports):
    """Machine-readable report; byte-stable (timings are deliberately
    excluded)."""
    files = []
    for rep in reports:
        files.append({
            "path": rep.path,
            "checks": [
                {
                    "id": r.id,
                    "op": r.op,
                    "status": r.status,
                    "expected": r.expect,
                    "matched": r.matched,
                    "witness": r.witness,
                    "numbers": r.numbers,
                    "detail": r.detail,
                }
                for r in rep.results
            ],
        })
    total = sum(len(rep.results) for rep in reports)
    matched = sum(
        1 for rep in reports for r in rep.results if r.matched
    )
    doc = {
        "files": files,
        "summary": {
            "total": total,
            "matched": matched,
            "mismatched": total - matched,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_text(reports):
    lines = []
    for rep in reports:
        lines.append(f"== {rep.path}")
        for r in rep.results:
            mark = "ok" if r.matched else "MISMATCH"
            lines.append(
                f"  {r.id}: {r.status} (expected {r.expect}) [{mark}]"
                f" {r.seconds * 1000:.0f}ms"
            )
            if r.board is not None:
                for row in r.board.rstrip("\n").split("\n"):
                    lines.append(f"    | {row}")
            if not r.matched:
                if r.witness is not None:
                    lines.append(f"    witness: {r.witness}")
                if r.detail:
                    lines.append(f"    detail: {r.detail}")
    total = sum(len(rep.results) for rep in reports)
    matched = sum(1 for rep in reports for r in rep.results if r.matched)
    lines.append(f"{matched}/{total} checks matched")
    return "\n".join(lines) + "\n"


def _resolve_files(paths, options):
    if not paths:
        return sorted(options.corpus_dir.glob("*.json"))
    out = []
    for p in paths:
        cand = Path(p)
        if not cand.is_file():
            alt = options.corpus_dir / p
            if alt.is_file():
                cand = alt
            else:
                raise ProblemSyntaxError(f"no such problem file: {p}")
        out.append(cand)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vessiot",
        description="run problem-file checks",
    )
    sub = parser.add_subparsers(dest="command")
    chk = sub.add_parser("check", help="run the checks of problem files")
    chk.add_argument("files", nargs="*",
                     help="problem files (default: the bundled corpus)")
    chk.add_argument("--only", default=None, metavar="GLOB",
                     help="run only checks whose id matches the glob")
    chk.add_argument("--format", choices=("json", "text"), default="text")
    chk.add_argument("--max-order", type=int, default=None)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if ns.command != "check":
        parser.print_help(sys.stderr)
        return 2
    options = Options(only=ns.only)
    try:
        files = _resolve_files(ns.files, options)
        reports = []
        for path in files:
            pf = parse_problem(
                path.read_bytes(), str(path), max_order=ns.max_order
            )
            reports.append(run(pf, options))
    except (ProblemSyntaxError, UnknownReference, ContextMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = (
        report_json(reports) if ns.format == "json"
        else report_text(reports)
    )
    sys.stdout.write(text)
    return 0 if all(rep.all_matched for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
