"""Problem-file frontend and check runner.

Problem files are JSON documents with four sections: ``context``
(variable declarations), ``definitions`` (named expressions),
``objects`` (surfaces, curves, sections, systems, generator sets) and
``checks`` (named check invocations with expected statuses).

A file is fully checked at load: the context and its ``max_order``,
every object spec (one loader per kind parses each expression once, and
a system's leading jets must not clash), and each check's arguments, as
the op declares them in ``OPS``, every value read once.  An undeclared
key is refused at every level (``_known``), and so is a check that could
only end in an ERROR (a system of order 0 for characters, a section
short of the frame gauging needs, ...).  The first error names the file
and a JSON path (``f.json:objects.S.order``), and ``vessiot check``
exits 2.  Objects are built on first use, from the inputs parsed at
load.  The runner executes each check through the owning module with its
arguments as read, and emits a deterministic text or JSON report; Janet
boards are rendered in the text format, and ``--traceback`` adds the
stack of each check that ends in ERROR.
"""
from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
import time
import traceback
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter, methodcaller
from pathlib import Path

from . import diffideal, geomkit, invariants, mechanics, systems
from .errors import (
    ContextMismatch,
    ProblemSyntaxError,
    UnknownReference,
    UnknownVariable,
    VessiotError,
)
from .jets import (
    JetContext,
    JetSection,
    VectorField,
    holonomic_section,
    jet_order,
)
from .report import CheckReport
from .symcore import RationalExpr, substitute

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
    traceback: bool = False  # an ERROR result keeps its formatted stack


@dataclass
class CheckSpec:
    id: str
    op: str
    args: dict
    expect: str


@dataclass
class ProblemFile:
    path: str
    ctx: JetContext
    objects: dict  # name -> (kind, cached zero-argument constructor)
    checks: list


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
    traceback: str | None = None

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
# parsing: one loader per object kind reads its JSON layout once


def _fail(where, message):
    raise ProblemSyntaxError(f"{where}: {message}")


def _require(cond, where, message):
    if not cond:
        _fail(where, message)


def parse_problem(data, path="<memory>", max_order=None):
    """Parse and check a problem file; the first error carries its
    location (line/column for JSON syntax, a JSON path otherwise).
    Every expression of the context, definitions and objects is parsed
    here, once; objects are built on first use from the parsed inputs."""
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
    _require("context" in raw, f"{path}:context", "missing section")
    for key, typ in (("definitions", dict), ("objects", dict),
                     ("checks", list)):
        _require(isinstance(raw.get(key) or typ(), typ), f"{path}:{key}",
                 f"expected a JSON {'array' if typ is list else 'object'}")
    ctx = _parse_context(raw["context"], path, max_order)
    definitions = {}
    for name, text in (raw.get("definitions") or {}).items():
        definitions[name] = _parse(
            ctx, text, f"{path}:definitions.{name}", definitions
        )

    def expr(text, where):
        return _parse(ctx, text, where, definitions)

    objects, shapes = {}, {}
    for name, spec in (raw.get("objects") or {}).items():
        where = f"{path}:objects.{name}"
        _require(isinstance(spec, dict), where, "object must be an object")
        kind = spec.get("kind")
        _require(isinstance(kind, str) and kind in _LOADERS, where,
                 f"unknown object kind {kind!r}")
        build, shapes[name] = _LOADERS[kind](ctx, spec, where, expr)
        objects[name] = (kind, cache(build))
    checks = []
    seen = set()
    for i, c in enumerate(raw.get("checks") or []):
        where = f"{path}:checks[{i}]"
        _require(isinstance(c, dict), where, "check must be an object")
        _known(c, ("id", "op", "expect", "args"), where)
        cid = c.get("id")
        _require(isinstance(cid, str) and cid, where, "check needs an 'id'")
        _require(cid not in seen, where, f"duplicate check id {cid!r}")
        seen.add(cid)
        op = c.get("op")
        _require(isinstance(op, str) and op in OPS, where,
                 f"unknown op {op!r}")
        expect = c.get("expect", "OK")
        _require(expect in EXPECTED_STATUSES, where,
                 f"expect must be one of {EXPECTED_STATUSES}")
        args = c.get("args", {})
        load = _Load(ctx, expr, objects, shapes, args)
        checks.append(CheckSpec(cid, op, _read_args(
            OPS[op][1], args, f"{where}.args", load), expect))
    return ProblemFile(path, ctx, objects, checks)


def _member(spec, key, typ, where, required=False):
    """``spec[key]`` (an empty ``typ`` when absent and not ``required``),
    which must be a JSON array (``typ`` list) or object (``typ`` dict)."""
    _require(key in spec or not required, f"{where}.{key}", "missing")
    return _typed(spec.get(key, typ()), typ, f"{where}.{key}")


def _typed(value, typ, where):
    """``value``, which must be a JSON array (``typ`` list) or object
    (``typ`` dict)."""
    _require(isinstance(value, typ), where,
             f"expected a JSON {'array' if typ is list else 'object'}, "
             f"got {value!r}")
    return value


def _known(spec, keys, where):
    """Check that ``spec`` is a JSON object with no key outside ``keys``;
    another key is an error at ``where.key``."""
    for key in _typed(spec, dict, where):
        _require(key in keys, f"{where}.{key}", "unknown argument "
                 f"(expected one of: {', '.join(keys)})")


def _names(spec, key, where):
    names = _member(spec, key, list, where)
    for i, name in enumerate(names):
        _require(isinstance(name, str), f"{where}.{key}[{i}]",
                 f"expected a name, got {name!r}")
    return names


def _max_order(value, where):
    _require(type(value) is int and value >= 0, where,
             f"must be a non-negative integer, got {value!r}")
    return value


def _parse_context(spec, path, max_order=None):
    where = f"{path}:context"
    _require(isinstance(spec, dict), where, "context must be an object")
    _known(spec, ("independents", "dependents", "parameters", "specials",
                  "max_order"), where)
    independents = _names(spec, "independents", where)
    parameters = _names(spec, "parameters", where)
    deps = []
    for i, d in enumerate(_member(spec, "dependents", list, where)):
        if isinstance(d, str):
            deps.append(d)
        else:
            _require(
                isinstance(d, list) and len(d) == 2
                and isinstance(d[0], str) and isinstance(d[1], list)
                and all(isinstance(b, str) for b in d[1]),
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
    order = _max_order(spec.get("max_order", 4), f"{where}.max_order")
    if max_order is not None:
        order = _max_order(max_order, f"{path}: --max-order")
    try:
        ctx = JetContext(independents, deps, parameters=parameters,
                         specials=specials, max_order=order)
    except (VessiotError, ValueError) as exc:  # unknown base, duplicate
        _fail(where, exc)
    try:
        ctx.rules  # parses each special's derivative and rewrite now
    except (VessiotError, ValueError) as exc:
        _fail(f"{where}.specials", exc)
    return ctx


def _parse(ctx, text, where, definitions=None):
    """The one parse of an expression string; errors name ``where``."""
    _require(isinstance(text, str), where,
             f"expected an expression string, got {text!r}")
    try:
        return ctx.expr(text, extra=definitions)
    except UnknownVariable as exc:
        raise UnknownReference(f"{where}: {exc}")
    except VessiotError as exc:
        _fail(where, exc)


def _variable(ctx, text, where, jet=False):
    """The variable (a ``jet`` if asked) that ``text`` names."""
    e = _parse(ctx, text, where)
    vs = list(e.variables())
    _require(len(vs) == 1 and e == RationalExpr.var(vs[0])
             and (vs[0].kind == "jet" or not jet), where,
             f"not a plain {'jet' if jet else 'variable'}: {text!r}")
    return vs[0]


def _order(ctx, spec, where, default=None):
    """``spec["order"]``, 0 to max_order; required without a default."""
    order = spec.get("order", default)
    _require(type(order) is int and 0 <= order <= ctx.max_order,
             f"{where}.order", f"expected an integer from 0 to max_order "
             f"{ctx.max_order}, got {order!r}")
    return order


def _load_explicit(invariants_of, n_independents, counts,
                   ctx, spec, where, expr):
    """A surface or a curve: explicit components (their number is its
    shape).
    ``invariants_of`` names the geomkit function, looked up when the
    object is built, so that a rebinding of it (a tracer's) is seen."""
    _known(spec, ("kind", "components"), where)
    at = f"{where}.components"
    comps = [expr(c, f"{at}[{i}]") for i, c in
             enumerate(_member(spec, "components", list, where))]
    _require(len(ctx.independents) == n_independents
             and len(comps) in counts, at,
             f"expected {'/'.join(map(str, counts))} components over "
             f"{n_independents} independent(s)")
    return (lambda: getattr(geomkit, invariants_of)(ctx, comps)), len(comps)


def _load_section(ctx, spec, where, expr):
    """Explicit ``components`` prolonged to ``order``, or the ``jets``
    themselves, keyed by one count per independent (``"1,0"``): every
    jet index of a listed dependent up to ``order`` and no other.  Its
    shape is (order, the dependents it lists)."""
    _known(spec, ("kind", "order", "components", "jets"), where)
    _require(not {"components", "jets"} <= spec.keys(), f"{where}.jets",
             "a section gives 'components' or 'jets', not both")
    order = _order(ctx, spec, where)
    if "jets" not in spec:
        comps = {}
        for dep, text in _member(spec, "components", dict, where,
                                 True).items():
            at = f"{where}.components.{dep}"
            _require(dep in ctx.bases, at, f"{dep!r} is not a dependent")
            comps[dep] = expr(text, at)
        return (lambda: holonomic_section(ctx, comps, order,
                                          deps=list(comps))), (order, comps)
    values = {}
    listed = _member(spec, "jets", dict, where)
    for dep, jets in listed.items():
        at = f"{where}.jets.{dep}"
        _require(dep in ctx.bases and isinstance(jets, dict), at,
                 f"expected jets of a dependent, got {dep!r}: {jets!r}")
        for mu, text in jets.items():
            counts = mu.split(",")
            _require(len(counts) == len(ctx.independents)
                     and all(n.strip().isdecimal() for n in counts),
                     f"{at}.{mu}", f"jet index {mu!r} needs one count "
                     f"per independent variable")
            key = (dep, tuple(map(int, counts)))
            _require(key not in values, f"{at}.{mu}", "duplicate jet index")
            values[key] = expr(text, f"{at}.{mu}")
        want = {mu for o in range(order + 1)
                for mu in ctx.multi_indices(o, ctx.bases[dep])}
        for mu in sorted(want ^ {m for d, m in values if d == dep}):
            _fail(at, f"{'missing' if mu in want else 'unexpected'} jet "
                  f"index {','.join(map(str, mu))}: expected one value per "
                  f"jet index of {dep} up to order {order}")
    return (lambda: JetSection(ctx, order, values)), (order, listed)


def _load_system(ctx, spec, where, expr):
    """Equations ``lhs [= rhs]``, optionally solved for ``leading``, or
    ``leading = rhs``; an ``ordering`` permutes the independents.  Its
    shape is its order."""
    _known(spec, ("kind", "order", "equations", "ordering", "genericity"),
           where)
    equations = []
    for i, eq in enumerate(_member(spec, "equations", list, where)):
        at = f"{where}.equations[{i}]"
        _known(eq, ("lhs", "rhs", "leading", "genericity"), at)
        _require("lhs" in eq or {"leading", "rhs"} <= eq.keys(), at,
                 "equation needs 'lhs', or 'leading' and 'rhs'")
        lhs, rhs = (expr(eq[k], f"{at}.{k}") if k in eq else None
                    for k in ("lhs", "rhs"))
        lead = (_variable(ctx, eq["leading"], f"{at}.leading", jet=True)
                if "leading" in eq else None)
        gen = [expr(g, f"{at}.genericity[{j}]") for j, g in
               enumerate(_member(eq, "genericity", list, at))]
        if lhs is None:  # solved: leading = rhs
            lhs = RationalExpr.var(lead)
        equations.append(systems.implicit_equation(lhs, rhs, lead, gen))
    conflict = systems.leading_conflict(equations)
    if conflict is not None:
        _fail(f"{where}.equations[{conflict[0]}].leading", conflict[1])
    ordering = _names(spec, "ordering", where) if "ordering" in spec else None
    _require(ordering is None or sorted(ordering) == sorted(ctx.independents),
             f"{where}.ordering", f"expected a permutation of the "
             f"independents {ctx.independents}, got {ordering!r}")
    genericity = [expr(g, f"{where}.genericity[{j}]") for j, g in
                  enumerate(_member(spec, "genericity", list, where))]
    order = _order(ctx, spec, where)
    return (lambda: systems.SolvedSystem(
        ctx, order, equations, ordering=ordering, genericity=genericity,
    )), order


def _load_genset(ctx, spec, where, expr):
    """Nonzero polynomial ``generators``."""
    _known(spec, ("kind", "generators"), where)
    gens = []
    for i, g in enumerate(_member(spec, "generators", list, where, True)):
        gens.append(expr(g, f"{where}.generators[{i}]"))
        _require(gens[-1].is_polynomial() and not gens[-1].is_zero(),
                 f"{where}.generators[{i}]",
                 f"expected a nonzero polynomial, got {g!r}")
    return (lambda: diffideal.DiffPolySet(ctx, gens)), None


def _load_generators(ctx, spec, where, expr):
    """Labelled vector ``fields`` (variable -> component) at ``order``.
    Its shape is (number of fields, order, whether every field has
    order-0 data only and so can be prolonged above ``order``)."""
    _known(spec, ("kind", "order", "fields"), where)
    order = _order(ctx, spec, where, default=0)
    fields, labels = [], []
    for i, f in enumerate(_member(spec, "fields", list, where, True)):
        at = f"{where}.fields[{i}]"
        _known(f, ("label", "components"), at)
        labels.append(f.get("label", f"theta{i + 1}"))
        _require(isinstance(labels[-1], str), f"{at}.label",
                 f"label must be a string, got {labels[-1]!r}")
        fields.append(VectorField({
            _variable(ctx, k, f"{at}.components.{k}"):
                expr(v, f"{at}.components.{k}")
            for k, v in _member(f, "components", dict, at).items()
        }))
    _require(fields, f"{where}.fields", "needs at least one field")
    liftable = all(map(invariants.is_point_field, fields))
    return (lambda: invariants.GeneratorSet(
        ctx, fields, order, tuple(labels)
    )), (len(fields), order, liftable)


# object kind -> loader(ctx, spec, where, expr) -> (constructor, shape);
# the shape (what each loader's docstring names, None for a genset) is
# what some check arguments are read against
_LOADERS = {
    "surface": partial(_load_explicit, "surface_invariants", 2, (3,)),
    "curve": partial(_load_explicit, "curve_invariants", 1, (2, 3)),
    "section": _load_section,
    "system": _load_system,
    "genset": _load_genset,
    "generators": _load_generators,
}


def _lookup(objects, name, kind, where):
    """The constructor of object ``name``, which must be a ``kind``."""
    entry = objects.get(name)
    if entry is None:
        raise UnknownReference(f"{where}: no object named {name!r}")
    if entry[0] != kind:
        raise ContextMismatch(
            f"{where}: object {name!r} is a {entry[0]}, not a {kind}"
        )
    return entry[1]


# ---------------------------------------------------------------------------
# check arguments: ``OPS`` declares each op's keys as {key: (reader,
# required)}; a reader(value, where, load) checks one value and returns
# it as the op uses it

# what check arguments are read against: the context, the expression
# parser (text, where) with the definitions, the objects, their shapes
# (object name -> shape, from its loader) and the arguments as written
_Load = namedtuple("_Load", "ctx expr objects shapes args")


def _read_args(schema, args, where, load):
    """``args`` read by ``schema`` ({key: (reader, required)}), in the
    schema's order: a key the schema does not declare, a missing
    required key and a value its reader refuses are all errors at
    ``where.key``."""
    _known(args, schema, where)
    out = {}
    for key, (reader, required) in schema.items():
        if key in args:
            out[key] = reader(args[key], f"{where}.{key}", load)
        else:
            _require(not required, f"{where}.{key}", "missing argument")
    return out


def _json(typ, what):
    """A JSON value of type ``typ`` (``what``), as it is."""
    def read(value, where, load):
        _require(isinstance(value, typ), where,
                 f"expected {what}, got {value!r}")
        return value
    return read


_flag = _json(bool, "true or false")


def _ref(kind):
    """The name of an object of ``kind``, as the name."""
    def read(value, where, load):
        _require(isinstance(value, str), where,
                 f"expected an object name, got {value!r}")
        _lookup(load.objects, value, kind, where)
        return value
    return read


def _system_of_order_1(value, where, load):
    """The name of a system of order 1 or more (characters, the Cartan
    test and Janet boards have no meaning at order 0)."""
    _ref("system")(value, where, load)
    _require(load.shapes[value] >= 1, where, f"needs a system of order "
             f">= 1, got {value!r} of order {load.shapes[value]}")
    return value


def _frame_section(value, where, load):
    """The name of a section that gives the context's moving frame:
    every dependent, up to the order the frame needs (the number of
    dependents of a curve, 1 for a surface)."""
    _ref("section")(value, where, load)
    deps = load.ctx.dependents
    n, m = len(load.ctx.independents), len(deps)
    _require((n, m) in ((1, 2), (1, 3), (2, 3)), where,
             f"needs a context with 1 independent and 2 or 3 dependents, or "
             f"2 independents and 3, got {n} and {m}")
    need = m if n == 1 else 1
    order, listed = load.shapes[value]
    _require(order >= need and all(d in listed for d in deps), where,
             f"needs a section of every dependent ({', '.join(deps)}) up "
             f"to order {need}, got {', '.join(listed) or 'none'} up to "
             f"order {order}")
    return value


def _count(value, where, load, least=0):
    _require(type(value) is int and value >= least, where,
             f"expected an integer >= {least}, got {value!r}")
    return value


def _expr_arg(value, where, load):
    """An expression; an int reads as its digits."""
    return load.expr(str(value) if type(value) is int else value, where)


def _contact_hamiltonian(value, where, load):
    """An expression, in a context whose independents are the contact
    coordinates t, x, z, p."""
    names = mechanics.CONTACT_COORDINATES
    _require(tuple(load.ctx.independents) == names, where,
             f"needs the independents {', '.join(names)}, got "
             f"{', '.join(load.ctx.independents) or 'none'}")
    return _expr_arg(value, where, load)


def _reached(q, where, load):
    """Order ``q``, which the check's generators must reach: a set given
    by jet-level components is not raised above its own order."""
    _, order, liftable = load.shapes[load.args["generators"]]
    _require(liftable or q <= order, where,
             f"needs order {q}, above the order {order} of generators given "
             f"by jet-level components")
    return q


def _reached_count(value, where, load):
    return _reached(_count(value, where, load), where, load)


def _candidate(value, where, load):
    """An expression whose highest jet the check's generators reach."""
    e = _expr_arg(value, where, load)
    _reached(max(map(jet_order, e.variables()), default=0), where, load)
    return e


def _torsion(value, where, load):
    """``null`` (no torsion expected) or an expression, which needs a
    space curve (3 components)."""
    if value is None:
        return None
    _require(load.shapes[load.args["curve"]] == 3, where,
             "a plane curve has no torsion; expected null")
    return _expr_arg(value, where, load)


def _array(item, per):
    """A JSON array of one value per ``ctx.<per>`` (``"independents"``
    or ``"dependents"``), each read by ``item``."""
    def read(value, where, load):
        n = len(getattr(load.ctx, per))
        _require(isinstance(value, list) and len(value) == n, where,
                 f"expected an array of {n} entries, got {value!r}")
        return [item(v, f"{where}[{i}]", load) for i, v in enumerate(value)]
    return read


def _one_independent(reader):
    """``reader``, for a context with one independent only."""
    def read(value, where, load):
        _require(len(load.ctx.independents) == 1, where,
                 "needs a context with one independent")
        return reader(value, where, load)
    return read


def _expr_map(value, where, load):
    """Quantity name -> expression."""
    return {k: _expr_arg(v, f"{where}.{k}", load)
            for k, v in _typed(value, dict, where).items()}


# indexed surface quantity -> (SurfaceData method, number of indices)
_SURFACE_INDEXED = {"omega": ("om", 2), "sigma": ("si", 2),
                    "gamma": ("ga", 3)}


def _surface_quantity(key, where, load=None):
    """A surface quantity name, as the function that reads it off a
    ``SurfaceData``."""
    _require(isinstance(key, str), where,
             f"expected a quantity name, got {key!r}")
    if key in ("det_omega", "det_sigma"):
        return attrgetter(key)
    head, _, rest = key.partition("[")
    method, arity = _SURFACE_INDEXED.get(head, (None, 0))
    idx = rest[:-1].split(",") if rest.endswith("]") else []
    _require(method is not None and len(idx) == arity
             and all(i.strip() in ("1", "2") for i in idx), where,
             f"unknown surface quantity {key!r} (det_omega, det_sigma, "
             f"omega[i,j], sigma[i,j] or gamma[r,i,j], indices 1 or 2)")
    return methodcaller(method, *(int(i) for i in idx))


def _surface_values(value, where, load):
    """Surface quantity name -> expression, as (quantity, expression)
    pairs."""
    return [(_surface_quantity(k, f"{where}.{k}"), v)
            for k, v in _expr_map(value, where, load).items()]


# the quantities of a curve with 2 or 3 components (CurveData fields)
_CURVE_QUANTITIES = {2: ("omega", "gamma", "sigma", "upsilon")}
_CURVE_QUANTITIES[3] = _CURVE_QUANTITIES[2] + ("phi", "psi", "rho")


def _curve_values(value, where, load):
    """Quantity name of the check's curve -> expression, as (quantity,
    expression) pairs."""
    m = load.shapes[load.args["curve"]]
    names = _CURVE_QUANTITIES[m]
    out = []
    for k, v in _expr_map(value, where, load).items():
        _require(k in names, f"{where}.{k}",
                 f"unknown curve quantity {k!r} (a curve with {m} "
                 f"components has {', '.join(names)})")
        out.append((attrgetter(k), v))
    return out


def _rational(value, where):
    """A JSON number or a string such as ``"1/2"``."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        _fail(where, f"expected a rational number, got {value!r}")


def _rational_point(value, where, load):
    """Variable name -> rational value."""
    out = {}
    for name, val in _typed(value, dict, where).items():
        at = f"{where}.{name}"
        try:
            var = load.ctx.var(name)
        except UnknownVariable as exc:
            raise UnknownReference(f"{at}: unknown variable {exc}")
        out[var] = _rational(val, at)
    return out


def _structure_table(value, where, load):
    """``"rho,sigma"`` (generator numbers from 1 to the n fields of the
    check's generators) -> the n coefficients of their bracket, as
    (key, (rho, sigma) from 0, coefficients)."""
    n = load.shapes[load.args["generators"]][0]
    out = []
    for key, coeffs in _typed(value, dict, where).items():
        at = f"{where}.{key}"
        pair = key.split(",")
        _require(len(pair) == 2 and all(p.strip().isdecimal()
                                        and 1 <= int(p) <= n for p in pair),
                 at, f"expected a key 'rho,sigma' of generator numbers "
                 f"from 1 to {n}, got {key!r}")
        coeffs = _typed(coeffs, list, at)
        _require(len(coeffs) == n, at,
                 f"expected {n} coefficients, got {len(coeffs)}")
        out.append((key, tuple(int(p) - 1 for p in pair),
                    [_rational(c, f"{at}[{i}]") for i, c in
                     enumerate(coeffs)]))
    return out


def _independent(value, where, load):
    _require(isinstance(value, str) and value in load.ctx.independents,
             where, f"expected an independent variable, one of "
             f"{load.ctx.independents}, got {value!r}")
    return value


# a witness point on a system's variety: a section's jets at ``point``
_witness_arg = partial(_read_args, {"section": (_ref("section"), True),
                                    "point": (_rational_point, True)})


# ---------------------------------------------------------------------------
# object construction (lazy, cached per object)


def _build(pf, name, kind):
    """Object ``name`` (a ``kind``), built on first use and kept."""
    return _lookup(pf.objects, name, kind, pf.path)()


def _witness(pf, args, key):
    w = args.get(key)
    return None if w is None else systems.witness_from_section(
        _build(pf, w["section"], "section"), w["point"])


# ---------------------------------------------------------------------------
# check operations


def _residual_report(name, residuals):
    for r in residuals:
        if not r.is_zero():
            return CheckReport(name, "FAIL", witness=r)
    return CheckReport(name, "OK")


def op_surface_values(pf, args, options):
    S = _build(pf, args["surface"], "surface")
    res = [pf.ctx.reduce(q(S) - v) for q, v in args["values"]]
    return _residual_report("surface_values", res)


def op_surface_substitute(pf, args, options):
    S = _build(pf, args["surface"], "surface")
    q = args["quantity"](S)
    binding = {v: RationalExpr.const(x) for v, x in args["at"].items()}
    val = pf.ctx.reduce(substitute(q, binding))
    return _residual_report(
        "surface_substitute", [val - args["expected"]]
    )


def op_gauss_codazzi(pf, args, options):
    S = _build(pf, args["surface"], "surface")
    c1, c2 = geomkit.codazzi_residual(S)
    return _residual_report(
        "gauss_codazzi", [geomkit.gauss_residual(S), c1, c2]
    )


def op_curve_values(pf, args, options):
    C = _build(pf, args["curve"], "curve")
    res = [pf.ctx.reduce(q(C) - v) for q, v in args["values"]]
    return _residual_report("curve_values", res)


def op_curve_identities(pf, args, options):
    C = _build(pf, args["curve"], "curve")
    return C.identity_report()


def op_frenet(pf, args, options):
    C = _build(pf, args["curve"], "curve")
    kappa2, tau = geomkit.frenet_squares(C)
    res = [pf.ctx.reduce(kappa2 - args["kappa2"])]
    if "tau" in args:
        if args["tau"] is None:
            if tau is not None:
                return CheckReport("frenet", "FAIL", witness=tau,
                                   detail="expected no torsion")
        else:
            res.append(pf.ctx.reduce(tau - args["tau"]))
    return _residual_report("frenet", res)


def _entries(v):
    """The entries of a vector, or of a matrix given as its rows."""
    return [e for row in v for e in row] if isinstance(v[0], list) else v


def op_gauging_forms(pf, args, options):
    G = geomkit.gauging(_build(pf, args["source"], "section"),
                        _build(pf, args["target"], "section"))
    got = {"A": G.A, "B": G.B}
    if {"P", "Q", "P_skew"} & args.keys():
        got["P"], got["Q"] = geomkit.maurer_cartan(G)
    res = [pf.ctx.reduce(g - e) for key in "ABPQ" if key in args
           for g, e in zip(_entries(got[key]), _entries(args[key]))]
    if args.get("P_skew"):
        P = got["P"]
        res += [pf.ctx.reduce(P[i][j] + P[j][i])
                for i in range(len(P)) for j in range(i, len(P))]
    if args.get("orthogonal"):
        for row in G.orthogonal_defect():
            res.extend(row)
        res.append(G.det_defect())
    return _residual_report("gauging_forms", res)


def op_characters(pf, args, options):
    S = _build(pf, args["system"], "system")
    alpha = systems.characters(S, strict=args.get("strict", False))
    got, want = list(alpha), args["expected"]
    ok = got == want if args.get("ordered") else sorted(got) == sorted(want)
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
    """``name`` under ``golden/`` or beside the file, else in the corpus."""
    bases = [] if pf.path == "<memory>" else [Path(pf.path).parent]
    for base in bases + [options.corpus_dir]:
        for c in (base / "golden" / name, base / name):
            if c.is_file():
                return c
    raise UnknownReference(f"{pf.path}: golden file {name!r} not found")


def op_janet_board(pf, args, options):
    S = _build(pf, args["system"], "system")
    board = systems.janet_board(S).render()
    ok = board == _golden_path(pf, options, args["golden"]).read_text()
    return CheckReport(
        "janet_board", "OK" if ok else "FAIL", witness=None if ok else board,
        detail="" if ok else f"differs from {args['golden']}",
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


def _pair(pf, args):
    """The system, the groupoid and their witnesses (``_PAIR``)."""
    return (_build(pf, args["system"], "system"),
            _build(pf, args["groupoid"], "system"),
            _witness(pf, args, "witness_system"),
            _witness(pf, args, "witness_groupoid"))


def op_phs(pf, args, options):
    return systems.phs_check(*_pair(pf, args))


def op_automorphic(pf, args, options):
    return systems.automorphic_criterion(*_pair(pf, args))


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
    return diffideal.syzygy_check(args["combination"])


def op_radical_membership(pf, args, options):
    rep, _cert = diffideal.radical_power_membership(
        pf.ctx, args["element"], args["direction"], args["r"]
    )
    return rep


def op_is_invariant(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    return invariants.is_invariant(args["candidate"], G)


def op_invariant_count(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    n = invariants.invariant_count(pf.ctx, G, args["order"])
    return _count_report("invariant_count", "count", n, args["expected"])


def op_structure_table(pf, args, options):
    G = _build(pf, args["generators"], "generators")
    table = invariants.structure_constants(G)
    witness = None
    for key, pair, want in args["expected"]:
        got = table[pair]
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
        args.get("multiplier", RationalExpr.const(1)),
        args["field"],
        args["map"],
    )


def op_hessian(pf, args, options):
    if "lagrangian" in args:
        return mechanics.hessian_multiplier_identity(
            pf.ctx, args["lagrangian"]
        )
    return mechanics.hessian_multiplier_identity()


def op_hj_chain(pf, args, options):
    ctx = pf.ctx if "hamiltonian" in args else None
    H = args.get("hamiltonian")
    rep, art = mechanics.hj_closure_chain(ctx, H)
    if rep.ok and "coefficient" in args:
        res = art["coefficient"] - args["coefficient"]
        if not res.is_zero():
            return CheckReport("hj_chain", "FAIL", witness=res,
                               detail="volume coefficient mismatch")
    return rep


def op_separability(pf, args, options):
    return mechanics.separability_conditions(
        pf.ctx, args["hamiltonian"]
    )


def _needs(kind, key=None):
    """The entry of a required argument ``key`` naming a ``kind``."""
    return {key or kind: (_ref(kind), True)}


# schema entries (capitals) and readers that several ops share
_SURFACE, _CURVE, _SYSTEM, _GENERATORS = map(
    _needs, ("surface", "curve", "system", "generators"))
_PAIR = {**_SYSTEM, **_needs("system", "groupoid"),
         "witness_system": (_witness_arg, False),
         "witness_groupoid": (_witness_arg, False)}
_EXPR, _COUNT, _FLAG = (_expr_arg, True), (_count, True), (_flag, False)
_positive = partial(_count, least=1)
_SYSTEM1 = {"system": (_system_of_order_1, True)}
_vector = _array(_expr_arg, "dependents")
_FIELD = (_array(_expr_arg, "independents"), True)

# op name -> (function, {argument: (reader, required)}): the one
# declaration of each op's arguments, read by ``_read_args``
OPS = {
    "surface_values": (op_surface_values,
                       {**_SURFACE, "values": (_surface_values, True)}),
    "surface_substitute": (op_surface_substitute, {
        **_SURFACE, "quantity": (_surface_quantity, True),
        "at": (_rational_point, True), "expected": _EXPR}),
    "gauss_codazzi": (op_gauss_codazzi, _SURFACE),
    "curve_values": (op_curve_values,
                     {**_CURVE, "values": (_curve_values, True)}),
    "curve_identities": (op_curve_identities, _CURVE),
    "frenet": (op_frenet, {**_CURVE, "kappa2": _EXPR,
                           "tau": (_torsion, False)}),
    "gauging_forms": (op_gauging_forms, {
        "source": (_frame_section, True), "target": (_frame_section, True),
        "A": (_array(_vector, "dependents"), False), "B": (_vector, False),
        "P": (_one_independent(_array(_vector, "dependents")), False),
        "Q": (_one_independent(_vector), False),
        "P_skew": (_one_independent(_flag), False), "orthogonal": _FLAG}),
    "characters": (op_characters, {
        **_SYSTEM1, "expected": (_array(_count, "independents"), True),
        "strict": _FLAG, "ordered": _FLAG}),
    "cartan": (op_cartan, _SYSTEM1),
    "cartan_bound": (op_cartan_bound, _SYSTEM1),
    "janet_board": (op_janet_board,
                    {**_SYSTEM1, "golden": (_json(str, "a file name"), True)}),
    "fiber_dimension": (op_fiber_dimension, {
        **_SYSTEM, "expected": _COUNT, "witness": (_witness_arg, False)}),
    "phs": (op_phs, _PAIR),
    "automorphic": (op_automorphic, _PAIR),
    "compatibility_count": (op_compatibility_count,
                            {**_SYSTEM, "expected": _COUNT}),
    "prolong_count": (op_prolong_count, {
        **_needs("genset"), "rounds": _COUNT, "expected": _COUNT}),
    "syzygy": (op_syzygy, {"combination": _EXPR}),
    "radical_membership": (op_radical_membership, {
        "element": _EXPR, "direction": (_independent, True),
        "r": (_positive, True)}),
    "is_invariant": (op_is_invariant,
                     {**_GENERATORS, "candidate": (_candidate, True)}),
    "invariant_count": (op_invariant_count, {
        **_GENERATORS, "order": (_reached_count, True), "expected": _COUNT}),
    "structure_table": (op_structure_table,
                        {**_GENERATORS, "expected": (_structure_table, True)}),
    "jacobi_table": (op_jacobi_table, _GENERATORS),
    "lie_condition": (op_lie_condition, {"flip_chi": _FLAG}),
    "jacobi_multiplier": (op_jacobi_multiplier, {"n": (_positive, False)}),
    "multiplier_transport": (op_multiplier_transport, {
        "multiplier": (_expr_arg, False), "field": _FIELD, "map": _FIELD}),
    "hessian": (op_hessian, {"lagrangian": (_expr_arg, False)}),
    "hj_chain": (op_hj_chain, {"hamiltonian": (_contact_hamiltonian, False),
                               "coefficient": (_expr_arg, False)}),
    "separability": (op_separability, {"hamiltonian": _EXPR}),
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
        board = stack = None
        try:
            out = OPS[spec.op][0](pf, spec.args, options)
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
            if options.traceback:
                stack = traceback.format_exc()
        results.append(CheckResult(
            spec.id, spec.op, status, spec.expect, witness, numbers,
            detail, board, time.monotonic() - start, stack,
        ))
    return RunReport(pf.path, results)


def report_json(reports):
    """Machine-readable report; byte-stable (timings are deliberately
    excluded).  A check has a ``traceback`` key only when it carries a
    stack (``--traceback``)."""
    files = []
    for rep in reports:
        checks = []
        for r in rep.results:
            check = {
                "id": r.id,
                "op": r.op,
                "status": r.status,
                "expected": r.expect,
                "matched": r.matched,
                "witness": r.witness,
                "numbers": r.numbers,
                "detail": r.detail,
            }
            if r.traceback is not None:
                check["traceback"] = r.traceback
            checks.append(check)
        files.append({"path": rep.path, "checks": checks})
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
                if r.traceback is not None:
                    for row in r.traceback.rstrip("\n").split("\n"):
                        lines.append(f"      {row}")
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
    chk.add_argument("--traceback", action="store_true",
                     help="show the stack of each check that ERRORs")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if ns.command != "check":
        parser.print_help(sys.stderr)
        return 2
    options = Options(only=ns.only, traceback=ns.traceback)
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
