"""Problem-file frontend and check runner.

Problem files are JSON documents with four sections: ``context``
(variable declarations), ``definitions`` (named expressions),
``objects`` (surfaces, curves, sections, systems, generator sets) and
``checks`` (named check invocations with expected statuses).

A file is fully checked at load: each level of it (the context, each
object kind in ``KINDS``, equations, generator fields, check entries
and each op's arguments in ``OPS``) declares its keys in one schema,
read by one walk that parses each expression once.  An undeclared or
missing key, an ill-typed value and a check that could only end in an
ERROR (a section short of the frame gauging needs, a witness short of a
value its check evaluates, a jet its op's depth takes past max_order,
...) are refused alike.  The first error names the file and a JSON path
(``f.json:objects.S.order``), and ``vessiot check`` exits 2.  Objects
are built on first use, from the inputs parsed at load.  The runner executes each check through the owning module with its
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
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path

from . import diffideal, geomkit, invariants, linalg, mechanics, systems
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
from .report import CheckReport, verdict
from .symcore import RationalExpr, substitute

EXPECTED_STATUSES = ("OK", "FAIL")


def default_corpus_dir():
    env = os.environ.get("VESSIOT_CORPUS")
    if env:
        return Path(env)
    return Path(__file__).parent / "corpus"


class Options:
    def __init__(self, only=None, traceback=False):
        self.only = only
        # an ERROR result keeps its formatted stack
        self.traceback = traceback


class CheckSpec:
    def __init__(self, id, op, args, expect):
        self.id = id
        self.op = op
        self.args = args
        self.expect = expect


class ProblemFile:
    def __init__(self, path, ctx, objects, checks):
        self.path = path
        self.ctx = ctx
        # name -> (kind, cached zero-argument constructor)
        self.objects = objects
        self.checks = checks


class CheckResult:
    def __init__(self, id, op, status, expect, witness, numbers, detail,
                 board, seconds, traceback=None):
        self.id = id
        self.op = op
        self.status = status
        self.expect = expect
        self.witness = witness
        self.numbers = numbers
        self.detail = detail
        self.board = board
        self.seconds = seconds
        self.traceback = traceback

    @property
    def matched(self):
        return self.status == self.expect


class RunReport:
    def __init__(self, path, results):
        self.path = path
        self.results = results

    @property
    def all_matched(self):
        return all(r.matched for r in self.results)


# ---------------------------------------------------------------------------
# parsing: ``_read_args`` reads each level of a file by its schema, {key:
# (reader, required)}; a reader(value, where, load) checks one value and
# returns it as it is used


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
    # an absent section is empty; a present one must have its type
    for key, typ in (("definitions", dict), ("objects", dict),
                     ("checks", list)):
        raw.setdefault(key, typ())
        _require(isinstance(raw[key], typ), f"{path}:{key}",
                 f"expected a JSON {'array' if typ is list else 'object'}")
    ctx = _read_context(raw["context"], path, max_order)
    definitions = {}
    for name, text in raw["definitions"].items():
        definitions[name] = _parse(
            ctx, text, f"{path}:definitions.{name}", definitions
        )
    objects, facts = {}, {}
    for name, spec in raw["objects"].items():
        where = f"{path}:objects.{name}"
        kind = _json_object(spec, where, None).get("kind")
        _require(isinstance(kind, str) and kind in KINDS, where,
                 f"unknown object kind {kind!r}")
        make, schema, *depth = KINDS[kind]
        load = _Load(path, ctx, definitions, objects, facts, spec, *depth)
        facts[name] = _read_args(schema, spec, where, load, load.depth)
        objects[name] = (kind, cache(make(facts[name], where, load)))
    checks = []
    seen = set()
    for i, c in enumerate(raw["checks"]):
        where = f"{path}:checks[{i}]"
        c = _read_args(_CHECK, c, where, None)
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
        _, schema, *depth = OPS[op]
        load = _Load(path, ctx, definitions, objects, facts, args, *depth)
        checks.append(CheckSpec(cid, op, _read_args(
            schema, args, f"{where}.args", load, load.depth), expect))
    return ProblemFile(path, ctx, objects, checks)


# what a reader reads against: the problem file's path, the context, the
# definitions, the objects (name -> (kind, constructor)) and their facts
# (name -> the values its kind's schema read, and the defaults its make
# filled in), the JSON object being read, and its kind's or op's depths
_Load = namedtuple("_Load", "path ctx definitions objects facts args depth",
                   defaults=({},))


def _read_args(schema, args, where, load, depth=()):
    """``args`` read by ``schema`` ({key: (reader, required)}), in the
    schema's order: a key the schema does not declare, a missing
    required key, a value its reader refuses and a value too deep for
    its ``depth`` (``_within``) are all errors at ``where.key``."""
    for key in _json_object(args, where, load):
        _require(key in schema, f"{where}.{key}", "unknown argument " + (
            f"(expected one of: {', '.join(schema)})" if schema
            else "(takes no arguments)"))
    out = {}
    for key, (reader, required) in schema.items():
        if key in args:
            out[key] = reader(args[key], f"{where}.{key}", load)
            if key in depth:
                _within(out[key], depth[key], f"{where}.{key}", load)
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


_json_object = _json(dict, "a JSON object")
_json_array = _json(list, "a JSON array")


def _list(item):
    """A JSON array, each entry read by ``item``."""
    def read(value, where, load):
        return [item(v, f"{where}[{i}]", load)
                for i, v in enumerate(_json_array(value, where, load))]
    return read


def _map(key, item, what="key"):
    """A JSON object, each value read by ``item`` and then its key by
    ``key``, both at ``where.key``; two keys may not read the same."""
    def read(value, where, load):
        out = {}
        for k, v in _json_object(value, where, load).items():
            at = f"{where}.{k}"
            v = item(v, at, load)
            k = key(k, at, load)
            _require(k not in out, at, f"duplicate {what}")
            out[k] = v
        return out
    return read


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


def _expr(value, where, load):
    """An expression string, which may use the definitions."""
    return _parse(load.ctx, value, where, load.definitions)


def _variable(text, where, load, jet=False):
    """The variable (a ``jet`` if asked) that ``text`` names."""
    e = _parse(load.ctx, text, where)
    vs = list(e.variables())
    _require(len(vs) == 1 and e == RationalExpr.var(vs[0])
             and (vs[0].kind == "jet" or not jet), where,
             f"not a plain {'jet' if jet else 'variable'}: {text!r}")
    return vs[0]


def _dependent_name(dep, where, load):
    _require(dep in load.ctx.bases, where, f"{dep!r} is not a dependent")
    return dep


_name = _json(str, "a name")


def _dependent(value, where, load):
    """A name, or [name, base-list] as (name, bases)."""
    if isinstance(value, str):
        return value
    _require(isinstance(value, list) and len(value) == 2
             and isinstance(value[0], str) and isinstance(value[1], list)
             and all(isinstance(b, str) for b in value[1]), where,
             f"dependent must be a name or [name, base-list], got {value!r}")
    return value[0], tuple(value[1])


def _special(value, where, load):
    """[name, base, derivative] or [name, base, derivative, rewrite]."""
    _require(isinstance(value, list) and len(value) in (3, 4)
             and all(isinstance(part, str) for part in value), where,
             "special must be [name, base, derivative] or [name, base, "
             f"derivative, rewrite], got {value!r}")
    return tuple(value)


def _max_order(value, where, load=None):
    _require(type(value) is int and value >= 0, where,
             f"must be a non-negative integer, got {value!r}")
    return value


# JetContext's parameters
_CONTEXT = {"independents": (_list(_name), False),
            "dependents": (_list(_dependent), False),
            "parameters": (_list(_name), False),
            "specials": (_list(_special), False),
            "max_order": (_max_order, False)}


def _read_context(spec, path, max_order=None):
    """The context; ``max_order`` (``--max-order``) replaces its own."""
    where = f"{path}:context"
    c = {"independents": [], "dependents": [],
         **_read_args(_CONTEXT, spec, where, None)}
    if max_order is not None:
        c["max_order"] = _max_order(max_order, f"{path}: --max-order")
    try:
        ctx = JetContext(**c)
    except (VessiotError, ValueError) as exc:  # unknown base, duplicate
        _fail(where, exc)
    try:
        ctx.rules  # parses each special's derivative and rewrite now
    except (VessiotError, ValueError) as exc:
        _fail(f"{where}.specials", exc)
    return ctx


# a check entry; ``parse_problem`` checks its id against the other
# entries, its op against ``OPS`` and its args by the op's schema
_CHECK = dict.fromkeys(("id", "op", "expect", "args"),
                       (lambda value, where, load: value, False))


def _order(value, where, load):
    """An object's order, 0 to the context's max_order."""
    _require(type(value) is int and 0 <= value <= load.ctx.max_order, where,
             f"expected an integer from 0 to max_order "
             f"{load.ctx.max_order}, got {value!r}")
    return value


def _jets(value):
    """The jets of an expression, or of an array or a map of them."""
    if isinstance(value, RationalExpr):
        return [v for v in value.variables() if v.kind == "jet"]
    return [v for x in (value.values() if isinstance(value, dict) else value)
            for v in _jets(x)]


def _within(value, depth, where, load):
    """A value whose highest jet, ``depth`` total derivatives further,
    stays within max_order: an expression, an array or a map of them, or
    an object's name (a system of order q has jets of order q, and a
    section's components are taken its order further).  A ``depth``
    function reads which keys the JSON object gives, or ones read before."""
    depth = depth(load.args) if callable(depth) else depth
    facts = load.facts[value] if isinstance(value, str) else {}
    key = next((k for k in ("jets", "generators") if k in facts), "components")
    if "equations" in facts:
        top, what = facts["order"], f"a system of order {facts['order']}"
    else:
        depth += facts.get("order", 0) if key == "components" else 0
        top = max(map(jet_order, _jets(facts.get(key, value))), default=None)
        what = ("an expression carries" if isinstance(value, RationalExpr)
                else f"{key} carry") + f" a jet of order {top}"
    m = load.ctx.max_order
    _require(top is None or top + depth <= m, where,
             f"{what}, which {depth} total derivative{'s' * (depth != 1)} "
             f"take{'s' * (depth == 1)} above max_order {m}")


def _explicit(invariants, n_independents, counts, depth):
    """A surface or a curve kind of ``counts`` components over
    ``n_independents`` independent(s); geomkit's ``invariants`` is looked up
    when the object is built, so that a tracer's rebinding of it is seen."""
    def components(value, where, load):
        comps = _list(_expr)(value, where, load)
        _require(len(load.ctx.independents) == n_independents
                 and len(comps) in counts, where,
                 f"expected {'/'.join(map(str, counts))} components over "
                 f"{n_independents} independent(s)")
        return comps
    def make(c, where, load):
        return lambda: getattr(geomkit, invariants)(load.ctx, c["components"])
    schema = {**_KIND, "components": (components, True)}
    return make, schema, {"components": depth}


def _jet_index(mu, where, load):
    """One count per independent (``"1,0"``), as a multi-index."""
    counts = mu.split(",")
    _require(len(counts) == len(load.ctx.independents)
             and all(n.strip().isdecimal() for n in counts), where,
             f"jet index {mu!r} needs one count per independent variable")
    return tuple(map(int, counts))


def _section(s, where, load):
    """Explicit ``components`` prolonged to ``order``, or the ``jets``
    themselves: every jet index of a listed dependent up to ``order`` and
    no other."""
    _require(not {"components", "jets"} <= s.keys(), f"{where}.jets",
             "a section gives 'components' or 'jets', not both")
    _require(s.keys() & {"components", "jets"}, f"{where}.components",
             "missing argument")
    ctx, order = load.ctx, s["order"]
    if "components" in s:
        comps = s["components"]
        return lambda: holonomic_section(ctx, comps, order)
    for dep, jets in s["jets"].items():
        want = {mu for o in range(order + 1)
                for mu in ctx.multi_indices(o, ctx.bases[dep])}
        for mu in sorted(want ^ jets.keys()):
            _fail(f"{where}.jets.{dep}",
                  f"{'missing' if mu in want else 'unexpected'} jet index "
                  f"{','.join(map(str, mu))}: expected one value per jet "
                  f"index of {dep} up to order {order}")
    values = {(dep, mu): e for dep, jets in s["jets"].items()
              for mu, e in jets.items()}
    return lambda: JetSection(ctx, order, values)


_EQUATION = {"lhs": (_expr, False), "rhs": (_expr, False),
             "leading": (partial(_variable, jet=True), False),
             "genericity": (_list(_expr), False)}


def _equation(value, where, load):
    """``lhs [= rhs]``, optionally solved for ``leading``, or ``leading =
    rhs``."""
    eq = _read_args(_EQUATION, value, where, load)
    _require("lhs" in eq or {"leading", "rhs"} <= eq.keys(), where,
             "equation needs 'lhs', or 'leading' and 'rhs'")
    lead, gen = eq.get("leading"), eq.get("genericity", [])
    if "lhs" not in eq:
        return systems.solved_equation(lead, eq["rhs"], gen)
    return systems.implicit_equation(eq["lhs"], eq.get("rhs"), lead, gen)


def _system(s, where, load):
    """Equations whose leading jets do not clash and no residual of which
    is a constant multiple of an earlier one, at ``order``; an
    ``ordering`` permutes the independents."""
    ctx, equations = load.ctx, s.setdefault("equations", [])
    conflict = systems.leading_conflict(equations)
    if conflict is not None:
        _fail(f"{where}.equations[{conflict[0]}].leading", conflict[1])
    above = systems.jet_above_order(equations, s["order"])
    if above is not None:
        _fail(f"{where}.equations[{above[0]}]", above[1])
    # a repeated residual would count twice where classes are counted
    # from declared leading jets (systems.characters); residuals are
    # normal forms, so r is k*q for a constant k exactly when r's num and
    # den are constant multiples of q's
    residuals = [e.residual for e in equations]
    for i, r in enumerate(residuals):
        for j, q in enumerate(residuals[:i]):
            if (linalg.proportion(r.num, q.num) is not None
                    and linalg.proportion(r.den, q.den) is not None):
                _fail(f"{where}.equations[{i}]",
                      f"residual is a constant multiple of that of "
                      f"equations[{j}]")
    _require(sorted(s.get("ordering", ctx.independents))
             == sorted(ctx.independents), f"{where}.ordering",
             f"expected a permutation of the independents "
             f"{ctx.independents}, got {s.get('ordering')!r}")
    return lambda: systems.SolvedSystem(
        ctx, s["order"], equations, ordering=s.get("ordering"),
        genericity=s.get("genericity", []))


def _generator(value, where, load):
    g = _expr(value, where, load)
    _require(g.is_polynomial() and not g.is_zero(), where,
             f"expected a nonzero polynomial, got {value!r}")
    return g


def _genset(s, where, load):
    ctx, gens = load.ctx, s["generators"]
    return lambda: diffideal.DiffPolySet(ctx, gens)


_GENERATOR_FIELD = {"label": (_json(str, "a label"), False),
                    "components": (_map(_variable, _expr), False)}


def _fields(value, where, load):
    """At least one vector field, as (label, VectorField) pairs; the
    label of the i-th defaults to ``theta<i>``."""
    fields = _list(partial(_read_args, _GENERATOR_FIELD))(value, where, load)
    _require(fields, where, "needs at least one field")
    return [(f.get("label", f"theta{i + 1}"),
             VectorField(f.get("components", {})))
            for i, f in enumerate(fields)]


def _generators(g, where, load):
    ctx, order = load.ctx, g.setdefault("order", 0)
    labels, fields = zip(*g["fields"])
    return lambda: invariants.GeneratorSet(ctx, list(fields), order, labels)


_KIND = {"kind": (_name, True)}

# object kind -> (make, {key: (reader, required)}[, {key: depth}]): the
# one declaration of each kind's keys and depths.  The values read are the
# object's facts, which some check arguments are read against; make(facts,
# where, load) checks the rules that span keys and returns its constructor
KINDS = {
    "surface": _explicit("surface_invariants", 2, (3,), 2),
    "curve": _explicit("curve_invariants", 1, (2, 3),
                       lambda c: len(c["components"])),
    "section": (_section, {
        **_KIND, "order": (_order, True),
        "components": (_map(_dependent_name, _expr), False),
        "jets": (_map(_dependent_name, _map(_jet_index, _expr, "jet index")),
                 False)}, {"components": itemgetter("order")}),
    "system": (_system, {**_KIND, "equations": (_list(_equation), False),
                         "ordering": (_list(_name), False),
                         "genericity": (_list(_expr), False),
                         "order": (_order, True)}),
    "genset": (_genset, {**_KIND, "generators": (_list(_generator), True)}),
    "generators": (_generators, {**_KIND, "order": (_order, False),
                                 "fields": (_fields, True)}),
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
# check arguments: ``OPS`` declares each op's keys

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
    order = load.facts[value]["order"]
    _require(order >= 1, where, f"needs a system of order >= 1, got "
             f"{value!r} of order {order}")
    return value


def _janet_system(value, where, load):
    """The name of a system of order 1 or more whose leading jets are of
    order 1 or more (a row's class is that of its leading jet, and an
    order-0 jet has none)."""
    _system_of_order_1(value, where, load)
    for i, e in enumerate(load.facts[value]["equations"]):
        if e.leading is not None and jet_order(e.leading) == 0:
            _fail(where, f"needs leading jets of order >= 1, got "
                  f"{e.leading.name} in {value!r}.equations[{i}]")
    return value


# the gauging_forms arguments that take maurer_cartan's structure forms
_STRUCTURE_FORMS = {"P", "Q", "P_skew"}


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
    s = load.facts[value]
    order, listed = s["order"], s.get("components", s.get("jets"))
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
    return _expr(str(value) if type(value) is int else value, where, load)


def _contact_hamiltonian(value, where, load):
    """An expression, in a context whose independents are the contact
    coordinates t, x, z, p."""
    names = mechanics.CONTACT_COORDINATES
    _require(tuple(load.ctx.independents) == names, where,
             f"needs the independents {', '.join(names)}, got "
             f"{', '.join(load.ctx.independents) or 'none'}")
    return _expr_arg(value, where, load)


def _declaring(names):
    """An expression, in a context that declares the independents
    ``names``, in any order and among others."""
    def read(value, where, load):
        have = load.ctx.independents
        _require(set(names) <= set(have), where,
                 f"needs the independents {', '.join(names)}, got "
                 f"{', '.join(have) or 'none'}")
        return _expr_arg(value, where, load)
    return read


def _reached(q, where, load):
    """Order ``q``, which the check's generators must reach: a set given
    by jet-level components is not raised above its own order."""
    g = load.facts[load.args["generators"]]
    _require(q <= g["order"] or all(
        invariants.is_point_field(f) for _, f in g["fields"]), where,
        f"needs order {q}, above the order {g['order']} of generators "
        f"given by jet-level components")
    return q


def _reached_order(value, where, load):
    return _reached(_order(value, where, load), where, load)


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
    _require(len(load.facts[load.args["curve"]]["components"]) == 3, where,
             "a plane curve has no torsion; expected null")
    return _expr_arg(value, where, load)


def _array(item, per):
    """A JSON array of one value per ``ctx.<per>`` (``"independents"``
    or ``"dependents"``), each read by ``item``."""
    def read(value, where, load):
        n = len(getattr(load.ctx, per))
        _require(isinstance(value, list) and len(value) == n, where,
                 f"expected an array of {n} entries, got {value!r}")
        return _list(item)(value, where, load)
    return read


def _one_independent(reader):
    """``reader``, for a context with one independent only."""
    def read(value, where, load):
        _require(len(load.ctx.independents) == 1, where,
                 "needs a context with one independent")
        return reader(value, where, load)
    return read


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


# the quantities of a curve with 2 or 3 components (CurveData fields)
_CURVE_QUANTITIES = {2: ("omega", "gamma", "sigma", "upsilon")}
_CURVE_QUANTITIES[3] = _CURVE_QUANTITIES[2] + ("phi", "psi", "rho")


def _curve_quantity(key, where, load):
    """A quantity name of the check's curve, as the function that reads
    it off a ``CurveData``."""
    m = len(load.facts[load.args["curve"]]["components"])
    _require(key in _CURVE_QUANTITIES[m], where,
             f"unknown curve quantity {key!r} (a curve with {m} "
             f"components has {', '.join(_CURVE_QUANTITIES[m])})")
    return attrgetter(key)


def _rational(value, where, load=None):
    """A JSON number or a string such as ``"1/2"``."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        _fail(where, f"expected a rational number, got {value!r}")


def _point_variable(name, where, load):
    try:
        return load.ctx.var(name)
    except UnknownVariable as exc:
        raise UnknownReference(f"{where}: unknown variable {exc}")


# variable name -> rational value
_rational_point = _map(_point_variable, _rational)


def _structure_table(value, where, load):
    """``"rho,sigma"`` (generator numbers from 1 to the n fields of the
    check's generators) -> the n coefficients of their bracket, as
    (key, (rho, sigma) from 0, coefficients)."""
    n = len(load.facts[load.args["generators"]]["fields"])
    out = []
    for key, coeffs in _json_object(value, where, load).items():
        at = f"{where}.{key}"
        pair = key.split(",")
        _require(len(pair) == 2 and all(p.strip().isdecimal()
                                        and 1 <= int(p) <= n for p in pair),
                 at, f"expected a key 'rho,sigma' of generator numbers "
                 f"from 1 to {n}, got {key!r}")
        coeffs = _json_array(coeffs, at, load)
        _require(len(coeffs) == n, at,
                 f"expected {n} coefficients, got {len(coeffs)}")
        out.append((key, tuple(int(p) - 1 for p in pair),
                    _list(_rational)(coeffs, at, load)))
    return out


def _independent(value, where, load):
    _require(isinstance(value, str) and value in load.ctx.independents,
             where, f"expected an independent variable, one of "
             f"{load.ctx.independents}, got {value!r}")
    return value


_WITNESS = {"section": (_ref("section"), True),
            "point": (_rational_point, True)}


def _witness_arg(system):
    """A witness point on the variety of the system that the check's
    argument ``system`` names: a section's jets at ``point``.  It gives
    every value the check evaluates: the section lists each dependent
    whose jets the system's equations and genericity carry (those the
    point does not bind), up to their highest order plus the depth (an
    int) the op declares for ``system``; the point binds every other
    variable of them and of the section's values."""
    def read(value, where, load):
        w = _read_args(_WITNESS, value, where, load)
        S, s = load.facts[load.args[system]], load.facts[w["section"]]
        point = w["point"]
        exprs = [*S.get("genericity", ()), *(
            x for e in S["equations"] for x in (e.residual, *e.genericity))]
        used = {v for e in exprs for v in e.variables()} - point.keys()
        jets = {v for v in used if v.kind == "jet"}
        deps = sorted({load.ctx.jet_info(v)[0] for v in jets})
        order = max(map(jet_order, jets), default=0) + load.depth.get(
            system, 0)
        listed = s.get("components", s.get("jets"))
        _require(s["order"] >= order and all(d in listed for d in deps),
                 f"{where}.section", f"needs a section of "
                 f"{', '.join(deps) or 'any dependent'} up to order {order}, "
                 f"got {', '.join(listed) or 'none'} up to order "
                 f"{s['order']}")
        values = (listed.values() if "components" in s
                  else [e for jet in listed.values() for e in jet.values()])
        unbound = (used - jets | {v for e in values for v in e.variables()}
                   ) - point.keys()
        _require(not unbound, f"{where}.point", "gives no value for "
                 f"{', '.join(sorted(v.name for v in unbound))}")
        return w
    return read


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


def op_values(kind, pf, args):
    """Each quantity of the ``kind`` object against its expected value."""
    obj = _build(pf, args[kind], kind)
    return verdict(pf.ctx.reduce(q(obj) - v)
                   for q, v in args["values"].items())


def op_surface_substitute(pf, args):
    S = _build(pf, args["surface"], "surface")
    q = args["quantity"](S)
    binding = {v: RationalExpr.const(x) for v, x in args["at"].items()}
    val = pf.ctx.reduce(substitute(q, binding))
    return verdict([val - args["expected"]])


def op_gauss_codazzi(pf, args):
    S = _build(pf, args["surface"], "surface")
    return verdict([geomkit.gauss_residual(S),
                    *geomkit.codazzi_residual(S)])


def op_curve_identities(pf, args):
    C = _build(pf, args["curve"], "curve")
    return C.identity_report()


def op_frenet(pf, args):
    C = _build(pf, args["curve"], "curve")
    kappa2, tau = geomkit.frenet_squares(C)
    res = [pf.ctx.reduce(kappa2 - args["kappa2"])]
    if "tau" in args:
        if args["tau"] is None:
            if tau is not None:
                return CheckReport(witness=tau, detail="expected no torsion")
        else:
            res.append(pf.ctx.reduce(tau - args["tau"]))
    return verdict(res)


def _entries(v):
    """The entries of a vector, or of a matrix given as its rows."""
    return [e for row in v for e in row] if isinstance(v[0], list) else v


def op_gauging_forms(pf, args):
    G = geomkit.gauging(_build(pf, args["source"], "section"),
                        _build(pf, args["target"], "section"))
    got = {"A": G.A, "B": G.B}
    if _STRUCTURE_FORMS & args.keys():
        x = pf.ctx.independents[0]  # the only one (_one_independent)
        got["P"], got["Q"] = (f[x] for f in geomkit.maurer_cartan(G))
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
    return verdict(res)


def op_characters(pf, args):
    S = _build(pf, args["system"], "system")
    alpha = systems.characters(S)
    got, want = list(alpha), args["expected"]
    ok = got == want if args.get("ordered") else sorted(got) == sorted(want)
    return CheckReport(
        witness=None if ok else tuple(alpha),
        numbers={f"alpha{i + 1}": a for i, a in enumerate(alpha)},
    )


def op_cartan(pf, args):
    return systems.cartan_test(_build(pf, args["system"], "system"))


def op_cartan_bound(pf, args):
    rep = systems.cartan_test(_build(pf, args["system"], "system"))
    got = rep.numbers["dim_symbol_next"], rep.numbers["bound"]
    return CheckReport(witness=None if got[0] <= got[1] else got,
                       numbers=dict(rep.numbers))


def _golden(value, where, load):
    """The path of the golden board file named ``value``: under
    ``golden/`` or beside the problem file, else in the corpus."""
    name = _json(str, "a file name")(value, where, load)
    _require(name != ".." and not {"/", "\\"} & set(name), where,
             f"expected a file name, not a path: {name!r}")
    bases = [] if load.path == "<memory>" else [Path(load.path).parent]
    for base in bases + [default_corpus_dir()]:
        for c in (base / "golden" / name, base / name):
            if c.is_file():
                return c
    raise UnknownReference(f"{where}: golden file {name!r} not found")


def op_janet_board(pf, args):
    S = _build(pf, args["system"], "system")
    board = systems.janet_board(S).render()
    ok = board == args["golden"].read_text()
    return CheckReport(
        witness=None if ok else board, board=board,
        detail="" if ok else f"differs from {args['golden'].name}")


def _count_report(key, got, expected):
    return CheckReport(witness=None if got == expected else got,
                       numbers={key: got})


def op_fiber_dimension(pf, args):
    S = _build(pf, args["system"], "system")
    dim = systems.fiber_dimension(S, _witness(pf, args, "witness"))
    return _count_report("dimension", dim, args["expected"])


def _pair(pf, args):
    """The system, the groupoid and their witnesses (``_PAIR``)."""
    return (_build(pf, args["system"], "system"),
            _build(pf, args["groupoid"], "system"),
            _witness(pf, args, "witness_system"),
            _witness(pf, args, "witness_groupoid"))


def op_phs(pf, args):
    return systems.phs_check(*_pair(pf, args))


def op_automorphic(pf, args):
    return systems.automorphic_criterion(*_pair(pf, args))


def op_compatibility_count(pf, args):
    S = _build(pf, args["system"], "system")
    return _count_report("count", systems.compatibility_count(S),
                         args["expected"])


def op_prolong_count(pf, args):
    S = _build(pf, args["genset"], "genset")
    P = diffideal.prolong_gens(S, args["rounds"])
    return _count_report("generators", len(P.generators), args["expected"])


def op_syzygy(pf, args):
    return diffideal.syzygy_check(pf.ctx.reduce(args["combination"]))


def op_radical_membership(pf, args):
    rep, _cert = diffideal.radical_power_membership(
        pf.ctx, args["element"], args["direction"], args["r"]
    )
    return rep


def op_is_invariant(pf, args):
    G = _build(pf, args["generators"], "generators")
    return invariants.is_invariant(args["candidate"], G)


def op_invariant_count(pf, args):
    G = _build(pf, args["generators"], "generators")
    n = invariants.invariant_count(pf.ctx, G, args["order"])
    return _count_report("count", n, args["expected"])


def op_structure_table(pf, args):
    G = _build(pf, args["generators"], "generators")
    table = invariants.structure_constants(G)
    for key, pair, want in args["expected"]:
        if list(table[pair]) != want:
            return CheckReport(witness=(key, tuple(table[pair])))
    return CheckReport()


def op_jacobi_table(pf, args):
    G = _build(pf, args["generators"], "generators")
    table = invariants.structure_constants(G)
    residuals = invariants.jacobi_residuals(table, len(G.fields))
    return verdict(residuals, numbers={"residuals": len(residuals)})


def op_lie_condition(pf, args):
    return mechanics.lie_condition_equivalence(
        flip_chi=args.get("flip_chi", False)
    )


def op_jacobi_multiplier(pf, args):
    return mechanics.jacobi_multiplier_identity(args.get("n", 2))


def op_multiplier_transport(pf, args):
    return mechanics.multiplier_transport(
        pf.ctx,
        args.get("multiplier", RationalExpr.const(1)),
        args["field"],
        args["map"],
    )


def op_hessian(pf, args):
    return mechanics.hessian_multiplier_identity()


def op_hj_chain(pf, args):
    rep, art = mechanics.hj_closure_chain(pf.ctx, args["hamiltonian"])
    if rep.ok and "coefficient" in args:
        res = pf.ctx.reduce(art["coefficient"] - args["coefficient"])
        if not res.is_zero():
            return CheckReport(witness=res,
                               detail="volume coefficient mismatch")
    return rep


def op_separability(pf, args):
    return mechanics.separability_conditions(
        pf.ctx, args["hamiltonian"]
    )


def _needs(kind, key=None):
    """The entry of a required argument ``key`` naming a ``kind``."""
    return {key or kind: (_ref(kind), True)}


# schema entries (capitals) and readers that several ops share
_SURFACE, _CURVE, _SYSTEM, _GENERATORS = map(
    _needs, ("surface", "curve", "system", "generators"))


# a system, a groupoid and their optional witnesses (``_pair``);
# automorphic reads its system as ``_SYSTEM1``, for its Cartan test
_PAIR = {**_SYSTEM, **_needs("system", "groupoid"), **{
    f"witness_{key}": (_witness_arg(key), False)
    for key in ("system", "groupoid")}}


_EXPR, _COUNT, _FLAG = (_expr_arg, True), (_count, True), (_flag, False)
_positive = partial(_count, least=1)
_SYSTEM1 = {"system": (_system_of_order_1, True)}
_vector = _array(_expr_arg, "dependents")
_FIELD = (_array(_expr_arg, "independents"), True)

# op name -> (function, {argument: (reader, required)}[, {argument: depth}]):
# the one declaration of each op's arguments and depths (``_read_args``)
OPS = {
    "surface_values": (partial(op_values, "surface"), {
        **_SURFACE, "values": (_map(_surface_quantity, _expr_arg), True)}),
    "surface_substitute": (op_surface_substitute, {
        **_SURFACE, "quantity": (_surface_quantity, True),
        "at": (_rational_point, True), "expected": _EXPR}),
    "gauss_codazzi": (op_gauss_codazzi, _SURFACE, {"surface": 3}),
    "curve_values": (partial(op_values, "curve"), {
        **_CURVE, "values": (_map(_curve_quantity, _expr_arg), True)}),
    "curve_identities": (op_curve_identities, _CURVE),
    "frenet": (op_frenet, {**_CURVE, "kappa2": _EXPR,
                           "tau": (_torsion, False)}),
    "gauging_forms": (op_gauging_forms, {
        "source": (_frame_section, True), "target": (_frame_section, True),
        "A": (_array(_vector, "dependents"), False), "B": (_vector, False),
        "P": (_one_independent(_array(_vector, "dependents")), False),
        "Q": (_one_independent(_vector), False),
        "P_skew": (_one_independent(_flag), False), "orthogonal": _FLAG},
        dict.fromkeys(("source", "target"),
                      lambda a: int(not _STRUCTURE_FORMS.isdisjoint(a)))),
    "characters": (op_characters, {
        **_SYSTEM1, "expected": (_array(_count, "independents"), True),
        "ordered": _FLAG}),
    "cartan": (op_cartan, _SYSTEM1, {"system": 1}),
    "cartan_bound": (op_cartan_bound, _SYSTEM1, {"system": 1}),
    "janet_board": (op_janet_board,
                    {"system": (_janet_system, True),
                     "golden": (_golden, True)}),
    "fiber_dimension": (op_fiber_dimension, {
        **_SYSTEM, "expected": _COUNT,
        "witness": (_witness_arg("system"), False)}),
    "phs": (op_phs, _PAIR),
    "automorphic": (op_automorphic, {**_PAIR, **_SYSTEM1},
                    {"system": 1, "groupoid": 1}),
    "compatibility_count": (op_compatibility_count,
                            {**_SYSTEM, "expected": _COUNT}, {"system": 1}),
    "prolong_count": (op_prolong_count, {
        "rounds": _COUNT, **_needs("genset"), "expected": _COUNT},
        {"genset": itemgetter("rounds")}),
    "syzygy": (op_syzygy, {"combination": _EXPR}),
    "radical_membership": (op_radical_membership, {
        "r": (_positive, True), "element": _EXPR,
        "direction": (_independent, True)},
        {"element": lambda a: max(2, a["r"]) if a["r"] <= 4 else 0}),
    "is_invariant": (op_is_invariant,
                     {**_GENERATORS, "candidate": (_candidate, True)}),
    "invariant_count": (op_invariant_count, {
        **_GENERATORS, "order": (_reached_order, True), "expected": _COUNT}),
    "structure_table": (op_structure_table,
                        {**_GENERATORS, "expected": (_structure_table, True)}),
    "jacobi_table": (op_jacobi_table, _GENERATORS),
    "lie_condition": (op_lie_condition, {"flip_chi": _FLAG}),
    "jacobi_multiplier": (op_jacobi_multiplier, {"n": (_positive, False)}),
    "multiplier_transport": (op_multiplier_transport, {
        "multiplier": (_expr_arg, False), "field": _FIELD, "map": _FIELD},
        {"multiplier": 1, "field": 1, "map": 2}),
    "hessian": (op_hessian, {}),
    "hj_chain": (op_hj_chain, {"hamiltonian": (_contact_hamiltonian, True),
                               "coefficient": (_expr_arg, False)},
                 {"hamiltonian": 2}),
    "separability": (op_separability, {"hamiltonian": (_declaring(
        mechanics.HAMILTONIAN_COORDINATES), True)}, {"hamiltonian": 2}),
}


# ---------------------------------------------------------------------------
# runner


def run(pf, options=None):
    """Execute the file's checks (optionally filtered by ``--only``);
    a check that raises reports ERROR and never aborts the run."""
    options = options or Options()
    only = options.only
    # ids are case-sensitive; a plain id needs no compiled pattern
    glob = only and any(c in only for c in "*?[")
    results = []
    for spec in pf.checks:
        if only and not (fnmatch.fnmatchcase(spec.id, only) if glob
                         else spec.id == only):
            continue
        start = time.monotonic()
        stack = None
        try:
            report = OPS[spec.op][0](pf, spec.args)
            status, detail, board = report.status, report.detail, report.board
            witness = (
                None if report.witness is None else str(report.witness)
            )
            numbers = dict(report.numbers)
        except Exception as exc:  # per-check isolation, by contract
            status = "ERROR"
            witness = board = None
            numbers = {}
            detail = f"{type(exc).__name__}: {exc}"
            if options.traceback:
                import traceback

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


def _resolve_files(paths):
    corpus = default_corpus_dir()
    if not paths:
        return sorted(corpus.glob("*.json"))
    out = []
    for p in paths:
        cand = Path(p)
        if not cand.is_file():
            alt = corpus / p
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
                     help="run only checks whose id matches the"
                     " case-sensitive glob")
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
        files = _resolve_files(ns.files)
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
