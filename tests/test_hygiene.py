"""Source hygiene: every name a module or a test file imports is used,
the runtime imports only the standard library, each of two
representations has one owning module, and every def is reached by the
bundled corpus or listed as not yet reached."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "vessiot").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that nothing else in the source
    refers to; ``__all__`` entries count as uses, ``from __future__``
    imports are not names, and an import whose line carries
    ``# noqa: F401`` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "# noqa: F401" in lines[node.lineno - 1]):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in used
    )


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm\n"
        "from fractions import Fraction\n"
        "from itertools import chain  # noqa: F401\n"
        "__all__ = ['Fraction']\n"
        "print(os.path.sep, gcd(2, 4))\n"
    )
    assert unused_imports(source) == ["lcm (line 3)"]


@pytest.mark.parametrize(
    "path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES]
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def third_party_imports(source):
    """Absolute imports whose top-level module is not in the standard
    library, as (module, line) pairs; relative imports are vessiot's
    own."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(name, node.lineno) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_scan_finds_a_third_party_import():
    source = (
        "import os.path, numpy as np\n"
        "from fractions import Fraction\n"
        "from . import symcore\n"
        "from .linalg import rank\n"
        "from sympy.core import Symbol\n"
    )
    assert third_party_imports(source) == [("numpy", 1), ("sympy.core", 5)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_runtime_is_stdlib_only(path):
    assert third_party_imports(path.read_text()) == []


def representation_leaks(source, module):
    """Calls of ``normalize`` outside ``symcore`` (a RationalExpr is
    canonical by construction, so only symcore's entry points turn a
    caller's value into one) and subscripts of a ``.key`` attribute
    outside ``symcore`` and ``jets`` (the jet index layout is read only
    through ``jets``), as (what, line) pairs."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if module != "symcore" and isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "normalize":
                out.append(("normalize", node.lineno))
        if (module not in ("symcore", "jets")
                and isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "key"):
            out.append((".key[]", node.lineno))
    return out


def test_scan_finds_representation_leaks():
    source = (
        "from . import symcore\n"
        "e = symcore.normalize(x)\n"
        "f = normalize(y)\n"
        "order = v.key[2]\n"
        "k = v.key\n"
    )
    leaks = [(".key[]", 4), ("normalize", 2), ("normalize", 3)]
    assert sorted(representation_leaks(source, "systems")) == leaks
    assert representation_leaks(source, "jets") == leaks[1:]
    assert representation_leaks(source, "symcore") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_one_owner_for_canonical_form_and_jet_index(path):
    assert representation_leaks(path.read_text(), path.stem) == []


def dead_helpers(sources):
    """Module-level functions, classes and assigned names (dunders
    aside), as ``module.name``, that no source in ``sources`` (module ->
    text) refers to other than from their own body.  A reference is a
    name read, an attribute, a string argument of a call
    (``getattr(geomkit, "curve_invariants")``) or an ``__all__``
    entry."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, own))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [
                    (module, t.id) for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name) and not t.id.startswith("__")
                ]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names = [sub.id] if isinstance(sub.ctx, ast.Load) else []
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, ast.Call):
                    names = [a.value for a in sub.args
                             if isinstance(a, ast.Constant)]
                elif isinstance(sub, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in sub.targets):
                    names = [e.value for e in sub.value.elts]
                else:
                    continue
                used |= {n for n in names if n != own}
    return sorted(f"{m}.{name}" for m, name in defined if name not in used)


def test_scan_finds_a_dead_helper():
    sources = {
        "a": ("from functools import partial\n"
              "__all__ = ['exported']\n"
              "def exported(): pass\n"
              "def by_name(): pass\n"
              "def by_string(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "class Unused: pass\n"
              "def _helper(): pass\n"
              "f = partial(getattr, None, 'by_string')\n"
              "LIMIT = 3\n"
              "UNREAD = {'x': 0}\n"
              "__version__ = '1'\n"),
        "b": "from . import a\nprint(a.by_name, a.f, a.LIMIT)\n",
    }
    assert dead_helpers(sources) == [
        "a.UNREAD", "a.Unused", "a._helper", "a.recursive"]


# paper operations that no check op reaches yet, kept for the
# Lie-pseudogroup problem set (ROADMAP item 6)
KEPT = [
    # Spencer operator D on jet sections: zero exactly on holonomic ones
    "jets.spencer",
    # contraction i(theta) phi of a differential form by a vector field
    "jets.interior_product",
    # non-invariance verdict of a derivation on a differential field: an
    # image that raises the generators' Jacobian rank is outside the field
    "invariants.noninvariance_witness",
    # reciprocal distributions: every field of one commutes with the other
    "invariants.commutant_check",
    # (delta + delta_bar) annihilates targets under identifications
    "invariants.constancy_check",
]


def test_no_dead_helpers():
    found = dead_helpers({p.stem: p.read_text() for p in SOURCES})
    assert found == sorted(KEPT)


def defs(source):
    """(qualified name, first line) of every ``def`` in ``source``; the
    first line is its code object's, a decorator's when it has one."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    out.append((prefix + child.name, min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list])))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def test_defs_are_qualified_by_their_scope():
    source = (
        "def f():\n"
        "    def g(): pass\n"
        "class C:\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    if True:\n"
        "        def q(self): pass\n"
    )
    assert defs(source) == [("f", 1), ("f.g", 2), ("C.p", 4), ("C.q", 7)]


# a fresh interpreter, so the schema factories that run at import count:
# the calls of one bundled-corpus ``vessiot check`` in each format
PROBE = """
import contextlib, io, json, sys
calls = set()

def hook(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
from vessiot import cli
for fmt in ("json", "text"):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", "--format", fmt])
sys.setprofile(None)
json.dump(sorted(calls), sys.stdout)
"""

# defs the bundled corpus never calls; the list may only shrink
UNREACHED = [
    # paper operations kept for the Lie-pseudogroup problem set (KEPT)
    "invariants.commutant_check",
    "invariants.constancy_check",
    "invariants.noninvariance_witness",
    "invariants._jacobian_rank",
    "jets.interior_product",
    "jets.spencer",
    # the prolongation chain and the PHS / automorphic criteria, which
    # no bundled problem file checks (ROADMAP items 7 and 8)
    "systems._prolong_once",
    "systems._substitute_leadings",
    "systems.automorphic_criterion",
    "systems.phs_check",
    "systems.prolong_system",
    "cli._pair",
    "cli.op_automorphic",
    "cli.op_phs",
    # error paths: the corpus loads cleanly
    "cli._fail",
    "errors.ProblemSyntaxError.__init__",
    # value-model methods that no check calls
    "jets.DiffForm.__repr__",
    "jets.DiffForm.is_zero",
    "jets.VectorField.__repr__",
    "symcore.RationalExpr.__rsub__",
    "symcore.RationalExpr.__rtruediv__",
    "symcore.RationalExpr.constant_value",
    "symcore.RationalExpr.is_constant",
    "symcore.VariableId.__delattr__",
    "symcore.VariableId.__reduce__",
    "symcore.VariableId.__repr__",
    "symcore.VariableId.__setattr__",
]


def test_every_def_is_reached_by_the_corpus():
    env = dict(os.environ, VESSIOT_CORPUS=str(ROOT / "src" / "vessiot"
                                              / "corpus"),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, check=True, timeout=600).stdout
    calls = {(str(Path(f).resolve()), line) for f, line in json.loads(out)}
    unreached = [
        f"{path.stem}.{name}" for path in SOURCES
        for name, line in defs(path.read_text())
        if (str(path.resolve()), line) not in calls
    ]
    assert sorted(unreached) == sorted(UNREACHED)


def private_reach(source):
    """Private names (one leading underscore) of other vessiot modules
    that ``source`` imports or reads through a module it imported, as
    (name, line) pairs: what two modules share is public, so the owner
    of a helper is the only module that can change it alone."""
    modules, out = set(), []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("vessiot")):
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    out.append((alias.name, node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("vessiot."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            out.append((f"{node.value.id}.{node.attr}", node.lineno))
    return sorted(out, key=lambda leak: leak[1])


def test_scan_finds_private_reach():
    source = (
        "from . import linalg, symcore as sc\n"
        "from .systems import _prolonged_symbol, symbol_of\n"
        "import vessiot.jets as vj\n"
        "from fractions import _gcd\n"
        "linalg._forward(rows, 3)\n"
        "sc._product(a, b)\n"
        "vj._private\n"
        "linalg.rank(rows, 3)\n"
        "print(linalg.__name__, obj._cache, RationalExpr._coerce(1))\n"
    )
    assert private_reach(source) == [
        ("_prolonged_symbol", 2), ("linalg._forward", 5),
        ("sc._product", 6), ("vj._private", 7),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_module_reaches_into_another(path):
    assert private_reach(path.read_text()) == []
