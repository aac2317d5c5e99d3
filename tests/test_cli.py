"""Problem-file parsing, the check runner, and the console entry point."""
import copy
import fnmatch
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vessiot import errors, geomkit, invariants, jets
from vessiot.cli import (
    KINDS,
    OPS,
    Options,
    _build,
    default_corpus_dir,
    main,
    parse_problem,
    report_json,
    report_text,
    run,
)
from vessiot.errors import (
    ContextMismatch,
    ProblemSyntaxError,
    UnknownReference,
    VessiotError,
)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "vessiot" / "corpus"
# the corpus JSON report recorded at the first commit, path prefix removed
CORPUS_REPORT = ROOT / "perfbench" / "expected" / "corpus_report.json"


def read_corpus(name):
    path = CORPUS / name
    return parse_problem(path.read_bytes(), str(path))


MINIMAL = {
    "context": {"independents": ["x"], "dependents": ["y"], "max_order": 2},
    "checks": [],
}


def problem(**overrides):
    doc = {k: json.loads(json.dumps(v)) for k, v in MINIMAL.items()}
    doc.update(overrides)
    return json.dumps(doc)


def system(*equations, **spec):
    return {"kind": "system", "order": 1, "equations": list(equations),
            **spec}


XY = {"independents": ["x", "z"], "dependents": ["y"], "max_order": 2}
GENERATORS3 = {"kind": "generators", "fields": [
    {"components": {"x": "1"}}, {"components": {"x": "x"}},
    {"components": {"x": "x*x"}}]}
SURFACE_CONTEXT = {"independents": ["x1", "x2"], "dependents": [],
                   "max_order": 2}
SURFACE = {"kind": "surface", "components": ["x1", "x2", "x1*x2"]}
SYSTEM1 = system({"leading": "y[x]", "rhs": "0"})
SECTION1 = {"kind": "section", "order": 1, "components": {"y": "x"}}
# a generator set given by jet-level components, at order 1
JET_GENERATORS = {"kind": "generators", "order": 1,
                  "fields": [{"components": {"y[x]": "1"}}]}
# the contact coordinates, with two unknown Hamiltonians
MECHANICS = {"independents": ["t", "x", "z", "p"], "dependents": ["G", "H"],
             "max_order": 3}
PLANE = {"independents": ["x"], "dependents": ["y1", "y2"], "max_order": 2}
PLANE_SECTIONS = {name: {"kind": "section", "order": 2, "components": {
    "y1": "x", "y2": f"{k}*x*x"}} for name, k in (("f", 1), ("g", 2))}


def explicit_object(kind, components, op, **args):
    return {"objects": {"S": {"kind": kind, "components": components}},
            "checks": [{"id": "c", "op": op, "args": {kind: "S", **args}}]}


# objects and check arguments of unknown functions, each with the least
# max_order that loads it: the order of its highest jet plus the total
# derivatives its kind or op declares (cli.KINDS, cli.OPS) -- a plane
# curve's and a surface's invariants 2, a space curve's and
# gauss_codazzi 3, a section its order, and gauging_forms' P, Q and
# P_skew one more; a system prolonged once by cartan, cartan_bound,
# compatibility_count and automorphic its order + 1; prolong_count its
# rounds; the expressions of the mechanics ops and radical_membership
# what their identities differentiate.  One less is refused where the
# value is read, with the text given
DEPTH_BOUNDARY = [
    ("plane-curve",
     explicit_object("curve", ["x", "y"], "curve_identities"),
     "objects.S.components", 2, "components carry a jet of order 0, which "
     "2 total derivatives take above max_order 1"),
    ("plane-curve-of-a-first-jet",
     explicit_object("curve", ["x", "y[x]"], "curve_identities"),
     "objects.S.components", 3, "components carry a jet of order 1, which "
     "2 total derivatives take above max_order 2"),
    ("space-curve",
     explicit_object("curve", ["x", "y", "x*y"], "curve_identities"),
     "objects.S.components", 3, "components carry a jet of order 0, which "
     "3 total derivatives take above max_order 2"),
    ("surface", {"context": XY, **explicit_object(
        "surface", ["x", "z", "y"], "surface_values",
        values={"sigma[1,1]": "y[x,x]"})}, "objects.S.components", 2,
     "components carry a jet of order 0, which 2 total derivatives take "
     "above max_order 1"),
    ("gauss-codazzi", {"context": XY, **explicit_object(
        "surface", ["x", "z", "y"], "gauss_codazzi")},
     "checks[0].args.surface", 3, "components carry a jet of order 0, "
     "which 3 total derivatives take above max_order 2"),
    ("section-of-a-first-jet", {"context": PLANE, "objects": {
        "f": PLANE_SECTIONS["f"], "g": {"kind": "section", "order": 2,
                                        "components": {"y1": "x",
                                                       "y2": "y2[x]"}}},
        "checks": [{"id": "c", "op": "gauging_forms",
                    "args": {"source": "f", "target": "g"}}]},
     "objects.g.components", 3, "components carry a jet of order 1, which "
     "2 total derivatives take above max_order 2"),
    ("structure-forms", {"context": PLANE, "objects": {
        "f": PLANE_SECTIONS["f"], "g": {"kind": "section", "order": 2,
                                        "components": {"y1": "x",
                                                       "y2": "y2"}}},
        "checks": [{"id": "c", "op": "gauging_forms", "args": {
            "source": "f", "target": "g", "Q": [
                "0", "(x*y2[x] - y2)*y2[x,x,x]/y2[x,x]"]}}]},
     "checks[0].args.target", 3, "components carry a jet of order 0, "
     "which 3 total derivatives take above max_order 2"),
    # the same section given by its jets, which carry y2[x,x] itself
    ("structure-forms-of-listed-jets", {"context": PLANE, "objects": {
        "f": PLANE_SECTIONS["f"], "g": {"kind": "section", "order": 2,
                                        "jets": {
            "y1": {"0": "x", "1": "1", "2": "0"},
            "y2": {"0": "y2", "1": "y2[x]", "2": "y2[x,x]"}}}},
        "checks": [{"id": "c", "op": "gauging_forms", "args": {
            "source": "f", "target": "g", "Q": [
                "0", "(x*y2[x] - y2)*y2[x,x,x]/y2[x,x]"]}}]},
     "checks[0].args.target", 3, "jets carry a jet of order 2, which 1 "
     "total derivative takes above max_order 2"),
    *((op, {"context": XY, "objects": {"S": system(
        {"leading": "y[z]", "rhs": "y[x]"})}, "checks": [
            {"id": "c", "op": op, "args": {"system": "S", **args}}]},
       "checks[0].args.system", 2, "a system of order 1, which 1 total "
       "derivative takes above max_order 1")
      for op, args in (("cartan", {}), ("cartan_bound", {}),
                       ("compatibility_count", {"expected": 0}),
                       ("automorphic", {"groupoid": "S"}))),
    ("prolong_count", {"objects": {"G": {
        "kind": "genset", "generators": ["y[x]"]}}, "checks": [
            {"id": "c", "op": "prolong_count", "args": {
                "genset": "G", "rounds": 2, "expected": 3}}]},
     "checks[0].args.genset", 3, "generators carry a jet of order 1, which "
     "2 total derivatives take above max_order 2"),
    ("invariant_count", {"objects": {"G": GENERATORS3}, "checks": [
        {"id": "c", "op": "invariant_count", "args": {
            "generators": "G", "order": 2, "expected": 1}}]},
     "checks[0].args.order", 2,
     "expected an integer from 0 to max_order 1, got 2"),
    *((f"multiplier_transport-{key}", {"context": {
        "independents": ["x", "z"], "dependents": [["g", ["z"]]]},
        "checks": [{"id": "c", "op": "multiplier_transport", "args": {
            "field": ["1", "0"], "map": ["x", "z"], **args}}]},
       f"checks[0].args.{key}", least, f"{what} a jet of order 0, which "
       f"{least} total derivative{'s' * (least > 1)} take"
       f"{'s' * (least == 1)} above max_order {least - 1}")
      for key, args, least, what in (
          ("multiplier", {"multiplier": "g"}, 1, "an expression carries"),
          ("field", {"field": ["g", "0"]}, 1, "components carry"),
          ("map", {"field": ["0", "1"], "map": ["x + g", "z"]}, 2,
           "components carry"))),
    ("hj_chain", {"context": MECHANICS, "checks": [
        {"id": "c", "op": "hj_chain", "args": {"hamiltonian": "H"}}]},
     "checks[0].args.hamiltonian", 2, "an expression carries a jet of "
     "order 0, which 2 total derivatives take above max_order 1"),
    # a Hamiltonian of x and t alone is not separable
    ("separability", {"context": {"independents": ["t", "x", "p"],
                                  "dependents": ["V"]}, "checks": [
        {"id": "c", "op": "separability", "expect": "FAIL",
         "args": {"hamiltonian": "p*p/2 + V"}}]},
     "checks[0].args.hamiltonian", 2, "an expression carries a jet of "
     "order 0, which 2 total derivatives take above max_order 1"),
    ("radical_membership", {"checks": [
        {"id": "c", "op": "radical_membership", "args": {
            "element": "y", "direction": "x", "r": 3}}]},
     "checks[0].args.element", 3, "an expression carries a jet of "
     "order 0, which 3 total derivatives take above max_order 2"),
]


# the ops that take no total derivative past their arguments' highest
# jets: they read values off objects whose kinds declare the depths of
# building them, count, compare, or run in a context of their own
# (invariant_count's order is read from 0 to max_order)
NO_DEPTH = {"surface_values", "surface_substitute", "curve_values",
            "curve_identities", "frenet", "characters", "janet_board",
            "fiber_dimension", "phs", "syzygy", "is_invariant",
            "invariant_count", "structure_table", "jacobi_table",
            "lie_condition", "jacobi_multiplier", "hessian"}


class TestParse:
    def test_every_op_declares_its_depth_or_takes_none(self):
        declared = {op for op, entry in OPS.items() if len(entry) == 3}
        assert declared.isdisjoint(NO_DEPTH)
        assert declared | NO_DEPTH == OPS.keys()
        # a declaration names arguments of the op or keys of the kind
        for _, schema, *depth in (*OPS.values(), *KINDS.values()):
            assert all(d and d.keys() <= schema.keys() for d in depth)

    def test_corpus_file(self):
        pf = read_corpus("shell_monkey_saddle.json")
        assert len(pf.checks) == 7
        assert pf.checks[0].id == "saddle_surface_values"
        assert all(c.expect == "OK" for c in pf.checks)

    def test_empty_checks(self):
        pf = parse_problem(problem())
        assert pf.checks == []
        assert run(pf).all_matched

    def test_json_syntax_error_carries_position(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem('{\n  "context": {,}\n}', "broken.json")
        assert err.value.line == 2
        assert err.value.column is not None
        assert "broken.json" in str(err.value)

    def test_undeclared_variable(self):
        doc = problem(definitions={"bad": "x + undeclared_name"})
        with pytest.raises(UnknownReference) as err:
            parse_problem(doc, "p.json")
        assert "p.json:definitions.bad" in str(err.value)

    def test_undeclared_variable_in_object(self):
        doc = problem(objects={
            "c": {"kind": "curve", "components": ["x", "nope"]},
        })
        with pytest.raises(UnknownReference) as err:
            parse_problem(doc, "p.json")
        assert "p.json:objects.c" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(problem(extras={}))
        assert "extras" in str(err.value)

    def test_unknown_op(self):
        doc = problem(checks=[{"id": "a", "op": "no_such_op", "args": {}}])
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(doc)
        assert "no_such_op" in str(err.value)

    def test_duplicate_check_id(self):
        doc = problem(checks=[
            {"id": "a", "op": "lie_condition", "args": {}},
            {"id": "a", "op": "lie_condition", "args": {}},
        ])
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(doc)
        assert "duplicate" in str(err.value)

    def test_bad_expect(self):
        doc = problem(checks=[
            {"id": "a", "op": "lie_condition", "args": {}, "expect": "MAYBE"},
        ])
        with pytest.raises(ProblemSyntaxError):
            parse_problem(doc)

    def test_objects_build_without_parsing(self, monkeypatch):
        pf = read_corpus("shell_monkey_saddle.json")
        texts = []
        parse = jets.parse_expression
        monkeypatch.setattr(jets, "parse_expression",
                            lambda text, resolver: texts.append(text)
                            or parse(text, resolver))
        for name, kind in [
            ("saddle", "surface"), ("graph", "section"),
            ("metric_system", "system"), ("tangency_system", "system"),
            ("projected_system", "system"), ("completed_system", "system"),
        ]:
            _build(pf, name, kind)
        assert texts == []

    def test_explicit_objects_call_the_current_geomkit_binding(
            self, monkeypatch):
        # a rebinding of geomkit.surface_invariants after import (as a
        # tracer makes) is what building a surface or a curve calls
        calls = []
        for name in ("surface_invariants", "curve_invariants"):
            monkeypatch.setattr(
                geomkit, name,
                lambda ctx, f, fn=getattr(geomkit, name), name=name:
                    calls.append(name) or fn(ctx, f),
            )
        _build(read_corpus("shell_monkey_saddle.json"), "saddle", "surface")
        _build(read_corpus("frenet_helix.json"), "helix", "curve")
        assert calls == ["surface_invariants", "curve_invariants"]


class TestRun:
    def test_full_corpus(self):
        for path in sorted(CORPUS.glob("*.json")):
            pf = parse_problem(path.read_bytes(), str(path))
            rep = run(pf)
            bad = [r for r in rep.results if not r.matched]
            assert not bad, f"{path.name}: {bad}"

    def test_only_filter(self):
        pf = read_corpus("shell_monkey_saddle.json")
        rep = run(pf, Options(only="saddle_gauss*"))
        assert [r.id for r in rep.results] == ["saddle_gauss_codazzi"]
        # over every corpus id, a plain id (compared by ==) and a glob
        # select what the case-sensitive fnmatchcase does
        files = [read_corpus(p.name) for p in sorted(CORPUS.glob("*.json"))]
        for only, count in [
            ("sphere_surface_values", 1),
            ("SPHERE_SURFACE_VALUES", 0),
            ("sphere.surface-values", 0),
            ("*_gauss_codazzi", 3),
            ("transport_rotatio?", 1),
            ("helix_[fi]dentities", 1),
        ]:
            selected = []
            for pf in files:
                got = [r.id for r in run(pf, Options(only=only)).results]
                assert got == [s.id for s in pf.checks
                               if fnmatch.fnmatchcase(s.id, only)], only
                selected += got
            assert len(selected) == count, only

    def test_expected_failures_have_witnesses(self):
        pf = read_corpus("mech_identities.json")
        rep = run(pf, Options(only="lie_flipped"))
        (r,) = rep.results
        assert r.status == "FAIL" and r.matched
        assert r.witness is not None and r.witness != "0"

    def test_cartan_bound_failure_has_a_witness(self):
        # the two residuals' symbol rows are equal, so the symbol has
        # rank 1, but their two leading jets count as two: the bound
        # reads 0 (a residual that is a constant multiple of another is
        # refused at load; these two differ in order 0)
        doc = problem(context=XY, objects={"S": system(
            {"lhs": "y[x] - y[z]", "leading": "y[x]"},
            {"lhs": "y[x] - y[z] + y", "leading": "y[z]"})}, checks=[{
                "id": "c", "op": "cartan_bound", "args": {"system": "S"},
                "expect": "FAIL"}])
        (r,) = run(parse_problem(doc)).results
        assert r.status == "FAIL" and r.witness == "(1, 0)"
        assert (r.numbers["dim_symbol_next"], r.numbers["bound"]) == (1, 0)

    def test_structure_table_is_built_once_per_generator_set(
            self, monkeypatch):
        """listed's structure_table and jacobi_table checks read one
        structure table, kept on the generator set: its 3 generators
        take n(n-1)/2 = 3 brackets over both checks, not 6."""
        brackets = []
        bracket0 = invariants.bracket

        def counted(a, b):
            brackets.append((a, b))
            return bracket0(a, b)

        monkeypatch.setattr(invariants, "bracket", counted)
        rep = run(read_corpus("invariants_curves.json"),
                  Options(only="listed_[sj]*"))
        assert [(r.id, r.status) for r in rep.results] == [
            ("listed_structure_table", "OK"), ("listed_jacobi", "OK")]
        assert len(brackets) == 3

    def test_syzygy_mutation_witness(self):
        pf = read_corpus("diffideal_pair.json")
        rep = run(pf, Options(only="pair_syzygy_flipped"))
        (r,) = rep.results
        assert r.status == "FAIL" and r.matched
        assert r.witness is not None and r.witness != "0"

    def test_mutated_value_mismatches(self):
        path = CORPUS / "frenet_helix.json"
        doc = json.loads(path.read_text())
        doc["checks"][0]["args"]["tau"] = "h/(r^2 + h^2) + 1"
        rep = run(parse_problem(json.dumps(doc)))
        assert not rep.all_matched
        bad = [r for r in rep.results if not r.matched]
        assert bad[0].id == "helix_frenet" and bad[0].status == "FAIL"

    def test_error_isolation(self):
        doc = problem(
            checks=[
                {"id": "boom", "op": "radical_membership",
                 "args": {"element": "y", "direction": "x", "r": 5}},
                {"id": "fine", "op": "lie_condition", "args": {}},
            ],
        )
        rep = run(parse_problem(doc))
        by_id = {r.id: r for r in rep.results}
        assert by_id["boom"].status == "ERROR"
        assert by_id["boom"].detail.startswith("CertificateSearchExceeded")
        assert by_id["fine"].status == "OK"

    def test_witness_killing_genericity_is_an_error(self):
        # u[x] = 0 holds at the witness, but there u = 0 kills the
        # declared genericity u
        doc = problem(
            context={"independents": ["x"], "dependents": ["u"],
                     "max_order": 1},
            objects={"S": system({"lhs": "u[x]"}, genericity=["u"]),
                     "s": {"kind": "section", "order": 1,
                           "components": {"u": "0"}}},
            checks=[{"id": "c", "op": "fiber_dimension", "args": {
                "system": "S", "expected": 1, "witness": {
                    "section": "s", "point": {"x": "1"}}}}])
        (r,) = run(parse_problem(doc)).results
        assert r.status == "ERROR"
        assert r.detail.startswith("DegenerateLocus")


@pytest.fixture(scope="module")
def saddle_report():
    pf = read_corpus("shell_monkey_saddle.json")
    return run(pf)


class TestReports:

    def test_json_is_stable(self):
        pf = read_corpus("invariants_rigid3.json")
        first = report_json([run(pf, Options())])
        second = report_json([run(pf, Options())])
        assert first == second

    def test_json_shape(self, saddle_report):
        doc = json.loads(report_json([saddle_report]))
        assert doc["summary"] == {"total": 7, "matched": 7, "mismatched": 0}
        assert {c["id"] for c in doc["files"][0]["checks"]} == {
            c.id for c in saddle_report.results
        }
        assert "seconds" not in json.dumps(doc)

    def test_text_format(self, saddle_report):
        text = report_text([saddle_report])
        assert "== " in text
        assert "7/7 checks matched" in text
        assert re.search(r"saddle_cartan_test: OK \(expected OK\) \[ok\]", text)

    def test_text_renders_board(self):
        pf = read_corpus("hj_contact_groupoid.json")
        text = report_text([run(pf, Options(only="contact_board"))])
        assert "    | Z P X" in text
        assert "    | Z P •" in text


class TestMain:
    def test_all_green(self, capsys):
        code = main(["check", str(CORPUS / "frenet_helix.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 checks matched" in out

    def test_corpus_default_discovery(self, capsys, monkeypatch):
        monkeypatch.setenv("VESSIOT_CORPUS", str(CORPUS))
        code = main(["check", "--only", "helix_*"])
        out = capsys.readouterr().out
        assert code == 0
        assert "frenet_helix" in out

    def test_env_corpus_lookup_by_name(self, capsys, monkeypatch):
        monkeypatch.setenv("VESSIOT_CORPUS", str(CORPUS))
        assert default_corpus_dir() == CORPUS
        code = main(["check", "chain_catenary.json"])
        assert code == 0
        assert "4/4 checks matched" in capsys.readouterr().out

    def test_corpus_report_is_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("VESSIOT_CORPUS", str(CORPUS))
        assert main(["check", "--format", "json"]) == 0
        text = capsys.readouterr().out.replace(f'"{CORPUS}/', '"')
        assert text == CORPUS_REPORT.read_text()

    def test_report_does_not_follow_the_hash_seed(self):
        """Variables hash by identity, so a set of them iterates in the
        order of memory addresses, and strings hash by the seed; neither
        may reach the report.  Each run is a fresh interpreter."""
        def report(seed):
            path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       VESSIOT_CORPUS=str(CORPUS),
                       PYTHONPATH=os.pathsep.join(path))
            return subprocess.run(
                [sys.executable, "-m", "vessiot.cli", "check", "--format",
                 "json"], env=env, capture_output=True, check=True,
                timeout=600).stdout

        one = report("1")
        assert one == report("2")
        assert one.decode().replace(f'"{CORPUS}/', '"') == (
            CORPUS_REPORT.read_text())

    def test_json_output(self, capsys):
        code = main([
            "check", str(CORPUS / "invariants_curves.json"),
            "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["mismatched"] == 0

    def test_zero_witness_is_a_fail(self, tmp_path, capsys):
        # u = x leaves a fiber of dimension 0 against the 1 expected: the
        # witness 0 is falsy, and still makes the report a FAIL
        doc = problem(
            context={"independents": ["x"], "dependents": ["u"],
                     "max_order": 1},
            objects={"S": system({"leading": "u", "rhs": "x"}, order=0)},
            checks=[{"id": "c", "op": "fiber_dimension",
                     "args": {"system": "S", "expected": 1},
                     "expect": "FAIL"}])
        path = tmp_path / "zero.json"
        path.write_text(doc)
        assert main(["check", str(path), "--format", "json"]) == 0
        (check,) = json.loads(capsys.readouterr().out)["files"][0]["checks"]
        assert check["status"] == "FAIL" and check["witness"] == "0"
        assert check["numbers"] == {"dimension": 0}

    def test_mismatch_exit_code(self, tmp_path, capsys):
        doc = json.loads((CORPUS / "frenet_helix.json").read_text())
        doc["checks"][2]["args"]["values"]["gamma"] = "1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["check", str(bad)])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code = main(["check", "no_such_file.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["check", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def _rejected(self, tmp_path, capsys, text, json_path,
                  error=ProblemSyntaxError, max_order=None):
        with pytest.raises(error, match=re.escape(json_path)):
            parse_problem(text, max_order=max_order)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        option = [] if max_order is None else ["--max-order", str(max_order)]
        assert main(["check", str(bad), *option]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:" in err and json_path in err

    def test_non_list_equations(self, tmp_path, capsys):
        text = problem(objects={"S": {"kind": "system", "equations": 5}})
        self._rejected(tmp_path, capsys, text, "objects.S.equations")

    def test_string_independents(self, tmp_path, capsys):
        text = problem(context={"independents": "xy", "dependents": ["u"]})
        self._rejected(tmp_path, capsys, text, "context.independents")

    def test_string_dependent_bases(self, tmp_path, capsys):
        text = problem(context={"independents": ["x", "y"],
                                "dependents": [["u", "xy"]]})
        self._rejected(tmp_path, capsys, text, "context.dependents[0]")

    def test_string_special(self, tmp_path, capsys):
        text = problem(context={"independents": ["x"], "dependents": ["u"],
                                "specials": ["ab"]})
        self._rejected(tmp_path, capsys, text, "context.specials[0]")

    @pytest.mark.parametrize("kind, order", [
        ("system", "one"), ("system", None), ("system", True),
        ("system", -1), ("section", None), ("section", 1.0),
        ("generators", True), ("generators", "0"),
    ])
    def test_bad_order(self, tmp_path, capsys, kind, order):
        spec = {"kind": kind}
        if order is not None:
            spec["order"] = order
        text = problem(objects={"S": spec})
        self._rejected(tmp_path, capsys, text, "objects.S.order")

    @pytest.mark.parametrize("doc, json_path, error, max_order", [
        pytest.param(
            {"objects": {"S": system({"leading": "y[x] + 1", "rhs": "0"})}},
            "objects.S.equations[0].leading: not a plain jet",
            ProblemSyntaxError, None, id="non-plain-leading"),
        pytest.param(
            {"objects": {"G": {"kind": "generators", "fields": [
                {"components": {"x+1": "1"}}]}}},
            "objects.G.fields[0].components.x+1: not a plain variable",
            ProblemSyntaxError, None, id="generator-key"),
        pytest.param(
            {"objects": {"s": {"kind": "section", "order": 1,
                               "jets": {"y": {"1,x": "1"}}}}},
            "objects.s.jets.y.1,x: jet index", ProblemSyntaxError, None,
            id="jet-index-letter"),
        pytest.param(
            {"context": XY, "objects": {"s": {
                "kind": "section", "order": 1, "jets": {"y": {"1": "1"}}}}},
            "objects.s.jets.y.1: jet index", ProblemSyntaxError, None,
            id="jet-index-short"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"leading": "y[x]", "rhs": "0"}, ordering="zx")}},
            "objects.S.ordering", ProblemSyntaxError, None,
            id="string-ordering"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"leading": "y[x]", "rhs": "0"}, ordering=["x", "x"])}},
            "objects.S.ordering: expected a permutation",
            ProblemSyntaxError, None, id="non-permutation-ordering"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]"})}},
            "objects.S.equations[0]: equation needs", ProblemSyntaxError,
            None, id="no-lhs-no-rhs"),
        pytest.param(
            {"definitions": {"a": "x**2"}},
            "definitions.a: unexpected token '*' at column 3",
            ProblemSyntaxError, None, id="definition-syntax"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "x**2"})}},
            "objects.S.equations[0].rhs: unexpected token '*' at column 3",
            ProblemSyntaxError, None, id="object-syntax"),
        pytest.param(
            {"context": {**MINIMAL["context"],
                         "specials": [["s", "x", "s**2"]]}},
            "context.specials: unexpected token '*' at column 3",
            ProblemSyntaxError, None, id="special-syntax"),
        pytest.param(
            {"context": {**MINIMAL["context"], "max_order": "2"}},
            "context.max_order", ProblemSyntaxError, None,
            id="string-max-order"),
        pytest.param(
            {"context": {**MINIMAL["context"], "max_order": True}},
            "context.max_order", ProblemSyntaxError, None,
            id="bool-max-order"),
        pytest.param(
            {}, "--max-order", ProblemSyntaxError, -1,
            id="negative-max-order-option"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0"},
                                     order=3)}},
            "objects.S.order", ProblemSyntaxError, None,
            id="order-above-max-order"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0"})},
             "checks": [{"id": "c", "op": "characters",
                         "args": {"expected": [1]}}]},
            "checks[0].args.system: missing argument", ProblemSyntaxError,
            None, id="missing-argument"),
        pytest.param(
            {"checks": [{"id": "c", "op": "cartan",
                         "args": {"system": "Nope"}}]},
            "checks[0].args.system: no object named 'Nope'",
            UnknownReference, None, id="unknown-object"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0"})},
             "checks": [{"id": "c", "op": "fiber_dimension", "args": {
                 "system": "S", "expected": 1,
                 "witness": {"section": "S", "point": {"x": "1"}}}}]},
            "checks[0].args.witness.section: object 'S' is a system",
            ContextMismatch, None, id="witness-kind"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0"},
                                     {"leading": "y[x]", "rhs": "x"})}},
            "objects.S.equations[1].leading: duplicate leading jet y[x]",
            ProblemSyntaxError, None, id="duplicate-leading"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"lhs": "y[x] - y[z]", "leading": "y[x]"},
                {"lhs": "y[x] - y[z]", "leading": "y[z]"})}},
            "objects.S.equations[1]: residual is a constant multiple of "
            "that of equations[0]", ProblemSyntaxError, None,
            id="repeated-residual"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"lhs": "y[x]", "rhs": "y[z]", "leading": "y[x]"},
                {"lhs": "2*y[z]", "rhs": "2*y[x]", "leading": "y[z]"})}},
            "objects.S.equations[1]: residual is a constant multiple of "
            "that of equations[0]", ProblemSyntaxError, None,
            id="scaled-residual"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"lhs": "y[x]", "rhs": "y[z] + x"},
                {"leading": "y[z]", "rhs": "0"},
                {"lhs": "y[z] + x", "rhs": "y[x]", "leading": "y[x,z]"},
                order=2)}},
            "objects.S.equations[2]: residual is a constant multiple of "
            "that of equations[0]", ProblemSyntaxError, None,
            id="negated-residual"),
        pytest.param(
            {"objects": {"S": system({"lhs": "0"}, {"lhs": "y - y"})}},
            "objects.S.equations[1]: residual is a constant multiple of "
            "that of equations[0]", ProblemSyntaxError, None,
            id="zero-residuals"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"leading": "y[x]", "rhs": "y[z]"},
                {"leading": "y[z]", "rhs": "0"})}},
            "objects.S.equations[0].leading: rhs of y[x] contains leading "
            "jet y[z]", ProblemSyntaxError, None, id="leading-in-rhs"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0"}),
                         "s": {"kind": "section", "order": 1,
                               "components": {"y": "x"}}},
             "checks": [{"id": "c", "op": "fiber_dimension", "args": {
                 "system": "S", "expected": 1,
                 "witness": {"section": "s", "point": {"x": "abc"}}}}]},
            "checks[0].args.witness.point.x: expected a rational number",
            ProblemSyntaxError, None, id="witness-point-value"),
        pytest.param(
            {"objects": {"C": {"kind": "curve", "components": ["x", "x*x"]}},
             "checks": [{"id": "c", "op": "curve_values", "args": {
                 "curve": "C", "values": {"kappa2": "x**2"}}}]},
            "checks[0].args.values.kappa2: unexpected token '*' at column 3",
            ProblemSyntaxError, None, id="expression-map-syntax"),
        pytest.param(
            {"objects": {"G": GENERATORS3}, "checks": [{
                "id": "c", "op": "structure_table", "args": {
                    "generators": "G", "expected": {"1,9": [0, 0, 1]}}}]},
            "checks[0].args.expected.1,9: expected a key 'rho,sigma' of "
            "generator numbers from 1 to 3", ProblemSyntaxError, None,
            id="structure-table-pair-range"),
        pytest.param(
            {"objects": {"G": GENERATORS3}, "checks": [{
                "id": "c", "op": "structure_table", "args": {
                    "generators": "G", "expected": {"1,2": [1]}}}]},
            "checks[0].args.expected.1,2: expected 3 coefficients, got 1",
            ProblemSyntaxError, None, id="structure-table-length"),
        pytest.param(
            {"objects": {"C": {"kind": "curve", "components": ["x", "x*x"]}},
             "checks": [{"id": "c", "op": "curve_values", "args": {
                 "curve": "C", "values": {"bogus": "1"}}}]},
            "checks[0].args.values.bogus: unknown curve quantity 'bogus'",
            ProblemSyntaxError, None, id="curve-quantity"),
        pytest.param(
            {"objects": {"C": {"kind": "curve", "components": ["x", "x*x"]}},
             "checks": [{"id": "c", "op": "curve_values", "args": {
                 "curve": "C", "values": {"omega": "1 + 4*x^2",
                                          "phi": "0"}}}]},
            "checks[0].args.values.phi: unknown curve quantity 'phi' (a "
            "curve with 2 components", ProblemSyntaxError, None,
            id="space-curve-quantity-on-plane-curve"),
        pytest.param(
            {"context": SURFACE_CONTEXT, "objects": {"S": SURFACE},
             "checks": [{"id": "c", "op": "surface_values", "args": {
                 "surface": "S", "values": {"omega": "1"}}}]},
            "checks[0].args.values.omega: unknown surface quantity 'omega'",
            ProblemSyntaxError, None, id="surface-quantity-no-indices"),
        pytest.param(
            {"context": SURFACE_CONTEXT, "objects": {"S": SURFACE},
             "checks": [{"id": "c", "op": "surface_values", "args": {
                 "surface": "S", "values": {"gamma[1,3,1]": "1"}}}]},
            "checks[0].args.values.gamma[1,3,1]: unknown surface quantity",
            ProblemSyntaxError, None, id="surface-quantity-index"),
        pytest.param(
            {"context": SURFACE_CONTEXT, "objects": {"S": SURFACE},
             "checks": [{"id": "c", "op": "surface_substitute", "args": {
                 "surface": "S", "quantity": "sigma[1]", "expected": "0",
                 "at": {"x1": "0", "x2": "0"}}}]},
            "checks[0].args.quantity: unknown surface quantity 'sigma[1]'",
            ProblemSyntaxError, None, id="substitute-quantity"),
        pytest.param(
            {"context": SURFACE_CONTEXT, "objects": {"S": SURFACE},
             "checks": [{"id": "c", "op": "surface_substitute", "args": {
                 "surface": "S", "quantity": 3, "expected": "0",
                 "at": {"x1": "0", "x2": "0"}}}]},
            "checks[0].args.quantity: expected a quantity name, got 3",
            ProblemSyntaxError, None, id="substitute-quantity-type"),
        pytest.param(
            {"objects": {"s": {"kind": "section", "order": 2,
                               "jets": {"y": {"0": "x", "1": "1"}}}}},
            "objects.s.jets.y: missing jet index 2", ProblemSyntaxError,
            None, id="jets-missing-index"),
        pytest.param(
            {"objects": {"s": {"kind": "section", "order": 1, "jets": {
                "y": {"0": "x", "1": "1", "2": "0"}}}}},
            "objects.s.jets.y: unexpected jet index 2", ProblemSyntaxError,
            None, id="jets-index-above-order"),
        pytest.param(
            {"objects": {"s": {"kind": "section", "order": 0,
                               "jets": {"y": {"0": "x", "00": "1"}}}}},
            "objects.s.jets.y.00: duplicate jet index", ProblemSyntaxError,
            None, id="jets-duplicate-index"),
        pytest.param(
            {"checks": [{"id": "c", "op": "lie_condition", "args": None}]},
            "checks[0].args: expected a JSON object", ProblemSyntaxError,
            None, id="null-args"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "characters", "args": {
                    "system": "S", "expected": [1], "ordered": "no"}}]},
            "checks[0].args.ordered: expected true or false",
            ProblemSyntaxError, None, id="string-flag"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "characters", "args": {
                    "system": "S", "expected": [1], "strict": True}}]},
            "checks[0].args.strict: unknown argument", ProblemSyntaxError,
            None, id="retired-strict-flag"),
        pytest.param(
            {"checks": [{"id": "c", "op": "lie_condition",
                         "args": {"flip_chi": "false"}}]},
            "checks[0].args.flip_chi: expected true or false",
            ProblemSyntaxError, None, id="string-flip-chi"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "characters", "args": {
                    "system": "S", "expected": [1], "orderd": True}}]},
            "checks[0].args.orderd: unknown argument", ProblemSyntaxError,
            None, id="misspelt-flag"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "cartan_bound",
                "args": {"system": "S", "bogus": 1}}]},
            "checks[0].args.bogus: unknown argument (expected one of: "
            "system)", ProblemSyntaxError, None, id="unknown-argument"),
        pytest.param(
            {"objects": {"S": SYSTEM1, "s": SECTION1}, "checks": [{
                "id": "c", "op": "fiber_dimension", "args": {
                    "system": "S", "expected": 1,
                    "witnes": {"section": "s", "point": {"x": "1"}}}}]},
            "checks[0].args.witnes: unknown argument", ProblemSyntaxError,
            None, id="misspelt-witness"),
        pytest.param(
            {"objects": {"S": SYSTEM1, "s": SECTION1}, "checks": [{
                "id": "c", "op": "fiber_dimension", "args": {
                    "system": "S", "expected": 1, "witness": {
                        "section": "s", "point": {"x": "1"}, "at": 1}}}]},
            "checks[0].args.witness.at: unknown argument (expected one of: "
            "section, point)", ProblemSyntaxError, None,
            id="witness-unknown-key"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "fiber_dimension",
                "args": {"system": "S", "expected": "6"}}]},
            "checks[0].args.expected: expected an integer >= 0, got '6'",
            ProblemSyntaxError, None, id="string-count"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "fiber_dimension",
                "args": {"system": "S", "expected": True}}]},
            "checks[0].args.expected: expected an integer >= 0, got True",
            ProblemSyntaxError, None, id="bool-count"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "characters",
                "args": {"system": "S", "expected": "0012"}}]},
            "checks[0].args.expected: expected an array of 1 entries",
            ProblemSyntaxError, None, id="string-characters"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "characters",
                "args": {"system": "S", "expected": 3}}]},
            "checks[0].args.expected: expected an array of 1 entries",
            ProblemSyntaxError, None, id="number-characters"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "characters",
                "args": {"system": "S", "expected": [-1]}}]},
            "checks[0].args.expected[0]: expected an integer >= 0",
            ProblemSyntaxError, None, id="negative-character"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "janet_board",
                "args": {"system": "S", "golden": 5}}]},
            "checks[0].args.golden: expected a file name, got 5",
            ProblemSyntaxError, None, id="number-golden"),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "janet_board",
                "args": {"system": "S", "golden": "no_such_board.txt"}}]},
            "checks[0].args.golden: golden file 'no_such_board.txt' not "
            "found", UnknownReference, None, id="missing-golden"),
        *(pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "janet_board",
                "args": {"system": "S", "golden": name}}]},
            "checks[0].args.golden: expected a file name, not a path",
            ProblemSyntaxError, None, id=f"golden-path-{i}")
          for i, name in enumerate(("golden/board_contact_groupoid.txt",
                                    "..", "../corpus/golden",
                                    "golden\\board_contact_groupoid.txt"))),
        pytest.param(
            {"objects": {"S": SYSTEM1}, "checks": [{
                "id": "c", "op": "janet_board", "args": {
                    "system": "S", "golden": "b.txt", "expected": "y\n"}}]},
            "checks[0].args.expected: unknown argument", ProblemSyntaxError,
            None, id="inline-board"),
        pytest.param(
            {"context": PLANE, "objects": PLANE_SECTIONS, "checks": [{
                "id": "c", "op": "gauging_forms",
                "args": {"source": "f", "target": "g", "A": []}}]},
            "checks[0].args.A: expected an array of 2 entries, got []",
            ProblemSyntaxError, None, id="empty-matrix"),
        pytest.param(
            {"context": PLANE, "objects": PLANE_SECTIONS, "checks": [{
                "id": "c", "op": "gauging_forms", "args": {
                    "source": "f", "target": "g", "A": [["1", "0"]]}}]},
            "checks[0].args.A: expected an array of 2 entries",
            ProblemSyntaxError, None, id="one-row-matrix"),
        pytest.param(
            {"context": PLANE, "objects": PLANE_SECTIONS, "checks": [{
                "id": "c", "op": "gauging_forms", "args": {
                    "source": "f", "target": "g",
                    "A": [["1", "0"], ["1"]]}}]},
            "checks[0].args.A[1]: expected an array of 2 entries",
            ProblemSyntaxError, None, id="short-matrix-row"),
        pytest.param(
            {"context": PLANE, "objects": PLANE_SECTIONS, "checks": [{
                "id": "c", "op": "gauging_forms", "args": {
                    "source": "f", "target": "g", "Q": ["0"]}}]},
            "checks[0].args.Q: expected an array of 2 entries",
            ProblemSyntaxError, None, id="short-vector"),
        pytest.param(
            {"context": SURFACE_CONTEXT | {"dependents": ["y1", "y2", "y3"]},
             "objects": {"f": SECTION1 | {"components": {
                 "y1": "x1", "y2": "x2", "y3": "x1*x2"}}},
             "checks": [{"id": "c", "op": "gauging_forms", "args": {
                 "source": "f", "target": "f", "P": [["0"]]}}]},
            "checks[0].args.P: needs a context with one independent",
            ProblemSyntaxError, None, id="forms-on-two-independents"),
        pytest.param(
            {"context": {"independents": ["x1", "x2", "x3"],
                         "dependents": []},
             "checks": [{"id": "c", "op": "multiplier_transport", "args": {
                 "field": ["1", "0", "0"], "map": ["x1", "x2"]}}]},
            "checks[0].args.map: expected an array of 3 entries",
            ProblemSyntaxError, None, id="short-map"),
        pytest.param(
            {"checks": [{"id": "c", "op": "radical_membership", "args": {
                "element": "y", "direction": "x", "r": 0}}]},
            "checks[0].args.r: expected an integer >= 1, got 0",
            ProblemSyntaxError, None, id="zero-radical-power"),
        pytest.param(
            {"checks": [{"id": "c", "op": "jacobi_multiplier",
                         "args": {"n": 0}}]},
            "checks[0].args.n: expected an integer >= 1, got 0",
            ProblemSyntaxError, None, id="zero-jacobi-variables"),
        pytest.param(
            {"objects": {"C": {"kind": "curve", "components": ["x", "x*x"]}},
             "checks": [{"id": "c", "op": "frenet", "args": {
                 "curve": "C", "kappa2": "0", "tau": "0"}}]},
            "checks[0].args.tau: a plane curve has no torsion",
            ProblemSyntaxError, None, id="torsion-of-plane-curve"),
        pytest.param(
            {"context": {**MINIMAL["context"], "max_ordr": 3}},
            "context.max_ordr: unknown argument (expected one of: "
            "independents, dependents, parameters, specials, max_order)",
            ProblemSyntaxError, None, id="context-unknown-key"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0"},
                                     genericty=["y"])}},
            "objects.S.genericty: unknown argument", ProblemSyntaxError,
            None, id="system-unknown-key"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "0",
                                      "genericty": ["y"]})}},
            "objects.S.equations[0].genericty: unknown argument (expected "
            "one of: lhs, rhs, leading, genericity)", ProblemSyntaxError,
            None, id="equation-unknown-key"),
        pytest.param(
            {"context": SURFACE_CONTEXT,
             "objects": {"S": SURFACE | {"order": 2}}},
            "objects.S.order: unknown argument", ProblemSyntaxError, None,
            id="surface-unknown-key"),
        pytest.param(
            {"objects": {"s": SECTION1 | {"label": "s"}}},
            "objects.s.label: unknown argument", ProblemSyntaxError, None,
            id="section-unknown-key"),
        pytest.param(
            {"objects": {"s": SECTION1 | {"jets": {"y": {"0": "x",
                                                         "1": "1"}}}}},
            "objects.s.jets: a section gives 'components' or 'jets', not "
            "both", ProblemSyntaxError, None, id="section-components-and-jets"),
        pytest.param(
            {"objects": {"G": {"kind": "genset", "generators": ["y"],
                               "rounds": 1}}},
            "objects.G.rounds: unknown argument", ProblemSyntaxError, None,
            id="genset-unknown-key"),
        pytest.param(
            {"objects": {"G": GENERATORS3 | {"labels": ["a", "b", "c"]}}},
            "objects.G.labels: unknown argument", ProblemSyntaxError, None,
            id="generators-unknown-key"),
        pytest.param(
            {"objects": {"G": {"kind": "generators", "fields": [
                {"components": {"x": "1"}, "lable": "a"}]}}},
            "objects.G.fields[0].lable: unknown argument (expected one of: "
            "label, components)", ProblemSyntaxError, None,
            id="field-unknown-key"),
        pytest.param(
            {"checks": [{"id": "c", "op": "lie_condition", "args": {},
                         "expcet": "FAIL"}]},
            "checks[0].expcet: unknown argument (expected one of: id, op, "
            "expect, args)", ProblemSyntaxError, None,
            id="check-unknown-key"),
        pytest.param(
            {"context": PLANE, "objects": {**PLANE_SECTIONS, "h": {
                "kind": "section", "order": 2, "components": {"y1": "x"}}},
             "checks": [{"id": "c", "op": "gauging_forms",
                         "args": {"source": "f", "target": "h"}}]},
            "checks[0].args.target: needs a section of every dependent "
            "(y1, y2) up to order 2, got y1 up to order 2",
            ProblemSyntaxError, None, id="gauging-missing-dependent"),
        pytest.param(
            {"context": PLANE, "objects": {**PLANE_SECTIONS, "h": {
                "kind": "section", "order": 1,
                "components": {"y1": "x", "y2": "x"}}},
             "checks": [{"id": "c", "op": "gauging_forms",
                         "args": {"source": "h", "target": "f"}}]},
            "checks[0].args.source: needs a section of every dependent "
            "(y1, y2) up to order 2, got y1, y2 up to order 1",
            ProblemSyntaxError, None, id="gauging-order-too-low"),
        pytest.param(
            {"objects": {"s": SECTION1}, "checks": [{
                "id": "c", "op": "gauging_forms",
                "args": {"source": "s", "target": "s"}}]},
            "checks[0].args.source: needs a context with 1 independent and "
            "2 or 3 dependents", ProblemSyntaxError, None,
            id="gauging-context-shape"),
        pytest.param(
            {"context": {"independents": ["t", "x", "p"], "dependents": []},
             "checks": [{"id": "c", "op": "hj_chain",
                         "args": {"hamiltonian": "p*p"}}]},
            "checks[0].args.hamiltonian: needs the independents t, x, z, p",
            ProblemSyntaxError, None, id="hj-chain-coordinates"),
        pytest.param(
            {"context": MECHANICS, "checks": [{
                "id": "c", "op": "hj_chain",
                "args": {"coefficient": "2*H[z]"}}]},
            "checks[0].args.hamiltonian: missing argument",
            ProblemSyntaxError, None, id="hj-chain-coefficient-alone"),
        pytest.param(
            {"context": MECHANICS, "checks": [{
                "id": "c", "op": "hj_chain", "args": {}}]},
            "checks[0].args.hamiltonian: missing argument",
            ProblemSyntaxError, None, id="hj-chain-without-hamiltonian"),
        pytest.param(
            {"context": {"independents": ["t", "x", "v"],
                         "dependents": ["L"]}, "checks": [{
                "id": "c", "op": "hessian", "args": {"lagrangian": "L"}}]},
            "checks[0].args.lagrangian: unknown argument (takes no "
            "arguments)", ProblemSyntaxError, None,
            id="hessian-lagrangian"),
        pytest.param(
            {"context": {"independents": ["t", "x", "v"], "dependents": []},
             "checks": [{"id": "c", "op": "separability",
                         "args": {"hamiltonian": "v*v"}}]},
            "checks[0].args.hamiltonian: needs the independents t, x, p, "
            "got t, x, v", ProblemSyntaxError, None,
            id="separability-coordinates"),
        pytest.param(
            {"objects": {"G": {"kind": "genset",
                               "generators": ["y", "1/y"]}}},
            "objects.G.generators[1]: expected a nonzero polynomial",
            ProblemSyntaxError, None, id="genset-rational-generator"),
        pytest.param(
            {"objects": {"G": {"kind": "genset", "generators": ["y - y"]}}},
            "objects.G.generators[0]: expected a nonzero polynomial",
            ProblemSyntaxError, None, id="genset-zero-generator"),
        *(pytest.param(
            {"objects": {"S": system({"leading": "y", "rhs": "x"}, order=0)},
             "checks": [{"id": "c", "op": op, "args": {"system": "S",
                                                       **extra}}]},
            "checks[0].args.system: needs a system of order >= 1",
            ProblemSyntaxError, None, id=f"{op}-order-0")
          for op, extra in (("characters", {"expected": [0]}),
                            ("cartan", {}), ("cartan_bound", {}),
                            ("janet_board", {"golden": "b.txt"}),
                            ("automorphic", {"groupoid": "S"}))),
        pytest.param(
            {"context": {"independents": ["x"], "dependents": ["y", "u"]},
             "objects": {"S": system({"leading": "y[x]", "rhs": "0"},
                                     {"leading": "u", "rhs": "x"})},
             "checks": [{"id": "c", "op": "janet_board",
                         "args": {"system": "S", "golden": "b.txt"}}]},
            "checks[0].args.system: needs leading jets of order >= 1, got u "
            "in 'S'.equations[1]", ProblemSyntaxError, None,
            id="janet_board-order-0-leading"),
        pytest.param(
            {"objects": {"G": JET_GENERATORS}, "checks": [{
                "id": "c", "op": "is_invariant",
                "args": {"generators": "G", "candidate": "y[x,x]"}}]},
            "checks[0].args.candidate: needs order 2, above the order 1 of "
            "generators given by jet-level components", ProblemSyntaxError,
            None, id="is-invariant-above-jet-level-order"),
        pytest.param(
            {"objects": {"G": JET_GENERATORS}, "checks": [{
                "id": "c", "op": "invariant_count",
                "args": {"generators": "G", "order": 2, "expected": 1}}]},
            "checks[0].args.order: needs order 2, above the order 1 of "
            "generators given by jet-level components", ProblemSyntaxError,
            None, id="invariant-count-above-jet-level-order"),
        pytest.param(
            {"objects": {"S": system({"leading": "y[x]", "rhs": "y[x,x]"})}},
            "objects.S.equations[0]: jet y[x,x] of order 2 in an equation "
            "of a system of order 1", ProblemSyntaxError, None,
            id="jet-above-order"),
        pytest.param(
            {"context": XY, "objects": {"S": system(
                {"leading": "y[x]", "rhs": "y[x,x] + y[x,z] + y[z,z]"})}},
            "objects.S.equations[0]: jet y[z,z] of order 2 in an equation "
            "of a system of order 1", ProblemSyntaxError, None,
            id="jet-above-order-first-in-variable-order"),
        pytest.param(
            {"objects": {"S": system({"lhs": "y[x]^2", "rhs": "1"}),
                         "s": SECTION1 | {"order": 0}},
             "checks": [{"id": "c", "op": "fiber_dimension", "args": {
                 "system": "S", "expected": 1, "witness": {
                     "section": "s", "point": {"x": "1"}}}}]},
            "checks[0].args.witness.section: needs a section of y up to "
            "order 1, got y up to order 0", ProblemSyntaxError, None,
            id="witness-section-below-order"),
        pytest.param(
            {"context": {"independents": ["x"], "dependents": ["y", "u"]},
             "objects": {"S": system({"lhs": "u[x]*y[x]", "rhs": "1"}),
                         "s": SECTION1},
             "checks": [{"id": "c", "op": "phs", "args": {
                 "system": "S", "groupoid": "S", "witness_groupoid": {
                     "section": "s", "point": {"x": "1"}}}}]},
            "checks[0].args.witness_groupoid.section: needs a section of u, "
            "y up to order 1, got y up to order 1", ProblemSyntaxError, None,
            id="witness-section-without-dependent"),
        pytest.param(
            {"objects": {"S": SYSTEM1, "s": SECTION1}, "checks": [{
                "id": "c", "op": "automorphic", "args": {
                    "system": "S", "groupoid": "S", "witness_system": {
                        "section": "s", "point": {"x": "1"}}}}]},
            "checks[0].args.witness_system.section: needs a section of y up "
            "to order 2, got y up to order 1", ProblemSyntaxError, None,
            id="automorphic-witness-below-prolonged-order"),
        pytest.param(
            {"context": XY, "objects": {
                "S": system({"lhs": "y[x] - z", "rhs": "0"}),
                "s": SECTION1 | {"components": {"y": "x*z"}}},
             "checks": [{"id": "c", "op": "fiber_dimension", "args": {
                 "system": "S", "expected": 2, "witness": {
                     "section": "s", "point": {"x": "1"}}}}]},
            "checks[0].args.witness.point: gives no value for z",
            ProblemSyntaxError, None, id="witness-point-unbound"),
        *(pytest.param(doc, f"{json_path}: {text}", ProblemSyntaxError,
                       least - 1, id=f"{name}-depth")
          for name, doc, json_path, least, text in DEPTH_BOUNDARY),
    ])
    def test_rejected_at_load(self, tmp_path, capsys, doc, json_path, error,
                              max_order):
        self._rejected(tmp_path, capsys, problem(**doc), json_path, error,
                       max_order)

    @pytest.mark.parametrize("section, value", [
        ("checks", 0), ("checks", {}), ("checks", None), ("checks", ""),
        ("objects", []), ("objects", None), ("objects", 0),
        ("definitions", []), ("definitions", None), ("definitions", ""),
    ])
    def test_falsy_section_is_refused(self, tmp_path, capsys, section,
                                      value):
        kind = "array" if section == "checks" else "object"
        self._rejected(tmp_path, capsys, problem(**{section: value}),
                       f":{section}: expected a JSON {kind}")

    @pytest.mark.parametrize("doc, least", [
        pytest.param(doc, least, id=name)
        for name, doc, _, least, _ in DEPTH_BOUNDARY])
    def test_depth_boundary_loads(self, tmp_path, capsys, doc, least):
        path = tmp_path / "boundary.json"
        path.write_text(problem(**doc))
        assert main(["check", str(path), "--max-order", str(least)]) == 0
        assert "1/1 checks matched" in capsys.readouterr().out

    def test_cancelled_high_jet_loads(self):
        pf = parse_problem(problem(objects={"S": system(
            {"lhs": "y[x,x] + y[x]", "rhs": "y[x,x]"})}))
        assert _build(pf, "S", "system").residuals() == [pf.ctx.expr("y[x]")]

    def test_absent_sections_are_empty(self):
        doc = {"context": MINIMAL["context"]}
        pf = parse_problem(json.dumps(doc))
        assert pf.objects == {} and pf.checks == []

    BOOM = problem(checks=[{"id": "boom", "op": "radical_membership",
                            "args": {"element": "y", "direction": "x",
                                     "r": 5}}])
    BOOM_DETAIL = ("CertificateSearchExceeded: radical certificates are "
                   "constructed only up to r = 4")

    def test_reports_without_traceback_are_unchanged(self, tmp_path, capsys):
        bad = tmp_path / "boom.json"
        bad.write_text(self.BOOM)
        assert main(["check", str(bad)]) == 1
        text = re.sub(r" \d+ms$", " 0ms", capsys.readouterr().out, flags=re.M)
        assert text == (f"== {bad}\n"
                        "  boom: ERROR (expected OK) [MISMATCH] 0ms\n"
                        f"    detail: {self.BOOM_DETAIL}\n"
                        "0/1 checks matched\n")
        assert main(["check", str(bad), "--format", "json"]) == 1
        (check,) = json.loads(capsys.readouterr().out)["files"][0]["checks"]
        assert check == {"id": "boom", "op": "radical_membership",
                         "status": "ERROR", "expected": "OK",
                         "matched": False, "witness": None, "numbers": {},
                         "detail": self.BOOM_DETAIL}

    def test_traceback_option_shows_the_stack(self, tmp_path, capsys):
        bad = tmp_path / "boom.json"
        bad.write_text(self.BOOM)
        assert main(["check", str(bad), "--traceback"]) == 1
        lines = capsys.readouterr().out.splitlines()
        at = lines.index(f"    detail: {self.BOOM_DETAIL}")
        assert lines[at + 1] == "      Traceback (most recent call last):"
        assert "in radical_power_membership" in "\n".join(lines)
        assert lines[-2] == f"      vessiot.errors.{self.BOOM_DETAIL}"
        assert main(["check", str(bad), "--traceback",
                     "--format", "json"]) == 1
        (check,) = json.loads(capsys.readouterr().out)["files"][0]["checks"]
        assert check["detail"] == self.BOOM_DETAIL
        assert check["traceback"].startswith("Traceback (most recent call")
        assert check["traceback"].endswith(
            f"vessiot.errors.{self.BOOM_DETAIL}\n")

    def test_usage_error(self, capsys):
        assert main([]) == 2
        assert main(["check", "--format", "yaml"]) == 2
        assert main(["check", "--seed", "7"]) == 2


def _json_type(value):
    for name, typ in (("null", type(None)), ("boolean", bool),
                      ("number", (int, float)), ("string", str),
                      ("array", list), ("object", dict)):
        if isinstance(value, typ):
            return name


def _slots(container, key):
    """(container, key) of ``container[key]`` and of every member below."""
    yield container, key
    child = container[key]
    if isinstance(child, (dict, list)):
        for k in list(child) if isinstance(child, dict) else range(len(child)):
            yield from _slots(child, k)


def _declared_keys(doc):
    """(container, key) of each key that a loader or an op's argument
    schema declares: those of the context, of each object spec, equation
    and generator field, of each check entry, its args and their witness
    points."""
    yield from ((doc["context"], k) for k in doc["context"])
    for spec in doc.get("objects", {}).values():
        yield from ((spec, k) for k in spec)
        for part in spec.get("equations", []) + spec.get("fields", []):
            yield from ((part, k) for k in part)
    for check in doc.get("checks", []):
        yield from ((check, k) for k in check)
        args = check.get("args", {})
        yield from ((args, k) for k in args)
        for k, v in args.items():
            if k.startswith("witness"):
                yield from ((v, w) for w in v)


class TestStructuralFuzz:
    """Seeded structural mutations of the corpus files' context, objects
    and check args (a declared key renamed, a key deleted, a value
    replaced by one of another JSON type, or an integer stepped by one or
    set to 0; expression text is never edited). A file with a renamed key
    is refused at load with the file and a JSON path; any other mutated
    file is either refused so, or loads, every object builds or raises a
    VessiotError, and every check ends in OK, FAIL or an ERROR that
    carries a VessiotError."""

    REPLACEMENTS = ["x", 0, 7, -1, 2.5, True, [], {}, None]

    def mutate(self, doc, rng):
        """Mutate ``doc`` in place; True when a key was renamed."""
        if rng.random() < 0.2:
            container, key = rng.choice(list(_declared_keys(doc)))
            container[key + rng.choice("_sx")] = container.pop(key)
            return True
        witnesses = [s for c in doc.get("checks", [])
                     for k in c.get("args", {}) if k.startswith("witness")
                     for s in list(_slots(c["args"], k))[1:]]
        if witnesses and rng.random() < 0.3:
            container, key = rng.choice(witnesses)
            del container[key]
            return False
        areas = [list(_slots(doc, "context"))]
        if "objects" in doc:
            areas.append(list(_slots(doc, "objects")))
        args = [s for c in doc.get("checks", []) if "args" in c
                for s in _slots(c, "args")]
        if args:
            areas.append(args)
        container, key = rng.choice(rng.choice(areas))
        value = container[key]
        if type(value) is int and rng.random() < 0.5:
            container[key] = rng.choice([value - 1, value + 1, 0])
        elif rng.random() < 0.3:
            del container[key]
        else:
            old = _json_type(container[key])
            container[key] = rng.choice([
                v for v in self.REPLACEMENTS if _json_type(v) != old
            ])
        return False

    def test_mutations_load_or_fail_with_a_location(self):
        docs = [json.loads(p.read_text())
                for p in sorted(CORPUS.glob("*.json"))]
        rng = random.Random(8)
        outcomes = {"refused": 0, "loaded": 0}
        renames = 0
        for _ in range(650):
            doc = copy.deepcopy(rng.choice(docs))
            renamed = self.mutate(doc, rng)
            renames += renamed
            try:
                pf = parse_problem(json.dumps(doc), "fuzz.json")
            except (ProblemSyntaxError, UnknownReference,
                    ContextMismatch) as exc:
                assert re.match(
                    r"fuzz\.json:(context|definitions|objects|checks)",
                    str(exc)), str(exc)
                outcomes["refused"] += 1
                continue
            assert not renamed, json.dumps(doc)
            outcomes["loaded"] += 1
            for name, (kind, _) in pf.objects.items():
                try:
                    _build(pf, name, kind)
                except VessiotError:
                    pass
            for r in run(pf, Options(traceback=True)).results:
                error = getattr(errors, r.detail.partition(":")[0], None)
                assert r.status != "ERROR" or (
                    isinstance(error, type)
                    and issubclass(error, VessiotError)), r.traceback
        assert min(outcomes.values()) > 50 and renames > 50, (
            outcomes, renames)
