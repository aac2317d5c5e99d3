"""Problem-file parsing, the check runner, and the console entry point."""
import json
import re
from pathlib import Path

import pytest

from vessiot.cli import (
    Options,
    default_corpus_dir,
    main,
    parse_problem,
    render_problem,
    report_json,
    report_text,
    run,
)
from vessiot.errors import ProblemSyntaxError, UnknownReference

CORPUS = Path(__file__).resolve().parents[1] / "src" / "vessiot" / "corpus"


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


class TestParse:
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

    def test_round_trip(self):
        for path in sorted(CORPUS.glob("*.json")):
            pf = parse_problem(path.read_bytes(), str(path))
            again = parse_problem(render_problem(pf), str(path))
            assert again.raw == pf.raw
            assert render_problem(again) == render_problem(pf)


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

    def test_expected_failures_have_witnesses(self):
        pf = read_corpus("mech_identities.json")
        rep = run(pf, Options(only="lie_flipped"))
        (r,) = rep.results
        assert r.status == "FAIL" and r.matched
        assert r.witness is not None and r.witness != "0"

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
                {"id": "boom", "op": "frenet",
                 "args": {"curve": "missing", "kappa2": "0"}},
                {"id": "fine", "op": "lie_condition", "args": {}},
            ],
        )
        rep = run(parse_problem(doc))
        by_id = {r.id: r for r in rep.results}
        assert by_id["boom"].status == "ERROR"
        assert by_id["boom"].detail
        assert by_id["fine"].status == "OK"


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

    def test_json_output(self, capsys):
        code = main([
            "check", str(CORPUS / "invariants_curves.json"),
            "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["mismatched"] == 0

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

    def _rejected(self, tmp_path, capsys, text, json_path):
        with pytest.raises(ProblemSyntaxError, match=re.escape(json_path)):
            parse_problem(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert json_path in capsys.readouterr().err

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

    def test_usage_error(self, capsys):
        assert main([]) == 2
        assert main(["check", "--format", "yaml"]) == 2
        assert main(["check", "--seed", "7"]) == 2
