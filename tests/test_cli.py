"""End-to-end CLI tests: exit codes, stdout, and frozen JSON reports."""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gradealg import QQ, PolyRing
from gradealg.cli import main
from tests.test_simplicial import RP2_FACETS
from gradealg.schemas import INPUT_SCHEMA, OUTPUT_SCHEMAS

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = [
    ("check-iso", "split.json", [], "check_iso_split.json", 0),
    ("check-iso", "notsplit.json", [], "check_iso_notsplit.json", 3),
    ("presentation", "twopoints.json", [], "presentation_twopoints.json", 0),
    ("hilbert", "twopoints.json", [], "hilbert_twopoints.json", 0),
    (
        "cohomology",
        "twopoints.json",
        ["--module", "R", "--window=-4:1"],
        "cohomology_r_twopoints.json",
        0,
    ),
    (
        "cohomology",
        "path.json",
        ["--module", "A", "--window=-3:0"],
        "cohomology_a_path.json",
        0,
    ),
    ("gencm", "edge.json", [], "gencm_edge.json", 0),
    ("gencm", "path.json", [], "gencm_path.json", 3),
    ("dim", "path.json", [], "dim_path.json", 0),
]


@pytest.mark.parametrize("command,spec,extra,golden,expected", GOLDEN_RUNS)
def test_golden_reports(tmp_path, command, spec, extra, golden, expected):
    out = tmp_path / "report.json"
    argv = [command, "--input", str(DATA / spec), *extra, "--json", str(out)]
    assert main(argv) == expected
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("command,spec,extra,golden,expected", GOLDEN_RUNS)
def test_golden_stdout(capsys, command, spec, extra, golden, expected):
    assert main([command, "--input", str(DATA / spec), *extra]) == expected
    out = capsys.readouterr().out
    stdout_golden = GOLDEN / golden.replace(".json", ".stdout")
    assert out.encode("utf-8") == stdout_golden.read_bytes()


def test_cyclic6_q_presentation_matches_its_golden(tmp_path, capsys):
    # the golden was computed once with the reduction work budget lifted;
    # the signature criteria keep the run far below the budget
    out = tmp_path / "report.json"
    argv = ["presentation", "--input", str(DATA / "cyclic6_q.json"), "--json", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "presentation_cyclic6_q.json").read_bytes()


def test_help_matches_readme(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```text\nusage: gradealg ", 1)[1].split("```", 1)[0]
    assert capsys.readouterr().out == "usage: gradealg " + block


def test_reports_validate_against_published_schemas():
    for command, spec, extra, golden, _ in GOLDEN_RUNS:
        report = json.loads((GOLDEN / golden).read_text())
        import jsonschema

        jsonschema.validate(report, OUTPUT_SCHEMAS[command])


def test_stdout_summary(capsys):
    assert main(["check-iso", "--input", str(DATA / "split.json")]) == 0
    out = capsys.readouterr().out
    assert "isomorphic: true" in out
    assert "verified: true" in out
    assert "B: x1, x2" in out

    assert main(["check-iso", "--input", str(DATA / "notsplit.json")]) == 3
    out = capsys.readouterr().out
    assert "isomorphic: false" in out
    assert "reason: not-split" in out


def test_missing_input_file(capsys):
    assert main(["dim", "--input", "no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_problem_description(capsys):
    assert main(["dim", "--input", str(DATA / "missing_i.json")]) == 1
    err = capsys.readouterr().err
    assert "invalid problem description" in err


def test_vertex_limit_is_internal_error(capsys):
    assert main(["dim", "--input", str(DATA / "toobig.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["check-iso", "presentation", "hilbert", "cohomology", "gencm", "dim"]
)
def test_big_facet_exceeds_the_face_budget(capsys, command):
    # one facet on 30 vertices: 2^30 subsets, refused before any is visited
    start = time.perf_counter()
    assert main([command, "--input", str(DATA / "bigfacet.json")]) == 2
    assert time.perf_counter() - start < 1
    assert "exceed the face budget" in capsys.readouterr().err


def test_big_facet_with_a_bad_i_exceeds_the_face_budget(tmp_path, capsys):
    # the face budget is met before I is parsed
    spec = json.loads((DATA / "bigfacet.json").read_text())
    spec["I"] = ["x1 +"]
    path = tmp_path / "bigfacet_bad_i.json"
    path.write_text(json.dumps(spec))
    assert main(["dim", "--input", str(path)]) == 2
    assert "exceed the face budget" in capsys.readouterr().err


def test_bad_j_is_reported_before_bad_i(tmp_path, capsys):
    path = tmp_path / "bad_j_and_i.json"
    path.write_text(json.dumps({"variables": ["x1", "x2"], "J": ["x9"], "I": ["x2 +"]}))
    assert main(["dim", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown variable 'x9'\n"


@pytest.mark.parametrize("argv", [["dim"], ["cohomology", "--module", "R"], ["gencm"]])
def test_j_spec_builds_its_complex_once(monkeypatch, argv):
    from gradealg.simplicial import SimplicialComplex

    calls = []
    original = SimplicialComplex.from_ideal.__func__

    def counting(cls, J):
        calls.append(J)
        return original(cls, J)

    monkeypatch.setattr(SimplicialComplex, "from_ideal", classmethod(counting))
    assert main([*argv, "--input", str(DATA / "twopoints.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["dim"], ["cohomology"], ["cohomology", "--module", "R"]])
def test_facets_spec_finds_its_minimal_nonfaces_once(monkeypatch, argv):
    from gradealg import simplicial

    simplicial._profile.cache_clear()
    enumerated = []
    original = simplicial._minimal_nonfaces

    def recording(vertices, facets):
        enumerated.append((vertices, frozenset(facets)))
        return original(vertices, facets)

    monkeypatch.setattr(simplicial, "_minimal_nonfaces", recording)
    assert main([*argv, "--input", str(DATA / "path.json")]) == 0
    # the spec's complex first, eagerly in _Problem; no complex a second time
    assert enumerated[0][0] == (0, 1, 2)
    assert len(set(enumerated)) == len(enumerated)


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--input", "x.json"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["dim"])
    assert exc.value.code == 1


def test_window_must_contain_zero(capsys):
    code = main(["cohomology", "--input", str(DATA / "twopoints.json"),
                 "--window", "1:2"])
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_bad_window_text(capsys):
    code = main(["cohomology", "--input", str(DATA / "twopoints.json"),
                 "--window", "5"])
    assert code == 1
    code = main(["cohomology", "--input", str(DATA / "twopoints.json"),
                 "--window=2:-2"])
    assert code == 1


def test_module_r_needs_a_join(capsys):
    code = main(["cohomology", "--input", str(DATA / "notsplit.json"),
                 "--module", "R"])
    assert code == 1
    assert "split" in capsys.readouterr().err


def test_zero_ideal_in_quotient_rejected(tmp_path, capsys):
    spec = {"field": "Q", "variables": ["x1", "x2"], "J": ["x1*x2"],
            "I": ["x1 + x2"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["cohomology", "--input", str(path), "--module", "R"])
    assert code == 1
    assert "variable" in capsys.readouterr().err


def test_field_override(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["check-iso", "--input", str(DATA / "split.json"),
                 "--field", "GF7", "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["field"] == "GF(7)"

    code = main(["dim", "--input", str(DATA / "path.json"), "--field", "GF(6)"])
    assert code == 1


@pytest.mark.parametrize("label", ["GF(7", "GF7)", " GF(7) "])
def test_field_override_labels(tmp_path, label):
    out = tmp_path / "r.json"
    assert main(["dim", "--input", str(DATA / "path.json"), "--field", label,
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["field"] == "GF(7)"


def test_unknown_field_message(capsys):
    assert main(["dim", "--input", str(DATA / "path.json"), "--field", "R"]) == 1
    assert capsys.readouterr().err == "error: unknown field 'R'; expected Q or GF(p)\n"


def test_facets_and_ideal_descriptions_agree(tmp_path):
    by_facets = {"field": "Q", "variables": ["x1", "x2"],
                 "facets": [[1], [2]], "I": ["x1", "x2"]}
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(by_facets))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["dim", "--input", str(DATA / "twopoints.json"),
                 "--json", str(out_a)]) == 0
    assert main(["dim", "--input", str(path), "--json", str(out_b)]) == 0
    assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())


def test_allow_linear_flag(tmp_path, capsys):
    spec = {"field": "Q", "variables": ["x1", "x2"], "J": ["x1 - x2"],
            "I": ["x1"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["check-iso", "--input", str(path)]) == 1
    assert "linear" in capsys.readouterr().err.lower()
    assert main(["check-iso", "--input", str(path), "--allow-linear"]) == 0
    assert capsys.readouterr().err == _linear_warning("x1 - x2")


def _linear_warning(generators: str) -> str:
    # one line, the same from every checkout: no path and no source line
    return (
        f"warning: J has degree-1 generators ({generators}); the variable count is "
        "not reduced automatically and the canonical B may lose uniqueness\n"
    )


def test_allow_linear_certifies_a_variable_of_b_in_j(tmp_path, capsys):
    # x3 lies in J and in B: the certificate must not refuse it as degenerate
    out = tmp_path / "r.json"
    assert main(["check-iso", "--input", str(DATA / "linear.json"),
                 "--allow-linear", "--json", str(out)]) == 0
    assert capsys.readouterr().err == _linear_warning("x3")
    report = json.loads(out.read_text())
    assert report["isomorphic"] and report["verified"]
    assert report["B"] == ["x1", "x3"]


def test_published_schema_files_match_module():
    # byte for byte, in the layout the files are written in
    docs = Path(__file__).parent.parent / "docs" / "schemas"
    schemas = {"input.schema.json": INPUT_SCHEMA}
    schemas.update((f"{command}.output.schema.json", s) for command, s in OUTPUT_SCHEMAS.items())
    for name, schema in schemas.items():
        text = json.dumps(schema, indent=2, sort_keys=True) + "\n"
        assert (docs / name).read_bytes() == text.encode(), name


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gradealg.cli", "dim",
         "--input", str(DATA / "path.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "gradealg.cli", "gencm",
         "--input", str(DATA / "path.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


def _cross_polytope_facets(pairs: int) -> list:
    """Facets of the boundary of the cross-polytope on `pairs` antipodal
    vertex pairs (1 2, 3 4, ...), 1-based."""
    facets = [[]]
    for k in range(pairs):
        facets = [f + [2 * k + c] for f in facets for c in (1, 2)]
    return facets


def _cross_polytope_spec(tmp_path, pairs: int, b_pairs: int) -> Path:
    """The cross-polytope on `pairs` vertex pairs (x1 x2, x3 x4, ...), with
    I generated by the first `b_pairs` pairs."""
    facets = _cross_polytope_facets(pairs)
    names = [f"x{v}" for v in range(1, 2 * pairs + 1)]
    spec = {"variables": names, "facets": facets, "I": names[: 2 * b_pairs], "field": "Q"}
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv,code,links",
    [
        # The complex is the join of four antipodal pairs, with 3 faces each;
        # the two split factors are joins of the same pairs.
        (["gencm"], 3, 4 * 3),
        (["cohomology", "--module", "A"], 0, 4 * 3),
    ],
)
def test_each_profile_is_computed_once(tmp_path, monkeypatch, argv, code, links):
    from gradealg import simplicial

    calls = []
    original = simplicial.reduced_homology_ranks

    def counting(complex, field):
        calls.append(complex)
        return original(complex, field)

    simplicial._profile.cache_clear()
    simplicial._factor_profile.cache_clear()
    monkeypatch.setattr(simplicial, "reduced_homology_ranks", counting)
    spec = _cross_polytope_spec(tmp_path, pairs=4, b_pairs=2)
    assert main([*argv, "--input", str(spec)]) == code
    assert len(calls) == links


@pytest.mark.parametrize(
    "spec",
    [
        {"J": [], "field": "Q", "variables": ["x1"]},
        {"J": [], "I": ["x1"], "field": "Q", "variables": ["1x"]},
        {"J": [], "I": ["x1"], "field": "Q", "variables": ["x1", "x1"]},
        {"J": 3, "I": ["x1"], "field": "Q", "variables": ["x1"]},
    ],
)
def test_validators_built_once_report_the_same_error(tmp_path, capsys, spec):
    import jsonschema

    from gradealg.schemas import validate_input

    with pytest.raises(jsonschema.ValidationError) as fresh:
        jsonschema.Draft202012Validator(INPUT_SCHEMA).validate(spec)
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError) as reused:
            validate_input(spec)
        assert reused.value.message == fresh.value.message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["dim", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid problem description: {fresh.value.message}\n"


def _nonfaces_by_enumeration(ring, complex):
    """Every vertex subset, by size then lexicographically, kept when it is
    a non-face whose facets are all faces."""
    from itertools import combinations

    n = ring.nvars
    out = []
    for size in range(1, n + 1):
        for s in combinations(range(n), size):
            if not complex.has_face(s) and all(
                complex.has_face(s[:k] + s[k + 1 :]) for k in range(size)
            ):
                out.append(ring.monomial(tuple(int(i in s) for i in range(n))))
    return out


@pytest.mark.parametrize(
    "n,facets",
    [
        (6, [[v + 1 for v in f] for f in RP2_FACETS]),
        (7, [[v + 1 for v in f] + [7] for f in RP2_FACETS]),
        (6, _cross_polytope_facets(3)),
        (8, _cross_polytope_facets(4)),
        (10, _cross_polytope_facets(5)),
        (4, [[1, 2], [3]]),
        (3, []),
    ],
)
def test_minimal_nonfaces_match_subset_enumeration(n, facets):
    from gradealg.cli import _complex_from_facets, _minimal_nonface_ideal
    from gradealg.fields import QQ
    from gradealg.polynomials import PolyRing

    ring = PolyRing([f"x{i}" for i in range(1, n + 1)], QQ)
    complex = _complex_from_facets(ring, facets)
    ideal = _minimal_nonface_ideal(ring, complex)
    assert list(ideal.generators) == _nonfaces_by_enumeration(ring, complex)


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_hilbert_budget_probe_exits_two_quickly(tmp_path, capsys):
    # 12 variables at the largest valid bounds: past the standard-monomial
    # budget, refused before the Rees presentation is built
    names = [f"x{i}" for i in range(1, 13)]
    spec = {"variables": names, "J": ["x1*x2"], "I": names,
            "options": {"level_bound": 16, "degree_bound": 20}}
    path = _write_spec(tmp_path, spec)
    start = time.perf_counter()
    assert main(["hilbert", "--input", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "standard monomials" in err


def test_hilbert_on_variables_named_y1_and_t(tmp_path):
    from gradealg.fields import QQ
    from gradealg.groebner import Ideal
    from gradealg.polynomials import PolyRing
    from tests.downstairs_hilbert import downstairs_bigraded_hilbert

    spec = {"variables": ["Y1", "t", "x"], "J": ["Y1*t - x^2"], "I": ["Y1", "t"],
            "options": {"level_bound": 3, "degree_bound": 4}}
    out = tmp_path / "r.json"
    assert main(["hilbert", "--input", _write_spec(tmp_path, spec), "--json", str(out)]) == 0
    R = PolyRing(("Y1", "t", "x"), QQ)
    oracle = downstairs_bigraded_hilbert(Ideal.parse(R, spec["J"]), [R.parse(g) for g in spec["I"]], 3, 4)
    entries = [[n, d, v] for (n, d), v in sorted(oracle.dims.items())]
    assert json.loads(out.read_text())["entries"] == entries


# split.json with x2 renamed Y1 and x3 renamed t, the default Y- and t-names
_CLASHING = {"variables": ["x1", "Y1", "t"], "J": ["x1*Y1", "t^2"], "I": ["x1", "Y1"]}


def test_presentation_and_check_iso_rename_clashing_y_variables(tmp_path):
    path = _write_spec(tmp_path, _CLASHING)
    out = tmp_path / "r.json"
    assert main(["presentation", "--input", path, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    for block in ("rees", "assoc_graded"):
        assert report[block]["x_variables"] == ["x1", "Y1", "t"]
        assert report[block]["y_variables"] == ["Y1_", "Y2"]
    assert main(["check-iso", "--input", path, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["isomorphic"] is True and report["verified"] is True
    assert report["kernel_generators"] == ["t^2", "Y1_*Y2", "x1", "Y1"]


def test_hilbert_table_ignores_clashing_names(tmp_path):
    renamed = {"variables": ["x1", "y", "s"], "J": ["x1*y", "s^2"], "I": ["x1", "y"]}
    tables = []
    for spec in (_CLASHING, renamed):
        out = tmp_path / "r.json"
        assert main(["hilbert", "--input", _write_spec(tmp_path, spec), "--json", str(out)]) == 0
        tables.append(json.loads(out.read_text())["entries"])
    assert tables[0] == tables[1] != []


def test_failed_self_check_is_an_internal_error(monkeypatch, capsys):
    from gradealg import rees_cohomology

    # path.json is not generalized CM; invariants claiming a CM base and
    # a(A1) < 0, but no generalized CM, make a CM verdict that contradicts it
    real = rees_cohomology.sr_invariants
    monkeypatch.setattr(
        rees_cohomology,
        "sr_invariants",
        lambda cx, field: real(cx, field)._replace(cm=True, gencm=False, a_invariant=-1),
    )
    assert main(["gencm", "--input", str(DATA / "path.json")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: Cohen-Macaulay verdict without generalized CM\n"


def test_unverified_certificate_is_reported_not_refused(tmp_path, monkeypatch, capsys):
    # a positive decision whose certificate fails to divide: the request
    # still exits 0, prints the kernel, and says verified: false in stdout
    # and in the report, which otherwise match the golden run's
    from gradealg import criterion

    monkeypatch.setattr(criterion, "_divides", lambda divisors, ideal: False)
    out = tmp_path / "r.json"
    assert main(["check-iso", "--input", str(DATA / "split.json"), "--json", str(out)]) == 0
    stdout = (GOLDEN / "check_iso_split.stdout").read_text()
    assert "verified: true\n" in stdout and "\nkernel: " in stdout
    assert capsys.readouterr().out == stdout.replace("verified: true", "verified: false")
    report = json.loads((GOLDEN / "check_iso_split.json").read_text())
    assert json.loads(out.read_text()) == {**report, "verified": False}


def test_deeply_nested_parentheses_are_a_parse_error(capsys):
    # 1000 levels of parentheses in I: past the recursion limit of the parser
    assert main(["dim", "--input", str(DATA / "deep_parens.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: parentheses nested too deeply\n"


def test_coefficient_too_long_to_print_exceeds_a_limit(tmp_path, capsys):
    # valid input; a report coefficient, 2^20000, has past 4300 decimal digits
    spec = {"variables": ["x1", "x2"], "J": ["x1*x2"], "I": ["x1 + 2^20000*x2"]}
    assert main(["presentation", "--input", _write_spec(tmp_path, spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a coefficient has more digits than str() allows\n"


def test_report_failing_its_schema_is_an_internal_error(monkeypatch, capsys):
    from gradealg import cli

    handler, summary = cli._COMMANDS["dim"]

    def drifted(problem, spec, args):
        fields, lines, code = handler(problem, spec, args)
        return {**fields, "dim_R": "three"}, lines, code

    monkeypatch.setitem(cli._COMMANDS, "dim", (drifted, summary))
    assert main(["dim", "--input", str(DATA / "path.json")]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "'three' is not of type 'integer'" in err


def test_presentation_validates_its_input_once(monkeypatch):
    from gradealg import blowup

    calls = []
    original = blowup.ideal_member

    def counting(g, ideal):
        calls.append(g)
        return original(g, ideal)

    monkeypatch.setattr(blowup, "ideal_member", counting)
    assert main(["presentation", "--input", str(DATA / "twopoints.json")]) == 0
    assert [str(g) for g in calls] == ["x1", "x2"]


@pytest.mark.parametrize(
    "command, name", [("check-iso", "split.json"), ("hilbert", "twopoints.json")]
)
def test_check_iso_and_hilbert_build_no_rees_presentation(monkeypatch, command, name):
    # G, its hilbert table and the check-iso certificate are read off one
    # weighted basis; only the presentation command eliminates t
    from gradealg import blowup

    def refuse(J, f):
        raise AssertionError("a Rees presentation was built")

    monkeypatch.setattr(blowup, "_rees_presentation", refuse)
    assert main([command, "--input", str(DATA / name)]) == 0


def test_presentation_builds_one_rees_presentation(monkeypatch):
    from gradealg import blowup

    calls = []
    original = blowup._rees_presentation

    def counting(J, f):
        calls.append(f)
        return original(J, f)

    monkeypatch.setattr(blowup, "_rees_presentation", counting)
    assert main(["presentation", "--input", str(DATA / "twopoints.json")]) == 0
    assert len(calls) == 1


def test_linear_generator_is_rejected_before_any_basis(tmp_path, monkeypatch, capsys):
    from gradealg import groebner

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    monkeypatch.setattr(groebner, "groebner_basis", refuse)
    # I is also zero modulo J, which only a basis shows: the syntactic
    # message comes first
    spec = {"variables": ["x1", "x2"], "J": ["x1 - x2", "x1"], "I": ["x2"]}
    assert main(["check-iso", "--input", _write_spec(tmp_path, spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: J has degree-1 generators (x1 - x2, x1)")


@pytest.mark.parametrize(
    "argv",
    [["dim"], ["cohomology", "--module", "R"], ["gencm"]],
)
def test_face_ring_commands_build_no_basis(tmp_path, monkeypatch, capsys, argv):
    # I is generated by variables: B is read off the minimal non-faces, so
    # no Buchberger run is needed
    from gradealg import groebner

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    specs = [DATA / "path.json", _cross_polytope_spec(tmp_path, pairs=3, b_pairs=1)]
    expected = []
    for spec in specs:
        code = main([*argv, "--input", str(spec)])
        expected.append((code, capsys.readouterr().out))
    groebner._cached_gb.cache_clear()
    monkeypatch.setattr(groebner, "buchberger", refuse)
    for spec, (code, out) in zip(specs, expected):
        assert main([*argv, "--input", str(spec)]) == code
        assert capsys.readouterr().out == out


EDGE_SPEC = {"variables": ["x1", "x2"], "facets": [[1, 2]], "I": ["x1"]}


def test_empty_option_values_take_both_routes():
    # the rows of test_rejection_messages below rely on these routes
    from gradealg.cli import _parse_args, _read_argv

    for full, short in (("--field", "--f="), ("--window", "--w=")):
        attr = full[2:]
        assert getattr(_read_argv(["cohomology", full, "", "--input", "a"]), attr) == ""
        assert getattr(_read_argv(["cohomology", full + "=", "--input", "a"]), attr) == ""
        assert _read_argv(["cohomology", short, "--input", "a"]) is None
        assert getattr(_parse_args(["cohomology", short, "--input", "a"]), attr) == ""


# one row per exit-1 message of cli.py that a schema-valid input reaches
@pytest.mark.parametrize(
    "command,spec,message",
    [
        (
            "cohomology",
            {"variables": ["x1", "x2"], "facets": [[1], [2]], "I": ["x1"],
             "options": {"window": [2, -2]}},
            "empty window [2, -2]",
        ),
        (
            "dim",
            {"variables": ["x1", "x2", "x3"], "facets": [[1, 5]], "I": ["x1"]},
            "facet vertex 5 exceeds variable count 3",
        ),
        (
            # x3 is in no facet, so I = (x3) is zero modulo J
            "dim",
            {"variables": ["x1", "x2", "x3"], "facets": [[1, 2]], "I": ["x3"]},
            "I is zero in A; the blowup pipeline needs a nonzero ideal",
        ),
        (
            "cohomology",
            {"variables": ["x1", "x2"], "J": ["1"], "I": ["x1"]},
            "J contains the unit 1, so A = 0",
        ),
        # an empty --field or --window value is read, not skipped: through
        # _read_argv, and through argparse for the abbreviated option
        ("dim --field=", EDGE_SPEC, "unknown field ''; expected Q or GF(p)"),
        ("dim --f=", EDGE_SPEC, "unknown field ''; expected Q or GF(p)"),
        ("cohomology --window=", EDGE_SPEC, "bad window ''; expected lo:hi"),
        ("cohomology --w=", EDGE_SPEC, "bad window ''; expected lo:hi"),
    ],
)
def test_rejection_messages(tmp_path, capsys, command, spec, message):
    assert main([*command.split(), "--input", _write_spec(tmp_path, spec)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _draw_i(rng, n, complex) -> list:
    """I for one draw of the combinatorial-B test: mostly face vertices,
    often with a non-face monomial; at times a scaled variable, a square,
    a unit, a zero or a non-monomial sum, which takes the fallback."""
    x = [f"x{v + 1}" for v in range(n)]
    nonfaces = complex.minimal_nonfaces()
    vertices = [v for v in range(n) if complex.has_face((v,))] or list(range(n))
    gens = [x[v] for v in rng.sample(vertices, rng.randint(1, len(vertices)))]
    if nonfaces and rng.random() < 0.4:
        s = set(rng.choice(nonfaces)) | {rng.randrange(n)}
        gens.append("*".join(x[v] for v in sorted(s)))
    if rng.random() < 0.3:
        a, b = rng.randrange(n), rng.randrange(n)
        gens.append(rng.choice([f"2*{x[a]}", f"{x[a]}^2", "1", "0", f"{x[a]} + {x[b]}",
                                f"{x[a]}*{x[b]} + {x[b]}^2", f"{x[a]}^2*{x[b]}"]))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("field", ["Q", "GF(2)", "GF(3)"])
def test_combinatorial_b_matches_variable_subset_basis(field):
    # B read off the minimal non-faces against the ideal-sum route on the
    # polynomial J, or the same error message
    from gradealg import cli
    from gradealg.criterion import variable_subset_basis
    from gradealg.fields import parse_field

    def outcome(route, problem, complex):
        try:
            return route(problem, complex)
        except ValueError as exc:
            return str(exc)

    def oracle(problem, complex):
        J = cli._minimal_nonface_ideal(problem.ring, complex)
        b = variable_subset_basis(problem.i_polys, J)
        if b is None:
            raise ValueError("I is not generated by variable images modulo J")
        if not any(complex.has_face((v,)) for v in b):
            raise ValueError("I is zero in A; the blowup pipeline needs a nonzero ideal")
        return b

    rng = random.Random(f"combinatorial-b:{field}")
    seen = set()
    for _ in range(250):
        n = rng.randint(1, 6)
        facets = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(0, 4))]
        spec = {"variables": [f"x{v}" for v in range(1, n + 1)], "facets": facets, "I": []}
        complex = cli._complex_from_facets(PolyRing(spec["variables"], QQ), facets)
        spec["I"] = _draw_i(rng, n, complex)
        problem = cli._Problem(spec, parse_field(field))
        got = outcome(cli._variable_basis, problem, complex)
        assert got == outcome(oracle, problem, complex), spec
        monomial = all(len(g.terms) <= 1 for g in problem.i_polys)
        seen.add((monomial, isinstance(got, tuple)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize(
    "argv", [["dim"], ["cohomology", "--module", "A"], ["cohomology", "--module", "R"], ["gencm"]]
)
def test_face_ring_commands_build_no_polynomial_j(monkeypatch, argv):
    from gradealg import cli

    def refuse(ring, complex):
        raise AssertionError("the polynomial J was built")

    monkeypatch.setattr(cli, "_minimal_nonface_ideal", refuse)
    assert main([*argv, "--input", str(DATA / "edge.json")]) == 0


def test_check_iso_builds_the_polynomial_j_once(monkeypatch):
    from gradealg import cli

    calls = []
    original = cli._minimal_nonface_ideal

    def counting(ring, complex):
        calls.append(complex)
        return original(ring, complex)

    monkeypatch.setattr(cli, "_minimal_nonface_ideal", counting)
    assert main(["check-iso", "--input", str(DATA / "edge.json")]) == 0
    assert len(calls) == 1
