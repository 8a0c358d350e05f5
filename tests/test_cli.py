"""Command-line interface: the description grammar, report schema, exit
codes, and the sections subcommand."""

import json
import re
import sys

import pytest

from liestruct import JacobiError, LiestructError, __version__, from_dict, parse_algebra, to_dict
from liestruct.cli import main, parse_coefficient_algebra, run
from liestruct.errors import SpecParseError


# ---------------------------------------------------------------------------
# description grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec, dim",
    [
        ("sl:2", 3),
        ("sl:3", 8),
        ("gl:2", 4),
        ("so:3", 3),
        ("sp:4", 10),
        ("su:2", 3),
        ("u:2", 4),
        ("ex:2dim", 2),
        ("cur:sl:2,jet:1,3", 9),
        ("cur:sl:2,points:2", 6),
        ("sum:sl:2+sl:2", 6),
        ("sum:sl:2+ex:2dim", 5),
        ("sum:cur:sl:2,jet:1,2+so:3", 9),
    ],
)
def test_parse_algebra_dimensions(spec, dim):
    assert parse_algebra(spec).dim == dim


def test_parse_algebra_whitespace_tolerated():
    assert parse_algebra("  sl:2 ").dim == 3


@pytest.mark.parametrize(
    "spec",
    [
        "e8:8",
        "sl:x",
        "sl:2junk",
        "ex:3dim",
        "cur:sl:2",
        "cur:sl:2,ring:3",
        "sum:sl:2",
        "@",
        "",
    ],
)
def test_parse_algebra_rejects(spec):
    with pytest.raises(SpecParseError):
        parse_algebra(spec)


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError) as exc:
        parse_algebra("sum:sl:2&sl:2")
    assert exc.value.position == 8


def test_parse_five_dim_raises_jacobi():
    with pytest.raises(JacobiError) as exc:
        parse_algebra("ex:5dim")
    assert exc.value.triple == (0, 1, 2)


def test_parse_coefficient_algebra():
    assert parse_coefficient_algebra("jet:1,3").dim == 3
    assert parse_coefficient_algebra("points:4").dim == 4
    with pytest.raises(SpecParseError):
        parse_coefficient_algebra("jet:1")
    with pytest.raises(SpecParseError):
        parse_coefficient_algebra("field:2")


def test_parse_algebra_from_file(tmp_path, heisenberg3):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(to_dict(heisenberg3)))
    g = parse_algebra("@" + str(path))
    assert g.dim == 3 and g == heisenberg3


def test_parse_algebra_missing_file(tmp_path):
    with pytest.raises(SpecParseError, match="cannot read"):
        parse_algebra("@" + str(tmp_path / "nope.json"))


def test_parse_algebra_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SpecParseError, match="invalid JSON"):
        parse_algebra("@" + str(path))


def _pair(value, left=0, right=1):
    return {"dim": 3, "brackets": [{"left": left, "right": right, "value": value}]}


MALFORMED_IDS = ["index-minus-1", "index-dim", "no-dim", "pair-0-5", "value-x", "top-level-list",
                 "value-list", "short-basis", "basis-string", "basis-repeated", "basis-numbers"]
MALFORMED_FILES = [
    (_pair({"-1": "1"}), "coefficient index -1 outside 0..2"),
    (_pair({"3": "1"}), "coefficient index 3 outside 0..2"),
    ({"brackets": []}, "missing key 'dim'"),
    (_pair({"0": "1"}, right=5), r"bracket key \(0, 5\)"),
    (_pair({"2": "x"}), "Invalid literal for Fraction"),
    ([{"dim": 3}], "invalid algebra"),
    (_pair(["1"]), "invalid algebra"),
    ({"dim": 3, "basis": ["a"]}, "expected 3 basis names"),
    ({"dim": 3, "basis": "xyz"}, '"basis" must be a list of 3 strings'),
    ({"dim": 2, "basis": ["a", "a"]}, "\"basis\" names 'a' more than once"),
    ({"dim": 2, "basis": [1, 2]}, '"basis" must be a list of 2 strings'),
]


@pytest.mark.parametrize("basis", ["xyz", ["a", "a"], ["a", "b", "a"], [1, 2, 3], {"a": 1}])
def test_from_dict_refuses_a_basis_that_is_not_distinct_names(basis):
    with pytest.raises(ValueError, match='"basis"'):
        from_dict({"dim": len(basis), "basis": basis, "brackets": []})


@pytest.mark.parametrize("data, message", MALFORMED_FILES, ids=MALFORMED_IDS)
def test_parse_algebra_malformed_file_names_the_file(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SpecParseError, match=message) as exc:
        parse_algebra("@" + str(path))
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("data, message", MALFORMED_FILES, ids=MALFORMED_IDS)
def test_main_malformed_file_exits_2(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["--algebra", "@" + str(path), "--analyze", "flags"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid algebra in %s" % path)
    assert "Traceback" not in err


def test_main_file_failing_jacobi_still_exits_1(tmp_path, capsys):
    path = tmp_path / "five.json"
    # [e0, e1] = e0, [e0, e2] = e1: Jacobi defect e1 on the only triple
    data = {"dim": 3, "brackets": [{"left": 0, "right": 1, "value": {"0": "1"}},
                                   {"left": 0, "right": 2, "value": {"1": "1"}}]}
    path.write_text(json.dumps(data))
    assert main(["--algebra", "@" + str(path), "--analyze", "flags"]) == 1
    assert "Jacobi identity fails on basis triple (0, 1, 2)" in capsys.readouterr().err


def test_parse_algebra_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(SpecParseError, match="invalid JSON"):
        parse_algebra("@" + str(path))


@pytest.mark.parametrize("digits", ["9" * 5000, "\u00b2"], ids=["5000-digits", "superscript-two"])
def test_parse_algebra_unreadable_integer(capsys, digits):
    # 5 000 digits exceed the 4 300-digit limit of int() on Python >= 3.11;
    # a superscript two passes str.isdigit but not int()
    if len(digits) > 1 and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    spec = "sl:" + digits
    with pytest.raises(SpecParseError, match="cannot read this integer") as exc:
        parse_algebra(spec)
    assert exc.value.position == 3
    assert main(["--algebra", spec, "--analyze", "flags"]) == 2
    assert "cannot read this integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# size limit: dimensions are estimated before anything is allocated
# ---------------------------------------------------------------------------

def test_size_estimates_match_built_dimensions():
    from liestruct import classical, truncated_poly
    from liestruct.cli import _CLASSICAL_DIM, _jet_dim

    for kind, sizes in (("sl", (2, 3, 4)), ("gl", (1, 2, 3)), ("so", (2, 3, 5)),
                        ("sp", (2, 4)), ("su", (2, 3)), ("u", (1, 2, 3))):
        for n in sizes:
            assert _CLASSICAL_DIM[kind](n) == classical(kind, n).dim
    for m in (1, 2, 3):
        for order in (1, 2, 3, 4, 5):
            assert _jet_dim(m, order, 64) == truncated_poly(m, order).dim
    assert _jet_dim(10, 10, 10**5) == 92378
    assert _jet_dim(10, 10, 92377) is None
    assert _jet_dim(10**6, 10**6, 64) is None  # stops early instead of computing C(2e6 - 1, 1e6)


@pytest.mark.parametrize(
    "spec, what, dim",
    [
        ("cur:sl:2,jet:10,10", "jet:10,10", ""),
        ("sl:9", "sl:9", "80, "),
        ("u:100000000", "u:100000000", "10000000000000000, "),
        ("cur:sl:3,points:9", "the current algebra", "72, "),
        ("sum:sl:2+cur:sl:3,points:9", "the current algebra", "72, "),
        ("sum:sl:2+cur:sl:2,jet:3,4+sl:2", "the direct sum", "66, "),
        ("sum:cur:sl:2,jet:3,4+sl:3", "the direct sum", "68, "),
        ("cur:sl:2,jet:1000000,1000000", "jet:1000000,1000000", ""),
        ("cur:sl:2,points:65", "points:65", "65, "),
    ],
)
def test_oversize_description_is_refused(spec, what, dim):
    with pytest.raises(SpecParseError) as exc:
        parse_algebra(spec)
    assert "%s would have dimension %sabove the limit 64" % (what, dim) in str(exc.value)


def test_max_dim_overrides_the_limit(tmp_path, heisenberg3):
    assert parse_algebra("cur:sl:2,points:3", max_dim=9).dim == 9
    with pytest.raises(SpecParseError, match="dimension 9, above the limit 8"):
        parse_algebra("cur:sl:2,points:3", max_dim=8)
    with pytest.raises(SpecParseError, match="jet:3,5 would have dimension above the limit 10"):
        parse_coefficient_algebra("jet:3,5", max_dim=10)
    assert parse_coefficient_algebra("jet:3,5", max_dim=35).dim == 35
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(to_dict(heisenberg3)))
    assert parse_algebra("@" + str(path), max_dim=3) == heisenberg3
    with pytest.raises(SpecParseError, match="would have dimension 3, above the limit 2"):
        parse_algebra("@" + str(path), max_dim=2)


@pytest.mark.parametrize("dim", [65, 10**6])
def test_oversize_file_is_refused_before_it_is_built(tmp_path, capsys, dim):
    import time

    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": dim, "brackets": []}))
    message = "the algebra in %s would have dimension %d, above the limit 64" % (path, dim)
    with pytest.raises(SpecParseError, match=re.escape(message)):
        parse_algebra("@" + str(path))
    started = time.perf_counter()
    assert main(["--algebra", "@" + str(path), "--analyze", "flags"]) == 2
    assert time.perf_counter() - started < 0.5
    assert message in capsys.readouterr().err
    if dim == 65:
        assert parse_algebra("@" + str(path), max_dim=65).dim == 65


def test_main_oversize_exits_2_quickly(capsys):
    import time

    started = time.perf_counter()
    code = main(["--algebra", "cur:sl:2,jet:10,10", "--analyze", "flags"])
    assert code == 2
    assert time.perf_counter() - started < 0.5
    assert "jet:10,10 would have dimension above the limit 64" in capsys.readouterr().err
    assert main(["--max-dim", "9", "--algebra", "cur:sl:2,points:3", "--analyze", "cent"]) == 0
    assert main(["--max-dim", "8", "--algebra", "cur:sl:2,points:3"]) == 2
    assert main(["sections", "--check", "centroid", "--k", "sl:2", "--A", "jet:3,5",
                 "--max-dim", "10"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sections", "--check", "xder", "--k", "sl:2", "--m", "100000"],
         "sections:xder would have dimension 300003, above the limit 64"),
        (["sections", "--check", "symbol", "--k", "sl:3", "--m", "7", "--max-dim", "63"],
         "sections:symbol would have dimension 64, above the limit 63"),
        (["--algebra", "sl:2", "--analyze", "flags,sections:xder", "--m", "21"],
         "sections:xder would have dimension 66, above the limit 64"),
        (["sections", "--check", "xder", "--k", "sl:2", "--m", "-1"],
         "--m must be >= 0, got -1"),
        (["sections", "--check", "centroid", "--k", "sl:3", "--A", "points:9"],
         "sections:centroid would have dimension 72, above the limit 64"),
        (["sections", "--check", "jetauto", "--k", "sl:3", "--A", "jet:1,9"],
         "sections:jetauto would have dimension 72, above the limit 64"),
    ],
)
def test_oversize_section_model_exits_2_before_it_is_built(capsys, argv, message):
    import time

    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 0.5
    assert message in capsys.readouterr().err


def test_section_model_within_the_limit_runs():
    report = run("sl:2", ["sections:xder", "sections:multinom"], m=3, max_dim=12)
    assert [a["ok"] for a in report["analyses"]] == [True, True]
    # multinom builds no algebra, so a large --A does not matter to it
    report = run("sl:2", ["sections:multinom"], coeff_spec="points:40")
    assert report["analyses"][0]["ok"]


# ---------------------------------------------------------------------------
# run(): the report structure
# ---------------------------------------------------------------------------

def test_run_report_schema():
    rep = run("sl:2", ["flags", "der", "cent"])
    assert rep["schema"] == 1
    assert rep["tool"] == "liestruct"
    assert rep["version"] == __version__
    assert rep["request"] == {"algebra": "sl:2", "analyses": ["flags", "der", "cent"]}
    assert rep["algebra"]["dim"] == 3
    assert rep["algebra"]["flags"]["semisimple"]
    rebuilt = from_dict(rep["algebra"]["definition"])
    assert rebuilt.dim == 3
    assert isinstance(rep["timing_seconds"], float)
    # analyses come back as an ordered list, one entry per request
    assert [a["name"] for a in rep["analyses"]] == ["flags", "der", "cent"]
    assert all(a["ok"] for a in rep["analyses"])


def test_run_analysis_values():
    rep = run("sl:2", ["der", "cent", "jspace", "split", "casimir"])
    by_name = {a["name"]: a for a in rep["analyses"]}
    assert by_name["der"]["dim"] == 3 and by_name["der"]["inner_dim"] == 3
    assert by_name["der"]["outer_dim"] == 0
    assert by_name["cent"]["dim"] == 1
    assert by_name["jspace"]["dim"] == 0
    assert by_name["split"] == {"name": "split", "ok": True, "n_dim": 0, "s_dim": 1}
    assert by_name["casimir"]["is_identity"] and by_name["casimir"]["in_centroid"]


def test_run_cent_of_two_dim_example():
    rep = run("ex:2dim", ["cent", "der"])
    by_name = {a["name"]: a for a in rep["analyses"]}
    assert by_name["cent"]["dim"] == 1
    # every derivation is inner: dim ad(g) = dim g - dim z(g) = 2
    assert by_name["der"]["dim"] == 2 and by_name["der"]["inner_dim"] == 2


def test_run_decompose_sum():
    rep = run("sum:sl:2+sl:2", ["decompose"])
    entry = rep["analyses"][0]
    assert entry["ok"]
    assert sorted(entry["ideal_dims"]) == [3, 3]
    assert entry["status"] == "split"
    assert entry["blocks"] == [[1, 0], [0, 1]]


def test_run_complex_analysis():
    rep = run("sl:2", ["complex"])
    assert rep["analyses"][0] == {"name": "complex", "ok": True, "found": False}


def test_run_failed_analysis_is_reported_not_raised():
    # the Casimir construction needs a nondegenerate Killing form
    rep = run("ex:2dim", ["casimir"])
    entry = rep["analyses"][0]
    assert entry["ok"] is False
    assert "degenerate" in entry["error"]


def test_run_rejects_unknown_analysis():
    with pytest.raises(SpecParseError, match="unknown analysis"):
        run("sl:2", ["eigenvalues"])


def test_run_is_deterministic():
    a = run("cur:sl:2,jet:1,2", ["flags", "der", "cent", "decompose"])
    b = run("cur:sl:2,jet:1,2", ["flags", "der", "cent", "decompose"])
    a.pop("timing_seconds")
    b.pop("timing_seconds")
    assert a == b


# ---------------------------------------------------------------------------
# main(): exit codes and output
# ---------------------------------------------------------------------------

def test_main_success_json(capsys):
    code = main(["--algebra", "sl:2", "--analyze", "der,cent"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert [a["name"] for a in rep["analyses"]] == ["der", "cent"]
    assert rep["analyses"][1]["dim"] == 1


def test_main_no_analyses_still_reports(capsys):
    code = main(["--algebra", "so:3"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["analyses"] == []
    assert rep["algebra"]["dim"] == 3


def test_main_jacobi_failure_exit_1(capsys):
    code = main(["--algebra", "ex:5dim", "--analyze", "flags"])
    assert code == 1
    err = capsys.readouterr().err
    assert "(0, 1, 2)" in err  # names the offending basis triple


def test_main_unknown_builder_exit_2(capsys):
    code = main(["--algebra", "e8:8", "--analyze", "flags"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_unknown_analysis_exit_2(capsys):
    code = main(["--algebra", "sl:2", "--analyze", "eigenvalues"])
    assert code == 2
    assert "unknown analysis" in capsys.readouterr().err


def test_main_missing_algebra_exit_2(capsys):
    code = main([])
    assert code == 2
    assert "--algebra is required" in capsys.readouterr().err


def test_main_failed_analysis_exit_1(capsys):
    code = main(["--algebra", "ex:2dim", "--analyze", "casimir"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["analyses"][0]["ok"] is False


def test_main_text_format(capsys):
    code = main(["--algebra", "sl:2", "--analyze", "der,cent", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("algebra: sl:2 (dim 3)")
    assert "semisimple" in out
    assert "der" in out and "ok" in out


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--algebra", "sl:2", "--analyze", "cent", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text())
    assert rep["analyses"][0]["dim"] == 1


def test_main_file_roundtrip(tmp_path, capsys, heisenberg3):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(to_dict(heisenberg3)))
    code = main(["--algebra", "@" + str(path), "--analyze", "flags,der"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["algebra"]["flags"]["nilpotent"]
    by_name = {a["name"]: a for a in rep["analyses"]}
    assert by_name["der"]["dim"] == 6


def test_main_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0
    assert "liestruct" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sections: both spellings
# ---------------------------------------------------------------------------

def test_sections_subcommand_xder(capsys):
    code = main(["sections", "--check", "xder", "--k", "sl:2", "--m", "2"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    entry = rep["analyses"][0]
    assert entry["name"] == "sections:xder"
    assert entry["dim"] == entry["expected"] == 5


def test_sections_subcommand_centroid(capsys):
    code = main(
        ["sections", "--check", "centroid", "--k", "sl:2", "--A", "jet:1,3"]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["analyses"][0]["full_dim"] == 3


def test_sections_subcommand_multinom(capsys):
    code = main(["sections", "--check", "multinom", "--k", "sl:2"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    entry = rep["analyses"][0]
    assert entry["ok"] and entry["cases"] == 83


def test_sections_subcommand_jetauto(capsys):
    code = main(["sections", "--check", "jetauto", "--k", "sl:2", "--A", "jet:1,3"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    entry = rep["analyses"][0]
    assert entry["automorphism"] and entry["mu_minus_identity_nilpotent"]


def test_sections_subcommand_missing_coefficient(capsys):
    code = main(["sections", "--check", "center", "--k", "sl:2"])
    assert code == 2
    assert "needs --A" in capsys.readouterr().err


def test_sections_subcommand_jacobi_exit_1(capsys):
    code = main(["sections", "--check", "spart", "--k", "ex:5dim", "--A", "points:2"])
    assert code == 1


def test_sections_flag_spelling_matches_subcommand(capsys):
    code = main(
        ["--algebra", "sl:2", "--analyze", "sections:derdecomp", "--A", "jet:1,2"]
    )
    assert code == 0
    flag_rep = json.loads(capsys.readouterr().out)
    code = main(["sections", "--check", "derdecomp", "--k", "sl:2", "--A", "jet:1,2"])
    assert code == 0
    sub_rep = json.loads(capsys.readouterr().out)
    assert flag_rep["analyses"] == sub_rep["analyses"]


@pytest.mark.parametrize(
    "check, k, coeff",
    [
        ("center", "ex:2dim", "points:2"),
        ("commutator", "sl:2", "jet:1,2"),
        ("indec", "sl:2", "points:3"),
        ("spart", "sl:2", "points:3"),
        ("symbol", "sl:2", None),
    ],
)
def test_sections_subcommand_checks_pass(capsys, check, k, coeff):
    argv = ["sections", "--check", check, "--k", k]
    if coeff:
        argv += ["--A", coeff]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["analyses"][0]["ok"]
