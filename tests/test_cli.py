import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinetorsion.cli import (MAX_CENSUS_TETS, MAX_CYCLIC_ORDER, _parse_rep_spec,
                             main)
from spinetorsion.complexes import (CellComplexX, GroupData, Representation,
                                    SpiderAnchors, TwistedComplex)
from spinetorsion.spinefile import parse
from spinetorsion.torsion import sign_refined_torsion, torsion

from fixtures import GOLDEN, ONE_TET, TORSION2, TWO_VARIANT
from oracles import sign_refined_under
from test_io import mutated_fixture


def run_cli(argv, capsys):
    """Exit status and report of one in-process run, which prints exactly
    one JSON object and nothing on stderr (no traceback)."""
    status = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return status, json.loads(captured.out)


@pytest.fixture
def golden_file(tmp_path):
    p = tmp_path / "golden.txt"
    p.write_text(GOLDEN)
    return str(p)


@pytest.fixture
def two_variant_file(tmp_path):
    p = tmp_path / "twovar.txt"
    p.write_text(TWO_VARIANT)
    return str(p)


def test_validate_ok(golden_file, capsys):
    status, report = run_cli(["validate", golden_file], capsys)
    assert status == 0
    assert report["ok"]
    assert report["summary"]["tetrahedra"] == 2
    assert report["summary"]["boundary_components"] == [{"chi": 0, "genus": 1}]


def test_validate_syntax_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(ONE_TET.replace("glue 0.2 -> 0.3 : 012",
                                 "glue 0.2 -> 0.3 : 0zz"))
    status, report = run_cli(["validate", str(p)], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert "line 4" in report["message"]


def test_validate_oversize_tet_count_exit_1(tmp_path, capsys):
    # 5,000 digits: int() refuses the string past 4,300.
    p = tmp_path / "bad.txt"
    p.write_text(ONE_TET.replace("tets 1", "tets " + "1" * 5000))
    status, report = run_cli(["validate", str(p)], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert "line 2" in report["message"]


def test_glue_face_out_of_range_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(ONE_TET.replace("glue 0.2 -> 0.3 : 012",
                                 "glue 0.5 -> 0.3 : 012"))
    status, report = run_cli(["validate", str(p)], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert "line 4" in report["message"]


def test_repeated_edge_line_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text(TWO_VARIANT.replace("edge 1 : 0.03\n",
                                     "edge 1 : 0.03\nedge 1 : 0.30\n"))
    status, report = run_cli(["validate", str(p)], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert "line 9" in report["message"]


def test_missing_input_file_exit_1(tmp_path, capsys):
    status, report = run_cli(["validate", str(tmp_path / "absent.txt")], capsys)
    assert status == 1
    assert report["error"] == "FileNotFoundError"


@pytest.mark.parametrize("argv", [
    ["move", "--face", "99"], ["move", "--edge", "99"],
    ["hcheck", "--face", "-1"], ["move", "--face", "-1"],
    ["hcheck", "--face", str(10 ** 30)], ["move", "--edge", str(10 ** 30)]])
def test_move_site_out_of_range_exit_2(two_variant_file, argv, capsys):
    status, report = run_cli(argv[:1] + [two_variant_file] + argv[1:], capsys)
    assert status == 2
    assert report["error"] == "NotApplicable"
    assert "out of range" in report["message"]


@pytest.mark.parametrize("argv", [
    ["walk", "FILE", "--steps", "-3", "--seed", "1"],
    ["invariance", "FILE", "--steps", "-3", "--seed", "1", "--rep", "trivial"],
    ["census", "--tets", "0"], ["census", "--tets", "-2"],
    ["walk", "FILE", "--steps", "3", "--seed", "1", "--max-tets", "0"],
    ["walk", "FILE", "--steps", "3", "--seed", "1", "--max-tets", "-3"],
    ["invariance", "FILE", "--steps", "3", "--seed", "1", "--rep", "trivial",
     "--max-tets", "0"],
    ["invariance", "FILE", "--steps", "3", "--seed", "1", "--rep", "trivial",
     "--max-tets", "-3"],
    ["walk", "FILE", "--steps", "-1", "--seed", "1"],
    ["invariance", "FILE", "--steps", "-1", "--seed", "1", "--rep", "trivial"]])
def test_counts_below_minimum_exit_1(two_variant_file, argv, capsys):
    argv = [two_variant_file if a == "FILE" else a for a in argv]
    status, report = run_cli(argv, capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert "must be at least" in report["message"]


@pytest.mark.parametrize("argv, status, error", [
    (["walk", "TWOVAR", "--steps", "2", "--seed", str(2 ** 70)], 0, None),
    (["walk", "TWOVAR", "--steps", "2", "--seed", "-5"], 0, None),
    (["torsion", "TORSION2", "--rep", "cyclic:5:9"], 2, "RelatorNotKilled"),
    (["validate", "DIR"], 1, "IsADirectoryError"),
    (["summary", "DIR/absent.txt"], 1, "FileNotFoundError"),
    (["walk", "TWOVAR", "--steps", "1", "--seed", "1", "--out", "DIR"],
     1, "IsADirectoryError"),
    (["walk", "TWOVAR", "--steps", "1", "--seed", "1", "--out", "DIR/absent/x"],
     1, "FileNotFoundError"),
    (["census", "--tets", "1", "--out-dir", "TWOVAR"], 1, "FileExistsError"),
    (["move", "TWOVAR", "--face", "0", "--edge", "0"], 1, "SpineSyntaxError"),
    (["move", "TWOVAR"], 1, "SpineSyntaxError"),
    (["branchings", "\x00"], 1, "SpineSyntaxError")])
def test_argv_edge_cases_report_once(tmp_path, argv, status, error, capsys):
    # Out-of-range seeds wrap, and each failure is one JSON error report.
    files = {"TWOVAR": TWO_VARIANT, "TORSION2": TORSION2}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a.replace("DIR", str(tmp_path))
            for a in argv]
    got, report = run_cli(argv, capsys)
    assert (got, report.get("error")) == (status, error)


def test_branchings(two_variant_file, capsys):
    status, report = run_cli(["branchings", two_variant_file], capsys)
    assert status == 0
    assert report["count"] >= 1
    assert all(len(b) == 5 for b in report["branchings"])


def test_summary_and_determinism(golden_file, capsys):
    status1, report1 = run_cli(["summary", golden_file], capsys)
    status2, report2 = run_cli(["summary", golden_file], capsys)
    assert status1 == status2 == 0
    assert report1 == report2
    assert report1["rigid"] is False


def test_move_and_out_file(two_variant_file, tmp_path, capsys):
    out = tmp_path / "after.txt"
    status, report = run_cli(["move", two_variant_file, "--face", "0",
                              "--variant", "1", "--out", str(out)], capsys)
    assert status == 0
    assert report["move"]["after_tetrahedra"] == 3
    assert out.read_text() == report["move"]["after_spine"]


def test_move_requires_exactly_one_site(two_variant_file, capsys):
    status, report = run_cli(["move", two_variant_file], capsys)
    assert status == 1


def test_hcheck_golden_table(golden_file, capsys):
    status, report = run_cli(["hcheck", golden_file, "--face", "0",
                              "--variant", "0"], capsys)
    assert status == 0
    table = report["table"]
    assert len(table["rows"]) == 21
    assert table["is_null"]
    assert table["total"] == "0"
    assert table["rows"][0] == {"simplex": "v", "sign": 1, "end0": "d",
                                "end1": "c", "boundary": "d-c"}


def test_torsion_errors_exit_2(golden_file, capsys):
    status, report = run_cli(["torsion", golden_file, "--rep", "trivial"],
                             capsys)
    assert status == 2
    assert report["error"] == "NotAcyclicNoBasis"


@pytest.mark.parametrize("spec", ["cyclic:0", "cyclic:5:a"])
@pytest.mark.parametrize("command", [
    ["torsion"], ["invariance", "--steps", "3", "--seed", "1", "--max-tets", "2"]])
def test_bad_rep_spec_exit_1(golden_file, command, spec, capsys):
    status, report = run_cli(command + [golden_file, "--rep", spec], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert spec in report["message"]


@pytest.mark.parametrize("spec", [
    "cyclic:99999999999999999999", "cyclic:\u00b2", "cyclic:5:",
    "cyclic:%d" % (MAX_CYCLIC_ORDER + 1)])
def test_rep_spec_outside_contract_exit_1(golden_file, spec, capsys):
    status, report = run_cli(["torsion", golden_file, "--rep", spec], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert spec in report["message"]


@pytest.mark.parametrize("spec", [
    "cyclic:５", "cyclic:+5", "cyclic:5_0", "cyclic: 5", "cyclic:5:1_0",
    "cyclic:5:+1", "cyclic:5: 1", "cyclic:5:1,٣", "cyclic:5:--1",
    "cyclic:5:-", "cyclic:5:" + "1" * 5000])
def test_rep_spec_numbers_outside_the_grammar_exit_1(golden_file, spec, capsys):
    # Orders are ASCII digits, character entries ASCII digits after an
    # optional "-"; int() alone would take signs, underscores, spaces and
    # other scripts' digits.
    status, report = run_cli(["torsion", golden_file, "--rep", spec], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert spec in report["message"]


def test_rep_spec_reads_signed_ascii_characters():
    assert _parse_rep_spec("cyclic:05:-1,0,12") == ("cyclic", 5, [-1, 0, 12])


@pytest.mark.parametrize("argv,command,words", [
    (["torsion"], "torsion", "required"),
    (["bogus"], None, "invalid choice"),
    (["invariance", "FILE", "--steps", "x"], "invariance", "invalid int"),
    (["summary", "FILE", "--nope"], "summary", "unrecognized arguments: --nope")])
def test_usage_errors_are_json_exit_1(golden_file, argv, command, words, capsys):
    argv = [golden_file if a == "FILE" else a for a in argv]
    status = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert status == 1 and captured.err == ""
    assert set(report) == {"command", "error", "message"}
    assert (report["command"], report["error"]) == (command, "UsageError")
    assert words in report["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spinetorsion torsion")


def test_cyclic_order_bound():
    assert _parse_rep_spec("cyclic:%d" % MAX_CYCLIC_ORDER)[1] == MAX_CYCLIC_ORDER


def test_non_utf8_spine_file_exit_1(tmp_path, capsys):
    p = tmp_path / "latin1.txt"
    p.write_bytes(GOLDEN.encode() + b"# caf\xe9\n")
    status, report = run_cli(["validate", str(p)], capsys)
    assert status == 1
    assert report["error"] == "SpineSyntaxError"
    assert "UTF-8" in report["message"]


def test_torsion_with_auto_basis(golden_file, capsys):
    status, report = run_cli(["torsion", golden_file, "--rep", "free-abelian",
                              "--homology-basis", "auto"], capsys)
    assert status == 0
    assert report["value"]
    status, refined = run_cli(["torsion", golden_file, "--rep", "cyclic:5",
                               "--homology-basis", "auto", "--sign-refined"],
                              capsys)
    assert status == 0
    assert refined["sign_refined"]


def test_zero_step_walk_keeps_torsion(two_variant_file, tmp_path, capsys):
    out = tmp_path / "same.txt"
    status, report = run_cli(["walk", two_variant_file, "--steps", "0",
                              "--seed", "5", "--out", str(out)], capsys)
    assert status == 0
    assert report["steps"] == 0
    _s1, before = run_cli(["torsion", two_variant_file, "--rep",
                           "free-abelian", "--homology-basis", "auto"], capsys)
    _s2, after = run_cli(["torsion", str(out), "--rep", "free-abelian",
                          "--homology-basis", "auto"], capsys)
    assert before["value"] == after["value"]


def test_walk_replayable(two_variant_file, capsys):
    status1, r1 = run_cli(["walk", two_variant_file, "--steps", "3",
                           "--seed", "11", "--max-tets", "6"], capsys)
    status2, r2 = run_cli(["walk", two_variant_file, "--steps", "3",
                           "--seed", "11", "--max-tets", "6"], capsys)
    assert status1 == status2 == 0
    assert r1 == r2
    assert r1["move_log"].count("\n") == 4  # header + 3 moves


def test_census_command(capsys):
    status, report = run_cli(["census", "--tets", "1"], capsys)
    assert status == 0
    assert report["count"] == 4
    assert len(report["spines"]) == 4


@pytest.mark.parametrize("tets", [MAX_CENSUS_TETS + 1, 10 ** 6])
def test_census_above_ceiling_exit_1(tets, capsys):
    status, report = run_cli(["census", "--tets", str(tets)], capsys)
    assert status == 1
    assert report == {"command": "census", "error": "SpineSyntaxError",
                      "message": "--tets must be at most %d, got %d"
                                 % (MAX_CENSUS_TETS, tets)}


def test_census_out_dir_writes_the_reported_spines(tmp_path, capsys):
    out = tmp_path / "census"
    status, report = run_cli(["census", "--tets", "2", "--out-dir", str(out)],
                             capsys)
    assert status == 0
    names = ["spine_2_%03d.txt" % i for i in range(46)]
    assert sorted(p.name for p in out.iterdir()) == names
    assert [(out / n).read_text() for n in names] == report["spines"]


def test_summary_matrices_are_the_complex(golden_file, capsys):
    status, report = run_cli(["summary", golden_file, "--matrices"], capsys)
    assert status == 0
    X = CellComplexX(parse(GOLDEN))
    assert report["boundary_matrices"] == {"d1": X.d1, "d2": X.d2, "d3": X.d3}
    _status, plain = run_cli(["summary", golden_file], capsys)
    assert {k: v for k, v in report.items() if k != "boundary_matrices"} == plain


@pytest.mark.parametrize("argv", [
    ["summary", "FILE"], ["torsion", "FILE", "--rep", "cyclic:5"],
    ["census", "--tets", "1"], ["census", "--tets", "0"]])
def test_timing_adds_only_timing_ms(golden_file, argv, capsys):
    argv = [golden_file if a == "FILE" else a for a in argv]
    status, plain = run_cli(argv, capsys)
    timed_status, timed = run_cli(["--timing"] + argv, capsys)
    assert timed_status == status
    assert type(timed.pop("timing_ms")) is int
    assert timed == plain


def test_invariance_command(two_variant_file, capsys):
    status, report = run_cli(["invariance", two_variant_file, "--steps", "2",
                              "--seed", "4", "--rep", "free-abelian",
                              "--max-tets", "6"], capsys)
    assert status == 0
    assert report["all_equal"]
    assert report["first_violation"] is None
    assert len(report["steps"]) == 2
    for step in report["steps"]:
        assert step["equal_up_to_sign"]


def test_euler_command(golden_file, capsys):
    status, report = run_cli(["euler", golden_file], capsys)
    assert status == 0
    assert report["path_choice_independent"]
    assert report["dual_consistent"]
    assert all(isinstance(x, int) for x in report["cochain"])


# sha256 of the trivial-representation outputs: torsion and sign-refined
# torsion over census <= 2, then the CLI torsion and invariance reports on the
# fixture spines, as the untwisted complex printed them when pinned.
TRIVIAL_DIGEST = "9e78cd17ae64af39d55b6689836e2f9463508fe327e183c6fc26147206d0c86b"


def test_trivial_representation_outputs_are_pinned(corpus12, tmp_path, capsys):
    rnd = random.Random(16)
    lines = []
    for s in corpus12:
        X = CellComplexX(s)
        tc = TwistedComplex(s, X, SpiderAnchors(s, X),
                            Representation.trivial(GroupData(X)))
        sig = {i: rnd.sample(range(n), n) for i, n in enumerate(tc.dims)}
        lines += [torsion(tc, h="auto").to_str(),
                  torsion(tc, h="auto", keep_sign=True).to_str(),
                  sign_refined_torsion(s, tc, h="auto").to_str(),
                  tc.field.element_str(sign_refined_under(
                      tc, tc.default_lifts, X.rational_complex.default_lifts,
                      {}, sig))]
        lines += ["%d: [%s]" % (i, ", ".join(map(tc.field.element_str, v)))
                  for i, vecs in sorted(tc.default_lifts.items()) for v in vecs]
    for name, text in (("ONE_TET", ONE_TET), ("TWO_VARIANT", TWO_VARIANT),
                       ("GOLDEN", GOLDEN), ("TORSION2", TORSION2)):
        path = tmp_path / name
        path.write_text(text)
        runs = [["torsion", str(path), "--rep", "trivial",
                 "--homology-basis", "auto"] + refined
                for refined in ([], ["--sign-refined"])]
        runs += [["invariance", str(path), "--steps", "4", "--seed", str(seed),
                  "--rep", "trivial", "--max-tets", "5"] for seed in range(3)]
        for argv in runs:
            status, report = run_cli(argv, capsys)
            lines.append("%s %s %d %s" % (name, " ".join(argv[:1] + argv[2:]),
                                          status,
                                          json.dumps(report, sort_keys=True)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == TRIVIAL_DIGEST, text


# -- argv fuzz -----------------------------------------------------------------

_FILES = {"GOLDEN": GOLDEN, "ONE_TET": ONE_TET, "TORSION2": TORSION2,
          "TWO_VARIANT": TWO_VARIANT, "EMPTY": ""}
# Non-ASCII digits that int() reads, all at most 2, and superscript two,
# which it refuses.  Huge values start at 5, past the census ceiling; junk
# that int() reads is at most 1.  So no drawn value passes a size cap.
_NON_ASCII = st.sampled_from(["\u0662", "\uff11", "\u09e6", "\u07c1",
                              "\U0001d7d0", "\u00b2"])
_JUNK = st.sampled_from(["", "x", "-", "--", "1.5", "0x10", " 1", "+1", "0_1",
                         "nan", "\x00", "\u00e9", "--bogus", "1e3"])
_NEGATIVE = st.integers(-10 ** 30, -1).map(str)
_HUGE = st.sampled_from([5, 10 ** 6, 2 ** 63, 2 ** 70, 10 ** 30]).map(str)


def _mostly(good, bad):
    """A value of ``good``, or with odds 1 in 4 one of ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


def _number(low, high, huge=True):
    """An in-range count, or a negative, huge, non-ASCII or junk value;
    ``huge=False`` for a count that sets how much work is done."""
    return _mostly(st.integers(low, high).map(str),
                   st.one_of(_NEGATIVE, _NON_ASCII, _JUNK, *([_HUGE] if huge else [])))


@st.composite
def _cyclic_specs(draw):
    spec = "cyclic:" + draw(_number(1, 7))
    if draw(st.booleans()):
        spec += ":" + ",".join(draw(st.lists(_number(-3, 3), max_size=3)))
    return spec


_REP = _mostly(st.sampled_from(["trivial", "free-abelian"]) | _cyclic_specs(), _JUNK)
# "@" stands for the fuzz directory, which holds the _FILES, DIR and
# MUTATED, a mutated fixture written afresh for each example.
_FILE = st.sampled_from(["@" + name
                         for name in (*_FILES, "MUTATED", "DIR", "MISSING")])
_OUT = st.sampled_from(["@DIR", "@DIR/absent/out.txt", "@DIR/out.txt"])
_FLAGS = {
    "validate": {},
    "branchings": {},
    "summary": {"--matrices": None},
    "move": {"--face": _number(0, 8), "--variant": _number(0, 2),
             "--edge": _number(0, 8), "--out": _OUT},
    "walk": {"--steps": _number(0, 3, huge=False), "--seed": _number(0, 99),
             "--h-null-only": None, "--max-tets": _number(1, 6), "--out": _OUT},
    "hcheck": {"--face": _number(0, 8), "--variant": _number(0, 2)},
    "torsion": {"--rep": _REP, "--sign-refined": None,
                "--homology-basis": _mostly(st.just("auto"), _JUNK)},
    "euler": {},
    "census": {"--tets": _number(1, 2),
               "--out-dir": st.sampled_from(["@DIR/census", "@EMPTY", "@DIR"])},
    "invariance": {"--steps": _number(0, 3, huge=False),
                   "--seed": _number(0, 99), "--rep": _REP,
                   "--max-tets": _number(1, 5)},
}


@st.composite
def _argvs(draw):
    """Any command, each of its flags with odds 7 in 8, in any order, with
    drawn values, maybe a file operand, --timing or a stray token.  A
    stray token goes first or last, never where a flag would read it as a
    path to write."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command != "census" and draw(st.integers(0, 9)):
        argv.append(draw(_FILE))
    for flag in draw(st.permutations(sorted(_FLAGS[command]))):
        if not draw(st.integers(0, 7)):
            continue
        values = _FLAGS[command][flag]
        argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.sampled_from([1, len(argv)])), draw(_JUNK))
    if draw(st.booleans()):
        argv.insert(0, "--timing")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (root / name).write_text(text)
    (root / "DIR").mkdir()
    return root


@settings(max_examples=150, deadline=None)
@given(_argvs(), mutated_fixture())
def test_any_argv_ends_in_one_json_report(fuzz_dir, argv, mutated):
    # Every command with drawn flags, over the fixtures, a mutated fixture,
    # an empty file, a directory and a missing path: one JSON object on
    # stdout, status 0, 1 or 2, an error report naming the error, and
    # nothing on stderr.
    (fuzz_dir / "MUTATED").write_text(mutated, encoding="utf-8")
    argv = [a.replace("@", "%s/" % fuzz_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    report = json.loads(out.getvalue())
    assert type(report) is dict and err.getvalue() == ""
    assert status in (0, 1, 2)
    if status == 0 or "all_equal" in report:
        assert "error" not in report
    else:
        assert type(report["error"]) is str and type(report["message"]) is str
