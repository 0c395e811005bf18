import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinetorsion import moves
from spinetorsion.errors import (MoveError, NonOrientable, SpineError,
                                 SpineSyntaxError, Stuck)
from spinetorsion.moves import random_walk
from spinetorsion.spinefile import (parse, parse_move_log, replay_move_log,
                                    serialize, serialize_move_log)

from fixtures import GOLDEN, ONE_TET, TORSION2, TWO_VARIANT


def test_fixture_files_validate():
    for text in (ONE_TET, TWO_VARIANT, GOLDEN, TORSION2):
        spine = parse(text)
        assert spine.spine_edge_count == 2 * spine.spine_vertex_count


def test_round_trip_byte_exact():
    for text in (ONE_TET, TWO_VARIANT, GOLDEN, TORSION2):
        assert serialize(parse(text)) == text


def test_round_trip_through_census(corpus12):
    for s in corpus12[:20]:
        text = serialize(s)
        again = parse(text)
        assert again.is_isomorphic(s)
        assert serialize(again) == text


def test_comments_and_blank_lines_ignored():
    text = ONE_TET.replace("tets 1", "tets 1   # one tetrahedron\n")
    spine = parse(text)
    assert spine.tet_count == 1


def test_malformed_permutation_token_names_line():
    text = ONE_TET.replace("glue 0.2 -> 0.3 : 012", "glue 0.2 -> 0.3 : 015")
    with pytest.raises(SpineSyntaxError) as err:
        parse(text)
    assert err.value.line == 4
    assert "permutation" in str(err.value)


@pytest.mark.parametrize("old,new,line", [
    ("orient 0 +", "orient . +", 8),
    ("tets 1", "tets \u00b2", 2),  # a digit that int() rejects
], ids=["orient", "tets"])
def test_non_numeric_field_names_line(old, new, line):
    with pytest.raises(SpineSyntaxError) as err:
        parse(ONE_TET.replace(old, new))
    assert err.value.line == line


@pytest.mark.parametrize("move", ["+ face x variant 0", "+ face 0 variant y",
                                  "- edge x"])
def test_non_numeric_move_log_site_names_line(move):
    with pytest.raises(SpineSyntaxError) as err:
        parse_move_log("movelog 1\n%s\n" % move)
    assert err.value.line == 2


# Past CPython's 4,300-digit limit on int-string conversion, where int()
# raises ValueError.
_HUGE = "9" * 5000


@pytest.mark.parametrize("old,new,line", [
    ("spine 1", "spine " + _HUGE, 1),
    ("tets 1", "tets " + _HUGE, 2),
    ("orient 0 +", "orient %s +" % _HUGE, 8),
], ids=["spine", "tets", "orient"])
def test_oversize_number_names_line(old, new, line):
    with pytest.raises(SpineSyntaxError) as err:
        parse(ONE_TET.replace(old, new))
    assert err.value.line == line


@pytest.mark.parametrize("move", ["+ face %s variant 0" % _HUGE,
                                  "+ face 0 variant %s" % _HUGE,
                                  "- edge %s" % _HUGE],
                         ids=["face", "variant", "edge"])
def test_oversize_move_log_site_names_line(move):
    with pytest.raises(SpineSyntaxError) as err:
        parse_move_log("movelog 1\n%s\n" % move)
    assert err.value.line == 2


@pytest.mark.parametrize("text,line,message", [
    ("movelog 7\n- edge 0\n", 1, "unsupported format version 7"),
    ("movelog\n- edge 0\n", 1, "expected 'movelog <version>'"),
    ("movelog 1 junk\n- edge 0\n", 1, "expected 'movelog <version>'"),
    ("movelog x\n- edge 0\n", 1, "expected 'movelog <version>'"),
    ("movelog 1\n- edge 0\nmovelog 1\n", 3, "repeated 'movelog' line"),
    ("# walk\nmovelog 1\nmovelog 1\n", 3, "repeated 'movelog' line"),
], ids=["version", "bare", "junk", "word", "repeated", "repeated-header"])
def test_move_log_header_is_checked(text, line, message):
    # The header is 'movelog <FORMAT_VERSION>', at most once, as the
    # spine file's 'spine <version>' is.
    with pytest.raises(SpineSyntaxError, match=message) as err:
        parse_move_log(text)
    assert err.value.line == line


def test_move_log_header_is_optional_and_serialised_logs_parse(census2):
    assert parse_move_log("- edge 0\n+ face 1 variant 2\n") == \
        [("negative", 0, 0), ("positive", 1, 2)]
    assert parse_move_log(serialize_move_log([])) == []
    for i, s in enumerate(census2[:12]):
        try:
            walk = random_walk(s, 3, seed=i)
        except Stuck:
            continue
        log = serialize_move_log(walk)
        assert log.startswith("movelog 1\n")
        assert parse_move_log(log) == [
            (m.direction, m.site,
             m.variant if m.direction == "positive" else 0) for m in walk]


def test_missing_header_rejected():
    with pytest.raises(SpineSyntaxError):
        parse(ONE_TET.replace("spine 1\n", ""))


def test_bad_edge_reference_rejected():
    # An edge of another class, and an edge of a tetrahedron out of range.
    for edge in ("0.23", "7.01"):
        text = ONE_TET.replace("edge 0 : 0.01", "edge 0 : " + edge)
        with pytest.raises(SpineSyntaxError) as err:
            parse(text)
        assert err.value.line == 5


def test_missing_edge_direction_rejected():
    text = ONE_TET.replace("edge 2 : 0.23\n", "")
    with pytest.raises(SpineSyntaxError):
        parse(text)


def test_orient_lines_optional_but_validated():
    text = "".join(line + "\n" for line in ONE_TET.splitlines()
                   if not line.startswith("orient"))
    spine = parse(text)
    assert spine.orientations[0] == 1
    bad = TWO_VARIANT.replace("orient 1 +", "orient 1 -")
    with pytest.raises(NonOrientable):
        parse(bad)


@pytest.mark.parametrize("extra,message", [
    ("orient 5 -", "tetrahedron 5"),
    ("orient 0 -", "repeated"),
], ids=["out-of-range", "repeated"])
def test_bad_orient_line_names_line(extra, message):
    with pytest.raises(SpineSyntaxError) as err:
        parse(ONE_TET + extra + "\n")
    assert err.value.line == 9
    assert message in str(err.value)


def _insert_after(text, line, extra):
    """``text`` with the line ``extra`` inserted after its line ``line``
    (0: at the top)."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:line] + [extra + "\n"] + lines[line:])


@pytest.mark.parametrize("text,line,message", [
    (_insert_after(TWO_VARIANT, 8, "edge 1 : 0.30"), 9,
     "repeated edge line for class 1"),
    (_insert_after(ONE_TET, 2, "glue 0.0 -> 0.1 : 032"), 4,
     "face 0.0 already glued on line 3"),
    (_insert_after(ONE_TET, 2, "glue 0.2 -> 0.1 : 023"), 4,
     "face 0.1 already glued on line 3"),
    (_insert_after(ONE_TET, 4, "glue 0.3 -> 0.1 : 023"), 5,
     "face 0.3 already glued on line 4"),
    (ONE_TET + "tets 1\n", 9, "repeated 'tets' line"),
    (ONE_TET + "spine 1\n", 9, "repeated 'spine' line"),
], ids=["edge", "glue-left", "glue-right", "glue-other-side", "tets", "spine"])
def test_repeated_declaration_names_line(text, line, message):
    with pytest.raises(SpineSyntaxError) as err:
        parse(text)
    assert err.value.line == line
    assert message in str(err.value)


def test_replay_variant_out_of_range_is_move_error():
    s = parse(TWO_VARIANT)
    assert len(moves.apply_positive(s, 0)) == 2
    with pytest.raises(MoveError, match="variant 7 out of range"):
        replay_move_log(s, parse_move_log("movelog 1\n+ face 0 variant 7\n"))


def test_replay_face_without_branched_move_is_move_error(monkeypatch):
    # No census spine up to three tetrahedra has such a face; an empty
    # variant list stands in for one.
    monkeypatch.setattr(moves, "_variants", lambda spine, site: [])
    with pytest.raises(MoveError, match="variant 0 out of range"):
        replay_move_log(parse(TWO_VARIANT),
                        parse_move_log("movelog 1\n+ face 0 variant 0\n"))


def test_move_log_round_trip_and_replay():
    s = parse(TWO_VARIANT)
    walk = random_walk(s, 5, seed=21, max_tets=6)
    log = serialize_move_log(walk)
    steps = parse_move_log(log)
    assert steps == [(m.direction, m.site, m.variant) for m in walk]
    replayed = replay_move_log(s, steps)
    assert replayed[-1].after.is_isomorphic(walk[-1].after)
    assert serialize(replayed[-1].after) == serialize(walk[-1].after)


@pytest.mark.parametrize("glue", ["glue 0.5 -> 0.3 : 012",
                                  "glue 0.2 -> 0.7 : 012",
                                  "glue 0.-1 -> 0.3 : 012"],
                         ids=["left", "right", "negative"])
def test_glue_face_index_out_of_range_names_line(glue):
    with pytest.raises(SpineSyntaxError) as err:
        parse(ONE_TET.replace("glue 0.2 -> 0.3 : 012", glue))
    assert err.value.line == 4
    assert "face index" in str(err.value)


@pytest.mark.parametrize("line, template, digit", [
    (2, "tets {}", "1"),
    (3, "glue {}.0 -> 0.1 : 023", "0"),
    (3, "glue 0.{} -> 0.1 : 023", "0"),
    (3, "glue 0.0 -> {}.1 : 023", "0"),
    (3, "glue 0.0 -> 0.{} : 023", "1"),
    (3, "glue 0.0 -> 0.1 : {}23", "0"),
    (6, "edge {} : 0.02", "1"),
    (6, "edge 1 : {}.02", "0"),
    (6, "edge 1 : 0.{}2", "0"),
    (8, "orient {} +", "0"),
], ids=["tets", "glue-tet", "glue-face", "glue-tet2", "glue-face2", "glue-word",
        "edge-class", "edge-tet", "edge-corner", "orient"])
@pytest.mark.parametrize("spell", [lambda d: "+" + d, lambda d: "0_" + d,
                                   lambda d: chr(0xFF10 + int(d))],
                         ids=["plus", "underscore", "fullwidth"])
def test_numbers_outside_the_grammar_name_line(line, template, digit, spell):
    # int() reads all three spellings as the digit; the grammar reads none.
    lines = ONE_TET.splitlines(keepends=True)
    assert lines[line - 1] == template.format(digit) + "\n"
    lines[line - 1] = template.format(spell(digit)) + "\n"
    with pytest.raises(SpineSyntaxError) as err:
        parse("".join(lines))
    assert err.value.line == line


_FIXTURE_TEXTS = (ONE_TET, TWO_VARIANT, GOLDEN, TORSION2)
_BAD_TOKENS = ("-1", "4", "9", "99", "4294967296", "x", ".", "->", ":", "",
               "0.9", "1.-1", "01234", "²", "+-", _HUGE)


@st.composite
def mutated_fixture(draw):
    """A fixture text with one to three random mutations: a substituted
    character, a deleted or duplicated line, or a token replaced by an
    out-of-range or non-numeric value."""
    lines = draw(st.sampled_from(_FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("char", "delete", "duplicate", "token")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "char" and lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            ch = draw(st.characters(codec="utf-8", exclude_characters="\n\r"))
            lines[i] = lines[i][:j] + ch + lines[i][j + 1:]
        elif kind == "token":
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(_BAD_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_fixture())
def test_parse_mutations_raise_only_spine_errors(text):
    try:
        parse(text)
    except SpineError:
        pass
