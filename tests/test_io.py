import pytest

from spinetorsion import moves
from spinetorsion.errors import MoveError, NonOrientable, SpineSyntaxError
from spinetorsion.moves import random_walk
from spinetorsion.spinefile import (parse, parse_move_log, replay_move_log,
                                    serialize, serialize_move_log, validate)

from fixtures import GOLDEN, ONE_TET, TORSION2, TWO_VARIANT


def test_fixture_files_validate():
    for text in (ONE_TET, TWO_VARIANT, GOLDEN, TORSION2):
        spine = validate(text)
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


def test_missing_header_rejected():
    with pytest.raises(SpineSyntaxError):
        parse(ONE_TET.replace("spine 1\n", ""))


def test_bad_edge_reference_rejected():
    text = ONE_TET.replace("edge 0 : 0.01", "edge 0 : 0.23")
    with pytest.raises(SpineSyntaxError) as err:
        parse(text)
    assert err.value.line is not None


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


def test_replay_variant_out_of_range_is_move_error():
    s = parse(TWO_VARIANT)
    assert len(moves.apply_positive(s, 0)) == 2
    with pytest.raises(MoveError, match="variant 7 out of range"):
        replay_move_log(s, parse_move_log("movelog 1\n+ face 0 variant 7\n"))


def test_replay_face_without_branched_move_is_move_error(monkeypatch):
    # No census spine up to three tetrahedra has such a face; an empty
    # option list stands in for one.
    monkeypatch.setattr(moves, "apply_positive", lambda spine, face: [])
    with pytest.raises(MoveError, match="no branched positive move at face 0"):
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
