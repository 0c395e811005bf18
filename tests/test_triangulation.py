import tracemalloc
from itertools import permutations

import pytest

from spinetorsion.census import enumerate_triangulations
from spinetorsion.errors import (Disconnected, NonOrientable, SelfAdjacentFace,
                                 UnpairedFace, ValidationError)
from spinetorsion.moves import apply_positive, available_moves
from spinetorsion.perms import (ALL_PERMS, SIGN, compose, inverse, parity,
                                sign)
from spinetorsion.triangulation import Triangulation, glue_table

from oracles import glue_both_ways


def test_perm_helpers():
    for p in ALL_PERMS:
        assert compose(p, inverse(p)) == (0, 1, 2, 3)
    assert sign((0, 1, 2, 3)) == 1
    assert sign((1, 0, 2, 3)) == -1


def _cycle_sign(p):
    """(-1)^(n - number of cycles) of the permutation i -> p[i]."""
    seen = set()
    cycles = 0
    for start in range(len(p)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = p[i]
    return (-1) ** (len(p) - cycles)


def test_parity_counts_cycles():
    for n in range(7):
        for p in permutations(range(n)):
            assert parity(p) == _cycle_sign(p)
    assert SIGN == tuple(parity(p) for p in ALL_PERMS)
    # Any distinct comparable items: the sign of the sort.
    assert parity((7, 3, 5)) == parity((2, 0, 1)) == 1


def one_tet_gluings(p1, p2, pairing=((0, 1), (2, 3))):
    g = {}
    (fa, fb), (fc, fd) = pairing
    glue_both_ways(g, 0, fa, 0, fb, p1)
    glue_both_ways(g, 0, fc, 0, fd, p2)
    return g


def test_missing_face_rejected():
    g = {}
    glue_both_ways(g, 0, 0, 0, 1, (1, 0, 2, 3))
    with pytest.raises(UnpairedFace):
        glue_table(1, g)


def test_face_glued_to_itself_rejected():
    g = {(0, 0): (0, 0, (0, 2, 1, 3))}
    with pytest.raises(UnpairedFace):
        glue_table(1, g)


def test_identity_self_gluing_rejected():
    g = {(0, 0): (0, 0, (0, 1, 2, 3))}
    with pytest.raises(UnpairedFace):
        glue_table(1, g)


def test_non_bijective_permutation_rejected():
    g = {(0, 0): (0, 1, (1, 1, 2, 3)), (0, 1): (0, 0, (1, 1, 2, 3)),
         (0, 2): (0, 3, (0, 1, 3, 2)), (0, 3): (0, 2, (0, 1, 3, 2))}
    with pytest.raises(UnpairedFace):
        glue_table(1, g)


# Gluings of one tetrahedron that each ``glue_table`` check rejects, with
# the message it names them by: faces 2 and 3 glued as in a valid gluing,
# plus the entries listed.
_FACES_2_3 = {(0, 2): (0, 3, (0, 1, 3, 2))}
_REJECTED = [
    ({(0, 0): (1, 1, (1, 0, 2, 3))}, "gluing refers to tetrahedron out of range"),
    ({(-1, 0): (0, 1, (1, 0, 2, 3))}, "gluing refers to tetrahedron out of range"),
    ({(0, 4): (0, 1, (4, 0, 2, 3))}, "gluing refers to face out of range"),
    ({(0, 0): (0, -1, (1, 0, 2, 3))}, "gluing refers to face out of range"),
    ({(0, 0): (0, 1, (1, 1, 2, 3))},
     "gluing permutation (1, 1, 2, 3) is not a bijection"),
    ({(0, 0): (0, 1, [1, 1, 2, 3])},
     "gluing permutation [1, 1, 2, 3] is not a bijection"),
    ({(0, 0): (0, 1, (1, 0, 2))}, "gluing permutation (1, 0, 2) is not a bijection"),
    ({(0, 0): (0, 1, (1, 0, 2, 3, 4))},
     "gluing permutation (1, 0, 2, 3, 4) is not a bijection"),
    ({(0, 0): (0, 1, (1, 0, 2, 4))}, "gluing permutation (1, 0, 2, 4) is not a bijection"),
    ({(0, 0): (0, 1, (0, 1, 3, 2))}, "gluing permutation must carry face 0 to face 1"),
    ({(0, 0): (0, 0, (0, 2, 1, 3))}, "face 0.0 glued to itself"),
    # The same partner under another permutation, then another partner.
    ({(0, 0): (0, 1, (1, 0, 2, 3)), (0, 1): (0, 0, (1, 0, 3, 2))},
     "face 0.1 glued twice inconsistently"),
    ({(0, 0): (0, 1, (1, 0, 2, 3)), (0, 1): (0, 2, (0, 2, 1, 3))},
     "face 0.1 glued twice inconsistently"),
    ({(0, 0): (0, 1, (1, 0, 2, 3)), (0, 2): None}, "face 0.2 is not glued"),
]


@pytest.mark.parametrize("entries, message", _REJECTED)
def test_rejected_gluings_name_the_check(entries, message):
    gluings = {**_FACES_2_3, **entries}
    gluings = {key: val for key, val in gluings.items() if val is not None}
    with pytest.raises(UnpairedFace) as exc:
        glue_table(1, gluings)
    assert str(exc.value) == message
    valid = {**_FACES_2_3, (0, 0): (0, 1, (1, 0, 2, 3))}
    assert Triangulation(glue_table(1, valid)).tet_count == 1
    with pytest.raises(UnpairedFace) as exc:
        glue_table(0, {})
    assert str(exc.value) == "a triangulation needs at least one tetrahedron"


def test_unglued_faces_of_a_large_count_fail_without_its_table():
    # A spine file may declare any tetrahedron count; the first unglued
    # face is named without building a table of that many rows.
    valid = {**_FACES_2_3, (0, 0): (0, 1, (1, 0, 2, 3))}
    tracemalloc.start()
    try:
        with pytest.raises(UnpairedFace, match=r"^face 1\.0 is not glued$"):
            glue_table(10 ** 6, valid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_disconnected_rejected():
    g = {}
    glue_both_ways(g, 0, 0, 0, 1, (1, 0, 2, 3))
    glue_both_ways(g, 0, 2, 0, 3, (0, 1, 3, 2))
    glue_both_ways(g, 1, 0, 1, 1, (1, 0, 2, 3))
    glue_both_ways(g, 1, 2, 1, 3, (0, 1, 3, 2))
    with pytest.raises(Disconnected):
        Triangulation(glue_table(2, g))


def test_nonorientable_rejected():
    # An even gluing permutation cannot be orientation-reversing.
    g = {}
    glue_both_ways(g, 0, 0, 0, 1, (1, 0, 2, 3))
    glue_both_ways(g, 0, 2, 0, 3, (1, 0, 3, 2))  # even, maps 2->3
    with pytest.raises(NonOrientable,
                       match="^no consistent tetrahedron orientations exist$"):
        Triangulation(glue_table(1, g))
    # Connectedness is checked first: with a tetrahedron 1 out of reach the
    # same gluing of tetrahedron 0 is rejected as disconnected.
    glue_both_ways(g, 1, 0, 1, 1, (1, 0, 2, 3))
    glue_both_ways(g, 1, 2, 1, 3, (0, 1, 3, 2))
    with pytest.raises(Disconnected,
                       match="^only 1 of 2 tetrahedra reachable$"):
        Triangulation(glue_table(2, g))


def test_orientation_bits_alternate_signs():
    # Properly orientable: signs satisfy sign(perm)*o*o' == -1 throughout.
    g = one_tet_gluings((1, 0, 2, 3), (0, 1, 3, 2))
    trg = Triangulation(glue_table(1, g))
    for t, row in enumerate(trg.glue):
        for t2, k in row:
            assert SIGN[k] * trg.orientations[t] * trg.orientations[t2] == -1


def _check_class_tables(trg):
    """The edge and face classes partition the tetrahedron edges and
    faces, and ``edge_class_of`` and ``face_class_of`` name the class each
    lies in, an edge with the sign of its walk.  Each fan starts at the
    least tetrahedron edge (t, i < j) of its class, which the spine files,
    relabelling and the moves read as the class's representative."""
    covered = set()
    for k, fan in enumerate(trg.edge_classes):
        for (t, i, j, _enter, _exit) in fan:
            covered.add((t, frozenset((i, j))))
            assert trg.edge_class_of(t, i, j) == (k, 1)
            assert trg.edge_class_of(t, j, i) == (k, -1)
        assert fan[0][:3] == min((t, min(i, j), max(i, j))
                                 for t, i, j, _enter, _exit in fan)
    assert len(covered) == 6 * trg.tet_count
    sides = [side for pair in trg.face_classes for side in pair]
    assert sorted(sides) == [(t, f) for t in range(trg.tet_count) for f in range(4)]
    for k, pair in enumerate(trg.face_classes):
        for t, f in pair:
            assert trg.face_class_of[t][f] == k


def test_edge_classes_partition_all_edges(corpus3, census2):
    g = one_tet_gluings((1, 0, 2, 3), (0, 1, 3, 2))
    _check_class_tables(Triangulation(glue_table(1, g)))
    # The census up to three tetrahedra and one positive move from census 2.
    spines = corpus3 + [m.after for s in census2
                        for fc in range(len(s.triangulation.face_classes))
                        if len({t for t, _f in s.triangulation.face_classes[fc]}) == 2
                        for m in apply_positive(s, fc)]
    assert len(spines) == 850 + 136
    for spine in spines:
        trg = spine.triangulation
        _check_class_tables(trg)
        # The branching read off the ranks agrees with the class directions.
        for t in range(trg.tet_count):
            for i, j in permutations(range(4), 2):
                k, s = trg.edge_class_of(t, i, j)
                assert spine.edge_direction(t, i, j) == (s * spine.branching[k] == 1)


def test_vertex_links_are_closed_surfaces():
    g = one_tet_gluings((1, 0, 2, 3), (0, 1, 3, 2))
    trg = Triangulation(glue_table(1, g))
    for v in range(len(trg.vertex_classes)):
        chi, genus = trg.vertex_link(v)
        assert chi % 2 == 0 and chi <= 2
        assert genus == (2 - chi) // 2


def test_reversed_edge_walk_rejected():
    # An edge glued to itself reversed needs a non-orientable gluing, and
    # the orientability check rejects it before any edge walk.
    from spinetorsion.errors import NonOrientable
    g = {}
    glue_both_ways(g, 0, 0, 0, 1, (1, 0, 2, 3))
    glue_both_ways(g, 0, 2, 0, 3, (1, 0, 3, 2))
    with pytest.raises(NonOrientable):
        Triangulation(glue_table(1, g))


def test_edge_fans_close_in_cyclic_order(corpus12):
    for spine in corpus12[:10]:
        trg = spine.triangulation
        # the valences, the fan lengths, count every tetrahedron edge once
        assert sum(len(fan) for fan in trg.edge_classes) == 6 * trg.tet_count
        for fan in trg.edge_classes:
            # consecutive fan entries are glued through the exit face
            for p in range(len(fan)):
                t, i, j, _enter, exit_ = fan[p]
                t2, k = trg.glue[t][exit_]
                perm = ALL_PERMS[k]
                f2 = perm[exit_]
                nt, ni, nj, enter2, _ = fan[(p + 1) % len(fan)]
                assert (t2, perm[i], perm[j]) == (nt, ni, nj)
                assert f2 == enter2


def _revisits_an_edge(trg):
    """Whether some edge class passes through one tetrahedron edge twice."""
    return any(len({(t, frozenset((i, j))) for t, i, j, _enter, _exit in fan})
               != len(fan) for fan in trg.edge_classes)


def test_every_triangulation_is_standard(corpus12, census2):
    # Nothing checks standardness at build time: every labelled gluing of
    # one tetrahedron that builds, the triangulations of the census up to
    # three tetrahedra and the after spines of the pinned moves show it.
    built = []
    for pairing in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        (fa, fb), (fc, fd) = pairing
        for p1 in permutations(range(4)):
            for p2 in permutations(range(4)):
                if p1[fa] != fb or p2[fc] != fd:
                    continue
                try:
                    built.append(Triangulation(glue_table(1, one_tet_gluings(p1, p2, pairing))))
                except ValidationError:
                    continue
    assert len(built) == 27  # both gluings odd: the orientable ones
    for n in (1, 2, 3):
        built += enumerate_triangulations(n)
    spines = list(corpus12)
    for s in census2:
        for fc in range(len(s.triangulation.face_classes)):
            try:
                spines += [m.after for m in apply_positive(s, fc)]
            except SelfAdjacentFace:
                continue
    assert len(spines) == 186
    built += [m.after.triangulation for s in spines for m in available_moves(s)]
    assert [trg for trg in built if _revisits_an_edge(trg)] == []
