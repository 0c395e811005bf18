import itertools
import random

import pytest

from spinetorsion.census import enumerate_triangulations
from spinetorsion.errors import CyclicTriangle, NonOrientable, UnpairedFace
from spinetorsion.perms import ALL_PERMS, SIGN
from spinetorsion.spine import _RANKS, BranchedSpine, enumerate_branchings
from spinetorsion.spinefile import parse
from spinetorsion.triangulation import _CORNER_PAIRS, _FACE_CORNERS

from fixtures import ONE_TET, TORSION2, TWO_VARIANT


def brute_force_branchings(trg):
    """Independent oracle: scan all orientation assignments and filter the
    no-cyclic-triangle condition by direct edge checks."""
    n = len(trg.edge_classes)
    good = []
    for mask in range(1 << n):
        branching = [1 if not (mask >> k) & 1 else -1 for k in range(n)]

        def direction(t, i, j):
            k, s = trg.edge_class_of(t, i, j)
            return s * branching[k] == 1

        ok = True
        for t in range(trg.tet_count):
            for f in range(4):
                a, b, c = _FACE_CORNERS[f]
                edges = [(a, b), (b, c), (a, c)]
                dirs = [direction(t, *e) for e in edges]
                # cyclic iff a->b, b->c, c->a or the reverse cycle
                if (dirs[0] and dirs[1] and not dirs[2]) or \
                        (not dirs[0] and not dirs[1] and dirs[2]):
                    ok = False
        if ok:
            good.append(tuple(branching))
    return good


def test_enumerate_branchings_matches_brute_force():
    for n in (1, 2, 3):
        for trg in enumerate_triangulations(n):
            found = [s.branching for s in enumerate_branchings(trg)]
            assert found == brute_force_branchings(trg)


def test_rank_table_is_the_indegree_rule():
    # Pattern bit e set: corner pair e = (i, j) runs i -> j.  A transitive
    # tournament ranks each corner by its in-degree and runs every edge up
    # the ranks; any other has a cyclic face triangle.
    transitive = 0
    for bits in range(64):
        runs = {}
        for e, (i, j) in enumerate(_CORNER_PAIRS):
            runs[i, j], runs[j, i] = bool(bits >> e & 1), not bits >> e & 1
        indeg = tuple(sum(runs[x, c] for x in range(4) if x != c) for c in range(4))
        cyclic = any(runs[a, b] == runs[b, c] == runs[c, a] for a, b, c in _FACE_CORNERS)
        ranks = _RANKS[bits]
        if ranks is None:
            assert cyclic and sorted(indeg) != [0, 1, 2, 3]
        else:
            transitive += 1
            assert not cyclic and ranks == indeg and ranks in ALL_PERMS
            assert all(runs[i, j] == (ranks[i] < ranks[j]) for i, j in _CORNER_PAIRS)
    assert transitive == 24


def test_branchings_closed_under_global_reversal():
    for trg in enumerate_triangulations(1) + enumerate_triangulations(2)[:10]:
        found = {s.branching for s in enumerate_branchings(trg)}
        for b in found:
            assert tuple(-x for x in b) in found


def test_every_branching_has_unique_sink_and_source(corpus12):
    for spine in corpus12:
        for t in range(spine.tet_count):
            src, _r1, _r2, snk = spine.corners_by_rank(t)
            for c in range(4):
                outgoing = sum(1 for x in range(4) if x != c
                               and spine.edge_direction(t, c, x))
                if c == src:
                    assert outgoing == 3
                elif c == snk:
                    assert outgoing == 0


def test_cyclic_triangle_rejected():
    for trg in enumerate_triangulations(1) + enumerate_triangulations(2):
        valid = {s.branching for s in enumerate_branchings(trg)}
        n = len(trg.edge_classes)
        for mask in range(1 << n):
            b = tuple(1 if not (mask >> k) & 1 else -1 for k in range(n))
            if b in valid:
                BranchedSpine(trg, b)
            else:
                with pytest.raises(CyclicTriangle):
                    BranchedSpine(trg, b)


def test_two_tet_fixture_by_exhaustive_search():
    # Oracle: the 2-tetrahedron census is nonempty and every member has
    # V = 2 spine vertices and F = 4 spine edges.
    trgs = enumerate_triangulations(2)
    spines = [s for trg in trgs for s in enumerate_branchings(trg)]
    assert spines
    for s in spines:
        assert s.spine_vertex_count == 2
        assert s.spine_edge_count == 4


def test_spine_edge_count_is_twice_vertex_count(corpus12):
    for s in corpus12:
        assert s.spine_edge_count == 2 * s.spine_vertex_count


def test_face_sink_source_against_edge_scan(corpus12):
    for s in corpus12[:20]:
        for t in range(s.tet_count):
            for f in range(4):
                src, _m, snk = s.face_roles(t, f)
                cs = _FACE_CORNERS[f]
                for c in cs:
                    others = [x for x in cs if x != c]
                    out = sum(1 for x in others if s.edge_direction(t, c, x))
                    if c == src:
                        assert out == 2
                    if c == snk:
                        assert out == 0


def test_tet_sink_is_sink_of_its_faces(corpus12):
    for s in corpus12[:20]:
        for t in range(s.tet_count):
            src, _r1, _r2, snk = s.corners_by_rank(t)
            for f in range(4):
                if f == snk:
                    continue  # the face opposite the sink misses it
                assert s.face_roles(t, f)[2] == snk
            for f in range(4):
                if f == src:
                    continue
                assert s.face_roles(t, f)[0] == src


def test_euler_characteristics(corpus12):
    for s in corpus12:
        chi_spine, chi_x = s.euler_characteristics()
        assert chi_spine == s.region_count - s.spine_vertex_count
        assert chi_x == 1 - chi_spine
        # independent CW count of the quotient complex
        cw = 1 - s.region_count + s.spine_edge_count - s.tet_count
        assert cw == chi_x


def test_boundary_chi_identity(corpus12):
    for s in corpus12:
        _chi_spine, chi_x = s.euler_characteristics()
        total = sum(chi for chi, _g in s.boundary_report())
        assert total == 2 * (1 - chi_x)


def test_genus_one_boundary_exists(census2):
    assert any(tuple(sorted(s.boundary_report())) == ((0, 1),) for s in census2)


def test_relabelling_preserves_canonical_encoding(corpus12):
    rnd = random.Random(5)
    for s in corpus12[:12]:
        n = s.tet_count
        code = s.canonical_encoding()
        for _ in range(3):
            tet_map = list(range(n))
            rnd.shuffle(tet_map)
            perms = [rnd.choice(ALL_PERMS) for _ in range(n)]
            other = s.relabel(tet_map, perms)
            assert other.canonical_encoding() == code
            assert other.is_isomorphic(s)


@pytest.mark.parametrize("tet_map, message", [
    ([1, 1], r"tetrahedron map \[1, 1\] is not a bijection onto 0\.\.1"),
    ([0, 2], r"tetrahedron map \[0, 2\] is not a bijection onto 0\.\.1"),
    ([0], r"tetrahedron map \[0\] is not a bijection onto 0\.\.1")])
def test_relabel_rejects_a_tet_map_that_is_no_bijection(tet_map, message):
    spine = parse(TORSION2)
    with pytest.raises(UnpairedFace, match=message):
        spine.relabel(tet_map, [ALL_PERMS[0]] * 2)


@pytest.mark.parametrize("corner_perms", [
    [(0, 0, 2, 3), (0, 1, 2, 3)], [(0, 1, 2, 3), (0, 1, 2, 4)], [(0, 1, 2, 3)]])
def test_relabel_rejects_corner_labels_that_are_no_bijection(corner_perms):
    spine = parse(TORSION2)
    with pytest.raises(UnpairedFace, match=r"corner relabelling .* is not a bijection"):
        spine.relabel([1, 0], corner_perms)


def test_distinct_census_members_not_isomorphic(census2):
    codes = [s.canonical_encoding() for s in census2]
    assert len(set(codes)) == len(codes)


def test_orientation_bits_validated():
    spine = parse(ONE_TET)
    flipped = [-o for o in spine.orientations]
    BranchedSpine(spine.triangulation, spine.branching, flipped)  # global flip ok
    bad = list(spine.orientations)
    if len(bad) == 1:
        bad = [0]
        with pytest.raises(NonOrientable):
            BranchedSpine(spine.triangulation, spine.branching, bad)
    two = parse(TWO_VARIANT)
    bad = list(two.orientations)
    bad[0] = -bad[0]
    with pytest.raises(NonOrientable):
        BranchedSpine(two.triangulation, two.branching, bad)


def test_only_the_two_coherent_orientations_build(corpus3):
    # Of the 2^n orientation vectors, one per sign pattern, exactly those
    # that make every gluing orientation-reversing build a spine: the
    # triangulation's own and its opposite.
    for spine in corpus3:
        trg = spine.triangulation
        built = []
        for orient in itertools.product((1, -1), repeat=trg.tet_count):
            coherent = all(SIGN[k] * orient[t] * orient[t2] == -1
                           for t, row in enumerate(trg.glue) for t2, k in row)
            try:
                BranchedSpine(trg, spine.branching, orient)
            except NonOrientable:
                assert not coherent
            else:
                assert coherent
                built.append(orient)
        assert built == [trg.orientations, tuple(-o for o in trg.orientations)]
