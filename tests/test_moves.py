import hashlib
import importlib
from itertools import combinations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from spinetorsion import moves
from spinetorsion.complexes import (CellComplexX, GroupData, SpiderAnchors,
                                    TwistedComplex, make_representation)
from spinetorsion.errors import (NotApplicable, SelfAdjacentFace, Stuck,
                                 TransportFailure)
from spinetorsion.moves import (apply_negative, apply_positive,
                                available_moves, h_cycle_check, is_rigid,
                                positive_move, random_walk, transport_homology,
                                transport_rational_homology,
                                transport_representation)
from spinetorsion.rng import SplitMix64
from spinetorsion.spine import BranchedSpine
from spinetorsion.spinefile import (parse, parse_move_log, replay_move_log,
                                    serialize, serialize_move_log)
from spinetorsion.torsion import (auto_twisted_homology, invariance_suite,
                                  torsion)
from spinetorsion.triangulation import Triangulation

from fixtures import GOLDEN, GOLDEN_TABLE, ONE_TET, TORSION2, TWO_VARIANT
from oracles import assert_valid_glue, branching_orders, row_boundary


def all_positive_moves(spine):
    out = []
    for fc in range(len(spine.triangulation.face_classes)):
        try:
            out.extend(apply_positive(spine, fc))
        except SelfAdjacentFace:
            pass
    return out


# sha256 of every move that available_moves finds on the census <= 2 and
# on each spine one positive move from census 2, in order: per move its
# site, correspondences, certificate rows and serialised after spine.
MOVES_DIGEST = (186, 1302,
                "4e55663ff3286bec6c254048ea69d3f891504161bb4ae2945339d853138f81dc")


def _move_text(m):
    return repr((m.direction, m.site, m.variant, m.new_edge_direction,
                 sorted(m.tet_map.items()), sorted(m.edge_map.items()),
                 sorted(m.face_map.items()),
                 tuple(t for t, _ in m.site_before),
                 tuple(t for t, _ in m.site_after), tuple(m.vanished_faces),
                 tuple(m.created_faces), m.central_class_before,
                 m.central_class_after, h_cycle_check(m).rows)) \
        + "\n" + serialize(m.after)


def _digest_moves(corpus12, census2):
    """The spines and the moves that ``MOVES_DIGEST`` pins."""
    spines = corpus12 + [m.after for s in census2 for m in all_positive_moves(s)]
    return spines, [m for s in spines for m in available_moves(s)]


def test_move_outputs_are_pinned(corpus12, census2):
    spines, found = _digest_moves(corpus12, census2)
    text = "".join(_move_text(m) for m in found)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(spines), len(found), digest) == MOVES_DIGEST


def test_after_tables_are_gluings_that_reparse(corpus12, census2):
    # The rebuild writes each after glue table itself; the spine file
    # reader, which builds its table from a gluing dict, is the reference.
    for m in _digest_moves(corpus12, census2)[1]:
        after = m.after
        assert_valid_glue(after.triangulation.glue)
        back = parse(serialize(after))
        for name in ("glue", "face_classes", "pair_classes"):
            assert getattr(back.triangulation, name) == \
                getattr(after.triangulation, name)
        assert (back.orientations, back.branching) == \
            (after.orientations, after.branching)


def test_every_entry_point_builds_the_same_move(census2):
    # Every move of every spine one positive move from census 2, built by
    # available_moves, again by the entry point for its site alone.
    counts = {"positive": 0, "negative": 0}
    for s in [m.after for s0 in census2 for m in all_positive_moves(s0)]:
        for m in available_moves(s):
            text = _move_text(m)
            if m.direction == "positive":
                assert _move_text(positive_move(s, m.site, m.variant)) == text
                assert _move_text(apply_positive(s, m.site)[m.variant]) == text
            else:
                assert _move_text(apply_negative(s, m.site)) == text
            counts[m.direction] += 1
    assert counts == {"positive": 1014, "negative": 152}


def test_self_adjacent_face_rejected():
    s = parse(ONE_TET)
    with pytest.raises(SelfAdjacentFace):
        apply_positive(s, 0)


def test_two_variant_face():
    s = parse(TWO_VARIANT)
    moves = apply_positive(s, 0)
    assert len(moves) == 2
    assert {m.new_edge_direction for m in moves} == {1, -1}
    for m in moves:
        assert m.after.tet_count == s.tet_count + 1
        assert m.after.spine_edge_count == 2 * m.after.tet_count


def test_positive_then_negative_is_identity(corpus12):
    count = 0
    for s in corpus12:
        for m in all_positive_moves(s):
            inv = apply_negative(m.after, m.central_class_after)
            assert inv.after.is_isomorphic(s)
            count += 1
    assert count == 136


def test_negative_then_positive_is_identity(census2):
    # Negative moves need three distinct tetrahedra, so grow each spine by
    # one positive move first, then undo arbitrary negative moves.
    count = 0
    for s in census2[:10]:
        for grown in all_positive_moves(s)[:2]:
            big = grown.after
            for ec in range(len(big.triangulation.edge_classes)):
                try:
                    m = apply_negative(big, ec)
                except NotApplicable:
                    continue
                # a positive move at the reassembled face restores the spine
                back = apply_positive(m.after, m.created_faces[0])
                assert any(b.after.is_isomorphic(big) for b in back)
                count += 1
    assert count >= 5


def test_negative_preconditions():
    s = parse(TORSION2)
    # valence-1 edge class
    assert len(s.triangulation.edge_classes[1]) == 1
    with pytest.raises(NotApplicable):
        apply_negative(s, 1)
    # valence-3 class meeting only two distinct tetrahedra
    fan = s.triangulation.edge_classes[2]
    assert len(fan) == 3
    assert len(set(step[0] for step in fan)) == 2
    with pytest.raises(NotApplicable):
        apply_negative(s, 2)
    # valence-8 class
    assert len(s.triangulation.edge_classes[0]) == 8
    with pytest.raises(NotApplicable):
        apply_negative(s, 0)


def test_moves_preserve_edge_directions(census2):
    for s in census2[:8]:
        for m in all_positive_moves(s)[:4]:
            for old, new in m.edge_map.items():
                # compare directions through any surviving representative
                fan_old = s.triangulation.edge_classes[old]
                for (t, i, j, _enter, _exit) in fan_old:
                    if t in m.tet_map:
                        d_old = s.edge_direction(t, i, j)
                        d_new = m.after.edge_direction(m.tet_map[t], i, j)
                        assert d_old == d_new
                        break


def test_h_cycle_report_has_21_rows(census2):
    dims = {0: 1, 1: 5, 2: 9, 3: 6}
    for s in census2[:6]:
        for m in all_positive_moves(s)[:6]:
            report = h_cycle_check(m)
            assert len(report.rows) == 21
            by_dim = {}
            for (label, eps, _e0, _e1) in report.rows:
                d = len(label) - 1
                by_dim[d] = by_dim.get(d, 0) + 1
                assert eps == (-1) ** d
            assert by_dim == dims


def test_h_cycle_total_matches_rows(census2):
    for s in census2[:6]:
        for m in all_positive_moves(s)[:6]:
            report = h_cycle_check(m)
            total = {}
            for row in report.rows:
                for k, v in row_boundary(row).items():
                    total[k] = total.get(k, 0) + v
            total = {k: v for k, v in total.items() if v}
            assert total == report.total
            assert report.is_null == (not total)
            if report.is_null:
                free, tors = report.h_class
                assert not any(free) and not any(tors)


def test_equal_ends_force_zero_rows(census2):
    # Whenever both structures drain a row's containers to the same vertex
    # the row boundary vanishes; moves where this happens in every row are
    # null by inspection.
    seen = False
    for s in census2[:20]:
        for m in all_positive_moves(s):
            report = h_cycle_check(m)
            for row in report.rows:
                if row[2] == row[3]:
                    assert row_boundary(row) == {}
            if all(r[2] == r[3] for r in report.rows):
                seen = True
                assert report.is_null
    del seen  # existence is corpus-dependent; the implication above is the test


def test_golden_certificate_table():
    s = parse(GOLDEN)
    moves = apply_positive(s, 0)
    report = h_cycle_check(moves[0])
    assert report.rows == GOLDEN_TABLE
    assert report.is_null
    assert report.total == {}


def _sites(spine):
    """The positive and the negative move sites of a spine."""
    trg = spine.triangulation
    out = []
    for site_at, count in ((moves._positive_site, len(trg.face_classes)),
                           (moves._negative_site, len(trg.edge_classes))):
        for k in range(count):
            try:
                out.append(site_at(spine, k))
            except (SelfAdjacentFace, NotApplicable):
                pass
    return out


def test_variants_are_the_orders_that_agree_with_the_site(corpus12, census2):
    # The variants of every site of the pinned corpus are the orders, among
    # all 120, that agree with the directions of its edges, read here
    # through the class branching.
    counts = {"positive": 0, "negative": 0}
    for s in _digest_moves(corpus12, census2)[0]:
        for site in _sites(s):
            directed = set()
            for t, lab in site[2]:
                for i, j in combinations(range(4), 2):
                    forward = s.oriented_class(t, i, j)[1] == 1
                    directed.add((lab[i], lab[j]) if forward else (lab[j], lab[i]))
            assert moves._variants(s, site) == branching_orders(directed)
            counts[site[0]] += 1
    assert counts == {"positive": 834, "negative": 152}


def test_positive_sites_have_one_or_two_variants(corpus3):
    # Two tetrahedra order {a,b,d,e} and {c,b,d,e} alike on their common
    # face, so one direction of the new edge ac always gives a branching,
    # and a spine is rigid exactly when every face class is self-adjacent.
    walk = random_walk(parse(TORSION2), 100, seed=1)
    sites_by_count = {}
    for s in corpus3 + [m.after for m in walk]:
        positive = [site for site in _sites(s) if site[0] == "positive"]
        for site in positive:
            count = len(moves._variants(s, site))
            sites_by_count[count] = sites_by_count.get(count, 0) + 1
        # Rigid as defined: no positive move is a candidate.
        assert is_rigid(s) == all(site[0] == "negative"
                                  for site, _variant, _order in moves._candidates(s))
    assert sites_by_count == {1: 7199, 2: 3418}


def test_one_vertex_spines_are_rigid(census1):
    for s in census1:
        assert is_rigid(s)


def test_positive_move_output_is_never_rigid(census2):
    for s in census2[:5]:
        for m in all_positive_moves(s)[:3]:
            assert not is_rigid(m.after)


def test_rigid_spines_beyond_one_vertex_have_even_count(corpus12):
    # Rigid spines with more than one vertex must have an even vertex
    # count; in this corpus the only rigid members are the one-vertex
    # spines, so the property holds with no exceptions.
    for s in corpus12:
        if is_rigid(s) and s.tet_count > 1:
            assert s.tet_count % 2 == 0


def test_random_walk_deterministic():
    s = parse(TWO_VARIANT)
    w1 = random_walk(s, 5, seed=99, max_tets=6)
    w2 = random_walk(s, 5, seed=99, max_tets=6)
    assert [(m.direction, m.site, m.variant) for m in w1] == \
           [(m.direction, m.site, m.variant) for m in w2]
    assert w1[-1].after.is_isomorphic(w2[-1].after)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replayed_move_log_reaches_the_walk_end(census2, data):
    start = census2[data.draw(st.integers(0, len(census2) - 1))]
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    try:
        walk = random_walk(start, 4, seed, max_tets=5)
    except Stuck:
        reject()
    replayed = replay_move_log(start, parse_move_log(serialize_move_log(walk)))
    assert serialize(replayed[-1].after) == serialize(walk[-1].after)


def test_random_walk_stuck_on_rigid(census1):
    with pytest.raises(Stuck):
        random_walk(census1[0], 1, seed=0)


def _walk_log(walk_fn, start, seed, h_null_only, max_tets):
    """The move log of a 3-step walk, or where it got stuck."""
    try:
        return serialize_move_log(walk_fn(start, 3, seed, h_null_only,
                                          max_tets))
    except Stuck as exc:
        return str(exc)


def _reference_walk(spine, steps, seed, h_null_only, max_tets, memo):
    """``random_walk`` as the bound first filtered it: every candidate of
    ``available_moves`` built, then those past ``max_tets`` dropped.  The
    candidates are kept in ``memo`` by spine file and filter."""
    rng = SplitMix64(seed)
    walk = []
    cur = spine
    for _ in range(steps):
        key = (serialize(cur), h_null_only)
        if key not in memo:
            memo[key] = available_moves(cur, h_null_only=h_null_only)
        cands = [m for m in memo[key] if m.after.tet_count <= max_tets]
        if not cands:
            raise Stuck("no applicable move after %d steps" % len(walk))
        walk.append(cands[rng.below(len(cands))])
        cur = walk[-1].after
    return walk


def test_bounded_walk_matches_filtered_candidates(census2):
    # Skipping the positive moves at the bound leaves every walk as it was.
    logs = set()
    for start in census2:
        memo = {}
        for seed in range(5):
            for max_tets in range(2, 6):
                args = (start, seed, seed % 2 == 1, max_tets)
                log = _walk_log(random_walk, *args)
                assert log == _walk_log(
                    lambda *a: _reference_walk(*a, memo=memo), *args)
                logs.add(log)
    assert any(log.startswith("no applicable") for log in logs)
    assert sum(log.startswith("movelog") for log in logs) > 100


def test_filtered_walk_is_h_null():
    s = parse(TWO_VARIANT)
    walk = random_walk(s, 6, seed=3, h_null_only=True, max_tets=6)
    for m in walk:
        assert h_cycle_check(m).is_null


def test_available_moves_order_is_canonical():
    s = parse(TWO_VARIANT)
    a = [(m.direction, m.site, m.variant) for m in available_moves(s)]
    b = [(m.direction, m.site, m.variant) for m in available_moves(s)]
    assert a == b
    assert a == sorted(a, key=lambda x: (x[0] != "positive", x[1], x[2]))


def _built_spines(monkeypatch):
    """The BranchedSpines that ``moves`` constructs from now on, in order."""
    built = []

    def counted(*args):
        built.append(BranchedSpine(*args))
        return built[-1]
    monkeypatch.setattr(moves, "BranchedSpine", counted)
    return built


@pytest.mark.parametrize("h_null_only, max_tets",
                         [(False, None), (True, None), (False, 5), (True, 5)])
def test_walk_builds_only_the_moves_it_takes(census2, monkeypatch,
                                             h_null_only, max_tets):
    built = _built_spines(monkeypatch)
    walk = random_walk(census2[5], 8, seed=2, h_null_only=h_null_only,
                       max_tets=max_tets)
    assert len(walk) == 8 and built == [m.after for m in walk]


def test_rigidity_and_single_moves_build_only_what_they_return(
        corpus12, monkeypatch):
    built = _built_spines(monkeypatch)
    assert {is_rigid(s) for s in corpus12} == {True, False}
    assert built == []
    move = positive_move(parse(TWO_VARIANT), 0, variant=1)
    assert built == [move.after]


def _moves_constructions(monkeypatch):
    """Count the Triangulations, BranchedSpines and Bipyramids that
    ``moves`` builds."""
    counts = {"Triangulation": 0, "BranchedSpine": 0, "Bipyramid": 0}
    for cls in (Triangulation, BranchedSpine, moves.Bipyramid):
        def counted(*args, _cls=cls):
            counts[_cls.__name__] += 1
            return _cls(*args)
        monkeypatch.setattr(moves, cls.__name__, counted)
    return counts


def test_listing_moves_builds_nothing(monkeypatch):
    # A 12-tetrahedron spine: ten first moves from TORSION2, all positive.
    small = big = parse(TORSION2)
    for _ in range(10):
        big = moves._rebuild(big, *next(moves._candidates(big))).after
    assert big.tet_count == 12
    counts = _moves_constructions(monkeypatch)
    for s in (small, big):
        assert not is_rigid(s)
        sites = [site for site, _variant, _order in moves._candidates(s)]
        assert sites and all(len(site) == 4 for site in sites)
    assert counts == {"Triangulation": 0, "BranchedSpine": 0, "Bipyramid": 0}
    walk = random_walk(small, 10, seed=1, h_null_only=True, max_tets=6)
    assert len(walk) == 10
    assert counts == {"Triangulation": 10, "BranchedSpine": 10, "Bipyramid": 10}


def _count_constructions(monkeypatch):
    """Count CellComplexX, GroupData and TwistedComplex constructions,
    however the constructing module imported the class."""
    counts = {"CellComplexX": 0, "GroupData": 0, "TwistedComplex": 0}
    for cls in (CellComplexX, GroupData, TwistedComplex):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_invariance_suite_builds_one_complex_per_spine(census2, monkeypatch):
    spine = census2[5]
    walk = random_walk(spine, 6, seed=1, h_null_only=True)
    counts = _count_constructions(monkeypatch)
    report = invariance_suite(spine, walk, "cyclic", order=5)
    assert report.all_equal
    spines = len(walk) + 1
    assert counts["CellComplexX"] <= spines
    assert counts["TwistedComplex"] <= spines
    assert counts["GroupData"] <= spines


def test_trivial_suites_read_only_rational_complexes(census2, monkeypatch):
    # Both representations are trivial on start 7, so both suites read the
    # rational complex of each spine: no TwistedComplex, and one rational
    # pass per walk spine under the carried lifts, after the default pass
    # that finds the start's lifts; the second suite computes nothing new.
    spine = parse(serialize(census2[7]))
    walk = random_walk(spine, 6, seed=1, h_null_only=True)
    counts = _count_constructions(monkeypatch)
    torsion_module = importlib.import_module("spinetorsion.torsion")
    passes = []

    def counted(cx, lifts="auto", _original=torsion_module.selection_pass):
        passes.append((cx, lifts))
        return _original(cx, lifts)
    monkeypatch.setattr(torsion_module, "selection_pass", counted)
    for kind, order in (("free_abelian", None), ("cyclic", 5)):
        assert invariance_suite(spine, walk, kind, order=order).all_equal
    assert counts["TwistedComplex"] == 0
    rational = [s.complex.rational_complex
                for s in (spine, *(move.after for move in walk))]
    assert [cx for cx, lifts in passes if lifts == "auto"] == rational[:1]
    assert [cx for cx, lifts in passes if lifts != "auto"] == rational


def test_h_null_filter_builds_no_smith_form(census2, monkeypatch):
    counts = _count_constructions(monkeypatch)
    assert available_moves(census2[5], h_null_only=True)
    assert counts == {"CellComplexX": 0, "GroupData": 0, "TwistedComplex": 0}


def test_lazy_h_class_is_the_class_of_the_chain(census2):
    for s in census2:
        for m in available_moves(s):
            report = h_cycle_check(m)
            assert "h_class" not in vars(report)
            G = GroupData(CellComplexX(m.before))
            assert report.h_class == G.class_of_vector(report.h_chain)


def _is_cycle(cx, deg, vec):
    if deg == 0:
        return True
    for row in (cx.d1, cx.d2, cx.d3)[deg - 1]:
        acc = cx.field.zero
        for x, y in zip(row, vec):
            acc = acc + x * y
        if not acc.is_zero():
            return False
    return True


@pytest.mark.parametrize("kind,order", [("free_abelian", None), ("cyclic", 5),
                                        ("rational", None)])
def test_transported_lifts_are_homology_bases(census2, kind, order):
    # Lifts carried along every move of 3-step h-null walks stay cycles of
    # the after complex, in the right number per degree and independent
    # modulo boundaries: torsion raises BasisRankMismatch otherwise.
    moved = 0
    for i, start in enumerate(census2):
        try:
            walk = random_walk(start, 3, seed=i, h_null_only=True, max_tets=5)
        except Stuck:
            continue
        X = CellComplexX(start)
        if kind == "rational":
            cx = X.rational_complex
        else:
            rep = make_representation(GroupData(X), kind, order)
            cx = TwistedComplex(start, X, SpiderAnchors(start, X), rep)
        lifts = auto_twisted_homology(cx)
        for move in walk:
            if kind == "rational":
                X_after = CellComplexX(move.after)
                after = X_after.rational_complex
                lifts = transport_rational_homology(move, X, X_after, lifts)
            else:
                rep = transport_representation(move, cx.rep)
                X_after = rep.group.complex
                after = TwistedComplex(move.after, X_after,
                                       SpiderAnchors(move.after, X_after), rep)
                lifts = transport_homology(move, cx, after, lifts)
            for deg, vecs in lifts.items():
                for vec in vecs:
                    assert len(vec) == after.dims[deg]
                    assert _is_cycle(after, deg, vec)
            torsion(after, h=lifts or None)
            X, cx = X_after, after
            moved += 1
    assert moved >= 100


def _failing_on(monkeypatch, name, calls):
    """Make ``moves.<name>`` raise TransportFailure("x") on each of its
    ``calls``-th calls (counted from 1) and behave as before otherwise."""
    original = getattr(moves, name)
    seen = []

    def patched(*args):
        seen.append(args)
        if len(seen) in calls:
            raise TransportFailure("x")
        return original(*args)
    monkeypatch.setattr(moves, name, patched)


# The calls to fail so that, at the first step of a walk whose moves keep
# their transports, the orientation transport fails, the homology transport
# fails, or both.  Start 5 twists cyclic:5: its lifts go through
# transport_homology and its orientation through transport_rational_homology.
# Start 7 has a trivial cyclic:5 character: its lifts are the orientation
# lifts, and both go through transport_rational_homology, the lifts first.
_FAILURES = {
    5: {"orientation": {"transport_rational_homology": (1,)},
        "homology": {"transport_homology": (1,)},
        "both": {"transport_homology": (1,),
                 "transport_rational_homology": (1,)}},
    7: {"orientation": {"transport_rational_homology": (2,)},
        "homology": {"transport_rational_homology": (1,)},
        "both": {"transport_rational_homology": (1, 2)}},
}


@pytest.mark.parametrize("start", sorted(_FAILURES))
def test_invariance_suite_failure_paths(census2, monkeypatch, start):
    spine = census2[start]
    walk = random_walk(spine, 4, seed=1, h_null_only=True)
    ref = invariance_suite(spine, walk, "cyclic", order=5)
    assert ref.all_equal
    assert [st.sign_refined_equal for st in ref.steps] == [True] * 4
    assert [st.transport_note for st in ref.steps] == [None] * 4

    def failing(m, failure):
        for name, calls in _FAILURES[start][failure].items():
            _failing_on(m, name, calls)

    # A failed orientation transport ends the sign-refined comparison for
    # the rest of the walk; torsion up to sign is still compared.
    with monkeypatch.context() as m:
        failing(m, "orientation")
        report = invariance_suite(spine, walk, "cyclic", order=5)
    assert [st.transport_note for st in report.steps] == \
        ["orientation transport failed: x", None, None, None]
    assert [st.sign_refined_equal for st in report.steps] == [None] * 4
    assert [st.equal for st in report.steps] == [True] * 4
    assert [(st.before_value, st.after_value) for st in report.steps] == \
        [(st.before_value, st.after_value) for st in ref.steps]
    assert report.all_equal and report.first_violation is None

    # A failed homology transport raises, with the orientation failure
    # appended when both fail.
    with monkeypatch.context() as m:
        failing(m, "homology")
        with pytest.raises(TransportFailure) as exc:
            invariance_suite(spine, walk, "cyclic", order=5)
    assert str(exc.value) == "homology transport failed: x"
    with monkeypatch.context() as m:
        failing(m, "both")
        with pytest.raises(TransportFailure) as exc:
            invariance_suite(spine, walk, "cyclic", order=5)
    assert str(exc.value) == ("homology transport failed: x; "
                              "orientation transport failed: x")


def test_degree3_transport_names_a_broken_chain(census2):
    # A degree-3 chain carried across a move must give each after site
    # tetrahedron one weight and stay a cycle; each check names itself.
    # The default lifts pass, and their image is a cycle entry by entry.
    walk = random_walk(census2[5], 6, seed=1, h_null_only=True)
    not_cycles = 0
    for move in walk:
        before = move.before.complex.rational_complex
        after = move.after.complex.rational_complex
        one, zero = before.field.one, before.field.zero
        n = before.dims[3]
        site = sorted(t for t, _lab in move.site_before)
        for w in transport_homology(move, before, after,
                                    {3: before.default_lifts[3]})[3]:
            assert all(sum((x * c for x, c in zip(row, w)), zero).is_zero()
                       for row in after.d3)
        lopsided = [one if t == site[0] else zero for t in range(n)]
        with pytest.raises(TransportFailure) as exc:
            transport_homology(move, before, after, {3: [lopsided]})
        assert str(exc.value) == "inconsistent subdivision weights on the site"
        if len(site) < n:
            on_site = [one if t in site else zero for t in range(n)]
            with pytest.raises(TransportFailure) as exc:
                transport_homology(move, before, after, {3: [on_site]})
            assert str(exc.value) == "transported degree-3 chain is not a cycle"
            not_cycles += 1
    assert not_cycles == 3
