"""Work shared along certified walks stays invisible in every output.

Certificates come from a table keyed by the bipyramid's branching order,
each spine keeps its quotient complex and Smith form, each complex keeps
its torsion passes, each move the lifts it carried, a trivial
representation reads the rational complexes, and h-null candidates
are certified before their after spine is built.  Each test compares the
shared result with one computed from scratch.  The census reads the least
seeds of a class off the seed codes of its orbit, and builds a spine only
for a branching with a new signature; a count guards each.
"""

import gc
import json
import weakref
from itertools import combinations
from types import SimpleNamespace

import pytest

from spinetorsion import census, cli, complexes, moves, spine as spine_module
from spinetorsion.complexes import (CellComplexX, GroupData, SpiderAnchors,
                                    TwistedComplex, make_representation)
from spinetorsion.errors import Stuck, TransportFailure
from spinetorsion.intlinalg import smith_normal_form
from spinetorsion.moves import (available_moves, describe_move,
                                h_cycle_check, random_walk)
from spinetorsion.rng import SplitMix64
from spinetorsion.spinefile import parse, serialize
from spinetorsion.torsion import invariance_suite, sign_refined_torsion

from oracles import twisted_invariance_text


def _scanned_sink(dirs, verts):
    """The vertex of a simplex that its other vertices point to, found by
    scanning the directions ``dirs`` of its edges."""
    sinks = [w for w in verts
             if all(dirs[(u, w)] for u in verts if u != w)]
    assert len(sinks) == 1, "simplex %s has no single sink" % (verts,)
    return sinks[0]


def _move_directions(move):
    """The directions of the ten edges of a move's bipyramid, by ordered
    label pair, read off the before spine and the new edge's direction."""
    dirs = {}
    for t, lab in move.site_before:
        for i, j in combinations(range(4), 2):
            d = move.before.edge_direction(t, i, j)
            dirs[(lab[i], lab[j])], dirs[(lab[j], lab[i])] = d, not d
    if move.direction == "positive":
        d = move.new_edge_direction == 1
        dirs[("a", "c")], dirs[("c", "a")] = d, not d
    return dirs


def _direct_certificate(move, dirs):
    """The 21-row certificate of a move computed row by row from the edge
    directions ``dirs``, as before the table: (rows, total, is_null,
    h_chain)."""
    bip = move.bipyramid
    rows = []
    total = {}
    for label in moves._ROW_ORDER:
        eps = (-1) ** (len(label) - 1)
        e0, e1 = (_scanned_sink(dirs, cell)
                  for cell in moves._simplex_cells(label))
        rows.append((label, eps, e0, e1))
        if e0 != e1:
            total[e0] = total.get(e0, 0) + eps
            total[e1] = total.get(e1, 0) - eps
    total = {k: v for k, v in total.items() if v}
    n = len(move.before.triangulation.edge_classes)
    chains = moves._tree_chains(bip, n)
    h_chain = [0] * n
    for (_label, eps, e0, e1) in rows:
        if e0 != e1:
            h_chain = [h + eps * (x - y)
                       for h, x, y in zip(h_chain, chains[e1], chains[e0])]
    return rows, total, not total, h_chain


def _looked_up(move):
    report = h_cycle_check(move)
    return report.rows, report.total, report.is_null, report.h_chain


def _walk_spines(census2):
    """Spines of 3-6 tetrahedra met on seeded walks from census-2 starts."""
    out = []
    for i in range(0, len(census2), 4):
        try:
            walk = random_walk(census2[i], 6, seed=i, max_tets=6)
        except Stuck:
            continue
        out.extend(m.after for m in walk if m.after.tet_count >= 3)
    return out


def test_certificate_table_matches_direct_computation(corpus12, census2):
    spines = corpus12 + _walk_spines(census2)
    checked = sizes = 0
    for s in spines:
        for m in available_moves(s):
            report = h_cycle_check(m)
            assert _looked_up(m) == _direct_certificate(m, _move_directions(m))
            group = GroupData(CellComplexX(m.before))
            assert report.h_class == group.class_of_vector(report.h_chain)
            checked += 1
        sizes |= 1 << s.tet_count
    assert checked > 900
    assert sizes >> 3 & 0b1111 == 0b1111  # walk spines of 3, 4, 5 and 6 tets
    # The table holds one certificate per linear order of the labels.
    assert 0 < len(moves._CERTIFICATES) <= 120
    assert all(sorted(order) == list("abcde") and cert is not None
               for order, cert in moves._CERTIFICATES.items())


def test_certificate_table_covers_every_direction_pattern():
    # Ten edge directions give 1,024 patterns; exactly the 120 linear
    # orders of the five vertices have no cyclic triangle, and only they
    # give a bipyramid, whose order reproduces the pattern.
    labels = "abcde"
    pairs = list(combinations(labels, 2))
    external = [p for p in pairs if p != ("a", "c")]
    edge_class = {frozenset(p): k for k, p in enumerate(external)}
    before = SimpleNamespace(
        triangulation=SimpleNamespace(edge_classes=range(len(external))))
    orders = set()
    for bits in range(1 << len(pairs)):
        dirs = {}
        for k, (u, v) in enumerate(pairs):
            dirs[(u, v)] = bool(bits >> k & 1)
            dirs[(v, u)] = not dirs[(u, v)]
        order = moves._linear_order(
            (u, v) if dirs[(u, v)] else (v, u) for u, v in pairs)
        cyclic = any(not any(all(dirs[(u, w)] for u in tri if u != w)
                             for w in tri)
                     for tri in combinations(labels, 3))
        assert (order is None) == cyclic
        if cyclic:
            continue
        orders.add(order)
        bip = moves.Bipyramid(order, edge_class)
        assert all(bip.directed(u, v) == d for (u, v), d in dirs.items())
        move = SimpleNamespace(bipyramid=bip, before=before)
        assert _looked_up(move) == _direct_certificate(move, dirs)
        # Each report owns its rows and total: changing one leaves the table.
        report = h_cycle_check(move)
        report.rows.clear()
        report.total["a"] = 99
        assert _looked_up(move) == _direct_certificate(move, dirs)
    assert len(orders) == 120


def _move_key(m):
    return m.direction, m.site, m.variant, serialize(m.after)


def test_certify_first_matches_filtered_candidates(census2):
    # At every spine of every 3-step h-null walk (census-2 starts, seeds
    # 0-4), the certified-first candidates are the certified ones of all
    # candidates, and the walk takes the same moves as one that chooses
    # among those.
    filtered = {}
    walked = 0
    for start in census2:
        for seed in range(5):
            rng = SplitMix64(seed)
            cur, expected = start, []
            for _ in range(3):
                text = serialize(cur)
                if text not in filtered:
                    filtered[text] = [m for m in available_moves(cur)
                                      if h_cycle_check(m).is_null]
                    assert [_move_key(m) for m in
                            available_moves(cur, h_null_only=True)] == \
                        [_move_key(m) for m in filtered[text]]
                cands = [m for m in filtered[text] if m.after.tet_count <= 5]
                if not cands:
                    break
                expected.append(cands[rng.below(len(cands))])
                cur = expected[-1].after
            try:
                walk = random_walk(start, 3, seed, h_null_only=True, max_tets=5)
            except Stuck:
                assert len(expected) < 3
                continue
            assert [_move_key(m) for m in walk] == \
                [_move_key(m) for m in expected]
            walked += 1
    assert walked > 100


def _report_text(report):
    return json.dumps([[st.description, st.before_value.to_str(),
                        st.after_value.to_str(), st.equal,
                        st.sign_refined_equal, st.transport_note]
                       for st in report.steps]
                      + [report.all_equal, report.first_violation])


def test_shared_work_stays_invisible(census2):
    # Free-abelian, cyclic:5, then free-abelian again on one walk object
    # print as a fresh parse and a fresh walk do.  Start 33 keeps its
    # sign-refined flips.
    checked = 0
    for i in (5, 12, 33, 40):
        text = serialize(census2[i])
        try:
            walk = random_walk(parse(text), 6, seed=i, h_null_only=True,
                               max_tets=6)
        except Stuck:
            continue
        spine = walk[0].before
        for kind, order in (("free_abelian", None), ("cyclic", 5),
                            ("free_abelian", None)):
            shared = invariance_suite(spine, walk, kind, order=order)
            fresh = parse(text)
            fresh_walk = random_walk(fresh, 6, seed=i, h_null_only=True,
                                     max_tets=6)
            assert _report_text(shared) == _report_text(
                invariance_suite(fresh, fresh_walk, kind, order=order))
        assert spine.complex.rational_complex.passes
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("kind,order", [("free_abelian", None), ("cyclic", 5),
                                        ("trivial", None)])
def test_trivial_suites_match_the_twisted_oracle(census2, kind, order):
    # On every census-2 start where the representation is trivial, the
    # suite over the rational complexes prints what a TwistedComplex over
    # Q(zeta_n) per walk spine, carried by transport_homology, prints on a
    # fresh copy of the spine and walk.
    checked = 0
    for i, start in enumerate(census2):
        spine = parse(serialize(start))
        rep = make_representation(spine.group, kind, order)
        if any(e != rep.identity for e in rep.exponents):
            continue
        try:
            walk = random_walk(spine, 4, seed=i, h_null_only=True, max_tets=5)
        except Stuck:
            continue
        report = invariance_suite(spine, walk, kind, order=order)
        fresh = parse(serialize(start))
        fresh_walk = random_walk(fresh, 4, seed=i, h_null_only=True,
                                 max_tets=5)
        assert _report_text(report) == twisted_invariance_text(
            fresh, fresh_walk, kind, order)
        checked += 1
    assert checked == {"free_abelian": 25, "cyclic": 25, "trivial": 45}[kind]


def test_walk_builds_one_smith_form(census2, monkeypatch):
    # A certified walk carries its characters by transport, so the suites
    # for both representations read H_1 of the start spine only: one Smith
    # form, not one per spine of the walk.
    spine = parse(serialize(census2[5]))
    walk = random_walk(spine, 10, seed=1, h_null_only=True, max_tets=6)
    assert len(walk) == 10
    calls = []

    def counted(*args):
        calls.append(args)
        return smith_normal_form(*args)
    monkeypatch.setattr(complexes, "smith_normal_form", counted)
    for kind, order in (("free_abelian", None), ("cyclic", 5)):
        invariance_suite(spine, walk, kind, order=order)
    assert len(calls) == 1


def _count_carries(monkeypatch):
    """The moves of the transports that do work, over rational complexes
    and over twisted ones."""
    original = moves._carry
    carried = {"rational": [], "twisted": []}

    def counted(move, before, after, lifts):
        rational = before is move.before.complex.rational_complex
        carried["rational" if rational else "twisted"].append(move)
        return original(move, before, after, lifts)
    monkeypatch.setattr(moves, "_carry", counted)
    return carried


def _walk_both_suites(census2, monkeypatch, start):
    """A 10-step walk from census-2 ``start``, and the moves of the
    transports that do work in the suites of both representations."""
    spine = parse(serialize(census2[start]))
    walk = random_walk(spine, 10, seed=1, h_null_only=True, max_tets=6)
    assert len(walk) == 10
    carried = _count_carries(monkeypatch)
    for kind, order in (("free_abelian", None), ("cyclic", 5)):
        report = invariance_suite(spine, walk, kind, order=order)
        assert [st.sign_refined_equal for st in report.steps] == [True] * 10
    return walk, carried


def test_trivial_lifts_travel_with_the_orientation(census2, monkeypatch):
    # On start 7 both representations are trivial: their lifts are the
    # orientation, which each move carries once for both suites.
    walk, carried = _walk_both_suites(census2, monkeypatch, 7)
    assert carried == {"rational": walk, "twisted": []}


def test_walk_transports_each_orientation_once(census2, monkeypatch):
    # The suites for both representations carry one orientation along a
    # walk, so each move transports it once, not once per suite; start 5
    # twists both, whose lifts each move carries once per suite.
    walk, carried = _walk_both_suites(census2, monkeypatch, 5)
    assert carried == {"rational": walk, "twisted": walk * 2}

    # Other lifts are transported afresh, once: those with every lift of
    # positive degree negated.
    move = walk[0]
    X, X2 = move.before.complex, move.after.complex
    lifts = X.rational_complex.default_lifts
    other = {i: [[-x for x in vec] for vec in vecs] if i else vecs
             for i, vecs in lifts.items()}
    fresh = moves.transport_rational_homology(move, X, X2, other)
    assert moves.transport_homology(move, X.rational_complex,
                                    X2.rational_complex, other) is fresh
    assert moves.transport_rational_homology(move, X, X2, lifts) != fresh
    assert len(carried["rational"]) == 11


def test_failed_orientation_transport_is_not_kept(census2, monkeypatch):
    # A suite whose orientation transport fails at the first step keeps
    # nothing on the move: a later suite over the same walk transports it
    # and compares sign-refined values at every step.
    spine = census2[5]
    walk = random_walk(spine, 4, seed=1, h_null_only=True)
    with monkeypatch.context() as m:
        _failing_at(m, 2)
        failed = invariance_suite(spine, walk, "cyclic", order=5)
    assert failed.steps[0].transport_note == "orientation transport failed: x"
    report = invariance_suite(spine, walk, "cyclic", order=5)
    assert [st.transport_note for st in report.steps] == [None] * 4
    assert [st.sign_refined_equal for st in report.steps] == [True] * 4


def test_opposite_orientation_is_carried_negated(census2):
    # Along a walk the opposite orientation carries to the carried default
    # one with its degree-0 lift negated, and its sign-refined value stays
    # the same at every step, opposite to the default one's.
    spine = parse(serialize(census2[5]))
    walk = random_walk(spine, 10, seed=1, h_null_only=True, max_tets=6)
    X = spine.complex
    tc = TwistedComplex(spine, X, SpiderAnchors(spine, X),
                        make_representation(spine.group, "cyclic", 5))
    lifts = tc.default_lifts
    default, opposite = _orientations(X)
    values = []
    for move in [*walk, None]:
        values.append([sign_refined_torsion(spine, tc, h=lifts or None, orientation=o)
                       .to_str() for o in (default, opposite)])
        if move is None:
            break
        spine, X2 = move.after, move.after.complex
        after = TwistedComplex(spine, X2, SpiderAnchors(spine, X2),
                               moves.transport_representation(move, tc.rep))
        lifts = moves.transport_homology(move, tc, after, lifts)
        default = moves.transport_rational_homology(move, X, X2, default)
        opposite = moves.transport_rational_homology(move, X, X2, opposite)
        assert opposite == {**default, 0: [[-x for x in default[0][0]]]}
        X, tc = X2, after
    assert len(values) == 11 and values.count(values[0]) == 11
    assert values[0][0] != values[0][1]


def test_census_encodes_each_seed_once_and_builds_only_branchings(monkeypatch):
    # census_branched(2) encodes from its 24 seeds, once, for the least
    # seeds, only the 23 of its 60 classes that have a branching, and no
    # other candidate: the search's canonicity test reads the table, not a
    # code.  Of the 118 branchings that pass the face-triangle screen, only
    # the 46 whose signature is new build a spine, and only the 23 classes
    # that have one build a triangulation.
    counts = {"seeds": 0, "triangulations": 0, "spines": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper
    encode = counted("seeds", spine_module._encode_seed)
    monkeypatch.setattr(spine_module, "_encode_seed", encode)
    monkeypatch.setattr(census, "Triangulation",
                        counted("triangulations", census.Triangulation))
    monkeypatch.setattr(census, "BranchedSpine",
                        counted("spines", census.BranchedSpine))
    assert len(census.census_branched(2)) == 46
    assert counts == {"seeds": 552, "triangulations": 23, "spines": 46}


def _orientations(X):
    """The default orientation of X's rational complex, and the one with
    its degree-0 lift negated (the opposite orientation)."""
    lifts = X.rational_complex.default_lifts
    return lifts, {**lifts, 0: [[-x for x in lifts[0][0]]]}


def test_rational_signs_are_kept_per_orientation(census2):
    # Opposite orientations of one rational complex, read in turn from its
    # memo, give opposite values, each as a fresh spine gives it.
    for s in census2[:12]:
        values = []
        for shared in (True, False):
            spine = parse(serialize(s))
            for k in (0, 1, 0):
                if not shared:
                    spine = parse(serialize(s))
                X = spine.complex
                tc = TwistedComplex(spine, X, SpiderAnchors(spine, X),
                                    make_representation(spine.group, "cyclic", 5))
                values.append(sign_refined_torsion(
                    spine, tc, h="auto", orientation=_orientations(X)[k]).to_str())
        assert values[:3] == values[3:]
        assert values[0] == values[2] != values[1]


def test_spine_caches_make_no_reference_cycle(census2):
    # Everything a spine keeps refers to it weakly or not at all, so it is
    # freed by reference counting alone, with every cache filled: the
    # torsion memos of the complexes and the lifts each move carried, by
    # a twisting suite (cyclic:5 on start 5) and a trivial one.
    spine = parse(serialize(census2[5]))
    walk = random_walk(spine, 3, seed=1, h_null_only=True)
    X = spine.complex
    rep = make_representation(spine.group, "cyclic", 5)
    tc = TwistedComplex(spine, X, SpiderAnchors(spine, X), rep)
    sign_refined_torsion(spine, tc, h="auto")
    for kind, order in (("cyclic", 5), ("trivial", None)):
        invariance_suite(spine, walk, kind, order=order)
    assert tc.passes and X.rational_complex.passes
    assert all(len(move._carried) == 2
               and move.after.complex.rational_complex.passes
               for move in walk)
    refs = [weakref.ref(x) for x in (spine, X, spine.group, walk[-1].after,
                                     walk[-1])]
    gc.disable()
    try:
        del spine, walk, X, rep, tc
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _failing_at(monkeypatch, call):
    """Make ``moves.transport_homology`` raise TransportFailure("x"), of a
    degree-2 class, on its ``call``-th call.  Each step of a suite calls it
    for the lifts, then (through ``transport_rational_homology``) for the
    orientation: twice per step, also in a trivial suite, whose lifts are
    the orientation's and whose second call reads what the first
    carried."""
    original = moves.transport_homology
    calls = []

    def patched(*args):
        calls.append(args)
        if len(calls) == call:
            exc = TransportFailure("x")
            exc.degree = 2
            raise exc
        return original(*args)
    monkeypatch.setattr(moves, "transport_homology", patched)


# On census-2 start 5 cyclic:5 twists; on start 7 its character is trivial.
@pytest.mark.parametrize("start", [5, 7])
@pytest.mark.parametrize("step", [0, 2])
def test_transport_failure_names_its_step(census2, monkeypatch, tmp_path,
                                          capsys, step, start):
    path = tmp_path / "start.spine"
    path.write_text(serialize(census2[start]))
    walk = random_walk(census2[start], 4, seed=1, h_null_only=True)
    call = 2 * step + 1
    with monkeypatch.context() as m:
        _failing_at(m, call)
        with pytest.raises(TransportFailure) as exc:
            invariance_suite(census2[start], walk, "cyclic", order=5)
    assert (exc.value.step, exc.value.move, exc.value.degree) == \
        (step, describe_move(walk[step]), 2)
    assert str(exc.value) == "homology transport failed: x"

    with monkeypatch.context() as m:
        _failing_at(m, call)
        status = cli.main(["invariance", str(path), "--steps", "4",
                           "--seed", "1", "--rep", "cyclic:5"])
    report = json.loads(capsys.readouterr().out)
    assert status == 2
    assert report == {
        "command": "invariance", "error": "TransportFailure",
        "message": "step %d (%s), degree 2: homology transport failed: x"
                   % (step, describe_move(walk[step]))}


# Start 5 under cyclic:5 has lifts in degrees 1 and 3, start 7 (trivial)
# in degrees 0, 2 and 3: a class that cannot be cleared is the first of
# degree 1 or 2.
@pytest.mark.parametrize("start, degree, where",
                         [(5, 1, "the central edge"), (7, 2, "the site")])
def test_stuck_class_names_its_degree(census2, monkeypatch, tmp_path, capsys,
                                      start, degree, where):
    path = tmp_path / "start.spine"
    path.write_text(serialize(census2[start]))
    walk = random_walk(census2[start], 4, seed=1, h_null_only=True)
    monkeypatch.setattr(moves, "_zero_out", lambda *args: None)
    with pytest.raises(TransportFailure) as exc:
        invariance_suite(census2[start], walk, "cyclic", order=5)
    message = "degree-%d class stuck on %s" % (degree, where)
    assert (exc.value.step, exc.value.degree) == (0, degree)
    assert str(exc.value).startswith("homology transport failed: " + message)
    assert cli.main(["invariance", str(path), "--steps", "4", "--seed", "1",
                     "--rep", "cyclic:5"]) == 2
    assert json.loads(capsys.readouterr().out)["message"].startswith(
        "step 0 (%s), degree %d: homology transport failed: %s"
        % (describe_move(walk[0]), degree, message))


def test_degree_3_failures_name_their_degree(census2):
    # A 3-chain that is no cycle fails to carry, as a degree-3 class, at
    # either of the two checks of degree 3.
    messages = set()
    for move in random_walk(census2[0], 4, seed=1, h_null_only=True):
        before = move.before.complex.rational_complex
        after = move.after.complex.rational_complex
        field = before.field
        for j in range(before.dims[3]):
            chain = [field.one if k == j else field.zero
                     for k in range(before.dims[3])]
            try:
                moves._carry(move, before, after, {3: [chain]})
            except TransportFailure as exc:
                assert exc.degree == 3
                messages.add(str(exc))
    assert messages == {"inconsistent subdivision weights on the site",
                        "transported degree-3 chain is not a cycle"}
