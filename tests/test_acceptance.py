"""Acceptance suite: one test per criterion, with stated budgets.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure); tolerances are exact unless stated otherwise.  The corpus is
the full branched-spine census with up to three tetrahedra.
"""

import random
import time

from spinetorsion.census import census_branched
from spinetorsion.complexes import (CellComplexX, GroupData, Representation,
                                    SpiderAnchors, TwistedComplex)
from spinetorsion.errors import Stuck
from spinetorsion.euler import (euler_chain_class, maw_cochain,
                                path_choice_independence)
from spinetorsion.moves import apply_positive, h_cycle_check, is_rigid, \
    random_walk
from spinetorsion.spinefile import parse
from spinetorsion.torsion import (auto_twisted_homology, canonical_up_to_sign,
                                  invariance_suite, sign_refined_torsion,
                                  torsion)

from fixtures import GOLDEN, GOLDEN_TABLE
from oracles import (default_z_character, fox_alexander,
                     matches_integer_complex, sign_refined_under,
                     torsion_under, twisted_h1_order, verify_complex)

# Acyclic twisted complexes encountered while running criteria 5-7,
# examined by criterion 8.
ACYCLIC_INSTANCES = []


def _record_acyclicity(spine, tc):
    field = tc.field
    dims = tc.dims
    ranks = [0]  # rank of d_0
    for m in (tc.d1, tc.d2, tc.d3):
        ranks.append(field.rank(m) if m and m[0] else 0)
    ranks.append(0)  # rank of d_4
    betti = [dims[i] - ranks[i] - ranks[i + 1] for i in range(4)]
    if not any(betti):
        ACYCLIC_INSTANCES.append(spine)


def _contexts(spine):
    X = CellComplexX(spine)
    G = GroupData(X)
    A = SpiderAnchors(spine, X)
    return X, G, A


def report(name, start, extra=""):
    print("ACCEPTANCE %s: PASS (%.2fs)%s" % (name, time.time() - start,
                                             " " + extra if extra else ""))


def test_criterion_1_boundary_formulas(corpus3):
    start = time.time()
    assert len(corpus3) >= 50
    for s in corpus3:
        X = CellComplexX(s)
        assert all(v == 0 for v in X.d1[0])
        for fc, (a, b, c) in enumerate(X.face_sides):
            expected = {}
            expected[a] = expected.get(a, 0) + 1
            expected[b] = expected.get(b, 0) + 1
            expected[c] = expected.get(c, 0) - 1
            for e in range(X.n_edges):
                assert X.d2[e][fc] == expected.get(e, 0)
        for t in range(X.n_tets):
            col = [X.d3[r][t] for r in range(X.n_faces)]
            assert sum(col) == 0 and all(abs(v) <= 2 for v in col)
        for i in range(X.n_edges):
            for j in range(X.n_tets):
                assert sum(X.d2[i][k] * X.d3[k][j]
                           for k in range(X.n_faces)) == 0
    elapsed = time.time() - start
    assert elapsed < 5.0, "boundary-formula pass exceeded 5 s: %.2fs" % elapsed
    report("1 boundary-formula conformance", start,
           "(%d spines)" % len(corpus3))


def test_criterion_2_euler_characteristic_identity(corpus3):
    start = time.time()
    for s in corpus3:
        chi_spine, chi_x = s.euler_characteristics()
        assert chi_x == 1 - chi_spine
        cw = 1 - s.region_count + s.spine_edge_count - s.tet_count
        assert cw == chi_x
        link_total = sum(chi for chi, _ in s.boundary_report())
        assert link_total == 2 * (1 - chi_x)
    report("2 Euler-characteristic identity", start)


def test_criterion_3_one_vertex_census():
    start = time.time()
    spines = census_branched(1)
    elapsed = time.time() - start
    assert len(spines) == 4
    assert all(is_rigid(s) for s in spines)
    assert sorted(len(s.boundary_report()) for s in spines) == [1, 1, 2, 2]
    for s in spines:
        assert all((chi, g) == (2, 0) for chi, g in s.boundary_report())
    assert elapsed < 1.0, "one-vertex census exceeded 1 s: %.2fs" % elapsed
    report("3 one-vertex census", start)


def test_criterion_4_certificate_golden_table():
    start = time.time()
    spine = parse(GOLDEN)
    move = apply_positive(spine, 0)[0]
    table = h_cycle_check(move)
    assert table.rows == GOLDEN_TABLE
    assert len(table.rows) == 21
    assert table.is_null and table.total == {}
    report("4 certificate golden table", start)


def test_criterion_5_twisted_complexes(corpus3):
    start = time.time()
    for s in corpus3:
        X, G, A = _contexts(s)
        trivial = TwistedComplex(s, X, A, Representation.trivial(G))
        assert matches_integer_complex(trivial)
        reps = [Representation.free_abelian(G)] + \
            [Representation.cyclic(G, n) for n in (2, 3, 5)]
        for rep in reps:
            tc = TwistedComplex(s, X, A, rep)
            assert verify_complex(tc)
            _record_acyclicity(s, tc)
    elapsed = time.time() - start
    assert elapsed < 60.0, "twisted pass exceeded 60 s: %.2fs" % elapsed
    report("5 twisted dd=0 and trivial specialisation", start,
           "(%d spines x 4 reps)" % len(corpus3))


def test_criterion_6_torsion_well_definedness(corpus12):
    start = time.time()
    rnd = random.Random(2024)
    instances = 0
    for s in corpus12:
        if instances >= 20:
            break
        X, G, A = _contexts(s)
        for rep in (Representation.free_abelian(G),
                    Representation.cyclic(G, 5)):
            tc = TwistedComplex(s, X, A, rep)
            lifts = auto_twisted_homology(tc)
            h = lifts if lifts else None
            base = torsion(tc, h=h)
            _record_acyclicity(s, tc)
            for _ in range(5):
                strat = {}
                for i, ncols in ((1, X.n_edges), (2, X.n_faces),
                                 (3, X.n_tets)):
                    order = list(range(ncols))
                    rnd.shuffle(order)
                    strat[i] = order
                value = torsion_under(tc, lifts, strat, {})
                assert canonical_up_to_sign(tc.field, value) == base.value
            refined = sign_refined_torsion(s, tc, h=h)
            orientation = X.rational_complex.default_lifts
            for _ in range(10):
                sig = {i: rnd.sample(range(n), n)
                       for i, n in enumerate(tc.dims)}
                value = torsion_under(tc, lifts, {}, sig)
                assert canonical_up_to_sign(tc.field, value) == base.value
                other = sign_refined_under(tc, lifts, orientation, {}, sig)
                assert other == refined.value
            instances += 1
    assert instances >= 20
    report("6 torsion well-definedness", start,
           "(%d instances x 5 strategies x 10 orders)" % instances)


def test_criterion_7_invariance_along_walks(census2):
    start = time.time()
    walks_run = 0
    steps_total = 0
    sign_refined_checked = 0
    i = 0
    while walks_run < 20 and i < len(census2):
        s = census2[i]
        i += 1
        try:
            walk = random_walk(s, 10, seed=9000 + i, h_null_only=True,
                               max_tets=6)
        except Stuck:
            continue
        if not walk:
            continue
        assert all(m.after.tet_count <= 6 for m in walk)
        for kind, order in (("free_abelian", None), ("cyclic", 5)):
            result = invariance_suite(s, walk, kind, order=order)
            assert result.all_equal, \
                "torsion changed at step %s" % result.first_violation
            for st in result.steps:
                assert st.equal
                if st.sign_refined_equal is not None:
                    assert st.sign_refined_equal
                    sign_refined_checked += 1
        # record acyclic twisted complexes seen on the walk endpoints
        for spine in [s] + [m.after for m in walk]:
            X, G, A = _contexts(spine)
            tc = TwistedComplex(spine, X, A, Representation.free_abelian(G))
            _record_acyclicity(spine, tc)
        walks_run += 1
        steps_total += len(walk)
    elapsed = time.time() - start
    assert walks_run >= 20
    assert elapsed < 600.0, "invariance pass exceeded 10 min: %.1fs" % elapsed
    report("7 invariance along h-null walks", start,
           "(%d walks, %d steps, %d sign-refined comparisons)"
           % (walks_run, steps_total, sign_refined_checked))


def test_criterion_8_acyclicity_forces_zero_euler_characteristic():
    # An acyclic complex of free modules has zero alternating rank sum,
    # so the quotient complex has Euler characteristic 0, equivalently
    # the spine has Euler characteristic 1 (see decisions ledger on the
    # chi convention).  Any counterexample fails the build.
    start = time.time()
    assert ACYCLIC_INSTANCES, "criteria 5-7 encountered no acyclic instance"
    for spine in ACYCLIC_INSTANCES:
        chi_spine, chi_x = spine.euler_characteristics()
        assert chi_x == 0, "acyclic instance with chi(X) = %d" % chi_x
        assert chi_spine == 1
    report("8 acyclicity Euler-characteristic guard", start,
           "(%d acyclic instances)" % len(ACYCLIC_INSTANCES))


def test_criterion_9_fox_calculus_cross_check(corpus3):
    start = time.time()
    checked = 0
    for s in corpus3:
        X = CellComplexX(s)
        G = GroupData(X)
        chi = default_z_character(G)
        if chi is None:
            continue
        fox = fox_alexander(G, chi)
        order = twisted_h1_order(X, G, chi)
        assert fox == order, \
            "Fox polynomial disagrees with the twisted homology order"
        checked += 1
    assert checked >= 20
    report("9 Fox-calculus cross-check", start, "(%d spines)" % checked)


def test_criterion_10_euler_chain_coherence(corpus3):
    start = time.time()
    trivial_cases = 0
    for s in corpus3:
        assert path_choice_independence(s)
        _cochain, counts = maw_cochain(s)
        assert all(n % 2 == 0 for n in counts)
        G = GroupData(CellComplexX(s))
        if G.free_rank == 0 and not G.torsion:
            free, tors = euler_chain_class(s)
            assert not any(free) and not any(tors)
            trivial_cases += 1
    assert trivial_cases > 0
    report("10 Euler chain coherence", start,
           "(%d trivial-homology cases)" % trivial_cases)
