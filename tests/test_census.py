import hashlib
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from spinetorsion import census
from spinetorsion.census import census_branched, enumerate_triangulations
from spinetorsion.moves import is_rigid
from spinetorsion.perms import ALL_PERMS, SIGN
from spinetorsion.spine import (_BRANCH_BITS, _branch_code, _encode_seed, enumerate_branchings,
                                least_seeds)
from spinetorsion.spinefile import serialize
from spinetorsion.triangulation import Triangulation, edge_walk, glue_table

from oracles import (assert_valid_glue, branch_code, complete_gluing_tables, complete_gluings,
                     least_code_triangulations, orbit_table_classes)

# sha256 of "count <N>\n" followed by the serialised census, in census order.
CENSUS_DIGESTS = {
    1: (4, "b3f05de6f790965c35049f7871220cb58691ae5e70efb9fb3a5dc5d605da7c5f"),
    2: (46, "00605b0f399f5850873737b1bb49214b9c7a3f1dfb2e2eda7fc1f2264bdaba54"),
    3: (800, "71fd1be49010e5e9e2e25461e38e661d54f0d62787e39798fcf378c5c429e9e4"),
    4: (22744, "7d377be2990b6e38df665d54fdc5fa51bd128bb417cffe87b710bc9571ca95c9"),
}


def test_census_golden_digests(census1, census2, census3):
    for n, spines in ((1, census1), (2, census2), (3, census3)):
        count, digest = CENSUS_DIGESTS[n]
        assert len(spines) == count
        text = "count %d\n" % len(spines) + "".join(serialize(s) for s in spines)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_one_tet_census(census1):
    assert len(census1) == 4
    assert all(is_rigid(s) for s in census1)
    counts = sorted(len(s.boundary_report()) for s in census1)
    assert counts == [1, 1, 2, 2]
    for s in census1:
        for chi, genus in s.boundary_report():
            assert (chi, genus) == (2, 0)


def test_census_members_validate_and_are_distinct(census2):
    codes = set()
    for s in census2:
        code = s.canonical_encoding()
        assert code not in codes
        codes.add(code)
        assert s.spine_edge_count == 2 * s.spine_vertex_count


def test_census_deterministic():
    a = [s.canonical_encoding() for s in census_branched(2)]
    b = [s.canonical_encoding() for s in census_branched(2)]
    assert a == b
    assert a == sorted(a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_table_matches_least_code_dedup(n):
    # The census keeps the same first candidate of each class as a dedup
    # by least code over all seeds of every candidate, and each class's
    # table copy is a gluing.
    expected = [trg.glue for trg in least_code_triangulations(n)]
    found = [trg.glue for trg in enumerate_triangulations(n)]
    for glue in found:
        assert_valid_glue(glue)
    assert found == expected


@pytest.mark.parametrize("n, count", [(1, 27), (2, 648), (3, 24057)])
def test_table_search_matches_dict_search(n, count):
    # The two unpruned oracle searches, over one live glue table and over
    # gluing dicts, visit the same candidates in the same order, each the
    # table of its dict.  Each table is connected: the walk from
    # tetrahedron 0 reaches all n.
    seen = 0
    for glue, gluings in zip(complete_gluing_tables(n), complete_gluings(n), strict=True):
        assert glue == glue_table(n, gluings)
        assert len(_encode_seed(glue, n, 0, 0, None)[2]) == n
        seen += 1
    assert seen == count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classes_match_orbit_table_oracle(n):
    # The pruned search keeps, in the same order, the first candidate of
    # each class that the unpruned search deduplicated by an orbit table
    # keeps, with the same least code and seeds.
    found = [([row[:] for row in glue], least_seeds(glue, (1,) * n))
             for glue in census._classes(n)]
    expected = [([row[:] for row in glue], least) for glue, least in orbit_table_classes(n)]
    assert found == expected


@pytest.mark.parametrize("n, resumed", [(2, 224), (3, 3152)])
def test_search_prunes_to_pinned_node_count(n, resumed, monkeypatch):
    # One seed resumption at the root and one per gluing tried: 223 and
    # 3,151 search nodes, against 648 and 24,057 complete candidates
    # alone unpruned.  An exhaustive search visits more nodes, and one
    # that prunes on a tie fewer.
    calls = []
    resume = census._resume

    def counted(*args):
        calls.append(None)
        return resume(*args)
    monkeypatch.setattr(census, "_resume", counted)
    assert sum(1 for _ in census._classes(n)) == {2: 60, 3: 889}[n]
    assert len(calls) == resumed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_branchings_match_built_triangulation(n):
    # The branchings and ranks the census reads off each class's edge walk
    # are those of the spines built on its Triangulation, in order, and the
    # walk it hands that Triangulation is the one it would take itself.
    branched = 0
    for glue in census._classes(n):
        walk = edge_walk(glue, n)
        found = list(census._class_branchings(walk))
        trg = Triangulation([row[:] for row in glue])
        assert walk == (trg.edge_classes, trg.pair_classes)
        assert found == [(s.branching, s.ranks) for s in enumerate_branchings(trg)]
        branched += bool(found)
    assert branched == {1: 3, 2: 23, 3: 269}[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_walks_each_class_once(n, monkeypatch):
    # census_branched walks the edges of each class's table once: the
    # Triangulation of a kept class takes that walk instead of its own.
    from spinetorsion import triangulation
    calls = []

    def counted(glue, tet_count, _walk=triangulation.edge_walk):
        calls.append(tet_count)
        return _walk(glue, tet_count)
    monkeypatch.setattr(census, "edge_walk", counted)
    monkeypatch.setattr(triangulation, "edge_walk", counted)
    spines = census_branched(n)
    assert len(spines) == CENSUS_DIGESTS[n][0]
    assert len(calls) == {1: 6, 2: 60, 3: 889}[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_least_seeds_runs_once_per_branched_class(n, monkeypatch):
    # The census encodes a class from its seeds only to name its spines:
    # once per class with a branching (3 / 23 / 269 of 6 / 60 / 889), and
    # never for the triangulations alone.
    calls = []

    def counted(*args):
        calls.append(None)
        return least_seeds(*args)
    monkeypatch.setattr(census, "least_seeds", counted)
    census_branched(n)
    assert len(calls) == {1: 3, 2: 23, 3: 269}[n]
    calls.clear()
    enumerate_triangulations(n)
    assert calls == []


def test_triangulation_enumeration_counts():
    assert len(enumerate_triangulations(1)) == 6
    assert len(census_branched(1)) == 4


def _labelled_gluings(n):
    """T(n): gluings of n labelled tetrahedra with every permutation odd,
    (4n-1)!! face pairings times 3 odd permutations per pair."""
    return prod(range(1, 4 * n, 2)) * 3 ** (2 * n)


def _connected_gluings(n):
    """C(n), from the exponential formula T(n) = sum over k of
    binom(n-1, k-1) C(k) T(n-k): the component of tetrahedron 0 has k."""
    t = [_labelled_gluings(m) for m in range(n + 1)]
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = t[m] - sum(comb(m - 1, k - 1) * c[k] * t[m - k]
                          for k in range(1, m))
    return c[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_counts_by_orbit_counting(n):
    # The relabelling group S_n x A_4^n, of order n! 12^n, acts on the
    # connected labelled gluings; a class T has n! 12^n / |Aut T| members,
    # and |Aut T| is 12n over the number of distinct codes from its 12n
    # even seeds.  A missing class lowers the sum, a repeated one raises it.
    even = [r for r in range(24) if SIGN[r] == 1]
    total = 0
    for trg in enumerate_triangulations(n):
        codes = {tuple(_encode_seed(trg.glue, n, t0, rho0, None)[0])
                 for t0 in range(n) for rho0 in even}
        total += Fraction(factorial(n) * 12 ** n * len(codes), 12 * n)
    assert total == _connected_gluings(n)


def test_census_4_is_pinned(monkeypatch):
    # 27,267 triangulation classes, and the spines of CENSUS_DIGESTS[4].
    classes = census._classes
    counted = []

    def counting(n):
        for item in classes(n):
            counted.append(None)
            yield item
    monkeypatch.setattr(census, "_classes", counting)
    spines = census_branched(4)
    count, digest = CENSUS_DIGESTS[4]
    text = "count %d\n" % len(spines) + "".join(serialize(s) for s in spines)
    assert (len(counted), len(spines)) == (27267, count)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_census_4_counts_by_orbit_counting():
    # As for n <= 3, with |Aut T| the number of seeds that reach the least
    # code of T, read off the glue table of each class the search yields.
    total = sum(Fraction(factorial(4) * 12 ** 4, len(least_seeds(glue, (1,) * 4)[1]))
                for glue in census._classes(4))
    assert total == _connected_gluings(4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_branched_counts_by_orbit_counting(n, corpus3):
    # Aut T, the seeds that reach the least code of T, acts on the
    # branchings of T; the class of a branching P has |Aut T| / |Aut P|
    # members, for Aut P the seeds among those that reach the least branch
    # code of P.  A census that merges two classes of T or keeps one twice
    # misses the number of branchings of T.
    by_code = {}
    for spine in corpus3:
        if spine.tet_count == n:
            trg = spine.triangulation
            code, seeds = least_seeds(trg.glue, trg.orientations)
            branch = [_branch_code(spine.ranks, rho, order) for rho, order in seeds]
            by_code[tuple(code)] = by_code.get(tuple(code), 0) + Fraction(
                len(seeds), branch.count(min(branch)))
    branched = 0
    for trg in enumerate_triangulations(n):
        code, _seeds = least_seeds(trg.glue, trg.orientations)
        count = len(enumerate_branchings(trg))
        assert by_code.pop(tuple(code), 0) == count
        branched += count > 0
    assert by_code == {} and branched > 0


def test_branch_bits_match_rank_comparison():
    # One tetrahedron under every relabelling rho and every rank order.
    for rho in range(24):
        for k, rk in enumerate(ALL_PERMS):
            expected = branch_code((rk,), (rho,), (0,))
            assert _BRANCH_BITS[rho][k] == expected
            assert _branch_code((rk,), (rho,), (0,)) == expected


def test_branch_codes_match_rank_comparison_on_census(corpus3):
    # Every seed that reaches the least gluing code of a census <= 3 spine.
    seeds_checked = 0
    for spine in corpus3:
        trg = spine.triangulation
        _code, seeds = least_seeds(trg.glue, trg.orientations)
        for rho, order in seeds:
            assert _branch_code(spine.ranks, rho, order) == \
                branch_code(spine.ranks, rho, order)
        seeds_checked += len(seeds)
    assert seeds_checked >= len(corpus3) == 850


# sha256 of repr(boundary_report()) per spine of census <= 3, one a line.
BOUNDARY_DIGEST = "e50ca4c3ef17dec28a2bafe23a83fc4001c2b90b0e0e538fd58fdc2c1fcc10c1"


def test_boundary_reports_are_pinned(corpus3):
    text = "\n".join(repr(s.boundary_report()) for s in corpus3)
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDARY_DIGEST
