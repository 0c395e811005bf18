"""The census move graph at N = 3: the branched spines of census <= 3 as
nodes, keyed by canonical encoding, and every move between them whose
after spine has at most three tetrahedra as an edge.  It turns the sampled
random walks into a finite check of census completeness, moves and the
invariance of torsion against each other."""

import pytest

from spinetorsion.moves import _candidates, _rebuild, h_cycle_check
from spinetorsion.torsion import invariance_suite


def move_graph(spines, n):
    """Every move of a spine in ``spines`` whose after spine has at most
    ``n`` tetrahedra, as (before index, after index, move); the after index
    is None for a spine outside ``spines``."""
    nodes = {s.canonical_encoding(): i for i, s in enumerate(spines)}
    assert len(nodes) == len(spines)
    edges = []
    for i, s in enumerate(spines):
        for cand in _candidates(s):
            site = cand[0]
            if s.tet_count + len(site[3]) - len(site[2]) <= n:
                move = _rebuild(s, *cand)
                edges.append((i, nodes.get(move.after.canonical_encoding()), move))
    return edges


def components(count, edges):
    """The root of each node's component under ``edges`` (union-find)."""
    parent = list(range(count))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _move in edges:
        parent[root(i)] = root(j)
    return [root(i) for i in range(count)]


@pytest.fixture(scope="module")
def graph3(corpus3):
    edges = move_graph(corpus3, 3)
    return edges, [e for e in edges if h_cycle_check(e[2]).is_null]


def test_move_graph_stays_in_the_census(corpus3, graph3):
    # Every after spine is a census member, so census completeness and the
    # moves check each other; H1 is constant on every component.
    edges, null = graph3
    assert (len(corpus3), len(edges), len(null)) == (850, 256, 208)
    assert all(j is not None for _i, j, _move in edges)
    roots = components(len(corpus3), edges)
    assert len(set(roots)) == 734
    assert len(set(components(len(corpus3), null))) == 756
    h1 = {}
    for s, r in zip(corpus3, roots):
        group = (s.group.free_rank, s.group.torsion)
        assert h1.setdefault(r, group) == group


def test_h_null_edges_keep_torsion_up_to_sign(graph3):
    # Sign-refined torsion is not compared: some edges flip its sign until
    # Turaev's (-1)^N term is added.
    runs = 0
    for _i, _j, move in graph3[1]:
        for kind, order in (("free_abelian", None), ("cyclic", 5)):
            report = invariance_suite(move.before, [move], kind, order)
            assert report.steps[0].equal
            runs += 1
    assert runs == 416
