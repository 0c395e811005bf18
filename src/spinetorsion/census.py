"""Exhaustive enumeration of branched spines with a given number of tetrahedra.

Triangulations are generated by a canonical backtracking search over face
gluings, held in one glue table that the search sets and undoes in place,
passing the first open face down.  Relabelling freedom is used in the
standard two ways: every gluing permutation is odd (so all tetrahedron
orientation bits are +1 and the triangulation is oriented by
construction), and the first gluing into a fresh tetrahedron uses a fixed
permutation.  A canonicity test inside the search (orderly generation,
Read 1978; Faradzev 1978) keeps the first candidate of each class and
holds no table of the classes kept, so the output is pairwise
non-isomorphic in a deterministic order.

The branched census works on the glue table of each class too: one
``edge_walk`` gives its edge classes, the face-triangle screen its
branchings and the rank table their ranks.  The seeds that reach the
least gluing code of a class with a branching give every branching's
signature, so a ``Triangulation``, built from a row copy of the table
and that walk, and a ``BranchedSpine`` are made only for a new one.
"""

from .perms import ALL_PERMS, COMPOSE, INVERSE, SIGN
from .spine import BranchedSpine, _branchings, least_seeds, signature_from_seeds
from .triangulation import Triangulation, edge_walk

_ODD_WITH_IMAGE = {
    (f, f2): tuple((r, INVERSE[r]) for r in range(24)
                   if SIGN[r] == -1 and ALL_PERMS[r][f] == f2)
    for f in range(4) for f2 in range(4)
}
"""``_ODD_WITH_IMAGE[f, f2]``: (index, inverse index) of every odd
permutation carrying face f to face f2."""
_EVEN = tuple(r for r in range(24) if SIGN[r] == 1)


def enumerate_triangulations(tet_count):
    """All connected oriented triangulations with the given size, up to isomorphism."""
    return [Triangulation([row[:] for row in glue]) for glue in _classes(tet_count)]


def census_branched(tet_count):
    """All branched spines with the given number of tetrahedra, up to isomorphism.

    Deterministic: spines are sorted by canonical encoding, and each is
    the first branching found with its signature.  A class's branchings
    and their ranks are read off its glue table.  Only a class with a
    branching has its least gluing code computed, and its seeds reaching
    that code give each branching's signature; a ``Triangulation`` and a
    ``BranchedSpine`` are built only for a signature not kept yet.
    """
    spines = {}
    for glue in _classes(tet_count):
        least = trg = None
        walk = edge_walk(glue, tet_count)
        for branching, ranks in _class_branchings(walk):
            if least is None:
                least = least_seeds(glue, (1,) * tet_count)
            code = signature_from_seeds(least, ranks)
            if code not in spines:
                if trg is None:
                    trg = Triangulation([row[:] for row in glue], walk)
                spines[code] = BranchedSpine(trg, branching)
    return [spines[code] for code in sorted(spines)]


def _class_branchings(walk):
    """(branching, ranks) per branching of a glue table whose ``edge_walk``
    is ``walk``, as ``enumerate_branchings`` finds them."""
    fans, pair_classes = walk
    return _branchings(pair_classes, len(fans))


def _classes(tet_count):
    """The glue table of each isomorphism class of gluing, in search order.

    Each is the live table of the first candidate of the class that the
    search meets, valid until the search resumes.  The search glues the
    first open face of the tetrahedra in use (position 4t + f), to a fresh
    tetrahedron first, then to each later open face with each odd
    permutation, and so meets candidates in lexicographic order of their
    choice sequences: one entry per gluing, 0 for a fresh tetrahedron and
    1 + 24 * (4 * t2 + f2) + r for a gluing to face (t2, f2) by
    permutation r.  Every candidate is connected, as each new tetrahedron
    is glued to one already in use.

    An even seed (t0, rho0) relabels a candidate into the one of its
    class that the search reaches with t0 as tetrahedron 0 and rho0 as its
    corner labels (``_resume``), so the first candidate of a class is the
    one whose own sequence is least over its 12n seeds.  A seed's sequence
    on a partial table stops at its first open face, so a node is pruned
    once some seed's sequence is below the table's own on their common
    prefix, and a seed above it drops out of the subtree.  Each live seed
    waits on the open face that blocks it, and a gluing resumes only the
    seeds of its two faces; the seeds of a tetrahedron start when it
    joins.  Every complete table reached starts a class.
    """
    glue = [[None] * 4 for _ in range(tet_count)]
    own = []
    parked = [[] for _ in range(4 * tet_count)]

    def search(used, pos):
        # Faces before position pos are glued; the first open one is glued
        # next, to a fresh tetrahedron or to a later open face.
        end = 4 * used
        while pos < end and glue[pos >> 2][pos & 3] is not None:
            pos += 1
        if pos == end:
            if used == tet_count:
                yield glue
            return
        t, f = pos >> 2, pos & 3
        row = glue[t]
        waiting = parked[pos]
        if used < tet_count:
            p, p_inv = _ODD_WITH_IMAGE[f, 0][0]
            row[f], glue[used][0] = (used, p), (t, p_inv)
            yield from descend(0, waiting + _seeds(used, tet_count), used + 1, pos + 1)
            glue[used][0] = None
        for pos2 in range(pos + 1, end):
            row2, f2 = glue[pos2 >> 2], pos2 & 3
            if row2[f2] is not None:
                continue
            states = waiting + parked[pos2]
            for p, p_inv in _ODD_WITH_IMAGE[f, f2]:
                row[f], row2[f2] = (pos2 >> 2, p), (t, p_inv)
                yield from descend(1 + 24 * pos2 + p, states, used, pos + 1)
            row2[f2] = None
        row[f] = None

    def descend(choice, states, used, pos):
        # Glued faces are never resumed again, so their parked seeds stay.
        own.append(choice)
        survivors = _resume(glue, own, states)
        if survivors is not None:
            for face, state in survivors:
                parked[face].append(state)
            yield from search(used, pos)
            for face, _state in survivors:
                parked[face].pop()
        own.pop()

    for face, state in _resume(glue, own, _seeds(0, tet_count)[1:]):
        parked[face].append(state)
    return search(1, 0)


def _seeds(t0, tet_count):
    """The scan state of each even seed (t0, rho0), identity first, before
    its first face: (position, sequence length, new index per tetrahedron
    or -1, relabelling per tetrahedron, tetrahedron per new index)."""
    new_of = [-1] * tet_count
    new_of[t0] = 0
    return [(0, 0, new_of, [rho0 if t == t0 else 0 for t in range(tet_count)], [t0])
            for rho0 in _EVEN]


def _resume(glue, own, states):
    """Advance each seed's scan over the relabelled faces of ``glue``, in
    search order, as far as the table is glued.

    Returns None as soon as a seed's choice sequence falls below ``own``,
    the table's own, on their common prefix.  Otherwise returns (open
    face, state) per seed that is still tied with ``own`` and blocked by
    that face; a seed that rises above ``own``, or has scanned every face,
    is left out.  A face whose partner was scanned earlier is skipped; a
    fresh tetrahedron takes the next index and the labels that make its
    gluing the search's fixed one.  States are never changed in place:
    a seed's lists are copied when it numbers a tetrahedron.
    """
    survivors = []
    for pos, i, new_of, rho, order in states:
        while True:
            k = pos >> 2
            if k == len(order):
                break
            t = order[k]
            r = rho[t]
            f = ALL_PERMS[INVERSE[r]][pos & 3]
            entry = glue[t][f]
            if entry is None:
                survivors.append((4 * t + f, (pos, i, new_of, rho, order)))
                break
            t2, p = entry
            k2 = new_of[t2]
            if k2 < 0:
                new_of, rho = new_of[:], rho[:]
                new_of[t2] = len(order)
                rho[t2] = COMPOSE[_ODD_WITH_IMAGE[pos & 3, 0][0][0]][COMPOSE[r][INVERSE[p]]]
                order = order + [t2]
                v = 0
            else:
                pos2 = 4 * k2 + ALL_PERMS[rho[t2]][ALL_PERMS[p][f]]
                if pos2 < pos:
                    pos += 1
                    continue
                v = 1 + 24 * pos2 + COMPOSE[rho[t2]][COMPOSE[p][INVERSE[r]]]
            w = own[i]
            if v != w:
                if v < w:
                    return None
                break
            pos += 1
            i += 1
    return survivors
