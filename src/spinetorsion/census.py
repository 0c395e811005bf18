"""Exhaustive enumeration of branched spines with a given number of tetrahedra.

Triangulations are generated by a canonical backtracking search over face
gluings.  Relabelling freedom is used in the standard two ways: every
gluing permutation is odd (so all tetrahedron orientation bits are +1 and
the triangulation is oriented by construction), and the first gluing into
a fresh tetrahedron uses a fixed permutation.  Each complete gluing is
encoded straight from its gluing dict, and a Triangulation is built only
for a code not seen before.  That is sound because the one check a build
can fail, connectedness, is isomorphism-invariant (a disconnected gluing
has no code): odd gluings are orientable, and an oriented gluing has no
edge glued to itself reversed.  It keeps the first candidate of each
class, so the output is pairwise non-isomorphic in a deterministic order.
"""

from .perms import ALL_PERMS, sign
from .spine import encode_gluings, least_seeds, signature_from_seeds
from .triangulation import Triangulation, glue_both_ways

_ODD_WITH_IMAGE = {
    (f, f2): tuple(p for p in ALL_PERMS if sign(p) == -1 and p[f] == f2)
    for f in range(4) for f2 in range(4)
}


def enumerate_triangulations(tet_count):
    """All connected oriented triangulations with the given size, up to isomorphism."""
    results = []
    seen = set()
    orientations = (1,) * tet_count
    for gluings in _complete_gluings(tet_count, {}, 1):
        code = encode_gluings(gluings, orientations)
        if code is None or code in seen:
            continue
        seen.add(code)
        results.append(Triangulation(tet_count, gluings))
    return results


def _complete_gluings(tet_count, gluings, used):
    """Every complete gluing extending ``gluings`` (which reaches tetrahedra
    0..used-1), depth first, always gluing the first open face next."""
    open_faces = [(t, f) for t in range(used) for f in range(4) if (t, f) not in gluings]
    if not open_faces:
        if used == tet_count:
            yield gluings
        return
    t, f = open_faces[0]
    if used < tet_count:
        child = _glued(gluings, t, f, used, 0, _ODD_WITH_IMAGE[(f, 0)][0])
        yield from _complete_gluings(tet_count, child, used + 1)
    for (t2, f2) in open_faces[1:]:
        for perm in _ODD_WITH_IMAGE[(f, f2)]:
            yield from _complete_gluings(tet_count, _glued(gluings, t, f, t2, f2, perm), used)


def _glued(gluings, t, f, t2, f2, perm):
    child = dict(gluings)
    glue_both_ways(child, t, f, t2, f2, perm)
    return child


def census_branched(tet_count):
    """All branched spines with the given number of tetrahedra, up to isomorphism.

    Deterministic: spines are sorted by canonical encoding.  The seeds
    that reach the least gluing code are found once per triangulation; each
    branching only builds its branch codes over them.
    """
    from .spine import enumerate_branchings  # per call, so a patch in spine is seen
    spines = {}
    for trg in enumerate_triangulations(tet_count):
        least = least_seeds(trg.gluings, trg.orientations)
        for spine in enumerate_branchings(trg):
            code = signature_from_seeds(least, spine.ranks)
            if code not in spines:
                spines[code] = spine
    return [spines[code] for code in sorted(spines)]
