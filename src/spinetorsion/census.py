"""Exhaustive enumeration of branched spines with a given number of tetrahedra.

Triangulations are generated by a canonical backtracking search over face
gluings.  Relabelling freedom is used in the standard two ways: every
gluing permutation is odd (so all tetrahedron orientation bits are +1 and
the triangulation is oriented by construction), and the first gluing into
a fresh tetrahedron uses a fixed permutation.  A candidate is encoded
from one seed and looked up in an orbit table, the codes of every seed of
every class kept so far; isomorphic gluings have the same seed codes, so
only the first candidate of each class is built, and the output is
pairwise non-isomorphic in a deterministic order.
"""

from .perms import ALL_PERMS, SIGN, sign
from .spine import _encode_seed, glue_table, least_seeds, signature_from_seeds
from .triangulation import Triangulation, glue_both_ways

_ODD_WITH_IMAGE = {
    (f, f2): tuple(p for p in ALL_PERMS if sign(p) == -1 and p[f] == f2)
    for f in range(4) for f2 in range(4)
}
_EVEN = tuple(r for r in range(24) if SIGN[r] == 1)


def enumerate_triangulations(tet_count):
    """All connected oriented triangulations with the given size, up to isomorphism.

    Each candidate is coded once, from tetrahedron 0 with the identity
    labelling (admissible: every orientation bit is +1).  Two connected
    gluings are isomorphic exactly when the one's code from that seed is
    among the other's 12n seed codes, so a candidate is skipped if the
    orbit table (every seed code of every class kept) holds its code, and
    starts a class otherwise.  A code reaching fewer than n tetrahedra
    means a disconnected gluing, skipped too: the one check a build can
    fail, as odd gluings are orientable and an oriented gluing has no
    edge glued to itself reversed.
    """
    results, orbit = [], set()
    for gluings in _complete_gluings(tet_count, {}, 1):
        glue = glue_table(gluings, tet_count)
        code, _rho, order = _encode_seed(glue, tet_count, 0, 0, None)
        if len(order) < tet_count or tuple(code) in orbit:
            continue
        orbit.update(tuple(_encode_seed(glue, tet_count, t0, rho0, None)[0])
                     for t0 in range(tet_count) for rho0 in _EVEN)
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
