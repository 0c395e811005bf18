"""Exhaustive enumeration of branched spines with a given number of tetrahedra.

Triangulations are generated by a canonical backtracking search over face
gluings, held in one glue table that the search sets and undoes in place.
Relabelling freedom is used in the standard two ways: every gluing
permutation is odd (so all tetrahedron orientation bits are +1 and the
triangulation is oriented by construction), and the first gluing into a
fresh tetrahedron uses a fixed permutation.  A candidate is encoded from
one seed of the live table and looked up in an orbit table, the codes of
every seed of every class kept so far; isomorphic gluings have the same
seed codes, so only the first candidate of each class is copied out of
the table and built, and the output is pairwise non-isomorphic in a
deterministic order.  The seed codes of a new class also give its least
code and the seeds that reach it, which every branching of the class
shares.
"""

from .perms import ALL_PERMS, INVERSE, SIGN
from .spine import _encode_seed, signature_from_seeds
from .triangulation import Triangulation, glue_both_ways

_ODD_WITH_IMAGE = {
    (f, f2): tuple(r for r in range(24) if SIGN[r] == -1 and ALL_PERMS[r][f] == f2)
    for f in range(4) for f2 in range(4)
}
_EVEN = tuple(r for r in range(24) if SIGN[r] == 1)


def enumerate_triangulations(tet_count):
    """All connected oriented triangulations with the given size, up to isomorphism."""
    return [Triangulation(tet_count, gluings) for gluings, _least in _classes(tet_count)]


def _classes(tet_count):
    """(gluings, least) per isomorphism class of candidate, in search order.

    Each candidate is coded once, from tetrahedron 0 with the identity
    labelling (admissible: every orientation bit is +1).  Two connected
    gluings are isomorphic exactly when the one's code from that seed is
    among the other's 12n seed codes, so a candidate is skipped if the
    orbit table (every seed code of every class kept) holds its code, and
    starts a class otherwise.  A code reaching fewer than n tetrahedra
    means a disconnected gluing, skipped too: the one check a build can
    fail, as odd gluings are orientable and an oriented gluing has no
    edge glued to itself reversed.  ``least`` is what ``least_seeds``
    returns for the gluings, read off the 12n seed codes of the class.
    """
    orbit = set()
    for glue in _complete_gluings(tet_count):
        code, _rho, order = _encode_seed(glue, tet_count, 0, 0, None)
        if len(order) < tet_count or tuple(code) in orbit:
            continue
        seeded = [_encode_seed(glue, tet_count, t0, rho0, None)
                  for t0 in range(tet_count) for rho0 in _EVEN]
        codes = [tuple(code) for code, _rho, _order in seeded]
        orbit.update(codes)
        best = min(codes)
        yield _gluings(glue, tet_count), (best, [
            (rho, order) for code, (_c, rho, order) in zip(codes, seeded) if code == best])


def _complete_gluings(tet_count):
    """Every complete glue table of the search, depth first, always gluing
    the first open face next: the same table each time, valid until the
    search resumes.  ``glue[t][f]`` is (tetrahedron behind face f of t,
    gluing permutation index), None while the face is open."""
    glue = [[None] * 4 for _ in range(tet_count)]

    def search(used):
        open_faces = [(t, f) for t in range(used) for f in range(4) if glue[t][f] is None]
        if not open_faces:
            if used == tet_count:
                yield glue
            return
        t, f = open_faces[0]
        row = glue[t]
        if used < tet_count:
            p = _ODD_WITH_IMAGE[(f, 0)][0]
            row[f], glue[used][0] = (used, p), (t, INVERSE[p])
            yield from search(used + 1)
            glue[used][0] = None
        for (t2, f2) in open_faces[1:]:
            row2 = glue[t2]
            for p in _ODD_WITH_IMAGE[(f, f2)]:
                row[f], row2[f2] = (t2, p), (t, INVERSE[p])
                yield from search(used)
            row2[f2] = None
        row[f] = None

    return search(1)


def _gluings(glue, tet_count):
    """The gluing dict of a complete glue table, each face pair entered
    from its first face, as the search glued it."""
    gluings = {}
    for t in range(tet_count):
        for f in range(4):
            t2, p = glue[t][f]
            perm = ALL_PERMS[p]
            if (t2, perm[f]) > (t, f):
                glue_both_ways(gluings, t, f, t2, perm[f], perm)
    return gluings


def census_branched(tet_count):
    """All branched spines with the given number of tetrahedra, up to isomorphism.

    Deterministic: spines are sorted by canonical encoding.  The seeds
    that reach the least gluing code come with each triangulation class;
    each branching only builds its branch codes over them.
    """
    from .spine import enumerate_branchings  # per call, so a patch in spine is seen
    spines = {}
    for gluings, least in _classes(tet_count):
        for spine in enumerate_branchings(Triangulation(tet_count, gluings)):
            code = signature_from_seeds(least, spine.ranks)
            if code not in spines:
                spines[code] = spine
    return [spines[code] for code in sorted(spines)]
