"""Exhaustive enumeration of branched spines with a given number of tetrahedra.

Triangulations are generated by a canonical backtracking search over face
gluings, held in one glue table that the search sets and undoes in place,
passing the first open face down.  Relabelling freedom is used in the
standard two ways: every gluing permutation is odd (so all tetrahedron
orientation bits are +1 and the triangulation is oriented by
construction), and the first gluing into a fresh tetrahedron uses a fixed
permutation.  A candidate is encoded from one seed of the live table and
looked up in an orbit table, the codes of every seed of every class kept
so far, each packed as order-preserving bytes; isomorphic gluings have
the same seed codes, so only the first candidate of each class goes on,
and the output is pairwise non-isomorphic in a deterministic order.  The
seed codes of a new class also give its least code and the seeds that
reach it, which every branching of the class shares.

The branched census works on the glue table of each class too: one
``edge_walk`` gives its edge classes, the face-triangle screen its
branchings and the rank table their ranks, so each branching's signature
is known before anything is built.  A ``Triangulation``, built from a
row copy of the table, and a ``BranchedSpine`` are made only for a
signature not kept yet.
"""

from .perms import ALL_PERMS, INVERSE, SIGN
from .spine import BranchedSpine, _branchings, _encode_seed, signature_from_seeds
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
    return [Triangulation([row[:] for row in glue]) for glue, _least in _classes(tet_count)]


def census_branched(tet_count):
    """All branched spines with the given number of tetrahedra, up to isomorphism.

    Deterministic: spines are sorted by canonical encoding, and each is
    the first branching found with its signature.  A class's branchings
    and their ranks are read off its glue table, and its seeds reaching
    the least gluing code give each branching's signature; a
    ``Triangulation`` and a ``BranchedSpine`` are built only for a
    signature not kept yet.
    """
    spines = {}
    for glue, least in _classes(tet_count):
        trg = None
        for branching, ranks in _class_branchings(glue, tet_count):
            code = signature_from_seeds(least, ranks)
            if code not in spines:
                if trg is None:
                    trg = Triangulation([row[:] for row in glue])
                spines[code] = BranchedSpine(trg, branching)
    return [spines[code] for code in sorted(spines)]


def _class_branchings(glue, tet_count):
    """(branching, ranks) per branching of a glue table, as
    ``enumerate_branchings`` finds them on its ``Triangulation``."""
    fans, pair_classes = edge_walk(glue, tet_count)
    return _branchings(pair_classes, len(fans))


def _packer(tet_count):
    """An order-preserving packing of seed codes: bytes while every entry,
    24 * (tetrahedron index) + (permutation index) < 24n, fits one byte
    (n <= 10), int tuples beyond."""
    return bytes if 24 * tet_count <= 256 else tuple


def _classes(tet_count):
    """(glue, least) per isomorphism class of candidate, in search order.

    ``glue`` is the live table of the class's first candidate, valid until
    the search resumes.  Each candidate is coded once, from tetrahedron 0
    with the identity labelling (admissible: every orientation bit is
    +1).  Every candidate is connected, as each new tetrahedron is glued
    to one already in use, and two connected gluings are isomorphic
    exactly when the one's code from that seed is among the other's 12n
    seed codes.  So a candidate is skipped if the orbit table (every seed
    code of every class kept, packed by ``_packer``) holds its code, and
    starts a class otherwise.  ``least`` is what ``least_seeds`` returns
    for the table, its code packed, read off the 12n seed codes of the
    class.
    """
    pack = _packer(tet_count)
    orbit = set()
    for glue in _complete_gluings(tet_count):
        if pack(_encode_seed(glue, tet_count, 0, 0, None)[0]) in orbit:
            continue
        seeded = [_encode_seed(glue, tet_count, t0, rho0, None)
                  for t0 in range(tet_count) for rho0 in _EVEN]
        codes = [pack(code) for code, _rho, _order in seeded]
        orbit.update(codes)
        best = min(codes)
        yield glue, (best, [
            (rho, order) for code, (_c, rho, order) in zip(codes, seeded) if code == best])


def _complete_gluings(tet_count):
    """Every complete glue table of the search, depth first, always gluing
    the first open face next: the same table each time, valid until the
    search resumes.  ``glue[t][f]`` is (tetrahedron behind face f of t,
    gluing permutation index), None while the face is open."""
    glue = [[None] * 4 for _ in range(tet_count)]
    faces = [(t, f) for t in range(tet_count) for f in range(4)]

    def search(used, pos):
        # Faces before position pos = 4t + f are glued; the first open one
        # is glued next, to a fresh tetrahedron or to a later open face.
        end = 4 * used
        while pos < end and glue[pos >> 2][pos & 3] is not None:
            pos += 1
        if pos == end:
            if used == tet_count:
                yield glue
            return
        t, f = faces[pos]
        row = glue[t]
        if used < tet_count:
            p, p_inv = _ODD_WITH_IMAGE[(f, 0)][0]
            row[f], glue[used][0] = (used, p), (t, p_inv)
            yield from search(used + 1, pos + 1)
            glue[used][0] = None
        for t2, f2 in faces[pos + 1:end]:
            row2 = glue[t2]
            if row2[f2] is not None:
                continue
            for p, p_inv in _ODD_WITH_IMAGE[(f, f2)]:
                row[f], row2[f2] = (t2, p), (t, p_inv)
                yield from search(used, pos + 1)
            row2[f2] = None
        row[f] = None

    return search(1, 0)

