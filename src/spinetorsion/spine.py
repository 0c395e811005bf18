"""Branched spines encoded dually: edge-oriented ideal triangulations.

A branching of the dual standard spine is carried as one orientation per
edge class such that no triangle of the triangulation has a cyclic
orientation of its edges.  Each tetrahedron then orders its corners
linearly (a transitive tournament): corner 0 of the order is the source,
corner 3 the sink.  The ambient orientation is carried as one +-1 bit
per tetrahedron, constrained so that every gluing reverses orientation.

Spine-side counts, for a triangulation with V tetrahedra and E edge
classes: the dual spine has V vertices, 2V edges and E regions, so
chi(spine) = E - V and chi(X) = 1 - chi(spine) for the one-vertex
quotient complex X built in :mod:`spinetorsion.complexes`.

No edge class of any Triangulation passes through one tetrahedron edge
twice, so no standardness check is made: the walk around an edge is the
orbit of a bijection on (tetrahedron, oriented edge, entry face), the
orientation fixes the entry face, and no edge comes back reversed.
"""

from functools import cached_property

from .errors import CyclicTriangle, NonOrientable, UnpairedFace
from .perms import ALL_PERMS, COMPOSE, INVERSE, PERM_INDEX, SIGN
from .triangulation import _CORNER_PAIRS, _FACE_CORNERS, _PAIR, Triangulation


class BranchedSpine:
    """An edge-oriented, orientation-decorated ideal triangulation.

    ``branching[k]`` is +1 if edge class k is directed as its stored
    reference orientation, -1 otherwise.  ``orientations[t]`` is the
    ambient orientation bit of tetrahedron t.  ``ranks[t][c]`` is the rank
    of corner c of tetrahedron t in the branching order, 0 at the source
    and 3 at the sink.

    ``complex`` (the quotient complex X of :mod:`spinetorsion.complexes`)
    and ``group`` (its presentation, and H_1 once read) are built on
    first read and kept, so every representation, certificate class,
    transport and report on one spine shares them, X's rational complex
    included.  X keeps no reference to the spine, so the cache makes no
    reference cycle.
    """

    def __init__(self, triangulation, branching, orientations=None):
        self.triangulation = triangulation
        self.branching = tuple(branching)
        if len(self.branching) != len(triangulation.edge_classes):
            raise CyclicTriangle("branching must orient every edge class")
        if any(b not in (1, -1) for b in self.branching):
            raise CyclicTriangle("branching entries must be +1 or -1")
        if orientations is None:
            self.orientations = triangulation.orientations
        else:
            self.orientations = tuple(orientations)
            self._check_orientations()
        self.ranks = self._compute_ranks()

    @cached_property
    def complex(self):
        from .complexes import CellComplexX
        return CellComplexX(self)

    @cached_property
    def group(self):
        from .complexes import GroupData
        return GroupData(self.complex)

    # -- validation ------------------------------------------------------------

    def _check_orientations(self):
        """Accept the triangulation's orientation bits or their negation,
        the only two that make every gluing of a connected triangulation
        orientation-reversing; otherwise name the first gluing they do not."""
        trg = self.triangulation
        orient = self.orientations
        if len(orient) != trg.tet_count or any(o not in (1, -1) for o in orient):
            raise NonOrientable("one +-1 orientation bit per tetrahedron required")
        if any(o != orient[0] * o0 for o, o0 in zip(orient, trg.orientations)):
            t, t2 = next((t, t2) for t, row in enumerate(trg.glue) for t2, k in row
                         if SIGN[k] * orient[t] * orient[t2] != -1)
            raise NonOrientable(
                "orientation bits do not make gluing %d-%d orientation-reversing"
                % (t, t2))

    def _compute_ranks(self):
        """Per tetrahedron, the rank of each corner in the branching order.

        Raises CyclicTriangle, naming the first cyclic face triangle of the
        first tetrahedron whose corner tournament the rank table finds
        cyclic.
        """
        pairs = self.triangulation.pair_classes
        mask = sum(1 << k for k, b in enumerate(self.branching) if b == -1)
        ranks = _mask_ranks(mask, pairs)
        if None in ranks:
            t = ranks.index(None)
            bits = _tet_bits(mask, pairs[t])
            f = next(f for f, (ab, bc, ac) in enumerate(_FACE_PAIRS)
                     if (bits >> ab & 1) == (bits >> bc & 1) != (bits >> ac & 1))
            raise CyclicTriangle("face %d.%d has a cyclic edge orientation" % (t, f))
        return ranks

    # -- branching queries -------------------------------------------------------

    def edge_direction(self, t, i, j):
        """True if the branching directs the edge of tetrahedron t from i to j."""
        rk = self.ranks[t]
        return rk[i] < rk[j]

    def oriented_class(self, t, i, j):
        """(class index, +1) if i->j equals the class direction, else (class, -1)."""
        k, s = self.triangulation.edge_class_of(t, i, j)
        return k, s * self.branching[k]

    def corners_by_rank(self, t):
        """Corners of tetrahedron t from source (rank 0) to sink (rank 3)."""
        rk = self.ranks[t]
        return tuple(sorted(range(4), key=lambda c: rk[c]))

    def face_roles(self, t, f):
        """(source, middle, sink) corners of face f of tetrahedron t."""
        cs = _FACE_CORNERS[f]
        order = sorted(cs, key=lambda c: self.ranks[t][c])
        return tuple(order)

    # -- counts and Euler characteristics -----------------------------------------

    @property
    def tet_count(self):
        return self.triangulation.tet_count

    @property
    def spine_vertex_count(self):
        return self.triangulation.tet_count

    @property
    def spine_edge_count(self):
        return len(self.triangulation.face_classes)

    @property
    def region_count(self):
        return len(self.triangulation.edge_classes)

    def euler_characteristics(self):
        """(chi of the spine, chi of the one-vertex quotient complex X)."""
        chi_spine = self.region_count - self.spine_vertex_count
        return chi_spine, 1 - chi_spine

    def boundary_report(self):
        """Per boundary component (one per vertex class): (chi, genus)."""
        return tuple(self.triangulation.vertex_link(v)
                     for v in range(len(self.triangulation.vertex_classes)))

    # -- relabelling and isomorphism ---------------------------------------------

    def relabel(self, tet_map, corner_perms):
        """The isomorphic spine under new tetrahedron indices and corner labels.

        ``tet_map[t]`` is the new index of old tetrahedron t and
        ``corner_perms[t]`` the permutation sending old corner labels of t
        to new ones.  UnpairedFace names an argument that is not one
        bijection onto 0..n-1, or one of 0..3 per tetrahedron.
        """
        n = self.tet_count
        if sorted(tet_map) != list(range(n)):
            raise UnpairedFace("tetrahedron map %r is not a bijection onto 0..%d"
                               % (list(tet_map), n - 1))
        rhos = [PERM_INDEX.get(tuple(rho), -1) for rho in corner_perms]
        if len(rhos) != n or -1 in rhos:
            raise UnpairedFace("corner relabelling %r is not a bijection of 0..3 per "
                               "tetrahedron" % (list(corner_perms),))
        glue, orient, old_of = [[None] * 4 for _ in range(n)], [0] * n, [0] * n
        for t, row in enumerate(self.triangulation.glue):
            r, nt = rhos[t], tet_map[t]
            rho, r_inv = ALL_PERMS[r], INVERSE[r]
            for f, (t2, k) in enumerate(row):
                glue[nt][rho[f]] = (tet_map[t2], COMPOSE[rhos[t2]][COMPOSE[k][r_inv]])
            orient[nt], old_of[nt] = self.orientations[t] * SIGN[r], t
        new_trg = Triangulation(glue)
        branching = []
        for fan in new_trg.edge_classes:
            nt, ni, nj = fan[0][:3]
            t = old_of[nt]
            rho_inv = ALL_PERMS[INVERSE[rhos[t]]]
            branching.append(1 if self.edge_direction(t, rho_inv[ni], rho_inv[nj]) else -1)
        return BranchedSpine(new_trg, branching, orient)

    def canonical_encoding(self):
        """Minimal encoding over all orientation-positive seed labellings.

        Two branched spines are isomorphic through an orientation- and
        branching-preserving relabelling exactly when their canonical
        encodings coincide.
        """
        return encode_gluings(self.triangulation.glue, self.orientations, self.ranks)

    def is_isomorphic(self, other):
        return self.canonical_encoding() == other.canonical_encoding()


def triangulation_encoding(trg):
    """Canonical oriented encoding of a bare triangulation (no branching)."""
    return encode_gluings(trg.glue, trg.orientations)[0]


def encode_gluings(glue, orientations, ranks=None):
    """Isomorphism signature ``(gluing code, branch code)`` of a connected
    glue table (see ``Triangulation``).

    Each seed, a tetrahedron t0 and a corner relabelling rho0 whose sign is
    the orientation bit of t0, relabels the tetrahedra breadth-first and
    codes each new face by the new index of the tetrahedron behind it and
    the relabelled gluing permutation.  The least code over all seeds wins
    (``least_seeds``).  The branch code (``()`` without ``ranks``, the
    per-tetrahedron branching rank of each corner) only breaks ties, so it
    is built only for seeds that reach the least gluing code
    (``signature_from_seeds``).  Every seed reaches all n tetrahedra of a
    connected table, so compared codes all have length 4n.
    """
    return signature_from_seeds(least_seeds(glue, orientations), ranks)


def least_seeds(glue, orientations):
    """(least gluing code, the (rho, order) of every seed that reaches it)
    of a connected glue table.

    A seed stops at its first entry above the least code so far.  Only the
    branch code tells apart the seeds kept, so every branching of one
    triangulation shares them.
    """
    n = len(glue)
    best = None
    seeds = []
    for t0 in range(n):
        for rho0 in range(24):
            if SIGN[rho0] != orientations[t0]:
                continue
            seeded = _encode_seed(glue, n, t0, rho0, best)
            if seeded is None:
                continue
            code, rho, order = seeded
            if code != best:
                best, seeds = code, []
            seeds.append((rho, order))
    return best, seeds


def signature_from_seeds(least, ranks=None):
    """The signature of ``encode_gluings`` from the ``least_seeds`` of the
    gluings: the least branch code over the seeds kept breaks the tie."""
    best, seeds = least
    branch = () if ranks is None else min(
        _branch_code(ranks, rho, order) for rho, order in seeds)
    return tuple(divmod(v, 24) for v in best), branch


def _encode_seed(glue, n, t0, rho0, best):
    """(code, rho, order) of one seed, or None once the code exceeds ``best``.

    An entry 24 * (new tetrahedron index) + (permutation index) orders like
    the (index, permutation) pair it stands for.
    """
    new_of = [-1] * n
    new_of[t0] = 0
    rho = [0] * n
    rho[t0] = rho0
    order = [t0]
    code = []
    tied = best is not None
    for t in order:
        r = rho[t]
        r_inv = INVERSE[r]
        row = glue[t]
        for f_old in ALL_PERMS[r_inv]:
            t2, p = row[f_old]
            k = new_of[t2]
            if k < 0:
                # The new labelling of t2 makes this gluing the identity (index 0).
                k = new_of[t2] = len(order)
                rho[t2] = COMPOSE[r][INVERSE[p]]
                order.append(t2)
                v = 24 * k
            else:
                v = 24 * k + COMPOSE[rho[t2]][COMPOSE[p][r_inv]]
            if tied:
                b = best[len(code)]
                if v > b:
                    return None
                tied = v == b
            code.append(v)
    return code, rho, order


def _branch_code(ranks, rho, order):
    """Per relabelled tetrahedron and corner pair i < j: 1 if the edge runs i -> j."""
    code = ()
    for t in order:
        code += _BRANCH_BITS[rho[t]][PERM_INDEX[ranks[t]]]
    return code


_BRANCH_BITS = tuple(
    tuple(tuple(int(rk[ri[i]] < rk[ri[j]]) for i, j in _CORNER_PAIRS) for rk in ALL_PERMS)
    for ri in (ALL_PERMS[INVERSE[r]] for r in range(24)))
"""``_BRANCH_BITS[r][k]``: the ``_branch_code`` bits of a tetrahedron
relabelled by ALL_PERMS[r] whose corner ranks are ALL_PERMS[k] (always a
permutation of 0..3 on a branched tetrahedron): per new corner pair i < j,
1 if the edge runs i -> j, i.e. its old corners ri[i], ri[j] do, for ri
the inverse relabelling."""


def enumerate_branchings(trg):
    """All branchings of a triangulation, in deterministic bitmask order.

    A ``BranchedSpine``, which checks every tetrahedron for a cyclic
    triangle, is built for each branching ``_branchings`` finds, so an
    empty result certifies that no branching exists.  The tests check the
    screen against a scan of every mask by direct edge checks.
    """
    return [BranchedSpine(trg, branching) for branching, _ranks
            in _branchings(trg.pair_classes, len(trg.edge_classes))]


def _branchings(pair_classes, class_count):
    """(branching, ranks) per branching of the edge classes of
    ``edge_walk``, in bitmask order: bit k of the mask reverses class k.

    Every mask (2^E of them) is screened against the face triangles.  A
    mask that passes orients no triangle cyclically, so the tournament on
    each tetrahedron's corners is transitive and the rank table gives its
    ranks.
    """
    patterns = _cyclic_patterns(pair_classes)
    for mask in range(1 << class_count):
        for bits, flips in patterns:
            backward = (mask ^ flips) & bits
            if backward == 0 or backward == bits:
                break
        else:
            yield (tuple(-1 if mask >> k & 1 else 1 for k in range(class_count)),
                   _mask_ranks(mask, pair_classes))


def _cyclic_patterns(pair_classes):
    """(bits, flips) per face triangle that some mask makes cyclic.

    Edge x -> y of edge class k with reference direction s runs from x to
    y under a mask exactly when bit k of the mask is set iff s = -1.  A
    triangle a, b, c is cyclic when its edges a -> b, b -> c and c -> a all
    run forwards or all backwards: when ``(mask ^ flips) & bits`` is 0 or
    ``bits``, for ``bits`` their classes and ``flips`` those with s = -1.
    That test holds for ``flips ^ bits`` too, so each triangle, met from
    both its faces, keeps the lesser.  A triangle that meets one class
    both ways is never cyclic.
    """
    patterns = {}
    for row in pair_classes:
        for ab, bc, ac in _FACE_PAIRS:
            bits = flips = 0
            # c -> a runs along pair (a, c) backwards: it flips when s = 1.
            for (k, s), flipped in ((row[ab], -1), (row[bc], -1), (row[ac], 1)):
                flip = (s == flipped) << k
                if bits >> k & 1 and flips & (1 << k) != flip:
                    break
                bits |= 1 << k
                flips |= flip
            else:
                patterns[bits, min(flips, flips ^ bits)] = None
    return tuple(patterns)


def _tet_bits(mask, row):
    """The rank-table index of one tetrahedron under a mask: bit e set when
    corner pair e = (i, j) runs i -> j, for ``row`` its ``pair_classes`` row."""
    bits = 0
    for e, (k, s) in enumerate(row):
        if (mask >> k & 1) != (s == 1):
            bits |= 1 << e
    return bits


def _mask_ranks(mask, pair_classes):
    """Per tetrahedron, the rank table's entry under a mask."""
    return tuple(_RANKS[_tet_bits(mask, row)] for row in pair_classes)


_FACE_PAIRS = tuple((_PAIR[a][b], _PAIR[b][c], _PAIR[a][c]) for a, b, c in _FACE_CORNERS)
"""Per face with corners a < b < c: the indices of its pairs (a, b), (b, c), (a, c)."""


def _rank_table():
    """``_RANKS``: each rank order, a transitive tournament whose edges run
    up the ranks, at the index of its direction pattern; None elsewhere."""
    table = [None] * 64
    for rk in ALL_PERMS:
        table[sum(1 << e for e, (i, j) in enumerate(_CORNER_PAIRS) if rk[i] < rk[j])] = rk
    return tuple(table)


_RANKS = _rank_table()
"""``_RANKS[bits]``: the corner ranks of a tetrahedron whose corner pair e
= (i, j) runs i -> j exactly when bit e of ``bits`` is set, each corner
ranked by its in-degree (0 at the source, 3 at the sink), or None when
the in-degrees are not 0..3.  The tournament on four corners is
transitive, so its in-degrees are 0..3, exactly when none of its four
face triangles is cyclic; 24 of the 64 entries are rank orders."""
