"""Ideal triangulations given by face gluings of tetrahedra.

A triangulation is a list of abstract tetrahedra with corners labelled
0..3 and a total gluing of their faces.  Face f of a tetrahedron is the
triangle spanned by the three corners different from f.  A gluing is a
permutation of {0,1,2,3} carrying f to the partner face index and the
three corners of f to the corners of the partner face.  Self-adjacencies
and multiple adjacencies are allowed; gluing a face to itself is not.

Everything derived here (face, edge and vertex classes, tetrahedron
orientations, around-the-edge fans, vertex links) is purely
combinatorial and shared by the branched-spine layer on top.
"""

from functools import cached_property

from .errors import Disconnected, NonOrientable, UnpairedFace
from .perms import ALL_PERMS, INVERSE, PERM_INDEX, SIGN, inverse


class EdgeClass:
    """An orbit of tetrahedron edges under the face gluings.

    ``members`` lists one oriented representative (t, i, j) per
    tetrahedron edge in the class, all coherently oriented, in cyclic
    order of the walk around the edge.  ``fan`` records the walk:
    ``fan[p] = (t, i, j, enter_face, exit_face)`` where the walk enters
    the p-th tetrahedron through ``enter_face`` and leaves through
    ``exit_face``.
    """

    __slots__ = ("index", "members", "fan")

    def __init__(self, index, members, fan):
        self.index = index
        self.members = members
        self.fan = fan

    @property
    def size(self):
        return len(self.members)

    def __repr__(self):
        return "EdgeClass(%d, %s)" % (self.index, list(self.members))


_FACE_CORNERS = tuple(tuple(c for c in range(4) if c != f) for f in range(4))
"""``_FACE_CORNERS[f]``: the corners of face f, in increasing order."""
_CORNER_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
"""The six corner pairs i < j of a tetrahedron; pair e is ``_CORNER_PAIRS[e]``."""
_PAIR = tuple(tuple(_CORNER_PAIRS.index((min(i, j), max(i, j))) if i != j else None
                    for j in range(4)) for i in range(4))
"""``_PAIR[i][j]``: the index in ``_CORNER_PAIRS`` of the pair {i, j}."""


class Triangulation:
    """A connected, orientable gluing of tetrahedra along all faces."""

    def __init__(self, tet_count, gluings):
        if tet_count <= 0:
            raise UnpairedFace("a triangulation needs at least one tetrahedron")
        self.tet_count = tet_count
        self.gluings, glue = self._check_involution(gluings)
        self.orientations = self._orient(glue)
        self.face_classes, self.face_class_of = self._face_classes()
        self.edge_classes, self.edge_class_of, self.pair_classes = self._edge_classes(glue)

    # -- construction checks -------------------------------------------------

    def _check_involution(self, gluings):
        """The gluing dict with every face pair entered both ways, and its
        glue table: ``glue[t][f]`` is (tetrahedron behind face f of t,
        gluing permutation index)."""
        n = self.tet_count
        full = {}
        indices = []
        for (t, f), (t2, f2, perm) in gluings.items():
            if not (0 <= t < n and 0 <= t2 < n):
                raise UnpairedFace("gluing refers to tetrahedron out of range")
            if not (0 <= f < 4 and 0 <= f2 < 4):
                raise UnpairedFace("gluing refers to face out of range")
            try:
                k = PERM_INDEX[tuple(perm)]
            except (KeyError, TypeError):
                raise UnpairedFace(
                    "gluing permutation %r is not a bijection" % (perm,)) from None
            perm = ALL_PERMS[k]
            if perm[f] != f2:
                raise UnpairedFace(
                    "gluing permutation must carry face %d to face %d" % (f, f2))
            if (t, f) == (t2, f2):
                raise UnpairedFace("face %d.%d glued to itself" % (t, f))
            for key, val in (((t, f), (t2, f2, perm)),
                             ((t2, f2), (t, f, ALL_PERMS[INVERSE[k]]))):
                if full.setdefault(key, val) != val:
                    raise UnpairedFace(
                        "face %d.%d glued twice inconsistently" % key)
            indices.append((t, f, t2, f2, k))
        for t in range(n):
            for f in range(4):
                if (t, f) not in full:
                    raise UnpairedFace("face %d.%d is not glued" % (t, f))
        glue = [[None] * 4 for _ in range(n)]
        for t, f, t2, f2, k in indices:
            glue[t][f], glue[t2][f2] = (t2, k), (t, INVERSE[k])
        return full, glue

    def _orient(self, glue):
        """Assign +1/-1 to the tetrahedra so every gluing is orientation-reversing.

        A gluing with permutation p between tetrahedra of orientations s, s'
        reverses orientation exactly when sign(p) * s * s' == -1.  The
        assignment is normalised by orientations[0] == +1.  The same search
        proves connectedness, which is checked first.
        """
        orient = [0] * self.tet_count
        orient[0] = 1
        stack = [0]
        conflict = False
        while stack:
            t = stack.pop()
            for t2, k in glue[t]:
                want = -orient[t] * SIGN[k]
                if orient[t2] == 0:
                    orient[t2] = want
                    stack.append(t2)
                elif orient[t2] != want:
                    conflict = True
        if 0 in orient:
            raise Disconnected("only %d of %d tetrahedra reachable" % (
                self.tet_count - orient.count(0), self.tet_count))
        if conflict:
            raise NonOrientable("no consistent tetrahedron orientations exist")
        return tuple(orient)

    # -- derived class tables -------------------------------------------------

    def _face_classes(self):
        classes = []
        of = {}
        for t in range(self.tet_count):
            for f in range(4):
                if (t, f) in of:
                    continue
                t2, f2, _ = self.gluings[(t, f)]
                idx = len(classes)
                classes.append(((t, f), (t2, f2)))
                of[(t, f)] = idx
                of[(t2, f2)] = idx
        return tuple(classes), of

    def _edge_classes(self, glue):
        """Edge classes, ``edge_class_of`` (oriented tetrahedron edge ->
        (class, sign)) and ``pair_classes`` (see ``edge_walk``), from one
        ``edge_walk`` over the glue table."""
        fans, pair_classes = edge_walk(glue, self.tet_count)
        classes = tuple(EdgeClass(k, tuple(step[:3] for step in fan), fan)
                        for k, fan in enumerate(fans))
        of = {}
        for t, row in enumerate(pair_classes):
            for (i, j), (k, s) in zip(_CORNER_PAIRS, row):
                of[(t, i, j)] = (k, s)
                of[(t, j, i)] = (k, -s)
        return classes, of, pair_classes

    @cached_property
    def vertex_classes(self):
        """The corners (t, c) glued into each vertex, one sorted tuple per
        class; built on first use."""
        parent = {(t, c): (t, c) for t in range(self.tet_count) for c in range(4)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (t, f), (t2, f2, perm) in self.gluings.items():
            for c in _FACE_CORNERS[f]:
                a, b = find((t, c)), find((t2, perm[c]))
                if a != b:
                    parent[a] = b
        groups = {}
        for key in parent:
            groups.setdefault(find(key), []).append(key)
        return tuple(tuple(sorted(g)) for g in
                     sorted(groups.values(), key=lambda g: min(g)))

    # -- vertex links ----------------------------------------------------------

    def vertex_link(self, vclass_index):
        """Euler characteristic and genus of the link surface of a vertex class.

        The link has one normal triangle per corner (t, c) of the class,
        one vertex per end of an edge class at the vertex, and each side
        shared by two triangles, so chi = ends - 3 corners / 2 + corners.
        """
        corners = set(self.vertex_classes[vclass_index])
        ends = 0
        for cls in self.edge_classes:
            t, i, j = cls.members[0]
            ends += ((t, i) in corners) + ((t, j) in corners)
        chi = ends - len(corners) // 2
        assert chi % 2 == 0 and chi <= 2
        return chi, (2 - chi) // 2


def glue_both_ways(gluings, t, f, t2, f2, perm):
    """Record a gluing and its inverse in a gluing dict under construction."""
    perm = tuple(perm)
    gluings[(t, f)] = (t2, f2, perm)
    gluings[(t2, f2)] = (t, f, inverse(perm))


def edge_walk(glue, tet_count):
    """The edge classes of an oriented glue table, one walk around each.

    Returns ``(fans, pair_classes)``.  ``fans[k]`` is the walk around edge
    class k as in ``EdgeClass.fan``, started at its first tetrahedron edge
    (t, i < j) and entering through the lower of the two other corners;
    classes are numbered in the order their first edges come.
    ``pair_classes[t][e]`` is (k, s) for corner pair e = (i, j) of
    ``_CORNER_PAIRS`` of tetrahedron t: s = 1 if the walk of class k runs
    along it from i to j, -1 if from j to i.  Each step is a bijection on
    (tetrahedron, oriented edge, entry face), so the walk always closes; on
    an oriented gluing it never meets the edge reversed.
    """
    pair_classes = [[None] * 6 for _ in range(tet_count)]
    fans = []
    for t in range(tet_count):
        for e, (i, j) in enumerate(_CORNER_PAIRS):
            if pair_classes[t][e] is not None:
                continue
            k = len(fans)
            forward, backward = (k, 1), (k, -1)
            start = enter = (i == 0) + (j == 1)  # the least corner off the edge
            ct, ci, cj = t, i, j
            fan = []
            while True:
                exit_face = 6 - ci - cj - enter  # the corner labels sum to 6
                fan.append((ct, ci, cj, enter, exit_face))
                pair_classes[ct][_PAIR[ci][cj]] = forward if ci < cj else backward
                ct, p = glue[ct][exit_face]
                perm = ALL_PERMS[p]
                ci, cj, enter = perm[ci], perm[cj], perm[exit_face]
                if ct == t and ci == i and cj == j and enter == start:
                    break
            fans.append(tuple(fan))
    return fans, pair_classes
