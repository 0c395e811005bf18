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


class Triangulation:
    """A connected, orientable gluing of tetrahedra along all faces."""

    def __init__(self, tet_count, gluings):
        if tet_count <= 0:
            raise UnpairedFace("a triangulation needs at least one tetrahedron")
        self.tet_count = tet_count
        self.gluings = self._check_involution(gluings)
        self.orientations = self._orient()
        self.face_classes, self.face_class_of = self._face_classes()
        self.edge_classes, self.edge_class_of = self._edge_classes()

    # -- construction checks -------------------------------------------------

    def _check_involution(self, gluings):
        n = self.tet_count
        full = {}
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
        for t in range(n):
            for f in range(4):
                if (t, f) not in full:
                    raise UnpairedFace("face %d.%d is not glued" % (t, f))
        return full

    def _orient(self):
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
            for f in range(4):
                t2, _, perm = self.gluings[(t, f)]
                want = -orient[t] * SIGN[PERM_INDEX[perm]]
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

    def _walk_around_edge(self, t, i, j):
        """Cyclic fan of tetrahedron edges glued around the edge (t, i, j).

        Returns (members, fan): see EdgeClass.  Each step is a bijection
        on (tetrahedron, oriented edge, entry face), so the walk always
        closes; on an oriented gluing it never meets the edge reversed.
        """
        sides = [c for c in range(4) if c != i and c != j]
        cur = (t, i, j)
        enter = sides[0]
        members, fan = [], []
        while True:
            ct, ci, cj = cur
            exit_face = 6 - ci - cj - enter  # the corner labels sum to 6
            members.append(cur)
            fan.append((ct, ci, cj, enter, exit_face))
            t2, f2, perm = self.gluings[(ct, exit_face)]
            cur = (t2, perm[ci], perm[cj])
            enter = f2
            if cur == (t, i, j) and enter == sides[0]:
                break
        return tuple(members), tuple(fan)

    def _edge_classes(self):
        classes = []
        of = {}
        for t in range(self.tet_count):
            for i in range(4):
                for j in range(i + 1, 4):
                    if (t, i, j) in of:
                        continue
                    members, fan = self._walk_around_edge(t, i, j)
                    idx = len(classes)
                    classes.append(EdgeClass(idx, members, fan))
                    for (mt, mi, mj) in members:
                        of[(mt, mi, mj)] = (idx, 1)
                        of[(mt, mj, mi)] = (idx, -1)
        # Every tetrahedron edge must land in exactly one class.
        assert len(of) == 12 * self.tet_count
        return tuple(classes), of

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
