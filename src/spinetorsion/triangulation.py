"""Ideal triangulations given by face gluings of tetrahedra.

A triangulation is a list of abstract tetrahedra with corners labelled
0..3 and a total gluing of their faces.  Face f of a tetrahedron is the
triangle spanned by the three corners different from f.  A gluing is a
permutation of {0,1,2,3} carrying f to the partner face index and the
three corners of f to the corners of the partner face.  Self-adjacencies
and multiple adjacencies are allowed; gluing a face to itself is not.

The glue table ``glue[t][f] = (t2, permutation index)`` is the one gluing
format: a ``Triangulation`` is built from one and stores it.  The census
hands it a copy of its live table, the moves and relabelling write the
after table, and only ``glue_table`` reads a gluing dict, the form a spine
file gives.  The edge walk, the isomorphism encoder, the moves and the
spine files all read the table, and the face and edge class lookups are
per-tetrahedron tables beside it.

Everything derived here (face, edge and vertex classes, tetrahedron
orientations, vertex links) is purely combinatorial and shared by the
branched-spine layer on top.  An edge class is its fan, the walk around
it (see ``edge_walk``); its valence is the length of the fan.
"""

from functools import cached_property

from .errors import Disconnected, NonOrientable, UnpairedFace
from .perms import ALL_PERMS, INVERSE, PERM_INDEX, SIGN

_FACE_CORNERS = tuple(tuple(c for c in range(4) if c != f) for f in range(4))
"""``_FACE_CORNERS[f]``: the corners of face f, in increasing order."""
_CORNER_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
"""The six corner pairs i < j of a tetrahedron; pair e is ``_CORNER_PAIRS[e]``."""
_PAIR = tuple(tuple(_CORNER_PAIRS.index((min(i, j), max(i, j))) if i != j else None
                    for j in range(4)) for i in range(4))
"""``_PAIR[i][j]``: the index in ``_CORNER_PAIRS`` of the pair {i, j}."""


class Triangulation:
    """A connected, orientable gluing of tetrahedra along all faces.

    Built from, and stored as, the glue table: ``glue[t][f]`` is (the
    tetrahedron behind face f of t, the index in ``ALL_PERMS`` of the
    gluing permutation), a gluing of every face that inverts on the
    partner side (``glue_table`` checks one read from outside).
    ``face_class_of[t][f]`` is the face class of face f of t.
    ``edge_classes`` and ``pair_classes`` are the fans of the edge classes
    and the edge class of each corner pair, from ``edge_walk`` or ``_walk``.
    """

    def __init__(self, glue, _walk=None):
        self.tet_count = len(glue)
        self.glue = glue
        self.orientations = self._orient()
        self.face_classes, self.face_class_of = self._face_classes()
        self.edge_classes, self.pair_classes = _walk or edge_walk(glue, self.tet_count)

    # -- construction checks -------------------------------------------------

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
            for t2, k in self.glue[t]:
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
        """The face classes, each as its two sides ((t, f), (t2, f2)) from
        the lesser, and the table ``face_class_of``."""
        classes = []
        of = [[None] * 4 for _ in range(self.tet_count)]
        for t, row in enumerate(self.glue):
            for f, (t2, k) in enumerate(row):
                if of[t][f] is None:
                    f2 = ALL_PERMS[k][f]
                    of[t][f] = of[t2][f2] = len(classes)
                    classes.append(((t, f), (t2, f2)))
        return tuple(classes), of

    def edge_class_of(self, t, i, j):
        """(class, sign) of the edge of tetrahedron t from corner i to j:
        sign 1 if the walk of the class runs along it from i to j, else -1."""
        k, s = self.pair_classes[t][_PAIR[i][j]]
        return (k, s) if i < j else (k, -s)

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

        for t, row in enumerate(self.glue):
            for f, (t2, k) in enumerate(row):
                perm = ALL_PERMS[k]
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
        for fan in self.edge_classes:
            t, i, j = fan[0][:3]
            ends += ((t, i) in corners) + ((t, j) in corners)
        chi = ends - len(corners) // 2
        assert chi % 2 == 0 and chi <= 2
        return chi, (2 - chi) // 2


def glue_table(tet_count, gluings):
    """The glue table of a gluing dict ``(t, f) -> (t2, f2, perm)``, which
    may give a face pair from either side or from both, for a new
    ``Triangulation``; UnpairedFace names the first entry that is not a
    gluing.  Rows are made only for the tetrahedra the entries name, so a
    tetrahedron count far beyond them fails on its first unglued face
    without a table of that size."""
    if tet_count <= 0:
        raise UnpairedFace("a triangulation needs at least one tetrahedron")
    rows = {}
    for (t, f), (t2, f2, perm) in gluings.items():
        if not (0 <= t < tet_count and 0 <= t2 < tet_count):
            raise UnpairedFace("gluing refers to tetrahedron out of range")
        if not (0 <= f < 4 and 0 <= f2 < 4):
            raise UnpairedFace("gluing refers to face out of range")
        try:
            k = PERM_INDEX[tuple(perm)]
        except (KeyError, TypeError):
            raise UnpairedFace(
                "gluing permutation %r is not a bijection" % (perm,)) from None
        if ALL_PERMS[k][f] != f2:
            raise UnpairedFace(
                "gluing permutation must carry face %d to face %d" % (f, f2))
        if (t, f) == (t2, f2):
            raise UnpairedFace("face %d.%d glued to itself" % (t, f))
        for a, b, val in ((t, f, (t2, k)), (t2, f2, (t, INVERSE[k]))):
            row = rows.setdefault(a, [None] * 4)
            if row[b] is None:
                row[b] = val
            elif row[b] != val:
                raise UnpairedFace("face %d.%d glued twice inconsistently" % (a, b))
    for t in range(tet_count):
        row = rows.get(t, (None,))
        if None in row:
            raise UnpairedFace("face %d.%d is not glued" % (t, row.index(None)))
    return [rows[t] for t in range(tet_count)]


def edge_walk(glue, tet_count):
    """The edge classes of an oriented glue table, one walk around each.

    Returns ``(fans, pair_classes)``.  ``fans[k]`` is the walk around edge
    class k, one step ``(t, i, j, enter_face, exit_face)`` per tetrahedron
    edge in it, all coherently oriented from i to j, in cyclic order: the
    walk enters tetrahedron t through ``enter_face`` and leaves through
    ``exit_face``.  It starts at the first tetrahedron edge (t, i < j) of
    the class in scan order, its least, and enters through the lower of
    the two other corners; classes are numbered in the order their first
    edges come.
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
    return tuple(fans), pair_classes
