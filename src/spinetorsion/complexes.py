"""The one-vertex quotient complex of a branched spine and its twisted chains.

The manifold of a branched spine, with its whole boundary collapsed to a
single point, is a CW complex X with one vertex, one edge per edge class
of the triangulation (oriented by the branching), one 2-cell per face
class and one 3-cell per tetrahedron.  All cells carry canonical
orientations: edges by the branching flow, a face by the corner order
(source, middle, sink), a tetrahedron by its ambient orientation bit.

Untwisted boundaries, with these orientations:

- every edge is a loop at the vertex, so d1 = 0;
- a face with corner order (s, m, t) has boundary
  +[s->m] + [m->t] - [s->t], i.e. the two sides inducing the prevailing
  orientation enter with +1 and the third with -1;
- a tetrahedron has boundary +-1 on its four faces, two of each sign,
  with the sign comparing the face's canonical corner order against the
  boundary orientation induced by a positive corner order of the
  tetrahedron.

For the twisted complex each cell has a preferred lift in the universal
cover, fixed by the flow: the lift of an edge whose head is the base
lift, the lift of a face or tetrahedron whose sink corner is the base
lift.  Deck translations act on the left and a path lifted from vertex
g ends at vertex g*[path], so the twisted boundary entries below are
exact words in the edge generators, evaluated through a representation.
"""

from functools import cached_property

from .errors import RelatorNotKilled
from .intlinalg import CokernelData
from .perms import sign3
from .triangulation import _face_corners


class CellComplexX:
    """Integer cellular chain complex of the one-vertex quotient space."""

    def __init__(self, spine):
        self.spine = spine
        trg = spine.triangulation
        self.n_edges = len(trg.edge_classes)
        self.n_faces = len(trg.face_classes)
        self.n_tets = trg.tet_count
        self.face_sides = []   # per face class: (cls_a, cls_b, cls_c) word data
        self.d1 = [[0] * self.n_edges]
        self.d2 = [[0] * self.n_faces for _ in range(self.n_edges)]
        self.d3 = [[0] * self.n_tets for _ in range(self.n_faces)]
        self._build_d2()
        self._build_d3()

    def _build_d2(self):
        from .errors import InconsistentAnchor
        spine = self.spine
        trg = spine.triangulation
        for fc in range(self.n_faces):
            (t, f), _ = trg.face_classes[fc]
            s, m, k = spine.face_roles(t, f)
            cls_a, sa = spine.oriented_class(t, s, m)
            cls_b, sb = spine.oriented_class(t, m, k)
            cls_c, sc = spine.oriented_class(t, s, k)
            if not sa == sb == sc == 1:  # ranks come from the branching
                raise InconsistentAnchor(
                    "face roles disagree with class directions")
            self.face_sides.append((cls_a, cls_b, cls_c))
            self.d2[cls_a][fc] += 1
            self.d2[cls_b][fc] += 1
            self.d2[cls_c][fc] -= 1

    def _build_d3(self):
        spine = self.spine
        trg = spine.triangulation
        for t in range(self.n_tets):
            pos = (0, 1, 2, 3) if spine.orientations[t] == 1 else (1, 0, 2, 3)
            for i in range(4):
                omitted = pos[i]
                w = tuple(c for c in pos if c != omitted)
                roles = spine.face_roles(t, omitted)
                sgn = (-1) ** i * sign3(w, roles)
                fc = trg.face_class_of[(t, omitted)]
                self.d3[fc][t] += sgn

    def euler_characteristic(self):
        return 1 - self.n_edges + self.n_faces - self.n_tets

    @cached_property
    def rational_complex(self):
        """The untwisted complex over Q, read off d1..d3; computed once.

        Entry by entry it equals the trivial-representation TwistedComplex,
        without the Smith form a Representation needs.
        """
        from .fields import FunctionField
        field = FunctionField(0)
        return ChainComplex(
            field, (1, self.n_edges, self.n_faces, self.n_tets),
            *[[[field.from_int(x) for x in row] for row in d]
              for d in (self.d1, self.d2, self.d3)])

    @cached_property
    def rational_homology(self):
        """``default_rational_homology`` of this complex, computed once."""
        from .torsion import default_rational_homology
        return default_rational_homology(self)


class GroupData:
    """Edge-generator, face-relator presentation of pi_1(X) and its H_1.

    Relator words are read around a face boundary starting at the sink
    corner: with corner order (s, m, t) and generators a = [s->m],
    b = [m->t], c = [s->t], the relator is c^-1 a b, whose abelianisation
    is exactly the face's d2 column.
    """

    def __init__(self, complex_x):
        self.complex = complex_x
        self.n_generators = complex_x.n_edges
        self.relators = []
        for (cls_a, cls_b, cls_c) in complex_x.face_sides:
            self.relators.append(((cls_c, -1), (cls_a, 1), (cls_b, 1)))
        self.h1 = CokernelData(complex_x.d2, complex_x.n_edges, complex_x.n_faces)
        self.free_rank = self.h1.free_rank
        self.torsion = self.h1.torsion

    def abelianized_word(self, word):
        vec = [0] * self.n_generators
        for g, e in word:
            vec[g] += e
        return vec

    def generator_class(self, j):
        vec = [0] * self.n_generators
        vec[j] = 1
        return self.h1.project(vec)

    def class_of_vector(self, vec):
        return self.h1.project(vec)


class SpiderAnchors:
    """Preferred-lift anchor words for every cell, from the flow.

    The anchor of the base vertex and of every edge is the empty word
    (edges are anchored head-at-base, so the generator letter shows up in
    the twisted d1 as 1 - phi(g)^-1 instead).  A face with sides
    a = [s->m], b = [m->t] is anchored at its sink, placing its source
    corner at b^-1 a^-1.  A tetrahedron is anchored at its sink corner;
    ``tet_corner_word`` positions any corner of the preferred lift.
    """

    def __init__(self, spine, complex_x):
        self.spine = spine
        self.complex = complex_x

    def face_anchor_word(self, fc):
        cls_a, cls_b, _cls_c = self.complex.face_sides[fc]
        return ((cls_b, -1), (cls_a, -1))

    def edge_anchor_word(self, _cls):
        return ()

    def base_anchor_word(self):
        return ()

    def tet_corner_word(self, t, corner):
        """Word positioning a corner of the preferred lift of tetrahedron t.

        The sink corner sits at the base lift; any other corner sits at
        the inverse of the generator of the edge running from it to the
        sink.
        """
        from .errors import InconsistentAnchor
        order = self.spine.corners_by_rank(t)
        sink = order[3]
        if corner == sink:
            return ()
        cls, s = self.spine.oriented_class(t, corner, sink)
        if s != 1:
            raise InconsistentAnchor("edge into the sink runs against its class")
        return ((cls, -1),)

    def epsilon(self):
        """Sign (-1)^dim for every cell of the spine, keyed by dual cell kind.

        Spine vertices (dual tetrahedra) get +1, spine edges (dual faces)
        get -1, regions (dual edge classes) get +1.
        """
        return {"tet": 1, "face": -1, "edge": 1}

    def spider_boundary_identity(self):
        """Formal boundary of the signed spider, with d(path) = head - tail.

        Returns (coefficient at the base vertex, per-cell coefficients).
        Every leg runs from a cell centre to the base vertex, so the
        base coefficient is the alternating cell count chi(spine) =
        1 - chi(X) and each centre c keeps coefficient -epsilon(c).
        """
        eps = self.epsilon()
        cells = ([("edge", k) for k in range(self.complex.n_edges)]
                 + [("face", k) for k in range(self.complex.n_faces)]
                 + [("tet", k) for k in range(self.complex.n_tets)])
        x0_coeff = sum(eps[kind] for kind, _ in cells)
        return x0_coeff, {cell: -eps[cell[0]] for cell in cells}

    def tet_path_words(self, t):
        """All source-to-sink edge routes of a tetrahedron, as words.

        Any two of these agree modulo the face relators; they are compared
        after abelianisation and under representations by the tests.
        """
        from .errors import InconsistentAnchor
        r0, r1, r2, r3 = self.spine.corners_by_rank(t)

        def gen(u, v):
            cls, s = self.spine.oriented_class(t, u, v)
            if s != 1:
                raise InconsistentAnchor("rank order disagrees with an edge class")
            return (cls, 1)

        return [
            (gen(r0, r3),),
            (gen(r0, r1), gen(r1, r3)),
            (gen(r0, r2), gen(r2, r3)),
            (gen(r0, r1), gen(r1, r2), gen(r2, r3)),
        ]


class Representation:
    """A homomorphism of the edge generators into the units of a field.

    ``kind`` is one of "trivial", "free_abelian", "cyclic"; in all cases
    the images are constant on H_1 classes, and every face relator is
    checked to map to 1 at construction time.
    """

    def __init__(self, group, field, images, kind, character=None):
        self.group = group
        self.field = field
        self.images = list(images)
        self.inverses = [x.inv() for x in self.images]
        self.kind = kind
        self.character = character
        for word in group.relators:
            if not self.word_image(word) == field.one:
                raise RelatorNotKilled("a face relator does not map to 1")

    def word_image(self, word):
        out = self.field.one
        for g, e in word:
            out = out * (self.images[g] if e > 0 else self.inverses[g])
        return out

    def image_of_vector(self, vec):
        out = self.field.one
        for j, e in enumerate(vec):
            if e > 0:
                for _ in range(e):
                    out = out * self.images[j]
            elif e < 0:
                for _ in range(-e):
                    out = out * self.inverses[j]
        return out

    @classmethod
    def trivial(cls, group, field=None):
        from .fields import FunctionField
        field = field or FunctionField(0)
        return cls(group, field, [field.one] * group.n_generators, "trivial")

    @classmethod
    def free_abelian(cls, group):
        """Generators map to monomials given by the free part of their H_1 class.

        Torsion in H_1 is killed: images depend on the free coordinates
        only, keeping the target an integral domain with a usable field
        of fractions.
        """
        from .fields import FunctionField
        r = group.free_rank
        field = FunctionField(r)
        images = []
        for j in range(group.n_generators):
            free, _tors = group.generator_class(j)
            images.append(field.monomial(free))
        return cls(group, field, images, "free_abelian")

    @classmethod
    def cyclic(cls, group, order, character=None):
        """Character values on the Smith coordinates of H_1, into Z/order.

        ``character`` lists one residue per free generator followed by one
        per torsion generator; a torsion generator of order d needs
        d * value = 0 mod order, otherwise the character does not factor
        through H_1 and RelatorNotKilled is raised.  The default character
        sends the first free generator to 1 if there is one, else scales
        through the first usable torsion generator.
        """
        from .fields import CyclotomicField
        field = CyclotomicField(order)
        ncoords = group.free_rank + len(group.torsion)
        if character is None:
            character = cls._default_character(group, order)
        character = tuple(int(c) % order for c in character)
        if len(character) != ncoords:
            raise RelatorNotKilled(
                "character needs %d coordinates, got %d" % (ncoords, len(character)))
        for i, d in enumerate(group.torsion):
            val = character[group.free_rank + i]
            if (d * val) % order != 0:
                raise RelatorNotKilled(
                    "character value %d on a torsion generator of order %d "
                    "does not vanish mod %d" % (val, d, order))
        images = []
        for j in range(group.n_generators):
            free, tors = group.generator_class(j)
            k = sum(f * c for f, c in zip(free, character[:group.free_rank]))
            k += sum(tv * c for tv, c in
                     zip(tors, character[group.free_rank:]))
            images.append(field.zeta(k % order))
        return cls(group, field, images, "cyclic", character)

    @staticmethod
    def _default_character(group, order):
        char = [0] * (group.free_rank + len(group.torsion))
        if group.free_rank > 0:
            char[0] = 1
            return char
        for i, d in enumerate(group.torsion):
            from math import gcd
            g = gcd(d, order)
            if g > 1:
                char[group.free_rank + i] = order // g
                return char
        return char  # trivial character: only option when H_1 has no part to use


class ChainComplex:
    """Boundary matrices d1, d2, d3 over a coefficient field.

    Dimensions (1, E, F, T).  The column selections, homology lifts and raw
    torsion of the default bases are computed on first use and kept: the
    matrices are never changed after construction.
    """

    def __init__(self, field, dims, d1, d2, d3):
        self.field = field
        self.dims = dims
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    @cached_property
    def default_selections(self):
        """``torsion.column_selections`` in the identity column order."""
        from .torsion import column_selections
        return column_selections(self)

    @cached_property
    def default_lifts(self):
        """``torsion.auto_twisted_homology`` of this complex."""
        from .torsion import auto_twisted_homology
        return auto_twisted_homology(self)

    @cached_property
    def default_torsion(self):
        """Raw (sign-kept) torsion value in the default bases: identity
        column order, and the auto lifts unless the complex is acyclic."""
        from .torsion import default_raw_torsion
        return default_raw_torsion(self)

    def verify_complex(self):
        """Exact check that consecutive boundaries compose to zero."""
        for left, right in ((self.d1, self.d2), (self.d2, self.d3)):
            rows = len(left)
            mid = len(right)
            cols = len(right[0]) if mid else 0
            for i in range(rows):
                for j in range(cols):
                    acc = self.field.zero
                    for k in range(mid):
                        if not (left[i][k].is_zero() or right[k][j].is_zero()):
                            acc = acc + left[i][k] * right[k][j]
                    if not acc.is_zero():
                        return False
        return True


class TwistedComplex(ChainComplex):
    """Boundary matrices of the phi-twisted cellular complex.

    Dimensions (1, E, 2V, V); the matrices are expressed in the
    preferred-lift bases, so applying the trivial representation
    reproduces the integer matrices of CellComplexX entry-wise.
    """

    def __init__(self, spine, complex_x, anchors, rep):
        self.spine = spine
        self.complex = complex_x
        self.anchors = anchors
        self.rep = rep
        field = rep.field
        E, F, T = complex_x.n_edges, complex_x.n_faces, complex_x.n_tets
        zero, one = field.zero, field.one
        super().__init__(field, (1, E, F, T),
                         [[one - rep.inverses[j] for j in range(E)]],
                         [[zero] * F for _ in range(E)],
                         [[zero] * T for _ in range(F)])
        self._build_d2()
        self._build_d3()

    def _build_d2(self):
        rep = self.rep
        for fc, (cls_a, cls_b, cls_c) in enumerate(self.complex.face_sides):
            col = {}
            col[cls_a] = col.get(cls_a, self.field.zero) + rep.inverses[cls_b]
            col[cls_b] = col.get(cls_b, self.field.zero) + self.field.one
            col[cls_c] = col.get(cls_c, self.field.zero) - self.field.one
            for cls, val in col.items():
                self.d2[cls][fc] = val

    def _build_d3(self):
        spine = self.spine
        trg = spine.triangulation
        rep = self.rep
        for t in range(self.complex.n_tets):
            pos = (0, 1, 2, 3) if spine.orientations[t] == 1 else (1, 0, 2, 3)
            for i in range(4):
                omitted = pos[i]
                w = tuple(c for c in pos if c != omitted)
                roles = spine.face_roles(t, omitted)
                sgn = (-1) ** i * sign3(w, roles)
                fc = trg.face_class_of[(t, omitted)]
                coeff = rep.word_image(self.anchors.tet_corner_word(t, roles[2]))
                if sgn < 0:
                    coeff = -coeff
                self.d3[fc][t] = self.d3[fc][t] + coeff

    def matches_integer_complex(self):
        """True when the entries equal the untwisted integer matrices."""
        f = self.field
        pairs = ((self.d1, self.complex.d1), (self.d2, self.complex.d2),
                 (self.d3, self.complex.d3))
        for twisted, plain in pairs:
            for row_t, row_p in zip(twisted, plain):
                for x, k in zip(row_t, row_p):
                    if not x == f.from_int(k):
                        return False
        return True


def make_representation(group, kind, order=None, character=None):
    """Representation factory: kind in {"trivial", "free_abelian", "cyclic"}."""
    if kind == "trivial":
        return Representation.trivial(group)
    if kind == "free_abelian":
        return Representation.free_abelian(group)
    if kind == "cyclic":
        if order is None:
            raise ValueError("cyclic representation needs an order")
        return Representation.cyclic(group, order, character)
    raise ValueError("unknown representation kind %r" % kind)
