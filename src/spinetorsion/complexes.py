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
from .intlinalg import smith_normal_form
from .perms import parity


class CellComplexX:
    """Integer cellular chain complex of the one-vertex quotient space.

    X reads its spine only while it is built and keeps no reference to
    it, so a spine can keep its X (``BranchedSpine.complex``) without a
    reference cycle.
    """

    def __init__(self, spine):
        trg = spine.triangulation
        self.n_edges = len(trg.edge_classes)
        self.n_faces = len(trg.face_classes)
        self.n_tets = trg.tet_count
        self.face_sides = []   # per face class: (cls_a, cls_b, cls_c) word data
        self.d1 = [[0] * self.n_edges]
        self.d2 = [[0] * self.n_faces for _ in range(self.n_edges)]
        self.d3 = [[0] * self.n_tets for _ in range(self.n_faces)]
        self._build_d2(spine)
        self._build_d3(spine)

    def _build_d2(self, spine):
        trg = spine.triangulation
        for fc in range(self.n_faces):
            (t, f), _ = trg.face_classes[fc]
            # Ranks are in-degrees of the branching, so s -> m -> k and
            # s -> k all run along their classes.
            s, m, k = spine.face_roles(t, f)
            cls_a = spine.oriented_class(t, s, m)[0]
            cls_b = spine.oriented_class(t, m, k)[0]
            cls_c = spine.oriented_class(t, s, k)[0]
            self.face_sides.append((cls_a, cls_b, cls_c))
            self.d2[cls_a][fc] += 1
            self.d2[cls_b][fc] += 1
            self.d2[cls_c][fc] -= 1

    def _build_d3(self, spine):
        trg = spine.triangulation
        self.d3_terms = []   # (face class, tet, sign, sink corner of the face)
        for t in range(self.n_tets):
            pos = (0, 1, 2, 3) if spine.orientations[t] == 1 else (1, 0, 2, 3)
            for i in range(4):
                omitted = pos[i]
                w = tuple(c for c in pos if c != omitted)
                roles = spine.face_roles(t, omitted)
                sgn = (-1) ** i * parity([roles.index(c) for c in w])
                fc = trg.face_class_of[t][omitted]
                self.d3_terms.append((fc, t, sgn, roles[2]))
                self.d3[fc][t] += sgn

    @cached_property
    def rational_complex(self):
        """The untwisted complex over Q, read off d1..d3; computed once.

        Entry by entry it equals the trivial-representation TwistedComplex,
        without the Smith form a Representation needs.
        """
        from .fields import RationalField
        field = RationalField()
        return ChainComplex(
            field, (1, self.n_edges, self.n_faces, self.n_tets),
            *[[[field.from_int(x) for x in row] for row in d]
              for d in (self.d1, self.d2, self.d3)])


class GroupData:
    """Edge-generator, face-relator presentation of pi_1(X) and its H_1.

    Relator words are read around a face boundary starting at the sink
    corner: with corner order (s, m, t) and generators a = [s->m],
    b = [m->t], c = [s->t], the relator is c^-1 a b, whose abelianisation
    is exactly the face's d2 column.

    H_1 = Z^E / im d2 comes from the Smith form U * d2 * V = D, run on
    first read: an edge chain x has the free and torsion (mod d)
    coordinates of U x.  A transported representation reads only the
    presentation, so a walk spine builds no Smith form.
    """

    def __init__(self, complex_x):
        self.complex = complex_x
        self.n_generators = complex_x.n_edges
        self.relators = [((cls_c, -1), (cls_a, 1), (cls_b, 1))
                         for cls_a, cls_b, cls_c in complex_x.face_sides]

    @cached_property
    def _smith(self):
        """(U, free rows, (row, order) per torsion row) of the Smith form
        of d2."""
        X = self.complex
        U, D, _V = smith_normal_form(X.d2, X.n_edges, X.n_faces)
        diag = [D[i][i] for i in range(min(X.n_edges, X.n_faces))]
        rank = sum(1 for d in diag if d != 0)
        return (U, range(rank, X.n_edges),
                tuple((i, d) for i, d in enumerate(diag[:rank]) if d > 1))

    @property
    def free_rank(self):
        return len(self._smith[1])

    @property
    def torsion(self):
        return tuple(d for _i, d in self._smith[2])

    def abelianized_word(self, word):
        vec = [0] * self.n_generators
        for g, e in word:
            vec[g] += e
        return vec

    def generator_class(self, j):
        """The class of edge generator j: column j of U."""
        U, free, tors = self._smith
        return (tuple(U[i][j] for i in free),
                tuple(U[i][j] % d for i, d in tors))

    def class_of_vector(self, vec):
        U, free, tors = self._smith
        y = [sum(u * x for u, x in zip(row, vec)) for row in U]
        return tuple(y[i] for i in free), tuple(y[i] % d for i, d in tors)

    def is_zero_class(self, vec):
        free, tors = self.class_of_vector(vec)
        return not any(free) and not any(tors)


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

    def tet_corner_word(self, t, corner):
        """Word positioning a corner of the preferred lift of tetrahedron t.

        The sink corner sits at the base lift; any other corner sits at
        the inverse of the generator of the edge running from it to the
        sink.
        """
        sink = self.spine.corners_by_rank(t)[3]
        if corner == sink:
            return ()
        return ((self.spine.oriented_class(t, corner, sink)[0], -1),)

    def tet_path_words(self, t):
        """All source-to-sink edge routes of a tetrahedron, as words.

        Any two of these agree modulo the face relators; they are compared
        after abelianisation and under representations by the tests.
        """
        r0, r1, r2, r3 = self.spine.corners_by_rank(t)

        def gen(u, v):  # u ranks below v, so u -> v runs along its class
            return (self.spine.oriented_class(t, u, v)[0], 1)

        return [
            (gen(r0, r3),),
            (gen(r0, r1), gen(r1, r3)),
            (gen(r0, r2), gen(r2, r3)),
            (gen(r0, r1), gen(r1, r2), gen(r2, r3)),
        ]


class Representation:
    """A homomorphism of the edge generators into the units of a field,
    kept as its integer character.

    ``exponents[g]`` is the exponent tuple of generator g's image: the
    free Smith coordinates of its H_1 class in Z^r for "free_abelian"
    (the monomial t1^e1..tr^er; r = 0 maps into Q), a 1-tuple residue k
    mod n for "cyclic" (zeta_n^k), and () for "trivial" (1).  The image of
    a word or an integer edge chain is the monomial of the sum of its
    letters' exponents, taken mod n for a cyclic character, and every
    face relator is checked at construction to sum to the identity
    exponent, so the images are constant on H_1 classes.  Entries of
    twisted matrices are built once each from (exponent, integer
    coefficient) terms by the field's ``from_terms``.
    """

    def __init__(self, group, field, exponents, kind, character=None):
        self.group = group
        self.field = field
        self.exponents = [tuple(e) for e in exponents]
        self.kind = kind
        self.character = character
        self.modulus = field.order if kind == "cyclic" else 0
        self.identity = (0,) * len(self.exponents[0]) if self.exponents else ()
        for word in group.relators:
            if self.exponent_of_word(word) != self.identity:
                raise RelatorNotKilled("a face relator does not map to 1")

    def exponent_of_word(self, word):
        """The exponent of the image of ``word``, (generator, power) pairs."""
        out = list(self.identity)
        for g, k in word:
            if k:
                out = [a + k * b for a, b in zip(out, self.exponents[g])]
        if self.modulus:
            return tuple(a % self.modulus for a in out)
        return tuple(out)

    def exponent_of_vector(self, vec):
        """The exponent of the image of the integer edge chain ``vec``."""
        return self.exponent_of_word(enumerate(vec))

    def image_of_vector(self, vec):
        return self.field.from_terms(((self.exponent_of_vector(vec), 1),))

    @classmethod
    def trivial(cls, group):
        from .fields import RationalField
        return cls(group, RationalField(), [()] * group.n_generators, "trivial")

    @classmethod
    def free_abelian(cls, group):
        """Generators map to monomials given by the free part of their H_1 class.

        Torsion in H_1 is killed: images depend on the free coordinates
        only, keeping the target an integral domain with a usable field
        of fractions: Q(t1..tr) for free rank r, and Q itself for free
        rank 0, where every image is 1.
        """
        from .fields import FunctionField, RationalField
        r = group.free_rank
        field = FunctionField(r) if r else RationalField()
        exponents = [tuple(group.generator_class(j)[0])
                     for j in range(group.n_generators)]
        return cls(group, field, exponents, "free_abelian")

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
        exponents = []
        for j in range(group.n_generators):
            free, tors = group.generator_class(j)
            k = sum(f * c for f, c in zip(free, character[:group.free_rank]))
            k += sum(tv * c for tv, c in
                     zip(tors, character[group.free_rank:]))
            exponents.append((k % order,))
        return cls(group, field, exponents, "cyclic", character)

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

    Dimensions (1, E, F, T).  The default bases are read off one
    ``default_pass``, one elimination of [rows R_i of d_{i+1} | identity]
    per degree 0..2: their column selections, lift coordinates and minors.
    That pass, the lift vectors and the raw torsion are computed on first
    use and kept: the matrices are never changed after construction.
    ``raw_torsions`` keeps the raw torsion under each set of homology
    lifts it was asked for, keyed by the values of the lifts
    (``torsion._rational_value``, on the rational complex of a spine).
    """

    def __init__(self, field, dims, d1, d2, d3):
        self.field = field
        self.dims = dims
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3
        self.raw_torsions = {}

    @cached_property
    def default_pass(self):
        """``torsion.selection_pass`` in the identity column order with the
        auto lifts: the b_i selections, the minors of the default bases and
        the lift coordinates, from one elimination per degree."""
        from .torsion import selection_pass
        return selection_pass(self)

    @cached_property
    def default_lifts(self):
        """``torsion.auto_twisted_homology`` of this complex."""
        from .torsion import auto_twisted_homology
        return auto_twisted_homology(self)

    @cached_property
    def default_torsion(self):
        """Raw (sign-kept) torsion value in the default bases: identity
        column order, and the auto lifts unless the complex is acyclic."""
        from .torsion import _raw_value
        return _raw_value(self, *self.default_pass[:2])

    @cached_property
    def _d3_columns(self):
        """Per 3-cell j, the (row, entry) of each nonzero entry of column j
        of d3, for the cycle check of a transport into this complex."""
        cols = [[] for _ in range(self.dims[3])]
        for r, row in enumerate(self.d3):
            for j, x in enumerate(row):
                if not x.is_zero():
                    cols[j].append((r, x))
        return cols

    def path_image(self, vec):
        """Image of an integer edge chain under the twisting; 1 untwisted."""
        return self.field.one


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
        entry = field.from_terms
        d3 = [[field.zero] * T for _ in range(F)]
        terms = {}
        for fc, t, sgn, sink in complex_x.d3_terms:
            exp = rep.exponent_of_word(anchors.tet_corner_word(t, sink))
            terms.setdefault((fc, t), []).append((exp, sgn))
        for (fc, t), cell_terms in terms.items():
            d3[fc][t] = entry(cell_terms)
        super().__init__(field, (1, E, F, T),
                         [[entry(((rep.identity, 1),
                                  (rep.exponent_of_word(((j, -1),)), -1)))
                           for j in range(E)]],
                         twisted_d2(complex_x, rep), d3)

    def path_image(self, vec):
        return self.rep.image_of_vector(vec)


def twisted_d2(complex_x, rep):
    """The twisted d2 of X under ``rep`` in the preferred-lift bases; it
    reads only the face sides of X, not its spine."""
    field = rep.field
    one = rep.identity
    d2 = [[field.zero] * complex_x.n_faces for _ in range(complex_x.n_edges)]
    for fc, (cls_a, cls_b, cls_c) in enumerate(complex_x.face_sides):
        col = {}
        for cls, term in ((cls_a, (rep.exponent_of_word(((cls_b, -1),)), 1)),
                          (cls_b, (one, 1)), (cls_c, (one, -1))):
            col.setdefault(cls, []).append(term)
        for cls, terms in col.items():
            d2[cls][fc] = field.from_terms(terms)
    return d2


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
