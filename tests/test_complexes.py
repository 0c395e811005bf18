import random
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest

from spinetorsion.complexes import (CellComplexX, GroupData, Representation,
                                    SpiderAnchors, TwistedComplex,
                                    make_representation)
from spinetorsion.errors import RelatorNotKilled, Stuck
from spinetorsion.fields import CyclotomicField, FunctionField, RationalField
from spinetorsion.moves import _tree_chains, random_walk, transport_representation
from spinetorsion.intlinalg import smith_normal_form
from spinetorsion.spinefile import parse

from fixtures import ONE_TET, TORSION2
from oracles import (base_anchor_word, edge_anchor_word, epsilon,
                     face_anchor_word, images_of_generators,
                     matches_integer_complex, spider_boundary_identity,
                     verify_complex, word_image)


def int_mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def test_d1_vanishes(corpus12):
    for s in corpus12:
        X = CellComplexX(s)
        assert all(v == 0 for v in X.d1[0])


def test_d2_columns_match_boundary_pattern(corpus12):
    # +1 on the two sides inducing the prevailing direction, -1 on the third.
    for s in corpus12:
        X = CellComplexX(s)
        for fc, (a, b, c) in enumerate(X.face_sides):
            expected = {}
            expected[a] = expected.get(a, 0) + 1
            expected[b] = expected.get(b, 0) + 1
            expected[c] = expected.get(c, 0) - 1
            for e in range(X.n_edges):
                assert X.d2[e][fc] == expected.get(e, 0)
            assert sum(X.d2[e][fc] for e in range(X.n_edges)) == 1


def test_d3_columns_two_plus_two_minus(corpus12):
    for s in corpus12:
        X = CellComplexX(s)
        for t in range(X.n_tets):
            col = [X.d3[r][t] for r in range(X.n_faces)]
            assert sum(col) == 0
            assert all(abs(v) <= 2 for v in col)
            # before cancellation there are exactly two +1 and two -1 entries
            pos = sum(v for v in col if v > 0)
            assert pos <= 2


def test_d3_cancellation_occurs_somewhere(census1):
    found = False
    for s in census1:
        X = CellComplexX(s)
        for t in range(X.n_tets):
            col = [X.d3[r][t] for r in range(X.n_faces)]
            if any(v == 0 for v in col) or any(abs(v) == 2 for v in col):
                found = True
    assert found


def test_d2_d3_composes_to_zero(corpus12):
    for s in corpus12:
        X = CellComplexX(s)
        prod = int_mat_mul(X.d2, X.d3)
        assert all(all(v == 0 for v in row) for row in prod)


def test_h0_is_z(corpus12):
    # One vertex and d1 = 0, so H_0 = Z directly; checked via Smith form of d1.
    for s in corpus12[:10]:
        X = CellComplexX(s)
        _U, D, _V = smith_normal_form(X.d1, 1, X.n_edges)
        assert all(D[0][j] == 0 for j in range(X.n_edges))


def test_abelianized_relators_are_d2_columns(corpus12):
    for s in corpus12:
        X = CellComplexX(s)
        G = GroupData(X)
        for fc, word in enumerate(G.relators):
            vec = G.abelianized_word(word)
            assert vec == [X.d2[e][fc] for e in range(X.n_edges)]


def _minor_gcd(matrix, rows, cols, k):
    if k == 0:
        return 1

    def det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        out = 0
        for j in range(n):
            if m[0][j] == 0:
                continue
            minor = [[m[i][x] for x in range(n) if x != j]
                     for i in range(1, n)]
            term = m[0][j] * det(minor)
            out += term if j % 2 == 0 else -term
        return out

    g = 0
    for rr in combinations(range(rows), k):
        for cc in combinations(range(cols), k):
            g = gcd(g, det([[matrix[i][j] for j in cc] for i in rr]))
    return abs(g)


def _presented(d2):
    """GroupData of a bare presentation matrix: Z^rows / im d2, no relators."""
    return GroupData(SimpleNamespace(d2=d2, n_edges=len(d2),
                                     n_faces=len(d2[0]), face_sides=[]))


def test_group_data_cokernel():
    # Z^2 / im [[2,0],[0,3]] = Z/2 + Z/3 = Z/6
    G = _presented([[2, 0], [0, 3]])
    assert G.free_rank == 0
    assert G.torsion == (6,)
    assert G.is_zero_class([6, 0]) or not G.is_zero_class([1, 0])
    # Z^2 / im [[2],[0]]: one free generator and one Z/2
    G = _presented([[2], [0]])
    assert G.free_rank == 1
    assert G.torsion == (2,)
    assert not G.is_zero_class([1, 0])
    assert G.is_zero_class([2, 0])
    assert not G.is_zero_class([0, 1])
    # A generator's class is the class of its unit vector.
    for j in range(2):
        assert G.generator_class(j) == G.class_of_vector([int(i == j) for i in range(2)])


def test_h1_matches_minors_oracle(census1):
    # Independent elimination path: invariant factors from minors gcds.
    for s in census1:
        X = CellComplexX(s)
        G = GroupData(X)
        rows, cols = X.n_edges, X.n_faces
        prev = 1
        factors = []
        for k in range(1, min(rows, cols) + 1):
            dk = _minor_gcd(X.d2, rows, cols, k)
            if dk == 0:
                break
            factors.append(dk // prev)
            prev = dk
        torsion = tuple(d for d in factors if d > 1)
        free = rows - len(factors)
        assert torsion == G.torsion
        assert free == G.free_rank


def test_full_rank_d2_gives_finite_h1(corpus12):
    from spinetorsion.fields import FunctionField
    F = FunctionField(0)
    for s in corpus12:
        X = CellComplexX(s)
        G = GroupData(X)
        if F.rank([[F.from_int(k) for k in row] for row in X.d2]) == X.n_edges:
            assert G.free_rank == 0
            order = 1
            for d in G.torsion:
                order *= d
            dk = _minor_gcd(X.d2, X.n_edges, X.n_faces, X.n_edges)
            assert order == dk


def test_anchor_words():
    s = parse(ONE_TET)
    X = CellComplexX(s)
    A = SpiderAnchors(s, X)
    assert base_anchor_word() == ()
    for e in range(X.n_edges):
        assert edge_anchor_word(e) == ()
    for fc, (a, b, _c) in enumerate(X.face_sides):
        assert face_anchor_word(X, fc) == ((b, -1), (a, -1))
    for t in range(s.tet_count):
        order = s.corners_by_rank(t)
        assert A.tet_corner_word(t, order[3]) == ()
        word = A.tet_corner_word(t, order[2])
        assert len(word) == 1 and word[0][1] == -1


def test_intra_tet_path_words_agree(corpus12):
    # All source-to-sink routes in a tetrahedron agree after abelianisation
    # and under representations (they differ by face relators).
    for s in corpus12[:15]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        reps = [Representation.trivial(G), Representation.free_abelian(G),
                Representation.cyclic(G, 3)]
        for t in range(s.tet_count):
            words = A.tet_path_words(t)
            base = G.abelianized_word(words[0])
            for w in words[1:]:
                diff = [x - y for x, y in zip(G.abelianized_word(w), base)]
                assert G.is_zero_class(diff)
            for rep in reps:
                imgs = {word_image(rep, w) for w in words}
                assert len(imgs) == 1


def test_spider_boundary_identity(corpus12):
    for s in corpus12[:15]:
        X = CellComplexX(s)
        x0, cells = spider_boundary_identity(X)
        chi_spine, chi_x = s.euler_characteristics()
        assert x0 == 1 - chi_x == chi_spine
        eps = epsilon()
        for (kind, _), coeff in cells.items():
            assert coeff == -eps[kind]


def test_trivial_representation():
    s = parse(ONE_TET)
    G = GroupData(CellComplexX(s))
    rep = make_representation(G, "trivial")
    assert all(x == rep.field.one for x in images_of_generators(rep))


def test_free_abelian_images_are_monomials(corpus12):
    for s in corpus12[:10]:
        G = GroupData(CellComplexX(s))
        rep = Representation.free_abelian(G)
        if G.free_rank == 0:  # no variable: the images are 1 in Q
            assert rep.field == RationalField()
            assert all(x == rep.field.one for x in images_of_generators(rep))
            continue
        images = images_of_generators(rep)
        for j in range(G.n_generators):
            free, _tors = G.generator_class(j)
            img = images[j]
            assert len(img.den) == 1
            assert len(img.num) == 1
            if any(free):
                key = max(img.num)
                shift = max(img.den)
                assert tuple(a - b for a, b in zip(key, shift)) == free


def test_cyclic_character_validation():
    s = parse(TORSION2)
    G = GroupData(CellComplexX(s))
    assert G.free_rank == 0 and G.torsion == (2,)
    # A character sending the order-2 generator to 1 mod 3 does not factor
    # through H_1.
    with pytest.raises(RelatorNotKilled):
        Representation.cyclic(G, 3, character=[1])
    rep = Representation.cyclic(G, 2, character=[1])
    assert any(not (x == rep.field.one) for x in images_of_generators(rep))


def test_twisted_trivial_specialization(corpus12):
    # The trivial representation takes the rational complex; the all-ones
    # character into Q(zeta_1) builds its twisted entries, the integer ones.
    for s in corpus12[:15]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        ones = Representation(G, CyclotomicField(1), [(0,)] * G.n_generators,
                              "cyclic")
        for rep in (Representation.trivial(G), ones):
            assert matches_integer_complex(TwistedComplex(s, X, A, rep))


def test_twisted_dd_zero(corpus12):
    for s in corpus12[:15]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        for rep in (Representation.free_abelian(G),
                    Representation.cyclic(G, 2),
                    Representation.cyclic(G, 5)):
            tw = TwistedComplex(s, X, A, rep)
            assert verify_complex(tw)


def test_twisted_dimensions_bookkeeping(corpus12):
    # Alternating sum of chain dimensions equals chi of the quotient complex.
    for s in corpus12[:10]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        tw = TwistedComplex(s, X, A, Representation.free_abelian(G))
        alt = sum((-1) ** i * d for i, d in enumerate(tw.dims))
        assert alt == s.euler_characteristics()[1]


def test_twisted_d1_row_pattern(corpus12):
    for s in corpus12[:10]:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        rep = Representation.free_abelian(G)
        tw = TwistedComplex(s, X, A, rep)
        one = rep.field.one
        inverses = images_of_generators(rep, -1)
        for j in range(X.n_edges):
            assert tw.d1[0][j] == one - inverses[j]


# -- the integer character against products in the field ------------------------


def _generator_images(G, rep, order):
    """Each generator's image built in the field from its H_1 class:
    t1^f1..tr^fr from its free coordinates f, or zeta_n multiplied out
    k times, k the character of its Smith coordinates, n = ``order``.
    Where every image is 1 the field is Q."""
    Q = RationalField()
    if rep.kind == "free_abelian":
        if not G.free_rank:
            return Q, [Q.one] * G.n_generators
        F = FunctionField(G.free_rank)
        return F, [F.monomial(G.generator_class(j)[0])
                   for j in range(G.n_generators)]
    C = CyclotomicField(order)
    out = []
    for j in range(G.n_generators):
        free, tors = G.generator_class(j)
        k = sum(c * x for c, x in zip(rep.character, tuple(free) + tuple(tors)))
        x = C.one
        for _ in range(k % C.order):
            x = x * C.zeta(1)
        out.append(x)
    if all(x == C.one for x in out):
        return Q, [Q.one] * G.n_generators
    return C, out


def _product(field, images, pairs):
    """The product of images[g]^k over the (g, k) ``pairs``."""
    out = field.one
    for g, k in pairs:
        x = images[g] if k > 0 else images[g].inv()
        for _ in range(abs(k)):
            out = out * x
    return out


@pytest.mark.parametrize("kind,order", [("free_abelian", None), ("cyclic", 1),
                                        ("cyclic", 5), ("cyclic", 12)])
def test_character_matches_field_products(corpus12, kind, order):
    rnd = random.Random(order)
    for s in corpus12:
        X = CellComplexX(s)
        G = GroupData(X)
        A = SpiderAnchors(s, X)
        rep = make_representation(G, kind, order)
        field, images = _generator_images(G, rep, order)
        assert rep.field == field
        assert images_of_generators(rep) == images
        assert images_of_generators(rep, -1) == [x.inv() for x in images]
        words = list(G.relators)
        words += [face_anchor_word(X, fc) for fc in range(X.n_faces)]
        words += [A.tet_corner_word(t, c) for t in range(s.tet_count)
                  for c in range(4)]
        words += [w for t in range(s.tet_count) for w in A.tet_path_words(t)]
        for w in words:
            assert word_image(rep, w) == _product(field, images, w)
        for _ in range(5):
            vec = [rnd.randint(-2, 2) for _ in range(G.n_generators)]
            assert rep.image_of_vector(vec) == _product(field, images, enumerate(vec))


def test_cyclic_order_below_one_raises_before_the_character(corpus12):
    # Order 0 fails on the field, not with a ZeroDivisionError from the
    # character taken mod 0, whether the character is given or the default.
    for s in corpus12[:10]:
        G = GroupData(CellComplexX(s))
        ncoords = G.free_rank + len(G.torsion)
        for character in (None, [1] * ncoords):
            for order in (0, -3):
                with pytest.raises(ValueError,
                                   match="cyclotomic order must be >= 1"):
                    Representation.cyclic(G, order, character)


def test_transported_character_matches_tree_path_products(census2):
    for i, s in enumerate(census2[::3]):
        try:
            walk = random_walk(s, 4, 300 + i, h_null_only=True, max_tets=5)
        except Stuck:
            continue
        for kind, order in (("free_abelian", None), ("cyclic", 5)):
            rep = make_representation(s.group, kind, order)
            for move in walk:
                after = transport_representation(move, rep)
                before_images = images_of_generators(rep)
                after_images = images_of_generators(after)
                for old, new in enumerate(move.cells[1]):
                    if new is not None:
                        assert after_images[new] == before_images[old]
                if move.direction == "positive":
                    bip = move.bipyramid
                    sign = -1 if bip.directed("a", "c") else 1
                    path = _tree_chains(bip, len(rep.exponents))["c"]
                    assert after_images[move.central_class_after] == _product(
                        rep.field, before_images,
                        [(g, sign * k) for g, k in enumerate(path)])
                rep = after


def test_character_off_h1_raises(corpus12):
    # A generator sent to t (or zeta_7) and the others to 1: the relator of
    # a face whose boundary meets that generator sums to its d2 entry, not 0.
    for s in corpus12[:10]:
        X = CellComplexX(s)
        G = GroupData(X)
        j = next(g for g in range(G.n_generators) if any(X.d2[g]))
        unit = [(int(g == j),) for g in range(G.n_generators)]
        with pytest.raises(RelatorNotKilled):
            Representation(G, FunctionField(1), unit, "free_abelian")
        with pytest.raises(RelatorNotKilled):
            Representation(G, CyclotomicField(7), unit, "cyclic")
