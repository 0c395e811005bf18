"""Independent reference computations that the tests compare the package
against: determinants by cofactor expansion, full change-of-basis
matrices under any column and row order,
the general reduction of a rational function to its canonical pair,
the Fox-calculus Alexander polynomial, the spider anchors of every cell,
exact checks of the chain complexes and of the certificate rows, an
invariance report with every spine of a walk twisted, the
census unpruned, deduplicated by least gluing code on gluing dicts and
by an orbit table on glue tables, the validity of
a glue table, branch codes by comparing corner ranks, the branching
orders of a move's variants among all 120, and the images of words under
a representation."""

import json
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd as _int_gcd
from operator import add

from spinetorsion.complexes import (Representation, SpiderAnchors,
                                    TwistedComplex, make_representation,
                                    twisted_d2)
from spinetorsion.errors import TransportFailure
from spinetorsion.fields import (CyclotomicField, FunctionField,
                                 RationalField, RationalFunction,
                                 _int_or_fraction, _normal, _pdiv)
from spinetorsion.moves import (describe_move, transport_homology,
                                transport_representation)
from spinetorsion.perms import ALL_PERMS, INVERSE, PERM_INDEX, SIGN, inverse, sign
from spinetorsion.spine import _encode_seed, encode_gluings
from spinetorsion.torsion import TorsionValue, torsion
from spinetorsion.triangulation import Triangulation, glue_table


# -- determinants by cofactor expansion -------------------------------------------


def cofactor_det(field, matrix):
    """Determinant by first-row cofactor expansion; slow cross-check oracle."""
    n = len(matrix)
    if n == 0:
        return field.one
    if n == 1:
        return matrix[0][0]
    total = field.zero
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = matrix[0][j] * cofactor_det(field, minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def normalised_pair(num, den):
    """(num, den) of the quotient of two Laurent polynomials, reduced the
    general way for any denominator: num / den = t^-s / c * num / q with
    den = t^s * c * q in ``_normal`` form, then, unless q is 1, num
    normalised too and gcd(num, q) cancelled; every coefficient of a
    rescaled num is an int where integral."""
    from spinetorsion.polygcd import gcd
    if not num:
        return num, {(0,) * len(next(iter(den))): 1}
    shift, c, den = _normal(den)
    shift, c = tuple(-e for e in shift), 1 / Fraction(c)
    if len(den) > 1:
        nshift, nc, num = _normal(num)
        shift, c = tuple(map(add, shift, nshift)), c * nc
        if len(num) > 1:
            g = gcd(num, den)
            if len(g) > 1:
                g = _normal(g)[2]
                num, den = _pdiv(num, g), _pdiv(den, g)
    if c != 1 or any(shift):
        c = _int_or_fraction(c)
        num = {tuple(map(add, k, shift)): _int_or_fraction(v * c)
               for k, v in num.items()}
    return num, den


# -- full change-of-basis matrices ----------------------------------------------


def full_matrix_selections(tc, strategy):
    """For i = 1..3, the pivot columns of the whole d_i visited in the order
    ``strategy[i]`` (identity when absent); entries 0 and 4 empty."""
    mats = (tc.d1, tc.d2, tc.d3)
    return ([],) + tuple(
        tc.field.select_columns(mats[i - 1], strategy.get(i, range(tc.dims[i])))
        for i in (1, 2, 3)) + ([],)


def full_matrix_lifts(tc):
    """The lifts picked by one column selection over the n_i-row span
    [columns of d_{i+1} | reduced kernel basis of d_i], in every degree."""
    field = tc.field
    mats = (tc.d1, tc.d2, tc.d3)
    out = {}
    for i in range(4):
        kernel = field.nullspace(mats[i - 1]) if i else [[field.one]]
        image = list(zip(*mats[i])) if i < 3 else []
        cols = image + kernel
        span = [[col[r] for col in cols] for r in range(tc.dims[i])]
        picked = [cols[j] for j in field.select_columns(span, range(len(cols)))
                  if j >= len(image)]
        if picked:
            out[i] = picked
    return out


def full_matrix_value(tc, selections, lifts, sigma):
    """The alternating product of the n_i x n_i determinants
    [d b_{i+1} | h_i | unit columns at b_i], rows in the order sigma[i];
    None when one of them vanishes."""
    field = tc.field
    mats = (tc.d1, tc.d2, tc.d3)
    value = field.one
    for i, n in enumerate(tc.dims):
        cols = [[mats[i][r][j] for r in range(n)] for j in selections[i + 1]]
        cols += [list(v) for v in lifts.get(i, ())]
        cols += [[field.one if r == j else field.zero for r in range(n)]
                 for j in selections[i]]
        M = [[col[r] for col in cols] for r in range(n)]
        if i in sigma:
            M = [M[r] for r in sigma[i]]
        d = field.det(M)
        if d.is_zero():
            return None
        value = value * d if i % 2 == 0 else value * d.inv()
    return value


def torsion_under(tc, lifts, strategy, sigma):
    """The raw torsion of ``tc`` with homology lifts ``lifts`` (a dict
    degree -> chain vectors), its b_i picked in the column orders
    ``strategy`` and its cells in the row orders ``sigma``; None when the
    columns are no basis."""
    return full_matrix_value(tc, full_matrix_selections(tc, strategy), lifts,
                             sigma)


def sign_refined_under(tc, lifts, orientation, strategy, sigma):
    """The sign-refined torsion with the cells in the row orders ``sigma``:
    the raw value times the sign of the rational torsion under the
    homological ``orientation`` and the same row orders."""
    rat = tc.complex.rational_complex
    sign = torsion_under(rat, orientation, strategy, sigma)
    raw = torsion_under(tc, lifts, strategy, sigma)
    return -raw if rat.field.leading_is_negative(sign) else raw


def row_order_sign(sigma):
    """The product of the signs of the row orders ``sigma``, by counting
    inversions."""
    sign = 1
    for p in sigma.values():
        for a, b in combinations(p, 2):
            if a > b:
                sign = -sign
    return sign


# -- Fox calculus ------------------------------------------------------------------


def default_z_character(group):
    """The first free Smith coordinate of H_1, as generator exponents.

    Returns a list of ints (one per generator) defining a surjection of
    H_1 onto Z, or None when H_1 has rank 0.
    """
    if group.free_rank == 0:
        return None
    values = []
    for j in range(group.n_generators):
        free, _ = group.generator_class(j)
        values.append(free[0])
    g = 0
    for v in values:
        g = _int_gcd(g, abs(v))
    if g == 0:
        return None
    if g > 1:  # rescale so the character is onto
        values = [v // g for v in values]
    return values


def fox_derivative_image(word, gen, character):
    """Fox derivative of a relator word, pushed into Q[t, 1/t]: an exponent
    dict {(k,): coefficient of t^k}.

    The free derivative is evaluated through the ring map sending each
    generator x to t^character[x].
    """
    out = {}
    prefix_exp = 0
    for x, e in word:
        if e > 0:
            if x == gen:
                out[(prefix_exp,)] = out.get((prefix_exp,), 0) + 1
            prefix_exp += character[x]
        else:
            prefix_exp -= character[x]
            if x == gen:
                out[(prefix_exp,)] = out.get((prefix_exp,), 0) - 1
    return {k: v for k, v in out.items() if v}


def minor_gcd(A, size):
    """The gcd of the ``size`` x ``size`` minors of ``A`` as an exponent
    dict, canonical up to +-t^k (the ``fields._normal`` form); {}, the
    zero polynomial, when every such minor vanishes or there is none.

    ``A`` is a list of rows over Q(t) whose minors are Laurent polynomials.
    When ``A`` presents a module M on n generators, the gcd generates the
    Fitting ideal F_{n-size}(M) over the PID Q[t, 1/t]: the order of the
    torsion of M when M has free rank n - size, and 0 when the rank is
    larger.
    """
    from spinetorsion.polygcd import gcd
    field = FunctionField(1)
    g = {}
    for rows in combinations(range(len(A)), size):
        for cols in combinations(range(len(A[0])), size):
            d = field.det([[A[i][j] for j in cols] for i in rows]).num
            if d:
                g = _normal(gcd(g, _normal(d)[2]) if g else d)[2]
            if len(g) == 1:
                return g
    return g


def fox_alexander(group, character):
    """One-variable Alexander polynomial of the presentation, by Fox calculus.

    The gcd of the (n-1)-minors of the Fox matrix (n = number of
    generators), canonical up to +-t^k, as an exponent dict {(k,): c}.  The
    Fox matrix presents coker d2 of the presentation complex over
    Q[t, 1/t]; a nonzero character makes d1 nonzero, so coker d2 =
    H_1 + Q[t, 1/t] and the gcd is the order of H_1 of the infinite cyclic
    cover, 0 when that H_1 has a free part.  Convention: a presentation
    with no relators has polynomial 0 (the module is free, of order zero).
    """
    if not group.relators:
        return {}
    A = [[RationalFunction(1, fox_derivative_image(w, g, character))
          for g in range(group.n_generators)] for w in group.relators]
    return minor_gcd(A, group.n_generators - 1)


def twisted_h1_order(complex_x, group, character):
    """Order of the degree-1 homology of the t-twisted complex over Q[t, 1/t].

    Built from the twisted boundary matrices (not from Fox derivatives).
    A nonzero character makes the twisted d1 nonzero, so its image is a
    free module of rank 1 and coker d2 = H_1 + Q[t, 1/t]; the order of
    H_1 is then the gcd of the (n-1)-minors of the twisted d2 (n = number
    of edges), and 0 when H_1 has a free part.  An exponent dict, canonical
    up to +-t^k, comparable with ``fox_alexander``.  An all-zero character
    gives d1 = 0 and raises ValueError.
    """
    if not any(character):
        raise ValueError("the character must be nonzero")
    rep = Representation(group, FunctionField(1),
                         [(character[j],) for j in range(group.n_generators)],
                         "free_abelian")
    return minor_gcd(twisted_d2(complex_x, rep), complex_x.n_edges - 1)


# -- spider anchors ----------------------------------------------------------------


def face_anchor_word(complex_x, fc):
    """The word placing the source corner of face class ``fc``, anchored at
    its sink: b^-1 a^-1 for sides a = [s->m], b = [m->t]."""
    cls_a, cls_b, _cls_c = complex_x.face_sides[fc]
    return ((cls_b, -1), (cls_a, -1))


def edge_anchor_word(_cls):
    """Edges are anchored head-at-base: the empty word."""
    return ()


def base_anchor_word():
    return ()


def epsilon():
    """Sign (-1)^dim for every cell of the spine, keyed by dual cell kind.

    Spine vertices (dual tetrahedra) get +1, spine edges (dual faces)
    get -1, regions (dual edge classes) get +1.
    """
    return {"tet": 1, "face": -1, "edge": 1}


def spider_boundary_identity(complex_x):
    """Formal boundary of the signed spider, with d(path) = head - tail.

    Returns (coefficient at the base vertex, per-cell coefficients).
    Every leg runs from a cell centre to the base vertex, so the
    base coefficient is the alternating cell count chi(spine) =
    1 - chi(X) and each centre c keeps coefficient -epsilon(c).
    """
    eps = epsilon()
    cells = ([("edge", k) for k in range(complex_x.n_edges)]
             + [("face", k) for k in range(complex_x.n_faces)]
             + [("tet", k) for k in range(complex_x.n_tets)])
    x0_coeff = sum(eps[kind] for kind, _ in cells)
    return x0_coeff, {cell: -eps[cell[0]] for cell in cells}


# -- exact checks of complexes and certificates ------------------------------------


def verify_complex(cx):
    """Exact check that consecutive boundaries of ``cx`` compose to zero."""
    for left, right in ((cx.d1, cx.d2), (cx.d2, cx.d3)):
        rows = len(left)
        mid = len(right)
        cols = len(right[0]) if mid else 0
        for i in range(rows):
            for j in range(cols):
                acc = cx.field.zero
                for k in range(mid):
                    if not (left[i][k].is_zero() or right[k][j].is_zero()):
                        acc = acc + left[i][k] * right[k][j]
                if not acc.is_zero():
                    return False
    return True


def matches_integer_complex(tc):
    """True when the entries of the twisted complex ``tc`` equal the
    untwisted integer matrices of its quotient complex."""
    f = tc.field
    pairs = ((tc.d1, tc.complex.d1), (tc.d2, tc.complex.d2),
             (tc.d3, tc.complex.d3))
    for twisted, plain in pairs:
        for row_t, row_p in zip(twisted, plain):
            for x, k in zip(row_t, row_p):
                if not x == f.from_int(k):
                    return False
    return True


def word_image(rep, word):
    """The image under ``rep`` of a word of (generator, power) pairs: the
    monomial of its exponent, built by the field's ``from_terms``."""
    return rep.field.from_terms(((rep.exponent_of_word(word), 1),))


def images_of_generators(rep, power=1):
    """The image under ``rep`` of each generator raised to ``power``."""
    return [word_image(rep, ((g, power),)) for g in range(len(rep.exponents))]


def twisted_invariance_text(spine, walk, kind, order=None):
    """The steps of ``torsion.invariance_suite`` over ``walk`` as JSON text:
    per step the move, the values before and after up to sign, whether
    they agree up to sign and sign-refined, and the transport note; then
    whether all agree and the first step that does not.  Every spine of
    the walk gets its own TwistedComplex, whatever the representation,
    whose lifts ``transport_homology`` carries; a representation whose
    images are all 1, which maps into Q and would take the rational
    complex, is replaced by the all-ones character into Q(zeta_n) (n the
    order, or 1), whose complex builds and eliminates its own entries.
    The orientation is carried by ``transport_homology`` on the rational
    complexes, and its sign is that of ``torsion`` of the rational
    complex.  Run it on a spine and walk that no suite has read, so that
    nothing it reads was kept by one."""
    def values(tc, lifts, olifts):
        raw = torsion(tc, h=lifts or None, keep_sign=True).value
        if olifts is None:
            return TorsionValue(tc.field, raw, False, None), None
        rat = tc.complex.rational_complex
        sign = torsion(rat, h=olifts, keep_sign=True).value
        return (TorsionValue(tc.field, raw, False, None),
                -raw if rat.field.leading_is_negative(sign) else raw)

    X = spine.complex
    rep = make_representation(spine.group, kind, order)
    if rep.field == RationalField():
        rep = Representation(spine.group, CyclotomicField(order or 1),
                             [(0,)] * len(rep.exponents), "cyclic")
    tc = TwistedComplex(spine, X, SpiderAnchors(spine, X), rep)
    lifts, olifts = tc.default_lifts, X.rational_complex.default_lifts
    before = values(tc, lifts, olifts)
    steps, first = [], None
    for idx, move in enumerate(walk):
        X2 = move.after.complex
        after_tc = TwistedComplex(move.after, X2,
                                  SpiderAnchors(move.after, X2),
                                  transport_representation(move, tc.rep))
        lifts = transport_homology(move, tc, after_tc, lifts)
        note = None
        if olifts is not None:
            try:
                olifts = transport_homology(move, X.rational_complex,
                                            X2.rational_complex, olifts)
            except TransportFailure as exc:
                olifts, note = None, "orientation transport failed: %s" % exc
        after = values(after_tc, lifts, olifts)
        equal = before[0].equal_up_to_sign(after[0])
        sign_equal = None if after[1] is None else before[1] == after[1]
        steps.append([describe_move(move), before[0].to_str(),
                      after[0].to_str(), equal, sign_equal, note])
        if first is None and (not equal or sign_equal is False):
            first = idx
        X, tc, before = X2, after_tc, after
    return json.dumps(steps + [first is None, first])


def branching_orders(directed):
    """The linear orders of the labels "abcde", from source to sink, that
    agree with every directed label pair (u, v), for u -> v, in
    ``directed``; those with a before c first.  Searched among all 120."""
    orders = ["".join(p) for p in permutations("abcde")
              if all(p.index(u) < p.index(v) for u, v in directed)]
    return sorted(orders, key=lambda order: order.index("c") < order.index("a"))


def row_boundary(row):
    """The boundary epsilon * (end0 - end1) of a certificate row, as a dict
    over the external vertex labels."""
    _label, eps, e0, e1 = row
    out = {}
    if e0 != e1:
        out[e0] = eps
        out[e1] = -eps
    return out


# -- census by least gluing code --------------------------------------------------


def glue_both_ways(gluings, t, f, t2, f2, perm):
    """Record a gluing and its inverse in a gluing dict under construction."""
    perm = tuple(perm)
    gluings[(t, f)] = (t2, f2, perm)
    gluings[(t2, f2)] = (t, f, inverse(perm))


def assert_valid_glue(glue):
    """A glue table is a gluing: four in-range entries (tetrahedron,
    permutation index) per tetrahedron, no face glued to itself, and the
    partner side of every face glued back by the inverse permutation."""
    n = len(glue)
    for t, row in enumerate(glue):
        assert len(row) == 4
        for f, (t2, k) in enumerate(row):
            assert 0 <= t2 < n and 0 <= k < 24
            f2 = ALL_PERMS[k][f]
            assert (t2, f2) != (t, f)
            assert glue[t2][f2] == (t, INVERSE[k])


def assert_chain_map(X, Y, cells):
    """``cells`` (per degree, the index in Y of each cell of X, or None) is
    one-to-one in every degree and commutes with d2 and d3 on the cells it
    keeps, every sign +1: the boundary of a kept face or tetrahedron lies on
    kept cells, and its image is the boundary of the cell's image."""
    for m in cells:
        images = [k for k in m if k is not None]
        assert len(set(images)) == len(images)
    for deg, d, d_after in ((2, X.d2, Y.d2), (3, X.d3, Y.d3)):
        below = cells[deg - 1]
        for old, new in enumerate(cells[deg]):
            if new is None:
                continue
            image = [0] * len(d_after)
            for r, row in enumerate(d):
                if row[old]:
                    assert below[r] is not None
                    image[below[r]] = row[old]
            assert image == [row[new] for row in d_after]


def complete_gluings(tet_count, gluings=None, used=1):
    """The census search on gluing dicts: every complete gluing extending
    ``gluings`` (which reaches tetrahedra 0..used-1), depth first, always
    gluing the first open face next, into a fresh tetrahedron first (face
    0, first odd permutation), then to each later open face with each odd
    permutation."""
    gluings = {} if gluings is None else gluings
    open_faces = [(t, f) for t in range(used) for f in range(4) if (t, f) not in gluings]
    if not open_faces:
        if used == tet_count:
            yield gluings
        return
    t, f = open_faces[0]
    if used < tet_count:
        child = _glued(gluings, t, f, used, 0, _odd_with_image(f, 0)[0])
        yield from complete_gluings(tet_count, child, used + 1)
    for (t2, f2) in open_faces[1:]:
        for perm in _odd_with_image(f, f2):
            yield from complete_gluings(tet_count, _glued(gluings, t, f, t2, f2, perm), used)


def _odd_with_image(f, f2):
    return [p for p in ALL_PERMS if sign(p) == -1 and p[f] == f2]


def _glued(gluings, t, f, t2, f2, perm):
    child = dict(gluings)
    glue_both_ways(child, t, f, t2, f2, perm)
    return child


def complete_gluing_tables(tet_count):
    """The census search on one live glue table, unpruned: every complete
    table, depth first, in the order of ``complete_gluings``.  The same
    table each time, valid until the search resumes; ``glue[t][f]`` is
    (tetrahedron behind face f of t, gluing permutation index), None while
    the face is open."""
    glue = [[None] * 4 for _ in range(tet_count)]

    def search(used, pos):
        end = 4 * used
        while pos < end and glue[pos >> 2][pos & 3] is not None:
            pos += 1
        if pos == end:
            if used == tet_count:
                yield glue
            return
        t, f = pos >> 2, pos & 3
        row = glue[t]
        if used < tet_count:
            p = PERM_INDEX[_odd_with_image(f, 0)[0]]
            row[f], glue[used][0] = (used, p), (t, INVERSE[p])
            yield from search(used + 1, pos + 1)
            glue[used][0] = None
        for pos2 in range(pos + 1, end):
            t2, f2 = pos2 >> 2, pos2 & 3
            row2 = glue[t2]
            if row2[f2] is not None:
                continue
            for perm in _odd_with_image(f, f2):
                p = PERM_INDEX[perm]
                row[f], row2[f2] = (t2, p), (t, INVERSE[p])
                yield from search(used, pos + 1)
            row2[f2] = None
        row[f] = None

    return search(1, 0)


def orbit_table_classes(tet_count):
    """(glue, least) per class of ``complete_gluing_tables``, in search
    order, deduplicated by an orbit table: a candidate whose code from
    seed (0, identity) is among the codes of every even seed of every
    class kept so far is skipped, and otherwise starts a class, its
    ``least`` read off its 12n seed codes as ``least_seeds`` gives it."""
    n = tet_count
    even = [r for r in range(24) if SIGN[r] == 1]
    orbit = set()
    for glue in complete_gluing_tables(n):
        if tuple(_encode_seed(glue, n, 0, 0, None)[0]) in orbit:
            continue
        seeded = [_encode_seed(glue, n, t0, rho0, None) for t0 in range(n) for rho0 in even]
        codes = [tuple(code) for code, _rho, _order in seeded]
        orbit.update(codes)
        best = min(codes)
        yield glue, (list(best), [
            (rho, order) for code, (_c, rho, order) in zip(codes, seeded) if code == best])


def least_code_triangulations(tet_count):
    """The triangulations of ``enumerate_triangulations``, deduplicated by
    the least gluing code over all seeds of each candidate of the dict
    search (each connected, as each new tetrahedron is glued to one in
    use): the first candidate of each code is kept."""
    results, seen = [], set()
    orientations = (1,) * tet_count
    for gluings in complete_gluings(tet_count):
        glue = glue_table(tet_count, gluings)
        code = encode_gluings(glue, orientations)
        if code in seen:
            continue
        seen.add(code)
        results.append(Triangulation(glue))
    return results


# -- branch codes by comparison ---------------------------------------------------


def branch_code(ranks, rho, order):
    """The branch code of a seed (``order`` and the corner relabelling
    index ``rho[t]`` of each tetrahedron) read off the corner ranks: per
    relabelled tetrahedron and new corner pair i < j, 1 if the edge runs
    i -> j, i.e. if old corner ri[i] ranks below ri[j] for ri the inverse
    relabelling."""
    code = []
    for t in order:
        rk = ranks[t]
        ri = inverse(ALL_PERMS[rho[t]])
        code.extend(int(rk[ri[i]] < rk[ri[j]]) for i, j in combinations(range(4), 2))
    return tuple(code)
