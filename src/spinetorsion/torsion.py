"""Exact torsion of twisted complexes, sign refinement, and cross-checks.

The torsion of the twisted complex, with respect to the preferred-lift
bases, is the alternating product over degrees i of determinants of the
change-of-basis matrices [(d b_{i+1}) h_i b_i / g_i], where b_i is any
subset of cells whose boundaries form a basis of the image of d_i and
h_i lifts a basis of the i-th homology.  The value is independent of the
b_i and, without further data, canonical only up to sign; a homological
orientation of the rational complex removes the sign.
"""

from math import gcd as _int_gcd

from .errors import BasisRankMismatch, NotAcyclicNoBasis, TorsionError
from .fields import FunctionField, LaurentPoly, RationalFunction


class TorsionValue:
    """A torsion value in the units of the coefficient field.

    When ``sign_fixed`` is false the stored value is the canonical
    representative of {+v, -v}: the one whose leading coefficient is
    positive.
    """

    def __init__(self, field, value, sign_fixed, acyclic,
                 homology_basis_used=None, orientation_used=None):
        if value.is_zero():
            raise TorsionError("torsion cannot be zero")
        self.field = field
        self.sign_fixed = sign_fixed
        self.acyclic = acyclic
        self.homology_basis_used = homology_basis_used
        self.orientation_used = orientation_used
        self.value = value if sign_fixed else canonical_up_to_sign(field, value)

    def __eq__(self, other):
        return (isinstance(other, TorsionValue) and self.field == other.field
                and self.sign_fixed == other.sign_fixed
                and self.value == other.value)

    def equal_up_to_sign(self, other):
        a = canonical_up_to_sign(self.field, self.value)
        b = canonical_up_to_sign(other.field, other.value)
        return a == b

    def __repr__(self):
        return "TorsionValue(%s)" % self.to_str()

    def to_str(self):
        return self.field.element_str(self.value)


def _leading_is_negative(field, value):
    if isinstance(value, RationalFunction):
        return value.num.lead_coeff() < 0
    for c in reversed(value.coeffs):
        if c:
            return c < 0
    return False


def canonical_up_to_sign(field, value):
    return -value if _leading_is_negative(field, value) else value


class HomologicalOrientation:
    """Ordered rational homology bases, one per degree, or the default.

    The default is the deterministic echelon choice made by
    ``default_rational_homology``, which a CellComplexX computes once.
    """

    def __init__(self, bases=None):
        self.bases = bases  # None means default

    def resolve(self, complex_x):
        if self.bases is not None:
            return self.bases
        return complex_x.rational_homology


def default_rational_homology(complex_x):
    """Echelon bases of H_i(X; Q) for i = 0..3, as Fraction vectors: the
    default lifts of X's rational complex."""
    lifts = complex_x.rational_complex.default_lifts
    return [[[x.as_fraction() for x in v] for v in lifts.get(i, ())]
            for i in range(4)]


def auto_twisted_homology(tc):
    """Deterministic homology lifts h_i for every degree with nonzero homology.

    ``tc`` is any ChainComplex, the rational complex of a CellComplexX
    included.  In degree i the reduced kernel basis of d_i follows the
    image columns of d_{i+1}; the kernel vectors among the pivot columns of
    one column selection over that matrix, which are the ones a greedy
    pass would add to the image span, are the lifts.  Returns a dict
    degree -> list of chain vectors.
    """
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


def column_selections(cx, strategy=None):
    """The b_i selections: for i = 1..3, the pivot columns of d_i visited in
    the order ``strategy[i]`` (identity when absent); entries 0 and 4 are
    empty."""
    orders = strategy or {}
    mats = (cx.d1, cx.d2, cx.d3)
    selections = [[] for _ in range(5)]
    for i in range(1, 4):
        order = orders.get(i, range(cx.dims[i]))
        if sorted(order) != list(range(cx.dims[i])):
            raise BasisRankMismatch(
                "degree %d: column order is not a permutation" % i)
        selections[i] = cx.field.select_columns(mats[i - 1], order)
    return tuple(selections)


def _betti(cx, selections):
    return [cx.dims[i] - len(selections[i]) - len(selections[i + 1])
            for i in range(4)]


def default_raw_torsion(cx):
    """The raw torsion value of ``cx`` in the default bases: identity column
    order, and the auto lifts unless the complex is acyclic."""
    selections = cx.default_selections
    lifts = cx.default_lifts if any(_betti(cx, selections)) else {}
    return _raw_value(cx, selections, lifts)


def _column(mat, j, nrows):
    return [mat[r][j] for r in range(nrows)]


def _raw_value(cx, selections, lifts, sigma=None):
    """Alternating product of the change-of-basis determinants, with the
    rows of degree i permuted by ``sigma[i]`` where given."""
    field = cx.field
    mats = (cx.d1, cx.d2, cx.d3)
    value = inverse_part = field.one
    for i in range(4):
        n = cx.dims[i]
        cols = []
        if i + 1 <= 3:
            B = mats[i]
            for j in selections[i + 1]:
                cols.append(_column(B, j, n))
        for v in lifts.get(i, ()):
            if len(v) != n:
                raise BasisRankMismatch("degree %d lift has wrong length" % i)
            cols.append(list(v))
        for j in selections[i]:
            e = [field.zero] * n
            e[j] = field.one
            cols.append(e)
        if len(cols) != n:
            raise BasisRankMismatch(
                "degree %d: %d basis vectors for dimension %d" % (i, len(cols), n))
        M = [[cols[c][r] for c in range(n)] for r in range(n)]
        if sigma is not None and i in sigma:
            M = [M[sigma[i][r]] for r in range(n)]
        d = field.det(M)
        if d.is_zero():
            raise BasisRankMismatch(
                "degree %d: combined columns are not a basis" % i)
        if i % 2 == 0:
            value = value * d
        else:
            inverse_part = inverse_part * d
    return value * inverse_part.inv()


def torsion(tc, h=None, strategy=None, sigma=None, keep_sign=False):
    """Torsion of a twisted complex with respect to its preferred bases.

    ``h`` supplies homology lifts: None (complex must be acyclic),
    "auto" (the complex's ``default_lifts``), or a dict degree -> list of
    chain vectors over the coefficient field.  ``strategy`` optionally
    gives per-degree column preference orders for the b_i selection, and
    ``sigma`` per-degree permutations of the cell ordering (which can
    only flip the sign).  With ``keep_sign`` the raw value for this cell
    ordering is kept instead of the canonical +-representative.  Without
    ``strategy`` and ``sigma``, and with ``h`` None or "auto", the value is
    the complex's ``default_torsion``, computed once per complex.
    """
    selections = column_selections(tc, strategy) if strategy \
        else tc.default_selections
    betti = _betti(tc, selections)
    acyclic = not any(betti)
    if not acyclic and h is None:
        raise NotAcyclicNoBasis(
            "twisted homology has dimensions %s; supply a basis" % (betti,))
    if h in (None, "auto") and not strategy and not sigma:
        value = tc.default_torsion
    else:
        lifts = {}
        if not acyclic:
            lifts = tc.default_lifts if h == "auto" else h
        for i in range(4):
            got = len(lifts.get(i, ()))
            if got != betti[i]:
                raise BasisRankMismatch(
                    "degree %d: homology rank %d but %d basis vectors"
                    % (i, betti[i], got))
        value = _raw_value(tc, selections, lifts, sigma)
    if h == "auto":
        used = "auto"
    else:
        used = None if acyclic or h is None else "given"
    return TorsionValue(tc.field, value, keep_sign, acyclic,
                        homology_basis_used=used)


def sign_refined_torsion(spine, tc, h=None, orientation=None, strategy=None,
                         sigma=None):
    """Sign-refined torsion: the cell-order sign is fixed by an orientation.

    The torsion of the rational untwisted complex is computed with the
    same cell ordering and with homology bases compatible with the given
    homological orientation; its sign multiplies the raw twisted value,
    making the result independent of the ordering.  ``spine`` is the spine
    ``tc`` was built on: the rational complex and the default orientation
    are read off ``tc.complex``, and the raw value comes from ``torsion``,
    so neither is recomputed for a complex that already has them.
    """
    orientation = orientation or HomologicalOrientation()
    raw = torsion(tc, h=h, strategy=strategy, sigma=sigma, keep_sign=True)
    rat = tc.complex.rational_complex
    # The default orientation's bases are the default lifts of ``rat``.
    lifts = "auto" if orientation.bases is None else {
        i: [[rat.field.from_fraction(x) for x in v] for v in basis]
        for i, basis in enumerate(orientation.bases) if basis}
    return TorsionValue(tc.field, _oriented_value(raw, rat, lifts, sigma),
                        True, raw.acyclic,
                        homology_basis_used=raw.homology_basis_used,
                        orientation_used="default" if orientation.bases is None
                        else "given")


def _oriented_value(raw, rat, olifts, sigma=None):
    """The raw twisted value times the sign of the rational torsion of
    ``rat`` with homology lifts ``olifts`` ("auto": the default
    orientation)."""
    a = torsion(rat, h=olifts, sigma=sigma, keep_sign=True)
    return raw.value if a.value.as_fraction() > 0 else -raw.value


# -- Fox calculus cross-check ---------------------------------------------------


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
    """Fox derivative of a relator word, pushed into Q[t, 1/t].

    The free derivative is evaluated through the ring map sending each
    generator x to t^character[x].
    """
    out = LaurentPoly(1)
    prefix_exp = 0
    for x, e in word:
        if e > 0:
            if x == gen:
                out = out + LaurentPoly.monomial(1, (prefix_exp,))
            prefix_exp += character[x]
        else:
            prefix_exp -= character[x]
            if x == gen:
                out = out - LaurentPoly.monomial(1, (prefix_exp,))
    return out


def _normalize_poly(p):
    """Canonical representative modulo units +-t^k: integer-primitive,
    positive leading coefficient, lowest exponent zero."""
    if p.is_zero():
        return p
    shift = p.min_exponents()
    p = p.shift((-shift[0],))
    c = p.signed_content()
    return p.scale(1 / c)


def _poly_gcd(a, b):
    from .fields import _lp_gcd
    if a.is_zero():
        return _normalize_poly(b)
    if b.is_zero():
        return _normalize_poly(a)
    return _normalize_poly(_lp_gcd(_normalize_poly(a), _normalize_poly(b)))


def fox_alexander(group, character):
    """One-variable Alexander polynomial of the presentation, by Fox calculus.

    The gcd of the (n-1)-minors of the Fox matrix (n = number of
    generators), canonical up to +-t^k.  Convention: a presentation with
    no relators has polynomial 0 (the module is free, of order zero).
    """
    n = group.n_generators
    m = len(group.relators)
    if m == 0:
        return LaurentPoly(1)
    A = [[fox_derivative_image(w, g, character) for g in range(n)]
         for w in group.relators]
    size = n - 1
    if size == 0:
        return LaurentPoly.const(1, 1)
    if m < size:
        return LaurentPoly(1)
    field = FunctionField(1)
    from itertools import combinations
    g = LaurentPoly(1)
    for rows in combinations(range(m), size):
        for cols in combinations(range(n), size):
            sub = [[RationalFunction(A[i][j]) for j in cols] for i in rows]
            d = field.det(sub)
            if not d.is_zero():
                g = _poly_gcd(g, d.num)
            if g.is_monomial():
                return _normalize_poly(g)
    return _normalize_poly(g)


def _poly_divmod(a, b):
    """Division with remainder in Q[t]; inputs LaurentPoly(1) with
    nonnegative exponents."""
    q = LaurentPoly(1)
    r = a
    db = max(k[0] for k in b.terms)
    lc = b.terms[(db,)]
    while not r.is_zero() and max(k[0] for k in r.terms) >= db:
        dr = max(k[0] for k in r.terms)
        c = r.terms[(dr,)] / lc
        m = LaurentPoly.monomial(1, (dr - db,), c)
        q = q + m
        r = r - m * b
    return q, r


def _poly_snf(matrix, rows, cols):
    """Smith normal form over Q[t] with the right transform pair.

    Returns (D, V, Vinv) with A * V = U^-1 * D for some unimodular U;
    only V and its inverse are tracked (enough for kernel coordinates).
    Entries are LaurentPoly(1) with nonnegative exponents.
    """
    A = [[matrix[i][j] for j in range(cols)] for i in range(rows)]
    V = [[LaurentPoly.const(1, 1) if i == j else LaurentPoly(1)
          for j in range(cols)] for i in range(cols)]
    Vinv = [[LaurentPoly.const(1, 1) if i == j else LaurentPoly(1)
             for j in range(cols)] for i in range(cols)]

    def deg(p):
        return max(k[0] for k in p.terms) if not p.is_zero() else -1

    def col_op(i, j, q):  # col i -= q * col j ; row j of Vinv += q * row i
        for r in range(rows):
            A[r][i] = A[r][i] - q * A[r][j]
        for r in range(cols):
            V[r][i] = V[r][i] - q * V[r][j]
        for c in range(cols):
            Vinv[j][c] = Vinv[j][c] + q * Vinv[i][c]

    def swap_cols(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_op(i, j, q):  # row i -= q * row j
        for c in range(cols):
            A[i][c] = A[i][c] - q * A[j][c]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not A[i][j].is_zero() and (
                        pivot is None or deg(A[i][j]) < deg(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        again = False
        for i in range(t + 1, rows):
            if A[i][t].is_zero():
                continue
            q, r = _poly_divmod(A[i][t], A[t][t])
            row_op(i, t, q)
            if not r.is_zero():
                again = True
        for j in range(t + 1, cols):
            if A[t][j].is_zero():
                continue
            q, r = _poly_divmod(A[t][j], A[t][t])
            col_op(j, t, q)
            if not r.is_zero():
                again = True
        if again or any(not A[i][t].is_zero() for i in range(t + 1, rows)) or \
                any(not A[t][j].is_zero() for j in range(t + 1, cols)):
            continue
        t += 1
    return A, V, Vinv


def twisted_h1_order(complex_x, group, character):
    """Order of the degree-1 homology of the t-twisted complex over Q[t, 1/t].

    Built from the twisted boundary matrices (not from Fox derivatives):
    a kernel basis of the twisted d1 comes from its Smith form over Q[t],
    the twisted d2 columns are rewritten in that basis, and the order is
    the product of the invariant factors, or 0 when a free part remains.
    Canonical up to +-t^k, comparable with ``fox_alexander``.
    """
    from .complexes import Representation, SpiderAnchors, TwistedComplex
    field = FunctionField(1)
    images = [field.monomial((character[j],))
              for j in range(group.n_generators)]
    rep = Representation(group, field, images, "free_abelian")
    anchors = SpiderAnchors(complex_x.spine, complex_x)
    tc = TwistedComplex(complex_x.spine, complex_x, anchors, rep)
    n = complex_x.n_edges

    def entry_poly(x):
        shift = x.num.min_exponents()
        assert x.den.is_monomial() and not any(x.den.lead_key())
        return x.num, shift[0]

    # Clear the d1 row and d2 columns to nonnegative exponents; unit
    # factors are irrelevant for invariant-factor classes.
    d1 = [tc.d1[0][j].num for j in range(n)]
    shift = min((min(k[0] for k in p.terms) for p in d1 if not p.is_zero()),
                default=0)
    d1 = [p.shift((-shift,)) if not p.is_zero() else p for p in d1]
    _D, V, Vinv = _poly_snf([d1], 1, n)
    # Kernel basis of d1: columns 1.. of V (the image of column 0 spans im d1).
    m = len(complex_x.face_sides)
    Y = [[LaurentPoly(1) for _ in range(m)] for _ in range(n)]
    for j in range(m):
        col = [tc.d2[i][j] for i in range(n)]
        polys = []
        sh = 0
        for x in col:
            if not x.is_zero():
                sh = min(sh, x.num.min_exponents()[0])
        for x in col:
            polys.append(x.num.shift((-sh,)))
        # coordinates in V: y = Vinv * x ; y[0] must vanish.
        for i in range(n):
            acc = LaurentPoly(1)
            for k2 in range(n):
                if not polys[k2].is_zero() and not Vinv[i][k2].is_zero():
                    acc = acc + Vinv[i][k2] * polys[k2]
            Y[i][j] = acc
        if not Y[0][j].is_zero():
            raise TorsionError("twisted d2 column escapes the kernel of d1")
    Yk = [Y[i] for i in range(1, n)]
    D, _V2, _Vi2 = _poly_snf(Yk, n - 1, m)
    order = LaurentPoly.const(1, 1)
    rank = 0
    for i in range(min(n - 1, m)):
        if not D[i][i].is_zero():
            order = order * D[i][i]
            rank += 1
    if rank < n - 1:
        return LaurentPoly(1)
    return _normalize_poly(order)


# -- invariance harness ---------------------------------------------------------


class InvarianceStep:
    """Record of one move in an invariance run."""

    def __init__(self, description, before_value, after_value, equal,
                 sign_refined_equal=None, transport_note=None):
        self.description = description
        self.before_value = before_value
        self.after_value = after_value
        self.equal = equal
        self.sign_refined_equal = sign_refined_equal
        self.transport_note = transport_note


class InvarianceReport:
    def __init__(self, steps, all_equal, first_violation):
        self.steps = steps
        self.all_equal = all_equal
        self.first_violation = first_violation


def invariance_suite(spine, walk, rep_kind, order=None, character=None,
                     check_sign_refined=True):
    """Compare torsion along a walk of moves with null invariance certificates.

    The representation, homology lifts and homological orientation are
    fixed on the first spine and transported along each move; torsion
    must agree up to sign at every step, and exactly for the
    sign-refined value wherever transport succeeds.  Returns an
    InvarianceReport; the first violating move, if any, is pinpointed.
    """
    from . import moves as moves_mod
    from .complexes import CellComplexX, GroupData, Representation, \
        SpiderAnchors, TwistedComplex
    from .errors import TransportFailure

    def setup(sp, rep, X=None):
        X = X or CellComplexX(sp)
        return TwistedComplex(sp, X, SpiderAnchors(sp, X), rep)

    X0 = CellComplexX(spine)
    G0 = GroupData(X0)
    if rep_kind == "trivial":
        rep = Representation.trivial(G0)
    elif rep_kind == "free_abelian":
        rep = Representation.free_abelian(G0)
    elif rep_kind == "cyclic":
        rep = Representation.cyclic(G0, order, character)
    else:
        raise ValueError("unknown representation kind %r" % rep_kind)

    tc = setup(spine, rep, X0)
    lifts = auto_twisted_homology(tc)
    olifts = X0.rational_complex.default_lifts

    def values(tc, lifts, olifts):
        raw = torsion(tc, h=lifts if lifts else None, keep_sign=True)
        t = TorsionValue(raw.field, raw.value, False, raw.acyclic,
                         homology_basis_used=raw.homology_basis_used)
        try:
            sgn = TorsionValue(raw.field, _oriented_value(
                raw, tc.complex.rational_complex, olifts), True, raw.acyclic)
        except TorsionError:
            sgn = None
        return t, sgn

    steps = []
    all_equal = True
    first_violation = None
    cur_rep = rep
    cur_lifts = lifts
    cur_olifts = olifts
    before_t, before_s = values(tc, cur_lifts, cur_olifts)
    for idx, move in enumerate(walk):
        report = moves_mod.h_cycle_check(move)
        if not report.is_null:
            raise TorsionError(
                "step %d: move has a nonzero invariance certificate" % idx)
        new_rep = moves_mod.transport_representation(move, cur_rep)
        note = None
        try:
            new_lifts = moves_mod.transport_homology(move, cur_rep, new_rep,
                                                     cur_lifts)
        except TransportFailure as exc:
            new_lifts = None
            note = "homology transport failed: %s" % exc
        try:
            new_olifts = moves_mod.transport_rational_homology(move, cur_olifts)
        except TransportFailure as exc:
            new_olifts = None
            note = (note + "; " if note else "") + \
                "orientation transport failed: %s" % exc
        if new_lifts is None:
            raise TransportFailure(note or "homology transport failed")
        after_t, after_s = values(setup(move.after, new_rep), new_lifts,
                                  new_olifts if new_olifts is not None else {})
        equal = before_t.equal_up_to_sign(after_t)
        sgn_equal = None
        if check_sign_refined and before_s is not None and after_s is not None \
                and new_olifts is not None:
            sgn_equal = before_s.value == after_s.value
        steps.append(InvarianceStep(
            moves_mod.describe_move(move), before_t, after_t, equal,
            sgn_equal, note))
        if not equal or sgn_equal is False:
            all_equal = False
            if first_violation is None:
                first_violation = idx
        cur_rep, cur_lifts = new_rep, new_lifts
        cur_olifts = new_olifts if new_olifts is not None else {}
        before_t, before_s = after_t, after_s
    return InvarianceReport(steps, all_equal, first_violation)
