"""Exact torsion of twisted complexes, sign refinement, and cross-checks.

The torsion of the twisted complex, with respect to the preferred-lift
bases, is the alternating product over degrees i of determinants of the
change-of-basis matrices [(d b_{i+1}) h_i b_i / g_i], where b_i is any
subset of cells whose boundaries form a basis of the image of d_i and
h_i lifts a basis of the i-th homology.  The value is independent of the
b_i and, without further data, canonical only up to sign; a homological
orientation of the rational complex removes the sign.

The columns of b_i are unit vectors, so each determinant is computed as
its Laplace minor along them:

    det[d b_{i+1} | h_i | e_{b_i}] = sgn(R_i ++ b_i) * det(rows R_i of [d b_{i+1} | h_i])

where R_i lists the cells of degree i not in b_i in ascending order, the
free (non-pivot) coordinates of d_i, and a row order sigma[i] multiplies
the value by sgn(sigma[i]).  Each step has one routine: the b_i and the
minors come from ``select_minor`` eliminations, ``_raw_value`` takes the
alternating product with both signs, and every sign is ``perms.parity``.

Rows are restricted to R_i.  Restriction to R_i is injective on ker d_i,
which holds im d_{i+1}, so eliminating the rows R_i of d_{i+1}, in any
column order, picks the same b_{i+1} as the whole d_{i+1}; the degrees
are eliminated in order 0 to 3, each on the rows left free by the one
before (``selection_pass``).  Each minor of the default bases is read off
the same pivots: in a degree without homology the block is square and
its determinant is the last pivot of that elimination; in a degree with
homology one elimination of [rows R_i of d_{i+1} | I] gives b_{i+1},
then the lift coordinates (its identity pivots, where the reduced kernel
basis of d_i is the identity), and the minor as its last pivot
(``lift_pass``).  The default bases read those minors, with or without
a row order; a determinant is taken only for given lifts, or for auto
lifts under a column ``strategy``.  The kernel itself is computed only
where the lift vectors are read.
"""

from itertools import combinations
from math import gcd as _int_gcd

from .errors import BasisRankMismatch, NotAcyclicNoBasis, TorsionError
from .fields import FunctionField, RationalFunction, _normal
from .perms import parity


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


def canonical_up_to_sign(field, value):
    return -value if field.leading_is_negative(value) else value


def auto_twisted_homology(tc):
    """Deterministic homology lifts h_i for every degree with nonzero homology.

    ``tc`` is any ChainComplex, the rational complex of a CellComplexX
    included.  The lifts in degree i are the vectors of the reduced kernel
    basis of d_i that a greedy pass would add to the span of the columns of
    d_{i+1}, in that order.  On the free coordinates R_i of d_i the reduced
    basis is the identity, so they are the basis vectors at the lift
    coordinates that ``lift_pass`` picks.  A degree with Betti number 0
    has no lifts and is skipped.  Returns a dict degree -> list of chain
    vectors.
    """
    field = tc.field
    mats = (tc.d1, tc.d2, tc.d3)
    out = {}
    for i, coords in tc.default_lift_pass[0].items():
        kernel = field.nullspace(mats[i - 1]) if i else [[field.one]]
        out[i] = [kernel[k] for k in coords]
    return out


def _free_rows(n, basis):
    """R_i: the cells of a degree with ``n`` cells outside the selection
    ``basis``, ascending."""
    basis = set(basis)
    return [r for r in range(n) if r not in basis]


def selection_pass(cx, strategy=None):
    """The b_i selections and, per degree i, the minor det(rows R_i of
    d b_{i+1}), from one elimination per degree.

    Degree by degree from 0, d_{i+1} is eliminated on the rows R_i only,
    its columns visited in the order ``strategy[i + 1]`` (identity when
    absent).  The minor is zero in a degree with homology, where the block
    is not square.  Returns (selections, minors): selections[i] for
    i = 0..4, entries 0 and 4 empty.
    """
    orders = strategy or {}
    field = cx.field
    mats = (cx.d1, cx.d2, cx.d3)
    selections = [[] for _ in range(5)]
    minors = []
    for i in range(3):
        order = orders.get(i + 1, range(cx.dims[i + 1]))
        if sorted(order) != list(range(cx.dims[i + 1])):
            raise BasisRankMismatch(
                "degree %d: column order is not a permutation" % (i + 1))
        rows = _free_rows(cx.dims[i], selections[i])
        selections[i + 1], minor = field.select_minor(
            [mats[i][r] for r in rows], order)
        minors.append(minor)
    # d_4 = 0, so degree 3 has an empty block, square exactly when acyclic.
    minors.append(field.zero if len(selections[3]) < cx.dims[3] else field.one)
    return tuple(selections), minors


def lift_pass(cx):
    """The lift coordinates and the minors of the default bases: one
    elimination of [rows R_i of d_{i+1} | I], in identity column order, per
    degree i with homology.

    Its pivots are b_{i+1}, then the identity columns that the auto lifts
    take from the reduced kernel basis of d_i, as indices into R_i.  The
    block of those pivot columns is rows R_i of [d b_{i+1} | h_i], so its
    determinant is the degree's minor; the other degrees keep the minor of
    the default ``selection_pass``.  Returns (coordinates, minors): a dict
    degree -> indices into R_i, and the minor of every degree.
    """
    selections, minors = cx.default_selection_pass
    minors = list(minors)
    field = cx.field
    mats = (cx.d1, cx.d2, cx.d3)
    coords = {}
    for i, betti in enumerate(_betti(cx, selections)):
        if not betti:
            continue
        rows = _free_rows(cx.dims[i], selections[i])
        if i == 3:  # d_4 = 0: every kernel vector is a lift
            coords[i], minors[i] = list(range(len(rows))), field.one
            continue
        n = cx.dims[i + 1]
        cols, minors[i] = field.select_minor(
            [mats[i][r] + [field.one if c == k else field.zero
                           for c in range(len(rows))]
             for k, r in enumerate(rows)], range(n + len(rows)))
        coords[i] = [c - n for c in cols if c >= n]
    return coords, minors


def _betti(cx, selections):
    return [cx.dims[i] - len(selections[i]) - len(selections[i + 1])
            for i in range(4)]


def _raw_value(cx, selections, minors, sigma=None):
    """The alternating product of the change-of-basis determinants of the
    selections b_i, each its minor minors[i] = det(rows R_i of
    [d b_{i+1} | h_i]) times the Laplace sign sgn(R_i ++ b_i) and, where
    ``sigma[i]`` orders the rows of degree i, sgn(sigma[i]).  A zero minor
    means its columns are no basis."""
    value = inverse_part = cx.field.one
    for i, (n, d) in enumerate(zip(cx.dims, minors)):
        sign = parity(_free_rows(n, selections[i]) + selections[i])
        if sigma and i in sigma:
            if sorted(sigma[i]) != list(range(n)):
                raise BasisRankMismatch(
                    "degree %d: row order is not a permutation" % i)
            sign *= parity(sigma[i])
        if d.is_zero():
            raise BasisRankMismatch(
                "degree %d: combined columns are not a basis" % i)
        if sign < 0:
            d = -d
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
    only flip the sign); either raises BasisRankMismatch for an order that
    is not a permutation of the cells of its degree.  With ``keep_sign``
    the raw value for this cell ordering is kept instead of the canonical
    +-representative.  Without ``strategy``, and with ``h`` None or
    "auto", the minors are those of the default bases, and without
    ``sigma`` as well the value is the complex's ``default_torsion``,
    computed once per complex.
    """
    selections, minors = selection_pass(tc, strategy) if strategy \
        else tc.default_selection_pass
    betti = _betti(tc, selections)
    acyclic = not any(betti)
    if not acyclic and h is None:
        raise NotAcyclicNoBasis(
            "twisted homology has dimensions %s; supply a basis" % (betti,))
    default = not strategy and (acyclic or h == "auto")
    if default:
        minors = tc.default_lift_pass[1]
    elif not acyclic:  # det(rows R_i of [d b_{i+1} | h_i]) where h_i is given
        lifts = tc.default_lifts if h == "auto" else h
        mats = (tc.d1, tc.d2, tc.d3)
        minors = list(minors)
        for i, n in enumerate(tc.dims):
            vecs = lifts.get(i, ())
            if len(vecs) != betti[i]:
                raise BasisRankMismatch(
                    "degree %d: homology rank %d but %d basis vectors"
                    % (i, betti[i], len(vecs)))
            if any(len(v) != n for v in vecs):
                raise BasisRankMismatch("degree %d lift has wrong length" % i)
            if vecs:
                minors[i] = tc.field.det(
                    [[mats[i][r][j] for j in selections[i + 1]]
                     + [v[r] for v in vecs] for r in _free_rows(n, selections[i])])
    value = tc.default_torsion if default and not sigma \
        else _raw_value(tc, selections, minors, sigma)
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
    making the result independent of the ordering.  ``orientation`` is
    None, the default lifts of ``tc.complex.rational_complex``, or a dict
    degree -> list of chain vectors over that complex's field, one per
    Betti number, like ``h`` of ``torsion``.  ``spine`` is the spine
    ``tc`` was built on: the rational complex and the default orientation
    are read off ``tc.complex``, and the raw value comes from ``torsion``,
    so neither is recomputed for a complex that already has them.
    """
    raw = torsion(tc, h=h, strategy=strategy, sigma=sigma, keep_sign=True)
    value = _oriented_value(raw, tc.complex.rational_complex,
                            "auto" if orientation is None else orientation,
                            sigma)
    return TorsionValue(tc.field, value, True, raw.acyclic,
                        homology_basis_used=raw.homology_basis_used,
                        orientation_used="default" if orientation is None
                        else "given")


def _oriented_value(raw, rat, olifts, sigma=None):
    """The raw twisted value times the sign of the rational torsion of
    ``rat`` with homology lifts ``olifts`` ("auto": the default
    orientation).  The sign is kept in ``rat.signs``, keyed by the values
    of the lifts and the row order, so each representation of one spine,
    and each walk that carries the same lifts to it, reads it once."""
    lifts = olifts if olifts == "auto" else tuple(
        (i, tuple(map(tuple, vecs))) for i, vecs in sorted(olifts.items()))
    order = tuple((i, tuple(p)) for i, p in sorted(sigma.items())) \
        if sigma else None
    key = lifts, order
    negative = rat.signs.get(key)
    if negative is None:
        a = torsion(rat, h=olifts, sigma=sigma, keep_sign=True)
        negative = rat.signs[key] = rat.field.leading_is_negative(a.value)
    return -raw.value if negative else raw.value


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


def _minor_gcd(A, size):
    """The gcd of the ``size`` x ``size`` minors of ``A`` as an exponent
    dict, canonical up to +-t^k (the ``fields._normal`` form); {}, the
    zero polynomial, when every such minor vanishes or there is none.

    ``A`` is a list of rows over Q(t) whose minors are Laurent polynomials.
    When ``A`` presents a module M on n generators, the gcd generates the
    Fitting ideal F_{n-size}(M) over the PID Q[t, 1/t]: the order of the
    torsion of M when M has free rank n - size, and 0 when the rank is
    larger.
    """
    from .polygcd import gcd
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
    generators), canonical up to +-t^k, as an exponent dict {(k,): c}.  The Fox matrix presents coker d2
    of the presentation complex over Q[t, 1/t]; a nonzero character makes
    d1 nonzero, so coker d2 = H_1 + Q[t, 1/t] and the gcd is the order of
    H_1 of the infinite cyclic cover, 0 when that H_1 has a free part.
    Convention: a presentation with no relators has polynomial 0 (the
    module is free, of order zero).
    """
    if not group.relators:
        return {}
    A = [[RationalFunction(1, fox_derivative_image(w, g, character))
          for g in range(group.n_generators)] for w in group.relators]
    return _minor_gcd(A, group.n_generators - 1)


def twisted_h1_order(complex_x, group, character):
    """Order of the degree-1 homology of the t-twisted complex over Q[t, 1/t].

    Built from the twisted boundary matrices (not from Fox derivatives).
    A nonzero character makes the twisted d1 nonzero, so its image is a
    free module of rank 1 and coker d2 = H_1 + Q[t, 1/t]; the order of
    H_1 is then the gcd of the (n-1)-minors of the twisted d2 (n = number
    of edges), and 0 when H_1 has a free part.  An exponent dict, canonical
    up to +-t^k, comparable with ``fox_alexander``.  An all-zero character gives d1 = 0
    and raises ValueError.
    """
    from .complexes import Representation, twisted_d2
    if not any(character):
        raise ValueError("the character must be nonzero")
    rep = Representation(group, FunctionField(1),
                         [(character[j],) for j in range(group.n_generators)],
                         "free_abelian")
    return _minor_gcd(twisted_d2(complex_x, rep), complex_x.n_edges - 1)


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


def invariance_suite(spine, walk, rep_kind, order=None, character=None):
    """Compare torsion along a walk of moves with null invariance certificates.

    The representation, homology lifts and homological orientation are
    fixed on the first spine and transported along each move; torsion
    must agree up to sign at every step, and exactly for the
    sign-refined value until an orientation transport fails.  A failed
    homology transport raises TransportFailure, whose ``step`` and
    ``move`` name the walk step and its move.  Returns an
    InvarianceReport; the first violating move, if any, is pinpointed.

    Everything that does not depend on the representation is read off
    the spines of the walk and kept there: each spine's ``complex`` and
    ``group``, its rational complex, and the rational torsion sign of
    each orientation carried to it.  A second suite over the same walk,
    for another representation, builds only its twisted complexes, its
    transports and their torsion.
    """
    from . import moves as moves_mod
    from .complexes import SpiderAnchors, TwistedComplex, make_representation
    from .errors import TransportFailure

    X = spine.complex
    rep = make_representation(spine.group, rep_kind, order, character)
    tc = TwistedComplex(spine, X, SpiderAnchors(spine, X), rep)
    lifts = tc.default_lifts
    olifts = X.rational_complex.default_lifts  # None once transport fails

    def values(tc, lifts, olifts):
        """Torsion up to sign, and the sign-refined value (None without
        an orientation)."""
        raw = torsion(tc, h=lifts or None, keep_sign=True)
        sgn = None if olifts is None else _oriented_value(
            raw, tc.complex.rational_complex, olifts)
        return TorsionValue(raw.field, raw.value, False, raw.acyclic,
                            homology_basis_used=raw.homology_basis_used), sgn

    steps = []
    first_violation = None
    before_t, before_s = values(tc, lifts, olifts)
    for idx, move in enumerate(walk):
        if not moves_mod.h_cycle_check(move).is_null:
            raise TorsionError(
                "step %d: move has a nonzero invariance certificate" % idx)
        new_rep = moves_mod.transport_representation(move, tc.rep)
        X = new_rep.group.complex
        new_tc = TwistedComplex(move.after, X, SpiderAnchors(move.after, X),
                                new_rep)
        notes = []
        try:
            lifts = moves_mod.transport_homology(move, tc, new_tc, lifts)
        except TransportFailure as exc:
            lifts = None
            notes.append("homology transport failed: %s" % exc)
        if olifts is not None:
            try:
                olifts = moves_mod.transport_rational_homology(
                    move, tc.complex, X, olifts)
            except TransportFailure as exc:
                olifts = None
                notes.append("orientation transport failed: %s" % exc)
        note = "; ".join(notes) or None
        if lifts is None:
            exc = TransportFailure(note)
            exc.step, exc.move = idx, moves_mod.describe_move(move)
            raise exc
        after_t, after_s = values(new_tc, lifts, olifts)
        equal = before_t.equal_up_to_sign(after_t)
        sgn_equal = None if after_s is None else before_s == after_s
        steps.append(InvarianceStep(
            moves_mod.describe_move(move), before_t, after_t, equal,
            sgn_equal, note))
        if first_violation is None and (not equal or sgn_equal is False):
            first_violation = idx
        tc, before_t, before_s = new_tc, after_t, after_s
    return InvarianceReport(steps, first_violation is None, first_violation)
