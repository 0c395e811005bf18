"""Exact torsion of twisted complexes and its sign refinement.

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
free (non-pivot) coordinates of d_i.  Each step has one routine: the b_i
and the minors come from ``select_minor`` eliminations, ``_raw_value``
takes the alternating product with the Laplace signs, and every sign is
``perms.parity``.

Rows are restricted to R_i.  Restriction to R_i is injective on ker d_i,
which holds im d_{i+1}, so eliminating the rows R_i of d_{i+1} picks the
same b_{i+1} as the whole d_{i+1}.  The degrees are eliminated in order
0 to 2, each on the rows left free by the one before, and each once
(``selection_pass``): the rows R_i of [d_{i+1} | h_i], the columns of
d_{i+1} first, in cell order.  Its pivots among those columns are
b_{i+1}, its pivots among the lift columns say which lifts complete them
to a basis, and its last pivot is the degree's minor, zero unless they
do; the Betti numbers are read off the selections.  For the auto lifts
the lift columns are the identity on R_i, where the reduced kernel basis
of d_i is the identity: the pivots among them are the lift coordinates
and the minor is that of the default bases, so the default selections,
lifts and minors come from one cached pass per complex
(``ChainComplex.default_pass``).  Given lifts are restricted to R_i
instead.  Degree 3 has d_4 = 0 and no elimination, save one determinant
for given lifts of H_3.  The kernel itself is computed only where the
lift vectors are read.
"""

from .errors import BasisRankMismatch, NotAcyclicNoBasis, TorsionError
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
    coordinates of the complex's ``default_pass``.  A degree with Betti
    number 0 has no lifts and is skipped.  Returns a dict degree -> list of
    chain vectors.
    """
    field = tc.field
    mats = (tc.d1, tc.d2, tc.d3)
    out = {}
    for i, coords in tc.default_pass[2].items():
        if coords:
            kernel = field.nullspace(mats[i - 1]) if i else [[field.one]]
            out[i] = [kernel[k] for k in coords]
    return out


def _free_rows(n, basis):
    """R_i: the cells of a degree with ``n`` cells outside the selection
    ``basis``, ascending."""
    basis = set(basis)
    return [r for r in range(n) if r not in basis]


def selection_pass(cx, lifts="auto"):
    """The b_i selections, the minors det(rows R_i of [d b_{i+1} | h_i])
    and the lift coordinates, from one elimination per degree.

    Degree by degree from 0, the rows R_i of [d_{i+1} | extra columns] are
    eliminated, the columns of d_{i+1} visited in cell order and the extra
    columns after them.  Its pivots among the columns of d_{i+1} are
    b_{i+1}; its other pivots are the lift coordinates, as indices into
    the extra columns; and its last pivot is the minor, zero unless the
    pivots fill R_i.  The extra columns are the identity on R_i for
    ``lifts`` "auto": the reduced kernel basis of d_i is the identity
    there, so the coordinates pick the auto lifts.  Otherwise ``lifts`` is
    a dict degree -> chain vectors and the extra columns are those vectors
    restricted to R_i; a degree whose vectors do not all have the length
    of the degree gets none, which ``torsion`` reports.  Degree 3 has d_4 = 0 and needs no elimination, save one
    determinant for given lifts of H_3.  Returns (selections, minors,
    coordinates): selections[i] for i = 0..4, entries 0 and 4 empty, the
    minor of each degree 0..3, and a dict degree -> coordinates.
    """
    field = cx.field
    mats = (cx.d1, cx.d2, cx.d3)
    selections = [[] for _ in range(5)]
    minors = []
    coords = {}
    for i in range(3):
        n = cx.dims[i + 1]
        rows = _free_rows(cx.dims[i], selections[i])
        extra = _extra_columns(cx, lifts, i, rows)
        width = len(extra[0]) if extra else 0
        cols, minor = field.select_minor(
            [mats[i][r] + x for r, x in zip(rows, extra)], range(n + width))
        selections[i + 1] = [c for c in cols if c < n]
        coords[i] = [c - n for c in cols if c >= n]
        minors.append(minor)
    rows = _free_rows(cx.dims[3], selections[3])
    if lifts == "auto":  # d_4 = 0: every kernel vector of d_3 lifts
        coords[3], minor = list(range(len(rows))), field.one
    else:  # one determinant, when H_3 has lifts
        extra = _extra_columns(cx, lifts, 3, rows)
        coords[3], minor = field.select_minor(extra, range(len(extra[0]))) \
            if rows and extra[0] else ([], field.zero if rows else field.one)
    minors.append(minor)
    return tuple(selections), minors, coords


def _extra_columns(cx, lifts, i, rows):
    """The rows ``rows`` of the extra columns of degree i: the identity for
    "auto", else the given lifts of degree i, or none when one of them
    has not the length of the degree."""
    if lifts == "auto":
        out = [[cx.field.zero] * len(rows) for _ in rows]
        for k, row in enumerate(out):
            row[k] = cx.field.one
        return out
    vecs = lifts.get(i, ())
    if any(len(v) != cx.dims[i] for v in vecs):
        vecs = ()
    return [[v[r] for v in vecs] for r in rows]


def _betti(cx, selections):
    return [cx.dims[i] - len(selections[i]) - len(selections[i + 1])
            for i in range(4)]


def _raw_value(cx, selections, minors):
    """The alternating product of the change-of-basis determinants of the
    selections b_i, each its minor minors[i] = det(rows R_i of
    [d b_{i+1} | h_i]) times the Laplace sign sgn(R_i ++ b_i).  A zero
    minor means its columns are no basis."""
    value = inverse_part = cx.field.one
    for i, (n, d) in enumerate(zip(cx.dims, minors)):
        if d.is_zero():
            raise BasisRankMismatch(
                "degree %d: combined columns are not a basis" % i)
        if parity(_free_rows(n, selections[i]) + selections[i]) < 0:
            d = -d
        if i % 2 == 0:
            value = value * d
        else:
            inverse_part = inverse_part * d
    return value * inverse_part.inv()


def torsion(tc, h=None, keep_sign=False):
    """Torsion of a twisted complex with respect to its preferred bases.

    ``h`` supplies homology lifts: None (complex must be acyclic),
    "auto" (the complex's ``default_lifts``), or a dict degree -> list of
    chain vectors over the coefficient field, one per Betti number, which
    raises BasisRankMismatch when their number or length is wrong or they
    are no basis.  With ``keep_sign`` the raw value in the cell order is
    kept instead of the canonical +-representative.  With ``h`` None or
    "auto" the value is the complex's ``default_torsion``, computed once
    per complex from its ``default_pass``; given lifts take one
    ``selection_pass`` of their own, which gives the selections, the Betti
    numbers and the minors.
    """
    given = h not in (None, "auto")
    selections, minors, _coords = selection_pass(tc, h) if given \
        else tc.default_pass
    betti = _betti(tc, selections)
    acyclic = not any(betti)
    if not acyclic and h is None:
        raise NotAcyclicNoBasis(
            "twisted homology has dimensions %s; supply a basis" % (betti,))
    if given:
        for i, n in enumerate(tc.dims):
            vecs = h.get(i, ())
            if len(vecs) != betti[i]:
                raise BasisRankMismatch(
                    "degree %d: homology rank %d but %d basis vectors"
                    % (i, betti[i], len(vecs)))
            if any(len(v) != n for v in vecs):
                raise BasisRankMismatch("degree %d lift has wrong length" % i)
    value = _raw_value(tc, selections, minors) if given else tc.default_torsion
    if h == "auto":
        used = "auto"
    else:
        used = None if acyclic or h is None else "given"
    return TorsionValue(tc.field, value, keep_sign, acyclic,
                        homology_basis_used=used)


def sign_refined_torsion(spine, tc, h=None, orientation=None):
    """Sign-refined torsion: the cell-order sign is fixed by an orientation.

    The torsion of the rational untwisted complex is computed with the
    same cell ordering and with homology bases compatible with the given
    homological orientation; its sign multiplies the raw twisted value.
    A reordering of the cells changes both signs alike, so the product
    does not depend on the ordering.  ``orientation`` is None, the
    default lifts of ``tc.complex.rational_complex``, or a dict degree ->
    list of chain vectors over that complex's field, one per Betti number,
    like ``h`` of ``torsion``.  The default lifts are read off the cell
    labels, so on a relabelled spine the default orientation may change
    the sign of the value; an orientation carried through the cell
    correspondence of the relabelling does not.  ``spine`` is the spine
    ``tc`` was built on: the rational complex and the default orientation
    are read off ``tc.complex``, and the raw value comes from ``torsion``,
    so neither is recomputed for a complex that already has them.
    """
    raw = torsion(tc, h=h, keep_sign=True)
    value = _oriented_value(raw, tc.complex.rational_complex,
                            "auto" if orientation is None else orientation)
    return TorsionValue(tc.field, value, True, raw.acyclic,
                        homology_basis_used=raw.homology_basis_used,
                        orientation_used="default" if orientation is None
                        else "given")


def _oriented_value(raw, rat, olifts):
    """The raw twisted value times the sign of the rational torsion of
    ``rat`` with homology lifts ``olifts`` ("auto": the default
    orientation), read off ``_rational_value``."""
    negative = rat.field.leading_is_negative(_rational_value(rat, olifts))
    return -raw.value if negative else raw.value


def _rational_value(rat, lifts):
    """The raw torsion of the rational complex ``rat`` with homology lifts
    ``lifts`` ("auto": the default ones).  It is kept in
    ``rat.raw_torsions``, keyed by the values of the lifts, so each
    representation of one spine, and each walk that carries the same
    lifts to it, computes it once: the sign refinement reads its sign, and
    a trivial representation reads the value itself."""
    key = lifts if lifts == "auto" else tuple(
        (i, tuple(map(tuple, vecs))) for i, vecs in sorted(lifts.items()))
    value = rat.raw_torsions.get(key)
    if value is None:
        value = rat.raw_torsions[key] = torsion(rat, h=lifts,
                                                keep_sign=True).value
    return value


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
    ``group``, its rational complex, and the raw rational torsion of each
    orientation carried to it.  A second suite over the same walk, for
    another representation, builds only its twisted complexes, its
    transports and their torsion.

    A trivial representation, one whose every image is 1 (as the
    free-abelian one is on a spine with H_1 of free rank 0, and a cyclic
    character that kills H_1), twists nothing: its complex is the rational
    complex of each spine, its lifts are the orientation lifts, carried by
    the same ``transport_rational_homology``, and its value is the raw
    rational torsion that the sign refinement reads, embedded into the
    representation's field.  Such a suite builds no TwistedComplex and
    transports no representation, and a second one over the same walk
    computes nothing new.
    """
    from . import moves as moves_mod
    from .complexes import SpiderAnchors, TwistedComplex, make_representation
    from .errors import TransportFailure

    X = spine.complex
    rep = make_representation(spine.group, rep_kind, order, character)
    olifts = X.rational_complex.default_lifts  # None once transport fails
    trivial = all(e == rep.identity for e in rep.exponents)
    if trivial:
        cx, lifts = X.rational_complex, olifts
    else:
        cx = TwistedComplex(spine, X, SpiderAnchors(spine, X), rep)
        lifts = cx.default_lifts

    def values(X, cx, lifts, olifts):
        """Torsion up to sign, and the sign-refined value (None without
        an orientation)."""
        if trivial:  # the rational complex is never acyclic: H_0 = Q
            raw = TorsionValue(rep.field, rep.field.from_fraction(
                _rational_value(cx, lifts).as_fraction()), True, False,
                homology_basis_used="given")
        else:
            raw = torsion(cx, h=lifts or None, keep_sign=True)
        sgn = None if olifts is None else _oriented_value(
            raw, X.rational_complex, olifts)
        return TorsionValue(raw.field, raw.value, False, raw.acyclic,
                            homology_basis_used=raw.homology_basis_used), sgn

    steps = []
    first_violation = None
    before_t, before_s = values(X, cx, lifts, olifts)
    for idx, move in enumerate(walk):
        if not moves_mod.h_cycle_check(move).is_null:
            raise TorsionError(
                "step %d: move has a nonzero invariance certificate" % idx)
        X2 = move.after.complex
        if trivial:
            new_cx = X2.rational_complex
        else:
            new_cx = TwistedComplex(
                move.after, X2, SpiderAnchors(move.after, X2),
                moves_mod.transport_representation(move, cx.rep))
        notes = []
        try:
            lifts = moves_mod.transport_rational_homology(
                move, X, X2, lifts) if trivial \
                else moves_mod.transport_homology(move, cx, new_cx, lifts)
        except TransportFailure as exc:
            lifts = None
            notes.append("homology transport failed: %s" % exc)
        if olifts is not None:
            try:
                olifts = moves_mod.transport_rational_homology(
                    move, X, X2, olifts)
            except TransportFailure as exc:
                olifts = None
                notes.append("orientation transport failed: %s" % exc)
        note = "; ".join(notes) or None
        if lifts is None:
            exc = TransportFailure(note)
            exc.step, exc.move = idx, moves_mod.describe_move(move)
            raise exc
        after_t, after_s = values(X2, new_cx, lifts, olifts)
        equal = before_t.equal_up_to_sign(after_t)
        sgn_equal = None if after_s is None else before_s == after_s
        steps.append(InvarianceStep(
            moves_mod.describe_move(move), before_t, after_t, equal,
            sgn_equal, note))
        if first_violation is None and (not equal or sgn_equal is False):
            first_violation = idx
        X, cx, before_t, before_s = X2, new_cx, after_t, after_s
    return InvarianceReport(steps, first_violation is None, first_violation)
