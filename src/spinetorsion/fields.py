"""Exact coefficient fields for twisted complexes and torsion values.

Three fields are provided:

- ``FunctionField(r)``: the rational-function field Q(t1..tr), elements
  stored as reduced fractions of Laurent polynomials with rational
  coefficients (their gcd is taken in ``polygcd``); the twisted complexes
  of free-abelian representations.  r = 0 degenerates to Q: the
  free-abelian representation of a spine whose H_1 has free rank 0
  builds it (25 of the 46 spines of the 2-tetrahedron census).
- ``CyclotomicField(n)``: Q(zeta_n), elements stored as coefficient
  vectors modulo the n-th cyclotomic polynomial Phi_n; the twisted
  complexes of cyclic representations.
- ``RationalField()``: Q, elements an int when integral, else a
  Fraction; the trivial representation and the untwisted rational
  complex whose torsion sign refines the others.  Its elements print as
  the constants of ``FunctionField(0)`` do.

The fields share one matrix engine, ``_bareiss``: fraction-free
elimination (Bareiss 1968) over integer polynomials held as exponent
dicts, Z[t1^+-1..tr^+-1] for a function field, Z (no variable) for Q
and Z[z] for a cyclotomic field, whose entries are the integer lifts of
coefficient vectors.  Every intermediate entry is a minor of the input
(Sylvester's identity), so each division by the previous pivot is exact
in the ring, and a minor is zero in the field exactly when the
Gauss-Jordan entry is: pivots, row swaps and sign are those of
elimination over the field.  The fields
differ only in the pivot test: a nonzero dict over Z[t^+-1] and Z, an
entry that Phi_n does not divide over Z[z].  Nothing is reduced mod Phi_n
during elimination, only the entries read out.

The matrix routines are written once, in ``_Field``, and each eliminates
once.  A field supplies only what differs: its elements as (numerator,
denominator) polynomials (a cyclotomic element is its lift over the
unit), its pivot test, the read-out p -> p / den into the field and,
for values up to sign, whether the leading coefficient is negative.
Rows are cleared to coprime integer coefficients first, keeping the row
factors for the determinant.  The greedy column choice "keep a column if
it raises the rank" is exactly the pivot set of one elimination in that
column order, and ``select_minor``, the one routine that reads a minor,
takes the determinant of the chosen columns off its last pivot and the
row factors.  ``select_columns`` is its columns, ``rank`` their number
and ``det`` its minor in the identity order.  ``nullspace`` and ``solve``
clear above the pivots as well, which leaves every pivot row equal to
the last pivot times its reduced echelon row, and read kernels and
solutions off by dividing by the last pivot.  ``cofactor_det`` gives an
independent slow determinant used to cross-check the engine.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import add as _add, sub as _sub

# -- exponent-dict polynomials ------------------------------------------------
#
# A polynomial is a dict from exponent tuples to nonzero coefficients: ints
# on the elimination path, ints or Fractions in a LaurentPoly.


def _quo(a, b):
    """a / b, an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a) / b if r else q


def _dot(pairs):
    """The sum of the products a * b over the (a, b) pairs of polynomials."""
    out = {}
    get = out.get
    for a, b in pairs:
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = tuple(map(_add, k1, k2))
                out[k] = get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _pdiv(a, b):
    """The exact quotient a / b in the Laurent ring; raises if not exact."""
    if not b:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if len(b) == 1:
        (kb, vb), = b.items()
        if vb == 1 and not any(kb):
            return a
        return {tuple(map(_sub, k, kb)): _quo(v, vb) for k, v in a.items()}
    if not a:
        return a
    # In each variable the quotient's exponents span those of a less those
    # of b; a quotient term outside that box proves the division inexact.
    lo = tuple(map(_sub, map(min, zip(*a)), map(min, zip(*b))))
    hi = tuple(map(_sub, map(max, zip(*a)), map(max, zip(*b))))
    kb = max(b)
    vb = b[kb]
    rem = dict(a)
    out = {}
    while rem:
        ka = max(rem)
        q = tuple(map(_sub, ka, kb))
        if not all(l <= e <= h for l, e, h in zip(lo, q, hi)):
            raise ArithmeticError("non-exact Laurent division")
        c = out[q] = _quo(rem[ka], vb)
        for k, v in b.items():
            k = tuple(map(_add, q, k))
            s = rem.get(k, 0) - c * v
            if s:
                rem[k] = s
            else:
                del rem[k]
    return out


def _int_or_fraction(q):
    """The rational ``q`` as an int when integral, else as a Fraction."""
    if type(q) is int:
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _integral(row):
    """The row of polynomials scaled by mul / div to coprime integer
    coefficients, and (mul, div)."""
    den = _int_lcm(*(v.denominator for e in row for v in e.values()))
    if den != 1 or any(type(v) is not int for e in row for v in e.values()):
        row = [{k: v.numerator * (den // v.denominator) for k, v in e.items()}
               for e in row]
    g = _int_gcd(*(v for e in row for v in e.values()))
    if g > 1:
        row = [{k: v // g for k, v in e.items()} for e in row]
    return row, (den, g or 1)


def _bareiss(A, order, nonzero, reduce=False):
    """Fraction-free elimination of the polynomial matrix ``A``, in place.

    ``nonzero`` tells whether an entry is nonzero in the field.  Columns
    are visited in ``order``; a column with no such entry at or below the
    next pivot row is skipped.  Every entry stays a minor of the input, so
    each division by the previous pivot is exact (Bareiss).  With
    ``reduce`` the rows above each pivot are cleared too, which leaves
    every pivot row equal to the last pivot times its reduced echelon row.
    Returns (pivots, last pivot, sign): the (row, column) pivot pairs, the
    last pivot (for a square matrix of full rank, its determinant after
    the row swaps) and the sign of the row swaps.
    """
    m = len(A)
    prev = None
    pivots = []
    sign = 1
    for c in order:
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if nonzero(A[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            A[r], A[pr] = A[pr], A[r]
            sign = -sign
        piv_row = A[r]
        piv = piv_row[c]
        if prev is None:  # the unit, keyed like the entries
            prev = {tuple(0 for _e in next(iter(piv))): 1}
        for i in range(0 if reduce else r + 1, m):
            if i == r:
                continue
            f = {k: -v for k, v in A[i][c].items()}
            A[i] = [_pdiv(_dot(((piv, x), (f, y))), prev) if x or (f and y) else x
                    for x, y in zip(A[i], piv_row)]
        pivots.append((r, c))
        prev = piv
    return pivots, prev, sign


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables over Q.

    ``terms`` maps exponent tuples to nonzero ints or Fractions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v} if terms else {}

    @classmethod
    def const(cls, nvars, value):
        return cls.monomial(nvars, (0,) * nvars, value)

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        coeff = _int_or_fraction(coeff)
        return _lp(nvars, {tuple(exps): coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        one = {(0,) * self.nvars: 1}
        return _lp(self.nvars, _dot(((self.terms, one), (other.terms, one))))

    def __neg__(self):
        return _lp(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _lp(self.nvars, _dot(((self.terms, other.terms),)))

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return LaurentPoly(self.nvars)
        return LaurentPoly(self.nvars, {k: v * c for k, v in self.terms.items()})

    def shift(self, exps):
        return LaurentPoly(self.nvars,
                           {tuple(a + b for a, b in zip(k, exps)): v
                            for k, v in self.terms.items()})

    def lead_key(self):
        return max(self.terms) if self.terms else None

    def lead_coeff(self):
        return self.terms[max(self.terms)] if self.terms else Fraction(0)

    def min_exponents(self):
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(k[i] for k in self.terms) for i in range(self.nvars))

    def is_monomial(self):
        return len(self.terms) == 1

    def signed_content(self):
        """Positive-lead normaliser: self / signed_content() is integer-primitive
        with positive leading coefficient."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for v in self.terms.values():
            num = _int_gcd(num, abs(v.numerator))
            den = den * v.denominator // _int_gcd(den, v.denominator)
        c = Fraction(num, den)
        return c if self.lead_coeff() > 0 else -c

    def exact_div(self, other):
        """Exact quotient self / other in the Laurent ring; raises if not exact."""
        return _lp(self.nvars, _pdiv(self.terms, other.terms))

    def str_terms(self, names):
        return _terms_str(sorted(self.terms.items(), reverse=True), names)


def _terms_str(terms, names):
    """The (exponents, coefficient) pairs ``terms`` printed in their order as
    a sum of c*x1^e1*..: unit coefficients and exponents 1 are left out,
    zero exponents skipped, and "0" is the empty sum."""
    bits = []
    for k, c in terms:
        mono = "*".join(n if e == 1 else "%s^%d" % (n, e)
                        for n, e in zip(names, k) if e)
        if not mono:
            bits.append("%s" % c)
        else:
            bits.append(mono if c == 1 else "-" + mono if c == -1
                        else "%s*%s" % (c, mono))
    if not bits:
        return "0"
    out = bits[0]
    for part in bits[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def _lp(nvars, terms):
    """A LaurentPoly on a dict with no zero coefficient, taken as it is."""
    p = object.__new__(LaurentPoly)
    p.nvars, p.terms = nvars, terms
    return p


def _lp_gcd(a, b):
    """GCD of Laurent polynomials with nonnegative exponents, up to units."""
    nvars = a.nvars
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if nvars == 0:
        return LaurentPoly.const(0, 1)
    if a.is_monomial() or b.is_monomial():
        keys = list(a.terms) + list(b.terms)
        exps = tuple(min(k[i] for k in keys) for i in range(nvars))
        return LaurentPoly.monomial(nvars, exps)
    # Imported here: a process that never needs a gcd never compiles it.
    from .polygcd import gcd
    return _lp(nvars, gcd(_integral([a.terms])[0][0], _integral([b.terms])[0][0]))


class RationalFunction:
    """A reduced fraction of Laurent polynomials; always canonical.

    Canonical form: the denominator is an integer-primitive polynomial
    with nonnegative exponents (minimum exponent 0 in every variable) and
    positive leading coefficient; numerator and denominator are coprime.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, num, den=None, _canonical=False):
        self.nvars = num.nvars
        if den is None:
            den = LaurentPoly.const(self.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if _canonical:
            self.num, self.den = num, den
            return
        if num.is_zero():
            self.num = num
            self.den = LaurentPoly.const(self.nvars, 1)
            return
        # Pull the denominator's monomial unit into the numerator.
        shift = den.min_exponents()
        if any(shift):
            den = den.shift(tuple(-e for e in shift))
            num = num.shift(tuple(-e for e in shift))
        if not den.is_monomial():
            nshift = num.min_exponents()
            npoly = num.shift(tuple(-e for e in nshift)) if any(nshift) else num
            g = _lp_gcd(npoly, den)
            if not (g.is_monomial() and g.lead_key() == (0,) * self.nvars):
                npoly = npoly.exact_div(g)
                den = den.exact_div(g)
            num = npoly.shift(nshift) if any(nshift) else npoly
        c = den.signed_content()
        if c != 1:
            den = den.scale(1 / c)
            num = num.scale(1 / c)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def as_fraction(self):
        """The rational value, if constant; raises otherwise."""
        if self.is_zero():
            return Fraction(0)
        if self.num.is_monomial() and self.den.is_monomial():
            (kn, vn), = self.num.terms.items()
            (kd, vd), = self.den.terms.items()
            if not any(kn) and not any(kd):
                return Fraction(vn) / vd
        raise ValueError("not a constant")

    def str_in(self, names):
        num = self.num.str_terms(names)
        if self.den.is_monomial() and self.den.lead_key() == (0,) * self.nvars \
                and self.den.lead_coeff() == 1:
            return num
        return "(%s)/(%s)" % (num, self.den.str_terms(names))


class _Field:
    """The matrix routines and ``from_int`` of every field, written once.

    A field supplies ``from_fraction(q)``, the constant q; ``_unit``, the
    one of its polynomial ring keyed like the entries; ``_parts(x)``, an
    element as (numerator, denominator) polynomials; ``_nonzero(p)``,
    the pivot test of ``_bareiss`` (any nonzero entry, unless overridden);
    ``_divider(den)``, the map p -> p / den into the field; and
    ``leading_is_negative(x)``, the sign that the representative of +-x
    up to sign makes positive.
    """

    _nonzero = bool

    def from_int(self, k):
        return self.from_fraction(k)

    def _eliminate(self, A, order, reduce=False):
        return _bareiss(A, order, self._nonzero, reduce)

    def _cleared(self, matrix):
        """(integer polynomial rows, row factors (polynomial, (mul, div))).

        Each row is multiplied by the product of its denominators, the
        factor's polynomial, and by mul / div, which makes its coefficients
        coprime integers; row scaling by nonzero factors preserves ranks,
        kernels and solution sets, and determinants divide out the factors.
        """
        one = self._unit
        cleared = []
        factors = []
        for row in matrix:
            parts = [self._parts(x) for x in row]
            dens = [(j, d) for j, (_n, d) in enumerate(parts) if d != one]
            new_row = []
            for k, (e, _d) in enumerate(parts):
                for j, d in dens:
                    if j != k:
                        e = _dot(((e, d),))
                new_row.append(e)
            new_row, scale = _integral(new_row)
            factor = one
            for _j, d in dens:
                factor = _dot(((factor, d),))
            cleared.append(new_row)
            factors.append((factor, scale))
        return cleared, factors

    def select_minor(self, matrix, order):
        """The columns, in ``order``, that raise the rank of those before,
        and the determinant of those columns in that order: zero unless
        they are as many as the rows.

        The last pivot of the one elimination is that determinant for the
        cleared rows after the row swaps; each row was multiplied by its
        factor times mul / div.
        """
        A, factors = self._cleared(matrix)
        pivots, last, sign = self._eliminate(A, order)
        cols = [c for _r, c in pivots]
        if len(pivots) < len(factors):
            return cols, self.zero
        if not factors:
            return cols, self.one
        den = {k: sign for k in self._unit}
        mul = div = 1
        for factor, (m, d) in factors:
            den = _dot(((den, factor),))
            mul *= m
            div *= d
        return cols, self._divider({k: v * mul for k, v in den.items()})(
            {k: v * div for k, v in last.items()})

    def det(self, matrix):
        """Determinant of a square matrix of field elements."""
        return self.select_minor(matrix, range(len(matrix)))[1]

    def select_columns(self, matrix, order):
        """The columns, in ``order``, that raise the rank of those before."""
        return self.select_minor(matrix, order)[0]

    def rank(self, matrix):
        return len(self.select_columns(matrix, range(len(matrix[0])))) if matrix else 0

    def nullspace(self, matrix):
        """Reduced basis of the right kernel, one vector per non-pivot column."""
        if not matrix:
            return []
        n = len(matrix[0])
        A = self._cleared(matrix)[0]
        pivots, last, _s = self._eliminate(A, range(n), reduce=True)
        divide = self._divider(last) if pivots else None
        pivot_cols = {c for _r, c in pivots}
        basis = []
        for j in range(n):
            if j in pivot_cols:
                continue
            vec = [self.zero] * n
            vec[j] = self.one
            for r, c in pivots:
                if A[r][j]:
                    vec[c] = divide({k: -v for k, v in A[r][j].items()})
            basis.append(vec)
        return basis

    def solve(self, matrix, rhs):
        """The solution of A x = rhs with free variables zero, or None if
        inconsistent."""
        if not matrix:
            return [] if all(x.is_zero() for x in rhs) else None
        n = len(matrix[0])
        A = self._cleared([row + [b] for row, b in zip(matrix, rhs)])[0]
        pivots, last, _s = self._eliminate(A, range(n + 1), reduce=True)
        if any(c == n for _r, c in pivots):
            return None
        divide = self._divider(last) if pivots else None
        sol = [self.zero] * n
        for r, c in pivots:
            if A[r][n]:
                sol[c] = divide(A[r][n])
        return sol


# Each field binds these in its own namespace, so that one field's routines
# can be wrapped (say, by a profiler) without touching the other's.
_ROUTINES = (_Field.rank, _Field.select_columns, _Field.det, _Field.nullspace,
             _Field.solve)


class FunctionField(_Field):
    """Q(t1..tr), with matrices eliminated over Z[t1^+-1..tr^+-1]."""

    rank, select_columns, det, nullspace, solve = _ROUTINES

    def __init__(self, nvars):
        self.nvars = nvars
        self.names = tuple("t%d" % (i + 1) for i in range(nvars))
        self.zero = RationalFunction(LaurentPoly(nvars))
        self.one = RationalFunction(LaurentPoly.const(nvars, 1))
        self._unit = {(0,) * nvars: 1}

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.nvars == other.nvars

    def __repr__(self):
        return "FunctionField(%d)" % self.nvars

    def from_fraction(self, q):
        """The constant ``q``, built in canonical form: numerator ``q`` (an
        int when integral) over the denominator 1."""
        return RationalFunction(LaurentPoly.const(self.nvars, q), self.one.den,
                                _canonical=True)

    def monomial(self, exps):
        return RationalFunction(LaurentPoly.monomial(self.nvars, exps))

    def element_str(self, x):
        return x.str_in(self.names)

    def leading_is_negative(self, x):
        """Whether the leading coefficient of the numerator is negative."""
        return x.num.lead_coeff() < 0

    def _parts(self, x):
        return x.num.terms, x.den.terms

    def _divider(self, den):
        den = _lp(self.nvars, den)
        return lambda p: RationalFunction(_lp(self.nvars, p), den)


class Rational:
    """An element of Q: ``q`` is an int when integral, else a Fraction."""

    __slots__ = ("q",)

    def __init__(self, q):
        self.q = q if type(q) is int or q.denominator != 1 else q.numerator

    def is_zero(self):
        return not self.q

    def __eq__(self, other):
        return isinstance(other, Rational) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __add__(self, other):
        return Rational(self.q + other.q)

    def __sub__(self, other):
        return Rational(self.q - other.q)

    def __neg__(self):
        return Rational(-self.q)

    def __mul__(self, other):
        return Rational(self.q * other.q)

    def inv(self):
        return Rational(_quo(1, self.q) if type(self.q) is int else 1 / self.q)

    def __truediv__(self, other):
        return self * other.inv()

    def as_fraction(self):
        return Fraction(self.q)


class RationalField(_Field):
    """Q, with matrices eliminated over Z (0-variable polynomials)."""

    rank, select_columns, det, nullspace, solve = _ROUTINES

    def __init__(self):
        self.zero = Rational(0)
        self.one = Rational(1)
        self._unit = {(): 1}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __repr__(self):
        return "RationalField()"

    def from_fraction(self, q):
        return Rational(q if type(q) is int else Fraction(q))

    def element_str(self, x):
        return str(x.q)

    def leading_is_negative(self, x):
        return x.q < 0

    def _parts(self, x):
        q = x.q
        if type(q) is int:
            return ({(): q} if q else {}), self._unit
        return {(): q.numerator}, {(): q.denominator}

    def _divider(self, den):
        """The map p -> p / den: one division by the integer ``den`` per
        entry, an int when exact."""
        d = den[()]
        return lambda p: Rational(_quo(p[()], d))


def cyclotomic_polynomial(n):
    """Integer coefficient list of the n-th cyclotomic polynomial, low degree first."""

    def poly_div(a, b):
        a = list(a)
        out = [0] * (len(a) - len(b) + 1)
        while len(a) >= len(b) and any(a):
            shift = len(a) - len(b)
            q = a[-1] // b[-1]
            out[shift] = q
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        return out

    poly = [0] * n + [1]
    poly[0] = -1  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly_div(poly, cyclotomic_polynomial(d))
    return poly


class CyclotomicElement:
    """An element of Q(zeta_n): its coefficients of 1, z, .., z^(deg-1),
    ints or Fractions."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, CyclotomicElement)
                and self.field.order == other.field.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __add__(self, other):
        return CyclotomicElement(self.field,
                                 [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return CyclotomicElement(self.field,
                                 [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        field = self.field
        return field._element(_dot(((field._lift(self), field._lift(other)),)))

    def inv(self):
        return self.field.invert(self)

    def __truediv__(self, other):
        return self * other.inv()


class CyclotomicField(_Field):
    """Q(zeta_n), with matrices eliminated over Z[z] (see ``_bareiss``)."""

    rank, select_columns, det, nullspace, solve = _ROUTINES

    def __init__(self, order):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.phi = tuple(cyclotomic_polynomial(order))
        self.degree = len(self.phi) - 1
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self._unit = {(0,): 1}

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and self.order == other.order

    def __repr__(self):
        return "CyclotomicField(%d)" % self.order

    def from_fraction(self, q):
        """The constant ``q``, an int coefficient when integral."""
        return CyclotomicElement(self, [_int_or_fraction(q)]
                                 + [0] * (self.degree - 1))

    def zeta(self, power=1):
        return self._element({(power % self.order,): 1})

    @cached_property
    def _zeta_exponents(self):
        """The exponent k of each power z^k, 0 <= k < n, keyed by its
        coefficients: z^k for k >= deg(Phi_n) is stored reduced."""
        out = {}
        coeffs = [1] + [0] * (self.degree - 1)
        for k in range(self.order):
            out[tuple(coeffs)] = k
            top = coeffs[-1]
            coeffs = [0] + coeffs[:-1]
            if top:  # z^deg = -(Phi_n - z^deg)
                coeffs = [c - top * f for c, f in zip(coeffs, self.phi)]
        return out

    def invert(self, el):
        """The inverse of ``el``: z^-k when ``el`` is z^k, otherwise
        multiplication by ``el``, as a matrix over Q, solved for 1."""
        if el.is_zero():
            raise ZeroDivisionError("inverting zero")
        k = self._zeta_exponents.get(el.coeffs)
        if k is not None:
            return self.zeta(-k)
        p = self._lift(el)
        deg = self.degree
        (p,), (mul, div) = _integral([p])
        cols = [self._reduced({(i + j,): c for (i,), c in p.items()})
                for j in range(deg)]
        A = [[{(): col[i]} if col[i] else {} for col in cols]
             + [{(): 1} if i == 0 else {}] for i in range(deg)]
        pivots, last, _s = _bareiss(A, range(deg), bool, reduce=True)
        return CyclotomicElement(self, [Fraction(A[r][deg].get((), 0) * mul,
                                                 last[()] * div)
                                        for r, _c in pivots])

    def element_str(self, x):
        return _terms_str((((i,), c) for i, c in enumerate(x.coeffs) if c),
                          ("z",))

    def leading_is_negative(self, x):
        """Whether the coefficient of the highest power of z is negative."""
        return next((c < 0 for c in reversed(x.coeffs) if c), False)

    def _lift(self, x):
        """The coefficients of ``x`` as a polynomial in z."""
        return {(i,): c for i, c in enumerate(x.coeffs) if c}

    def _parts(self, x):
        return self._lift(x), self._unit

    def _reduced(self, p):
        """The coefficient list of the lift ``p`` modulo the monic Phi_n."""
        deg = self.degree
        coeffs = [0] * max(deg, max(p)[0] + 1 if p else 0)
        for (k,), v in p.items():
            coeffs[k] = v
        for k in range(len(coeffs) - 1, deg - 1, -1):
            top = coeffs[k]
            if top:
                for i, c in enumerate(self.phi[:-1], k - deg):
                    coeffs[i] -= top * c
        return coeffs[:deg]

    def _nonzero(self, p):
        """Whether the lift ``p`` is nonzero in the field; below the degree
        of Phi_n that is whether it is a nonzero polynomial."""
        return bool(p) and (max(p)[0] < self.degree or any(self._reduced(p)))

    def _element(self, p, scale=1):
        """The field element of the lift ``p``, times ``scale``."""
        return CyclotomicElement(self, [c * scale for c in self._reduced(p)])

    def _divider(self, den):
        """A scaling by a Fraction when ``den`` is a constant, else a
        product with its inverse, taken once."""
        if den.keys() == {(0,)}:
            scale = Fraction(1, den[(0,)])
            return lambda p: self._element(p, scale)
        inv = self._element(den).inv()
        return lambda p: self._element(p) * inv


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
