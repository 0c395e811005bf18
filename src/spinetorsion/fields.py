"""Exact coefficient fields for twisted complexes and torsion values.

Three fields are provided:

- ``FunctionField(r)``: the rational-function field Q(t1..tr), elements
  ``RationalFunction``s: reduced pairs (num, den) of exponent dicts, the
  Laurent polynomials {exponent tuple: int or Fraction} that the matrix
  engine uses too, with den in the one normal form of a polynomial
  (``_normal``) and the gcd taken in ``polygcd``; the twisted complexes
  of free-abelian representations.  r = 0 degenerates to Q, printed
  alike; the free-abelian representation of a spine whose H_1 has free
  rank 0 maps into ``RationalField()`` instead.
- ``CyclotomicField(n)``: Q(zeta_n), elements stored as coefficient
  vectors modulo the n-th cyclotomic polynomial Phi_n; the twisted
  complexes of cyclic representations.
- ``RationalField()``: Q, elements an int when integral, else a
  Fraction; the trivial representation, free-abelian representations of
  free rank 0 (25 of the 46 spines of the 2-tetrahedron census) and the
  untwisted rational complex whose torsion sign refines the others.  Its
  elements print as the constants of ``FunctionField(0)`` do.

A representation hands a field its matrix entries through one hook,
``from_terms``: the element sum of c * x^e over (exponent, integer
coefficient) terms, x^e being t1^e1..tr^er, zeta_n^e with e taken mod n,
or 1 for the exponent ().

The fields share one matrix engine, ``_bareiss``: fraction-free
elimination (Bareiss 1968) on plain ints.  Each row is cleared first to
a primitive integer polynomial with nonnegative exponents, in Z[t1..tr]
for a function field, Z (no variable) for Q and Z[z] for a cyclotomic
field, whose entries are the integer lifts of coefficient vectors, and
keeps its row factor; each entry is then packed into an int by
Kronecker substitution.  Each field packs from its own elements
(``_packed``): Q straight from the int or Fraction of each entry, times
the row's lcm of denominators and over the gcd of the ints that gives,
which are their own packing; Q(zeta_n) from the coefficient tuples the
same way, each entry packed by Horner at the slot width once the row
degrees and l1 norms, taken in the same pass, size the slots; and
Q(t1..tr) on the exponent dicts that its elements are, each row
multiplied by its denominators, by the monomial that lifts its negative
exponents to 0 and by a rational that makes its coefficients coprime
integers.  (Only negative exponents are lifted: a cyclotomic lift has
none, so its row factors stay constants and no z^-k reaches
``CyclotomicField._divider``.)  A row of rationals has one primitive
integer row with a positive multiplier, so clearing by the lcm or by
the product of the denominators gives the same row.  ``_Kronecker`` is
built from the box alone, the degrees D_v and the bound H below.  The
loop is integer Bareiss, x <- (piv*x - f*y) // prev.  Every entry it
keeps is a minor of the cleared input (Sylvester's identity), so each
division by the previous pivot is exact in the polynomial ring and,
evaluation being a ring homomorphism, exact on the ints, however far the
products before it overflow the packing box.  ``_Kronecker`` sizes its
slots so that every minor decodes: a minor has degree at most D_v in x_v
and coefficients at most H in size, so slots of k = H.bit_length() + 1
bits, s_(v+1) = s_v * (D_v + 1) of them per unit of x_v, hold it as
signed digits.  Only entries that are read are decoded: the last pivot,
the cyclotomic pivot candidates and, when the rows above the pivots are
cleared too, the pivot rows.  A minor is zero in the field exactly when
the Gauss-Jordan entry is: pivots, row swaps and sign are those of
elimination over the field.  In the loop the fields differ only in the
pivot test: a nonzero int over Z[t1..tr] and Z, and over Z[z] an entry
that Phi_n does not divide, decoded and reduced only when its top slot
reaches the degree of Phi_n.  Nothing is reduced mod Phi_n during
elimination, only the entries read out.

The matrix routines are written once, in ``_Field``, and each eliminates
once.  A field supplies only what differs: its packing, its pivot
test, the read-out p -> p / den into the field, the element of an
integer character and, for values up to sign, whether the leading
coefficient is negative.  The greedy column choice "keep a
column if it raises the rank" is exactly the pivot set of one
elimination in that column order, and ``select_minor``, the one routine
that reads a minor, takes the determinant of the chosen columns off its
last pivot and the row factors.  ``select_columns`` is its columns,
``rank`` their number and ``det`` its minor in the identity order.
``nullspace`` and ``solve`` clear above the pivots as well, which leaves
every pivot row equal to the last pivot times its reduced echelon row,
and read kernels and solutions off by dividing by the last pivot.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import add as _add, mul as _mul, sub as _sub

# -- exponent-dict polynomials ------------------------------------------------
#
# A polynomial is a dict from exponent tuples to nonzero coefficients: ints
# in a cleared row, ints or Fractions in a ``RationalFunction``.


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


def _primitive(values):
    """The rationals ``values`` (ints or Fractions) scaled by mul / div to
    coprime ints, and mul and div: mul is the lcm of their denominators
    and div the gcd of the ints that gives (1 when all are zero).  The
    list itself comes back when it already is coprime ints."""
    dens = [v.denominator for v in values if type(v) is not int]
    mul = 1
    if dens:
        mul = _int_lcm(*dens)
        values = [v * mul if type(v) is int
                  else v.numerator * (mul // v.denominator) for v in values]
    div = _int_gcd(*values)
    if div > 1:
        values = [v // div for v in values]
    return values, mul, div or 1


def _integral(row):
    """The row of polynomials scaled by mul / div to coprime integer
    coefficients, and (mul, div)."""
    values = [v for e in row for v in e.values()]
    scaled, mul, div = _primitive(values)
    if scaled is not values:
        it = iter(scaled)
        row = [{k: next(it) for k in e} for e in row]
    return row, (mul, div)


class _Kronecker:
    """Kronecker substitution for the integer polynomial rows of one matrix.

    The rows have nonnegative exponents; ``degrees`` holds, per variable v,
    D_v, the sum over the rows of the row's largest exponent of v, and
    ``bound`` is H, the product over the rows of max(1, l1 norm of the
    row).  A polynomial p becomes the int p(2^k, 2^(k*s_2), .., 2^(k*s_r)):
    variable v goes to 2^(k*s_v), with s_1 = 1 and s_(v+1) = s_v * (D_v + 1).
    A minor of the rows takes one entry from each of its rows, so its
    degree in v is at most D_v and its terms fall in distinct slots, and
    its l1 norm is at most H.  A coefficient c then has |c| <= H < 2^(k-1)
    for k = H.bit_length() + 1, and reads back as the signed digit of its
    slot.  Evaluation is a ring homomorphism, so an identity between
    polynomials holds between their ints, whatever their size; only a
    minor is read back (``unpack``).  When every D_v is 0 there is one
    slot: an entry packs to its constant coefficient.
    """

    __slots__ = ("zero", "width", "strides", "radices", "slots", "_offset")

    def __init__(self, degrees, bound):
        self.zero = (0,) * len(degrees)
        self.radices = [d + 1 for d in degrees]
        self.strides = []
        self.slots = 1
        for d in self.radices:
            self.strides.append(self.slots)
            self.slots *= d
        self.width = self._offset = 0
        if self.slots > 1:
            self.width = bound.bit_length() + 1
            # Half a slot in every slot: the signed digits read as unsigned.
            self._offset = int(("1" + "0" * (self.width - 1)) * self.slots, 2)

    def pack(self, p):
        if self.slots == 1:
            return p.get(self.zero, 0)
        k = self.width
        return sum(c << k * sum(map(_mul, e, self.strides)) for e, c in p.items())

    def top(self, x):
        """The slot of the highest term of the minor ``x``, nonzero.

        With digits below 2^(k-1) in size, a top digit in slot t puts |x|
        strictly between 2^(k*t - 1) and 2^(k*t + k - 1)."""
        return abs(x).bit_length() // self.width if self.slots > 1 else 0

    def unpack(self, x):
        """The polynomial that packs to the minor ``x``."""
        if self.slots == 1:
            return {self.zero: x} if x else {}
        if not x:
            return {}
        k = self.width
        n = k * (self.top(x) + 1)
        bits = format(x + (self._offset & ((1 << n) - 1)), "b").zfill(n)
        half = 1 << (k - 1)
        out = {}
        for i, end in enumerate(range(n, 0, -k)):
            c = int(bits[end - k:end], 2) - half
            if c:
                out[tuple(i // s % d for s, d in zip(self.strides, self.radices))] = c
        return out


def _bareiss(A, order, nonzero, reduce=False):
    """Fraction-free elimination of the int matrix ``A``, in place.

    ``nonzero`` tells whether an entry is nonzero in the field.  Columns
    are visited in ``order``; a column with no such entry at or below the
    next pivot row is skipped.  Every entry stays a minor of the input, so
    each division by the previous pivot is exact (Bareiss).  With
    ``reduce`` the rows above each pivot are cleared too, which leaves
    every pivot row equal to the last pivot times its reduced echelon row.
    Returns (pivots, last pivot, sign): the (row, column) pivot pairs, the
    last pivot (for a square matrix of full rank, its determinant after
    the row swaps; 1 without pivots) and the sign of the row swaps.
    """
    m = len(A)
    prev = 1
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
        for i in range(0 if reduce else r + 1, m):
            if i != r:
                f = A[i][c]
                A[i] = [(piv * x - f * y) // prev
                        for x, y in zip(A[i], piv_row)]
        pivots.append((r, c))
        prev = piv
    return pivots, prev, sign


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


def _normal(p):
    """(shift, c, q) with p = t^shift * c * q for the nonzero polynomial
    ``p``: q has least exponent 0 in every variable, coprime integer
    coefficients and a positive leading coefficient (its largest exponent
    tuple), and c is an int or a Fraction.  q is thus the one normal form
    of p up to the units c * t^k (c rational) of the Laurent ring."""
    shift = tuple(map(min, zip(*p)))
    (q,), (mul, div) = _integral([p])
    if q[max(q)] < 0:
        div = -div
    if div < 0 or any(shift):
        q = {tuple(map(_sub, k, shift)): v if div > 0 else -v for k, v in q.items()}
    return shift, _quo(div, mul), q


class RationalFunction:
    """An element of Q(t1..tr), r = ``nvars``: a reduced pair of exponent
    dicts, ``num`` over ``den``, with nonzero int or Fraction coefficients.

    Canonical form: ``den`` is its own ``_normal`` form (least exponent 0
    in every variable, coprime integer coefficients, positive leading
    coefficient), and ``num`` and ``den`` are coprime, so equal values
    have equal pairs.  Without ``den`` the value is the Laurent polynomial
    ``num`` over 1, taken as it is: it must have no zero coefficient.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars, num, den=None):
        self.nvars = nvars
        if den is not None and not den:
            raise ZeroDivisionError("zero denominator")
        if den is None or not num:
            self.num, self.den = num, {(0,) * nvars: 1}
            return
        # den = t^s * c * q, so num / den = t^-s / c * num / q.  Unless q
        # is 1, num = t^s' * c' * p is normalised too and gcd(p, q) cancels.
        shift, c, den = _normal(den)
        shift, c = tuple(-e for e in shift), 1 / Fraction(c)
        if len(den) > 1:
            nshift, nc, num = _normal(num)
            shift, c = tuple(map(_add, shift, nshift)), c * nc
            if len(num) > 1:
                # Imported here: a process that never needs a gcd never
                # compiles it.
                from .polygcd import gcd
                g = gcd(num, den)
                if len(g) > 1:
                    g = _normal(g)[2]
                    num, den = _pdiv(num, g), _pdiv(den, g)
        if c != 1 or any(shift):
            c = _int_or_fraction(c)
            num = {tuple(map(_add, k, shift)): _int_or_fraction(v * c)
                   for k, v in num.items()}
        self.num, self.den = num, den

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, RationalFunction) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __add__(self, other):
        if self.den == other.den:
            one = {(0,) * self.nvars: 1}
            return RationalFunction(
                self.nvars, _dot(((self.num, one), (other.num, one))), self.den)
        return RationalFunction(
            self.nvars, _dot(((self.num, other.den), (other.num, self.den))),
            _dot(((self.den, other.den),)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # -num and den are still a reduced pair.
        x = object.__new__(RationalFunction)
        x.nvars, x.num, x.den = self.nvars, {k: -v for k, v in self.num.items()}, self.den
        return x

    def __mul__(self, other):
        return RationalFunction(self.nvars, _dot(((self.num, other.num),)),
                                _dot(((self.den, other.den),)))

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RationalFunction(self.nvars, self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def as_fraction(self):
        """The rational value, if constant; raises otherwise."""
        if self.is_zero():
            return Fraction(0)
        key = (0,) * self.nvars
        if self.num.keys() == self.den.keys() == {key}:
            return Fraction(self.num[key]) / self.den[key]
        raise ValueError("not a constant")

    def str_in(self, names):
        num = _terms_str(sorted(self.num.items(), reverse=True), names)
        if len(self.den) == 1:  # canonical: the denominator 1
            return num
        return "(%s)/(%s)" % (num, _terms_str(sorted(self.den.items(), reverse=True),
                                              names))


class _Field:
    """The matrix routines, ``from_int`` and ``from_terms`` of every field,
    written once.

    A field supplies ``from_fraction(q)``, the constant q; ``_unit``, the
    one of its polynomial ring keyed like the entries; ``_packed(matrix)``,
    its rows cleared to primitive integer polynomial rows with nonnegative
    exponents and packed, as (packed rows, ``_Kronecker``, row factors),
    a row factor (polynomial, (mul, div)) saying that the cleared row is
    the row times the polynomial times mul / div; ``_element_of(p)``,
    the element of an integer polynomial keyed by character exponents
    (see ``from_terms``); ``_pivot_test(codec)``, the pivot test of
    ``_bareiss`` on packed entries (any nonzero int, unless overridden);
    ``_divider(den)``, the map p -> p / den into the field; and
    ``leading_is_negative(x)``, the sign that the representative of +-x
    up to sign makes positive.
    """

    def from_int(self, k):
        return self.from_fraction(k)

    def from_terms(self, terms):
        """The sum of c * x^e over the (exponent, int coefficient) ``terms``:
        x^e is t1^e1..tr^er, zeta_n^e, or 1 for the exponent ()."""
        p = {}
        for e, c in terms:
            p[e] = p.get(e, 0) + c
        return self._element_of({e: c for e, c in p.items() if c})

    def _pivot_test(self, _codec):
        return bool

    def _eliminate(self, matrix, order, reduce=False):
        """One elimination of ``matrix``, its rows cleared and packed by
        ``_packed``: (packed rows after it, their ``_Kronecker``, row
        factors, pivots, last pivot, sign); see ``_bareiss``."""
        A, codec, factors = self._packed(matrix)
        pivots, last, sign = _bareiss(A, order, self._pivot_test(codec), reduce)
        return A, codec, factors, pivots, last, sign

    def select_minor(self, matrix, order):
        """The columns, in ``order``, that raise the rank of those before,
        and the determinant of those columns in that order: zero unless
        they are as many as the rows.

        The last pivot of the one elimination is that determinant for the
        cleared rows after the row swaps; each row was multiplied by its
        factor times mul / div.
        """
        _A, codec, factors, pivots, last, sign = self._eliminate(matrix, order)
        cols = [c for _r, c in pivots]
        if len(pivots) < len(factors):
            return cols, self.zero
        if not factors:
            return cols, self.one
        den = {k: sign for k in self._unit}
        mul = div = 1
        for factor, (m, d) in factors:
            if factor != self._unit:
                den = _dot(((den, factor),))
            mul *= m
            div *= d
        return cols, self._divider({k: v * mul for k, v in den.items()})(
            {k: v * div for k, v in codec.unpack(last).items()})

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
        A, codec, _f, pivots, last, _s = self._eliminate(matrix, range(n),
                                                         reduce=True)
        divide = self._divider(codec.unpack(last))
        pivot_cols = {c for _r, c in pivots}
        basis = []
        for j in range(n):
            if j in pivot_cols:
                continue
            vec = [self.zero] * n
            vec[j] = self.one
            for r, c in pivots:
                if A[r][j]:
                    vec[c] = divide(codec.unpack(-A[r][j]))
            basis.append(vec)
        return basis

    def solve(self, matrix, rhs):
        """The solution of A x = rhs with free variables zero, or None if
        inconsistent."""
        if not matrix:
            return [] if all(x.is_zero() for x in rhs) else None
        n = len(matrix[0])
        A, codec, _f, pivots, last, _s = self._eliminate(
            [row + [b] for row, b in zip(matrix, rhs)], range(n + 1), reduce=True)
        if any(c == n for _r, c in pivots):
            return None
        divide = self._divider(codec.unpack(last))
        sol = [self.zero] * n
        for r, c in pivots:
            if A[r][n]:
                sol[c] = divide(codec.unpack(A[r][n]))
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
        self.zero = RationalFunction(nvars, {})
        self.one = RationalFunction(nvars, {(0,) * nvars: 1})
        self._unit = self.one.num

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.nvars == other.nvars

    def __repr__(self):
        return "FunctionField(%d)" % self.nvars

    def from_fraction(self, q):
        """The constant ``q``: numerator ``q``, an int when integral, over 1."""
        q = _int_or_fraction(q)
        return RationalFunction(self.nvars, {(0,) * self.nvars: q} if q else {})

    def monomial(self, exps):
        return RationalFunction(self.nvars, {tuple(exps): 1})

    def _element_of(self, p):
        """The Laurent polynomial ``p`` over 1."""
        return RationalFunction(self.nvars, p)

    def element_str(self, x):
        return x.str_in(self.names)

    def leading_is_negative(self, x):
        """Whether the leading coefficient of the numerator is negative."""
        return bool(x.num) and x.num[max(x.num)] < 0

    def _packed(self, matrix):
        """The rows cleared on their exponent dicts, then packed.

        Each row is multiplied by the product of its denominators and by
        the monomial that lifts its negative exponents to 0, together the
        factor's polynomial, and by mul / div, which makes its coefficients
        coprime integers; row scaling by nonzero factors preserves ranks,
        kernels and solution sets, and determinants divide out the factors.
        """
        one = self._unit
        rows = []
        factors = []
        degrees = [0] * self.nvars
        bound = 1
        for row in matrix:
            dens = [(j, x.den) for j, x in enumerate(row) if x.den != one]
            new_row = []
            for k, x in enumerate(row):
                e = x.num
                for j, d in dens:
                    if j != k:
                        e = _dot(((e, d),))
                new_row.append(e)
            new_row, scale = _integral(new_row)
            factor = one
            for _j, d in dens:
                factor = _dot(((factor, d),))
            keys = [k for e in new_row for k in e]
            if keys:
                lift = tuple(-min(0, *col) for col in zip(*keys))
                if any(lift):
                    def shift(p):
                        return {tuple(map(_add, k, lift)): v
                                for k, v in p.items()}
                    new_row, factor = list(map(shift, new_row)), shift(factor)
                    keys = [k for e in new_row for k in e]
                degrees = list(map(_add, degrees, map(max, zip(*keys))))
            bound *= max(1, sum(abs(c) for p in new_row for c in p.values()))
            rows.append(new_row)
            factors.append((factor, scale))
        codec = _Kronecker(degrees, bound)
        return [list(map(codec.pack, row)) for row in rows], codec, factors

    def _divider(self, den):
        return lambda p: RationalFunction(self.nvars, p, den)


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

    def _element_of(self, p):
        return Rational(p.get((), 0))

    def element_str(self, x):
        return str(x.q)

    def leading_is_negative(self, x):
        return x.q < 0

    def _packed(self, matrix):
        """The rows cleared straight from ``Rational.q``: each multiplied by
        the lcm of its denominators and divided by the gcd of the ints that
        gives, which are their own packing (no variable, one slot)."""
        unit = self._unit
        rows = []
        factors = []
        for row in matrix:
            qs, mul, div = _primitive([x.q for x in row])
            rows.append(qs)
            factors.append((unit, (mul, div)))
        return rows, _Kronecker((), 1), factors

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
        A = [[col[i] for col in cols] + [int(i == 0)] for i in range(deg)]
        pivots, last, _s = _bareiss(A, range(deg), bool, reduce=True)
        return CyclotomicElement(self, [Fraction(A[r][deg] * mul, last * div)
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

    def _packed(self, matrix):
        """The rows cleared straight from the coefficient tuples, their
        lifts over the unit: each row's coefficients scaled to coprime ints
        (``_primitive``), with the row's degree and l1 norm taken in the
        same pass, then each entry packed by Horner at the slot width."""
        deg = self.degree
        unit = self._unit
        rows = []
        factors = []
        top = 0
        bound = 1
        for row in matrix:
            values, mul, div = _primitive([c for x in row for c in x.coeffs])
            rows.append(values)
            factors.append((unit, (mul, div)))
            bound *= max(1, sum(map(abs, values)))
            top += max((j % deg for j, c in enumerate(values) if c), default=0)
        codec = _Kronecker((top,), bound)
        k = codec.width
        packed = []
        for values in rows:
            out = []
            for j in range(0, len(values), deg):
                x = 0
                for c in reversed(values[j:j + deg]):
                    x = (x << k) + c
                out.append(x)
            packed.append(out)
        return packed, codec, factors

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

    def _pivot_test(self, codec):
        """Whether a packed entry, a minor, is nonzero in the field; below
        the degree of Phi_n that is whether it is nonzero at all."""
        deg = self.degree

        def nonzero(x):
            return bool(x) and (codec.top(x) < deg
                                or any(self._reduced(codec.unpack(x))))
        return nonzero

    def _element(self, p):
        """The field element of the lift ``p``."""
        return CyclotomicElement(self, self._reduced(p))

    def _element_of(self, p):
        """The element of ``p``, its exponents taken mod n."""
        lift = {}
        for (e,), c in p.items():
            e = (e % self.order,)
            lift[e] = lift.get(e, 0) + c
        return self._element(lift)

    def _divider(self, den):
        """A division of each coefficient when ``den`` is a constant, else
        a product with its inverse, taken once."""
        if den.keys() == {(0,)}:
            d = den[(0,)]
            return lambda p: CyclotomicElement(
                self, [_quo(c, d) for c in self._reduced(p)])
        inv = self._element(den).inv()
        return lambda p: self._element(p) * inv
